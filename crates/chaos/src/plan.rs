//! Seeded fault plans and the armed [`Chaos`] handle consumers carry.

#[cfg(not(feature = "chaos-off"))]
use crate::chacha;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What an armed site does to the operation that hit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail with a synthetic I/O error; the guarded operation must not
    /// have run.
    Io,
    /// Panic, as a crashed worker thread would.
    Panic,
    /// Sleep for the given duration before proceeding (queue stalls,
    /// slow disks).
    Stall(Duration),
}

impl Fault {
    /// The synthetic error an [`Fault::Io`] injection surfaces, tagged
    /// with its site so logs distinguish injected faults from real ones.
    pub fn io_error(site: &str) -> std::io::Error {
        std::io::Error::other(format!("chaos: injected I/O fault at {site}"))
    }
}

/// Which occurrences of a site fire its fault. Occurrences are counted
/// from 0 each time a plan is armed.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Every occurrence.
    Always,
    /// Occurrences `0..n` — a transient burst that retries outlast.
    First(u64),
    /// Every occurrence `>= n` — a persistent failure that sets in.
    From(u64),
    /// Exactly the listed occurrences.
    At(Vec<u64>),
    /// Each occurrence independently with probability `p`, drawn from
    /// the site's ChaCha8 stream at the occurrence index — so the same
    /// `(seed, site, occurrence)` always draws the same answer.
    Random(f64),
}

#[derive(Debug)]
struct Site {
    #[cfg(not(feature = "chaos-off"))]
    fault: Fault,
    #[cfg(not(feature = "chaos-off"))]
    trigger: Trigger,
    occurrence: AtomicU64,
    injected: AtomicU64,
}

#[derive(Debug)]
struct PlanState {
    #[cfg(not(feature = "chaos-off"))]
    key: [u32; 8],
    sites: BTreeMap<String, Site>,
    #[cfg(not(feature = "chaos-off"))]
    rank_deaths: BTreeMap<usize, u64>,
    injected_total: AtomicU64,
}

/// A description of which faults to inject where. Build one, then
/// [`FaultPlan::arm`] it into the [`Chaos`] handle the pipeline carries.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: BTreeMap<String, (Fault, Trigger)>,
    rank_deaths: BTreeMap<usize, u64>,
}

impl FaultPlan {
    /// An empty plan keyed on `seed`. The seed only matters to
    /// [`Trigger::Random`] sites; counted triggers replay identically
    /// under any seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: BTreeMap::new(),
            rank_deaths: BTreeMap::new(),
        }
    }

    /// Arms `site` with `fault` on `trigger` (one rule per site; a
    /// second call replaces the first).
    pub fn inject(mut self, site: &str, fault: Fault, trigger: Trigger) -> FaultPlan {
        self.rules.insert(site.to_string(), (fault, trigger));
        self
    }

    /// Marks `rank` to die after completing `after_tiles` tiles of its
    /// assignment. Rank 0 is the coordinator and is never killed;
    /// marking it is a no-op.
    pub fn kill_rank(mut self, rank: usize, after_tiles: u64) -> FaultPlan {
        if rank != 0 {
            self.rank_deaths.insert(rank, after_tiles);
        }
        self
    }

    /// Parses the CLI fault-spec grammar: comma-separated entries of
    /// `site=fault@trigger` or `rank-death:<rank>@<tiles>`, where fault
    /// is `io` | `panic` | `stall:<ms>` and trigger is `always` |
    /// `first:<n>` | `from:<n>` | `at:<i[;j...]>` | `p:<float>`.
    ///
    /// Example: `gram.ckpt.store=io@first:2,rank-death:1@2`.
    pub fn parse(seed: u64, spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            if let Some(rest) = entry.strip_prefix("rank-death:") {
                let (rank, tiles) = rest
                    .split_once('@')
                    .ok_or_else(|| format!("bad rank-death entry: {entry}"))?;
                let rank: usize = rank.parse().map_err(|_| format!("bad rank: {rank}"))?;
                let tiles: u64 = tiles.parse().map_err(|_| format!("bad tiles: {tiles}"))?;
                plan = plan.kill_rank(rank, tiles);
                continue;
            }
            let (site, rule) = entry
                .split_once('=')
                .ok_or_else(|| format!("missing '=' in entry: {entry}"))?;
            let (fault, trigger) = rule
                .split_once('@')
                .ok_or_else(|| format!("missing '@' in entry: {entry}"))?;
            let fault = if let Some(ms) = fault.strip_prefix("stall:") {
                let ms: u64 = ms.parse().map_err(|_| format!("bad stall ms: {ms}"))?;
                Fault::Stall(Duration::from_millis(ms))
            } else {
                match fault {
                    "io" => Fault::Io,
                    "panic" => Fault::Panic,
                    other => return Err(format!("unknown fault: {other}")),
                }
            };
            let trigger = if trigger == "always" {
                Trigger::Always
            } else if let Some(n) = trigger.strip_prefix("first:") {
                Trigger::First(n.parse().map_err(|_| format!("bad count: {n}"))?)
            } else if let Some(n) = trigger.strip_prefix("from:") {
                Trigger::From(n.parse().map_err(|_| format!("bad count: {n}"))?)
            } else if let Some(list) = trigger.strip_prefix("at:") {
                let occurrences = list
                    .split(';')
                    .map(|i| i.parse().map_err(|_| format!("bad occurrence: {i}")))
                    .collect::<Result<Vec<u64>, String>>()?;
                Trigger::At(occurrences)
            } else if let Some(p) = trigger.strip_prefix("p:") {
                let p: f64 = p.parse().map_err(|_| format!("bad probability: {p}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability out of range: {p}"));
                }
                Trigger::Random(p)
            } else {
                return Err(format!("unknown trigger: {trigger}"));
            };
            plan = plan.inject(site.trim(), fault, trigger);
        }
        Ok(plan)
    }

    /// Freezes the plan into an armed handle with fresh occurrence
    /// counters. Arming the same plan twice yields two independent
    /// handles that replay the identical fault schedule.
    pub fn arm(self) -> Chaos {
        let sites = self
            .rules
            .into_iter()
            .map(|(name, _rule)| {
                (
                    name,
                    Site {
                        #[cfg(not(feature = "chaos-off"))]
                        fault: _rule.0,
                        #[cfg(not(feature = "chaos-off"))]
                        trigger: _rule.1,
                        occurrence: AtomicU64::new(0),
                        injected: AtomicU64::new(0),
                    },
                )
            })
            .collect();
        Chaos {
            inner: Some(Arc::new(PlanState {
                #[cfg(not(feature = "chaos-off"))]
                key: chacha::key_from_seed(self.seed),
                sites,
                #[cfg(not(feature = "chaos-off"))]
                rank_deaths: self.rank_deaths,
                injected_total: AtomicU64::new(0),
            })),
        }
    }
}

/// The handle hardened components carry. Cloning shares the occurrence
/// counters, so one armed plan spans every thread of a job. The default
/// handle is disarmed: every check is a branch on a `None` and returns
/// nothing. Under the `chaos-off` feature the checks compile to
/// constant `None` regardless of arming.
#[derive(Debug, Clone, Default)]
pub struct Chaos {
    inner: Option<Arc<PlanState>>,
}

/// Configuration equality cares about *which plan* a handle carries,
/// not counter progress: two handles are equal when they share one
/// armed plan (or are both disarmed).
impl PartialEq for Chaos {
    fn eq(&self, other: &Chaos) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Chaos {
    /// A handle with no plan: every check answers `None` for free.
    pub fn disarmed() -> Chaos {
        Chaos::default()
    }

    /// Whether a plan is armed (always `false` under `chaos-off`).
    pub fn is_armed(&self) -> bool {
        !cfg!(feature = "chaos-off") && self.inner.is_some()
    }

    /// Counts one occurrence of `site` and returns the fault to inject
    /// at it, if the armed plan says so. The decision is a pure function
    /// of `(seed, site, occurrence-index)`; the occurrence counter is
    /// the only shared state.
    #[cfg(not(feature = "chaos-off"))]
    pub fn check(&self, site: &str) -> Option<Fault> {
        let state = self.inner.as_ref()?;
        let s = state.sites.get(site)?;
        let occ = s.occurrence.fetch_add(1, Ordering::Relaxed);
        let hit = match &s.trigger {
            Trigger::Always => true,
            Trigger::First(n) => occ < *n,
            Trigger::From(n) => occ >= *n,
            Trigger::At(list) => list.contains(&occ),
            Trigger::Random(p) => {
                let word = chacha::block(&state.key, occ, chacha::site_nonce(site))[0];
                // Threshold compare in the u32 domain: p of the lattice.
                (f64::from(word)) < p * 4_294_967_296.0
            }
        };
        if hit {
            s.injected.fetch_add(1, Ordering::Relaxed);
            state.injected_total.fetch_add(1, Ordering::Relaxed);
            Some(s.fault)
        } else {
            None
        }
    }

    /// Checks `site` and acts out what fires: a stall sleeps in place, a
    /// panic unwinds, and an I/O fault returns [`Fault::io_error`] for
    /// the caller's retry policy. `injected` runs once per fault, before
    /// it is acted out, so the caller counts every injection. A disarmed
    /// handle makes this a single branch.
    pub fn gate(&self, site: &str, injected: impl FnOnce()) -> std::io::Result<()> {
        let Some(fault) = self.check(site) else {
            return Ok(());
        };
        injected();
        match fault {
            Fault::Stall(d) => {
                std::thread::sleep(d);
                Ok(())
            }
            Fault::Panic => panic!("chaos: injected panic at {site}"),
            Fault::Io => Err(Fault::io_error(site)),
        }
    }

    /// `chaos-off` build: the check is a constant `None` the optimizer
    /// erases along with the match on it.
    #[cfg(feature = "chaos-off")]
    pub fn check(&self, _site: &str) -> Option<Fault> {
        None
    }

    /// The tile count after which `rank` is planned to die, if any.
    /// Unlike [`Chaos::check`] this reads the plan without counting an
    /// occurrence — rank death is a property of the rank, not of a call
    /// site.
    #[cfg(not(feature = "chaos-off"))]
    pub fn rank_death(&self, rank: usize) -> Option<u64> {
        self.inner.as_ref()?.rank_deaths.get(&rank).copied()
    }

    /// `chaos-off` build: no rank ever dies.
    #[cfg(feature = "chaos-off")]
    pub fn rank_death(&self, _rank: usize) -> Option<u64> {
        None
    }

    /// Total faults injected through this plan so far (all sites).
    pub fn injected(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|s| s.injected_total.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Faults injected at one site so far.
    pub fn injected_at(&self, site: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|s| s.sites.get(site))
            .map(|s| s.injected.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Occurrences counted at one site so far (hits and misses).
    pub fn occurrences_at(&self, site: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|s| s.sites.get(site))
            .map(|s| s.occurrence.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_checks_are_free_nones() {
        let c = Chaos::disarmed();
        assert!(!c.is_armed());
        assert_eq!(c.check("anything"), None);
        assert_eq!(c.rank_death(1), None);
        assert_eq!(c.injected(), 0);
    }

    #[cfg_attr(feature = "chaos-off", ignore = "chaos-off compiles checks out")]
    #[test]
    fn counted_triggers_fire_at_their_occurrences() {
        let c = FaultPlan::new(1)
            .inject("a", Fault::Io, Trigger::First(2))
            .inject("b", Fault::Panic, Trigger::From(3))
            .inject("c", Fault::Io, Trigger::At(vec![1, 4]))
            .arm();
        let hits: Vec<bool> = (0..5).map(|_| c.check("a").is_some()).collect();
        assert_eq!(hits, [true, true, false, false, false]);
        let hits: Vec<bool> = (0..5).map(|_| c.check("b").is_some()).collect();
        assert_eq!(hits, [false, false, false, true, true]);
        let hits: Vec<bool> = (0..5).map(|_| c.check("c").is_some()).collect();
        assert_eq!(hits, [false, true, false, false, true]);
        assert_eq!(c.injected_at("a"), 2);
        assert_eq!(c.injected(), 2 + 2 + 2);
        // Unarmed sites never fire and count nothing.
        assert_eq!(c.check("unknown"), None);
        assert_eq!(c.occurrences_at("unknown"), 0);
    }

    #[cfg_attr(feature = "chaos-off", ignore = "chaos-off compiles checks out")]
    #[test]
    fn random_schedules_replay_bitwise_per_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let c = FaultPlan::new(seed)
                .inject("s", Fault::Io, Trigger::Random(0.3))
                .arm();
            (0..256).map(|_| c.check("s").is_some()).collect()
        };
        let a = draw(99);
        assert_eq!(a, draw(99), "same seed must replay the same schedule");
        assert_ne!(a, draw(100), "a different seed must diverge");
        let fired = a.iter().filter(|&&h| h).count();
        assert!((30..=130).contains(&fired), "p=0.3 of 256 fired {fired}");
        // The probability extremes are exact, not approximate.
        let c = FaultPlan::new(5)
            .inject("never", Fault::Io, Trigger::Random(0.0))
            .inject("ever", Fault::Io, Trigger::Random(1.0))
            .arm();
        assert!((0..64).all(|_| c.check("never").is_none()));
        assert!((0..64).all(|_| c.check("ever").is_some()));
    }

    #[cfg_attr(feature = "chaos-off", ignore = "chaos-off compiles checks out")]
    #[test]
    fn clones_share_one_occurrence_stream() {
        let c = FaultPlan::new(0)
            .inject("s", Fault::Io, Trigger::First(1))
            .arm();
        let d = c.clone();
        assert!(d.check("s").is_some());
        assert!(c.check("s").is_none(), "occurrence 0 was already consumed");
        assert_eq!(c, d);
        assert_ne!(c, Chaos::disarmed());
    }

    #[test]
    fn spec_grammar_round_trips() {
        let plan = FaultPlan::parse(
            7,
            "gram.ckpt.store=io@first:2, gram.worker.tile=panic@at:3;5,\
             serve.queue.stall=stall:40@p:0.25,rank-death:2@1",
        )
        .unwrap();
        let expected = FaultPlan::new(7)
            .inject("gram.ckpt.store", Fault::Io, Trigger::First(2))
            .inject("gram.worker.tile", Fault::Panic, Trigger::At(vec![3, 5]))
            .inject(
                "serve.queue.stall",
                Fault::Stall(Duration::from_millis(40)),
                Trigger::Random(0.25),
            )
            .kill_rank(2, 1);
        assert_eq!(plan, expected);
        assert_eq!(FaultPlan::parse(0, "").unwrap(), FaultPlan::new(0));
        for bad in [
            "site-without-rule",
            "s=io",
            "s=wat@always",
            "s=io@p:1.5",
            "s=io@sometimes",
            "rank-death:x@1",
        ] {
            assert!(FaultPlan::parse(0, bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn killing_rank_zero_is_refused() {
        let plan = FaultPlan::new(0).kill_rank(0, 5).kill_rank(1, 2);
        let c = plan.arm();
        assert_eq!(c.rank_death(0), None);
        #[cfg(not(feature = "chaos-off"))]
        assert_eq!(c.rank_death(1), Some(2));
    }

    #[test]
    fn injected_io_error_names_its_site() {
        let e = Fault::io_error("gram.ckpt.store");
        assert!(e.to_string().contains("gram.ckpt.store"));
    }
}

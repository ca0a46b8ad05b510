//! Engine telemetry: tile/product counters and a progress snapshot with
//! throughput and ETA.
//!
//! The counters are [`qk_obs`] registry instruments (named `gram.*`),
//! so the same values that drive [`GramProgress`] also appear in the
//! unified `ObsReport` the engine exports. Snapshot conventions match
//! `qk-serve`'s metrics surface — a `Serialize + Display` snapshot
//! struct, `Duration`-typed times from monotonic instants — so a
//! serving or orchestration layer can stream both through one
//! reporting path.

use qk_obs::{Counter, Obs};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Shared mutable progress counters, updated by workers and the
/// assembler; cheap enough to poll from another thread mid-run.
#[derive(Debug)]
pub struct GramMetrics {
    started: Instant,
    tiles_total: Counter,
    tiles_computed: Counter,
    tiles_restored: Counter,
    tiles_stolen: Counter,
    bands_spilled: Counter,
    bands_reloaded: Counter,
    products_done: Counter,
    products_total: Counter,
    retries: Counter,
    tiles_quarantined: Counter,
    workers_restarted: Counter,
    faults_injected: Counter,
}

impl GramMetrics {
    pub(crate) fn with_obs(obs: &Obs) -> Self {
        GramMetrics {
            started: Instant::now(),
            tiles_total: obs.counter("gram.tiles_total"),
            tiles_computed: obs.counter("gram.tiles_computed"),
            tiles_restored: obs.counter("gram.tiles_restored"),
            tiles_stolen: obs.counter("gram.tiles_stolen"),
            bands_spilled: obs.counter("gram.bands_spilled"),
            bands_reloaded: obs.counter("gram.bands_reloaded"),
            products_done: obs.counter("gram.inner_products_done"),
            products_total: obs.counter("gram.inner_products_total"),
            retries: obs.counter("gram.retries"),
            tiles_quarantined: obs.counter("gram.tiles_quarantined"),
            workers_restarted: obs.counter("gram.workers_restarted"),
            faults_injected: obs.counter("gram.faults_injected"),
        }
    }

    pub(crate) fn start_job(&self, tiles_total: usize, products_total: usize) {
        self.tiles_total.set(tiles_total as u64);
        self.products_total.set(products_total as u64);
        self.tiles_computed.set(0);
        self.tiles_restored.set(0);
        self.tiles_stolen.set(0);
        self.bands_spilled.set(0);
        self.bands_reloaded.set(0);
        self.products_done.set(0);
        self.retries.set(0);
        self.tiles_quarantined.set(0);
        self.workers_restarted.set(0);
        self.faults_injected.set(0);
    }

    pub(crate) fn record_computed(&self, products: usize) {
        self.tiles_computed.inc();
        self.products_done.add(products as u64);
    }

    pub(crate) fn record_restored(&self, products: usize) {
        self.tiles_restored.inc();
        self.products_done.add(products as u64);
    }

    pub(crate) fn record_stolen(&self) {
        self.tiles_stolen.inc();
    }

    pub(crate) fn record_spilled(&self, bands: usize) {
        self.bands_spilled.add(bands as u64);
    }

    /// Handle workers use to count band reloads from the spill store.
    pub(crate) fn bands_reloaded_handle(&self) -> Counter {
        self.bands_reloaded.clone()
    }

    pub(crate) fn record_retries(&self, retries: u32) {
        self.retries.add(u64::from(retries));
    }

    pub(crate) fn record_quarantined(&self) {
        self.tiles_quarantined.inc();
    }

    pub(crate) fn record_worker_restarted(&self) {
        self.workers_restarted.inc();
    }

    pub(crate) fn record_fault_injected(&self) {
        self.faults_injected.inc();
    }

    /// Point-in-time progress view.
    pub fn snapshot(&self) -> GramProgress {
        let elapsed = self.started.elapsed();
        let tiles_total = self.tiles_total.get();
        let tiles_computed = self.tiles_computed.get();
        let tiles_restored = self.tiles_restored.get();
        let products_done = self.products_done.get();
        let products_total = self.products_total.get();
        let tiles_done = tiles_computed + tiles_restored;
        let throughput = products_done as f64 / elapsed.as_secs_f64().max(1e-9);
        let eta = if tiles_done == 0 || tiles_done >= tiles_total {
            Duration::ZERO
        } else {
            // Restored tiles are nearly free, so scale the remaining
            // time by outstanding *products*, not outstanding tiles.
            let remaining = products_total.saturating_sub(products_done) as f64;
            if throughput > 0.0 {
                Duration::from_secs_f64(remaining / throughput)
            } else {
                Duration::ZERO
            }
        };
        GramProgress {
            elapsed,
            tiles_total,
            tiles_computed,
            tiles_restored,
            tiles_stolen: self.tiles_stolen.get(),
            bands_spilled: self.bands_spilled.get(),
            bands_reloaded: self.bands_reloaded.get(),
            inner_products_done: products_done,
            inner_products_total: products_total,
            retries: self.retries.get(),
            tiles_quarantined: self.tiles_quarantined.get(),
            workers_restarted: self.workers_restarted.get(),
            faults_injected: self.faults_injected.get(),
            throughput_ips: throughput,
            eta,
        }
    }
}

/// One progress snapshot: completion, throughput and ETA.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct GramProgress {
    /// Time since the engine was created.
    pub elapsed: Duration,
    /// Tiles in the job.
    pub tiles_total: u64,
    /// Tiles computed fresh this run.
    pub tiles_computed: u64,
    /// Tiles restored from the checkpoint.
    pub tiles_restored: u64,
    /// Tiles a worker claimed from another worker's queue.
    pub tiles_stolen: u64,
    /// Row bands serialized to the spill store this run.
    pub bands_spilled: u64,
    /// Band loads workers paid against the spill store.
    pub bands_reloaded: u64,
    /// Inner products accounted for so far (computed + restored).
    pub inner_products_done: u64,
    /// Inner products in the whole job.
    pub inner_products_total: u64,
    /// Checkpoint store/load attempts retried under the backoff policy.
    pub retries: u64,
    /// Tiles whose persisted record was quarantined (dropped from the
    /// index) after persistently failing to load; each was recomputed.
    pub tiles_quarantined: u64,
    /// Worker restarts after a caught mid-tile panic.
    pub workers_restarted: u64,
    /// Faults the armed chaos plan injected into this engine.
    pub faults_injected: u64,
    /// Inner products per second since the engine started.
    pub throughput_ips: f64,
    /// Estimated time to completion at the current throughput.
    pub eta: Duration,
}

impl GramProgress {
    /// Completed fraction in `[0, 1]` (1 for empty jobs).
    pub fn fraction_done(&self) -> f64 {
        if self.tiles_total == 0 {
            1.0
        } else {
            (self.tiles_computed + self.tiles_restored) as f64 / self.tiles_total as f64
        }
    }
}

impl std::fmt::Display for GramProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tiles {}/{} ({} restored, {} stolen)  {:.1}% done  {:.0} ip/s  elapsed {:.2?}  eta {:.2?}",
            self.tiles_computed + self.tiles_restored,
            self.tiles_total,
            self.tiles_restored,
            self.tiles_stolen,
            100.0 * self.fraction_done(),
            self.throughput_ips,
            self.elapsed,
            self.eta,
        )?;
        let recovered =
            self.faults_injected + self.retries + self.tiles_quarantined + self.workers_restarted;
        if recovered > 0 {
            write!(
                f,
                "\nrobustness: {} faults injected, {} retries, {} tiles quarantined, {} workers restarted",
                self.faults_injected, self.retries, self.tiles_quarantined, self.workers_restarted,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> GramMetrics {
        GramMetrics::with_obs(&Obs::new())
    }

    #[test]
    fn counters_roll_up_into_snapshot() {
        let m = metrics();
        m.start_job(10, 100);
        m.record_computed(8);
        m.record_computed(8);
        m.record_restored(12);
        m.record_stolen();
        let s = m.snapshot();
        assert_eq!(s.tiles_total, 10);
        assert_eq!(s.tiles_computed, 2);
        assert_eq!(s.tiles_restored, 1);
        assert_eq!(s.tiles_stolen, 1);
        assert_eq!(s.inner_products_done, 28);
        assert_eq!(s.inner_products_total, 100);
        assert!((s.fraction_done() - 0.3).abs() < 1e-12);
        assert!(s.throughput_ips > 0.0);
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn empty_job_is_complete_with_zero_eta() {
        let m = metrics();
        m.start_job(0, 0);
        let s = m.snapshot();
        assert_eq!(s.fraction_done(), 1.0);
        assert_eq!(s.eta, Duration::ZERO);
    }

    #[test]
    fn finished_job_has_zero_eta() {
        let m = metrics();
        m.start_job(2, 20);
        m.record_computed(10);
        m.record_restored(10);
        assert_eq!(m.snapshot().eta, Duration::ZERO);
    }

    #[test]
    fn counters_surface_in_the_shared_registry() {
        let obs = Obs::new();
        let m = GramMetrics::with_obs(&obs);
        m.start_job(4, 12);
        m.record_computed(3);
        m.record_spilled(2);
        m.bands_reloaded_handle().inc();
        let snap = obs.registry_snapshot();
        assert_eq!(snap.counters["gram.tiles_computed"], 1);
        assert_eq!(snap.counters["gram.bands_spilled"], 2);
        assert_eq!(snap.counters["gram.bands_reloaded"], 1);
    }

    #[test]
    fn start_job_resets_prior_run_counters() {
        let m = metrics();
        m.start_job(4, 10);
        m.record_computed(5);
        m.record_stolen();
        m.record_spilled(3);
        m.start_job(2, 6);
        let s = m.snapshot();
        assert_eq!(s.tiles_computed, 0);
        assert_eq!(s.tiles_stolen, 0);
        assert_eq!(s.bands_spilled, 0);
        assert_eq!(s.tiles_total, 2);
    }
}

//! Ledger arithmetic: turns span rollups and trace events the crates
//! already record into the shares the per-layer metrics report.

use qk_obs::{SpanEntry, TraceEvent, TracePhase};

/// Share of the root span's time no layer span covers: the root's self
/// time over its total. `root` is the path of the benchmark-side span
/// that wraps one repetition; its direct children are the layer calls.
pub fn unattributed_share(spans: &[SpanEntry], root: &str) -> f64 {
    match spans.iter().find(|s| s.path == root) {
        Some(s) if s.total_us > 0 => s.self_us as f64 / s.total_us as f64,
        _ => 0.0,
    }
}

/// Share of the workers' time in a Gram call that is not the zipper
/// itself: `1 − ns_per_ip × inner_products / (wall × workers)`, with
/// `ns_per_ip` from the single-thread probe. Tile scheduling, state
/// access, checkpoint writes, assembly and idle workers all land here.
pub fn tile_overhead_share(
    ns_per_ip: f64,
    inner_products: u64,
    wall_s: f64,
    workers: usize,
) -> f64 {
    let available_ns = wall_s * 1e9 * workers as f64;
    if available_ns <= 0.0 {
        return 0.0;
    }
    1.0 - ns_per_ip * inner_products as f64 / available_ns
}

/// How the worker lanes spent one traced engine call.
#[derive(Debug, Default, PartialEq)]
pub struct LaneShares {
    /// `Compute` time over `wall × workers`.
    pub utilization: f64,
    /// `QueueWait` + `Steal` time over `wall × workers`.
    pub queue_wait: f64,
    /// `CheckpointWrite` time over `wall × workers`.
    pub ckpt_write: f64,
    /// Share of the call's wall outside the lanes' first-to-last event
    /// window: tile planning before the pool starts and the assembler
    /// draining, mirroring and returning after it stops.
    pub assemble: f64,
}

/// Sums the trace events that fall inside `[t0_us, t1_us]` (one engine
/// call, stamped with `Tracer::now_us` on either side).
pub fn lane_shares(events: &[TraceEvent], t0_us: u64, t1_us: u64, workers: usize) -> LaneShares {
    let wall = t1_us.saturating_sub(t0_us) as f64;
    if wall <= 0.0 || workers == 0 {
        return LaneShares::default();
    }
    let inside: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.t_us >= t0_us && e.end_us() <= t1_us)
        .collect();
    let total = |pick: fn(TracePhase) -> bool| -> f64 {
        inside
            .iter()
            .filter(|e| pick(e.phase))
            .fold(0.0, |sum, e| sum + e.dur_us as f64)
    };
    let lanes = wall * workers as f64;
    let first = inside.iter().map(|e| e.t_us).min();
    let last = inside.iter().map(|e| e.end_us()).max();
    let window = match (first, last) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64,
        _ => wall,
    };
    LaneShares {
        utilization: total(|p| p == TracePhase::Compute) / lanes,
        queue_wait: total(|p| matches!(p, TracePhase::QueueWait | TracePhase::Steal)) / lanes,
        ckpt_write: total(|p| p == TracePhase::CheckpointWrite) / lanes,
        assemble: (wall - window) / wall,
    }
}

/// Real floating-point operations of one zipper inner product under the
/// two-GEMMs-per-site model (8 flops per complex multiply-add): per site
/// `E[la,lb]·B[lb,2rb]` then `A^H[ra,2la]·T[2la,rb]`. `a` and `b` are the
/// interior bond dimensions of the two states.
pub fn zipper_flops(a: &[usize], b: &[usize]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let sites = a.len() + 1;
    let bond = |dims: &[usize], k: usize| if k == 0 || k == sites { 1 } else { dims[k - 1] };
    (0..sites)
        .map(|s| {
            let (la, ra) = (bond(a, s), bond(a, s + 1));
            let (lb, rb) = (bond(b, s), bond(b, s + 1));
            8.0 * (la * lb * 2 * rb + ra * 2 * la * rb) as f64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, total_us: u64, self_us: u64) -> SpanEntry {
        SpanEntry {
            path: path.to_string(),
            count: 1,
            total_us,
            self_us,
        }
    }

    #[test]
    fn unattributed_is_root_self_over_total() {
        let spans = [
            span("rep", 1_000, 40),
            span("rep/core.simulate_states", 600, 600),
            span("rep/gram.compute_gram", 360, 100),
            span("gram_worker", 700, 700),
        ];
        assert!((unattributed_share(&spans, "rep") - 0.04).abs() < 1e-12);
        assert_eq!(unattributed_share(&spans, "missing"), 0.0);
        assert_eq!(unattributed_share(&[span("rep", 0, 0)], "rep"), 0.0);
    }

    #[test]
    fn tile_overhead_is_one_minus_zipper_share() {
        // 1000 inner products of 1 µs on 2 workers over 1 ms wall: the
        // zipper fills half of the worker time.
        assert!((tile_overhead_share(1_000.0, 1_000, 1e-3, 2) - 0.5).abs() < 1e-12);
        // A pool kept perfectly busy has no overhead.
        assert!(tile_overhead_share(1_000.0, 2_000, 1e-3, 2).abs() < 1e-12);
        assert_eq!(tile_overhead_share(1_000.0, 10, 0.0, 2), 0.0);
    }

    fn event(lane: u32, phase: TracePhase, t_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            rank: 0,
            lane,
            seq: 0,
            phase,
            t_us,
            dur_us,
            arg0: 0,
            arg1: 0,
        }
    }

    #[test]
    fn lane_shares_split_a_window() {
        let events = [
            event(0, TracePhase::QueueWait, 100, 50),
            event(0, TracePhase::Compute, 150, 600),
            event(0, TracePhase::CheckpointWrite, 750, 100),
            event(1, TracePhase::Steal, 100, 100),
            event(1, TracePhase::Compute, 200, 700),
            // Outside the window: another engine call.
            event(0, TracePhase::Compute, 2_000, 500),
        ];
        let s = lane_shares(&events, 0, 1_000, 2);
        assert!((s.utilization - 1_300.0 / 2_000.0).abs() < 1e-12);
        assert!((s.queue_wait - 150.0 / 2_000.0).abs() < 1e-12);
        assert!((s.ckpt_write - 100.0 / 2_000.0).abs() < 1e-12);
        // Lanes were active 100..900 of a 1000 µs call.
        assert!((s.assemble - 0.2).abs() < 1e-12);
        assert_eq!(lane_shares(&events, 5, 5, 2), LaneShares::default());
    }

    #[test]
    fn zipper_flops_follow_the_two_gemm_model() {
        // Product states: every bond is 1, so each site costs
        // 8 * (1*1*2*1 + 1*2*1*1) = 32 flops.
        assert_eq!(zipper_flops(&[1, 1], &[1, 1]), 3.0 * 32.0);
        // Three sites with bonds (2, 2) on both sides.
        let per_site = |la: usize, ra: usize, lb: usize, rb: usize| {
            8.0 * (la * lb * 2 * rb + ra * 2 * la * rb) as f64
        };
        let want = per_site(1, 2, 1, 2) + per_site(2, 2, 2, 2) + per_site(2, 1, 2, 1);
        assert_eq!(zipper_flops(&[2, 2], &[2, 2]), want);
    }
}

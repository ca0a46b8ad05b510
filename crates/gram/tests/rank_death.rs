//! Rank-death drills: injected worker-rank deaths must be detected via
//! heartbeats, their tiles adopted by survivors through the dead rank's
//! checkpoint directory, and the assembled kernel must stay bitwise
//! identical to a single-process run.

use qk_chaos::FaultPlan;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_gram::{rank_distributed_gram, GramConfig, GramEngine, RankConfig};
use qk_mps::{Mps, MpsSimulator, TruncationConfig};
use qk_tensor::backend::CpuBackend;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qk-gram-rank-test-{}-{tag}-{id}",
        std::process::id()
    ))
}

fn states(n: usize, features: usize) -> Vec<Mps> {
    let be = CpuBackend::new();
    let ansatz = AnsatzConfig::new(2, 1, 0.7);
    let trunc = TruncationConfig::default();
    (0..n)
        .map(|i| {
            let row: Vec<f64> = (0..features)
                .map(|j| ((i * features + j) % 9) as f64 * 0.22)
                .collect();
            MpsSimulator::new(&be)
                .with_truncation(trunc)
                .simulate(&feature_map_circuit(&row, &ansatz))
                .0
        })
        .collect()
}

fn clean_kernel(st: &[Mps]) -> Vec<f64> {
    let engine = GramEngine::new(GramConfig::in_memory(3));
    let out = engine.compute_gram(st, &CpuBackend::new()).unwrap();
    out.kernel.data().to_vec()
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap()
}

/// Offset and `(bi, bj)` of every tile record in a checkpoint log: a
/// 49-byte manifest, then records of 48 header bytes, `rows x cols`
/// f64s and a checksum.
fn records(log: &[u8]) -> Vec<(usize, (u64, u64))> {
    let field = |at: usize| u64::from_le_bytes(log[at..at + 8].try_into().unwrap());
    let mut out = Vec::new();
    let mut at = 49;
    while at < log.len() {
        out.push((at, (field(at + 16), field(at + 24))));
        at += 56 + 8 * (field(at + 32) * field(at + 40)) as usize;
    }
    out
}

fn drill_config(ranks: usize, dir: &PathBuf) -> RankConfig {
    RankConfig {
        // The drill tiles are sub-millisecond; a short timeout keeps
        // the death-detection wait out of the test budget while still
        // being ~100x a tile.
        hb_timeout: Duration::from_millis(150),
        ..RankConfig::new(ranks, 3, dir)
    }
}

#[test]
fn clean_run_matches_single_process_bitwise() {
    let st = states(10, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("clean");
    let out = rank_distributed_gram(&st, &CpuBackend::new(), &drill_config(3, &dir));
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, Vec::<usize>::new());
    assert_eq!(out.report.tiles_adopted, 0);
    assert_eq!(out.report.tiles_recomputed, 0);
    assert!(out.report.per_rank.iter().all(|s| !s.died));
    let total: u64 = out.report.per_rank.iter().map(|s| s.tiles_completed).sum();
    assert_eq!(total, 10, "4 bands over 10 states -> 10 upper tiles");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_rank_tiles_are_adopted_bitwise() {
    let st = states(10, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("one-death");
    let cfg = RankConfig {
        chaos: FaultPlan::new(11).kill_rank(1, 1).arm(),
        ..drill_config(3, &dir)
    };
    let out = rank_distributed_gram(&st, &CpuBackend::new(), &cfg);
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, vec![1]);
    assert!(out.report.per_rank[1].died);
    assert_eq!(out.report.per_rank[1].tiles_completed, 1);
    // Rank 1 owned 3 of the 10 tiles; the one it persisted before dying
    // is adopted from its checkpoint directory, the rest recomputed.
    assert_eq!(out.report.tiles_adopted, 1);
    assert_eq!(out.report.tiles_recomputed, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn immediate_death_recomputes_everything_orphaned() {
    let st = states(10, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("early-death");
    let cfg = RankConfig {
        chaos: FaultPlan::new(12).kill_rank(2, 0).arm(),
        ..drill_config(3, &dir)
    };
    let out = rank_distributed_gram(&st, &CpuBackend::new(), &cfg);
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, vec![2]);
    assert_eq!(out.report.per_rank[2].tiles_completed, 0);
    // Nothing persisted before death: every orphan is recomputed.
    assert_eq!(out.report.tiles_adopted, 0);
    assert_eq!(out.report.tiles_recomputed, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multiple_deaths_still_complete() {
    let st = states(9, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("two-deaths");
    let cfg = RankConfig {
        chaos: FaultPlan::new(13).kill_rank(1, 1).kill_rank(3, 0).arm(),
        ..drill_config(4, &dir)
    };
    let out = rank_distributed_gram(&st, &CpuBackend::new(), &cfg);
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, vec![1, 3]);
    assert!(out.report.per_rank[1].died && out.report.per_rank[3].died);
    let orphaned = out.report.tiles_adopted + out.report.tiles_recomputed;
    // 3 bands over 9 states -> 6 tiles; ranks 1 and 3 owned 2 + 1.
    assert_eq!(orphaned, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killing_rank_zero_is_refused_by_the_plan() {
    let st = states(6, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("kill-zero");
    // kill_rank(0, _) is a refused no-op: the coordinator cannot be
    // chaos-killed, so the run completes with no deaths.
    let cfg = RankConfig {
        chaos: FaultPlan::new(14).kill_rank(0, 0).arm(),
        ..drill_config(2, &dir)
    };
    let out = rank_distributed_gram(&st, &CpuBackend::new(), &cfg);
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, Vec::<usize>::new());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_rank_world_needs_no_protocol() {
    let st = states(7, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("solo");
    let out = rank_distributed_gram(&st, &CpuBackend::new(), &drill_config(1, &dir));
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.per_rank.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_run_restores_from_rank_checkpoints() {
    let st = states(9, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("warm");
    let cfg = drill_config(3, &dir);
    rank_distributed_gram(&st, &CpuBackend::new(), &cfg);
    // Same root, same spec: every rank restores its tiles instead of
    // recomputing, and the kernel is unchanged.
    let again = rank_distributed_gram(&st, &CpuBackend::new(), &cfg);
    assert_eq!(again.kernel.data(), clean.as_slice());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_rank_checkpoints_recompute_only_their_tiles() {
    use qk_obs::{TracePhase, Tracer};
    let st = states(10, 3);
    let clean = clean_kernel(&st);
    let dir = scratch("damaged");
    rank_distributed_gram(&st, &CpuBackend::new(), &drill_config(3, &dir));
    // Flip one payload byte of rank 1's first tile record, truncate the
    // last record of rank 2's log.
    let log = |rank: usize| dir.join(format!("rank_{rank}/gram.qkg"));
    let (mut bytes1, bytes2) = (read(&log(1)), read(&log(2)));
    let (first, last) = (records(&bytes1)[0], *records(&bytes2).last().unwrap());
    bytes1[first.0 + 48 + 8] ^= 0xFF;
    std::fs::write(log(1), &bytes1).unwrap();
    std::fs::write(log(2), &bytes2[..bytes2.len() - 5]).unwrap();

    // The rerun drops the corrupt record on load and the torn one on
    // open, recomputes exactly those two tiles on their owners and
    // restores the other eight.
    let tracer = Tracer::new();
    let cfg = RankConfig {
        trace: Some(tracer.clone()),
        ..drill_config(3, &dir)
    };
    let out = rank_distributed_gram(&st, &CpuBackend::new(), &cfg);
    assert_eq!(out.kernel.data(), clean.as_slice());
    assert_eq!(out.report.dead_ranks, Vec::<usize>::new());
    let mut computed: Vec<(u32, (u64, u64))> = tracer
        .events()
        .iter()
        .filter(|e| e.phase == TracePhase::Compute)
        .map(|e| (e.rank, (e.arg0 as u64, e.arg1 as u64)))
        .collect();
    computed.sort();
    assert_eq!(
        computed,
        vec![(1, first.1), (2, last.1)],
        "only the damaged tiles recompute, each on its owner"
    );
    // Both replacements are valid again: a third run restores them all.
    let tracer = Tracer::new();
    let cfg = RankConfig {
        trace: Some(tracer.clone()),
        ..drill_config(3, &dir)
    };
    let again = rank_distributed_gram(&st, &CpuBackend::new(), &cfg);
    assert_eq!(again.kernel.data(), clean.as_slice());
    assert!(tracer
        .events()
        .iter()
        .all(|e| e.phase != TracePhase::Compute));
    let _ = std::fs::remove_dir_all(&dir);
}

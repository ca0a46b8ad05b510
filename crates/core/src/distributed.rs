//! Distributed Gram-matrix computation (Section II-D, Fig. 4).
//!
//! The paper distributes the kernel computation over MPI ranks on
//! Perlmutter. Here each "process" is an OS thread that owns its states;
//! inter-process traffic is an explicit serialized message over a
//! crossbeam channel, timed as communication (DESIGN.md, substitution 2).
//! Two strategies are implemented:
//!
//! * **No-messaging** (Fig. 4a): the kernel matrix is tiled; each process
//!   independently simulates every state its tiles touch. No communication,
//!   but each circuit is simulated on O(sqrt(k)) processes.
//! * **Round-robin** (Fig. 4b): states are partitioned between processes;
//!   each circuit is simulated exactly once, and blocks of states travel
//!   around a ring so every pair tile is computed on exactly one process.
//!
//! Per-process wall-clock is split into the three phases the paper's
//! Fig. 8 reports: MPS simulation, inner products, and communication.

use crate::states::simulate_states_serial;
use crate::timing::PhaseClock;
use qk_circuit::AnsatzConfig;
use qk_mps::{Mps, TruncationConfig};
use qk_svm::KernelMatrix;
use qk_tensor::backend::ExecutionBackend;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Distribution strategy for the Gram matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Independent tiles, redundant simulation, zero messages (Fig. 4a).
    NoMessaging,
    /// Partitioned states with ring message passing (Fig. 4b).
    RoundRobin,
}

/// Phase breakdown for one simulated process.
///
/// Compute phases (simulation, inner products) are measured on the
/// thread's CPU clock when the platform exposes one, so that the numbers
/// reflect per-process *work* even when the simulated processes share
/// fewer physical cores than the paper's MPI ranks had; communication is
/// wall-clock, since blocking time is the quantity of interest.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ProcessTimes {
    /// Time spent simulating MPS states.
    pub simulation: Duration,
    /// Time spent contracting inner products.
    pub inner_products: Duration,
    /// Time spent serializing, sending and receiving states.
    pub communication: Duration,
}

impl ProcessTimes {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.simulation + self.inner_products + self.communication
    }
}

/// Result of a distributed Gram computation.
#[derive(Debug, Clone)]
pub struct DistributedResult {
    /// The assembled symmetric kernel matrix.
    pub kernel: KernelMatrix,
    /// Phase breakdown per process.
    pub per_process: Vec<ProcessTimes>,
    /// End-to-end wall time.
    pub wall_time: Duration,
    /// Total bytes shipped between processes (0 for no-messaging).
    pub bytes_communicated: usize,
    /// Total circuit simulations executed (counts redundant ones).
    pub simulations_run: usize,
}

impl DistributedResult {
    /// Maximum per-phase times across processes (the critical path the
    /// paper's stacked bars show).
    pub fn max_phase_times(&self) -> ProcessTimes {
        let mut out = ProcessTimes::default();
        for p in &self.per_process {
            out.simulation = out.simulation.max(p.simulation);
            out.inner_products = out.inner_products.max(p.inner_products);
            out.communication = out.communication.max(p.communication);
        }
        out
    }
}

/// Computes the training Gram matrix with the chosen strategy and number
/// of simulated processes.
pub fn distributed_gram(
    rows: &[Vec<f64>],
    ansatz: &AnsatzConfig,
    backend: &dyn ExecutionBackend,
    truncation: &TruncationConfig,
    num_processes: usize,
    strategy: Strategy,
) -> DistributedResult {
    assert!(num_processes >= 1, "need at least one process");
    assert!(!rows.is_empty(), "need at least one data point");
    match strategy {
        Strategy::NoMessaging => no_messaging(rows, ansatz, backend, truncation, num_processes),
        Strategy::RoundRobin => round_robin(rows, ansatz, backend, truncation, num_processes),
    }
}

/// Contiguous block boundaries for partitioning `n` items over `k` owners.
fn block_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for p in 0..k {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// One kernel entry produced by a worker.
type Entry = (usize, usize, f64);

// ---------------------------------------------------------------------
// No-messaging strategy
// ---------------------------------------------------------------------

fn no_messaging(
    rows: &[Vec<f64>],
    ansatz: &AnsatzConfig,
    backend: &dyn ExecutionBackend,
    truncation: &TruncationConfig,
    k: usize,
) -> DistributedResult {
    let n = rows.len();
    let start = Instant::now();
    // Square tiling with at least k upper-triangle tiles (diagonal incl.).
    let g = tile_grid_order(k).min(n.max(1));
    let blocks = block_ranges(n, g);
    let tiles: Vec<(usize, usize)> = (0..g).flat_map(|a| (a..g).map(move |b| (a, b))).collect();
    // Tiles are dealt round-robin to processes.
    let assignments: Vec<Vec<(usize, usize)>> = (0..k)
        .map(|p| tiles.iter().copied().skip(p).step_by(k).collect())
        .collect();

    let (entry_tx, entry_rx) = crossbeam::channel::unbounded::<Vec<Entry>>();
    let mut per_process = vec![ProcessTimes::default(); k];
    let mut simulations_run = 0usize;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (p, my_tiles) in assignments.iter().enumerate() {
            let entry_tx = entry_tx.clone();
            let blocks = &blocks;
            handles.push((
                p,
                scope.spawn(move || {
                    let clock = PhaseClock::new();
                    let mut times = ProcessTimes::default();
                    let mut sims = 0usize;
                    let mut entries: Vec<Entry> = Vec::new();
                    // Simulate the union of blocks this process touches, once
                    // per process (still redundant across processes).
                    let mut needed: Vec<usize> =
                        my_tiles.iter().flat_map(|&(a, b)| [a, b]).collect();
                    needed.sort_unstable();
                    needed.dedup();
                    let mut states: Vec<Option<Vec<Mps>>> = vec![None; blocks.len()];
                    for &blk in &needed {
                        let slice = &rows[blocks[blk].clone()];
                        let t0 = clock.now();
                        let batch = simulate_states_serial(slice, ansatz, backend, truncation);
                        times.simulation += clock.since(t0);
                        sims += slice.len();
                        states[blk] = Some(batch.states);
                    }
                    for &(a, b) in my_tiles {
                        let sa = states[a].as_ref().unwrap();
                        let sb = states[b].as_ref().unwrap();
                        let t0 = clock.now();
                        for (ia, va) in sa.iter().enumerate() {
                            for (ib, vb) in sb.iter().enumerate() {
                                let gi = blocks[a].start + ia;
                                let gj = blocks[b].start + ib;
                                if a == b && gj <= gi {
                                    continue; // symmetric tile: upper half only
                                }
                                let v = va.inner_with(backend, vb).norm_sqr();
                                entries.push((gi, gj, v));
                            }
                        }
                        times.inner_products += clock.since(t0);
                    }
                    let t0 = Instant::now();
                    entry_tx.send(entries).expect("collector alive");
                    times.communication += t0.elapsed();
                    (times, sims)
                }),
            ));
        }
        drop(entry_tx);
        for (p, h) in handles {
            let (times, sims) = h.join().expect("worker panicked");
            per_process[p] = times;
            simulations_run += sims;
        }
    });

    let kernel = assemble(n, entry_rx.into_iter().flatten());
    DistributedResult {
        kernel,
        per_process,
        wall_time: start.elapsed(),
        bytes_communicated: 0,
        simulations_run,
    }
}

/// Smallest `g` with `g(g+1)/2 >= k` — the tile grid order giving every
/// process at least one tile.
fn tile_grid_order(k: usize) -> usize {
    let mut g = 1usize;
    while g * (g + 1) / 2 < k {
        g += 1;
    }
    g
}

// ---------------------------------------------------------------------
// Round-robin strategy
// ---------------------------------------------------------------------

/// Serializes a block of states with length framing.
fn pack_states(states: &[Mps]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(states.len() as u64).to_le_bytes());
    for s in states {
        let bytes = s.to_bytes();
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Inverse of [`pack_states`].
fn unpack_states(bytes: &[u8]) -> Vec<Mps> {
    let mut pos = 0usize;
    let count = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
    pos += 8;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
        pos += 8;
        out.push(Mps::from_bytes(&bytes[pos..pos + len]));
        pos += len;
    }
    out
}

/// A traveling message: the owner block index plus serialized states.
struct RingMessage {
    owner: usize,
    payload: Vec<u8>,
}

fn round_robin(
    rows: &[Vec<f64>],
    ansatz: &AnsatzConfig,
    backend: &dyn ExecutionBackend,
    truncation: &TruncationConfig,
    k: usize,
) -> DistributedResult {
    let n = rows.len();
    if k == 1 {
        // Degenerate ring: fall back to a single-process computation with
        // the same accounting.
        return no_messaging(rows, ansatz, backend, truncation, 1);
    }
    let start = Instant::now();
    let blocks = block_ranges(n, k);

    // Ring channels: process p sends to (p + k - 1) % k, receives on rx[p].
    let mut txs = Vec::with_capacity(k);
    let mut rxs = Vec::with_capacity(k);
    for _ in 0..k {
        let (tx, rx) = crossbeam::channel::bounded::<RingMessage>(1);
        txs.push(tx);
        rxs.push(Some(rx));
    }
    let (entry_tx, entry_rx) = crossbeam::channel::unbounded::<Vec<Entry>>();

    // Number of full ring steps; for even k the final half-step is done by
    // the lower half of the ring only.
    let full_steps = (k - 1) / 2;
    let half_step = k.is_multiple_of(2);

    let mut per_process = vec![ProcessTimes::default(); k];
    let mut bytes_communicated = 0usize;
    let mut simulations_run = 0usize;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..k {
            let entry_tx = entry_tx.clone();
            let tx_left = txs[(p + k - 1) % k].clone();
            let rx = rxs[p].take().expect("rx taken once");
            let blocks = &blocks;
            handles.push(scope.spawn(move || {
                let clock = PhaseClock::new();
                let mut times = ProcessTimes::default();
                let mut entries: Vec<Entry> = Vec::new();
                let my_range = blocks[p].clone();
                let slice = &rows[my_range.clone()];

                // Phase 1: simulate own block exactly once.
                let t0 = clock.now();
                let own = simulate_states_serial(slice, ansatz, backend, truncation).states;
                times.simulation += clock.since(t0);
                let sims = slice.len();

                // Phase 2: local tile (p, p), upper half.
                let t0 = clock.now();
                for i in 0..own.len() {
                    for j in (i + 1)..own.len() {
                        let v = own[i].inner_with(backend, &own[j]).norm_sqr();
                        entries.push((my_range.start + i, my_range.start + j, v));
                    }
                }
                times.inner_products += clock.since(t0);

                // Phase 3: ring steps. The traveling block starts as a
                // copy of the owned block.
                let mut traveling_owner = p;
                let mut traveling = own.clone();
                let mut comm_bytes = 0usize;
                let steps = full_steps + usize::from(half_step);
                for step in 1..=steps {
                    // Ship the traveling block to the left neighbour and
                    // receive the block arriving from the right.
                    let t0 = Instant::now();
                    let payload = pack_states(&traveling);
                    comm_bytes += payload.len();
                    tx_left
                        .send(RingMessage {
                            owner: traveling_owner,
                            payload,
                        })
                        .expect("ring neighbour alive");
                    let msg = rx.recv().expect("ring neighbour alive");
                    traveling_owner = msg.owner;
                    traveling = unpack_states(&msg.payload);
                    times.communication += t0.elapsed();
                    debug_assert_eq!(traveling_owner, (p + step) % k);

                    // On the optional half-step only the lower half of the
                    // ring computes, so each cross tile is done once.
                    let is_half = half_step && step == steps;
                    if is_half && p >= k / 2 {
                        continue;
                    }
                    let other_range = blocks[traveling_owner].clone();
                    // The lower global index is the bra, as in `gram_matrix`,
                    // so a wrapped ring step yields the same bits.
                    let wrapped = other_range.start < my_range.start;
                    let t0 = clock.now();
                    for (i, a) in own.iter().enumerate() {
                        for (j, b) in traveling.iter().enumerate() {
                            let ip = if wrapped {
                                b.inner_with(backend, a)
                            } else {
                                a.inner_with(backend, b)
                            };
                            entries.push((
                                my_range.start + i,
                                other_range.start + j,
                                ip.norm_sqr(),
                            ));
                        }
                    }
                    times.inner_products += clock.since(t0);
                }

                // Phase 4: send entries to the collector.
                let t0 = Instant::now();
                entry_tx.send(entries).expect("collector alive");
                times.communication += t0.elapsed();
                (times, comm_bytes, sims)
            }));
        }
        drop(entry_tx);
        drop(txs);
        for (p, h) in handles.into_iter().enumerate() {
            let (times, bytes, sims) = h.join().expect("worker panicked");
            per_process[p] = times;
            bytes_communicated += bytes;
            simulations_run += sims;
        }
    });

    let kernel = assemble(n, entry_rx.into_iter().flatten());
    DistributedResult {
        kernel,
        per_process,
        wall_time: start.elapsed(),
        bytes_communicated,
        simulations_run,
    }
}

/// Builds the symmetric kernel from a stream of upper-triangle entries.
fn assemble(n: usize, entries: impl Iterator<Item = Entry>) -> KernelMatrix {
    let mut data = vec![0.0f64; n * n];
    let mut seen = vec![false; n * n];
    for i in 0..n {
        data[i * n + i] = 1.0;
        seen[i * n + i] = true;
    }
    for (i, j, v) in entries {
        debug_assert!(!seen[i * n + j], "entry ({i},{j}) computed twice");
        data[i * n + j] = v;
        data[j * n + i] = v;
        seen[i * n + j] = true;
        seen[j * n + i] = true;
    }
    debug_assert!(seen.iter().all(|&s| s), "kernel has uncomputed entries");
    KernelMatrix::from_dense(n, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::gram_matrix;
    use crate::states::simulate_states;
    use qk_tensor::backend::CpuBackend;

    fn rows(n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..m).map(|j| ((i * m + j) % 11) as f64 * 0.18).collect())
            .collect()
    }

    fn reference_kernel(data: &[Vec<f64>]) -> KernelMatrix {
        let be = CpuBackend::new();
        let cfg = AnsatzConfig::new(2, 1, 0.6);
        let batch = simulate_states(data, &cfg, &be, &TruncationConfig::default());
        gram_matrix(&batch.states, &be).kernel
    }

    fn check_strategy(n: usize, k: usize, strategy: Strategy) {
        let data = rows(n, 4);
        let be = CpuBackend::new();
        let cfg = AnsatzConfig::new(2, 1, 0.6);
        let result = distributed_gram(&data, &cfg, &be, &TruncationConfig::default(), k, strategy);
        let reference = reference_kernel(&data);
        assert_eq!(result.kernel.len(), n);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    result.kernel.get(i, j).to_bits(),
                    reference.get(i, j).to_bits(),
                    "{strategy:?} k={k}: K[{i}][{j}] {} vs {}",
                    result.kernel.get(i, j),
                    reference.get(i, j)
                );
            }
        }
        assert_eq!(result.per_process.len(), k);
    }

    #[test]
    fn no_messaging_matches_reference() {
        for k in [1usize, 2, 3, 4, 7] {
            check_strategy(9, k, Strategy::NoMessaging);
        }
    }

    #[test]
    fn round_robin_matches_reference_odd_ring() {
        for k in [3usize, 5] {
            check_strategy(10, k, Strategy::RoundRobin);
        }
    }

    #[test]
    fn round_robin_matches_reference_even_ring() {
        for k in [2usize, 4, 6] {
            check_strategy(12, k, Strategy::RoundRobin);
        }
    }

    #[test]
    fn round_robin_with_ragged_blocks() {
        // n not divisible by k.
        check_strategy(11, 4, Strategy::RoundRobin);
        check_strategy(7, 3, Strategy::RoundRobin);
    }

    #[test]
    fn round_robin_simulates_each_circuit_once() {
        let data = rows(12, 4);
        let be = CpuBackend::new();
        let cfg = AnsatzConfig::new(2, 1, 0.6);
        let result = distributed_gram(
            &data,
            &cfg,
            &be,
            &TruncationConfig::default(),
            4,
            Strategy::RoundRobin,
        );
        assert_eq!(result.simulations_run, 12);
        assert!(result.bytes_communicated > 0);
    }

    #[test]
    fn no_messaging_duplicates_simulations() {
        let data = rows(12, 4);
        let be = CpuBackend::new();
        let cfg = AnsatzConfig::new(2, 1, 0.6);
        let result = distributed_gram(
            &data,
            &cfg,
            &be,
            &TruncationConfig::default(),
            6,
            Strategy::NoMessaging,
        );
        assert!(
            result.simulations_run > 12,
            "expected redundant simulations, got {}",
            result.simulations_run
        );
        assert_eq!(result.bytes_communicated, 0);
    }

    #[test]
    fn block_ranges_cover_everything() {
        for (n, k) in [(10usize, 3usize), (7, 7), (5, 2), (9, 4)] {
            let blocks = block_ranges(n, k);
            assert_eq!(blocks.len(), k);
            let total: usize = blocks.iter().map(|r| r.len()).sum();
            assert_eq!(total, n);
            for w in blocks.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn tile_grid_order_bounds() {
        assert_eq!(tile_grid_order(1), 1);
        assert_eq!(tile_grid_order(3), 2);
        assert_eq!(tile_grid_order(4), 3);
        assert_eq!(tile_grid_order(6), 3);
        assert_eq!(tile_grid_order(7), 4);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let data = rows(3, 4);
        let be = CpuBackend::new();
        let cfg = AnsatzConfig::new(2, 1, 0.6);
        let states = simulate_states(&data, &cfg, &be, &TruncationConfig::default()).states;
        let packed = pack_states(&states);
        let back = unpack_states(&packed);
        assert_eq!(back.len(), 3);
        for (a, b) in states.iter().zip(&back) {
            assert!((a.overlap_sqr(b) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phase_times_populated() {
        // Use enough work per process that even a tick-granular thread
        // CPU clock registers the compute phases.
        let data = rows(24, 8);
        let be = CpuBackend::new();
        let cfg = AnsatzConfig::new(2, 2, 1.0);
        let result = distributed_gram(
            &data,
            &cfg,
            &be,
            &TruncationConfig::default(),
            4,
            Strategy::RoundRobin,
        );
        let max = result.max_phase_times();
        assert!(max.simulation > Duration::ZERO);
        assert!(max.inner_products + max.simulation > Duration::ZERO);
        // CPU-time phases cannot exceed the work actually done; sanity
        // bound: no phase total wildly exceeds the whole run's wall time
        // times the process count.
        let bound =
            result.wall_time * (result.per_process.len() as u32 + 1) + Duration::from_millis(50);
        for p in &result.per_process {
            assert!(p.total() <= bound);
        }
    }
}

//! Distributed Gram-matrix computation (Section II-D, Fig. 4).
//!
//! The paper distributes the kernel computation over MPI ranks on
//! Perlmutter. Here each process is a `qk-mpi` rank (an OS thread under
//! [`qk_mpi::run_world`]) that owns its states: a state crosses a rank
//! boundary only as one point-to-point message of its serialized bytes,
//! timed as communication (DESIGN.md, substitution 2). Every kernel entry
//! comes from `qk_gram`'s tile kernel: each rank contracts its [`Tile`]s
//! with [`qk_gram::compute_tile`] and [`distributed_gram`] places them
//! with [`qk_gram::write_tile`], so both strategies are bitwise equal to
//! `gram_matrix`. Two strategies are implemented:
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
use qk_gram::{compute_tile, write_tile, JobKind, Tile};
use qk_mpi::{run_world, Process, Source};
use qk_mps::{Mps, TruncationConfig, ZipperWorkspace};
use qk_svm::KernelMatrix;
use qk_tensor::backend::ExecutionBackend;
use serde::{Deserialize, Serialize};
use std::ops::Range;
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
    let n = rows.len();
    let start = Instant::now();
    let job = Job {
        rows,
        ansatz,
        backend,
        truncation,
    };
    let ranks = run_world(num_processes, |p| {
        let mut work = RankWork::new();
        match strategy {
            Strategy::NoMessaging => no_messaging(p, &job, &mut work),
            Strategy::RoundRobin => round_robin(p, &job, &mut work),
        }
        (
            work.tiles,
            work.times,
            work.simulations,
            p.stats().bytes_sent,
        )
    });

    let mut data = vec![0.0f64; n * n];
    let mut per_process = Vec::with_capacity(num_processes);
    let (mut simulations_run, mut bytes_communicated) = (0, 0);
    for (tiles, times, simulations, bytes_sent) in ranks {
        for (tile, payload) in &tiles {
            write_tile(&mut data, n, JobKind::Train, tile, payload);
        }
        per_process.push(times);
        simulations_run += simulations;
        bytes_communicated += bytes_sent;
    }
    DistributedResult {
        kernel: KernelMatrix::from_dense(n, data),
        per_process,
        wall_time: start.elapsed(),
        bytes_communicated,
        simulations_run,
    }
}

/// The inputs every rank reads.
struct Job<'a> {
    rows: &'a [Vec<f64>],
    ansatz: &'a AnsatzConfig,
    backend: &'a dyn ExecutionBackend,
    truncation: &'a TruncationConfig,
}

/// One rank's phase clock, tile-kernel workspace and contracted tiles.
struct RankWork {
    clock: PhaseClock,
    ws: ZipperWorkspace,
    tiles: Vec<(Tile, Vec<f64>)>,
    times: ProcessTimes,
    simulations: usize,
}

impl RankWork {
    fn new() -> Self {
        RankWork {
            clock: PhaseClock::new(),
            ws: ZipperWorkspace::new(),
            tiles: Vec::new(),
            times: ProcessTimes::default(),
            simulations: 0,
        }
    }

    /// Simulates the states of `range`, timed as simulation.
    fn simulate(&mut self, job: &Job, range: Range<usize>) -> Vec<Mps> {
        let slice = &job.rows[range];
        let t0 = self.clock.now();
        let states = simulate_states_serial(slice, job.ansatz, job.backend, job.truncation).states;
        self.times.simulation += self.clock.since(t0);
        self.simulations += slice.len();
        states
    }

    /// Contracts one tile with the Gram engine's kernel, timed as inner
    /// products.
    fn contract(&mut self, job: &Job, tile: Tile, row_states: &[Mps], col_states: &[Mps]) {
        let t0 = self.clock.now();
        let mut payload = vec![0.0; tile.len()];
        compute_tile(
            &tile,
            JobKind::Train,
            row_states,
            col_states,
            job.backend,
            &mut self.ws,
            &mut payload,
        );
        self.times.inner_products += self.clock.since(t0);
        self.tiles.push((tile, payload));
    }
}

/// Contiguous block boundaries for partitioning `n` items over `k` owners.
fn block_ranges(n: usize, k: usize) -> Vec<Range<usize>> {
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

/// The tile with block `a` as its row band and block `b` as its column
/// band (`a <= b`; `a == b` is a diagonal tile).
fn block_tile(blocks: &[Range<usize>], a: usize, b: usize) -> Tile {
    Tile {
        bi: a,
        bj: b,
        row0: blocks[a].start,
        rows: blocks[a].len(),
        col0: blocks[b].start,
        cols: blocks[b].len(),
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

/// No-messaging rank: deals the g×g upper block triangle round-robin and
/// simulates every block its tiles touch.
fn no_messaging(p: &Process, job: &Job, work: &mut RankWork) {
    let (rank, k) = (p.rank(), p.world_size());
    let g = tile_grid_order(k).min(job.rows.len());
    let blocks = block_ranges(job.rows.len(), g);
    let mine: Vec<Tile> = (0..g)
        .flat_map(|a| (a..g).map(move |b| (a, b)))
        .skip(rank)
        .step_by(k)
        .map(|(a, b)| block_tile(&blocks, a, b))
        .collect();
    // Each touched block is simulated once per rank (still redundant
    // across ranks).
    let mut needed: Vec<usize> = mine.iter().flat_map(|t| [t.bi, t.bj]).collect();
    needed.sort_unstable();
    needed.dedup();
    let mut states = vec![Vec::new(); g];
    for b in needed {
        states[b] = work.simulate(job, blocks[b].clone());
    }
    for tile in mine {
        work.contract(job, tile, &states[tile.bi], &states[tile.bj]);
    }
}

/// Round-robin rank: simulates its own block once, contracts its
/// diagonal tile, then passes blocks to the left for `k / 2` steps,
/// contracting one cross tile per step. For even `k` the last step is a
/// half-step: only ranks below `k / 2` compute, so only their right
/// neighbours send.
fn round_robin(p: &mut Process, job: &Job, work: &mut RankWork) {
    const STATE_TAG: u32 = 0;
    let (rank, k) = (p.rank(), p.world_size());
    let blocks = block_ranges(job.rows.len(), k);
    let own = work.simulate(job, blocks[rank].clone());
    work.contract(job, block_tile(&blocks, rank, rank), &own, &own);

    let steps = k / 2;
    let left = (rank + k - 1) % k;
    let right = (rank + 1) % k;
    let mut traveling = Vec::new();
    for step in 1..=steps {
        let half = k.is_multiple_of(2) && step == steps;
        let computes = |r: usize| !half || r < k / 2;
        // Owner of the block arriving from the right.
        let from = (rank + step) % k;
        let outgoing = if step == 1 { &own } else { &traveling };
        let t0 = Instant::now();
        if computes(left) {
            for state in outgoing {
                p.send(left, STATE_TAG, &state.to_bytes());
            }
        }
        let incoming: Vec<Mps> = if computes(rank) {
            (0..blocks[from].len())
                .map(|_| Mps::from_bytes(&p.recv(Source::Rank(right), STATE_TAG).payload))
                .collect()
        } else {
            Vec::new()
        };
        work.times.communication += t0.elapsed();
        traveling = incoming;
        if !computes(rank) {
            continue;
        }
        // The lower-indexed block is the row band, so every entry keeps
        // `gram_matrix`'s operand order.
        if rank < from {
            work.contract(job, block_tile(&blocks, rank, from), &own, &traveling);
        } else {
            work.contract(job, block_tile(&blocks, from, rank), &traveling, &own);
        }
    }
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
        // The last three shapes have fewer points than processes: ranks
        // without tiles.
        for (n, k) in [
            (9, 1),
            (9, 2),
            (9, 3),
            (9, 4),
            (9, 7),
            (3, 5),
            (2, 4),
            (1, 3),
        ] {
            check_strategy(n, k, Strategy::NoMessaging);
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
        // n not divisible by k; the last three shapes have fewer points
        // than processes: empty blocks and ring steps with no messages.
        for (n, k) in [(11, 4), (7, 3), (3, 5), (2, 4), (1, 3)] {
            check_strategy(n, k, Strategy::RoundRobin);
        }
    }

    #[test]
    fn even_ring_ships_only_the_states_the_schedule_needs() {
        // Every full step ships all n states; the half-step ships only
        // blocks k/2..k-1, the ones ranks below k/2 contract.
        let n = 13;
        let data = rows(n, 4);
        let be = CpuBackend::new();
        let cfg = AnsatzConfig::new(2, 1, 0.6);
        let trunc = TruncationConfig::default();
        let sizes: Vec<usize> = simulate_states(&data, &cfg, &be, &trunc)
            .states
            .iter()
            .map(|s| s.to_bytes().len())
            .collect();
        for k in [2usize, 4, 6] {
            let blocks = block_ranges(n, k);
            let half_step: usize = blocks[k / 2..].iter().flat_map(|b| &sizes[b.clone()]).sum();
            let expected = (k / 2 - 1) * sizes.iter().sum::<usize>() + half_step;
            let result = distributed_gram(&data, &cfg, &be, &trunc, k, Strategy::RoundRobin);
            assert_eq!(result.bytes_communicated, expected, "k={k}");
        }
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

//! Per-thread CPU-time measurement for the distribution strategies.
//!
//! The paper's Fig. 8 timings come from MPI ranks that each own physical
//! cores. Our simulated processes are threads that may share cores, so
//! phase times measured on the wall clock would conflate a process's own
//! work with time spent descheduled. [`PhaseClock`] therefore measures
//! the calling thread's *CPU time* where the platform exposes it (Linux
//! `/proc/thread-self/schedstat`, nanosecond resolution) and falls back
//! to wall-clock elsewhere. On a host with one core per process the two
//! coincide.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A per-thread phase clock: thread CPU time when available, wall time
/// otherwise. Construct one per thread; instants from different threads
/// must not be mixed.
pub struct PhaseClock {
    cpu_clock: bool,
    epoch: Instant,
}

/// An opaque instant from a [`PhaseClock`].
#[derive(Debug, Clone, Copy)]
pub struct PhaseInstant(Duration);

impl PhaseClock {
    /// Creates a clock for the calling thread.
    pub fn new() -> Self {
        PhaseClock {
            cpu_clock: schedstat_is_healthy(),
            epoch: Instant::now(),
        }
    }

    /// `true` when measuring thread CPU time rather than wall time.
    pub fn is_cpu_clock(&self) -> bool {
        self.cpu_clock
    }

    /// Current reading.
    pub fn now(&self) -> PhaseInstant {
        if self.cpu_clock {
            // The kernel credits a thread's run time at scheduler events
            // (ticks and switches), so a mid-slice read lags by up to a
            // full tick (~4 ms at HZ=250) and a sub-tick phase would
            // read as zero. A voluntary yield forces the credit, making
            // the counter exact at the cost of one reschedule (~µs).
            std::thread::yield_now();
            if let Some(t) = thread_cpu_time() {
                return PhaseInstant(t);
            }
        }
        PhaseInstant(self.epoch.elapsed())
    }

    /// Time elapsed since an earlier reading (saturating).
    pub fn since(&self, earlier: PhaseInstant) -> Duration {
        self.now().0.saturating_sub(earlier.0)
    }
}

impl Default for PhaseClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Reads the calling thread's on-CPU time from the Linux scheduler stats;
/// `None` on other platforms or locked-down kernels.
pub fn thread_cpu_time() -> Option<Duration> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(ns))
}

/// Whether the kernel's scheduler run-time accounting actually advances.
///
/// Some kernels expose `/proc/thread-self/schedstat` but with run-time
/// accounting compiled out or disabled, so the on-CPU field reads zero
/// forever; trusting it would silently measure every phase as zero. A
/// freshly spawned thread also legitimately reads zero until its first
/// scheduler tick, so the counter cannot be judged from a single
/// instantaneous read at construction time. Instead the first caller
/// burns CPU until the counter moves or a small wall budget (well past a
/// scheduler tick) expires, and the process-wide verdict is cached.
fn schedstat_is_healthy() -> bool {
    static HEALTHY: OnceLock<bool> = OnceLock::new();
    *HEALTHY.get_or_init(|| {
        if thread_cpu_time().is_none() {
            return false;
        }
        let deadline = Instant::now() + Duration::from_millis(20);
        let mut acc = 0u64;
        loop {
            // Spin-work so the probing thread keeps accumulating runtime.
            for i in 0..50_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
            match thread_cpu_time() {
                Some(t) if t > Duration::ZERO => return true,
                Some(_) if Instant::now() < deadline => continue,
                _ => return false,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let clock = PhaseClock::new();
        let a = clock.now();
        // Do a little work.
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        let elapsed = clock.since(a);
        let again = clock.since(a);
        assert!(again >= elapsed);
    }

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let clock = PhaseClock::new();
        if !clock.is_cpu_clock() {
            return; // platform without schedstat: nothing to verify
        }
        let start = clock.now();
        std::thread::sleep(Duration::from_millis(60));
        let busy = clock.since(start);
        // Sleeping must contribute (almost) nothing to CPU time.
        assert!(
            busy < Duration::from_millis(30),
            "sleep charged to CPU clock: {busy:?}"
        );
    }

    #[test]
    fn cpu_clock_advances_under_load() {
        let clock = PhaseClock::new();
        let start = clock.now();
        let mut acc = 1.0f64;
        for i in 1..4_000_000u64 {
            acc += 1.0 / i as f64;
        }
        std::hint::black_box(acc);
        assert!(clock.since(start) > Duration::ZERO);
    }

    #[test]
    fn sub_tick_phases_read_nonzero() {
        // Run time is credited only at scheduler events, so without the
        // yield in `now` a phase shorter than a tick usually reads zero.
        // Every one of several such phases must register.
        let clock = PhaseClock::new();
        if !clock.is_cpu_clock() {
            return;
        }
        for phase in 0..16 {
            let start = clock.now();
            let wall = Instant::now();
            let mut acc = 0u64;
            while wall.elapsed() < Duration::from_micros(300) {
                acc = std::hint::black_box(acc.wrapping_add(1));
            }
            let busy = clock.since(start);
            assert!(busy > Duration::ZERO, "phase {phase} read {busy:?}");
        }
    }

    #[test]
    fn per_thread_isolation() {
        // CPU burned on another thread must not appear on this clock.
        let clock = PhaseClock::new();
        if !clock.is_cpu_clock() {
            return;
        }
        let start = clock.now();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut acc = 0u64;
                for i in 0..3_000_000u64 {
                    acc = acc.wrapping_add(i);
                }
                std::hint::black_box(acc);
            });
        });
        let charged = clock.since(start);
        assert!(
            charged < Duration::from_millis(50),
            "other thread's work charged here: {charged:?}"
        );
    }
}

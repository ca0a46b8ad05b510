//! Liveness tracking for rank-death detection.
//!
//! MPI itself has no failure detector: a dead rank simply stops
//! answering and every receive waiting on it wedges. The standard
//! operational fix — and the one the distributed Gram drill uses — is
//! an application-level heartbeat: workers send periodic progress
//! beats to a coordinator, which declares a rank dead once it has been
//! silent past a timeout without having announced completion. The
//! monitor is deliberately a pure bookkeeping structure over
//! [`std::time::Instant`]s: the coordinator owns it, feeds it observed
//! beats, and asks it to sweep; all messaging stays in the caller's
//! hands so the detector composes with any protocol.

use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    /// Beating (or not yet overdue).
    Alive,
    /// Announced completion; exempt from timeouts forever after.
    Done,
    /// Swept after staying silent past the timeout. Sticky: a late
    /// beat from a declared-dead rank is ignored, because the
    /// coordinator has already re-planned around the death and a
    /// resurrection would fork the protocol.
    Dead,
}

/// A coordinator-side failure detector over per-rank heartbeats.
///
/// Every rank starts alive with its clock at the monitor's creation
/// time, so the timeout bounds *initial* silence too — a rank that
/// dies before its first beat is still detected.
#[derive(Debug)]
pub struct HeartbeatMonitor {
    timeout: Duration,
    last_beat: Vec<Instant>,
    health: Vec<Health>,
}

impl HeartbeatMonitor {
    /// A monitor for `world_size` ranks declaring a silent,
    /// not-yet-done rank dead after `timeout`.
    pub fn new(world_size: usize, timeout: Duration) -> Self {
        let now = Instant::now();
        HeartbeatMonitor {
            timeout,
            last_beat: vec![now; world_size],
            health: vec![Health::Alive; world_size],
        }
    }

    /// Records a heartbeat from `rank`. Beats from ranks already
    /// declared dead are ignored (death is sticky).
    pub fn beat(&mut self, rank: usize) {
        if self.health[rank] == Health::Alive {
            self.last_beat[rank] = Instant::now();
        }
    }

    /// Records that `rank` announced completion: it stops beating
    /// legitimately and is exempt from all future sweeps.
    pub fn mark_done(&mut self, rank: usize) {
        if self.health[rank] == Health::Alive {
            self.health[rank] = Health::Done;
        }
    }

    /// Declares every overdue alive rank dead and returns the ranks
    /// that died in *this* sweep (ascending; empty when nothing
    /// changed).
    pub fn sweep(&mut self) -> Vec<usize> {
        let now = Instant::now();
        let mut newly_dead = Vec::new();
        for rank in 0..self.health.len() {
            if self.health[rank] == Health::Alive
                && now.duration_since(self.last_beat[rank]) > self.timeout
            {
                self.health[rank] = Health::Dead;
                newly_dead.push(rank);
            }
        }
        newly_dead
    }

    /// `true` once every rank is either done or dead — the coordinator
    /// can stop polling and start re-planning.
    pub fn all_settled(&self) -> bool {
        self.health.iter().all(|&h| h != Health::Alive)
    }

    /// Whether `rank` has been declared dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.health[rank] == Health::Dead
    }

    /// Ranks declared dead so far, ascending.
    pub fn dead(&self) -> Vec<usize> {
        self.ranks_where(Health::Dead)
    }

    /// Ranks not declared dead (alive or done), ascending.
    pub fn live(&self) -> Vec<usize> {
        (0..self.health.len())
            .filter(|&r| self.health[r] != Health::Dead)
            .collect()
    }

    /// Ranks that announced completion, ascending.
    pub fn done(&self) -> Vec<usize> {
        self.ranks_where(Health::Done)
    }

    fn ranks_where(&self, want: Health) -> Vec<usize> {
        (0..self.health.len())
            .filter(|&r| self.health[r] == want)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: Duration = Duration::from_millis(20);

    #[test]
    fn silent_ranks_die_after_timeout() {
        let mut m = HeartbeatMonitor::new(3, SHORT);
        assert!(m.sweep().is_empty(), "nothing is overdue immediately");
        std::thread::sleep(SHORT * 2);
        assert_eq!(m.sweep(), vec![0, 1, 2]);
        assert!(m.all_settled());
        assert_eq!(m.live(), Vec::<usize>::new());
    }

    #[test]
    fn beats_postpone_death_and_done_exempts() {
        let mut m = HeartbeatMonitor::new(3, SHORT);
        m.mark_done(2);
        std::thread::sleep(SHORT / 2);
        m.beat(1);
        std::thread::sleep(SHORT.mul_f32(0.75));
        // Rank 0 is past the timeout; rank 1 beat recently; rank 2 is
        // done and exempt no matter how silent.
        assert_eq!(m.sweep(), vec![0]);
        assert!(!m.is_dead(1));
        assert!(!m.is_dead(2));
        assert_eq!(m.dead(), vec![0]);
        assert_eq!(m.live(), vec![1, 2]);
        assert_eq!(m.done(), vec![2]);
    }

    #[test]
    fn death_is_sticky_and_sweeps_are_idempotent() {
        let mut m = HeartbeatMonitor::new(2, SHORT);
        m.mark_done(1);
        std::thread::sleep(SHORT * 2);
        assert_eq!(m.sweep(), vec![0]);
        // A late beat or completion cannot resurrect a swept rank.
        m.beat(0);
        m.mark_done(0);
        assert!(m.sweep().is_empty());
        assert!(m.is_dead(0));
        assert!(m.all_settled());
    }

    #[test]
    fn everyone_done_settles_without_deaths() {
        let mut m = HeartbeatMonitor::new(4, SHORT);
        for r in 0..4 {
            assert!(!m.all_settled());
            m.mark_done(r);
        }
        assert!(m.all_settled());
        std::thread::sleep(SHORT * 2);
        assert!(m.sweep().is_empty());
        assert_eq!(m.dead(), Vec::<usize>::new());
    }
}

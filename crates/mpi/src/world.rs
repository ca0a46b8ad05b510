//! Rank spawning and the per-rank process handle.

use crate::p2p::{Envelope, Mailbox, Message, Source};
use crate::stats::CommStats;
use std::sync::Arc;
use std::time::Instant;

/// Runs `world_size` ranks, each executing `body` on its own thread with
/// a [`Process`] handle, and returns their results in rank order.
///
/// Mirrors `mpiexec -n <world_size>`: every rank runs the same program
/// and branches on its rank id. Panics in any rank propagate (the whole
/// "job" aborts, as an MPI fatal error would).
///
/// # Panics
/// Panics if `world_size == 0`, if any rank panics, or if any mailbox
/// still holds undelivered messages when all ranks have returned (a
/// protocol error that MPI would surface as unfreed requests).
pub fn run_world<T, F>(world_size: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Process) -> T + Sync,
{
    assert!(world_size >= 1, "world size must be at least 1");
    let mailboxes: Arc<Vec<Mailbox>> =
        Arc::new((0..world_size).map(|_| Mailbox::default()).collect());

    let results: Vec<T> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..world_size)
            .map(|rank| {
                let mailboxes = Arc::clone(&mailboxes);
                let body = &body;
                scope.spawn(move || {
                    let mut process = Process {
                        rank,
                        world_size,
                        mailboxes,
                        stats: CommStats::default(),
                    };
                    body(&mut process)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    });

    for (rank, mb) in mailboxes.iter().enumerate() {
        assert_eq!(
            mb.pending(),
            0,
            "rank {rank} finished with undelivered messages"
        );
    }
    results
}

/// A rank's handle to the communication world (one per thread; the
/// `&mut` methods make accidental sharing a compile error, as rank state
/// is inherently thread-local).
pub struct Process {
    pub(crate) rank: usize,
    pub(crate) world_size: usize,
    pub(crate) mailboxes: Arc<Vec<Mailbox>>,
    pub(crate) stats: CommStats,
}

impl Process {
    /// This rank's id in `0..world_size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// Communication record accumulated by this rank so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Sends `payload` to `dest` with `tag`. Buffered: returns
    /// immediately.
    ///
    /// # Panics
    /// Panics if `dest` is out of range or `tag` is the reserved
    /// [`crate::ANY_TAG`] value.
    pub fn send(&mut self, dest: usize, tag: u32, payload: &[u8]) {
        assert!(
            dest < self.world_size,
            "destination rank {dest} out of range"
        );
        assert_ne!(tag, crate::ANY_TAG, "ANY_TAG is receive-only");
        self.stats.bytes_sent += payload.len();
        self.stats.messages_sent += 1;
        self.mailboxes[dest].deposit(Envelope {
            src: self.rank,
            tag,
            payload: payload.to_vec(),
        });
    }

    /// Blocks until a message matching the filter arrives and returns it.
    pub fn recv(&mut self, source: Source, tag: u32) -> Message {
        let t0 = Instant::now();
        let e = self.mailboxes[self.rank].take(source, tag);
        self.stats.blocked += t0.elapsed();
        self.stats.bytes_received += e.payload.len();
        self.stats.messages_received += 1;
        Message {
            src: e.src,
            tag: e.tag,
            payload: e.payload,
        }
    }

    /// Non-blocking receive; `None` when no matching message is queued.
    pub fn try_recv(&mut self, source: Source, tag: u32) -> Option<Message> {
        let e = self.mailboxes[self.rank].try_take(source, tag)?;
        self.stats.bytes_received += e.payload.len();
        self.stats.messages_received += 1;
        Some(Message {
            src: e.src,
            tag: e.tag,
            payload: e.payload,
        })
    }

    /// Combined send + receive (like `MPI_Sendrecv`); safe in rings
    /// because the send is buffered.
    pub fn send_recv(
        &mut self,
        dest: usize,
        send_tag: u32,
        payload: &[u8],
        source: Source,
        recv_tag: u32,
    ) -> Message {
        self.send(dest, send_tag, payload);
        self.recv(source, recv_tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ANY_TAG;

    #[test]
    fn ranks_see_their_ids() {
        let ids = run_world(5, |p| (p.rank(), p.world_size()));
        assert_eq!(ids, (0..5).map(|r| (r, 5)).collect::<Vec<_>>());
    }

    #[test]
    fn single_rank_world_works() {
        let out = run_world(1, |p| p.rank());
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn ping_pong() {
        let out = run_world(2, |p| {
            if p.rank() == 0 {
                p.send(1, 1, b"ping");
                let m = p.recv(Source::Rank(1), 2);
                m.payload
            } else {
                let m = p.recv(Source::Rank(0), 1);
                assert_eq!(m.payload, b"ping");
                p.send(0, 2, b"pong");
                m.payload
            }
        });
        assert_eq!(out[0], b"pong");
        assert_eq!(out[1], b"ping");
    }

    #[test]
    fn ring_send_recv_does_not_deadlock() {
        let k = 6;
        let out = run_world(k, |p| {
            let right = (p.rank() + 1) % p.world_size();
            let left = (p.rank() + p.world_size() - 1) % p.world_size();
            let m = p.send_recv(right, 3, &[p.rank() as u8], Source::Rank(left), 3);
            m.payload[0] as usize
        });
        for (rank, &got) in out.iter().enumerate() {
            assert_eq!(got, (rank + k - 1) % k);
        }
    }

    #[test]
    fn any_source_receives_from_everyone() {
        let out = run_world(4, |p| {
            if p.rank() == 0 {
                let mut seen = [false; 4];
                for _ in 0..3 {
                    let m = p.recv(Source::Any, ANY_TAG);
                    seen[m.src] = true;
                }
                seen.iter().filter(|&&s| s).count()
            } else {
                p.send(0, p.rank() as u32, &[0]);
                0
            }
        });
        assert_eq!(out[0], 3);
    }

    #[test]
    fn stats_count_traffic() {
        let out = run_world(2, |p| {
            if p.rank() == 0 {
                p.send(1, 1, &[0u8; 100]);
                p.send(1, 1, &[0u8; 50]);
            } else {
                p.recv(Source::Rank(0), 1);
                p.recv(Source::Rank(0), 1);
            }
            p.stats()
        });
        assert_eq!(out[0].bytes_sent, 150);
        assert_eq!(out[0].messages_sent, 2);
        assert_eq!(out[1].bytes_received, 150);
        assert_eq!(out[1].messages_received, 2);
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let out = run_world(2, |p| {
            if p.rank() == 0 {
                // Nothing has been sent to rank 0 with tag 9.
                let miss = p.try_recv(Source::Any, 9).is_none();
                p.send(1, 1, b"x");
                miss
            } else {
                p.recv(Source::Rank(0), 1);
                true
            }
        });
        assert!(out[0] && out[1]);
    }

    #[test]
    #[should_panic(expected = "undelivered")]
    fn leftover_messages_are_a_protocol_error() {
        run_world(2, |p| {
            if p.rank() == 0 {
                p.send(1, 1, b"orphan");
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn send_to_invalid_rank_aborts_world() {
        run_world(1, |p| p.send(7, 0, b"x"));
    }
}

//! Point-to-point messaging: per-rank mailboxes with tag matching.
//!
//! Each rank owns a mailbox — a condvar-guarded queue of envelopes.
//! `send` deposits into the destination's mailbox and returns immediately
//! (buffered semantics, like `MPI_Bsend`); `recv` scans the local mailbox
//! for the first envelope matching a `(source, tag)` filter and blocks
//! until one arrives. Out-of-order arrivals with non-matching tags stay
//! queued, so independent protocols can share the wire, and matching
//! envelopes from one sender are delivered in send order (MPI's
//! non-overtaking guarantee).

use parking_lot::{Condvar, Mutex};

/// Wildcard tag: matches any message tag (like `MPI_ANY_TAG`).
pub const ANY_TAG: u32 = u32::MAX;

/// Source filter for [`crate::Process::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Receive only from the given rank.
    Rank(usize),
    /// Receive from whichever rank's message matches first
    /// (like `MPI_ANY_SOURCE`).
    Any,
}

impl Source {
    fn matches(&self, src: usize) -> bool {
        match self {
            Source::Rank(r) => *r == src,
            Source::Any => true,
        }
    }
}

/// A received message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

#[derive(Debug)]
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: u32,
    pub payload: Vec<u8>,
}

impl Envelope {
    fn matches(&self, source: Source, tag: u32) -> bool {
        source.matches(self.src) && (tag == ANY_TAG || self.tag == tag)
    }
}

/// One rank's mailbox.
#[derive(Default)]
pub(crate) struct Mailbox {
    queue: Mutex<Vec<Envelope>>,
    arrived: Condvar,
}

impl Mailbox {
    pub(crate) fn deposit(&self, envelope: Envelope) {
        let mut q = self.queue.lock();
        q.push(envelope);
        self.arrived.notify_all();
    }

    /// Blocks until an envelope matching the filter is queued, removes and
    /// returns it. The earliest matching envelope wins, preserving
    /// per-sender ordering.
    pub(crate) fn take(&self, source: Source, tag: u32) -> Envelope {
        let mut q = self.queue.lock();
        loop {
            if let Some(pos) = q.iter().position(|e| e.matches(source, tag)) {
                return q.remove(pos);
            }
            self.arrived.wait(&mut q);
        }
    }

    /// Non-blocking variant of [`Mailbox::take`].
    pub(crate) fn try_take(&self, source: Source, tag: u32) -> Option<Envelope> {
        let mut q = self.queue.lock();
        q.iter()
            .position(|e| e.matches(source, tag))
            .map(|pos| q.remove(pos))
    }

    /// Number of queued envelopes; used to assert clean shutdown.
    pub(crate) fn pending(&self) -> usize {
        self.queue.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(src: usize, tag: u32, byte: u8) -> Envelope {
        Envelope {
            src,
            tag,
            payload: vec![byte],
        }
    }

    #[test]
    fn take_matches_source_and_tag() {
        let mb = Mailbox::default();
        mb.deposit(user(0, 7, 1));
        mb.deposit(user(1, 7, 2));
        mb.deposit(user(0, 9, 3));
        let e = mb.take(Source::Rank(1), 7);
        assert_eq!(e.payload, vec![2]);
        let e = mb.take(Source::Rank(0), 9);
        assert_eq!(e.payload, vec![3]);
        let e = mb.take(Source::Any, ANY_TAG);
        assert_eq!(e.payload, vec![1]);
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn per_sender_order_is_preserved() {
        let mb = Mailbox::default();
        mb.deposit(user(0, 5, 10));
        mb.deposit(user(0, 5, 11));
        mb.deposit(user(0, 5, 12));
        for expect in [10u8, 11, 12] {
            let e = mb.take(Source::Rank(0), 5);
            assert_eq!(e.payload, vec![expect]);
        }
    }

    #[test]
    fn try_take_returns_none_on_no_match() {
        let mb = Mailbox::default();
        mb.deposit(user(2, 4, 7));
        assert!(mb.try_take(Source::Rank(0), 4).is_none());
        assert!(mb.try_take(Source::Rank(2), 5).is_none());
        assert!(mb.try_take(Source::Rank(2), 4).is_some());
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn take_blocks_until_deposit() {
        use std::sync::Arc;
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || {
            let e = mb2.take(Source::Rank(3), 1);
            e.payload[0]
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.deposit(user(3, 1, 42));
        assert_eq!(handle.join().unwrap(), 42);
    }
}

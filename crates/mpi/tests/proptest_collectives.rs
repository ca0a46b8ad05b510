//! Property-based check of point-to-point delivery under random world
//! sizes and destinations.

use proptest::prelude::*;
use qk_mpi::{run_world, Source};

const DATA: u32 = 5;
const DONE: u32 = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random point-to-point exchanges all arrive: every rank sends one
    /// message to a random peer; total received equals total sent.
    #[test]
    fn random_exchanges_conserve_messages(
        k in 2usize..8,
        targets in prop::collection::vec(0usize..64, 8),
    ) {
        let out = run_world(k, |p| {
            let dest = targets[p.rank() % targets.len()] % p.world_size();
            // Self-sends are legal (MPI allows them); deliver to own queue.
            p.send(dest, DATA, &[p.rank() as u8]);
            // A send has deposited before it returns, so once every
            // rank's done marker is here, every data message bound here
            // is queued too.
            for r in 0..p.world_size() {
                p.send(r, DONE, &[]);
            }
            for r in 0..p.world_size() {
                p.recv(Source::Rank(r), DONE);
            }
            let mut got = 0usize;
            while p.try_recv(Source::Any, DATA).is_some() {
                got += 1;
            }
            got
        });
        let total: usize = out.iter().sum();
        prop_assert_eq!(total, k);
    }
}

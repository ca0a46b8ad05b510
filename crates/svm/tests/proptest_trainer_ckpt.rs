//! Property tests for the trainer-checkpoint decoder: arbitrary,
//! truncated or bit-flipped snapshot bytes must be quarantined and
//! cold-started — never panic the trainer, never steer the model — and
//! the pristine snapshot must still resume. Mirrors the gram
//! checkpoint-decoder corpus.

use proptest::prelude::*;
use qk_svm::{
    checkpoint_path, train_svc, KernelMatrix, SmoParams, TrainedSvm, Trainer, TrainerConfig,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const N: usize = 12;
/// Snapshot layout: 40-byte header+bias, 16 bytes per point, 8-byte
/// checksum — see `qk_svm::trainer`.
const SNAP_LEN: usize = 48 + 16 * N;

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qk-svm-ckpt-prop-{}-{tag}-{id}",
        std::process::id()
    ))
}

fn problem() -> (KernelMatrix, Vec<f64>) {
    let pts: Vec<Vec<f64>> = (0..N)
        .map(|i| {
            vec![
                ((i * 37) % 13) as f64 / 6.0 - 1.0,
                ((i * 11) % 7) as f64 / 3.5,
            ]
        })
        .collect();
    let labels: Vec<f64> = (0..N)
        .map(|i| if (i * 17) % 3 == 0 { 1.0 } else { -1.0 })
        .collect();
    let k = KernelMatrix::from_fn(N, |i, j| {
        let d2: f64 = pts[i]
            .iter()
            .zip(&pts[j])
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (-0.7 * d2).exp()
    });
    (k, labels)
}

fn params() -> SmoParams {
    SmoParams::with_c(1.5)
}

fn ckpt_trainer(dir: &Path) -> Trainer {
    Trainer::new(TrainerConfig {
        ckpt_dir: Some(dir.to_path_buf()),
        ..TrainerConfig::default()
    })
}

/// Writes a valid mid-run snapshot (2 passes in) into `dir` and returns
/// its bytes.
fn seed_midrun_snapshot(dir: &Path, k: &KernelMatrix, y: &[f64]) -> Vec<u8> {
    Trainer::new(TrainerConfig {
        ckpt_dir: Some(dir.to_path_buf()),
        pass_budget: Some(2),
        ..TrainerConfig::default()
    })
    .train(k, y, &params())
    .expect_err("pass budget must interrupt");
    std::fs::read(checkpoint_path(dir)).expect("interrupted run must leave a snapshot")
}

fn assert_bitwise_equal(a: &TrainedSvm, b: &TrainedSvm) {
    assert_eq!(a.passes, b.passes);
    assert_eq!(a.bias.to_bits(), b.bias.to_bits());
    for (x, y) in a.alphas.iter().zip(&b.alphas) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A snapshot file holding arbitrary garbage is quarantined and the
    /// trainer cold-starts to the reference model — no panic, no
    /// silently adopted state.
    #[test]
    fn arbitrary_snapshot_bytes_cold_start(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let (k, y) = problem();
        let reference = train_svc(&k, &y, &params());
        let dir = scratch("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(checkpoint_path(&dir), &bytes).unwrap();
        let outcome = ckpt_trainer(&dir).train(&k, &y, &params()).unwrap();
        prop_assert!(outcome.resumed_from_pass.is_none(), "garbage resumed");
        assert_bitwise_equal(&outcome.model, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating a valid snapshot at any offset forces a cold start to
    /// the reference model.
    #[test]
    fn truncated_snapshot_cold_starts(cut in 0usize..SNAP_LEN) {
        let (k, y) = problem();
        let reference = train_svc(&k, &y, &params());
        let dir = scratch("truncate");
        let valid = seed_midrun_snapshot(&dir, &k, &y);
        prop_assert_eq!(valid.len(), SNAP_LEN);
        std::fs::write(checkpoint_path(&dir), &valid[..cut]).unwrap();
        let outcome = ckpt_trainer(&dir).train(&k, &y, &params()).unwrap();
        prop_assert!(outcome.resumed_from_pass.is_none(), "truncation resumed");
        assert_bitwise_equal(&outcome.model, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit of a valid snapshot is caught (magic,
    /// fingerprint, length field, payload or checksum — all covered),
    /// while the pristine bytes still resume. So the rejection is the
    /// flip's doing, not a broken fixture — and either way the final
    /// model is the reference, bit for bit.
    #[test]
    fn bitflipped_snapshot_cold_starts(at in 0usize..SNAP_LEN, bit in 0u8..8) {
        let (k, y) = problem();
        let reference = train_svc(&k, &y, &params());
        let dir = scratch("flip");
        let valid = seed_midrun_snapshot(&dir, &k, &y);

        let mut flipped = valid.clone();
        flipped[at] ^= 1 << bit;
        std::fs::write(checkpoint_path(&dir), &flipped).unwrap();
        let outcome = ckpt_trainer(&dir).train(&k, &y, &params()).unwrap();
        prop_assert!(outcome.resumed_from_pass.is_none(), "bit flip resumed");
        assert_bitwise_equal(&outcome.model, &reference);

        std::fs::write(checkpoint_path(&dir), &valid).unwrap();
        let outcome = ckpt_trainer(&dir).train(&k, &y, &params()).unwrap();
        prop_assert_eq!(outcome.resumed_from_pass, Some(2), "pristine snapshot must resume");
        assert_bitwise_equal(&outcome.model, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot written by a different job — here, a different
    /// certificate tolerance — carries a different fingerprint and must
    /// cold-start.
    #[test]
    fn foreign_snapshot_cold_starts(other_tol in 1e-6f64..1e-1) {
        let (k, y) = problem();
        let mine = params();
        prop_assume!(other_tol != mine.tol);
        let reference = train_svc(&k, &y, &mine);
        let dir = scratch("foreign");
        let foreign = SmoParams { tol: other_tol, ..mine };
        ckpt_trainer(&dir).train(&k, &y, &foreign).unwrap();
        let outcome = ckpt_trainer(&dir).train(&k, &y, &mine).unwrap();
        prop_assert!(outcome.resumed_from_pass.is_none(), "foreign snapshot resumed");
        assert_bitwise_equal(&outcome.model, &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

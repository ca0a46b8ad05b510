//! Property tests for the checkpoint log: arbitrary, truncated or
//! bit-flipped bytes in its manifest and tile records must be classified
//! (rejected, cut off or recomputed), never panic the process.

use proptest::prelude::*;
use qk_gram::{CheckpointError, CheckpointStore, JobKind, JobSpec, Tile, TileLoad, TilePlan};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qk-gram-ckpt-prop-{}-{tag}-{id}",
        std::process::id()
    ))
}

/// The verified payload of `tile`, if `store` holds one.
fn loaded(store: &CheckpointStore, tile: &Tile) -> Option<Vec<f64>> {
    match store.load_classified(tile).unwrap() {
        TileLoad::Loaded(payload) => Some(payload),
        TileLoad::Missing | TileLoad::Corrupt => None,
    }
}

fn spec() -> JobSpec {
    JobSpec {
        encoding: 0xFACE,
        kind: JobKind::Train,
        rows: 10,
        cols: 10,
        tile: 4,
    }
}

/// The log's path in `dir`.
fn log(dir: &Path) -> PathBuf {
    dir.join("gram.qkg")
}

/// What a fresh open of `dir`, which must succeed, restores for `tile`.
fn reloaded(dir: &Path, tile: &Tile) -> Option<Vec<f64>> {
    loaded(&CheckpointStore::open(dir, &spec()).unwrap(), tile)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A log whose manifest is arbitrary garbage is rejected with a
    /// typed error — the open never panics and never silently succeeds
    /// on bytes that are not a valid manifest for this job.
    #[test]
    fn arbitrary_manifest_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let dir = scratch("manifest");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(log(&dir), &bytes).unwrap();
        match CheckpointStore::open(&dir, &spec()) {
            Err(CheckpointError::CorruptManifest { .. })
            | Err(CheckpointError::Mismatch { .. }) => {}
            Ok(_) => prop_assert!(
                false,
                "garbage manifest must not open ({} bytes)",
                bytes.len()
            ),
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating or bit-flipping a valid manifest is always caught.
    #[test]
    fn mangled_valid_manifest_is_rejected(cut in 0usize..49, flip in 0usize..49) {
        let dir = scratch("mangle");
        CheckpointStore::open(&dir, &spec()).unwrap();
        let path = log(&dir);
        let valid = std::fs::read(&path).unwrap();
        prop_assert_eq!(valid.len(), 49);

        std::fs::write(&path, &valid[..cut]).unwrap();
        prop_assert!(matches!(
            CheckpointStore::open(&dir, &spec()),
            Err(CheckpointError::CorruptManifest { .. })
        ));

        let mut flipped = valid.clone();
        flipped[flip] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        prop_assert!(matches!(
            CheckpointStore::open(&dir, &spec()),
            Err(CheckpointError::CorruptManifest { .. }) | Err(CheckpointError::Mismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A tile record holding arbitrary garbage, with or without a valid
    /// header for the tile in front, is cut off as a torn tail or
    /// classified corrupt: never panics, never loads.
    #[test]
    fn arbitrary_tile_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        with_header in any::<bool>(),
    ) {
        let dir = scratch("tile");
        let spec = spec();
        CheckpointStore::open(&dir, &spec).unwrap();
        let tile = TilePlan::symmetric(spec.rows, spec.tile).tiles[1];
        let mut record = Vec::new();
        if with_header {
            record.extend_from_slice(b"QKTILE1\0");
            for v in [spec.fingerprint(), 0, 1, tile.rows as u64, tile.cols as u64] {
                record.extend_from_slice(&v.to_le_bytes());
            }
        }
        record.extend_from_slice(&bytes);
        let mut all = std::fs::read(log(&dir)).unwrap();
        all.extend_from_slice(&record);
        std::fs::write(log(&dir), &all).unwrap();
        prop_assert_eq!(reloaded(&dir, &tile), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating or bit-flipping a valid tile record is always caught.
    #[test]
    fn mangled_valid_tile_is_rejected(frac in 0.0f64..1.0, flip_frac in 0.0f64..1.0) {
        let dir = scratch("tilemangle");
        let spec = spec();
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        let tile = TilePlan::symmetric(spec.rows, spec.tile).tiles[1];
        let payload: Vec<f64> = (0..tile.len()).map(|k| k as f64 * 0.5).collect();
        store.store(&tile, &payload).unwrap();
        drop(store);
        let path = log(&dir);
        let valid = std::fs::read(&path).unwrap();
        let record = valid.len() - 49;

        let cut = 49 + ((record - 1) as f64 * frac) as usize;
        std::fs::write(&path, &valid[..cut]).unwrap();
        prop_assert_eq!(reloaded(&dir, &tile), None);

        let mut flipped = valid.clone();
        let at = 49 + ((record - 1) as f64 * flip_frac) as usize;
        flipped[at] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        prop_assert_eq!(reloaded(&dir, &tile), None);

        // The pristine bytes still load, so the rejections above were
        // the mutations' doing, not a broken fixture.
        std::fs::write(&path, &valid).unwrap();
        prop_assert_eq!(reloaded(&dir, &tile), Some(payload));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

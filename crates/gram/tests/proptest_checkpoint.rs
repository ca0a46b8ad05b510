//! Property tests for the checkpoint decoders: arbitrary, truncated or
//! bit-flipped bytes fed through the manifest and tile paths must be
//! classified (rejected or quarantined), never panic the process.

use proptest::prelude::*;
use qk_gram::{CheckpointError, CheckpointStore, JobKind, JobSpec, Tile, TileLoad, TilePlan};
use std::path::PathBuf;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A manifest file holding arbitrary garbage is rejected with a
    /// typed error — the open never panics and never silently succeeds
    /// on bytes that are not a valid manifest for this job.
    #[test]
    fn arbitrary_manifest_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let dir = scratch("manifest");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.qkg"), &bytes).unwrap();
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
        let path = dir.join("manifest.qkg");
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

    /// A tile file holding arbitrary garbage classifies as corrupt (and
    /// is quarantined), never panics, never loads.
    #[test]
    fn arbitrary_tile_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let dir = scratch("tile");
        let spec = spec();
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        let tile = TilePlan::symmetric(spec.rows, spec.tile).tiles[1];
        std::fs::write(dir.join("tiles").join("t_0_1.qkt"), &bytes).unwrap();
        prop_assert_eq!(loaded(&store, &tile), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating or bit-flipping a valid tile file is always caught.
    #[test]
    fn mangled_valid_tile_is_rejected(frac in 0.0f64..1.0, flip_frac in 0.0f64..1.0) {
        let dir = scratch("tilemangle");
        let spec = spec();
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        let tile = TilePlan::symmetric(spec.rows, spec.tile).tiles[1];
        let payload: Vec<f64> = (0..tile.len()).map(|k| k as f64 * 0.5).collect();
        store.store(&tile, &payload).unwrap();
        let path = dir.join("tiles").join("t_0_1.qkt");
        let valid = std::fs::read(&path).unwrap();

        let cut = ((valid.len() - 1) as f64 * frac) as usize;
        std::fs::write(&path, &valid[..cut]).unwrap();
        prop_assert_eq!(loaded(&store, &tile), None);

        let mut flipped = valid.clone();
        let at = ((valid.len() - 1) as f64 * flip_frac) as usize;
        flipped[at] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        prop_assert_eq!(loaded(&store, &tile), None);

        // The pristine bytes still load, so the rejections above were
        // the mutations' doing, not a broken fixture.
        std::fs::write(&path, &valid).unwrap();
        prop_assert_eq!(loaded(&store, &tile), Some(payload));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

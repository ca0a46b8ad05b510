//! The checkpoint log's crash and layout contracts: a kill at any byte
//! of the last append loses that tile only, a kill while the log is
//! created leaves a temp the next open settles, and a directory in the
//! manifest-plus-tile-files layout of earlier builds is never read.

use qk_chaos::durable::seal;
use qk_circuit::ansatz::{feature_map_circuit, AnsatzConfig};
use qk_gram::{
    CheckpointStore, GramConfig, GramEngine, JobKind, JobSpec, Tile, TileLoad, TilePlan,
};
use qk_mps::{Mps, MpsSimulator, TruncationConfig};
use qk_tensor::backend::CpuBackend;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qk-gram-log-test-{}-{tag}-{id}",
        std::process::id()
    ))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn spec() -> JobSpec {
    JobSpec {
        encoding: 0xC07,
        kind: JobKind::Train,
        rows: 10,
        cols: 10,
        tile: 4,
    }
}

/// The verified payload of `tile`, if `dir`'s log holds one.
fn reloaded(dir: &Path, tile: &Tile) -> Option<Vec<f64>> {
    match CheckpointStore::open(dir, &spec())
        .unwrap()
        .load_classified(tile)
    {
        Ok(TileLoad::Loaded(payload)) => Some(payload),
        _ => None,
    }
}

#[test]
fn torn_tail_and_creation_temp_are_settled_on_open() {
    let dir = scratch("torn");
    let tiles = TilePlan::symmetric(10, 4).tiles;
    let store = CheckpointStore::open(&dir, &spec()).unwrap();
    store.store(&tiles[0], &[0.25; 16]).unwrap();
    drop(store);
    let path = dir.join("gram.qkg");
    let whole = std::fs::read(&path).unwrap();
    // A kill mid-append leaves a torn tail; one while an earlier log
    // was being created leaves a torn temp beside it.
    let torn = [&whole[..], b"QKTILE1\0half-written"].concat();
    std::fs::write(&path, torn).unwrap();
    let temp = dir.join(".gram.qkg.12345.tmp");
    std::fs::write(&temp, b"half-written").unwrap();
    let store = CheckpointStore::open(&dir, &spec()).unwrap();
    assert!(!temp.exists(), "torn temp must be swept");
    assert_eq!(std::fs::read(&path).unwrap(), whole);
    store.store(&tiles[1], &[1.5; 16]).unwrap();
    drop(store);
    assert_eq!(reloaded(&dir, &tiles[0]), Some(vec![0.25; 16]));
    assert_eq!(reloaded(&dir, &tiles[1]), Some(vec![1.5; 16]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cut_anywhere_in_the_last_record_loses_only_that_tile() {
    let dir = scratch("cut");
    let spec = spec();
    let tiles = TilePlan::symmetric(spec.rows, spec.tile).tiles;
    let payload = |k: usize| -> Vec<f64> {
        (0..tiles[k].len())
            .map(|i| (i as f64 + 0.5) / (k as f64 + 3.0))
            .collect()
    };
    let store = CheckpointStore::open(&dir, &spec).unwrap();
    for (k, tile) in tiles.iter().enumerate().take(3) {
        store.store(tile, &payload(k)).unwrap();
    }
    drop(store);
    let path = dir.join("gram.qkg");
    let whole = std::fs::read(&path).unwrap();
    let last = whole.len() - (56 + 8 * tiles[2].len());

    for cut in last..whole.len() {
        std::fs::write(&path, &whole[..cut]).unwrap();
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            last as u64,
            "cut {cut}"
        );
        for (k, tile) in tiles.iter().enumerate().take(2) {
            match store.load_classified(tile).unwrap() {
                TileLoad::Loaded(p) => assert_eq!(bits(&p), bits(&payload(k)), "cut {cut}"),
                other => panic!("cut {cut}: tile {k} read {other:?}"),
            }
        }
        let torn = store.load_classified(&tiles[2]).unwrap();
        assert!(matches!(torn, TileLoad::Missing), "cut {cut}: {torn:?}");
        // The rewrite lands after the cut and loads back bit for bit.
        store.store(&tiles[2], &payload(2)).unwrap();
        drop(store);
        assert_eq!(std::fs::read(&path).unwrap(), whole, "cut {cut}");
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        match store.load_classified(&tiles[2]).unwrap() {
            TileLoad::Loaded(p) => assert_eq!(bits(&p), bits(&payload(2)), "cut {cut}"),
            other => panic!("cut {cut}: rewritten tile read {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory holding a `manifest.qkg` and a valid `tiles/t_0_0.qkt`
/// but no log is fresh: the engine creates its log beside them,
/// recomputes every tile, and leaves the old files as they were.
#[test]
fn parent_format_directory_is_recomputed_not_read() {
    let be = CpuBackend::new();
    let ansatz = AnsatzConfig::new(2, 1, 0.7);
    let states: Vec<Mps> = (0..7)
        .map(|i| {
            let row = [i as f64 * 0.31, 0.4, 1.0 - i as f64 * 0.1];
            MpsSimulator::new(&be)
                .with_truncation(TruncationConfig::default())
                .simulate(&feature_map_circuit(&row, &ansatz))
                .0
        })
        .collect();
    let (tile, encoding) = (3, 0xA11);
    let clean = GramEngine::new(GramConfig::in_memory(tile))
        .compute_gram(&states, &be)
        .unwrap();

    let dir = scratch("parent");
    let spec = JobSpec {
        encoding,
        kind: JobKind::Train,
        rows: states.len(),
        cols: states.len(),
        tile,
    };
    let fp = spec.fingerprint();
    let mut manifest = fp.to_le_bytes().to_vec();
    manifest.push(0);
    for v in [spec.rows, spec.cols, tile] {
        manifest.extend_from_slice(&(v as u64).to_le_bytes());
    }
    let mut record = Vec::new();
    for v in [fp, 0, 0, tile as u64, tile as u64] {
        record.extend_from_slice(&v.to_le_bytes());
    }
    for r in 0..tile {
        for c in 0..tile {
            let entry = clean.kernel.data()[r * states.len() + c];
            record.extend_from_slice(&entry.to_bits().to_le_bytes());
        }
    }
    let old = [
        (dir.join("manifest.qkg"), seal(b"QKGRAM1\0", &manifest)),
        (dir.join("tiles/t_0_0.qkt"), seal(b"QKTILE1\0", &record)),
    ];
    std::fs::create_dir_all(dir.join("tiles")).unwrap();
    for (path, bytes) in &old {
        std::fs::write(path, bytes).unwrap();
    }

    let engine = GramEngine::new(GramConfig::checkpointed(&dir, tile, encoding));
    let out = engine.compute_gram(&states, &be).unwrap();
    assert_eq!(out.report.tiles_restored, 0);
    assert_eq!(out.report.tiles_computed, out.report.tiles_total);
    assert_eq!(bits(out.kernel.data()), bits(clean.kernel.data()));
    for (path, bytes) in &old {
        assert_eq!(&std::fs::read(path).unwrap(), bytes, "{}", path.display());
    }
    // The log beside them resumes like any other.
    let again = engine.compute_gram(&states, &be).unwrap();
    assert_eq!(again.report.tiles_restored, again.report.tiles_total);
    let _ = std::fs::remove_dir_all(&dir);
}

//! On-disk checkpoint store: a manifest binding the directory to one job
//! fingerprint, plus one checksummed file per completed tile.
//!
//! Layout:
//!
//! ```text
//! <dir>/manifest.qkg            # QKGRAM1\0 | fingerprint | kind | rows
//!                               #   | cols | tile | checksum
//! <dir>/tiles/t_<bi>_<bj>.qkt   # QKTILE1\0 | fingerprint | bi | bj
//!                               #   | rows | cols | payload f64s | checksum
//! ```
//!
//! Both files are [`qk_chaos::durable`] records: little-endian fields
//! sealed by an FNV-1a 64 checksum over every preceding byte, written
//! to a temporary name and renamed into place. A SIGKILL can at worst
//! leave one torn temp file (swept on the next open) — and even a torn
//! final file fails its checksum and is recomputed rather than loaded.
//! A checkpoint directory has a single writer at a time (the manifest
//! binds it to one job); opening it sweeps debris from earlier lives.

use crate::fingerprint::{JobKind, JobSpec};
use crate::tiles::Tile;
use qk_chaos::durable::{self, Reader};
use std::fs;
use std::path::{Path, PathBuf};

const MANIFEST_MAGIC: &[u8; 8] = b"QKGRAM1\0";
const TILE_MAGIC: &[u8; 8] = b"QKTILE1\0";
const MANIFEST_NAME: &str = "manifest.qkg";
/// Manifest fields: fingerprint, kind tag, rows, cols and tile.
const MANIFEST_BODY_BYTES: usize = 33;
/// Tile header fields: fingerprint, bi, bj, rows and cols.
const TILE_HEADER_BYTES: usize = 40;

/// Why a checkpoint directory could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure underneath the store.
    Io(std::io::Error),
    /// The manifest exists but records a different job fingerprint: the
    /// directory belongs to another computation and is rejected.
    Mismatch {
        /// Fingerprint of the job being run.
        expected: u64,
        /// Fingerprint recorded in the manifest.
        found: u64,
    },
    /// The manifest file itself is malformed or fails its checksum.
    CorruptManifest {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Mismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint mismatch: job is {expected:#018x}, \
                 directory was written by {found:#018x}"
            ),
            CheckpointError::CorruptManifest { reason } => {
                write!(f, "corrupt checkpoint manifest: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The manifest record for one checkpoint directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Job fingerprint the directory is bound to.
    pub fingerprint: u64,
    /// Job kind.
    pub kind: JobKind,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Tile edge.
    pub tile: usize,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(MANIFEST_BODY_BYTES);
        body.extend_from_slice(&self.fingerprint.to_le_bytes());
        body.push(self.kind.tag());
        for v in [self.rows, self.cols, self.tile] {
            body.extend_from_slice(&(v as u64).to_le_bytes());
        }
        durable::seal(MANIFEST_MAGIC, &body)
    }

    fn decode(bytes: &[u8]) -> Result<Manifest, CheckpointError> {
        let corrupt = |reason| CheckpointError::CorruptManifest { reason };
        let body = durable::unseal(bytes, MANIFEST_MAGIC, MANIFEST_BODY_BYTES).map_err(corrupt)?;
        Self::decode_body(body).ok_or_else(|| corrupt("unknown job kind"))
    }

    /// Reads the fields of a body whose length [`durable::unseal`] has
    /// checked, so only the job kind can still be invalid.
    fn decode_body(mut r: Reader<'_>) -> Option<Manifest> {
        let fingerprint = r.u64()?;
        let kind = match r.u8()? {
            0 => JobKind::Train,
            1 => JobKind::Block,
            _ => return None,
        };
        Some(Manifest {
            fingerprint,
            kind,
            rows: r.u64()? as usize,
            cols: r.u64()? as usize,
            tile: r.u64()? as usize,
        })
    }
}

/// Outcome of a classified tile load ([`CheckpointStore::load_classified`]):
/// the tile's row-major payload, or why there is none to restore.
pub type TileLoad = durable::Load<Vec<f64>>;

/// A checkpoint directory opened for one job.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
}

impl CheckpointStore {
    /// Opens (or initializes) `dir` for the given job.
    ///
    /// A fresh or empty directory is initialized with a new manifest. An
    /// existing manifest must carry the job's exact fingerprint —
    /// anything else is a hard [`CheckpointError::Mismatch`] /
    /// [`CheckpointError::CorruptManifest`] error, never silent reuse.
    pub fn open(dir: &Path, spec: &JobSpec) -> Result<CheckpointStore, CheckpointError> {
        let fingerprint = spec.fingerprint();
        fs::create_dir_all(dir.join("tiles"))?;
        // Settle the temps a SIGKILL mid-store left behind: adopt a
        // complete record whose final name is missing, remove the rest,
        // which would otherwise accumulate across kill/resume cycles
        // (each life embeds its own pid in the temp name).
        durable::sweep_temps(dir);
        durable::sweep_temps(&dir.join("tiles"));
        let manifest_path = dir.join(MANIFEST_NAME);
        match fs::read(&manifest_path) {
            Ok(bytes) => {
                let manifest = Manifest::decode(&bytes)?;
                if manifest.fingerprint != fingerprint {
                    return Err(CheckpointError::Mismatch {
                        expected: fingerprint,
                        found: manifest.fingerprint,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let manifest = Manifest {
                    fingerprint,
                    kind: spec.kind,
                    rows: spec.rows,
                    cols: spec.cols,
                    tile: spec.tile,
                };
                durable::write_atomic(&manifest_path, &manifest.encode())?;
            }
            Err(e) => return Err(e.into()),
        }
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            fingerprint,
        })
    }

    /// Reads this directory's manifest back.
    pub fn manifest(&self) -> Result<Manifest, CheckpointError> {
        Manifest::decode(&fs::read(self.dir.join(MANIFEST_NAME))?)
    }

    /// Where `tile`'s checkpoint file lives under `dir`.
    fn tile_path(dir: &Path, tile: &Tile) -> PathBuf {
        dir.join("tiles")
            .join(format!("t_{}_{}.qkt", tile.bi, tile.bj))
    }

    /// Cheap presence probe: `true` when a (possibly stale) tile file
    /// exists for `tile` under `dir`. Used to recognize warm resumes
    /// before committing to expensive preparation (e.g. spilling
    /// states); validity is still checked at load time.
    pub fn tile_present(dir: &Path, tile: &Tile) -> bool {
        Self::tile_path(dir, tile).exists()
    }

    /// Persists one completed tile payload (row-major `tile.rows x
    /// tile.cols`) through [`durable::write_atomic`], so the final name
    /// is atomic under SIGKILL.
    pub fn store(&self, tile: &Tile, payload: &[f64]) -> Result<(), CheckpointError> {
        debug_assert_eq!(payload.len(), tile.len());
        let mut body = Vec::with_capacity(TILE_HEADER_BYTES + payload.len() * 8);
        body.extend_from_slice(&self.fingerprint.to_le_bytes());
        for v in [tile.bi, tile.bj, tile.rows, tile.cols] {
            body.extend_from_slice(&(v as u64).to_le_bytes());
        }
        for v in payload {
            body.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let record = durable::seal(TILE_MAGIC, &body);
        durable::write_atomic(&Self::tile_path(&self.dir, tile), &record)?;
        Ok(())
    }

    /// Attempts to load the persisted payload for `tile`:
    /// [`TileLoad::Loaded`] only when the file exists, matches the job
    /// fingerprint and tile geometry, and passes its checksum. A missing
    /// file is [`TileLoad::Missing`]; a truncated, corrupted or
    /// mismatched one is [`TileLoad::Corrupt`] after the stale file is
    /// deleted, so the tile recomputes instead of loading (the runner's
    /// journal records the two outcomes differently).
    pub fn load_classified(&self, tile: &Tile) -> Result<TileLoad, CheckpointError> {
        let path = Self::tile_path(&self.dir, tile);
        Ok(durable::load(&path, |bytes| {
            Self::decode_tile(bytes, self.fingerprint, tile)
        })?)
    }

    fn decode_tile(bytes: &[u8], fingerprint: u64, tile: &Tile) -> Option<Vec<f64>> {
        let body_len = tile.len().checked_mul(8)?.checked_add(TILE_HEADER_BYTES)?;
        let mut r = durable::unseal(bytes, TILE_MAGIC, body_len).ok()?;
        if r.u64()? != fingerprint {
            return None;
        }
        for want in [tile.bi, tile.bj, tile.rows, tile.cols] {
            if r.u64()? != want as u64 {
                return None;
            }
        }
        let mut values = Vec::with_capacity(tile.len());
        for _ in 0..tile.len() {
            values.push(r.f64()?);
        }
        Some(values)
    }

    /// Quarantines a tile file that keeps failing to load: deletes it so
    /// the engine recomputes and rewrites a valid replacement. Missing
    /// files are fine — quarantine is idempotent.
    pub fn quarantine(&self, tile: &Tile) -> Result<(), CheckpointError> {
        match fs::remove_file(Self::tile_path(&self.dir, tile)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::TilePlan;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "qk-gram-ckpt-test-{}-{tag}-{id}",
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
            encoding: 0xFEED,
            kind: JobKind::Train,
            rows: 10,
            cols: 10,
            tile: 4,
        }
    }

    #[test]
    fn roundtrip_store_and_load() {
        let dir = scratch("roundtrip");
        let spec = spec();
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        let plan = TilePlan::symmetric(spec.rows, spec.tile);
        let tile = plan.tiles[1];
        let payload: Vec<f64> = (0..tile.len()).map(|k| (k as f64) * 0.125 - 0.3).collect();
        assert_eq!(loaded(&store, &tile), None);
        store.store(&tile, &payload).unwrap();
        assert_eq!(loaded(&store, &tile), Some(payload.clone()));
        // Reopen resumes: same fingerprint, tile still loadable.
        drop(store);
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        assert_eq!(loaded(&store, &tile), Some(payload));
        let m = store.manifest().unwrap();
        assert_eq!(m.fingerprint, spec.fingerprint());
        assert_eq!(m.tile, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_fingerprint_is_rejected() {
        let dir = scratch("mismatch");
        let spec_a = spec();
        CheckpointStore::open(&dir, &spec_a).unwrap();
        // Same shape, different encoding: a different computation.
        let spec_b = JobSpec {
            encoding: 0xBEEF,
            ..spec_a
        };
        match CheckpointStore::open(&dir, &spec_b) {
            Err(CheckpointError::Mismatch { expected, found }) => {
                assert_eq!(expected, spec_b.fingerprint());
                assert_eq!(found, spec_a.fingerprint());
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
        // Different tile size is a different fingerprint too.
        let spec_c = JobSpec { tile: 2, ..spec_a };
        assert!(matches!(
            CheckpointStore::open(&dir, &spec_c),
            Err(CheckpointError::Mismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = scratch("badmanifest");
        CheckpointStore::open(&dir, &spec()).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[20] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            CheckpointStore::open(&dir, &spec()),
            Err(CheckpointError::CorruptManifest { .. })
        ));
        // Truncated manifest is equally rejected.
        fs::write(&path, &bytes[..30]).unwrap();
        assert!(matches!(
            CheckpointStore::open(&dir, &spec()),
            Err(CheckpointError::CorruptManifest { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tile_is_dropped_not_loaded() {
        let dir = scratch("badtile");
        let spec = spec();
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        let plan = TilePlan::symmetric(spec.rows, spec.tile);
        let tile = plan.tiles[0];
        let payload = vec![0.5f64; tile.len()];
        store.store(&tile, &payload).unwrap();
        let path = CheckpointStore::tile_path(&dir, &tile);

        // Flip one payload bit: checksum fails, file is deleted.
        let mut bytes = fs::read(&path).unwrap();
        bytes[60] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(loaded(&store, &tile), None);
        assert!(!path.exists(), "corrupt tile must be quarantined");

        // Truncated file: same treatment.
        store.store(&tile, &payload).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(loaded(&store, &tile), None);
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_temp_tiles_are_swept_on_open() {
        let dir = scratch("sweep");
        let spec = spec();
        CheckpointStore::open(&dir, &spec).unwrap();
        // Simulate a SIGKILL mid-store: torn temps next to the manifest
        // and next to a real tile.
        let torn = [
            dir.join(".manifest.qkg.12345.tmp"),
            dir.join("tiles").join(".t_0_1.qkt.12345.tmp"),
        ];
        for path in &torn {
            fs::write(path, b"half-written").unwrap();
        }
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        for path in &torn {
            assert!(!path.exists(), "torn temp {} must be swept", path.display());
        }
        // Real tiles survive the sweep.
        let plan = TilePlan::symmetric(spec.rows, spec.tile);
        let tile = plan.tiles[0];
        store.store(&tile, &vec![0.25; tile.len()]).unwrap();
        CheckpointStore::open(&dir, &spec).unwrap();
        assert_eq!(loaded(&store, &tile), Some(vec![0.25; tile.len()]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tile_presence_probe() {
        let dir = scratch("presence");
        let spec = spec();
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        let plan = TilePlan::symmetric(spec.rows, spec.tile);
        let tile = plan.tiles[0];
        assert!(!CheckpointStore::tile_present(&dir, &tile));
        store.store(&tile, &vec![1.0; tile.len()]).unwrap();
        assert!(CheckpointStore::tile_present(&dir, &tile));
        assert!(!CheckpointStore::tile_present(&dir, &plan.tiles[1]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_from_older_kernel_version_is_refused() {
        // The directory as a v2 binary left it: same job, manifest and a
        // (valid, checksummed) tile both stamped with the v2 fingerprint.
        let dir = scratch("v2");
        let spec = spec();
        // What `spec().fingerprint()` returned while the version was 2.
        let v2 = 0x3078_60bd_58d4_4f60_u64;
        assert_ne!(v2, spec.fingerprint());
        fs::create_dir_all(dir.join("tiles")).unwrap();
        let manifest = Manifest {
            fingerprint: v2,
            kind: spec.kind,
            rows: spec.rows,
            cols: spec.cols,
            tile: spec.tile,
        };
        fs::write(dir.join(MANIFEST_NAME), manifest.encode()).unwrap();
        let old = CheckpointStore {
            dir: dir.clone(),
            fingerprint: v2,
        };
        let tile = TilePlan::symmetric(spec.rows, spec.tile).tiles[0];
        let payload = vec![0.5; tile.len()];
        old.store(&tile, &payload).unwrap();
        assert_eq!(loaded(&old, &tile), Some(payload));

        match CheckpointStore::open(&dir, &spec) {
            Err(CheckpointError::Mismatch { expected, found }) => {
                assert_eq!(expected, spec.fingerprint());
                assert_eq!(found, v2);
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
        // Even with the manifest out of the way the v2 tile never enters
        // a current job: its header fingerprint fails the per-tile check.
        fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        let store = CheckpointStore::open(&dir, &spec).unwrap();
        assert_eq!(loaded(&store, &tile), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tile_from_other_job_is_not_loaded() {
        let dir_a = scratch("foreign-a");
        let dir_b = scratch("foreign-b");
        let spec_a = spec();
        let spec_b = JobSpec {
            encoding: 0xD00D,
            ..spec_a
        };
        let store_a = CheckpointStore::open(&dir_a, &spec_a).unwrap();
        let store_b = CheckpointStore::open(&dir_b, &spec_b).unwrap();
        let plan = TilePlan::symmetric(spec_a.rows, spec_a.tile);
        let tile = plan.tiles[2];
        store_a.store(&tile, &vec![1.0; tile.len()]).unwrap();
        // Copy A's tile into B's directory: fingerprint check refuses it.
        fs::copy(
            CheckpointStore::tile_path(&dir_a, &tile),
            CheckpointStore::tile_path(&dir_b, &tile),
        )
        .unwrap();
        assert_eq!(loaded(&store_b, &tile), None);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    /// The manifest format is pinned: the digest of a fixed encoding was
    /// recorded when the format last changed, so any byte drift in the
    /// codec fails here before it strands an existing checkpoint.
    #[test]
    fn manifest_bytes_are_pinned() {
        let manifest = Manifest {
            fingerprint: 0x0123_4567_89ab_cdef,
            kind: JobKind::Block,
            rows: 6,
            cols: 9,
            tile: 3,
        };
        let bytes = manifest.encode();
        assert_eq!(bytes.len(), 49);
        assert_eq!(crate::fnv1a64(&bytes), 0xf81a_e57e_076e_524f);
    }

    /// The tile file format is pinned the same way: a fixed 2x3 tile
    /// written through the store hashes to the recorded digest.
    #[test]
    fn tile_file_bytes_are_pinned() {
        let dir = scratch("pinned");
        let store = CheckpointStore::open(&dir, &spec()).unwrap();
        let tile = Tile {
            bi: 1,
            bj: 2,
            row0: 4,
            rows: 2,
            col0: 8,
            cols: 3,
        };
        let payload = [1.0, -0.5, 0.25, 1e-300, -0.0, 0.1];
        store.store(&tile, &payload).unwrap();
        let bytes = fs::read(CheckpointStore::tile_path(&dir, &tile)).unwrap();
        assert_eq!(bytes.len(), 48 + 6 * 8 + 8);
        assert_eq!(crate::fnv1a64(&bytes), 0xf88c_907e_b89d_9e74);
        let _ = fs::remove_dir_all(&dir);
    }
}

//! On-disk checkpoint store: one append-only log per directory. Its
//! first record is the manifest binding the directory to one job
//! fingerprint; each later record is one completed tile:
//!
//! ```text
//! <dir>/gram.qkg  # QKGRAM1\0 | fingerprint | kind | rows | cols | tile | fnv64
//!   then per tile:  QKTILE1\0 | fingerprint | bi | bj | rows | cols | f64s | fnv64
//! ```
//!
//! Every record is a [`qk_chaos::durable`] record, sealed by an FNV-1a
//! 64 over every preceding byte. [`durable::write_atomic`] creates the
//! log whole, holding the manifest only, so a kill never tears it.
//! Tiles are appended in place: the next open cuts off the torn tail a
//! kill mid-append leaves, a later record for a tile supersedes an
//! earlier one, and a record failing its checksum recomputes. A log
//! has one writer at a time (the manifest binds it to one job).

use crate::fingerprint::JobSpec;
use crate::tiles::Tile;
use qk_chaos::durable;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

const MANIFEST_MAGIC: &[u8; 8] = b"QKGRAM1\0";
const TILE_MAGIC: &[u8; 8] = b"QKTILE1\0";
const LOG_NAME: &str = "gram.qkg";
/// Manifest fields: fingerprint, kind tag, rows, cols and tile.
const MANIFEST_BODY_BYTES: usize = 33;
/// The sealed manifest: magic, body and checksum.
const MANIFEST_BYTES: u64 = 8 + MANIFEST_BODY_BYTES as u64 + 8;
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
    /// The manifest record itself is malformed or fails its checksum.
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

/// The manifest record binding a log to `fingerprint` and `spec`'s shape.
fn manifest_record(fingerprint: u64, spec: &JobSpec) -> Vec<u8> {
    let mut body = fingerprint.to_le_bytes().to_vec();
    body.push(spec.kind.tag());
    for v in [spec.rows, spec.cols, spec.tile] {
        body.extend((v as u64).to_le_bytes());
    }
    durable::seal(MANIFEST_MAGIC, &body)
}

/// A tile record's header fields after the magic.
fn tile_header(fingerprint: u64, tile: &Tile) -> impl Iterator<Item = u64> {
    let geometry = [tile.bi, tile.bj, tile.rows, tile.cols].map(|v| v as u64);
    std::iter::once(fingerprint).chain(geometry)
}

/// A tile's row-major payload, or why [`CheckpointStore::load_classified`] has none.
pub type TileLoad = durable::Load<Vec<f64>>;

/// A checkpoint directory's log, opened for one job.
#[derive(Debug)]
pub struct CheckpointStore {
    fingerprint: u64,
    log: Mutex<Log>,
}

/// The open log and what its scan found. One lock guards both, so an
/// append and its index entry land together.
#[derive(Debug)]
struct Log {
    file: File,
    /// Bytes of whole records: where the next append lands.
    len: u64,
    /// Offset and length of the newest record of each tile, by `(bi, bj)`.
    index: BTreeMap<(usize, usize), (u64, u64)>,
}

impl CheckpointStore {
    /// Opens (or initializes) `dir` for the given job: a directory
    /// without a log gets a new one. An existing manifest
    /// must carry the job's exact fingerprint — anything else is a hard
    /// [`CheckpointError::Mismatch`] / [`CheckpointError::CorruptManifest`]
    /// error, never silent reuse. The tile records are scanned once.
    pub fn open(dir: &Path, spec: &JobSpec) -> Result<CheckpointStore, CheckpointError> {
        let fingerprint = spec.fingerprint();
        std::fs::create_dir_all(dir)?;
        // Adopt (if whole) or remove the temp a kill mid-creation left.
        durable::sweep_temps(dir);
        let path = dir.join(LOG_NAME);
        if !path.try_exists()? {
            durable::write_atomic(&path, &manifest_record(fingerprint, spec))?;
        }
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut manifest = Vec::with_capacity(MANIFEST_BYTES as usize);
        (&file).take(MANIFEST_BYTES).read_to_end(&mut manifest)?;
        let corrupt = |reason| CheckpointError::CorruptManifest { reason };
        let mut r =
            durable::unseal(&manifest, MANIFEST_MAGIC, MANIFEST_BODY_BYTES).map_err(corrupt)?;
        // `unseal` checked the length, so only the job kind can be invalid.
        let (Some(found), Some(0 | 1)) = (r.u64(), r.u8()) else {
            return Err(corrupt("unknown job kind"));
        };
        if found != fingerprint {
            return Err(CheckpointError::Mismatch {
                expected: fingerprint,
                found,
            });
        }
        Ok(CheckpointStore {
            fingerprint,
            log: Mutex::new(Log::scan(file)?),
        })
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("checkpoint log poisoned")
    }

    /// Whether the log holds a (still unverified) record for `tile`.
    pub fn contains(&self, tile: &Tile) -> bool {
        self.log().index.contains_key(&(tile.bi, tile.bj))
    }

    /// Appends one completed tile payload (row-major `tile.rows x
    /// tile.cols`) as a sealed record.
    pub fn store(&self, tile: &Tile, payload: &[f64]) -> Result<(), CheckpointError> {
        debug_assert_eq!(payload.len(), tile.len());
        let body: Vec<u8> = tile_header(self.fingerprint, tile)
            .chain(payload.iter().map(|v| v.to_bits()))
            .flat_map(u64::to_le_bytes)
            .collect();
        let record = durable::seal(TILE_MAGIC, &body);
        self.log().append(tile, &record, |file, bytes, at| {
            file.write_all_at(bytes, at)
        })?;
        Ok(())
    }

    /// Loads `tile`'s newest record: [`TileLoad::Loaded`] only when it
    /// matches the job fingerprint and tile geometry and passes its
    /// checksum, [`TileLoad::Missing`] when there is none. A bad one is
    /// [`TileLoad::Corrupt`] and leaves the index, so the tile recomputes.
    pub fn load_classified(&self, tile: &Tile) -> Result<TileLoad, CheckpointError> {
        let mut log = self.log();
        let key = (tile.bi, tile.bj);
        let Some(&(at, len)) = log.index.get(&key) else {
            return Ok(TileLoad::Missing);
        };
        let mut bytes = vec![0; len as usize];
        log.file.read_exact_at(&mut bytes, at)?;
        match self.decode_tile(&bytes, tile) {
            Some(payload) => Ok(TileLoad::Loaded(payload)),
            None => {
                log.index.remove(&key);
                Ok(TileLoad::Corrupt)
            }
        }
    }

    fn decode_tile(&self, bytes: &[u8], tile: &Tile) -> Option<Vec<f64>> {
        let mut r = durable::unseal(bytes, TILE_MAGIC, TILE_HEADER_BYTES + 8 * tile.len()).ok()?;
        if !tile_header(self.fingerprint, tile).all(|want| r.u64() == Some(want)) {
            return None;
        }
        (0..tile.len()).map(|_| r.f64()).collect()
    }

    /// Quarantines a tile whose record keeps failing to load: drops it
    /// from the index, so it recomputes and a valid record supersedes it.
    pub fn quarantine(&self, tile: &Tile) {
        self.log().index.remove(&(tile.bi, tile.bj));
    }
}

impl Log {
    /// Indexes the tile records after the manifest from their headers,
    /// seeking past each payload. A record with a bad magic or running
    /// past the end is a torn tail: the log is cut there.
    fn scan(file: File) -> io::Result<Log> {
        let end = file.metadata()?.len();
        let mut log = Log {
            file,
            len: MANIFEST_BYTES,
            index: BTreeMap::new(),
        };
        let mut head = [0u8; 8 + TILE_HEADER_BYTES];
        while log.len + head.len() as u64 <= end {
            log.file.read_exact_at(&mut head, log.len)?;
            // Magic, then fingerprint, bi, bj, rows and cols.
            let field = |k: usize| u64::from_le_bytes(head[8 * k..8 * k + 8].try_into().unwrap());
            let next = (field(4).checked_mul(field(5)))
                .and_then(|n| n.checked_mul(8)?.checked_add(log.len + 56))
                .filter(|&next| next <= end && &head[..8] == TILE_MAGIC);
            let Some(next) = next else { break };
            let key = (field(2) as usize, field(3) as usize);
            log.index.insert(key, (log.len, next - log.len));
            log.len = next;
        }
        if log.len < end {
            log.file.set_len(log.len)?;
        }
        Ok(log)
    }

    /// Appends `record` for `tile` through `write` (file, bytes, offset).
    /// A write failing part-way is cut back to the pre-append length, so
    /// a retried store never sits behind a torn record.
    fn append(
        &mut self,
        tile: &Tile,
        record: &[u8],
        write: impl FnOnce(&File, &[u8], u64) -> io::Result<()>,
    ) -> io::Result<()> {
        write(&self.file, record, self.len).inspect_err(|_| {
            let _ = self.file.set_len(self.len);
        })?;
        let len = record.len() as u64;
        self.index.insert((tile.bi, tile.bj), (self.len, len));
        self.len += len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::JobKind;
    use crate::tiles::TilePlan;
    use std::fs;
    use std::io::Write;
    use std::path::PathBuf;
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

    fn tiles() -> Vec<Tile> {
        TilePlan::symmetric(10, 4).tiles
    }

    fn reopen(dir: &Path) -> CheckpointStore {
        CheckpointStore::open(dir, &spec()).unwrap()
    }

    fn log_bytes(dir: &Path) -> Vec<u8> {
        fs::read(dir.join(LOG_NAME)).unwrap()
    }

    /// Appends raw `bytes` to `dir`'s log, as another writer would.
    fn append_raw(dir: &Path, bytes: &[u8]) {
        let mut log = OpenOptions::new().append(true).open(dir.join(LOG_NAME));
        log.as_mut().unwrap().write_all(bytes).unwrap();
    }

    #[test]
    fn roundtrip_store_and_load() {
        let dir = scratch("roundtrip");
        let store = reopen(&dir);
        let tile = tiles()[1];
        let payload: Vec<f64> = (0..tile.len()).map(|k| (k as f64) * 0.125 - 0.3).collect();
        assert_eq!(loaded(&store, &tile), None);
        store.store(&tile, &payload).unwrap();
        assert_eq!(loaded(&store, &tile), Some(payload.clone()));
        // Reopen resumes: same fingerprint, tile still loadable.
        drop(store);
        assert_eq!(loaded(&reopen(&dir), &tile), Some(payload));
        // The log opens with the manifest: fingerprint first, tile last.
        let log = log_bytes(&dir);
        assert_eq!(log[8..16], spec().fingerprint().to_le_bytes());
        assert_eq!(log[33..41], 4u64.to_le_bytes());
        assert_eq!(log.len(), 49 + 56 + 8 * tile.len());
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
        let err = CheckpointStore::open(&dir, &spec_b).unwrap_err();
        let (a, b) = (spec_a.fingerprint(), spec_b.fingerprint());
        assert!(
            matches!(err, CheckpointError::Mismatch { expected, found } if expected == b && found == a),
            "{err:?}"
        );
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
        reopen(&dir);
        let mut flipped = log_bytes(&dir);
        flipped[20] ^= 0xFF;
        // A flipped manifest byte and a truncated manifest alike.
        for bytes in [&flipped[..], &flipped[..30]] {
            fs::write(dir.join(LOG_NAME), bytes).unwrap();
            assert!(matches!(
                CheckpointStore::open(&dir, &spec()),
                Err(CheckpointError::CorruptManifest { .. })
            ));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tile_is_dropped_not_loaded() {
        let dir = scratch("badtile");
        let store = reopen(&dir);
        let tile = tiles()[0];
        let payload = vec![0.5f64; tile.len()];
        store.store(&tile, &payload).unwrap();
        // Flip one payload bit: checksum fails, the record leaves the index.
        let mut bytes = log_bytes(&dir);
        bytes[49 + 60] ^= 0x01;
        fs::write(dir.join(LOG_NAME), &bytes).unwrap();
        assert_eq!(loaded(&store, &tile), None);
        assert!(!store.contains(&tile), "corrupt tile must be quarantined");
        // Its replacement supersedes it, in this life and the next.
        store.store(&tile, &payload).unwrap();
        assert_eq!(loaded(&store, &tile), Some(payload.clone()));
        drop(store);
        assert_eq!(loaded(&reopen(&dir), &tile), Some(payload));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_leaves_the_log_at_its_prior_length() {
        let dir = scratch("append");
        let (tiles, store) = (tiles(), reopen(&dir));
        store.store(&tiles[0], &[0.5; 16]).unwrap();
        let before = log_bytes(&dir);
        // Half the record lands, then the device fails.
        let failed = store.log().append(&tiles[1], &[7; 100], |file, bytes, at| {
            file.write_all_at(&bytes[..50], at)?;
            Err(io::Error::other("device full"))
        });
        assert!(failed.is_err() && !store.contains(&tiles[1]));
        assert_eq!(log_bytes(&dir), before);
        // The retried store lands where the torn one began.
        store.store(&tiles[1], &[2.0; 16]).unwrap();
        drop(store);
        assert_eq!(loaded(&reopen(&dir), &tiles[1]), Some(vec![2.0; 16]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tile_presence_probe() {
        let dir = scratch("presence");
        let (tiles, store) = (tiles(), reopen(&dir));
        assert!(!store.contains(&tiles[0]));
        store.store(&tiles[0], &[1.0; 16]).unwrap();
        assert!(store.contains(&tiles[0]) && !store.contains(&tiles[1]));
        // A reopened log's index holds what the scan found.
        drop(store);
        let store = reopen(&dir);
        assert!(store.contains(&tiles[0]) && !store.contains(&tiles[1]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_from_older_kernel_version_is_refused() {
        // The log as a v2 binary left it: same job, manifest and a
        // (valid, checksummed) tile both stamped with the v2 fingerprint.
        let dir = scratch("v2");
        let spec = spec();
        // What `spec().fingerprint()` returned while the version was 2.
        let v2 = 0x3078_60bd_58d4_4f60_u64;
        assert_ne!(v2, spec.fingerprint());
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(LOG_NAME), manifest_record(v2, &spec)).unwrap();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(LOG_NAME));
        let old = CheckpointStore {
            fingerprint: v2,
            log: Mutex::new(Log::scan(file.unwrap()).unwrap()),
        };
        let tile = tiles()[0];
        old.store(&tile, &[0.5; 16]).unwrap();
        assert_eq!(loaded(&old, &tile), Some(vec![0.5; 16]));
        let (err, now) = (
            CheckpointStore::open(&dir, &spec).unwrap_err(),
            spec.fingerprint(),
        );
        assert!(
            matches!(err, CheckpointError::Mismatch { expected, found } if expected == now && found == v2),
            "{err:?}"
        );
        // Even behind a current manifest the v2 tile never enters a
        // current job: its header fingerprint fails the per-tile check.
        let v2_tile = log_bytes(&dir)[49..].to_vec();
        fs::remove_file(dir.join(LOG_NAME)).unwrap();
        reopen(&dir);
        append_raw(&dir, &v2_tile);
        let store = reopen(&dir);
        assert!(store.contains(&tile));
        assert_eq!(loaded(&store, &tile), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tile_from_other_job_is_not_loaded() {
        let (dir_a, dir_b) = (scratch("foreign-a"), scratch("foreign-b"));
        let spec_b = JobSpec {
            encoding: 0xD00D,
            ..spec()
        };
        let tile = tiles()[2];
        reopen(&dir_a).store(&tile, &vec![1.0; tile.len()]).unwrap();
        // Copy A's tile record into B's log: fingerprint check refuses it.
        CheckpointStore::open(&dir_b, &spec_b).unwrap();
        append_raw(&dir_b, &log_bytes(&dir_a)[49..]);
        let store_b = CheckpointStore::open(&dir_b, &spec_b).unwrap();
        assert_eq!(loaded(&store_b, &tile), None);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    /// The manifest format is pinned: the digest of a fixed encoding was
    /// recorded when the format last changed, so any byte drift in the
    /// codec fails here before it strands an existing checkpoint. A
    /// log's first 49 bytes are that encoding.
    #[test]
    fn manifest_bytes_are_pinned() {
        let spec = JobSpec {
            encoding: 0xB10C,
            kind: JobKind::Block,
            rows: 6,
            cols: 9,
            tile: 3,
        };
        let bytes = manifest_record(0x0123_4567_89ab_cdef, &spec);
        assert_eq!(bytes.len(), 49);
        assert_eq!(crate::fnv1a64(&bytes), 0xf81a_e57e_076e_524f);
        let dir = scratch("manifest-pin");
        CheckpointStore::open(&dir, &spec).unwrap();
        assert_eq!(log_bytes(&dir), manifest_record(spec.fingerprint(), &spec));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The tile record format is pinned the same way: a fixed 2x3 tile
    /// appended through the store hashes to the recorded digest.
    #[test]
    fn tile_record_bytes_are_pinned() {
        let dir = scratch("pinned");
        let tile = Tile {
            bi: 1,
            bj: 2,
            row0: 4,
            rows: 2,
            col0: 8,
            cols: 3,
        };
        let payload = [1.0, -0.5, 0.25, 1e-300, -0.0, 0.1];
        reopen(&dir).store(&tile, &payload).unwrap();
        let record = &log_bytes(&dir)[49..];
        assert_eq!(record.len(), 48 + 6 * 8 + 8);
        assert_eq!(crate::fnv1a64(record), 0xf88c_907e_b89d_9e74);
        let _ = fs::remove_dir_all(&dir);
    }
}

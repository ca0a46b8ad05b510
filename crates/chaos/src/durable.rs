//! Durable records: the one checksum, record layout and atomic write
//! behind every file the pipeline persists.
//!
//! A record is `magic | body | checksum`: an 8-byte magic naming the
//! format, a little-endian body, and the FNV-1a 64 of every preceding
//! byte. [`seal`] builds one and [`unseal`] checks length, magic and
//! checksum before handing the body to a bounds-checked [`Reader`], so a
//! truncated or mangled file is rejected by construction instead of
//! panicking in a slice conversion. [`load`] reads a record back and
//! deletes one that fails to decode, so it is recomputed, never trusted.
//!
//! [`write_atomic`] writes `.<file name>.<pid>.tmp` beside the target,
//! removes the old file, then renames the temp onto the now-free name.
//! It never renames onto a live file: on ext4 (default `auto_da_alloc`)
//! a rename that replaces an existing name forces writeback of the new
//! file's data, and measured 40–65 ms per replacing write on an ext4
//! root, where a rename onto a free name took 0.007–0.02 ms (tmpfs:
//! ~0.01 ms either way). The pid keeps a resumed process from colliding with
//! its predecessor's debris, which [`sweep_temps`] settles when a store
//! is next opened: it adopts an orphan temp (final name missing) that
//! is a complete sealed record and removes every other temp. Temps are
//! dot-files, so they stay out of plain directory listings. No fsync is
//! issued: surviving a process kill is the contract, not a power cut.
//!
//! What a SIGKILL leaves, per boundary of a write, and what the next
//! [`sweep_temps`] + [`load`] reads:
//!
//! | kill lands after | on disk | next open loads |
//! |---|---|---|
//! | temp torn | old file (if any), partial temp | old record; `Missing` on a first write |
//! | temp complete | old file (if any), full temp | old record; the new one on a first write (adopted) |
//! | old file removed | full temp only | new record (adopted) |
//! | renamed | new file | new record |
//!
//! So a sealed record (Gram tiles and manifest, SMO snapshots) is never
//! lost: the old or the new one always loads. A text file (journal, obs
//! report, trace shard) carries no seal, so a kill in the microseconds
//! between remove and rename loses it: its temp is removed, not adopted.
//!
//! The stores that persist records gate each write and each read-back
//! on a named fault site: [`crate::sites::GRAM_CKPT_STORE`] and
//! [`crate::sites::GRAM_CKPT_LOAD`] for the Gram checkpoint,
//! [`crate::sites::SVM_CKPT_STORE`] and [`crate::sites::SVM_CKPT_LOAD`]
//! for the SMO snapshot.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte slice: the record checksum, and the digest
/// behind every job fingerprint and chaos site nonce (fast,
/// dependency-free, stable across platforms).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A bounds-checked little-endian reader over a byte buffer. Every read
/// returns `None` once the buffer runs short.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("take(8) is 8 bytes")))
    }

    /// The next little-endian `f64`, bit for bit.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

/// The record `magic | body | FNV-1a of both`.
pub fn seal(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(magic.len() + body.len() + 8);
    buf.extend_from_slice(magic);
    buf.extend_from_slice(body);
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// A reader over the body of a record [`seal`] built, provided `bytes`
/// is exactly `magic`, `body_len` body bytes and a matching checksum.
/// Otherwise the first check that failed: `"wrong length"`,
/// `"bad magic"` or `"checksum mismatch"`.
pub fn unseal<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    body_len: usize,
) -> Result<Reader<'a>, &'static str> {
    let sealed_len = body_len.checked_add(magic.len() + 8);
    if sealed_len != Some(bytes.len()) {
        return Err("wrong length");
    }
    let (head, sum) = bytes.split_at(bytes.len() - 8);
    if &head[..magic.len()] != magic {
        return Err("bad magic");
    }
    if fnv1a64(head).to_le_bytes() != sum {
        return Err("checksum mismatch");
    }
    Ok(Reader::new(&head[magic.len()..]))
}

/// What reading a record back found.
#[derive(Debug)]
pub enum Load<T> {
    /// No file exists: the record was never stored.
    Missing,
    /// A file existed but failed to decode (torn, corrupted, truncated
    /// or written by another job); it has been deleted, so the caller
    /// recomputes instead of loading it.
    Corrupt,
    /// The decoded record.
    Loaded(T),
}

/// Reads the record at `path` back through `decode`. A file `decode`
/// rejects is quarantined by deletion and reported as [`Load::Corrupt`].
pub fn load<T>(path: &Path, decode: impl FnOnce(&[u8]) -> Option<T>) -> io::Result<Load<T>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Load::Missing),
        Err(e) => return Err(e),
    };
    Ok(match decode(&bytes) {
        Some(value) => Load::Loaded(value),
        None => {
            let _ = fs::remove_file(path);
            Load::Corrupt
        }
    })
}

/// Writes `bytes` to `path` through `.<file name>.<pid>.tmp` in the same
/// directory: the temp is written in full, the old file removed, and
/// the temp renamed onto the free name, so the final name never holds a
/// torn file (see the module docs for what a kill between steps
/// leaves). The process id only names the temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_via(
        &temp_path(path, std::process::id())?,
        path,
        bytes,
        Boundary::Renamed,
    )
}

/// `.<file name>.<pid>.tmp` beside `path`: the temp name [`sweep_temps`]
/// parses back to its final name.
fn temp_path(path: &Path, pid: u32) -> io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )
    })?;
    Ok(path.with_file_name(format!(".{}.{pid}.tmp", name.to_string_lossy())))
}

/// The boundaries of a [`write_atomic`] call, in order. A kill lands
/// between two of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Boundary {
    /// The temp holds every byte; the old file is untouched.
    TempComplete,
    /// The old file is gone; the temp is the only copy.
    OldRemoved,
    /// The temp is the final file.
    Renamed,
}

/// The steps of [`write_atomic`] through `tmp`, stopped at `stop`: the
/// crash-window tests drive a write to each boundary through this, so
/// they test the real sequence.
fn write_via(tmp: &Path, path: &Path, bytes: &[u8], stop: Boundary) -> io::Result<()> {
    fs::write(tmp, bytes)?;
    if stop == Boundary::TempComplete {
        return Ok(());
    }
    if let Err(e) = fs::remove_file(path) {
        if e.kind() != io::ErrorKind::NotFound {
            return Err(e);
        }
    }
    if stop == Boundary::OldRemoved {
        return Ok(());
    }
    fs::rename(tmp, path)
}

/// Whether `bytes` ends in the FNV-1a of everything before it, as every
/// [`seal`] output does.
fn is_sealed(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && {
        let (head, sum) = bytes.split_at(bytes.len() - 8);
        fnv1a64(head).to_le_bytes() == sum
    }
}

/// Settles the temp files [`write_atomic`] calls cut short in `dir`
/// (dot-files ending in `.tmp`). A temp whose final name is missing and
/// that holds a complete sealed record is the only copy of a write
/// killed between remove and rename, so it is renamed into place; every
/// other temp is removed. Best-effort: an unreadable directory or a
/// file that cannot be moved is left as it is.
pub fn sweep_temps(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name.strip_prefix('.').and_then(|n| n.strip_suffix(".tmp")) else {
            continue;
        };
        let temp = entry.path();
        // `<final name>.<pid>`; a temp not named that way is never adopted.
        let target = stem
            .rsplit_once('.')
            .filter(|(_, pid)| pid.parse::<u32>().is_ok())
            .map(|(file, _)| dir.join(file));
        let orphan = target.filter(|target| {
            matches!(fs::symlink_metadata(target), Err(e) if e.kind() == io::ErrorKind::NotFound)
                && fs::read(&temp).is_ok_and(|bytes| is_sealed(&bytes))
        });
        let _ = match orphan {
            Some(target) => fs::rename(&temp, target),
            None => fs::remove_file(&temp),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sealed_records_round_trip_and_reject_damage() {
        let magic = b"QKTEST1\0";
        let mut body = vec![7u8];
        body.extend_from_slice(&42u64.to_le_bytes());
        body.extend_from_slice(&(-0.5f64).to_bits().to_le_bytes());
        let record = seal(magic, &body);
        assert_eq!(record.len(), 8 + 17 + 8);

        let mut r = unseal(&record, magic, 17).unwrap();
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u64(), Some(42));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.5f64).to_bits()));
        assert_eq!(r.u8(), None, "reads stop at the end of the body");

        assert_eq!(unseal(&record, magic, 16).err(), Some("wrong length"));
        assert_eq!(unseal(&record[..20], magic, 17).err(), Some("wrong length"));
        assert_eq!(unseal(&record, b"QKTEST2\0", 17).err(), Some("bad magic"));
        let mut flipped = record.clone();
        flipped[12] ^= 0x01;
        assert_eq!(unseal(&flipped, magic, 17).err(), Some("checksum mismatch"));
        assert_eq!(unseal(&[], magic, usize::MAX).err(), Some("wrong length"));
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qk-chaos-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dir_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn atomic_writes_replace_in_place_and_torn_temps_are_swept() {
        let dir = scratch("replace");
        let path = dir.join("record.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(dir_names(&dir), ["record.bin"], "a temp was left");

        // What kills leave behind, beside a file that only looks like a
        // temp: a temp beside its live final file (removed whatever it
        // holds), an orphan sealed record (adopted), an orphan torn one
        // and a temp with no pid (both removed).
        let sealed = seal(b"QKTEST1\0", b"body");
        fs::write(dir.join(".record.bin.12345.tmp"), &sealed).unwrap();
        fs::write(dir.join(".orphan.bin.12345.tmp"), &sealed).unwrap();
        fs::write(dir.join(".torn.bin.12345.tmp"), &sealed[..sealed.len() - 1]).unwrap();
        fs::write(dir.join(".nopid.tmp"), &sealed).unwrap();
        fs::write(dir.join("keep.tmp"), b"kept").unwrap();
        sweep_temps(&dir);
        assert_eq!(dir_names(&dir), ["keep.tmp", "orphan.bin", "record.bin"]);
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(fs::read(dir.join("orphan.bin")).unwrap(), sealed);
        assert!(write_atomic(Path::new("/"), b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every boundary of a replacing and of a first-ever write, killed
    /// there and reopened through `sweep_temps` + `load`: a sealed
    /// record always loads (old or new), a torn first write reads
    /// `Missing`, and only an unsealed file killed between remove and
    /// rename is lost.
    #[test]
    fn a_kill_at_any_write_boundary_leaves_a_loadable_record() {
        let magic = b"QKTEST1\0";
        let old = seal(magic, b"old record");
        let new = seal(magic, b"new record");
        let decode = |bytes: &[u8]| unseal(bytes, magic, 10).ok().map(|_| bytes.to_vec());
        // `None` stops at the boundary; `Some(k)` stops at TempComplete
        // with only the first k bytes written: a torn temp.
        let cuts = [
            (Some(new.len() / 2), Boundary::TempComplete),
            (None, Boundary::TempComplete),
            (None, Boundary::OldRemoved),
            (None, Boundary::Renamed),
        ];
        for (torn, stop) in cuts {
            for first_write in [false, true] {
                let dir = scratch("window");
                let path = dir.join("record.bin");
                let text = dir.join("journal.jsonl");
                if !first_write {
                    write_atomic(&path, &old).unwrap();
                    write_atomic(&text, b"old line\n").unwrap();
                }
                // A temp named as a dead life's would be.
                let bytes = torn.map_or(&new[..], |k| &new[..k]);
                write_via(&temp_path(&path, 4_000_000).unwrap(), &path, bytes, stop).unwrap();
                let text_temp = temp_path(&text, 4_000_000).unwrap();
                write_via(&text_temp, &text, b"old line\nnew line\n", stop).unwrap();

                sweep_temps(&dir);
                let case = format!("{stop:?}, torn {torn:?}, first write {first_write}");
                let loaded = load(&path, decode).unwrap();
                let want = match (torn, stop, first_write) {
                    (Some(_), _, true) => None,
                    (Some(_), _, false) | (None, Boundary::TempComplete, false) => Some(&old),
                    _ => Some(&new),
                };
                match (loaded, want) {
                    (Load::Loaded(got), Some(want)) => assert_eq!(&got, want, "{case}"),
                    (Load::Missing, None) => {}
                    (other, _) => panic!("{case}: loaded {other:?}, want {want:?}"),
                }
                let text_now = fs::read(&text).ok();
                let text_lost =
                    stop == Boundary::OldRemoved || (first_write && stop != Boundary::Renamed);
                assert_eq!(text_now.is_none(), text_lost, "{case}: text file");
                if stop == Boundary::TempComplete && !first_write {
                    assert_eq!(text_now.as_deref(), Some(&b"old line\n"[..]), "{case}");
                }
                assert!(
                    dir_names(&dir).iter().all(|n| !n.ends_with(".tmp")),
                    "{case}: a temp survived the sweep"
                );
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}

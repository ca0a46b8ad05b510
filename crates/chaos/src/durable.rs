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
//! [`write_atomic`] writes `.<file name>.<pid>.tmp` beside the target
//! and renames it into place, so a SIGKILL leaves either the old file or
//! the new one under the final name, never a torn one. The pid keeps a
//! resumed process from colliding with its predecessor's debris, which
//! [`sweep_temps`] removes when a store is next opened. Temps are
//! dot-files, so they stay out of plain directory listings. No fsync is
//! issued: surviving a process kill is the contract, not a power cut.
//!
//! The stores that persist records gate each write and each read-back
//! on a named fault site: [`crate::sites::GRAM_CKPT_STORE`] and
//! [`crate::sites::GRAM_CKPT_LOAD`] for the Gram checkpoint,
//! [`crate::sites::SVM_CKPT_STORE`] and [`crate::sites::SVM_CKPT_LOAD`]
//! for the SMO snapshot.

use std::fs;
use std::io;
use std::path::Path;

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
/// directory and a rename, so the final name never holds a torn file.
/// The process id only names the temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )
    })?;
    let tmp = path.with_file_name(format!(
        ".{}.{}.tmp",
        name.to_string_lossy(),
        std::process::id()
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Removes the temp files [`write_atomic`] calls cut short in `dir`
/// (dot-files ending in `.tmp`). Best-effort: an unreadable directory or
/// an undeletable file is left as it is.
pub fn sweep_temps(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') && name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
        }
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

    #[test]
    fn atomic_writes_replace_in_place_and_torn_temps_are_swept() {
        let dir = std::env::temp_dir().join(format!("qk-chaos-durable-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "a temp was left");

        // What a kill between write and rename leaves behind, beside a
        // file that only looks like a temp.
        let torn = dir.join(".record.bin.12345.tmp");
        fs::write(&torn, b"torn").unwrap();
        fs::write(dir.join("keep.tmp"), b"kept").unwrap();
        sweep_temps(&dir);
        assert!(!torn.exists());
        assert!(path.exists() && dir.join("keep.tmp").exists());
        assert!(write_atomic(Path::new("/"), b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}

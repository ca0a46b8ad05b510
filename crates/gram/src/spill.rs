//! Row-band spill of encoded MPS states.
//!
//! At the paper's N = 64,000 the encoded states themselves (not just the
//! Gram matrix) can exceed RAM: keeping every MPS resident is the
//! all-states-resident requirement the engine's memory budget exists to
//! break. Spilling serializes states per row band with [`Mps::to_bytes`]
//! — the same wire format the round-robin distribution strategy ships
//! between processes — consuming the resident `Vec<Mps>` band by band so
//! peak memory never holds both copies. Workers then reload at most two
//! bands at a time (their tile's row and column bands).
//!
//! The byte format round-trips `f64`s exactly, so a spilled run is
//! bitwise identical to a resident run.

use qk_mps::Mps;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Why spilling or reloading states failed.
#[derive(Debug)]
pub enum SpillError {
    /// Filesystem failure underneath the spill directory.
    Io(std::io::Error),
    /// A band file was malformed or a state failed to decode.
    Corrupt {
        /// Band index.
        band: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill I/O error: {e}"),
            SpillError::Corrupt { band, reason } => {
                write!(f, "corrupt spill band {band}: {reason}")
            }
        }
    }
}

impl std::error::Error for SpillError {}

impl From<std::io::Error> for SpillError {
    fn from(e: std::io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// An on-disk store of MPS states, partitioned into row bands.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    band: usize,
    len: usize,
}

impl SpillStore {
    /// Spills `states` into `dir`, one file per `band`-sized row band,
    /// consuming (and freeing) the resident states as it goes.
    pub fn spill(states: Vec<Mps>, dir: &Path, band: usize) -> Result<SpillStore, SpillError> {
        assert!(band >= 1, "band size must be at least 1");
        fs::create_dir_all(dir)?;
        let len = states.len();
        let mut iter = states.into_iter();
        let mut b = 0usize;
        let mut remaining = len;
        while remaining > 0 {
            let take = band.min(remaining);
            let mut buf = Vec::new();
            buf.extend_from_slice(&(take as u64).to_le_bytes());
            // Drain exactly one band from the iterator; each consumed
            // state is dropped (freed) after serialization.
            for _ in 0..take {
                let state = iter.next().expect("band arithmetic");
                let bytes = state.to_bytes();
                buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                buf.extend_from_slice(&bytes);
            }
            let mut f = fs::File::create(dir.join(format!("band_{b}.qks")))?;
            f.write_all(&buf)?;
            remaining -= take;
            b += 1;
        }
        Ok(SpillStore {
            dir: dir.to_path_buf(),
            band,
            len,
        })
    }

    /// Number of states in the store.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the store holds no states.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Loads band `b` back into memory.
    pub fn load_band(&self, b: usize) -> Result<Vec<Mps>, SpillError> {
        let corrupt = |reason: String| SpillError::Corrupt { band: b, reason };
        let mut bytes = Vec::new();
        fs::File::open(self.dir.join(format!("band_{b}.qks")))?.read_to_end(&mut bytes)?;
        if bytes.len() < 8 {
            return Err(corrupt("missing band header".into()));
        }
        let count = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        let expected = self.band.min(self.len.saturating_sub(b * self.band));
        if count != expected {
            return Err(corrupt(format!(
                "band holds {count} states, expected {expected}"
            )));
        }
        let mut pos = 8usize;
        let mut states = Vec::with_capacity(count);
        for s in 0..count {
            if pos + 8 > bytes.len() {
                return Err(corrupt(format!("truncated before state {s}")));
            }
            let n = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()) as usize;
            pos += 8;
            if pos + n > bytes.len() {
                return Err(corrupt(format!("truncated inside state {s}")));
            }
            let state = Mps::try_from_bytes(&bytes[pos..pos + n])
                .map_err(|e| corrupt(format!("state {s}: {e}")))?;
            pos += n;
            states.push(state);
        }
        if pos != bytes.len() {
            return Err(corrupt("trailing bytes after last state".into()));
        }
        Ok(states)
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qk_circuit::Gate;
    use qk_mps::TruncationConfig;
    use qk_tensor::backend::CpuBackend;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "qk-gram-spill-test-{}-{tag}-{id}",
            std::process::id()
        ))
    }

    fn entangled_states(n: usize) -> Vec<Mps> {
        let be = CpuBackend::new();
        let cfg = TruncationConfig::default();
        (0..n)
            .map(|k| {
                let mut mps = Mps::plus_state(4);
                let g = Gate::Rxx(0.3 + 0.17 * k as f64).matrix();
                mps.apply_gate2(&be, &g, 1, &cfg);
                mps.apply_gate2(&be, &g, 2, &cfg);
                mps
            })
            .collect()
    }

    #[test]
    fn spill_and_reload_is_exact() {
        let dir = scratch("exact");
        let states = entangled_states(7);
        let originals = states.clone();
        let store = SpillStore::spill(states, &dir, 3).unwrap();
        assert_eq!(store.len(), 7);
        let mut reloaded = Vec::new();
        for b in 0..3 {
            reloaded.extend(store.load_band(b).unwrap());
        }
        assert_eq!(reloaded.len(), 7);
        for (a, b) in originals.iter().zip(&reloaded) {
            // Site tensors round-trip bitwise, so the inner product of a
            // reloaded state with its original is exactly the norm².
            assert_eq!(a.num_qubits(), b.num_qubits());
            for (sa, sb) in a.sites().iter().zip(b.sites()) {
                assert_eq!(sa.shape(), sb.shape());
                for (x, y) in sa.data().iter().zip(sb.data()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits());
                    assert_eq!(x.im.to_bits(), y.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn short_final_band() {
        let dir = scratch("final");
        let store = SpillStore::spill(entangled_states(5), &dir, 4).unwrap();
        assert_eq!(store.load_band(0).unwrap().len(), 4);
        assert_eq!(store.load_band(1).unwrap().len(), 1);
        assert!(store.load_band(2).is_err());
    }

    #[test]
    fn corrupt_band_is_detected() {
        let dir = scratch("corrupt");
        let store = SpillStore::spill(entangled_states(4), &dir, 2).unwrap();
        let path = dir.join("band_1.qks");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            store.load_band(1),
            Err(SpillError::Corrupt { band: 1, .. })
        ));
        // Band 0 is untouched.
        assert_eq!(store.load_band(0).unwrap().len(), 2);
    }

    #[test]
    fn drop_removes_owned_dir() {
        let dir = scratch("cleanup");
        let store = SpillStore::spill(entangled_states(2), &dir, 2).unwrap();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists());
    }
}

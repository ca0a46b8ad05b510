//! Job fingerprints: a 64-bit digest binding a checkpoint directory to
//! the exact computation that produced it.
//!
//! A resumed run must only ever load tiles that an identical job wrote:
//! same encoding (ansatz + truncation), same matrix shape, same tile
//! size, same job kind. All of that is folded into one FNV-1a digest
//! stored in the manifest and in every tile header; a mismatch rejects
//! the checkpoint outright instead of silently mixing incompatible
//! kernels.

use qk_chaos::durable::fnv1a64;
use qk_circuit::AnsatzConfig;
use qk_mps::TruncationConfig;

/// Digest of the state-preparation encoding: ansatz hyperparameters and
/// truncation policy. Two state sets simulated with equal encodings from
/// equal rows are bitwise identical, so this is the right granularity
/// for checkpoint compatibility.
pub fn encoding_fingerprint(ansatz: &AnsatzConfig, truncation: &TruncationConfig) -> u64 {
    let mut buf = Vec::with_capacity(48);
    buf.extend_from_slice(&(ansatz.layers as u64).to_le_bytes());
    buf.extend_from_slice(&(ansatz.interaction_distance as u64).to_le_bytes());
    buf.extend_from_slice(&ansatz.gamma.to_bits().to_le_bytes());
    buf.extend_from_slice(&truncation.cutoff.to_bits().to_le_bytes());
    // None and Some(cap) must hash differently even when cap is 0.
    match truncation.max_bond {
        None => buf.extend_from_slice(&[0u8; 9]),
        Some(cap) => {
            buf.push(1);
            buf.extend_from_slice(&(cap as u64).to_le_bytes());
        }
    }
    fnv1a64(&buf)
}

/// What a Gram job computes: the symmetric train matrix or a rectangular
/// test-against-train block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Symmetric `n x n` training kernel (upper triangle contracted).
    Train,
    /// Rectangular `rows x cols` inference block.
    Block,
}

impl JobKind {
    pub(crate) fn tag(self) -> u8 {
        match self {
            JobKind::Train => 0,
            JobKind::Block => 1,
        }
    }

    /// Stable lowercase name used in journal events and reports.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Train => "train",
            JobKind::Block => "block",
        }
    }
}

/// The identity of one Gram job, hashed into the checkpoint fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Encoding digest ([`encoding_fingerprint`] or caller-chosen).
    pub encoding: u64,
    /// Job kind.
    pub kind: JobKind,
    /// Matrix rows (`n` for [`JobKind::Train`], test count for blocks).
    pub rows: usize,
    /// Matrix columns (`n` for [`JobKind::Train`], train count for blocks).
    pub cols: usize,
    /// Tile edge length.
    pub tile: usize,
}

impl JobSpec {
    /// The job fingerprint stored in the manifest and every tile header.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = [0u8; 41];
        buf[..8].copy_from_slice(&self.encoding.to_le_bytes());
        buf[8] = self.kind.tag();
        buf[9..17].copy_from_slice(&(self.rows as u64).to_le_bytes());
        buf[17..25].copy_from_slice(&(self.cols as u64).to_le_bytes());
        buf[25..33].copy_from_slice(&(self.tile as u64).to_le_bytes());
        // Format/kernel version: bump to invalidate old checkpoints
        // wholesale whenever the bits of a Gram entry can change.
        // Restoring tiles an older binary wrote next to freshly computed
        // ones would silently break the engine's bitwise-identical-to-
        // clean-run guarantee, so such checkpoints must recompute instead.
        // v2 = the blocked zipper inner-product kernel, whose floating-
        // point operation order differs from v1's contract-based path by
        // ~1e-12. v3 = the simulated states themselves changed bits,
        // twice: the truncation SVD now converges and pivots its columns,
        // and every d > 1 circuit is routed as one fused sweep per qubit
        // instead of gate-by-gate SWAP conjugation (the same state to
        // ~1e-15, not bitwise). v4 = d = 1 states apply each RXX by its
        // exact rank-2 split and compress once per XX block instead of
        // one SVD per gate (the same bonds, amplitudes moved by ~1e-13).
        buf[33..41].copy_from_slice(&4u64.to_le_bytes());
        fnv1a64(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn encoding_fingerprint_separates_configs() {
        let a = AnsatzConfig::new(2, 1, 0.1);
        let t = TruncationConfig::default();
        let base = encoding_fingerprint(&a, &t);
        assert_eq!(base, encoding_fingerprint(&a, &t));
        assert_ne!(
            base,
            encoding_fingerprint(&AnsatzConfig::new(3, 1, 0.1), &t)
        );
        assert_ne!(
            base,
            encoding_fingerprint(&AnsatzConfig::new(2, 2, 0.1), &t)
        );
        assert_ne!(
            base,
            encoding_fingerprint(&AnsatzConfig::new(2, 1, 0.2), &t)
        );
        assert_ne!(
            base,
            encoding_fingerprint(&a, &TruncationConfig::with_cutoff(1e-8))
        );
        assert_ne!(
            base,
            encoding_fingerprint(&a, &TruncationConfig::capped(1e-16, 0))
        );
    }

    #[test]
    fn job_fingerprint_separates_jobs() {
        let spec = JobSpec {
            encoding: 7,
            kind: JobKind::Train,
            rows: 100,
            cols: 100,
            tile: 32,
        };
        let base = spec.fingerprint();
        assert_eq!(base, spec.fingerprint());
        assert_ne!(
            base,
            JobSpec {
                encoding: 8,
                ..spec
            }
            .fingerprint()
        );
        assert_ne!(base, JobSpec { tile: 16, ..spec }.fingerprint());
        assert_ne!(base, JobSpec { rows: 99, ..spec }.fingerprint());
        assert_ne!(
            base,
            JobSpec {
                kind: JobKind::Block,
                ..spec
            }
            .fingerprint()
        );
    }
}

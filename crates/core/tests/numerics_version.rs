//! Numerics-version guard: the simulated-state and Gram-entry bits are
//! tied to the kernel version baked into `JobSpec::fingerprint`.
//!
//! A resumed Gram job trusts checkpointed tiles only when their job
//! fingerprint matches, so any change that moves a state bit must also
//! bump the version inside `fingerprint()`. This test hashes a fixed probe
//! set (one d = 1 state, one d = 3 state and a small Gram tile) and pairs
//! it with the fingerprint of a fixed spec. When the probe hash changes:
//! bump the version in `JobSpec::fingerprint`, then append the new
//! `(fingerprint, probe hash)` pair to [`VERSIONS`]. Keep old rows.

use qk_circuit::{feature_map_circuit, AnsatzConfig, Circuit, Gate};
use qk_core::gram::gram_matrix;
use qk_core::states::simulate_states;
use qk_gram::{encoding_fingerprint, fnv1a64, JobKind, JobSpec};
use qk_mps::{MpsSimulator, TruncationConfig};
use qk_tensor::backend::CpuBackend;

/// `(JobSpec::fingerprint() of the probe spec, probe hash)`, oldest first.
const VERSIONS: &[(u64, u64)] = &[
    // v3: converging, pivoted truncation SVD and fused-sweep d > 1 routing.
    (0x7cb1_0b07_31ec_1edf, 0x2733_9768_d9db_cf9b),
    // v4: d = 1 states by exact RXX splits, compressed once per XX block.
    (0xa3d5_99c7_e561_17f8, 0x3c54_1daf_1ffb_ed9c),
];

/// `to_bytes()` hashes of states only the per-gate path builds (a routed
/// d = 3 state, a bond-capped d = 1 state and a CX/SWAP circuit state),
/// recorded before d = 1 states moved to the exact split path. The v4
/// change must leave every one of them bit for bit.
const PER_GATE_PINS: [(&str, u64); 3] = [
    ("d = 3", 0x25cd_d711_30d1_31aa),
    ("capped d = 1", 0x00cd_1c8f_26e7_6dbc),
    ("CX / SWAP", 0x6f32_eb25_f5e2_0497),
];

fn probe_rows(n: usize, m: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..m)
                .map(|j| ((i * m + j) % 11) as f64 * 0.17 + 0.05)
                .collect()
        })
        .collect()
}

/// `(fingerprint, probe hash)` as the current build computes them.
fn current() -> (u64, u64) {
    let be = CpuBackend::new();
    let truncation = TruncationConfig::paper_default();
    let d1 = AnsatzConfig::new(2, 1, 0.5);
    let d3 = AnsatzConfig::new(2, 3, 1.0);
    let rows = probe_rows(3, 10);

    let shallow = simulate_states(&rows[..1], &d1, &be, &truncation).states;
    let deep = simulate_states(&rows, &d3, &be, &truncation).states;
    let tile = gram_matrix(&deep, &be).kernel;

    let mut bytes = shallow[0].to_bytes();
    bytes.extend_from_slice(&deep[0].to_bytes());
    for v in tile.data() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let spec = JobSpec {
        encoding: encoding_fingerprint(&d3, &truncation),
        kind: JobKind::Train,
        rows: rows.len(),
        cols: rows.len(),
        tile: rows.len(),
    };
    (spec.fingerprint(), fnv1a64(&bytes))
}

#[test]
fn state_bits_match_the_fingerprint_version() {
    let (fingerprint, probe) = current();
    assert_eq!(
        VERSIONS.last(),
        Some(&(fingerprint, probe)),
        "current (fingerprint, probe hash) = ({fingerprint:#018x}, {probe:#018x}): \
         if the probe hash moved, bump the version in JobSpec::fingerprint and \
         append the new pair to VERSIONS"
    );
}

#[test]
fn every_version_has_its_own_fingerprint() {
    for (i, (a, _)) in VERSIONS.iter().enumerate() {
        for (b, _) in &VERSIONS[i + 1..] {
            assert_ne!(a, b, "two VERSIONS rows share fingerprint {a:#018x}");
        }
    }
}

#[test]
fn per_gate_path_states_keep_their_bits() {
    let be = CpuBackend::new();
    let sim = MpsSimulator::new(&be);
    let row = &probe_rows(1, 10)[0];
    let d3 = sim.simulate(&feature_map_circuit(row, &AnsatzConfig::new(2, 3, 1.0)));
    let capped = MpsSimulator::new(&be)
        .with_truncation(TruncationConfig::capped(1e-16, 3))
        .simulate(&feature_map_circuit(row, &AnsatzConfig::new(2, 1, 0.5)));
    let mut c = Circuit::new(6);
    for q in 0..6 {
        c.push1(Gate::Ry(0.4 + 0.15 * q as f64), q);
    }
    for q in 0..5 {
        c.push1(Gate::Rz(0.3 + 0.2 * q as f64), q)
            .push2(Gate::Cx, q, q + 1);
    }
    c.push2(Gate::Swap, 1, 4)
        .push2(Gate::Rxx(0.9), 0, 5)
        .push2(Gate::Cx, 3, 2);
    let cx = sim.simulate(&c);
    for ((name, pin), (state, _)) in PER_GATE_PINS.iter().zip([d3, capped, cx]) {
        let hash = fnv1a64(&state.to_bytes());
        assert_eq!(hash, *pin, "{name} state bits moved: {hash:#018x}");
    }
}

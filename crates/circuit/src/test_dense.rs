//! Minimal dense simulator for in-crate equivalence tests.
//!
//! `qk-statevector` depends on this crate, so inside the `cfg(test)`
//! build of the library its `Circuit` is a second instance of
//! `qk-circuit` with incompatible types (the integration tests under
//! `tests/` link one instance only and do use it). The handful of lines
//! below is the price for the unit tests; the full-featured ground-truth
//! simulator lives in `qk-statevector`.

use crate::circuit::Circuit;
use qk_tensor::complex::Complex64;

/// Applies `circuit` to `|0...0>` and returns the dense amplitude vector
/// (qubit 0 is the most significant bit, matching `qk-statevector`).
pub(crate) fn simulate_dense(circuit: &Circuit) -> Vec<Complex64> {
    let m = circuit.num_qubits();
    assert!(m <= 16, "test helper caps at 16 qubits");
    let dim = 1usize << m;
    let mut amps = vec![Complex64::ZERO; dim];
    amps[0] = Complex64::ONE;
    for op in circuit.ops() {
        let u = op.gate.matrix();
        let ud = u.data();
        match op.qubits.as_slice() {
            [q] => {
                let shift = m - 1 - q;
                for idx in 0..dim {
                    if (idx >> shift) & 1 == 0 {
                        let j = idx | (1 << shift);
                        let (a0, a1) = (amps[idx], amps[j]);
                        amps[idx] = ud[0] * a0 + ud[1] * a1;
                        amps[j] = ud[2] * a0 + ud[3] * a1;
                    }
                }
            }
            [a, b] => {
                let (sa, sb) = (m - 1 - a, m - 1 - b);
                for idx in 0..dim {
                    if (idx >> sa) & 1 == 0 && (idx >> sb) & 1 == 0 {
                        let i00 = idx;
                        let i01 = idx | (1 << sb);
                        let i10 = idx | (1 << sa);
                        let i11 = idx | (1 << sa) | (1 << sb);
                        let v = [amps[i00], amps[i01], amps[i10], amps[i11]];
                        for (r, &target) in [i00, i01, i10, i11].iter().enumerate() {
                            let mut acc = Complex64::ZERO;
                            for (c, &vc) in v.iter().enumerate() {
                                acc += ud[r * 4 + c] * vc;
                            }
                            amps[target] = acc;
                        }
                    }
                }
            }
            _ => unreachable!(),
        }
    }
    amps
}

//! Full-unitary extraction and circuit equivalence checking.
//!
//! Used by the test suites to *prove* that TetrisLock's obfuscation and
//! de-obfuscation preserve functionality: `recombine(split(obfuscate(C)))`
//! must implement the same unitary as `C` (up to global phase and, after
//! routing, up to a known output permutation).

use crate::error::SimError;
use crate::matrix::Matrix;
use crate::statevector::Statevector;
use qcir::Circuit;

/// Maximum register size for dense unitary extraction.
///
/// A 12-qubit unitary is `2¹² × 2¹²` complex entries ≈ 256 MiB and
/// `O(4ⁿ·gates)` time to extract — the hard ceiling of the dense path.
/// Oversized registers fail fast with a typed
/// [`SimError::TooManyQubits`] *before* any allocation. The `qverify`
/// crate re-exports this constant and uses it to route larger circuits
/// onto its stabilizer-tableau and random-stimulus tiers.
pub const MAX_UNITARY_QUBITS: u32 = 12;

/// Computes the full `2ⁿ × 2ⁿ` unitary implemented by `circuit` by applying
/// it to every basis state (columns of the matrix).
///
/// # Errors
///
/// Returns [`SimError::TooManyQubits`] if the register exceeds
/// [`MAX_UNITARY_QUBITS`].
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qsim::unitary::circuit_unitary;
///
/// let mut c = Circuit::new(1);
/// c.h(0).h(0);
/// let u = circuit_unitary(&c)?;
/// assert!(u.approx_eq(&qsim::matrix::Matrix::identity(2), 1e-12));
/// # Ok::<(), qsim::SimError>(())
/// ```
pub fn circuit_unitary(circuit: &Circuit) -> Result<Matrix, SimError> {
    let n = circuit.num_qubits();
    if n > MAX_UNITARY_QUBITS {
        return Err(SimError::TooManyQubits {
            requested: n,
            max: MAX_UNITARY_QUBITS,
        });
    }
    let dim = 1usize << n;
    let mut u = Matrix::zeros(dim);
    for col in 0..dim {
        let mut sv = Statevector::basis(n, col)?;
        sv.apply_circuit(circuit)?;
        for (row, amp) in sv.amplitudes().iter().enumerate() {
            u.set(row, col, *amp);
        }
    }
    Ok(u)
}

/// `true` if the two circuits implement the same unitary up to global
/// phase.
///
/// # Errors
///
/// Propagates extraction failures (register too large or mismatched).
pub fn equivalent_up_to_phase(a: &Circuit, b: &Circuit, eps: f64) -> Result<bool, SimError> {
    if a.num_qubits() != b.num_qubits() {
        return Ok(false);
    }
    let ua = circuit_unitary(a)?;
    let ub = circuit_unitary(b)?;
    Ok(ua.approx_eq_up_to_phase(&ub, eps))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn identity_circuit_gives_identity_unitary() {
        let c = Circuit::new(2);
        let u = circuit_unitary(&c).unwrap();
        assert!(u.approx_eq(&Matrix::identity(4), EPS));
    }

    #[test]
    fn hh_is_identity() {
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        assert!(equivalent_up_to_phase(&c, &Circuit::new(1), EPS).unwrap());
    }

    #[test]
    fn inverse_composition_is_identity() {
        let mut c = Circuit::new(3);
        c.h(0).t(1).ccx(0, 1, 2).rz(0.7, 0).cx(1, 2).s(0);
        let composed = c.then(&c.inverse()).unwrap();
        assert!(equivalent_up_to_phase(&composed, &Circuit::new(3), EPS).unwrap());
    }

    #[test]
    fn different_circuits_not_equivalent() {
        let mut a = Circuit::new(1);
        a.x(0);
        let mut b = Circuit::new(1);
        b.z(0);
        assert!(!equivalent_up_to_phase(&a, &b, EPS).unwrap());
    }

    #[test]
    fn rz_p_equivalent_up_to_phase() {
        let mut a = Circuit::new(1);
        a.rz(0.9, 0);
        let mut b = Circuit::new(1);
        b.p(0.9, 0);
        assert!(equivalent_up_to_phase(&a, &b, EPS).unwrap());
    }

    #[test]
    fn mismatched_sizes_not_equivalent() {
        let a = Circuit::new(1);
        let b = Circuit::new(2);
        assert!(!equivalent_up_to_phase(&a, &b, EPS).unwrap());
    }

    #[test]
    fn oversized_register_rejected() {
        let c = Circuit::new(MAX_UNITARY_QUBITS + 1);
        assert!(circuit_unitary(&c).is_err());
    }

    #[test]
    fn swap_unitary_is_permutation() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        let u = circuit_unitary(&c).unwrap();
        // |01> (index 1) ↔ |10> (index 2)
        assert!((u.get(2, 1).re - 1.0).abs() < EPS);
        assert!((u.get(1, 2).re - 1.0).abs() < EPS);
    }
}

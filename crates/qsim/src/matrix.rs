//! Gate matrices.
//!
//! Maps every [`Gate`] to its unitary matrix over its operand qubits, in the
//! little-endian qubit convention used throughout the workspace (operand
//! order `[q0, q1]` means `q0` is the *least*-significant index bit of the
//! matrix).

use crate::complex::C64;
use qcir::Gate;
use std::f64::consts::FRAC_1_SQRT_2;

/// A dense square complex matrix (row-major).
///
/// # Example
///
/// ```
/// use qsim::matrix::Matrix;
/// use qsim::complex::C64;
///
/// let x = Matrix::from_rows(&[
///     &[C64::ZERO, C64::ONE],
///     &[C64::ONE, C64::ZERO],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert_eq!(x.mul(&x), Matrix::identity(2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    dim: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Creates a zero matrix of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        Matrix {
            dim,
            data: vec![C64::ZERO; dim * dim],
        }
    }

    /// Creates the identity matrix of the given dimension.
    pub fn identity(dim: usize) -> Self {
        let mut m = Matrix::zeros(dim);
        for i in 0..dim {
            m.set(i, i, C64::ONE);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are not all of length `rows.len()`.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        let dim = rows.len();
        let mut m = Matrix::zeros(dim);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), dim, "matrix rows must be square");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Matrix dimension (row count).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entry at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> C64 {
        self.data[row * self.dim + col]
    }

    /// Sets entry `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, value: C64) {
        self.data[row * self.dim + col] = value;
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.dim, rhs.dim, "dimension mismatch");
        let mut out = Matrix::zeros(self.dim);
        for i in 0..self.dim {
            for k in 0..self.dim {
                let a = self.get(i, k);
                if a == C64::ZERO {
                    continue;
                }
                for j in 0..self.dim {
                    let v = out.get(i, j) + a * rhs.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> Matrix {
        let mut out = Matrix::zeros(self.dim);
        for i in 0..self.dim {
            for j in 0..self.dim {
                out.set(j, i, self.get(i, j).conj());
            }
        }
        out
    }

    /// `true` if `U·U† = I` within `eps` per entry.
    pub fn is_unitary(&self, eps: f64) -> bool {
        let product = self.mul(&self.dagger());
        let identity = Matrix::identity(self.dim);
        product.approx_eq(&identity, eps)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &Matrix, eps: f64) -> bool {
        self.dim == other.dim
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, eps))
    }

    /// Approximate equality up to a global phase: finds the first
    /// significant entry and compares after phase alignment.
    pub fn approx_eq_up_to_phase(&self, other: &Matrix, eps: f64) -> bool {
        if self.dim != other.dim {
            return false;
        }
        let pivot = self
            .data
            .iter()
            .zip(&other.data)
            .find(|(a, b)| a.abs() > 1e-9 && b.abs() > 1e-9);
        let phase = match pivot {
            Some((a, b)) => *b / *a,
            None => return self.approx_eq(other, eps),
        };
        self.data
            .iter()
            .zip(&other.data)
            .all(|(a, b)| (*a * phase).approx_eq(*b, eps))
    }
}

/// Returns the unitary matrix of `gate` over its operand qubits.
///
/// For an n-operand gate the result is `2ⁿ × 2ⁿ`; basis index bit `k`
/// corresponds to operand `k` (little-endian: operand 0 is the least
/// significant bit).
///
/// # Example
///
/// ```
/// use qcir::Gate;
/// use qsim::matrix::gate_matrix;
///
/// let h = gate_matrix(&Gate::H);
/// assert!(h.is_unitary(1e-12));
/// let ccx = gate_matrix(&Gate::CCX);
/// assert_eq!(ccx.dim(), 8);
/// ```
pub fn gate_matrix(gate: &Gate) -> Matrix {
    if let Some([row0, row1]) = single_qubit_matrix(gate) {
        return Matrix::from_rows(&[&row0, &row1]);
    }
    match gate {
        Gate::CX => controlled(&gate_matrix(&Gate::X)),
        Gate::CY => controlled(&gate_matrix(&Gate::Y)),
        Gate::CZ => controlled(&gate_matrix(&Gate::Z)),
        Gate::CH => controlled(&gate_matrix(&Gate::H)),
        Gate::CP(a) => controlled(&gate_matrix(&Gate::P(*a))),
        Gate::CRz(a) => controlled(&gate_matrix(&Gate::Rz(*a))),
        Gate::Swap => {
            let mut m = Matrix::zeros(4);
            m.set(0, 0, C64::ONE);
            m.set(1, 2, C64::ONE);
            m.set(2, 1, C64::ONE);
            m.set(3, 3, C64::ONE);
            m
        }
        Gate::CCX => {
            // Controls are operands 0 and 1 (bits 0 and 1), target bit 2.
            let mut m = Matrix::identity(8);
            m.set(3, 3, C64::ZERO);
            m.set(7, 7, C64::ZERO);
            m.set(3, 7, C64::ONE);
            m.set(7, 3, C64::ONE);
            m
        }
        Gate::CSwap => {
            // Control is bit 0, swapped wires are bits 1 and 2.
            let mut m = Matrix::identity(8);
            // With control set (bit0 = 1): swap bits 1 and 2 → basis 3 (011) ↔ 5 (101).
            m.set(3, 3, C64::ZERO);
            m.set(5, 5, C64::ZERO);
            m.set(3, 5, C64::ONE);
            m.set(5, 3, C64::ONE);
            m
        }
        Gate::Mcx(controls) => {
            let n = *controls as usize + 1;
            let dim = 1usize << n;
            let mut m = Matrix::identity(dim);
            // Controls are bits 0..n-1, target is the most significant bit.
            let control_mask = (1usize << (n - 1)) - 1;
            let a = control_mask; // controls set, target 0
            let b = control_mask | (1 << (n - 1)); // controls set, target 1
            m.set(a, a, C64::ZERO);
            m.set(b, b, C64::ZERO);
            m.set(a, b, C64::ONE);
            m.set(b, a, C64::ONE);
            m
        }
        single => unreachable!("{single} has a 2×2 matrix"),
    }
}

/// The row-major 2×2 matrix of a single-qubit gate, `None` for a
/// multi-qubit one. It needs no heap [`Matrix`], so the sparse column
/// lowering reads it per gate; [`gate_matrix`] builds its single-qubit
/// matrices from these same entries.
pub(crate) fn single_qubit_matrix(gate: &Gate) -> Option<[[C64; 2]; 2]> {
    let h = C64::real(FRAC_1_SQRT_2);
    Some(match gate {
        Gate::I => [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]],
        Gate::X => [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]],
        Gate::Y => [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]],
        Gate::Z => [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]],
        Gate::H => [[h, h], [h, -h]],
        Gate::S => [[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]],
        Gate::Sdg => [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::I]],
        Gate::T => [
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::cis(std::f64::consts::FRAC_PI_4)],
        ],
        Gate::Tdg => [
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::cis(-std::f64::consts::FRAC_PI_4)],
        ],
        Gate::Sx => {
            let p = C64::new(0.5, 0.5);
            let m = C64::new(0.5, -0.5);
            [[p, m], [m, p]]
        }
        Gate::Sxdg => {
            let p = C64::new(0.5, 0.5);
            let m = C64::new(0.5, -0.5);
            [[m, p], [p, m]]
        }
        Gate::Rx(a) => {
            let c = C64::real((a / 2.0).cos());
            let s = C64::new(0.0, -(a / 2.0).sin());
            [[c, s], [s, c]]
        }
        Gate::Ry(a) => {
            let c = C64::real((a / 2.0).cos());
            let s = (a / 2.0).sin();
            [[c, C64::real(-s)], [C64::real(s), c]]
        }
        Gate::Rz(a) => [
            [C64::cis(-a / 2.0), C64::ZERO],
            [C64::ZERO, C64::cis(a / 2.0)],
        ],
        Gate::P(a) => [[C64::ONE, C64::ZERO], [C64::ZERO, C64::cis(*a)]],
        Gate::U(theta, phi, lambda) => {
            let c = (theta / 2.0).cos();
            let s = (theta / 2.0).sin();
            [
                [C64::real(c), C64::cis(*lambda).scale(-s)],
                [C64::cis(*phi).scale(s), C64::cis(phi + lambda).scale(c)],
            ]
        }
        Gate::CX
        | Gate::CY
        | Gate::CZ
        | Gate::CH
        | Gate::CP(_)
        | Gate::CRz(_)
        | Gate::Swap
        | Gate::CCX
        | Gate::CSwap
        | Gate::Mcx(_) => return None,
    })
}

/// Builds the controlled version of a single-qubit matrix with the control
/// on bit 0 and the payload on bit 1 (little-endian: basis `b1 b0`).
fn controlled(u: &Matrix) -> Matrix {
    assert_eq!(u.dim(), 2);
    let mut m = Matrix::identity(4);
    // Rows/cols where control bit (bit 0) is 1: indices 1 (target 0) and 3
    // (target 1).
    m.set(1, 1, u.get(0, 0));
    m.set(1, 3, u.get(0, 1));
    m.set(3, 1, u.get(1, 0));
    m.set(3, 3, u.get(1, 1));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Gate;

    const EPS: f64 = 1e-12;

    fn all_gates() -> Vec<Gate> {
        vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rx(0.37),
            Gate::Ry(-1.1),
            Gate::Rz(2.2),
            Gate::P(0.7),
            Gate::U(0.3, 0.5, -0.7),
            Gate::CX,
            Gate::CY,
            Gate::CZ,
            Gate::CH,
            Gate::CP(0.4),
            Gate::CRz(-0.6),
            Gate::Swap,
            Gate::CCX,
            Gate::CSwap,
            Gate::Mcx(3),
            Gate::Mcx(4),
        ]
    }

    #[test]
    fn every_gate_matrix_is_unitary() {
        for g in all_gates() {
            let m = gate_matrix(&g);
            assert!(m.is_unitary(EPS), "{g} is not unitary");
            assert_eq!(m.dim(), 1 << g.arity(), "{g} has wrong dimension");
        }
    }

    #[test]
    fn adjoint_matrix_matches_dagger() {
        for g in all_gates() {
            let m = gate_matrix(&g);
            let adj = gate_matrix(&g.adjoint());
            assert!(adj.approx_eq(&m.dagger(), EPS), "adjoint mismatch for {g}");
        }
    }

    #[test]
    fn self_inverse_gates_square_to_identity() {
        for g in all_gates().into_iter().filter(|g| g.is_self_inverse()) {
            let m = gate_matrix(&g);
            assert!(
                m.mul(&m).approx_eq(&Matrix::identity(m.dim()), EPS),
                "{g}² ≠ I"
            );
        }
    }

    #[test]
    fn sx_squares_to_x() {
        let sx = gate_matrix(&Gate::Sx);
        let x = gate_matrix(&Gate::X);
        assert!(sx.mul(&sx).approx_eq_up_to_phase(&x, EPS));
    }

    #[test]
    fn hzh_equals_x() {
        let h = gate_matrix(&Gate::H);
        let z = gate_matrix(&Gate::Z);
        let x = gate_matrix(&Gate::X);
        assert!(h.mul(&z).mul(&h).approx_eq(&x, EPS));
    }

    #[test]
    fn s_is_t_squared() {
        let t = gate_matrix(&Gate::T);
        let s = gate_matrix(&Gate::S);
        assert!(t.mul(&t).approx_eq(&s, EPS));
    }

    #[test]
    fn rz_equals_p_up_to_phase() {
        let rz = gate_matrix(&Gate::Rz(0.8));
        let p = gate_matrix(&Gate::P(0.8));
        assert!(rz.approx_eq_up_to_phase(&p, EPS));
        assert!(!rz.approx_eq(&p, EPS));
    }

    #[test]
    fn u_covers_standard_gates() {
        use std::f64::consts::{FRAC_PI_2, PI};
        // U(π/2, 0, π) = H
        let u = gate_matrix(&Gate::U(FRAC_PI_2, 0.0, PI));
        assert!(u.approx_eq(&gate_matrix(&Gate::H), EPS));
        // U(π, 0, π) = X
        let u = gate_matrix(&Gate::U(PI, 0.0, PI));
        assert!(u.approx_eq(&gate_matrix(&Gate::X), EPS));
    }

    #[test]
    fn cx_truth_table() {
        // little-endian: operand0 = control = bit0.
        let cx = gate_matrix(&Gate::CX);
        // |control=1, target=0> = index 1 → |11> = index 3.
        assert_eq!(cx.get(3, 1), C64::ONE);
        assert_eq!(cx.get(1, 3), C64::ONE);
        // |00> and |10>(target=1,control=0 → index 2) fixed.
        assert_eq!(cx.get(0, 0), C64::ONE);
        assert_eq!(cx.get(2, 2), C64::ONE);
    }

    #[test]
    fn mcx2_matches_ccx() {
        let ccx = gate_matrix(&Gate::CCX);
        let mcx = gate_matrix(&Gate::Mcx(2));
        assert!(ccx.approx_eq(&mcx, EPS));
    }

    #[test]
    fn phase_equality_detects_difference() {
        let x = gate_matrix(&Gate::X);
        let z = gate_matrix(&Gate::Z);
        assert!(!x.approx_eq_up_to_phase(&z, EPS));
    }
}

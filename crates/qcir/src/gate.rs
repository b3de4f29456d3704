//! The gate set.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Machine-epsilon-scale tolerance used when comparing gate angles.
pub const ANGLE_EPS: f64 = 1e-12;

/// A quantum gate, identified by kind and (for rotations) angle parameters.
///
/// The arity of a gate (how many qubit operands it takes) is fixed per
/// variant except for [`Gate::Mcx`], whose arity is `controls + 1`.
/// Operand order conventions:
///
/// * controlled gates list controls first, target last (`CX = [control,
///   target]`, `CCX = [c0, c1, target]`, `MCX = [c0.., target]`);
/// * [`Gate::Swap`] is symmetric in its two operands;
/// * [`Gate::CSwap`] is `[control, a, b]`.
///
/// # Example
///
/// ```
/// use qcir::Gate;
///
/// assert_eq!(Gate::S.adjoint(), Gate::Sdg);
/// assert_eq!(Gate::CX.adjoint(), Gate::CX); // self-inverse
/// assert_eq!(Gate::Rz(0.5).adjoint(), Gate::Rz(-0.5));
/// assert_eq!(Gate::CCX.arity(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    /// Identity (explicit idle marker; rarely stored).
    I,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// Adjoint of S.
    Sdg,
    /// T gate = diag(1, e^{iπ/4}).
    T,
    /// Adjoint of T.
    Tdg,
    /// Square root of X.
    Sx,
    /// Adjoint of √X.
    Sxdg,
    /// Rotation about the X axis by the given angle (radians).
    Rx(f64),
    /// Rotation about the Y axis by the given angle (radians).
    Ry(f64),
    /// Rotation about the Z axis by the given angle (radians).
    Rz(f64),
    /// Phase gate diag(1, e^{iλ}).
    P(f64),
    /// Generic single-qubit gate U(θ, φ, λ) in the OpenQASM 2 convention.
    U(f64, f64, f64),
    /// Controlled-X.
    CX,
    /// Controlled-Y.
    CY,
    /// Controlled-Z.
    CZ,
    /// Controlled-Hadamard.
    CH,
    /// Controlled phase diag(1,1,1,e^{iλ}).
    CP(f64),
    /// Controlled Rz.
    CRz(f64),
    /// Swap.
    Swap,
    /// Toffoli (CCX).
    CCX,
    /// Fredkin (controlled swap); operands `[control, a, b]`.
    CSwap,
    /// Multi-controlled X with the given number of controls (≥ 1).
    ///
    /// `Mcx(1)` is equivalent to [`Gate::CX`] and `Mcx(2)` to [`Gate::CCX`];
    /// the dedicated variants are preferred by the builder for those arities.
    Mcx(u32),
}

impl Gate {
    /// Number of qubit operands this gate acts on.
    pub fn arity(&self) -> usize {
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Sx
            | Gate::Sxdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::P(_)
            | Gate::U(..) => 1,
            Gate::CX | Gate::CY | Gate::CZ | Gate::CH | Gate::CP(_) | Gate::CRz(_) | Gate::Swap => {
                2
            }
            Gate::CCX | Gate::CSwap => 3,
            Gate::Mcx(controls) => *controls as usize + 1,
        }
    }

    /// Number of control qubits (leading operands that condition the gate).
    pub fn num_controls(&self) -> usize {
        match self {
            Gate::CX | Gate::CY | Gate::CZ | Gate::CH | Gate::CP(_) | Gate::CRz(_) => 1,
            Gate::CCX => 2,
            Gate::CSwap => 1,
            Gate::Mcx(controls) => *controls as usize,
            _ => 0,
        }
    }

    /// Returns the adjoint (conjugate transpose) of this gate.
    ///
    /// Self-inverse gates return themselves; parametric gates negate their
    /// angles. Together with reversing instruction order this realizes the
    /// circuit-inversion property the paper relies on (`(AB)† = B†A†`).
    pub fn adjoint(&self) -> Gate {
        match self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Sx => Gate::Sxdg,
            Gate::Sxdg => Gate::Sx,
            Gate::Rx(a) => Gate::Rx(-a),
            Gate::Ry(a) => Gate::Ry(-a),
            Gate::Rz(a) => Gate::Rz(-a),
            Gate::P(a) => Gate::P(-a),
            Gate::U(theta, phi, lambda) => Gate::U(-theta, -lambda, -phi),
            Gate::CP(a) => Gate::CP(-a),
            Gate::CRz(a) => Gate::CRz(-a),
            other => other.clone(),
        }
    }

    /// `true` if the gate is its own inverse (G·G = I).
    pub fn is_self_inverse(&self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::X
                | Gate::Y
                | Gate::Z
                | Gate::H
                | Gate::CX
                | Gate::CY
                | Gate::CZ
                | Gate::CH
                | Gate::Swap
                | Gate::CCX
                | Gate::CSwap
                | Gate::Mcx(_)
        )
    }

    /// `true` if the gate is diagonal in the computational basis.
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz(_)
                | Gate::P(_)
                | Gate::CZ
                | Gate::CP(_)
                | Gate::CRz(_)
        )
    }

    /// `true` for gates whose action permutes computational basis states
    /// (classical reversible gates: X, CX, CCX, MCX, SWAP, CSWAP).
    pub fn is_classical(&self) -> bool {
        matches!(
            self,
            Gate::I | Gate::X | Gate::CX | Gate::Swap | Gate::CCX | Gate::CSwap | Gate::Mcx(_)
        )
    }

    /// Canonical lowercase mnemonic (matches the OpenQASM 2 name where one
    /// exists).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Sx => "sx",
            Gate::Sxdg => "sxdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::P(_) => "p",
            Gate::U(..) => "u",
            Gate::CX => "cx",
            Gate::CY => "cy",
            Gate::CZ => "cz",
            Gate::CH => "ch",
            Gate::CP(_) => "cp",
            Gate::CRz(_) => "crz",
            Gate::Swap => "swap",
            Gate::CCX => "ccx",
            Gate::CSwap => "cswap",
            Gate::Mcx(_) => "mcx",
        }
    }

    /// Structural equality with angle tolerance [`ANGLE_EPS`].
    ///
    /// Plain `==` on [`Gate`] compares `f64` angles exactly; this helper is
    /// what the optimizer and the tests use after angle arithmetic.
    pub fn approx_eq(&self, other: &Gate) -> bool {
        fn close(a: f64, b: f64) -> bool {
            (a - b).abs() < ANGLE_EPS
        }
        match (self, other) {
            (Gate::Rx(a), Gate::Rx(b))
            | (Gate::Ry(a), Gate::Ry(b))
            | (Gate::Rz(a), Gate::Rz(b))
            | (Gate::P(a), Gate::P(b))
            | (Gate::CP(a), Gate::CP(b))
            | (Gate::CRz(a), Gate::CRz(b)) => close(*a, *b),
            (Gate::U(t1, p1, l1), Gate::U(t2, p2, l2)) => {
                close(*t1, *t2) && close(*p1, *p2) && close(*l1, *l2)
            }
            (a, b) => a == b,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) | Gate::P(a) | Gate::CP(a) | Gate::CRz(a) => {
                write!(f, "{}({:.6})", self.name(), a)
            }
            Gate::U(t, p, l) => write!(f, "u({t:.6},{p:.6},{l:.6})"),
            Gate::Mcx(c) => write!(f, "mcx{c}"),
            _ => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_variant() {
        assert_eq!(Gate::X.arity(), 1);
        assert_eq!(Gate::U(0.1, 0.2, 0.3).arity(), 1);
        assert_eq!(Gate::CX.arity(), 2);
        assert_eq!(Gate::Swap.arity(), 2);
        assert_eq!(Gate::CCX.arity(), 3);
        assert_eq!(Gate::CSwap.arity(), 3);
        assert_eq!(Gate::Mcx(4).arity(), 5);
    }

    #[test]
    fn adjoint_involution() {
        let gates = [
            Gate::X,
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::Rx(0.7),
            Gate::Rz(-1.2),
            Gate::P(0.3),
            Gate::U(0.1, 0.2, 0.3),
            Gate::CX,
            Gate::CP(0.4),
            Gate::CCX,
            Gate::Mcx(3),
        ];
        for g in gates {
            assert!(
                g.adjoint().adjoint().approx_eq(&g),
                "adjoint not involutive for {g}"
            );
        }
    }

    #[test]
    fn self_inverse_gates_have_identity_adjoint() {
        for g in [
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::CX,
            Gate::CCX,
            Gate::Swap,
        ] {
            assert!(g.is_self_inverse());
            assert_eq!(g.adjoint(), g);
        }
        assert!(!Gate::S.is_self_inverse());
        assert!(!Gate::Rz(0.1).is_self_inverse());
    }

    #[test]
    fn u_adjoint_swaps_phi_lambda() {
        assert_eq!(Gate::U(0.1, 0.2, 0.3).adjoint(), Gate::U(-0.1, -0.3, -0.2));
    }

    #[test]
    fn controls_counted() {
        assert_eq!(Gate::X.num_controls(), 0);
        assert_eq!(Gate::CX.num_controls(), 1);
        assert_eq!(Gate::CCX.num_controls(), 2);
        assert_eq!(Gate::Mcx(5).num_controls(), 5);
        assert_eq!(Gate::CSwap.num_controls(), 1);
    }

    #[test]
    fn classical_gate_classification() {
        assert!(Gate::X.is_classical());
        assert!(Gate::CCX.is_classical());
        assert!(Gate::Mcx(3).is_classical());
        assert!(!Gate::H.is_classical());
        assert!(!Gate::Rz(0.1).is_classical());
    }

    #[test]
    fn diagonal_gate_classification() {
        assert!(Gate::Z.is_diagonal());
        assert!(Gate::CP(0.1).is_diagonal());
        assert!(!Gate::X.is_diagonal());
        assert!(!Gate::H.is_diagonal());
    }

    #[test]
    fn approx_eq_tolerates_tiny_angle_noise() {
        assert!(Gate::Rz(0.5).approx_eq(&Gate::Rz(0.5 + 1e-15)));
        assert!(!Gate::Rz(0.5).approx_eq(&Gate::Rz(0.6)));
        assert!(Gate::X.approx_eq(&Gate::X));
        assert!(!Gate::X.approx_eq(&Gate::Y));
    }

    #[test]
    fn display_includes_angles() {
        assert_eq!(Gate::X.to_string(), "x");
        assert!(Gate::Rz(0.5).to_string().starts_with("rz(0.5"));
        assert_eq!(Gate::Mcx(3).to_string(), "mcx3");
    }
}

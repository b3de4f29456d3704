//! Clifford recognition: compiling circuits to the {H, S, CX} generator
//! set the tableau engine natively updates.
//!
//! Every gate of the workspace gate set that lies in the Clifford group
//! is rewritten (up to global phase, which conjugation cannot see) into
//! a short H/S/CX word. Parametric rotations qualify when their angle is
//! a right-angle multiple within [`ANGLE_TOLERANCE`]; anything else
//! (T, CCX, CH, generic U, …) makes [`compile`] return `None` and the
//! verifier falls through to the non-Clifford tiers.

use qcir::{Gate, Instruction};
use std::borrow::Borrow;
use std::f64::consts::{FRAC_PI_2, PI};

/// Tolerance when matching rotation angles against right-angle
/// multiples.
pub(crate) const ANGLE_TOLERANCE: f64 = 1e-9;

/// A generator of the Clifford group, on concrete wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CliffordOp {
    /// Hadamard.
    H(usize),
    /// Phase gate S.
    S(usize),
    /// Controlled-X (control, target).
    Cx(usize, usize),
}

/// Compiles a gate sequence to Clifford generators, or `None` at the
/// first gate outside the Clifford group (no later gate is read).
pub(crate) fn compile(
    gates: impl IntoIterator<Item = impl Borrow<Instruction>>,
) -> Option<Vec<CliffordOp>> {
    let gates = gates.into_iter();
    let mut ops = Vec::with_capacity(gates.size_hint().0 * 3);
    for inst in gates {
        let inst = inst.borrow();
        let q: Vec<usize> = inst.qubits().iter().map(|w| w.index()).collect();
        match inst.gate() {
            Gate::I => {}
            Gate::X => {
                h(&mut ops, q[0]);
                s_pow(&mut ops, q[0], 2);
                h(&mut ops, q[0]);
            }
            Gate::Y => {
                // Y ≃ X·Z up to phase: conjugation by Z then X.
                s_pow(&mut ops, q[0], 2);
                h(&mut ops, q[0]);
                s_pow(&mut ops, q[0], 2);
                h(&mut ops, q[0]);
            }
            Gate::Z => s_pow(&mut ops, q[0], 2),
            Gate::H => h(&mut ops, q[0]),
            Gate::S => s_pow(&mut ops, q[0], 1),
            Gate::Sdg => s_pow(&mut ops, q[0], 3),
            Gate::Sx => {
                // √X = H·S·H exactly.
                h(&mut ops, q[0]);
                s_pow(&mut ops, q[0], 1);
                h(&mut ops, q[0]);
            }
            Gate::Sxdg => {
                h(&mut ops, q[0]);
                s_pow(&mut ops, q[0], 3);
                h(&mut ops, q[0]);
            }
            Gate::Rz(a) | Gate::P(a) => s_pow(&mut ops, q[0], turns(*a, FRAC_PI_2, 4)?),
            Gate::Rx(a) => {
                let k = turns(*a, FRAC_PI_2, 4)?;
                h(&mut ops, q[0]);
                s_pow(&mut ops, q[0], k);
                h(&mut ops, q[0]);
            }
            Gate::Ry(a) => {
                // Ry(θ) = S·Rx(θ)·S†, listed target-first.
                let k = turns(*a, FRAC_PI_2, 4)?;
                s_pow(&mut ops, q[0], 3);
                h(&mut ops, q[0]);
                s_pow(&mut ops, q[0], k);
                h(&mut ops, q[0]);
                s_pow(&mut ops, q[0], 1);
            }
            Gate::CX => ops.push(CliffordOp::Cx(q[0], q[1])),
            Gate::CY => {
                // CY = S(t)·CX·S†(t).
                s_pow(&mut ops, q[1], 3);
                ops.push(CliffordOp::Cx(q[0], q[1]));
                s_pow(&mut ops, q[1], 1);
            }
            Gate::CZ => cz(&mut ops, q[0], q[1]),
            Gate::CP(a) => {
                if turns(*a, PI, 2)? == 1 {
                    cz(&mut ops, q[0], q[1]);
                }
            }
            Gate::CRz(a) => {
                // CRz(kπ) on the control/target phase lattice has period
                // 4π: CRz(π) = S†(c)·CZ, CRz(2π) = Z(c), CRz(3π) = S(c)·CZ.
                match turns(*a, PI, 4)? {
                    0 => {}
                    1 => {
                        s_pow(&mut ops, q[0], 3);
                        cz(&mut ops, q[0], q[1]);
                    }
                    2 => s_pow(&mut ops, q[0], 2),
                    _ => {
                        s_pow(&mut ops, q[0], 1);
                        cz(&mut ops, q[0], q[1]);
                    }
                }
            }
            Gate::Swap => {
                ops.push(CliffordOp::Cx(q[0], q[1]));
                ops.push(CliffordOp::Cx(q[1], q[0]));
                ops.push(CliffordOp::Cx(q[0], q[1]));
            }
            Gate::T
            | Gate::Tdg
            | Gate::U(..)
            | Gate::CH
            | Gate::CCX
            | Gate::CSwap
            | Gate::Mcx(_) => return None,
        }
    }
    Some(ops)
}

fn h(ops: &mut Vec<CliffordOp>, q: usize) {
    ops.push(CliffordOp::H(q));
}

fn s_pow(ops: &mut Vec<CliffordOp>, q: usize, k: u32) {
    for _ in 0..k {
        ops.push(CliffordOp::S(q));
    }
}

fn cz(ops: &mut Vec<CliffordOp>, c: usize, t: usize) {
    ops.push(CliffordOp::H(t));
    ops.push(CliffordOp::Cx(c, t));
    ops.push(CliffordOp::H(t));
}

/// `θ / unit` rounded to the nearest integer, reduced mod `period` —
/// `None` unless `θ` is a multiple of `unit` within [`ANGLE_TOLERANCE`].
fn turns(theta: f64, unit: f64, period: i64) -> Option<u32> {
    let k = (theta / unit).round();
    if (theta - k * unit).abs() > ANGLE_TOLERANCE {
        return None;
    }
    Some((k as i64).rem_euclid(period) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Circuit;
    use qsim::unitary::equivalent_up_to_phase;

    /// Rebuilds a plain circuit from compiled ops, for dense
    /// cross-checking.
    fn reconstruct(n: u32, ops: &[CliffordOp]) -> Circuit {
        let mut c = Circuit::new(n);
        for op in ops {
            match op {
                CliffordOp::H(q) => c.h(*q as u32),
                CliffordOp::S(q) => c.s(*q as u32),
                CliffordOp::Cx(a, b) => c.cx(*a as u32, *b as u32),
            };
        }
        c
    }

    #[test]
    fn every_clifford_gate_compiles_to_its_own_unitary() {
        let mut gates: Vec<Circuit> = Vec::new();
        let single = |f: &dyn Fn(&mut Circuit)| {
            let mut c = Circuit::new(2);
            f(&mut c);
            c
        };
        gates.push(single(&|c| {
            c.x(0);
        }));
        gates.push(single(&|c| {
            c.y(0);
        }));
        gates.push(single(&|c| {
            c.z(0);
        }));
        gates.push(single(&|c| {
            c.h(0);
        }));
        gates.push(single(&|c| {
            c.s(0);
        }));
        gates.push(single(&|c| {
            c.sdg(0);
        }));
        gates.push(single(&|c| {
            c.sx(0);
        }));
        gates.push(single(&|c| {
            c.cx(0, 1);
        }));
        gates.push(single(&|c| {
            c.cy(0, 1);
        }));
        gates.push(single(&|c| {
            c.cz(0, 1);
        }));
        gates.push(single(&|c| {
            c.swap(0, 1);
        }));
        for k in 0..4i32 {
            let a = f64::from(k) * FRAC_PI_2;
            gates.push(single(&|c| {
                c.rz(a, 0);
            }));
            gates.push(single(&|c| {
                c.rx(a, 0);
            }));
            gates.push(single(&|c| {
                c.ry(a, 0);
            }));
            gates.push(single(&|c| {
                c.p(a, 0);
            }));
        }
        for k in 0..4i32 {
            let a = f64::from(k) * PI;
            gates.push(single(&|c| {
                c.crz(a, 0, 1);
            }));
        }
        gates.push(single(&|c| {
            c.cp(PI, 0, 1);
        }));
        for circuit in gates {
            let ops = compile(circuit.iter()).unwrap_or_else(|| {
                panic!("{:?} should compile", circuit.instructions());
            });
            let rebuilt = reconstruct(2, &ops);
            assert!(
                equivalent_up_to_phase(&circuit, &rebuilt, 1e-9).unwrap(),
                "compiled word wrong for {:?}",
                circuit.instructions()
            );
        }
    }

    #[test]
    fn non_clifford_gates_rejected() {
        for f in [
            &(|c: &mut Circuit| {
                c.t(0);
            }) as &dyn Fn(&mut Circuit),
            &|c: &mut Circuit| {
                c.tdg(0);
            },
            &|c: &mut Circuit| {
                c.ccx(0, 1, 2);
            },
            &|c: &mut Circuit| {
                c.ch(0, 1);
            },
            &|c: &mut Circuit| {
                c.rz(0.3, 0);
            },
            &|c: &mut Circuit| {
                c.cp(FRAC_PI_2, 0, 1);
            },
            &|c: &mut Circuit| {
                c.u(0.1, 0.2, 0.3, 0);
            },
        ] {
            let mut c = Circuit::new(3);
            f(&mut c);
            assert!(compile(c.iter()).is_none(), "{:?}", c.instructions());
        }
    }

    #[test]
    fn angle_tolerance_accepts_float_noise() {
        let mut c = Circuit::new(1);
        c.rz(FRAC_PI_2 + 1e-13, 0);
        assert!(compile(c.iter()).is_some());
        let mut c = Circuit::new(1);
        c.rz(FRAC_PI_2 + 1e-4, 0);
        assert!(compile(c.iter()).is_none());
    }

    #[test]
    fn negative_angles_reduce_correctly() {
        let mut a = Circuit::new(1);
        a.rz(-FRAC_PI_2, 0);
        let ops = compile(a.iter()).unwrap();
        let rebuilt = reconstruct(1, &ops);
        assert!(equivalent_up_to_phase(&a, &rebuilt, 1e-9).unwrap());
    }
}

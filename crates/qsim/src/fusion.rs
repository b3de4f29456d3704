//! Single-qubit gate fusion for [`Statevector::apply_circuit`].
//!
//! Deep circuits — transpiled Euler-angle chains, obfuscation padding,
//! stimulus preparation layers — spend most of their length in runs of
//! single-qubit gates on the same wire. Applying them one at a time
//! pays one pass over the amplitude array per gate; fusing each run
//! into one composite operation cuts that to one pass per *run*.
//!
//! [`fused_stream`] performs the structural half: it rewrites the
//! instruction stream into [`FusedOp`]s, grouping every maximal chain
//! of adjacent single-qubit gates on one wire into a [`WireRun`]. In
//! the wire-dependency DAG these chains are exactly the maximal paths
//! whose nodes are all single-qubit: a run is broken only by a
//! multi-qubit gate touching the wire, never by gates on other wires.
//! Because a pending run commutes with every gate that does not touch
//! its wire, emitting the run immediately before the first gate that
//! *does* touch it preserves the circuit's unitary exactly.
//!
//! The numeric half is [`compose_run`], which multiplies a run's 2×2
//! matrices, and [`lower_product`], which picks the kernel for the
//! product by its exact zeros: a diagonal product is a phase scan, an
//! antidiagonal one a swap-with-phase pass, anything else the dense
//! pair rotation.
//!
//! Identity gates ([`Gate::I`]) are dropped from the stream entirely,
//! matching the per-gate dispatch.
//!
//! [`Statevector::apply_circuit`]: crate::Statevector::apply_circuit

use crate::exec::KernelOp;
use crate::kernels::Mat2;
use crate::matrix::{gate_matrix, Matrix};
use qcir::{Circuit, Gate, Instruction, Qubit};

/// A maximal run of adjacent single-qubit gates on one wire, in
/// application order (`gates[0]` acts first).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WireRun<'c> {
    /// The wire every gate of the run acts on.
    pub qubit: Qubit,
    /// The gates of the run, earliest first. Always length ≥ 1; a lone
    /// single-qubit gate becomes a unit run, which the simulator
    /// applies through its ordinary per-gate dispatch.
    pub gates: Vec<&'c Gate>,
}

/// One element of the fused instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FusedOp<'c> {
    /// A run of single-qubit gates on one wire (length ≥ 1).
    Run(WireRun<'c>),
    /// A multi-qubit instruction, kept as-is.
    Single(&'c Instruction),
}

/// Rewrites `circuit`'s instruction stream into a fused op stream.
///
/// The result is a valid topological reordering of the original
/// instructions: per-wire gate order is preserved exactly, multi-qubit
/// gates keep their relative order, and every emitted [`FusedOp::Run`]
/// is a maximal single-qubit chain of the wire-dependency DAG. Applying
/// the ops in order therefore implements the same unitary as the
/// original circuit. [`Gate::I`] instructions are dropped.
pub(crate) fn fused_stream(circuit: &Circuit) -> Vec<FusedOp<'_>> {
    let n = circuit.num_qubits() as usize;
    let mut pending: Vec<Vec<&Gate>> = vec![Vec::new(); n];
    let mut out = Vec::with_capacity(circuit.gate_count());
    for inst in circuit.iter() {
        let gate = inst.gate();
        if matches!(gate, Gate::I) {
            continue;
        }
        if gate.arity() == 1 {
            pending[inst.qubits()[0].index()].push(gate);
            continue;
        }
        for q in inst.qubits() {
            flush(&mut pending[q.index()], *q, &mut out);
        }
        out.push(FusedOp::Single(inst));
    }
    for (q, run) in pending.iter_mut().enumerate() {
        flush(run, Qubit::new(q as u32), &mut out);
    }
    out
}

/// Emits the pending run on `qubit` (if any) into `out`.
fn flush<'c>(pending: &mut Vec<&'c Gate>, qubit: Qubit, out: &mut Vec<FusedOp<'c>>) {
    if !pending.is_empty() {
        out.push(FusedOp::Run(WireRun {
            qubit,
            gates: std::mem::take(pending),
        }));
    }
}

/// Composes a fused run's gates into one 2×2 matrix (`gates[0]` acts
/// first, so the product is `m_k ⋯ m_1`).
pub(crate) fn compose_run(gates: &[&Gate]) -> Mat2 {
    let mut acc = Matrix::identity(2);
    for gate in gates {
        acc = gate_matrix(gate).mul(&acc);
    }
    Mat2::from_matrix(&acc)
}

/// Lowers a run's product `m` on target bit `tbit` by its exact zeros:
/// [`KernelOp::Diag1`] when both off-diagonal entries are zero (any
/// product of diagonal gates and an even number of X/Y factors),
/// [`KernelOp::Anti1`] when both diagonal entries are zero (an odd
/// number of X/Y factors among diagonal ones), otherwise
/// [`KernelOp::Mat1`]. Products of diagonal and antidiagonal matrices
/// keep their structural zeros exactly, since every such entry is a sum
/// of products with a zero factor.
pub(crate) fn lower_product(tbit: usize, m: Mat2) -> KernelOp {
    if m.is_diagonal() {
        KernelOp::Diag1 {
            tbit,
            d0: m.m00,
            d1: m.m11,
        }
    } else if m.is_antidiagonal() {
        KernelOp::Anti1 {
            tbit,
            a01: m.m01,
            a10: m.m10,
        }
    } else {
        KernelOp::Mat1 { tbit, m }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    impl FusedOp<'_> {
        /// Number of original instructions this op covers.
        fn len(&self) -> usize {
            match self {
                FusedOp::Run(run) => run.gates.len(),
                FusedOp::Single(_) => 1,
            }
        }
    }

    fn flatten_per_wire(ops: &[FusedOp<'_>], n: u32) -> Vec<Vec<Gate>> {
        let mut wires: Vec<Vec<Gate>> = vec![Vec::new(); n as usize];
        for op in ops {
            match op {
                FusedOp::Run(run) => {
                    for g in &run.gates {
                        wires[run.qubit.index()].push((*g).clone());
                    }
                }
                FusedOp::Single(inst) => {
                    for q in inst.qubits() {
                        wires[q.index()].push(inst.gate().clone());
                    }
                }
            }
        }
        wires
    }

    /// The kernel a run of `gates` on wire 0 lowers to.
    fn lowered(gates: &[Gate]) -> KernelOp {
        let refs: Vec<&Gate> = gates.iter().collect();
        lower_product(1, compose_run(&refs))
    }

    #[test]
    fn adjacent_gates_on_one_wire_fuse() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).s(0).x(0);
        let ops = fused_stream(&c);
        assert_eq!(ops.len(), 1);
        assert!(matches!(&ops[0], FusedOp::Run(run) if run.gates.len() == 4));
    }

    #[test]
    fn multi_qubit_gate_breaks_runs_on_its_wires_only() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).cx(0, 1).t(0).t(1).t(2);
        let ops = fused_stream(&c);
        // Wire 2's h…t survives as one run across the cx.
        let wire2_runs: Vec<_> = ops
            .iter()
            .filter(|op| matches!(op, FusedOp::Run(run) if run.qubit == Qubit::new(2)))
            .collect();
        assert_eq!(wire2_runs.len(), 1);
        assert_eq!(wire2_runs[0].len(), 2);
        // Wires 0 and 1 each broke into two emissions around the cx.
        let wire0_ops: Vec<_> = ops
            .iter()
            .filter(|op| matches!(op, FusedOp::Run(run) if run.qubit == Qubit::new(0)))
            .collect();
        assert_eq!(wire0_ops.len(), 2);
    }

    #[test]
    fn per_wire_order_is_preserved() {
        let mut c = Circuit::new(3);
        c.h(0).t(1).cx(0, 1).s(0).ccx(0, 1, 2).z(2).x(0);
        let ops = fused_stream(&c);
        let wires = flatten_per_wire(&ops, 3);
        assert_eq!(
            wires[0],
            vec![Gate::H, Gate::CX, Gate::S, Gate::CCX, Gate::X]
        );
        assert_eq!(wires[1], vec![Gate::T, Gate::CX, Gate::CCX]);
        assert_eq!(wires[2], vec![Gate::CCX, Gate::Z]);
    }

    #[test]
    fn every_instruction_appears_exactly_once() {
        let mut c = Circuit::new(4);
        c.h(0)
            .rz(0.3, 1)
            .cx(1, 2)
            .t(2)
            .tdg(2)
            .swap(0, 3)
            .u(0.1, 0.2, 0.3, 3)
            .ccx(0, 1, 3);
        let ops = fused_stream(&c);
        let covered: usize = ops.iter().map(FusedOp::len).sum();
        assert_eq!(covered, c.gate_count());
    }

    #[test]
    fn runs_are_broken_before_the_dependent_gate() {
        // The run on wire 0 must be emitted before the cx consuming it.
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1);
        let ops = fused_stream(&c);
        assert!(matches!(&ops[0], FusedOp::Run(run) if run.gates.len() == 2));
        assert!(matches!(&ops[1], FusedOp::Single(inst) if inst.gate() == &Gate::CX));
    }

    #[test]
    fn identity_gates_are_dropped() {
        let mut c = Circuit::new(2);
        c.append(Gate::I, &[0]).unwrap();
        c.h(1);
        let ops = fused_stream(&c);
        assert_eq!(ops.len(), 1);
        assert!(matches!(&ops[0], FusedOp::Run(run) if run.qubit == Qubit::new(1)));
    }

    #[test]
    fn lone_single_qubit_gate_is_a_unit_run() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let ops = fused_stream(&c);
        assert_eq!(ops.len(), 2);
        assert!(matches!(&ops[0], FusedOp::Run(run) if run.gates == vec![&Gate::H]));
    }

    #[test]
    fn empty_circuit_yields_empty_stream() {
        assert!(fused_stream(&Circuit::new(3)).is_empty());
    }

    #[test]
    fn trailing_runs_flush_in_wire_order() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).h(2).t(2).s(0);
        let ops = fused_stream(&c);
        assert!(matches!(ops[0], FusedOp::Single(_)));
        // Trailing flush: wire 0's s, then wire 2's h·t.
        let tail: Vec<Qubit> = ops[1..]
            .iter()
            .map(|op| match op {
                FusedOp::Run(run) => run.qubit,
                FusedOp::Single(inst) => inst.qubits()[0],
            })
            .collect();
        assert_eq!(tail, vec![Qubit::new(0), Qubit::new(2)]);
    }

    #[test]
    fn kernel_class_algebra_tracks_antidiagonal_parity() {
        let class = |gates: &[Gate]| match lowered(gates) {
            KernelOp::Diag1 { .. } => "diag1",
            KernelOp::Anti1 { .. } => "anti1",
            KernelOp::Mat1 { .. } => "mat1",
            op => panic!("a 2×2 product lowered to {op:?}"),
        };
        assert_eq!(class(&[Gate::T, Gate::S]), "diag1");
        assert_eq!(class(&[Gate::X, Gate::T]), "anti1");
        assert_eq!(class(&[Gate::T, Gate::X]), "anti1");
        assert_eq!(class(&[Gate::X, Gate::Y]), "diag1");
        assert_eq!(class(&[Gate::X, Gate::T, Gate::Y, Gate::Z]), "diag1");
        assert_eq!(class(&[Gate::X, Gate::T, Gate::X]), "diag1");
        assert_eq!(class(&[Gate::Rz(0.2), Gate::Y]), "anti1");
        assert_eq!(class(&[Gate::X, Gate::H]), "mat1");
        assert_eq!(class(&[Gate::H, Gate::X, Gate::Rz(0.5)]), "mat1");
    }

    #[test]
    fn fused_cost_distinguishes_pure_phase_from_general_diagonal() {
        // A product of pure phases keeps d0 = 1 exactly, so the fused
        // scan still skips the |0⟩ half like each factor's would.
        match lowered(&[Gate::S, Gate::T, Gate::Z, Gate::P(0.3)]) {
            KernelOp::Diag1 { d0, .. } => assert_eq!(d0, C64::ONE),
            op => panic!("pure phases lowered to {op:?}"),
        }
        // An Rz factor scales both halves.
        match lowered(&[Gate::S, Gate::Rz(0.1)]) {
            KernelOp::Diag1 { d0, .. } => assert_ne!(d0, C64::ONE),
            op => panic!("a diagonal run lowered to {op:?}"),
        }
    }
}

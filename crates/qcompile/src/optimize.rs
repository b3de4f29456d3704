//! Peephole optimization passes.
//!
//! [`optimize`] applies two passes to fixpoint:
//!
//! 1. **Inverse cancellation** — adjacent gate pairs `G·G†` on identical
//!    wires (with nothing between them on those wires) are removed. This is
//!    the pass an *attacker-compiler* would run to strip a naively inserted
//!    `R⁻¹R` pair — TetrisLock survives it because the split separates the
//!    halves.
//! 2. **Rotation merging** — consecutive `Rz`/`P` (or `Rx`, `Ry`)
//!    rotations on the same wire merge; zero-angle rotations vanish.
//!
//! [`optimize_aggressive`] adds **1q resynthesis** between two
//! [`optimize`] rounds: maximal runs of single-qubit gates on one wire
//! collapse into at most 5 native gates via Euler synthesis.
//!
//! Every pass rewrites the circuit in place: it removes gates with
//! [`Circuit::retain`] or moves them out with
//! [`Circuit::take_instructions`] and back, and clones no gate it keeps.
//! Inverse cancellation and rotation merging are linear in the gate
//! count.

use crate::euler;
use qcir::{Circuit, Gate, Instruction};
use std::f64::consts::PI;

/// Cancels adjacent inverse pairs on identical wires. Returns the number
/// of gates removed.
///
/// Each wire keeps a stack of its live (not yet cancelled) gates. A gate
/// cancels against the gate on top of every one of its wires' stacks
/// when that gate has the same operands and is its adjoint; popping the
/// pair exposes the gates before it, so `h x x h` cancels fully. This is
/// the rule `qverify`'s dense tier applies to a miter, with the
/// adjoint compared up to [`Gate::approx_eq`].
pub fn cancel_inverse_pairs(circuit: &mut Circuit) -> usize {
    let insts = circuit.instructions();
    let mut keep = vec![true; insts.len()];
    // Indices of the live gates on each wire, latest last.
    let mut wires: Vec<Vec<usize>> = vec![Vec::new(); circuit.num_qubits() as usize];
    let mut removed = 0usize;

    for (i, inst) in insts.iter().enumerate() {
        let qubits = inst.qubits();
        let partner = wires[qubits[0].index()].last().copied().filter(|&j| {
            let prev = &insts[j];
            prev.qubits() == qubits
                && qubits.iter().all(|q| wires[q.index()].last() == Some(&j))
                && prev.gate().adjoint().approx_eq(inst.gate())
        });
        if let Some(j) = partner {
            for q in qubits {
                wires[q.index()].pop();
            }
            keep[i] = false;
            keep[j] = false;
            removed += 2;
        } else {
            for q in qubits {
                wires[q.index()].push(i);
            }
        }
    }

    if removed > 0 {
        let mut keep = keep.into_iter();
        circuit.retain(|_| keep.next().expect("one flag per instruction"));
    }
    removed
}

fn merged_rotation(a: &Gate, b: &Gate) -> Option<Gate> {
    let norm = |x: f64| {
        let tau = 2.0 * PI;
        let mut v = x % tau;
        if v > PI {
            v -= tau;
        }
        if v < -PI {
            v += tau;
        }
        v
    };
    match (a, b) {
        (Gate::Rz(x), Gate::Rz(y)) => Some(Gate::Rz(norm(x + y))),
        (Gate::Rx(x), Gate::Rx(y)) => Some(Gate::Rx(norm(x + y))),
        (Gate::Ry(x), Gate::Ry(y)) => Some(Gate::Ry(norm(x + y))),
        (Gate::P(x), Gate::P(y)) => Some(Gate::P(norm(x + y))),
        (Gate::Rz(x), Gate::P(y)) | (Gate::P(y), Gate::Rz(x)) => {
            // Differ only by global phase; merge into P.
            Some(Gate::P(norm(x + y)))
        }
        _ => None,
    }
}

fn is_null_rotation(g: &Gate) -> bool {
    match g {
        Gate::Rz(a) | Gate::Rx(a) | Gate::Ry(a) | Gate::P(a) => a.abs() < 1e-12,
        Gate::I => true,
        _ => false,
    }
}

/// Merges same-axis rotations on one wire that are adjacent in the
/// instruction list and deletes zero rotations. Returns the number of
/// gates eliminated. Only directly consecutive instructions merge: a
/// gate on another wire between two rotations keeps them apart.
pub fn merge_rotations(circuit: &mut Circuit) -> usize {
    let insts = circuit.take_instructions();
    let before = insts.len();
    let mut out: Vec<Instruction> = Vec::with_capacity(before);

    for inst in insts {
        if inst.gate().arity() == 1 && is_null_rotation(inst.gate()) {
            continue;
        }
        if inst.gate().arity() == 1 {
            // Merge only with the previous output instruction overall
            // (`out.last()`), not the last one on this wire.
            if let Some(last) = out.last() {
                if last.qubits() == inst.qubits() {
                    if let Some(merged) = merged_rotation(last.gate(), inst.gate()) {
                        let wires = inst.qubits().to_vec();
                        out.pop();
                        if !is_null_rotation(&merged) {
                            out.push(
                                Instruction::new(merged, wires).expect("1q instruction valid"),
                            );
                        }
                        continue;
                    }
                }
            }
        }
        out.push(inst);
    }

    let removed = before - out.len();
    circuit.extend(out);
    removed
}

/// Collapses every maximal run of ≥ 2 single-qubit gates on one wire into
/// the minimal `RZ·SX·RZ·SX·RZ` sequence. Returns the net gate-count
/// reduction (can be 0 if runs were already minimal).
pub fn resynthesize_1q_runs(circuit: &mut Circuit) -> usize {
    let insts = circuit.take_instructions();
    let before = insts.len();
    let n_wires = circuit.num_qubits() as usize;
    // Pending run of 1q gates per wire.
    let mut pending: Vec<Vec<Gate>> = vec![Vec::new(); n_wires];

    let flush = |wire: usize, pending: &mut Vec<Vec<Gate>>, out: &mut Circuit| {
        let run = std::mem::take(&mut pending[wire]);
        if run.is_empty() {
            return;
        }
        let emit: Vec<Gate> = if run.len() == 1 {
            run
        } else {
            let m = euler::sequence_matrix(&run);
            euler::matrix_to_zsx(&m)
        };
        for g in emit {
            out.append(g, &[wire as u32]).expect("1q instruction valid");
        }
    };

    for inst in insts {
        if inst.gate().arity() == 1 {
            pending[inst.qubits()[0].index()].push(inst.gate().clone());
        } else {
            for q in inst.qubits() {
                flush(q.index(), &mut pending, circuit);
            }
            circuit.push(inst).expect("same register");
        }
    }
    for wire in 0..n_wires {
        flush(wire, &mut pending, circuit);
    }
    before.saturating_sub(circuit.gate_count())
}

/// `true` if two instructions are *known* to commute (conservative:
/// `false` means "unknown", not "anti-commute").
///
/// Rules: disjoint wires always commute; diagonal gates commute with each
/// other; a diagonal single-qubit gate commutes through a CX *control*;
/// an X-axis single-qubit gate (X, Rx, Sx) commutes through a CX
/// *target*; two CX gates commute unless one's control is the other's
/// target.
pub fn instructions_commute(a: &Instruction, b: &Instruction) -> bool {
    let shared: Vec<_> = a
        .qubits()
        .iter()
        .filter(|q| b.qubits().contains(q))
        .collect();
    if shared.is_empty() {
        return true;
    }
    if a.gate().is_diagonal() && b.gate().is_diagonal() {
        return true;
    }
    let x_axis = |g: &Gate| matches!(g, Gate::X | Gate::Rx(_) | Gate::Sx | Gate::Sxdg);
    // CX vs 1q gate on a shared wire.
    let cx_vs_1q = |cx: &Instruction, one: &Instruction| -> bool {
        if cx.gate() != &Gate::CX || one.gate().arity() != 1 {
            return false;
        }
        let wire = one.qubits()[0];
        if wire == cx.qubits()[0] {
            one.gate().is_diagonal()
        } else if wire == cx.qubits()[1] {
            x_axis(one.gate())
        } else {
            true
        }
    };
    if cx_vs_1q(a, b) || cx_vs_1q(b, a) {
        return true;
    }
    // CX vs CX: commute unless a control meets a target.
    if a.gate() == &Gate::CX && b.gate() == &Gate::CX {
        let (ac, at) = (a.qubits()[0], a.qubits()[1]);
        let (bc, bt) = (b.qubits()[0], b.qubits()[1]);
        return ac != bt && at != bc;
    }
    // Identical instructions trivially commute.
    if a == b {
        return true;
    }
    false
}

/// Commutation-aware inverse cancellation: removes `G … G†` pairs on the
/// same wires even when *commuting* gates sit between them. This is the
/// stronger attacker-compiler pass: it would strip a naive `R⁻¹ … R`
/// insertion even if benign gates were interleaved. Returns the number of
/// gates removed.
pub fn cancel_commuting_pairs(circuit: &mut Circuit) -> usize {
    let mut removed_total = 0;
    loop {
        let insts = circuit.instructions();
        let mut removed_this_round = None;
        'outer: for i in 0..insts.len() {
            for j in i + 1..insts.len() {
                let a = &insts[i];
                let b = &insts[j];
                if a.qubits() == b.qubits() && a.gate().adjoint().approx_eq(b.gate()) {
                    // Everything strictly between must commute with `a`.
                    if insts[i + 1..j].iter().all(|m| instructions_commute(a, m)) {
                        removed_this_round = Some((i, j));
                        break 'outer;
                    }
                }
                // A non-commuting gate sharing wires blocks further search
                // for this `i`.
                if !instructions_commute(a, b) && a.qubits().iter().any(|q| b.qubits().contains(q))
                {
                    break;
                }
            }
        }
        match removed_this_round {
            Some((i, j)) => {
                let mut k = 0;
                circuit.retain(|_| {
                    let keep = k != i && k != j;
                    k += 1;
                    keep
                });
                removed_total += 2;
            }
            None => break,
        }
    }
    removed_total
}

/// Runs all passes to fixpoint (bounded at 20 iterations).
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qcompile::optimize::optimize;
///
/// let mut c = Circuit::new(2);
/// c.h(0).h(0).cx(0, 1).cx(0, 1).rz(0.3, 1).rz(-0.3, 1);
/// optimize(&mut c);
/// assert!(c.is_empty());
/// ```
pub fn optimize(circuit: &mut Circuit) {
    for _ in 0..20 {
        let removed = cancel_inverse_pairs(circuit) + merge_rotations(circuit);
        if removed == 0 {
            break;
        }
    }
}

/// Full optimization including 1q resynthesis (used at optimization level
/// 2, where the output is re-expressed in the native basis anyway).
pub fn optimize_aggressive(circuit: &mut Circuit) {
    optimize(circuit);
    resynthesize_1q_runs(circuit);
    optimize(circuit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::unitary::equivalent_up_to_phase;

    #[test]
    fn adjacent_self_inverse_pairs_cancel() {
        let mut c = Circuit::new(2);
        c.h(0).h(0).cx(0, 1).cx(0, 1).x(1).x(1);
        let removed = cancel_inverse_pairs(&mut c);
        assert_eq!(removed, 6);
        assert!(c.is_empty());
    }

    #[test]
    fn adjoint_pairs_cancel() {
        let mut c = Circuit::new(1);
        c.s(0).sdg(0).t(0).tdg(0).rz(0.7, 0).rz(-0.7, 0);
        cancel_inverse_pairs(&mut c);
        assert!(c.is_empty());
    }

    #[test]
    fn interposed_gate_blocks_cancellation() {
        let mut c = Circuit::new(1);
        c.h(0).x(0).h(0);
        let removed = cancel_inverse_pairs(&mut c);
        assert_eq!(removed, 0);
        assert_eq!(c.gate_count(), 3);
    }

    #[test]
    fn gate_on_other_wire_does_not_block() {
        let mut c = Circuit::new(2);
        c.h(0).x(1).h(0);
        cancel_inverse_pairs(&mut c);
        assert_eq!(c.gate_count(), 1);
        assert_eq!(c.instruction(0).unwrap().gate(), &Gate::X);
    }

    #[test]
    fn cascading_cancellation() {
        // h x x h -> h h -> empty (needs the frontier rollback).
        let mut c = Circuit::new(1);
        c.h(0).x(0).x(0).h(0);
        cancel_inverse_pairs(&mut c);
        assert!(c.is_empty());
    }

    #[test]
    fn cx_with_different_operand_order_not_cancelled() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0);
        cancel_inverse_pairs(&mut c);
        assert_eq!(c.gate_count(), 2);
    }

    #[test]
    fn rotations_merge_and_vanish() {
        let mut c = Circuit::new(1);
        c.rz(0.3, 0).rz(0.4, 0).rz(-0.7, 0);
        merge_rotations(&mut c);
        assert!(c.is_empty());
    }

    #[test]
    fn rotation_merge_respects_wires() {
        let mut c = Circuit::new(2);
        c.rz(0.3, 0).rz(0.4, 1);
        merge_rotations(&mut c);
        assert_eq!(c.gate_count(), 2);
    }

    #[test]
    fn rz_p_merge_to_p() {
        let mut c = Circuit::new(1);
        c.rz(0.25, 0).p(0.25, 0);
        merge_rotations(&mut c);
        assert_eq!(c.gate_count(), 1);
        assert!(matches!(c.instruction(0).unwrap().gate(), Gate::P(_)));
    }

    #[test]
    fn resynthesis_preserves_unitary() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).s(0).rz(0.3, 0).cx(0, 1).h(1).tdg(1).sx(1);
        let original = c.clone();
        resynthesize_1q_runs(&mut c);
        assert!(equivalent_up_to_phase(&original, &c, 1e-8).unwrap());
        // Runs of 4 1q gates collapse to ≤ 5 native gates but never grow a
        // run beyond 5.
        assert!(c.gate_count() <= original.gate_count() + 2);
    }

    #[test]
    fn resynthesis_collapses_long_runs() {
        let mut c = Circuit::new(1);
        for _ in 0..10 {
            c.h(0).t(0);
        }
        let original = c.clone();
        let saved = resynthesize_1q_runs(&mut c);
        assert!(saved >= 15, "saved only {saved}");
        assert!(equivalent_up_to_phase(&original, &c, 1e-8).unwrap());
    }

    #[test]
    fn commutation_rules_are_sound() {
        use qcir::Qubit;
        let inst = |g: Gate, qs: &[u32]| {
            Instruction::new(g, qs.iter().map(|&q| Qubit::new(q)).collect()).unwrap()
        };
        // Disjoint wires.
        assert!(instructions_commute(
            &inst(Gate::H, &[0]),
            &inst(Gate::X, &[1])
        ));
        // Diagonal pair on the same wire.
        assert!(instructions_commute(
            &inst(Gate::Rz(0.3), &[0]),
            &inst(Gate::T, &[0])
        ));
        // CX control passes diagonal, blocks X.
        assert!(instructions_commute(
            &inst(Gate::CX, &[0, 1]),
            &inst(Gate::S, &[0])
        ));
        assert!(!instructions_commute(
            &inst(Gate::CX, &[0, 1]),
            &inst(Gate::X, &[0])
        ));
        // CX target passes X, blocks Z.
        assert!(instructions_commute(
            &inst(Gate::CX, &[0, 1]),
            &inst(Gate::X, &[1])
        ));
        assert!(!instructions_commute(
            &inst(Gate::CX, &[0, 1]),
            &inst(Gate::Z, &[1])
        ));
        // CX/CX: shared control commutes, control-meets-target does not.
        assert!(instructions_commute(
            &inst(Gate::CX, &[0, 1]),
            &inst(Gate::CX, &[0, 2])
        ));
        assert!(instructions_commute(
            &inst(Gate::CX, &[0, 1]),
            &inst(Gate::CX, &[2, 1])
        ));
        assert!(!instructions_commute(
            &inst(Gate::CX, &[0, 1]),
            &inst(Gate::CX, &[1, 2])
        ));
        // H on a shared wire: unknown → conservative false.
        assert!(!instructions_commute(
            &inst(Gate::H, &[0]),
            &inst(Gate::X, &[0])
        ));
    }

    #[test]
    fn commuting_cancellation_reaches_through_interleaved_gates() {
        // cx … rz(control) … cx cancels; adjacent-only pass cannot do it.
        let mut c = Circuit::new(2);
        c.cx(0, 1).rz(0.5, 0).x(1).cx(0, 1);
        let mut adjacent_only = c.clone();
        assert_eq!(cancel_inverse_pairs(&mut adjacent_only), 0);
        let original = c.clone();
        let removed = cancel_commuting_pairs(&mut c);
        assert_eq!(removed, 2);
        assert_eq!(c.gate_count(), 2);
        assert!(equivalent_up_to_phase(&original, &c, 1e-9).unwrap());
    }

    #[test]
    fn non_commuting_blocker_prevents_cancellation() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).x(0).cx(0, 1); // X on the control anti-commutes
        assert_eq!(cancel_commuting_pairs(&mut c), 0);
        assert_eq!(c.gate_count(), 3);
    }

    #[test]
    fn commuting_cancellation_preserves_semantics_on_mixed_circuit() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .t(0)
            .rz(0.2, 0)
            .cx(0, 1)
            .s(2)
            .x(1)
            .x(1)
            .cx(1, 2)
            .z(1)
            .cx(1, 2);
        let original = c.clone();
        let removed = cancel_commuting_pairs(&mut c);
        assert!(removed >= 4, "removed only {removed}");
        assert!(equivalent_up_to_phase(&original, &c, 1e-9).unwrap());
    }

    #[test]
    fn optimize_reaches_fixpoint() {
        let mut c = Circuit::new(2);
        c.h(0)
            .h(0)
            .rz(0.5, 1)
            .rz(-0.25, 1)
            .rz(-0.25, 1)
            .cx(0, 1)
            .cx(0, 1);
        optimize(&mut c);
        assert!(c.is_empty());
    }

    #[test]
    fn optimize_keeps_meaningful_gates() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(0.7, 1);
        let original = c.clone();
        optimize_aggressive(&mut c);
        assert!(equivalent_up_to_phase(&original, &c, 1e-8).unwrap());
        assert!(!c.is_empty());
    }
}

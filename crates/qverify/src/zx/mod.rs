//! ZX-calculus tier: exact equivalence by graph rewriting, with no
//! dense state, no qubit cap — and, since the witness extension, no
//! one-sidedness and no float tolerance.
//!
//! The tier translates the miter `C₂† · C₁` (every gate of the check's
//! one miter sequence, [`crate::miter::gates`], with no inverse pair
//! cancelled) into an open ZX diagram — a graph of phase-carrying Z/X
//! spiders joined by plain and Hadamard edges ([`graph`]), with every
//! phase an exact [`phase::Phase`] — and rewrites it toward the bare-wire identity with spider fusion,
//! identity removal, Hadamard-edge (Hopf) cancellation, local
//! complementation, pivoting, phase-gadget moves and phase-polynomial
//! completion ([`rewrite`]). Translation ([`translate`]) covers the
//! full workspace gate set through exact decompositions, so the tier
//! reaches Clifford+T and arbitrary-angle circuits at register sizes
//! far past the statevector cap; its cost scales with gate count, not
//! with `2ⁿ`.
//!
//! The verdict contract is **two-sided but asymmetric** in how each
//! side is established:
//!
//! * **full reduction to the identity diagram certifies equivalence** —
//!   every rewrite is a sound ZX equality up to a non-zero scalar, and
//!   every phase comparison along the way is exact integer arithmetic;
//! * **a stalled non-identity diagram proves nothing by itself** — the
//!   rule set is deliberately incomplete — but it *proposes* candidate
//!   basis inputs, and a candidate confirmed by an independent replay
//!   ([`witness`]: limb-backed classical bit evaluation for reversible
//!   pairs at any width, or the dense tier's decision rule on the
//!   candidate basis columns of the check's shared, cancelled miter
//!   replay, up to [`qsim::MAX_COLUMN_QUBITS`] wires — magnitude deficits certify
//!   basis-column witnesses, and diverging unit phases certify
//!   relative-phase witnesses) certifies **inequivalence** with a
//!   concrete witness;
//! * **a stall with no confirmed candidate still certifies nothing** —
//!   [`check`] returns `None` and the verifier falls through to the
//!   dense or stimulus tier. The replay gate means a rewrite-engine bug
//!   can cost completeness, never a false verdict in either direction.

mod graph;
pub(crate) mod phase;
mod rewrite;
mod translate;
mod witness;

use crate::miter::{self, Miter};
use crate::{Report, Tier, Verdict};

pub use translate::MAX_MCX_CONTROLS;

/// Attempts to decide `original ≃ candidate` through the miter diagram.
///
/// * `Some(Equivalent)` (tier [`Tier::Zx`]) on full reduction to the
///   identity — exact at any register size;
/// * `Some(Inequivalent)` with a replay-confirmed witness when the
///   reduction stalls short of the identity and [`witness`] certifies a
///   distinguishing basis input, a deficient basis column, or a
///   relative phase between two basis eigenvectors (the shape purely
///   diagonal residues produce);
/// * `None` when the circuits do not translate (an `Mcx` beyond
///   [`MAX_MCX_CONTROLS`] controls), or rewriting stalls and no
///   candidate input survives replay.
///
/// The diagram is translated from every gate of [`miter::gates`]; a
/// witness replay runs on the pair's shared [`Miter::replay`], whose
/// adjacent inverse pairs are cancelled.
pub(crate) fn check(miter: &mut Miter) -> Option<Report> {
    if miter.original.num_qubits() != miter.candidate.num_qubits() {
        return None;
    }
    let gates = miter::gates(miter.original, miter.candidate);
    let mut diagram = translate::diagram_of(miter.num_qubits(), gates)?;
    rewrite::simplify(&mut diagram);
    if diagram.is_identity() {
        return Some(Report {
            verdict: Verdict::Equivalent,
            tier: Tier::Zx,
            trials: 0,
        });
    }
    let witness = witness::extract(miter, &diagram)?;
    Some(Report {
        verdict: Verdict::Inequivalent { witness },
        tier: Tier::Zx,
        trials: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Witness, EPS};
    use qcir::random::{random_unitary_circuit, RandomCircuitConfig};
    use qcir::Circuit;
    use qsim::unitary::equivalent_up_to_phase;

    fn check(original: &Circuit, candidate: &Circuit) -> Option<Report> {
        super::check(&mut Miter::new(original, candidate))
    }

    #[test]
    fn one_pass_miter_equals_original_then_inverse() {
        for seed in 0..5u64 {
            let a = random_unitary_circuit(&RandomCircuitConfig::new(5, 40, seed));
            let b = random_unitary_circuit(&RandomCircuitConfig::new(5, 40, seed + 100));
            for (x, y) in [(&a, &b), (&a, &a)] {
                let want = x.then(&y.inverse()).unwrap();
                let got: Vec<_> = miter::gates(x, y).map(|g| g.into_owned()).collect();
                assert_eq!(got, want.instructions(), "seed {seed}");
            }
        }
    }

    #[test]
    fn self_miter_of_random_unitary_circuits_reduces() {
        for seed in 0..10u64 {
            let c = random_unitary_circuit(&RandomCircuitConfig::new(5, 40, seed));
            let report = check(&c, &c.clone()).expect("self-pair must fully reduce");
            assert!(report.verdict.is_equivalent());
            assert_eq!(report.tier, Tier::Zx);
        }
    }

    #[test]
    fn zx_verdicts_always_agree_with_dense_ground_truth() {
        // Soundness both ways: whenever ZX decides a pair the dense
        // tier can also decide, dense must agree — equivalences must be
        // real, and every witness-backed inequivalence must be real.
        // (Stalls are fine.)
        let mut equivalences = 0u32;
        let mut witnesses = 0u32;
        for seed in 0..40u64 {
            let a = random_unitary_circuit(&RandomCircuitConfig::new(4, 25, seed));
            let b = random_unitary_circuit(&RandomCircuitConfig::new(4, 25, seed + 5000));
            for (x, y) in [(&a, &b), (&a, &a), (&b, &b)] {
                if let Some(report) = check(x, y) {
                    let dense = equivalent_up_to_phase(x, y, EPS).unwrap();
                    if report.verdict.is_equivalent() {
                        equivalences += 1;
                        assert!(dense, "seed {seed}: ZX certified a pair dense rejects");
                    } else {
                        witnesses += 1;
                        assert!(!dense, "seed {seed}: ZX witnessed a pair dense accepts");
                    }
                }
            }
        }
        assert!(equivalences >= 80, "cross-check must not be vacuous");
        assert!(witnesses >= 10, "witness path must not be vacuous");
    }

    #[test]
    fn diagonal_residue_yields_relative_phase_witness() {
        // A lone T gate differs from the empty circuit, but the residue
        // is diagonal — invisible to any *single* basis input. Two
        // basis eigenvectors still disagree in phase (⟨0|T|0⟩ = 1 vs
        // ⟨1|T|1⟩ = e^{iπ/4}), and the phase replay certifies exactly
        // that.
        let mut a = Circuit::new(2);
        a.t(0);
        let b = Circuit::new(2);
        let report = check(&a, &b).expect("phase replay must certify");
        assert_eq!(report.tier, Tier::Zx);
        assert!(matches!(
            report.verdict,
            Verdict::Inequivalent {
                witness: Witness::RelativePhase {
                    input_a: 0,
                    input_b: 1
                }
            }
        ));
    }

    #[test]
    fn register_mismatch_is_not_for_this_tier() {
        assert!(check(&Circuit::new(2), &Circuit::new(3)).is_none());
    }

    #[test]
    fn commuted_diagonal_gates_reduce() {
        // Same gates, different order on commuting wires.
        let mut a = Circuit::new(3);
        a.t(0).s(1).cz(1, 2).t(0);
        let mut b = Circuit::new(3);
        b.t(0).t(0).cz(1, 2).s(1);
        let report = check(&a, &b).expect("commuted diagonals reduce");
        assert!(report.verdict.is_equivalent());
    }

    #[test]
    fn pauli_conjugated_rotation_reduces_via_pivot_gadget() {
        // X·Rz(−θ)·X = Rz(θ): plain fusion cannot see it (the π
        // spiders block the wire), so this exercises the pivot-gadget
        // route that extracts the rotation into a phase gadget — and
        // the θ/−θ atoms cancel exactly, with no tolerance.
        let mut a = Circuit::new(1);
        a.rz(0.2, 0);
        let mut b = Circuit::new(1);
        b.x(0).rz(-0.2, 0).x(0);
        assert!(equivalent_up_to_phase(&a, &b, EPS).unwrap());
        let report = check(&a, &b).expect("pivot-gadget closes this pair");
        assert!(report.verdict.is_equivalent());
    }

    #[test]
    fn t_versus_tdg_yields_relative_phase_witness() {
        // T vs T† leaves a lone π/2 wire spider in the miter: diagonal,
        // so no single basis input sees it — this pair was the tier's
        // canonical blind spot. The phase replay closes it: the miter
        // is S, and ⟨0|S|0⟩ = 1 disagrees with ⟨1|S|1⟩ = i.
        let mut a = Circuit::new(1);
        a.t(0);
        let mut b = Circuit::new(1);
        b.tdg(0);
        assert!(!equivalent_up_to_phase(&a, &b, EPS).unwrap());
        let report = check(&a, &b).expect("phase replay must certify");
        assert!(matches!(
            report.verdict,
            Verdict::Inequivalent {
                witness: Witness::RelativePhase {
                    input_a: 0,
                    input_b: 1
                }
            }
        ));
    }

    #[test]
    fn hadamard_residue_yields_replay_confirmed_basis_witness() {
        // H vs I: the residue is a Hadamard wire — very basis-visible —
        // and the replay confirms |⟨0|H|0⟩| = 1/√2.
        let mut a = Circuit::new(1);
        a.h(0);
        let b = Circuit::new(1);
        let report = check(&a, &b).expect("witness extraction must fire");
        assert_eq!(report.tier, Tier::Zx);
        let Verdict::Inequivalent {
            witness: Witness::BasisColumn { input, overlap },
        } = report.verdict
        else {
            panic!("expected a basis-column witness, got {}", report.verdict);
        };
        assert_eq!(input, 0);
        assert!((overlap - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn wide_classical_wrong_pair_yields_bit_replay_witness() {
        // 40 qubits: past every simulation cap. Both circuits are
        // classical reversible, so the certification replay is plain
        // bit evaluation — exact at any translatable width.
        let n = 40u32;
        let mut a = Circuit::new(n);
        for q in 0..n - 2 {
            a.cx(q, q + 1).ccx(q, q + 1, q + 2);
        }
        let mut b = a.clone();
        b.x(17);
        let report = check(&a, &b).expect("classical replay must confirm");
        assert_eq!(report.tier, Tier::Zx);
        let Verdict::Inequivalent {
            witness:
                Witness::BasisInput {
                    input,
                    left_output,
                    right_output,
                },
        } = report.verdict
        else {
            panic!("expected a basis-input witness, got {}", report.verdict);
        };
        assert_ne!(left_output, right_output);
        // The witness is independently checkable.
        assert_eq!(
            revlib::classical_eval_bits(&a, &input).unwrap(),
            left_output
        );
        assert_eq!(
            revlib::classical_eval_bits(&b, &input).unwrap(),
            right_output
        );
    }

    #[test]
    fn wire_swap_residue_yields_permutation_witness() {
        // Swap vs identity at 20 qubits (non-classical garnish keeps it
        // off the classical path): a single-bit probe sees the crossed
        // wires.
        let n = 20u32;
        let mut a = Circuit::new(n);
        a.swap(3, 7).t(0).tdg(0);
        let b = Circuit::new(n);
        let report = check(&a, &b).expect("permutation residue is basis-visible");
        assert!(matches!(
            report.verdict,
            Verdict::Inequivalent {
                witness: Witness::BasisColumn { .. }
            }
        ));
    }
}

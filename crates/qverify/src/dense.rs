//! The exact column check: one miter replay and one decision rule,
//! shared by the dense tier, the ZX tier's witness replay and the
//! stimulus tier.
//!
//! Every tier asks the same question of the miter `M = C₂†C₁`:
//! `C₁ ≃ C₂` up to global phase iff every diagonal entry `⟨x|M|x⟩` has
//! unit magnitude *and* all entries share one phase (the miter-diagonal
//! reduction of Burgholzer & Wille, arXiv:2004.08420).
//! [`MiterReplay::new`] builds the pair's miter once from
//! [`crate::miter::gates`], with its adjacent inverse pairs cancelled,
//! and runs each basis input through one sparse support map
//! ([`qsim::SparseColumn`]), so an entry costs `O(gates·support)`
//! instead of a `2ⁿ` statevector sweep per gate. [`judge`] is the one
//! rule that turns an entry into a verdict. Within one check the
//! cascade builds the replay on first need and hands the same one to
//! every tier that replays the miter ([`crate::miter::Miter`]).
//!
//! The **dense tier** (the exhaustive ≤ [`MAX_UNITARY_QUBITS`]-qubit
//! check) [walks](walk) every `x ∈ 0..2ⁿ` and exits on the first
//! diverging entry with a witness — a basis input that leaves its own
//! ray, or a pair of inputs acquiring different phases. The ZX tier
//! judges the few candidates its stalled residue proposes with the same
//! rule (`zx::witness`).
//!
//! Each sparse entry carries the column's pruning error bound, which
//! [`judge`] charges against [`EPS`]. When the bound could flip a
//! decision, or a column trips the support budget, a walk with the
//! statevector fallback switches the replay to a statevector for the
//! rest of the run and re-measures the reference entry exactly, so
//! every verdict is one the statevector path would also reach. The
//! cascade's first, sparse-only walk stops there instead, before
//! building any statevector; the replay keeps its place, and the full
//! walk after ZX falls through resumes at that column.
//!
//! A long walk runs on blocks. After `2ʷ` sparse columns
//! ([`qsim::column::fusion_width`]: `w = min(5, n − 3)`, registers of 6
//! or more wires) the replay fuses its program into blocks of at most
//! `w` wires, each a precomputed sparse local matrix (the gate
//! clustering of state-vector simulators, Häner & Steiger,
//! arXiv:1704.01127), which turns rd84's restored miter (2,306 ops once
//! its inverse pairs cancel) into 15 block steps. Pruning and the error
//! bound then apply once per block, and the support budget after every
//! block. A refutation within the first `2ʷ` columns never builds the
//! blocks; a ZX witness replay after a longer sparse walk runs on them.

use crate::{miter, Report, Tier, Verdict, Witness, EPS, MAX_STIMULUS_QUBITS};
use qcir::{Circuit, Instruction};
use qsim::column::{fusion_width, support_budget, ColumnProgram, SparseColumn};
use qsim::complex::C64;
use qsim::unitary::MAX_UNITARY_QUBITS;
use qsim::{SimError, Statevector};
use std::borrow::Cow;

static STATEVECTOR_FALLBACKS: qobs::Counter =
    qobs::Counter::new("qverify.dense.statevector_fallbacks");

/// Two unit entries whose real or imaginary parts differ by more than
/// this carry different phases.
const PHASE_TOLERANCE: f64 = 10.0 * EPS;

/// A miter diagonal entry `⟨x|M|x⟩` with an upper bound on its error.
#[derive(Clone, Copy)]
pub(crate) struct Entry {
    value: C64,
    err: f64,
}

/// What one entry says about the pair.
pub(crate) enum Judgement {
    Consistent,
    Diverges(Witness),
    /// The error bound straddles a threshold: re-measure exactly.
    Unsure,
}

/// Judges input `x`'s entry against the reference entry (the first
/// consistent one): a magnitude off 1 by more than [`EPS`] is a
/// [`Witness::BasisColumn`], a value off the reference's by more than
/// the phase tolerance a [`Witness::RelativePhase`]. The entries' error
/// bounds are charged against both thresholds.
pub(crate) fn judge(x: u64, entry: Entry, reference: Option<(u64, Entry)>) -> Judgement {
    let deviation = (entry.value.abs() - 1.0).abs();
    if deviation > EPS + entry.err {
        return Judgement::Diverges(Witness::BasisColumn {
            input: x,
            overlap: entry.value.abs(),
        });
    }
    if deviation > EPS - entry.err {
        return Judgement::Unsure;
    }
    let Some((first, phase)) = reference else {
        return Judgement::Consistent;
    };
    let diff = entry.value - phase.value;
    let distance = diff.re.abs().max(diff.im.abs());
    let err = entry.err + phase.err;
    if distance > PHASE_TOLERANCE + err {
        Judgement::Diverges(Witness::RelativePhase {
            input_a: first,
            input_b: x,
        })
    } else if distance > PHASE_TOLERANCE - err {
        Judgement::Unsure
    } else {
        Judgement::Consistent
    }
}

/// Diagonal entries `⟨x|M|x⟩` of one pair's miter `M`, lowered once.
/// Each input runs through a sparse column at any width up to
/// [`qsim::MAX_COLUMN_QUBITS`], so cost scales with amplitude support,
/// not `2ⁿ`. A column that trips the support budget is an error; the
/// caller decides whether to [switch](MiterReplay::switch_to_statevector)
/// this and every later input to a statevector replay within
/// [`MAX_STIMULUS_QUBITS`]. After `2ʷ` sparse columns
/// ([`fusion_width`]) the replay fuses its program into blocks, so a
/// walk that goes on pays at most about what it has already spent for
/// the build, and one that stops early never builds them.
///
/// The replay also keeps [`walk`]'s progress, so a walk that stopped on
/// sparse columns resumes where it stopped.
pub(crate) struct MiterReplay {
    miter: Circuit,
    program: ColumnProgram,
    column: SparseColumn,
    /// Sparse columns run so far.
    columns: u64,
    statevector: bool,
    /// The next input [`walk`] judges.
    next: u64,
    /// The walk's reference entry: the first consistent one.
    reference: Option<(u64, Entry)>,
    /// A sparse-only walk stopped at `next`: its column cannot be
    /// decided from the sparse map.
    stalled: bool,
}

impl MiterReplay {
    /// Builds the miter `C₁ ; C₂†` of `original` and `candidate` with
    /// its adjacent inverse pairs cancelled ([`cancel_inverse_pairs`])
    /// and lowers it for replay.
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] past [`qsim::MAX_COLUMN_QUBITS`].
    pub(crate) fn new(original: &Circuit, candidate: &Circuit) -> Result<Self, SimError> {
        let n = original.num_qubits().max(candidate.num_qubits());
        let miter = cancel_inverse_pairs(n, miter::gates(original, candidate).map(Cow::into_owned));
        Ok(MiterReplay {
            program: ColumnProgram::new(&miter)?,
            column: SparseColumn::new(support_budget(n)),
            miter,
            columns: 0,
            statevector: false,
            next: 0,
            reference: None,
            stalled: false,
        })
    }

    /// The cancelled miter.
    pub(crate) fn circuit(&self) -> &Circuit {
        &self.miter
    }

    /// `⟨input|M|input⟩` with an upper bound on its error: the sparse
    /// column's pruned norm, or `0` for a statevector replay.
    ///
    /// # Errors
    ///
    /// [`SimError::SupportBudgetExceeded`] when a sparse column trips
    /// its support budget; the replay stays sparse.
    pub(crate) fn entry(&mut self, input: u64) -> Result<Entry, SimError> {
        if self.statevector {
            let mut state = Statevector::basis(self.miter.num_qubits(), input as usize)?;
            state.apply_circuit(&self.miter)?;
            return Ok(Entry {
                value: state.amplitudes()[input as usize],
                err: 0.0,
            });
        }
        if fusion_width(self.miter.num_qubits()).is_some_and(|w| self.columns == 1 << w) {
            self.program.fuse();
        }
        self.columns += 1;
        self.column.run(&self.program, input)?;
        Ok(Entry {
            value: self.column.amplitude(input),
            err: self.column.error_bound(),
        })
    }

    /// Replays this and every later input through a statevector, exact
    /// and budget-free, if the miter fits one ([`MAX_STIMULUS_QUBITS`]).
    /// Returns whether the replay is now a statevector replay.
    pub(crate) fn switch_to_statevector(&mut self) -> bool {
        self.statevector = self.miter.num_qubits() <= MAX_STIMULUS_QUBITS;
        self.statevector
    }
}

/// The `n`-qubit circuit of `gates` without its adjacent inverse pairs:
/// a gate cancels against the one before it on its wires when that is
/// a single instruction on the same wires, in the same order, and
/// exactly its adjoint. Each cancellation exposes the next pair, so the
/// miter of `C` against a masked copy with its key `R` stripped — `R`
/// sits in `C`'s leading idle slots and runs first — shrinks to `R†`
/// alone. The operator is unchanged; replays just skip the cancelled
/// gates, which on a branchy `C` are what trip the column budget and
/// force a `2ⁿ` statevector. Unlike the compiler's peephole pass
/// (`qcompile::optimize::cancel_inverse_pairs`), gates must be exact
/// adjoints: no verdict may rest on a cancellation within a tolerance.
fn cancel_inverse_pairs(n: u32, gates: impl Iterator<Item = Instruction>) -> Circuit {
    let mut kept: Vec<Option<Instruction>> = Vec::with_capacity(gates.size_hint().0);
    // Indices into `kept` of the live gates on each wire, latest last.
    let mut wires: Vec<Vec<usize>> = vec![Vec::new(); n as usize];
    for inst in gates {
        let qubits = inst.qubits();
        let partner = wires[qubits[0].index()].last().copied().filter(|&j| {
            let prev = kept[j].as_ref().expect("wire stacks hold live gates");
            prev.qubits() == qubits
                && qubits.iter().all(|q| wires[q.index()].last() == Some(&j))
                && prev.gate().adjoint() == *inst.gate()
        });
        if let Some(j) = partner {
            for q in qubits {
                wires[q.index()].pop();
            }
            kept[j] = None;
        } else {
            for q in qubits {
                wires[q.index()].push(kept.len());
            }
            kept.push(Some(inst));
        }
    }
    let mut out = Circuit::new(n);
    out.extend(kept.into_iter().flatten());
    out
}

/// Dense equivalence check with witness extraction and early exit: a
/// full [`walk`] of a fresh replay.
pub(crate) fn check(a: &Circuit, b: &Circuit) -> Result<Report, SimError> {
    let n = a.num_qubits();
    if n > MAX_UNITARY_QUBITS {
        return Err(SimError::TooManyQubits {
            requested: n,
            max: MAX_UNITARY_QUBITS,
        });
    }
    let report = walk(&mut MiterReplay::new(a, b)?, true)?;
    Ok(report.expect("the statevector fallback decides every entry"))
}

/// Judges the diagonal entries of `replay`'s miter in input order,
/// from where the last walk on it stopped. An entry the sparse column
/// cannot decide (a budget trip, or [`Judgement::Unsure`]) ends the walk
/// with `None` unless `fallback` is set; a walk with `fallback` set that
/// meets such an entry, or resumes at one, switches the replay to a
/// statevector, re-measures the reference entry exactly and goes on.
/// Resuming thus reaches the judgements a fresh walk with `fallback`
/// makes: the entries before the stop are the same sparse columns.
pub(crate) fn walk(replay: &mut MiterReplay, fallback: bool) -> Result<Option<Report>, SimError> {
    let end = 1u64 << replay.miter.num_qubits();
    while replay.next < end {
        let x = replay.next;
        let sparse = if replay.stalled {
            None
        } else {
            match replay.entry(x) {
                Ok(entry) => match judge(x, entry, replay.reference) {
                    Judgement::Unsure => None,
                    judgement => Some((entry, judgement)),
                },
                Err(SimError::SupportBudgetExceeded { .. }) => None,
                Err(e) => return Err(e),
            }
        };
        let (entry, judgement) = match sparse {
            Some(decided) => decided,
            None if !fallback => {
                replay.stalled = true;
                return Ok(None);
            }
            None => {
                // Sticky: the reference entry, this one and every later
                // one are measured exactly from here on.
                replay.stalled = false;
                replay.switch_to_statevector();
                STATEVECTOR_FALLBACKS.incr();
                if let Some((first, _)) = replay.reference {
                    replay.reference = Some((first, replay.entry(first)?));
                }
                let entry = replay.entry(x)?;
                (entry, judge(x, entry, replay.reference))
            }
        };
        match judgement {
            Judgement::Consistent => {}
            Judgement::Diverges(witness) => {
                return Ok(Some(report(Verdict::Inequivalent { witness })))
            }
            Judgement::Unsure => unreachable!("exact entries carry no error bound"),
        }
        replay.reference.get_or_insert((x, entry));
        replay.next += 1;
    }
    Ok(Some(report(Verdict::Equivalent)))
}

fn report(verdict: Verdict) -> Report {
    Report {
        verdict,
        tier: Tier::Dense,
        trials: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miter::Miter;
    use qsim::unitary::equivalent_up_to_phase;

    /// The replay of `m` against the empty circuit: `m` itself, with its
    /// adjacent inverse pairs cancelled.
    fn replay_of(m: &Circuit) -> MiterReplay {
        MiterReplay::new(m, &Circuit::new(m.num_qubits())).unwrap()
    }

    #[test]
    fn agrees_with_qsim_boolean_check() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).t(1);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).t(1);
        assert!(check(&a, &b).unwrap().verdict.is_equivalent());
        assert!(equivalent_up_to_phase(&a, &b, EPS).unwrap());
        b.s(0);
        assert!(check(&a, &b).unwrap().verdict.is_inequivalent());
        assert!(!equivalent_up_to_phase(&a, &b, EPS).unwrap());
    }

    #[test]
    fn global_phase_difference_is_equivalent() {
        let mut a = Circuit::new(1);
        a.rz(0.9, 0);
        let mut b = Circuit::new(1);
        b.p(0.9, 0);
        assert!(check(&a, &b).unwrap().verdict.is_equivalent());
    }

    #[test]
    fn relative_phase_detected_with_witness() {
        // CZ matches identity on every column magnitude but not phase.
        let mut a = Circuit::new(2);
        a.cz(0, 1);
        let b = Circuit::new(2);
        match check(&a, &b).unwrap().verdict {
            Verdict::Inequivalent {
                witness: Witness::RelativePhase { input_a, input_b },
            } => {
                assert_eq!(input_a, 0);
                assert_eq!(input_b, 0b11);
            }
            other => panic!("expected relative-phase witness, got {other:?}"),
        }
    }

    #[test]
    fn column_divergence_yields_basis_witness() {
        let mut a = Circuit::new(2);
        a.x(1);
        let b = Circuit::new(2);
        match check(&a, &b).unwrap().verdict {
            Verdict::Inequivalent {
                witness: Witness::BasisColumn { input, overlap },
            } => {
                assert_eq!(input, 0);
                assert!(overlap < 0.5);
            }
            other => panic!("expected basis-column witness, got {other:?}"),
        }
    }

    #[test]
    fn classical_original_keeps_unit_support_and_agrees() {
        let mut a = Circuit::new(3);
        a.x(0).ccx(0, 1, 2).swap(0, 2);
        let mut b = a.clone();
        b.h(1).h(1);
        let mut replay = MiterReplay::new(&a, &b).unwrap();
        for x in 0..8 {
            let entry = replay.entry(x).unwrap();
            assert!(!replay.statevector);
            assert!(entry.value.approx_eq(C64::ONE, 1e-12), "column {x}");
        }
        assert!(check(&a, &b).unwrap().verdict.is_equivalent());
        b.t(2);
        assert!(matches!(
            check(&a, &b).unwrap().verdict,
            Verdict::Inequivalent {
                witness: Witness::RelativePhase { .. }
            }
        ));
    }

    #[test]
    fn bound_straddling_column_falls_back_to_statevectors() {
        // Each ry(1.8e-13) leaves 9e-14 of amplitude on |1⟩, which is
        // pruned (|a|² < 1e-26): 20,000 of them charge an error bound of
        // 1.8e-9 > EPS, so column 0 is undecidable from the sparse map.
        // The statevector path decides instead: the exact entry is
        // cos(1.8e-9), which rounds to exactly 1, so the pair is
        // equivalent.
        let mut a = Circuit::new(1);
        for _ in 0..20_000 {
            a.ry(1.8e-13, 0);
        }
        let b = Circuit::new(1);
        let entry = MiterReplay::new(&a, &b).unwrap().entry(0).unwrap();
        assert!(entry.err > EPS, "bound {}", entry.err);
        assert!(matches!(judge(0, entry, None), Judgement::Unsure));
        let mut replay = MiterReplay::new(&a, &b).unwrap();
        assert!(walk(&mut replay, false).unwrap().is_none());
        assert!(check(&a, &b).unwrap().verdict.is_equivalent());
    }

    #[test]
    fn oversized_register_errors() {
        let c = Circuit::new(MAX_UNITARY_QUBITS + 1);
        assert!(matches!(
            check(&c, &c.clone()),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn miter_amplitude_column_path_matches_dense_replay() {
        let mut m = Circuit::new(6);
        m.h(0).t(1).cx(1, 2).swap(2, 5).tdg(3);
        let mut replay = replay_of(&m);
        for input in [0u64, 0b100110, 0b111111] {
            let entry = replay.entry(input).unwrap();
            assert!(!replay.statevector, "a 2-amplitude column fits the budget");
            assert_eq!(entry.err, 0.0);
            let mut sv = Statevector::basis(6, input as usize).unwrap();
            sv.apply_circuit(&m).unwrap();
            assert!(
                entry
                    .value
                    .approx_eq(sv.amplitudes()[input as usize], 1e-12),
                "input {input:#b}"
            );
        }
    }

    /// H on all 12 wires passes the 2⁸ support budget on every column.
    fn budget_trip_miter() -> Circuit {
        let mut m = Circuit::new(12);
        for q in 0..12 {
            m.h(q);
        }
        m.t(3);
        m
    }

    #[test]
    fn budget_trip_falls_back_to_a_sticky_statevector_replay() {
        // The trip is the caller's to see: the replay stays sparse until
        // it is switched, then replays this and every later input
        // through the statevector.
        let mut replay = replay_of(&budget_trip_miter());
        assert!(matches!(
            replay.entry(0),
            Err(SimError::SupportBudgetExceeded { .. })
        ));
        assert!(!replay.statevector);
        assert!(replay.switch_to_statevector());
        let entry = replay.entry(0).unwrap();
        assert_eq!(entry.err, 0.0);
        assert!(
            (entry.value.abs() - 1.0 / 64.0).abs() < 1e-12,
            "{:?}",
            entry.value
        );
        replay.entry(1).unwrap();
        assert!(replay.statevector);
    }

    #[test]
    fn sparse_only_walk_gives_up_on_a_budget_trip_without_a_statevector() {
        let m = budget_trip_miter();
        let mut replay = replay_of(&m);
        assert!(walk(&mut replay, false).unwrap().is_none());
        assert!(!replay.statevector);
        let identity = Circuit::new(12);
        // The full pass decides the same pair on statevector columns.
        assert!(matches!(
            check(&m, &identity).unwrap().verdict,
            Verdict::Inequivalent {
                witness: Witness::BasisColumn { input: 0, .. }
            }
        ));
    }

    #[test]
    fn the_cascade_resumes_its_full_pass_where_the_sparse_pass_stopped() {
        // CH from wire 3 onto the 11 others: columns 0..8 (bit 3 clear)
        // are the identity, column 8 spreads over 2¹¹ amplitudes and
        // trips the support budget. The 8-control Mcx cancels out of
        // the replay but keeps the diagram from translating, so ZX
        // falls through and the full pass must decide column 8.
        let k = 8;
        let mut a = Circuit::new(12);
        for q in (0..12).filter(|&q| q != 3) {
            a.ch(3, q);
        }
        let mut b = Circuit::new(12);
        b.mcx(&[0, 1, 2, 4, 5, 6, 7, 9], 8);
        a.extend(b.iter().cloned());
        let mut miter = Miter::new(&a, &b);
        let report = crate::Verifier::new().check_miter(&mut miter);
        let fresh = crate::Verifier::new().check_dense(&a, &b).unwrap();
        assert_eq!(report, fresh);
        assert!(matches!(
            report.verdict,
            Verdict::Inequivalent {
                witness: Witness::BasisColumn { input: 8, .. }
            }
        ));
        // Columns 0..k ran sparse once, plus the trip at k; a fresh
        // full pass would have re-run the first k.
        let replay = miter.replay().unwrap();
        assert_eq!(replay.columns, k + 1);
        assert_eq!(replay.next, k);
        assert!(replay.statevector);
    }

    #[test]
    fn stripped_key_miter_cancels_down_to_the_key() {
        // A branchy circuit against a copy with an X key in wire 2's
        // leading idle slot: everything but the key cancels.
        let mut c = Circuit::new(3);
        c.h(0).h(1).t(1).cx(0, 1).ccx(0, 1, 2).rz(0.3, 2);
        let mut keyed = Circuit::new(3);
        keyed.x(2);
        keyed.extend(c.iter().cloned());
        let mut key = Circuit::new(3);
        key.x(2);
        assert_eq!(
            MiterReplay::new(&c, &keyed)
                .unwrap()
                .circuit()
                .instructions(),
            key.instructions()
        );
        assert!(MiterReplay::new(&c, &c).unwrap().circuit().is_empty());
    }

    #[test]
    fn only_adjacent_exact_adjoints_cancel() {
        let kept = |c: &Circuit| replay_of(c).miter;
        let mut blocked = Circuit::new(2);
        blocked.t(0).cx(0, 1).tdg(0);
        let mut reversed = Circuit::new(2);
        reversed.cx(0, 1).cx(1, 0);
        let mut not_adjoint = Circuit::new(1);
        not_adjoint.rz(0.3, 0).rz(0.3, 0);
        for c in [&blocked, &reversed, &not_adjoint] {
            assert_eq!(kept(c).instructions(), c.instructions());
        }
        // A cancellation exposes the pair around it; a gate on another
        // wire does not separate a pair.
        let mut nested = Circuit::new(3);
        nested.s(0).cx(0, 1).h(2).cx(0, 1).sdg(0);
        let mut h = Circuit::new(3);
        h.h(2);
        assert_eq!(kept(&nested).instructions(), h.instructions());
    }

    /// The dense rule over exact statevector columns of `m`, walked in
    /// input order: the first diverging entry's witness, if any.
    fn exact_walk(m: &Circuit) -> Option<Witness> {
        let n = m.num_qubits();
        let mut reference = None;
        for x in 0..1u64 << n {
            let mut state = Statevector::basis(n, x as usize).unwrap();
            state.apply_circuit(m).unwrap();
            let entry = Entry {
                value: state.amplitudes()[x as usize],
                err: 0.0,
            };
            match judge(x, entry, reference) {
                Judgement::Consistent => {
                    reference.get_or_insert((x, entry));
                }
                Judgement::Diverges(witness) => return Some(witness),
                Judgement::Unsure => unreachable!("exact entries carry no error bound"),
            }
        }
        None
    }

    /// `P⁻¹·D·P` under a branching frame on 12 wires: the frame puts
    /// H/T/Sx/CH branches around a reversible `P`, and `D` is `diff`.
    /// Every entry whose `P`-image misses `diff`'s wires is 1.
    fn late_divergence_pair(diff: impl Fn(&mut Circuit)) -> Circuit {
        let mut p = Circuit::new(12);
        p.cx(0, 6)
            .ccx(6, 1, 9)
            .x(2)
            .cswap(2, 3, 10)
            .mcx(&[4, 9, 11], 5);
        p.swap(7, 8).cx(10, 3).ccx(3, 5, 7);
        let mut frame = Circuit::new(12);
        frame.h(0).t(0).ch(0, 1).sx(4).crz(0.4, 4, 11);
        let mut m = frame.then(&p).unwrap();
        diff(&mut m);
        m.then(&p.inverse())
            .unwrap()
            .then(&frame.inverse())
            .unwrap()
    }

    #[test]
    fn a_divergence_past_the_fusion_point_matches_exact_columns() {
        let phase = late_divergence_pair(|m| {
            m.cp(0.5, 7, 8);
        });
        let column = late_divergence_pair(|m| {
            m.ccx(7, 8, 6);
        });
        let identity = Circuit::new(12);
        for m in [phase, column] {
            let expected = exact_walk(&m).expect("the pair diverges");
            let first = match expected {
                Witness::BasisColumn { input, .. } => input,
                Witness::RelativePhase { input_b, .. } => input_b,
                ref other => panic!("unexpected witness {other:?}"),
            };
            assert!(
                first > 32,
                "the divergence must lie past 2⁵ columns: {first}"
            );
            let mut replay = MiterReplay::new(&m, &identity).unwrap();
            let report = walk(&mut replay, false)
                .unwrap()
                .expect("sparse columns decide");
            assert!(replay.program.is_fused());
            assert!(!replay.statevector);
            let Verdict::Inequivalent { witness } = report.verdict else {
                panic!("expected a witness, got {:?}", report.verdict);
            };
            match (witness, expected) {
                (Witness::BasisColumn { input, .. }, Witness::BasisColumn { input: exact, .. }) => {
                    assert_eq!(input, exact)
                }
                (sparse, exact) => assert_eq!(sparse, exact),
            }
        }
    }

    #[test]
    fn a_refutation_at_column_zero_builds_no_fused_program() {
        let mut a = Circuit::new(12);
        a.h(3).x(0).cx(3, 11).h(3);
        let mut replay = MiterReplay::new(&a, &Circuit::new(12)).unwrap();
        let report = walk(&mut replay, false)
            .unwrap()
            .expect("sparse columns decide");
        assert!(matches!(
            report.verdict,
            Verdict::Inequivalent {
                witness: Witness::BasisColumn { input: 0, .. }
            }
        ));
        assert!(!replay.program.is_fused());
    }

    #[test]
    fn branchy_wide_miter_is_replay_infeasible() {
        // Too branchy for the column budget AND too wide for a
        // statevector: the replay must refuse with a typed error, never
        // attempt an exponential stream.
        let mut m = Circuit::new(MAX_STIMULUS_QUBITS + 2);
        for q in 0..=16 {
            m.h(q);
        }
        let mut replay = replay_of(&m);
        assert!(matches!(
            replay.entry(0),
            Err(SimError::SupportBudgetExceeded { .. })
        ));
        assert!(!replay.switch_to_statevector());
    }
}

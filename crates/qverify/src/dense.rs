//! Dense tier: the exhaustive ≤ [`MAX_UNITARY_QUBITS`]-qubit fallback.
//!
//! Compares the circuits column by column: each basis state is pushed
//! through both circuits and the output overlap `⟨C₁·x|C₂·x⟩` is
//! inspected. `C₁ ≃ C₂` up to global phase iff every column pair has
//! unit overlap *and* all overlaps share one phase. Streaming one
//! column at a time exits early on the first diverging column and still
//! yields a concrete witness — a basis input with diverging outputs or
//! a pair of basis inputs acquiring different phases.
//!
//! Each column runs through a sparse support map
//! ([`qsim::SparseColumn`]): both circuits are lowered once, and a
//! column costs `O(gates·support)` instead of a `2ⁿ` statevector sweep
//! per gate. The columns' pruning error bounds are charged against
//! `eps`. When the bound could flip a column's decision, or a column
//! trips the support budget, the check falls back to two statevectors for the rest of the run and
//! re-measures the reference phase exactly, so every verdict is one the
//! statevector path would also reach.

use crate::{Report, Tier, Verdict, Witness};
use qcir::Circuit;
use qsim::column::{support_budget, ColumnProgram, SparseColumn};
use qsim::complex::C64;
use qsim::unitary::MAX_UNITARY_QUBITS;
use qsim::{SimError, Statevector};

static STATEVECTOR_FALLBACKS: qobs::Counter =
    qobs::Counter::new("qverify.dense.statevector_fallbacks");

/// A column overlap `⟨C₁·x|C₂·x⟩` with an upper bound on its error.
#[derive(Clone, Copy)]
struct Overlap {
    value: C64,
    err: f64,
}

/// What one column says about the pair.
enum Judgement {
    Consistent,
    Diverges(Witness),
    /// The error bound straddles a threshold: re-measure exactly.
    Unsure,
}

/// Judges column `col` against the reference column (the first one).
fn judge(col: u64, overlap: Overlap, reference: Option<(u64, Overlap)>, eps: f64) -> Judgement {
    let deviation = (overlap.value.abs() - 1.0).abs();
    if deviation > eps + overlap.err {
        return Judgement::Diverges(Witness::BasisColumn {
            input: col,
            overlap: overlap.value.abs(),
        });
    }
    if deviation > eps - overlap.err {
        return Judgement::Unsure;
    }
    let Some((first, phase)) = reference else {
        return Judgement::Consistent;
    };
    let tolerance = eps.max(1e-12) * 10.0;
    let diff = overlap.value - phase.value;
    let distance = diff.re.abs().max(diff.im.abs());
    let err = overlap.err + phase.err;
    if distance > tolerance + err {
        Judgement::Diverges(Witness::RelativePhase {
            input_a: first,
            input_b: col,
        })
    } else if distance > tolerance - err {
        Judgement::Unsure
    } else {
        Judgement::Consistent
    }
}

/// The two sides of a check, lowered once.
struct Columns<'a> {
    a: &'a Circuit,
    b: &'a Circuit,
    program_a: ColumnProgram,
    program_b: ColumnProgram,
    column_a: SparseColumn,
    column_b: SparseColumn,
}

impl<'a> Columns<'a> {
    fn new(a: &'a Circuit, b: &'a Circuit) -> Result<Self, SimError> {
        let budget = support_budget(a.num_qubits());
        Ok(Columns {
            a,
            b,
            program_a: ColumnProgram::new(a)?,
            program_b: ColumnProgram::new(b)?,
            column_a: SparseColumn::new(budget),
            column_b: SparseColumn::new(budget),
        })
    }

    /// The sparse overlap of column `col`, or `None` when a column
    /// trips the support budget.
    fn sparse(&mut self, col: u64) -> Result<Option<Overlap>, SimError> {
        for (program, column) in [
            (&self.program_a, &mut self.column_a),
            (&self.program_b, &mut self.column_b),
        ] {
            match column.run(program, col) {
                Ok(()) => {}
                Err(SimError::SupportBudgetExceeded { .. }) => return Ok(None),
                Err(other) => return Err(other),
            }
        }
        let (ea, eb) = (self.column_a.error_bound(), self.column_b.error_bound());
        // |⟨a+δa|b+δb⟩ − ⟨a|b⟩| ≤ ‖δa‖·‖b‖ + ‖a‖·‖δb‖ + ‖δa‖·‖δb‖
        // with both kept columns of norm ≤ 1.
        Ok(Some(Overlap {
            value: self.column_a.inner(&self.column_b),
            err: ea + eb + ea * eb,
        }))
    }

    /// The exact overlap of column `col` through two statevectors.
    fn statevector(&self, col: u64) -> Result<Overlap, SimError> {
        let n = self.a.num_qubits();
        let mut sa = Statevector::basis(n, col as usize)?;
        sa.apply_circuit(self.a)?;
        let mut sb = Statevector::basis(n, col as usize)?;
        sb.apply_circuit(self.b)?;
        Ok(Overlap {
            value: sa.inner(&sb),
            err: 0.0,
        })
    }
}

/// Dense equivalence check with witness extraction and early exit.
pub(crate) fn check(a: &Circuit, b: &Circuit, eps: f64) -> Result<Report, SimError> {
    let n = a.num_qubits();
    if n > MAX_UNITARY_QUBITS {
        return Err(SimError::TooManyQubits {
            requested: n,
            max: MAX_UNITARY_QUBITS,
        });
    }
    let mut columns = Columns::new(a, b)?;
    let mut sparse = true;
    let mut reference: Option<(u64, Overlap)> = None;
    for col in 0..1u64 << n {
        let measured = if sparse { columns.sparse(col)? } else { None };
        let mut overlap = match measured {
            Some(overlap) => overlap,
            None => columns.statevector(col)?,
        };
        let mut judgement = judge(col, overlap, reference, eps);
        if sparse && (measured.is_none() || matches!(judgement, Judgement::Unsure)) {
            // Sticky: the reference phase, this column and every later
            // one are measured exactly from here on.
            sparse = false;
            STATEVECTOR_FALLBACKS.incr();
            if let Some((first, _)) = reference {
                reference = Some((first, columns.statevector(first)?));
            }
            if measured.is_some() {
                overlap = columns.statevector(col)?;
            }
            judgement = judge(col, overlap, reference, eps);
        }
        match judgement {
            Judgement::Consistent => {}
            Judgement::Diverges(witness) => return Ok(report(Verdict::Inequivalent { witness })),
            Judgement::Unsure => unreachable!("exact overlaps carry no error bound"),
        }
        reference.get_or_insert((col, overlap));
    }
    Ok(report(Verdict::Equivalent))
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
    use qsim::unitary::equivalent_up_to_phase;

    const EPS: f64 = 1e-9;

    #[test]
    fn agrees_with_qsim_boolean_check() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).t(1);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).t(1);
        assert!(check(&a, &b, EPS).unwrap().verdict.is_equivalent());
        assert!(equivalent_up_to_phase(&a, &b, EPS).unwrap());
        b.s(0);
        assert!(check(&a, &b, EPS).unwrap().verdict.is_inequivalent());
        assert!(!equivalent_up_to_phase(&a, &b, EPS).unwrap());
    }

    #[test]
    fn global_phase_difference_is_equivalent() {
        let mut a = Circuit::new(1);
        a.rz(0.9, 0);
        let mut b = Circuit::new(1);
        b.p(0.9, 0);
        assert!(check(&a, &b, EPS).unwrap().verdict.is_equivalent());
    }

    #[test]
    fn relative_phase_detected_with_witness() {
        // CZ matches identity on every column magnitude but not phase.
        let mut a = Circuit::new(2);
        a.cz(0, 1);
        let b = Circuit::new(2);
        match check(&a, &b, EPS).unwrap().verdict {
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
        match check(&a, &b, EPS).unwrap().verdict {
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
        let mut columns = Columns::new(&a, &b).unwrap();
        for col in 0..8 {
            let overlap = columns.sparse(col).unwrap().unwrap();
            assert_eq!(columns.column_a.support(), 1);
            assert!(overlap.value.approx_eq(C64::ONE, 1e-12), "column {col}");
        }
        assert!(check(&a, &b, EPS).unwrap().verdict.is_equivalent());
        b.t(2);
        assert!(matches!(
            check(&a, &b, EPS).unwrap().verdict,
            Verdict::Inequivalent {
                witness: Witness::RelativePhase { .. }
            }
        ));
    }

    #[test]
    fn bound_straddling_column_falls_back_to_statevectors() {
        // ry(1e-13) leaves 5e-14 of amplitude off each H branch. It is
        // pruned (|a|² < 1e-26), so the sparse overlap carries an error
        // bound of 5e-14 — larger than this check's eps, so column 0 is
        // undecidable from the sparse map. The statevector path decides
        // instead: every overlap is cos(5e-14), which rounds to exactly
        // 1, so the exact column rule says equivalent.
        let eps = 1e-14;
        let mut a = Circuit::new(3);
        a.h(1).ry(1e-13, 0).cx(1, 2);
        let mut b = Circuit::new(3);
        b.h(1).cx(1, 2);
        let overlap = Columns::new(&a, &b).unwrap().sparse(0).unwrap().unwrap();
        assert!(overlap.err > eps, "bound {}", overlap.err);
        assert!(matches!(judge(0, overlap, None, eps), Judgement::Unsure));
        assert!(check(&a, &b, eps).unwrap().verdict.is_equivalent());
        // At the default eps the same bound is negligible.
        assert!(matches!(
            judge(0, overlap, None, EPS),
            Judgement::Consistent
        ));
    }

    #[test]
    fn oversized_register_errors() {
        let c = Circuit::new(MAX_UNITARY_QUBITS + 1);
        assert!(matches!(
            check(&c, &c.clone(), EPS),
            Err(SimError::TooManyQubits { .. })
        ));
    }
}

//! Stimulus tier: randomized product-state miter, parallel across
//! threads.
//!
//! For each trial a seeded preparation layer puts every qubit in an
//! independent random pure state (Haar-like `U(θ,φ,λ)` angles), the
//! miter `C₂†C₁` runs on the product state, and the return fidelity
//! `|⟨ψ|C₂†C₁|ψ⟩|²` is compared against 1. Equivalent circuits return
//! every input exactly; a fidelity deficit beyond tolerance is a
//! concrete, reproducible counterexample. Trials are distributed over
//! `std::thread::scope` workers (each owning its statevectors), with an
//! early-exit flag once any worker finds a witness.
//!
//! A clean pass is *statistical* evidence, not proof: the verdict is
//! [`Verdict::Equivalent`] with confidence `1 − 2^{−trials}` recorded in
//! the [`Report`].

use crate::{Report, Tier, Verdict, Witness, MAX_STIMULUS_QUBITS};
use qcir::Circuit;
use qsim::column::{support_budget, ColumnProgram, SparseColumn};
use qsim::{SimError, Statevector, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{PI, TAU};
use std::sync::atomic::{AtomicBool, Ordering};

/// Runs `trials` randomized miter trials over `threads` workers
/// (`0` = auto).
pub(crate) fn check(
    original: &Circuit,
    candidate: &Circuit,
    eps: f64,
    trials: u64,
    threads: usize,
    seed: u64,
) -> Result<Report, SimError> {
    let n = original.num_qubits();
    if trials == 0 {
        return Ok(Report {
            verdict: Verdict::Inconclusive { confidence: 0.0 },
            tier: Tier::Stimulus,
            trials: 0,
        });
    }
    let candidate_inverse = candidate.inverse();
    let workers = effective_workers(threads, trials, n);
    let stop = AtomicBool::new(false);

    let worker_results: Vec<Result<Option<Witness>, SimError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let candidate_inverse = &candidate_inverse;
                let stop = &stop;
                scope.spawn(move || -> Result<Option<Witness>, SimError> {
                    let mut found: Option<Witness> = None;
                    let mut trial = worker as u64;
                    while trial < trials && !stop.load(Ordering::Relaxed) {
                        let trial_seed = mix(seed, trial);
                        let prep = product_state_prep(n, trial_seed);
                        let input = Statevector::from_circuit(&prep)?;
                        let mut output = input.clone();
                        output.apply_circuit(original)?;
                        output.apply_circuit(candidate_inverse)?;
                        let fidelity = input.fidelity(&output);
                        if fidelity < 1.0 - eps {
                            found = Some(Witness::Stimulus {
                                trial,
                                seed: trial_seed,
                                fidelity,
                            });
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                        trial += workers as u64;
                    }
                    Ok(found)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stimulus worker panicked"))
            .collect()
    });

    // The verdict kind is scheduling-independent (a witness exists iff
    // some trial fails, and every trial is deterministic in its seed).
    // The *reported* trial is the smallest among those found this run;
    // early exit means a different interleaving may surface a different
    // failing trial — each is an equally valid, reproducible witness.
    let mut witness: Option<Witness> = None;
    for result in worker_results {
        if let Some(w) = result? {
            let replace = match (&witness, &w) {
                (None, _) => true,
                (
                    Some(Witness::Stimulus { trial: have, .. }),
                    Witness::Stimulus { trial: new, .. },
                ) => new < have,
                _ => false,
            };
            if replace {
                witness = Some(w);
            }
        }
    }
    let verdict = match witness {
        Some(witness) => Verdict::Inequivalent { witness },
        None => Verdict::Equivalent,
    };
    Ok(Report {
        verdict,
        tier: Tier::Stimulus,
        trials,
    })
}

/// Diagonal entries `⟨x|M|x⟩` of one miter `M = C₂†C₁`. A magnitude
/// strictly below 1 means the input does not return to its own ray —
/// exact evidence of inequivalence; a *unit* magnitude pins the input
/// as an eigenvector whose exact phase can be compared across inputs
/// (two different phases certify a diagonal residue).
///
/// This is the certification half of the ZX tier's witness extraction
/// (`zx::witness`): the graph reduction only *proposes* basis inputs,
/// and this replay — which never looks at the ZX graph — is what turns
/// a proposal into a [`Witness::BasisColumn`] or
/// [`Witness::RelativePhase`]. The miter is lowered once; each input
/// runs through a sparse column at any width up to
/// [`qsim::MAX_COLUMN_QUBITS`], so cost scales with amplitude support,
/// not `2ⁿ`. Once a column trips the support budget, this and every
/// later input of the miter replay through a dense statevector within
/// [`MAX_STIMULUS_QUBITS`].
pub(crate) struct MiterReplay<'a> {
    miter: &'a Circuit,
    program: ColumnProgram,
    column: SparseColumn,
    dense: bool,
}

impl<'a> MiterReplay<'a> {
    /// Lowers `miter` for replay.
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] past [`qsim::MAX_COLUMN_QUBITS`].
    pub(crate) fn new(miter: &'a Circuit) -> Result<Self, SimError> {
        Ok(MiterReplay {
            miter,
            program: ColumnProgram::new(miter)?,
            column: SparseColumn::new(support_budget(miter.num_qubits())),
            dense: false,
        })
    }

    /// `⟨input|M|input⟩` with an upper bound on its error: the sparse
    /// column's pruned norm, or `0` for a statevector replay.
    ///
    /// # Errors
    ///
    /// [`SimError::SupportBudgetExceeded`] when the miter is too branchy
    /// for the column and too wide for a statevector — the caller
    /// treats any error as "replay infeasible" and falls through.
    pub(crate) fn amplitude(&mut self, input: u64) -> Result<(C64, f64), SimError> {
        let n = self.miter.num_qubits();
        if !self.dense {
            match self.column.run(&self.program, input) {
                Ok(()) => {
                    return Ok((self.column.amplitude(input), self.column.error_bound()));
                }
                Err(SimError::SupportBudgetExceeded { .. }) if n <= MAX_STIMULUS_QUBITS => {
                    self.dense = true;
                }
                Err(e) => return Err(e),
            }
        }
        let mut state = Statevector::basis(n, input as usize)?;
        state.apply_circuit(self.miter)?;
        Ok((state.amplitudes()[input as usize], 0.0))
    }
}

/// Worker count: requested (or available parallelism), capped by the
/// trial count and by a per-register memory budget — each worker owns
/// two `2ⁿ`-amplitude statevectors, so wide registers get fewer
/// threads; at the `qsim::statevector::MAX_QUBITS` cap (28 qubits,
/// 4 GiB per state) a single worker runs, and the parallelism moves
/// *inside* each gate application via qsim's chunked kernels instead.
fn effective_workers(threads: usize, trials: u64, num_qubits: u32) -> usize {
    let requested = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(8)
    } else {
        threads
    };
    let memory_cap = match num_qubits {
        0..=19 => 8,
        20..=22 => 4,
        23..=24 => 2,
        _ => 1,
    };
    requested.min(memory_cap).min(trials.max(1) as usize).max(1)
}

/// SplitMix64-style mixing of the base seed with the trial index, so
/// each trial draws an independent, reproducible preparation layer.
/// Also reused by the ZX witness extraction for its classical probe
/// stream (`zx::witness`).
pub(crate) fn mix(seed: u64, trial: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(trial.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A layer of independent random single-qubit states.
fn product_state_prep(num_qubits: u32, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(num_qubits, "stimulus_prep");
    for q in 0..num_qubits {
        let theta = rng.gen_range(0.0..PI);
        let phi = rng.gen_range(0.0..TAU);
        let lambda = rng.gen_range(0.0..TAU);
        c.u(theta, phi, lambda, q);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn equivalent_circuits_pass_all_trials() {
        let mut a = Circuit::new(4);
        a.h(0).cx(0, 1).t(2).ccx(1, 2, 3);
        let report = check(&a, &a.clone(), EPS, 6, 2, 11).unwrap();
        assert!(report.verdict.is_equivalent());
        assert_eq!(report.tier, Tier::Stimulus);
        assert_eq!(report.trials, 6);
        assert!(report.confidence() > 0.98);
    }

    #[test]
    fn differing_circuits_yield_reproducible_witness() {
        let mut a = Circuit::new(4);
        a.h(0).cx(0, 1).ccx(1, 2, 3);
        let mut b = a.clone();
        b.x(2);
        let report = check(&a, &b, EPS, 8, 3, 11).unwrap();
        let Verdict::Inequivalent {
            witness:
                Witness::Stimulus {
                    trial,
                    seed,
                    fidelity,
                },
        } = report.verdict
        else {
            panic!("expected stimulus witness, got {:?}", report.verdict);
        };
        assert!(fidelity < 1.0 - EPS);
        // Reproduce the counterexample from the recorded seed.
        let prep = product_state_prep(4, seed);
        let input = Statevector::from_circuit(&prep).unwrap();
        let mut output = input.clone();
        output.apply_circuit(&a).unwrap();
        output.apply_circuit(&b.inverse()).unwrap();
        assert!(
            (input.fidelity(&output) - fidelity).abs() < 1e-12,
            "trial {trial}"
        );
    }

    #[test]
    fn verdict_is_thread_count_invariant() {
        let mut a = Circuit::new(5);
        a.h(0).cx(0, 1).t(1).cx(1, 2).ccx(2, 3, 4);
        let mut b = a.clone();
        b.z(3);
        let one = check(&a, &b, EPS, 8, 1, 5).unwrap();
        let four = check(&a, &b, EPS, 8, 4, 5).unwrap();
        // Early exit may surface different trials, but the verdict kind
        // and the smallest failing trial must match.
        assert_eq!(
            one.verdict.is_inequivalent(),
            four.verdict.is_inequivalent()
        );
    }

    #[test]
    fn phase_only_difference_passes() {
        // rz vs p differ by a global phase: the miter fixes every state.
        let mut a = Circuit::new(2);
        a.rz(1.1, 0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.p(1.1, 0).cx(0, 1);
        assert!(check(&a, &b, EPS, 4, 2, 3).unwrap().verdict.is_equivalent());
    }

    #[test]
    fn zero_trials_inconclusive() {
        let a = Circuit::new(2);
        let report = check(&a, &a.clone(), EPS, 0, 0, 1).unwrap();
        assert!(matches!(report.verdict, Verdict::Inconclusive { .. }));
        assert_eq!(report.confidence(), 0.0);
    }

    #[test]
    fn miter_amplitude_column_path_matches_dense_replay() {
        let mut m = Circuit::new(6);
        m.h(0).t(1).cx(1, 2).swap(2, 5).tdg(3);
        let mut replay = MiterReplay::new(&m).unwrap();
        for input in [0u64, 0b100110, 0b111111] {
            let (sparse, err) = replay.amplitude(input).unwrap();
            assert!(!replay.dense, "a 2-amplitude column fits the budget");
            assert_eq!(err, 0.0);
            let mut sv = Statevector::basis(6, input as usize).unwrap();
            sv.apply_circuit(&m).unwrap();
            assert!(
                sparse.approx_eq(sv.amplitudes()[input as usize], 1e-12),
                "input {input:#b}"
            );
        }
    }

    #[test]
    fn budget_trip_falls_back_to_a_sticky_statevector_replay() {
        // H on all 12 wires passes the 2⁸ budget; the replay switches
        // to the statevector for this and every later input.
        let mut m = Circuit::new(12);
        for q in 0..12 {
            m.h(q);
        }
        m.t(3);
        let mut replay = MiterReplay::new(&m).unwrap();
        let (amplitude, err) = replay.amplitude(0).unwrap();
        assert!(replay.dense);
        assert_eq!(err, 0.0);
        assert!(
            (amplitude.abs() - 1.0 / 64.0).abs() < 1e-12,
            "{amplitude:?}"
        );
        replay.amplitude(1).unwrap();
        assert!(replay.dense);
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
        let mut replay = MiterReplay::new(&m).unwrap();
        assert!(matches!(
            replay.amplitude(0),
            Err(SimError::SupportBudgetExceeded { .. })
        ));
    }

    #[test]
    fn worker_budget_respects_register_width() {
        assert_eq!(
            effective_workers(0, 100, 24).max(1),
            effective_workers(0, 100, 24)
        );
        assert!(effective_workers(8, 100, 24) <= 2);
        assert!(effective_workers(8, 100, 10) <= 8);
        assert_eq!(effective_workers(4, 1, 5), 1);
        assert_eq!(effective_workers(0, 0, 5), 1);
    }
}

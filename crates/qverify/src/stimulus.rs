//! Stimulus tier: randomized product-state miter, parallel across
//! threads.
//!
//! For each trial a seeded preparation layer puts every qubit in an
//! independent random pure state (Haar-like `U(θ,φ,λ)` angles), the
//! pair's cancelled miter `C₂†C₁` ([`crate::dense::MiterReplay`], one
//! circuit apply) runs on the product state, and the return fidelity
//! `|⟨ψ|C₂†C₁|ψ⟩|²` is compared against 1. Equivalent circuits return
//! every input exactly; a fidelity deficit beyond tolerance is a
//! concrete, reproducible counterexample. Trials are distributed over
//! `std::thread::scope` workers (each owning its statevectors), at most
//! [`qsim::resolved_workers`] of them, with an early-exit flag once any
//! worker finds a witness.
//!
//! A clean pass is *statistical* evidence, not proof: the verdict is
//! [`Verdict::Equivalent`] with confidence `1 − 2^{−trials}` recorded in
//! the [`Report`].

use crate::miter::Miter;
use crate::{Report, Tier, Verdict, Witness, EPS, MAX_STIMULUS_QUBITS};
use qcir::Circuit;
use qsim::{SimError, Statevector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{PI, TAU};
use std::sync::atomic::{AtomicBool, Ordering};

/// Runs `trials` randomized trials of `miter`'s replay circuit over the
/// derived worker count (see [`effective_workers`]). Zero trials, or a
/// register past the statevector cap, build no replay.
pub(crate) fn check(miter: &mut Miter, trials: u64, seed: u64) -> Result<Report, SimError> {
    let n = miter.num_qubits();
    if trials == 0 {
        return Ok(Report {
            verdict: Verdict::Inconclusive { confidence: 0.0 },
            tier: Tier::Stimulus,
            trials: 0,
        });
    }
    if n > MAX_STIMULUS_QUBITS {
        return Err(SimError::TooManyQubits {
            requested: n,
            max: MAX_STIMULUS_QUBITS,
        });
    }
    let workers = effective_workers(trials, n);
    run(miter.replay()?.circuit(), trials, workers, seed)
}

/// Runs `trials ≥ 1` randomized trials of `miter` over `workers`
/// threads.
fn run(miter: &Circuit, trials: u64, workers: usize, seed: u64) -> Result<Report, SimError> {
    let n = miter.num_qubits();
    let stop = AtomicBool::new(false);

    let worker_results: Vec<Result<Option<Witness>, SimError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let stop = &stop;
                scope.spawn(move || -> Result<Option<Witness>, SimError> {
                    let mut found: Option<Witness> = None;
                    let mut trial = worker as u64;
                    while trial < trials && !stop.load(Ordering::Relaxed) {
                        let trial_seed = mix(seed, trial);
                        let prep = product_state_prep(n, trial_seed);
                        let input = Statevector::from_circuit(&prep)?;
                        let mut output = input.clone();
                        output.apply_circuit(miter)?;
                        let fidelity = input.fidelity(&output);
                        if fidelity < 1.0 - EPS {
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

/// Worker count: [`qsim::resolved_workers`] (`QSIM_WORKERS` if set,
/// else the available parallelism, at most 8), capped by the trial
/// count and by a per-register memory budget — each worker owns
/// two `2ⁿ`-amplitude statevectors, so wide registers get fewer
/// threads; at the `qsim::statevector::MAX_QUBITS` cap (28 qubits,
/// 4 GiB per state) a single worker runs, and the parallelism moves
/// *inside* each gate application via qsim's chunked kernels instead.
fn effective_workers(trials: u64, num_qubits: u32) -> usize {
    let available = qsim::resolved_workers();
    let memory_cap = match num_qubits {
        0..=19 => 8,
        20..=22 => 4,
        23..=24 => 2,
        _ => 1,
    };
    available.min(memory_cap).min(trials.max(1) as usize).max(1)
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

    /// [`run`] on the cancelled miter of `a` and `b`.
    fn run_pair(a: &Circuit, b: &Circuit, trials: u64, workers: usize, seed: u64) -> Report {
        let mut miter = Miter::new(a, b);
        run(miter.replay().unwrap().circuit(), trials, workers, seed).unwrap()
    }

    #[test]
    fn equivalent_circuits_pass_all_trials() {
        let mut a = Circuit::new(4);
        a.h(0).cx(0, 1).t(2).ccx(1, 2, 3);
        let report = run_pair(&a, &a.clone(), 6, 2, 11);
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
        let report = run_pair(&a, &b, 8, 3, 11);
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
        let one = run_pair(&a, &b, 8, 1, 5);
        let four = run_pair(&a, &b, 8, 4, 5);
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
        assert!(run_pair(&a, &b, 4, 2, 3).verdict.is_equivalent());
    }

    #[test]
    fn zero_trials_inconclusive() {
        let a = Circuit::new(2);
        let report = check(&mut Miter::new(&a, &a), 0, 1).unwrap();
        assert!(matches!(report.verdict, Verdict::Inconclusive { .. }));
        assert_eq!(report.confidence(), 0.0);
    }

    #[test]
    fn worker_budget_respects_register_width() {
        assert!(effective_workers(100, 24) >= 1);
        assert!(effective_workers(100, 24) <= 2);
        assert!(effective_workers(100, 10) <= 8);
        assert_eq!(effective_workers(1, 5), 1);
        assert_eq!(effective_workers(0, 5), 1);
        assert_eq!(effective_workers(100, 28), 1);
    }

    #[test]
    fn worker_count_never_exceeds_the_resolved_simulator_workers() {
        // `QSIM_WORKERS=1` pins the trial threads as it pins the kernels.
        for n in [1, 5, 19, 20, 23, 28] {
            for trials in [0, 1, 3, 8, 100] {
                let workers = effective_workers(trials, n);
                assert!(workers >= 1);
                assert!(
                    workers <= qsim::resolved_workers(),
                    "{n} wires, {trials} trials"
                );
            }
        }
    }
}

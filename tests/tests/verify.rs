//! Acceptance suite for the tiered `qverify` equivalence engine.
//!
//! Covers the scalability claims end to end:
//!
//! * a 50-qubit Clifford identity pair is certified by the **stabilizer
//!   tableau** tier, far beyond dense-unitary reach;
//! * a 34-qubit Clifford+T restore round-trip — past the statevector
//!   cap, where no tier could previously give an exact answer — is
//!   certified by the **ZX-calculus** tier, a restore corrupted by one
//!   trailing `T` is refuted by it with a replay-confirmed witness, and
//!   an unrelated circuit whose miter is too *branchy* for any replay
//!   backend honestly stays `Inconclusive` (ZX never guesses);
//! * the tier's historical blind spots are closed: `T` vs `T†` is
//!   rejected with a **relative-phase** witness, and a 30-qubit
//!   diagonal-plus-permutation residue — past the statevector cap — is
//!   witnessed through the **sparse basis-column** replay;
//! * 20- and 28-qubit wrong-key recombinations are rejected by the
//!   **ZX tier itself** with replay-confirmed basis witnesses — since
//!   the two-sided witness extension, sampling is no longer needed for
//!   these — and the **stimulus** tier still rejects them when forced,
//!   which keeps the raised statevector cap
//!   (`qsim::statevector::MAX_QUBITS`) covered end to end;
//! * a 30-qubit wrong-key pair — past *every* simulation cap, formerly
//!   `Inconclusive` — is rejected by the ZX tier with a bit-replay
//!   `BasisInput` witness;
//! * on every ≤12-qubit revlib benchmark the tiered verdict matches the
//!   dense-unitary ground truth.
//!
//! Plus property-based round-trips (correct key ⇒ equivalent, wrong key
//! ⇒ inequivalent) on random reversible circuits up to 24 qubits forced
//! through the stimulus tier, and ZX-vs-dense agreement on obfuscation
//! round-trips.

use proptest::prelude::*;
use qcir::random::{random_reversible, RandomCircuitConfig};
use qcir::{Circuit, Gate, Qubit};
use qsim::unitary::equivalent_up_to_phase;
use qverify::{Report, Tier, Verdict, Verifier, Witness, MAX_UNITARY_QUBITS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revlib::{all_benchmarks, classical_eval, classical_eval_bits};
use tetrislock::interlock::SplitPair;
use tetrislock::recombine::recombine;
use tetrislock::Obfuscator;

/// Recombination under a *wrong* interlock key: the designer-secret
/// wire map of the right segment with the images of its first two wires
/// swapped. `None` if the segment touches fewer than two wires.
fn wrong_key_recombination(split: &SplitPair) -> Option<Circuit> {
    let keys: Vec<Qubit> = split.right.wire_map.keys().copied().collect();
    if keys.len() < 2 {
        return None;
    }
    let mut bad = split.clone();
    let (a, b) = (keys[0], keys[1]);
    let va = bad.right.wire_map[&a];
    let vb = bad.right.wire_map[&b];
    bad.right.wire_map.insert(a, vb);
    bad.right.wire_map.insert(b, va);
    recombine(&bad).ok()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counts how many of 128 pseudo-random basis inputs the two classical
/// circuits map differently — cheap ground truth for "really wrong".
fn sampled_divergence(a: &Circuit, b: &Circuit) -> usize {
    let mask = (1usize << a.num_qubits()) - 1;
    (0..128u64)
        .filter(|&i| {
            let input = splitmix(i) as usize & mask;
            classical_eval(a, input).unwrap() != classical_eval(b, input).unwrap()
        })
        .count()
}

#[test]
fn fifty_qubit_clifford_pair_certified_by_tableau_tier() {
    let n = 50u32;
    let mut rng = StdRng::seed_from_u64(42);
    let mut a = Circuit::with_name(n, "clifford50");
    for _ in 0..300 {
        match rng.gen_range(0..3u8) {
            0 => {
                a.h(rng.gen_range(0..n));
            }
            1 => {
                a.s(rng.gen_range(0..n));
            }
            _ => {
                let c = rng.gen_range(0..n);
                let mut t = rng.gen_range(0..n);
                while t == c {
                    t = rng.gen_range(0..n);
                }
                a.cx(c, t);
            }
        }
    }
    // Identity pair: same circuit with extra canceling redundancy.
    let mut b = a.clone();
    b.h(17).h(17).z(3).s(3).s(3);
    let verifier = Verifier::new();
    let report = verifier.check_report(&a, &b);
    assert_eq!(report.tier, Tier::Tableau, "{report}");
    assert!(report.verdict.is_equivalent(), "{report}");
    assert_eq!(report.confidence(), 1.0);

    // One stray S gate must flip the verdict, with a generator witness.
    b.s(29);
    let report = verifier.check_report(&a, &b);
    assert_eq!(report.tier, Tier::Tableau);
    assert!(
        matches!(
            report.verdict,
            Verdict::Inequivalent {
                witness: Witness::Generator { .. }
            }
        ),
        "{report}"
    );
}

/// A random Clifford+T circuit: H/S/T/CX/CCX, seeded.
fn random_clifford_t(n: u32, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::with_name(n, "clifford_t");
    let distinct = |rng: &mut StdRng, used: &[u32]| loop {
        let q = rng.gen_range(0..n);
        if !used.contains(&q) {
            return q;
        }
    };
    for _ in 0..gates {
        match rng.gen_range(0..5u8) {
            0 => {
                c.h(rng.gen_range(0..n));
            }
            1 => {
                c.s(rng.gen_range(0..n));
            }
            2 => {
                c.t(rng.gen_range(0..n));
            }
            3 => {
                let a = rng.gen_range(0..n);
                let b = distinct(&mut rng, &[a]);
                c.cx(a, b);
            }
            _ => {
                let a = rng.gen_range(0..n);
                let b = distinct(&mut rng, &[a]);
                let t = distinct(&mut rng, &[a, b]);
                c.ccx(a, b, t);
            }
        }
    }
    c
}

#[test]
fn thirty_four_qubit_clifford_t_roundtrip_certified_by_zx_tier() {
    // ISSUE 3 acceptance: past the statevector cap (now 28 qubits) a
    // Clifford+T restore round-trip used to be Inconclusive — no tier
    // applied. The ZX tier now certifies it *exactly*.
    let n = 34u32;
    assert!(n > qverify::MAX_STIMULUS_QUBITS);
    let c = random_clifford_t(n, 240, 7);
    let verifier = Verifier::new();
    assert!(
        verifier.check_tableau(&c, &c.clone()).is_none(),
        "pair must be non-Clifford for the claim to be meaningful"
    );

    let obf = Obfuscator::new().with_seed(3).obfuscate(&c);
    let split = obf.split(11);
    let restored = recombine(&split).unwrap();
    let report = verifier.check_report(&c, &restored);
    assert_eq!(report.tier, Tier::Zx, "{report}");
    assert!(report.verdict.is_equivalent(), "{report}");
    assert_eq!(report.confidence(), 1.0);

    // A restore corrupted by one trailing T is witnessed at this size:
    // the replay drops the miter's cancelling pairs, which leaves the
    // corruption's light cone, and its |0…0⟩ column keeps only
    // cos(π/8) of its own ray.
    let mut corrupted = restored.clone();
    corrupted.t(5);
    let report = verifier.check_report(&c, &corrupted);
    assert_eq!(report.tier, Tier::Zx, "{report}");
    match report.verdict {
        Verdict::Inequivalent {
            witness: Witness::BasisColumn { input: 0, overlap },
        } => assert!(
            (overlap - (std::f64::consts::PI / 8.0).cos()).abs() < 1e-9,
            "{report}"
        ),
        _ => panic!("expected a basis-column witness: {report}"),
    }

    // An unrelated circuit cannot be *witnessed* at this size: nothing
    // cancels, the miter carries dozens of Hadamards, so every basis
    // column's support passes the sparse column's budget, the register
    // is past the statevector cap (no dense replay), and the circuits
    // are not classical (no bit replay) — so the witness extension has
    // nothing sound to offer and the dispatch honestly reports
    // Inconclusive rather than guessing.
    let unrelated = random_clifford_t(n, 240, 8);
    assert!(verifier.check_zx(&c, &unrelated).is_none());
    let report = verifier.check_report(&c, &unrelated);
    assert!(
        matches!(report.verdict, Verdict::Inconclusive { .. }),
        "{report}"
    );
}

#[test]
fn zx_certificates_agree_with_dense_on_revlib_roundtrips() {
    // Soundness gate for the new tier: everywhere dense ground truth is
    // available, a ZX certificate must coincide with it (stalls are
    // allowed; false certificates are not).
    let verifier = Verifier::new();
    let mut certified = 0u32;
    for bench in all_benchmarks() {
        let c = bench.circuit();
        let obf = Obfuscator::new().with_seed(5).obfuscate(c);
        let restored = recombine(&obf.split(9)).unwrap();
        if let Some(report) = verifier.check_zx(c, &restored) {
            certified += 1;
            assert!(report.verdict.is_equivalent());
            assert!(
                equivalent_up_to_phase(c, &restored, 1e-9).unwrap(),
                "{}: ZX certified a pair dense rejects",
                bench.name()
            );
        }
        // Corrupted candidates must never be certified equivalent; with
        // the witness extension ZX may now *reject* them outright, and
        // any such rejection must agree with dense ground truth.
        let mut corrupted = restored.clone();
        corrupted.x(0);
        if let Some(report) = verifier.check_zx(c, &corrupted) {
            assert!(
                report.verdict.is_inequivalent(),
                "{}: ZX must not certify a corrupted restore",
                bench.name()
            );
            assert!(
                !equivalent_up_to_phase(c, &corrupted, 1e-9).unwrap(),
                "{}: ZX witnessed a pair dense accepts",
                bench.name()
            );
        }
    }
    assert!(certified >= 3, "cross-check must not be vacuous");
}

#[test]
fn twenty_qubit_wrong_key_rejected_exactly_by_zx_witness() {
    let c = random_reversible(&RandomCircuitConfig::new(20, 40, 9));
    let obf = Obfuscator::new().with_seed(4).obfuscate(&c);
    let split = obf.split(21);
    let verifier = Verifier::new().with_trials(4).with_seed(77);

    // Correct key: the 20-qubit register is past both the classical
    // exhaustive cap and the dense cap.
    let restored = recombine(&split).unwrap();
    let report = verifier.check_report(&c, &restored);
    // Since the ZX tier landed, the correct-key round-trip is decided
    // *exactly* — the miter's inserted R⁻¹R pairs and mirrored gates
    // all cancel under graph rewriting, so no sampling is needed.
    assert_eq!(report.tier, Tier::Zx, "{report}");
    assert!(report.verdict.is_equivalent(), "{report}");
    assert_eq!(report.confidence(), 1.0);

    // Wrong key: swapped wire-map images. ISSUE 3 left this to the
    // sampling tier; since the two-sided witness extension (ISSUE 5)
    // the ZX tier rejects it itself, with a replay-confirmed basis
    // witness — exact, no trials.
    let bad = wrong_key_recombination(&split).expect("right segment spans ≥2 wires");
    assert!(
        sampled_divergence(&c, &bad) > 0,
        "chosen seeds must yield a functionally wrong key"
    );
    let report = verifier.check_report(&c, &bad);
    assert_eq!(report.tier, Tier::Zx, "{report}");
    match &report.verdict {
        Verdict::Inequivalent {
            witness: Witness::BasisInput { input, .. },
        } => {
            // Bit-replay witness (both circuits classical): checkable
            // outside the verifier entirely.
            assert_ne!(
                classical_eval_bits(&c, input).unwrap(),
                classical_eval_bits(&bad, input).unwrap()
            );
        }
        Verdict::Inequivalent {
            witness: Witness::BasisColumn { overlap, .. },
        } => assert!(*overlap < 1.0 - 1e-9),
        other => panic!("expected a ZX basis witness, got {other}"),
    }
    assert_eq!(report.confidence(), 1.0);

    // The stimulus tier must still reject the pair when forced — the
    // sampling fallback stays healthy for residues ZX cannot see.
    let report = verifier.check_stimulus(&c, &bad).unwrap();
    assert_eq!(report.tier, Tier::Stimulus);
    let Verdict::Inequivalent {
        witness:
            Witness::Stimulus {
                trial,
                seed,
                fidelity,
            },
    } = report.verdict
    else {
        panic!("expected a stimulus witness, got {}", report.verdict);
    };
    // The witness is concrete: a reproducible trial with fidelity < 1.
    assert!(fidelity < 1.0 - 1e-9, "trial {trial} seed {seed:#x}");
}

#[test]
fn twenty_eight_qubit_wrong_key_rejected_at_the_raised_stimulus_cap() {
    // ISSUE 4 acceptance: the stimulus tier inherits the raised
    // statevector cap (26 → 28 qubits) and certifies a wrong-key
    // witness on a register the dense engines cannot touch. One worker
    // owns the 2²⁸-amplitude miter (4 GiB per state); the parallelism
    // lives inside qsim's chunked kernels. Since ISSUE 5 the normal
    // dispatch no longer *needs* sampling here — the ZX tier rejects
    // the pair first with an exact replay witness — so the cap claim is
    // kept covered by forcing the stimulus tier explicitly.
    let n = 28u32;
    assert_eq!(
        qverify::MAX_STIMULUS_QUBITS,
        n,
        "stimulus cap must track qsim"
    );
    let c = random_reversible(&RandomCircuitConfig::new(n, 16, 3));
    let obf = Obfuscator::new().with_seed(6).obfuscate(&c);
    let split = obf.split(19);
    let bad = wrong_key_recombination(&split).expect("right segment spans ≥2 wires");
    assert!(
        sampled_divergence(&c, &bad) > 0,
        "chosen seeds must yield a functionally wrong key"
    );
    // The dispatch decides exactly, via the ZX tier's confirmed basis
    // witness — no 4 GiB statevector is even allocated.
    let verifier = Verifier::new().with_trials(2).with_seed(41);
    let report = verifier.check_report(&c, &bad);
    assert_eq!(report.tier, Tier::Zx, "{report}");
    assert!(report.verdict.is_inequivalent(), "{report}");
    assert_eq!(report.confidence(), 1.0);
    // Forced stimulus: two trials configured; the witness lands on the
    // first, so only one 28-qubit miter replay actually runs.
    let report = verifier.check_stimulus(&c, &bad).unwrap();
    assert_eq!(report.tier, Tier::Stimulus, "{report}");
    let Verdict::Inequivalent {
        witness: Witness::Stimulus { fidelity, .. },
    } = report.verdict
    else {
        panic!("expected a stimulus witness, got {}", report.verdict);
    };
    assert!(fidelity < 1.0 - 1e-9);
}

#[test]
fn thirty_qubit_wrong_key_rejected_past_every_simulation_cap() {
    // ISSUE 5 acceptance: a 30-qubit wrong-key pair is past the
    // classical-exhaustive cap (16), the dense cap (12) and the
    // stimulus cap (28) — before the witness extension it was
    // Inconclusive. The ZX tier now rejects it with a bit-replay
    // BasisInput witness, exact at any width.
    let n = 30u32;
    assert!(n > qverify::MAX_STIMULUS_QUBITS);
    let c = random_reversible(&RandomCircuitConfig::new(n, 24, 12));
    let obf = Obfuscator::new().with_seed(9).obfuscate(&c);
    let split = obf.split(23);
    let restored = recombine(&split).unwrap();
    let verifier = Verifier::new();
    let report = verifier.check_report(&c, &restored);
    assert_eq!(report.tier, Tier::Zx, "{report}");
    assert!(report.verdict.is_equivalent(), "{report}");

    let bad = wrong_key_recombination(&split).expect("right segment spans ≥2 wires");
    assert!(
        sampled_divergence(&c, &bad) > 0,
        "chosen seeds must yield a functionally wrong key"
    );
    let report = verifier.check_report(&c, &bad);
    assert_eq!(report.tier, Tier::Zx, "{report}");
    assert_eq!(report.confidence(), 1.0);
    let Verdict::Inequivalent {
        witness:
            Witness::BasisInput {
                input,
                left_output,
                right_output,
            },
    } = report.verdict
    else {
        panic!(
            "expected a bit-replay basis witness, got {}",
            report.verdict
        );
    };
    // The witness survives independent re-evaluation.
    assert_eq!(classical_eval_bits(&c, &input).unwrap(), left_output);
    assert_eq!(classical_eval_bits(&bad, &input).unwrap(), right_output);
    assert_ne!(left_output, right_output);
}

#[test]
fn t_versus_tdg_certified_with_relative_phase_witness() {
    // The tier cascade's canonical blind spot, closed: T vs T† leaves a
    // purely diagonal miter residue that no single basis input can see.
    // Past the dense cap the phase replay certifies it at the ZX tier
    // itself: basis eigenvectors |0⟩ and |1⟩ acquire different phases
    // through the miter, and that disagreement is the witness. Within
    // the cap the sparse dense columns reach the same witness first.
    for (n, tier) in [(MAX_UNITARY_QUBITS + 1, Tier::Zx), (1, Tier::Dense)] {
        let mut a = Circuit::new(n);
        a.t(0);
        let mut b = Circuit::new(n);
        b.tdg(0);
        let report = Verifier::new().check_report(&a, &b);
        assert_eq!(report.tier, tier, "{n} wires: {report}");
        assert_eq!(report.confidence(), 1.0);
        assert!(
            matches!(
                report.verdict,
                Verdict::Inequivalent {
                    witness: Witness::RelativePhase {
                        input_a: 0,
                        input_b: 1
                    }
                }
            ),
            "{report}"
        );
    }
}

#[test]
fn thirty_qubit_diagonal_witness_via_sharded_column_replay() {
    // A 30-qubit non-classical wrong pair: past the statevector cap,
    // so a statevector basis replay could never certify it. The miter
    // has no branching gates, so each replayed basis column keeps a
    // single amplitude and confirms the witness — the permutation
    // residue shows up as a vanished diagonal amplitude (a BasisColumn
    // witness), and the t/tdg garnish keeps the pair off the classical
    // and Clifford tiers.
    let n = 30u32;
    assert!(n > qverify::MAX_STIMULUS_QUBITS);
    assert!(n <= qverify::MAX_COLUMN_QUBITS);
    let mut a = Circuit::new(n);
    a.t(0).tdg(0).swap(3, 7);
    let b = Circuit::new(n);
    let report = Verifier::new().check_report(&a, &b);
    assert_eq!(report.tier, Tier::Zx, "{report}");
    assert_eq!(report.confidence(), 1.0);
    let Verdict::Inequivalent {
        witness: Witness::BasisColumn { input, overlap },
    } = report.verdict
    else {
        panic!("expected a sparse-replay basis-column witness, got {report}");
    };
    // A single-bit probe on an active wire sees the crossed wires: the
    // miter moves |...1_3...⟩ to |...1_7...⟩, so the diagonal amplitude
    // vanishes.
    assert!(overlap < 1e-9, "overlap {overlap}");
    assert!(input == 1 << 3 || input == 1 << 7, "input {input:#b}");
}

#[test]
fn tiered_verdict_matches_dense_unitary_on_all_revlib_benchmarks() {
    let verifier = Verifier::new();
    for bench in all_benchmarks() {
        let c = bench.circuit();
        assert!(
            c.num_qubits() <= MAX_UNITARY_QUBITS,
            "{} exceeds the dense cap",
            bench.name()
        );
        let obf = Obfuscator::new().with_seed(7).obfuscate(c);
        let split = obf.split(13);
        let restored = recombine(&split).unwrap();

        let tiered = verifier.check(c, &restored).is_equivalent();
        let dense = equivalent_up_to_phase(c, &restored, 1e-9).unwrap();
        assert_eq!(tiered, dense, "{}: tier disagrees with dense", bench.name());
        assert!(dense, "{}: round-trip must restore", bench.name());

        let mut corrupted = restored.clone();
        corrupted.x(0);
        let tiered = verifier.check(c, &corrupted).is_equivalent();
        let dense = equivalent_up_to_phase(c, &corrupted, 1e-9).unwrap();
        assert_eq!(
            tiered,
            dense,
            "{}: tier disagrees with dense on corrupted candidate",
            bench.name()
        );
        assert!(!dense, "{}: corruption must be detected", bench.name());
    }
}

#[test]
fn verify_roundtrip_helper_uses_tiered_engine() {
    let c = random_reversible(&RandomCircuitConfig::new(18, 30, 5));
    let obf = Obfuscator::new().with_seed(2).obfuscate(&c);
    let split = obf.split(6);
    let verifier = Verifier::new().with_trials(3).with_seed(8);
    let verdict = obf.verify_roundtrip(&split, &verifier).unwrap();
    assert!(verdict.is_equivalent());
}

/// Strategy: a random classical reversible circuit with `lo..=hi`
/// qubits — wide enough to land beyond the dense-unitary cap.
fn wide_classical_circuit(lo: u32, hi: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (lo..=hi, 1..=max_gates).prop_flat_map(|(n, len)| {
        let gate = prop_oneof![
            (0..n).prop_map(|q| (Gate::X, vec![q])),
            (0..n, 0..n).prop_filter_map("distinct wires", move |(a, b)| {
                (a != b).then(|| (Gate::CX, vec![a, b]))
            }),
            (0..n, 0..n, 0..n).prop_filter_map("distinct wires", move |(a, b, c)| {
                (a != b && b != c && a != c).then(|| (Gate::CCX, vec![a, b, c]))
            }),
        ];
        proptest::collection::vec(gate, 1..=len).prop_map(move |gates| {
            let mut circuit = Circuit::with_name(n, "wide_prop");
            for (g, wires) in gates {
                circuit.append(g, &wires).expect("generated wires valid");
            }
            circuit
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn roundtrip_with_correct_key_is_equivalent_via_stimulus(
        circuit in wide_classical_circuit(14, 24, 10),
        seed in 0u64..1000,
    ) {
        let obf = Obfuscator::new().with_seed(seed).obfuscate(&circuit);
        let split = obf.split(seed ^ 0x5A5A);
        let restored = recombine(&split).unwrap();
        let verifier = Verifier::new()
            .with_trials(2)
            .with_seed(seed);
        let report: Report = verifier.check_stimulus(&circuit, &restored).unwrap();
        prop_assert_eq!(report.tier, Tier::Stimulus);
        prop_assert!(
            report.verdict.is_equivalent(),
            "{} qubits: {}", circuit.num_qubits(), report
        );
    }

    #[test]
    fn roundtrip_with_wrong_key_is_inequivalent_via_stimulus(
        circuit in wide_classical_circuit(14, 24, 10),
        seed in 0u64..1000,
    ) {
        let obf = Obfuscator::new().with_seed(seed).obfuscate(&circuit);
        let split = obf.split(seed ^ 0x1234);
        let Some(bad) = wrong_key_recombination(&split) else {
            return Ok(()); // degenerate split: fewer than two right wires
        };
        // Only assert on keys that are *substantially* wrong (≥ ~6% of
        // sampled basis inputs diverge); a lucky swap can hit circuit
        // symmetry and stay equivalent.
        if sampled_divergence(&circuit, &bad) < 8 {
            return Ok(());
        }
        let verifier = Verifier::new()
            .with_trials(2)
            .with_seed(seed);
        let report = verifier.check_stimulus(&circuit, &bad).unwrap();
        prop_assert!(
            matches!(
                &report.verdict,
                Verdict::Inequivalent { witness: Witness::Stimulus { .. } }
            ),
            "{} qubits: {}", circuit.num_qubits(), report
        );
    }
}

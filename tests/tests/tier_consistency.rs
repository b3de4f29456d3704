//! Differential tier-consistency harness for the `qverify` cascade.
//!
//! ISSUE 10 acceptance: over 200 seeded circuit pairs — equivalent by
//! construction (identity insertion, disjoint-wire commutation) or
//! inequivalent by construction (a single-gate phase or wire mutation)
//! — every tier that *can* speak must tell the same story:
//!
//! * every decisive tier verdict (dispatch, forced tableau, forced ZX,
//!   forced dense) agrees with the by-construction expectation;
//! * no two decisive tiers ever contradict each other on the same pair;
//! * where dense ground truth is reachable it is computed independently
//!   (`equivalent_up_to_phase`) and every decisive verdict must match;
//! * for classical pairs the ground truth is bit-level replay, exact at
//!   any width;
//! * the stimulus tier is held to soundness only — a concrete witness
//!   must never appear on an equivalent pair (its accepts are
//!   statistical by contract, so they are not required);
//! * **no reversible pair at any nameable width, and no Clifford+T
//!   wrong-key pair up to 32 qubits with column-replayable branching,
//!   is allowed to end `Inconclusive`** — these are exactly the blind
//!   spots this issue closes.
//!
//! A single-gate mutation `g → g'` at a fixed position is guaranteed
//! inequivalent whenever `g·g'⁻¹` is not a global phase: the miter
//! collapses to `S† (g·g'⁻¹) S` for the shared suffix `S`, which is the
//! identity up to phase iff `g·g'⁻¹` is. Every mutation below (T→T†,
//! S→S†, and any retargeting of a wire) satisfies that, so the expected
//! verdicts need no sampling escape hatch.

use qcir::{Circuit, Gate};
use qsim::unitary::equivalent_up_to_phase;
use qverify::{Tier, Verdict, Verifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revlib::classical_eval_bits;

const EPS: f64 = 1e-9;

/// One gate as data, so a sequence can be mutated before materializing.
type GateSeq = Vec<(Gate, Vec<u32>)>;

fn materialize(n: u32, name: &str, gates: &GateSeq) -> Circuit {
    let mut c = Circuit::with_name(n, name);
    for (g, wires) in gates {
        c.append(g.clone(), wires)
            .expect("generated wires are valid");
    }
    c
}

fn distinct(rng: &mut StdRng, n: u32, used: &[u32]) -> u32 {
    loop {
        let q = rng.gen_range(0..n);
        if !used.contains(&q) {
            return q;
        }
    }
}

/// Random reversible sequence: X/CX/CCX/Swap.
fn reversible_seq(n: u32, len: usize, rng: &mut StdRng) -> GateSeq {
    (0..len)
        .map(|_| match rng.gen_range(0..4u8) {
            0 => (Gate::X, vec![rng.gen_range(0..n)]),
            1 => {
                let a = rng.gen_range(0..n);
                (Gate::CX, vec![a, distinct(rng, n, &[a])])
            }
            2 => {
                let a = rng.gen_range(0..n);
                let b = distinct(rng, n, &[a]);
                (Gate::CCX, vec![a, b, distinct(rng, n, &[a, b])])
            }
            _ => {
                let a = rng.gen_range(0..n);
                (Gate::Swap, vec![a, distinct(rng, n, &[a])])
            }
        })
        .collect()
}

/// Random Clifford sequence: H/S/CX/CZ.
fn clifford_seq(n: u32, len: usize, rng: &mut StdRng) -> GateSeq {
    (0..len)
        .map(|_| match rng.gen_range(0..4u8) {
            0 => (Gate::H, vec![rng.gen_range(0..n)]),
            1 => (Gate::S, vec![rng.gen_range(0..n)]),
            2 => {
                let a = rng.gen_range(0..n);
                (Gate::CX, vec![a, distinct(rng, n, &[a])])
            }
            _ => {
                let a = rng.gen_range(0..n);
                (Gate::CZ, vec![a, distinct(rng, n, &[a])])
            }
        })
        .collect()
}

/// Random Clifford+T sequence with at most `max_h` Hadamards, so the
/// miter of any pair built from two such sequences reaches at most
/// `2^(2·max_h)` live amplitudes in its sparse column replay.
fn clifford_t_seq(n: u32, len: usize, max_h: usize, rng: &mut StdRng) -> GateSeq {
    let mut h_left = max_h;
    (0..len)
        .map(|_| match rng.gen_range(0..5u8) {
            0 if h_left > 0 => {
                h_left -= 1;
                (Gate::H, vec![rng.gen_range(0..n)])
            }
            0 | 1 => (Gate::S, vec![rng.gen_range(0..n)]),
            2 => (Gate::T, vec![rng.gen_range(0..n)]),
            3 => {
                let a = rng.gen_range(0..n);
                (Gate::CX, vec![a, distinct(rng, n, &[a])])
            }
            _ if n >= 3 => {
                let a = rng.gen_range(0..n);
                let b = distinct(rng, n, &[a]);
                (Gate::CCX, vec![a, b, distinct(rng, n, &[a, b])])
            }
            _ => (Gate::T, vec![rng.gen_range(0..n)]),
        })
        .collect()
}

/// Equivalent-by-construction variant: insert a canceling identity pair
/// at a random position, then (where possible) commute one adjacent
/// pair of gates acting on disjoint wires.
fn equivalent_variant(n: u32, gates: &GateSeq, rng: &mut StdRng, classical: bool) -> GateSeq {
    let mut out = gates.clone();
    let at = rng.gen_range(0..=out.len());
    let pair: [(Gate, Vec<u32>); 2] = if classical {
        match rng.gen_range(0..3u8) {
            0 => {
                let q = rng.gen_range(0..n);
                [(Gate::X, vec![q]), (Gate::X, vec![q])]
            }
            1 => {
                let a = rng.gen_range(0..n);
                let b = distinct(rng, n, &[a]);
                [(Gate::CX, vec![a, b]), (Gate::CX, vec![a, b])]
            }
            _ => {
                let a = rng.gen_range(0..n);
                let b = distinct(rng, n, &[a]);
                [(Gate::Swap, vec![a, b]), (Gate::Swap, vec![a, b])]
            }
        }
    } else {
        match rng.gen_range(0..3u8) {
            0 => {
                let q = rng.gen_range(0..n);
                [(Gate::S, vec![q]), (Gate::Sdg, vec![q])]
            }
            1 => {
                let q = rng.gen_range(0..n);
                [(Gate::T, vec![q]), (Gate::Tdg, vec![q])]
            }
            _ => {
                let a = rng.gen_range(0..n);
                let b = distinct(rng, n, &[a]);
                [(Gate::CZ, vec![a, b]), (Gate::CZ, vec![a, b])]
            }
        }
    };
    out.splice(at..at, pair);
    // Commute one adjacent disjoint-wire pair, if any exists.
    for i in 0..out.len().saturating_sub(1) {
        let disjoint = out[i].1.iter().all(|w| !out[i + 1].1.contains(w));
        if disjoint {
            out.swap(i, i + 1);
            break;
        }
    }
    out
}

/// Inequivalent-by-construction variant: mutate exactly one gate in
/// place — a phase flip where the gate supports one, a wire retarget
/// otherwise. Both leave `g·g'⁻¹` a non-phase operator.
fn mutated_variant(n: u32, gates: &GateSeq, rng: &mut StdRng) -> GateSeq {
    let mut out = gates.clone();
    let k = rng.gen_range(0..out.len());
    let (gate, wires) = &mut out[k];
    match gate {
        Gate::T => *gate = Gate::Tdg,
        Gate::Tdg => *gate = Gate::T,
        Gate::S => *gate = Gate::Sdg,
        Gate::Sdg => *gate = Gate::S,
        _ if (wires.len() as u32) < n => {
            // Retarget the last wire of the gate to a fresh one.
            let last = wires.len() - 1;
            wires[last] = distinct(rng, n, wires);
        }
        _ => {
            // The gate covers the whole register (CX at 2 wires, CCX
            // at 3): reverse its wires instead — a different operator
            // for every asymmetric gate this can reach.
            wires.reverse();
        }
    }
    out
}

/// Decisive verdicts only; `None` for `Inconclusive`.
fn decisive(verdict: &Verdict) -> Option<bool> {
    match verdict {
        Verdict::Equivalent => Some(true),
        Verdict::Inequivalent { .. } => Some(false),
        Verdict::Inconclusive { .. } => None,
    }
}

/// Runs one pair through every applicable tier and cross-checks all of
/// them against each other, against independent ground truth, and
/// against the by-construction expectation.
///
/// `must_decide` enforces the issue's completion contract: the normal
/// dispatch is not allowed to end `Inconclusive` for this pair.
fn check_case(name: &str, a: &Circuit, b: &Circuit, expected: bool, must_decide: bool) {
    let n = a.num_qubits();
    let verifier = Verifier::new().with_trials(6).with_seed(0xC0FFEE);
    let mut verdicts: Vec<(&str, bool)> = Vec::new();

    let dispatch = verifier.check_report(a, b);
    if let Some(v) = decisive(&dispatch.verdict) {
        verdicts.push(("dispatch", v));
    } else {
        assert!(
            !must_decide,
            "{name}: dispatch must not be Inconclusive, got {dispatch} (tier {})",
            dispatch.tier
        );
    }

    if let Some(report) = verifier.check_tableau(a, b) {
        verdicts.push((
            "tableau",
            decisive(&report.verdict).expect("tableau is exact"),
        ));
    }
    if let Some(report) = verifier.check_zx(a, b) {
        verdicts.push(("zx", decisive(&report.verdict).expect("zx is exact")));
    }
    // Dense ground truth where the unitary is small enough to be cheap
    // across a 200+ pair sweep.
    if n <= 9 {
        let dense = verifier.check_dense(a, b).expect("within the dense cap");
        verdicts.push(("dense", decisive(&dense.verdict).expect("dense is exact")));
        let ground = equivalent_up_to_phase(a, b, EPS).expect("within the dense cap");
        verdicts.push(("unitary-ground-truth", ground));
    }
    // Classical ground truth at any width: bit replay on seeded probes
    // (an observed divergence proves inequivalence; full agreement on
    // equivalent-by-construction pairs is a necessary condition).
    let classical = |c: &Circuit| c.iter().all(|i| i.gate().is_classical());
    if classical(a) && classical(b) {
        let mut probe_rng = StdRng::seed_from_u64(0xBEEF);
        let diverged = (0..64).any(|_| {
            let mut x = qcir::BasisBits::zeros(n);
            for w in 0..n {
                x.set(w, probe_rng.gen_bool(0.5));
            }
            classical_eval_bits(a, &x).unwrap() != classical_eval_bits(b, &x).unwrap()
        });
        if diverged {
            verdicts.push(("bit-replay-ground-truth", false));
        } else if expected {
            verdicts.push(("bit-replay-ground-truth", true));
        }
    }
    // Stimulus: soundness only — witnesses must be real; statistical
    // accepts are not decisive evidence and are not required.
    if n <= 14 {
        let report = verifier.check_stimulus(a, b).expect("within stimulus cap");
        if report.verdict.is_inequivalent() {
            verdicts.push(("stimulus-witness", false));
        }
    }

    assert!(
        !verdicts.is_empty(),
        "{name}: no tier produced any decisive verdict"
    );
    for (tier, verdict) in &verdicts {
        assert_eq!(
            *verdict, expected,
            "{name}: tier `{tier}` disagrees with the by-construction \
             expectation (all verdicts: {verdicts:?})"
        );
    }
}

#[test]
fn reversible_pairs_all_tiers_agree_and_decide_at_any_width() {
    // 88 pairs, 4 to 96 wires — through the classical exhaustive tier,
    // the ZX reduction, and (wrong keys) the any-width bit replay.
    for &n in &[4u32, 6, 8, 12, 16, 24, 32, 48, 64, 80, 96] {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + n as u64);
            let len = 12 + (n as usize) / 2;
            let base = reversible_seq(n, len, &mut rng);
            let a = materialize(n, "rev_base", &base);

            let good = equivalent_variant(n, &base, &mut rng, true);
            let b = materialize(n, "rev_good", &good);
            check_case(
                &format!("reversible/{n}q/s{seed}/equal"),
                &a,
                &b,
                true,
                true,
            );

            let bad = mutated_variant(n, &base, &mut rng);
            let c = materialize(n, "rev_bad", &bad);
            check_case(
                &format!("reversible/{n}q/s{seed}/mutated"),
                &a,
                &c,
                false,
                true,
            );
        }
    }
}

#[test]
fn clifford_pairs_all_tiers_agree_and_decide_at_any_width() {
    // 48 pairs, 3 to 40 wires: the tableau tier is exact at any width,
    // and ZX/dense must never contradict it.
    for &n in &[3u32, 5, 8, 12, 20, 40] {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 2000 + n as u64);
            let len = 10 + n as usize;
            let base = clifford_seq(n, len, &mut rng);
            let a = materialize(n, "cliff_base", &base);

            let good = equivalent_variant(n, &base, &mut rng, false);
            let b = materialize(n, "cliff_good", &good);
            check_case(&format!("clifford/{n}q/s{seed}/equal"), &a, &b, true, true);

            let bad = mutated_variant(n, &base, &mut rng);
            let c = materialize(n, "cliff_bad", &bad);
            check_case(
                &format!("clifford/{n}q/s{seed}/mutated"),
                &a,
                &c,
                false,
                true,
            );
        }
    }
}

#[test]
fn small_clifford_t_pairs_match_dense_ground_truth() {
    // 64 pairs, 2 to 9 wires, all within reach of the independent
    // unitary ground truth — the strongest cross-check available.
    for n in 2u32..=9 {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 3000 + n as u64);
            let base = clifford_t_seq(n, 14, 4, &mut rng);
            let a = materialize(n, "ct_base", &base);

            let good = equivalent_variant(n, &base, &mut rng, false);
            let b = materialize(n, "ct_good", &good);
            check_case(
                &format!("clifford_t/{n}q/s{seed}/equal"),
                &a,
                &b,
                true,
                true,
            );

            let bad = mutated_variant(n, &base, &mut rng);
            let c = materialize(n, "ct_bad", &bad);
            check_case(
                &format!("clifford_t/{n}q/s{seed}/mutated"),
                &a,
                &c,
                false,
                true,
            );
        }
    }
}

#[test]
fn wide_bounded_branching_clifford_t_pairs_stay_decided_to_32_qubits() {
    // 24 pairs, 16 to 32 wires — past the dense cap and (at 30/32) past
    // the statevector cap. Each sequence carries at most 4 Hadamards,
    // so every miter column peaks at 2^8 = 256 live amplitudes, inside
    // `qsim::column::support_budget(n)` (4,096 at 16 wires, 65,536 from
    // 20 wires on), and the sparse column replay can certify what the
    // reduction alone cannot, even past the statevector cap.
    for &n in &[16u32, 24, 30, 32] {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed * 4000 + n as u64);
            let base = clifford_t_seq(n, 20 + n as usize / 2, 4, &mut rng);
            let a = materialize(n, "wide_ct_base", &base);

            let good = equivalent_variant(n, &base, &mut rng, false);
            let b = materialize(n, "wide_ct_good", &good);
            check_case(&format!("wide_ct/{n}q/s{seed}/equal"), &a, &b, true, true);

            let bad = mutated_variant(n, &base, &mut rng);
            let c = materialize(n, "wide_ct_bad", &bad);
            check_case(
                &format!("wide_ct/{n}q/s{seed}/mutated"),
                &a,
                &c,
                false,
                true,
            );
        }
    }
}

#[test]
fn harness_covers_at_least_two_hundred_pairs() {
    // The sweep sizes above are data, not code — keep the advertised
    // coverage honest if someone trims a width list.
    let reversible = 11 * 4 * 2;
    let clifford = 6 * 4 * 2;
    let small_ct = 8 * 4 * 2;
    let wide_ct = 4 * 3 * 2;
    assert!(reversible + clifford + small_ct + wide_ct >= 200);
}

#[test]
fn no_tier_contradicts_another_on_undecidable_shapes() {
    // Even where the dispatch is *allowed* to end Inconclusive (an
    // untranslatable mcx garnish at 30 qubits), no decisive tier may
    // contradict another: forced tiers must refuse rather than guess.
    let n = 30u32;
    let controls: Vec<u32> = (0..8).collect();
    let mut a = Circuit::new(n);
    a.mcx(&controls, 8).t(8);
    let mut b = Circuit::new(n);
    b.mcx(&controls, 8).tdg(8);
    let verifier = Verifier::new();
    assert!(verifier.check_tableau(&a, &b).is_none());
    assert!(verifier.check_zx(&a, &b).is_none());
    let report = verifier.check_report(&a, &b);
    assert_eq!(report.tier, Tier::Structural, "{report}");
    assert!(matches!(report.verdict, Verdict::Inconclusive { .. }));
}

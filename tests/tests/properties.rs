//! Property-based tests (proptest) over randomly generated circuits:
//! the TetrisLock invariants must hold for *arbitrary* classical
//! reversible circuits, not just the RevLib set.

use proptest::prelude::*;
use qcir::{Circuit, Gate};
use revlib::spec::classical_eval;
use tetrislock::recombine::recombine;
use tetrislock::{InsertionConfig, Obfuscator};

/// Strategy: a random classical reversible circuit over `n` qubits.
fn classical_circuit(max_qubits: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (3..=max_qubits, 1..=max_gates).prop_flat_map(|(n, len)| {
        let gate = prop_oneof![
            // X on a random wire.
            (0..n).prop_map(|q| (Gate::X, vec![q])),
            // CX on two distinct wires.
            (0..n, 0..n).prop_filter_map("distinct wires", move |(a, b)| {
                (a != b).then(|| (Gate::CX, vec![a, b]))
            }),
            // CCX on three distinct wires.
            (0..n, 0..n, 0..n).prop_filter_map("distinct wires", move |(a, b, c)| {
                (a != b && b != c && a != c).then(|| (Gate::CCX, vec![a, b, c]))
            }),
        ];
        proptest::collection::vec(gate, 1..=len).prop_map(move |gates| {
            let mut circuit = Circuit::with_name(n, "prop");
            for (g, wires) in gates {
                circuit.append(g, &wires).expect("generated wires valid");
            }
            circuit
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn obfuscation_preserves_depth(
        circuit in classical_circuit(7, 20),
        seed in 0u64..1000,
    ) {
        let obf = Obfuscator::new().with_seed(seed).obfuscate(&circuit);
        prop_assert_eq!(obf.obfuscated().depth(), circuit.depth());
    }

    #[test]
    fn obfuscation_preserves_function_on_all_inputs(
        circuit in classical_circuit(6, 16),
        seed in 0u64..1000,
    ) {
        let obf = Obfuscator::new().with_seed(seed).obfuscate(&circuit);
        let n = circuit.num_qubits();
        for input in 0..1usize << n {
            prop_assert_eq!(
                classical_eval(obf.obfuscated(), input).unwrap(),
                classical_eval(&circuit, input).unwrap(),
                "diverged at input {}", input
            );
        }
    }

    #[test]
    fn split_recombination_is_exact(
        circuit in classical_circuit(6, 16),
        seed in 0u64..1000,
        split_seed in 0u64..1000,
    ) {
        let obf = Obfuscator::new().with_seed(seed).obfuscate(&circuit);
        let split = obf.split(split_seed);
        let restored = recombine(&split).unwrap();
        let n = circuit.num_qubits();
        for input in 0..1usize << n {
            prop_assert_eq!(
                classical_eval(&restored, input).unwrap(),
                classical_eval(&circuit, input).unwrap(),
                "diverged at input {}", input
            );
        }
    }

    #[test]
    fn split_partitions_gate_count(
        circuit in classical_circuit(7, 20),
        seed in 0u64..1000,
    ) {
        let obf = Obfuscator::new().with_seed(seed).obfuscate(&circuit);
        let split = obf.split(seed ^ 0xABCD);
        prop_assert_eq!(
            split.left.circuit.gate_count() + split.right.circuit.gate_count(),
            obf.obfuscated().gate_count()
        );
    }

    #[test]
    fn gate_budget_respected(
        circuit in classical_circuit(7, 20),
        seed in 0u64..1000,
        limit in 0usize..=6,
    ) {
        let obf = Obfuscator::new()
            .with_config(InsertionConfig { seed, gate_limit: limit, ..Default::default() })
            .obfuscate(&circuit);
        prop_assert!(obf.insertion().gate_overhead() <= limit);
    }

    #[test]
    fn circuit_inverse_roundtrip(circuit in classical_circuit(6, 16)) {
        // (C⁻¹)⁻¹ = C structurally, and C·C⁻¹ = identity functionally.
        let double = circuit.inverse().inverse();
        prop_assert_eq!(double.instructions(), circuit.instructions());
        let composed = circuit.then(&circuit.inverse()).unwrap();
        let n = circuit.num_qubits();
        for input in 0..1usize << n {
            prop_assert_eq!(classical_eval(&composed, input).unwrap(), input);
        }
    }

    #[test]
    fn qasm_roundtrip_random_classical(circuit in classical_circuit(6, 16)) {
        let text = qcir::qasm::to_qasm(&circuit);
        let back = qcir::qasm::from_qasm(&text).unwrap();
        prop_assert_eq!(back.instructions(), circuit.instructions());
    }

    #[test]
    fn real_roundtrip_random_classical(circuit in classical_circuit(6, 16)) {
        let text = qcir::real::to_real(&circuit).unwrap();
        let back = qcir::real::from_real(&text).unwrap();
        prop_assert_eq!(back.instructions(), circuit.instructions());
    }

    #[test]
    fn classical_eval_is_a_permutation(circuit in classical_circuit(6, 16)) {
        let n = circuit.num_qubits();
        let mut seen = vec![false; 1 << n];
        for input in 0..1usize << n {
            let out = classical_eval(&circuit, input).unwrap();
            prop_assert!(!seen[out], "not injective at {}", input);
            seen[out] = true;
        }
    }

    #[test]
    fn statevector_matches_classical_eval_on_samples(
        circuit in classical_circuit(5, 12),
        input in 0usize..32,
    ) {
        use qsim::Statevector;
        let n = circuit.num_qubits();
        let input = input & ((1 << n) - 1);
        let mut sv = Statevector::basis(n, input).unwrap();
        sv.apply_circuit(&circuit).unwrap();
        let expected = classical_eval(&circuit, input).unwrap();
        prop_assert!((sv.probability(expected) - 1.0).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Kernel equivalence: the layered engine vs the pre-engine naive loops
// ---------------------------------------------------------------------------
//
// `qsim::statevector::reference` keeps the original full-scan
// statevector loops as the reference. `Statevector::apply_circuit` —
// stride kernels, lane-blocked pair loops, fusion, and, by register
// size, layer-blocked sweeps and the pooled threaded drivers — must
// agree with it on arbitrary circuits over the full gate-dispatch
// surface. qsim's own kernel tests sweep the forced per-gate, layered
// and threaded engine configurations against the same reference.

use qsim::Statevector;
use std::f64::consts::FRAC_PI_4;

/// Largest per-component deviation between `apply_circuit` and the
/// naive reference amplitudes.
fn deviation_vs_naive(circuit: &Circuit) -> f64 {
    let reference = qsim::statevector::reference::from_circuit(circuit);
    let mut sv = Statevector::zero(circuit.num_qubits()).expect("within cap");
    sv.apply_circuit(circuit).expect("fits");
    sv.amplitudes()
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a.re - b.re).abs().max((a.im - b.im).abs()))
        .fold(0.0, f64::max)
}

/// Strategy: a random circuit over the full kernel dispatch surface —
/// diagonal, antidiagonal, dense single-qubit, two-qubit phase,
/// permutation, and k-qubit fallback gates on arbitrary (non-adjacent,
/// non-contiguous) targets.
fn kernel_circuit(max_qubits: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (4..=max_qubits, 1..=max_gates).prop_flat_map(|(n, len)| {
        let gate = prop_oneof![
            (0..n).prop_map(|q| (Gate::H, vec![q])),
            (0..n).prop_map(|q| (Gate::X, vec![q])),
            (0..n).prop_map(|q| (Gate::Y, vec![q])),
            (0..n).prop_map(|q| (Gate::S, vec![q])),
            (0..n).prop_map(|q| (Gate::Tdg, vec![q])),
            (0..n).prop_map(|q| (Gate::Sx, vec![q])),
            (0..n, 1..8u32).prop_map(|(q, k)| (Gate::Rz(k as f64 * FRAC_PI_4), vec![q])),
            (0..n, 1..8u32).prop_map(|(q, k)| (Gate::Ry(k as f64 * FRAC_PI_4), vec![q])),
            (0..n, 1..8u32, 1..8u32).prop_map(|(q, t, l)| {
                (
                    Gate::U(t as f64 * FRAC_PI_4, 0.3, l as f64 * FRAC_PI_4),
                    vec![q],
                )
            }),
            (0..n, 0..n).prop_filter_map("distinct wires", move |(a, b)| {
                (a != b).then(|| (Gate::CX, vec![a, b]))
            }),
            (0..n, 0..n).prop_filter_map("distinct wires", move |(a, b)| {
                (a != b).then(|| (Gate::CZ, vec![a, b]))
            }),
            (0..n, 0..n).prop_filter_map("distinct wires", move |(a, b)| {
                (a != b).then(|| (Gate::CH, vec![a, b]))
            }),
            (0..n, 0..n, 1..8u32).prop_filter_map("distinct wires", move |(a, b, k)| {
                (a != b).then(|| (Gate::CP(k as f64 * FRAC_PI_4), vec![a, b]))
            }),
            (0..n, 0..n, 1..8u32).prop_filter_map("distinct wires", move |(a, b, k)| {
                (a != b).then(|| (Gate::CRz(k as f64 * FRAC_PI_4), vec![a, b]))
            }),
            (0..n, 0..n).prop_filter_map("distinct wires", move |(a, b)| {
                (a != b).then(|| (Gate::Swap, vec![a, b]))
            }),
            (0..n, 0..n, 0..n).prop_filter_map("distinct wires", move |(a, b, c)| {
                (a != b && b != c && a != c).then(|| (Gate::CCX, vec![a, b, c]))
            }),
            (0..n, 0..n, 0..n).prop_filter_map("distinct wires", move |(a, b, c)| {
                (a != b && b != c && a != c).then(|| (Gate::CSwap, vec![a, b, c]))
            }),
        ];
        proptest::collection::vec(gate, 1..=len).prop_map(move |gates| {
            let mut circuit = Circuit::with_name(n, "kernel-prop");
            for (g, wires) in gates {
                circuit.append(g, &wires).expect("generated wires valid");
            }
            circuit
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The engine agrees with the naive loops on arbitrary circuits over
    // the full gate surface, including fused runs (routed through the
    // diagonal / antidiagonal / dense kernel their product's exact
    // zeros pick).
    #[test]
    fn kernel_engine_matches_naive_on_random_circuits(
        circuit in kernel_circuit(9, 24),
    ) {
        let dev = deviation_vs_naive(&circuit);
        prop_assert!(
            dev < 1e-10,
            "engine deviates from naive by {} on {}q/{} gates",
            dev, circuit.num_qubits(), circuit.gate_count()
        );
    }
}

/// Fast-path boundary checks: gates whose targets straddle the points
/// where the kernel layout switches — the top qubit of a 2¹⁵-amplitude
/// cache block and the register's top wire. qsim's
/// `kernels_boundary_targets_match_reference` runs the same circuit
/// under forced layering, where the block boundary decides between a
/// layer-local and a cross-block op.
#[test]
fn kernel_boundary_targets_match_naive() {
    let n = 16;
    let mut c = Circuit::with_name(n, "boundary");
    // Block-local ops right at the boundary (paired span 2¹⁵ on qubit
    // 14) and cross-block ops on qubit 15.
    for q in [0, 13, 14, 15] {
        c.h(q);
        c.t(q);
    }
    c.cx(14, 15);
    c.cz(0, 15);
    c.append(Gate::Swap, &[1, 15]).expect("valid wires");
    c.x(15);
    c.append(Gate::Y, &[14]).expect("valid wires");
    c.append(Gate::CP(FRAC_PI_4), &[15, 3])
        .expect("valid wires");
    let dev = deviation_vs_naive(&c);
    assert!(
        dev < 1e-10,
        "engine deviates from naive by {dev} at the block boundary"
    );
}

/// 20 qubits: above `LAYER_MIN_QUBITS` (auto layering engages) and
/// above `PARALLEL_MIN_QUBITS` (the pooled threaded drivers engage).
#[test]
fn kernel_engine_matches_naive_at_20_qubits() {
    let circuit = bench::clifford_t_circuit(20, 60);
    let dev = deviation_vs_naive(&circuit);
    assert!(dev < 1e-10, "engine deviates by {dev} at 20q");
}

/// 24 qubits: the largest register the naive baseline can replay in
/// test time — a handful of gates over non-adjacent targets spanning
/// the full wire range, against the default (fused, layered, threaded)
/// engine.
#[test]
fn kernel_engine_matches_naive_at_24_qubits() {
    let n = 24;
    let mut c = Circuit::with_name(n, "spot24");
    c.h(0).h(23).cx(0, 23).t(12).x(5);
    c.append(Gate::Y, &[17]).expect("valid wires");
    c.append(Gate::CP(FRAC_PI_4), &[3, 20])
        .expect("valid wires");
    let dev = deviation_vs_naive(&c);
    assert!(dev < 1e-10, "default engine deviates by {dev} at 24q");
}

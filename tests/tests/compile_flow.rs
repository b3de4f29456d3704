//! Integration across the compiler: split segments survive independent
//! transpilation by different "untrusted compilers" and recombine to the
//! original function.

use qcir::Circuit;
use qcompile::{OptimizationLevel, Transpiler};
use qsim::unitary::equivalent_up_to_phase;
use qsim::{Device, Statevector};
use tetrislock::recombine::{assign_ancillas, recombine_compiled};
use tetrislock::Obfuscator;

fn end_to_end(circuit: &Circuit, seed: u64) -> Circuit {
    let obf = Obfuscator::new().with_seed(seed).obfuscate(circuit);
    let split = obf.split(seed + 7);

    let device = Device::fake_valencia();
    let compiler_a = Transpiler::new(device.clone()).with_optimization(OptimizationLevel::Full);
    let compiler_b = Transpiler::new(device)
        .with_optimization(OptimizationLevel::Light)
        .with_trivial_layout();

    let left = compiler_a
        .transpile(&split.left.circuit)
        .expect("left segment fits")
        .into_logical_circuit();
    let right = compiler_b
        .transpile(&split.right.circuit)
        .expect("right segment fits")
        .into_logical_circuit();

    let n = circuit.num_qubits();
    let mut segments = [
        (&left, split.left.inverse_map()),
        (&right, split.right.inverse_map()),
    ];
    let total = assign_ancillas(n, &mut segments);
    recombine_compiled(total, &segments).expect("maps are total")
}

/// Checks the recombined-compiled circuit acts like the original on the
/// zero input (ancillas start and end in |0⟩).
fn assert_zero_input_equal(original: &Circuit, assembled: &Circuit) {
    let orig = Statevector::from_circuit(original).expect("fits");
    let asm = Statevector::from_circuit(assembled).expect("fits");
    let n = original.num_qubits();
    // Marginal probabilities on the original wires.
    let mut marg = vec![0.0f64; 1usize << n];
    for (idx, amp) in asm.amplitudes().iter().enumerate() {
        marg[idx & ((1 << n) - 1)] += amp.norm_sqr();
    }
    for (i, p) in orig.probabilities().iter().enumerate() {
        assert!(
            (marg[i] - p).abs() < 1e-9,
            "probability mismatch at basis {i}: {} vs {p}",
            marg[i]
        );
    }
}

#[test]
fn adder_survives_split_compilation() {
    let bench = revlib::adder_1bit();
    for seed in 0..3 {
        let assembled = end_to_end(bench.circuit(), seed);
        assert_zero_input_equal(bench.circuit(), &assembled);
    }
}

#[test]
fn mini_alu_survives_split_compilation() {
    let bench = revlib::mini_alu();
    let assembled = end_to_end(bench.circuit(), 1);
    assert_zero_input_equal(bench.circuit(), &assembled);
}

#[test]
fn mod5_survives_split_compilation() {
    let bench = revlib::mod5_4();
    let assembled = end_to_end(bench.circuit(), 2);
    assert_zero_input_equal(bench.circuit(), &assembled);
}

#[test]
fn compiled_segments_conform_to_device() {
    use qcompile::transpiler::conforms_to_device;
    let bench = revlib::comparator_4gt13();
    let obf = Obfuscator::new().with_seed(3).obfuscate(bench.circuit());
    let split = obf.split(11);
    let device = Device::fake_valencia();
    let t = Transpiler::new(device.clone());
    for segment in [&split.left.circuit, &split.right.circuit] {
        if segment.is_empty() {
            continue;
        }
        let out = t.transpile(segment).expect("fits");
        assert!(conforms_to_device(&out.circuit, &device));
    }
}

#[test]
fn attacker_compiler_cannot_cancel_masking_within_one_segment() {
    // The inverse-cancellation pass is exactly what an attacker-compiler
    // would run to strip R⁻¹R. Within a single segment it must find
    // nothing to cancel (the halves live in different segments).
    use qcompile::optimize::cancel_inverse_pairs;
    for bench in revlib::table1_benchmarks() {
        for seed in 0..5 {
            let obf = Obfuscator::new().with_seed(seed).obfuscate(bench.circuit());
            if obf.inserted_count() == 0 {
                continue;
            }
            let split = obf.split(seed + 3);
            for segment in [&split.left.circuit, &split.right.circuit] {
                let mut stripped = segment.clone();
                let removed = cancel_inverse_pairs(&mut stripped);
                // Any cancellation found must come from the original
                // circuit's own structure, not from a complete R/R⁻¹
                // pair: verify the masked function is still not the
                // original by checking the segment is not functionally
                // the whole obfuscated circuit.
                assert!(
                    stripped.gate_count() + removed == segment.gate_count(),
                    "accounting"
                );
                assert!(
                    segment.gate_count() < obf.obfuscated().gate_count(),
                    "segment holds the entire circuit"
                );
            }
        }
    }
}

#[test]
fn commutation_aware_attacker_also_fails_on_segments() {
    // Even the stronger pass — cancellation through commuting gates —
    // finds no R/R⁻¹ pair inside a single segment, because the partner
    // half is simply absent.
    use qcompile::optimize::cancel_commuting_pairs;
    for bench in [revlib::adder_1bit(), revlib::mini_alu(), revlib::rd53()] {
        for seed in 0..3 {
            let obf = Obfuscator::new().with_seed(seed).obfuscate(bench.circuit());
            if obf.inserted_count() == 0 {
                continue;
            }
            let split = obf.split(seed + 11);
            for segment in [&split.left.circuit, &split.right.circuit] {
                let mut stripped = segment.clone();
                let removed = cancel_commuting_pairs(&mut stripped);
                // Whatever cancels must be original-circuit structure;
                // verify the segment's own function is unchanged.
                if removed > 0 {
                    assert!(
                        equivalent_up_to_phase(segment, &stripped, 1e-9).unwrap(),
                        "{} seed {seed}: pass broke the segment",
                        bench.name()
                    );
                }
            }
        }
    }
}

#[test]
fn whole_circuit_attacker_would_cancel_pairs() {
    // Contrast case: with the *whole* obfuscated circuit in hand, the
    // same pass can strip the masking — which is why the split matters.
    let bench = revlib::adder_1bit();
    let obf = Obfuscator::new().with_seed(0).obfuscate(bench.circuit());
    if obf.inserted_count() == 0 {
        return;
    }
    use qcompile::optimize::cancel_inverse_pairs;
    let mut whole = obf.obfuscated().clone();
    let removed = cancel_inverse_pairs(&mut whole);
    assert!(
        removed >= 2,
        "adjacent R⁻¹/R halves should cancel in the unsplit circuit"
    );
    assert!(
        equivalent_up_to_phase(&whole, bench.circuit(), 1e-9).unwrap(),
        "cancellation should recover the original"
    );
}

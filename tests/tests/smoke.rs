//! Workspace smoke test: the full paper pipeline (Fig. 2) end-to-end,
//! touching every crate — a RevLib benchmark (`revlib`) is obfuscated and
//! split (`tetrislock`), both segments are transpiled by different
//! "untrusted compilers" (`qcompile`), the results are recombined and
//! verified by unitary equivalence and simulation (`qsim`), compared
//! distributionally (`qmetrics`), and round-tripped through OpenQASM
//! (`qcir`).

use qcompile::{OptimizationLevel, Transpiler};
use qmetrics::{accuracy, tvd};
use qsim::unitary::equivalent_up_to_phase;
use qsim::{Device, Sampler, Statevector};
use revlib::adder_1bit;
use tetrislock::recombine::{assign_ancillas, recombine, recombine_compiled};
use tetrislock::Obfuscator;

const SEED: u64 = 2025;
const EPS: f64 = 1e-9;

#[test]
fn paper_pipeline_end_to_end() {
    // 1. revlib: a Table-I benchmark with an independent reference model.
    let bench = adder_1bit();
    assert_eq!(bench.verify_exhaustive(), None, "benchmark self-check");
    let original = bench.circuit();

    // 2. tetrislock obfuscation: R⁻¹R inserted into empty slots — same
    //    function, same depth (the paper's zero-overhead claim).
    let obf = Obfuscator::new().with_seed(SEED).obfuscate(original);
    assert!(obf.inserted_count() > 0, "expected gates to be inserted");
    assert_eq!(obf.obfuscated().depth(), original.depth());

    // 3. Interlocking split: every inserted R gate is separated from its
    //    R⁻¹ partner, so neither compiler sees a cancelable pair.
    let split = obf.split(SEED + 7);
    assert!(split.left.circuit.gate_count() > 0);
    assert!(split.right.circuit.gate_count() > 0);
    assert_eq!(
        split.left.circuit.gate_count() + split.right.circuit.gate_count(),
        obf.obfuscated().gate_count()
    );

    // 4. Designer-side recombination of the raw segments restores the
    //    original unitary exactly (up to global phase).
    let restored = recombine(&split).expect("recombination is total");
    assert!(
        equivalent_up_to_phase(&restored, original, EPS).expect("fits in simulator"),
        "raw recombination must restore the original unitary"
    );

    // 5. qcompile: each segment goes to a *different* untrusted compiler.
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

    // 6. Recombine the *compiled* segments and check the assembled
    //    circuit computes the original function (data wires agree on the
    //    all-zeros input; routing ancillas start and end in |0⟩).
    let n = original.num_qubits();
    let mut segments = [
        (&left, split.left.inverse_map()),
        (&right, split.right.inverse_map()),
    ];
    let total = assign_ancillas(n, &mut segments);
    let assembled = recombine_compiled(total, &segments).expect("wire maps are total");
    let expected = Statevector::from_circuit(original).expect("fits");
    let actual = Statevector::from_circuit(&assembled).expect("fits");
    let mut marginal = vec![0.0f64; 1usize << n];
    for (index, amp) in actual.amplitudes().iter().enumerate() {
        marginal[index & ((1 << n) - 1)] += amp.norm_sqr();
    }
    for (index, p) in expected.probabilities().iter().enumerate() {
        assert!(
            (marginal[index] - p).abs() < EPS,
            "probability mismatch on basis state {index}: {} vs {p}",
            marginal[index]
        );
    }

    // 7. qmetrics: ideal sampling of original vs restored is
    //    distribution-identical (TVD 0) and lands on the reference output.
    let sampler = Sampler::new(1000).with_seed(SEED);
    let counts_original = sampler.run_ideal(original).expect("fits");
    let counts_restored = sampler.run_ideal(&restored).expect("fits");
    assert!(tvd(&counts_original, &counts_restored) < EPS);
    let reference_output = bench.eval(0);
    assert!((accuracy(&counts_original, reference_output) - 1.0).abs() < EPS);

    // 8. qcir: the restored design survives an OpenQASM round trip.
    let qasm = qcir::qasm::to_qasm(&restored);
    let back = qcir::qasm::from_qasm(&qasm).expect("emitted QASM parses");
    assert_eq!(back.instructions(), restored.instructions());
}

//! The full threat-model flow of the paper's Figure 2:
//!
//! 1. obfuscate the secret circuit (random masking, zero depth overhead);
//! 2. split it with an interlocking pattern;
//! 3. hand each segment to a *different untrusted compiler* (two
//!    independently configured transpilers targeting the FakeValencia
//!    device);
//! 4. recombine the compiled segments and run on the noisy device;
//! 5. compare accuracy against the original circuit.
//!
//! ```text
//! cargo run -p examples --bin untrusted_compiler_flow --release
//! ```

use qcompile::{OptimizationLevel, Transpiler};
use qmetrics::accuracy;
use qsim::{Device, Sampler};
use tetrislock::recombine::{assign_ancillas, recombine_compiled};
use tetrislock::Obfuscator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = revlib::mini_alu();
    let circuit = bench.circuit();
    let expected = bench.expected_output();
    let device = Device::fake_valencia();
    println!(
        "secret circuit: {} ({} qubits, {} gates, depth {})",
        bench.name(),
        circuit.num_qubits(),
        circuit.gate_count(),
        circuit.depth()
    );

    // Designer side: obfuscate + split.
    let obf = Obfuscator::new().with_seed(11).obfuscate(circuit);
    let split = obf.split(23);
    println!(
        "split into {}-qubit and {}-qubit segments (inserted {} masking gates)",
        split.left.circuit.num_qubits(),
        split.right.circuit.num_qubits(),
        obf.insertion().gate_overhead(),
    );

    // Untrusted compiler A: aggressive optimizer. Note: its inverse-pair
    // cancellation pass CANNOT strip the masking gates, because each
    // segment holds only one half of every R/R⁻¹ pair.
    let compiler_a = Transpiler::new(device.clone()).with_optimization(OptimizationLevel::Full);
    // Untrusted compiler B: a different vendor — light optimization,
    // trivial layout.
    let compiler_b = Transpiler::new(device.clone())
        .with_optimization(OptimizationLevel::Light)
        .with_trivial_layout();

    let compiled_left = compiler_a.transpile(&split.left.circuit)?;
    let compiled_right = compiler_b.transpile(&split.right.circuit)?;
    println!(
        "compiler A output: {} native gates ({} swaps) — sees {} of {} original gates",
        compiled_left.circuit.gate_count(),
        compiled_left.swaps_inserted,
        split.left.circuit.gate_count(),
        obf.obfuscated().gate_count(),
    );
    println!(
        "compiler B output: {} native gates ({} swaps)",
        compiled_right.circuit.gate_count(),
        compiled_right.swaps_inserted,
    );

    // Designer side: de-obfuscation. Convert each compiled segment back
    // to its logical wires, then map segment wires to the original
    // register (extra routing wires become fresh ancillas).
    let left_logical = compiled_left.into_logical_circuit();
    let right_logical = compiled_right.into_logical_circuit();

    let n_orig = circuit.num_qubits();
    let mut segments = [
        (&left_logical, split.left.inverse_map()),
        (&right_logical, split.right.inverse_map()),
    ];
    let total = assign_ancillas(n_orig, &mut segments);
    let recombined = recombine_compiled(total, &segments)?;
    println!(
        "recombined executable circuit: {} gates over {} wires",
        recombined.gate_count(),
        recombined.num_qubits()
    );

    // Baseline: the original circuit compiled in one piece (what the
    // designer would run if they trusted a single compiler). Both sides
    // of the comparison are compiled circuits, as in the paper's §V-D2.
    let baseline = compiler_a.transpile(circuit)?.into_logical_circuit();

    let shots = 1000;
    let original_counts = Sampler::new(shots)
        .with_seed(1)
        .run_noisy(&baseline, device.noise())?;
    let baseline_marginal = original_counts.marginal(&(0..n_orig).collect::<Vec<_>>());
    let recombined_counts = Sampler::new(shots)
        .with_seed(2)
        .run_noisy(&recombined, device.noise())?;
    // Outcomes of the recombined circuit live on the original wires 0..n.
    let marginal = recombined_counts.marginal(&(0..n_orig).collect::<Vec<_>>());

    let acc_orig = accuracy(&baseline_marginal, expected);
    let acc_rest = accuracy(&marginal, expected);
    println!("\naccuracy (original, compiled whole):  {acc_orig:.3}");
    println!("accuracy (split-compiled, restored):  {acc_rest:.3}");
    println!(
        "accuracy change: {:.2}% (paper: ~1% or less)",
        ((acc_orig - acc_rest) / acc_orig * 100.0).abs()
    );
    Ok(())
}

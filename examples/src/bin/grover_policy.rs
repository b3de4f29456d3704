//! The Hadamard insertion policy (§V-A): for non-arithmetic circuits
//! such as Grover's algorithm the X/CX pool would leak structure, so
//! TetrisLock inserts H gates instead. This example obfuscates a Grover
//! search, checks the masked circuit scrambles the amplified state, and
//! verifies restoration.
//!
//! ```text
//! cargo run -p examples --bin grover_policy --release
//! ```

use qcir::Circuit;
use qmetrics::tvd_vs_ideal;
use qsim::{Sampler, Statevector};
use revlib::grover::{grover, optimal_iterations};
use tetrislock::recombine::recombine;
use tetrislock::{GatePolicy, InsertionConfig, Obfuscator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let marked = 0b101usize;
    // The search runs on qubits 0..2 of a 5-qubit register — the typical
    // situation when an algorithm is smaller than the target machine.
    // The spare wires provide the idle region the H masking hides in.
    let search = grover(3, marked, optimal_iterations(3));
    let mut circuit = Circuit::with_name(5, "grover3_on_5q");
    circuit.compose(&search)?;
    println!(
        "grover search over 3 of 5 qubits, marked |{marked:03b}⟩ ({} gates, depth {})",
        circuit.gate_count(),
        circuit.depth()
    );
    let ideal = Statevector::from_circuit(&circuit)?;
    println!(
        "P(marked) in the clean circuit: {:.3}\n",
        ideal.probability(marked)
    );

    let obfuscator = Obfuscator::new().with_config(InsertionConfig {
        policy: GatePolicy::Hadamard,
        gate_limit: 4,
        seed: 5,
    });
    let obf = obfuscator.obfuscate(&circuit);
    println!(
        "inserted {} Hadamard gates (H policy), depth change {}",
        obf.insertion().gate_overhead(),
        obf.depth_increase()
    );

    // The masked view (R⁻¹ withheld): the stray Hadamards put the spare
    // wires in superposition, scrambling the full-register signature the
    // attacker would counterfeit.
    let masked = obf.masked_circuit();
    let sampler = Sampler::new(1000).with_seed(3);
    let masked_counts = sampler.run_ideal(&masked)?;
    println!(
        "masked circuit: P(full outcome) = {:.3}, TVD vs ideal = {:.3}",
        masked_counts.probability(marked),
        tvd_vs_ideal(&masked_counts, marked)
    );

    // Restoration brings the clean signature back.
    let split = obf.split(8);
    let restored = recombine(&split)?;
    let restored_counts = sampler.run_ideal(&restored)?;
    println!(
        "restored circuit: P(full outcome) = {:.3}, TVD vs ideal = {:.3}",
        restored_counts.probability(marked),
        tvd_vs_ideal(&restored_counts, marked)
    );
    assert!(restored_counts.probability(marked) > 0.9);
    assert!(
        masked_counts.probability(marked) < restored_counts.probability(marked),
        "masking must degrade the clean signature"
    );
    println!("\nthe H policy hides superposition-style masking inside circuits that");
    println!("are themselves superposition-heavy (§V-A); the X/CX pool would stand");
    println!("out structurally in a Grover program.");
    Ok(())
}

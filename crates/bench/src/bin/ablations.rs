//! Ablation studies for the design choices DESIGN.md §5 calls out:
//!
//! 1. **insertion budget** — how the masking strength (TVD of the masked
//!    circuit) and gate overhead scale with `gate_limit`;
//! 2. **gate policy** — X/CX vs Hadamard vs mixed pools;
//! 3. **segment count** — how k-way splits spread the circuit and
//!    diversify segment widths (the census the Eq. 1 attacker faces).
//!
//! ```text
//! cargo run -p bench --bin ablations --release
//! ```

use qmetrics::stats::summarize;
use qmetrics::tvd_vs_ideal;
use qsim::Sampler;
use tetrislock::job::device_for;
use tetrislock::multiway::MultiwayPattern;
use tetrislock::{GatePolicy, InsertionConfig, Obfuscator};

const ITERS: u64 = 20;
const SHOTS: u64 = 1000;

fn main() {
    let bench = revlib::rd53();
    let circuit = bench.circuit();
    let device = device_for("valencia", circuit.num_qubits()).expect("valencia fits any width");
    let expected = bench.expected_output();

    println!("== ablation 1: insertion budget (rd53, X/CX policy) ==");
    println!(
        "{:<6} {:>9} {:>12} {:>10}",
        "limit", "inserted", "TVD masked", "depth Δ"
    );
    for limit in [0usize, 2, 4, 6, 8] {
        let mut inserted = Vec::new();
        let mut tvds = Vec::new();
        let mut depth_delta = Vec::new();
        for seed in 0..ITERS {
            let obf = Obfuscator::new()
                .with_config(InsertionConfig {
                    gate_limit: limit,
                    seed,
                    ..Default::default()
                })
                .obfuscate(circuit);
            inserted.push(obf.insertion().gate_overhead() as f64);
            depth_delta.push(obf.depth_increase() as f64);
            let counts = Sampler::new(SHOTS)
                .with_seed(900 + seed)
                .run_noisy(&obf.masked_circuit(), device.noise())
                .expect("fits");
            tvds.push(tvd_vs_ideal(&counts, expected));
        }
        println!(
            "{:<6} {:>9.1} {:>12.3} {:>10.1}",
            limit,
            summarize(&inserted).mean,
            summarize(&tvds).mean,
            summarize(&depth_delta).mean,
        );
    }

    println!("\n== ablation 2: gate policy (rd53, budget 4) ==");
    println!("{:<10} {:>9} {:>12}", "policy", "inserted", "TVD masked");
    for (name, policy) in [
        ("x/cx", GatePolicy::XCx),
        ("hadamard", GatePolicy::Hadamard),
        ("mixed", GatePolicy::Mixed),
    ] {
        let mut inserted = Vec::new();
        let mut tvds = Vec::new();
        for seed in 0..ITERS {
            let obf = Obfuscator::new()
                .with_config(InsertionConfig {
                    policy,
                    seed,
                    ..Default::default()
                })
                .obfuscate(circuit);
            inserted.push(obf.insertion().gate_overhead() as f64);
            let counts = Sampler::new(SHOTS)
                .with_seed(700 + seed)
                .run_noisy(&obf.masked_circuit(), device.noise())
                .expect("fits");
            tvds.push(tvd_vs_ideal(&counts, expected));
        }
        println!(
            "{:<10} {:>9.1} {:>12.3}",
            name,
            summarize(&inserted).mean,
            summarize(&tvds).mean,
        );
    }

    println!("\n== ablation 3: segment count (rd84) ==");
    println!(
        "{:<9} {:>14} {:>16} {:>10}",
        "segments", "widths", "distinct widths", "restored"
    );
    let bench = revlib::rd84();
    let circuit = bench.circuit();
    for k in [2usize, 3, 4] {
        let obf = Obfuscator::new().with_seed(5).obfuscate(circuit);
        let pattern = MultiwayPattern::random_for(&obf, k, 31);
        let split = pattern.split(&obf);
        let widths: Vec<String> = split
            .segments
            .iter()
            .map(|s| {
                if s.circuit.is_empty() {
                    "-".to_string()
                } else {
                    s.circuit.num_qubits().to_string()
                }
            })
            .collect();
        let restored = split.recombine().expect("recombination is total");
        let ok = (0..1usize << circuit.num_qubits())
            .step_by(97)
            .all(|x| revlib::classical_eval(&restored, x).expect("classical") == bench.eval(x));
        println!(
            "{:<9} {:>14} {:>16} {:>10}",
            k,
            widths.join("/"),
            split.distinct_widths(),
            if ok { "exact" } else { "BROKEN" },
        );
    }
    println!("\ntakeaways: masking strength saturates once every leading window is");
    println!("used; all policies keep depth delta at exactly 0; more segments");
    println!("diversify the width census the Eq. 1 attacker must enumerate.");
}

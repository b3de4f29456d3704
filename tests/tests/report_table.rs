//! Differential pin of the whole `check_report` cascade.
//!
//! For every RevLib benchmark under the ideal and the Valencia device,
//! three pairs go through `Verifier::check_report`: the compiled
//! restored pair a default job verifies, its `x(0)`-corrupted copy, and
//! the circuit against its masked circuit `R·C` with the key stripped
//! (compiled for the same device). Each full `Report` (tier, trials,
//! verdict and witness) must match the recorded table
//! `tests/fixtures/check_report_table.tsv`: every field exactly, except
//! numeric witness fields, which may move by at most 1e-12.
//!
//! The table is written by the ignored generator below:
//!
//! ```text
//! cargo test -p tetrislock-tests --test report_table -- --ignored record_report_table
//! ```
//!
//! Re-record it only for a change that is meant to move a tier decision,
//! and say so where the change is recorded.

use qcir::Circuit;
use qverify::{Report, Verdict, Verifier, Witness};
use std::path::PathBuf;
use tetrislock::job::{device_for, JobConfig, JobStage, JobState};
use tetrislock::Obfuscator;

/// Numeric witness fields may differ from the table by this much.
const TOLERANCE: f64 = 1e-12;

const DEVICES: [&str; 2] = ["ideal", "valencia"];

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/check_report_table.tsv")
}

fn pad(c: &Circuit, n: u32) -> Circuit {
    let mut out = Circuit::with_name(n, c.name());
    out.compose(c).unwrap();
    out
}

/// The (original, restored) pair a default job on `device` verifies.
fn restored_pair(name: &str, circuit: &Circuit, device: &str) -> (Circuit, Circuit) {
    let config = JobConfig {
        device: device.to_string(),
        ..JobConfig::default()
    };
    let mut job = JobState::new(name, circuit.clone(), config);
    while job.stage != JobStage::Verify {
        job.advance(&std::env::temp_dir()).unwrap();
    }
    let restored = job.restored.unwrap();
    let n = circuit.num_qubits().max(restored.num_qubits());
    (pad(circuit, n), pad(&restored, n))
}

/// `C` against its masked circuit `R·C` with the key stripped, compiled
/// for `device`.
fn stripped_key_pair(circuit: &Circuit, device: &str) -> (Circuit, Circuit) {
    let masked = Obfuscator::new()
        .with_seed(1)
        .obfuscate(circuit)
        .masked_circuit();
    let device = device_for(device, masked.num_qubits()).unwrap();
    let compiled = qcompile::Transpiler::new(device)
        .transpile(&masked)
        .unwrap()
        .into_logical_circuit();
    let n = circuit.num_qubits().max(compiled.num_qubits());
    (pad(circuit, n), pad(&compiled, n))
}

/// A report as whitespace-separated tokens: tier, trials, verdict kind,
/// then the witness fields.
fn render(report: &Report) -> String {
    let verdict = match &report.verdict {
        Verdict::Equivalent => "equivalent".to_string(),
        Verdict::Inconclusive { confidence } => format!("inconclusive {confidence:?}"),
        Verdict::Inequivalent { witness } => match witness {
            Witness::RegisterMismatch { left, right } => {
                format!("register_mismatch {left} {right}")
            }
            Witness::BasisInput {
                input,
                left_output,
                right_output,
            } => format!("basis_input {input} {left_output} {right_output}"),
            Witness::BasisColumn { input, overlap } => format!("basis_column {input} {overlap:?}"),
            Witness::RelativePhase { input_a, input_b } => {
                format!("relative_phase {input_a} {input_b}")
            }
            Witness::Generator {
                qubit,
                destabilizer,
            } => format!("generator {qubit} {destabilizer}"),
            Witness::Stimulus {
                trial,
                seed,
                fidelity,
            } => format!("stimulus {trial} {seed} {fidelity:?}"),
        },
    };
    format!("{:?} {} {verdict}", report.tier, report.trials)
}

/// Every case as `(label, rendered report)`, in table order.
fn rows() -> Vec<(String, String)> {
    let verifier = Verifier::new();
    let mut rows = Vec::new();
    for bench in revlib::all_benchmarks() {
        for device in DEVICES {
            let (a, restored) = restored_pair(bench.name(), bench.circuit(), device);
            let mut corrupted = restored.clone();
            corrupted.x(0);
            let (c, stripped) = stripped_key_pair(bench.circuit(), device);
            for (kind, original, candidate) in [
                ("restored", &a, &restored),
                ("x0_corrupted", &a, &corrupted),
                ("stripped_key", &c, &stripped),
            ] {
                let label = format!("{}/{device}/{kind}", bench.name());
                rows.push((label, render(&verifier.check_report(original, candidate))));
            }
        }
    }
    rows
}

/// Whether two rendered reports agree: token for token, numbers within
/// [`TOLERANCE`].
fn agrees(want: &str, got: &str) -> bool {
    let want: Vec<&str> = want.split_whitespace().collect();
    let got: Vec<&str> = got.split_whitespace().collect();
    want.len() == got.len()
        && want.iter().zip(&got).all(|(w, g)| {
            w == g
                || matches!(
                    (w.parse::<f64>(), g.parse::<f64>()),
                    (Ok(w), Ok(g)) if (w - g).abs() <= TOLERANCE
                )
        })
}

#[test]
fn check_report_matches_the_recorded_table() {
    let table = std::fs::read_to_string(table_path()).expect("recorded table");
    let recorded: Vec<(&str, &str)> = table
        .lines()
        .map(|line| line.split_once('\t').expect("label<TAB>report"))
        .collect();
    let rows = rows();
    assert_eq!(rows.len(), 16 * DEVICES.len() * 3);
    assert_eq!(rows.len(), recorded.len(), "table size");
    for ((label, got), (want_label, want)) in rows.iter().zip(recorded) {
        assert_eq!(label, want_label, "table order");
        assert!(agrees(want, got), "{label}: recorded `{want}`, got `{got}`");
    }
}

#[test]
#[ignore = "writes the recorded table"]
fn record_report_table() {
    let table: String = rows()
        .into_iter()
        .map(|(label, report)| format!("{label}\t{report}\n"))
        .collect();
    std::fs::write(table_path(), table).unwrap();
}

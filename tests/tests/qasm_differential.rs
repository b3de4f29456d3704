//! Differential test of the OpenQASM writer: `qcir::qasm::to_qasm`
//! writes every gate straight into its output buffer, and must give the
//! same bytes as the reference below, which builds each line from a
//! `Vec<String>` of operands, `join` and `format!`.
//!
//! Two inputs: the restored circuit of every RevLib benchmark on the
//! ideal and the Valencia device (what `tetrislock batch` emits), and
//! one circuit holding every `Gate` variant with the angles whose
//! rendering is easiest to get wrong.

use qcir::{Circuit, Gate};
use std::fmt::Write as _;
use tetrislock::job::{JobConfig, JobStage, JobState};

/// The per-gate allocating writer `to_qasm` replaced, kept verbatim as
/// the reference.
fn reference_to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    if !circuit.name().is_empty() {
        let _ = writeln!(out, "// circuit: {}", circuit.name());
    }
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    for inst in circuit.iter() {
        let operands: Vec<String> = inst
            .qubits()
            .iter()
            .map(|q| format!("q[{}]", q.index()))
            .collect();
        let operands = operands.join(", ");
        match inst.gate() {
            Gate::Rx(a) => {
                let _ = writeln!(out, "rx({a}) {operands};");
            }
            Gate::Ry(a) => {
                let _ = writeln!(out, "ry({a}) {operands};");
            }
            Gate::Rz(a) => {
                let _ = writeln!(out, "rz({a}) {operands};");
            }
            Gate::P(a) => {
                let _ = writeln!(out, "p({a}) {operands};");
            }
            Gate::CP(a) => {
                let _ = writeln!(out, "cp({a}) {operands};");
            }
            Gate::CRz(a) => {
                let _ = writeln!(out, "crz({a}) {operands};");
            }
            Gate::U(t, p, l) => {
                let _ = writeln!(out, "u({t},{p},{l}) {operands};");
            }
            Gate::Mcx(n) => {
                let name = match n {
                    3 => "c3x".to_string(),
                    4 => "c4x".to_string(),
                    n => format!("mcx{n}"),
                };
                let _ = writeln!(out, "{name} {operands};");
            }
            g => {
                let _ = writeln!(out, "{} {operands};", g.name());
            }
        }
    }
    out
}

fn assert_same_bytes(label: &str, circuit: &Circuit) {
    let want = reference_to_qasm(circuit);
    let got = qcir::qasm::to_qasm(circuit);
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "{label}: to_qasm diverges from the reference at line {line}:\n  got  {:?}\n  want {:?}",
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

#[test]
fn restored_revlib_circuits_emit_reference_bytes() {
    let benchmarks = revlib::all_benchmarks();
    assert_eq!(benchmarks.len(), 16);
    for bench in &benchmarks {
        for device in ["ideal", "valencia"] {
            let config = JobConfig {
                device: device.to_string(),
                ..JobConfig::default()
            };
            let mut state = JobState::new(bench.name(), bench.circuit().clone(), config);
            // Every stage up to recombine runs in memory.
            while state.stage != JobStage::Verify {
                state
                    .advance(&std::env::temp_dir())
                    .expect("in-memory stage");
            }
            let restored = state.restored.as_ref().expect("recombine ran");
            assert!(restored.gate_count() > 0);
            assert_same_bytes(&format!("{} on {device}", bench.name()), restored);
        }
    }
}

#[test]
fn every_gate_variant_emits_reference_bytes() {
    let angles = [-0.0, 1e-300, std::f64::consts::PI, f64::MAX];
    let mut gates = vec![
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Sx,
        Gate::Sxdg,
        Gate::CX,
        Gate::CY,
        Gate::CZ,
        Gate::CH,
        Gate::Swap,
        Gate::CCX,
        Gate::CSwap,
        Gate::Mcx(1),
        Gate::Mcx(2),
        Gate::Mcx(3),
        Gate::Mcx(4),
        Gate::Mcx(7),
    ];
    for &a in &angles {
        gates.extend([
            Gate::Rx(a),
            Gate::Ry(a),
            Gate::Rz(a),
            Gate::P(a),
            Gate::CP(a),
            Gate::CRz(a),
        ]);
    }
    for &t in &angles {
        gates.push(Gate::U(t, -t, angles[angles.len() - 1]));
    }
    // Wide enough that operand indices reach two digits.
    let mut named = Circuit::with_name(12, "every gate");
    for (k, gate) in gates.iter().enumerate() {
        let qubits: Vec<u32> = (0..gate.arity() as u32)
            .map(|i| (k as u32 + i) % 12)
            .collect();
        named.append(gate.clone(), &qubits).expect("valid operands");
    }
    for name in ["c3x ", "c4x ", "mcx7 ", "u(", "cp(", "crz(", "(-0)"] {
        assert!(
            qcir::qasm::to_qasm(&named).contains(name),
            "the circuit must exercise `{name}`"
        );
    }
    assert_same_bytes("named", &named);
    let mut unnamed = named.clone();
    unnamed.set_name("");
    assert_same_bytes("unnamed", &unnamed);
    assert_same_bytes("empty", &Circuit::new(1));
}

//! Differential test of the dense tier's sparse-column check against
//! exact unitary matrix columns.
//!
//! `Verifier::check_dense` runs every basis column through a sparse
//! support map, charging the pruned norm against `eps`. This suite
//! re-derives each verdict from `qsim::unitary::circuit_unitary`
//! columns with the same decision rule — a column whose overlap misses
//! 1 by more than `eps` diverges; a column whose overlap differs from
//! column 0's by more than the phase tolerance is a relative phase —
//! and requires the same verdict kind, the same first diverging column
//! and the same relative-phase pair.
//!
//! Cases: the restored pairs of the 8 Table I circuits under the default
//! job config, their stripped-key variants (the masked circuit `R·C`,
//! compiled, against `C`), and seeded Clifford+T pairs at ≤ 12 qubits
//! with few Hadamards (sparse columns) and many (budget trips, so the
//! statevector fallback decides).

use qcir::Circuit;
use qsim::unitary::circuit_unitary;
use qsim::C64;
use qverify::{Tier, Verdict, Verifier, Witness};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tetrislock::job::{device_for, JobConfig, JobStage, JobState};
use tetrislock::Obfuscator;

const EPS: f64 = 1e-9;

/// Registers up to this width get full reference matrices (two 16 MiB
/// unitaries at 10 qubits); rd84's 12-qubit pair would need 256 MiB
/// each, so its columns are built one at a time instead.
const MATRIX_MAX_QUBITS: u32 = 10;

/// What the dense tier must answer for a pair.
#[derive(Debug, PartialEq)]
enum Expected {
    Equivalent,
    BasisColumn(u64),
    RelativePhase(u64, u64),
}

/// Column `col` of a circuit's unitary.
fn unitary_column(c: &Circuit, col: u64) -> Vec<C64> {
    let mut sv = qsim::Statevector::basis(c.num_qubits(), col as usize).unwrap();
    sv.apply_circuit(c).unwrap();
    sv.amplitudes().to_vec()
}

/// The dense tier's decision rule over exact unitary columns, visiting
/// `columns` in order.
fn reference(a: &Circuit, b: &Circuit, columns: impl Iterator<Item = u64>) -> Expected {
    let n = a.num_qubits();
    let matrices = (n <= MATRIX_MAX_QUBITS)
        .then(|| (circuit_unitary(a).unwrap(), circuit_unitary(b).unwrap()));
    let overlap = |col: u64| -> C64 {
        match &matrices {
            Some((ua, ub)) => (0..1usize << n)
                .map(|row| ua.get(row, col as usize).conj() * ub.get(row, col as usize))
                .sum(),
            None => unitary_column(a, col)
                .iter()
                .zip(unitary_column(b, col))
                .map(|(x, y)| x.conj() * y)
                .sum(),
        }
    };
    let tolerance = EPS * 10.0;
    let mut first: Option<(u64, C64)> = None;
    for col in columns {
        let o = overlap(col);
        if (o.abs() - 1.0).abs() > EPS {
            return Expected::BasisColumn(col);
        }
        match first {
            None => first = Some((col, o)),
            Some((f, phase)) => {
                if !o.approx_eq(phase, tolerance) {
                    return Expected::RelativePhase(f, col);
                }
            }
        }
    }
    Expected::Equivalent
}

fn dense_verdict(a: &Circuit, b: &Circuit) -> Expected {
    let report = Verifier::new().check_dense(a, b).unwrap();
    assert_eq!(report.tier, Tier::Dense);
    match report.verdict {
        Verdict::Equivalent => Expected::Equivalent,
        Verdict::Inequivalent {
            witness: Witness::BasisColumn { input, overlap },
        } => {
            assert!(overlap < 1.0 - EPS, "overlap {overlap}");
            Expected::BasisColumn(input)
        }
        Verdict::Inequivalent {
            witness: Witness::RelativePhase { input_a, input_b },
        } => Expected::RelativePhase(input_a, input_b),
        other => panic!("unexpected dense verdict {other:?}"),
    }
}

fn assert_agrees(label: &str, a: &Circuit, b: &Circuit) -> Expected {
    let got = dense_verdict(a, b);
    let expected = reference(a, b, 0..1u64 << a.num_qubits());
    assert_eq!(got, expected, "{label}");
    got
}

fn pad(c: &Circuit, n: u32) -> Circuit {
    let mut out = Circuit::with_name(n, c.name());
    out.compose(c).unwrap();
    out
}

/// The (original, restored) pair a default-config job verifies.
fn restored_pair(name: &str, circuit: &Circuit) -> (Circuit, Circuit) {
    let mut job = JobState::new(name, circuit.clone(), JobConfig::default());
    while job.stage != JobStage::Verify {
        job.advance(&std::env::temp_dir()).unwrap();
    }
    let restored = job.restored.unwrap();
    let n = circuit.num_qubits().max(restored.num_qubits());
    (pad(circuit, n), pad(&restored, n))
}

/// `C` against its masked circuit `R·C` with the key stripped, compiled
/// for the ideal device as the Table I jobs are.
fn stripped_key_pair(circuit: &Circuit, seed: u64) -> (Circuit, Circuit) {
    let masked = Obfuscator::new()
        .with_seed(seed)
        .obfuscate(circuit)
        .masked_circuit();
    let device = device_for("ideal", masked.num_qubits()).unwrap();
    let compiled = qcompile::Transpiler::new(device)
        .transpile(&masked)
        .unwrap()
        .into_logical_circuit();
    let n = circuit.num_qubits().max(compiled.num_qubits());
    (pad(circuit, n), pad(&compiled, n))
}

#[test]
fn table1_restored_and_stripped_key_pairs_match_unitary_columns() {
    let mut diverging = 0;
    for bench in revlib::table1_benchmarks() {
        let name = bench.name();
        let (a, restored) = restored_pair(name, bench.circuit());
        let (_, wrong) = stripped_key_pair(bench.circuit(), 1);
        if a.num_qubits() <= MATRIX_MAX_QUBITS {
            assert_eq!(
                assert_agrees(&format!("{name} restored"), &a, &restored),
                Expected::Equivalent
            );
            if assert_agrees(&format!("{name} stripped key"), &a, &wrong) != Expected::Equivalent {
                diverging += 1;
            }
        } else {
            // rd84: its equivalent pair is checked on every 32nd column
            // (the full reference costs two 256 MiB unitaries), and its
            // stripped-key pair up to the reference's first divergence.
            assert_eq!(dense_verdict(&a, &restored), Expected::Equivalent, "{name}");
            let sample = (0..1u64 << a.num_qubits()).step_by(32);
            assert_eq!(
                reference(&a, &restored, sample),
                Expected::Equivalent,
                "{name}"
            );
            let got = dense_verdict(&a, &wrong);
            assert_eq!(
                got,
                reference(&a, &wrong, 0..1u64 << a.num_qubits()),
                "{name}"
            );
            if got != Expected::Equivalent {
                diverging += 1;
            }
        }
    }
    // 4gt13 has no idle slot, so its stripped key is the identity; the
    // other keys must really break the circuit for the check to bite.
    assert!(diverging >= 6, "only {diverging} stripped keys diverged");
}

/// A seeded Clifford+T circuit with at most `max_h` Hadamards.
fn clifford_t(n: u32, gates: usize, max_h: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let mut h_left = max_h;
    for _ in 0..gates {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        match rng.gen_range(0..6u8) {
            0 if h_left > 0 => {
                h_left -= 1;
                c.h(a);
            }
            1 => {
                c.s(a);
            }
            2 => {
                c.t(a);
            }
            3 => {
                c.tdg(a);
            }
            _ => {
                c.cx(a, b);
            }
        }
    }
    c
}

#[test]
fn seeded_clifford_t_pairs_match_unitary_columns() {
    let mut kinds = [0usize; 3];
    for (k, &n) in [3u32, 5, 7, 9, 12].iter().enumerate() {
        for max_h in [2usize, 3 * n as usize] {
            let seed = 100 * k as u64 + max_h as u64;
            let a = clifford_t(n, 6 * n as usize, max_h, seed);
            // Identity noise, a diagonal residue, and a bit flip.
            let mut same = a.clone();
            same.s(0).sdg(0).cx(0, 1).cx(0, 1);
            let mut phase = a.clone();
            phase.t(n - 1);
            let mut flipped = a.clone();
            flipped.x(n / 2);
            for (label, b) in [("same", same), ("phase", phase), ("flipped", flipped)] {
                let label = format!("{n}q max_h={max_h} {label}");
                if n > MATRIX_MAX_QUBITS && label.ends_with("same") {
                    // Full 12-qubit reference only on the diverging
                    // pairs, which stop at their first divergence.
                    assert_eq!(dense_verdict(&a, &b), Expected::Equivalent, "{label}");
                    continue;
                }
                let got = if n > MATRIX_MAX_QUBITS {
                    let got = dense_verdict(&a, &b);
                    assert_eq!(got, reference(&a, &b, 0..1u64 << n), "{label}");
                    got
                } else {
                    assert_agrees(&label, &a, &b)
                };
                kinds[match got {
                    Expected::Equivalent => 0,
                    Expected::BasisColumn(_) => 1,
                    Expected::RelativePhase(..) => 2,
                }] += 1;
            }
        }
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "every verdict kind covered: {kinds:?}"
    );
}

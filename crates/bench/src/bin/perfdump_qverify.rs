//! `perfdump_qverify` — machine-readable verifier perf trajectory.
//!
//! Runs the ZX scaling suite — certify (Clifford+T restore round-trips
//! at 20/30/40 qubits), stall (a corrupted restore whose atom-sum
//! residue cannot be witnessed, i.e. the price of falling through),
//! and witness (wrong-key rejection via the replay-confirmed witness:
//! bit replay at 20/30 qubits, and sparse basis-column replay at 20
//! and 30 qubits — the latter past the statevector cap) — plus the
//! restored pairs of `tetrislock batch --suite table1` (default job
//! config) for rd53/rd73/rd84, timed through the forced dense tier and
//! through the full tier cascade, the same pairs corrupted by an `x(0)`
//! (refuted at column 0) or a trailing `t` on the top wire (refuted
//! later; rd84's at column 255), and stripped-key refutations of the
//! 18- and 20-qubit Clifford+T circuits (`check_report`: a ZX stall,
//! then witness replay on a sparse column or a statevector). It writes
//! `BENCH_qverify.json` with the median wall-clock per case and a
//! provenance block (commit, `nproc`, resolved qsim workers), so the
//! verifier's cost trajectory is recorded on every run instead of
//! claimed once.
//!
//! ```text
//! cargo run --release -p bench --bin perfdump_qverify            # full suite
//! cargo run --release -p bench --bin perfdump_qverify -- --smoke # CI smoke
//! cargo run --release -p bench --bin perfdump_qverify -- --out path.json
//! ```
//!
//! The smoke suite (20-qubit cases, rd53 and a 14-qubit key) finishes
//! in seconds and is wired into CI so the emitter can never silently
//! rot. All timing goes through [`qobs::time_median_ms`], so the
//! numbers landing in `BENCH_qverify.json` are the same qobs samples a
//! live trace sees.

use qcir::random::{random_reversible, RandomCircuitConfig};
use qcir::Circuit;
use qverify::{Verdict, Verifier};
use tetrislock::job::{JobConfig, JobStage, JobState};
use tetrislock::recombine::recombine;
use tetrislock::Obfuscator;

/// One timed case of the suite.
struct CaseResult {
    name: String,
    qubits: u32,
    gates: usize,
    reps: usize,
    median_ms: f64,
    outcome: &'static str,
}

/// A Clifford+T ladder: the certify workload.
fn clifford_t_ladder(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n - 1 {
        c.h(q).t(q).cx(q, q + 1);
    }
    c
}

/// Obfuscate→split→recombine round-trip pair for `c`.
fn roundtrip_pair(c: &Circuit) -> (Circuit, Circuit) {
    let obf = Obfuscator::new().with_seed(11).obfuscate(c);
    let restored = recombine(&obf.split(3)).expect("recombination is total");
    (c.clone(), restored)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_qverify.json")
        .to_string();

    let verifier = Verifier::new();
    let widths: &[u32] = if smoke { &[20] } else { &[20, 30, 40] };
    let reps = if smoke { 2 } else { 5 };
    // Rows that take well under a millisecond run 5× the reps: a median
    // of 5 such samples flips with the host's speed state.
    let fine_reps = 5 * reps;
    let mut cases: Vec<CaseResult> = Vec::new();

    for &n in widths {
        // certify: the round-trip miter fully reduces to the identity.
        let (orig, restored) = roundtrip_pair(&clifford_t_ladder(n));
        eprintln!("timing zx_certify_{n}q…");
        let ms = qobs::time_median_ms(&format!("perfdump.zx_certify_{n}q"), 1, fine_reps, || {
            let report = verifier
                .check_zx(&orig, &restored)
                .expect("round-trip miter reduces");
            assert!(report.verdict.is_equivalent());
        });
        cases.push(CaseResult {
            name: format!("zx_certify_{n}q"),
            qubits: n,
            gates: orig.gate_count() + restored.gate_count(),
            reps: fine_reps,
            median_ms: ms,
            outcome: "equivalent",
        });

        // stall: a corrupted restore whose residue cannot be witnessed —
        // the ZX tier must pay the full reduction *and* decline to
        // answer. A bare T residue no longer works here (relative-phase
        // replay certifies diagonal residues), so the corruption is an
        // atom-sum identity: rz(0.2)·rz(−0.1)·rz(−0.1) is formally
        // nonzero to the exact phase algebra (distinct atoms never
        // collapse), stalling the reduction, while its numeric phase
        // (~2.8e-17 rad) sits far below every replay tolerance — so no
        // witness can confirm and the stall honestly falls through.
        let mut corrupted = Circuit::new(n);
        corrupted.rz(0.2, 0).rz(-0.1, 0).rz(-0.1, 0);
        corrupted.compose(&restored).expect("same register");
        eprintln!("timing zx_stall_{n}q…");
        let ms = qobs::time_median_ms(&format!("perfdump.zx_stall_{n}q"), 1, fine_reps, || {
            assert!(verifier.check_zx(&orig, &corrupted).is_none());
        });
        cases.push(CaseResult {
            name: format!("zx_stall_{n}q"),
            qubits: n,
            gates: orig.gate_count() + corrupted.gate_count(),
            reps: fine_reps,
            median_ms: ms,
            outcome: "fall-through",
        });
    }

    // witness (bit replay): a wrong-key reversible pair past the
    // stimulus cap — previously Inconclusive, now rejected exactly.
    let witness_widths: &[u32] = if smoke { &[20] } else { &[20, 30] };
    for &n in witness_widths {
        let orig = random_reversible(&RandomCircuitConfig::new(n, 24, 12));
        let mut bad = orig.clone();
        bad.x(n / 2);
        eprintln!("timing zx_witness_bit_replay_{n}q…");
        let name = format!("perfdump.zx_witness_bit_replay_{n}q");
        let ms = qobs::time_median_ms(&name, 1, reps, || {
            let report = verifier.check_zx(&orig, &bad).expect("witness confirms");
            assert!(matches!(report.verdict, Verdict::Inequivalent { .. }));
        });
        cases.push(CaseResult {
            name: format!("zx_witness_bit_replay_{n}q"),
            qubits: n,
            gates: orig.gate_count() + bad.gate_count(),
            reps,
            median_ms: ms,
            outcome: "inequivalent",
        });
    }

    // witness (basis-column replay): a non-classical residue confirmed
    // by replaying single basis columns of the miter through the sparse
    // column. The 30-qubit case sits past the statevector cap and is
    // only decidable that way.
    let column_widths: &[u32] = if smoke { &[14] } else { &[20, 30] };
    for &n in column_widths {
        let mut orig = Circuit::new(n);
        orig.t(0).tdg(0).swap(3, 7);
        let bad = Circuit::new(n);
        let label = if n > qverify::MAX_STIMULUS_QUBITS {
            "sparse"
        } else {
            "basis_replay"
        };
        eprintln!("timing zx_witness_{label}_{n}q…");
        let name = format!("perfdump.zx_witness_{label}_{n}q");
        let ms = qobs::time_median_ms(&name, 1, fine_reps, || {
            let report = verifier.check_zx(&orig, &bad).expect("witness confirms");
            assert!(matches!(report.verdict, Verdict::Inequivalent { .. }));
        });
        cases.push(CaseResult {
            name: format!("zx_witness_{label}_{n}q"),
            qubits: n,
            gates: orig.gate_count(),
            reps: fine_reps,
            median_ms: ms,
            outcome: "inequivalent",
        });
    }

    // restored pairs: what a protection job's verify stage checks. The
    // forced dense tier walks every basis column on sparse columns;
    // the full cascade adds the ZX stall that precedes it.
    let restored_names: &[&str] = if smoke {
        &["rd53"]
    } else {
        &["rd53", "rd73", "rd84"]
    };
    let config = JobConfig::default();
    let job_verifier = Verifier::new()
        .with_trials(config.trials)
        .with_seed(config.verify_seed);
    for bench in revlib::table1_benchmarks()
        .into_iter()
        .filter(|b| restored_names.contains(&b.name()))
    {
        let (orig, restored) = restored_pair(bench.name(), bench.circuit(), &config);
        let gates = orig.gate_count() + restored.gate_count();
        let name = format!("dense_restored_{}", bench.name());
        eprintln!("timing {name}…");
        let ms = qobs::time_median_ms(&format!("perfdump.{name}"), 1, reps, || {
            let report = job_verifier
                .check_dense(&orig, &restored)
                .expect("the restored pair fits the dense tier");
            assert!(report.verdict.is_equivalent(), "{report}");
        });
        cases.push(CaseResult {
            name,
            qubits: orig.num_qubits(),
            gates,
            reps,
            median_ms: ms,
            outcome: "equivalent",
        });
        let name = format!("report_restored_{}", bench.name());
        eprintln!("timing {name}…");
        let ms = qobs::time_median_ms(&format!("perfdump.{name}"), 1, reps, || {
            let report = job_verifier.check_report(&orig, &restored);
            assert!(report.verdict.is_equivalent(), "{report}");
        });
        cases.push(CaseResult {
            name,
            qubits: orig.num_qubits(),
            gates,
            reps,
            median_ms: ms,
            outcome: "equivalent",
        });
        // Corrupted restores through the full cascade: `x(0)` is refuted
        // at column 0, before the dense walk fuses its program; a
        // trailing `t` on the top wire diverges later (rd84: at column
        // 255, past the fusion point). These take well under a
        // millisecond to a few, so they run `fine_reps`.
        let (mut x0, mut t_top) = (restored.clone(), restored.clone());
        x0.x(0);
        t_top.t(orig.num_qubits() - 1);
        for (label, corrupted) in [("x0", x0), ("t_top", t_top)] {
            let name = format!("report_{label}_{}", bench.name());
            eprintln!("timing {name}…");
            let ms = qobs::time_median_ms(&format!("perfdump.{name}"), 1, fine_reps, || {
                let report = job_verifier.check_report(&orig, &corrupted);
                assert!(report.verdict.is_inequivalent(), "{report}");
            });
            cases.push(CaseResult {
                name,
                qubits: orig.num_qubits(),
                gates: orig.gate_count() + corrupted.gate_count(),
                reps: fine_reps,
                median_ms: ms,
                outcome: "inequivalent",
            });
        }
    }

    // wrong key: a Clifford+T circuit against its obfuscation with the
    // key stripped, the refutation a wrong-key check pays for.
    let key_widths: &[u32] = if smoke { &[14] } else { &[18, 20] };
    for &n in key_widths {
        let orig = bench::clifford_t_circuit(n, 10 * n as usize);
        let masked = stripped_key(&orig);
        let name = format!("key_clifford_t_{n}q");
        eprintln!("timing {name}…");
        let ms = qobs::time_median_ms(&format!("perfdump.{name}"), 1, fine_reps, || {
            let report = job_verifier.check_report(&orig, &masked);
            assert!(report.verdict.is_inequivalent(), "{report}");
        });
        cases.push(CaseResult {
            name,
            qubits: n,
            gates: orig.gate_count() + masked.gate_count(),
            reps: fine_reps,
            median_ms: ms,
            outcome: "inequivalent",
        });
    }

    let json = render_json(&cases, smoke);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("{json}");
    eprintln!("wrote {out}");
}

/// The (original, restored) pair a default-config protection job of
/// `circuit` verifies, widened to one register as its verify stage does.
fn restored_pair(id: &str, circuit: &Circuit, config: &JobConfig) -> (Circuit, Circuit) {
    let mut job = JobState::new(id, circuit.clone(), config.clone());
    let unused_out_dir = std::env::temp_dir();
    while job.stage != JobStage::Verify {
        job.advance(&unused_out_dir)
            .expect("pre-verify stages write nothing");
    }
    let restored = job.restored.expect("the recombine stage ran");
    let n = circuit.num_qubits().max(restored.num_qubits());
    (
        circuit.widened(n).into_owned(),
        restored.widened(n).into_owned(),
    )
}

/// The masked circuit `R·C` of the first seeded obfuscation of `c`
/// whose key `R` is not the identity. Keys are affine (X/CX/SWAP), so
/// the zero input and the unit inputs decide that.
fn stripped_key(c: &Circuit) -> Circuit {
    (0..64)
        .map(|seed| Obfuscator::new().with_seed(seed).obfuscate(c))
        .find(|obf| {
            let r = obf.r_circuit();
            std::iter::once(0)
                .chain((0..c.num_qubits()).map(|q| 1usize << q))
                .any(|x| revlib::classical_eval(&r, x).expect("affine key") != x)
        })
        .expect("some seed draws a non-identity key")
        .masked_circuit()
}

fn render_json(cases: &[CaseResult], smoke: bool) -> String {
    let mut body = String::new();
    for (i, case) in cases.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"qubits\": {}, \"gates\": {}, \"reps\": {}, \
             \"median_ms\": {:.4}, \"outcome\": \"{}\"}}{}\n",
            case.name,
            case.qubits,
            case.gates,
            case.reps,
            case.median_ms,
            case.outcome,
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    format!(
        "{{\n  \"suite\": \"qverify_zx\",\n  \"schema_version\": 1,\n  \"smoke\": {smoke},\n  \
         \"provenance\": {},\n  \
         \"engine\": {{\"max_mcx_controls\": {}, \"stimulus_cap_qubits\": {}, \
         \"dyadic_grid_log\": {}, \"column_cap_qubits\": {}, \
         \"column_support_budget\": {}}},\n  \"cases\": [\n{body}  ]\n}}\n",
        bench::provenance_json(),
        qverify::MAX_MCX_CONTROLS,
        qverify::MAX_STIMULUS_QUBITS,
        qverify::DYADIC_GRID_LOG,
        qverify::MAX_COLUMN_QUBITS,
        qsim::column::MAX_SUPPORT_BUDGET,
    )
}

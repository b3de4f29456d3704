//! Full-pipeline trace round-trip: run the real
//! obfuscate → split → compile → recombine → verify pipeline with a
//! memory sink at full level, then schema-validate the emitted trace,
//! re-parse every line, and check the signals each layer promised.
//! Alongside it: what the statevector engine leaves in a trace — its
//! kernel counters for a fused run, no per-run fusion records, and a
//! size budget for a full-level stimulus check.
//!
//! The qobs level and sink are process-global. This file gets its own
//! test binary (its own process), so it cannot disturb the other
//! suites; within the file every test serializes on `TEST_LOCK` and
//! installs its own sink.

use qcir::Circuit;
use std::sync::Mutex;
use tetrislock::recombine::recombine;
use tetrislock::Obfuscator;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A non-Clifford sample so verification cannot shortcut through the
/// classical or tableau tiers.
fn sample() -> Circuit {
    let mut c = Circuit::with_name(4, "trace_sample");
    c.h(0).cx(0, 1).t(1).cx(1, 2).tdg(2).cx(0, 3).h(3);
    c
}

#[test]
fn full_pipeline_trace_is_schema_valid_and_parseable() {
    let _guard = lock();
    qobs::set_level(qobs::Level::Full);
    let sink = qobs::set_trace_memory();
    qobs::run_meta(&[
        ("command", qobs::AttrValue::from("pipeline_test")),
        (
            "qsim_workers",
            qobs::AttrValue::from(qsim::resolved_workers()),
        ),
    ]);

    // The pipeline under trace: protect, compile each segment,
    // recombine, verify against the original.
    let circuit = sample();
    let obf = Obfuscator::new().with_seed(3).obfuscate(&circuit);
    let split = obf.split(7);
    let device = qsim::Device::ideal(4);
    let transpiled = qcompile::Transpiler::new(device)
        .transpile(&split.left.circuit)
        .expect("segment transpiles");
    assert!(transpiled.circuit.gate_count() > 0);
    let restored = recombine(&split).expect("recombination is total");
    let report = qverify::Verifier::new().check_report(&circuit, &restored);
    assert!(report.verdict.is_equivalent());

    // A phase-only inequivalent pair past the dense cap: the ZX tier
    // certifies it through the phase replay, so the witness counters
    // land in this trace. Within the cap the sparse dense columns
    // decide the same pair first, with the same witness.
    let phase_pair = |n: u32| {
        let mut t = Circuit::new(n);
        t.t(0);
        let mut tdg = Circuit::new(n);
        tdg.tdg(0);
        qverify::Verifier::new().check_report(&t, &tdg)
    };
    let phase = phase_pair(qverify::MAX_UNITARY_QUBITS + 1);
    assert_eq!(phase.tier, qverify::Tier::Zx);
    assert!(phase.verdict.is_inequivalent());
    let small = phase_pair(2);
    assert_eq!(small.tier, qverify::Tier::Dense);
    assert_eq!(small.verdict, phase.verdict);

    // A deliberately inequivalent dense-tier check so the column engine
    // and the statevector kernels run inside this same trace: the
    // 8-control mcx refuses ZX translation, so the miter never becomes
    // a diagram and the dense tier decides. Six leading Hadamards give
    // each column 64 live amplitudes, past the 9-qubit support budget,
    // so the sparse-only pass gives up, ZX cannot translate the miter,
    // and the dense pass with the statevector fallback decides.
    let mut wide = Circuit::new(9);
    let mut wide_bad = Circuit::new(9);
    for q in 0..6 {
        wide.h(q);
        wide_bad.h(q);
    }
    wide.mcx(&[0, 1, 2, 3, 4, 5, 6, 7], 8).t(8);
    wide_bad.mcx(&[0, 1, 2, 3, 4, 5, 6, 7], 8).tdg(8);
    let dense = qverify::Verifier::new().check_report(&wide, &wide_bad);
    assert_eq!(dense.tier, qverify::Tier::Dense);
    assert!(dense.verdict.is_inequivalent());

    qobs::flush();
    let text = sink.contents();
    qobs::clear_trace();

    // Schema-valid end to end.
    let summary = qobs::schema::validate_trace(&text)
        .unwrap_or_else(|e| panic!("invalid trace: {e}\n{text}"));
    assert!(
        summary.spans >= 6,
        "expected pipeline + verify spans:\n{text}"
    );
    assert!(summary.counters > 0 && summary.lines > summary.spans);

    // Every line re-parses as a flat JSON object with a type tag.
    for line in text.lines() {
        let obj = qobs::json::parse_line(line)
            .unwrap_or_else(|e| panic!("unparseable line `{line}`: {e}"));
        assert!(obj.get_str("type").is_some(), "untyped line `{line}`");
    }

    // The signals each instrumented layer promised.
    for needle in [
        "\"qsim_workers\"",
        "\"name\":\"core.obfuscate\"",
        "\"name\":\"core.split\"",
        "\"name\":\"compile.transpile\"",
        "\"name\":\"core.recombine\"",
        "\"name\":\"verify.check\"",
        "\"name\":\"verify.tier\"",
        "\"tier\":\"dense\"",
        "\"outcome\":\"decided\"",
        "qsim.kernel.",
        "qsim.column.budget_trips",
        "qverify.tier.dense.entered",
        "qverify.tier.dense.elapsed_us",
        "qverify.zx.witness.basis_replays",
        "qverify.zx.witness.phase_replays",
        "qverify.zx.witness.confirmed",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    // And the report renderer accepts the same document.
    let rendered = qobs::report::summarize(&text).expect("report renders the trace");
    assert!(rendered.contains("verify.tier[dense]"), "{rendered}");
    assert!(rendered.contains("<- decided"), "{rendered}");
}

#[test]
fn spans_nest_with_resolvable_parents() {
    let _guard = lock();
    qobs::set_level(qobs::Level::Full);
    let sink = qobs::set_trace_memory();
    qobs::run_meta(&[]);

    {
        let _outer = qobs::span("outer");
        let _inner = qobs::span("inner");
    }

    qobs::flush();
    let text = sink.contents();
    qobs::clear_trace();

    qobs::schema::validate_trace(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let inner_line = text
        .lines()
        .find(|l| l.contains("\"name\":\"inner\""))
        .expect("inner span emitted");
    let inner = qobs::json::parse_line(inner_line).unwrap();
    let parent = inner.get_u64("parent").expect("inner has a parent");
    let outer_line = text
        .lines()
        .find(|l| l.contains("\"name\":\"outer\""))
        .expect("outer span emitted");
    let outer = qobs::json::parse_line(outer_line).unwrap();
    assert_eq!(outer.get_u64("id"), Some(parent));
}

/// An `x(q); t(q)` run on a register past `FUSION_MIN_QUBITS` fuses:
/// the product `T·X` is exactly antidiagonal, so the run lowers to one
/// antidiagonal kernel op instead of a swap walk plus a phase scan, and
/// the state still matches the naive reference.
#[test]
fn x_then_t_run_lowers_to_one_antidiagonal_op() {
    let _guard = lock();
    let n = qsim::statevector::FUSION_MIN_QUBITS;
    let mut c = Circuit::new(n);
    c.x(3).t(3);
    qobs::set_level(qobs::Level::Counters);
    qobs::reset_metrics();
    let sv = qsim::Statevector::from_circuit(&c).expect("within cap");
    let counters = qobs::counter_snapshot();
    qobs::set_level(qobs::Level::Off);

    let count = |name: &str| {
        counters
            .iter()
            .find(|(counter, _)| *counter == name)
            .map_or(0, |&(_, value)| value)
    };
    assert_eq!(count("qsim.kernel.anti1"), 1, "{counters:?}");
    assert_eq!(count("qsim.kernel.mcx"), 0, "{counters:?}");
    assert_eq!(count("qsim.kernel.diag1"), 0, "{counters:?}");
    let reference = qsim::statevector::reference::from_circuit(&c);
    for (a, b) in sv.amplitudes().iter().zip(&reference) {
        assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
    }
}

/// The engine makes no per-run decision, so a full-level trace of a
/// 16-qubit Clifford+T `apply_circuit` holds no point event at all —
/// only the call's span and the kernel counters.
#[test]
fn full_trace_of_apply_circuit_holds_no_event() {
    let _guard = lock();
    qobs::set_level(qobs::Level::Full);
    let sink = qobs::set_trace_memory();
    qobs::run_meta(&[]);
    let circuit = bench::clifford_t_circuit(16, 200);
    qsim::Statevector::from_circuit(&circuit).expect("within cap");
    qobs::flush();
    let text = sink.contents();
    qobs::clear_trace();
    qobs::set_level(qobs::Level::Off);

    assert!(text.contains("\"name\":\"qsim.apply_circuit\""), "{text}");
    assert!(text.contains("qsim.kernel."), "{text}");
    let events: Vec<&str> = text
        .lines()
        .filter(|line| line.contains("\"type\":\"event\""))
        .collect();
    assert!(
        events.is_empty(),
        "{} events, first: {:?}",
        events.len(),
        events.first()
    );
}

/// A full-level trace of a forced stimulus check stays bounded: a
/// 15-qubit Clifford+T circuit against its compiled form (Euler-angle
/// runs of `rz`/`sx` on every wire), eight trials, each replaying the
/// miter on a prepared product state. The trace is one span per
/// statevector replay plus the check's own spans and counters — about
/// 2.4 KB; a per-run record (one line per fused run, as the retired
/// fusion cost model wrote) would push it past 100 KB.
#[test]
fn forced_stimulus_full_trace_stays_within_its_size_budget() {
    let _guard = lock();
    let circuit = bench::clifford_t_circuit(15, 150);
    let compiled = qcompile::Transpiler::new(qsim::Device::ideal(15))
        .transpile(&circuit)
        .expect("fits the device")
        .into_logical_circuit();
    qobs::set_level(qobs::Level::Full);
    let sink = qobs::set_trace_memory();
    qobs::run_meta(&[]);
    let report = qverify::Verifier::new()
        .check_stimulus(&circuit, &compiled)
        .expect("within the stimulus cap");
    qobs::flush();
    let text = sink.contents();
    qobs::clear_trace();
    qobs::set_level(qobs::Level::Off);

    assert!(report.verdict.is_equivalent());
    assert_eq!(report.trials, 8);
    qobs::schema::validate_trace(&text).unwrap_or_else(|e| panic!("invalid trace: {e}"));
    const BUDGET_BYTES: usize = 8 * 1024;
    assert!(
        text.len() <= BUDGET_BYTES,
        "a full-level stimulus trace of {} bytes exceeds its {BUDGET_BYTES}-byte budget:\n{text}",
        text.len()
    );
}

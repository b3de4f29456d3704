//! The traced run: one pass over the workload's ops, each op driven
//! through the same public calls `run_batch` makes (`JobState::new`,
//! `job::save_checkpoint`, `JobState::advance` × 7) or through
//! `check_report`, with one qobs span per call. All spans of an op share
//! its op id. Each circuit's first op, if short, also runs untraced,
//! through its public entry point and call by call, for the unattributed
//! share and the tracing overhead. Forced single-tier probes on each
//! circuit's first verified pair follow, in their own spans. Repeats of
//! a circuit are not replayed or probed again, so a pass's repeats do
//! not multiply the traced run's length.
//!
//! Counter deltas come from the program's own counters
//! (`qobs::counter_snapshot`), read around the traced ops only. Spans
//! stay in qobs' memory sink and are written at the end as a schema-
//! valid JSONL trace that `tetrislock report` renders.

use crate::inputs::{pad_pair, JobInput};
use crate::workload::{Ops, Prepared};
use qcir::Circuit;
use qobs::{AttrValue, Level};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;
use tetrislock::job::{checkpoint_path, save_checkpoint, JobStage, JobState};

/// The Table I circuits, as metric-safe slugs, in table order.
pub const TABLE1_SLUGS: [&str; 8] = [
    "mini_alu",
    "4mod5",
    "1-bit_adder",
    "4gt11",
    "4gt13",
    "rd53",
    "rd73",
    "rd84",
];

/// Verifier tiers with a `decided` counter.
const DECIDING_TIERS: [&str; 5] = ["classical", "tableau", "zx", "dense", "stimulus"];

/// Traced ops at least this slow skip the untraced replays.
const SHORT_OP_MS: f64 = 1000.0;

/// Timings summed over the replayed short ops, which also run untraced.
#[derive(Default)]
struct ShortOps {
    ops: usize,
    /// Untraced, through the op's public entry point (`run_batch`).
    entry_ms: f64,
    /// Untraced, call by call.
    bare_ms: f64,
    /// Traced, call by call.
    traced_ms: f64,
    /// Inside the traced call spans.
    call_ms: f64,
}

/// Tiers the probes force one by one.
const PROBED_TIERS: [&str; 4] = ["tableau", "zx", "dense", "stimulus"];

/// qsim kernel classes with a counter.
const KERNEL_CLASSES: [&str; 8] = [
    "diag1", "phase", "mcx", "swap", "anti1", "mat1", "mat2q", "matkq",
];

/// Layers with a self-time row, in pipeline order. The traced pass
/// drives the calls `run_batch` makes, not `run_batch` itself, so no
/// `batch` span exists to time.
const SELF_TIME_LAYERS: [&str; 7] = [
    "insertion",
    "interlock",
    "qcompile",
    "recombine",
    "qverify",
    "persist",
    "job",
];

/// Every job stage, for mapping a `job.stage` span's `stage` attribute.
const STAGES: [JobStage; 8] = [
    JobStage::Obfuscate,
    JobStage::Split,
    JobStage::CompileLeft,
    JobStage::CompileRight,
    JobStage::Recombine,
    JobStage::Verify,
    JobStage::Emit,
    JobStage::Done,
];

/// The `table1` counter deltas under the CLI default job config (seed
/// 0), as measured for the ROADMAP: any drift means the benchmark no
/// longer drives the pipeline `tetrislock batch` runs.
const TABLE1_DEFAULT_COUNTS: [(&str, u64); 6] = [
    ("qsim.apply_circuit.calls", 10_508),
    ("qverify.zx.rule.pivot_gadget", 10_253),
    ("qverify.zx.meter_exhausted", 3),
    ("job.checkpoints_written", 64),
    ("qverify.tier.zx.decided", 5),
    ("qverify.tier.dense.decided", 3),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("insertion.obfuscate_ms", "ms"),
        ("insertion.inserted_gates_mean", "gates"),
        ("interlock.split_ms", "ms"),
        ("interlock.mismatched_qubits_frac", "ratio"),
        ("qcompile.compile_ms", "ms"),
        ("qcompile.swaps_inserted_mean", "swaps"),
        ("qcompile.gates_out_mean", "gates"),
        ("recombine.ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for slug in TABLE1_SLUGS {
        names.push((format!("qverify.verify_ms.{slug}"), "ms"));
    }
    for tier in DECIDING_TIERS {
        names.push((format!("qverify.decided.{tier}"), "count"));
    }
    for tier in PROBED_TIERS {
        names.push((format!("qverify.tier_ms.{tier}"), "ms"));
    }
    for (n, u) in [
        ("qverify.wasted_ms", "ms"),
        ("qverify.op_share_pct", "%"),
        ("qverify.zx.decided_per_entered", "ratio"),
        ("qverify.zx.meter_exhausted", "count"),
        ("qverify.zx.pivot_gadget", "count"),
        ("qverify.zx.witness_candidates", "count"),
        ("qverify.zx.witness_replays", "count"),
        ("qverify.zx.confirmed_per_candidate", "ratio"),
        ("qsim.apply_circuit_calls", "count"),
        ("qsim.full_passes", "count"),
    ] {
        names.push((n.to_string(), u));
    }
    for class in KERNEL_CLASSES {
        names.push((format!("qsim.kernel.{class}"), "count"));
    }
    for (n, u) in [
        ("persist.checkpoint_ms", "ms"),
        ("persist.checkpoint_bytes_mean", "bytes"),
        ("persist.checkpoints_per_job", "count"),
        ("job.emit_ms", "ms"),
        ("batch.unattributed_pct", "%"),
        ("qobs.trace_overhead_pct", "%"),
    ] {
        names.push((n.to_string(), u));
    }
    for layer in SELF_TIME_LAYERS {
        names.push((format!("{layer}.self_ms"), "ms"));
    }
    names
}

/// The layer a job stage's `advance` call belongs to.
fn stage_layer(stage: JobStage) -> &'static str {
    match stage {
        JobStage::Obfuscate => "insertion",
        JobStage::Split => "interlock",
        JobStage::CompileLeft | JobStage::CompileRight => "qcompile",
        JobStage::Recombine => "recombine",
        JobStage::Verify => "qverify",
        JobStage::Emit | JobStage::Done => "job",
    }
}

/// One timed public call of a traced op.
struct CallRec {
    layer: &'static str,
    call: &'static str,
    ms: f64,
}

/// Per-job products read off the finished in-memory job.
#[derive(Default)]
struct JobFacts {
    inserted_gates: Vec<f64>,
    mismatched: Vec<f64>,
    swaps: Vec<f64>,
    gates_out: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
}

/// Call spans and their timings, per op.
#[derive(Default)]
struct Recorder {
    calls: Vec<(usize, CallRec)>,
}

impl Recorder {
    fn call<T>(
        &mut self,
        op: usize,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = qobs::span("perfbench.call")
            .attr("op", op)
            .attr("layer", layer)
            .attr("call", call);
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        drop(span);
        self.calls.push((op, CallRec { layer, call, ms }));
        out
    }

    /// Summed time of the matching calls, ms.
    fn total_ms(&self, keep: impl Fn(usize, &CallRec) -> bool) -> f64 {
        self.calls
            .iter()
            .filter(|(op, c)| keep(*op, c))
            .map(|(_, c)| c.ms)
            .sum()
    }
}

/// What the traced run produced.
pub struct TracedRun {
    /// Per-layer metrics: name, unit, value.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Ops issued (each op runs traced call by call; a circuit's first
    /// short op also runs untraced through its entry point and call by
    /// call).
    pub attempted: usize,
    /// Ops that errored or gave the wrong answer.
    pub failed: usize,
    /// Diagnostic lines (first failure, cross-check, trace files).
    pub notes: Vec<String>,
    /// `false` when the counter cross-check ran and failed.
    pub crosscheck_ok: bool,
}

/// Runs one traced pass and writes `trace_path` (JSONL) plus a rendered
/// report next to it. When `crosscheck_ops` > 0, the counter deltas of
/// the pass's first `crosscheck_ops` ops must equal the CLI-default
/// `table1` batch's.
pub fn traced_run(
    prepared: &Prepared,
    crosscheck_ops: usize,
    meta: &[(&'static str, AttrValue)],
    trace_path: &Path,
) -> Result<TracedRun, String> {
    let n = prepared.len();
    qobs::set_level(Level::Spans);
    let sink = qobs::set_trace_memory();
    qobs::run_meta(meta);

    let mut rec = Recorder::default();
    let mut facts = JobFacts::default();
    let mut deltas: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut pairs: Vec<(String, Circuit, Circuit)> = Vec::new();
    let mut slugs: Vec<String> = Vec::new();
    let mut crosscheck: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut short = ShortOps::default();
    let mut replayed: BTreeSet<String> = BTreeSet::new();
    let mut run = TracedRun {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        crosscheck_ok: true,
    };
    let record = |run: &mut TracedRun, what: &str, outcome: Result<bool, String>| {
        run.attempted += 1;
        let failure = match outcome {
            Ok(true) => return,
            Ok(false) => format!("{what}: wrong verdict"),
            Err(e) => format!("{what}: {e}"),
        };
        run.failed += 1;
        if run.failed == 1 {
            run.notes.push(format!("first failure: {failure}"));
        }
    };

    for k in 0..n {
        slugs.push(prepared.circuit_slug(k));
        qobs::set_level(Level::Spans);
        let before = qobs::counter_snapshot();
        let calls_before = rec.calls.len();
        let start = Instant::now();
        let traced = drive_op(prepared, k, &mut rec, &mut facts);
        let traced_ms = start.elapsed().as_secs_f64() * 1e3;
        for (name, value) in qobs::counter_snapshot() {
            let was = before
                .iter()
                .find(|(b, _)| *b == name)
                .map_or(0, |&(_, v)| v);
            *deltas.entry(name).or_insert(0) += value - was;
            if k < crosscheck_ops {
                *crosscheck.entry(name).or_insert(0) += value - was;
            }
        }
        let traced = traced.map(|(ok, (a, b))| {
            if !pairs.iter().any(|(slug, _, _)| *slug == slugs[k]) {
                pairs.push((slugs[k].clone(), a, b));
            }
            ok
        });
        record(&mut run, &format!("traced op {k}"), traced);

        // A circuit's first short op also runs untraced: once through its
        // public entry point (the unattributed share) and once call by
        // call (the tracing-overhead baseline). Span cost is per call, so
        // long ops would only add noise here, and rd84 would triple the
        // run.
        if traced_ms >= SHORT_OP_MS || !replayed.insert(slugs[k].clone()) {
            continue;
        }
        qobs::set_level(Level::Off);
        let start = Instant::now();
        let untraced = prepared.run_op(k);
        short.entry_ms += start.elapsed().as_secs_f64() * 1e3;
        record(&mut run, &format!("op {k}"), untraced);
        let start = Instant::now();
        let bare = drive_op(
            prepared,
            k,
            &mut Recorder::default(),
            &mut JobFacts::default(),
        );
        short.bare_ms += start.elapsed().as_secs_f64() * 1e3;
        record(
            &mut run,
            &format!("untraced op {k}"),
            bare.map(|(ok, _)| ok),
        );
        short.traced_ms += traced_ms;
        short.call_ms += rec.calls[calls_before..]
            .iter()
            .map(|(_, c)| c.ms)
            .sum::<f64>();
        short.ops += 1;
    }
    qobs::set_level(Level::Spans);

    let mut probe_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (slug, a, b) in &pairs {
        for tier in PROBED_TIERS {
            let wires = a.num_qubits();
            let applies = match tier {
                "dense" => wires <= qverify::MAX_UNITARY_QUBITS,
                "stimulus" => wires <= qverify::MAX_STIMULUS_QUBITS,
                _ => true,
            };
            if !applies {
                continue;
            }
            let _span = qobs::span("perfbench.probe")
                .attr("tier", tier)
                .attr("circuit", slug.as_str());
            let v = &prepared.verifier;
            let start = Instant::now();
            match tier {
                "tableau" => drop(std::hint::black_box(v.check_tableau(a, b))),
                "zx" => drop(std::hint::black_box(v.check_zx(a, b))),
                "dense" => drop(std::hint::black_box(v.check_dense(a, b))),
                _ => drop(std::hint::black_box(v.check_stimulus(a, b))),
            }
            *probe_ms.entry(tier).or_insert(0.0) += start.elapsed().as_secs_f64() * 1e3;
        }
    }

    qobs::flush();
    qobs::clear_trace();
    qobs::set_level(Level::Off);
    let trace = sink.contents();
    qobs::schema::validate_trace(&trace).map_err(|e| format!("trace fails its schema: {e}"))?;
    let rendered = qobs::report::summarize(&trace)?;
    std::fs::write(trace_path, &trace)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    let report_path = trace_path.with_extension("report.txt");
    std::fs::write(&report_path, &rendered)
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;
    run.notes.push(format!(
        "trace {} ({} lines), report {}",
        trace_path.display(),
        trace.lines().count(),
        report_path.display()
    ));

    let tree = SpanTree::parse(&trace)?;
    let counter = |name: &str| deltas.get(name).copied().unwrap_or(0) as f64;
    let jobs = match &prepared.ops {
        Ops::Jobs(_) => n,
        Ops::Keys(_) => 0,
    };
    let per_op = |layer: &'static str| rec.total_ms(|_, c| c.layer == layer) / n.max(1) as f64;
    let op_total_ms = rec.total_ms(|_, _| true);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    put("insertion.obfuscate_ms", per_op("insertion"));
    put(
        "insertion.inserted_gates_mean",
        crate::stats::mean(&facts.inserted_gates),
    );
    put("interlock.split_ms", per_op("interlock"));
    put(
        "interlock.mismatched_qubits_frac",
        crate::stats::mean(&facts.mismatched),
    );
    put("qcompile.compile_ms", per_op("qcompile"));
    put(
        "qcompile.swaps_inserted_mean",
        crate::stats::mean(&facts.swaps),
    );
    put(
        "qcompile.gates_out_mean",
        crate::stats::mean(&facts.gates_out),
    );
    put("recombine.ms", per_op("recombine"));
    for slug in TABLE1_SLUGS {
        let ops = slugs.iter().filter(|s| *s == slug).count();
        let total = rec.total_ms(|op, c| c.layer == "qverify" && slugs[op] == slug);
        put(
            &format!("qverify.verify_ms.{slug}"),
            total / ops.max(1) as f64,
        );
    }
    for tier in DECIDING_TIERS {
        put(
            &format!("qverify.decided.{tier}"),
            counter(&format!("qverify.tier.{tier}.decided")),
        );
    }
    for tier in PROBED_TIERS {
        put(
            &format!("qverify.tier_ms.{tier}"),
            probe_ms.get(tier).copied().unwrap_or(0.0),
        );
    }
    put("qverify.wasted_ms", tree.fell_through_ms());
    put(
        "qverify.op_share_pct",
        100.0 * ratio(rec.total_ms(|_, c| c.layer == "qverify"), op_total_ms),
    );
    put(
        "qverify.zx.decided_per_entered",
        ratio(
            counter("qverify.tier.zx.decided"),
            counter("qverify.tier.zx.entered"),
        ),
    );
    put(
        "qverify.zx.meter_exhausted",
        counter("qverify.zx.meter_exhausted"),
    );
    put(
        "qverify.zx.pivot_gadget",
        counter("qverify.zx.rule.pivot_gadget"),
    );
    let candidates = counter("qverify.zx.witness.candidates");
    put("qverify.zx.witness_candidates", candidates);
    put(
        "qverify.zx.witness_replays",
        counter("qverify.zx.witness.bit_replays")
            + counter("qverify.zx.witness.basis_replays")
            + counter("qverify.zx.witness.phase_replays"),
    );
    put(
        "qverify.zx.confirmed_per_candidate",
        ratio(counter("qverify.zx.witness.confirmed"), candidates),
    );
    put(
        "qsim.apply_circuit_calls",
        counter("qsim.apply_circuit.calls"),
    );
    put("qsim.full_passes", counter("qsim.exec.full_passes"));
    for class in KERNEL_CLASSES {
        put(
            &format!("qsim.kernel.{class}"),
            counter(&format!("qsim.kernel.{class}")),
        );
    }
    put("persist.checkpoint_ms", per_op("persist"));
    put(
        "persist.checkpoint_bytes_mean",
        crate::stats::mean(&facts.checkpoint_bytes),
    );
    put(
        "persist.checkpoints_per_job",
        ratio(counter("job.checkpoints_written"), jobs as f64),
    );
    put(
        "job.emit_ms",
        rec.total_ms(|_, c| c.call == JobStage::Emit.name()) / n.max(1) as f64,
    );
    put(
        "batch.unattributed_pct",
        100.0 * ratio(short.entry_ms - short.call_ms, short.entry_ms),
    );
    put(
        "qobs.trace_overhead_pct",
        100.0 * ratio(short.traced_ms - short.bare_ms, short.bare_ms),
    );
    run.notes.push(format!(
        "unattributed share and tracing overhead over the {} ops under {SHORT_OP_MS} ms",
        short.ops
    ));
    let self_ms = tree.self_ms_by_layer();
    for layer in SELF_TIME_LAYERS {
        put(
            &format!("{layer}.self_ms"),
            self_ms.get(layer).copied().unwrap_or(0.0) / n.max(1) as f64,
        );
    }

    let names = per_layer_names();
    if names.len() != m.len() {
        return Err(format!(
            "computed {} per-layer metrics for {} declared names",
            m.len(),
            names.len()
        ));
    }
    for (name, unit) in names {
        let value = m
            .get(&name)
            .copied()
            .ok_or_else(|| format!("per-layer metric {name} was not computed"))?;
        run.metrics.push((name, unit, value));
    }

    if crosscheck_ops > 0 {
        let got = |name: &str| crosscheck.get(name).copied().unwrap_or(0);
        let mismatches: Vec<String> = TABLE1_DEFAULT_COUNTS
            .iter()
            .filter(|&&(name, want)| got(name) != want)
            .map(|&(name, want)| format!("{name} = {} (want {want})", got(name)))
            .collect();
        run.crosscheck_ok = mismatches.is_empty();
        run.notes.push(if mismatches.is_empty() {
            "counter cross-check vs the CLI-default table1 batch: pass".to_string()
        } else {
            format!("counter cross-check FAILED: {}", mismatches.join(", "))
        });
    }
    Ok(run)
}

/// `num / den`, or 0 for an empty base.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Drives op `k` through its public calls, one span each (inert below
/// `Level::Spans`). Returns whether it gave the known answer and the
/// pair it verified.
fn drive_op(
    prepared: &Prepared,
    op: usize,
    rec: &mut Recorder,
    facts: &mut JobFacts,
) -> Result<(bool, (Circuit, Circuit)), String> {
    match &prepared.ops {
        Ops::Jobs(jobs) => traced_job(&jobs[op], prepared, op, rec, facts),
        Ops::Keys(_) => {
            let (a, b) = prepared.key_pair(op).expect("key ops carry a pair");
            let _op = qobs::span("perfbench.op").attr("op", op);
            let report = rec.call(op, "qverify", "check_report", || {
                prepared.verifier.check_report(a, b)
            });
            let pair = (a.clone(), b.clone());
            match report.verdict {
                qverify::Verdict::Inequivalent { .. } => Ok((true, pair)),
                qverify::Verdict::Equivalent => Ok((false, pair)),
                qverify::Verdict::Inconclusive { .. } => Err("inconclusive".to_string()),
            }
        }
    }
}

/// Drives one job through the calls `run_batch` makes, one span each.
/// Returns whether it verified equivalent and its padded verify pair.
fn traced_job(
    job: &JobInput,
    prepared: &Prepared,
    op: usize,
    rec: &mut Recorder,
    facts: &mut JobFacts,
) -> Result<(bool, (Circuit, Circuit)), String> {
    let dirs = &prepared.dirs;
    let _op = qobs::span("perfbench.op")
        .attr("op", op)
        .attr("job", job.id.as_str());
    let mut state = rec.call(op, "job", "JobState::new", || {
        JobState::new(
            job.id.clone(),
            job.bench.circuit().clone(),
            job.config.clone(),
        )
    });
    let checkpoint = checkpoint_path(&dirs.jobs, &job.id);
    loop {
        rec.call(op, "persist", "save_checkpoint", || {
            save_checkpoint(&dirs.jobs, &state)
        })
        .map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());
        facts.checkpoint_bytes.push(bytes as f64);
        if state.is_done() {
            break;
        }
        let stage = state.stage;
        rec.call(op, stage_layer(stage), stage.name(), || {
            state.advance(&dirs.out)
        })
        .map_err(|e| e.to_string())?;
    }

    let insertion = state.insertion.as_ref().ok_or("no insertion product")?;
    facts.inserted_gates.push(insertion.gate_overhead() as f64);
    let split = state.split.as_ref().ok_or("no split product")?;
    facts.mismatched.push(if split.has_mismatched_qubits() {
        1.0
    } else {
        0.0
    });
    let (left, right) = state
        .compiled_left
        .as_ref()
        .zip(state.compiled_right.as_ref())
        .ok_or("no compiled segments")?;
    facts
        .swaps
        .push((left.swaps_inserted + right.swaps_inserted) as f64);
    facts
        .gates_out
        .push((left.circuit.gate_count() + right.circuit.gate_count()) as f64);
    let restored = state.restored.as_ref().ok_or("no restored circuit")?;
    let equivalent = state.verdict.as_ref().is_some_and(|v| v.equivalent);
    Ok((equivalent, pad_pair(&state.original, restored)))
}

/// The spans of a trace, for self time and fall-through accounting.
struct SpanTree {
    spans: BTreeMap<u64, SpanRec>,
}

struct SpanRec {
    name: String,
    parent: Option<u64>,
    elapsed_ms: f64,
    layer: Option<String>,
    stage: Option<String>,
    outcome: Option<String>,
}

impl SpanTree {
    fn parse(trace: &str) -> Result<SpanTree, String> {
        let mut spans = BTreeMap::new();
        for line in trace.lines() {
            let obj = qobs::json::parse_line(line)?;
            if obj.get_str("type") != Some("span") {
                continue;
            }
            let id = obj.get_u64("id").ok_or("span without id")?;
            spans.insert(
                id,
                SpanRec {
                    name: obj.get_str("name").unwrap_or("").to_string(),
                    parent: obj.get_u64("parent"),
                    elapsed_ms: obj.get_u64("elapsed_us").unwrap_or(0) as f64 / 1e3,
                    layer: obj.get_str("layer").map(str::to_string),
                    stage: obj.get_str("stage").map(str::to_string),
                    outcome: obj.get_str("outcome").map(str::to_string),
                },
            );
        }
        Ok(SpanTree { spans })
    }

    /// `true` if `id` sits under a `perfbench.op` span (not a probe).
    fn in_op(&self, mut id: u64) -> bool {
        loop {
            let Some(span) = self.spans.get(&id) else {
                return false;
            };
            if span.name == "perfbench.op" {
                return true;
            }
            match span.parent {
                Some(parent) => id = parent,
                None => return false,
            }
        }
    }

    /// The layer a span's own time belongs to; `None` for the harness's
    /// `perfbench.op` span, whose own time is the harness's, not a layer's.
    fn layer_of(span: &SpanRec) -> Option<&str> {
        if let Some(layer) = span.layer.as_deref() {
            return Some(layer);
        }
        let name = span.name.as_str();
        if name == "job.stage" {
            // `JobState::advance` names its stage, and a stage runs its
            // layer's work (the Obfuscate stage inserts without a span of
            // its own), so the stage decides the layer.
            let stage = STAGES
                .into_iter()
                .find(|s| span.stage.as_deref() == Some(s.name()));
            return Some(stage.map_or("job", stage_layer));
        }
        Some(match name.split('.').next().unwrap_or("") {
            "perfbench" => return None,
            "verify" => "qverify",
            "compile" => "qcompile",
            "job" => "job",
            "core" if name.starts_with("core.split") => "interlock",
            "core" if name.starts_with("core.recombine") => "recombine",
            "core" => "insertion",
            _ => "other",
        })
    }

    /// Total self time (span minus its direct children) per layer, ms,
    /// over the op spans; the `perfbench.op` spans' own time is left out.
    fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.values() {
            if let Some(parent) = span.parent {
                *child_ms.entry(parent).or_insert(0.0) += span.elapsed_ms;
            }
        }
        let mut out = BTreeMap::new();
        for (id, span) in &self.spans {
            if !self.in_op(*id) {
                continue;
            }
            let Some(layer) = Self::layer_of(span) else {
                continue;
            };
            let own = (span.elapsed_ms - child_ms.get(id).copied().unwrap_or(0.0)).max(0.0);
            *out.entry(layer.to_string()).or_insert(0.0) += own;
        }
        out
    }

    /// Time in verifier tiers that fell through, ms, over the op spans.
    fn fell_through_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|(id, s)| {
                s.name == "verify.tier"
                    && s.outcome.as_deref() == Some("fell_through")
                    && self.in_op(**id)
            })
            .map(|(_, s)| s.elapsed_ms)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap())
            .collect();
        let per_layer = per_layer_names();
        for (name, _) in &per_layer {
            assert!(
                names.contains(&name.as_str()),
                "{name} missing from BENCHMARK.json"
            );
        }
        // The declared workloads and end-to-end metrics are the others.
        assert_eq!(names.len(), 2 + 8 + per_layer.len());
    }

    #[test]
    fn self_time_follows_the_stage_and_leaves_the_harness_out() {
        let span = |id: u64, parent: Option<u64>, name: &str, us: u64, attrs: &str| {
            let parent = parent.map_or(String::new(), |p| format!(",\"parent\":{p}"));
            format!(
                "{{\"type\":\"span\",\"name\":\"{name}\",\"id\":{id}{parent},\
                 \"thread\":0,\"start_us\":0,\"elapsed_us\":{us}{attrs}}}\n"
            )
        };
        let trace = [
            span(1, None, "perfbench.op", 1000, ""),
            span(2, Some(1), "perfbench.call", 300, ",\"layer\":\"insertion\""),
            span(3, Some(2), "job.stage", 290, ",\"stage\":\"obfuscate\""),
            span(4, Some(1), "perfbench.call", 500, ",\"layer\":\"qverify\""),
            span(5, Some(4), "job.stage", 495, ",\"stage\":\"verify\""),
            span(6, Some(5), "verify.check", 400, ""),
            span(7, Some(1), "perfbench.call", 100, ",\"layer\":\"persist\""),
            span(8, Some(1), "perfbench.call", 40, ",\"layer\":\"job\""),
            span(9, Some(8), "job.stage", 30, ",\"stage\":\"emit\""),
            // A probe is outside every op.
            span(10, None, "perfbench.probe", 900, ",\"tier\":\"zx\""),
            span(11, Some(10), "verify.check", 880, ""),
        ]
        .concat();
        let self_ms = SpanTree::parse(&trace).unwrap().self_ms_by_layer();
        let got = |layer: &str| self_ms.get(layer).copied().unwrap_or(0.0);
        assert!((got("insertion") - 0.3).abs() < 1e-9, "{self_ms:?}");
        assert!((got("qverify") - 0.5).abs() < 1e-9, "{self_ms:?}");
        assert!((got("persist") - 0.1).abs() < 1e-9, "{self_ms:?}");
        assert!((got("job") - 0.04).abs() < 1e-9, "{self_ms:?}");
        // The op span's own 60 µs is the harness's, in no layer.
        assert_eq!(self_ms.len(), 4, "{self_ms:?}");
    }
}

//! `perfdump_pipeline` — machine-readable per-stage cost of a
//! protection job.
//!
//! For the default job (`JobConfig::default()`) of every Table I
//! circuit, on the ideal and the Valencia device, it times each
//! in-memory [`JobState::advance`] stage (obfuscate → split → compile
//! left → compile right → recombine → verify, with no checkpoint
//! written) and a whole job through those stages. Each compile stage is
//! also broken into the transpiler's passes: the device distance map,
//! lowering to {1q, CX}, optimization of the lowered circuit, layout,
//! routing, basis translation, optimization of the physical circuit, and
//! the relabel into the segment's logical frame. The pass chain is run
//! from the public pass functions and must reproduce
//! `Transpiler::transpile` and `into_logical_circuit` exactly, or the
//! binary panics. The emit stage is a durable write, not an in-memory
//! stage, and is left out of the stages; its QASM rendering is timed on
//! its own (`to_qasm_ms`). Last, the same job runs as what a client
//! submits: a one-input `run_batch` call with one worker in fresh
//! directories, checkpoints, fsyncs and manifest included
//! (`run_batch_ms`), so `run_batch_ms` against `job_ms` is the fixed
//! cost a call adds to the in-memory pipeline.
//!
//! It writes `BENCH_pipeline.json`: the median milliseconds of every
//! stage, pass and job, plus the provenance block (commit, `nproc`,
//! resolved qsim workers), so the stages of the job (`stages_sum_ms`
//! against `job_ms`) and the passes of each compile stage
//! (`passes_sum_ms` against the stage) can be compared on one run.
//! Before writing, the binary validates its output against
//! [`bench::schema::validate_pipeline_bench_json`].
//!
//! ```text
//! cargo run --release -p bench --bin perfdump_pipeline            # full suite
//! cargo run --release -p bench --bin perfdump_pipeline -- --smoke # CI smoke
//! cargo run --release -p bench --bin perfdump_pipeline -- --out path.json
//! ```
//!
//! The smoke suite (rd53 on both devices, 3 reps) finishes in well
//! under a second. Each sample times one call on a state prepared outside the
//! timed region (the `JobState` clone a stage starts from is not
//! counted) and goes through [`qobs::record_sample_ms`], so the medians
//! are the same qobs samples a live run records.

use qcir::Circuit;
use qcompile::coupling::DistanceMap;
use qcompile::decompose::decompose_to_cx;
use qcompile::layout::greedy_layout;
use qcompile::optimize::optimize;
use qcompile::routing::route;
use qcompile::transpiler::translate_to_basis;
use qcompile::{Transpiled, Transpiler};
use qsim::Device;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tetrislock::batch::{run_batch, BatchConfig};
use tetrislock::job::{device_for, JobConfig, JobStage, JobState};

/// The in-memory stages, in pipeline order.
const STAGES: [JobStage; 6] = [
    JobStage::Obfuscate,
    JobStage::Split,
    JobStage::CompileLeft,
    JobStage::CompileRight,
    JobStage::Recombine,
    JobStage::Verify,
];

/// The devices every job runs on, as `JobConfig::device` names them.
const DEVICES: [&str; 2] = ["ideal", "valencia"];

/// Median milliseconds of `run` over `reps` calls, each on a fresh
/// input from `setup` that is made outside the timed region; `run`
/// hands back what it owns, so dropping it is not timed either. Every
/// sample is recorded under the qobs sample name `name`.
fn median_ms<T, R>(
    name: &str,
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut run: impl FnMut(T) -> R,
) -> f64 {
    for _ in 0..reps {
        let input = setup();
        let start = Instant::now();
        let output = run(input);
        qobs::record_sample_ms(name, start.elapsed().as_secs_f64() * 1e3);
        drop(output);
    }
    qobs::sample_median_ms(name).unwrap_or(0.0)
}

/// One compile stage broken into its passes.
struct CompileRow {
    gates_in: usize,
    gates_out: usize,
    swaps: usize,
    passes: Vec<(&'static str, f64)>,
}

/// Times each pass of compiling `segment` for `device` the way
/// `JobState`'s compile stage does, and checks that the chain of passes
/// reproduces it.
fn compile_passes(label: &str, segment: &Circuit, device: &Device, reps: usize) -> CompileRow {
    let name = |pass: &str| format!("pipeline.{label}.{pass}");
    let mut passes = Vec::new();

    let distances = DistanceMap::new(device).expect("connected device");
    passes.push((
        "distances",
        median_ms(
            &name("distances"),
            reps,
            || (),
            |()| DistanceMap::new(device),
        ),
    ));
    let lowered = decompose_to_cx(segment);
    passes.push((
        "decompose",
        median_ms(
            &name("decompose"),
            reps,
            || (),
            |()| decompose_to_cx(segment),
        ),
    ));
    let mut optimized = lowered.clone();
    optimize(&mut optimized);
    passes.push((
        "optimize_lowered",
        median_ms(
            &name("optimize_lowered"),
            reps,
            || lowered.clone(),
            |mut c| {
                optimize(&mut c);
                c
            },
        ),
    ));
    let layout = greedy_layout(&optimized, device, &distances).expect("segment fits");
    passes.push((
        "layout",
        median_ms(
            &name("layout"),
            reps,
            || (),
            |()| greedy_layout(&optimized, device, &distances),
        ),
    ));
    let routed = route(&optimized, layout.clone(), &distances).expect("lowered segment routes");
    passes.push((
        "route",
        median_ms(
            &name("route"),
            reps,
            || layout.clone(),
            |layout| route(&optimized, layout, &distances),
        ),
    ));
    let translated = translate_to_basis(routed.circuit.clone()).expect("routed gates translate");
    passes.push((
        "translate",
        median_ms(
            &name("translate"),
            reps,
            || routed.circuit.clone(),
            translate_to_basis,
        ),
    ));
    let mut physical = translated.clone();
    optimize(&mut physical);
    passes.push((
        "optimize_physical",
        median_ms(
            &name("optimize_physical"),
            reps,
            || translated.clone(),
            |mut c| {
                optimize(&mut c);
                c
            },
        ),
    ));
    let transpiled = Transpiled {
        circuit: physical,
        initial_layout: routed.initial_layout,
        final_layout: routed.final_layout,
        swaps_inserted: routed.swaps_inserted,
    };
    passes.push((
        "relabel",
        median_ms(
            &name("relabel"),
            reps,
            || transpiled.clone(),
            Transpiled::into_logical_circuit,
        ),
    ));

    let whole = Transpiler::new(device.clone())
        .transpile(segment)
        .expect("segment transpiles");
    assert_eq!(
        whole.circuit, transpiled.circuit,
        "{label}: pass chain drifted"
    );
    assert_eq!(whole.initial_layout, transpiled.initial_layout, "{label}");
    assert_eq!(whole.final_layout, transpiled.final_layout, "{label}");
    let row = CompileRow {
        gates_in: segment.gate_count(),
        gates_out: transpiled.circuit.gate_count(),
        swaps: transpiled.swaps_inserted,
        passes,
    };
    assert_eq!(
        whole.into_logical_circuit(),
        transpiled.into_logical_circuit(),
        "{label}: relabel drifted"
    );
    row
}

/// Every timed row of one job.
struct JobRow {
    circuit: String,
    device: &'static str,
    job_ms: f64,
    run_batch_ms: f64,
    to_qasm_ms: f64,
    stages: Vec<(&'static str, f64)>,
    compile: [CompileRow; 2],
}

fn time_job(
    id: &str,
    circuit: &Circuit,
    device: &'static str,
    reps: usize,
    scratch: &Path,
) -> JobRow {
    let config = JobConfig {
        device: device.to_string(),
        ..JobConfig::default()
    };
    let label = format!("{device}.{id}");
    let out_dir = std::env::temp_dir();
    let out_dir: &Path = &out_dir;
    let fresh = JobState::new(id, circuit.clone(), config.clone());

    // The state each stage starts from.
    let mut before = Vec::with_capacity(STAGES.len());
    let mut state = fresh.clone();
    for stage in STAGES {
        assert_eq!(state.stage, stage);
        before.push(state.clone());
        state
            .advance(out_dir)
            .expect("in-memory stages write nothing");
    }
    assert_eq!(state.stage, JobStage::Emit);
    let verdict = state.verdict.expect("the verify stage ran");
    assert!(verdict.equivalent, "{label}: restored circuit rejected");

    let stages = STAGES
        .iter()
        .zip(&before)
        .map(|(stage, start)| {
            let ms = median_ms(
                &format!("pipeline.{label}.{}", stage.name()),
                reps,
                || start.clone(),
                |mut s| {
                    s.advance(out_dir).expect("stage runs");
                    s
                },
            );
            (stage.name(), ms)
        })
        .collect();
    let job_ms = median_ms(
        &format!("pipeline.{label}.job"),
        reps,
        || fresh.clone(),
        |mut s| {
            while s.stage != JobStage::Emit {
                s.advance(out_dir).expect("stage runs");
            }
            s
        },
    );

    let restored = state.restored.as_ref().expect("the recombine stage ran");
    let to_qasm_ms = median_ms(
        &format!("pipeline.{label}.to_qasm"),
        reps,
        || (),
        |()| qcir::qasm::to_qasm(restored),
    );
    let mut rep = 0;
    let run_batch_ms = median_ms(
        &format!("pipeline.{label}.run_batch"),
        reps,
        || {
            rep += 1;
            let dir = scratch.join(format!("{device}_{id}_{rep}"));
            BatchConfig {
                jobs_dir: dir.join("jobs"),
                out_dir: dir.join("out"),
                workers: 1,
                resume: false,
                job: config.clone(),
            }
        },
        |batch| {
            let report = run_batch(vec![(id.to_string(), circuit.clone())], &batch);
            assert!(
                report.expect("the batch runs").all_equivalent(),
                "{label}: run_batch failed"
            );
        },
    );

    let split = state.split.as_ref().expect("the split stage ran");
    let segment_device = |c: &Circuit| device_for(device, c.num_qubits()).expect("known device");
    let (left, right) = (&split.left.circuit, &split.right.circuit);
    let compile = [
        compile_passes(
            &format!("{label}.compile_left"),
            left,
            &segment_device(left),
            reps,
        ),
        compile_passes(
            &format!("{label}.compile_right"),
            right,
            &segment_device(right),
            reps,
        ),
    ];
    JobRow {
        circuit: id.to_string(),
        device,
        job_ms,
        run_batch_ms,
        to_qasm_ms,
        stages,
        compile,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_pipeline.json")
        .to_string();
    let reps = if smoke { 3 } else { 21 };

    // Fresh batch directories for every `run_batch` rep, removed at the
    // end.
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("perfdump_pipeline_{}", std::process::id()));
    let mut rows = Vec::new();
    for bench in revlib::table1_benchmarks()
        .into_iter()
        .filter(|b| !smoke || b.name() == "rd53")
    {
        for device in DEVICES {
            eprintln!("timing {} on {device}…", bench.name());
            rows.push(time_job(
                bench.name(),
                bench.circuit(),
                device,
                reps,
                &scratch,
            ));
        }
    }
    std::fs::remove_dir_all(&scratch)
        .unwrap_or_else(|e| panic!("cannot remove {}: {e}", scratch.display()));

    let json = render_json(&rows, smoke, reps);
    bench::schema::validate_pipeline_bench_json(&json).unwrap_or_else(|e| {
        panic!("perfdump_pipeline emitted a document violating its own schema: {e}")
    });
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("{json}");
    eprintln!("wrote {out}");
}

/// `{"a": 1.0000, ...}` over named millisecond values.
fn ms_object(values: &[(&str, f64)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, ms)| format!("\"{name}\": {ms:.4}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn render_json(rows: &[JobRow], smoke: bool, reps: usize) -> String {
    let mut body = String::new();
    for (i, row) in rows.iter().enumerate() {
        let stages_sum: f64 = row.stages.iter().map(|(_, ms)| ms).sum();
        let compile: Vec<String> = ["compile_left", "compile_right"]
            .iter()
            .zip(&row.compile)
            .map(|(stage, c)| {
                let passes_sum: f64 = c.passes.iter().map(|(_, ms)| ms).sum();
                format!(
                    "\"{stage}\": {{\"gates_in\": {}, \"gates_out\": {}, \"swaps\": {}, \
                     \"passes_sum_ms\": {passes_sum:.4}, \"passes_ms\": {}}}",
                    c.gates_in,
                    c.gates_out,
                    c.swaps,
                    ms_object(&c.passes),
                )
            })
            .collect();
        body.push_str(&format!(
            "    {{\"circuit\": \"{}\", \"device\": \"{}\", \"job_ms\": {:.4}, \
             \"run_batch_ms\": {:.4}, \"to_qasm_ms\": {:.4}, \
             \"stages_sum_ms\": {stages_sum:.4}, \"stages_ms\": {}, {}}}{}\n",
            row.circuit,
            row.device,
            row.job_ms,
            row.run_batch_ms,
            row.to_qasm_ms,
            ms_object(&row.stages),
            compile.join(", "),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    format!(
        "{{\n  \"suite\": \"pipeline\",\n  \"schema_version\": 1,\n  \"smoke\": {smoke},\n  \
         \"provenance\": {},\n  \"reps\": {reps},\n  \"jobs\": [\n{body}  ]\n}}\n",
        bench::provenance_json(),
    )
}

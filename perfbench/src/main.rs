//! `perfbench` — the protection-job benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|wrong_key --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` it times the workload
//! with tracing off and prints every end-to-end metric; with `--trace 1`
//! it makes one traced pass and prints every per-layer metric. The last
//! stdout line is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); the line before it is the run's provenance. See
//! `perfbench/README.md` for the workloads and the metric map.

mod inputs;
mod oracle;
mod stats;
mod trace;
mod workload;

use qobs::{AttrValue, Level};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Prepared, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload table1|wrong_key --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let at = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}\n{USAGE}"))?;
            argv.get(at + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let workload = value("--workload")?;
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?
                .parse()
                .map_err(|_| format!("{flag} takes a whole number\n{USAGE}"))
        };
        Ok(Args {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload `{workload}`\n{USAGE}"))?,
            seed: number("--seed")?,
            seconds: number("--seconds")? as f64,
            trace: match value("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not `{other}`\n{USAGE}")),
            },
        })
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = Args::parse(&argv).and_then(|args| run(&args)) {
        eprintln!("perfbench: {message}");
        std::process::exit(1);
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

fn run(args: &Args) -> Result<(), String> {
    let work = work_root()?;
    let run_dir = work.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let provenance = provenance(args);
    println!("{{\"provenance\": {}}}", json_object(&provenance));

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let p = Prepared::generate(args.workload, args.seed, &run_dir)?;
        workload::spawn_qsim_pool();
        // A failing warm-up op fails again, counted, in the timed loop.
        let _ = std::hint::black_box(p.run_op(p.warmup_op()));
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up ran");

    let mut notes = Vec::new();
    // `passes` counts the passes whose jobs the oracle's final outputs
    // stand for: the timed loop's passes, or the one traced pass (its
    // untraced replays rerun the same jobs).
    let (mut metrics, attempted, mut failed, passes, mut correct) = if args.trace {
        let trace_path = work.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let meta: Vec<(&'static str, AttrValue)> = provenance
            .iter()
            .map(|(k, v)| (*k, AttrValue::from(v.trim_matches('"').to_string())))
            .chain([("qsim_workers", AttrValue::from(qsim::resolved_workers()))])
            .collect();
        let crosscheck_ops = if args.workload == Workload::Table1 && args.seed == 0 {
            inputs::TABLE1_CLI_JOBS
        } else {
            0
        };
        let traced = trace::traced_run(&prepared, crosscheck_ops, &meta, &trace_path)?;
        notes.extend(traced.notes);
        let metrics = traced
            .metrics
            .into_iter()
            .map(|(name, unit, value)| Metric { name, unit, value })
            .collect();
        (
            metrics,
            traced.attempted,
            traced.failed,
            1,
            traced.crosscheck_ok,
        )
    } else {
        qobs::set_level(Level::Off);
        let result = workload::timed_loop(&prepared, args.seconds);
        let metrics = timed_metrics(&prepared, &result, &setup_s, &mut notes);
        (metrics, result.attempted, result.failed, result.passes, true)
    };

    // The oracle runs after every timed region, on the final outputs.
    let oracle = oracle::check_all(&prepared, args.seed);
    failed = (failed + passes * oracle.failures.len()).min(attempted);
    notes.extend(oracle.failures.iter().map(|f| format!("oracle: {f}")));
    if !args.trace {
        metrics.extend([
            metric(
                "ok_frac",
                "ratio",
                1.0 - failed as f64 / attempted.max(1) as f64,
            ),
            metric("restored_gates_mean", "gates", oracle.restored_gates_mean),
            metric("gate_overhead_pct", "%", oracle.gate_overhead_pct),
        ]);
    }
    correct &= failed == 0;

    std::fs::remove_dir_all(&run_dir)
        .map_err(|e| format!("cannot remove {}: {e}", run_dir.display()))?;
    for note in &notes {
        eprintln!("perfbench: {note}");
    }
    for m in &metrics {
        eprintln!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

/// The timing metrics of a timed run, plus a per-case latency note.
fn timed_metrics(
    prepared: &Prepared,
    result: &workload::LoopResult,
    setup_s: &[f64],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    if let Some(first) = &result.first_failure {
        notes.push(format!("first failure: {first}"));
    }
    notes.push(format!(
        "{} ops in {} passes over {:.3} s",
        result.attempted, result.passes, result.wall_s
    ));
    let lat = &result.latencies_ms;
    let n = prepared.len();
    let mut by_case: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, ms) in lat.iter().enumerate() {
        by_case
            .entry(prepared.circuit_slug(i % n))
            .or_default()
            .push(*ms);
    }
    if by_case.len() <= 16 {
        let rows: Vec<String> = by_case
            .iter()
            .map(|(case, v)| format!("{case}={:.3}", stats::median(v).unwrap_or(0.0)))
            .collect();
        notes.push(format!("median ms per op: {}", rows.join(" ")));
    }
    let p90 = stats::p90_with_tail(lat).unwrap_or_else(|| {
        notes.push(format!(
            "latency_p90_ms: {} samples leave fewer than {} beyond p90; reporting the maximum",
            lat.len(),
            stats::TAIL_MIN_BEYOND
        ));
        stats::quantile(lat, 1.0).unwrap_or(0.0)
    });
    vec![
        metric(
            "ops_per_s",
            "ops/s",
            result.attempted as f64 / result.wall_s,
        ),
        metric("latency_p50_ms", "ms", stats::median(lat).unwrap_or(0.0)),
        metric("latency_p90_ms", "ms", p90),
        metric("setup_s", "s", stats::median(setup_s).unwrap_or(0.0)),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// A JSON number for `value` (non-finite values cannot be JSON).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        // `+ 0.0` turns an empty sum's `-0.0` into `0.0`.
        format!("{:?}", value + 0.0)
    } else {
        "0.0".to_string()
    }
}

/// Scratch space for checkpoints, outputs and traces: next to the
/// build, so a run writes only inside the build directory.
fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("executable is not inside a target directory")?;
    let root = target.join("perfbench-work");
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    Ok(root)
}

/// Where the numbers came from, as JSON-ready key/value pairs.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let quoted = |s: &str| format!("\"{}\"", s.replace(['"', '\\'], "_"));
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".to_string());
    vec![
        (
            "commit",
            quoted(&git_head().unwrap_or_else(|| "unknown".into())),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .to_string(),
        ),
        ("resolved_workers", qsim::resolved_workers().to_string()),
        ("QSIM_WORKERS", quoted(&env("QSIM_WORKERS"))),
        ("QOBS", quoted(&env("QOBS"))),
        ("qobs_timed", quoted(Level::Off.name())),
        ("qobs_traced", quoted(Level::Spans.name())),
        (
            "profile",
            quoted(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", quoted(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ]
}

fn json_object(pairs: &[(&'static str, String)]) -> String {
    let fields: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

/// The checked-out commit, read from `.git` without running git.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split_whitespace().next())
        .map(str::to_string)
}

/// The process's resident-set high-water mark, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

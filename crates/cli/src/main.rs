//! `tetrislock` — command-line front end for TetrisLock split compilation.
//!
//! ```text
//! tetrislock inspect  <circuit>
//! tetrislock protect  <circuit> --out-left L.qasm --out-right R.qasm \
//!                     --meta design.tlk [--seed N] [--limit K] [--policy xcx|h|mixed]
//! tetrislock recombine <left> <right> --meta design.tlk --out restored.qasm [--verify <original>]
//! tetrislock verify   <a> <b>
//! tetrislock compile  <circuit> --out compiled.qasm [--device valencia|ideal|linear:<n>]
//! tetrislock batch    <circuit>… --out-dir D [--jobs-dir D] [--workers N] [--resume]
//! tetrislock serve    --watch D --out-dir D [--jobs-dir D] [--workers N] …
//! tetrislock report   <trace.jsonl>
//! tetrislock report   --serve <status.json>
//! ```
//!
//! Circuits are read/written as OpenQASM 2.0 (`.qasm`) or RevLib
//! (`.real`), chosen by extension. `protect` emits the two segment files
//! for the untrusted compilers plus a designer-side `.tlk` metadata file
//! that `recombine` consumes.
//!
//! Every subcommand accepts a global `--trace <out.jsonl>` flag that
//! writes a [`qobs`] trace of the run (spans, counters, histograms) as
//! JSON lines; `report` renders such a trace as a human-readable
//! summary. `--trace` implies `QOBS=full` unless the `QOBS` environment
//! variable is already set, in which case the configured level wins.

mod io;
mod meta;

use meta::Meta;
use qcir::{display, Circuit};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tetrislock::{GatePolicy, InsertionConfig, Obfuscator};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            // The structured copy of this diagnostic already went out as
            // a `cli.error` qobs event inside `run`; stderr is for humans.
            eprintln!("error: {message}");
            eprintln!("run `tetrislock help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (args, trace) = extract_trace(args)?;
    if let Some(path) = &trace {
        install_trace(path, &args)?;
    }
    let result = {
        let _span = command_span(args.first().map(String::as_str));
        dispatch(&args)
    };
    if let Err(message) = &result {
        qobs::event(
            "cli.error",
            &[("message", qobs::AttrValue::from(message.as_str()))],
        );
    }
    qobs::flush();
    if trace.is_some() {
        qobs::clear_trace();
    }
    result
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("inspect") => inspect(&rest(args)),
        Some("protect") => protect(&rest(args)),
        Some("recombine") => recombine_cmd(&rest(args)),
        Some("verify") => verify(&rest(args)),
        Some("compile") => compile(&rest(args)),
        Some("batch") => batch_cmd(&rest(args)),
        Some("serve") => serve_cmd(&rest(args)),
        Some("report") => report_cmd(&rest(args)),
        Some("help") | None => {
            match it.next().map(String::as_str) {
                Some("verify") => print!("{}", verify_help()),
                Some("batch") => print!("{}", batch_help()),
                Some("serve") => print!("{}", serve_help()),
                _ => print!("{USAGE}"),
            }
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

/// Strips a global `--trace <path>` flag (usable on any subcommand) from
/// the argument list.
fn extract_trace(args: &[String]) -> Result<(Vec<String>, Option<PathBuf>), String> {
    let mut out = Vec::with_capacity(args.len());
    let mut trace = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--trace" {
            let value = it.next().ok_or("--trace expects an output file path")?;
            trace = Some(PathBuf::from(value));
        } else {
            out.push(arg.clone());
        }
    }
    Ok((out, trace))
}

/// Opens the trace sink and emits the run metadata line. `--trace`
/// implies full-detail tracing, but an explicit `QOBS` level set in the
/// environment wins (so `QOBS=counters … --trace t.jsonl` stays cheap).
fn install_trace(path: &Path, args: &[String]) -> Result<(), String> {
    if std::env::var_os("QOBS").is_none() {
        qobs::set_level(qobs::Level::Full);
    }
    qobs::set_trace_file(path)
        .map_err(|e| format!("cannot create trace file {}: {e}", path.display()))?;
    let command = args.first().map(String::as_str).unwrap_or("help");
    let workers_env = std::env::var("QSIM_WORKERS").unwrap_or_else(|_| "unset".to_string());
    qobs::run_meta(&[
        ("command", qobs::AttrValue::from(command)),
        ("argv", qobs::AttrValue::from(args.join(" "))),
        (
            "qsim_workers",
            qobs::AttrValue::from(qsim::resolved_workers()),
        ),
        ("qsim_workers_env", qobs::AttrValue::from(workers_env)),
    ]);
    Ok(())
}

/// Top-level span for a recognized subcommand (span names are static).
fn command_span(command: Option<&str>) -> Option<qobs::Span> {
    let name = match command? {
        "inspect" => "cli.inspect",
        "protect" => "cli.protect",
        "recombine" => "cli.recombine",
        "verify" => "cli.verify",
        "compile" => "cli.compile",
        "batch" => "cli.batch",
        "serve" => "cli.serve",
        "report" => "cli.report",
        _ => return None,
    };
    Some(qobs::span(name))
}

/// Renders a `--trace` output file as a per-stage / per-tier summary,
/// or (with the bare `--serve` flag) a serve daemon `status.json` as a
/// health card. Validation is built in either way: malformed input is
/// an error, not garbage output.
fn report_cmd(args: &[String]) -> Result<(), String> {
    // `--serve` is a bare flag; strip it before the flag-value parser.
    let serve_view = args.iter().any(|a| a == "--serve");
    let filtered: Vec<String> = args.iter().filter(|a| *a != "--serve").cloned().collect();
    let (paths, _) = parse(&filtered)?;
    let path = paths.first().ok_or(if serve_view {
        "report --serve expects a status.json file"
    } else {
        "report expects a trace file (.jsonl)"
    })?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let rendered = if serve_view {
        qobs::report::render_serve_status(&text)
            .map_err(|e| format!("invalid status file {}: {e}", path.display()))?
    } else {
        qobs::report::summarize(&text)
            .map_err(|e| format!("invalid trace {}: {e}", path.display()))?
    };
    print!("{rendered}");
    Ok(())
}

const USAGE: &str = "\
tetrislock — quantum circuit split compilation with interlocking patterns

commands:
  inspect   <circuit>                              show stats and a drawing
  protect   <circuit> --out-left F --out-right F --meta F
            [--seed N] [--limit K] [--policy xcx|h|mixed] [--split-seed N]
            [--segments K --out-prefix P]   (k-way split: writes P0.qasm…)
  recombine <seg> <seg> [<seg>…] --meta F --out F [--verify <original>]
  verify    <a> <b> [--trials N] [--seed N]        tiered equivalence check
            (classical / tableau / zx-calculus / dense-unitary / stimulus;
             `verify --help` explains tier selection)
  compile   <circuit> --out F [--device valencia|ideal|linear:<n>]
  batch     <circuit>… --out-dir D [--jobs-dir D] [--workers N] [--resume]
            [--suite table1|all] [--seed N] [--split-seed N] [--limit K]
            [--policy xcx|h|mixed] [--device …] [--trials N]
            crash-safe obfuscate→split→compile→recombine→verify over many
            circuits, checkpointed per job (`batch --help` for details)
  serve     --watch D --out-dir D [--jobs-dir D] [--workers N] …
            long-running daemon: watched intake with priorities and
            cancellation, retry/backoff with crash-loop quarantine,
            graceful drain (`serve --help` for the full contract)
  report    <trace.jsonl>                          summarize a qobs trace
  report    --serve <status.json>                  render serve health
  help

global options:
  --trace <out.jsonl>   write an observability trace of the run (implies
                        QOBS=full unless the QOBS env var is already set)

formats: .qasm (OpenQASM 2.0) and .real (RevLib), chosen by extension.
";

fn rest(args: &[String]) -> Vec<String> {
    args[1..].to_vec()
}

/// Parsed command line: positional paths plus `--flag value` options.
type ParsedArgs = (Vec<PathBuf>, Vec<(String, String)>);

/// Splits positional arguments from `--flag value` options.
fn parse(args: &[String]) -> Result<ParsedArgs, String> {
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("--{flag} expects a value"))?;
            options.push((flag.to_string(), value.clone()));
        } else {
            positional.push(PathBuf::from(arg));
        }
    }
    Ok((positional, options))
}

fn option<'a>(options: &'a [(String, String)], key: &str) -> Option<&'a str> {
    options
        .iter()
        .rev()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn required<'a>(options: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    option(options, key).ok_or_else(|| format!("missing required option --{key}"))
}

fn inspect(args: &[String]) -> Result<(), String> {
    let (paths, _) = parse(args)?;
    let path = paths.first().ok_or("inspect expects a circuit file")?;
    let circuit = io::read_circuit(path)?;
    println!(
        "{}: {} qubits, {} gates, depth {}",
        path.display(),
        circuit.num_qubits(),
        circuit.gate_count(),
        circuit.depth()
    );
    let stats = qcir::stats::CircuitStats::of(&circuit);
    println!("{stats}");
    let summary: Vec<String> = stats
        .histogram
        .iter()
        .map(|(g, n)| format!("{g}×{n}"))
        .collect();
    println!("gates: {}", summary.join(", "));
    let timing = qcompile::schedule::schedule(&circuit, &qcompile::schedule::GateTimes::falcon());
    println!(
        "estimated duration: {:.0} ns (falcon gate times)",
        timing.duration_ns
    );
    let slots = tetrislock::slots::SlotTable::new(&circuit);
    println!(
        "empty slots: {} cells across {} layers",
        slots.total_empty_slots(),
        slots.depth()
    );
    if circuit.num_qubits() <= 16 && circuit.depth() <= 40 {
        print!("{}", display::render(&circuit));
    }
    Ok(())
}

fn protect(args: &[String]) -> Result<(), String> {
    let (paths, options) = parse(args)?;
    let input = paths.first().ok_or("protect expects a circuit file")?;
    let meta_path = PathBuf::from(required(&options, "meta")?);
    let seed: u64 = option(&options, "seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "bad --seed")?;
    let split_seed: u64 = option(&options, "split-seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --split-seed")?;
    let limit: usize = option(&options, "limit")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "bad --limit")?;
    let segments: usize = option(&options, "segments")
        .unwrap_or("2")
        .parse()
        .map_err(|_| "bad --segments")?;
    if segments < 2 {
        return Err("--segments must be at least 2".into());
    }
    let policy = match option(&options, "policy").unwrap_or("xcx") {
        "xcx" => GatePolicy::XCx,
        "h" | "hadamard" => GatePolicy::Hadamard,
        "mixed" => GatePolicy::Mixed,
        other => return Err(format!("unknown policy `{other}`")),
    };

    let circuit = io::read_circuit(input)?;
    let obf = Obfuscator::new()
        .with_config(InsertionConfig {
            seed,
            gate_limit: limit,
            policy,
            ..Default::default()
        })
        .obfuscate(&circuit);

    if segments == 2 {
        let out_left = PathBuf::from(required(&options, "out-left")?);
        let out_right = PathBuf::from(required(&options, "out-right")?);
        let split = obf.split(split_seed);
        io::write_circuit(&out_left, &split.left.circuit)?;
        io::write_circuit(&out_right, &split.right.circuit)?;
        let meta = Meta::from_split(&split, &input.display().to_string());
        std::fs::write(&meta_path, meta.to_text())
            .map_err(|e| format!("cannot write {}: {e}", meta_path.display()))?;
        println!(
            "inserted {} masking gates (depth change {}), split into {}q + {}q segments",
            obf.insertion().gate_overhead(),
            obf.depth_increase(),
            split.left.circuit.num_qubits(),
            split.right.circuit.num_qubits(),
        );
        println!("segment for compiler A: {}", out_left.display());
        println!("segment for compiler B: {}", out_right.display());
    } else {
        use tetrislock::multiway::MultiwayPattern;
        let prefix = required(&options, "out-prefix")?;
        let pattern = MultiwayPattern::random_for(&obf, segments, split_seed);
        let split = pattern.split(&obf);
        let mut outputs = Vec::new();
        for (i, segment) in split.segments.iter().enumerate() {
            let path = PathBuf::from(format!("{prefix}{i}.qasm"));
            io::write_circuit(&path, &segment.circuit)?;
            outputs.push(path);
        }
        let meta = Meta::from_multiway(&split, &input.display().to_string());
        std::fs::write(&meta_path, meta.to_text())
            .map_err(|e| format!("cannot write {}: {e}", meta_path.display()))?;
        println!(
            "inserted {} masking gates (depth change {}), split into {} segments:",
            obf.insertion().gate_overhead(),
            obf.depth_increase(),
            segments,
        );
        for (i, path) in outputs.iter().enumerate() {
            println!(
                "  compiler {}: {} ({}q, {} gates)",
                (b'A' + i as u8) as char,
                path.display(),
                split.segments[i].circuit.num_qubits(),
                split.segments[i].circuit.gate_count(),
            );
        }
    }
    println!("designer metadata (KEEP PRIVATE): {}", meta_path.display());
    Ok(())
}

fn recombine_cmd(args: &[String]) -> Result<(), String> {
    let (paths, options) = parse(args)?;
    if paths.len() < 2 {
        return Err("recombine expects at least two segment files".into());
    }
    let meta_path = PathBuf::from(required(&options, "meta")?);
    let out = PathBuf::from(required(&options, "out")?);

    let meta_text = std::fs::read_to_string(&meta_path)
        .map_err(|e| format!("cannot read {}: {e}", meta_path.display()))?;
    let meta = Meta::from_text(&meta_text)?;
    if paths.len() != meta.num_segments() {
        return Err(format!(
            "metadata describes {} segments but {} files given",
            meta.num_segments(),
            paths.len()
        ));
    }

    let circuits: Vec<Circuit> = paths
        .iter()
        .map(|p| io::read_circuit(p))
        .collect::<Result<_, _>>()?;

    // Extend each map over any extra wires the compilers introduced.
    let mut next = meta.register;
    let mut maps = meta.ordered_qubit_maps();
    for (map, circuit) in maps.iter_mut().zip(&circuits) {
        for w in 0..circuit.num_qubits() {
            map.entry(qcir::Qubit::new(w)).or_insert_with(|| {
                let fresh = next;
                next += 1;
                qcir::Qubit::new(fresh)
            });
        }
    }

    // Concatenate segments in order on the combined register.
    let mut restored = Circuit::with_name(next, "recombined");
    for (circuit, map) in circuits.iter().zip(&maps) {
        for inst in circuit.iter() {
            let mapped = inst.remapped(map).map_err(|e| e.to_string())?;
            restored.push(mapped).map_err(|e| e.to_string())?;
        }
    }
    io::write_circuit(&out, &restored)?;
    println!(
        "recombined {} segments → {} ({} gates over {} wires)",
        circuits.len(),
        out.display(),
        restored.gate_count(),
        restored.num_qubits(),
    );

    if let Some(original_path) = option(&options, "verify") {
        let original = io::read_circuit(Path::new(original_path))?;
        let ok = check_equivalence(&original, &restored)?;
        println!(
            "verification against {original_path}: {}",
            if ok { "PASS" } else { "FAIL" }
        );
        if !ok {
            return Err("restored circuit does not match the original".into());
        }
    }
    Ok(())
}

/// Long help for `verify`. Built at runtime so every advertised qubit
/// cap derives from the authoritative constants — a cap bump in `qsim`
/// or `qverify` can never leave this text stale.
fn verify_help() -> String {
    format!(
        "\
tetrislock verify <a> <b> [--trials N] [--seed N]

Decides whether two circuits implement the same unitary (up to global
phase). If the registers differ, the smaller circuit is padded with
identity wires onto the larger register.

Tier selection — the cheapest applicable decision procedure wins:

  classical      both circuits classical reversible (X/CX/CCX/MCX/SWAP/
                 CSWAP) and <= {classical} qubits. Exact: every basis input is
                 enumerated.
  tableau        both circuits Clifford (H/S/CX and gates reducible to
                 them, incl. right-angle rotations). Exact at hundreds
                 of qubits via stabilizer conjugation of the miter.
  zx-calculus    any gate set, any register size. The miter C2^dag*C1 is
                 reduced by ZX graph rewriting over exact phases (no
                 float tolerance); full reduction to bare wires is an
                 exact equivalence proof. Two-sided: a stalled residue
                 can also certify INEQUIVALENCE, but only through a
                 replay-confirmed witness — a bit-level replay of both
                 circuits (classical pairs, any width), or basis-column
                 replays of the miter on a sparse support map up to
                 {column} wires, switching to a dense statevector
                 (<= {stimulus} qubits) once a column passes its support
                 budget (at most {budget} amplitudes). A magnitude deficit
                 is a basis-column witness; two diverging unit phases are
                 a relative-phase witness (the diagonal-residue shape,
                 e.g. T vs Tdg). With no confirmed witness the stall
                 proves nothing and falls through.
  dense-unitary  <= {dense} qubits. Exact comparison of every basis column,
                 each run on a sparse support map (cost 2^n * gates *
                 support). Pruned amplitudes are an explicit error bound
                 charged against the tolerance; a column that bound could
                 flip, or one past the support budget, switches the check
                 to statevectors. Produces a concrete witness (basis
                 column or relative phase) on failure.
  stimulus       <= {stimulus} qubits. Statistical: the miter runs on --trials
                 random product states (default 16), in parallel. A
                 failed trial is a concrete, reproducible witness; a
                 clean pass certifies equivalence with confidence
                 1 - 2^(-trials), not proof.

Options:
  --trials N   stimulus trials to run when that tier decides
               (default 16; 0 makes the stimulus tier inconclusive)
  --seed N     base seed for the stimulus preparation layers
               (default 1). Same seed => same trials => same verdict;
               the seed printed in a witness rebuilds its input state.

Output: the verdict, the deciding tier, and on failure a witness.
Exit status: 0 iff equivalent, 1 otherwise (including inconclusive).
",
        classical = qverify::CLASSICAL_EXHAUSTIVE_MAX_QUBITS,
        dense = qverify::MAX_UNITARY_QUBITS,
        stimulus = qverify::MAX_STIMULUS_QUBITS,
        column = qverify::MAX_COLUMN_QUBITS,
        budget = qsim::column::MAX_SUPPORT_BUDGET,
    )
}

fn verify(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", verify_help());
        return Ok(());
    }
    let (paths, options) = parse(args)?;
    if paths.len() < 2 {
        return Err("verify expects two circuit files".into());
    }
    let a = io::read_circuit(&paths[0])?;
    let b = io::read_circuit(&paths[1])?;
    let trials: u64 = option(&options, "trials")
        .unwrap_or("16")
        .parse()
        .map_err(|_| "bad --trials")?;
    let seed: u64 = option(&options, "seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --seed")?;
    let report = verification_report(
        &a,
        &b,
        &qverify::Verifier::new().with_trials(trials).with_seed(seed),
    );
    println!("{report}");
    match &report.verdict {
        qverify::Verdict::Equivalent => Ok(()),
        qverify::Verdict::Inequivalent { .. } => Err("circuits differ".into()),
        qverify::Verdict::Inconclusive { .. } => Err(inconclusive_message(&report).into()),
    }
}

/// Why no tier could decide: zero configured trials reads very
/// differently from a register past every tier's reach.
fn inconclusive_message(report: &qverify::Report) -> &'static str {
    if report.tier == qverify::Tier::Stimulus && report.trials == 0 {
        "no stimulus trials configured (pass --trials N with N >= 1)"
    } else {
        "register too large for every verification tier"
    }
}

/// Runs the tiered `qverify` engine (classical permutation → stabilizer
/// tableau → dense unitary → parallel random stimulus). The smaller
/// circuit is padded onto the larger register; extra wires must act as
/// identity.
fn verification_report(a: &Circuit, b: &Circuit, verifier: &qverify::Verifier) -> qverify::Report {
    let n = a.num_qubits().max(b.num_qubits());
    let pad = |c: &Circuit| -> Circuit {
        let mut out = Circuit::with_name(n, c.name());
        out.compose(c).expect("padding cannot fail");
        out
    };
    verifier.check_report(&pad(a), &pad(b))
}

fn check_equivalence(a: &Circuit, b: &Circuit) -> Result<bool, String> {
    let report = verification_report(a, b, &qverify::Verifier::new());
    match report.verdict {
        qverify::Verdict::Equivalent => Ok(true),
        qverify::Verdict::Inequivalent { .. } => Ok(false),
        qverify::Verdict::Inconclusive { .. } => Err(inconclusive_message(&report).into()),
    }
}

fn compile(args: &[String]) -> Result<(), String> {
    use qcompile::Transpiler;
    use qsim::Device;
    let (paths, options) = parse(args)?;
    let input = paths.first().ok_or("compile expects a circuit file")?;
    let out = PathBuf::from(required(&options, "out")?);
    let circuit = io::read_circuit(input)?;

    let device = match option(&options, "device").unwrap_or("valencia") {
        "valencia" => {
            if circuit.num_qubits() <= 5 {
                Device::fake_valencia()
            } else {
                Device::fake_valencia_extended(circuit.num_qubits())
            }
        }
        "ideal" => Device::ideal(circuit.num_qubits().max(2)),
        spec => {
            if let Some(n) = spec.strip_prefix("linear:") {
                let n: u32 = n.parse().map_err(|_| "bad linear device size")?;
                Device::linear(n, qsim::noise::NoiseModel::ideal())
            } else {
                return Err(format!("unknown device `{spec}`"));
            }
        }
    };
    let result = Transpiler::new(device)
        .transpile(&circuit)
        .map_err(|e| e.to_string())?;
    // Emit in the *logical* frame (input wire i stays wire i; routing
    // wires become trailing ancillas) so that `recombine` can map segment
    // wires straight through the .tlk metadata.
    let logical = result.into_logical_circuit();
    io::write_circuit(&out, &logical)?;
    println!(
        "compiled {} → {} ({} native gates, {} swaps inserted)",
        input.display(),
        out.display(),
        logical.gate_count(),
        result.swaps_inserted,
    );
    Ok(())
}

/// Long help for `batch`. Built at runtime so the advertised stage
/// list, defaults, and checkpoint format version all derive from the
/// authoritative engine constants and can never go stale.
fn batch_help() -> String {
    use tetrislock::job::{JobConfig, JobStage};
    let defaults = JobConfig::default();
    let stages = [
        JobStage::Obfuscate,
        JobStage::Split,
        JobStage::CompileLeft,
        JobStage::CompileRight,
        JobStage::Recombine,
        JobStage::Verify,
        JobStage::Emit,
    ]
    .map(JobStage::name)
    .join(" → ");
    format!(
        "\
tetrislock batch <circuit>… --out-dir D [options]

Runs the full protection pipeline ({stages})
over many input circuits as a pool of crash-safe jobs. Each job
checkpoints its complete state to <jobs-dir>/<id>.job after every stage
(format version {version}, versioned + checksummed + atomically written;
the previous generation is kept as <id>.job.prev). Killing the process
at ANY instant — including `kill -9` — loses at most one stage per
in-flight job; re-running with --resume finishes every job with output
byte-identical to an uninterrupted run, regardless of --workers.

Inputs: positional circuit files (.qasm/.real; the job id is the file
stem), and/or a built-in RevLib suite via --suite.

Options:
  --out-dir D      output directory: <id>.restored.qasm per job plus a
                   sorted, tab-separated `{manifest}` (required)
  --jobs-dir D     checkpoint directory (default: <out-dir>/jobs)
  --workers N      worker threads (default 1; output is identical for
                   any N)
  --resume         resume from existing checkpoints instead of starting
                   fresh; completed jobs are skipped, a checkpoint
                   written under a different configuration is refused
  --suite S        add a built-in benchmark suite: `table1` (the paper's
                   Table I circuits) or `all`
  --seed N         insertion RNG seed        (default {seed})
  --split-seed N   interlock pattern seed    (default {split_seed})
  --limit K        max inserted gates        (default {gate_limit})
  --policy P       xcx | h | mixed           (default xcx)
  --device D       ideal | valencia | linear:<n>  (default {device})
  --trials N       stimulus verification trials   (default {trials})

Exit status: 0 iff every job completed and verified equivalent.

Fault injection (test hook): set {kill_env}=N to abort the
process (as if SIGKILLed) after the N-th checkpoint write.
",
        version = qcir::persist::FORMAT_VERSION,
        manifest = tetrislock::batch::MANIFEST_FILE,
        seed = defaults.seed,
        split_seed = defaults.split_seed,
        gate_limit = defaults.gate_limit,
        device = defaults.device,
        trials = defaults.trials,
        kill_env = tetrislock::job::KILL_AFTER_CHECKPOINTS_ENV,
    )
}

fn batch_cmd(args: &[String]) -> Result<(), String> {
    use tetrislock::batch::{run_batch, BatchConfig};
    use tetrislock::job::JobConfig;
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", batch_help());
        return Ok(());
    }
    // `--resume` is a bare flag; strip it before the flag-value parser.
    let resume = args.iter().any(|a| a == "--resume");
    let filtered: Vec<String> = args.iter().filter(|a| *a != "--resume").cloned().collect();
    let (paths, options) = parse(&filtered)?;

    let out_dir = PathBuf::from(required(&options, "out-dir")?);
    let jobs_dir = option(&options, "jobs-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_dir.join("jobs"));
    let workers: usize = option(&options, "workers")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --workers")?;
    let defaults = JobConfig::default();
    let job = JobConfig {
        seed: parse_opt(&options, "seed", defaults.seed)?,
        split_seed: parse_opt(&options, "split-seed", defaults.split_seed)?,
        gate_limit: parse_opt(&options, "limit", defaults.gate_limit)?,
        policy: match option(&options, "policy").unwrap_or("xcx") {
            "xcx" => GatePolicy::XCx,
            "h" | "hadamard" => GatePolicy::Hadamard,
            "mixed" => GatePolicy::Mixed,
            other => return Err(format!("unknown policy `{other}`")),
        },
        device: option(&options, "device")
            .unwrap_or(&defaults.device)
            .to_string(),
        trials: parse_opt(&options, "trials", defaults.trials)?,
        verify_seed: defaults.verify_seed,
    };

    let mut inputs: Vec<(String, Circuit)> = Vec::new();
    for path in &paths {
        let id = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("cannot derive a job id from {}", path.display()))?
            .to_string();
        inputs.push((id, io::read_circuit(path)?));
    }
    if let Some(suite) = option(&options, "suite") {
        let benchmarks = match suite {
            "table1" => revlib::table1_benchmarks(),
            "all" => revlib::all_benchmarks(),
            other => return Err(format!("unknown suite `{other}` (expected table1 or all)")),
        };
        for b in benchmarks {
            inputs.push((b.name().to_string(), b.circuit().clone()));
        }
    }
    if inputs.is_empty() {
        return Err("batch expects at least one circuit file or --suite".into());
    }

    let report = run_batch(
        inputs,
        &BatchConfig {
            jobs_dir,
            out_dir,
            workers,
            resume,
            job,
        },
    )
    .map_err(|e| e.to_string())?;

    for o in &report.outcomes {
        match &o.result {
            Ok(v) if v.equivalent => println!(
                "  {:<12} ok        ({} tier, {} steps{})",
                o.id,
                v.tier,
                o.steps_done,
                if o.resumed { ", resumed" } else { "" }
            ),
            Ok(v) => println!("  {:<12} NOT EQUIVALENT ({} tier)", o.id, v.tier),
            Err(message) => println!("  {:<12} FAILED: {message}", o.id),
        }
    }
    let total = report.outcomes.len();
    let failed = report.failed();
    println!(
        "batch: {}/{total} jobs ok, manifest {}",
        total - failed,
        report.manifest_path.display()
    );
    if failed > 0 {
        Err(format!("{failed} job(s) failed"))
    } else if !report.all_equivalent() {
        Err("at least one job verified NOT equivalent".into())
    } else {
        Ok(())
    }
}

/// Long help for `serve`. Built at runtime so every advertised default
/// (poll interval, stability window, stage timeout, strike budget,
/// backoff curve) derives from the authoritative engine constants and
/// can never go stale.
fn serve_help() -> String {
    use tetrislock::retry;
    use tetrislock::serve;
    format!(
        "\
tetrislock serve --watch D --out-dir D [options]

Long-running protection daemon over the crash-safe batch machinery.
Drop .qasm/.real circuit files into the watch directory; each is run
through the full pipeline and emitted as <out-dir>/<id>.restored.qasm,
with the input moved to <watch>/{done}/ on success. Every stage is
checkpointed, so `kill -9` at any instant resumes to byte-identical
output on the next start.

Intake contract:
  - a file is admitted only once its length and mtime have been stable
    for the stability window (half-written inputs are never picked up)
  - name a file p<k>--<id>.qasm to run at priority k (lower runs
    first, FIFO within a priority; default priority {priority})
  - drop <id>.cancel to cancel a queued or in-flight job
  - drop a file named `{shutdown}` to drain: stop admitting, finish
    in-flight jobs, write the final manifest and {status}, exit 0
    (typing `shutdown` on stdin, or closing a non-empty stdin, does
    the same)

Self-healing: a failed, panicked, or timed-out stage costs a strike
and is retried after a deterministic seeded backoff (base
{base_delay} ms doubling to a {max_delay} ms ceiling, jitter derived
from the job id — never the clock). After {strikes} consecutive
strikes the crash-loop breaker opens and the job is quarantined to
<watch>/{failed}/ with a typed failure report (<id>.failure; kinds:
poisoned, crash_loop, timeout, config_mismatch) instead of wedging
the queue. Unparseable inputs quarantine as `poisoned` at intake.

Health: every poll rewrites <out-dir>/{status} atomically and emits a
qobs heartbeat; render it with `tetrislock report --serve <{status}>`.
The idle loop sleeps the poll interval — idle CPU is polling-bounded.

Options:
  --watch D              watch directory (required; must be a directory)
  --out-dir D            outputs, {manifest}, {status} (required)
  --jobs-dir D           checkpoint directory (default <out-dir>/jobs)
  --workers N            worker threads            (default {workers})
  --poll-ms MS           intake poll interval      (default {poll})
  --stability-ms MS      input stability window    (default {stability})
  --stage-timeout-ms MS  per-stage wall clock      (default {stage_timeout})
  --strikes N            failures before quarantine (default {strikes})
  --base-delay-ms MS     first retry backoff       (default {base_delay})
  --max-delay-ms MS      backoff ceiling           (default {max_delay})
  pipeline options as for batch:
    [--seed N] [--split-seed N] [--limit K] [--policy xcx|h|mixed]
    [--device ideal|valencia|linear:<n>] [--trials N]

Exit status: 0 after a clean drain.
",
        done = serve::DONE_DIR,
        failed = serve::FAILED_DIR,
        priority = serve::DEFAULT_PRIORITY,
        shutdown = serve::SHUTDOWN_SENTINEL,
        status = serve::STATUS_FILE,
        manifest = tetrislock::batch::MANIFEST_FILE,
        workers = serve::DEFAULT_WORKERS,
        poll = serve::DEFAULT_POLL_MS,
        stability = serve::DEFAULT_STABILITY_MS,
        stage_timeout = serve::DEFAULT_STAGE_TIMEOUT_MS,
        strikes = retry::DEFAULT_MAX_STRIKES,
        base_delay = retry::DEFAULT_BASE_DELAY_MS,
        max_delay = retry::DEFAULT_MAX_DELAY_MS,
    )
}

fn serve_cmd(args: &[String]) -> Result<(), String> {
    use tetrislock::job::JobConfig;
    use tetrislock::retry::RetryPolicy;
    use tetrislock::serve::{run_serve, ServeConfig, SHUTDOWN_SENTINEL};
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", serve_help());
        return Ok(());
    }
    let (paths, options) = parse(args)?;
    if let Some(extra) = paths.first() {
        return Err(format!(
            "serve takes no positional arguments (got {}); inputs go into the watch directory",
            extra.display()
        ));
    }
    let watch_dir = PathBuf::from(required(&options, "watch")?);
    let out_dir = PathBuf::from(required(&options, "out-dir")?);
    let jobs_dir = option(&options, "jobs-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_dir.join("jobs"));
    let retry_defaults = RetryPolicy::default();
    let defaults = JobConfig::default();
    let serve_defaults = ServeConfig::default();
    let config = ServeConfig {
        watch_dir,
        jobs_dir,
        out_dir,
        workers: parse_opt(&options, "workers", serve_defaults.workers)?,
        poll_ms: parse_opt(&options, "poll-ms", serve_defaults.poll_ms)?,
        stability_ms: parse_opt(&options, "stability-ms", serve_defaults.stability_ms)?,
        stage_timeout_ms: parse_opt(
            &options,
            "stage-timeout-ms",
            serve_defaults.stage_timeout_ms,
        )?,
        retry: RetryPolicy {
            max_strikes: parse_opt(&options, "strikes", retry_defaults.max_strikes)?,
            base_delay_ms: parse_opt(&options, "base-delay-ms", retry_defaults.base_delay_ms)?,
            max_delay_ms: parse_opt(&options, "max-delay-ms", retry_defaults.max_delay_ms)?,
        },
        job: JobConfig {
            seed: parse_opt(&options, "seed", defaults.seed)?,
            split_seed: parse_opt(&options, "split-seed", defaults.split_seed)?,
            gate_limit: parse_opt(&options, "limit", defaults.gate_limit)?,
            policy: match option(&options, "policy").unwrap_or("xcx") {
                "xcx" => GatePolicy::XCx,
                "h" | "hadamard" => GatePolicy::Hadamard,
                "mixed" => GatePolicy::Mixed,
                other => return Err(format!("unknown policy `{other}`")),
            },
            device: option(&options, "device")
                .unwrap_or(&defaults.device)
                .to_string(),
            trials: parse_opt(&options, "trials", defaults.trials)?,
            verify_seed: defaults.verify_seed,
        },
    };

    // Best-effort stdin drain trigger: a `shutdown`/`drain` line — or
    // EOF on a stdin that actually carried bytes — drops the sentinel
    // into the watch dir. A silent closed/null stdin (e.g. a CI
    // background launch) reads EOF immediately with zero bytes and
    // must NOT drain.
    let stdin_watch = config.watch_dir.clone();
    std::thread::spawn(move || {
        use std::io::Read;
        let mut stdin = std::io::stdin();
        let mut buf = [0u8; 256];
        let mut seen = String::new();
        let mut total = 0usize;
        loop {
            match stdin.read(&mut buf) {
                Ok(0) => {
                    if total > 0 {
                        let _ = std::fs::write(stdin_watch.join(SHUTDOWN_SENTINEL), "");
                    }
                    return;
                }
                Ok(n) => {
                    total += n;
                    seen.push_str(&String::from_utf8_lossy(&buf[..n]));
                    if seen
                        .lines()
                        .any(|l| matches!(l.trim(), "shutdown" | "drain"))
                    {
                        let _ = std::fs::write(stdin_watch.join(SHUTDOWN_SENTINEL), "");
                        return;
                    }
                    // Only complete lines matter; keep the tail.
                    if let Some(idx) = seen.rfind('\n') {
                        seen.drain(..=idx);
                    }
                }
                Err(_) => return,
            }
        }
    });

    let summary = run_serve(&config).map_err(|e| e.to_string())?;
    println!(
        "serve drained: {} admitted, {} completed, {} quarantined, {} cancelled, {} retries",
        summary.admitted,
        summary.completed,
        summary.quarantined,
        summary.cancelled,
        summary.retries
    );
    println!(
        "manifest: {}\nstatus:   {}",
        summary.manifest_path.display(),
        summary.status_path.display()
    );
    Ok(())
}

/// Parses an optional `--flag value` with a typed default.
fn parse_opt<T: std::str::FromStr>(
    options: &[(String, String)],
    key: &str,
    default: T,
) -> Result<T, String> {
    match option(options, key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad --{key}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A scratch directory unique to one test (pid + counter), so
    /// tests running in parallel, or concurrent runs of the suite, never
    /// share a file. Removed on drop.
    struct TestDir(PathBuf);

    impl TestDir {
        fn new() -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "tlk_cli_test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            // A leftover from an earlier run that had the same pid.
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }

        /// Writes the 4-qubit demo circuit into the directory.
        fn demo_circuit(&self) -> PathBuf {
            let path = self.path("demo.qasm");
            let mut c = Circuit::with_name(4, "demo");
            c.h(0).cx(0, 1).cx(1, 2).cx(0, 1).x(3).cx(3, 2);
            io::write_circuit(&path, &c).unwrap();
            path
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_runs() {
        assert!(run(&s(&["help"])).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn verify_help_documents_tiers_and_flags() {
        // Both `verify --help` and `help verify` print the long help
        // (and must not try to read circuit files).
        assert!(run(&s(&["verify", "--help"])).is_ok());
        assert!(run(&s(&["verify", "-h"])).is_ok());
        assert!(run(&s(&["help", "verify"])).is_ok());
        for needle in [
            "zx-calculus",
            "--trials",
            "--seed",
            "stimulus",
            "relative-phase",
            "sparse support map",
            "error bound",
            &qverify::MAX_COLUMN_QUBITS.to_string(),
            &qsim::column::MAX_SUPPORT_BUDGET.to_string(),
        ] {
            assert!(
                verify_help().contains(needle),
                "verify help must document {needle}"
            );
        }
    }

    #[test]
    fn inspect_demo() {
        let dir = TestDir::new();
        let path = dir.demo_circuit();
        assert!(run(&s(&["inspect", path.to_str().unwrap()])).is_ok());
    }

    #[test]
    fn protect_recombine_verify_roundtrip() {
        let dir = TestDir::new();
        let input = dir.demo_circuit();
        let left = dir.path("left.qasm");
        let right = dir.path("right.qasm");
        let meta = dir.path("demo.tlk");
        let restored = dir.path("restored.qasm");

        run(&s(&[
            "protect",
            input.to_str().unwrap(),
            "--out-left",
            left.to_str().unwrap(),
            "--out-right",
            right.to_str().unwrap(),
            "--meta",
            meta.to_str().unwrap(),
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(left.exists() && right.exists() && meta.exists());

        run(&s(&[
            "recombine",
            left.to_str().unwrap(),
            right.to_str().unwrap(),
            "--meta",
            meta.to_str().unwrap(),
            "--out",
            restored.to_str().unwrap(),
            "--verify",
            input.to_str().unwrap(),
        ]))
        .unwrap();

        // And the standalone verify command agrees.
        run(&s(&[
            "verify",
            input.to_str().unwrap(),
            restored.to_str().unwrap(),
        ]))
        .unwrap();
    }

    #[test]
    fn protect_compile_recombine_roundtrip() {
        let dir = TestDir::new();
        // The full shell workflow including the untrusted-compiler step.
        let input = dir.demo_circuit();
        let left = dir.path("cl.qasm");
        let right = dir.path("cr.qasm");
        let meta = dir.path("c.tlk");
        let left_c = dir.path("clc.qasm");
        let right_c = dir.path("crc.qasm");
        let restored = dir.path("crestored.qasm");

        run(&s(&[
            "protect",
            input.to_str().unwrap(),
            "--out-left",
            left.to_str().unwrap(),
            "--out-right",
            right.to_str().unwrap(),
            "--meta",
            meta.to_str().unwrap(),
            "--seed",
            "3",
        ]))
        .unwrap();
        for (src, dst) in [(&left, &left_c), (&right, &right_c)] {
            run(&s(&[
                "compile",
                src.to_str().unwrap(),
                "--out",
                dst.to_str().unwrap(),
                "--device",
                "valencia",
            ]))
            .unwrap();
        }
        run(&s(&[
            "recombine",
            left_c.to_str().unwrap(),
            right_c.to_str().unwrap(),
            "--meta",
            meta.to_str().unwrap(),
            "--out",
            restored.to_str().unwrap(),
            "--verify",
            input.to_str().unwrap(),
        ]))
        .unwrap();
    }

    #[test]
    fn multiway_protect_recombine_roundtrip() {
        let dir = TestDir::new();
        let input = dir.demo_circuit();
        let meta = dir.path("mw.tlk");
        let prefix = dir.path("mwseg").to_str().unwrap().to_string();
        let restored = dir.path("mwrestored.qasm");

        run(&s(&[
            "protect",
            input.to_str().unwrap(),
            "--segments",
            "3",
            "--out-prefix",
            &prefix,
            "--meta",
            meta.to_str().unwrap(),
            "--seed",
            "5",
        ]))
        .unwrap();

        let seg_paths: Vec<String> = (0..3).map(|i| format!("{prefix}{i}.qasm")).collect();
        for p in &seg_paths {
            assert!(std::path::Path::new(p).exists(), "{p} missing");
        }
        let mut args = vec!["recombine".to_string()];
        args.extend(seg_paths);
        args.extend(s(&[
            "--meta",
            meta.to_str().unwrap(),
            "--out",
            restored.to_str().unwrap(),
            "--verify",
            input.to_str().unwrap(),
        ]));
        run(&args).unwrap();
    }

    #[test]
    fn recombine_rejects_wrong_segment_count() {
        let dir = TestDir::new();
        let input = dir.demo_circuit();
        let left = dir.path("wl.qasm");
        let right = dir.path("wr.qasm");
        let meta = dir.path("w.tlk");
        run(&s(&[
            "protect",
            input.to_str().unwrap(),
            "--out-left",
            left.to_str().unwrap(),
            "--out-right",
            right.to_str().unwrap(),
            "--meta",
            meta.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run(&s(&[
            "recombine",
            left.to_str().unwrap(),
            right.to_str().unwrap(),
            left.to_str().unwrap(),
            "--meta",
            meta.to_str().unwrap(),
            "--out",
            dir.path("wout.qasm").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("segments"));
    }

    #[test]
    fn verify_detects_difference() {
        let dir = TestDir::new();
        let a_path = dir.path("a.qasm");
        let b_path = dir.path("b.qasm");
        let mut a = Circuit::new(2);
        a.x(0);
        let mut b = Circuit::new(2);
        b.x(1);
        io::write_circuit(&a_path, &a).unwrap();
        io::write_circuit(&b_path, &b).unwrap();
        assert!(run(&s(&[
            "verify",
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap()
        ]))
        .is_err());
    }

    #[test]
    fn compile_produces_device_circuit() {
        let dir = TestDir::new();
        let input = dir.demo_circuit();
        let out = dir.path("compiled.qasm");
        run(&s(&[
            "compile",
            input.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--device",
            "valencia",
        ]))
        .unwrap();
        let compiled = io::read_circuit(&out).unwrap();
        assert!(compiled.gate_count() > 0);
    }

    #[test]
    fn batch_help_derives_from_engine_constants() {
        assert!(run(&s(&["batch", "--help"])).is_ok());
        assert!(run(&s(&["help", "batch"])).is_ok());
        let help = batch_help();
        for needle in [
            "--workers",
            "--resume",
            "--jobs-dir",
            "obfuscate",
            "emit",
            &format!("format version {}", qcir::persist::FORMAT_VERSION),
            tetrislock::job::KILL_AFTER_CHECKPOINTS_ENV,
            tetrislock::batch::MANIFEST_FILE,
        ] {
            assert!(help.contains(needle), "batch help must mention {needle}");
        }
    }

    #[test]
    fn batch_runs_files_and_resumes() {
        let dir = TestDir::new();
        let input = dir.demo_circuit();
        let out_dir = dir.path("batch_out");
        run(&s(&[
            "batch",
            input.to_str().unwrap(),
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--workers",
            "2",
        ]))
        .unwrap();
        assert!(out_dir.join("demo.restored.qasm").exists());
        assert!(out_dir.join(tetrislock::batch::MANIFEST_FILE).exists());
        assert!(out_dir.join("jobs").join("demo.job").exists());
        // Resuming a finished batch is a no-op that still succeeds.
        run(&s(&[
            "batch",
            input.to_str().unwrap(),
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--resume",
        ]))
        .unwrap();
    }

    #[test]
    fn serve_help_derives_from_engine_constants() {
        use tetrislock::{retry, serve};
        assert!(run(&s(&["serve", "--help"])).is_ok());
        assert!(run(&s(&["help", "serve"])).is_ok());
        let help = serve_help();
        for needle in [
            "--watch".to_string(),
            "--strikes".to_string(),
            "--stage-timeout-ms".to_string(),
            "--stability-ms".to_string(),
            serve::SHUTDOWN_SENTINEL.to_string(),
            serve::STATUS_FILE.to_string(),
            "poisoned".to_string(),
            "crash_loop".to_string(),
            "config_mismatch".to_string(),
            format!("default {}", serve::DEFAULT_POLL_MS),
            format!("default {}", serve::DEFAULT_STABILITY_MS),
            format!("default {}", serve::DEFAULT_STAGE_TIMEOUT_MS),
            format!("default {}", retry::DEFAULT_MAX_STRIKES),
            format!("{} ms doubling", retry::DEFAULT_BASE_DELAY_MS),
            format!("{} ms ceiling", retry::DEFAULT_MAX_DELAY_MS),
        ] {
            assert!(help.contains(&needle), "serve help must mention {needle}");
        }
    }

    #[test]
    fn serve_refuses_non_directory_watch_path() {
        let dir = TestDir::new();
        let file = dir.path("serve_watch_file");
        std::fs::write(&file, "not a dir").unwrap();
        let out = dir.path("serve_out_nd");
        let err = run(&s(&[
            "serve",
            "--watch",
            file.to_str().unwrap(),
            "--out-dir",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        // The typed core-side ServeError::NotADirectory, not a panic.
        assert!(err.contains("not a directory"), "{err}");
    }

    #[test]
    fn serve_requires_watch_and_rejects_positional_args() {
        let err = run(&s(&["serve", "--out-dir", "x"])).unwrap_err();
        assert!(err.contains("--watch"), "{err}");
        let err = run(&s(&[
            "serve",
            "stray.qasm",
            "--watch",
            "w",
            "--out-dir",
            "x",
        ]))
        .unwrap_err();
        assert!(err.contains("no positional"), "{err}");
    }

    #[test]
    fn report_serve_renders_and_validates_status() {
        let dir = TestDir::new();
        let status = dir.path("status.json");
        std::fs::write(
            &status,
            "{\"type\":\"serve_status\",\"schema_version\":1,\"workers\":2,\
\"queue_depth\":0,\"in_flight\":0,\"admitted\":3,\"completed\":3,\"quarantined\":0,\
\"cancelled\":0,\"retries\":1,\"polls\":42,\"draining\":true}\n",
        )
        .unwrap();
        assert!(run(&s(&["report", "--serve", status.to_str().unwrap()])).is_ok());
        // A trace file is not a status file: loud error, not garbage.
        let trace = dir.path("not_status.jsonl");
        std::fs::write(&trace, "{\"type\":\"meta\",\"schema_version\":1}\n").unwrap();
        let err = run(&s(&["report", "--serve", trace.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("not a serve status"), "{err}");
    }

    #[test]
    fn batch_requires_inputs_and_out_dir() {
        let dir = TestDir::new();
        assert!(run(&s(&["batch"])).is_err());
        let err = run(&s(&[
            "batch",
            "--out-dir",
            dir.path("be").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("circuit file or --suite"), "{err}");
        let err = run(&s(&["batch", "--suite", "nope", "--out-dir", "x"])).unwrap_err();
        assert!(err.contains("unknown suite"), "{err}");
    }

    #[test]
    fn missing_options_reported() {
        let dir = TestDir::new();
        let input = dir.demo_circuit();
        let err = run(&s(&["protect", input.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("meta"));
    }

    // The `--trace` round trip is covered by `tests/trace_cli.rs`, which
    // drives the real binary in a subprocess: the qobs sink and level are
    // process-global, so an in-process test would race with the rest of
    // this (parallel) suite.

    #[test]
    fn trace_flag_requires_value() {
        let err = run(&s(&["verify", "--trace"])).unwrap_err();
        assert!(err.contains("--trace"));
    }

    #[test]
    fn check_equivalence_padded_registers() {
        let mut small = Circuit::new(2);
        small.x(0);
        let mut large = Circuit::new(3);
        large.x(0);
        assert!(check_equivalence(&small, &large).unwrap());
        let mut wrong = Circuit::new(3);
        wrong.x(2);
        assert!(!check_equivalence(&small, &wrong).unwrap());
    }
}

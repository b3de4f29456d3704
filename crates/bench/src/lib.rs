//! # bench — the TetrisLock experiment harness
//!
//! Shared experiment drivers behind the table/figure regeneration
//! binaries:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table I (overhead + accuracy, 20-iteration averages) |
//! | `fig4` | Figure 4 (TVD of obfuscated vs restored circuits) |
//! | `attack_complexity` | §IV-C / Eq. 1 comparison vs Saki et al. |
//! | `baselines` | §II-C qualitative comparison vs prior schemes |
//!
//! Run with `--release`; the 12-qubit noisy runs are slow in debug mode.

use qmetrics::stats::{percent_change, summarize, Summary};
use qmetrics::{accuracy, tvd_vs_ideal};
use qsim::Sampler;
use revlib::Benchmark;
use tetrislock::job::device_for;
use tetrislock::recombine::recombine;
use tetrislock::{InsertionConfig, Obfuscator};

/// Shots per simulation, matching the paper ("all simulations were
/// performed with 1,000 shots").
pub const SHOTS: u64 = 1000;

/// Iterations per data point, matching Table I ("averages of 20
/// iterations").
pub const ITERATIONS: u64 = 20;

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Original circuit depth.
    pub depth: usize,
    /// Mean obfuscated depth (paper: identical to `depth`).
    pub depth_obfuscated: f64,
    /// Original gate count.
    pub gates: usize,
    /// Mean obfuscated gate count.
    pub gates_obfuscated: f64,
    /// Mean gate-count change in percent.
    pub gate_change_percent: f64,
    /// Mean total inserted-gate count, both halves (the paper's "1–4
    /// gates").
    pub inserted: f64,
    /// Mean accuracy of the original circuit under device noise.
    pub accuracy: f64,
    /// Mean accuracy of the recombined (restored) circuit.
    pub accuracy_restored: f64,
    /// Accuracy change in percent (paper reports the absolute drop).
    pub accuracy_change_percent: f64,
}

/// Runs the Table I experiment for one benchmark.
///
/// Per iteration: obfuscate with a fresh seed (gate limit 4, X/CX
/// policy), split with an interlocking pattern, recombine, and measure
/// original vs restored accuracy under the device noise model.
///
/// # Panics
///
/// Panics if simulation fails (register too large for the simulator).
pub fn table1_row(bench: &Benchmark, iterations: u64, shots: u64) -> TableRow {
    let circuit = bench.circuit();
    let device = device_for("valencia", circuit.num_qubits()).expect("valencia fits any width");
    let expected = bench.expected_output();

    let mut depth_obf = Vec::new();
    let mut gates_obf = Vec::new();
    let mut inserted = Vec::new();
    let mut acc_orig = Vec::new();
    let mut acc_restored = Vec::new();

    for iter in 0..iterations {
        let obf = Obfuscator::new()
            .with_config(InsertionConfig {
                seed: iter,
                ..Default::default()
            })
            .obfuscate(circuit);
        depth_obf.push(obf.obfuscated().depth() as f64);
        gates_obf.push(obf.obfuscated().gate_count() as f64);
        inserted.push(obf.insertion().gate_overhead() as f64);

        let split = obf.split(iter.wrapping_mul(0x9E37_79B9).wrapping_add(17));
        let restored = recombine(&split).expect("recombination is total");

        let sampler = Sampler::new(shots).with_seed(1000 + iter);
        let counts = sampler
            .run_noisy(circuit, device.noise())
            .expect("simulation fits");
        acc_orig.push(accuracy(&counts, expected));

        let sampler = Sampler::new(shots).with_seed(2000 + iter);
        let counts = sampler
            .run_noisy(&restored, device.noise())
            .expect("simulation fits");
        acc_restored.push(accuracy(&counts, expected));
    }

    let accuracy_mean = summarize(&acc_orig).mean;
    let restored_mean = summarize(&acc_restored).mean;
    TableRow {
        name: bench.name().to_string(),
        depth: circuit.depth(),
        depth_obfuscated: summarize(&depth_obf).mean,
        gates: circuit.gate_count(),
        gates_obfuscated: summarize(&gates_obf).mean,
        gate_change_percent: percent_change(
            circuit.gate_count() as f64,
            summarize(&gates_obf).mean,
        ),
        inserted: summarize(&inserted).mean,
        accuracy: accuracy_mean,
        accuracy_restored: restored_mean,
        accuracy_change_percent: percent_change(accuracy_mean, restored_mean).abs(),
    }
}

/// One benchmark's Figure 4 data: TVD samples for the obfuscated
/// (masked `RC`) and restored (`R⁻¹RC` recombined) circuits.
#[derive(Debug, Clone)]
pub struct TvdPoint {
    /// Benchmark name.
    pub name: String,
    /// TVD of the masked circuit vs the theoretical output, per iteration.
    pub obfuscated: Vec<f64>,
    /// TVD of the restored circuit vs the theoretical output.
    pub restored: Vec<f64>,
}

impl TvdPoint {
    /// Summary of the obfuscated-circuit TVDs.
    pub fn obfuscated_summary(&self) -> Summary {
        summarize(&self.obfuscated)
    }

    /// Summary of the restored-circuit TVDs.
    pub fn restored_summary(&self) -> Summary {
        summarize(&self.restored)
    }
}

/// Runs the Figure 4 experiment for one benchmark.
///
/// # Panics
///
/// Panics if simulation fails.
pub fn fig4_point(bench: &Benchmark, iterations: u64, shots: u64) -> TvdPoint {
    let circuit = bench.circuit();
    let device = device_for("valencia", circuit.num_qubits()).expect("valencia fits any width");
    let expected = bench.expected_output();

    let mut obfuscated = Vec::new();
    let mut restored = Vec::new();
    for iter in 0..iterations {
        let obf = Obfuscator::new()
            .with_config(InsertionConfig {
                seed: 7000 + iter,
                ..Default::default()
            })
            .obfuscate(circuit);

        // "Obfuscated" in Fig. 4 = what runs without the R⁻¹ key.
        let masked = obf.masked_circuit();
        let counts = Sampler::new(shots)
            .with_seed(3000 + iter)
            .run_noisy(&masked, device.noise())
            .expect("simulation fits");
        obfuscated.push(tvd_vs_ideal(&counts, expected));

        let split = obf.split(4000 + iter);
        let rejoined = recombine(&split).expect("recombination is total");
        let counts = Sampler::new(shots)
            .with_seed(5000 + iter)
            .run_noisy(&rejoined, device.noise())
            .expect("simulation fits");
        restored.push(tvd_vs_ideal(&counts, expected));
    }
    TvdPoint {
        name: bench.name().to_string(),
        obfuscated,
        restored,
    }
}

/// Renders a `0..=1` value as a fixed-width ASCII bar.
pub fn bar(value: f64, width: usize) -> String {
    let filled = (value.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "█".repeat(filled), "░".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_selection_by_size() {
        let name = |n| device_for("valencia", n).unwrap().name().to_string();
        assert_eq!(name(4), "fake_valencia");
        assert_eq!(name(5), "fake_valencia");
        assert!(name(7).contains("ext7"));
        assert!(name(12).contains("ext12"));
    }

    #[test]
    fn table1_row_smoke() {
        let bench = revlib::adder_1bit();
        let row = table1_row(&bench, 3, 200);
        assert_eq!(row.depth, 5);
        // Depth must be preserved exactly in every iteration.
        assert!((row.depth_obfuscated - row.depth as f64).abs() < 1e-12);
        assert!(row.accuracy > 0.5);
        assert!(row.accuracy_restored > 0.5);
        assert!(row.gates_obfuscated >= row.gates as f64);
    }

    #[test]
    fn fig4_point_smoke() {
        let bench = revlib::mini_alu();
        let point = fig4_point(&bench, 3, 200);
        assert_eq!(point.obfuscated.len(), 3);
        // Restored TVD must be small (noise only).
        assert!(point.restored_summary().mean < 0.3);
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(0.0, 4), "░░░░");
        assert_eq!(bar(1.0, 4), "████");
        assert_eq!(bar(0.5, 4), "██░░");
    }
}

pub use qcir::random::clifford_t_circuit;

/// `git` output for `args`, trimmed; `None` without git or a repository.
fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The `provenance` block of the `BENCH_*.json` files: the checked-out
/// commit (and whether the tree had uncommitted changes), the host's
/// cores, the qsim worker count every statevector replay resolved to,
/// and the `QSIM_WORKERS` value it resolved from (`"unset"` without
/// one).
pub fn provenance_json() -> String {
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let workers_env = std::env::var("QSIM_WORKERS").unwrap_or_else(|_| "unset".to_string());
    format!(
        "{{\"commit\": \"{commit}\", \"dirty\": {}, \"nproc\": {nproc}, \"resolved_workers\": {}, \
         \"qsim_workers_env\": {workers_env:?}}}",
        dirty.map_or("null".to_string(), |d| d.to_string()),
        qsim::resolved_workers(),
    )
}

/// Structural validation for `BENCH_qsim.json` and
/// `BENCH_pipeline.json`.
///
/// The workspace vendors no JSON parser, so these checks are
/// line-oriented over the emitters' fixed layout: a header field set
/// plus one case (or job) object per line. The binary validates its
/// own output before writing it, and CI's smoke run revalidates the
/// freshly emitted file, so schema drift between the emitter and the
/// perf-history consumers fails loudly instead of rotting silently.
pub mod schema {
    /// Keys every case object must carry.
    const CASE_KEYS: [&str; 7] = [
        "name",
        "qubits",
        "gates",
        "reps",
        "fused_ms",
        "naive_ms",
        "speedup_vs_naive",
    ];

    /// Checks that `json` has the `BENCH_qsim.json` schema-version-1
    /// shape: the suite/header fields, a `provenance` block (see
    /// [`crate::provenance_json`]) whose `resolved_workers` is at least
    /// 1 and which names its `qsim_workers_env`, an `engine` block whose
    /// `detected_workers` is at least 1, and a non-empty case list in
    /// which every case carries all seven per-case keys and a numeric
    /// `fused_ms`.
    ///
    /// # Example
    ///
    /// ```
    /// use bench::schema::validate_qsim_bench_json;
    ///
    /// let doc = concat!(
    ///     "{\n  \"suite\": \"qsim_statevector\",\n  \"schema_version\": 1,\n",
    ///     "  \"smoke\": true,\n",
    ///     "  \"provenance\": {\"commit\": \"unknown\", \"dirty\": null, ",
    ///     "\"nproc\": 4, \"resolved_workers\": 4, \"qsim_workers_env\": \"unset\"},\n",
    ///     "  \"engine\": {\"max_qubits\": 28, \"parallel_min_qubits\": 18, ",
    ///     "\"detected_workers\": 4},\n  \"cases\": [\n",
    ///     "    {\"name\": \"rd53\", \"qubits\": 7, \"gates\": 12, \"reps\": 3, ",
    ///     "\"fused_ms\": 0.5, \"naive_ms\": 1.0, ",
    ///     "\"speedup_vs_naive\": 2.00}\n  ]\n}\n",
    /// );
    /// assert!(validate_qsim_bench_json(doc).is_ok());
    /// assert!(validate_qsim_bench_json("{}").is_err());
    /// ```
    pub fn validate_qsim_bench_json(json: &str) -> Result<(), String> {
        require(json, "\"suite\": \"qsim_statevector\"")?;
        require(json, "\"schema_version\": 1")?;
        if !json.contains("\"smoke\": true") && !json.contains("\"smoke\": false") {
            return Err("missing boolean \"smoke\" field".into());
        }
        require(json, "\"provenance\": {\"commit\": \"")?;
        if uint_field(json, "resolved_workers")? == 0 {
            return Err("\"resolved_workers\" must be at least 1".into());
        }
        require(json, "\"qsim_workers_env\": \"")?;
        let max_qubits = uint_field(json, "max_qubits")?;
        let parallel_min = uint_field(json, "parallel_min_qubits")?;
        let workers = uint_field(json, "detected_workers")?;
        if workers == 0 {
            return Err("\"detected_workers\" must be at least 1".into());
        }
        if parallel_min > max_qubits {
            return Err(format!(
                "\"parallel_min_qubits\" ({parallel_min}) exceeds \"max_qubits\" ({max_qubits})"
            ));
        }
        require(json, "\"cases\": [")?;
        let cases: Vec<&str> = json
            .lines()
            .filter(|line| line.contains("\"name\":"))
            .collect();
        if cases.is_empty() {
            return Err("\"cases\" holds no case objects".into());
        }
        for line in &cases {
            for key in CASE_KEYS {
                if !line.contains(&format!("\"{key}\":")) {
                    return Err(format!("case object missing \"{key}\": {}", line.trim()));
                }
            }
            if line.contains("\"fused_ms\": null") {
                return Err(format!("case has null \"fused_ms\": {}", line.trim()));
            }
        }
        Ok(())
    }

    /// Keys every `BENCH_pipeline.json` job object must carry, each
    /// followed by a number or an object.
    const JOB_KEYS: [&str; 9] = [
        "circuit",
        "device",
        "job_ms",
        "run_batch_ms",
        "to_qasm_ms",
        "stages_sum_ms",
        "stages_ms",
        "compile_left",
        "compile_right",
    ];

    /// Checks that `json` has the `BENCH_pipeline.json`
    /// schema-version-1 shape written by `perfdump_pipeline`: the
    /// suite/header fields, a `provenance` block whose
    /// `resolved_workers` is at least 1, a `reps` count of at least 1,
    /// and a non-empty job list in which every job carries its nine
    /// keys (`circuit`, `device`, `job_ms`, `run_batch_ms`,
    /// `to_qasm_ms`, `stages_sum_ms`, `stages_ms`, `compile_left`,
    /// `compile_right`) and no `null`.
    ///
    /// # Example
    ///
    /// ```
    /// use bench::schema::validate_pipeline_bench_json;
    ///
    /// let doc = concat!(
    ///     "{\n  \"suite\": \"pipeline\",\n  \"schema_version\": 1,\n",
    ///     "  \"smoke\": true,\n",
    ///     "  \"provenance\": {\"commit\": \"unknown\", \"dirty\": null, ",
    ///     "\"nproc\": 2, \"resolved_workers\": 2, \"qsim_workers_env\": \"unset\"},\n",
    ///     "  \"reps\": 3,\n  \"jobs\": [\n",
    ///     "    {\"circuit\": \"rd53\", \"device\": \"ideal\", \"job_ms\": 1.5, ",
    ///     "\"run_batch_ms\": 3.0, \"to_qasm_ms\": 0.1, \"stages_sum_ms\": 1.4, ",
    ///     "\"stages_ms\": {}, \"compile_left\": {}, \"compile_right\": {}}\n  ]\n}\n",
    /// );
    /// assert!(validate_pipeline_bench_json(doc).is_ok());
    /// assert!(validate_pipeline_bench_json("{}").is_err());
    /// ```
    pub fn validate_pipeline_bench_json(json: &str) -> Result<(), String> {
        require(json, "\"suite\": \"pipeline\"")?;
        require(json, "\"schema_version\": 1")?;
        if !json.contains("\"smoke\": true") && !json.contains("\"smoke\": false") {
            return Err("missing boolean \"smoke\" field".into());
        }
        require(json, "\"provenance\": {\"commit\": \"")?;
        if uint_field(json, "resolved_workers")? == 0 {
            return Err("\"resolved_workers\" must be at least 1".into());
        }
        if uint_field(json, "reps")? == 0 {
            return Err("\"reps\" must be at least 1".into());
        }
        require(json, "\"jobs\": [")?;
        let jobs: Vec<&str> = json
            .lines()
            .filter(|line| line.contains("\"circuit\":"))
            .collect();
        if jobs.is_empty() {
            return Err("\"jobs\" holds no job objects".into());
        }
        for line in &jobs {
            for key in JOB_KEYS {
                if !line.contains(&format!("\"{key}\":")) {
                    return Err(format!("job object missing \"{key}\": {}", line.trim()));
                }
            }
            if line.contains("null") {
                return Err(format!("job has a null value: {}", line.trim()));
            }
        }
        Ok(())
    }

    fn require(json: &str, needle: &str) -> Result<(), String> {
        if json.contains(needle) {
            Ok(())
        } else {
            Err(format!("missing required fragment `{needle}`"))
        }
    }

    /// Parses the unsigned integer following `"key": `.
    fn uint_field(json: &str, key: &str) -> Result<u64, String> {
        let marker = format!("\"{key}\": ");
        let start = json
            .find(&marker)
            .ok_or_else(|| format!("missing \"{key}\" field"))?
            + marker.len();
        let digits: String = json[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits
            .parse()
            .map_err(|_| format!("\"{key}\" is not an unsigned integer"))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn valid_doc() -> String {
            concat!(
                "{\n  \"suite\": \"qsim_statevector\",\n  \"schema_version\": 1,\n",
                "  \"smoke\": false,\n",
                "  \"provenance\": {\"commit\": \"0123abc\", \"dirty\": false, ",
                "\"nproc\": 2, \"resolved_workers\": 2, \"qsim_workers_env\": \"2\"},\n",
                "  \"engine\": {\"max_qubits\": 28, \"parallel_min_qubits\": 18, ",
                "\"detected_workers\": 4},\n  \"cases\": [\n",
                "    {\"name\": \"rd53\", \"qubits\": 7, \"gates\": 12, \"reps\": 3, ",
                "\"fused_ms\": 0.5, \"naive_ms\": 1.0, ",
                "\"speedup_vs_naive\": 2.00},\n",
                "    {\"name\": \"stimulus_20q_2trials\", \"qubits\": 20, \"gates\": 40, ",
                "\"reps\": 3, \"fused_ms\": 9.1, \"naive_ms\": null, ",
                "\"speedup_vs_naive\": null}\n  ]\n}\n",
            )
            .to_string()
        }

        #[test]
        fn accepts_the_emitters_layout() {
            validate_qsim_bench_json(&valid_doc()).expect("valid document");
        }

        #[test]
        fn rejects_missing_case_key() {
            let doc = valid_doc().replace("\"reps\": 3, ", "");
            let err = validate_qsim_bench_json(&doc).unwrap_err();
            assert!(err.contains("reps"), "got: {err}");
        }

        #[test]
        fn rejects_zero_workers_and_empty_cases() {
            let doc = valid_doc().replace("\"detected_workers\": 4", "\"detected_workers\": 0");
            assert!(validate_qsim_bench_json(&doc)
                .unwrap_err()
                .contains("detected_workers"));

            let doc = valid_doc()
                .lines()
                .filter(|l| !l.contains("\"name\":"))
                .collect::<Vec<_>>()
                .join("\n");
            assert!(validate_qsim_bench_json(&doc)
                .unwrap_err()
                .contains("no case objects"));
        }

        #[test]
        fn requires_provenance_with_workers() {
            let doc = valid_doc().replace("\"provenance\"", "\"origin\"");
            assert!(validate_qsim_bench_json(&doc)
                .unwrap_err()
                .contains("provenance"));
            let doc = valid_doc().replace("\"resolved_workers\": 2", "\"resolved_workers\": 0");
            assert!(validate_qsim_bench_json(&doc)
                .unwrap_err()
                .contains("resolved_workers"));
            let doc = valid_doc().replace(", \"qsim_workers_env\": \"2\"", "");
            assert!(validate_qsim_bench_json(&doc)
                .unwrap_err()
                .contains("qsim_workers_env"));
        }

        fn valid_pipeline_doc() -> String {
            concat!(
                "{\n  \"suite\": \"pipeline\",\n  \"schema_version\": 1,\n",
                "  \"smoke\": false,\n",
                "  \"provenance\": {\"commit\": \"0123abc\", \"dirty\": false, ",
                "\"nproc\": 2, \"resolved_workers\": 2, \"qsim_workers_env\": \"unset\"},\n",
                "  \"reps\": 21,\n  \"jobs\": [\n",
                "    {\"circuit\": \"rd53\", \"device\": \"ideal\", \"job_ms\": 1.5, ",
                "\"run_batch_ms\": 3.1, \"to_qasm_ms\": 0.12, \"stages_sum_ms\": 1.3, ",
                "\"stages_ms\": {\"verify\": 0.7}, \"compile_left\": {\"swaps\": 0}, ",
                "\"compile_right\": {\"swaps\": 0}}\n  ]\n}\n",
            )
            .to_string()
        }

        #[test]
        fn pipeline_schema_requires_every_job_key() {
            validate_pipeline_bench_json(&valid_pipeline_doc()).expect("valid document");
            for key in ["run_batch_ms", "to_qasm_ms"] {
                let doc = valid_pipeline_doc().replace(&format!("\"{key}\""), "\"other\"");
                let err = validate_pipeline_bench_json(&doc).unwrap_err();
                assert!(err.contains(key), "got: {err}");
            }
            let doc = valid_pipeline_doc().replace("\"to_qasm_ms\": 0.12", "\"to_qasm_ms\": null");
            assert!(validate_pipeline_bench_json(&doc)
                .unwrap_err()
                .contains("null"));
            let doc = valid_pipeline_doc().replace("\"reps\": 21", "\"reps\": 0");
            assert!(validate_pipeline_bench_json(&doc)
                .unwrap_err()
                .contains("reps"));
            let doc = valid_pipeline_doc().replace("\"suite\": \"pipeline\"", "\"suite\": \"x\"");
            assert!(validate_pipeline_bench_json(&doc).is_err());
        }

        #[test]
        fn rejects_null_fused_ms_and_wrong_suite() {
            let doc = valid_doc().replace("\"fused_ms\": 0.5", "\"fused_ms\": null");
            assert!(validate_qsim_bench_json(&doc)
                .unwrap_err()
                .contains("fused_ms"));
            let doc = valid_doc().replace("qsim_statevector", "qsim_other");
            assert!(validate_qsim_bench_json(&doc).is_err());
        }
    }
}

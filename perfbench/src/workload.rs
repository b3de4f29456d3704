//! The two workloads, their ops, and the closed timed loop.
//!
//! An *op* is one protection job submitted as a one-input
//! `tetrislock::batch::run_batch` call with one worker (`table1`), or
//! one `qverify::Verifier::check_report` call (`wrong_key`). One client
//! issues the next op only after the previous one returned.

use crate::inputs::{self, JobInput, KeyCase};
use qcir::Circuit;
use qverify::Verifier;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tetrislock::batch::{run_batch, BatchConfig};

/// A workload name from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's eight Table I circuits, ideal device.
    Table1,
    /// Verification-only refutation of stripped-key circuits.
    WrongKey,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "table1" => Some(Workload::Table1),
            "wrong_key" => Some(Workload::WrongKey),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::WrongKey => "wrong_key",
        }
    }
}

/// Checkpoint and output directories of one run.
#[derive(Debug, Clone)]
pub struct WorkDirs {
    /// Checkpoint directory handed to `run_batch`.
    pub jobs: PathBuf,
    /// Output directory handed to `run_batch`.
    pub out: PathBuf,
}

impl WorkDirs {
    /// Fresh, empty directories under `root`.
    pub fn fresh(root: &Path) -> Result<WorkDirs, String> {
        if root.exists() {
            std::fs::remove_dir_all(root)
                .map_err(|e| format!("cannot clear {}: {e}", root.display()))?;
        }
        let dirs = WorkDirs {
            jobs: root.join("jobs"),
            out: root.join("out"),
        };
        for dir in [&dirs.jobs, &dirs.out] {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        Ok(dirs)
    }

    /// The `run_batch` configuration for one job.
    pub fn batch_config(&self, job: &JobInput) -> BatchConfig {
        BatchConfig {
            jobs_dir: self.jobs.clone(),
            out_dir: self.out.clone(),
            workers: 1,
            resume: false,
            job: job.config.clone(),
        }
    }
}

/// A workload's generated inputs: jobs or refutation cases.
pub enum Ops {
    /// Protection jobs (`table1`).
    Jobs(Vec<JobInput>),
    /// Wrong-key refutations (`wrong_key`).
    Keys(Vec<KeyCase>),
}

/// Everything one run needs before timing starts.
pub struct Prepared {
    /// The ops of one pass, in issue order.
    pub ops: Ops,
    /// Where jobs checkpoint and emit.
    pub dirs: WorkDirs,
    /// The verifier `wrong_key` ops call.
    pub verifier: Verifier,
}

impl Prepared {
    /// Generates the workload's inputs from `seed` into fresh work dirs.
    pub fn generate(workload: Workload, seed: u64, root: &Path) -> Result<Prepared, String> {
        let ops = match workload {
            Workload::Table1 => Ops::Jobs(inputs::table1_jobs(seed)),
            Workload::WrongKey => Ops::Keys(inputs::wrong_key_cases(seed)?),
        };
        Ok(Prepared {
            ops,
            dirs: WorkDirs::fresh(root)?,
            verifier: inputs::job_verifier(),
        })
    }

    /// Ops in one pass.
    pub fn len(&self) -> usize {
        match &self.ops {
            Ops::Jobs(jobs) => jobs.len(),
            Ops::Keys(cases) => cases.len(),
        }
    }

    /// The Table I slug an op belongs to, if any (per-circuit rows).
    pub fn circuit_slug(&self, k: usize) -> String {
        match &self.ops {
            Ops::Jobs(jobs) => inputs::slug(jobs[k].bench.name()),
            Ops::Keys(cases) => cases[k].name.clone(),
        }
    }

    /// The op each set-up runs once to warm up: the last op of the pass's
    /// most repeated circuit, the block that holds the pass's median op.
    /// That circuit's config or key is fixed rather than seeded, so
    /// set-up time does not move with the workload seed. The first op
    /// would be a few milliseconds that swing with the disk or the host.
    pub fn warmup_op(&self) -> usize {
        let slugs: Vec<String> = (0..self.len()).map(|k| self.circuit_slug(k)).collect();
        let ops_of = |slug: &String| slugs.iter().filter(|s| *s == slug).count();
        // `max_by_key` keeps the last of equal maxima: the block's last op.
        (0..self.len()).max_by_key(|&k| ops_of(&slugs[k])).unwrap_or(0)
    }

    /// Runs op `k` through its public entry point. `Ok` carries whether
    /// the op gave the known answer; `Err` is an op that errored.
    pub fn run_op(&self, k: usize) -> Result<bool, String> {
        match &self.ops {
            Ops::Jobs(jobs) => {
                let job = &jobs[k];
                let report = run_batch(
                    vec![(job.id.clone(), job.bench.circuit().clone())],
                    &self.dirs.batch_config(job),
                )
                .map_err(|e| e.to_string())?;
                match &report.outcomes[0].result {
                    Ok(verdict) => Ok(verdict.equivalent),
                    Err(failure) => Err(failure.to_string()),
                }
            }
            Ops::Keys(cases) => {
                let case = &cases[k];
                let report = self.verifier.check_report(&case.original, &case.candidate);
                match report.verdict {
                    qverify::Verdict::Inequivalent { .. } => Ok(true),
                    qverify::Verdict::Equivalent => Ok(false),
                    qverify::Verdict::Inconclusive { .. } => {
                        Err(format!("{}: inconclusive", case.name))
                    }
                }
            }
        }
    }

    /// The (original, candidate) pair a wrong-key op checks.
    pub fn key_pair(&self, k: usize) -> Option<(&Circuit, &Circuit)> {
        match &self.ops {
            Ops::Keys(cases) => Some((&cases[k].original, &cases[k].candidate)),
            Ops::Jobs(_) => None,
        }
    }
}

/// Starts the qsim worker pool, which spawns lazily on the first kernel
/// at `PARALLEL_MIN_QUBITS` or wider.
pub fn spawn_qsim_pool() {
    let n = qsim::statevector::PARALLEL_MIN_QUBITS;
    let mut c = Circuit::new(n);
    c.h(n - 1);
    let mut sv = qsim::Statevector::basis(n, 0).expect("the pool threshold fits the simulator");
    sv.apply_circuit(&c).expect("a one-gate circuit applies");
    std::hint::black_box(&sv);
}

/// What the timed loop observed.
pub struct LoopResult {
    /// Per-op wall latency, ms, in issue order.
    pub latencies_ms: Vec<f64>,
    /// Ops issued.
    pub attempted: usize,
    /// Ops that errored or gave the wrong answer.
    pub failed: usize,
    /// First failure message, for the log.
    pub first_failure: Option<String>,
    /// Wall time of the whole loop, s.
    pub wall_s: f64,
    /// Whole passes over the op list.
    pub passes: usize,
}

/// Closed loop, one client: as many whole passes over the ops as fit in
/// `seconds`, at least one. Another pass starts only if one more pass as
/// long as the last one would still end within `seconds`, so every run
/// times the same op mix and none runs much past `seconds`.
pub fn timed_loop(prepared: &Prepared, seconds: f64) -> LoopResult {
    let n = prepared.len();
    let mut result = LoopResult {
        latencies_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        first_failure: None,
        wall_s: 0.0,
        passes: 0,
    };
    let start = Instant::now();
    let mut last_pass_s = 0.0;
    while result.passes == 0 || start.elapsed().as_secs_f64() + last_pass_s <= seconds {
        let pass_start = Instant::now();
        for k in 0..n {
            let t = Instant::now();
            let outcome = std::hint::black_box(prepared.run_op(k));
            result.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            result.attempted += 1;
            let failure = match outcome {
                Ok(true) => None,
                Ok(false) => Some(format!("op {k} gave the wrong verdict")),
                Err(e) => Some(e),
            };
            if let Some(message) = failure {
                result.failed += 1;
                result.first_failure.get_or_insert(message);
            }
        }
        result.passes += 1;
        last_pass_s = pass_start.elapsed().as_secs_f64();
    }
    result.wall_s = start.elapsed().as_secs_f64();
    result
}

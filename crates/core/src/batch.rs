//! The batch protection service: N-worker execution of many
//! checkpointed jobs.
//!
//! [`run_batch`] runs one `job::Driver` per input circuit over
//! a fixed-size worker pool, inline on the worker threads; the calling
//! thread is one of them, so `workers` = N spawns N − 1 threads. Each
//! job checkpoints through [`crate::job::save_checkpoint`] after verify
//! (fsynced) and at `Done` (not fsynced: a power loss there costs one
//! re-emit from the `.prev` generation). After a crash — including the
//! deliberate aborts injected via
//! [`crate::job::KILL_AFTER_CHECKPOINTS_ENV`] — a job killed before its
//! verify checkpoint reruns its cheap stages from the pinned seeds, and
//! one killed after it redoes at most the emit. Re-running with
//! `resume: true` picks every job up from its last good checkpoint (or
//! its `.prev` fallback) and finishes it; a job whose input changed
//! starts fresh.
//!
//! **Determinism contract**: per-job outputs and the manifest are
//! byte-identical regardless of worker count, scheduling order, or how
//! many kill/resume cycles interrupted the run. Jobs never exchange
//! data; all randomness is seeded from the per-job config; results are
//! sorted by job id before the manifest is written.

use crate::job::{Driver, JobConfig, JobEnd, JobError, JobStage, JobVerdict};
use crate::retry::RetryPolicy;
use qcir::{persist, Circuit};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;

static JOBS_COMPLETED: qobs::Counter = qobs::Counter::new("batch.jobs_completed");
static JOBS_FAILED: qobs::Counter = qobs::Counter::new("batch.jobs_failed");
static JOBS_PANICKED: qobs::Counter = qobs::Counter::new("batch.jobs_panicked");
static JOBS_SKIPPED: qobs::Counter = qobs::Counter::new("batch.jobs_skipped");
static TMPS_SWEPT: qobs::Counter = qobs::Counter::new("batch.tmps_swept");

/// Name of the manifest file written into the output directory.
pub const MANIFEST_FILE: &str = "manifest.txt";

/// Fixed first lines of every manifest.
const MANIFEST_HEADER: &str = "# tetrislock batch manifest\n# id\tstatus\ttier\toutput\n";

/// Minimum age (against mtime) before the startup sweep deletes an
/// orphan `.tmp` staging file. Young tmps may belong to a concurrent
/// writer racing us in the same directory; anything older is debris
/// from a crashed run.
pub const TMP_SWEEP_MIN_AGE_SECS: u64 = 60;

/// Batch-level configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Directory for checkpoint files (created if missing).
    pub jobs_dir: PathBuf,
    /// Directory for restored-circuit outputs and the manifest.
    pub out_dir: PathBuf,
    /// Worker threads, the calling thread included (clamped to at least
    /// 1 and at most the job count).
    pub workers: usize,
    /// Resume jobs from existing checkpoints instead of starting fresh.
    pub resume: bool,
    /// Pipeline parameters shared by every job in the batch.
    pub job: JobConfig,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            jobs_dir: PathBuf::from("tlk-jobs"),
            out_dir: PathBuf::from("tlk-out"),
            workers: 1,
            resume: false,
            job: JobConfig::default(),
        }
    }
}

/// Terminal failure of one job, as recorded in outcomes and the
/// manifest. `Panicked` is distinct from `Error` so resume semantics
/// stay total: a worker that blew up mid-stage still leaves a typed
/// terminal state behind instead of a missing manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// A stage, checkpoint, or configuration error, rendered to text.
    Error(String),
    /// A stage panicked; the payload is the panic message.
    Panicked(String),
}

impl JobFailure {
    /// The underlying failure message.
    pub fn message(&self) -> &str {
        match self {
            JobFailure::Error(m) | JobFailure::Panicked(m) => m,
        }
    }
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Error(m) => f.write_str(m),
            JobFailure::Panicked(m) => write!(f, "worker panicked: {m}"),
        }
    }
}

/// Terminal status of one job in a batch run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's id.
    pub id: String,
    /// Stage transitions performed over the job's whole lifetime
    /// (across resumes); 0 for a failed job.
    pub steps_done: u64,
    /// `true` if the job was restored from a checkpoint this run.
    pub resumed: bool,
    /// The verification verdict, or the typed failure.
    pub result: Result<JobVerdict, JobFailure>,
}

/// What a finished (or failed) batch run produced.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job outcomes, sorted by id.
    pub outcomes: Vec<JobOutcome>,
    /// Path of the manifest written into the output directory.
    pub manifest_path: PathBuf,
}

impl BatchReport {
    /// `true` iff every job completed and verified equivalent.
    pub fn all_equivalent(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(&o.result, Ok(v) if v.equivalent))
    }

    /// Number of jobs that failed (stage error or unusable checkpoint).
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_err()).count()
    }
}

/// Runs the batch: one checkpointed pipeline per input circuit, spread
/// over `config.workers` threads, the calling thread included.
///
/// `inputs` pairs each job id with its original circuit. Ids must be
/// unique — they name checkpoint and output files.
///
/// # Errors
///
/// [`JobError`] only for batch-level failures (directories cannot be
/// created, duplicate ids, manifest unwritable). Per-job failures are
/// *reported*, not raised: they land in the returned
/// [`BatchReport::outcomes`] so one bad job cannot sink the batch.
pub fn run_batch(
    inputs: Vec<(String, Circuit)>,
    config: &BatchConfig,
) -> Result<BatchReport, JobError> {
    let batch_err = |message: String| JobError::Stage {
        id: "<batch>".to_string(),
        stage: JobStage::Obfuscate,
        message,
    };
    for dir in [&config.jobs_dir, &config.out_dir] {
        std::fs::create_dir_all(dir)
            .map_err(|e| batch_err(format!("cannot create {}: {e}", dir.display())))?;
    }
    sweep_tmp_debris(&[&config.jobs_dir, &config.out_dir]);
    {
        let mut ids: Vec<&str> = inputs.iter().map(|(id, _)| id.as_str()).collect();
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(batch_err(format!("duplicate job id `{}`", dup[0])));
        }
    }

    let workers = config.workers.max(1).min(inputs.len().max(1));
    let span = qobs::span("batch.run")
        .attr("jobs", inputs.len())
        .attr("workers", workers)
        .attr("resume", if config.resume { 1u64 } else { 0u64 });

    let queue: Mutex<VecDeque<(String, Circuit)>> = Mutex::new(inputs.into_iter().collect());
    let outcomes: Mutex<Vec<JobOutcome>> = Mutex::new(Vec::new());

    let work = || loop {
        let next = queue.lock().expect("queue poisoned").pop_front();
        let Some((id, circuit)) = next else { break };
        let outcome = run_job(&id, circuit, config);
        outcomes.lock().expect("outcomes poisoned").push(outcome);
    };
    // The calling thread is worker 0: it would otherwise sit blocked in
    // the scope's join, and a one-worker batch spawns no thread at all.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });

    let mut outcomes = outcomes.into_inner().expect("outcomes poisoned");
    outcomes.sort_by(|a, b| a.id.cmp(&b.id));
    let mut manifest = Manifest::default();
    for o in &outcomes {
        match &o.result {
            Ok(verdict) => {
                JOBS_COMPLETED.incr();
                manifest.set_verdict(&o.id, verdict);
            }
            Err(failure) => {
                JOBS_FAILED.incr();
                let status = match failure {
                    JobFailure::Panicked(_) => {
                        JOBS_PANICKED.incr();
                        "PANICKED"
                    }
                    JobFailure::Error(_) => "FAILED",
                };
                manifest.set(&o.id, status, "-", failure.message());
            }
        }
    }
    let _span = span.attr(
        "failed",
        outcomes.iter().filter(|o| o.result.is_err()).count(),
    );

    let manifest_path = config.out_dir.join(MANIFEST_FILE);
    manifest
        .write(&manifest_path)
        .map_err(|e| batch_err(format!("cannot write manifest: {e}")))?;
    Ok(BatchReport {
        outcomes,
        manifest_path,
    })
}

/// Drives one job inline on the worker thread: no stage deadline, and
/// one strike fails the job without a backoff sleep.
fn run_job(id: &str, circuit: Circuit, config: &BatchConfig) -> JobOutcome {
    let _span = qobs::span("batch.job").attr("job", String::from(id));
    let driver = Driver {
        jobs_dir: &config.jobs_dir,
        out_dir: &config.out_dir,
        resume: config.resume,
        retry: &RetryPolicy {
            max_strikes: 1,
            ..RetryPolicy::default()
        },
        stage_timeout: None,
        cancel: &AtomicBool::new(false),
        on_strike: &|_, _| {},
    };
    let (steps_done, resumed, result) = match driver.drive(id, circuit, &config.job) {
        JobEnd::Done {
            verdict,
            steps_done,
            resumed,
            skipped,
        } => {
            if skipped {
                JOBS_SKIPPED.incr();
            }
            (steps_done, resumed, Ok(verdict))
        }
        JobEnd::Failed { report, panicked } => {
            let failure = if panicked {
                JobFailure::Panicked(report.message)
            } else {
                JobFailure::Error(report.message)
            };
            (0, false, Err(failure))
        }
        JobEnd::Cancelled => unreachable!("batch never sets the cancel flag"),
    };
    JobOutcome {
        id: id.to_string(),
        steps_done,
        resumed,
        result,
    }
}

/// Removes aged orphan `.tmp` staging files (debris from crashed runs)
/// from the given directories, logging each removal through qobs.
pub(crate) fn sweep_tmp_debris(dirs: &[&Path]) {
    let min_age = std::time::Duration::from_secs(TMP_SWEEP_MIN_AGE_SECS);
    for dir in dirs {
        let Ok(removed) = persist::sweep_orphan_tmps(dir, min_age) else {
            continue;
        };
        for path in removed {
            TMPS_SWEPT.incr();
            qobs::event(
                "batch.tmp_swept",
                &[("path", qobs::AttrValue::from(path.display().to_string()))],
            );
        }
    }
}

/// The manifest both front ends write: one tab-separated
/// `id, status, tier, output` row per job, sorted by id, under a fixed
/// header.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    rows: BTreeMap<String, [String; 3]>,
}

impl Manifest {
    /// Parses an existing manifest (serve restarts must not forget
    /// earlier terminal states); empty if the file is missing.
    pub(crate) fn load(path: &Path) -> Self {
        let mut manifest = Manifest::default();
        let Ok(text) = std::fs::read_to_string(path) else {
            return manifest;
        };
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut parts = line.splitn(4, '\t');
            if let (Some(id), Some(status), Some(tier), Some(output)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            {
                manifest.set(id, status, tier, output);
            }
        }
        manifest
    }

    /// Replaces (or inserts) job `id`'s row; tabs and newlines in
    /// `output` become spaces so the row stays one line.
    pub(crate) fn set(&mut self, id: &str, status: &str, tier: &str, output: &str) {
        self.rows.insert(
            id.to_string(),
            [
                status.to_string(),
                tier.to_string(),
                output.replace(['\t', '\n'], " "),
            ],
        );
    }

    /// The row of a job that ran to a verdict.
    pub(crate) fn set_verdict(&mut self, id: &str, verdict: &JobVerdict) {
        let status = if verdict.equivalent {
            "equivalent"
        } else {
            "NOT-EQUIVALENT"
        };
        self.set(id, status, &verdict.tier, &format!("{id}.restored.qasm"));
    }

    /// Atomically and durably (tmp + sync + rename) replaces the
    /// manifest file.
    pub(crate) fn write(&self, path: &Path) -> Result<(), persist::PersistError> {
        let mut text = String::from(MANIFEST_HEADER);
        for (id, [status, tier, output]) in &self.rows {
            text.push_str(&format!("{id}\t{status}\t{tier}\t{output}\n"));
        }
        let _span = qobs::span("persist.write").attr("stage", "manifest");
        persist::write_atomic(path, text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{checkpoint_path, prev_checkpoint_path, save_checkpoint, JobState};

    fn inputs() -> Vec<(String, Circuit)> {
        let mut a = Circuit::with_name(4, "alpha");
        a.h(0).cx(0, 1).cx(1, 2).cx(0, 1).x(3).cx(3, 2);
        let mut b = Circuit::with_name(5, "beta");
        b.h(0).cx(0, 1).ccx(0, 1, 2).cx(2, 3).h(4).cx(3, 4);
        let mut c = Circuit::with_name(3, "gamma");
        c.x(0).cx(0, 1).ccx(0, 1, 2);
        vec![
            ("alpha".to_string(), a),
            ("beta".to_string(), b),
            ("gamma".to_string(), c),
        ]
    }

    fn config(tag: &str, workers: usize) -> BatchConfig {
        let base = std::env::temp_dir().join(format!("tlk_batch_{tag}_{}", std::process::id()));
        BatchConfig {
            jobs_dir: base.join("jobs"),
            out_dir: base.join("out"),
            workers,
            resume: false,
            job: JobConfig::default(),
        }
    }

    #[test]
    fn batch_completes_and_verifies() {
        let report = run_batch(inputs(), &config("basic", 2)).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.all_equivalent(), "{:?}", report.outcomes);
        assert!(report.manifest_path.exists());
    }

    #[test]
    fn outputs_identical_across_worker_counts() {
        let cfg1 = config("w1", 1);
        let cfg4 = config("w4", 4);
        run_batch(inputs(), &cfg1).unwrap();
        run_batch(inputs(), &cfg4).unwrap();
        for (id, _) in inputs() {
            let a = std::fs::read(cfg1.out_dir.join(format!("{id}.restored.qasm"))).unwrap();
            let b = std::fs::read(cfg4.out_dir.join(format!("{id}.restored.qasm"))).unwrap();
            assert_eq!(a, b, "job {id} diverged across worker counts");
        }
        let m1 = std::fs::read(cfg1.out_dir.join(MANIFEST_FILE)).unwrap();
        let m4 = std::fs::read(cfg4.out_dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(m1, m4, "manifest diverged across worker counts");
    }

    #[test]
    fn resume_skips_completed_jobs() {
        let mut cfg = config("skip", 2);
        let first = run_batch(inputs(), &cfg).unwrap();
        assert!(first.all_equivalent());
        cfg.resume = true;
        let second = run_batch(inputs(), &cfg).unwrap();
        assert!(second.all_equivalent());
        for o in &second.outcomes {
            assert!(o.resumed, "job {} should have resumed", o.id);
        }
    }

    #[test]
    fn resume_refuses_mismatched_config() {
        let mut cfg = config("mismatch", 1);
        run_batch(inputs(), &cfg).unwrap();
        cfg.resume = true;
        cfg.job.seed = 999;
        let report = run_batch(inputs(), &cfg).unwrap();
        assert_eq!(report.failed(), 3);
        for o in &report.outcomes {
            let failure = o.result.as_ref().unwrap_err();
            assert!(
                failure.message().contains("different job configuration"),
                "{failure}"
            );
        }
    }

    /// Serializes the tests that set [`crate::job::PANIC_JOB_ENV`], so
    /// one cannot clear the variable while another's job reads it.
    static PANIC_ENV: Mutex<()> = Mutex::new(());

    #[test]
    fn panicking_job_records_panicked_manifest_state() {
        // The hook matches by exact id, so a unique id keeps this safe
        // alongside the other (parallel) tests in this binary.
        let _env = PANIC_ENV.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(crate::job::PANIC_JOB_ENV, "panicky_zeta");
        let mut c = Circuit::with_name(3, "panicky");
        c.x(0).cx(0, 1);
        let report = run_batch(vec![("panicky_zeta".to_string(), c)], &config("panic", 1)).unwrap();
        std::env::remove_var(crate::job::PANIC_JOB_ENV);
        assert_eq!(report.failed(), 1);
        assert!(
            matches!(report.outcomes[0].result, Err(JobFailure::Panicked(_))),
            "{:?}",
            report.outcomes[0].result
        );
        let manifest = std::fs::read_to_string(&report.manifest_path).unwrap();
        assert!(
            manifest.contains("panicky_zeta\tPANICKED\t-\t"),
            "{manifest}"
        );
    }

    /// Restored circuits and manifest of a finished batch, by file name.
    fn outputs(cfg: &BatchConfig) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(&cfg.out_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_file())
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&p).unwrap())
            })
            .collect()
    }

    #[test]
    fn resume_finishes_a_mid_pipeline_checkpoint_byte_identically() {
        let reference = config("midref", 1);
        run_batch(inputs(), &reference).unwrap();
        // Older binaries checkpointed after every stage; resume must
        // still accept such a checkpoint and finish it.
        let mut cfg = config("mid", 1);
        std::fs::create_dir_all(&cfg.jobs_dir).unwrap();
        let (id, circuit) = inputs().remove(1);
        let mut state = JobState::new(id.as_str(), circuit, cfg.job.clone());
        while state.stage != JobStage::CompileRight {
            state.advance(&cfg.out_dir).unwrap();
        }
        save_checkpoint(&cfg.jobs_dir, &state).unwrap();
        cfg.resume = true;
        let report = run_batch(inputs(), &cfg).unwrap();
        assert!(report.all_equivalent(), "{:?}", report.outcomes);
        let beta = report.outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(beta.resumed);
        assert_eq!(beta.steps_done, JobStage::COUNT);
        assert_eq!(outputs(&cfg), outputs(&reference));
    }

    #[test]
    fn fresh_start_discards_a_stale_checkpoint() {
        let id = "stale_eta";
        let mut c = Circuit::with_name(4, "stale");
        c.h(0).cx(0, 1).ccx(0, 1, 2).x(3).cx(3, 2);
        let input = || vec![(id.to_string(), c.clone())];
        let mut cfg = config("stale", 1);
        run_batch(input(), &cfg).unwrap();
        assert!(checkpoint_path(&cfg.jobs_dir, id).exists());

        // A fresh run under another configuration fails in its first
        // stage, before any checkpoint of its own.
        cfg.job.seed = 7;
        let report = {
            let _env = PANIC_ENV.lock().unwrap_or_else(|e| e.into_inner());
            std::env::set_var(crate::job::PANIC_JOB_ENV, id);
            let report = run_batch(input(), &cfg);
            std::env::remove_var(crate::job::PANIC_JOB_ENV);
            report.unwrap()
        };
        assert_eq!(report.failed(), 1);
        assert!(!checkpoint_path(&cfg.jobs_dir, id).exists());
        assert!(!prev_checkpoint_path(&cfg.jobs_dir, id).exists());

        // So resuming under that configuration is not a mismatch.
        cfg.resume = true;
        let report = run_batch(input(), &cfg).unwrap();
        assert!(report.all_equivalent(), "{:?}", report.outcomes);
        let manifest = std::fs::read_to_string(&report.manifest_path).unwrap();
        assert!(manifest.contains("stale_eta\tequivalent\t"), "{manifest}");
    }

    #[test]
    fn resume_restarts_a_job_whose_input_changed() {
        let mut cfg = config("changed", 1);
        run_batch(inputs(), &cfg).unwrap();
        // Same id, different circuit: the old checkpoint must not win.
        let mut changed = Circuit::with_name(3, "gamma");
        changed.x(1).cx(1, 2).ccx(0, 1, 2).x(0).cx(2, 0);
        cfg.resume = true;
        let report = run_batch(vec![("gamma".to_string(), changed.clone())], &cfg).unwrap();
        assert!(report.all_equivalent(), "{:?}", report.outcomes);
        let text = std::fs::read_to_string(cfg.out_dir.join("gamma.restored.qasm")).unwrap();
        let restored = qcir::qasm::from_qasm(&text).unwrap();
        let n = restored.num_qubits().max(changed.num_qubits());
        assert_eq!(
            qverify::Verifier::new().check(&changed.widened(n), &restored.widened(n)),
            qverify::Verdict::Equivalent,
            "the restored output must be the new circuit's"
        );
        assert!(!report.outcomes[0].resumed, "a changed input starts fresh");
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut dup = inputs();
        let clone = dup[0].clone();
        dup.push(clone);
        assert!(run_batch(dup, &config("dup", 1)).is_err());
    }
}

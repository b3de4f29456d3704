//! Checkpointed, resumable protection jobs.
//!
//! A *job* runs the full TetrisLock pipeline for one input circuit:
//!
//! ```text
//! Obfuscate → Split → CompileLeft → CompileRight → Recombine → Verify → Emit → Done
//! ```
//!
//! Every stage transition is a pure function of the [`JobState`] — all
//! randomness flows from seeds stored in the [`JobConfig`] — so a job
//! killed at any instant and resumed from its last checkpoint produces
//! **bit-identical** output to an uninterrupted run. A job is
//! checkpointed only where that saves work: once `Verify` has set the
//! verdict (state at `Emit`) and at `Done`. The stages before verify
//! cost about as much as one fsynced write each, so a kill before a
//! job's verify checkpoint reruns them from the pinned seeds, and a kill
//! after it redoes at most the emit. Checkpoints are written through
//! [`qcir::persist`] (versioned, checksummed, atomic) with one level of
//! rotation: the previous checkpoint survives as `<id>.job.prev`, so a
//! `Done` checkpoint destroyed *after* being written (disk corruption,
//! manual truncation) only costs the emit. That is also why the `Done`
//! checkpoint alone is written without an fsync: a power loss that
//! empties it or undoes its rename costs the same one re-emit from the
//! fsynced `Emit` checkpoint. [`load_checkpoint`] accepts a checkpoint
//! at any stage, as older binaries wrote one per stage.
//!
//! `Driver::drive` owns one job's whole life: it acquires the state
//! (resumed checkpoint or fresh), loops `advance` until `Done`,
//! checkpointing after verify and emit, counts every failure as a
//! strike with backoff, checks a cancel flag between stages, and
//! returns a typed `JobEnd`. The batch runner ([`crate::batch`]) and
//! the serve daemon ([`crate::serve`]) are thin front ends over it:
//! each only schedules jobs and maps the end to its own manifest rows
//! and counters.

use crate::insertion::{Insertion, InsertionConfig};
use crate::interlock::SplitPair;
use crate::obfuscate::{Obfuscation, Obfuscator};
use crate::policy::GatePolicy;
use crate::recombine::{assign_ancillas, recombine_compiled};
use crate::retry::RetryPolicy;
use qcir::persist::{self, PersistError};
use qcir::{Circuit, Qubit};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

static CHECKPOINTS_WRITTEN: qobs::Counter = qobs::Counter::new("job.checkpoints_written");
static JOBS_RESUMED: qobs::Counter = qobs::Counter::new("job.resumed");
static CHECKPOINT_FALLBACKS: qobs::Counter = qobs::Counter::new("job.checkpoint_fallbacks");

/// Environment variable for deterministic fault injection: when set to
/// `N`, the process calls [`std::process::abort`] immediately after the
/// `N`-th successful checkpoint write (process-wide count). An abort is
/// indistinguishable from `kill -9` as far as the filesystem is
/// concerned — no destructors, no flushes — which is exactly what the
/// crash-safety test suite wants to simulate, deterministically.
pub const KILL_AFTER_CHECKPOINTS_ENV: &str = "TLK_BATCH_KILL_AFTER_CHECKPOINTS";

/// Environment variable for deterministic *panic* injection: when set
/// to a job id, every stage attempt the job driver makes for that job
/// panics before doing any work (the driver reads it once per job).
/// Unlike [`KILL_AFTER_CHECKPOINTS_ENV`] the process survives — this
/// exercises the catch-unwind paths (the batch `PANICKED` manifest
/// state, the serve crash-loop quarantine) rather than whole-process
/// crash recovery.
pub const PANIC_JOB_ENV: &str = "TLK_BATCH_PANIC_JOB";

/// Process-wide count of successful checkpoint writes (drives the
/// fault-injection hook).
static CHECKPOINT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Pipeline position of a job. Stages advance strictly left to right;
/// each arrow is one [`JobState::advance`] call. The job driver
/// checkpoints the state only on reaching `Emit` (after verify) and
/// `Done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStage {
    /// Run Algorithm 1 (random-pair insertion) on the original circuit.
    Obfuscate,
    /// Draw the interlocking pattern and split into two segments.
    Split,
    /// Compile the left segment for the target device.
    CompileLeft,
    /// Compile the right segment for the target device.
    CompileRight,
    /// Concatenate the compiled segments back onto one register.
    Recombine,
    /// Check the restored circuit against the original design.
    Verify,
    /// Write the restored circuit to the output directory.
    Emit,
    /// Terminal state; [`JobState::advance`] is a no-op here.
    Done,
}

impl JobStage {
    /// Stable lowercase name (used in spans, manifests, diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            JobStage::Obfuscate => "obfuscate",
            JobStage::Split => "split",
            JobStage::CompileLeft => "compile_left",
            JobStage::CompileRight => "compile_right",
            JobStage::Recombine => "recombine",
            JobStage::Verify => "verify",
            JobStage::Emit => "emit",
            JobStage::Done => "done",
        }
    }

    /// Number of `advance` calls a fresh job needs to reach `Done`.
    pub const COUNT: u64 = 7;
}

impl fmt::Display for JobStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-job pipeline parameters. Everything nondeterministic about a job
/// is pinned here, which is what makes checkpoints replayable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobConfig {
    /// Insertion RNG seed (Algorithm 1).
    pub seed: u64,
    /// Interlocking-pattern seed.
    pub split_seed: u64,
    /// Maximum total inserted gates (both halves).
    pub gate_limit: usize,
    /// Insertion gate policy.
    pub policy: GatePolicy,
    /// Target device spec for the untrusted compilers: `ideal`,
    /// `valencia`, or `linear:<n>`.
    pub device: String,
    /// Stimulus trials for the verification stage.
    pub trials: u64,
    /// Base seed for the verifier's stimulus tier.
    pub verify_seed: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            seed: 0,
            split_seed: 1,
            gate_limit: 4,
            policy: GatePolicy::XCx,
            device: "ideal".to_string(),
            trials: 16,
            verify_seed: 1,
        }
    }
}

/// A compiled segment in the logical frame, with the map from its wires
/// back to the original register (ancillas not yet assigned — that
/// happens deterministically at recombine time, when both segments'
/// ancilla demands are known).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledSegment {
    /// The compiled circuit (logical wire `i` of the segment stays wire
    /// `i`; compiler-introduced routing wires trail).
    pub circuit: Circuit,
    /// Segment wire → original wire, covering the segment's pre-compile
    /// register only.
    pub to_original: BTreeMap<Qubit, Qubit>,
    /// Swaps the compiler inserted (reporting only).
    pub swaps_inserted: usize,
}

/// Verification outcome recorded in the checkpoint and manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobVerdict {
    /// `true` iff the restored circuit matched the original design.
    pub equivalent: bool,
    /// Name of the deciding verification tier.
    pub tier: String,
}

/// The full persisted state of one job. This is what a checkpoint file
/// contains; every field is either input, configuration, or a stage
/// product.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobState {
    /// Job identifier — the benchmark/file stem; names the checkpoint
    /// and output files.
    pub id: String,
    /// Pinned pipeline parameters.
    pub config: JobConfig,
    /// Current pipeline position.
    pub stage: JobStage,
    /// Monotone count of completed stage transitions.
    pub steps_done: u64,
    /// The original (secret) circuit `C`.
    pub original: Circuit,
    /// Product of the obfuscate stage.
    pub insertion: Option<Insertion>,
    /// Product of the split stage.
    pub split: Option<SplitPair>,
    /// Product of the compile-left stage.
    pub compiled_left: Option<CompiledSegment>,
    /// Product of the compile-right stage.
    pub compiled_right: Option<CompiledSegment>,
    /// Product of the recombine stage.
    pub restored: Option<Circuit>,
    /// Product of the verify stage.
    pub verdict: Option<JobVerdict>,
}

/// Why a job could not advance or its checkpoint could not be used.
#[derive(Debug)]
pub enum JobError {
    /// Checkpoint persistence failed (both the checkpoint and its
    /// `.prev` fallback, when reading).
    Persist {
        /// The checkpoint being read or written.
        path: PathBuf,
        /// The underlying persistence failure.
        source: PersistError,
    },
    /// A pipeline stage failed.
    Stage {
        /// The job that failed.
        id: String,
        /// The stage that failed.
        stage: JobStage,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Persist { path, source } => {
                write!(f, "checkpoint {}: {source}", path.display())
            }
            JobError::Stage { id, stage, message } => {
                write!(f, "job {id}, stage {stage}: {message}")
            }
        }
    }
}

impl std::error::Error for JobError {}

impl JobState {
    /// Creates a fresh job at the [`JobStage::Obfuscate`] stage.
    pub fn new(id: impl Into<String>, original: Circuit, config: JobConfig) -> Self {
        JobState {
            id: id.into(),
            config,
            stage: JobStage::Obfuscate,
            steps_done: 0,
            original,
            insertion: None,
            split: None,
            compiled_left: None,
            compiled_right: None,
            restored: None,
            verdict: None,
        }
    }

    /// `true` once the job has emitted its output.
    pub fn is_done(&self) -> bool {
        self.stage == JobStage::Done
    }

    /// Path of the restored-circuit output file for this job.
    pub fn output_path(&self, out_dir: &Path) -> PathBuf {
        out_dir.join(format!("{}.restored.qasm", self.id))
    }

    /// Runs exactly one stage transition. Idempotent per stage:
    /// re-running `advance` from an earlier state (a checkpoint, or a
    /// fresh start) recomputes the same products bit for bit.
    ///
    /// # Errors
    ///
    /// [`JobError::Stage`] if the stage's computation fails (compile
    /// error, recombination mismatch, unwritable output, ...).
    pub fn advance(&mut self, out_dir: &Path) -> Result<(), JobError> {
        let _span = qobs::span("job.stage")
            .attr("job", self.id.as_str())
            .attr("stage", self.stage.name())
            .attr("step", self.steps_done);
        match self.stage {
            JobStage::Obfuscate => {
                let obf = Obfuscator::new()
                    .with_config(InsertionConfig {
                        seed: self.config.seed,
                        gate_limit: self.config.gate_limit,
                        policy: self.config.policy,
                    })
                    .obfuscate(&self.original);
                self.insertion = Some(obf.insertion().clone());
                self.stage = JobStage::Split;
            }
            JobStage::Split => {
                let insertion = self.require_insertion()?.clone();
                let obf =
                    Obfuscation::from_parts(self.original.clone(), insertion, self.config.seed);
                self.split = Some(obf.split(self.config.split_seed));
                self.stage = JobStage::CompileLeft;
            }
            JobStage::CompileLeft => {
                let compiled = self.compile_segment(&self.require_split()?.left)?;
                self.compiled_left = Some(compiled);
                self.stage = JobStage::CompileRight;
            }
            JobStage::CompileRight => {
                let compiled = self.compile_segment(&self.require_split()?.right)?;
                self.compiled_right = Some(compiled);
                self.stage = JobStage::Recombine;
            }
            JobStage::Recombine => {
                self.restored = Some(self.recombine_stage()?);
                self.stage = JobStage::Verify;
            }
            JobStage::Verify => {
                self.verdict = Some(self.verify_stage()?);
                self.stage = JobStage::Emit;
            }
            JobStage::Emit => {
                self.emit_stage(out_dir)?;
                self.stage = JobStage::Done;
            }
            JobStage::Done => return Ok(()),
        }
        self.steps_done += 1;
        Ok(())
    }

    fn stage_err(&self, message: impl Into<String>) -> JobError {
        JobError::Stage {
            id: self.id.clone(),
            stage: self.stage,
            message: message.into(),
        }
    }

    fn require_insertion(&self) -> Result<&Insertion, JobError> {
        self.insertion
            .as_ref()
            .ok_or_else(|| self.stage_err("missing obfuscation product (corrupt stage order)"))
    }

    fn require_split(&self) -> Result<&SplitPair, JobError> {
        self.split
            .as_ref()
            .ok_or_else(|| self.stage_err("missing split product (corrupt stage order)"))
    }

    /// Compiles one segment with the untrusted-compiler model and keeps
    /// its wire map back to the original register. The compiled circuit
    /// is in the logical frame: segment wire `i` stays wire `i`,
    /// routing ancillas trail.
    fn compile_segment(
        &self,
        segment: &crate::interlock::Segment,
    ) -> Result<CompiledSegment, JobError> {
        let device = device_for(&self.config.device, segment.circuit.num_qubits())
            .map_err(|e| self.stage_err(e))?;
        let result = qcompile::Transpiler::new(device)
            .transpile(&segment.circuit)
            .map_err(|e| self.stage_err(e.to_string()))?;
        let swaps = result.swaps_inserted;
        Ok(CompiledSegment {
            circuit: result.into_logical_circuit(),
            to_original: segment.inverse_map(),
            swaps_inserted: swaps,
        })
    }

    /// Concatenates the compiled segments on the original register,
    /// assigning compiler ancillas fresh wires deterministically (left
    /// segment's ancillas first, then right's).
    fn recombine_stage(&self) -> Result<Circuit, JobError> {
        let register = self.require_split()?.original_qubits;
        let left = self
            .compiled_left
            .as_ref()
            .ok_or_else(|| self.stage_err("missing compiled left segment"))?;
        let right = self
            .compiled_right
            .as_ref()
            .ok_or_else(|| self.stage_err("missing compiled right segment"))?;
        let mut segments = [
            (&left.circuit, left.to_original.clone()),
            (&right.circuit, right.to_original.clone()),
        ];
        let total = assign_ancillas(register, &mut segments);
        recombine_compiled(total, &segments).map_err(|e| self.stage_err(e.to_string()))
    }

    /// Checks the restored circuit against the original design with the
    /// tiered verifier, widening the smaller register with identity
    /// wires (compiler ancillas must act as identity). A circuit that
    /// already spans the register is checked as it is.
    fn verify_stage(&self) -> Result<JobVerdict, JobError> {
        let restored = self
            .restored
            .as_ref()
            .ok_or_else(|| self.stage_err("missing restored circuit"))?;
        let n = self.original.num_qubits().max(restored.num_qubits());
        let verifier = qverify::Verifier::new()
            .with_trials(self.config.trials)
            .with_seed(self.config.verify_seed);
        let report = verifier.check_report(&self.original.widened(n), &restored.widened(n));
        match report.verdict {
            qverify::Verdict::Equivalent => Ok(JobVerdict {
                equivalent: true,
                tier: report.tier.to_string(),
            }),
            qverify::Verdict::Inequivalent { .. } => Ok(JobVerdict {
                equivalent: false,
                tier: report.tier.to_string(),
            }),
            qverify::Verdict::Inconclusive { .. } => {
                Err(self.stage_err("verification inconclusive (register beyond every tier)"))
            }
        }
    }

    /// Writes the restored circuit atomically and durably (tmp + sync +
    /// rename, like the `Emit` checkpoint), so neither a crash mid-emit
    /// nor a power loss after the `Done` checkpoint leaves a torn
    /// output. The `Done` checkpoint that follows is not synced: if a
    /// power loss takes it, resume re-emits these bytes from `Emit`.
    fn emit_stage(&self, out_dir: &Path) -> Result<(), JobError> {
        let restored = self
            .restored
            .as_ref()
            .ok_or_else(|| self.stage_err("missing restored circuit"))?;
        let path = self.output_path(out_dir);
        let text = qcir::qasm::to_qasm(restored);
        let _span = qobs::span("persist.write").attr("stage", "output");
        persist::write_atomic(&path, text.as_bytes())
            .map_err(|e| self.stage_err(format!("cannot write {}: {e}", path.display())))
    }
}

/// Resolves a device spec string (`ideal`, `valencia`, `linear:<n>`)
/// for a circuit of `n` qubits. `valencia` is the 5-qubit FakeValencia
/// model when the circuit fits, otherwise the widened FakeValencia-style
/// device (see DESIGN.md §2 on this substitution).
///
/// # Errors
///
/// Returns a message for unknown specs or malformed sizes.
pub fn device_for(spec: &str, n: u32) -> Result<qsim::Device, String> {
    match spec {
        "ideal" => Ok(qsim::Device::ideal(n.max(2))),
        "valencia" => Ok(if n <= 5 {
            qsim::Device::fake_valencia()
        } else {
            qsim::Device::fake_valencia_extended(n)
        }),
        other => {
            if let Some(size) = other.strip_prefix("linear:") {
                let size: u32 = size
                    .parse()
                    .map_err(|_| format!("bad linear device size `{size}`"))?;
                if size < n {
                    return Err(format!(
                        "linear:{size} is smaller than the {n}-wire segment"
                    ));
                }
                Ok(qsim::Device::linear(size, qsim::noise::NoiseModel::ideal()))
            } else {
                Err(format!(
                    "unknown device `{other}` (expected ideal, valencia, or linear:<n>)"
                ))
            }
        }
    }
}

/// Checkpoint file for job `id` inside `jobs_dir`.
pub fn checkpoint_path(jobs_dir: &Path, id: &str) -> PathBuf {
    jobs_dir.join(format!("{id}.job"))
}

/// Rotated previous checkpoint for job `id`.
pub fn prev_checkpoint_path(jobs_dir: &Path, id: &str) -> PathBuf {
    jobs_dir.join(format!("{id}.job.prev"))
}

/// Writes `state` as the job's checkpoint, rotating the existing
/// checkpoint to `.prev` first. After this returns, the job directory
/// holds at least one complete, loadable checkpoint at all times — the
/// write itself is atomic (tmp + rename), and the rotation keeps the
/// previous generation as a fallback against post-write corruption.
/// Every checkpoint is fsynced except a `Done` one, whose loss to a
/// power cut the `.prev` fallback turns into one re-emit.
///
/// When [`KILL_AFTER_CHECKPOINTS_ENV`] is set, aborts the process after
/// the configured number of successful writes (fault injection).
///
/// # Errors
///
/// [`JobError::Persist`] if rotation or the write fails.
pub fn save_checkpoint(jobs_dir: &Path, state: &JobState) -> Result<(), JobError> {
    let _span = qobs::span("persist.write").attr("stage", state.stage.name());
    let path = checkpoint_path(jobs_dir, &state.id);
    let prev = prev_checkpoint_path(jobs_dir, &state.id);
    if path.exists() {
        std::fs::rename(&path, &prev).map_err(|source| JobError::Persist {
            path: path.clone(),
            source: PersistError::Io {
                path: prev.clone(),
                source,
            },
        })?;
    }
    let saved = if state.stage == JobStage::Done {
        // Not fsynced: a power loss can lose an unsynced `Done`, either
        // as an empty file (delayed allocation) or with its rename not
        // yet committed. Either way `load_checkpoint` falls back to
        // `.prev`, the fsynced `Emit` checkpoint, and the resumed job
        // re-emits the same bytes. A killed process keeps the page
        // cache, so after `kill -9` the `Done` checkpoint is intact.
        persist::save_unsynced(&path, state)
    } else {
        persist::save(&path, state)
    };
    saved.map_err(|source| JobError::Persist {
        path: path.clone(),
        source,
    })?;
    CHECKPOINTS_WRITTEN.incr();
    fault_injection_tick();
    Ok(())
}

/// Removes job `id`'s checkpoint and its `.prev` generation, if any.
/// Plain unlinks: a fresh start recomputes everything they held.
fn discard_checkpoints(jobs_dir: &Path, id: &str) {
    for path in [
        checkpoint_path(jobs_dir, id),
        prev_checkpoint_path(jobs_dir, id),
    ] {
        let _ = std::fs::remove_file(path);
    }
}

/// Loads a job's checkpoint, falling back to the rotated `.prev`
/// generation if the current file is corrupt or unreadable.
///
/// Returns `Ok(None)` if neither file exists (fresh job).
///
/// # Errors
///
/// [`JobError::Persist`] carrying the *current* checkpoint's error when
/// both generations fail to load — the primary failure is the
/// diagnostic that matters.
pub fn load_checkpoint(jobs_dir: &Path, id: &str) -> Result<Option<JobState>, JobError> {
    let path = checkpoint_path(jobs_dir, id);
    let prev = prev_checkpoint_path(jobs_dir, id);
    if !path.exists() && !prev.exists() {
        return Ok(None);
    }
    let primary = persist::load::<JobState>(&path);
    match primary {
        Ok(state) => {
            JOBS_RESUMED.incr();
            Ok(Some(state))
        }
        Err(primary_err) => {
            if prev.exists() {
                if let Ok(state) = persist::load::<JobState>(&prev) {
                    CHECKPOINT_FALLBACKS.incr();
                    JOBS_RESUMED.incr();
                    qobs::event(
                        "job.checkpoint_fallback",
                        &[("job", qobs::AttrValue::from(id))],
                    );
                    return Ok(Some(state));
                }
            }
            Err(JobError::Persist {
                path,
                source: primary_err,
            })
        }
    }
}

/// Counts a checkpoint write and aborts if the fault-injection budget
/// (set via [`KILL_AFTER_CHECKPOINTS_ENV`]) is exhausted.
fn fault_injection_tick() {
    let seq = CHECKPOINT_SEQ.fetch_add(1, Ordering::SeqCst) + 1;
    if let Ok(raw) = std::env::var(KILL_AFTER_CHECKPOINTS_ENV) {
        if let Ok(limit) = raw.parse::<u64>() {
            if seq >= limit {
                // As close to `kill -9` as a process can do to itself:
                // no destructors, no flushing, no atexit handlers.
                std::process::abort();
            }
        }
    }
}

/// Failure taxonomy recorded in a [`FailureReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The input file did not parse; quarantined at intake.
    Poisoned,
    /// The strike budget was spent on repeated stage failures/panics.
    CrashLoop,
    /// The strike budget was spent and the final strike was a
    /// wall-clock stage timeout.
    Timeout,
    /// An existing checkpoint was written under a different job
    /// configuration; refusing to silently recompute.
    ConfigMismatch,
}

impl FailureKind {
    /// Stable lowercase name (used in reports and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Poisoned => "poisoned",
            FailureKind::CrashLoop => "crash_loop",
            FailureKind::Timeout => "timeout",
            FailureKind::ConfigMismatch => "config_mismatch",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One failed stage attempt (a strike) inside a [`FailureReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// The stage that failed.
    pub stage: String,
    /// What went wrong (error text, panic message, or "timed out").
    pub message: String,
    /// Backoff slept after this attempt, in milliseconds.
    pub backoff_ms: u64,
}

/// Why a job failed: the typed record serve serializes (via
/// [`qcir::persist`]) to `failed/<id>.failure` when it quarantines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureReport {
    /// The failed job.
    pub id: String,
    /// Why it failed.
    pub kind: FailureKind,
    /// The final (deciding) failure message.
    pub message: String,
    /// Every failed attempt, in order.
    pub attempts: Vec<AttemptRecord>,
}

/// How [`Driver::drive`] ended a job.
#[derive(Debug)]
pub(crate) enum JobEnd {
    /// The job verified and its output is in place.
    Done {
        /// The verification verdict.
        verdict: JobVerdict,
        /// Stage transitions over the job's whole lifetime (across
        /// resumes).
        steps_done: u64,
        /// `true` if the job started from a checkpoint.
        resumed: bool,
        /// `true` if that checkpoint was already `Done` with its output
        /// in place, so no stage ran.
        skipped: bool,
    },
    /// The strike budget is spent, or the checkpoint's configuration
    /// differs from the job's.
    Failed {
        /// Kind, deciding message and every strike.
        report: FailureReport,
        /// `true` if the deciding strike was a panic.
        panicked: bool,
    },
    /// The cancel flag was set between stages.
    Cancelled,
}

/// How one job is driven: where it lives, whether it resumes, and how
/// its failures are retried.
pub(crate) struct Driver<'a> {
    /// Checkpoint directory.
    pub jobs_dir: &'a Path,
    /// Directory the restored circuit is emitted into.
    pub out_dir: &'a Path,
    /// Start from a usable checkpoint instead of fresh.
    pub resume: bool,
    /// Strike budget and the backoff between strikes.
    pub retry: &'a RetryPolicy,
    /// Wall-clock budget per stage. `None` runs each stage inline on
    /// the calling thread; `Some` runs it on a detached attempt thread
    /// that is abandoned once the budget passes.
    pub stage_timeout: Option<Duration>,
    /// Checked between stages; once set, the job ends
    /// [`JobEnd::Cancelled`].
    pub cancel: &'a AtomicBool,
    /// Called after each strike is recorded, before its backoff sleep,
    /// with the strike count so far.
    pub on_strike: &'a dyn Fn(&AttemptRecord, u32),
}

/// One failed stage attempt, before it becomes an [`AttemptRecord`].
enum Strike {
    Error(String),
    Panic(String),
    Timeout(Duration),
}

impl Driver<'_> {
    /// Runs job `id` on `circuit` to its end.
    ///
    /// With `resume`, a loadable checkpoint (current or `.prev`) written
    /// for the same circuit continues where it stopped; one written
    /// under a different [`JobConfig`] ends the job
    /// [`FailureKind::ConfigMismatch`]. Otherwise the job starts fresh,
    /// first removing any checkpoint an earlier run left for `id`. A
    /// `Done` checkpoint whose output is missing goes back to `Emit`.
    ///
    /// Stages run in memory. The state is checkpointed only after
    /// `Verify` (at `Emit`, verdict set) and after `Emit` (at `Done`):
    /// the stages before verify are recomputed from the pinned seeds
    /// for about what writing them would cost.
    ///
    /// Every stage error, panic, failed checkpoint write or timeout is a
    /// strike: it backs off by [`RetryPolicy::delay_ms`] and reloads the
    /// last checkpoint (or starts fresh when there is none), and the job
    /// fails once the strikes reach `max_strikes`.
    pub(crate) fn drive(&self, id: &str, circuit: Circuit, config: &JobConfig) -> JobEnd {
        let inject_panic = std::env::var(PANIC_JOB_ENV).as_deref() == Ok(id);
        let loaded = if self.resume {
            self.usable_checkpoint(id, &circuit, config)
        } else {
            Ok(None)
        };
        let loaded = match loaded {
            Ok(loaded) => loaded,
            Err(report) => {
                return JobEnd::Failed {
                    report,
                    panicked: false,
                }
            }
        };
        let resumed = loaded.is_some();
        let skipped = loaded.as_ref().is_some_and(JobState::is_done);
        let start = |loaded: Option<JobState>| {
            loaded.unwrap_or_else(|| {
                discard_checkpoints(self.jobs_dir, id);
                JobState::new(id, circuit.clone(), config.clone())
            })
        };
        let mut state = start(loaded);
        let jitter_seed = persist::fnv1a64(id.as_bytes()) ^ config.seed;
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        loop {
            if self.cancel.load(Ordering::SeqCst) {
                return JobEnd::Cancelled;
            }
            // A `Done` state here is on disk: loaded, or just saved.
            if let (true, Some(verdict)) = (state.is_done(), &state.verdict) {
                return JobEnd::Done {
                    verdict: verdict.clone(),
                    steps_done: state.steps_done,
                    resumed,
                    skipped,
                };
            }
            let stage = state.stage;
            let attempt = self.attempt(&mut state, inject_panic).and_then(|()| {
                if matches!(stage, JobStage::Verify | JobStage::Emit) {
                    save_checkpoint(self.jobs_dir, &state).map_err(|e| Strike::Error(e.to_string()))
                } else {
                    Ok(())
                }
            });
            let (message, kind, panicked) = match attempt {
                Ok(()) => continue,
                Err(Strike::Error(m)) => (m, FailureKind::CrashLoop, false),
                Err(Strike::Panic(m)) => (m, FailureKind::CrashLoop, true),
                Err(Strike::Timeout(budget)) => (
                    format!("stage exceeded {} ms wall clock", budget.as_millis()),
                    FailureKind::Timeout,
                    false,
                ),
            };
            let last = attempts.len() + 1 >= self.retry.max_strikes.max(1) as usize;
            let backoff_ms = if last {
                0
            } else {
                self.retry.delay_ms(jitter_seed, attempts.len() as u32)
            };
            attempts.push(AttemptRecord {
                stage: stage.name().to_string(),
                message: message.clone(),
                backoff_ms,
            });
            (self.on_strike)(&attempts[attempts.len() - 1], attempts.len() as u32);
            if last {
                let report = FailureReport {
                    id: id.to_string(),
                    kind,
                    message,
                    attempts,
                };
                return JobEnd::Failed { report, panicked };
            }
            std::thread::sleep(Duration::from_millis(backoff_ms));
            state = start(self.usable_checkpoint(id, &circuit, config).unwrap_or(None));
        }
    }

    /// The job's checkpoint if it can continue this input: loadable and
    /// written for the same circuit. A `Done` checkpoint whose output is
    /// missing goes back to `Emit`; one without a verdict is unusable. A
    /// checkpoint under a different configuration is an error.
    fn usable_checkpoint(
        &self,
        id: &str,
        circuit: &Circuit,
        config: &JobConfig,
    ) -> Result<Option<JobState>, FailureReport> {
        let Ok(Some(mut state)) = load_checkpoint(self.jobs_dir, id) else {
            return Ok(None);
        };
        if state.config != *config {
            return Err(FailureReport {
                id: id.to_string(),
                kind: FailureKind::ConfigMismatch,
                message: format!(
                    "checkpoint {} was written under a different job configuration",
                    checkpoint_path(self.jobs_dir, id).display()
                ),
                attempts: Vec::new(),
            });
        }
        if state.original != *circuit || (state.is_done() && state.verdict.is_none()) {
            return Ok(None);
        }
        if state.is_done() && !state.output_path(self.out_dir).exists() {
            state.stage = JobStage::Emit;
        }
        Ok(Some(state))
    }

    /// Runs one stage transition, inline or on a detached thread under
    /// the wall-clock budget. On timeout the thread is abandoned: its
    /// eventual result is discarded (the channel send fails) and any
    /// late output write is an atomic rename of identical bytes.
    fn attempt(&self, state: &mut JobState, inject_panic: bool) -> Result<(), Strike> {
        let Some(budget) = self.stage_timeout else {
            return advance_caught(state, self.out_dir, inject_panic);
        };
        let (tx, rx) = mpsc::channel();
        let mut moved = state.clone();
        let out_dir = self.out_dir.to_path_buf();
        std::thread::spawn(move || {
            let result = advance_caught(&mut moved, &out_dir, inject_panic).map(|()| moved);
            let _ = tx.send(result);
        });
        match rx.recv_timeout(budget) {
            Ok(result) => result.map(|next| *state = next),
            Err(RecvTimeoutError::Timeout) => Err(Strike::Timeout(budget)),
            Err(RecvTimeoutError::Disconnected) => {
                Err(Strike::Panic("attempt thread vanished".to_string()))
            }
        }
    }
}

/// One [`JobState::advance`] with its panic caught.
fn advance_caught(state: &mut JobState, out_dir: &Path, inject_panic: bool) -> Result<(), Strike> {
    catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!(
                "injected panic for job {} ({} test hook)",
                state.id, PANIC_JOB_ENV
            );
        }
        state.advance(out_dir)
    }))
    .map_err(|payload| Strike::Panic(panic_message(payload.as_ref())))?
    .map_err(|e| Strike::Error(e.to_string()))
}

/// Renders a panic payload (normally a `&str` or `String`) to text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::with_name(5, "jobtest");
        c.h(0).cx(0, 1).ccx(0, 1, 2).cx(2, 3).h(4).cx(3, 4);
        c
    }

    fn tmp_dirs(tag: &str) -> (PathBuf, PathBuf) {
        let base = std::env::temp_dir().join(format!("tlk_job_{tag}_{}", std::process::id()));
        let jobs = base.join("jobs");
        let out = base.join("out");
        std::fs::create_dir_all(&jobs).unwrap();
        std::fs::create_dir_all(&out).unwrap();
        (jobs, out)
    }

    #[test]
    fn pipeline_runs_to_done() {
        let (_jobs, out) = tmp_dirs("run");
        let mut job = JobState::new("demo", sample(), JobConfig::default());
        let mut steps = 0;
        while !job.is_done() {
            job.advance(&out).unwrap();
            steps += 1;
            assert!(steps <= JobStage::COUNT, "pipeline did not terminate");
        }
        assert_eq!(steps, JobStage::COUNT);
        assert!(job.verdict.as_ref().unwrap().equivalent);
        assert!(job.output_path(&out).exists());
    }

    #[test]
    fn resume_from_every_stage_is_bit_identical() {
        let (jobs, out) = tmp_dirs("resume");
        // Uninterrupted reference run.
        let mut reference = JobState::new("ref", sample(), JobConfig::default());
        while !reference.is_done() {
            reference.advance(&out).unwrap();
        }
        let want = std::fs::read(reference.output_path(&out)).unwrap();

        // For each prefix length k: run k stages, checkpoint, reload,
        // finish from the reloaded state, compare outputs byte for byte.
        for k in 0..JobStage::COUNT {
            let id = format!("cut{k}");
            let mut job = JobState::new(id.clone(), sample(), JobConfig::default());
            // Same id in the output file name ruins byte comparison; emit
            // under the reference id by renaming afterwards instead.
            for _ in 0..k {
                job.advance(&out).unwrap();
            }
            save_checkpoint(&jobs, &job).unwrap();
            let mut resumed = load_checkpoint(&jobs, &id).unwrap().expect("saved above");
            assert_eq!(resumed.steps_done, k);
            while !resumed.is_done() {
                resumed.advance(&out).unwrap();
            }
            let got = std::fs::read(resumed.output_path(&out)).unwrap();
            // Outputs embed the circuit name (not the job id), so the
            // bytes must match the reference exactly.
            assert_eq!(got, want, "resume after {k} stages diverged");
        }
    }

    #[test]
    fn checkpoint_rotation_keeps_previous_generation() {
        let (jobs, out) = tmp_dirs("rotate");
        let mut job = JobState::new("rot", sample(), JobConfig::default());
        save_checkpoint(&jobs, &job).unwrap();
        job.advance(&out).unwrap();
        save_checkpoint(&jobs, &job).unwrap();
        // Destroy the current checkpoint; resume must fall back.
        std::fs::write(checkpoint_path(&jobs, "rot"), b"garbage").unwrap();
        let resumed = load_checkpoint(&jobs, "rot").unwrap().unwrap();
        assert_eq!(
            resumed.steps_done, 0,
            "fallback should be the previous generation"
        );
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let (jobs, _out) = tmp_dirs("none");
        assert!(load_checkpoint(&jobs, "ghost").unwrap().is_none());
    }

    #[test]
    fn corrupt_both_generations_is_clean_error() {
        let (jobs, _out) = tmp_dirs("corrupt");
        std::fs::write(checkpoint_path(&jobs, "bad"), b"xx").unwrap();
        std::fs::write(prev_checkpoint_path(&jobs, "bad"), b"yy").unwrap();
        match load_checkpoint(&jobs, "bad") {
            Err(JobError::Persist { .. }) => {}
            other => panic!("expected Persist error, got {other:?}"),
        }
    }

    fn driver<'a>(jobs: &'a Path, out: &'a Path, retry: &'a RetryPolicy) -> Driver<'a> {
        Driver {
            jobs_dir: jobs,
            out_dir: out,
            resume: false,
            retry,
            stage_timeout: None,
            cancel: &NEVER_CANCELLED,
            on_strike: &|_, _| {},
        }
    }

    static NEVER_CANCELLED: AtomicBool = AtomicBool::new(false);

    #[test]
    fn driver_checkpoints_only_after_verify_and_at_done() {
        let (jobs, out) = tmp_dirs("two_writes");
        let retry = RetryPolicy::default();
        let end = driver(&jobs, &out, &retry).drive("two", sample(), &JobConfig::default());
        assert!(matches!(end, JobEnd::Done { steps_done: 7, .. }), "{end:?}");
        // Rotation keeps the last two writes: the verify checkpoint and
        // the `Done` one.
        let prev = persist::load::<JobState>(&prev_checkpoint_path(&jobs, "two")).unwrap();
        assert_eq!(prev.stage, JobStage::Emit);
        assert_eq!(prev.steps_done, 6);
        assert!(prev.verdict.as_ref().is_some_and(|v| v.equivalent));
        let done = persist::load::<JobState>(&checkpoint_path(&jobs, "two")).unwrap();
        assert_eq!(done.stage, JobStage::Done);
        assert_eq!(done.verdict, prev.verdict);

        // A job that fails before verify leaves no checkpoint at all.
        let config = JobConfig {
            device: "linear:1".to_string(),
            ..JobConfig::default()
        };
        let retry = RetryPolicy {
            max_strikes: 1,
            ..RetryPolicy::default()
        };
        let end = driver(&jobs, &out, &retry).drive("early", sample(), &config);
        assert!(matches!(end, JobEnd::Failed { .. }), "{end:?}");
        assert!(load_checkpoint(&jobs, "early").unwrap().is_none());
    }

    #[test]
    fn driver_fails_after_exactly_max_strikes() {
        let (jobs, out) = tmp_dirs("strikes");
        // A device too small for either segment fails CompileLeft on
        // every attempt.
        let config = JobConfig {
            device: "linear:1".to_string(),
            ..JobConfig::default()
        };
        for n in 1..=4u32 {
            let seen = std::sync::Mutex::new(Vec::new());
            let end = Driver {
                jobs_dir: &jobs,
                out_dir: &out,
                resume: false,
                retry: &RetryPolicy {
                    max_strikes: n,
                    base_delay_ms: 1,
                    max_delay_ms: 2,
                },
                stage_timeout: None,
                cancel: &AtomicBool::new(false),
                on_strike: &|_, strikes| seen.lock().unwrap().push(strikes),
            }
            .drive(&format!("strike{n}"), sample(), &config);
            let JobEnd::Failed { report, .. } = end else {
                panic!("expected a failure, got {end:?}");
            };
            assert_eq!(report.kind, FailureKind::CrashLoop);
            assert_eq!(report.attempts.len(), n as usize, "{report:?}");
            assert!(report.attempts.iter().all(|a| a.stage == "compile_left"));
            assert_eq!(report.attempts.last().unwrap().backoff_ms, 0);
            assert_eq!(*seen.lock().unwrap(), (1..=n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn driver_stops_at_the_cancel_flag() {
        let (jobs, out) = tmp_dirs("cancel");
        let end = Driver {
            jobs_dir: &jobs,
            out_dir: &out,
            resume: false,
            retry: &RetryPolicy::default(),
            stage_timeout: None,
            cancel: &AtomicBool::new(true),
            on_strike: &|_, _| {},
        }
        .drive("cancelled", sample(), &JobConfig::default());
        assert!(matches!(end, JobEnd::Cancelled), "{end:?}");
        assert!(load_checkpoint(&jobs, "cancelled").unwrap().is_none());
    }

    #[test]
    fn device_specs_resolve() {
        assert!(device_for("ideal", 4).is_ok());
        let valencia = |n| device_for("valencia", n).unwrap().name().to_string();
        assert_eq!(valencia(4), "fake_valencia");
        assert_eq!(valencia(5), "fake_valencia");
        assert!(valencia(7).contains("ext7"));
        assert!(valencia(9).contains("ext9"));
        assert!(valencia(12).contains("ext12"));
        assert!(device_for("linear:6", 4).is_ok());
        assert!(device_for("linear:2", 4).is_err());
        assert!(device_for("quantum9000", 4).is_err());
    }
}

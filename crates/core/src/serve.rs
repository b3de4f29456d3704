//! `tetrislock serve` — the long-running, self-healing protection
//! daemon.
//!
//! [`run_serve`] watches an intake directory for circuit files
//! (`.real` / `.qasm`), admits them into a priority queue, and drives
//! each through the checkpointed [`crate::job`] pipeline on a worker
//! pool. Unlike [`crate::batch`], which runs a fixed set of inputs to
//! completion, serve is built to survive a hostile environment
//! indefinitely:
//!
//! - **Stability window** — a file is only admitted once its length and
//!   mtime have been unchanged for `stability_ms`, so half-written
//!   inputs from slow producers are never picked up.
//! - **Retry with backoff** — every stage attempt runs under a
//!   wall-clock timeout; failures (stage errors, panics, timeouts) cost
//!   a strike and are retried after a deterministic seeded backoff
//!   ([`crate::retry::RetryPolicy`]). The per-job loop is the shared
//!   `job::Driver`; this module only schedules jobs and maps
//!   their ends to manifest rows, counters and quarantine.
//! - **Crash-loop quarantine** — once a job has spent its strike budget
//!   (N failed attempts in total), it is moved to `failed/` with a
//!   typed, serialized [`FailureReport`] instead of wedging the queue.
//!   Inputs that do not even parse are quarantined at intake as
//!   [`FailureKind::Poisoned`].
//! - **Priorities and cancellation** — an input named `p<k>--<id>.real`
//!   runs at priority `k` (lower runs first, FIFO within a priority);
//!   dropping `<id>.cancel` into the watch directory cancels the job
//!   whether it is queued or in flight.
//! - **Graceful drain** — dropping a file named
//!   [`SHUTDOWN_SENTINEL`] stops admission, lets in-flight jobs finish,
//!   writes a final manifest and status, and returns. A `kill -9` at
//!   any instant instead resumes through the job checkpoints on the
//!   next start: a job killed before its verify checkpoint reruns its
//!   cheap stages from the pinned seeds, and one killed after it
//!   redoes at most the emit. Inputs stay in the watch directory until
//!   their job reaches a terminal state, so nothing is ever lost or
//!   duplicated.
//! - **Observable health** — every poll emits a `serve.heartbeat`
//!   qobs event and atomically rewrites `status.json` (one flat JSON
//!   object; see `docs/observability.md`), rendered by
//!   `tetrislock report --serve`.
//!
//! The idle loop sleeps `poll_ms` between directory scans — idle CPU is
//! polling-bounded by construction, never a busy-spin.

use crate::batch::{self, Manifest};
pub use crate::job::{AttemptRecord, FailureKind, FailureReport};
use crate::job::{Driver, JobConfig, JobEnd};
use crate::retry::RetryPolicy;
use qcir::{persist, Circuit};
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime};

static SERVE_ADMITTED: qobs::Counter = qobs::Counter::new("serve.admitted");
static SERVE_COMPLETED: qobs::Counter = qobs::Counter::new("serve.completed");
static SERVE_QUARANTINED: qobs::Counter = qobs::Counter::new("serve.quarantined");
static SERVE_CANCELLED: qobs::Counter = qobs::Counter::new("serve.cancelled");
static SERVE_RETRIES: qobs::Counter = qobs::Counter::new("serve.retries");

/// File name that, when dropped into the watch directory, triggers a
/// graceful drain: stop admitting, finish in-flight jobs, write the
/// final manifest and status, exit cleanly.
pub const SHUTDOWN_SENTINEL: &str = "shutdown";

/// Suffix of a cancellation sentinel: dropping `<id>.cancel` into the
/// watch directory cancels job `<id>` (queued or in flight).
pub const CANCEL_SUFFIX: &str = ".cancel";

/// Name of the atomically-rewritten health file in the output
/// directory (one flat JSON object per the schema in
/// `docs/observability.md`).
pub const STATUS_FILE: &str = "status.json";

/// Subdirectory of the watch directory holding consumed inputs.
pub const DONE_DIR: &str = "done";

/// Subdirectory of the watch directory holding quarantined inputs and
/// their serialized [`FailureReport`]s.
pub const FAILED_DIR: &str = "failed";

/// Subdirectory of the watch directory holding cancelled inputs.
pub const CANCELLED_DIR: &str = "cancelled";

/// Default worker thread count.
pub const DEFAULT_WORKERS: usize = 2;

/// Default intake poll interval in milliseconds (idle CPU bound).
pub const DEFAULT_POLL_MS: u64 = 100;

/// Default stability window in milliseconds: an input is admitted only
/// after its length and mtime have been unchanged this long.
pub const DEFAULT_STABILITY_MS: u64 = 300;

/// Default per-stage wall-clock timeout in milliseconds.
pub const DEFAULT_STAGE_TIMEOUT_MS: u64 = 120_000;

/// Priority assigned to inputs without a `p<k>--` prefix. Lower runs
/// first.
pub const DEFAULT_PRIORITY: u32 = 100;

/// Version of the `status.json` schema.
pub const STATUS_SCHEMA_VERSION: u64 = 1;

/// Serve daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory watched for intake files and sentinels.
    pub watch_dir: PathBuf,
    /// Directory for job checkpoints (created if missing).
    pub jobs_dir: PathBuf,
    /// Directory for restored outputs, the manifest, and `status.json`.
    pub out_dir: PathBuf,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Intake poll interval in milliseconds.
    pub poll_ms: u64,
    /// Input stability window in milliseconds.
    pub stability_ms: u64,
    /// Per-stage wall-clock timeout in milliseconds.
    pub stage_timeout_ms: u64,
    /// Retry/backoff/quarantine policy.
    pub retry: RetryPolicy,
    /// Pipeline parameters shared by every admitted job.
    pub job: JobConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            watch_dir: PathBuf::from("tlk-watch"),
            jobs_dir: PathBuf::from("tlk-jobs"),
            out_dir: PathBuf::from("tlk-out"),
            workers: DEFAULT_WORKERS,
            poll_ms: DEFAULT_POLL_MS,
            stability_ms: DEFAULT_STABILITY_MS,
            stage_timeout_ms: DEFAULT_STAGE_TIMEOUT_MS,
            retry: RetryPolicy::default(),
            job: JobConfig::default(),
        }
    }
}

/// Why the serve daemon could not start or keep running. Per-job
/// failures are never raised — they are retried, quarantined, and
/// reported; this error is for the daemon's own environment.
#[derive(Debug)]
pub enum ServeError {
    /// The watch path exists but is not a directory.
    NotADirectory(PathBuf),
    /// A directory could not be created or a daemon-level file could
    /// not be written.
    Io {
        /// The path being touched.
        path: PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NotADirectory(p) => {
                write!(f, "watch path {} is not a directory", p.display())
            }
            ServeError::Io { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for ServeError {}

/// Path of the serialized [`FailureReport`] for job `id`.
pub fn failure_report_path(watch_dir: &Path, id: &str) -> PathBuf {
    watch_dir.join(FAILED_DIR).join(format!("{id}.failure"))
}

/// What a completed (drained) serve run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs admitted from the watch directory.
    pub admitted: u64,
    /// Jobs that ran to a verdict and an emitted output.
    pub completed: u64,
    /// Jobs quarantined to `failed/`.
    pub quarantined: u64,
    /// Jobs cancelled via sentinel.
    pub cancelled: u64,
    /// Stage attempts that failed and were retried (or quarantined).
    pub retries: u64,
    /// Intake polls performed (idle CPU bound: each poll sleeps).
    pub polls: u64,
    /// Path of the final manifest.
    pub manifest_path: PathBuf,
    /// Path of the last-written status file.
    pub status_path: PathBuf,
}

/// Splits an intake file name into `(priority, id)`. A `p<k>--` prefix
/// sets the priority (lower runs first); otherwise
/// [`DEFAULT_PRIORITY`]. Returns `None` for non-intake names
/// (wrong extension, empty id, or a `.restored` output stem).
pub fn parse_intake_name(file_name: &str) -> Option<(u32, String)> {
    let stem = file_name
        .strip_suffix(".real")
        .or_else(|| file_name.strip_suffix(".qasm"))?;
    if stem.is_empty() || stem.ends_with(".restored") {
        return None;
    }
    let (priority, id) = match stem.strip_prefix('p').and_then(|rest| {
        let (digits, id) = rest.split_once("--")?;
        let k: u32 = digits.parse().ok()?;
        Some((k, id))
    }) {
        Some((k, id)) => (k, id),
        None => (DEFAULT_PRIORITY, stem),
    };
    if id.is_empty() {
        return None;
    }
    Some((priority, id.to_string()))
}

/// A queued, admitted job. Ordering is min-priority-first with FIFO
/// admission-order tiebreak (via the monotone `seq`).
struct Queued {
    priority: u32,
    seq: u64,
    id: String,
    input_path: PathBuf,
    circuit: Circuit,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    // Reversed so BinaryHeap (a max-heap) pops the lowest
    // (priority, seq) first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .priority
            .cmp(&self.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Queue state guarded by one mutex; the condvar wakes workers on
/// pushes and on drain.
struct QueueState {
    heap: BinaryHeap<Queued>,
    in_flight: usize,
    draining: bool,
}

/// Everything the intake loop and the workers share.
struct Shared {
    queue: Mutex<QueueState>,
    wake: Condvar,
    /// Active jobs (queued or in flight) → their cancellation flag.
    /// Doubles as the admission guard: an id present here is never
    /// re-admitted.
    cancels: Mutex<BTreeMap<String, Arc<AtomicBool>>>,
    /// Manifest rows, merged from any existing manifest at startup and
    /// rewritten atomically on every terminal transition.
    manifest: Mutex<Manifest>,
    /// Monotone counters exposed through `status.json`; returned from
    /// [`run_serve`] once drained.
    summary: Mutex<ServeSummary>,
}

impl Shared {
    fn cancels(&self) -> MutexGuard<'_, BTreeMap<String, Arc<AtomicBool>>> {
        self.cancels.lock().expect("cancels poisoned")
    }

    fn manifest(&self) -> MutexGuard<'_, Manifest> {
        self.manifest.lock().expect("manifest poisoned")
    }

    fn summary(&self) -> MutexGuard<'_, ServeSummary> {
        self.summary.lock().expect("summary poisoned")
    }
}

/// Runs the serve daemon until drained. Blocks the calling thread; the
/// intake loop runs here while `config.workers` worker threads consume
/// the queue.
///
/// # Errors
///
/// [`ServeError`] only for environment failures (watch path not a
/// directory, directories that cannot be created). Per-job failures
/// are retried and quarantined, never raised.
pub fn run_serve(config: &ServeConfig) -> Result<ServeSummary, ServeError> {
    if config.watch_dir.exists() && !config.watch_dir.is_dir() {
        return Err(ServeError::NotADirectory(config.watch_dir.clone()));
    }
    let done_dir = config.watch_dir.join(DONE_DIR);
    let failed_dir = config.watch_dir.join(FAILED_DIR);
    let cancelled_dir = config.watch_dir.join(CANCELLED_DIR);
    for dir in [
        &config.watch_dir,
        &config.jobs_dir,
        &config.out_dir,
        &done_dir,
        &failed_dir,
        &cancelled_dir,
    ] {
        std::fs::create_dir_all(dir).map_err(|source| ServeError::Io {
            path: dir.clone(),
            source,
        })?;
    }
    batch::sweep_tmp_debris(&[&config.jobs_dir, &config.out_dir]);

    let manifest_path = config.out_dir.join(batch::MANIFEST_FILE);
    let status_path = config.out_dir.join(STATUS_FILE);
    let shared = Shared {
        queue: Mutex::new(QueueState {
            heap: BinaryHeap::new(),
            in_flight: 0,
            draining: false,
        }),
        wake: Condvar::new(),
        cancels: Mutex::new(BTreeMap::new()),
        manifest: Mutex::new(Manifest::load(&manifest_path)),
        summary: Mutex::new(ServeSummary {
            manifest_path: manifest_path.clone(),
            status_path: status_path.clone(),
            ..ServeSummary::default()
        }),
    };

    let span = qobs::span("serve.run")
        .attr("watch", config.watch_dir.display().to_string())
        .attr("workers", config.workers.max(1));

    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| worker_loop(config, &shared, &manifest_path));
        }
        intake_loop(config, &shared, &status_path);
    });

    // Final manifest + status after every worker has stopped.
    let _ = shared.manifest().write(&manifest_path);
    write_status(config, &shared, &status_path, true);
    let summary = shared.summary().clone();
    let _span = span
        .attr("admitted", summary.admitted)
        .attr("completed", summary.completed)
        .attr("quarantined", summary.quarantined);
    Ok(summary)
}

/// The intake loop: one pass per poll — sentinels first (shutdown,
/// cancels), then stability-gated admissions, then status/heartbeat,
/// then sleep. Returns once drain is requested.
fn intake_loop(config: &ServeConfig, shared: &Shared, status_path: &Path) {
    // file name → (len, mtime, instant of last observed change).
    let mut stability: BTreeMap<String, (u64, Option<SystemTime>, Instant)> = BTreeMap::new();
    let mut seq: u64 = 0;
    loop {
        shared.summary().polls += 1;
        let mut drain = false;
        let mut entries: Vec<(String, PathBuf)> = Vec::new();
        if let Ok(rd) = std::fs::read_dir(&config.watch_dir) {
            for entry in rd.flatten() {
                if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                    continue;
                }
                if let Some(name) = entry.file_name().to_str() {
                    entries.push((name.to_string(), entry.path()));
                }
            }
        }
        entries.sort();

        // Sentinels before admissions: a shutdown or cancel dropped in
        // the same poll as an input wins.
        for (name, path) in &entries {
            if name == SHUTDOWN_SENTINEL {
                let _ = std::fs::remove_file(path);
                drain = true;
            } else if let Some(id) = name.strip_suffix(CANCEL_SUFFIX) {
                handle_cancel(config, shared, id, path);
            }
        }
        if drain {
            qobs::event("serve.drain", &[]);
            let mut q = shared.queue.lock().expect("queue poisoned");
            q.draining = true;
            drop(q);
            shared.wake.notify_all();
            write_status(config, shared, status_path, true);
            return;
        }

        for (name, path) in &entries {
            let Some((priority, id)) = parse_intake_name(name) else {
                continue;
            };
            if shared.cancels().contains_key(&id) {
                continue; // already queued or in flight
            }
            if !is_stable(&mut stability, name, path, config.stability_ms) {
                continue;
            }
            stability.remove(name);
            match read_circuit(path) {
                Ok(circuit) => {
                    seq += 1;
                    let flag = Arc::new(AtomicBool::new(false));
                    shared.cancels().insert(id.clone(), flag);
                    SERVE_ADMITTED.incr();
                    shared.summary().admitted += 1;
                    qobs::event(
                        "serve.admitted",
                        &[
                            ("job", qobs::AttrValue::from(id.as_str())),
                            ("priority", qobs::AttrValue::from(u64::from(priority))),
                        ],
                    );
                    let mut q = shared.queue.lock().expect("queue poisoned");
                    q.heap.push(Queued {
                        priority,
                        seq,
                        id,
                        input_path: path.clone(),
                        circuit,
                    });
                    drop(q);
                    shared.wake.notify_one();
                }
                Err(message) => {
                    quarantine(
                        config,
                        shared,
                        path,
                        FailureReport {
                            id,
                            kind: FailureKind::Poisoned,
                            message,
                            attempts: Vec::new(),
                        },
                    );
                }
            }
        }
        stability.retain(|name, _| entries.iter().any(|(n, _)| n == name));

        write_status(config, shared, status_path, false);
        std::thread::sleep(Duration::from_millis(config.poll_ms.max(1)));
    }
}

/// One stability observation: returns `true` when the file's length
/// and mtime have been unchanged for the window.
fn is_stable(
    stability: &mut BTreeMap<String, (u64, Option<SystemTime>, Instant)>,
    name: &str,
    path: &Path,
    stability_ms: u64,
) -> bool {
    let Ok(meta) = std::fs::metadata(path) else {
        return false;
    };
    let len = meta.len();
    let mtime = meta.modified().ok();
    let now = Instant::now();
    match stability.get_mut(name) {
        Some((seen_len, seen_mtime, since)) => {
            if *seen_len != len || *seen_mtime != mtime {
                *seen_len = len;
                *seen_mtime = mtime;
                *since = now;
                false
            } else {
                now.duration_since(*since) >= Duration::from_millis(stability_ms)
            }
        }
        None => {
            stability.insert(name.to_string(), (len, mtime, now));
            false
        }
    }
}

/// Parses an intake file by extension (`.real` or `.qasm`).
fn read_circuit(path: &Path) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable input: {e}"))?;
    let parsed = match path.extension().and_then(|e| e.to_str()) {
        Some("real") => qcir::real::from_real(&text),
        Some("qasm") => qcir::qasm::from_qasm(&text),
        other => return Err(format!("unsupported extension {other:?}")),
    };
    parsed.map_err(|e| e.to_string())
}

/// Applies a `<id>.cancel` sentinel: flags an active job, or moves a
/// not-yet-admitted input straight to `cancelled/`. The sentinel is
/// consumed in either case (and also when there is nothing to cancel).
fn handle_cancel(config: &ServeConfig, shared: &Shared, id: &str, sentinel: &Path) {
    let cancels = shared.cancels();
    if let Some(flag) = cancels.get(id) {
        flag.store(true, Ordering::SeqCst);
        drop(cancels);
        let _ = std::fs::remove_file(sentinel);
        return;
    }
    drop(cancels);
    // Not active: cancel pending input files (plain or
    // priority-prefixed) for the same id before they are admitted.
    if let Ok(rd) = std::fs::read_dir(&config.watch_dir) {
        for entry in rd.flatten() {
            let Some(name) = entry.file_name().to_str().map(String::from) else {
                continue;
            };
            if let Some((_, parsed_id)) = parse_intake_name(&name) {
                if parsed_id == id {
                    move_into(&entry.path(), &config.watch_dir.join(CANCELLED_DIR));
                    record_cancelled(shared, id);
                }
            }
        }
    }
    let _ = std::fs::remove_file(sentinel);
}

/// Counts a cancellation (gauge + qobs) without touching the registry.
fn record_cancelled(shared: &Shared, id: &str) {
    SERVE_CANCELLED.incr();
    shared.summary().cancelled += 1;
    qobs::event("serve.cancelled", &[("job", qobs::AttrValue::from(id))]);
}

/// Moves `path` into `dir`, keeping its file name. Best-effort: serve
/// must keep running even if the filesystem fights back.
fn move_into(path: &Path, dir: &Path) {
    if let Some(name) = path.file_name() {
        let _ = std::fs::rename(path, dir.join(name));
    }
}

/// Worker: pop highest-priority job, drive it to a terminal state,
/// repeat; exits when drain is requested and the queue is released.
fn worker_loop(config: &ServeConfig, shared: &Shared, manifest_path: &Path) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if q.draining {
                    // Abandon queued-but-unstarted jobs: their inputs
                    // stay in the watch dir, so a later serve run
                    // admits them again — drained, not lost.
                    return;
                }
                if let Some(job) = q.heap.pop() {
                    q.in_flight += 1;
                    break job;
                }
                q = shared.wake.wait(q).expect("queue poisoned");
            }
        };
        run_serve_job(config, shared, manifest_path, job);
        let mut q = shared.queue.lock().expect("queue poisoned");
        q.in_flight -= 1;
    }
}

/// Drives one admitted job to a terminal state — completed (output
/// emitted, input moved to `done/`), cancelled, or quarantined — then
/// records its manifest row and releases its registry entry (in that
/// order, so intake can never re-admit a finishing job).
fn run_serve_job(config: &ServeConfig, shared: &Shared, manifest_path: &Path, job: Queued) {
    let _span = qobs::span("serve.job")
        .attr("job", job.id.as_str())
        .attr("priority", u64::from(job.priority));
    let cancel_flag = shared.cancels().get(&job.id).cloned().unwrap_or_default();
    let on_strike = |attempt: &AttemptRecord, strikes: u32| {
        SERVE_RETRIES.incr();
        shared.summary().retries += 1;
        qobs::event(
            "serve.retry",
            &[
                ("stage", qobs::AttrValue::from(attempt.stage.as_str())),
                ("strikes", qobs::AttrValue::from(u64::from(strikes))),
                ("backoff_ms", qobs::AttrValue::from(attempt.backoff_ms)),
            ],
        );
    };
    let driver = Driver {
        jobs_dir: &config.jobs_dir,
        out_dir: &config.out_dir,
        resume: true,
        retry: &config.retry,
        stage_timeout: Some(Duration::from_millis(config.stage_timeout_ms.max(1))),
        cancel: &cancel_flag,
        on_strike: &on_strike,
    };
    match driver.drive(&job.id, job.circuit, &config.job) {
        JobEnd::Done { verdict, .. } => {
            shared.manifest().set_verdict(&job.id, &verdict);
            let _ = shared.manifest().write(manifest_path);
            move_into(&job.input_path, &config.watch_dir.join(DONE_DIR));
            SERVE_COMPLETED.incr();
            shared.summary().completed += 1;
            qobs::event(
                "serve.completed",
                &[("job", qobs::AttrValue::from(job.id.as_str()))],
            );
        }
        JobEnd::Failed { report, .. } => {
            quarantine(config, shared, &job.input_path, report);
            let _ = shared.manifest().write(manifest_path);
        }
        JobEnd::Cancelled => {
            move_into(&job.input_path, &config.watch_dir.join(CANCELLED_DIR));
            shared
                .manifest()
                .set(&job.id, "CANCELLED", "-", "cancelled via sentinel");
            let _ = shared.manifest().write(manifest_path);
            record_cancelled(shared, &job.id);
        }
    }
    shared.cancels().remove(&job.id);
}

/// The shared quarantine path: serializes the [`FailureReport`] to
/// `failed/<id>.failure`, moves the input file to `failed/`, records
/// the manifest row, and counts it.
fn quarantine(config: &ServeConfig, shared: &Shared, input_path: &Path, report: FailureReport) {
    let id = report.id.as_str();
    {
        let _span = qobs::span("persist.write").attr("stage", "failure");
        let _ = persist::save(&failure_report_path(&config.watch_dir, id), &report);
    }
    move_into(input_path, &config.watch_dir.join(FAILED_DIR));
    SERVE_QUARANTINED.incr();
    shared.summary().quarantined += 1;
    qobs::event(
        "serve.quarantined",
        &[
            ("job", qobs::AttrValue::from(id)),
            ("kind", qobs::AttrValue::from(report.kind.name())),
        ],
    );
    shared.manifest().set(
        id,
        "QUARANTINED",
        "-",
        &format!("{}: {}", report.kind, report.message),
    );
}

/// Atomically rewrites `status.json` (one flat JSON object line) and
/// emits the `serve.heartbeat` event.
fn write_status(config: &ServeConfig, shared: &Shared, status_path: &Path, draining: bool) {
    let (queue_depth, in_flight) = {
        let q = shared.queue.lock().expect("queue poisoned");
        (q.heap.len() as u64, q.in_flight as u64)
    };
    let counts = shared.summary().clone();
    let mut obj = qobs::json::Obj::new("serve_status");
    obj.field_u64("schema_version", STATUS_SCHEMA_VERSION);
    obj.field_u64("workers", config.workers.max(1) as u64);
    obj.field_u64("queue_depth", queue_depth);
    obj.field_u64("in_flight", in_flight);
    obj.field_u64("admitted", counts.admitted);
    obj.field_u64("completed", counts.completed);
    obj.field_u64("quarantined", counts.quarantined);
    obj.field_u64("cancelled", counts.cancelled);
    obj.field_u64("retries", counts.retries);
    obj.field_u64("polls", counts.polls);
    obj.field_bool("draining", draining);
    let line = obj.finish();

    let tmp = persist::tmp_path(status_path);
    let _ =
        std::fs::write(&tmp, format!("{line}\n")).and_then(|()| std::fs::rename(&tmp, status_path));

    qobs::event(
        "serve.heartbeat",
        &[
            ("queue_depth", qobs::AttrValue::from(queue_depth)),
            ("in_flight", qobs::AttrValue::from(in_flight)),
            ("retries", qobs::AttrValue::from(counts.retries)),
            ("quarantined", qobs::AttrValue::from(counts.quarantined)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intake_names_parse() {
        assert_eq!(
            parse_intake_name("alpha.real"),
            Some((DEFAULT_PRIORITY, "alpha".to_string()))
        );
        assert_eq!(
            parse_intake_name("p5--hot.qasm"),
            Some((5, "hot".to_string()))
        );
        assert_eq!(
            parse_intake_name("p007--x.real"),
            Some((7, "x".to_string()))
        );
        // A bare `p--` or non-numeric prefix is just an id.
        assert_eq!(
            parse_intake_name("pxy--z.real"),
            Some((DEFAULT_PRIORITY, "pxy--z".to_string()))
        );
        assert_eq!(parse_intake_name("notes.txt"), None);
        assert_eq!(parse_intake_name(".real"), None);
        assert_eq!(parse_intake_name("p5--.real"), None);
        assert_eq!(parse_intake_name("alpha.restored.qasm"), None);
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let mk = |priority, seq, id: &str| Queued {
            priority,
            seq,
            id: id.to_string(),
            input_path: PathBuf::new(),
            circuit: Circuit::new(1),
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(100, 1, "slow"));
        heap.push(mk(5, 3, "hot_b"));
        heap.push(mk(5, 2, "hot_a"));
        let order: Vec<String> = std::iter::from_fn(|| heap.pop().map(|q| q.id)).collect();
        assert_eq!(order, ["hot_a", "hot_b", "slow"]);
    }

    #[test]
    fn failure_report_round_trips_through_persist() {
        let dir = std::env::temp_dir().join(format!("tlk_serve_fr_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report = FailureReport {
            id: "poison".to_string(),
            kind: FailureKind::CrashLoop,
            message: "stage verify: boom".to_string(),
            attempts: vec![AttemptRecord {
                stage: "verify".to_string(),
                message: "boom".to_string(),
                backoff_ms: 50,
            }],
        };
        let path = dir.join("poison.failure");
        persist::save(&path, &report).unwrap();
        let back: FailureReport = persist::load(&path).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn manifest_rows_survive_reload() {
        let dir = std::env::temp_dir().join(format!("tlk_serve_mf_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.txt");
        let mut manifest = Manifest::default();
        manifest.set("a", "equivalent", "tableau", "a.restored.qasm");
        manifest.set("b", "QUARANTINED", "-", "poisoned: bad gate");
        manifest.write(&path).unwrap();
        assert_eq!(Manifest::load(&path), manifest);
    }

    #[test]
    fn watch_path_must_be_a_directory() {
        let base = std::env::temp_dir().join(format!("tlk_serve_nd_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let file = base.join("a_file");
        std::fs::write(&file, "x").unwrap();
        let config = ServeConfig {
            watch_dir: file.clone(),
            jobs_dir: base.join("jobs"),
            out_dir: base.join("out"),
            ..ServeConfig::default()
        };
        match run_serve(&config) {
            Err(ServeError::NotADirectory(p)) => assert_eq!(p, file),
            other => panic!("expected NotADirectory, got {other:?}"),
        }
    }

    /// Runs serve until `ready` holds (or a minute passes), then drains.
    fn serve_until(
        config: &ServeConfig,
        ready: impl Fn() -> bool + Send + 'static,
    ) -> ServeSummary {
        let watch = config.watch_dir.clone();
        let stopper = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while !ready() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            std::fs::write(watch.join(SHUTDOWN_SENTINEL), "").unwrap();
        });
        let summary = run_serve(config).unwrap();
        stopper.join().unwrap();
        summary
    }

    /// A fresh in-process serve sandbox with fast test intervals.
    fn test_config(tag: &str) -> ServeConfig {
        let base = std::env::temp_dir().join(format!("tlk_serve_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let config = ServeConfig {
            watch_dir: base.join("watch"),
            jobs_dir: base.join("jobs"),
            out_dir: base.join("out"),
            workers: 2,
            poll_ms: 10,
            stability_ms: 30,
            ..ServeConfig::default()
        };
        std::fs::create_dir_all(&config.watch_dir).unwrap();
        config
    }

    fn gamma_qasm() -> String {
        let mut c = Circuit::with_name(3, "gamma");
        c.x(0).cx(0, 1).ccx(0, 1, 2);
        qcir::qasm::to_qasm(&c)
    }

    /// End-to-end in-process smoke: two inputs (one prioritized), one
    /// poisoned file, one cancel, then drain.
    #[test]
    fn serve_processes_quarantines_and_drains() {
        let config = test_config("e2e");
        let qasm = gamma_qasm();
        std::fs::write(config.watch_dir.join("gamma.qasm"), &qasm).unwrap();
        std::fs::write(config.watch_dir.join("p1--rush.qasm"), &qasm).unwrap();
        std::fs::write(config.watch_dir.join("poison.qasm"), "OPENQASM 2.0;\nqreg").unwrap();

        let (watch, out) = (config.watch_dir.clone(), config.out_dir.clone());
        // Wait for both outputs and the quarantine, then drain.
        let summary = serve_until(&config, move || {
            out.join("gamma.restored.qasm").exists()
                && out.join("rush.restored.qasm").exists()
                && failure_report_path(&watch, "poison").exists()
        });

        assert_eq!(summary.admitted, 2, "{summary:?}");
        assert_eq!(summary.completed, 2, "{summary:?}");
        assert_eq!(summary.quarantined, 1, "{summary:?}");
        let report: FailureReport =
            persist::load(&failure_report_path(&config.watch_dir, "poison")).unwrap();
        assert_eq!(report.kind, FailureKind::Poisoned);
        // Inputs reached their terminal directories.
        assert!(config.watch_dir.join(DONE_DIR).join("gamma.qasm").exists());
        assert!(config
            .watch_dir
            .join(FAILED_DIR)
            .join("poison.qasm")
            .exists());
        // status.json is one flat JSON object.
        let status = std::fs::read_to_string(&summary.status_path).unwrap();
        let parsed = qobs::json::parse_line(status.trim()).unwrap();
        assert_eq!(parsed.get_str("type"), Some("serve_status"));
        assert_eq!(parsed.get_u64("completed"), Some(2));
        assert_eq!(parsed.get_u64("quarantined"), Some(1));
        // The manifest holds all terminal rows.
        let manifest = std::fs::read_to_string(&summary.manifest_path).unwrap();
        assert!(manifest.contains("gamma\tequivalent\t"), "{manifest}");
        assert!(
            manifest.contains("poison\tQUARANTINED\t-\tpoisoned:"),
            "{manifest}"
        );
    }

    /// A job whose checkpoint is `Done` but whose output is gone must be
    /// re-emitted when its input is dropped again, not counted done.
    #[test]
    fn done_job_with_missing_output_is_re_emitted() {
        let config = test_config("reemit");
        std::fs::write(config.watch_dir.join("gamma.qasm"), gamma_qasm()).unwrap();
        let output = config.out_dir.join("gamma.restored.qasm");
        let consumed = config.watch_dir.join(DONE_DIR).join("gamma.qasm");
        let done = consumed.clone();
        let ready = move || done.exists();
        serve_until(&config, ready.clone());
        let first = std::fs::read(&output).unwrap();

        // The checkpoint stays `Done`; only the output goes.
        std::fs::remove_file(&output).unwrap();
        std::fs::rename(&consumed, config.watch_dir.join("gamma.qasm")).unwrap();
        let summary = serve_until(&config, ready);
        assert_eq!(summary.completed, 1, "{summary:?}");
        assert_eq!(std::fs::read(&output).ok(), Some(first), "not re-emitted");
        let manifest = std::fs::read_to_string(&summary.manifest_path).unwrap();
        assert!(manifest.contains("gamma\tequivalent\t"), "{manifest}");
    }
}

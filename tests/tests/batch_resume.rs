//! Fault-injection suite for the batch protection service — the
//! headline crash-safety test.
//!
//! Strategy: run `tetrislock batch --suite table1` (the paper's RevLib
//! suite) once uninterrupted as the reference, then run the same batch
//! in a subprocess that is repeatedly killed at *seeded-random*
//! checkpoint counts (via the `TLK_BATCH_KILL_AFTER_CHECKPOINTS` hook,
//! which `abort()`s the process — equivalent to `kill -9`: no
//! destructors, no flushes) and resumed with `--resume` until it
//! finally completes. Every restored circuit and the manifest must be
//! **byte-identical** to the uninterrupted run, even though the fault
//! run used a different worker count and crossed many kill/resume
//! cycles.
//!
//! The kill schedule is seeded (`TLK_TEST_SEED` env, default below) so
//! failures replay exactly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use tetrislock::batch::{run_batch, BatchConfig};
use tetrislock::job::{checkpoint_path, load_checkpoint, JobStage};
use tetrislock_tests::tetrislock_bin;

/// Small deterministic RNG (xorshift64*) for the kill schedule — the
/// test must not depend on ambient entropy.
struct KillRng(u64);

impl KillRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlk_batch_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// All batch artifacts that must be reproducible: every
/// `*.restored.qasm` plus the manifest, keyed by file name.
fn read_outputs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read output dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".restored.qasm") || name == "manifest.txt" {
            out.insert(name, std::fs::read(entry.path()).expect("read output file"));
        }
    }
    out
}

fn batch_cmd(bin: &Path, out_dir: &Path, workers: &str) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args([
        "batch",
        "--suite",
        "table1",
        "--workers",
        workers,
        "--out-dir",
    ])
    .arg(out_dir)
    .arg("--resume");
    cmd
}

#[test]
fn kill_resume_outputs_byte_identical_to_uninterrupted_run() {
    let bin = tetrislock_bin();
    let ref_dir = unique_dir("ref");
    let fault_dir = unique_dir("fault");

    // Reference: uninterrupted, single worker.
    let status = batch_cmd(&bin, &ref_dir, "1")
        .status()
        .expect("spawn reference batch");
    assert!(status.success(), "reference batch run failed");
    let reference = read_outputs(&ref_dir);
    assert!(
        reference.len() > 8,
        "expected the table1 suite plus manifest, got {} files",
        reference.len()
    );

    // Fault run: different worker count, killed at seeded-random
    // checkpoint counts until it completes on its own.
    let seed = std::env::var("TLK_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xA5EE_D001_u64);
    let mut rng = KillRng(seed | 1);
    let mut kills = 0u32;
    let mut completed = false;
    for round in 0..40 {
        // Kill after 1..=5 checkpoint writes. Each job checkpoints
        // twice, after verify and at `Done`, so the batch writes 16:
        // every write is progress, at least 3 rounds abort before it
        // completes, and a kill lands between a job's verify and `Done`
        // checkpoints or right after its `Done` one, while the other
        // worker's job is anywhere in its pipeline.
        let kill_after = 1 + rng.next() % 5;
        let status = batch_cmd(&bin, &fault_dir, "2")
            .env("TLK_BATCH_KILL_AFTER_CHECKPOINTS", kill_after.to_string())
            .status()
            .expect("spawn fault batch");
        if status.success() {
            completed = true;
            break;
        }
        kills += 1;
        assert!(
            status.code().is_none() || status.code() != Some(1),
            "round {round}: expected an abort (signal), got clean failure exit"
        );
    }
    if !completed {
        // Belt and braces: finish without the kill hook. The comparison
        // below still proves resume correctness for all prior kills.
        let status = batch_cmd(&bin, &fault_dir, "2")
            .status()
            .expect("spawn final batch");
        assert!(status.success(), "final resume run failed");
    }
    assert!(
        kills >= 3,
        "fault injection fired only {kills} times — the hook is not working"
    );

    let fault = read_outputs(&fault_dir);
    assert_eq!(
        reference.keys().collect::<Vec<_>>(),
        fault.keys().collect::<Vec<_>>(),
        "kill/resume run produced a different file set"
    );
    for (name, want) in &reference {
        assert_eq!(
            fault.get(name).map(Vec::as_slice),
            Some(want.as_slice()),
            "{name} differs between uninterrupted and kill/resume runs"
        );
    }

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&fault_dir);
}

#[test]
fn killed_run_leaves_loadable_checkpoints() {
    // A run killed mid-flight must leave a jobs directory from which
    // every checkpoint loads cleanly (the .prev rotation guarantees at
    // least one good generation per started job).
    let bin = tetrislock_bin();
    let dir = unique_dir("ckpt");
    let status = batch_cmd(&bin, &dir, "2")
        .env("TLK_BATCH_KILL_AFTER_CHECKPOINTS", "5")
        .status()
        .expect("spawn killed batch");
    assert!(!status.success(), "the kill hook should have fired");

    let jobs_dir = dir.join("jobs");
    let mut seen = 0;
    for entry in std::fs::read_dir(&jobs_dir).expect("jobs dir exists after kill") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("job") {
            let id = path.file_stem().unwrap().to_str().unwrap();
            let loaded = tetrislock::job::load_checkpoint(&jobs_dir, id)
                .expect("checkpoint loads or falls back");
            assert!(loaded.is_some(), "checkpoint for {id} vanished");
            seen += 1;
        }
    }
    assert!(seen >= 1, "no checkpoints were written before the kill");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serializes the in-process power-loss cases, which read the
/// process-wide `job.checkpoint_fallbacks` counter.
static COUNTERS: Mutex<()> = Mutex::new(());

/// What a power loss can leave of the unsynced `Done` checkpoint.
enum LostDone {
    /// Delayed allocation: the renamed file is there but empty.
    Truncated,
    /// The rename never reached the disk: `<id>.job` is missing.
    Deleted,
}

/// Completes a one-job batch, damages its `Done` checkpoint the way a
/// power loss can, and resumes: the job must fall back to the fsynced
/// `Emit` generation in `.prev`, re-emit, and end byte-identical to
/// the uninterrupted run. Returns the run's checkpoint fallbacks.
fn resume_after_lost_done(tag: &str, lost: LostDone) -> u64 {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let id = "rd53";
    let input = || vec![(id.to_string(), revlib::rd53().circuit().clone())];
    let dir = unique_dir(tag);
    let mut config = BatchConfig {
        jobs_dir: dir.join("jobs"),
        out_dir: dir.join("out"),
        ..BatchConfig::default()
    };
    let first = run_batch(input(), &config).expect("batch runs");
    assert!(first.all_equivalent(), "{:?}", first.outcomes);
    let reference = read_outputs(&config.out_dir);
    assert_eq!(reference.len(), 2, "one output plus the manifest");

    let done = checkpoint_path(&config.jobs_dir, id);
    match lost {
        LostDone::Truncated => std::fs::File::create(&done)
            .map(drop)
            .expect("truncate the Done checkpoint"),
        LostDone::Deleted => std::fs::remove_file(&done).expect("delete the Done checkpoint"),
    }
    let fallback = load_checkpoint(&config.jobs_dir, id)
        .expect("the .prev generation loads")
        .expect("a checkpoint is left");
    assert_eq!(
        fallback.stage,
        JobStage::Emit,
        "`.prev` is the verify checkpoint"
    );
    // Remove the output too, so only a re-emit can bring it back.
    let output = config.out_dir.join(format!("{id}.restored.qasm"));
    std::fs::remove_file(&output).expect("remove the output");

    config.resume = true;
    qobs::set_level(qobs::Level::Counters);
    let counter = || {
        qobs::counter_snapshot()
            .into_iter()
            .find(|(name, _)| *name == "job.checkpoint_fallbacks")
            .map_or(0, |(_, value)| value)
    };
    let before = counter();
    let resumed = run_batch(input(), &config).expect("resumed batch runs");
    let fallbacks = counter() - before;
    qobs::set_level(qobs::Level::Off);

    assert!(resumed.all_equivalent(), "{:?}", resumed.outcomes);
    assert!(resumed.outcomes[0].resumed);
    assert_eq!(read_outputs(&config.out_dir), reference);
    let done = load_checkpoint(&config.jobs_dir, id)
        .expect("loads")
        .expect("present");
    assert_eq!(done.stage, JobStage::Done);
    let _ = std::fs::remove_dir_all(&dir);
    fallbacks
}

#[test]
fn truncated_done_checkpoint_falls_back_to_emit_and_re_emits() {
    assert_eq!(resume_after_lost_done("done_empty", LostDone::Truncated), 1);
}

#[test]
fn missing_done_checkpoint_falls_back_to_emit_and_re_emits() {
    assert_eq!(resume_after_lost_done("done_missing", LostDone::Deleted), 1);
}

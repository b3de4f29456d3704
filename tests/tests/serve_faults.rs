//! Hostile-environment fault harness for `tetrislock serve` — the
//! daemon-level counterpart of `batch_resume.rs`.
//!
//! Every test here drives the real binary as a subprocess against a
//! sandboxed watch directory and asserts the robustness contract from
//! the serve design:
//!
//! - half-written (slowly appended) inputs are never admitted early;
//! - poisoned inputs quarantine with a typed, loadable
//!   [`FailureReport`] instead of wedging the queue;
//! - seeded `kill -9` (via `TLK_BATCH_KILL_AFTER_CHECKPOINTS`) at any
//!   instant resumes to **byte-identical** outputs on restart;
//! - a crash-looping job quarantines after exactly the strike budget
//!   and can be re-queued once the underlying fault is gone;
//! - cancellation sentinels win races against admission;
//! - drain under load exits 0 with no lost and no duplicated jobs;
//! - the idle loop is polling-bounded (no busy-spin) and no orphan
//!   `.tmp` staging files survive a drained run.

use qcir::Circuit;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tetrislock::serve::{failure_report_path, FailureKind, FailureReport, SHUTDOWN_SENTINEL};

/// Locates the `tetrislock` binary next to the test executable,
/// building it on demand.
fn tetrislock_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    let debug_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("target/debug layout");
    let bin = debug_dir.join(format!("tetrislock{}", std::env::consts::EXE_SUFFIX));
    if bin.exists() {
        return bin;
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "-p", "tetrislock-cli", "--bin", "tetrislock"])
        .status()
        .expect("spawn cargo build");
    assert!(status.success(), "building the tetrislock binary failed");
    assert!(bin.exists(), "no tetrislock binary at {}", bin.display());
    bin
}

/// Small deterministic RNG (xorshift64*) for the kill schedule.
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

/// One sandbox: watch/, jobs/, out/ under a unique temp root.
struct Sandbox {
    watch: PathBuf,
    jobs: PathBuf,
    out: PathBuf,
}

fn sandbox(tag: &str) -> Sandbox {
    let base = std::env::temp_dir().join(format!("tlk_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let sb = Sandbox {
        watch: base.join("watch"),
        jobs: base.join("jobs"),
        out: base.join("out"),
    };
    std::fs::create_dir_all(&sb.watch).unwrap();
    sb
}

/// Spawns `tetrislock serve` over the sandbox with fast test-friendly
/// intervals plus `extra` flags; stdin is null (must NOT trigger the
/// stdin-EOF drain — that is part of the contract under test).
fn spawn_serve(sb: &Sandbox, extra: &[&str], envs: &[(&str, &str)]) -> Child {
    let mut cmd = Command::new(tetrislock_bin());
    cmd.arg("serve")
        .args(["--watch", sb.watch.to_str().unwrap()])
        .args(["--jobs-dir", sb.jobs.to_str().unwrap()])
        .args(["--out-dir", sb.out.to_str().unwrap()])
        .args(["--poll-ms", "25", "--stability-ms", "80"])
        .args(extra)
        .env_remove("TLK_BATCH_KILL_AFTER_CHECKPOINTS")
        .env_remove("TLK_BATCH_PANIC_JOB")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn tetrislock serve")
}

/// Polls `pred` until it holds or the deadline passes.
fn wait_for(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Drops the drain sentinel and waits for a clean exit 0.
fn drain(sb: &Sandbox, child: &mut Child) {
    std::fs::write(sb.watch.join(SHUTDOWN_SENTINEL), "").unwrap();
    let status = wait_exit(child, Duration::from_secs(120));
    assert!(status, "serve did not exit 0 on drain");
}

/// Waits for the child to exit; returns whether it exited successfully.
/// Kills it (and fails) past the deadline so a deadlock cannot hang
/// the whole suite.
fn wait_exit(child: &mut Child, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status.success();
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve did not exit before the deadline (deadlock?)");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The three standard test circuits (same shapes as the batch suite).
fn circuits() -> Vec<(String, Circuit)> {
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

fn drop_circuit(watch: &Path, file_name: &str, circuit: &Circuit) {
    // Write-then-rename so the daemon can never observe a half file
    // (the slow-append test exercises the unsafe path deliberately).
    let tmp = watch.join(format!("{file_name}.writing"));
    std::fs::write(&tmp, qcir::qasm::to_qasm(circuit)).unwrap();
    std::fs::rename(&tmp, watch.join(file_name)).unwrap();
}

/// Every `*.restored.qasm` in a directory, keyed by file name.
fn read_outputs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let Ok(rd) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in rd {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".restored.qasm") {
            out.insert(name, std::fs::read(entry.path()).expect("read output file"));
        }
    }
    out
}

/// Asserts no `.tmp` staging debris anywhere in the sandbox.
fn assert_no_orphan_tmps(sb: &Sandbox) {
    for dir in [&sb.watch, &sb.jobs, &sb.out] {
        let Ok(rd) = std::fs::read_dir(dir) else {
            continue;
        };
        for entry in rd.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp"),
                "orphan tmp {name} left in {}",
                dir.display()
            );
        }
    }
}

/// Reference outputs from an uninterrupted `batch` run over the same
/// circuits and (default) pipeline configuration — serve must be
/// byte-identical to this.
fn batch_reference(tag: &str) -> BTreeMap<String, Vec<u8>> {
    let base = std::env::temp_dir().join(format!("tlk_serve_ref_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let mut inputs = Vec::new();
    for (id, circuit) in circuits() {
        let path = base.join(format!("{id}.qasm"));
        std::fs::write(&path, qcir::qasm::to_qasm(&circuit)).unwrap();
        inputs.push(path);
    }
    let out_dir = base.join("out");
    let mut cmd = Command::new(tetrislock_bin());
    cmd.arg("batch");
    for p in &inputs {
        cmd.arg(p);
    }
    let status = cmd
        .args(["--out-dir", out_dir.to_str().unwrap()])
        .env_remove("TLK_BATCH_KILL_AFTER_CHECKPOINTS")
        .env_remove("TLK_BATCH_PANIC_JOB")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run reference batch");
    assert!(status.success(), "reference batch failed");
    read_outputs(&out_dir)
}

/// Parses status.json into (key → u64) plus the draining flag.
fn read_status(sb: &Sandbox) -> qobs::json::ParsedObj {
    let text = std::fs::read_to_string(sb.out.join("status.json")).expect("status.json");
    qobs::json::parse_line(text.trim()).expect("status.json parses as one flat JSON object")
}

#[test]
fn clean_run_matches_uninterrupted_batch_and_drains() {
    let reference = batch_reference("clean");
    let sb = sandbox("clean");
    let mut child = spawn_serve(&sb, &[], &[]);
    for (id, circuit) in circuits() {
        drop_circuit(&sb.watch, &format!("{id}.qasm"), &circuit);
    }
    wait_for("all outputs", Duration::from_secs(120), || {
        read_outputs(&sb.out).len() == 3
    });
    drain(&sb, &mut child);

    assert_eq!(
        read_outputs(&sb.out),
        reference,
        "serve diverged from batch"
    );
    // Inputs consumed into done/, none left in the watch dir.
    for (id, _) in circuits() {
        assert!(sb.watch.join("done").join(format!("{id}.qasm")).exists());
        assert!(!sb.watch.join(format!("{id}.qasm")).exists());
    }
    assert_no_orphan_tmps(&sb);
    let status = read_status(&sb);
    assert_eq!(status.get_u64("completed"), Some(3));
    assert_eq!(status.get_u64("quarantined"), Some(0));
    assert_eq!(status.get_bool("draining"), Some(true));
}

#[test]
fn seeded_kill9_cycles_resume_to_byte_identical_outputs() {
    let reference = batch_reference("kill9");
    let sb = sandbox("kill9");
    for (id, circuit) in circuits() {
        drop_circuit(&sb.watch, &format!("{id}.qasm"), &circuit);
    }

    let seed: u64 = std::env::var("TLK_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_5EED_0001);
    let mut rng = KillRng(seed);
    let mut cycles = 0u32;
    loop {
        cycles += 1;
        assert!(cycles <= 30, "kill/resume did not converge in 30 cycles");
        // Abort the daemon after 1..=6 checkpoint writes (process-wide
        // count; abort == kill -9: no destructors, no flushes).
        let budget = (rng.next() % 6 + 1).to_string();
        let mut child = spawn_serve(
            &sb,
            &[],
            &[("TLK_BATCH_KILL_AFTER_CHECKPOINTS", budget.as_str())],
        );
        // Either the abort fires (non-zero exit) or all jobs finished
        // under budget — detect whichever happens first.
        let deadline = Instant::now() + Duration::from_secs(120);
        let finished = loop {
            if read_outputs(&sb.out).len() == 3
                && circuits()
                    .iter()
                    .all(|(id, _)| !sb.watch.join(format!("{id}.qasm")).exists())
            {
                break true;
            }
            if child.try_wait().expect("try_wait").is_some() {
                break false;
            }
            assert!(Instant::now() < deadline, "kill cycle stuck");
            std::thread::sleep(Duration::from_millis(20));
        };
        if finished {
            drain(&sb, &mut child);
            break;
        }
        let status = child.wait().expect("wait aborted serve");
        assert!(!status.success(), "expected the injected abort");
    }

    assert_eq!(
        read_outputs(&sb.out),
        reference,
        "kill/resume cycles (seed {seed:#x}) diverged from the uninterrupted run"
    );
    assert_no_orphan_tmps(&sb);
}

#[test]
fn poisoned_and_truncated_inputs_quarantine_with_typed_reports() {
    let sb = sandbox("poison");
    let mut child = spawn_serve(&sb, &[], &[]);
    // One valid job, one file of garbage, one truncated-mid-statement
    // QASM file — both stable long before admission, so the stability
    // window cannot save them: the parser must.
    drop_circuit(&sb.watch, "good.qasm", &circuits()[2].1);
    std::fs::write(sb.watch.join("garbage.qasm"), "this is not qasm at all").unwrap();
    let full = qcir::qasm::to_qasm(&circuits()[0].1);
    std::fs::write(sb.watch.join("cutoff.qasm"), &full[..full.len() / 2]).unwrap();

    wait_for("quarantines + output", Duration::from_secs(120), || {
        failure_report_path(&sb.watch, "garbage").exists()
            && failure_report_path(&sb.watch, "cutoff").exists()
            && sb.out.join("good.restored.qasm").exists()
    });
    drain(&sb, &mut child);

    for id in ["garbage", "cutoff"] {
        let report: FailureReport =
            qcir::persist::load(&failure_report_path(&sb.watch, id)).expect("typed report loads");
        assert_eq!(report.id, id);
        assert_eq!(report.kind, FailureKind::Poisoned, "{report:?}");
        assert!(!report.message.is_empty());
        // The poisoned input itself is preserved for post-mortem.
        assert!(sb.watch.join("failed").join(format!("{id}.qasm")).exists());
    }
    let status = read_status(&sb);
    assert_eq!(status.get_u64("quarantined"), Some(2));
    assert_eq!(status.get_u64("completed"), Some(1));
    assert_no_orphan_tmps(&sb);
}

#[test]
fn slowly_appended_input_is_not_admitted_until_stable() {
    let sb = sandbox("slow_append");
    // Generous stability window relative to the append cadence.
    let mut child = spawn_serve(&sb, &["--stability-ms", "400"], &[]);
    let text = qcir::qasm::to_qasm(&circuits()[1].1);
    let chunks: Vec<&str> = vec![
        &text[..text.len() / 3],
        &text[text.len() / 3..2 * text.len() / 3],
        &text[2 * text.len() / 3..],
    ];
    let target = sb.watch.join("slow.qasm");
    // Every prefix of the file is invalid QASM: admitting early would
    // quarantine it as poisoned, which is exactly what the stability
    // window must prevent.
    for chunk in chunks {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&target)
            .unwrap();
        f.write_all(chunk.as_bytes()).unwrap();
        f.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    wait_for("slow job output", Duration::from_secs(120), || {
        sb.out.join("slow.restored.qasm").exists()
    });
    drain(&sb, &mut child);
    assert!(
        !failure_report_path(&sb.watch, "slow").exists(),
        "half-written input was admitted and quarantined"
    );
    let status = read_status(&sb);
    assert_eq!(status.get_u64("quarantined"), Some(0));
    assert_eq!(status.get_u64("completed"), Some(1));
}

#[test]
fn crash_loop_quarantines_after_strikes_then_requeues_clean() {
    let sb = sandbox("crash_loop");
    // The injected panic fires on every advance for this job id; with
    // 2 strikes and a tight backoff the breaker opens fast.
    let mut child = spawn_serve(
        &sb,
        &[
            "--strikes",
            "2",
            "--base-delay-ms",
            "10",
            "--max-delay-ms",
            "40",
        ],
        &[("TLK_BATCH_PANIC_JOB", "cursed")],
    );
    drop_circuit(&sb.watch, "cursed.qasm", &circuits()[2].1);
    wait_for("crash-loop quarantine", Duration::from_secs(120), || {
        failure_report_path(&sb.watch, "cursed").exists()
    });
    drain(&sb, &mut child);

    let report: FailureReport =
        qcir::persist::load(&failure_report_path(&sb.watch, "cursed")).unwrap();
    assert_eq!(report.kind, FailureKind::CrashLoop, "{report:?}");
    assert_eq!(
        report.attempts.len(),
        2,
        "exactly the strike budget of attempts: {report:?}"
    );
    assert!(
        report.message.contains("injected panic"),
        "report carries the panic message: {report:?}"
    );
    assert!(!sb.out.join("cursed.restored.qasm").exists());

    // Re-queue: with the fault gone, moving the preserved input back
    // into the watch dir must run it to completion.
    let mut child = spawn_serve(&sb, &[], &[]);
    std::fs::rename(
        sb.watch.join("failed").join("cursed.qasm"),
        sb.watch.join("cursed.qasm"),
    )
    .unwrap();
    wait_for("requeued output", Duration::from_secs(120), || {
        sb.out.join("cursed.restored.qasm").exists()
    });
    drain(&sb, &mut child);
    assert_no_orphan_tmps(&sb);
}

#[test]
fn stage_timeout_quarantines_as_timeout_kind() {
    let sb = sandbox("timeout");
    // A 1 ms stage budget: the verify stage of a 12-qubit classical
    // circuit with four CX/CCX ladder rounds (≈ 40 ms of ZX reduction
    // on a 2-core host; one round took ≈ 1.4 ms, too close to the
    // budget) is guaranteed to blow it. One strike → immediate
    // quarantine.
    let mut c = Circuit::with_name(12, "wide");
    for _ in 0..4 {
        for i in 0..11 {
            c.cx(i, i + 1);
        }
        for i in 0..10 {
            c.ccx(i, i + 1, i + 2);
        }
    }
    let mut child = spawn_serve(&sb, &["--stage-timeout-ms", "1", "--strikes", "1"], &[]);
    drop_circuit(&sb.watch, "wide.qasm", &c);
    wait_for("timeout quarantine", Duration::from_secs(120), || {
        failure_report_path(&sb.watch, "wide").exists()
    });
    drain(&sb, &mut child);
    let report: FailureReport =
        qcir::persist::load(&failure_report_path(&sb.watch, "wide")).unwrap();
    assert_eq!(report.kind, FailureKind::Timeout, "{report:?}");
    assert!(report.message.contains("wall clock"), "{report:?}");
}

#[test]
fn cancellation_wins_race_against_admission() {
    let sb = sandbox("cancel");
    // Input and cancel sentinel land before the daemon starts: the
    // intake loop processes sentinels before admissions in the same
    // poll, so the cancel must always win.
    drop_circuit(&sb.watch, "doomed.qasm", &circuits()[0].1);
    std::fs::write(sb.watch.join("doomed.cancel"), "").unwrap();
    // A cancel for a job that never existed must be consumed silently.
    std::fs::write(sb.watch.join("ghost.cancel"), "").unwrap();
    let mut child = spawn_serve(&sb, &[], &[]);
    drop_circuit(&sb.watch, "survivor.qasm", &circuits()[2].1);

    wait_for("survivor output + cancel", Duration::from_secs(120), || {
        sb.out.join("survivor.restored.qasm").exists()
            && sb.watch.join("cancelled").join("doomed.qasm").exists()
    });
    drain(&sb, &mut child);

    assert!(
        !sb.out.join("doomed.restored.qasm").exists(),
        "cancelled job must not produce output"
    );
    assert!(
        !sb.watch.join("doomed.cancel").exists(),
        "sentinel consumed"
    );
    assert!(
        !sb.watch.join("ghost.cancel").exists(),
        "ghost sentinel consumed"
    );
    let status = read_status(&sb);
    assert_eq!(status.get_u64("cancelled"), Some(1));
    assert_eq!(status.get_u64("completed"), Some(1));
}

#[test]
fn priority_orders_execution_under_one_worker() {
    let sb = sandbox("priority");
    // All three land before the daemon starts, so they are admitted in
    // one poll batch; with one worker the heap order IS the run order.
    let c = &circuits()[2].1;
    drop_circuit(&sb.watch, "p9--low.qasm", c);
    drop_circuit(&sb.watch, "p1--high.qasm", c);
    drop_circuit(&sb.watch, "p5--mid.qasm", c);
    let mut child = spawn_serve(&sb, &["--workers", "1"], &[]);
    wait_for("all outputs", Duration::from_secs(120), || {
        read_outputs(&sb.out).len() == 3
    });
    drain(&sb, &mut child);

    let mtime = |id: &str| {
        std::fs::metadata(sb.out.join(format!("{id}.restored.qasm")))
            .unwrap()
            .modified()
            .unwrap()
    };
    let (high, mid, low) = (mtime("high"), mtime("mid"), mtime("low"));
    assert!(high <= mid, "priority 1 ran after priority 5");
    assert!(mid <= low, "priority 5 ran after priority 9");
}

#[test]
fn drain_under_load_loses_and_duplicates_nothing() {
    let sb = sandbox("drain_load");
    for (id, circuit) in circuits() {
        drop_circuit(&sb.watch, &format!("{id}.qasm"), &circuit);
    }
    // Drain lands in the same first poll as the admissions: whatever
    // was not finished must still be sitting in the watch dir.
    std::fs::write(sb.watch.join(SHUTDOWN_SENTINEL), "").unwrap();
    let mut child = spawn_serve(&sb, &["--workers", "2"], &[]);
    assert!(
        wait_exit(&mut child, Duration::from_secs(120)),
        "drain under load must exit 0"
    );

    // Conservation: every job is either done (output + input in done/)
    // or still pending in the watch dir — never both, never neither.
    for (id, _) in circuits() {
        let output = sb.out.join(format!("{id}.restored.qasm")).exists();
        let consumed = sb.watch.join("done").join(format!("{id}.qasm")).exists();
        let pending = sb.watch.join(format!("{id}.qasm")).exists();
        assert_eq!(output, consumed, "{id}: output and done/ disagree");
        assert!(
            output ^ pending,
            "{id}: job lost or duplicated (output={output}, pending={pending})"
        );
    }

    // A second serve run finishes the stragglers to the full set.
    let reference = batch_reference("drain_load");
    let mut child = spawn_serve(&sb, &["--workers", "2"], &[]);
    wait_for("all outputs", Duration::from_secs(120), || {
        read_outputs(&sb.out).len() == 3
    });
    drain(&sb, &mut child);
    assert_eq!(read_outputs(&sb.out), reference);
    assert_no_orphan_tmps(&sb);
}

#[test]
fn idle_loop_is_polling_bounded_not_busy_spinning() {
    let sb = sandbox("idle");
    let started = Instant::now();
    let mut child = spawn_serve(&sb, &["--poll-ms", "50"], &[]);
    std::thread::sleep(Duration::from_millis(900));
    drain(&sb, &mut child);
    let elapsed_ms = started.elapsed().as_millis() as u64;

    let status = read_status(&sb);
    let polls = status.get_u64("polls").expect("polls gauge");
    // Each poll sleeps 50 ms, so the count is bounded by wall clock
    // (+ slack for startup and the final drain poll). A busy-spinning
    // intake would be orders of magnitude over this.
    let bound = elapsed_ms / 50 + 10;
    assert!(
        polls <= bound,
        "{polls} polls in {elapsed_ms} ms (bound {bound}): intake is busy-spinning"
    );
    assert!(polls >= 2, "daemon never polled");
    assert_eq!(status.get_u64("admitted"), Some(0));
}

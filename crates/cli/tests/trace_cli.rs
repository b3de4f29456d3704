//! End-to-end `--trace` / `report` checks against the real binary.
//!
//! These drive the CLI as a subprocess rather than calling `run()`
//! in-process: the qobs sink and level are process-global, so an
//! in-process test would race with the unit-test suite's parallel
//! threads and pollute their (sink-free) runs.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tetrislock"));
    // Isolate from the ambient environment: `--trace` should imply full
    // tracing unless a test sets QOBS explicitly.
    cmd.env_remove("QOBS");
    cmd
}

/// A scratch directory unique to one test (pid + counter), removed on
/// drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tlk_cli_trace_test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    fn write(&self, name: &str, body: &str) -> PathBuf {
        let path = self.path(name);
        std::fs::write(&path, body).unwrap();
        path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n";

#[test]
fn verify_trace_roundtrip_and_report() {
    let dir = TestDir::new();
    let a = dir.write("rt_a.qasm", &format!("{HEADER}h q[0];\ncx q[0],q[1];\n"));
    let trace = dir.path("rt_equal.jsonl");

    let out = bin()
        .args([
            "verify",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let summary = qobs::schema::validate_trace(&text)
        .unwrap_or_else(|e| panic!("invalid trace: {e}\n{text}"));
    assert!(
        summary.spans >= 3,
        "cli.verify + verify.check + verify.tier"
    );
    for needle in [
        "\"command\":\"verify\"",
        "\"qsim_workers\"",
        "\"qsim_workers_env\"",
        "\"name\":\"cli.verify\"",
        "\"name\":\"verify.check\"",
        "\"name\":\"verify.tier\"",
        "\"outcome\":\"decided\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }

    let rep = bin()
        .args(["report", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(rep.status.success());
    let rendered = String::from_utf8_lossy(&rep.stdout);
    assert!(rendered.contains("verify.tier"), "{rendered}");
    assert!(rendered.contains("<- decided"), "{rendered}");
}

#[test]
fn dense_tier_trace_records_kernel_class_counts() {
    // An 8-control mcx (past the ZX translation bound) with a t/tdg
    // garnish: non-classical, non-Clifford, and the miter never even
    // becomes a ZX diagram — so the dense tier decides. (t vs tdg alone
    // no longer works here: the ZX tier certifies it with a
    // phase-replay witness.) Six leading Hadamards give every column 64
    // live amplitudes, past the 9-qubit support budget of 32, so the
    // sparse column trips and the check falls back to the qsim
    // statevector kernels.
    let dir = TestDir::new();
    let wide = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[9];\n";
    let hs = "h q[0];\nh q[1];\nh q[2];\nh q[3];\nh q[4];\nh q[5];\n";
    let mcx = "mcx8 q[0],q[1],q[2],q[3],q[4],q[5],q[6],q[7],q[8];\n";
    let a = dir.write("dt_t.qasm", &format!("{wide}{hs}{mcx}t q[8];\n"));
    let b = dir.write("dt_tdg.qasm", &format!("{wide}{hs}{mcx}tdg q[8];\n"));
    let trace = dir.path("dt_dense.jsonl");

    let out = bin()
        .args([
            "verify",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "t vs tdg must be inequivalent");

    let text = std::fs::read_to_string(&trace).unwrap();
    qobs::schema::validate_trace(&text).unwrap_or_else(|e| panic!("invalid trace: {e}\n{text}"));
    assert!(text.contains("\"tier\":\"dense\""), "{text}");
    assert!(text.contains("qsim.column.budget_trips"), "{text}");
    assert!(
        text.contains("qverify.dense.statevector_fallbacks"),
        "{text}"
    );
    assert!(text.contains("qsim.kernel."), "{text}");
    assert!(text.contains("\"name\":\"cli.error\""), "{text}");
}

#[test]
fn qobs_env_overrides_trace_level() {
    let dir = TestDir::new();
    let a = dir.write("lv_a.qasm", &format!("{HEADER}h q[0];\n"));
    let trace = dir.path("lv_counters.jsonl");

    let out = bin()
        .env("QOBS", "counters")
        .args([
            "verify",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    let text = std::fs::read_to_string(&trace).unwrap();
    qobs::schema::validate_trace(&text).unwrap_or_else(|e| panic!("invalid trace: {e}\n{text}"));
    assert!(!text.contains("\"type\":\"span\""), "{text}");
    assert!(text.contains("\"type\":\"counter\""), "{text}");
}

#[test]
fn report_rejects_malformed_trace() {
    let dir = TestDir::new();
    let bad = dir.write("bad.jsonl", "not json\n");
    let out = bin()
        .args(["report", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid trace"), "{err}");
}

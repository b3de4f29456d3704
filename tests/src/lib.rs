//! Integration test host crate (tests live in tests/tests/), plus the
//! helpers the subprocess suites share.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Locates the `tetrislock` binary next to the test executable
/// (`target/debug/deps/<test>` → `target/debug/tetrislock`), building
/// it on demand if a bare `cargo test -p tetrislock-tests` got here
/// without it.
pub fn tetrislock_bin() -> PathBuf {
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

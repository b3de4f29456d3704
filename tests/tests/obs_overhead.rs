//! Observability overhead pins: with `QOBS=off` the instrumented qsim
//! hot path must stay within noise of the uninstrumented engine.
//!
//! There is no uninstrumented binary left to race against, so the pin
//! has two parts, both at the 16-qubit smoke scale `perfdump` and
//! `fusion_regression` time:
//!
//! 1. the seed's wall-clock bound (fused ≤ per-gate × 1.5 + 5 ms,
//!    best-of-4) still holds with the instrumentation compiled in and
//!    explicitly disabled;
//! 2. disabled instrumentation is not slower than counter-level
//!    instrumentation beyond the same noise allowance — the off path
//!    really is the cheap path (one relaxed atomic load per probe).
//!
//! The qobs level is process-global; this file is its own test binary,
//! and its tests serialize on `TEST_LOCK` and restore the level they
//! found.

use qsim::Statevector;
use std::sync::Mutex;
use std::time::Instant;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Best-of-4 wall time of `run` on a fresh `|0…0⟩` register. The first
/// iteration doubles as warmup; best-of keeps the noise one-sided.
fn best_of_4(circuit: &qcir::Circuit, run: impl Fn(&mut Statevector)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let mut sv = Statevector::zero(circuit.num_qubits()).expect("within cap");
        let start = Instant::now();
        run(&mut sv);
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(sv.probability(0));
    }
    best
}

fn fused(circuit: &qcir::Circuit) -> impl Fn(&mut Statevector) + '_ {
    move |sv| sv.apply_circuit(circuit).expect("fits")
}

/// Per-gate dispatch: one `Statevector::apply` per instruction, no
/// fusion pre-pass.
fn per_gate(circuit: &qcir::Circuit) -> impl Fn(&mut Statevector) + '_ {
    move |sv| {
        for inst in circuit.iter() {
            sv.apply(inst).expect("fits");
        }
    }
}

/// Part 1: the seed's fused-vs-per-gate wall-clock bound, re-run with
/// the instrumented engine at `QOBS=off`.
#[test]
fn qobs_off_keeps_seed_fusion_wall_clock_bound() {
    let _guard = lock();
    let prior = qobs::level();
    qobs::set_level(qobs::Level::Off);

    let circuit = bench::clifford_t_circuit(16, 200);
    let fused = best_of_4(&circuit, fused(&circuit));
    let per_gate = best_of_4(&circuit, per_gate(&circuit));
    qobs::set_level(prior);
    assert!(
        fused <= per_gate * 1.5 + 0.005,
        "QOBS=off: fused {fused:.6}s vs per-gate {per_gate:.6}s at 16q"
    );
}

/// Part 2: `QOBS=off` is not slower than `QOBS=counters` beyond the
/// same lenient noise allowance.
#[test]
fn qobs_off_not_slower_than_counters() {
    let _guard = lock();
    let prior = qobs::level();
    let circuit = bench::clifford_t_circuit(16, 200);

    qobs::set_level(qobs::Level::Off);
    let off = best_of_4(&circuit, fused(&circuit));
    qobs::set_level(qobs::Level::Counters);
    let counters = best_of_4(&circuit, fused(&circuit));
    qobs::set_level(prior);

    assert!(
        off <= counters * 1.5 + 0.005,
        "QOBS=off {off:.6}s vs QOBS=counters {counters:.6}s at 16q"
    );
}

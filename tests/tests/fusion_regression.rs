//! Fusion must never lose: the wall-clock pin that fusing every
//! single-qubit run is not slower than per-gate dispatch.
//!
//! `Statevector::apply_circuit` fuses every run of two or more
//! single-qubit gates at `FUSION_MIN_QUBITS`+ qubits. The per-gate
//! baseline applies the same circuit one instruction at a time through
//! `Statevector::apply`, which dispatches each gate to its specialized
//! kernel with no fusion pre-pass. At 16 qubits neither path threads nor
//! layers, so the two differ only in fusion.

use qsim::Statevector;
use std::time::Instant;

/// One lenient wall-clock pin at the 16-qubit smoke scale `perfdump`
/// times. The 1.5× slack (plus a small absolute floor) absorbs
/// scheduler noise on loaded CI runners; best-of-4 keeps the noise
/// one-sided and the first run doubles as warmup.
#[test]
fn fused_wall_clock_not_slower_on_smoke_circuit() {
    let circuit = bench::clifford_t_circuit(16, 200);
    let best_of_4 = |fuse: bool| {
        let mut best = f64::INFINITY;
        for _ in 0..4 {
            let mut sv = Statevector::zero(circuit.num_qubits()).expect("within cap");
            let start = Instant::now();
            if fuse {
                sv.apply_circuit(&circuit).expect("fits");
            } else {
                for inst in circuit.iter() {
                    sv.apply(inst).expect("fits");
                }
            }
            best = best.min(start.elapsed().as_secs_f64());
            std::hint::black_box(sv.probability(0));
        }
        best
    };
    let fused = best_of_4(true);
    let per_gate = best_of_4(false);
    assert!(
        fused <= per_gate * 1.5 + 0.005,
        "fused {fused:.6}s vs per-gate {per_gate:.6}s at 16q"
    );
}

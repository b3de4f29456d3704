//! Criterion bench: simulator throughput — the substrate cost behind
//! every accuracy/TVD data point (1000-shot noisy runs), plus the
//! kernel-engine groups: statevector scaling at 16/20/24/28 qubits,
//! the fused/unfused/naive comparison that makes the engine's win
//! measurable rather than claimed, and the layer-blocked vs per-op
//! sweep comparison at 20 qubits.
//!
//! The 24q and 28q scaling cases allocate multi-GiB states and take
//! tens of seconds per iteration; run this bench deliberately.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsim::statevector::{ExecConfig, MAX_QUBITS};
use qsim::{Sampler, Statevector};
use revlib::{adder_1bit, rd53, rd84};

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    for bench in [adder_1bit(), rd53(), rd84()] {
        group.bench_with_input(
            BenchmarkId::from_parameter(bench.name()),
            bench.circuit(),
            |b, circuit| {
                b.iter(|| Statevector::from_circuit(circuit).expect("fits"));
            },
        );
    }
    group.finish();
}

fn bench_noisy_shots(c: &mut Criterion) {
    let mut group = c.benchmark_group("noisy_1000_shots");
    group.sample_size(10);
    for bench in [adder_1bit(), rd53(), rd84()] {
        let device = tetrislock::job::device_for("valencia", bench.circuit().num_qubits())
            .expect("valencia fits any width");
        group.bench_with_input(
            BenchmarkId::from_parameter(bench.name()),
            bench.circuit(),
            |b, circuit| {
                let sampler = Sampler::new(1000).with_seed(1);
                b.iter(|| sampler.run_noisy(circuit, device.noise()).expect("fits"));
            },
        );
    }
    group.finish();
}

fn bench_statevector_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_scaling");
    group.sample_size(10);
    for (n, gates) in [(16, 200), (20, 160), (24, 60), (MAX_QUBITS, 40)] {
        let circuit = bench::clifford_t_circuit(n, gates);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}q")),
            &circuit,
            |b, circuit| {
                b.iter(|| Statevector::from_circuit(circuit).expect("fits"));
            },
        );
    }
    group.finish();
}

fn bench_fused_vs_unfused(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_fusion");
    group.sample_size(10);
    let cases = [
        ("rd84", rd84().circuit().clone()),
        ("clifford_t_20q", bench::clifford_t_circuit(20, 160)),
    ];
    for (name, circuit) in &cases {
        group.bench_with_input(BenchmarkId::new("fused", name), circuit, |b, circuit| {
            b.iter(|| {
                let mut sv = Statevector::zero(circuit.num_qubits()).expect("fits");
                sv.apply_circuit_with(circuit, &ExecConfig::default())
                    .expect("fits");
                sv
            });
        });
        group.bench_with_input(BenchmarkId::new("unfused", name), circuit, |b, circuit| {
            b.iter(|| {
                let mut sv = Statevector::zero(circuit.num_qubits()).expect("fits");
                sv.apply_circuit_with(circuit, &ExecConfig::unfused())
                    .expect("fits");
                sv
            });
        });
        // The pre-engine full-scan loops: the baseline the ≥2× claim is
        // measured against.
        group.bench_with_input(
            BenchmarkId::new("naive_baseline", name),
            circuit,
            |b, circuit| {
                b.iter(|| qsim::statevector::reference::from_circuit(circuit));
            },
        );
    }
    group.finish();
}

fn bench_layer_blocking(c: &mut Criterion) {
    use qsim::Blocking;
    let mut group = c.benchmark_group("statevector_layering");
    group.sample_size(10);
    // 20q sits right at LAYER_MIN_QUBITS: Auto and Force both layer,
    // Off pays one full-state sweep per kernel op, so this group
    // measures exactly what the blocked sweeps save.
    let circuit = bench::clifford_t_circuit(20, 160);
    for (name, blocking) in [("blocked", Blocking::Force), ("off", Blocking::Off)] {
        group.bench_with_input(
            BenchmarkId::new(name, "clifford_t_20q"),
            &circuit,
            |b, circuit| {
                let config = ExecConfig {
                    blocking,
                    ..ExecConfig::default()
                };
                b.iter(|| {
                    let mut sv = Statevector::zero(circuit.num_qubits()).expect("fits");
                    sv.apply_circuit_with(circuit, &config).expect("fits");
                    sv
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_statevector,
    bench_noisy_shots,
    bench_statevector_scaling,
    bench_fused_vs_unfused,
    bench_layer_blocking
);
criterion_main!(benches);

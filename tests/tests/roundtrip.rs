//! End-to-end roundtrip: obfuscate → split → recombine must restore the
//! exact function of every RevLib benchmark, across seeds.
//!
//! For the classical benchmarks the check is *exhaustive over all basis
//! inputs* (the recombined circuit, evaluated as a classical permutation,
//! must equal the benchmark's independent reference).

use qcir::persist::{fnv1a64, to_envelope};
use qcir::qasm::to_qasm;
use revlib::spec::classical_eval;
use revlib::{all_benchmarks, table1_benchmarks};
use std::process::Command;
use tetrislock::multiway::MultiwayPattern;
use tetrislock::recombine::recombine;
use tetrislock::{GatePolicy, InsertionConfig, InterlockPattern, Obfuscation, Obfuscator};
use tetrislock_tests::tetrislock_bin;

#[test]
fn obfuscation_preserves_every_benchmark_exhaustively() {
    for bench in all_benchmarks() {
        let c = bench.circuit();
        for seed in 0..5u64 {
            let obf = Obfuscator::new().with_seed(seed).obfuscate(c);
            let n = c.num_qubits();
            for input in 0..1usize << n {
                assert_eq!(
                    classical_eval(obf.obfuscated(), input).unwrap(),
                    bench.eval(input),
                    "{} seed {seed} input {input}: obfuscation broke the function",
                    bench.name()
                );
            }
        }
    }
}

#[test]
fn split_and_recombine_restores_every_benchmark() {
    for bench in table1_benchmarks() {
        let c = bench.circuit();
        for seed in 0..5u64 {
            let obf = Obfuscator::new().with_seed(seed).obfuscate(c);
            let split = obf.split(seed.wrapping_mul(31) + 5);
            let restored = recombine(&split).expect("recombination is total");
            let n = c.num_qubits();
            for input in 0..1usize << n {
                assert_eq!(
                    classical_eval(&restored, input).unwrap(),
                    bench.eval(input),
                    "{} seed {seed} input {input}: recombination diverged",
                    bench.name()
                );
            }
        }
    }
}

#[test]
fn depth_never_grows_for_any_benchmark_or_seed() {
    for bench in all_benchmarks() {
        let c = bench.circuit();
        for seed in 0..10u64 {
            let obf = Obfuscator::new().with_seed(seed).obfuscate(c);
            assert_eq!(
                obf.obfuscated().depth(),
                c.depth(),
                "{} seed {seed}: depth changed",
                bench.name()
            );
        }
    }
}

#[test]
fn every_pair_is_separated_by_the_split() {
    for bench in table1_benchmarks() {
        let c = bench.circuit();
        for seed in 0..5u64 {
            let obf = Obfuscator::new().with_seed(seed).obfuscate(c);
            let split = obf.split(seed + 1000);
            for pair in &obf.insertion().pairs {
                let inv = obf.obfuscated().instructions()[pair.inverse_index].clone();
                let fwd = obf.obfuscated().instructions()[pair.forward_index].clone();
                let inv_in_left = inv
                    .remapped(&split.left.wire_map)
                    .map(|m| split.left.circuit.iter().any(|i| *i == m))
                    .unwrap_or(false);
                let fwd_in_right = fwd
                    .remapped(&split.right.wire_map)
                    .map(|m| split.right.circuit.iter().any(|i| *i == m))
                    .unwrap_or(false);
                assert!(
                    inv_in_left && fwd_in_right,
                    "{} seed {seed}: pair {:?} not separated",
                    bench.name(),
                    pair.gate
                );
            }
        }
    }
}

#[test]
fn masking_corrupts_output_for_most_insertions() {
    // Figure 4's premise: the masked view RC (key withheld) produces a
    // different result than the original on the zero input whenever an X
    // half actually fires. Check that masking changes the function for a
    // healthy fraction of seeded runs on the multi-bit circuits.
    for bench in [revlib::rd53(), revlib::rd73(), revlib::rd84()] {
        let c = bench.circuit();
        let mut corrupted = 0;
        let mut inserted_any = 0;
        for seed in 0..10u64 {
            let obf = Obfuscator::new().with_seed(seed).obfuscate(c);
            if obf.inserted_count() == 0 {
                continue;
            }
            inserted_any += 1;
            let masked = obf.masked_circuit();
            if classical_eval(&masked, 0).unwrap() != bench.eval(0) {
                corrupted += 1;
            }
        }
        assert!(inserted_any >= 8, "{}: almost no insertions", bench.name());
        assert!(
            corrupted * 2 >= inserted_any,
            "{}: masking corrupted only {corrupted}/{inserted_any} runs",
            bench.name()
        );
    }
}

#[test]
fn multiway_splits_restore_every_benchmark() {
    use tetrislock::multiway::MultiwayPattern;
    for bench in table1_benchmarks() {
        let c = bench.circuit();
        let n = c.num_qubits();
        for k in [3usize, 4] {
            let obf = Obfuscator::new().with_seed(2).obfuscate(c);
            let pattern = MultiwayPattern::random_for(&obf, k, 9);
            let split = pattern.split(&obf);
            let restored = split.recombine().expect("recombination is total");
            // Sampled inputs for the big registers, exhaustive for small.
            let step = if n > 8 { 13 } else { 1 };
            for input in (0..1usize << n).step_by(step) {
                assert_eq!(
                    classical_eval(&restored, input).unwrap(),
                    bench.eval(input),
                    "{} k={k} input {input}",
                    bench.name()
                );
            }
            // Pair halves in ascending segments.
            for pair in &obf.insertion().pairs {
                assert!(
                    split.assignment[pair.inverse_index] < split.assignment[pair.forward_index],
                    "{} k={k}: pair not separated",
                    bench.name()
                );
            }
        }
    }
}

#[test]
fn gate_overhead_within_paper_budget() {
    // Paper: "a total of 1–4 gates inserted", default budget 4.
    for bench in table1_benchmarks() {
        for seed in 0..10u64 {
            let obf = Obfuscator::new()
                .with_config(InsertionConfig {
                    seed,
                    ..Default::default()
                })
                .obfuscate(bench.circuit());
            assert!(obf.insertion().gate_overhead() <= 4);
        }
    }
}

/// Insertion seeds of the byte pins; seed `s` splits with seed `s + 1`.
const PIN_SEEDS: [u64; 3] = [0, 1, 2];

/// FNV-1a digests of the split and recombine outputs, per benchmark and
/// insertion seed: the two-way `SplitPair` envelope; the two-way
/// segment QASM followed by the restored QASM; the same for the k = 3
/// and the k = 4 split.
#[rustfmt::skip]
const PINS: &[(&str, u64, [u64; 4])] = &[
    ("mini ALU", 0, [0x184fe0dcb95eb269, 0x3ee8fc6570d587df, 0x491539f8e568d24e, 0x069837dfd576e5ad]),
    ("mini ALU", 1, [0x59bcffac31a78a2e, 0x9840eb152dca9153, 0x8a9818d72303142e, 0xa187a835f4be8d4c]),
    ("mini ALU", 2, [0xaf9b4c440a50e1e8, 0x9840eb152dca9153, 0x07d5caa2c0a72cbb, 0xb2b6e72b35fdaa94]),
    ("4mod5", 0, [0x06315f66e0d53a8a, 0x844f91ebfff33bab, 0x84dfb90f504aa632, 0x8cd4c988db7d9a60]),
    ("4mod5", 1, [0x8403d13b415f47c1, 0x39df1e61058d2c85, 0xa0014368c6af14e6, 0x2e94c713b33da693]),
    ("4mod5", 2, [0x52a4f995a07e3ebf, 0x39df1e61058d2c85, 0x18d105f559c46191, 0xedadbef75241774f]),
    ("1-bit adder", 0, [0x5dff5b67171d2fe7, 0x65314f01f4a80f50, 0x96f6303b986e973f, 0xd56cedc6eb346ec5]),
    ("1-bit adder", 1, [0xeaa9458fb5d3f038, 0x65314f01f4a80f50, 0xbe1b52fc6acc83e7, 0xbd2657bc045e0bed]),
    ("1-bit adder", 2, [0x79a169b411da9261, 0x42459cfa634d3f12, 0x32136041c3f7d5f6, 0x75707174b3d541bb]),
    ("4gt11", 0, [0x6ee916c95bba5553, 0x83e62b0ed6bb6bd6, 0xde2ddc8765f1b5b7, 0x9809529fca765605]),
    ("4gt11", 1, [0xef763a6ff593adc9, 0x27ff62180fcdd5d9, 0xb4322560584e00fc, 0x2d9f9e131d063a89]),
    ("4gt11", 2, [0x197cddfc2b8c12ae, 0xc5fb038ef06cbbd2, 0xb927cd7a7e1a1552, 0xf0ddb2f0f29466de]),
    ("4gt13", 0, [0x1e012a3128b99bed, 0x96e55e7d165d440b, 0xe93a4e556c51170e, 0xffb94012738f5699]),
    ("4gt13", 1, [0x03e4e77b73dceb65, 0x86a44539e8b6c5cf, 0xe337860dd4875a26, 0x0f8c0028920f91f7]),
    ("4gt13", 2, [0x0912cec3b78e29da, 0x96e55e7d165d440b, 0x3f478da0b261b8e8, 0x441babefe4e1e089]),
    ("rd53", 0, [0xd725087158a767a1, 0xb4fed11fe4079e43, 0xe3f3805a8a95ee80, 0x1c676470cc03bb94]),
    ("rd53", 1, [0xabd59b8997bb957e, 0xb5913b4c0dca0b62, 0xeb81cad457254cc7, 0xd7b9866a6000f6d0]),
    ("rd53", 2, [0x61138ef170f0f72f, 0x8fa9027b12470f6c, 0x4178890a66eb1a45, 0x0cc0ee4549d12bac]),
    ("rd73", 0, [0xcf8f1dc07062c321, 0x58009ed98de64bfe, 0xd295d71f7a99d412, 0xe9625b346f067bee]),
    ("rd73", 1, [0x20cf6b7e09944ac7, 0xccdf4074d3522236, 0x2e5bfa94c3e24eb5, 0x7b399105c3c8ae84]),
    ("rd73", 2, [0xc2c028b535438205, 0xd6fd2e0f927b8337, 0xe449b18005e31295, 0xa3c2e528128287f1]),
    ("rd84", 0, [0x03eb83dffb0720bc, 0xcfd4ec36e2c9b829, 0xed60fe7723a97205, 0x727584acd3470908]),
    ("rd84", 1, [0x76ef1d39345afb4d, 0x386e478bbaaadd25, 0x8edc4b9ae0622287, 0x252bfedbbb063bc3]),
    ("rd84", 2, [0x4e655de0019c4447, 0x6db809109cc2799b, 0xc2edd4fea2463962, 0x09d2ceac7732d14f]),
    ("2-bit adder", 0, [0xf28d0d851c818e96, 0xbc3e6ead91906ac5, 0x434246f1446409b5, 0x5affc20378acc9f8]),
    ("2-bit adder", 1, [0x310fbc8b9b16efc2, 0x86ddae864c6642ac, 0x7cc133c7a497bb48, 0xa42de06ab9bc1e7c]),
    ("2-bit adder", 2, [0xcd4897888ab0a74b, 0x76f8e8bbf20273ab, 0x66b99af7ede404ff, 0xe894277d4ad6f1bc]),
    ("4gt5", 0, [0xb5d8006f9e756a5c, 0xb432dbea21fe9f55, 0x426ff3959553c169, 0x735a2af0285009fd]),
    ("4gt5", 1, [0x5d7361fb817cbfc5, 0x698fe03211c422ff, 0x792922d205a67143, 0xaa22f3d3664d0f73]),
    ("4gt5", 2, [0x2bdc64070cf665dc, 0x698fe03211c422ff, 0x792922d205a67143, 0x68f8898bd6f0267f]),
    ("mod_mixer", 0, [0x100be712a13986d4, 0xff5b299670bfc7fb, 0x4d6572e9bb69dbb9, 0x6f26184492d87c6e]),
    ("mod_mixer", 1, [0xa3129a37d5cd5e34, 0xbf23f6199d7b91a7, 0xb58f77fde4146886, 0xf64cfedb66aa6e3e]),
    ("mod_mixer", 2, [0x94c48e01fb921ce2, 0xbf23f6199d7b91a7, 0x5d2ad0ba17f18b3d, 0xea7dc4c3cf0e280a]),
    ("rd43", 0, [0x11f1ef4c22b88b71, 0x3f4e5bd7c1ea73b4, 0xffb011960b4c9082, 0xe04c85589d35613b]),
    ("rd43", 1, [0x0bfbb7e12c0c2eb3, 0x7c136dafb7a5b0a8, 0xef689847cb4a1f1a, 0x31de104a0e6f6f87]),
    ("rd43", 2, [0xa45183d9da9050e7, 0x738e59d59055d6a7, 0xf20be4a182218c82, 0x1151e52753280cdd]),
    ("toffoli_double", 0, [0xe8ae236c64f81474, 0xbfd4b3bd0b0343ab, 0xa1b3033f03874a63, 0x19bea784fe2f1b7d]),
    ("toffoli_double", 1, [0x8c4b5dd8c65c3bcb, 0xbfd4b3bd0b0343ab, 0x38858220bc569c10, 0x40c906e8d6aee17a]),
    ("toffoli_double", 2, [0xc0382b323e8519bb, 0xf5adcf68d2664e66, 0xa1b3033f03874a63, 0x5b8d5917b07570ea]),
    ("graycode6", 0, [0x92b81be34027951e, 0x5864c01e23a8c16a, 0x214a49d39abbffff, 0x696090551e1b5670]),
    ("graycode6", 1, [0x584623ac3ed35a6f, 0x66b315531f5e8e4a, 0xb5442e50f593bbfb, 0xa2bc9dde5c285dfe]),
    ("graycode6", 2, [0x5b16133c3f47c96f, 0x1c016a277790d4de, 0x8ebf6d9f1a611a06, 0xe5ff3b4440bf003a]),
    ("parity9", 0, [0x0bf2bb626c577355, 0x9e4978d03915b958, 0x116b40a473dd4858, 0x6e430e958220f411]),
    ("parity9", 1, [0xcb5646fd4701e8ef, 0x9df4bbf961f1d774, 0x6ea97f4d71dcb982, 0x1b06c0fdc41e7372]),
    ("parity9", 2, [0x89953372687888c9, 0xaf0cf5986371e395, 0x05ed2c4672a21236, 0x59c89f0c9524bf6c]),
    ("majority5", 0, [0x0df4034db16094e8, 0xd534d024c71ac68b, 0x9f1fbc9472ee92e5, 0x2c8cd921e27940de]),
    ("majority5", 1, [0x4b2681a0d840e65d, 0xdb85a66f7c5ed58c, 0xb3f3c98399af1085, 0xb52df4da1c01a66c]),
    ("majority5", 2, [0xeea01f6a66167e51, 0x749f068a5513ca7a, 0x988d75fa11073ad5, 0x35aa8c0ab5da712d]),
];

fn obfuscation(bench: &revlib::Benchmark, seed: u64) -> Obfuscation {
    Obfuscator::new().with_seed(seed).obfuscate(bench.circuit())
}

fn qasm_digest<'a>(circuits: impl IntoIterator<Item = &'a qcir::Circuit>) -> u64 {
    let text: String = circuits.into_iter().map(to_qasm).collect();
    fnv1a64(text.as_bytes())
}

fn split_digests(obf: &Obfuscation, seed: u64) -> [u64; 4] {
    let split = obf.split(seed + 1);
    let restored = recombine(&split).expect("recombination is total");
    let two_way = qasm_digest([&split.left.circuit, &split.right.circuit, &restored]);
    let k_way = |k: usize| {
        let split = MultiwayPattern::random_for(obf, k, seed + 1).split(obf);
        let restored = split.recombine().expect("recombination is total");
        qasm_digest(split.segments.iter().map(|s| &s.circuit).chain([&restored]))
    };
    [fnv1a64(&to_envelope(&split)), two_way, k_way(3), k_way(4)]
}

#[test]
fn split_and_recombine_bytes_are_pinned() {
    let mut actual = Vec::new();
    for bench in all_benchmarks() {
        for seed in PIN_SEEDS {
            actual.push((
                bench.name().to_string(),
                seed,
                split_digests(&obfuscation(&bench, seed), seed),
            ));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, seed, d)| {
            format!(
                "    (\"{name}\", {seed}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2], d[3]
            )
        })
        .collect();
    let expected: Vec<(String, u64, [u64; 4])> = PINS
        .iter()
        .map(|&(name, seed, d)| (name.to_string(), seed, d))
        .collect();
    assert_eq!(
        actual, expected,
        "split/recombine bytes moved; now:\n{table}"
    );
}

/// FNV-1a digest of every obfuscated QASM and its `InsertedPair`
/// records, over all benchmarks × gate policies × gate limits
/// 2/4/8 × insertion seeds 0–4.
const INSERTION_PIN: u64 = 0xb31c381deed2c946;

/// Algorithm 1's bytes are pinned beyond the default policy and limit,
/// and the first interlocking draw separates every inserted pair.
#[test]
fn insertion_and_first_draw_split_are_pinned() {
    let mut text = String::new();
    for bench in all_benchmarks() {
        for policy in [GatePolicy::XCx, GatePolicy::Hadamard, GatePolicy::Mixed] {
            for gate_limit in [2, 4, 8] {
                for seed in 0..5u64 {
                    let config = InsertionConfig {
                        gate_limit,
                        policy,
                        seed,
                    };
                    let obf = Obfuscator::new()
                        .with_config(config)
                        .obfuscate(bench.circuit());
                    text.push_str(&to_qasm(obf.obfuscated()));
                    for p in &obf.insertion().pairs {
                        let wires: Vec<usize> = p.qubits.iter().map(|q| q.index()).collect();
                        text.push_str(&format!(
                            "pair {} {wires:?} {} {} {} {}\n",
                            p.gate,
                            p.inverse_layer,
                            p.forward_layer,
                            p.inverse_index,
                            p.forward_index
                        ));
                    }
                    for split_seed in 0..5u64 {
                        let split = InterlockPattern::random_for(&obf, split_seed).split(&obf);
                        assert!(
                            obf.split_separates_pairs(&split),
                            "{} {policy:?} limit {gate_limit} seed {seed}: split seed {split_seed} left a pair unseparated",
                            bench.name()
                        );
                    }
                }
            }
        }
    }
    let digest = fnv1a64(text.as_bytes());
    assert_eq!(
        digest, INSERTION_PIN,
        "insertion bytes moved; now {digest:#018x}"
    );
}

/// The CLI's `protect` writes the library's two-way segments and its
/// `recombine` writes the library's restored circuit, byte for byte.
/// An empty segment is written as a one-wire placeholder that the
/// metadata does not map, so the CLI gives that wire an ancilla and
/// its restored register is one wider; those splits compare segments
/// only.
#[test]
fn cli_protect_and_recombine_match_the_library() {
    let bin = tetrislock_bin();
    let dir = std::env::temp_dir().join(format!("tlk_roundtrip_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let run = |args: &[String]| {
        let out = Command::new(&bin)
            .args(args)
            .output()
            .expect("spawn tetrislock");
        assert!(
            out.status.success(),
            "tetrislock {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    for bench in all_benchmarks() {
        std::fs::write(path("c.qasm"), to_qasm(bench.circuit())).unwrap();
        for seed in PIN_SEEDS {
            let split = obfuscation(&bench, seed).split(seed + 1);
            let restored = recombine(&split).expect("recombination is total");
            let flags = [
                "--seed".to_string(),
                seed.to_string(),
                "--split-seed".to_string(),
                (seed + 1).to_string(),
                "--meta".to_string(),
                path("m.tlk"),
            ];
            let mut protect = vec!["protect".to_string(), path("c.qasm")];
            protect.extend(flags.iter().cloned());
            protect.extend(["--out-left".to_string(), path("l.qasm")]);
            protect.extend(["--out-right".to_string(), path("r.qasm")]);
            run(&protect);
            let read = |name: &str| std::fs::read_to_string(path(name)).unwrap();
            let context = format!("{} seed {seed}", bench.name());
            assert_eq!(
                read("l.qasm"),
                to_qasm(&split.left.circuit),
                "{context}: left"
            );
            assert_eq!(
                read("r.qasm"),
                to_qasm(&split.right.circuit),
                "{context}: right"
            );
            if split.left.circuit.is_empty() || split.right.circuit.is_empty() {
                continue;
            }
            run(&[
                "recombine".to_string(),
                path("l.qasm"),
                path("r.qasm"),
                "--meta".to_string(),
                path("m.tlk"),
                "--out".to_string(),
                path("restored.qasm"),
            ]);
            assert_eq!(
                read("restored.qasm"),
                to_qasm(&restored),
                "{context}: restored"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

//! Random circuit generation.
//!
//! Seeded generators for the circuit families the workspace's tests and
//! benchmarks sweep over: classical reversible networks (the RevLib
//! domain) and general unitary circuits (for the simulator and
//! transpiler).

use crate::circuit::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for random circuit generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomCircuitConfig {
    /// Register size.
    pub num_qubits: u32,
    /// Number of gates to draw.
    pub num_gates: usize,
    /// RNG seed.
    pub seed: u64,
}

impl RandomCircuitConfig {
    /// A convenient starting configuration.
    pub fn new(num_qubits: u32, num_gates: usize, seed: u64) -> Self {
        RandomCircuitConfig {
            num_qubits,
            num_gates,
            seed,
        }
    }
}

/// Generates a random *classical reversible* circuit (X/CX/CCX pool),
/// the gate family RevLib benchmarks are built from.
///
/// # Panics
///
/// Panics if `num_qubits == 0`.
///
/// # Example
///
/// ```
/// use qcir::random::{random_reversible, RandomCircuitConfig};
///
/// let c = random_reversible(&RandomCircuitConfig::new(5, 12, 7));
/// assert_eq!(c.gate_count(), 12);
/// assert!(c.iter().all(|i| i.gate().is_classical()));
/// ```
pub fn random_reversible(config: &RandomCircuitConfig) -> Circuit {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.num_qubits;
    assert!(n > 0, "register must be non-empty");
    let mut c = Circuit::with_name(n, format!("random_reversible_{}", config.seed));
    for _ in 0..config.num_gates {
        let arity = match n {
            1 => 1,
            2 => rng.gen_range(1..=2),
            _ => rng.gen_range(1..=3),
        };
        let wires = distinct_wires(arity, n, &mut rng);
        match arity {
            1 => c.x(wires[0]),
            2 => c.cx(wires[0], wires[1]),
            _ => c.ccx(wires[0], wires[1], wires[2]),
        };
    }
    c
}

/// Generates a random unitary circuit over the pool
/// {H, S, T, X, Rz, Rx, CX, CZ}, useful for exercising the simulator and
/// transpiler beyond classical networks.
///
/// # Panics
///
/// Panics if `num_qubits == 0`.
///
/// # Example
///
/// ```
/// use qcir::random::{random_unitary_circuit, RandomCircuitConfig};
///
/// let c = random_unitary_circuit(&RandomCircuitConfig::new(4, 20, 3));
/// assert_eq!(c.gate_count(), 20);
/// ```
pub fn random_unitary_circuit(config: &RandomCircuitConfig) -> Circuit {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.num_qubits;
    assert!(n > 0, "register must be non-empty");
    let mut c = Circuit::with_name(n, format!("random_unitary_{}", config.seed));
    for _ in 0..config.num_gates {
        let two_qubit = n >= 2 && rng.gen::<f64>() < 0.4;
        if two_qubit {
            let wires = distinct_wires(2, n, &mut rng);
            if rng.gen::<bool>() {
                c.cx(wires[0], wires[1]);
            } else {
                c.cz(wires[0], wires[1]);
            }
        } else {
            let q = rng.gen_range(0..n);
            match rng.gen_range(0..6u8) {
                0 => c.h(q),
                1 => c.s(q),
                2 => c.t(q),
                3 => c.x(q),
                4 => c.rz(
                    rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
                    q,
                ),
                _ => c.rx(
                    rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
                    q,
                ),
            };
        }
    }
    c
}

/// A seeded Clifford+T circuit over {H, S, T, X, CX, CZ} at the
/// canonical per-width seed `0xC0DE + n` — the workload generator of
/// the `perfdump` scaling suite, the `perfdump_qverify` wrong-key rows,
/// perfbench's Clifford+T wrong-key cases (re-exported as
/// `bench::clifford_t_circuit`) and the statevector engine's tests.
///
/// # Panics
///
/// Panics if `n < 2` and a two-qubit gate is drawn.
///
/// # Example
///
/// ```
/// let c = qcir::random::clifford_t_circuit(16, 200);
/// assert_eq!((c.num_qubits(), c.gate_count()), (16, 200));
/// assert_eq!(c, qcir::random::clifford_t_circuit(16, 200));
/// ```
pub fn clifford_t_circuit(n: u32, gates: usize) -> Circuit {
    let mut rng = StdRng::seed_from_u64(0xC0DE + n as u64);
    let mut c = Circuit::with_name(n, format!("clifford_t_{n}q"));
    for _ in 0..gates {
        match rng.gen_range(0..6u8) {
            0 => c.h(rng.gen_range(0..n)),
            1 => c.s(rng.gen_range(0..n)),
            2 => c.t(rng.gen_range(0..n)),
            3 => c.x(rng.gen_range(0..n)),
            4 => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                c.cx(a, b)
            }
            _ => {
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                c.cz(a, b)
            }
        };
    }
    c
}

fn distinct_wires<R: Rng + ?Sized>(count: usize, n: u32, rng: &mut R) -> Vec<u32> {
    let mut wires = Vec::with_capacity(count);
    while wires.len() < count {
        let w = rng.gen_range(0..n);
        if !wires.contains(&w) {
            wires.push(w);
        }
    }
    wires
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reversible_generator_is_deterministic() {
        let cfg = RandomCircuitConfig::new(5, 15, 42);
        let a = random_reversible(&cfg);
        let b = random_reversible(&cfg);
        assert_eq!(a.instructions(), b.instructions());
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_reversible(&RandomCircuitConfig::new(5, 15, 1));
        let b = random_reversible(&RandomCircuitConfig::new(5, 15, 2));
        assert_ne!(a.instructions(), b.instructions());
    }

    #[test]
    fn reversible_respects_size_and_pool() {
        let c = random_reversible(&RandomCircuitConfig::new(4, 30, 9));
        assert_eq!(c.gate_count(), 30);
        assert_eq!(c.num_qubits(), 4);
        assert!(c.iter().all(|i| i.gate().is_classical()));
    }

    #[test]
    fn single_qubit_register_only_draws_x() {
        let c = random_reversible(&RandomCircuitConfig::new(1, 8, 3));
        assert!(c.iter().all(|i| i.gate().name() == "x"));
    }

    #[test]
    fn two_qubit_register_avoids_ccx() {
        let c = random_reversible(&RandomCircuitConfig::new(2, 20, 5));
        assert!(c.iter().all(|i| i.gate().arity() <= 2));
    }

    #[test]
    fn unitary_generator_has_requested_length() {
        let c = random_unitary_circuit(&RandomCircuitConfig::new(3, 25, 11));
        assert_eq!(c.gate_count(), 25);
        // And the result is simulable/normalized — checked cheaply by the
        // wire-validity invariants of the builder itself.
        assert!(c.depth() >= 1);
    }

    #[test]
    fn distinct_wires_are_distinct() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let w = distinct_wires(3, 5, &mut rng);
            assert_eq!(w.len(), 3);
            assert!(w[0] != w[1] && w[1] != w[2] && w[0] != w[2]);
        }
    }
}

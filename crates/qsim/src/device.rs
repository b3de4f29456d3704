//! Device (backend) models.
//!
//! A [`Device`] bundles what a compiler and a noisy simulator need to know
//! about a quantum computer: qubit count, coupling map (which pairs support
//! two-qubit gates), native basis gates and a [`NoiseModel`].
//!
//! [`Device::fake_valencia`] mirrors the 5-qubit `ibmq_valencia` machine
//! behind Qiskit's `FakeValencia`, which the paper uses for all
//! experiments. The paper also runs 7–12 qubit RevLib benchmarks through
//! that backend; [`Device::fake_valencia_extended`] makes the necessary
//! extension explicit by tiling the same error rates over a larger
//! heavy-hex-like topology (see DESIGN.md §2).

use crate::noise::{NoiseModel, ReadoutError};
use serde::{Deserialize, Serialize};

/// Names of native basis gates a device executes directly.
pub type BasisGates = Vec<&'static str>;

/// A quantum device model.
///
/// # Example
///
/// ```
/// use qsim::Device;
///
/// let dev = Device::fake_valencia();
/// assert_eq!(dev.num_qubits(), 5);
/// assert!(dev.are_coupled(0, 1));
/// assert!(!dev.are_coupled(0, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    name: String,
    num_qubits: u32,
    coupling: Vec<(u32, u32)>,
    basis_gates: Vec<String>,
    noise: NoiseModel,
}

impl Device {
    /// Creates a device from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the coupling map references qubits out of range.
    pub fn new(
        name: impl Into<String>,
        num_qubits: u32,
        coupling: Vec<(u32, u32)>,
        basis_gates: BasisGates,
        noise: NoiseModel,
    ) -> Self {
        for &(a, b) in &coupling {
            assert!(
                a < num_qubits && b < num_qubits && a != b,
                "coupling edge ({a},{b}) invalid for {num_qubits} qubits"
            );
        }
        Device {
            name: name.into(),
            num_qubits,
            coupling,
            basis_gates: basis_gates.into_iter().map(String::from).collect(),
            noise,
        }
    }

    /// The 5-qubit `ibmq_valencia` model (T-shaped topology):
    ///
    /// ```text
    /// 0 — 1 — 2
    ///     |
    ///     3
    ///     |
    ///     4
    /// ```
    ///
    /// Error rates are calibrated so that the *benchmark-level accuracy*
    /// of the paper's Table I is reproduced (original-circuit accuracy
    /// ≈ 0.87–0.99 across 4–12 qubit RevLib circuits): ~4.5·10⁻⁴
    /// single-qubit error, ~2.5·10⁻³ multi-qubit gate error, ~0.6%
    /// readout error. These are lower than the physical `ibmq_valencia`
    /// calibration because the paper's reported accuracies imply noise at
    /// the MCT-gate level (each multi-controlled Toffoli counted as one
    /// gate) rather than at the decomposed-CX level — see EXPERIMENTS.md.
    pub fn fake_valencia() -> Self {
        Device::new(
            "fake_valencia",
            5,
            vec![(0, 1), (1, 2), (1, 3), (3, 4)],
            vec!["id", "rz", "sx", "x", "cx"],
            NoiseModel::builder()
                .one_qubit_error(4.5e-4)
                .two_qubit_error(2.5e-3)
                .readout_errors(vec![
                    ReadoutError {
                        p1_given_0: 0.005,
                        p0_given_1: 0.007,
                    },
                    ReadoutError {
                        p1_given_0: 0.006,
                        p0_given_1: 0.008,
                    },
                    ReadoutError {
                        p1_given_0: 0.004,
                        p0_given_1: 0.006,
                    },
                    ReadoutError {
                        p1_given_0: 0.006,
                        p0_given_1: 0.009,
                    },
                    ReadoutError {
                        p1_given_0: 0.005,
                        p0_given_1: 0.007,
                    },
                ])
                .build(),
        )
    }

    /// A FakeValencia-style device widened to `num_qubits` wires on a
    /// ladder (heavy-hex-like) coupling map, reusing the Valencia noise
    /// rates. This is the explicit substitution that lets 7–12 qubit RevLib
    /// benchmarks run under "FakeValencia noise" as the paper reports.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits < 2`.
    pub fn fake_valencia_extended(num_qubits: u32) -> Self {
        assert!(num_qubits >= 2, "extended device needs at least 2 qubits");
        let mut coupling: Vec<(u32, u32)> = (0..num_qubits - 1).map(|i| (i, i + 1)).collect();
        // Ladder rungs every third qubit add routing shortcuts like the
        // heavy-hex pattern.
        for i in (0..num_qubits.saturating_sub(3)).step_by(3) {
            coupling.push((i, i + 3));
        }
        let valencia = Device::fake_valencia();
        Device::new(
            format!("fake_valencia_ext{num_qubits}"),
            num_qubits,
            coupling,
            vec!["id", "rz", "sx", "x", "cx"],
            valencia.noise,
        )
    }

    /// An all-to-all noiseless device — the "algorithm view" used when a
    /// circuit is simulated without hardware constraints.
    pub fn ideal(num_qubits: u32) -> Self {
        let mut coupling = Vec::new();
        for a in 0..num_qubits {
            for b in a + 1..num_qubits {
                coupling.push((a, b));
            }
        }
        Device::new(
            format!("ideal{num_qubits}"),
            num_qubits,
            coupling,
            vec!["id", "rz", "sx", "x", "cx"],
            NoiseModel::ideal(),
        )
    }

    /// A linear nearest-neighbour device with the given noise model.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits < 2`.
    pub fn linear(num_qubits: u32, noise: NoiseModel) -> Self {
        assert!(num_qubits >= 2, "linear device needs at least 2 qubits");
        Device::new(
            format!("linear{num_qubits}"),
            num_qubits,
            (0..num_qubits - 1).map(|i| (i, i + 1)).collect(),
            vec!["id", "rz", "sx", "x", "cx"],
            noise,
        )
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Undirected coupling edges.
    pub fn coupling(&self) -> &[(u32, u32)] {
        &self.coupling
    }

    /// Native basis gate names.
    pub fn basis_gates(&self) -> Vec<&str> {
        self.basis_gates.iter().map(String::as_str).collect()
    }

    /// The device noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// `true` if a two-qubit gate can act directly on `(a, b)`.
    pub fn are_coupled(&self, a: u32, b: u32) -> bool {
        self.coupling
            .iter()
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// Adjacency list representation of the coupling map.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.num_qubits as usize];
        for &(a, b) in &self.coupling {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valencia_topology() {
        let dev = Device::fake_valencia();
        assert_eq!(dev.num_qubits(), 5);
        assert!(dev.are_coupled(0, 1));
        assert!(dev.are_coupled(1, 0));
        assert!(dev.are_coupled(1, 3));
        assert!(dev.are_coupled(3, 4));
        assert!(!dev.are_coupled(0, 2));
        assert!(!dev.are_coupled(2, 4));
        assert!(dev.noise().is_noisy());
    }

    #[test]
    fn extended_device_is_connected() {
        let dev = Device::fake_valencia_extended(12);
        assert_eq!(dev.num_qubits(), 12);
        // Line edges guarantee connectivity.
        for i in 0..11 {
            assert!(dev.are_coupled(i, i + 1));
        }
        assert!(dev.noise().is_noisy());
        assert!(dev.name().contains("12"));
    }

    #[test]
    fn ideal_device_full_coupling_no_noise() {
        let dev = Device::ideal(4);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert!(dev.are_coupled(a, b));
                }
            }
        }
        assert!(!dev.noise().is_noisy());
    }

    #[test]
    fn adjacency_mirrors_edges() {
        let dev = Device::fake_valencia();
        let adj = dev.adjacency();
        assert_eq!(adj[1].len(), 3); // 1 connects to 0, 2, 3
        assert_eq!(adj[4], vec![3]);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn rejects_bad_coupling() {
        Device::new("bad", 2, vec![(0, 5)], vec!["cx"], NoiseModel::ideal());
    }
}

//! Prior-work baselines (§II-C / §IV-C).
//!
//! * [`das_random_insertion`] — randomized reversible-circuit insertion in
//!   the style of Das & Ghosh \[16\]: a random block `R` is *prepended* to
//!   the circuit and its inverse applied afterwards to restore function.
//!   Weaknesses reproduced here: the depth grows by `depth(R)`, and the
//!   `R|C` boundary is a straight vertical line an attacker can look for.
//! * [`saki_cascade_split`] — cascading split compilation in the style of
//!   Saki et al. \[20\]: the circuit is cut at a single global column into
//!   two sections over the *same* full register, which is what enables
//!   the `kₙ·n!` qubit-matching collusion attack.

use qcir::dag::layered_instructions;
use qcir::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of the Das-style random insertion baseline.
#[derive(Debug, Clone)]
pub struct DasInsertion {
    /// What the untrusted compiler sees: `R · C`.
    pub obfuscated: Circuit,
    /// The restoration key the designer keeps: `R⁻¹`.
    pub r_inverse: Circuit,
    /// The random block itself.
    pub r: Circuit,
}

impl DasInsertion {
    /// The restored circuit `R⁻¹ · R · C` (prepend the key).
    pub fn restored(&self) -> Circuit {
        self.r_inverse
            .then(&self.obfuscated)
            .expect("same register")
    }

    /// Depth overhead the insertion cost (TetrisLock's is always 0).
    pub fn depth_overhead(&self, original: &Circuit) -> usize {
        self.obfuscated.depth().saturating_sub(original.depth())
    }

    /// The layer index where `R` ends and `C` begins — the straight
    /// boundary an attacker can search for (the structural weakness
    /// TetrisLock removes).
    pub fn boundary_layer(&self) -> usize {
        self.r.depth()
    }
}

/// Builds a random reversible block of `num_gates` X/CX gates and
/// prepends it to `circuit` (\[16\]-style obfuscation).
///
/// # Panics
///
/// Panics if `circuit` has fewer than 2 qubits and a CX is drawn (not
/// possible: single-qubit registers only draw X).
pub fn das_random_insertion(circuit: &Circuit, num_gates: usize, seed: u64) -> DasInsertion {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = circuit.num_qubits();
    let mut r = Circuit::with_name(n, "R_das");
    for _ in 0..num_gates {
        if n >= 2 && rng.gen::<f64>() < 0.5 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            r.cx(a, b);
        } else {
            let q = rng.gen_range(0..n);
            r.x(q);
        }
    }
    let obfuscated = r.then(circuit).expect("same register");
    DasInsertion {
        r_inverse: r.inverse(),
        r,
        obfuscated,
    }
}

/// A cascading (straight-cut) split in the style of Saki et al. \[20\]:
/// layers `< cut_layer` form the left section, the rest the right
/// section. Both sections keep the full register — equal qubit counts on
/// both sides of the boundary.
///
/// Returns `(left, right)`.
pub fn saki_cascade_split(circuit: &Circuit, cut_layer: usize) -> (Circuit, Circuit) {
    let layers = layered_instructions(circuit);
    let n = circuit.num_qubits();
    let mut left = Circuit::with_name(n, format!("{}_cascade_left", circuit.name()));
    let mut right = Circuit::with_name(n, format!("{}_cascade_right", circuit.name()));
    for (idx, layer) in layers.into_iter().enumerate() {
        let target = if idx < cut_layer {
            &mut left
        } else {
            &mut right
        };
        for inst in layer {
            target.push(inst).expect("same register");
        }
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::unitary::equivalent_up_to_phase;

    fn sample() -> Circuit {
        let mut c = Circuit::with_name(4, "base");
        c.h(0).cx(0, 1).ccx(1, 2, 3).cx(0, 3);
        c
    }

    #[test]
    fn das_restoration_is_exact() {
        let c = sample();
        for seed in 0..5 {
            let das = das_random_insertion(&c, 4, seed);
            assert!(
                equivalent_up_to_phase(&c, &das.restored(), 1e-9).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn das_obfuscated_differs_from_original() {
        let c = sample();
        let das = das_random_insertion(&c, 4, 1);
        assert!(!equivalent_up_to_phase(&c, &das.obfuscated, 1e-9).unwrap());
    }

    #[test]
    fn das_adds_depth_tetrislock_does_not() {
        let c = sample();
        let das = das_random_insertion(&c, 4, 2);
        assert!(
            das.depth_overhead(&c) > 0,
            "R must add depth when prepended"
        );
        let tetris = crate::Obfuscator::new().with_seed(2).obfuscate(&c);
        assert_eq!(tetris.depth_increase(), 0);
    }

    #[test]
    fn das_boundary_is_visible() {
        let c = sample();
        let das = das_random_insertion(&c, 6, 3);
        // The boundary layer equals R's depth — a structural giveaway.
        assert_eq!(das.boundary_layer(), das.r.depth());
        assert!(das.boundary_layer() > 0);
    }

    #[test]
    fn das_gate_count() {
        let c = sample();
        let das = das_random_insertion(&c, 3, 4);
        assert_eq!(das.obfuscated.gate_count(), c.gate_count() + 3);
        assert_eq!(das.r_inverse.gate_count(), 3);
    }

    #[test]
    fn cascade_split_partitions_layers() {
        let c = sample();
        let (left, right) = saki_cascade_split(&c, 2);
        assert_eq!(left.gate_count() + right.gate_count(), c.gate_count());
        // Both sections keep the full register — the collusion weakness.
        assert_eq!(left.num_qubits(), c.num_qubits());
        assert_eq!(right.num_qubits(), c.num_qubits());
        // Rejoining restores the function.
        let rejoined = left.then(&right).unwrap();
        assert!(equivalent_up_to_phase(&c, &rejoined, 1e-9).unwrap());
    }

    #[test]
    fn cascade_extreme_cuts() {
        let c = sample();
        let (left, right) = saki_cascade_split(&c, 0);
        assert!(left.is_empty());
        assert_eq!(right.gate_count(), c.gate_count());
        let (left, right) = saki_cascade_split(&c, 99);
        assert_eq!(left.gate_count(), c.gate_count());
        assert!(right.is_empty());
    }
}

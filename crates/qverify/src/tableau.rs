//! Aaronson–Gottesman stabilizer tableau (Phys. Rev. A 70, 052328).
//!
//! The tableau tracks the images of the `2n` Pauli generators
//! `X₀…Xₙ₋₁, Z₀…Zₙ₋₁` under conjugation by the circuit applied so far.
//! Columns (one pair of bit-columns per qubit, plus a sign column) are
//! stored as packed `u64` words over the `2n` generator rows, so each
//! H/S/CX update is a handful of word operations per 64 generators —
//! `O(n²)` per gate in bits, hundreds of qubits in microseconds.
//!
//! Equivalence: a Clifford `U` equals the identity up to global phase
//! iff conjugation fixes every generator with positive sign, because the
//! Paulis span the full matrix algebra. So `C₁ ≃ C₂` iff the miter
//! `C₂†C₁` leaves the tableau in its initial state.

use crate::clifford::CliffordOp;
use crate::{Report, Tier, Verdict, Witness};

/// Packed bit-columns over the `2n` generator rows.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    n: usize,
    words: usize,
    /// `x[q]`: X-component of each generator on qubit `q`.
    x: Vec<Vec<u64>>,
    /// `z[q]`: Z-component of each generator on qubit `q`.
    z: Vec<Vec<u64>>,
    /// Sign bit of each generator (`1` = negative).
    r: Vec<u64>,
}

impl Tableau {
    /// The identity tableau: generator row `i` is `Xᵢ` (destabilizer)
    /// and row `n+i` is `Zᵢ` (stabilizer), all with positive sign.
    pub(crate) fn identity(n: usize) -> Self {
        let rows = 2 * n;
        let words = rows.div_ceil(64);
        let mut x = vec![vec![0u64; words]; n];
        let mut z = vec![vec![0u64; words]; n];
        for q in 0..n {
            x[q][q / 64] |= 1 << (q % 64);
            let zr = n + q;
            z[q][zr / 64] |= 1 << (zr % 64);
        }
        Tableau {
            n,
            words,
            x,
            z,
            r: vec![0u64; words],
        }
    }

    /// Applies one Clifford generator to every tracked Pauli.
    pub(crate) fn apply(&mut self, op: &CliffordOp) {
        match *op {
            CliffordOp::H(q) => {
                for w in 0..self.words {
                    self.r[w] ^= self.x[q][w] & self.z[q][w];
                }
                std::mem::swap(&mut self.x[q], &mut self.z[q]);
            }
            CliffordOp::S(q) => {
                for w in 0..self.words {
                    self.r[w] ^= self.x[q][w] & self.z[q][w];
                    self.z[q][w] ^= self.x[q][w];
                }
            }
            CliffordOp::Cx(c, t) => {
                for w in 0..self.words {
                    let xc = self.x[c][w];
                    let zc = self.z[c][w];
                    let xt = self.x[t][w];
                    let zt = self.z[t][w];
                    self.r[w] ^= xc & zt & !(xt ^ zc);
                    self.x[t][w] = xt ^ xc;
                    self.z[c][w] = zc ^ zt;
                }
            }
        }
    }

    /// `None` if the tableau is back to the identity; otherwise the
    /// index of the first generator row that moved.
    pub(crate) fn deviation(&self) -> Option<usize> {
        let rows = 2 * self.n;
        for row in 0..rows {
            let (w, bit) = (row / 64, 1u64 << (row % 64));
            if self.r[w] & bit != 0 {
                return Some(row);
            }
            for q in 0..self.n {
                let want_x = row < self.n && q == row;
                let want_z = row >= self.n && q == row - self.n;
                if ((self.x[q][w] & bit != 0) != want_x) || ((self.z[q][w] & bit != 0) != want_z) {
                    return Some(row);
                }
            }
        }
        None
    }
}

/// Runs the miter `C₂†C₁`, compiled to `miter_ops`, through the
/// tableau and reports.
pub(crate) fn check(num_qubits: u32, miter_ops: &[CliffordOp]) -> Report {
    let n = num_qubits as usize;
    let mut tableau = Tableau::identity(n);
    for op in miter_ops {
        tableau.apply(op);
    }
    let verdict = match tableau.deviation() {
        None => Verdict::Equivalent,
        Some(row) => Verdict::Inequivalent {
            witness: Witness::Generator {
                qubit: (row % n) as u32,
                destabilizer: row < n,
            },
        },
    };
    Report {
        verdict,
        tier: Tier::Tableau,
        trials: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clifford::compile;
    use crate::miter::gates;
    use qcir::random::{random_unitary_circuit, RandomCircuitConfig};
    use qcir::Circuit;
    use qsim::unitary::equivalent_up_to_phase;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tableau_verdict(a: &Circuit, b: &Circuit) -> bool {
        let ops = compile(gates(a, b)).expect("clifford");
        check(a.num_qubits(), &ops).verdict.is_equivalent()
    }

    fn random_clifford(n: u32, gates: usize, seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..gates {
            match rng.gen_range(0..3u8) {
                0 => {
                    c.h(rng.gen_range(0..n));
                }
                1 => {
                    c.s(rng.gen_range(0..n));
                }
                _ => {
                    let a = rng.gen_range(0..n);
                    let mut b = rng.gen_range(0..n);
                    while b == a {
                        b = rng.gen_range(0..n);
                    }
                    c.cx(a, b);
                }
            }
        }
        c
    }

    #[test]
    fn identity_tableau_has_no_deviation() {
        assert_eq!(Tableau::identity(5).deviation(), None);
    }

    #[test]
    fn single_gate_deviates() {
        let mut t = Tableau::identity(3);
        t.apply(&CliffordOp::H(1));
        assert!(t.deviation().is_some());
        // H is self-inverse: applying it again restores the identity.
        t.apply(&CliffordOp::H(1));
        assert_eq!(t.deviation(), None);
    }

    #[test]
    fn s_has_order_four() {
        let mut t = Tableau::identity(2);
        for k in 1..=4 {
            t.apply(&CliffordOp::S(0));
            if k < 4 {
                assert!(t.deviation().is_some(), "S^{k} should not be identity");
            }
        }
        assert_eq!(t.deviation(), None);
    }

    #[test]
    fn matches_dense_verdict_on_random_clifford_pairs() {
        for seed in 0..20u64 {
            let a = random_clifford(5, 30, seed);
            let b = random_clifford(5, 30, seed + 1000);
            let dense = equivalent_up_to_phase(&a, &b, 1e-9).unwrap();
            assert_eq!(tableau_verdict(&a, &b), dense, "seed {seed}");
            // And every circuit is equivalent to itself.
            assert!(tableau_verdict(&a, &a), "seed {seed} self");
        }
    }

    #[test]
    fn detects_sign_only_differences() {
        // X·Z vs Z·X differ by a global phase only — equivalent.
        let mut a = Circuit::new(1);
        a.x(0).z(0);
        let mut b = Circuit::new(1);
        b.z(0).x(0);
        assert!(tableau_verdict(&a, &b));
        // X vs Y differ by more than phase.
        let mut a = Circuit::new(1);
        a.x(0);
        let mut b = Circuit::new(1);
        b.y(0);
        assert!(!tableau_verdict(&a, &b));
    }

    #[test]
    fn scales_past_the_dense_cap() {
        let a = random_clifford(100, 400, 9);
        let mut b = a.clone();
        b.h(50).h(50); // canceling pair
        assert!(tableau_verdict(&a, &b));
        b.s(77);
        assert!(!tableau_verdict(&a, &b));
    }

    #[test]
    fn rejects_non_clifford_input_via_compile() {
        let c = random_unitary_circuit(&RandomCircuitConfig::new(4, 30, 3));
        // The random unitary pool contains T/rotations, so compile
        // (almost surely) refuses; this documents the contract that
        // callers gate on `compile`.
        if compile(c.iter()).is_some() {
            // In the unlikely all-Clifford draw, the tableau must agree
            // with dense equivalence of the circuit with itself.
            assert!(tableau_verdict(&c, &c));
        }
    }
}

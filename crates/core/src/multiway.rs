//! The split engine: `k`-way interlocking splits (§IV).
//!
//! §IV of the paper: "the circuit can be divided into two *or more*
//! sub-circuits, which are then compiled separately using different
//! quantum compilers". Each wire gets `k−1` ascending cut columns, gates
//! are assigned to the earliest segment all their wires still allow
//! (with a freezing rule that keeps every segment a per-wire
//! *interval*), and recombination concatenates the segments in order.
//!
//! Pair separation: for every inserted pair the segment of `g†` is
//! strictly earlier than the segment of `g`, so no single compiler can
//! cancel the masking.
//!
//! This is the only split implementation. The two-way split of
//! [`crate::interlock`] is this engine at `k = 2`: an
//! [`InterlockPattern`](crate::InterlockPattern) is a staircase of one
//! cut per wire, drawn and applied by the code below.

use crate::error::LockError;
use crate::interlock::Segment;
use crate::obfuscate::Obfuscation;
use crate::recombine::concatenate;
use qcir::{Circuit, CircuitDag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A per-wire staircase of cut columns: `cuts[w]` holds `k−1` ascending
/// layer indices; gate layers `< cuts[w][0]` are segment 0, layers in
/// `[cuts[w][0], cuts[w][1])` segment 1, and so on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiwayPattern {
    segments: usize,
    cuts: Vec<Vec<usize>>,
}

impl MultiwayPattern {
    /// Creates a pattern from explicit per-wire cut staircases.
    ///
    /// # Panics
    ///
    /// Panics if `segments < 2`, a wire has the wrong number of cuts, or
    /// a staircase is not non-decreasing.
    pub fn new(segments: usize, cuts: Vec<Vec<usize>>) -> Self {
        assert!(segments >= 2, "need at least two segments");
        for wire_cuts in &cuts {
            assert_eq!(wire_cuts.len(), segments - 1, "one cut per boundary");
            assert!(
                wire_cuts.windows(2).all(|w| w[0] <= w[1]),
                "cuts must be non-decreasing"
            );
        }
        MultiwayPattern { segments, cuts }
    }

    /// Number of segments this pattern produces.
    pub fn num_segments(&self) -> usize {
        self.segments
    }

    /// The cut staircase of each wire.
    pub fn cuts(&self) -> &[Vec<usize>] {
        &self.cuts
    }

    /// Draws a random `k`-way pattern for `obfuscation`, constraining the
    /// *first* boundary on every pair's wires to separate `g†` from `g`:
    /// it falls in `(inverse_layer, forward_layer]`. Unconstrained wires
    /// draw their first cut across the full depth, biased away from 0 so
    /// segment 0 carries a genuine `Cl` slice of the circuit (Figure 2),
    /// not just the `R⁻¹` gates. The later boundaries fall anywhere at
    /// or after the first.
    pub fn random_for(obfuscation: &Obfuscation, segments: usize, seed: u64) -> Self {
        assert!(segments >= 2, "need at least two segments");
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = obfuscation.obfuscated();
        let depth = circuit.depth();
        let n = circuit.num_qubits() as usize;

        // Allowed first-cut interval per wire, initially the full range.
        let mut lo = vec![0usize; n];
        let mut hi = vec![depth; n];
        for pair in &obfuscation.insertion().pairs {
            for q in &pair.qubits {
                let i = q.index();
                lo[i] = lo[i].max(pair.inverse_layer + 1);
                hi[i] = hi[i].min(pair.forward_layer);
            }
        }

        let cuts: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let first = if lo[i] > hi[i] {
                    // Conflicting pairs on one wire cannot happen (spans
                    // are reserved), but guard anyway.
                    lo[i]
                } else {
                    let lo_i = lo[i].max(1).min(hi[i]);
                    rng.gen_range(lo_i..=hi[i])
                };
                let mut staircase = vec![first];
                for _ in 1..segments - 1 {
                    let prev = *staircase.last().expect("nonempty");
                    staircase.push(rng.gen_range(prev..=depth));
                }
                staircase
            })
            .collect();
        MultiwayPattern { segments, cuts }
    }

    /// Segment index of a gate at `layer` on wire `w` (before freezing).
    fn segment_of(&self, wire: usize, layer: usize) -> usize {
        self.cuts[wire]
            .iter()
            .position(|&c| layer < c)
            .unwrap_or(self.segments - 1)
    }

    /// Splits the obfuscated circuit into `k` segments named
    /// `<circuit>_part<i>`.
    ///
    /// Assignment: a gate's tentative segment is the maximum over its
    /// wires of `segment_of(wire, layer)` and of each wire's *floor* (the
    /// latest segment that wire has already emitted into); the floor then
    /// rises to that segment. This keeps every wire's gates grouped into
    /// ascending segment intervals, so concatenating the segments in
    /// order is a valid topological reordering.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's wire count mismatches the circuit.
    pub fn split(&self, obfuscation: &Obfuscation) -> MultiwaySplit {
        let circuit = obfuscation.obfuscated();
        let _span = qobs::span("core.split_multiway")
            .attr("circuit", circuit.name().to_string())
            .attr("wires", circuit.num_qubits())
            .attr("gates", circuit.gate_count())
            .attr("segments", self.segments);
        self.split_named(obfuscation, |i| format!("{}_part{i}", circuit.name()))
    }

    /// [`MultiwayPattern::split`] with segment `i` named `name(i)`; the
    /// one assignment loop behind every split.
    pub(crate) fn split_named(
        &self,
        obfuscation: &Obfuscation,
        name: impl Fn(usize) -> String,
    ) -> MultiwaySplit {
        let circuit = obfuscation.obfuscated();
        assert_eq!(
            self.cuts.len(),
            circuit.num_qubits() as usize,
            "pattern covers a different register"
        );
        let dag = CircuitDag::new(circuit);
        let n = circuit.num_qubits();

        let mut floor = vec![0usize; n as usize];
        let mut parts: Vec<Circuit> = (0..self.segments)
            .map(|i| Circuit::with_name(n, name(i)))
            .collect();
        let mut assignment = Vec::with_capacity(circuit.gate_count());
        for (idx, inst) in circuit.iter().enumerate() {
            let layer = dag.layer_of(idx);
            let seg = inst
                .qubits()
                .iter()
                .map(|q| self.segment_of(q.index(), layer).max(floor[q.index()]))
                .max()
                .expect("instructions have operands");
            for q in inst.qubits() {
                floor[q.index()] = floor[q.index()].max(seg);
            }
            parts[seg].push(inst.clone()).expect("same register");
            assignment.push(seg);
        }

        // Compact each part onto its active wires; an empty part becomes
        // a 1-qubit empty circuit with an empty map.
        let segments = parts
            .into_iter()
            .map(|part| {
                let (circuit, wire_map) = match part.compacted() {
                    Ok(pair) => pair,
                    Err(_) => (Circuit::with_name(1, part.name()), BTreeMap::new()),
                };
                Segment { circuit, wire_map }
            })
            .collect();
        MultiwaySplit {
            segments,
            pattern: self.clone(),
            original_qubits: n,
            assignment,
        }
    }
}

/// A completed `k`-way split.
#[derive(Debug, Clone)]
pub struct MultiwaySplit {
    /// The segments in execution order.
    pub segments: Vec<Segment>,
    /// The pattern that produced them.
    pub pattern: MultiwayPattern,
    /// Register size of the source circuit.
    pub original_qubits: u32,
    /// Segment index of each obfuscated-circuit instruction, in program
    /// order (useful for auditing pair separation).
    pub assignment: Vec<usize>,
}

impl MultiwaySplit {
    /// Distinct qubit counts across the segments — more distinct sizes
    /// means a harder census for colluding compilers.
    pub fn distinct_widths(&self) -> usize {
        let mut widths: Vec<u32> = self
            .segments
            .iter()
            .filter(|s| !s.circuit.is_empty())
            .map(|s| s.circuit.num_qubits())
            .collect();
        widths.sort_unstable();
        widths.dedup();
        widths.len()
    }

    /// Recombines the segments in order back onto the original register.
    ///
    /// # Errors
    ///
    /// Returns [`LockError::Recombine`] on incomplete wire maps.
    pub fn recombine(&self) -> Result<Circuit, LockError> {
        let _span = qobs::span("core.recombine_multiway")
            .attr("wires", self.original_qubits)
            .attr("segments", self.segments.len());
        let placed: Vec<_> = self.segments.iter().map(Segment::placement).collect();
        concatenate("recombined_multiway", self.original_qubits, &placed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obfuscate::Obfuscator;
    use qsim::unitary::equivalent_up_to_phase;

    fn sample() -> Circuit {
        let mut c = Circuit::with_name(6, "multi");
        c.h(0)
            .cx(0, 1)
            .x(1)
            .cx(1, 2)
            .h(2)
            .cx(2, 3)
            .cx(3, 4)
            .x(3)
            .cx(4, 5)
            .h(5);
        c
    }

    #[test]
    fn three_way_recombination_is_exact() {
        for seed in 0..10 {
            let c = sample();
            let obf = Obfuscator::new().with_seed(seed).obfuscate(&c);
            let pattern = MultiwayPattern::random_for(&obf, 3, seed + 50);
            let split = pattern.split(&obf);
            assert_eq!(split.segments.len(), 3);
            let restored = split.recombine().unwrap();
            assert!(
                equivalent_up_to_phase(&c, &restored, 1e-9).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn four_way_recombination_is_exact() {
        let c = sample();
        let obf = Obfuscator::new().with_seed(3).obfuscate(&c);
        let pattern = MultiwayPattern::random_for(&obf, 4, 9);
        let split = pattern.split(&obf);
        let restored = split.recombine().unwrap();
        assert!(equivalent_up_to_phase(&c, &restored, 1e-9).unwrap());
    }

    #[test]
    fn gates_partition_across_segments() {
        let c = sample();
        let obf = Obfuscator::new().with_seed(1).obfuscate(&c);
        let pattern = MultiwayPattern::random_for(&obf, 3, 2);
        let split = pattern.split(&obf);
        let total: usize = split.segments.iter().map(|s| s.circuit.gate_count()).sum();
        assert_eq!(total, obf.obfuscated().gate_count());
    }

    #[test]
    fn pair_halves_in_strictly_ascending_segments() {
        for seed in 0..10 {
            let c = sample();
            let obf = Obfuscator::new().with_seed(seed).obfuscate(&c);
            let pattern = MultiwayPattern::random_for(&obf, 3, seed);
            let split = pattern.split(&obf);
            for pair in &obf.insertion().pairs {
                let si = split.assignment[pair.inverse_index];
                let sf = split.assignment[pair.forward_index];
                assert!(
                    si < sf,
                    "seed {seed}: pair {:?} not separated ({si} vs {sf})",
                    pair.gate
                );
            }
        }
    }

    #[test]
    fn two_way_multiway_matches_interlock_semantics() {
        let c = sample();
        for seed in 0..10 {
            let obf = Obfuscator::new().with_seed(seed).obfuscate(&c);
            let pattern = MultiwayPattern::random_for(&obf, 2, seed + 6);
            let split = pattern.split(&obf);
            assert_eq!(split.segments.len(), 2);
            let restored = split.recombine().unwrap();
            assert!(equivalent_up_to_phase(&c, &restored, 1e-9).unwrap());
            // The two-way split is this engine at k = 2.
            let pair = crate::InterlockPattern::random_for(&obf, seed + 6).split(&obf);
            let cuts: Vec<usize> = pattern.cuts().iter().map(|c| c[0]).collect();
            assert_eq!(pair.pattern.cuts(), &cuts[..]);
            let left: Vec<bool> = split.assignment.iter().map(|&s| s == 0).collect();
            assert_eq!(pair.assignment, left);
            assert_eq!(pair.left.wire_map, split.segments[0].wire_map);
            assert_eq!(pair.right.wire_map, split.segments[1].wire_map);
        }
    }

    #[test]
    fn pattern_validation() {
        // Wrong cut count.
        let result = std::panic::catch_unwind(|| MultiwayPattern::new(3, vec![vec![1]; 2]));
        assert!(result.is_err());
        // Decreasing staircase.
        let result = std::panic::catch_unwind(|| MultiwayPattern::new(3, vec![vec![3, 1]; 2]));
        assert!(result.is_err());
        // Valid.
        let p = MultiwayPattern::new(3, vec![vec![1, 2]; 2]);
        assert_eq!(p.num_segments(), 3);
    }

    #[test]
    fn distinct_widths_counted() {
        let c = sample();
        let obf = Obfuscator::new().with_seed(8).obfuscate(&c);
        let pattern = MultiwayPattern::random_for(&obf, 3, 12);
        let split = pattern.split(&obf);
        assert!(split.distinct_widths() >= 1);
    }
}

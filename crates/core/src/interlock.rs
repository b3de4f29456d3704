//! Interlocking split (the paper's §IV-A splitting method).
//!
//! A split is described by a *per-wire cut column* — the jagged,
//! Tetris-piece boundary of Figures 2 and 3. Gates left of the boundary
//! form segment 1 (`R⁻¹ ∪ Cl`), the rest form segment 2 (`R ∪ Cr`). The
//! two segments:
//!
//! * separate every inserted pair (`g†` left, `g` right), so neither
//!   segment is functionally the original circuit;
//! * keep only wires they actually touch, compacted and renumbered — so
//!   the segments generally have *different qubit counts*, which is the
//!   property that defeats the qubit-matching collusion attack of prior
//!   split compilation (§IV-C, Eq. 1);
//! * preserve per-wire gate order (the left set is a per-wire prefix), so
//!   concatenating left ∘ right is a valid topological reordering of the
//!   obfuscated circuit and de-obfuscation is exact.
//!
//! The two-way split is the `k`-way split of [`crate::multiway`] at
//! `k = 2`: an [`InterlockPattern`] is a staircase of one cut per wire,
//! drawn by [`MultiwayPattern::random_for`] and applied by the same
//! assignment loop. This module keeps the two-way types — their fields
//! and serialized bytes are part of the checkpoint format — and the
//! `<name>_left` / `<name>_right` segment names.

use crate::multiway::{MultiwayPattern, MultiwaySplit};
use crate::obfuscate::Obfuscation;
use crate::recombine::Placement;
use qcir::{Circuit, Qubit};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One compiled-independently segment of a split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Segment {
    /// The segment circuit, compacted onto its own dense wire numbering.
    pub circuit: Circuit,
    /// Map from original obfuscated-circuit wires to segment wires.
    pub wire_map: BTreeMap<Qubit, Qubit>,
}

impl Segment {
    /// Inverse wire map (segment wire → original wire).
    pub fn inverse_map(&self) -> BTreeMap<Qubit, Qubit> {
        self.wire_map.iter().map(|(&k, &v)| (v, k)).collect()
    }

    /// The segment placed back on the original register: its circuit
    /// with the inverse wire map.
    pub fn placement(&self) -> Placement<'_> {
        (&self.circuit, self.inverse_map())
    }
}

/// A completed interlocking split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitPair {
    /// Segment 1: `R⁻¹` plus the left portion of the circuit.
    pub left: Segment,
    /// Segment 2: `R` plus the right portion.
    pub right: Segment,
    /// The pattern that produced this split.
    pub pattern: InterlockPattern,
    /// Register size of the obfuscated circuit the split came from.
    pub original_qubits: u32,
    /// Per-instruction assignment in program order: `true` means the
    /// gate went to the left segment.
    pub assignment: Vec<bool>,
}

impl SplitPair {
    /// `true` if the two segments have different qubit counts — the
    /// anti-collusion property highlighted in Figure 3.
    pub fn has_mismatched_qubits(&self) -> bool {
        self.left.circuit.num_qubits() != self.right.circuit.num_qubits()
    }
}

/// A per-wire cut: gates of wire `q` in layers `< cut[q]` belong to the
/// left segment (subject to the straddle rule — see [`InterlockPattern::split`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterlockPattern {
    cuts: Vec<usize>,
}

impl InterlockPattern {
    /// Creates a pattern from explicit per-wire cut columns.
    pub fn new(cuts: Vec<usize>) -> Self {
        InterlockPattern { cuts }
    }

    /// The cut column of each wire.
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }

    /// `true` if the boundary is jagged (not a straight vertical cut) —
    /// what makes the pattern "interlocking" rather than the cascading
    /// split of prior work.
    pub fn is_interlocking(&self) -> bool {
        self.cuts.windows(2).any(|w| w[0] != w[1])
    }

    /// Draws a random interlocking pattern for `obfuscation` that is
    /// guaranteed to separate every inserted pair: for each pair the cut
    /// on its wires falls in `(inverse_layer, forward_layer]`; unrelated
    /// wires get independent random cuts across the full depth. This is
    /// [`MultiwayPattern::random_for`] at two segments.
    pub fn random_for(obfuscation: &Obfuscation, seed: u64) -> Self {
        let pattern = MultiwayPattern::random_for(obfuscation, 2, seed);
        InterlockPattern {
            cuts: pattern
                .cuts()
                .iter()
                .map(|staircase| staircase[0])
                .collect(),
        }
    }

    /// Splits the obfuscated circuit along this pattern.
    ///
    /// Assignment rule: scan instructions in program order; a gate goes
    /// left iff none of its wires is *frozen* and its layer is below the
    /// cut of **every** operand wire. Otherwise it goes right and freezes
    /// its wires (everything later on those wires also goes right). This
    /// guarantees the left set is a per-wire prefix, making
    /// `left ∘ right` a valid reordering. It is the floor rule of
    /// [`MultiwayPattern::split`] at two segments.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's wire count does not match the circuit.
    pub fn split(&self, obfuscation: &Obfuscation) -> SplitPair {
        let staircases = self.cuts.iter().map(|&cut| vec![cut]).collect();
        let name = obfuscation.obfuscated().name();
        let MultiwaySplit {
            segments,
            original_qubits,
            assignment,
            ..
        } = MultiwayPattern::new(2, staircases)
            .split_named(obfuscation, |i| format!("{name}_{}", ["left", "right"][i]));
        let [left, right]: [Segment; 2] = segments.try_into().expect("two segments");
        SplitPair {
            left,
            right,
            pattern: self.clone(),
            original_qubits,
            assignment: assignment.iter().map(|&segment| segment == 0).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::InsertionConfig;
    use crate::obfuscate::Obfuscator;
    use qsim::unitary::equivalent_up_to_phase;

    fn sample() -> Circuit {
        // Staircase with generous leading idle windows — this shape is
        // the regression case for the planned-vs-ASAP layer bug (ASAP
        // re-layering used to pull forward halves left of the cut).
        let mut c = Circuit::with_name(6, "fig2");
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

    fn obfuscate(seed: u64) -> Obfuscation {
        Obfuscator::new()
            .with_config(InsertionConfig {
                seed,
                ..Default::default()
            })
            .obfuscate(&sample())
    }

    #[test]
    fn pattern_jaggedness_detected() {
        assert!(InterlockPattern::new(vec![1, 2, 1]).is_interlocking());
        assert!(!InterlockPattern::new(vec![2, 2, 2]).is_interlocking());
    }

    #[test]
    fn split_separates_every_pair() {
        for seed in 0..10 {
            let obf = obfuscate(seed);
            let split = obf.split(seed + 100);
            for pair in &obf.insertion().pairs {
                let inv_inst = &obf.obfuscated().instructions()[pair.inverse_index];
                let fwd_inst = &obf.obfuscated().instructions()[pair.forward_index];
                // g† must appear in the left segment (mapped wires).
                let inv_mapped = inv_inst.remapped(&split.left.wire_map);
                assert!(
                    inv_mapped.is_ok()
                        && split
                            .left
                            .circuit
                            .iter()
                            .any(|i| i == &inv_mapped.clone().unwrap()),
                    "seed {seed}: inverse half missing from left segment"
                );
                let fwd_mapped = fwd_inst.remapped(&split.right.wire_map);
                assert!(
                    fwd_mapped.is_ok()
                        && split
                            .right
                            .circuit
                            .iter()
                            .any(|i| i == &fwd_mapped.clone().unwrap()),
                    "seed {seed}: forward half missing from right segment"
                );
            }
        }
    }

    #[test]
    fn assignment_field_matches_pair_separation() {
        for seed in 0..10 {
            let obf = obfuscate(seed);
            let split = obf.split(seed + 500);
            assert_eq!(split.assignment.len(), obf.obfuscated().gate_count());
            for pair in &obf.insertion().pairs {
                assert!(split.assignment[pair.inverse_index], "inverse must go left");
                assert!(
                    !split.assignment[pair.forward_index],
                    "forward must go right"
                );
            }
        }
    }

    #[test]
    fn left_is_per_wire_prefix() {
        // Recombining left ∘ right must reproduce the obfuscated function.
        for seed in 0..10 {
            let obf = obfuscate(seed);
            let split = obf.split(seed * 3 + 1);
            let rejoined = crate::recombine::recombine(&split).unwrap();
            assert!(
                equivalent_up_to_phase(obf.obfuscated(), &rejoined, 1e-9).unwrap(),
                "seed {seed}: recombination diverged"
            );
        }
    }

    #[test]
    fn segments_usually_have_mismatched_qubits() {
        let mut mismatched = 0;
        let total = 20;
        for seed in 0..total {
            let obf = obfuscate(seed);
            let split = obf.split(seed + 41);
            if split.has_mismatched_qubits() {
                mismatched += 1;
            }
        }
        // Figure 3's core property: splits need not (and mostly do not)
        // have equal register sizes.
        assert!(
            mismatched > total / 4,
            "only {mismatched}/{total} mismatched"
        );
    }

    #[test]
    fn neither_segment_contains_all_gates() {
        let obf = obfuscate(5);
        let split = obf.split(77);
        let total = obf.obfuscated().gate_count();
        assert!(split.left.circuit.gate_count() < total);
        assert!(split.right.circuit.gate_count() < total);
        assert_eq!(
            split.left.circuit.gate_count() + split.right.circuit.gate_count(),
            total
        );
    }

    #[test]
    fn random_pattern_respects_pair_windows() {
        for seed in 0..10 {
            let obf = obfuscate(seed);
            let pattern = InterlockPattern::random_for(&obf, seed + 7);
            for pair in &obf.insertion().pairs {
                for q in &pair.qubits {
                    let cut = pattern.cuts()[q.index()];
                    assert!(cut > pair.inverse_layer, "cut before inverse half");
                    assert!(cut <= pair.forward_layer, "cut after forward half");
                }
            }
        }
    }

    #[test]
    fn explicit_pattern_split() {
        let obf = obfuscate(1);
        let depth = obf.obfuscated().depth();
        // Straight cut at mid-depth still works mechanically (it's just
        // not interlocking) — if it violates a pair window the forward
        // half may land left, so only check structural invariants.
        let pattern = InterlockPattern::new(vec![depth / 2; 6]);
        let split = obf.split_with(&pattern);
        assert_eq!(
            split.left.circuit.gate_count() + split.right.circuit.gate_count(),
            obf.obfuscated().gate_count()
        );
    }

    #[test]
    #[should_panic(expected = "different register")]
    fn mismatched_pattern_panics() {
        let obf = obfuscate(1);
        let pattern = InterlockPattern::new(vec![1, 2]);
        let _ = obf.split_with(&pattern);
    }

    #[test]
    fn empty_side_handled() {
        let obf = obfuscate(2);
        // Cut at 0 everywhere: everything goes right.
        let pattern = InterlockPattern::new(vec![0; 6]);
        let split = obf.split_with(&pattern);
        assert!(split.left.circuit.is_empty());
        assert_eq!(
            split.right.circuit.gate_count(),
            obf.obfuscated().gate_count()
        );
    }
}

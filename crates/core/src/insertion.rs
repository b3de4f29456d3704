//! Random gate insertion (the paper's Algorithm 1).
//!
//! Inserts a random circuit `R` *and its inverse* `R⁻¹` into the leading
//! empty slots of the original circuit — the paper's `R⁻¹RC` front
//! placement — so that:
//!
//! * the obfuscated circuit computes exactly `R⁻¹·R·C = C` — each inserted
//!   gate `g` is paired with `g†` placed earlier on the same wires, before
//!   any original gate touches them, so the pair cancels algebraically
//!   with no commutation assumptions;
//! * circuit depth is *provably unchanged*: gates only occupy idle
//!   wire-layer cells, so the layer count (and hence ASAP depth) cannot
//!   move (the paper's "0% depth increase" claim);
//! * the `R` halves sit strictly later than their `R⁻¹` partners, and
//!   each `g†` is the first gate on its wires, so no earlier gate can
//!   freeze those wires and the interlocking split always separates
//!   `g†` from `g` into different segments.

use crate::policy::{DrawnGate, GatePolicy};
use qcir::{Circuit, Gate, Instruction, Qubit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsertionConfig {
    /// Maximum *total* number of inserted gates, counting both the `R`
    /// and `R⁻¹` halves — the paper's Table I reports "a total of 1–4
    /// gates inserted". Each pair consumes 2 of this budget, so the
    /// default of 4 yields at most two pairs.
    pub gate_limit: usize,
    /// Gate pool (X/CX for arithmetic circuits, H for Grover-style).
    pub policy: GatePolicy,
    /// RNG seed (experiments average over 20 seeds).
    pub seed: u64,
}

impl Default for InsertionConfig {
    fn default() -> Self {
        InsertionConfig {
            gate_limit: 4,
            policy: GatePolicy::XCx,
            seed: 0,
        }
    }
}

/// One inserted `(g†, g)` pair with its placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsertedPair {
    /// The forward gate `g` (part of `R`).
    pub gate: Gate,
    /// Operand wires.
    pub qubits: Vec<Qubit>,
    /// Layer of the inverse half `g†` (part of `R⁻¹`).
    pub inverse_layer: usize,
    /// Layer of the forward half `g` (strictly greater).
    pub forward_layer: usize,
    /// Instruction index of `g†` in the obfuscated circuit.
    pub inverse_index: usize,
    /// Instruction index of `g` in the obfuscated circuit.
    pub forward_index: usize,
}

/// Result of running Algorithm 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Insertion {
    /// The obfuscated circuit `R⁻¹RC` (same register, same depth as `C`).
    pub circuit: Circuit,
    /// The inserted pairs, in forward-layer order.
    pub pairs: Vec<InsertedPair>,
}

impl Insertion {
    /// Number of forward gates inserted (the paper's "gates inserted").
    pub fn inserted_count(&self) -> usize {
        self.pairs.len()
    }

    /// Total gate-count overhead (forward + inverse halves).
    pub fn gate_overhead(&self) -> usize {
        2 * self.pairs.len()
    }

    /// The masked view `R·C`: the obfuscated circuit with the `R⁻¹`
    /// halves stripped. This is what an attacker reconstructs if they
    /// isolate the right segment — and what Figure 4's "obfuscated" TVD
    /// curve measures.
    pub fn masked_circuit(&self) -> Circuit {
        let skip: std::collections::BTreeSet<usize> =
            self.pairs.iter().map(|p| p.inverse_index).collect();
        let mut out = Circuit::with_name(
            self.circuit.num_qubits(),
            format!("{}_masked", self.circuit.name()),
        );
        for (i, inst) in self.circuit.iter().enumerate() {
            if !skip.contains(&i) {
                out.push(inst.clone()).expect("same register");
            }
        }
        out
    }

    /// The random circuit `R` (forward halves only, in order) on the same
    /// register.
    pub fn r_circuit(&self) -> Circuit {
        let mut out = Circuit::with_name(self.circuit.num_qubits(), "R");
        let mut pairs = self.pairs.clone();
        pairs.sort_by_key(|p| p.forward_index);
        for p in pairs {
            out.push(Instruction::new(p.gate.clone(), p.qubits.clone()).expect("valid pair"))
                .expect("same register");
        }
        out
    }

    /// The inverse random circuit `R⁻¹` on the same register.
    pub fn r_inverse_circuit(&self) -> Circuit {
        let mut c = self.r_circuit().inverse();
        c.set_name("R_dg");
        c
    }
}

/// Runs Algorithm 1 on `circuit`.
///
/// Empty-slot discovery follows the paper (DAG → layers → per-layer
/// unused qubits, [`qcir::CircuitDag::empty_positions`]). Each wire's
/// leading idle run — the layers before its first gate — is the only
/// room used: a pair on wires whose common run has length ≥ 2 drops
/// `g†` in an early column and `g` in a later one, and its wires are
/// then spent, so no later pair shares them.
///
/// Circuits with no leading idle run of length ≥ 2 (fully dense)
/// come back unchanged with zero pairs — the honest outcome under the
/// zero-depth-overhead constraint.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use tetrislock::insertion::{insert_random_pairs, InsertionConfig};
///
/// let mut c = Circuit::new(4);
/// c.h(0).cx(0, 1).cx(1, 2).cx(0, 1); // q3 idle; q2 idle until layer 2
/// let result = insert_random_pairs(&c, &InsertionConfig::default());
/// assert!(result.inserted_count() >= 1);
/// assert_eq!(result.circuit.depth(), c.depth()); // 0% depth increase
/// ```
pub fn insert_random_pairs(circuit: &Circuit, config: &InsertionConfig) -> Insertion {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let dag = qcir::CircuitDag::new(circuit);
    let empty_positions = dag.empty_positions();
    let depth = empty_positions.len();
    let n = circuit.num_qubits();

    // Per wire: the number of leading idle layers still free; zeroed
    // once a pair uses the wire.
    let mut lead: Vec<usize> = (0..n)
        .map(|q| {
            let q = Qubit::new(q);
            empty_positions
                .iter()
                .take_while(|empty| empty.contains(&q))
                .count()
        })
        .collect();

    // Planned insertions: (gate, wires, inv_layer, fwd_layer).
    let mut planned: Vec<(Gate, Vec<Qubit>, usize, usize)> = Vec::new();

    while (planned.len() + 1) * 2 <= config.gate_limit {
        // Single-wire candidates: wires whose leading run `[0, e)` has
        // room for both halves; pair candidates: ordered pairs of them,
        // on their common run.
        let single_candidates: Vec<(u32, usize)> = (0..n)
            .map(|w| (w, lead[w as usize]))
            .filter(|&(_, e)| e >= 2)
            .collect();
        if single_candidates.is_empty() {
            break;
        }
        let pair_candidates: Vec<(u32, u32, usize)> = single_candidates
            .iter()
            .flat_map(|&(a, ea)| {
                single_candidates
                    .iter()
                    .filter(move |&&(b, _)| b != a)
                    .map(move |&(b, eb)| (a, b, ea.min(eb)))
            })
            .collect();

        let (gate, wires, e) = match config.policy.draw(!pair_candidates.is_empty(), &mut rng) {
            DrawnGate::Single(g) => {
                let &(w, e) = &single_candidates[rng.gen_range(0..single_candidates.len())];
                (g, vec![w], e)
            }
            DrawnGate::TwoQubit(g) => {
                let &(a, b, e) = &pair_candidates[rng.gen_range(0..pair_candidates.len())];
                (g, vec![a, b], e)
            }
        };

        // Place g† in the first half of the run, g in the second half.
        let first_half = (e / 2).max(1);
        let inv_layer = rng.gen_range(0..first_half).min(e - 2);
        let fwd_layer = rng.gen_range(inv_layer + 1..e);
        // Spend the wires' leading runs so no later pair shares them: two
        // pairs in one run would make their cut-column constraints
        // collide and could strand a pair unseparated by the split.
        for &w in &wires {
            lead[w as usize] = 0;
        }
        planned.push((
            gate,
            wires.into_iter().map(Qubit::new).collect(),
            inv_layer,
            fwd_layer,
        ));
    }

    // Rebuild the circuit layer by layer with insertions in place.
    let mut out = Circuit::with_name(n, circuit.name());
    // (planned_index, is_forward) keyed by layer.
    let mut by_layer: Vec<Vec<(usize, bool)>> = vec![Vec::new(); depth];
    for (pi, (_, _, inv_l, fwd_l)) in planned.iter().enumerate() {
        by_layer[*inv_l].push((pi, false));
        by_layer[*fwd_l].push((pi, true));
    }

    let mut inv_indices = vec![usize::MAX; planned.len()];
    let mut fwd_indices = vec![usize::MAX; planned.len()];
    for (layer, inserted) in dag.layers().iter().zip(&by_layer) {
        // Inserted halves first within the layer (wire-disjoint from
        // everything else in the layer, so order is cosmetic).
        for &(pi, forward) in inserted {
            let (gate, qubits, _, _) = &planned[pi];
            let inst = Instruction::new(
                if forward {
                    gate.clone()
                } else {
                    gate.adjoint()
                },
                qubits.clone(),
            )
            .expect("planned instruction valid");
            let index = out.gate_count();
            out.push(inst).expect("same register");
            if forward {
                fwd_indices[pi] = index;
            } else {
                inv_indices[pi] = index;
            }
        }
        for &id in &layer.nodes {
            out.push(circuit.instructions()[id].clone())
                .expect("same register");
        }
    }

    // Record the pairs with their *actual* ASAP layers in the rebuilt
    // circuit: ASAP re-layering can schedule an inserted gate earlier
    // than its planned column (its wires may be idle even earlier), and
    // the interlocking split reasons in ASAP layers.
    let out_dag = qcir::CircuitDag::new(&out);
    let mut pairs: Vec<InsertedPair> = planned
        .into_iter()
        .enumerate()
        .map(|(pi, (gate, qubits, _, _))| InsertedPair {
            gate,
            qubits,
            inverse_layer: out_dag.layer_of(inv_indices[pi]),
            forward_layer: out_dag.layer_of(fwd_indices[pi]),
            inverse_index: inv_indices[pi],
            forward_index: fwd_indices[pi],
        })
        .collect();
    pairs.sort_by_key(|p| p.forward_layer);

    debug_assert_eq!(out_dag.num_layers(), depth);
    Insertion {
        circuit: out,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::unitary::equivalent_up_to_phase;

    fn roomy_circuit() -> Circuit {
        // 5 wires, q3/q4 idle for a while.
        let mut c = Circuit::with_name(5, "roomy");
        c.h(0).cx(0, 1).cx(1, 2).ccx(0, 1, 2).cx(2, 3).cx(3, 4);
        c
    }

    #[test]
    fn depth_is_never_increased() {
        for seed in 0..20 {
            let c = roomy_circuit();
            let config = InsertionConfig {
                seed,
                ..Default::default()
            };
            let result = insert_random_pairs(&c, &config);
            assert_eq!(result.circuit.depth(), c.depth(), "seed {seed}");
        }
    }

    #[test]
    fn function_is_exactly_preserved() {
        for seed in 0..10 {
            let c = roomy_circuit();
            let config = InsertionConfig {
                seed,
                ..Default::default()
            };
            let result = insert_random_pairs(&c, &config);
            assert!(
                equivalent_up_to_phase(&c, &result.circuit, 1e-9).unwrap(),
                "seed {seed} broke the unitary"
            );
        }
    }

    #[test]
    fn respects_gate_limit() {
        let c = roomy_circuit();
        for limit in 0..=8 {
            let config = InsertionConfig {
                gate_limit: limit,
                seed: 7,
                ..Default::default()
            };
            let result = insert_random_pairs(&c, &config);
            // gate_limit counts total inserted gates (both halves).
            assert!(result.gate_overhead() <= limit);
            assert_eq!(result.gate_overhead(), 2 * result.inserted_count());
        }
    }

    #[test]
    fn inserts_at_least_one_gate_when_room_exists() {
        let c = roomy_circuit();
        let result = insert_random_pairs(&c, &InsertionConfig::default());
        assert!(result.inserted_count() >= 1);
        assert!(result.circuit.gate_count() == c.gate_count() + result.gate_overhead());
    }

    #[test]
    fn dense_circuit_gets_no_insertion() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1).cx(0, 1);
        let result = insert_random_pairs(&c, &InsertionConfig::default());
        assert_eq!(result.inserted_count(), 0);
        assert_eq!(result.circuit.instructions(), c.instructions());
    }

    #[test]
    fn masked_circuit_drops_only_inverse_halves() {
        let c = roomy_circuit();
        let result = insert_random_pairs(
            &c,
            &InsertionConfig {
                seed: 3,
                ..Default::default()
            },
        );
        let masked = result.masked_circuit();
        assert_eq!(
            masked.gate_count(),
            result.circuit.gate_count() - result.inserted_count()
        );
    }

    #[test]
    fn masked_circuit_changes_function_when_x_inserted() {
        // With X/CX insertions on leading windows the masked circuit RC
        // must differ from C (the random gates actually fire).
        let mut found_difference = false;
        for seed in 0..20 {
            let c = roomy_circuit();
            let result = insert_random_pairs(
                &c,
                &InsertionConfig {
                    seed,
                    ..Default::default()
                },
            );
            if result.inserted_count() == 0 {
                continue;
            }
            let masked = result.masked_circuit();
            if !equivalent_up_to_phase(&c, &masked, 1e-9).unwrap() {
                found_difference = true;
                break;
            }
        }
        assert!(found_difference, "masking never changed the function");
    }

    #[test]
    fn pairs_record_valid_indices() {
        let c = roomy_circuit();
        let result = insert_random_pairs(
            &c,
            &InsertionConfig {
                seed: 5,
                ..Default::default()
            },
        );
        for p in &result.pairs {
            assert!(p.inverse_layer < p.forward_layer);
            let inv = &result.circuit.instructions()[p.inverse_index];
            let fwd = &result.circuit.instructions()[p.forward_index];
            assert_eq!(fwd.gate(), &p.gate);
            assert_eq!(inv.gate(), &p.gate.adjoint());
            assert_eq!(inv.qubits(), p.qubits.as_slice());
            assert!(p.inverse_index < p.forward_index);
        }
    }

    #[test]
    fn r_and_r_inverse_compose_to_identity() {
        let c = roomy_circuit();
        let result = insert_random_pairs(
            &c,
            &InsertionConfig {
                seed: 11,
                ..Default::default()
            },
        );
        if result.inserted_count() == 0 {
            return;
        }
        let r = result.r_circuit();
        let r_inv = result.r_inverse_circuit();
        let composed = r_inv.then(&r).unwrap();
        // R⁻¹ then R — wait: the circuit is R⁻¹·R·C in *time* order, i.e.
        // R⁻¹ acts first. R⁻¹ followed by R is identity.
        let id = Circuit::new(c.num_qubits());
        assert!(equivalent_up_to_phase(&composed, &id, 1e-9).unwrap());
    }

    #[test]
    fn seeds_give_different_insertions() {
        let c = roomy_circuit();
        let a = insert_random_pairs(
            &c,
            &InsertionConfig {
                seed: 1,
                ..Default::default()
            },
        );
        let b = insert_random_pairs(
            &c,
            &InsertionConfig {
                seed: 2,
                ..Default::default()
            },
        );
        assert!(
            a.circuit.instructions() != b.circuit.instructions()
                || a.pairs != b.pairs
                || a.inserted_count() == 0
        );
    }

    #[test]
    fn same_seed_reproduces() {
        let c = roomy_circuit();
        let cfg = InsertionConfig {
            seed: 9,
            ..Default::default()
        };
        let a = insert_random_pairs(&c, &cfg);
        let b = insert_random_pairs(&c, &cfg);
        assert_eq!(a.circuit.instructions(), b.circuit.instructions());
    }

    #[test]
    fn hadamard_policy_inserts_h_pairs() {
        let c = roomy_circuit();
        let cfg = InsertionConfig {
            policy: GatePolicy::Hadamard,
            seed: 4,
            ..Default::default()
        };
        let result = insert_random_pairs(&c, &cfg);
        for p in &result.pairs {
            assert_eq!(p.gate, Gate::H);
        }
        assert!(equivalent_up_to_phase(&c, &result.circuit, 1e-9).unwrap());
    }

    #[test]
    fn pairs_sit_in_leading_idle_runs() {
        let c = roomy_circuit();
        let cfg = InsertionConfig {
            seed: 6,
            ..Default::default()
        };
        let result = insert_random_pairs(&c, &cfg);
        let empty_positions = qcir::CircuitDag::new(&c).empty_positions();
        assert!(result.inserted_count() >= 1);
        for p in &result.pairs {
            for q in &p.qubits {
                // Every wire used must be idle from layer 0 through the
                // forward layer in the original circuit.
                assert!(
                    (0..=p.forward_layer).all(|l| empty_positions[l].contains(q)),
                    "{q:?} busy before layer {}",
                    p.forward_layer
                );
            }
        }
    }
}

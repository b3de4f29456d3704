//! SABRE-style SWAP routing.
//!
//! Inserts SWAP gates so that every two-qubit gate acts on physically
//! coupled qubits. The heuristic follows SABRE (Li, Ding & Xie, ASPLOS'19)
//! in spirit: maintain the front layer of blocked gates, score candidate
//! SWAPs by the distance reduction over the front layer plus a decayed
//! lookahead window, commit the best, repeat.
//!
//! **Readiness.** Each wire keeps a queue of its unscheduled gates in
//! program order. A gate is ready iff it heads the queue of every wire
//! it touches, so the check costs O(arity) and never scans earlier
//! gates. Committing a gate pops it from its wires' queues; only the new
//! heads can become ready, and they come later in program order, so one
//! sweep in program order commits everything executable under the
//! current layout.
//!
//! **Cost.** For `n` gates, `s` inserted SWAPs, `L` logical and `P`
//! physical wires and the lookahead window `W`, routing costs
//! `O(n log n + s·(F·P + C·(L + F + W)))`, where `F ≤ L/2` is the front
//! layer and `C` the candidate SWAPs. Each gate is committed once (a
//! heap push and pop, O(arity) queue updates); a SWAP decision looks at
//! the front layer and the window only. An all-to-all device inserts no
//! SWAP, so its routing is one sweep.

use crate::coupling::DistanceMap;
use crate::error::CompileError;
use crate::layout::Layout;
use qcir::{Circuit, Gate, Instruction, Qubit};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Result of routing: a physical-wire circuit plus the initial and final
/// layouts (the final layout tells the caller which physical wire holds
/// each logical qubit at the end — needed to interpret measurements).
#[derive(Debug, Clone)]
pub struct Routed {
    /// Circuit over physical wires, containing only gates whose multi-qubit
    /// operands are coupled.
    pub circuit: Circuit,
    /// Layout at circuit start.
    pub initial_layout: Layout,
    /// Layout after all inserted SWAPs.
    pub final_layout: Layout,
    /// Number of SWAP gates inserted.
    pub swaps_inserted: usize,
}

/// Weight of the lookahead window in the SABRE score.
const LOOKAHEAD_WEIGHT: f64 = 0.5;
/// Size of the lookahead window (gates beyond the front layer).
const LOOKAHEAD_WINDOW: usize = 20;

/// Routes `circuit` (logical wires, gates of arity ≤ 2) onto the device
/// described by `distances`, starting from `layout`.
///
/// # Errors
///
/// Returns [`CompileError::UnsupportedGate`] if a gate of arity ≥ 3 is
/// present (run [`crate::decompose::decompose_to_cx`] first).
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qsim::Device;
/// use qcompile::{coupling::DistanceMap, layout::Layout, routing::route};
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 2); // 0 and 2 are not coupled on Valencia
/// let dev = Device::fake_valencia();
/// let dm = DistanceMap::new(&dev)?;
/// let routed = route(&c, Layout::trivial(3, 5), &dm)?;
/// assert!(routed.swaps_inserted >= 1);
/// # Ok::<(), qcompile::CompileError>(())
/// ```
pub fn route(
    circuit: &Circuit,
    layout: Layout,
    distances: &DistanceMap,
) -> Result<Routed, CompileError> {
    for inst in circuit.iter() {
        if inst.gate().arity() > 2 {
            return Err(CompileError::UnsupportedGate(format!(
                "{} (decompose before routing)",
                inst.gate()
            )));
        }
    }

    let num_physical = layout.num_physical();
    let mut out = Circuit::with_name(num_physical, circuit.name());
    let initial_layout = layout.clone();
    let mut layout = layout;
    let mut swaps_inserted = 0usize;

    let gates = circuit.instructions();
    // Per-wire queues of the unscheduled gates, in program order.
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); circuit.num_qubits() as usize];
    for (idx, inst) in gates.iter().enumerate() {
        for q in inst.qubits() {
            queues[q.index()].push_back(idx);
        }
    }
    let is_ready = |idx: usize, queues: &[VecDeque<usize>]| {
        gates[idx]
            .qubits()
            .iter()
            .all(|q| queues[q.index()].front() == Some(&idx))
    };
    // Ready gates not yet visited by the current sweep, smallest index
    // first; seeded with each ready gate once, on its first wire.
    let mut ready: BinaryHeap<Reverse<usize>> = queues
        .iter()
        .enumerate()
        .filter_map(|(w, queue)| queue.front().copied().map(|idx| (w, idx)))
        .filter(|&(w, idx)| gates[idx].qubits()[0].index() == w && is_ready(idx, &queues))
        .map(|(_, idx)| Reverse(idx))
        .collect();
    // `skip` leads from each gate index to the first unscheduled 2q gate
    // at or after it (`gates.len()` past the last): such a gate points at
    // itself, every other one further on. The lookahead window follows
    // it, so committed gates are stepped over once, not at every SWAP.
    let mut skip: Vec<usize> = (0..=gates.len())
        .map(|idx| match gates.get(idx) {
            Some(inst) if inst.qubits().len() != 2 => idx + 1,
            _ => idx,
        })
        .collect();
    let mut scheduled = 0usize;

    loop {
        // Commit every ready gate that is executable under the current
        // layout, in program order. The gates a commit unblocks come
        // later in program order, so this same sweep reaches them.
        // Ready gates left blocked are the front layer, ascending.
        let mut front: Vec<usize> = Vec::new();
        while let Some(Reverse(idx)) = ready.pop() {
            let inst = &gates[idx];
            let executable = match inst.qubits() {
                [a, b] => {
                    let pa = layout.physical(a.raw());
                    let pb = layout.physical(b.raw());
                    distances.distance(pa, pb) == 1
                }
                _ => true, // single-qubit gates always execute
            };
            if !executable {
                front.push(idx);
                continue;
            }
            let mapped: Vec<Qubit> = inst
                .qubits()
                .iter()
                .map(|q| Qubit::new(layout.physical(q.raw())))
                .collect();
            out.push(
                Instruction::new(inst.gate().clone(), mapped).expect("mapped instruction valid"),
            )?;
            scheduled += 1;
            skip[idx] = idx + 1;
            for q in inst.qubits() {
                queues[q.index()].pop_front();
            }
            for (i, q) in inst.qubits().iter().enumerate() {
                let Some(&next) = queues[q.index()].front() else {
                    continue;
                };
                // A successor on several of this gate's wires is seen once.
                let seen = inst.qubits()[..i]
                    .iter()
                    .any(|p| queues[p.index()].front() == Some(&next));
                if !seen && is_ready(next, &queues) {
                    ready.push(Reverse(next));
                }
            }
        }

        if scheduled == gates.len() {
            break;
        }
        debug_assert!(!front.is_empty(), "stalled with no blocked 2q gates");

        // Lookahead window: the next unscheduled 2q gates in program
        // order (the front layer among them).
        let mut lookahead: Vec<usize> = Vec::with_capacity(LOOKAHEAD_WINDOW);
        let mut idx = next_two_qubit(&mut skip, 0);
        while idx < gates.len() && lookahead.len() < LOOKAHEAD_WINDOW {
            lookahead.push(idx);
            idx = next_two_qubit(&mut skip, idx + 1);
        }

        // Candidate SWAPs: physical edges touching a front-layer operand.
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        for &idx in &front {
            for q in gates[idx].qubits() {
                let p = layout.physical(q.raw());
                for other in 0..num_physical {
                    if other != p && distances.distance(p, other) == 1 {
                        let edge = (p.min(other), p.max(other));
                        if !candidates.contains(&edge) {
                            candidates.push(edge);
                        }
                    }
                }
            }
        }

        let score = |layout: &Layout| -> f64 {
            let front_cost: u32 = front
                .iter()
                .map(|&idx| {
                    let qs = gates[idx].qubits();
                    distances.distance(layout.physical(qs[0].raw()), layout.physical(qs[1].raw()))
                })
                .sum();
            let look_cost: u32 = lookahead
                .iter()
                .map(|&idx| {
                    let qs = gates[idx].qubits();
                    distances.distance(layout.physical(qs[0].raw()), layout.physical(qs[1].raw()))
                })
                .sum();
            front_cost as f64 + LOOKAHEAD_WEIGHT * look_cost as f64 / lookahead.len().max(1) as f64
        };

        let mut best: Option<(f64, (u32, u32))> = None;
        for &(a, b) in &candidates {
            let mut trial = layout.clone();
            trial.swap_physical(a, b);
            let s = score(&trial);
            if best.is_none_or(|(bs, _)| s < bs) {
                best = Some((s, (a, b)));
            }
        }
        let (_, (a, b)) = best.expect("candidate set nonempty");
        out.append(Gate::Swap, &[a, b])?;
        layout.swap_physical(a, b);
        swaps_inserted += 1;
        // Nothing was committed since the sweep, so the front layer is
        // still exactly the set of ready gates.
        ready.extend(front.into_iter().map(Reverse));
    }

    Ok(Routed {
        circuit: out,
        initial_layout,
        final_layout: layout,
        swaps_inserted,
    })
}

/// Follows `skip` from `idx` to the first unscheduled 2q gate at or
/// after it, halving the path on the way (each visited entry then
/// points two steps on).
fn next_two_qubit(skip: &mut [usize], mut idx: usize) -> usize {
    while skip[idx] != idx {
        skip[idx] = skip[skip[idx]];
        idx = skip[idx];
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::noise::NoiseModel;
    use qsim::Device;

    fn valencia_map() -> DistanceMap {
        DistanceMap::new(&Device::fake_valencia()).unwrap()
    }

    #[test]
    fn coupled_gates_route_without_swaps() {
        let mut c = Circuit::new(5);
        c.cx(0, 1).cx(1, 2).cx(1, 3).cx(3, 4);
        let routed = route(&c, Layout::trivial(5, 5), &valencia_map()).unwrap();
        assert_eq!(routed.swaps_inserted, 0);
        assert_eq!(routed.circuit.gate_count(), 4);
    }

    #[test]
    fn uncoupled_gate_inserts_swap() {
        let mut c = Circuit::new(5);
        c.cx(0, 4); // distance 3 on Valencia
        let routed = route(&c, Layout::trivial(5, 5), &valencia_map()).unwrap();
        assert!(routed.swaps_inserted >= 2);
        // Every 2q gate in the output must be on a coupled pair.
        let dm = valencia_map();
        for inst in routed.circuit.iter() {
            if inst.qubits().len() == 2 {
                let (a, b) = (inst.qubits()[0].raw(), inst.qubits()[1].raw());
                assert_eq!(dm.distance(a, b), 1, "gate {inst} not on an edge");
            }
        }
    }

    #[test]
    fn routing_preserves_functionality() {
        use qsim::Statevector;
        // GHZ-like circuit with a far pair.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 3).cx(0, 1).x(2).cx(2, 3);
        let dev = Device::linear(4, NoiseModel::ideal());
        let dm = DistanceMap::new(&dev).unwrap();
        let routed = route(&c, Layout::trivial(4, 4), &dm).unwrap();

        // Logical result.
        let logical = Statevector::from_circuit(&c).unwrap();
        // Physical result: apply routed circuit, then undo the final
        // permutation by swapping wires back.
        let mut unpermute = routed.circuit.clone();
        let fl = routed.final_layout.clone();
        // Move each logical qubit back to its trivial position with swaps.
        let mut pos: Vec<u32> = (0..4).map(|l| fl.physical(l)).collect();
        for l in 0..4u32 {
            let cur = pos[l as usize];
            if cur != l {
                unpermute.swap(cur, l);
                // Track the displaced qubit.
                for p in pos.iter_mut() {
                    if *p == l {
                        *p = cur;
                        break;
                    }
                }
                pos[l as usize] = l;
            }
        }
        let physical = Statevector::from_circuit(&unpermute).unwrap();
        assert!(
            logical.approx_eq_up_to_phase(&physical, 1e-9),
            "routing changed the computation"
        );
    }

    #[test]
    fn rejects_unlowered_gates() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let err = route(&c, Layout::trivial(3, 5), &valencia_map()).unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedGate(_)));
    }

    #[test]
    fn single_qubit_circuit_untouched() {
        let mut c = Circuit::new(3);
        c.h(0).x(1).rz(0.4, 2);
        let routed = route(&c, Layout::trivial(3, 5), &valencia_map()).unwrap();
        assert_eq!(routed.swaps_inserted, 0);
        assert_eq!(routed.circuit.gate_count(), 3);
        assert_eq!(routed.final_layout, routed.initial_layout);
    }

    #[test]
    fn dense_circuit_routes_on_line() {
        let mut c = Circuit::new(5);
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    c.cx(a, b);
                }
            }
        }
        let dev = Device::linear(5, NoiseModel::ideal());
        let dm = DistanceMap::new(&dev).unwrap();
        let routed = route(&c, Layout::trivial(5, 5), &dm).unwrap();
        for inst in routed.circuit.iter() {
            if inst.qubits().len() == 2 {
                let (a, b) = (inst.qubits()[0].raw(), inst.qubits()[1].raw());
                assert_eq!(dm.distance(a, b), 1);
            }
        }
    }
}

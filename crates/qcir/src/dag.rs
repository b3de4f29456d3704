//! Dependency DAG and ASAP layering.
//!
//! TetrisLock's Algorithm 1 starts by "converting the circuit to a DAG
//! representation and extracting layers", then scanning each layer for
//! unused qubits. [`CircuitDag`] implements exactly that: nodes are
//! instructions, edges follow wire order, and [`CircuitDag::layers`] groups
//! nodes into as-soon-as-possible columns.

use crate::circuit::{Circuit, Instruction};
use crate::qubit::Qubit;
use std::collections::BTreeSet;

/// Identifier of a node (instruction) in a [`CircuitDag`]. Equal to the
/// instruction's index in the originating circuit.
pub type NodeId = usize;

/// One ASAP layer: the node ids scheduled in this column plus the qubits
/// they occupy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Column index, starting at 0.
    pub index: usize,
    /// Instruction indices scheduled in this column.
    pub nodes: Vec<NodeId>,
    /// Qubits occupied by a gate in this column.
    pub used_qubits: BTreeSet<Qubit>,
}

impl Layer {
    /// Qubits of the circuit that are idle in this column, ascending — the
    /// "empty positions" of the paper's Algorithm 1.
    pub fn empty_qubits(&self, num_qubits: u32) -> Vec<Qubit> {
        (0..num_qubits)
            .map(Qubit::new)
            .filter(|q| !self.used_qubits.contains(q))
            .collect()
    }
}

/// Wire-dependency DAG over a circuit's instructions.
///
/// # Example
///
/// ```
/// use qcir::{Circuit, CircuitDag};
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).x(2);
/// let dag = CircuitDag::new(&c);
/// assert_eq!(dag.num_layers(), 2);
/// // Layer 0 holds `h q0` and `x q2`; qubit 1 is empty there.
/// assert_eq!(dag.layers()[0].empty_qubits(3).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitDag {
    num_qubits: u32,
    /// predecessors[i] = nodes that must run before node i.
    predecessors: Vec<Vec<NodeId>>,
    /// successors[i] = nodes that depend on node i.
    successors: Vec<Vec<NodeId>>,
    /// ASAP column of each node.
    node_layer: Vec<usize>,
    layers: Vec<Layer>,
}

impl CircuitDag {
    /// Builds the DAG and ASAP layering for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.gate_count();
        let mut predecessors = vec![Vec::new(); n];
        let mut successors = vec![Vec::new(); n];
        let mut node_layer = vec![0usize; n];

        // Last node seen on each wire.
        let mut wire_front: Vec<Option<NodeId>> = vec![None; circuit.num_qubits() as usize];
        // Next free column on each wire.
        let mut wire_col = vec![0usize; circuit.num_qubits() as usize];

        for (id, inst) in circuit.iter().enumerate() {
            let mut col = 0;
            for q in inst.qubits() {
                if let Some(prev) = wire_front[q.index()] {
                    if !predecessors[id].contains(&prev) {
                        predecessors[id].push(prev);
                        successors[prev].push(id);
                    }
                }
                col = col.max(wire_col[q.index()]);
            }
            node_layer[id] = col;
            for q in inst.qubits() {
                wire_front[q.index()] = Some(id);
                wire_col[q.index()] = col + 1;
            }
        }

        let depth = node_layer.iter().map(|&c| c + 1).max().unwrap_or(0);
        let mut layers: Vec<Layer> = (0..depth)
            .map(|index| Layer {
                index,
                nodes: Vec::new(),
                used_qubits: BTreeSet::new(),
            })
            .collect();
        for (id, inst) in circuit.iter().enumerate() {
            let layer = &mut layers[node_layer[id]];
            layer.nodes.push(id);
            layer.used_qubits.extend(inst.qubits().iter().copied());
        }

        CircuitDag {
            num_qubits: circuit.num_qubits(),
            predecessors,
            successors,
            node_layer,
            layers,
        }
    }

    /// Number of qubit wires in the underlying circuit.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of ASAP layers (equals [`Circuit::depth`]).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The ASAP layers in column order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The ASAP column assigned to instruction `node`.
    pub fn layer_of(&self, node: NodeId) -> usize {
        self.node_layer[node]
    }

    /// Direct predecessors of `node` (instructions it depends on).
    pub fn predecessors(&self, node: NodeId) -> &[NodeId] {
        &self.predecessors[node]
    }

    /// Direct successors of `node`.
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        &self.successors[node]
    }

    /// For each layer, the list of idle qubits — the paper's
    /// `empty_positions` table (Algorithm 1, step 1).
    pub fn empty_positions(&self) -> Vec<Vec<Qubit>> {
        self.layers
            .iter()
            .map(|layer| layer.empty_qubits(self.num_qubits))
            .collect()
    }
}

/// Convenience: schedule a circuit into layers of instructions (cloned).
///
/// # Example
///
/// ```
/// use qcir::{Circuit, dag::layered_instructions};
///
/// let mut c = Circuit::new(2);
/// c.h(0).h(1).cx(0, 1);
/// let layers = layered_instructions(&c);
/// assert_eq!(layers.len(), 2);
/// assert_eq!(layers[0].len(), 2);
/// ```
pub fn layered_instructions(circuit: &Circuit) -> Vec<Vec<Instruction>> {
    let dag = CircuitDag::new(circuit);
    dag.layers()
        .iter()
        .map(|layer| {
            layer
                .nodes
                .iter()
                .map(|&id| circuit.instructions()[id].clone())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0) // layer 0
            .x(2) // layer 0
            .cx(0, 1) // layer 1
            .cx(2, 3) // layer 1
            .ccx(0, 1, 2); // layer 2
        c
    }

    #[test]
    fn layering_matches_depth() {
        let c = sample();
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.num_layers(), c.depth());
        assert_eq!(dag.num_layers(), 3);
        assert_eq!(dag.layers()[0].nodes, vec![0, 1]);
        assert_eq!(dag.layers()[1].nodes, vec![2, 3]);
        assert_eq!(dag.layers()[2].nodes, vec![4]);
    }

    #[test]
    fn dependencies_follow_wires() {
        let c = sample();
        let dag = CircuitDag::new(&c);
        // cx(0,1) depends on h(0) only.
        assert_eq!(dag.predecessors(2), &[0]);
        // ccx depends on both cx gates.
        let mut preds = dag.predecessors(4).to_vec();
        preds.sort_unstable();
        assert_eq!(preds, vec![2, 3]);
        assert_eq!(dag.successors(0), &[2]);
    }

    #[test]
    fn empty_positions_per_layer() {
        let c = sample();
        let dag = CircuitDag::new(&c);
        let empties = dag.empty_positions();
        // Layer 0 uses {0, 2}: qubits 1 and 3 empty.
        assert_eq!(empties[0], vec![Qubit::new(1), Qubit::new(3)]);
        // Layer 1 uses {0,1,2,3}: none empty.
        assert!(empties[1].is_empty());
        // Layer 2 uses {0,1,2}: qubit 3 empty.
        assert_eq!(empties[2], vec![Qubit::new(3)]);
    }

    #[test]
    fn empty_circuit_has_no_layers() {
        let c = Circuit::new(3);
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.num_layers(), 0);
        assert!(dag.empty_positions().is_empty());
    }

    #[test]
    fn layered_instructions_clone_gates() {
        let c = sample();
        let layers = layered_instructions(&c);
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[2][0].gate().name(), "ccx");
    }
}

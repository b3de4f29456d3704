//! Circuit resource statistics.

use crate::circuit::Circuit;
use crate::gate::Gate;
use std::collections::BTreeMap;
use std::fmt;

/// Resource summary of a circuit: the numbers hardware papers (and
/// Table I) report.
///
/// # Example
///
/// ```
/// use qcir::{Circuit, stats::CircuitStats};
///
/// let mut c = Circuit::new(3);
/// c.h(0).t(0).cx(0, 1).ccx(0, 1, 2);
/// let stats = CircuitStats::of(&c);
/// assert_eq!(stats.gates, 4);
/// assert_eq!(stats.two_qubit_gates, 1);
/// assert_eq!(stats.multi_controlled_gates, 1);
/// assert_eq!(stats.t_count, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Register width.
    pub qubits: u32,
    /// Total gate count.
    pub gates: usize,
    /// ASAP depth.
    pub depth: usize,
    /// Single-qubit gates.
    pub single_qubit_gates: usize,
    /// Exactly-two-qubit gates (CX, CZ, SWAP, …).
    pub two_qubit_gates: usize,
    /// Gates with ≥ 3 operands (CCX, MCX, CSWAP).
    pub multi_controlled_gates: usize,
    /// T/T† count (fault-tolerance cost proxy).
    pub t_count: usize,
    /// Per-gate-name histogram.
    pub histogram: BTreeMap<&'static str, usize>,
    /// Fraction of wire-layer cells occupied by gates (1.0 = perfectly
    /// dense; the complement is TetrisLock's insertion budget).
    pub utilization: f64,
}

impl CircuitStats {
    /// Computes the summary for `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let depth = circuit.depth();
        let mut single = 0;
        let mut two = 0;
        let mut multi = 0;
        let mut t_count = 0;
        let mut occupied_cells = 0usize;
        for inst in circuit.iter() {
            match inst.gate().arity() {
                1 => single += 1,
                2 => two += 1,
                _ => multi += 1,
            }
            if matches!(inst.gate(), Gate::T | Gate::Tdg) {
                t_count += 1;
            }
            occupied_cells += inst.qubits().len();
        }
        let cells = depth * circuit.num_qubits() as usize;
        // Occupied cells are counted per (gate, wire) pair; a wire-layer
        // cell holds at most one gate, so this is exact.
        CircuitStats {
            qubits: circuit.num_qubits(),
            gates: circuit.gate_count(),
            depth,
            single_qubit_gates: single,
            two_qubit_gates: two,
            multi_controlled_gates: multi,
            t_count,
            histogram: circuit.gate_histogram(),
            utilization: if cells == 0 {
                0.0
            } else {
                occupied_cells as f64 / cells as f64
            },
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} qubits, {} gates (1q {}, 2q {}, mct {}), depth {}, t-count {}",
            self.qubits,
            self.gates,
            self.single_qubit_gates,
            self.two_qubit_gates,
            self.multi_controlled_gates,
            self.depth,
            self.t_count
        )?;
        write!(f, "utilization {:.0}%", self.utilization * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_arity() {
        let mut c = Circuit::new(4);
        c.h(0)
            .t(1)
            .tdg(2)
            .cx(0, 1)
            .swap(2, 3)
            .ccx(0, 1, 2)
            .mcx(&[0, 1, 2], 3);
        let s = CircuitStats::of(&c);
        assert_eq!(s.single_qubit_gates, 3);
        assert_eq!(s.two_qubit_gates, 2);
        assert_eq!(s.multi_controlled_gates, 2);
        assert_eq!(s.t_count, 2);
        assert_eq!(s.gates, 7);
    }

    #[test]
    fn utilization_bounds() {
        // Fully dense: CX ladder on 2 qubits.
        let mut dense = Circuit::new(2);
        dense.cx(0, 1).cx(0, 1);
        let s = CircuitStats::of(&dense);
        assert!((s.utilization - 1.0).abs() < 1e-12);

        // Half idle: single wire used of two.
        let mut sparse = Circuit::new(2);
        sparse.h(0).h(0);
        let s = CircuitStats::of(&sparse);
        assert!((s.utilization - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_circuit() {
        let s = CircuitStats::of(&Circuit::new(3));
        assert_eq!(s.gates, 0);
        assert_eq!(s.depth, 0);
        assert_eq!(s.utilization, 0.0);
    }

    #[test]
    fn display_is_informative() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let text = CircuitStats::of(&c).to_string();
        assert!(text.contains("2 qubits"));
        assert!(text.contains("depth 2"));
    }
}

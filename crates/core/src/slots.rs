//! Empty-slot analysis (Algorithm 1, step 1).
//!
//! The paper converts the circuit to a DAG, extracts layers, and records
//! the unused qubits of each layer as "empty positions". This module adds
//! the structure TetrisLock actually needs on top of that: per-wire *idle
//! windows* — maximal runs of consecutive layers in which a wire is unused.
//! A cancelling pair `g†…g` can be placed inside a window (both gates on
//! wires idle across the whole span), which is what guarantees exact
//! functional preservation with zero depth overhead.

use qcir::{Circuit, CircuitDag, Qubit};

/// A maximal run of consecutive layers during which a wire is idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleWindow {
    /// The idle wire.
    pub qubit: Qubit,
    /// First idle layer (inclusive).
    pub start: usize,
    /// One past the last idle layer (exclusive). `end == depth` means the
    /// window extends to the end of the circuit (a trailing window).
    pub end: usize,
}

impl IdleWindow {
    /// Number of idle layers in the window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the window is empty (zero layers).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// `true` if the window starts at layer 0 (a leading window — the
    /// region the paper inserts `R⁻¹R` into).
    pub fn is_leading(&self) -> bool {
        self.start == 0
    }

    /// Intersection with another window (different wire, same columns).
    pub fn overlap(&self, other: &IdleWindow) -> Option<(usize, usize)> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some((start, end))
    }
}

/// Empty-slot table for a circuit.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use tetrislock::slots::SlotTable;
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(0, 1); // qubit 2 idle throughout (depth 3)
/// let slots = SlotTable::new(&c);
/// let w = &slots.windows_for(2.into())[0];
/// assert_eq!((w.start, w.end), (0, 3));
/// ```
#[derive(Debug, Clone)]
pub struct SlotTable {
    num_qubits: u32,
    depth: usize,
    /// All idle windows, per wire.
    windows: Vec<Vec<IdleWindow>>,
    /// Per layer: empty qubits (Algorithm 1's `empty_positions`).
    empty_positions: Vec<Vec<Qubit>>,
}

impl SlotTable {
    /// Analyzes `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let dag = CircuitDag::new(circuit);
        let depth = dag.num_layers();
        let n = circuit.num_qubits();
        let empty_positions = dag.empty_positions();

        let mut windows: Vec<Vec<IdleWindow>> = vec![Vec::new(); n as usize];
        for q in 0..n {
            let qubit = Qubit::new(q);
            let mut start: Option<usize> = None;
            for (layer, empties) in empty_positions.iter().enumerate() {
                let idle = empties.contains(&qubit);
                match (idle, start) {
                    (true, None) => start = Some(layer),
                    (false, Some(s)) => {
                        windows[q as usize].push(IdleWindow {
                            qubit,
                            start: s,
                            end: layer,
                        });
                        start = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = start {
                windows[q as usize].push(IdleWindow {
                    qubit,
                    start: s,
                    end: depth,
                });
            }
            // A completely idle wire in an empty circuit still offers a
            // window only if the circuit has depth; otherwise there are no
            // columns to hide in.
        }

        SlotTable {
            num_qubits: n,
            depth,
            windows,
            empty_positions,
        }
    }

    /// Circuit depth (number of layers analyzed).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of wires.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Idle windows of one wire, in layer order.
    pub fn windows_for(&self, qubit: Qubit) -> &[IdleWindow] {
        &self.windows[qubit.index()]
    }

    /// Empty qubits of a layer (the paper's `empty_positions[layer]`).
    pub fn empty_at(&self, layer: usize) -> &[Qubit] {
        &self.empty_positions[layer]
    }

    /// Total number of empty slots (idle wire-layer cells) — an upper
    /// bound on how much masking material fits without depth growth.
    pub fn total_empty_slots(&self) -> usize {
        self.empty_positions.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase() -> Circuit {
        // q0 busy from L0; q1 from L1; q2 from L2; q3 idle always.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).h(0).h(1).h(2);
        c
    }

    #[test]
    fn leading_windows_match_first_use() {
        // Layering: h0@0, cx01@1, cx12@2, h0@2, h1@3, h2@3 → depth 4.
        let c = staircase();
        let t = SlotTable::new(&c);
        assert_eq!(t.depth(), 4);
        let w1 = t.windows_for(Qubit::new(1));
        assert_eq!(
            w1,
            &[IdleWindow {
                qubit: Qubit::new(1),
                start: 0,
                end: 1
            }]
        );
        let w2 = t.windows_for(Qubit::new(2));
        assert_eq!((w2[0].start, w2[0].end), (0, 2));
        assert!(w2[0].is_leading());
    }

    #[test]
    fn fully_idle_wire_has_full_window() {
        let c = staircase();
        let t = SlotTable::new(&c);
        let w3 = t.windows_for(Qubit::new(3));
        assert_eq!(w3.len(), 1);
        assert_eq!((w3[0].start, w3[0].end), (0, 4));
        assert_eq!(w3[0].len(), 4);
    }

    #[test]
    fn trailing_window_detected() {
        let c = staircase();
        let t = SlotTable::new(&c);
        // q0 is used at layers 0, 1, 2 and idle in the final layer.
        let w0 = t.windows_for(Qubit::new(0));
        assert_eq!(w0.len(), 1);
        assert_eq!((w0[0].start, w0[0].end), (3, 4));
        assert!(!w0[0].is_leading());
    }

    #[test]
    fn empty_positions_agree_with_windows() {
        let c = staircase();
        let t = SlotTable::new(&c);
        let empties: usize = (0..t.depth()).map(|l| t.empty_at(l).len()).sum();
        let window_cells: usize = t.windows.iter().flatten().map(IdleWindow::len).sum();
        assert_eq!(empties, window_cells);
        assert_eq!(t.total_empty_slots(), empties);
    }

    #[test]
    fn dense_circuit_has_no_windows() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        let t = SlotTable::new(&c);
        assert!(t.windows.iter().all(Vec::is_empty));
        assert_eq!(t.total_empty_slots(), 0);
    }

    #[test]
    fn empty_circuit_has_no_depth_or_windows() {
        let c = Circuit::new(3);
        let t = SlotTable::new(&c);
        assert_eq!(t.depth(), 0);
        assert!(t.windows.iter().all(Vec::is_empty));
    }

    #[test]
    fn window_helpers() {
        let w = IdleWindow {
            qubit: Qubit::new(0),
            start: 2,
            end: 5,
        };
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        assert!(!w.is_leading());
        let v = IdleWindow {
            qubit: Qubit::new(1),
            start: 4,
            end: 8,
        };
        assert_eq!(w.overlap(&v), Some((4, 5)));
        let far = IdleWindow {
            qubit: Qubit::new(1),
            start: 6,
            end: 8,
        };
        assert_eq!(w.overlap(&far), None);
    }
}

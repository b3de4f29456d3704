//! Circuit → ZX-diagram translation for the full workspace gate set.
//!
//! Each wire carries a growing chain of spiders; a per-wire "pending
//! Hadamard" flag absorbs `H` gates into the kind of the next edge
//! instead of materializing Hadamard boxes as vertices. The primitive
//! vocabulary is tiny — Z-phase spiders (`P(α)` semantics), X-phase
//! spiders, `H` toggles, `CX` (Z spider plain-connected to X spider) and
//! `CZ` (two Z spiders on a Hadamard edge) — and every other gate lowers
//! onto it by an *exact* textbook decomposition (exact up to global
//! phase, which the equivalence relation quotients out anyway):
//!
//! * `Ry(θ) = S · Rx(θ) · S†`, `U(θ,φ,λ) = P(φ) · Ry(θ) · P(λ)`;
//! * `CY = S(t) · CX · S†(t)`, `CH = Ry(π/4)(t) · CZ · Ry(−π/4)(t)`;
//! * `CP(λ) = P(λ/2)(c) · P(λ/2)(t) · CX · P(−λ/2)(t) · CX`, and
//!   `CRz(λ) = P(−λ/2)(c) · CP(λ)`;
//! * `CCX` via the standard 7-T decomposition, `CSwap` via `CCX`
//!   conjugated by `CX`, `Swap` as three `CX`;
//! * `Mcx(k)` as `H(t) · C^k Z · H(t)`, with the multi-controlled phase
//!   expanded over the `2^{k+1}−1` parity terms of the Fourier identity
//!   `x₁⋯x_m = 2^{1−m} Σ_{∅≠S} (−1)^{|S|+1} (⊕_{i∈S} x_i)` — exact but
//!   exponential in `k`, so translation refuses more than
//!   [`MAX_MCX_CONTROLS`] controls and the verifier falls through to a
//!   lower tier.
//!
//! Every *structural* phase — Pauli π, Clifford ±π/2, the T-ladder
//! ±π/4 of the `CCX` lowering, the `±π/2^{m−1}` parity-term angles of
//! the `Mcx` expansion — is constructed **symbolically** as an exact
//! dyadic [`Phase`], never routed through a float. Only the free-angle
//! rotation parameters (`Rx`/`Ry`/`Rz`/`P`/`U`/`CP`/`CRz`) pass through
//! [`Phase::from_radians`], which classifies bit-exact grid values and
//! keeps everything else as an exact symbolic atom. Halvings of raw
//! parameters (`λ/2` in the `CP`/`CRz` lowerings) happen on the `f64`
//! *before* construction — a power-of-two scaling is exact in binary
//! floating point, so mirrored `λ/2` atoms still cancel exactly.

use super::graph::{Diagram, EdgeKind, VKind};
use super::phase::Phase;
use qcir::{Gate, Instruction};
use std::borrow::Borrow;

/// Largest `Mcx` control count the parity-term expansion accepts before
/// the exponential gate count stops being worth it.
pub const MAX_MCX_CONTROLS: usize = 6;

/// Translation state: the diagram under construction plus each wire's
/// frontier vertex and pending-Hadamard edge kind.
struct Builder {
    diagram: Diagram,
    front: Vec<usize>,
    pending: Vec<EdgeKind>,
}

impl Builder {
    fn new(n: usize) -> Self {
        let diagram = Diagram::new(n);
        Builder {
            front: diagram.inputs().to_vec(),
            pending: vec![EdgeKind::Plain; n],
            diagram,
        }
    }

    /// Appends a spider to wire `w`, consuming the pending edge kind.
    fn place(&mut self, w: usize, kind: VKind, phase: Phase) -> usize {
        let v = self.diagram.add_vertex(kind, phase);
        self.diagram.connect(self.front[w], v, self.pending[w]);
        self.front[w] = v;
        self.pending[w] = EdgeKind::Plain;
        v
    }

    /// `P(α)` = diag(1, e^{iα}): a Z spider with phase α.
    fn zphase(&mut self, w: usize, phase: Phase) {
        self.place(w, VKind::Z, phase);
    }

    /// `X^{α/π}` up to phase: an X spider with phase α.
    fn xphase(&mut self, w: usize, phase: Phase) {
        self.place(w, VKind::X, phase);
    }

    /// Hadamard: toggles the wire's pending edge kind (H² = I).
    fn had(&mut self, w: usize) {
        self.pending[w] = self.pending[w].toggled();
    }

    /// `CX`: phase-free Z spider on the control, X spider on the
    /// target, plain edge between them.
    fn cx(&mut self, c: usize, t: usize) {
        let zc = self.place(c, VKind::Z, Phase::ZERO);
        let xt = self.place(t, VKind::X, Phase::ZERO);
        self.diagram.connect(zc, xt, EdgeKind::Plain);
    }

    /// `CZ`: two phase-free Z spiders on a Hadamard edge.
    fn cz(&mut self, a: usize, b: usize) {
        let za = self.place(a, VKind::Z, Phase::ZERO);
        let zb = self.place(b, VKind::Z, Phase::ZERO);
        self.diagram.connect(za, zb, EdgeKind::Had);
    }

    /// `Ry(θ) = S · Rx(θ) · S†` (applied right to left).
    fn ry(&mut self, w: usize, theta: Phase) {
        self.zphase(w, Phase::dyadic(-1, 1));
        self.xphase(w, theta);
        self.zphase(w, Phase::dyadic(1, 1));
    }

    /// Multi-controlled Z over `wires` via the parity-term expansion.
    /// The per-term angle `±π/2^{m−1}` is an exact dyadic phase.
    fn mcz(&mut self, wires: &[usize]) {
        let m = wires.len();
        for mask in 1u32..(1 << m) {
            let subset: Vec<usize> = (0..m)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| wires[i])
                .collect();
            let sign = if subset.len() % 2 == 1 { 1 } else { -1 };
            let (&last, rest) = subset.split_last().expect("non-empty subset");
            for &w in rest {
                self.cx(w, last);
            }
            self.zphase(last, Phase::dyadic(sign, m as u32 - 1));
            for &w in rest.iter().rev() {
                self.cx(w, last);
            }
        }
    }

    /// Lowers one gate onto the primitive vocabulary. `None` only for
    /// `Mcx` beyond [`MAX_MCX_CONTROLS`] controls.
    fn gate(&mut self, gate: &Gate, q: &[usize]) -> Option<()> {
        match gate {
            Gate::I => {}
            Gate::X => self.xphase(q[0], Phase::pi()),
            Gate::Y => {
                // Y = i·X·Z: Z first, then X.
                self.zphase(q[0], Phase::pi());
                self.xphase(q[0], Phase::pi());
            }
            Gate::Z => self.zphase(q[0], Phase::pi()),
            Gate::H => self.had(q[0]),
            Gate::S => self.zphase(q[0], Phase::dyadic(1, 1)),
            Gate::Sdg => self.zphase(q[0], Phase::dyadic(-1, 1)),
            Gate::T => self.zphase(q[0], Phase::dyadic(1, 2)),
            Gate::Tdg => self.zphase(q[0], Phase::dyadic(-1, 2)),
            Gate::Sx => self.xphase(q[0], Phase::dyadic(1, 1)),
            Gate::Sxdg => self.xphase(q[0], Phase::dyadic(-1, 1)),
            Gate::Rx(a) => self.xphase(q[0], Phase::from_radians(*a)),
            Gate::Ry(a) => self.ry(q[0], Phase::from_radians(*a)),
            Gate::Rz(a) | Gate::P(a) => self.zphase(q[0], Phase::from_radians(*a)),
            Gate::U(theta, phi, lambda) => {
                self.zphase(q[0], Phase::from_radians(*lambda));
                self.ry(q[0], Phase::from_radians(*theta));
                self.zphase(q[0], Phase::from_radians(*phi));
            }
            Gate::CX => self.cx(q[0], q[1]),
            Gate::CY => {
                self.zphase(q[1], Phase::dyadic(-1, 1));
                self.cx(q[0], q[1]);
                self.zphase(q[1], Phase::dyadic(1, 1));
            }
            Gate::CZ => self.cz(q[0], q[1]),
            Gate::CH => {
                self.ry(q[1], Phase::dyadic(-1, 2));
                self.cz(q[0], q[1]);
                self.ry(q[1], Phase::dyadic(1, 2));
            }
            Gate::CP(a) => self.cp(q[0], q[1], *a),
            Gate::CRz(a) => {
                self.zphase(q[0], Phase::from_radians(-a / 2.0));
                self.cp(q[0], q[1], *a);
            }
            Gate::Swap => {
                self.cx(q[0], q[1]);
                self.cx(q[1], q[0]);
                self.cx(q[0], q[1]);
            }
            Gate::CCX => self.ccx(q[0], q[1], q[2]),
            Gate::CSwap => {
                self.cx(q[2], q[1]);
                self.ccx(q[0], q[1], q[2]);
                self.cx(q[2], q[1]);
            }
            Gate::Mcx(_) => {
                let (&t, controls) = q.split_last().expect("mcx has a target");
                if controls.len() > MAX_MCX_CONTROLS {
                    return None;
                }
                self.had(t);
                let mut wires = controls.to_vec();
                wires.push(t);
                self.mcz(&wires);
                self.had(t);
            }
        }
        Some(())
    }

    /// `CP(λ)` = `P(λ/2)(c) · P(λ/2)(t) · CX · P(−λ/2)(t) · CX`. The
    /// halving happens on the raw `f64` (exact power-of-two scaling),
    /// so a mirrored `CP(−λ)` produces the exactly-canceling atoms.
    fn cp(&mut self, c: usize, t: usize, lambda: f64) {
        let half = Phase::from_radians(lambda / 2.0);
        let neg_half = Phase::from_radians(-lambda / 2.0);
        self.zphase(c, half.clone());
        self.zphase(t, half);
        self.cx(c, t);
        self.zphase(t, neg_half);
        self.cx(c, t);
    }

    /// The standard exact 7-T Toffoli decomposition (±π/4 phases are
    /// exact dyadic quarter-turns).
    fn ccx(&mut self, c0: usize, c1: usize, t: usize) {
        let t_up = || Phase::dyadic(1, 2);
        let t_dn = || Phase::dyadic(-1, 2);
        self.had(t);
        self.cx(c1, t);
        self.zphase(t, t_dn());
        self.cx(c0, t);
        self.zphase(t, t_up());
        self.cx(c1, t);
        self.zphase(t, t_dn());
        self.cx(c0, t);
        self.zphase(c1, t_up());
        self.zphase(t, t_up());
        self.had(t);
        self.cx(c0, c1);
        self.zphase(c0, t_up());
        self.zphase(c1, t_dn());
        self.cx(c0, c1);
    }

    /// Closes every wire onto its output boundary.
    fn finish(mut self) -> Diagram {
        for w in 0..self.front.len() {
            let out = self.diagram.outputs()[w];
            let kind = self.pending[w];
            let front = self.front[w];
            self.diagram.connect(front, out, kind);
        }
        self.diagram
    }
}

/// Translates the `num_qubits`-wire gate sequence `gates` into an open
/// ZX diagram. Returns `None` iff a gate is an `Mcx` with more than
/// [`MAX_MCX_CONTROLS`] controls (the only gate without a
/// polynomial-size exact lowering here).
pub(crate) fn diagram_of(
    num_qubits: u32,
    gates: impl IntoIterator<Item = impl Borrow<Instruction>>,
) -> Option<Diagram> {
    let mut b = Builder::new(num_qubits as usize);
    for inst in gates {
        let inst = inst.borrow();
        let q: Vec<usize> = inst.qubits().iter().map(|w| w.index()).collect();
        b.gate(inst.gate(), &q)?;
    }
    Some(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Circuit;

    #[test]
    fn empty_circuit_translates_to_identity_wires() {
        let d = diagram_of(3, Circuit::new(3).iter()).unwrap();
        assert!(d.is_identity());
    }

    #[test]
    fn double_hadamard_is_identity_without_rewriting() {
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        assert!(diagram_of(c.num_qubits(), c.iter()).unwrap().is_identity());
    }

    #[test]
    fn single_hadamard_leaves_a_hadamard_wire() {
        let mut c = Circuit::new(1);
        c.h(0);
        let d = diagram_of(c.num_qubits(), c.iter()).unwrap();
        assert!(!d.is_identity());
        assert_eq!(d.spider_count(), 0);
    }

    #[test]
    fn cx_builds_connected_spider_pair() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let d = diagram_of(c.num_qubits(), c.iter()).unwrap();
        assert_eq!(d.spider_count(), 2);
    }

    #[test]
    fn wide_mcx_is_refused() {
        let mut c = Circuit::new(9);
        c.mcx(&[0, 1, 2, 3, 4, 5, 6], 8);
        assert!(diagram_of(c.num_qubits(), c.iter()).is_none());
        let mut c = Circuit::new(8);
        c.mcx(&[0, 1, 2, 3, 4, 5], 7);
        assert!(diagram_of(c.num_qubits(), c.iter()).is_some());
    }

    #[test]
    fn spider_counts_scale_with_gates() {
        let mut c = Circuit::new(3);
        c.t(0).cx(0, 1).ccx(0, 1, 2);
        let d = diagram_of(c.num_qubits(), c.iter()).unwrap();
        // 1 (T) + 2 (CX) + 19 (CCX: 6 CX + 7 phases; H absorbed into edges).
        assert_eq!(d.spider_count(), 1 + 2 + 19);
    }

    #[test]
    fn structural_phases_are_exact_dyadics() {
        // A T spider carries exactly π/4 — dyadic, not an atom — so
        // eight of them fused would cancel exactly.
        let mut c = Circuit::new(1);
        c.t(0);
        let d = diagram_of(c.num_qubits(), c.iter()).unwrap();
        let spider = (0..d.slots())
            .find(|&v| d.is_alive(v) && d.vkind(v) == VKind::Z)
            .unwrap();
        assert_eq!(*d.phase(spider), Phase::dyadic(1, 2));
    }

    #[test]
    fn rotation_parameters_become_symbolic_atoms() {
        let mut c = Circuit::new(1);
        c.rz(0.3, 0);
        let d = diagram_of(c.num_qubits(), c.iter()).unwrap();
        let spider = (0..d.slots())
            .find(|&v| d.is_alive(v) && d.vkind(v) == VKind::Z)
            .unwrap();
        assert_eq!(*d.phase(spider), Phase::from_radians(0.3));
        assert!(!d.phase(spider).is_pauli());
    }
}

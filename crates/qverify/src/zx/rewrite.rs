//! The ZX rewrite engine: sound, terminating graph simplification.
//!
//! The engine drives a translated miter diagram toward the bare-wire
//! identity with standard ZX-calculus equalities, each holding up to a
//! non-zero scalar:
//!
//! 1. **color change** — every X spider becomes a Z spider with all
//!    incident edges toggled (run once up front; nothing reintroduces X
//!    spiders);
//! 2. **spider fusion** — Z spiders joined by a plain edge merge, adding
//!    phases (parallel-edge fallout resolves through the Hopf law:
//!    parallel Hadamard edges cancel mod 2 — "Hadamard-edge
//!    cancellation");
//! 3. **identity removal** — a phase-free degree-2 Z spider drops out,
//!    its two edges composing (H·H = wire);
//! 4. **local complementation** — an interior ±π/2 spider is removed
//!    after complementing its neighborhood and shifting ∓π/2 onto each
//!    neighbor;
//! 5. **pivoting** — an interior adjacent pair of Pauli (0/π) spiders is
//!    removed after complementing between the three neighborhood classes
//!    and exchanging phases;
//! 6. **phase-gadget normalization / fusion / elimination** — gadgets
//!    over identical target sets merge, and a zero-phase gadget
//!    disappears (see [`gadget_pass`]);
//! 7. **boundary pivot** and **pivot-gadget** — vertex-*creating*
//!    enablers that unblock pivoting next to boundaries and next to
//!    non-Pauli phases; metered so they cannot ping-pong forever;
//! 8. **phase-polynomial completion** — when everything else stalls,
//!    gadget families are read as a parity phase polynomial and removed
//!    wholesale if the polynomial is *pointwise* zero mod 2π (see
//!    [`completion_pass`]). This is what closes `Mcx(k ≥ 3)` self-pairs,
//!    whose fused parity gadgets carry doubled non-Clifford phases that
//!    cancel only jointly, never gadget-by-gadget.
//!
//! Every phase comparison in every guard is an exact integer decision on
//! [`Phase`] values — the engine contains no float tolerance at all.
//!
//! Rules 1–6 strictly shrink the diagram, rule 8 strictly shrinks
//! (vertices die, non-zero phases become zero), and the rule-7 meter is
//! finite, so [`simplify`] terminates unconditionally. Together rules
//! 1–5 are the Duncan–Kissinger–Perdrix–van de Wetering interior
//! Clifford simplification; 6–8 extend it with the phase-gadget moves
//! that let mirrored non-Clifford phases (`T`/`T†`, `CCX`/`Mcx` pairs)
//! cancel. The rule set is deliberately not complete for every
//! equivalent pair: the engine's contract is that a full reduction to
//! [`Diagram::is_identity`] certifies equivalence, while a stall
//! certifies nothing — the caller must fall through to witness
//! extraction (whose replay is independently sound) or to another tier,
//! and must never read a stall as inequivalence.

use super::graph::{Diagram, EdgeKind, VKind};
use super::phase::Phase;

// Rewrite-rule firing counters (one tick per pass that made progress)
// plus exhaustion markers for the gadget-move meter and the round
// budget — the two ways a reduction can be cut off rather than stall
// naturally.
static RULE_FUSE: qobs::Counter = qobs::Counter::new("qverify.zx.rule.fuse");
static RULE_IDENTITY: qobs::Counter = qobs::Counter::new("qverify.zx.rule.identity");
static RULE_LOCAL_COMPLEMENT: qobs::Counter =
    qobs::Counter::new("qverify.zx.rule.local_complement");
static RULE_PIVOT: qobs::Counter = qobs::Counter::new("qverify.zx.rule.pivot");
static RULE_GADGET: qobs::Counter = qobs::Counter::new("qverify.zx.rule.gadget");
static RULE_BOUNDARY_PIVOT: qobs::Counter = qobs::Counter::new("qverify.zx.rule.boundary_pivot");
static RULE_PIVOT_GADGET: qobs::Counter = qobs::Counter::new("qverify.zx.rule.pivot_gadget");
static RULE_COMPLETION: qobs::Counter = qobs::Counter::new("qverify.zx.rule.completion");
static METER_EXHAUSTED: qobs::Counter = qobs::Counter::new("qverify.zx.meter_exhausted");
static BUDGET_EXHAUSTED: qobs::Counter = qobs::Counter::new("qverify.zx.budget_exhausted");

/// Most variables a phase-polynomial component may span before the
/// pointwise check (2^vars exact evaluations) is considered too
/// expensive and the component is skipped — skipping only stalls, which
/// is always safe. The widest accepted `Mcx` parity family spans
/// [`super::MAX_MCX_CONTROLS`]` + 1 = 7` variables, well inside.
pub(crate) const COMPLETION_MAX_VARS: usize = 12;

/// Runs the rewrite loop to a fixpoint.
///
/// The first five passes strictly shrink the vertex count, so they
/// terminate on their own. The two vertex-*creating* moves (boundary
/// pivot, pivot-gadget) are metered: extracting every original phase
/// into a gadget needs at most one move per initial spider, so once the
/// meter runs out further firing is unproductive ping-pong and the loop
/// is cut off. Phase-polynomial completion runs last — only when every
/// cheaper rule has nothing left — and strictly shrinks when it fires.
/// Exhausting the meter (or the belt-and-braces round budget) just
/// stalls the reduction, which is always safe.
pub(crate) fn simplify(d: &mut Diagram) {
    color_change(d);
    let mut gadget_moves = d.spider_count() + 16;
    let budget = 100 + 8 * d.slots();
    let mut stalled = false;
    for _ in 0..budget {
        if fuse_pass(d) {
            RULE_FUSE.incr();
            continue;
        }
        if identity_pass(d) {
            RULE_IDENTITY.incr();
            continue;
        }
        if local_complement_pass(d) {
            RULE_LOCAL_COMPLEMENT.incr();
            continue;
        }
        if pivot_pass(d) {
            RULE_PIVOT.incr();
            continue;
        }
        if gadget_pass(d) {
            RULE_GADGET.incr();
            continue;
        }
        if gadget_moves > 0 && boundary_pivot_pass(d) {
            RULE_BOUNDARY_PIVOT.incr();
            gadget_moves -= 1;
            continue;
        }
        if gadget_moves > 0 && pivot_gadget_pass(d) {
            RULE_PIVOT_GADGET.incr();
            gadget_moves -= 1;
            continue;
        }
        if completion_pass(d) {
            RULE_COMPLETION.incr();
            continue;
        }
        stalled = true;
        break;
    }
    if stalled {
        if gadget_moves == 0 && !d.is_identity() {
            METER_EXHAUSTED.incr();
        }
    } else {
        // The round budget ran dry while rules were still firing — the
        // belt-and-braces cutoff, not a natural fixpoint.
        BUDGET_EXHAUSTED.incr();
    }
}

/// Recolors every X spider to Z, toggling all its incident edges. An
/// edge between two X spiders is toggled twice and keeps its kind,
/// which is exactly the color-change rule applied at both ends.
fn color_change(d: &mut Diagram) {
    for v in 0..d.slots() {
        if !d.is_alive(v) || d.vkind(v) != VKind::X {
            continue;
        }
        for (n, _) in d.neighbors(v) {
            d.toggle_edge_kind(v, n);
        }
        d.set_vkind(v, VKind::Z);
    }
}

/// One sweep of spider fusion: merges every plain-connected pair of Z
/// spiders until none remain. Returns whether anything changed.
fn fuse_pass(d: &mut Diagram) -> bool {
    let mut changed = false;
    let mut again = true;
    while again {
        again = false;
        for v in 0..d.slots() {
            if !d.is_z(v) {
                continue;
            }
            while let Some(n) = d
                .neighbors(v)
                .into_iter()
                .find(|&(n, k)| k == EdgeKind::Plain && d.is_z(n))
                .map(|(n, _)| n)
            {
                d.fuse(v, n);
                changed = true;
                again = true;
            }
        }
    }
    changed
}

/// One sweep of identity removal (plus scalar-spider cleanup).
fn identity_pass(d: &mut Diagram) -> bool {
    let mut changed = false;
    for v in 0..d.slots() {
        if !d.is_z(v) {
            continue;
        }
        match d.degree(v) {
            0 => {
                // A disconnected spider is the scalar 1 + e^{iφ}. That
                // is non-zero (and thus droppable) unless φ = π, which
                // cannot arise from a unitary diagram; stall if it does.
                if d.phase(v).is_pi() {
                    d.mark_zero_scalar();
                } else {
                    d.kill(v);
                    changed = true;
                }
            }
            2 if d.phase(v).is_zero() => {
                let ns = d.neighbors(v);
                let (n1, k1) = ns[0];
                let (n2, k2) = ns[1];
                d.kill(v);
                let kind = k1.through(k2);
                if d.is_z(n1) && d.is_z(n2) {
                    d.merge_edge(n1, n2, kind);
                } else {
                    // At least one boundary endpoint: boundaries have
                    // degree ≤ 1, so no parallel edge can exist.
                    d.connect(n1, n2, kind);
                }
                changed = true;
            }
            _ => {}
        }
    }
    changed
}

/// `true` if `v` is interior (every neighbor is a Z spider) with only
/// Hadamard edges — the applicability condition shared by local
/// complementation and pivoting.
fn interior_on_hadamard_edges(d: &Diagram, v: usize) -> bool {
    d.neighbors(v)
        .into_iter()
        .all(|(n, k)| k == EdgeKind::Had && d.is_z(n))
}

/// One sweep of local complementation: removes interior ±π/2 spiders.
fn local_complement_pass(d: &mut Diagram) -> bool {
    let mut changed = false;
    for v in 0..d.slots() {
        if !d.is_z(v) {
            continue;
        }
        let Some(sign) = d.phase(v).half_turn_sign() else {
            continue;
        };
        if d.degree(v) == 0 || !interior_on_hadamard_edges(d, v) {
            continue;
        }
        let ns: Vec<usize> = d.neighbors(v).into_iter().map(|(n, _)| n).collect();
        d.kill(v);
        for i in 0..ns.len() {
            for j in (i + 1)..ns.len() {
                d.toggle_had(ns[i], ns[j]);
            }
        }
        for &n in &ns {
            d.add_phase(n, Phase::dyadic(-i64::from(sign), 1));
        }
        changed = true;
    }
    changed
}

/// One sweep of pivoting: removes interior adjacent Pauli-spider pairs.
fn pivot_pass(d: &mut Diagram) -> bool {
    let mut changed = false;
    for u in 0..d.slots() {
        if !d.is_z(u) || !d.phase(u).is_pauli() || !interior_on_hadamard_edges(d, u) {
            continue;
        }
        let Some(v) = d
            .neighbors(u)
            .into_iter()
            .map(|(n, _)| n)
            .find(|&n| d.phase(n).is_pauli() && interior_on_hadamard_edges(d, n))
        else {
            continue;
        };
        apply_pivot(d, u, v);
        changed = true;
    }
    changed
}

/// The pivot rule along the Hadamard edge `u—v` (both Pauli, both
/// interior): complement between the exclusive-`u`, exclusive-`v` and
/// common neighborhoods, exchange phases, and remove the pair.
fn apply_pivot(d: &mut Diagram, u: usize, v: usize) {
    let pu = d.phase(u).clone();
    let pv = d.phase(v).clone();
    let nu: Vec<usize> = d
        .neighbors(u)
        .into_iter()
        .map(|(n, _)| n)
        .filter(|&n| n != v)
        .collect();
    let nv: Vec<usize> = d
        .neighbors(v)
        .into_iter()
        .map(|(n, _)| n)
        .filter(|&n| n != u)
        .collect();
    let common: Vec<usize> = nu.iter().copied().filter(|n| nv.contains(n)).collect();
    let only_u: Vec<usize> = nu.iter().copied().filter(|n| !common.contains(n)).collect();
    let only_v: Vec<usize> = nv.iter().copied().filter(|n| !common.contains(n)).collect();
    d.kill(u);
    d.kill(v);
    for &a in &only_u {
        for &b in &only_v {
            d.toggle_had(a, b);
        }
    }
    for &a in &only_u {
        for &c in &common {
            d.toggle_had(a, c);
        }
    }
    for &b in &only_v {
        for &c in &common {
            d.toggle_had(b, c);
        }
    }
    for &a in &only_u {
        d.add_phase(a, pv.clone());
    }
    for &b in &only_v {
        d.add_phase(b, pu.clone());
    }
    let common_shift = pu + pv + Phase::pi();
    for &c in &common {
        d.add_phase(c, common_shift.clone());
    }
}

/// One sweep of phase-gadget rewriting.
///
/// A *phase gadget* is the graph-like form of `exp(iα·(⊕_{t∈T} x_t))`:
/// a degree-1 *leaf* spider carrying α, Hadamard-connected to a
/// phase-free *hub* spider whose remaining Hadamard edges reach the
/// target spiders `T`. This is how non-Clifford phases survive once
/// pivoting has pulled them off the wires, and the only way ±π/4 pairs
/// from mirrored `CCX`/`Mcx` decompositions meet again. Three sound
/// moves:
///
/// * **normalization** — a hub with phase π folds into the leaf
///   (`gadget(α, π) ∝ gadget(−α, 0)`);
/// * **fusion** — two gadgets over the *same* target set merge, adding
///   leaf phases;
/// * **elimination** — a gadget whose leaf phase is 0 is the identity
///   (`exp(0) = 1`) and disappears entirely.
fn gadget_pass(d: &mut Diagram) -> bool {
    use std::collections::BTreeMap;
    let mut changed = false;
    // target set → (leaf, hub) of the first gadget seen with it.
    let mut seen: BTreeMap<Vec<usize>, (usize, usize)> = BTreeMap::new();
    for leaf in 0..d.slots() {
        if !d.is_z(leaf) || d.degree(leaf) != 1 {
            continue;
        }
        let (hub, kind) = d.neighbors(leaf)[0];
        if kind != EdgeKind::Had || !d.is_z(hub) || d.degree(hub) < 2 {
            continue;
        }
        if !interior_on_hadamard_edges(d, hub) {
            continue;
        }
        // Fold a π hub into the leaf; other hub phases mean this is not
        // a gadget at all.
        if d.phase(hub).is_pi() {
            let negated = -d.phase(leaf).clone();
            d.set_phase(leaf, negated);
            d.add_phase(hub, Phase::pi());
            changed = true;
        } else if !d.phase(hub).is_zero() {
            continue;
        }
        let targets: Vec<usize> = d
            .neighbors(hub)
            .into_iter()
            .map(|(n, _)| n)
            .filter(|&n| n != leaf)
            .collect();
        let mut key = targets;
        key.sort_unstable();
        if let Some(&(leaf0, _)) = seen.get(&key) {
            let p = d.phase(leaf).clone();
            d.add_phase(leaf0, p);
            d.kill(leaf);
            d.kill(hub);
            changed = true;
            // leaf0's gadget may now be eliminable; the next sweep of
            // this pass (driven by `changed`) picks it up.
            continue;
        }
        if d.phase(leaf).is_zero() {
            d.kill(leaf);
            d.kill(hub);
            changed = true;
            continue;
        }
        seen.insert(key, (leaf, hub));
    }
    changed
}

/// Extracts a spider's phase into a fresh single-target phase gadget:
/// `Z(α) = Z(0)` with `exp(iα·x)` applied to its variable. The inverse
/// of singleton-gadget absorption, so exactly sound.
fn gadgetize(d: &mut Diagram, v: usize) {
    let alpha = d.phase(v).clone();
    let hub = d.add_vertex(VKind::Z, Phase::ZERO);
    let leaf = d.add_vertex(VKind::Z, alpha);
    d.connect(v, hub, EdgeKind::Had);
    d.connect(hub, leaf, EdgeKind::Had);
    d.set_phase(v, Phase::ZERO);
}

/// One sweep of pivot-gadget: an interior Pauli spider `u` whose only
/// Hadamard partners carry non-Pauli phases cannot pivot directly, so
/// one partner `v` is gadgetized first (its phase moves onto a fresh
/// gadget leaf) and the now-Pauli pair pivots. This is the move that
/// pulls T phases off the wires so mirrored ±π/4 pairs can meet in
/// [`gadget_pass`]. Degree-1 partners are skipped — they are gadget
/// leaves already, and re-gadgetizing them would cycle.
fn pivot_gadget_pass(d: &mut Diagram) -> bool {
    for u in 0..d.slots() {
        if !d.is_z(u) || !d.phase(u).is_pauli() || !interior_on_hadamard_edges(d, u) {
            continue;
        }
        let Some(v) = d.neighbors(u).into_iter().map(|(n, _)| n).find(|&n| {
            !d.phase(n).is_pauli() && d.degree(n) > 1 && interior_on_hadamard_edges(d, n)
        }) else {
            continue;
        };
        gadgetize(d, v);
        apply_pivot(d, u, v);
        return true;
    }
    false
}

/// One sweep of boundary pivoting: a Pauli spider `v` blocked from
/// pivoting only by its boundary edges becomes interior by splitting
/// each boundary edge with a fresh phase-free spider (the inverse of
/// identity removal, with edge kinds composing back to the original),
/// after which the pair pivots normally.
fn boundary_pivot_pass(d: &mut Diagram) -> bool {
    for u in 0..d.slots() {
        if !d.is_z(u) || !d.phase(u).is_pauli() || !interior_on_hadamard_edges(d, u) {
            continue;
        }
        let candidate = d.neighbors(u).into_iter().map(|(n, _)| n).find(|&v| {
            d.phase(v).is_pauli()
                && d.neighbors(v).into_iter().any(|(n, _)| !d.is_z(n))
                && d.neighbors(v)
                    .into_iter()
                    .all(|(n, k)| !d.is_z(n) || k == EdgeKind::Had)
        });
        let Some(v) = candidate else {
            continue;
        };
        for (b, kind) in d.neighbors(v) {
            if d.is_z(b) {
                continue;
            }
            // b —kind— v  ⇒  b —kind.toggled()— new —Had— v, composing
            // back to `kind` through the inserted identity spider.
            d.kill_edge_between(b, v);
            let mid = d.add_vertex(VKind::Z, Phase::ZERO);
            d.connect(b, mid, kind.toggled());
            d.connect(mid, v, EdgeKind::Had);
        }
        apply_pivot(d, u, v);
        return true;
    }
    false
}

/// A phase gadget as read by [`completion_pass`]: its two private
/// vertices plus the target spiders its parity ranges over.
struct PolyGadget {
    leaf: usize,
    hub: usize,
    targets: Vec<usize>,
}

/// Phase-polynomial completion: removes a whole *family* of gadgets
/// (plus the phases sitting on their target spiders) when the family's
/// parity phase polynomial is pointwise zero mod 2π.
///
/// Semantics: in a graph-like diagram each gadget `(ℓ, h, T)` with leaf
/// phase θ contracts — summing its two private vertices out — to the
/// scalar factor `2·exp(iθ·(⊕_{t∈T} x_t))`, and each spider phase α on
/// a vertex `v` is the factor `exp(iα·x_v)`. Over a component of
/// gadgets connected through shared targets, the product of all those
/// factors is `exp(i·f(x))` for the phase polynomial
///
/// ```text
///     f(x) = Σ_gadgets θ_g·(⊕_{t∈T_g} x_t)  +  Σ_vars α_v·x_v
/// ```
///
/// If `f(x) ≡ 0 (mod 2π)` for *every* assignment of the component's
/// variables — checked exhaustively with exact [`Phase`] sums, at most
/// `2^`[`COMPLETION_MAX_VARS`] evaluations — the whole family is a
/// (non-zero) scalar and is removed: every gadget's leaf and hub die,
/// every variable's phase is set to zero. The contraction above is only
/// valid when each gadget's leaf and hub are *private* (no other
/// collected gadget targets them), so candidates violating that are
/// discarded before evaluation.
///
/// This is the rule that closes `Mcx(k ≥ 3)` self-pairs: the doubled
/// miter expands into one parity gadget per non-empty control subset
/// with phase `±2π/2^{m−1}`, no two of which cancel pairwise — but the
/// polynomial is `2·(C^kZ phase function) = 2π·x₁⋯x_m ≡ 0` pointwise.
fn completion_pass(d: &mut Diagram) -> bool {
    // Collect candidate gadgets, one per hub (extra degree-1 neighbors
    // of the same hub are treated as targets and keep their own phase).
    let mut hub_taken = vec![false; d.slots()];
    let mut gadgets: Vec<PolyGadget> = Vec::new();
    for leaf in 0..d.slots() {
        if !d.is_z(leaf) || d.degree(leaf) != 1 {
            continue;
        }
        let (hub, kind) = d.neighbors(leaf)[0];
        if kind != EdgeKind::Had
            || !d.is_z(hub)
            || d.degree(hub) < 2
            || hub_taken[hub]
            || !d.phase(hub).is_zero()
            || !interior_on_hadamard_edges(d, hub)
            || d.phase(leaf).is_zero()
        {
            continue;
        }
        hub_taken[hub] = true;
        let targets: Vec<usize> = d
            .neighbors(hub)
            .into_iter()
            .map(|(n, _)| n)
            .filter(|&n| n != leaf)
            .collect();
        gadgets.push(PolyGadget { leaf, hub, targets });
    }
    // Privacy fixpoint: a gadget whose leaf or hub is another gadget's
    // target cannot be contracted independently — drop it (and re-check,
    // since dropping shrinks the variable set).
    loop {
        let mut is_var = vec![false; d.slots()];
        for g in &gadgets {
            for &t in &g.targets {
                is_var[t] = true;
            }
        }
        let before = gadgets.len();
        gadgets.retain(|g| !is_var[g.hub] && !is_var[g.leaf]);
        if gadgets.len() == before {
            break;
        }
    }
    if gadgets.is_empty() {
        return false;
    }
    // Union-find over variables: gadgets sharing a target must be
    // judged jointly.
    let mut parent: Vec<usize> = (0..d.slots()).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for g in &gadgets {
        let root = find(&mut parent, g.targets[0]);
        for &t in &g.targets[1..] {
            let r = find(&mut parent, t);
            parent[r] = root;
        }
    }
    use std::collections::BTreeMap;
    let mut components: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (index, g) in gadgets.iter().enumerate() {
        let root = find(&mut parent, g.targets[0]);
        components.entry(root).or_default().push(index);
    }
    let mut changed = false;
    for members in components.values() {
        let mut vars: Vec<usize> = members
            .iter()
            .flat_map(|&i| gadgets[i].targets.iter().copied())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        if vars.len() > COMPLETION_MAX_VARS {
            continue;
        }
        let bit_of = |v: usize| vars.binary_search(&v).expect("target is a variable") as u32;
        // The polynomial's terms: each gadget over its parity mask, plus
        // each variable's own phase as a singleton term.
        let mut terms: Vec<(u32, Phase)> = Vec::new();
        for &i in members {
            let mask = gadgets[i]
                .targets
                .iter()
                .fold(0u32, |m, &t| m | (1 << bit_of(t)));
            terms.push((mask, d.phase(gadgets[i].leaf).clone()));
        }
        for &v in &vars {
            if !d.phase(v).is_zero() {
                terms.push((1 << bit_of(v), d.phase(v).clone()));
            }
        }
        // Exact pointwise check (f(0) = 0 trivially: every term is a
        // parity, and parities vanish on the all-zero assignment).
        let pointwise_zero = (1u32..1 << vars.len()).all(|x| {
            terms
                .iter()
                .filter(|(mask, _)| (mask & x).count_ones() % 2 == 1)
                .map(|(_, p)| p.clone())
                .sum::<Phase>()
                .is_zero()
        });
        if !pointwise_zero {
            continue;
        }
        for &i in members {
            d.kill(gadgets[i].leaf);
            d.kill(gadgets[i].hub);
        }
        for &v in &vars {
            d.set_phase(v, Phase::ZERO);
        }
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::super::translate::diagram_of;
    use super::*;
    use qcir::Circuit;

    fn reduces(c: &Circuit) -> bool {
        let mut d = diagram_of(c.num_qubits(), c.iter()).expect("translatable");
        simplify(&mut d);
        d.is_identity()
    }

    #[test]
    fn canceling_pairs_reduce_to_identity() {
        let mut c = Circuit::new(2);
        c.t(0)
            .tdg(0)
            .s(1)
            .sdg(1)
            .cx(0, 1)
            .cx(0, 1)
            .cz(0, 1)
            .cz(0, 1);
        assert!(reduces(&c));
    }

    #[test]
    fn palindromic_toffoli_reduces() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2).h(0).t(1).tdg(1).h(0).ccx(0, 1, 2);
        assert!(reduces(&c));
    }

    #[test]
    fn rx_equals_conjugated_rz_reduces() {
        // Rx(θ) · (H · Rz(θ) · H)† = I: exercises color change + fusion,
        // with the arbitrary angle canceling as an exact symbolic atom.
        let mut c = Circuit::new(1);
        c.rx(0.3, 0).h(0).rz(-0.3, 0).h(0);
        assert!(reduces(&c));
    }

    #[test]
    fn swap_pair_reduces() {
        let mut c = Circuit::new(2);
        c.swap(0, 1).swap(0, 1);
        assert!(reduces(&c));
    }

    #[test]
    fn mcx_pair_reduces_up_to_two_controls() {
        let mut c = Circuit::new(3);
        c.mcx(&[0, 1], 2).mcx(&[0, 1], 2);
        assert!(reduces(&c));
    }

    #[test]
    fn wide_mcx_pairs_reduce_via_phase_polynomial_completion() {
        // Mcx(k ≥ 3) self-pairs expand to identical parity-gadget sets,
        // so the fused gadgets carry *doubled* (non-Clifford) phases
        // that cancel only pointwise mod 2π — invisible to pairwise
        // gadget fusion, closed by the completion pass. These stalled
        // before completion landed (the ROADMAP follow-up).
        for k in 3..=4 {
            let n = k as u32 + 1;
            let controls: Vec<u32> = (0..k as u32).collect();
            let mut c = Circuit::new(n);
            c.mcx(&controls, n - 1).mcx(&controls, n - 1);
            assert!(reduces(&c), "Mcx({k}) self-pair must now reduce");
        }
    }

    #[test]
    fn widest_translatable_mcx_pair_reduces() {
        // k = MAX_MCX_CONTROLS = 6: 127 parity gadgets per Mcx, judged
        // jointly over 7 variables by the completion pass.
        let mut c = Circuit::new(7);
        c.mcx(&[0, 1, 2, 3, 4, 5], 6).mcx(&[0, 1, 2, 3, 4, 5], 6);
        assert!(reduces(&c));
    }

    #[test]
    fn mcx_conjugated_by_x_reduces() {
        // X(c)·Mcx·X(c) ≠ Mcx, but wrapped as a self-miter the pair
        // still cancels — exercises completion next to π spiders.
        let mut c = Circuit::new(5);
        c.x(0)
            .mcx(&[0, 1, 2, 3], 4)
            .mcx(&[0, 1, 2, 3], 4)
            .x(0)
            .x(2)
            .x(2);
        assert!(reduces(&c));
    }

    #[test]
    fn euler_resynthesis_reduces_via_local_complementation() {
        // H·S·H = e^{iπ/4}·S†·H·S†: syntactically disjoint words for
        // the same operator. No plain edge ever joins the three ±π/2
        // spiders of the miter, so fusion alone stalls — local
        // complementation must fire to clear them.
        let mut a = Circuit::new(1);
        a.h(0).s(0).h(0);
        let mut b = Circuit::new(1);
        b.sdg(0).h(0).sdg(0);
        assert!(
            qsim::unitary::equivalent_up_to_phase(&a, &b, 1e-9).unwrap(),
            "test precondition: the Euler identity holds"
        );
        let miter = a.then(&b.inverse()).unwrap();
        assert!(reduces(&miter));
    }

    #[test]
    fn single_t_gate_does_not_reduce() {
        let mut c = Circuit::new(1);
        c.t(0);
        assert!(!reduces(&c));
    }

    #[test]
    fn single_wide_mcx_does_not_reduce() {
        // Completion must only fire on families that *jointly* cancel:
        // one Mcx alone is not the identity and must stall.
        let mut c = Circuit::new(5);
        c.mcx(&[0, 1, 2, 3], 4);
        assert!(!reduces(&c));
    }

    #[test]
    fn wire_permutation_does_not_reduce() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        assert!(!reduces(&c));
    }

    #[test]
    fn interior_clifford_spiders_are_eliminated() {
        // A Clifford-only self-miter written to leave interior ±π/2 and
        // Pauli spiders after fusion; LC + pivot must clear them all.
        let mut c = Circuit::new(3);
        c.h(0).s(0).cx(0, 1).cz(1, 2).s(2).h(2).cx(2, 0);
        let mut miter = c.clone();
        miter.compose(&c.inverse()).unwrap();
        assert!(reduces(&miter));
    }
}

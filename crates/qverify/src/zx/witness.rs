//! Certified inequivalence from a stalled ZX reduction.
//!
//! A reduced-but-non-identity miter diagram is *suggestive* — it is what
//! survives after everything the rewrite engine can cancel has
//! canceled — but by the tier's own contract it proves nothing on its
//! own: the rule set is incomplete, and a sound verifier must never
//! turn "I could not finish" into "they differ". This module closes the
//! gap with a **propose-then-certify** split:
//!
//! 1. **Propose** (heuristic, untrusted): read the residual diagram's
//!    *active wires* — wires whose input is no longer plain-connected to
//!    its own output — and derive a handful of candidate basis inputs
//!    that would expose the residue if it is what it looks like
//!    (all-zeros for bit-flip residues, single-bit probes for wire
//!    permutations, the all-active pattern for control-gated residues,
//!    plus seeded pseudo-random probes on the cheap classical path).
//! 2. **Certify** (exact, independent): replay each candidate through
//!    machinery that never saw the ZX graph —
//!    * both circuits classical reversible → limb-backed bit-level
//!      evaluation of each circuit ([`revlib::classical_eval_bits`]) at
//!      **any** register width, `O(gates)` per input
//!      ([`Witness::BasisInput`], outputs compared exactly);
//!    * otherwise → the miter's diagonal entry `⟨x|C₂†C₁|x⟩` from the
//!      check's one [`MiterReplay`], the cancelled miter the dense and
//!      stimulus tiers also run (a sparse column up to
//!      [`qsim::MAX_COLUMN_QUBITS`] wires; a statevector replay within
//!      the statevector cap once a column trips its support budget),
//!      judged by the dense tier's own rule ([`judge`], error bound
//!      charged against [`crate::EPS`]). A magnitude deficit certifies
//!      [`Witness::BasisColumn`]; two unit-magnitude entries with
//!      *different phases* certify [`Witness::RelativePhase`] — this is
//!      what catches purely diagonal residues (`T` vs `T†`, a leftover
//!      `CZ`) that no single basis input can see.
//!
//! A candidate that fails certification, or whose error bound leaves
//! the rule unsure, is simply dropped; a replay
//! that errors (miter too branchy for the column budget and too wide
//! for a statevector) aborts the quantum path. If nothing survives, the
//! tier falls through exactly as a plain stall does. A rewrite-engine
//! bug can therefore cost completeness, never soundness: every
//! `Inequivalent` the ZX tier emits is backed by a replay witness the
//! caller can re-run.

use super::graph::{Diagram, EdgeKind};
use crate::dense::{judge, Judgement, MiterReplay};
use crate::miter::Miter;
use crate::stimulus::mix;
use crate::Witness;
use qcir::{BasisBits, Circuit};
use qsim::SimError;
use revlib::classical_eval_bits;

/// Most miter basis replays attempted per stalled diagram: enough for
/// the all-zeros probe, the all-active probe and a couple of
/// single-bit probes. (Each replay runs one sparse column or — once a
/// column trips its support budget within the statevector cap — one
/// full `2ⁿ` simulation, so the budget is tight.)
const MAX_BASIS_REPLAYS: usize = 4;

/// Seeded pseudo-random probes added on the classical path, where one
/// candidate costs only `O(gates)` bit operations.
const CLASSICAL_RANDOM_PROBES: u64 = 32;

/// Base seed of the classical probe stream (the stimulus tier's
/// SplitMix64 on a constant stream, so probe inputs are reproducible).
const CLASSICAL_PROBE_SEED: u64 = 0x05EE_DC1A_C515_1CA1;

// Witness extraction cost telemetry: how many candidate inputs the
// stalled residue proposed, how many replays each confirmation path
// actually paid for, how many unit-magnitude amplitudes entered a
// phase comparison, and how many witnesses were certified.
static WITNESS_CANDIDATES: qobs::Counter = qobs::Counter::new("qverify.zx.witness.candidates");
static WITNESS_BIT_REPLAYS: qobs::Counter = qobs::Counter::new("qverify.zx.witness.bit_replays");
static WITNESS_BASIS_REPLAYS: qobs::Counter =
    qobs::Counter::new("qverify.zx.witness.basis_replays");
static WITNESS_PHASE_REPLAYS: qobs::Counter =
    qobs::Counter::new("qverify.zx.witness.phase_replays");
static WITNESS_CONFIRMED: qobs::Counter = qobs::Counter::new("qverify.zx.witness.confirmed");

/// Attempts to turn a reduced-but-non-identity diagram into a
/// replay-certified witness. `None` means "no confirmed witness" — the
/// caller falls through, exactly as for a plain stall.
pub(crate) fn extract(miter: &mut Miter, diagram: &Diagram) -> Option<Witness> {
    if diagram.has_zero_scalar() {
        // The structure is not trustworthy enough even to *propose*
        // candidates from (and it cannot arise from unitary circuits).
        return None;
    }
    let n = miter.num_qubits();
    if n == 0 {
        return None;
    }
    let active = active_wires(diagram);
    if active.is_empty() {
        return None;
    }
    let classical = |c: &Circuit| c.iter().all(|i| i.gate().is_classical());
    if classical(miter.original) && classical(miter.candidate) {
        return extract_classical(miter.original, miter.candidate, &active, n);
    }
    if n > qsim::MAX_COLUMN_QUBITS {
        // Quantum certification addresses basis inputs as u64 column
        // indices; past the column cap no replay backend exists, so
        // the tier falls through rather than guess.
        return None;
    }
    extract_quantum(miter.replay().ok()?, &active, n)
}

/// Bit-level certification for reversible pairs: limb-backed basis
/// states, so the replay works at any register width — 64+ wires
/// included.
fn extract_classical(
    original: &Circuit,
    candidate: &Circuit,
    active: &[u32],
    n: u32,
) -> Option<Witness> {
    let mut candidates = structured_candidates_bits(active, n, usize::MAX);
    for probe in 0..CLASSICAL_RANDOM_PROBES {
        let x = random_probe_bits(n, probe);
        if !candidates.contains(&x) {
            candidates.push(x);
        }
    }
    WITNESS_CANDIDATES.add(candidates.len() as u64);
    for x in candidates {
        WITNESS_BIT_REPLAYS.incr();
        let left = classical_eval_bits(original, &x).ok()?;
        let right = classical_eval_bits(candidate, &x).ok()?;
        if left != right {
            WITNESS_CONFIRMED.incr();
            return Some(Witness::BasisInput {
                input: x,
                left_output: left,
                right_output: right,
            });
        }
    }
    None
}

/// Quantum certification through the miter's diagonal entries, judged
/// candidate by candidate with the dense tier's rule against the first
/// consistent entry. A magnitude deficit at any candidate is a
/// [`Witness::BasisColumn`]; a unit-magnitude entry whose phase differs
/// from the reference's is a [`Witness::RelativePhase`], the shape
/// diagonal residues (`T` vs `T†`) produce. A candidate the rule is
/// unsure of certifies nothing, so a witness never rests on pruned
/// mass. Any replay error (miter too branchy for the column budget, too
/// wide for a statevector) aborts: soundness over completeness.
fn extract_quantum(replay: &mut MiterReplay, active: &[u32], n: u32) -> Option<Witness> {
    // Below the column cap every candidate is one u64 column index.
    let candidates: Vec<u64> = structured_candidates_bits(active, n, MAX_BASIS_REPLAYS)
        .iter()
        .filter_map(BasisBits::to_u64)
        .collect();
    WITNESS_CANDIDATES.add(candidates.len() as u64);
    let mut reference = None;
    for x in candidates {
        WITNESS_BASIS_REPLAYS.incr();
        let entry = match replay.entry(x) {
            Err(SimError::SupportBudgetExceeded { .. }) if replay.switch_to_statevector() => {
                replay.entry(x)
            }
            sparse => sparse,
        };
        let Ok(entry) = entry else {
            // Replay infeasible for this miter: no candidate can be
            // certified, so the whole quantum path falls through.
            break;
        };
        match judge(x, entry, reference) {
            Judgement::Consistent if reference.is_none() => reference = Some((x, entry)),
            Judgement::Consistent => WITNESS_PHASE_REPLAYS.incr(),
            Judgement::Diverges(witness) => {
                if matches!(witness, Witness::RelativePhase { .. }) {
                    WITNESS_PHASE_REPLAYS.incr();
                }
                WITNESS_CONFIRMED.incr();
                return Some(witness);
            }
            Judgement::Unsure => {}
        }
    }
    None
}

/// Wires whose identity the reduction did *not* re-establish: wire `i`
/// is clean iff its input boundary is plain-connected straight to its
/// own output boundary.
fn active_wires(d: &Diagram) -> Vec<u32> {
    d.inputs()
        .iter()
        .zip(d.outputs())
        .enumerate()
        .filter(|&(_, (&i, &o))| d.edge(i, o) != Some(EdgeKind::Plain))
        .map(|(wire, _)| wire as u32)
        .collect()
}

/// Candidate basis inputs derived from the active-wire set, as
/// limb-backed basis states over a `width`-qubit register (active wires,
/// and the register, may sit past bit 63), most promising first:
/// all-zeros (exposes bit-flip residues), the all-active pattern
/// (satisfies control conjunctions), then single-bit probes per active
/// wire (expose wire permutations) and the all-active pattern with one
/// bit dropped.
fn structured_candidates_bits(active: &[u32], width: u32, limit: usize) -> Vec<BasisBits> {
    let mut all = BasisBits::zeros(width);
    for &w in active {
        all.set(w, true);
    }
    let mut out: Vec<BasisBits> = vec![BasisBits::zeros(width), all.clone()];
    for &w in active {
        let mut single = BasisBits::zeros(width);
        single.set(w, true);
        out.push(single);
        let mut dropped = all.clone();
        dropped.set(w, false);
        out.push(dropped);
    }
    let mut seen: Vec<BasisBits> = Vec::new();
    for x in out {
        if !seen.contains(&x) {
            seen.push(x);
        }
    }
    seen.truncate(limit);
    seen
}

/// Probe `probe` of the seeded classical stream, at any width: limb `l`
/// draws `mix(seed, probe·limbs + l)`, so a ≤ 64-wire register sees the
/// exact `mix(seed, probe)` stream the `u64` encoding always used, and
/// wider registers extend it limb by limb.
fn random_probe_bits(width: u32, probe: u64) -> BasisBits {
    let limbs = (width as u64).div_ceil(64).max(1);
    let mut out = BasisBits::zeros(width);
    for limb in 0..limbs {
        let value = mix(CLASSICAL_PROBE_SEED, probe * limbs + limb);
        for bit in 0..64u32 {
            let index = limb as u32 * 64 + bit;
            if index >= width {
                break;
            }
            if value >> bit & 1 == 1 {
                out.set(index, true);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_candidates_cover_the_probe_shapes() {
        let narrow = |limit| -> Vec<u64> {
            structured_candidates_bits(&[1, 3], 4, limit)
                .iter()
                .filter_map(BasisBits::to_u64)
                .collect()
        };
        let c = narrow(usize::MAX);
        assert_eq!(c[0], 0);
        assert_eq!(c[1], 0b1010);
        assert!(c.contains(&0b0010));
        assert!(c.contains(&0b1000));
        assert_eq!(c.len(), 4); // duplicates (all − bit = other bit) folded
        assert_eq!(narrow(2), vec![0, 0b1010]);
    }

    #[test]
    fn bits_candidates_reach_past_the_limb_boundary() {
        let c = structured_candidates_bits(&[2, 100], 130, usize::MAX);
        assert!(c[0].is_zero());
        assert!(c[1].bit(2) && c[1].bit(100) && c[1].count_ones() == 2);
        assert!(c.iter().any(|x| x.bit(100) && x.count_ones() == 1));
    }

    #[test]
    fn random_probe_stream_is_stable_below_64_wires() {
        // The limb-wise stream must reproduce the historical u64 stream
        // exactly on narrow registers: limb 0 of probe p is mix(seed, p).
        for probe in 0..8u64 {
            let bits = random_probe_bits(40, probe);
            let expected = mix(CLASSICAL_PROBE_SEED, probe) & ((1u64 << 40) - 1);
            assert_eq!(bits.to_u64(), Some(expected), "probe {probe}");
        }
    }

    #[test]
    fn random_probes_populate_high_limbs() {
        let wide = random_probe_bits(200, 3);
        let high_bits = (64..200).filter(|&i| wide.bit(i)).count();
        assert!(high_bits > 30, "high limbs must not stay zero");
    }
}

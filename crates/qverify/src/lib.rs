//! # qverify — scalable circuit equivalence verification
//!
//! Every claim the TetrisLock reproduction makes — that
//! obfuscate→split→compile→recombine restores the original circuit, and
//! that a wrong interlock key does *not* — reduces to one question: do
//! two circuits implement the same unitary (up to global phase)? Dense
//! unitary extraction answers it exactly but dies at
//! [`MAX_UNITARY_QUBITS`] qubits. This crate answers it through a
//! *tiered* strategy instead, picking the cheapest decision procedure
//! that applies:
//!
//! | Tier | Applies when | Cost | Verdict quality |
//! |---|---|---|---|
//! | [`Tier::Classical`] | both circuits are classical reversible, ≤ [`CLASSICAL_EXHAUSTIVE_MAX_QUBITS`] qubits | `O(2ⁿ·gates)` bit ops | exact (exhaustive) |
//! | [`Tier::Tableau`] | both circuits are Clifford | `O(n·gates)` words | exact (stabilizer) |
//! | [`Tier::Zx`] | the miter diagram reduces to the identity, or its residue yields a replay-confirmed witness | `O(gates²)` graph rewriting (+ a few replays) | exact, two-sided |
//! | [`Tier::Dense`] | ≤ [`MAX_UNITARY_QUBITS`] qubits | `O(2ⁿ·gates·support)` (sparse columns) | exact (every column; pruned norm charged against `eps`) |
//! | [`Tier::Stimulus`] | ≤ [`MAX_STIMULUS_QUBITS`] qubits | `O(trials·2ⁿ·gates)`, parallel | statistical (miter) |
//!
//! The **tableau** tier is an Aaronson–Gottesman stabilizer engine: it
//! conjugates the `2n` Pauli generators through `C₂†C₁` in `O(n)` per
//! gate and accepts iff every generator returns to itself with positive
//! sign — exact for Clifford circuits at hundreds of qubits. The **ZX**
//! tier translates the miter `C₂†C₁` into a spider graph — every spider
//! phase an exact dyadic-plus-symbolic [`Phase`], so no rewrite ever
//! fires on a float tolerance — and rewrites it with spider fusion,
//! identity removal, Hadamard-edge cancellation, local complementation,
//! pivoting, phase-gadget moves and phase-polynomial completion. Full
//! reduction to bare wires is an exact proof of equivalence with no
//! dense state and no qubit cap, which is what certifies Clifford+T
//! round-trips past every simulation tier. A *stalled* reduction proves
//! nothing by itself, but its residue proposes candidate basis inputs;
//! a candidate confirmed by an independent replay — limb-backed
//! classical bit evaluation for reversible circuits at **any** register
//! width, or a sparse basis-column replay of the miter up to
//! [`MAX_COLUMN_QUBITS`] wires (with a dense statevector fallback
//! within [`MAX_STIMULUS_QUBITS`] once the column trips its support
//! budget) — certifies
//! **inequivalence** with a concrete [`Witness::BasisInput`] /
//! [`Witness::BasisColumn`] / [`Witness::RelativePhase`]. With no
//! confirmed candidate the tier falls through. The **stimulus** tier
//! builds the same miter but runs it on randomized product-state inputs
//! (seeded, reproducible) in parallel batches across threads; any input
//! that fails to return to itself is a concrete counterexample
//! [`Witness::Stimulus`].
//!
//! The **dense** tier walks all `2ⁿ` basis columns, but each column is
//! a sparse support map ([`qsim::SparseColumn`]) over circuits lowered
//! once per check (a classical reversible column keeps one amplitude,
//! so it costs `O(gates)`). Pruned amplitudes are tracked as an error
//! bound `b` per column (the sum of both sides' pruned norms): a column
//! counts as diverging only if its overlap misses 1 by more than
//! `eps + b`, and as matching only if it is within `eps − b`. A column
//! in between, or one that trips the support budget, switches the rest
//! of the check to exact statevector columns.
//!
//! # Example
//!
//! ```
//! use qcir::Circuit;
//! use qverify::{Tier, Verdict, Verifier};
//!
//! // A 50-qubit Clifford pair: far beyond dense unitary reach.
//! let mut a = Circuit::new(50);
//! let mut b = Circuit::new(50);
//! for q in 0..49 {
//!     a.h(q).cx(q, q + 1);
//!     b.h(q).cx(q, q + 1);
//! }
//! b.s(0).sdg(0); // extra canceling pair
//! let verifier = Verifier::new();
//! let report = verifier.check_report(&a, &b);
//! assert_eq!(report.tier, Tier::Tableau);
//! assert!(matches!(report.verdict, Verdict::Equivalent));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod classical;
mod clifford;
mod dense;
mod stimulus;
mod tableau;
mod zx;

pub use zx::phase::{Phase, DYADIC_GRID_LOG};
pub use zx::MAX_MCX_CONTROLS;

use qcir::{BasisBits, Circuit};
use std::fmt;

pub use qsim::statevector::MAX_QUBITS as MAX_STIMULUS_QUBITS;
pub use qsim::unitary::MAX_UNITARY_QUBITS;
pub use qsim::MAX_COLUMN_QUBITS;

/// Largest register for which the classical tier enumerates every basis
/// input (`2¹⁶` evaluations per circuit); beyond it classical circuits
/// fall through to the quantum tiers.
pub const CLASSICAL_EXHAUSTIVE_MAX_QUBITS: u32 = 16;

/// One tier's telemetry: every attempt in `check_report` ticks
/// `entered`, records its elapsed time, and — when tracing at
/// `QOBS=spans`+ — emits a `verify.tier` span whose `outcome` attribute
/// marks whether the tier decided or fell through.
struct TierMetrics {
    entered: qobs::Counter,
    decided: qobs::Counter,
    elapsed: qobs::Histogram,
}

macro_rules! tier_metrics {
    ($key:literal) => {
        TierMetrics {
            entered: qobs::Counter::new(concat!("qverify.tier.", $key, ".entered")),
            decided: qobs::Counter::new(concat!("qverify.tier.", $key, ".decided")),
            elapsed: qobs::Histogram::new(concat!("qverify.tier.", $key, ".elapsed_us")),
        }
    };
}

/// [`TierMetrics`] indexed by `Tier as usize`. The structural screen
/// is never attempted, so its row is never touched (and never
/// registered).
static TIER_METRICS: [TierMetrics; 6] = [
    tier_metrics!("structural"),
    tier_metrics!("classical"),
    tier_metrics!("tableau"),
    tier_metrics!("zx"),
    tier_metrics!("dense"),
    tier_metrics!("stimulus"),
];

/// Short machine key for trace attributes (`Display` stays the
/// human-facing spelling).
fn tier_key(tier: Tier) -> &'static str {
    match tier {
        Tier::Structural => "structural",
        Tier::Classical => "classical",
        Tier::Tableau => "tableau",
        Tier::Zx => "zx",
        Tier::Dense => "dense",
        Tier::Stimulus => "stimulus",
    }
}

fn verdict_key(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Equivalent => "equivalent",
        Verdict::Inequivalent { .. } => "inequivalent",
        Verdict::Inconclusive { .. } => "inconclusive",
    }
}

/// Runs one tier attempt with entered/decided counters, an elapsed
/// histogram, and a `verify.tier` span. `f` returns `Some` when the
/// tier decides.
fn tier_attempt(tier: Tier, f: impl FnOnce() -> Option<Report>) -> Option<Report> {
    debug_assert_ne!(
        tier,
        Tier::Structural,
        "the structural screen is not attempted"
    );
    let metrics = &TIER_METRICS[tier as usize];
    metrics.entered.incr();
    let span = qobs::span("verify.tier").attr("tier", tier_key(tier));
    let start = std::time::Instant::now();
    let out = f();
    metrics
        .elapsed
        .record_us(start.elapsed().as_micros() as u64);
    let decided = out.is_some();
    if decided {
        metrics.decided.incr();
    }
    let _span = span.attr("outcome", if decided { "decided" } else { "fell_through" });
    out
}

/// The decision procedure that produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Register-shape screening only (mismatched sizes, or no tier
    /// applicable).
    Structural,
    /// Exhaustive classical permutation comparison.
    Classical,
    /// Aaronson–Gottesman stabilizer tableau.
    Tableau,
    /// ZX-calculus miter reduction: exact, no qubit cap, two-sided —
    /// full reduction certifies [`Verdict::Equivalent`]; a stalled
    /// residue can certify [`Verdict::Inequivalent`], but only through
    /// a replay-confirmed basis witness.
    Zx,
    /// Exhaustive column-by-column comparison (the ≤
    /// [`MAX_UNITARY_QUBITS`]-qubit fallback), on sparse columns with a
    /// statevector fallback.
    Dense,
    /// Randomized product-state miter, parallel across threads.
    Stimulus,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Structural => "structural",
            Tier::Classical => "classical",
            Tier::Tableau => "tableau",
            Tier::Zx => "zx-calculus",
            Tier::Dense => "dense-unitary",
            Tier::Stimulus => "stimulus",
        })
    }
}

/// Concrete evidence of inequivalence.
#[derive(Debug, Clone, PartialEq)]
pub enum Witness {
    /// The circuits act on different register sizes.
    RegisterMismatch {
        /// Register of the first circuit.
        left: u32,
        /// Register of the second circuit.
        right: u32,
    },
    /// A basis input the two classical circuits map differently
    /// (classical tier, or a ZX residue confirmed by bit-level replay).
    /// The limb-backed [`BasisBits`] encoding makes the witness exact
    /// at **any** register width — 64+ wires included.
    BasisInput {
        /// The diverging basis input.
        input: BasisBits,
        /// Image under the first circuit.
        left_output: BasisBits,
        /// Image under the second circuit.
        right_output: BasisBits,
    },
    /// A basis input whose output states have overlap below 1 (dense
    /// tier, or a ZX residue confirmed by a basis-column replay of the
    /// miter — a sparse column up to [`MAX_COLUMN_QUBITS`] wires).
    BasisColumn {
        /// The diverging basis input (unitary column).
        input: u64,
        /// `|⟨C₁·input|C₂·input⟩|`, strictly below 1.
        overlap: f64,
    },
    /// Two basis inputs picking up different phases — the circuits agree
    /// columnwise but only up to a *relative* phase (dense tier, or a ZX
    /// diagonal residue confirmed by phase replay of two miter basis
    /// eigenvectors — the shape `T` vs `T†` produces).
    RelativePhase {
        /// First basis input.
        input_a: u64,
        /// Second basis input, with a different phase.
        input_b: u64,
    },
    /// A Pauli generator the miter `C₂†C₁` fails to fix (tableau tier).
    Generator {
        /// Qubit the generator acts on.
        qubit: u32,
        /// `true` for the `X` (destabilizer) generator, `false` for `Z`.
        destabilizer: bool,
    },
    /// A randomized product-state input that did not return to itself
    /// through the miter (stimulus tier). Reproducible: re-seeding the
    /// preparation layer with `seed` rebuilds the exact input state.
    Stimulus {
        /// Trial index within the run.
        trial: u64,
        /// Seed of the per-qubit preparation layer.
        seed: u64,
        /// Measured return fidelity, strictly below 1.
        fidelity: f64,
    },
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::RegisterMismatch { left, right } => {
                write!(f, "register mismatch: {left} vs {right} qubits")
            }
            Witness::BasisInput {
                input,
                left_output,
                right_output,
            } => write!(
                f,
                "basis input {input} maps to {left_output} vs {right_output}"
            ),
            Witness::BasisColumn { input, overlap } => write!(
                f,
                "basis input {input:#b} yields diverging outputs (overlap {overlap:.6})"
            ),
            Witness::RelativePhase { input_a, input_b } => write!(
                f,
                "basis inputs {input_a:#b} and {input_b:#b} acquire different phases"
            ),
            Witness::Generator {
                qubit,
                destabilizer,
            } => write!(
                f,
                "miter does not fix Pauli {}{}",
                if *destabilizer { "X" } else { "Z" },
                qubit
            ),
            Witness::Stimulus {
                trial,
                seed,
                fidelity,
            } => write!(
                f,
                "stimulus trial {trial} (prep seed {seed:#x}) returned with fidelity {fidelity:.9}"
            ),
        }
    }
}

/// The outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The circuits implement the same unitary up to global phase. Exact
    /// for the classical/tableau/dense tiers; statistical for the
    /// stimulus tier (see [`Report::confidence`]).
    Equivalent,
    /// The circuits differ, with concrete evidence.
    Inequivalent {
        /// Why the circuits are not equivalent.
        witness: Witness,
    },
    /// No applicable tier could decide (register too large, or zero
    /// trials configured).
    Inconclusive {
        /// Confidence in equivalence accumulated before giving up
        /// (`0.0` when nothing ran).
        confidence: f64,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent)
    }

    /// `true` for [`Verdict::Inequivalent`].
    pub fn is_inequivalent(&self) -> bool {
        matches!(self, Verdict::Inequivalent { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Equivalent => f.write_str("equivalent"),
            Verdict::Inequivalent { witness } => write!(f, "NOT equivalent ({witness})"),
            Verdict::Inconclusive { confidence } => {
                write!(f, "inconclusive (confidence {confidence:.4})")
            }
        }
    }
}

/// A verdict together with how it was reached.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The verdict.
    pub verdict: Verdict,
    /// Which tier decided.
    pub tier: Tier,
    /// Stimulus trials executed (0 for the exact tiers).
    pub trials: u64,
}

impl Report {
    /// Confidence in the verdict: `1.0` for the exact tiers, and the
    /// `1 − 2^{−trials}` Monte-Carlo heuristic for a stimulus
    /// [`Verdict::Equivalent`] (each independent random product state
    /// exposes a fixed non-identity miter with probability ≥ ½).
    pub fn confidence(&self) -> f64 {
        match (&self.verdict, self.tier) {
            (Verdict::Inconclusive { confidence }, _) => *confidence,
            (Verdict::Equivalent, Tier::Stimulus) => 1.0 - 0.5f64.powi(self.trials as i32),
            _ => 1.0,
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} tier", self.verdict, self.tier)?;
        if self.tier == Tier::Stimulus {
            write!(f, ", {} trials", self.trials)?;
        }
        f.write_str("]")
    }
}

/// Tiered equivalence verifier.
///
/// Construction is cheap; a `Verifier` holds only configuration and can
/// be reused across checks.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qverify::Verifier;
///
/// let mut a = Circuit::new(2);
/// a.h(0).cx(0, 1);
/// let mut b = Circuit::new(2);
/// b.h(0).cx(0, 1);
/// assert!(Verifier::new().check(&a, &b).is_equivalent());
/// b.x(0);
/// assert!(Verifier::new().check(&a, &b).is_inequivalent());
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    eps: f64,
    trials: u64,
    threads: usize,
    seed: u64,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier {
            eps: 1e-9,
            trials: 8,
            threads: 0,
            seed: 0x7e7_1257,
        }
    }
}

impl Verifier {
    /// Creates a verifier with the default configuration (ε = 1e-9,
    /// 8 stimulus trials, auto thread count).
    pub fn new() -> Self {
        Verifier::default()
    }

    /// Sets the numeric tolerance used by the dense and stimulus tiers.
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets the number of randomized stimulus trials.
    pub fn with_trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the stimulus worker-thread count (`0` = derive from
    /// available parallelism, capped by a per-register memory budget).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the base seed of the stimulus preparation layers.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Decides whether `original` and `candidate` implement the same
    /// unitary up to global phase, via the cheapest applicable tier.
    ///
    /// # Examples
    ///
    /// Small circuits are decided exactly; the tier is an internal
    /// detail unless you ask for it with [`Verifier::check_report`]:
    ///
    /// ```
    /// use qcir::Circuit;
    /// use qverify::{Verdict, Verifier};
    ///
    /// let mut bell = Circuit::new(2);
    /// bell.h(0).cx(0, 1);
    /// let mut alt = Circuit::new(2);
    /// alt.h(0).cx(0, 1).z(0).z(0); // extra canceling pair
    /// let verifier = Verifier::new();
    /// assert!(verifier.check(&bell, &alt).is_equivalent());
    /// ```
    ///
    /// A 30-qubit Clifford+T pair is past the statevector cap, but the
    /// ZX tier still certifies it exactly — and a corrupted candidate
    /// is rejected with a concrete witness from a lower tier:
    ///
    /// ```
    /// use qcir::Circuit;
    /// use qverify::{Tier, Verdict, Verifier};
    ///
    /// let mut a = Circuit::new(30);
    /// for q in 0..29 {
    ///     a.h(q).t(q).cx(q, q + 1);
    /// }
    /// let mut b = a.clone();
    /// b.s(7).sdg(7); // syntactic noise, same unitary
    /// let verifier = Verifier::new();
    /// let report = verifier.check_report(&a, &b);
    /// assert_eq!(report.tier, Tier::Zx);
    /// assert!(report.verdict.is_equivalent());
    /// assert_eq!(report.confidence(), 1.0);
    /// ```
    ///
    /// The mirror image at the same width: a 30-qubit reversible pair
    /// under a *wrong key* (here: a stray inverter) is past the
    /// classical-exhaustive, dense **and** stimulus caps, yet the ZX
    /// tier rejects it exactly — the stalled miter residue proposes a
    /// basis input, and a bit-level replay of both circuits confirms it
    /// as a [`Witness::BasisInput`]:
    ///
    /// ```
    /// use qcir::Circuit;
    /// use qverify::{Tier, Verdict, Verifier, Witness};
    ///
    /// let mut a = Circuit::new(30);
    /// for q in 0..28 {
    ///     a.cx(q, q + 1).ccx(q, q + 1, q + 2);
    /// }
    /// let mut b = a.clone();
    /// b.x(12); // wrong key: one stray inverter
    /// let report = Verifier::new().check_report(&a, &b);
    /// assert_eq!(report.tier, Tier::Zx);
    /// assert_eq!(report.confidence(), 1.0);
    /// let Verdict::Inequivalent {
    ///     witness: Witness::BasisInput { input, left_output, right_output },
    /// } = report.verdict
    /// else {
    ///     panic!("expected a replay-confirmed basis witness");
    /// };
    /// // The witness is independently checkable with plain bit ops.
    /// assert_eq!(revlib::classical_eval_bits(&a, &input).unwrap(), left_output);
    /// assert_eq!(revlib::classical_eval_bits(&b, &input).unwrap(), right_output);
    /// assert_ne!(left_output, right_output);
    /// ```
    pub fn check(&self, original: &Circuit, candidate: &Circuit) -> Verdict {
        self.check_report(original, candidate).verdict
    }

    /// Like [`Verifier::check`], but also reports which tier decided and
    /// how many stimulus trials ran.
    pub fn check_report(&self, original: &Circuit, candidate: &Circuit) -> Report {
        let span = qobs::span("verify.check")
            .attr("circuit", original.name())
            .attr("wires", original.num_qubits())
            .attr("gates_left", original.gate_count())
            .attr("gates_right", candidate.gate_count());
        let report = self.check_report_tiers(original, candidate);
        let _span = span
            .attr("tier", tier_key(report.tier))
            .attr("verdict", verdict_key(&report.verdict))
            .attr("trials", report.trials);
        report
    }

    /// The tier cascade behind [`Verifier::check_report`], with each
    /// attempt routed through [`tier_attempt`] for telemetry.
    fn check_report_tiers(&self, original: &Circuit, candidate: &Circuit) -> Report {
        let n = original.num_qubits();
        if n != candidate.num_qubits() {
            return Report {
                verdict: Verdict::Inequivalent {
                    witness: Witness::RegisterMismatch {
                        left: n,
                        right: candidate.num_qubits(),
                    },
                },
                tier: Tier::Structural,
                trials: 0,
            };
        }
        let all_classical = |c: &Circuit| c.iter().all(|i| i.gate().is_classical());
        if n <= CLASSICAL_EXHAUSTIVE_MAX_QUBITS
            && all_classical(original)
            && all_classical(candidate)
        {
            if let Some(report) = tier_attempt(Tier::Classical, || {
                Some(classical::check(original, candidate))
            }) {
                return report;
            }
        }
        if let Some(report) =
            tier_attempt(Tier::Tableau, || self.check_tableau(original, candidate))
        {
            return report;
        }
        if let Some(report) = tier_attempt(Tier::Zx, || self.check_zx(original, candidate)) {
            return report;
        }
        if n <= MAX_UNITARY_QUBITS {
            if let Some(report) =
                tier_attempt(Tier::Dense, || self.check_dense(original, candidate).ok())
            {
                return report;
            }
        }
        if n <= MAX_STIMULUS_QUBITS {
            if let Some(report) = tier_attempt(Tier::Stimulus, || {
                self.check_stimulus(original, candidate).ok()
            }) {
                return report;
            }
        }
        Report {
            verdict: Verdict::Inconclusive { confidence: 0.0 },
            tier: Tier::Structural,
            trials: 0,
        }
    }

    /// Forces the stabilizer-tableau tier. Returns `None` unless both
    /// circuits compile to Clifford operations (H/S/CX plus the gates
    /// expressible through them, including right-angle rotations).
    pub fn check_tableau(&self, original: &Circuit, candidate: &Circuit) -> Option<Report> {
        if original.num_qubits() != candidate.num_qubits() {
            return None;
        }
        let ops_a = clifford::compile(original)?;
        let ops_b_inv = clifford::compile(&candidate.inverse())?;
        Some(tableau::check(original.num_qubits(), &ops_a, &ops_b_inv))
    }

    /// Forces the ZX-calculus graph-rewriting tier.
    ///
    /// Builds the miter `C₂†C₁` as a ZX spider graph — all phases exact
    /// [`Phase`] values — and rewrites it (spider fusion, identity
    /// removal, Hadamard-edge cancellation, local complementation,
    /// pivoting, phase-gadget moves, phase-polynomial completion)
    /// toward the bare-wire identity. Returns `Some(Equivalent)` with
    /// tier [`Tier::Zx`] iff the diagram fully reduces — an exact proof
    /// with no qubit cap. A stalled non-identity residue proposes
    /// candidate basis inputs; if one is confirmed by an independent
    /// replay (classical bit evaluation when both circuits are
    /// reversible, at any width, or a sparse basis-column replay of the
    /// miter up to [`MAX_COLUMN_QUBITS`] wires, falling back to a
    /// statevector within [`MAX_STIMULUS_QUBITS`]), this returns
    /// `Some(Inequivalent)` with that concrete witness. Returns `None`
    /// when the registers mismatch, a gate does not translate (an
    /// [`qcir::Gate::Mcx`] with more than [`MAX_MCX_CONTROLS`]
    /// controls), or rewriting stalls with no replay-confirmed
    /// candidate — a stall alone carries **no** evidence either way, so
    /// an engine bug can cost completeness but never a false verdict.
    pub fn check_zx(&self, original: &Circuit, candidate: &Circuit) -> Option<Report> {
        zx::check(original, candidate, self.eps)
    }

    /// Forces the dense-unitary tier (the exhaustive ≤
    /// [`MAX_UNITARY_QUBITS`]-qubit fallback): every basis column, each
    /// a sparse column with its pruned norm charged against `eps`, or
    /// a statevector pair once that bound could decide a column or the
    /// support budget trips.
    ///
    /// # Errors
    ///
    /// Returns [`qsim::SimError::TooManyQubits`] past the dense cap.
    pub fn check_dense(
        &self,
        original: &Circuit,
        candidate: &Circuit,
    ) -> Result<Report, qsim::SimError> {
        if original.num_qubits() != candidate.num_qubits() {
            return Ok(mismatch_report(original, candidate));
        }
        dense::check(original, candidate, self.eps)
    }

    /// Forces the randomized product-state stimulus tier.
    ///
    /// # Errors
    ///
    /// Returns [`qsim::SimError::TooManyQubits`] past the statevector
    /// cap ([`MAX_STIMULUS_QUBITS`]).
    pub fn check_stimulus(
        &self,
        original: &Circuit,
        candidate: &Circuit,
    ) -> Result<Report, qsim::SimError> {
        if original.num_qubits() != candidate.num_qubits() {
            return Ok(mismatch_report(original, candidate));
        }
        stimulus::check(
            original,
            candidate,
            self.eps,
            self.trials,
            self.threads,
            self.seed,
        )
    }
}

fn mismatch_report(a: &Circuit, b: &Circuit) -> Report {
    Report {
        verdict: Verdict::Inequivalent {
            witness: Witness::RegisterMismatch {
                left: a.num_qubits(),
                right: b.num_qubits(),
            },
        },
        tier: Tier::Structural,
        trials: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An *inequivalent* pair on which the ZX tier must fall through —
    /// the 8-control `Mcx` exceeds [`MAX_MCX_CONTROLS`], so the miter
    /// never even translates to a diagram — and tier selection falls
    /// through to the simulation tiers. The `T`/`T†` garnish keeps the
    /// pair non-classical and non-Clifford, so neither exact bit tier
    /// applies. (A plain `T` vs `T†` pair no longer works here: the ZX
    /// tier certifies it with a phase-replay witness.)
    fn zx_stalling_pair(n: u32) -> (Circuit, Circuit) {
        assert!(n >= 9, "fixture needs 8 controls plus a target");
        let controls: Vec<u32> = (0..8).collect();
        let mut a = Circuit::new(n);
        a.mcx(&controls, 8).t(8);
        let mut b = Circuit::new(n);
        b.mcx(&controls, 8).tdg(8);
        (a, b)
    }

    #[test]
    fn register_mismatch_is_structural() {
        let report = Verifier::new().check_report(&Circuit::new(2), &Circuit::new(3));
        assert_eq!(report.tier, Tier::Structural);
        assert!(matches!(
            report.verdict,
            Verdict::Inequivalent {
                witness: Witness::RegisterMismatch { left: 2, right: 3 }
            }
        ));
    }

    #[test]
    fn classical_tier_selected_for_reversible_circuits() {
        let mut a = Circuit::new(4);
        a.x(0).ccx(0, 1, 2).cx(2, 3);
        let report = Verifier::new().check_report(&a, &a.clone());
        assert_eq!(report.tier, Tier::Classical);
        assert!(report.verdict.is_equivalent());
        assert_eq!(report.confidence(), 1.0);
    }

    #[test]
    fn tableau_tier_selected_for_clifford_circuits() {
        let mut a = Circuit::new(3);
        a.h(0).cx(0, 1).s(2).cz(1, 2);
        let report = Verifier::new().check_report(&a, &a.clone());
        assert_eq!(report.tier, Tier::Tableau);
        assert!(report.verdict.is_equivalent());
    }

    #[test]
    fn zx_tier_selected_for_non_clifford_identity_pair() {
        // Non-Clifford (T, CCX) and syntactically different: tableau
        // refuses, ZX reduces the miter and decides before dense.
        let mut a = Circuit::new(3);
        a.h(0).t(1).ccx(0, 1, 2);
        let mut b = a.clone();
        b.s(2).sdg(2);
        let report = Verifier::new().check_report(&a, &b);
        assert_eq!(report.tier, Tier::Zx);
        assert!(report.verdict.is_equivalent());
        assert_eq!(report.confidence(), 1.0);
    }

    #[test]
    fn zx_tier_reaches_past_every_simulation_cap() {
        let n = MAX_STIMULUS_QUBITS + 14; // 42 qubits
        let mut a = Circuit::new(n);
        for q in 0..n - 1 {
            a.h(q).t(q).cx(q, q + 1);
        }
        let report = Verifier::new().check_report(&a, &a.clone());
        assert_eq!(report.tier, Tier::Zx);
        assert!(report.verdict.is_equivalent());
    }

    #[test]
    fn dense_tier_selected_for_small_non_clifford() {
        // ZX stalls on this pair (the miter never translates), so the
        // dense tier decides it — with a concrete witness ZX could
        // never produce here.
        let (a, b) = zx_stalling_pair(9);
        let report = Verifier::new().check_report(&a, &b);
        assert_eq!(report.tier, Tier::Dense);
        assert!(report.verdict.is_inequivalent());
    }

    #[test]
    fn stimulus_tier_selected_beyond_dense_cap() {
        let n = MAX_UNITARY_QUBITS + 2;
        let (a, b) = zx_stalling_pair(n);
        let verifier = Verifier::new().with_trials(4);
        let report = verifier.check_report(&a, &b);
        assert_eq!(report.tier, Tier::Stimulus);
        assert!(
            matches!(
                report.verdict,
                Verdict::Inequivalent {
                    witness: Witness::Stimulus { .. }
                }
            ),
            "{report}"
        );
    }

    #[test]
    fn oversized_register_is_inconclusive() {
        // Past the statevector cap AND stalling the ZX tier: nothing
        // can decide, and the verifier must say so rather than guess.
        let (a, b) = zx_stalling_pair(MAX_STIMULUS_QUBITS + 1);
        let report = Verifier::new().check_report(&a, &b);
        assert!(matches!(
            report.verdict,
            Verdict::Inconclusive { confidence } if confidence == 0.0
        ));
    }

    #[test]
    fn verdict_display_is_informative() {
        let v = Verdict::Inequivalent {
            witness: Witness::Stimulus {
                trial: 3,
                seed: 0xAB,
                fidelity: 0.25,
            },
        };
        let text = v.to_string();
        assert!(text.contains("NOT equivalent"));
        assert!(text.contains("trial 3"));
        assert!(Verdict::Equivalent.to_string().contains("equivalent"));
        assert!(Tier::Tableau.to_string().contains("tableau"));
        assert!(Tier::Zx.to_string().contains("zx"));
    }

    #[test]
    fn zero_trials_is_inconclusive() {
        let (a, b) = zx_stalling_pair(MAX_UNITARY_QUBITS + 1);
        let report = Verifier::new().with_trials(0).check_report(&a, &b);
        assert_eq!(report.tier, Tier::Stimulus);
        assert!(matches!(report.verdict, Verdict::Inconclusive { .. }));
    }

    #[test]
    fn zx_tier_certifies_diagonal_residues_by_phase_replay() {
        // A genuinely different pair whose residue is purely diagonal:
        // no single basis input can see it (every basis ray is fixed),
        // but two basis eigenvectors pick up *different* phases, and
        // the phase replay certifies exactly that. Historically this
        // shape fell through to the dense tier; now ZX decides it.
        let mut a = Circuit::new(2);
        a.t(0);
        let mut b = Circuit::new(2);
        b.t(1);
        let report = Verifier::new().check_report(&a, &b);
        assert_eq!(report.tier, Tier::Zx, "{report}");
        assert!(
            matches!(
                report.verdict,
                Verdict::Inequivalent {
                    witness: Witness::RelativePhase {
                        input_a: 0,
                        input_b: 0b01
                    }
                }
            ),
            "{report}"
        );
        assert_eq!(report.confidence(), 1.0);
    }

    #[test]
    fn diagonal_residue_past_the_column_cap_is_inconclusive() {
        // T vs T† at 64 wires: past MAX_COLUMN_QUBITS no replay backend
        // can address the basis column, so the ZX tier must fall
        // through rather than guess — and with every simulation tier
        // also out of reach, the verdict is honestly Inconclusive.
        let n = MAX_COLUMN_QUBITS + 1;
        let mut a = Circuit::new(n);
        a.t(0);
        let mut b = Circuit::new(n);
        b.tdg(0);
        let report = Verifier::new().check_report(&a, &b);
        assert!(
            matches!(
                report.verdict,
                Verdict::Inconclusive { confidence } if confidence == 0.0
            ),
            "{report}"
        );
    }

    #[test]
    fn zx_tier_witnesses_wide_wrong_key_pairs_exactly() {
        // A 30-qubit reversible pair differing by one stray X: past the
        // classical-exhaustive, dense and stimulus caps, previously
        // Inconclusive. The ZX tier now rejects it with a bit-replay
        // witness, through the normal dispatch.
        let n = 30u32;
        let mut a = Circuit::new(n);
        for q in 0..n - 2 {
            a.cx(q, q + 1).ccx(q, q + 1, q + 2);
        }
        assert!(n > MAX_STIMULUS_QUBITS);
        let mut b = a.clone();
        b.x(12);
        let report = Verifier::new().check_report(&a, &b);
        assert_eq!(report.tier, Tier::Zx, "{report}");
        assert!(
            matches!(
                report.verdict,
                Verdict::Inequivalent {
                    witness: Witness::BasisInput { .. }
                }
            ),
            "{report}"
        );
        assert_eq!(report.confidence(), 1.0);
    }

    #[test]
    fn tier_metric_names_follow_the_tier_keys() {
        // perfbench and the report read these names: the table must
        // spell them exactly as the per-tier statics did.
        for tier in [
            Tier::Classical,
            Tier::Tableau,
            Tier::Zx,
            Tier::Dense,
            Tier::Stimulus,
        ] {
            let metrics = &TIER_METRICS[tier as usize];
            let key = tier_key(tier);
            assert_eq!(
                metrics.entered.name(),
                format!("qverify.tier.{key}.entered")
            );
            assert_eq!(
                metrics.decided.name(),
                format!("qverify.tier.{key}.decided")
            );
            assert_eq!(
                metrics.elapsed.name(),
                format!("qverify.tier.{key}.elapsed_us")
            );
        }
    }

    #[test]
    fn dense_cap_reexported_for_tier_selection() {
        // The dense tier's reach is exactly qsim's documented cap, and
        // the classical tier extends beyond it.
        assert_eq!(MAX_UNITARY_QUBITS, qsim::unitary::MAX_UNITARY_QUBITS);
        const _: () = assert!(CLASSICAL_EXHAUSTIVE_MAX_QUBITS > MAX_UNITARY_QUBITS);
    }
}

//! The top-level obfuscation API.

use crate::insertion::{insert_random_pairs, Insertion, InsertionConfig};
use crate::interlock::{InterlockPattern, SplitPair};
use qcir::Circuit;

/// TetrisLock obfuscator: random-pair insertion plus interlocking split.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use tetrislock::Obfuscator;
///
/// let mut c = Circuit::new(4);
/// c.h(0).cx(0, 1).cx(1, 2).cx(0, 1);
/// let obf = Obfuscator::new().with_seed(42).obfuscate(&c);
/// assert_eq!(obf.obfuscated().depth(), c.depth()); // 0% depth overhead
/// let split = obf.split(7);
/// // Neither segment alone is the original circuit.
/// assert!(split.left.circuit.gate_count() < obf.obfuscated().gate_count());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Obfuscator {
    config: InsertionConfig,
}

impl Obfuscator {
    /// Creates an obfuscator with the default configuration (gate limit 4,
    /// X/CX policy).
    pub fn new() -> Self {
        Obfuscator::default()
    }

    /// Replaces the whole insertion configuration.
    pub fn with_config(mut self, config: InsertionConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &InsertionConfig {
        &self.config
    }

    /// Obfuscates `circuit`, producing the `R⁻¹RC` form.
    pub fn obfuscate(&self, circuit: &Circuit) -> Obfuscation {
        let span = qobs::span("core.obfuscate")
            .attr("circuit", circuit.name())
            .attr("wires", circuit.num_qubits())
            .attr("gates", circuit.gate_count());
        let insertion = insert_random_pairs(circuit, &self.config);
        let _span = span.attr("inserted", insertion.inserted_count());
        Obfuscation {
            original: circuit.clone(),
            insertion,
            seed: self.config.seed,
        }
    }
}

/// An obfuscated circuit with its provenance.
#[derive(Debug, Clone)]
pub struct Obfuscation {
    original: Circuit,
    insertion: Insertion,
    seed: u64,
}

impl Obfuscation {
    /// Reassembles an `Obfuscation` from persisted parts (the batch
    /// service checkpoints the original circuit, the insertion record,
    /// and the seed, then rebuilds the value on resume).
    pub fn from_parts(original: Circuit, insertion: Insertion, seed: u64) -> Self {
        Obfuscation {
            original,
            insertion,
            seed,
        }
    }

    /// The original (secret) circuit `C`.
    pub fn original(&self) -> &Circuit {
        &self.original
    }

    /// The obfuscated circuit `R⁻¹RC` (functionally equal to `C`, same
    /// depth).
    pub fn obfuscated(&self) -> &Circuit {
        &self.insertion.circuit
    }

    /// The underlying insertion record (pairs, indices, layers).
    pub fn insertion(&self) -> &Insertion {
        &self.insertion
    }

    /// Number of inserted forward gates (1–4 in the paper's experiments).
    pub fn inserted_count(&self) -> usize {
        self.insertion.inserted_count()
    }

    /// The masked view `RC` — what leaks if the `R⁻¹` half is stripped
    /// (Figure 4's "obfuscated" measurement).
    pub fn masked_circuit(&self) -> Circuit {
        self.insertion.masked_circuit()
    }

    /// The random circuit `R`.
    pub fn r_circuit(&self) -> Circuit {
        self.insertion.r_circuit()
    }

    /// The inverse random circuit `R⁻¹`.
    pub fn r_inverse_circuit(&self) -> Circuit {
        self.insertion.r_inverse_circuit()
    }

    /// Gate-count increase as a percentage (Table I's "gate change").
    pub fn gate_increase_percent(&self) -> f64 {
        let before = self.original.gate_count() as f64;
        if before == 0.0 {
            return 0.0;
        }
        (self.insertion.gate_overhead() as f64) / before * 100.0
    }

    /// Depth increase (always 0 by construction; exposed for reporting).
    pub fn depth_increase(&self) -> isize {
        self.obfuscated().depth() as isize - self.original.depth() as isize
    }

    /// Splits the obfuscated circuit with one random interlocking
    /// pattern derived from `seed` (see [`InterlockPattern::random_for`]).
    ///
    /// Front placement makes every `g†` the first gate on its wires, so
    /// the draw always puts each `R⁻¹` half in the left segment and its
    /// `R` half in the right one.
    ///
    /// # Panics
    ///
    /// If the split leaves a pair unseparated (a broken invariant, not
    /// an unlucky draw).
    pub fn split(&self, seed: u64) -> SplitPair {
        let _span = qobs::span("core.split")
            .attr("circuit", self.original.name())
            .attr("wires", self.original.num_qubits())
            .attr("gates", self.obfuscated().gate_count());
        let split = InterlockPattern::random_for(self, seed).split(self);
        assert!(
            self.split_separates_pairs(&split),
            "interlocking split left an inserted pair unseparated"
        );
        split
    }

    /// `true` if every inserted pair has its inverse half in the left
    /// segment and its forward half in the right segment.
    pub fn split_separates_pairs(&self, split: &SplitPair) -> bool {
        self.insertion.pairs.iter().all(|pair| {
            split.assignment[pair.inverse_index] && !split.assignment[pair.forward_index]
        })
    }

    /// Splits with an explicit pattern.
    pub fn split_with(&self, pattern: &InterlockPattern) -> SplitPair {
        pattern.split(self)
    }

    /// Recombines `split` and checks the result against the original
    /// design with the tiered verifier — usable far past the
    /// dense-unitary cap (Clifford designs via the stabilizer tableau,
    /// larger general circuits via the parallel stimulus miter).
    ///
    /// # Errors
    ///
    /// Returns [`crate::LockError::Recombine`] if the split's wire maps
    /// are incomplete.
    ///
    /// # Example
    ///
    /// ```
    /// use qcir::Circuit;
    /// use qverify::Verifier;
    /// use tetrislock::Obfuscator;
    ///
    /// let mut c = Circuit::new(4);
    /// c.h(0).cx(0, 1).cx(1, 2).cx(0, 1);
    /// let obf = Obfuscator::new().with_seed(1).obfuscate(&c);
    /// let split = obf.split(7);
    /// let verdict = obf.verify_roundtrip(&split, &Verifier::new())?;
    /// assert!(verdict.is_equivalent());
    /// # Ok::<(), tetrislock::LockError>(())
    /// ```
    pub fn verify_roundtrip(
        &self,
        split: &SplitPair,
        verifier: &qverify::Verifier,
    ) -> Result<qverify::Verdict, crate::LockError> {
        let restored = crate::recombine::recombine(split)?;
        Ok(verifier.check(&self.original, &restored))
    }

    /// The seed used for insertion (recorded for reproducibility).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::unitary::equivalent_up_to_phase;

    fn sample() -> Circuit {
        let mut c = Circuit::with_name(5, "sample");
        c.h(0).cx(0, 1).ccx(0, 1, 2).cx(2, 3).h(4).cx(3, 4);
        c
    }

    #[test]
    fn builder_configures() {
        let o = Obfuscator::new()
            .with_config(InsertionConfig {
                gate_limit: 2,
                policy: crate::policy::GatePolicy::Hadamard,
                ..Default::default()
            })
            .with_seed(5);
        assert_eq!(o.config().seed, 5);
        assert_eq!(o.config().gate_limit, 2);
    }

    #[test]
    fn obfuscation_preserves_function_and_depth() {
        let c = sample();
        for seed in 0..10 {
            let obf = Obfuscator::new().with_seed(seed).obfuscate(&c);
            assert_eq!(obf.depth_increase(), 0, "seed {seed}");
            assert!(
                equivalent_up_to_phase(&c, obf.obfuscated(), 1e-9).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn gate_increase_reported() {
        let c = sample();
        let obf = Obfuscator::new().with_seed(1).obfuscate(&c);
        let expect = obf.insertion().gate_overhead() as f64 / c.gate_count() as f64 * 100.0;
        assert!((obf.gate_increase_percent() - expect).abs() < 1e-12);
    }

    #[test]
    fn accessors_consistent() {
        let c = sample();
        let obf = Obfuscator::new().with_seed(2).obfuscate(&c);
        assert_eq!(obf.original().instructions(), c.instructions());
        assert_eq!(obf.seed(), 2);
        assert_eq!(
            obf.obfuscated().gate_count(),
            c.gate_count() + 2 * obf.inserted_count()
        );
        assert_eq!(obf.r_circuit().gate_count(), obf.inserted_count());
    }
}

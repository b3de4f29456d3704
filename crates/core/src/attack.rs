//! Attack-complexity models (§IV-C, Eq. 1).
//!
//! The collusion attack on split compilation tries to reconnect the two
//! compiled segments by matching qubits across the boundary.
//!
//! * Prior work (Saki et al. \[20\]) splits into equal-width cascading
//!   sections, so the attacker only has to consider candidate segments of
//!   exactly `n` qubits and try every wire permutation:
//!   `complexity = kₙ · n!`.
//! * TetrisLock's interlocking split produces segments with *unequal*
//!   qubit counts, and not every wire crosses the boundary, so the
//!   attacker must consider every candidate size `i`, every subset of
//!   wires to connect on both sides, and every mapping between them
//!   (paper Eq. 1):
//!
//!   `complexity = Σᵢ₌₁^{n_max} kᵢ · Σⱼ₌₀^{min(n,i)} C(n,j)·C(i,j)·j!`
//!
//! Exact values are computed in `u128` where they fit; a log₁₀ API covers
//! the asymptotic regime.

use crate::error::LockError;

/// Exact factorial, `None` on u128 overflow (n ≥ 35).
pub fn factorial(n: u32) -> Option<u128> {
    let mut acc: u128 = 1;
    for k in 2..=n as u128 {
        acc = acc.checked_mul(k)?;
    }
    Some(acc)
}

/// Exact binomial coefficient `C(n, k)`, `None` on overflow.
pub fn binomial(n: u32, k: u32) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k as u128 {
        acc = acc.checked_mul(n as u128 - i)?;
        acc /= i + 1;
    }
    Some(acc)
}

/// `log₁₀(n!)` via direct log summation (exact enough for plotting).
pub fn log10_factorial(n: u32) -> f64 {
    (2..=n).map(|k| (k as f64).log10()).sum()
}

/// `log₁₀ C(n, k)`.
pub fn log10_binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    log10_factorial(n) - log10_factorial(k) - log10_factorial(n - k)
}

/// Candidate-segment census: `count(i)` = number of segments with `i`
/// qubits the attacker sees from the other compiler (the paper's `kᵢ`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentCensus {
    counts: Vec<u64>,
}

impl SegmentCensus {
    /// Uniform census: `k` candidates at every size `1..=n_max`.
    pub fn uniform(n_max: u32, k: u64) -> Self {
        SegmentCensus {
            counts: vec![k; n_max as usize],
        }
    }

    /// Largest segment size with a nonzero count.
    pub fn n_max(&self) -> u32 {
        self.counts.len() as u32
    }

    /// Number of candidate segments of size `i` (1-based).
    pub fn count(&self, i: u32) -> u64 {
        if i == 0 || i as usize > self.counts.len() {
            0
        } else {
            self.counts[i as usize - 1]
        }
    }
}

/// Saki et al. \[20\] collusion complexity: `kₙ · n!` — the attacker matches
/// the `n` wires of one segment against a same-width candidate.
///
/// # Errors
///
/// Returns [`LockError::ComplexityOverflow`] when the exact value exceeds
/// `u128` (use [`saki_complexity_log10`]).
pub fn saki_complexity(n: u32, candidates_same_width: u64) -> Result<u128, LockError> {
    factorial(n)
        .and_then(|f| f.checked_mul(candidates_same_width as u128))
        .ok_or(LockError::ComplexityOverflow { qubits: n })
}

/// Log₁₀ of the Saki complexity.
pub fn saki_complexity_log10(n: u32, candidates_same_width: u64) -> f64 {
    if candidates_same_width == 0 {
        return f64::NEG_INFINITY;
    }
    (candidates_same_width as f64).log10() + log10_factorial(n)
}

/// TetrisLock collusion complexity (paper Eq. 1) for a segment of `n`
/// qubits against the census of the other compiler's segments.
///
/// # Errors
///
/// Returns [`LockError::ComplexityOverflow`] when the exact value exceeds
/// `u128` (use [`tetrislock_complexity_log10`]).
///
/// # Example
///
/// ```
/// use tetrislock::attack::{saki_complexity, tetrislock_complexity, SegmentCensus};
///
/// let n = 5;
/// let census = SegmentCensus::uniform(8, 3);
/// let ours = tetrislock_complexity(n, &census)?;
/// let theirs = saki_complexity(n, 3)?;
/// assert!(ours > theirs); // Eq. 1 dominates kₙ·n!
/// # Ok::<(), tetrislock::LockError>(())
/// ```
pub fn tetrislock_complexity(n: u32, census: &SegmentCensus) -> Result<u128, LockError> {
    let mut total: u128 = 0;
    for i in 1..=census.n_max() {
        let k_i = census.count(i) as u128;
        if k_i == 0 {
            continue;
        }
        let mut inner: u128 = 0;
        for j in 0..=n.min(i) {
            let term = binomial(n, j)
                .zip(binomial(i, j))
                .zip(factorial(j))
                .and_then(|((a, b), f)| a.checked_mul(b)?.checked_mul(f))
                .ok_or(LockError::ComplexityOverflow { qubits: n })?;
            inner = inner
                .checked_add(term)
                .ok_or(LockError::ComplexityOverflow { qubits: n })?;
        }
        total = k_i
            .checked_mul(inner)
            .and_then(|x| total.checked_add(x))
            .ok_or(LockError::ComplexityOverflow { qubits: n })?;
    }
    Ok(total)
}

/// Log₁₀ of the TetrisLock complexity (Eq. 1), valid for any size.
pub fn tetrislock_complexity_log10(n: u32, census: &SegmentCensus) -> f64 {
    // log-sum-exp over all (i, j) terms, in base 10.
    let mut logs: Vec<f64> = Vec::new();
    for i in 1..=census.n_max() {
        let k_i = census.count(i);
        if k_i == 0 {
            continue;
        }
        let log_k = (k_i as f64).log10();
        for j in 0..=n.min(i) {
            logs.push(log_k + log10_binomial(n, j) + log10_binomial(i, j) + log10_factorial(j));
        }
    }
    log10_sum(&logs)
}

/// `log₁₀(Σ 10^{xᵢ})` computed stably.
fn log10_sum(logs: &[f64]) -> f64 {
    let m = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + logs.iter().map(|x| 10f64.powf(x - m)).sum::<f64>().log10()
}

/// The paper's headline security ratio: TetrisLock complexity divided by
/// the Saki baseline, in log₁₀ (positive = TetrisLock harder to attack).
pub fn advantage_log10(n: u32, census: &SegmentCensus) -> f64 {
    tetrislock_complexity_log10(n, census) - saki_complexity_log10(n, census.count(n).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorial_values() {
        assert_eq!(factorial(0), Some(1));
        assert_eq!(factorial(1), Some(1));
        assert_eq!(factorial(5), Some(120));
        assert_eq!(factorial(20), Some(2_432_902_008_176_640_000));
        assert!(factorial(34).is_some());
        assert!(factorial(35).is_none()); // 35! > u128::MAX
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), Some(10));
        assert_eq!(binomial(10, 0), Some(1));
        assert_eq!(binomial(10, 10), Some(1));
        assert_eq!(binomial(4, 7), Some(0));
        assert_eq!(binomial(52, 5), Some(2_598_960));
    }

    #[test]
    fn log_factorial_tracks_exact() {
        for n in [1u32, 5, 10, 20, 30] {
            let exact = factorial(n).unwrap() as f64;
            assert!((log10_factorial(n) - exact.log10()).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn saki_matches_hand_computation() {
        // 5 qubits, 3 candidates: 3 · 120 = 360.
        assert_eq!(saki_complexity(5, 3).unwrap(), 360);
        assert!((saki_complexity_log10(5, 3) - 360f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn saki_overflows_gracefully() {
        assert!(matches!(
            saki_complexity(40, 1),
            Err(LockError::ComplexityOverflow { qubits: 40 })
        ));
        assert!(saki_complexity_log10(40, 1).is_finite());
    }

    #[test]
    fn eq1_hand_computation_small() {
        // n = 1, census = one segment of 1 qubit:
        // Σ_{j=0}^{1} C(1,j)² j! = 1 + 1 = 2.
        let census = SegmentCensus { counts: vec![1] };
        assert_eq!(tetrislock_complexity(1, &census).unwrap(), 2);

        // n = 2, one segment of 2 qubits:
        // j=0: 1, j=1: C(2,1)·C(2,1)·1 = 4, j=2: C(2,2)²·2 = 2 → 7.
        let census = SegmentCensus { counts: vec![0, 1] };
        assert_eq!(tetrislock_complexity(2, &census).unwrap(), 7);
    }

    #[test]
    fn eq1_dominates_saki() {
        // The paper's argument: kₙ·n! is one slice (i = n, j = n) of Eq. 1.
        for n in 2..=10u32 {
            let census = SegmentCensus::uniform(n + 2, 4);
            let ours = tetrislock_complexity(n, &census).unwrap();
            let theirs = saki_complexity(n, 4).unwrap();
            assert!(ours > theirs, "n = {n}: {ours} <= {theirs}");
        }
    }

    #[test]
    fn log_api_tracks_exact_api() {
        for n in [3u32, 5, 8, 12] {
            let census = SegmentCensus::uniform(n + 3, 2);
            let exact = tetrislock_complexity(n, &census).unwrap() as f64;
            let logged = tetrislock_complexity_log10(n, &census);
            assert!(
                (logged - exact.log10()).abs() < 1e-6,
                "n = {n}: {logged} vs {}",
                exact.log10()
            );
        }
    }

    #[test]
    fn log_api_handles_large_n() {
        let census = SegmentCensus::uniform(60, 8);
        let v = tetrislock_complexity_log10(50, &census);
        assert!(
            v > 60.0,
            "50-qubit complexity should exceed 10^60, got 10^{v}"
        );
        assert!(v.is_finite());
    }

    #[test]
    fn advantage_is_positive() {
        for n in [4u32, 8, 16, 27] {
            let census = SegmentCensus::uniform(n + 4, 5);
            assert!(advantage_log10(n, &census) > 0.0, "n = {n}");
        }
    }

    #[test]
    fn census_accessors() {
        let census = SegmentCensus {
            counts: vec![1, 0, 7],
        };
        assert_eq!(census.n_max(), 3);
        assert_eq!(census.count(0), 0);
        assert_eq!(census.count(1), 1);
        assert_eq!(census.count(2), 0);
        assert_eq!(census.count(3), 7);
        assert_eq!(census.count(9), 0);
        assert_eq!(SegmentCensus::uniform(4, 2).count(4), 2);
    }

    #[test]
    fn empty_census_gives_zero() {
        let census = SegmentCensus { counts: vec![] };
        assert_eq!(tetrislock_complexity(5, &census).unwrap(), 0);
        assert_eq!(tetrislock_complexity_log10(5, &census), f64::NEG_INFINITY);
    }
}

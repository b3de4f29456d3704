//! # qmetrics — evaluation metrics
//!
//! The metrics the paper's evaluation section is built on:
//!
//! * [`tvd`] — Total Variation Distance between two counts dictionaries
//!   (paper Eq. 2), the headline obfuscation-quality metric of Figure 4.
//! * [`accuracy`] — fraction of shots landing on the expected outcome,
//!   the fidelity proxy of Table I.
//! * [`stats`] — mean/std summaries over experiment iterations (Table I
//!   reports 20-iteration averages).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;

use qsim::Counts;

/// Total Variation Distance between two counts dictionaries:
///
/// `TVD = Σᵢ |y_{i,a} − y_{i,b}| / (2·N)`
///
/// where the counts are first normalized to the same total `N` (the paper
/// uses equal shot counts on both sides; unequal totals are handled by
/// comparing empirical probabilities). Result is in `[0, 1]`; 0 means
/// identical distributions, 1 means disjoint support.
///
/// # Example
///
/// ```
/// use qsim::Counts;
/// use qmetrics::tvd;
///
/// let mut a = Counts::new(1);
/// a.record(0, 95);
/// a.record(1, 5);
/// let mut b = Counts::new(1);
/// b.record(0, 100);
/// assert!((tvd(&a, &b) - 0.05).abs() < 1e-12);
/// ```
pub fn tvd(a: &Counts, b: &Counts) -> f64 {
    let ta = a.total();
    let tb = b.total();
    if ta == 0 || tb == 0 {
        return if ta == tb { 0.0 } else { 1.0 };
    }
    let keys: std::collections::BTreeSet<usize> = a
        .iter()
        .map(|(k, _)| k)
        .chain(b.iter().map(|(k, _)| k))
        .collect();
    let mut acc = 0.0;
    for k in keys {
        let pa = a.count(k) as f64 / ta as f64;
        let pb = b.count(k) as f64 / tb as f64;
        acc += (pa - pb).abs();
    }
    acc / 2.0
}

/// TVD of measured counts against a single theoretical outcome (the form
/// used for Figure 4, where the reference is e.g. `{"0": 100%}`).
///
/// Equivalent to `1 − P(expected)`.
pub fn tvd_vs_ideal(counts: &Counts, expected: usize) -> f64 {
    1.0 - counts.probability(expected)
}

/// Accuracy: the ratio of correct outcomes to the total number of shots
/// (Table I's metric).
///
/// Returns 0 for an empty counts table.
///
/// # Example
///
/// ```
/// use qsim::Counts;
/// use qmetrics::accuracy;
///
/// let mut counts = Counts::new(2);
/// counts.record(0b11, 974);
/// counts.record(0b01, 26);
/// assert!((accuracy(&counts, 0b11) - 0.974).abs() < 1e-12);
/// ```
pub fn accuracy(counts: &Counts, expected: usize) -> f64 {
    counts.probability(expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(usize, u64)]) -> Counts {
        let mut c = Counts::new(4);
        for &(k, v) in pairs {
            c.record(k, v);
        }
        c
    }

    #[test]
    fn tvd_identical_is_zero() {
        let a = counts(&[(0, 50), (3, 50)]);
        assert_eq!(tvd(&a, &a), 0.0);
    }

    #[test]
    fn tvd_disjoint_is_one() {
        let a = counts(&[(0, 100)]);
        let b = counts(&[(1, 100)]);
        assert_eq!(tvd(&a, &b), 1.0);
    }

    #[test]
    fn tvd_matches_paper_formula() {
        // Paper example: {"0": 95, "1": 5} vs ideal {"0": 100}.
        let a = counts(&[(0, 95), (1, 5)]);
        let b = counts(&[(0, 100)]);
        assert!((tvd(&a, &b) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn tvd_symmetric() {
        let a = counts(&[(0, 70), (1, 30)]);
        let b = counts(&[(0, 20), (2, 80)]);
        assert!((tvd(&a, &b) - tvd(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn tvd_handles_unequal_totals() {
        let a = counts(&[(0, 50)]);
        let b = counts(&[(0, 500)]);
        assert_eq!(tvd(&a, &b), 0.0);
    }

    #[test]
    fn tvd_empty_counts() {
        let empty = counts(&[]);
        let full = counts(&[(0, 10)]);
        assert_eq!(tvd(&empty, &empty), 0.0);
        assert_eq!(tvd(&empty, &full), 1.0);
    }

    #[test]
    fn tvd_vs_ideal_is_miss_probability() {
        let a = counts(&[(5, 900), (2, 100)]);
        assert!((tvd_vs_ideal(&a, 5) - 0.1).abs() < 1e-12);
        assert_eq!(tvd_vs_ideal(&a, 9), 1.0);
    }

    #[test]
    fn accuracy_fraction() {
        let a = counts(&[(7, 974), (3, 26)]);
        assert!((accuracy(&a, 7) - 0.974).abs() < 1e-12);
        assert_eq!(accuracy(&counts(&[]), 0), 0.0);
    }

    #[test]
    fn tvd_range_invariant() {
        // TVD stays in [0,1] for assorted distributions.
        let cases = [
            counts(&[(0, 1)]),
            counts(&[(0, 3), (1, 7), (2, 11)]),
            counts(&[(15, 1000)]),
            counts(&[(0, 1), (1, 1), (2, 1), (3, 1)]),
        ];
        for a in &cases {
            for b in &cases {
                let d = tvd(a, b);
                assert!((0.0..=1.0).contains(&d));
            }
        }
    }
}

//! Order statistics over latency samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile (`q` in `0..=1`) of unsorted samples; `None`
/// for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The p90 latency, only when at least [`TAIL_MIN_BEYOND`] samples lie
/// strictly beyond its rank (so it needs ≥ 100 samples); `None` means a
/// run too short to speak for its tail.
pub fn p90_with_tail(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    let rank = (0.9 * n as f64).ceil() as usize;
    if n < 1 || n - rank < TAIL_MIN_BEYOND {
        return None;
    }
    quantile(samples, 0.9)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let run = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(p90_with_tail(&run(8)), None);
        assert_eq!(p90_with_tail(&run(99)), None, "rank 90 leaves 9 beyond");
        assert_eq!(p90_with_tail(&run(100)), Some(90.0));
        assert_eq!(p90_with_tail(&run(1000)), Some(900.0));
        assert_eq!(p90_with_tail(&[]), None);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[5.0, 1.0], 1.0), Some(5.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}

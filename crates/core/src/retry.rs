//! Retry/backoff policy for the job driver (`job::Driver`).
//!
//! Everything here is deliberately *deterministic*: the backoff jitter
//! is derived from a caller-supplied seed via splitmix64, never from
//! the clock or ambient entropy, so a failing serve run replays its
//! exact retry schedule under the same seed. The schedule is also
//! provably well-behaved:
//!
//! - **bounded**: every delay is `<= max_delay_ms`;
//! - **monotone**: delays never shrink from one attempt to the next
//!   (jitter only shaves *downward* from a doubling backbone, and
//!   `0.75 * 2b > b` keeps the shaved values ordered);
//! - **capped exactly**: once the doubling backbone reaches the cap,
//!   the delay is exactly `max_delay_ms` with no jitter.
//!
//! `max_strikes` is the crash-loop guard: a job fails once it has
//! `max_strikes` failed attempts in total (serve quarantines it then).

/// Default number of failed attempts (strikes) per job before it is
/// quarantined.
pub const DEFAULT_MAX_STRIKES: u32 = 3;

/// Default first-retry backoff in milliseconds.
pub const DEFAULT_BASE_DELAY_MS: u64 = 50;

/// Default backoff ceiling in milliseconds.
pub const DEFAULT_MAX_DELAY_MS: u64 = 2_000;

/// Bounded exponential backoff with deterministic seeded jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Failed attempts per job at which it fails (at least 1).
    pub max_strikes: u32,
    /// Backoff for the first retry (doubles per attempt).
    pub base_delay_ms: u64,
    /// Hard ceiling on any single backoff delay.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_strikes: DEFAULT_MAX_STRIKES,
            base_delay_ms: DEFAULT_BASE_DELAY_MS,
            max_delay_ms: DEFAULT_MAX_DELAY_MS,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (0-based), in milliseconds.
    ///
    /// The backbone is `base * 2^attempt`, saturating at
    /// `max_delay_ms`. Below the cap, seeded jitter shaves up to 25%
    /// off the backbone; at the cap the delay is exactly
    /// `max_delay_ms`. Same `(policy, seed, attempt)` always yields the
    /// same delay.
    pub fn delay_ms(&self, seed: u64, attempt: u32) -> u64 {
        // saturating_mul, not checked_shl: shifts only guard the shift
        // *amount*, silently truncating overflowed value bits.
        let backbone = if attempt >= 63 {
            self.max_delay_ms
        } else {
            self.base_delay_ms
                .saturating_mul(1u64 << attempt)
                .min(self.max_delay_ms)
        };
        if backbone >= self.max_delay_ms {
            return self.max_delay_ms;
        }
        // frac in [0, 1): 53 uniform bits of the mixed seed.
        let mixed = splitmix64(seed ^ (u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let frac = (mixed >> 11) as f64 / (1u64 << 53) as f64;
        let shave = ((backbone / 4) as f64 * frac) as u64;
        backbone - shave
    }

    /// The first `n` delays for `seed`, as one vector (for logging,
    /// reports, and the proptest suite).
    pub fn schedule(&self, seed: u64, n: u32) -> Vec<u64> {
        (0..n).map(|k| self.delay_ms(seed, k)).collect()
    }
}

/// splitmix64: a tiny, well-distributed 64-bit mixer. Used only to
/// derive jitter fractions from a seed — never from the clock.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        assert_eq!(p.schedule(7, 10), p.schedule(7, 10));
        // Different seeds jitter differently somewhere below the cap.
        assert_ne!(p.schedule(1, 6), p.schedule(2, 6));
    }

    #[test]
    fn schedule_is_monotone_and_bounded() {
        let p = RetryPolicy {
            max_strikes: 3,
            base_delay_ms: 10,
            max_delay_ms: 500,
        };
        for seed in 0..50u64 {
            let s = p.schedule(seed, 12);
            for w in s.windows(2) {
                assert!(w[0] <= w[1], "seed {seed}: schedule not monotone: {s:?}");
            }
            assert!(s.iter().all(|&d| d <= p.max_delay_ms), "{s:?}");
            assert_eq!(*s.last().unwrap(), p.max_delay_ms, "cap reached exactly");
        }
    }

    #[test]
    fn huge_attempt_counts_saturate_at_cap() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay_ms(3, 200), p.max_delay_ms);
    }
}

//! Property-based tests for the job driver's retry/backoff policy
//! (`tetrislock::retry`) in isolation.
//!
//! The serve fault harness depends on these invariants holding for
//! *every* configuration, not just the defaults: schedules must be a
//! pure function of `(policy, seed)` (replayable), and monotone and
//! bounded (no retry storms).

use proptest::prelude::*;
use tetrislock::retry::RetryPolicy;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn schedule_is_a_pure_function_of_policy_and_seed(
        seed in 0u64..u64::MAX,
        base in 1u64..1_000,
        max in 1_000u64..100_000,
        n in 1u32..24,
    ) {
        let policy = RetryPolicy { max_strikes: 3, base_delay_ms: base, max_delay_ms: max };
        prop_assert_eq!(policy.schedule(seed, n), policy.schedule(seed, n));
        // And per-attempt lookups agree with the vectorized schedule.
        let schedule = policy.schedule(seed, n);
        for (k, &d) in schedule.iter().enumerate() {
            prop_assert_eq!(d, policy.delay_ms(seed, k as u32));
        }
    }

    #[test]
    fn schedule_is_monotone_and_bounded(
        seed in 0u64..u64::MAX,
        base in 1u64..1_000,
        max in 1_000u64..100_000,
    ) {
        let policy = RetryPolicy { max_strikes: 3, base_delay_ms: base, max_delay_ms: max };
        let schedule = policy.schedule(seed, 64);
        for w in schedule.windows(2) {
            prop_assert!(w[0] <= w[1], "schedule shrank: {:?}", schedule);
        }
        for &d in &schedule {
            prop_assert!(d <= max, "delay {d} above the {max} ceiling");
        }
        // Jitter shaves at most 25% off the doubling backbone.
        prop_assert!(schedule[0] >= base - base / 4, "first delay under 0.75*base");
    }

    #[test]
    fn schedule_saturates_exactly_at_the_cap(
        seed in 0u64..u64::MAX,
        base in 1u64..1_000,
        max in 1_000u64..100_000,
    ) {
        let policy = RetryPolicy { max_strikes: 3, base_delay_ms: base, max_delay_ms: max };
        // By attempt 63 the shifted backbone has overflowed or passed
        // any cap, so the delay must be exactly the ceiling — with no
        // jitter applied at the cap.
        prop_assert_eq!(policy.delay_ms(seed, 63), max);
        prop_assert_eq!(policy.delay_ms(seed, 200), max);
    }

    #[test]
    fn different_seeds_jitter_somewhere(seed in 0u64..u64::MAX) {
        // Not an invariant for *every* pair, but two seeds agreeing on
        // all 8 sub-cap delays of the default policy would mean the
        // jitter is not actually keyed on the seed.
        let policy = RetryPolicy::default();
        let a = policy.schedule(seed, 6);
        let b = policy.schedule(seed ^ 0x5DEE_CE66_D1CE_1CEE, 6);
        prop_assert_ne!(a, b);
    }
}

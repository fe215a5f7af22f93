//! Capped exponential backoff with deterministic seeded jitter.
//!
//! The scheduler service's kill-and-retry path waits out this schedule
//! before a killed job re-enters the queue, and — crucially for
//! replayable runs — the wait is fully determined by
//! `(policy, stream, attempt)`. There is no hidden RNG state: the jitter
//! for attempt `k` of stream `s` is a pure function, so a retry schedule
//! can be recomputed offline and a run replays bit-for-bit from its
//! seed.
//!
//! The schedule is the classic one: delay for attempt `k` (1-based)
//! grows as `base * 2^(k-1)`, saturating at `cap`, then spread by a
//! symmetric jitter factor in `[1 - jitter, 1 + jitter]`. The cap is
//! what keeps long retry chains inside simulated-time budgets — an
//! uncapped doubling schedule exceeds any horizon after a few tens of
//! attempts — and the jitter is what keeps thousands of tenants from
//! retrying in lockstep after a correlated fault.

use crate::rng::Rng;
use crate::time::Dur;

/// Mix distinguishing words into one 64-bit key (SplitMix-style
/// finalizer per word): [`Backoff::delay`] seeds its jitter draw from
/// `(seed, stream, attempt)`.
fn mix64(words: &[u64]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &w in words {
        let mut z = h ^ w.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// Capped exponential backoff policy with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay before the first retry (attempt 1).
    pub base: Dur,
    /// Hard ceiling on any single delay, before jitter. Jitter may add
    /// at most `cap * jitter` on top.
    pub cap: Dur,
    /// Symmetric jitter fraction in `[0, 1)`: the exponential delay is
    /// scaled by a factor drawn uniformly from `[1 - jitter, 1 + jitter]`.
    /// Zero disables jitter entirely (no RNG is consulted).
    pub jitter: f64,
    /// Seed for the jitter streams; combined with the caller's stream
    /// key so distinct retriers decorrelate.
    pub seed: u64,
}

impl Backoff {
    /// The exponential delay for 1-based `attempt`, capped, no jitter.
    pub fn raw_delay(&self, attempt: u32) -> Dur {
        assert!(attempt >= 1, "attempt numbering is 1-based");
        let factor = 1u64.checked_shl(attempt - 1).unwrap_or(u64::MAX);
        Dur(self.base.nanos().saturating_mul(factor)).min(self.cap)
    }

    /// The jittered delay for 1-based `attempt` of `stream`. Pure in all
    /// three arguments: the same `(policy, stream, attempt)` always
    /// yields the same duration.
    pub fn delay(&self, stream: u64, attempt: u32) -> Dur {
        assert!(
            (0.0..1.0).contains(&self.jitter),
            "jitter fraction must be in [0, 1): {}",
            self.jitter
        );
        let d = self.raw_delay(attempt);
        if self.jitter == 0.0 {
            return d;
        }
        let mut r = Rng::new(mix64(&[self.seed, stream, attempt as u64]));
        let factor = 1.0 + self.jitter * (2.0 * r.next_f64() - 1.0);
        d.mul_f64(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_delay_doubles_then_caps() {
        let b = Backoff {
            base: Dur::from_millis(1),
            cap: Dur::from_millis(100),
            jitter: 0.0,
            seed: 0,
        };
        assert_eq!(b.raw_delay(1), Dur::from_millis(1));
        assert_eq!(b.raw_delay(2), Dur::from_millis(2));
        assert_eq!(b.raw_delay(5), Dur::from_millis(16));
        assert_eq!(b.raw_delay(8), Dur::from_millis(100), "capped");
        assert_eq!(b.raw_delay(60), Dur::from_millis(100));
        // Shift amounts past 63 must not wrap or panic.
        assert_eq!(b.raw_delay(200), Dur::from_millis(100));
    }

    #[test]
    fn zero_jitter_is_exact() {
        let b = Backoff {
            base: Dur::from_micros(10),
            cap: Dur::from_secs(1),
            jitter: 0.0,
            seed: 0,
        };
        for attempt in 1..20 {
            assert_eq!(b.delay(7, attempt), b.raw_delay(attempt));
        }
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let b = Backoff {
            base: Dur::from_millis(2),
            cap: Dur::from_millis(64),
            jitter: 0.25,
            seed: 42,
        };
        for stream in 0..50u64 {
            for attempt in 1..12 {
                let d = b.delay(stream, attempt);
                let raw = b.raw_delay(attempt).as_secs_f64();
                let lo = raw * (1.0 - 0.25) - 1e-9;
                let hi = raw * (1.0 + 0.25) + 1e-9;
                let s = d.as_secs_f64();
                assert!(s >= lo && s <= hi, "delay {s} outside [{lo}, {hi}]");
                assert_eq!(d, b.delay(stream, attempt), "pure function");
            }
        }
    }

    #[test]
    fn streams_and_seeds_decorrelate() {
        let b = Backoff {
            base: Dur::from_millis(1),
            cap: Dur::from_secs(1),
            jitter: 0.5,
            seed: 0x5EED,
        };
        let same = (0..100u64)
            .filter(|&s| b.delay(s, 3) == b.delay(s + 1, 3))
            .count();
        assert!(same < 5, "neighbouring streams mostly differ: {same}");
        let b2 = Backoff { seed: 1, ..b };
        assert_ne!(b.delay(9, 2), b2.delay(9, 2), "seed matters");
    }

    #[test]
    fn mix64_separates_words() {
        assert_ne!(mix64(&[1, 2]), mix64(&[2, 1]));
        assert_ne!(mix64(&[0]), mix64(&[0, 0]));
        assert_eq!(mix64(&[3, 4, 5]), mix64(&[3, 4, 5]));
    }
}

//! Deterministic arrival processes for the always-on query-serving
//! mode (`edonkey-semsearch::serve`).
//!
//! The Section 5 simulator spreads the static request stream uniformly
//! over a virtual span (`t * span / len` milli-days). The honeypot
//! study (PAPERS.md) shows live eDonkey query traffic is anything but
//! uniform: arrivals cluster at the front of each day and jitter around
//! their nominal instants. This module perturbs the uniform schedule
//! along exactly those two axes, statelessly:
//!
//! * **burst compression** squeezes every within-day offset toward the
//!   start of its day by `burst_permille / 1000` — the day structure is
//!   kept, the instantaneous arrival rate at the front of each day
//!   grows. `burst_permille = 0` is the identity, and compressions
//!   *nest*: a stronger burst never moves an arrival later, so queue
//!   pressure is mechanically monotone in the knob.
//! * **jitter** adds a uniform draw in `[0, jitter_md]` keyed by
//!   `(seed, querier, tick)` through the same splitmix64 scheme as
//!   [`crate::churn`] — per-querier network delay with no sequential
//!   RNG, so any subset of arrivals can be recomputed independently.
//!
//! Both knobs leave the *trace* untouched: which peer requests which
//! file, and which sharers can answer, stay pinned by the request
//! stream. Arrival times only decide queueing, latency and — under
//! churn — which offline windows a query walk observes.

/// The arrival perturbation knobs (identity by default).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrivalConfig {
    /// Seed for the jitter draws (domain-separated from every other
    /// decision stream by `SALT_JITTER`).
    pub seed: u64,
    /// Maximum forward jitter per arrival, in milli-days (0 = none).
    pub jitter_md: u32,
    /// Within-day compression toward the day start, in permille
    /// (0 = uniform, 999 = everything lands on the first milli of its
    /// day). Values ≥ 1000 are clamped to 999 so a day keeps at least
    /// one representable milli.
    pub burst_permille: u32,
}

impl ArrivalConfig {
    /// The unperturbed schedule: arrivals at their nominal instants.
    pub fn none() -> Self {
        ArrivalConfig {
            seed: 0,
            jitter_md: 0,
            burst_permille: 0,
        }
    }

    /// Bursty arrivals: within-day compression at `burst_permille`,
    /// jittered by up to `jitter_md` under `seed`.
    pub fn bursty(seed: u64, burst_permille: u32, jitter_md: u32) -> Self {
        ArrivalConfig {
            seed,
            jitter_md,
            burst_permille,
        }
    }
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Domain-separation salt for the jitter stream (same scheme as
/// `churn::SALT_SESSION`: one seed, uncorrelated decision streams).
const SALT_JITTER: u64 = 0xa441_7e5c_2b90_0001;

use crate::mix::splitmix64 as mix;

/// The stateless arrival oracle built from an [`ArrivalConfig`].
#[derive(Clone, Debug)]
pub struct ArrivalProcess {
    config: ArrivalConfig,
}

impl ArrivalProcess {
    /// Wraps a config; no precomputation, arrivals are pure hashing.
    pub fn new(config: ArrivalConfig) -> Self {
        ArrivalProcess { config }
    }

    /// The jitter draw for `(querier, tick)` in `[0, jitter_md]`.
    pub(crate) fn jitter(&self, querier: u32, tick: u64) -> u64 {
        if self.config.jitter_md == 0 {
            return 0;
        }
        let mut h = mix(self.config.seed ^ SALT_JITTER);
        h = mix(h ^ u64::from(querier));
        h = mix(h ^ tick);
        h % (u64::from(self.config.jitter_md) + 1)
    }

    /// Maps a nominal arrival instant (milli-days since the span start)
    /// to the perturbed one: burst compression within the day, then the
    /// `(seed, querier, tick)`-keyed jitter. `tick` is the nominal
    /// tick the serving engine derives from `base_md` — passing it in
    /// keeps the draw independent of the engine's tick width.
    pub fn arrival_md(&self, querier: u32, tick: u64, base_md: u64) -> u64 {
        let burst = u64::from(self.config.burst_permille.min(999));
        let compressed = if burst == 0 {
            base_md
        } else {
            let day = base_md / 1000;
            let milli = base_md % 1000;
            day * 1000 + milli * (1000 - burst) / 1000
        };
        compressed + self.jitter(querier, tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_config_never_moves_an_arrival() {
        let p = ArrivalProcess::new(ArrivalConfig::none());
        for base in [0u64, 1, 999, 1000, 13_999] {
            assert_eq!(p.arrival_md(7, base, base), base);
        }
    }

    #[test]
    fn jitter_is_bounded_deterministic_and_key_sensitive() {
        let p = ArrivalProcess::new(ArrivalConfig::bursty(42, 0, 50));
        let q = ArrivalProcess::new(ArrivalConfig::bursty(42, 0, 50));
        let mut moved = 0;
        for querier in 0..64u32 {
            for tick in 0..16u64 {
                let j = p.jitter(querier, tick);
                assert!(j <= 50);
                assert_eq!(j, q.jitter(querier, tick), "stateless draws must agree");
                if j != 0 {
                    moved += 1;
                }
            }
        }
        assert!(moved > 0, "a 50 md jitter cap must move something");
        let other = ArrivalProcess::new(ArrivalConfig::bursty(43, 0, 50));
        assert!(
            (0..64).any(|q| p.jitter(q, 3) != other.jitter(q, 3)),
            "the seed must matter"
        );
    }

    #[test]
    fn burst_compression_nests_and_keeps_the_day() {
        // Stronger bursts only move arrivals earlier, never across a
        // day boundary (jitter off so the compression is isolated).
        let levels = [0u32, 300, 600, 900, 999];
        for base in [0u64, 437, 999, 5_500, 13_999] {
            let mut prev = u64::MAX;
            for &b in &levels {
                let p = ArrivalProcess::new(ArrivalConfig::bursty(1, b, 0));
                let a = p.arrival_md(3, base, base);
                assert!(a <= base, "compression never delays");
                assert_eq!(a / 1000, base / 1000, "the day is preserved");
                assert!(a <= prev, "burst {b}: {a} must not exceed {prev}");
                prev = a;
            }
        }
    }

    #[test]
    fn clamps_degenerate_burst() {
        let p = ArrivalProcess::new(ArrivalConfig::bursty(1, 5_000, 0));
        assert_eq!(p.arrival_md(0, 999, 999), 0, "999-permille floor");
        assert_eq!(p.arrival_md(0, 1_999, 1_999), 1_000);
    }
}

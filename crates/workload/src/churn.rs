//! Deterministic peer-availability model: session churn, server
//! outages, and the query retry policy (DESIGN.md §9).
//!
//! The Section 5 simulator assumes every semantic neighbour answers
//! instantly and forever; real eDonkey populations are dominated by
//! short intermittent sessions ("Ten weeks in the life of an eDonkey
//! server", PAPERS.md). This module supplies the availability ground
//! truth the search layer is evaluated against:
//!
//! * [`ChurnSchedule`] — a seeded, **stateless** per-peer on/off
//!   schedule. Every decision is a splitmix64-style hash of
//!   `(seed, salt, peer, day)` — no RNG state is consumed, so a quiet
//!   schedule (`churn_permille == 0`, no outages) leaves a simulation
//!   byte-identical to one that never consulted it, and the drawn
//!   offline *window start* is rate-independent, so the offline set at
//!   a lower churn rate is a strict subset of the set at any higher
//!   rate: availability degrades mechanically monotonically.
//! * [`OfflineTable`] — one schedule seed's window starts, precomputed
//!   per `(day, peer)` for the simulator's per-probe checks.
//! * [`QueryPolicy`] — the querier's reaction to timeouts: an attempt
//!   budget, exponential backoff in simulated request time, and whether
//!   stale (timed-out) neighbour entries are evicted/probed.
//!
//! Time is measured in **milli-days** (md): 1 simulated day = 1000 md,
//! so a 25% churn rate is one 250 md (~6 h) offline window per peer per
//! day. Backoffs are md too — a retry can genuinely outlive the
//! neighbour's offline window.

/// Churn-model parameters. Integer rates keep `Eq` derivable and the
/// monotonicity argument exact.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ChurnConfig {
    /// Seed for every schedule draw (independent of the simulation
    /// seed: the same workload can be replayed under many schedules).
    pub seed: u64,
    /// Per-day offline window length in milli-days (0 = always online,
    /// ≥ 1000 = never online). 250 ≈ the 25%-churn regime.
    pub churn_permille: u32,
    /// Day offsets (from the start of the run) on which the fallback
    /// server is unreachable: search is pure peer-to-peer.
    pub outage_days: Vec<u32>,
}

impl ChurnConfig {
    /// No churn, no outages: consulting the schedule changes nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Session churn at the given rate, no server outages.
    pub fn with_rate(seed: u64, churn_permille: u32) -> Self {
        ChurnConfig {
            seed,
            churn_permille,
            outage_days: Vec::new(),
        }
    }

    /// True iff every availability question is statically "yes".
    pub fn is_quiet(&self) -> bool {
        self.churn_permille == 0 && self.outage_days.is_empty()
    }
}

/// Domain-separation salts: independent decision streams share one
/// seed without correlating (same scheme as `netsim::fault`).
const SALT_SESSION: u64 = 0x5e55_10f4_c4a9_0001;
const SALT_REPLACE: u64 = 0x5e55_10f4_c4a9_0002;

use crate::mix::splitmix64 as mix;

/// The stateless availability oracle built from a [`ChurnConfig`].
#[derive(Clone, Debug)]
pub struct ChurnSchedule {
    config: ChurnConfig,
}

impl ChurnSchedule {
    /// Wraps a config; no precomputation, the schedule is pure hashing.
    pub fn new(config: ChurnConfig) -> Self {
        ChurnSchedule { config }
    }

    /// The wrapped config.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// True iff the schedule can never say "offline" or "outage".
    pub fn is_quiet(&self) -> bool {
        self.config.is_quiet()
    }

    /// One deterministic draw on the decision stream `salt`.
    fn roll(&self, salt: u64, keys: [u64; 3]) -> u64 {
        let mut h = mix(self.config.seed ^ salt);
        for k in keys {
            h = mix(h ^ k);
        }
        h
    }

    /// Where peer `peer`'s offline window starts on `day`, in
    /// milli-days `[0, 1000)`. **Rate-independent**: the same
    /// `(seed, peer, day)` always yields the same start, so raising
    /// `churn_permille` only widens every window in place.
    pub fn session_offline_start(&self, peer: u32, day: u32) -> u32 {
        (self.roll(SALT_SESSION, [peer as u64, day as u64, 0]) % 1000) as u32
    }

    /// Is `peer` offline at `milli` (`[0, 1000)`) of `day`? The window
    /// is `[start, start + churn_permille)` wrapping within the day.
    pub fn offline(&self, peer: u32, day: u32, milli: u32) -> bool {
        self.offline_from(milli, || self.session_offline_start(peer, day))
    }

    /// The window rule of [`ChurnSchedule::offline`] around a window
    /// start that is only computed when the rate needs one.
    #[inline(always)]
    fn offline_from(&self, milli: u32, start: impl FnOnce() -> u32) -> bool {
        let rate = self.config.churn_permille;
        if rate == 0 {
            return false;
        }
        if rate >= 1000 {
            return true;
        }
        (milli + 1000 - start()) % 1000 < rate
    }

    /// Is the fallback server unreachable on `day`?
    pub fn server_out(&self, day: u32) -> bool {
        !self.config.outage_days.is_empty() && self.config.outage_days.contains(&day)
    }

    /// Deterministic index draw for staleness *replacement* (the Random
    /// policy refills evicted slots from the sharer pool). Stateless on
    /// purpose: the simulation's main RNG sequence must not move.
    pub fn replacement_index(&self, requester: u32, stale: u32, day: u32, len: usize) -> usize {
        debug_assert!(len > 0);
        let key = ((requester as u64) << 32) | stale as u64;
        (self.roll(SALT_REPLACE, [key, day as u64, 0]) % len as u64) as usize
    }
}

/// Every peer's offline-window start over the first days of one
/// schedule seed, precomputed: [`ChurnSchedule::offline`] with the
/// per-probe hash replaced by a load.
///
/// Window starts are rate-independent, so one table serves every churn
/// rate of its seed. Starts are stored day-major, one row of `n_peers`
/// per day: one request's probes all read the same day's row. Peers and
/// days the table does not cover fall back to the hash, which stays the
/// definition.
#[derive(Clone, Debug)]
pub struct OfflineTable {
    seed: u64,
    n_peers: usize,
    days: u32,
    starts: Vec<u16>,
}

impl OfflineTable {
    /// The window starts of peers `0..n_peers` on days `0..days` under
    /// schedule seed `seed`.
    pub fn new(seed: u64, n_peers: usize, days: u32) -> Self {
        let schedule = ChurnSchedule::new(ChurnConfig::with_rate(seed, 0));
        let mut starts = Vec::with_capacity(n_peers * days as usize);
        for day in 0..days {
            starts.extend(
                (0..n_peers as u32).map(|peer| schedule.session_offline_start(peer, day) as u16),
            );
        }
        OfflineTable {
            seed,
            n_peers,
            days,
            starts,
        }
    }

    /// The schedule seed the table was built for.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// [`ChurnSchedule::offline`] under `schedule`, which must share the
    /// table's seed, reading the window start from the table where it
    /// covers `(peer, day)`.
    #[inline(always)]
    pub fn offline(&self, schedule: &ChurnSchedule, peer: u32, day: u32, milli: u32) -> bool {
        debug_assert_eq!(
            schedule.config.seed, self.seed,
            "table built for another seed"
        );
        schedule.offline_from(milli, || {
            if day < self.days && (peer as usize) < self.n_peers {
                u32::from(self.starts[day as usize * self.n_peers + peer as usize])
            } else {
                schedule.session_offline_start(peer, day)
            }
        })
    }
}

/// The querier's reaction to neighbour timeouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryPolicy {
    /// Extra attempts after the first (0 = a timeout is final).
    pub max_retries: u32,
    /// Backoff before the first retry, in milli-days.
    pub backoff_base: u32,
    /// Multiplier applied per further retry.
    pub backoff_factor: u32,
    /// Evict/probe neighbour entries that timed out (per-policy
    /// reaction: see `AnyPolicy::handle_stale` in `edonkey-semsearch`).
    pub handle_stale: bool,
    /// Consecutive within-request timeouts before the staleness
    /// reaction fires (≤ 1 = react on the first timeout). Probation
    /// rather than a hair trigger: a peer caught once inside its daily
    /// offline window is *normal*; one that also misses the backed-off
    /// retry is worth reacting to.
    pub stale_after: u32,
}

impl QueryPolicy {
    /// The paper's implicit policy: one attempt, stale entries kept.
    pub fn no_retry() -> Self {
        QueryPolicy {
            max_retries: 0,
            backoff_base: 0,
            backoff_factor: 1,
            handle_stale: false,
            stale_after: 1,
        }
    }

    /// Retry with exponential backoff (60, 240, 960 md ≈ 1.4 h, 5.8 h,
    /// 23 h) and staleness handling after three consecutive timeouts.
    /// The backoffs are sized so the attempt sequence outlives any
    /// sub-day offline window, and the staleness threshold so that the
    /// first three attempt instants (t, t+60, t+300) cannot all fall
    /// inside one sub-300 md session window: the reaction targets peers
    /// gone across windows, not peers napping inside one — evicting on
    /// a shorter streak measurably purges lists faster than uploads
    /// refill them.
    pub fn retry_evict() -> Self {
        QueryPolicy {
            max_retries: 3,
            backoff_base: 60,
            backoff_factor: 4,
            handle_stale: true,
            stale_after: 3,
        }
    }

    /// Backoff in milli-days before retry number `attempt + 1`
    /// (`attempt` counts completed attempts, 0-based).
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let factor = (self.backoff_factor as u64).saturating_pow(attempt);
        (self.backoff_base as u64).saturating_mul(factor)
    }
}

impl Default for QueryPolicy {
    fn default() -> Self {
        Self::no_retry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_schedule_never_says_offline() {
        let s = ChurnSchedule::new(ChurnConfig::none());
        assert!(s.is_quiet());
        for peer in 0..50 {
            for day in 0..20 {
                for milli in [0, 250, 999] {
                    assert!(!s.offline(peer, day, milli));
                }
                assert!(!s.server_out(day));
            }
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = ChurnSchedule::new(ChurnConfig::with_rate(7, 250));
        let b = ChurnSchedule::new(ChurnConfig::with_rate(7, 250));
        let c = ChurnSchedule::new(ChurnConfig::with_rate(8, 250));
        let mut differs = false;
        for peer in 0..200 {
            for day in 0..10 {
                assert_eq!(
                    a.session_offline_start(peer, day),
                    b.session_offline_start(peer, day)
                );
                if a.session_offline_start(peer, day) != c.session_offline_start(peer, day) {
                    differs = true;
                }
            }
        }
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn offline_windows_nest_across_rates() {
        // Same seed, increasing rate: every (peer, day, milli) offline
        // at the lower rate is offline at the higher one.
        let lo = ChurnSchedule::new(ChurnConfig::with_rate(42, 100));
        let hi = ChurnSchedule::new(ChurnConfig::with_rate(42, 400));
        for peer in 0..100 {
            for day in 0..5 {
                for milli in (0..1000).step_by(13) {
                    if lo.offline(peer, day, milli) {
                        assert!(hi.offline(peer, day, milli));
                    }
                }
            }
        }
    }

    #[test]
    fn offline_fraction_matches_rate() {
        let s = ChurnSchedule::new(ChurnConfig::with_rate(3, 250));
        let mut offline = 0u64;
        let mut total = 0u64;
        for peer in 0..200 {
            for day in 0..4 {
                for milli in 0..1000 {
                    total += 1;
                    if s.offline(peer, day, milli) {
                        offline += 1;
                    }
                }
            }
        }
        // The window is exactly 250 md per (peer, day) by construction.
        assert_eq!(offline * 1000, total * 250);
    }

    #[test]
    fn extreme_rates() {
        let always = ChurnSchedule::new(ChurnConfig::with_rate(1, 1000));
        assert!(always.offline(0, 0, 0));
        let beyond = ChurnSchedule::new(ChurnConfig::with_rate(1, 5000));
        assert!(beyond.offline(9, 9, 999));
    }

    #[test]
    fn outages_are_day_scoped() {
        let mut config = ChurnConfig::with_rate(5, 0);
        config.outage_days = vec![3, 4];
        let s = ChurnSchedule::new(ChurnConfig {
            outage_days: vec![3, 4],
            ..config
        });
        assert!(!s.is_quiet(), "outage-only schedules are not quiet");
        assert!(!s.server_out(2));
        assert!(s.server_out(3));
        assert!(s.server_out(4));
        assert!(!s.server_out(5));
        // Churn stays off: the two knobs are independent.
        assert!(!s.offline(0, 3, 500));
    }

    #[test]
    fn replacement_draws_are_stable_and_in_range() {
        let s = ChurnSchedule::new(ChurnConfig::with_rate(11, 250));
        for len in [1usize, 2, 17, 1000] {
            for stale in 0..20 {
                let i = s.replacement_index(5, stale, 2, len);
                assert!(i < len);
                assert_eq!(i, s.replacement_index(5, stale, 2, len));
            }
        }
    }

    #[test]
    fn backoff_grows_geometrically() {
        let q = QueryPolicy::retry_evict();
        assert_eq!(q.backoff_for(0), 60);
        assert_eq!(q.backoff_for(1), 240);
        assert_eq!(q.backoff_for(2), 960);
        let none = QueryPolicy::no_retry();
        assert_eq!(none.max_retries, 0);
        assert_eq!(none.backoff_for(0), 0);
        assert_eq!(QueryPolicy::default(), QueryPolicy::no_retry());
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let q = QueryPolicy {
            max_retries: 100,
            backoff_base: u32::MAX,
            backoff_factor: u32::MAX,
            handle_stale: false,
            stale_after: 1,
        };
        assert_eq!(q.backoff_for(90), u64::MAX);
    }
}

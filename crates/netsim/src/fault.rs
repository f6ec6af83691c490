//! Deterministic fault injection for the crawl path.
//!
//! The paper's measurement infrastructure was shaped by failure: the
//! scan rate fell from 65 k to 35 k clients/day (Fig. 1), firewalled
//! and NATed clients never answered browse requests, and the
//! extrapolation stage exists only because caches were *missed* on some
//! days. This module makes those failures injectable — and, crucially,
//! **reproducible**:
//!
//! * a [`FaultConfig`] holds the rates (NAT, transient connect
//!   timeouts, mid-browse disconnects, server query drops, day-scoped
//!   churn bursts);
//! * a `FaultPlan` turns the config into a pure function of
//!   `(seed, fault kind, keys)` via a splitmix64-style hash, so the
//!   same seed always yields the same fault schedule — no RNG state is
//!   consumed, and a quiet plan leaves every other random stream
//!   bit-identical to a run without fault injection;
//! * each roll draws a uniform value *independent of the rate* and
//!   faults when the value falls below it, so the fault set at a lower
//!   rate is a **subset** of the fault set at any higher rate — this
//!   nesting is what makes "coverage degrades monotonically with the
//!   fault rate" a mechanical property rather than a statistical one;
//! * a [`RetryPolicy`] describes the crawler's counter-measures
//!   (per-peer retry budgets with exponential backoff in simulated
//!   seconds, browse timeouts, a dead-peer quarantine) and a
//!   [`CrawlHealth`] report accounts for every attempt so the emitted
//!   trace can be reconciled against it exactly.

/// Fault rates for one crawl run. All probabilities are per-roll and
/// independent; [`FaultConfig::none`] (the default) disables everything
/// and leaves the crawl byte-identical to a build without this module.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule (independent of the crawler and
    /// network seeds, so fault patterns can be varied in isolation).
    pub seed: u64,
    /// Probability a client sits behind a NAT the crawler cannot
    /// traverse: it publishes a routable address (unlike the firewalled
    /// population, which the discovery sweep already filters out) but
    /// every inbound connection times out.
    pub nat_prob: f64,
    /// Per-attempt probability of a transient connection timeout.
    pub transient_rate: f64,
    /// Per-browse probability of a mid-browse disconnect; the snapshot
    /// is truncated to the prefix transferred before the cut.
    pub disconnect_rate: f64,
    /// Per-query probability a server silently drops a `query-users`
    /// sweep reply.
    pub query_drop_rate: f64,
    /// Day offsets (from the trace start) with a churn burst.
    pub burst_days: Vec<u32>,
    /// Probability an online client is knocked offline on a burst day.
    pub burst_offline_prob: f64,
}

impl FaultConfig {
    /// No faults at all — the ideal-observer substrate of the seed.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            nat_prob: 0.0,
            transient_rate: 0.0,
            disconnect_rate: 0.0,
            query_drop_rate: 0.0,
            burst_days: Vec::new(),
            burst_offline_prob: 0.0,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

// Salts separating the fault kinds' hash streams.
const SALT_NAT: u64 = 0x6e61_7400;
const SALT_TRANSIENT: u64 = 0x7472_616e;
const SALT_DISCONNECT: u64 = 0x6469_7363;
const SALT_TRUNCATE: u64 = 0x7472_756e;
const SALT_QUERY: u64 = 0x7175_6572;
const SALT_BURST: u64 = 0x6275_7273;

use edonkey_workload::mix::splitmix64 as mix;

/// The fault schedule: [`FaultConfig`] plus the stateless rolls.
///
/// Every method is a pure function of the config — cloning a plan or
/// querying it in a different order cannot change any outcome.
#[derive(Clone, Debug)]
pub(crate) struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// Builds the schedule for a config.
    pub(crate) fn new(config: FaultConfig) -> Self {
        FaultPlan { config }
    }

    /// A uniform draw in `[0, 1)` from `(seed, salt, keys)` — rate
    /// independence is what nests fault sets across rates.
    fn roll(&self, salt: u64, keys: [u64; 3]) -> f64 {
        let mut h = mix(self.config.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for key in keys {
            h = mix(h ^ key.wrapping_add(0x2545_f491_4f6c_dd1d));
        }
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether a client is NATed for the whole crawl (never connectable).
    pub(crate) fn natted(&self, client_idx: usize) -> bool {
        self.roll(SALT_NAT, [client_idx as u64, 0, 0]) < self.config.nat_prob
    }

    /// Whether one browse attempt hits a transient connect timeout.
    pub(crate) fn connect_timeout(&self, client_idx: usize, day_offset: u32, attempt: u32) -> bool {
        self.roll(
            SALT_TRANSIENT,
            [client_idx as u64, u64::from(day_offset), u64::from(attempt)],
        ) < self.config.transient_rate
    }

    /// Whether an answered browse is cut mid-transfer.
    pub(crate) fn mid_browse_cut(&self, client_idx: usize, day_offset: u32, attempt: u32) -> bool {
        self.roll(
            SALT_DISCONNECT,
            [client_idx as u64, u64::from(day_offset), u64::from(attempt)],
        ) < self.config.disconnect_rate
    }

    /// How many files of a `full_len`-entry browse reply survive a
    /// mid-browse cut: a strict prefix, possibly empty.
    pub(crate) fn truncated_len(
        &self,
        full_len: usize,
        client_idx: usize,
        day_offset: u32,
        attempt: u32,
    ) -> usize {
        let u = self.roll(
            SALT_TRUNCATE,
            [client_idx as u64, u64::from(day_offset), u64::from(attempt)],
        );
        ((u * full_len as f64) as usize).min(full_len.saturating_sub(1))
    }

    /// Whether a server silently drops one `query-users` reply.
    pub(crate) fn query_dropped(
        &self,
        server_idx: usize,
        pattern_idx: usize,
        day_offset: u32,
        attempt: u32,
    ) -> bool {
        self.roll(
            SALT_QUERY,
            [
                (server_idx as u64) << 32 | pattern_idx as u64,
                u64::from(day_offset),
                u64::from(attempt),
            ],
        ) < self.config.query_drop_rate
    }

    /// Whether a churn burst knocks an (otherwise online) client
    /// offline on `day_offset`.
    pub(crate) fn burst_offline(&self, client_idx: usize, day_offset: u32) -> bool {
        self.config.burst_days.contains(&day_offset)
            && self.roll(SALT_BURST, [client_idx as u64, u64::from(day_offset), 0])
                < self.config.burst_offline_prob
    }
}

/// The crawler's fault counter-measures. Times are simulated seconds on
/// the daily crawl clock (the same clock the browse budget bounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts per peer per day beyond the first try.
    pub max_retries: u32,
    /// Backoff before the first retry, in crawl-clock seconds.
    pub backoff_base: u64,
    /// Backoff multiplier per further retry (exponential).
    pub backoff_factor: u64,
    /// Crawl-clock cost of an attempt that times out.
    pub browse_timeout: u64,
    /// Consecutive days on which *every* attempt at a peer timed out
    /// before the peer is quarantined. Quarantined peers get a single
    /// probe per day (no retries) and are paroled the moment one
    /// connects, so budget stops leaking into dead peers without
    /// abandoning the merely flaky ones.
    pub quarantine_after: u32,
}

impl RetryPolicy {
    /// The seed crawler's behaviour: one attempt, no quarantine, and a
    /// timeout costing exactly one browse slot — with a quiet
    /// [`FaultConfig`] this reproduces the pre-fault crawl verbatim.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base: 0,
            backoff_factor: 1,
            browse_timeout: 2,
            quarantine_after: u32::MAX,
        }
    }

    /// The robust crawler: three retries at 30 s/120 s/480 s backoff, a
    /// 6 s connect timeout, quarantine after three dead days.
    pub fn backoff() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: 30,
            backoff_factor: 4,
            browse_timeout: 6,
            quarantine_after: 3,
        }
    }

    /// The backoff before retry number `attempt + 1`, given that
    /// `attempt` attempts have already failed.
    pub(crate) fn backoff_for(&self, attempt: u32) -> u64 {
        self.backoff_base
            .saturating_mul(self.backoff_factor.saturating_pow(attempt))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::no_retry()
    }
}

/// Graceful-degradation counters for one crawl, reconcilable against
/// the emitted trace (`recorded` equals the trace's snapshot count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrawlHealth {
    /// Browse attempts, including retries.
    pub attempted: u64,
    /// Attempts whose connection succeeded (browse answered or denied).
    pub connected: u64,
    /// Attempts that timed out (NAT, transient fault, or offline peer).
    pub timeouts: u64,
    /// Attempts voided by a stale address-book entry (peer reinstalled).
    pub stale: u64,
    /// Attempts beyond the first per peer per day.
    pub retries: u64,
    /// Connections answered with a browse denial.
    pub denied: u64,
    /// Browses cut mid-transfer (a truncated snapshot was kept).
    pub truncated: u64,
    /// Observations recorded into the trace.
    pub recorded: u64,
    /// Successful browses of a peer already observed that day.
    pub duplicates: u64,
    /// Scheduled attempts dropped when a day's budget ran out.
    pub abandoned: u64,
    /// Peers ever placed in quarantine (cumulative; parole does not
    /// decrement).
    pub quarantined: u64,
    /// `query-users` sweeps dropped by servers during discovery.
    pub query_drops: u64,
}

impl CrawlHealth {
    /// Checks that the counters account for every attempt exactly.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.attempted != self.connected + self.timeouts + self.stale {
            return Err(format!(
                "attempted {} != connected {} + timeouts {} + stale {}",
                self.attempted, self.connected, self.timeouts, self.stale
            ));
        }
        if self.connected != self.recorded + self.duplicates + self.denied {
            return Err(format!(
                "connected {} != recorded {} + duplicates {} + denied {}",
                self.connected, self.recorded, self.duplicates, self.denied
            ));
        }
        if self.truncated > self.recorded + self.duplicates {
            return Err(format!(
                "truncated {} exceeds successful browses {}",
                self.truncated,
                self.recorded + self.duplicates
            ));
        }
        if self.retries > self.attempted {
            return Err(format!(
                "retries {} exceed attempts {}",
                self.retries, self.attempted
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed: 99,
            nat_prob: rate,
            transient_rate: rate,
            disconnect_rate: rate,
            query_drop_rate: rate,
            burst_days: vec![2],
            burst_offline_prob: rate,
        })
    }

    #[test]
    fn quiet_plan_never_faults() {
        let p = FaultPlan::new(FaultConfig::none());
        assert_eq!(p.config, FaultConfig::none());
        for i in 0..500 {
            assert!(!p.natted(i));
            assert!(!p.connect_timeout(i, 3, 1));
            assert!(!p.mid_browse_cut(i, 3, 1));
            assert!(!p.query_dropped(i, i, 3, 1));
            assert!(!p.burst_offline(i, 3));
        }
    }

    #[test]
    fn rolls_are_deterministic_and_seed_sensitive() {
        let a = plan(0.3);
        let b = plan(0.3);
        let c = FaultPlan::new(FaultConfig {
            seed: 100,
            ..a.config.clone()
        });
        let hits_a: Vec<bool> = (0..200).map(|i| a.connect_timeout(i, 5, 0)).collect();
        let hits_b: Vec<bool> = (0..200).map(|i| b.connect_timeout(i, 5, 0)).collect();
        let hits_c: Vec<bool> = (0..200).map(|i| c.connect_timeout(i, 5, 0)).collect();
        assert_eq!(hits_a, hits_b, "same seed, same schedule");
        assert_ne!(hits_a, hits_c, "different seed, different schedule");
        let on_target = hits_a.iter().filter(|&&h| h).count();
        assert!(
            (30..90).contains(&on_target),
            "rate 0.3 should hit roughly 60/200, got {on_target}"
        );
    }

    #[test]
    fn fault_sets_nest_across_rates() {
        let lo = plan(0.15);
        let hi = plan(0.45);
        for i in 0..300 {
            for day in 0..4 {
                if lo.connect_timeout(i, day, 0) {
                    assert!(
                        hi.connect_timeout(i, day, 0),
                        "low-rate faults must be a subset of high-rate faults"
                    );
                }
                if lo.natted(i) {
                    assert!(hi.natted(i));
                }
            }
        }
    }

    #[test]
    fn fault_kinds_use_independent_streams() {
        let p = plan(0.5);
        let nat: Vec<bool> = (0..200).map(|i| p.natted(i)).collect();
        let transient: Vec<bool> = (0..200).map(|i| p.connect_timeout(i, 0, 0)).collect();
        assert_ne!(nat, transient, "kinds must not share a hash stream");
    }

    #[test]
    fn truncation_yields_a_strict_prefix() {
        let p = plan(1.0);
        for i in 0..100 {
            let len = p.truncated_len(40, i, 2, 0);
            assert!(len < 40);
        }
        assert_eq!(p.truncated_len(0, 7, 2, 0), 0);
        assert_eq!(p.truncated_len(1, 7, 2, 0), 0, "a 1-file cut loses it");
    }

    #[test]
    fn burst_scopes_to_its_days() {
        let p = plan(1.0); // burst on day 2 only
        assert!((0..50).all(|i| !p.burst_offline(i, 1)));
        assert!((0..50).all(|i| p.burst_offline(i, 2)));
        assert!((0..50).all(|i| !p.burst_offline(i, 3)));
    }

    #[test]
    fn retry_policy_backoff_grows_exponentially() {
        let p = RetryPolicy::backoff();
        assert_eq!(p.backoff_for(0), 30);
        assert_eq!(p.backoff_for(1), 120);
        assert_eq!(p.backoff_for(2), 480);
        let none = RetryPolicy::no_retry();
        assert_eq!(none.backoff_for(5), 0);
        assert_eq!(none, RetryPolicy::default());
    }

    #[test]
    fn health_invariants_catch_mismatches() {
        let mut h = CrawlHealth {
            attempted: 10,
            connected: 6,
            timeouts: 3,
            stale: 1,
            recorded: 4,
            duplicates: 1,
            denied: 1,
            truncated: 2,
            retries: 3,
            ..Default::default()
        };
        assert_eq!(h.check_invariants(), Ok(()));
        h.timeouts = 4;
        assert!(h.check_invariants().is_err());
        h.timeouts = 3;
        h.denied = 2;
        assert!(h.check_invariants().is_err());
        h.denied = 1;
        h.truncated = 6;
        assert!(h.check_invariants().is_err());
    }
}

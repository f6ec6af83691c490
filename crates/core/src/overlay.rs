//! A live semantic overlay: the paper's announced next step.
//!
//! The conclusion of the paper: *"We have now started an implementation
//! of semantic links in an eDonkey client, MLdonkey, and will soon
//! report results on their efficiency."* This module is that system, in
//! simulation: instead of replaying a static trace (Section 5.1), peers
//! maintain their semantic lists **across days of real cache churn** —
//! every file a peer acquires on day `d` is a query issued against the
//! overlay as it existed that morning, answered by peers' *actual
//! day-`d` caches*, after which the uploader enters the requester's
//! list.
//!
//! This tests the claim behind Figs. 15–17 operationally: interest
//! proximity persists under ~5 replacements/client/day, so a neighbour
//! list learned yesterday keeps answering today. The per-day hit-rate
//! series shows the overlay warming up and then *staying* warm.

use edonkey_trace::model::FileRef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

use crate::neighbours::{NeighbourList, Peer, PolicyKind};
use crate::query::{QueryCtx, Request, Tables, WalkScratch};
use crate::sim::{AvailabilityConfig, SearchHealth, SimConfig};

/// Live-overlay parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlayConfig {
    /// Neighbour list length.
    pub list_size: usize,
    /// List maintenance policy.
    pub policy: PolicyKind,
    /// RNG seed (request order within a day, fallback uploader picks).
    pub seed: u64,
    /// Peer-availability regime (quiet by default). Churn draws and
    /// outage days are keyed by the day *offset* from the start of the
    /// history, not the absolute day number.
    pub availability: AvailabilityConfig,
}

impl OverlayConfig {
    /// LRU with the given list size.
    pub fn lru(list_size: usize) -> Self {
        OverlayConfig {
            list_size,
            policy: PolicyKind::Lru,
            seed: 0x007e_51a7,
            availability: AvailabilityConfig::none(),
        }
    }

    /// Runs under the given availability regime.
    pub fn with_availability(mut self, availability: AvailabilityConfig) -> Self {
        self.availability = availability;
        self
    }
}

/// One day of overlay operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverlayDayStats {
    /// Absolute day number.
    pub day: u32,
    /// Queries issued (files newly acquired that day by some peer).
    pub requests: u64,
    /// Queries answered by a semantic neighbour's live cache.
    pub hits: u64,
}

impl OverlayDayStats {
    /// The day's hit rate in `[0,1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.hits as f64 / self.requests as f64
    }
}

/// Runs the live overlay over a ground-truth cache history.
///
/// `days[d][p]` is peer `p`'s sorted cache on day `start_day + d` (the
/// `edonkey_workload::GroundTruth` layout). Day 0 only warms the lists
/// (its acquisitions have no "yesterday"); days `1..` each replay the
/// day's acquisitions as queries against the *previous evening's*
/// caches, then record the uploads into the lists.
///
/// # Examples
///
/// ```
/// use edonkey_semsearch::overlay::{simulate_overlay, OverlayConfig};
/// use edonkey_trace::model::FileRef;
///
/// // Peer 1 acquires on day 1 a file peer 0 already shared on day 0:
/// // that is one overlay query. (Same-day co-acquirers are both
/// // original contributors — queries run against *yesterday's* caches.)
/// let day0 = vec![vec![FileRef(0)], vec![FileRef(1)]];
/// let day1 = vec![vec![FileRef(0)], vec![FileRef(0), FileRef(1)]];
/// let stats = simulate_overlay(&[day0, day1], 100, 2, &OverlayConfig::lru(5));
/// assert_eq!(stats.len(), 2);
/// assert_eq!(stats[1].requests, 1);
/// ```
pub fn simulate_overlay(
    days: &[Vec<Vec<FileRef>>],
    start_day: u32,
    n_files: usize,
    config: &OverlayConfig,
) -> Vec<OverlayDayStats> {
    simulate_overlay_health(days, start_day, n_files, config).0
}

/// [`simulate_overlay`], also returning the availability ledger
/// (`health.reconcile(total_requests, total_hits, 0)` holds for every
/// config).
///
/// Under a non-quiet [`AvailabilityConfig`] the day's acquisitions are
/// spread over the day in milli-days; queries to offline list members
/// time out (with the per-policy staleness reaction), the querier
/// retries per its `QueryPolicy` — backoff can carry an attempt into
/// the next day's schedule — and only a list member queried online in
/// that attempt can answer (the batch simulator's query kernel).
/// Overlay misses during a server-outage day strand: the upload never
/// happens and nothing is recorded. (The *cache* still changes — the
/// ground-truth history is what it is — but the semantic link is lost.)
///
/// Under an adversarial plan the overlay behaves like the batch
/// simulator's: adversarial members swallow queries without answering
/// (wasted, not timed out), adversarial holders never answer, sybils
/// hijack record slots (keyed by a running acquisition number),
/// polluters poison fallback records, and the armed reputation defense
/// bans attackers out of the lists. Quiet plans change nothing, bit for
/// bit.
pub fn simulate_overlay_health(
    days: &[Vec<Vec<FileRef>>],
    start_day: u32,
    n_files: usize,
    config: &OverlayConfig,
) -> (Vec<OverlayDayStats>, SearchHealth) {
    let mut health = SearchHealth::default();
    let Some(first) = days.first() else {
        return (Vec::new(), health);
    };
    let n_peers = first.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sharer_pool: Vec<Peer> = first
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .map(|(p, _)| p as Peer)
        .collect();
    let mut policies: Vec<NeighbourList> = (0..n_peers as Peer)
        .map(|p| NeighbourList::new(config.policy, config.list_size, p, &sharer_pool, &mut rng))
        .collect();
    // The overlay runs the query kernel as a one-hop cell.
    let cell = SimConfig {
        list_size: config.list_size,
        policy: config.policy,
        two_hop: false,
        seed: config.seed,
        availability: config.availability.clone(),
    };
    let tables = Tables::new(std::slice::from_ref(&cell), n_peers);
    let ctx = QueryCtx::new(&cell, &tables, &sharer_pool, n_peers);
    let mut books = ctx.books(n_peers);
    let mut scratch = WalkScratch::default();
    // The overlay reports no per-peer load; the kernel's message tally
    // lands here unread.
    let mut messages = vec![0u64; n_peers];
    // Hijack draws are keyed by a running acquisition number — the
    // overlay's analogue of the batch simulator's stream position.
    let mut acq_no: u64 = 0;

    let mut stats = Vec::with_capacity(days.len());
    stats.push(OverlayDayStats {
        day: start_day,
        requests: 0,
        hits: 0,
    });

    // Yesterday's state: per-peer membership sets and per-file holders.
    let mut membership: Vec<HashSet<FileRef>> =
        first.iter().map(|c| c.iter().copied().collect()).collect();
    let mut holders: Vec<Vec<Peer>> = vec![Vec::new(); n_files];
    for (p, cache) in first.iter().enumerate() {
        for f in cache {
            holders[f.index()].push(p as Peer);
        }
    }

    for (offset, today) in days.iter().enumerate().skip(1) {
        let mut day_stats = OverlayDayStats {
            day: start_day + offset as u32,
            requests: 0,
            hits: 0,
        };
        // The day's acquisitions, shuffled across peers so no peer gets
        // systematic first-mover advantage.
        let mut acquisitions: Vec<(Peer, FileRef)> = Vec::new();
        for (p, cache) in today.iter().enumerate() {
            for &f in cache {
                if !membership[p].contains(&f) {
                    acquisitions.push((p as Peer, f));
                }
            }
        }
        for i in (1..acquisitions.len()).rev() {
            let j = rng.gen_range(0..=i);
            acquisitions.swap(i, j);
        }
        let day_len = acquisitions.len().max(1) as u64;

        for (j, &(peer, file)) in acquisitions.iter().enumerate() {
            let sources = &holders[file.index()];
            if sources.is_empty() {
                // Original contributor (file newly born or newly entering
                // circulation): nothing to query.
                continue;
            }
            day_stats.requests += 1;
            acq_no += 1;
            // Acquisition j of the day happens j/day_len through it;
            // backoff can carry a retry into the next day's schedule.
            let req = Request {
                querier: peer,
                file,
                key: acq_no,
                popularity: 0,
                sharers: sources,
                start_md: offset as u64 * 1000 + j as u64 * 1000 / day_len,
            };
            // A stranded miss records no link (and draws no RNG); the
            // fallback uploader is the overlay's own sequential draw.
            let served = ctx.step(
                &mut scratch,
                &req,
                &mut policies,
                peer as usize,
                books.get_mut(peer as usize),
                || sources[rng.gen_range(0..sources.len())],
                &mut messages,
                &mut health,
            );
            if served.is_some_and(|(walk, _)| walk.uploader.is_some()) {
                day_stats.hits += 1;
            }
        }

        // Roll the world forward to tonight's caches.
        for (p, cache) in today.iter().enumerate() {
            let today_set: HashSet<FileRef> = cache.iter().copied().collect();
            for &gone in membership[p].difference(&today_set) {
                holders[gone.index()].retain(|&h| h != p as Peer);
            }
            for &new in today_set.difference(&membership[p]) {
                holders[new.index()].push(p as Peer);
            }
            membership[p] = today_set;
        }
        stats.push(day_stats);
    }
    (stats, health)
}

/// The original (pre-availability) implementation, kept verbatim as a
/// correctness oracle: the zero-churn bit-identity tests compare
/// [`simulate_overlay`] under a quiet schedule against it.
pub fn simulate_overlay_reference(
    days: &[Vec<Vec<FileRef>>],
    start_day: u32,
    n_files: usize,
    config: &OverlayConfig,
) -> Vec<OverlayDayStats> {
    let Some(first) = days.first() else {
        return Vec::new();
    };
    let n_peers = first.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sharer_pool: Vec<Peer> = first
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .map(|(p, _)| p as Peer)
        .collect();
    let mut policies: Vec<NeighbourList> = (0..n_peers)
        .map(|p| {
            NeighbourList::new(
                config.policy,
                config.list_size,
                p as Peer,
                &sharer_pool,
                &mut rng,
            )
        })
        .collect();

    let mut stats = Vec::with_capacity(days.len());
    stats.push(OverlayDayStats {
        day: start_day,
        requests: 0,
        hits: 0,
    });

    // Yesterday's state: per-peer membership sets and per-file holders.
    let mut membership: Vec<HashSet<FileRef>> =
        first.iter().map(|c| c.iter().copied().collect()).collect();
    let mut holders: Vec<Vec<Peer>> = vec![Vec::new(); n_files];
    for (p, cache) in first.iter().enumerate() {
        for f in cache {
            holders[f.index()].push(p as Peer);
        }
    }

    for (offset, today) in days.iter().enumerate().skip(1) {
        let mut day_stats = OverlayDayStats {
            day: start_day + offset as u32,
            requests: 0,
            hits: 0,
        };
        // The day's acquisitions, shuffled across peers so no peer gets
        // systematic first-mover advantage.
        let mut acquisitions: Vec<(Peer, FileRef)> = Vec::new();
        for (p, cache) in today.iter().enumerate() {
            for &f in cache {
                if !membership[p].contains(&f) {
                    acquisitions.push((p as Peer, f));
                }
            }
        }
        for i in (1..acquisitions.len()).rev() {
            let j = rng.gen_range(0..=i);
            acquisitions.swap(i, j);
        }

        for &(peer, file) in &acquisitions {
            let sources = &holders[file.index()];
            if sources.is_empty() {
                // Original contributor (file newly born or newly entering
                // circulation): nothing to query.
                continue;
            }
            day_stats.requests += 1;
            let policy = &policies[peer as usize];
            let uploader = sources.iter().copied().find(|&s| policy.contains(s));
            let uploader = match uploader {
                Some(u) => {
                    day_stats.hits += 1;
                    u
                }
                None => sources[rng.gen_range(0..sources.len())],
            };
            // Every upload counts as rare (0 sources), as in the kernel.
            policies[peer as usize].record(uploader, 0);
        }

        // Roll the world forward to tonight's caches.
        for (p, cache) in today.iter().enumerate() {
            let today_set: HashSet<FileRef> = cache.iter().copied().collect();
            for &gone in membership[p].difference(&today_set) {
                holders[gone.index()].retain(|&h| h != p as Peer);
            }
            for &new in today_set.difference(&membership[p]) {
                holders[new.index()].push(p as Peer);
            }
            membership[p] = today_set;
        }
        stats.push(day_stats);
    }
    stats
}

/// Aggregates day stats into a single hit rate (warm-up days excluded).
pub fn steady_state_hit_rate(stats: &[OverlayDayStats], skip_days: usize) -> f64 {
    let tail = &stats[skip_days.min(stats.len())..];
    let requests: u64 = tail.iter().map(|s| s.requests).sum();
    let hits: u64 = tail.iter().map(|s| s.hits).sum();
    if requests == 0 {
        return 0.0;
    }
    hits as f64 / requests as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileRef {
        FileRef(i)
    }

    /// Two disjoint communities of `per` peers churning through their
    /// own file pools: each day every peer adds the next pool file.
    fn community_history_n(days: usize, per: u32) -> (Vec<Vec<Vec<FileRef>>>, usize) {
        let pool = 40u32;
        let mut history = Vec::new();
        for d in 0..days {
            let mut day = Vec::new();
            for community in 0..2u32 {
                for peer in 0..per {
                    // A sliding window over the community pool, offset per
                    // peer so yesterday's neighbour already has today's
                    // file.
                    let base = community * pool;
                    let lo = d as u32 + peer;
                    let cache: Vec<FileRef> = (lo..lo + 6).map(|k| f(base + (k % pool))).collect();
                    let mut cache = cache;
                    cache.sort_unstable_by_key(|fr| fr.0);
                    cache.dedup();
                    day.push(cache);
                }
            }
            history.push(day);
        }
        (history, 80)
    }

    /// The two-communities-of-4 shape most tests use.
    fn community_history(days: usize) -> (Vec<Vec<Vec<FileRef>>>, usize) {
        community_history_n(days, 4)
    }

    #[test]
    fn overlay_warms_up_and_answers() {
        let (history, n_files) = community_history(12);
        let stats = simulate_overlay(&history, 0, n_files, &OverlayConfig::lru(4));
        assert_eq!(stats.len(), 12);
        assert_eq!(stats[0].requests, 0, "day zero only warms up");
        let early: u64 = stats[1..3].iter().map(|s| s.hits).sum();
        let late_rate = steady_state_hit_rate(&stats, 6);
        assert!(late_rate > 0.5, "steady-state hit rate {late_rate}");
        let _ = early;
    }

    #[test]
    fn lists_stay_within_communities() {
        // With disjoint pools, no query can be answered across the
        // boundary, so hits imply community-local neighbours.
        let (history, n_files) = community_history(10);
        let stats = simulate_overlay(&history, 5, n_files, &OverlayConfig::lru(3));
        let total_requests: u64 = stats.iter().map(|s| s.requests).sum();
        let total_hits: u64 = stats.iter().map(|s| s.hits).sum();
        assert!(total_requests > 0);
        assert!(total_hits <= total_requests);
        assert_eq!(stats[3].day, 8, "absolute day numbering");
    }

    #[test]
    fn empty_and_static_histories() {
        assert!(simulate_overlay(&[], 0, 10, &OverlayConfig::lru(3)).is_empty());
        // A static world generates no requests after day 0.
        let day: Vec<Vec<FileRef>> = vec![vec![f(0)], vec![f(1)]];
        let stats = simulate_overlay(
            &[day.clone(), day.clone(), day],
            0,
            2,
            &OverlayConfig::lru(3),
        );
        assert!(stats.iter().all(|s| s.requests == 0));
        assert_eq!(steady_state_hit_rate(&stats, 0), 0.0);
    }

    #[test]
    fn departed_holders_are_not_hit() {
        // Peer 1 holds f9 on day 0 but drops it on day 1; peer 0 acquires
        // f9 on day 2. Holders must reflect the drop: no sources remain,
        // so no request is even counted (original-contributor case).
        let day0 = vec![vec![f(0)], vec![f(9)]];
        let day1 = vec![vec![f(0)], vec![f(1)]];
        let day2 = vec![vec![f(0), f(9)], vec![f(1)]];
        let stats = simulate_overlay(&[day0, day1, day2], 0, 10, &OverlayConfig::lru(3));
        assert_eq!(stats[2].requests, 0);
    }

    #[test]
    fn quiet_adversary_overlay_is_bit_identical_to_reference() {
        // A zero-fraction plan with the defense armed must not perturb
        // a single draw: the availability path still mirrors the
        // pre-availability oracle exactly.
        let (history, n_files) = community_history(12);
        let config = OverlayConfig::lru(4).with_availability(
            AvailabilityConfig::none()
                .with_adversary(crate::sim::AdversaryConfig::sybils(0xfeed, 0))
                .with_reputation(),
        );
        let (stats, health) = simulate_overlay_health(&history, 0, n_files, &config);
        assert_eq!(
            stats,
            simulate_overlay_reference(&history, 0, n_files, &config)
        );
        assert_eq!(health.wasted_queries, 0);
        assert_eq!(health.sybil_slots_held + health.polluted_acquisitions, 0);
    }

    #[test]
    fn adversary_degrades_overlay_and_defense_recovers() {
        // Wide communities and a short list: a hijacked slot displaces
        // an honest member, so capture hurts and a ban can recover. A
        // pure sybil attack keeps the loss recoverable — a free-riding
        // *holder* simply never answers, and no list change fixes that.
        let (history, n_files) = community_history_n(14, 10);
        let adversary = crate::sim::AdversaryConfig::sybils(11, 250);
        let honest = OverlayConfig::lru(3);
        let attacked = OverlayConfig::lru(3)
            .with_availability(AvailabilityConfig::none().with_adversary(adversary.clone()));
        let defended = OverlayConfig::lru(3).with_availability(
            AvailabilityConfig::none()
                .with_adversary(adversary)
                .with_reputation(),
        );
        let h = |cfg: &OverlayConfig| {
            let (stats, health) = simulate_overlay_health(&history, 0, n_files, cfg);
            let total_requests: u64 = stats.iter().map(|s| s.requests).sum();
            let total_hits: u64 = stats.iter().map(|s| s.hits).sum();
            health
                .reconcile(total_requests, total_hits, 0)
                .expect("overlay ledger reconciles under attack");
            (steady_state_hit_rate(&stats, 6), health)
        };
        let (honest_rate, honest_health) = h(&honest);
        let (attacked_rate, attacked_health) = h(&attacked);
        let (defended_rate, defended_health) = h(&defended);
        assert_eq!(honest_health.wasted_queries, 0);
        assert!(attacked_health.wasted_queries > 0, "refusals must cost");
        assert!(attacked_health.sybil_slots_held > 0, "sybils must capture");
        assert!(
            attacked_rate < honest_rate,
            "attack must hurt: honest {honest_rate} vs attacked {attacked_rate}"
        );
        assert!(
            defended_health.reputation_evictions > 0,
            "defense must fire"
        );
        assert!(
            defended_rate > attacked_rate,
            "defense must recover: attacked {attacked_rate} vs defended {defended_rate}"
        );
    }

    #[test]
    fn history_policy_works_too() {
        let (history, n_files) = community_history(12);
        let config = OverlayConfig {
            list_size: 4,
            policy: PolicyKind::History,
            seed: 1,
            availability: AvailabilityConfig::none(),
        };
        let stats = simulate_overlay(&history, 0, n_files, &config);
        assert!(steady_state_hit_rate(&stats, 6) > 0.4);
    }
}

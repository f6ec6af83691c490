//! Day-by-day evolution of the population and the ideal-observer trace.
//!
//! The paper's trace is *dynamic*: clients replace about five files per
//! day, new files keep appearing (100 k/day even after a month), and
//! popular files surge suddenly then decay slowly (Fig. 8). This module
//! reproduces those mechanisms:
//!
//! * every file has a **lifecycle multiplier**: zero before birth, a
//!   linear surge over `lifecycle_surge_days`, then exponential decay
//!   toward `lifecycle_floor`;
//! * every sharer performs `Poisson(daily_replacements)` cache
//!   replacements per day, drawing acquisitions from the day's
//!   lifecycle-reweighted interest/locality mixture and evicting its
//!   oldest entries (FIFO) — high turnover at constant cache size, as
//!   the paper observes;
//! * an **ideal observer** browses each client with a per-day success
//!   probability that decays over the trace, mimicking the crawler's
//!   bandwidth-induced coverage loss (65 k → 35 k clients/day, Fig. 1),
//!   and producing the missed days the extrapolation stage must fill.
//!
//! The full protocol-level crawler lives in `edonkey-netsim`; this module
//! is the fast path used by analyses that don't need the measurement
//! artefacts to arise mechanistically.

use edonkey_proto::md4::{Digest, Md4};
use edonkey_trace::compact::TraceArena;
use edonkey_trace::model::{FileRef, PeerId, TraceBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::collections::VecDeque;

use crate::config::WorkloadConfig;
use crate::population::Population;

/// The true day-by-day cache contents of every peer (before observation).
pub struct GroundTruth {
    /// Absolute day of the first entry of `days`.
    pub start_day: u32,
    /// `days[d][p]` is peer `p`'s cache on `start_day + d`, sorted.
    pub days: Vec<Vec<Vec<FileRef>>>,
}

/// The day-by-day simulator.
pub struct Dynamics<'a> {
    population: &'a Population,
    /// FIFO caches: front = oldest entry (next eviction victim).
    caches: Vec<VecDeque<FileRef>>,
    members: Vec<HashSet<FileRef>>,
    day: u32,
    /// Mean target cache size over sharers; per-peer churn scales with
    /// `target / mean` so that turnover is proportional to generosity
    /// (otherwise small sharers would accumulate huge observed unions
    /// and flatten the Fig. 7 concentration).
    mean_target: f64,
}

impl<'a> Dynamics<'a> {
    /// Initializes every sharer's cache by sampling its target size from
    /// the day-zero lifecycle-weighted distribution.
    pub fn new(population: &'a Population, rng: &mut impl Rng) -> Self {
        let day = population.config.start_day;
        let tables = population.reweighted_tables(|i| {
            lifecycle(&population.config, population.files[i].birth_day, day)
        });
        let mut caches = Vec::with_capacity(population.peers.len());
        let mut members = Vec::with_capacity(population.peers.len());
        for (idx, peer) in population.peers.iter().enumerate() {
            let cache = population.sample_cache(idx, peer.target_cache, &tables, rng);
            members.push(cache.iter().copied().collect::<HashSet<_>>());
            caches.push(cache.into_iter().collect::<VecDeque<_>>());
        }
        let sharers: Vec<f64> = population
            .peers
            .iter()
            .filter(|p| !p.is_free_rider())
            .map(|p| p.target_cache as f64)
            .collect();
        let mean_target = if sharers.is_empty() {
            1.0
        } else {
            sharers.iter().sum::<f64>() / sharers.len() as f64
        };
        Dynamics {
            population,
            caches,
            members,
            day,
            mean_target,
        }
    }

    /// Snapshot of all caches, each sorted.
    pub fn snapshot(&self) -> Vec<Vec<FileRef>> {
        self.caches
            .iter()
            .map(|c| {
                let mut v: Vec<FileRef> = c.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    /// Advances one day: every sharer performs its Poisson number of
    /// replacements against the day's lifecycle-weighted distribution.
    pub fn step(&mut self, rng: &mut impl Rng) {
        self.day += 1;
        let config = &self.population.config;
        let day = self.day;
        let tables = self
            .population
            .reweighted_tables(|i| lifecycle(config, self.population.files[i].birth_day, day));
        for (idx, peer) in self.population.peers.iter().enumerate() {
            if peer.is_free_rider() {
                continue;
            }
            let rate =
                config.daily_replacements * peer.target_cache as f64 / self.mean_target.max(1.0);
            let replacements = crate::dist::poisson(rate, rng);
            for _ in 0..replacements {
                // Acquire one new file (a few tries to find a non-member).
                let mut acquired = None;
                for _ in 0..12 {
                    let f = FileRef(self.population.sample_file(idx, &tables, rng));
                    if !self.members[idx].contains(&f) {
                        acquired = Some(f);
                        break;
                    }
                }
                let Some(f) = acquired else { continue };
                self.caches[idx].push_back(f);
                self.members[idx].insert(f);
                // Evict the oldest entry to hold the target size.
                if self.caches[idx].len() > peer.target_cache {
                    let evicted = self.caches[idx].pop_front().expect("cache is non-empty");
                    self.members[idx].remove(&evicted);
                }
            }
        }
    }

    /// Runs the configured number of days, returning the ground truth
    /// (one snapshot per day, including day zero).
    pub fn run(mut self, rng: &mut impl Rng) -> GroundTruth {
        let start_day = self.day;
        let mut days = Vec::with_capacity(self.population.config.days as usize);
        days.push(self.snapshot());
        for _ in 1..self.population.config.days {
            self.step(rng);
            days.push(self.snapshot());
        }
        GroundTruth { start_day, days }
    }
}

/// The lifecycle multiplier of a file born on `birth` as of `day`.
///
/// Zero before birth; linear surge to 1.0 over `lifecycle_surge_days`;
/// then exponential decay toward `lifecycle_floor`.
pub(crate) fn lifecycle(config: &WorkloadConfig, birth: u32, day: u32) -> f64 {
    if day < birth {
        return 0.0;
    }
    let age = (day - birth) as f64;
    if age < config.lifecycle_surge_days {
        // Surge: even a brand-new file has some weight.
        return (age + 1.0) / (config.lifecycle_surge_days + 1.0);
    }
    let past_peak = age - config.lifecycle_surge_days;
    let decayed = (-past_peak / config.lifecycle_decay_days).exp();
    decayed.max(config.lifecycle_floor)
}

/// The uid a client adopts after its `reinstalls`-th reinstall
/// (1-based), derived from the previous uid — deterministic and
/// collision-free. Shared by the protocol-level netsim client and the
/// ideal observer's alias model so both paths produce the same uid
/// chains.
pub fn reinstall_uid(previous: &Digest, reinstalls: u32) -> Digest {
    let mut h = Md4::new();
    h.update(previous.as_bytes());
    h.update(b"reinstall");
    h.update(&reinstalls.to_le_bytes());
    h.finalize()
}

/// Applies the ideal-observer model to a ground truth, producing a
/// [`TraceArena`] ready for the pipeline.
///
/// Every peer is browsed on each day with a probability interpolating
/// from `observe_prob_start` to `observe_prob_end` across the trace —
/// the crawler coverage decline of Fig. 1. Free-riders appear with empty
/// caches when observed (the crawl does see them; they just share
/// nothing).
///
/// With either alias knob set (`alias_dhcp_daily_prob`,
/// `alias_reinstall_daily_prob`), client identities evolve day by day
/// exactly as in the netsim network — DHCP re-addressing and reinstall
/// uid churn — so the trace contains the duplicate-IP/uid aliases the
/// filtering stage removes. Both knobs at zero take the original
/// alias-free path, untouched, with a byte-identical rng stream.
pub(crate) fn observe(
    population: &Population,
    truth: &GroundTruth,
    rng: &mut impl Rng,
) -> TraceArena {
    let config = &population.config;
    if config.alias_dhcp_daily_prob > 0.0 || config.alias_reinstall_daily_prob > 0.0 {
        return observe_aliased(population, truth, rng);
    }
    let mut builder = TraceBuilder::new();
    // Intern everything up front so FileRef/PeerId match the population
    // indices exactly (analyses rely on this alignment).
    for info in population.file_infos() {
        builder.intern_file(info);
    }
    for info in population.peer_infos() {
        builder.intern_peer(info);
    }
    let n_days = truth.days.len().max(1) as f64;
    for (offset, day_caches) in truth.days.iter().enumerate() {
        let day = truth.start_day + offset as u32;
        let t = offset as f64 / (n_days - 1.0).max(1.0);
        let p_observe = population.config.observe_prob_start
            + t * (population.config.observe_prob_end - population.config.observe_prob_start);
        for (peer_idx, cache) in day_caches.iter().enumerate() {
            if rng.gen_bool(p_observe.clamp(0.0, 1.0)) {
                builder.observe(day, PeerId(peer_idx as u32), cache.iter().copied());
            }
        }
    }
    builder.finish()
}

/// The alias-aware observer branch: identities churn (DHCP + reinstall)
/// before each day's observations.
///
/// Interning order keeps the analyses' alignment guarantee for original
/// identities: files and the day-zero peer identities are interned up
/// front, so `PeerId(i) == population index i` for every `i` below
/// `population.peers.len()`; reinstall aliases append *after* that
/// range as they are first observed.
fn observe_aliased(population: &Population, truth: &GroundTruth, rng: &mut impl Rng) -> TraceArena {
    let config = &population.config;
    let mut builder = TraceBuilder::new();
    for info in population.file_infos() {
        builder.intern_file(info);
    }
    let mut idents = population.peer_infos();
    for info in &idents {
        builder.intern_peer(info.clone());
    }
    let mut reinstalls = vec![0u32; idents.len()];
    // Fresh-IP counter above any static host index, mirroring the
    // netsim network's DHCP allocation plan.
    let mut dhcp_counter: u32 = 1 << 19;
    let n_days = truth.days.len().max(1) as f64;
    for (offset, day_caches) in truth.days.iter().enumerate() {
        let day = truth.start_day + offset as u32;
        let t = offset as f64 / (n_days - 1.0).max(1.0);
        let p_observe =
            config.observe_prob_start + t * (config.observe_prob_end - config.observe_prob_start);
        for (peer_idx, cache) in day_caches.iter().enumerate() {
            // Identity churn: skipped on day zero, like the network,
            // which boots with the population identities.
            if offset > 0 {
                if rng.gen_bool(config.alias_dhcp_daily_prob) {
                    let asn = idents[peer_idx].asn;
                    idents[peer_idx].ip = population.geography.ip_for(asn, dhcp_counter);
                    dhcp_counter += 1;
                }
                if rng.gen_bool(config.alias_reinstall_daily_prob) {
                    reinstalls[peer_idx] += 1;
                    idents[peer_idx].uid =
                        reinstall_uid(&idents[peer_idx].uid, reinstalls[peer_idx]);
                }
            }
            if rng.gen_bool(p_observe.clamp(0.0, 1.0)) {
                let peer = builder.intern_peer(idents[peer_idx].clone());
                builder.observe(day, peer, cache.iter().copied());
            }
        }
    }
    builder.finish()
}

/// One-call convenience: population → dynamics → ideal observation.
///
/// Returns the population (for ground-truth access) and the observed
/// trace. Deterministic in `config.seed`.
///
/// # Examples
///
/// ```
/// use edonkey_workload::{generate_trace, WorkloadConfig};
///
/// let mut config = WorkloadConfig::test_scale(3);
/// config.peers = 120;
/// config.files = 900;
/// config.days = 8;
/// config.cache_max = 300;
/// let (population, trace) = generate_trace(config);
/// assert_eq!(trace.peers.len(), population.peers.len());
/// assert_eq!(trace.days.len(), 8);
/// ```
pub fn generate_trace(config: WorkloadConfig) -> (Population, TraceArena) {
    let seed = config.seed;
    let population = Population::generate(config);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
    let truth = Dynamics::new(&population, &mut rng).run(&mut rng);
    let trace = observe(&population, &truth, &mut rng);
    (population, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;

    fn tiny_config() -> WorkloadConfig {
        let mut c = WorkloadConfig::test_scale(11);
        c.peers = 150;
        c.files = 1_200;
        c.topics = 30;
        c.days = 12;
        c.cache_max = 400;
        c
    }

    #[test]
    fn lifecycle_shape() {
        let c = tiny_config();
        // Before birth: zero.
        assert_eq!(lifecycle(&c, 340, 339), 0.0);
        // Surge: increasing.
        let l0 = lifecycle(&c, 340, 340);
        let l1 = lifecycle(&c, 340, 341);
        let l2 = lifecycle(&c, 340, 342);
        assert!(l0 > 0.0 && l0 < l1 && l1 < l2);
        // Peak then decay.
        let peak = lifecycle(&c, 340, 343);
        assert!(peak > lifecycle(&c, 340, 353));
        // Floor holds far out.
        assert!((lifecycle(&c, 340, 900) - c.lifecycle_floor).abs() < 1e-12);
    }

    #[test]
    fn caches_keep_target_size_with_turnover() {
        let config = tiny_config();
        let pop = Population::generate(config.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let mut dyn_sim = Dynamics::new(&pop, &mut rng);
        let before = dyn_sim.snapshot();
        for _ in 0..8 {
            dyn_sim.step(&mut rng);
        }
        let after = dyn_sim.snapshot();
        let mut turnover = 0usize;
        let mut stable_sizes = 0usize;
        for (idx, peer) in pop.peers.iter().enumerate() {
            assert_eq!(
                after[idx].len(),
                before[idx].len(),
                "cache size must be stable"
            );
            if peer.is_free_rider() {
                assert!(after[idx].is_empty());
                continue;
            }
            stable_sizes += 1;
            let before_set: HashSet<_> = before[idx].iter().collect();
            turnover += after[idx]
                .iter()
                .filter(|f| !before_set.contains(f))
                .count();
        }
        assert!(stable_sizes > 0);
        assert!(turnover > 0, "eight days of churn must replace something");
    }

    #[test]
    fn unborn_files_never_appear() {
        let config = tiny_config();
        let pop = Population::generate(config.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let truth = Dynamics::new(&pop, &mut rng).run(&mut rng);
        for (offset, day_caches) in truth.days.iter().enumerate() {
            let day = truth.start_day + offset as u32;
            for cache in day_caches {
                for f in cache {
                    assert!(
                        pop.files[f.index()].birth_day <= day,
                        "file {f} (born {}) observed on day {day}",
                        pop.files[f.index()].birth_day
                    );
                }
            }
        }
    }

    #[test]
    fn observation_produces_valid_trace_with_misses() {
        let config = tiny_config();
        let (pop, trace) = generate_trace(config.clone());
        assert_eq!(trace.check_invariants(), Ok(()));
        assert_eq!(trace.days.len(), config.days as usize);
        // Coverage must be partial (observe probabilities < 1).
        let total_obs = trace.snapshot_count();
        let max_possible = pop.peers.len() * config.days as usize;
        assert!(
            total_obs < max_possible,
            "observer must miss some snapshots"
        );
        assert!(
            total_obs > max_possible / 3,
            "observer must see most snapshots"
        );
    }

    #[test]
    fn coverage_declines_over_the_trace() {
        let mut config = tiny_config();
        config.peers = 400;
        config.observe_prob_start = 0.95;
        config.observe_prob_end = 0.40;
        let (_, trace) = generate_trace(config);
        let first = trace.days.first().unwrap().peer_count();
        let last = trace.days.last().unwrap().peer_count();
        assert!(
            last < first * 3 / 4,
            "coverage should drop markedly: first {first}, last {last}"
        );
    }

    #[test]
    fn generate_trace_is_deterministic() {
        let (_, a) = generate_trace(tiny_config());
        let (_, b) = generate_trace(tiny_config());
        assert_eq!(a, b);
    }

    #[test]
    fn reinstall_uid_chains_are_deterministic_and_collision_free() {
        let start = Digest([7; 16]);
        let a = reinstall_uid(&start, 1);
        let b = reinstall_uid(&start, 1);
        assert_eq!(a, b);
        let c = reinstall_uid(&a, 2);
        assert_ne!(a, start);
        assert_ne!(c, a);
        assert_ne!(reinstall_uid(&start, 2), a, "count is part of the input");
    }

    #[test]
    fn alias_churn_creates_filterable_duplicates() {
        let mut config = tiny_config();
        config.alias_dhcp_daily_prob = 0.02;
        config.alias_reinstall_daily_prob = 0.01;
        let (pop, trace) = generate_trace(config);
        assert_eq!(trace.check_invariants(), Ok(()));
        assert!(
            trace.peers.len() > pop.peers.len(),
            "reinstalls must append alias identities: {} vs {}",
            trace.peers.len(),
            pop.peers.len()
        );
        // The original identities keep the population alignment.
        for idx in [0usize, 1, pop.peers.len() - 1] {
            assert_eq!(trace.peers[idx].uid, pop.peers[idx].info.uid);
        }
        // Filtering now has real work to do: duplicate-IP sharing
        // aliases are dropped, so filtered < full (the Table 1 gap).
        let filtered = edonkey_trace::pipeline::filter(&trace);
        assert!(
            filtered.arena.peers.len() < trace.peers.len(),
            "filtered {} must be below full {}",
            filtered.arena.peers.len(),
            trace.peers.len()
        );
        // And it stays deterministic.
        let mut config2 = tiny_config();
        config2.alias_dhcp_daily_prob = 0.02;
        config2.alias_reinstall_daily_prob = 0.01;
        let (_, again) = generate_trace(config2);
        assert_eq!(again, trace);
    }

    use std::collections::HashSet;
}

//! The synthetic population: topics, files and peers, plus the
//! interest/locality-biased cache sampler.
//!
//! The generative model (DESIGN.md §4.4):
//!
//! * **Topics** carry a Zipf–Mandelbrot weight and a *home country* —
//!   content communities are language-bound, which is what makes
//!   geographic clustering emerge (Figs. 11/12).
//! * **Files** belong to one topic, inherit its home country, and get an
//!   intrinsic attractiveness `topic_weight × Pareto × kind_multiplier`.
//!   Heavy-tailed attractiveness yields the Zipf-like replica
//!   distribution of Fig. 5; the kind multiplier makes large video files
//!   dominate the popular tail (Fig. 6).
//! * **Peers** have a location, a free-rider flag, a Pareto cache-size
//!   target (the "top 15 % hold 75 %" skew of Fig. 7), and a handful of
//!   interest topics biased toward their own country's topics.
//! * **Cache draws** are a three-way mixture: with probability
//!   `interest_mix` from the peer's interest topics (semantic
//!   clustering), with `geo_mix` from home-country files (geographic
//!   clustering), otherwise from the global popularity distribution.

use edonkey_proto::md4::{Digest, Md4};
use edonkey_proto::query::FileKind;
use edonkey_trace::model::{FileInfo, FileRef, PeerInfo};
use edonkey_trace::parallel_map_init_threads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::mpsc;

use crate::config::WorkloadConfig;
use crate::dist::{
    cumulate, cumulative_from_weights, guide_for, sample_cumulative, LogNormal, Pareto,
    ZipfMandelbrot,
};
use crate::geo::Geography;
use crate::names::nickname;

/// An interest topic.
#[derive(Clone, Debug)]
pub struct Topic {
    /// Zipf–Mandelbrot popularity weight.
    pub weight: f64,
    /// Index of the topic's home country in the geography.
    pub home_country: usize,
}

/// A generated file with its latent workload attributes.
#[derive(Clone, Debug)]
pub struct GenFile {
    /// Trace-level metadata (hash, size, kind).
    pub info: FileInfo,
    /// The topic this file belongs to.
    pub topic: u32,
    /// Home country (inherited from the topic).
    pub home_country: usize,
    /// Intrinsic attractiveness (unnormalized sampling weight).
    pub attractiveness: f64,
    /// Absolute day the file first exists (may precede the trace).
    pub birth_day: u32,
}

/// A generated peer with its latent workload attributes.
#[derive(Clone, Debug)]
pub struct GenPeer {
    /// Trace-level metadata (uid, ip, country, AS).
    pub info: PeerInfo,
    /// Index of the peer's country in the geography.
    pub country_idx: usize,
    /// Nickname (used by the crawler's `query-users` sweeps).
    pub nick: String,
    /// Interest topics (distinct, non-empty for sharers).
    pub interests: Vec<u32>,
    /// Target cache size; `0` marks a free-rider.
    pub target_cache: usize,
}

impl GenPeer {
    /// Whether this peer never shares anything.
    pub(crate) fn is_free_rider(&self) -> bool {
        self.target_cache == 0
    }
}

/// The complete synthetic population plus precomputed sampling tables.
pub struct Population {
    /// The configuration that generated this population.
    pub config: WorkloadConfig,
    /// The geography used for locations and home countries.
    pub geography: Geography,
    /// All topics.
    pub topics: Vec<Topic>,
    /// All files, indexed by [`FileRef`].
    pub files: Vec<GenFile>,
    /// All peers, indexed by `PeerId`.
    pub peers: Vec<GenPeer>,

    // --- sampling tables (static attractiveness; dynamics rebuilds its
    // own lifecycle-weighted tables per day) ---
    topic_files: Vec<Vec<u32>>,
    topic_file_cum: Vec<Vec<f64>>,
    country_files: Vec<Vec<u32>>,
    country_file_cum: Vec<Vec<f64>>,
    global_cum: Vec<f64>,
}

impl Population {
    /// Generates a population deterministically from the config.
    ///
    /// # Panics
    ///
    /// Panics if the config does not [`WorkloadConfig::validate`].
    pub fn generate(config: WorkloadConfig) -> Self {
        Self::generate_with_threads(config, 1)
    }

    /// [`Population::generate`] with the file ids hashed on a helper
    /// thread beside the file draws (when `threads > 1`) and the
    /// interest-depth tables built on `threads` workers. Neither
    /// consumes the RNG and every table keeps its own summation order,
    /// so the population is the same for any thread count.
    pub(crate) fn generate_with_threads(config: WorkloadConfig, threads: usize) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid workload config: {msg}");
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let geography = Geography::paper();
        let topics = Self::gen_topics(&config, &geography, &mut rng);
        let files = Self::gen_files(&config, &topics, &mut rng, threads);
        let peers = Self::gen_peers(&config, &geography, &topics, &mut rng);
        Self::index(config, geography, topics, files, peers, threads)
    }

    fn gen_topics(config: &WorkloadConfig, geography: &Geography, rng: &mut StdRng) -> Vec<Topic> {
        let zipf = ZipfMandelbrot::new(config.topics, config.topic_zipf_s, config.topic_zipf_q);
        (0..config.topics)
            .map(|rank| Topic {
                weight: zipf.weight(rank),
                home_country: geography.sample_country(rng),
            })
            .collect()
    }

    /// Draws every file's attributes in order from `rng` and sets file
    /// `i`'s id to `digest_of(seed, "file", i)`: chunk by chunk on a
    /// helper thread while the next chunk is drawn when `threads > 1`,
    /// inline otherwise.
    fn gen_files(
        config: &WorkloadConfig,
        topics: &[Topic],
        rng: &mut StdRng,
        threads: usize,
    ) -> Vec<GenFile> {
        // Files spread across topics flatter than consumption: niche
        // topics carry deep catalogues (config.topic_assignment_skew).
        let skew = config.topic_assignment_skew;
        let topic_cum = cumulative_from_weights(
            &topics
                .iter()
                .map(|t| t.weight.powf(skew))
                .collect::<Vec<_>>(),
        );
        let topic_guide = guide_for(&topic_cum);
        let kind_cum = cumulative_from_weights(
            &config
                .kind_profiles
                .iter()
                .map(|k| k.frequency)
                .collect::<Vec<_>>(),
        );
        let size_samplers: Vec<LogNormal> = config
            .kind_profiles
            .iter()
            .map(|k| LogNormal::new(k.size_mu, k.size_sigma))
            .collect();
        let attraction = Pareto::new(1.0, config.file_attractiveness_alpha);
        let end_day = config.start_day + config.days;
        let pre_span = 180u32; // catalogue accumulated before the crawl
        let mut draw = || {
            let topic_idx = sample_cumulative(&topic_cum, &topic_guide, rng);
            let kind_idx = sample_cumulative(&kind_cum, &[], rng);
            let profile = &config.kind_profiles[kind_idx];
            let size = size_samplers[kind_idx].sample(rng).max(1.0) as u64;
            let birth_day = if rng.gen_bool(config.born_before_fraction) {
                config.start_day.saturating_sub(rng.gen_range(1..=pre_span))
            } else {
                rng.gen_range(config.start_day..end_day)
            };
            // Cap the heavy tail so one file cannot dwarf the system.
            let intrinsic = attraction.sample(rng).min(config.file_attractiveness_cap);
            GenFile {
                info: FileInfo {
                    // Hashed once the chunk is drawn, off the RNG stream.
                    id: Digest([0; 16]),
                    size,
                    kind: profile.kind,
                },
                topic: topic_idx as u32,
                home_country: topics[topic_idx].home_country,
                attractiveness: topics[topic_idx].weight * intrinsic * profile.attractiveness,
                birth_day,
            }
        };
        let seed = config.seed;
        let hash_ids = move |start: usize, chunk: &mut [GenFile]| {
            for (i, file) in (start..).zip(chunk) {
                file.info.id = digest_of(seed, "file", i as u64);
            }
        };
        let blank = GenFile {
            info: FileInfo {
                id: Digest([0; 16]),
                size: 0,
                kind: FileKind::Audio,
            },
            topic: 0,
            home_country: 0,
            attractiveness: 0.0,
            birth_day: 0,
        };
        let mut files = vec![blank; config.files];
        std::thread::scope(|scope| {
            let hasher = (threads > 1).then(|| {
                let (tx, rx) = mpsc::channel::<(usize, &mut [GenFile])>();
                scope.spawn(move || {
                    for (start, chunk) in rx {
                        hash_ids(start, chunk);
                    }
                });
                tx
            });
            for (c, chunk) in files.chunks_mut(ID_CHUNK).enumerate() {
                chunk.fill_with(&mut draw);
                match &hasher {
                    Some(tx) => tx.send((c * ID_CHUNK, chunk)).expect("id hasher alive"),
                    None => hash_ids(c * ID_CHUNK, chunk),
                }
            }
        });
        files
    }

    fn gen_peers(
        config: &WorkloadConfig,
        geography: &Geography,
        topics: &[Topic],
        rng: &mut StdRng,
    ) -> Vec<GenPeer> {
        // Interest selection tables: global, and restricted per country.
        // Selection is flattened relative to topic popularity so that
        // communities stay small (config.interest_selection_skew).
        let sel = config.interest_selection_skew;
        let topic_cum = cumulative_from_weights(
            &topics
                .iter()
                .map(|t| t.weight.powf(sel))
                .collect::<Vec<_>>(),
        );
        let mut country_topics: Vec<Vec<u32>> = vec![Vec::new(); geography.countries().len()];
        for (idx, topic) in topics.iter().enumerate() {
            country_topics[topic.home_country].push(idx as u32);
        }
        let country_topic_cum: Vec<Vec<f64>> = country_topics
            .iter()
            .map(|list| {
                cumulative_from_weights(
                    &list
                        .iter()
                        .map(|&t| topics[t as usize].weight.powf(sel))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();

        let cache_dist = Pareto::new(config.cache_min as f64, config.cache_alpha);
        let mut host_counters: HashMap<u32, u32> = HashMap::new();
        (0..config.peers)
            .map(|i| {
                let location = geography.sample_location(rng);
                let host = host_counters.entry(location.asn).or_insert(0);
                let ip = geography.ip_for(location.asn, *host);
                *host += 1;
                let free_rider = rng.gen_bool(config.free_rider_fraction);
                let target_cache = if free_rider {
                    0
                } else {
                    cache_dist.sample_clamped(config.cache_max as f64, rng) as usize
                };
                let k = rng.gen_range(config.interests_min..=config.interests_max);
                let mut interests = Vec::with_capacity(k);
                let mut guard = 0;
                while interests.len() < k && guard < 1000 {
                    guard += 1;
                    let local = &country_topics[location.country_idx];
                    let topic = if !local.is_empty() && rng.gen_bool(config.topic_locality) {
                        local[sample_cumulative(&country_topic_cum[location.country_idx], &[], rng)]
                    } else {
                        sample_cumulative(&topic_cum, &[], rng) as u32
                    };
                    if !interests.contains(&topic) {
                        interests.push(topic);
                    }
                }
                GenPeer {
                    info: PeerInfo {
                        uid: digest_of(config.seed, "peer", i as u64),
                        ip,
                        country: location.country,
                        asn: location.asn,
                    },
                    country_idx: location.country_idx,
                    nick: nickname(rng),
                    interests,
                    target_cache,
                }
            })
            .collect()
    }

    fn index(
        config: WorkloadConfig,
        geography: Geography,
        topics: Vec<Topic>,
        files: Vec<GenFile>,
        peers: Vec<GenPeer>,
        threads: usize,
    ) -> Self {
        // One pass takes the attractiveness column and counts the lists,
        // a second fills the presized lists in ascending file order.
        let mut global_cum = Vec::with_capacity(files.len());
        let mut topic_lens = vec![0usize; topics.len()];
        let mut country_lens = vec![0usize; geography.countries().len()];
        for file in &files {
            global_cum.push(file.attractiveness);
            topic_lens[file.topic as usize] += 1;
            country_lens[file.home_country] += 1;
        }
        let presized = |lens: Vec<usize>| -> Vec<Vec<u32>> {
            lens.into_iter().map(Vec::with_capacity).collect()
        };
        let mut topic_files = presized(topic_lens);
        let mut country_files = presized(country_lens);
        for (idx, file) in files.iter().enumerate() {
            topic_files[file.topic as usize].push(idx as u32);
            country_files[file.home_country].push(idx as u32);
        }
        // The lists gather their weights from the 8-byte column, not
        // from the 56-byte files.
        let column = &global_cum;
        let table = |mut weights: Vec<f64>| {
            cumulate(&mut weights);
            weights
        };
        // Interest draws flatten within-topic popularity: collectors dig
        // into their topics' tails (the source of rare-file clustering).
        let depth = config.interest_depth;
        let topic_file_cum = parallel_map_init_threads(
            &topic_files,
            threads,
            || (),
            |(), list| {
                table(
                    list.iter()
                        .map(|&f| column[f as usize].powf(depth))
                        .collect(),
                )
            },
        );
        let country_file_cum = country_files
            .iter()
            .map(|list| table(list.iter().map(|&f| column[f as usize]).collect()))
            .collect();
        cumulate(&mut global_cum);
        Population {
            config,
            geography,
            topics,
            files,
            peers,
            topic_files,
            topic_file_cum,
            country_files,
            country_file_cum,
            global_cum,
        }
    }

    /// Trace-level file metadata in [`FileRef`] order.
    pub(crate) fn file_infos(&self) -> Vec<FileInfo> {
        self.files.iter().map(|f| f.info.clone()).collect()
    }

    /// Trace-level peer metadata in `PeerId` order.
    pub(crate) fn peer_infos(&self) -> Vec<PeerInfo> {
        self.peers.iter().map(|p| p.info.clone()).collect()
    }

    /// Draws one file for `peer` from the interest/locality mixture.
    ///
    /// `reweight` optionally scales each file's attractiveness (the
    /// dynamics module passes the day's lifecycle multipliers); `None`
    /// uses static attractiveness.
    pub(crate) fn sample_file(
        &self,
        peer_idx: usize,
        tables: &SampleTables<'_>,
        rng: &mut impl Rng,
    ) -> u32 {
        let peer = &self.peers[peer_idx];
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll < self.config.interest_mix && !peer.interests.is_empty() {
            // Interest draw: uniform over own topics, weighted within.
            // Retry a few times in case the chosen topic has no files.
            for _ in 0..8 {
                let t = peer.interests[rng.gen_range(0..peer.interests.len())] as usize;
                if !tables.topic_files[t].is_empty() && *tables.topic_cum[t].last().unwrap() > 0.0 {
                    let i = sample_cumulative(&tables.topic_cum[t], &[], rng);
                    return tables.topic_files[t][i];
                }
            }
        } else if roll < self.config.interest_mix + self.config.geo_mix {
            let c = peer.country_idx;
            if !tables.country_files[c].is_empty() && *tables.country_cum[c].last().unwrap() > 0.0 {
                let i = sample_cumulative(&tables.country_cum[c], &tables.country_guide[c], rng);
                return tables.country_files[c][i];
            }
        }
        sample_cumulative(&tables.global_cum, &tables.global_guide, rng) as u32
    }

    /// The static (lifecycle-free) sampling tables, with guide indexes
    /// over the global and per-country tables (the draws that would
    /// otherwise binary-search megabytes of weights).
    pub(crate) fn static_tables(&self) -> SampleTables<'_> {
        SampleTables {
            topic_files: &self.topic_files,
            topic_cum: Cow::Borrowed(&self.topic_file_cum),
            country_files: &self.country_files,
            country_cum: Cow::Borrowed(&self.country_file_cum),
            country_guide: self.country_file_cum.iter().map(|c| guide_for(c)).collect(),
            global_cum: Cow::Borrowed(&self.global_cum),
            global_guide: guide_for(&self.global_cum),
        }
    }

    /// Builds lifecycle-reweighted tables for one day.
    ///
    /// `weight_of(file_idx)` returns the day's multiplier (0 for unborn
    /// files).
    pub(crate) fn reweighted_tables(&self, weight_of: impl Fn(usize) -> f64) -> SampleTables<'_> {
        let weights: Vec<f64> = self
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| f.attractiveness * weight_of(i))
            .collect();
        // Interest draws keep their flattened within-topic profile while
        // still following the day's lifecycle (new files surge inside
        // their communities first).
        let depth = self.config.interest_depth;
        let depth_weights: Vec<f64> = self
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| f.attractiveness.powf(depth) * weight_of(i))
            .collect();
        let table = |list: &[u32], w: &[f64]| -> Vec<f64> {
            cumulative_from_weights(&list.iter().map(|&f| w[f as usize]).collect::<Vec<_>>())
        };
        // Rebuilt every day for a few thousand draws: no guides.
        SampleTables {
            topic_files: &self.topic_files,
            topic_cum: Cow::Owned(
                self.topic_files
                    .iter()
                    .map(|l| table(l, &depth_weights))
                    .collect(),
            ),
            country_files: &self.country_files,
            country_cum: Cow::Owned(
                self.country_files
                    .iter()
                    .map(|l| table(l, &weights))
                    .collect(),
            ),
            country_guide: vec![Vec::new(); self.country_files.len()],
            global_cum: Cow::Owned(cumulative_from_weights(&weights)),
            global_guide: Vec::new(),
        }
    }

    /// Samples `target` distinct files for one peer.
    pub(crate) fn sample_cache(
        &self,
        peer_idx: usize,
        target: usize,
        tables: &SampleTables<'_>,
        rng: &mut impl Rng,
    ) -> Vec<FileRef> {
        let target = target.min(self.files.len());
        let mut cache: HashSet<u32> = HashSet::with_capacity(target);
        let mut attempts = 0usize;
        let max_attempts = 40 + target * 25;
        while cache.len() < target && attempts < max_attempts {
            attempts += 1;
            cache.insert(self.sample_file(peer_idx, tables, rng));
        }
        // Fallback for pathological saturation: uniform probing. This
        // keeps the promised cache size exactly, at a tiny popularity
        // bias cost in a regime (cache ≈ universe) the experiments never
        // enter.
        while cache.len() < target {
            cache.insert(rng.gen_range(0..self.files.len() as u32));
        }
        let mut cache: Vec<FileRef> = cache.into_iter().map(FileRef).collect();
        cache.sort_unstable();
        cache
    }
}

/// Borrowed or per-day sampling tables used by [`Population::sample_file`].
pub(crate) struct SampleTables<'a> {
    topic_files: &'a [Vec<u32>],
    topic_cum: Cow<'a, [Vec<f64>]>,
    country_files: &'a [Vec<u32>],
    country_cum: Cow<'a, [Vec<f64>]>,
    /// [`guide_for`] of each country table (empty: search it whole).
    country_guide: Vec<Vec<u32>>,
    global_cum: Cow<'a, [f64]>,
    /// [`guide_for`] of `global_cum` (empty: search it whole).
    global_guide: Vec<u32>,
}

/// Files per chunk [`Population::generate_with_threads`] hands to its
/// id-hashing helper.
const ID_CHUNK: usize = 4096;

/// Derives a stable 16-byte identity from `(seed, label, index)`.
fn digest_of(seed: u64, label: &str, index: u64) -> Digest {
    let mut h = Md4::new();
    h.update(&seed.to_le_bytes());
    h.update(label.as_bytes());
    h.update(&index.to_le_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;

    fn small() -> Population {
        Population::generate(WorkloadConfig::test_scale(42))
    }

    /// A full static cache (distinct files) for every peer, drawn from
    /// the static tables; free-riders get empty caches.
    fn static_caches(pop: &Population, rng: &mut impl Rng) -> Vec<Vec<FileRef>> {
        let tables = pop.static_tables();
        pop.peers
            .iter()
            .enumerate()
            .map(|(idx, peer)| pop.sample_cache(idx, peer.target_cache, &tables, rng))
            .collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.files.len(), b.files.len());
        assert_eq!(a.files[0].info.id, b.files[0].info.id);
        assert_eq!(a.peers[10].info.uid, b.peers[10].info.uid);
        assert_eq!(a.peers[10].interests, b.peers[10].interests);
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        assert_eq!(static_caches(&a, &mut rng_a), static_caches(&b, &mut rng_b));
    }

    #[test]
    fn population_build_is_thread_invariant() {
        // 16 000 files: three whole id chunks and a partial one.
        let config = WorkloadConfig::test_scale(42);
        let one = Population::generate_with_threads(config.clone(), 1);
        for threads in [2, 5] {
            let other = Population::generate_with_threads(config.clone(), threads);
            assert_eq!(other.file_infos(), one.file_infos(), "{threads} threads");
            assert_eq!(other.peer_infos(), one.peer_infos(), "{threads} threads");
            assert_eq!(other.topic_files, one.topic_files);
            assert_eq!(other.topic_file_cum, one.topic_file_cum);
            assert_eq!(other.country_files, one.country_files);
            assert_eq!(other.country_file_cum, one.country_file_cum);
            assert_eq!(other.global_cum, one.global_cum);
        }
        let id = |i: u64| digest_of(config.seed, "file", i);
        assert_eq!(one.files[0].info.id, id(0));
        assert_eq!(one.files[15_999].info.id, id(15_999));
    }

    #[test]
    fn free_rider_fraction_matches_config() {
        let pop = small();
        let free = pop.peers.iter().filter(|p| p.is_free_rider()).count();
        let frac = free as f64 / pop.peers.len() as f64;
        assert!((frac - 0.74).abs() < 0.05, "free-rider fraction {frac}");
    }

    #[test]
    fn identities_are_unique() {
        let pop = small();
        let file_ids: HashSet<_> = pop.files.iter().map(|f| f.info.id).collect();
        assert_eq!(file_ids.len(), pop.files.len());
        let uids: HashSet<_> = pop.peers.iter().map(|p| p.info.uid).collect();
        assert_eq!(uids.len(), pop.peers.len());
        let ips: HashSet<_> = pop.peers.iter().map(|p| p.info.ip).collect();
        assert_eq!(
            ips.len(),
            pop.peers.len(),
            "the base population has no IP aliases"
        );
    }

    #[test]
    fn interests_are_distinct_and_bounded() {
        let pop = small();
        for peer in &pop.peers {
            let set: HashSet<_> = peer.interests.iter().collect();
            assert_eq!(set.len(), peer.interests.len());
            assert!(peer.interests.len() >= pop.config.interests_min);
            assert!(peer.interests.len() <= pop.config.interests_max);
        }
    }

    #[test]
    fn caches_hit_their_targets() {
        let pop = small();
        let mut rng = StdRng::seed_from_u64(3);
        let caches = static_caches(&pop, &mut rng);
        for (peer, cache) in pop.peers.iter().zip(&caches) {
            assert_eq!(cache.len(), peer.target_cache.min(pop.files.len()));
            assert!(cache.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        }
    }

    #[test]
    fn interest_mix_biases_caches_toward_interests() {
        let pop = small();
        let mut rng = StdRng::seed_from_u64(5);
        let caches = static_caches(&pop, &mut rng);
        // Among sharers with decent caches, the fraction of cache files
        // in own interest topics must far exceed the topics' global share.
        let mut in_interest = 0usize;
        let mut total = 0usize;
        for (peer, cache) in pop.peers.iter().zip(&caches) {
            if cache.len() < 10 {
                continue;
            }
            for f in cache {
                total += 1;
                if peer.interests.contains(&pop.files[f.index()].topic) {
                    in_interest += 1;
                }
            }
        }
        let frac = in_interest as f64 / total as f64;
        assert!(
            frac > 0.35,
            "interest files fraction {frac}; expected well above baseline"
        );
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let pop = small();
        let mut rng = StdRng::seed_from_u64(7);
        let caches = static_caches(&pop, &mut rng);
        let mut counts: HashMap<FileRef, usize> = HashMap::new();
        for cache in &caches {
            for &f in cache {
                *counts.entry(f).or_insert(0) += 1;
            }
        }
        let mut pops: Vec<usize> = counts.values().copied().collect();
        pops.sort_unstable_by(|a, b| b.cmp(a));
        assert!(pops[0] >= 10, "most popular file has {} replicas", pops[0]);
        let singletons = pops.iter().filter(|&&c| c == 1).count();
        assert!(
            singletons as f64 / pops.len() as f64 > 0.4,
            "rare files must dominate the catalogue"
        );
    }

    #[test]
    fn reweighted_tables_respect_zero_weights() {
        let pop = small();
        // Kill every file except refs 0..100; samples must stay in range.
        let tables = pop.reweighted_tables(|i| if i < 100 { 1.0 } else { 0.0 });
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let f = pop.sample_file(0, &tables, &mut rng);
            assert!(f < 100, "sampled dead file {f}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid workload config")]
    fn invalid_config_panics() {
        let mut c = WorkloadConfig::test_scale(1);
        c.peers = 0;
        let _ = Population::generate(c);
    }
}

//! Cross-crate property-based tests (proptest): codec round-trips,
//! randomization invariants, pipeline monotonicity, CDF laws, neighbour
//! list invariants, and simulation accounting identities hold for *all*
//! inputs, not just the hand-picked ones.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use edonkey_repro::analysis::banded::{self, BandedOverlapConfig};
use edonkey_repro::analysis::semantic;
use edonkey_repro::proto::md4::Md4;
use edonkey_repro::proto::query::FileKind;
use edonkey_repro::semsearch::experiment::{self, sweep_cells_threads};
use edonkey_repro::semsearch::neighbours::{NeighbourList, PolicyKind, StaleReaction};
use edonkey_repro::semsearch::overlay::{
    simulate_overlay, simulate_overlay_reference, OverlayConfig,
};
use edonkey_repro::semsearch::serve::{serve_arena_threads, ArrivalConfig, ServeConfig};
use edonkey_repro::semsearch::sim::{
    simulate_arena_health_with_scratch, simulate_reference, DrawnLists, SimScratch,
};
use edonkey_repro::semsearch::{
    split_eligible, AdversaryConfig, AvailabilityConfig, IndexBackend, QueryPolicy, SearchHealth,
    SimConfig, SimResult,
};
use edonkey_repro::trace::compact::{CacheArena, DayArena, TraceArena};
use edonkey_repro::trace::io;
use edonkey_repro::trace::model::{CountryCode, FileInfo, FileRef, PeerId, PeerInfo, TraceBuilder};
use edonkey_repro::trace::pipeline::{
    extrapolate, extrapolate_arena_with_threads, filter, filter_arena, retain_peers,
    retain_peers_arena, sorted_intersection, sorted_intersection_len, ExtrapolateConfig,
};
use edonkey_repro::trace::randomize::{ArenaShuffler, Shuffler};
use edonkey_repro::workload::{
    stream, AdversaryPlan, ChurnConfig, ChurnSchedule, OfflineTable, RoleTable,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use edonkey_repro::netsim::{run_crawl_full, CrawlerConfig, FaultConfig, NetConfig, RetryPolicy};
use edonkey_repro::workload::{Population, WorkloadConfig};

// --- strategies -------------------------------------------------------

fn arb_backend() -> impl Strategy<Value = IndexBackend> {
    prop_oneof![
        Just(IndexBackend::SingleServer),
        Just(IndexBackend::Federated { n_servers: 4 }),
        Just(IndexBackend::Dht { replication_k: 2 }),
    ]
}

/// Quiet or `churn_permille` churn with retries and eviction, under a
/// 150‰ sybil + 150‰ polluter plan when `adversary` is set (its flag
/// arms the reputation defense).
fn availability(seed: u64, churn_permille: u32, adversary: Option<bool>) -> AvailabilityConfig {
    let mut avail = if churn_permille == 0 {
        AvailabilityConfig::none()
    } else {
        AvailabilityConfig::churn(seed ^ 0xc4, churn_permille)
            .with_query(QueryPolicy::retry_evict())
    };
    if let Some(defended) = adversary {
        let plan = AdversaryConfig::sybils(seed ^ 0xad5e, 150).with_polluters(150);
        avail = avail.with_adversary(plan);
        if defended {
            avail = avail.with_reputation();
        }
    }
    avail
}

/// Caches: up to 24 peers, each holding distinct refs below 64.
fn arb_caches() -> impl Strategy<Value = Vec<Vec<FileRef>>> {
    prop::collection::vec(prop::collection::btree_set(0u32..64, 0..12), 0..24).prop_map(|sets| {
        sets.into_iter()
            .map(|s| s.into_iter().map(FileRef).collect())
            .collect()
    })
}

/// Arbitrary valid traces: 0–11 files, 0–9 peers (IPs drawn from four
/// addresses so DHCP-style duplicates are common), 0–3 days with
/// arbitrary per-peer caches (often empty ⇒ free-riders). Covers the
/// degenerate shapes the codecs must handle: the empty trace, day-less
/// traces with populated tables, and single-day traces.
fn arb_trace() -> impl Strategy<Value = TraceArena> {
    let countries = ["FR", "DE", "ES", "US"];
    (
        prop::collection::vec((any::<u32>(), 0usize..64), 0..12),
        prop::collection::vec((0u32..4, 0usize..4, any::<u32>()), 0..10),
        prop::collection::vec(
            prop::collection::vec(
                (any::<bool>(), prop::collection::btree_set(0u32..16, 0..6)),
                0..10,
            ),
            0..4,
        ),
        prop::collection::btree_set(340u32..360, 0..4),
    )
        .prop_map(move |(files_raw, peers_raw, day_slots, day_numbers)| {
            let files: Vec<FileInfo> = files_raw
                .iter()
                .enumerate()
                .map(|(i, &(size, kind))| FileInfo {
                    id: Md4::digest(format!("prop-file-{i}").as_bytes()),
                    size: size as u64,
                    kind: FileKind::ALL[kind % FileKind::ALL.len()],
                })
                .collect();
            let peers: Vec<PeerInfo> = peers_raw
                .iter()
                .enumerate()
                .map(|(i, &(ip, country, asn))| PeerInfo {
                    uid: Md4::digest(format!("prop-peer-{i}").as_bytes()),
                    ip,
                    country: CountryCode::new(countries[country]),
                    asn,
                })
                .collect();
            let days: Vec<DayArena> = day_numbers
                .into_iter()
                .zip(day_slots)
                .map(|(day, slots)| {
                    let mut arena = DayArena::new(day);
                    let observed = slots.into_iter().take(peers.len()).enumerate();
                    for (peer, (_, raw)) in observed.filter(|(_, (seen, _))| *seen) {
                        arena.peers.push(peer as u32);
                        arena.entries.extend(
                            raw.into_iter()
                                .filter(|&f| (f as usize) < files.len())
                                .map(FileRef),
                        );
                        arena.offsets.push(arena.entries.len() as u32);
                    }
                    arena
                })
                .collect();
            TraceArena { files, peers, days }
        })
}

/// Trace-builder scripts: each step is `(kind, id, day, cache)`. Kinds
/// 0 and 1 intern file and peer identity `id % 12` / `id % 10` (a
/// repeat returns the existing id; peer identities share three IPs, so
/// aliases arrive mid-trace), kinds 2–6 record peer `id` (an interned
/// one, picked modulo the table) on `day` with `cache` (refs picked
/// modulo the file table, unsorted and repeating), and kind 7 takes
/// `day` midway.
fn arb_build_script() -> impl Strategy<Value = Vec<(u8, u8, u32, Vec<u8>)>> {
    prop::collection::vec(
        (
            0u8..8,
            any::<u8>(),
            340u32..347,
            prop::collection::vec(any::<u8>(), 0..8),
        ),
        0..80,
    )
}

/// Arbitrary small-but-varied workload configurations for the
/// streaming-generation twin property: enough peers/files/days to
/// exercise turnover, free-riders and empty days without making each
/// proptest case generate a full population twice for minutes.
fn arb_stream_config() -> impl Strategy<Value = WorkloadConfig> {
    (
        (any::<u64>(), 2usize..24, 8usize..96),
        (2usize..6, 1u32..7, 0u32..=8),
    )
        .prop_map(|((seed, peers, files), (topics, days, free_riders))| {
            let mut c = WorkloadConfig::test_scale(seed);
            c.peers = peers;
            c.files = files;
            c.topics = topics;
            c.days = days;
            c.free_rider_fraction = f64::from(free_riders) / 10.0;
            c.cache_max = c.cache_max.min(files as u64);
            c.cache_min = c.cache_min.min(c.cache_max);
            c.interests_max = c.interests_max.min(topics);
            c.interests_min = c.interests_min.min(c.interests_max);
            assert_eq!(c.validate(), Ok(()), "strategy must emit valid configs");
            c
        })
}

/// One tiny shared population for the fault-schedule properties (the
/// crawl itself is the system under test; generation is just setup).
fn crawl_population() -> &'static Population {
    static POP: std::sync::OnceLock<Population> = std::sync::OnceLock::new();
    POP.get_or_init(|| {
        let mut config = WorkloadConfig::test_scale(0xfa17);
        config.peers = 120;
        config.files = 1_000;
        config.topics = 24;
        config.days = 5;
        Population::generate(config)
    })
}

/// Arbitrary fault schedules: every rate in [0, 0.6], any subset of the
/// population's days as burst days, either retry policy.
fn arb_fault_config() -> impl Strategy<Value = FaultConfig> {
    let pct = || (0u32..=60).prop_map(|p| p as f64 / 100.0);
    (
        (any::<u64>(), pct(), pct(), pct(), pct()),
        (
            prop::collection::btree_set(0u32..5, 0..3),
            (0u32..=90).prop_map(|p| p as f64 / 100.0),
        ),
    )
        .prop_map(
            |((seed, nat, transient, disconnect, query), (bursts, burst_prob))| FaultConfig {
                seed,
                nat_prob: nat,
                transient_rate: transient,
                disconnect_rate: disconnect,
                query_drop_rate: query,
                burst_days: bursts.into_iter().collect(),
                burst_offline_prob: burst_prob,
            },
        )
}

fn arb_retry_policy() -> impl Strategy<Value = RetryPolicy> {
    prop_oneof![Just(RetryPolicy::no_retry()), Just(RetryPolicy::backoff())]
}

/// Every list policy; RareLRU with a source cutoff below `cutoffs`.
fn arb_policy(cutoffs: u32) -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::History),
        Just(PolicyKind::Random),
        (0..cutoffs).prop_map(|max_sources| PolicyKind::RareLru { max_sources }),
    ]
}

/// Up to `len` neighbour-list calls `(op, peer, arg)` on peers
/// `0..peers`: op 0 records `peer` with `arg` sources; ops 1 and 2
/// report `peer` stale or expel it, with `arg` as the replacement
/// (`None` from `peers` up, a fifth of the draws).
fn arb_list_calls(peers: u32, len: usize) -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    prop::collection::vec((0u8..3, 0..peers, 0..peers + peers / 4), 0..len)
}

/// What one [`arb_list_calls`] call returned.
#[derive(Debug, PartialEq)]
enum ListOutcome {
    Recorded(Option<u32>, Option<u32>),
    Stale(StaleReaction),
    Expelled(bool),
}

/// The list rules written the plain way — a `Vec` in priority order
/// and a map of History's `(count, last upload)` keys — as the oracle
/// of every [`NeighbourList`] call in [`check_list_run`].
struct ListModel {
    kind: PolicyKind,
    cap: usize,
    owner: u32,
    list: Vec<u32>,
    keys: HashMap<u32, (u64, u64)>,
    clock: u64,
}

impl ListModel {
    /// A list starting as `list` (a Random list's draw).
    fn new(kind: PolicyKind, cap: usize, owner: u32, list: Vec<u32>) -> Self {
        let keys = HashMap::new();
        ListModel {
            kind,
            cap,
            owner,
            list,
            keys,
            clock: 0,
        }
    }

    fn key(&self, peer: u32) -> (u64, u64) {
        self.keys.get(&peer).copied().unwrap_or((0, 0))
    }

    fn remove(&mut self, peer: u32) -> bool {
        let at = self.list.iter().position(|&p| p == peer);
        at.map(|i| self.list.remove(i)).is_some()
    }

    fn insert_ranked(&mut self, peer: u32) {
        let key = self.key(peer);
        let at = self.list.iter().position(|&p| self.key(p) < key);
        self.list.insert(at.unwrap_or(self.list.len()), peer);
    }

    fn record(&mut self, uploader: u32, sources: u32) -> (Option<u32>, Option<u32>) {
        match self.kind {
            PolicyKind::Random => return (None, None),
            PolicyKind::RareLru { max_sources } if sources > max_sources => return (None, None),
            PolicyKind::History => {
                self.clock += 1;
                let (count, _) = self.key(uploader);
                self.keys.insert(uploader, (count + 1, self.clock));
            }
            _ => {}
        }
        let lru = self.kind != PolicyKind::History;
        if self.remove(uploader) {
            if lru {
                self.list.insert(0, uploader);
            } else {
                self.insert_ranked(uploader);
            }
            return (None, None);
        }
        let mut evicted = None;
        if self.list.len() == self.cap {
            let tail = *self.list.last().expect("capacity is positive");
            if !lru && self.key(uploader) <= self.key(tail) {
                return (None, None);
            }
            evicted = self.list.pop();
        }
        if lru {
            self.list.insert(0, uploader);
        } else {
            self.insert_ranked(uploader);
        }
        (Some(uploader), evicted)
    }

    fn refill(&mut self, peer: u32, replacement: Option<u32>) -> StaleReaction {
        if !self.remove(peer) {
            return StaleReaction::Kept;
        }
        match replacement {
            Some(r) if r != self.owner && !self.list.contains(&r) => {
                self.list.push(r);
                StaleReaction::Replaced
            }
            _ => StaleReaction::Evicted,
        }
    }

    fn apply(&mut self, peers: u32, (op, peer, arg): (u8, u32, u32)) -> ListOutcome {
        let replacement = (arg < peers).then_some(arg);
        match (op, self.kind) {
            (0, _) => {
                let (added, removed) = self.record(peer, arg);
                ListOutcome::Recorded(added, removed)
            }
            (1 | 2, PolicyKind::Random) => {
                let reaction = self.refill(peer, replacement);
                match op {
                    1 => ListOutcome::Stale(reaction),
                    _ => ListOutcome::Expelled(reaction != StaleReaction::Kept),
                }
            }
            (1, PolicyKind::History) => {
                if !self.remove(peer) {
                    return ListOutcome::Stale(StaleReaction::Kept);
                }
                let (count, last) = self.key(peer);
                self.keys.insert(peer, (count / 2, last));
                self.insert_ranked(peer);
                ListOutcome::Stale(StaleReaction::Probed)
            }
            (1, _) => ListOutcome::Stale(match self.remove(peer) {
                true => StaleReaction::Evicted,
                false => StaleReaction::Kept,
            }),
            _ => {
                let member = self.remove(peer);
                if member {
                    self.keys.remove(&peer);
                }
                ListOutcome::Expelled(member)
            }
        }
    }
}

/// Applies one [`arb_list_calls`] call to `list`, checking it against
/// the `model` (which has taken the call and returned `expected`), what
/// the call itself promises, and the invariants every list keeps after
/// it.
fn check_list_call(
    list: &mut NeighbourList,
    model: &ListModel,
    expected: &ListOutcome,
    peers: u32,
    (op, peer, arg): (u8, u32, u32),
) -> Result<(), String> {
    let (kind, owner) = (model.kind, model.owner);
    let before = list.to_vec();
    let replacement = (arg < peers).then_some(arg);
    let members = |l: &NeighbourList| -> HashSet<u32> { l.neighbours().collect() };
    let was = members(list);
    let outcome = match op {
        0 => {
            let (added, removed) = list.record(peer, arg);
            let now = members(list);
            prop_assert_eq!(added.into_iter().collect::<HashSet<_>>(), &now - &was);
            prop_assert_eq!(removed.into_iter().collect::<HashSet<_>>(), &was - &now);
            match kind {
                PolicyKind::Random => prop_assert_eq!(list.to_vec(), before),
                PolicyKind::RareLru { max_sources } if arg > max_sources => {
                    prop_assert_eq!(list.to_vec(), before);
                }
                PolicyKind::History => {}
                _ => prop_assert_eq!(list.to_vec()[0], peer, "head is the latest uploader"),
            }
            ListOutcome::Recorded(added, removed)
        }
        1 => {
            let reaction = list.handle_stale(peer, replacement);
            match reaction {
                StaleReaction::Kept => prop_assert_eq!(list.to_vec(), before),
                StaleReaction::Probed => prop_assert_eq!(members(list), was),
                StaleReaction::Evicted => {
                    prop_assert_eq!(members(list), &was - &HashSet::from([peer]));
                }
                StaleReaction::Replaced => {
                    let mut expected = &was - &HashSet::from([peer]);
                    prop_assert!(expected.insert(replacement.expect("a replacement")));
                    prop_assert_eq!(members(list), expected);
                }
            }
            ListOutcome::Stale(reaction)
        }
        _ => {
            let listed = list.expel(peer, replacement);
            prop_assert_eq!(listed, was.contains(&peer));
            // Only a Random list can take the expelled peer straight back.
            prop_assert!(!list.contains(peer) || replacement == Some(peer));
            ListOutcome::Expelled(listed)
        }
    };
    prop_assert_eq!(&outcome, expected, "{:?} on {:?}", (op, peer, arg), before);
    let listed = list.to_vec();
    prop_assert_eq!(
        &listed,
        &model.list,
        "{:?} on {:?}",
        (op, peer, arg),
        before
    );
    prop_assert!(listed.len() <= list.capacity());
    prop_assert_eq!(listed.len(), list.len());
    prop_assert_eq!(members(list).len(), listed.len(), "duplicate-free");
    for p in 0..peers {
        prop_assert_eq!(list.contains(p), listed.contains(&p));
    }
    if kind == PolicyKind::Random {
        prop_assert!(!list.contains(owner), "a Random list never holds its owner");
    }
    Ok(())
}

/// One [`neighbour_list_invariants`] case over peers `0..peers`: the
/// `dirty` prefix of `calls` on a fresh list and on its array-indexed
/// twin (the pooled layout), both against [`ListModel`]; then both,
/// renewed in place, beside a fresh list over the tail, all against a
/// model started from the fresh list.
fn check_list_run(
    kind: PolicyKind,
    cap: usize,
    owner: u32,
    peers: u32,
    seed: u64,
    calls: &[(u8, u32, u32)],
    split: usize,
) -> Result<(), String> {
    let pool: Vec<u32> = (0..peers).collect();
    let mut list = NeighbourList::new(kind, cap, owner, &pool, &mut StdRng::seed_from_u64(seed));
    let mut arrayed = list.clone().with_peer_array(peers as usize);
    let mut model = ListModel::new(kind, cap, owner, list.to_vec());
    let (dirty, tail) = calls.split_at(split.min(calls.len()));
    for &call in dirty {
        let expected = model.apply(peers, call);
        for l in [&mut list, &mut arrayed] {
            check_list_call(l, &model, &expected, peers, call)?;
        }
    }
    let rng = || StdRng::seed_from_u64(!seed);
    let (mut rng_a, mut rng_b, mut rng_c) = (rng(), rng(), rng());
    let mut fresh = NeighbourList::new(kind, cap, owner, &pool, &mut rng_b);
    let mut renewed = list.clone();
    renewed.renew(kind, cap, owner, &pool, &mut rng_a);
    arrayed.renew(kind, cap, owner, &pool, &mut rng_c);
    let next = rng_b.next_u64();
    prop_assert_eq!(rng_a.next_u64(), next, "same draws");
    prop_assert_eq!(rng_c.next_u64(), next, "same draws, array-indexed");
    list.renew_drawn(kind, cap, owner, &fresh.to_vec());
    let mut model = ListModel::new(kind, cap, owner, fresh.to_vec());
    for l in [&renewed, &list, &arrayed] {
        prop_assert_eq!(l.to_vec(), fresh.to_vec());
    }
    for &call in tail {
        let expected = model.apply(peers, call);
        for l in [&mut fresh, &mut renewed, &mut list, &mut arrayed] {
            check_list_call(l, &model, &expected, peers, call)?;
        }
    }
    Ok(())
}

/// One cell through the sweep scheduler, on two threads.
fn cell(caches: &[Vec<FileRef>], n_files: usize, config: &SimConfig) -> (SimResult, SearchHealth) {
    let arena = CacheArena::from_caches(caches, n_files);
    sweep_cells_threads(&arena, std::slice::from_ref(config), 2).remove(0)
}

fn replica_histogram(caches: &[Vec<FileRef>]) -> HashMap<FileRef, usize> {
    let mut h = HashMap::new();
    for cache in caches {
        for &f in cache {
            *h.entry(f).or_insert(0) += 1;
        }
    }
    h
}

// --- properties -------------------------------------------------------

proptest! {
    /// The MD4 digest is invariant under arbitrary chunking.
    #[test]
    fn md4_chunking_invariance(
        data in prop::collection::vec(any::<u8>(), 0..512),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let expected = Md4::digest(&data);
        let mut boundaries: Vec<usize> =
            cuts.iter().map(|ix| ix.index(data.len() + 1)).collect();
        boundaries.push(0);
        boundaries.push(data.len());
        boundaries.sort_unstable();
        let mut hasher = Md4::new();
        for pair in boundaries.windows(2) {
            hasher.update(&data[pair[0]..pair[1]]);
        }
        prop_assert_eq!(hasher.finalize(), expected);
    }

    /// Randomization preserves peer generosity and file popularity
    /// exactly, and never duplicates a file within a cache.
    #[test]
    fn randomization_invariants(caches in arb_caches(), swaps in 0u64..2_000) {
        let sizes: Vec<usize> = caches.iter().map(Vec::len).collect();
        let popularity = replica_histogram(&caches);
        let mut shuffler = Shuffler::new(caches);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
        shuffler.run(swaps, &mut rng);
        let result = shuffler.into_caches();
        prop_assert_eq!(result.iter().map(Vec::len).collect::<Vec<_>>(), sizes);
        prop_assert_eq!(replica_histogram(&result), popularity);
        for cache in &result {
            let set: HashSet<_> = cache.iter().collect();
            prop_assert_eq!(set.len(), cache.len());
        }
    }

    /// Sorted intersection agrees with the set-based definition.
    #[test]
    fn intersection_matches_sets(
        a in prop::collection::btree_set(0u32..64, 0..20),
        b in prop::collection::btree_set(0u32..64, 0..20),
    ) {
        let va: Vec<FileRef> = a.iter().map(|&x| FileRef(x)).collect();
        let vb: Vec<FileRef> = b.iter().map(|&x| FileRef(x)).collect();
        let expected: Vec<FileRef> =
            a.intersection(&b).map(|&x| FileRef(x)).collect();
        prop_assert_eq!(sorted_intersection(&va, &vb), expected.clone());
        prop_assert_eq!(sorted_intersection_len(&va, &vb), expected.len());
    }

    /// Every neighbour list follows the plain-`Vec` model of its rules
    /// and stays within capacity and duplicate-free with `contains`
    /// agreeing, under any interleaving of records, staleness reactions
    /// and expulsions, each call doing what it reports; the
    /// array-indexed layout behaves exactly as the hashed one; and a
    /// dirtied list renewed in place equals a fresh one.
    #[test]
    fn neighbour_list_invariants(
        kind in arb_policy(4),
        cap in 1usize..8,
        owner in 0u32..16,
        seed in any::<u64>(),
        calls in arb_list_calls(16, 60),
        split in 0usize..60,
    ) {
        check_list_run(kind, cap, owner, 16, seed, &calls, split)?;
    }

    /// [`neighbour_list_invariants`] at the sizes the sweeps use — lists
    /// of up to 64 over peers 0..256 and up to 400 calls — where slots
    /// are freed mid-list and reused, and long chains relink.
    #[test]
    fn neighbour_list_invariants_at_sweep_sizes(
        kind in arb_policy(320),
        cap in 1usize..65,
        owner in 0u32..256,
        seed in any::<u64>(),
        calls in arb_list_calls(256, 400),
        split in 0usize..400,
    ) {
        check_list_run(kind, cap, owner, 256, seed, &calls, split)?;
    }

    /// Simulation accounting identity: every (peer, file) pair becomes
    /// exactly one of {seed, hit, miss}, and loads only land on peers
    /// that can be neighbours.
    #[test]
    fn simulation_accounting(caches in arb_caches(), list_size in 1usize..6) {
        let n_files = 64;
        let total: u64 = caches.iter().map(|c| c.len() as u64).sum();
        let (result, _) = cell(&caches, n_files, &SimConfig::lru(list_size));
        prop_assert_eq!(result.requests + result.contributor_seeds, total);
        prop_assert!(result.hits() <= result.requests);
        for (peer, &load) in result.messages_per_peer.iter().enumerate() {
            if caches[peer].is_empty() {
                prop_assert_eq!(load, 0, "free-riders never receive queries");
            }
        }
    }

    /// The arena-backed simulator is exactly the legacy simulator: same
    /// caches, same seed ⇒ identical `SimResult`, for every policy and
    /// with scratch buffers reused across configs.
    #[test]
    fn arena_simulate_equals_legacy(caches in arb_caches(), seed in 0u64..1_000) {
        let n_files = 64;
        let arena = CacheArena::from_caches(&caches, n_files);
        let mut scratch = SimScratch::new();
        for config in [
            SimConfig::lru(4).with_seed(seed),
            SimConfig::history(3).with_seed(seed),
            SimConfig::random(3).with_seed(seed),
            SimConfig::rare_lru(4, 2).with_seed(seed),
            SimConfig::lru(2).with_seed(seed).with_two_hop(),
        ] {
            let legacy = simulate_reference(&caches, n_files, &config);
            let arena_result = simulate_arena_health_with_scratch(&arena, &config, &mut scratch).0;
            prop_assert_eq!(&legacy, &arena_result, "config {:?}", config);
        }
    }

    /// The parallel arena overlap engine reproduces the sequential seed
    /// path exactly for 1, 2 and 8 worker threads, including holder caps.
    #[test]
    fn arena_overlap_equals_sequential(
        caches in arb_caches(),
        max_holders in prop_oneof![Just(None), (2usize..8).prop_map(Some)],
    ) {
        let n_files = 64;
        let seq = semantic::overlap_counts(&caches, n_files, |_| true, max_holders);
        let arena = CacheArena::from_caches(&caches, n_files);
        let mut expected: Vec<_> = seq.iter().collect();
        expected.sort_unstable();
        for threads in [1usize, 2, 8] {
            let par = semantic::overlap_counts_arena_with_threads(
                &arena, |_| true, max_holders, threads,
            );
            let mut got: Vec<_> = par.iter().collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "threads {}", threads);
        }
    }

    /// Every valid trace — including the empty trace, day-less traces,
    /// free-riders and duplicate-IP peers — survives the binary columnar
    /// codec byte-for-byte: decode(encode(t)) == t.
    #[test]
    fn binary_codec_round_trips(trace in arb_trace()) {
        prop_assert_eq!(trace.check_invariants(), Ok(()));
        let bytes = io::to_bin(&trace);
        let decoded = io::from_bin(&bytes).expect("decode own binary encoding");
        prop_assert_eq!(decoded, trace);
    }

    /// The JSON codec round-trips the same trace family losslessly.
    #[test]
    fn json_codec_round_trips(trace in arb_trace()) {
        let decoded = io::from_json(&io::to_json(&trace)).expect("decode own JSON");
        prop_assert_eq!(decoded, trace);
    }

    /// Crawls under arbitrary fault schedules never panic, reconcile
    /// their health ledger with the emitted trace, are bit-identical
    /// when re-run with the same seed, and the (possibly truncated)
    /// trace round-trips every codec.
    #[test]
    fn faulted_crawls_are_total_and_deterministic(
        fault in arb_fault_config(),
        retry in arb_retry_policy(),
    ) {
        let config = CrawlerConfig {
            outage_days: vec![],
            patterns: 2_000,
            fault,
            retry,
            ..Default::default()
        }
        .budget_for(120, 1.5, 1.5);
        let (trace, report) =
            run_crawl_full(crawl_population(), NetConfig::default(), config.clone());
        prop_assert_eq!(trace.check_invariants(), Ok(()));
        prop_assert_eq!(report.health.check_invariants(), Ok(()));
        prop_assert_eq!(report.health.recorded as usize, trace.snapshot_count());
        let (trace2, report2) =
            run_crawl_full(crawl_population(), NetConfig::default(), config);
        prop_assert_eq!(&report, &report2, "same seed, same report");
        let bytes = io::to_bin(&trace);
        prop_assert_eq!(&bytes, &io::to_bin(&trace2), "same seed, same bytes");
        prop_assert_eq!(io::from_bin(&bytes).expect("binary"), trace.clone());
        prop_assert_eq!(io::from_json(&io::to_json(&trace)).expect("json"), trace);
    }

    /// Churn schedules are pure functions of `(seed, peer, day)`: two
    /// instances of the same config agree everywhere, and the offline
    /// windows of a lower churn rate nest inside those of any higher
    /// rate (same window start, shorter duration).
    #[test]
    fn churn_schedule_deterministic_and_nested(
        seed in any::<u64>(),
        peer in 0u32..200,
        day in 0u32..200,
        r1 in 0u32..=1000,
        r2 in 0u32..=1000,
    ) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let a = ChurnSchedule::new(ChurnConfig::with_rate(seed, lo));
        let b = ChurnSchedule::new(ChurnConfig::with_rate(seed, lo));
        let c = ChurnSchedule::new(ChurnConfig::with_rate(seed, hi));
        prop_assert_eq!(
            a.session_offline_start(peer, day),
            b.session_offline_start(peer, day)
        );
        for milli in (0..1000u32).step_by(29) {
            prop_assert_eq!(a.offline(peer, day, milli), b.offline(peer, day, milli));
            if a.offline(peer, day, milli) {
                prop_assert!(
                    c.offline(peer, day, milli),
                    "rate {} offline at {} but rate {} online",
                    lo, milli, hi
                );
            }
        }
    }

    /// The tables the kernel walk reads agree with the stateless draws
    /// they replace: offline-window starts at every rate, days and peers
    /// past the table included; roles, refusals, hijacks and pollution
    /// for any plan, peers past the table included; and Random lists
    /// drawn with a peer-stamp array equal one Random policy renewed per
    /// peer from the same generator — for pools no larger than the list
    /// and pools whose distinct peers run out before the guard does.
    #[test]
    fn schedule_tables_match_the_hashes(
        seed in any::<u64>(),
        n_peers in 1usize..40,
        days in 0u32..5,
        permilles in (0u32..1100, 0u32..1100, 0u32..1100),
        list_size in 1usize..9,
        pool in prop::collection::vec(0u32..48, 0..24),
    ) {
        let table = OfflineTable::new(seed, n_peers, days);
        for rate in [0u32, 1, 250, 999, 1000, 5000] {
            let schedule = ChurnSchedule::new(ChurnConfig::with_rate(seed, rate));
            for peer in 0..n_peers as u32 + 3 {
                for day in 0..days + 2 {
                    for milli in (0..1000u32).step_by(37).chain([999]) {
                        prop_assert_eq!(
                            table.offline(&schedule, peer, day, milli),
                            schedule.offline(peer, day, milli),
                            "rate {} peer {} day {} milli {}", rate, peer, day, milli
                        );
                    }
                }
            }
        }

        let plan = AdversaryPlan::new(
            AdversaryConfig::sybils(seed, permilles.0)
                .with_polluters(permilles.1)
                .with_freeriders(permilles.2),
        );
        let roles = RoleTable::new(plan.clone(), n_peers);
        for peer in 0..n_peers as u32 + 3 {
            prop_assert_eq!(roles.role(peer), plan.role(peer));
            prop_assert_eq!(roles.answers_nothing(peer), plan.answers_nothing(peer));
        }
        for key in 0..16u64 {
            let querier = (key as u32) % n_peers as u32;
            prop_assert_eq!(
                roles.hijacker(querier, key, n_peers),
                plan.hijacker(querier, key, n_peers)
            );
            let exposure = (key % 4) as u32;
            prop_assert_eq!(
                roles.polluter(key, exposure, n_peers),
                plan.polluter(key, exposure, n_peers)
            );
        }

        let one_peer = vec![3; list_size + 2];
        for pool in [pool, one_peer] {
            let mut stamped = StdRng::seed_from_u64(seed);
            let lists = DrawnLists::draw(&mut stamped, list_size, &pool, n_peers);
            let mut hashed = StdRng::seed_from_u64(seed);
            let mut policy = NeighbourList::from_drawn(PolicyKind::Random, list_size, 0, &[]);
            for owner in 0..n_peers as u32 {
                policy.renew(PolicyKind::Random, list_size, owner, &pool, &mut hashed);
                prop_assert_eq!(lists.list(owner), &policy.to_vec()[..], "owner {}", owner);
            }
            prop_assert_eq!(stamped.next_u64(), hashed.next_u64());
        }
    }

    /// A quiet availability regime — churn 0, no outages — leaves the
    /// request-replay simulator bit-identical to the pre-availability
    /// oracle, even with retries and staleness handling fully armed.
    #[test]
    fn quiet_availability_matches_reference(caches in arb_caches(), seed in 0u64..500) {
        let n_files = 64;
        let arena = CacheArena::from_caches(&caches, n_files);
        let mut scratch = SimScratch::new();
        let quiet = AvailabilityConfig::none().with_query(QueryPolicy::retry_evict());
        for config in [
            SimConfig::lru(4).with_seed(seed),
            SimConfig::history(3).with_seed(seed),
            SimConfig::random(3).with_seed(seed),
            SimConfig::rare_lru(4, 2).with_seed(seed),
            SimConfig::lru(2).with_seed(seed).with_two_hop(),
        ] {
            let legacy = simulate_reference(&caches, n_files, &config);
            let armed = config.with_availability(quiet.clone());
            let got = simulate_arena_health_with_scratch(&arena, &armed, &mut scratch).0;
            prop_assert_eq!(&legacy, &got, "config {:?}", armed);
        }
    }

    /// The split-cell sweep scheduler is bit-identical to the
    /// whole-cell oracle for any worker count, list size, policy (Random
    /// included: its lists are drawn up front), churn rate, adversary
    /// plan (defended or not) and zero-outage index backend — and, on
    /// quiet honest cells, to the legacy reference simulator. This is
    /// the invariant the parallel sweeps rest on: partitioning a cell's
    /// queriers across workers must never change a single result bit.
    #[test]
    fn split_sweep_equals_oracle_for_any_thread_count(
        caches in arb_caches(),
        list_size in 1usize..8,
        churn_permille in prop_oneof![Just(0u32), Just(150), Just(450)],
        adversary in prop_oneof![Just(None), Just(Some(false)), Just(Some(true))],
        backend in arb_backend(),
        seed in 0u64..200,
    ) {
        let n_files = 64;
        let arena = CacheArena::from_caches(&caches, n_files);
        let avail = availability(seed, churn_permille, adversary).with_backend(backend);
        let configs: Vec<SimConfig> = [
            SimConfig::lru(list_size),
            SimConfig::history(list_size),
            SimConfig::rare_lru(list_size, 2),
            SimConfig::random(list_size),
        ]
        .into_iter()
        .map(|c| c.with_seed(seed).with_availability(avail.clone()))
        .collect();
        prop_assert!(configs.iter().all(split_eligible));
        let mut scratch = SimScratch::new();
        let expected: Vec<_> = configs
            .iter()
            .map(|c| simulate_arena_health_with_scratch(&arena, c, &mut scratch))
            .collect();
        for threads in [1usize, 2, 3, 8] {
            let got = sweep_cells_threads(&arena, &configs, threads);
            prop_assert_eq!(&got, &expected, "threads {}", threads);
        }
        if churn_permille == 0 && adversary.is_none() {
            for (config, (result, _)) in configs.iter().zip(&expected) {
                let reference = simulate_reference(&caches, n_files, config);
                prop_assert_eq!(&reference, result, "config {:?}", config);
            }
        }
    }

    /// The serving engine with unbounded queues and identity arrivals
    /// is bit-identical to the batch simulator — result, health ledger
    /// *and* final neighbour lists — for every policy family (Random
    /// included: the engine replays the batch policy-construction
    /// draws), quiet or churned, honest or attacked (defended or not),
    /// for any worker count. This is the split-sweep property lifted to
    /// the serving plane.
    #[test]
    fn service_replay_equals_batch_for_any_thread_count(
        caches in arb_caches(),
        churn_permille in prop_oneof![Just(0u32), Just(250)],
        adversary in prop_oneof![Just(None), Just(Some(false)), Just(Some(true))],
        seed in 0u64..200,
    ) {
        let n_files = 64;
        let arena = CacheArena::from_caches(&caches, n_files);
        let avail = availability(seed, churn_permille, adversary);
        let mut scratch = SimScratch::new();
        for config in [
            SimConfig::lru(4),
            SimConfig::history(3),
            SimConfig::random(3),
            SimConfig::rare_lru(4, 2),
        ] {
            let config = config.with_seed(seed).with_availability(avail.clone());
            let (expected, expected_health) =
                simulate_arena_health_with_scratch(&arena, &config, &mut scratch);
            let expected_lists = scratch.final_lists();
            for threads in [1usize, 2, 8] {
                let report =
                    serve_arena_threads(&arena, &ServeConfig::new(config.clone()), threads);
                prop_assert_eq!(&report.result, &expected, "threads {}", threads);
                prop_assert_eq!(
                    &report.health.search,
                    &expected_health,
                    "threads {}",
                    threads
                );
                prop_assert_eq!(&report.lists, &expected_lists, "threads {}", threads);
                prop_assert_eq!(report.health.shed, 0);
                prop_assert_eq!(report.health.deferred, 0);
            }
        }
    }

    /// A bounded, jittered, shedding service is thread-invariant: the
    /// full report — ledger, latency histogram, per-shard vectors, final
    /// lists — is the same for any worker count, for every policy
    /// family, quiet or churned. The jitter can exceed the tick, so a
    /// querier's own arrivals reorder, and ticks up to two virtual days
    /// wide against a queue of at most 11 make a fifth of the cells
    /// shed and over a third defer.
    #[test]
    fn service_reports_are_deterministic_across_threads(
        caches in arb_caches(),
        churn_permille in prop_oneof![Just(0u32), Just(250)],
        seed in 0u64..200,
        tick_md in 1u64..2000,
        jitter_md in 0u32..4000,
        burst_permille in prop_oneof![Just(0u32), Just(300), Just(900)],
        queue_capacity in 1usize..12,
        service_per_tick in 1usize..4,
        n_shards in 1usize..9,
    ) {
        let n_files = 64;
        let arena = CacheArena::from_caches(&caches, n_files);
        let avail = availability(seed, churn_permille, None);
        for config in [
            SimConfig::lru(4),
            SimConfig::history(3),
            SimConfig::random(3),
            SimConfig::rare_lru(4, 2),
        ] {
            let config = ServeConfig::new(config.with_seed(seed).with_availability(avail.clone()))
                .with_arrival(ArrivalConfig::bursty(seed ^ 0x5e, burst_permille, jitter_md))
                .with_service(tick_md, queue_capacity, service_per_tick)
                .with_shards(n_shards);
            let base = serve_arena_threads(&arena, &config, 1);
            prop_assert!(base
                .health
                .reconcile(base.result.requests, base.result.one_hop_hits)
                .is_ok());
            prop_assert_eq!(base.latency.total(), base.health.served);
            for threads in [2usize, 8] {
                let report = serve_arena_threads(&arena, &config, threads);
                prop_assert_eq!(&report, &base, "threads {}", threads);
            }
        }
    }

    /// The index backend is invisible when quiet: routing every final
    /// miss through an explicit `SingleServer` backend stays
    /// bit-identical to the request-replay oracle, for every
    /// policy family.
    #[test]
    fn single_server_backend_matches_reference(caches in arb_caches(), seed in 0u64..200) {
        let n_files = 64;
        let arena = CacheArena::from_caches(&caches, n_files);
        let mut scratch = SimScratch::new();
        let quiet = AvailabilityConfig::none()
            .with_query(QueryPolicy::retry_evict())
            .with_backend(IndexBackend::SingleServer);
        for config in [
            SimConfig::lru(4).with_seed(seed),
            SimConfig::history(3).with_seed(seed),
            SimConfig::random(3).with_seed(seed),
            SimConfig::rare_lru(4, 2).with_seed(seed),
            SimConfig::lru(2).with_seed(seed).with_two_hop(),
        ] {
            let reference = simulate_reference(&caches, n_files, &config);
            let armed = config.with_availability(quiet.clone());
            let got = simulate_arena_health_with_scratch(&arena, &armed, &mut scratch).0;
            prop_assert_eq!(&got, &reference, "config {:?}", armed);
        }
    }

    /// Every index backend — single server, federated, DHT — is a pure
    /// function of the configuration seeds: the churn + outage sweep
    /// reproduces results and ledgers bit-for-bit across reruns and for
    /// 1, 2 and 8 worker threads. Outage days strand requests, so these
    /// cells take the whole-cell path inside the same scheduler for
    /// every backend; the zero-outage backend cells ride the split path
    /// in `split_sweep_equals_oracle_for_any_thread_count`.
    #[test]
    fn index_backends_are_deterministic_across_threads(
        caches in arb_caches(),
        seed in prop_oneof![Just(1u64), Just(42), Just(977)],
    ) {
        let n_files = 64;
        let arena = CacheArena::from_caches(&caches, n_files);
        let outage: Vec<u32> = (2..5).collect();
        for backend in [
            IndexBackend::SingleServer,
            IndexBackend::Federated { n_servers: 4 },
            IndexBackend::Dht { replication_k: 2 },
        ] {
            let avail = AvailabilityConfig::churn(seed ^ 0xc4, 250)
                .with_query(QueryPolicy::retry_evict())
                .with_outages(outage.clone())
                .with_backend(backend);
            let configs: Vec<SimConfig> = [SimConfig::lru(4), SimConfig::history(3)]
                .into_iter()
                .map(|c| c.with_seed(seed).with_availability(avail.clone()))
                .collect();
            let baseline = sweep_cells_threads(&arena, &configs, 1);
            for threads in [1usize, 2, 8] {
                prop_assert_eq!(
                    &sweep_cells_threads(&arena, &configs, threads),
                    &baseline,
                    "{} at {} threads",
                    backend.name(),
                    threads
                );
            }
        }
    }

    /// The live-overlay simulator under a quiet availability regime is
    /// bit-identical to its pre-availability oracle on arbitrary
    /// growing cache histories.
    #[test]
    fn quiet_overlay_matches_reference(
        base in prop::collection::vec(prop::collection::btree_set(0u32..16, 0..5), 1..7),
        adds in prop::collection::vec(
            prop::collection::vec(prop::collection::btree_set(0u32..16, 0..3), 1..7),
            1..4,
        ),
        seed in 0u64..100,
    ) {
        // Growing per-peer histories: day 0 is `base`, each later day
        // adds files (the GroundTruth layout the overlay replays).
        let n_peers = base.len();
        let mut current = base;
        let snapshot = |caches: &[std::collections::BTreeSet<u32>]| -> Vec<Vec<FileRef>> {
            caches.iter().map(|s| s.iter().map(|&f| FileRef(f)).collect()).collect()
        };
        let mut days = vec![snapshot(&current)];
        for day_adds in adds {
            for (p, add) in day_adds.into_iter().enumerate().take(n_peers) {
                current[p].extend(add);
            }
            days.push(snapshot(&current));
        }
        let mut config = OverlayConfig::lru(4);
        config.seed = seed;
        let reference = simulate_overlay_reference(&days, 340, 16, &config);
        let armed = config.clone().with_availability(
            AvailabilityConfig::none().with_query(QueryPolicy::retry_evict()),
        );
        prop_assert_eq!(simulate_overlay(&days, 340, 16, &armed), reference.clone());
        // The same quiet run routed through an explicit SingleServer
        // backend stays pinned to the overlay oracle too.
        let routed = config.with_availability(
            AvailabilityConfig::none()
                .with_query(QueryPolicy::retry_evict())
                .with_backend(IndexBackend::SingleServer),
        );
        prop_assert_eq!(simulate_overlay(&days, 340, 16, &routed), reference);
    }

    /// A seeded adversary plan with every fraction at zero is
    /// invisible, armed defense included: batch result, health ledger
    /// and final neighbour lists stay bit-identical to the honest run
    /// for every policy × index backend, and the serving replay
    /// reproduces the same bytes at 1, 2 and 8 worker threads. The
    /// quiet-plan guard consumes no RNG and takes no branches — this
    /// is the property that makes the adversary layer safe to leave
    /// permanently wired into every simulation plane.
    #[test]
    fn quiet_adversary_plan_is_invisible(
        caches in arb_caches(),
        seed in 0u64..200,
        adversary_seed in any::<u64>(),
    ) {
        let n_files = 64;
        let arena = CacheArena::from_caches(&caches, n_files);
        let mut scratch = SimScratch::new();
        for backend in [
            IndexBackend::SingleServer,
            IndexBackend::Federated { n_servers: 4 },
            IndexBackend::Dht { replication_k: 2 },
        ] {
            for config in [
                SimConfig::lru(4),
                SimConfig::history(3),
                SimConfig::random(3),
                SimConfig::rare_lru(4, 2),
            ] {
                let honest = config
                    .with_seed(seed)
                    .with_availability(AvailabilityConfig::none().with_backend(backend));
                let (expected, expected_health) =
                    simulate_arena_health_with_scratch(&arena, &honest, &mut scratch);
                let expected_lists = scratch.final_lists();
                let quiet = honest.clone().with_availability(
                    AvailabilityConfig::none()
                        .with_backend(backend)
                        .with_adversary(AdversaryConfig::sybils(adversary_seed, 0))
                        .with_reputation(),
                );
                let (got, got_health) =
                    simulate_arena_health_with_scratch(&arena, &quiet, &mut scratch);
                prop_assert_eq!(&got, &expected, "batch {:?}", &quiet);
                prop_assert_eq!(&got_health, &expected_health, "health {:?}", &quiet);
                prop_assert_eq!(
                    &scratch.final_lists(),
                    &expected_lists,
                    "lists {:?}",
                    &quiet
                );
                prop_assert_eq!(got_health.wasted_queries, 0);
                prop_assert_eq!(got_health.reputation_evictions, 0);
                for threads in [1usize, 2, 8] {
                    let report =
                        serve_arena_threads(&arena, &ServeConfig::new(quiet.clone()), threads);
                    prop_assert_eq!(&report.result, &expected, "serve threads {}", threads);
                    prop_assert_eq!(
                        &report.health.search,
                        &expected_health,
                        "serve health threads {}",
                        threads
                    );
                    prop_assert_eq!(&report.lists, &expected_lists, "serve lists {}", threads);
                }
            }
        }
    }

    /// Hit rates are monotone (within tolerance) in list size — more
    /// neighbours never lose hits on the same request order.
    #[test]
    fn hit_rate_grows_with_list_size(seed in 0u64..20) {
        let caches: Vec<Vec<FileRef>> = (0..12u32)
            .map(|p| (0..8).map(|k| FileRef((p / 4) * 8 + k)).collect())
            .collect();
        let (small, _) = cell(&caches, 24, &SimConfig::lru(2).with_seed(seed));
        let (large, _) = cell(&caches, 24, &SimConfig::lru(12).with_seed(seed));
        prop_assert!(large.hits() + 1 >= small.hits());
    }

    /// The derivation pipeline (retain/filter/extrapolate over CSR days)
    /// is exactly its row-at-a-time oracles on arbitrary traces — same
    /// kept sets, same derived traces for 1, 2 and 8 worker threads —
    /// and the derived traces round-trip both codecs losslessly.
    #[test]
    fn arena_pipeline_equals_row_pipeline(trace in arb_trace()) {
        prop_assert_eq!(trace.check_invariants(), Ok(()));

        let row_retained = retain_peers(&trace, |p| p.0 % 2 == 0);
        prop_assert_eq!(&retain_peers_arena(&trace, |p| p.0 % 2 == 0), &row_retained);

        let row_filtered = filter(&trace);
        let arena_filtered = filter_arena(&trace);
        prop_assert_eq!(&arena_filtered, &row_filtered);

        let config = ExtrapolateConfig::default();
        let row_ext = extrapolate(&row_filtered.arena, config);
        for threads in [1usize, 2, 8] {
            let arena_ext =
                extrapolate_arena_with_threads(&arena_filtered.arena, config, threads);
            prop_assert_eq!(&arena_ext, &row_ext, "threads {}", threads);
        }

        let derived = extrapolate_arena_with_threads(&arena_filtered.arena, config, 2).arena;
        prop_assert_eq!(derived.check_invariants(), Ok(()));
        prop_assert_eq!(
            io::from_bin(&io::to_bin(&derived)).expect("binary"),
            derived.clone()
        );
        prop_assert_eq!(
            io::from_json(&io::to_json(&derived)).expect("json"),
            derived
        );
    }

    /// The arena shuffler is exactly the row shuffler: same seed and
    /// swap budget ⇒ identical stats, identical RNG position, and the
    /// same shuffled caches (rows compared sorted, the arena's
    /// canonical order).
    #[test]
    fn arena_shuffler_equals_row_shuffler(caches in arb_caches(), swaps in 0u64..2_000) {
        let arena = CacheArena::from_caches(&caches, 64);
        let mut row = Shuffler::new(caches);
        let mut row_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
        row.run(swaps, &mut row_rng);
        let row_stats = row.stats();
        let mut row_caches = row.into_caches();
        for cache in &mut row_caches {
            cache.sort_unstable();
        }

        let mut csr = ArenaShuffler::new(&arena);
        let mut csr_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
        csr.run(swaps, &mut csr_rng);
        prop_assert_eq!(csr.stats(), row_stats);
        prop_assert_eq!(csr.snapshot_arena().to_caches(), row_caches);
        prop_assert_eq!(
            rand::RngCore::next_u64(&mut csr_rng),
            rand::RngCore::next_u64(&mut row_rng),
            "both shufflers consume the same number of draws"
        );
    }

    /// Running the arena shuffler as `run(a)` then `run(b)` is
    /// bit-identical to one `run(a + b)`: same stats, same caches, same
    /// RNG position. Each `run` drains its lookahead ring at the end, so
    /// the split must neither skip nor repeat a staged attempt.
    #[test]
    fn arena_shuffler_split_run_equals_one_run(
        caches in arb_caches(),
        prefix in 0u64..1_000,
        suffix in 0u64..1_000,
    ) {
        let arena = CacheArena::from_caches(&caches, 64);

        let mut full = ArenaShuffler::new(&arena);
        let mut full_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        full.run(prefix + suffix, &mut full_rng);

        let mut split = ArenaShuffler::new(&arena);
        let mut split_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        split.run(prefix, &mut split_rng);
        split.run(suffix, &mut split_rng);

        prop_assert_eq!(split.stats(), full.stats());
        prop_assert_eq!(split.snapshot_arena().to_caches(), full.snapshot_arena().to_caches());
        prop_assert_eq!(
            rand::RngCore::next_u64(&mut split_rng),
            rand::RngCore::next_u64(&mut full_rng)
        );
    }

    /// The trace builder against a plain model: intern calls in any
    /// order (alias identities interned mid-trace), observations in any
    /// day and peer order with unsorted, repeated refs, and days taken
    /// midway. The days taken plus `finish` equal the model's
    /// day → peer → file-set map, pass `check_invariants` and survive the
    /// binary codec unchanged, and `observed_on` answers as the model does.
    #[test]
    fn trace_builder_matches_model(script in arb_build_script()) {
        let file_info = |id: u8| FileInfo {
            id: Md4::digest(&[b'f', id]),
            size: 1_000 * u64::from(id),
            kind: FileKind::ALL[id as usize % FileKind::ALL.len()],
        };
        let peer_info = |id: u8| PeerInfo {
            uid: Md4::digest(&[b'p', id]),
            ip: u32::from(id % 3),
            country: CountryCode::new("FR"),
            asn: 3215,
        };
        let mut b = TraceBuilder::new();
        // The model: identities in first-seen order, and the rows of the
        // days still open and of every day taken or finished.
        let (mut files, mut peers): (Vec<u8>, Vec<u8>) = (Vec::new(), Vec::new());
        let mut open: BTreeMap<u32, BTreeMap<u32, BTreeSet<u32>>> = BTreeMap::new();
        let mut model = BTreeMap::new();
        let mut taken = Vec::new();
        for (kind, id, day, cache) in script {
            match kind {
                0 | 1 => {
                    let (table, id) = if kind == 0 {
                        (&mut files, id % 12)
                    } else {
                        (&mut peers, id % 10)
                    };
                    let expected = table.iter().position(|&t| t == id).unwrap_or_else(|| {
                        table.push(id);
                        table.len() - 1
                    });
                    let got = if kind == 0 {
                        b.intern_file(file_info(id)).index()
                    } else {
                        b.intern_peer(peer_info(id)).index()
                    };
                    prop_assert_eq!(got, expected);
                }
                2..=6 => {
                    // A taken day stays closed.
                    if peers.is_empty() || model.contains_key(&day) {
                        continue;
                    }
                    let peer = u32::from(id) % peers.len() as u32;
                    let refs: Vec<FileRef> = cache
                        .iter()
                        .filter(|_| !files.is_empty())
                        .map(|&f| FileRef(u32::from(f) % files.len() as u32))
                        .collect();
                    let seen = open.get(&day).is_some_and(|d| d.contains_key(&peer));
                    prop_assert_eq!(b.observed_on(day, PeerId(peer)), seen);
                    if !seen {
                        b.observe(day, PeerId(peer), refs.clone());
                        let row = refs.iter().map(|f| f.0).collect();
                        open.entry(day).or_default().insert(peer, row);
                    }
                }
                _ => {
                    let got = b.take_day(day);
                    prop_assert_eq!(got.is_some(), open.contains_key(&day));
                    taken.extend(got);
                    let rows = open.remove(&day).unwrap_or_default();
                    model.entry(day).or_insert(rows);
                }
            }
        }
        model.retain(|_, rows| !rows.is_empty());
        model.extend(open);

        let finished = b.finish();
        let mut days = taken;
        days.extend(finished.days);
        days.sort_by_key(|d| d.day);
        let built = TraceArena {
            files: finished.files,
            peers: finished.peers,
            days,
        };
        prop_assert_eq!(built.check_invariants(), Ok(()));
        let expected = TraceArena {
            files: files.iter().map(|&id| file_info(id)).collect(),
            peers: peers.iter().map(|&id| peer_info(id)).collect(),
            days: model
                .iter()
                .map(|(&day, rows)| {
                    let mut arena = DayArena::new(day);
                    for (&peer, refs) in rows {
                        arena.peers.push(peer);
                        arena.entries.extend(refs.iter().map(|&f| FileRef(f)));
                        arena.offsets.push(arena.entries.len() as u32);
                    }
                    arena
                })
                .collect(),
        };
        prop_assert_eq!(&built, &expected);
        prop_assert_eq!(io::from_bin(&io::to_bin(&built)).expect("decode"), built);
    }

    /// The out-of-core streaming generator writes the byte-identical
    /// binary trace its in-memory twin materializes, at every thread
    /// count — the invariant that lets the paper tier stream to disk
    /// and every other consumer keep working on the same bytes.
    #[test]
    fn streamed_generation_matches_in_memory_any_threads(
        config in arb_stream_config(),
        threads in 1usize..6,
    ) {
        let (_, _, streamed) =
            stream::stream_trace_to_bytes(&config, threads).expect("stream to bytes");
        let (_, trace) = stream::generate_trace_streamed_in_memory(&config, 1);
        prop_assert_eq!(streamed, io::bin::to_bin(&trace));
    }

    /// Banded-overlap laws, for any cache shape, band split, sketch
    /// size, admit floor and thread count:
    ///  * `admit_floor == 0` (everything admitted) is bit-identical to
    ///    the sequential oracle;
    ///  * pruning only ever removes or shrinks pairs (never invents
    ///    overlap), and the emitted pair set shrinks monotonically as
    ///    the floor rises (the estimate per pair is fixed by the seed);
    ///  * the out-of-core histogram equals the histogram of the
    ///    materialized entries at the same configuration.
    #[test]
    fn banded_overlap_prefilter_laws(
        caches in arb_caches(),
        band_cap in 1usize..6,
        sketch_k in 8usize..33,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let arena = CacheArena::from_caches(&caches, 64);
        let exact = semantic::overlap_counts(&caches, 64, |_| true, None);
        let base = BandedOverlapConfig {
            band_cap,
            max_holders: None,
            sketch_k,
            admit_floor: 2,
            seed,
        };

        let zero = BandedOverlapConfig { admit_floor: 0, ..base };
        let (zero_counts, _) =
            banded::overlap_counts_banded_with_threads(&arena, |_| true, &zero, threads);
        prop_assert!(
            zero_counts.iter().eq(exact.iter()),
            "floor 0 admits everything and must be exact"
        );

        let mut prev_pairs: Option<HashSet<(u32, u32)>> = None;
        for floor in [0u32, 1, 2, 4] {
            let cfg = BandedOverlapConfig { admit_floor: floor, ..base };
            let (pruned, _) =
                banded::overlap_counts_banded_with_threads(&arena, |_| true, &cfg, threads);
            let mut max_count = 0u32;
            for ((a, b), count) in pruned.iter() {
                prop_assert!(
                    count <= exact.overlap(a, b),
                    "pruning must never invent overlap"
                );
                max_count = max_count.max(count);
            }
            let pairs: HashSet<(u32, u32)> = pruned.iter().map(|(pair, _)| pair).collect();
            if let Some(prev) = &prev_pairs {
                prop_assert!(
                    pairs.is_subset(prev),
                    "raising the floor must only shrink the emitted pair set"
                );
            }
            prev_pairs = Some(pairs);

            let (mut hist, _) =
                banded::banded_overlap_histogram_with_threads(&arena, |_| true, &cfg, threads);
            let mut expected = vec![0u64; max_count as usize + 1];
            for (_, count) in pruned.iter() {
                expected[count as usize] += 1;
            }
            // Trailing zeros are representational (an empty run may
            // come back as `[]` or `[0]`); trim both before comparing.
            while hist.last() == Some(&0) {
                hist.pop();
            }
            while expected.last() == Some(&0) {
                expected.pop();
            }
            prop_assert_eq!(
                hist, expected,
                "the out-of-core histogram must match the materialized entries"
            );
        }
    }

    /// The bounded-working-set sweep is bit-identical to the
    /// work-stealing scheduler for every window size, including windows
    /// of one querier and windows larger than the population.
    #[test]
    fn windowed_sweep_matches_work_stealing(
        caches in arb_caches(),
        window in 1usize..40,
        seed in 0u64..500,
    ) {
        let arena = CacheArena::from_caches(&caches, 64);
        let configs = [
            SimConfig::lru(3).with_seed(seed),
            SimConfig::history(8).with_seed(seed),
        ];
        let windowed = experiment::sweep_cells_windowed(&arena, &configs, window);
        let full = sweep_cells_threads(&arena, &configs, 4);
        prop_assert_eq!(windowed, full);
    }
}

/// The quiet replay's member-major hit check — taken when a file's
/// sharer prefix is more than 128 times the list — against the
/// whole-cell oracle, for every policy at list sizes 1–3, quiet and
/// under 250‰ churn with retries and eviction, at 1 and 2 threads.
/// Three files are held by all 400 peers, so their requests reach
/// arrival ranks up to 399 (past 128 × 3), while every peer's dozen
/// rarer files keep its short list turning over afterwards: picking
/// any member but the earliest sharer moves a later eviction.
#[test]
fn split_sweep_member_major_hit_check_matches_whole_cells() {
    let caches: Vec<Vec<FileRef>> = (0..400u32)
        .map(|p| {
            let (community, mut cache) = (p % 20, vec![0, 1, 2]);
            cache.extend((0..12).map(|k| 3 + community * 16 + (p / 20 + k) % 16));
            cache.sort_unstable();
            cache.into_iter().map(FileRef).collect()
        })
        .collect();
    let arena = CacheArena::from_caches(&caches, 3 + 20 * 16);
    let churn = AvailabilityConfig::churn(0xc4, 250).with_query(QueryPolicy::retry_evict());
    let mut configs = Vec::new();
    for list_size in 1..=3 {
        for base in [
            SimConfig::lru(list_size),
            SimConfig::history(list_size),
            SimConfig::rare_lru(list_size, 30),
            SimConfig::random(list_size),
        ] {
            for avail in [AvailabilityConfig::none(), churn.clone()] {
                configs.push(base.clone().with_seed(11).with_availability(avail));
            }
        }
    }
    assert!(configs.iter().all(split_eligible));
    let mut scratch = SimScratch::new();
    let expected: Vec<(SimResult, SearchHealth)> = configs
        .iter()
        .map(|c| simulate_arena_health_with_scratch(&arena, c, &mut scratch))
        .collect();
    for threads in [1, 2] {
        let got = sweep_cells_threads(&arena, &configs, threads);
        for ((config, got), want) in configs.iter().zip(&got).zip(&expected) {
            assert_eq!(got, want, "{config:?} at {threads} threads");
        }
    }
}

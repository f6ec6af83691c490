//! The trace-driven search simulation of Section 5.1.
//!
//! The simulator replays a static cache set as a request stream:
//!
//! 1. Pick a uniformly random `(peer, pending file)` pair and remove it
//!    from the peer's pending list.
//! 2. If nobody currently shares the file, the peer is its *original
//!    contributor*: the file just enters the peer's (simulated) cache.
//! 3. Otherwise the peer *requests* the file: it queries its semantic
//!    neighbours (and, in two-hop mode, their neighbours); a **hit**
//!    means some queried peer currently shares the file. On a miss the
//!    peer falls back to the server. Either way it obtains the file,
//!    starts sharing it, and the uploader is recorded in its neighbour
//!    list (head of LRU / counter bump for History).
//!
//! Load accounting: every request sends one message to each of the
//! requester's (one-hop) semantic neighbours, which is how the paper's
//! Fig. 22 counts "messages per client".
//!
//! # Availability
//!
//! With a non-quiet [`AvailabilityConfig`] the simulator consults a
//! deterministic [`ChurnSchedule`]: the static request stream is spread
//! over `virtual_days` of simulated time, queries to offline neighbours
//! time out (no message delivered, no mark stamped), the querier
//! retries per its [`QueryPolicy`] with backoff in simulated time, and
//! stale entries get the per-policy reaction of
//! [`NeighbourList::handle_stale`]. Day-scoped server outages strand final
//! misses: the file is not acquired and nothing is recorded. A
//! [`SearchHealth`] ledger accounts for every attempt and reconciles
//! exactly against the [`SimResult`] totals. When the schedule is quiet
//! the whole layer is a no-op and results are bit-identical to the
//! pre-availability simulator ([`simulate_reference`] is the pinned
//! oracle).

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::FileRef;
pub use edonkey_workload::adversary::{AdversaryConfig, AdversaryPlan};
pub use edonkey_workload::churn::{ChurnConfig, ChurnSchedule, QueryPolicy};
use edonkey_workload::mix::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

use crate::index::IndexBackend;
use crate::neighbours::{draw_random_list, NeighbourList, Peer, PolicyKind};
use crate::query::{QueryCtx, Request, Tables, WalkScratch, QUERY_RTT_MD};

/// Stateless server-fallback pick: which of the `len` current sharers
/// uploads on a miss at stream position `t`, drawn by a splitmix64
/// finalizer over `(seed, t)` — the same construction the churn
/// schedule uses for its replacement draws.
///
/// Being a pure function of the stream position (instead of a draw from
/// the simulation's sequential RNG) is what lets the split-cell sweep
/// replay any querier's requests independently and still agree
/// bit-for-bit with [`simulate_reference`].
#[inline]
pub(crate) fn fallback_index(seed: u64, t: u64, len: usize) -> usize {
    debug_assert!(len > 0);
    let z = splitmix64(seed ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (z % len as u64) as usize
}

/// The availability regime a simulation runs under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AvailabilityConfig {
    /// Who is offline when, and which days the server is down.
    pub churn: ChurnConfig,
    /// The querier's timeout reaction (retries, backoff, staleness).
    pub query: QueryPolicy,
    /// How many simulated days the static request stream spans (the
    /// trace-driven stream has no timestamps of its own). Irrelevant —
    /// but still bit-identically harmless — when `churn` is quiet.
    pub virtual_days: u32,
    /// Which index backend resolves final misses (and how `outage_days`
    /// degrade it). [`IndexBackend::SingleServer`] is the paper's
    /// single fallback server, bit-for-bit.
    pub backend: IndexBackend,
    /// Which peers play sybil / polluter / free-rider on which days
    /// (quiet by default — nobody attacks).
    pub adversary: AdversaryConfig,
    /// Arms the per-neighbour reputation defense: adversarially
    /// recorded neighbours are scored on every refused answer and
    /// hard-removed once the score fires. A no-op — mechanically, not
    /// just statistically — when the adversary plan is quiet, because
    /// suspects only enter the book through adversarial records.
    pub reputation: bool,
}

/// Default span: the 14-day windows the Section 4 figures use.
const DEFAULT_VIRTUAL_DAYS: u32 = 14;

impl AvailabilityConfig {
    /// Always-on peers, always-up server, single attempts: the paper's
    /// implicit regime, and the bit-identity baseline.
    pub fn none() -> Self {
        AvailabilityConfig {
            churn: ChurnConfig::none(),
            query: QueryPolicy::no_retry(),
            virtual_days: DEFAULT_VIRTUAL_DAYS,
            backend: IndexBackend::SingleServer,
            adversary: AdversaryConfig::none(),
            reputation: false,
        }
    }

    /// Session churn at `churn_permille` (see [`ChurnConfig`]) under
    /// the given schedule seed, single attempts.
    pub fn churn(seed: u64, churn_permille: u32) -> Self {
        AvailabilityConfig {
            churn: ChurnConfig::with_rate(seed, churn_permille),
            ..Self::none()
        }
    }

    /// Replaces the query policy.
    pub fn with_query(mut self, query: QueryPolicy) -> Self {
        self.query = query;
        self
    }

    /// Adds server-outage days (offsets into the virtual span).
    pub fn with_outages(mut self, days: Vec<u32>) -> Self {
        self.churn.outage_days = days;
        self
    }

    /// Replaces the index backend.
    pub fn with_backend(mut self, backend: IndexBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the adversary plan.
    pub fn with_adversary(mut self, adversary: AdversaryConfig) -> Self {
        self.adversary = adversary;
        self
    }

    /// Arms the reputation defense.
    pub fn with_reputation(mut self) -> Self {
        self.reputation = true;
        self
    }

    /// True iff the availability layer cannot affect the simulation.
    pub fn is_quiet(&self) -> bool {
        self.churn.is_quiet() && self.adversary.is_quiet()
    }
}

impl Default for AvailabilityConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Simulation parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Neighbour list length (the paper sweeps 5–200).
    pub list_size: usize,
    /// Which policy maintains the lists.
    pub policy: PolicyKind,
    /// Also query neighbours' neighbours on a one-hop miss (Fig. 23).
    pub two_hop: bool,
    /// RNG seed for the request order and uploader picks.
    pub seed: u64,
    /// Peer-availability regime (quiet by default).
    pub availability: AvailabilityConfig,
}

impl SimConfig {
    /// LRU with the given list size — the paper's default setup.
    pub fn lru(list_size: usize) -> Self {
        SimConfig {
            list_size,
            policy: PolicyKind::Lru,
            two_hop: false,
            seed: 0x5eed,
            availability: AvailabilityConfig::none(),
        }
    }

    /// Same, with the History policy.
    pub fn history(list_size: usize) -> Self {
        SimConfig {
            policy: PolicyKind::History,
            ..Self::lru(list_size)
        }
    }

    /// Same, with the Random benchmark.
    pub fn random(list_size: usize) -> Self {
        SimConfig {
            policy: PolicyKind::Random,
            ..Self::lru(list_size)
        }
    }

    /// LRU recording only uploads of files with at most `max_sources`
    /// sources — the rare-file "popularity" policy of Section 5.3.2.
    pub fn rare_lru(list_size: usize, max_sources: u32) -> Self {
        SimConfig {
            policy: PolicyKind::RareLru { max_sources },
            ..Self::lru(list_size)
        }
    }

    /// Enables two-hop search.
    pub fn with_two_hop(mut self) -> Self {
        self.two_hop = true;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs under the given availability regime.
    pub fn with_availability(mut self, availability: AvailabilityConfig) -> Self {
        self.availability = availability;
        self
    }

    /// Replaces the index backend (keeping the rest of the availability
    /// regime).
    pub fn with_backend(mut self, backend: IndexBackend) -> Self {
        self.availability.backend = backend;
        self
    }
}

/// The availability ledger: every query attempt of a simulation run,
/// accounted once. Identities (checked by [`SearchHealth::reconcile`]):
///
/// * `answered == one_hop_hits + two_hop_hits`
/// * `answered + server_fallback + stranded == requests`
/// * `attempted == requests + retried`
/// * `recovered <= answered`
/// * `forwarded == dht_hops == 0` when no fallback lookup ever ran
///   (`server_fallback + stranded == 0`) — routing hops only accrue on
///   index lookups.
/// * `polluted_acquisitions <= server_fallback` — pollution only
///   strikes acquisitions the index resolved.
/// * `sybil_slots_held <= answered + server_fallback` — a slot is only
///   hijacked where a genuine record would have landed.
/// * `reputation_evictions == 0` when
///   `sybil_slots_held + polluted_acquisitions == 0` — the defense only
///   scores peers that entered a list adversarially.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchHealth {
    /// Query attempts issued (initial attempts plus retries).
    pub attempted: u64,
    /// Requests answered by the overlay (one- or two-hop).
    pub answered: u64,
    /// Individual neighbour queries that timed out (offline peer).
    pub timed_out: u64,
    /// Retry attempts (beyond each request's first attempt).
    pub retried: u64,
    /// Stale entries evicted (or replaced) after a timeout.
    pub evicted_stale: u64,
    /// Stale entries probed/demoted after a timeout (History).
    pub probed_stale: u64,
    /// Final misses resolved by the fallback server.
    pub server_fallback: u64,
    /// Final misses during a server outage: the request failed
    /// entirely — nothing acquired, nothing recorded.
    pub stranded: u64,
    /// Requests the overlay answered *during* a server outage — what
    /// server-less search rescued when there was no fallback.
    pub recovered: u64,
    /// Inter-server forward hops taken by fallback lookups (federated
    /// backend; zero for the single server and the DHT).
    pub forwarded: u64,
    /// XOR-routing hops taken by fallback lookups (DHT backend; zero
    /// otherwise).
    pub dht_hops: u64,
    /// Queries delivered to an online adversary that refused to answer
    /// (message paid, nothing gained; not a timeout).
    pub wasted_queries: u64,
    /// Neighbour-list records captured by a sybil impersonating the
    /// genuine uploader.
    pub sybil_slots_held: u64,
    /// Server-fallback acquisitions resolved through a poisoned index
    /// record (the file still arrives; the recorded uploader is the
    /// polluter).
    pub polluted_acquisitions: u64,
    /// Neighbours hard-removed by the reputation defense.
    pub reputation_evictions: u64,
}

impl SearchHealth {
    /// Checks the ledger identities against raw totals. Returns a
    /// description of the first violated identity, if any.
    pub fn reconcile(
        &self,
        requests: u64,
        one_hop_hits: u64,
        two_hop_hits: u64,
    ) -> Result<(), String> {
        let hits = one_hop_hits + two_hop_hits;
        if self.answered != hits {
            return Err(format!(
                "answered {} != one_hop + two_hop hits {hits}",
                self.answered
            ));
        }
        let resolved = self.answered + self.server_fallback + self.stranded;
        if resolved != requests {
            return Err(format!(
                "answered {} + server_fallback {} + stranded {} = {resolved} != requests {requests}",
                self.answered, self.server_fallback, self.stranded
            ));
        }
        if self.attempted != requests + self.retried {
            return Err(format!(
                "attempted {} != requests {requests} + retried {}",
                self.attempted, self.retried
            ));
        }
        if self.recovered > self.answered {
            return Err(format!(
                "recovered {} > answered {}",
                self.recovered, self.answered
            ));
        }
        if self.server_fallback + self.stranded == 0 && self.forwarded + self.dht_hops != 0 {
            return Err(format!(
                "forwarded {} + dht_hops {} nonzero without any fallback lookup",
                self.forwarded, self.dht_hops
            ));
        }
        if self.polluted_acquisitions > self.server_fallback {
            return Err(format!(
                "polluted_acquisitions {} > server_fallback {}",
                self.polluted_acquisitions, self.server_fallback
            ));
        }
        if self.sybil_slots_held > self.answered + self.server_fallback {
            return Err(format!(
                "sybil_slots_held {} > answered {} + server_fallback {}",
                self.sybil_slots_held, self.answered, self.server_fallback
            ));
        }
        if self.sybil_slots_held + self.polluted_acquisitions == 0 && self.reputation_evictions != 0
        {
            return Err(format!(
                "reputation_evictions {} nonzero without any adversarial record",
                self.reputation_evictions
            ));
        }
        Ok(())
    }

    /// [`SearchHealth::reconcile`] against a [`SimResult`].
    pub fn check_against(&self, result: &SimResult) -> Result<(), String> {
        self.reconcile(result.requests, result.one_hop_hits, result.two_hop_hits)
    }

    /// [`SearchHealth::check_against`], panicking with the cell
    /// identity on violation. Sweep matrices run hundreds of cells;
    /// "which cell" is the first question a failure raises, so the
    /// message carries `(seed, list_size, churn_rate, backend)`
    /// alongside the violated identity — the backend kind matters
    /// because the forwarding backends (`federated{n}`, `dht_k{k}`)
    /// take a different routing path than the single server, and a
    /// hop-accounting bug would otherwise point at the wrong cell.
    pub fn expect_reconciled(&self, result: &SimResult, config: &SimConfig) {
        if let Err(e) = self.check_against(result) {
            panic!(
                "SearchHealth failed to reconcile: {e} \
                 (seed {}, list_size {}, churn_rate {}, backend {})",
                config.seed,
                config.list_size,
                config.availability.churn.churn_permille,
                config.availability.backend.name()
            );
        }
    }
}

impl std::ops::AddAssign for SearchHealth {
    /// Field-wise sum: the ledger of two disjoint request sets. The
    /// exhaustive destructuring makes a new counter a compile error
    /// here rather than a silently dropped term in some merge.
    fn add_assign(&mut self, other: SearchHealth) {
        let SearchHealth {
            attempted,
            answered,
            timed_out,
            retried,
            evicted_stale,
            probed_stale,
            server_fallback,
            stranded,
            recovered,
            forwarded,
            dht_hops,
            wasted_queries,
            sybil_slots_held,
            polluted_acquisitions,
            reputation_evictions,
        } = other;
        self.attempted += attempted;
        self.answered += answered;
        self.timed_out += timed_out;
        self.retried += retried;
        self.evicted_stale += evicted_stale;
        self.probed_stale += probed_stale;
        self.server_fallback += server_fallback;
        self.stranded += stranded;
        self.recovered += recovered;
        self.forwarded += forwarded;
        self.dht_hops += dht_hops;
        self.wasted_queries += wasted_queries;
        self.sybil_slots_held += sybil_slots_held;
        self.polluted_acquisitions += polluted_acquisitions;
        self.reputation_evictions += reputation_evictions;
    }
}

/// Simulation outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Requests actually simulated (pairs whose file already had a
    /// sharer).
    pub requests: u64,
    /// Requests answered by a one-hop semantic neighbour.
    pub one_hop_hits: u64,
    /// Requests answered only at the second hop (zero unless two-hop).
    pub two_hop_hits: u64,
    /// Pairs that seeded the system (no prior sharer).
    pub contributor_seeds: u64,
    /// Messages received per peer (Fig. 22's load distribution).
    pub messages_per_peer: Vec<u64>,
}

impl SimResult {
    /// Total hits (one-hop plus two-hop).
    pub fn hits(&self) -> u64 {
        self.one_hop_hits + self.two_hop_hits
    }

    /// Hit rate in `[0,1]`; 0 when no requests were simulated.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.hits() as f64 / self.requests as f64
    }

    /// Mean messages per peer over peers that received any.
    pub fn mean_load(&self) -> f64 {
        // Single fold, no intermediate allocation.
        let (sum, busy) = self
            .messages_per_peer
            .iter()
            .filter(|&&m| m > 0)
            .fold((0u64, 0u64), |(s, n), &m| (s + m, n + 1));
        if busy == 0 {
            0.0
        } else {
            sum as f64 / busy as f64
        }
    }

    /// Peak messages on any single peer.
    pub fn max_load(&self) -> u64 {
        self.messages_per_peer.iter().copied().max().unwrap_or(0)
    }

    /// Per-peer load sorted descending — the Fig. 22 curve
    /// (`messages` vs `client by rank`), zero-load peers omitted.
    pub fn load_by_rank(&self) -> Vec<u64> {
        let mut loads: Vec<u64> = self
            .messages_per_peer
            .iter()
            .copied()
            .filter(|&m| m > 0)
            .collect();
        loads.sort_unstable_by(|a, b| b.cmp(a));
        loads
    }
}

/// Reusable simulation buffers.
///
/// One whole-cell run needs a request stream, a per-file sharer table
/// and a per-peer membership mark; across a sweep those allocations
/// dwarf the useful work for small traces. A `SimScratch` carried from
/// run to run (e.g. one per worker thread via
/// [`crate::experiment::parallel_map_init`]) reuses them: vectors are
/// cleared, not freed, and the mark array is invalidated by bumping a
/// generation counter instead of being rewritten.
#[derive(Debug, Default)]
pub struct SimScratch {
    stream: Vec<(u32, FileRef)>,
    /// Arrival-ordered sharers per file, flat CSR: `sharer_heads` holds
    /// row offsets into `sharer_flat`, `sharer_len` the live widths.
    /// Every replica in the stream eventually lands in its file's row,
    /// so the final row widths are the per-file replica counts — known
    /// before the run starts. Three pooled buffers replace one heap
    /// `Vec` per shared file.
    sharer_heads: Vec<u32>,
    sharer_len: Vec<u32>,
    sharer_flat: Vec<Peer>,
    /// Pooled per-peer neighbour lists, renewed in place each run
    /// ([`NeighbourList::renew`] replays the construction draw sequence,
    /// so reuse is invisible to the RNG stream).
    policies: Vec<NeighbourList>,
    /// Pooled candidate pool (the non-free-riders) for random lists.
    sharer_pool: Vec<Peer>,
    /// The query kernel's walk buffers.
    walk: WalkScratch,
}

impl SimScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Neighbour-list snapshot after the last run, in peer order — the
    /// final policy state the service-mode differential tests compare
    /// against. Empty before the first run.
    pub fn final_lists(&self) -> Vec<Vec<Peer>> {
        self.policies.iter().map(NeighbourList::to_vec).collect()
    }
}

/// The whole-cell oracle: runs one cell in a single pass over the
/// shuffled request stream, with one neighbour list per peer, and
/// returns its availability ledger beside the result
/// ([`SearchHealth::check_against`] holds for every config).
///
/// Row `p` of `arena` is the potential request set of peer `p` (its
/// cache in the trace). Peers with empty caches are free-riders: they
/// issue no requests and, holding nothing, never appear in lists.
///
/// Production code runs cells through
/// [`crate::experiment::sweep_cells`], which picks the split or the
/// whole path per cell. The differential tests and `bench_report`'s
/// sequential baseline call this directly; afterwards
/// [`SimScratch::final_lists`] holds every peer's final list. It
/// replays the RNG draws and policy updates of [`simulate_reference`]
/// in the same order, bit for bit, over arena rows, a generation-stamped
/// mark array stamped by the message-accounting walk (instead of a
/// `HashSet` probe per candidate sharer) and buffers reused through
/// `scratch`.
///
/// # Examples
///
/// ```
/// use edonkey_semsearch::sim::{simulate_arena_health_with_scratch, SimConfig, SimScratch};
/// use edonkey_trace::compact::CacheArena;
/// use edonkey_trace::model::FileRef;
///
/// // Two peers with identical two-file caches: whoever requests second
/// // finds the first via the fallback, then hits on the second file.
/// let caches = vec![vec![FileRef(0), FileRef(1)], vec![FileRef(0), FileRef(1)]];
/// let arena = CacheArena::from_caches(&caches, 2);
/// let config = SimConfig::lru(5);
/// let (result, health) =
///     simulate_arena_health_with_scratch(&arena, &config, &mut SimScratch::new());
/// assert_eq!(result.requests + result.contributor_seeds, 4);
/// assert!(health.check_against(&result).is_ok());
/// ```
pub fn simulate_arena_health_with_scratch(
    arena: &CacheArena,
    config: &SimConfig,
    scratch: &mut SimScratch,
) -> (SimResult, SearchHealth) {
    let tables = Tables::new(std::slice::from_ref(config), arena.n_peers());
    simulate_whole_cell(arena, config, &tables, scratch)
}

/// The whole-cell run of [`simulate_arena_health_with_scratch`],
/// reading `tables` built for a batch that includes `config`.
pub(crate) fn simulate_whole_cell(
    arena: &CacheArena,
    config: &SimConfig,
    tables: &Tables,
    scratch: &mut SimScratch,
) -> (SimResult, SearchHealth) {
    let n_peers = arena.n_peers();
    let n_files = arena.n_files();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let SimScratch {
        stream,
        sharer_heads,
        sharer_len,
        sharer_flat,
        policies,
        sharer_pool,
        walk,
    } = scratch;

    // Sharers (non-free-riders) are the candidate pool for random lists.
    sharer_pool.clear();
    sharer_pool.extend(
        (0..n_peers)
            .filter(|&p| !arena.cache(p).is_empty())
            .map(|p| p as Peer),
    );

    // Request stream: a uniformly shuffled multiset of (peer, file).
    stream.clear();
    stream.reserve(arena.replica_count());
    for p in 0..n_peers {
        stream.extend(arena.cache(p).iter().map(|&f| (p as u32, f)));
    }
    shuffle(stream, &mut rng);

    // Mutable simulation state: renew the pooled policies in place (in
    // peer order, so the construction RNG draws replay exactly), extend
    // the pool if this arena has more peers than the last run.
    policies.truncate(n_peers);
    for (p, policy) in policies.iter_mut().enumerate() {
        policy.renew(
            config.policy,
            config.list_size,
            p as Peer,
            sharer_pool,
            &mut rng,
        );
    }
    for p in policies.len()..n_peers {
        policies.push(NeighbourList::new(
            config.policy,
            config.list_size,
            p as Peer,
            sharer_pool,
            &mut rng,
        ));
    }
    // CSR sharer table: bucket-count the stream into row offsets, then
    // prefix-sum. Zeroing the counters is the same O(n_files) cost the
    // per-file `Vec::clear` walk used to pay, without its allocations.
    sharer_heads.clear();
    sharer_heads.resize(n_files + 1, 0);
    for &(_, f) in stream.iter() {
        sharer_heads[f.index() + 1] += 1;
    }
    for i in 0..n_files {
        sharer_heads[i + 1] += sharer_heads[i];
    }
    sharer_len.clear();
    sharer_len.resize(n_files, 0);
    sharer_flat.clear();
    sharer_flat.resize(stream.len(), 0);

    let mut result = SimResult {
        requests: 0,
        one_hop_hits: 0,
        two_hop_hits: 0,
        contributor_seeds: 0,
        messages_per_peer: vec![0; n_peers],
    };
    let mut health = SearchHealth::default();

    // The kernel owns every availability, index and adversary branch;
    // a quiet regime takes none of them, so the pre-churn behaviour
    // (and RNG sequence) is preserved exactly.
    let ctx = QueryCtx::new(config, tables, sharer_pool, n_peers);
    let mut books = ctx.books(n_peers);

    for (t, &(peer, file)) in stream.iter().enumerate() {
        let head = sharer_heads[file.index()] as usize;
        let f_len = sharer_len[file.index()] as usize;
        if f_len == 0 {
            // Original contributor.
            result.contributor_seeds += 1;
            sharer_flat[head] = peer;
            sharer_len[file.index()] = 1;
            continue;
        }
        result.requests += 1;
        let req = Request {
            querier: peer,
            file,
            key: t as u64,
            popularity: f_len as u32,
            sharers: &sharer_flat[head..head + f_len],
            start_md: ctx.nominal_md(t as u64, stream.len()),
        };
        // A stranded request acquires nothing: the sharer table stays.
        let Some((walk, _)) = ctx.step(
            walk,
            &req,
            policies,
            peer as usize,
            books.get_mut(peer as usize),
            || ctx.fallback(t as u64, req.sharers),
            &mut result.messages_per_peer,
            &mut health,
        ) else {
            continue;
        };
        match walk.uploader {
            Some(_) if walk.two_hop => result.two_hop_hits += 1,
            Some(_) => result.one_hop_hits += 1,
            None => {}
        }
        sharer_flat[head + f_len] = peer;
        sharer_len[file.index()] += 1;
    }

    (result, health)
}

/// The original (pre-arena) implementation, kept structurally intact as
/// a correctness oracle: `deterministic_under_seed`, the property tests
/// and the benchmark harness all compare the arena and split-cell paths
/// against it. The only change since the seed version is the server
/// fallback, which is now drawn statelessly from the stream position
/// (see `fallback_index`) in lockstep with the optimised paths.
pub fn simulate_reference(
    caches: &[Vec<FileRef>],
    n_files: usize,
    config: &SimConfig,
) -> SimResult {
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Sharers (non-free-riders) are the candidate pool for random lists.
    let sharer_pool: Vec<Peer> = caches
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .map(|(p, _)| p as Peer)
        .collect();

    // Request stream: a uniformly shuffled multiset of (peer, file).
    let mut stream: Vec<(u32, FileRef)> = caches
        .iter()
        .enumerate()
        .flat_map(|(p, cache)| cache.iter().map(move |&f| (p as u32, f)))
        .collect();
    shuffle(&mut stream, &mut rng);

    // Mutable simulation state.
    let mut policies: Vec<NeighbourList> = (0..caches.len())
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
    // Who currently shares each file (grow-only), and each peer's
    // current holdings for O(1) "does neighbour n share f" checks.
    let mut sharers: Vec<Vec<Peer>> = vec![Vec::new(); n_files];
    let mut holdings: Vec<HashSet<FileRef>> = vec![HashSet::new(); caches.len()];

    let mut result = SimResult {
        requests: 0,
        one_hop_hits: 0,
        two_hop_hits: 0,
        contributor_seeds: 0,
        messages_per_peer: vec![0; caches.len()],
    };

    for (t, (peer, file)) in stream.into_iter().enumerate() {
        let peer_idx = peer as usize;
        let file_sharers = &sharers[file.index()];
        if file_sharers.is_empty() {
            // Original contributor.
            result.contributor_seeds += 1;
            sharers[file.index()].push(peer);
            holdings[peer_idx].insert(file);
            continue;
        }
        result.requests += 1;

        // Querying loads every one-hop neighbour.
        for n in policies[peer_idx].neighbours() {
            result.messages_per_peer[n as usize] += 1;
        }

        // One-hop: does any current sharer sit in the neighbour list?
        // Iterating sharers (popularity-sized) beats iterating the list
        // for rare files, and is equivalent.
        let policy = &policies[peer_idx];
        let mut uploader: Option<Peer> = file_sharers.iter().copied().find(|&s| policy.contains(s));
        let mut hop = 1;

        // Two-hop: query each neighbour's neighbours.
        if uploader.is_none() && config.two_hop {
            'outer: for n in policies[peer_idx].neighbours() {
                for &s in file_sharers {
                    if s != peer && policies[n as usize].contains(s) {
                        uploader = Some(s);
                        hop = 2;
                        break 'outer;
                    }
                }
            }
        }

        match uploader {
            Some(_) if hop == 1 => result.one_hop_hits += 1,
            Some(_) => result.two_hop_hits += 1,
            None => {
                // Server fallback: a uniform current sharer uploads the
                // file, picked statelessly from the stream position.
                let pick = file_sharers[fallback_index(config.seed, t as u64, file_sharers.len())];
                uploader = Some(pick);
            }
        }

        let uploader = uploader.expect("an uploader always exists here");
        let sources = sharers[file.index()].len() as u32;
        policies[peer_idx].record(uploader, sources);
        sharers[file.index()].push(peer);
        holdings[peer_idx].insert(file);
    }

    result
}

/// True iff a cell can run on the split-cell path of
/// [`crate::experiment::sweep_cells`]: queriers are mutually
/// independent exactly when every request ends in an acquisition that
/// pushes its querier onto the file's sharer list, making arrivals
/// policy-independent.
/// Refusals, hijacks, pollution and zero-outage index forwarding never
/// stop an acquisition; only a server-outage day can strand one. Relays
/// must never matter either (no two-hop). Random lists are no obstacle:
/// they are drawn before the first request, from the generator the
/// stream shuffle leaves behind, so a sweep draws them up front
/// ([`DrawnLists`]).
pub fn split_eligible(config: &SimConfig) -> bool {
    !config.two_hop && config.availability.churn.outage_days.is_empty()
}

/// Every peer's Random list as the batch simulator constructs it —
/// drawn in peer order from the generator the stream shuffle leaves
/// behind — stored flat (CSR over peers). A sweep draws one per (seed,
/// list size) and the serving engine one per cell; both then replay
/// any querier from its list, never from the sequential generator.
#[derive(Clone, Debug)]
pub struct DrawnLists {
    flat: Vec<Peer>,
    off: Vec<u32>,
}

impl DrawnLists {
    /// Draws the lists of peers `0..n_peers`, in peer order, from
    /// `pool`: the picks, list contents and generator state of renewing
    /// one Random [`NeighbourList`] per peer with the same arguments. A
    /// peer-stamp array (`stamp[p] == owner + 1` ⇔ `p` is already
    /// listed) stands in for the list's membership set.
    ///
    /// # Panics
    ///
    /// Panics if `list_size` is zero, like the policy it replays.
    pub fn draw(rng: &mut impl Rng, list_size: usize, pool: &[Peer], n_peers: usize) -> Self {
        assert!(list_size > 0, "neighbour list capacity must be positive");
        let mut stamp = vec![0u32; pool.iter().max().map_or(0, |&p| p as usize + 1)];
        let per_peer = list_size.min(pool.len().saturating_sub(1));
        let mut flat = Vec::with_capacity(n_peers * per_peer);
        let mut off = Vec::with_capacity(n_peers + 1);
        off.push(0);
        for owner in 0..n_peers as Peer {
            draw_random_list(list_size, owner, pool, rng, |pick| {
                let fresh = stamp[pick as usize] != owner + 1;
                if fresh {
                    stamp[pick as usize] = owner + 1;
                    flat.push(pick);
                }
                fresh
            });
            off.push(flat.len() as u32);
        }
        DrawnLists { flat, off }
    }

    /// Adopts fixed lists, one per peer in peer order — the gossip
    /// overlay's converged views, replayed as a Random cell's lists.
    pub(crate) fn from_lists(lists: &[Vec<Peer>]) -> Self {
        let mut off = vec![0];
        off.extend(lists.iter().scan(0, |end, list| {
            *end += list.len() as u32;
            Some(*end)
        }));
        DrawnLists {
            flat: lists.concat(),
            off,
        }
    }

    /// `peer`'s list, in draw order.
    pub fn list(&self, peer: Peer) -> &[Peer] {
        &self.flat[self.off[peer as usize] as usize..self.off[peer as usize + 1] as usize]
    }
}

/// One request of a querier's stream, fully resolved at precomp time:
/// stream position, file, arrival rank, and the file's arrival-CSR base
/// offset — one 16-byte load where the hot loop would otherwise chase
/// three parallel arrays. Shared with [`crate::serve`], which replays
/// the same records as a timed arrival stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct QueryRec {
    pub(crate) t: u32,
    pub(crate) file: FileRef,
    pub(crate) rank: u32,
    pub(crate) off: u32,
}

/// Policy-independent precomputation shared by every split-eligible
/// cell of a sweep that uses the same `(arena, seed)`.
///
/// The key observation: without server outages every consumed stream
/// entry `(p, f)` ends with `p` sharing `f`, so the sharer list of each
/// file — and hence every request's candidate uploader set — depends
/// only on the shuffled stream, never on the policy under test. One
/// pass over the stream therefore fixes, for all cells at once:
///
/// * which entries are contributor seeds (rank 0) vs requests;
/// * each file's sharers *in arrival order* (`arrivals`), of which the
///   first `rank` entries are exactly the file's sharer list at the
///   moment a rank-`rank` request is consumed;
/// * each querier's request positions (`queries`), the unit the
///   work-stealing scheduler splits cells by;
/// * the generator state the Random lists are drawn from.
pub(crate) struct SweepPrecomp {
    pub(crate) seed: u64,
    /// Arrival-ordered sharers per file (CSR over files; each
    /// [`QueryRec`] carries its own row offset, so the offsets table is
    /// consumed during construction rather than stored). One entry per
    /// stream position.
    pub(crate) arrivals: Vec<Peer>,
    /// Fully-resolved requests per querier (CSR over peers); the
    /// offsets double as prefix sums of per-peer request counts.
    pub(crate) queries: Vec<QueryRec>,
    pub(crate) queries_off: Vec<u32>,
    /// Arrival rank per arena CSR entry: `rank_by[k]` is the arrival
    /// rank of peer `p` for file `f` where `k` indexes `(p, f)` in the
    /// arena's own CSR layout — the member-major hit check's O(1)
    /// "when did member `m` start sharing `f`" lookup.
    pub(crate) rank_by: Vec<u32>,
    pub(crate) requests: u64,
    pub(crate) contributor_seeds: u64,
    pub(crate) n_peers: usize,
    /// Sharers (non-free-riders): the Random policy's candidate pool.
    pub(crate) sharer_pool: Vec<Peer>,
    /// The generator where the shuffle left it. The batch simulator
    /// seeds one `StdRng`, shuffles the stream, then constructs the
    /// per-peer policies from the *same* generator, so Random lists are
    /// drawn from a copy of this state ([`SweepPrecomp::draw_lists`]).
    rng: StdRng,
}

impl SweepPrecomp {
    /// Builds the precomputation: one shuffle plus two linear passes.
    ///
    /// The stream is shuffled as `(peer, file, arena CSR index)` triples
    /// rather than the batch path's `(peer, file)` pairs: same length,
    /// same Fisher–Yates draws, hence the same permutation and the same
    /// post-shuffle generator — but each entry now names its own
    /// `rank_by` slot, so no per-replica row search is needed, and
    /// carries its file, so neither pass reads the arena again.
    pub fn new(arena: &CacheArena, seed: u64) -> Self {
        let n_peers = arena.n_peers();
        let n_files = arena.n_files();
        let (entries, offsets) = arena.as_csr_parts();
        let mut rng = StdRng::seed_from_u64(seed);

        let mut stream: Vec<(u32, FileRef, u32)> = Vec::with_capacity(entries.len());
        for p in 0..n_peers {
            let row = offsets[p]..offsets[p + 1];
            stream.extend(row.map(|k| (p as u32, entries[k as usize], k)));
        }
        shuffle(&mut stream, &mut rng);

        // Per file: `[arrival CSR row start, arrivals so far]` — the
        // replica counts prefix-summed, then a cursor on one cache line.
        let mut rows = vec![[0u32; 2]; n_files + 1];
        for f in entries {
            rows[f.index() + 1][0] += 1;
        }
        for i in 0..n_files {
            rows[i + 1][0] += rows[i][0];
        }

        // Single pass: per-entry rank (straight into its arena slot,
        // and over the entry's now-spent CSR index), arrival-ordered
        // sharers, per-peer request counts.
        let mut rank_by = vec![0u32; stream.len()];
        let mut arrivals = vec![0 as Peer; stream.len()];
        let mut per_peer = vec![0u32; n_peers];
        let mut requests = 0u64;
        for entry in stream.iter_mut() {
            let (p, f, k) = *entry;
            let row = &mut rows[f.index()];
            let r = row[1];
            row[1] += 1;
            rank_by[k as usize] = r;
            arrivals[(row[0] + r) as usize] = p;
            entry.2 = r;
            if r > 0 {
                per_peer[p as usize] += 1;
                requests += 1;
            }
        }
        let contributor_seeds = stream.len() as u64 - requests;

        // Request positions per querier (CSR over peers).
        let mut queries_off = vec![0u32; n_peers + 1];
        for p in 0..n_peers {
            queries_off[p + 1] = queries_off[p] + per_peer[p];
        }
        let mut qcursor: Vec<u32> = queries_off[..n_peers].to_vec();
        let blank = QueryRec {
            t: 0,
            file: FileRef(0),
            rank: 0,
            off: 0,
        };
        let mut queries = vec![blank; requests as usize];
        for (t, &(p, file, rank)) in stream.iter().enumerate() {
            if rank > 0 {
                queries[qcursor[p as usize] as usize] = QueryRec {
                    t: t as u32,
                    file,
                    rank,
                    off: rows[file.index()][0],
                };
                qcursor[p as usize] += 1;
            }
        }

        SweepPrecomp {
            seed,
            arrivals,
            queries,
            queries_off,
            rank_by,
            requests,
            contributor_seeds,
            n_peers,
            sharer_pool: (0..n_peers)
                .filter(|&p| offsets[p] < offsets[p + 1])
                .map(|p| p as Peer)
                .collect(),
            rng,
        }
    }

    /// Every peer's Random list of length `list_size` under this seed.
    pub(crate) fn draw_lists(&self, list_size: usize) -> DrawnLists {
        DrawnLists::draw(
            &mut self.rng.clone(),
            list_size,
            &self.sharer_pool,
            self.n_peers,
        )
    }

    /// Length of the request stream (requests plus contributor seeds),
    /// the denominator of every nominal instant.
    pub(crate) fn stream_len(&self) -> usize {
        self.arrivals.len()
    }

    /// The seed this precomputation was built for.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Requests issued by queriers in `[lo, hi)` — the scheduler's cost
    /// estimate for a subtask.
    pub fn requests_in(&self, lo: u32, hi: u32) -> u64 {
        u64::from(self.queries_off[hi as usize]) - u64::from(self.queries_off[lo as usize])
    }

    /// Splits the peer space into at most `chunks` contiguous ranges of
    /// roughly equal request counts. Any partition yields bit-identical
    /// sweep results (queriers are independent); this one just balances
    /// the work-stealing queue.
    pub fn peer_ranges(&self, chunks: usize) -> Vec<(u32, u32)> {
        let n = self.n_peers as u32;
        if n == 0 {
            return Vec::new();
        }
        let target = self.requests.div_ceil(chunks.max(1) as u64).max(1);
        let mut ranges = Vec::new();
        let mut lo = 0u32;
        while lo < n {
            let mut hi = lo + 1;
            while hi < n && self.requests_in(lo, hi) < target {
                hi += 1;
            }
            ranges.push((lo, hi));
            lo = hi;
        }
        ranges
    }

    /// The sharer list `rec`'s file had when the request was consumed:
    /// its first `rank` arrivals.
    pub(crate) fn prefix(&self, rec: &QueryRec) -> &[Peer] {
        &self.arrivals[rec.off as usize..rec.off as usize + rec.rank as usize]
    }
}

/// Per-worker scratch for the per-querier replays (the split sweep and
/// the serving engine): one pooled list, array-indexed over the
/// population and renewed per querier, the kernel's walk buffers, and
/// the quiet replay's interval ledger and member bitset.
#[derive(Debug, Default)]
pub struct SplitScratch {
    policy: Option<NeighbourList>,
    walk: WalkScratch,
    /// Quiet replays: `start_of[p]` is the request index at which
    /// member `p` became queryable — messages are settled per
    /// *interval* on eviction instead of per request. Only meaningful
    /// while `p` is a member.
    start_of: Vec<u32>,
    /// Quiet replays: the members as a bitset over peers, kept from
    /// each record's delta — ~2.5 KB at repro scale, so the hit check's
    /// prefix scan probes L1. All-zero between queriers (members are
    /// unset during settling).
    bits: Vec<u64>,
}

impl SplitScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renews the pooled list for `querier` under `config`, from its
    /// `drawn` list, growing the peer-indexed buffers to `n_peers`.
    fn renew(&mut self, config: &SimConfig, querier: Peer, drawn: &[Peer], n_peers: usize) {
        let (kind, cap) = (config.policy, config.list_size);
        if self.start_of.len() < n_peers {
            self.start_of.resize(n_peers, 0);
            self.bits.resize(n_peers.div_ceil(64), 0);
            self.policy = None;
        }
        self.policy
            .get_or_insert_with(|| {
                NeighbourList::from_drawn(kind, cap, querier, &[]).with_peer_array(n_peers)
            })
            .renew_drawn(kind, cap, querier, drawn);
    }

    /// The list the last querier replayed ended with, in list order.
    pub(crate) fn final_list(&self) -> Vec<Peer> {
        self.policy
            .as_ref()
            .map_or_else(Vec::new, NeighbourList::to_vec)
    }
}

/// Member-major hit check cutoff: prefer probing the (≤ list-size)
/// members against the arena when the file's sharer prefix is this many
/// times longer than the list. Purely a cost heuristic — both probes
/// return the member with the minimal arrival rank, i.e. the same
/// uploader the sequential sharer-order scan finds.
const MEMBER_MAJOR_CUTOFF: usize = 128;

#[inline]
fn bit(bits: &[u64], p: Peer) -> bool {
    bits[(p >> 6) as usize] & (1u64 << (p & 63)) != 0
}

#[inline]
fn flip(bits: &mut [u64], p: Peer) {
    bits[(p >> 6) as usize] ^= 1u64 << (p & 63);
}

/// The one-hop hit of a quiet request: the member with the minimal
/// arrival rank below the request's — exactly the first member in the
/// file's sharer prefix. Popular files (prefix far longer than the
/// list) probe member-major through the arena's rank table; rare files
/// scan the prefix against the member bitset.
#[inline]
fn quiet_hit(
    arena: &CacheArena,
    pre: &SweepPrecomp,
    rec: &QueryRec,
    list: &NeighbourList,
    bits: &[u64],
) -> Option<Peer> {
    let r = rec.rank as usize;
    if r <= MEMBER_MAJOR_CUTOFF * list.len().max(1) {
        return pre.prefix(rec).iter().copied().find(|&s| bit(bits, s));
    }
    let (files, offsets) = arena.as_csr_parts();
    let mut best: Option<(u32, Peer)> = None;
    for m in list.members() {
        let lo = offsets[m as usize] as usize;
        let row = &files[lo..offsets[m as usize + 1] as usize];
        if let Ok(pos) = row.binary_search(&rec.file) {
            let rank = pre.rank_by[lo + pos];
            if (rank as usize) < r && best.is_none_or(|(b, _)| rank < b) {
                best = Some((rank, m));
            }
        }
    }
    best.map(|(_, m)| m)
}

/// One subtask's contribution to a cell: every field merges by plain
/// summation, in any grouping, so the cell merge (`merge_partials`) is
/// exact.
#[derive(Clone, Debug)]
pub struct CellPartial {
    /// One-hop hits by queriers in this range (split cells never
    /// answer at two hops).
    pub one_hop_hits: u64,
    /// Messages received per peer from this range's queriers.
    pub messages: Vec<u64>,
    /// Availability ledger restricted to this range's requests.
    pub health: SearchHealth,
    /// Nanoseconds in the hit check (only when profiling).
    pub intersect_ns: u64,
    /// Nanoseconds in policy updates + message settling (profiling).
    pub update_ns: u64,
}

impl CellPartial {
    /// An all-zero partial covering no queriers — the identity of
    /// [`CellPartial::absorb`].
    pub fn empty(n_peers: usize) -> Self {
        CellPartial {
            one_hop_hits: 0,
            messages: vec![0; n_peers],
            health: SearchHealth::default(),
            intersect_ns: 0,
            update_ns: 0,
        }
    }

    /// Folds another partial in. Every field merges by plain summation
    /// over disjoint querier sets — the property `merge_partials` rests
    /// on — so windows can be accumulated one at a time without ever
    /// holding more than one partial (the bounded-working-set sweep's
    /// memory contract).
    pub fn absorb(&mut self, other: &CellPartial) {
        self.one_hop_hits += other.one_hop_hits;
        for (dst, &src) in self.messages.iter_mut().zip(&other.messages) {
            *dst += src;
        }
        self.health += other.health;
        self.intersect_ns += other.intersect_ns;
        self.update_ns += other.update_ns;
    }
}

/// Simulates queriers `peers.0 .. peers.1` of one split-eligible cell.
///
/// Replays exactly the per-querier slice of what
/// [`simulate_arena_health_with_scratch`] would do: the same request
/// order (a querier's requests keep their global stream order), the
/// same kernel steps, the same stateless fallback picks. Because
/// split-eligible queriers never observe each other's lists, the
/// concatenation of any partition's partials is bit-identical to the
/// sequential run — the property the sweep determinism tests pin down.
///
/// `drawn` holds the cell's Random lists ([`SweepPrecomp::draw_lists`];
/// `None` for every other policy) and `tables` the sweep's churn and
/// role tables. `profile` additionally meters the hit-check and update
/// stages into the partial (off the sweeps' timed path; the metered run
/// is a separate pass).
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_cell_range(
    arena: &CacheArena,
    pre: &SweepPrecomp,
    drawn: Option<&DrawnLists>,
    tables: &Tables,
    config: &SimConfig,
    peers: (u32, u32),
    scratch: &mut SplitScratch,
    profile: bool,
) -> CellPartial {
    debug_assert!(split_eligible(config), "cell must be split-eligible");
    debug_assert_eq!(config.seed, pre.seed, "precomp seed must match the cell");
    debug_assert_eq!(drawn.is_some(), config.policy == PolicyKind::Random);
    let mut part = CellPartial::empty(pre.n_peers);
    let ctx = QueryCtx::new(config, tables, &pre.sharer_pool, pre.n_peers);
    for p in peers.0..peers.1 {
        let lo = pre.queries_off[p as usize] as usize;
        let hi = pre.queries_off[p as usize + 1] as usize;
        if lo == hi {
            continue;
        }
        let requests = &pre.queries[lo..hi];
        replay_querier(
            arena,
            pre,
            &ctx,
            config,
            p,
            requests,
            drawn.map_or(&[][..], |d| d.list(p)),
            scratch,
            profile,
            &mut part,
            |_, _| {},
        );
    }
    part
}

/// One request of a per-querier replay: its precomputed record and the
/// instant its walk starts. The split sweep replays a querier's records
/// in stream order at their nominal instants; the serving engine
/// replays the served ones in service order at their service instants.
pub(crate) trait Replayed {
    /// The precomputed request.
    fn rec(&self) -> &QueryRec;
    /// Instant of the request's first attempt, in milli-days.
    fn start_md(&self, ctx: &QueryCtx, pre: &SweepPrecomp) -> u64;
}

impl Replayed for QueryRec {
    #[inline(always)]
    fn rec(&self) -> &QueryRec {
        self
    }

    #[inline(always)]
    fn start_md(&self, ctx: &QueryCtx, pre: &SweepPrecomp) -> u64 {
        ctx.nominal_md(u64::from(self.t), pre.stream_len())
    }
}

/// Replays one querier's `requests`, in order, into `part` — the split
/// path the sweep and the serving engine share — on the worker's pooled
/// list, renewed from `drawn`, the querier's constructed Random list
/// (empty for every other policy). `walked` hears each request's walk
/// latency in milli-days: a round trip per attempt, the retry backoff,
/// and a miss's index routing.
///
/// Churn or an adversary takes the kernel's full step, with messages
/// counted per request (attempts differ per request). A quiet cell
/// queries every member once per request, so it keeps the quiet rules:
/// messages settle per membership interval, the hit is the member of
/// minimal arrival rank ([`quiet_hit`]), and nothing walks the list. A
/// quiet Random list never changes, so it records nothing and every
/// member settles once, at the end.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_querier<R: Replayed>(
    arena: &CacheArena,
    pre: &SweepPrecomp,
    ctx: &QueryCtx,
    config: &SimConfig,
    querier: Peer,
    requests: &[R],
    drawn: &[Peer],
    scratch: &mut SplitScratch,
    profile: bool,
    part: &mut CellPartial,
    mut walked: impl FnMut(&R, u64),
) {
    scratch.renew(config, querier, drawn, pre.n_peers);
    let SplitScratch {
        policy,
        walk,
        start_of,
        bits,
    } = scratch;
    let list = policy.as_mut().expect("renewed above");
    if !config.availability.is_quiet() {
        let mut books = ctx.books(1);
        for req in requests {
            let rec = req.rec();
            let request = Request {
                querier,
                file: rec.file,
                key: u64::from(rec.t),
                popularity: rec.rank,
                sharers: pre.prefix(rec),
                start_md: req.start_md(ctx, pre),
            };
            let t0 = profile.then(Instant::now);
            let (walk, route_md) = ctx
                .step(
                    walk,
                    &request,
                    std::slice::from_mut(list),
                    0,
                    books.first_mut(),
                    || ctx.fallback(request.key, request.sharers),
                    &mut part.messages,
                    &mut part.health,
                )
                .expect("replayed cells have no outages");
            if let Some(t0) = t0 {
                part.intersect_ns += t0.elapsed().as_nanos() as u64;
            }
            part.one_hop_hits += u64::from(walk.uploader.is_some());
            walked(req, walk.latency_md(route_md));
        }
        return;
    }

    for &m in drawn {
        flip(bits, m);
        start_of[m as usize] = 0;
    }
    let records = config.policy != PolicyKind::Random;
    for (q, req) in requests.iter().enumerate() {
        let (q, rec) = (q as u32, req.rec());
        let t0 = profile.then(Instant::now);
        let hit = quiet_hit(arena, pre, rec, list, bits);
        if let Some(t0) = t0 {
            part.intersect_ns += t0.elapsed().as_nanos() as u64;
        }

        // No outage days here: nothing is recovered, every miss
        // resolves, and a route does not depend on the instant.
        part.health.attempted += 1;
        let (uploader, route_md) = match hit {
            Some(u) => {
                part.one_hop_hits += 1;
                part.health.answered += 1;
                (u, 0)
            }
            None => {
                let route_md = ctx
                    .resolve_miss(querier, rec.file, false, 0, &mut part.health)
                    .expect("replayed cells have no outages");
                (ctx.fallback(u64::from(rec.t), pre.prefix(rec)), route_md)
            }
        };
        walked(req, QUERY_RTT_MD + route_md);
        if !records {
            continue;
        }

        // Policy update + interval settling: a member evicted after
        // request `q` was queried during `[start, q]`.
        let t0 = profile.then(Instant::now);
        let (added, removed) = list.record(uploader, rec.rank);
        if let Some(rm) = removed {
            part.messages[rm as usize] += u64::from(q + 1 - start_of[rm as usize]);
            flip(bits, rm);
        }
        if let Some(ad) = added {
            start_of[ad as usize] = q + 1;
            flip(bits, ad);
        }
        if let Some(t0) = t0 {
            part.update_ns += t0.elapsed().as_nanos() as u64;
        }
    }
    // Settle members still listed at the end of the querier's stream,
    // clearing their membership bits for the next querier.
    let total = requests.len() as u32;
    for m in list.members() {
        part.messages[m as usize] += u64::from(total - start_of[m as usize]);
        flip(bits, m);
    }
}

/// Merges a split cell's subtask partials back into the sequential
/// result: totals and per-peer loads are sums over disjoint querier
/// sets, so addition in any order reproduces the whole-cell run
/// bit-for-bit; the stream-level totals (requests, contributor seeds)
/// come from the precomputation.
pub(crate) fn merge_partials(
    pre: &SweepPrecomp,
    parts: &[CellPartial],
) -> (SimResult, SearchHealth) {
    let mut acc = CellPartial::empty(pre.n_peers);
    for part in parts {
        acc.absorb(part);
    }
    let result = SimResult {
        requests: pre.requests,
        one_hop_hits: acc.one_hop_hits,
        two_hop_hits: 0,
        contributor_seeds: pre.contributor_seeds,
        messages_per_peer: acc.messages,
    };
    (result, acc.health)
}

/// Fisher–Yates shuffle (kept local: `rand`'s `SliceRandom` would work,
/// but an explicit implementation keeps the request-order contract
/// obvious and seed-stable across `rand` versions).
fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileRef {
        FileRef(i)
    }

    /// One cell through the sweep scheduler, on one thread.
    fn cell(
        caches: &[Vec<FileRef>],
        n_files: usize,
        config: &SimConfig,
    ) -> (SimResult, SearchHealth) {
        let arena = CacheArena::from_caches(caches, n_files);
        crate::experiment::sweep_cells_threads(&arena, std::slice::from_ref(config), 1).remove(0)
    }

    /// A tight community: 10 peers sharing the same 20 files.
    fn community(n_peers: u32, n_files: u32) -> Vec<Vec<FileRef>> {
        (0..n_peers)
            .map(|_| (0..n_files).map(f).collect())
            .collect()
    }

    #[test]
    fn accounting_adds_up() {
        let caches = community(10, 20);
        let result = cell(&caches, 20, &SimConfig::lru(5)).0;
        assert_eq!(
            result.requests + result.contributor_seeds,
            200,
            "every (peer, file) pair is consumed exactly once"
        );
        assert_eq!(
            result.contributor_seeds, 20,
            "each file has one contributor"
        );
        assert!(result.hits() <= result.requests);
    }

    #[test]
    fn clustered_caches_give_high_lru_hit_rates() {
        let caches = community(10, 40);
        let result = cell(&caches, 40, &SimConfig::lru(5)).0;
        // Everyone's neighbours quickly converge on the community.
        assert!(
            result.hit_rate() > 0.6,
            "hit rate {} too low for a perfect community",
            result.hit_rate()
        );
    }

    #[test]
    fn random_policy_is_much_worse_on_disjoint_communities() {
        // 20 communities of 5 peers with disjoint file sets.
        let mut caches = Vec::new();
        for c in 0..20u32 {
            for _ in 0..5 {
                caches.push((0..10).map(|k| f(c * 10 + k)).collect());
            }
        }
        let lru = cell(&caches, 200, &SimConfig::lru(4)).0;
        let random = cell(&caches, 200, &SimConfig::random(4)).0;
        assert!(
            lru.hit_rate() > random.hit_rate() + 0.2,
            "LRU {} vs random {}",
            lru.hit_rate(),
            random.hit_rate()
        );
    }

    #[test]
    fn history_also_learns() {
        let caches = community(10, 40);
        let result = cell(&caches, 40, &SimConfig::history(5)).0;
        assert!(
            result.hit_rate() > 0.5,
            "history hit rate {}",
            result.hit_rate()
        );
    }

    #[test]
    fn two_hop_never_hurts() {
        let mut caches = Vec::new();
        for c in 0..10u32 {
            for _ in 0..6 {
                caches.push((0..8).map(|k| f(c * 8 + k)).collect());
            }
        }
        let one = cell(&caches, 80, &SimConfig::lru(3)).0;
        let two = cell(&caches, 80, &SimConfig::lru(3).with_two_hop()).0;
        assert!(two.hit_rate() >= one.hit_rate());
        assert!(two.two_hop_hits > 0, "two-hop must answer something");
        assert_eq!(one.two_hop_hits, 0);
    }

    #[test]
    fn free_riders_issue_nothing_and_receive_nothing() {
        let mut caches = community(5, 10);
        caches.push(vec![]); // a free-rider
        let result = cell(&caches, 10, &SimConfig::lru(5)).0;
        assert_eq!(result.messages_per_peer[5], 0);
        assert_eq!(result.requests + result.contributor_seeds, 50);
    }

    #[test]
    fn load_is_counted_per_queried_neighbour() {
        let caches = community(4, 10);
        let result = cell(&caches, 10, &SimConfig::lru(2)).0;
        let total: u64 = result.messages_per_peer.iter().sum();
        // Each request queries at most 2 neighbours (less while lists
        // warm up).
        assert!(total <= result.requests * 2);
        assert!(total > 0);
        assert!(result.max_load() >= result.mean_load() as u64);
        let ranked = result.load_by_rank();
        assert!(ranked.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn deterministic_under_seed() {
        let caches = community(8, 15);
        let a = cell(&caches, 15, &SimConfig::lru(5).with_seed(9)).0;
        let b = cell(&caches, 15, &SimConfig::lru(5).with_seed(9)).0;
        assert_eq!(a, b);
        let c = cell(&caches, 15, &SimConfig::lru(5).with_seed(10)).0;
        // Different order, same accounting identity.
        assert_eq!(c.requests + c.contributor_seeds, 120);
        // The arena rewrite preserves the RNG call sequence exactly, so
        // the legacy implementation must agree bit-for-bit — across
        // policies, hop modes and scratch reuse.
        let mut scratch = SimScratch::new();
        let arena = CacheArena::from_caches(&caches, 15);
        for config in [
            SimConfig::lru(5).with_seed(9),
            SimConfig::lru(5).with_seed(10),
            SimConfig::history(4).with_seed(9),
            SimConfig::random(3).with_seed(9),
            SimConfig::rare_lru(5, 3).with_seed(9),
            SimConfig::lru(3).with_seed(9).with_two_hop(),
        ] {
            let legacy = simulate_reference(&caches, 15, &config);
            let fresh = cell(&caches, 15, &config).0;
            let reused = simulate_arena_health_with_scratch(&arena, &config, &mut scratch).0;
            assert_eq!(legacy, fresh, "config {config:?}");
            assert_eq!(legacy, reused, "config {config:?} (reused scratch)");
        }
    }

    #[test]
    fn empty_input() {
        let result = cell(&[], 0, &SimConfig::lru(5)).0;
        assert_eq!(result.requests, 0);
        assert_eq!(result.hit_rate(), 0.0);
        assert_eq!(result.mean_load(), 0.0);
        assert_eq!(result.max_load(), 0);
        let (result, health) = cell(&[], 0, &SimConfig::lru(5));
        assert!(health.check_against(&result).is_ok());
        assert_eq!(health, SearchHealth::default());
    }

    #[test]
    fn quiet_availability_is_bit_identical_to_reference() {
        let caches = community(8, 15);
        // A quiet schedule with a non-trivial seed and span, retries
        // armed: none of it may move a single bit.
        let quiet = AvailabilityConfig {
            churn: ChurnConfig::with_rate(0xdead_beef, 0),
            query: QueryPolicy::retry_evict(),
            virtual_days: 97,
            backend: IndexBackend::SingleServer,
            adversary: AdversaryConfig::sybils(0xfeed, 0),
            reputation: true,
        };
        assert!(quiet.is_quiet());
        for base in [
            SimConfig::lru(5).with_seed(9),
            SimConfig::history(4).with_seed(9),
            SimConfig::random(3).with_seed(9),
            SimConfig::rare_lru(5, 3).with_seed(9),
            SimConfig::lru(3).with_seed(9).with_two_hop(),
        ] {
            let reference = simulate_reference(&caches, 15, &base);
            let config = base.with_availability(quiet.clone());
            let (result, health) = cell(&caches, 15, &config);
            assert_eq!(reference, result, "config {config:?}");
            assert!(health.check_against(&result).is_ok());
            assert_eq!(health.timed_out, 0);
            assert_eq!(health.retried, 0);
            assert_eq!(health.evicted_stale + health.probed_stale, 0);
            assert_eq!(health.stranded, 0);
            assert_eq!(health.recovered, 0);
            assert_eq!(health.attempted, result.requests);
        }
    }

    #[test]
    fn churn_reconciles_for_every_policy() {
        let caches = community(10, 30);
        for permille in [100u32, 250, 500, 1000] {
            for base in [
                SimConfig::lru(5),
                SimConfig::history(5),
                SimConfig::random(5),
                SimConfig::rare_lru(5, 3),
                SimConfig::lru(4).with_two_hop(),
            ] {
                for query in [QueryPolicy::no_retry(), QueryPolicy::retry_evict()] {
                    let config = base.clone().with_availability(
                        AvailabilityConfig::churn(7, permille).with_query(query),
                    );
                    let (result, health) = cell(&caches, 30, &config);
                    health
                        .check_against(&result)
                        .unwrap_or_else(|e| panic!("{e} (config {config:?})"));
                    assert!(health.timed_out > 0, "churn {permille} must bite");
                }
            }
        }
    }

    #[test]
    fn churn_degrades_hits_monotonically() {
        let caches = community(12, 40);
        let hit_at = |permille: u32| {
            let config =
                SimConfig::lru(6).with_availability(AvailabilityConfig::churn(3, permille));
            cell(&caches, 40, &config).0.hits()
        };
        let h0 = hit_at(0);
        let h250 = hit_at(250);
        let h1000 = hit_at(1000);
        assert!(h0 > 0);
        assert!(h250 < h0, "25% churn must cost hits ({h250} vs {h0})");
        assert_eq!(h1000, 0, "permanently offline neighbours never answer");
    }

    #[test]
    fn retries_recover_hits_under_churn() {
        let caches = community(12, 40);
        let run = |query: QueryPolicy| {
            let config = SimConfig::lru(6)
                .with_availability(AvailabilityConfig::churn(3, 250).with_query(query));
            cell(&caches, 40, &config)
        };
        let (none, none_health) = run(QueryPolicy::no_retry());
        let (retry, retry_health) = run(QueryPolicy::retry_evict());
        assert!(retry_health.retried > 0);
        assert_eq!(none_health.retried, 0);
        assert!(
            retry.hits() > none.hits(),
            "retry {} vs no-retry {}",
            retry.hits(),
            none.hits()
        );
    }

    #[test]
    fn outage_strands_and_recovers() {
        let caches = community(10, 30);
        // The server dies halfway through the 14-day span: the warmed
        // overlay keeps answering (recovered), misses strand.
        let late_days: Vec<u32> = (7..200).collect();
        let config = SimConfig::lru(5).with_availability(
            AvailabilityConfig::churn(3, 250)
                .with_query(QueryPolicy::retry_evict())
                .with_outages(late_days),
        );
        let (result, health) = cell(&caches, 30, &config);
        assert!(health.check_against(&result).is_ok());
        assert!(health.stranded > 0, "outage misses must strand");
        assert!(health.recovered > 0, "the warm overlay still answers");
        assert!(health.server_fallback > 0, "pre-outage misses fall back");
        assert_eq!(
            health.stranded + health.server_fallback,
            result.requests - result.hits()
        );

        // Server down from day 0: adaptive lists can never bootstrap —
        // the first acquisition needs the server — so nothing is ever
        // answered. Server-less search still *depends* on a server to
        // seed its links.
        let all_days: Vec<u32> = (0..200).collect();
        let config = SimConfig::lru(5).with_availability(
            AvailabilityConfig::churn(3, 250)
                .with_query(QueryPolicy::retry_evict())
                .with_outages(all_days),
        );
        let (result, health) = cell(&caches, 30, &config);
        assert!(health.check_against(&result).is_ok());
        assert_eq!(health.server_fallback, 0, "no server to fall back to");
        assert_eq!(result.hits(), 0, "LRU lists never seed without a server");
        assert_eq!(health.stranded, result.requests);

        // No outage, same churn: nothing strands, nothing to recover.
        let config = SimConfig::lru(5).with_availability(
            AvailabilityConfig::churn(3, 250).with_query(QueryPolicy::retry_evict()),
        );
        let (result, health) = cell(&caches, 30, &config);
        assert!(health.check_against(&result).is_ok());
        assert_eq!(health.stranded, 0);
        assert_eq!(health.recovered, 0);
        assert!(health.server_fallback > 0);
    }

    #[test]
    fn churn_runs_are_deterministic() {
        let caches = community(9, 25);
        let config = SimConfig::history(5).with_availability(
            AvailabilityConfig::churn(11, 400)
                .with_query(QueryPolicy::retry_evict())
                .with_outages(vec![2, 3]),
        );
        let a = cell(&caches, 25, &config);
        let b = cell(&caches, 25, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn reconcile_rejects_violations() {
        let health = SearchHealth {
            attempted: 5,
            answered: 3,
            server_fallback: 2,
            ..SearchHealth::default()
        };
        assert!(health.reconcile(5, 3, 0).is_ok());
        let err = health.reconcile(5, 2, 0).unwrap_err();
        assert!(err.contains("answered"), "{err}");
        let err = health.reconcile(6, 3, 0).unwrap_err();
        assert!(err.contains("requests"), "{err}");
        let bad = SearchHealth {
            recovered: 4,
            ..health
        };
        assert!(bad.reconcile(5, 3, 0).is_err());
        let bad = SearchHealth {
            attempted: 9,
            ..health
        };
        let err = bad.reconcile(5, 3, 0).unwrap_err();
        assert!(err.contains("retried"), "{err}");
        // Hops without a single fallback lookup cannot happen.
        let bad = SearchHealth {
            attempted: 5,
            answered: 5,
            server_fallback: 0,
            forwarded: 2,
            ..SearchHealth::default()
        };
        let err = bad.reconcile(5, 5, 0).unwrap_err();
        assert!(err.contains("fallback lookup"), "{err}");
    }

    #[test]
    fn reconcile_rejects_adversary_violations() {
        let health = SearchHealth {
            attempted: 5,
            answered: 3,
            server_fallback: 2,
            ..SearchHealth::default()
        };
        let bad = SearchHealth {
            polluted_acquisitions: 3,
            ..health
        };
        let err = bad.reconcile(5, 3, 0).unwrap_err();
        assert!(err.contains("polluted_acquisitions"), "{err}");
        let bad = SearchHealth {
            sybil_slots_held: 6,
            ..health
        };
        let err = bad.reconcile(5, 3, 0).unwrap_err();
        assert!(err.contains("sybil_slots_held"), "{err}");
        let bad = SearchHealth {
            reputation_evictions: 1,
            ..health
        };
        let err = bad.reconcile(5, 3, 0).unwrap_err();
        assert!(err.contains("reputation_evictions"), "{err}");
        let ok = SearchHealth {
            sybil_slots_held: 2,
            polluted_acquisitions: 1,
            reputation_evictions: 1,
            wasted_queries: 9,
            ..health
        };
        assert!(ok.reconcile(5, 3, 0).is_ok());
    }

    #[test]
    fn adversary_reconciles_and_counts_every_attack_kind() {
        let caches = community(30, 60);
        for base in [
            SimConfig::lru(5),
            SimConfig::history(5),
            SimConfig::random(5),
            SimConfig::rare_lru(5, 3),
            SimConfig::lru(4).with_two_hop(),
        ] {
            let config = base.with_availability(
                AvailabilityConfig::none().with_adversary(
                    AdversaryConfig::sybils(21, 150)
                        .with_polluters(150)
                        .with_freeriders(150),
                ),
            );
            let (result, health) = cell(&caches, 60, &config);
            health
                .check_against(&result)
                .unwrap_or_else(|e| panic!("{e} (config {config:?})"));
            assert!(health.wasted_queries > 0, "refusals must bite");
            assert!(health.sybil_slots_held > 0, "sybils must capture slots");
            assert!(
                health.polluted_acquisitions > 0,
                "polluters must poison fallbacks"
            );
            assert_eq!(health.reputation_evictions, 0, "defense is off");
        }
    }

    #[test]
    fn adversary_degrades_hits_and_defense_recovers_them() {
        let caches = community(30, 60);
        let run = |adversary: AdversaryConfig, reputation: bool| {
            let mut avail = AvailabilityConfig::none().with_adversary(adversary);
            if reputation {
                avail = avail.with_reputation();
            }
            cell(&caches, 60, &SimConfig::lru(4).with_availability(avail))
        };
        let (honest, _) = run(AdversaryConfig::none(), false);
        let (attacked, attacked_health) = run(AdversaryConfig::sybils(21, 300), false);
        assert!(
            attacked.hits() < honest.hits(),
            "a 30% sybil plan must cost hits ({} vs {})",
            attacked.hits(),
            honest.hits()
        );
        let (defended, defended_health) = run(AdversaryConfig::sybils(21, 300), true);
        assert!(
            defended_health.reputation_evictions > 0,
            "defense must fire"
        );
        assert!(
            defended.hits() > attacked.hits(),
            "defense must recover hits ({} vs {})",
            defended.hits(),
            attacked.hits()
        );
        assert!(attacked_health.reputation_evictions == 0);
    }

    #[test]
    fn armed_defense_is_bitwise_free_on_honest_runs() {
        // `reputation: true` with a quiet adversary plan must change
        // nothing — even under churn, where the defense's walk branch
        // sits next to live timeout handling.
        let caches = community(10, 30);
        for base in [
            SimConfig::lru(5),
            SimConfig::history(5),
            SimConfig::random(5),
            SimConfig::rare_lru(5, 3),
        ] {
            let avail = AvailabilityConfig::churn(7, 250).with_query(QueryPolicy::retry_evict());
            let plain = base.clone().with_availability(avail.clone());
            let armed = base.with_availability(avail.with_reputation());
            assert_eq!(cell(&caches, 30, &plain), cell(&caches, 30, &armed));
        }
    }

    /// The doctored ledger both should-panic tests use: `answered`
    /// disagrees with the hit counts.
    fn doctored_cell() -> (SearchHealth, SimResult) {
        let health = SearchHealth {
            attempted: 5,
            answered: 3,
            server_fallback: 2,
            ..SearchHealth::default()
        };
        let result = SimResult {
            requests: 5,
            one_hop_hits: 2,
            two_hop_hits: 0,
            contributor_seeds: 0,
            messages_per_peer: Vec::new(),
        };
        (health, result)
    }

    #[test]
    #[should_panic(expected = "(seed 42, list_size 5, churn_rate 250, backend single)")]
    fn reconcile_panic_names_the_cell() {
        // The panic must localize the cell by seed, list size, rate and
        // backend kind.
        let (health, result) = doctored_cell();
        let config = SimConfig::lru(5)
            .with_seed(42)
            .with_availability(AvailabilityConfig::churn(7, 250));
        health.expect_reconciled(&result, &config);
    }

    #[test]
    #[should_panic(expected = "(seed 42, list_size 5, churn_rate 250, backend federated8)")]
    fn reconcile_panic_names_the_forwarding_backend() {
        // A forwarding-backend cell must be named as such: the routing
        // path differs from the single server, so "which backend" is
        // part of the cell identity.
        let (health, result) = doctored_cell();
        let config = SimConfig::lru(5).with_seed(42).with_availability(
            AvailabilityConfig::churn(7, 250)
                .with_backend(IndexBackend::Federated { n_servers: 8 }),
        );
        health.expect_reconciled(&result, &config);
    }

    #[test]
    fn forwarding_backends_account_hops_and_preserve_results() {
        let caches = community(10, 30);
        let (base, base_health) = cell(&caches, 30, &SimConfig::lru(5));
        assert_eq!(base_health.forwarded + base_health.dht_hops, 0);

        // Zero outages: the uploader pick is backend-agnostic, so the
        // SimResult is identical across backends — only the routing-cost
        // counters move.
        let fed = SimConfig::lru(5).with_backend(IndexBackend::Federated { n_servers: 8 });
        let (fed_result, fed_health) = cell(&caches, 30, &fed);
        assert!(fed_health.check_against(&fed_result).is_ok());
        assert_eq!(fed_result, base);
        assert!(fed_health.forwarded > 0, "some fallback must forward");
        assert_eq!(fed_health.dht_hops, 0);

        let dht = SimConfig::lru(5).with_backend(IndexBackend::Dht { replication_k: 3 });
        let (dht_result, dht_health) = cell(&caches, 30, &dht);
        assert!(dht_health.check_against(&dht_result).is_ok());
        assert_eq!(dht_result, base);
        assert!(dht_health.dht_hops > 0, "DHT lookups must walk the ring");
        assert_eq!(dht_health.forwarded, 0);
    }

    #[test]
    fn split_eligibility_is_arrival_invariance() {
        // Only relays (two-hop) and stranding (outage days) couple
        // queriers. Churn, adversaries, the defense, index forwarding
        // and Random's construction draws never stop an acquisition.
        let regimes = [
            AvailabilityConfig::none(),
            AvailabilityConfig::churn(7, 250).with_query(QueryPolicy::retry_evict()),
            AvailabilityConfig::none()
                .with_adversary(AdversaryConfig::sybils(3, 150).with_polluters(150))
                .with_reputation(),
        ];
        let backends = [
            IndexBackend::SingleServer,
            IndexBackend::Federated { n_servers: 4 },
            IndexBackend::Dht { replication_k: 2 },
        ];
        for bits in 0..8u32 {
            let (two_hop, random, outage) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            for (regime, backend) in regimes.iter().flat_map(|r| backends.map(|b| (r, b))) {
                let mut config = if random {
                    SimConfig::random(5)
                } else {
                    SimConfig::history(5)
                };
                config.two_hop = two_hop;
                config.availability = regime.clone().with_backend(backend);
                if outage {
                    config.availability.churn.outage_days = vec![3];
                }
                let expected = !two_hop && !outage;
                assert_eq!(split_eligible(&config), expected, "{config:?}");
            }
        }
    }

    /// The precomputation as first built — shuffle `(peer, file)` pairs,
    /// find every replica's arena slot by a row binary search — written
    /// the plain way: the oracle for [`SweepPrecomp::new`].
    fn precomp_by_search(arena: &CacheArena, seed: u64) -> SweepPrecomp {
        let (n_peers, n_files) = (arena.n_peers(), arena.n_files());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream: Vec<(u32, FileRef)> = Vec::new();
        for p in 0..n_peers {
            stream.extend(arena.cache(p).iter().map(|&f| (p as u32, f)));
        }
        shuffle(&mut stream, &mut rng);

        // Arrival CSR: per-file replica counts prefix-summed, then each
        // entry's rank is how many replicas of its file arrived first.
        let mut off = vec![0u32; n_files + 1];
        for &(_, f) in &stream {
            off[f.index() + 1] += 1;
        }
        for i in 0..n_files {
            off[i + 1] += off[i];
        }
        let mut cursor = off.clone();
        let mut rank = vec![0u32; stream.len()];
        let mut arrivals = vec![0 as Peer; stream.len()];
        for (t, &(p, f)) in stream.iter().enumerate() {
            let c = &mut cursor[f.index()];
            rank[t] = *c - off[f.index()];
            arrivals[*c as usize] = p;
            *c += 1;
        }

        let (mut queries, mut queries_off) = (Vec::new(), vec![0u32]);
        for querier in 0..n_peers as u32 {
            for (t, &(p, file)) in stream.iter().enumerate() {
                if p == querier && rank[t] > 0 {
                    let (rank, off) = (rank[t], off[file.index()]);
                    let t = t as u32;
                    queries.push(QueryRec { t, file, rank, off });
                }
            }
            queries_off.push(queries.len() as u32);
        }

        let offsets = arena.as_csr_parts().1;
        let mut rank_by = vec![0u32; stream.len()];
        for (t, &(p, f)) in stream.iter().enumerate() {
            let pos = arena
                .cache(p as usize)
                .binary_search(&f)
                .expect("arena row");
            rank_by[offsets[p as usize] as usize + pos] = rank[t];
        }

        let requests = queries.len() as u64;
        let contributor_seeds = stream.len() as u64 - requests;
        let sharer_pool = (0..n_peers)
            .filter(|&p| !arena.cache(p).is_empty())
            .map(|p| p as Peer)
            .collect();
        SweepPrecomp {
            seed,
            arrivals,
            queries,
            queries_off,
            rank_by,
            requests,
            contributor_seeds,
            n_peers,
            sharer_pool,
            rng,
        }
    }

    /// Arbitrary arenas: 0–40 peers (1-peer arenas included), rows of
    /// 0–12 picks folded into a 1–64 file id space. Empty rows
    /// (free-riders), single-replica files, files nobody holds, and —
    /// in small id spaces — files nearly every peer holds (arrival
    /// ranks in the 30s) all occur.
    fn arb_arena() -> impl proptest::Strategy<Value = (CacheArena, u64)> {
        use proptest::prelude::*;
        (
            prop::collection::vec(prop::collection::vec(0u32..64, 0..12), 0..40),
            1u32..64,
            any::<u64>(),
        )
            .prop_map(|(rows, n_files, seed)| {
                let caches: Vec<Vec<FileRef>> = rows
                    .into_iter()
                    .map(|row| row.into_iter().map(|f| FileRef(f % n_files)).collect())
                    .collect();
                (CacheArena::from_caches(&caches, n_files as usize), seed)
            })
    }

    /// Field-for-field equality with the oracle, plus the next draw of
    /// the post-shuffle generator.
    fn assert_matches_oracle(arena: &CacheArena, seed: u64) {
        let got = SweepPrecomp::new(arena, seed);
        let want = precomp_by_search(arena, seed);
        assert_eq!(got.seed, want.seed);
        assert_eq!(got.arrivals, want.arrivals);
        assert_eq!(got.queries, want.queries);
        assert_eq!(got.queries_off, want.queries_off);
        assert_eq!(got.rank_by, want.rank_by);
        assert_eq!(got.requests, want.requests);
        assert_eq!(got.contributor_seeds, want.contributor_seeds);
        assert_eq!(got.n_peers, want.n_peers);
        assert_eq!(got.sharer_pool, want.sharer_pool);
        assert_eq!(got.stream_len(), arena.replica_count());
        assert_eq!(
            got.rng.clone().gen_range(0..u64::MAX),
            want.rng.clone().gen_range(0..u64::MAX)
        );
    }

    proptest::proptest! {
        #[test]
        fn precomp_matches_the_binary_search_oracle(input in arb_arena()) {
            assert_matches_oracle(&input.0, input.1);
        }
    }

    #[test]
    fn precomp_handles_degenerate_arenas() {
        // No peers, one peer with one file, one free-rider, and a
        // single-replica file next to a file everyone holds.
        let shapes: [(Vec<Vec<FileRef>>, usize); 4] = [
            (vec![], 1),
            (vec![vec![f(0)]], 1),
            (vec![vec![]], 3),
            (
                vec![vec![f(0), f(2)], vec![f(0)], vec![], vec![f(0), f(1)]],
                3,
            ),
        ];
        for (caches, n_files) in shapes {
            let arena = CacheArena::from_caches(&caches, n_files);
            for seed in [0u64, 7, u64::MAX] {
                assert_matches_oracle(&arena, seed);
            }
        }
    }

    #[test]
    fn larger_lists_do_not_reduce_hits() {
        let caches = community(12, 30);
        let small = cell(&caches, 30, &SimConfig::lru(2)).0;
        let large = cell(&caches, 30, &SimConfig::lru(11)).0;
        assert!(large.hit_rate() >= small.hit_rate() - 0.02);
    }
}

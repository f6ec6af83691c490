//! Always-on query serving: the Section 5 batch simulator replayed as
//! a continuous, timed query stream through a sharded neighbour-list
//! store.
//!
//! The batch simulator ([`crate::sim`]) consumes the request stream in
//! one pass and reports totals; the real system it models — one live
//! eDonkey index serving tens of millions of queries ("Ten weeks in
//! the life of an eDonkey server", PAPERS.md) — serves *arrivals*:
//! queries land at simulated instants, wait in bounded ingress queues,
//! and observe latency. This module adds that serving plane without
//! giving up any of the repo's bit-identity guarantees:
//!
//! * **Sharding by querier.** The split sweep's replay precomputation
//!   (`sim::SweepPrecomp`, built for the cells
//!   [`crate::sim::split_eligible`] accepts) proves request ranks and
//!   candidate uploader sets policy-independent (no outages, no
//!   two-hop), so each querier's replay is self-contained. Shards are
//!   contiguous querier ranges balanced by request count; any shard
//!   count and any thread count produce the same answers.
//! * **One replay index per arena.** That precomputation is a function
//!   of the arena and the seed alone, so the arena keeps the first
//!   seed's ([`CacheArena::derived_index`]). Every later cell served or
//!   swept on the same arena with that seed shares it, instead of
//!   rebuilding it on one thread while the other workers wait. Another
//!   seed builds its own per call; `retain` drops the index, and clones
//!   start without one.
//! * **Tick-batched queues.** Arrivals enqueue into a bounded
//!   per-shard ingress queue; each simulated tick serves at most
//!   `service_per_tick` queries. A full queue *sheds* the arrival (the
//!   query never reaches the overlay plane: the acquisition is already
//!   pinned by the trace, but nothing is queried, recorded, or
//!   learned); a backlogged queue *defers* it (latency only). Both are
//!   accounted in a [`ServeHealth`] ledger that reconciles exactly.
//! * **Queue pass, then replay.** Nothing in the tick loop reads a walk
//!   outcome: sheds, waits and service instants follow from arrival
//!   instants and capacities alone. So each shard first runs its queue
//!   pass, touching no policy, and then replays every querier's served
//!   requests, in service order and at their service instants, through
//!   the split sweep's per-querier path on one pooled neighbour list —
//!   under the quiet accounting rules for quiet cells, the kernel step
//!   otherwise. A querier's outcome depends only on its own requests,
//!   so this equals interleaving the walks into the tick loop, request
//!   for request.
//! * **Deterministic arrivals.** The nominal instant is the batch
//!   path's `t · span / len` milli-days; burst compression and
//!   `(seed, querier, tick)`-keyed splitmix64 jitter come from
//!   [`ArrivalProcess`] — no sequential RNG, so any shard can compute
//!   its own arrivals.
//! * **Latency accounting.** Simulated query latency = queue wait +
//!   one overlay round trip per attempt ([`QUERY_RTT_MD`]) + retry
//!   backoff (the PR 4 timing model, under churn) + index routing cost
//!   on final misses ([`crate::index::FED_HOP_LATENCY_MD`] per
//!   federation forward, [`crate::index::DHT_HOP_LATENCY_MD`] per DHT
//!   hop) — recorded in a log-bucketed [`LatencyHistogram`]
//!   (HDR-style: exact below 16 md, then 16 sub-buckets per octave,
//!   ≤ 6.25 % relative error).
//!
//! **Differential contract** (pinned by `tests/service_mode.rs` and
//! the service proptest): with unbounded queues and the identity
//! arrival process, a serving replay is bit-identical to
//! [`crate::sim::simulate_arena_health_with_scratch`] — same
//! [`SimResult`], same [`SearchHealth`], same final neighbour lists —
//! for every policy (including Random: the engine replays the batch
//! path's policy-construction draws) and, because service instants then
//! equal the batch path's query instants, even under churn — and under
//! an adversarial plan, whose refusals, hijacks, pollution and
//! reputation defense replay the batch path's exact sequence.

use std::collections::VecDeque;

use edonkey_trace::compact::CacheArena;
use edonkey_trace::par::parallel_map_init_threads;
pub use edonkey_workload::arrivals::{ArrivalConfig, ArrivalProcess};

use crate::neighbours::{Peer, PolicyKind};
pub use crate::query::QUERY_RTT_MD;
use crate::query::{QueryCtx, Tables};
use crate::sim::{
    replay_querier, CellPartial, DrawnLists, QueryRec, Replayed, SearchHealth, SimConfig,
    SimResult, SplitScratch, SweepPrecomp,
};

/// The serving engine's knobs on top of a [`SimConfig`].
///
/// The defaults are the *unconstrained* service: unbounded queues,
/// unbounded per-tick capacity, identity arrivals — the configuration
/// under which serving is bit-identical to the batch simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// The simulation cell being served. Two-hop and server-outage
    /// configs are rejected ([`serve_arena`] panics): two-hop reads
    /// other queriers' lists across shards, and outages break the
    /// arrival-invariance that sharding rests on.
    pub sim: SimConfig,
    /// How arrivals deviate from the uniform schedule.
    pub arrival: ArrivalConfig,
    /// Shard count (contiguous querier ranges; `peer_ranges` may merge
    /// underfull ones). Part of the cell identity: results are
    /// *thread*-invariant, while queue metrics naturally depend on how
    /// arrivals are partitioned.
    pub n_shards: usize,
    /// Tick width in simulated milli-days.
    pub tick_md: u64,
    /// Bounded ingress queue: arrivals beyond this many waiting
    /// queries are shed.
    pub queue_capacity: usize,
    /// Queries served per shard per tick.
    pub service_per_tick: usize,
}

impl ServeConfig {
    /// Unconstrained service for `sim` (the differential baseline).
    pub fn new(sim: SimConfig) -> Self {
        ServeConfig {
            sim,
            arrival: ArrivalConfig::none(),
            n_shards: 8,
            tick_md: 1,
            queue_capacity: usize::MAX,
            service_per_tick: usize::MAX,
        }
    }

    /// Replaces the arrival process.
    pub fn with_arrival(mut self, arrival: ArrivalConfig) -> Self {
        self.arrival = arrival;
        self
    }

    /// Replaces the shard count.
    pub fn with_shards(mut self, n_shards: usize) -> Self {
        self.n_shards = n_shards;
        self
    }

    /// Bounds the serving plane: `tick_md`-wide ticks, at most
    /// `queue_capacity` waiting queries, `service_per_tick` served per
    /// tick per shard.
    pub fn with_service(
        mut self,
        tick_md: u64,
        queue_capacity: usize,
        service_per_tick: usize,
    ) -> Self {
        self.tick_md = tick_md;
        self.queue_capacity = queue_capacity;
        self.service_per_tick = service_per_tick;
        self
    }

    /// Panics unless the cell is servable (no two-hop, no outages).
    fn validate(&self) {
        assert!(
            !self.sim.two_hop,
            "service mode shards by querier; two-hop reads other shards' lists"
        );
        assert!(
            self.sim.availability.churn.outage_days.is_empty(),
            "service mode requires arrival invariance; server outages break it"
        );
    }
}

/// Log-bucketed latency histogram (HDR-style): values below 16 md are
/// exact; above, each power-of-two octave splits into 16 sub-buckets,
/// so any recorded value lands in a bucket whose floor is within
/// 1/16 ≈ 6.25 % of it. Buckets merge across shards by addition, and
/// percentiles report the bucket floor — both deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

/// 16 linear buckets + 16 sub-buckets for each octave `2^4 ..= 2^63`.
const HISTOGRAM_BUCKETS: usize = 16 + 60 * 16;

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; HISTOGRAM_BUCKETS],
            total: 0,
        }
    }

    /// The bucket index of a latency value.
    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v < 16 {
            v as usize
        } else {
            let msb = 63 - u64::from(v.leading_zeros());
            let sub = (v >> (msb - 4)) & 15;
            ((msb - 3) * 16 + sub) as usize
        }
    }

    /// The smallest value that lands in bucket `idx` (percentiles
    /// report this floor).
    pub fn bucket_floor(idx: usize) -> u64 {
        if idx < 16 {
            idx as u64
        } else {
            let octave = (idx / 16) as u64;
            let sub = (idx % 16) as u64;
            (16 + sub) << (octave - 1)
        }
    }

    /// Records one latency sample (milli-days).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.total += 1;
    }

    /// Adds another histogram's counts (shard merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bucket floor at quantile `q ∈ (0, 1]` — the latency that at
    /// least `⌈q · total⌉` samples are at or below (up to bucket
    /// granularity). 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(idx);
            }
        }
        Self::bucket_floor(HISTOGRAM_BUCKETS - 1)
    }

    /// p50 / p99 / p999 in one call (the report triple).
    pub fn p50_p99_p999(&self) -> (u64, u64, u64) {
        (
            self.percentile(0.50),
            self.percentile(0.99),
            self.percentile(0.999),
        )
    }

    /// Non-empty buckets as `(index, count)`, in index order — the
    /// golden fixture's pinned representation.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The serving-plane ledger: every arrival of a service run, accounted
/// once, on top of the overlay plane's [`SearchHealth`]. Identities
/// (checked by [`ServeHealth::reconcile`]):
///
/// * `arrived == requests` (every request arrives exactly once)
/// * `served + shed == arrived`
/// * the embedded [`SearchHealth`] reconciles against `served` (shed
///   queries never reach the overlay plane), with `stranded == 0` —
///   service mode admits no server outages
/// * `deferred <= served`, `deferred_ticks >= deferred`, and
///   `deferred_ticks == 0` exactly when `deferred == 0`
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeHealth {
    /// The overlay plane's ledger over the served queries.
    pub search: SearchHealth,
    /// Queries that arrived at an ingress queue.
    pub arrived: u64,
    /// Queries dequeued and served.
    pub served: u64,
    /// Arrivals dropped at a full ingress queue.
    pub shed: u64,
    /// Served queries that waited at least one tick.
    pub deferred: u64,
    /// Total ticks waited across all served queries.
    pub deferred_ticks: u64,
    /// Deepest any ingress queue got (max over shards after a merge).
    pub max_queue_depth: u64,
}

impl ServeHealth {
    /// Checks the serving identities against raw totals. Returns a
    /// description of the first violated identity, if any.
    pub fn reconcile(&self, requests: u64, one_hop_hits: u64) -> Result<(), String> {
        if self.arrived != requests {
            return Err(format!("arrived {} != requests {requests}", self.arrived));
        }
        if self.served + self.shed != self.arrived {
            return Err(format!(
                "served {} + shed {} != arrived {}",
                self.served, self.shed, self.arrived
            ));
        }
        if self.search.stranded != 0 {
            return Err(format!(
                "stranded {} != 0 (service mode admits no outages)",
                self.search.stranded
            ));
        }
        // The overlay plane sees exactly the served queries.
        self.search.reconcile(self.served, one_hop_hits, 0)?;
        if self.deferred > self.served {
            return Err(format!(
                "deferred {} > served {}",
                self.deferred, self.served
            ));
        }
        if self.deferred_ticks < self.deferred || (self.deferred == 0 && self.deferred_ticks != 0) {
            return Err(format!(
                "deferred_ticks {} inconsistent with deferred {}",
                self.deferred_ticks, self.deferred
            ));
        }
        Ok(())
    }

    /// [`ServeHealth::reconcile`], panicking with the full cell label on
    /// violation — the same `(seed, list_size, churn_rate, backend)`
    /// identity [`SearchHealth::expect_reconciled`] carries, plus the
    /// serving plane's own coordinates: which shard, and how far it had
    /// ticked. The engine checks every shard's partial ledger as the
    /// shard finishes; "which cell, which shard" is the first question
    /// a failure raises.
    pub fn expect_reconciled(
        &self,
        requests: u64,
        one_hop_hits: u64,
        sim: &SimConfig,
        shard: usize,
        tick: u64,
    ) {
        if let Err(e) = self.reconcile(requests, one_hop_hits) {
            panic!(
                "ServeHealth failed to reconcile: {e} \
                 (seed {}, list_size {}, churn_rate {}, backend {}, shard {shard}, tick {tick})",
                sim.seed,
                sim.list_size,
                sim.availability.churn.churn_permille,
                sim.availability.backend.name()
            );
        }
    }

    /// Accumulates a shard partial (`max_queue_depth` by maximum,
    /// everything else by sum).
    fn merge(&mut self, other: &ServeHealth) {
        self.search += other.search;
        self.arrived += other.arrived;
        self.served += other.served;
        self.shed += other.shed;
        self.deferred += other.deferred;
        self.deferred_ticks += other.deferred_ticks;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// What a service run reports: the batch-shaped result, the serving
/// ledger, the latency distribution, and per-shard load metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Batch-shaped totals ([`SimResult::requests`] counts *arrivals*;
    /// with sheds, hits can only come from the served subset).
    pub result: SimResult,
    /// The merged serving ledger.
    pub health: ServeHealth,
    /// Latency distribution over served queries, milli-days.
    pub latency: LatencyHistogram,
    /// Queries served per shard (the load vector).
    pub shard_load: Vec<u64>,
    /// Deepest ingress queue per shard.
    pub shard_max_depth: Vec<u64>,
    /// Last tick each shard served.
    pub shard_last_tick: Vec<u64>,
    /// Final neighbour list per peer — the policy state the
    /// differential tests compare against the batch run.
    pub lists: Vec<Vec<Peer>>,
}

/// A served request as its querier's replay consumes it: the record,
/// the instant service began, and how long it queued for it.
#[derive(Clone, Copy)]
struct Served {
    rec: QueryRec,
    service_md: u64,
    wait_md: u64,
}

impl Replayed for Served {
    fn rec(&self) -> &QueryRec {
        &self.rec
    }

    /// The batch path's walk clocked from the *service* instant — equal
    /// to the batch instant exactly when the query never waited.
    fn start_md(&self, _: &QueryCtx, _: &SweepPrecomp) -> u64 {
        self.service_md
    }
}

/// `served_at` marker of an arrival shed at a full queue.
const SHED: u64 = u64::MAX;

/// One worker's buffers, reused across the shards it claims. Requests
/// are indexed by their position in the shard's slice of
/// `SweepPrecomp::queries` (querier-major, stream order within).
#[derive(Default)]
struct ShardScratch {
    split: SplitScratch,
    /// The shard's arrivals in service order, as sort keys: arrival
    /// instant, then stream position (the tie-break that keeps the
    /// order total), then request index — `(arr_md << 64) | (t << 32)
    /// | index`. The 16-byte key sorts ~1.6× faster than a record
    /// carrying the request.
    arrivals: Vec<u128>,
    /// Arrival instant per request.
    arrival_md: Vec<u64>,
    /// Waiting requests, FIFO.
    queue: VecDeque<u32>,
    /// Service instant per request ([`SHED`] if shed).
    served_at: Vec<u64>,
    /// One querier's served requests, in service order.
    served: Vec<Served>,
}

/// One shard's complete outcome; merging in shard order reproduces the
/// engine's report for any thread count.
struct ShardOutcome {
    part: CellPartial,
    health: ServeHealth,
    latency: LatencyHistogram,
    last_tick: u64,
    lists: Vec<Vec<Peer>>,
}

/// Serves one cell with `available_parallelism` worker threads.
pub fn serve_arena(arena: &CacheArena, config: &ServeConfig) -> ServeReport {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    serve_arena_threads(arena, config, threads)
}

/// [`serve_arena`] with an explicit worker count — the hook the
/// determinism tests use to prove reports are thread-invariant.
///
/// # Panics
///
/// Panics if the cell is two-hop or has server-outage days (see
/// [`ServeConfig::sim`]).
pub fn serve_arena_threads(
    arena: &CacheArena,
    config: &ServeConfig,
    threads: usize,
) -> ServeReport {
    config.validate();
    let sim = &config.sim;
    let pre = arena.derived_index(sim.seed, || SweepPrecomp::new(arena, sim.seed));
    let n_peers = pre.n_peers;

    // Random lists are drawn in peer order from the post-shuffle
    // generator — the batch simulator's exact construction sequence;
    // every other policy starts empty and draws nothing.
    let drawn = (sim.policy == PolicyKind::Random).then(|| pre.draw_lists(sim.list_size));
    let tables = Tables::new(std::slice::from_ref(sim), n_peers);
    let ctx = QueryCtx::new(sim, &tables, &pre.sharer_pool, n_peers);
    let tasks: Vec<(usize, (u32, u32))> = pre
        .peer_ranges(config.n_shards.max(1))
        .into_iter()
        .enumerate()
        .collect();
    let outcomes: Vec<ShardOutcome> = parallel_map_init_threads(
        &tasks,
        threads.max(1),
        ShardScratch::default,
        |scratch, &(shard, range)| {
            run_shard(
                arena,
                &pre,
                config,
                &ctx,
                drawn.as_ref(),
                shard,
                range,
                scratch,
            )
        },
    );

    // Shard-order merge: disjoint querier sets, plain summation.
    let mut part = CellPartial::empty(n_peers);
    let mut health = ServeHealth::default();
    let mut latency = LatencyHistogram::new();
    let mut shard_load = Vec::with_capacity(outcomes.len());
    let mut shard_max_depth = Vec::with_capacity(outcomes.len());
    let mut shard_last_tick = Vec::with_capacity(outcomes.len());
    let mut lists = Vec::with_capacity(n_peers);
    for out in outcomes {
        part.absorb(&out.part);
        health.merge(&out.health);
        latency.merge(&out.latency);
        shard_load.push(out.health.served);
        shard_max_depth.push(out.health.max_queue_depth);
        shard_last_tick.push(out.last_tick);
        lists.extend(out.lists);
    }
    let result = SimResult {
        requests: pre.requests,
        one_hop_hits: part.one_hop_hits,
        two_hop_hits: 0,
        contributor_seeds: pre.contributor_seeds,
        messages_per_peer: part.messages,
    };
    debug_assert!(health
        .reconcile(result.requests, result.one_hop_hits)
        .is_ok());
    ServeReport {
        result,
        health,
        latency,
        shard_load,
        shard_max_depth,
        shard_last_tick,
        lists,
    }
}

/// Serves one shard in two steps — the queue pass, then each querier's
/// replay of what it was served — and reconciles the shard's partial
/// ledger before returning it.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    arena: &CacheArena,
    pre: &SweepPrecomp,
    config: &ServeConfig,
    ctx: &QueryCtx,
    drawn: Option<&DrawnLists>,
    shard: usize,
    (lo, hi): (u32, u32),
    scratch: &mut ShardScratch,
) -> ShardOutcome {
    let sim = &config.sim;
    let mut out = ShardOutcome {
        part: CellPartial::empty(pre.n_peers),
        health: ServeHealth::default(),
        latency: LatencyHistogram::new(),
        last_tick: 0,
        lists: Vec::with_capacity((hi - lo) as usize),
    };
    out.last_tick = queue_pass(pre, ctx, config, (lo, hi), scratch, &mut out.health);

    // Queriers are independent (no outages, no two-hop), so each one's
    // served requests replay on their own, in service order, through
    // the split path's per-querier kernel. The queue is FIFO: service
    // order is arrival order, `(instant, stream position)`.
    let ShardScratch {
        split,
        arrival_md,
        served_at,
        served,
        ..
    } = scratch;
    let base = pre.queries_off[lo as usize] as usize;
    for p in lo..hi {
        let qlo = pre.queries_off[p as usize] as usize;
        let qhi = pre.queries_off[p as usize + 1] as usize;
        served.clear();
        served.extend(
            (qlo - base..qhi - base)
                .filter(|&i| served_at[i] != SHED)
                .map(|i| Served {
                    rec: pre.queries[base + i],
                    service_md: served_at[i],
                    wait_md: served_at[i] - arrival_md[i],
                }),
        );
        served.sort_unstable_by_key(|s| (s.service_md - s.wait_md, s.rec.t));
        let latency = &mut out.latency;
        replay_querier(
            arena,
            pre,
            ctx,
            sim,
            p,
            served,
            drawn.map_or(&[], |d| d.list(p)),
            split,
            false,
            &mut out.part,
            |s: &Served, walk_md| latency.record(s.wait_md + walk_md),
        );
        out.lists.push(split.final_list());
    }
    out.health.search = out.part.health;
    out.health.expect_reconciled(
        pre.requests_in(lo, hi),
        out.part.one_hop_hits,
        sim,
        shard,
        out.last_tick,
    );
    out
}

/// The queue pass: the shard's timed arrivals through the tick loop.
/// Each tick enqueues its arrivals (shedding past the queue bound),
/// then serves up to the per-tick capacity; an empty queue
/// fast-forwards to the next arrival's tick. Nothing here reads a walk
/// outcome, so the pass touches no policy: it fills the serving-plane
/// counters of `health` and every request's arrival and service
/// instants in `scratch`. Returns the last tick.
fn queue_pass(
    pre: &SweepPrecomp,
    ctx: &QueryCtx,
    config: &ServeConfig,
    (lo, hi): (u32, u32),
    scratch: &mut ShardScratch,
    health: &mut ServeHealth,
) -> u64 {
    let tick_md = config.tick_md.max(1);
    let process = ArrivalProcess::new(config.arrival);
    let ShardScratch {
        arrivals,
        arrival_md,
        queue,
        served_at,
        ..
    } = scratch;

    let base = pre.queries_off[lo as usize] as usize;
    arrivals.clear();
    arrival_md.clear();
    for p in lo..hi {
        let qlo = pre.queries_off[p as usize] as usize;
        let qhi = pre.queries_off[p as usize + 1] as usize;
        for (i, rec) in pre.queries[qlo..qhi].iter().enumerate() {
            let base_md = ctx.nominal_md(u64::from(rec.t), pre.stream_len());
            let arr_md = process.arrival_md(p, base_md / tick_md, base_md);
            let index = (qlo - base + i) as u128;
            arrivals.push(u128::from(arr_md) << 64 | u128::from(rec.t) << 32 | index);
            arrival_md.push(arr_md);
        }
    }
    arrivals.sort_unstable();

    served_at.clear();
    served_at.resize(arrivals.len(), SHED);
    queue.clear();
    let mut next = 0usize;
    let mut tick = 0u64;
    while next < arrivals.len() || !queue.is_empty() {
        tick = if queue.is_empty() {
            (arrivals[next] >> 64) as u64 / tick_md
        } else {
            tick + 1
        };
        while next < arrivals.len() && (arrivals[next] >> 64) as u64 / tick_md <= tick {
            health.arrived += 1;
            if queue.len() >= config.queue_capacity.max(1) {
                health.shed += 1;
            } else {
                queue.push_back(arrivals[next] as u32);
            }
            next += 1;
        }
        health.max_queue_depth = health.max_queue_depth.max(queue.len() as u64);
        for _ in 0..config.service_per_tick.max(1) {
            let Some(i) = queue.pop_front() else {
                break;
            };
            let arr_md = arrival_md[i as usize];
            let wait_ticks = tick - arr_md / tick_md;
            if wait_ticks > 0 {
                health.deferred += 1;
                health.deferred_ticks += wait_ticks;
            }
            health.served += 1;
            served_at[i as usize] = arr_md + wait_ticks * tick_md;
        }
    }
    tick
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_arena_health_with_scratch, AvailabilityConfig, SimScratch};
    use edonkey_trace::model::FileRef;
    use edonkey_workload::churn::QueryPolicy;

    /// A tight community: every peer shares the same files.
    fn community(n_peers: u32, n_files: u32) -> CacheArena {
        let caches: Vec<Vec<FileRef>> = (0..n_peers)
            .map(|_| (0..n_files).map(FileRef).collect())
            .collect();
        CacheArena::from_caches(&caches, n_files as usize)
    }

    #[test]
    fn histogram_buckets_are_exact_then_logarithmic() {
        for v in [0u64, 1, 15] {
            assert_eq!(LatencyHistogram::bucket_index(v), v as usize);
            assert_eq!(
                LatencyHistogram::bucket_floor(LatencyHistogram::bucket_index(v)),
                v
            );
        }
        // Above 16 the floor is within 1/16 of the value.
        for v in [16u64, 17, 100, 1_000, 123_456, u64::MAX / 3] {
            let floor = LatencyHistogram::bucket_floor(LatencyHistogram::bucket_index(v));
            assert!(floor <= v);
            assert!(v - floor <= v / 16, "{v} vs floor {floor}");
        }
        assert!(LatencyHistogram::bucket_index(u64::MAX) < HISTOGRAM_BUCKETS);
    }

    #[test]
    fn histogram_percentiles_walk_the_counts() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.total(), 100);
        let (p50, p99, p999) = h.p50_p99_p999();
        assert_eq!(p50, 50);
        assert!((96..=99).contains(&p99), "p99 {p99}");
        assert!((96..=100).contains(&p999), "p999 {p999}");
        let mut other = LatencyHistogram::new();
        other.record(7);
        other.merge(&h);
        assert_eq!(other.total(), 101);
    }

    #[test]
    fn unconstrained_serve_matches_batch() {
        // With unbounded queues and identity arrivals no query waits,
        // so service instants equal the batch instants: quiet, churned
        // (Random's construction draws and stateless replacements
        // included) and attacked-and-defended cells all replay the
        // batch sequence bit-for-bit — result, ledger and final lists.
        let arena = community(30, 60);
        let adversary = crate::sim::AdversaryConfig::sybils(21, 150)
            .with_polluters(150)
            .with_freeriders(150);
        let churn = AvailabilityConfig::churn(77, 250).with_query(QueryPolicy::retry_evict());
        let regimes = [
            AvailabilityConfig::none(),
            churn.clone(),
            churn.with_adversary(adversary).with_reputation(),
        ];
        for (regime, availability) in regimes.into_iter().enumerate() {
            for policy in [
                SimConfig::lru(4),
                SimConfig::history(4),
                SimConfig::random(4),
                SimConfig::rare_lru(4, 10),
            ] {
                let sim = policy.with_seed(9).with_availability(availability.clone());
                let mut scratch = SimScratch::new();
                let (batch, batch_health) =
                    simulate_arena_health_with_scratch(&arena, &sim, &mut scratch);
                assert!(
                    regime < 2 || batch_health.wasted_queries > 0,
                    "the adversarial cell must actually exercise the adversary"
                );
                let report = serve_arena_threads(&arena, &ServeConfig::new(sim.clone()), 3);
                let cell = format!("regime {regime} {:?}", sim.policy);
                assert_eq!(report.result, batch, "{cell}");
                assert_eq!(report.health.search, batch_health, "{cell}");
                assert_eq!(report.lists, scratch.final_lists(), "{cell}");
                assert_eq!(report.health.shed + report.health.deferred, 0, "{cell}");
                assert_eq!(report.latency.total(), report.health.served, "{cell}");
            }
        }
    }

    #[test]
    fn bounded_service_defers_and_bounded_queue_sheds() {
        let arena = community(16, 40);
        // One query per tick over wide ticks: the per-day request burst
        // must queue up behind the capacity.
        let deferring = ServeConfig::new(SimConfig::lru(4)).with_service(100, usize::MAX, 1);
        let report = serve_arena_threads(&arena, &deferring, 2);
        assert!(report.health.deferred > 0, "capacity 1 must defer");
        assert_eq!(report.health.shed, 0, "unbounded queue never sheds");
        assert_eq!(report.result.requests, report.health.arrived);

        let shedding = ServeConfig::new(SimConfig::lru(4)).with_service(100, 2, 1);
        let report = serve_arena_threads(&arena, &shedding, 2);
        assert!(report.health.shed > 0, "a 2-deep queue must shed");
        assert!(
            report.health.max_queue_depth <= 2 + 1,
            "depth is measured after the enqueue phase"
        );
        // Shed queries never reach the overlay plane, but the ledger
        // still reconciles exactly.
        report
            .health
            .reconcile(report.result.requests, report.result.one_hop_hits)
            .expect("shedding run must reconcile");
        assert!(report.health.served < report.health.arrived);
    }

    #[test]
    fn latency_counts_waits_backoffs_and_routing() {
        let arena = community(12, 30);
        // Quiet single server, no waits: every query costs exactly one
        // round trip.
        let quiet = serve_arena_threads(&arena, &ServeConfig::new(SimConfig::lru(5)), 2);
        assert_eq!(quiet.latency.percentile(1.0), QUERY_RTT_MD);

        // A forwarding backend adds routing cost to fallbacks only.
        let fed = serve_arena_threads(
            &arena,
            &ServeConfig::new(
                SimConfig::lru(5)
                    .with_backend(crate::index::IndexBackend::Federated { n_servers: 8 }),
            ),
            2,
        );
        assert_eq!(fed.result, quiet.result, "routing never changes answers");
        assert!(fed.health.search.forwarded > 0);
        assert!(fed.latency.percentile(1.0) > QUERY_RTT_MD);

        // Churn retries sleep through backoffs ≥ 60 md.
        let churn = serve_arena_threads(
            &arena,
            &ServeConfig::new(SimConfig::lru(5).with_availability(
                AvailabilityConfig::churn(3, 400).with_query(QueryPolicy::retry_evict()),
            )),
            2,
        );
        assert!(churn.health.search.retried > 0);
        assert!(churn.latency.percentile(1.0) >= 60);
    }

    #[test]
    #[should_panic(expected = "two-hop")]
    fn rejects_two_hop_cells() {
        let arena = community(4, 4);
        let config = ServeConfig::new(SimConfig::lru(2).with_two_hop());
        serve_arena_threads(&arena, &config, 1);
    }

    #[test]
    #[should_panic(
        expected = "(seed 42, list_size 5, churn_rate 250, backend dht_k3, shard 3, tick 99)"
    )]
    fn serve_health_panic_names_the_cell_shard_and_tick() {
        // A doctored ledger: one arrival went missing. The panic must
        // localize the full cell — seed, list size, churn rate and
        // backend kind, as the batch ledger's does — plus the serving
        // plane's own coordinates.
        let health = ServeHealth {
            arrived: 4,
            served: 5,
            shed: 0,
            ..ServeHealth::default()
        };
        let sim = SimConfig::lru(5).with_seed(42).with_availability(
            AvailabilityConfig::churn(7, 250)
                .with_backend(crate::index::IndexBackend::Dht { replication_k: 3 }),
        );
        health.expect_reconciled(5, 2, &sim, 3, 99);
    }

    #[test]
    fn serve_health_reconcile_rejects_each_violation() {
        let good = ServeHealth {
            search: SearchHealth {
                attempted: 5,
                answered: 3,
                server_fallback: 2,
                ..SearchHealth::default()
            },
            arrived: 6,
            served: 5,
            shed: 1,
            deferred: 2,
            deferred_ticks: 4,
            max_queue_depth: 3,
        };
        good.reconcile(6, 3).expect("the doctored-good ledger");
        assert!(good.reconcile(7, 3).unwrap_err().contains("arrived"));
        let bad = ServeHealth { shed: 2, ..good };
        assert!(bad.reconcile(6, 3).unwrap_err().contains("shed"));
        let bad = ServeHealth {
            search: SearchHealth {
                stranded: 1,
                ..good.search
            },
            ..good
        };
        assert!(bad.reconcile(6, 3).unwrap_err().contains("stranded"));
        let bad = ServeHealth {
            deferred: 6,
            deferred_ticks: 6,
            ..good
        };
        assert!(bad.reconcile(6, 3).unwrap_err().contains("deferred"));
        let bad = ServeHealth {
            deferred: 0,
            deferred_ticks: 1,
            ..good
        };
        assert!(bad.reconcile(6, 3).unwrap_err().contains("deferred_ticks"));
    }
}

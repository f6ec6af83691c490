//! Pluggable index backends for the final-miss fallback (DESIGN.md §10).
//!
//! The paper evaluates server-less search against a *single* fallback
//! index server, but the deployed eDonkey network ran a federation of
//! servers ("Ten weeks in the life of an eDonkey server", PAPERS.md)
//! and its descendants replaced the server with a Kademlia DHT. This
//! module extracts the simulator's index-server surface — "is the index
//! reachable for this request?" plus the routing cost of asking it —
//! into [`IndexRouter::lookup`], over three deterministic backends:
//!
//! * [`IndexRouter::Single`] — the paper's implicit backend: reachable
//!   unless `outage_days` covers the day, zero routing cost.
//! * [`FederatedRoute`] — `n_servers` index servers. Peers home onto
//!   servers by splitmix64 hash (an eDonkey client holds one server
//!   connection); file records live on a per-file aggregation server and
//!   queries forward server-to-server around the ring, each hop costing
//!   `FED_HOP_LATENCY_MD` simulated milli-days. On an outage day one
//!   server — `(churn_seed, day)`-drawn — is down: queries homed on it
//!   strand, everyone else routes around the hole.
//! * [`DhtRoute`] — Kademlia-style XOR-distance routing over a stateless
//!   ID space of `DHT_NODES` virtual index nodes with per-key
//!   `replication_k` replication. Replicas are tried in XOR-closeness
//!   order, so a lookup survives any `replication_k - 1` concurrent
//!   node outages.
//!
//! # Keying rule
//!
//! Every routing draw is a stateless splitmix64 hash — the sequential
//! simulation RNG never moves, so results are thread-count- and
//! schedule-invariant like the rest of the repo:
//!
//! * persistent assignments (server homes, file record servers, DHT
//!   node IDs, lookup entry points) are keyed by `(sim_seed, entity)`;
//! * the per-request uploader pick stays the caller's
//!   `fallback_index(seed, t, len)` draw, keyed by `(sim_seed, t)` —
//!   shared by *all* backends so zero-outage runs agree bit-for-bit;
//! * outage victims (which server / DHT node a `ChurnConfig` outage day
//!   takes down) are keyed by `(churn_seed, day)`, the schedule's
//!   domain.

use edonkey_trace::model::FileRef;
use edonkey_workload::churn::ChurnSchedule;
use edonkey_workload::mix::splitmix64;

use crate::neighbours::Peer;

/// Per-hop inter-server forwarding latency of the federated backend, in
/// simulated milli-days (~3 minutes). Latency is real simulated time: a
/// forwarded lookup arrives `hops × latency` later, and the *arrival*
/// day decides whether the record server is up.
pub(crate) const FED_HOP_LATENCY_MD: u64 = 2;

/// Per-hop XOR-routing latency of the DHT backend, in simulated
/// milli-days (~1.5 minutes — one UDP round trip per routing step,
/// cheaper than an inter-server forward). The simulator's hop *count*
/// model predates this constant and is unchanged; the serving engine
/// multiplies it in when converting a lookup's `dht_hops` into
/// simulated query latency.
pub(crate) const DHT_HOP_LATENCY_MD: u64 = 1;

/// Size of the DHT's virtual node ring. 64 nodes on a 6-bit Kademlia
/// ID space: each routing step resolves one more prefix bit, so a
/// lookup costs at most 6 hops.
pub(crate) const DHT_NODES: usize = 64;

/// Domain-separation salts (same scheme as `edonkey_workload::churn`).
const SALT_FED_HOME: u64 = 0x1d38_a7c2_90f1_0001;
const SALT_FED_RECORD: u64 = 0x1d38_a7c2_90f1_0002;
const SALT_FED_VICTIM: u64 = 0x1d38_a7c2_90f1_0003;
const SALT_DHT_NODE: u64 = 0x1d38_a7c2_90f1_0004;
const SALT_DHT_KEY: u64 = 0x1d38_a7c2_90f1_0005;
const SALT_DHT_START: u64 = 0x1d38_a7c2_90f1_0006;
const SALT_DHT_VICTIM: u64 = 0x1d38_a7c2_90f1_0007;

/// splitmix64 finalizer chained over `(seed ^ salt, key)` — the same
/// construction the churn schedule uses for its stateless draws.
fn route_hash(seed: u64, salt: u64, key: u64) -> u64 {
    let z = splitmix64(seed ^ salt);
    splitmix64(z ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Which index backend resolves final overlay misses. Carried by
/// `AvailabilityConfig`; [`IndexBackend::router`] builds the matching
/// [`IndexRouter`] for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum IndexBackend {
    /// One fallback server — the paper's implicit backend and the
    /// bit-identity baseline.
    #[default]
    SingleServer,
    /// A federation of `n_servers` index servers (clamped to ≥ 1).
    Federated {
        /// Federation size; peers hash-home onto one server each.
        n_servers: u32,
    },
    /// A Kademlia-style DHT storing each file key on `replication_k`
    /// XOR-closest virtual nodes (clamped to `1..=DHT_NODES`).
    Dht {
        /// Replicas per key; a lookup survives `replication_k - 1`
        /// concurrent node outages.
        replication_k: u32,
    },
}

impl IndexBackend {
    /// Builds the run-scoped router (precomputes the DHT node table).
    pub fn router(&self, seed: u64) -> IndexRouter {
        match *self {
            IndexBackend::SingleServer => IndexRouter::Single,
            IndexBackend::Federated { n_servers } => IndexRouter::Federated(FederatedRoute {
                seed,
                n_servers: n_servers.max(1),
            }),
            IndexBackend::Dht { replication_k } => IndexRouter::Dht(DhtRoute::new(
                seed,
                replication_k.clamp(1, DHT_NODES as u32),
            )),
        }
    }

    /// How many index replicas can carry a poisoned source record —
    /// the adversary plan's pollution exposure (see
    /// `edonkey_workload::adversary::AdversaryPlan::polluter`). The
    /// single server holds one record; a federation holds it on the
    /// aggregation server plus the ring neighbour that gossip mirrors
    /// it to; the DHT holds one per replica. Replication, the very
    /// mechanism that buys outage survival, is what amplifies
    /// pollution.
    pub(crate) fn pollution_exposure(&self) -> u32 {
        match *self {
            IndexBackend::SingleServer => 1,
            IndexBackend::Federated { .. } => 2,
            IndexBackend::Dht { replication_k } => replication_k.max(1),
        }
    }

    /// Short stable name for reports and fixtures.
    pub fn name(&self) -> String {
        match *self {
            IndexBackend::SingleServer => "single".to_string(),
            IndexBackend::Federated { n_servers } => format!("federated{n_servers}"),
            IndexBackend::Dht { replication_k } => format!("dht_k{replication_k}"),
        }
    }
}

/// Outcome of one index lookup. The uploader *pick* is not part of the
/// outcome: all backends share the caller's stateless
/// `fallback_index(seed, t, len)` draw, which is what makes zero-outage
/// runs agree across backends bit-for-bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lookup {
    /// Did the index answer? `false` strands the request.
    pub resolved: bool,
    /// Inter-server forward hops taken (federated backend only).
    pub forwarded: u64,
    /// XOR-routing hops taken (DHT backend only; dead replicas tried
    /// along the way still cost their hops).
    pub dht_hops: u64,
}

impl Lookup {
    fn resolved(forwarded: u64, dht_hops: u64) -> Self {
        Lookup {
            resolved: true,
            forwarded,
            dht_hops,
        }
    }

    fn stranded(forwarded: u64, dht_hops: u64) -> Self {
        Lookup {
            resolved: false,
            forwarded,
            dht_hops,
        }
    }
}

/// The server federation. `outage_days` here means "one federation
/// member is down that day" — which one is a `(churn_seed, day)` draw —
/// so a blanket outage schedule that blacks out the single server only
/// dims one shard of the federation at a time.
#[derive(Clone, Copy, Debug)]
pub struct FederatedRoute {
    seed: u64,
    n_servers: u32,
}

impl FederatedRoute {
    /// The server `peer` is connected to (registers its files with,
    /// sends its queries through).
    pub(crate) fn home(&self, peer: Peer) -> u32 {
        (route_hash(self.seed, SALT_FED_HOME, u64::from(peer)) % u64::from(self.n_servers)) as u32
    }

    /// The server aggregating `file`'s source records (inter-server
    /// gossip pushes every announce there).
    pub(crate) fn record_server(&self, file: FileRef) -> u32 {
        (route_hash(self.seed, SALT_FED_RECORD, u64::from(file.0)) % u64::from(self.n_servers))
            as u32
    }

    /// Which server is down on `day` — `None` outside outage days.
    pub(crate) fn victim(&self, schedule: &ChurnSchedule, day: u32) -> Option<u32> {
        if !schedule.server_out(day) {
            return None;
        }
        let churn_seed = schedule.config().seed;
        Some(
            (route_hash(churn_seed, SALT_FED_VICTIM, u64::from(day)) % u64::from(self.n_servers))
                as u32,
        )
    }

    fn down(&self, schedule: &ChurnSchedule, server: u32, day: u32) -> bool {
        self.victim(schedule, day) == Some(server)
    }
}

impl FederatedRoute {
    /// Resolves one lookup; see [`IndexRouter::lookup`].
    fn lookup(
        &self,
        schedule: &ChurnSchedule,
        querier: Peer,
        file: FileRef,
        day: u32,
        milli: u32,
    ) -> Lookup {
        let home = self.home(querier);
        // A client holds exactly one server connection: its home server
        // down means the whole federation is dark for it. This is the
        // *only* way a federated lookup strands — the homed shard.
        if self.down(schedule, home, day) {
            return Lookup::stranded(0, 0);
        }
        let record = self.record_server(file);
        let n = u64::from(self.n_servers);
        let mut hops = (u64::from(record) + n - u64::from(home)) % n;
        let mut server = record;
        let mut now = u64::from(day) * 1000 + u64::from(milli) + hops * FED_HOP_LATENCY_MD;
        // The record server must be up when the forwarded query
        // *arrives*. If the hop latency carried the query into a day
        // that takes that server down, the next ring server holds the
        // gossiped records too: route around the hole (at most one
        // server is down per day, so the walk ends quickly; the bound
        // is a guard, not a path length).
        for _ in 0..self.n_servers {
            if !self.down(schedule, server, (now / 1000) as u32) {
                return Lookup::resolved(hops, 0);
            }
            server = (server + 1) % self.n_servers;
            hops += 1;
            now += FED_HOP_LATENCY_MD;
        }
        Lookup::stranded(hops, 0)
    }
}

/// The Kademlia-style DHT: `DHT_NODES` virtual index nodes on a
/// 64-bit ID ring, each file key stored on its `replication_k`
/// XOR-closest nodes. An outage day takes down one `(churn_seed, day)`-
/// drawn node; replicas are tried in XOR-closeness order, so the lookup
/// only strands when *every* replica is down at once.
#[derive(Clone, Debug)]
pub struct DhtRoute {
    seed: u64,
    replication_k: u32,
    /// Node IDs, precomputed once per run (pure function of the seed).
    node_ids: Vec<u64>,
}

impl DhtRoute {
    fn new(seed: u64, replication_k: u32) -> Self {
        let node_ids = (0..DHT_NODES as u64)
            .map(|i| route_hash(seed, SALT_DHT_NODE, i))
            .collect();
        DhtRoute {
            seed,
            replication_k,
            node_ids,
        }
    }

    /// The node `querier` enters the DHT through.
    pub(crate) fn start_node(&self, querier: Peer) -> u32 {
        (route_hash(self.seed, SALT_DHT_START, u64::from(querier)) % DHT_NODES as u64) as u32
    }

    /// Which node is down on `day` — `None` outside outage days.
    pub(crate) fn victim(&self, schedule: &ChurnSchedule, day: u32) -> Option<u32> {
        if !schedule.server_out(day) {
            return None;
        }
        let churn_seed = schedule.config().seed;
        Some((route_hash(churn_seed, SALT_DHT_VICTIM, u64::from(day)) % DHT_NODES as u64) as u32)
    }

    /// Kademlia hop count from node index `from` to node index `to`:
    /// each step resolves one more prefix bit of the 6-bit XOR
    /// distance, so the cost is the distance's bit length (0 when the
    /// entry node already holds the key).
    pub(crate) fn hops_between(from: u32, to: u32) -> u64 {
        u64::from(u32::BITS - (from ^ to).leading_zeros())
    }
}

impl DhtRoute {
    /// Resolves one lookup; see [`IndexRouter::lookup`].
    fn lookup(
        &self,
        schedule: &ChurnSchedule,
        querier: Peer,
        file: FileRef,
        day: u32,
        _milli: u32,
    ) -> Lookup {
        let start = self.start_node(querier);
        let victim = self.victim(schedule, day);
        let key = route_hash(self.seed, SALT_DHT_KEY, u64::from(file.0));
        // Walk the replicas in XOR-closeness order (ties by node index)
        // via repeated min-scans over a visited bitmask: the lookup sits
        // on the simulator's final-miss path, where the sorted-Vec
        // selection used to be the last per-query allocation churn.
        // `k ≤ DHT_NODES = 64`, so the k·64 scan is cheaper than the
        // sort it replaces.
        let mut visited = 0u64;
        let mut hops = 0u64;
        for _ in 0..self.replication_k {
            let mut best: Option<(u64, u32)> = None;
            for (i, &id) in self.node_ids.iter().enumerate() {
                if visited & (1u64 << i) != 0 {
                    continue;
                }
                let dist = id ^ key;
                if best.is_none_or(|(d, _)| dist < d) {
                    best = Some((dist, i as u32));
                }
            }
            let Some((_, replica)) = best else { break };
            visited |= 1u64 << replica;
            // Routing to a dead replica still walks the ring (the
            // timeout is discovered at the end of the path).
            hops += Self::hops_between(start, replica);
            if victim != Some(replica) {
                return Lookup::resolved(0, hops);
            }
        }
        Lookup::stranded(0, hops)
    }
}

/// The run-scoped router: one enum over the three backends so the
/// simulator dispatches statically. Build via [`IndexBackend::router`].
#[derive(Clone, Debug)]
pub enum IndexRouter {
    /// The single fallback server: reachable unless the day is an
    /// outage day, zero routing cost.
    Single,
    /// See [`FederatedRoute`].
    Federated(FederatedRoute),
    /// See [`DhtRoute`].
    Dht(DhtRoute),
}

impl IndexRouter {
    /// Resolves a final-miss lookup by `querier` for `file` at
    /// `(day, milli)` under `schedule`'s outage days; see [`Lookup`].
    /// A pure function of its arguments (no interior state, no RNG):
    /// the whole-cell simulator calls it from arbitrary thread
    /// interleavings and replays must agree bit-for-bit.
    pub fn lookup(
        &self,
        schedule: &ChurnSchedule,
        querier: Peer,
        file: FileRef,
        day: u32,
        milli: u32,
    ) -> Lookup {
        match self {
            IndexRouter::Single if schedule.server_out(day) => Lookup::stranded(0, 0),
            IndexRouter::Single => Lookup::resolved(0, 0),
            IndexRouter::Federated(r) => r.lookup(schedule, querier, file, day, milli),
            IndexRouter::Dht(r) => r.lookup(schedule, querier, file, day, milli),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_workload::churn::ChurnConfig;

    fn schedule(outage_days: Vec<u32>) -> ChurnSchedule {
        ChurnSchedule::new(ChurnConfig {
            seed: 0xc4c4,
            churn_permille: 0,
            outage_days,
        })
    }

    #[test]
    fn single_server_mirrors_outage_days() {
        let router = IndexBackend::SingleServer.router(7);
        let s = schedule(vec![3, 4]);
        for day in 0..8 {
            let l = router.lookup(&s, 5, FileRef(9), day, 500);
            assert_eq!(l.resolved, !(day == 3 || day == 4));
            assert_eq!((l.forwarded, l.dht_hops), (0, 0));
        }
    }

    #[test]
    fn lookups_are_deterministic_and_seed_sensitive() {
        let s = schedule(vec![2]);
        for backend in [
            IndexBackend::Federated { n_servers: 8 },
            IndexBackend::Dht { replication_k: 3 },
        ] {
            let a = backend.router(7);
            let b = backend.router(7);
            let c = backend.router(8);
            let mut differs = false;
            for q in 0..64u32 {
                for f in 0..16u32 {
                    for day in 0..4 {
                        let la = a.lookup(&s, q, FileRef(f), day, 100);
                        assert_eq!(la, b.lookup(&s, q, FileRef(f), day, 100));
                        if la != c.lookup(&s, q, FileRef(f), day, 100) {
                            differs = true;
                        }
                    }
                }
            }
            assert!(
                differs,
                "{backend:?}: different seeds must route differently"
            );
        }
    }

    #[test]
    fn federated_strands_exactly_the_homed_shard() {
        let router = IndexBackend::Federated { n_servers: 4 }.router(11);
        let IndexRouter::Federated(fed) = &router else {
            panic!("federated backend builds a federated router");
        };
        let s = schedule((0..30).collect());
        let mut stranded = 0u32;
        for day in 0..30 {
            let victim = fed.victim(&s, day).expect("every day is an outage day");
            for q in 0..200u32 {
                let l = router.lookup(&s, q, FileRef(q % 7), day, 100);
                // The mechanical shard property: a lookup strands iff
                // the querier's home server is the day's victim.
                assert_eq!(l.resolved, fed.home(q) != victim, "day {day} querier {q}");
                stranded += u32::from(!l.resolved);
            }
        }
        assert!(stranded > 0, "some shard must be homed on each victim");
        // Quiet days never strand and forwarding stays ring-bounded.
        let quiet = schedule(vec![]);
        for q in 0..50u32 {
            let l = router.lookup(&quiet, q, FileRef(q), 2, 900);
            assert!(l.resolved);
            assert!(l.forwarded < 4);
        }
    }

    #[test]
    fn federated_single_member_degenerates_to_single_server() {
        let router = IndexBackend::Federated { n_servers: 1 }.router(3);
        let single = IndexBackend::SingleServer.router(3);
        let s = schedule(vec![1, 5]);
        for q in 0..40u32 {
            for day in 0..8 {
                assert_eq!(
                    router.lookup(&s, q, FileRef(q), day, 0),
                    single.lookup(&s, q, FileRef(q), day, 0)
                );
            }
        }
    }

    #[test]
    fn dht_survives_with_replication_and_strands_without() {
        let s = schedule((0..400).collect());
        let replicated = IndexBackend::Dht { replication_k: 2 }.router(9);
        let solo = IndexBackend::Dht { replication_k: 1 }.router(9);
        let mut solo_stranded = 0u32;
        for day in 0..400 {
            for q in 0..16u32 {
                let l = replicated.lookup(&s, q, FileRef(q % 11), day, 0);
                assert!(
                    l.resolved,
                    "k=2 survives the one concurrent node outage (day {day})"
                );
                assert!(l.dht_hops <= 12, "two replicas cost at most 2 × 6 hops");
                solo_stranded += u32::from(!solo.lookup(&s, q, FileRef(q % 11), day, 0).resolved);
            }
        }
        assert!(
            solo_stranded > 0,
            "k=1 must strand when its only replica dies"
        );
    }

    #[test]
    fn dht_hops_are_the_xor_distance_bit_length() {
        assert_eq!(DhtRoute::hops_between(5, 5), 0);
        assert_eq!(DhtRoute::hops_between(0, 1), 1);
        assert_eq!(DhtRoute::hops_between(0, 63), 6);
    }

    #[test]
    fn clamps_degenerate_parameters() {
        // n_servers = 0 and replication_k = 0 would divide by zero /
        // never resolve; the router clamps both to 1.
        let fed = IndexBackend::Federated { n_servers: 0 }.router(1);
        let dht = IndexBackend::Dht { replication_k: 0 }.router(1);
        let quiet = schedule(vec![]);
        assert!(fed.lookup(&quiet, 0, FileRef(0), 0, 0).resolved);
        assert!(dht.lookup(&quiet, 0, FileRef(0), 0, 0).resolved);
        let over = IndexBackend::Dht {
            replication_k: 10_000,
        }
        .router(1);
        assert!(over.lookup(&quiet, 0, FileRef(0), 0, 0).resolved);
    }

    #[test]
    fn backend_names() {
        assert_eq!(IndexBackend::SingleServer.name(), "single");
        assert_eq!(
            IndexBackend::Federated { n_servers: 8 }.name(),
            "federated8"
        );
        assert_eq!(IndexBackend::Dht { replication_k: 3 }.name(), "dht_k3");
        assert_eq!(IndexBackend::default(), IndexBackend::SingleServer);
    }

    #[test]
    fn pollution_exposure_scales_with_replication() {
        assert_eq!(IndexBackend::SingleServer.pollution_exposure(), 1);
        assert_eq!(
            IndexBackend::Federated { n_servers: 8 }.pollution_exposure(),
            2
        );
        assert_eq!(
            IndexBackend::Dht { replication_k: 3 }.pollution_exposure(),
            3
        );
        assert_eq!(
            IndexBackend::Dht { replication_k: 0 }.pollution_exposure(),
            1,
            "degenerate replication clamps like the router does"
        );
    }
}

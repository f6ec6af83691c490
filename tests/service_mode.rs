//! Differential battery for the always-on query-serving mode
//! (DESIGN.md §11): an unconstrained serving replay must be
//! bit-identical to the batch simulator — same `SimResult`, same
//! `SearchHealth`, same final neighbour lists — for every policy,
//! every thread count and (because zero queue wait makes service
//! instants equal batch instants) even under churn; and a *bounded*
//! serving plane must degrade monotonically as arrival bursts grow.
//!
//! A golden fixture (`tests/data/service_latency_golden.tsv`) pins one
//! seeded bursty run — the `ServeHealth` ledger, the per-shard load
//! vector, and the latency histogram's non-empty buckets. Regenerate
//! with `EDONKEY_BLESS=1 cargo test --test service_mode` after an
//! *intentional* serving-plane change. A second fixture
//! (`tests/data/service_matrix_golden.tsv`) pins a policy × regime
//! matrix under a bounded, jittered, shedding service.

use std::fmt::Write as _;
use std::sync::OnceLock;

use edonkey_repro::semsearch::index::IndexBackend;
use edonkey_repro::semsearch::serve::{serve_arena_threads, ArrivalConfig, ServeConfig};
use edonkey_repro::semsearch::sim::{
    simulate_arena_health_with_scratch, AvailabilityConfig, QueryPolicy, SimScratch,
};
use edonkey_repro::semsearch::{AdversaryConfig, SimConfig};
use edonkey_repro::trace::compact::CacheArena;
use edonkey_repro::trace::pipeline::filter;
use edonkey_repro::workload::{generate_trace, WorkloadConfig};

const SEED: u64 = 20060418;
const CHURN_SEED: u64 = SEED ^ 0xc4c4;
const LIST_SIZE: usize = 20;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/service_latency_golden.tsv"
);

/// One shared filtered workload arena for the whole file (generation
/// dominates test time; every check is read-only on it).
fn arena() -> &'static CacheArena {
    static W: OnceLock<CacheArena> = OnceLock::new();
    W.get_or_init(|| {
        let mut config = WorkloadConfig::test_scale(SEED);
        config.peers = 1_000;
        config.files = 20_000;
        config.topics = 200;
        config.days = 12;
        let (_, trace) = generate_trace(config);
        filter(&trace).arena.static_arena()
    })
}

/// All four policy families at the pinned list size.
fn policies(seed: u64) -> [SimConfig; 4] {
    [
        SimConfig::lru(LIST_SIZE).with_seed(seed),
        SimConfig::history(LIST_SIZE).with_seed(seed),
        SimConfig::random(LIST_SIZE).with_seed(seed),
        SimConfig::rare_lru(LIST_SIZE, 16).with_seed(seed),
    ]
}

/// The core differential: with unbounded queues and identity arrivals,
/// a quiet serving replay reproduces the batch simulator bit-for-bit —
/// hit counts, health ledger and final policy state — for three seeds,
/// all four policies, and any worker count.
#[test]
fn quiet_service_matches_batch_for_seeds_policies_and_threads() {
    let arena = arena();
    let mut scratch = SimScratch::new();
    for seed in [SEED, SEED ^ 0x11, SEED ^ 0x2222] {
        for sim in policies(seed) {
            let (batch, batch_health) =
                simulate_arena_health_with_scratch(arena, &sim, &mut scratch);
            let batch_lists = scratch.final_lists();
            for threads in [1usize, 2, 8] {
                let report = serve_arena_threads(arena, &ServeConfig::new(sim.clone()), threads);
                let cell = format!("seed {seed} policy {:?} threads {threads}", sim.policy);
                assert_eq!(report.result, batch, "{cell}");
                assert_eq!(report.health.search, batch_health, "{cell}");
                assert_eq!(report.lists, batch_lists, "{cell}");
                assert_eq!(report.health.shed, 0, "{cell}");
                assert_eq!(report.health.deferred, 0, "{cell}");
                assert_eq!(report.latency.total(), report.health.served, "{cell}");
            }
        }
    }
}

/// Zero queue wait makes every service instant equal the batch query
/// instant, so the differential extends to churned cells — retries,
/// backoff clocks, staleness reactions, Random's stateless replacement
/// draws and forwarding-backend routing included.
#[test]
fn churn_service_matches_batch_when_unconstrained() {
    let arena = arena();
    let mut scratch = SimScratch::new();
    let combos = [
        (SimConfig::lru(LIST_SIZE), IndexBackend::SingleServer),
        (
            SimConfig::lru(LIST_SIZE),
            IndexBackend::Dht { replication_k: 2 },
        ),
        (
            SimConfig::random(LIST_SIZE),
            IndexBackend::Federated { n_servers: 4 },
        ),
    ];
    for (base, backend) in combos {
        let sim = base.with_seed(SEED).with_availability(
            AvailabilityConfig::churn(CHURN_SEED, 250)
                .with_query(QueryPolicy::retry_evict())
                .with_backend(backend),
        );
        let (batch, batch_health) = simulate_arena_health_with_scratch(arena, &sim, &mut scratch);
        let report = serve_arena_threads(arena, &ServeConfig::new(sim.clone()), 2);
        let cell = format!("policy {:?} backend {}", sim.policy, backend.name());
        assert_eq!(report.result, batch, "{cell}");
        assert_eq!(report.health.search, batch_health, "{cell}");
        assert_eq!(report.lists, scratch.final_lists(), "{cell}");
        assert!(report.health.search.retried > 0, "{cell}: churn must retry");
    }
}

/// The backpressure knee: over nested burst intensities (arrivals
/// compressed into an ever-smaller head of each day) against a fixed
/// one-query-per-tick service, tail latency and the deferral count are
/// monotone non-decreasing — and the zero-burst, zero-jitter process
/// reproduces the identity-arrival run bit-for-bit, full report
/// compared.
#[test]
fn backpressure_degrades_monotonically_and_zero_burst_is_identity() {
    let arena = arena();
    let sim = SimConfig::lru(LIST_SIZE).with_seed(SEED);
    let bounded = |arrival: ArrivalConfig| {
        serve_arena_threads(
            arena,
            &ServeConfig::new(sim.clone())
                .with_arrival(arrival)
                .with_service(1, usize::MAX, 1),
            2,
        )
    };
    let reports: Vec<_> = [0u32, 300, 600, 900]
        .iter()
        .map(|&burst| bounded(ArrivalConfig::bursty(SEED ^ 0xab, burst, 15)))
        .collect();
    let p999: Vec<u64> = reports
        .iter()
        .map(|r| r.latency.percentile(0.999))
        .collect();
    let deferred: Vec<u64> = reports.iter().map(|r| r.health.deferred).collect();
    assert!(
        p999.windows(2).all(|w| w[0] <= w[1]),
        "p999 must be monotone over nested bursts, got {p999:?}"
    );
    assert!(
        deferred.windows(2).all(|w| w[0] <= w[1]),
        "deferrals must be monotone over nested bursts, got {deferred:?}"
    );
    assert!(
        reports[3].health.deferred > reports[0].health.deferred,
        "the strongest burst must actually defer more than the weakest"
    );
    for report in &reports {
        assert_eq!(report.health.shed, 0, "unbounded queues never shed");
        assert_eq!(report.result.requests, report.health.arrived);
    }

    let via_bursty = bounded(ArrivalConfig::bursty(SEED ^ 0xab, 0, 0));
    let via_identity = bounded(ArrivalConfig::none());
    assert_eq!(
        via_bursty, via_identity,
        "a zero-burst, zero-jitter process is the identity arrival process"
    );
}

/// Latency percentiles order within a run, and routing cost orders
/// across backends: forwarding backends pay their hop latencies on
/// fallbacks, so with identical arrivals and waits their percentiles
/// dominate the single server's pointwise — while the *answers* stay
/// bit-identical.
#[test]
fn latency_percentiles_order_within_and_across_backends() {
    let arena = arena();
    let run = |backend| {
        serve_arena_threads(
            arena,
            &ServeConfig::new(
                SimConfig::lru(LIST_SIZE)
                    .with_seed(SEED)
                    .with_backend(backend),
            ),
            2,
        )
    };
    let single = run(IndexBackend::SingleServer);
    let fed = run(IndexBackend::Federated { n_servers: 8 });
    let dht = run(IndexBackend::Dht { replication_k: 3 });
    for (name, report) in [("single", &single), ("federated8", &fed), ("dht_k3", &dht)] {
        let (p50, p99, p999) = report.latency.p50_p99_p999();
        assert!(p50 <= p99 && p99 <= p999, "{name}: {p50} {p99} {p999}");
        assert_eq!(report.latency.total(), report.health.served, "{name}");
    }
    assert_eq!(fed.result, single.result, "routing never changes answers");
    assert_eq!(dht.result, single.result, "routing never changes answers");
    assert!(fed.health.search.forwarded > 0);
    assert!(dht.health.search.dht_hops > 0);
    assert!(fed.latency.percentile(0.999) >= single.latency.percentile(0.999));
    assert!(dht.latency.percentile(0.999) >= single.latency.percentile(0.999));
}

/// Renders the golden fixture: one seeded bursty run against a bounded
/// serving plane on the DHT backend — the full serving ledger, latency
/// percentiles, per-shard load/depth vectors, and every non-empty
/// histogram bucket.
fn golden_fixture() -> String {
    let config = ServeConfig::new(
        SimConfig::lru(LIST_SIZE)
            .with_seed(SEED)
            .with_backend(IndexBackend::Dht { replication_k: 3 }),
    )
    .with_arrival(ArrivalConfig::bursty(SEED ^ 0x5e, 800, 40))
    .with_service(20, 12, 2);
    let report = serve_arena_threads(arena(), &config, 2);
    assert!(
        report.health.shed > 0 && report.health.deferred > 0,
        "the pinned run must exercise both shedding and deferral"
    );

    let mut out = String::from(
        "# service latency golden fixture v1 — bless with EDONKEY_BLESS=1\n\
         # one bursty LRU run on dht_k3: burst=800 jitter=40 tick=20 queue=12 service=2\n",
    );
    writeln!(
        out,
        "run\tdht_k3\tseed={SEED}\tlist_size={LIST_SIZE}\tshards={}",
        report.shard_load.len()
    )
    .unwrap();
    let h = &report.health;
    writeln!(
        out,
        "serve\tarrived={}\tserved={}\tshed={}\tdeferred={}\tdeferred_ticks={}\tmax_depth={}",
        h.arrived, h.served, h.shed, h.deferred, h.deferred_ticks, h.max_queue_depth
    )
    .unwrap();
    let s = &h.search;
    writeln!(
        out,
        "search\tattempted={}\tanswered={}\tserver_fallback={}\tforwarded={}\tdht_hops={}",
        s.attempted, s.answered, s.server_fallback, s.forwarded, s.dht_hops
    )
    .unwrap();
    let (p50, p99, p999) = report.latency.p50_p99_p999();
    writeln!(
        out,
        "latency\ttotal={}\tp50={p50}\tp99={p99}\tp999={p999}",
        report.latency.total()
    )
    .unwrap();
    for (label, values) in [
        ("shard_load", &report.shard_load),
        ("shard_max_depth", &report.shard_max_depth),
        ("shard_last_tick", &report.shard_last_tick),
    ] {
        let joined: Vec<String> = values.iter().map(u64::to_string).collect();
        writeln!(out, "{label}\t{}", joined.join(" ")).unwrap();
    }
    let buckets: Vec<String> = report
        .latency
        .nonzero()
        .map(|(idx, count)| format!("{idx}:{count}"))
        .collect();
    writeln!(out, "buckets\t{}", buckets.join(" ")).unwrap();
    out
}

/// The checked-in fixture must keep matching what the code produces —
/// any drift in arrival jitter, tick scheduling, queue accounting or
/// latency bucketing of the pinned run is an intentional-change gate.
#[test]
fn golden_fixture_pins_the_bursty_run() {
    let rendered = golden_fixture();
    if std::env::var("EDONKEY_BLESS").is_ok() {
        std::fs::write(FIXTURE, &rendered).expect("bless fixture");
    }
    let expected = std::fs::read_to_string(FIXTURE).expect("read checked-in fixture");
    assert_eq!(
        rendered, expected,
        "service latency ledger drifted from the blessed fixture — \
         if intentional, regenerate with EDONKEY_BLESS=1"
    );
}

const MATRIX_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/service_matrix_golden.tsv"
);

/// Tick width of the matrix fixture's bounded service, milli-days.
const MATRIX_TICK_MD: u64 = 20;
/// Arrival jitter of the matrix fixture: three ticks wide, so a
/// querier's own arrivals overtake each other.
const MATRIX_JITTER_MD: u32 = 60;

/// MD4 over a slice of integers, little-endian — a compact pin for
/// vectors too long to inline in a fixture.
fn md4_of(values: impl IntoIterator<Item = u64>) -> String {
    let mut md4 = edonkey_repro::proto::Md4::new();
    for v in values {
        md4.update(&v.to_le_bytes());
    }
    md4.finalize().to_hex()
}

/// Renders the service matrix: every policy × {quiet, 250‰ churn with
/// retries and staleness eviction, 150‰ sybil + 150‰ polluter with the
/// reputation defense armed}, on an eight-server federation, under a
/// bounded, bursty, jittered service that both defers and sheds. Each
/// cell pins the full serving ledger, the latency buckets, the
/// per-shard vectors, and digests of the per-peer load and of every
/// final neighbour list.
fn matrix_fixture() -> String {
    let regimes = [
        ("quiet", AvailabilityConfig::none()),
        (
            "churn250",
            AvailabilityConfig::churn(CHURN_SEED, 250).with_query(QueryPolicy::retry_evict()),
        ),
        (
            "adversary150",
            AvailabilityConfig::none()
                .with_adversary(AdversaryConfig::sybils(SEED ^ 0xad5e, 150).with_polluters(150))
                .with_reputation(),
        ),
    ];
    let mut out = format!(
        "# service matrix golden fixture v1 — bless with EDONKEY_BLESS=1\n\
         # federated8, burst=600 jitter={MATRIX_JITTER_MD} tick={MATRIX_TICK_MD} queue=6 service=2, 8 shards\n"
    );
    for (label, availability) in regimes {
        for base in policies(SEED) {
            let sim = base.with_availability(
                availability
                    .clone()
                    .with_backend(IndexBackend::Federated { n_servers: 8 }),
            );
            let config = ServeConfig::new(sim.clone())
                .with_arrival(ArrivalConfig::bursty(SEED ^ 0x3a7, 600, MATRIX_JITTER_MD))
                .with_service(MATRIX_TICK_MD, 6, 2);
            let report = serve_arena_threads(arena(), &config, 2);
            let cell = format!("{label}\t{}", sim.policy.name());
            let h = &report.health;
            h.reconcile(report.result.requests, report.result.one_hop_hits)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(
                h.shed > 0 && h.deferred > 0,
                "{cell}: the pinned cell must both shed and defer"
            );
            writeln!(
                out,
                "{cell}\tserve\tarrived={} served={} shed={} deferred={} deferred_ticks={} \
                 max_depth={} hits={}",
                h.arrived,
                h.served,
                h.shed,
                h.deferred,
                h.deferred_ticks,
                h.max_queue_depth,
                report.result.one_hop_hits
            )
            .unwrap();
            writeln!(out, "{cell}\tsearch\t{:?}", h.search).unwrap();
            for (name, values) in [
                ("shard_load", &report.shard_load),
                ("shard_max_depth", &report.shard_max_depth),
                ("shard_last_tick", &report.shard_last_tick),
            ] {
                let joined: Vec<String> = values.iter().map(u64::to_string).collect();
                writeln!(out, "{cell}\t{name}\t{}", joined.join(" ")).unwrap();
            }
            let buckets: Vec<String> = report
                .latency
                .nonzero()
                .map(|(idx, count)| format!("{idx}:{count}"))
                .collect();
            writeln!(out, "{cell}\tbuckets\t{}", buckets.join(" ")).unwrap();
            let lists = report.lists.iter().flat_map(|list| {
                std::iter::once(list.len() as u64).chain(list.iter().map(|&p| u64::from(p)))
            });
            writeln!(
                out,
                "{cell}\tdigests\tmessages={} lists={}",
                md4_of(report.result.messages_per_peer.iter().copied()),
                md4_of(lists)
            )
            .unwrap();
        }
    }
    out
}

/// The checked-in matrix must keep matching what the code produces.
/// Unlike the service ≡ batch differentials (unbounded queues, identity
/// arrivals), these cells reorder a querier's own requests and shed
/// some of them, so the fixture pins the serving engine's scheduling
/// itself: which requests are served, in which order, at which instant.
#[test]
fn golden_fixture_pins_the_service_matrix() {
    let rendered = matrix_fixture();
    if std::env::var("EDONKEY_BLESS").is_ok() {
        std::fs::write(MATRIX_FIXTURE, &rendered).expect("bless fixture");
    }
    let expected = std::fs::read_to_string(MATRIX_FIXTURE).expect("read checked-in fixture");
    assert_eq!(
        rendered, expected,
        "service matrix drifted from the blessed fixture — \
         if intentional, regenerate with EDONKEY_BLESS=1"
    );
}

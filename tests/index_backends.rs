//! Differential acceptance matrix for the pluggable index backends
//! (DESIGN.md §10): the single server, the server federation and the
//! Kademlia-style DHT must agree bit-for-bit whenever routing cannot
//! matter (no outage), and must degrade in their characteristic ways
//! when the index goes dark — the federation strands only the homed
//! shard, the DHT strands nothing while `replication_k` exceeds the
//! concurrent failure count.
//!
//! A golden fixture (`tests/data/index_backend_golden.tsv`) pins one
//! federated and one DHT run — seed, health ledger and the first 64
//! routing picks. Regenerate with
//! `EDONKEY_BLESS=1 cargo test --test index_backends` after an
//! *intentional* routing change.

use std::fmt::Write as _;
use std::sync::OnceLock;

use edonkey_repro::semsearch::experiment::{churn_grid, sweep_cells};
use edonkey_repro::semsearch::index::IndexBackend;
use edonkey_repro::semsearch::sim::{AvailabilityConfig, QueryPolicy, SearchHealth, SimResult};
use edonkey_repro::semsearch::SimConfig;
use edonkey_repro::trace::compact::CacheArena;
use edonkey_repro::trace::model::FileRef;
use edonkey_repro::trace::pipeline::filter;
use edonkey_repro::workload::{generate_trace, ChurnConfig, ChurnSchedule, WorkloadConfig};

const SEED: u64 = 20060418;
const CHURN_SEED: u64 = SEED ^ 0xc4c4;
const LIST_SIZE: usize = 20;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/index_backend_golden.tsv"
);

/// One shared filtered static view for the whole file (generation
/// dominates test time; every check is read-only on it).
fn arena() -> &'static CacheArena {
    static A: OnceLock<CacheArena> = OnceLock::new();
    A.get_or_init(|| {
        let mut config = WorkloadConfig::test_scale(SEED);
        config.peers = 1_000;
        config.files = 20_000;
        config.topics = 200;
        config.days = 12;
        let (_, trace) = generate_trace(config);
        filter(&trace).arena.static_arena()
    })
}

/// One cell through the sweep scheduler.
fn cell(config: &SimConfig) -> (SimResult, SearchHealth) {
    sweep_cells(arena(), std::slice::from_ref(config)).remove(0)
}

/// A churn + outage `SimConfig` for one backend.
fn config(backend: IndexBackend, churn_permille: u32, outage: &[u32]) -> SimConfig {
    SimConfig::lru(LIST_SIZE).with_seed(SEED).with_availability(
        AvailabilityConfig::churn(CHURN_SEED, churn_permille)
            .with_query(QueryPolicy::retry_evict())
            .with_outages(outage.to_vec())
            .with_backend(backend),
    )
}

const BACKENDS: [IndexBackend; 3] = [
    IndexBackend::SingleServer,
    IndexBackend::Federated { n_servers: 4 },
    IndexBackend::Dht { replication_k: 2 },
];

/// With no outage the backend cannot matter: the routing layer only
/// decides *reachability* and hop cost, never which uploader answers —
/// so every backend × policy × churn-rate × querier-reaction cell must
/// reproduce the single server's full `SimResult` bit-for-bit (a
/// stronger form of the "agree on answered" criterion).
#[test]
fn zero_outage_runs_agree_across_backends() {
    let queries = [QueryPolicy::no_retry(), QueryPolicy::retry_evict()];
    let grids: Vec<_> = BACKENDS
        .iter()
        .map(|&backend| {
            churn_grid(
                arena(),
                LIST_SIZE,
                &[0, 250],
                &queries,
                &[],
                backend,
                CHURN_SEED,
                SEED,
            )
        })
        .collect();
    let single = &grids[0];
    for (backend, grid) in BACKENDS.iter().zip(&grids).skip(1) {
        assert_eq!(grid.len(), single.len());
        for (cell, base) in grid.iter().zip(single) {
            assert_eq!(
                cell.result,
                base.result,
                "{}: quiet {:?}/{:?} rate {} diverged from the single server",
                backend.name(),
                cell.policy,
                cell.query,
                cell.churn_permille
            );
            assert_eq!(cell.health.answered, base.health.answered);
            assert_eq!(cell.health.stranded, 0, "{}", backend.name());
        }
    }
}

/// Under a full single-server blackout the backends differentiate:
///
/// * the single server strands every final miss (zero fallbacks);
/// * a one-member federation *is* the single server, bit-for-bit;
/// * a real federation strands only the shard homed on each day's
///   victim — some requests strand, but fallbacks keep flowing;
/// * a DHT with `replication_k = 2` strands nothing (one node fails
///   per day); with `replication_k = 1` it strands like a shard.
#[test]
fn full_outage_differentiates_the_backends() {
    let outage: Vec<u32> = (0..400).collect();
    let run = |backend| cell(&config(backend, 0, &outage));

    let (single_result, single_health) = run(IndexBackend::SingleServer);
    assert_eq!(
        single_health.server_fallback, 0,
        "a dead single server answers nothing"
    );
    assert!(single_health.stranded > 0);

    let (fed1_result, fed1_health) = run(IndexBackend::Federated { n_servers: 1 });
    assert_eq!(
        fed1_result, single_result,
        "federation of one == the server"
    );
    assert_eq!(fed1_health.stranded, single_health.stranded);
    assert_eq!(fed1_health.forwarded, 0);

    let (_, fed4_health) = run(IndexBackend::Federated { n_servers: 4 });
    assert!(
        fed4_health.stranded > 0,
        "the homed quarter of the overlay still strands"
    );
    assert!(
        fed4_health.stranded < single_health.stranded,
        "only one shard strands per day: {} !< {}",
        fed4_health.stranded,
        single_health.stranded
    );
    assert!(
        fed4_health.server_fallback > 0,
        "the surviving shards keep resolving misses"
    );

    let (_, dht2_health) = run(IndexBackend::Dht { replication_k: 2 });
    assert_eq!(
        dht2_health.stranded, 0,
        "replication_k = 2 survives the one-node-per-day failure model"
    );
    assert!(dht2_health.dht_hops > 0);

    let (_, dht1_health) = run(IndexBackend::Dht { replication_k: 1 });
    assert!(
        dht1_health.stranded > 0,
        "an unreplicated DHT strands when the sole replica dies"
    );
}

/// Widening the outage window never helps: for every backend, the
/// stranded count is monotone non-decreasing over nested outage sets
/// (equivalently, resolved requests are non-increasing — `requests` is
/// fixed by the trace).
#[test]
fn degradation_is_monotone_in_outage_breadth() {
    let breadths: [Vec<u32>; 3] = [vec![], (7..200).collect(), (0..400).collect()];
    for backend in BACKENDS {
        let stranded: Vec<u64> = breadths
            .iter()
            .map(|outage| cell(&config(backend, 250, outage)).1.stranded)
            .collect();
        assert!(
            stranded.windows(2).all(|w| w[0] <= w[1]),
            "{}: stranded must be monotone over nested outages, got {:?}",
            backend.name(),
            stranded
        );
        assert_eq!(
            stranded[0],
            0,
            "{}: no outage, no stranding",
            backend.name()
        );
        assert!(
            stranded[2] > 0 || matches!(backend, IndexBackend::Dht { .. }),
            "{}: a full blackout must strand something",
            backend.name()
        );
    }
}

/// Renders the golden fixture: for one federated and one DHT run at the
/// pinned seed — the health ledger of a churn + outage simulation and
/// the first 64 raw routing picks (8 queriers × 4 files × 2 days).
fn golden_fixture() -> String {
    let outage: Vec<u32> = (7..200).collect();
    let mut out = String::from(
        "# index backend golden fixture v1 — bless with EDONKEY_BLESS=1\n\
         # picks enumerate querier 0..8 x file 0..4 x day {0, 10} at milli 500\n",
    );
    for backend in [
        IndexBackend::Federated { n_servers: 8 },
        IndexBackend::Dht { replication_k: 3 },
    ] {
        let (result, health) = cell(&config(backend, 250, &outage));
        writeln!(
            out,
            "run\t{}\tseed={SEED}\tchurn_seed={CHURN_SEED}\tlist_size={LIST_SIZE}",
            backend.name()
        )
        .unwrap();
        writeln!(
            out,
            "health\t{}\trequests={}\thits={}\tanswered={}\tserver_fallback={}\t\
             stranded={}\trecovered={}\tforwarded={}\tdht_hops={}",
            backend.name(),
            result.requests,
            result.hits(),
            health.answered,
            health.server_fallback,
            health.stranded,
            health.recovered,
            health.forwarded,
            health.dht_hops
        )
        .unwrap();
        let router = backend.router(SEED);
        let schedule = ChurnSchedule::new(ChurnConfig {
            seed: CHURN_SEED,
            churn_permille: 250,
            outage_days: outage.clone(),
        });
        for day in [0u32, 10] {
            for querier in 0..8u32 {
                for file in 0..4u32 {
                    let l = router.lookup(&schedule, querier, FileRef(file), day, 500);
                    writeln!(
                        out,
                        "pick\t{}\tq={querier}\tf={file}\tday={day}\tresolved={}\t\
                         forwarded={}\tdht_hops={}",
                        backend.name(),
                        l.resolved,
                        l.forwarded,
                        l.dht_hops
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

/// The checked-in fixture must keep matching what the code produces —
/// any drift in the routing draws, the hop accounting or the health
/// ledger of the pinned runs is an intentional-change gate.
#[test]
fn golden_fixture_pins_routing_and_ledgers() {
    let rendered = golden_fixture();
    if std::env::var("EDONKEY_BLESS").is_ok() {
        std::fs::write(FIXTURE, &rendered).expect("bless fixture");
    }
    let expected = std::fs::read_to_string(FIXTURE).expect("read checked-in fixture");
    assert_eq!(
        rendered, expected,
        "index backend routing or ledgers drifted from the blessed fixture — \
         if intentional, regenerate with EDONKEY_BLESS=1"
    );
}

//! Availability matrix for the Section 5 server-less search simulator:
//! peer churn, query timeouts with retries, staleness eviction, and
//! server-outage fallback, with every acceptance criterion asserted as
//! a machine-checked bound.
//!
//! Everything runs at test scale with fixed seeds — exact, reproducible
//! assertions, not statistical hopes.

use std::sync::OnceLock;

use edonkey_repro::semsearch::experiment::{churn_grid, sweep_cells, CHURN_POLICIES};
use edonkey_repro::semsearch::index::IndexBackend;
use edonkey_repro::semsearch::neighbours::PolicyKind;
use edonkey_repro::semsearch::sim::{
    simulate_arena_health_with_scratch, simulate_reference, AvailabilityConfig, QueryPolicy,
    SimScratch,
};
use edonkey_repro::semsearch::{SimConfig, SimResult};
use edonkey_repro::trace::compact::CacheArena;
use edonkey_repro::trace::model::FileRef;
use edonkey_repro::trace::pipeline::filter;
use edonkey_repro::workload::{generate_trace, WorkloadConfig};

const SEED: u64 = 20060418;
const CHURN_SEED: u64 = SEED ^ 0xc4c4;
const LIST_SIZE: usize = 20;

/// One shared filtered workload for the whole file (generation
/// dominates test time; every check is read-only on it).
fn caches() -> &'static (Vec<Vec<FileRef>>, usize) {
    static W: OnceLock<(Vec<Vec<FileRef>>, usize)> = OnceLock::new();
    W.get_or_init(|| {
        let mut config = WorkloadConfig::test_scale(SEED);
        config.peers = 1_500;
        config.files = 30_000;
        config.topics = 300;
        config.days = 15;
        let (_, trace) = generate_trace(config);
        let filtered = filter(&trace).trace;
        let n = filtered.files.len();
        (filtered.static_caches(), n)
    })
}

/// [`caches`] packed once, for the churn grid.
fn arena() -> &'static CacheArena {
    static A: OnceLock<CacheArena> = OnceLock::new();
    A.get_or_init(|| {
        let (caches, n_files) = caches();
        CacheArena::from_caches(caches, *n_files)
    })
}

/// The pre-availability `SimConfig` for one of [`CHURN_POLICIES`].
fn plain_config(policy: PolicyKind) -> SimConfig {
    let config = match policy {
        PolicyKind::Lru => SimConfig::lru(LIST_SIZE),
        PolicyKind::History => SimConfig::history(LIST_SIZE),
        PolicyKind::Random => SimConfig::random(LIST_SIZE),
        PolicyKind::RareLru { max_sources } => SimConfig::rare_lru(LIST_SIZE, max_sources),
    };
    config.with_seed(SEED)
}

/// One cell through the sweep scheduler.
fn run(config: &SimConfig) -> SimResult {
    sweep_cells(arena(), std::slice::from_ref(config))
        .remove(0)
        .0
}

/// Churn 0 + no outages ⇒ bit-identical to the pre-availability
/// simulator, both through the oracle (`simulate_reference`) and
/// through the churn grid itself — even with retries and staleness
/// eviction fully armed.
#[test]
fn zero_churn_is_bit_identical_to_the_seed_simulator() {
    let (caches, n_files) = caches();
    for config in [
        SimConfig::lru(8).with_seed(SEED),
        SimConfig::history(8).with_seed(SEED),
        SimConfig::lru(4).with_seed(SEED).with_two_hop(),
    ] {
        let reference = simulate_reference(caches, *n_files, &config);
        let armed = config
            .with_availability(AvailabilityConfig::none().with_query(QueryPolicy::retry_evict()));
        assert_eq!(
            run(&armed),
            reference,
            "quiet availability changed the result for {armed:?}"
        );
    }
    // The grid's rate-0 cells (split replays) equal the whole-cell
    // oracle on the plain config for every policy and either querier
    // reaction, and their ledgers are silent.
    let queries = [QueryPolicy::no_retry(), QueryPolicy::retry_evict()];
    let cells = churn_grid(
        arena(),
        LIST_SIZE,
        &[0],
        &queries,
        &[],
        IndexBackend::SingleServer,
        CHURN_SEED,
        SEED,
    );
    let mut scratch = SimScratch::new();
    for cell in &cells {
        let plain =
            simulate_arena_health_with_scratch(arena(), &plain_config(cell.policy), &mut scratch).0;
        assert_eq!(
            cell.result, plain,
            "rate-0 cell diverged: {:?}",
            cell.policy
        );
        assert_eq!(cell.health.timed_out, 0);
        assert_eq!(cell.health.retried, 0);
        assert_eq!(cell.health.evicted_stale + cell.health.probed_stale, 0);
        assert_eq!(cell.health.stranded, 0);
    }
}

/// At 25% churn, retrying with backoff plus staleness eviction recovers
/// a strictly higher hit rate than the no-retry baseline — for every
/// list policy.
#[test]
fn retry_and_eviction_recover_hits_at_25pct_churn_for_every_policy() {
    let queries = [QueryPolicy::no_retry(), QueryPolicy::retry_evict()];
    let cells = churn_grid(
        arena(),
        LIST_SIZE,
        &[250],
        &queries,
        &[],
        IndexBackend::SingleServer,
        CHURN_SEED,
        SEED,
    );
    for policy in CHURN_POLICIES {
        let rate = |max_retries: u32| {
            cells
                .iter()
                .find(|c| c.policy == policy && c.query.max_retries == max_retries)
                .expect("cell present")
                .result
                .hit_rate()
        };
        let (no_retry, retry) = (rate(0), rate(3));
        assert!(
            retry > no_retry,
            "{policy:?}: retry_evict {retry} must beat no_retry {no_retry} at 250 permille"
        );
    }
    // The recovery is driven by retries that actually happened.
    assert!(cells
        .iter()
        .filter(|c| c.query.max_retries > 0)
        .all(|c| c.health.retried > 0));
}

/// The Fig. 18 ordering — semantic lists (History, LRU) clearly beat
/// Random — survives 25% churn under the retrying querier.
#[test]
fn fig18_ordering_survives_churn() {
    let cells = churn_grid(
        arena(),
        LIST_SIZE,
        &[250],
        &[QueryPolicy::retry_evict()],
        &[],
        IndexBackend::SingleServer,
        CHURN_SEED,
        SEED,
    );
    let rate = |p: PolicyKind| {
        cells
            .iter()
            .find(|c| c.policy == p)
            .expect("cell present")
            .result
            .hit_rate()
    };
    let (lru, history, random) = (
        rate(PolicyKind::Lru),
        rate(PolicyKind::History),
        rate(PolicyKind::Random),
    );
    assert!(lru > 0.15, "LRU-20 hit rate {lru} under 25% churn");
    assert!(
        history > 0.15,
        "History-20 hit rate {history} under 25% churn"
    );
    assert!(
        lru > random + 0.05 && history > random + 0.05,
        "semantic lists must still beat random under churn: \
         lru {lru}, history {history}, random {random}"
    );
}

/// A server outage that starts mid-span strands outage-day misses and
/// still recovers answers through the warm overlay, for every policy;
/// the ledger identities hold exactly in every cell (reconciliation is
/// also asserted inside `churn_grid` itself).
#[test]
fn server_outage_strands_and_recovers_in_every_cell() {
    let outage: Vec<u32> = (7..200).collect();
    let queries = [QueryPolicy::no_retry(), QueryPolicy::retry_evict()];
    let cells = churn_grid(
        arena(),
        LIST_SIZE,
        &[250],
        &queries,
        &outage,
        IndexBackend::SingleServer,
        CHURN_SEED,
        SEED,
    );
    for cell in &cells {
        assert!(
            cell.health.stranded > 0,
            "{:?}: outage misses must strand",
            cell.policy
        );
        assert!(
            cell.health.recovered > 0,
            "{:?}: the warm overlay must keep answering",
            cell.policy
        );
        assert!(
            cell.health.server_fallback > 0,
            "{:?}: pre-outage misses must fall back",
            cell.policy
        );
        assert_eq!(
            cell.health.stranded + cell.health.server_fallback,
            cell.result.requests - cell.result.hits(),
            "{:?}: every miss is exactly one of stranded/fallback",
            cell.policy
        );
        assert!(cell.health.recovered <= cell.health.answered);
    }
}

/// Full churn: a peer offline the entire day answers nothing — the
/// overlay goes dark and every request lands on the server.
#[test]
fn total_churn_sends_everything_to_the_server() {
    let cells = churn_grid(
        arena(),
        LIST_SIZE,
        &[1000],
        &[QueryPolicy::retry_evict()],
        &[],
        IndexBackend::SingleServer,
        CHURN_SEED,
        SEED,
    );
    for cell in &cells {
        assert_eq!(cell.result.hits(), 0, "{:?}", cell.policy);
        assert_eq!(cell.health.server_fallback, cell.result.requests);
    }
}

/// The whole matrix is a pure function of its seeds: re-running any
/// cell reproduces the result and the ledger bit-for-bit, across three
/// distinct churn seeds.
#[test]
fn churn_matrix_is_deterministic_across_runs() {
    for churn_seed in [1u64, 0xfeed, CHURN_SEED] {
        let run = || {
            churn_grid(
                arena(),
                LIST_SIZE,
                &[100, 500],
                &[QueryPolicy::retry_evict()],
                &[],
                IndexBackend::SingleServer,
                churn_seed,
                SEED,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result, y.result, "seed {churn_seed}: results diverged");
            assert_eq!(x.health, y.health, "seed {churn_seed}: ledgers diverged");
        }
    }
}

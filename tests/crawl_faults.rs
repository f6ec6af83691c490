//! Crawl-robustness matrix: the netsim crawl under the deterministic
//! fault-injection layer (DESIGN.md §4.2), across every fault kind and
//! both retry policies, with the [`CrawlHealth`] ledger reconciled
//! against the emitted trace.
//!
//! Everything is seeded, so every bound here is an exact, reproducible
//! assertion — including the bit-identity checks.

use edonkey_repro::netsim::run_crawl_streaming;
use edonkey_repro::prelude::*;
use edonkey_repro::trace::io::bin::{from_bin, save_bin, to_bin, TraceWriter};
use edonkey_repro::trace::io::{from_json, to_json};
use edonkey_repro::trace::pipeline::{extrapolate, filter, filter_streaming};
use std::sync::OnceLock;

const SEED: u64 = 20060418;

/// One shared population for the whole file (generation dominates test
/// time; every crawl is read-only on it).
fn population() -> &'static Population {
    static POP: OnceLock<Population> = OnceLock::new();
    POP.get_or_init(|| {
        let mut config = WorkloadConfig::test_scale(SEED);
        config.peers = 400;
        config.files = 4_000;
        config.topics = 80;
        config.days = 10;
        config.cache_max = 300;
        Population::generate(config)
    })
}

fn base_config(browse_coverage: f64) -> CrawlerConfig {
    CrawlerConfig {
        outage_days: vec![],
        ..Default::default()
    }
    .budget_for(population().config.peers, browse_coverage, 2.0)
}

fn faulted(fault: FaultConfig, retry: RetryPolicy, browse_coverage: f64) -> CrawlerConfig {
    CrawlerConfig {
        fault,
        retry,
        ..base_config(browse_coverage)
    }
}

/// Every fault kind × {no-retry, retry+backoff}: the crawl completes,
/// the health ledger reconciles internally, and its `recorded` column
/// agrees exactly with the emitted trace.
#[test]
fn fault_matrix_health_reconciles_with_the_trace() {
    let quiet = FaultConfig::none();
    let kinds: &[(&str, FaultConfig)] = &[
        (
            "nat",
            FaultConfig {
                seed: 1,
                nat_prob: 0.3,
                ..quiet.clone()
            },
        ),
        (
            "transient",
            FaultConfig {
                seed: 2,
                transient_rate: 0.3,
                ..quiet.clone()
            },
        ),
        (
            "disconnect",
            FaultConfig {
                seed: 3,
                disconnect_rate: 0.4,
                ..quiet.clone()
            },
        ),
        (
            "query_drop",
            FaultConfig {
                seed: 4,
                query_drop_rate: 0.4,
                ..quiet.clone()
            },
        ),
        (
            "burst",
            FaultConfig {
                seed: 5,
                burst_days: vec![2, 5],
                burst_offline_prob: 0.8,
                ..quiet.clone()
            },
        ),
    ];
    for (name, fault) in kinds {
        for (policy, retry) in [
            ("no_retry", RetryPolicy::no_retry()),
            ("retry_backoff", RetryPolicy::backoff()),
        ] {
            let (trace, report) = run_crawl_full(
                population(),
                NetConfig::default(),
                faulted(fault.clone(), retry, 2.0),
            );
            let tag = format!("{name}/{policy}");
            assert_eq!(trace.check_invariants(), Ok(()), "{tag}");
            assert_eq!(report.health.check_invariants(), Ok(()), "{tag}");
            assert_eq!(
                report.health.recorded as usize,
                trace.snapshot_count(),
                "{tag}: every recorded browse must be a trace snapshot"
            );
            let attempts: usize = report.stats.iter().map(|d| d.attempts).sum();
            assert_eq!(
                attempts as u64, report.health.attempted,
                "{tag}: day stats and the health ledger count the same attempts"
            );
            let browsed: usize = report.stats.iter().map(|d| d.browsed).sum();
            assert_eq!(
                browsed as u64,
                report.health.recorded + report.health.duplicates,
                "{tag}: every browse is recorded or a duplicate"
            );
        }
    }
}

/// Fault draws are rate-independent (a peer-day faulted at 15% is still
/// faulted at 35%), so coverage degrades monotonically in the rate —
/// mechanically, not statistically.
#[test]
fn coverage_degrades_monotonically_with_fault_rate() {
    let mut last = usize::MAX;
    for &rate in &[0.0, 0.15, 0.35, 0.6] {
        let fault = FaultConfig {
            seed: 11,
            transient_rate: rate,
            ..FaultConfig::none()
        };
        let (trace, report) = run_crawl_full(
            population(),
            NetConfig::default(),
            faulted(fault, RetryPolicy::no_retry(), 3.0),
        );
        assert_eq!(report.health.check_invariants(), Ok(()));
        let n = trace.snapshot_count();
        assert!(
            n <= last,
            "coverage must not rise with the fault rate: {n} after {last} at rate {rate}"
        );
        last = n;
    }
    assert!(last > 0, "even the worst rate must observe something");
}

/// The ISSUE acceptance bar: at a 25% transient-fault rate the
/// retry+backoff crawler recovers at least 90% of the fault-free
/// coverage, and the no-retry crawler measurably less.
#[test]
fn retry_with_backoff_recovers_faulted_coverage() {
    let (clean, _) = run_crawl_full(population(), NetConfig::default(), base_config(3.0));
    let fault = FaultConfig {
        seed: SEED,
        transient_rate: 0.25,
        ..FaultConfig::none()
    };
    let (no_retry, nr_report) = run_crawl_full(
        population(),
        NetConfig::default(),
        faulted(fault.clone(), RetryPolicy::no_retry(), 3.0),
    );
    let (retry, r_report) = run_crawl_full(
        population(),
        NetConfig::default(),
        faulted(fault, RetryPolicy::backoff(), 3.0),
    );
    assert_eq!(nr_report.health.check_invariants(), Ok(()));
    assert_eq!(r_report.health.check_invariants(), Ok(()));
    assert!(r_report.health.retries > 0, "backoff must actually retry");
    let clean_n = clean.snapshot_count() as f64;
    let nr_n = no_retry.snapshot_count() as f64;
    let r_n = retry.snapshot_count() as f64;
    assert!(
        r_n >= 0.9 * clean_n,
        "retry+backoff must recover ≥90% of fault-free coverage: {r_n} vs {clean_n}"
    );
    assert!(
        nr_n < 0.9 * clean_n,
        "no-retry must lose measurable coverage: {nr_n} vs {clean_n}"
    );
    assert!(
        r_n > nr_n,
        "retry must strictly beat no-retry: {r_n} vs {nr_n}"
    );
}

/// The paper's headline ordering (Fig. 18: History ≳ LRU ≫ Random)
/// survives a faulted crawl — measurement noise from timeouts and
/// truncated browses does not erase the semantic-clustering signal.
#[test]
fn fig18_policy_ordering_survives_faults() {
    let mut config = WorkloadConfig::test_scale(SEED);
    config.peers = 1_200;
    config.files = 20_000;
    config.topics = 240;
    config.days = 12;
    let peers = config.peers;
    let population = Population::generate(config);
    let fault = FaultConfig {
        seed: SEED ^ 0x18,
        transient_rate: 0.25,
        disconnect_rate: 0.1,
        ..FaultConfig::none()
    };
    let crawler_config = CrawlerConfig {
        outage_days: vec![],
        fault,
        retry: RetryPolicy::backoff(),
        ..Default::default()
    }
    .budget_for(peers, 2.0, 2.0);
    let (trace, report) = run_crawl_full(&population, NetConfig::default(), crawler_config);
    assert_eq!(report.health.check_invariants(), Ok(()));
    assert!(report.health.truncated > 0, "disconnects must truncate");
    let filtered = filter(&trace).trace;
    let view = CacheArena::from_caches(&filtered.static_caches(), filtered.files.len());
    let cells = sweep_cells(
        &view,
        &[
            SimConfig::lru(20).with_seed(SEED),
            SimConfig::history(20).with_seed(SEED),
            SimConfig::random(20).with_seed(SEED),
        ],
    );
    let (lru, history, random) = (
        cells[0].0.hit_rate(),
        cells[1].0.hit_rate(),
        cells[2].0.hit_rate(),
    );
    assert!(lru > 0.2, "LRU-20 hit rate {lru} on the faulted trace");
    assert!(
        history > 0.2,
        "History-20 hit rate {history} on the faulted trace"
    );
    assert!(
        lru > random + 0.1 && history > random + 0.1,
        "semantic lists must beat random on the faulted trace: \
         lru {lru}, history {history}, random {random}"
    );
}

/// Determinism smoke over three seeds: the same seed reproduces the
/// crawl bit-for-bit (health, day stats, and the binary trace bytes),
/// and the streaming writer emits exactly the batch bytes.
#[test]
fn same_seed_is_bit_identical_across_runs() {
    for seed in [7u64, 4242, 20060418] {
        let fault = FaultConfig {
            seed,
            nat_prob: 0.1,
            transient_rate: 0.2,
            disconnect_rate: 0.15,
            query_drop_rate: 0.1,
            burst_days: vec![3],
            burst_offline_prob: 0.5,
        };
        let config = faulted(fault, RetryPolicy::backoff(), 1.5);
        let (trace_a, report_a) =
            run_crawl_full(population(), NetConfig::default(), config.clone());
        let (trace_b, report_b) =
            run_crawl_full(population(), NetConfig::default(), config.clone());
        assert_eq!(report_a, report_b, "seed {seed}: reports must be identical");
        let bytes_a = to_bin(&trace_a);
        assert_eq!(
            bytes_a,
            to_bin(&trace_b),
            "seed {seed}: traces must be byte-identical"
        );
        let writer = TraceWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
        let (stream_report, sink) =
            run_crawl_streaming(population(), NetConfig::default(), config, writer).unwrap();
        assert_eq!(stream_report, report_a, "seed {seed}: streaming report");
        assert_eq!(
            sink.into_inner(),
            bytes_a,
            "seed {seed}: streaming bytes must equal the batch encoding"
        );
    }
}

/// Truncated (mid-browse-disconnect) snapshots flow through the whole
/// trace pipeline unchanged: both codecs round-trip them, the
/// streaming filter agrees with the in-memory filter, and extrapolation
/// accepts the survivors.
#[test]
fn truncated_traces_flow_through_the_pipeline() {
    let fault = FaultConfig {
        seed: 99,
        disconnect_rate: 0.6,
        ..FaultConfig::none()
    };
    let (trace, report) = run_crawl_full(
        population(),
        NetConfig::default(),
        faulted(fault, RetryPolicy::backoff(), 2.0),
    );
    assert!(
        report.health.truncated > 0,
        "the disconnect rate must truncate browses"
    );
    assert_eq!(trace.check_invariants(), Ok(()));

    // Both codecs round-trip the truncated trace.
    assert_eq!(from_bin(&to_bin(&trace)).unwrap(), trace, "binary codec");
    assert_eq!(from_json(&to_json(&trace)).unwrap(), trace, "JSON codec");

    // Streaming filter agrees with the in-memory filter.
    let dir = std::env::temp_dir().join(format!("edonkey_crawl_faults_{SEED}"));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("full.etb");
    let output = dir.join("filtered.etb");
    save_bin(&trace, &input).unwrap();
    let in_memory = filter(&trace);
    let streamed = filter_streaming(&input, &output).unwrap();
    let from_stream = edonkey_repro::trace::io::bin::load_bin(&output).unwrap();
    assert_eq!(
        from_stream, in_memory.trace,
        "streaming filter must equal the in-memory filter"
    );
    assert_eq!(streamed.kept, in_memory.kept);
    std::fs::remove_dir_all(&dir).ok();

    // Extrapolation accepts the surviving peers (the population runs 10
    // days, so relax the span/snapshot gates accordingly).
    let extrapolated = extrapolate(
        &in_memory.trace,
        ExtrapolateConfig {
            min_snapshots: 3,
            min_span_days: 5,
        },
    );
    assert_eq!(extrapolated.trace.check_invariants(), Ok(()));
    assert!(
        !extrapolated.trace.peers.is_empty(),
        "regular clients must survive extrapolation of a truncated trace"
    );
}

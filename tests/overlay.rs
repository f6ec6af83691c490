//! Golden fixture for the live semantic overlay (`semsearch::overlay`):
//! the per-day request/hit series plus the full `SearchHealth` ledger
//! for every policy under three regimes — quiet, 250‰ churn with
//! retries and staleness eviction, and a 150‰ sybil + 150‰ polluter mix
//! with the reputation defense armed.
//!
//! Regenerate with `EDONKEY_BLESS=1 cargo test --test overlay` after an
//! *intentional* change to the overlay's walk, index or record path.

use std::fmt::Write as _;

use edonkey_repro::semsearch::overlay::{simulate_overlay_health, OverlayConfig};
use edonkey_repro::semsearch::sim::{AvailabilityConfig, QueryPolicy};
use edonkey_repro::semsearch::{AdversaryConfig, CHURN_POLICIES};
use edonkey_repro::workload::{Dynamics, GroundTruth, Population, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 20060418;
const LIST_SIZE: usize = 10;
const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/overlay_golden.tsv");

/// A two-week ground-truth cache history at a few hundred peers.
fn history() -> (GroundTruth, usize) {
    let mut config = WorkloadConfig::test_scale(SEED);
    config.peers = 400;
    config.files = 8_000;
    config.topics = 80;
    config.days = 14;
    let population = Population::generate(config);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x11fe);
    let truth = Dynamics::new(&population, &mut rng).run(&mut rng);
    (truth, population.files.len())
}

/// Renders one line per (regime, policy): the day series as
/// `requests/hits` pairs, then the ledger.
fn golden_fixture() -> String {
    let (truth, n_files) = history();
    let regimes = [
        ("quiet", AvailabilityConfig::none()),
        (
            "churn250",
            AvailabilityConfig::churn(SEED ^ 0xc4c4, 250).with_query(QueryPolicy::retry_evict()),
        ),
        (
            "adversary150",
            AvailabilityConfig::none()
                .with_adversary(AdversaryConfig::sybils(SEED ^ 0xad5e, 150).with_polluters(150))
                .with_reputation(),
        ),
    ];
    let mut out = String::from(
        "# overlay golden fixture v1 — bless with EDONKEY_BLESS=1\n\
         # regime\tpolicy\tday series (requests/hits)\tledger\n",
    );
    for (label, availability) in regimes {
        for policy in CHURN_POLICIES {
            let config = OverlayConfig {
                list_size: LIST_SIZE,
                policy,
                seed: SEED,
                availability: availability.clone(),
            };
            let (stats, health) =
                simulate_overlay_health(&truth.days, truth.start_day, n_files, &config);
            let requests: u64 = stats.iter().map(|s| s.requests).sum();
            let hits: u64 = stats.iter().map(|s| s.hits).sum();
            health
                .reconcile(requests, hits, 0)
                .unwrap_or_else(|e| panic!("{label}/{}: {e}", policy.name()));
            let series: Vec<String> = stats
                .iter()
                .map(|s| format!("{}/{}", s.requests, s.hits))
                .collect();
            writeln!(
                out,
                "{label}\t{}\t{}\t{health:?}",
                policy.name(),
                series.join(",")
            )
            .unwrap();
        }
    }
    out
}

/// The checked-in fixture must keep matching what the code produces.
#[test]
fn golden_fixture_pins_overlay_series_and_ledgers() {
    let rendered = golden_fixture();
    if std::env::var("EDONKEY_BLESS").is_ok() {
        std::fs::write(FIXTURE, &rendered).expect("bless fixture");
    }
    let expected = std::fs::read_to_string(FIXTURE).expect("read checked-in fixture");
    assert_eq!(
        rendered, expected,
        "overlay series or ledger drifted from the blessed fixture — \
         if intentional, regenerate with EDONKEY_BLESS=1"
    );
}

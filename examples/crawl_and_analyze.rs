//! Crawl a simulated eDonkey network with the paper's crawler and run
//! the Section 2–4 measurement analyses on what it observed.
//!
//! This is the full mechanistic path: population → live network (churn,
//! firewalls, browse denial, DHCP/reinstall aliases) → nickname-sweep
//! crawler under a declining bandwidth budget → trace → pipeline →
//! statistics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example crawl_and_analyze
//! ```

use edonkey_repro::analysis::{contribution, daily, geo_clustering, geography};
use edonkey_repro::netsim::run_crawl_streaming;
use edonkey_repro::prelude::*;
use edonkey_repro::trace::io;
use edonkey_repro::trace::pipeline::filter_streaming;
use edonkey_repro::trace::TraceWriter;

fn main() {
    let mut config = WorkloadConfig::test_scale(7);
    config.peers = 3_000;
    config.files = 20_000;
    config.days = 21;
    let peers = config.peers;
    println!(
        "generating {} peers / {} files…",
        config.peers, config.files
    );
    let population = Population::generate(config);

    println!("crawling for 21 days (outage on days 3–4)…");
    let (trace, stats) = run_crawl(
        &population,
        NetConfig::default(),
        CrawlerConfig::default().budget_for(peers, 1.0, 0.4),
    );

    println!("\nper-day crawl coverage (Fig. 1 mechanics):");
    for s in stats.iter().step_by(4) {
        println!(
            "  day +{:<2} known {:>5}  attempts {:>5}  browsed {:>5}",
            s.day_offset, s.known_users, s.attempts, s.browsed
        );
    }

    // Table 1.
    let summary = summarize(&trace, &CacheArena::from_trace_static(&trace));
    println!(
        "\ntrace: {} clients ({:.0}% free-riders), {} snapshots, {} files, {:.1} GB",
        summary.clients,
        100.0 * summary.free_rider_fraction(),
        summary.snapshots,
        summary.distinct_files,
        summary.distinct_bytes as f64 / (1u64 << 30) as f64,
    );

    // Fig. 2: discovery keeps finding new files.
    let discovery = daily::file_discovery_per_day(&trace);
    if let (Some(first), Some(last)) = (discovery.get(1), discovery.last()) {
        println!(
            "new files/day: {} early vs {} late (total {})",
            first.new_files, last.new_files, last.total_files
        );
    }

    // Fig. 4 / Table 2.
    println!("\nclients per country (Fig. 4):");
    for (cc, n, share) in geography::clients_per_country(&trace).into_iter().take(5) {
        println!("  {cc}: {n:>5} ({:.0}%)", 100.0 * share);
    }
    println!("top ASes (Table 2):");
    for row in geography::top_autonomous_systems(&trace, 5) {
        println!(
            "  AS{:<6} {:>4.0}% global {:>4.0}% national ({})",
            row.asn,
            100.0 * row.global_share,
            100.0 * row.national_share,
            row.country
        );
    }

    // Filtered stage + contribution skew (Fig. 7).
    let filtered = filter(&trace);
    let view = CacheArena::from_trace_static(&filtered.trace);
    let top15 = contribution::generosity_concentration(&filtered.trace, &view, 0.15);
    println!(
        "\nfiltered: {} clients; top 15% of sharers hold {:.0}% of files",
        filtered.trace.peers.len(),
        100.0 * top15
    );

    // Fig. 11: geographic clustering, by popularity band.
    let cdfs = geo_clustering::concentration_cdfs(
        &filtered.trace,
        &view,
        geo_clustering::Level::Country,
        &[1.0, 5.0],
    );
    for (threshold, cdf) in cdfs {
        if cdf.is_empty() {
            continue;
        }
        let all_home = 1.0 - cdf.fraction_at_most(99.9);
        println!(
            "files with avg popularity ≥ {threshold}: {:.0}% fully home-country ({} files)",
            100.0 * all_home,
            cdf.len()
        );
    }

    // Extrapolated stage (the dynamic-analysis input).
    let extrapolated = extrapolate(&filtered.trace, ExtrapolateConfig::default());
    println!(
        "extrapolated: {} regular clients over {} days",
        extrapolated.trace.peers.len(),
        extrapolated.trace.days.len()
    );

    // The same crawl, streamed: each completed day goes straight to the
    // binary columnar writer, and the full → filtered pass streams
    // day-at-a-time too — peak memory is the intern tables plus ONE day,
    // which is what makes paper scale (1.16 M caches × 56 days) fit.
    println!("\nstreaming the crawl to disk (binary columnar format)…");
    let dir = std::env::temp_dir().join("edonkey_crawl_example");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let full_path = dir.join("full.etrc");
    let filtered_path = dir.join("filtered.etrc");
    let writer = TraceWriter::create(&full_path).expect("create trace file");
    let (_, _) = run_crawl_streaming(
        &population,
        NetConfig::default(),
        CrawlerConfig::default().budget_for(peers, 1.0, 0.4),
        writer,
    )
    .expect("streaming crawl");
    let outcome = filter_streaming(&full_path, &filtered_path).expect("streaming filter");
    let reloaded = io::load_auto(&filtered_path).expect("reload filtered trace");
    assert_eq!(
        reloaded, filtered.trace,
        "streamed pipeline must match in-memory"
    );
    println!(
        "  {} -> {} ({} days, {} kept peers); reloaded via load_auto: identical",
        full_path.display(),
        filtered_path.display(),
        outcome.days,
        outcome.kept.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

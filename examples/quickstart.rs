//! Quickstart: generate a synthetic eDonkey world, derive the paper's
//! trace stages, and measure semantic-neighbour search.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use edonkey_repro::prelude::*;

fn main() {
    // 1. A synthetic population calibrated to the paper's marginals.
    //    (test_scale keeps this example fast; see WorkloadConfig::
    //    repro_scale for figure-quality runs.)
    let mut config = WorkloadConfig::test_scale(42);
    config.peers = 2_000;
    config.files = 15_000;
    config.days = 14;
    println!(
        "generating population: {} peers, {} files…",
        config.peers, config.files
    );
    let (_population, trace) = generate_trace(config);

    // 2. The pipeline of Section 2.3: full → filtered → extrapolated.
    let summary = summarize(&trace, &CacheArena::from_trace_static(&trace));
    println!(
        "full trace:        {} clients, {:.0}% free-riders, {} snapshots, {} files",
        summary.clients,
        100.0 * summary.free_rider_fraction(),
        summary.snapshots,
        summary.distinct_files,
    );
    let filtered = filter(&trace);
    let extrapolated = extrapolate(&filtered.trace, ExtrapolateConfig::default());
    println!(
        "filtered trace:    {} clients; extrapolated trace: {} clients",
        filtered.trace.peers.len(),
        extrapolated.trace.peers.len(),
    );

    // 3. Section 5: server-less search via semantic neighbours.
    let caches = filtered.trace.static_caches();
    let n_files = filtered.trace.files.len();
    println!("\nhit rates (trace-driven simulation, Section 5):");
    println!(
        "{:>10} {:>8} {:>8} {:>8}",
        "neighbours", "LRU", "History", "Random"
    );
    for &size in &[5usize, 10, 20, 50] {
        let lru = simulate(&caches, n_files, &SimConfig::lru(size));
        let history = simulate(&caches, n_files, &SimConfig::history(size));
        let random = simulate(&caches, n_files, &SimConfig::random(size));
        println!(
            "{size:>10} {:>7.1}% {:>7.1}% {:>7.1}%",
            100.0 * lru.hit_rate(),
            100.0 * history.hit_rate(),
            100.0 * random.hit_rate(),
        );
    }

    // 4. Two-hop search (Fig. 23): neighbours-of-neighbours help.
    let one = simulate(&caches, n_files, &SimConfig::lru(20));
    let two = simulate(&caches, n_files, &SimConfig::lru(20).with_two_hop());
    println!(
        "\ntwo-hop search, 20 neighbours: {:.1}% → {:.1}%",
        100.0 * one.hit_rate(),
        100.0 * two.hit_rate(),
    );
}

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
    let (_population, full) = generate_trace(config);

    // 2. The pipeline of Section 2.3: full → filtered → extrapolated.
    let summary = summarize(&full, &full.static_arena());
    println!(
        "full trace:        {} clients, {:.0}% free-riders, {} snapshots, {} files",
        summary.clients,
        100.0 * summary.free_rider_fraction(),
        summary.snapshots,
        summary.distinct_files,
    );
    let filtered = filter_arena(&full).arena;
    let extrapolated = extrapolate_arena(&filtered, ExtrapolateConfig::default()).arena;
    println!(
        "filtered trace:    {} clients; extrapolated trace: {} clients",
        filtered.peers.len(),
        extrapolated.peers.len(),
    );

    // 3. Section 5: server-less search via semantic neighbours.
    //    Every cell runs through the sweep scheduler, which replays
    //    each one split by querier or whole, as the cell allows.
    let view = filtered.static_arena();
    println!("\nhit rates (trace-driven simulation, Section 5):");
    println!(
        "{:>10} {:>8} {:>8} {:>8}",
        "neighbours", "LRU", "History", "Random"
    );
    let sizes = [5usize, 10, 20, 50];
    let configs: Vec<SimConfig> = sizes
        .iter()
        .flat_map(|&size| {
            [
                SimConfig::lru(size),
                SimConfig::history(size),
                SimConfig::random(size),
            ]
        })
        .collect();
    for (size, row) in sizes.iter().zip(sweep_cells(&view, &configs).chunks(3)) {
        println!(
            "{size:>10} {:>7.1}% {:>7.1}% {:>7.1}%",
            100.0 * row[0].0.hit_rate(),
            100.0 * row[1].0.hit_rate(),
            100.0 * row[2].0.hit_rate(),
        );
    }

    // 4. Two-hop search (Fig. 23): neighbours-of-neighbours help.
    let hops = sweep_cells(
        &view,
        &[SimConfig::lru(20), SimConfig::lru(20).with_two_hop()],
    );
    let (one, two) = (&hops[0].0, &hops[1].0);
    println!(
        "\ntwo-hop search, 20 neighbours: {:.1}% → {:.1}%",
        100.0 * one.hit_rate(),
        100.0 * two.hit_rate(),
    );
}

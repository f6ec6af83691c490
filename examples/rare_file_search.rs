//! The paper's sharpest finding: semantic clustering is *strongest for
//! rare files* — exactly the files flooding and server indexes struggle
//! with. This example reproduces that story end to end:
//!
//! 1. the clustering correlation is higher for low-popularity files
//!    (Fig. 13/14);
//! 2. removing popular files *raises* semantic hit rates (Fig. 20);
//! 3. two-hop search widens the gain, most at small lists (Fig. 23).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example rare_file_search
//! ```

use edonkey_repro::analysis::{semantic, view};
use edonkey_repro::prelude::*;
use edonkey_repro::semsearch::filters::remove_top_files;

fn main() {
    let mut config = WorkloadConfig::test_scale(99);
    config.peers = 2_500;
    config.files = 18_000;
    config.days = 10;
    let (_population, trace) = generate_trace(config);
    let static_view = filter_arena(&TraceArena::from_trace(&trace))
        .arena
        .static_arena();

    // 1. Clustering correlation, all files vs rare files (Fig. 13/14).
    let popularity = view::popularity(&static_view);
    let all = semantic::clustering_correlation_arena(&static_view, |_| true, Some(500));
    let rare = semantic::clustering_correlation_arena(
        &static_view,
        |f| (2..=6).contains(&popularity[f.index()]),
        None,
    );
    println!("P(one more common file | k in common):");
    println!("{:>4} {:>10} {:>12}", "k", "all files", "rare (2..6)");
    for k in [1u32, 2, 3, 5, 8] {
        let at = |curve: &[semantic::CorrelationPoint]| {
            curve
                .iter()
                .find(|p| p.common == k)
                .map(|p| format!("{:>9.1}%", p.probability_percent))
                .unwrap_or_else(|| "        –".into())
        };
        println!("{k:>4} {} {}", at(&all), at(&rare));
    }

    // 2. Removing popular files raises the hit rate (Fig. 20).
    println!("\nLRU hit rate after removing popular files (Fig. 20):");
    for q in [0.0, 0.05, 0.15, 0.30] {
        let (reduced, _) = remove_top_files(&static_view, q);
        let sweep = sweep_cells(
            &reduced,
            &sweep_configs(PolicyKind::Lru, &[5, 20], false, 3),
        );
        println!(
            "  top {:>2.0}% files removed: size-5 {:>5.1}%  size-20 {:>5.1}%  ({} requests)",
            100.0 * q,
            100.0 * sweep[0].0.hit_rate(),
            100.0 * sweep[1].0.hit_rate(),
            sweep[0].0.requests,
        );
    }

    // 3. Two-hop search (Fig. 23).
    println!("\none-hop vs two-hop (LRU):");
    for size in [5usize, 20, 50] {
        let hops = sweep_cells(
            &static_view,
            &[SimConfig::lru(size), SimConfig::lru(size).with_two_hop()],
        );
        let (one, two) = (&hops[0].0, &hops[1].0);
        println!(
            "  {size:>3} neighbours: {:>5.1}% → {:>5.1}%",
            100.0 * one.hit_rate(),
            100.0 * two.hit_rate()
        );
    }
}

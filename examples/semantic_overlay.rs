//! Build a server-less search overlay and stress it the way Section 5
//! does: policy comparison, generous-uploader removal, query-load
//! distribution, and the randomized-trace control.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example semantic_overlay
//! ```

use edonkey_repro::prelude::*;
use edonkey_repro::semsearch::experiment::{randomization_sweep_arena, sweep_cells, sweep_configs};
use edonkey_repro::semsearch::filters::remove_top_uploaders;
use edonkey_repro::trace::randomize::recommended_iterations;

/// One policy's list-size sweep on the split-cell scheduler.
fn sweep(view: &CacheArena, policy: PolicyKind, sizes: &[usize]) -> Vec<SimResult> {
    sweep_cells(view, &sweep_configs(policy, sizes, false, 1))
        .into_iter()
        .map(|(result, _)| result)
        .collect()
}

fn main() {
    let mut config = WorkloadConfig::test_scale(2024);
    config.peers = 2_500;
    config.files = 18_000;
    config.days = 10;
    let (_population, trace) = generate_trace(config);
    let view = filter_arena(&trace).arena.static_arena();

    // Fig. 18: LRU vs History vs Random.
    println!("policy comparison (Fig. 18):");
    let sizes = [5usize, 10, 20, 50, 100];
    for policy in [PolicyKind::Lru, PolicyKind::History, PolicyKind::Random] {
        print!("  {:<8}", policy.name());
        for (size, result) in sizes.iter().zip(sweep(&view, policy, &sizes)) {
            print!(" {:>3}:{:>5.1}%", size, 100.0 * result.hit_rate());
        }
        println!();
    }

    // Fig. 19: remove the most generous uploaders.
    println!("\nLRU after removing top uploaders (Fig. 19):");
    for q in [0.0, 0.05, 0.15] {
        let (reduced, _) = remove_top_uploaders(&view, q);
        let r = &sweep(&reduced, PolicyKind::Lru, &[20])[0];
        println!(
            "  top {:>2.0}% removed: {:>5.1}% hit rate over {} requests",
            100.0 * q,
            100.0 * r.hit_rate(),
            r.requests
        );
    }

    // Fig. 22: load distribution with and without generous uploaders.
    println!("\nquery load, LRU-5 (Fig. 22):");
    for q in [0.0, 0.10] {
        let (reduced, _) = remove_top_uploaders(&view, q);
        let r = &sweep(&reduced, PolicyKind::Lru, &[5])[0];
        println!(
            "  top {:>2.0}% removed: mean {:>6.1} msgs/client, max {:>7}",
            100.0 * q,
            r.mean_load(),
            r.max_load()
        );
    }

    // Fig. 21: the randomized-trace control. Whatever hit rate survives
    // full randomization is attributable to generosity + popularity, not
    // semantic structure.
    let full = recommended_iterations(view.replica_count());
    let points = randomization_sweep_arena(&view, 10, &[0, full / 10, full / 2, full], 7);
    println!("\nhit rate vs randomization (Fig. 21, LRU-10):");
    for point in points {
        println!(
            "  {:>9} swaps: {:>5.1}%",
            point.swaps,
            100.0 * point.hit_rate
        );
    }
}

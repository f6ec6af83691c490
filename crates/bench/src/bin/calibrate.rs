//! Calibration helper: prints the headline metrics the shape checks
//! gate on, for a grid of workload knobs. Not part of the reproduction
//! itself — a tool for tuning DESIGN.md §4.4's defaults.
use edonkey_semsearch::experiment::{randomization_sweep_arena, sweep_cells};
use edonkey_semsearch::filters::{remove_top_files, remove_top_uploaders};
use edonkey_semsearch::sim::{SimConfig, SimResult};
use edonkey_trace::compact::{CacheArena, TraceArena};
use edonkey_trace::pipeline::filter_arena;
use edonkey_trace::randomize::recommended_iterations;
use edonkey_workload::{generate_trace, WorkloadConfig};

/// One LRU cell through the sweep scheduler.
fn lru(view: &CacheArena, list_size: usize) -> SimResult {
    sweep_cells(view, &[SimConfig::lru(list_size)]).remove(0).0
}

fn probe(label: &str, config: WorkloadConfig) {
    let (_, trace) = generate_trace(config);
    let view = filter_arena(&TraceArena::from_trace(&trace))
        .arena
        .static_arena();
    let replicas = view.replica_count();

    let popularity = edonkey_analysis::view::popularity(&view);
    let top_spread = *popularity.iter().max().unwrap_or(&0) as f64
        / view.iter().filter(|c| !c.is_empty()).count().max(1) as f64;
    let top15 = {
        let sizes: Vec<u64> = view
            .iter()
            .map(|c| c.len() as u64)
            .filter(|&s| s > 0)
            .collect();
        edonkey_analysis::stats::top_share(&sizes, 0.15)
    };

    let lru20 = lru(&view, 20).hit_rate();
    let (no_up, _) = remove_top_uploaders(&view, 0.15);
    let lru20_noup = lru(&no_up, 20).hit_rate();
    let lru5 = lru(&view, 5).hit_rate();
    let mut pop_sweep = String::new();
    for q in [0.05f64, 0.15, 0.30] {
        let (no_pop, _) = remove_top_files(&view, q);
        let r = lru(&no_pop, 5);
        pop_sweep.push_str(&format!(
            " -pop{:.0}%={:.2}({:.0}%req)",
            q * 100.0,
            r.hit_rate(),
            100.0 * no_pop.replica_count() as f64 / replicas as f64
        ));
    }
    let full = recommended_iterations(replicas);
    let sweep = randomization_sweep_arena(&view, 10, &[0, full], 3).points;

    println!(
        "{label}: top15={top15:.2} spread={top_spread:.3} lru20={lru20:.2} -up15={lru20_noup:.2} lru5={lru5:.2}{pop_sweep} rand: {:.2}->{:.2}",
        sweep[0].hit_rate, sweep[1].hit_rate
    );
}

fn main() {
    let base = || {
        let mut c = WorkloadConfig::test_scale(20060418);
        c.peers = 2_000;
        c.files = 40_000;
        c.topics = 400;
        c.days = 20; // mirror the integration tests: multi-day unions
        c
    };
    probe("t400      ", base());
    let mut c = base();
    c.file_attractiveness_alpha = 0.95;
    c.file_attractiveness_cap = 1_000.0;
    probe("deep pop  ", c);
    let mut c = base();
    c.files = 80_000;
    probe("files80k  ", c);
}

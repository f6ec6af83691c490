//! Regeneration of Section 5 artefacts: Figs. 18–23 and Table 3.

use edonkey_semsearch::experiment::{
    randomization_sweep_arena, sweep_cells, sweep_configs, PAPER_LIST_SIZES,
};
use edonkey_semsearch::filters::{remove_top_files, remove_top_uploaders};
use edonkey_semsearch::neighbours::PolicyKind;
use edonkey_semsearch::sim::SimResult;
use edonkey_trace::compact::CacheArena;
use edonkey_trace::randomize::recommended_iterations;

use crate::{f, Emitter, Workload, SEED};

/// One policy over `sizes` on one cache set, as one split-cell sweep:
/// one result per list size.
fn sweep(arena: &CacheArena, policy: PolicyKind, sizes: &[usize], two_hop: bool) -> Vec<SimResult> {
    let configs = sweep_configs(policy, sizes, two_hop, SEED);
    sweep_cells(arena, &configs)
        .into_iter()
        .map(|(result, _)| result)
        .collect()
}

/// Fig. 18: hit rate vs list size for LRU, History and Random.
pub fn fig18(w: &Workload) {
    let mut e = Emitter::new("fig18");
    e.comment("Fig. 18: semantic-neighbour search hit rate (filtered static trace)");
    e.comment("policy\tlist_size\thit_rate_pct\trequests");
    for policy in [PolicyKind::Lru, PolicyKind::History, PolicyKind::Random] {
        for (size, result) in
            PAPER_LIST_SIZES
                .iter()
                .zip(sweep(w.static_view(), policy, &PAPER_LIST_SIZES, false))
        {
            e.row([
                policy.name().to_string(),
                size.to_string(),
                f(100.0 * result.hit_rate(), 2),
                result.requests.to_string(),
            ]);
        }
        e.blank();
    }
    e.finish();
}

/// One removal fraction's LRU sweep as Fig. 19/20 rows.
fn removal_rows(e: &mut Emitter, q: f64, sweep: &[SimResult]) {
    for (size, result) in PAPER_LIST_SIZES.iter().zip(sweep) {
        e.row([
            f(100.0 * q, 0),
            size.to_string(),
            f(100.0 * result.hit_rate(), 2),
            result.requests.to_string(),
        ]);
    }
    e.blank();
}

/// Fig. 19: LRU hit rate without the top 5/10/15 % uploaders.
pub fn fig19(w: &Workload) {
    let mut e = Emitter::new("fig19");
    e.comment("Fig. 19: LRU hit rate after removing the most generous uploaders");
    e.comment("removed_pct\tlist_size\thit_rate_pct\trequests");
    for q in [0.0, 0.05, 0.10, 0.15] {
        let (reduced, _) = remove_top_uploaders(w.static_view(), q);
        removal_rows(
            &mut e,
            q,
            &sweep(&reduced, PolicyKind::Lru, &PAPER_LIST_SIZES, false),
        );
    }
    e.finish();
}

/// Fig. 20: LRU hit rate without the top 5/15/30 % most popular files.
pub fn fig20(w: &Workload) {
    let mut e = Emitter::new("fig20");
    e.comment("Fig. 20: LRU hit rate after removing the most popular files");
    e.comment("removed_pct\tlist_size\thit_rate_pct\trequests");
    for q in [0.0, 0.05, 0.15, 0.30] {
        let (reduced, _) = remove_top_files(w.static_view(), q);
        removal_rows(
            &mut e,
            q,
            &sweep(&reduced, PolicyKind::Lru, &PAPER_LIST_SIZES, false),
        );
    }
    e.finish();
}

/// Table 3: combined influence of generous uploaders and popular files.
pub fn table3(w: &Workload) {
    let mut e = Emitter::new("table3");
    e.comment("Table 3: combined removal of generous uploaders and popular files (LRU)");
    e.comment("uploaders_removed_pct\tfiles_removed_pct\tsize5_pct\tsize10_pct\tsize20_pct");
    let grid = [
        (0.0, 0.0),
        (0.05, 0.0),
        (0.0, 0.05),
        (0.05, 0.05),
        (0.15, 0.0),
        (0.0, 0.15),
        (0.15, 0.15),
    ];
    for (uploaders, files) in grid {
        let (reduced, _) = remove_top_uploaders(w.static_view(), uploaders);
        let (reduced, _) = remove_top_files(&reduced, files);
        let sweep = sweep(&reduced, PolicyKind::Lru, &[5, 10, 20], false);
        e.row([
            f(100.0 * uploaders, 0),
            f(100.0 * files, 0),
            f(100.0 * sweep[0].hit_rate(), 1),
            f(100.0 * sweep[1].hit_rate(), 1),
            f(100.0 * sweep[2].hit_rate(), 1),
        ]);
    }
    e.finish();
}

/// Fig. 21: hit rate vs number of swaps on the progressively randomized
/// trace (LRU, 10 neighbours).
pub fn fig21(w: &Workload) {
    let mut e = Emitter::new("fig21");
    e.comment("Fig. 21: LRU-10 hit rate vs trace randomization (swap attempts)");
    e.comment("swaps\thit_rate_pct");
    let full = recommended_iterations(w.static_view().replica_count());
    let checkpoints: Vec<u64> = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
        .iter()
        .map(|&x| (x * full as f64) as u64)
        .collect();
    for point in randomization_sweep_arena(w.static_view(), 10, &checkpoints, SEED) {
        e.row([point.swaps.to_string(), f(100.0 * point.hit_rate, 2)]);
    }
    e.comment(&format!(
        "full randomization = {full} attempts (0.5 * N * ln N)"
    ));
    e.finish();
}

/// Fig. 22: per-client query load (LRU, 5 neighbours), with and without
/// the top uploaders.
pub fn fig22(w: &Workload) {
    let mut e = Emitter::new("fig22");
    e.comment("Fig. 22: query load per client by rank (LRU, list size 5)");
    e.comment("removed_pct\tclient_rank\tmessages\t(summary rows follow data)");
    for q in [0.0, 0.05, 0.10, 0.15] {
        let (reduced, _) = remove_top_uploaders(w.static_view(), q);
        let result = &sweep(&reduced, PolicyKind::Lru, &[5], false)[0];
        let loads = result.load_by_rank();
        // Log-sample the rank axis, as the paper's log-log plot does.
        let mut rank = 1usize;
        while rank <= loads.len() {
            e.row([
                f(100.0 * q, 0),
                rank.to_string(),
                loads[rank - 1].to_string(),
            ]);
            rank = (rank as f64 * 1.5).ceil() as usize;
        }
        e.comment(&format!(
            "removed {:.0}%: {} requests, mean {:.0} msgs/client, max {}",
            100.0 * q,
            result.requests,
            result.mean_load(),
            result.max_load()
        ));
        e.blank();
    }
    e.finish();
}

/// Fig. 23: two-hop search, with and without the top uploaders.
pub fn fig23(w: &Workload) {
    let mut e = Emitter::new("fig23");
    e.comment("Fig. 23: one-hop vs two-hop semantic search (LRU)");
    e.comment("series\tlist_size\thit_rate_pct");
    for (series, two_hop) in [("one_hop", false), ("two_hop", true)] {
        for (size, result) in PAPER_LIST_SIZES.iter().zip(sweep(
            w.static_view(),
            PolicyKind::Lru,
            &PAPER_LIST_SIZES,
            two_hop,
        )) {
            e.row([
                series.to_string(),
                size.to_string(),
                f(100.0 * result.hit_rate(), 2),
            ]);
        }
        e.blank();
    }
    let sizes = [5usize, 20, 100];
    for q in [0.05, 0.15] {
        let (reduced, _) = remove_top_uploaders(w.static_view(), q);
        for (size, result) in sizes
            .iter()
            .zip(sweep(&reduced, PolicyKind::Lru, &sizes, true))
        {
            e.row([
                format!("two_hop_minus_top{:.0}pct", 100.0 * q),
                size.to_string(),
                f(100.0 * result.hit_rate(), 2),
            ]);
        }
        e.blank();
    }
    e.finish();
}

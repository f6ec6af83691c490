//! Regeneration of Section 4 artefacts: Figs. 11–17.

use edonkey_analysis::{geo_clustering, overlap, semantic, view};
use edonkey_proto::query::FileKind;
use edonkey_trace::compact::CacheArena;
use edonkey_trace::randomize::{recommended_iterations, ArenaShuffler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{f, Emitter, Workload, SEED};

fn concentration_figure(name: &str, level: geo_clustering::Level, w: &Workload) {
    let mut e = Emitter::new(name);
    let what = match level {
        geo_clustering::Level::Country => "country",
        geo_clustering::Level::AutonomousSystem => "autonomous system",
    };
    e.comment(&format!(
        "{name}: CDF of the % of a file's sources in its home {what}, by average popularity (filtered)"
    ));
    e.comment("min_avg_popularity\tpercent_at_home\tcdf");
    let thresholds = [1.0, 5.0, 10.0, 20.0, 50.0, 100.0];
    for (threshold, cdf) in
        geo_clustering::concentration_cdfs(&w.filtered, w.static_view(), level, &thresholds)
    {
        if cdf.is_empty() {
            e.comment(&format!(
                "threshold {threshold}: no qualifying files at this scale"
            ));
            continue;
        }
        for pct in [
            0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 99.99,
        ] {
            e.row([f(threshold, 0), f(pct, 0), f(cdf.fraction_at_most(pct), 4)]);
        }
        e.blank();
    }
    e.finish();
}

/// Fig. 11: home-country concentration CDFs by popularity band.
pub fn fig11(w: &Workload) {
    concentration_figure("fig11", geo_clustering::Level::Country, w);
}

/// Fig. 12: home-AS concentration CDFs by popularity band.
pub fn fig12(w: &Workload) {
    concentration_figure("fig12", geo_clustering::Level::AutonomousSystem, w);
}

/// Holder cap for the pair-overlap index: files more popular than this
/// contribute quadratically many pairs while saying nothing about
/// interest clustering (the paper's own point in Fig. 14).
const HOLDER_CAP: usize = 200;

/// Fig. 13: the clustering correlation on the first extrapolated day,
/// plus rare/popular audio-file bands.
pub fn fig13(w: &Workload) {
    let mut e = Emitter::new("fig13");
    e.comment("Fig. 13: P(another common file | k files in common)");
    e.comment("series\tk\tprobability_pct\tpairs");
    // All files, first extrapolated day (the paper's day 348).
    if let Some(snap) = w.extrapolated.days.first() {
        let day =
            CacheArena::from_snapshot(snap, w.extrapolated.peers.len(), w.extrapolated.files.len());
        let curve = semantic::clustering_correlation_arena(&day, |_| true, Some(HOLDER_CAP));
        for point in curve {
            e.row([
                "all_day1".to_string(),
                point.common.to_string(),
                f(point.probability_percent, 2),
                point.pairs.to_string(),
            ]);
        }
        e.blank();
    }
    // Audio files by popularity band, static filtered trace.
    let static_view = w.static_view();
    let popularity = view::popularity(static_view);
    for (label, lo, hi) in [("audio_pop_1_10", 1u32, 10u32), ("audio_pop_30_40", 30, 40)] {
        let curve = semantic::clustering_correlation_arena(
            static_view,
            |fr| {
                w.filtered.files[fr.index()].kind == FileKind::Audio
                    && (lo..=hi).contains(&popularity[fr.index()])
            },
            None,
        );
        for point in curve {
            e.row([
                label.to_string(),
                point.common.to_string(),
                f(point.probability_percent, 2),
                point.pairs.to_string(),
            ]);
        }
        e.blank();
    }
    e.finish();
}

/// Fig. 14: correlation on the real vs randomized trace, for all files
/// and for popularity levels 3 and 5.
pub fn fig14(w: &Workload) {
    let mut e = Emitter::new("fig14");
    e.comment("Fig. 14: clustering correlation, trace vs randomized (filtered)");
    e.comment("panel\tseries\tk\tprobability_pct\tpairs");
    let static_view = w.static_view();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xf14);
    let mut shuffler = ArenaShuffler::new(static_view);
    shuffler.run(recommended_iterations(shuffler.replica_count()), &mut rng);
    let stats = shuffler.stats();
    let randomized = shuffler.into_arena();
    e.comment(&format!(
        "randomization: {} attempts, {} swaps performed",
        stats.attempted, stats.performed
    ));
    let popularity = view::popularity(static_view);
    // Randomization preserves popularity, so one vector serves both.
    debug_assert_eq!(popularity, view::popularity(&randomized));
    for (panel, wanted) in [
        ("all", None::<u32>),
        ("popularity_3", Some(3)),
        ("popularity_5", Some(5)),
    ] {
        for (series, arena) in [("trace", static_view), ("random", &randomized)] {
            let curve = semantic::clustering_correlation_arena(
                arena,
                |fr| wanted.is_none_or(|p| popularity[fr.index()] == p),
                if wanted.is_none() {
                    Some(HOLDER_CAP)
                } else {
                    None
                },
            );
            for point in curve.iter().take(40) {
                e.row([
                    panel.to_string(),
                    series.to_string(),
                    point.common.to_string(),
                    f(point.probability_percent, 2),
                    point.pairs.to_string(),
                ]);
            }
            e.blank();
        }
    }
    e.finish();
}

fn overlap_figure(name: &str, caption: &str, w: &Workload, groups: &[u32]) {
    let mut e = Emitter::new(name);
    e.comment(caption);
    e.comment("initial_overlap\tpairs\tday\tmean_overlap");
    for group in overlap::overlap_evolution(&w.extrapolated, groups, Some(5_000), Some(HOLDER_CAP))
    {
        for (day, mean) in &group.series {
            e.row([
                group.initial_overlap.to_string(),
                group.pairs.to_string(),
                day.to_string(),
                f(*mean, 3),
            ]);
        }
        e.blank();
    }
    e.finish();
}

/// Fig. 15: overlap evolution for initial overlaps 1–10.
pub fn fig15(w: &Workload) {
    overlap_figure(
        "fig15",
        "Fig. 15: overlap evolution, pairs with 1-10 initial common files (extrapolated)",
        w,
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    );
}

/// Fig. 16: overlap evolution for initial overlaps 20–57.
pub fn fig16(w: &Workload) {
    overlap_figure(
        "fig16",
        "Fig. 16: overlap evolution, pairs with 20-57 initial common files (extrapolated)",
        w,
        &[20, 25, 30, 35, 40, 45, 51, 57],
    );
}

/// Fig. 17: overlap evolution for the largest initial overlaps present.
pub fn fig17(w: &Workload) {
    let top = overlap::largest_initial_overlaps(&w.extrapolated, 4, Some(HOLDER_CAP));
    let groups: Vec<u32> = top.iter().map(|(c, _)| *c).collect();
    let mut dedup = groups.clone();
    dedup.sort_unstable();
    dedup.dedup();
    overlap_figure(
        "fig17",
        "Fig. 17: overlap evolution for the largest initial overlaps (extrapolated)",
        w,
        &dedup,
    );
}

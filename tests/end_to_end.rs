//! End-to-end integration: population → trace → pipeline → analyses →
//! search simulation, with the paper's qualitative shape checks
//! (DESIGN.md §5) asserted as machine-checked bounds.
//!
//! Everything runs at test scale with fixed seeds, so these are exact,
//! reproducible assertions — not flaky statistical hopes.

use edonkey_repro::analysis::{
    contribution, daily, geo_clustering, geography, overlap, popularity, semantic, sizes, spread,
    stats, view,
};
use edonkey_repro::prelude::*;
use edonkey_repro::semsearch::experiment::randomization_sweep_arena;
use edonkey_repro::semsearch::filters::{remove_top_files, remove_top_uploaders};
use edonkey_repro::trace::randomize::{recommended_iterations, ArenaShuffler};

/// One shared workload for the whole file (generation dominates test
/// time; every check is read-only on it): the full trace as an arena.
fn workload() -> TraceArena {
    let mut config = WorkloadConfig::test_scale(20060418);
    config.peers = 2_000;
    config.files = 40_000;
    config.topics = 400;
    config.days = 20;
    generate_trace(config).1
}

/// The filtered stage and its static view.
fn filtered_view(full: &TraceArena) -> (TraceArena, CacheArena) {
    let filtered = filter_arena(full).arena;
    let view = filtered.static_arena();
    (filtered, view)
}

/// One policy's list-size sweep on the split-cell scheduler.
fn sweep(view: &CacheArena, policy: PolicyKind, sizes: &[usize]) -> Vec<SimResult> {
    sweep_cells(view, &sweep_configs(policy, sizes, false, 1))
        .into_iter()
        .map(|(result, _)| result)
        .collect()
}

#[test]
fn pipeline_stages_shrink_and_stay_valid() {
    let trace = workload();
    assert_eq!(trace.check_invariants(), Ok(()));
    let filtered = filter_arena(&trace).arena;
    assert_eq!(filtered.check_invariants(), Ok(()));
    assert!(filtered.peers.len() <= trace.peers.len());
    let extrapolated = extrapolate_arena(&filtered, ExtrapolateConfig::default()).arena;
    assert_eq!(extrapolated.check_invariants(), Ok(()));
    assert!(extrapolated.peers.len() <= filtered.peers.len());
    assert!(
        extrapolated.peers.len() > 100,
        "regular clients must survive"
    );
}

#[test]
fn table1_free_riders_dominate() {
    let trace = workload();
    let summary = summarize(&trace, &trace.static_arena());
    let frac = summary.free_rider_fraction();
    assert!(
        (0.6..0.9).contains(&frac),
        "free-rider fraction {frac} outside the paper's 70–84% ballpark"
    );
    assert!(
        summary.snapshots > summary.clients,
        "multiple snapshots per client"
    );
}

#[test]
fn fig5_popularity_is_zipf_like() {
    let trace = workload();
    let day = trace.days[trace.days.len() / 2].day;
    let curve = popularity::replication_rank_curve(&trace, day);
    assert!(curve.len() > 1_000);
    // Log-log slope of the tail (ranks 10..) must be clearly negative.
    let points: Vec<(f64, f64)> = curve
        .iter()
        .skip(10)
        .map(|&(r, s)| (r as f64, s as f64))
        .collect();
    let (_, slope) = stats::loglog_slope(&points).expect("enough points");
    assert!(
        (-2.0..-0.2).contains(&slope),
        "rank-popularity slope {slope} is not Zipf-like"
    );
}

#[test]
fn fig6_popular_files_are_large() {
    let trace = workload();
    let (filtered, view) = filtered_view(&trace);
    let (small, mid, large) = sizes::size_mix(&filtered, &view);
    assert!(small > 0.2, "small-file share {small}");
    assert!(mid > 0.3, "mid-file share {mid}");
    assert!(large < 0.3, "large-file share {large}");
    // Among popular files, big files dominate far beyond their share.
    let big_among_popular = sizes::fraction_larger_than(&filtered, &view, 5, 100 << 20);
    let big_among_all = sizes::fraction_larger_than(&filtered, &view, 1, 100 << 20);
    assert!(
        big_among_popular > 2.0 * big_among_all,
        "popularity must tilt toward large files: {big_among_popular} vs {big_among_all}"
    );
}

#[test]
fn fig7_generosity_is_concentrated() {
    let trace = workload();
    let (filtered, view) = filtered_view(&trace);
    let top15 = contribution::generosity_concentration(&filtered, &view, 0.15);
    assert!(
        (0.5..0.95).contains(&top15),
        "top-15% share {top15}; paper reports 75%"
    );
}

#[test]
fn fig8_top_file_surges_then_decays() {
    let trace = workload();
    let (filtered, view) = filtered_view(&trace);
    let top = spread::top_files_overall(&view, 6);
    let series = spread::spread_over_time(&filtered, &top);
    // The first day on which a file's spread reaches its maximum.
    let peak = |s: &[(u32, f64)]| {
        (0..s.len()).fold(0, |best, i| if s[i].1 > s[best].1 { i } else { best })
    };
    let top_file = &series[0].1;
    let at = peak(top_file);
    let (peak_day, peak_pct) = top_file[at];
    let (last_day, last_pct) = *top_file.last().expect("one point per day");
    assert!(
        0 < at && at < top_file.len() - 1,
        "the top file must peak strictly inside the trace, not on day {peak_day}"
    );
    assert!(
        last_pct < peak_pct / 2.0,
        "the top file must decay: {peak_pct}% on day {peak_day}, {last_pct}% on day {last_day}"
    );
    assert!(
        series
            .iter()
            .any(|(_, s)| s[0].1 == 0.0 && s[peak(s)].1 > peak_pct / 3.0),
        "some top-6 file must start absent and surge to a third of the top file's {peak_pct}%"
    );
}

#[test]
fn fig4_country_mix_matches_plan() {
    let trace = workload();
    let rows = geography::clients_per_country(&trace);
    assert_eq!(rows[0].0.as_str().len(), 2);
    // FR and DE must lead with roughly 29/28%.
    let share_of = |cc: &str| {
        rows.iter()
            .find(|(c, _, _)| c.as_str() == cc)
            .map(|&(_, _, s)| s)
            .unwrap_or(0.0)
    };
    assert!((share_of("FR") - 0.29).abs() < 0.05);
    assert!((share_of("DE") - 0.28).abs() < 0.05);
    let top5 = geography::top_as_combined_share(&trace, 5);
    assert!(
        (0.35..0.75).contains(&top5),
        "top-5 AS share {top5}; paper: 54%"
    );
}

#[test]
fn fig11_rare_files_cluster_geographically() {
    let trace = workload();
    let (filtered, static_view) = filtered_view(&trace);
    let conc =
        geo_clustering::home_concentration(&filtered, &static_view, geo_clustering::Level::Country);
    let spans = view::file_spans(&filtered, &static_view);
    // Band by popularity rank (the paper's thresholds are absolute, but
    // "popular" is scale-relative): the 200 most replicated files vs all.
    let mut by_pop: Vec<(usize, f64)> = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.distinct_sources > 0 && conc.percent_at_home[*i].is_some())
        .map(|(i, s)| (i, s.average_popularity()))
        .collect();
    by_pop.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let fully_home = |files: &[usize]| {
        let n = files.len().max(1);
        files
            .iter()
            .filter(|&&i| conc.percent_at_home[i].expect("filtered") >= 100.0 - 1e-9)
            .count() as f64
            / n as f64
    };
    let top: Vec<usize> = by_pop.iter().take(200).map(|&(i, _)| i).collect();
    let all: Vec<usize> = by_pop.iter().map(|&(i, _)| i).collect();
    assert!(all.len() > 2_000, "need real support: {}", all.len());
    let home_top = fully_home(&top);
    let home_all = fully_home(&all);
    assert!(
        home_all > home_top + 0.1,
        "popular files must be less home-bound: all {home_all} vs top {home_top}"
    );
    assert!(
        home_all > 0.2,
        "rare files should often be single-country: {home_all}"
    );
}

#[test]
fn fig13_correlation_rises_with_common_files() {
    let trace = workload();
    let (_, static_view) = filtered_view(&trace);
    let curve = semantic::clustering_correlation_arena(&static_view, |_| true, Some(400));
    assert!(curve.len() >= 5);
    let p1 = curve[0].probability_percent;
    let p5 = curve
        .iter()
        .find(|p| p.common == 5)
        .map(|p| p.probability_percent)
        .expect("k=5 present");
    assert!(
        p5 > p1,
        "P(another | 5 common) = {p5} must exceed P(another | 1 common) = {p1}"
    );
    assert!(
        p5 > 50.0,
        "peers with 5 common files nearly always share more: {p5}"
    );
}

#[test]
fn fig14_randomization_destroys_rare_file_clustering() {
    let trace = workload();
    let (_, static_view) = filtered_view(&trace);
    let popularity = view::popularity(&static_view);
    let rare = |fr: FileRef| (3..=5).contains(&popularity[fr.index()]);
    let before = semantic::clustering_correlation_arena(&static_view, rare, None);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let mut shuffler = ArenaShuffler::new(&static_view);
    shuffler.run(recommended_iterations(shuffler.replica_count()), &mut rng);
    let randomized = shuffler.into_arena();
    let rand_popularity = view::popularity(&randomized);
    assert_eq!(
        popularity, rand_popularity,
        "popularity is preserved exactly"
    );
    let after = semantic::clustering_correlation_arena(&randomized, rare, None);
    let p = |curve: &[semantic::CorrelationPoint]| {
        curve.first().map(|p| p.probability_percent).unwrap_or(0.0)
    };
    assert!(
        p(&before) > p(&after) + 10.0,
        "trace {} vs randomized {}: the gap IS the semantic clustering",
        p(&before),
        p(&after)
    );
}

#[test]
fn fig15_small_initial_overlaps_decay_smoothly() {
    let trace = workload();
    let extrapolated =
        extrapolate_arena(&filter_arena(&trace).arena, ExtrapolateConfig::default()).arena;
    // The fig15 harness's groups, pair cap and holder cap.
    let initial: Vec<u32> = (1..=10).collect();
    let groups = overlap::overlap_evolution(&extrapolated, &initial, Some(5_000), Some(200));
    assert_eq!(
        groups.iter().map(|g| g.initial_overlap).collect::<Vec<_>>(),
        initial,
        "every initial overlap 1-10 has pairs"
    );
    for g in &groups {
        let (first_day, day_one) = g.series[0];
        let (last_day, last) = *g.series.last().expect("one point per day");
        assert!(first_day < last_day, "the series spans the trace");
        // The holder cap only hides shared files, so day one sees at
        // least the initial overlap.
        assert!(
            day_one >= g.initial_overlap as f64,
            "group {}: day-one mean {day_one} below its initial overlap",
            g.initial_overlap
        );
        assert!(
            last < day_one,
            "group {}: mean overlap must decay, day one {day_one} vs last day {last}",
            g.initial_overlap
        );
    }
}

#[test]
fn fig16_fig17_larger_overlaps_persist() {
    let trace = workload();
    let extrapolated =
        extrapolate_arena(&filter_arena(&trace).arena, ExtrapolateConfig::default()).arena;
    // Each group's mean overlap on the middle day of the series, as a
    // share of its initial overlap, under the fig15-17 harness's pair
    // and holder caps. The middle day, not the last: the sparse final
    // days collapse with the crawl budget.
    let retained = |groups: &[u32]| -> Vec<(u32, f64)> {
        overlap::overlap_evolution(&extrapolated, groups, Some(5_000), Some(200))
            .iter()
            .map(|g| {
                let (_, mean) = g.series[g.series.len() / 2];
                (g.initial_overlap, mean / f64::from(g.initial_overlap))
            })
            .collect()
    };
    let small = retained(&[1, 12]);
    assert_eq!(
        small.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
        [1, 12],
        "both small groups have pairs"
    );
    let (one, twelve) = (small[0].1, small[1].1);
    assert!(
        twelve > one,
        "relative persistence must grow with overlap: overlap-12 keeps {twelve:.2}, \
         overlap-1 keeps {one:.2}"
    );
    // Fig. 17's groups: the largest first-day overlaps.
    let mut top: Vec<u32> = overlap::largest_initial_overlaps(&extrapolated, 4, Some(200))
        .iter()
        .map(|&(c, _)| c)
        .collect();
    top.sort_unstable();
    top.dedup();
    let largest = retained(&top);
    assert_eq!(largest.len(), top.len(), "every fig17 group has pairs");
    for (k, share) in largest {
        assert!(
            share >= 2.0 * one,
            "fig17 group {k} keeps {share:.2}, under twice the overlap-1 share {one:.2}"
        );
    }
}

#[test]
fn fig18_policy_ordering_and_magnitudes() {
    let trace = workload();
    let (_, view) = filtered_view(&trace);
    let rate = |k: PolicyKind| sweep(&view, k, &[20])[0].hit_rate();
    let (lru, history, random) = (
        rate(PolicyKind::Lru),
        rate(PolicyKind::History),
        rate(PolicyKind::Random),
    );
    assert!(lru > 0.2, "LRU-20 hit rate {lru}; paper: 41%");
    assert!(history > 0.2, "History-20 hit rate {history}; paper: 47%");
    assert!(
        lru > random + 0.1 && history > random + 0.1,
        "semantic lists must beat random: lru {lru}, history {history}, random {random}"
    );
}

#[test]
fn fig19_uploader_removal_hurts_but_does_not_collapse() {
    let trace = workload();
    let (_, view) = filtered_view(&trace);
    let (without_top, _) = remove_top_uploaders(&view, 0.15);
    let baseline = sweep(&view, PolicyKind::Lru, &[20])[0].hit_rate();
    let reduced = sweep(&without_top, PolicyKind::Lru, &[20])[0].hit_rate();
    assert!(reduced < baseline, "removing generous uploaders must hurt");
    assert!(
        reduced > baseline * 0.5,
        "…but most of the hit rate must survive: {baseline} → {reduced}"
    );
}

#[test]
fn fig20_popular_file_removal_helps_small_lists_most() {
    let trace = workload();
    let (_, view) = filtered_view(&trace);
    let lru5 = |q: f64| sweep(&remove_top_files(&view, q).0, PolicyKind::Lru, &[5]).remove(0);
    let baseline = lru5(0.0);
    let light = lru5(0.05);
    let heavy = lru5(0.30);
    // Removing the head leaves mostly rare-file requests…
    assert!(
        light.requests < baseline.requests * 9 / 10,
        "a 5% removal must shed a disproportionate share of requests"
    );
    assert!(
        heavy.requests < baseline.requests * 3 / 4,
        "a 30% removal must shed most requests"
    );
    // …and those hit *at least as well*: the paper's rare-file
    // clustering result. (At the paper's 11M-file scale the rise holds
    // through 30% removals; with a tens-of-thousands catalogue the 30%
    // rank cut reaches into the clustered band itself, so the
    // machine-checked claim is pinned at 5%. Even at 5% the delta is
    // population-sampling noise at this 2k-peer scale — it flips sign
    // across workload seeds with spread ≈ ±0.08 — so the bound asserts
    // "survives within sampling noise", not a strict rise.)
    assert!(
        light.hit_rate() > baseline.hit_rate() * 0.75,
        "rare-file hit rate must survive a light removal: {} → {}",
        baseline.hit_rate(),
        light.hit_rate()
    );
    // The stable, seed-independent shape: a shallow cut leaves the
    // clustered rare-file band intact, a deep cut destroys it.
    assert!(
        light.hit_rate() > heavy.hit_rate() + 0.05,
        "light removal must hit far better than heavy: {} vs {}",
        light.hit_rate(),
        heavy.hit_rate()
    );
}

#[test]
fn fig21_hit_rate_decays_under_randomization() {
    let trace = workload();
    let (_, view) = filtered_view(&trace);
    let full = recommended_iterations(view.replica_count());
    let sweep = randomization_sweep_arena(&view, 10, &[0, full], 3);
    assert!(
        sweep[1].hit_rate < sweep[0].hit_rate * 0.7,
        "full randomization must destroy most of the hit rate: {} → {}",
        sweep[0].hit_rate,
        sweep[1].hit_rate
    );
    assert!(
        sweep[1].hit_rate > 0.0,
        "generosity+popularity keep a residual"
    );
}

#[test]
fn fig22_removing_uploaders_flattens_load() {
    let trace = workload();
    let (_, view) = filtered_view(&trace);
    let baseline = &sweep(&view, PolicyKind::Lru, &[5])[0];
    let reduced = &sweep(&remove_top_uploaders(&view, 0.10).0, PolicyKind::Lru, &[5])[0];
    let skew = |r: &SimResult| r.max_load() as f64 / r.mean_load().max(1.0);
    assert!(
        skew(reduced) < skew(baseline),
        "load skew must drop: {} → {}",
        skew(baseline),
        skew(reduced)
    );
}

#[test]
fn fig23_two_hop_beats_one_hop_most_at_small_lists() {
    let trace = workload();
    let (_, view) = filtered_view(&trace);
    let rates = |size: usize| {
        let hops = [SimConfig::lru(size), SimConfig::lru(size).with_two_hop()];
        let cells = sweep_cells(&view, &hops);
        (cells[0].0.hit_rate(), cells[1].0.hit_rate())
    };
    let (one_small, two_small) = rates(5);
    let (one_large, two_large) = rates(100);
    assert!(
        two_small - one_small > 0.02,
        "two-hop must add real hits at size 5"
    );
    assert!(two_large >= one_large, "two-hop never hurts");
    // "As the number of semantic neighbours increases, the discrepancy
    // decreases": with a few hundred sharers the absolute gap plateaus,
    // so the machine-checked form is the relative gain.
    let rel_small = (two_small - one_small) / one_small.max(1e-9);
    let rel_large = (two_large - one_large) / one_large.max(1e-9);
    assert!(
        rel_small > rel_large,
        "relative two-hop gain must shrink with list size: {rel_small} vs {rel_large}"
    );
}

#[test]
fn fig2_new_files_keep_arriving() {
    let trace = workload();
    let discovery = daily::file_discovery_per_day(&trace);
    let last = discovery.last().unwrap();
    assert!(
        last.new_files > 0,
        "even on the final day the crawler must discover new files"
    );
    // At paper scale the rate is ~5/day; it shrinks with the catalogue
    // (11M files vs our tens of thousands), so assert the mechanism, not
    // the absolute value.
    let rate = daily::new_files_per_client(&trace);
    assert!(
        (0.05..20.0).contains(&rate),
        "new files per client per day: {rate}"
    );
}

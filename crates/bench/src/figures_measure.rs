//! Regeneration of Section 2–3 artefacts: Figs. 1–10, Tables 1–2.

use edonkey_analysis::{contribution, daily, geography, popularity, sizes, spread, summary};
use edonkey_trace::compact::TraceArena;

use crate::{f, Emitter, Workload};

/// Fig. 1: clients and files scanned per day (crawler coverage).
pub fn fig01(w: &Workload) {
    let mut e = Emitter::new("fig01");
    e.comment("Fig. 1: evolution of clients and shared files per day");
    e.comment("day\tclients\tdistinct_files");
    for row in daily::clients_and_files_per_day(&w.full) {
        e.row([
            row.day.to_string(),
            row.clients.to_string(),
            row.files.to_string(),
        ]);
    }
    e.finish();
}

/// Fig. 2: new and cumulative files discovered per day.
pub fn fig02(w: &Workload) {
    let mut e = Emitter::new("fig02");
    e.comment("Fig. 2: files discovered during the trace (full trace)");
    e.comment("day\tnew_files\ttotal_files");
    for row in daily::file_discovery_per_day(&w.full) {
        e.row([
            row.day.to_string(),
            row.new_files.to_string(),
            row.total_files.to_string(),
        ]);
    }
    let rate = daily::new_files_per_client(&w.full);
    e.comment(&format!(
        "mean new files per client per day: {rate:.2} (paper: ~5)"
    ));
    e.finish();
}

/// Fig. 3: per-day files and non-empty caches after extrapolation.
pub fn fig03(w: &Workload) {
    let mut e = Emitter::new("fig03");
    e.comment("Fig. 3: files and non-empty caches per day (extrapolated trace)");
    e.comment("day\tfile_replicas\tnon_empty_caches");
    for row in daily::coverage_per_day(&w.extrapolated) {
        e.row([
            row.day.to_string(),
            row.files.to_string(),
            row.non_empty_caches.to_string(),
        ]);
    }
    e.finish();
}

/// Fig. 4: distribution of clients per country.
pub fn fig04(w: &Workload) {
    let mut e = Emitter::new("fig04");
    e.comment("Fig. 4: distribution of clients per country (full trace)");
    e.comment("country\tclients\tshare_percent");
    for (cc, n, share) in geography::clients_per_country(&w.full) {
        e.row([cc.to_string(), n.to_string(), f(100.0 * share, 1)]);
    }
    e.finish();
}

/// Summarizes a stage other than the filtered one, whose static view
/// the workload keeps; this stage's view is built and dropped here.
fn summarize_stage(trace: &TraceArena) -> summary::TraceSummary {
    summary::summarize(trace, &trace.static_arena())
}

/// Table 1: general characteristics of each trace stage.
pub fn table1(w: &Workload) {
    let mut e = Emitter::new("table1");
    e.comment("Table 1: general characteristics of the trace");
    e.comment("stage\tduration_days\tclients\tfree_riders\tfree_rider_pct\tsnapshots\tdistinct_files\tterabytes");
    let stages = [
        ("full", summarize_stage(&w.full)),
        ("filtered", summary::summarize(&w.filtered, w.static_view())),
        ("extrapolated", summarize_stage(&w.extrapolated)),
    ];
    for (stage, s) in stages {
        e.row([
            stage.to_string(),
            s.duration_days.to_string(),
            s.clients.to_string(),
            s.free_riders.to_string(),
            f(100.0 * s.free_rider_fraction(), 1),
            s.snapshots.to_string(),
            s.distinct_files.to_string(),
            f(s.distinct_bytes as f64 / 1e12, 3),
        ]);
    }
    e.finish();
}

/// Fig. 5: file replication vs rank for five sample days.
pub fn fig05(w: &Workload) {
    let mut e = Emitter::new("fig05");
    e.comment("Fig. 5: distribution of file replication for 5 days (extrapolated)");
    e.comment("day\trank\tsources");
    let days = popularity::sample_days(&w.extrapolated, 5);
    for (day, curve) in popularity::replication_curves(&w.extrapolated, &days, 6) {
        for (rank, sources) in curve {
            e.row([day.to_string(), rank.to_string(), sources.to_string()]);
        }
        e.blank();
    }
    e.finish();
}

/// Fig. 6: cumulative distribution of file sizes by popularity level.
pub fn fig06(w: &Workload) {
    let mut e = Emitter::new("fig06");
    e.comment("Fig. 6: CDF of file sizes (KB) for popularity >= 1, 5, 10 (filtered)");
    e.comment("min_popularity\tsize_kb\tcdf");
    let view = w.static_view();
    for (threshold, cdf) in sizes::size_cdfs_by_popularity(&w.filtered, view, &[1, 5, 10]) {
        for (x, y) in cdf.log_series(6) {
            e.row([threshold.to_string(), f(x, 2), f(y, 4)]);
        }
        e.blank();
    }
    let (small, mid, large) = sizes::size_mix(&w.filtered, view);
    e.comment(&format!(
        "size mix: {:.0}% < 1MB, {:.0}% 1-10MB, {:.0}% >= 10MB (paper: 40/50/10)",
        100.0 * small,
        100.0 * mid,
        100.0 * large
    ));
    e.comment(&format!(
        "among popularity>=5 files, {:.0}% are > 600MB (paper: ~45%)",
        100.0 * sizes::fraction_larger_than(&w.filtered, view, 5, 600 << 20)
    ));
    e.finish();
}

/// Fig. 7: files and bytes shared per client.
pub fn fig07(w: &Workload) {
    let mut e = Emitter::new("fig07");
    e.comment("Fig. 7: files and disk space shared per client (filtered)");
    let cdfs = contribution::contribution_cdfs(&w.filtered, w.static_view());
    e.comment("series\tx\tcdf (x = files, or GB for space series)");
    for (name, cdf) in [
        ("files_all", &cdfs.files_all),
        ("files_sharers", &cdfs.files_sharers),
        ("space_all", &cdfs.space_all),
        ("space_sharers", &cdfs.space_sharers),
    ] {
        for (x, y) in cdf.log_series(5) {
            e.row([name.to_string(), f(x, 4), f(y, 4)]);
        }
        e.blank();
    }
    e.comment(&format!(
        "top 15% of sharers hold {:.0}% of files (paper: 75%)",
        100.0 * contribution::generosity_concentration(&w.filtered, w.static_view(), 0.15)
    ));
    e.finish();
}

/// Fig. 8: spread over time for the six most popular files.
pub fn fig08(w: &Workload) {
    let mut e = Emitter::new("fig08");
    e.comment("Fig. 8: file spread (% of clients sharing) for the top-6 files");
    e.comment("file_rank\tday\tspread_percent");
    let top = spread::top_files_overall(w.static_view(), 6);
    for (idx, (file, series)) in spread::spread_over_time(&w.filtered, &top)
        .into_iter()
        .enumerate()
    {
        e.comment(&format!("file #{} = {}", idx + 1, file));
        for (day, pct) in series {
            e.row([(idx + 1).to_string(), day.to_string(), f(pct, 4)]);
        }
        e.blank();
    }
    if let Some((file, day, holders)) = spread::peak_spread(&w.filtered) {
        e.comment(&format!(
            "peak: file {file} held by {holders} clients on day {day} ({:.2}% of {}; paper: 372 of 53476 = 0.7%)",
            100.0 * holders as f64 / w.filtered.peers.len().max(1) as f64,
            w.filtered.peers.len()
        ));
    }
    e.finish();
}

fn rank_figure(name: &str, caption_day: &str, w: &Workload, day: u32) {
    let mut e = Emitter::new(name);
    e.comment(&format!(
        "{}: rank evolution of the top-5 files of {caption_day} (filtered)",
        name
    ));
    e.comment("file_rank\tday\trank (empty = absent that day)");
    let top = spread::top_files_on_day(&w.filtered, day, 5);
    for (idx, (_, series)) in spread::rank_over_time(&w.filtered, &top)
        .into_iter()
        .enumerate()
    {
        for (d, rank) in series {
            e.row([
                (idx + 1).to_string(),
                d.to_string(),
                rank.map(|r| r.to_string()).unwrap_or_default(),
            ]);
        }
        e.blank();
    }
    e.finish();
}

/// Fig. 9: rank evolution of the first analysis day's top-5 files.
pub fn fig09(w: &Workload) {
    let day = w.filtered.first_day().unwrap_or(0);
    rank_figure("fig09", "the first day", w, day);
}

/// Fig. 10: rank evolution of the mid-trace top-5 files.
pub fn fig10(w: &Workload) {
    let day = match (w.filtered.first_day(), w.filtered.last_day()) {
        (Some(a), Some(b)) => a + (b - a) / 2,
        _ => 0,
    };
    rank_figure("fig10", "mid-trace", w, day);
}

/// Table 2: the top five autonomous systems.
pub fn table2(w: &Workload) {
    let mut e = Emitter::new("table2");
    e.comment("Table 2: top-5 autonomous systems by hosted clients (full)");
    e.comment("asn\tcountry\tglobal_pct\tnational_pct\tclients");
    for row in geography::top_autonomous_systems(&w.full, 5) {
        e.row([
            row.asn.to_string(),
            row.country.to_string(),
            f(100.0 * row.global_share, 1),
            f(100.0 * row.national_share, 1),
            row.clients.to_string(),
        ]);
    }
    e.comment(&format!(
        "combined top-5 share: {:.0}% (paper: 54%)",
        100.0 * geography::top_as_combined_share(&w.full, 5)
    ));
    e.finish();
}

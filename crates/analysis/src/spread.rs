//! Figs. 8, 9, 10: file spread over time and rank evolution.

use edonkey_trace::compact::{CacheArena, DayArena, TraceArena};
use edonkey_trace::model::FileRef;

use crate::view::{popularity, top_k_files};

/// Per-file holder counts for one day, as a dense vector over the
/// trace's `n_files` files.
fn day_counts(day: &DayArena, n_files: usize) -> Vec<u32> {
    let mut counts = vec![0u32; n_files];
    for f in &day.entries {
        counts[f.index()] += 1;
    }
    counts
}

/// The `k` most-replicated files over the *whole* trace period (distinct
/// holders in the static `view`) — the "6 most popular files" of Fig. 8.
pub fn top_files_overall(view: &CacheArena, k: usize) -> Vec<FileRef> {
    top_k_files(&popularity(view), k)
}

/// The `k` most-replicated files on one specific day — Figs. 9/10 track
/// "the top 5 of day 348" and "of day 367".
pub fn top_files_on_day(trace: &TraceArena, day: u32, k: usize) -> Vec<FileRef> {
    let Ok(idx) = trace.days.binary_search_by_key(&day, |d| d.day) else {
        return Vec::new();
    };
    let counts = day_counts(&trace.days[idx], trace.files.len());
    top_k_files(&counts, k)
        .into_iter()
        .filter(|f| counts[f.index()] > 0)
        .collect()
}

/// Fig. 8: for each tracked file, the per-day fraction of clients holding
/// it (`spread`, in percent of the stage's client population).
///
/// Output: one `(file, series)` per tracked file, where the series holds
/// `(day, spread_percent)`.
pub fn spread_over_time(trace: &TraceArena, files: &[FileRef]) -> Vec<(FileRef, Vec<(u32, f64)>)> {
    let clients = trace.peers.len().max(1) as f64;
    let mut result: Vec<(FileRef, Vec<(u32, f64)>)> = files
        .iter()
        .map(|&f| (f, Vec::with_capacity(trace.days.len())))
        .collect();
    for day in &trace.days {
        let counts = day_counts(day, trace.files.len());
        for (f, series) in &mut result {
            series.push((day.day, 100.0 * counts[f.index()] as f64 / clients));
        }
    }
    result
}

/// Per-day `(day, rank)` series; `None` = zero holders that day.
pub(crate) type RankSeries = Vec<(u32, Option<usize>)>;

/// Figs. 9/10: for each tracked file, its per-day popularity *rank*
/// (1 = most replicated; ties broken by file index; files with zero
/// holders that day get rank `None`).
pub fn rank_over_time(trace: &TraceArena, files: &[FileRef]) -> Vec<(FileRef, RankSeries)> {
    let mut result: Vec<(FileRef, RankSeries)> = files
        .iter()
        .map(|&f| (f, Vec::with_capacity(trace.days.len())))
        .collect();
    for day in &trace.days {
        let counts = day_counts(day, trace.files.len());
        // Rank of file f = 1 + number of files strictly more replicated
        // (+ ties with lower index). Computing only for tracked files
        // keeps this O(files × tracked) instead of a full sort per day.
        for (f, series) in &mut result {
            let mine = counts[f.index()];
            if mine == 0 {
                series.push((day.day, None));
                continue;
            }
            let mut rank = 1usize;
            for (other, &c) in counts.iter().enumerate() {
                if c > mine || (c == mine && other < f.index()) {
                    rank += 1;
                }
            }
            series.push((day.day, Some(rank)));
        }
    }
    result
}

/// The largest single-day holder count and its day, over tracked files —
/// the paper reports a maximum of 372 holders (0.7 % of clients).
pub fn peak_spread(trace: &TraceArena) -> Option<(FileRef, u32, u32)> {
    let mut best: Option<(FileRef, u32, u32)> = None;
    for day in &trace.days {
        let counts = day_counts(day, trace.files.len());
        for (file_idx, &c) in counts.iter().enumerate() {
            if c > 0 && best.is_none_or(|(_, _, bc)| c > bc) {
                best = Some((FileRef(file_idx as u32), day.day, c));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

    /// f0 surges on day 2 (3 holders) then decays; f1 is steady at 1.
    fn build() -> (TraceArena, Vec<FileRef>) {
        let mut b = TraceBuilder::new();
        let peers: Vec<_> = (0..4)
            .map(|i| {
                b.intern_peer(PeerInfo {
                    uid: Md4::digest(&[i]),
                    ip: i as u32,
                    country: CountryCode::new("GB"),
                    asn: 5,
                })
            })
            .collect();
        let files: Vec<_> = (0..2)
            .map(|i| {
                b.intern_file(FileInfo {
                    id: Md4::digest(format!("f{i}").as_bytes()),
                    size: 1,
                    kind: FileKind::Audio,
                })
            })
            .collect();
        b.observe(1, peers[0], vec![files[0]]);
        b.observe(1, peers[1], vec![files[1]]);
        for p in &peers[..3] {
            b.observe(2, *p, vec![files[0]]);
        }
        b.observe(2, peers[3], vec![files[1]]);
        b.observe(3, peers[0], vec![files[0]]);
        b.observe(3, peers[1], vec![files[1]]);
        (b.finish(), files)
    }

    #[test]
    fn top_selection() {
        let (trace, files) = build();
        assert_eq!(top_files_overall(&trace.static_arena(), 1), vec![files[0]]);
        assert_eq!(top_files_on_day(&trace, 2, 2), vec![files[0], files[1]]);
        assert!(top_files_on_day(&trace, 99, 2).is_empty());
        // Day 1: both have one holder; tie broken by index.
        assert_eq!(top_files_on_day(&trace, 1, 1), vec![files[0]]);
    }

    #[test]
    fn spread_series() {
        let (trace, files) = build();
        let spread = spread_over_time(&trace, &files);
        let f0 = &spread[0].1;
        assert_eq!(f0.len(), 3);
        assert!((f0[0].1 - 25.0).abs() < 1e-12);
        assert!((f0[1].1 - 75.0).abs() < 1e-12, "surge day");
        assert!((f0[2].1 - 25.0).abs() < 1e-12, "decay");
    }

    #[test]
    fn rank_series() {
        let (trace, files) = build();
        let ranks = rank_over_time(&trace, &files);
        let f1 = &ranks[1].1;
        assert_eq!(f1[0], (1, Some(2)), "tie on day 1 broken by index");
        assert_eq!(f1[1], (2, Some(2)));
        // A file absent on a day gets None.
        let only_f0 = rank_over_time(&trace, &[files[1]]);
        assert!(only_f0[0].1.iter().all(|(_, r)| r.is_some()));
    }

    #[test]
    fn peak() {
        let (trace, files) = build();
        assert_eq!(peak_spread(&trace), Some((files[0], 2, 3)));
        assert_eq!(peak_spread(&TraceArena::default()), None);
    }
}

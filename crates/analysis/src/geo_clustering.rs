//! Figs. 11/12: geographic clustering of a file's sources.
//!
//! For each file the paper defines the *home country* (resp. *home AS*)
//! as the one hosting the most sources, and plots the CDF of the
//! fraction of sources in the home location, split by *average
//! popularity* bands (1, 5, 10, 20, 50, 100).

use std::collections::HashMap;

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::{FileRef, Trace};

use crate::stats::Cdf;
use crate::view::file_spans;

/// How to locate a peer: by country or by autonomous system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Group sources by country (Fig. 11).
    Country,
    /// Group sources by AS (Fig. 12).
    AutonomousSystem,
}

/// Per-file home-location concentration.
#[derive(Clone, Debug)]
pub struct HomeConcentration {
    /// Fraction (in percent, 0–100) of the file's sources in its home
    /// location; `None` for files with no sources.
    pub percent_at_home: Vec<Option<f64>>,
}

/// Computes, for every file, the share of its sources located in its
/// home country/AS (`view` is the trace's static view).
pub fn home_concentration(trace: &Trace, view: &CacheArena, level: Level) -> HomeConcentration {
    let locate = |peer: u32| -> u64 {
        let info = &trace.peers[peer as usize];
        match level {
            Level::Country => u64::from(u16::from_be_bytes(info.country.0)),
            Level::AutonomousSystem => u64::from(info.asn),
        }
    };
    let percent_at_home = (0..trace.files.len() as u32)
        .map(|f| {
            let sources = view.holders(FileRef(f));
            if sources.is_empty() {
                return None;
            }
            let mut counts: HashMap<u64, u32> = HashMap::new();
            for &p in sources {
                *counts.entry(locate(p)).or_insert(0) += 1;
            }
            let max = counts.values().max().copied().unwrap_or(0);
            Some(100.0 * max as f64 / sources.len() as f64)
        })
        .collect();
    HomeConcentration { percent_at_home }
}

/// Figs. 11/12: CDFs of home concentration, one per average-popularity
/// threshold.
///
/// Returns `(threshold, Cdf over percent-at-home)` for files whose
/// average popularity (distinct sources / days seen) is ≥ the threshold.
pub fn concentration_cdfs(
    trace: &Trace,
    view: &CacheArena,
    level: Level,
    thresholds: &[f64],
) -> Vec<(f64, Cdf)> {
    let conc = home_concentration(trace, view, level);
    let spans = file_spans(trace, view);
    thresholds
        .iter()
        .map(|&t| {
            let samples: Vec<f64> = conc
                .percent_at_home
                .iter()
                .zip(&spans)
                .filter_map(|(pct, span)| match pct {
                    Some(p) if span.average_popularity() >= t => Some(*p),
                    _ => None,
                })
                .collect();
            (t, Cdf::from_samples(samples))
        })
        .collect()
}

/// Headline number of Fig. 11: the fraction of files (within a
/// popularity band) whose sources are *all* in one location.
pub fn fully_clustered_fraction(
    trace: &Trace,
    view: &CacheArena,
    level: Level,
    min_avg_popularity: f64,
) -> f64 {
    let conc = home_concentration(trace, view, level);
    let spans = file_spans(trace, view);
    let mut total = 0usize;
    let mut full = 0usize;
    for (pct, span) in conc.percent_at_home.iter().zip(&spans) {
        if let Some(p) = pct {
            if span.average_popularity() >= min_avg_popularity {
                total += 1;
                if *p >= 100.0 - 1e-9 {
                    full += 1;
                }
            }
        }
    }
    if total == 0 {
        return 0.0;
    }
    full as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

    /// f0: 3 FR sources + 1 DE source (75 % home). f1: 2 DE sources
    /// (100 % home). FR peers sit in two different ASes.
    fn build() -> Trace {
        let mut b = TraceBuilder::new();
        let mk = |b: &mut TraceBuilder, i: u8, cc: &str, asn: u32| {
            b.intern_peer(PeerInfo {
                uid: Md4::digest(&[i]),
                ip: i as u32,
                country: CountryCode::new(cc),
                asn,
            })
        };
        let fr1 = mk(&mut b, 0, "FR", 3215);
        let fr2 = mk(&mut b, 1, "FR", 3215);
        let fr3 = mk(&mut b, 2, "FR", 12322);
        let de1 = mk(&mut b, 3, "DE", 3320);
        let de2 = mk(&mut b, 4, "DE", 3320);
        let f0 = b.intern_file(FileInfo {
            id: Md4::digest(b"f0"),
            size: 1,
            kind: FileKind::Audio,
        });
        let f1 = b.intern_file(FileInfo {
            id: Md4::digest(b"f1"),
            size: 1,
            kind: FileKind::Audio,
        });
        b.observe(1, fr1, vec![f0]);
        b.observe(1, fr2, vec![f0]);
        b.observe(1, fr3, vec![f0]);
        b.observe(1, de1, vec![f0, f1]);
        b.observe(1, de2, vec![f1]);
        b.finish()
    }

    fn static_view(trace: &Trace) -> CacheArena {
        CacheArena::from_trace_static(trace)
    }

    #[test]
    fn country_concentration() {
        let trace = build();
        let conc = home_concentration(&trace, &static_view(&trace), Level::Country);
        assert!((conc.percent_at_home[0].unwrap() - 75.0).abs() < 1e-9);
        assert!((conc.percent_at_home[1].unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn as_concentration_is_finer() {
        let trace = build();
        let conc = home_concentration(&trace, &static_view(&trace), Level::AutonomousSystem);
        // f0 sources: 2×AS3215, 1×AS12322, 1×AS3320 → home AS share 50 %.
        assert!((conc.percent_at_home[0].unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cdfs_by_popularity_band() {
        let trace = build();
        let cdfs = concentration_cdfs(&trace, &static_view(&trace), Level::Country, &[1.0, 3.0]);
        assert_eq!(cdfs[0].1.len(), 2, "both files qualify at threshold 1");
        assert_eq!(
            cdfs[1].1.len(),
            1,
            "only f0 (4 sources / 1 day) at threshold 3"
        );
        // CDF of the ≥3 band: the single file is at 75 %.
        assert_eq!(cdfs[1].1.fraction_at_most(74.0), 0.0);
        assert_eq!(cdfs[1].1.fraction_at_most(75.0), 1.0);
    }

    #[test]
    fn fully_clustered() {
        let trace = build();
        let frac = fully_clustered_fraction(&trace, &static_view(&trace), Level::Country, 1.0);
        assert!((frac - 0.5).abs() < 1e-12, "one of two files is 100% home");
        let empty = Trace::new();
        assert_eq!(
            fully_clustered_fraction(&empty, &static_view(&empty), Level::Country, 1.0),
            0.0
        );
    }

    #[test]
    fn never_shared_files_are_excluded() {
        let mut b = TraceBuilder::new();
        let p = b.intern_peer(PeerInfo {
            uid: Md4::digest(b"p"),
            ip: 1,
            country: CountryCode::new("FR"),
            asn: 1,
        });
        let _ghost = b.intern_file(FileInfo {
            id: Md4::digest(b"ghost"),
            size: 1,
            kind: FileKind::Audio,
        });
        b.observe(1, p, vec![]);
        let trace = b.finish();
        let view = static_view(&trace);
        let conc = home_concentration(&trace, &view, Level::Country);
        assert_eq!(conc.percent_at_home[0], None);
        let cdfs = concentration_cdfs(&trace, &view, Level::Country, &[1.0]);
        assert!(cdfs[0].1.is_empty());
    }
}

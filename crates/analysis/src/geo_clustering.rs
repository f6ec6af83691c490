//! Figs. 11/12: geographic clustering of a file's sources.
//!
//! For each file the paper defines the *home country* (resp. *home AS*)
//! as the one hosting the most sources, and plots the CDF of the
//! fraction of sources in the home location, split by *average
//! popularity* bands (1, 5, 10, 20, 50, 100).

use std::collections::HashMap;

use edonkey_trace::compact::{CacheArena, TraceArena};
use edonkey_trace::model::FileRef;

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
pub fn home_concentration(
    trace: &TraceArena,
    view: &CacheArena,
    level: Level,
) -> HomeConcentration {
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
    trace: &TraceArena,
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

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

    /// f0: 3 FR sources + 1 DE source (75 % home). f1: 2 DE sources
    /// (100 % home). FR peers sit in two different ASes.
    fn build() -> TraceArena {
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

    #[test]
    fn country_concentration() {
        let trace = build();
        let conc = home_concentration(&trace, &trace.static_arena(), Level::Country);
        assert!((conc.percent_at_home[0].unwrap() - 75.0).abs() < 1e-9);
        assert!((conc.percent_at_home[1].unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn as_concentration_is_finer() {
        let trace = build();
        let conc = home_concentration(&trace, &trace.static_arena(), Level::AutonomousSystem);
        // f0 sources: 2×AS3215, 1×AS12322, 1×AS3320 → home AS share 50 %.
        assert!((conc.percent_at_home[0].unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cdfs_by_popularity_band() {
        let trace = build();
        let cdfs = concentration_cdfs(&trace, &trace.static_arena(), Level::Country, &[1.0, 3.0]);
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
        let view = trace.static_arena();
        let conc = home_concentration(&trace, &view, Level::Country);
        assert_eq!(conc.percent_at_home[0], None);
        let cdfs = concentration_cdfs(&trace, &view, Level::Country, &[1.0]);
        assert!(cdfs[0].1.is_empty());
    }
}

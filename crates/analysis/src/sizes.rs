//! Fig. 6: cumulative distribution of file sizes by popularity level.

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::Trace;

use crate::stats::Cdf;
use crate::view::popularity;

/// Size CDFs (in KB, matching the paper's axis) for files whose
/// popularity in the static `view` is at least each of `thresholds`.
///
/// Returns one `(threshold, Cdf)` per requested level; files never
/// observed shared are excluded even at threshold 1.
pub fn size_cdfs_by_popularity(
    trace: &Trace,
    view: &CacheArena,
    thresholds: &[u32],
) -> Vec<(u32, Cdf)> {
    let popularity = popularity(view);
    thresholds
        .iter()
        .map(|&t| {
            let samples: Vec<f64> = trace
                .files
                .iter()
                .zip(&popularity)
                .filter(|(_, &p)| p >= t.max(1))
                .map(|(f, _)| f.size as f64 / 1024.0)
                .collect();
            (t, Cdf::from_samples(samples))
        })
        .collect()
}

/// Summary fractions the paper quotes for the full catalogue: files
/// `< 1 MB`, in `[1, 10) MB`, and `>= 10 MB`.
pub fn size_mix(trace: &Trace, view: &CacheArena) -> (f64, f64, f64) {
    let popularity = popularity(view);
    let sizes: Vec<u64> = trace
        .files
        .iter()
        .zip(&popularity)
        .filter(|(_, &p)| p >= 1)
        .map(|(f, _)| f.size)
        .collect();
    if sizes.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let n = sizes.len() as f64;
    let mb = 1u64 << 20;
    let small = sizes.iter().filter(|&&s| s < mb).count() as f64 / n;
    let mid = sizes
        .iter()
        .filter(|&&s| (mb..10 * mb).contains(&s))
        .count() as f64
        / n;
    (small, mid, 1.0 - small - mid)
}

/// Fraction of files above `bytes`, among files with popularity ≥
/// `min_popularity` — e.g. the paper's "among files with popularity ≥ 5,
/// about 45 % are larger than 600 MB".
pub fn fraction_larger_than(
    trace: &Trace,
    view: &CacheArena,
    min_popularity: u32,
    bytes: u64,
) -> f64 {
    let popularity = popularity(view);
    let mut total = 0usize;
    let mut above = 0usize;
    for (f, &p) in trace.files.iter().zip(&popularity) {
        if p >= min_popularity.max(1) {
            total += 1;
            if f.size > bytes {
                above += 1;
            }
        }
    }
    if total == 0 {
        return 0.0;
    }
    above as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

    /// Three peers; a small file shared by all, a big file by one.
    fn build() -> Trace {
        let mut b = TraceBuilder::new();
        let peers: Vec<_> = (0..3)
            .map(|i| {
                b.intern_peer(PeerInfo {
                    uid: Md4::digest(&[i]),
                    ip: i as u32,
                    country: CountryCode::new("ES"),
                    asn: 3352,
                })
            })
            .collect();
        let small = b.intern_file(FileInfo {
            id: Md4::digest(b"small"),
            size: 512 * 1024,
            kind: FileKind::Audio,
        });
        let big = b.intern_file(FileInfo {
            id: Md4::digest(b"big"),
            size: 700 << 20,
            kind: FileKind::Video,
        });
        let _never_shared = b.intern_file(FileInfo {
            id: Md4::digest(b"ghost"),
            size: 5 << 20,
            kind: FileKind::Audio,
        });
        for p in &peers {
            b.observe(1, *p, vec![small]);
        }
        b.observe(2, peers[0], vec![small, big]);
        b.finish()
    }

    #[test]
    fn cdfs_by_threshold() {
        let trace = build();
        let cdfs = size_cdfs_by_popularity(&trace, &CacheArena::from_trace_static(&trace), &[1, 2]);
        // Threshold 1: both shared files (ghost excluded).
        assert_eq!(cdfs[0].1.len(), 2);
        // Threshold 2: only the small file (3 holders).
        assert_eq!(cdfs[1].1.len(), 1);
        assert_eq!(cdfs[1].1.fraction_at_most(512.0), 1.0);
    }

    #[test]
    fn mix_and_tail() {
        let trace = build();
        let view = CacheArena::from_trace_static(&trace);
        let (small, mid, large) = size_mix(&trace, &view);
        assert!((small - 0.5).abs() < 1e-12);
        assert_eq!(mid, 0.0);
        assert!((large - 0.5).abs() < 1e-12);
        assert!((fraction_larger_than(&trace, &view, 1, 600 << 20) - 0.5).abs() < 1e-12);
        assert_eq!(fraction_larger_than(&trace, &view, 2, 600 << 20), 0.0);
        let empty = Trace::new();
        let empty_view = CacheArena::from_trace_static(&empty);
        assert_eq!(fraction_larger_than(&empty, &empty_view, 1, 0), 0.0);
    }
}

//! Fig. 5 (file replication vs rank) and popularity helpers.

use edonkey_trace::compact::TraceArena;

use crate::stats::{log_downsample, rank_curve};

/// Fig. 5: the rank–replication curve for one day: `(rank, sources)`
/// with rank 1 = most replicated, files with zero sources omitted.
pub fn replication_rank_curve(trace: &TraceArena, day: u32) -> Vec<(usize, u64)> {
    let Ok(idx) = trace.days.binary_search_by_key(&day, |d| d.day) else {
        return Vec::new();
    };
    let mut counts = vec![0u64; trace.files.len()];
    for f in &trace.days[idx].entries {
        counts[f.index()] += 1;
    }
    let nonzero: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
    rank_curve(nonzero)
}

/// Fig. 5, plot-ready: log-downsampled curves for several days.
pub fn replication_curves(
    trace: &TraceArena,
    days: &[u32],
    points_per_decade: usize,
) -> Vec<(u32, Vec<(usize, u64)>)> {
    days.iter()
        .map(|&d| {
            (
                d,
                log_downsample(&replication_rank_curve(trace, d), points_per_decade),
            )
        })
        .collect()
}

/// Picks `n` sample days evenly spread across the trace (the paper uses
/// days 346, 356, 366, 376, 386 — every tenth day).
pub fn sample_days(trace: &TraceArena, n: usize) -> Vec<u32> {
    let (Some(first), Some(last)) = (trace.first_day(), trace.last_day()) else {
        return Vec::new();
    };
    if n <= 1 || first == last {
        return vec![first];
    }
    (0..n)
        .map(|i| first + ((last - first) as usize * i / (n - 1)) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

    fn build() -> TraceArena {
        let mut b = TraceBuilder::new();
        let peers: Vec<_> = (0..5)
            .map(|i| {
                b.intern_peer(PeerInfo {
                    uid: Md4::digest(&[i]),
                    ip: i as u32,
                    country: CountryCode::new("FR"),
                    asn: 1,
                })
            })
            .collect();
        let files: Vec<_> = (0..3)
            .map(|i| {
                b.intern_file(FileInfo {
                    id: Md4::digest(format!("f{i}").as_bytes()),
                    size: 1,
                    kind: FileKind::Audio,
                })
            })
            .collect();
        // f0 held by 4 peers, f1 by 2, f2 by none on day 20.
        for p in &peers[..4] {
            b.observe(20, *p, vec![files[0]]);
        }
        b.observe(20, peers[4], vec![files[1]]);
        b.observe(25, peers[0], vec![files[1], files[2]]);
        b.finish()
    }

    #[test]
    fn rank_curve_for_day() {
        let trace = build();
        // Day 20: f0 has 4 sources, f1 has 1 (only peer 4)... wait, peer0-3
        // share f0, peer4 shares f1.
        assert_eq!(replication_rank_curve(&trace, 20), vec![(1, 4), (2, 1)]);
        assert_eq!(replication_rank_curve(&trace, 25), vec![(1, 1), (2, 1)]);
        assert!(replication_rank_curve(&trace, 99).is_empty());
    }

    #[test]
    fn curves_for_multiple_days() {
        let trace = build();
        let curves = replication_curves(&trace, &[20, 25], 4);
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].0, 20);
        assert_eq!(curves[0].1[0], (1, 4));
    }

    #[test]
    fn sample_days_spread() {
        let trace = build();
        assert_eq!(sample_days(&trace, 2), vec![20, 25]);
        assert_eq!(sample_days(&trace, 1), vec![20]);
        assert_eq!(sample_days(&TraceArena::default(), 3), Vec::<u32>::new());
        let five = sample_days(&trace, 5);
        assert_eq!(five.len(), 5);
        assert_eq!(five[0], 20);
        assert_eq!(*five.last().unwrap(), 25);
    }
}

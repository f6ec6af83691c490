//! Shared derived views over traces: per-file popularity and per-file
//! observation spans.
//!
//! Nearly every analysis needs "who holds what" in one direction or the
//! other. The static view — the per-peer union of shared files, as a
//! [`CacheArena`] — is derived once per trace stage by the caller and
//! passed in; its lazy holders index is the inverted direction.

use edonkey_trace::compact::{CacheArena, TraceArena};
use edonkey_trace::model::FileRef;

/// Number of distinct peers holding each file in a static view (the
/// paper's "number of replicas or sources per file").
pub fn popularity(view: &CacheArena) -> Vec<u32> {
    let mut counts = vec![0u32; view.n_files()];
    for cache in view.iter() {
        for f in cache {
            counts[f.index()] += 1;
        }
    }
    counts
}

/// Per-file observation statistics over the trace days.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileSpan {
    /// Number of days on which at least one peer shared the file.
    pub days_seen: u32,
    /// Distinct peers that ever shared the file.
    pub distinct_sources: u32,
}

impl FileSpan {
    /// The paper's *average popularity*: distinct sources divided by days
    /// seen (Section 4.1). Zero for never-seen files.
    pub fn average_popularity(&self) -> f64 {
        if self.days_seen == 0 {
            return 0.0;
        }
        self.distinct_sources as f64 / self.days_seen as f64
    }
}

/// Computes per-file spans (days seen, distinct sources) in one pass;
/// `view` is the trace's static view.
pub fn file_spans(trace: &TraceArena, view: &CacheArena) -> Vec<FileSpan> {
    let mut spans = vec![FileSpan::default(); trace.files.len()];
    // Distinct sources via the static union.
    for (count, span) in popularity(view).into_iter().zip(spans.iter_mut()) {
        span.distinct_sources = count;
    }
    // Days seen via a per-day distinct-file scan.
    let mut seen_today = vec![false; trace.files.len()];
    for day in &trace.days {
        for f in &day.entries {
            if !seen_today[f.index()] {
                seen_today[f.index()] = true;
                spans[f.index()].days_seen += 1;
            }
        }
        for f in &day.entries {
            seen_today[f.index()] = false;
        }
    }
    spans
}

/// Returns the indices of the `k` files with the highest values,
/// descending (ties broken by lower index first).
pub(crate) fn top_k_files(values: &[u32], k: usize) -> Vec<FileRef> {
    let mut order: Vec<u32> = (0..values.len() as u32).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(values[i as usize]), i));
    order.into_iter().take(k).map(FileRef).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

    fn build() -> (TraceArena, Vec<FileRef>) {
        let mut b = TraceBuilder::new();
        let peers: Vec<_> = (0..4)
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
                    size: 10,
                    kind: FileKind::Audio,
                })
            })
            .collect();
        // Day 1: f0 on p0,p1; f1 on p0. Day 2: f0 on p2; f2 on p3.
        b.observe(1, peers[0], vec![files[0], files[1]]);
        b.observe(1, peers[1], vec![files[0]]);
        b.observe(2, peers[2], vec![files[0]]);
        b.observe(2, peers[3], vec![files[2]]);
        (b.finish(), files)
    }

    #[test]
    fn popularity_counts_distinct_holders() {
        let (trace, _) = build();
        assert_eq!(popularity(&trace.static_arena()), vec![3, 1, 1]);
    }

    #[test]
    fn holders_inverts_caches() {
        let (trace, files) = build();
        let view = trace.static_arena();
        assert_eq!(view.holders(files[0]), &[0, 1, 2]);
        assert_eq!(view.holders(files[1]), &[0]);
        assert_eq!(view.holders(files[2]), &[3]);
    }

    #[test]
    fn spans_and_average_popularity() {
        let (trace, _) = build();
        let spans = file_spans(&trace, &trace.static_arena());
        assert_eq!(
            spans[0],
            FileSpan {
                days_seen: 2,
                distinct_sources: 3
            }
        );
        assert_eq!(
            spans[1],
            FileSpan {
                days_seen: 1,
                distinct_sources: 1
            }
        );
        assert!((spans[0].average_popularity() - 1.5).abs() < 1e-12);
        assert_eq!(FileSpan::default().average_popularity(), 0.0);
    }

    #[test]
    fn top_k_orders_by_count() {
        let values = vec![2, 9, 9, 1];
        assert_eq!(
            top_k_files(&values, 3),
            vec![FileRef(1), FileRef(2), FileRef(0)]
        );
        assert_eq!(top_k_files(&values, 0), Vec::<FileRef>::new());
        assert_eq!(top_k_files(&values, 99).len(), 4);
    }
}

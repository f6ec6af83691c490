//! Table 1: general trace characteristics, for each pipeline stage.

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::Trace;

/// One stage's row set in Table 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// Duration in days (first to last snapshot, inclusive).
    pub duration_days: u32,
    /// Distinct clients.
    pub clients: usize,
    /// Clients that never shared a file.
    pub free_riders: usize,
    /// Successful `(client, day)` snapshots.
    pub snapshots: usize,
    /// Distinct files.
    pub distinct_files: usize,
    /// Total bytes over distinct files.
    pub distinct_bytes: u64,
    /// Distinct files actually observed shared at least once (the intern
    /// table may include files that only other stages reference).
    pub observed_files: usize,
}

impl TraceSummary {
    /// Free-rider fraction in `[0,1]`.
    pub fn free_rider_fraction(&self) -> f64 {
        if self.clients == 0 {
            return 0.0;
        }
        self.free_riders as f64 / self.clients as f64
    }
}

/// Computes a stage's Table 1 rows; `view` is the stage's static view.
pub fn summarize(trace: &Trace, view: &CacheArena) -> TraceSummary {
    let free_riders = view.iter().filter(|c| c.is_empty()).count();
    let mut observed = vec![false; trace.files.len()];
    let mut observed_files = 0usize;
    let mut observed_bytes = 0u64;
    for cache in view.iter() {
        for f in cache {
            if !observed[f.index()] {
                observed[f.index()] = true;
                observed_files += 1;
                observed_bytes += trace.files[f.index()].size;
            }
        }
    }
    TraceSummary {
        duration_days: trace.duration_days(),
        clients: trace.peers.len(),
        free_riders,
        snapshots: trace.snapshot_count(),
        distinct_files: observed_files,
        distinct_bytes: observed_bytes,
        observed_files,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

    #[test]
    fn summary_counts() {
        let mut b = TraceBuilder::new();
        let p0 = b.intern_peer(PeerInfo {
            uid: Md4::digest(b"a"),
            ip: 1,
            country: CountryCode::new("FR"),
            asn: 1,
        });
        let p1 = b.intern_peer(PeerInfo {
            uid: Md4::digest(b"b"),
            ip: 2,
            country: CountryCode::new("FR"),
            asn: 1,
        });
        let f0 = b.intern_file(FileInfo {
            id: Md4::digest(b"f0"),
            size: 100,
            kind: FileKind::Audio,
        });
        // An interned-but-never-shared file must not count as observed.
        let _unshared = b.intern_file(FileInfo {
            id: Md4::digest(b"f1"),
            size: 999,
            kind: FileKind::Video,
        });
        b.observe(5, p0, vec![f0]);
        b.observe(7, p0, vec![f0]);
        b.observe(7, p1, vec![]);
        let trace = b.finish();
        let s = summarize(&trace, &CacheArena::from_trace_static(&trace));
        assert_eq!(s.duration_days, 3);
        assert_eq!(s.clients, 2);
        assert_eq!(s.free_riders, 1);
        assert_eq!(s.snapshots, 3);
        assert_eq!(s.distinct_files, 1);
        assert_eq!(s.distinct_bytes, 100);
        assert!((s.free_rider_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_summary() {
        let empty = Trace::new();
        let s = summarize(&empty, &CacheArena::from_trace_static(&empty));
        assert_eq!(s.clients, 0);
        assert_eq!(s.free_rider_fraction(), 0.0);
    }
}

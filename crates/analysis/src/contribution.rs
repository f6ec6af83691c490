//! Fig. 7: files and disk space shared per client, with and without
//! free-riders — plus the generosity-concentration headline ("the top
//! 15 % peers offer 75 % of the files").

use edonkey_trace::compact::{CacheArena, TraceArena};

use crate::stats::{top_share, Cdf};

/// Per-client contribution samples.
#[derive(Clone, Debug)]
pub(crate) struct Contribution {
    /// Files shared per client (static union), one entry per client.
    pub files: Vec<u64>,
    /// Bytes shared per client, aligned with `files`.
    pub bytes: Vec<u64>,
}

/// Computes per-client contributions from the trace's static view.
pub(crate) fn contributions(trace: &TraceArena, view: &CacheArena) -> Contribution {
    let files: Vec<u64> = view.iter().map(|c| c.len() as u64).collect();
    let bytes: Vec<u64> = view
        .iter()
        .map(|c| c.iter().map(|f| trace.files[f.index()].size).sum())
        .collect();
    Contribution { files, bytes }
}

/// The four CDFs of Fig. 7.
pub struct ContributionCdfs {
    /// Files per client, all clients.
    pub files_all: Cdf,
    /// Files per client, free-riders excluded.
    pub files_sharers: Cdf,
    /// Bytes per client (in GB, the paper's axis), all clients.
    pub space_all: Cdf,
    /// Bytes per client in GB, free-riders excluded.
    pub space_sharers: Cdf,
}

/// Fig. 7: builds all four CDFs.
pub fn contribution_cdfs(trace: &TraceArena, view: &CacheArena) -> ContributionCdfs {
    let c = contributions(trace, view);
    let gb = |b: u64| b as f64 / (1u64 << 30) as f64;
    ContributionCdfs {
        files_all: Cdf::from_samples(c.files.iter().map(|&f| f as f64).collect()),
        files_sharers: Cdf::from_samples(
            c.files
                .iter()
                .filter(|&&f| f > 0)
                .map(|&f| f as f64)
                .collect(),
        ),
        space_all: Cdf::from_samples(c.bytes.iter().map(|&b| gb(b)).collect()),
        space_sharers: Cdf::from_samples(
            c.files
                .iter()
                .zip(&c.bytes)
                .filter(|(&f, _)| f > 0)
                .map(|(_, &b)| gb(b))
                .collect(),
        ),
    }
}

/// Share of all shared files held by the top `fraction` of *sharing*
/// clients (free-riders hold nothing and would dilute the denominator's
/// meaning).
pub fn generosity_concentration(trace: &TraceArena, view: &CacheArena, fraction: f64) -> f64 {
    let c = contributions(trace, view);
    let sharers: Vec<u64> = c.files.into_iter().filter(|&f| f > 0).collect();
    top_share(&sharers, fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

    fn build() -> TraceArena {
        let mut b = TraceBuilder::new();
        let peers: Vec<_> = (0..4)
            .map(|i| {
                b.intern_peer(PeerInfo {
                    uid: Md4::digest(&[i]),
                    ip: i as u32,
                    country: CountryCode::new("IT"),
                    asn: 9,
                })
            })
            .collect();
        let files: Vec<_> = (0..10u8)
            .map(|i| {
                b.intern_file(FileInfo {
                    id: Md4::digest(&[b'f', i]),
                    size: 1 << 30, // 1 GB each
                    kind: FileKind::Video,
                })
            })
            .collect();
        // p0: 8 files, p1: 1 file, p2: 1 file, p3: free-rider.
        b.observe(1, peers[0], files[..8].to_vec());
        b.observe(1, peers[1], vec![files[8]]);
        b.observe(1, peers[2], vec![files[9]]);
        b.observe(1, peers[3], vec![]);
        b.finish()
    }

    #[test]
    fn contribution_vectors() {
        let trace = build();
        let c = contributions(&trace, &trace.static_arena());
        assert_eq!(c.files, vec![8, 1, 1, 0]);
        assert_eq!(c.bytes[0], 8 << 30);
        assert_eq!(c.bytes[3], 0);
    }

    #[test]
    fn cdfs_with_and_without_free_riders() {
        let trace = build();
        let cdfs = contribution_cdfs(&trace, &trace.static_arena());
        assert_eq!(cdfs.files_all.len(), 4);
        assert_eq!(cdfs.files_sharers.len(), 3);
        // All clients: 25 % share nothing.
        assert!((cdfs.files_all.fraction_at_most(0.0) - 0.25).abs() < 1e-12);
        // Sharers only: everyone shares at least one file.
        assert_eq!(cdfs.files_sharers.fraction_at_most(0.5), 0.0);
        assert!((cdfs.space_sharers.fraction_at_most(1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn concentration() {
        // Top 1/3 of sharers (= p0) holds 8 of 10 files.
        let trace = build();
        let share = generosity_concentration(&trace, &trace.static_arena(), 1.0 / 3.0);
        assert!((share - 0.8).abs() < 1e-12);
    }
}

//! Per-day series: Figs. 1, 2 and 3.

use edonkey_trace::compact::TraceArena;

/// One row of Fig. 1: clients successfully scanned and distinct files
/// seen on a day.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DailyCount {
    /// Absolute day.
    pub day: u32,
    /// Clients browsed that day.
    pub clients: usize,
    /// Distinct files observed that day.
    pub files: usize,
}

/// Fig. 1: evolution of clients and files scanned per day.
pub fn clients_and_files_per_day(trace: &TraceArena) -> Vec<DailyCount> {
    trace
        .days
        .iter()
        .map(|day| DailyCount {
            day: day.day,
            clients: day.peer_count(),
            files: day.distinct_files(),
        })
        .collect()
}

/// One row of Fig. 2: files first seen this day, and the running total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiscoveryCount {
    /// Absolute day.
    pub day: u32,
    /// Files never seen on any earlier day.
    pub new_files: usize,
    /// Cumulative distinct files discovered so far.
    pub total_files: usize,
}

/// Fig. 2: evolution of newly discovered and cumulative files.
pub fn file_discovery_per_day(trace: &TraceArena) -> Vec<DiscoveryCount> {
    let mut seen = vec![false; trace.files.len()];
    let mut total = 0usize;
    trace
        .days
        .iter()
        .map(|day| {
            let mut new_files = 0usize;
            for f in &day.entries {
                if !seen[f.index()] {
                    seen[f.index()] = true;
                    new_files += 1;
                }
            }
            total += new_files;
            DiscoveryCount {
                day: day.day,
                new_files,
                total_files: total,
            }
        })
        .collect()
}

/// One row of Fig. 3: files per day and non-empty caches per day (the
/// extrapolated-trace coverage check).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoverageCount {
    /// Absolute day.
    pub day: u32,
    /// Total file replicas available that day.
    pub files: usize,
    /// Peers with at least one shared file that day.
    pub non_empty_caches: usize,
}

/// Fig. 3: per-day files and non-empty caches (run on the extrapolated
/// trace to pick the analysis window).
pub fn coverage_per_day(trace: &TraceArena) -> Vec<CoverageCount> {
    trace
        .days
        .iter()
        .map(|day| CoverageCount {
            day: day.day,
            files: day.replica_count(),
            non_empty_caches: day.non_empty_count(),
        })
        .collect()
}

/// Mean new files per client per day — the paper's "clients share 5 new
/// files per day" observation, derived from Figs. 1 and 2.
pub fn new_files_per_client(trace: &TraceArena) -> f64 {
    let discovery = file_discovery_per_day(trace);
    let clients = clients_and_files_per_day(trace);
    // Skip day one: everything is "new" on the first crawl day.
    let new_total: usize = discovery.iter().skip(1).map(|d| d.new_files).sum();
    let client_days: usize = clients.iter().skip(1).map(|d| d.clients).sum();
    if client_days == 0 {
        return 0.0;
    }
    new_total as f64 / client_days as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

    fn build() -> TraceArena {
        let mut b = TraceBuilder::new();
        let p: Vec<_> = (0..3)
            .map(|i| {
                b.intern_peer(PeerInfo {
                    uid: Md4::digest(&[i]),
                    ip: i as u32,
                    country: CountryCode::new("DE"),
                    asn: 3320,
                })
            })
            .collect();
        let f: Vec<_> = (0..4)
            .map(|i| {
                b.intern_file(FileInfo {
                    id: Md4::digest(format!("f{i}").as_bytes()),
                    size: 1,
                    kind: FileKind::Audio,
                })
            })
            .collect();
        b.observe(10, p[0], vec![f[0], f[1]]);
        b.observe(10, p[1], vec![]);
        b.observe(11, p[0], vec![f[0], f[2]]);
        b.observe(11, p[2], vec![f[3]]);
        b.finish()
    }

    #[test]
    fn fig1_counts() {
        let series = clients_and_files_per_day(&build());
        assert_eq!(
            series,
            vec![
                DailyCount {
                    day: 10,
                    clients: 2,
                    files: 2
                },
                DailyCount {
                    day: 11,
                    clients: 2,
                    files: 3
                },
            ]
        );
    }

    #[test]
    fn fig2_discovery() {
        let series = file_discovery_per_day(&build());
        assert_eq!(
            series,
            vec![
                DiscoveryCount {
                    day: 10,
                    new_files: 2,
                    total_files: 2
                },
                DiscoveryCount {
                    day: 11,
                    new_files: 2,
                    total_files: 4
                },
            ]
        );
    }

    #[test]
    fn fig3_coverage() {
        let series = coverage_per_day(&build());
        assert_eq!(
            series,
            vec![
                CoverageCount {
                    day: 10,
                    files: 2,
                    non_empty_caches: 1
                },
                CoverageCount {
                    day: 11,
                    files: 3,
                    non_empty_caches: 2
                },
            ]
        );
    }

    #[test]
    fn new_files_rate() {
        // Day 11: 2 new files over 2 clients = 1.0.
        assert!((new_files_per_client(&build()) - 1.0).abs() < 1e-12);
        assert_eq!(new_files_per_client(&TraceArena::default()), 0.0);
    }
}

//! Figs. 15/16/17: evolution of pairwise cache overlap over time.
//!
//! Pairs of clients are grouped by their overlap on the *first* analysis
//! day; each group's mean overlap is then tracked across the remaining
//! days. The paper's reading: small initial overlaps decay smoothly
//! (shared files age out), while large initial overlaps persist for
//! weeks *despite* heavy cache turnover — sustained interest proximity.

use std::collections::HashMap;

use edonkey_trace::compact::{CacheArena, DayArena, TraceArena};
use edonkey_trace::model::{FileRef, PeerId};
use edonkey_trace::par::parallel_map_init_threads;
use edonkey_trace::pipeline::sorted_intersection_len;

use crate::semantic::overlap_counts_arena;

/// One tracked group of pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct OverlapGroup {
    /// The group's initial overlap (files in common on the first day).
    pub initial_overlap: u32,
    /// Number of pairs in the group (the paper annotates these).
    pub pairs: usize,
    /// `(day, mean overlap)` across the analysis window.
    pub series: Vec<(u32, f64)>,
}

/// Tracks mean overlap over time for pairs grouped by initial overlap.
///
/// * `initial_overlaps`: which groups to track (e.g. `1..=10` for
///   Fig. 15, `[20, 25, 30, 35, 40, 45, 51, 57]` for Fig. 16).
/// * `max_pairs_per_group`: optional cap on tracked pairs per group
///   (deterministic: first pairs in peer order) to bound the cost at
///   full scale; `None` tracks everything.
/// * `max_holders`: optional cap on per-file holder counts when forming
///   pairs (files above it contribute quadratically many pairs while
///   carrying no pair-specific signal); `None` uses every file.
///
/// Pairs are formed on the first trace day over peers observed that day.
/// Days are sharded over `available_parallelism` workers; each day's
/// group totals are integer sums, so the result does not depend on the
/// worker count.
pub fn overlap_evolution(
    trace: &TraceArena,
    initial_overlaps: &[u32],
    max_pairs_per_group: Option<usize>,
    max_holders: Option<usize>,
) -> Vec<OverlapGroup> {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    overlap_evolution_threads(
        trace,
        initial_overlaps,
        max_pairs_per_group,
        max_holders,
        threads,
    )
}

/// [`overlap_evolution`] with an explicit worker count — the hook the
/// determinism test uses.
pub(crate) fn overlap_evolution_threads(
    trace: &TraceArena,
    initial_overlaps: &[u32],
    max_pairs_per_group: Option<usize>,
    max_holders: Option<usize>,
    threads: usize,
) -> Vec<OverlapGroup> {
    let Some(first) = trace.days.first() else {
        return Vec::new();
    };
    // Initial overlaps among first-day caches, packed columnar — no
    // per-peer clone of the snapshot.
    let n_peers = trace.peers.len();
    let arena = CacheArena::from_day(first, n_peers, trace.files.len());
    let counts = overlap_counts_arena(&arena, |_| true, max_holders);
    let mut groups: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
    let wanted: std::collections::HashSet<u32> = initial_overlaps.iter().copied().collect();
    // Pair order, so a capped group keeps its first pairs in peer order.
    for (pair, overlap) in counts.iter() {
        if wanted.contains(&overlap) {
            let group = groups.entry(overlap).or_default();
            if max_pairs_per_group.is_none_or(|cap| group.len() < cap) {
                group.push(pair);
            }
        }
    }

    let tracked: Vec<(u32, &[(u32, u32)])> = initial_overlaps
        .iter()
        .filter_map(|&k| groups.get(&k).map(|pairs| (k, pairs.as_slice())))
        .collect();
    let days: Vec<&DayArena> = trace.days.iter().collect();
    // One row of per-group overlap totals per day.
    let totals = parallel_map_init_threads(
        &days,
        threads,
        || vec![&[][..]; n_peers],
        |caches: &mut Vec<&[FileRef]>, day| {
            // Caches for this day, indexed by peer (empty when unobserved).
            caches.fill(&[]);
            for (peer, row) in day.iter() {
                caches[peer as usize] = row;
            }
            tracked
                .iter()
                .map(|(_, pairs)| {
                    pairs
                        .iter()
                        .map(|&(a, b)| {
                            sorted_intersection_len(caches[a as usize], caches[b as usize]) as u64
                        })
                        .sum::<u64>()
                })
                .collect::<Vec<u64>>()
        },
    );
    tracked
        .iter()
        .enumerate()
        .map(|(g, &(initial_overlap, pairs))| OverlapGroup {
            initial_overlap,
            pairs: pairs.len(),
            series: days
                .iter()
                .zip(&totals)
                .map(|(day, row)| (day.day, row[g] as f64 / pairs.len().max(1) as f64))
                .collect(),
        })
        .collect()
}

/// The pairs with the largest first-day overlaps (Fig. 17 tracks the
/// extreme groups: 327, 172, 161, 159 common files). Returns
/// `(overlap, pair)` descending, up to `k` entries.
pub fn largest_initial_overlaps(
    trace: &TraceArena,
    k: usize,
    max_holders: Option<usize>,
) -> Vec<(u32, (PeerId, PeerId))> {
    let Some(first) = trace.days.first() else {
        return Vec::new();
    };
    let arena = CacheArena::from_day(first, trace.peers.len(), trace.files.len());
    let counts = overlap_counts_arena(&arena, |_| true, max_holders);
    let mut all: Vec<(u32, (u32, u32))> = counts.iter().map(|(p, c)| (c, p)).collect();
    let key = |&(c, p): &(u32, (u32, u32))| (std::cmp::Reverse(c), p);
    // Select the top `k` in linear time, then sort only those.
    if k < all.len() {
        all.select_nth_unstable_by_key(k, key);
        all.truncate(k);
    }
    all.sort_unstable_by_key(key);
    all.into_iter()
        .map(|(c, (a, b))| (c, (PeerId(a), PeerId(b))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, FileRef, PeerInfo, TraceBuilder};

    /// Two pairs: (p0,p1) start with overlap 2 and keep it; (p2,p3)
    /// start with overlap 1 and lose it on day 2.
    fn build() -> TraceArena {
        let mut b = TraceBuilder::new();
        let peers: Vec<_> = (0..4)
            .map(|i| {
                b.intern_peer(PeerInfo {
                    uid: Md4::digest(&[i]),
                    ip: i as u32,
                    country: CountryCode::new("NL"),
                    asn: 2,
                })
            })
            .collect();
        let files: Vec<FileRef> = (0..5)
            .map(|i| {
                b.intern_file(FileInfo {
                    id: Md4::digest(format!("f{i}").as_bytes()),
                    size: 1,
                    kind: FileKind::Audio,
                })
            })
            .collect();
        b.observe(1, peers[0], vec![files[0], files[1]]);
        b.observe(1, peers[1], vec![files[0], files[1], files[2]]);
        b.observe(1, peers[2], vec![files[3]]);
        b.observe(1, peers[3], vec![files[3], files[4]]);
        b.observe(2, peers[0], vec![files[0], files[1]]);
        b.observe(2, peers[1], vec![files[0], files[1]]);
        b.observe(2, peers[2], vec![files[4]]);
        b.observe(2, peers[3], vec![files[3]]);
        TraceArena::from_trace(&b.finish())
    }

    #[test]
    fn groups_and_series() {
        let trace = build();
        let groups = overlap_evolution(&trace, &[1, 2], None, None);
        assert_eq!(groups.len(), 2);
        let g1 = groups.iter().find(|g| g.initial_overlap == 1).unwrap();
        assert_eq!(g1.pairs, 1);
        assert_eq!(g1.series, vec![(1, 1.0), (2, 0.0)]);
        let g2 = groups.iter().find(|g| g.initial_overlap == 2).unwrap();
        assert_eq!(g2.series, vec![(1, 2.0), (2, 2.0)]);
    }

    #[test]
    fn missing_groups_are_omitted() {
        let trace = build();
        let groups = overlap_evolution(&trace, &[7], None, None);
        assert!(groups.is_empty());
    }

    #[test]
    fn pair_cap_is_respected() {
        let trace = build();
        let groups = overlap_evolution(&trace, &[1, 2], Some(1), None);
        for g in groups {
            assert!(g.pairs <= 1);
        }
    }

    #[test]
    fn largest_overlaps_ordering() {
        let trace = build();
        let top = largest_initial_overlaps(&trace, 2, None);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 2);
        assert_eq!(top[0].1, (PeerId(0), PeerId(1)));
        assert_eq!(top[1].0, 1);
        // Fewer than the pair count: the selection keeps the largest.
        assert_eq!(
            largest_initial_overlaps(&trace, 1, None),
            vec![(2, (PeerId(0), PeerId(1)))]
        );
        assert!(largest_initial_overlaps(&trace, 0, None).is_empty());
    }

    /// Day sharding sums integers per day, so one worker and the
    /// machine's worker count give identical groups on the extrapolated
    /// end-to-end fixture (the Fig. 15 groups and caps).
    #[test]
    fn any_worker_count_gives_identical_groups() {
        use edonkey_trace::pipeline::{extrapolate_arena, filter_arena, ExtrapolateConfig};
        let mut config = edonkey_workload::WorkloadConfig::test_scale(20060418);
        config.peers = 2_000;
        config.files = 40_000;
        config.topics = 400;
        config.days = 20;
        let (_, trace) = edonkey_workload::generate_trace(config);
        let full = TraceArena::from_trace(&trace);
        let trace =
            extrapolate_arena(&filter_arena(&full).arena, ExtrapolateConfig::default()).arena;
        let initial: Vec<u32> = (1..=10).collect();
        let machine = std::thread::available_parallelism().map_or(4, |n| n.get());
        let one = overlap_evolution_threads(&trace, &initial, Some(5_000), Some(200), 1);
        assert_eq!(one.len(), initial.len());
        for threads in [machine, 3] {
            assert_eq!(
                overlap_evolution_threads(&trace, &initial, Some(5_000), Some(200), threads),
                one,
                "{threads} workers"
            );
        }
    }

    #[test]
    fn empty_trace() {
        let empty = TraceArena::default();
        assert!(overlap_evolution(&empty, &[1], None, None).is_empty());
        assert!(largest_initial_overlaps(&empty, 3, None).is_empty());
    }
}

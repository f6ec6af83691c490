//! Figs. 13/14: the semantic clustering correlation.
//!
//! The paper's metric: *"the probability that any two clients having at
//! least a given number of files in common share another one"* — i.e.
//! for each `k`, among peer pairs with at least `k` common files, the
//! fraction that have at least `k + 1`. It predicts whether a peer that
//! answered `k` queries will answer another, which is exactly why
//! semantic neighbour lists work.
//!
//! Pair overlaps are computed with an inverted index: each file
//! contributes `(holders choose 2)` co-occurrence increments. To keep
//! the quadratic blow-up of very popular files in check, files held by
//! more than a configurable number of peers can be skipped — mirroring
//! the paper's own need to study the metric *without* popular files
//! (their Fig. 14 "all files" panel shows popular files mask genuine
//! clustering anyway).
//!
//! [`overlap_counts_arena`] is the banded engine of [`crate::banded`] in
//! exact mode (no head band), and [`correlation_curve`] is
//! [`crate::banded::curve_from_histogram`] over the pair list's
//! histogram, so one engine and one curve function serve Figs. 13–17
//! and the out-of-core tier. The sequential [`overlap_counts`] is their
//! oracle.

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::FileRef;

use crate::banded::{
    add_to_histogram, curve_from_histogram, overlap_counts_banded_with_threads, BandedOverlapConfig,
};

/// Pairwise overlap counts between peers.
///
/// Only pairs with at least one qualifying common file are stored.
/// Backed by a `(pair, count)` vector sorted by pair — columnar like
/// the arena it is usually computed from; point queries are binary
/// searches and iteration is a linear scan in deterministic order.
pub struct OverlapCounts {
    /// `((a, b), overlap)` with `a < b`, sorted ascending by pair.
    entries: Vec<((u32, u32), u32)>,
}

impl OverlapCounts {
    /// Wraps a pre-sorted `((a, b), overlap)` entry list (the banded
    /// engine and the sequential oracle both emit in pair order).
    pub(crate) fn from_entries(entries: Vec<((u32, u32), u32)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "pair-sorted");
        OverlapCounts { entries }
    }

    /// Number of pairs with at least one common file.
    pub fn pair_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(pair, overlap)` entries in ascending pair order.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u32), u32)> + '_ {
        self.entries.iter().copied()
    }

    /// The overlap histogram: `hist[c]` = pairs with overlap exactly
    /// `c` (empty when no pair shares a file).
    pub(crate) fn histogram(&self) -> Vec<u64> {
        let mut hist = Vec::new();
        for &(_, c) in &self.entries {
            add_to_histogram(&mut hist, c);
        }
        hist
    }

    /// The overlap of a specific pair (unordered).
    pub fn overlap(&self, a: u32, b: u32) -> u32 {
        let key = if a < b { (a, b) } else { (b, a) };
        self.entries
            .binary_search_by_key(&key, |&(pair, _)| pair)
            .map(|i| self.entries[i].1)
            .unwrap_or(0)
    }
}

/// Computes pairwise overlap counts from caches, counting only files
/// accepted by `qualifies` and skipping files with more than
/// `max_holders` holders (`None` = no cap).
///
/// `qualifies(file) -> bool` lets Fig. 13 restrict to audio files in a
/// popularity band and Fig. 14 to fixed popularity levels.
pub fn overlap_counts(
    caches: &[Vec<FileRef>],
    n_files: usize,
    qualifies: impl Fn(FileRef) -> bool,
    max_holders: Option<usize>,
) -> OverlapCounts {
    overlap_counts_with_scratch(
        caches,
        n_files,
        qualifies,
        max_holders,
        &mut OverlapScratch::default(),
    )
}

/// Reusable buffers for the sequential overlap oracle: the flat CSR
/// inverted index (replacing one heap `Vec` per shared file) and the
/// dense per-row accumulator (replacing the per-pair hash map). A
/// scratch carried across oracle runs makes repeated seed comparisons
/// allocation-free apart from the output itself — the same
/// caller-owned pattern as `sorted_intersection_into`.
#[derive(Debug, Default)]
pub(crate) struct OverlapScratch {
    /// CSR row offsets per file (`n_files + 1`).
    heads: Vec<u32>,
    /// Concatenated holder lists, each ascending by peer id.
    flat: Vec<u32>,
    /// `acc[b]` = row `a`'s running overlap with peer `b`.
    acc: Vec<u32>,
    /// The `b` slots touched by the current row.
    touched: Vec<u32>,
}

/// [`overlap_counts`] with caller-owned scratch. Identical output; the
/// algorithm is the banded engine's tail fold run sequentially over
/// rows, so the entry list comes out pair-sorted without a final sort.
pub(crate) fn overlap_counts_with_scratch(
    caches: &[Vec<FileRef>],
    n_files: usize,
    qualifies: impl Fn(FileRef) -> bool,
    max_holders: Option<usize>,
    scratch: &mut OverlapScratch,
) -> OverlapCounts {
    let cap = max_holders.unwrap_or(usize::MAX);
    let OverlapScratch {
        heads,
        flat,
        acc,
        touched,
    } = scratch;

    // Flat CSR inverted index: bucket-count, prefix-sum, fill. Peers
    // are walked in ascending order, so every holder row is sorted.
    heads.clear();
    heads.resize(n_files + 1, 0);
    let mut qualifying = 0usize;
    for cache in caches {
        for &f in cache {
            if qualifies(f) {
                heads[f.index() + 1] += 1;
                qualifying += 1;
            }
        }
    }
    for i in 0..n_files {
        heads[i + 1] += heads[i];
    }
    flat.clear();
    flat.resize(qualifying, 0);
    let mut cursor: Vec<u32> = heads[..n_files].to_vec();
    for (peer, cache) in caches.iter().enumerate() {
        for &f in cache {
            if qualifies(f) {
                let c = &mut cursor[f.index()];
                flat[*c as usize] = peer as u32;
                *c += 1;
            }
        }
    }

    // Row-major dense accumulation — the fold the banded engine runs
    // per worker, here over every row in order.
    acc.clear();
    acc.resize(caches.len(), 0);
    touched.clear();
    let mut entries: Vec<((u32, u32), u32)> = Vec::new();
    for (a, cache) in caches.iter().enumerate() {
        for &f in cache {
            if !qualifies(f) {
                continue;
            }
            let hs = &flat[heads[f.index()] as usize..heads[f.index() + 1] as usize];
            if hs.len() < 2 || hs.len() > cap {
                continue;
            }
            let from = hs.partition_point(|&b| b <= a as u32);
            for &b in &hs[from..] {
                if acc[b as usize] == 0 {
                    touched.push(b);
                }
                acc[b as usize] += 1;
            }
        }
        touched.sort_unstable();
        entries.extend(touched.iter().map(|&b| ((a as u32, b), acc[b as usize])));
        for &b in touched.iter() {
            acc[b as usize] = 0;
        }
        touched.clear();
    }
    OverlapCounts { entries }
}

/// Arena-backed, parallel [`overlap_counts`] using all available cores.
///
/// Produces exactly the same counts as the sequential path for any
/// thread count: it is the banded engine with no head band
/// (`BandedOverlapConfig::exact`), so every qualifying file feeds the
/// row-sharded dense accumulator. Instead of hashing every pair
/// increment, workers claim row chunks and fold each row through
/// `acc[b]` (row `a`'s overlap with peer `b`) plus a touched-list of the
/// slots to harvest and reset. Row chunks are disjoint, so the merge is
/// a deterministic concatenation in row order.
pub fn overlap_counts_arena(
    arena: &CacheArena,
    qualifies: impl Fn(FileRef) -> bool + Sync,
    max_holders: Option<usize>,
) -> OverlapCounts {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    overlap_counts_arena_with_threads(arena, qualifies, max_holders, threads)
}

/// [`overlap_counts_arena`] with an explicit worker count (1 runs on
/// the calling thread). Exposed so equivalence tests can pin 1, 2 and 8
/// workers against the sequential path.
pub fn overlap_counts_arena_with_threads(
    arena: &CacheArena,
    qualifies: impl Fn(FileRef) -> bool + Sync,
    max_holders: Option<usize>,
    threads: usize,
) -> OverlapCounts {
    let cfg = BandedOverlapConfig::exact(max_holders);
    overlap_counts_banded_with_threads(arena, qualifies, &cfg, threads).0
}

/// One point of the Fig. 13 curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrelationPoint {
    /// Number of files in common `k`.
    pub common: u32,
    /// Probability (percent) that such a pair shares at least one more.
    pub probability_percent: f64,
    /// Number of pairs with at least `k` common files (the support).
    pub pairs: usize,
}

/// The clustering correlation curve: for each `k ≥ 1` present in the
/// data, `P(overlap ≥ k+1 | overlap ≥ k)`.
pub fn correlation_curve(overlaps: &OverlapCounts) -> Vec<CorrelationPoint> {
    curve_from_histogram(&overlaps.histogram())
}

/// The full Fig. 13 pipeline over an existing arena (no repacking).
pub fn clustering_correlation_arena(
    arena: &CacheArena,
    qualifies: impl Fn(FileRef) -> bool + Sync,
    max_holders: Option<usize>,
) -> Vec<CorrelationPoint> {
    correlation_curve(&overlap_counts_arena(arena, qualifies, max_holders))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileRef {
        FileRef(i)
    }

    #[test]
    fn overlap_counting() {
        let caches = vec![
            vec![f(0), f(1), f(2)],
            vec![f(0), f(1), f(3)],
            vec![f(2)],
            vec![],
        ];
        let overlaps = overlap_counts(&caches, 4, |_| true, None);
        assert_eq!(overlaps.overlap(0, 1), 2);
        assert_eq!(overlaps.overlap(1, 0), 2, "order-insensitive");
        assert_eq!(overlaps.overlap(0, 2), 1);
        assert_eq!(overlaps.overlap(1, 2), 0);
        assert_eq!(overlaps.pair_count(), 2);
    }

    #[test]
    fn qualifying_filter_restricts_files() {
        let caches = vec![vec![f(0), f(1)], vec![f(0), f(1)]];
        let only_f1 = overlap_counts(&caches, 2, |fr| fr.0 == 1, None);
        assert_eq!(only_f1.overlap(0, 1), 1);
    }

    #[test]
    fn holder_cap_skips_blockbusters() {
        let caches = vec![vec![f(0)], vec![f(0)], vec![f(0)], vec![f(0)]];
        let capped = overlap_counts(&caches, 1, |_| true, Some(3));
        assert_eq!(
            capped.pair_count(),
            0,
            "file with 4 holders skipped at cap 3"
        );
        let uncapped = overlap_counts(&caches, 1, |_| true, None);
        assert_eq!(uncapped.pair_count(), 6);
    }

    #[test]
    fn correlation_curve_values() {
        // Three pairs with overlaps 1, 2, 3:
        // P(≥2 | ≥1) = 2/3, P(≥3 | ≥2) = 1/2, P(≥4 | ≥3) = 0.
        let caches = vec![
            vec![f(0)],
            vec![f(0)], // pair (0,1): overlap 1
            vec![f(1), f(2)],
            vec![f(1), f(2)], // pair (2,3): overlap 2
            vec![f(3), f(4), f(5)],
            vec![f(3), f(4), f(5)], // pair (4,5): overlap 3
        ];
        let curve =
            clustering_correlation_arena(&CacheArena::from_caches(&caches, 6), |_| true, None);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].common, 1);
        assert_eq!(curve[0].pairs, 3);
        assert!((curve[0].probability_percent - 200.0 / 3.0).abs() < 1e-9);
        assert!((curve[1].probability_percent - 50.0).abs() < 1e-9);
        assert_eq!(curve[2].probability_percent, 0.0);
    }

    #[test]
    fn empty_inputs() {
        let curve = clustering_correlation_arena(&CacheArena::from_caches(&[], 0), |_| true, None);
        assert!(curve.is_empty());
        let caches = vec![vec![f(0)], vec![f(1)]];
        let curve =
            clustering_correlation_arena(&CacheArena::from_caches(&caches, 2), |_| true, None);
        assert!(curve.is_empty(), "no pair shares anything");
    }

    /// Deterministic pseudo-random cache set (no RNG dependency here).
    fn scrambled_caches(n_peers: usize, n_files: usize) -> Vec<Vec<FileRef>> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n_peers)
            .map(|_| {
                let len = (step() % 20) as usize;
                let mut cache: Vec<FileRef> = (0..len)
                    .map(|_| f((step() % n_files as u64) as u32))
                    .collect();
                // The model invariant both paths assume: sorted, deduped.
                cache.sort_unstable();
                cache.dedup();
                cache
            })
            .collect()
    }

    #[test]
    fn arena_path_matches_sequential_for_any_thread_count() {
        let caches = scrambled_caches(60, 40);
        for max_holders in [None, Some(6)] {
            for qualifies in [|_: FileRef| true, |fr: FileRef| !fr.0.is_multiple_of(3)] {
                let seq = overlap_counts(&caches, 40, qualifies, max_holders);
                let arena = CacheArena::from_caches(&caches, 40);
                for threads in [1, 2, 8] {
                    let par =
                        overlap_counts_arena_with_threads(&arena, qualifies, max_holders, threads);
                    let mut a: Vec<_> = seq.iter().collect();
                    let mut b: Vec<_> = par.iter().collect();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "threads={threads} max_holders={max_holders:?}");
                }
            }
        }
    }

    #[test]
    fn arena_engine_matches_on_large_sparse_population() {
        // Many empty rows interleaved with the populated ones: chunked
        // row sharding must still emit every populated row exactly once
        // and in order.
        let mut caches = scrambled_caches(50, 30);
        caches.resize(1 << 11, Vec::new());
        let seq = overlap_counts(&caches, 30, |_| true, None);
        let arena = CacheArena::from_caches(&caches, 30);
        let par = overlap_counts_arena_with_threads(&arena, |_| true, None, 4);
        let mut a: Vec<_> = seq.iter().collect();
        let mut b: Vec<_> = par.iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn overlap_counts_iterates_in_ascending_pair_order() {
        let caches = scrambled_caches(60, 24);
        let arena = CacheArena::from_caches(&caches, 24);
        let pairs: Vec<(u32, u32)> = overlap_counts_arena(&arena, |_| true, None)
            .iter()
            .map(|(pair, _)| pair)
            .collect();
        assert!(!pairs.is_empty());
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
    }
}

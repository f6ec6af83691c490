//! Banded overlap: the one pairwise-overlap engine behind Figs. 13–17
//! and the out-of-core paper tier (DESIGN.md §13).
//!
//! Every co-holder pair of every qualifying file is an overlap
//! increment: with holder cap `H` the work and, at 320 k peers, the
//! *emitted pair list* grow as `Σ_f h_f²`, which the dense head of the
//! holder distribution dominates ("Ten weeks in the life of an eDonkey
//! server" shows the same head). The engine splits qualifying files by
//! holder count at `band_cap`:
//!
//! * the **sparse tail** (`2 ≤ holders ≤ band_cap`) feeds an exact
//!   row-sharded dense accumulator — cheap, and the bulk of distinct
//!   files;
//! * the **dense head** (`band_cap < holders ≤ max_holders`) never
//!   feeds the accumulator. Head co-occurrence only *marks* a candidate
//!   pair; the head contribution is then resolved per pair — estimated
//!   first from per-peer MinHash sketches (`k` splitmix64-seeded mins à
//!   la Broder's resemblance estimation), and computed by exact CSR
//!   intersection of the two head rows only when the estimate clears
//!   `admit_floor`. Pairs below the floor drop their head contribution
//!   (and vanish entirely when they share no tail file), which is what
//!   bounds the emitted pair list — and the correlation curve's error —
//!   at paper scale.
//!
//! Exact mode is either of two configurations, and both give the exact
//! counts, in pair order, for any thread count:
//! [`BandedOverlapConfig::exact`] has no head band (every qualifying
//! file goes to the tail), and is what
//! [`crate::semantic::overlap_counts_arena`] runs; `admit_floor == 0`
//! keeps the head band but admits every candidate. The sequential
//! [`crate::semantic::overlap_counts`] is the oracle for both, and the
//! pruned curve is tolerance-checked against the exact curve at repro
//! scale in `bench_report` before the report writes.

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::FileRef;
use edonkey_trace::pipeline::sorted_intersection_len;

use crate::semantic::{CorrelationPoint, OverlapCounts};

/// splitmix64 finalizer — same pinned constants as `workload::mix`
/// (this crate cannot depend on the generator crate; the bit pattern is
/// pinned by a test below so the sketches stay deterministic).
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Domain separation for the per-row MinHash functions.
const SALT_MINHASH: u64 = 0x62_61_6e_64_4d_48_31_00; // "bandMH1"

/// File-class codes for the banded pass.
const SKIP: u8 = 0;
const TAIL: u8 = 1;
const HEAD: u8 = 2;

/// Configuration of the banded engine.
#[derive(Clone, Copy, Debug)]
pub struct BandedOverlapConfig {
    /// Holder-count boundary: files with more holders go to the head
    /// band (sketch + per-pair intersection), the rest stay exact.
    pub band_cap: usize,
    /// Files above this holder count are skipped entirely (`None` = no
    /// cap) — same meaning as the exact engine's `max_holders`.
    pub max_holders: Option<usize>,
    /// MinHash functions per sketch (the paper tier uses 128).
    pub sketch_k: usize,
    /// Minimum *estimated* head overlap for a candidate pair to earn an
    /// exact head intersection; `0` admits everything (exact mode).
    pub admit_floor: u32,
    /// Seed of the sketch hash family.
    pub seed: u64,
}

impl BandedOverlapConfig {
    /// The paper-tier defaults: head band above 24 holders, capped at
    /// 200 (the bench's Fig. 13 cap), k = 128 sketches, floor 2.
    pub fn paper_default(seed: u64) -> Self {
        BandedOverlapConfig {
            band_cap: 24,
            max_holders: Some(200),
            sketch_k: 128,
            admit_floor: 2,
            seed,
        }
    }

    /// Exact mode without a head band: every qualifying file with at
    /// most `max_holders` holders goes to the tail accumulator, so the
    /// counts are exact and no sketch is built.
    pub fn exact(max_holders: Option<usize>) -> Self {
        BandedOverlapConfig {
            band_cap: usize::MAX,
            max_holders,
            sketch_k: 1,
            admit_floor: 0,
            seed: 0,
        }
    }
}

/// What the banded pass did — the pruning ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BandedOverlapStats {
    /// Qualifying files in the sparse tail band.
    pub tail_files: usize,
    /// Qualifying files in the dense head band.
    pub head_files: usize,
    /// Peers holding at least one head file (the sketched set).
    pub sketched_peers: usize,
    /// Pairs marked by head co-occurrence (each counted once).
    pub candidate_pairs: u64,
    /// Candidates whose head contribution was resolved exactly.
    pub admitted_pairs: u64,
    /// Candidates whose head contribution was dropped by the estimate.
    pub pruned_pairs: u64,
}

impl BandedOverlapStats {
    fn absorb(&mut self, other: &BandedOverlapStats) {
        self.candidate_pairs += other.candidate_pairs;
        self.admitted_pairs += other.admitted_pairs;
        self.pruned_pairs += other.pruned_pairs;
    }
}

/// CSR of each peer's head-band files (sorted, like the arena rows they
/// are filtered from).
pub struct HeadRows {
    offsets: Vec<u32>,
    files: Vec<FileRef>,
}

impl HeadRows {
    /// Extracts the head-band rows from an arena given the file classes
    /// and the number of head files among them.
    fn build(arena: &CacheArena, class: &[u8], head_files: usize) -> Self {
        let n_peers = arena.n_peers();
        if head_files == 0 {
            // No head band: every row is empty, no pass over the arena.
            return HeadRows {
                offsets: vec![0; n_peers + 1],
                files: Vec::new(),
            };
        }
        let mut offsets = Vec::with_capacity(n_peers + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for a in 0..n_peers {
            total += arena
                .cache(a)
                .iter()
                .filter(|f| class[f.index()] == HEAD)
                .count() as u32;
            offsets.push(total);
        }
        let mut files = Vec::with_capacity(total as usize);
        for a in 0..n_peers {
            files.extend(
                arena
                    .cache(a)
                    .iter()
                    .filter(|f| class[f.index()] == HEAD)
                    .copied(),
            );
        }
        HeadRows { offsets, files }
    }

    /// Peer `p`'s head-band files, sorted ascending.
    pub fn row(&self, p: usize) -> &[FileRef] {
        &self.files[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// Number of peers covered.
    pub fn n_peers(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Per-peer MinHash sketches over the head-band rows.
///
/// Only peers with a non-empty head row carry a sketch (free-riders and
/// tail-only peers cost nothing); `estimate_common` maps the matched-min
/// fraction `m/k` through the Jaccard identity `|A∩B| = J/(1+J) ·
/// (|A|+|B|)` to an estimated common-file count.
pub struct HeadSketches {
    k: usize,
    /// `slot[p]` indexes into `mins`, `u32::MAX` for unsketched peers.
    slot: Vec<u32>,
    /// `sketched × k` min-hashes, row-major.
    mins: Vec<u64>,
    /// Head-row length per peer (the `|A|`, `|B|` of the identity).
    head_len: Vec<u32>,
}

impl HeadSketches {
    /// Builds sketches for every peer with a non-empty head row,
    /// sharded over `threads` contiguous slot ranges (output is
    /// position-keyed, so it is thread-invariant by construction).
    pub fn build(rows: &HeadRows, k: usize, seed: u64, threads: usize) -> Self {
        if rows.files.is_empty() {
            // No head band: nothing to sketch, every estimate is 0.
            return HeadSketches {
                k,
                slot: Vec::new(),
                mins: Vec::new(),
                head_len: Vec::new(),
            };
        }
        let n_peers = rows.n_peers();
        let keys: Vec<u64> = (0..k as u64)
            .map(|j| splitmix64(seed ^ SALT_MINHASH ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let mut slot = vec![u32::MAX; n_peers];
        let mut head_len = vec![0u32; n_peers];
        let mut sketched: Vec<u32> = Vec::new();
        for p in 0..n_peers {
            let len = rows.row(p).len();
            head_len[p] = len as u32;
            if len > 0 {
                slot[p] = sketched.len() as u32;
                sketched.push(p as u32);
            }
        }
        let mut mins = vec![u64::MAX; sketched.len() * k];
        let per = sketched.len().div_ceil(threads.max(1)).max(1);
        let fill = |peers: &[u32], out: &mut [u64]| {
            for (s, &p) in peers.iter().enumerate() {
                let row = rows.row(p as usize);
                let dst = &mut out[s * k..(s + 1) * k];
                for &f in row {
                    for (j, &key) in keys.iter().enumerate() {
                        let h = splitmix64(key ^ u64::from(f.0));
                        if h < dst[j] {
                            dst[j] = h;
                        }
                    }
                }
            }
        };
        if sketched.len() <= per {
            fill(&sketched, &mut mins);
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = sketched
                    .chunks(per)
                    .zip(mins.chunks_mut(per * k))
                    .map(|(peers, out)| scope.spawn(move || fill(peers, out)))
                    .collect();
                for h in handles {
                    h.join().expect("sketch worker panicked");
                }
            });
        }
        HeadSketches {
            k,
            slot,
            mins,
            head_len,
        }
    }

    /// Number of sketched peers.
    pub fn sketched_peers(&self) -> usize {
        self.mins.len() / self.k.max(1)
    }

    /// Estimated number of common head-band files of `a` and `b`
    /// (0 when either peer holds no head file, or there is no head
    /// band).
    pub fn estimate_common(&self, a: usize, b: usize) -> u32 {
        let (Some(&sa), Some(&sb)) = (self.slot.get(a), self.slot.get(b)) else {
            return 0;
        };
        if sa == u32::MAX || sb == u32::MAX {
            return 0;
        }
        let ma = &self.mins[sa as usize * self.k..(sa as usize + 1) * self.k];
        let mb = &self.mins[sb as usize * self.k..(sb as usize + 1) * self.k];
        let matches = ma.iter().zip(mb).filter(|(x, y)| x == y).count();
        if matches == 0 {
            return 0;
        }
        let j = matches as f64 / self.k as f64;
        let union_to_common = j / (1.0 + j);
        (union_to_common * f64::from(self.head_len[a] + self.head_len[b])).round() as u32
    }
}

/// Classifies every file into skip / tail / head for the banded pass.
fn classify(
    arena: &CacheArena,
    qualifies: impl Fn(FileRef) -> bool,
    cfg: &BandedOverlapConfig,
) -> (Vec<u8>, usize, usize) {
    let cap = cfg.max_holders.unwrap_or(usize::MAX);
    let mut class = vec![SKIP; arena.n_files()];
    let (mut tail_files, mut head_files) = (0usize, 0usize);
    for (i, slot) in class.iter_mut().enumerate() {
        let f = FileRef(i as u32);
        if !qualifies(f) {
            continue;
        }
        let holders = arena.holders(f).len();
        if holders < 2 || holders > cap {
            continue;
        }
        if holders > cfg.band_cap {
            *slot = HEAD;
            head_files += 1;
        } else {
            *slot = TAIL;
            tail_files += 1;
        }
    }
    (class, tail_files, head_files)
}

/// Per-row banded scratch shared by both output modes.
struct RowScratch {
    tail_acc: Vec<u32>,
    head_hit: Vec<bool>,
    touched: Vec<u32>,
}

impl RowScratch {
    fn new(n_peers: usize) -> Self {
        RowScratch {
            tail_acc: vec![0; n_peers],
            head_hit: vec![false; n_peers],
            touched: Vec::new(),
        }
    }
}

/// Resolves one row: accumulates tail counts, marks head candidates,
/// then emits `(a, b, total)` in ascending-`b` order — the exact
/// engine's emission order.
#[allow(clippy::too_many_arguments)]
fn process_row(
    arena: &CacheArena,
    class: &[u8],
    rows: &HeadRows,
    sketches: &HeadSketches,
    cfg: &BandedOverlapConfig,
    a: usize,
    scratch: &mut RowScratch,
    stats: &mut BandedOverlapStats,
    emit: &mut impl FnMut(u32, u32, u32),
) {
    let RowScratch {
        tail_acc,
        head_hit,
        touched,
    } = scratch;
    for &f in arena.cache(a) {
        match class[f.index()] {
            TAIL => {
                let hs = arena.holders(f);
                let from = hs.partition_point(|&b| b <= a as u32);
                for &b in &hs[from..] {
                    if tail_acc[b as usize] == 0 && !head_hit[b as usize] {
                        touched.push(b);
                    }
                    tail_acc[b as usize] += 1;
                }
            }
            HEAD => {
                let hs = arena.holders(f);
                let from = hs.partition_point(|&b| b <= a as u32);
                for &b in &hs[from..] {
                    if tail_acc[b as usize] == 0 && !head_hit[b as usize] {
                        touched.push(b);
                    }
                    head_hit[b as usize] = true;
                }
            }
            _ => {}
        }
    }
    touched.sort_unstable();
    for &b in touched.iter() {
        let tail = tail_acc[b as usize];
        let mut total = tail;
        if head_hit[b as usize] {
            stats.candidate_pairs += 1;
            let admitted = sketches.estimate_common(a, b as usize) >= cfg.admit_floor;
            if admitted {
                stats.admitted_pairs += 1;
                total += sorted_intersection_len(rows.row(a), rows.row(b as usize)) as u32;
            } else {
                stats.pruned_pairs += 1;
            }
        }
        if total > 0 {
            emit(a as u32, b, total);
        }
        tail_acc[b as usize] = 0;
        head_hit[b as usize] = false;
    }
    touched.clear();
}

/// The banded pass shared by both output modes: classifies the files,
/// builds the head rows and sketches, then fans out — workers claim row
/// chunks off a cursor and fold each row through `process_row` into a
/// per-chunk output. Returns the chunks sorted by first row, so
/// concatenating them keeps the emission order for any thread count.
fn run_banded<Out: Send>(
    arena: &CacheArena,
    qualifies: impl Fn(FileRef) -> bool,
    cfg: &BandedOverlapConfig,
    threads: usize,
    make_out: impl Fn() -> Out + Sync,
    fold: impl Fn(&mut Out, u32, u32, u32) + Sync,
) -> (Vec<(usize, Out)>, BandedOverlapStats) {
    let n_peers = arena.n_peers();
    if arena.n_files() == 0 || n_peers < 2 {
        return (Vec::new(), BandedOverlapStats::default());
    }
    arena.ensure_holders();
    let (class, tail_files, head_files) = classify(arena, qualifies, cfg);
    let rows = HeadRows::build(arena, &class, head_files);
    let sketches = HeadSketches::build(&rows, cfg.sketch_k.max(1), cfg.seed, threads);
    let (class, rows, sketches) = (&class, &rows, &sketches);

    let threads = threads.max(1).min(n_peers);
    // Chunked dynamic sharding: per-row cost is skewed (a generous peer
    // with popular files scans long holder lists), so workers claim
    // modest row chunks off a shared cursor rather than fixed stripes.
    let chunk = (n_peers / (threads * 16)).max(8);
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let run_worker = || {
        let mut scratch = RowScratch::new(n_peers);
        let mut stats = BandedOverlapStats::default();
        let mut segments: Vec<(usize, Out)> = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
            if start >= n_peers {
                break;
            }
            let mut out = make_out();
            for a in start..(start + chunk).min(n_peers) {
                process_row(
                    arena,
                    class,
                    rows,
                    sketches,
                    cfg,
                    a,
                    &mut scratch,
                    &mut stats,
                    &mut |a, b, c| fold(&mut out, a, b, c),
                );
            }
            segments.push((start, out));
        }
        (segments, stats)
    };
    let parts: Vec<(Vec<(usize, Out)>, BandedOverlapStats)> = if threads == 1 {
        vec![run_worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(run_worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("banded overlap worker panicked"))
                .collect()
        })
    };
    let mut segments = Vec::new();
    let mut stats = BandedOverlapStats {
        tail_files,
        head_files,
        sketched_peers: sketches.sketched_peers(),
        ..BandedOverlapStats::default()
    };
    for (segs, part_stats) in parts {
        segments.extend(segs);
        stats.absorb(&part_stats);
    }
    segments.sort_unstable_by_key(|&(start, _)| start);
    (segments, stats)
}

/// Materializes the banded pair list, `((a, b), overlap)` with `a < b`
/// in ascending pair order. In exact mode (no head band, or
/// `admit_floor == 0`) these are the exact counts for any thread count.
pub fn overlap_counts_banded_with_threads(
    arena: &CacheArena,
    qualifies: impl Fn(FileRef) -> bool + Sync,
    cfg: &BandedOverlapConfig,
    threads: usize,
) -> (OverlapCounts, BandedOverlapStats) {
    let (segments, stats) = run_banded(
        arena,
        qualifies,
        cfg,
        threads,
        Vec::new,
        |out: &mut Vec<((u32, u32), u32)>, a, b, c| out.push(((a, b), c)),
    );
    let total = segments.iter().map(|(_, s)| s.len()).sum();
    let mut entries = Vec::with_capacity(total);
    for (_, segment) in segments {
        entries.extend(segment);
    }
    (OverlapCounts::from_entries(entries), stats)
}

/// Counts one pair of overlap `c` into `hist` (`hist[c]` = pairs with
/// overlap exactly `c`), growing it as needed.
pub(crate) fn add_to_histogram(hist: &mut Vec<u64>, c: u32) {
    let c = c as usize;
    if hist.len() <= c {
        hist.resize(c + 1, 0);
    }
    hist[c] += 1;
}

/// The out-of-core variant: folds every emitted pair straight into an
/// overlap histogram (`hist[c]` = pairs with overlap exactly `c`), so
/// the paper-scale curve never materializes the pair list. Identical
/// counts to histogramming [`overlap_counts_banded_with_threads`]'s
/// entries.
pub fn banded_overlap_histogram_with_threads(
    arena: &CacheArena,
    qualifies: impl Fn(FileRef) -> bool + Sync,
    cfg: &BandedOverlapConfig,
    threads: usize,
) -> (Vec<u64>, BandedOverlapStats) {
    let (segments, stats) = run_banded(
        arena,
        qualifies,
        cfg,
        threads,
        Vec::new,
        |hist: &mut Vec<u64>, _a, _b, c| add_to_histogram(hist, c),
    );
    let mut hist: Vec<u64> = Vec::new();
    for (_, part) in segments {
        if hist.len() < part.len() {
            hist.resize(part.len(), 0);
        }
        for (dst, src) in hist.iter_mut().zip(part) {
            *dst += src;
        }
    }
    (hist, stats)
}

/// The Fig. 13/14 correlation curve from an overlap histogram: for each
/// `k ≥ 1` some pair reaches, `P(overlap ≥ k+1 | overlap ≥ k)`. The one
/// curve function: [`crate::semantic::correlation_curve`] is this over
/// the pair list's histogram.
pub fn curve_from_histogram(hist: &[u64]) -> Vec<CorrelationPoint> {
    let max_overlap = hist.len().saturating_sub(1);
    if max_overlap == 0 {
        return Vec::new();
    }
    let mut at_least = vec![0u64; max_overlap + 2];
    for (c, &n) in hist.iter().enumerate().skip(1) {
        at_least[c] = n;
    }
    for k in (1..=max_overlap).rev() {
        at_least[k] += at_least[k + 1];
    }
    (1..=max_overlap)
        .filter(|&k| at_least[k] > 0)
        .map(|k| CorrelationPoint {
            common: k as u32,
            probability_percent: 100.0 * at_least[k + 1] as f64 / at_least[k] as f64,
            pairs: at_least[k] as usize,
        })
        .collect()
}

/// Largest absolute per-point difference (percentage points) between
/// two correlation curves — the tolerance the bench asserts on the
/// pruned paper-tier curve. Points are matched by `common` value (the
/// curves may have gaps where no pair reaches a count).
///
/// Only points with `common > min_common` and exact support
/// `>= min_support` pairs are compared: the admit floor drops
/// head-only pairs whose true overlap sits at or just below the floor,
/// so the curve's first few points move *by design*, and points backed
/// by a handful of pairs are sampling noise, not signal. A banded
/// curve missing a compared point counts as a 100-point difference.
pub fn curve_max_abs_diff(
    exact: &[CorrelationPoint],
    banded: &[CorrelationPoint],
    min_common: u32,
    min_support: usize,
) -> f64 {
    exact
        .iter()
        .filter(|e| e.common > min_common && e.pairs >= min_support)
        .map(|e| {
            banded
                .iter()
                .find(|b| b.common == e.common)
                .map_or(100.0, |b| {
                    (e.probability_percent - b.probability_percent).abs()
                })
        })
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::{overlap_counts, overlap_counts_arena_with_threads};

    #[test]
    fn splitmix64_is_pinned_to_the_workspace_constants() {
        assert_eq!(splitmix64(0), 0);
        assert_eq!(splitmix64(1), 0x5692_161d_100b_05e5);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0xe220_a839_7b1d_cdaf);
    }

    /// A clustered synthetic arena: `n_peers` peers, popular head files
    /// shared broadly (how many varies by peer, so pair overlaps do
    /// too), tail files shared within small groups.
    fn arena(n_peers: u32, n_files: u32) -> CacheArena {
        let caches: Vec<Vec<FileRef>> = (0..n_peers)
            .map(|p| {
                let mut cache: Vec<FileRef> = (0..4 + p % 5).map(FileRef).collect();
                cache.extend((0..12u32).map(|i| FileRef(8 + (p / 4) * 12 + i)));
                cache.retain(|f| f.0 < n_files);
                cache.sort_unstable();
                cache.dedup();
                cache
            })
            .collect();
        CacheArena::from_caches(&caches, n_files as usize)
    }

    fn cfg(admit_floor: u32) -> BandedOverlapConfig {
        BandedOverlapConfig {
            band_cap: 6,
            max_holders: Some(64),
            sketch_k: 64,
            admit_floor,
            seed: 7,
        }
    }

    /// The sequential oracle's entries for `arena` at holder cap 64.
    fn oracle(arena: &CacheArena) -> Vec<((u32, u32), u32)> {
        overlap_counts(&arena.to_caches(), arena.n_files(), |_| true, Some(64))
            .iter()
            .collect()
    }

    #[test]
    fn exact_mode_has_no_head_band_and_matches_the_oracle() {
        let arena = arena(40, 200);
        let expected = oracle(&arena);
        for threads in [1, 2, 8] {
            let (counts, stats) = overlap_counts_banded_with_threads(
                &arena,
                |_| true,
                &BandedOverlapConfig::exact(Some(64)),
                threads,
            );
            assert_eq!(
                counts.iter().collect::<Vec<_>>(),
                expected,
                "threads={threads}"
            );
            assert_eq!(stats.head_files, 0, "{stats:?}");
            assert_eq!(stats.sketched_peers, 0);
            assert_eq!(stats.candidate_pairs, 0);
            assert!(stats.tail_files > 0);
        }
    }

    #[test]
    fn zero_floor_resolves_the_head_band_exactly() {
        let arena = arena(40, 200);
        let expected = oracle(&arena);
        for threads in [1, 2, 8] {
            let (banded, stats) =
                overlap_counts_banded_with_threads(&arena, |_| true, &cfg(0), threads);
            assert_eq!(
                banded.iter().collect::<Vec<_>>(),
                expected,
                "threads={threads}"
            );
            assert!(stats.head_files > 0 && stats.tail_files > 0, "{stats:?}");
            assert_eq!(stats.pruned_pairs, 0);
            assert_eq!(stats.admitted_pairs, stats.candidate_pairs);
        }
    }

    #[test]
    fn pruning_only_drops_head_contributions() {
        let arena = arena(48, 240);
        let exact = overlap_counts_arena_with_threads(&arena, |_| true, Some(64), 2);
        let (banded, stats) = overlap_counts_banded_with_threads(&arena, |_| true, &cfg(6), 4);
        assert!(stats.pruned_pairs > 0, "floor 6 must prune something");
        assert!(stats.admitted_pairs > 0, "floor 6 must admit something");
        for ((a, b), count) in banded.iter() {
            let full = exact.overlap(a, b);
            assert!(count <= full, "banded can only lose head files");
        }
    }

    #[test]
    fn histogram_matches_materialized_entries() {
        let arena = arena(40, 200);
        for threads in [1, 3] {
            let (counts, s1) =
                overlap_counts_banded_with_threads(&arena, |_| true, &cfg(2), threads);
            let (hist, s2) =
                banded_overlap_histogram_with_threads(&arena, |_| true, &cfg(2), threads);
            let mut expect = vec![0u64; counts.iter().map(|(_, c)| c).max().unwrap() as usize + 1];
            for (_, c) in counts.iter() {
                expect[c as usize] += 1;
            }
            assert_eq!(hist, expect);
            assert_eq!(counts.histogram(), expect);
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn estimator_tracks_true_head_overlap() {
        let arena = arena(40, 200);
        let (class, _, head_files) = classify(&arena, |_| true, &cfg(2));
        let rows = HeadRows::build(&arena, &class, head_files);
        let sketches = HeadSketches::build(&rows, 128, 7, 2);
        // Head files are held broadly: the estimate for a pair must
        // land near its true head overlap.
        let est = sketches.estimate_common(0, 1);
        let truth = sorted_intersection_len(rows.row(0), rows.row(1)) as u32;
        assert!(
            est.abs_diff(truth) <= 3,
            "estimate {est} too far from {truth}"
        );
    }
}

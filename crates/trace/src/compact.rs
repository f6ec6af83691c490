//! Columnar cache storage: the whole population's caches in one arena.
//!
//! The analyses and simulations in this workspace all consume "who
//! shares what" as `&[Vec<FileRef>]` — one heap allocation per peer,
//! scattered across the heap, cloned wholesale whenever a day snapshot
//! is viewed peer-indexed. [`CacheArena`] replaces that with a CSR
//! (compressed sparse row) layout: every cache concatenated into one
//! flat sorted `Vec<FileRef>` plus a per-peer offset table. Per-peer
//! views are cheap slices, membership is a binary search over a
//! cache-resident range, and the inverted view (which peers hold file
//! `f`) is a second CSR built once on demand by counting sort. One more
//! derived index, owned by a downstream crate (the Section 5 replay
//! precomputation), lives beside it: [`CacheArena::derived_index`].
//!
//! ```
//! use edonkey_trace::compact::CacheArena;
//! use edonkey_trace::model::FileRef;
//!
//! let caches = vec![vec![FileRef(0), FileRef(2)], vec![FileRef(2)]];
//! let arena = CacheArena::from_caches(&caches, 3);
//! assert_eq!(arena.cache(0), &[FileRef(0), FileRef(2)]);
//! assert!(arena.contains(1, FileRef(2)));
//! assert_eq!(arena.holders(FileRef(2)), &[0, 1]);
//! ```

use std::any::Any;
use std::sync::{Arc, OnceLock};

use crate::model::{DaySnapshot, FileInfo, FileRef, PeerId, PeerInfo, Trace};

/// All peer caches in one flat, sorted, columnar allocation.
///
/// Rows (peers) are contiguous ranges of `files`; `offsets[p]..offsets[p+1]`
/// delimits peer `p`'s cache, which is sorted and deduplicated. The
/// inverted holders index and the keyed [`CacheArena::derived_index`]
/// are built lazily, once, behind a [`OnceLock`] each.
#[derive(Debug)]
pub struct CacheArena {
    /// Concatenated caches; each peer's range is sorted + deduplicated.
    files: Vec<FileRef>,
    /// `offsets[p]..offsets[p + 1]` is peer `p`'s range. Length `n_peers + 1`.
    offsets: Vec<u32>,
    /// Exclusive upper bound of the file-id space.
    n_files: usize,
    /// Inverted index, built on first use.
    holders: OnceLock<HoldersIndex>,
    /// A downstream index and the key it was built for, built on first
    /// use (type-erased: this crate cannot name its type).
    derived: OnceLock<(u64, Arc<dyn Any + Send + Sync>)>,
}

/// CSR inverted index: for each file, the sorted peers holding it.
#[derive(Debug)]
struct HoldersIndex {
    /// Concatenated holder lists, each sorted ascending by peer id.
    peers: Vec<u32>,
    /// `offsets[f]..offsets[f + 1]` is file `f`'s holder range.
    offsets: Vec<u32>,
}

impl CacheArena {
    /// Builds an arena from per-peer caches.
    ///
    /// Caches are normalized (sorted, deduplicated) on the way in, so
    /// arbitrary input is accepted; already-normal input (everything the
    /// trace model produces) is copied without re-sorting.
    ///
    /// # Panics
    ///
    /// Panics if any `FileRef` is `>= n_files`, or if the total replica
    /// count overflows the `u32` offset table (4 billion replicas is far
    /// beyond the paper's scale).
    pub fn from_caches(caches: &[Vec<FileRef>], n_files: usize) -> Self {
        Self::build(caches.len(), n_files, |p| &caches[p])
    }

    /// Builds a peer-indexed arena from one day's snapshot: slot `p`
    /// holds peer `p`'s cache that day, empty when the peer was not
    /// observed. This replaces the `Vec<Vec<FileRef>>` scatter-clone the
    /// per-day analyses previously performed.
    pub fn from_snapshot(snapshot: &DaySnapshot, n_peers: usize, n_files: usize) -> Self {
        let mut by_peer: Vec<&[FileRef]> = vec![&[]; n_peers];
        for (peer, cache) in &snapshot.caches {
            by_peer[peer.index()] = cache;
        }
        Self::build(n_peers, n_files, |p| by_peer[p])
    }

    /// Builds the static (union-over-days) arena for a whole trace —
    /// the arena equivalent of [`Trace::static_caches`].
    pub fn from_trace_static(trace: &Trace) -> Self {
        Self::from_caches(&trace.static_caches(), trace.files.len())
    }

    /// Adopts already-CSR data without copying or re-sorting — the
    /// zero-rebuild path for consumers that decode the binary trace
    /// format's day sections (`io::bin`), whose lengths + concatenated
    /// sorted entries are this exact layout.
    ///
    /// Validates the CSR invariants (offset monotonicity and bounds,
    /// per-row sorted/deduplicated entries, refs `< n_files`) instead of
    /// panicking, since the data may come from disk.
    pub fn from_csr_parts(
        files: Vec<FileRef>,
        offsets: Vec<u32>,
        n_files: usize,
    ) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("offsets must start with 0".into());
        }
        if *offsets.last().expect("non-empty by the check above") as usize != files.len() {
            return Err(format!(
                "final offset {} does not match {} entries",
                offsets.last().expect("non-empty"),
                files.len()
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing".into());
        }
        for w in offsets.windows(2) {
            let row = &files[w[0] as usize..w[1] as usize];
            if row.windows(2).any(|p| p[0] >= p[1]) {
                return Err("row entries must be strictly increasing".into());
            }
            if let Some(last) = row.last() {
                if last.index() >= n_files {
                    return Err(format!(
                        "file ref {last} out of range (n_files = {n_files})"
                    ));
                }
            }
        }
        Ok(Self::adopt(files, offsets, n_files))
    }

    /// [`CacheArena::from_csr_parts`] for in-crate callers that uphold
    /// the invariants themselves (the shuffler's per-checkpoint
    /// snapshots, which only permute validated rows): full validation
    /// in debug builds only.
    pub(crate) fn from_csr_parts_trusted(
        files: Vec<FileRef>,
        offsets: Vec<u32>,
        n_files: usize,
    ) -> Self {
        #[cfg(debug_assertions)]
        {
            Self::from_csr_parts(files, offsets, n_files).expect("caller-validated CSR parts")
        }
        #[cfg(not(debug_assertions))]
        {
            Self::adopt(files, offsets, n_files)
        }
    }

    /// Wraps CSR parts with no lazy index built yet.
    fn adopt(files: Vec<FileRef>, offsets: Vec<u32>, n_files: usize) -> Self {
        CacheArena {
            files,
            offsets,
            n_files,
            holders: OnceLock::new(),
            derived: OnceLock::new(),
        }
    }

    fn build<'a>(
        n_peers: usize,
        n_files: usize,
        cache_of: impl Fn(usize) -> &'a [FileRef],
    ) -> Self {
        let total: usize = (0..n_peers).map(|p| cache_of(p).len()).sum();
        assert!(
            total <= u32::MAX as usize,
            "replica count overflows u32 offsets"
        );
        let mut files = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(n_peers + 1);
        offsets.push(0u32);
        let mut scratch: Vec<FileRef> = Vec::new();
        for p in 0..n_peers {
            let cache = cache_of(p);
            let normal = cache.windows(2).all(|w| w[0] < w[1]);
            let cache: &[FileRef] = if normal {
                cache
            } else {
                scratch.clear();
                scratch.extend_from_slice(cache);
                scratch.sort_unstable();
                scratch.dedup();
                &scratch
            };
            if let Some(last) = cache.last() {
                assert!(
                    last.index() < n_files,
                    "file ref {last} out of range (n_files = {n_files})"
                );
            }
            files.extend_from_slice(cache);
            offsets.push(files.len() as u32);
        }
        Self::adopt(files, offsets, n_files)
    }

    /// Number of peers (rows).
    pub fn n_peers(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Exclusive upper bound of the file-id space.
    pub fn n_files(&self) -> usize {
        self.n_files
    }

    /// Total replicas (sum of cache sizes).
    pub fn replica_count(&self) -> usize {
        self.files.len()
    }

    /// Peer `p`'s cache: a sorted, deduplicated slice.
    pub fn cache(&self, peer: usize) -> &[FileRef] {
        let lo = self.offsets[peer] as usize;
        let hi = self.offsets[peer + 1] as usize;
        &self.files[lo..hi]
    }

    /// Whether peer `p` shares `file` — binary search within one row.
    pub fn contains(&self, peer: usize, file: FileRef) -> bool {
        self.cache(peer).binary_search(&file).is_ok()
    }

    /// Iterates all caches in peer order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[FileRef]> + '_ {
        (0..self.n_peers()).map(move |p| self.cache(p))
    }

    /// Peers holding `file`, sorted ascending. Builds the inverted
    /// index on first call (counting sort, O(replicas + n_files)); all
    /// later calls are slice lookups.
    pub fn holders(&self, file: FileRef) -> &[u32] {
        let index = self.holders_index();
        let lo = index.offsets[file.index()] as usize;
        let hi = index.offsets[file.index() + 1] as usize;
        &index.peers[lo..hi]
    }

    /// Forces the inverted index to exist. Useful before fanning out
    /// worker threads so the build happens once up front instead of the
    /// first worker building it while the rest block on the lock.
    pub fn ensure_holders(&self) {
        self.holders_index();
    }

    fn holders_index(&self) -> &HoldersIndex {
        self.holders.get_or_init(|| {
            // Counting sort: histogram of per-file replica counts →
            // prefix sums → one placement pass in peer order, which
            // leaves every holder list sorted by construction.
            let mut offsets = vec![0u32; self.n_files + 1];
            for f in &self.files {
                offsets[f.index() + 1] += 1;
            }
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
            let mut cursor = offsets.clone();
            let mut peers = vec![0u32; self.files.len()];
            for p in 0..self.n_peers() {
                for f in self.cache(p) {
                    let slot = cursor[f.index()];
                    peers[slot as usize] = p as u32;
                    cursor[f.index()] += 1;
                }
            }
            HoldersIndex { peers, offsets }
        })
    }

    /// A caller's index derived from this arena's content and `key`,
    /// shared through an [`Arc`]. The first key asked for is built once
    /// and every later call with that key gets the same index; a call
    /// with any other key (or another type) builds its own and keeps
    /// nothing. `build` must be a pure function of the content and
    /// `key`. The index lives as long as the arena: [`Self::retain`]
    /// drops it, and clones start without one.
    ///
    /// The slot is type-erased because the one user lives downstream:
    /// the Section 5 simulator keys its replay precomputation by seed.
    pub fn derived_index<T: Any + Send + Sync>(
        &self,
        key: u64,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut build = Some(build);
        let (built_for, index) = self.derived.get_or_init(|| {
            let build = build.take().expect("the slot builds once");
            (key, Arc::new(build()) as Arc<dyn Any + Send + Sync>)
        });
        let shared = (*built_for == key).then(|| Arc::clone(index).downcast::<T>().ok());
        shared.flatten().unwrap_or_else(|| {
            let build = build.expect("a slot built here holds this key and type");
            Arc::new(build())
        })
    }

    /// Keeps only the entries `keep(peer, file)` accepts, in place. Rows
    /// stay in peer order and sorted (a peer losing every entry keeps an
    /// empty row); the holders and derived indexes are rebuilt on next
    /// use.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, FileRef) -> bool) {
        let mut write = 0usize;
        for p in 0..self.n_peers() {
            let (lo, hi) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
            self.offsets[p] = write as u32;
            for i in lo..hi {
                let file = self.files[i];
                if keep(p, file) {
                    self.files[write] = file;
                    write += 1;
                }
            }
        }
        *self
            .offsets
            .last_mut()
            .expect("offsets hold n_peers + 1 entries") = write as u32;
        self.files.truncate(write);
        self.holders = OnceLock::new();
        self.derived = OnceLock::new();
    }

    /// Converts back to the legacy per-peer `Vec` representation, for
    /// callers not yet ported to arena slices.
    pub fn to_caches(&self) -> Vec<Vec<FileRef>> {
        self.iter().map(<[FileRef]>::to_vec).collect()
    }

    /// The raw CSR parts `(entries, offsets)` — for consumers (like the
    /// arena shuffler) that adopt the layout wholesale instead of going
    /// through per-peer slices.
    pub fn as_csr_parts(&self) -> (&[FileRef], &[u32]) {
        (&self.files, &self.offsets)
    }
}

/// One day's observations in CSR form: the arena equivalent of
/// [`DaySnapshot`].
///
/// `peers[i]` is the i-th observed peer (strictly increasing), and its
/// cache is `entries[offsets[i]..offsets[i + 1]]` (sorted,
/// deduplicated). This is exactly the layout of a binary-format day
/// section (`io::bin`), so streaming consumers can decode into it
/// without one allocation per cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DayArena {
    /// Absolute day number.
    pub day: u32,
    /// Observed peer ids, strictly increasing.
    pub peers: Vec<u32>,
    /// `offsets[i]..offsets[i + 1]` delimits row `i`. Length `peers.len() + 1`.
    pub offsets: Vec<u32>,
    /// Concatenated cache rows, each sorted and deduplicated.
    pub entries: Vec<FileRef>,
}

impl DayArena {
    /// Creates an empty day.
    pub fn new(day: u32) -> Self {
        DayArena {
            day,
            peers: Vec::new(),
            offsets: vec![0],
            entries: Vec::new(),
        }
    }

    /// Converts a row-oriented snapshot (one `Vec` per cache) into CSR.
    pub fn from_snapshot(snapshot: &DaySnapshot) -> Self {
        let total: usize = snapshot.caches.iter().map(|(_, c)| c.len()).sum();
        let mut peers = Vec::with_capacity(snapshot.caches.len());
        let mut offsets = Vec::with_capacity(snapshot.caches.len() + 1);
        let mut entries = Vec::with_capacity(total);
        offsets.push(0u32);
        for (peer, cache) in &snapshot.caches {
            peers.push(peer.0);
            entries.extend_from_slice(cache);
            offsets.push(entries.len() as u32);
        }
        DayArena {
            day: snapshot.day,
            peers,
            offsets,
            entries,
        }
    }

    /// Materializes the row-oriented snapshot (one allocation per cache).
    pub fn to_snapshot(&self) -> DaySnapshot {
        DaySnapshot {
            day: self.day,
            caches: (0..self.peers.len())
                .map(|i| (PeerId(self.peers[i]), self.row(i).to_vec()))
                .collect(),
        }
    }

    /// Number of observed peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Row `i`'s cache slice (row index, not peer id).
    pub fn row(&self, i: usize) -> &[FileRef] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates `(peer_id, cache)` pairs in peer order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, &[FileRef])> + '_ {
        (0..self.peers.len()).map(move |i| (self.peers[i], self.row(i)))
    }

    /// Validates the CSR invariants, mirroring what
    /// [`Trace::check_invariants`] checks per snapshot.
    pub fn check_invariants(&self, n_peers: usize, n_files: usize) -> Result<(), String> {
        if self.offsets.first() != Some(&0) || self.offsets.len() != self.peers.len() + 1 {
            return Err(format!("day {}: malformed offset table", self.day));
        }
        if *self.offsets.last().expect("non-empty") as usize != self.entries.len() {
            return Err(format!("day {}: final offset mismatch", self.day));
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("day {}: offsets must be non-decreasing", self.day));
        }
        if self.peers.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("day {}: peers not strictly increasing", self.day));
        }
        if let Some(&p) = self.peers.last() {
            if p as usize >= n_peers {
                return Err(format!("day {}: peer p{p} out of range", self.day));
            }
        }
        for i in 0..self.peers.len() {
            let row = self.row(i);
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "day {}: row of p{} not sorted/deduped",
                    self.day, self.peers[i]
                ));
            }
            if let Some(f) = row.last() {
                if f.index() >= n_files {
                    return Err(format!("day {}: file {f} out of range", self.day));
                }
            }
        }
        Ok(())
    }
}

/// A whole trace in CSR form: intern tables plus one [`DayArena`] per
/// observed day — the arena-native counterpart of [`Trace`] that the
/// derivation pipeline (`pipeline::filter_arena` and friends) transforms
/// without ever materializing per-cache `Vec`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceArena {
    /// Distinct files, indexed by [`FileRef`].
    pub files: Vec<FileInfo>,
    /// Distinct peers, indexed by [`PeerId`].
    pub peers: Vec<PeerInfo>,
    /// Daily CSR snapshots, sorted by day.
    pub days: Vec<DayArena>,
}

impl TraceArena {
    /// Converts a row-oriented trace.
    pub fn from_trace(trace: &Trace) -> Self {
        TraceArena {
            files: trace.files.clone(),
            peers: trace.peers.clone(),
            days: trace.days.iter().map(DayArena::from_snapshot).collect(),
        }
    }

    /// Materializes the row-oriented trace (for consumers not yet ported
    /// to CSR slices).
    pub fn to_trace(&self) -> Trace {
        let trace = Trace {
            files: self.files.clone(),
            peers: self.peers.clone(),
            days: self.days.iter().map(DayArena::to_snapshot).collect(),
        };
        debug_assert_eq!(trace.check_invariants(), Ok(()));
        trace
    }

    /// Total `(peer, day)` snapshots, like [`Trace::snapshot_count`].
    pub fn snapshot_count(&self) -> usize {
        self.days.iter().map(DayArena::peer_count).sum()
    }

    /// The static (union-over-days) caches as a [`CacheArena`] — the
    /// arena equivalent of [`Trace::static_caches`].
    pub fn static_arena(&self) -> CacheArena {
        let mut per_peer: Vec<Vec<FileRef>> = vec![Vec::new(); self.peers.len()];
        for day in &self.days {
            for (peer, row) in day.iter() {
                per_peer[peer as usize].extend_from_slice(row);
            }
        }
        CacheArena::from_caches(&per_peer, self.files.len())
    }

    /// Validates internal invariants; mirrors [`Trace::check_invariants`].
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.days.windows(2) {
            if w[0].day >= w[1].day {
                return Err(format!(
                    "days not strictly sorted: {} {}",
                    w[0].day, w[1].day
                ));
            }
        }
        for day in &self.days {
            day.check_invariants(self.peers.len(), self.files.len())?;
        }
        Ok(())
    }
}

impl Clone for CacheArena {
    fn clone(&self) -> Self {
        // The lazily-built indexes are rebuilt on demand; a clone is
        // usually about to be edited (`retain`), so don't copy them.
        Self::adopt(self.files.clone(), self.offsets.clone(), self.n_files)
    }
}

/// A reusable u64-word membership bitset over a dense id space.
///
/// The simulators repeatedly materialize one *hot row* — a neighbour
/// list, a relay's list — and probe many candidates against it. A
/// `HashSet` probe costs a hash plus a bucket chase per candidate; this
/// is one shift, one mask and one indexed load. The trick that makes it
/// reusable across millions of rows is *touched-word clearing*: only
/// the words dirtied since the last [`RowBits::clear`] are zeroed, so a
/// sparse row (≤ 200 set bits) costs O(row) to stamp and O(row) to
/// clear, never O(universe / 64).
#[derive(Clone, Debug, Default)]
pub struct RowBits {
    words: Vec<u64>,
    /// Indices of words with at least one set bit, each recorded once.
    touched: Vec<u32>,
}

impl RowBits {
    /// Creates an empty bitset; the word table grows on `ensure`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the universe to hold ids `0..n` (never shrinks).
    pub fn ensure(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Sets bit `id`. The id must be within the last `ensure`d universe.
    #[inline]
    pub fn insert(&mut self, id: u32) {
        let w = (id / 64) as usize;
        if self.words[w] == 0 {
            self.touched.push(w as u32);
        }
        self.words[w] |= 1u64 << (id % 64);
    }

    /// Tests bit `id`.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.words[(id / 64) as usize] & (1u64 << (id % 64)) != 0
    }

    /// Clears every set bit in time proportional to the bits *set*, not
    /// the universe.
    pub fn clear(&mut self) {
        for &w in &self.touched {
            self.words[w as usize] = 0;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PeerId;

    fn f(i: u32) -> FileRef {
        FileRef(i)
    }

    #[test]
    fn round_trips_and_slices() {
        let caches = vec![vec![f(0), f(2), f(4)], vec![], vec![f(2)], vec![f(1), f(2)]];
        let arena = CacheArena::from_caches(&caches, 5);
        assert_eq!(arena.n_peers(), 4);
        assert_eq!(arena.n_files(), 5);
        assert_eq!(arena.replica_count(), 6);
        for (p, cache) in caches.iter().enumerate() {
            assert_eq!(arena.cache(p), cache.as_slice());
        }
        assert_eq!(arena.to_caches(), caches);
        assert_eq!(arena.iter().len(), 4);
    }

    #[test]
    fn normalizes_unsorted_input() {
        let caches = vec![vec![f(3), f(1), f(3), f(0)]];
        let arena = CacheArena::from_caches(&caches, 4);
        assert_eq!(arena.cache(0), &[f(0), f(1), f(3)]);
    }

    #[test]
    fn membership() {
        let caches = vec![vec![f(0), f(2)], vec![f(1)]];
        let arena = CacheArena::from_caches(&caches, 3);
        assert!(arena.contains(0, f(0)));
        assert!(!arena.contains(0, f(1)));
        assert!(arena.contains(1, f(1)));
        assert!(!arena.contains(1, f(2)));
    }

    #[test]
    fn retain_filters_entries_and_rebuilds_holders() {
        let caches = vec![vec![f(0), f(2), f(4)], vec![], vec![f(2)], vec![f(1), f(2)]];
        let mut arena = CacheArena::from_caches(&caches, 5);
        assert_eq!(arena.holders(f(2)), &[0, 2, 3]);
        arena.retain(|p, file| p != 2 && file != f(4));
        assert_eq!(
            arena.to_caches(),
            vec![vec![f(0), f(2)], vec![], vec![], vec![f(1), f(2)]]
        );
        assert_eq!(arena.replica_count(), 4);
        assert_eq!(arena.holders(f(2)), &[0, 3]);
        assert!(arena.holders(f(4)).is_empty());
    }

    #[test]
    fn holders_index_matches_brute_force() {
        let caches = vec![
            vec![f(0), f(1), f(2)],
            vec![f(1)],
            vec![],
            vec![f(0), f(2)],
            vec![f(2)],
        ];
        let arena = CacheArena::from_caches(&caches, 4);
        for file in 0..4u32 {
            let expected: Vec<u32> = caches
                .iter()
                .enumerate()
                .filter(|(_, c)| c.contains(&f(file)))
                .map(|(p, _)| p as u32)
                .collect();
            assert_eq!(arena.holders(f(file)), expected.as_slice(), "file {file}");
        }
    }

    #[test]
    fn snapshot_arena_is_peer_indexed() {
        let mut snap = DaySnapshot::new(7);
        snap.insert(PeerId(1), vec![f(0), f(1)]);
        snap.insert(PeerId(3), vec![f(1)]);
        let arena = CacheArena::from_snapshot(&snap, 5, 2);
        assert_eq!(arena.n_peers(), 5);
        assert_eq!(arena.cache(0), &[] as &[FileRef]);
        assert_eq!(arena.cache(1), &[f(0), f(1)]);
        assert_eq!(arena.cache(3), &[f(1)]);
        assert_eq!(arena.holders(f(1)), &[1, 3]);
    }

    #[test]
    fn clone_drops_lazy_index() {
        let arena = CacheArena::from_caches(&[vec![f(0)]], 1);
        assert_eq!(arena.holders(f(0)), &[0]);
        let cloned = arena.clone();
        assert_eq!(cloned.holders(f(0)), &[0]);
    }

    #[test]
    fn derived_index_is_shared_for_its_first_key_only() {
        let mut arena = CacheArena::from_caches(&[vec![f(0), f(1)], vec![f(1)]], 2);
        let first = arena.derived_index(7, || arena.replica_count());
        let again = arena.derived_index(7, || unreachable!("key 7 is already built"));
        assert!(Arc::ptr_eq(&first, &again));
        let other = arena.derived_index(8, || 80);
        assert_eq!(*other, 80);
        assert!(!Arc::ptr_eq(&other, &arena.derived_index(8, || 80)));
        let wrong_type = arena.derived_index(7, || "built afresh");
        assert_eq!(*wrong_type, "built afresh");

        let cloned = arena.clone();
        assert_eq!(*cloned.derived_index(8, || 80), 80, "clones start empty");
        arena.retain(|_, file| file == f(1));
        let rebuilt = arena.derived_index(7, || arena.replica_count());
        assert_eq!((*first, *rebuilt), (3, 2), "retain drops the index");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_refs() {
        CacheArena::from_caches(&[vec![f(9)]], 3);
    }

    #[test]
    fn day_arena_round_trips_snapshot() {
        let mut snap = DaySnapshot::new(9);
        snap.insert(PeerId(2), vec![f(1), f(3)]);
        snap.insert(PeerId(5), vec![]);
        snap.insert(PeerId(7), vec![f(0)]);
        let day = DayArena::from_snapshot(&snap);
        assert_eq!(day.peer_count(), 3);
        assert_eq!(day.row(0), &[f(1), f(3)]);
        assert_eq!(day.row(1), &[] as &[FileRef]);
        assert_eq!(day.row(2), &[f(0)]);
        assert_eq!(day.check_invariants(8, 4), Ok(()));
        assert_eq!(day.to_snapshot(), snap);
        assert_eq!(
            day.iter().map(|(p, r)| (p, r.len())).collect::<Vec<_>>(),
            vec![(2, 2), (5, 0), (7, 1)]
        );
    }

    #[test]
    fn day_arena_invariants_catch_corruption() {
        let mut snap = DaySnapshot::new(9);
        snap.insert(PeerId(0), vec![f(1)]);
        let good = DayArena::from_snapshot(&snap);
        assert!(good.check_invariants(1, 1).is_err(), "file out of range");
        assert!(good.check_invariants(0, 2).is_err(), "peer out of range");
        let mut bad = good.clone();
        bad.offsets = vec![0, 2];
        assert!(bad.check_invariants(1, 2).is_err());
        let mut bad = good.clone();
        bad.peers = vec![0, 0];
        assert!(bad.check_invariants(1, 2).is_err());
    }

    #[test]
    fn trace_arena_round_trips_and_counts() {
        use crate::model::{CountryCode, FileInfo, PeerInfo};
        use edonkey_proto::md4::Md4;
        use edonkey_proto::query::FileKind;

        let files = (0..3u64)
            .map(|n| FileInfo {
                id: Md4::digest(&n.to_le_bytes()),
                size: 1,
                kind: FileKind::Audio,
            })
            .collect();
        let peers = (0..2u64)
            .map(|n| PeerInfo {
                uid: Md4::digest(format!("p{n}").as_bytes()),
                ip: n as u32,
                country: CountryCode::new("FR"),
                asn: 1,
            })
            .collect();
        let mut a = DaySnapshot::new(1);
        a.insert(PeerId(0), vec![f(0), f(2)]);
        a.insert(PeerId(1), vec![f(1)]);
        let mut b = DaySnapshot::new(3);
        b.insert(PeerId(1), vec![f(2)]);
        let trace = Trace {
            files,
            peers,
            days: vec![a, b],
        };
        assert_eq!(trace.check_invariants(), Ok(()));
        let arena = TraceArena::from_trace(&trace);
        assert_eq!(arena.check_invariants(), Ok(()));
        assert_eq!(arena.snapshot_count(), 3);
        assert_eq!(arena.to_trace(), trace);
        let back = arena.static_arena();
        assert_eq!(back.cache(0), &[f(0), f(2)]);
        assert_eq!(back.cache(1), &[f(1), f(2)]);
    }

    #[test]
    fn csr_parts_round_trip_and_validate() {
        let caches = vec![vec![f(0), f(2)], vec![], vec![f(1)]];
        let built = CacheArena::from_caches(&caches, 3);
        let adopted = CacheArena::from_csr_parts(
            built.iter().flatten().copied().collect(),
            vec![0, 2, 2, 3],
            3,
        )
        .unwrap();
        assert_eq!(adopted.to_caches(), caches);
        assert_eq!(adopted.holders(f(2)), &[0]);

        // Every invariant violation is an Err, never a panic.
        assert!(CacheArena::from_csr_parts(vec![f(0)], vec![1, 1], 2).is_err());
        assert!(CacheArena::from_csr_parts(vec![f(0)], vec![0, 2], 2).is_err());
        assert!(CacheArena::from_csr_parts(vec![f(0), f(1)], vec![0, 2, 1], 2).is_err());
        assert!(CacheArena::from_csr_parts(vec![f(1), f(0)], vec![0, 2], 2).is_err());
        assert!(CacheArena::from_csr_parts(vec![f(5)], vec![0, 1], 2).is_err());
    }

    #[test]
    fn row_bits_insert_probe_and_touched_clear() {
        let mut bits = RowBits::new();
        bits.ensure(300);
        // Word boundaries: 63/64 share nothing, 64/65 share a word.
        for id in [0u32, 63, 64, 65, 130, 299] {
            bits.insert(id);
        }
        for id in [0u32, 63, 64, 65, 130, 299] {
            assert!(bits.contains(id), "{id}");
        }
        for id in [1u32, 62, 66, 129, 131, 298] {
            assert!(!bits.contains(id), "{id}");
        }
        bits.clear();
        for id in 0..300u32 {
            assert!(!bits.contains(id), "{id} survived clear");
        }
        // Reuse after clear, including re-dirtying the same words.
        bits.insert(64);
        assert!(bits.contains(64));
        assert!(!bits.contains(65));
        // Growing never drops existing bits.
        bits.ensure(10_000);
        assert!(bits.contains(64));
        bits.insert(9_999);
        assert!(bits.contains(9_999));
        bits.clear();
        assert!(!bits.contains(9_999));
    }
}

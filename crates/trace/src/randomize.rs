//! The appendix trace-randomization algorithm.
//!
//! Goal (quoting the paper): *"modify a collection of peer cache contents
//! so that the peer generosity (number of files cached per peer) and the
//! file popularity (number of replicas per file) are maintained, while any
//! other structure — in particular, interest-based clustering between
//! peers — is destroyed."*
//!
//! One iteration:
//! 1. pick a peer `u` with probability `|Cu| / Σ|Cw|`;
//! 2. pick a file `f` uniformly from `Cu`;
//! 3. likewise pick `(v, f')`;
//! 4. swap `f` and `f'` between the two caches — only if `f' ∉ Cu` and
//!    `f ∉ Cv`.
//!
//! Steps 1+2 together are exactly "pick a *replica* uniformly at random",
//! which is how [`Shuffler`] implements them: a flat replica array gives
//! O(1) sampling, and per-peer hash sets give O(1) membership tests, so a
//! full randomization pass is O(N log N) total.
//!
//! The paper proves `½·N·ln N` iterations suffice (`N` = total replicas);
//! [`recommended_iterations`] computes that bound.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::Rng;

use crate::compact::CacheArena;
use crate::model::FileRef;

/// The paper's sufficient iteration count: `½ · N · ln N` for `N` total
/// replicas (at least 1 for tiny non-empty traces).
///
/// # Examples
///
/// ```
/// use edonkey_trace::randomize::recommended_iterations;
/// assert_eq!(recommended_iterations(0), 0);
/// // ½ · 1000 · ln 1000 ≈ 3454.
/// assert_eq!(recommended_iterations(1000), 3454);
/// ```
pub fn recommended_iterations(total_replicas: usize) -> u64 {
    if total_replicas < 2 {
        return if total_replicas == 0 { 0 } else { 1 };
    }
    let n = total_replicas as f64;
    (0.5 * n * n.ln()).ceil() as u64
}

/// Statistics from a randomization run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Iterations attempted (steps 1–3 executed).
    pub attempted: u64,
    /// Swaps actually performed (membership checks passed).
    pub performed: u64,
}

/// Incremental randomizer over a set of peer caches.
///
/// Owns the caches while shuffling; [`Shuffler::into_caches`] returns them
/// (each sorted) when done. Fig. 21 needs *partial* randomization — hit
/// rate as a function of swap count — which is why this is exposed as a
/// stateful object rather than a single function.
pub struct Shuffler {
    /// Cache contents, indexed by peer. Order within a cache is arbitrary
    /// while shuffling.
    caches: Vec<Vec<FileRef>>,
    /// Membership sets mirroring `caches`.
    members: Vec<HashSet<FileRef>>,
    /// Flat index of every replica as `(peer, slot)`.
    replicas: Vec<(u32, u32)>,
    stats: SwapStats,
}

impl Shuffler {
    /// Builds a shuffler over per-peer caches (entries need not be
    /// sorted; they must be duplicate-free per peer).
    ///
    /// # Panics
    ///
    /// Panics if a cache contains a duplicate entry: replica counts would
    /// silently change otherwise.
    pub fn new(caches: Vec<Vec<FileRef>>) -> Self {
        let mut replicas = Vec::with_capacity(caches.iter().map(Vec::len).sum());
        let mut members = Vec::with_capacity(caches.len());
        for (peer, cache) in caches.iter().enumerate() {
            let set: HashSet<FileRef> = cache.iter().copied().collect();
            assert_eq!(set.len(), cache.len(), "peer {peer} cache has duplicates");
            members.push(set);
            for slot in 0..cache.len() {
                replicas.push((peer as u32, slot as u32));
            }
        }
        Shuffler {
            caches,
            members,
            replicas,
            stats: SwapStats::default(),
        }
    }

    /// Total number of replicas `N`.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> SwapStats {
        self.stats
    }

    /// Runs `iterations` swap attempts.
    pub fn run(&mut self, iterations: u64, rng: &mut impl Rng) {
        if self.replicas.len() < 2 {
            // Nothing can ever swap; still record the attempts.
            self.stats.attempted += iterations;
            return;
        }
        for _ in 0..iterations {
            self.step(rng);
        }
    }

    /// Runs one swap attempt; returns whether a swap was performed.
    pub fn step(&mut self, rng: &mut impl Rng) -> bool {
        self.stats.attempted += 1;
        if self.replicas.len() < 2 {
            return false;
        }
        // Uniform replica picks implement the size-biased peer picks.
        let a = rng.gen_range(0..self.replicas.len());
        let b = rng.gen_range(0..self.replicas.len());
        let (pu, su) = self.replicas[a];
        let (pv, sv) = self.replicas[b];
        if pu == pv {
            // Swapping within one cache is a no-op (and the membership
            // guard below would reject it anyway).
            return false;
        }
        let f = self.caches[pu as usize][su as usize];
        let f2 = self.caches[pv as usize][sv as usize];
        if self.members[pu as usize].contains(&f2) || self.members[pv as usize].contains(&f) {
            return false;
        }
        self.caches[pu as usize][su as usize] = f2;
        self.caches[pv as usize][sv as usize] = f;
        self.members[pu as usize].remove(&f);
        self.members[pu as usize].insert(f2);
        self.members[pv as usize].remove(&f2);
        self.members[pv as usize].insert(f);
        self.stats.performed += 1;
        true
    }

    /// Read-only view of the current caches (unsorted).
    pub fn caches(&self) -> &[Vec<FileRef>] {
        &self.caches
    }

    /// Finishes shuffling, returning the caches sorted per peer.
    pub fn into_caches(mut self) -> Vec<Vec<FileRef>> {
        for cache in &mut self.caches {
            cache.sort_unstable();
        }
        self.caches
    }
}

/// Deterministic open-addressed set of `(peer, file)` replica pairs —
/// the arena-backed membership index behind [`ArenaShuffler`].
///
/// Keys are `peer << 32 | file`, hashed with a splitmix-style mixer and
/// probed linearly; deletions use backward-shift so no tombstones
/// accumulate over millions of swaps. The replica count is invariant
/// under swapping, so the table is sized once (2× occupancy, power of
/// two) and never rehashes. Everything is flat `u64`s: no per-peer
/// `HashSet`, no SipHash.
struct PairSet {
    slots: Vec<u64>,
    mask: usize,
}

const PAIR_EMPTY: u64 = u64::MAX;

/// The finalizer of splitmix64 — a full-avalanche mixer, so linear
/// probing sees well-spread hashes even for dense peer/file ids.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl PairSet {
    fn with_capacity(pairs: usize) -> Self {
        let cap = (pairs.max(1) * 2).next_power_of_two().max(16);
        PairSet {
            slots: vec![PAIR_EMPTY; cap],
            mask: cap - 1,
        }
    }

    fn key(peer: u32, file: FileRef) -> u64 {
        ((peer as u64) << 32) | file.0 as u64
    }

    /// The slot `key`'s probe starts at, from its hash `mix64(key)`.
    fn home(&self, hash: u64) -> usize {
        hash as usize & self.mask
    }

    /// Membership of `key`, whose hash the caller computed once.
    fn contains(&self, key: u64, hash: u64) -> bool {
        let mut i = self.home(hash);
        loop {
            let slot = self.slots[i];
            if slot == key {
                return true;
            }
            if slot == PAIR_EMPTY {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn insert(&mut self, key: u64, hash: u64) {
        debug_assert_ne!(key, PAIR_EMPTY);
        let mut i = self.home(hash);
        while self.slots[i] != PAIR_EMPTY {
            debug_assert_ne!(self.slots[i], key, "pair inserted twice");
            i = (i + 1) & self.mask;
        }
        self.slots[i] = key;
    }

    fn remove(&mut self, key: u64, hash: u64) {
        let mut i = self.home(hash);
        while self.slots[i] != key {
            debug_assert_ne!(self.slots[i], PAIR_EMPTY, "removing an absent pair");
            i = (i + 1) & self.mask;
        }
        // Backward-shift deletion: close the hole by moving back any
        // displaced entry whose home slot precedes the hole.
        let mut hole = i;
        let mut j = (i + 1) & self.mask;
        loop {
            let slot = self.slots[j];
            if slot == PAIR_EMPTY {
                break;
            }
            let home = self.home(mix64(slot));
            // `slot` may shift back into the hole only if its home lies
            // outside the (cyclic) range (hole, j].
            let reachable = if hole <= j {
                home <= hole || home > j
            } else {
                home <= hole && home > j
            };
            if reachable {
                self.slots[hole] = slot;
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.slots[hole] = PAIR_EMPTY;
    }
}

/// Asks the CPU to start loading the cache line that holds `value`. A
/// hint only: no program-visible state changes, so it is a no-op
/// off x86_64.
#[inline(always)]
fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` never faults and reads nothing the program
    // can observe; the pointer comes from a live reference regardless.
    // Its SSE requirement is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// Attempts drawn ahead of the one [`ArenaShuffler::run`] applies (a
/// power of two, so the ring index is a mask).
const LOOKAHEAD: usize = 16;

/// Attempts ahead at which [`ArenaShuffler::run`] hashes the pair keys
/// and prefetches their home slots: late enough that the entry lines
/// requested at draw time have arrived, early enough to hide the slot
/// misses. Below `LOOKAHEAD`, so the attempt is already drawn.
const HOME_AHEAD: usize = 8;

const _: () = assert!(LOOKAHEAD.is_power_of_two() && HOME_AHEAD < LOOKAHEAD);

/// One drawn swap attempt in [`ArenaShuffler::run`]'s lookahead ring.
#[derive(Clone, Copy)]
struct Pending {
    /// The two drawn entry positions.
    a: usize,
    b: usize,
    /// Set by [`ArenaShuffler::stage`].
    staged: Option<Staged>,
}

/// What [`ArenaShuffler::stage`] read and hashed ahead of an attempt.
#[derive(Clone, Copy)]
struct Staged {
    /// `files[a]` and `files[b]` when staged.
    files: [FileRef; 2],
    /// `mix64` of the pair keys `(pu, f)`, `(pu, f2)`, `(pv, f)`,
    /// `(pv, f2)` for those entries.
    hashes: [u64; 4],
}

/// The hashes [`Staged::hashes`] holds.
fn pair_hashes(pu: u32, pv: u32, f: FileRef, f2: FileRef) -> [u64; 4] {
    [(pu, f), (pu, f2), (pv, f), (pv, f2)].map(|(p, file)| mix64(PairSet::key(p, file)))
}

/// A cheap, resumable snapshot of an [`ArenaShuffler`]'s progress: the
/// flat replica contents, the swap statistics, and the RNG state.
///
/// Taking one is two flat memcpys (entries + offsets) and a 32-byte RNG
/// clone — no per-peer structures — which is what lets the Fig. 21
/// randomization-decay sweep resume each prefix instead of replaying
/// the whole swap chain from zero.
#[derive(Clone, Debug)]
pub struct ShuffleCheckpoint {
    stats: SwapStats,
    files: Vec<FileRef>,
    offsets: Vec<u32>,
    n_files: usize,
    rng: StdRng,
}

impl ShuffleCheckpoint {
    /// Swap statistics at the checkpoint.
    pub fn stats(&self) -> SwapStats {
        self.stats
    }

    /// Rebuilds a live shuffler (and its RNG) from the checkpoint. The
    /// membership index and replica array are reconstructed in O(N);
    /// continuing the run draws the exact RNG sequence the original
    /// would have drawn, so a resumed run is byte-identical to an
    /// uninterrupted one.
    pub fn resume(&self) -> (ArenaShuffler, StdRng) {
        let mut shuffler =
            ArenaShuffler::from_parts(self.files.clone(), self.offsets.clone(), self.n_files);
        shuffler.stats = self.stats;
        (shuffler, self.rng.clone())
    }
}

/// Arena-backed incremental randomizer: the CSR counterpart of
/// [`Shuffler`].
///
/// Caches live in one flat entry array with a per-peer offset table
/// (rows are unsorted while shuffling, exactly like [`Shuffler`]'s
/// per-cache `Vec`s); membership is a flat open-addressed [`PairSet`]
/// instead of one `HashSet` per peer.
///
/// [`Shuffler`] keeps an explicit replica array of `(peer, slot)` pairs
/// in peer-major order. In CSR layout that array is the identity:
/// replica `i` *is* entry position `i`, with `owner[i]` naming its peer.
/// So a replica draw needs one `owner` load and one `files` load — no
/// `(peer, slot)` tuple, no offset lookup — while remaining the same
/// uniform pick over the same ordering. [`ArenaShuffler::step`] draws
/// the same two `gen_range` calls, so the whole swap chain is
/// byte-identical to the row-path oracle under any seed.
///
/// # Examples
///
/// ```
/// use edonkey_trace::compact::CacheArena;
/// use edonkey_trace::model::FileRef;
/// use edonkey_trace::randomize::{recommended_iterations, ArenaShuffler};
/// use rand::SeedableRng;
///
/// let caches = vec![
///     vec![FileRef(0), FileRef(1)],
///     vec![FileRef(2)],
///     vec![FileRef(0), FileRef(3)],
/// ];
/// let mut shuffler = ArenaShuffler::new(&CacheArena::from_caches(&caches, 4));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// shuffler.run(recommended_iterations(shuffler.replica_count()), &mut rng);
/// assert!(shuffler.stats().attempted > 0);
/// // Generosity is preserved...
/// let shuffled = shuffler.into_arena();
/// assert_eq!(shuffled.cache(0).len(), 2);
/// assert_eq!(shuffled.cache(1).len(), 1);
/// ```
pub struct ArenaShuffler {
    /// Flat cache entries; peer `p`'s row is
    /// `files[offsets[p]..offsets[p + 1]]`, unsorted while shuffling.
    files: Vec<FileRef>,
    /// Row bounds, length `n_peers + 1`.
    offsets: Vec<u32>,
    /// Owning peer of each entry position (the CSR row index, flattened
    /// out so a replica draw is a single load).
    owner: Vec<u32>,
    /// O(1) membership over `(peer, file)` pairs.
    members: PairSet,
    /// Exclusive upper bound of the file-id space.
    n_files: usize,
    stats: SwapStats,
}

impl ArenaShuffler {
    /// Builds an arena shuffler over a packed cache arena.
    ///
    /// # Panics
    ///
    /// Panics if a cache contains a duplicate entry (the arena
    /// constructors already reject that, but adopted CSR parts could
    /// carry one) — replica counts would silently change otherwise.
    pub fn new(arena: &CacheArena) -> Self {
        let (files, offsets) = arena.as_csr_parts();
        Self::from_parts(files.to_vec(), offsets.to_vec(), arena.n_files())
    }

    /// Builds the shuffler from raw CSR parts (rows need not be sorted;
    /// they must be duplicate-free per peer).
    fn from_parts(files: Vec<FileRef>, offsets: Vec<u32>, n_files: usize) -> Self {
        let n_peers = offsets.len() - 1;
        let mut owner = Vec::with_capacity(files.len());
        let mut members = PairSet::with_capacity(files.len());
        for p in 0..n_peers {
            let (lo, hi) = (offsets[p] as usize, offsets[p + 1] as usize);
            for &f in &files[lo..hi] {
                let key = PairSet::key(p as u32, f);
                let hash = mix64(key);
                assert!(
                    !members.contains(key, hash),
                    "peer {p} cache has duplicates"
                );
                members.insert(key, hash);
                owner.push(p as u32);
            }
        }
        ArenaShuffler {
            files,
            offsets,
            owner,
            members,
            n_files,
            stats: SwapStats::default(),
        }
    }

    /// Total number of replicas `N`.
    pub fn replica_count(&self) -> usize {
        self.files.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> SwapStats {
        self.stats
    }

    /// Runs `iterations` swap attempts — the same RNG draw sequence as
    /// [`Shuffler::run`], and the same swaps as `iterations` calls of
    /// [`ArenaShuffler::step`].
    ///
    /// Positions are drawn `LOOKAHEAD` attempts ahead into a ring, so
    /// the entry lines and then the pair-set home slots of later
    /// attempts are in flight while the current one swaps. This is
    /// exact: each draw is one `gen_range` over the fixed replica
    /// count, independent of the swap state, so drawing early yields
    /// the same positions in the same order, and the ring never draws
    /// past the last attempt.
    pub fn run(&mut self, iterations: u64, rng: &mut impl Rng) {
        if self.files.len() < 2 {
            // Nothing can ever swap; still record the attempts.
            self.stats.attempted += iterations;
            return;
        }
        let ahead = |i: u64, by: usize| i + (by as u64) < iterations;
        let primed = iterations.min(LOOKAHEAD as u64) as usize;
        let mut ring = [Pending {
            a: 0,
            b: 0,
            staged: None,
        }; LOOKAHEAD];
        for pending in &mut ring[..primed] {
            *pending = self.draw(rng);
        }
        for pending in &mut ring[..primed.min(HOME_AHEAD)] {
            self.stage(pending);
        }
        for i in 0..iterations {
            let slot = i as usize % LOOKAHEAD;
            if ahead(i, HOME_AHEAD) {
                self.stage(&mut ring[(slot + HOME_AHEAD) % LOOKAHEAD]);
            }
            self.attempt(&ring[slot]);
            if ahead(i, LOOKAHEAD) {
                ring[slot] = self.draw(rng);
            }
        }
    }

    /// Runs one swap attempt; returns whether a swap was performed.
    /// Draw-for-draw and branch-for-branch identical to
    /// [`Shuffler::step`].
    pub fn step(&mut self, rng: &mut impl Rng) -> bool {
        if self.files.len() < 2 {
            self.stats.attempted += 1;
            return false;
        }
        let pending = self.draw(rng);
        self.attempt(&pending)
    }

    /// Draws one attempt's two positions and prefetches their entries.
    /// Uniform position draws are exactly the legacy uniform replica
    /// draws: replica `i` in peer-major order is entry position `i`.
    fn draw(&self, rng: &mut impl Rng) -> Pending {
        let a = rng.gen_range(0..self.files.len());
        let b = rng.gen_range(0..self.files.len());
        for i in [a, b] {
            prefetch(&self.owner[i]);
            prefetch(&self.files[i]);
        }
        Pending { a, b, staged: None }
    }

    /// Hashes a drawn attempt's four pair keys and prefetches their home
    /// slots. Swaps applied before the attempt may still change its
    /// entries; [`ArenaShuffler::attempt`] then hashes afresh.
    fn stage(&self, pending: &mut Pending) {
        let (pu, pv) = (self.owner[pending.a], self.owner[pending.b]);
        if pu == pv {
            return;
        }
        let files = [self.files[pending.a], self.files[pending.b]];
        let hashes = pair_hashes(pu, pv, files[0], files[1]);
        for hash in hashes {
            prefetch(&self.members.slots[self.members.home(hash)]);
        }
        pending.staged = Some(Staged { files, hashes });
    }

    /// Applies one attempt: the swap rule of [`Shuffler::step`], with
    /// each pair key hashed once.
    fn attempt(&mut self, pending: &Pending) -> bool {
        self.stats.attempted += 1;
        let (a, b) = (pending.a, pending.b);
        let (pu, pv) = (self.owner[a], self.owner[b]);
        if pu == pv {
            return false;
        }
        let (f, f2) = (self.files[a], self.files[b]);
        let [h_uf, h_uf2, h_vf, h_vf2] = match pending.staged {
            Some(staged) if staged.files == [f, f2] => staged.hashes,
            _ => pair_hashes(pu, pv, f, f2),
        };
        let key = PairSet::key;
        if self.members.contains(key(pu, f2), h_uf2) || self.members.contains(key(pv, f), h_vf) {
            return false;
        }
        self.files[a] = f2;
        self.files[b] = f;
        self.members.remove(key(pu, f), h_uf);
        self.members.insert(key(pu, f2), h_uf2);
        self.members.remove(key(pv, f2), h_vf2);
        self.members.insert(key(pv, f), h_vf);
        self.stats.performed += 1;
        true
    }

    /// Captures a resumable checkpoint of the current state, pairing the
    /// cache contents with the caller's RNG state.
    pub fn checkpoint(&self, rng: &StdRng) -> ShuffleCheckpoint {
        ShuffleCheckpoint {
            stats: self.stats,
            files: self.files.clone(),
            offsets: self.offsets.clone(),
            n_files: self.n_files,
            rng: rng.clone(),
        }
    }

    /// Packs the current caches into a fresh [`CacheArena`] (rows
    /// sorted), leaving the shuffler free to keep running — the
    /// per-checkpoint snapshot of the randomization sweep.
    pub fn snapshot_arena(&self) -> CacheArena {
        let mut files = self.files.clone();
        for w in self.offsets.windows(2) {
            files[w[0] as usize..w[1] as usize].sort_unstable();
        }
        // Swaps only permute entries between already-validated rows, so
        // the parts stay a valid CSR; skip the revalidation pass.
        CacheArena::from_csr_parts_trusted(files, self.offsets.clone(), self.n_files)
    }

    /// Finishes shuffling, returning the packed arena (rows sorted).
    pub fn into_arena(self) -> CacheArena {
        self.snapshot_arena()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::HashMap;

    /// The row oracle's full randomization: the paper's recommended
    /// iteration count, then the sorted caches and the run statistics.
    fn randomize_caches(
        caches: Vec<Vec<FileRef>>,
        rng: &mut StdRng,
    ) -> (Vec<Vec<FileRef>>, SwapStats) {
        let mut shuffler = Shuffler::new(caches);
        shuffler.run(recommended_iterations(shuffler.replica_count()), rng);
        let stats = shuffler.stats();
        (shuffler.into_caches(), stats)
    }

    fn replica_histogram(caches: &[Vec<FileRef>]) -> HashMap<FileRef, usize> {
        let mut h = HashMap::new();
        for cache in caches {
            for &f in cache {
                *h.entry(f).or_insert(0) += 1;
            }
        }
        h
    }

    fn test_caches() -> Vec<Vec<FileRef>> {
        // 20 peers, caches of varying sizes over 30 files, plus free-riders.
        let mut caches = Vec::new();
        for p in 0..20u32 {
            if p % 5 == 4 {
                caches.push(Vec::new());
                continue;
            }
            let size = 1 + (p % 7) as usize;
            let cache: Vec<FileRef> = (0..size)
                .map(|k| FileRef(((p as usize * 3 + k * 5) % 30) as u32))
                .collect();
            let mut cache = cache;
            cache.sort_unstable();
            cache.dedup();
            caches.push(cache);
        }
        caches
    }

    #[test]
    fn preserves_generosity_and_popularity() {
        let caches = test_caches();
        let sizes: Vec<usize> = caches.iter().map(Vec::len).collect();
        let popularity = replica_histogram(&caches);
        let mut rng = StdRng::seed_from_u64(42);
        let (shuffled, stats) = randomize_caches(caches, &mut rng);
        assert_eq!(shuffled.iter().map(Vec::len).collect::<Vec<_>>(), sizes);
        assert_eq!(replica_histogram(&shuffled), popularity);
        assert!(stats.performed > 0);
        assert!(stats.performed <= stats.attempted);
    }

    #[test]
    fn caches_stay_duplicate_free() {
        let caches = test_caches();
        let mut rng = StdRng::seed_from_u64(1);
        let (shuffled, _) = randomize_caches(caches, &mut rng);
        for cache in &shuffled {
            let set: HashSet<FileRef> = cache.iter().copied().collect();
            assert_eq!(set.len(), cache.len());
            // into_caches sorts.
            assert!(cache.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn actually_destroys_structure() {
        // Two tight communities sharing disjoint file sets; after full
        // randomization, cross-community replicas must appear.
        let mut caches = Vec::new();
        for p in 0..10u32 {
            let base = if p < 5 { 0 } else { 100 };
            caches.push((0..10).map(|k| FileRef(base + ((p + k) % 20))).collect());
        }
        let mut rng = StdRng::seed_from_u64(3);
        let (shuffled, _) = randomize_caches(caches, &mut rng);
        let mixed = shuffled[..5]
            .iter()
            .flatten()
            .filter(|f| f.0 >= 100)
            .count();
        assert!(
            mixed > 5,
            "expected cross-community files after shuffling, got {mixed}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let (a, _) = randomize_caches(test_caches(), &mut rng1);
        let (b, _) = randomize_caches(test_caches(), &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let (empty, stats) = randomize_caches(vec![], &mut rng);
        assert!(empty.is_empty());
        assert_eq!(stats.performed, 0);
        // One replica total: nothing can swap.
        let (one, stats) = randomize_caches(vec![vec![FileRef(1)], vec![]], &mut rng);
        assert_eq!(one, vec![vec![FileRef(1)], vec![]]);
        assert_eq!(stats.performed, 0);
    }

    #[test]
    #[should_panic(expected = "duplicates")]
    fn duplicate_cache_entries_rejected() {
        let _ = Shuffler::new(vec![vec![FileRef(1), FileRef(1)]]);
    }

    #[test]
    fn step_reports_swap_outcome() {
        let mut shuffler = Shuffler::new(vec![vec![FileRef(0)], vec![FileRef(1)]]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut swapped = false;
        for _ in 0..50 {
            swapped |= shuffler.step(&mut rng);
        }
        assert!(swapped);
        let caches = shuffler.into_caches();
        let all: Vec<FileRef> = caches.into_iter().flatten().collect();
        let set: HashSet<_> = all.iter().copied().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn recommended_iterations_monotone() {
        let mut prev = 0;
        for n in [0usize, 1, 2, 10, 100, 1000, 10_000] {
            let it = recommended_iterations(n);
            assert!(it >= prev);
            prev = it;
        }
    }

    #[test]
    fn pair_set_insert_contains_remove() {
        let pair = |p: u32, f: u32| {
            let key = PairSet::key(p, FileRef(f));
            (key, mix64(key))
        };
        let mut set = PairSet::with_capacity(8);
        for p in 0..4u32 {
            for f in 0..2u32 {
                let (key, hash) = pair(p, f);
                set.insert(key, hash);
            }
        }
        let contains = |set: &PairSet, p, f| {
            let (key, hash) = pair(p, f);
            set.contains(key, hash)
        };
        for p in 0..4u32 {
            assert!(contains(&set, p, 0));
            assert!(contains(&set, p, 1));
            assert!(!contains(&set, p, 2));
        }
        let (key, hash) = pair(2, 1);
        set.remove(key, hash);
        assert!(!contains(&set, 2, 1));
        assert!(contains(&set, 2, 0));
        // Re-insert after a backward-shift deletion still resolves.
        set.insert(key, hash);
        assert!(contains(&set, 2, 1));
    }

    #[test]
    fn arena_shuffler_draws_identically_to_row_shuffler() {
        let caches = test_caches();
        let n_files = 30;
        let mut row = Shuffler::new(caches.clone());
        let mut csr = ArenaShuffler::new(&CacheArena::from_caches(&caches, n_files));
        let mut rng_row = StdRng::seed_from_u64(0xDEC0);
        let mut rng_csr = StdRng::seed_from_u64(0xDEC0);
        for _ in 0..500 {
            assert_eq!(csr.step(&mut rng_csr), row.step(&mut rng_row));
        }
        assert_eq!(csr.stats(), row.stats());
        // Both RNGs must sit at the same point in the stream.
        assert_eq!(rng_row.next_u64(), rng_csr.next_u64());
        let row_caches = row.into_caches();
        assert_eq!(csr.into_arena().to_caches(), row_caches);
    }

    #[test]
    fn arena_shuffler_run_matches_randomize_caches() {
        let caches = test_caches();
        let mut rng_row = StdRng::seed_from_u64(7);
        let (row_caches, row_stats) = randomize_caches(caches.clone(), &mut rng_row);
        let mut csr = ArenaShuffler::new(&CacheArena::from_caches(&caches, 30));
        let mut rng_csr = StdRng::seed_from_u64(7);
        csr.run(recommended_iterations(csr.replica_count()), &mut rng_csr);
        assert_eq!(csr.stats(), row_stats);
        assert_eq!(csr.into_arena().to_caches(), row_caches);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let caches = test_caches();
        let arena = CacheArena::from_caches(&caches, 30);

        // Uninterrupted: 800 swaps in one go.
        let mut full = ArenaShuffler::new(&arena);
        let mut rng = StdRng::seed_from_u64(99);
        full.run(800, &mut rng);

        // Interrupted: 300 swaps, checkpoint, drop the shuffler, resume
        // 500 (the resumed generator shadows the spent one).
        let mut prefix = ArenaShuffler::new(&arena);
        let mut rng = StdRng::seed_from_u64(99);
        prefix.run(300, &mut rng);
        let ckpt = prefix.checkpoint(&rng);
        drop(prefix);
        let (mut resumed, mut rng) = ckpt.resume();
        assert_eq!(resumed.stats().attempted, 300);
        resumed.run(500, &mut rng);

        assert_eq!(resumed.stats(), full.stats());
        assert_eq!(
            resumed.snapshot_arena().to_caches(),
            full.snapshot_arena().to_caches()
        );
    }

    /// `run(n)` against `n` calls of `step()` at every edge of the
    /// lookahead ring, and split as `run(k); run(n - k)`: same stats,
    /// same caches, same next RNG word. A ring that draws past `n`, or
    /// draws at all on an arena with fewer than two replicas, moves the
    /// RNG; a stale staged hash moves the caches.
    #[test]
    fn run_equals_steps_at_every_lookahead_edge() {
        // About 1k replicas over 60 peers (free-riders included).
        let large: Vec<Vec<FileRef>> = (0..60u32)
            .map(|p| {
                let size = if p % 7 == 3 {
                    0
                } else {
                    1 + (p * 13 % 37) as usize
                };
                let mut cache: Vec<FileRef> = (0..size)
                    .map(|k| FileRef((p * 17 + k as u32 * 29) % 400))
                    .collect();
                cache.sort_unstable();
                cache.dedup();
                cache
            })
            .collect();
        let f = |ids: &[u32]| ids.iter().map(|&i| FileRef(i)).collect::<Vec<_>>();
        let overlapping = [
            f(&[0, 1, 2]),
            f(&[1, 2, 3]),
            f(&[2, 3, 4]),
            f(&[0, 4]),
            f(&[1]),
        ];
        let arenas = [
            CacheArena::from_caches(&[vec![], vec![]], 1),
            CacheArena::from_caches(&[vec![FileRef(0)], vec![]], 1),
            CacheArena::from_caches(&[vec![FileRef(0)], vec![FileRef(1)]], 2),
            // A dozen replicas over five files: swaps keep changing the
            // entries staged for the next attempts, and the membership
            // checks reject often.
            CacheArena::from_caches(&overlapping, 5),
            CacheArena::from_caches(&large, 400),
        ];
        assert!((900..1100).contains(&arenas[4].as_csr_parts().0.len()));
        let w = LOOKAHEAD as u64;
        let d = HOME_AHEAD as u64;
        let lengths = [0, 1, d - 1, d, d + 1, w - 1, w, w + 1, 3 * w + 5, 1000];
        let finish = |s: ArenaShuffler, mut rng: StdRng| {
            (s.stats(), s.snapshot_arena().to_caches(), rng.next_u64())
        };
        for (case, arena) in arenas.iter().enumerate() {
            for n in lengths {
                let mut stepped = ArenaShuffler::new(arena);
                let mut rng = StdRng::seed_from_u64(case as u64);
                for _ in 0..n {
                    stepped.step(&mut rng);
                }
                let expect = finish(stepped, rng);
                for k in [n, 0, 1.min(n), n / 2, n.saturating_sub(w + 1)] {
                    let mut run = ArenaShuffler::new(arena);
                    let mut rng = StdRng::seed_from_u64(case as u64);
                    run.run(k, &mut rng);
                    run.run(n - k, &mut rng);
                    assert_eq!(finish(run, rng), expect, "arena {case}, n {n}, split {k}");
                }
            }
        }
    }

    #[test]
    fn arena_shuffler_degenerate_inputs() {
        // Fewer than two replicas: attempts are counted, RNG untouched.
        let arena = CacheArena::from_caches(&[vec![FileRef(0)], vec![]], 1);
        let mut s = ArenaShuffler::new(&arena);
        let mut rng = StdRng::seed_from_u64(3);
        s.run(10, &mut rng);
        let stats = s.stats();
        assert_eq!(stats.attempted, 10);
        assert_eq!(stats.performed, 0);
        let mut fresh = StdRng::seed_from_u64(3);
        assert_eq!(rng.next_u64(), fresh.next_u64());
        assert_eq!(s.into_arena().to_caches(), vec![vec![FileRef(0)], vec![]]);
    }
}

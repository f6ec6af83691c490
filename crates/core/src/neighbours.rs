//! Semantic-neighbour lists: LRU, History, Random and rare-file LRU.
//!
//! Each peer maintains a short list of *semantic neighbours* — peers that
//! uploaded files to it — and queries them first on every search
//! (Section 5.2). One [`NeighbourList`] type serves every policy, picked
//! by its [`PolicyKind`]:
//!
//! * **LRU**: the most recent uploader moves to the head; the tail is
//!   evicted at capacity. One parameter: the list length.
//! * **History** (frequency-based, [Voulgaris et al.]): counts successful
//!   uploads per peer and keeps the highest counters.
//! * **Random**: the benchmark — a list of uniformly random peers.
//! * **RareLRU**: LRU that records only rare-file uploads — the
//!   "popularity" algorithm of Section 5.3.2.
//!
//! A list keeps one slot per listed peer, linked in list order, and
//! finds a peer's slot through an index, so a membership test, an LRU
//! record and a removal each cost O(1), and only History's rank walk
//! visits entries. The index is hashed in lists held one per peer; a
//! list pooled across the queriers of one population indexes an array
//! over its peers instead ([`NeighbourList::with_peer_array`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use rand::Rng;

/// A peer index in the simulation (dense, like `edonkey_trace::PeerId`).
pub type Peer = u32;

/// Membership delta of one [`NeighbourList::record`]: `(added, removed)`.
pub type Delta = (Option<Peer>, Option<Peer>);

/// Multiply-shift hashing for [`Peer`] keys: one multiply by the golden
/// ratio, the high half folded into the low bits the table indexes by.
/// A per-peer list's index is probed on every record and staleness
/// reaction, where SipHash cost more than the lookups it guards. Peers
/// are dense indices the simulator assigns, not values an input can
/// pick to collide, and nothing iterates these maps, so the hash never
/// reaches an output.
#[derive(Clone, Copy, Debug, Default)]
struct PeerHasher(u64);

impl Hasher for PeerHasher {
    /// Only `write_u32` sees `Peer` keys; other input folds bytewise.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32((self.0 as u32) << 8 | u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        let h = u64::from(n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type PeerMap<V> = HashMap<Peer, V, BuildHasherDefault<PeerHasher>>;

/// The end of a slot chain, and "not listed" in a peer array.
const NIL: u32 = u32::MAX;

/// History's sort key packs `(upload count, clock of the last upload)`
/// into one integer, count in the high half: comparing keys compares
/// counts, then recency. 0 is the key of a peer that never uploaded.
const CLOCK_BITS: u64 = 0xffff_ffff;

/// One listed peer and its neighbours in list order.
#[derive(Clone, Copy, Debug)]
struct Slot {
    peer: Peer,
    prev: u32,
    next: u32,
}

/// Where a list finds each listed peer's slot.
#[derive(Clone, Debug)]
enum SlotIndex {
    /// A hash map, in proportion to the entries: lists held one per peer.
    Hashed(PeerMap<u32>),
    /// An array over peers `0..n`, `NIL` where unlisted: one list pooled
    /// across the queriers of a population.
    Array(Vec<u32>),
}

impl SlotIndex {
    #[inline]
    fn get(&self, peer: Peer) -> Option<u32> {
        match self {
            SlotIndex::Hashed(slots) => slots.get(&peer).copied(),
            SlotIndex::Array(slots) => Some(slots[peer as usize]).filter(|&s| s != NIL),
        }
    }

    #[inline]
    fn set(&mut self, peer: Peer, slot: u32) {
        match self {
            SlotIndex::Hashed(slots) => {
                slots.insert(peer, slot);
            }
            SlotIndex::Array(slots) => slots[peer as usize] = slot,
        }
    }

    #[inline]
    fn unset(&mut self, peer: Peer) {
        match self {
            SlotIndex::Hashed(slots) => {
                slots.remove(&peer);
            }
            SlotIndex::Array(slots) => slots[peer as usize] = NIL,
        }
    }
}

/// How a list reacted to a *stale* neighbour — one whose query timed
/// out because the peer is offline (see `edonkey_workload::churn`).
/// Each policy has a defined reaction, applied by
/// [`NeighbourList::handle_stale`]:
///
/// * LRU / RareLRU **evict** the entry (recency information is dead);
/// * History **probes**: the counter is halved and the entry demoted,
///   so a flaky uploader must re-earn its rank;
/// * Random **replaces** the slot from the sharer pool (the list is
///   semantics-free, so any peer is as good as any other).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaleReaction {
    /// The entry was removed.
    Evicted,
    /// The entry was removed and a replacement inserted.
    Replaced,
    /// The entry was kept but demoted (History's probe).
    Probed,
    /// No structural change (the peer was not a list member, or no
    /// valid replacement existed).
    Kept,
}

/// Which policy a [`NeighbourList`] follows — the simulator's
/// configuration surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used (the paper's main policy).
    Lru,
    /// Frequency-based.
    History,
    /// Random benchmark.
    Random,
    /// LRU that only records rare-file uploads (at most this many
    /// sources at download time).
    RareLru {
        /// Source-count cutoff for "rare".
        max_sources: u32,
    },
}

impl PolicyKind {
    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::History => "History",
            PolicyKind::Random => "Random",
            PolicyKind::RareLru { .. } => "RareLRU",
        }
    }
}

/// One peer's semantic-neighbour list under its [`PolicyKind`].
///
/// The list is ordered highest priority first: most recent uploader
/// first (LRU kinds), by `(upload count, recency)` descending (History,
/// ties going to the newer uploader so the early simulation does not
/// ossify on arbitrary first-comers), or in draw order (Random, which
/// never adapts: the benchmark's list carries no semantic information).
/// History's counts and clock are 32-bit: a list records fewer than 2³²
/// uploads.
///
/// # Examples
///
/// ```
/// use edonkey_semsearch::neighbours::{NeighbourList, PolicyKind};
///
/// let mut lru = NeighbourList::from_drawn(PolicyKind::Lru, 2, 0, &[]);
/// lru.record(7, 1);
/// lru.record(8, 1);
/// lru.record(7, 1); // moves 7 back to the head
/// assert_eq!(lru.to_vec(), [7, 8]);
/// assert_eq!(lru.record(9, 1), (Some(9), Some(8))); // evicts the LRU tail
/// assert_eq!(lru.to_vec(), [9, 7]);
///
/// let mut history = NeighbourList::from_drawn(PolicyKind::History, 2, 0, &[]);
/// for uploader in [1, 2, 2, 3] {
///     history.record(uploader, 1); // 3 ties with 1 at count 1: newer wins
/// }
/// assert_eq!(history.to_vec(), [2, 3]);
///
/// let rare = PolicyKind::RareLru { max_sources: 3 };
/// let mut rare = NeighbourList::from_drawn(rare, 2, 0, &[]);
/// rare.record(7, 2); // rare: recorded
/// rare.record(8, 50); // popular: ignored
/// assert_eq!(rare.to_vec(), [7]);
/// ```
#[derive(Clone, Debug)]
pub struct NeighbourList {
    kind: PolicyKind,
    capacity: usize,
    /// The peer keeping the list; a Random list never holds it.
    owner: Peer,
    /// One slot per listed peer, in no particular order (a removal moves
    /// the last slot into the hole); `head`, `tail` and the slots'
    /// links give the list order.
    slots: Vec<Slot>,
    /// History: each slot's key, read by the rank walk beside the links.
    slot_keys: Vec<u64>,
    head: u32,
    tail: u32,
    index: SlotIndex,
    /// History: the key of every peer ever recorded (the "history").
    keys: PeerMap<u64>,
    /// History: logical clock for recency tie-breaks.
    clock: u32,
}

impl NeighbourList {
    /// A fresh list for `owner`: empty for the adaptive kinds; for
    /// Random, up to `capacity` distinct peers drawn from `candidates`
    /// (e.g. all sharers), never `owner`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(
        kind: PolicyKind,
        capacity: usize,
        owner: Peer,
        candidates: &[Peer],
        rng: &mut impl Rng,
    ) -> Self {
        let mut fresh = Self::from_drawn(kind, capacity, owner, &[]);
        fresh.renew(kind, capacity, owner, candidates, rng);
        fresh
    }

    /// The list `owner` starts a replay with, with no RNG: empty for
    /// the adaptive kinds, and for Random the `drawn` list its
    /// [`NeighbourList::new`] construction drew (distinct peers, never
    /// the owner, in draw order). The split and serving replays
    /// construct lists this way, from the lists drawn up front
    /// (`sim::DrawnLists`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn from_drawn(kind: PolicyKind, capacity: usize, owner: Peer, drawn: &[Peer]) -> Self {
        let mut fresh = NeighbourList {
            kind,
            capacity,
            owner,
            slots: Vec::new(),
            slot_keys: Vec::new(),
            head: NIL,
            tail: NIL,
            index: SlotIndex::Hashed(PeerMap::default()),
            keys: PeerMap::default(),
            clock: 0,
        };
        fresh.renew_drawn(kind, capacity, owner, drawn);
        fresh
    }

    /// The same list, its slots indexed by an array over peers
    /// `0..n_peers` instead of a hash map: the layout of one list pooled
    /// across the queriers of a population and renewed per querier,
    /// whose array costs O(`n_peers`) once rather than per list. It
    /// behaves exactly as the hashed list does.
    ///
    /// # Panics
    ///
    /// Panics if the list holds, or is later handed, a peer at or above
    /// `n_peers`.
    pub fn with_peer_array(mut self, n_peers: usize) -> Self {
        let mut slots = vec![NIL; n_peers];
        for (slot, s) in self.slots.iter().zip(0..) {
            slots[slot.peer as usize] = s;
        }
        self.index = SlotIndex::Array(slots);
        self
    }

    /// Re-initializes this list in place to exactly the state
    /// [`NeighbourList::new`] would produce with the same arguments —
    /// including the RNG draw sequence of a Random list — keeping the
    /// allocations. This is what lets a sweep worker keep one pooled
    /// list (or one pooled per-peer vector) across runs instead of
    /// allocating per peer per cell.
    pub fn renew(
        &mut self,
        kind: PolicyKind,
        capacity: usize,
        owner: Peer,
        candidates: &[Peer],
        rng: &mut impl Rng,
    ) {
        self.clear(kind, capacity, owner);
        if kind == PolicyKind::Random {
            draw_random_list(capacity, owner, candidates, rng, |pick| {
                let fresh = !self.contains(pick);
                if fresh {
                    self.push_back(pick);
                }
                fresh
            });
        }
    }

    /// [`NeighbourList::from_drawn`] in place, keeping the allocations.
    pub fn renew_drawn(&mut self, kind: PolicyKind, capacity: usize, owner: Peer, drawn: &[Peer]) {
        self.clear(kind, capacity, owner);
        if kind == PolicyKind::Random {
            // Draw order is list order: slot `s` links to `s ± 1`.
            let n = drawn.len() as u32;
            for (&peer, s) in drawn.iter().zip(0..) {
                let prev = if s == 0 { NIL } else { s - 1 };
                let next = if s + 1 == n { NIL } else { s + 1 };
                self.slots.push(Slot { peer, prev, next });
                self.index.set(peer, s);
            }
            if n > 0 {
                (self.head, self.tail) = (0, n - 1);
            }
        }
    }

    /// Empties the list and forgets every counter.
    fn clear(&mut self, kind: PolicyKind, capacity: usize, owner: Peer) {
        assert!(capacity > 0, "neighbour list capacity must be positive");
        self.kind = kind;
        self.capacity = capacity;
        self.owner = owner;
        match &mut self.index {
            SlotIndex::Hashed(slots) => slots.clear(),
            SlotIndex::Array(slots) => self.slots.iter().for_each(|s| slots[s.peer as usize] = NIL),
        }
        self.keys.clear();
        self.slots.clear();
        self.slot_keys.clear();
        self.head = NIL;
        self.tail = NIL;
        self.clock = 0;
    }

    /// Records a successful upload received *from* `uploader` of a file
    /// that had `sources` sources at download time, and reports the
    /// membership delta — the hook the sweeps' interval-based message
    /// accounting needs to know when a peer enters or leaves the list
    /// without re-walking it.
    ///
    /// LRU moves `uploader` to the head, evicting the tail at capacity;
    /// RareLRU does the same for uploads of at most `max_sources`
    /// sources and ignores the rest. History bumps the uploader's
    /// counter and recency even when the list rejects it — rejection
    /// only skips the *list* change — and admits a newcomer over the
    /// tail only if it now outranks it. A Random list never changes.
    #[inline(always)]
    pub fn record(&mut self, uploader: Peer, sources: u32) -> Delta {
        match self.kind {
            PolicyKind::Lru => self.record_recent(uploader),
            PolicyKind::RareLru { max_sources } if sources <= max_sources => {
                self.record_recent(uploader)
            }
            PolicyKind::History => self.record_frequent(uploader),
            PolicyKind::Random | PolicyKind::RareLru { .. } => (None, None),
        }
    }

    #[inline(always)]
    fn record_recent(&mut self, uploader: Peer) -> Delta {
        if let Some(s) = self.index.get(uploader) {
            if s != self.head {
                self.unlink(s);
                self.link_before(s, self.head);
            }
            return (None, None);
        }
        if self.slots.len() < self.capacity {
            let s = self.alloc(uploader);
            self.link_before(s, self.head);
            return (Some(uploader), None);
        }
        let s = self.tail;
        let evicted = self.reassign(s, uploader);
        self.link_before(s, self.head);
        (Some(uploader), Some(evicted))
    }

    /// Out of line, so that [`NeighbourList::record`] stays small
    /// enough to inline into the replay loops.
    #[inline(never)]
    fn record_frequent(&mut self, uploader: Peer) -> Delta {
        self.clock += 1;
        let key = self.keys.entry(uploader).or_insert(0);
        *key = ((*key >> 32) + 1) << 32 | u64::from(self.clock);
        let key = *key;
        if let Some(s) = self.index.get(uploader) {
            // Re-sort its position upward.
            self.slot_keys[s as usize] = key;
            self.unlink(s);
            self.link_ranked(s);
            return (None, None);
        }
        if self.slots.len() < self.capacity {
            let s = self.alloc(uploader);
            self.slot_keys.push(key);
            self.link_ranked(s);
            return (Some(uploader), None);
        }
        // Replace the tail only if the newcomer now outranks it.
        let s = self.tail;
        if key <= self.slot_keys[s as usize] {
            return (None, None);
        }
        let evicted = self.reassign(s, uploader);
        self.slot_keys[s as usize] = key;
        self.link_ranked(s);
        (Some(uploader), Some(evicted))
    }

    /// A new, unlinked slot for `peer`.
    #[inline(always)]
    fn alloc(&mut self, peer: Peer) -> u32 {
        let s = self.slots.len() as u32;
        self.slots.push(Slot {
            peer,
            prev: NIL,
            next: NIL,
        });
        self.index.set(peer, s);
        s
    }

    /// Unlinks slot `s` and hands it to `peer`; returns its old peer.
    #[inline(always)]
    fn reassign(&mut self, s: u32, peer: Peer) -> Peer {
        self.unlink(s);
        let old = std::mem::replace(&mut self.slots[s as usize].peer, peer);
        self.index.unset(old);
        self.index.set(peer, s);
        old
    }

    /// Appends `peer` at the tail.
    fn push_back(&mut self, peer: Peer) {
        let s = self.alloc(peer);
        self.link_before(s, NIL);
    }

    /// Links unlinked slot `s` just ahead of slot `at` (at the tail when
    /// `at` is `NIL`).
    #[inline(always)]
    fn link_before(&mut self, s: u32, at: u32) {
        let prev = if at == NIL {
            self.tail
        } else {
            self.slots[at as usize].prev
        };
        let slot = &mut self.slots[s as usize];
        (slot.prev, slot.next) = (prev, at);
        self.point_at(s);
    }

    /// Points slot `s`'s neighbours — or the list's ends — at `s`.
    #[inline(always)]
    fn point_at(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = s,
            p => self.slots[p as usize].next = s,
        }
        match next {
            NIL => self.tail = s,
            n => self.slots[n as usize].prev = s,
        }
    }

    #[inline(always)]
    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links unlinked slot `s` ahead of the first entry it outranks
    /// (History).
    fn link_ranked(&mut self, s: u32) {
        let key = self.slot_keys[s as usize];
        let mut at = self.head;
        while at != NIL && self.slot_keys[at as usize] >= key {
            at = self.slots[at as usize].next;
        }
        self.link_before(s, at);
    }

    /// Removes `peer` from the list; returns whether it was a member.
    /// The last slot moves into the freed one.
    fn evict(&mut self, peer: Peer) -> bool {
        let Some(s) = self.index.get(peer) else {
            return false;
        };
        self.unlink(s);
        self.index.unset(peer);
        self.slots.swap_remove(s as usize);
        if !self.slot_keys.is_empty() {
            self.slot_keys.swap_remove(s as usize);
        }
        if let Some(moved) = self.slots.get(s as usize) {
            self.index.set(moved.peer, s);
            self.point_at(s);
        }
        true
    }

    /// Random's reaction: the entry is removed and — the list being
    /// semantics-free — refilled with `replacement` when one is offered
    /// and valid (not the owner, not already listed). `replacement` is
    /// ignored unless `stale` was a member.
    fn replace(&mut self, stale: Peer, replacement: Option<Peer>) -> StaleReaction {
        if !self.evict(stale) {
            return StaleReaction::Kept;
        }
        match replacement {
            Some(r) if r != self.owner && !self.contains(r) => {
                self.push_back(r);
                StaleReaction::Replaced
            }
            _ => StaleReaction::Evicted,
        }
    }

    /// Applies the policy's staleness reaction (see [`StaleReaction`])
    /// to a timed-out neighbour. History's probe halves the upload
    /// counter and re-sorts the entry, so it must re-earn its rank but
    /// its history is not erased. `replacement` is only consulted by
    /// Random lists; pass `None` for the others (a deterministic draw
    /// from the sharer pool — never the simulation's main RNG —
    /// supplies it).
    pub fn handle_stale(&mut self, stale: Peer, replacement: Option<Peer>) -> StaleReaction {
        match self.kind {
            PolicyKind::Random => self.replace(stale, replacement),
            PolicyKind::History => {
                let Some(s) = self.index.get(stale) else {
                    return StaleReaction::Kept;
                };
                let key = self.slot_keys[s as usize];
                let key = ((key >> 32) / 2) << 32 | (key & CLOCK_BITS);
                self.slot_keys[s as usize] = key;
                self.keys.insert(stale, key);
                self.unlink(s);
                self.link_ranked(s);
                StaleReaction::Probed
            }
            PolicyKind::Lru | PolicyKind::RareLru { .. } => {
                if self.evict(stale) {
                    StaleReaction::Evicted
                } else {
                    StaleReaction::Kept
                }
            }
        }
    }

    /// Hard-removes a neighbour whose reputation collapsed (see
    /// [`ReputationBook`]). Unlike the staleness reaction — which may
    /// merely demote (History) — every policy drops the peer outright:
    /// the defense only fires on members that were *recorded through an
    /// attack* and then answered nothing, and a demotion would leave
    /// the captured slot in place. History also erases the peer's
    /// counter and recency, so re-admission must be earned from zero: a
    /// flaky-but-honest uploader keeps (half) its history, an exposed
    /// adversary keeps nothing — otherwise its inflated counter would
    /// re-admit it on the very next hijacked record. `replacement` is
    /// only consulted by Random lists (as in
    /// [`NeighbourList::handle_stale`]). Returns whether `peer` was
    /// listed.
    pub fn expel(&mut self, peer: Peer, replacement: Option<Peer>) -> bool {
        match self.kind {
            PolicyKind::Random => self.replace(peer, replacement) != StaleReaction::Kept,
            PolicyKind::History => {
                let member = self.evict(peer);
                if member {
                    self.keys.remove(&peer);
                }
                member
            }
            PolicyKind::Lru | PolicyKind::RareLru { .. } => self.evict(peer),
        }
    }

    /// The current neighbour list, highest priority first.
    pub fn neighbours(&self) -> impl Iterator<Item = Peer> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            // `NIL` indexes past the slots and ends the walk.
            let slot = self.slots.get(at as usize)?;
            at = slot.next;
            Some(slot.peer)
        })
    }

    /// [`NeighbourList::neighbours`], collected into one allocation.
    pub fn to_vec(&self) -> Vec<Peer> {
        let mut list = Vec::with_capacity(self.len());
        list.extend(self.neighbours());
        list
    }

    /// The listed peers in no particular order: what a caller that only
    /// needs the member set walks, without following the links.
    pub(crate) fn members(&self) -> impl Iterator<Item = Peer> + '_ {
        self.slots.iter().map(|s| s.peer)
    }

    /// How many peers are listed.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff no peer is listed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// O(1) membership test.
    pub fn contains(&self, peer: Peer) -> bool {
        self.index.get(peer).is_some()
    }

    /// The configured maximum list length.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The Random list's construction draw: rejection-samples `candidates`
/// for up to `capacity` distinct peers other than `owner`, handing each
/// non-owner pick to `admit`, which keeps it and returns `true` unless
/// it was drawn before. Candidate pools are far larger than lists in
/// every experiment, so this terminates fast; a guard bounds it anyway.
pub(crate) fn draw_random_list(
    capacity: usize,
    owner: Peer,
    candidates: &[Peer],
    rng: &mut impl Rng,
    mut admit: impl FnMut(Peer) -> bool,
) {
    let target = capacity.min(candidates.len().saturating_sub(1));
    let (mut drawn, mut guard) = (0usize, 0usize);
    while drawn < target && guard < 100 * capacity + 1000 {
        guard += 1;
        let pick = candidates[rng.gen_range(0..candidates.len())];
        if pick != owner && admit(pick) {
            drawn += 1;
        }
    }
}

/// How many broken promises a suspect survives before the defense
/// expels it (see [`ReputationBook::on_query`]). Suspicion only ever
/// attaches to adversarially recorded peers, so the probation window
/// is short: it exists to absorb coincidence (a genuinely recorded
/// peer sharing a suspect's identity is redeemed on its next upload),
/// not to hedge against honest false positives.
const REPUTATION_FIRE_AT: u32 = 3;

/// One querier's reputation ledger over its *suspect* neighbours — the
/// eDonkey-shaped defense against slot capture (DESIGN.md §12).
///
/// A suspect is a neighbour whose recording the querier has reason to
/// distrust: the download it was recorded for failed content
/// verification (pollution — eDonkey hashes every chunk) or arrived
/// from someone else entirely (a sybil impersonation). Suspicion is
/// probation, not proof: the entry stays listed, but every subsequent
/// query it leaves unanswered raises a *promised-but-never-served*
/// score — decayed exponentially (`p - p/8 + 1`) so old sins fade —
/// and at `REPUTATION_FIRE_AT` the defense fires: the slot is
/// hard-reclaimed ([`NeighbourList::expel`]) and the peer is *banned* —
/// the querier refuses to ever record it again. The ban is the real
/// defense: expulsion alone barely moves the hit rate, because an
/// attacker re-enters the list at the same capture rate it entered the
/// first time; refusing re-admission is what starves it out. A suspect
/// that genuinely serves an upload first is redeemed and leaves the
/// book unbanned.
///
/// Only suspects are ever tracked: an honest run inserts nothing,
/// consumes no RNG, and is bit-identical with the defense armed or
/// not — the property `bench_report`'s `honest_defense_noop` gate
/// pins.
#[derive(Clone, Debug, Default)]
pub struct ReputationBook {
    /// `(suspect, promised-but-never-served score)` — a handful of
    /// entries at most, so a Vec beats a map.
    suspects: Vec<(Peer, u32)>,
    /// Peers whose probation fired: never recorded again.
    banned: Vec<Peer>,
}

impl ReputationBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// True iff nobody is under suspicion or banned.
    pub fn is_empty(&self) -> bool {
        self.suspects.is_empty() && self.banned.is_empty()
    }

    /// O(n) membership test over the (tiny) suspect set.
    pub fn contains(&self, peer: Peer) -> bool {
        self.suspects.iter().any(|&(p, _)| p == peer)
    }

    /// Has `peer`'s probation fired? Banned peers must never be
    /// recorded again — the caller drops the record on the floor.
    pub fn banned(&self, peer: Peer) -> bool {
        self.banned.contains(&peer)
    }

    /// Puts `peer` under suspicion. A *repeat* capture while already
    /// on probation is corroboration, not coincidence: the entry moves
    /// straight to the ban list and `true` is returned — the caller
    /// must then reclaim the slot via [`NeighbourList::expel`]. Bounding an
    /// attacker to one miscredited record per probation is what keeps
    /// cumulative-count policies (History) recoverable: unlike LRU,
    /// frequency lists never age the stolen credit out.
    pub fn suspect(&mut self, peer: Peer) -> bool {
        if self.banned(peer) {
            return false;
        }
        if let Some(i) = self.suspects.iter().position(|&(p, _)| p == peer) {
            self.suspects.remove(i);
            self.banned.push(peer);
            true
        } else {
            self.suspects.push((peer, 0));
            false
        }
    }

    /// Scores one unanswered query to `peer`. Non-suspects are
    /// untouched (returns `false`). A suspect's score decays then
    /// increments; when it reaches `REPUTATION_FIRE_AT` the entry
    /// moves to the ban list and `true` is returned — the caller must
    /// then reclaim the slot via [`NeighbourList::expel`], and the banned
    /// peer is never recorded again.
    pub fn on_query(&mut self, peer: Peer) -> bool {
        let Some(i) = self.suspects.iter().position(|&(p, _)| p == peer) else {
            return false;
        };
        let p = self.suspects[i].1;
        let p = p - p / 8 + 1;
        if p >= REPUTATION_FIRE_AT {
            self.suspects.remove(i);
            self.banned.push(peer);
            true
        } else {
            self.suspects[i].1 = p;
            false
        }
    }

    /// Clears `peer`'s suspicion — it genuinely served an upload.
    pub fn redeem(&mut self, peer: Peer) {
        self.remove(peer);
    }

    /// Drops `peer` from the suspect set (it left the neighbour list
    /// by other means, so there is no slot left to defend). A ban, if
    /// any, persists — leaving the list is not rehabilitation.
    pub fn remove(&mut self, peer: Peer) {
        self.suspects.retain(|&(p, _)| p != peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::HashSet;

    const KINDS: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::History,
        PolicyKind::Random,
        PolicyKind::RareLru { max_sources: 4 },
    ];

    /// An adaptive (non-Random) list: no candidates, no draws.
    fn list(kind: PolicyKind, capacity: usize) -> NeighbourList {
        NeighbourList::from_drawn(kind, capacity, 0, &[])
    }

    fn record_all(list: &mut NeighbourList, uploads: &[Peer]) {
        for &u in uploads {
            list.record(u, 1);
        }
    }

    fn check_invariants(p: &NeighbourList) {
        let list = p.to_vec();
        assert!(list.len() <= p.capacity());
        assert_eq!(list.len(), p.len());
        let set: HashSet<Peer> = list.iter().copied().collect();
        assert_eq!(set.len(), list.len(), "list must be duplicate-free");
        for &n in &list {
            assert!(p.contains(n));
        }
    }

    #[test]
    fn lru_ordering_and_eviction() {
        let mut lru = list(PolicyKind::Lru, 3);
        record_all(&mut lru, &[1, 2, 3]);
        assert_eq!(lru.to_vec(), [3, 2, 1]);
        lru.record(1, 1); // refresh
        assert_eq!(lru.to_vec(), [1, 3, 2]);
        lru.record(4, 1_000_000); // evict 2; plain LRU ignores popularity
        assert_eq!(lru.to_vec(), [4, 1, 3]);
        assert!(!lru.contains(2));
        check_invariants(&lru);
        let mut lru = list(PolicyKind::Lru, 2);
        record_all(&mut lru, &[5; 10]);
        assert_eq!(lru.to_vec(), [5], "a repeated uploader does not grow");
    }

    #[test]
    fn history_prefers_frequent_uploaders() {
        let mut h = list(PolicyKind::History, 2);
        record_all(&mut h, &[1, 1, 1, 1, 1, 2, 2, 2]);
        h.record(3, 1); // count 1 < tail's 3 → not admitted
        assert_eq!(h.to_vec(), [1, 2]);
        record_all(&mut h, &[3, 3, 3]); // count reaches 4 > peer 2's 3
        assert_eq!(h.to_vec(), [1, 3]);
        assert!(!h.contains(2));
        check_invariants(&h);
        let mut h = list(PolicyKind::History, 5);
        record_all(&mut h, &[1, 2, 2, 3, 3, 3, 4, 1, 2]);
        // counts: 1→2, 2→3, 3→3, 4→1; 2 is more recent than 3.
        assert_eq!(h.to_vec(), [2, 3, 1, 4]);
        check_invariants(&h);
    }

    #[test]
    fn random_list_fixed_and_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let candidates: Vec<Peer> = (0..100).collect();
        let mut r = NeighbourList::new(PolicyKind::Random, 10, 5, &candidates, &mut rng);
        assert_eq!(r.len(), 10);
        assert!(!r.to_vec().contains(&5), "owner excluded");
        check_invariants(&r);
        let before = r.to_vec();
        assert_eq!(r.record(42, 1), (None, None));
        assert_eq!(r.to_vec(), before, "random list never adapts");
        let r = NeighbourList::new(PolicyKind::Random, 10, 0, &[0, 1, 2], &mut rng);
        assert_eq!(r.len(), 2, "only two non-owner candidates");
    }

    #[test]
    fn rare_lru_filters_popular_uploads() {
        let mut p = list(PolicyKind::RareLru { max_sources: 5 }, 3);
        p.record(1, 3);
        assert_eq!(p.record(2, 6), (None, None), "too popular");
        p.record(3, 5); // boundary: recorded
        p.record(4, 0);
        assert_eq!(p.to_vec(), [4, 3, 1]);
        assert!(!p.contains(2));
        check_invariants(&p);
        assert_eq!(PolicyKind::RareLru { max_sources: 2 }.name(), "RareLRU");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = list(PolicyKind::Lru, 0);
    }

    #[test]
    fn staleness_evicts_lru_kinds() {
        for kind in [PolicyKind::Lru, PolicyKind::RareLru { max_sources: 5 }] {
            let mut p = list(kind, 3);
            record_all(&mut p, &[1, 2]);
            assert_eq!(p.handle_stale(1, None), StaleReaction::Evicted);
            assert_eq!(p.to_vec(), [2]);
            assert!(!p.contains(1));
            assert_eq!(p.handle_stale(1, None), StaleReaction::Kept, "already gone");
            check_invariants(&p);
        }
    }

    #[test]
    fn history_staleness_probes_and_demotes() {
        let mut p = list(PolicyKind::History, 4);
        record_all(&mut p, &[1, 1, 1, 1, 2, 2, 2]);
        assert_eq!(p.to_vec(), [1, 2]);
        // Halving 1's count (4 → 2) drops it below 2's count of 3.
        assert_eq!(p.handle_stale(1, None), StaleReaction::Probed);
        assert_eq!(p.to_vec(), [2, 1], "demoted, not evicted");
        assert!(p.contains(1), "probed entries stay members");
        assert_eq!(p.handle_stale(9, None), StaleReaction::Kept);
        check_invariants(&p);
    }

    #[test]
    fn random_staleness_replaces_from_pool() {
        let mut rng = StdRng::seed_from_u64(7);
        let candidates: Vec<Peer> = (0..50).collect();
        let mut p = NeighbourList::new(PolicyKind::Random, 5, 0, &candidates, &mut rng);
        let stale = p.to_vec()[0];
        let fresh = (1..50).find(|&c| !p.contains(c)).expect("pool > list");
        assert_eq!(p.handle_stale(stale, Some(fresh)), StaleReaction::Replaced);
        assert!(!p.contains(stale) && p.contains(fresh));
        assert_eq!(p.len(), 5);
        check_invariants(&p);
        // Invalid replacements degrade to plain eviction.
        let stale = p.to_vec()[0];
        assert_eq!(p.handle_stale(stale, Some(0)), StaleReaction::Evicted);
        assert_eq!(p.len(), 4);
        // Non-members are untouched even with a replacement on offer.
        assert_eq!(p.handle_stale(stale, Some(fresh)), StaleReaction::Kept);
        check_invariants(&p);
    }

    #[test]
    fn record_reports_membership_changes() {
        let mut lru = list(PolicyKind::Lru, 2);
        assert_eq!(lru.record(1, 1), (Some(1), None));
        assert_eq!(lru.record(2, 1), (Some(2), None));
        assert_eq!(lru.record(1, 1), (None, None), "refresh");
        assert_eq!(
            lru.record(3, 1),
            (Some(3), Some(2)),
            "newcomer in, tail out"
        );
        assert_eq!(lru.to_vec(), [3, 1]);

        let mut h = list(PolicyKind::History, 2);
        record_all(&mut h, &[1, 1, 1, 2, 2]);
        // Rejected newcomer: counters move, membership does not.
        assert_eq!(h.record(3, 1), (None, None));
        assert_eq!(h.to_vec(), [1, 2]);
        // Its count now reaches 2's count with newer recency: replaces.
        assert_eq!(h.record(3, 1), (Some(3), Some(2)));
        assert!(h.contains(3) && !h.contains(2));
        assert_eq!(h.record(3, 1), (None, None), "member re-sort");
    }

    #[test]
    fn renewed_lists_equal_fresh_ones() {
        let candidates: Vec<Peer> = (0..80).collect();
        for kind in KINDS {
            // A dirtied list — even of another kind — renewed with rng
            // state R equals a fresh list built from the same R,
            // including which draws Random consumes, and keeps
            // behaving the same (a leaked count or clock would reorder
            // History's tie-break).
            for dirty_kind in [kind, PolicyKind::History] {
                let mut seeded = StdRng::seed_from_u64(9);
                let mut pooled = NeighbourList::new(dirty_kind, 6, 1, &candidates, &mut seeded);
                record_all(&mut pooled, &[7, 8, 8]);
                let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(42), StdRng::seed_from_u64(42));
                pooled.renew(kind, 5, 2, &candidates, &mut rng_a);
                let mut fresh = NeighbourList::new(kind, 5, 2, &candidates, &mut rng_b);
                assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{kind:?}");
                let mut adopted = NeighbourList::from_drawn(dirty_kind, 6, 1, &[3, 4]);
                record_all(&mut adopted, &[7, 7]);
                adopted.renew_drawn(kind, 5, 2, &fresh.to_vec());
                // The array-indexed layout, dirtied before and after
                // the conversion, renews to the same list.
                let mut arrayed = NeighbourList::from_drawn(dirty_kind, 6, 1, &[3, 4]);
                record_all(&mut arrayed, &[8, 7]);
                let mut arrayed = arrayed.with_peer_array(80);
                record_all(&mut arrayed, &[7, 9, 8]);
                arrayed.renew_drawn(kind, 5, 2, &fresh.to_vec());
                let stale = fresh.neighbours().next().unwrap_or(0);
                for p in [&mut pooled, &mut adopted, &mut arrayed, &mut fresh] {
                    p.handle_stale(stale, Some(2));
                    p.handle_stale(stale, Some(79));
                    record_all(p, &[8, 7, 9]);
                }
                for p in [&pooled, &adopted, &arrayed] {
                    assert_eq!(p.to_vec(), fresh.to_vec(), "{kind:?}");
                    assert_eq!(p.capacity(), fresh.capacity(), "{kind:?}");
                    assert!((0..80).all(|q| p.contains(q) == fresh.contains(q)));
                }
            }
        }
    }

    #[test]
    fn expel_hard_removes_under_every_policy() {
        let mut rng = StdRng::seed_from_u64(10);
        let candidates: Vec<Peer> = (0..60).collect();
        for kind in [
            PolicyKind::Lru,
            PolicyKind::History,
            PolicyKind::RareLru { max_sources: 9 },
        ] {
            let mut p = list(kind, 4);
            record_all(&mut p, &[7, 7, 7]);
            assert!(p.expel(7, None), "{kind:?}");
            assert!(!p.contains(7), "{kind:?}: expelled outright, not demoted");
            assert!(!p.expel(7, None), "{kind:?}: already gone");
        }
        let mut p = NeighbourList::new(PolicyKind::Random, 5, 0, &candidates, &mut rng);
        let target = p.to_vec()[0];
        let fresh = (1..60).find(|&c| !p.contains(c)).expect("pool > list");
        assert!(p.expel(target, Some(fresh)));
        assert!(!p.contains(target) && p.contains(fresh));
    }

    #[test]
    fn history_expel_erases_the_whole_record() {
        let mut h = list(PolicyKind::History, 2);
        record_all(&mut h, &[1, 1, 1, 1, 1, 2]);
        assert!(h.expel(1, None), "member removal succeeds");
        assert_eq!(h.to_vec(), [2]);
        // The counter is erased too: unlike the staleness probe, one
        // new upload does not restore the old rank.
        record_all(&mut h, &[2, 2, 1]);
        assert_eq!(h.to_vec(), [2, 1], "peer 1 re-enters at count 1");
        check_invariants(&h);
    }

    #[test]
    fn reputation_book_scores_only_suspects() {
        let mut book = ReputationBook::new();
        assert!(book.is_empty());
        // Non-suspects are never scored.
        for _ in 0..100 {
            assert!(!book.on_query(3));
        }
        assert!(!book.suspect(5), "first capture opens probation");
        assert!(book.contains(5) && !book.contains(3));
        // Scores below the threshold accumulate; the FIRE_AT-th
        // unanswered query fires.
        for _ in 0..REPUTATION_FIRE_AT - 1 {
            assert!(!book.on_query(5));
        }
        assert!(book.on_query(5), "probation exhausted");
        assert!(!book.contains(5), "firing clears the suspect entry");
        assert!(book.banned(5), "firing bans the peer");
        assert!(!book.banned(3), "non-suspects are never banned");
        assert!(!book.on_query(5), "no double firing");
        assert!(!book.is_empty(), "the ban persists");
        book.remove(5);
        assert!(book.banned(5), "leaving the list is not rehabilitation");
    }

    #[test]
    fn reputation_book_redeems_and_removes() {
        let mut book = ReputationBook::new();
        book.suspect(1);
        book.suspect(2);
        assert!(!book.on_query(1));
        book.redeem(1);
        assert!(!book.contains(1), "a genuine upload clears suspicion");
        book.remove(2);
        assert!(book.is_empty());
    }

    #[test]
    fn reputation_book_bans_on_repeat_capture() {
        let mut book = ReputationBook::new();
        assert!(!book.suspect(9), "first capture: probation only");
        assert!(book.contains(9) && !book.banned(9));
        assert!(book.suspect(9), "a second capture on probation fires");
        assert!(book.banned(9) && !book.contains(9));
        assert!(!book.suspect(9), "a banned peer never re-enters probation");
        assert!(!book.contains(9), "and stays out of the suspect set");
        // Redemption before the repeat capture resets probation.
        assert!(!book.suspect(4));
        book.redeem(4);
        assert!(!book.suspect(4), "post-redemption capture starts fresh");
    }
}

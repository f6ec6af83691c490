//! Semantic-neighbour list policies: LRU, History and Random.
//!
//! Each peer maintains a short list of *semantic neighbours* — peers that
//! uploaded files to it — and queries them first on every search
//! (Section 5.2):
//!
//! * **LRU**: the most recent uploader moves to the head; the tail is
//!   evicted at capacity. One parameter: the list length.
//! * **History** (frequency-based, [Voulgaris et al.]): counts successful
//!   uploads per peer and keeps the highest counters.
//! * **Random**: the benchmark — a list of uniformly random peers.
//!
//! All policies expose the same trait so the simulator is generic; they
//! also maintain a membership set so "is this sharer one of my
//! neighbours?" is O(1) during simulation.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use rand::Rng;

/// A peer index in the simulation (dense, like `edonkey_trace::PeerId`).
pub type Peer = u32;

/// Multiply-shift hashing for [`Peer`] keys: one multiply by the golden
/// ratio, the high half folded into the low bits the table indexes by.
/// The policies' sets and maps are probed on every record and staleness
/// reaction, where SipHash cost more than the lookups it guards. Peers
/// are dense indices the simulator assigns, not values an input can
/// pick to collide, and nothing iterates these containers, so the hash
/// never reaches an output.
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

type PeerSet = HashSet<Peer, BuildHasherDefault<PeerHasher>>;
type PeerMap<V> = HashMap<Peer, V, BuildHasherDefault<PeerHasher>>;

/// How a policy reacted to a *stale* neighbour — one whose query timed
/// out because the peer is offline (see `edonkey_workload::churn`).
/// Each policy has a defined reaction, dispatched by
/// [`AnyPolicy::handle_stale`]:
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

/// The interface every neighbour-list policy implements.
pub trait NeighbourPolicy {
    /// Records a successful upload received *from* `uploader`.
    fn record_upload(&mut self, uploader: Peer);

    /// Records an upload along with the uploaded file's current source
    /// count. Popularity-aware policies use it to skip popular-file
    /// uploads; the default ignores the hint.
    fn record_upload_with_popularity(&mut self, uploader: Peer, _sources: u32) {
        self.record_upload(uploader);
    }

    /// The current neighbour list, highest-priority first.
    fn neighbours(&self) -> &[Peer];

    /// O(1) membership test.
    fn contains(&self, peer: Peer) -> bool;

    /// The configured maximum list length.
    fn capacity(&self) -> usize;
}

/// Least-recently-used neighbour list.
///
/// # Examples
///
/// ```
/// use edonkey_semsearch::neighbours::{Lru, NeighbourPolicy};
///
/// let mut list = Lru::new(2);
/// list.record_upload(7);
/// list.record_upload(8);
/// list.record_upload(7); // moves 7 back to the head
/// assert_eq!(list.neighbours(), &[7, 8]);
/// list.record_upload(9); // evicts 8, the least recently used
/// assert_eq!(list.neighbours(), &[9, 7]);
/// assert!(!list.contains(8));
/// ```
#[derive(Clone, Debug)]
pub struct Lru {
    /// Head = most recently used. Small lists: a Vec beats pointer
    /// structures for every capacity the paper uses (≤ 200).
    list: Vec<Peer>,
    members: PeerSet,
    capacity: usize,
}

impl Lru {
    /// Creates an empty list with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "neighbour list capacity must be positive");
        Lru {
            list: Vec::with_capacity(capacity),
            members: PeerSet::default(),
            capacity,
        }
    }

    /// Removes `peer` from the list (the staleness reaction: a
    /// timed-out neighbour is dropped). Returns whether it was present.
    pub fn evict(&mut self, peer: Peer) -> bool {
        if let Some(pos) = self.list.iter().position(|&p| p == peer) {
            self.list.remove(pos);
            self.members.remove(&peer);
            true
        } else {
            false
        }
    }

    /// Clears the list in place to the empty state of `Lru::new
    /// (capacity)`, keeping the allocations — the pooled-scratch sweeps
    /// renew one instance per querier instead of constructing one per
    /// peer.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "neighbour list capacity must be positive");
        self.list.clear();
        self.members.clear();
        self.capacity = capacity;
    }

    /// [`NeighbourPolicy::record_upload`] that also reports the
    /// membership delta `(added, removed)` — the hook the sweeps'
    /// interval-based message accounting needs to know when a peer
    /// enters or leaves the list without re-walking it.
    pub fn record_upload_delta(&mut self, uploader: Peer) -> (Option<Peer>, Option<Peer>) {
        let mut delta = (None, None);
        if let Some(pos) = self.list.iter().position(|&p| p == uploader) {
            self.list.remove(pos);
        } else {
            self.members.insert(uploader);
            delta.0 = Some(uploader);
            if self.list.len() == self.capacity {
                let evicted = self.list.pop().expect("list is at capacity > 0");
                self.members.remove(&evicted);
                delta.1 = Some(evicted);
            }
        }
        self.list.insert(0, uploader);
        delta
    }
}

impl NeighbourPolicy for Lru {
    fn record_upload(&mut self, uploader: Peer) {
        let _ = self.record_upload_delta(uploader);
    }

    fn neighbours(&self) -> &[Peer] {
        &self.list
    }

    fn contains(&self, peer: Peer) -> bool {
        self.members.contains(&peer)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Frequency-based ("History") neighbour list: keeps the peers with the
/// most successful uploads.
///
/// Ties are broken by recency (the newer uploader wins), which keeps the
/// early simulation from ossifying on arbitrary first-comers.
///
/// # Examples
///
/// ```
/// use edonkey_semsearch::neighbours::{History, NeighbourPolicy};
///
/// let mut list = History::new(2);
/// list.record_upload(1);
/// list.record_upload(2);
/// list.record_upload(2);
/// list.record_upload(3); // count 1: ties with peer 1, newer wins
/// assert_eq!(list.neighbours(), &[2, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct History {
    /// `(upload count, last upload's clock)` for every peer ever seen
    /// (the "history"): its sort key, one lookup away.
    keys: PeerMap<(u64, u64)>,
    /// Logical clock for recency tie-breaks.
    clock: u64,
    /// Current top-`capacity` list, sorted by (count, recency) desc.
    list: Vec<Peer>,
    members: PeerSet,
    capacity: usize,
}

impl History {
    /// Creates an empty list with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "neighbour list capacity must be positive");
        History {
            keys: PeerMap::default(),
            clock: 0,
            list: Vec::with_capacity(capacity),
            members: PeerSet::default(),
            capacity,
        }
    }

    fn key(&self, peer: Peer) -> (u64, u64) {
        self.keys.get(&peer).copied().unwrap_or((0, 0))
    }

    /// The staleness reaction: a timed-out neighbour is *probed*, not
    /// dropped — its upload counter is halved and the entry re-sorted,
    /// so it must re-earn its rank but its history is not erased.
    /// Returns whether the peer was a list member.
    pub fn demote(&mut self, peer: Peer) -> bool {
        if !self.members.contains(&peer) {
            return false;
        }
        let pos = self.list.iter().position(|&p| p == peer).expect("member");
        self.list.remove(pos);
        if let Some((count, _)) = self.keys.get_mut(&peer) {
            *count /= 2;
        }
        let key = self.key(peer);
        let pos = self
            .list
            .iter()
            .position(|&p| self.key(p) < key)
            .unwrap_or(self.list.len());
        self.list.insert(pos, peer);
        true
    }

    /// Removes `peer` outright — list membership, upload counter and
    /// recency all erased, so re-admission must be earned from zero.
    /// This is the *reputation* reaction, deliberately harsher than the
    /// staleness [`History::demote`]: a flaky-but-honest uploader keeps
    /// (half) its history, an exposed adversary keeps nothing —
    /// otherwise its inflated counter would re-admit it on the very
    /// next hijacked record. Returns whether the peer was a member.
    pub fn remove(&mut self, peer: Peer) -> bool {
        if !self.members.remove(&peer) {
            return false;
        }
        let pos = self.list.iter().position(|&p| p == peer).expect("member");
        self.list.remove(pos);
        self.keys.remove(&peer);
        true
    }

    /// Clears all history in place to the empty state of `History::new
    /// (capacity)`, keeping the allocations (see [`Lru::reset`]).
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "neighbour list capacity must be positive");
        self.keys.clear();
        self.clock = 0;
        self.list.clear();
        self.members.clear();
        self.capacity = capacity;
    }

    /// [`NeighbourPolicy::record_upload`] reporting the membership
    /// delta `(added, removed)` (see [`Lru::record_upload_delta`]).
    /// Note the counter and recency updates happen even when the
    /// newcomer is rejected — rejection only skips the *list* change.
    pub fn record_upload_delta(&mut self, uploader: Peer) -> (Option<Peer>, Option<Peer>) {
        self.clock += 1;
        let key = self.keys.entry(uploader).or_insert((0, 0));
        *key = (key.0 + 1, self.clock);
        let mut delta = (None, None);
        if self.members.contains(&uploader) {
            // Re-sort its position upward.
            let pos = self
                .list
                .iter()
                .position(|&p| p == uploader)
                .expect("member");
            self.list.remove(pos);
        } else if self.list.len() == self.capacity {
            // Replace the tail only if the newcomer now outranks it.
            let tail = *self.list.last().expect("at capacity > 0");
            if self.key(uploader) <= self.key(tail) {
                return delta;
            }
            self.list.pop();
            self.members.remove(&tail);
            self.members.insert(uploader);
            delta = (Some(uploader), Some(tail));
        } else {
            self.members.insert(uploader);
            delta = (Some(uploader), None);
        }
        let key = self.key(uploader);
        let pos = self
            .list
            .iter()
            .position(|&p| self.key(p) < key)
            .unwrap_or(self.list.len());
        self.list.insert(pos, uploader);
        delta
    }
}

impl NeighbourPolicy for History {
    fn record_upload(&mut self, uploader: Peer) {
        let _ = self.record_upload_delta(uploader);
    }

    fn neighbours(&self) -> &[Peer] {
        &self.list
    }

    fn contains(&self, peer: Peer) -> bool {
        self.members.contains(&peer)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The random benchmark: a fixed list of uniformly chosen peers.
///
/// `record_upload` is a no-op — the whole point of the benchmark is that
/// the list carries no semantic information.
#[derive(Clone, Debug)]
pub struct RandomList {
    list: Vec<Peer>,
    members: PeerSet,
    owner: Peer,
    capacity: usize,
}

impl RandomList {
    /// Draws a fixed list of up to `capacity` distinct peers from
    /// `candidates` (e.g. all sharers), excluding `owner`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, owner: Peer, candidates: &[Peer], rng: &mut impl Rng) -> Self {
        assert!(capacity > 0, "neighbour list capacity must be positive");
        let mut fresh = RandomList {
            list: Vec::with_capacity(capacity),
            members: PeerSet::default(),
            owner,
            capacity,
        };
        fresh.refill(capacity, owner, candidates, rng);
        fresh
    }

    /// Re-draws the list in place with exactly the RNG draw sequence of
    /// `RandomList::new(capacity, owner, candidates, rng)`, keeping the
    /// allocations — the pooled-scratch sweeps renew instances across
    /// runs instead of constructing fresh ones.
    pub fn refill(
        &mut self,
        capacity: usize,
        owner: Peer,
        candidates: &[Peer],
        rng: &mut impl Rng,
    ) {
        assert!(capacity > 0, "neighbour list capacity must be positive");
        self.list.clear();
        self.members.clear();
        self.owner = owner;
        self.capacity = capacity;
        let (list, members) = (&mut self.list, &mut self.members);
        draw_random_list(capacity, owner, candidates, rng, |pick| {
            let fresh = members.insert(pick);
            if fresh {
                list.push(pick);
            }
            fresh
        });
    }

    /// Adopts a list drawn earlier for `owner` — distinct peers, never
    /// the owner, in draw order — without drawing, keeping the
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn assign(&mut self, capacity: usize, owner: Peer, drawn: &[Peer]) {
        assert!(capacity > 0, "neighbour list capacity must be positive");
        self.list.clear();
        self.list.extend_from_slice(drawn);
        self.members.clear();
        self.members.extend(drawn.iter().copied());
        self.owner = owner;
        self.capacity = capacity;
    }

    /// The staleness reaction: a timed-out entry is removed and — the
    /// list being semantics-free — refilled with `replacement` when one
    /// is offered and valid (not the owner, not already listed).
    /// Returns what happened; `replacement` is ignored unless the stale
    /// entry was actually a member.
    pub fn replace_stale(&mut self, stale: Peer, replacement: Option<Peer>) -> StaleReaction {
        if !self.members.remove(&stale) {
            return StaleReaction::Kept;
        }
        let pos = self.list.iter().position(|&p| p == stale).expect("member");
        self.list.remove(pos);
        match replacement {
            Some(r) if r != self.owner && !self.members.contains(&r) => {
                self.members.insert(r);
                self.list.push(r);
                StaleReaction::Replaced
            }
            _ => StaleReaction::Evicted,
        }
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

impl NeighbourPolicy for RandomList {
    fn record_upload(&mut self, _uploader: Peer) {}

    fn neighbours(&self) -> &[Peer] {
        &self.list
    }

    fn contains(&self, peer: Peer) -> bool {
        self.members.contains(&peer)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// LRU restricted to *rare-file* uploads — the "popularity" algorithm
/// the paper points at (Section 5.3.2, citing Voulgaris et al.) for
/// keeping lists uncontaminated by links to peers that merely served
/// popular files.
///
/// Uploads of files with more than `max_sources` known sources are not
/// recorded; everything else behaves like [`Lru`].
///
/// # Examples
///
/// ```
/// use edonkey_semsearch::neighbours::{NeighbourPolicy, RareLru};
///
/// let mut list = RareLru::new(2, 3);
/// list.record_upload_with_popularity(7, 2); // rare: recorded
/// list.record_upload_with_popularity(8, 50); // popular: ignored
/// assert_eq!(list.neighbours(), &[7]);
/// ```
#[derive(Clone, Debug)]
pub struct RareLru {
    inner: Lru,
    max_sources: u32,
}

impl RareLru {
    /// Creates the policy: capacity plus the rare-file source cutoff.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, max_sources: u32) -> Self {
        RareLru {
            inner: Lru::new(capacity),
            max_sources,
        }
    }

    /// The staleness reaction: same as [`Lru::evict`].
    pub fn evict(&mut self, peer: Peer) -> bool {
        self.inner.evict(peer)
    }

    /// Clears the list in place (see [`Lru::reset`]).
    pub fn reset(&mut self, capacity: usize, max_sources: u32) {
        self.inner.reset(capacity);
        self.max_sources = max_sources;
    }

    /// Membership-delta recording (see [`Lru::record_upload_delta`]);
    /// popular uploads change nothing.
    pub fn record_upload_delta(
        &mut self,
        uploader: Peer,
        sources: u32,
    ) -> (Option<Peer>, Option<Peer>) {
        if sources <= self.max_sources {
            self.inner.record_upload_delta(uploader)
        } else {
            (None, None)
        }
    }
}

impl NeighbourPolicy for RareLru {
    fn record_upload(&mut self, uploader: Peer) {
        // Without a popularity hint the upload is assumed rare.
        self.inner.record_upload(uploader);
    }

    fn record_upload_with_popularity(&mut self, uploader: Peer, sources: u32) {
        if sources <= self.max_sources {
            self.inner.record_upload(uploader);
        }
    }

    fn neighbours(&self) -> &[Peer] {
        self.inner.neighbours()
    }

    fn contains(&self, peer: Peer) -> bool {
        self.inner.contains(peer)
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
}

/// Which policy to instantiate — the simulator's configuration surface.
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

/// A boxed policy instance, one per simulated peer.
#[derive(Clone, Debug)]
pub enum AnyPolicy {
    /// LRU instance.
    Lru(Lru),
    /// History instance.
    History(History),
    /// Random instance.
    Random(RandomList),
    /// Rare-file LRU instance.
    RareLru(RareLru),
}

impl AnyPolicy {
    /// Instantiates a policy of the given kind.
    pub fn new(
        kind: PolicyKind,
        capacity: usize,
        owner: Peer,
        candidates: &[Peer],
        rng: &mut impl Rng,
    ) -> Self {
        match kind {
            PolicyKind::Lru => AnyPolicy::Lru(Lru::new(capacity)),
            PolicyKind::History => AnyPolicy::History(History::new(capacity)),
            PolicyKind::Random => {
                AnyPolicy::Random(RandomList::new(capacity, owner, candidates, rng))
            }
            PolicyKind::RareLru { max_sources } => {
                AnyPolicy::RareLru(RareLru::new(capacity, max_sources))
            }
        }
    }

    /// Re-initializes this instance to exactly the state
    /// `AnyPolicy::new(kind, capacity, owner, candidates, rng)` would
    /// produce — including the RNG draw sequence for Random lists — but
    /// reusing the existing allocations whenever the policy kind is
    /// unchanged. This is what lets a sweep worker keep one pooled
    /// policy (or one pooled per-peer vector) across runs instead of
    /// re-allocating per peer per cell.
    pub fn renew(
        &mut self,
        kind: PolicyKind,
        capacity: usize,
        owner: Peer,
        candidates: &[Peer],
        rng: &mut impl Rng,
    ) {
        match (self, kind) {
            (AnyPolicy::Lru(p), PolicyKind::Lru) => p.reset(capacity),
            (AnyPolicy::History(p), PolicyKind::History) => p.reset(capacity),
            (AnyPolicy::Random(p), PolicyKind::Random) => {
                p.refill(capacity, owner, candidates, rng)
            }
            (AnyPolicy::RareLru(p), PolicyKind::RareLru { max_sources }) => {
                p.reset(capacity, max_sources)
            }
            (other, kind) => *other = AnyPolicy::new(kind, capacity, owner, candidates, rng),
        }
    }

    /// The state `owner`'s policy starts a replay in, with no RNG: empty
    /// for the adaptive kinds, and for a Random list the `drawn` list
    /// its [`AnyPolicy::new`] construction drew (in draw order). The
    /// split and serving replays construct policies this way, from the
    /// lists drawn up front (`sim::DrawnLists`).
    pub fn from_drawn(kind: PolicyKind, capacity: usize, owner: Peer, drawn: &[Peer]) -> Self {
        match kind {
            PolicyKind::Lru => AnyPolicy::Lru(Lru::new(capacity)),
            PolicyKind::History => AnyPolicy::History(History::new(capacity)),
            PolicyKind::Random => {
                let mut list = RandomList {
                    list: Vec::with_capacity(capacity),
                    members: PeerSet::default(),
                    owner,
                    capacity,
                };
                list.assign(capacity, owner, drawn);
                AnyPolicy::Random(list)
            }
            PolicyKind::RareLru { max_sources } => {
                AnyPolicy::RareLru(RareLru::new(capacity, max_sources))
            }
        }
    }

    /// [`AnyPolicy::from_drawn`] in place, reusing the existing
    /// allocations whenever the policy kind is unchanged.
    pub fn renew_drawn(&mut self, kind: PolicyKind, capacity: usize, owner: Peer, drawn: &[Peer]) {
        match (self, kind) {
            (AnyPolicy::Lru(p), PolicyKind::Lru) => p.reset(capacity),
            (AnyPolicy::History(p), PolicyKind::History) => p.reset(capacity),
            (AnyPolicy::Random(p), PolicyKind::Random) => p.assign(capacity, owner, drawn),
            (AnyPolicy::RareLru(p), PolicyKind::RareLru { max_sources }) => {
                p.reset(capacity, max_sources)
            }
            (other, kind) => *other = AnyPolicy::from_drawn(kind, capacity, owner, drawn),
        }
    }

    /// [`NeighbourPolicy::record_upload_with_popularity`] reporting the
    /// membership delta `(added, removed)` — see
    /// [`Lru::record_upload_delta`]. Random lists never change.
    pub fn record_upload_with_popularity_delta(
        &mut self,
        uploader: Peer,
        sources: u32,
    ) -> (Option<Peer>, Option<Peer>) {
        match self {
            AnyPolicy::Lru(p) => p.record_upload_delta(uploader),
            AnyPolicy::History(p) => p.record_upload_delta(uploader),
            AnyPolicy::Random(p) => {
                p.record_upload_with_popularity(uploader, sources);
                (None, None)
            }
            AnyPolicy::RareLru(p) => p.record_upload_delta(uploader, sources),
        }
    }

    /// Owned copy of the current neighbour list, in list order — the
    /// "final policy state" unit the service-mode differential tests
    /// compare (a serving replay and a batch run must leave every peer
    /// with the identical list).
    pub fn snapshot(&self) -> Vec<Peer> {
        self.neighbours().to_vec()
    }

    /// Hard-removes a neighbour whose reputation collapsed (see
    /// [`ReputationBook`]). Unlike the staleness reaction — which may
    /// merely demote (History) — every policy drops the peer outright:
    /// the defense only fires on members that were *recorded through an
    /// attack* and then answered nothing, and a demotion would leave
    /// the captured slot in place. `replacement` is only consulted by
    /// the Random policy (same contract as [`AnyPolicy::handle_stale`]).
    /// Returns whether the list changed.
    pub fn expel(&mut self, peer: Peer, replacement: Option<Peer>) -> bool {
        match self {
            AnyPolicy::Lru(p) => p.evict(peer),
            AnyPolicy::History(p) => p.remove(peer),
            AnyPolicy::Random(p) => {
                !matches!(p.replace_stale(peer, replacement), StaleReaction::Kept)
            }
            AnyPolicy::RareLru(p) => p.evict(peer),
        }
    }

    /// Applies the policy's staleness reaction to a timed-out
    /// neighbour. `replacement` is only consulted by the Random policy;
    /// pass `None` for the others (a deterministic draw from the sharer
    /// pool — never the simulation's main RNG — supplies it).
    pub fn handle_stale(&mut self, stale: Peer, replacement: Option<Peer>) -> StaleReaction {
        let (member, reaction) = match self {
            AnyPolicy::Random(p) => return p.replace_stale(stale, replacement),
            AnyPolicy::History(p) => (p.demote(stale), StaleReaction::Probed),
            AnyPolicy::Lru(p) => (p.evict(stale), StaleReaction::Evicted),
            AnyPolicy::RareLru(p) => (p.evict(stale), StaleReaction::Evicted),
        };
        if member {
            reaction
        } else {
            StaleReaction::Kept
        }
    }
}

impl NeighbourPolicy for AnyPolicy {
    fn record_upload(&mut self, uploader: Peer) {
        match self {
            AnyPolicy::Lru(p) => p.record_upload(uploader),
            AnyPolicy::History(p) => p.record_upload(uploader),
            AnyPolicy::Random(p) => p.record_upload(uploader),
            AnyPolicy::RareLru(p) => p.record_upload(uploader),
        }
    }

    fn record_upload_with_popularity(&mut self, uploader: Peer, sources: u32) {
        match self {
            AnyPolicy::Lru(p) => p.record_upload_with_popularity(uploader, sources),
            AnyPolicy::History(p) => p.record_upload_with_popularity(uploader, sources),
            AnyPolicy::Random(p) => p.record_upload_with_popularity(uploader, sources),
            AnyPolicy::RareLru(p) => p.record_upload_with_popularity(uploader, sources),
        }
    }

    fn neighbours(&self) -> &[Peer] {
        match self {
            AnyPolicy::Lru(p) => p.neighbours(),
            AnyPolicy::History(p) => p.neighbours(),
            AnyPolicy::Random(p) => p.neighbours(),
            AnyPolicy::RareLru(p) => p.neighbours(),
        }
    }

    fn contains(&self, peer: Peer) -> bool {
        match self {
            AnyPolicy::Lru(p) => p.contains(peer),
            AnyPolicy::History(p) => p.contains(peer),
            AnyPolicy::Random(p) => p.contains(peer),
            AnyPolicy::RareLru(p) => p.contains(peer),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            AnyPolicy::Lru(p) => p.capacity(),
            AnyPolicy::History(p) => p.capacity(),
            AnyPolicy::Random(p) => p.capacity(),
            AnyPolicy::RareLru(p) => p.capacity(),
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
/// and at [`REPUTATION_FIRE_AT`] the defense fires: the slot is
/// hard-reclaimed ([`AnyPolicy::expel`]) and the peer is *banned* —
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
    /// must then reclaim the slot via [`AnyPolicy::expel`]. Bounding an
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
    /// increments; when it reaches [`REPUTATION_FIRE_AT`] the entry
    /// moves to the ban list and `true` is returned — the caller must
    /// then reclaim the slot via [`AnyPolicy::expel`], and the banned
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
    use rand::SeedableRng;

    fn check_invariants(p: &impl NeighbourPolicy) {
        let list = p.neighbours();
        assert!(list.len() <= p.capacity());
        let set: HashSet<Peer> = list.iter().copied().collect();
        assert_eq!(set.len(), list.len(), "list must be duplicate-free");
        for &n in list {
            assert!(p.contains(n));
        }
    }

    #[test]
    fn lru_ordering_and_eviction() {
        let mut lru = Lru::new(3);
        for p in [1, 2, 3] {
            lru.record_upload(p);
        }
        assert_eq!(lru.neighbours(), &[3, 2, 1]);
        lru.record_upload(1); // refresh
        assert_eq!(lru.neighbours(), &[1, 3, 2]);
        lru.record_upload(4); // evict 2
        assert_eq!(lru.neighbours(), &[4, 1, 3]);
        assert!(!lru.contains(2));
        check_invariants(&lru);
    }

    #[test]
    fn lru_repeated_uploader_does_not_grow() {
        let mut lru = Lru::new(2);
        for _ in 0..10 {
            lru.record_upload(5);
        }
        assert_eq!(lru.neighbours(), &[5]);
        check_invariants(&lru);
    }

    #[test]
    fn history_prefers_frequent_uploaders() {
        let mut h = History::new(2);
        for _ in 0..5 {
            h.record_upload(1);
        }
        for _ in 0..3 {
            h.record_upload(2);
        }
        h.record_upload(3); // count 1 < tail's 3 → not admitted
        assert_eq!(h.neighbours(), &[1, 2]);
        for _ in 0..3 {
            h.record_upload(3); // count reaches 4 > peer 2's 3
        }
        assert_eq!(h.neighbours(), &[1, 3]);
        assert!(!h.contains(2));
        check_invariants(&h);
    }

    #[test]
    fn history_list_is_sorted_by_count() {
        let mut h = History::new(5);
        let uploads = [1u32, 2, 2, 3, 3, 3, 4, 1, 2];
        for u in uploads {
            h.record_upload(u);
        }
        // counts: 1→2, 2→3, 3→3, 4→1; 2 is more recent than 3.
        assert_eq!(h.neighbours(), &[2, 3, 1, 4]);
        check_invariants(&h);
    }

    #[test]
    fn random_list_fixed_and_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let candidates: Vec<Peer> = (0..100).collect();
        let r = RandomList::new(10, 5, &candidates, &mut rng);
        assert_eq!(r.neighbours().len(), 10);
        assert!(!r.neighbours().contains(&5), "owner excluded");
        check_invariants(&r);
        let before = r.neighbours().to_vec();
        let mut r = r;
        r.record_upload(42);
        assert_eq!(r.neighbours(), &before[..], "random list never adapts");
    }

    #[test]
    fn random_list_small_candidate_pool() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = RandomList::new(10, 0, &[0, 1, 2], &mut rng);
        assert_eq!(
            r.neighbours().len(),
            2,
            "only two non-owner candidates exist"
        );
    }

    #[test]
    fn any_policy_dispatch() {
        let mut rng = StdRng::seed_from_u64(3);
        let candidates: Vec<Peer> = (0..50).collect();
        for kind in [PolicyKind::Lru, PolicyKind::History, PolicyKind::Random] {
            let mut p = AnyPolicy::new(kind, 4, 0, &candidates, &mut rng);
            p.record_upload(7);
            p.record_upload(9);
            check_invariants(&p);
            assert_eq!(p.capacity(), 4);
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn rare_lru_filters_popular_uploads() {
        let mut p = RareLru::new(3, 5);
        p.record_upload_with_popularity(1, 3);
        p.record_upload_with_popularity(2, 6); // too popular
        p.record_upload_with_popularity(3, 5); // boundary: recorded
        p.record_upload(4); // no hint: treated as rare
        assert_eq!(p.neighbours(), &[4, 3, 1]);
        assert!(!p.contains(2));
        check_invariants(&p);
    }

    #[test]
    fn default_hint_ignores_popularity() {
        let mut lru = Lru::new(2);
        lru.record_upload_with_popularity(9, 1_000_000);
        assert_eq!(lru.neighbours(), &[9], "plain LRU records regardless");
    }

    #[test]
    fn any_policy_rare_lru_dispatch() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = AnyPolicy::new(PolicyKind::RareLru { max_sources: 2 }, 3, 0, &[], &mut rng);
        p.record_upload_with_popularity(5, 1);
        p.record_upload_with_popularity(6, 10);
        assert_eq!(p.neighbours(), &[5]);
        assert_eq!(PolicyKind::RareLru { max_sources: 2 }.name(), "RareLRU");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Lru::new(0);
    }

    #[test]
    fn lru_staleness_evicts() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = AnyPolicy::new(PolicyKind::Lru, 3, 0, &[], &mut rng);
        p.record_upload(1);
        p.record_upload(2);
        assert_eq!(p.handle_stale(1, None), StaleReaction::Evicted);
        assert_eq!(p.neighbours(), &[2]);
        assert!(!p.contains(1));
        assert_eq!(p.handle_stale(1, None), StaleReaction::Kept, "already gone");
        check_invariants(&p);
    }

    #[test]
    fn history_staleness_probes_and_demotes() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut p = AnyPolicy::new(PolicyKind::History, 4, 0, &[], &mut rng);
        for _ in 0..4 {
            p.record_upload(1);
        }
        for _ in 0..3 {
            p.record_upload(2);
        }
        assert_eq!(p.neighbours(), &[1, 2]);
        // Halving 1's count (4 → 2) drops it below 2's count of 3.
        assert_eq!(p.handle_stale(1, None), StaleReaction::Probed);
        assert_eq!(p.neighbours(), &[2, 1], "demoted, not evicted");
        assert!(p.contains(1), "probed entries stay members");
        assert_eq!(p.handle_stale(9, None), StaleReaction::Kept);
        check_invariants(&p);
    }

    #[test]
    fn random_staleness_replaces_from_pool() {
        let mut rng = StdRng::seed_from_u64(7);
        let candidates: Vec<Peer> = (0..50).collect();
        let mut p = AnyPolicy::new(PolicyKind::Random, 5, 0, &candidates, &mut rng);
        let stale = p.neighbours()[0];
        let fresh = (0..50)
            .find(|&c| c != 0 && !p.contains(c))
            .expect("pool larger than list");
        assert_eq!(p.handle_stale(stale, Some(fresh)), StaleReaction::Replaced);
        assert!(!p.contains(stale));
        assert!(p.contains(fresh));
        assert_eq!(p.neighbours().len(), 5);
        check_invariants(&p);
        // Invalid replacements degrade to plain eviction.
        let stale = p.neighbours()[0];
        assert_eq!(p.handle_stale(stale, Some(0)), StaleReaction::Evicted);
        assert_eq!(p.neighbours().len(), 4);
        // Non-members are untouched even with a replacement on offer.
        assert_eq!(p.handle_stale(stale, Some(fresh)), StaleReaction::Kept);
        check_invariants(&p);
    }

    #[test]
    fn lru_delta_reports_membership_changes() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.record_upload_delta(1), (Some(1), None));
        assert_eq!(lru.record_upload_delta(2), (Some(2), None));
        // Refresh: no membership change.
        assert_eq!(lru.record_upload_delta(1), (None, None));
        // At capacity: newcomer in, LRU tail out.
        assert_eq!(lru.record_upload_delta(3), (Some(3), Some(2)));
        assert_eq!(lru.neighbours(), &[3, 1]);
    }

    #[test]
    fn history_delta_reports_membership_changes() {
        let mut h = History::new(2);
        for _ in 0..3 {
            h.record_upload(1);
        }
        for _ in 0..2 {
            h.record_upload(2);
        }
        // Rejected newcomer: counters move, membership does not.
        assert_eq!(h.record_upload_delta(3), (None, None));
        assert_eq!(h.neighbours(), &[1, 2]);
        // Its count now reaches 2's count with newer recency: replaces.
        assert_eq!(h.record_upload_delta(3), (Some(3), Some(2)));
        assert!(h.contains(3) && !h.contains(2));
        // Member re-sort: no membership change.
        assert_eq!(h.record_upload_delta(3), (None, None));
    }

    #[test]
    fn reset_matches_fresh_instance() {
        let mut lru = Lru::new(3);
        for p in [1, 2, 3, 4] {
            lru.record_upload(p);
        }
        lru.reset(2);
        assert!(lru.neighbours().is_empty());
        assert!(!lru.contains(4));
        lru.record_upload(9);
        assert_eq!((lru.neighbours(), lru.capacity()), (&[9][..], 2));

        let mut h = History::new(3);
        for p in [1, 1, 2] {
            h.record_upload(p);
        }
        h.reset(3);
        let mut fresh = History::new(3);
        // Same uploads replayed into reset and fresh must agree exactly
        // (a leaked count or clock would reorder the tie-break).
        for p in [5, 6, 6, 5] {
            h.record_upload(p);
            fresh.record_upload(p);
        }
        assert_eq!(h.neighbours(), fresh.neighbours());

        let mut rare = RareLru::new(2, 5);
        rare.record_upload_with_popularity(1, 2);
        rare.reset(2, 0);
        assert!(rare.neighbours().is_empty());
        assert_eq!(rare.record_upload_delta(1, 1), (None, None), "cutoff 0");
    }

    #[test]
    fn renew_replays_the_construction_draw_sequence() {
        let candidates: Vec<Peer> = (0..80).collect();
        for kind in [
            PolicyKind::Lru,
            PolicyKind::History,
            PolicyKind::Random,
            PolicyKind::RareLru { max_sources: 4 },
        ] {
            // A dirtied pooled instance renewed with rng state R must
            // equal a fresh instance built from the same R — including
            // which draws Random consumes.
            let mut pooled = AnyPolicy::new(kind, 6, 1, &candidates, &mut StdRng::seed_from_u64(9));
            pooled.record_upload_with_popularity(7, 1);
            pooled.record_upload_with_popularity(8, 1);
            let mut rng_a = StdRng::seed_from_u64(42);
            let mut rng_b = StdRng::seed_from_u64(42);
            pooled.renew(kind, 5, 2, &candidates, &mut rng_a);
            let fresh = AnyPolicy::new(kind, 5, 2, &candidates, &mut rng_b);
            assert_eq!(pooled.neighbours(), fresh.neighbours(), "{kind:?}");
            assert_eq!(pooled.capacity(), fresh.capacity(), "{kind:?}");
            // And the rng must end in the same state.
            use rand::RngCore;
            assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{kind:?}");
        }
        // Kind changes fall back to fresh construction.
        let mut p = AnyPolicy::new(
            PolicyKind::Lru,
            3,
            0,
            &candidates,
            &mut StdRng::seed_from_u64(1),
        );
        p.renew(
            PolicyKind::History,
            4,
            0,
            &candidates,
            &mut StdRng::seed_from_u64(1),
        );
        assert!(matches!(p, AnyPolicy::History(_)));
        assert_eq!(p.capacity(), 4);
    }

    #[test]
    fn renew_drawn_adopts_the_constructed_list() {
        let candidates: Vec<Peer> = (0..80).collect();
        for kind in [
            PolicyKind::Lru,
            PolicyKind::History,
            PolicyKind::Random,
            PolicyKind::RareLru { max_sources: 4 },
        ] {
            // A dirtied pooled instance renewed from a constructed
            // list behaves exactly like the constructed instance.
            let mut fresh = AnyPolicy::new(kind, 5, 2, &candidates, &mut StdRng::seed_from_u64(42));
            let mut pooled = AnyPolicy::from_drawn(kind, 6, 1, &[3, 4]);
            pooled.record_upload_with_popularity(7, 1);
            pooled.renew_drawn(kind, 5, 2, fresh.neighbours());
            assert_eq!(pooled.neighbours(), fresh.neighbours(), "{kind:?}");
            assert_eq!(pooled.capacity(), fresh.capacity(), "{kind:?}");
            let stale = fresh.neighbours().first().copied().unwrap_or(0);
            for p in [&mut pooled, &mut fresh] {
                p.handle_stale(stale, Some(2));
                p.handle_stale(stale, Some(79));
                p.record_upload_with_popularity(9, 1);
            }
            assert_eq!(pooled.neighbours(), fresh.neighbours(), "{kind:?}");
            assert!(
                (0..80).all(|p| pooled.contains(p) == fresh.contains(p)),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn rare_lru_staleness_evicts() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = AnyPolicy::new(PolicyKind::RareLru { max_sources: 5 }, 3, 0, &[], &mut rng);
        p.record_upload_with_popularity(4, 1);
        assert_eq!(p.handle_stale(4, None), StaleReaction::Evicted);
        assert!(p.neighbours().is_empty());
    }

    #[test]
    fn history_remove_erases_the_whole_record() {
        let mut h = History::new(2);
        for _ in 0..5 {
            h.record_upload(1);
        }
        h.record_upload(2);
        assert!(h.remove(1), "member removal succeeds");
        assert!(!h.contains(1));
        assert_eq!(h.neighbours(), &[2]);
        assert!(!h.remove(1), "already gone");
        // The counter is erased too: unlike demote, one new upload does
        // not restore the old rank.
        h.record_upload(2);
        h.record_upload(2);
        h.record_upload(1);
        assert_eq!(h.neighbours(), &[2, 1], "peer 1 re-enters at count 1");
        check_invariants(&h);
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
            let mut p = AnyPolicy::new(kind, 4, 0, &candidates, &mut rng);
            for _ in 0..3 {
                p.record_upload_with_popularity(7, 1);
            }
            assert!(p.expel(7, None), "{kind:?}");
            assert!(!p.contains(7), "{kind:?}: expelled outright, not demoted");
            assert!(!p.expel(7, None), "{kind:?}: already gone");
        }
        let mut p = AnyPolicy::new(PolicyKind::Random, 5, 0, &candidates, &mut rng);
        let target = p.neighbours()[0];
        let fresh = (0..60)
            .find(|&c| c != 0 && !p.contains(c))
            .expect("pool larger than list");
        assert!(p.expel(target, Some(fresh)));
        assert!(!p.contains(target) && p.contains(fresh));
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

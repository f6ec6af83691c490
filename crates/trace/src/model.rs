//! The trace data model: peers, files, and daily cache snapshots.
//!
//! A *trace* is what the paper's crawler produces: for each day of the
//! measurement period, the set of clients that could be browsed and, for
//! each, the list of files in its shared cache. Files and peers are
//! interned to dense `u32` indices ([`FileRef`], [`PeerId`]) so that an
//! 11-million-file trace stays compact; the intern tables keep the real
//! identities (ed2k hashes, user hashes, addresses).

use std::collections::HashMap;
use std::fmt;

use edonkey_proto::md4::Digest;
use edonkey_proto::query::FileKind;
/// Dense index of a peer within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The peer's position in [`Trace::peers`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Dense index of a file within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileRef(pub u32);

impl FileRef {
    /// The file's position in [`Trace::files`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FileRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// An ISO-3166-ish two-letter country code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode(pub [u8; 2]);

impl CountryCode {
    /// Builds a code from a two-ASCII-letter string, uppercased.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not exactly two ASCII letters — country codes are
    /// compile-time constants in this codebase.
    pub fn new(s: &str) -> Self {
        let bytes = s.as_bytes();
        assert!(
            bytes.len() == 2 && bytes.iter().all(u8::is_ascii_alphabetic),
            "country code must be two ASCII letters, got {s:?}"
        );
        CountryCode([bytes[0].to_ascii_uppercase(), bytes[1].to_ascii_uppercase()])
    }

    /// The code as a string slice.
    pub fn as_str(&self) -> &str {
        // The constructor guarantees ASCII.
        std::str::from_utf8(&self.0).expect("country codes are ASCII")
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Metadata of one distinct file observed in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileInfo {
    /// The ed2k content hash.
    pub id: Digest,
    /// Size in bytes.
    pub size: u64,
    /// Media kind.
    pub kind: FileKind,
}

/// Metadata of one distinct client observed in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerInfo {
    /// The user hash (changes when the user reinstalls the client).
    pub uid: Digest,
    /// IPv4 address (changes under DHCP).
    pub ip: u32,
    /// Country the address maps to.
    pub country: CountryCode,
    /// Autonomous system the address maps to.
    pub asn: u32,
}

/// The shared-file caches observed on one day.
///
/// Only peers that were successfully browsed that day appear; entries are
/// sorted by [`PeerId`] and each cache is a sorted, deduplicated list of
/// [`FileRef`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DaySnapshot {
    /// Absolute day number (the paper plots days ~340–400).
    pub day: u32,
    /// `(peer, sorted cache)` pairs, sorted by peer.
    pub caches: Vec<(PeerId, Vec<FileRef>)>,
}

impl DaySnapshot {
    /// Creates an empty snapshot for `day`.
    pub fn new(day: u32) -> Self {
        DaySnapshot {
            day,
            caches: Vec::new(),
        }
    }

    /// Adds a peer's cache, normalizing it to sorted/deduplicated form.
    ///
    /// # Panics
    ///
    /// Panics if the peer was already recorded for this day.
    pub(crate) fn insert(&mut self, peer: PeerId, mut cache: Vec<FileRef>) {
        cache.sort_unstable();
        cache.dedup();
        match self.caches.binary_search_by_key(&peer, |(p, _)| *p) {
            Ok(_) => panic!("peer {peer} recorded twice on day {}", self.day),
            Err(pos) => self.caches.insert(pos, (peer, cache)),
        }
    }

    /// Looks up a peer's cache for this day.
    pub(crate) fn cache_of(&self, peer: PeerId) -> Option<&[FileRef]> {
        self.caches
            .binary_search_by_key(&peer, |(p, _)| *p)
            .ok()
            .map(|i| self.caches[i].1.as_slice())
    }

    /// Number of peers observed (including empty caches).
    pub fn peer_count(&self) -> usize {
        self.caches.len()
    }
}

/// A complete crawl trace: intern tables plus daily snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Distinct files, indexed by [`FileRef`].
    pub files: Vec<FileInfo>,
    /// Distinct peers, indexed by [`PeerId`].
    pub peers: Vec<PeerInfo>,
    /// Daily snapshots, sorted by day (not necessarily contiguous).
    pub days: Vec<DaySnapshot>,
}

impl Trace {
    /// Creates an empty trace.
    pub(crate) fn new() -> Self {
        Trace {
            files: Vec::new(),
            peers: Vec::new(),
            days: Vec::new(),
        }
    }

    /// First observed day, if any.
    pub(crate) fn first_day(&self) -> Option<u32> {
        self.days.first().map(|d| d.day)
    }

    /// Last observed day, if any.
    pub(crate) fn last_day(&self) -> Option<u32> {
        self.days.last().map(|d| d.day)
    }

    /// The snapshot for an absolute day number, if the crawler ran then.
    pub fn snapshot(&self, day: u32) -> Option<&DaySnapshot> {
        self.days
            .binary_search_by_key(&day, |s| s.day)
            .ok()
            .map(|i| &self.days[i])
    }

    /// Union of every cache each peer was ever observed with — the
    /// "static" view used by the paper's Section 5 simulations and the
    /// filtered-trace CDFs.
    ///
    /// The result has one (possibly empty) sorted cache per peer.
    pub fn static_caches(&self) -> Vec<Vec<FileRef>> {
        let mut caches: Vec<Vec<FileRef>> = vec![Vec::new(); self.peers.len()];
        for day in &self.days {
            for (peer, cache) in &day.caches {
                caches[peer.index()].extend(cache.iter().copied());
            }
        }
        for cache in &mut caches {
            cache.sort_unstable();
            cache.dedup();
        }
        caches
    }

    /// Number of successful `(peer, day)` snapshots, the "successful
    /// snapshots" row of Table 1.
    pub fn snapshot_count(&self) -> usize {
        self.days.iter().map(|d| d.peer_count()).sum()
    }

    /// Days on which each peer was observed, indexed by peer.
    pub(crate) fn observation_days(&self) -> Vec<Vec<u32>> {
        let mut result = vec![Vec::new(); self.peers.len()];
        for day in &self.days {
            for (peer, _) in &day.caches {
                result[peer.index()].push(day.day);
            }
        }
        result
    }

    /// Validates internal invariants; used by tests and after I/O.
    ///
    /// Checks: days sorted strictly; caches sorted by peer; cache entries
    /// sorted, deduplicated and in-range; peer ids in range.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.days.windows(2) {
            if w[0].day >= w[1].day {
                return Err(format!(
                    "days not strictly sorted: {} {}",
                    w[0].day, w[1].day
                ));
            }
        }
        for snap in &self.days {
            for w in snap.caches.windows(2) {
                if w[0].0 >= w[1].0 {
                    return Err(format!("day {}: caches not sorted by peer", snap.day));
                }
            }
            for (peer, cache) in &snap.caches {
                if peer.index() >= self.peers.len() {
                    return Err(format!("day {}: peer {peer} out of range", snap.day));
                }
                for w in cache.windows(2) {
                    if w[0] >= w[1] {
                        return Err(format!(
                            "day {}: cache of {peer} not sorted/deduped",
                            snap.day
                        ));
                    }
                }
                if let Some(f) = cache.iter().find(|f| f.index() >= self.files.len()) {
                    return Err(format!("day {}: file {f} out of range", snap.day));
                }
            }
        }
        Ok(())
    }
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

/// Incremental trace builder that interns file and peer identities.
///
/// The crawler (and the synthetic generator) feed observations through
/// this builder; it assigns dense ids in first-seen order.
///
/// # Examples
///
/// ```
/// use edonkey_trace::model::{TraceBuilder, FileInfo, PeerInfo, CountryCode};
/// use edonkey_proto::md4::Md4;
/// use edonkey_proto::query::FileKind;
///
/// let mut b = TraceBuilder::new();
/// let peer = b.intern_peer(PeerInfo {
///     uid: Md4::digest(b"user-1"),
///     ip: 0x0a000001,
///     country: CountryCode::new("fr"),
///     asn: 3215,
/// });
/// let file = b.intern_file(FileInfo {
///     id: Md4::digest(b"file-1"),
///     size: 4_000_000,
///     kind: FileKind::Audio,
/// });
/// b.observe(350, peer, vec![file]);
/// let trace = b.finish();
/// assert_eq!(trace.snapshot(350).unwrap().caches, vec![(peer, vec![file])]);
/// ```
pub struct TraceBuilder {
    files: Vec<FileInfo>,
    file_index: HashMap<Digest, FileRef>,
    peers: Vec<PeerInfo>,
    peer_index: HashMap<Digest, PeerId>,
    days: HashMap<u32, DaySnapshot>,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TraceBuilder {
            files: Vec::new(),
            file_index: HashMap::new(),
            peers: Vec::new(),
            peer_index: HashMap::new(),
            days: HashMap::new(),
        }
    }

    /// Interns a file by its ed2k hash, returning its dense ref.
    ///
    /// The first observation of a hash fixes its metadata; later calls
    /// with the same hash return the existing ref without comparing
    /// metadata (real crawls see conflicting metadata for one hash).
    pub fn intern_file(&mut self, info: FileInfo) -> FileRef {
        if let Some(&fref) = self.file_index.get(&info.id) {
            return fref;
        }
        let fref = FileRef(self.files.len() as u32);
        self.file_index.insert(info.id, fref);
        self.files.push(info);
        fref
    }

    /// Interns a peer by user hash, returning its dense id.
    ///
    /// Metadata (IP!) is taken from the *first* observation; the
    /// filtering pipeline handles duplicate IPs and uids.
    pub fn intern_peer(&mut self, info: PeerInfo) -> PeerId {
        if let Some(&pid) = self.peer_index.get(&info.uid) {
            return pid;
        }
        let pid = PeerId(self.peers.len() as u32);
        self.peer_index.insert(info.uid, pid);
        self.peers.push(info);
        pid
    }

    /// Records a successful browse of `peer` on `day`.
    ///
    /// # Panics
    ///
    /// Panics if the same peer is recorded twice on one day (the crawler
    /// de-duplicates per day before recording).
    pub fn observe(&mut self, day: u32, peer: PeerId, cache: Vec<FileRef>) {
        self.days
            .entry(day)
            .or_insert_with(|| DaySnapshot::new(day))
            .insert(peer, cache);
    }

    /// Whether a peer was already recorded on a given day.
    pub fn observed_on(&self, day: u32, peer: PeerId) -> bool {
        self.days
            .get(&day)
            .is_some_and(|s| s.cache_of(peer).is_some())
    }

    /// Removes and returns a completed day's snapshot, keeping the
    /// intern tables.
    ///
    /// This is the streaming hook: a producer that finishes its days in
    /// order (the crawler) can hand each one to a
    /// [`TraceWriter`](crate::io::bin::TraceWriter) as it completes,
    /// instead of accumulating the whole trace in memory.
    pub fn take_day(&mut self, day: u32) -> Option<DaySnapshot> {
        self.days.remove(&day)
    }

    /// The file intern table built so far.
    pub fn files(&self) -> &[FileInfo] {
        &self.files
    }

    /// The peer intern table built so far.
    pub fn peers(&self) -> &[PeerInfo] {
        &self.peers
    }

    /// Finalizes the trace, sorting snapshots by day.
    pub fn finish(self) -> Trace {
        let mut days: Vec<DaySnapshot> = self.days.into_values().collect();
        days.sort_by_key(|d| d.day);
        let trace = Trace {
            files: self.files,
            peers: self.peers,
            days,
        };
        debug_assert_eq!(trace.check_invariants(), Ok(()));
        trace
    }
}

impl Default for TraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;

    fn file(n: u64) -> FileInfo {
        FileInfo {
            id: Md4::digest(&n.to_le_bytes()),
            size: 1000 * n,
            kind: FileKind::Audio,
        }
    }

    fn peer(n: u64) -> PeerInfo {
        PeerInfo {
            uid: Md4::digest(format!("peer{n}").as_bytes()),
            ip: n as u32,
            country: CountryCode::new("FR"),
            asn: 3215,
        }
    }

    #[test]
    fn country_code_normalizes_case() {
        assert_eq!(CountryCode::new("fr"), CountryCode::new("FR"));
        assert_eq!(CountryCode::new("de").as_str(), "DE");
        assert_eq!(format!("{}", CountryCode::new("es")), "ES");
    }

    #[test]
    #[should_panic(expected = "two ASCII letters")]
    fn country_code_rejects_junk() {
        let _ = CountryCode::new("F1");
    }

    #[test]
    fn builder_interns_by_identity() {
        let mut b = TraceBuilder::new();
        let f1 = b.intern_file(file(1));
        let f1_again = b.intern_file(file(1));
        let f2 = b.intern_file(file(2));
        assert_eq!(f1, f1_again);
        assert_ne!(f1, f2);
        let p1 = b.intern_peer(peer(1));
        let p1_again = b.intern_peer(peer(1));
        assert_eq!(p1, p1_again);
        assert_eq!(b.peer_index.get(&peer(1).uid), Some(&p1));
        assert_eq!(b.peer_index.get(&peer(9).uid), None);
    }

    #[test]
    fn snapshot_normalizes_caches() {
        let mut snap = DaySnapshot::new(350);
        let (a, b, c) = (FileRef(3), FileRef(1), FileRef(3));
        snap.insert(PeerId(0), vec![a, b, c]);
        assert_eq!(snap.cache_of(PeerId(0)).unwrap(), &[FileRef(1), FileRef(3)]);
        assert_eq!(snap.cache_of(PeerId(1)), None);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn double_observation_panics() {
        let mut snap = DaySnapshot::new(350);
        snap.insert(PeerId(0), vec![]);
        snap.insert(PeerId(0), vec![]);
    }

    #[test]
    fn static_caches_take_union() {
        let mut b = TraceBuilder::new();
        let p = b.intern_peer(peer(1));
        let q = b.intern_peer(peer(2));
        let f1 = b.intern_file(file(1));
        let f2 = b.intern_file(file(2));
        b.observe(350, p, vec![f1]);
        b.observe(351, p, vec![f2]);
        b.observe(351, q, vec![]);
        let trace = b.finish();
        let caches = trace.static_caches();
        assert_eq!(caches[p.index()], vec![f1, f2]);
        assert!(caches[q.index()].is_empty());
        assert_eq!(trace.snapshot_count(), 3);
    }

    #[test]
    fn invariants_catch_corruption() {
        let mut b = TraceBuilder::new();
        let p = b.intern_peer(peer(1));
        let f = b.intern_file(file(1));
        b.observe(350, p, vec![f]);
        let mut trace = b.finish();
        assert_eq!(trace.check_invariants(), Ok(()));
        trace.days[0].caches[0].1.push(FileRef(99));
        assert!(trace.check_invariants().is_err());
    }

    #[test]
    fn take_day_drains_snapshots_but_keeps_tables() {
        let mut b = TraceBuilder::new();
        let p = b.intern_peer(peer(1));
        let f = b.intern_file(file(1));
        b.observe(350, p, vec![f]);
        b.observe(351, p, vec![]);
        let snap = b.take_day(350).expect("day 350 exists");
        assert_eq!(snap.cache_of(p).unwrap(), &[f]);
        assert!(b.take_day(350).is_none(), "take_day removes the snapshot");
        assert_eq!(b.files().len(), 1);
        assert_eq!(b.peers().len(), 1);
        // The remaining day still finishes into a valid trace.
        let trace = b.finish();
        assert_eq!(trace.days.len(), 1);
        assert_eq!(trace.days[0].day, 351);
    }

    #[test]
    fn observation_days_per_peer() {
        let mut b = TraceBuilder::new();
        let p = b.intern_peer(peer(1));
        let q = b.intern_peer(peer(2));
        b.observe(350, p, vec![]);
        b.observe(352, p, vec![]);
        b.observe(351, q, vec![]);
        let trace = b.finish();
        let days = trace.observation_days();
        assert_eq!(days[p.index()], vec![350, 352]);
        assert_eq!(days[q.index()], vec![351]);
    }
}

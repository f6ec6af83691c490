//! The trace data model: peers, files, and the builder that records
//! daily cache snapshots.
//!
//! A *trace* is what the paper's crawler produces: for each day of the
//! measurement period, the set of clients that could be browsed and, for
//! each, the list of files in its shared cache. Files and peers are
//! interned to dense `u32` indices ([`FileRef`], [`PeerId`]) so that an
//! 11-million-file trace stays compact; the intern tables keep the real
//! identities (ed2k hashes, user hashes, addresses). The trace itself is
//! [`TraceArena`], one CSR [`DayArena`] per day.

use std::collections::HashMap;
use std::fmt;

use edonkey_proto::md4::Digest;
use edonkey_proto::query::FileKind;

use crate::compact::{DayArena, TraceArena};

/// The trace type's former name, kept for the `benchmark` binary,
/// which names it; new code names [`TraceArena`].
pub type Trace = TraceArena;

/// Dense index of a peer within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The peer's position in [`TraceArena::peers`].
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
    /// The file's position in [`TraceArena::files`].
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

/// Incremental trace builder that interns file and peer identities.
///
/// The crawler (and the synthetic generator) feed observations through
/// this builder; it assigns dense ids in first-seen order. A day's rows
/// may arrive in any peer order; taking the day (or finishing) packs it
/// into a [`DayArena`] sorted by peer.
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
/// assert_eq!(trace.days[0].day, 350);
/// assert_eq!(trace.days[0].iter().collect::<Vec<_>>(), vec![(peer.0, &[file][..])]);
/// ```
pub struct TraceBuilder {
    files: Vec<FileInfo>,
    file_index: HashMap<Digest, FileRef>,
    peers: Vec<PeerInfo>,
    peer_index: HashMap<Digest, PeerId>,
    /// Open days: their rows in recording order, and one bit per peer
    /// recorded on the day.
    days: HashMap<u32, (DayArena, Vec<u64>)>,
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

    /// Records a successful browse of `peer` on `day`; the cache is
    /// sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `peer` was not interned, or if the same peer is
    /// recorded twice on one day (the crawler de-duplicates per day
    /// before recording).
    pub fn observe(&mut self, day: u32, peer: PeerId, cache: impl IntoIterator<Item = FileRef>) {
        assert!(
            peer.index() < self.peers.len(),
            "peer {peer} recorded on day {day} was never interned"
        );
        let (rows, seen) = self
            .days
            .entry(day)
            .or_insert_with(|| (DayArena::new(day), Vec::new()));
        let (word, bit) = (peer.index() / 64, 1u64 << (peer.0 % 64));
        if seen.len() <= word {
            seen.resize(word + 1, 0);
        }
        assert!(
            seen[word] & bit == 0,
            "peer {peer} recorded twice on day {day}"
        );
        seen[word] |= bit;
        rows.push_row(peer.0, cache);
    }

    /// Whether a peer was already recorded on a given day.
    pub fn observed_on(&self, day: u32, peer: PeerId) -> bool {
        self.days.get(&day).is_some_and(|(_, seen)| {
            seen.get(peer.index() / 64)
                .is_some_and(|w| w & (1u64 << (peer.0 % 64)) != 0)
        })
    }

    /// Removes a completed day and returns it packed in peer order,
    /// keeping the intern tables.
    ///
    /// This is the streaming hook: a producer that finishes its days in
    /// order (the crawler) can hand each one to a
    /// [`TraceWriter`](crate::io::bin::TraceWriter) as it completes,
    /// instead of accumulating the whole trace in memory.
    pub fn take_day(&mut self, day: u32) -> Option<DayArena> {
        self.days.remove(&day).map(|(rows, _)| pack(rows))
    }

    /// The file intern table built so far.
    pub fn files(&self) -> &[FileInfo] {
        &self.files
    }

    /// The peer intern table built so far.
    pub fn peers(&self) -> &[PeerInfo] {
        &self.peers
    }

    /// Finalizes the trace: every open day packed, sorted by day.
    pub fn finish(self) -> TraceArena {
        let mut days: Vec<DayArena> = self
            .days
            .into_values()
            .map(|(rows, _)| pack(rows))
            .collect();
        days.sort_unstable_by_key(|d| d.day);
        let trace = TraceArena {
            files: self.files,
            peers: self.peers,
            days,
        };
        debug_assert_eq!(trace.check_invariants(), Ok(()));
        trace
    }
}

/// Packs one day's recorded rows in peer order.
fn pack(rows: DayArena) -> DayArena {
    rows.into_peer_order()
        .expect("observe records each peer once per day")
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
    fn builder_packs_days_in_peer_order() {
        let mut b = TraceBuilder::new();
        let (p, q) = (b.intern_peer(peer(1)), b.intern_peer(peer(2)));
        let (f1, f3) = (b.intern_file(file(1)), b.intern_file(file(3)));
        b.observe(350, q, vec![]);
        b.observe(350, p, vec![f3, f1, f3]);
        assert!(b.observed_on(350, p) && b.observed_on(350, q));
        assert!(!b.observed_on(351, p), "no row on another day");
        let trace = b.finish();
        assert_eq!(
            trace.days[0].iter().collect::<Vec<_>>(),
            vec![(p.0, &[f1, f3][..]), (q.0, &[][..])]
        );
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn double_observation_panics() {
        let mut b = TraceBuilder::new();
        let p = b.intern_peer(peer(1));
        b.observe(350, p, vec![]);
        b.observe(350, p, vec![]);
    }

    #[test]
    fn take_day_drains_snapshots_but_keeps_tables() {
        let mut b = TraceBuilder::new();
        let p = b.intern_peer(peer(1));
        let f = b.intern_file(file(1));
        b.observe(350, p, vec![f]);
        b.observe(351, p, vec![]);
        let day = b.take_day(350).expect("day 350 exists");
        assert_eq!(day.iter().collect::<Vec<_>>(), vec![(p.0, &[f][..])]);
        assert!(b.take_day(350).is_none(), "take_day removes the day");
        assert!(!b.observed_on(350, p), "nor is the peer recorded there");
        assert_eq!(b.files().len(), 1);
        assert_eq!(b.peers().len(), 1);
        // The remaining day still finishes into a valid trace.
        let trace = b.finish();
        assert_eq!(trace.days.len(), 1);
        assert_eq!(trace.days[0].day, 351);
    }
}

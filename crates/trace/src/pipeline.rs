//! The full → filtered → extrapolated trace pipeline of Section 2.3.
//!
//! * **Filtering** removes client aliasing: *"Clients sometimes change
//!   either their IP address (DHCP) or unique identifier by reinstalling
//!   the software… we removed all clients sharing either the same IP
//!   address or the same unique identifier (and kept the free riders)."*
//! * **Extrapolation** keeps clients *"connected at least 5 times over the
//!   period, with at least 10 days between the first and the last
//!   connection"* and fills every missed day in between with *"the
//!   intersection of the files at the previous and at the subsequent
//!   connection"* — a deliberately pessimistic reconstruction.

use std::collections::HashMap;
use std::path::Path;

use crate::compact::{DayArena, TraceArena};
use crate::io::bin::{TraceReader, TraceWriter};
use crate::io::TraceIoError;
use crate::model::{FileRef, PeerId, PeerInfo};
use crate::par::parallel_map_init_threads;

/// Knobs for [`extrapolate_arena`], defaulting to the paper's values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtrapolateConfig {
    /// Minimum number of successful snapshots per client (paper: 5).
    pub min_snapshots: usize,
    /// Minimum span in days between first and last snapshot (paper: 10).
    pub min_span_days: u32,
}

impl Default for ExtrapolateConfig {
    fn default() -> Self {
        ExtrapolateConfig {
            min_snapshots: 5,
            min_span_days: 10,
        }
    }
}

/// Result of a pipeline stage: the derived trace plus the mapping from new
/// peer ids back to the source trace's ids.
///
/// Analyses that compare stages (e.g. Table 1) need to know which original
/// client each retained client was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivedArena {
    /// The derived trace, with peers re-indexed densely.
    pub arena: TraceArena,
    /// `kept[i]` is the source-trace id of the derived trace's peer `i`.
    pub kept: Vec<PeerId>,
}

/// Restricts a trace to a subset of its peers, re-indexing them densely
/// (file refs are preserved, so file-level series stay comparable across
/// stages). The oracle of [`retain_peers_arena`]: a hash-map remap, one
/// row at a time.
pub fn retain_peers(trace: &TraceArena, keep: impl Fn(PeerId) -> bool) -> DerivedArena {
    let mut kept = Vec::new();
    let mut remap: HashMap<u32, u32> = HashMap::new();
    for idx in 0..trace.peers.len() as u32 {
        if keep(PeerId(idx)) {
            remap.insert(idx, kept.len() as u32);
            kept.push(PeerId(idx));
        }
    }
    let peers = kept
        .iter()
        .map(|p| trace.peers[p.index()].clone())
        .collect();
    let mut days = Vec::with_capacity(trace.days.len());
    for day in &trace.days {
        // Dense remapping preserves relative order, so the rows stay
        // sorted by the new ids.
        let mut out = DayArena::new(day.day);
        for (p, cache) in day.iter() {
            if let Some(&new) = remap.get(&p) {
                out.push_row(new, cache.iter().copied());
            }
        }
        days.push(out);
    }
    let arena = TraceArena {
        files: trace.files.clone(),
        peers,
        days,
    };
    debug_assert_eq!(arena.check_invariants(), Ok(()));
    DerivedArena { arena, kept }
}

/// A peer's slot in a dense remap table when the stage drops it.
const DROPPED: u32 = u32::MAX;

/// The dense renumbering of the peers `keep` accepts: `kept[new]` is
/// the source id of new peer `new`, `remap[old]` is `old`'s new id or
/// [`DROPPED`], and the third part is the kept peers' table in new-id
/// order.
fn dense_remap(
    peers: &[PeerInfo],
    keep: impl Fn(PeerId) -> bool,
) -> (Vec<PeerId>, Vec<u32>, Vec<PeerInfo>) {
    let mut kept = Vec::new();
    let mut remap = vec![DROPPED; peers.len()];
    for (idx, slot) in remap.iter_mut().enumerate() {
        let old = PeerId(idx as u32);
        if keep(old) {
            *slot = kept.len() as u32;
            kept.push(old);
        }
    }
    let kept_peers = kept.iter().map(|p| peers[p.index()].clone()).collect();
    (kept, remap, kept_peers)
}

/// Writes `day`'s rows of the peers `remap` keeps into `out` (cleared
/// first, then sized exactly from one counting pass), renumbered to
/// their new ids. Dense remapping preserves relative order, so the
/// output rows stay sorted by the new ids.
fn remap_day_into(day: &DayArena, remap: &[u32], out: &mut DayArena) {
    let mut n_rows = 0usize;
    let mut n_entries = 0usize;
    for (i, &p) in day.peers.iter().enumerate() {
        if remap[p as usize] != DROPPED {
            n_rows += 1;
            n_entries += day.row(i).len();
        }
    }
    out.day = day.day;
    out.peers.clear();
    out.offsets.clear();
    out.entries.clear();
    out.peers.reserve_exact(n_rows);
    out.offsets.reserve_exact(n_rows + 1);
    out.entries.reserve_exact(n_entries);
    out.offsets.push(0);
    for (i, &p) in day.peers.iter().enumerate() {
        let new = remap[p as usize];
        if new != DROPPED {
            out.peers.push(new);
            out.entries.extend_from_slice(day.row(i));
            out.offsets.push(out.entries.len() as u32);
        }
    }
}

/// Restricts a trace to a subset of its peers, re-indexing them densely
/// (file refs are preserved, so file-level series stay comparable across
/// stages).
///
/// The peer remap is a flat array (no hashing), each output day is
/// sized exactly from one counting pass, and surviving cache rows are
/// copied as slices.
pub fn retain_peers_arena(arena: &TraceArena, keep: impl Fn(PeerId) -> bool) -> DerivedArena {
    let (kept, remap, peers) = dense_remap(&arena.peers, keep);
    let days = arena
        .days
        .iter()
        .map(|day| {
            let mut out = DayArena::new(day.day);
            remap_day_into(day, &remap, &mut out);
            out
        })
        .collect();
    let arena = TraceArena {
        files: arena.files.clone(),
        peers,
        days,
    };
    debug_assert_eq!(arena.check_invariants(), Ok(()));
    DerivedArena { arena, kept }
}

/// The Section 2.3 filter rule, fed the trace one day at a time: a peer
/// is dropped when it ever shared a file *and* its IP or user id
/// collides with another peer's. [`filter_arena`] and
/// [`filter_streaming`] both apply it; the row [`filter`] states the
/// rule on its own and is their oracle.
struct AliasRule {
    /// `shared[p]`: peer `p` shared a file on some observed day.
    shared: Vec<bool>,
}

impl AliasRule {
    fn new(n_peers: usize) -> Self {
        AliasRule {
            shared: vec![false; n_peers],
        }
    }

    /// Records which peers share a file on `day`. "Ever shared?" needs
    /// no union materialization in CSR form: one bit per peer.
    fn observe(&mut self, day: &DayArena) {
        for (peer, row) in day.iter() {
            if !row.is_empty() {
                self.shared[peer as usize] = true;
            }
        }
    }

    /// The keep predicate over the peer table, once every day has been
    /// observed.
    fn keep(self, peers: &[PeerInfo]) -> impl Fn(PeerId) -> bool + '_ {
        let mut by_ip: HashMap<u32, u32> = HashMap::new();
        let mut by_uid: HashMap<[u8; 16], u32> = HashMap::new();
        for peer in peers {
            *by_ip.entry(peer.ip).or_insert(0) += 1;
            *by_uid.entry(peer.uid.0).or_insert(0) += 1;
        }
        move |p| {
            let info = &peers[p.index()];
            let aliased = by_ip[&info.ip] > 1 || by_uid[&info.uid.0] > 1;
            !self.shared[p.index()] || !aliased
        }
    }
}

/// Produces the paper's **filtered trace**: drops every *sharing* client
/// whose IP or user id collides with another client's, keeping
/// free-riders.
///
/// Rationale: an alias pair would count one human twice and inflate
/// clustering (a peer trivially "shares interests" with its own alias).
/// Free-riding aliases carry no files, so they are harmless and the paper
/// keeps them — and indeed observes that the free-rider *fraction* drops
/// from 84 % to 70 % after filtering. [`filter`] states the same rule
/// on its own and is this function's oracle.
pub fn filter_arena(arena: &TraceArena) -> DerivedArena {
    let mut rule = AliasRule::new(arena.peers.len());
    for day in &arena.days {
        rule.observe(day);
    }
    retain_peers_arena(arena, rule.keep(&arena.peers))
}

/// One observation in the flattened per-client series: which day, and
/// where its row lives (day-section index + row index).
#[derive(Clone, Copy)]
struct Obs {
    day: u32,
    sec: u32,
    row: u32,
}

/// Produces the paper's **extrapolated trace**.
///
/// Keeps peers meeting the [`ExtrapolateConfig`] thresholds, then for each
/// retained peer fills every *missed* day strictly between two
/// observations with the intersection of the surrounding observed caches.
/// Days before the first or after the last observation stay absent.
///
/// The output trace has one day per day in the full observation range
/// (even if empty), matching how the paper plots per-day series.
/// Clients are sharded over the parallel runner; see
/// [`extrapolate_arena_with_threads`] for the determinism contract, and
/// [`extrapolate`] for the oracle.
pub fn extrapolate_arena(arena: &TraceArena, config: ExtrapolateConfig) -> DerivedArena {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    extrapolate_arena_with_threads(arena, config, threads)
}

/// [`extrapolate_arena`] with an explicit worker count.
///
/// Each client's day-intersection chain is independent, so clients are
/// sharded in fixed-size chunks over the parallel runner; every worker
/// reuses one intersection scratch buffer across its chunks instead of
/// allocating per gap. Chunk boundaries depend only on the client count
/// and results are assembled in client order, so the output is
/// bit-identical to the sequential oracle for any thread count.
pub fn extrapolate_arena_with_threads(
    arena: &TraceArena,
    config: ExtrapolateConfig,
    threads: usize,
) -> DerivedArena {
    // Eligibility thresholds, computed in one pass over the day rows.
    let n_input = arena.peers.len();
    let mut count = vec![0u32; n_input];
    let mut first_obs = vec![u32::MAX; n_input];
    let mut last_obs = vec![0u32; n_input];
    for day in &arena.days {
        for &p in &day.peers {
            let p = p as usize;
            count[p] += 1;
            if first_obs[p] == u32::MAX {
                first_obs[p] = day.day;
            }
            last_obs[p] = day.day;
        }
    }
    let eligible = retain_peers_arena(arena, |p| {
        let i = p.index();
        let span = if count[i] == 0 {
            0
        } else {
            last_obs[i] - first_obs[i]
        };
        count[i] as usize >= config.min_snapshots && span >= config.min_span_days
    });

    let et = &eligible.arena;
    let (Some(first), Some(last)) = (
        et.days.first().map(|d| d.day),
        et.days.last().map(|d| d.day),
    ) else {
        return eligible; // No snapshots at all; nothing to extrapolate.
    };

    // Flatten the per-client observation series (client-major, day
    // order) with a counting layout — no per-client Vec.
    let n = et.peers.len();
    let mut series_off = vec![0u32; n + 1];
    for day in &et.days {
        for &p in &day.peers {
            series_off[p as usize + 1] += 1;
        }
    }
    for i in 1..series_off.len() {
        series_off[i] += series_off[i - 1];
    }
    let mut obs = vec![
        Obs {
            day: 0,
            sec: 0,
            row: 0
        };
        series_off[n] as usize
    ];
    let mut cursor = series_off.clone();
    for (sec, day) in et.days.iter().enumerate() {
        for (row, &p) in day.peers.iter().enumerate() {
            let slot = cursor[p as usize];
            obs[slot as usize] = Obs {
                day: day.day,
                sec: sec as u32,
                row: row as u32,
            };
            cursor[p as usize] += 1;
        }
    }

    // Shard clients into fixed-size chunks (a function of the client
    // count only — never of the thread count) and fill each chunk's
    // rows independently. Rows are `(client, day_idx, len)` with the
    // cache bytes appended to the chunk's entry buffer in the same
    // order.
    let chunk_size = (n / 128).max(1);
    let chunks: Vec<(usize, usize)> = (0..n)
        .step_by(chunk_size)
        .map(|s| (s, (s + chunk_size).min(n)))
        .collect();
    struct FillChunk {
        rows: Vec<(u32, u32, u32)>,
        entries: Vec<FileRef>,
    }
    let fills: Vec<FillChunk> = parallel_map_init_threads(
        &chunks,
        threads,
        Vec::new,
        |scratch: &mut Vec<FileRef>, &(lo, hi)| {
            let mut chunk = FillChunk {
                rows: Vec::new(),
                entries: Vec::new(),
            };
            for p in lo..hi {
                let series = &obs[series_off[p] as usize..series_off[p + 1] as usize];
                for pair in series.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    if b.day - a.day < 2 {
                        continue;
                    }
                    // Pessimistic fill: the intersection of the two
                    // surrounding observations, computed once per gap
                    // into the worker's reusable scratch.
                    let cache_a = et.days[a.sec as usize].row(a.row as usize);
                    let cache_b = et.days[b.sec as usize].row(b.row as usize);
                    sorted_intersection_into(cache_a, cache_b, scratch);
                    for day in a.day + 1..b.day {
                        chunk
                            .rows
                            .push((p as u32, day - first, scratch.len() as u32));
                        chunk.entries.extend_from_slice(scratch);
                    }
                }
                for o in series {
                    let row = et.days[o.sec as usize].row(o.row as usize);
                    chunk.rows.push((p as u32, o.day - first, row.len() as u32));
                    chunk.entries.extend_from_slice(row);
                }
            }
            chunk
        },
    );

    // Sequential assembly in chunk (= client) order: count rows and
    // entries per output day, size each day exactly, then place. Each
    // client contributes at most one row per day, so per-day rows come
    // out sorted by peer id by construction.
    let n_days = (last - first + 1) as usize;
    let mut day_rows = vec![0usize; n_days];
    let mut day_entries = vec![0usize; n_days];
    for chunk in &fills {
        for &(_, d, len) in &chunk.rows {
            day_rows[d as usize] += 1;
            day_entries[d as usize] += len as usize;
        }
    }
    let mut days: Vec<DayArena> = (0..n_days)
        .map(|i| {
            let mut day = DayArena {
                day: first + i as u32,
                peers: Vec::with_capacity(day_rows[i]),
                offsets: Vec::with_capacity(day_rows[i] + 1),
                entries: Vec::with_capacity(day_entries[i]),
            };
            day.offsets.push(0);
            day
        })
        .collect();
    for chunk in &fills {
        let mut taken = 0usize;
        for &(p, d, len) in &chunk.rows {
            let day = &mut days[d as usize];
            day.peers.push(p);
            day.entries
                .extend_from_slice(&chunk.entries[taken..taken + len as usize]);
            day.offsets.push(day.entries.len() as u32);
            taken += len as usize;
        }
    }

    let arena = TraceArena {
        files: et.files.clone(),
        peers: et.peers.clone(),
        days,
    };
    debug_assert_eq!(arena.check_invariants(), Ok(()));
    DerivedArena {
        arena,
        kept: eligible.kept,
    }
}

/// The oracle of [`filter_arena`]: the Section 2.3 rule stated on its
/// own, over each peer's static (union-over-days) cache.
pub fn filter(trace: &TraceArena) -> DerivedArena {
    let static_view = trace.static_arena();
    let mut by_ip: HashMap<u32, u32> = HashMap::new();
    let mut by_uid: HashMap<[u8; 16], u32> = HashMap::new();
    for peer in &trace.peers {
        *by_ip.entry(peer.ip).or_insert(0) += 1;
        *by_uid.entry(peer.uid.0).or_insert(0) += 1;
    }
    retain_peers(trace, |p| {
        let info = &trace.peers[p.index()];
        let is_free_rider = static_view.cache(p.index()).is_empty();
        let aliased = by_ip[&info.ip] > 1 || by_uid[&info.uid.0] > 1;
        is_free_rider || !aliased
    })
}

/// Outcome of a [`filter_streaming`] pass.
#[derive(Clone, Debug)]
pub struct StreamedFilter {
    /// `kept[i]` is the source-trace id of the output trace's peer `i`
    /// — the same mapping [`filter_arena`] reports in [`DerivedArena::kept`].
    pub kept: Vec<PeerId>,
    /// Day sections written to the output.
    pub days: u32,
}

/// The streaming `full → filtered` pass: reads a binary trace
/// day-at-a-time and writes the filtered binary trace, equal to what
/// the in-memory [`filter_arena`] would produce, without ever materializing
/// either whole trace.
///
/// Two passes over `input`:
///
/// 1. stream every day accumulating one bit per peer (*did this client
///    ever share a file?*) — free-rider status needs the full period;
/// 2. rewind the same reader (the intern tables are decoded once) and
///    stream again, remapping each day to the kept peers and appending
///    it to `output`.
///
/// Both passes stream days as flat CSR [`DayArena`]s, so peak resident
/// memory is one copy of the intern tables plus the day being read and
/// the day being written, not the trace: the paper-scale bottleneck was
/// holding all 56 days × 1.16 M caches at once.
pub fn filter_streaming(input: &Path, output: &Path) -> Result<StreamedFilter, TraceIoError> {
    // Pass 1: who ever shared? (The alias counts come from the peer
    // table, which the reader loads up front.) Days stream through in
    // CSR form — no per-cache allocations on either pass.
    let mut reader = TraceReader::open(input)?;
    let mut rule = AliasRule::new(reader.peers().len());
    while let Some(day) = reader.next_day_arena()? {
        rule.observe(&day);
    }
    let (kept, remap, peers) = dense_remap(reader.peers(), rule.keep(reader.peers()));

    // Pass 2: remap each CSR day and stream it out.
    reader.rewind()?;
    let mut writer = TraceWriter::create(output)?;
    let mut days = 0u32;
    let mut out = DayArena::new(0);
    while let Some(day) = reader.next_day_arena()? {
        remap_day_into(&day, &remap, &mut out);
        writer.write_day_arena(&out)?;
        days += 1;
    }
    writer.finish(reader.files(), &peers)?;
    Ok(StreamedFilter { kept, days })
}

/// The oracle of [`extrapolate_arena`]: per-peer observation series
/// and the pessimistic [`sorted_intersection`] fill, one client at a
/// time.
pub fn extrapolate(trace: &TraceArena, config: ExtrapolateConfig) -> DerivedArena {
    let mut obs_days: Vec<Vec<u32>> = vec![Vec::new(); trace.peers.len()];
    for day in &trace.days {
        for &p in &day.peers {
            obs_days[p as usize].push(day.day);
        }
    }
    let eligible = retain_peers(trace, |p| {
        let days = &obs_days[p.index()];
        days.len() >= config.min_snapshots
            && days.last().copied().unwrap_or(0) - days.first().copied().unwrap_or(0)
                >= config.min_span_days
    });

    let et = &eligible.arena;
    let (Some(first), Some(last)) = (et.days.first(), et.days.last()) else {
        return eligible; // No snapshots at all; nothing to extrapolate.
    };
    let (first, last) = (first.day, last.day);

    // Per-peer observed (day, cache) series, in day order.
    let mut series: Vec<Vec<(u32, &[FileRef])>> = vec![Vec::new(); et.peers.len()];
    for day in &et.days {
        for (peer, cache) in day.iter() {
            series[peer as usize].push((day.day, cache));
        }
    }

    // Peers in id order, each at most once per day: every output day's
    // rows come out sorted by peer.
    let mut days: Vec<DayArena> = (first..=last).map(DayArena::new).collect();
    for (peer, obs) in series.iter().enumerate() {
        let peer = peer as u32;
        for pair in obs.windows(2) {
            let (day_a, cache_a) = pair[0];
            let (day_b, cache_b) = pair[1];
            // Pessimistic fill: the intersection of the two surrounding
            // observations. Both inputs are sorted, so merge-intersect.
            let inter = sorted_intersection(cache_a, cache_b);
            for day in day_a + 1..day_b {
                days[(day - first) as usize].push_row(peer, inter.iter().copied());
            }
        }
        for &(day, cache) in obs {
            days[(day - first) as usize].push_row(peer, cache.iter().copied());
        }
    }

    let arena = TraceArena {
        files: et.files.clone(),
        peers: et.peers.clone(),
        days,
    };
    debug_assert_eq!(arena.check_invariants(), Ok(()));
    DerivedArena {
        arena,
        kept: eligible.kept,
    }
}

/// Merge-intersects two sorted, deduplicated slices.
pub fn sorted_intersection(a: &[FileRef], b: &[FileRef]) -> Vec<FileRef> {
    let mut out = Vec::new();
    sorted_intersection_into(a, b, &mut out);
    out
}

/// Size-ratio cutoff above which the intersection kernels switch from
/// the linear two-pointer merge to galloping search: past roughly this
/// skew, `short * log2(long)` comparisons beat `short + long`.
const GALLOP_CUTOFF: usize = 16;

/// Exponential (galloping) lower-bound search: the index of the first
/// element of `hay` (sorted) that is `>= needle`, assuming the caller
/// already knows the answer is `>= lo`. Doubling steps from `lo` keep
/// the probe count logarithmic in the *distance advanced*, not in
/// `hay.len()`, so a full intersection stays `O(short * log(long))`.
fn gallop_lower_bound(hay: &[FileRef], lo: usize, needle: FileRef) -> usize {
    let mut step = 1;
    let mut hi = lo;
    while hi < hay.len() && hay[hi] < needle {
        hi += step;
        step *= 2;
    }
    let lo = hi.saturating_sub(step / 2).max(lo);
    let hi = hi.min(hay.len());
    lo + hay[lo..hi].partition_point(|&x| x < needle)
}

/// Merge-intersects two sorted, deduplicated slices into a caller-owned
/// buffer (cleared first) — the allocation-free form the extrapolation
/// hot path threads through its per-worker scratch.
///
/// Balanced inputs take the linear two-pointer merge; when one side is
/// more than `GALLOP_CUTOFF`× longer (a peer's 6-file cache against a
/// blockbuster row, say) the short side gallops through the long one
/// instead, turning the cost from `O(short + long)` into
/// `O(short * log(long))`.
pub(crate) fn sorted_intersection_into(a: &[FileRef], b: &[FileRef], out: &mut Vec<FileRef>) {
    out.clear();
    intersect_sorted(a, b, |f| out.push(f));
}

/// Counts elements common to two sorted, deduplicated slices without
/// allocating. Same gallop-vs-merge selection as
/// `sorted_intersection_into`.
pub fn sorted_intersection_len(a: &[FileRef], b: &[FileRef]) -> usize {
    let mut count = 0;
    intersect_sorted(a, b, |_| count += 1);
    count
}

/// The shared intersection core: picks merge vs gallop by size ratio
/// and emits each common element, in ascending order, exactly once.
#[inline]
fn intersect_sorted(a: &[FileRef], b: &[FileRef], mut emit: impl FnMut(FileRef)) {
    // Gallop with the *short* side driving; symmetric cases swap.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len() * GALLOP_CUTOFF < long.len() {
        let mut lo = 0;
        for &needle in short {
            lo = gallop_lower_bound(long, lo, needle);
            if lo == long.len() {
                return;
            }
            if long[lo] == needle {
                emit(needle);
                lo += 1;
            }
        }
        return;
    }
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                emit(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;

    fn file_info(n: u64) -> FileInfo {
        FileInfo {
            id: Md4::digest(&n.to_le_bytes()),
            size: 1000,
            kind: FileKind::Audio,
        }
    }

    fn peer_info(n: u64, ip: u32) -> PeerInfo {
        PeerInfo {
            uid: Md4::digest(format!("peer{n}").as_bytes()),
            ip,
            country: CountryCode::new("FR"),
            asn: 3215,
        }
    }

    /// Peer `peer`'s cache on `day`, if it has a row there.
    fn cache_on(trace: &TraceArena, day: u32, peer: u32) -> Option<&[FileRef]> {
        let day = trace.days.iter().find(|d| d.day == day)?;
        day.iter().find(|&(p, _)| p == peer).map(|(_, cache)| cache)
    }

    /// Builds a trace where:
    /// * p0 and p1 share an IP and both share files (both dropped),
    /// * p2 shares the IP but is a free-rider (kept),
    /// * p3 is clean and sharing (kept).
    fn aliased_trace() -> TraceArena {
        let mut b = TraceBuilder::new();
        let p0 = b.intern_peer(peer_info(0, 99));
        let p1 = b.intern_peer(peer_info(1, 99));
        let p2 = b.intern_peer(peer_info(2, 99));
        let p3 = b.intern_peer(peer_info(3, 7));
        let f = b.intern_file(file_info(1));
        b.observe(350, p0, vec![f]);
        b.observe(350, p1, vec![f]);
        b.observe(350, p2, vec![]);
        b.observe(350, p3, vec![f]);
        b.finish()
    }

    #[test]
    fn filter_drops_sharing_aliases_keeps_free_riders() {
        let trace = aliased_trace();
        let derived = filter(&trace);
        assert_eq!(derived.kept, vec![PeerId(2), PeerId(3)]);
        assert_eq!(derived.arena.peers.len(), 2);
        // The kept sharer's cache survives under its new id.
        assert_eq!(cache_on(&derived.arena, 350, 1).unwrap().len(), 1);
        assert!(cache_on(&derived.arena, 350, 0).unwrap().is_empty());
    }

    #[test]
    fn filter_detects_uid_aliases_too() {
        // Same uid observed from two IPs: interning collapses it into one
        // peer, so simulate by distinct uids but equal IP handled above;
        // here check a duplicated uid constructed manually.
        let mut trace = aliased_trace();
        // Give p3 the same uid as p0 (bypassing the builder).
        trace.peers[3].uid = trace.peers[0].uid;
        let derived = filter(&trace);
        // Now every sharer is aliased; only the free-rider remains.
        assert_eq!(derived.kept, vec![PeerId(2)]);
    }

    #[test]
    fn streaming_filter_matches_in_memory_filter() {
        let mut trace = aliased_trace();
        // A second day with a different mix, to exercise multi-day streams.
        let mut extra = DayArena::new(351);
        extra.push_row(1, [FileRef(0)]);
        extra.push_row(3, []);
        trace.days.push(extra);
        assert_eq!(trace.check_invariants(), Ok(()));

        let dir = std::env::temp_dir().join("edonkey-pipeline-stream");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("full.edt");
        let output = dir.join("filtered.edt");
        crate::io::save_bin(&trace, &input).unwrap();

        let streamed = filter_streaming(&input, &output).unwrap();
        let in_memory = filter(&trace);
        assert_eq!(streamed.kept, in_memory.kept);
        assert_eq!(streamed.days as usize, trace.days.len());
        assert_eq!(crate::io::load_bin(&output).unwrap(), in_memory.arena);
    }

    fn observed(b: &mut TraceBuilder, peer: PeerId, days_caches: &[(u32, Vec<FileRef>)]) {
        for (day, cache) in days_caches {
            b.observe(*day, peer, cache.clone());
        }
    }

    #[test]
    fn extrapolate_selects_by_snapshots_and_span() {
        let mut b = TraceBuilder::new();
        let f = b.intern_file(file_info(1));
        // Good peer: 5 snapshots over 12 days.
        let good = b.intern_peer(peer_info(0, 1));
        observed(
            &mut b,
            good,
            &[
                (350, vec![f]),
                (353, vec![f]),
                (356, vec![f]),
                (359, vec![f]),
                (362, vec![f]),
            ],
        );
        // Too few snapshots.
        let few = b.intern_peer(peer_info(1, 2));
        observed(&mut b, few, &[(350, vec![f]), (362, vec![f])]);
        // Enough snapshots, span too short.
        let short = b.intern_peer(peer_info(2, 3));
        observed(
            &mut b,
            short,
            &[
                (350, vec![f]),
                (351, vec![f]),
                (352, vec![f]),
                (353, vec![f]),
                (354, vec![f]),
            ],
        );
        let trace = b.finish();
        let derived = extrapolate(&trace, ExtrapolateConfig::default());
        assert_eq!(derived.kept, vec![good]);
    }

    #[test]
    fn extrapolate_fills_gaps_with_intersection() {
        let mut b = TraceBuilder::new();
        let f1 = b.intern_file(file_info(1));
        let f2 = b.intern_file(file_info(2));
        let f3 = b.intern_file(file_info(3));
        let p = b.intern_peer(peer_info(0, 1));
        // Observations at 350 and 353 share {f1}; at 353 and 363 share {f1,f3}.
        observed(
            &mut b,
            p,
            &[
                (350, vec![f1, f2]),
                (353, vec![f1, f3]),
                (356, vec![f1, f3]),
                (360, vec![f1, f2, f3]),
                (363, vec![f1, f3]),
            ],
        );
        let trace = b.finish();
        let derived = extrapolate(&trace, ExtrapolateConfig::default());
        let t = &derived.arena;
        // Observed days keep their caches.
        assert_eq!(cache_on(t, 350, 0).unwrap(), &[f1, f2]);
        // Missed days 351–352 get the intersection {f1}.
        assert_eq!(cache_on(t, 351, 0).unwrap(), &[f1]);
        assert_eq!(cache_on(t, 352, 0).unwrap(), &[f1]);
        // Missed days 357–359 get {f1, f3}.
        assert_eq!(cache_on(t, 358, 0).unwrap(), &[f1, f3]);
        // Every day in range exists as a snapshot.
        assert_eq!(t.days.len(), (363 - 350 + 1) as usize);
    }

    #[test]
    fn extrapolation_is_pessimistic() {
        // The filled cache is always a subset of both surrounding
        // observations.
        let mut b = TraceBuilder::new();
        let files: Vec<FileRef> = (0..20).map(|n| b.intern_file(file_info(n))).collect();
        let p = b.intern_peer(peer_info(0, 1));
        observed(
            &mut b,
            p,
            &[
                (350, files[0..10].to_vec()),
                (355, files[5..15].to_vec()),
                (361, files[10..20].to_vec()),
            ],
        );
        let trace = b.finish();
        let derived = extrapolate(
            &trace,
            ExtrapolateConfig {
                min_snapshots: 3,
                min_span_days: 10,
            },
        );
        for day in 351..355 {
            assert_eq!(cache_on(&derived.arena, day, 0).unwrap(), &files[5..10]);
        }
        for day in 356..361 {
            assert_eq!(cache_on(&derived.arena, day, 0).unwrap(), &files[10..15]);
        }
    }

    #[test]
    fn extrapolate_empty_trace_is_empty() {
        let derived = extrapolate(&TraceArena::default(), ExtrapolateConfig::default());
        assert!(derived.arena.peers.is_empty());
        assert!(derived.arena.days.is_empty());
    }

    #[test]
    fn intersection_helpers_agree() {
        let a = vec![FileRef(1), FileRef(3), FileRef(5), FileRef(9)];
        let b = vec![FileRef(2), FileRef(3), FileRef(9), FileRef(10)];
        let inter = sorted_intersection(&a, &b);
        assert_eq!(inter, vec![FileRef(3), FileRef(9)]);
        assert_eq!(sorted_intersection_len(&a, &b), 2);
        assert_eq!(sorted_intersection_len(&a, &[]), 0);
        assert_eq!(sorted_intersection(&[], &b), Vec::<FileRef>::new());
    }

    #[test]
    fn galloping_intersection_matches_merge_on_skewed_inputs() {
        // Long side crosses the gallop cutoff; exercise the short side
        // in either argument position, at both ends of the long side,
        // and with runs that force multi-doubling gallops.
        let long: Vec<FileRef> = (0..2000).map(|k| FileRef(2 * k)).collect();
        let shorts: Vec<Vec<FileRef>> = vec![
            vec![FileRef(0), FileRef(2), FileRef(3998)],
            vec![FileRef(1), FileRef(1999), FileRef(3999)], // all misses
            vec![FileRef(1500), FileRef(1501), FileRef(1502)],
            (0..40).map(|k| FileRef(100 * k)).collect(),
            vec![FileRef(5000)], // past the end
        ];
        for short in &shorts {
            let naive: Vec<FileRef> = short
                .iter()
                .copied()
                .filter(|f| long.binary_search(f).is_ok())
                .collect();
            assert_eq!(sorted_intersection(short, &long), naive, "{short:?}");
            assert_eq!(sorted_intersection(&long, short), naive, "{short:?}");
            assert_eq!(sorted_intersection_len(short, &long), naive.len());
            assert_eq!(sorted_intersection_len(&long, short), naive.len());
        }
    }

    #[test]
    fn intersection_into_reuses_buffer() {
        let a = vec![FileRef(1), FileRef(3), FileRef(5)];
        let b = vec![FileRef(3), FileRef(5), FileRef(7)];
        let mut scratch = vec![FileRef(99); 8];
        sorted_intersection_into(&a, &b, &mut scratch);
        assert_eq!(scratch, vec![FileRef(3), FileRef(5)]);
        sorted_intersection_into(&a, &[], &mut scratch);
        assert!(scratch.is_empty());
    }

    /// A trace exercising every pipeline branch: aliases, free-riders,
    /// regular and irregular clients, multi-day gaps of both widths.
    fn mixed_trace() -> TraceArena {
        let mut b = TraceBuilder::new();
        let files: Vec<FileRef> = (0..12).map(|n| b.intern_file(file_info(n))).collect();
        let regular = b.intern_peer(peer_info(0, 1));
        observed(
            &mut b,
            regular,
            &[
                (350, files[0..6].to_vec()),
                (353, files[2..8].to_vec()),
                (356, files[2..8].to_vec()),
                (358, files[4..12].to_vec()),
                (362, files[4..10].to_vec()),
            ],
        );
        let alias_a = b.intern_peer(peer_info(1, 9));
        let alias_b = b.intern_peer(peer_info(2, 9));
        observed(&mut b, alias_a, &[(350, files[0..2].to_vec())]);
        observed(&mut b, alias_b, &[(351, files[1..3].to_vec())]);
        let free_rider = b.intern_peer(peer_info(3, 9));
        observed(&mut b, free_rider, &[(350, vec![]), (355, vec![])]);
        let irregular = b.intern_peer(peer_info(4, 4));
        observed(
            &mut b,
            irregular,
            &[(352, files[0..4].to_vec()), (354, files[0..4].to_vec())],
        );
        b.finish()
    }

    #[test]
    fn arena_filter_matches_row_filter() {
        let trace = mixed_trace();
        assert_eq!(filter_arena(&trace), filter(&trace));
    }

    #[test]
    fn arena_retain_peers_matches_row() {
        let trace = mixed_trace();
        let keep = |p: PeerId| p.0.is_multiple_of(2);
        assert_eq!(retain_peers_arena(&trace, keep), retain_peers(&trace, keep));
    }

    #[test]
    fn arena_extrapolate_matches_row_for_any_thread_count() {
        let trace = mixed_trace();
        let row = extrapolate(&trace, ExtrapolateConfig::default());
        for threads in [1, 2, 3, 8] {
            let csr = extrapolate_arena_with_threads(&trace, ExtrapolateConfig::default(), threads);
            assert_eq!(csr, row, "threads={threads}");
        }
    }

    #[test]
    fn arena_extrapolate_empty_trace_is_empty() {
        let csr = extrapolate_arena(&TraceArena::default(), ExtrapolateConfig::default());
        assert!(csr.kept.is_empty());
        assert!(csr.arena.days.is_empty());
    }

    #[test]
    fn arena_pipeline_composes_like_row_pipeline() {
        // filter → extrapolate, both lanes, end to end.
        let trace = mixed_trace();
        let row = extrapolate(&filter(&trace).arena, ExtrapolateConfig::default());
        let filtered = filter_arena(&trace);
        let csr = extrapolate_arena(&filtered.arena, ExtrapolateConfig::default());
        assert_eq!(csr, row);
    }
}

//! The versioned binary columnar trace format (`.edt`), plus streaming
//! writer/reader APIs.
//!
//! The text codec (`io::to_json`) parses whole traces and dominates
//! wall-clock at paper scale. This format stores the same
//! `Trace` columnar and delta-compressed, aligned with the
//! [`CacheArena`](crate::compact::CacheArena) CSR layout: a day section
//! is cache *lengths* plus one concatenated run of sorted, delta+varint
//! encoded entries — exactly the offsets/files split of the arena.
//!
//! # Layout (format version 1)
//!
//! All integers little-endian; `varint` is LEB128 (`u64`, ≤ 10 bytes).
//!
//! ```text
//! header   magic[8] = 89 45 44 4B 54 52 43 0A  ("\x89EDKTRC\n")
//!          version  u8  = 1
//!          n_files  u32
//!          n_peers  u32
//!          table_offset u64     absolute offset of the FILES section
//!          checksum u64         FNV-1a64 over the 25 bytes above
//! section  tag u8 | payload_len u64 | payload | checksum u64 (FNV-1a64)
//! ```
//!
//! Physical section order is `DAY* FILES PEERS END`: day sections are
//! streamed first so a producer (e.g. the crawler) can emit snapshots
//! while its intern tables are still growing; `finish` writes the
//! tables and back-patches `table_offset` in the header. Payloads:
//!
//! * `FILES` (tag 1, columnar): `n_files` × id `[u8; 16]`, then
//!   `n_files` × size varint, then `n_files` × kind `u8`.
//! * `PEERS` (tag 2, columnar): uids `[u8; 16]`, ips `u32`, country
//!   codes `[u8; 2]`, asns varint.
//! * `DAY` (tag 3): `day u32 | n_caches u32 | peer ids | cache lengths
//!   (varint each) | entries`. Peer ids are strictly increasing: first
//!   absolute (varint), then gaps (varint, ≥ 1). Each cache's entries
//!   are sorted the same way, restarting per cache.
//! * `END` (tag 0xEE): `n_days u32`. Guards against truncation.
//!
//! # Versioning rules
//!
//! The version byte names the *whole* layout. Readers reject any other
//! version outright (no silent best-effort decode); any change to
//! section payloads, framing, or checksums must bump it. The golden
//! fixture test (`tests/format_compat.rs`) pins version 1 byte-for-byte.
//!
//! # Robustness
//!
//! [`TraceReader`] never panics and never trusts a declared count for an
//! allocation: every section length is bounded by the physical file size
//! before any buffer is sized, and element counts are re-checked against
//! the bytes actually present. Corrupt input returns
//! [`TraceIoError::Bin`] (see `tests/codec_corruption.rs`).

use std::fs::File;
use std::io::{BufReader, BufWriter, Cursor, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use edonkey_proto::md4::Digest;
use edonkey_proto::query::FileKind;

use super::TraceIoError;
use crate::compact::DayArena;
use crate::model::{CountryCode, DaySnapshot, FileInfo, FileRef, PeerInfo, Trace};

/// The 8-byte file magic. The `0x89` lead byte and embedded newline make
/// accidental text-format collisions impossible, like PNG's magic.
pub const MAGIC: [u8; 8] = *b"\x89EDKTRC\n";

/// The format version this build writes and the only one it reads.
pub const FORMAT_VERSION: u8 = 1;

/// Header size: magic + version + n_files + n_peers + table_offset + checksum.
pub const HEADER_LEN: u64 = 8 + 1 + 4 + 4 + 8 + 8;

const TAG_FILES: u8 = 1;
const TAG_PEERS: u8 = 2;
const TAG_DAY: u8 = 3;
const TAG_END: u8 = 0xEE;

/// Section framing overhead: tag byte + payload length + payload checksum.
const SECTION_OVERHEAD: u64 = 1 + 8 + 8;

/// FNV-1a64 folded over 8-byte little-endian lanes (tail bytes folded
/// byte-wise, then the length). Laning shortens the multiply dependency
/// chain ~8× versus byte-serial FNV — the checksum pass over a
/// repro-scale file drops from ~20 ms to ~3 ms — while keeping the
/// detection argument: every fold step (xor, then multiply by an odd
/// constant) is a bijection on the running state, so two equal-length
/// inputs that differ anywhere evolve through states that can never
/// reconverge. Any single-byte corruption is therefore detected
/// deterministically, not probabilistically.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.update(bytes);
    fnv.finish()
}

/// The running state of [`fnv1a64`], fed in chunks. Chunks line up with
/// the one-shot lanes as long as every chunk but the last is a multiple
/// of 8 bytes long.
struct Fnv {
    h: u64,
    len: u64,
}

impl Fnv {
    const PRIME: u64 = 0x100000001b3;

    fn new() -> Self {
        Fnv {
            h: 0xcbf29ce484222325,
            len: 0,
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        debug_assert!(
            self.len.is_multiple_of(8),
            "only the last chunk may be ragged"
        );
        let mut lanes = bytes.chunks_exact(8);
        for lane in &mut lanes {
            self.h ^= u64::from_le_bytes(lane.try_into().expect("8 bytes"));
            self.h = self.h.wrapping_mul(Self::PRIME);
        }
        for &b in lanes.remainder() {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(Self::PRIME);
        }
        self.len += bytes.len() as u64;
    }

    fn finish(self) -> u64 {
        (self.h ^ self.len).wrapping_mul(Self::PRIME)
    }
}

fn err(offset: u64, message: impl Into<String>) -> TraceIoError {
    TraceIoError::Bin {
        offset,
        message: message.into(),
    }
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The encoded length of `v` under [`push_varint`].
fn varint_len(v: u64) -> u64 {
    u64::from((64 - (v | 1).leading_zeros()).div_ceil(7))
}

/// Byte encoding of a [`FileKind`]: its position in [`FileKind::ALL`].
fn kind_byte(kind: FileKind) -> u8 {
    FileKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("FileKind::ALL is exhaustive") as u8
}

// --- writer -----------------------------------------------------------

/// Streaming binary trace writer: day sections as they complete, intern
/// tables at [`TraceWriter::finish`].
///
/// Memory is bounded by one encoded day section; the sink sees one
/// back-patch seek (the header) at finish time.
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    days_written: u32,
    last_day: Option<u32>,
    /// Highest peer id / file ref seen in any day, validated against the
    /// tables at finish (days are written before the tables exist).
    max_peer: Option<u32>,
    max_file: Option<u32>,
    /// Set by [`TraceWriter::create`]: the `.tmp` sibling actually being
    /// written and the destination it is renamed to at finish.
    paths: Option<(PathBuf, PathBuf)>,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates a binary trace file at `path`.
    ///
    /// Crash-safe: bytes stream into a `<name>.tmp` sibling and only the
    /// atomic rename inside [`TraceWriter::finish`] touches `path`, so a
    /// writer killed mid-stream (or a `finish` that fails validation)
    /// leaves whatever was at `path` before intact. An orphaned `.tmp`
    /// is simply truncated by the next attempt.
    pub fn create(path: &Path) -> Result<Self, TraceIoError> {
        let tmp = super::tmp_sibling(path);
        let make = || -> Result<Self, TraceIoError> {
            let mut w = Self::new(BufWriter::new(File::create(&tmp)?))?;
            w.paths = Some((tmp.clone(), path.to_path_buf()));
            Ok(w)
        };
        make().map_err(|e| e.with_path(path))
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a trace stream on any seekable sink (a placeholder header
    /// is written immediately and rewritten by [`TraceWriter::finish`]).
    pub fn new(mut sink: W) -> Result<Self, TraceIoError> {
        sink.write_all(&header_bytes(0, 0, 0))?;
        Ok(TraceWriter {
            sink,
            days_written: 0,
            last_day: None,
            max_peer: None,
            max_file: None,
            paths: None,
        })
    }

    /// Appends one day section. Days must arrive strictly increasing;
    /// the snapshot's own invariants (caches sorted by peer, entries
    /// sorted and deduplicated) are re-checked during encoding.
    pub fn write_day(&mut self, snapshot: &DaySnapshot) -> Result<(), TraceIoError> {
        self.write_day_arena(&DayArena::from_snapshot(snapshot))
    }

    /// Appends one day section from its CSR form — byte-identical to
    /// [`TraceWriter::write_day`] on the equivalent snapshot, without
    /// materializing per-cache `Vec`s (a DAY section's wire layout *is*
    /// lengths plus concatenated delta-coded rows).
    pub fn write_day_arena(&mut self, day: &DayArena) -> Result<(), TraceIoError> {
        if let Some(last) = self.last_day {
            if day.day <= last {
                return Err(TraceIoError::Invalid(format!(
                    "day {} written after day {last} (days must be strictly increasing)",
                    day.day
                )));
            }
        }
        if day.offsets.len() != day.peers.len() + 1
            || day.offsets.first() != Some(&0)
            || day.offsets.last().copied().unwrap_or(0) as usize != day.entries.len()
            || day.offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(TraceIoError::Invalid(format!(
                "day {}: malformed CSR offset table",
                day.day
            )));
        }
        let n_caches = u32::try_from(day.peers.len())
            .map_err(|_| TraceIoError::Invalid("more than u32::MAX caches in a day".into()))?;
        let mut payload = Vec::with_capacity(16 + 2 * day.peers.len());
        payload.extend_from_slice(&day.day.to_le_bytes());
        payload.extend_from_slice(&n_caches.to_le_bytes());
        let mut prev_peer: Option<u32> = None;
        for &peer in &day.peers {
            let delta = match prev_peer {
                None => peer as u64,
                Some(prev) if peer > prev => (peer - prev) as u64,
                Some(prev) => {
                    return Err(TraceIoError::Invalid(format!(
                        "day {}: peer p{peer} after p{prev}, not sorted",
                        day.day
                    )))
                }
            };
            push_varint(&mut payload, delta);
            self.max_peer = Some(self.max_peer.unwrap_or(0).max(peer));
            prev_peer = Some(peer);
        }
        for w in day.offsets.windows(2) {
            push_varint(&mut payload, (w[1] - w[0]) as u64);
        }
        for i in 0..day.peers.len() {
            let peer = day.peers[i];
            let mut prev: Option<u32> = None;
            for f in day.row(i) {
                let delta = match prev {
                    None => f.0 as u64,
                    Some(prev) if f.0 > prev => (f.0 - prev) as u64,
                    Some(prev) => {
                        return Err(TraceIoError::Invalid(format!(
                            "day {}: cache of p{peer} not sorted/deduped (f{} after f{prev})",
                            day.day, f.0
                        )))
                    }
                };
                push_varint(&mut payload, delta);
                self.max_file = Some(self.max_file.unwrap_or(0).max(f.0));
                prev = Some(f.0);
            }
        }
        self.write_section(TAG_DAY, &payload)?;
        self.days_written += 1;
        self.last_day = Some(day.day);
        Ok(())
    }

    /// Writes the intern tables and the end marker, back-patches the
    /// header, and flushes. Fails if any day referenced a peer or file
    /// outside the tables. For a writer opened with
    /// [`TraceWriter::create`], this is also the moment the `.tmp`
    /// sibling is atomically renamed onto the destination path.
    ///
    /// The tables are taken as re-iterable views (a slice, or a mapped
    /// iterator over a larger record) and stream out through a bounded
    /// buffer, so neither a copy of the tables nor an O(files) payload is
    /// ever built.
    pub fn finish<'a, F, P>(mut self, files: F, peers: P) -> Result<W, TraceIoError>
    where
        F: IntoIterator<Item = &'a FileInfo>,
        F::IntoIter: Clone + ExactSizeIterator,
        P: IntoIterator<Item = &'a PeerInfo>,
        P::IntoIter: Clone + ExactSizeIterator,
    {
        let (files, peers) = (files.into_iter(), peers.into_iter());
        let n_files = u32::try_from(files.len())
            .map_err(|_| TraceIoError::Invalid("more than u32::MAX files".into()))?;
        let n_peers = u32::try_from(peers.len())
            .map_err(|_| TraceIoError::Invalid("more than u32::MAX peers".into()))?;
        if let Some(max) = self.max_peer {
            if max >= n_peers {
                return Err(TraceIoError::Invalid(format!(
                    "day sections reference peer p{max} but the table has {n_peers} peers"
                )));
            }
        }
        if let Some(max) = self.max_file {
            if max >= n_files {
                return Err(TraceIoError::Invalid(format!(
                    "day sections reference file f{max} but the table has {n_files} files"
                )));
            }
        }

        let table_offset = self.sink.stream_position()?;

        let mut buf = Vec::with_capacity(TABLE_CHUNK + 16);
        let len = files.clone().map(|f| 17 + varint_len(f.size)).sum();
        let mut section = TableSection::start(&mut self.sink, &mut buf, TAG_FILES, len)?;
        section.column(files.clone(), |buf, f| buf.extend_from_slice(&f.id.0))?;
        section.column(files.clone(), |buf, f| push_varint(buf, f.size))?;
        section.column(files, |buf, f| buf.push(kind_byte(f.kind)))?;
        section.end()?;

        let len = peers.clone().map(|p| 22 + varint_len(p.asn as u64)).sum();
        let mut section = TableSection::start(&mut self.sink, &mut buf, TAG_PEERS, len)?;
        section.column(peers.clone(), |buf, p| buf.extend_from_slice(&p.uid.0))?;
        section.column(peers.clone(), |buf, p| {
            buf.extend_from_slice(&p.ip.to_le_bytes())
        })?;
        section.column(peers.clone(), |buf, p| buf.extend_from_slice(&p.country.0))?;
        section.column(peers, |buf, p| push_varint(buf, p.asn as u64))?;
        section.end()?;

        let end_payload = self.days_written.to_le_bytes();
        self.write_section(TAG_END, &end_payload)?;

        self.sink.seek(SeekFrom::Start(0))?;
        self.sink
            .write_all(&header_bytes(n_files, n_peers, table_offset))?;
        self.sink.flush()?;
        if let Some((tmp, dest)) = self.paths.take() {
            std::fs::rename(&tmp, &dest).map_err(|e| TraceIoError::Io(e).with_path(&dest))?;
        }
        Ok(self.sink)
    }

    fn write_section(&mut self, tag: u8, payload: &[u8]) -> Result<(), TraceIoError> {
        self.sink.write_all(&[tag])?;
        self.sink.write_all(&(payload.len() as u64).to_le_bytes())?;
        self.sink.write_all(payload)?;
        self.sink.write_all(&fnv1a64(payload).to_le_bytes())?;
        Ok(())
    }
}

/// Bytes a table section buffers before it flushes a chunk.
const TABLE_CHUNK: usize = 64 * 1024;

/// One intern-table section written column by column through a bounded
/// buffer (one [`TABLE_CHUNK`] plus an item; the sections of one `finish`
/// share it). The payload length is declared up front; each flush
/// writes the buffered whole 8-byte lanes and folds them into the
/// checksum, so chunk boundaries sit at multiples of 8 from the payload
/// start and the checksum equals [`fnv1a64`] of the assembled payload.
struct TableSection<'s, W: Write> {
    sink: &'s mut W,
    buf: &'s mut Vec<u8>,
    declared: u64,
    fnv: Fnv,
}

impl<'s, W: Write> TableSection<'s, W> {
    fn start(
        sink: &'s mut W,
        buf: &'s mut Vec<u8>,
        tag: u8,
        declared: u64,
    ) -> Result<Self, TraceIoError> {
        sink.write_all(&[tag])?;
        sink.write_all(&declared.to_le_bytes())?;
        buf.clear();
        Ok(TableSection {
            sink,
            buf,
            declared,
            fnv: Fnv::new(),
        })
    }

    /// Appends one column: `put` encodes each item onto the buffer.
    fn column<T>(
        &mut self,
        items: impl Iterator<Item = T>,
        mut put: impl FnMut(&mut Vec<u8>, T),
    ) -> Result<(), TraceIoError> {
        for item in items {
            put(self.buf, item);
            if self.buf.len() >= TABLE_CHUNK {
                let lanes = self.buf.len() & !7;
                self.sink.write_all(&self.buf[..lanes])?;
                self.fnv.update(&self.buf[..lanes]);
                self.buf.drain(..lanes);
            }
        }
        Ok(())
    }

    /// Writes the buffered tail and the checksum. Fails if the columns
    /// did not add up to the declared length (the table iterators
    /// changed between passes).
    fn end(mut self) -> Result<(), TraceIoError> {
        self.sink.write_all(self.buf)?;
        self.fnv.update(self.buf);
        if self.fnv.len != self.declared {
            return Err(TraceIoError::Invalid(format!(
                "table section declared {} bytes but encoded {}",
                self.declared, self.fnv.len
            )));
        }
        self.sink.write_all(&self.fnv.finish().to_le_bytes())?;
        Ok(())
    }
}

/// Renders the 33-byte header for the given table geometry.
fn header_bytes(n_files: u32, n_peers: u32, table_offset: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..8].copy_from_slice(&MAGIC);
    h[8] = FORMAT_VERSION;
    h[9..13].copy_from_slice(&n_files.to_le_bytes());
    h[13..17].copy_from_slice(&n_peers.to_le_bytes());
    h[17..25].copy_from_slice(&table_offset.to_le_bytes());
    let checksum = fnv1a64(&h[0..25]);
    h[25..33].copy_from_slice(&checksum.to_le_bytes());
    h
}

// --- reader -----------------------------------------------------------

/// Streaming binary trace reader: the intern tables are loaded up front
/// (one seek to the trailing table region), then day sections decode
/// one at a time — resident memory is the tables plus one
/// [`DaySnapshot`], never the whole trace.
pub struct TraceReader<R: Read + Seek> {
    src: R,
    files: Vec<FileInfo>,
    peers: Vec<PeerInfo>,
    declared_days: u32,
    days_read: u32,
    last_day: Option<u32>,
    /// Current absolute offset within the day region.
    pos: u64,
    table_offset: u64,
}

impl TraceReader<BufReader<File>> {
    /// Opens a binary trace file. Errors carry the file path.
    pub fn open(path: &Path) -> Result<Self, TraceIoError> {
        let open =
            || -> Result<Self, TraceIoError> { Self::new(BufReader::new(File::open(path)?)) };
        open().map_err(|e| e.with_path(path))
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Validates the header, tables and end marker of `src` and
    /// positions the stream at the first day section.
    pub fn new(mut src: R) -> Result<Self, TraceIoError> {
        let file_len = src.seek(SeekFrom::End(0))?;
        src.seek(SeekFrom::Start(0))?;
        if file_len < HEADER_LEN {
            return Err(err(
                0,
                format!("file too short for a header ({file_len} bytes)"),
            ));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        src.read_exact(&mut header)?;
        if header[0..8] != MAGIC {
            return Err(err(0, "bad magic (not a binary trace file)"));
        }
        if header[8] != FORMAT_VERSION {
            return Err(err(
                8,
                format!(
                    "unsupported format version {} (this build reads {FORMAT_VERSION})",
                    header[8]
                ),
            ));
        }
        let stored = u64::from_le_bytes(header[25..33].try_into().expect("8 bytes"));
        if stored != fnv1a64(&header[0..25]) {
            return Err(err(25, "header checksum mismatch"));
        }
        let n_files = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes"));
        let n_peers = u32::from_le_bytes(header[13..17].try_into().expect("4 bytes"));
        let table_offset = u64::from_le_bytes(header[17..25].try_into().expect("8 bytes"));
        if table_offset < HEADER_LEN || table_offset > file_len {
            return Err(err(
                17,
                format!("table offset {table_offset} outside the file"),
            ));
        }

        // Tables + end marker first (one seek), then back to the days.
        src.seek(SeekFrom::Start(table_offset))?;
        let mut pos = table_offset;
        let payload = read_section(&mut src, &mut pos, file_len, TAG_FILES)?;
        let files = decode_files(&payload, n_files, pos)?;
        let payload = read_section(&mut src, &mut pos, file_len, TAG_PEERS)?;
        let peers = decode_peers(&payload, n_peers, pos)?;
        let payload = read_section(&mut src, &mut pos, file_len, TAG_END)?;
        if payload.len() != 4 {
            return Err(err(pos, "end marker payload must be 4 bytes"));
        }
        let declared_days = u32::from_le_bytes(payload[..].try_into().expect("4 bytes"));
        if pos != file_len {
            return Err(err(pos, "trailing data after end marker"));
        }

        src.seek(SeekFrom::Start(HEADER_LEN))?;
        Ok(TraceReader {
            src,
            files,
            peers,
            declared_days,
            days_read: 0,
            last_day: None,
            pos: HEADER_LEN,
            table_offset,
        })
    }

    /// The file intern table.
    pub fn files(&self) -> &[FileInfo] {
        &self.files
    }

    /// The peer intern table.
    pub fn peers(&self) -> &[PeerInfo] {
        &self.peers
    }

    /// Number of day sections the file declares.
    pub fn declared_days(&self) -> u32 {
        self.declared_days
    }

    /// Seeks back to the first day section for another pass over the
    /// days, keeping the decoded intern tables. Every check of the
    /// first pass (day order, the declared day count) applies afresh.
    pub fn rewind(&mut self) -> Result<(), TraceIoError> {
        self.src.seek(SeekFrom::Start(HEADER_LEN))?;
        self.pos = HEADER_LEN;
        self.days_read = 0;
        self.last_day = None;
        Ok(())
    }

    /// Decodes the next day section, or `None` after the last one.
    ///
    /// Each snapshot is validated in full (day order, peer order and
    /// range, entry order and range) before it is returned.
    pub fn next_day(&mut self) -> Result<Option<DaySnapshot>, TraceIoError> {
        Ok(self.next_day_arena()?.map(|d| d.to_snapshot()))
    }

    /// Decodes the next day section straight into CSR form, or `None`
    /// after the last one — the allocation-lean path streaming
    /// transforms (e.g. `pipeline::filter_streaming`) consume: one flat
    /// entry buffer per day instead of one `Vec` per cache. Validation
    /// is identical to [`TraceReader::next_day`].
    pub fn next_day_arena(&mut self) -> Result<Option<DayArena>, TraceIoError> {
        if self.pos == self.table_offset {
            if self.days_read != self.declared_days {
                return Err(err(
                    self.pos,
                    format!(
                        "day region ended after {} sections but the end marker declares {}",
                        self.days_read, self.declared_days
                    ),
                ));
            }
            return Ok(None);
        }
        let payload = read_section(&mut self.src, &mut self.pos, self.table_offset, TAG_DAY)?;
        let day = decode_day_arena(&payload, self.peers.len(), self.files.len(), self.pos)?;
        if let Some(last) = self.last_day {
            if day.day <= last {
                return Err(err(
                    self.pos,
                    format!("day {} after day {last}: not strictly increasing", day.day),
                ));
            }
        }
        self.days_read += 1;
        if self.days_read > self.declared_days {
            return Err(err(
                self.pos,
                format!("more day sections than the declared {}", self.declared_days),
            ));
        }
        self.last_day = Some(day.day);
        Ok(Some(day))
    }

    /// Drains the remaining days into a complete [`Trace`].
    pub fn into_trace(mut self) -> Result<Trace, TraceIoError> {
        let mut days = Vec::new();
        while let Some(day) = self.next_day()? {
            days.push(day);
        }
        // No final `check_invariants` pass: `next_day` already enforced
        // day ordering and, per snapshot, peer/entry ordering and range
        // — a full re-walk here would double the decode cost.
        let trace = Trace {
            files: self.files,
            peers: self.peers,
            days,
        };
        debug_assert_eq!(trace.check_invariants(), Ok(()));
        Ok(trace)
    }
}

/// Reads one section frame, expecting `expected_tag`. Bounds every read
/// against `limit` (the physical end of the region) *before* allocating,
/// so a corrupted length field cannot trigger an oversized allocation.
fn read_section<R: Read>(
    src: &mut R,
    pos: &mut u64,
    limit: u64,
    expected_tag: u8,
) -> Result<Vec<u8>, TraceIoError> {
    if limit - *pos < SECTION_OVERHEAD {
        return Err(err(*pos, "truncated section frame"));
    }
    let mut tag = [0u8; 1];
    src.read_exact(&mut tag)?;
    if tag[0] != expected_tag {
        return Err(err(
            *pos,
            format!("expected section tag {expected_tag}, found {}", tag[0]),
        ));
    }
    let mut len_bytes = [0u8; 8];
    src.read_exact(&mut len_bytes)?;
    let payload_len = u64::from_le_bytes(len_bytes);
    if payload_len > limit - *pos - SECTION_OVERHEAD {
        return Err(err(
            *pos + 1,
            format!(
                "section claims {payload_len} payload bytes, only {} remain",
                limit - *pos - SECTION_OVERHEAD
            ),
        ));
    }
    let mut payload = vec![0u8; payload_len as usize];
    src.read_exact(&mut payload)?;
    let mut checksum = [0u8; 8];
    src.read_exact(&mut checksum)?;
    if u64::from_le_bytes(checksum) != fnv1a64(&payload) {
        return Err(err(*pos, "section checksum mismatch"));
    }
    *pos += SECTION_OVERHEAD + payload_len;
    Ok(payload)
}

/// Bounds-checked cursor over one section payload. `base` is the
/// payload's absolute offset so errors carry file positions.
struct PayloadCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> PayloadCursor<'a> {
    fn new(buf: &'a [u8], section_end: u64) -> Self {
        PayloadCursor {
            buf,
            pos: 0,
            base: section_end - buf.len() as u64 - 8,
        }
    }

    fn err(&self, message: impl Into<String>) -> TraceIoError {
        err(self.base + self.pos as u64, message)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceIoError> {
        if self.buf.len() - self.pos < n {
            return Err(self.err(format!(
                "payload truncated: need {n} bytes, have {}",
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, TraceIoError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn varint(&mut self) -> Result<u64, TraceIoError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.buf.get(self.pos) else {
                return Err(self.err("payload truncated inside a varint"));
            };
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(self.err("varint overflows u64"));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.err("varint longer than 10 bytes"));
            }
        }
    }

    /// A varint that must fit `u32` (ids, gaps, cache lengths).
    fn varint32(&mut self, what: &str) -> Result<u32, TraceIoError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| self.err(format!("{what} {v} exceeds u32")))
    }

    fn finish(&self) -> Result<(), TraceIoError> {
        if self.pos != self.buf.len() {
            return Err(self.err("trailing bytes in section payload"));
        }
        Ok(())
    }
}

fn decode_files(
    payload: &[u8],
    n_files: u32,
    section_end: u64,
) -> Result<Vec<FileInfo>, TraceIoError> {
    let n = n_files as usize;
    let mut c = PayloadCursor::new(payload, section_end);
    // The columns below consume at least 18 bytes per file; reject an
    // inflated count before sizing any buffer from it.
    if (payload.len() as u64) < 18 * n_files as u64 {
        return Err(c.err(format!(
            "files section too small for {n_files} declared files"
        )));
    }
    let ids = c.bytes(16 * n)?;
    let mut files = Vec::with_capacity(n);
    for i in 0..n {
        let id = Digest(ids[16 * i..16 * (i + 1)].try_into().expect("16 bytes"));
        files.push(FileInfo {
            id,
            size: 0,
            kind: FileKind::Document,
        });
    }
    for f in files.iter_mut() {
        f.size = c.varint()?;
    }
    let kinds = c.bytes(n)?;
    for (f, &k) in files.iter_mut().zip(kinds) {
        f.kind = *FileKind::ALL
            .get(k as usize)
            .ok_or_else(|| err(section_end, format!("unknown file kind byte {k}")))?;
    }
    c.finish()?;
    Ok(files)
}

fn decode_peers(
    payload: &[u8],
    n_peers: u32,
    section_end: u64,
) -> Result<Vec<PeerInfo>, TraceIoError> {
    let n = n_peers as usize;
    let mut c = PayloadCursor::new(payload, section_end);
    // uid + ip + country + ≥1 asn byte per peer.
    if (payload.len() as u64) < 23 * n_peers as u64 {
        return Err(c.err(format!(
            "peers section too small for {n_peers} declared peers"
        )));
    }
    let uids = c.bytes(16 * n)?;
    let ips = c.bytes(4 * n)?;
    let ccs = c.bytes(2 * n)?;
    let mut peers = Vec::with_capacity(n);
    for i in 0..n {
        let cc = [ccs[2 * i], ccs[2 * i + 1]];
        if !cc.iter().all(u8::is_ascii_alphabetic) {
            return Err(err(
                section_end,
                format!("bad country code bytes {:?} for peer {i}", cc),
            ));
        }
        peers.push(PeerInfo {
            uid: Digest(uids[16 * i..16 * (i + 1)].try_into().expect("16 bytes")),
            ip: u32::from_le_bytes(ips[4 * i..4 * (i + 1)].try_into().expect("4 bytes")),
            country: CountryCode([cc[0].to_ascii_uppercase(), cc[1].to_ascii_uppercase()]),
            asn: 0,
        });
    }
    for p in peers.iter_mut() {
        p.asn = c.varint32("asn")?;
    }
    c.finish()?;
    Ok(peers)
}

fn decode_day_arena(
    payload: &[u8],
    n_peers: usize,
    n_files: usize,
    section_end: u64,
) -> Result<DayArena, TraceIoError> {
    let mut c = PayloadCursor::new(payload, section_end);
    let day = c.u32()?;
    let n_caches = c.u32()? as usize;
    // Each cache costs at least one peer-gap byte and one length byte.
    if n_caches > payload.len() {
        return Err(c.err(format!(
            "day section too small for {n_caches} declared caches"
        )));
    }
    let mut peers = Vec::with_capacity(n_caches);
    let mut prev: Option<u32> = None;
    for _ in 0..n_caches {
        let delta = c.varint32("peer id delta")?;
        let peer = match prev {
            None => delta,
            Some(prev) => {
                if delta == 0 {
                    return Err(c.err("zero peer-id gap (duplicate or unsorted peer)"));
                }
                prev.checked_add(delta)
                    .ok_or_else(|| c.err("peer id overflows u32"))?
            }
        };
        if peer as usize >= n_peers {
            return Err(c.err(format!("peer p{peer} out of range ({n_peers} peers)")));
        }
        prev = Some(peer);
        peers.push(peer);
    }
    let mut offsets = Vec::with_capacity(n_caches + 1);
    offsets.push(0u32);
    let mut total: u64 = 0;
    for _ in 0..n_caches {
        let len = c.varint32("cache length")?;
        total += len as u64;
        // Every entry costs at least one byte; reject inflated lengths
        // before any cache buffer is sized from them.
        if total > payload.len() as u64 {
            return Err(c.err(format!(
                "declared cache entries ({total}) exceed the section payload"
            )));
        }
        offsets.push(total as u32);
    }
    let mut entries = Vec::with_capacity(total as usize);
    for i in 0..peers.len() {
        let len = (offsets[i + 1] - offsets[i]) as usize;
        let mut prev: Option<u32> = None;
        for _ in 0..len {
            let delta = c.varint32("file ref delta")?;
            let f = match prev {
                None => delta,
                Some(prev) => {
                    if delta == 0 {
                        return Err(c.err("zero file-ref gap (duplicate or unsorted entry)"));
                    }
                    prev.checked_add(delta)
                        .ok_or_else(|| c.err("file ref overflows u32"))?
                }
            };
            if f as usize >= n_files {
                return Err(c.err(format!("file f{f} out of range ({n_files} files)")));
            }
            prev = Some(f);
            entries.push(FileRef(f));
        }
    }
    c.finish()?;
    Ok(DayArena {
        day,
        peers,
        offsets,
        entries,
    })
}

// --- whole-trace conveniences -----------------------------------------

/// Saves a trace in the binary columnar format (crash-safe: tmp sibling
/// + atomic rename, via [`TraceWriter::create`]).
pub fn save_bin(trace: &Trace, path: &Path) -> Result<(), TraceIoError> {
    let save = || -> Result<(), TraceIoError> {
        let mut writer = TraceWriter::create(path)?;
        for day in &trace.days {
            writer.write_day(day)?;
        }
        writer.finish(&trace.files, &trace.peers)?;
        Ok(())
    };
    save().map_err(|e| e.with_path(path))
}

/// Loads a binary trace file. Errors carry the file path.
pub fn load_bin(path: &Path) -> Result<Trace, TraceIoError> {
    let load = || -> Result<Trace, TraceIoError> { TraceReader::open(path)?.into_trace() };
    load().map_err(|e| e.with_path(path))
}

/// Encodes a trace to binary bytes in memory.
pub fn to_bin(trace: &Trace) -> Vec<u8> {
    let mut writer = TraceWriter::new(Cursor::new(Vec::new())).expect("in-memory sink");
    for day in &trace.days {
        writer.write_day(day).expect("valid trace encodes");
    }
    writer
        .finish(&trace.files, &trace.peers)
        .expect("valid trace encodes")
        .into_inner()
}

/// Decodes a binary trace from bytes in memory.
pub fn from_bin(bytes: &[u8]) -> Result<Trace, TraceIoError> {
    TraceReader::new(Cursor::new(bytes))?.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceBuilder;
    use edonkey_proto::md4::Md4;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let p0 = b.intern_peer(PeerInfo {
            uid: Md4::digest(b"u0"),
            ip: 100,
            country: CountryCode::new("FR"),
            asn: 3215,
        });
        let p1 = b.intern_peer(PeerInfo {
            uid: Md4::digest(b"u1"),
            ip: 200,
            country: CountryCode::new("DE"),
            asn: 3320,
        });
        let f0 = b.intern_file(FileInfo {
            id: Md4::digest(b"f0"),
            size: 4_000_000,
            kind: FileKind::Audio,
        });
        let f1 = b.intern_file(FileInfo {
            id: Md4::digest(b"f1"),
            size: 700_000_000,
            kind: FileKind::Video,
        });
        b.observe(350, p0, vec![f0, f1]);
        b.observe(350, p1, vec![]);
        b.observe(351, p0, vec![f1]);
        b.finish()
    }

    /// The one-shot table assembly `finish` streams: each table's whole
    /// payload built in memory, then framed by `write_section`.
    fn finish_one_shot(
        mut w: TraceWriter<Cursor<Vec<u8>>>,
        files: &[FileInfo],
        peers: &[PeerInfo],
    ) -> Vec<u8> {
        let table_offset = w.sink.stream_position().unwrap();
        let mut payload = Vec::new();
        for f in files {
            payload.extend_from_slice(&f.id.0);
        }
        for f in files {
            push_varint(&mut payload, f.size);
        }
        for f in files {
            payload.push(kind_byte(f.kind));
        }
        w.write_section(TAG_FILES, &payload).unwrap();
        payload.clear();
        for p in peers {
            payload.extend_from_slice(&p.uid.0);
        }
        for p in peers {
            payload.extend_from_slice(&p.ip.to_le_bytes());
        }
        for p in peers {
            payload.extend_from_slice(&p.country.0);
        }
        for p in peers {
            push_varint(&mut payload, p.asn as u64);
        }
        w.write_section(TAG_PEERS, &payload).unwrap();
        let end = w.days_written.to_le_bytes();
        w.write_section(TAG_END, &end).unwrap();
        w.sink.seek(SeekFrom::Start(0)).unwrap();
        let header = header_bytes(files.len() as u32, peers.len() as u32, table_offset);
        w.sink.write_all(&header).unwrap();
        w.sink.into_inner()
    }

    /// A trace whose FILES payload spans about seven [`TABLE_CHUNK`]s and
    /// whose PEERS payload spans two, with varints of every width.
    fn wide_trace() -> Trace {
        let n_files = 22_000u32;
        let n_peers = 6_000u32;
        let files = (0..n_files)
            .map(|i| FileInfo {
                id: Md4::digest(&i.to_le_bytes()),
                size: u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 64),
                kind: FileKind::ALL[i as usize % FileKind::ALL.len()],
            })
            .collect();
        let peers = (0..n_peers)
            .map(|i| PeerInfo {
                uid: Md4::digest(&(i + n_files).to_le_bytes()),
                ip: i.wrapping_mul(0x85eb_ca6b),
                country: CountryCode::new(["FR", "DE", "IT", "ES"][i as usize % 4]),
                asn: i.wrapping_mul(0xc2b2_ae35) >> (i % 32),
            })
            .collect();
        let mut days = Vec::new();
        for day in [350u32, 352] {
            let mut snapshot = DaySnapshot::new(day);
            for p in (day % 7..n_peers).step_by(97) {
                let cache = (p % 5..n_files)
                    .step_by(1_009 + p as usize)
                    .map(FileRef)
                    .collect();
                snapshot.caches.push((crate::model::PeerId(p), cache));
            }
            days.push(snapshot);
        }
        Trace { files, peers, days }
    }

    #[test]
    fn streamed_tables_match_the_one_shot_payloads() {
        let trace = wide_trace();
        let files_len: u64 = trace.files.iter().map(|f| 17 + varint_len(f.size)).sum();
        assert!(
            files_len > 6 * TABLE_CHUNK as u64,
            "the FILES payload must cross the buffer"
        );
        let widths: std::collections::BTreeSet<u64> =
            trace.files.iter().map(|f| varint_len(f.size)).collect();
        assert_eq!(widths.len(), 10, "every varint width appears");

        let mut one_shot = TraceWriter::new(Cursor::new(Vec::new())).unwrap();
        for day in &trace.days {
            one_shot.write_day(day).unwrap();
        }
        let expected = finish_one_shot(one_shot, &trace.files, &trace.peers);
        assert_eq!(to_bin(&trace), expected);

        // The generator's shape: table rows borrowed out of larger records.
        let records: Vec<(FileInfo, u64)> = trace.files.iter().map(|f| (f.clone(), 7)).collect();
        let mut mapped = TraceWriter::new(Cursor::new(Vec::new())).unwrap();
        for day in &trace.days {
            mapped.write_day(day).unwrap();
        }
        let bytes = mapped
            .finish(records.iter().map(|(f, _)| f), &trace.peers)
            .unwrap()
            .into_inner();
        assert_eq!(bytes, expected);
        assert_eq!(from_bin(&bytes).unwrap(), trace);
    }

    #[test]
    fn round_trips_in_memory() {
        let trace = sample_trace();
        assert_eq!(from_bin(&to_bin(&trace)).unwrap(), trace);
    }

    #[test]
    fn round_trips_empty_and_dayless_traces() {
        let empty = Trace::new();
        assert_eq!(from_bin(&to_bin(&empty)).unwrap(), empty);
        let mut dayless = sample_trace();
        dayless.days.clear();
        assert_eq!(from_bin(&to_bin(&dayless)).unwrap(), dayless);
    }

    #[test]
    fn round_trips_on_disk() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("edonkey-trace-test-bin");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.edt");
        save_bin(&trace, &path).unwrap();
        assert_eq!(load_bin(&path).unwrap(), trace);
    }

    #[test]
    fn streaming_reader_yields_days_in_order() {
        let trace = sample_trace();
        let bytes = to_bin(&trace);
        let mut reader = TraceReader::new(Cursor::new(&bytes[..])).unwrap();
        assert_eq!(reader.files(), &trace.files[..]);
        assert_eq!(reader.peers(), &trace.peers[..]);
        assert_eq!(reader.declared_days(), 2);
        let d0 = reader.next_day().unwrap().unwrap();
        assert_eq!(d0, trace.days[0]);
        let d1 = reader.next_day().unwrap().unwrap();
        assert_eq!(d1, trace.days[1]);
        assert!(reader.next_day().unwrap().is_none());
        assert!(reader.next_day().unwrap().is_none(), "None is sticky");
    }

    #[test]
    fn interrupted_write_leaves_the_original_intact() {
        let dir = std::env::temp_dir().join("edonkey-trace-test-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.edt");
        let trace = sample_trace();
        save_bin(&trace, &path).unwrap();

        // A writer killed mid-stream: one day written, never finished.
        {
            let mut w = TraceWriter::create(&path).unwrap();
            w.write_day(&trace.days[0]).unwrap();
            // dropped here without finish — the simulated crash
        }
        assert_eq!(
            load_bin(&path).unwrap(),
            trace,
            "an unfinished write must not clobber the original"
        );
        let tmp = path.with_file_name("t.edt.tmp");
        assert!(tmp.exists(), "the partial write lands in the tmp sibling");

        // A finish that fails validation must not install either.
        let mut w = TraceWriter::create(&path).unwrap();
        for day in &trace.days {
            w.write_day(day).unwrap();
        }
        assert!(w.finish(&trace.files[..1], &trace.peers).is_err());
        assert_eq!(load_bin(&path).unwrap(), trace);

        // A clean save truncates the orphaned tmp and installs.
        save_bin(&trace, &path).unwrap();
        assert!(!tmp.exists(), "finish consumes the tmp sibling");
        assert_eq!(load_bin(&path).unwrap(), trace);
    }

    #[test]
    fn writer_rejects_out_of_order_days() {
        let trace = sample_trace();
        let mut w = TraceWriter::new(Cursor::new(Vec::new())).unwrap();
        w.write_day(&trace.days[1]).unwrap();
        assert!(matches!(
            w.write_day(&trace.days[0]),
            Err(TraceIoError::Invalid(_))
        ));
    }

    #[test]
    fn writer_rejects_refs_outside_tables() {
        let trace = sample_trace();
        let mut w = TraceWriter::new(Cursor::new(Vec::new())).unwrap();
        for day in &trace.days {
            w.write_day(day).unwrap();
        }
        // Tables too small for the written day sections.
        assert!(matches!(
            w.finish(&trace.files[..1], &trace.peers),
            Err(TraceIoError::Invalid(_))
        ));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = to_bin(&sample_trace());
        bytes[8] = FORMAT_VERSION + 1;
        // Re-checksum so the version check itself is what fires.
        let sum = fnv1a64(&bytes[0..25]);
        bytes[25..33].copy_from_slice(&sum.to_le_bytes());
        match from_bin(&bytes) {
            Err(TraceIoError::Bin { message, .. }) => {
                assert!(message.contains("version"), "{message}");
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn header_tampering_is_detected() {
        let mut bytes = to_bin(&sample_trace());
        bytes[10] ^= 0xff; // n_files, without fixing the checksum
        match from_bin(&bytes) {
            Err(TraceIoError::Bin { message, .. }) => {
                assert!(message.contains("checksum"), "{message}");
            }
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn varints_round_trip_at_extremes() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut c = PayloadCursor::new(&buf, buf.len() as u64 + 8);
            assert_eq!(c.varint().unwrap(), v);
            assert!(c.finish().is_ok());
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0x80u8; 11];
        let mut c = PayloadCursor::new(&buf, buf.len() as u64 + 8);
        assert!(c.varint().is_err());
    }

    #[test]
    fn arena_write_path_is_byte_identical_to_row_path() {
        let trace = sample_trace();
        let arena = crate::compact::TraceArena::from_trace(&trace);
        let mut writer = TraceWriter::new(Cursor::new(Vec::new())).unwrap();
        for day in &arena.days {
            writer.write_day_arena(day).unwrap();
        }
        let bytes = writer
            .finish(&trace.files, &trace.peers)
            .unwrap()
            .into_inner();
        assert_eq!(bytes, to_bin(&trace));
    }

    #[test]
    fn arena_read_path_yields_csr_days() {
        let trace = sample_trace();
        let bytes = to_bin(&trace);
        let mut reader = TraceReader::new(Cursor::new(&bytes[..])).unwrap();
        for day in &trace.days {
            let got = reader.next_day_arena().unwrap().unwrap();
            assert_eq!(got, DayArena::from_snapshot(day));
            got.check_invariants(trace.peers.len(), trace.files.len())
                .unwrap();
        }
        assert!(reader.next_day_arena().unwrap().is_none());
    }

    #[test]
    fn rewound_reader_replays_the_days_and_their_count_check() {
        let trace = sample_trace();
        let bytes = to_bin(&trace);
        let days = |reader: &mut TraceReader<Cursor<&[u8]>>| -> Vec<DayArena> {
            std::iter::from_fn(|| reader.next_day_arena().unwrap()).collect()
        };
        let fresh = days(&mut TraceReader::new(Cursor::new(&bytes[..])).unwrap());
        assert_eq!(fresh.len(), 2);
        let mut reader = TraceReader::new(Cursor::new(&bytes[..])).unwrap();
        reader.next_day_arena().unwrap().unwrap();
        // Mid-stream and after the last day alike, a rewind restarts
        // at the first day with the tables kept.
        for _ in 0..2 {
            reader.rewind().unwrap();
            assert_eq!(days(&mut reader), fresh);
            assert_eq!(reader.files(), &trace.files[..]);
            assert_eq!(reader.peers(), &trace.peers[..]);
        }

        // End markers declaring one day too many or too few fail the
        // same way on every pass.
        for (declared, message) in [(3u32, "declares 3"), (1, "than the declared 1")] {
            let mut forged = bytes.clone();
            let n = forged.len();
            forged[n - 12..n - 8].copy_from_slice(&declared.to_le_bytes());
            let checksum = fnv1a64(&forged[n - 12..n - 8]);
            forged[n - 8..].copy_from_slice(&checksum.to_le_bytes());
            let mut reader = TraceReader::new(Cursor::new(&forged[..])).unwrap();
            assert_eq!(reader.declared_days(), declared);
            for _ in 0..2 {
                let mut read = 0;
                let err = loop {
                    match reader.next_day_arena() {
                        Ok(Some(_)) => read += 1,
                        Ok(None) => panic!("declared {declared} days, read {read} cleanly"),
                        Err(err) => break err,
                    }
                };
                assert_eq!(read, declared.min(2), "days read before the error");
                assert!(err.to_string().contains(message), "{err}");
                reader.rewind().unwrap();
            }
        }
    }

    #[test]
    fn malformed_arena_csr_is_rejected_by_writer() {
        let mut day = DayArena::new(350);
        day.peers.push(0);
        day.offsets.push(5); // declares 5 entries, but `entries` is empty
        let mut writer = TraceWriter::new(Cursor::new(Vec::new())).unwrap();
        match writer.write_day_arena(&day) {
            Err(TraceIoError::Invalid(message)) => {
                assert!(message.contains("CSR"), "{message}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }
}

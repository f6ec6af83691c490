//! Trace serialization: JSON (the interoperable text format) and a
//! binary columnar format ([`bin`]) for paper-scale traces, with
//! streaming writer/reader APIs.
//!
//! [`load_auto`] sniffs the format from the leading bytes, so every
//! consumer (bench binaries, examples) accepts either.

pub mod bin;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::io::Read as _;
use std::path::{Path, PathBuf};

pub use bin::{from_bin, load_bin, save_bin, to_bin, TraceReader, TraceWriter};

use edonkey_proto::md4::Digest;
use edonkey_proto::query::FileKind;

use crate::model::{CountryCode, DaySnapshot, FileInfo, FileRef, PeerId, PeerInfo, Trace};

/// An error loading or saving a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// JSON syntax or schema error.
    Json(String),
    /// The parsed trace violated a structural invariant.
    Invalid(String),
    /// Binary-format error with the absolute byte offset it was
    /// detected at.
    Bin {
        /// Byte offset within the file.
        offset: u64,
        /// What went wrong.
        message: String,
    },
    /// Any of the above, annotated with the file it occurred on. Every
    /// path-taking entry point (`load_*`, `save_*`, [`sniff_format`],
    /// [`load_auto`]) wraps its errors in this variant, so a failure
    /// deep in a parse still names the file.
    WithPath {
        /// The file the operation was on.
        path: PathBuf,
        /// The underlying error.
        source: Box<TraceIoError>,
    },
}

impl TraceIoError {
    /// Annotates the error with the file path the operation was on.
    /// Idempotent: an error already carrying a path is returned as-is,
    /// so nested entry points (e.g. [`load_auto`] calling `load_bin`)
    /// keep the innermost, most specific annotation.
    pub fn with_path(self, path: &Path) -> TraceIoError {
        match self {
            TraceIoError::WithPath { .. } => self,
            other => TraceIoError::WithPath {
                path: path.to_path_buf(),
                source: Box::new(other),
            },
        }
    }
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::Json(e) => write!(f, "json error: {e}"),
            TraceIoError::Invalid(msg) => write!(f, "invalid trace: {msg}"),
            TraceIoError::Bin { offset, message } => {
                write!(f, "binary format error at byte {offset}: {message}")
            }
            TraceIoError::WithPath { path, source } => {
                write!(f, "{}: {}", path.display(), source)
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::WithPath { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// The `<name>.tmp` sibling used for crash-safe writes.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Crash-safe whole-file write: the bytes stream into a `<name>.tmp`
/// sibling and an atomic rename installs them, so an interrupted write
/// never leaves a half-written file at `path` — whatever was there
/// before stays intact.
fn write_atomic(path: &Path, contents: &str) -> Result<(), TraceIoError> {
    let tmp = tmp_sibling(path);
    let write = || -> io::Result<()> {
        fs::write(&tmp, contents)?;
        fs::rename(&tmp, path)
    };
    write().map_err(|e| TraceIoError::Io(e).with_path(path))
}

/// Saves a trace as JSON (crash-safe: tmp sibling + atomic rename).
pub fn save_json(trace: &Trace, path: &Path) -> Result<(), TraceIoError> {
    write_atomic(path, &to_json(trace))
}

/// Loads a JSON trace and validates its invariants.
pub fn load_json(path: &Path) -> Result<Trace, TraceIoError> {
    let load = || -> Result<Trace, TraceIoError> {
        let data = fs::read_to_string(path)?;
        let trace = from_json(&data)?;
        trace.check_invariants().map_err(TraceIoError::Invalid)?;
        Ok(trace)
    };
    load().map_err(|e| e.with_path(path))
}

/// Serializes a trace as JSON (hand-rolled: this workspace carries no
/// serde dependency — see DESIGN.md's note on vendored/offline deps).
///
/// Schema:
///
/// ```json
/// {"files":[{"id":"<hex32>","size":1,"kind":"Audio"}],
///  "peers":[{"uid":"<hex32>","ip":1,"country":"FR","asn":3215}],
///  "days":[{"day":350,"caches":[[0,[0,2]]]}]}
/// ```
pub fn to_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 * (trace.files.len() + trace.peers.len()));
    out.push_str("{\"files\":[");
    for (i, f) in trace.files.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"id\":\"{}\",\"size\":{},\"kind\":\"{}\"}}",
            f.id.to_hex(),
            f.size,
            f.kind
        )
        .expect("string write");
    }
    out.push_str("],\"peers\":[");
    for (i, p) in trace.peers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"uid\":\"{}\",\"ip\":{},\"country\":\"{}\",\"asn\":{}}}",
            p.uid.to_hex(),
            p.ip,
            p.country,
            p.asn
        )
        .expect("string write");
    }
    out.push_str("],\"days\":[");
    for (i, day) in trace.days.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{{\"day\":{},\"caches\":[", day.day).expect("string write");
        for (j, (peer, cache)) in day.caches.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "[{},[", peer.0).expect("string write");
            for (k, f) in cache.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                write!(out, "{}", f.0).expect("string write");
            }
            out.push_str("]]");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Parses the JSON trace schema written by [`to_json`].
///
/// Whitespace-tolerant; field order within objects is fixed (this is a
/// private interchange format, not a general JSON reader).
pub fn from_json(text: &str) -> Result<Trace, TraceIoError> {
    let mut p = JsonCursor {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut trace = Trace::new();
    p.expect(b'{')?;
    p.key("files")?;
    p.expect(b'[')?;
    if !p.try_consume(b']') {
        loop {
            p.expect(b'{')?;
            p.key("id")?;
            let id = p.hex_digest()?;
            p.expect(b',')?;
            p.key("size")?;
            let size = p.number()?;
            p.expect(b',')?;
            p.key("kind")?;
            let kind_str = p.string()?;
            let kind = FileKind::from_str_ci(&kind_str)
                .ok_or_else(|| p.error(&format!("unknown file kind {kind_str:?}")))?;
            p.expect(b'}')?;
            trace.files.push(FileInfo { id, size, kind });
            if !p.try_consume(b',') {
                break;
            }
        }
        p.expect(b']')?;
    }
    p.expect(b',')?;
    p.key("peers")?;
    p.expect(b'[')?;
    if !p.try_consume(b']') {
        loop {
            p.expect(b'{')?;
            p.key("uid")?;
            let uid = p.hex_digest()?;
            p.expect(b',')?;
            p.key("ip")?;
            let ip = p.number_u32()?;
            p.expect(b',')?;
            p.key("country")?;
            let cc = p.string()?;
            if cc.len() != 2 || !cc.bytes().all(|b| b.is_ascii_alphabetic()) {
                return Err(p.error(&format!("bad country code {cc:?}")));
            }
            p.expect(b',')?;
            p.key("asn")?;
            let asn = p.number_u32()?;
            p.expect(b'}')?;
            trace.peers.push(PeerInfo {
                uid,
                ip,
                country: CountryCode::new(&cc),
                asn,
            });
            if !p.try_consume(b',') {
                break;
            }
        }
        p.expect(b']')?;
    }
    p.expect(b',')?;
    p.key("days")?;
    p.expect(b'[')?;
    if !p.try_consume(b']') {
        loop {
            p.expect(b'{')?;
            p.key("day")?;
            let day_no = p.number_u32()?;
            let mut snapshot = DaySnapshot::new(day_no);
            p.expect(b',')?;
            p.key("caches")?;
            p.expect(b'[')?;
            if !p.try_consume(b']') {
                loop {
                    p.expect(b'[')?;
                    let peer = PeerId(p.number_u32()?);
                    p.expect(b',')?;
                    p.expect(b'[')?;
                    let mut cache = Vec::new();
                    if !p.try_consume(b']') {
                        loop {
                            cache.push(FileRef(p.number_u32()?));
                            if !p.try_consume(b',') {
                                break;
                            }
                        }
                        p.expect(b']')?;
                    }
                    p.expect(b']')?;
                    if snapshot.cache_of(peer).is_some() {
                        return Err(p.error(&format!("duplicate peer {peer} in day {day_no}")));
                    }
                    snapshot.insert(peer, cache);
                    if !p.try_consume(b',') {
                        break;
                    }
                }
                p.expect(b']')?;
            }
            p.expect(b'}')?;
            trace.days.push(snapshot);
            if !p.try_consume(b',') {
                break;
            }
        }
        p.expect(b']')?;
    }
    p.expect(b'}')?;
    p.end()?;
    trace.check_invariants().map_err(TraceIoError::Invalid)?;
    Ok(trace)
}

/// Byte cursor for the fixed-schema JSON reader.
struct JsonCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonCursor<'_> {
    fn error(&self, message: &str) -> TraceIoError {
        TraceIoError::Json(format!("at byte {}: {}", self.pos, message))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), TraceIoError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!(
                "expected {:?}, found {:?}",
                c as char,
                self.bytes.get(self.pos).map(|&b| b as char)
            )))
        }
    }

    fn try_consume(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes `"name":`.
    fn key(&mut self, name: &str) -> Result<(), TraceIoError> {
        let found = self.string()?;
        if found != name {
            return Err(self.error(&format!("expected key {name:?}, found {found:?}")));
        }
        self.expect(b':')
    }

    /// Consumes a string literal (no escape support: the schema only
    /// carries hex digests, country codes and kind names).
    fn string(&mut self) -> Result<String, TraceIoError> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid utf-8 in string"))?
                    .to_string();
                if s.contains('\\') {
                    return Err(self.error("escapes are not part of the trace schema"));
                }
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.error("unterminated string"))
    }

    fn hex_digest(&mut self) -> Result<Digest, TraceIoError> {
        let s = self.string()?;
        Digest::from_hex(&s).ok_or_else(|| self.error(&format!("bad hex digest {s:?}")))
    }

    /// Consumes a non-negative integer.
    fn number(&mut self) -> Result<u64, TraceIoError> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ascii")
            .parse()
            .map_err(|_| self.error("number out of range"))
    }

    /// Consumes a non-negative integer that must fit a `u32` (days, peer
    /// ids, file refs, IPs, ASNs): a wider value is an error, never
    /// truncated.
    fn number_u32(&mut self) -> Result<u32, TraceIoError> {
        let n = self.number()?;
        u32::try_from(n).map_err(|_| self.error(&format!("{n} exceeds u32")))
    }

    fn end(&mut self) -> Result<(), TraceIoError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing data after trace"))
        }
    }
}

/// The on-disk formats [`load_auto`] can distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Binary columnar (`io::bin`).
    Binary,
    /// The JSON interchange schema.
    Json,
}

/// Sniffs a trace file's format from its leading bytes: the binary
/// magic means binary, anything else is read as JSON.
pub fn sniff_format(path: &Path) -> Result<TraceFormat, TraceIoError> {
    let mut head = [0u8; 8];
    let mut sniff = || -> io::Result<usize> { fs::File::open(path)?.read(&mut head) };
    let n = sniff().map_err(|e| TraceIoError::Io(e).with_path(path))?;
    Ok(if head[..n] == bin::MAGIC[..] {
        TraceFormat::Binary
    } else {
        TraceFormat::Json
    })
}

/// Loads a trace in any supported format, sniffing it from the file's
/// leading bytes.
pub fn load_auto(path: &Path) -> Result<Trace, TraceIoError> {
    match sniff_format(path)? {
        TraceFormat::Binary => load_bin(path),
        TraceFormat::Json => load_json(path),
    }
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

    #[test]
    fn json_round_trip() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("edonkey-trace-test-json");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        save_json(&trace, &path).unwrap();
        let loaded = load_json(&path).unwrap();
        assert_eq!(loaded, trace);
    }

    #[test]
    fn json_rejects_integers_wider_than_u32() {
        // One file, one peer; day 350 names peer and file 2^32, which a
        // truncating reader would load as peer 0 holding file 0.
        let json = |ip: u64, asn: u64, day: u64, peer: u64, file: u64| {
            format!(
                "{{\"files\":[{{\"id\":\"{id}\",\"size\":1,\"kind\":\"Audio\"}}],\
                 \"peers\":[{{\"uid\":\"{id}\",\"ip\":{ip},\"country\":\"FR\",\"asn\":{asn}}}],\
                 \"days\":[{{\"day\":{day},\"caches\":[[{peer},[{file}]]]}}]}}",
                id = Md4::digest(b"x").to_hex()
            )
        };
        assert!(
            from_json(&json(1, 3215, 350, 0, 0)).is_ok(),
            "in-range control"
        );
        const WIDE: u64 = 1 << 32;
        for bad in [
            json(1, 3215, 350, WIDE, WIDE),
            json(1, 3215, 350, 0, WIDE),
            json(1, 3215, WIDE, 0, 0),
            json(WIDE, 3215, 350, 0, 0),
            json(1, WIDE, 350, 0, 0),
        ] {
            match from_json(&bad) {
                Err(TraceIoError::Json(msg)) => assert!(msg.contains("exceeds u32"), "{msg}"),
                other => panic!("expected a JSON range error for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn load_auto_sniffs_both_formats() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join("edonkey-trace-test-auto");
        fs::create_dir_all(&dir).unwrap();
        let json = dir.join("t.json");
        let bin = dir.join("t.edt");
        save_json(&trace, &json).unwrap();
        save_bin(&trace, &bin).unwrap();
        assert_eq!(sniff_format(&json).unwrap(), TraceFormat::Json);
        assert_eq!(sniff_format(&bin).unwrap(), TraceFormat::Binary);
        for path in [&json, &bin] {
            assert_eq!(load_auto(path).unwrap(), trace, "{}", path.display());
        }
    }

    #[test]
    fn error_display() {
        let e = TraceIoError::Bin {
            offset: 3,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "binary format error at byte 3: boom");
    }

    #[test]
    fn errors_carry_the_file_path() {
        let dir = std::env::temp_dir().join("edonkey-trace-test-errpath");
        fs::create_dir_all(&dir).unwrap();

        // A missing file: the i/o error names the path.
        let missing = dir.join("missing.edt");
        let _ = fs::remove_file(&missing);
        let e = load_auto(&missing).unwrap_err();
        assert!(e.to_string().contains("missing.edt"), "{e}");

        // Corrupt binary on disk: path AND byte offset in one message,
        // with the underlying error reachable through source().
        let trace = sample_trace();
        let corrupt = dir.join("corrupt.edt");
        save_bin(&trace, &corrupt).unwrap();
        let mut bytes = fs::read(&corrupt).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&corrupt, &bytes).unwrap();
        let e = load_auto(&corrupt).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("corrupt.edt"), "{msg}");
        assert!(msg.contains("byte"), "{msg}");
        let inner = std::error::Error::source(&e).expect("WithPath chains its source");
        assert!(inner.to_string().contains("byte"), "{inner}");

        // Broken JSON on disk: same contract for the text codec.
        let bad_json = dir.join("bad.json");
        fs::write(&bad_json, "{\"files\":[oops").unwrap();
        let e = load_auto(&bad_json).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("bad.json"), "{msg}");
        assert!(msg.contains("byte"), "{msg}");

        // with_path is idempotent: no double annotation.
        let e = TraceIoError::Invalid("x".into())
            .with_path(Path::new("a"))
            .with_path(Path::new("b"));
        assert_eq!(e.to_string(), "a: invalid trace: x");
    }
}

//! Format-compatibility pin: a tiny, fully deterministic trace is
//! checked into `tests/data/golden_v1.etrc` as written by format
//! version 1. Decoding the fixture must keep producing the expected
//! trace for as long as version 1 is readable (backward compatibility),
//! and encoding the expected trace must keep producing the fixture
//! byte-for-byte (writers must not silently change the wire image
//! without bumping the version byte).
//!
//! Regenerate with `EDONKEY_BLESS=1 cargo test --test format_compat`
//! after an *intentional* format change — which must also bump
//! [`FORMAT_VERSION`] and extend the reader to keep accepting old
//! fixtures.

use edonkey_repro::proto::md4::Md4;
use edonkey_repro::proto::query::FileKind;
use edonkey_repro::trace::compact::TraceArena;
use edonkey_repro::trace::io::bin::{FORMAT_VERSION, MAGIC};
use edonkey_repro::trace::io::{from_bin, to_bin};
use edonkey_repro::trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_v1.etrc");

/// The golden trace: three peers (two sharing one DHCP address, one
/// free-rider), four files across distinct kinds, two non-contiguous
/// days. Every identity is derived from a fixed string, so this
/// function is bit-stable across platforms and releases.
fn golden_trace() -> TraceArena {
    let mut b = TraceBuilder::new();
    let alice = b.intern_peer(PeerInfo {
        uid: Md4::digest(b"golden-alice"),
        ip: 0x0a00_0001,
        country: CountryCode::new("FR"),
        asn: 3215,
    });
    let bob = b.intern_peer(PeerInfo {
        uid: Md4::digest(b"golden-bob"),
        ip: 0x0a00_0001, // alice's address, reassigned by DHCP
        country: CountryCode::new("DE"),
        asn: 3320,
    });
    let carol = b.intern_peer(PeerInfo {
        uid: Md4::digest(b"golden-carol"),
        ip: 0x0a00_0002,
        country: CountryCode::new("ES"),
        asn: 12479,
    });
    let files: Vec<_> = [
        ("golden-song", 4_000_000, FileKind::Audio),
        ("golden-movie", 700_000_000, FileKind::Video),
        ("golden-tool", 15_000_000, FileKind::Program),
        ("golden-scan", 2_000_000, FileKind::Image),
    ]
    .into_iter()
    .map(|(name, size, kind)| {
        b.intern_file(FileInfo {
            id: Md4::digest(name.as_bytes()),
            size,
            kind,
        })
    })
    .collect();
    b.observe(340, alice, vec![files[0], files[1]]);
    b.observe(340, bob, vec![files[1], files[2]]);
    b.observe(340, carol, vec![]); // the free-rider
    b.observe(343, alice, vec![files[0], files[3]]);
    b.observe(343, carol, vec![]);
    b.finish()
}

#[test]
fn golden_fixture_decodes_to_the_expected_trace() {
    if std::env::var("EDONKEY_BLESS").is_ok() {
        std::fs::write(FIXTURE, to_bin(&golden_trace())).expect("bless fixture");
    }
    let bytes = std::fs::read(FIXTURE).expect("read checked-in fixture");
    let decoded = from_bin(&bytes).expect("decode checked-in fixture");
    assert_eq!(
        decoded,
        golden_trace(),
        "version-1 fixture no longer decodes correctly"
    );
}

#[test]
fn encoder_reproduces_the_golden_fixture_byte_for_byte() {
    let bytes = std::fs::read(FIXTURE).expect("read checked-in fixture");
    assert_eq!(
        to_bin(&golden_trace()),
        bytes,
        "wire image changed — bump FORMAT_VERSION and add a new fixture \
         instead of mutating version 1"
    );
}

#[test]
fn golden_fixture_declares_format_version_1() {
    let bytes = std::fs::read(FIXTURE).expect("read checked-in fixture");
    assert_eq!(&bytes[..MAGIC.len()], &MAGIC);
    assert_eq!(bytes[MAGIC.len()], 1, "fixture must stay a version-1 file");
    assert_eq!(
        FORMAT_VERSION, 1,
        "version bump requires a new golden fixture"
    );
}

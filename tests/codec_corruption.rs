//! Robustness battery for the binary columnar trace codec: corrupted,
//! truncated, and adversarially forged inputs must always come back as a
//! structured [`TraceIoError`] — never a panic, and never an
//! attacker-sized allocation.
//!
//! The corpus is deterministic: single-byte mutations are exhaustive
//! over every byte position (×3 XOR masks), truncations are exhaustive
//! over every strict prefix, and the random-blob fuzz corpus is drawn
//! from a fixed-seed RNG.

use edonkey_repro::proto::md4::Md4;
use edonkey_repro::proto::query::FileKind;
use edonkey_repro::trace::io::bin::{FORMAT_VERSION, HEADER_LEN, MAGIC};
use edonkey_repro::trace::io::{from_bin, to_bin};
use edonkey_repro::trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};
use rand::{Rng, RngCore, SeedableRng};

/// Mirror of the codec's lane-folded FNV-1a64 checksum, for forging
/// "valid" headers.
fn fnv1a64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    let mut h: u64 = 0xcbf29ce484222325;
    let mut lanes = bytes.chunks_exact(8);
    for lane in &mut lanes {
        h ^= u64::from_le_bytes(lane.try_into().expect("8 bytes"));
        h = h.wrapping_mul(PRIME);
    }
    for &b in lanes.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

/// A small but fully featured trace: several files and peers (with a
/// duplicate IP and a free-rider), three non-contiguous days.
fn sample_bytes() -> Vec<u8> {
    let mut b = TraceBuilder::new();
    let peers: Vec<_> = (0..5u32)
        .map(|i| {
            b.intern_peer(PeerInfo {
                uid: Md4::digest(format!("corrupt-peer-{i}").as_bytes()),
                ip: 0x0a00_0000 + (i % 2), // two addresses shared by five peers
                country: CountryCode::new("FR"),
                asn: 3215 + i,
            })
        })
        .collect();
    let files: Vec<_> = (0..8u32)
        .map(|i| {
            b.intern_file(FileInfo {
                id: Md4::digest(format!("corrupt-file-{i}").as_bytes()),
                size: 700_000 * (i as u64 + 1),
                kind: FileKind::ALL[i as usize % FileKind::ALL.len()],
            })
        })
        .collect();
    for (offset, day) in [340u32, 341, 345].into_iter().enumerate() {
        for (p, peer) in peers.iter().enumerate() {
            if p == 4 {
                b.observe(day, *peer, vec![]); // the free-rider
            } else if (p + offset) % 2 == 0 {
                b.observe(day, *peer, files.iter().skip(p).step_by(2).copied());
            }
        }
    }
    to_bin(&b.finish())
}

/// Overwrites the header checksum so forged header fields pass the
/// checksum gate and exercise the *semantic* validation behind it.
fn fix_header_checksum(bytes: &mut [u8]) {
    let sum = fnv1a64(&bytes[..HEADER_LEN as usize - 8]);
    bytes[HEADER_LEN as usize - 8..HEADER_LEN as usize].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn every_single_byte_mutation_is_detected() {
    let valid = sample_bytes();
    assert!(from_bin(&valid).is_ok(), "corpus baseline must decode");
    for pos in 0..valid.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut mutated = valid.clone();
            mutated[pos] ^= mask;
            assert!(
                from_bin(&mutated).is_err(),
                "mutation at byte {pos} (xor {mask:#04x}) must be detected"
            );
        }
    }
}

#[test]
fn every_truncation_is_detected() {
    let valid = sample_bytes();
    for len in 0..valid.len() {
        assert!(
            from_bin(&valid[..len]).is_err(),
            "truncation to {len} of {} bytes must be detected",
            valid.len()
        );
    }
}

#[test]
fn trailing_garbage_is_detected() {
    let mut bytes = sample_bytes();
    bytes.push(0);
    assert!(
        from_bin(&bytes).is_err(),
        "one trailing byte must be detected"
    );
    bytes.extend_from_slice(&MAGIC);
    assert!(
        from_bin(&bytes).is_err(),
        "appended second file must be detected"
    );
}

#[test]
fn random_blobs_never_decode_and_never_panic() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC);
    for case in 0..256 {
        let len = rng.gen_range(0usize..512);
        let mut blob = vec![0u8; len];
        rng.fill_bytes(&mut blob);
        // Half the corpus gets the real magic so the fuzz reaches past
        // the first gate into header/section parsing.
        if case % 2 == 0 && blob.len() >= MAGIC.len() {
            blob[..MAGIC.len()].copy_from_slice(&MAGIC);
            if blob.len() > MAGIC.len() {
                blob[MAGIC.len()] = FORMAT_VERSION;
            }
        }
        assert!(
            from_bin(&blob).is_err(),
            "random blob {case} must not decode"
        );
    }
}

/// A checksum-valid header declaring 4-billion-entry tables over a
/// tiny file must fail on the count/length cross-checks — allocations
/// are sized from actual payload bytes, never from declared counts.
#[test]
fn forged_table_counts_fail_without_oom() {
    let mut bytes = sample_bytes();
    bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes()); // n_files
    fix_header_checksum(&mut bytes);
    assert!(from_bin(&bytes).is_err(), "forged n_files must be rejected");

    let mut bytes = sample_bytes();
    bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes()); // n_peers
    fix_header_checksum(&mut bytes);
    assert!(from_bin(&bytes).is_err(), "forged n_peers must be rejected");
}

/// A checksum-valid header pointing the table offset outside the file
/// (or into the header) must be rejected before any section read.
#[test]
fn forged_table_offset_fails() {
    for offset in [0u64, 1, HEADER_LEN - 1, u64::MAX / 2, u64::MAX] {
        let mut bytes = sample_bytes();
        bytes[17..25].copy_from_slice(&offset.to_le_bytes());
        fix_header_checksum(&mut bytes);
        assert!(
            from_bin(&bytes).is_err(),
            "table offset {offset:#x} must be rejected"
        );
    }
}

/// A section declaring a payload longer than the file must be rejected
/// by the bounds check *before* the payload buffer is allocated — a
/// `u64::MAX` length would otherwise be a one-byte OOM bomb.
#[test]
fn forged_section_length_fails_without_oom() {
    for forged_len in [u64::MAX, u64::MAX / 2, 1 << 40] {
        let mut bytes = sample_bytes();
        // The first section starts right after the header; its length
        // field follows the tag byte. Section checksums cover only the
        // payload, so no re-checksum is needed to reach the gate.
        let len_at = HEADER_LEN as usize + 1;
        bytes[len_at..len_at + 8].copy_from_slice(&forged_len.to_le_bytes());
        assert!(
            from_bin(&bytes).is_err(),
            "section payload length {forged_len:#x} must be rejected"
        );
    }
}

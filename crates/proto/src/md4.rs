//! MD4 message digest, implemented from scratch after RFC 1320.
//!
//! eDonkey identifies every 9.28 MB file part by its MD4 digest, and every
//! file by the MD4 digest of the concatenation of its part digests (a
//! [`crate::wire::FileId`]). MD4 is cryptographically broken, but the
//! reproduction needs it for fidelity with the protocol, not for
//! security. Here it also derives the generator's peer and file ids and
//! pins the reproduction's output TSVs.
//!
//! The implementation is incremental: bytes may be fed in arbitrary chunks
//! through [`Md4::update`], and [`Md4::finalize`] appends the RFC 1320
//! padding (a `0x80` byte, zeros, then the bit length as a little-endian
//! `u64`) before producing the 16-byte digest.
//!
//! # Examples
//!
//! ```
//! use edonkey_proto::md4::Md4;
//!
//! let digest = Md4::digest(b"abc");
//! assert_eq!(digest.to_hex(), "a448017aaf21d8525fc10ae87aa6729d");
//! ```

use std::fmt;

/// A 16-byte MD4 digest.
///
/// Wraps the raw bytes so that digests get their own `Display`/`Debug`
/// (lowercase hex, as file-sharing tools print ed2k hashes) and so that
/// other crates cannot confuse a digest with arbitrary `[u8; 16]` data.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Returns the digest as lowercase hexadecimal.
    ///
    /// # Examples
    ///
    /// ```
    /// use edonkey_proto::md4::Md4;
    /// assert_eq!(Md4::digest(b"").to_hex(), "31d6cfe0d16ae931b73c59d7e0c089c0");
    /// ```
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
        }
        s
    }

    /// Parses a 32-character hexadecimal string into a digest.
    ///
    /// Returns `None` when the input is not exactly 32 hex digits.
    ///
    /// # Examples
    ///
    /// ```
    /// use edonkey_proto::md4::Digest;
    /// let d = Digest::from_hex("31d6cfe0d16ae931b73c59d7e0c089c0").unwrap();
    /// assert_eq!(d.to_hex(), "31d6cfe0d16ae931b73c59d7e0c089c0");
    /// assert!(Digest::from_hex("xyz").is_none());
    /// ```
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let bytes = s.as_bytes();
        let mut out = [0u8; 16];
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// Returns the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

/// Incremental MD4 hasher.
///
/// # Examples
///
/// ```
/// use edonkey_proto::md4::Md4;
///
/// let mut h = Md4::new();
/// h.update(b"message ");
/// h.update(b"digest");
/// assert_eq!(h.finalize().to_hex(), "d9130a8164549fe818874806e1c7014b");
/// ```
#[derive(Clone)]
pub struct Md4 {
    state: [u32; 4],
    /// Total number of message bytes fed so far (mod 2^64).
    len: u64,
    /// Buffered partial block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md4 {
    fn default() -> Self {
        Self::new()
    }
}

/// Round 1 auxiliary function: bitwise conditional.
#[inline(always)]
fn f(x: u32, y: u32, z: u32) -> u32 {
    (x & y) | (!x & z)
}

/// Round 2 auxiliary function: bitwise majority.
#[inline(always)]
fn g(x: u32, y: u32, z: u32) -> u32 {
    (x & y) | (x & z) | (y & z)
}

/// Round 3 auxiliary function: parity.
#[inline(always)]
fn h(x: u32, y: u32, z: u32) -> u32 {
    x ^ y ^ z
}

impl Md4 {
    /// RFC 1320 initial state.
    const INIT: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];

    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Md4 {
            state: Self::INIT,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// One-shot digest of `data`.
    ///
    /// # Examples
    ///
    /// ```
    /// use edonkey_proto::md4::Md4;
    /// assert_eq!(Md4::digest(b"a").to_hex(), "bde52cb31de33e46245e05fbdbd6fb24");
    /// ```
    pub fn digest(data: &[u8]) -> Digest {
        let mut hasher = Md4::new();
        hasher.update(data);
        hasher.finalize()
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // The input fit entirely in the partial block; it must not
                // fall through, or the remainder handling below would reset
                // `buf_len`.
                debug_assert!(rest.is_empty());
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        let mut chunks = rest.chunks_exact(64);
        for block in &mut chunks {
            let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
            self.compress(block);
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consumes the hasher, appending RFC 1320 padding, and returns the digest.
    pub fn finalize(mut self) -> Digest {
        const PAD: [u8; 64] = {
            let mut pad = [0u8; 64];
            pad[0] = 0x80;
            pad
        };
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, then zeros until the length is ≡ 56 (mod 64).
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        self.update(&PAD[..pad_len]);
        // `update` also advances `len`, but `bit_len` was captured first.
        self.update(&bit_len.to_le_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 16];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }

    /// Compresses one 64-byte block into the state (RFC 1320 section A.3).
    fn compress(&mut self, block: &[u8; 64]) {
        let mut x = [0u32; 16];
        for (word, chunk) in x.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("chunks_exact(4)"));
        }
        let [mut a, mut b, mut c, mut d] = self.state;

        macro_rules! round1 {
            ($a:ident, $b:ident, $c:ident, $d:ident, $k:expr, $s:expr) => {
                $a = $a
                    .wrapping_add(f($b, $c, $d))
                    .wrapping_add(x[$k])
                    .rotate_left($s);
            };
        }
        macro_rules! round2 {
            ($a:ident, $b:ident, $c:ident, $d:ident, $k:expr, $s:expr) => {
                $a = $a
                    .wrapping_add(g($b, $c, $d))
                    .wrapping_add(x[$k])
                    .wrapping_add(0x5a82_7999)
                    .rotate_left($s);
            };
        }
        macro_rules! round3 {
            ($a:ident, $b:ident, $c:ident, $d:ident, $k:expr, $s:expr) => {
                $a = $a
                    .wrapping_add(h($b, $c, $d))
                    .wrapping_add(x[$k])
                    .wrapping_add(0x6ed9_eba1)
                    .rotate_left($s);
            };
        }

        // Round 1: indices 0..16 in order, shifts 3,7,11,19.
        for i in (0..16).step_by(4) {
            round1!(a, b, c, d, i, 3);
            round1!(d, a, b, c, i + 1, 7);
            round1!(c, d, a, b, i + 2, 11);
            round1!(b, c, d, a, i + 3, 19);
        }
        // Round 2: column order (0,4,8,12), shifts 3,5,9,13.
        for i in 0..4 {
            round2!(a, b, c, d, i, 3);
            round2!(d, a, b, c, i + 4, 5);
            round2!(c, d, a, b, i + 8, 9);
            round2!(b, c, d, a, i + 12, 13);
        }
        // Round 3: bit-reversed order (0,8,4,12,2,10,6,14,1,9,5,13,3,11,7,15),
        // shifts 3,9,11,15.
        for &i in &[0usize, 2, 1, 3] {
            round3!(a, b, c, d, i, 3);
            round3!(d, a, b, c, i + 8, 9);
            round3!(c, d, a, b, i + 4, 11);
            round3!(b, c, d, a, i + 12, 15);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1320 appendix A.5 test suite.
    #[test]
    fn rfc1320_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "31d6cfe0d16ae931b73c59d7e0c089c0"),
            (b"a", "bde52cb31de33e46245e05fbdbd6fb24"),
            (b"abc", "a448017aaf21d8525fc10ae87aa6729d"),
            (b"message digest", "d9130a8164549fe818874806e1c7014b"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "d79e1c308aa5bbcdeea8ed63df412da9",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "043f8582f241db351ce627e153e7f0e4",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "e33b4ddc9c38f2199c3e7b164fcc0536",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(Md4::digest(input).to_hex(), *expect, "input {:?}", input);
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Md4::digest(&data);
        // Feed in every possible split around the block boundary.
        for split in [0usize, 1, 7, 63, 64, 65, 127, 128, 500, 1024] {
            let mut h = Md4::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
        // Byte-at-a-time.
        let mut h = Md4::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn length_padding_boundaries() {
        // Hash inputs whose lengths straddle the 56-byte padding boundary;
        // all must be distinct and deterministic.
        let mut digests = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let d = Md4::digest(&data);
            assert_eq!(d, Md4::digest(&data));
            assert!(digests.insert(d), "collision at length {len}");
        }
    }

    #[test]
    fn one_shot_padding_matches_byte_at_a_time_padding() {
        // The byte-at-a-time padding loop `finalize` used to run; lengths
        // 0..=192 cover both branches (pad to 56 in the current block, or
        // spill into the next) at every buffer offset, three times over.
        fn reference(data: &[u8]) -> Digest {
            let mut h = Md4::new();
            h.update(data);
            let bit_len = h.len.wrapping_mul(8);
            h.update(&[0x80]);
            while h.buf_len != 56 {
                h.update(&[0]);
            }
            h.update(&bit_len.to_le_bytes());
            let mut out = [0u8; 16];
            for (chunk, word) in out.chunks_exact_mut(4).zip(h.state) {
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            Digest(out)
        }
        let data: Vec<u8> = (0..192u32).map(|i| (i * 37 % 256) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                Md4::digest(&data[..len]),
                reference(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = Md4::digest(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex(""), None);
        assert_eq!(Digest::from_hex("0123"), None);
        assert_eq!(Digest::from_hex("zz".repeat(16).as_str()), None);
    }

    #[test]
    fn display_and_debug() {
        let d = Md4::digest(b"abc");
        assert_eq!(format!("{d}"), "a448017aaf21d8525fc10ae87aa6729d");
        assert_eq!(format!("{d:?}"), "Digest(a448017aaf21d8525fc10ae87aa6729d)");
    }

    #[test]
    fn million_a_streaming() {
        // Classic extended vector: MD4 of one million 'a' bytes.
        let mut hasher = Md4::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            hasher.update(&chunk);
        }
        assert_eq!(
            hasher.finalize().to_hex(),
            "bbce80cc6bb65e5c6745e30d4eeca9a4"
        );
    }
}

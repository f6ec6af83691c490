//! Output digests (MD4, from `edonkey-proto`) and the pinned manifest.
//!
//! Every operation the benchmark runs ends in one digest over what it
//! produced: a figure's TSV bytes, a sweep's per-cell results and
//! ledgers, a serve cell's result, ledger and latency percentiles, or an
//! out-of-core stage's output. Integers are fed little-endian in field
//! declaration order, so a digest changes only when a value does.

use std::path::{Path, PathBuf};

use edonkey_proto::md4::Md4;
use edonkey_semsearch::{SearchHealth, ServeHealth, SimResult};

/// The manifest of default-seed digests, compiled in.
pub const EXPECTED: &str = include_str!("expected.tsv");

/// An MD4 digest under construction.
pub struct Digest(Md4);

impl Digest {
    pub fn new() -> Self {
        Digest(Md4::new())
    }

    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        self.0.update(data);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
        self
    }

    pub fn result(&mut self, r: &SimResult) -> &mut Self {
        self.u64(r.requests)
            .u64(r.one_hop_hits)
            .u64(r.two_hop_hits)
            .u64(r.contributor_seeds)
            .u64s(&r.messages_per_peer)
    }

    pub fn search_health(&mut self, h: &SearchHealth) -> &mut Self {
        for v in [
            h.attempted,
            h.answered,
            h.timed_out,
            h.retried,
            h.evicted_stale,
            h.probed_stale,
            h.server_fallback,
            h.stranded,
            h.recovered,
            h.forwarded,
            h.dht_hops,
            h.wasted_queries,
            h.sybil_slots_held,
            h.polluted_acquisitions,
            h.reputation_evictions,
        ] {
            self.u64(v);
        }
        self
    }

    pub fn serve_health(&mut self, h: &ServeHealth) -> &mut Self {
        self.search_health(&h.search);
        for v in [
            h.arrived,
            h.served,
            h.shed,
            h.deferred,
            h.deferred_ticks,
            h.max_queue_depth,
        ] {
            self.u64(v);
        }
        self
    }

    pub fn hex(&self) -> String {
        self.0.clone().finalize().to_hex()
    }
}

/// One pinned digest: `(scale, workload, operation, digest)`.
pub type Pin = (String, String, String, String);

/// Parses a manifest: `scale \t workload \t operation \t digest` lines,
/// `#` comments and blank lines ignored.
pub fn parse_manifest(text: &str) -> Result<Vec<Pin>, String> {
    let mut pins = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [scale, workload, op, digest] = cols[..] else {
            return Err(format!("manifest line {}: expected 4 columns", n + 1));
        };
        pins.push((scale.into(), workload.into(), op.into(), digest.into()));
    }
    Ok(pins)
}

/// Renders a manifest, sorted so re-blessing gives stable diffs.
pub fn render_manifest(pins: &mut [Pin], seed: u64) -> String {
    pins.sort();
    let mut out = format!(
        "# Pinned output digests of the end-to-end benchmark at seed {seed}.\n\
         # Regenerate with: benchmark --bless [--scale S]\n\
         # scale\tworkload\toperation\tmd4\n"
    );
    for (scale, workload, op, digest) in pins.iter() {
        out.push_str(&format!("{scale}\t{workload}\t{op}\t{digest}\n"));
    }
    out
}

/// Where `--bless` writes the manifest: next to this source file.
pub fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin/benchmark/expected.tsv")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_and_the_compiled_copy_parses() {
        let mut pins = vec![
            ("test".into(), "search".into(), "quiet".into(), "ab".into()),
            (
                "small".into(),
                "figures".into(),
                "fig01".into(),
                "cd".into(),
            ),
        ];
        let text = render_manifest(&mut pins, 7);
        assert_eq!(parse_manifest(&text).expect("parses"), pins);
        assert!(parse_manifest("a\tb\n").is_err());
        parse_manifest(EXPECTED).expect("compiled manifest parses");
    }

    #[test]
    fn digests_see_every_value() {
        let mut a = Digest::new();
        a.u64s(&[1, 2]);
        let mut b = Digest::new();
        b.u64s(&[1, 3]);
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 32);
    }
}

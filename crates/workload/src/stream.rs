//! Day-at-a-time streaming trace generation — the out-of-core paper
//! tier's front end (DESIGN.md §13).
//!
//! [`crate::generate_trace`] materializes every day of the ground truth
//! plus the observed [`Trace`] before anything is written: at
//! `WorkloadConfig::paper_scale` (320 k peers, 8 M files) that is tens
//! of gigabytes of snapshots. The streaming generator instead emits one
//! [`DayArena`] at a time straight through [`TraceWriter`], so peak
//! memory is the population tables plus the current day's rows plus
//! every sharer's acquisition stream (one `u32` per position).
//!
//! The price of streaming is the RNG discipline: the batch generator
//! threads a single sequential `StdRng` through every day, which makes
//! day `d` depend on every draw before it. Here every draw is a
//! *stateless* [`splitmix64`] stream keyed by `(seed, salt, entity,
//! position)`, so any day — and any peer within a day — can be produced
//! independently, in parallel, with a thread-invariant result:
//!
//! * **acquisitions** — peer `i`'s lifetime acquisition stream maps
//!   position `k` to a file via a `(seed, ACQ, i, k)`-keyed draw through
//!   [`Population::sample_file`] (interest/locality mixture preserved);
//! * **turnover** — the day's acquisition count is a `(seed, DAILY,
//!   day, i)`-keyed Poisson draw with the configured ~5 replacements
//!   per client per day; the cache is the FIFO window holding the last
//!   `target_cache` positions. Since both are keyed draws, each
//!   sharer's whole stream (`target` plus the sum of its daily counts)
//!   is drawn up front, peer-major, while that peer's interest-topic
//!   tables are hot, and day `d`'s window is a slice of it;
//! * **observation** — the ideal observer's coverage ramp
//!   (`observe_prob_start → observe_prob_end`) is a `(seed, OBS, day,
//!   i)`-keyed Bernoulli draw, free-riders included (they surface as
//!   empty rows, exactly like the batch observer).
//!
//! Because the two generators consume RNG in different orders they
//! produce different (equally calibrated) traces for the same seed; the
//! streaming path's pinned equivalence is against its own in-memory
//! twin ([`generate_trace_streamed_in_memory`]), byte-identical under
//! `trace::io::bin` for any thread count — the property
//! `tests/properties.rs` locks down — and against the day-by-day
//! ring-buffer emitter kept in this module's tests.

use std::io::{Seek, Write};
use std::path::Path;

use edonkey_trace::compact::DayArena;
use edonkey_trace::model::{FileRef, PeerId, Trace};
use edonkey_trace::{parallel_map_init_threads, TraceIoError, TraceWriter};
use rand::{Rng, RngCore};

use crate::config::WorkloadConfig;
use crate::dist::poisson;
use crate::mix::splitmix64;
use crate::population::Population;

/// Domain separation salts for the stateless draw streams.
const SALT_ACQ: u64 = 0x73_74_72_6d_41_43_51_31; // "strmACQ1"
const SALT_DAILY: u64 = 0x73_74_72_6d_44_41_59_31; // "strmDAY1"
const SALT_OBS: u64 = 0x73_74_72_6d_4f_42_53_31; // "strmOBS1"

/// A stateless-keyed counter RNG: `keyed(seed, salt, a, b)` starts an
/// independent splitmix64 stream, so any `(entity, position)` draw can
/// be replayed without the draws before it.
struct StreamRng {
    state: u64,
}

impl StreamRng {
    fn keyed(seed: u64, salt: u64, a: u64, b: u64) -> Self {
        let state = splitmix64(splitmix64(splitmix64(seed ^ salt).wrapping_add(a)).wrapping_add(b));
        StreamRng { state }
    }
}

impl RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// One peer's acquisition stream over the whole run (empty for a
/// free-rider), and how far the day loop has advanced through it.
struct PeerStream {
    /// `files[k]` is the file acquired at lifetime position `k`: the
    /// `target` initial positions, then every day's Poisson count.
    files: Vec<u32>,
    /// Target cache size; the day's window is the last `target`
    /// positions acquired so far. `0` marks a free-rider.
    target: usize,
    /// Positions acquired so far.
    count: usize,
}

/// What one day's emission produced, summed over the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Days actually written (days with at least one observed peer).
    pub days_written: u32,
    /// Observed (peer, day) rows emitted.
    pub rows: u64,
    /// Cache entries emitted across all rows.
    pub entries: u64,
}

/// Draws every sharer's whole acquisition stream up front, peer by peer
/// on `threads` workers: `target` plus the sum of its daily Poisson
/// counts, so each sharer's interest-topic tables stay hot across all
/// of its draws. Free-riders draw nothing.
fn init_streams(pop: &Population, threads: usize) -> Vec<PeerStream> {
    let tables = pop.static_tables();
    let config = &pop.config;
    let seed = config.seed;
    let peers: Vec<usize> = (0..pop.peers.len()).collect();
    parallel_map_init_threads(
        &peers,
        threads,
        || (),
        |(), &i| {
            let target = pop.peers[i].target_cache;
            let mut len = target;
            if target > 0 {
                for offset in 0..config.days {
                    let mut rng = StreamRng::keyed(seed, SALT_DAILY, u64::from(offset), i as u64);
                    len += poisson(config.daily_replacements, &mut rng) as usize;
                }
            }
            let files = (0..len as u64)
                .map(|k| {
                    let mut rng = StreamRng::keyed(seed, SALT_ACQ, i as u64, k);
                    pop.sample_file(i, &tables, &mut rng)
                })
                .collect();
            PeerStream {
                files,
                target,
                count: target,
            }
        },
    )
}

/// One worker's slice of a day: observed peers, their row lengths and
/// the concatenated sorted/deduplicated entries.
type DayPart = (Vec<u32>, Vec<u32>, Vec<FileRef>);

/// Advances one day of turnover for `streams[lo..hi]` and collects the
/// observed rows. All draws are keyed by absolute peer index, so the
/// result is independent of how peers are sharded across workers.
fn day_part(
    streams: &mut [PeerStream],
    lo: usize,
    offset: u32,
    lambda: f64,
    p_observe: f64,
    seed: u64,
) -> DayPart {
    let mut peers = Vec::new();
    let mut lens = Vec::new();
    let mut entries: Vec<FileRef> = Vec::new();
    let mut row: Vec<u32> = Vec::new();
    for (i, stream) in (lo..).zip(streams.iter_mut()) {
        if stream.target > 0 {
            let mut rng = StreamRng::keyed(seed, SALT_DAILY, u64::from(offset), i as u64);
            stream.count += poisson(lambda, &mut rng) as usize;
        }
        let mut orng = StreamRng::keyed(seed, SALT_OBS, u64::from(offset), i as u64);
        if orng.gen_bool(p_observe.clamp(0.0, 1.0)) {
            row.clear();
            row.extend_from_slice(&stream.files[stream.count - stream.target..stream.count]);
            row.sort_unstable();
            row.dedup();
            peers.push(i as u32);
            lens.push(row.len() as u32);
            entries.extend(row.iter().map(|&f| FileRef(f)));
        }
    }
    (peers, lens, entries)
}

/// The shared day step: advances every stream by one day (sharded
/// over `threads` contiguous peer ranges), assembles the observed rows
/// into `out` in peer order, and returns whether the day is non-empty.
fn fill_day(
    config: &WorkloadConfig,
    streams: &mut [PeerStream],
    offset: u32,
    threads: usize,
    out: &mut DayArena,
) -> bool {
    let n_days = f64::from(config.days.max(1));
    let t = f64::from(offset) / (n_days - 1.0).max(1.0);
    let p_observe =
        config.observe_prob_start + t * (config.observe_prob_end - config.observe_prob_start);
    let lambda = config.daily_replacements;
    let seed = config.seed;

    let n_peers = streams.len();
    let per = n_peers.div_ceil(threads.max(1)).max(1);
    let parts: Vec<DayPart> = if n_peers <= per {
        vec![day_part(streams, 0, offset, lambda, p_observe, seed)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .chunks_mut(per)
                .enumerate()
                .map(|(w, chunk)| {
                    scope.spawn(move || day_part(chunk, w * per, offset, lambda, p_observe, seed))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream day worker panicked"))
                .collect()
        })
    };

    out.day = config.start_day + offset;
    out.peers.clear();
    out.offsets.clear();
    out.offsets.push(0);
    out.entries.clear();
    for (peers, lens, entries) in &parts {
        out.peers.extend_from_slice(peers);
        for &len in lens {
            let last = *out.offsets.last().expect("offsets start non-empty");
            out.offsets.push(last + len);
        }
        out.entries.extend_from_slice(entries);
    }
    !out.peers.is_empty()
}

/// Streams a generated trace through an already-open [`TraceWriter`],
/// returning the population, the emission stats and the finished sink.
///
/// Peak memory: the population tables + every sharer's acquisition
/// stream (one `u32` per position) + one [`DayArena`] of observed rows —
/// never the full multi-day trace.
pub fn stream_trace<W: Write + Seek>(
    config: &WorkloadConfig,
    threads: usize,
    mut writer: TraceWriter<W>,
) -> Result<(Population, StreamStats, W), TraceIoError> {
    let pop = Population::generate_with_threads(config.clone(), threads);
    let mut streams = init_streams(&pop, threads);
    let mut out = DayArena::new(config.start_day);
    let mut stats = StreamStats::default();
    for offset in 0..config.days {
        if fill_day(config, &mut streams, offset, threads, &mut out) {
            writer.write_day_arena(&out)?;
            stats.days_written += 1;
            stats.rows += out.peers.len() as u64;
            stats.entries += out.entries.len() as u64;
        }
    }
    let sink = writer.finish(
        pop.files.iter().map(|f| &f.info),
        pop.peers.iter().map(|p| &p.info),
    )?;
    Ok((pop, stats, sink))
}

/// Streams a generated trace straight to `path` in the binary format.
pub fn generate_trace_streaming(
    config: &WorkloadConfig,
    path: &Path,
    threads: usize,
) -> Result<(Population, StreamStats), TraceIoError> {
    let writer = TraceWriter::create(path)?;
    let (pop, stats, _file) = stream_trace(config, threads, writer)?;
    Ok((pop, stats))
}

/// The in-memory twin: materializes the full [`Trace`] the streaming
/// emitter would write. `to_bin` of this trace is byte-identical to the
/// [`stream_trace`] output for any thread count — the equivalence the
/// streaming proptests pin down (and the drop-in the smaller scales use
/// when the whole trace comfortably fits).
pub fn generate_trace_streamed_in_memory(
    config: &WorkloadConfig,
    threads: usize,
) -> (Population, Trace) {
    let pop = Population::generate_with_threads(config.clone(), threads);
    let mut streams = init_streams(&pop, threads);
    let mut out = DayArena::new(config.start_day);
    let mut trace = Trace {
        files: pop.file_infos(),
        peers: pop.peer_infos(),
        days: Vec::new(),
    };
    for offset in 0..config.days {
        if fill_day(config, &mut streams, offset, threads, &mut out) {
            let mut snapshot = edonkey_trace::model::DaySnapshot::new(out.day);
            for (r, &p) in out.peers.iter().enumerate() {
                let cache =
                    out.entries[out.offsets[r] as usize..out.offsets[r + 1] as usize].to_vec();
                snapshot.caches.push((PeerId(p), cache));
            }
            trace.days.push(snapshot);
        }
    }
    (pop, trace)
}

/// Streams into an in-memory sink and returns the raw binary bytes —
/// the byte-equality hook for tests.
pub fn stream_trace_to_bytes(
    config: &WorkloadConfig,
    threads: usize,
) -> Result<(Population, StreamStats, Vec<u8>), TraceIoError> {
    let cursor = std::io::Cursor::new(Vec::new());
    let writer = TraceWriter::new(cursor)?;
    let (pop, stats, sink) = stream_trace(config, threads, writer)?;
    Ok((pop, stats, sink.into_inner()))
}

/// The ring-buffer emitter the peer-major streams replaced, kept as the
/// oracle: the sequential population build, one rolling ring per sharer
/// (`ring[k % target]` holds position `k`), and each day's acquisitions
/// drawn inside that day.
#[cfg(test)]
fn ring_buffer_reference_bytes(config: &WorkloadConfig) -> Vec<u8> {
    let pop = Population::generate(config.clone());
    let tables = pop.static_tables();
    let seed = config.seed;
    let draw = |i: usize, k: u64| {
        let mut rng = StreamRng::keyed(seed, SALT_ACQ, i as u64, k);
        pop.sample_file(i, &tables, &mut rng)
    };
    let mut rings: Vec<(Vec<u32>, u64)> = pop
        .peers
        .iter()
        .enumerate()
        .map(|(i, peer)| {
            let target = peer.target_cache as u64;
            ((0..target).map(|k| draw(i, k)).collect(), target)
        })
        .collect();
    let mut writer = TraceWriter::new(std::io::Cursor::new(Vec::new())).expect("in-memory sink");
    for offset in 0..config.days {
        let n_days = f64::from(config.days.max(1));
        let t = f64::from(offset) / (n_days - 1.0).max(1.0);
        let p_observe =
            config.observe_prob_start + t * (config.observe_prob_end - config.observe_prob_start);
        let mut day = DayArena::new(config.start_day + offset);
        for (i, (ring, count)) in rings.iter_mut().enumerate() {
            let target = ring.len() as u64;
            if target > 0 {
                let mut rng = StreamRng::keyed(seed, SALT_DAILY, u64::from(offset), i as u64);
                for _ in 0..poisson(config.daily_replacements, &mut rng) {
                    ring[(*count % target) as usize] = draw(i, *count);
                    *count += 1;
                }
            }
            let mut orng = StreamRng::keyed(seed, SALT_OBS, u64::from(offset), i as u64);
            if orng.gen_bool(p_observe.clamp(0.0, 1.0)) {
                let mut row = ring.clone();
                row.sort_unstable();
                row.dedup();
                day.peers.push(i as u32);
                day.entries.extend(row.into_iter().map(FileRef));
                day.offsets.push(day.entries.len() as u32);
            }
        }
        if !day.peers.is_empty() {
            writer.write_day_arena(&day).expect("valid day");
        }
    }
    writer
        .finish(&pop.file_infos(), &pop.peer_infos())
        .expect("valid tables")
        .into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_trace::io::bin::to_bin;
    use proptest::prelude::*;

    /// Small configs across the shapes the window arithmetic cares
    /// about: no sharers, all sharers, single days, and turnover from
    /// none (`daily_replacements == 0`) to more than a small cache.
    fn arb_config() -> impl Strategy<Value = WorkloadConfig> {
        (
            (any::<u64>(), 2usize..=24, 8usize..=96, 2usize..6),
            (1u32..=7, 0u32..=8, 0u32..=32),
        )
            .prop_map(
                |((seed, peers, files, topics), (days, free_riders, lambda))| {
                    let mut c = WorkloadConfig::test_scale(seed);
                    c.peers = peers;
                    c.files = files;
                    c.topics = topics;
                    c.days = days;
                    c.free_rider_fraction = f64::from(free_riders) / 10.0;
                    c.daily_replacements = f64::from(lambda) / 4.0;
                    c.cache_max = c.cache_max.min(files as u64);
                    c.cache_min = c.cache_min.min(c.cache_max);
                    c.interests_max = c.interests_max.min(topics);
                    c.interests_min = c.interests_min.min(c.interests_max);
                    assert_eq!(c.validate(), Ok(()), "strategy must emit valid configs");
                    c
                },
            )
    }

    proptest! {
        /// The peer-major streams emit exactly the bytes of the
        /// ring-buffer emitter, for any small config and thread count.
        #[test]
        fn streamed_bytes_equal_the_ring_buffer_reference(
            config in arb_config(),
            threads in 1usize..=5,
        ) {
            let (_, _, streamed) = stream_trace_to_bytes(&config, threads).expect("stream");
            prop_assert_eq!(streamed, ring_buffer_reference_bytes(&config));
        }
    }

    #[test]
    fn test_scale_stream_is_pinned() {
        // Taken from the ring-buffer emitter with the one-shot table
        // writer, before the peer-major streams and the threaded build.
        let (_, stats, bytes) =
            stream_trace_to_bytes(&WorkloadConfig::test_scale(11), 2).expect("stream");
        assert_eq!(bytes.len(), 614_048);
        assert_eq!(
            (stats.days_written, stats.rows, stats.entries),
            (56, 33_700, 110_626)
        );
        assert_eq!(
            Md4::digest(&bytes).to_hex(),
            "72e5415309b5c3d179ad52bc948c6cf2"
        );
    }

    fn tiny_config() -> WorkloadConfig {
        let mut config = WorkloadConfig::test_scale(11);
        config.peers = 120;
        config.files = 900;
        config.topics = 24;
        config.days = 6;
        config
    }

    #[test]
    fn streamed_bytes_are_thread_invariant() {
        let config = tiny_config();
        let (_, stats1, bytes1) = stream_trace_to_bytes(&config, 1).expect("stream");
        let (_, stats3, bytes3) = stream_trace_to_bytes(&config, 3).expect("stream");
        let (_, stats8, bytes8) = stream_trace_to_bytes(&config, 8).expect("stream");
        assert_eq!(stats1, stats3);
        assert_eq!(stats1, stats8);
        assert_eq!(bytes1, bytes3);
        assert_eq!(bytes1, bytes8);
        assert!(stats1.rows > 0, "the observer must see someone");
    }

    #[test]
    fn in_memory_twin_matches_streamed_bytes() {
        let config = tiny_config();
        let (_, _, streamed) = stream_trace_to_bytes(&config, 2).expect("stream");
        let (_, trace) = generate_trace_streamed_in_memory(&config, 5);
        assert_eq!(streamed, to_bin(&trace));
    }

    #[test]
    fn windows_respect_cache_targets_and_free_riders() {
        let config = tiny_config();
        let (pop, trace) = generate_trace_streamed_in_memory(&config, 2);
        let mut saw_free_rider_row = false;
        for day in &trace.days {
            for (peer, cache) in &day.caches {
                let target = pop.peers[peer.index()].target_cache;
                assert!(cache.len() <= target, "window exceeds target");
                if target == 0 {
                    assert!(cache.is_empty());
                    saw_free_rider_row = true;
                }
                assert!(cache.windows(2).all(|w| w[0] < w[1]), "rows sorted+deduped");
            }
        }
        assert!(saw_free_rider_row, "free-riders must surface as empty rows");
    }

    #[test]
    fn turnover_replaces_oldest_entries() {
        // A sharer's day-to-day window shifts by the day's acquisition
        // count: consecutive windows share all but the turned-over
        // positions, so multi-day traces are correlated (the property
        // the semantic analyses rely on).
        let config = tiny_config();
        let (pop, trace) = generate_trace_streamed_in_memory(&config, 1);
        let sharer = pop
            .peers
            .iter()
            .position(|p| p.target_cache >= 20)
            .expect("a generous sharer exists");
        let rows: Vec<&Vec<FileRef>> = trace
            .days
            .iter()
            .filter_map(|d| {
                d.caches
                    .iter()
                    .find(|(p, _)| p.index() == sharer)
                    .map(|(_, c)| c)
            })
            .collect();
        assert!(rows.len() >= 2, "sharer observed at least twice");
        let (a, b) = (rows[0], rows[1]);
        let common = a.iter().filter(|f| b.binary_search(f).is_ok()).count();
        assert!(
            common * 2 > a.len().min(b.len()),
            "consecutive windows must overlap heavily ({common} of {})",
            a.len().min(b.len())
        );
    }
}

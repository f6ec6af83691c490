//! `edonkey-trace`: trace model, derivation pipeline, randomization and
//! I/O for the EuroSys'06 eDonkey reproduction.
//!
//! A [`compact::TraceArena`] is the object the paper's crawler produces:
//! intern tables for files and peers plus one CSR [`compact::DayArena`]
//! per day, holding the cache of every client browsed that day. It is
//! the one trace type: the builder, the generators, the crawler, both
//! codecs and every analysis read and write it. From it the paper
//! derives:
//!
//! * the **filtered** trace ([`pipeline::filter_arena`]) — IP/uid
//!   aliases removed, used for all static analyses;
//! * the **extrapolated** trace ([`pipeline::extrapolate_arena`]) —
//!   regular clients only, with missed days filled pessimistically, used
//!   for all dynamic analyses;
//! * **randomized** caches ([`randomize`]) — same generosity and
//!   popularity, all interest structure destroyed (the appendix
//!   algorithm), used as the null model in Figs. 14 and 21.
//!
//! # Examples
//!
//! ```
//! use edonkey_trace::model::{TraceBuilder, FileInfo, PeerInfo, CountryCode};
//! use edonkey_proto::{md4::Md4, query::FileKind};
//!
//! let mut b = TraceBuilder::new();
//! let p = b.intern_peer(PeerInfo {
//!     uid: Md4::digest(b"alice"), ip: 1, country: CountryCode::new("FR"), asn: 3215,
//! });
//! let f = b.intern_file(FileInfo {
//!     id: Md4::digest(b"song"), size: 4_000_000, kind: FileKind::Audio,
//! });
//! b.observe(350, p, vec![f]);
//! let trace = b.finish();
//! assert_eq!(trace.snapshot_count(), 1);
//! let filtered = edonkey_trace::pipeline::filter_arena(&trace);
//! assert_eq!(filtered.arena.peers.len(), 1);
//! ```

pub mod compact;
pub mod io;
pub mod model;
pub mod par;
pub mod pipeline;
pub mod randomize;

pub use compact::{CacheArena, DayArena, TraceArena};
pub use io::{load_auto, TraceIoError, TraceReader, TraceWriter};
pub use model::{CountryCode, FileInfo, FileRef, PeerId, PeerInfo, TraceBuilder};
pub use par::{parallel_map, parallel_map_init, parallel_map_init_threads};
pub use pipeline::{
    extrapolate, extrapolate_arena, filter, filter_arena, filter_streaming, retain_peers_arena,
    DerivedArena, ExtrapolateConfig,
};
pub use randomize::{recommended_iterations, ArenaShuffler, Shuffler, SwapStats};

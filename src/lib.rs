//! `edonkey-repro`: reproduction of *"Peer Sharing Behaviour in the
//! eDonkey Network, and Implications for the Design of Server-less File
//! Sharing Systems"* (Handurukande, Kermarrec, Le Fessant, Massoulié,
//! Patarin — EuroSys 2006).
//!
//! This facade crate re-exports the workspace so examples and downstream
//! users need a single dependency:
//!
//! * [`proto`] — the eDonkey protocol substrate (MD4, file kinds, the
//!   crawl's login, `query-users` and browse messages);
//! * [`netsim`] — the network + crawler simulation;
//! * [`trace`] — the trace model, filtering/extrapolation pipeline, and
//!   the appendix randomization algorithm;
//! * [`workload`] — the calibrated synthetic population generator;
//! * [`analysis`] — every Section 2–4 statistic;
//! * [`semsearch`] — the Section 5 semantic-neighbour search simulation
//!   (the paper's contribution); every cell runs through
//!   `semsearch::sweep_cells`.
//!
//! # Quickstart
//!
//! ```
//! use edonkey_repro::prelude::*;
//!
//! // A small synthetic world, its observed trace, and a hit-rate sweep.
//! let mut config = WorkloadConfig::test_scale(42);
//! config.peers = 300;
//! config.files = 2_000;
//! config.days = 10;
//! config.cache_max = 500;
//! let (population, trace) = generate_trace(config);
//! let filtered = filter_arena(&TraceArena::from_trace(&trace)).arena;
//! let cells = sweep_cells(&filtered.static_arena(), &[SimConfig::lru(20)]);
//! let (result, _health) = &cells[0];
//! assert!(result.requests > 0);
//! let _ = population; // ground truth stays available for calibration
//! ```

pub use edonkey_analysis as analysis;
pub use edonkey_netsim as netsim;
pub use edonkey_proto as proto;
pub use edonkey_semsearch as semsearch;
pub use edonkey_trace as trace;
pub use edonkey_workload as workload;

/// The most common imports, for examples and quick experiments.
pub mod prelude {
    pub use edonkey_analysis::{summarize, Cdf, TraceSummary};
    pub use edonkey_netsim::{
        run_crawl, run_crawl_full, CrawlHealth, CrawlReport, CrawlerConfig, FaultConfig, NetConfig,
        RetryPolicy,
    };
    pub use edonkey_proto::query::FileKind;
    pub use edonkey_semsearch::{
        sweep_cells, sweep_configs, PolicyKind, SimConfig, SimResult, PAPER_LIST_SIZES,
    };
    pub use edonkey_trace::{
        extrapolate_arena, filter_arena, CacheArena, ExtrapolateConfig, FileRef, PeerId, Trace,
        TraceArena,
    };
    pub use edonkey_workload::{generate_trace, Population, WorkloadConfig};
}

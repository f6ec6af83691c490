//! `edonkey-semsearch`: the paper's primary contribution — server-less
//! file search through *semantic neighbours*, evaluated by trace-driven
//! simulation (Section 5).
//!
//! The idea: peers that uploaded files to you in the past are likely to
//! hold what you search for next (that is exactly the clustering
//! correlation of Fig. 13), so each peer keeps a short list of recent
//! uploaders and queries them before falling back to a server. The
//! simulator replays a trace's caches as a request stream, maintains
//! per-peer neighbour lists under the [`neighbours::PolicyKind`]
//! policies, and reports hit rates and per-peer query load.
//!
//! Modules:
//! * [`index`] — pluggable index backends for the final-miss fallback
//!   (single server, federated servers, Kademlia-style DHT);
//! * [`neighbours`] — the neighbour list under its LRU, History
//!   (frequency), Random and rare-file LRU policies;
//! * [`sim`] — the Section 5.1 request-replay simulator (one- and
//!   two-hop), with [`sim::simulate_arena_health_with_scratch`] as the
//!   whole-cell oracle;
//! * [`filters`] — top-uploader and popular-file removal (Figs. 19/20),
//!   arena to arena;
//! * [`experiment`] — the sweep scheduler [`sweep_cells`], which runs
//!   every cell and alone decides whether it replays split by querier
//!   or whole, the Fig. 21 randomization sweep and the churn/adversary
//!   grids, with a parallel runner;
//! * [`serve`] — the always-on query-serving mode: the trace replayed
//!   as a continuous arrival stream through a sharded neighbour store,
//!   with bounded ingress queues and latency percentiles;
//! * [`overlay`] — the paper's announced next step: a *live* semantic
//!   overlay maintained across days of cache churn;
//! * [`gossip`] — the epidemic alternative (related work \[31\]): views
//!   converged proactively by cache-overlap gossip.
//!
//! # Examples
//!
//! ```
//! use edonkey_semsearch::{sweep_cells, SimConfig};
//! use edonkey_trace::compact::CacheArena;
//! use edonkey_trace::model::FileRef;
//!
//! // Two mirrored peers: after the first exchange the second request
//! // hits the semantic neighbour.
//! let caches = vec![
//!     vec![FileRef(0), FileRef(1)],
//!     vec![FileRef(0), FileRef(1)],
//! ];
//! let arena = CacheArena::from_caches(&caches, 2);
//! let (result, _health) = &sweep_cells(&arena, &[SimConfig::lru(5)])[0];
//! assert!(result.hits() >= 1);
//! ```

pub mod experiment;
pub mod filters;
pub mod gossip;
pub mod index;
pub mod neighbours;
pub mod overlay;
mod query;
pub mod serve;
pub mod sim;

pub use experiment::{
    adversary_grid, churn_grid, randomization_sweep, sweep_cells, sweep_cells_threads,
    sweep_cells_threads_profiled, sweep_configs, AdversaryCell, ChurnCell, RandomizationPoint,
    SweepStages, CHURN_POLICIES, PAPER_LIST_SIZES,
};
pub use filters::{remove_top_files, remove_top_uploaders};
pub use gossip::{build_overlay, overlay_hit_rate, GossipConfig, SemanticOverlay};
pub use index::{IndexBackend, IndexRouter, Lookup};
pub use neighbours::{NeighbourList, PolicyKind, StaleReaction};
pub use overlay::{
    simulate_overlay, simulate_overlay_health, simulate_overlay_reference, OverlayConfig,
    OverlayDayStats,
};
pub use serve::{
    serve_arena, serve_arena_threads, ArrivalConfig, ArrivalProcess, LatencyHistogram, ServeConfig,
    ServeHealth, ServeReport, QUERY_RTT_MD,
};
pub use sim::{
    split_eligible, AdversaryConfig, AdversaryPlan, AvailabilityConfig, ChurnConfig, ChurnSchedule,
    QueryPolicy, SearchHealth, SimConfig, SimResult,
};

//! `edonkey-analysis`: every measurement statistic of the paper's
//! Sections 2–4, as pure functions from traces to plot-ready series.
//!
//! Figure/table map (see DESIGN.md §5 for the full experiment index):
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Fig. 1–3 (per-day counts) | [`daily`] |
//! | Table 1 (trace characteristics) | [`summary`] |
//! | Fig. 4 / Table 2 (geography) | [`geography`] |
//! | Fig. 5 (replication vs rank) | [`popularity`] |
//! | Fig. 6 (size CDFs by popularity) | [`sizes`] |
//! | Fig. 7 (contribution CDFs) | [`contribution`] |
//! | Fig. 8–10 (spread and ranks over time) | [`spread`] |
//! | Fig. 11/12 (geographic clustering) | [`geo_clustering`] |
//! | Fig. 13/14 (semantic correlation) | [`semantic`] |
//! | Fig. 15–17 (overlap evolution) | [`overlap`] |
//! | PeerCache opportunity (§4.1 discussion) | [`peercache`] |
//!
//! Shared plumbing lives in [`stats`] (CDFs, rank curves, shares) and
//! [`view`] (popularity vectors and file spans over a static view).

pub mod banded;
pub mod contribution;
pub mod daily;
pub mod geo_clustering;
pub mod geography;
pub mod overlap;
pub mod peercache;
pub mod popularity;
pub mod semantic;
pub mod sizes;
pub mod spread;
pub mod stats;
pub mod summary;
pub mod view;

pub use stats::Cdf;
pub use summary::{summarize, TraceSummary};

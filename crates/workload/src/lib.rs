//! `edonkey-workload`: the synthetic eDonkey population and dynamics
//! generator.
//!
//! The paper's raw material — a 56-day crawl of the live 2003–04 eDonkey
//! network — cannot be obtained; this crate is the substitution (see
//! DESIGN.md §2). It generates a population whose *published marginals*
//! match the paper's (free-rider fraction, Zipf-like popularity,
//! trimodal sizes, Fig. 4/Table 2 geography, generosity skew, ~5 cache
//! replacements per client per day) and whose latent structure — topic
//! interests and content locality — produces the semantic and geographic
//! clustering the paper measures.
//!
//! Modules:
//! * [`config`] — every knob, with paper-calibrated presets;
//! * [`adversary`] — deterministic sybil / polluter / free-rider role
//!   plans for adversarial-workload injection;
//! * [`arrivals`] — deterministic burst/jitter arrival processes for
//!   the always-on query-serving mode;
//! * [`churn`] — deterministic session on/off schedules, server-outage
//!   windows and the query retry policy for availability-aware search;
//! * `dist` — Zipf–Mandelbrot, Pareto, Poisson, log-normal samplers
//!   (crate-private);
//! * [`geo`] — countries, ASes and the address plan;
//! * `names` — collision-prone nicknames for the crawler (crate-private);
//! * [`population`] — topics, files, peers, cache sampling;
//! * [`dynamics`] — day-by-day evolution and the ideal-observer trace;
//! * [`stream`] — day-at-a-time streaming generation for the
//!   out-of-core paper tier.
//!
//! # Examples
//!
//! ```
//! use edonkey_workload::{generate_trace, WorkloadConfig};
//!
//! let (population, trace) = generate_trace(WorkloadConfig::test_scale(7));
//! let caches = trace.static_arena();
//! assert_eq!(caches.n_peers(), trace.peers.len());
//! assert!(trace.peers.len() <= population.peers.len());
//! ```

pub mod adversary;
pub mod arrivals;
pub mod churn;
pub mod config;
mod dist;
pub mod dynamics;
pub mod geo;
pub mod mix;
mod names;
pub mod population;
pub mod stream;

pub use adversary::{AdversaryConfig, AdversaryPlan, Role, RoleTable};
pub use arrivals::{ArrivalConfig, ArrivalProcess};
pub use churn::{ChurnConfig, ChurnSchedule, OfflineTable, QueryPolicy};
pub use config::{KindProfile, WorkloadConfig};
pub use dynamics::{generate_trace, Dynamics, GroundTruth};
pub use geo::Geography;
pub use population::{GenFile, GenPeer, Population, Topic};
pub use stream::{
    generate_trace_streamed_in_memory, generate_trace_streaming, stream_trace, StreamStats,
};

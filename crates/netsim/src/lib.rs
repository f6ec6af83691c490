//! `edonkey-netsim`: a discrete-event simulation of the eDonkey network
//! and the paper's measurement crawler.
//!
//! Where `edonkey-workload` *generates* a plausible trace directly, this
//! crate *earns* one: online clients log in to index servers, the
//! crawler discovers users through capped `query-users` nickname sweeps,
//! browses reachable clients under a declining bandwidth budget, and
//! every measurement artefact the paper mentions — firewalled blind
//! spots, browse denial, DHCP/reinstall aliases, outage gaps, coverage
//! decline — emerges from the mechanics.
//!
//! Modules:
//! * [`event`] — the discrete-event queue;
//! * [`server`] — index server sessions and the capped `query-users`
//!   nickname search;
//! * [`client`] — per-client network state and browse replies;
//! * [`network`] — the day-level network loop (churn, sessions);
//! * [`crawler`] — the measurement crawler and trace assembly;
//! * [`fault`] — seeded deterministic fault injection ([`FaultConfig`]
//!   / [`fault::FaultPlan`]) and the crawler's counter-measures
//!   ([`RetryPolicy`], [`CrawlHealth`]).
//!
//! # Examples
//!
//! ```
//! use edonkey_netsim::crawler::{run_crawl, CrawlerConfig};
//! use edonkey_netsim::network::NetConfig;
//! use edonkey_workload::{Population, WorkloadConfig};
//!
//! let mut config = WorkloadConfig::test_scale(1);
//! config.peers = 60;
//! config.files = 400;
//! config.days = 3;
//! config.cache_max = 200;
//! let population = Population::generate(config);
//! let (trace, stats) = run_crawl(
//!     &population,
//!     NetConfig::default(),
//!     CrawlerConfig { outage_days: vec![], ..Default::default() }.budget_for(60, 1.5, 1.5),
//! );
//! assert_eq!(trace.check_invariants(), Ok(()));
//! assert_eq!(stats.len(), 3);
//! ```

pub mod client;
pub mod crawler;
pub mod event;
pub mod fault;
pub mod network;
pub mod server;

pub use crawler::{
    run_crawl, run_crawl_full, run_crawl_streaming, CrawlDayStats, CrawlReport, Crawler,
    CrawlerConfig,
};
pub use fault::{CrawlHealth, FaultConfig, RetryPolicy};
pub use network::{NetConfig, Network};
pub use server::Server;

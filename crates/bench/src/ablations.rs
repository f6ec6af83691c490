//! Ablations beyond the paper: each one switches off a single mechanism
//! of the workload model or the search design and measures what the
//! paper's headline metrics do (DESIGN.md §7) — plus three experiments
//! the paper only discusses: gossip-built neighbours, a live overlay
//! and the PeerCache opportunity.
//!
//! Ablations that replay the seed trace read the workload's static
//! view; the interest, crawler, fault and overlay runs vary the
//! generator or the crawl, so they build their own inputs at the scale.

use edonkey_analysis::{peercache, semantic, view};
use edonkey_netsim::{run_crawl_full, CrawlerConfig, FaultConfig, NetConfig, RetryPolicy};
use edonkey_semsearch::gossip::{build_overlay, overlay_hit_rate, GossipConfig};
use edonkey_semsearch::overlay::{simulate_overlay, steady_state_hit_rate, OverlayConfig};
use edonkey_semsearch::serve::{serve_arena_threads, ArrivalConfig, ServeConfig};
use edonkey_semsearch::sim::{QueryPolicy, SimConfig};
use edonkey_semsearch::{
    adversary_grid, churn_grid, sweep_cells, sweep_configs, AdversaryConfig, ChurnCell,
    IndexBackend, PolicyKind,
};
use edonkey_trace::compact::{CacheArena, TraceArena};
use edonkey_trace::pipeline::filter_arena;
use edonkey_trace::randomize::{recommended_iterations, ArenaShuffler};
use edonkey_workload::dynamics::Dynamics;
use edonkey_workload::{generate_trace, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{f, Emitter, Scale, Workload, SEED};

/// The filtered stage's static view of a trace an ablation generated or
/// crawled itself.
fn filtered_static_view(full: &TraceArena) -> CacheArena {
    filter_arena(full).arena.static_arena()
}

/// Interest-model strength: sweep `interest_mix` (β) from 0 and measure
/// both the clustering correlation at k = 3 and the LRU-20 hit rate.
///
/// β = 0 is the null model — if semantic clustering in the other figures
/// were an artefact, this column would look the same as the rest.
pub fn ablation_interest(scale: Scale) {
    let mut e = Emitter::new("ablation_interest");
    e.comment("Ablation: semantic-clustering strength (interest_mix sweep)");
    e.comment("interest_mix\tP(k=3)_pct\tlru20_hit_pct");
    for &beta in &[0.0, 0.15, 0.30, 0.45, 0.55, 0.70] {
        let mut config = scale.config(SEED);
        config.interest_mix = beta;
        let (_, trace) = generate_trace(config);
        let static_view = filtered_static_view(&trace);
        let curve = semantic::clustering_correlation_arena(&static_view, |_| true, Some(400));
        let p3 = curve
            .iter()
            .find(|p| p.common == 3)
            .map(|p| p.probability_percent)
            .unwrap_or(0.0);
        let hit = sweep_cells(&static_view, &[SimConfig::lru(20).with_seed(SEED)])[0]
            .0
            .hit_rate();
        e.row([f(beta, 2), f(p3, 2), f(100.0 * hit, 2)]);
    }
    e.finish();
}

/// Randomization-iteration sweep: how much clustering survives at a
/// given multiple of the prescribed ½·N·ln N iterations — validates the
/// appendix's sufficiency claim.
pub fn ablation_randomize(w: &Workload) {
    let mut e = Emitter::new("ablation_randomize");
    e.comment("Ablation: residual clustering vs randomization effort");
    e.comment("fraction_of_half_n_ln_n\tP(k=3)_pct\tswaps_performed");
    let static_view = w.static_view();
    let full = recommended_iterations(static_view.replica_count());
    // Popularity is swap-invariant, so the qualifying file set is fixed
    // across the whole sweep and can be computed once up front.
    let popularity = view::popularity(static_view);
    let mut shuffler = ArenaShuffler::new(static_view);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xab1a);
    let mut applied = 0u64;
    for &fraction in &[0.0, 0.1, 0.25, 0.5, 1.0, 2.0] {
        let target = (fraction * full as f64) as u64;
        shuffler.run(target - applied, &mut rng);
        applied = target;
        let snapshot = shuffler.snapshot_arena();
        let curve = semantic::clustering_correlation_arena(
            &snapshot,
            |fr| popularity[fr.index()] == 3,
            None,
        );
        let p3 = curve
            .iter()
            .find(|p| p.common == 3)
            .map(|p| p.probability_percent)
            .unwrap_or(0.0);
        e.row([
            f(fraction, 2),
            f(p3, 2),
            shuffler.stats().performed.to_string(),
        ]);
    }
    e.finish();
}

/// Crawler bandwidth vs trace completeness: how measurement bias scales
/// with the browse budget.
pub fn ablation_crawler(scale: Scale) {
    let mut e = Emitter::new("ablation_crawler");
    e.comment("Ablation: crawler budget vs observed completeness");
    e.comment("coverage_budget\tobserved_peers\tobserved_files\tsnapshots");
    let mut config = scale.config(SEED);
    // The protocol crawl is heavier than the ideal observer; shrink.
    config.peers = config.peers.min(3_000);
    config.files = config.files.min(25_000);
    config.days = config.days.min(14);
    let population = edonkey_workload::Population::generate(config.clone());
    for &coverage in &[0.1, 0.3, 0.6, 1.0, 1.5] {
        let (trace, _) = edonkey_netsim::run_crawl(
            &population,
            edonkey_netsim::NetConfig::default(),
            edonkey_netsim::CrawlerConfig {
                outage_days: vec![],
                ..Default::default()
            }
            .budget_for(config.peers, coverage, coverage),
        );
        e.row([
            f(coverage, 2),
            trace.peers.len().to_string(),
            trace.files.len().to_string(),
            trace.snapshot_count().to_string(),
        ]);
    }
    e.finish();
}

/// Crawl robustness: coverage and the Fig. 18 policy ordering vs the
/// fault rate, for the no-retry and retry+backoff crawler policies.
///
/// The composite fault mix scales every transient fault kind with one
/// `rate` knob (connect timeouts at `rate`, mid-browse disconnects and
/// query drops at `rate/4`) so a single column orders the runs; NAT and
/// churn bursts are exercised separately by the test matrix.
pub fn ablation_fault_sweep(scale: Scale) {
    let mut e = Emitter::new("fault_sweep");
    e.comment("Ablation: crawl robustness vs transient-fault rate");
    e.comment(
        "fault_rate\tpolicy\tsnapshots\tcoverage_vs_clean_pct\tlru20_hit_pct\t\
         history20_hit_pct\trandom20_hit_pct",
    );
    let mut config = scale.config(SEED);
    // The protocol crawl is heavier than the ideal observer; shrink.
    config.peers = config.peers.min(2_000);
    config.files = config.files.min(20_000);
    config.days = config.days.min(12);
    // The netsim path evolves identities mechanistically; the
    // observer-side alias knobs do not apply here.
    config.alias_dhcp_daily_prob = 0.0;
    config.alias_reinstall_daily_prob = 0.0;
    let peers = config.peers;
    let population = edonkey_workload::Population::generate(config);
    let crawl = |rate: f64, retry: RetryPolicy| {
        let crawler_config = CrawlerConfig {
            outage_days: vec![],
            fault: FaultConfig {
                seed: SEED ^ 0xfa17,
                transient_rate: rate,
                disconnect_rate: rate / 4.0,
                query_drop_rate: rate / 4.0,
                ..FaultConfig::none()
            },
            retry,
            ..Default::default()
        }
        .budget_for(peers, 2.0, 2.0);
        run_crawl_full(&population, NetConfig::default(), crawler_config)
    };
    let (clean, _) = crawl(0.0, RetryPolicy::no_retry());
    let clean_snapshots = clean.snapshot_count().max(1);
    // Each row packs its crawled trace's static view once and sweeps
    // all three list policies over it in one call.
    let policies = [
        SimConfig::lru(20).with_seed(SEED),
        SimConfig::history(20).with_seed(SEED),
        SimConfig::random(20).with_seed(SEED),
    ];
    for &rate in &[0.0, 0.1, 0.25, 0.5] {
        for (name, retry) in [
            ("no_retry", RetryPolicy::no_retry()),
            ("retry_backoff", RetryPolicy::backoff()),
        ] {
            let (trace, report) = crawl(rate, retry);
            report
                .health
                .check_invariants()
                .expect("crawl health must reconcile");
            let cells = sweep_cells(&filtered_static_view(&trace), &policies);
            let hit = |i: usize| 100.0 * cells[i].0.hit_rate();
            e.row([
                f(rate, 2),
                name.to_string(),
                trace.snapshot_count().to_string(),
                f(
                    100.0 * trace.snapshot_count() as f64 / clean_snapshots as f64,
                    1,
                ),
                f(hit(0), 2),
                f(hit(1), 2),
                f(hit(2), 2),
            ]);
        }
    }
    e.finish();
}

/// Renders a querier reaction as a stable column label.
fn query_label(q: &QueryPolicy) -> &'static str {
    if q.max_retries == 0 {
        "no_retry"
    } else {
        "retry_evict"
    }
}

/// Availability ablation (DESIGN.md §9): server-less hit rate and query
/// load vs the peer churn rate, for every list policy × querier
/// reaction, plus a server-outage section with stranded/recovered
/// accounting. Every cell's `SearchHealth` ledger is reconciled inside
/// `churn_grid` — a violation anywhere panics the sweep.
pub fn ablation_churn_sweep(w: &Workload) {
    let mut e = Emitter::new("churn_sweep");
    e.comment("Ablation: server-less search under peer churn (availability model)");
    e.comment(
        "churn_permille\tpolicy\tquery\thit_rate_pct\tmean_load\ttimed_out\tretried\t\
         evicted_stale\tprobed_stale\tserver_fallback",
    );
    let static_view = w.static_view();
    let peers = static_view.n_peers().max(1);
    let queries = [QueryPolicy::no_retry(), QueryPolicy::retry_evict()];
    let churn_seed = SEED ^ 0xc4c4;
    let mean_load =
        |cell: &ChurnCell| cell.result.messages_per_peer.iter().sum::<u64>() as f64 / peers as f64;
    for cell in churn_grid(
        static_view,
        20,
        &[0, 100, 250, 500],
        &queries,
        &[],
        IndexBackend::SingleServer,
        churn_seed,
        SEED,
    ) {
        e.row([
            cell.churn_permille.to_string(),
            cell.policy.name().to_string(),
            query_label(&cell.query).to_string(),
            f(100.0 * cell.result.hit_rate(), 2),
            f(mean_load(&cell), 2),
            cell.health.timed_out.to_string(),
            cell.health.retried.to_string(),
            cell.health.evicted_stale.to_string(),
            cell.health.probed_stale.to_string(),
            cell.health.server_fallback.to_string(),
        ]);
    }
    e.blank();
    e.comment("server outage on virtual days 7.. at 250 permille churn: stranded vs recovered");
    e.comment("policy\tquery\thit_rate_pct\tanswered\tserver_fallback\tstranded\trecovered");
    let outage: Vec<u32> = (7..200).collect();
    for cell in churn_grid(
        static_view,
        20,
        &[250],
        &queries,
        &outage,
        IndexBackend::SingleServer,
        churn_seed,
        SEED,
    ) {
        e.row([
            cell.policy.name().to_string(),
            query_label(&cell.query).to_string(),
            f(100.0 * cell.result.hit_rate(), 2),
            cell.health.answered.to_string(),
            cell.health.server_fallback.to_string(),
            cell.health.stranded.to_string(),
            cell.health.recovered.to_string(),
        ]);
    }
    e.finish();
}

/// Index-backend ablation (DESIGN.md §10): the Fig. 18 policy ordering
/// and the churn/outage matrix per pluggable index backend — single
/// server, federated servers, and the Kademlia-style DHT. Quiet rows
/// double as a cross-backend differential check: with no outage every
/// backend must report the same hit rate (routing only changes *how* the
/// fallback resolves, never *which* uploader answers).
pub fn ablation_index_backends(w: &Workload) {
    let mut e = Emitter::new("index_backend_sweep");
    e.comment("Ablation: pluggable index backends (single / federated / DHT)");
    e.comment(
        "backend\tchurn_permille\toutage\tpolicy\thit_rate_pct\tanswered\t\
         server_fallback\tstranded\trecovered\tforwarded\tdht_hops",
    );
    let static_view = w.static_view();
    let queries = [QueryPolicy::retry_evict()];
    let churn_seed = SEED ^ 0xc4c4;
    let backends = [
        IndexBackend::SingleServer,
        IndexBackend::Federated { n_servers: 8 },
        IndexBackend::Dht { replication_k: 3 },
    ];
    let outage: Vec<u32> = (7..200).collect();
    for backend in backends {
        for (label, days) in [("none", &[][..]), ("days_7_plus", &outage[..])] {
            for cell in churn_grid(
                static_view,
                20,
                &[0, 250],
                &queries,
                days,
                backend,
                churn_seed,
                SEED,
            ) {
                e.row([
                    backend.name(),
                    cell.churn_permille.to_string(),
                    label.to_string(),
                    cell.policy.name().to_string(),
                    f(100.0 * cell.result.hit_rate(), 2),
                    cell.health.answered.to_string(),
                    cell.health.server_fallback.to_string(),
                    cell.health.stranded.to_string(),
                    cell.health.recovered.to_string(),
                    cell.health.forwarded.to_string(),
                    cell.health.dht_hops.to_string(),
                ]);
            }
        }
    }
    e.finish();
}

/// Service-mode backpressure: the always-on serving plane under a
/// bounded ingress queue (tick 20 md, queue 12, 2 served per tick per
/// shard), swept over nested burst intensities per index backend. The
/// knee shows up as the p999 / deferral / shed columns turning over
/// while the hit rate holds — shed queries never reach the overlay
/// plane, so what degrades under load is *latency and coverage*, not
/// answer quality on the queries that do get served.
pub fn ablation_service_mode(w: &Workload) {
    let mut e = Emitter::new("ablation_service_mode");
    e.comment("Ablation: service-mode backpressure (burst sweep per index backend)");
    e.comment(
        "backend\tburst_permille\tp50_md\tp99_md\tp999_md\tserved\tdeferred\t\
         shed\tmax_queue_depth\thit_rate_pct",
    );
    let backends = [
        IndexBackend::SingleServer,
        IndexBackend::Federated { n_servers: 8 },
        IndexBackend::Dht { replication_k: 3 },
    ];
    for backend in backends {
        for &burst in &[0u32, 300, 600, 900] {
            let config = ServeConfig::new(SimConfig::lru(20).with_seed(SEED).with_backend(backend))
                .with_arrival(ArrivalConfig::bursty(SEED ^ 0x5e, burst, 40))
                .with_service(20, 12, 2);
            let report = serve_arena_threads(w.static_view(), &config, 4);
            let (p50, p99, p999) = report.latency.p50_p99_p999();
            let served = report.health.served.max(1);
            e.row([
                backend.name(),
                burst.to_string(),
                p50.to_string(),
                p99.to_string(),
                p999.to_string(),
                report.health.served.to_string(),
                report.health.deferred.to_string(),
                report.health.shed.to_string(),
                report.health.max_queue_depth.to_string(),
                f(
                    100.0 * report.health.search.answered as f64 / served as f64,
                    2,
                ),
            ]);
        }
    }
    e.finish();
}

/// Adversary ablation (DESIGN.md §12): hit rate and the attack/defense
/// ledger per attack mix × list policy × {undefended, defended}, at
/// list size 20 under the single-server fallback. The honest rows
/// double as the no-op check — an armed defense on an honest run moves
/// no counter — and every cell's `SearchHealth` is reconciled inside
/// `adversary_grid`, so a ledger violation panics the sweep.
pub fn ablation_adversary(w: &Workload) {
    let mut e = Emitter::new("adversary_sweep");
    e.comment("Ablation: adversarial workload plane (sybil / pollution / free-riding)");
    e.comment(
        "sybil_permille\tpolluter_permille\tfreerider_permille\tpolicy\tdefended\t\
         hit_rate_pct\twasted_queries\tsybil_slots_held\tpolluted_acquisitions\t\
         reputation_evictions",
    );
    let adversary_seed = SEED ^ 0xad5e;
    let mixes = [
        AdversaryConfig::none(),
        AdversaryConfig::sybils(adversary_seed, 150),
        AdversaryConfig::polluters(adversary_seed, 150),
        AdversaryConfig::freeriders(adversary_seed, 150),
        AdversaryConfig::sybils(adversary_seed, 50).with_polluters(50),
    ];
    for cell in adversary_grid(
        w.static_view(),
        20,
        &mixes,
        QueryPolicy::no_retry(),
        IndexBackend::SingleServer,
        SEED,
    ) {
        e.row([
            cell.adversary.sybil_permille.to_string(),
            cell.adversary.polluter_permille.to_string(),
            cell.adversary.freerider_permille.to_string(),
            cell.policy.name().to_string(),
            cell.defended.to_string(),
            f(100.0 * cell.result.hit_rate(), 2),
            cell.health.wasted_queries.to_string(),
            cell.health.sybil_slots_held.to_string(),
            cell.health.polluted_acquisitions.to_string(),
            cell.health.reputation_evictions.to_string(),
        ]);
    }
    e.finish();
}

/// Policy-design sweep: LRU vs History vs Random vs a hybrid
/// ("popularity-aware" LRU that only records uploads of files below a
/// popularity cutoff — the fix sketched in Section 5.3.2 for keeping
/// rare-file specialists in the lists).
pub fn ablation_policies(w: &Workload) {
    let mut e = Emitter::new("ablation_policies");
    e.comment("Ablation: list policies incl. popularity-filtered LRU");
    e.comment("policy\tlist_size\thit_rate_pct");
    // All twelve cells replay the same static view, in one sweep.
    let configs: Vec<SimConfig> = [5usize, 20, 100]
        .into_iter()
        .flat_map(|size| {
            [
                SimConfig::lru(size),
                SimConfig::history(size),
                SimConfig::random(size),
                SimConfig::rare_lru(size, 10),
            ]
        })
        .map(|config| config.with_seed(SEED))
        .collect();
    for (config, (result, _)) in configs.iter().zip(sweep_cells(w.static_view(), &configs)) {
        e.row([
            config.policy.name().to_string(),
            config.list_size.to_string(),
            f(100.0 * result.hit_rate(), 2),
        ]);
    }
    e.finish();
}

/// Proactive (gossip-built) vs reactive (LRU) semantic neighbours on
/// the same static view.
pub fn gossip(w: &Workload) {
    let static_view = w.static_view();
    let mut e = Emitter::new("gossip");
    e.comment("Gossip-built vs download-learned semantic neighbours");
    e.comment("mechanism\tview_size\thit_rate_pct");
    // The LRU baselines share the view's replay index with
    // `overlay_hit_rate`'s replays (same seed).
    let sizes = [5usize, 10, 20];
    let baselines = sweep_cells(
        static_view,
        &sweep_configs(PolicyKind::Lru, &sizes, false, SEED),
    );
    for (size, (lru, _)) in sizes.into_iter().zip(baselines) {
        e.row([
            "lru".to_string(),
            size.to_string(),
            f(100.0 * lru.hit_rate(), 2),
        ]);
        for cycles in [0u32, 10, 25] {
            let overlay = build_overlay(
                static_view,
                &GossipConfig {
                    semantic_view: size,
                    cycles,
                    ..GossipConfig::default()
                },
            );
            let rate = overlay_hit_rate(static_view, &overlay, SEED);
            e.row([
                format!("gossip_{cycles}cycles"),
                size.to_string(),
                f(100.0 * rate, 2),
            ]);
        }
        e.blank();
    }
    e.finish();
}

/// The live semantic overlay the authors announced as future work:
/// per-day hit rates while caches churn, over the generator's ground
/// truth.
pub fn overlay(scale: Scale) {
    let population = Population::generate(scale.config(SEED));
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x11fe);
    let truth = Dynamics::new(&population, &mut rng).run(&mut rng);
    let mut e = Emitter::new("overlay");
    e.comment("Live semantic overlay: per-day hit rate under real cache churn");
    e.comment("list_size\tday\trequests\thit_rate_pct");
    for &size in &[5usize, 20] {
        let stats = simulate_overlay(
            &truth.days,
            truth.start_day,
            population.files.len(),
            &OverlayConfig {
                list_size: size,
                ..OverlayConfig::lru(size)
            },
        );
        for s in &stats {
            e.row([
                size.to_string(),
                s.day.to_string(),
                s.requests.to_string(),
                f(100.0 * s.hit_rate(), 2),
            ]);
        }
        e.comment(&format!(
            "steady state (after 7-day warm-up), size {size}: {:.1}%",
            100.0 * steady_state_hit_rate(&stats, 7)
        ));
        e.blank();
    }
    e.finish();
}

/// How much request traffic an AS-level PeerCache index (Section 4.1's
/// discussion) could keep local.
pub fn peercache(w: &Workload) {
    let static_view = w.static_view();
    let mut e = Emitter::new("peercache");
    e.comment("PeerCache opportunity: request locality under the Section 5.1 replay model");
    let counts = peercache::request_locality(&w.filtered, static_view);
    e.comment("scope\thit_rate_pct");
    e.row(["same_as".to_string(), f(100.0 * counts.as_hit_rate(), 2)]);
    e.row([
        "same_country".to_string(),
        f(100.0 * counts.country_hit_rate(), 2),
    ]);
    e.blank();
    e.comment("per-AS: asn\tclients\tas_local_hit_pct");
    for (asn, clients, rate) in peercache::per_as_hit_rates(&w.filtered, static_view, 8) {
        e.row([asn.to_string(), clients.to_string(), f(100.0 * rate, 2)]);
    }
    e.blank();
    e.comment("by popularity band: lo\thi\tas_local_hit_pct");
    for ((lo, hi), rate) in peercache::as_hit_rate_by_popularity(
        &w.filtered,
        static_view,
        &[(1, 2), (3, 10), (11, 100), (101, u32::MAX)],
    ) {
        e.row([lo.to_string(), hi.to_string(), f(100.0 * rate, 2)]);
    }
    e.finish();
}

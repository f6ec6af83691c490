//! The four workloads. Each runs one set-up step and a fixed list of
//! operations through public library calls only, checks every
//! operation's ledgers, and digests every operation's output.
//!
//! Span names read `<crate>.<call>` (`benchmark.*` for this binary's
//! own code); a span's layer is the crate whose code does the work
//! (for figures, the layer the README's figure map names).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use edonkey_analysis::banded::{banded_overlap_histogram_with_threads, BandedOverlapConfig};
use edonkey_bench::{figures_cluster as fc, figures_measure as fm, figures_search as fs};
use edonkey_bench::{Scale, Workload};
use edonkey_semsearch::experiment::sweep_cells_windowed;
use edonkey_semsearch::{
    serve_arena_threads, sweep_cells_threads, sweep_configs, AdversaryConfig, ArrivalConfig,
    AvailabilityConfig, IndexBackend, PolicyKind, QueryPolicy, SearchHealth, ServeConfig,
    SimConfig, SimResult, CHURN_POLICIES, PAPER_LIST_SIZES,
};
use edonkey_trace::compact::{CacheArena, TraceArena};
use edonkey_trace::model::{FileRef, Trace};
use edonkey_trace::pipeline::{filter_arena, filter_streaming};
use edonkey_trace::TraceReader;
use edonkey_workload::mix::splitmix64;
use edonkey_workload::{generate_trace, generate_trace_streaming, WorkloadConfig};

use crate::digest::Digest;
use crate::spans::{Span, Tracer};

/// Workload names, in the order rounds visit them.
pub const WORKLOADS: [&str; 4] = ["figures", "search", "serve", "outofcore"];

/// Whether a workload starts from the parent's generated input trace.
pub fn needs_input(workload: &str) -> bool {
    workload != "outofcore"
}

/// Traces generated per seed to choose the input from.
const INPUT_CANDIDATES: u64 = 4;

/// Median number of filtered static-cache entries of a generated trace
/// (about 50 seeds per scale): the size the input is chosen to be
/// nearest.
fn nominal_static_entries(scale: Scale) -> usize {
    match scale {
        Scale::Test => 10_900,
        _ => 213_900,
    }
}

/// The input trace of `seed` and the seed that generated it.
///
/// Cache sizes are Pareto-distributed, so the work in one generated
/// trace varies between seeds by 5% (interquartile range of the filtered
/// static entries, which track simulated requests with correlation
/// 0.985). Of `INPUT_CANDIDATES` traces generated from seeds derived
/// from `seed`, the input is the one whose filtered static caches are
/// nearest the scale's nominal size, which brings that spread to about
/// 2%: the seed still decides the trace, not how much work it is.
pub fn input_trace(scale: Scale, seed: u64) -> (Trace, u64) {
    let nominal = nominal_static_entries(scale);
    let candidates: Vec<(usize, u64, Trace)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..INPUT_CANDIDATES)
            .map(|i| {
                let seed = splitmix64(seed.wrapping_add(i));
                s.spawn(move || {
                    let (_, full) = generate_trace(scale.config(seed));
                    let arena = filter_arena(&TraceArena::from_trace(&full))
                        .arena
                        .static_arena();
                    (arena.as_csr_parts().0.len(), seed, full)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("input generation"))
            .collect()
    });
    let (_, seed, full) = candidates
        .into_iter()
        .min_by_key(|c| c.0.abs_diff(nominal))
        .expect("at least one candidate");
    (full, seed)
}

/// Number of operations each workload attempts (a failed set-up fails
/// them all).
pub fn op_count(workload: &str) -> usize {
    match workload {
        "figures" => FIGURES.len(),
        "search" => 4,
        "serve" => CHURN_POLICIES.len() * SERVE_BACKENDS.len() * LOAD_LEVELS.len(),
        "outofcore" => 5,
        other => unreachable!("unknown workload {other}"),
    }
}

/// What one child run needs.
pub struct RunCtx {
    pub scale: Scale,
    pub seed: u64,
    pub threads: usize,
    /// The generated input trace (unused by `outofcore`).
    pub input: PathBuf,
    /// Private scratch directory; figure TSVs land here too.
    pub dir: PathBuf,
    pub trace: bool,
}

/// One operation's verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub name: String,
    pub digest: String,
    /// Panic or ledger failure, if any.
    pub error: Option<String>,
}

/// Everything one run reports back to the parent.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ops: Vec<Op>,
    /// End-to-end metrics of this run.
    pub metrics: Vec<(String, f64)>,
    /// Per-layer counts measured by the workload (times and allocation
    /// counts come from the spans).
    pub counters: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    fn op(&mut self, name: &str, result: Result<Digest, String>) {
        let (digest, error) = match result {
            Ok(d) => (d.hex(), None),
            Err(e) => ("-".to_string(), Some(e)),
        };
        self.ops.push(Op {
            name: name.to_string(),
            digest,
            error,
        });
    }

    fn record(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// An end-to-end metric of this run.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn counter(&mut self, name: &str, value: f64) {
        self.counters.push((name.to_string(), value));
    }
}

/// Runs `f`, turning a panic into an error message.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".to_string())
    })
}

/// Runs one workload once. A panic during set-up propagates: the run
/// has no operations left to attempt.
pub fn run(workload: &str, ctx: &RunCtx) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Tracer::new(ctx.trace);
    let (setup_s, total_s) = t.span("benchmark", "benchmark.run", |t| match workload {
        "figures" => figures(ctx, t, &mut out),
        "search" => search(ctx, t, &mut out),
        "serve" => serve(ctx, t, &mut out),
        "outofcore" => outofcore(ctx, t, &mut out),
        other => unreachable!("unknown workload {other}"),
    });
    out.record("total_s", total_s);
    out.record("setup_s", setup_s);
    let rss_kb = edonkey_bench::alloc::peak_rss_kb().unwrap_or(0);
    out.record("peak_rss_mib", rss_kb as f64 / 1024.0);
    out.spans = t.into_spans();
    out
}

type FigureFn = fn(&Workload);

/// The figure harness in `reproduce` order, each with the layer that
/// does its work (README: figure → layer map).
const FIGURES: [(&str, &str, FigureFn); 26] = [
    ("fig01", "analysis", fm::fig01),
    ("fig02", "analysis", fm::fig02),
    ("fig03", "analysis", fm::fig03),
    ("fig04", "analysis", fm::fig04),
    ("table1", "analysis", fm::table1),
    ("fig05", "analysis", fm::fig05),
    ("fig06", "analysis", fm::fig06),
    ("fig07", "analysis", fm::fig07),
    ("fig08", "analysis", fm::fig08),
    ("fig09", "analysis", fm::fig09),
    ("fig10", "analysis", fm::fig10),
    ("table2", "analysis", fm::table2),
    ("fig11", "analysis", fc::fig11),
    ("fig12", "analysis", fc::fig12),
    ("fig13", "analysis", fc::fig13),
    ("fig14", "analysis", fc::fig14),
    ("fig15", "analysis", fc::fig15),
    ("fig16", "analysis", fc::fig16),
    ("fig17", "analysis", fc::fig17),
    ("fig18", "core", fs::fig18),
    ("fig19", "core", fs::fig19),
    ("fig20", "core", fs::fig20),
    ("table3", "core", fs::table3),
    ("fig21", "core", fs::fig21),
    ("fig22", "core", fs::fig22),
    ("fig23", "core", fs::fig23),
];

/// Set-up loads the input through the figure harness; each figure is
/// one operation, digested from the TSV it writes.
fn figures(ctx: &RunCtx, t: &mut Tracer, out: &mut Outcome) -> f64 {
    let (w, setup_s) = t.span("trace", "bench.from_trace_file", |_| {
        Workload::from_trace_file(&ctx.input)
    });
    for (name, layer, figure) in FIGURES {
        let (done, _) = t.span(layer, &format!("bench.{name}"), |_| guarded(|| figure(&w)));
        let digest = done.and_then(|()| {
            let path = ctx.dir.join(format!("{name}.tsv"));
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut d = Digest::new();
            d.bytes(&bytes);
            Ok(d)
        });
        out.op(name, digest);
    }
    setup_s
}

/// Loads the input trace and packs the filtered static caches: the
/// set-up shared by `search` and `serve`.
fn load_and_pack(ctx: &RunCtx, t: &mut Tracer) -> (CacheArena, f64) {
    let (full, load_s) = t.span("trace", "trace.load", |_| {
        edonkey_trace::io::load_auto(&ctx.input)
            .unwrap_or_else(|e| panic!("load {}: {e}", ctx.input.display()))
    });
    let (arena, pack_s) = t.span("trace", "trace.pack", |_| {
        let full = TraceArena::from_trace(&full);
        filter_arena(&full).arena.static_arena()
    });
    (arena, load_s + pack_s)
}

/// Digests a sweep's cells after reconciling every ledger.
fn sweep_digest(cells: &[(SimResult, SearchHealth)]) -> Result<Digest, String> {
    let mut d = Digest::new();
    for (i, (result, health)) in cells.iter().enumerate() {
        health
            .check_against(result)
            .map_err(|e| format!("cell {i}: {e}"))?;
        d.result(result).search_health(health);
    }
    Ok(d)
}

/// The churn schedule seed, kept apart from the request-order seed.
fn churn_seed(seed: u64) -> u64 {
    seed ^ 0xc4c4
}

fn cell(policy: PolicyKind, list_size: usize, seed: u64, avail: AvailabilityConfig) -> SimConfig {
    SimConfig {
        list_size,
        policy,
        two_hop: false,
        seed,
        availability: avail,
    }
}

/// The batch Section 5 simulator: four sweep calls over one arena.
fn search(ctx: &RunCtx, t: &mut Tracer, out: &mut Outcome) -> f64 {
    let (arena, setup_s) = load_and_pack(ctx, t);
    let seed = ctx.seed;

    let quiet: Vec<SimConfig> = CHURN_POLICIES
        .iter()
        .flat_map(|&p| sweep_configs(p, &PAPER_LIST_SIZES, false, seed))
        .collect();
    let mut churn = Vec::new();
    for rate in [100, 250, 500] {
        for policy in CHURN_POLICIES {
            for query in [QueryPolicy::no_retry(), QueryPolicy::retry_evict()] {
                let avail = AvailabilityConfig::churn(churn_seed(seed), rate).with_query(query);
                churn.push(cell(policy, 20, seed, avail));
            }
        }
    }
    let mut backends = Vec::new();
    for backend in [
        IndexBackend::Federated { n_servers: 8 },
        IndexBackend::Dht { replication_k: 3 },
    ] {
        for outages in [vec![], (7..14).collect()] {
            let avail = AvailabilityConfig::churn(churn_seed(seed), 250)
                .with_query(QueryPolicy::retry_evict())
                .with_backend(backend)
                .with_outages(outages);
            backends.push(cell(PolicyKind::Lru, 20, seed, avail));
        }
    }
    let adversary_seed = seed ^ 0xad5e;
    let mut adversary = Vec::new();
    for mix in [
        AdversaryConfig::sybils(adversary_seed, 150),
        AdversaryConfig::polluters(adversary_seed, 150),
        AdversaryConfig::sybils(adversary_seed, 50).with_polluters(50),
    ] {
        for policy in [PolicyKind::Lru, PolicyKind::History] {
            for defended in [false, true] {
                let mut avail = AvailabilityConfig::none().with_adversary(mix.clone());
                if defended {
                    avail = avail.with_reputation();
                }
                adversary.push(cell(policy, 20, seed, avail));
            }
        }
    }

    let (mut quiet_requests, mut quiet_s) = (0u64, 0.0);
    let (mut avail_requests, mut avail_attempts, mut avail_s) = (0u64, 0u64, 0.0);
    for (op, configs) in [
        ("quiet", &quiet),
        ("churn", &churn),
        ("backend", &backends),
        ("adversary", &adversary),
    ] {
        let (cells, secs) = t.span("core", &format!("core.{op}_sweep"), |_| {
            guarded(|| sweep_cells_threads(&arena, configs, ctx.threads))
        });
        let digest = cells.and_then(|cells| {
            let requests: u64 = cells.iter().map(|(r, _)| r.requests).sum();
            if op == "quiet" {
                quiet_requests += requests;
                quiet_s += secs;
            } else {
                avail_requests += requests;
                avail_attempts += cells.iter().map(|(_, h)| h.attempted).sum::<u64>();
                avail_s += secs;
            }
            sweep_digest(&cells)
        });
        out.op(op, digest);
    }
    out.record("quiet_requests_per_s", quiet_requests as f64 / quiet_s);
    out.record("avail_requests_per_s", avail_requests as f64 / avail_s);
    out.counter("core.quiet_requests", quiet_requests as f64);
    out.counter("core.avail_requests", avail_requests as f64);
    out.counter(
        "core.attempts_per_request",
        avail_attempts as f64 / avail_requests.max(1) as f64,
    );
    setup_s
}

const SERVE_BACKENDS: [IndexBackend; 3] = [
    IndexBackend::SingleServer,
    IndexBackend::Federated { n_servers: 8 },
    IndexBackend::Dht { replication_k: 3 },
];

/// Offered load as arrivals per unit of service capacity (permille),
/// and the within-day burst compression (permille). The first level is
/// the open service.
const LOAD_LEVELS: [(&str, u32, u32); 5] = [
    ("open", 0, 0),
    ("rho0.5", 500, 0),
    ("rho0.9", 900, 0),
    ("rho1.5", 1500, 0),
    ("rho0.9_burst", 900, 600),
];

/// Tick width of the loaded cells, milli-days.
const SERVE_TICK_MD: u64 = 20;
/// Fewest mean arrivals per shard-tick of a loaded cell: below it the
/// tick widens, so that `⌈arrivals / ρ⌉` gives each load level its own
/// service rate (within 10% of its ρ) even at `test` scale.
const MIN_ARRIVALS_PER_TICK: f64 = 16.0;
/// Ingress queue capacity of the loaded cells, in ticks of service.
const QUEUE_TICKS: usize = 8;

/// The serving replay: every policy × backend served open, then at four
/// load levels sized from the open cell's arrival count.
fn serve(ctx: &RunCtx, t: &mut Tracer, out: &mut Outcome) -> f64 {
    let (arena, setup_s) = load_and_pack(ctx, t);
    let seed = ctx.seed;
    let (mut arrived, mut shed, mut serve_s) = (0u64, 0u64, 0.0);
    let mut cell_secs = Vec::new();
    let mut open_arrived: Option<u64> = None;
    for (group, levels) in [
        ("core.serve_open", &LOAD_LEVELS[..1]),
        ("core.serve_loaded", &LOAD_LEVELS[1..]),
    ] {
        t.span("core", group, |t| {
            for policy in CHURN_POLICIES {
                for backend in SERVE_BACKENDS {
                    for &(level, rho_permille, burst) in levels {
                        let sim = cell(policy, 20, seed, AvailabilityConfig::none())
                            .with_backend(backend);
                        let mut config = ServeConfig::new(sim);
                        if rho_permille > 0 {
                            let arrivals = open_arrived.expect("open cells run first");
                            let span_md = u64::from(config.sim.availability.virtual_days) * 1000;
                            let per_shard_md =
                                arrivals as f64 / config.n_shards as f64 / span_md as f64;
                            let tick = SERVE_TICK_MD
                                .max((MIN_ARRIVALS_PER_TICK / per_shard_md).ceil() as u64);
                            let per_shard_tick = per_shard_md * tick as f64;
                            let service =
                                (per_shard_tick * 1000.0 / f64::from(rho_permille)).ceil() as usize;
                            config = config
                                .with_service(tick, service * QUEUE_TICKS, service)
                                .with_arrival(ArrivalConfig::bursty(seed ^ 0x5e, burst, 0));
                        }
                        let (report, secs) = t.span("core", "core.serve_cell", |_| {
                            guarded(|| serve_arena_threads(&arena, &config, ctx.threads))
                        });
                        let name = format!("{}/{}/{level}", policy.name(), backend.name());
                        let digest = report.and_then(|r| {
                            let h = &r.health;
                            h.reconcile(r.result.requests, r.result.one_hop_hits)
                                .map_err(|e| format!("{name}: {e}"))?;
                            open_arrived.get_or_insert(h.arrived);
                            arrived += h.arrived;
                            shed += h.shed;
                            serve_s += secs;
                            cell_secs.push(secs);
                            let (p50, p99, p999) = r.latency.p50_p99_p999();
                            let mut d = Digest::new();
                            d.result(&r.result)
                                .serve_health(h)
                                .u64(p50)
                                .u64(p99)
                                .u64(p999);
                            Ok(d)
                        });
                        out.op(&name, digest);
                    }
                }
            }
        });
    }
    out.record("serve_queries_per_s", arrived as f64 / serve_s);
    cell_secs.sort_by(f64::total_cmp);
    if !cell_secs.is_empty() {
        let at = |q: f64| cell_secs[((cell_secs.len() - 1) as f64 * q).round() as usize];
        out.counter("core.serve_cell_s_p50", at(0.5));
        out.counter("core.serve_cell_s_p80", at(0.8));
    }
    out.counter("core.serve_arrived", arrived as f64);
    out.counter("core.serve_shed_frac", shed as f64 / arrived.max(1) as f64);
    setup_s
}

/// The out-of-core tier's workload configuration.
fn outofcore_config(scale: Scale, seed: u64) -> WorkloadConfig {
    match scale {
        Scale::Test => scale.config(seed),
        _ => {
            let paper = WorkloadConfig::paper_scale(seed);
            WorkloadConfig {
                peers: paper.peers / OUTOFCORE_DIVISOR,
                files: paper.files / OUTOFCORE_DIVISOR,
                topics: paper.topics / OUTOFCORE_DIVISOR,
                ..paper
            }
        }
    }
}

/// How far the out-of-core tier shrinks the paper's population so a
/// run of several repetitions fits the benchmark's time budget.
const OUTOFCORE_DIVISOR: usize = 4;

/// Querier window of the bounded-working-set sweep.
const SWEEP_WINDOW: usize = 4096;

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Streams the union static caches out of a binary trace, one day
/// section resident at a time; `trace.read_days` spans cover the
/// reader's calls, the merge is the benchmark's own fold.
fn union_caches(t: &mut Tracer, path: &Path) -> (Vec<Vec<FileRef>>, usize) {
    let (mut reader, _) = t.span("trace", "trace.read_days", |_| {
        TraceReader::open(path).expect("open filtered trace")
    });
    let n_files = reader.files().len();
    let n_peers = reader.peers().len();
    let mut caches: Vec<Vec<FileRef>> = vec![Vec::new(); n_peers];
    let mut compact_at: Vec<usize> = vec![0; n_peers];
    loop {
        let (day, _) = t.span("trace", "trace.read_days", |_| {
            reader.next_day_arena().expect("read day section")
        });
        let Some(day) = day else { break };
        for (peer, row) in day.iter() {
            let cache = &mut caches[peer as usize];
            cache.extend_from_slice(row);
            if cache.len() >= compact_at[peer as usize] {
                cache.sort_unstable();
                cache.dedup();
                compact_at[peer as usize] = cache.len() * 2 + 16;
            }
        }
    }
    for cache in &mut caches {
        cache.sort_unstable();
        cache.dedup();
    }
    (caches, n_files)
}

/// The paper-shaped out-of-core tier: streaming generation (set-up),
/// streaming filter, a union fold over day sections, the banded MinHash
/// overlap histogram and the windowed sweep.
fn outofcore(ctx: &RunCtx, t: &mut Tracer, out: &mut Outcome) -> f64 {
    let config = outofcore_config(ctx.scale, ctx.seed);
    let full_path = ctx.dir.join("full.etrc");
    let filtered_path = ctx.dir.join("filtered.etrc");

    let (stats, setup_s) = t.span("workload", "workload.stream_generate", |_| {
        let (population, stats) =
            generate_trace_streaming(&config, &full_path, ctx.threads).expect("stream generation");
        drop(population);
        stats
    });
    let mut d = Digest::new();
    d.u64(u64::from(stats.days_written))
        .u64(stats.rows)
        .u64(stats.entries);
    out.op("stream_generate", Ok(d));
    out.counter("workload.entries", stats.entries as f64);

    // Every later stage reads the filtered trace, so a failed filter
    // fails the run like a failed set-up.
    let (filtered, _) = t.span("trace", "trace.filter_streaming", |_| {
        filter_streaming(&full_path, &filtered_path).expect("streaming filter")
    });
    let mut d = Digest::new();
    d.u64(u64::from(filtered.days));
    d.u64s(
        &filtered
            .kept
            .iter()
            .map(|p| u64::from(p.0))
            .collect::<Vec<_>>(),
    );
    out.op("filter_streaming", Ok(d));
    // Computed from file sizes: the filter reads the full trace twice,
    // the fold reads the filtered trace once.
    let (full_len, filtered_len) = (file_len(&full_path), file_len(&filtered_path));
    out.counter("trace.bytes_written", (full_len + filtered_len) as f64);
    out.counter("trace.bytes_read", (2 * full_len + filtered_len) as f64);
    let (arena, _) = t.span("benchmark", "benchmark.union_fold", |t| {
        let (caches, n_files) = union_caches(t, &filtered_path);
        t.span("trace", "trace.cache_arena", |_| {
            CacheArena::from_caches(&caches, n_files)
        })
        .0
    });
    let (files, offsets) = arena.as_csr_parts();
    let mut d = Digest::new();
    d.u64(arena.n_peers() as u64).u64(arena.n_files() as u64);
    d.u64s(&files.iter().map(|f| u64::from(f.0)).collect::<Vec<_>>());
    d.u64s(&offsets.iter().map(|&o| u64::from(o)).collect::<Vec<_>>());
    out.op("union_arena", Ok(d));

    let cfg = BandedOverlapConfig::paper_default(ctx.seed);
    let (banded, _) = t.span("analysis", "analysis.banded_histogram", |_| {
        guarded(|| banded_overlap_histogram_with_threads(&arena, |_| true, &cfg, ctx.threads))
    });
    let digest = banded.map(|(hist, stats)| {
        out.counter("analysis.candidate_pairs", stats.candidate_pairs as f64);
        out.counter(
            "analysis.pruned_frac",
            stats.pruned_pairs as f64 / stats.candidate_pairs.max(1) as f64,
        );
        let mut d = Digest::new();
        d.u64s(&hist);
        for v in [
            stats.tail_files as u64,
            stats.head_files as u64,
            stats.sketched_peers as u64,
            stats.candidate_pairs,
            stats.admitted_pairs,
            stats.pruned_pairs,
        ] {
            d.u64(v);
        }
        d
    });
    out.op("banded_histogram", digest);

    let configs = sweep_configs(PolicyKind::Lru, &[20], false, ctx.seed);
    let (cells, _) = t.span("core", "core.windowed_sweep", |_| {
        guarded(|| sweep_cells_windowed(&arena, &configs, SWEEP_WINDOW))
    });
    let digest = cells.and_then(|cells| {
        let requests: u64 = cells.iter().map(|(r, _)| r.requests).sum();
        out.counter("core.windowed_requests", requests as f64);
        sweep_digest(&cells)
    });
    out.op("windowed_sweep", digest);
    setup_s
}

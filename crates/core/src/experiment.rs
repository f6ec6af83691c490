//! Experiment harnesses: the split-cell sweep scheduler, the Fig. 21
//! randomization sweep and the churn and adversary grids — with a
//! parallel runner for the embarrassingly parallel sweeps.

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::FileRef;
use edonkey_trace::randomize::{ArenaShuffler, Shuffler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::sync::Arc;

use crate::index::IndexBackend;
use crate::neighbours::PolicyKind;
use crate::query::Tables;
use crate::sim::{
    merge_partials, simulate_arena_health_with_scratch, simulate_cell_range, simulate_whole_cell,
    split_eligible, AdversaryConfig, AvailabilityConfig, CellPartial, DrawnLists, QueryPolicy,
    SearchHealth, SimConfig, SimResult, SimScratch, SplitScratch, SweepPrecomp,
};

/// The paper's canonical sweep sizes (x-axes of Figs. 18–20, 23).
pub const PAPER_LIST_SIZES: [usize; 8] = [5, 10, 20, 40, 60, 100, 150, 200];

/// One schedulable unit of a sweep: either a whole split-ineligible
/// cell, or one querier range of a split-eligible cell (with its
/// precomputation and, for Random, its drawn lists).
enum SweepTask {
    Whole {
        cell: usize,
    },
    Split {
        cell: usize,
        pre: usize,
        drawn: Option<usize>,
        lo: u32,
        hi: u32,
    },
}

enum SweepTaskOut {
    Whole(Box<(SimResult, SearchHealth)>),
    Part(CellPartial),
}

/// Per-worker scratch covering both task kinds.
#[derive(Default)]
struct SweepWorker {
    whole: SimScratch,
    split: SplitScratch,
}

/// Runs a batch of simulation cells over one arena with cell-splitting
/// work stealing: split-eligible cells (see
/// [`crate::sim::split_eligible`]) are cut into querier-range subtasks
/// that any worker can steal, so a single expensive cell (list size
/// 200) no longer serializes the sweep tail; ineligible cells run
/// whole. Results are merged deterministically and are bit-identical to
/// running every cell sequentially, for any thread count.
///
/// Uses `available_parallelism` threads; see [`sweep_cells_threads`].
pub fn sweep_cells(arena: &CacheArena, configs: &[SimConfig]) -> Vec<(SimResult, SearchHealth)> {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    sweep_cells_threads(arena, configs, threads)
}

/// [`sweep_cells`] with an explicit worker count — the hook the
/// determinism tests use.
pub fn sweep_cells_threads(
    arena: &CacheArena,
    configs: &[SimConfig],
    threads: usize,
) -> Vec<(SimResult, SearchHealth)> {
    // One precomputation per distinct seed serves every split-eligible
    // cell of the batch (the shuffled stream and arrival ranks are
    // policy- and list-size-independent), one set of Random lists every
    // Random cell of a (seed, list size), and one set of tables every
    // cell.
    //
    // Each eligible cell is cut into roughly request-balanced querier
    // ranges; a couple of subtasks per worker keeps the stealing queue
    // busy without drowning in merge overhead.
    let tables = Tables::new(configs, arena.n_peers());
    let mut precomps: Vec<Arc<SweepPrecomp>> = Vec::new();
    let mut draws: Vec<(usize, usize)> = Vec::new();
    let chunks = (threads * 2).max(2);
    let mut tasks: Vec<SweepTask> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    for (cell, config) in configs.iter().enumerate() {
        if !split_eligible(config) {
            weights.push(arena.replica_count() as u64 * 2);
            tasks.push(SweepTask::Whole { cell });
            continue;
        }
        let pre = precomp_index(&mut precomps, arena, config.seed);
        let drawn = (config.policy == PolicyKind::Random).then(|| {
            let draw = (pre, config.list_size);
            draws.iter().position(|&d| d == draw).unwrap_or_else(|| {
                draws.push(draw);
                draws.len() - 1
            })
        });
        for (lo, hi) in precomps[pre].peer_ranges(chunks) {
            weights.push(precomps[pre].requests_in(lo, hi).max(1));
            tasks.push(SweepTask::Split {
                cell,
                pre,
                drawn,
                lo,
                hi,
            });
        }
    }
    let lists: Vec<DrawnLists> = parallel_map_init_threads(
        &draws,
        threads,
        || (),
        |_, &(pre, list_size)| precomps[pre].draw_lists(list_size),
    );

    let outs = parallel_map_weighted(
        &tasks,
        &weights,
        threads,
        SweepWorker::default,
        |worker, task| match *task {
            SweepTask::Whole { cell } => SweepTaskOut::Whole(Box::new(simulate_whole_cell(
                arena,
                &configs[cell],
                &tables,
                &mut worker.whole,
            ))),
            SweepTask::Split {
                cell,
                pre,
                drawn,
                lo,
                hi,
            } => SweepTaskOut::Part(simulate_cell_range(
                arena,
                &precomps[pre],
                drawn.map(|d| &lists[d]),
                &tables,
                &configs[cell],
                (lo, hi),
                &mut worker.split,
            )),
        },
    );

    // Deterministic merge: partials regroup per cell in subtask order
    // (every merged quantity is a plain sum over disjoint querier sets,
    // so any order reproduces the sequential run bit-for-bit).
    let mut parts: Vec<Vec<CellPartial>> = configs.iter().map(|_| Vec::new()).collect();
    let mut results: Vec<Option<(SimResult, SearchHealth)>> =
        configs.iter().map(|_| None).collect();
    for (task, out) in tasks.iter().zip(outs) {
        match (task, out) {
            (SweepTask::Whole { cell }, SweepTaskOut::Whole(whole)) => {
                results[*cell] = Some(*whole);
            }
            (SweepTask::Split { cell, .. }, SweepTaskOut::Part(part)) => {
                parts[*cell].push(part);
            }
            _ => unreachable!("task and output kinds always agree"),
        }
    }
    for (cell, config) in configs.iter().enumerate() {
        if results[cell].is_none() {
            let pre = precomps
                .iter()
                .find(|p| p.seed() == config.seed)
                .expect("split cells built a precomp above");
            results[cell] = Some(merge_partials(pre, &parts[cell]));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every cell produced a result"))
        .collect()
}

/// Bounded-working-set sweep — the out-of-core paper tier's simulator
/// driver (DESIGN.md §13).
///
/// [`sweep_cells`] fans every cell's querier ranges out to a
/// work-stealing pool and holds one `CellPartial` per subtask until
/// the merge — at paper scale that is dozens of per-peer message
/// vectors alive at once. This driver instead walks each
/// split-eligible cell as a sequence of `window`-sized querier windows
/// against the explicitly loaded window of the precomputed query
/// stream, folding every window into a single running partial
/// (`CellPartial::absorb`) before the next one loads: peak memory is
/// the precomputation plus *two* per-peer vectors and one pooled
/// scratch, independent of the window count. Ineligible cells run
/// whole with pooled scratch, exactly as the work-stealing sweep runs
/// them.
///
/// Because every merged quantity is a plain sum over disjoint querier
/// sets, the result is bit-identical to [`sweep_cells`] (and therefore
/// to the sequential oracle) for any window size.
pub fn sweep_cells_windowed(
    arena: &CacheArena,
    configs: &[SimConfig],
    window: usize,
) -> Vec<(SimResult, SearchHealth)> {
    let window = window.max(1) as u32;
    let n_peers = arena.n_peers() as u32;
    let tables = Tables::new(configs, arena.n_peers());
    let mut precomps: Vec<Arc<SweepPrecomp>> = Vec::new();
    let mut whole = SimScratch::new();
    let mut split = SplitScratch::new();
    configs
        .iter()
        .map(|config| {
            if !split_eligible(config) {
                return simulate_whole_cell(arena, config, &tables, &mut whole);
            }
            let pre = precomp_index(&mut precomps, arena, config.seed);
            let pre = &precomps[pre];
            let drawn =
                (config.policy == PolicyKind::Random).then(|| pre.draw_lists(config.list_size));
            let mut acc = CellPartial::empty(arena.n_peers());
            let mut lo = 0u32;
            while lo < n_peers {
                let hi = lo.saturating_add(window).min(n_peers);
                let part = simulate_cell_range(
                    arena,
                    pre,
                    drawn.as_ref(),
                    &tables,
                    config,
                    (lo, hi),
                    &mut split,
                );
                acc.absorb(&part);
                lo = hi;
            }
            merge_partials(pre, std::slice::from_ref(&acc))
        })
        .collect()
}

/// The position of `seed`'s precomputation in `precomps`, fetching it
/// on first use: the arena's own index when `seed` is the first seed
/// simulated on it ([`CacheArena::derived_index`]), a fresh build
/// otherwise.
fn precomp_index(precomps: &mut Vec<Arc<SweepPrecomp>>, arena: &CacheArena, seed: u64) -> usize {
    match precomps.iter().position(|p| p.seed() == seed) {
        Some(i) => i,
        None => {
            precomps.push(arena.derived_index(seed, || SweepPrecomp::new(arena, seed)));
            precomps.len() - 1
        }
    }
}

/// The cell configurations of a list-size sweep.
pub fn sweep_configs(
    policy: PolicyKind,
    list_sizes: &[usize],
    two_hop: bool,
    seed: u64,
) -> Vec<SimConfig> {
    list_sizes
        .iter()
        .map(|&list_size| SimConfig {
            list_size,
            policy,
            two_hop,
            seed,
            availability: AvailabilityConfig::none(),
        })
        .collect()
}

/// One checkpoint of the Fig. 21 randomization sweep.
#[derive(Clone, Debug)]
pub struct RandomizationPoint {
    /// Swap *attempts* applied so far.
    pub swaps: u64,
    /// Hit rate at this degree of randomization.
    pub hit_rate: f64,
}

/// Fig. 21: progressively randomizes the caches and measures the LRU
/// hit rate at each checkpoint.
///
/// `checkpoints` are cumulative swap-attempt counts (must be
/// non-decreasing); point 0 is the untouched trace when `checkpoints`
/// starts at 0.
pub fn randomization_sweep(
    caches: &[Vec<FileRef>],
    n_files: usize,
    list_size: usize,
    checkpoints: &[u64],
    seed: u64,
) -> Vec<RandomizationPoint> {
    assert!(
        checkpoints.windows(2).all(|w| w[0] <= w[1]),
        "checkpoints must be non-decreasing"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffler = Shuffler::new(caches.to_vec());
    let mut applied = 0u64;
    // Shuffle sequentially, collecting the cache set at each checkpoint,
    // then simulate the checkpoints in parallel.
    let mut snapshots: Vec<(u64, Vec<Vec<FileRef>>)> = Vec::with_capacity(checkpoints.len());
    for &target in checkpoints {
        shuffler.run(target - applied, &mut rng);
        applied = target;
        let mut caches = shuffler.caches().to_vec();
        for cache in &mut caches {
            cache.sort_unstable();
        }
        snapshots.push((target, caches));
    }
    let config = SimConfig::lru(list_size).with_seed(seed);
    parallel_map_init(&snapshots, SimScratch::new, |scratch, (swaps, caches)| {
        let arena = CacheArena::from_caches(caches, n_files);
        RandomizationPoint {
            swaps: *swaps,
            hit_rate: simulate_arena_health_with_scratch(&arena, &config, scratch)
                .0
                .hit_rate(),
        }
    })
}

/// Arena-native [`randomization_sweep`]: same RNG draw sequence and
/// byte-identical shuffled caches, but swap state lives in a flat CSR
/// arena ([`ArenaShuffler`]) and each checkpoint snapshot is a flat
/// buffer copy instead of a per-peer `Vec` clone + re-sort. Each
/// snapshot's simulation runs on a scoped worker while the swap chain
/// continues to the next checkpoint.
pub fn randomization_sweep_arena(
    arena: &CacheArena,
    list_size: usize,
    checkpoints: &[u64],
    seed: u64,
) -> Vec<RandomizationPoint> {
    assert!(
        checkpoints.windows(2).all(|w| w[0] <= w[1]),
        "checkpoints must be non-decreasing"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffler = ArenaShuffler::new(arena);
    let config = SimConfig::lru(list_size).with_seed(seed);
    let mut applied = 0;
    // Each snapshot's simulation runs on a worker while the chain moves
    // on to the next checkpoint; the channel keeps checkpoint order.
    // Every checkpoint is a fresh arena, so a split replay would build
    // its own replay index per checkpoint; the whole-cell run needs
    // none.
    let (snapshots, received) = std::sync::mpsc::channel::<(u64, CacheArena)>();
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            let mut scratch = SimScratch::new();
            received
                .iter()
                .map(|(swaps, arena)| RandomizationPoint {
                    swaps,
                    hit_rate: simulate_arena_health_with_scratch(&arena, &config, &mut scratch)
                        .0
                        .hit_rate(),
                })
                .collect::<Vec<_>>()
        });
        for &target in checkpoints {
            shuffler.run(target - applied, &mut rng);
            applied = target;
            // A closed channel means the worker panicked; the join
            // below re-raises it.
            if snapshots.send((target, shuffler.snapshot_arena())).is_err() {
                break;
            }
        }
        drop(snapshots);
        worker
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

/// One cell of the churn ablation grid: a churn rate × policy × query
/// policy combination with its result and availability ledger.
#[derive(Clone, Debug)]
pub struct ChurnCell {
    /// Offline window length per peer per day, in milli-days.
    pub churn_permille: u32,
    /// Neighbour-list policy.
    pub policy: PolicyKind,
    /// The querier's timeout reaction.
    pub query: QueryPolicy,
    /// Full simulation result.
    pub result: SimResult,
    /// The availability ledger (already reconciled against `result`).
    pub health: SearchHealth,
}

/// The four policies the churn ablation compares (Fig. 18's three plus
/// the rare-file LRU of Section 5.3.2).
pub const CHURN_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::History,
    PolicyKind::Random,
    PolicyKind::RareLru { max_sources: 10 },
];

/// The churn ablation: every churn rate × [`CHURN_POLICIES`] × query
/// policy cell at one list size under one index backend, in parallel.
/// Each cell's [`SearchHealth`] is reconciled against its [`SimResult`]
/// before returning — a violation in any configuration panics, naming
/// the cell (seed, list size, churn rate).
#[allow(clippy::too_many_arguments)]
pub fn churn_grid(
    arena: &CacheArena,
    list_size: usize,
    permilles: &[u32],
    queries: &[QueryPolicy],
    outage_days: &[u32],
    backend: IndexBackend,
    churn_seed: u64,
    seed: u64,
) -> Vec<ChurnCell> {
    let mut cells: Vec<(u32, PolicyKind, QueryPolicy)> = Vec::new();
    for &rate in permilles {
        for policy in CHURN_POLICIES {
            for &query in queries {
                cells.push((rate, policy, query));
            }
        }
    }
    // Cells without outages ride the split-cell scheduler (Random with
    // its lists drawn up front); outage cells fall back to whole-cell
    // runs inside the same work-stealing pass.
    let configs: Vec<SimConfig> = cells
        .iter()
        .map(|&(rate, policy, query)| SimConfig {
            list_size,
            policy,
            two_hop: false,
            seed,
            availability: AvailabilityConfig::churn(churn_seed, rate)
                .with_query(query)
                .with_outages(outage_days.to_vec())
                .with_backend(backend),
        })
        .collect();
    cells
        .into_iter()
        .zip(configs.iter().zip(sweep_cells(arena, &configs)))
        .map(|((rate, policy, query), (config, (result, health)))| {
            health.expect_reconciled(&result, config);
            ChurnCell {
                churn_permille: rate,
                policy,
                query,
                result,
                health,
            }
        })
        .collect()
}

/// One cell of the adversary ablation grid: an attack mix × policy ×
/// defense combination with its result and ledger.
#[derive(Clone, Debug)]
pub struct AdversaryCell {
    /// The injected attack mix.
    pub adversary: AdversaryConfig,
    /// Neighbour-list policy.
    pub policy: PolicyKind,
    /// Whether the reputation defense was armed.
    pub defended: bool,
    /// Full simulation result.
    pub result: SimResult,
    /// The ledger (already reconciled against `result`).
    pub health: SearchHealth,
}

/// The adversary ablation: every attack mix × [`CHURN_POLICIES`] ×
/// {undefended, defended} cell at one list size under one index
/// backend, in parallel. Refusals, hijacks and pollution never stop an
/// acquisition, so every cell rides the split-cell scheduler. Each
/// cell's [`SearchHealth`] is reconciled against its [`SimResult`]
/// before returning — a violation panics, naming the cell.
pub fn adversary_grid(
    arena: &CacheArena,
    list_size: usize,
    adversaries: &[AdversaryConfig],
    query: QueryPolicy,
    backend: IndexBackend,
    seed: u64,
) -> Vec<AdversaryCell> {
    let mut cells: Vec<(AdversaryConfig, PolicyKind, bool)> = Vec::new();
    for adversary in adversaries {
        for policy in CHURN_POLICIES {
            for defended in [false, true] {
                cells.push((adversary.clone(), policy, defended));
            }
        }
    }
    let configs: Vec<SimConfig> = cells
        .iter()
        .map(|(adversary, policy, defended)| {
            let mut availability = AvailabilityConfig::none()
                .with_query(query)
                .with_backend(backend)
                .with_adversary(adversary.clone());
            if *defended {
                availability = availability.with_reputation();
            }
            SimConfig {
                list_size,
                policy: *policy,
                two_hop: false,
                seed,
                availability,
            }
        })
        .collect();
    cells
        .into_iter()
        .zip(configs.iter().zip(sweep_cells(arena, &configs)))
        .map(
            |((adversary, policy, defended), (config, (result, health)))| {
                health.expect_reconciled(&result, config);
                AdversaryCell {
                    adversary,
                    policy,
                    defended,
                    result,
                    health,
                }
            },
        )
        .collect()
}

// The parallel runner lives in `edonkey_trace::par` since the derivation
// pipeline needs it too; re-exported here for the sweeps (and for the
// callers that always imported it from this module).
pub use edonkey_trace::par::{
    parallel_map, parallel_map_init, parallel_map_init_threads, parallel_map_weighted,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::{remove_top_files, remove_top_uploaders};
    use crate::serve::{serve_arena_threads, ArrivalConfig, ServeConfig};
    use std::sync::Barrier;

    fn f(i: u32) -> FileRef {
        FileRef(i)
    }

    /// Clustered communities plus a few generous super-peers.
    fn workload() -> (Vec<Vec<FileRef>>, usize) {
        let mut caches = Vec::new();
        for c in 0..12u32 {
            for _ in 0..5 {
                caches.push((0..12).map(|k| f(c * 12 + k)).collect());
            }
        }
        // Super-peers holding a bit of everything.
        for start in [0u32, 48] {
            caches.push((start..start + 60).map(f).collect());
        }
        (caches, 12 * 12 + 60)
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert!(parallel_map(&[] as &[usize], |&x| x).is_empty());
    }

    #[test]
    fn parallel_map_init_reuses_worker_state() {
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map_init(&items, Vec::new, |scratch: &mut Vec<usize>, &x| {
            scratch.push(x);
            // State persists across calls on the same worker, so the
            // scratch length grows monotonically per thread.
            (x, scratch.len())
        });
        assert_eq!(out.len(), 64);
        for (i, (x, seen)) in out.iter().enumerate() {
            assert_eq!(*x, i);
            assert!(*seen >= 1);
        }
    }

    #[test]
    fn parallel_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, |&x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        // Must re-raise the worker's panic (not deadlock on a poisoned
        // slot, not swallow it into a partial result).
        assert!(result.is_err(), "worker panic must propagate to the caller");
    }

    /// One policy's list-size sweep on the split-cell scheduler.
    fn sweep(arena: &CacheArena, policy: PolicyKind, sizes: &[usize]) -> Vec<SimResult> {
        sweep_cells(arena, &sweep_configs(policy, sizes, false, 1))
            .into_iter()
            .map(|(result, _)| result)
            .collect()
    }

    fn workload_arena() -> CacheArena {
        let (caches, n) = workload();
        CacheArena::from_caches(&caches, n)
    }

    #[test]
    fn sweep_monotonicity_in_list_size() {
        let sweep = sweep(&workload_arena(), PolicyKind::Lru, &[2, 8, 32]);
        assert_eq!(sweep.len(), 3);
        assert!(
            sweep[2].hit_rate() >= sweep[0].hit_rate() - 0.02,
            "bigger lists should not hurt: {:?}",
            sweep.iter().map(SimResult::hit_rate).collect::<Vec<_>>()
        );
    }

    #[test]
    fn policy_comparison_orders_policies() {
        let arena = workload_arena();
        let rate = |k: PolicyKind| sweep(&arena, k, &[8])[0].hit_rate();
        assert!(rate(PolicyKind::Lru) > rate(PolicyKind::Random));
        assert!(rate(PolicyKind::History) > rate(PolicyKind::Random));
    }

    #[test]
    fn uploader_removal_reduces_requests_and_flattens_load() {
        let arena = workload_arena();
        let (reduced, _) = remove_top_uploaders(&arena, 0.15);
        let baseline = &sweep(&arena, PolicyKind::Lru, &[5])[0];
        let reduced = &sweep(&reduced, PolicyKind::Lru, &[5])[0];
        assert!(reduced.requests < baseline.requests);
        assert!(reduced.max_load() <= baseline.max_load());
    }

    #[test]
    fn file_removal_raises_hit_rate_here() {
        // With super-peers and popular files removed, the tight
        // communities dominate: hit rate should not collapse.
        let arena = workload_arena();
        let (reduced, _) = remove_top_files(&arena, 0.15);
        let baseline = sweep(&arena, PolicyKind::Lru, &[5])[0].hit_rate();
        let reduced = sweep(&reduced, PolicyKind::Lru, &[5])[0].hit_rate();
        assert!(
            reduced > baseline * 0.8,
            "baseline {baseline}, reduced {reduced}"
        );
    }

    #[test]
    fn combined_table_runs_all_cells() {
        let arena = workload_arena();
        let table: Vec<Vec<SimResult>> = [(0.05, 0.05), (0.15, 0.15)]
            .iter()
            .map(|&(uploaders, files)| {
                let (reduced, _) = remove_top_uploaders(&arena, uploaders);
                let (reduced, _) = remove_top_files(&reduced, files);
                sweep(&reduced, PolicyKind::Lru, &[5, 10])
            })
            .collect();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].len(), 2);
    }

    #[test]
    fn randomization_decays_hit_rate() {
        let (caches, n) = workload();
        let replicas: u64 = caches.iter().map(|c| c.len() as u64).sum();
        let full = edonkey_trace::randomize::recommended_iterations(replicas as usize);
        let sweep = randomization_sweep(&caches, n, 8, &[0, full / 4, full, full * 3], 2);
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep[0].swaps, 0);
        let initial = sweep[0].hit_rate;
        let final_rate = sweep[3].hit_rate;
        assert!(
            final_rate < initial - 0.1,
            "randomization must destroy most clustering: {initial} → {final_rate}"
        );
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_checkpoints_rejected() {
        let (caches, n) = workload();
        let _ = randomization_sweep(&caches, n, 5, &[10, 5], 1);
    }

    fn points_equal(a: &[RandomizationPoint], b: &[RandomizationPoint]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.swaps == y.swaps && x.hit_rate == y.hit_rate)
    }

    #[test]
    fn arena_sweep_matches_row_sweep_exactly() {
        let (caches, n) = workload();
        let checkpoints = [0u64, 500, 2000, 8000];
        let row = randomization_sweep(&caches, n, 8, &checkpoints, 2);
        let arena = CacheArena::from_caches(&caches, n);
        let points = randomization_sweep_arena(&arena, 8, &checkpoints, 2);
        assert!(
            points_equal(&row, &points),
            "row {row:?} vs arena {points:?}"
        );
    }

    #[test]
    fn sequential_sweep_is_bit_identical_to_parallel() {
        let (caches, n) = workload();
        let sizes = [2usize, 5, 8, 16, 32];
        let par = sweep(
            &CacheArena::from_caches(&caches, n),
            PolicyKind::Lru,
            &sizes,
        );
        let arena = CacheArena::from_caches(&caches, n);
        let mut scratch = SimScratch::new();
        let seq: Vec<SimResult> = sweep_configs(PolicyKind::Lru, &sizes, false, 1)
            .iter()
            .map(|config| simulate_arena_health_with_scratch(&arena, config, &mut scratch).0)
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn split_cells_match_whole_cells_for_any_thread_count() {
        let (caches, n) = workload();
        let arena = CacheArena::from_caches(&caches, n);
        // A mixed batch: quiet adaptive cells (split, both hit-check
        // modes), Random quiet and under churn with stateless
        // replacements (split), churn cells with and without retries
        // (split), and an outage cell (whole).
        let configs = vec![
            SimConfig::lru(3).with_seed(7),
            SimConfig::history(16).with_seed(7),
            SimConfig::rare_lru(5, 3).with_seed(7),
            SimConfig::random(5).with_seed(7),
            SimConfig::random(5).with_seed(7).with_availability(
                AvailabilityConfig::churn(11, 250).with_query(QueryPolicy::retry_evict()),
            ),
            SimConfig::lru(5)
                .with_seed(7)
                .with_availability(AvailabilityConfig::churn(11, 250)),
            SimConfig::history(5).with_seed(7).with_availability(
                AvailabilityConfig::churn(11, 250).with_query(QueryPolicy::retry_evict()),
            ),
            SimConfig::lru(5).with_seed(7).with_availability(
                AvailabilityConfig::churn(11, 250)
                    .with_query(QueryPolicy::retry_evict())
                    .with_outages(vec![2, 3]),
            ),
        ];
        let mut scratch = SimScratch::new();
        let oracle: Vec<(SimResult, SearchHealth)> = configs
            .iter()
            .map(|c| simulate_arena_health_with_scratch(&arena, c, &mut scratch))
            .collect();
        for threads in [1, 2, 3, 8] {
            let split = sweep_cells_threads(&arena, &configs, threads);
            assert_eq!(split, oracle, "threads = {threads}");
        }
    }

    #[test]
    fn windowed_sweep_is_bit_identical_to_the_work_stealing_sweep() {
        let (caches, n) = workload();
        let arena = CacheArena::from_caches(&caches, n);
        // Split cells (quiet, churn, zero-outage DHT), quiet Random and
        // Random under churn with stateless replacements, and a whole
        // outage cell — every path the windowed sweep has.
        let configs = vec![
            SimConfig::lru(3).with_seed(7),
            SimConfig::history(16).with_seed(7),
            SimConfig::random(5).with_seed(7),
            SimConfig::random(5).with_seed(7).with_availability(
                AvailabilityConfig::churn(11, 250).with_query(QueryPolicy::retry_evict()),
            ),
            SimConfig::lru(5)
                .with_seed(7)
                .with_availability(AvailabilityConfig::churn(11, 250)),
            SimConfig::lru(5)
                .with_seed(7)
                .with_backend(IndexBackend::Dht { replication_k: 3 }),
            SimConfig::lru(5)
                .with_seed(7)
                .with_availability(AvailabilityConfig::churn(11, 250).with_outages(vec![2, 3])),
        ];
        let reference = sweep_cells_threads(&arena, &configs, 4);
        for window in [1, 7, 64, usize::MAX] {
            assert_eq!(
                sweep_cells_windowed(&arena, &configs, window),
                reference,
                "window = {window}"
            );
        }
    }

    #[test]
    fn adversary_grid_covers_the_matrix_and_reconciles() {
        let mixes = [
            AdversaryConfig::none(),
            AdversaryConfig::sybils(21, 150).with_polluters(150),
        ];
        let grid = adversary_grid(
            &workload_arena(),
            5,
            &mixes,
            QueryPolicy::no_retry(),
            IndexBackend::SingleServer,
            1,
        );
        assert_eq!(grid.len(), 2 * CHURN_POLICIES.len() * 2);
        for policy in CHURN_POLICIES {
            let cell = |mix: &AdversaryConfig, defended: bool| {
                grid.iter()
                    .find(|c| c.adversary == *mix && c.policy == policy && c.defended == defended)
                    .unwrap()
            };
            // An armed defense on an honest run is a bitwise no-op.
            let honest = cell(&mixes[0], false);
            let honest_armed = cell(&mixes[0], true);
            assert_eq!(honest.result, honest_armed.result, "{policy:?}");
            assert_eq!(honest.health, honest_armed.health, "{policy:?}");
            assert_eq!(honest.health.wasted_queries, 0);
            // The attacked cell actually exercises the adversary, and
            // the defense only fires when armed.
            let attacked = cell(&mixes[1], false);
            assert!(attacked.health.sybil_slots_held > 0, "{policy:?}");
            assert_eq!(attacked.health.reputation_evictions, 0);
            assert!(
                attacked.result.one_hop_hits <= honest.result.one_hop_hits,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn churn_grid_rides_the_split_scheduler_unchanged() {
        let arena = workload_arena();
        // The grid result must be independent of the machine's thread
        // count: cross-check one cell against a direct simulation.
        let grid = churn_grid(
            &arena,
            5,
            &[0, 250],
            &[QueryPolicy::no_retry()],
            &[],
            IndexBackend::SingleServer,
            13,
            1,
        );
        assert_eq!(grid.len(), 2 * CHURN_POLICIES.len());
        for cell in &grid {
            cell.health.check_against(&cell.result).unwrap();
        }
        let direct = simulate_arena_health_with_scratch(
            &arena,
            &SimConfig {
                list_size: 5,
                policy: PolicyKind::Lru,
                two_hop: false,
                seed: 1,
                availability: AvailabilityConfig::churn(13, 250),
            },
            &mut SimScratch::new(),
        );
        let cell = grid
            .iter()
            .find(|c| c.churn_permille == 250 && c.policy == PolicyKind::Lru)
            .unwrap();
        assert_eq!((cell.result.clone(), cell.health), direct);
    }

    /// The replay index `arena` holds; panics unless it is `seed`'s.
    fn held_index(arena: &CacheArena, seed: u64) -> Arc<SweepPrecomp> {
        arena.derived_index(seed, || -> SweepPrecomp {
            panic!("no index held for seed {seed}")
        })
    }

    /// An open LRU cell, then Random behind a bounded queue with bursty
    /// arrivals.
    fn serve_cells(seed: u64) -> [ServeConfig; 2] {
        [
            ServeConfig::new(SimConfig::lru(5).with_seed(seed)),
            ServeConfig::new(SimConfig::random(5).with_seed(seed))
                .with_service(1000, 3, 1)
                .with_arrival(ArrivalConfig::bursty(seed ^ 0x5e, 600, 0)),
        ]
    }

    /// Quiet split cells of each policy, a churned split cell and a
    /// whole outage cell.
    fn sweep_batch(seed: u64) -> Vec<SimConfig> {
        let churn = AvailabilityConfig::churn(11, 250);
        vec![
            SimConfig::lru(3).with_seed(seed),
            SimConfig::history(16).with_seed(seed),
            SimConfig::random(5).with_seed(seed),
            SimConfig::lru(5)
                .with_seed(seed)
                .with_availability(churn.clone()),
            SimConfig::lru(5)
                .with_seed(seed)
                .with_availability(churn.with_outages(vec![2, 3])),
        ]
    }

    #[test]
    fn shared_index_serves_and_sweeps_from_one_build() {
        let arena = workload_arena();
        let [open, loaded] = serve_cells(7);
        let first = serve_arena_threads(&arena, &open, 2);
        let index = held_index(&arena, 7);
        let second = serve_arena_threads(&arena, &loaded, 2);
        assert!(Arc::ptr_eq(&index, &held_index(&arena, 7)));
        assert!(second.health.shed > 0, "the bounded cell must shed");
        assert_eq!(first, serve_arena_threads(&workload_arena(), &open, 2));
        assert_eq!(second, serve_arena_threads(&workload_arena(), &loaded, 2));

        let batch = sweep_batch(7);
        let fresh = sweep_cells_threads(&workload_arena(), &batch, 2);
        assert_eq!(sweep_cells_threads(&arena, &batch, 2), fresh);
        assert_eq!(sweep_cells_threads(&arena, &batch[2..], 1), fresh[2..]);
        assert_eq!(sweep_cells_windowed(&arena, &batch, 7), fresh);
        assert!(Arc::ptr_eq(&index, &held_index(&arena, 7)));
    }

    #[test]
    fn shared_index_keeps_its_seed_and_other_seeds_build_fresh() {
        let arena = workload_arena();
        let first = sweep_cells_threads(&arena, &sweep_batch(7), 2);
        let index = held_index(&arena, 7);
        let batch = sweep_batch(8);
        let fresh = sweep_cells_threads(&workload_arena(), &batch, 2);
        assert_ne!(first, fresh, "the seeds must tell apart");
        assert_eq!(sweep_cells_threads(&arena, &batch, 2), fresh);
        assert_eq!(sweep_cells_windowed(&arena, &batch, 7), fresh);
        for config in serve_cells(8) {
            let fresh = serve_arena_threads(&workload_arena(), &config, 2);
            assert_eq!(serve_arena_threads(&arena, &config, 2), fresh);
        }
        assert!(Arc::ptr_eq(&index, &held_index(&arena, 7)));
    }

    #[test]
    fn shared_index_is_rebuilt_after_retain() {
        let mut arena = workload_arena();
        let batch = sweep_batch(7);
        sweep_cells_threads(&arena, &batch, 2);
        arena.retain(|p, file| p % 3 != 0 && file.0 % 5 != 0);
        let kept = CacheArena::from_caches(&arena.to_caches(), arena.n_files());
        assert_eq!(
            sweep_cells_threads(&arena, &batch, 2),
            sweep_cells_threads(&kept, &batch, 2)
        );
        for config in serve_cells(7) {
            let fresh = serve_arena_threads(&kept, &config, 2);
            assert_eq!(serve_arena_threads(&arena, &config, 2), fresh);
        }
    }

    #[test]
    fn shared_index_is_not_carried_by_clones() {
        let arena = workload_arena();
        let batch = sweep_batch(7);
        let original = sweep_cells_threads(&arena, &batch, 2);
        let clone = arena.clone();
        assert_eq!(sweep_cells_threads(&clone, &batch, 2), original);
        assert!(!Arc::ptr_eq(&held_index(&arena, 7), &held_index(&clone, 7)));
    }

    #[test]
    fn shared_index_first_call_race_agrees() {
        let arena = workload_arena();
        let [_, loaded] = serve_cells(7);
        let batch = sweep_batch(7);
        let barrier = Barrier::new(2);
        let run = || {
            barrier.wait();
            let report = serve_arena_threads(&arena, &loaded, 2);
            (report, sweep_cells_threads(&arena, &batch, 2))
        };
        let [a, b] = std::thread::scope(|s| {
            [s.spawn(run), s.spawn(run)].map(|h| h.join().expect("racer panicked"))
        });
        assert_eq!(a, b);
        let fresh = workload_arena();
        assert_eq!(a.0, serve_arena_threads(&fresh, &loaded, 2));
        assert_eq!(a.1, sweep_cells_threads(&fresh, &batch, 2));
    }
}

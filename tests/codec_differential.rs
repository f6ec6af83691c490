//! Differential battery across the two on-disk trace formats: a
//! generated workload saved and reloaded through JSON and the binary
//! columnar codec must yield identical traces — and
//! identical derived artefacts all the way down the pipeline (filtered
//! and extrapolated stages, the Fig. 14 clustering-correlation series,
//! the Fig. 18 policy-comparison hit rates). The streaming filter is
//! held to the in-memory filter over the same workload.

use std::path::{Path, PathBuf};

use edonkey_repro::analysis::semantic;
use edonkey_repro::semsearch::experiment::{sweep_cells, sweep_configs};
use edonkey_repro::semsearch::neighbours::PolicyKind;
use edonkey_repro::trace::compact::{CacheArena, TraceArena};
use edonkey_repro::trace::io;
use edonkey_repro::trace::model::Trace;
use edonkey_repro::trace::pipeline::{extrapolate, filter, filter_streaming, ExtrapolateConfig};
use edonkey_repro::workload::{generate_trace, WorkloadConfig};

const SEED: u64 = 20060418;
const HOLDER_CAP: usize = 200;
const LIST_SIZES: [usize; 3] = [5, 20, 100];

fn small_workload() -> Trace {
    let mut config = WorkloadConfig::test_scale(SEED);
    config.peers = 150;
    config.files = 1_200;
    config.days = 8;
    let (_, trace) = generate_trace(config);
    trace
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edonkey_differential_{name}_{SEED}"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Saves `trace` through each codec and reloads it twice: once with the
/// format-specific loader, once with the sniffing [`io::load_auto`].
fn round_trips(trace: &Trace, dir: &Path) -> Vec<(&'static str, Trace)> {
    let json = dir.join("trace.json");
    let bin = dir.join("trace.etrc");
    io::save_json(trace, &json).expect("save_json");
    io::save_bin(trace, &bin).expect("save_bin");
    let mut out = Vec::new();
    type Loader = fn(&std::path::Path) -> Result<Trace, io::TraceIoError>;
    for (name, path, load) in [
        ("json", &json, io::load_json as Loader),
        ("binary", &bin, io::load_bin as Loader),
    ] {
        let direct = load(path).expect(name);
        let sniffed = io::load_auto(path).expect(name);
        assert_eq!(
            direct, sniffed,
            "{name}: load_auto must match the direct loader"
        );
        out.push((name, direct));
    }
    out
}

/// The Fig. 18 series, flattened to comparable rows.
fn fig18_series(view: &CacheArena) -> Vec<(String, usize, u64, u64)> {
    [PolicyKind::Lru, PolicyKind::History, PolicyKind::Random]
        .into_iter()
        .flat_map(|policy| {
            let cells = sweep_cells(view, &sweep_configs(policy, &LIST_SIZES, false, SEED));
            LIST_SIZES
                .iter()
                .zip(cells)
                .map(move |(&size, (result, _))| {
                    (
                        policy.name().to_string(),
                        size,
                        result.hits(),
                        result.requests,
                    )
                })
        })
        .collect()
}

#[test]
fn all_formats_agree_down_the_pipeline() {
    let full = small_workload();
    let dir = scratch_dir("pipeline");
    let loaded = round_trips(&full, &dir);

    // Reference pipeline from the in-memory original.
    let ref_filtered = filter(&full).trace;
    let ref_extrapolated = extrapolate(&ref_filtered, ExtrapolateConfig::default()).trace;
    let ref_view = TraceArena::from_trace(&ref_filtered).static_arena();
    let ref_fig14 = semantic::clustering_correlation_arena(&ref_view, |_| true, Some(HOLDER_CAP));
    let ref_fig18 = fig18_series(&ref_view);
    assert!(
        !ref_fig14.is_empty(),
        "workload too small: empty Fig. 14 series"
    );
    assert!(
        !ref_fig18.is_empty(),
        "workload too small: empty Fig. 18 series"
    );

    for (name, trace) in loaded {
        assert_eq!(trace, full, "{name}: full trace must round-trip losslessly");
        let filtered = filter(&trace).trace;
        assert_eq!(filtered, ref_filtered, "{name}: filtered stage diverged");
        let extrapolated = extrapolate(&filtered, ExtrapolateConfig::default()).trace;
        assert_eq!(
            extrapolated, ref_extrapolated,
            "{name}: extrapolated stage diverged"
        );
        let view = TraceArena::from_trace(&filtered).static_arena();
        let fig14 = semantic::clustering_correlation_arena(&view, |_| true, Some(HOLDER_CAP));
        assert_eq!(fig14, ref_fig14, "{name}: Fig. 14 series diverged");
        let fig18 = fig18_series(&view);
        assert_eq!(fig18, ref_fig18, "{name}: Fig. 18 series diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_filter_matches_in_memory_filter_on_workload() {
    let full = small_workload();
    let dir = scratch_dir("streaming");
    let input = dir.join("full.etrc");
    let output = dir.join("filtered.etrc");
    io::save_bin(&full, &input).expect("save_bin");

    let streamed = filter_streaming(&input, &output).expect("filter_streaming");
    let in_memory = filter(&full);
    assert_eq!(streamed.kept, in_memory.kept, "kept-peer mapping diverged");
    assert_eq!(streamed.days as usize, full.days.len());
    let streamed_trace = io::load_bin(&output).expect("load filtered output");
    assert_eq!(
        streamed_trace, in_memory.trace,
        "streamed filtered trace diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

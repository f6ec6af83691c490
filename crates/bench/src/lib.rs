//! `edonkey-bench`: the reproduction harness behind `reproduce`,
//! `bench_report`, the end-to-end `benchmark` and the criterion
//! benchmarks.
//!
//! Every figure, table and ablation is one function here (see DESIGN.md
//! §5), run by `reproduce` or selected with `reproduce --only <name>`.
//! They share this harness: a scale selector, the standard workload
//! (generate/load → pipeline stages → the filtered stage's static view),
//! and a TSV emitter that writes both to stdout and to
//! `EXPERIMENTS-data/`.

pub mod ablations;
pub mod alloc;
pub mod figures_cluster;
pub mod figures_measure;
pub mod figures_search;

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use edonkey_trace::compact::{CacheArena, TraceArena};
use edonkey_trace::io::TraceIoError;
use edonkey_trace::model::Trace;
use edonkey_trace::pipeline::{extrapolate_arena, filter_arena, ExtrapolateConfig};
use edonkey_workload::{generate_trace, WorkloadConfig};

/// Every bench binary allocates through the counting wrapper so
/// `BENCH_report.json` entries can carry heap-traffic fields.
#[global_allocator]
static GLOBAL_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Workload scale for regeneration runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke runs (CI, examples).
    Test,
    /// The default: every shape emerges, minutes-scale.
    Small,
    /// Larger runs closer to the paper's statistics.
    Repro,
    /// Full paper scale (hours).
    Paper,
}

/// A `--scale` / `EDONKEY_SCALE` value that names no [`Scale`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownScale(pub String);

impl fmt::Display for UnknownScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scale {:?} (test|small|repro|paper)", self.0)
    }
}

impl std::error::Error for UnknownScale {}

impl Scale {
    /// Reads the scale from `--scale <s>` argv or `EDONKEY_SCALE`,
    /// defaulting to [`Scale::Small`].
    pub fn from_env() -> Result<Scale, UnknownScale> {
        let mut args = std::env::args().skip(1);
        let mut scale = std::env::var("EDONKEY_SCALE").ok();
        while let Some(arg) = args.next() {
            if arg == "--scale" {
                scale = args.next();
            }
        }
        match scale.as_deref() {
            Some("test") => Ok(Scale::Test),
            Some("small") | None => Ok(Scale::Small),
            Some("repro") => Ok(Scale::Repro),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(UnknownScale(other.to_string())),
        }
    }

    /// The workload configuration for this scale.
    pub fn config(self, seed: u64) -> WorkloadConfig {
        match self {
            Scale::Test => {
                let mut c = WorkloadConfig::test_scale(seed);
                c.days = 20;
                c
            }
            Scale::Small => {
                let mut c = WorkloadConfig {
                    peers: 8_000,
                    files: 160_000,
                    topics: 1_600,
                    ..WorkloadConfig::test_scale(seed)
                };
                // Identity churn at the netsim rates, so the filtering
                // stage has real duplicate-IP/uid aliases to remove and
                // Table 1 shows filtered < full at this scale.
                c.alias_dhcp_daily_prob = 0.02;
                c.alias_reinstall_daily_prob = 0.002;
                c
            }
            Scale::Repro => WorkloadConfig::repro_scale(seed),
            Scale::Paper => WorkloadConfig::paper_scale(seed),
        }
    }
}

/// The standard workload every figure and most ablations start from:
/// the three pipeline stages, as arenas.
pub struct Workload {
    /// The observed ("full") trace.
    pub full: TraceArena,
    /// The filtered trace (static analyses).
    pub filtered: TraceArena,
    /// The extrapolated trace (dynamic analyses).
    pub extrapolated: TraceArena,
    /// The filtered stage's static view, built on first use.
    static_view: OnceLock<CacheArena>,
}

/// The workspace-wide default seed for regeneration runs.
pub const SEED: u64 = 20060418; // EuroSys'06 opening day.

/// Reads a trace override from `--trace <path>` argv or `EDONKEY_TRACE`.
///
/// When set, [`Workload::generate`] loads the full trace from this path
/// (any of the three on-disk formats, sniffed by
/// [`edonkey_trace::io::load_auto`]) instead of generating one.
pub fn trace_override() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    let mut path = std::env::var("EDONKEY_TRACE").ok();
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            path = args.next();
        }
    }
    path.map(PathBuf::from)
}

impl Workload {
    /// Generates the standard workload at `scale`, or derives it from a
    /// trace file when [`trace_override`] names one.
    ///
    /// # Errors
    ///
    /// Returns the read or decode error of a trace file that cannot be
    /// loaded (see [`Workload::load`]).
    pub fn generate(scale: Scale) -> Result<Workload, TraceIoError> {
        if let Some(path) = trace_override() {
            return Workload::load(&path);
        }
        eprintln!("[bench] generating workload at {scale:?} scale…");
        let (_, full) = generate_trace(scale.config(SEED));
        Ok(Workload::derive(full))
    }

    /// Builds the workload from a trace file in any supported format
    /// (binary or JSON — sniffed from the file contents).
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be read or decoded;
    /// [`Workload::load`] returns the error instead.
    pub fn from_trace_file(path: &Path) -> Workload {
        Workload::load(path).unwrap_or_else(|e| panic!("load trace {e}"))
    }

    /// [`Workload::from_trace_file`], returning the read or decode error
    /// (which names the file) instead of panicking.
    pub fn load(path: &Path) -> Result<Workload, TraceIoError> {
        eprintln!("[bench] loading trace from {}…", path.display());
        Ok(Workload::derive(edonkey_trace::io::load_auto(path)?))
    }

    /// Packs the row trace into an arena and drops it before deriving
    /// the other two stages, so no stage is ever held as rows.
    fn derive(trace: Trace) -> Workload {
        let full = TraceArena::from_trace(&trace);
        drop(trace);
        eprintln!(
            "[bench] trace: {} peers, {} files, {} days",
            full.peers.len(),
            full.files.len(),
            full.days.len()
        );
        let filtered = filter_arena(&full).arena;
        let extrapolated = extrapolate_arena(&filtered, ExtrapolateConfig::default()).arena;
        eprintln!(
            "[bench] filtered: {} peers; extrapolated: {} peers",
            filtered.peers.len(),
            extrapolated.peers.len()
        );
        Workload {
            full,
            filtered,
            extrapolated,
            static_view: OnceLock::new(),
        }
    }

    /// The filtered stage's static view: every client's union of shared
    /// files over the trace. It is the one input of the static analyses
    /// (Figs. 6–8, 11–14, Table 1's filtered row), every Section 5 figure
    /// and the ablations that replay the seed trace. Built once, on first
    /// use, so runs that never read it never pay for it.
    pub fn static_view(&self) -> &CacheArena {
        self.static_view
            .get_or_init(|| self.filtered.static_arena())
    }
}

/// A table/figure emitter: tab-separated, stdout plus
/// `EXPERIMENTS-data/<name>.tsv`.
pub struct Emitter {
    name: String,
    buffer: String,
}

impl Emitter {
    /// Starts an emitter for an experiment (e.g. `"fig05"`).
    pub fn new(name: &str) -> Emitter {
        Emitter {
            name: name.to_string(),
            buffer: String::new(),
        }
    }

    /// Emits a comment line (prefixed `#`).
    pub fn comment(&mut self, text: &str) {
        for line in text.lines() {
            writeln!(self.buffer, "# {line}").expect("string write");
        }
    }

    /// Emits one row of tab-separated cells.
    pub fn row<S: AsRef<str>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let joined: Vec<String> = cells.into_iter().map(|c| c.as_ref().to_string()).collect();
        writeln!(self.buffer, "{}", joined.join("\t")).expect("string write");
    }

    /// Emits a blank separator line.
    pub fn blank(&mut self) {
        self.buffer.push('\n');
    }

    /// Prints the experiment and writes `EXPERIMENTS-data/<name>.tsv`.
    ///
    /// Returns the output path.
    pub fn finish(self) -> PathBuf {
        print!("{}", self.buffer);
        let dir = PathBuf::from(
            std::env::var("EDONKEY_DATA_DIR").unwrap_or_else(|_| "EXPERIMENTS-data".into()),
        );
        std::fs::create_dir_all(&dir).expect("create data dir");
        let path = dir.join(format!("{}.tsv", self.name));
        std::fs::write(&path, &self.buffer).expect("write experiment data");
        eprintln!("[bench] wrote {}", path.display());
        path
    }
}

/// Formats a float with fixed precision (TSV cell helper).
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_valid_configs() {
        for scale in [Scale::Test, Scale::Small, Scale::Repro, Scale::Paper] {
            assert_eq!(scale.config(1).validate(), Ok(()), "{scale:?}");
        }
    }

    #[test]
    fn small_scale_exercises_the_alias_filter() {
        let c = Scale::Small.config(1);
        assert!(c.alias_dhcp_daily_prob > 0.0);
        assert!(c.alias_reinstall_daily_prob > 0.0);
        // The test preset stays alias-free (fixtures and differential
        // suites pin its byte-identical stream).
        let t = Scale::Test.config(1);
        assert_eq!(t.alias_dhcp_daily_prob, 0.0);
        assert_eq!(t.alias_reinstall_daily_prob, 0.0);
    }

    #[test]
    fn emitter_formats_tsv() {
        let mut e = Emitter::new("selftest");
        e.comment("two lines\nof comment");
        e.row(["a", "b"]);
        e.row([f(1.5, 2), f(2.0, 0)]);
        assert_eq!(e.buffer, "# two lines\n# of comment\na\tb\n1.50\t2\n");
    }

    #[test]
    fn tiny_workload_generates() {
        let w = Workload::generate(Scale::Test).expect("no trace file to load");
        assert!(w.filtered.peers.len() <= w.full.peers.len());
        assert!(w.extrapolated.peers.len() <= w.filtered.peers.len());
        assert!(!w.full.files.is_empty());
        let view = w.static_view();
        assert_eq!(view.n_peers(), w.filtered.peers.len());
        assert_eq!(view.to_caches(), w.filtered.to_trace().static_caches());
        assert!(std::ptr::eq(view, w.static_view()), "built once");
    }
}

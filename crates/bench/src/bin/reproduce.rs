//! Regenerates every table and figure of the paper in one run, sharing
//! one workload, then runs the ablations and the beyond-the-paper
//! experiments. Output lands in `EXPERIMENTS-data/<name>.tsv`.
//!
//! Usage: `cargo run --release -p edonkey-bench --bin reproduce [--scale test|small|repro|paper] [--trace <path>] [--only <name>[,<name>…]]`
//!
//! `--only` runs just the named entries (an entry's name is the TSV it
//! writes), in the default run order; the workload is generated only
//! when a selected entry reads it. With `--trace <path>` (or
//! `EDONKEY_TRACE`), the full trace is loaded from the file — binary
//! columnar or JSON, sniffed from the contents — instead of
//! being generated, and every entry that reads the workload draws from
//! it. An unknown scale or entry name, or a trace file that cannot be
//! loaded, exits with status 2.
use edonkey_bench::{
    ablations as ab, figures_cluster as fc, figures_measure as fm, figures_search as fs, Scale,
    Workload,
};

/// What one entry reads.
enum Input {
    /// The standard workload (figures and the seed-trace ablations).
    Workload(fn(&Workload)),
    /// Its own generated or crawled inputs at the scale.
    Scale(fn(Scale)),
}

/// Every entry, in run order.
const ENTRIES: [(&str, Input); 38] = [
    ("fig01", Input::Workload(fm::fig01)),
    ("fig02", Input::Workload(fm::fig02)),
    ("fig03", Input::Workload(fm::fig03)),
    ("fig04", Input::Workload(fm::fig04)),
    ("table1", Input::Workload(fm::table1)),
    ("fig05", Input::Workload(fm::fig05)),
    ("fig06", Input::Workload(fm::fig06)),
    ("fig07", Input::Workload(fm::fig07)),
    ("fig08", Input::Workload(fm::fig08)),
    ("fig09", Input::Workload(fm::fig09)),
    ("fig10", Input::Workload(fm::fig10)),
    ("table2", Input::Workload(fm::table2)),
    ("fig11", Input::Workload(fc::fig11)),
    ("fig12", Input::Workload(fc::fig12)),
    ("fig13", Input::Workload(fc::fig13)),
    ("fig14", Input::Workload(fc::fig14)),
    ("fig15", Input::Workload(fc::fig15)),
    ("fig16", Input::Workload(fc::fig16)),
    ("fig17", Input::Workload(fc::fig17)),
    ("fig18", Input::Workload(fs::fig18)),
    ("fig19", Input::Workload(fs::fig19)),
    ("fig20", Input::Workload(fs::fig20)),
    ("table3", Input::Workload(fs::table3)),
    ("fig21", Input::Workload(fs::fig21)),
    ("fig22", Input::Workload(fs::fig22)),
    ("fig23", Input::Workload(fs::fig23)),
    ("ablation_interest", Input::Scale(ab::ablation_interest)),
    (
        "ablation_randomize",
        Input::Workload(ab::ablation_randomize),
    ),
    ("ablation_policies", Input::Workload(ab::ablation_policies)),
    ("ablation_crawler", Input::Scale(ab::ablation_crawler)),
    ("fault_sweep", Input::Scale(ab::ablation_fault_sweep)),
    ("churn_sweep", Input::Workload(ab::ablation_churn_sweep)),
    (
        "index_backend_sweep",
        Input::Workload(ab::ablation_index_backends),
    ),
    (
        "ablation_service_mode",
        Input::Workload(ab::ablation_service_mode),
    ),
    ("adversary_sweep", Input::Workload(ab::ablation_adversary)),
    ("gossip", Input::Workload(ab::gossip)),
    ("overlay", Input::Scale(ab::overlay)),
    ("peercache", Input::Workload(ab::peercache)),
];

/// The names `--only <name>[,<name>…]` selects (every entry when the
/// flag is absent).
fn selected() -> Result<Vec<String>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(at) = args.iter().position(|a| a == "--only") else {
        return Ok(ENTRIES.iter().map(|(name, _)| name.to_string()).collect());
    };
    let list = args.get(at + 1).ok_or("--only needs a name")?;
    let valid: Vec<&str> = ENTRIES.iter().map(|(name, _)| *name).collect();
    let names: Vec<String> = list.split(',').map(str::to_string).collect();
    match names.iter().find(|n| !valid.contains(&n.as_str())) {
        Some(unknown) => Err(format!(
            "unknown --only entry {unknown:?}; valid names: {}",
            valid.join(", ")
        )),
        None => Ok(names),
    }
}

/// Prints a command-line error and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("reproduce: {message}");
    std::process::exit(2)
}

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| usage_error(&e.to_string()));
    let names = selected().unwrap_or_else(|e| usage_error(&e));
    let mut workload: Option<Workload> = None;
    for (name, input) in ENTRIES.iter().filter(|(n, _)| names.iter().any(|s| s == n)) {
        eprintln!("[reproduce] {name}…");
        match input {
            Input::Workload(run) => run(workload.get_or_insert_with(|| {
                Workload::generate(scale)
                    .unwrap_or_else(|e| usage_error(&format!("cannot load trace {e}")))
            })),
            Input::Scale(run) => run(scale),
        }
    }
    eprintln!("[reproduce] done.");
}

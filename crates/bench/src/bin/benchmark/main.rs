//! End-to-end reproduction benchmark.
//!
//! ```text
//! benchmark [--workload W] [--seed S] [--runs N] [--seconds T]
//!           [--trace 0|1] [--scale test|small] [--bless]
//! ```
//!
//! The parent generates the input trace for the seed (untimed), then
//! runs the selected workloads round-robin, each run in a fresh child
//! process (a re-exec of this binary) with stdout discarded and a
//! private `EDONKEY_DATA_DIR`; children report through a result file.
//! Rounds repeat until `--runs` rounds (default 5, or 3 when
//! `--seconds` is given) have run and another round as long as the last
//! would end past `--seconds` of measuring. The
//! parent checks every operation's digest against `expected.tsv` (at
//! the default seed) and across runs, prints each metric's median,
//! quartiles and sample count, and writes `.benchmark/results.json`.
//! With `--trace 1` each workload runs once more with spans recorded and
//! `.benchmark/spans_<workload>.json` is written. The last stdout line
//! is a JSON summary; the exit code is nonzero if any operation failed
//! or any digest disagreed. See README.md.

mod digest;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use edonkey_bench::Scale;
use edonkey_proto::md4::Md4;

use crate::digest::Pin;
use crate::spans::{layer_totals, Span};
use crate::workloads::{Op, Outcome, RunCtx, WORKLOADS};

/// End-to-end metrics of the summary line (`BENCHMARK.json`
/// `end_to_end`), with units.
const END_TO_END: [(&str, &str); 3] = [("total_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics of the summary line in traced mode
/// (`BENCHMARK.json` `per_layer`): the layers every workload exercises.
const PER_LAYER: [(&str, &str); 6] = [
    ("trace.self_s", "s"),
    ("trace.alloc_count", "count"),
    ("trace.alloc_mib", "MiB"),
    ("core.self_s", "s"),
    ("core.alloc_count", "count"),
    ("core.alloc_mib", "MiB"),
];

/// Unit of an end-to-end metric; the rest are workload throughputs.
fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.0 == metric)
        .map_or("1/s", |m| m.1)
}

/// Where results, span files and per-run scratch live (relative to the
/// working directory).
const WORK_DIR: &str = ".benchmark";

const USAGE: &str = "usage: benchmark [--workload figures|search|serve|outofcore] [--seed S] \
                     [--runs N] [--seconds T] [--trace 0|1] [--scale test|small] [--bless]";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    runs: Option<usize>,
    seconds: f64,
    trace: bool,
    scale: Scale,
    bless: bool,
    /// Internal: run one workload in this process and write the result
    /// to `result`.
    child: Option<ChildArgs>,
}

struct ChildArgs {
    input: PathBuf,
    dir: PathBuf,
    result: PathBuf,
}

/// The scales `--scale` accepts.
fn scale_name(scale: Scale) -> &'static str {
    if scale == Scale::Test {
        "test"
    } else {
        "small"
    }
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: edonkey_bench::SEED,
        runs: None,
        seconds: 0.0,
        trace: false,
        scale: Scale::Small,
        bless: false,
        child: None,
    };
    let (mut input, mut dir, mut result, mut child) = (None, None, None, false);
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--child" => {
                let w = value()?;
                let known = WORKLOADS.iter().find(|&&k| k == w);
                args.workloads = vec![*known.ok_or(format!("unknown workload {w:?}"))?];
                child |= flag == "--child";
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => {
                let n: usize = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if n == 0 {
                    return Err("--runs must be at least 1".into());
                }
                args.runs = Some(n);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=86_400.0).contains(&s) {
                    return Err("--seconds must be between 0 and 86400".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    other => return Err(format!("unknown scale {other:?} (test|small)")),
                }
            }
            "--bless" => args.bless = true,
            "--input" => input = Some(PathBuf::from(value()?)),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--result" => result = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if child {
        args.child = Some(ChildArgs {
            input: input.ok_or("--child needs --input")?,
            dir: dir.ok_or("--child needs --dir")?,
            result: result.ok_or("--child needs --result")?,
        });
    }
    if args.bless && args.seed != edonkey_bench::SEED {
        return Err(format!(
            "--bless pins the default seed {} only",
            edonkey_bench::SEED
        ));
    }
    Ok(args)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &args.child {
        Some(child) => run_child(&args, child),
        None => run_parent(&args),
    };
    std::process::exit(code);
}

/// Child side: one workload, one run, result written to a file.
fn run_child(args: &Args, child: &ChildArgs) -> i32 {
    let ctx = RunCtx {
        scale: args.scale,
        seed: args.seed,
        threads: threads(),
        input: child.input.clone(),
        dir: child.dir.clone(),
        trace: args.trace,
    };
    let outcome = workloads::run(args.workloads[0], &ctx);
    match std::fs::write(&child.result, encode_outcome(&outcome)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("benchmark: write {}: {e}", child.result.display());
            1
        }
    }
}

fn clean(text: &str) -> String {
    text.replace(['\t', '\n', '\r'], " ")
}

/// Line-oriented result file: `metric`, `counter`, `op` and `span`
/// records, tab-separated.
fn encode_outcome(o: &Outcome) -> String {
    let mut s = String::new();
    for (name, v) in &o.metrics {
        writeln!(s, "metric\t{name}\t{v}").expect("string write");
    }
    for (name, v) in &o.counters {
        writeln!(s, "counter\t{name}\t{v}").expect("string write");
    }
    for op in &o.ops {
        let error = op.error.as_deref().map(clean).unwrap_or_default();
        writeln!(s, "op\t{}\t{}\t{error}", op.name, op.digest).expect("string write");
    }
    for sp in &o.spans {
        let parent = sp.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            s,
            "span\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            sp.name, sp.layer, sp.start_ns, sp.end_ns, sp.alloc_count, sp.alloc_bytes, sp.rss_kb
        )
        .expect("string write");
    }
    s
}

fn decode_outcome(text: &str) -> Result<Outcome, String> {
    fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("bad number {s:?}"))
    }
    let mut o = Outcome::default();
    for line in text.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        match cols[..] {
            ["metric", name, v] => o.metrics.push((name.into(), num(v)?)),
            ["counter", name, v] => o.counters.push((name.into(), num(v)?)),
            ["op", name, digest, error] => o.ops.push(Op {
                name: name.into(),
                digest: digest.into(),
                error: (!error.is_empty()).then(|| error.to_string()),
            }),
            ["span", name, layer, parent, start, end, ac, ab, rss] => o.spans.push(Span {
                name: name.into(),
                layer: layer.into(),
                parent: if parent == "-" {
                    None
                } else {
                    Some(num(parent)?)
                },
                start_ns: num(start)?,
                end_ns: num(end)?,
                alloc_count: num(ac)?,
                alloc_bytes: num(ab)?,
                rss_kb: num(rss)?,
            }),
            _ => return Err(format!("bad result line {line:?}")),
        }
    }
    Ok(o)
}

/// Spawns one child run and waits for it.
fn spawn_run(
    args: &Args,
    workload: &str,
    input: &Path,
    run_dir: &Path,
    tag: &str,
    trace: bool,
) -> Result<Outcome, String> {
    let dir = run_dir.join(tag);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = run_dir.join(format!("{tag}.result"));
    let log = run_dir.join(format!("{tag}.log"));
    let stderr = std::fs::File::create(&log).map_err(|e| format!("create log: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload, "--seed", &args.seed.to_string()])
        .args(["--scale", scale_name(args.scale)])
        .arg("--input")
        .arg(input)
        .arg("--dir")
        .arg(&dir)
        .arg("--result")
        .arg(&result)
        .env("EDONKEY_DATA_DIR", &dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr);
    if trace {
        cmd.args(["--trace", "1"]);
    }
    let status = cmd.status().map_err(|e| format!("spawn child: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = if status.success() {
        std::fs::read_to_string(&result)
            .map_err(|e| format!("read result: {e}"))
            .and_then(|text| decode_outcome(&text))
    } else {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        let tail: Vec<&str> = text.lines().rev().take(8).collect();
        let tail: Vec<&str> = tail.into_iter().rev().collect();
        Err(format!("child exited with {status}:\n{}", tail.join("\n")))
    };
    let _ = std::fs::remove_file(&result);
    if outcome.is_ok() {
        let _ = std::fs::remove_file(&log);
    }
    outcome
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method):
/// `(q1, median, q3)`.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n < 2 {
        return (median, median, median);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median, q(3))
}

/// One workload's collected runs.
#[derive(Default)]
struct Collected {
    runs: Vec<Outcome>,
    traced: Option<Outcome>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// Operation → digest of the first run (the cross-run reference).
    digests: BTreeMap<String, String>,
}

impl Collected {
    fn absorb(&mut self, workload: &str, tag: &str, result: Result<Outcome, String>) {
        match result {
            Ok(o) => {
                self.attempted += o.ops.len();
                for op in &o.ops {
                    let problem = if let Some(e) = &op.error {
                        Some(e.clone())
                    } else {
                        match self.digests.get(&op.name) {
                            Some(d) if *d != op.digest => {
                                Some(format!("digest {} differs from first run {d}", op.digest))
                            }
                            Some(_) => None,
                            None => {
                                self.digests.insert(op.name.clone(), op.digest.clone());
                                None
                            }
                        }
                    };
                    if let Some(p) = problem {
                        self.failed += 1;
                        self.failures
                            .push(format!("{workload} {tag} {}: {p}", op.name));
                    }
                }
                if tag == "traced" {
                    if let Err(e) = spans::check_nesting(&o.spans) {
                        self.failures
                            .push(format!("{workload} traced: span tree: {e}"));
                        self.failed += 1;
                    }
                    self.traced = Some(o);
                } else {
                    self.runs.push(o);
                }
            }
            Err(e) => {
                let n = workloads::op_count(workload);
                self.attempted += n;
                self.failed += n;
                self.failures.push(format!("{workload} {tag}: {e}"));
            }
        }
    }

    /// Checks the reference digests against the pinned manifest.
    fn check_pins(&mut self, workload: &str, pins: &[&Pin]) {
        for (op, d) in &self.digests {
            match pins.iter().find(|p| p.2 == *op) {
                Some(p) if p.3 == *d => {}
                Some(p) => {
                    // Every run agreed with the reference, so every run
                    // mismatches the pin.
                    let n = self.runs.len() + usize::from(self.traced.is_some());
                    self.failed += n;
                    self.failures.push(format!(
                        "{workload} {op}: digest {d} != pinned {} ({n} runs)",
                        p.3
                    ));
                }
                None => {
                    self.failed += 1;
                    self.failures
                        .push(format!("{workload} {op}: no pinned digest"));
                }
            }
        }
    }

    fn metric_values(&self, name: &str) -> Vec<f64> {
        self.runs.iter().filter_map(|o| o.metric(name)).collect()
    }

    fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for o in &self.runs {
            for (n, _) in &o.metrics {
                if !names.contains(n) {
                    names.push(n.clone());
                }
            }
        }
        names
    }
}

/// Per-layer metrics of a traced run: every span name's total seconds,
/// allocations and closing RSS, each layer's self time and self
/// allocations, and the workload's own counters.
fn layer_metrics(o: &Outcome) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut by_name: Vec<(&str, f64, u64, u64)> = Vec::new();
    for s in o.spans.iter().filter(|s| s.parent.is_some()) {
        match by_name.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += s.secs();
                e.2 += s.alloc_count;
                e.3 = e.3.max(s.rss_kb);
            }
            None => by_name.push((&s.name, s.secs(), s.alloc_count, s.rss_kb)),
        }
    }
    for (name, secs, allocs, rss) in by_name {
        out.push((format!("{name}_s"), secs));
        out.push((format!("{name}_allocs"), allocs as f64));
        out.push((format!("{name}_rss_mib"), rss as f64 / 1024.0));
    }
    for (layer, self_s, count, bytes) in layer_totals(&o.spans) {
        out.push((format!("{layer}.self_s"), self_s));
        out.push((format!("{layer}.alloc_count"), count as f64));
        out.push((
            format!("{layer}.alloc_mib"),
            bytes as f64 / (1024.0 * 1024.0),
        ));
    }
    out.extend(o.counters.iter().cloned());
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (`null` otherwise).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"key": value, ...}` from already-encoded values.
fn json_obj<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The parent's generated input trace.
struct Input {
    /// The seed that generated the trace (see `workloads::input_trace`).
    seed: u64,
    /// MD4 of the saved file.
    digest: String,
    /// Wall seconds of the untimed input step.
    generate_s: f64,
}

fn run_parent(args: &Args) -> i32 {
    let threads = threads();
    let work = PathBuf::from(WORK_DIR);
    let run_dir = work.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("benchmark: create {}: {e}", run_dir.display());
        return 2;
    }
    let code = measure(args, threads, &work, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    code
}

fn measure(args: &Args, threads: usize, work: &Path, run_dir: &Path) -> i32 {
    let scale = scale_name(args.scale);
    // The untimed input step: the program under test starts from this
    // file.
    let input_path = run_dir.join("input.etrc");
    let mut input = None;
    if args.workloads.iter().any(|w| workloads::needs_input(w)) {
        let start = Instant::now();
        let (full, seed) = workloads::input_trace(args.scale, args.seed);
        if let Err(e) = edonkey_trace::io::save_bin(&full, &input_path) {
            eprintln!("benchmark: save input: {e}");
            return 2;
        }
        drop(full);
        let generated = Input {
            seed,
            digest: std::fs::read(&input_path).map_or("-".into(), |b| Md4::digest(&b).to_hex()),
            generate_s: start.elapsed().as_secs_f64(),
        };
        eprintln!(
            "[benchmark] input: {scale} scale, seed {} (trace seed {seed}), {:.2} s, md4 {}",
            args.seed, generated.generate_s, generated.digest
        );
        input = Some(generated);
    }

    let min_rounds = args.runs.unwrap_or(if args.seconds > 0.0 { 3 } else { 5 });
    let mut collected: BTreeMap<&str, Collected> = BTreeMap::new();
    let start = Instant::now();
    let mut round = 0;
    // After the minimum, a round starts only if one as long as the last
    // still ends within `--seconds`.
    let mut last_round_s = 0.0;
    while round < min_rounds || start.elapsed().as_secs_f64() + last_round_s <= args.seconds {
        round += 1;
        let round_start = Instant::now();
        for &w in &args.workloads {
            let tag = format!("{w}-{round}");
            let result = spawn_run(args, w, &input_path, run_dir, &tag, false);
            if let Ok(o) = &result {
                let total = o.metric("total_s").unwrap_or(0.0);
                eprintln!("[benchmark] {w} run {round}: total {total:.3} s");
            }
            collected.entry(w).or_default().absorb(w, &tag, result);
        }
        last_round_s = round_start.elapsed().as_secs_f64();
    }
    if args.trace {
        for &w in &args.workloads {
            let result = spawn_run(args, w, &input_path, run_dir, &format!("{w}-traced"), true);
            collected.entry(w).or_default().absorb(w, "traced", result);
        }
    }

    if args.bless {
        return bless(args, &collected);
    }
    // Pinned digests: at the default seed, every operation must match
    // the manifest compiled into this binary.
    let manifest = match digest::parse_manifest(digest::EXPECTED) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: expected.tsv: {e}");
            return 2;
        }
    };
    if args.seed == edonkey_bench::SEED {
        for (w, c) in collected.iter_mut() {
            let pins: Vec<&Pin> = manifest
                .iter()
                .filter(|p| p.0 == scale && p.1 == *w)
                .collect();
            if pins.is_empty() {
                eprintln!(
                    "[benchmark] {w}: no pinned digests at {scale} scale; checked runs agree"
                );
            } else {
                c.check_pins(w, &pins);
            }
        }
    }

    report(args, threads, work, &collected, input.as_ref())
}

/// Replaces this scale's pins for the measured workloads in the
/// manifest on disk (the compiled-in copy may predate an earlier
/// bless), keeping every other pin.
fn bless(args: &Args, collected: &BTreeMap<&str, Collected>) -> i32 {
    let scale = scale_name(args.scale);
    let mut failed = false;
    for (w, c) in collected {
        for f in &c.failures {
            eprintln!("[benchmark] FAIL {f}");
        }
        failed |= c.failed > 0 || c.digests.len() != workloads::op_count(w);
    }
    if failed {
        eprintln!("benchmark: not blessing: operations failed or runs disagreed");
        return 1;
    }
    let path = digest::manifest_path();
    let on_disk = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| digest::parse_manifest(&text));
    let manifest = match on_disk {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", path.display());
            return 2;
        }
    };
    let mut pins: Vec<Pin> = manifest
        .into_iter()
        .filter(|p| !(p.0 == scale && collected.contains_key(p.1.as_str())))
        .collect();
    for (w, c) in collected {
        for (op, d) in &c.digests {
            pins.push((scale.into(), w.to_string(), op.clone(), d.clone()));
        }
    }
    match std::fs::write(&path, digest::render_manifest(&mut pins, args.seed)) {
        Ok(()) => {
            eprintln!(
                "[benchmark] blessed {} digests into {}",
                pins.len(),
                path.display()
            );
            0
        }
        Err(e) => {
            eprintln!("benchmark: write {}: {e}", path.display());
            1
        }
    }
}

fn report(
    args: &Args,
    threads: usize,
    work: &Path,
    collected: &BTreeMap<&str, Collected>,
    input: Option<&Input>,
) -> i32 {
    let scale = scale_name(args.scale);
    let rev = git_rev();
    println!(
        "# benchmark: scale {scale}, seed {}, nproc {threads}, threads {threads}, rev {rev}",
        args.seed
    );
    println!(
        "{:<10} {:<22} {:>5} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "median", "q1", "q3", "n"
    );
    let (mut attempted, mut failed) = (0usize, 0usize);
    // Summary-line metrics: one workload's under their own names,
    // several workloads' under `<workload>.<metric>`.
    let single = collected.len() == 1;
    let mut summary: Vec<(String, String)> = Vec::new();
    let mut summarize = |w: &str, name: &str, value: f64, unit: &str| {
        let key = if single {
            name.to_string()
        } else {
            format!("{w}.{name}")
        };
        let entry = json_obj([("value", json_num(value)), ("unit", json_str(unit))]);
        summary.push((key, entry));
    };
    let mut per_workload: Vec<(String, String)> = Vec::new();
    for (w, c) in collected {
        attempted += c.attempted;
        failed += c.failed;
        let failed_frac = c.failed as f64 / c.attempted.max(1) as f64;
        let mut metrics: Vec<(String, String)> = Vec::new();
        for name in c.metric_names() {
            let values = c.metric_values(&name);
            let (q1, median, q3) = quartiles(&values);
            let unit = unit_of(&name);
            println!(
                "{w:<10} {name:<22} {unit:>5} {median:>14.4} {q1:>14.4} {q3:>14.4} {:>3}",
                values.len()
            );
            if END_TO_END.iter().any(|m| m.0 == name) && !args.trace {
                summarize(w, &name, median, unit);
            }
            let list: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
            let stats = json_obj([
                ("unit", json_str(unit)),
                ("median", json_num(median)),
                ("q1", json_num(q1)),
                ("q3", json_num(q3)),
                ("n", values.len().to_string()),
                ("values", format!("[{}]", list.join(", "))),
            ]);
            metrics.push((name, stats));
        }
        println!(
            "{w:<10} {:<22} {:>5} {failed_frac:>14.4} {:>14} {:>14} {:>3}",
            "failed_frac", "1", "-", "-", c.attempted
        );
        if let Some(traced) = &c.traced {
            let untraced = quartiles(&c.metric_values("total_s")).1;
            let generate_s = input
                .filter(|_| workloads::needs_input(w))
                .map(|i| i.generate_s);
            let layers = spans_report(args, w, traced, untraced, work, generate_s);
            for (name, unit) in PER_LAYER {
                let v = layers.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                summarize(w, name, v, unit);
            }
        }
        for f in &c.failures {
            eprintln!("[benchmark] FAIL {f}");
        }
        let failures: Vec<String> = c.failures.iter().map(|f| json_str(f)).collect();
        let entry = json_obj([
            ("runs", c.runs.len().to_string()),
            ("attempted", c.attempted.to_string()),
            ("failed", c.failed.to_string()),
            ("failed_frac", json_num(failed_frac)),
            ("metrics", json_obj(metrics)),
            (
                "digests",
                json_obj(c.digests.iter().map(|(op, d)| (op, json_str(d)))),
            ),
            ("failures", format!("[{}]", failures.join(", "))),
        ]);
        per_workload.push((w.to_string(), entry));
    }
    let results = json_obj([
        ("seed", args.seed.to_string()),
        ("scale", json_str(scale)),
        ("nproc", threads.to_string()),
        ("threads", threads.to_string()),
        ("git_rev", json_str(&rev)),
        (
            "input_seed",
            input.map_or("null".into(), |i| i.seed.to_string()),
        ),
        (
            "input_digest",
            input.map_or("null".into(), |i| json_str(&i.digest)),
        ),
        (
            "input_generate_s",
            input.map_or("null".into(), |i| json_num(i.generate_s)),
        ),
        ("workloads", json_obj(per_workload)),
    ]);
    let results_path = work.join("results.json");
    if let Err(e) = std::fs::write(&results_path, results + "\n") {
        eprintln!("benchmark: write {}: {e}", results_path.display());
    }
    println!(
        "{}",
        json_obj([
            ("correct", (failed == 0).to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", json_obj(summary)),
        ])
    );
    i32::from(failed > 0)
}

/// Prints a traced run's per-layer self time and tracing overhead,
/// writes `spans_<workload>.json`, and returns the run's per-layer
/// metrics.
fn spans_report(
    args: &Args,
    workload: &str,
    traced: &Outcome,
    untraced_total: f64,
    work: &Path,
    input_generate_s: Option<f64>,
) -> Vec<(String, f64)> {
    let traced_total = traced.metric("total_s").unwrap_or(0.0);
    let overhead = traced_total - untraced_total;
    println!("# {workload} traced run: per-layer self time");
    for (layer, self_s, count, bytes) in layer_totals(&traced.spans) {
        println!(
            "{workload:<10} {layer:<10} self {self_s:>9.4} s  allocs {count:>10}  {:>10.1} MiB",
            bytes as f64 / (1024.0 * 1024.0)
        );
    }
    println!(
        "# {workload} tracing overhead: {overhead:+.4} s (traced total {traced_total:.4} s - \
         untraced median {untraced_total:.4} s)"
    );
    let mut metrics = layer_metrics(traced);
    if let Some(s) = input_generate_s {
        metrics.push(("workload.input_generate_s".into(), s));
    }
    let spans = traced.spans.iter().map(|s| {
        json_obj([
            ("name", json_str(&s.name)),
            ("layer", json_str(&s.layer)),
            ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
            ("start_ns", s.start_ns.to_string()),
            ("end_ns", s.end_ns.to_string()),
            ("alloc_count", s.alloc_count.to_string()),
            ("alloc_bytes", s.alloc_bytes.to_string()),
            ("rss_kb", s.rss_kb.to_string()),
        ])
    });
    let json = json_obj([
        ("workload", json_str(workload)),
        ("seed", args.seed.to_string()),
        ("scale", json_str(scale_name(args.scale))),
        ("traced_total_s", json_num(traced_total)),
        ("untraced_median_total_s", json_num(untraced_total)),
        ("overhead_s", json_num(overhead)),
        (
            "metrics",
            json_obj(metrics.iter().map(|(n, v)| (n, json_num(*v)))),
        ),
        (
            "spans",
            format!("[{}]", spans.collect::<Vec<_>>().join(",\n")),
        ),
    ]);
    let path = work.join(format!("spans_{workload}.json"));
    if let Err(e) = std::fs::write(&path, json + "\n") {
        eprintln!("benchmark: write {}: {e}", path.display());
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn result_files_round_trip() {
        let o = Outcome {
            ops: vec![Op {
                name: "a/b".into(),
                digest: "00ff".into(),
                error: Some("tab\there".into()),
            }],
            metrics: vec![("total_s".into(), 0.1 + 0.2)],
            counters: vec![("core.x".into(), 3.0)],
            spans: vec![Span {
                name: "core.s".into(),
                layer: "core".into(),
                parent: None,
                start_ns: 1,
                end_ns: 2,
                alloc_count: 3,
                alloc_bytes: 4,
                rss_kb: 5,
            }],
        };
        let back = decode_outcome(&encode_outcome(&o)).expect("decodes");
        assert_eq!(back.metrics, o.metrics);
        assert_eq!(back.counters, o.counters);
        assert_eq!(back.spans, o.spans);
        assert_eq!(back.ops[0].error.as_deref(), Some("tab here"));
    }

    /// The `name`s listed in one array of `BENCHMARK.json`.
    fn benchmark_json_names(section: &str) -> Vec<String> {
        let json = include_str!("../../../../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn summary_metric_lists_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(benchmark_json_names("end_to_end"), e2e);
        assert_eq!(benchmark_json_names("per_layer"), layers);
        let names = benchmark_json_names("workloads");
        assert_eq!(names, WORKLOADS);
    }

    /// All four workloads at test scale, twice, in this process: equal
    /// digests (and equal to the pinned test-scale manifest), a
    /// well-nested span tree, every `BENCHMARK.json` per-layer metric
    /// present in every traced run, and overloaded serve cells that
    /// differ from the ρ = 0.9 ones.
    #[test]
    fn smoke_all_workloads_twice_at_test_scale() {
        let dir = std::env::temp_dir().join(format!("edonkey-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        // Figures write their TSVs where the harness says; the figure
        // operations read them back from the run directory.
        std::env::set_var("EDONKEY_DATA_DIR", &dir);
        let input = dir.join("input.etrc");
        let (full, _) = workloads::input_trace(Scale::Test, edonkey_bench::SEED);
        edonkey_trace::io::save_bin(&full, &input).expect("save input");
        let ctx = RunCtx {
            scale: Scale::Test,
            seed: edonkey_bench::SEED,
            threads: threads(),
            input,
            dir: dir.clone(),
            trace: true,
        };
        let per_layer = benchmark_json_names("per_layer");
        let pins = digest::parse_manifest(digest::EXPECTED).expect("manifest parses");
        let mut digests: Vec<Vec<Op>> = Vec::new();
        for _ in 0..2 {
            for w in WORKLOADS {
                let o = workloads::run(w, &ctx);
                assert_eq!(o.ops.len(), workloads::op_count(w), "{w}");
                for op in &o.ops {
                    assert_eq!(op.error, None, "{w} {}", op.name);
                }
                spans::check_nesting(&o.spans).expect("well-nested spans");
                let metrics = layer_metrics(&o);
                for name in &per_layer {
                    assert!(
                        metrics.iter().any(|m| m.0 == *name && m.1 > 0.0),
                        "{w}: per-layer metric {name} missing"
                    );
                }
                for op in &o.ops {
                    if let Some(pin) = pins
                        .iter()
                        .find(|p| p.0 == "test" && p.1 == w && p.2 == op.name)
                    {
                        assert_eq!(op.digest, pin.3, "{w} {} vs expected.tsv", op.name);
                    }
                }
                if w == "serve" {
                    let digest = |name: &str| {
                        let op = o.ops.iter().find(|op| op.name == name);
                        op.map(|op| op.digest.clone()).expect("serve cell present")
                    };
                    for op in o.ops.iter().filter(|op| op.name.ends_with("/rho1.5")) {
                        let rho09 = op.name.replace("/rho1.5", "/rho0.9");
                        assert_ne!(op.digest, digest(&rho09), "{} sheds nothing", op.name);
                    }
                }
                digests.push(o.ops);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let (first, second) = digests.split_at(WORKLOADS.len());
        assert_eq!(first, second, "a second run must reproduce every digest");
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--runs", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bless", "--seed", "1"]).is_err());
        assert!(parse(&["--scale", "repro"]).is_err());
        assert!(parse(&["--spans"]).is_err());
        let a = parse(&["--workload", "serve", "--trace", "1", "--seconds", "10"]).expect("ok");
        assert_eq!(a.workloads, ["serve"]);
        assert!(a.trace && a.seconds == 10.0);
    }
}

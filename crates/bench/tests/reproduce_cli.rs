//! `reproduce`'s command line: bad flags and unreadable trace files exit
//! with status 2 and a message instead of a panic, and `--trace` reaches
//! every entry that reads the workload, ablations included.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use edonkey_bench::{Scale, SEED};
use edonkey_workload::generate_trace;

/// A private data directory for one test.
fn data_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "edonkey-reproduce-cli-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn reproduce(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .env("EDONKEY_DATA_DIR", dir)
        .env_remove("EDONKEY_SCALE")
        .env_remove("EDONKEY_TRACE")
        .output()
        .expect("spawn reproduce")
}

/// Asserts a clean usage error: exit status 2, a message naming
/// `needle`, no panic and no output written.
fn assert_usage_error(args: &[&str], needle: &str) {
    let dir = data_dir("usage");
    let out = reproduce(args, &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(!dir.exists(), "{args:?} wrote outputs");
}

#[test]
fn unknown_scale_exits_2_without_panicking() {
    assert_usage_error(
        &["--scale", "huge"],
        "unknown scale \"huge\" (test|small|repro|paper)",
    );
}

#[test]
fn unknown_only_entry_exits_2_listing_the_valid_names() {
    assert_usage_error(
        &["--scale", "test", "--only", "fig01,fig99"],
        "unknown --only entry \"fig99\"; valid names: fig01, fig02,",
    );
}

#[test]
fn malformed_trace_file_exits_2_without_panicking() {
    let path =
        std::env::temp_dir().join(format!("edonkey-reproduce-cli-{}.bad", std::process::id()));
    std::fs::write(&path, "not a trace").expect("write bad trace");
    let path_str = path.to_str().expect("utf-8 path");
    assert_usage_error(
        &["--scale", "test", "--trace", path_str, "--only", "fig01"],
        &format!("cannot load trace {path_str}: json error"),
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_file_reaches_the_ablations() {
    let trace_path =
        std::env::temp_dir().join(format!("edonkey-reproduce-cli-{}.etrc", std::process::id()));
    let (_, other) = generate_trace(Scale::Test.config(SEED + 1));
    edonkey_trace::io::save_bin(&other, &trace_path).expect("save trace");
    let run = |name: &str, extra: &[&str]| -> Vec<u8> {
        let dir = data_dir(name);
        let mut args = vec!["--scale", "test", "--only", "ablation_policies"];
        args.extend_from_slice(extra);
        let out = reproduce(&args, &dir);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let tsv = std::fs::read(dir.join("ablation_policies.tsv")).expect("ablation output");
        let written = std::fs::read_dir(&dir).expect("data dir").count();
        assert_eq!(written, 1, "--only wrote other entries");
        let _ = std::fs::remove_dir_all(&dir);
        tsv
    };
    let default = run("default", &[]);
    let from_file = run(
        "trace",
        &["--trace", trace_path.to_str().expect("utf-8 path")],
    );
    let _ = std::fs::remove_file(&trace_path);
    assert_ne!(
        default, from_file,
        "ablation_policies ignored --trace and replayed the default trace"
    );
}

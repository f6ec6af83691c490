//! Pins every TSV `reproduce --scale test` writes: each file's MD4
//! digest is compared with the checked-in manifest, so no refactor can
//! move a figure, table or ablation output silently.
//!
//! Regenerate with `EDONKEY_BLESS=1 cargo test -p edonkey-bench --test
//! reproduce_manifest` after an *intentional* change to an output.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use edonkey_proto::md4::Md4;

const MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/reproduce_manifest.tsv"
);

/// Runs `reproduce --scale test` into a private data directory.
fn run_reproduce(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let status = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--scale", "test"])
        .env("EDONKEY_DATA_DIR", dir)
        .env_remove("EDONKEY_SCALE")
        .env_remove("EDONKEY_TRACE")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn reproduce");
    assert!(status.success(), "reproduce --scale test failed: {status}");
}

/// `name → MD4 hex` for every TSV in `dir`, sorted by name.
fn digests(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .expect("read data dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "tsv"))
        .map(|path| {
            let name = path.file_stem().expect("file name").to_string_lossy();
            let bytes = std::fs::read(&path).expect("read tsv");
            (name.into_owned(), Md4::digest(&bytes).to_hex())
        })
        .collect()
}

fn render(digests: &BTreeMap<String, String>) -> String {
    let mut out = String::from(
        "# reproduce --scale test output manifest — bless with EDONKEY_BLESS=1\n\
         # tsv\tmd4\n",
    );
    for (name, hex) in digests {
        writeln!(out, "{name}\t{hex}").expect("string write");
    }
    out
}

fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .map(|line| {
            let (name, hex) = line.split_once('\t').expect("name<TAB>md4");
            (name.to_string(), hex.to_string())
        })
        .collect()
}

#[test]
fn reproduce_outputs_match_the_manifest() {
    let dir =
        std::env::temp_dir().join(format!("edonkey-reproduce-manifest-{}", std::process::id()));
    run_reproduce(&dir);
    let actual = digests(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    if std::env::var("EDONKEY_BLESS").is_ok() {
        std::fs::write(MANIFEST, render(&actual)).expect("bless manifest");
    }
    let expected = parse(&std::fs::read_to_string(MANIFEST).expect("read checked-in manifest"));
    let moved: BTreeSet<&String> = expected
        .keys()
        .chain(actual.keys())
        .filter(|name| expected.get(*name) != actual.get(*name))
        .collect();
    assert!(
        moved.is_empty(),
        "reproduce outputs moved (or appeared/vanished): {moved:?} — \
         if intentional, regenerate with EDONKEY_BLESS=1"
    );
}

//! Every figure reads the campaign store, on every topology: `dfly fig
//! fig9` (dragonfly cells) and `dfly fig ext_baselines` (one batch per
//! network, three of them baselines) run twice through one
//! `DFLY_CAMPAIGN_DIR` print the same tables both times, and the second
//! run is served entirely from the journal.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `DFLY_QUICK=1 dfly fig <id>` through the store at `dir`;
/// returns (stdout, stderr).
fn fig(id: &str, dir: &Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dfly"))
        .args(["fig", id])
        .env("DFLY_QUICK", "1")
        .env("DFLY_CAMPAIGN_DIR", dir)
        .env_remove("DFLY_PROGRESS")
        .output()
        .expect("dfly fig must spawn");
    assert!(out.status.success(), "dfly fig {id} failed");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (text(out.stdout), text(out.stderr))
}

/// The `campaign: H hits, M misses (dir)` lines of one run.
fn campaign_lines(stderr: &str) -> Vec<&str> {
    stderr
        .lines()
        .filter(|l| l.starts_with("campaign:"))
        .collect()
}

/// A fresh store directory for one test.
fn fresh_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfly-fig-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts every `campaign:` line of a warm run reports hits and no
/// miss; returns how many there are.
fn assert_all_hits(warm_err: &str) -> usize {
    let warm = campaign_lines(warm_err);
    assert!(!warm.is_empty(), "the warm run must report: {warm_err}");
    for line in &warm {
        assert!(
            line.contains(" 0 misses") && !line.starts_with("campaign: 0 hits"),
            "the warm run must be all hits: {line}"
        );
    }
    warm.len()
}

#[test]
fn fig9_rerun_is_served_from_the_store() {
    let dir = fresh_store("fig9");

    let (cold_out, cold_err) = fig("fig9", &dir);
    let cold = campaign_lines(&cold_err);
    assert!(
        cold.len() == 1 && cold[0].starts_with("campaign: 0 hits, 2 misses"),
        "the cold run must simulate both cells through the store: {cold_err}"
    );
    assert!(dir.join("journal.jsonl").is_file());

    let (warm_out, warm_err) = fig("fig9", &dir);
    assert_eq!(
        cold_out, warm_out,
        "a warm rerun must print the same figure"
    );
    assert_all_hits(&warm_err);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The baseline curves (flattened butterfly, Clos, torus) are cells of
/// the store too: one batch per network, each served warm.
#[test]
fn ext_baselines_rerun_is_served_from_the_store() {
    let dir = fresh_store("baselines");

    let (cold_out, cold_err) = fig("ext_baselines", &dir);
    let cold = campaign_lines(&cold_err);
    assert_eq!(cold.len(), 4, "one batch per network: {cold_err}");
    for line in cold {
        assert!(
            line.starts_with("campaign: 0 hits, 5 misses"),
            "the cold run must simulate every cell: {line}"
        );
    }

    let (warm_out, warm_err) = fig("ext_baselines", &dir);
    assert_eq!(
        cold_out, warm_out,
        "a warm rerun must print the same figure"
    );
    assert_eq!(assert_all_hits(&warm_err), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

//! End-to-end exercises of `dfly resume`'s recovery branches that the
//! CI crash/resume job does not reach: a campaign directory with no
//! journal at all, and a store holding a leftover `index.json` sidecar
//! from an older build. Both must complete with exit code 0 — the
//! journal is the only authority, and nothing reads or rewrites the
//! sidecar.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfly-resume-cli-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `dfly resume` against `dir` and returns (exit code, stdout).
fn run_resume(dir: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dfly"))
        .arg("resume")
        .env("DFLY_CAMPAIGN_DIR", dir)
        .env_remove("DFLY_CAMPAIGN_KILL")
        .output()
        .expect("dfly resume must spawn");
    (
        out.status.code().expect("dfly resume must exit"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn missing_journal_runs_the_whole_grid_fresh() {
    let dir = temp_dir("missing-journal");
    // The directory exists but holds no journal: the store must start
    // empty and simulate every cell, not fail the open.
    std::fs::create_dir_all(&dir).unwrap();
    let (code, stdout) = run_resume(&dir);
    assert_eq!(code, 0, "fresh store must succeed: {stdout}");
    assert_eq!(
        stdout.trim(),
        "{\"total\":8,\"hits\":0,\"misses\":8,\"identical\":true,\"entries\":8}"
    );
    assert!(dir.join("journal.jsonl").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leftover_index_sidecar_from_an_older_build_is_ignored() {
    let dir = temp_dir("leftover-index");
    let (code, stdout) = run_resume(&dir);
    assert_eq!(code, 0, "populating run must succeed: {stdout}");
    let index = dir.join("index.json");
    assert!(!index.exists(), "the store writes no index sidecar");

    // Older builds kept an index.json beside the journal; a stale or
    // garbled one must neither fail the rerun nor shadow the journal.
    std::fs::write(&index, b"{not json at all").unwrap();
    let (code, stdout) = run_resume(&dir);
    assert_eq!(code, 0, "a leftover index must be ignored: {stdout}");
    assert_eq!(
        stdout.trim(),
        "{\"total\":8,\"hits\":8,\"misses\":0,\"identical\":true,\"entries\":8}"
    );
    assert_eq!(std::fs::read(&index).unwrap(), b"{not json at all");
    let _ = std::fs::remove_dir_all(&dir);
}

//! Every figure reads the campaign store: `dfly fig fig9` run twice
//! through one `DFLY_CAMPAIGN_DIR` prints the same table both times,
//! and the second run is served entirely from the journal.

use std::path::Path;
use std::process::Command;

/// Runs `DFLY_QUICK=1 dfly fig fig9` through the store at `dir`;
/// returns (stdout, stderr).
fn fig9(dir: &Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dfly"))
        .args(["fig", "fig9"])
        .env("DFLY_QUICK", "1")
        .env("DFLY_CAMPAIGN_DIR", dir)
        .env_remove("DFLY_PROGRESS")
        .output()
        .expect("dfly fig must spawn");
    assert!(out.status.success(), "dfly fig fig9 failed");
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

#[test]
fn fig9_rerun_is_served_from_the_store() {
    let dir = std::env::temp_dir().join(format!("dfly-fig-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (cold_out, cold_err) = fig9(&dir);
    let cold = campaign_lines(&cold_err);
    assert!(
        cold.len() == 1 && cold[0].starts_with("campaign: 0 hits, 2 misses"),
        "the cold run must simulate both cells through the store: {cold_err}"
    );
    assert!(dir.join("journal.jsonl").is_file());

    let (warm_out, warm_err) = fig9(&dir);
    assert_eq!(
        cold_out, warm_out,
        "a warm rerun must print the same figure"
    );
    let warm = campaign_lines(&warm_err);
    assert!(!warm.is_empty(), "the warm run must report: {warm_err}");
    for line in warm {
        assert!(
            line.contains(" 0 misses") && !line.starts_with("campaign: 0 hits"),
            "the warm run must be all hits: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! `dfly sweep` byte for byte on a curve that crosses saturation: MIN
//! under worst-case traffic saturates at 1/(a*h) = 0.125 on the
//! 72-terminal network, so its 0.60 row did not drain.

use std::process::Command;

#[test]
fn saturated_rows_report_no_minimal_fraction() {
    let out = Command::new(env!("CARGO_BIN_EXE_dfly"))
        .args(["sweep", "-p", "2", "-a", "4", "-H", "2"])
        .args(["--routing", "min", "--traffic", "wc"])
        .args(["--loads", "0.05,0.6", "--cycles", "300"])
        .env_remove("DFLY_CAMPAIGN_DIR")
        .output()
        .expect("dfly sweep must spawn");
    assert!(out.status.success(), "dfly sweep failed");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // An undrained run's minimal fraction is unknown, not 0 %: the
    // column prints `-`, as the latency column prints `sat`.
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 output"),
        "| load | latency | accepted | minimal % |
|---|---|---|---|
| 0.05 | 4.8 | 0.049 | 100 |
| 0.60 | sat | 0.125 | - |
"
    );
}

//! `dfly simulate` byte for byte on a short fixed-seed run of the
//! 72-terminal network: every figure prints as a plain number.

use std::process::Command;

#[test]
fn simulate_prints_plain_numbers() {
    let out = Command::new(env!("CARGO_BIN_EXE_dfly"))
        .args(["simulate", "-p", "2", "-a", "4", "-H", "2"])
        .args(["--routing", "ugal-lvch", "--traffic", "wc"])
        .args(["--load", "0.2", "--cycles", "300", "--seed", "1"])
        .env_remove("DFLY_CAMPAIGN_DIR")
        .output()
        .expect("dfly simulate must spawn");
    assert!(out.status.success(), "dfly simulate failed");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The percentiles are the labelled-packet log histogram's
    // (`RunStats::latency_percentile`): bucket upper edges, clamped to
    // the exact min/max.
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 output"),
        "UGAL-L_VCH on WC traffic, N=72:
  offered load       0.200
  injected rate      0.199
  accepted rate      0.195
  drained            true
  latency avg        21.6
  latency p50/p95/p99  31 / 63 / 121
  latency min/max    4 / 121
  minimally routed   65.0%
"
    );
}

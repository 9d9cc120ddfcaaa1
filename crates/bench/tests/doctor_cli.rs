//! End-to-end exercises of the `doctor` binary over real campaign
//! stores: a healthy one, one holding work-complete cells that hit
//! their cycle cap, and a directory with no journal at all — plus the
//! usage error. The verdict line and the exit code are the product, so
//! that is what is pinned.

use std::path::{Path, PathBuf};
use std::process::Command;

use dfly_netsim::SimConfig;
use dragonfly::{
    CampaignStore, DragonflyParams, DragonflySim, JobSpec, RoutingChoice, RunGrid, TrafficChoice,
    WorkloadSweep,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfly-doctor-cli-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `doctor` with `args` and returns (exit code, stdout, stderr).
fn run_doctor(args: &[&Path]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_doctor"))
        .args(args)
        .env_remove("DFLY_CAMPAIGN_DIR")
        .output()
        .expect("doctor must spawn");
    (
        out.status.code().expect("doctor must exit"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn params() -> DragonflyParams {
    DragonflyParams::new(2, 4, 2).expect("valid params")
}

/// Journals the two placements of one 8-rank all-to-all whose hard
/// cycle cap is `cap` cycles.
fn fill_workload(store: &CampaignStore, cap: u64) {
    let mut cfg = SimConfig::paper_default(0.0);
    cfg.warmup = 0;
    cfg.measure = cap;
    cfg.drain_cap = 0;
    WorkloadSweep::new(
        params(),
        RoutingChoice::Min,
        vec![JobSpec::all_to_all("alpha", 8)],
        &cfg,
        &[0.0],
    )
    .execute_cached(store)
    .expect("workload leg must run");
}

#[test]
fn healthy_store_gets_a_clean_verdict() {
    let dir = temp_dir("clean");
    let store = CampaignStore::open(&dir).expect("store opens");
    let sim = DragonflySim::new(params());
    let mut cfg = sim.config(0.1);
    cfg.warmup = 200;
    cfg.measure = 600;
    cfg.drain_cap = 20_000;
    RunGrid::cross(
        &[RoutingChoice::Min, RoutingChoice::UgalL],
        &[TrafficChoice::Uniform],
        &[0.1, 0.3],
        &cfg,
    )
    .execute_cached(&sim, &store)
    .expect("grid leg must run");
    fill_workload(&store, 20_000);
    drop(store);

    let (code, stdout, _) = run_doctor(&[&dir]);
    assert_eq!(code, 0, "{stdout}");
    for row in [
        "| campaign journal | OK | 6/6 entries decoded, 0 from superseded formats",
        "| workload completion | OK | 2/2 work-complete cells finished |",
        "| saturated cells | INFO | 0 undrained sweep cells",
        "| warmup convergence | OK | 6/6 cells converged |",
        "doctor: verdict CLEAN (0 FAIL, 0 WARN)",
    ] {
        assert!(stdout.contains(row), "missing `{row}` in:\n{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cell_that_hit_its_cycle_cap_fails_the_verdict() {
    let dir = temp_dir("wedged");
    let store = CampaignStore::open(&dir).expect("store opens");
    // Three cycles are fewer than one packet's trip across the network.
    fill_workload(&store, 3);
    drop(store);

    let (code, stdout, _) = run_doctor(&[&dir]);
    assert_eq!(code, 2, "{stdout}");
    assert!(
        stdout.contains(
            "| workload completion | FAIL | 2/2 work-complete cells hit their cycle cap |"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains("doctor: verdict UNHEALTHY (1 FAIL"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_journal_is_reported_not_invented() {
    let dir = temp_dir("no-journal");
    std::fs::create_dir_all(&dir).unwrap();
    let (code, stdout, _) = run_doctor(&[&dir]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("| campaign journal | INFO | no journal at"),
        "{stdout}"
    );
    assert!(stdout.contains("doctor: verdict CLEAN"), "{stdout}");
    assert!(
        !dir.join("journal.jsonl").exists(),
        "doctor wrote a journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_extra_argument_is_a_usage_error() {
    let dir = temp_dir("usage");
    let (code, stdout, stderr) = run_doctor(&[&dir, Path::new("extra.json")]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty(), "no verdict on a usage error: {stdout}");
    assert!(stderr.contains("usage: doctor [CAMPAIGN_DIR]"), "{stderr}");
}

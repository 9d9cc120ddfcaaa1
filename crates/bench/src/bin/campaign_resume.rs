//! Campaign crash/resume harness for CI: runs a small fixed grid
//! through the campaign store, optionally killing itself mid-campaign
//! after a configured number of cache misses (leaving a torn partial
//! line at the journal tail), so a follow-up invocation can prove that
//! the rerun simulates only the missing cells and still matches a
//! fresh serial sweep byte for byte.
//!
//! Knobs:
//! * `DFLY_CAMPAIGN_DIR` — store directory (default
//!   `target/campaign_resume`);
//! * `DFLY_CAMPAIGN_KILL=K` — abort with exit code 3 after `K` cache
//!   misses have been journaled, appending a torn partial entry first.
//!
//! Without the kill knob it completes the grid, compares the cached
//! results against a fresh serial sweep, and prints a one-line JSON
//! summary: `{"total":…,"hits":…,"misses":…,"identical":…,"entries":…}`.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use dragonfly::{CampaignStore, DragonflySim, RoutingChoice, RunGrid, TrafficChoice};

fn main() {
    let dir =
        std::env::var("DFLY_CAMPAIGN_DIR").unwrap_or_else(|_| "target/campaign_resume".to_string());
    let kill_after: Option<usize> = std::env::var("DFLY_CAMPAIGN_KILL")
        .ok()
        .and_then(|v| v.parse().ok());

    // A fixed 2x2x2 grid on the 72-terminal network: small enough for
    // CI, large enough that a mid-grid kill leaves real work behind.
    let sim = DragonflySim::new(dragonfly::DragonflyParams::new(2, 4, 2).expect("valid params"));
    let mut cfg = sim.config(0.1);
    cfg.seed = 1;
    cfg.warmup = 200;
    cfg.measure = 600;
    cfg.drain_cap = 20_000;
    let grid = RunGrid::cross(
        &[RoutingChoice::Min, RoutingChoice::UgalLVcH],
        &[TrafficChoice::Uniform, TrafficChoice::WorstCase],
        &[0.1, 0.3],
        &cfg,
    );

    let store = CampaignStore::open(&dir).expect("campaign store must open");
    eprintln!(
        "campaign_resume: {} runs, store at {} ({} entries)",
        grid.len(),
        store.dir().display(),
        store.len()
    );

    if let Some(kill_after) = kill_after {
        // Streaming kill leg: single-threaded so the journal grows in
        // plan order, abort once `kill_after` misses have streamed to
        // disk. The torn partial line appended below simulates a crash
        // mid-write; recovery must truncate it, not reject the journal.
        let misses = AtomicUsize::new(0);
        let journal = store.dir().join("journal.jsonl");
        grid.execute_cached_streaming_on(&sim, &store, 1, &|i, _stats, hit| {
            if hit {
                return;
            }
            let done = misses.fetch_add(1, Ordering::SeqCst) + 1;
            eprintln!("campaign_resume: miss {done} (plan {i}) journaled");
            if done >= kill_after {
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&journal)
                    .expect("journal exists");
                f.write_all(b"{\"kind\":\"run\",\"key\":\"dead")
                    .expect("append torn tail");
                f.flush().expect("flush torn tail");
                eprintln!("campaign_resume: killed after {done} misses (torn tail appended)");
                std::process::exit(3);
            }
        })
        .expect("campaign kill leg must run");
        // Fewer cells than the kill threshold: fall through and report.
        eprintln!("campaign_resume: grid finished before reaching the kill threshold");
    }

    let (cached, report) = grid
        .execute_cached(&sim, &store)
        .expect("campaign grid must run");
    let fresh = grid.execute_on(&sim, 1);
    let identical = cached == fresh;
    assert!(identical, "cached grid diverged from fresh serial grid");
    println!(
        "{{\"total\":{},\"hits\":{},\"misses\":{},\"identical\":{},\"entries\":{}}}",
        grid.len(),
        report.hits,
        report.misses,
        identical,
        store.len()
    );
}

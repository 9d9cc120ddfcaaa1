//! Integration tests for the campaign result store: cached results
//! are byte-identical to fresh simulation at every shard count,
//! journal recovery survives torn tails, and a stale code revision or
//! a forged hash collision forces re-simulation — never a wrong hit.

use std::path::PathBuf;

use dfly_netsim::TelemetryConfig;
use dragonfly::{
    CampaignKey, CampaignStore, DragonflyParams, DragonflySim, FaultSweep, JobSpec, RoutingChoice,
    RunGrid, TrafficChoice, WorkloadSweep,
};

/// A fresh per-test store directory under the system temp dir.
fn temp_store_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfly-campaign-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_sim() -> DragonflySim {
    DragonflySim::new(DragonflyParams::new(2, 4, 2).expect("valid params"))
}

fn small_grid(sim: &DragonflySim, shards: usize) -> RunGrid {
    let mut cfg = sim.config(0.1);
    cfg.seed = 1;
    cfg.warmup = 100;
    cfg.measure = 400;
    cfg.drain_cap = 20_000;
    cfg.shards = shards;
    RunGrid::cross(
        &[RoutingChoice::Min, RoutingChoice::UgalLVcH],
        &[TrafficChoice::Uniform],
        &[0.1, 0.3],
        &cfg,
    )
}

#[test]
fn cached_matches_fresh_at_every_shard_count() {
    let dir = temp_store_dir("shards");
    let sim = small_sim();
    for shards in [1usize, 2, 4] {
        let grid = small_grid(&sim, shards);
        let fresh = grid.execute_on(&sim, 1);
        let store = CampaignStore::open(&dir).expect("store opens");

        let (missed, report) = grid.execute_cached(&sim, &store).expect("miss pass runs");
        assert_eq!(
            report.misses,
            grid.len(),
            "shards={shards}: first pass misses all"
        );
        assert_eq!(report.hits, 0);
        assert_eq!(missed, fresh, "shards={shards}: miss pass diverged");

        let (hit, report) = grid.execute_cached(&sim, &store).expect("hit pass runs");
        assert_eq!(
            report.hits,
            grid.len(),
            "shards={shards}: second pass hits all"
        );
        assert_eq!(report.misses, 0);
        assert_eq!(hit, fresh, "shards={shards}: hit pass diverged");
        // Struct equality implies it, but the exported debug form is
        // what downstream artifacts print — compare the bytes too.
        assert_eq!(format!("{hit:?}"), format!("{fresh:?}"));
    }
    // Different shard counts are different configs, hence distinct keys.
    let store = CampaignStore::open(&dir).expect("store reopens");
    assert_eq!(store.len(), 3 * small_grid(&sim, 1).len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_inserts_keep_every_entry_and_the_index_count() {
    // 8 writers on one store: every insert journals, and the
    // in-memory index — and a reopen's scan of the journal — ends on
    // the full count.
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50;
    let dir = temp_store_dir("concurrent");
    let sim = small_sim();
    let plan = small_grid(&sim, 1).plans()[0].clone();
    let stats = sim.run(plan.routing, plan.traffic, plan.cfg.clone());
    let store = CampaignStore::open(&dir).expect("store opens");
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (store, sim, stats, start) = (&store, &sim, &stats, &start);
            let mut plan = plan.clone();
            scope.spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    plan.cfg.seed = t * PER_THREAD + i;
                    let key = store.run_key(sim, &plan);
                    store.insert_run(&key, stats).expect("insert succeeds");
                }
            });
        }
    });
    let total = (THREADS * PER_THREAD) as usize;
    assert_eq!(store.len(), total);
    drop(store);
    let store = CampaignStore::open(&dir).expect("store reopens");
    assert_eq!(store.len(), total);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_recovers_and_refills() {
    let dir = temp_store_dir("torn");
    let sim = small_sim();
    let grid = small_grid(&sim, 1);
    let fresh = grid.execute_on(&sim, 1);
    let journal = dir.join("journal.jsonl");

    {
        let store = CampaignStore::open(&dir).expect("store opens");
        let (_, report) = grid.execute_cached(&sim, &store).expect("populate");
        assert_eq!(report.misses, grid.len());
    }

    // Crash shape 1: a partial line without its newline. Recovery must
    // truncate it and keep every complete entry.
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    let complete_len = bytes.len();
    bytes.extend_from_slice(b"{\"kind\":\"run\",\"key\":\"00dead");
    std::fs::write(&journal, &bytes).expect("append torn tail");
    let store = CampaignStore::open(&dir).expect("store recovers");
    assert_eq!(store.len(), grid.len(), "torn tail lost complete entries");
    let (points, report) = grid.execute_cached(&sim, &store).expect("hit pass");
    assert_eq!(report.hits, grid.len());
    assert_eq!(points, fresh);
    assert_eq!(
        std::fs::read(&journal).expect("journal readable").len(),
        complete_len,
        "recovery did not truncate the torn tail"
    );
    drop(store);

    // Crash shape 2: the tail entry itself is cut mid-body. The cells
    // it held must re-simulate; everything else still hits.
    let bytes = std::fs::read(&journal).expect("journal exists");
    let cut = bytes.len() - 7;
    std::fs::write(&journal, &bytes[..cut]).expect("cut journal mid-entry");
    let store = CampaignStore::open(&dir).expect("store recovers");
    assert_eq!(store.len(), grid.len() - 1, "cut entry survived recovery");
    let (points, report) = grid.execute_cached(&sim, &store).expect("refill pass");
    assert_eq!(report.hits, grid.len() - 1);
    assert_eq!(report.misses, 1);
    assert_eq!(points, fresh, "refilled grid diverged from fresh");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_code_revision_forces_resimulation() {
    let dir = temp_store_dir("revision");
    let sim = small_sim();
    let grid = small_grid(&sim, 1);
    let fresh = grid.execute_on(&sim, 1);

    let store = CampaignStore::open_with_revision(&dir, "rev-a").expect("rev-a opens");
    let (_, report) = grid.execute_cached(&sim, &store).expect("populate rev-a");
    assert_eq!(report.misses, grid.len());
    drop(store);

    // A different revision must never serve rev-a's results.
    let store = CampaignStore::open_with_revision(&dir, "rev-b").expect("rev-b opens");
    let (points, report) = grid.execute_cached(&sim, &store).expect("rev-b pass");
    assert_eq!(report.hits, 0, "stale revision served cached results");
    assert_eq!(report.misses, grid.len());
    assert_eq!(points, fresh);
    drop(store);

    // Back on rev-a the original entries still hit, untouched by rev-b.
    let store = CampaignStore::open_with_revision(&dir, "rev-a").expect("rev-a reopens");
    assert_eq!(store.len(), 2 * grid.len());
    let (points, report) = grid.execute_cached(&sim, &store).expect("rev-a hit pass");
    assert_eq!(report.hits, grid.len());
    assert_eq!(points, fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forged_hash_collision_misses_instead_of_lying() {
    let dir = temp_store_dir("collision");
    let sim = small_sim();
    let grid = small_grid(&sim, 1);
    let store = CampaignStore::open(&dir).expect("store opens");
    let (_, report) = grid.execute_cached(&sim, &store).expect("populate");
    assert_eq!(report.misses, grid.len());

    let real = store.run_key(&sim, &grid.plans()[0]);
    assert!(store.lookup_run(&real).is_some(), "real key must hit");
    // Same 64-bit hash, different canonical string: a collision must
    // read as a miss (and re-simulate), never return the other result.
    let forged = CampaignKey {
        hash: real.hash,
        canon: format!("{} forged", real.canon),
    };
    assert!(
        store.lookup_run(&forged).is_none(),
        "hash collision served the wrong result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_sweep_round_trips_through_the_store() {
    let dir = temp_store_dir("fault");
    let sim = small_sim();
    let mut cfg = sim.config(1.0);
    cfg.seed = 1;
    cfg.warmup = 100;
    cfg.measure = 400;
    // Channel sampling on: the cached point must round-trip the full
    // TimeSeries, not just the scalar summary.
    cfg.telemetry = TelemetryConfig {
        sample_every: 32,
        trace_rate: 0.0,
        trace_seed: 0,
    };
    let sweep = FaultSweep::new(
        DragonflyParams::new(2, 4, 2).expect("valid params"),
        RoutingChoice::UgalLVcH,
        TrafficChoice::Uniform,
        &cfg,
        &[0.0, 0.125],
        7,
    );
    let fresh = sweep.execute_on(1).expect("fault plans apply");
    let store = CampaignStore::open(&dir).expect("store opens");

    let (missed, report) = sweep.execute_cached(&store).expect("miss pass");
    assert_eq!(report.misses, 2);
    assert_eq!(missed, fresh);
    let (hit, report) = sweep.execute_cached(&store).expect("hit pass");
    assert_eq!(report.hits, 2);
    assert_eq!(report.misses, 0);
    assert_eq!(hit, fresh);
    assert!(
        hit[0].stats.series.is_some(),
        "cached point dropped the sampled time series"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workload_sweep_round_trips_through_the_store() {
    let dir = temp_store_dir("workload");
    let mut cfg = dfly_netsim::SimConfig::paper_default(0.0);
    cfg.warmup = 0;
    cfg.measure = 20_000;
    cfg.drain_cap = 20_000;
    let sweep = WorkloadSweep::new(
        DragonflyParams::new(2, 4, 2).expect("valid params"),
        RoutingChoice::Min,
        vec![JobSpec::all_to_all("alpha", 8)],
        &cfg,
        &[0.0],
    );
    let fresh = sweep.execute_on(1).expect("workload places");
    let store = CampaignStore::open(&dir).expect("store opens");

    let (missed, report) = sweep.execute_cached(&store).expect("miss pass");
    assert_eq!(report.misses, fresh.len());
    assert_eq!(missed, fresh);
    let (hit, report) = sweep.execute_cached(&store).expect("hit pass");
    assert_eq!(report.hits, fresh.len());
    assert_eq!(report.misses, 0);
    assert_eq!(hit, fresh);
    // The per-job books (delivered counts, completion, latency
    // histograms) must survive the round trip bit for bit.
    for (h, f) in hit.iter().zip(&fresh) {
        assert_eq!(h.books, f.books);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Engine performance baseline: times a Figure 8-equivalent load sweep
//! serially and across the worker pool, verifies the results are bit
//! identical, collects the engine's per-phase counters for one
//! representative run, measures the telemetry layer (latency
//! histograms, channel time series, flit tracing, estimator-accuracy
//! scoreboard) and its overhead, measures the million-terminal scale
//! mode (build time, peak RSS and cycle rate at ~262K and ~1.1M
//! terminals), measures the stall watchdog (armed every 512 cycles it
//! must neither trip nor perturb a healthy run), and writes everything
//! to `BENCH_parallel_sweep.json` — including a `health` section with
//! the watchdog verdicts, warmup-convergence diagnostics and the
//! canonical wall-clock field list — plus a full telemetry artifact
//! `BENCH_telemetry.json` and a chrome://tracing span tree
//! `BENCH_span_trace.json` of the 4-shard run (run from the
//! repository root).
//!
//! Every sweep also runs a second leg through the on-disk campaign
//! store (`DFLY_CAMPAIGN_DIR`, default `target/campaign`): the first
//! run populates the journal, repeat runs are pure cache hits, and the
//! cached results are asserted bit-identical to the fresh ones. The
//! hit/miss counts land in the `"campaign"` section of the BENCH JSON.
//!
//! Knobs: `DFLY_THREADS` bounds the pool, `DFLY_QUICK=1` shortens the
//! simulation windows, `DFLY_CAMPAIGN_DIR` relocates the result store.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use dfly_bench::heatmap::Heatmap;
use dfly_bench::{TopoCurve, Windows, WALLCLOCK_EXACT_KEYS, WALLCLOCK_FIELDS};
use dfly_netsim::telemetry::json_escape;
use dfly_netsim::{CreditMode, InjectionKind, SimConfig, Simulation, SpanTree, TelemetryConfig};
use dfly_topo::FlattenedButterfly;
use dfly_traffic::UniformRandom;
use dragonfly::butterfly::{ButterflyNetwork, ButterflyRouting};
use dragonfly::parallel::{configured_threads, parallel_map};
use dragonfly::{
    atomic_write, CampaignStore, DragonflyParams, DragonflySim, FaultSweep, JobSpec, RoutingChoice,
    RunGrid, TrafficChoice, UgalVariant, WorkloadSweep,
};

/// Process peak resident set size (`VmHWM`) in MB; `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One measured point of the scale-mode census.
struct ScalePoint {
    label: &'static str,
    p: usize,
    a: usize,
    h: usize,
    routers: usize,
    terminals: usize,
    build_secs: f64,
    cycles: u64,
    wall_secs: f64,
    cycles_per_sec: f64,
    accepted_rate: f64,
    peak_rss_mb: Option<f64>,
}

/// Fixed short windows for the scale runs: the measurement target is
/// memory and cycle rate, not statistics fidelity, so the windows do
/// not scale with `DFLY_QUICK`.
const SCALE_WARMUP: u64 = 60;
const SCALE_MEASURE: u64 = 120;
const SCALE_DRAIN_CAP: u64 = 3_000;
const SCALE_LOAD: f64 = 0.2;

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |x| format!("{x:.4}"))
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |x| x.to_string())
}

fn median3(mut v: [f64; 3]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[1]
}

/// The six congestion estimators scored against the oracle.
const ESTIMATORS: [(UgalVariant, &str); 6] = [
    (UgalVariant::Local, "queue_occupancy"),
    (UgalVariant::LocalVc, "vc_occupancy"),
    (UgalVariant::LocalVcHybrid, "vc_hybrid"),
    (UgalVariant::LocalEwma, "ewma_occupancy"),
    (UgalVariant::CreditRoundTrip, "credit_committed"),
    (UgalVariant::Global, "global_oracle"),
];

fn routing_for(variant: UgalVariant) -> RoutingChoice {
    match variant {
        UgalVariant::Local => RoutingChoice::UgalL,
        UgalVariant::LocalVc => RoutingChoice::UgalLVc,
        UgalVariant::LocalVcHybrid => RoutingChoice::UgalLVcH,
        UgalVariant::LocalEwma => RoutingChoice::UgalLEwma,
        UgalVariant::CreditRoundTrip => RoutingChoice::UgalLCr,
        UgalVariant::Global => RoutingChoice::UgalG,
    }
}

fn main() {
    let win = Windows::from_env();
    let sim = dfly_bench::paper_network();

    // The on-disk campaign store: every sweep below runs fresh first
    // (the timed legs), then again through the store. First invocation
    // populates the journal; repeat invocations with an unchanged tree
    // are 100% cache hits and byte-identical.
    let campaign_dir =
        std::env::var("DFLY_CAMPAIGN_DIR").unwrap_or_else(|_| "target/campaign".to_string());
    let store = CampaignStore::open(&campaign_dir).expect("campaign store must open");
    eprintln!(
        "perfstat: campaign store at {} (revision {}, {} entries)",
        store.dir().display(),
        store.revision(),
        store.len()
    );

    // The Figure 8 experiment: the four routing families of the paper
    // swept over uniform-random load on the 1K-node network.
    let choices = [
        RoutingChoice::Min,
        RoutingChoice::Valiant,
        RoutingChoice::UgalL,
        RoutingChoice::UgalG,
    ];
    let loads = win.thin(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]);
    let mut base = win.config(0.1);
    base.seed = 1;
    let grid = RunGrid::cross(&choices, &[TrafficChoice::Uniform], &loads, &base);

    let threads = configured_threads();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfstat: {} runs, {} thread(s) configured, {} hardware thread(s)",
        grid.len(),
        threads,
        hw
    );

    let t0 = Instant::now();
    let serial = grid.execute_on(&sim, 1);
    let serial_secs = t0.elapsed().as_secs_f64();
    eprintln!("perfstat: serial sweep {serial_secs:.3}s");

    // The parallel leg also folds every run into one merged metrics
    // registry (merge order is plan order, independent of threading).
    let t0 = Instant::now();
    let parallel = grid.execute_on(&sim, threads);
    let registry = grid.metrics(&parallel);
    let parallel_secs = t0.elapsed().as_secs_f64();
    eprintln!("perfstat: parallel sweep {parallel_secs:.3}s");

    let bit_identical = serial == parallel;
    assert!(bit_identical, "parallel sweep diverged from serial sweep");
    let speedup = serial_secs / parallel_secs.max(1e-12);
    eprintln!("perfstat: speedup {speedup:.2}x (bit-identical: {bit_identical})");

    // Campaign leg: the same grid through the store. Misses simulate
    // and journal; hits decode from disk. Either way the results must
    // be bit-identical to the fresh sweep above.
    let t0 = Instant::now();
    let (grid_cached, grid_report) = grid
        .execute_cached(&sim, &store)
        .expect("campaign grid leg must run");
    let grid_cached_secs = t0.elapsed().as_secs_f64();
    let grid_cached_identical = grid_cached == serial;
    assert!(
        grid_cached_identical,
        "cached sweep diverged from fresh sweep"
    );
    eprintln!(
        "perfstat: campaign grid leg {grid_cached_secs:.3}s ({} hits, {} misses)",
        grid_report.hits, grid_report.misses
    );

    // A small deterministic fault-degradation curve: saturation
    // throughput with 0, 1/16 and 1/8 of the global cables failed.
    let fault_fractions = [0.0, 1.0 / 16.0, 1.0 / 8.0];
    let mut fault_cfg = win.config(1.0);
    fault_cfg.seed = 1;
    // Channel occupancy sampling on every fault point: the heaviest
    // point's series becomes the channel x time heatmap artifact below.
    let fault_sample_every = 64u64;
    fault_cfg.telemetry = TelemetryConfig {
        sample_every: fault_sample_every,
        trace_rate: 0.0,
        trace_seed: 0,
    };
    let fault_sweep = FaultSweep::new(
        dfly_bench::paper_params(),
        RoutingChoice::UgalLVcH,
        TrafficChoice::Uniform,
        &fault_cfg,
        &fault_fractions,
        42,
    );
    let t0 = Instant::now();
    let fault_points = fault_sweep.execute().expect("fault plans must apply");
    let fault_secs = t0.elapsed().as_secs_f64();
    let fault_serial = fault_sweep.execute_on(1).expect("fault plans must apply");
    let fault_identical = fault_points == fault_serial;
    assert!(fault_identical, "parallel fault sweep diverged from serial");
    let (fault_cached, fault_report) = fault_sweep
        .execute_cached(&store)
        .expect("campaign fault leg must run");
    let fault_cached_identical = fault_cached == fault_points;
    assert!(
        fault_cached_identical,
        "cached fault sweep diverged from fresh sweep"
    );
    eprintln!(
        "perfstat: campaign fault leg {} hits, {} misses",
        fault_report.hits, fault_report.misses
    );
    let fault_monotone = fault_points
        .windows(2)
        .all(|pair| pair[1].throughput() <= pair[0].throughput() + 1e-9);
    eprintln!(
        "perfstat: fault sweep {fault_secs:.3}s, throughputs {:?} (monotone: {fault_monotone})",
        fault_points
            .iter()
            .map(|pt| (pt.throughput() * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );

    // Channel x time occupancy heatmap of the heaviest-fault point:
    // where the saturation load pools once 1/8 of the global cables are
    // gone. Trimmed to the 64 hottest channels (the exporter records
    // the drop count); JSON + a gnuplot `matrix with image` data file.
    let hot = fault_points.last().expect("fault sweep has points");
    let hot_series = hot
        .stats
        .series
        .as_ref()
        .expect("fault sweep sampling was enabled");
    let fault_heatmap = Heatmap::from_series(hot_series).top(64);
    eprintln!(
        "perfstat: fault heatmap at fraction {:.4}: {} x {} of {} channels ({} dropped)",
        hot.fraction,
        fault_heatmap.rows.len(),
        fault_heatmap.ticks.len(),
        hot_series.channels.len(),
        fault_heatmap.dropped,
    );
    atomic_write(
        "BENCH_fault_heatmap.json",
        fault_heatmap.to_json().as_bytes(),
    )
    .expect("write heatmap JSON");
    atomic_write(
        "BENCH_fault_heatmap.dat",
        fault_heatmap.to_gnuplot().as_bytes(),
    )
    .expect("write heatmap gnuplot data");
    eprintln!("perfstat: wrote BENCH_fault_heatmap.json / BENCH_fault_heatmap.dat");

    // Closed-loop workload mix: two 8-rank all-to-all tenants on the
    // 72-terminal network, group-disjoint vs interfering placement,
    // with and without untracked background load. Work-complete runs;
    // per-job completion time and the co-location slowdown come from
    // the job books.
    let mut wl_cfg = SimConfig::paper_default(0.0);
    wl_cfg.warmup = 0;
    wl_cfg.measure = 30_000;
    wl_cfg.drain_cap = 30_000;
    let wl_loads = [0.0, 0.3];
    let wl_sweep = WorkloadSweep::new(
        DragonflyParams::new(2, 4, 2).expect("valid params"),
        RoutingChoice::Min,
        vec![
            JobSpec::all_to_all("alpha", 8),
            JobSpec::all_to_all("beta", 8),
        ],
        &wl_cfg,
        &wl_loads,
    );
    let t0 = Instant::now();
    let wl_points = wl_sweep.execute().expect("workload mix must place");
    let wl_registry = wl_sweep.metrics(&wl_points);
    let wl_secs = t0.elapsed().as_secs_f64();
    let wl_serial = wl_sweep.execute_on(1).expect("workload mix must place");
    let wl_identical = wl_points == wl_serial;
    assert!(wl_identical, "parallel workload sweep diverged from serial");
    let (wl_cached, wl_report) = wl_sweep
        .execute_cached(&store)
        .expect("campaign workload leg must run");
    let wl_cached_identical = wl_cached == wl_points;
    assert!(
        wl_cached_identical,
        "cached workload sweep diverged from fresh sweep"
    );
    eprintln!(
        "perfstat: campaign workload leg {} hits, {} misses",
        wl_report.hits, wl_report.misses
    );
    for pt in &wl_points {
        assert!(
            pt.stats.completion.is_some(),
            "workload point {:?}@{} hit the cycle cap",
            pt.placement,
            pt.background_load
        );
    }
    let wl_slowdowns = wl_sweep.slowdowns(&wl_points);
    for s in &wl_slowdowns {
        eprintln!(
            "perfstat: workload {} @ bg {:.1}: disjoint {} vs interfering {} cycles (x{:.2})",
            s.job,
            s.background_load,
            s.disjoint,
            s.interfering,
            s.ratio()
        );
        if s.background_load > 0.0 {
            assert!(
                s.ratio() > 1.0,
                "{} must slow down under interfering placement at bg {}",
                s.job,
                s.background_load
            );
        }
    }
    eprintln!(
        "perfstat: workload sweep {wl_secs:.3}s over {} runs (bit-identical: {wl_identical})",
        wl_points.len()
    );

    // Single-run hot-path counters at a representative operating
    // point, interleaved with the telemetry overhead measurement: each
    // round runs the instrumented engine (the reference), the plain
    // engine with telemetry left disabled (the default), the plain
    // engine with sampling + tracing switched on, and the plain engine
    // with the stall watchdog armed. Interleaving keeps the medians
    // comparable under machine noise; excess of the disabled median
    // over the reference means telemetry work leaking into the
    // disabled hot path.
    let mut single = None;
    let mut disabled_stats = None;
    let mut watchdog_stats = None;
    let mut stalls = 0usize;
    let mut reference_wall = [0.0; 3];
    let mut disabled_wall = [0.0; 3];
    let mut enabled_wall = [0.0; 3];
    let mut watchdog_wall = [0.0; 3];
    for round in 0..3 {
        let mut cfg = win.config(0.3);
        cfg.seed = 1;
        let (stats, perf) = sim.run_instrumented(RoutingChoice::UgalL, TrafficChoice::Uniform, cfg);
        reference_wall[round] = perf.wall.as_secs_f64();
        if single.is_none() {
            single = Some((stats, perf));
        }

        let mut cfg = win.config(0.3);
        cfg.seed = 1;
        let t0 = Instant::now();
        let dstats = sim.run(RoutingChoice::UgalL, TrafficChoice::Uniform, cfg);
        disabled_wall[round] = t0.elapsed().as_secs_f64();
        if disabled_stats.is_none() {
            disabled_stats = Some(dstats);
        }

        let mut cfg = win.config(0.3);
        cfg.seed = 1;
        cfg.telemetry = TelemetryConfig {
            sample_every: 256,
            trace_rate: 0.01,
            trace_seed: 7,
        };
        let t0 = Instant::now();
        let _ = sim.run(RoutingChoice::UgalL, TrafficChoice::Uniform, cfg);
        enabled_wall[round] = t0.elapsed().as_secs_f64();

        // Watchdog leg: the same healthy run with in-band stall checks
        // every 512 cycles. It must neither trip nor perturb the stats.
        let mut cfg = win.config(0.3);
        cfg.seed = 1;
        cfg.watchdog_every = 512;
        let t0 = Instant::now();
        match sim.try_run(RoutingChoice::UgalL, TrafficChoice::Uniform, cfg) {
            Ok(wstats) => {
                if watchdog_stats.is_none() {
                    watchdog_stats = Some(wstats);
                }
            }
            Err(e) => {
                stalls += 1;
                eprintln!("perfstat: watchdog leg failed: {e}");
            }
        }
        watchdog_wall[round] = t0.elapsed().as_secs_f64();
    }
    let (stats, perf) = single.expect("three rounds ran");
    assert_eq!(
        stalls, 0,
        "healthy perfstat runs tripped the stall watchdog"
    );
    let watchdog_transparent = watchdog_stats.as_ref() == disabled_stats.as_ref();
    assert!(
        watchdog_transparent,
        "the armed watchdog perturbed the run statistics"
    );
    assert!(
        stats.converged,
        "reference run warmup did not converge: throughput drift {:?}, latency drift {:?}",
        stats.warmup_throughput_drift, stats.warmup_latency_drift
    );

    // Sharded single-run scaling: the same operating point on 1, 2 and
    // 4 router shards. The stats must be bit identical across shard
    // counts (the engine's core guarantee), and the medians feed the CI
    // overhead and speedup guards. Rounds are interleaved across shard
    // counts so the medians stay comparable under machine noise.
    let shard_counts = [1usize, 2, 4];
    let mut shard_walls = vec![Vec::with_capacity(3); shard_counts.len()];
    let mut shard_stats = Vec::new();
    let mut span_perf = None;
    for round in 0..3 {
        for (i, &sc) in shard_counts.iter().enumerate() {
            let mut cfg = win.config(0.3);
            cfg.seed = 1;
            cfg.shards = sc;
            let (sstats, sperf) =
                sim.run_instrumented(RoutingChoice::UgalL, TrafficChoice::Uniform, cfg);
            assert_eq!(
                sperf.shards, sc,
                "engine did not honour the requested shard count"
            );
            shard_walls[i].push(sperf.wall.as_secs_f64());
            if round == 0 {
                if sc == 4 {
                    span_perf = Some(sperf.clone());
                }
                shard_stats.push((sstats, sperf.cycles));
            }
        }
    }
    let shard_cycles = shard_stats[0].1;
    let sharded_identical = shard_stats.iter().all(|(st, _)| *st == shard_stats[0].0);
    assert!(
        sharded_identical,
        "sharded runs diverged from the 1-shard run"
    );
    let shard_medians: Vec<f64> = shard_walls
        .iter()
        .map(|w| median3([w[0], w[1], w[2]]))
        .collect();
    for (&sc, &secs) in shard_counts.iter().zip(&shard_medians) {
        eprintln!(
            "perfstat: sharded single run x{sc}: {secs:.3}s ({:.0} cycles/s)",
            shard_cycles as f64 / secs.max(1e-12)
        );
    }

    // Engine -> phase -> shard span tree of the 4-shard run, exported
    // as a chrome://tracing artifact (load it via about:tracing or
    // ui.perfetto.dev).
    let span_perf = span_perf.expect("4-shard run recorded its counters");
    let span_tree = SpanTree::from_perf(&span_perf);
    atomic_write(
        "BENCH_span_trace.json",
        span_tree.to_chrome_json().as_bytes(),
    )
    .expect("write span trace JSON");
    eprintln!(
        "perfstat: wrote BENCH_span_trace.json ({} spans over {} shards)",
        span_tree.len(),
        span_perf.shards
    );

    // Million-terminal scale mode (the paper's Figure 4 regime):
    // arithmetic routing plus the flit arena keep router memory
    // O(radix), so these networks build and run in commodity RAM.
    // Each point times the harness build (topology + spec wiring),
    // runs a short MIN/uniform point with `SimConfig::scale_mode` on,
    // and snapshots the process peak RSS afterwards. `VmHWM` is a
    // process-wide monotone high-water mark, so the points run
    // smallest-first and each snapshot covers everything up to it.
    let scale_cases = [("262k", 16usize, 32usize, 16usize), ("1.1m", 23, 46, 23)];
    let mut scale_rows: Vec<ScalePoint> = Vec::new();
    for (label, p, a, h) in scale_cases {
        let params = DragonflyParams::new(p, a, h).expect("valid scale params");
        let t0 = Instant::now();
        let scale_sim = DragonflySim::new(params);
        let build_secs = t0.elapsed().as_secs_f64();
        let mut cfg = win.config(SCALE_LOAD);
        cfg.seed = 1;
        cfg.warmup = SCALE_WARMUP;
        cfg.measure = SCALE_MEASURE;
        cfg.drain_cap = SCALE_DRAIN_CAP;
        cfg.scale_mode = true;
        let (sstats, sperf) =
            scale_sim.run_instrumented(RoutingChoice::Min, TrafficChoice::Uniform, cfg);
        assert!(
            sstats.channel_loads.is_empty(),
            "scale mode kept per-channel load counters"
        );
        assert!(
            sstats.accepted_rate > 0.0,
            "scale {label}: nothing delivered"
        );
        let rss = peak_rss_mb();
        eprintln!(
            "perfstat: scale {label}: p={p} a={a} h={h}, {} routers, {} terminals, \
             build {build_secs:.3}s, {} cycles in {:.3}s ({:.0} cycles/s), peak RSS {}",
            scale_sim.spec().num_routers(),
            scale_sim.spec().num_terminals(),
            sperf.cycles,
            sperf.wall.as_secs_f64(),
            sperf.cycles_per_sec(),
            rss.map_or("n/a".to_string(), |m| format!("{m:.0} MB")),
        );
        scale_rows.push(ScalePoint {
            label,
            p,
            a,
            h,
            routers: scale_sim.spec().num_routers(),
            terminals: scale_sim.spec().num_terminals(),
            build_secs,
            cycles: sperf.cycles,
            wall_secs: sperf.wall.as_secs_f64(),
            cycles_per_sec: sperf.cycles_per_sec(),
            accepted_rate: sstats.accepted_rate,
            peak_rss_mb: rss,
        });
    }

    eprintln!(
        "perfstat: single run {} cycles in {:.3}s ({:.0} cycles/s, {:.0} flit-hops/s)",
        perf.cycles,
        perf.wall.as_secs_f64(),
        perf.cycles_per_sec(),
        perf.flit_hops_per_sec()
    );
    let reference_secs = median3(reference_wall);
    let disabled_secs = median3(disabled_wall);
    let enabled_secs = median3(enabled_wall);
    let disabled_over_reference = disabled_secs / reference_secs.max(1e-12);
    let enabled_over_disabled = enabled_secs / disabled_secs.max(1e-12);
    eprintln!(
        "perfstat: telemetry off {disabled_secs:.3}s ({disabled_over_reference:.3}x reference \
         {reference_secs:.3}s), on {enabled_secs:.3}s ({enabled_over_disabled:.3}x off)"
    );
    let watchdog_secs = median3(watchdog_wall);
    let watchdog_over_disabled = watchdog_secs / disabled_secs.max(1e-12);
    eprintln!(
        "perfstat: watchdog armed {watchdog_secs:.3}s ({watchdog_over_disabled:.3}x off, \
         transparent: {watchdog_transparent}, converged: {})",
        stats.converged
    );

    // A fully instrumented small run: channel time series sampled every
    // 32 cycles and a 5% seeded flit trace, exported in full to
    // BENCH_telemetry.json.
    let df_small = DragonflySim::new(DragonflyParams::new(2, 4, 2).expect("valid params"));
    let sample_every = 32u64;
    let trace_rate = 0.05f64;
    let trace_seed = 7u64;
    let mut tcfg = win.config(0.3);
    tcfg.seed = 1;
    tcfg.telemetry = TelemetryConfig {
        sample_every,
        trace_rate,
        trace_seed,
    };
    let t0 = Instant::now();
    let tstats = df_small.run(RoutingChoice::UgalL, TrafficChoice::Uniform, tcfg);
    let telemetry_secs = t0.elapsed().as_secs_f64();
    let series = tstats.series.as_ref().expect("sampling was enabled");
    let trace = tstats.trace.as_ref().expect("tracing was enabled");
    let mut ranked: Vec<usize> = (0..series.channels.len()).collect();
    ranked.sort_by(|&a, &b| {
        let (ca, cb) = (&series.channels[a], &series.channels[b]);
        cb.peak_occupancy()
            .cmp(&ca.peak_occupancy())
            .then(ca.router.cmp(&cb.router))
            .then(ca.port.cmp(&cb.port))
    });
    eprintln!(
        "perfstat: telemetry run {} ticks x {} channels, {} trace events, p50/p95/p99/max = {}/{}/{}/{}",
        series.ticks.len(),
        series.channels.len(),
        trace.events.len(),
        fmt_opt_u64(tstats.p50_latency()),
        fmt_opt_u64(tstats.p95_latency()),
        fmt_opt_u64(tstats.p99_latency()),
        fmt_opt_u64(tstats.max_latency()),
    );

    // Estimator-accuracy scoreboard: every congestion estimator scored
    // against the oracle queue depth at each UGAL decision, on the
    // dragonfly and the flattened butterfly, under bursty Markov
    // on/off injection.
    let acc_injection = InjectionKind::MarkovOnOff {
        rate: 0.2,
        burst_len: 8.0,
        duty: 0.5,
    };
    let fbn = Arc::new(ButterflyNetwork::new(FlattenedButterfly::new(2, 6, 2)));
    let fb_spec = Arc::new(fbn.build_spec());
    let mut acc_curves = Vec::new();
    for (variant, est) in ESTIMATORS {
        acc_curves.push(TopoCurve {
            label: format!("dragonfly/{est}"),
            ..TopoCurve::dragonfly(&df_small, routing_for(variant), TrafficChoice::Uniform)
        });
    }
    for (variant, est) in ESTIMATORS {
        acc_curves.push(TopoCurve {
            label: format!("butterfly/{est}"),
            round_trip_credits: variant == UgalVariant::CreditRoundTrip,
            ..TopoCurve::new(
                "",
                Arc::clone(&fb_spec),
                Arc::new(ButterflyRouting::ugal(Arc::clone(&fbn), variant)),
                Arc::new(UniformRandom::new(fb_spec.num_terminals())),
            )
        });
    }
    let t0 = Instant::now();
    let boards = parallel_map(&acc_curves, |tc| {
        let mut cfg = win.config(0.2);
        cfg.seed = 1;
        cfg.injection = acc_injection;
        if tc.round_trip_credits && cfg.credit_mode == CreditMode::Conventional {
            cfg.credit_mode = CreditMode::round_trip();
        }
        Simulation::new(&tc.spec, tc.routing.as_ref(), tc.pattern.as_ref(), cfg)
            .expect("estimator-accuracy run must be valid")
            .finish()
            .scoreboard
    });
    let acc_secs = t0.elapsed().as_secs_f64();
    for (tc, board) in acc_curves.iter().zip(&boards) {
        assert!(board.scored > 0, "{}: no scored decisions", tc.label);
        if tc.label.ends_with("global_oracle") {
            // The oracle estimator scored against itself is exact.
            assert_eq!(
                board.mean_abs_error(),
                Some(0.0),
                "{}: oracle must have zero error",
                tc.label
            );
        }
    }
    eprintln!(
        "perfstat: estimator accuracy {acc_secs:.3}s over {} runs",
        boards.len()
    );
    for (tc, board) in acc_curves.iter().zip(&boards) {
        eprintln!(
            "perfstat:   {:28} abs_err {} disagree {}",
            tc.label,
            fmt_opt(board.mean_abs_error()),
            fmt_opt(board.disagreement_rate()),
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"parallel_sweep_fig8\",");
    let _ = writeln!(
        json,
        "  \"network\": \"dragonfly p=4 a=8 h=4 (1056 terminals)\","
    );
    let _ = writeln!(
        json,
        "  \"windows\": {{\"warmup\": {}, \"measure\": {}, \"drain_cap\": {}}},",
        win.warmup, win.measure, win.drain_cap
    );
    let _ = writeln!(json, "  \"runs\": {},", grid.len());
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"hardware_threads\": {hw},");
    let _ = writeln!(json, "  \"serial_secs\": {serial_secs:.6},");
    let _ = writeln!(json, "  \"parallel_secs\": {parallel_secs:.6},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.4},");
    let _ = writeln!(json, "  \"bit_identical\": {bit_identical},");
    let _ = writeln!(json, "  \"single_run\": {{");
    let _ = writeln!(json, "    \"hardware_threads\": {hw},");
    let _ = writeln!(json, "    \"shards\": {},", perf.shards);
    let _ = writeln!(
        json,
        "    \"routing\": \"{}\",",
        json_escape(RoutingChoice::UgalL.label())
    );
    let _ = writeln!(json, "    \"traffic\": \"uniform\",");
    let _ = writeln!(json, "    \"load\": 0.3,");
    let _ = writeln!(json, "    \"cycles\": {},", perf.cycles);
    let _ = writeln!(json, "    \"wall_secs\": {:.6},", perf.wall.as_secs_f64());
    let _ = writeln!(
        json,
        "    \"cycles_per_sec\": {:.1},",
        perf.cycles_per_sec()
    );
    let _ = writeln!(json, "    \"flit_hops\": {},", perf.flit_hops);
    let _ = writeln!(
        json,
        "    \"flit_hops_per_sec\": {:.1},",
        perf.flit_hops_per_sec()
    );
    let _ = writeln!(
        json,
        "    \"avg_latency\": {},",
        stats
            .avg_latency()
            .map_or("null".to_string(), |l| format!("{l:.3}"))
    );
    let tel = stats.routing;
    let _ = writeln!(
        json,
        "    \"routing_telemetry\": {{\"minimal_takes\": {}, \"non_minimal_takes\": {}, \
         \"adaptive_decisions\": {}, \"estimator_disagreements\": {}, \
         \"fault_avoided_decisions\": {}, \"dropped_candidates\": {}, \
         \"oracle_probe_fallbacks\": {}, \
         \"minimal_take_rate\": {}, \"disagreement_rate\": {}}},",
        tel.minimal_takes,
        tel.non_minimal_takes,
        tel.adaptive_decisions,
        tel.estimator_disagreements,
        tel.fault_avoided_decisions,
        tel.dropped_candidates,
        tel.oracle_probe_fallbacks,
        tel.minimal_take_rate()
            .map_or("null".to_string(), |r| format!("{r:.4}")),
        tel.disagreement_rate()
            .map_or("null".to_string(), |r| format!("{r:.4}")),
    );
    json.push_str("    \"phase_secs\": {");
    for (i, (name, d)) in dfly_netsim::SimPerf::PHASE_NAMES
        .iter()
        .zip(perf.phases.iter())
        .enumerate()
    {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{name}\": {:.6}", d.as_secs_f64());
    }
    json.push_str("}\n");
    json.push_str("  },\n");

    json.push_str("  \"sharded_single_run\": {\n");
    let _ = writeln!(json, "    \"hardware_threads\": {hw},");
    let _ = writeln!(
        json,
        "    \"routing\": \"{}\",",
        json_escape(RoutingChoice::UgalL.label())
    );
    let _ = writeln!(json, "    \"traffic\": \"uniform\",");
    let _ = writeln!(json, "    \"load\": 0.3,");
    let _ = writeln!(json, "    \"cycles\": {shard_cycles},");
    let _ = writeln!(json, "    \"bit_identical\": {sharded_identical},");
    json.push_str("    \"points\": [");
    for (i, (&sc, &secs)) in shard_counts.iter().zip(&shard_medians).enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "{{\"shards\": {sc}, \"wall_secs\": {secs:.6}, \"cycles_per_sec\": {:.1}}}",
            shard_cycles as f64 / secs.max(1e-12)
        );
    }
    json.push_str("]\n");
    json.push_str("  },\n");

    json.push_str("  \"scale_mode\": {\n");
    let _ = writeln!(json, "    \"hardware_threads\": {hw},");
    let _ = writeln!(json, "    \"shards\": 1,");
    let _ = writeln!(
        json,
        "    \"routing\": \"{}\",",
        json_escape(RoutingChoice::Min.label())
    );
    let _ = writeln!(json, "    \"traffic\": \"uniform\",");
    let _ = writeln!(json, "    \"load\": {SCALE_LOAD},");
    let _ = writeln!(
        json,
        "    \"windows\": {{\"warmup\": {SCALE_WARMUP}, \"measure\": {SCALE_MEASURE}, \
         \"drain_cap\": {SCALE_DRAIN_CAP}}},"
    );
    json.push_str("    \"points\": [\n");
    for (i, sp) in scale_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"label\": \"{}\", \"p\": {}, \"a\": {}, \"h\": {}, \
             \"routers\": {}, \"terminals\": {}, \"build_secs\": {:.6}, \
             \"cycles\": {}, \"wall_secs\": {:.6}, \"cycles_per_sec\": {:.1}, \
             \"accepted_rate\": {:.6}, \"peak_rss_mb\": {}}}",
            sp.label,
            sp.p,
            sp.a,
            sp.h,
            sp.routers,
            sp.terminals,
            sp.build_secs,
            sp.cycles,
            sp.wall_secs,
            sp.cycles_per_sec,
            sp.accepted_rate,
            sp.peak_rss_mb
                .map_or("null".to_string(), |m| format!("{m:.1}")),
        );
        json.push_str(if i + 1 < scale_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");

    json.push_str("  \"telemetry\": {\n");
    let _ = writeln!(json, "    \"hardware_threads\": {hw},");
    let _ = writeln!(json, "    \"shards\": 1,");
    let _ = writeln!(
        json,
        "    \"network\": \"dragonfly p=2 a=4 h=2 (72 terminals)\","
    );
    let _ = writeln!(
        json,
        "    \"routing\": \"{}\",",
        json_escape(RoutingChoice::UgalL.label())
    );
    let _ = writeln!(json, "    \"traffic\": \"uniform\",");
    let _ = writeln!(json, "    \"load\": 0.3,");
    let _ = writeln!(json, "    \"sample_every\": {sample_every},");
    let _ = writeln!(json, "    \"trace_rate\": {trace_rate},");
    let _ = writeln!(json, "    \"trace_seed\": {trace_seed},");
    let _ = writeln!(json, "    \"secs\": {telemetry_secs:.6},");
    let _ = writeln!(
        json,
        "    \"latency\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"histogram\": {}}},",
        fmt_opt_u64(tstats.p50_latency()),
        fmt_opt_u64(tstats.p95_latency()),
        fmt_opt_u64(tstats.p99_latency()),
        fmt_opt_u64(tstats.max_latency()),
        tstats.latency_log.to_json(),
    );
    let _ = writeln!(json, "    \"series_ticks\": {},", series.ticks.len());
    let _ = writeln!(json, "    \"series_channels\": {},", series.channels.len());
    // Top channels by peak occupancy; the full per-channel series lives
    // in BENCH_telemetry.json.
    json.push_str("    \"top_channels\": [");
    for (i, &ch) in ranked.iter().take(5).enumerate() {
        let c = &series.channels[ch];
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "{{\"router\": {}, \"port\": {}, \"class\": \"{:?}\", \
             \"peak_occupancy\": {}, \"mean_utilization\": {:.4}}}",
            c.router,
            c.port,
            c.class,
            c.peak_occupancy(),
            c.mean_utilization(series.every),
        );
    }
    json.push_str("],\n");
    let _ = writeln!(json, "    \"trace_events\": {},", trace.events.len());
    let _ = writeln!(json, "    \"sweep_registry\": {}", registry.to_json());
    json.push_str("  },\n");

    json.push_str("  \"estimator_accuracy\": {\n");
    let _ = writeln!(json, "    \"hardware_threads\": {hw},");
    let _ = writeln!(json, "    \"shards\": 1,");
    let _ = writeln!(
        json,
        "    \"injection\": {{\"kind\": \"markov_on_off\", \"rate\": 0.2, \"burst_len\": 8.0, \"duty\": 0.5}},"
    );
    let _ = writeln!(json, "    \"traffic\": \"uniform\",");
    let _ = writeln!(json, "    \"load\": 0.2,");
    let _ = writeln!(json, "    \"secs\": {acc_secs:.6},");
    json.push_str("    \"estimators\": [\n");
    for (i, (tc, board)) in acc_curves.iter().zip(&boards).enumerate() {
        let (topo, est) = tc.label.split_once('/').expect("label is topo/estimator");
        let _ = write!(
            json,
            "      {{\"topology\": \"{}\", \"estimator\": \"{}\", \"decisions\": {}, \
             \"scored\": {}, \"mean_estimate\": {}, \"mean_oracle\": {}, \
             \"mean_abs_error\": {}, \"disagreement_rate\": {}}}",
            json_escape(topo),
            json_escape(est),
            board.decisions,
            board.scored,
            fmt_opt(board.mean_estimate()),
            fmt_opt(board.mean_oracle()),
            fmt_opt(board.mean_abs_error()),
            fmt_opt(board.disagreement_rate()),
        );
        json.push_str(if i + 1 < acc_curves.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");

    json.push_str("  \"telemetry_overhead\": {\n");
    let _ = writeln!(json, "    \"hardware_threads\": {hw},");
    let _ = writeln!(json, "    \"shards\": 1,");
    let _ = writeln!(json, "    \"reference_secs\": {reference_secs:.6},");
    let _ = writeln!(json, "    \"disabled_secs\": {disabled_secs:.6},");
    let _ = writeln!(json, "    \"enabled_secs\": {enabled_secs:.6},");
    let _ = writeln!(
        json,
        "    \"disabled_over_reference\": {disabled_over_reference:.4},"
    );
    let _ = writeln!(
        json,
        "    \"enabled_over_disabled\": {enabled_over_disabled:.4}"
    );
    json.push_str("  },\n");

    json.push_str("  \"health\": {\n");
    let _ = writeln!(json, "    \"watchdog_every\": 512,");
    let _ = writeln!(json, "    \"stalls\": {stalls},");
    let _ = writeln!(
        json,
        "    \"watchdog_transparent\": {watchdog_transparent},"
    );
    let _ = writeln!(json, "    \"converged\": {},", stats.converged);
    let _ = writeln!(
        json,
        "    \"warmup_throughput_drift\": {},",
        fmt_opt(stats.warmup_throughput_drift)
    );
    let _ = writeln!(
        json,
        "    \"warmup_latency_drift\": {},",
        fmt_opt(stats.warmup_latency_drift)
    );
    let _ = writeln!(json, "    \"watchdog_secs\": {watchdog_secs:.6},");
    let _ = writeln!(
        json,
        "    \"watchdog_over_disabled\": {watchdog_over_disabled:.4},"
    );
    let _ = writeln!(
        json,
        "    \"span_trace\": {{\"file\": \"BENCH_span_trace.json\", \"spans\": {}, \"shards\": {}}},",
        span_tree.len(),
        span_perf.shards
    );
    json.push_str("    \"wallclock_fields\": [");
    for (i, f) in WALLCLOCK_FIELDS.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{}\"", json_escape(f));
    }
    json.push_str("],\n");
    json.push_str("    \"wallclock_exact\": [");
    for (i, f) in WALLCLOCK_EXACT_KEYS.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{}\"", json_escape(f));
    }
    json.push_str("]\n");
    json.push_str("  },\n");

    json.push_str("  \"fault_sweep\": {\n");
    let _ = writeln!(json, "    \"hardware_threads\": {hw},");
    let _ = writeln!(json, "    \"shards\": 1,");
    let _ = writeln!(
        json,
        "    \"routing\": \"{}\",",
        json_escape(RoutingChoice::UgalLVcH.label())
    );
    let _ = writeln!(json, "    \"traffic\": \"uniform\",");
    let _ = writeln!(json, "    \"fault_seed\": 42,");
    let _ = writeln!(json, "    \"secs\": {fault_secs:.6},");
    let _ = writeln!(json, "    \"bit_identical\": {fault_identical},");
    let _ = writeln!(json, "    \"monotone\": {fault_monotone},");
    json.push_str("    \"points\": [");
    for (i, pt) in fault_points.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "{{\"fraction\": {:.6}, \"failed_links\": {}, \"throughput\": {:.6}}}",
            pt.fraction,
            pt.failed_links,
            pt.throughput()
        );
    }
    json.push_str("],\n");
    let _ = writeln!(
        json,
        "    \"heatmap\": {{\"fraction\": {:.6}, \"sample_every\": {fault_sample_every}, \
         \"rows\": {}, \"ticks\": {}, \"dropped_channels\": {}, \
         \"file_json\": \"BENCH_fault_heatmap.json\", \"file_gnuplot\": \"BENCH_fault_heatmap.dat\"}}",
        hot.fraction,
        fault_heatmap.rows.len(),
        fault_heatmap.ticks.len(),
        fault_heatmap.dropped,
    );
    json.push_str("  },\n");

    json.push_str("  \"workloads\": {\n");
    let _ = writeln!(json, "    \"hardware_threads\": {hw},");
    let _ = writeln!(
        json,
        "    \"network\": \"dragonfly p=2 a=4 h=2 (72 terminals)\","
    );
    let _ = writeln!(
        json,
        "    \"routing\": \"{}\",",
        json_escape(RoutingChoice::Min.label())
    );
    json.push_str("    \"jobs\": [");
    for (i, job) in wl_sweep.jobs.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "{{\"name\": \"{}\", \"size\": {}}}",
            json_escape(&job.name),
            job.size
        );
    }
    json.push_str("],\n");
    json.push_str("    \"background_loads\": [");
    for (i, l) in wl_loads.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "{l}");
    }
    json.push_str("],\n");
    let _ = writeln!(json, "    \"secs\": {wl_secs:.6},");
    let _ = writeln!(json, "    \"bit_identical\": {wl_identical},");
    json.push_str("    \"points\": [\n");
    for (i, pt) in wl_points.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"placement\": \"{}\", \"background_load\": {}, \"completion\": {}, \
             \"drained\": {}, \"jobs\": [",
            pt.placement.label(),
            pt.background_load,
            fmt_opt_u64(pt.stats.completion),
            pt.stats.drained,
        );
        for (j, (spec, book)) in wl_sweep.jobs.iter().zip(&pt.books).enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "{{\"name\": \"{}\", \"delivered\": {}, \"completion\": {}, \
                 \"p50_latency\": {}, \"p99_latency\": {}}}",
                json_escape(&spec.name),
                book.delivered,
                book.completion,
                fmt_opt_u64(book.latency.percentile(0.5)),
                fmt_opt_u64(book.latency.percentile(0.99)),
            );
        }
        json.push_str("]}");
        json.push_str(if i + 1 < wl_points.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    json.push_str("    \"slowdowns\": [");
    for (i, s) in wl_slowdowns.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "{{\"job\": \"{}\", \"background_load\": {}, \"disjoint\": {}, \
             \"interfering\": {}, \"ratio\": {:.4}}}",
            json_escape(&s.job),
            s.background_load,
            s.disjoint,
            s.interfering,
            s.ratio(),
        );
    }
    json.push_str("],\n");
    let _ = writeln!(json, "    \"registry\": {}", wl_registry.to_json());
    json.push_str("  },\n");

    let campaign_hits = grid_report.hits + fault_report.hits + wl_report.hits;
    let campaign_misses = grid_report.misses + fault_report.misses + wl_report.misses;
    let cached_matches_fresh =
        grid_cached_identical && fault_cached_identical && wl_cached_identical;
    json.push_str("  \"campaign\": {\n");
    let _ = writeln!(
        json,
        "    \"dir\": \"{}\",",
        json_escape(&store.dir().display().to_string())
    );
    let _ = writeln!(
        json,
        "    \"revision\": \"{}\",",
        json_escape(store.revision())
    );
    let _ = writeln!(
        json,
        "    \"grid\": {{\"hits\": {}, \"misses\": {}}},",
        grid_report.hits, grid_report.misses
    );
    let _ = writeln!(
        json,
        "    \"fault\": {{\"hits\": {}, \"misses\": {}}},",
        fault_report.hits, fault_report.misses
    );
    let _ = writeln!(
        json,
        "    \"workload\": {{\"hits\": {}, \"misses\": {}}},",
        wl_report.hits, wl_report.misses
    );
    let _ = writeln!(json, "    \"hits\": {campaign_hits},");
    let _ = writeln!(json, "    \"misses\": {campaign_misses},");
    let _ = writeln!(json, "    \"entries\": {},", store.len());
    let _ = writeln!(json, "    \"grid_cached_secs\": {grid_cached_secs:.6},");
    let _ = writeln!(json, "    \"cached_matches_fresh\": {cached_matches_fresh}");
    json.push_str("  }\n");
    json.push_str("}\n");

    let path = "BENCH_parallel_sweep.json";
    atomic_write(path, json.as_bytes()).expect("write baseline JSON");
    eprintln!("perfstat: wrote {path}");

    // The full telemetry artifact: complete latency histogram, every
    // channel's time series, the chrome-trace flit events and the full
    // scoreboard of the sampled small run, plus the estimator table.
    let mut tj = String::new();
    tj.push_str("{\n");
    let _ = writeln!(tj, "  \"benchmark\": \"telemetry\",");
    let _ = writeln!(tj, "  \"hardware_threads\": {hw},");
    let _ = writeln!(tj, "  \"shards\": 1,");
    let _ = writeln!(
        tj,
        "  \"network\": \"dragonfly p=2 a=4 h=2 (72 terminals)\","
    );
    let _ = writeln!(
        tj,
        "  \"routing\": \"{}\",",
        json_escape(RoutingChoice::UgalL.label())
    );
    let _ = writeln!(tj, "  \"traffic\": \"uniform\",");
    let _ = writeln!(tj, "  \"load\": 0.3,");
    let _ = writeln!(
        tj,
        "  \"windows\": {{\"warmup\": {}, \"measure\": {}, \"drain_cap\": {}}},",
        win.warmup, win.measure, win.drain_cap
    );
    let _ = writeln!(tj, "  \"sample_every\": {sample_every},");
    let _ = writeln!(tj, "  \"trace_rate\": {trace_rate},");
    let _ = writeln!(tj, "  \"trace_seed\": {trace_seed},");
    let _ = writeln!(
        tj,
        "  \"latency_histogram\": {},",
        tstats.latency_log.to_json()
    );
    let _ = writeln!(tj, "  \"scoreboard\": {},", tstats.scoreboard.to_json());
    let _ = writeln!(tj, "  \"series\": {},", series.to_json());
    let _ = writeln!(tj, "  \"chrome_trace\": {},", trace.to_chrome_json());
    tj.push_str("  \"estimator_accuracy\": [\n");
    for (i, (tc, board)) in acc_curves.iter().zip(&boards).enumerate() {
        let _ = write!(
            tj,
            "    {{\"label\": \"{}\", \"scoreboard\": {}}}",
            json_escape(&tc.label),
            board.to_json()
        );
        tj.push_str(if i + 1 < acc_curves.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    tj.push_str("  ]\n");
    tj.push_str("}\n");
    let tpath = "BENCH_telemetry.json";
    atomic_write(tpath, tj.as_bytes()).expect("write telemetry JSON");
    eprintln!("perfstat: wrote {tpath}");

    print!("{json}");
}

//! Regression test: fanning a run grid across a thread pool must
//! produce bit-identical statistics to executing it serially, in the
//! same order. This pins the determinism contract of the parallel
//! harness on the paper's 1K-node network, and — now that every
//! topology routes through the shared adaptive layer — one adaptive
//! sweep per baseline topology as well.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dfly_netsim::{CreditMode, InjectionKind, SimConfig, Simulation, TelemetryConfig, Termination};
use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};
use dfly_traffic::{
    AllReduce, Barrier, Bernoulli, Delivery, InjectionProcess, MessageIntent, OnOff, OpenLoop,
    UniformRandom, Workload,
};
use rand::rngs::SmallRng;

use dragonfly::butterfly::{ButterflyNetwork, ButterflyRouting};
use dragonfly::clos_sim::{ClosNetwork, ClosRouting};
use dragonfly::network::NetTopology;
use dragonfly::torus_sim::{TorusNetwork, TorusRouting};
use dragonfly::{
    FaultSweep, NetworkSim, RoutingChoice, RunGrid, RunPlan, TrafficChoice, UgalVariant,
};

#[test]
fn run_grid_parallel_matches_serial_on_paper_network() {
    let sim = dfly_bench::paper_network();
    let mut base = sim.config(0.1);
    base.warmup = 100;
    base.measure = 300;
    base.drain_cap = 4_000;
    base.seed = 7;

    let grid = RunGrid::cross(
        &[
            RoutingChoice::Min,
            RoutingChoice::Valiant,
            RoutingChoice::UgalLVcH,
        ],
        &[TrafficChoice::Uniform, TrafficChoice::WorstCase],
        &[0.05, 0.15],
        &base,
    );

    let serial = grid.execute_on(&sim, 1);
    for threads in [2, 4, 8] {
        let parallel = grid.execute_on(&sim, threads);
        assert_eq!(
            serial, parallel,
            "parallel ({threads} threads) diverged from serial"
        );
    }
}

/// The fault-degradation curve on the same 1K-node network: saturation
/// throughput with 0, 1/16 and 1/8 of the global cables failed must be
/// bit-identical serial vs pool, really fail links, never collapse to
/// zero, and fall monotonically — fewer cables cannot carry more.
#[test]
fn fault_sweep_on_1056_nodes_is_monotone_and_parallel_identical() {
    let sim = dfly_bench::paper_network();
    let mut cfg = sim.config(1.0);
    cfg.warmup = 100;
    cfg.measure = 300;
    cfg.seed = 1;
    let sweep = FaultSweep::new(
        *sim.dragonfly().params(),
        RoutingChoice::UgalLVcH,
        TrafficChoice::Uniform,
        &cfg,
        &[0.0, 1.0 / 16.0, 1.0 / 8.0],
        42,
    );
    let serial = sweep.execute_on(1).expect("fault plans must apply");
    let parallel = sweep.execute_on(4).expect("fault plans must apply");
    assert_eq!(serial, parallel, "parallel fault sweep diverged");
    let links: Vec<usize> = serial.iter().map(|pt| pt.failed_links).collect();
    assert_eq!(links, [0, 33, 66], "1/16 and 1/8 of 528 global cables");
    let curve: Vec<f64> = serial.iter().map(|pt| pt.throughput()).collect();
    assert!(curve.iter().all(|&t| t > 0.0), "collapsed: {curve:?}");
    assert!(
        curve.windows(2).all(|pair| pair[1] <= pair[0] + 1e-9),
        "fault curve not monotone: {curve:?}"
    );
}

#[test]
fn run_grid_deterministic_with_round_trip_credits() {
    // UGAL-L_CR flips on the credit round-trip machinery, exercising
    // the calendar-queue credit path under parallel fan-out.
    let sim = dfly_bench::paper_network();
    let mut base = sim.config(0.1);
    base.warmup = 100;
    base.measure = 200;
    base.drain_cap = 3_000;
    base.seed = 3;

    let mut grid = RunGrid::new();
    for &load in &[0.05, 0.1] {
        grid.push(RunPlan::at_load(
            RoutingChoice::UgalLCr,
            TrafficChoice::WorstCase,
            &base,
            load,
        ));
    }
    assert_eq!(grid.execute_on(&sim, 1), grid.execute_on(&sim, 4));
}

#[test]
fn repeated_parallel_executions_are_stable() {
    // Two parallel executions of the same grid (different scheduling)
    // must also agree with each other.
    let sim = dfly_bench::paper_network();
    let mut base = sim.config(0.2);
    base.warmup = 100;
    base.measure = 200;
    base.drain_cap = 3_000;
    base.seed = 11;

    let grid = RunGrid::cross(
        &[RoutingChoice::UgalG],
        &[TrafficChoice::Uniform],
        &[0.1, 0.2, 0.3],
        &base,
    );
    assert_eq!(grid.execute_on(&sim, 3), grid.execute_on(&sim, 3));
}

fn fast_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(0.1);
    cfg.warmup = 150;
    cfg.measure = 300;
    cfg.drain_cap = 5_000;
    cfg.seed = seed;
    // Telemetry on in every baseline sweep: the channel series and the
    // seeded flit trace are part of `RunStats` equality below, so the
    // serial-vs-parallel comparison pins their determinism too.
    cfg.telemetry = TelemetryConfig {
        sample_every: 16,
        trace_rate: 0.25,
        trace_seed: 9,
    };
    cfg
}

/// Telemetry must not perturb the simulation: the same grid with
/// sampling and tracing enabled yields the same core statistics, and
/// its trace/series/registry JSON is byte-identical between a serial
/// and a parallel execution.
#[test]
fn telemetry_output_bit_identical_serial_vs_parallel() {
    let sim = dragonfly::DragonflySim::new(dragonfly::DragonflyParams::new(2, 4, 2).unwrap());
    let mut base = sim.config(0.1);
    base.warmup = 150;
    base.measure = 300;
    base.drain_cap = 4_000;
    base.seed = 21;
    base.telemetry = TelemetryConfig {
        sample_every: 16,
        trace_rate: 0.25,
        trace_seed: 9,
    };
    let grid = RunGrid::cross(
        &[RoutingChoice::UgalL, RoutingChoice::UgalLVcH],
        &[TrafficChoice::Uniform],
        &[0.1, 0.2],
        &base,
    );

    let serial = grid.execute_on(&sim, 1);
    let serial_reg = grid.metrics(&serial);
    let parallel = grid.execute_on(&sim, 4);
    let parallel_reg = grid.metrics(&parallel);
    assert_eq!(serial, parallel, "telemetry-enabled grid diverged");
    assert_eq!(
        serial_reg.to_json(),
        parallel_reg.to_json(),
        "merged registries diverged"
    );
    for (s, p) in serial.iter().zip(&parallel) {
        let (st, pt) = (s.trace.as_ref().unwrap(), p.trace.as_ref().unwrap());
        assert!(!st.events.is_empty(), "tracer sampled no packets");
        assert_eq!(st.to_chrome_json(), pt.to_chrome_json());
        let (ss, ps) = (s.series.as_ref().unwrap(), p.series.as_ref().unwrap());
        assert!(!ss.ticks.is_empty(), "sampler recorded no ticks");
        assert_eq!(ss.to_json(), ps.to_json());
        assert_eq!(s.latency_log.to_json(), p.latency_log.to_json());
        assert_eq!(s.scoreboard.to_json(), p.scoreboard.to_json());
        assert!(s.scoreboard.scored > 0, "no scored adaptive decisions");
    }
}

/// One adaptive sweep per baseline topology: the parallel fan-out must
/// be bit-identical to running each load point serially, with the new
/// routing telemetry included in the comparison (`RunStats` equality
/// covers all of it).
#[test]
fn adaptive_sweeps_deterministic_on_every_topology() {
    let loads = [0.05, 0.15];

    // Flattened butterfly under UGAL-L(CR) — the credit-round-trip
    // estimator running on a non-dragonfly topology.
    let fb = NetworkSim::from(ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2)));
    let mut fb_cfg = fast_cfg(5);
    fb_cfg.credit_mode = CreditMode::round_trip();
    check_sweep_matches_serial(&fb, RoutingChoice::UgalLCr, &loads, &fb_cfg);

    // Folded Clos spreading over its equal-length uplinks adaptively.
    let clos = NetworkSim::from(ClosNetwork::new(FoldedClos::new(3, 8)));
    check_sweep_matches_serial(&clos, RoutingChoice::UgalL, &loads, &fast_cfg(6));

    // Torus choosing between the short and the long way around.
    let torus = NetworkSim::from(TorusNetwork::new(Torus::new(2, 4, 1)));
    check_sweep_matches_serial(&torus, RoutingChoice::UgalL, &loads, &fast_cfg(8));
}

/// A uniform-traffic sweep of `choice` on `sim`'s network, as one
/// [`RunGrid`] on the worker pool, against each load run serially with
/// the routing and pattern built by hand.
fn check_sweep_matches_serial<T: NetTopology + 'static>(
    sim: &NetworkSim<T>,
    choice: RoutingChoice,
    loads: &[f64],
    base: &SimConfig,
) {
    let grid = RunGrid::cross(&[choice], &[TrafficChoice::Uniform], loads, base);
    let parallel = grid.execute(sim);
    assert_eq!(parallel.len(), loads.len());
    let spec = sim.spec();
    let pattern = UniformRandom::new(spec.num_terminals());
    for (plan, stats) in grid.plans().iter().zip(&parallel) {
        let load = plan.load();
        let routing = choice.build(sim.shared_network());
        let serial = Simulation::new(spec, routing.as_ref(), &pattern, plan.cfg.clone())
            .unwrap()
            .finish();
        assert_eq!(
            &serial, stats,
            "{choice:?} sweep diverged from serial at load {load}",
        );
        assert!(stats.drained, "{choice:?} did not drain");
        // Struct equality already implies it, but the exported bytes
        // are the product — compare them directly too.
        if let (Some(st), Some(pt)) = (&serial.trace, &stats.trace) {
            assert!(!st.events.is_empty(), "{choice:?}: empty trace");
            assert_eq!(st.to_chrome_json(), pt.to_chrome_json());
        }
        if let (Some(ss), Some(ps)) = (&serial.series, &stats.series) {
            assert_eq!(ss.to_json(), ps.to_json());
        }
    }
}

/// Runs one `(spec, routing, pattern, cfg)` point at several shard
/// counts and asserts everything the engine emits is byte-identical to
/// the 1-shard run: the full `RunStats`, the chrome-trace bytes, the
/// channel-series JSON and the latency/scoreboard exports. Routing is
/// rebuilt per run so stateful estimators start fresh each time.
fn check_shard_counts_match(
    name: &str,
    spec: &dfly_netsim::NetworkSpec,
    make_routing: &dyn Fn() -> Box<dyn dfly_netsim::RoutingAlgorithm + Send + Sync>,
    pattern: &dyn dfly_traffic::TrafficPattern,
    base: &SimConfig,
) {
    let run = |shards: usize| {
        let routing = make_routing();
        let mut cfg = base.clone();
        cfg.shards = shards;
        let sim = Simulation::new(spec, routing.as_ref(), pattern, cfg).unwrap();
        let planned = sim.shard_count();
        (planned, sim.finish())
    };
    let (_, one) = run(1);
    assert!(one.drained, "{name}: 1-shard run did not drain");
    assert!(
        !one.trace.as_ref().unwrap().events.is_empty(),
        "{name}: tracer sampled no packets"
    );
    assert!(
        !one.series.as_ref().unwrap().ticks.is_empty(),
        "{name}: sampler recorded no ticks"
    );
    for shards in [2, 4] {
        let (planned, stats) = run(shards);
        assert_eq!(planned, shards, "{name}: planner fell back at {shards}");
        assert_eq!(stats, one, "{name}: {shards}-shard run diverged");
        assert_eq!(
            stats.trace.as_ref().unwrap().to_chrome_json(),
            one.trace.as_ref().unwrap().to_chrome_json(),
            "{name}: trace bytes diverged at {shards} shards"
        );
        assert_eq!(
            stats.series.as_ref().unwrap().to_json(),
            one.series.as_ref().unwrap().to_json(),
            "{name}: series bytes diverged at {shards} shards"
        );
        assert_eq!(stats.latency_log.to_json(), one.latency_log.to_json());
        assert_eq!(stats.scoreboard.to_json(), one.scoreboard.to_json());
    }
}

/// The sharded cycle engine must be bit-identical at 1, 2 and 4 shards
/// on all four topologies, with telemetry (series + trace) enabled.
/// The dragonfly leg runs UGAL with the EWMA estimator — the one
/// congestion estimator that keeps its own state — to pin its shard
/// independence too.
#[test]
fn sharded_engine_bit_identical_on_every_topology() {
    let df = dragonfly::DragonflySim::new(dragonfly::DragonflyParams::new(2, 4, 2).unwrap());
    let df_spec = df.spec().clone();
    let df_arc = df.shared_network();
    let df_pattern = UniformRandom::new(df_spec.num_terminals());
    check_shard_counts_match(
        "dragonfly/ugal-ewma",
        &df_spec,
        &|| RoutingChoice::UgalLEwma.build(Arc::clone(&df_arc)),
        &df_pattern,
        &fast_cfg(31),
    );

    // Round-trip credits across shards: UGAL-L_CR reads the `td`
    // registers the credit-timestamp queues feed, 4-flit packets keep
    // several credits per channel outstanding, and 3-cycle global
    // channels make the delayed credit returns staged between shards
    // land cycles after they were sent.
    let rt = dragonfly::DragonflySim::new(dragonfly::Dragonfly::with_latencies(
        dragonfly::DragonflyParams::new(2, 4, 2).unwrap(),
        dragonfly::ChannelLatencies {
            terminal: 1,
            local: 1,
            global: 3,
        },
    ));
    let rt_spec = rt.spec().clone();
    let rt_arc = rt.shared_network();
    let mut rt_cfg = fast_cfg(36);
    rt_cfg.credit_mode = CreditMode::round_trip();
    rt_cfg.packet_len = 4;
    check_shard_counts_match(
        "dragonfly/ugal-l_cr round-trip",
        &rt_spec,
        &|| RoutingChoice::UgalLCr.build(Arc::clone(&rt_arc)),
        &df_pattern,
        &rt_cfg,
    );

    // The armed stall watchdog is one more thing the shards rendezvous
    // on: checking every 512 cycles (four checkpoints in this window)
    // it must leave the statistics of the disarmed 1-shard run
    // untouched at 1 and at 4 shards, and the engine must really run
    // the shard count it was asked for.
    let mut wd_cfg = fast_cfg(35);
    wd_cfg.injection = InjectionKind::Bernoulli { rate: 0.3 };
    wd_cfg.warmup = 500;
    wd_cfg.measure = 2_000;
    let run_ugal_l = |shards: usize, watchdog_every: u64| {
        let routing = RoutingChoice::UgalL.build(Arc::clone(&df_arc));
        let mut cfg = wd_cfg.clone().with_watchdog(watchdog_every);
        cfg.shards = shards;
        Simulation::new(&df_spec, routing.as_ref(), &df_pattern, cfg)
            .unwrap()
            .run_instrumented()
    };
    let (disarmed, _) = run_ugal_l(1, 0);
    for shards in [1, 4] {
        let (armed, perf) = run_ugal_l(shards, 512);
        assert_eq!(perf.shards, shards, "engine ignored the shard count");
        assert_eq!(
            armed, disarmed,
            "watchdog perturbed the {shards}-shard dragonfly run"
        );
    }

    let fb = Arc::new(ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2)));
    let fb_spec = fb.build_spec();
    let fb_pattern = UniformRandom::new(fb_spec.num_terminals());
    check_shard_counts_match(
        "butterfly/ugal-l",
        &fb_spec,
        &|| Box::new(ButterflyRouting::ugal(Arc::clone(&fb), UgalVariant::Local)),
        &fb_pattern,
        &fast_cfg(32),
    );

    let clos = Arc::new(ClosNetwork::new(FoldedClos::new(3, 8)));
    let clos_spec = clos.build_spec();
    let clos_pattern = UniformRandom::new(clos_spec.num_terminals());
    check_shard_counts_match(
        "clos/adaptive",
        &clos_spec,
        &|| Box::new(ClosRouting::ugal(Arc::clone(&clos), UgalVariant::Local)),
        &clos_pattern,
        &fast_cfg(33),
    );

    let torus = Arc::new(TorusNetwork::new(Torus::new(2, 4, 1)));
    let torus_spec = torus.build_spec();
    let torus_pattern = UniformRandom::new(torus_spec.num_terminals());
    check_shard_counts_match(
        "torus/adaptive",
        &torus_spec,
        &|| Box::new(TorusRouting::ugal(Arc::clone(&torus), UgalVariant::Local)),
        &torus_pattern,
        &fast_cfg(34),
    );
}

/// Sharding composes with link faults: a dragonfly with an eighth of
/// its global cables failed must still be bit-identical across shard
/// counts (fault-table views are read-only during a run).
#[test]
fn sharded_engine_bit_identical_with_faults() {
    let params = dragonfly::DragonflyParams::new(2, 4, 2).unwrap();
    let plan = dfly_netsim::FaultPlan::random_global(1.0 / 8.0, 17);
    let run = |shards: usize| {
        let sim = dragonfly::DragonflySim::with_faults(params, &plan).unwrap();
        let mut cfg = fast_cfg(35);
        cfg.shards = shards;
        let (stats, perf) =
            sim.run_instrumented(RoutingChoice::UgalLVcH, TrafficChoice::Uniform, cfg);
        (perf.shards, stats)
    };
    let (_, one) = run(1);
    assert!(one.drained, "faulted 1-shard run did not drain");
    assert!(
        one.routing.fault_avoided_decisions > 0,
        "faults never steered a decision"
    );
    for shards in [2, 4] {
        let (planned, stats) = run(shards);
        assert_eq!(planned, shards, "faulted planner fell back at {shards}");
        assert_eq!(stats, one, "faulted {shards}-shard run diverged");
    }
}

/// The grid-level registry merge on top of sharded runs: the merged
/// metrics registry must export byte-identical JSON whatever the shard
/// count of the individual runs.
#[test]
fn sharded_runs_keep_registry_json_identical() {
    let sim = dragonfly::DragonflySim::new(dragonfly::DragonflyParams::new(2, 4, 2).unwrap());
    let reg_json = |shards: usize| {
        let mut base = fast_cfg(36);
        base.shards = shards;
        let grid = RunGrid::cross(
            &[RoutingChoice::UgalL],
            &[TrafficChoice::Uniform],
            &[0.1, 0.2],
            &base,
        );
        let stats = grid.execute_on(&sim, 2);
        let json = grid.metrics(&stats).to_json();
        (stats, json)
    };
    let (stats1, json1) = reg_json(1);
    for shards in [2, 4] {
        let (stats, json) = reg_json(shards);
        assert_eq!(stats, stats1, "grid stats diverged at {shards} shards");
        assert_eq!(json, json1, "registry JSON diverged at {shards} shards");
    }
}

/// Runs one closed-loop workload to completion at 1, 2 and 4 shards
/// and asserts the full `RunStats` — including the completion cycle —
/// is bit-identical. The factory hands every shard a fresh workload
/// instance; the instances coordinate only through simulated delivery
/// notes, so the shard count must not be observable in the results.
fn check_workload_shard_counts(
    name: &str,
    factory: &(dyn Fn(std::ops::Range<usize>) -> Box<dyn Workload + Send> + Sync),
) {
    let sim = dragonfly::DragonflySim::new(dragonfly::DragonflyParams::new(2, 4, 2).unwrap());
    let run = |shards: usize| {
        let mut cfg = SimConfig::paper_default(0.0);
        cfg.warmup = 0;
        cfg.measure = 30_000;
        cfg.drain_cap = 30_000;
        cfg.seed = 41;
        cfg.termination = Termination::WorkComplete;
        cfg.shards = shards;
        sim.run_workload(RoutingChoice::Min, cfg, factory)
    };
    let one = run(1);
    assert!(one.drained, "{name}: 1-shard run did not drain");
    assert!(one.completion.is_some(), "{name}: workload never completed");
    for shards in [2, 4] {
        assert_eq!(run(shards), one, "{name}: {shards}-shard run diverged");
    }
}

/// Closed-loop collectives through the sharded engine: a barrier, a
/// ring all-reduce and a recursive-doubling all-reduce — each spanning
/// members in every group — must complete bit-identically at 1, 2 and
/// 4 shards.
#[test]
fn closed_loop_collectives_bit_identical_across_shard_counts() {
    // 24 members spread over all 9 groups of the 72-terminal network,
    // so every collective crosses shard boundaries at 2 and 4 shards.
    let spread: Vec<usize> = (0..72).step_by(3).collect();
    check_workload_shard_counts("barrier", &|_range| {
        Box::new(Barrier::new(spread.clone(), 3))
    });
    check_workload_shard_counts("all-reduce/ring", &|_range| {
        Box::new(AllReduce::ring(spread.clone()))
    });
    let pow2: Vec<usize> = (0..64).step_by(4).collect();
    check_workload_shard_counts("all-reduce/recursive-doubling", &|_range| {
        Box::new(AllReduce::recursive_doubling(pow2.clone()))
    });
}

/// The multi-tenant workload sweep must produce bit-identical results
/// — `RunStats` and the per-job ledger books alike — whatever the
/// sweep-level thread count and whatever the engine-level shard count
/// of the individual runs.
#[test]
fn workload_sweep_books_identical_across_threads_and_shards() {
    let params = dragonfly::DragonflyParams::new(2, 4, 2).unwrap();
    let jobs = vec![
        dragonfly::JobSpec::all_to_all("alpha", 8),
        dragonfly::JobSpec::all_to_all("beta", 8),
    ];
    let run = |shards: usize, threads: usize| {
        let mut cfg = SimConfig::paper_default(0.0);
        cfg.warmup = 0;
        cfg.measure = 30_000;
        cfg.drain_cap = 30_000;
        cfg.seed = 13;
        cfg.shards = shards;
        let sweep = dragonfly::WorkloadSweep::new(
            params,
            RoutingChoice::Min,
            jobs.clone(),
            &cfg,
            &[0.0, 0.3],
        );
        sweep.execute_on(threads).expect("sweep must run")
    };
    let baseline = run(1, 1);
    for point in &baseline {
        assert!(
            point.stats.completion.is_some(),
            "{:?} @ bg {} never completed",
            point.placement,
            point.background_load
        );
        for book in &point.books {
            assert_eq!(book.delivered, 56, "all-to-all of 8 sends 56 packets");
        }
    }
    for (shards, threads) in [(1, 4), (2, 1), (2, 4), (4, 2)] {
        let other = run(shards, threads);
        assert_eq!(
            baseline.len(),
            other.len(),
            "point count changed at {shards} shards / {threads} threads"
        );
        for (b, o) in baseline.iter().zip(&other) {
            assert_eq!(
                b.stats, o.stats,
                "sweep stats diverged at {shards} shards / {threads} threads"
            );
            assert_eq!(
                b.books, o.books,
                "job books diverged at {shards} shards / {threads} threads"
            );
        }
    }
}

/// Test-only judge for the terminal wake calendar: forwards a workload
/// unchanged except that, with `parks` off, it keeps the default
/// `quiet_until` — so the engine polls every terminal every cycle, the
/// way it did before terminals could be parked. Counts `offer` calls.
struct Probe<W> {
    inner: W,
    parks: bool,
    offers: Arc<AtomicU64>,
}

impl<W> Probe<W> {
    fn polled_every_cycle(inner: W) -> Self {
        Probe {
            inner,
            parks: false,
            offers: Arc::default(),
        }
    }
}

impl<W: Workload> Workload for Probe<W> {
    fn offer(&mut self, terminal: usize, cycle: u64, rng: &mut SmallRng) -> Option<MessageIntent> {
        self.offers.fetch_add(1, Ordering::Relaxed);
        self.inner.offer(terminal, cycle, rng)
    }

    fn quiet_until(&mut self, terminal: usize, cycle: u64, rng: &mut SmallRng) -> u64 {
        if self.parks {
            self.inner.quiet_until(terminal, cycle, rng)
        } else {
            cycle + 1
        }
    }

    fn delivered(&mut self, terminal: usize, msg: &Delivery, cycle: u64) {
        self.inner.delivered(terminal, msg, cycle);
    }

    fn wants_delivery(&self) -> bool {
        self.inner.wants_delivery()
    }

    fn all_done(&self) -> bool {
        self.inner.all_done()
    }
}

/// Parking open-loop terminals on the wake calendar must be invisible:
/// the engine's own open-loop run equals the same source polled every
/// cycle, for memoryless and bursty injection, one- and four-flit
/// packets, and with MIN (no draws at the source router) as well as
/// UGAL-L (route draws interleave with the injection trials on each
/// terminal's generator), at 1, 2 and 4 shards.
#[test]
fn wake_calendar_matches_polling_every_cycle_open_loop() {
    fn check<P: InjectionProcess + Clone + Send>(
        sim: &dragonfly::DragonflySim,
        routing: RoutingChoice,
        kind: InjectionKind,
        proc: &P,
        packet_len: usize,
    ) {
        let spec = sim.spec();
        let pattern = UniformRandom::new(spec.num_terminals());
        for shards in [1, 2, 4] {
            let mut cfg = SimConfig::paper_default(0.0);
            cfg.injection = kind;
            cfg.packet_len = packet_len;
            cfg.warmup = 200;
            cfg.measure = 1_500;
            cfg.drain_cap = 5_000;
            cfg.seed = 51;
            cfg.shards = shards;
            let routing_a = routing.build(sim.shared_network());
            let parked = Simulation::new(spec, routing_a.as_ref(), &pattern, cfg.clone())
                .unwrap()
                .finish();
            let routing_b = routing.build(sim.shared_network());
            let polled = Simulation::with_workload(spec, routing_b.as_ref(), cfg, |range| {
                Box::new(Probe::polled_every_cycle(OpenLoop::new(
                    proc, range, &pattern,
                )))
            })
            .unwrap()
            .finish();
            assert!(parked.drained && parked.latency.count > 0);
            assert_eq!(
                parked, polled,
                "{routing:?} {kind:?} x{packet_len} at {shards} shard(s)"
            );
        }
    }
    let sim = dragonfly::DragonflySim::new(dragonfly::DragonflyParams::new(2, 4, 2).unwrap());
    for routing in [RoutingChoice::Min, RoutingChoice::UgalL] {
        for packet_len in [1, 4] {
            let rate = 0.08 / packet_len as f64;
            check(
                &sim,
                routing,
                InjectionKind::Bernoulli { rate },
                &Bernoulli::new(rate),
                packet_len,
            );
            let (burst_len, duty) = (12.0, 0.25);
            check(
                &sim,
                routing,
                InjectionKind::MarkovOnOff {
                    rate,
                    burst_len,
                    duty,
                },
                &OnOff::with_rate_and_duty(rate, burst_len, duty).unwrap(),
                packet_len,
            );
        }
    }
}

/// The same judge over a closed loop: two collectives (polled every
/// cycle either way — their offers react to deliveries) with open-loop
/// background on the remaining terminals, which parks.
#[test]
fn wake_calendar_matches_polling_every_cycle_job_mix() {
    let params = dragonfly::DragonflyParams::new(2, 4, 2).unwrap();
    let sim = dragonfly::DragonflySim::new(params);
    let mix = dragonfly::JobMix::new(
        vec![
            dragonfly::JobSpec::all_to_all("alpha", 8),
            dragonfly::JobSpec::barrier("beta", 8, 3),
        ],
        dragonfly::Placement::Interfering,
    )
    .with_background(0.1);
    let assignment = mix.assign(&params).unwrap();
    let run = |shards: usize, parks: bool| {
        let mut cfg = SimConfig::paper_default(0.0);
        cfg.warmup = 0;
        cfg.measure = 30_000;
        cfg.drain_cap = 30_000;
        cfg.seed = 52;
        cfg.termination = Termination::WorkComplete;
        cfg.shards = shards;
        let ledger = mix.ledger();
        let stats = sim.run_workload(RoutingChoice::UgalL, cfg, &|range| {
            Box::new(Probe {
                inner: mix.workload(&assignment, range, &ledger),
                parks,
                offers: Arc::default(),
            })
        });
        (stats, ledger.snapshot())
    };
    let reference = run(1, false);
    assert!(reference.0.completion.is_some(), "mix never completed");
    for shards in [1, 2, 4] {
        assert_eq!(
            run(shards, true),
            reference,
            "parked job mix diverged at {shards} shard(s)"
        );
    }
}

/// What the calendar buys: at load 0.01 a terminal is offered on the
/// cycles it fires or still holds flits, not on every cycle.
#[test]
fn parked_terminals_are_rarely_offered() {
    let sim = dragonfly::DragonflySim::new(dragonfly::DragonflyParams::new(2, 4, 2).unwrap());
    let spec = sim.spec();
    let pattern = UniformRandom::new(spec.num_terminals());
    let routing = RoutingChoice::Min.build(sim.shared_network());
    let mut cfg = SimConfig::paper_default(0.01);
    cfg.warmup = 200;
    cfg.measure = 3_000;
    cfg.seed = 53;
    let offers = Arc::new(AtomicU64::new(0));
    let stats = Simulation::with_workload(spec, routing.as_ref(), cfg, |range| {
        Box::new(Probe {
            inner: OpenLoop::new(&Bernoulli::new(0.01), range, &pattern),
            parks: true,
            offers: Arc::clone(&offers),
        })
    })
    .unwrap()
    .finish();
    assert!(stats.drained && stats.latency.count > 0);
    let every_cycle = spec.num_terminals() as u64 * stats.cycles;
    let offers = offers.load(Ordering::Relaxed);
    assert!(
        offers * 20 < every_cycle,
        "{offers} offers is not under 5 % of {every_cycle} terminal-cycles"
    );
}

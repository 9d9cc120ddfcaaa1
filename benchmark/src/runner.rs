//! Runs one workload in this process: reference run, one untimed rep,
//! timed reps until the time budget is spent, output checks, and the
//! metrics of the untraced or the traced run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dfly_netsim::{RunStats, SimPerf};

use crate::json::Value;
use crate::measure::{nproc, peak_rss_mb, quantile, Stat};
use crate::registry::{self, Tier, METRICS};
use crate::trace::Tracer;
use crate::workloads::{
    probe_build, probe_empty_cells, probe_kernels, probe_store, spec, Mode, Rep, Results, Size,
    Spec,
};

/// The phase-share metrics, in `SimPerf::PHASE_NAMES` order.
const PHASE_SHARE: [&str; 5] = [
    "netsim.sim.phase_share.credits",
    "netsim.sim.phase_share.arrivals",
    "netsim.sim.phase_share.switch",
    "netsim.sim.phase_share.transmit",
    "netsim.sim.phase_share.inject",
];

/// What to run and how.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Feeds `SimConfig::seed`; nothing else identifies a workload to
    /// the simulator.
    pub seed: u64,
    /// Time budget of the timed reps.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
    /// Workload sizes.
    pub size: Size,
    /// Where the campaign's scratch store lives.
    pub out_dir: PathBuf,
}

/// The directory result documents, traces and scratch stores go to.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Why the workload was not run, if it was not.
    pub skipped: Option<String>,
    /// Pool workers used.
    pub threads: usize,
    /// Engine shards used.
    pub shards: usize,
    /// Timed untraced reps.
    pub reps: usize,
    /// Cells attempted (reference run and every rep).
    pub attempted: u64,
    /// Cells that failed an output check.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// FNV-1a of the untimed rep's results (information, not a metric).
    pub fingerprint: u64,
    /// Metric values, in registry order.
    pub metrics: Vec<(&'static str, Stat)>,
    /// Extra facts for the document (sample counts, reference walls).
    pub info: Vec<(&'static str, f64)>,
    /// Spans of the traced run.
    pub tracer: Tracer,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Counts `cells` attempted, and failed if `problems` is non-empty: a
    /// rep's cells fail together, because a rep whose results are wrong
    /// has no trustworthy timing either. Returns whether they passed.
    fn record(&mut self, what: &str, cells: u64, problems: &[String]) -> bool {
        self.attempted += cells;
        if problems.is_empty() {
            return true;
        }
        self.failed += cells;
        self.failures
            .extend(problems.iter().map(|p| format!("{what}: {p}")));
        false
    }

    /// The value of metric `name`, if emitted.
    pub fn metric(&self, name: &str) -> Option<Stat> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    /// The workload's entry in a result document.
    pub fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        for (name, stat) in &self.metrics {
            metrics.set(
                name,
                Value::obj()
                    .with("value", stat.median)
                    .with("unit", registry::metric(name).unit)
                    .with("min", stat.min)
                    .with("max", stat.max)
                    .with("n", stat.n),
            );
        }
        let mut info = Value::obj();
        for (key, value) in &self.info {
            info.set(key, *value);
        }
        Value::obj()
            .with(
                "status",
                if self.skipped.is_some() {
                    "skipped"
                } else {
                    "ok"
                },
            )
            .with(
                "skipped_because",
                self.skipped.clone().map_or(Value::Null, Value::from),
            )
            .with("threads", self.threads)
            .with("shards", self.shards)
            .with("reps", self.reps)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("failures", self.failures.clone())
            .with("sim_fingerprint", format!("{:016x}", self.fingerprint))
            .with("metrics", metrics)
            .with("info", info)
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and the contract's metrics of this run's tier.
    pub fn driver_line(&self) -> String {
        let mut metrics = Value::obj();
        for (name, stat) in &self.metrics {
            let def = registry::metric(name);
            if def.in_contract() {
                metrics.set(
                    name,
                    Value::obj()
                        .with("value", stat.median)
                        .with("unit", def.unit),
                );
            }
        }
        Value::obj()
            .with("correct", self.failed == 0)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_line()
    }
}

/// Runs workload `name`.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates names first)
/// and on simulator errors that correct inputs cannot cause.
pub fn run_workload(name: &str, opts: &RunOpts) -> Outcome {
    let def = registry::workload(name).unwrap_or_else(|| panic!("unknown workload '{name}'"));
    let spec = spec(name, opts.size, nproc()).expect("every registry workload has a spec");
    run_spec(def.name, &spec, opts)
}

/// Runs `spec` under the name `workload` — the seam tests use to run a
/// deliberately wrong spec.
pub fn run_spec(workload: &'static str, spec: &Spec, opts: &RunOpts) -> Outcome {
    let def = registry::workload(workload).expect("a registry workload");
    let mut outcome = Outcome {
        workload,
        skipped: None,
        threads: spec.threads(),
        shards: spec.shards(),
        reps: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        fingerprint: 0,
        metrics: Vec::new(),
        info: Vec::new(),
        tracer: Tracer::new(opts.trace),
    };
    // Two workers on one core would measure the scheduler, not the pool
    // or the barrier (the mistake of the old BENCH_* files).
    if nproc() < def.needs_threads {
        outcome.skipped = Some(format!(
            "needs {} hardware threads, this machine has {}",
            def.needs_threads,
            nproc()
        ));
        return outcome;
    }
    std::fs::create_dir_all(&opts.out_dir).expect("create the benchmark's out/ directory");

    let mut off = Tracer::new(false);
    let reference = spec.reference(opts.seed);

    // One untimed rep: fills caches and the allocator, and fixes the
    // results every later rep must reproduce.
    let first = spec.rep(opts.seed, Mode::Plain, &opts.out_dir, &mut off);
    let mut problems = first.problems.clone();
    if let Some((expected, _)) = &reference {
        outcome.attempted += expected.stats().len() as u64;
        if *expected != first.results {
            problems.push(match spec {
                Spec::Engine(_) => "sharded run differs from the same run at 1 shard".to_string(),
                Spec::Sweep(_) => "pool results differ from the 1-thread grid".to_string(),
                _ => "cached results differ from a fresh simulation".to_string(),
            });
        }
    }
    outcome.record("untimed rep", first.cells, &problems);
    outcome.fingerprint = fingerprint(&first.results);

    // Set-up alone, many more times: below 262K terminals it takes micro-
    // to milliseconds, and one sample per rep is too few for a steady
    // median.
    let mut setups = Vec::new();
    if !opts.trace {
        let clock = Instant::now();
        let extra = if opts.size == Size::Full { 200 } else { 1 };
        while setups.len() < extra && clock.elapsed() < Duration::from_millis(500) {
            setups.push(spec.setup_only(opts.seed, &opts.out_dir));
        }
    }

    let min_reps = match (opts.size, opts.trace) {
        (Size::Smoke, _) => 1,
        (Size::Full, false) => 3,
        (Size::Full, true) => 2,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut stepped: Option<Rep> = None;
    let check = |outcome: &mut Outcome, what: &str, mut rep: Rep, keep: &mut Vec<Rep>| {
        let mut problems = std::mem::take(&mut rep.problems);
        if rep.results != first.results {
            problems.push("results differ from the untimed rep".into());
        }
        // Keep the timings only: holding every rep's results would make
        // `peak_rss_mb` grow with the number of reps the budget allowed.
        rep.results = Results::Runs(Vec::new());
        if outcome.record(what, rep.cells, &problems) {
            keep.push(rep);
        }
    };
    let mut rounds = 0u32;
    while rounds < min_reps || Instant::now() < deadline {
        rounds += 1;
        outcome.tracer.rep = rounds;
        let rep = spec.rep(opts.seed, Mode::Plain, &opts.out_dir, &mut off);
        check(&mut outcome, "rep", rep, &mut plain);
        if opts.trace {
            let rep = spec.rep(opts.seed, Mode::Traced, &opts.out_dir, &mut outcome.tracer);
            check(&mut outcome, "traced rep", rep, &mut traced);
            // One stepped rep holds thousands of per-cycle samples.
            let one_shard_engine = matches!(spec, Spec::Engine(e) if e.shards == 1);
            if one_shard_engine && stepped.is_none() {
                let rep = spec.rep(opts.seed, Mode::Stepped, &opts.out_dir, &mut outcome.tracer);
                let mut kept = Vec::new();
                check(&mut outcome, "stepped rep", rep, &mut kept);
                stepped = kept.pop();
            }
        }
    }
    outcome.tracer.rep = 0;
    outcome.reps = plain.len();
    if plain.is_empty() || (opts.trace && traced.is_empty()) {
        // Every rep failed its checks: there is nothing to time.
        return outcome;
    }

    let measured = Measured {
        spec,
        opts,
        cells: first.results.stats(),
        wall: Stat::of(&plain.iter().map(|r| r.wall_s).collect::<Vec<f64>>()),
        reference_wall: reference.as_ref().map(|(_, wall)| *wall),
        first: &first,
        plain: &plain,
        traced: &traced,
        stepped: stepped.as_ref(),
    };
    let values = if opts.trace {
        measured.per_layer(&mut outcome)
    } else {
        setups.extend(plain.iter().map(|r| r.setup_s));
        measured.end_to_end(&setups, outcome.failed_share())
    };

    // Registry order; a per-layer metric the workload does not exercise
    // (or that cannot be seen from outside on it) reads 0.
    let tier = if opts.trace {
        Tier::PerLayer
    } else {
        Tier::EndToEnd
    };
    for def in METRICS.iter().filter(|m| m.tier == tier) {
        match values.iter().find(|(name, _)| *name == def.name) {
            Some(&(name, stat)) => {
                assert!(
                    def.applies_to(workload),
                    "{name} is not declared for {workload}"
                );
                outcome.metrics.push((name, stat));
            }
            None if tier == Tier::PerLayer => outcome.metrics.push((def.name, Stat::exact(0.0))),
            None => assert!(
                !def.applies_to(workload),
                "{} missing on {workload}",
                def.name
            ),
        }
    }
    outcome
}

/// What the reps of one workload run measured, and the quantities both
/// metric tiers derive from it.
struct Measured<'a> {
    spec: &'a Spec,
    opts: &'a RunOpts,
    /// The untimed rep: the results every other rep reproduced.
    first: &'a Rep,
    /// Its cells' engine statistics.
    cells: Vec<&'a RunStats>,
    /// Wall of the reference run (1 shard / 1 thread / uncached).
    reference_wall: Option<f64>,
    plain: &'a [Rep],
    traced: &'a [Rep],
    stepped: Option<&'a Rep>,
    /// Body wall of the timed untraced reps.
    wall: Stat,
}

impl Measured<'_> {
    fn cycles(&self) -> u64 {
        self.cells.iter().map(|s| s.cycles).sum()
    }

    fn terminals(&self) -> f64 {
        self.spec.params().num_terminals() as f64
    }

    /// The end-to-end metrics of the untraced run.
    fn end_to_end(&self, setups: &[f64], failed_share: f64) -> Vec<(&'static str, Stat)> {
        let Measured {
            spec,
            cells,
            plain,
            wall,
            ..
        } = self;
        let (wall, cycles, terminals) = (*wall, self.cycles(), self.terminals());
        let body_cells = self.first.cells as f64;
        let mut values: Vec<(&'static str, Stat)> = Vec::new();
        let mut put = |name: &'static str, stat: Stat| values.push((name, stat));
        put("setup_s", Stat::of(setups));
        put("wall_s", wall);
        put("sim_cycles_per_s", wall.map(|w| cycles as f64 / w));
        put("cells_per_s", wall.map(|w| body_cells / w));
        if let Spec::Campaign(c) = spec {
            let n = cells.len() as f64;
            let leg = |pick: fn(&(f64, f64)) -> f64| -> Vec<f64> {
                plain
                    .iter()
                    .filter_map(|r| r.legs.as_ref().map(pick))
                    .collect()
            };
            put("cold_cells_per_s", Stat::of(&leg(|l| l.0)).map(|s| n / s));
            put(
                "warm_cells_per_s",
                Stat::of(&leg(|l| l.1)).map(|s| n * c.reruns as f64 / s),
            );
        }
        put("peak_rss_mb", Stat::exact(peak_rss_mb()));
        put("failed_share", Stat::exact(failed_share));
        put(
            "sim_accepted_rate",
            Stat::exact(accepted_rate(cells, terminals)),
        );
        let latency: (u64, u64) = cells.iter().fold((0, 0), |(sum, n), s| {
            (sum + s.latency.sum, n + s.latency.count)
        });
        put(
            "sim_avg_latency_cycles",
            Stat::exact(latency.0 as f64 / latency.1.max(1) as f64),
        );
        put("sim_p99_latency_cycles", Stat::exact(p99_latency(cells)));
        if matches!(spec, Spec::Jobs(_)) {
            put("sim_completion_cycles", Stat::exact(cycles as f64));
        }
        values
    }

    /// The per-layer metrics of the traced run; runs the layer probes.
    fn per_layer(&self, outcome: &mut Outcome) -> Vec<(&'static str, Stat)> {
        let Measured {
            spec,
            opts,
            first,
            cells,
            plain,
            traced,
            stepped,
            wall,
            ..
        } = self;
        let (wall, cycles, terminals) = (*wall, self.cycles(), self.terminals());
        let ref_wall = self.reference_wall;
        let mut values: Vec<(&'static str, Stat)> = Vec::new();
        let mut put = |name: &'static str, stat: Stat| values.push((name, stat));
        // Read the high-water mark before the probes allocate.
        let rss_bytes = peak_rss_mb() * 1024.0 * 1024.0;
        let tr = &mut outcome.tracer;
        probe_build(spec, opts.seed, tr);
        let kernels = probe_kernels(spec.params(), opts.seed, opts.size, tr);
        let span_stat = |tr: &Tracer, name: &str, scale: f64| -> Stat {
            Stat::of(&tr.durations(name)).map(|s| s * scale)
        };
        let perfs: Vec<&SimPerf> = traced.iter().filter_map(|r| r.perf.as_ref()).collect();
        let per_perf = |f: &dyn Fn(&SimPerf) -> f64| -> Stat {
            Stat::of(&perfs.iter().map(|p| f(p)).collect::<Vec<f64>>())
        };

        put(
            "core.topology.build_s",
            span_stat(tr, "core.topology.build", 1.0),
        );
        put(
            "core.routing.build_us",
            span_stat(tr, "core.routing.build", 1e6),
        );
        put(
            "core.routing.route_ns_per_hop.min",
            Stat::of(&kernels.route_min_ns),
        );
        put(
            "core.routing.route_ns_per_hop.ugal_l",
            Stat::of(&kernels.route_ugal_ns),
        );
        let takes = cells.iter().fold((0u64, 0u64), |(min, non), s| {
            (
                min + s.routing.minimal_takes,
                non + s.routing.non_minimal_takes,
            )
        });
        put(
            "core.routing.nonminimal_share",
            Stat::exact(takes.1 as f64 / (takes.0 + takes.1).max(1) as f64),
        );
        put(
            "core.routing.adaptive_decisions",
            Stat::exact(
                cells
                    .iter()
                    .map(|s| s.routing.adaptive_decisions)
                    .sum::<u64>() as f64,
            ),
        );
        put(
            "traffic.pattern.destination_ns.ur",
            Stat::of(&kernels.dest_ur_ns),
        );
        put(
            "traffic.pattern.destination_ns.wc",
            Stat::of(&kernels.dest_wc_ns),
        );
        put("netsim.sim.new_s", span_stat(tr, "netsim.sim.new", 1.0));
        if !perfs.is_empty() {
            for (i, name) in PHASE_SHARE.into_iter().enumerate() {
                put(
                    name,
                    per_perf(&|p| p.phases[i].as_secs_f64() / p.wall.as_secs_f64()),
                );
            }
            put(
                "netsim.sim.ns_per_flit_hop",
                per_perf(&|p| p.wall.as_secs_f64() * 1e9 / p.flit_hops.max(1) as f64),
            );
        }
        // Campaign: only the fill simulates, so only its leg counts.
        let sim_walls: Vec<f64> = plain
            .iter()
            .map(|r| r.legs.map_or(r.wall_s, |(cold, _)| cold))
            .collect();
        let sim_wall = Stat::of(&sim_walls);
        put(
            "netsim.sim.ns_per_terminal_cycle",
            sim_wall.map(|w| w * 1e9 / (terminals * cycles as f64)),
        );
        if let Some(rep) = &stepped {
            let mut ns = rep.cycle_ns.clone();
            outcome.info.push(("cycle_samples", ns.len() as f64));
            outcome.info.push(("stepped_wall_s", rep.wall_s));
            put(
                "netsim.sim.cycle_us_p50",
                Stat::exact(f64::from(quantile(&mut ns, 0.50)) / 1e3),
            );
            put(
                "netsim.sim.cycle_us_p99",
                Stat::exact(f64::from(quantile(&mut ns, 0.99)) / 1e3),
            );
        }
        match spec {
            Spec::Engine(e) if e.shards > 1 => {
                let one = ref_wall.expect("sharded runs have a 1-shard reference");
                outcome.info.push(("one_shard_wall_s", one));
                put("netsim.shard.speedup_over_1", wall.map(|w| one / w));
                put(
                    "netsim.shard.barrier_share",
                    per_perf(&|p| {
                        let work: f64 = p.phases.iter().map(Duration::as_secs_f64).sum();
                        1.0 - work / p.wall.as_secs_f64()
                    }),
                );
                put(
                    "netsim.shard.imbalance",
                    per_perf(&|p| {
                        let rows: Vec<f64> = p
                            .shard_phases
                            .iter()
                            .map(|row| row.iter().map(Duration::as_secs_f64).sum())
                            .collect();
                        let mean = rows.iter().sum::<f64>() / rows.len() as f64;
                        rows.iter().fold(0.0f64, |a, b| a.max(*b)) / mean
                    }),
                );
            }
            Spec::Sweep(s) => {
                let one = ref_wall.expect("pooled sweeps have a 1-thread reference");
                outcome.info.push(("one_thread_wall_s", one));
                put(
                    "core.parallel.pool_efficiency",
                    wall.map(|w| one / (s.threads as f64 * w)),
                );
                put(
                    "core.parallel.empty_cell_us",
                    Stat::of(&probe_empty_cells(s, opts.seed, tr)),
                );
            }
            Spec::Campaign(c) => {
                let uncached = ref_wall.expect("the campaign has an uncached reference");
                outcome.info.push(("uncached_wall_s", uncached));
                let [key_us, insert_us, lookup_us] =
                    probe_store(c, opts.seed, &first.results, &opts.out_dir, tr);
                put(
                    "core.campaign.open_ms",
                    span_stat(tr, "core.campaign.open", 1e3),
                );
                put("core.campaign.key_us", Stat::of(&key_us));
                put("core.campaign.lookup_us", Stat::of(&lookup_us));
                put("core.campaign.insert_us", Stat::of(&insert_us));
                put(
                    "core.campaign.journal_bytes_per_cell",
                    Stat::exact(first.journal_bytes as f64 / cells.len() as f64),
                );
                put(
                    "core.campaign.cold_overhead_share",
                    sim_wall.map(|cold| (cold - uncached) / cold),
                );
            }
            Spec::Jobs(j) => {
                put(
                    "core.jobs.assign_us",
                    span_stat(tr, "core.jobs.assign", 1e6),
                );
                put(
                    "core.jobs.slowdown_ratio",
                    Stat::exact(j.slowdown_ratio(opts.seed, &first.results)),
                );
                put(
                    "traffic.workload.cycles_per_s",
                    wall.map(|w| cycles as f64 / w),
                );
            }
            Spec::Engine(_) => {}
        }
        put(
            "netsim.arena.bytes_per_terminal",
            Stat::exact(rss_bytes / terminals),
        );
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
        put(
            "bench.trace_overhead",
            Stat::exact(Stat::of(&traced_walls).median / wall.median),
        );
        values
    }
}

/// FNV-1a 64 of the results' `Debug` text, hashed as it is produced:
/// the text of a grid runs to megabytes, and holding it would show up
/// in the workload's own `peak_rss_mb`.
fn fingerprint(results: &Results) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for byte in s.bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    std::fmt::write(&mut hash, format_args!("{results:?}")).expect("hashing cannot fail");
    hash.0
}

/// Packets accepted per terminal per cycle, over all cells: delivered
/// in the cells' windows / terminal-cycles of those windows. Open-loop
/// cells of one grid share one window length, so this is the mean of
/// their `accepted_rate`. A closed-loop cell has no window: its whole run
/// counts, tracked packets over terminals x completion cycles.
fn accepted_rate(cells: &[&RunStats], terminals: f64) -> f64 {
    let closed: Vec<(u64, u64)> = cells
        .iter()
        .filter_map(|s| s.completion.map(|cycles| (s.latency.count, cycles)))
        .collect();
    if closed.is_empty() {
        return cells.iter().map(|s| s.accepted_rate).sum::<f64>() / cells.len() as f64;
    }
    let (packets, cycles) = closed.iter().fold((0, 0), |(p, c), (packets, cycles)| {
        (p + packets, c + cycles)
    });
    packets as f64 / (terminals * cycles.max(1) as f64)
}

/// 99th percentile of the cells' merged 1-cycle latency histograms,
/// interpolated inside the bucket it falls in so that it moves smoothly
/// with the seed instead of jumping a whole cycle.
fn p99_latency(cells: &[&RunStats]) -> f64 {
    let Some((head, rest)) = cells.split_first() else {
        return 0.0;
    };
    let mut merged = head.histogram.clone();
    for s in rest {
        merged.merge(&s.histogram);
    }
    let target = merged.total() as f64 * 0.99;
    let width = merged.bucket_width() as f64;
    let mut seen = 0.0;
    for (i, &count) in merged.buckets().iter().enumerate() {
        let count = count as f64;
        if count > 0.0 && seen + count >= target {
            return (i as f64 + (target - seen) / count) * width;
        }
        seen += count;
    }
    // Beyond the fixed-width histogram: the coarse log histogram's edge.
    cells
        .iter()
        .filter_map(|s| s.latency_log.percentile(0.99))
        .max()
        .unwrap_or(0) as f64
}

//! Parallel experiment fan-out: plan a grid of independent simulation
//! runs and execute them across a bounded thread pool.
//!
//! Every run of the engine is self-contained — it builds its own
//! routing tables, traffic pattern and per-terminal RNG streams from
//! `SimConfig::seed` — so runs at different `(routing, traffic, load)`
//! points share nothing mutable and can execute in any order on any
//! thread. [`RunGrid::execute`] exploits that: results are **bit
//! identical** to [`RunGrid::execute_serial`] and come back in plan
//! order, regardless of the thread count or scheduling.
//!
//! The pool is bounded by the `DFLY_THREADS` environment variable when
//! set (a positive integer), falling back to the machine's available
//! parallelism. `DFLY_THREADS=1` forces serial execution.
//!
//! `DFLY_THREADS` is shared with the cycle engine's router sharding
//! (`SimConfig::shards == 0` resolves against the same variable): a
//! sweep of serial runs fans the whole budget out here, while a sweep
//! of sharded runs divides it — [`RunGrid::execute`] shrinks its pool
//! by each run's shard demand (see [`configured_threads_for`]) so the
//! two levels of parallelism compose without oversubscribing the
//! machine.

use dfly_netsim::{
    FaultClass, FaultPlan, InjectionKind, MetricsRegistry, NetworkSpec, RoutingAlgorithm, RunStats,
    SimConfig, SimError, Simulation, Termination,
};
use dfly_traffic::TrafficPattern;
use rayon::prelude::*;

use crate::campaign::{CampaignError, CampaignReport, CampaignStore};
use crate::experiment::{DragonflySim, LoadPoint, RoutingChoice, TrafficChoice};
use crate::jobs::{JobBook, JobError, JobMix, JobSpec, Placement};
use crate::progress::{ProgressSink, SweepProgress};
use crate::DragonflyParams;

/// Thread budget for parallel execution: `DFLY_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn configured_threads() -> usize {
    std::env::var("DFLY_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Maps `f` over `items` on a pool of [`configured_threads`] workers
/// (capped at the item count), preserving input order. With one thread
/// or one item this degenerates to a plain serial map.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_on(items, configured_threads(), f)
}

/// The sweep-level thread budget left after each run claims
/// `shards_per_run` worker threads for the cycle engine:
/// `configured_threads() / shards_per_run`, at least 1. A
/// `shards_per_run` of 0 (auto) assumes the engine grabs the whole
/// budget, so grids of auto-sharded runs execute one run at a time.
pub fn configured_threads_for(shards_per_run: usize) -> usize {
    let budget = configured_threads();
    if shards_per_run == 0 {
        return 1;
    }
    (budget / shards_per_run).max(1)
}

/// [`parallel_map`] with an explicit thread bound.
pub fn parallel_map_on<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool construction cannot fail");
    pool.install(|| items.par_iter().map(&f).collect())
}

/// Sweeps a generic network over `loads`, one independent run per load,
/// fanned out across the worker pool — sized, as for [`RunGrid`], to
/// the budget left after each run's `base.shards` engine threads (see
/// [`configured_threads_for`]). Results come back in load order and
/// match a serial sweep bit for bit.
///
/// # Errors
///
/// The first configuration rejection, if `base` (or the spec it runs
/// against) is invalid at any load.
pub fn sweep_network(
    spec: &NetworkSpec,
    routing: &(dyn RoutingAlgorithm + Sync),
    pattern: &(dyn TrafficPattern + Sync),
    loads: &[f64],
    base: &SimConfig,
) -> Result<Vec<LoadPoint>, SimError> {
    let stats = parallel_map_on(loads, configured_threads_for(base.shards), |&load| {
        let mut cfg = base.clone();
        cfg.injection = InjectionKind::Bernoulli { rate: load };
        Ok(Simulation::new(spec, routing, pattern, cfg)?.finish())
    })
    .into_iter()
    .collect::<Result<Vec<_>, SimError>>()?;
    Ok(loads
        .iter()
        .zip(stats)
        .map(|(&load, stats)| LoadPoint { load, stats })
        .collect())
}

/// One planned simulation run: a routing choice, a traffic pattern and
/// a full configuration (load, windows, seed, credit mode).
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Routing algorithm for this run.
    pub routing: RoutingChoice,
    /// Traffic pattern for this run.
    pub traffic: TrafficChoice,
    /// Complete run configuration.
    pub cfg: SimConfig,
}

impl RunPlan {
    /// A plan running `routing` under `traffic` with `cfg` as-is.
    pub fn new(routing: RoutingChoice, traffic: TrafficChoice, cfg: SimConfig) -> Self {
        RunPlan {
            routing,
            traffic,
            cfg,
        }
    }

    /// A plan at a specific offered load, overriding `base`'s injection
    /// rate (Bernoulli injection, as in the paper's sweeps).
    pub fn at_load(
        routing: RoutingChoice,
        traffic: TrafficChoice,
        base: &SimConfig,
        load: f64,
    ) -> Self {
        let mut cfg = base.clone();
        cfg.injection = InjectionKind::Bernoulli { rate: load };
        RunPlan::new(routing, traffic, cfg)
    }

    /// The plan's injection rate (packets/terminal/cycle).
    pub fn load(&self) -> f64 {
        self.cfg.injection.rate()
    }
}

/// An ordered collection of independent [`RunPlan`]s — typically the
/// cross product of routing choices, traffic patterns and offered loads
/// behind one figure — executable serially or across a thread pool with
/// identical results.
#[derive(Debug, Clone, Default)]
pub struct RunGrid {
    plans: Vec<RunPlan>,
}

impl RunGrid {
    /// An empty grid.
    pub fn new() -> Self {
        RunGrid::default()
    }

    /// Appends one plan.
    pub fn push(&mut self, plan: RunPlan) -> &mut Self {
        self.plans.push(plan);
        self
    }

    /// A load sweep for one `(routing, traffic)` pair: one plan per
    /// entry of `loads`, in order.
    pub fn load_sweep(
        routing: RoutingChoice,
        traffic: TrafficChoice,
        loads: &[f64],
        base: &SimConfig,
    ) -> Self {
        let plans = loads
            .iter()
            .map(|&load| RunPlan::at_load(routing, traffic, base, load))
            .collect();
        RunGrid { plans }
    }

    /// The full cross product `routings × traffics × loads`, ordered
    /// with loads innermost (matching nested serial loops).
    pub fn cross(
        routings: &[RoutingChoice],
        traffics: &[TrafficChoice],
        loads: &[f64],
        base: &SimConfig,
    ) -> Self {
        let mut grid = RunGrid::new();
        for &routing in routings {
            for &traffic in traffics {
                for &load in loads {
                    grid.push(RunPlan::at_load(routing, traffic, base, load));
                }
            }
        }
        grid
    }

    /// The planned runs, in execution (= result) order.
    pub fn plans(&self) -> &[RunPlan] {
        &self.plans
    }

    /// Number of planned runs.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the grid holds no plans.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// The largest engine-level shard count any plan asks for (`0`
    /// — auto — dominates everything else; `1` if the grid is empty).
    pub fn shard_demand(&self) -> usize {
        let mut demand = 1;
        for plan in &self.plans {
            if plan.cfg.shards == 0 {
                return 0;
            }
            demand = demand.max(plan.cfg.shards);
        }
        demand
    }

    /// Executes every plan against `sim` across the configured thread
    /// pool (see [`configured_threads`]), leaving room for each run's
    /// own router shards (see [`configured_threads_for`]); results are
    /// in plan order and bit-identical to [`RunGrid::execute_serial`].
    pub fn execute(&self, sim: &DragonflySim) -> Vec<RunStats> {
        self.execute_on(sim, configured_threads_for(self.shard_demand()))
    }

    /// [`RunGrid::execute`] with an explicit thread bound.
    pub fn execute_on(&self, sim: &DragonflySim, threads: usize) -> Vec<RunStats> {
        parallel_map_on(&self.plans, threads, |plan| {
            sim.run(plan.routing, plan.traffic, plan.cfg.clone())
        })
    }

    /// Executes every plan on the calling thread, in order.
    pub fn execute_serial(&self, sim: &DragonflySim) -> Vec<RunStats> {
        self.execute_on(sim, 1)
    }

    /// [`RunGrid::execute`] through a [`CampaignStore`]: plans whose
    /// key is already stored return the persisted result without
    /// simulating; misses simulate and stream to the journal the
    /// moment they complete. Results are in plan order and
    /// bit-identical to an uncached [`RunGrid::execute`] — on hits
    /// because the store round trip is exact, on misses trivially.
    ///
    /// # Errors
    ///
    /// The first journal write failure, if any.
    pub fn execute_cached(
        &self,
        sim: &DragonflySim,
        store: &CampaignStore,
    ) -> Result<(Vec<RunStats>, CampaignReport), CampaignError> {
        self.execute_cached_streaming_on(
            sim,
            store,
            configured_threads_for(self.shard_demand()),
            &|_, _, _| {},
        )
    }

    /// [`RunGrid::execute_cached`] with a streaming callback: every
    /// completed cell is reported as `(plan index, stats, was_hit)` the
    /// moment it resolves, in completion (not plan) order. The callback
    /// runs on worker threads and must be `Sync`.
    pub fn execute_cached_streaming(
        &self,
        sim: &DragonflySim,
        store: &CampaignStore,
        on_result: &(dyn Fn(usize, &RunStats, bool) + Sync),
    ) -> Result<(Vec<RunStats>, CampaignReport), CampaignError> {
        self.execute_cached_streaming_on(
            sim,
            store,
            configured_threads_for(self.shard_demand()),
            on_result,
        )
    }

    /// [`RunGrid::execute_cached_streaming`] with an explicit thread
    /// bound (`1` makes the callback order deterministic: plan order).
    pub fn execute_cached_streaming_on(
        &self,
        sim: &DragonflySim,
        store: &CampaignStore,
        threads: usize,
        on_result: &(dyn Fn(usize, &RunStats, bool) + Sync),
    ) -> Result<(Vec<RunStats>, CampaignReport), CampaignError> {
        let indexed: Vec<(usize, &RunPlan)> = self.plans.iter().enumerate().collect();
        let sink = ProgressSink::from_env();
        let progress =
            SweepProgress::begin(&sink, "grid", self.plans.len(), store.median_timing("run"));
        let results = parallel_map_on(
            &indexed,
            threads,
            |&(i, plan)| -> Result<(RunStats, bool), CampaignError> {
                let key = store.run_key(sim, plan);
                if let Some(stats) = store.lookup_run(&key) {
                    on_result(i, &stats, true);
                    progress.cell(i, true, 0.0);
                    return Ok((stats, true));
                }
                let clock = std::time::Instant::now();
                let stats = sim.run(plan.routing, plan.traffic, plan.cfg.clone());
                let secs = clock.elapsed().as_secs_f64();
                store.insert_run(&key, &stats)?;
                store.record_timing("run", secs);
                on_result(i, &stats, false);
                progress.cell(i, false, secs);
                Ok((stats, false))
            },
        );
        let mut all = Vec::with_capacity(results.len());
        let mut report = CampaignReport::default();
        for result in results {
            let (stats, hit) = result?;
            if hit {
                report.hits += 1;
            } else {
                report.misses += 1;
            }
            all.push(stats);
        }
        progress.finish();
        Ok((all, report))
    }

    /// Like [`RunGrid::execute`], but additionally builds a merged
    /// [`MetricsRegistry`] over the whole grid: each worker absorbs its
    /// own runs into a private registry and the per-worker registries
    /// are folded in plan order, so the merged registry (and its JSON)
    /// is bit-identical to a serial execution's.
    pub fn execute_with_metrics(&self, sim: &DragonflySim) -> (Vec<RunStats>, MetricsRegistry) {
        self.execute_with_metrics_on(sim, configured_threads_for(self.shard_demand()))
    }

    /// [`RunGrid::execute_with_metrics`] with an explicit thread bound.
    pub fn execute_with_metrics_on(
        &self,
        sim: &DragonflySim,
        threads: usize,
    ) -> (Vec<RunStats>, MetricsRegistry) {
        let per_run = parallel_map_on(&self.plans, threads, |plan| {
            let stats = sim.run(plan.routing, plan.traffic, plan.cfg.clone());
            let mut registry = MetricsRegistry::new();
            absorb_run(&mut registry, plan, &stats);
            (stats, registry)
        });
        let mut all = Vec::with_capacity(per_run.len());
        let mut merged = MetricsRegistry::new();
        for (stats, registry) in per_run {
            merged.merge(&registry);
            all.push(stats);
        }
        (all, merged)
    }
}

/// Folds one run's statistics into a registry under the standard
/// counter/histogram names (`runs`, `drained_runs`, `labeled_packets`,
/// the routing-decision counters, and the `packet_latency` /
/// `scoreboard_abs_error` histograms).
fn absorb_run(registry: &mut MetricsRegistry, plan: &RunPlan, stats: &RunStats) {
    registry.inc("runs", 1);
    registry.inc("drained_runs", u64::from(stats.drained));
    registry.inc("labeled_packets", stats.latency.count);
    registry.inc("cycles", stats.cycles);
    registry.inc("minimal_takes", stats.routing.minimal_takes);
    registry.inc("non_minimal_takes", stats.routing.non_minimal_takes);
    registry.inc("adaptive_decisions", stats.routing.adaptive_decisions);
    registry.inc(
        "estimator_disagreements",
        stats.routing.estimator_disagreements,
    );
    registry.inc(
        "fault_avoided_decisions",
        stats.routing.fault_avoided_decisions,
    );
    registry.inc("dropped_candidates", stats.routing.dropped_candidates);
    registry.inc(
        "oracle_probe_fallbacks",
        stats.routing.oracle_probe_fallbacks,
    );
    registry.inc("scoreboard_decisions", stats.scoreboard.decisions);
    registry.inc(
        "scoreboard_oracle_disagreements",
        stats.scoreboard.oracle_disagreements,
    );
    registry
        .histogram_mut("packet_latency")
        .merge(&stats.latency_log);
    registry
        .histogram_mut("scoreboard_abs_error")
        .merge(&stats.scoreboard.abs_error);
    // Per-routing-choice latency breakdown, keyed by the plan's label.
    registry
        .histogram_mut(&format!("latency/{}", plan.routing.label()))
        .merge(&stats.latency_log);
}

/// One point of a fault-degradation curve: the network with a seeded
/// random `fraction` of its links failed, driven at an offered load of
/// 1.0 so [`RunStats::accepted_rate`] reads the saturation throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPoint {
    /// Failed-link fraction the point was run at.
    pub fraction: f64,
    /// Number of cables the plan actually failed (both directions each).
    pub failed_links: usize,
    /// Full statistics of the saturation run.
    pub stats: RunStats,
}

impl FaultPoint {
    /// Saturation throughput at this fault level (accepted
    /// packets/terminal/cycle at an offered load of 1.0).
    pub fn throughput(&self) -> f64 {
        self.stats.accepted_rate
    }
}

/// A throughput-vs-failed-link-fraction sweep: one saturation run per
/// fraction, each on its own dragonfly built with a seeded random fault
/// plan.
///
/// The per-fraction fault sets are *nested* (see
/// [`FaultPlan::Random`]): with one seed, every cable failed at
/// fraction `f1 < f2` is also failed at `f2`, so the measured curve
/// degrades monotonically instead of comparing unrelated fault draws.
/// Points are independent runs and fan out across the worker pool;
/// [`FaultSweep::execute`] is bit-identical to
/// [`FaultSweep::execute_serial`].
///
/// # Example
///
/// ```no_run
/// use dragonfly::{DragonflyParams, FaultSweep, RoutingChoice, TrafficChoice};
/// use dfly_netsim::SimConfig;
///
/// let sweep = FaultSweep::new(
///     DragonflyParams::new(2, 4, 2).unwrap(),
///     RoutingChoice::UgalLVcH,
///     TrafficChoice::Uniform,
///     &SimConfig::paper_default(1.0),
///     &[0.0, 1.0 / 16.0, 1.0 / 8.0],
///     7,
/// );
/// let points = sweep.execute().unwrap();
/// assert_eq!(points.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// Dragonfly configuration each point rebuilds.
    pub params: DragonflyParams,
    /// Routing algorithm under test.
    pub routing: RoutingChoice,
    /// Traffic pattern under test.
    pub traffic: TrafficChoice,
    /// Base configuration; each point forces an offered load of 1.0 and
    /// skips the (futile) drain, as
    /// [`DragonflySim::saturation_throughput`] does.
    pub cfg: SimConfig,
    /// Failed-link fractions, one run per entry.
    pub fractions: Vec<f64>,
    /// Seed of the nested random draws.
    pub seed: u64,
    /// Channel class the draws select from.
    pub class: FaultClass,
}

impl FaultSweep {
    /// A sweep failing global channels (the paper's expensive optical
    /// cables — the interesting failure mode) at each of `fractions`.
    pub fn new(
        params: DragonflyParams,
        routing: RoutingChoice,
        traffic: TrafficChoice,
        base: &SimConfig,
        fractions: &[f64],
        seed: u64,
    ) -> Self {
        FaultSweep {
            params,
            routing,
            traffic,
            cfg: base.clone(),
            fractions: fractions.to_vec(),
            seed,
            class: FaultClass::Global,
        }
    }

    /// The same sweep drawing from a different channel class.
    pub fn with_class(mut self, class: FaultClass) -> Self {
        self.class = class;
        self
    }

    fn run_point(&self, fraction: f64) -> Result<FaultPoint, SimError> {
        let plan = FaultPlan::Random {
            fraction,
            seed: self.seed,
            class: self.class,
        };
        let sim = DragonflySim::with_faults(self.params, &plan)?;
        let mut cfg = self.cfg.clone();
        cfg.injection = InjectionKind::Bernoulli { rate: 1.0 };
        cfg.drain_cap = 0;
        let stats = sim.run(self.routing, self.traffic, cfg);
        Ok(FaultPoint {
            fraction,
            failed_links: sim.dragonfly().failed_links().len(),
            stats,
        })
    }

    /// Runs every fraction across the configured thread pool (see
    /// [`configured_threads`]); results are in fraction order and
    /// bit-identical to [`FaultSweep::execute_serial`].
    ///
    /// # Errors
    ///
    /// The first fault-plan rejection, if any fraction disconnects the
    /// network or the plan is malformed.
    pub fn execute(&self) -> Result<Vec<FaultPoint>, SimError> {
        self.execute_on(configured_threads())
    }

    /// [`FaultSweep::execute`] with an explicit thread bound.
    pub fn execute_on(&self, threads: usize) -> Result<Vec<FaultPoint>, SimError> {
        parallel_map_on(&self.fractions, threads, |&fraction| {
            self.run_point(fraction)
        })
        .into_iter()
        .collect()
    }

    /// Runs every fraction on the calling thread, in order.
    pub fn execute_serial(&self) -> Result<Vec<FaultPoint>, SimError> {
        self.execute_on(1)
    }

    /// [`FaultSweep::execute`] through a [`CampaignStore`]: fractions
    /// already stored are answered from the journal, misses simulate
    /// and stream to it. Bit-identical to the uncached execute.
    ///
    /// # Errors
    ///
    /// The first fault-plan rejection or journal write failure.
    pub fn execute_cached(
        &self,
        store: &CampaignStore,
    ) -> Result<(Vec<FaultPoint>, CampaignReport), CampaignError> {
        let indexed: Vec<(usize, f64)> = self.fractions.iter().copied().enumerate().collect();
        let sink = ProgressSink::from_env();
        let progress = SweepProgress::begin(
            &sink,
            "fault",
            self.fractions.len(),
            store.median_timing("fault"),
        );
        let results = parallel_map_on(
            &indexed,
            configured_threads(),
            |&(i, fraction)| -> Result<(FaultPoint, bool), CampaignError> {
                let key = store.fault_key(self, fraction);
                if let Some(point) = store.lookup_fault(&key) {
                    progress.cell(i, true, 0.0);
                    return Ok((point, true));
                }
                let clock = std::time::Instant::now();
                let point = self.run_point(fraction)?;
                let secs = clock.elapsed().as_secs_f64();
                store.insert_fault(&key, &point)?;
                store.record_timing("fault", secs);
                progress.cell(i, false, secs);
                Ok((point, false))
            },
        );
        let mut all = Vec::with_capacity(results.len());
        let mut report = CampaignReport::default();
        for result in results {
            let (point, hit) = result?;
            if hit {
                report.hits += 1;
            } else {
                report.misses += 1;
            }
            all.push(point);
        }
        progress.finish();
        Ok((all, report))
    }
}

/// One point of a [`WorkloadSweep`]: a job mix run to completion under
/// one `(placement, background load)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPoint {
    /// Placement policy of this run.
    pub placement: Placement,
    /// Untracked background load offered by non-job terminals.
    pub background_load: f64,
    /// Full engine statistics ([`RunStats::completion`] is the cycle
    /// the whole mix finished, `None` if it hit the cycle cap).
    pub stats: RunStats,
    /// Per-job accounting, in job order.
    pub books: Vec<JobBook>,
}

impl WorkloadPoint {
    /// Completion cycle of job `job` (its last delivery).
    pub fn job_completion(&self, job: usize) -> u64 {
        self.books[job].completion
    }
}

/// Interference measurement for one job at one background load: its
/// completion time under group-disjoint vs interfering placement.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownPoint {
    /// Job name from the mix's [`JobSpec`].
    pub job: String,
    /// Background load both runs shared.
    pub background_load: f64,
    /// Completion cycle under [`Placement::GroupDisjoint`].
    pub disjoint: u64,
    /// Completion cycle under [`Placement::Interfering`].
    pub interfering: u64,
}

impl SlowdownPoint {
    /// `interfering / disjoint` completion-time ratio; > 1 means
    /// co-location slowed the job down.
    pub fn ratio(&self) -> f64 {
        if self.disjoint == 0 {
            return f64::NAN;
        }
        self.interfering as f64 / self.disjoint as f64
    }
}

/// A closed-loop workload sweep: a fixed job mix run to completion at
/// every `(placement, background load)` point, measuring per-job
/// completion time and the interference slowdown of co-location.
///
/// Every point is an independent work-complete run (the engine stops
/// when all tracked job packets are delivered, see
/// [`Termination::WorkComplete`]); points fan out across the worker
/// pool and [`WorkloadSweep::execute`] is bit-identical to
/// [`WorkloadSweep::execute_serial`]. The per-job books are built from
/// commutative updates only, so they are also identical at any engine
/// shard count.
///
/// # Example
///
/// ```no_run
/// use dragonfly::{DragonflyParams, JobSpec, RoutingChoice, WorkloadSweep};
/// use dfly_netsim::SimConfig;
///
/// let sweep = WorkloadSweep::new(
///     DragonflyParams::new(2, 4, 2).unwrap(),
///     RoutingChoice::UgalLVcH,
///     vec![JobSpec::barrier("alpha", 8, 4), JobSpec::all_to_all("beta", 8)],
///     &SimConfig::paper_default(0.0),
///     &[0.0, 0.2],
/// );
/// let points = sweep.execute().unwrap();
/// for s in sweep.slowdowns(&points) {
///     println!("{} @ {}: x{:.2}", s.job, s.background_load, s.ratio());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadSweep {
    /// Dragonfly configuration each point rebuilds.
    pub params: DragonflyParams,
    /// Routing algorithm under test.
    pub routing: RoutingChoice,
    /// The tenant jobs every point places and runs.
    pub jobs: Vec<JobSpec>,
    /// Base configuration. Each point forces
    /// [`Termination::WorkComplete`]; `warmup + measure + drain_cap`
    /// remains the hard cycle cap, so it must be generous enough for
    /// the jobs to finish.
    pub cfg: SimConfig,
    /// Background loads, one pair of runs (disjoint + interfering) per
    /// entry.
    pub background_loads: Vec<f64>,
    /// Placement policies to compare (both, by default).
    pub placements: Vec<Placement>,
}

impl WorkloadSweep {
    /// A sweep comparing group-disjoint against interfering placement
    /// of `jobs` at each of `background_loads`.
    pub fn new(
        params: DragonflyParams,
        routing: RoutingChoice,
        jobs: Vec<JobSpec>,
        base: &SimConfig,
        background_loads: &[f64],
    ) -> Self {
        WorkloadSweep {
            params,
            routing,
            jobs,
            cfg: base.clone(),
            background_loads: background_loads.to_vec(),
            placements: vec![Placement::GroupDisjoint, Placement::Interfering],
        }
    }

    fn run_point(&self, placement: Placement, load: f64) -> Result<WorkloadPoint, JobError> {
        let sim = DragonflySim::new(self.params);
        let mix = JobMix::new(self.jobs.clone(), placement).with_background(load);
        let assignment = mix.assign(&self.params)?;
        let ledger = mix.ledger();
        let mut cfg = self.cfg.clone();
        cfg.termination = Termination::WorkComplete;
        let stats = sim.run_workload(self.routing, cfg, &|range| {
            Box::new(mix.workload(&assignment, range, &ledger))
        });
        Ok(WorkloadPoint {
            placement,
            background_load: load,
            stats,
            books: ledger.snapshot(),
        })
    }

    /// The planned `(placement, background load)` points, loads
    /// innermost — the order results come back in.
    pub fn points(&self) -> Vec<(Placement, f64)> {
        let mut pts = Vec::with_capacity(self.placements.len() * self.background_loads.len());
        for &p in &self.placements {
            for &l in &self.background_loads {
                pts.push((p, l));
            }
        }
        pts
    }

    /// Runs every point across the configured thread pool, leaving room
    /// for each run's engine shards (see [`configured_threads_for`]).
    /// Results are in [`WorkloadSweep::points`] order and bit-identical
    /// to [`WorkloadSweep::execute_serial`].
    ///
    /// # Errors
    ///
    /// The first invalid job spec or failed placement, if any.
    pub fn execute(&self) -> Result<Vec<WorkloadPoint>, JobError> {
        self.execute_on(configured_threads_for(self.cfg.shards))
    }

    /// [`WorkloadSweep::execute`] with an explicit thread bound.
    pub fn execute_on(&self, threads: usize) -> Result<Vec<WorkloadPoint>, JobError> {
        parallel_map_on(&self.points(), threads, |&(placement, load)| {
            self.run_point(placement, load)
        })
        .into_iter()
        .collect()
    }

    /// Runs every point on the calling thread, in order.
    pub fn execute_serial(&self) -> Result<Vec<WorkloadPoint>, JobError> {
        self.execute_on(1)
    }

    /// [`WorkloadSweep::execute`] through a [`CampaignStore`]: points
    /// already stored are answered from the journal, misses run to
    /// completion and stream to it. Bit-identical to the uncached
    /// execute, per-job books included.
    ///
    /// # Errors
    ///
    /// The first invalid job spec, failed placement, or journal write
    /// failure.
    pub fn execute_cached(
        &self,
        store: &CampaignStore,
    ) -> Result<(Vec<WorkloadPoint>, CampaignReport), CampaignError> {
        let threads = configured_threads_for(self.cfg.shards);
        let points = self.points();
        let indexed: Vec<(usize, (Placement, f64))> = points.into_iter().enumerate().collect();
        let sink = ProgressSink::from_env();
        let progress = SweepProgress::begin(
            &sink,
            "workload",
            indexed.len(),
            store.median_timing("workload"),
        );
        let results = parallel_map_on(
            &indexed,
            threads,
            |&(i, (placement, load))| -> Result<(WorkloadPoint, bool), CampaignError> {
                let key = store.workload_key(self, placement, load);
                if let Some(point) = store.lookup_workload(&key) {
                    progress.cell(i, true, 0.0);
                    return Ok((point, true));
                }
                let clock = std::time::Instant::now();
                let point = self.run_point(placement, load)?;
                let secs = clock.elapsed().as_secs_f64();
                store.insert_workload(&key, &point)?;
                store.record_timing("workload", secs);
                progress.cell(i, false, secs);
                Ok((point, false))
            },
        );
        let mut all = Vec::with_capacity(results.len());
        let mut report = CampaignReport::default();
        for result in results {
            let (point, hit) = result?;
            if hit {
                report.hits += 1;
            } else {
                report.misses += 1;
            }
            all.push(point);
        }
        progress.finish();
        Ok((all, report))
    }

    /// Like [`WorkloadSweep::execute`], but also folds every point into
    /// a [`MetricsRegistry`] under per-job scopes:
    /// `jobs/{name}/{placement}/delivered`,
    /// `jobs/{name}/{placement}/completion_cycles` and the
    /// `jobs/{name}/{placement}/latency` histogram, plus the sweep-wide
    /// `workload_runs` / `workload_completed_runs` counters. Absorption
    /// happens in point order, so the registry (and its JSON) is
    /// bit-identical across thread counts.
    pub fn execute_with_metrics(&self) -> Result<(Vec<WorkloadPoint>, MetricsRegistry), JobError> {
        let points = self.execute()?;
        let mut registry = MetricsRegistry::new();
        for point in &points {
            self.absorb_point(&mut registry, point);
        }
        Ok((points, registry))
    }

    fn absorb_point(&self, registry: &mut MetricsRegistry, point: &WorkloadPoint) {
        registry.inc("workload_runs", 1);
        registry.inc(
            "workload_completed_runs",
            u64::from(point.stats.completion.is_some()),
        );
        for (spec, book) in self.jobs.iter().zip(&point.books) {
            let scope = format!("jobs/{}/{}", spec.name, point.placement.label());
            registry.inc(&format!("{scope}/delivered"), book.delivered);
            registry.inc(&format!("{scope}/completion_cycles"), book.completion);
            registry
                .histogram_mut(&format!("{scope}/latency"))
                .merge(&book.latency);
        }
    }

    /// Pairs each job's completion time under the two placements at
    /// matching background loads, jobs innermost. Points missing either
    /// placement are skipped.
    pub fn slowdowns(&self, points: &[WorkloadPoint]) -> Vec<SlowdownPoint> {
        let find = |placement: Placement, load: f64| {
            points
                .iter()
                .find(|p| p.placement == placement && p.background_load == load)
        };
        let mut out = Vec::new();
        for &load in &self.background_loads {
            let (Some(dis), Some(int)) = (
                find(Placement::GroupDisjoint, load),
                find(Placement::Interfering, load),
            ) else {
                continue;
            };
            for (j, spec) in self.jobs.iter().enumerate() {
                out.push(SlowdownPoint {
                    job: spec.name.clone(),
                    background_load: load,
                    disjoint: dis.job_completion(j),
                    interfering: int.job_completion(j),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DragonflyParams;

    fn tiny() -> DragonflySim {
        DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap())
    }

    fn fast_cfg(sim: &DragonflySim, load: f64) -> SimConfig {
        let mut cfg = sim.config(load);
        cfg.warmup = 200;
        cfg.measure = 600;
        cfg.drain_cap = 20_000;
        cfg
    }

    #[test]
    fn shard_demand_tracks_plan_configs() {
        let sim = tiny();
        let base = fast_cfg(&sim, 0.0);
        let grid = RunGrid::cross(
            &[RoutingChoice::Min],
            &[TrafficChoice::Uniform],
            &[0.1, 0.2],
            &base,
        );
        assert_eq!(grid.shard_demand(), 1);
        let mut sharded = base.clone();
        sharded.shards = 4;
        let grid = RunGrid::cross(
            &[RoutingChoice::Min],
            &[TrafficChoice::Uniform],
            &[0.1],
            &sharded,
        );
        assert_eq!(grid.shard_demand(), 4);
        let mut auto = base;
        auto.shards = 0;
        let grid = RunGrid::cross(
            &[RoutingChoice::Min],
            &[TrafficChoice::Uniform],
            &[0.1],
            &auto,
        );
        assert_eq!(grid.shard_demand(), 0);
        assert_eq!(configured_threads_for(0), 1);
        assert!(configured_threads_for(usize::MAX) >= 1);
    }

    #[test]
    fn cross_orders_loads_innermost() {
        let sim = tiny();
        let base = fast_cfg(&sim, 0.0);
        let grid = RunGrid::cross(
            &[RoutingChoice::Min, RoutingChoice::Valiant],
            &[TrafficChoice::Uniform],
            &[0.1, 0.2],
            &base,
        );
        assert_eq!(grid.len(), 4);
        let summary: Vec<(RoutingChoice, f64)> =
            grid.plans().iter().map(|p| (p.routing, p.load())).collect();
        assert_eq!(
            summary,
            vec![
                (RoutingChoice::Min, 0.1),
                (RoutingChoice::Min, 0.2),
                (RoutingChoice::Valiant, 0.1),
                (RoutingChoice::Valiant, 0.2),
            ]
        );
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let sim = tiny();
        let base = fast_cfg(&sim, 0.0);
        let grid = RunGrid::cross(
            &[RoutingChoice::Min, RoutingChoice::UgalLVcH],
            &[TrafficChoice::Uniform, TrafficChoice::WorstCase],
            &[0.1, 0.3],
            &base,
        );
        let serial = grid.execute_serial(&sim);
        let parallel = grid.execute_on(&sim, 4);
        assert_eq!(serial.len(), grid.len());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn merged_metrics_match_serial_byte_for_byte() {
        let sim = tiny();
        let base = fast_cfg(&sim, 0.0);
        let grid = RunGrid::cross(
            &[RoutingChoice::Min, RoutingChoice::UgalL],
            &[TrafficChoice::Uniform],
            &[0.1, 0.2],
            &base,
        );
        let (serial_stats, serial_reg) = grid.execute_with_metrics_on(&sim, 1);
        let (par_stats, par_reg) = grid.execute_with_metrics_on(&sim, 4);
        assert_eq!(serial_stats, par_stats);
        assert_eq!(serial_reg, par_reg);
        assert_eq!(serial_reg.to_json(), par_reg.to_json());
        assert_eq!(serial_reg.counters["runs"], 4);
        assert_eq!(
            serial_reg.histograms["packet_latency"].count,
            serial_stats.iter().map(|s| s.latency.count).sum::<u64>()
        );
        // UGAL-L runs contribute scoreboard decisions; MIN runs none.
        assert!(serial_reg.counters["scoreboard_decisions"] > 0);
        assert!(serial_reg.histograms.contains_key("latency/UGAL-L"));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let doubled = parallel_map_on(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        // Degenerate cases: empty input and single thread.
        assert!(parallel_map_on(&[] as &[u64], 4, |&x| x).is_empty());
        assert_eq!(parallel_map_on(&items, 1, |&x| x + 1)[36], 37);
    }

    #[test]
    fn sweep_network_matches_dragonfly_sweep() {
        let sim = tiny();
        let base = fast_cfg(&sim, 0.0);
        let loads = [0.1, 0.25];
        let by_grid = sim.sweep(RoutingChoice::Min, TrafficChoice::Uniform, &loads, &base);
        let algo_df = std::sync::Arc::new(crate::topology::Dragonfly::new(
            DragonflyParams::new(2, 4, 2).unwrap(),
        ));
        let routing = crate::routing::MinimalRouting::new(algo_df);
        let pattern = dfly_traffic::UniformRandom::new(sim.spec().num_terminals());
        let generic = sweep_network(sim.spec(), &routing, &pattern, &loads, &base)
            .expect("valid sweep configuration");
        assert_eq!(by_grid.len(), generic.len());
        for (a, b) in by_grid.iter().zip(&generic) {
            assert_eq!(a.load, b.load);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn sweep_network_surfaces_invalid_configs() {
        let sim = tiny();
        let mut base = fast_cfg(&sim, 0.0);
        base.measure = 0; // rejected by SimConfig::validate
        let algo_df = std::sync::Arc::new(crate::topology::Dragonfly::new(
            DragonflyParams::new(2, 4, 2).unwrap(),
        ));
        let routing = crate::routing::MinimalRouting::new(algo_df);
        let pattern = dfly_traffic::UniformRandom::new(sim.spec().num_terminals());
        let result = sweep_network(sim.spec(), &routing, &pattern, &[0.1], &base);
        assert!(matches!(result, Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn fault_sweep_is_deterministic_across_thread_counts() {
        let mut cfg = SimConfig::paper_default(1.0);
        cfg.warmup = 100;
        cfg.measure = 300;
        let sweep = FaultSweep::new(
            DragonflyParams::new(2, 4, 2).unwrap(),
            RoutingChoice::UgalLVcH,
            TrafficChoice::Uniform,
            &cfg,
            &[0.0, 0.125],
            3,
        );
        let parallel = sweep.execute().unwrap();
        let serial = sweep.execute_serial().unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), 2);
        assert_eq!(parallel[0].failed_links, 0);
        // 36 global cables at 1/8: round(4.5) cables die.
        assert_eq!(parallel[1].failed_links, 5);
        assert!(parallel[0].throughput() > 0.0);
        assert!(parallel[1].throughput() > 0.0);
    }

    fn tiny_workload_sweep(loads: &[f64]) -> WorkloadSweep {
        let mut cfg = SimConfig::paper_default(0.0);
        cfg.warmup = 0;
        cfg.measure = 30_000;
        cfg.drain_cap = 30_000;
        WorkloadSweep::new(
            DragonflyParams::new(2, 4, 2).unwrap(),
            RoutingChoice::Min,
            vec![
                JobSpec::all_to_all("alpha", 8),
                JobSpec::all_to_all("beta", 8),
            ],
            &cfg,
            loads,
        )
    }

    #[test]
    fn workload_sweep_is_deterministic_across_thread_counts() {
        let sweep = tiny_workload_sweep(&[0.0, 0.1]);
        let serial = sweep.execute_serial().unwrap();
        let parallel = sweep.execute_on(4).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 4);
        for point in &serial {
            assert!(point.stats.drained, "{:?} did not drain", point.placement);
            assert!(point.stats.completion.is_some());
            for book in &point.books {
                // All-to-all over 8 members: 8*7 packets each.
                assert_eq!(book.delivered, 56);
                assert!(book.completion > 0);
                assert_eq!(book.latency.count, 56);
            }
        }
    }

    #[test]
    fn interfering_placement_slows_jobs_measurably() {
        let sweep = tiny_workload_sweep(&[0.3]);
        let points = sweep.execute().unwrap();
        let slowdowns = sweep.slowdowns(&points);
        assert_eq!(slowdowns.len(), 2);
        for s in &slowdowns {
            assert!(s.disjoint > 0 && s.interfering > 0);
            assert!(
                s.ratio() > 1.0,
                "job {} should finish later when interfering: disjoint {} vs interfering {}",
                s.job,
                s.disjoint,
                s.interfering
            );
        }
        // And the measurement is reproducible bit for bit.
        let again = sweep.execute().unwrap();
        assert_eq!(points, again);
    }

    #[test]
    fn workload_metrics_use_per_job_scopes() {
        let sweep = tiny_workload_sweep(&[0.0]);
        let (points, registry) = sweep.execute_with_metrics().unwrap();
        assert_eq!(registry.counters["workload_runs"], points.len() as u64);
        assert_eq!(
            registry.counters["workload_completed_runs"],
            points.len() as u64
        );
        for job in ["alpha", "beta"] {
            for placement in ["disjoint", "interfering"] {
                let scope = format!("jobs/{job}/{placement}");
                assert_eq!(registry.counters[&format!("{scope}/delivered")], 56);
                assert!(registry.counters[&format!("{scope}/completion_cycles")] > 0);
                assert_eq!(registry.histograms[&format!("{scope}/latency")].count, 56);
            }
        }
    }

    #[test]
    fn workload_sweep_surfaces_placement_errors() {
        let mut sweep = tiny_workload_sweep(&[0.0]);
        sweep.jobs = vec![JobSpec::barrier("huge", 80, 1)];
        assert!(sweep.execute().is_err());
    }

    #[test]
    fn fault_sweep_surfaces_plan_errors() {
        let cfg = SimConfig::paper_default(1.0);
        let sweep = FaultSweep::new(
            DragonflyParams::new(2, 4, 2).unwrap(),
            RoutingChoice::Min,
            TrafficChoice::Uniform,
            &cfg,
            &[2.0],
            1,
        );
        assert!(matches!(
            sweep.execute(),
            Err(SimError::InvalidFaultPlan(_))
        ));
    }
}

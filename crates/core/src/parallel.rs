//! Parallel experiment fan-out: one executor for every kind of sweep.
//!
//! A sweep is a slice of independent [`Cell`]s. Every run of the engine
//! is self-contained — it builds its own routing tables, traffic
//! pattern and per-terminal RNG streams from `SimConfig::seed` — so
//! cells share nothing mutable and can run in any order on any thread:
//! [`run_cells`] returns results **bit identical** to a one-thread
//! execution, in cell order, regardless of thread count or scheduling.
//! [`run_cells_cached`] is the same fan-out through a
//! [`CampaignStore`], and the only place the lookup → run → journal →
//! progress loop exists. [`RunGrid`], [`FaultSweep`] and
//! [`WorkloadSweep`] are thin plans over those two functions; a
//! [`RunGrid`] runs on the harness of any topology
//! ([`NetworkSim`]), the dragonfly's and the baselines' alike.
//!
//! The pool is bounded by the `DFLY_THREADS` environment variable when
//! set (a positive integer), falling back to the machine's available
//! parallelism. `DFLY_THREADS=1` forces serial execution.
//!
//! `DFLY_THREADS` is shared with the cycle engine's router sharding
//! (`SimConfig::shards == 0` resolves against the same variable): a
//! sweep of serial runs fans the whole budget out here, while a sweep
//! of sharded runs divides it — the executor shrinks its pool by the
//! cells' largest shard demand (see [`pool_size`]) so the two levels of
//! parallelism compose without oversubscribing the machine.

use std::convert::Infallible;

use dfly_netsim::{
    FaultClass, FaultPlan, InjectionKind, MetricsRegistry, RunStats, SimConfig, SimError,
    Termination,
};
use rayon::prelude::*;

use crate::campaign::{
    codec_struct, codec_tag, CampaignError, CampaignReport, CampaignStore, Codec,
};
use crate::experiment::{DragonflySim, NetworkSim, RoutingChoice, TrafficChoice};
use crate::jobs::{JobBook, JobError, JobMix, JobSpec, Placement};
use crate::network::NetTopology;
use crate::progress::{ProgressSink, SweepProgress};
use crate::DragonflyParams;

/// Thread budget for parallel execution: [`dfly_netsim::thread_budget`],
/// the rule automatic engine sharding uses too.
pub fn configured_threads() -> usize {
    dfly_netsim::thread_budget()
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

/// One independent unit of a sweep: everything one simulation run
/// needs, and nothing shared mutably with its neighbours.
pub trait Cell: Sync {
    /// What one run produces.
    type Out: Send;
    /// Why a run can fail ([`Infallible`] when it cannot).
    type Err: Send + Into<CampaignError>;

    /// Engine worker threads one run claims (its `SimConfig::shards`;
    /// `0` — auto — claims the whole budget).
    fn shards(&self) -> usize;

    /// Runs the cell to completion.
    fn run(&self) -> Result<Self::Out, Self::Err>;
}

/// A [`Cell`] whose result a [`CampaignStore`] can serve instead of
/// re-running it (given a [`Codec`] for its `Out`).
pub trait CachedCell: Cell {
    /// Journal entry kind, also the cell's label in the timing sidecar
    /// and the progress stream.
    const KIND: &'static str;

    /// Canonical description of **everything** the result's bits depend
    /// on (the store adds format version, kind and code revision).
    fn canon(&self) -> String;
}

/// The sweep-level pool left of a `budget` of threads after every run
/// claims its engine shards: `budget / max(shards)`, at least 1. Any
/// auto-sharded run (`0`) grabs the whole budget itself, so such
/// sweeps execute one cell at a time.
pub fn pool_size(budget: usize, shards: impl IntoIterator<Item = usize>) -> usize {
    let mut demand = 1;
    for s in shards {
        if s == 0 {
            return 1;
        }
        demand = demand.max(s);
    }
    (budget / demand).max(1)
}

/// The explicit thread bound, or the [`pool_size`] `cells` leave of the
/// [`configured_threads`] budget.
fn pool_for<C: Cell>(cells: &[C], threads: Option<usize>) -> usize {
    threads.unwrap_or_else(|| pool_size(configured_threads(), cells.iter().map(Cell::shards)))
}

/// Runs every cell across the worker pool — `threads` wide, or sized by
/// [`pool_size`] when `None`. Results are in cell order and
/// bit-identical at any thread count.
///
/// # Errors
///
/// The first (in cell order) failed run.
pub fn run_cells<C: Cell>(cells: &[C], threads: Option<usize>) -> Result<Vec<C::Out>, C::Err> {
    parallel_map_on(cells, pool_for(cells, threads), C::run)
        .into_iter()
        .collect()
}

/// [`run_cells`] through a [`CampaignStore`]: cells whose key is
/// already stored return the persisted result without running; misses
/// run and stream to the journal the moment they complete. Results are
/// bit-identical to an uncached [`run_cells`] — on hits because the
/// store round trip is exact, on misses trivially.
///
/// Every resolved cell is reported to `on_result` as `(cell index,
/// result, was_hit)` in completion (not cell) order, from worker
/// threads; `threads == Some(1)` makes that order cell order. Progress
/// events go to the `DFLY_PROGRESS` sink (see [`crate::progress`]).
///
/// # Errors
///
/// The first (in cell order) failed run or journal write.
pub fn run_cells_cached<C: CachedCell>(
    cells: &[C],
    threads: Option<usize>,
    store: &CampaignStore,
    on_result: &(dyn Fn(usize, &C::Out, bool) + Sync),
) -> Result<(Vec<C::Out>, CampaignReport), CampaignError>
where
    C::Out: Codec,
{
    let sink = ProgressSink::from_env();
    let prior = if sink.is_off() {
        None
    } else {
        store.median_timing(C::KIND)
    };
    let progress = SweepProgress::begin(&sink, C::KIND, cells.len(), prior);
    let indexed: Vec<(usize, &C)> = cells.iter().enumerate().collect();
    let results = parallel_map_on(
        &indexed,
        pool_for(cells, threads),
        |&(i, cell)| -> Result<(C::Out, bool), CampaignError> {
            let key = store.key(cell);
            let (out, hit, secs) = match store.lookup(C::KIND, &key) {
                Some(out) => (out, true, 0.0),
                None => {
                    let clock = std::time::Instant::now();
                    let out = cell.run().map_err(Into::into)?;
                    let secs = clock.elapsed().as_secs_f64();
                    store.insert(C::KIND, &key, &out)?;
                    store.record_timing(C::KIND, secs);
                    (out, false, secs)
                }
            };
            on_result(i, &out, hit);
            progress.cell(i, hit, secs);
            Ok((out, hit))
        },
    );
    // Before the first error can return: a failed sweep still ends.
    progress.finish();
    let mut report = CampaignReport::default();
    let mut all = Vec::with_capacity(results.len());
    for result in results {
        let (out, hit) = result?;
        if hit {
            report.hits += 1;
        } else {
            report.misses += 1;
        }
        all.push(out);
    }
    Ok((all, report))
}

/// `base` at a Bernoulli offered load of `load`, as in the paper's
/// sweeps.
fn at_load(base: &SimConfig, load: f64) -> SimConfig {
    let mut cfg = base.clone();
    cfg.injection = InjectionKind::Bernoulli { rate: load };
    cfg
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
        RunPlan::new(routing, traffic, at_load(base, load))
    }

    /// The plan's injection rate (packets/terminal/cycle).
    pub fn load(&self) -> f64 {
        self.cfg.injection.rate()
    }
}

/// An ordered collection of independent [`RunPlan`]s — typically the
/// cross product of routing choices, traffic patterns and offered loads
/// behind one figure — executable on any number of threads with
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

    fn cells<'a, T>(&'a self, sim: &'a NetworkSim<T>) -> Vec<RunCell<'a, T>> {
        self.plans
            .iter()
            .map(|plan| RunCell { sim, plan })
            .collect()
    }

    /// Executes every plan against `sim` ([`run_cells`] with the pool
    /// sized from `DFLY_THREADS` and the plans' shard demand); results
    /// are in plan order and bit-identical at any thread count.
    pub fn execute<T: NetTopology + 'static>(&self, sim: &NetworkSim<T>) -> Vec<RunStats> {
        run_cells(&self.cells(sim), None).unwrap_or_else(|e| match e {})
    }

    /// [`RunGrid::execute`] with an explicit thread bound (`1` is the
    /// serial reference).
    pub fn execute_on<T: NetTopology + 'static>(
        &self,
        sim: &NetworkSim<T>,
        threads: usize,
    ) -> Vec<RunStats> {
        run_cells(&self.cells(sim), Some(threads)).unwrap_or_else(|e| match e {})
    }

    /// [`RunGrid::execute`] through a [`CampaignStore`] (see
    /// [`run_cells_cached`]).
    ///
    /// # Errors
    ///
    /// The first journal write failure, if any.
    pub fn execute_cached<T: NetTopology + 'static>(
        &self,
        sim: &NetworkSim<T>,
        store: &CampaignStore,
    ) -> Result<(Vec<RunStats>, CampaignReport), CampaignError> {
        run_cells_cached(&self.cells(sim), None, store, &|_, _, _| {})
    }

    /// [`RunGrid::execute_cached`] with an explicit thread bound and a
    /// streaming `(plan index, stats, was_hit)` callback.
    pub fn execute_cached_streaming_on<T: NetTopology + 'static>(
        &self,
        sim: &NetworkSim<T>,
        store: &CampaignStore,
        threads: usize,
        on_result: &(dyn Fn(usize, &RunStats, bool) + Sync),
    ) -> Result<(Vec<RunStats>, CampaignReport), CampaignError> {
        run_cells_cached(&self.cells(sim), Some(threads), store, on_result)
    }

    /// Folds `results` (one per plan, in plan order — what any
    /// `execute*` returns) into a [`MetricsRegistry`] under the
    /// standard counter/histogram names (`runs`, `drained_runs`,
    /// `labeled_packets`, the routing-decision counters, the
    /// `packet_latency` / `scoreboard_abs_error` histograms and a
    /// `latency/{routing label}` histogram per routing choice). A pure
    /// fold in plan order, so the registry (and its JSON) is the same
    /// however the results were computed.
    pub fn metrics(&self, results: &[RunStats]) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        for (plan, stats) in self.plans.iter().zip(results) {
            absorb_run(&mut registry, plan, stats);
        }
        registry
    }
}

/// One [`RunPlan`] against one wired network.
pub(crate) struct RunCell<'a, T> {
    pub(crate) sim: &'a NetworkSim<T>,
    pub(crate) plan: &'a RunPlan,
}

impl<T: NetTopology + 'static> Cell for RunCell<'_, T> {
    type Out = RunStats;
    type Err = Infallible;

    fn shards(&self) -> usize {
        self.plan.cfg.shards
    }

    fn run(&self) -> Result<RunStats, Infallible> {
        let plan = self.plan;
        Ok(self.sim.run(plan.routing, plan.traffic, plan.cfg.clone()))
    }
}

impl<T: NetTopology + 'static> CachedCell for RunCell<'_, T> {
    const KIND: &'static str = "run";

    /// Covers `sim`'s exact network ([`NetTopology::canon`]) — topology
    /// parameters, channel latencies and failed links included, so a
    /// faulted network never shares keys with a healthy one.
    fn canon(&self) -> String {
        format!(
            "{} routing={:?} traffic={:?} cfg={:?}",
            self.sim.network().canon(),
            self.plan.routing,
            self.plan.traffic,
            self.plan.cfg
        )
    }
}

/// Folds one run's statistics into `registry` (see [`RunGrid::metrics`]).
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

codec_struct!(FaultPoint {
    fraction,
    failed_links,
    stats
});

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
/// Points are independent runs and fan out across the worker pool,
/// bit-identically at any thread count.
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
    /// skips the (futile) drain: a saturation-throughput probe.
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

    fn cells(&self) -> Vec<FaultCell<'_>> {
        self.fractions
            .iter()
            .map(|&fraction| FaultCell {
                sweep: self,
                fraction,
            })
            .collect()
    }

    /// Runs every fraction ([`run_cells`] with the pool sized from
    /// `DFLY_THREADS` and `cfg.shards`); results are in fraction order
    /// and bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// The first fault-plan rejection, if any fraction disconnects the
    /// network or the plan is malformed.
    pub fn execute(&self) -> Result<Vec<FaultPoint>, SimError> {
        run_cells(&self.cells(), None)
    }

    /// [`FaultSweep::execute`] with an explicit thread bound (`1` is
    /// the serial reference).
    pub fn execute_on(&self, threads: usize) -> Result<Vec<FaultPoint>, SimError> {
        run_cells(&self.cells(), Some(threads))
    }

    /// [`FaultSweep::execute`] through a [`CampaignStore`] (see
    /// [`run_cells_cached`]).
    ///
    /// # Errors
    ///
    /// The first fault-plan rejection or journal write failure.
    pub fn execute_cached(
        &self,
        store: &CampaignStore,
    ) -> Result<(Vec<FaultPoint>, CampaignReport), CampaignError> {
        run_cells_cached(&self.cells(), None, store, &|_, _, _| {})
    }
}

/// One fraction of a [`FaultSweep`].
pub(crate) struct FaultCell<'a> {
    sweep: &'a FaultSweep,
    fraction: f64,
}

impl FaultCell<'_> {
    /// The fault plan and the configuration that actually runs — the
    /// pair both the run and its key are built from.
    fn setup(&self) -> (FaultPlan, SimConfig) {
        let plan = FaultPlan::Random {
            fraction: self.fraction,
            seed: self.sweep.seed,
            class: self.sweep.class,
        };
        let mut cfg = at_load(&self.sweep.cfg, 1.0);
        cfg.drain_cap = 0;
        (plan, cfg)
    }
}

impl Cell for FaultCell<'_> {
    type Out = FaultPoint;
    type Err = SimError;

    fn shards(&self) -> usize {
        self.sweep.cfg.shards
    }

    fn run(&self) -> Result<FaultPoint, SimError> {
        let (plan, cfg) = self.setup();
        let sim = DragonflySim::with_faults(self.sweep.params, &plan)?;
        let stats = sim.run(self.sweep.routing, self.sweep.traffic, cfg);
        Ok(FaultPoint {
            fraction: self.fraction,
            failed_links: sim.dragonfly().failed_links().len(),
            stats,
        })
    }
}

impl CachedCell for FaultCell<'_> {
    const KIND: &'static str = "fault";

    fn canon(&self) -> String {
        let (plan, cfg) = self.setup();
        format!(
            "params={:?} routing={:?} traffic={:?} cfg={:?} plan={:?}",
            self.sweep.params, self.sweep.routing, self.sweep.traffic, cfg, plan
        )
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

codec_tag!(Placement {
    0u64 => Placement::GroupDisjoint,
    1u64 => Placement::Interfering
});
codec_struct!(JobBook {
    delivered,
    latency,
    completion
});
codec_struct!(WorkloadPoint {
    placement,
    background_load,
    stats,
    books
});

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
/// pool, bit-identically at any thread count. The per-job books are
/// built from commutative updates only, so they are also identical at
/// any engine shard count.
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

    fn cells(&self) -> Vec<WorkloadCell<'_>> {
        self.points()
            .into_iter()
            .map(|(placement, load)| WorkloadCell {
                sweep: self,
                placement,
                load,
            })
            .collect()
    }

    /// Runs every point ([`run_cells`] with the pool sized from
    /// `DFLY_THREADS` and `cfg.shards`); results are in
    /// [`WorkloadSweep::points`] order and bit-identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// The first invalid job spec or failed placement, if any.
    pub fn execute(&self) -> Result<Vec<WorkloadPoint>, JobError> {
        run_cells(&self.cells(), None)
    }

    /// [`WorkloadSweep::execute`] with an explicit thread bound (`1` is
    /// the serial reference).
    pub fn execute_on(&self, threads: usize) -> Result<Vec<WorkloadPoint>, JobError> {
        run_cells(&self.cells(), Some(threads))
    }

    /// [`WorkloadSweep::execute`] through a [`CampaignStore`] (see
    /// [`run_cells_cached`]), per-job books included.
    ///
    /// # Errors
    ///
    /// The first invalid job spec, failed placement, or journal write
    /// failure.
    pub fn execute_cached(
        &self,
        store: &CampaignStore,
    ) -> Result<(Vec<WorkloadPoint>, CampaignReport), CampaignError> {
        run_cells_cached(&self.cells(), None, store, &|_, _, _| {})
    }

    /// Folds `points` (what any `execute*` returns) into a
    /// [`MetricsRegistry`] under per-job scopes:
    /// `jobs/{name}/{placement}/delivered`,
    /// `jobs/{name}/{placement}/completion_cycles` and the
    /// `jobs/{name}/{placement}/latency` histogram, plus the sweep-wide
    /// `workload_runs` / `workload_completed_runs` counters. A pure
    /// fold in point order.
    pub fn metrics(&self, points: &[WorkloadPoint]) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        for point in points {
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
        registry
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

/// One `(placement, background load)` point of a [`WorkloadSweep`].
pub(crate) struct WorkloadCell<'a> {
    sweep: &'a WorkloadSweep,
    placement: Placement,
    load: f64,
}

impl WorkloadCell<'_> {
    /// The configuration that actually runs (and is keyed).
    fn cfg(&self) -> SimConfig {
        let mut cfg = self.sweep.cfg.clone();
        cfg.termination = Termination::WorkComplete;
        cfg
    }
}

impl Cell for WorkloadCell<'_> {
    type Out = WorkloadPoint;
    type Err = JobError;

    fn shards(&self) -> usize {
        self.sweep.cfg.shards
    }

    fn run(&self) -> Result<WorkloadPoint, JobError> {
        let sweep = self.sweep;
        let sim = DragonflySim::new(sweep.params);
        let mix = JobMix::new(sweep.jobs.clone(), self.placement).with_background(self.load);
        let assignment = mix.assign(&sweep.params)?;
        let ledger = mix.ledger();
        let stats = sim.run_workload(sweep.routing, self.cfg(), &|range| {
            Box::new(mix.workload(&assignment, range, &ledger))
        });
        Ok(WorkloadPoint {
            placement: self.placement,
            background_load: self.load,
            stats,
            books: ledger.snapshot(),
        })
    }
}

impl CachedCell for WorkloadCell<'_> {
    const KIND: &'static str = "workload";

    fn canon(&self) -> String {
        format!(
            "params={:?} routing={:?} jobs={:?} cfg={:?} placement={:?} background={:?}",
            self.sweep.params,
            self.sweep.routing,
            self.sweep.jobs,
            self.cfg(),
            self.placement,
            self.load
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DragonflyParams;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn tiny() -> DragonflySim {
        DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap())
    }

    fn fast_cfg<T: NetTopology + 'static>(sim: &NetworkSim<T>, load: f64) -> SimConfig {
        let mut cfg = sim.config(load);
        cfg.warmup = 200;
        cfg.measure = 600;
        cfg.drain_cap = 20_000;
        cfg
    }

    #[test]
    fn shard_demand_tracks_plan_configs() {
        // The one budget rule, as a pure function.
        assert_eq!(pool_size(8, [1]), 8);
        assert_eq!(pool_size(8, [2]), 4);
        assert_eq!(pool_size(8, [4]), 2);
        assert_eq!(pool_size(8, [0]), 1, "auto-sharded runs go one at a time");
        assert_eq!(pool_size(8, [1, 4, 2]), 2, "the largest demand decides");
        assert_eq!(pool_size(8, [4, 0, 1]), 1, "auto dominates");
        assert_eq!(pool_size(2, [4]), 1, "never below one worker");
        assert_eq!(pool_size(8, []), 8);
        // Every sweep kind feeds it its cells' `SimConfig::shards`
        // (fault sweeps used to ignore theirs).
        let sim = tiny();
        for shards in [0, 1, 2, 4] {
            let cfg = fast_cfg(&sim, 0.1).with_shards(shards);
            let grid = RunGrid::cross(
                &[RoutingChoice::Min],
                &[TrafficChoice::Uniform],
                &[0.1, 0.2],
                &cfg,
            );
            let fault = FaultSweep::new(
                DragonflyParams::new(2, 4, 2).unwrap(),
                RoutingChoice::Min,
                TrafficChoice::Uniform,
                &cfg,
                &[0.0, 0.125],
                1,
            );
            let mut workload = tiny_workload_sweep(&[0.0]);
            workload.cfg.shards = shards;
            let want = pool_size(configured_threads(), [shards]);
            assert_eq!(pool_for(&grid.cells(&sim), None), want);
            assert_eq!(pool_for(&fault.cells(), None), want);
            assert_eq!(pool_for(&workload.cells(), None), want);
            assert_eq!(pool_for(&fault.cells(), Some(3)), 3);
        }
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
        let serial = grid.execute_on(&sim, 1);
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
        let serial_stats = grid.execute_on(&sim, 1);
        let serial_reg = grid.metrics(&serial_stats);
        let par_stats = grid.execute_on(&sim, 4);
        let par_reg = grid.metrics(&par_stats);
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

    /// A sweep on any topology's harness is the serial run of each plan
    /// with the routing and pattern built by hand: the dragonfly's, and
    /// each baseline's under the names its figures use (FB-UGAL-L is
    /// `UgalL`, Clos up/down and torus DOR are `Min`).
    #[test]
    fn sweep_network_matches_dragonfly_sweep() {
        use crate::butterfly::{ButterflyNetwork, ButterflyRouting};
        use crate::clos_sim::{ClosNetwork, ClosRouting};
        use crate::torus_sim::{TorusNetwork, TorusRouting};
        use crate::UgalVariant;
        use dfly_netsim::{NetworkSpec, RoutingAlgorithm, Simulation};
        use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};

        fn check<T: NetTopology + 'static>(
            sim: &NetworkSim<T>,
            choice: RoutingChoice,
            by_hand: &dyn RoutingAlgorithm,
        ) {
            let base = fast_cfg(sim, 0.0);
            let loads = [0.1, 0.25];
            let grid = RunGrid::cross(&[choice], &[TrafficChoice::Uniform], &loads, &base);
            let by_grid = grid.execute(sim);
            let spec: &NetworkSpec = sim.spec();
            let pattern = dfly_traffic::UniformRandom::new(spec.num_terminals());
            assert_eq!(by_grid.len(), loads.len());
            for (&load, stats) in loads.iter().zip(&by_grid) {
                let cfg = at_load(&base, load);
                let serial = Simulation::new(spec, by_hand, &pattern, cfg)
                    .unwrap()
                    .finish();
                assert_eq!(&serial, stats, "{choice:?} at {load}");
                assert!(stats.drained, "{choice:?} at {load}");
            }
        }

        let df = tiny();
        let df_min = RoutingChoice::Min.build(df.shared_network());
        check(&df, RoutingChoice::Min, df_min.as_ref());
        let fb = NetworkSim::from(ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2)));
        let fb_ugal = ButterflyRouting::ugal(fb.shared_network(), UgalVariant::Local);
        check(&fb, RoutingChoice::UgalL, &fb_ugal);
        let clos = NetworkSim::from(ClosNetwork::new(FoldedClos::new(3, 8)));
        check(
            &clos,
            RoutingChoice::Min,
            &ClosRouting::new(clos.shared_network()),
        );
        let torus = NetworkSim::from(TorusNetwork::new(Torus::new(2, 4, 1)));
        check(
            &torus,
            RoutingChoice::Min,
            &TorusRouting::new(torus.shared_network()),
        );
    }

    /// An invalid configuration on any network fails loudly instead of
    /// returning made-up statistics.
    #[test]
    fn sweep_network_surfaces_invalid_configs() {
        use crate::torus_sim::TorusNetwork;
        let torus = NetworkSim::from(TorusNetwork::new(dfly_topo::Torus::new(2, 4, 1)));
        let mut base = fast_cfg(&torus, 0.0);
        base.measure = 0; // rejected by SimConfig::validate
        let grid = RunGrid::cross(
            &[RoutingChoice::Min],
            &[TrafficChoice::Uniform],
            &[0.1],
            &base,
        );
        let run = std::panic::catch_unwind(|| grid.execute_on(&torus, 1));
        let message = run.expect_err("an invalid config must not run");
        let text = message
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            text.contains("harness-built simulation must be valid"),
            "{text}"
        );
        assert!(text.contains("InvalidConfig"), "{text}");
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
        let serial = sweep.execute_on(1).unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), 2);
        assert_eq!(parallel[0].failed_links, 0);
        // 36 global cables at 1/8: round(4.5) cables die.
        assert_eq!(parallel[1].failed_links, 5);
        assert!(parallel[0].throughput() > 0.0);
        assert!(parallel[1].throughput() > 0.0);
    }

    /// A local-channel sweep ([`FaultSweep::with_class`]) fails local
    /// cables only — exactly those [`FaultPlan::random_local`] names —
    /// and gives the same points at 1 and 4 threads.
    #[test]
    fn local_fault_sweep_fails_only_local_cables() {
        let mut cfg = SimConfig::paper_default(1.0);
        cfg.warmup = 100;
        cfg.measure = 300;
        let params = DragonflyParams::new(2, 4, 2).unwrap();
        let fractions = [0.0, 0.1, 0.2];
        let sweep = FaultSweep::new(
            params,
            RoutingChoice::UgalLVcH,
            TrafficChoice::Uniform,
            &cfg,
            &fractions,
            5,
        )
        .with_class(FaultClass::Local);
        let serial = sweep.execute_on(1).unwrap();
        assert_eq!(serial, sweep.execute_on(4).unwrap());
        for (point, &fraction) in serial.iter().zip(&fractions) {
            let plan = FaultPlan::random_local(fraction, 5);
            let sim = DragonflySim::with_faults(params, &plan).unwrap();
            let spec = sim.spec();
            assert_eq!(point.failed_links, spec.failed_links().len());
            for &(router, port) in spec.failed_links() {
                let class = spec.routers[router].ports[port].class;
                assert_eq!(class, dfly_netsim::ChannelClass::Local);
            }
        }
        // 54 local cables: round(5.4) and round(10.8) of them die.
        let failed: Vec<usize> = serial.iter().map(|p| p.failed_links).collect();
        assert_eq!(failed, [0, 5, 11]);
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
        let serial = sweep.execute_on(1).unwrap();
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
        let points = sweep.execute().unwrap();
        let registry = sweep.metrics(&points);
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

    /// A simulator-free cell: squares its id, counts its runs, fails on
    /// demand.
    struct Toy<'a> {
        id: u64,
        fail: bool,
        runs: &'a AtomicUsize,
    }

    impl Cell for Toy<'_> {
        type Out = u64;
        type Err = SimError;

        fn shards(&self) -> usize {
            1
        }

        fn run(&self) -> Result<u64, SimError> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            if self.fail {
                return Err(SimError::InvalidConfig(format!("toy {}", self.id)));
            }
            Ok(self.id * self.id)
        }
    }

    impl CachedCell for Toy<'_> {
        const KIND: &'static str = "toy";

        fn canon(&self) -> String {
            format!("id={}", self.id)
        }
    }

    fn toys<'a>(ids: std::ops::Range<u64>, fail: &[u64], runs: &'a AtomicUsize) -> Vec<Toy<'a>> {
        ids.map(|id| Toy {
            id,
            fail: fail.contains(&id),
            runs,
        })
        .collect()
    }

    fn temp_store(name: &str) -> CampaignStore {
        let dir =
            std::env::temp_dir().join(format!("dfly-executor-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CampaignStore::open_with_revision(&dir, "r1").expect("store opens")
    }

    #[test]
    fn toy_cells_exercise_the_whole_executor() {
        let runs = AtomicUsize::new(0);
        let cells = toys(0..9, &[], &runs);
        let squares: Vec<u64> = (0..9).map(|i| i * i).collect();
        for threads in [1, 2, 4] {
            assert_eq!(run_cells(&cells, Some(threads)).unwrap(), squares);
        }
        assert_eq!(runs.swap(0, Ordering::SeqCst), 27);

        // Cold pass: every cell runs once, is journaled once, and is
        // reported once as a miss. Warm pass: nothing runs.
        let store = temp_store("toy");
        for (threads, hit, ran) in [(4, false, 9), (2, true, 0), (1, true, 0)] {
            let seen = Mutex::new(Vec::new());
            let (outs, report) =
                run_cells_cached(&cells, Some(threads), &store, &|i, out: &u64, was_hit| {
                    seen.lock().unwrap().push((i, *out, was_hit));
                })
                .unwrap();
            assert_eq!(outs, squares);
            let want = if hit { (9, 0) } else { (0, 9) };
            assert_eq!((report.hits, report.misses), want);
            assert_eq!(runs.swap(0, Ordering::SeqCst), ran, "hits must not run");
            assert_eq!(store.len(), 9, "one journal entry per cell");
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            let want: Vec<_> = (0..9).map(|i| (i, squares[i], hit)).collect();
            assert_eq!(seen, want, "one callback per cell");
        }
        // A grown sweep resimulates only what is new.
        let (_, report) = run_cells_cached(&toys(6..12, &[], &runs), None, &store, &|_, _, _| {})
            .expect("partial pass");
        assert_eq!((report.hits, report.misses), (3, 3));
        assert_eq!(runs.swap(0, Ordering::SeqCst), 3);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn failed_sweep_surfaces_first_error_and_still_ends_its_progress() {
        let runs = AtomicUsize::new(0);
        let cells = toys(20..26, &[22, 24], &runs);
        for threads in [1, 4] {
            let err = run_cells(&cells, Some(threads)).unwrap_err();
            assert_eq!(err, SimError::InvalidConfig("toy 22".into()));
        }
        // Other tests' sweeps may land in the file while the variable
        // is set; the toy kind is this test's alone.
        let store = temp_store("toy-fail");
        let progress = store.dir().join("progress.jsonl");
        std::env::set_var("DFLY_PROGRESS", &progress);
        let result = run_cells_cached(&cells, Some(1), &store, &|_, _, _| {});
        std::env::remove_var("DFLY_PROGRESS");
        match result {
            Err(CampaignError::Sim(e)) => assert_eq!(e, SimError::InvalidConfig("toy 22".into())),
            other => panic!("expected the cell error, got {other:?}"),
        }
        assert_eq!(store.len(), 4, "cells that ran before and after are kept");
        let text = std::fs::read_to_string(&progress).expect("progress file written");
        let events: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"sweep\":\"toy\""))
            .collect();
        assert!(events[0].contains("\"event\":\"begin\""), "{text}");
        assert!(
            events.last().unwrap().contains("\"event\":\"end\""),
            "{text}"
        );
        assert_eq!(
            events.len(),
            2 + 4,
            "begin, the four good cells, end: {text}"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Canonical key strings captured at the commit before the one
    /// executor existed: journals written by it must keep hitting.
    #[test]
    fn canonical_keys_are_stable_across_the_refactor() {
        const CFG: &str = "buffer_depth: 16, packet_len: 1, injection: Bernoulli { rate: RATE }, \
            warmup: 100, measure: 300, drain_cap: DRAIN, seed: 1, credit_mode: Conventional, \
            telemetry: TelemetryConfig { sample_every: 0, trace_rate: 0.0, trace_seed: 0 }, \
            shards: 1, scale_mode: false, termination: TERM, watchdog_every: 0";
        let cfg_str = |rate: &str, drain: &str, term: &str| {
            CFG.replace("RATE", rate)
                .replace("DRAIN", drain)
                .replace("TERM", term)
        };
        let store = temp_store("keys");
        let params = DragonflyParams::new(2, 4, 2).unwrap();
        let sim = DragonflySim::new(params);
        let mut cfg = SimConfig::paper_default(0.0);
        cfg.warmup = 100;
        cfg.measure = 300;
        cfg.drain_cap = 2_000;

        let grid = RunGrid::cross(
            &[RoutingChoice::UgalL],
            &[TrafficChoice::WorstCase],
            &[0.25],
            &cfg,
        );
        let run = format!(
            "dfly-campaign-v2 kind=run rev=r1 params=DragonflyParams {{ p: 2, a: 4, h: 2, g: 9 }} \
             latencies=ChannelLatencies {{ terminal: 1, local: 1, global: 1 }} failed=[] \
             routing=UgalL traffic=WorstCase cfg=SimConfig {{ {} }}",
            cfg_str("0.25", "2000", "FixedWindow")
        );
        assert_eq!(store.key(&grid.cells(&sim)[0]).canon, run);
        assert_eq!(store.run_key(&sim, &grid.plans()[0]).canon, run);

        let fault = FaultSweep::new(
            params,
            RoutingChoice::UgalLVcH,
            TrafficChoice::Uniform,
            &cfg,
            &[0.125],
            3,
        );
        assert_eq!(
            store.key(&fault.cells()[0]).canon,
            format!(
                "dfly-campaign-v2 kind=fault rev=r1 params=DragonflyParams {{ p: 2, a: 4, h: 2, \
                 g: 9 }} routing=UgalLVcH traffic=Uniform cfg=SimConfig {{ {} }} \
                 plan=Random {{ fraction: 0.125, seed: 3, class: Global }}",
                cfg_str("1.0", "0", "FixedWindow")
            )
        );

        let workload = WorkloadSweep::new(
            params,
            RoutingChoice::Min,
            vec![JobSpec::all_to_all("alpha", 8)],
            &cfg,
            &[0.1],
        );
        assert_eq!(
            store.key(&workload.cells()[1]).canon,
            format!(
                "dfly-campaign-v2 kind=workload rev=r1 params=DragonflyParams {{ p: 2, a: 4, \
                 h: 2, g: 9 }} routing=Min jobs=[JobSpec {{ name: \"alpha\", size: 8, \
                 kind: AllToAll }}] cfg=SimConfig {{ {} }} placement=Interfering background=0.1",
                cfg_str("0.0", "2000", "WorkComplete")
            )
        );

        // Each baseline names its network once (`NetTopology::canon`):
        // `network=` can never begin a dragonfly key.
        fn uniform_key<T: NetTopology + 'static>(
            store: &CampaignStore,
            sim: &NetworkSim<T>,
            routing: RoutingChoice,
            cfg: &SimConfig,
        ) -> String {
            let grid = RunGrid::cross(&[routing], &[TrafficChoice::Uniform], &[0.25], cfg);
            store.key(&grid.cells(sim)[0]).canon
        }
        let baseline = |network: &str, routing: &str| {
            format!(
                "dfly-campaign-v2 kind=run rev=r1 network={network} latency=1 failed=[] \
                 routing={routing} traffic=Uniform cfg=SimConfig {{ {} }}",
                cfg_str("0.25", "2000", "FixedWindow")
            )
        };
        let fb = NetworkSim::from(crate::butterfly::ButterflyNetwork::new(
            dfly_topo::FlattenedButterfly::new(2, 6, 2),
        ));
        assert_eq!(
            uniform_key(&store, &fb, RoutingChoice::UgalL, &cfg),
            baseline(
                "FlattenedButterfly { dims: [6, 6], concentration: 2 }",
                "UgalL"
            )
        );
        let clos = NetworkSim::from(crate::clos_sim::ClosNetwork::new(
            dfly_topo::FoldedClos::new(3, 8),
        ));
        assert_eq!(
            uniform_key(&store, &clos, RoutingChoice::Min, &cfg),
            baseline("FoldedClos { levels: 3, radix: 8 }", "Min")
        );
        let torus = NetworkSim::from(crate::torus_sim::TorusNetwork::new(dfly_topo::Torus::new(
            3, 4, 1,
        )));
        assert_eq!(
            uniform_key(&store, &torus, RoutingChoice::Min, &cfg),
            baseline("Torus { dimensions: 3, arity: 4, concentration: 1 }", "Min")
        );

        // A journal filled through the typed wrappers (all the parent
        // commit's callers had) is all hits through the executor.
        let grid = RunGrid::cross(
            &[RoutingChoice::Min, RoutingChoice::UgalL],
            &[TrafficChoice::Uniform],
            &[0.1, 0.2],
            &cfg,
        );
        let fresh = grid.execute_on(&sim, 1);
        for (plan, stats) in grid.plans().iter().zip(&fresh) {
            let key = store.run_key(&sim, plan);
            store.insert_run(&key, stats).expect("journal append");
            assert_eq!(store.lookup_run(&key).as_ref(), Some(stats));
        }
        let (cached, report) = grid.execute_cached(&sim, &store).expect("hit pass");
        assert_eq!((report.hits, report.misses), (4, 0));
        assert_eq!(cached, fresh);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}

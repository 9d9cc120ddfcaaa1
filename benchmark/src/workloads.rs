//! The seven workloads: what each builds, what its timed body is, and
//! the layer probes of the traced run. Everything here calls public
//! functions of the simulator crates only.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dfly_netsim::{trace_path, CreditMode, RouteInfo, RunStats, SimConfig, SimPerf, Simulation};
use dragonfly::{
    CampaignStore, DragonflyParams, DragonflySim, JobMix, JobSpec, Placement, RoutingChoice,
    RunGrid, TrafficChoice, WorkloadPoint, WorkloadSweep,
};
use rand::Rng;

use crate::trace::Tracer;

/// How large the workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the recorded numbers were taken at.
    Full,
    /// Every workload shrunk to well under a second, for `cargo test`.
    Smoke,
}

/// One `Simulation` run: the four engine workloads.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// Dragonfly `(p, a, h)`.
    pub params: (usize, usize, usize),
    /// Routing algorithm.
    pub routing: RoutingChoice,
    /// Traffic pattern.
    pub traffic: TrafficChoice,
    /// Offered load, open-loop Bernoulli (sub-saturation on purpose: the
    /// run must drain and accept what is offered).
    pub load: f64,
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measurement-window cycles.
    pub measure: u64,
    /// Engine shards.
    pub shards: usize,
    /// `SimConfig::scale_mode`.
    pub scale_mode: bool,
}

/// `RoutingChoice::ALL` x {UR, WC} x `loads` on one small network.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Dragonfly `(p, a, h)`.
    pub params: (usize, usize, usize),
    /// Offered loads (innermost grid axis).
    pub loads: Vec<f64>,
    /// Warm-up cycles per cell.
    pub warmup: u64,
    /// Measurement-window cycles per cell.
    pub measure: u64,
    /// Drain cap per cell: cells past saturation (MIN under WC) stop
    /// here undrained, which is expected and not a failure.
    pub drain_cap: u64,
}

/// The sweep-executor workload.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The cells.
    pub grid: GridSpec,
    /// Pool workers of the timed body.
    pub threads: usize,
}

/// The result-store workload.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The cells. Filled and re-read at threads = 1: a 2-thread fill
    /// fails with `Io(NotFound)` today (ROADMAP first open item) and the
    /// benchmark must repeat.
    pub grid: GridSpec,
    /// Leg B: this many `CampaignStore::open` + all-hit reruns.
    pub reruns: usize,
    /// Hits each rerun must report (the cell count; a test overrides it
    /// to prove a wrong count is caught).
    pub expected_warm_hits: usize,
}

/// The closed-loop tenant-mix workload.
#[derive(Debug, Clone)]
pub struct JobsSpec {
    /// Dragonfly `(p, a, h)`.
    pub params: (usize, usize, usize),
    /// Ranks of the all-to-all job "alpha".
    pub alpha: usize,
    /// Ranks of the ring all-reduce job "beta".
    pub beta: usize,
    /// Background loads; each runs under both placements.
    pub backgrounds: Vec<f64>,
}

/// A workload's inputs.
#[derive(Debug, Clone)]
pub enum Spec {
    /// One simulation run.
    Engine(EngineSpec),
    /// A grid through the pool.
    Sweep(SweepSpec),
    /// A grid through the store.
    Campaign(CampaignSpec),
    /// A job mix through `WorkloadSweep`.
    Jobs(JobsSpec),
}

const NET_72: (usize, usize, usize) = (2, 4, 2);
const NET_1K: (usize, usize, usize) = (4, 8, 4);
const NET_262K: (usize, usize, usize) = (16, 32, 16);

/// The inputs of workload `name` at `size`, threads and shards capped
/// at `max_threads`; `None` for an unknown name.
///
/// Full sizes are the issue's prototype sizes with windows cut until an
/// untraced rep takes 1-5 s on the 2-core reference box, so that several
/// reps fit the driver's per-run budget; the list of workloads and their
/// regimes (load, routing, shard and thread counts) are untouched.
pub fn spec(name: &str, size: Size, max_threads: usize) -> Option<Spec> {
    let full = size == Size::Full;
    let two = 2.min(max_threads);
    let net_1k = if full { NET_1K } else { NET_72 };
    let engine = |routing, traffic, load, warmup, measure, shards| {
        Spec::Engine(EngineSpec {
            params: net_1k,
            routing,
            traffic,
            load,
            warmup,
            measure,
            shards,
            scale_mode: false,
        })
    };
    let (ur, wc) = (TrafficChoice::Uniform, TrafficChoice::WorstCase);
    Some(match name {
        "idle_1k" if full => engine(RoutingChoice::UgalL, ur, 0.02, 5_000, 30_000, 1),
        "idle_1k" => engine(RoutingChoice::UgalL, ur, 0.02, 200, 3_000, 1),
        "sat_wc_1k" if full => engine(RoutingChoice::UgalLCr, wc, 0.4, 1_000, 2_000, 1),
        // The 72-terminal network saturates earlier under WC.
        "sat_wc_1k" => engine(RoutingChoice::UgalLCr, wc, 0.25, 300, 600, 1),
        "shard2_1k" if full => engine(RoutingChoice::UgalL, ur, 0.3, 2_000, 6_000, two),
        "shard2_1k" => engine(RoutingChoice::UgalL, ur, 0.3, 200, 600, two),
        "scale_262k" => Spec::Engine(EngineSpec {
            params: if full { NET_262K } else { NET_1K },
            routing: RoutingChoice::Min,
            traffic: ur,
            load: 0.2,
            // 12 cycles fill the pipeline (p99 latency is 8 cycles), so
            // the window sees steady-state ejection. The drain ends with
            // the slowest labelled packet, a cycle or two earlier or later
            // with the seed: the window is long enough to keep that under
            // 3 % of the run.
            warmup: 12,
            measure: if full { 12 } else { 40 },
            shards: 1,
            scale_mode: true,
        }),
        "sweep_fig8_72" => Spec::Sweep(SweepSpec {
            grid: GridSpec {
                params: NET_72,
                loads: if full {
                    (1..=6).map(|i| i as f64 / 10.0).collect()
                } else {
                    vec![0.1, 0.3]
                },
                warmup: if full { 400 } else { 100 },
                measure: if full { 1_200 } else { 300 },
                drain_cap: if full { 800 } else { 300 },
            },
            threads: two,
        }),
        "campaign_fill_rerun" => {
            let loads: Vec<f64> = if full {
                (1..=5).map(|i| i as f64 * 0.12).collect()
            } else {
                vec![0.2]
            };
            let cells = RoutingChoice::ALL.len() * 2 * loads.len();
            Spec::Campaign(CampaignSpec {
                grid: GridSpec {
                    params: NET_72,
                    loads,
                    warmup: if full { 300 } else { 100 },
                    measure: if full { 600 } else { 200 },
                    drain_cap: if full { 500 } else { 200 },
                },
                reruns: if full { 40 } else { 3 },
                expected_warm_hits: cells,
            })
        }
        "jobs_mix_1k" => Spec::Jobs(JobsSpec {
            params: net_1k,
            alpha: if full { 256 } else { 16 },
            beta: if full { 256 } else { 16 },
            backgrounds: if full {
                vec![0.0, 0.2, 0.4]
            } else {
                vec![0.0, 0.2]
            },
        }),
        _ => return None,
    })
}

fn params_of((p, a, h): (usize, usize, usize)) -> DragonflyParams {
    DragonflyParams::new(p, a, h).expect("benchmark networks are valid dragonflies")
}

impl Spec {
    /// The network the workload runs on.
    pub fn params(&self) -> DragonflyParams {
        params_of(match self {
            Spec::Engine(e) => e.params,
            Spec::Sweep(s) => s.grid.params,
            Spec::Campaign(c) => c.grid.params,
            Spec::Jobs(j) => j.params,
        })
    }

    /// The routing choice the layer probes build (the workload's own,
    /// or UGAL-L where it runs all of them).
    pub fn routing(&self) -> RoutingChoice {
        match self {
            Spec::Engine(e) => e.routing,
            _ => RoutingChoice::UgalL,
        }
    }

    /// Pool workers the timed body uses.
    pub fn threads(&self) -> usize {
        match self {
            Spec::Sweep(s) => s.threads,
            _ => 1,
        }
    }

    /// Engine shards the timed body uses.
    pub fn shards(&self) -> usize {
        match self {
            Spec::Engine(e) => e.shards,
            _ => 1,
        }
    }
}

impl EngineSpec {
    fn config(&self, seed: u64, shards: usize) -> SimConfig {
        let mut cfg = SimConfig::paper_default(self.load)
            .with_seed(seed)
            .with_shards(shards)
            .with_scale_mode(self.scale_mode);
        cfg.warmup = self.warmup;
        cfg.measure = self.measure;
        if self.routing.needs_round_trip_credits() {
            cfg.credit_mode = CreditMode::round_trip();
        }
        cfg
    }
}

impl GridSpec {
    fn grid(&self, seed: u64) -> RunGrid {
        let mut base = SimConfig::paper_default(0.0).with_seed(seed);
        base.warmup = self.warmup;
        base.measure = self.measure;
        base.drain_cap = self.drain_cap;
        RunGrid::cross(
            &RoutingChoice::ALL,
            &[TrafficChoice::Uniform, TrafficChoice::WorstCase],
            &self.loads,
            &base,
        )
    }
}

/// What a body produced: the simulated results the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub enum Results {
    /// Open-loop runs, in plan order.
    Runs(Vec<RunStats>),
    /// Closed-loop points with their per-job books.
    Points(Vec<WorkloadPoint>),
}

impl Results {
    /// The engine statistics of every cell.
    pub fn stats(&self) -> Vec<&RunStats> {
        match self {
            Results::Runs(runs) => runs.iter().collect(),
            Results::Points(points) => points.iter().map(|p| &p.stats).collect(),
        }
    }
}

/// How a rep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The measured configuration: no spans, `finish()`.
    Plain,
    /// Spans on; engine workloads use `run_instrumented` (phase timers).
    Traced,
    /// Engine workloads only: every `step()` of warm-up and window
    /// timed from outside, then `finish()`.
    Stepped,
}

/// One repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds before the timed body.
    pub setup_s: f64,
    /// Host seconds of the timed body.
    pub wall_s: f64,
    /// Simulated results.
    pub results: Results,
    /// Results produced or served by the body (campaign: fill + reruns).
    pub cells: u64,
    /// Campaign legs `(cold_s, warm_s)`.
    pub legs: Option<(f64, f64)>,
    /// Campaign journal size after the fill.
    pub journal_bytes: u64,
    /// Engine phase timers ([`Mode::Traced`]).
    pub perf: Option<SimPerf>,
    /// Per-`step()` host ns ([`Mode::Stepped`]).
    pub cycle_ns: Vec<u32>,
    /// Output checks this rep failed.
    pub problems: Vec<String>,
}

impl Rep {
    fn new(setup_s: f64, wall_s: f64, results: Results) -> Rep {
        let cells = results.stats().len() as u64;
        Rep {
            setup_s,
            wall_s,
            results,
            cells,
            legs: None,
            journal_bytes: 0,
            perf: None,
            cycle_ns: Vec::new(),
            problems: Vec::new(),
        }
    }
}

/// Builds network, routing, pattern and `Simulation` under one span
/// each, then hands the simulation to `body`. Returns the set-up time
/// and `body`'s result.
fn with_simulation<R>(
    params: DragonflyParams,
    routing: RoutingChoice,
    traffic: TrafficChoice,
    cfg: SimConfig,
    tr: &mut Tracer,
    body: impl FnOnce(Simulation<'_>, &mut Tracer) -> R,
) -> (f64, R) {
    let clock = Instant::now();
    let net = tr.span("core.topology.build", |_| DragonflySim::new(params));
    let algo = tr.span("core.routing.build", |_| {
        routing.build(net.shared_dragonfly())
    });
    let pattern = traffic.build(&params);
    let sim = tr
        .span("netsim.sim.new", |_| {
            Simulation::new(net.spec(), algo.as_ref(), pattern.as_ref(), cfg)
        })
        .expect("benchmark configurations are valid");
    let setup_s = clock.elapsed().as_secs_f64();
    (setup_s, body(sim, tr))
}

fn engine_rep(e: &EngineSpec, seed: u64, shards: usize, mode: Mode, tr: &mut Tracer) -> Rep {
    let cfg = e.config(seed, shards);
    let stepped_cycles = e.warmup + e.measure;
    let (setup_s, (wall_s, stats, perf, cycle_ns)) = with_simulation(
        params_of(e.params),
        e.routing,
        e.traffic,
        cfg,
        tr,
        |mut sim, tr| {
            let clock = Instant::now();
            let (stats, perf, cycle_ns) = match mode {
                Mode::Plain => (sim.finish(), None, Vec::new()),
                Mode::Traced => {
                    let (stats, perf) =
                        tr.span("netsim.sim.run_instrumented", |_| sim.run_instrumented());
                    (stats, Some(perf), Vec::new())
                }
                Mode::Stepped => {
                    // Stop one cycle short of the window's end: `finish`
                    // tests for termination only after running a cycle.
                    let steps = stepped_cycles.saturating_sub(1) as usize;
                    let mut cycle_ns = Vec::with_capacity(steps);
                    tr.span("netsim.sim.step_loop", |_| {
                        for _ in 0..steps {
                            let t = Instant::now();
                            sim.step();
                            cycle_ns.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                        }
                    });
                    let stats = tr.span("netsim.sim.finish", |_| sim.finish());
                    (stats, None, cycle_ns)
                }
            };
            (clock.elapsed().as_secs_f64(), stats, perf, cycle_ns)
        },
    );
    let mut rep = Rep::new(setup_s, wall_s, Results::Runs(vec![stats]));
    rep.perf = perf;
    rep.cycle_ns = cycle_ns;
    let stats = rep.results.stats()[0];
    if !stats.drained {
        rep.problems.push("run did not drain".into());
    }
    // Sub-saturation: the network accepts what is offered, up to the
    // sampling noise of the window's packet count (2 % at full size).
    let packets = params_of(e.params).num_terminals() as f64 * e.measure as f64 * e.load;
    let tolerance = 0.02f64.max(4.0 / packets.sqrt());
    let off = (stats.accepted_rate - e.load).abs() / e.load;
    if off > tolerance {
        rep.problems.push(format!(
            "accepted rate {} is {:.1} % off the offered load {}",
            stats.accepted_rate,
            off * 100.0,
            e.load
        ));
    }
    rep
}

/// Runs `f` and returns its host seconds with its result, so that
/// dropping the result is not part of the time.
fn clocked<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let clock = Instant::now();
    let out = f();
    (clock.elapsed().as_secs_f64(), out)
}

fn grid_setup(g: &GridSpec, seed: u64, tr: &mut Tracer) -> (DragonflySim, RunGrid) {
    let net = tr.span("core.topology.build", |_| {
        DragonflySim::new(params_of(g.params))
    });
    (net, g.grid(seed))
}

fn sweep_rep(g: &GridSpec, seed: u64, threads: usize, tr: &mut Tracer) -> Rep {
    let (setup_s, (net, grid)) = clocked(|| grid_setup(g, seed, tr));
    let (wall_s, runs) = clocked(|| {
        tr.span("core.parallel.execute_on", |_| {
            grid.execute_on(&net, threads)
        })
    });
    Rep::new(setup_s, wall_s, Results::Runs(runs))
}

/// A scratch directory under `out_dir`, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(out_dir: &Path, tag: &str) -> ScratchDir {
        let dir = out_dir.join(format!("store-{}-{tag}", std::process::id()));
        // A leftover from a killed run would turn the cold fill warm.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory under the benchmark's out/");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn campaign_setup(
    c: &CampaignSpec,
    seed: u64,
    out_dir: &Path,
    tr: &mut Tracer,
) -> (ScratchDir, DragonflySim, RunGrid, CampaignStore) {
    let dir = ScratchDir::new(out_dir, "rep");
    let (net, grid) = grid_setup(&c.grid, seed, tr);
    let store = CampaignStore::open(&dir.0).expect("open an empty store");
    (dir, net, grid, store)
}

fn campaign_rep(c: &CampaignSpec, seed: u64, out_dir: &Path, tr: &mut Tracer) -> Rep {
    let (setup_s, (dir, net, grid, store)) = clocked(|| campaign_setup(c, seed, out_dir, tr));
    let cells = grid.len();
    let mut problems = Vec::new();

    let (cold_s, filled) = clocked(|| {
        tr.span("core.campaign.cold_fill", |_| {
            grid.execute_cached_streaming_on(&net, &store, 1, &|_, _, _| {})
        })
    });
    let (cold, report) = filled.expect("cold fill");
    if (report.hits, report.misses) != (0, cells) {
        problems.push(format!(
            "cold fill reported {}/{} hits/misses, want 0/{cells}",
            report.hits, report.misses
        ));
    }
    drop(store);
    let journal_bytes = std::fs::metadata(dir.0.join("journal.jsonl")).map_or(0, |m| m.len());

    let (warm_s, ()) = clocked(|| {
        for _ in 0..c.reruns {
            let store = tr
                .span("core.campaign.open", |_| CampaignStore::open(&dir.0))
                .expect("reopen the filled store");
            let (warm, report) = tr
                .span("core.campaign.warm_rerun", |_| {
                    grid.execute_cached_streaming_on(&net, &store, 1, &|_, _, _| {})
                })
                .expect("warm rerun");
            if (report.hits, report.misses) != (c.expected_warm_hits, 0) {
                problems.push(format!(
                    "warm rerun reported {}/{} hits/misses, want {}/0",
                    report.hits, report.misses, c.expected_warm_hits
                ));
            }
            if warm != cold {
                problems.push("a warm rerun decoded results that differ from the fill".into());
            }
        }
    });

    let mut rep = Rep::new(setup_s, cold_s + warm_s, Results::Runs(cold));
    rep.cells = (cells * (1 + c.reruns)) as u64;
    rep.legs = Some((cold_s, warm_s));
    rep.journal_bytes = journal_bytes;
    rep.problems = problems;
    rep
}

impl JobsSpec {
    fn jobs(&self) -> Vec<JobSpec> {
        vec![
            JobSpec::all_to_all("alpha", self.alpha),
            JobSpec::all_reduce_ring("beta", self.beta),
        ]
    }

    fn sweep(&self, seed: u64) -> WorkloadSweep {
        WorkloadSweep::new(
            params_of(self.params),
            RoutingChoice::UgalL,
            self.jobs(),
            &SimConfig::paper_default(0.0).with_seed(seed),
            &self.backgrounds,
        )
    }

    /// `interfering / disjoint` completion over every (job, background)
    /// pair of a rep's points — exact for a seed.
    pub fn slowdown_ratio(&self, seed: u64, results: &Results) -> f64 {
        let Results::Points(points) = results else {
            return 0.0;
        };
        let pairs = self.sweep(seed).slowdowns(points);
        let disjoint: u64 = pairs.iter().map(|s| s.disjoint).sum();
        let interfering: u64 = pairs.iter().map(|s| s.interfering).sum();
        interfering as f64 / disjoint.max(1) as f64
    }
}

fn jobs_setup(j: &JobsSpec, seed: u64, tr: &mut Tracer) -> WorkloadSweep {
    let params = params_of(j.params);
    // Place both mixes up front so a mix that does not fit the machine
    // is a set-up error, not a failed cell.
    for placement in [Placement::GroupDisjoint, Placement::Interfering] {
        tr.span("core.jobs.assign", |_| {
            JobMix::new(j.jobs(), placement).assign(&params)
        })
        .expect("the job mix fits the network");
    }
    j.sweep(seed)
}

fn jobs_rep(j: &JobsSpec, seed: u64, tr: &mut Tracer) -> Rep {
    let (setup_s, sweep) = clocked(|| jobs_setup(j, seed, tr));
    let (wall_s, points) =
        clocked(|| tr.span("core.parallel.workload_sweep", |_| sweep.execute_on(1)));
    let points = points.expect("every point places and runs");
    let mut rep = Rep::new(setup_s, wall_s, Results::Points(points));
    let capped: Vec<usize> = rep
        .results
        .stats()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.completion.is_none())
        .map(|(i, _)| i)
        .collect();
    for i in capped {
        rep.problems.push(format!(
            "point {i} hit the cycle cap before its work completed"
        ));
    }
    rep
}

impl Spec {
    /// Runs one repetition. `out_dir` holds the campaign's scratch store.
    pub fn rep(&self, seed: u64, mode: Mode, out_dir: &Path, tr: &mut Tracer) -> Rep {
        match self {
            Spec::Engine(e) => engine_rep(e, seed, e.shards, mode, tr),
            Spec::Sweep(s) => sweep_rep(&s.grid, seed, s.threads, tr),
            Spec::Campaign(c) => campaign_rep(c, seed, out_dir, tr),
            Spec::Jobs(j) => jobs_rep(j, seed, tr),
        }
    }

    /// Host seconds of the workload's set-up alone (its body not run).
    pub fn setup_only(&self, seed: u64, out_dir: &Path) -> f64 {
        let tr = &mut Tracer::new(false);
        match self {
            Spec::Engine(e) => {
                let cfg = e.config(seed, e.shards);
                with_simulation(
                    params_of(e.params),
                    e.routing,
                    e.traffic,
                    cfg,
                    tr,
                    |sim, _| drop(sim),
                )
                .0
            }
            Spec::Sweep(s) => clocked(|| grid_setup(&s.grid, seed, tr)).0,
            Spec::Campaign(c) => clocked(|| campaign_setup(c, seed, out_dir, tr)).0,
            Spec::Jobs(j) => clocked(|| jobs_setup(j, seed, tr)).0,
        }
    }

    /// The independent run the timed body's results must equal, with
    /// its wall time: the same engine run at 1 shard, the same grid at
    /// 1 thread, the same cells simulated without a store. `None` where
    /// the workload has no second way to compute its results.
    pub fn reference(&self, seed: u64) -> Option<(Results, f64)> {
        let mut off = Tracer::new(false);
        let rep = match self {
            Spec::Engine(e) if e.shards > 1 => engine_rep(e, seed, 1, Mode::Plain, &mut off),
            Spec::Sweep(s) if s.threads > 1 => sweep_rep(&s.grid, seed, 1, &mut off),
            Spec::Campaign(c) => sweep_rep(&c.grid, seed, 1, &mut off),
            _ => return None,
        };
        Some((rep.results, rep.wall_s))
    }
}

/// Host ns per call of the routing and traffic kernels on the
/// workload's own network, each as `batches` samples.
#[derive(Debug, Default)]
pub struct KernelProbe {
    /// `trace_path` under MIN, minimal routes: ns per hop.
    pub route_min_ns: Vec<f64>,
    /// `trace_path` under UGAL-L, non-minimal (Valiant-leg) routes: ns per hop.
    pub route_ugal_ns: Vec<f64>,
    /// `TrafficPattern::destination`, uniform random: ns per call.
    pub dest_ur_ns: Vec<f64>,
    /// `TrafficPattern::destination`, worst case: ns per call.
    pub dest_wc_ns: Vec<f64>,
}

/// Times the routing and traffic kernels from outside.
pub fn probe_kernels(
    params: DragonflyParams,
    seed: u64,
    size: Size,
    tr: &mut Tracer,
) -> KernelProbe {
    const BATCHES: usize = 5;
    let (pairs, calls) = match size {
        Size::Full => (20_000, 2_000_000),
        Size::Smoke => (500, 20_000),
    };
    let net = DragonflySim::new(params);
    let bound = net.dragonfly().route_hop_bound();
    let terminals = params.num_terminals();
    let groups = params.num_groups();
    let mut rng = dfly_traffic::rng_for(seed, 0xbe7c);
    let mut probe = KernelProbe::default();

    let min = RoutingChoice::Min.build(net.shared_dragonfly());
    let ugal = RoutingChoice::UgalL.build(net.shared_dragonfly());
    for _ in 0..BATCHES {
        // Inter-group pairs with a third group as the Valiant
        // intermediate, drawn before the clock starts.
        let routes: Vec<(usize, usize, u32, u32)> = (0..pairs)
            .map(|_| loop {
                let (src, dest) = (rng.gen_range(0..terminals), rng.gen_range(0..terminals));
                let mid = rng.gen_range(0..groups);
                let (gs, gd) = (
                    params.group_of_terminal(src),
                    params.group_of_terminal(dest),
                );
                if gs != gd && mid != gs && mid != gd {
                    break (src, dest, mid as u32, rng.gen());
                }
            })
            .collect();
        for (algo, minimal, name, out) in [
            (
                &min,
                true,
                "core.routing.trace_path.min",
                &mut probe.route_min_ns,
            ),
            (
                &ugal,
                false,
                "core.routing.trace_path.ugal_l",
                &mut probe.route_ugal_ns,
            ),
        ] {
            let clock = Instant::now();
            let hops: usize = tr.span(name, |_| {
                routes
                    .iter()
                    .map(|&(src, dest, mid, salt)| {
                        let route = if minimal {
                            RouteInfo::minimal()
                        } else {
                            RouteInfo::non_minimal(mid)
                        };
                        trace_path(
                            net.spec(),
                            algo.as_ref(),
                            src,
                            dest,
                            route.with_salt(salt),
                            bound,
                        )
                        .expect("dragonfly routes eject at their destination")
                        .len()
                    })
                    .sum()
            });
            out.push(clock.elapsed().as_nanos() as f64 / std::hint::black_box(hops).max(1) as f64);
        }
        for (traffic, name, out) in [
            (
                TrafficChoice::Uniform,
                "traffic.pattern.destination.ur",
                &mut probe.dest_ur_ns,
            ),
            (
                TrafficChoice::WorstCase,
                "traffic.pattern.destination.wc",
                &mut probe.dest_wc_ns,
            ),
        ] {
            let pattern = traffic.build(&params);
            let clock = Instant::now();
            let sum: usize = tr.span(name, |_| {
                (0..calls)
                    .map(|i| pattern.destination(i % terminals, &mut rng))
                    .sum()
            });
            std::hint::black_box(sum);
            out.push(clock.elapsed().as_nanos() as f64 / calls as f64);
        }
    }
    probe
}

/// Records `core.routing.build` and `netsim.sim.new` spans for
/// workloads whose body builds them out of the benchmark's sight (inside
/// `execute_on`); the engine workloads record them in every traced rep.
pub fn probe_build(spec: &Spec, seed: u64, tr: &mut Tracer) {
    if matches!(spec, Spec::Engine(_)) {
        return;
    }
    let mut cfg = SimConfig::paper_default(0.1).with_seed(seed);
    cfg.warmup = 0;
    cfg.measure = 1;
    for _ in 0..5 {
        with_simulation(
            spec.params(),
            spec.routing(),
            TrafficChoice::Uniform,
            cfg.clone(),
            tr,
            |sim, _| drop(sim),
        );
    }
}

/// Host µs per cell of the sweep's grid with a single cycle to
/// simulate (the shortest window the engine accepts): the executor's
/// fixed cost per cell (routing and pattern build, `Simulation::new`,
/// statistics collection, pool dispatch).
pub fn probe_empty_cells(s: &SweepSpec, seed: u64, tr: &mut Tracer) -> Vec<f64> {
    let net = DragonflySim::new(params_of(s.grid.params));
    let empty = GridSpec {
        warmup: 0,
        measure: 1,
        drain_cap: 0,
        ..s.grid.clone()
    };
    let grid = empty.grid(seed);
    (0..5)
        .map(|_| {
            let clock = Instant::now();
            let runs = tr.span("core.parallel.execute_on.empty", |_| {
                grid.execute_on(&net, s.threads)
            });
            clock.elapsed().as_secs_f64() * 1e6 / std::hint::black_box(runs).len() as f64
        })
        .collect()
}

/// Host µs per `run_key` / `insert_run` / `lookup_run` call on the
/// campaign's cells, against a scratch store.
pub fn probe_store(
    c: &CampaignSpec,
    seed: u64,
    filled: &Results,
    out_dir: &Path,
    tr: &mut Tracer,
) -> [Vec<f64>; 3] {
    let Results::Runs(runs) = filled else {
        return Default::default();
    };
    let dir = ScratchDir::new(out_dir, "probe");
    let net = DragonflySim::new(params_of(c.grid.params));
    let grid = c.grid.grid(seed);
    let store = CampaignStore::open(&dir.0).expect("open an empty store");
    let timed = |tr: &mut Tracer, name, f: &mut dyn FnMut()| {
        let clock = Instant::now();
        tr.span(name, |_| f());
        clock.elapsed().as_secs_f64() * 1e6
    };
    let (mut key_us, mut insert_us, mut lookup_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut keys = Vec::new();
    for (plan, stats) in grid.plans().iter().zip(runs) {
        key_us.push(timed(tr, "core.campaign.run_key", &mut || {
            keys.push(store.run_key(&net, plan));
        }));
        let key = keys.last().expect("just pushed");
        insert_us.push(timed(tr, "core.campaign.insert_run", &mut || {
            store.insert_run(key, stats).expect("journal append");
        }));
    }
    for key in &keys {
        lookup_us.push(timed(tr, "core.campaign.lookup_run", &mut || {
            std::hint::black_box(store.lookup_run(key).expect("just inserted"));
        }));
    }
    [key_us, insert_us, lookup_us]
}

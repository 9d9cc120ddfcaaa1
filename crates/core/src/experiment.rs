//! High-level experiment harness: wire a network once — the dragonfly
//! or any baseline topology — sweep loads, and collect
//! latency/throughput curves the way the paper's figures do.

use std::sync::Arc;

use dfly_netsim::{
    trace_path, CreditMode, FaultPlan, NetworkSpec, RouteInfo, RoutingAlgorithm, RunStats,
    SimConfig, SimError, SimPerf, Simulation, TraceHop,
};
use dfly_traffic::{GroupAdversarial, Permutation, TrafficPattern, UniformRandom, Workload};

use crate::network::{NetRouting, NetTopology, SimNetwork};
use crate::routing::UgalVariant;
use crate::topology::Dragonfly;
use crate::DragonflyParams;

/// The routing configurations evaluated in the paper, combining a
/// decision rule with (for UGAL-L(CR)) the credit round-trip mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingChoice {
    /// Minimal routing.
    Min,
    /// Valiant randomised routing.
    Valiant,
    /// UGAL with local total-port occupancy.
    UgalL,
    /// UGAL with per-VC occupancy (UGAL-L_VC).
    UgalLVc,
    /// UGAL with the hybrid VC discrimination (UGAL-L_VCH).
    UgalLVcH,
    /// UGAL-L_VCH plus credit round-trip backpressure (UGAL-L_CR).
    UgalLCr,
    /// The idealised global-information oracle (UGAL-G).
    UgalG,
    /// UGAL with EWMA-smoothed local occupancy (UGAL-L_EWMA).
    UgalLEwma,
}

impl RoutingChoice {
    /// All choices, in the order the paper introduces them (with the
    /// EWMA ablation appended).
    pub const ALL: [RoutingChoice; 8] = [
        RoutingChoice::Min,
        RoutingChoice::Valiant,
        RoutingChoice::UgalL,
        RoutingChoice::UgalLVc,
        RoutingChoice::UgalLVcH,
        RoutingChoice::UgalLCr,
        RoutingChoice::UgalG,
        RoutingChoice::UgalLEwma,
    ];

    /// The UGAL variant behind this choice; `None` for MIN and VAL.
    fn ugal_variant(&self) -> Option<UgalVariant> {
        match self {
            RoutingChoice::Min | RoutingChoice::Valiant => None,
            RoutingChoice::UgalL => Some(UgalVariant::Local),
            RoutingChoice::UgalLVc => Some(UgalVariant::LocalVc),
            RoutingChoice::UgalLVcH => Some(UgalVariant::LocalVcHybrid),
            RoutingChoice::UgalLCr => Some(UgalVariant::CreditRoundTrip),
            RoutingChoice::UgalG => Some(UgalVariant::Global),
            RoutingChoice::UgalLEwma => Some(UgalVariant::LocalEwma),
        }
    }

    /// Display label matching the paper's plots.
    pub fn label(&self) -> &'static str {
        match (self, self.ugal_variant()) {
            (_, Some(variant)) => variant.label(),
            (RoutingChoice::Min, None) => "MIN",
            (_, None) => "VAL",
        }
    }

    /// Whether this choice requires the credit round-trip mechanism.
    pub fn needs_round_trip_credits(&self) -> bool {
        matches!(self, RoutingChoice::UgalLCr)
    }

    /// Builds the routing algorithm over `net`: the shared
    /// [`NetRouting`] family, holding `net` itself rather than a copy.
    /// On a baseline topology `Min` is its oblivious routing (FB-MIN,
    /// Clos up/down, torus DOR) and each UGAL choice the same estimator
    /// (`UgalL` is the FB-UGAL-L curve).
    pub fn build<T: NetTopology + 'static>(
        &self,
        net: Arc<SimNetwork<T>>,
    ) -> Box<dyn RoutingAlgorithm + Send + Sync> {
        Box::new(match (self, self.ugal_variant()) {
            (_, Some(variant)) => NetRouting::ugal(net, variant),
            (RoutingChoice::Min, None) => NetRouting::new(net),
            (_, None) => NetRouting::valiant(net),
        })
    }
}

/// The synthetic traffic patterns of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficChoice {
    /// Uniform random (UR) — benign.
    Uniform,
    /// Worst case (WC): group `i` sends to random nodes of group `i+1`.
    WorstCase,
    /// Group-level tornado: offset `⌈g/2⌉-1`.
    GroupTornado,
    /// A random terminal permutation (derangement), seeded for
    /// reproducibility.
    RandomPermutation {
        /// Permutation seed.
        seed: u64,
    },
}

impl TrafficChoice {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficChoice::Uniform => "UR",
            TrafficChoice::WorstCase => "WC",
            TrafficChoice::GroupTornado => "tornado",
            TrafficChoice::RandomPermutation { .. } => "permutation",
        }
    }

    /// Builds the pattern for a dragonfly of the given parameters.
    pub fn build(&self, params: &DragonflyParams) -> Box<dyn TrafficPattern + Send + Sync> {
        let group = params.routers_per_group() * params.terminals_per_router();
        self.build_for(params.num_terminals(), Some(group))
    }

    /// Builds the pattern over `n` terminals in groups of `group`
    /// terminals (`None`: the network has no groups).
    ///
    /// # Panics
    ///
    /// A group pattern ([`TrafficChoice::WorstCase`],
    /// [`TrafficChoice::GroupTornado`]) without groups.
    pub fn build_for(
        &self,
        n: usize,
        group: Option<usize>,
    ) -> Box<dyn TrafficPattern + Send + Sync> {
        let group = || {
            group.unwrap_or_else(|| panic!("{} traffic needs a network with groups", self.label()))
        };
        match *self {
            TrafficChoice::Uniform => Box::new(UniformRandom::new(n)),
            TrafficChoice::WorstCase => Box::new(GroupAdversarial::next_group(n, group())),
            TrafficChoice::GroupTornado => Box::new(GroupAdversarial::tornado(n, group())),
            TrafficChoice::RandomPermutation { seed } => {
                let mut rng = dfly_traffic::rng_for(seed, 0);
                Box::new(Permutation::random(n, &mut rng))
            }
        }
    }
}

/// One point of a latency-load curve.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load (packets/terminal/cycle).
    pub load: f64,
    /// Full statistics of the run.
    pub stats: RunStats,
}

impl LoadPoint {
    /// Mean packet latency, `None` if the run saturated without draining.
    pub fn latency(&self) -> Option<f64> {
        if self.stats.drained {
            self.stats.avg_latency()
        } else {
            None
        }
    }
}

/// Builds one workload instance per engine shard, handed that shard's
/// terminal range.
type WorkloadFactory<'a> = dyn Fn(std::ops::Range<usize>) -> Box<dyn Workload + Send> + Sync + 'a;

/// Where a run's packets come from.
enum Source<'a> {
    /// An open-loop pattern under the configured injection process.
    Traffic(TrafficChoice),
    /// A closed-loop workload.
    Workload(&'a WorkloadFactory<'a>),
}

/// The experiment harness over any [`NetTopology`]: the network is
/// wired once, shared with every routing built for it, and can then be
/// run under any routing choice, traffic and load — directly, or as the
/// [`RunPlan`](crate::RunPlan)s of a [`RunGrid`](crate::RunGrid), cached
/// or not.
#[derive(Debug)]
pub struct NetworkSim<T> {
    net: Arc<SimNetwork<T>>,
    spec: NetworkSpec,
}

/// The harness over the dragonfly.
///
/// # Example
///
/// ```no_run
/// use dragonfly::{DragonflyParams, DragonflySim, RoutingChoice, TrafficChoice};
///
/// let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
/// let stats = sim.run(
///     RoutingChoice::UgalLVcH,
///     TrafficChoice::WorstCase,
///     sim.config(0.3),
/// );
/// println!("avg latency: {:?}", stats.avg_latency());
/// ```
pub type DragonflySim = NetworkSim<Dragonfly>;

impl<T: NetTopology> From<SimNetwork<T>> for NetworkSim<T> {
    fn from(net: SimNetwork<T>) -> Self {
        let spec = net.build_spec();
        NetworkSim {
            net: Arc::new(net),
            spec,
        }
    }
}

impl<T: NetTopology + 'static> NetworkSim<T> {
    /// Wires `topology` with unit channel latency.
    pub fn new(topology: impl Into<T>) -> Self {
        SimNetwork::new(topology).into()
    }

    /// The wired network.
    pub fn network(&self) -> &SimNetwork<T> {
        &self.net
    }

    /// A shared handle on the wired network, for building routing
    /// algorithms outside the harness (see [`RoutingChoice::build`]).
    pub fn shared_network(&self) -> Arc<SimNetwork<T>> {
        Arc::clone(&self.net)
    }

    /// The wired network description.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Walks the exact path a packet with the given [`RouteInfo`] takes
    /// from terminal `src` to terminal `dest`, hop by hop, ending with
    /// the ejection hop — the deterministic per-hop computation the
    /// simulator performs, on the wired network (faults included).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidRoute`] for out-of-range terminals or a route
    /// that ejects at the wrong terminal, and [`SimError::RouteLoop`] if
    /// the route fails to eject within [`SimNetwork::route_hop_bound`]
    /// hops (an invalid `RouteInfo`, e.g. a dragonfly non-minimal route
    /// whose intermediate group is the source's).
    ///
    /// # Example
    ///
    /// ```
    /// use dragonfly::{DragonflyParams, DragonflySim};
    /// use dfly_netsim::RouteInfo;
    ///
    /// let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
    /// let hops = sim.trace_route(0, 70, RouteInfo::minimal()).unwrap();
    /// // local?, one global, local?, eject: at most 4 hops.
    /// assert!(hops.len() <= 4);
    /// ```
    pub fn trace_route(
        &self,
        src: usize,
        dest: usize,
        route: RouteInfo,
    ) -> Result<Vec<TraceHop>, SimError> {
        let routing = NetRouting::new(self.shared_network());
        let bound = self.net.route_hop_bound();
        trace_path(&self.spec, &routing, src, dest, route, bound)
    }

    /// A run configuration with the paper's defaults at the given load,
    /// scaled-down warm-up for small networks.
    pub fn config(&self, load: f64) -> SimConfig {
        SimConfig::paper_default(load)
    }

    /// The shared prologue of every run: upgrade the credit mode for
    /// [`RoutingChoice::UgalLCr`] (unless the configuration already
    /// selects a round-trip mode), build the routing and the traffic
    /// source, and hand the ready [`Simulation`] to `finish`.
    fn simulate<R>(
        &self,
        choice: RoutingChoice,
        source: Source<'_>,
        mut cfg: SimConfig,
        finish: impl FnOnce(Simulation<'_>) -> R,
    ) -> R {
        if choice.needs_round_trip_credits() && cfg.credit_mode == CreditMode::Conventional {
            cfg.credit_mode = CreditMode::round_trip();
        }
        let algo = choice.build(self.shared_network());
        let pattern;
        let sim = match source {
            Source::Traffic(traffic) => {
                let groups = self.net.topology().group_terminals();
                pattern = traffic.build_for(self.spec.num_terminals(), groups);
                Simulation::new(&self.spec, algo.as_ref(), pattern.as_ref(), cfg)
            }
            Source::Workload(factory) => {
                Simulation::with_workload(&self.spec, algo.as_ref(), cfg, |range| factory(range))
            }
        };
        finish(sim.expect("harness-built simulation must be valid"))
    }

    /// Runs one simulation.
    ///
    /// For [`RoutingChoice::UgalLCr`] the credit round-trip mechanism is
    /// switched on automatically unless the configuration already
    /// selects a round-trip mode.
    ///
    /// # Panics
    ///
    /// A group pattern ([`TrafficChoice::WorstCase`],
    /// [`TrafficChoice::GroupTornado`]) on a topology without groups.
    pub fn run(&self, choice: RoutingChoice, traffic: TrafficChoice, cfg: SimConfig) -> RunStats {
        self.simulate(choice, Source::Traffic(traffic), cfg, |sim| sim.finish())
    }

    /// Runs one simulation driven by a closed-loop workload instead of
    /// an open-loop traffic pattern (see `dfly_traffic::Workload`).
    ///
    /// `factory` builds one workload instance per engine shard, handed
    /// that shard's terminal range — the contract of
    /// [`Simulation::with_workload`]. Pair it with
    /// [`Termination::WorkComplete`](dfly_netsim::Termination) to end
    /// the run when the workload finishes; [`RunStats::completion`]
    /// then reports the completion cycle.
    ///
    /// As with [`NetworkSim::run`], [`RoutingChoice::UgalLCr`] turns
    /// on credit round-trip automatically.
    pub fn run_workload(
        &self,
        choice: RoutingChoice,
        cfg: SimConfig,
        factory: &WorkloadFactory<'_>,
    ) -> RunStats {
        self.simulate(choice, Source::Workload(factory), cfg, |sim| sim.finish())
    }

    /// Like [`NetworkSim::run`], but also returns the engine's
    /// phase-level performance counters (see [`SimPerf`]).
    pub fn run_instrumented(
        &self,
        choice: RoutingChoice,
        traffic: TrafficChoice,
        cfg: SimConfig,
    ) -> (RunStats, SimPerf) {
        self.simulate(choice, Source::Traffic(traffic), cfg, |sim| {
            sim.run_instrumented()
        })
    }
}

impl DragonflySim {
    /// Builds the harness for `params` with a [`FaultPlan`] applied:
    /// the spec carries the failure marks and every routing choice
    /// steers around the dead links.
    ///
    /// # Errors
    ///
    /// Everything [`Dragonfly::with_fault_plan`] rejects: malformed
    /// plans, locally disconnected groups, and plans that leave some
    /// group pair with no usable route
    /// ([`dfly_netsim::SimError::Unreachable`]).
    pub fn with_faults(params: DragonflyParams, plan: &FaultPlan) -> Result<Self, SimError> {
        Ok(Self::new(Dragonfly::with_faults(params, plan)?))
    }

    /// The underlying dragonfly.
    pub fn dragonfly(&self) -> &Dragonfly {
        self.net.topology()
    }

    /// [`NetworkSim::shared_network`] under the dragonfly's name.
    pub fn shared_dragonfly(&self) -> Arc<SimNetwork<Dragonfly>> {
        self.shared_network()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DragonflySim {
        DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap())
    }

    fn fast_cfg(sim: &DragonflySim, load: f64) -> SimConfig {
        let mut cfg = sim.config(load);
        cfg.warmup = 500;
        cfg.measure = 1_500;
        cfg.drain_cap = 20_000;
        cfg
    }

    #[test]
    fn min_delivers_uniform_traffic_at_low_load() {
        let sim = tiny();
        let cfg = fast_cfg(&sim, 0.2);
        let stats = sim.run(RoutingChoice::Min, TrafficChoice::Uniform, cfg);
        assert!(stats.drained);
        assert!((stats.accepted_rate - 0.2).abs() < 0.03);
        // Zero-load minimal latency: inject + <=3 hops + eject.
        let avg = stats.avg_latency().unwrap();
        assert!(avg < 10.0, "avg {avg}");
    }

    #[test]
    fn min_saturates_early_on_worst_case() {
        let sim = tiny();
        // Capacity under WC for MIN is 1/(a*h) = 1/8 of injection bw:
        // the accepted rate at full offered load, without a futile drain.
        let mut cfg = fast_cfg(&sim, 1.0);
        cfg.drain_cap = 0;
        let cap = sim
            .run(RoutingChoice::Min, TrafficChoice::WorstCase, cfg)
            .accepted_rate;
        assert!(cap < 0.2, "MIN WC capacity {cap}");
        assert!(cap > 0.05, "MIN WC capacity {cap}");
    }

    #[test]
    fn valiant_handles_worst_case() {
        let sim = tiny();
        let stats = sim.run(
            RoutingChoice::Valiant,
            TrafficChoice::WorstCase,
            fast_cfg(&sim, 0.25),
        );
        assert!(stats.drained, "VAL should sustain 0.25 on WC");
    }

    #[test]
    fn ugal_g_matches_min_on_uniform_low_load() {
        let sim = tiny();
        let s_min = sim.run(
            RoutingChoice::Min,
            TrafficChoice::Uniform,
            fast_cfg(&sim, 0.3),
        );
        let s_ugal = sim.run(
            RoutingChoice::UgalG,
            TrafficChoice::Uniform,
            fast_cfg(&sim, 0.3),
        );
        assert!(s_min.drained && s_ugal.drained);
        let (a, b) = (s_min.avg_latency().unwrap(), s_ugal.avg_latency().unwrap());
        assert!((a - b).abs() < 3.0, "MIN {a} vs UGAL-G {b}");
        // UGAL-G routes predominantly minimally on benign traffic.
        assert!(s_ugal.minimal_fraction().unwrap() > 0.8);
    }

    #[test]
    fn sweep_produces_monotone_loads() {
        let sim = tiny();
        let loads = [0.1, 0.3];
        let grid = crate::RunGrid::cross(
            &[RoutingChoice::Min],
            &[TrafficChoice::Uniform],
            &loads,
            &fast_cfg(&sim, 0.0),
        );
        let points: Vec<LoadPoint> = loads
            .iter()
            .zip(grid.execute(&sim))
            .map(|(&load, stats)| LoadPoint { load, stats })
            .collect();
        assert_eq!(points.len(), 2);
        assert!(points[0].latency().is_some());
        assert!(points[1].latency().unwrap() >= points[0].latency().unwrap() - 0.5);
    }

    #[test]
    fn labels_and_round_trip_flags() {
        assert_eq!(RoutingChoice::ALL.len(), 8);
        let labels: Vec<&str> = RoutingChoice::ALL.iter().map(|c| c.label()).collect();
        assert!(labels.contains(&"UGAL-L_CR"));
        assert!(labels.contains(&"UGAL-L_EWMA"));
        for c in RoutingChoice::ALL {
            assert_eq!(
                c.needs_round_trip_credits(),
                c == RoutingChoice::UgalLCr,
                "{}",
                c.label()
            );
        }
        assert_eq!(TrafficChoice::WorstCase.label(), "WC");
        assert_eq!(
            TrafficChoice::RandomPermutation { seed: 1 }.label(),
            "permutation"
        );
    }

    #[test]
    fn traffic_choice_builds_correct_sizes() {
        let params = DragonflyParams::new(2, 4, 2).unwrap();
        for t in [
            TrafficChoice::Uniform,
            TrafficChoice::WorstCase,
            TrafficChoice::GroupTornado,
            TrafficChoice::RandomPermutation { seed: 3 },
        ] {
            assert_eq!(t.build(&params).num_terminals(), 72, "{}", t.label());
        }
    }

    /// A group pattern on a network without groups panics rather than
    /// building some other pattern; the groupless ones build.
    #[test]
    #[should_panic(expected = "WC traffic needs a network with groups")]
    fn group_traffic_on_a_network_without_groups_fails_loudly() {
        for t in [
            TrafficChoice::Uniform,
            TrafficChoice::RandomPermutation { seed: 3 },
        ] {
            assert_eq!(t.build_for(64, None).num_terminals(), 64, "{}", t.label());
        }
        let tornado = std::panic::catch_unwind(|| TrafficChoice::GroupTornado.build_for(64, None));
        assert!(tornado.is_err(), "tornado needs groups");
        let torus = NetworkSim::from(crate::torus_sim::TorusNetwork::new(dfly_topo::Torus::new(
            3, 4, 1,
        )));
        let cfg = torus.config(0.1);
        torus.run(RoutingChoice::Min, TrafficChoice::WorstCase, cfg);
    }

    #[test]
    fn ugal_lcr_turns_on_round_trip_credits() {
        // Indirectly: the run completes and behaves like VCH at low load.
        let sim = tiny();
        let stats = sim.run(
            RoutingChoice::UgalLCr,
            TrafficChoice::WorstCase,
            fast_cfg(&sim, 0.15),
        );
        assert!(stats.drained);
    }
}

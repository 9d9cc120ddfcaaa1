//! Routing algorithms for the dragonfly: MIN, VAL and the UGAL family.
//!
//! All algorithms share the same per-hop route computation and the
//! paper's deadlock-free VC assignment (Figure 7); they differ only in
//! the *injection-time* decision between the minimal and the Valiant
//! (non-minimal) path:
//!
//! | algorithm | decision |
//! |---|---|
//! | [`MinimalRouting`] | always minimal |
//! | [`ValiantRouting`] | always non-minimal (random intermediate group) |
//! | [`UgalRouting`] ([`UgalVariant::Local`]) | `q_m·H_m ≤ q_nm·H_nm` with local total-port occupancies |
//! | [`UgalVariant::LocalVc`] | per-VC occupancies (UGAL-L_VC) |
//! | [`UgalVariant::LocalVcHybrid`] | per-VC only when the two paths share an output port (UGAL-L_VCH) |
//! | [`UgalVariant::Global`] | oracle occupancy of the actual global channels (UGAL-G) |
//! | [`UgalVariant::CreditRoundTrip`] | the hybrid rule over credit-inclusive estimates (UGAL-L_CR) |
//! | [`UgalVariant::LocalEwma`] | EWMA-smoothed local total-port occupancies (UGAL-L_EWMA) |
//!
//! UGAL-L(CR) pairs [`UgalVariant::CreditRoundTrip`] with
//! [`dfly_netsim::CreditMode::RoundTrip`]: queue estimates count the
//! flits whose credits have not yet returned, and the simulator returns
//! credits only when a flit leaves the downstream router — delayed
//! further in proportion to measured congestion — so a congested remote
//! global channel is sensed within one credit round trip instead of
//! after the intervening buffers fill.
//!
//! # VC assignment (deadlock freedom)
//!
//! Local channels use VC0 (non-minimal hop in the source group), VC1
//! (minimal hop in the source group, or non-minimal hop in the
//! intermediate group) and VC2 (any hop in the destination group);
//! global channels use VC0 (first non-minimal hop) and VC1 (minimal hop
//! or second non-minimal hop). Along every route the (channel-class, VC)
//! pair ascends the order `l0 < g0 < l1 < g1 < l2`, so the channel
//! dependency graph is acyclic.

use std::sync::Arc;

use dfly_netsim::{
    trace_path, CandidatePath, CandidatePaths, CongestionEstimator, CreditCommitted,
    DecisionRecord, EwmaOccupancy, Flit, GlobalOracle, NetView, PortVc, QueueOccupancy,
    RouteAlgebra, RouteClass, RouteInfo, RoutingAlgorithm, SimError, UgalChooser, VcHybrid,
    VcOccupancy,
};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::topology::Dragonfly;

pub use dfly_netsim::TraceHop;

/// Per-hop route computation shared by every algorithm.
///
/// `flit.route` carries the class, the intermediate group and the salt;
/// everything else is derived from the dragonfly tables, so the function
/// is deterministic and every flit of a packet follows the same path.
fn route_flit(df: &Dragonfly, router: usize, flit: &Flit) -> PortVc {
    let params = df.params();
    let dest = flit.dest as usize;
    let rd = params.router_of_terminal(dest);
    if router == rd {
        return PortVc::new(df.eject_port(dest), 0);
    }
    let gr = params.group_of_router(router);
    let gd = params.group_of_router(rd);
    if gr == gd {
        // Local hop(s) in the destination group (or intra-group minimal
        // traffic): dimension-ordered within multi-dimensional groups.
        return PortVc::new(df.local_next_hop(router, rd), 2);
    }
    let salt = flit.route.salt;
    let (target_group, leg) = match flit.route.class {
        RouteClass::Minimal => (gd, 0),
        RouteClass::NonMinimal => {
            let gi = flit
                .route
                .intermediate()
                .expect("non-minimal flit without intermediate") as usize;
            if gr == gi {
                (gd, 1)
            } else {
                (gi, 0)
            }
        }
    };
    let q = df
        .pick_global_slot(gr, target_group, salt, leg)
        .expect("routed group pair keeps an alive channel");
    let owner = df.slot_router(gr, q);
    // VC for this hop: minimal hops use VC1 until the destination group;
    // non-minimal hops use VC0 on the first leg and VC1 on the second.
    let vc = match flit.route.class {
        RouteClass::Minimal => 1,
        RouteClass::NonMinimal => leg,
    } as usize;
    if owner == router {
        PortVc::new(df.slot_port(q), vc)
    } else {
        PortVc::new(df.local_next_hop(router, owner), vc)
    }
}

/// Closed-form routing algebra for the dragonfly: every answer falls
/// out of the group/slot arithmetic (ring schedule, local next-hop
/// coordinates), so no per-pair state is stored. Under a fault plan
/// the salt-selected slot is drawn from the surviving channels and the
/// Valiant set shrinks to the viable intermediates.
impl RouteAlgebra for Dragonfly {
    fn terminal_router(&self, terminal: usize) -> usize {
        self.params().router_of_terminal(terminal)
    }

    fn ejection_port(&self, terminal: usize) -> usize {
        self.eject_port(terminal)
    }

    fn minimal_port(&self, router: usize, dest: usize, salt: u32) -> PortVc {
        let params = self.params();
        let rd = params.router_of_terminal(dest);
        if router == rd {
            return PortVc::new(self.eject_port(dest), 0);
        }
        let gs = params.group_of_router(router);
        let gd = params.group_of_router(rd);
        if gs == gd {
            return PortVc::new(self.local_next_hop(router, rd), 2);
        }
        let q = self
            .pick_global_slot(gs, gd, salt, 0)
            .expect("minimal route requested for a pair with an alive channel");
        let owner = self.slot_router(gs, q);
        let port = if router == owner {
            self.slot_port(q)
        } else {
            self.local_next_hop(router, owner)
        };
        PortVc::new(port, 1)
    }

    fn minimal_hops(&self, router: usize, dest: usize, salt: u32) -> u32 {
        let params = self.params();
        let rd = params.router_of_terminal(dest);
        if router == rd {
            return 0;
        }
        let gs = params.group_of_router(router);
        let gd = params.group_of_router(rd);
        if gs == gd {
            return self.local_hops(router, rd) as u32;
        }
        let q = self
            .pick_global_slot(gs, gd, salt, 0)
            .expect("minimal route requested for a pair with an alive channel");
        let owner = self.slot_router(gs, q);
        let (pg, pq) = self.global_slot_target(gs, q).expect("wired slot");
        let entry = self.slot_router(pg, pq);
        self.local_hops(router, owner) as u32 + 1 + self.local_hops(entry, rd) as u32
    }

    fn valiant_degree(&self, router: usize, dest: usize) -> usize {
        let params = self.params();
        let gs = params.group_of_router(router);
        let gd = params.group_of_router(params.router_of_terminal(dest));
        if gs == gd {
            return 0;
        }
        match self.viable_intermediates(gs, gd) {
            Some(viable) => viable.len(),
            None => params.num_groups() - 2,
        }
    }

    fn valiant_tag(&self, router: usize, dest: usize, i: usize) -> u32 {
        let params = self.params();
        let gs = params.group_of_router(router);
        let gd = params.group_of_router(params.router_of_terminal(dest));
        debug_assert_ne!(gs, gd, "no detour for intra-group traffic");
        if let Some(viable) = self.viable_intermediates(gs, gd) {
            return viable[i];
        }
        // Fault-free: the i-th group other than gs and gd.
        let (lo, hi) = (gs.min(gd), gs.max(gd));
        let mut gi = i;
        if gi >= lo {
            gi += 1;
        }
        if gi >= hi {
            gi += 1;
        }
        gi as u32
    }

    fn vc_count(&self) -> usize {
        3
    }
}

/// The dragonfly's UGAL candidates: the minimal path (≤ 1 global
/// channel) and the Valiant path through intermediate group
/// `intermediate`, each summarised by its salt-selected first-hop port,
/// the first entry of its VC schedule, its total hop count, and — as the
/// oracle probe point — the router and port owning its first global
/// channel.
///
/// Under a fault plan the salt picks among the *surviving* parallel
/// channels only, and each candidate reports the removed channels along
/// its legs as [`CandidatePath::dropped`]. Callers must not request a
/// candidate whose group pair has lost every direct channel (injection
/// logic checks [`Dragonfly::global_slot_count`] /
/// [`Dragonfly::viable_intermediates`] first).
impl CandidatePaths for Dragonfly {
    fn minimal_candidate(&self, router: usize, dest: usize, salt: u32) -> CandidatePath {
        let params = self.params();
        let first = self.minimal_port(router, dest, salt);
        let hops = RouteAlgebra::minimal_hops(self, router, dest, salt);
        let path = CandidatePath::new(first.port as usize, first.vc as usize, hops);
        let rd = params.router_of_terminal(dest);
        let gs = params.group_of_router(router);
        let gd = params.group_of_router(rd);
        if router == rd || gs == gd {
            return path;
        }
        // The probe point is the salt-selected global channel itself.
        let q = self
            .pick_global_slot(gs, gd, salt, 0)
            .expect("candidate requested for a pair with an alive channel");
        path.with_probe(self.slot_router(gs, q), self.slot_port(q))
            .with_dropped(self.dead_global_slots(gs, gd))
    }

    fn non_minimal_candidate(
        &self,
        router: usize,
        dest: usize,
        intermediate: u32,
        salt: u32,
    ) -> CandidatePath {
        let params = self.params();
        let rs = router;
        let gi = intermediate as usize;
        let rd = params.router_of_terminal(dest);
        let gs = params.group_of_router(rs);
        let gd = params.group_of_router(rd);
        debug_assert!(gi != gs && gi != gd, "intermediate must be a third group");
        let q1 = self
            .pick_global_slot(gs, gi, salt, 0)
            .expect("viable intermediate keeps its first leg alive");
        let owner1 = self.slot_router(gs, q1);
        let (pg1, pq1) = self.global_slot_target(gs, q1).expect("wired slot");
        let entry1 = self.slot_router(pg1, pq1);
        let q2 = self
            .pick_global_slot(gi, gd, salt, 1)
            .expect("viable intermediate keeps its second leg alive");
        let owner2 = self.slot_router(gi, q2);
        let (pg2, pq2) = self.global_slot_target(gi, q2).expect("wired slot");
        let entry2 = self.slot_router(pg2, pq2);
        let hops = self.local_hops(rs, owner1) as u32
            + 1
            + self.local_hops(entry1, owner2) as u32
            + 1
            + self.local_hops(entry2, rd) as u32;
        let port = if rs == owner1 {
            self.slot_port(q1)
        } else {
            self.local_next_hop(rs, owner1)
        };
        CandidatePath::new(port, 0, hops)
            .with_probe(owner1, self.slot_port(q1))
            .with_dropped(self.dead_global_slots(gs, gi) + self.dead_global_slots(gi, gd))
    }
}

/// Walks the exact path a packet with the given [`RouteInfo`] takes from
/// `src` to `dest`, hop by hop, ending with the ejection hop — the same
/// deterministic computation the simulator performs, exposed for
/// debugging, validation and teaching.
///
/// # Errors
///
/// Returns [`SimError::InvalidRoute`] for out-of-range terminals or a
/// route that ejects at the wrong terminal, and [`SimError::RouteLoop`]
/// if the route fails to eject within the diameter-derived bound of
/// [`Dragonfly::route_hop_bound`] (which would indicate an invalid
/// `RouteInfo`, e.g. a non-minimal route whose intermediate group equals
/// the source's).
///
/// # Example
///
/// ```
/// use dragonfly::{trace_route, Dragonfly, DragonflyParams};
/// use dfly_netsim::RouteInfo;
///
/// let df = Dragonfly::new(DragonflyParams::new(2, 4, 2).unwrap());
/// let hops = trace_route(&df, 0, 70, RouteInfo::minimal()).unwrap();
/// // local?, one global, local?, eject: at most 4 hops.
/// assert!(hops.len() <= 4);
/// ```
pub fn trace_route(
    df: &Dragonfly,
    src: usize,
    dest: usize,
    route: RouteInfo,
) -> Result<Vec<TraceHop>, SimError> {
    let spec = df.build_spec();
    let bound = df.route_hop_bound();
    trace_path(&spec, &RouteOnly(df), src, dest, route, bound)
}

/// [`route_flit`] as a [`RoutingAlgorithm`] for the generic walker,
/// which routes over an idle network and never injects.
struct RouteOnly<'a>(&'a Dragonfly);

impl RoutingAlgorithm for RouteOnly<'_> {
    fn name(&self) -> String {
        "route-only".into()
    }

    fn inject(&self, _: &NetView<'_>, _: usize, _: usize, _: &mut SmallRng) -> RouteInfo {
        unreachable!("trace_path exercises only `route`")
    }

    fn route(&self, _view: &NetView<'_>, router: usize, flit: &Flit) -> PortVc {
        route_flit(self.0, router, flit)
    }
}

/// Draws a uniformly random intermediate group different from both `gs`
/// and `gd`. Returns `None` when no third group exists.
fn random_intermediate(g: usize, gs: usize, gd: usize, rng: &mut SmallRng) -> Option<usize> {
    debug_assert_ne!(gs, gd);
    if g < 3 {
        return None;
    }
    let mut gi = rng.gen_range(0..g - 2);
    let (lo, hi) = if gs < gd { (gs, gd) } else { (gd, gs) };
    if gi >= lo {
        gi += 1;
    }
    if gi >= hi {
        gi += 1;
    }
    Some(gi)
}

/// Fault-aware intermediate draw: uniform over the third groups whose
/// Valiant legs both survive (every third group on a fault-free
/// network). Returns `None` when no usable intermediate exists.
fn pick_intermediate(df: &Dragonfly, gs: usize, gd: usize, rng: &mut SmallRng) -> Option<usize> {
    match df.viable_intermediates(gs, gd) {
        None => random_intermediate(df.params().num_groups(), gs, gd, rng),
        Some([]) => None,
        Some(viable) => Some(viable[rng.gen_range(0..viable.len())] as usize),
    }
}

/// Minimal (MIN) routing: always the shortest path — at most one global
/// channel (local, global, local).
///
/// Optimal for benign traffic; collapses to `1/(a·h)` throughput on the
/// worst-case pattern because an entire group's traffic funnels through
/// one global channel.
#[derive(Debug, Clone)]
pub struct MinimalRouting {
    df: Arc<Dragonfly>,
}

impl MinimalRouting {
    /// Creates MIN routing over `df`.
    pub fn new(df: Arc<Dragonfly>) -> Self {
        MinimalRouting { df }
    }
}

impl RoutingAlgorithm for MinimalRouting {
    fn name(&self) -> String {
        "MIN".into()
    }

    fn inject(&self, view: &NetView<'_>, src: usize, dest: usize, rng: &mut SmallRng) -> RouteInfo {
        self.inject_traced(view, src, dest, rng).0
    }

    fn inject_traced(
        &self,
        _view: &NetView<'_>,
        src: usize,
        dest: usize,
        rng: &mut SmallRng,
    ) -> (RouteInfo, DecisionRecord) {
        let salt: u32 = rng.gen();
        if self.df.has_faults() {
            let params = self.df.params();
            let gs = params.group_of_terminal(src);
            let gd = params.group_of_terminal(dest);
            if gs != gd && self.df.global_slot_count(gs, gd) == 0 {
                // Every direct channel is dead: detour through a viable
                // intermediate group (fault validation guarantees one).
                let viable = self
                    .df
                    .viable_intermediates(gs, gd)
                    .expect("faulted network has viability tables");
                let gi = viable[rng.gen_range(0..viable.len())];
                let route = RouteInfo::non_minimal(gi)
                    .with_salt(salt)
                    .with_injection_vc(0);
                let record = DecisionRecord::fault_forced();
                return (route, record);
            }
        }
        let route = RouteInfo::minimal().with_salt(salt).with_injection_vc(1);
        (route, DecisionRecord::default())
    }

    fn route(&self, _view: &NetView<'_>, router: usize, flit: &Flit) -> PortVc {
        route_flit(&self.df, router, flit)
    }
}

/// Valiant (VAL) routing: every inter-group packet detours through a
/// uniformly random intermediate group, bounding worst-case throughput
/// at ~50% of capacity (each packet crosses two global channels) while
/// halving best-case throughput for benign traffic.
#[derive(Debug, Clone)]
pub struct ValiantRouting {
    df: Arc<Dragonfly>,
}

impl ValiantRouting {
    /// Creates VAL routing over `df`.
    pub fn new(df: Arc<Dragonfly>) -> Self {
        ValiantRouting { df }
    }
}

impl RoutingAlgorithm for ValiantRouting {
    fn name(&self) -> String {
        "VAL".into()
    }

    fn inject(&self, view: &NetView<'_>, src: usize, dest: usize, rng: &mut SmallRng) -> RouteInfo {
        self.inject_traced(view, src, dest, rng).0
    }

    fn inject_traced(
        &self,
        _view: &NetView<'_>,
        src: usize,
        dest: usize,
        rng: &mut SmallRng,
    ) -> (RouteInfo, DecisionRecord) {
        let params = self.df.params();
        let gs = params.group_of_terminal(src);
        let gd = params.group_of_terminal(dest);
        if gs == gd {
            // Intra-group traffic stays minimal; Valiant randomisation at
            // the system level only needs to balance the global channels.
            let route = RouteInfo::minimal()
                .with_salt(rng.gen())
                .with_injection_vc(1);
            return (route, DecisionRecord::default());
        }
        match pick_intermediate(&self.df, gs, gd, rng) {
            Some(gi) => {
                let route = RouteInfo::non_minimal(gi as u32)
                    .with_salt(rng.gen())
                    .with_injection_vc(0);
                (route, DecisionRecord::default())
            }
            None => {
                // No third group (tiny network), or faults killed every
                // viable intermediate while the direct channel survives.
                let route = RouteInfo::minimal()
                    .with_salt(rng.gen())
                    .with_injection_vc(1);
                let record = if self.df.has_faults() && params.num_groups() >= 3 {
                    DecisionRecord::fault_forced()
                } else {
                    DecisionRecord::default()
                };
                (route, record)
            }
        }
    }

    fn route(&self, _view: &NetView<'_>, router: usize, flit: &Flit) -> PortVc {
        route_flit(&self.df, router, flit)
    }
}

/// Which congestion information the UGAL decision consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UgalVariant {
    /// UGAL-L: total occupancy of the candidate output ports at the
    /// source router.
    Local,
    /// UGAL-L_VC: per-VC occupancy (minimal traffic on VC1, non-minimal
    /// on VC0), always.
    LocalVc,
    /// UGAL-L_VCH: per-VC occupancy only when both candidate paths leave
    /// through the same output port, total occupancy otherwise — the
    /// paper's hybrid that fixes UGAL-L_VC's uniform-random loss.
    LocalVcHybrid,
    /// UGAL-G: oracle occupancy of the actual global channels, read from
    /// whichever routers own them. An idealised upper bound.
    Global,
    /// UGAL-L(CR): the hybrid VC-discriminated rule, but with queue
    /// estimates that include the flits sent on the first-hop channel
    /// whose credits have not yet returned. Paired with
    /// [`dfly_netsim::CreditMode::RoundTrip`] — credits return when a
    /// flit leaves the downstream router and are further delayed in
    /// proportion to measured congestion — this senses a congested
    /// remote global channel within one credit round trip instead of
    /// waiting for the intervening buffers to fill (§4.3.2).
    CreditRoundTrip,
    /// UGAL-L(EWMA): local total-port occupancies smoothed by an
    /// integer exponentially weighted moving average (weight 1/4 on new
    /// readings), damping the transient-burst noise that inflates the
    /// raw occupancy estimators' error under Markov on/off injection.
    /// The estimator is stateful, so each [`UgalRouting`] instance
    /// (and each clone) carries its own accumulators.
    LocalEwma,
}

impl UgalVariant {
    /// The paper's name for the variant, e.g. `"UGAL-L_CR"` — the one
    /// name table behind every topology's routing names.
    pub fn label(&self) -> &'static str {
        match self {
            UgalVariant::Local => "UGAL-L",
            UgalVariant::LocalVc => "UGAL-L_VC",
            UgalVariant::LocalVcHybrid => "UGAL-L_VCH",
            UgalVariant::Global => "UGAL-G",
            UgalVariant::CreditRoundTrip => "UGAL-L_CR",
            UgalVariant::LocalEwma => "UGAL-L_EWMA",
        }
    }

    /// The shared [`CongestionEstimator`] implementing this variant's
    /// congestion sensing — the same estimator objects every topology's
    /// UGAL uses.
    pub fn estimator(&self) -> Box<dyn CongestionEstimator> {
        match self {
            UgalVariant::Local => Box::new(QueueOccupancy),
            UgalVariant::LocalVc => Box::new(VcOccupancy),
            UgalVariant::LocalVcHybrid => Box::new(VcHybrid),
            UgalVariant::Global => Box::new(GlobalOracle),
            UgalVariant::CreditRoundTrip => Box::new(CreditCommitted),
            UgalVariant::LocalEwma => Box::new(EwmaOccupancy::new(2)),
        }
    }
}

/// Universal Globally-Adaptive Load-balanced routing (UGAL) over a
/// dragonfly: picks minimal or Valiant per packet by comparing
/// `q_m · H_m ≤ q_nm · H_nm`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use dragonfly::{Dragonfly, DragonflyParams, UgalRouting, UgalVariant};
///
/// let df = Arc::new(Dragonfly::new(DragonflyParams::new(2, 4, 2).unwrap()));
/// let ugal = UgalRouting::new(df, UgalVariant::LocalVcHybrid);
/// ```
#[derive(Debug, Clone)]
pub struct UgalRouting {
    df: Arc<Dragonfly>,
    ugal: VariantChooser,
}

impl UgalRouting {
    /// Creates UGAL routing of the given variant over `df`.
    pub fn new(df: Arc<Dragonfly>, variant: UgalVariant) -> Self {
        let ugal = VariantChooser::new(variant);
        UgalRouting { df, ugal }
    }

    /// The variant in use.
    pub fn variant(&self) -> UgalVariant {
        self.ugal.variant
    }
}

/// A UGAL variant together with the chooser built over its estimator —
/// what every topology's UGAL routing carries.
#[derive(Debug)]
pub(crate) struct VariantChooser {
    pub(crate) variant: UgalVariant,
    pub(crate) chooser: UgalChooser,
}

impl VariantChooser {
    pub(crate) fn new(variant: UgalVariant) -> Self {
        let chooser = UgalChooser::new(variant.estimator());
        VariantChooser { variant, chooser }
    }
}

/// Estimators may carry per-run state, so a clone gets a fresh one.
impl Clone for VariantChooser {
    fn clone(&self) -> Self {
        VariantChooser::new(self.variant)
    }
}

impl RoutingAlgorithm for UgalRouting {
    fn name(&self) -> String {
        self.ugal.variant.label().into()
    }

    fn inject(&self, view: &NetView<'_>, src: usize, dest: usize, rng: &mut SmallRng) -> RouteInfo {
        self.inject_traced(view, src, dest, rng).0
    }

    fn inject_traced(
        &self,
        view: &NetView<'_>,
        src: usize,
        dest: usize,
        rng: &mut SmallRng,
    ) -> (RouteInfo, DecisionRecord) {
        let df = &self.df;
        let params = df.params();
        let rs = params.router_of_terminal(src);
        let rd = params.router_of_terminal(dest);
        let gs = params.group_of_router(rs);
        let gd = params.group_of_router(rd);
        let salt: u32 = rng.gen();
        if rs == rd || gs == gd {
            let route = RouteInfo::minimal().with_salt(salt).with_injection_vc(1);
            return (route, DecisionRecord::default());
        }
        let direct_alive = !df.has_faults() || df.global_slot_count(gs, gd) > 0;
        let gi = match pick_intermediate(df, gs, gd, rng) {
            Some(gi) => gi,
            None if direct_alive => {
                // No usable intermediate: minimal is the only shape left.
                let route = RouteInfo::minimal().with_salt(salt).with_injection_vc(1);
                let record = if df.has_faults() && params.num_groups() >= 3 {
                    DecisionRecord::fault_forced()
                } else {
                    DecisionRecord::default()
                };
                return (route, record);
            }
            None => unreachable!(
                "fault validation guarantees a direct channel or a viable intermediate"
            ),
        };
        if !direct_alive {
            // Every direct channel is dead: the Valiant path wins without
            // a queue comparison.
            let route = RouteInfo::non_minimal(gi as u32)
                .with_salt(salt)
                .with_injection_vc(0);
            let record = DecisionRecord::fault_forced();
            return (route, record);
        }
        let m = df.minimal_candidate(rs, dest, salt);
        let nm = df.non_minimal_candidate(rs, dest, gi as u32, salt);
        let decision = self.ugal.chooser.choose(view, rs, &m, &nm);
        let record = DecisionRecord::from(&decision);
        if decision.minimal {
            let route = RouteInfo::minimal().with_salt(salt).with_injection_vc(1);
            (route, record)
        } else {
            let route = RouteInfo::non_minimal(gi as u32)
                .with_salt(salt)
                .with_injection_vc(0);
            (route, record)
        }
    }

    fn route(&self, _view: &NetView<'_>, router: usize, flit: &Flit) -> PortVc {
        route_flit(&self.df, router, flit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DragonflyParams;
    use dfly_netsim::{ChannelClass, FaultPlan};
    use dfly_traffic::rng_for;

    fn df72() -> Arc<Dragonfly> {
        Arc::new(Dragonfly::new(DragonflyParams::new(2, 4, 2).unwrap()))
    }

    /// Walks a flit from its source router to ejection, returning the
    /// sequence of (channel class, vc) traversed. Ejecting at the wrong
    /// terminal or looping past the diameter bound surfaces as a
    /// [`SimError`] from [`trace_route`].
    fn walk(df: &Dragonfly, src: usize, dest: usize, route: RouteInfo) -> Vec<(ChannelClass, u8)> {
        trace_route(df, src, dest, route)
            .expect("route must eject at its destination")
            .iter()
            .map(|hop| (hop.class, hop.vc as u8))
            .collect()
    }

    #[test]
    fn minimal_route_crosses_at_most_one_global() {
        let df = df72();
        let mut rng = rng_for(1, 0);
        for src in 0..72 {
            for dest in 0..72 {
                if src == dest {
                    continue;
                }
                let route = RouteInfo::minimal().with_salt(rng.gen());
                let path = walk(&df, src, dest, route);
                let globals = path
                    .iter()
                    .filter(|(c, _)| *c == ChannelClass::Global)
                    .count();
                assert!(globals <= 1, "{src}->{dest}: {globals} globals");
                // local-global-local-eject at most.
                assert!(path.len() <= 4, "{src}->{dest}: path {path:?}");
            }
        }
    }

    #[test]
    fn trace_route_rejects_out_of_range_terminals() {
        let df = df72();
        for (src, dest) in [(72, 0), (0, 72)] {
            let err = trace_route(&df, src, dest, RouteInfo::minimal()).unwrap_err();
            assert_eq!(err, SimError::InvalidRoute("terminal out of range".into()));
        }
    }

    #[test]
    fn valiant_route_visits_intermediate_group() {
        let df = df72();
        // src terminal 0 (group 0), dest terminal 70 (group 8), via 4.
        let route = RouteInfo::non_minimal(4).with_salt(17);
        let path = walk(&df, 0, 70, route);
        let globals = path
            .iter()
            .filter(|(c, _)| *c == ChannelClass::Global)
            .count();
        assert_eq!(globals, 2);
        assert!(path.len() <= 6);
    }

    #[test]
    fn vc_order_is_monotonic_for_deadlock_freedom() {
        // Rank channels l0 < g0 < l1 < g1 < l2; every walk must ascend.
        fn rank(class: ChannelClass, vc: u8) -> u32 {
            match (class, vc) {
                (ChannelClass::Local, v) => 2 * v as u32,
                (ChannelClass::Global, v) => 2 * v as u32 + 1,
                (ChannelClass::Terminal, _) => 100,
            }
        }
        let df = df72();
        let mut rng = rng_for(2, 0);
        for src in (0..72).step_by(5) {
            for dest in (0..72).step_by(7) {
                if src == dest {
                    continue;
                }
                let gs = df.params().group_of_terminal(src);
                let gd = df.params().group_of_terminal(dest);
                let routes = if gs != gd {
                    let gi = (0..9).find(|&x| x != gs && x != gd).unwrap();
                    vec![
                        RouteInfo::minimal().with_salt(rng.gen()),
                        RouteInfo::non_minimal(gi as u32).with_salt(rng.gen()),
                    ]
                } else {
                    vec![RouteInfo::minimal().with_salt(rng.gen())]
                };
                for route in routes {
                    let path = walk(&df, src, dest, route);
                    let ranks: Vec<u32> = path.iter().map(|&(c, v)| rank(c, v)).collect();
                    for w in ranks.windows(2) {
                        assert!(w[0] <= w[1], "{src}->{dest} ranks {ranks:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn min_path_hops_match_walk() {
        let df = df72();
        for src in (0..72).step_by(3) {
            for dest in (1..72).step_by(4) {
                if src == dest {
                    continue;
                }
                let salt = 99;
                let rs = df.params().router_of_terminal(src);
                let plan = df.minimal_candidate(rs, dest, salt);
                let path = walk(&df, src, dest, RouteInfo::minimal().with_salt(salt));
                // walk includes the ejection hop; plan.hops counts only
                // router-to-router channels.
                assert_eq!(plan.hops as usize, path.len() - 1, "{src}->{dest}");
            }
        }
    }

    #[test]
    fn nonmin_path_hops_match_walk() {
        let df = df72();
        let salt = 7;
        for (src, dest) in [(0usize, 70usize), (3, 40), (10, 65)] {
            let rs = df.params().router_of_terminal(src);
            let gs = df.params().group_of_terminal(src);
            let gd = df.params().group_of_terminal(dest);
            let gi = (0..9).find(|&x| x != gs && x != gd).unwrap();
            let plan = df.non_minimal_candidate(rs, dest, gi as u32, salt);
            let path = walk(
                &df,
                src,
                dest,
                RouteInfo::non_minimal(gi as u32).with_salt(salt),
            );
            assert_eq!(plan.hops as usize, path.len() - 1, "{src}->{dest}");
        }
    }

    #[test]
    fn random_intermediate_avoids_endpoints() {
        let mut rng = rng_for(5, 0);
        let mut seen = [false; 9];
        for _ in 0..500 {
            let gi = random_intermediate(9, 2, 6, &mut rng).unwrap();
            assert_ne!(gi, 2);
            assert_ne!(gi, 6);
            seen[gi] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 7);
        assert_eq!(random_intermediate(2, 0, 1, &mut rng), None);
    }

    #[test]
    fn ugal_names() {
        let df = df72();
        assert_eq!(
            UgalRouting::new(df.clone(), UgalVariant::Local).name(),
            "UGAL-L"
        );
        assert_eq!(
            UgalRouting::new(df.clone(), UgalVariant::Global).name(),
            "UGAL-G"
        );
        assert_eq!(MinimalRouting::new(df.clone()).name(), "MIN");
        assert_eq!(ValiantRouting::new(df).name(), "VAL");
    }

    /// A 72-terminal dragonfly with the single group 0 <-> 1 global
    /// cable failed.
    fn df72_dead_01() -> Dragonfly {
        let params = DragonflyParams::new(2, 4, 2).unwrap();
        let clean = Dragonfly::new(params);
        let spec = clean.build_spec();
        let a = params.routers_per_group();
        let cable = (0..a)
            .flat_map(|r| {
                spec.routers[r]
                    .ports
                    .iter()
                    .enumerate()
                    .map(move |(p, port)| (r, p, *port))
                    .collect::<Vec<_>>()
            })
            .find_map(|(r, p, port)| match port.conn {
                dfly_netsim::Connection::Router { router: peer, .. }
                    if port.class == ChannelClass::Global
                        && params.group_of_router(peer as usize) == 1 =>
                {
                    Some((r, p))
                }
                _ => None,
            })
            .expect("0-1 cable exists");
        clean
            .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
            .unwrap()
    }

    #[test]
    fn min_detours_nonminimally_around_dead_direct_cable() {
        use crate::{DragonflySim, RoutingChoice, TrafficChoice};
        let sim = DragonflySim::with_dragonfly(df72_dead_01());
        let mut cfg = sim.config(0.2);
        cfg.warmup = 300;
        cfg.measure = 1_000;
        cfg.drain_cap = 30_000;
        let stats = sim.run(RoutingChoice::Min, TrafficChoice::Uniform, cfg);
        assert!(stats.drained, "MIN starved around the dead cable");
        // Every group 0 <-> 1 packet was force-detoured and counted.
        assert!(stats.routing.fault_avoided_decisions > 0);
        assert!(stats.routing.dropped_candidates > 0);
        assert!(stats.routing.non_minimal_takes > 0);
    }

    #[test]
    fn ugal_detours_and_keeps_adapting_around_dead_cable() {
        use crate::{DragonflySim, RoutingChoice, TrafficChoice};
        let sim = DragonflySim::with_dragonfly(df72_dead_01());
        let mut cfg = sim.config(0.2);
        cfg.warmup = 300;
        cfg.measure = 1_000;
        cfg.drain_cap = 30_000;
        let stats = sim.run(RoutingChoice::UgalLVcH, TrafficChoice::Uniform, cfg);
        assert!(stats.drained, "UGAL starved around the dead cable");
        assert!(stats.routing.fault_avoided_decisions > 0);
        // Pairs with a live direct cable still run the full comparison.
        assert!(stats.routing.adaptive_decisions > 0);
    }

    #[test]
    fn forced_detours_trace_through_a_viable_intermediate() {
        let df = df72_dead_01();
        let viable = df.viable_intermediates(0, 1).unwrap().to_vec();
        assert!(!viable.is_empty());
        for gi in viable {
            let hops = walk(&df, 0, 8, RouteInfo::non_minimal(gi));
            let globals = hops
                .iter()
                .filter(|(class, _)| *class == ChannelClass::Global)
                .count();
            assert_eq!(globals, 2, "detour via {gi} must cross two globals");
        }
    }

    #[test]
    fn valiant_under_faults_avoids_dead_legs() {
        // Every Valiant route drawn at injection must stay on alive
        // cables: exercise the picker through a live simulation.
        use crate::{DragonflySim, RoutingChoice, TrafficChoice};
        let sim = DragonflySim::with_dragonfly(df72_dead_01());
        let mut cfg = sim.config(0.15);
        cfg.warmup = 300;
        cfg.measure = 1_000;
        cfg.drain_cap = 30_000;
        let stats = sim.run(RoutingChoice::Valiant, TrafficChoice::Uniform, cfg);
        assert!(stats.drained, "VAL starved around the dead cable");
    }
}

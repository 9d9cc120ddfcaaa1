//! Routing for the dragonfly: MIN, VAL and the UGAL family.
//!
//! The dragonfly is a [`NetTopology`], so its routings are the shared
//! [`NetRouting`](crate::network::NetRouting) family, built by [`crate::RoutingChoice::build`]. All
//! share the same per-hop route computation and the paper's
//! deadlock-free VC assignment (Figure 7); they differ only in the
//! *injection-time* decision between the minimal and the Valiant
//! (non-minimal) path:
//!
//! | choice | built as | decision |
//! |---|---|---|
//! | `Min` | [`NetRouting::new`](crate::network::NetRouting::new) | always minimal |
//! | `Valiant` | [`NetRouting::valiant`](crate::network::NetRouting::valiant) | always non-minimal (random intermediate group) |
//! | `UgalL` | [`NetRouting::ugal`](crate::network::NetRouting::ugal) + [`UgalVariant::Local`] | `q_m·H_m ≤ q_nm·H_nm` with local total-port occupancies |
//! | `UgalLVc` | … + [`UgalVariant::LocalVc`] | per-VC occupancies (UGAL-L_VC) |
//! | `UgalLVcH` | … + [`UgalVariant::LocalVcHybrid`] | per-VC only when the two paths share an output port (UGAL-L_VCH) |
//! | `UgalG` | … + [`UgalVariant::Global`] | oracle occupancy of the actual global channels (UGAL-G) |
//! | `UgalLCr` | … + [`UgalVariant::CreditRoundTrip`] | the hybrid rule over credit-inclusive estimates (UGAL-L_CR) |
//! | `UgalLEwma` | … + [`UgalVariant::LocalEwma`] | EWMA-smoothed local total-port occupancies (UGAL-L_EWMA) |
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

use dfly_netsim::{
    CandidatePath, CongestionEstimator, CreditCommitted, EwmaOccupancy, Flit, GlobalOracle,
    NetworkSpec, PortVc, QueueOccupancy, RouteClass, UgalChooser, VcHybrid, VcOccupancy,
};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::network::NetTopology;
use crate::topology::Dragonfly;

pub use dfly_netsim::TraceHop;

/// The dragonfly on the shared harness. Every answer is read from the
/// slot, ring and group-local tables built with the wiring, which are
/// O(a·h + a² + g) and hold no per-pair state. Its faults are its own
/// ([`Dragonfly::with_fault_plan`]): the salt-selected slot is drawn
/// from the surviving channels, the Valiant set shrinks to the viable
/// intermediates, and the harness sees them only through
/// [`NetTopology::forced_class`]. It is not
/// [`BfsFaults`](crate::network::BfsFaults), so routes keep the
/// `l0 < g0 < l1 < g1 < l2` order.
impl NetTopology for Dragonfly {
    const VALIANT_TAG_FIRST: bool = true;

    /// [`Dragonfly::build_spec`]: the per-class [`crate::ChannelLatencies`]
    /// stand in for `latency`, and applied faults are marked.
    fn wire(&self, _latency: u32) -> NetworkSpec {
        self.build_spec()
    }

    fn hop_bound(&self) -> usize {
        self.route_hop_bound() - 1
    }

    fn terminal_router(&self, terminal: usize) -> usize {
        self.params().router_of_terminal(terminal)
    }

    fn ejection_port(&self, terminal: usize) -> usize {
        self.eject_port(terminal)
    }

    /// `flit.route` carries the class, the intermediate group and the
    /// salt; everything else is read from the dragonfly tables, so every
    /// flit of a packet follows the same path.
    fn route(&self, router: usize, flit: &Flit) -> PortVc {
        self.next_hop(router, flit.dest as usize, flit.route)
    }

    /// The minimal path (≤ 1 global channel), summarised by its
    /// salt-selected first-hop port, the first entry of its VC
    /// schedule, its total hop count, and — as the oracle probe point —
    /// the router and port owning its global channel. Under a fault plan
    /// the salt picks among the *surviving* parallel channels only, and
    /// the removed channels along the path count as
    /// [`CandidatePath::dropped`]. Callers must not request it for a
    /// group pair that has lost every direct channel (the harness
    /// consults [`NetTopology::forced_class`] first).
    fn minimal_candidate(&self, router: usize, dest: usize, salt: u32) -> CandidatePath {
        self.candidate(router, dest, None, salt)
    }

    /// The Valiant path through intermediate group `intermediate`,
    /// summarised as the minimal one, probed at its first global
    /// channel.
    fn non_minimal_candidate(
        &self,
        router: usize,
        dest: usize,
        intermediate: u32,
        salt: u32,
    ) -> CandidatePath {
        self.candidate(router, dest, Some(intermediate as usize), salt)
    }

    /// A uniformly random intermediate group among those whose Valiant
    /// legs both survive (every third group fault-free).
    fn draw_tag(&self, router: usize, dest: usize, _salt: u32, rng: &mut SmallRng) -> Option<u32> {
        let params = self.params();
        let gs = params.group_of_router(router);
        let gd = params.group_of_terminal(dest);
        let g = params.num_groups();
        match self.viable_intermediates(gs, gd) {
            Some(viable) => (!viable.is_empty()).then(|| viable[rng.gen_range(0..viable.len())]),
            None if gs == gd || g < 3 => None,
            None => Some(third_group(gs, gd, rng.gen_range(0..g - 2))),
        }
    }

    /// The dragonfly's own channel latencies and fault marks stand in
    /// for `latency` and `failed`, as in [`NetTopology::wire`].
    fn canon(&self, _latency: u32, _failed: &[(usize, usize)]) -> String {
        format!(
            "params={:?} latencies={:?} failed={:?}",
            self.params(),
            self.latencies(),
            self.failed_links()
        )
    }

    fn group_terminals(&self) -> Option<usize> {
        let params = self.params();
        Some(params.routers_per_group() * params.terminals_per_router())
    }

    fn injection_vc(&self, class: RouteClass) -> u8 {
        match class {
            RouteClass::Minimal => 1,
            RouteClass::NonMinimal => 0,
        }
    }

    /// Under a fault plan, an inter-group pair whose direct channels all
    /// died must detour, and one left without a viable intermediate
    /// (while a third group exists) must stay minimal.
    fn forced_class(&self, router: usize, dest: usize) -> Option<RouteClass> {
        if !self.has_faults() {
            return None;
        }
        let params = self.params();
        let gs = params.group_of_router(router);
        let gd = params.group_of_terminal(dest);
        if gs == gd {
            None
        } else if self.global_slot_count(gs, gd) == 0 {
            Some(RouteClass::NonMinimal)
        } else if self
            .viable_intermediates(gs, gd)
            .is_some_and(<[u32]>::is_empty)
            && params.num_groups() >= 3
        {
            Some(RouteClass::Minimal)
        } else {
            None
        }
    }
}

/// The `i`-th group other than `gs` and `gd`.
fn third_group(gs: usize, gd: usize, i: usize) -> u32 {
    let gi = i + usize::from(i >= gs.min(gd));
    (gi + usize::from(gi >= gs.max(gd))) as u32
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
    /// The estimator is stateful, so each [`NetRouting`](crate::network::NetRouting) instance
    /// (and each clone) carries its own accumulators.
    LocalEwma,
}

impl UgalVariant {
    /// The paper's name for the variant, e.g. `"UGAL-L_CR"`, as
    /// [`crate::RoutingChoice::label`] prints it.
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

/// A UGAL variant together with the chooser built over its estimator —
/// what every topology's UGAL routing carries.
#[derive(Debug)]
pub(crate) struct VariantChooser {
    variant: UgalVariant,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DragonflyParams;
    use crate::{DragonflySim, RoutingChoice, TrafficChoice};
    use dfly_netsim::{ChannelClass, FaultPlan, RouteInfo, SimError};
    use dfly_traffic::rng_for;

    fn df72() -> DragonflySim {
        DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap())
    }

    /// Walks a flit from its source router to ejection, returning the
    /// sequence of (channel class, vc) traversed. Ejecting at the wrong
    /// terminal or looping past the diameter bound surfaces as a
    /// [`SimError`] from [`DragonflySim::trace_route`].
    fn walk(
        sim: &DragonflySim,
        src: usize,
        dest: usize,
        route: RouteInfo,
    ) -> Vec<(ChannelClass, u8)> {
        sim.trace_route(src, dest, route)
            .expect("route must eject at its destination")
            .iter()
            .map(|hop| (hop.class, hop.vc as u8))
            .collect()
    }

    #[test]
    fn minimal_route_crosses_at_most_one_global() {
        let sim = df72();
        let mut rng = rng_for(1, 0);
        for src in 0..72 {
            for dest in 0..72 {
                if src == dest {
                    continue;
                }
                let route = RouteInfo::minimal().with_salt(rng.gen());
                let path = walk(&sim, src, dest, route);
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
        let sim = df72();
        for (src, dest) in [(72, 0), (0, 72)] {
            let err = sim
                .trace_route(src, dest, RouteInfo::minimal())
                .unwrap_err();
            assert_eq!(err, SimError::InvalidRoute("terminal out of range".into()));
        }
    }

    #[test]
    fn valiant_route_visits_intermediate_group() {
        let sim = df72();
        // src terminal 0 (group 0), dest terminal 70 (group 8), via 4.
        let route = RouteInfo::non_minimal(4).with_salt(17);
        let path = walk(&sim, 0, 70, route);
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
        let sim = df72();
        let df = sim.dragonfly();
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
                    let path = walk(&sim, src, dest, route);
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
        let sim = df72();
        let df = sim.dragonfly();
        for src in (0..72).step_by(3) {
            for dest in (1..72).step_by(4) {
                if src == dest {
                    continue;
                }
                let salt = 99;
                let rs = df.params().router_of_terminal(src);
                let plan = df.minimal_candidate(rs, dest, salt);
                let path = walk(&sim, src, dest, RouteInfo::minimal().with_salt(salt));
                // walk includes the ejection hop; plan.hops counts only
                // router-to-router channels.
                assert_eq!(plan.hops as usize, path.len() - 1, "{src}->{dest}");
            }
        }
    }

    #[test]
    fn nonmin_path_hops_match_walk() {
        let sim = df72();
        let df = sim.dragonfly();
        let salt = 7;
        for (src, dest) in [(0usize, 70usize), (3, 40), (10, 65)] {
            let rs = df.params().router_of_terminal(src);
            let gs = df.params().group_of_terminal(src);
            let gd = df.params().group_of_terminal(dest);
            let gi = (0..9).find(|&x| x != gs && x != gd).unwrap();
            let plan = df.non_minimal_candidate(rs, dest, gi as u32, salt);
            let path = walk(
                &sim,
                src,
                dest,
                RouteInfo::non_minimal(gi as u32).with_salt(salt),
            );
            assert_eq!(plan.hops as usize, path.len() - 1, "{src}->{dest}");
        }
    }

    #[test]
    fn random_intermediate_avoids_endpoints() {
        let sim = df72();
        let df = sim.dragonfly();
        let mut rng = rng_for(5, 0);
        let mut seen = [false; 9];
        // Router 8 sits in group 2, terminal 48 in group 6.
        for _ in 0..500 {
            let gi = df.draw_tag(8, 48, 0, &mut rng).unwrap() as usize;
            assert_ne!(gi, 2);
            assert_ne!(gi, 6);
            seen[gi] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 7);
        let two_groups = Dragonfly::new(DragonflyParams::with_groups(1, 2, 1, 2).unwrap());
        assert_eq!(two_groups.draw_tag(0, 2, 0, &mut rng), None);
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
        let sim = DragonflySim::new(df72_dead_01());
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
        let sim = DragonflySim::new(df72_dead_01());
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
        let sim = DragonflySim::new(df72_dead_01());
        let df = sim.dragonfly();
        let viable = df.viable_intermediates(0, 1).unwrap().to_vec();
        assert!(!viable.is_empty());
        for gi in viable {
            let hops = walk(&sim, 0, 8, RouteInfo::non_minimal(gi));
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
        let sim = DragonflySim::new(df72_dead_01());
        let mut cfg = sim.config(0.15);
        cfg.warmup = 300;
        cfg.measure = 1_000;
        cfg.drain_cap = 30_000;
        let stats = sim.run(RoutingChoice::Valiant, TrafficChoice::Uniform, cfg);
        assert!(stats.drained, "VAL starved around the dead cable");
    }
}

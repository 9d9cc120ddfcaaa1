//! The one simulation harness shared by every topology.
//!
//! A topology describes itself fault-free, once, as a [`NetTopology`]:
//! its wiring, hop bound, terminal attachment, per-hop route
//! arithmetic, its two UGAL candidates, the draw of a non-minimal tag
//! and the canonical text a campaign key names the network by. No
//! per-pair tables: a topology keeps only tables sized by its router's
//! radix (the dragonfly's slot, ring and group-local tables). Everything
//! else is written once, here and in [`crate::NetworkSim`], which runs
//! any of them as [`crate::RunPlan`]s, cached or not:
//!
//! * [`SimNetwork`] owns the topology, the channel latency and the
//!   link-failure state. Under a [`FaultPlan`] every routing question
//!   of a [`BfsFaults`] topology is answered from per-destination BFS
//!   columns over the surviving links ([`FaultTable`]) — strictly
//!   decreasing alive distance, so no loops — and the topology's own
//!   arithmetic is never consulted. Detours then share a phase's VC, so
//!   deadlock freedom under faults is best-effort rather than proven.
//! * [`NetRouting`] is the routing family over any such network:
//!   oblivious, Valiant, or UGAL with any [`UgalVariant`] estimator.
//!
//! [`crate::butterfly`], [`crate::clos_sim`], [`crate::torus_sim`] and
//! the dragonfly are instances; see DESIGN.md, "Adding a topology".

use std::sync::Arc;

use dfly_netsim::{
    CandidatePath, Connection, DecisionRecord, FaultPlan, FaultTable, Flit, NetView, NetworkSpec,
    PortVc, RouteClass, RouteInfo, RoutingAlgorithm, SimError,
};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::routing::{UgalVariant, VariantChooser};

/// What a topology implements to run on the shared harness, all of it
/// fault-free: routing questions are answered by index arithmetic over
/// `(router, dest)`, where `dest` is a terminal.
///
/// The `salt` a packet carries pre-selects among parallel equivalent
/// channels (e.g. the dragonfly's multiple global channels per group
/// pair), so that the queue a UGAL decision inspects is the queue the
/// packet will use; topologies with a unique minimal first hop ignore
/// it. All flits of a packet carry the same salt.
pub trait NetTopology: Send + Sync {
    /// Whether a non-minimal route draws a fresh salt instead of
    /// reusing the one its candidates were evaluated with.
    const RESALT_DETOURS: bool = false;
    /// Whether non-minimal tags name intermediate *routers*, so that
    /// detours survive a fault plan as two BFS phases (towards the
    /// intermediate on VC0, then the destination on VC1). Otherwise
    /// routing falls back to minimal under faults.
    const DETOURS_UNDER_FAULTS: bool = false;
    /// Whether a Valiant packet draws its tag before its salt (then
    /// [`NetTopology::draw_tag`] sees salt 0) instead of after it — the
    /// dragonfly's frozen VAL draw order.
    const VALIANT_TAG_FIRST: bool = false;

    /// The fault-free wiring with `latency`-cycle network channels.
    fn wire(&self, latency: u32) -> NetworkSpec;

    /// Upper bound on the network hops of any fault-free route.
    fn hop_bound(&self) -> usize;

    /// The router terminal `terminal` attaches to.
    fn terminal_router(&self, terminal: usize) -> usize;

    /// The port on [`Self::terminal_router`] that ejects to `terminal`.
    fn ejection_port(&self, terminal: usize) -> usize;

    /// Fault-free per-hop route computation.
    fn route(&self, router: usize, flit: &Flit) -> PortVc;

    /// The minimal UGAL candidate from `router` toward terminal `dest`
    /// for a packet salted `salt`.
    fn minimal_candidate(&self, router: usize, dest: usize, salt: u32) -> CandidatePath;

    /// The non-minimal (Valiant) UGAL candidate from `router` toward
    /// terminal `dest` through `intermediate`: the tag
    /// [`Self::draw_tag`] drew, stored in
    /// [`RouteInfo::non_minimal`] — an intermediate group (dragonfly),
    /// an intermediate router (flattened butterfly), a leaf uplink
    /// (folded Clos) or a `dim * 2 + direction` ring detour (torus).
    fn non_minimal_candidate(
        &self,
        router: usize,
        dest: usize,
        intermediate: u32,
        salt: u32,
    ) -> CandidatePath;

    /// Draws the non-minimal tag weighed against the minimal route from
    /// `router` to terminal `dest` (on another router) for a packet
    /// salted `salt`; `None` when the pair admits no detour.
    fn draw_tag(&self, router: usize, dest: usize, salt: u32, rng: &mut SmallRng) -> Option<u32>;

    /// Canonical text of everything about the network wired with
    /// `latency`-cycle channels and the `failed` cables that a run's
    /// bits depend on: the network part of a campaign key. It must not
    /// collide with another topology's text.
    fn canon(&self, latency: u32, failed: &[(usize, usize)]) -> String;

    /// Terminals per group, for the group traffic patterns; `None` for a
    /// topology without groups.
    fn group_terminals(&self) -> Option<usize> {
        None
    }

    /// The VC of a BFS hop from `router` through `port` toward router
    /// `target` under faults; `vc` is the phase's VC.
    fn fault_vc(&self, _router: usize, _target: usize, _port: usize, vc: usize) -> usize {
        vc
    }

    /// The VC a packet of route `class` occupies on its injection
    /// channel. The dragonfly keeps its frozen schedule: minimal on VC1,
    /// non-minimal on VC0.
    fn injection_vc(&self, _class: RouteClass) -> u8 {
        0
    }

    /// The only route class a fault model the topology keeps itself
    /// leaves between `router` and terminal `dest` (on another router):
    /// `NonMinimal` when every direct channel is dead, `Minimal` when no
    /// detour survives. Such a packet takes that class without a UGAL
    /// comparison, recorded as [`DecisionRecord::fault_forced`] — the
    /// dragonfly's frozen forced detours and forced-minimal fallbacks.
    fn forced_class(&self, _router: usize, _dest: usize) -> Option<RouteClass> {
        None
    }
}

/// A [`NetTopology`] that takes the harness's BFS fault model
/// ([`SimNetwork::with_fault_plan`]). The dragonfly is not one: it masks
/// failed slots itself, which keeps the paper's VC order.
pub trait BfsFaults: NetTopology {}

/// A topology wired for cycle-accurate simulation, with optional
/// link failures.
#[derive(Debug, Clone)]
pub struct SimNetwork<T> {
    topology: T,
    latency: u32,
    /// BFS next-hop tables over the surviving links (and the faulted
    /// spec they were built from), present after
    /// [`SimNetwork::with_fault_plan`] failed at least one link.
    faults: Option<Box<FaultTable>>,
}

const CONNECTED: &str = "validated fault plan keeps the network connected";

impl<T: NetTopology> SimNetwork<T> {
    /// Wires `topology` with unit channel latency.
    pub fn new(topology: impl Into<T>) -> Self {
        Self::with_latency(topology, 1)
    }

    /// Wires `topology` with the given network-channel latency.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0`.
    pub fn with_latency(topology: impl Into<T>, latency: u32) -> Self {
        assert!(latency > 0, "latency must be >= 1");
        SimNetwork {
            topology: topology.into(),
            latency,
            faults: None,
        }
    }

    /// Whether [`SimNetwork::with_fault_plan`] failed at least one link.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// The canonical failed cables, empty for a fault-free network.
    pub fn failed_links(&self) -> &[(usize, usize)] {
        self.faults
            .as_ref()
            .map_or(&[], |f| f.spec().failed_links())
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// Upper bound on the hops of any valid route, ejection included:
    /// the topology's own bound fault-free, the alive diameter per BFS
    /// phase under faults.
    pub fn route_hop_bound(&self) -> usize {
        match &self.faults {
            None => self.topology.hop_bound() + 1,
            Some(f) if T::DETOURS_UNDER_FAULTS => 2 * f.diameter() as usize + 1,
            Some(f) => f.diameter() as usize + 1,
        }
    }

    /// The network's canonical text ([`NetTopology::canon`]).
    pub fn canon(&self) -> String {
        self.topology.canon(self.latency, self.failed_links())
    }

    /// Builds the simulator wiring; an applied fault plan is marked on
    /// the returned spec, so it always matches the routing tables.
    pub fn build_spec(&self) -> NetworkSpec {
        match &self.faults {
            None => self.topology.wire(self.latency),
            Some(f) => f.spec().clone(),
        }
    }
}

impl<T: BfsFaults> SimNetwork<T> {
    /// Applies a [`FaultPlan`], composing with any faults already
    /// present: routes then follow BFS shortest paths over the
    /// surviving links.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultPlan`] for malformed plans and
    /// [`SimError::Unreachable`] when the plan disconnects the network.
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Result<Self, SimError> {
        let spec = self.build_spec().with_faults(plan)?;
        self.faults = spec.has_faults().then(|| Box::new(FaultTable::new(&spec)));
        Ok(self)
    }
}

/// Progress of a two-phase Valiant route whose tag names an intermediate
/// *router*: the router a flit at `router` bound for router `rd` heads
/// for next, and its VC — the intermediate on VC0 until it is reached
/// (VC1, or standing on it, means it was), then the destination on VC1.
/// Minimal flits head for `rd` on VC0.
pub(crate) fn valiant_phase(router: usize, rd: usize, flit: &Flit) -> (usize, usize) {
    match flit.route.intermediate().map(|ri| ri as usize) {
        None => (rd, 0),
        Some(ri) if flit.vc == 1 || router == ri || ri == rd => (rd, 1),
        Some(ri) => (ri, 0),
    }
}

/// One BFS hop over `faults` from `router` toward router `target`.
fn fault_hop<T: NetTopology>(
    topology: &T,
    faults: &FaultTable,
    router: usize,
    target: usize,
    vc: usize,
) -> PortVc {
    let port = faults.next_port(router, target).expect(CONNECTED);
    PortVc::new(port, topology.fault_vc(router, target, port, vc))
}

/// The topology's candidates fault-free. Under faults the minimal
/// candidate follows the BFS column, probed at the channel after its
/// first hop; the non-minimal one (only requested when
/// [`NetTopology::DETOURS_UNDER_FAULTS`]) runs two BFS phases through
/// the intermediate router, probed where it leaves that router.
impl<T: NetTopology> SimNetwork<T> {
    /// [`NetTopology::minimal_candidate`] over the surviving links.
    pub fn minimal_candidate(&self, router: usize, dest: usize, salt: u32) -> CandidatePath {
        let faulted = self
            .faults
            .as_ref()
            .map(|f| (f, self.topology.terminal_router(dest)));
        let Some((f, rd)) = faulted.filter(|&(_, rd)| router != rd) else {
            return self.topology.minimal_candidate(router, dest, salt);
        };
        let first = fault_hop(&self.topology, f, router, rd, 0);
        let port = first.port as usize;
        let hops = f.distance(router, rd).expect(CONNECTED);
        let path = CandidatePath::new(port, first.vc as usize, hops);
        match f.spec().routers[router].ports[port].conn {
            Connection::Router { router: mid, .. } if mid as usize != rd => {
                let mid = mid as usize;
                path.with_probe(mid, f.next_port(mid, rd).expect(CONNECTED))
            }
            _ => path.with_probe(router, port),
        }
    }

    /// [`NetTopology::non_minimal_candidate`] over the surviving links.
    pub fn non_minimal_candidate(
        &self,
        router: usize,
        dest: usize,
        intermediate: u32,
        salt: u32,
    ) -> CandidatePath {
        let Some(f) = &self.faults else {
            return self
                .topology
                .non_minimal_candidate(router, dest, intermediate, salt);
        };
        let ri = intermediate as usize;
        let rd = self.topology.terminal_router(dest);
        debug_assert!(T::DETOURS_UNDER_FAULTS && ri != router && ri != rd);
        let first = fault_hop(&self.topology, f, router, ri, 0);
        let hops = f.distance(router, ri).expect(CONNECTED) + f.distance(ri, rd).expect(CONNECTED);
        CandidatePath::new(first.port as usize, first.vc as usize, hops)
            .with_probe(ri, f.next_port(ri, rd).expect(CONNECTED))
    }
}

/// Which decision rule drives a [`NetRouting`].
#[derive(Debug, Clone)]
enum Policy {
    Oblivious,
    Valiant,
    Ugal(VariantChooser),
}

/// Routing over a [`SimNetwork`]: the topology's oblivious rule, always
/// its non-minimal detour, or a per-packet UGAL choice between the two
/// driven by any [`dfly_netsim::CongestionEstimator`]. A clone of a
/// UGAL routing carries a fresh estimator.
#[derive(Debug, Clone)]
pub struct NetRouting<T> {
    net: Arc<SimNetwork<T>>,
    policy: Policy,
}

impl<T> NetRouting<T> {
    /// The topology's oblivious routing (minimal, random-up, DOR).
    pub fn new(net: Arc<SimNetwork<T>>) -> Self {
        let policy = Policy::Oblivious;
        NetRouting { net, policy }
    }

    /// Valiant routing: every packet takes a drawn non-minimal detour
    /// whenever its endpoints admit one.
    pub fn valiant(net: Arc<SimNetwork<T>>) -> Self {
        let policy = Policy::Valiant;
        NetRouting { net, policy }
    }

    /// UGAL over `variant`'s congestion estimator: per packet, the
    /// minimal route or a drawn detour, whichever the estimate favours.
    /// Pair [`UgalVariant::CreditRoundTrip`] with
    /// [`dfly_netsim::CreditMode::RoundTrip`].
    pub fn ugal(net: Arc<SimNetwork<T>>, variant: UgalVariant) -> Self {
        let policy = Policy::Ugal(VariantChooser::new(variant));
        NetRouting { net, policy }
    }
}

impl<T: NetTopology> RoutingAlgorithm for NetRouting<T> {
    fn inject(
        &self,
        view: &NetView<'_>,
        src: usize,
        dest: usize,
        rng: &mut SmallRng,
    ) -> (RouteInfo, DecisionRecord) {
        let net = &*self.net;
        let topology = &net.topology;
        let rs = topology.terminal_router(src);
        let detours =
            rs != topology.terminal_router(dest) && (!net.has_faults() || T::DETOURS_UNDER_FAULTS);
        let forced = detours.then(|| topology.forced_class(rs, dest)).flatten();
        let wants_tag = detours
            && (!matches!(self.policy, Policy::Oblivious)
                || forced == Some(RouteClass::NonMinimal));
        let tag_first = T::VALIANT_TAG_FIRST && matches!(self.policy, Policy::Valiant);
        let mut tag = None;
        if wants_tag && tag_first {
            tag = topology.draw_tag(rs, dest, 0, rng);
        }
        let salt: u32 = rng.gen();
        if wants_tag && !tag_first {
            tag = topology.draw_tag(rs, dest, salt, rng);
        }
        let minimal = RouteInfo::minimal()
            .with_salt(salt)
            .with_injection_vc(topology.injection_vc(RouteClass::Minimal));
        let Some(tag) = tag else {
            // Faults took the detour a non-oblivious policy asked for.
            let record = match forced {
                Some(RouteClass::Minimal) if wants_tag => DecisionRecord::fault_forced(),
                _ => DecisionRecord::default(),
            };
            return (minimal, record);
        };
        let record = match &self.policy {
            Policy::Valiant => DecisionRecord::default(),
            Policy::Ugal(ugal) if forced.is_none() => {
                let m = net.minimal_candidate(rs, dest, salt);
                let nm = net.non_minimal_candidate(rs, dest, tag, salt);
                let (take_minimal, record) = ugal.chooser.choose(view, rs, &m, &nm);
                if take_minimal {
                    return (minimal, record);
                }
                record
            }
            // A forced detour, which oblivious routing takes too.
            _ => DecisionRecord::fault_forced(),
        };
        let salt = if T::RESALT_DETOURS { rng.gen() } else { salt };
        let route = RouteInfo::non_minimal(tag)
            .with_salt(salt)
            .with_injection_vc(topology.injection_vc(RouteClass::NonMinimal));
        (route, record)
    }

    fn route(&self, _view: &NetView<'_>, router: usize, flit: &Flit) -> PortVc {
        let topology = &self.net.topology;
        let Some(f) = &self.net.faults else {
            return topology.route(router, flit);
        };
        let dest = flit.dest as usize;
        let rd = topology.terminal_router(dest);
        let (target, vc) = if T::DETOURS_UNDER_FAULTS {
            valiant_phase(router, rd, flit)
        } else {
            (rd, 0)
        };
        if router == target {
            return PortVc::new(topology.ejection_port(dest), 0);
        }
        fault_hop(topology, f, router, target, vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::ButterflyNetwork;
    use crate::clos_sim::ClosNetwork;
    use crate::torus_sim::TorusNetwork;
    use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};

    /// Composed plans, then: the spec the harness hands out is exactly a
    /// fresh wiring with the recorded cables re-marked, and the hop bound
    /// follows the alive diameter per BFS phase.
    fn check_faulted<T: BfsFaults + Clone>(clean: SimNetwork<T>, phases: usize) {
        let net = clean
            .clone()
            .with_fault_plan(&FaultPlan::random_any(0.05, 3))
            .unwrap()
            .with_fault_plan(&FaultPlan::random_any(0.1, 8))
            .unwrap();
        assert!(net.has_faults() && !clean.has_faults());
        assert!(clean.failed_links().is_empty());
        let remarked = clean
            .build_spec()
            .with_faults(&FaultPlan::Explicit(net.failed_links().to_vec()))
            .unwrap();
        assert_eq!(net.build_spec(), remarked);
        let diameter = FaultTable::new(&remarked).diameter() as usize;
        assert_eq!(net.route_hop_bound(), phases * diameter + 1);
        // A plan that fails nothing leaves the network fault-free.
        let none = clean.with_fault_plan(&FaultPlan::None).unwrap();
        assert!(!none.has_faults());
    }

    #[test]
    fn faulted_spec_is_a_fresh_wiring_remarked() {
        check_faulted(ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2)), 2);
        check_faulted(ClosNetwork::new(FoldedClos::new(3, 8)), 1);
        check_faulted(TorusNetwork::new(Torus::new(2, 4, 1)), 1);
    }
}

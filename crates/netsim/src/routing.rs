//! The routing-algorithm interface and a baseline implementation.

use rand::rngs::SmallRng;

use crate::error::SimError;
use crate::flit::{Flit, RouteInfo};
use crate::sim::RouterCore;
use crate::spec::{ChannelClass, Connection, NetworkSpec};

/// An output port / virtual channel pair produced by route computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortVc {
    /// Output port index within the router.
    pub port: u16,
    /// Virtual channel on the output channel.
    pub vc: u8,
}

impl PortVc {
    /// Convenience constructor.
    pub fn new(port: usize, vc: usize) -> Self {
        PortVc {
            port: port as u16,
            vc: vc as u8,
        }
    }
}

/// A read-only window onto live simulation state, handed to routing
/// algorithms.
///
/// Occupancies are the per-output queue depths of the paper's Figure 13:
/// `occupancy(r, o)` counts the flits buffered *in router `r`* whose
/// next hop is output `o` — exactly the `q` values the UGAL family
/// compares. A real router knows these for its own outputs (they are its
/// virtual-output-queue depths, and they grow under credit backpressure
/// from downstream); querying a *remote* router's ports is what only the
/// idealised UGAL-G oracle may do.
pub struct NetView<'a> {
    spec: &'a NetworkSpec,
    // Raw pointer rather than `&'a [RouterCore]` so the sharded engine
    // can build views over its shared router table while worker threads
    // hold mutable projections to *disjoint fields* of the same cores
    // (input-side fields; the view reads only output-side fields). All
    // accessors bounds-check against `len` before dereferencing.
    routers: *const RouterCore,
    len: usize,
    buffer_depth: usize,
    cycle: u64,
    _marker: std::marker::PhantomData<&'a RouterCore>,
}

#[allow(unsafe_code)]
impl<'a> NetView<'a> {
    pub(crate) fn new(
        spec: &'a NetworkSpec,
        routers: &'a [RouterCore],
        buffer_depth: usize,
        cycle: u64,
    ) -> Self {
        NetView {
            spec,
            routers: routers.as_ptr(),
            len: routers.len(),
            buffer_depth,
            cycle,
            _marker: std::marker::PhantomData,
        }
    }

    /// Builds a view over `len` routers starting at `routers`.
    ///
    /// # Safety
    ///
    /// For the view's lifetime, `routers..routers+len` must stay valid,
    /// and no thread may mutate the output-side fields (`out_q`,
    /// `out_mask`, `out_port_count`, `credits`, `outstanding`) of any
    /// core in that range. Mutation of the input-side fields (`inputs`,
    /// `in_mask`, `in_port_count`) by other threads is fine — the view
    /// never reads them.
    pub(crate) unsafe fn from_raw(
        spec: &'a NetworkSpec,
        routers: *const RouterCore,
        len: usize,
        buffer_depth: usize,
        cycle: u64,
    ) -> Self {
        NetView {
            spec,
            routers,
            len,
            buffer_depth,
            cycle,
            _marker: std::marker::PhantomData,
        }
    }

    /// Pointer to router `router`'s state and its output slot
    /// `port * vcs + vc`, bounds-checked against the view and the
    /// core's own port count (so every read is O(1)).
    #[inline]
    fn core(&self, router: usize, port: usize, vc: usize) -> (*const RouterCore, usize) {
        assert!(router < self.len, "router range");
        assert!(vc < self.spec.vcs, "vc range");
        // SAFETY: in range per the assert; valid per the constructor
        // contract, which also permits this shared read of the
        // output-side `out_port_count` (projected alone, never the whole
        // struct).
        let (core, ports) = unsafe {
            let core = self.routers.add(router);
            (core, (*core).out_port_count.len())
        };
        assert!(port < ports, "port range");
        (core, port * self.spec.vcs + vc)
    }

    /// The network description.
    pub fn spec(&self) -> &NetworkSpec {
        self.spec
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Buffer depth per (port, VC) in flits.
    pub fn buffer_depth(&self) -> usize {
        self.buffer_depth
    }

    /// Flits buffered in `router` whose next hop is output `port` on
    /// VC `vc` — the per-VC output queue depth (`q_vc` in the paper's
    /// UGAL-L_VC rule).
    ///
    /// # Panics
    ///
    /// Panics if `router`, `port` or `vc` is out of range.
    pub fn vc_occupancy(&self, router: usize, port: usize, vc: usize) -> usize {
        let (core, slot) = self.core(router, port, vc);
        // SAFETY: shared read of an output-side field, permitted by the
        // constructor contract. `&(*core).out_q` projects only that
        // field, never the whole struct. Only the queue's plain `len`
        // counter is read — never the arena the handles point into.
        unsafe { (&(*core).out_q)[slot].len as usize }
    }

    /// Flits buffered in `router` whose next hop is output `port`,
    /// across all VCs — the output queue depth (`q` in the paper's UGAL
    /// rule).
    ///
    /// # Panics
    ///
    /// Panics if `router` or `port` is out of range.
    pub fn occupancy(&self, router: usize, port: usize) -> usize {
        // The engine maintains this per-port aggregate, so the hot
        // UGAL comparison is O(1) instead of a sum over VC queues.
        let (core, _) = self.core(router, port, 0);
        // SAFETY: shared read of an output-side field (see `core`).
        unsafe { (&(*core).out_port_count)[port] as usize }
    }

    /// Everything `router` has committed toward output `port` on VC
    /// `vc`: its own output-queue depth **plus** the flits sent on the
    /// channel whose credits have not returned (`buffer_depth − credits`).
    ///
    /// Because credits return when a flit leaves the *downstream* router
    /// — and the credit round-trip mechanism delays them further in
    /// proportion to measured congestion — this quantity senses remote
    /// congestion within one credit round trip instead of waiting for
    /// buffers to fill. It is the congestion estimate used by the
    /// UGAL-L(CR) variant (§4.3.2 of the paper).
    ///
    /// For terminal ports this equals the queue depth: ejection consumes
    /// no credits, so a terminal port's credits stay at `buffer_depth`
    /// and the difference is 0 without looking at the wiring.
    ///
    /// # Panics
    ///
    /// Panics if `router`, `port` or `vc` is out of range.
    pub fn vc_committed(&self, router: usize, port: usize, vc: usize) -> usize {
        let (core, slot) = self.core(router, port, vc);
        // SAFETY: shared reads of output-side fields (see `core`).
        unsafe {
            let outstanding = self.buffer_depth - (&(*core).credits)[slot] as usize;
            (&(*core).out_q)[slot].len as usize + outstanding
        }
    }

    /// Total committed flits toward `router`'s output `port` across all
    /// VCs (see [`NetView::vc_committed`]).
    ///
    /// # Panics
    ///
    /// Panics if `router` or `port` is out of range.
    pub fn committed(&self, router: usize, port: usize) -> usize {
        // queue depth + unreturned credits, both per-port aggregates
        // the engine keeps up to date — O(1) instead of a VC sum.
        let (core, _) = self.core(router, port, 0);
        // SAFETY: shared reads of output-side fields (see `core`).
        unsafe { (&(*core).out_port_count)[port] as usize + (&(*core).outstanding)[port] as usize }
    }
}

/// Telemetry describing one injection decision, reported alongside the
/// [`RouteInfo`] by [`RoutingAlgorithm::inject_traced`]. The engine
/// accumulates these into [`crate::RouteTelemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionRecord {
    /// An adaptive minimal/non-minimal comparison actually ran (both
    /// candidates existed and queue state was consulted).
    pub adaptive: bool,
    /// The configured congestion estimator chose differently from the
    /// plain queue-occupancy baseline on the same candidates.
    pub estimator_disagreed: bool,
    /// A fault forced the outcome: the usual choice (or one of the two
    /// candidates) was unusable because of a failed link.
    pub fault_avoided: bool,
    /// Candidates the topology (or the chooser's mask) discarded because
    /// a fault made them unusable.
    pub dropped_candidates: u32,
    /// Candidates read without a probe point under a probe-needing
    /// (oracle) estimator — silent UGAL-G → UGAL-L degradations.
    pub probe_fallbacks: u32,
    /// The active estimator's reading for the path that was chosen.
    pub q_chosen: u64,
    /// The oracle's ground-truth reading for the chosen path — what a
    /// perfect (UGAL-G) estimator would have reported.
    pub oracle_chosen: u64,
    /// The UGAL rule evaluated over the oracle's readings would have
    /// picked the other path.
    pub oracle_disagreed: bool,
    /// Oracle readings were taken for this decision; the engine's
    /// estimator-accuracy scoreboard only scores records with this set.
    pub oracle_scored: bool,
}

impl DecisionRecord {
    /// The record of an injection whose usual route shape was unusable
    /// because of a failed link, so the only surviving alternative was
    /// taken without comparing queues.
    pub fn fault_forced() -> Self {
        DecisionRecord {
            fault_avoided: true,
            dropped_candidates: 1,
            ..DecisionRecord::default()
        }
    }
}

/// A routing algorithm driving a [`crate::Simulation`].
///
/// The same object serves every router, so implementations hold only
/// immutable topology tables; all per-packet state travels in
/// [`RouteInfo`] / [`Flit`]. `Sync` is a supertrait: the sharded cycle
/// engine shares one algorithm reference across its worker threads
/// (any interior mutability must therefore be thread-safe).
pub trait RoutingAlgorithm: Sync {
    /// Algorithm name for reports, e.g. `"UGAL-L"`.
    fn name(&self) -> String;

    /// Decides the route class (and intermediate, and injection VC) for a
    /// packet about to enter the network at `src_term` destined for
    /// `dest_term`. Called at the source terminal, which is co-located
    /// with the source router; `view` provides the local (and, for
    /// idealised oracles, remote) queue state.
    fn inject(
        &self,
        view: &NetView<'_>,
        src_term: usize,
        dest_term: usize,
        rng: &mut SmallRng,
    ) -> RouteInfo;

    /// Like [`RoutingAlgorithm::inject`], but also reports per-decision
    /// telemetry. The engine calls this entry point; adaptive algorithms
    /// override it and implement `inject` as `inject_traced(..).0`.
    fn inject_traced(
        &self,
        view: &NetView<'_>,
        src_term: usize,
        dest_term: usize,
        rng: &mut SmallRng,
    ) -> (RouteInfo, DecisionRecord) {
        (
            self.inject(view, src_term, dest_term, rng),
            DecisionRecord::default(),
        )
    }

    /// Computes the output port and VC for `flit` currently buffered at
    /// `router`. Must be deterministic in `(router, flit)` so that every
    /// flit of a packet follows the same path.
    fn route(&self, view: &NetView<'_>, router: usize, flit: &Flit) -> PortVc;
}

/// One hop of a traced route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHop {
    /// Router the hop leaves from.
    pub router: usize,
    /// Output port taken.
    pub port: usize,
    /// Virtual channel on the outgoing channel.
    pub vc: usize,
    /// Channel class of the hop.
    pub class: ChannelClass,
}

/// Walks the exact path a packet with the given [`RouteInfo`] takes from
/// terminal `src` to terminal `dest` under `routing`, hop by hop, ending
/// with the ejection hop — the same deterministic computation the
/// simulator performs, exposed for debugging and validation on any
/// topology. The walk runs over an idle network (queue state empty), so
/// it exercises only the deterministic `route` path, never `inject`.
///
/// `hop_bound` should derive from the topology diameter (e.g. the
/// longest admissible non-minimal path plus the ejection hop).
///
/// # Errors
///
/// [`SimError::InvalidRoute`] if a terminal is out of range or the walk
/// ejects at the wrong terminal; [`SimError::RouteLoop`] if no ejection
/// occurs within `hop_bound` hops.
pub fn trace_path(
    spec: &NetworkSpec,
    routing: &dyn RoutingAlgorithm,
    src: usize,
    dest: usize,
    route: RouteInfo,
    hop_bound: usize,
) -> Result<Vec<TraceHop>, SimError> {
    if src >= spec.num_terminals() || dest >= spec.num_terminals() {
        return Err(SimError::InvalidRoute("terminal out of range".into()));
    }
    let cores: Vec<RouterCore> = Vec::new();
    let view = NetView::new(spec, &cores, 1, 0);
    let mut flit = Flit {
        packet: 0,
        src: src as u32,
        dest: dest as u32,
        route,
        created: 0,
        injected: 0,
        hops: 0,
        vc: route.injection_vc,
        is_head: true,
        is_tail: true,
        labeled: false,
        tag: 0,
    };
    let mut router = spec.terminal_router(src);
    let mut hops = Vec::new();
    for _ in 0..hop_bound {
        let pv = routing.route(&view, router, &flit);
        let port_spec = spec.routers[router].ports[pv.port as usize];
        hops.push(TraceHop {
            router,
            port: pv.port as usize,
            vc: pv.vc as usize,
            class: port_spec.class,
        });
        match port_spec.conn {
            Connection::Terminal { terminal } => {
                return if terminal as usize == dest {
                    Ok(hops)
                } else {
                    Err(SimError::InvalidRoute(format!(
                        "route ejected at terminal {terminal}, not {dest}"
                    )))
                };
            }
            Connection::Router { router: peer, .. } => {
                flit.hops += 1;
                flit.vc = pv.vc;
                router = peer as usize;
            }
        }
    }
    Err(SimError::RouteLoop {
        src,
        dest,
        bound: hop_bound,
    })
}

/// Deterministic shortest-path (table) routing with hop-indexed VCs.
///
/// Next hops are precomputed by BFS with lowest-index tie-breaking; the
/// VC is `min(hops, vcs-1)`, which suffices for deadlock freedom on
/// acyclic channel graphs (trees, stars, lines) and on any topology whose
/// BFS tables happen to be cycle-free. It is the engine's baseline
/// algorithm for tests and examples; real topologies provide their own
/// algorithms (see the `dragonfly` crate).
#[derive(Debug, Clone)]
pub struct ShortestPathRouting {
    /// `next_hop[router][dest_router]` = output port toward `dest_router`.
    next_hop: Vec<Vec<u16>>,
    /// Ejection port per terminal on its destination router.
    eject_port: Vec<u16>,
    vcs: usize,
}

impl ShortestPathRouting {
    /// Builds tables for `spec` by BFS from every router.
    ///
    /// # Panics
    ///
    /// Panics if the network is not connected (over alive links, when
    /// the spec carries faults); [`ShortestPathRouting::try_new`] is the
    /// non-panicking form.
    pub fn new(spec: &NetworkSpec) -> Self {
        match Self::try_new(spec) {
            Ok(r) => r,
            Err(SimError::Unreachable { src, dest }) => {
                panic!("network disconnected: router {src} cannot reach {dest}")
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds tables for `spec` by BFS from every router, skipping
    /// failed links.
    ///
    /// # Errors
    ///
    /// [`SimError::Unreachable`] (router-indexed) if some router cannot
    /// reach another over the alive links.
    pub fn try_new(spec: &NetworkSpec) -> Result<Self, SimError> {
        let n = spec.num_routers();
        // Reverse-BFS from each destination over alive router links.
        let mut next_hop = vec![vec![u16::MAX; n]; n];
        for dest in 0..n {
            // BFS from dest; next_hop[r][dest] = port of r on the first
            // edge of a shortest r -> dest path.
            let mut dist = vec![usize::MAX; n];
            dist[dest] = 0;
            let mut queue = std::collections::VecDeque::from([dest]);
            while let Some(u) = queue.pop_front() {
                // Look at routers v adjacent to u: v -> u edge means v can
                // reach dest through u (links are symmetric pairs, so the
                // reverse edge v -> u is alive iff u's port is).
                for port in spec.routers[u].ports.iter() {
                    if let Connection::Router { router, port: rp } = port.conn {
                        let v = router as usize;
                        if spec.is_failed(v, rp as usize) {
                            continue;
                        }
                        if dist[v] > dist[u] + 1 {
                            dist[v] = dist[u] + 1;
                            next_hop[v][dest] = rp as u16;
                            queue.push_back(v);
                        }
                    }
                }
            }
            for (r, row) in next_hop.iter().enumerate() {
                if r != dest && row[dest] == u16::MAX {
                    return Err(SimError::Unreachable { src: r, dest });
                }
            }
        }
        let eject_port = (0..spec.num_terminals())
            .map(|t| spec.terminal_port(t).1 as u16)
            .collect();
        Ok(ShortestPathRouting {
            next_hop,
            eject_port,
            vcs: spec.vcs,
        })
    }
}

impl RoutingAlgorithm for ShortestPathRouting {
    fn name(&self) -> String {
        "shortest path".into()
    }

    fn inject(
        &self,
        _view: &NetView<'_>,
        _src_term: usize,
        _dest_term: usize,
        _rng: &mut SmallRng,
    ) -> RouteInfo {
        RouteInfo::minimal()
    }

    fn route(&self, view: &NetView<'_>, router: usize, flit: &Flit) -> PortVc {
        let dest_router = view.spec().terminal_router(flit.dest as usize);
        if router == dest_router {
            return PortVc {
                port: self.eject_port[flit.dest as usize],
                vc: 0,
            };
        }
        PortVc {
            port: self.next_hop[router][dest_router],
            vc: (flit.hops as usize).min(self.vcs - 1) as u8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelClass, PortSpec, RouterSpec};

    /// A 3-router line: T0-R0 - R1 - R2-T1, plus T2 on R1.
    fn line_spec() -> NetworkSpec {
        let term = |t: u32| PortSpec {
            conn: Connection::Terminal { terminal: t },
            latency: 1,
            class: ChannelClass::Terminal,
        };
        let link = |r: u32, p: u32| PortSpec {
            conn: Connection::Router { router: r, port: p },
            latency: 1,
            class: ChannelClass::Local,
        };
        NetworkSpec::validated(
            vec![
                RouterSpec {
                    ports: vec![term(0), link(1, 0)],
                },
                RouterSpec {
                    ports: vec![link(0, 1), link(2, 0), term(2)],
                },
                RouterSpec {
                    ports: vec![link(1, 1), term(1)],
                },
            ],
            2,
        )
        .unwrap()
    }

    #[test]
    fn tables_point_along_the_line() {
        let spec = line_spec();
        let r = ShortestPathRouting::new(&spec);
        // Router 0 reaches router 2 via port 1 (toward router 1).
        assert_eq!(r.next_hop[0][2], 1);
        assert_eq!(r.next_hop[1][2], 1);
        assert_eq!(r.next_hop[2][0], 0);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_network_panics() {
        // Two isolated router pairs.
        let term = |t: u32| PortSpec {
            conn: Connection::Terminal { terminal: t },
            latency: 1,
            class: ChannelClass::Terminal,
        };
        let spec = NetworkSpec::validated(
            vec![
                RouterSpec {
                    ports: vec![term(0)],
                },
                RouterSpec {
                    ports: vec![term(1)],
                },
            ],
            1,
        )
        .unwrap();
        ShortestPathRouting::new(&spec);
    }

    #[test]
    fn try_new_routes_around_failed_links() {
        use crate::fault::FaultPlan;
        use crate::spec::tests::ring_spec;
        let spec = NetworkSpec::validated(ring_spec(4), 2).unwrap();
        // Fail the 0 <-> 1 link: router 0 must reach 1 the long way.
        let faulted = spec
            .clone()
            .with_faults(&FaultPlan::Explicit(vec![(0, 1)]))
            .unwrap();
        let r = ShortestPathRouting::try_new(&faulted).unwrap();
        // Port 2 is counter-clockwise (toward router 3).
        assert_eq!(r.next_hop[0][1], 2);
        let clean = ShortestPathRouting::try_new(&spec).unwrap();
        assert_eq!(clean.next_hop[0][1], 1);
    }

    #[test]
    fn injection_route_is_minimal_class() {
        let spec = line_spec();
        let r = ShortestPathRouting::new(&spec);
        let cores: Vec<RouterCore> = Vec::new();
        let view = NetView::new(&spec, &cores, 4, 0);
        let mut rng = dfly_traffic::rng_for(0, 0);
        let info = r.inject(&view, 0, 2, &mut rng);
        assert_eq!(info.class, crate::RouteClass::Minimal);
        assert_eq!(info.injection_vc, 0);
    }

    #[test]
    fn route_ejects_at_destination() {
        let spec = line_spec();
        let r = ShortestPathRouting::new(&spec);
        let cores: Vec<RouterCore> = Vec::new();
        let view = NetView::new(&spec, &cores, 4, 0);
        let flit = Flit {
            packet: 0,
            src: 0,
            dest: 2,
            route: RouteInfo::minimal(),
            created: 0,
            injected: 0,
            hops: 1,
            vc: 0,
            is_head: true,
            is_tail: true,
            labeled: false,
            tag: 0,
        };
        // Terminal 2 lives on router 1 port 2.
        let pv = r.route(&view, 1, &flit);
        assert_eq!(pv, PortVc::new(2, 0));
        // From router 0 it heads toward router 1 on VC min(hops, vcs-1).
        let pv = r.route(&view, 0, &flit);
        assert_eq!(pv, PortVc::new(1, 1));
    }

    /// Hostile routing over [`line_spec`]: every flit at router `r`
    /// leaves through port `self.0[r]`, whatever its destination.
    struct PortPerRouter([usize; 3]);
    impl RoutingAlgorithm for PortPerRouter {
        fn name(&self) -> String {
            "port-per-router".into()
        }
        fn inject(&self, _: &NetView<'_>, _: usize, _: usize, _: &mut SmallRng) -> RouteInfo {
            RouteInfo::minimal()
        }
        fn route(&self, _view: &NetView<'_>, router: usize, _flit: &Flit) -> PortVc {
            PortVc::new(self.0[router], 0)
        }
    }

    #[test]
    fn trace_path_rejects_out_of_range_and_misdelivered_routes() {
        let spec = line_spec();
        let r = ShortestPathRouting::new(&spec);
        for (src, dest) in [(3, 0), (0, 3)] {
            let err = trace_path(&spec, &r, src, dest, RouteInfo::minimal(), 8).unwrap_err();
            assert!(matches!(err, SimError::InvalidRoute(_)), "{err}");
        }
        // Router 0's port 0 ejects at terminal 0, not the requested 1.
        let eject_at_once = PortPerRouter([0, 0, 0]);
        let err = trace_path(&spec, &eject_at_once, 0, 1, RouteInfo::minimal(), 8).unwrap_err();
        assert!(matches!(err, SimError::InvalidRoute(_)), "{err}");
    }

    #[test]
    fn trace_path_reports_a_loop_with_the_bound_it_was_given() {
        // Router 0's port 1 and router 1's port 0 are the two ends of
        // one link, so the flit ping-pongs across it forever.
        let spec = line_spec();
        let ping_pong = PortPerRouter([1, 0, 0]);
        for bound in [1, 7] {
            let err = trace_path(&spec, &ping_pong, 0, 1, RouteInfo::minimal(), bound);
            let want = SimError::RouteLoop {
                src: 0,
                dest: 1,
                bound,
            };
            assert_eq!(err, Err(want));
        }
    }
}

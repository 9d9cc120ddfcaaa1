//! Simulating the k-ary n-cube torus on the same engine.
//!
//! The 3-D torus is the low-radix baseline of the paper's §5 cost study
//! (the Cray T3E generation the dragonfly displaced). This module wires
//! a [`dfly_topo::Torus`] into a [`dfly_netsim::NetworkSpec`] and
//! provides deterministic shortest-way dimension-order routing with the
//! classic *dateline* virtual-channel scheme, so the torus can be
//! compared behaviourally against the dragonfly.
//!
//! # Dateline VC assignment
//!
//! Each unidirectional ring breaks its channel-dependency cycle at a
//! dateline next to node 0: packets that still have to wrap around the
//! ring travel on VC0 and switch to VC1 after crossing; packets that
//! never wrap use VC1 outright. Within a ring the (channel, VC) order is
//! then acyclic, and dimension-order traversal makes it acyclic across
//! dimensions, so two VCs suffice for deadlock freedom.
//!
//! # Example
//!
//! ```
//! use dragonfly::torus_sim::{TorusNetwork, TorusRouting};
//! use dfly_topo::Torus;
//! use dfly_netsim::{SimConfig, Simulation};
//! use dfly_traffic::UniformRandom;
//!
//! let net = TorusNetwork::new(Torus::new(2, 4, 1));
//! let spec = net.build_spec();
//! let routing = TorusRouting::new(net.into());
//! let traffic = UniformRandom::new(spec.num_terminals());
//! let mut cfg = SimConfig::paper_default(0.1);
//! cfg.warmup = 200;
//! cfg.measure = 500;
//! let stats = Simulation::new(&spec, &routing, &traffic, cfg).unwrap().finish();
//! assert!(stats.drained);
//! ```

use dfly_netsim::{
    CandidatePath, CandidatePaths, ChannelClass, Connection, Flit, NetworkSpec, PortSpec, PortVc,
    RouteAlgebra, RouterSpec,
};
use dfly_topo::{Topology, Torus};
use rand::rngs::SmallRng;

use crate::network::{BfsFaults, NetRouting, NetTopology, SimNetwork};

/// A torus wired for cycle-accurate simulation.
pub type TorusNetwork = SimNetwork<TorusTopology>;

/// Dimension-order routing with dateline VCs: deterministic
/// shortest-way (`new`), or per packet a UGAL choice between the short
/// and the long way around the first differing dimension's ring
/// (`ugal`). Both directions use the dateline VC scheme, so the detour
/// stays deadlock-free. On an arity-2 torus (one shared channel per
/// dimension) no distinct long way exists and every mode degenerates to
/// shortest-way. Under faults long-way detours are disabled — riding a
/// fixed ring direction around dead links could ping-pong against the
/// BFS tables — and detour hops may cross datelines off the
/// dimension-order schedule.
pub type TorusRouting = NetRouting<TorusTopology>;

/// The torus's port map and ring arithmetic.
#[derive(Debug, Clone)]
pub struct TorusTopology(Torus);

impl From<Torus> for TorusTopology {
    fn from(torus: Torus) -> Self {
        TorusTopology(torus)
    }
}

impl std::ops::Deref for TorusTopology {
    type Target = Torus;

    fn deref(&self) -> &Torus {
        &self.0
    }
}

/// Dateline rule: while the remaining travel from ring position `x` to
/// `y` in direction `plus` must wrap past the dateline (next to node
/// 0), stay on VC0; afterwards (or if no wrap is needed) use VC1. The
/// rule is direction-generic, so the long way around keeps its ring
/// deadlock-free too.
fn dateline_vc(x: usize, y: usize, plus: bool) -> usize {
    let will_wrap = if plus { x > y } else { x < y };
    usize::from(!will_wrap)
}

impl TorusTopology {
    /// Network ports per dimension: a +/− pair, or one shared port for
    /// arity 2 where the two directions coincide.
    fn ports_per_dim(&self) -> usize {
        if self.0.arity() == 2 {
            1
        } else {
            2
        }
    }

    /// The port index for travelling in `dim`, direction `plus`.
    fn dir_port(&self, dim: usize, plus: bool) -> usize {
        let base = self.0.concentration() + dim * self.ports_per_dim();
        if self.0.arity() == 2 || plus {
            base
        } else {
            base + 1
        }
    }

    /// Inverse of [`dir_port`](Self::dir_port): the (dimension,
    /// direction) a network port travels in.
    fn port_dir(&self, port: usize) -> (usize, bool) {
        let off = port - self.0.concentration();
        let ppd = self.ports_per_dim();
        (off / ppd, self.0.arity() == 2 || off.is_multiple_of(ppd))
    }

    /// The first dimension in which routers `a` and `b` differ, their
    /// coordinates, and whether the short way around that ring travels
    /// + (ties travel +).
    fn first_ring(&self, a: usize, b: usize) -> (usize, Vec<usize>, Vec<usize>, bool) {
        let k = self.0.arity();
        let ca = self.0.coordinates(a);
        let cb = self.0.coordinates(b);
        let dim = (0..ca.len())
            .find(|&d| ca[d] != cb[d])
            .expect("distinct routers");
        let forward = (cb[dim] + k - ca[dim]) % k;
        (dim, ca, cb, forward <= k - forward)
    }

    /// One dimension-order hop from `router` toward terminal `dest`. A
    /// `detour` tag rides its direction until its dimension resolves;
    /// everything else travels the short way.
    fn ring_hop(&self, router: usize, dest: usize, detour: Option<u32>) -> PortVc {
        let c = self.0.concentration();
        let rd = dest / c;
        if router == rd {
            return PortVc::new(dest % c, 0);
        }
        let (dim, ca, cb, short_plus) = self.first_ring(router, rd);
        let plus = match detour {
            Some(tag) if tag as usize / 2 == dim => tag % 2 == 1,
            _ => short_plus,
        };
        PortVc::new(
            self.dir_port(dim, plus),
            dateline_vc(ca[dim], cb[dim], plus),
        )
    }

    /// The congestion-probe point for a ring traversal: the router
    /// midway along `travel` hops in `dim`/`plus` from `coords`, and
    /// its onward same-direction port.
    fn ring_midpoint(
        &self,
        coords: &[usize],
        dim: usize,
        plus: bool,
        travel: usize,
    ) -> (usize, usize) {
        let k = self.0.arity();
        let steps = travel / 2;
        let mut mid = coords.to_vec();
        mid[dim] = if plus {
            (coords[dim] + steps) % k
        } else {
            (coords[dim] + k - steps % k) % k
        };
        (self.0.router_index(&mid), self.dir_port(dim, plus))
    }
}

impl BfsFaults for TorusTopology {}

impl NetTopology for TorusTopology {
    /// Concentration ports, then per dimension the +direction port and
    /// (for arity > 2) the −direction port. All network channels are
    /// classed local — torus cables are short by construction.
    fn wire(&self, latency: u32) -> NetworkSpec {
        let c = self.0.concentration();
        let k = self.0.arity();
        let mut routers = Vec::with_capacity(self.0.num_routers());
        for r in 0..self.0.num_routers() {
            let coords = self.0.coordinates(r);
            let mut ports = Vec::new();
            for t in 0..c {
                ports.push(PortSpec {
                    conn: Connection::Terminal {
                        terminal: (r * c + t) as u32,
                    },
                    latency: 1,
                    class: ChannelClass::Terminal,
                });
            }
            for dim in 0..self.0.dimensions() {
                let wire = |delta_plus: bool| {
                    let mut c2 = coords.clone();
                    c2[dim] = if delta_plus {
                        (coords[dim] + 1) % k
                    } else {
                        (coords[dim] + k - 1) % k
                    };
                    let peer = self.0.router_index(&c2);
                    // The peer reaches us by travelling the opposite way.
                    PortSpec {
                        conn: Connection::Router {
                            router: peer as u32,
                            port: self.dir_port(dim, !delta_plus) as u32,
                        },
                        latency,
                        class: ChannelClass::Local,
                    }
                };
                ports.push(wire(true));
                if k > 2 {
                    ports.push(wire(false));
                }
            }
            routers.push(RouterSpec { ports });
        }
        NetworkSpec::validated(routers, 2).expect("torus wiring must validate")
    }

    /// One long-way ring (`k - 1` hops) plus minimal travel in every
    /// other dimension.
    fn hop_bound(&self) -> usize {
        let k = self.0.arity();
        (k - 1) + self.0.dimensions().saturating_sub(1) * (k / 2)
    }

    fn route(&self, router: usize, flit: &Flit) -> PortVc {
        self.ring_hop(router, flit.dest as usize, flit.route.intermediate())
    }

    /// The pair's single detour tag — deterministic, no draw.
    fn draw_tag(&self, router: usize, dest: usize, _salt: u32, _rng: &mut SmallRng) -> Option<u32> {
        (self.valiant_degree(router, dest) == 1).then(|| self.valiant_tag(router, dest, 0))
    }

    fn canon(&self, latency: u32, failed: &[(usize, usize)]) -> String {
        format!("network={:?} latency={latency} failed={failed:?}", self.0)
    }

    /// The dateline rule still picks the VC from the hop's ring
    /// direction; a detour hop in an already resolved dimension
    /// conservatively stays on VC0.
    fn fault_vc(&self, router: usize, target: usize, port: usize, _vc: usize) -> usize {
        let (dim, plus) = self.port_dir(port);
        let (x, y) = (
            self.0.coordinates(router)[dim],
            self.0.coordinates(target)[dim],
        );
        if x == y {
            0
        } else {
            dateline_vc(x, y, plus)
        }
    }
}

/// Closed-form routing algebra for the torus: coordinate arithmetic
/// (shortest-way dimension order with dateline VCs). The salt is
/// unused — there is exactly one channel per (router, dimension,
/// direction). The single Valiant tag, `dim * 2 + (direction is +)`,
/// names the long way around the first differing dimension's ring.
impl RouteAlgebra for TorusTopology {
    fn terminal_router(&self, terminal: usize) -> usize {
        terminal / self.0.concentration()
    }

    fn ejection_port(&self, terminal: usize) -> usize {
        terminal % self.0.concentration()
    }

    fn minimal_port(&self, router: usize, dest: usize, _salt: u32) -> PortVc {
        self.ring_hop(router, dest, None)
    }

    fn minimal_hops(&self, router: usize, dest: usize, _salt: u32) -> u32 {
        let k = self.0.arity();
        let ca = self.0.coordinates(router);
        let cb = self.0.coordinates(dest / self.0.concentration());
        (0..ca.len())
            .map(|d| {
                let f = (cb[d] + k - ca[d]) % k;
                f.min(k - f) as u32
            })
            .sum()
    }

    fn valiant_degree(&self, router: usize, dest: usize) -> usize {
        // Arity ≤ 2 folds both directions onto one shared channel:
        // there is no distinct long way to tag.
        usize::from(router != dest / self.0.concentration() && self.0.arity() > 2)
    }

    fn valiant_tag(&self, router: usize, dest: usize, i: usize) -> u32 {
        debug_assert_eq!(i, 0, "the torus has a single detour tag");
        let (dim, _, _, short_plus) = self.first_ring(router, dest / self.0.concentration());
        // The detour direction is the opposite of the short way.
        (dim * 2 + usize::from(!short_plus)) as u32
    }

    fn vc_count(&self) -> usize {
        2
    }
}

impl CandidatePaths for TorusTopology {
    /// Minimal candidate: the short way around the first differing
    /// dimension's ring, on its dateline VC; `hops` is the full
    /// Manhattan distance. The salt is unused — a torus has exactly one
    /// channel per (router, dimension, direction). The UGAL-G probe
    /// point is the same-direction channel at the router midway along
    /// the ring traversal — the bottleneck a ring path contends at.
    fn minimal_candidate(&self, router: usize, dest: usize, salt: u32) -> CandidatePath {
        let first = self.minimal_port(router, dest, salt);
        let hops = self.minimal_hops(router, dest, salt);
        let path = CandidatePath::new(first.port as usize, first.vc as usize, hops);
        let rd = dest / self.0.concentration();
        if router == rd {
            return path;
        }
        let k = self.0.arity();
        let (dim, ca, cb, plus) = self.first_ring(router, rd);
        let forward = (cb[dim] + k - ca[dim]) % k;
        let (mid, mid_port) = self.ring_midpoint(&ca, dim, plus, forward.min(k - forward));
        path.with_probe(mid, mid_port)
    }

    /// Non-minimal candidate: the long way around one ring.
    /// `intermediate` is the tag stored in the route, naming the detour
    /// dimension and travel direction; the remaining dimensions stay
    /// minimal.
    fn non_minimal_candidate(
        &self,
        router: usize,
        dest: usize,
        intermediate: u32,
        _salt: u32,
    ) -> CandidatePath {
        let k = self.0.arity();
        let ca = self.0.coordinates(router);
        let cb = self.0.coordinates(dest / self.0.concentration());
        let dim = intermediate as usize / 2;
        let plus = intermediate % 2 == 1;
        debug_assert_ne!(ca[dim], cb[dim], "detour dimension already resolved");
        let forward = (cb[dim] + k - ca[dim]) % k;
        // Travel in the tagged direction, which may be (and for a true
        // detour is) the long way around.
        let travel = if plus { forward } else { k - forward };
        let elsewhere: usize = (0..ca.len())
            .filter(|&d| d != dim)
            .map(|d| {
                let f = (cb[d] + k - ca[d]) % k;
                f.min(k - f)
            })
            .sum();
        let (mid, mid_port) = self.ring_midpoint(&ca, dim, plus, travel);
        CandidatePath::new(
            self.dir_port(dim, plus),
            dateline_vc(ca[dim], cb[dim], plus),
            (travel + elsewhere) as u32,
        )
        .with_probe(mid, mid_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UgalVariant;
    use dfly_netsim::{FaultPlan, RouteInfo, SimConfig, Simulation};
    use dfly_traffic::{Tornado, UniformRandom};
    use std::sync::Arc;

    fn fast_cfg(load: f64) -> SimConfig {
        let mut cfg = SimConfig::paper_default(load);
        cfg.warmup = 300;
        cfg.measure = 1_000;
        cfg.drain_cap = 30_000;
        cfg
    }

    #[test]
    fn spec_wires_and_validates() {
        for (dims, k, c) in [(1usize, 5usize, 2usize), (2, 4, 1), (3, 3, 2), (2, 2, 1)] {
            let net = TorusNetwork::new(Torus::new(dims, k, c));
            let spec = net.build_spec();
            assert_eq!(spec.num_routers(), k.pow(dims as u32), "k={k} dims={dims}");
            assert_eq!(
                spec.num_terminals(),
                c * k.pow(dims as u32),
                "k={k} dims={dims}"
            );
        }
    }

    #[test]
    fn uniform_traffic_delivers() {
        let net = Arc::new(TorusNetwork::new(Torus::new(2, 4, 1)));
        let spec = net.build_spec();
        let routing = TorusRouting::new(net);
        let pattern = UniformRandom::new(16);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.2))
            .unwrap()
            .finish();
        assert!(stats.drained);
        assert!((stats.accepted_rate - 0.2).abs() < 0.04);
    }

    #[test]
    fn ring_under_heavy_wraparound_load_does_not_deadlock() {
        // Tornado traffic on a ring maximises wraparound pressure: every
        // packet travels k/2-1 hops the same way. Without datelines this
        // load classically deadlocks; with them the run must drain.
        let net = Arc::new(TorusNetwork::new(Torus::new(1, 8, 1)));
        let spec = net.build_spec();
        let routing = TorusRouting::new(net);
        let pattern = Tornado::new(8);
        let mut cfg = fast_cfg(0.6);
        cfg.drain_cap = 60_000;
        let stats = Simulation::new(&spec, &routing, &pattern, cfg)
            .unwrap()
            .finish();
        assert!(stats.drained, "ring deadlocked or starved");
        assert!(stats.latency.count > 0);
    }

    #[test]
    fn latency_matches_manhattan_distance_at_zero_load() {
        let net = Arc::new(TorusNetwork::new(Torus::new(3, 4, 1)));
        let spec = net.build_spec();
        let routing = TorusRouting::new(net);
        let pattern = UniformRandom::new(64);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.01))
            .unwrap()
            .finish();
        assert!(stats.drained);
        // Max path: 3 dims * floor(4/2) hops + inject + eject = 8.
        assert!(stats.latency.max <= 10, "max {}", stats.latency.max);
        assert!(stats.latency.min >= 3);
    }

    #[test]
    fn ring_tornado_capacity_is_one_third() {
        // Tornado on an 8-ring: every packet rides 3 hops in the +
        // direction, so each + channel carries 3 nodes' traffic:
        // capacity = 1/3 of injection bandwidth.
        let net = Arc::new(TorusNetwork::new(Torus::new(1, 8, 1)));
        let spec = net.build_spec();
        let routing = TorusRouting::new(net);
        let pattern = Tornado::new(8);
        let mut cfg = fast_cfg(1.0);
        cfg.warmup = 1_000;
        cfg.measure = 2_000;
        cfg.drain_cap = 0;
        let stats = Simulation::new(&spec, &routing, &pattern, cfg)
            .unwrap()
            .finish();
        // Ideal is 1/3; ring arbitration (the parking-lot effect) costs
        // some of it in practice.
        assert!(
            (0.26..0.36).contains(&stats.accepted_rate),
            "tornado capacity {}",
            stats.accepted_rate
        );
    }

    #[test]
    fn arity_two_torus_works() {
        let net = Arc::new(TorusNetwork::new(Torus::new(3, 2, 1)));
        let spec = net.build_spec();
        let routing = TorusRouting::new(net);
        let pattern = UniformRandom::new(8);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.15))
            .unwrap()
            .finish();
        assert!(stats.drained);
    }

    #[test]
    fn dateline_rule_is_monotone() {
        // A packet's VC never goes from 1 back to 0 within a dimension:
        // walk routes hop by hop and check.
        let net = TorusNetwork::new(Torus::new(1, 9, 1));
        let spec = net.build_spec();
        for src in 0..9usize {
            for dest in 0..9usize {
                if src == dest {
                    continue;
                }
                let mut flit = dfly_netsim::Flit {
                    packet: 0,
                    src: src as u32,
                    dest: dest as u32,
                    route: RouteInfo::minimal(),
                    created: 0,
                    injected: 0,
                    hops: 0,
                    vc: 0,
                    is_head: true,
                    is_tail: true,
                    labeled: false,
                    tag: 0,
                };
                let mut at = src;
                let mut prev_vc = 0u8;
                let mut started = false;
                for _ in 0..9 {
                    let pv = net.topology().route(at, &flit);
                    match spec.routers[at].ports[pv.port as usize].conn {
                        Connection::Terminal { terminal } => {
                            assert_eq!(terminal as usize, dest);
                            break;
                        }
                        Connection::Router { router, .. } => {
                            if started {
                                assert!(pv.vc >= prev_vc, "{src}->{dest}: VC regressed at {at}");
                            }
                            started = true;
                            prev_vc = pv.vc;
                            flit.vc = pv.vc;
                            flit.hops += 1;
                            at = router as usize;
                        }
                    }
                }
                assert_eq!(at, dest, "{src}->{dest} did not arrive");
            }
        }
    }

    #[test]
    fn candidate_hops_count_short_and_long_way() {
        let net = TorusNetwork::new(Torus::new(1, 8, 1));
        // 0 -> 3: short way is +3 hops, long way is -5.
        let m = net.minimal_candidate(0, 3, 0);
        assert_eq!(m.hops, 3);
        assert_eq!(m.vc, 1, "no wrap ahead of +travel from 0 to 3");
        let nm = net.non_minimal_candidate(0, 3, 0, 0); // dim 0, - direction
        assert_eq!(nm.hops, 5);
        assert_eq!(nm.vc, 0, "the long way - from 0 wraps the dateline");
        assert_ne!(m.port, nm.port);
    }

    #[test]
    fn adaptive_takes_long_way_under_tornado_and_drains() {
        // Tornado at 0.4 exceeds the ring's 1/3 minimal capacity; UGAL
        // must spill onto the long way to keep up, and the run telemetry
        // must witness those decisions.
        let net = Arc::new(TorusNetwork::new(Torus::new(1, 8, 1)));
        let spec = net.build_spec();
        let routing = TorusRouting::ugal(net, UgalVariant::Local);
        let pattern = Tornado::new(8);
        let mut cfg = fast_cfg(0.4);
        cfg.drain_cap = 60_000;
        let stats = Simulation::new(&spec, &routing, &pattern, cfg)
            .unwrap()
            .finish();
        assert!(stats.drained, "adaptive ring starved under tornado");
        assert!(stats.routing.adaptive_decisions > 0);
        assert!(
            stats.routing.non_minimal_takes > 0,
            "UGAL never took the long way"
        );
        assert_eq!(
            stats.routing.minimal_takes + stats.routing.non_minimal_takes,
            stats.latency.count
        );
    }

    #[test]
    fn adaptive_stays_minimal_on_benign_traffic() {
        let net = Arc::new(TorusNetwork::new(Torus::new(2, 4, 1)));
        let spec = net.build_spec();
        let routing = TorusRouting::ugal(net, UgalVariant::Local);
        let pattern = UniformRandom::new(16);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.05))
            .unwrap()
            .finish();
        assert!(stats.drained);
        let rate = stats.routing.minimal_take_rate().unwrap();
        assert!(rate > 0.9, "minimal take rate {rate} at near-zero load");
    }

    #[test]
    fn ring_probes_sit_midway_along_the_traversal() {
        let net = TorusNetwork::new(Torus::new(1, 8, 1));
        // 0 -> 3 short way: 3 hops +, midpoint one step in at router 1.
        let m = net.minimal_candidate(0, 3, 0);
        assert_eq!(m.probe_router, 1);
        assert_eq!(m.probe_port as usize, net.topology().dir_port(0, true));
        // Long way: 5 hops −, midpoint two steps back at router 6.
        let nm = net.non_minimal_candidate(0, 3, 0, 0);
        assert_eq!(nm.probe_router, 6);
        assert_eq!(nm.probe_port as usize, net.topology().dir_port(0, false));
    }

    #[test]
    fn ugal_g_on_torus_has_no_probe_fallbacks() {
        let net = Arc::new(TorusNetwork::new(Torus::new(1, 8, 1)));
        let spec = net.build_spec();
        let routing = TorusRouting::ugal(net, UgalVariant::Global);
        let pattern = Tornado::new(8);
        let mut cfg = fast_cfg(0.3);
        cfg.drain_cap = 60_000;
        let stats = Simulation::new(&spec, &routing, &pattern, cfg)
            .unwrap()
            .finish();
        assert!(stats.drained);
        assert!(stats.routing.adaptive_decisions > 0);
        assert_eq!(
            stats.routing.oracle_probe_fallbacks, 0,
            "every ring candidate must carry a probe point"
        );
    }

    #[test]
    fn faulty_torus_delivers_uniform() {
        // Kill the (0,0) -> (1,0) +x cable: c = 1, so dir_port(0,+) = 1.
        let net = TorusNetwork::new(Torus::new(2, 4, 1))
            .with_fault_plan(&FaultPlan::Explicit(vec![(0, 1)]))
            .unwrap();
        assert!(net.has_faults());
        assert_eq!(net.failed_links().len(), 1);
        let spec = net.build_spec();
        assert!(spec.has_faults());
        let routing = TorusRouting::new(Arc::new(net));
        let pattern = UniformRandom::new(16);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.1))
            .unwrap()
            .finish();
        assert!(stats.drained, "faulty torus starved");
    }

    #[test]
    fn adaptive_torus_under_faults_stays_minimal_and_drains() {
        let net = TorusNetwork::new(Torus::new(1, 8, 1))
            .with_fault_plan(&FaultPlan::random_any(0.1, 3))
            .unwrap();
        assert!(net.has_faults());
        let spec = net.build_spec();
        let routing = TorusRouting::ugal(Arc::new(net), UgalVariant::Local);
        let pattern = UniformRandom::new(8);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.15))
            .unwrap()
            .finish();
        assert!(stats.drained);
        // Under faults every flit rides the BFS tables: no long-way tags.
        assert_eq!(stats.routing.non_minimal_takes, 0);
        assert_eq!(stats.routing.adaptive_decisions, 0);
    }
}

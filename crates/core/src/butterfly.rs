//! Simulating the flattened butterfly on the same engine.
//!
//! The flattened butterfly (Kim, Dally & Abts, ISCA 2007) is the
//! dragonfly's closest competitor and the baseline of the paper's §5
//! comparison. This module wires a [`dfly_topo::FlattenedButterfly`]
//! into a [`dfly_netsim::NetworkSpec`] and provides its routing family:
//! dimension-order minimal routing, Valiant through a random
//! intermediate router, and a UGAL-L adaptive choice between them —
//! so the two topologies can be compared *behaviourally*, not just on
//! cost.
//!
//! # VC assignment
//!
//! Dimension-order routing visits dimensions in ascending order, so its
//! channel dependencies are acyclic and one VC suffices; the Valiant
//! path is two dimension-order phases, the first on VC0 and the second
//! on VC1.
//!
//! # Example
//!
//! ```
//! use dragonfly::butterfly::{ButterflyNetwork, ButterflyRouting};
//! use dfly_topo::FlattenedButterfly;
//! use dfly_netsim::{SimConfig, Simulation};
//! use dfly_traffic::UniformRandom;
//!
//! let net = ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2));
//! let spec = net.build_spec();
//! let routing = ButterflyRouting::new(net.into());
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
use dfly_topo::{FlattenedButterfly, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::network::{valiant_phase, BfsFaults, NetRouting, NetTopology, SimNetwork};

/// A flattened butterfly wired for cycle-accurate simulation.
pub type ButterflyNetwork = SimNetwork<FbTopology>;

/// Routing for the flattened butterfly: dimension-order minimal
/// (`new`), Valiant through a uniformly random intermediate router, or
/// a UGAL choice between them — with
/// [`UgalVariant::CreditRoundTrip`](crate::UgalVariant) the estimator
/// the paper develops for the dragonfly, portable here through the
/// shared adaptive-routing layer.
pub type ButterflyRouting = NetRouting<FbTopology>;

/// The flattened butterfly's port map and dimension-order arithmetic.
#[derive(Debug, Clone)]
pub struct FbTopology {
    fb: FlattenedButterfly,
    /// First port offset of each dimension's channels (after the
    /// concentration ports).
    dim_base: Vec<usize>,
}

impl From<FlattenedButterfly> for FbTopology {
    fn from(fb: FlattenedButterfly) -> Self {
        let mut dim_base = Vec::with_capacity(fb.dimensions());
        let mut offset = fb.concentration();
        for &s in fb.dims() {
            dim_base.push(offset);
            offset += s - 1;
        }
        FbTopology { fb, dim_base }
    }
}

impl std::ops::Deref for FbTopology {
    type Target = FlattenedButterfly;

    fn deref(&self) -> &FlattenedButterfly {
        &self.fb
    }
}

impl FbTopology {
    /// The output port one dimension-ordered hop from `router` toward
    /// router `target`.
    fn next_toward(&self, router: usize, target: usize) -> usize {
        self.port_to(router, self.dor_next(router, target))
    }

    /// The port of `router` leading directly to `peer`, which must
    /// differ from `router` in exactly one dimension.
    fn port_to(&self, router: usize, peer: usize) -> usize {
        let ca = self.fb.coordinates(router);
        let cb = self.fb.coordinates(peer);
        let dim = (0..ca.len())
            .find(|&d| ca[d] != cb[d])
            .expect("distinct routers");
        debug_assert_eq!(self.fb.min_hops(router, peer), 1, "peer not adjacent");
        let them = cb[dim];
        let me = ca[dim];
        self.dim_base[dim] + if them < me { them } else { them - 1 }
    }

    /// The router reached through network port `port` of `router` (the
    /// inverse of [`FbTopology::port_to`]).
    fn peer_of(&self, router: usize, port: usize) -> usize {
        let coords = self.fb.coordinates(router);
        let dim = (0..self.fb.dimensions())
            .rfind(|&d| self.dim_base[d] <= port)
            .expect("port within network range");
        let within = port - self.dim_base[dim];
        let me = coords[dim];
        let them = if within < me { within } else { within + 1 };
        let mut c2 = coords.clone();
        c2[dim] = them;
        self.fb.router_index(&c2)
    }

    /// The next router on the dimension-order path from `router` toward
    /// `target` (fix the lowest differing dimension first).
    fn dor_next(&self, router: usize, target: usize) -> usize {
        let ca = self.fb.coordinates(router);
        let cb = self.fb.coordinates(target);
        let dim = (0..ca.len())
            .find(|&d| ca[d] != cb[d])
            .expect("router != target");
        let mut c2 = ca.clone();
        c2[dim] = cb[dim];
        self.fb.router_index(&c2)
    }
}

impl BfsFaults for FbTopology {}

impl NetTopology for FbTopology {
    const RESALT_DETOURS: bool = true;
    const DETOURS_UNDER_FAULTS: bool = true;

    /// Concentration ports first, then one fully connected port group
    /// per dimension. Dimension 0 channels are classed local
    /// (intra-cabinet), higher dimensions global.
    fn wire(&self, latency: u32) -> NetworkSpec {
        let c = self.fb.concentration();
        let mut routers = Vec::with_capacity(self.fb.num_routers());
        for r in 0..self.fb.num_routers() {
            let coords = self.fb.coordinates(r);
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
            for (dim, &s) in self.fb.dims().iter().enumerate() {
                for other in 0..s {
                    if other == coords[dim] {
                        continue;
                    }
                    let mut c2 = coords.clone();
                    c2[dim] = other;
                    let peer = self.fb.router_index(&c2);
                    ports.push(PortSpec {
                        conn: Connection::Router {
                            router: peer as u32,
                            port: self.port_to(peer, r) as u32,
                        },
                        latency,
                        class: if dim == 0 {
                            ChannelClass::Local
                        } else {
                            ChannelClass::Global
                        },
                    });
                }
            }
            routers.push(RouterSpec { ports });
        }
        NetworkSpec::validated(routers, 2).expect("butterfly wiring must validate")
    }

    /// Two dimension-order phases of at most one hop per dimension.
    fn hop_bound(&self) -> usize {
        2 * self.fb.dimensions()
    }

    fn route(&self, router: usize, flit: &Flit) -> PortVc {
        let c = self.fb.concentration();
        let dest = flit.dest as usize;
        let rd = dest / c;
        let (target, vc) = valiant_phase(router, rd, flit);
        if router == target {
            return PortVc::new(dest % c, 0);
        }
        PortVc::new(self.next_toward(router, target), vc)
    }

    /// A uniformly random router distinct from both endpoints.
    fn draw_tag(&self, router: usize, dest: usize, _salt: u32, rng: &mut SmallRng) -> Option<u32> {
        let rd = dest / self.fb.concentration();
        let n = self.fb.num_routers();
        if n < 3 {
            return None;
        }
        (0..8)
            .map(|_| rng.gen_range(0..n))
            .find(|&ri| ri != router && ri != rd)
            .map(|ri| ri as u32)
    }

    fn canon(&self, latency: u32, failed: &[(usize, usize)]) -> String {
        format!("network={:?} latency={latency} failed={failed:?}", self.fb)
    }
}

/// Closed-form routing algebra for the flattened butterfly: pure
/// coordinate arithmetic (dimension-order next hop, digit distance).
/// The salt is unused — there is exactly one channel per
/// (router, dimension, digit). The Valiant set is every third router.
impl RouteAlgebra for FbTopology {
    fn terminal_router(&self, terminal: usize) -> usize {
        terminal / self.fb.concentration()
    }

    fn ejection_port(&self, terminal: usize) -> usize {
        terminal % self.fb.concentration()
    }

    fn minimal_port(&self, router: usize, dest: usize, _salt: u32) -> PortVc {
        let rd = dest / self.fb.concentration();
        if router == rd {
            return PortVc::new(dest % self.fb.concentration(), 0);
        }
        PortVc::new(self.next_toward(router, rd), 0)
    }

    fn minimal_hops(&self, router: usize, dest: usize, _salt: u32) -> u32 {
        self.fb.min_hops(router, dest / self.fb.concentration()) as u32
    }

    fn valiant_degree(&self, router: usize, dest: usize) -> usize {
        let rd = dest / self.fb.concentration();
        if router == rd {
            return 0;
        }
        self.fb.num_routers() - 2
    }

    fn valiant_tag(&self, router: usize, dest: usize, i: usize) -> u32 {
        let rd = dest / self.fb.concentration();
        debug_assert_ne!(router, rd, "no detour within a router");
        let (lo, hi) = (router.min(rd), router.max(rd));
        let mut ri = i;
        if ri >= lo {
            ri += 1;
        }
        if ri >= hi {
            ri += 1;
        }
        ri as u32
    }

    fn vc_count(&self) -> usize {
        2
    }
}

/// The flattened butterfly's UGAL candidates: the dimension-order
/// minimal path and the two-phase Valiant path through intermediate
/// router `intermediate`. The salt is unused — the butterfly has exactly
/// one channel per (router, dimension, digit), so there is nothing to
/// pre-select.
///
/// As the oracle (UGAL-G) probe point each candidate reports its
/// bottleneck channel: for the minimal path the channel *after* the
/// first hop (where dimension-order traffic converges; the first-hop
/// channel itself for single-hop paths), for the Valiant path the
/// channel leaving the intermediate router toward the destination.
impl CandidatePaths for FbTopology {
    fn minimal_candidate(&self, router: usize, dest: usize, salt: u32) -> CandidatePath {
        let rd = dest / self.fb.concentration();
        let first = self.minimal_port(router, dest, salt);
        let port = first.port as usize;
        let path = CandidatePath::new(port, 0, self.minimal_hops(router, dest, salt));
        if router == rd {
            return path;
        }
        let mid = self.peer_of(router, port);
        if mid == rd {
            path.with_probe(router, port)
        } else {
            path.with_probe(mid, self.next_toward(mid, rd))
        }
    }

    fn non_minimal_candidate(
        &self,
        router: usize,
        dest: usize,
        intermediate: u32,
        _salt: u32,
    ) -> CandidatePath {
        let ri = intermediate as usize;
        let rd = dest / self.fb.concentration();
        debug_assert!(
            ri != router && ri != rd,
            "intermediate must be a third router"
        );
        let hops = (self.fb.min_hops(router, ri) + self.fb.min_hops(ri, rd)) as u32;
        CandidatePath::new(self.next_toward(router, ri), 0, hops)
            .with_probe(ri, self.next_toward(ri, rd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UgalVariant;
    use dfly_netsim::{FaultPlan, SimConfig, Simulation};
    use dfly_traffic::{rng_for, BitComplement, UniformRandom};
    use std::sync::Arc;

    fn net_2x4() -> Arc<ButterflyNetwork> {
        Arc::new(ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2)))
    }

    fn fast_cfg(load: f64) -> SimConfig {
        let mut cfg = SimConfig::paper_default(load);
        cfg.warmup = 300;
        cfg.measure = 1_000;
        cfg.drain_cap = 20_000;
        cfg
    }

    #[test]
    fn spec_wires_and_validates() {
        let net = net_2x4();
        let spec = net.build_spec();
        assert_eq!(spec.num_terminals(), 32);
        assert_eq!(spec.num_routers(), 16);
        // Radix: 2 terminals + 2 dims * 3 peers.
        assert_eq!(spec.routers[0].ports.len(), 8);
    }

    #[test]
    fn dor_walk_fixes_dimensions_in_order() {
        let net = net_2x4();
        // Router 0 (0,0) to router 15 (3,3): first hop fixes dim 0.
        let fb = net.topology();
        let next = fb.dor_next(0, 15);
        assert_eq!(fb.coordinates(next), vec![3, 0]);
        assert_eq!(fb.dor_next(next, 15), 15);
    }

    #[test]
    fn minimal_delivers_uniform() {
        let net = net_2x4();
        let spec = net.build_spec();
        let routing = ButterflyRouting::new(net);
        let pattern = UniformRandom::new(32);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.3))
            .unwrap()
            .finish();
        assert!(stats.drained);
        assert!((stats.accepted_rate - 0.3).abs() < 0.04);
        // Max minimal path: inject + 2 hops + eject.
        assert!(stats.latency.min >= 2);
    }

    #[test]
    fn valiant_and_ugal_deliver_adversarial() {
        // Bit complement concentrates load; all three algorithms must
        // still deliver at moderate load, with UGAL at least as good as
        // MIN in saturation throughput.
        let net = net_2x4();
        let spec = net.build_spec();
        let pattern = BitComplement::new(32);
        for (name, routing) in [
            ("FB-MIN", ButterflyRouting::new(net.clone())),
            ("FB-VAL", ButterflyRouting::valiant(net.clone())),
            (
                "FB-UGAL-L",
                ButterflyRouting::ugal(net.clone(), UgalVariant::Local),
            ),
        ] {
            let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.1))
                .unwrap()
                .finish();
            assert!(stats.drained, "{name} lost packets");
        }
    }

    #[test]
    fn ugal_tracks_min_on_uniform() {
        let net = net_2x4();
        let spec = net.build_spec();
        let pattern = UniformRandom::new(32);
        let min = ButterflyRouting::new(net.clone());
        let ugal = ButterflyRouting::ugal(net.clone(), UgalVariant::Local);
        let s_min = Simulation::new(&spec, &min, &pattern, fast_cfg(0.3))
            .unwrap()
            .finish();
        let s_ugal = Simulation::new(&spec, &ugal, &pattern, fast_cfg(0.3))
            .unwrap()
            .finish();
        assert!(s_min.drained && s_ugal.drained);
        let (a, b) = (s_min.avg_latency().unwrap(), s_ugal.avg_latency().unwrap());
        assert!((a - b).abs() < 3.0, "MIN {a} vs UGAL {b}");
    }

    #[test]
    fn intermediate_avoids_endpoints() {
        let net = net_2x4();
        let mut rng = rng_for(3, 0);
        for _ in 0..100 {
            // Terminal 10 sits on router 5.
            if let Some(ri) = net.topology().draw_tag(0, 10, 0, &mut rng) {
                assert_ne!(ri, 0);
                assert_ne!(ri, 5);
            }
        }
    }

    #[test]
    fn candidates_carry_probe_points() {
        let net = net_2x4();
        // Router 0 -> router 15 (terminal 30): the minimal path's
        // second hop leaves the mid router; the probe names it.
        let fb = net.topology();
        let m = net.minimal_candidate(0, 30, 0);
        let mid = fb.peer_of(0, m.port as usize);
        assert_eq!(m.probe_router as usize, mid);
        assert_eq!(
            m.probe_port as usize,
            fb.next_toward(mid, 15),
            "probe must sit on the mid router's onward channel"
        );
        // Single-hop minimal: the probe is the first channel itself.
        let direct = net.minimal_candidate(0, 2, 0);
        assert_eq!(direct.probe_router, 0);
        assert_eq!(direct.probe_port, direct.port);
        // Non-minimal via router 5: probed at the intermediate.
        let nm = net.non_minimal_candidate(0, 30, 5, 0);
        assert_eq!(nm.probe_router, 5);
        assert_eq!(nm.probe_port as usize, fb.next_toward(5, 15));
    }

    #[test]
    fn ugal_g_on_butterfly_has_no_probe_fallbacks() {
        let net = net_2x4();
        let spec = net.build_spec();
        let routing = ButterflyRouting::ugal(net, UgalVariant::Global);
        let pattern = BitComplement::new(32);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.2))
            .unwrap()
            .finish();
        assert!(stats.drained);
        assert!(stats.routing.adaptive_decisions > 0);
        assert_eq!(
            stats.routing.oracle_probe_fallbacks, 0,
            "every butterfly candidate must carry a probe point"
        );
    }

    #[test]
    fn faulty_butterfly_delivers_uniform() {
        let net = ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2))
            .with_fault_plan(&FaultPlan::random_any(0.1, 5))
            .unwrap();
        assert!(net.has_faults());
        assert!(!net.failed_links().is_empty());
        let spec = net.build_spec();
        assert!(spec.has_faults());
        let routing = ButterflyRouting::new(Arc::new(net));
        let pattern = UniformRandom::new(32);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.1))
            .unwrap()
            .finish();
        assert!(stats.drained, "faulty butterfly starved");
    }

    #[test]
    fn ugal_butterfly_under_faults_delivers() {
        let net = ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2))
            .with_fault_plan(&FaultPlan::random_any(0.1, 7))
            .unwrap();
        let spec = net.build_spec();
        let routing = ButterflyRouting::ugal(Arc::new(net), UgalVariant::Local);
        let pattern = UniformRandom::new(32);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.15))
            .unwrap()
            .finish();
        assert!(stats.drained, "faulty adaptive butterfly starved");
        assert_eq!(
            stats.routing.minimal_takes + stats.routing.non_minimal_takes,
            stats.latency.count
        );
    }
}

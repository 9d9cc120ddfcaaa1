//! Simulating the folded Clos (fat tree) on the same engine.
//!
//! The folded Clos is the incumbent the paper's cost study displaces
//! (the Cray BlackWidow network is the cited instance). This module
//! wires a [`dfly_topo::FoldedClos`] into a
//! [`dfly_netsim::NetworkSpec`] and provides the classic fat-tree
//! routing: a randomly chosen ascent to the lowest common ancestor rank
//! ("random up"), then a fully determined descent. Up/down routing is
//! deadlock-free with a single VC — every path uses all of its up
//! channels before any down channel, and both phases are rank-ordered.
//!
//! # Example
//!
//! ```
//! use dragonfly::clos_sim::{ClosNetwork, ClosRouting};
//! use dfly_topo::FoldedClos;
//! use dfly_netsim::{SimConfig, Simulation};
//! use dfly_traffic::UniformRandom;
//!
//! let net = ClosNetwork::new(FoldedClos::new(2, 8));
//! let spec = net.build_spec();
//! let routing = ClosRouting::new(net.into());
//! let traffic = UniformRandom::new(spec.num_terminals());
//! let mut cfg = SimConfig::paper_default(0.1);
//! cfg.warmup = 200;
//! cfg.measure = 500;
//! let stats = Simulation::new(&spec, &routing, &traffic, cfg).unwrap().finish();
//! assert!(stats.drained);
//! ```

use dfly_netsim::{
    CandidatePath, ChannelClass, Connection, Flit, NetworkSpec, PortSpec, PortVc, RouterSpec,
};
use dfly_topo::FoldedClos;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::network::{BfsFaults, NetRouting, NetTopology, SimNetwork};

/// A folded Clos wired for cycle-accurate simulation.
///
/// # Panics
///
/// Construction panics if the Clos has fewer than 2 levels (a single
/// switch has no network to simulate).
pub type ClosNetwork = SimNetwork<ClosTopology>;

/// Fat-tree routing: random-up / deterministic-down (`new`), or with
/// the leaf uplink chosen per packet between the salt-hashed one and a
/// random alternative by congestion estimate (`ugal`; the descent stays
/// deterministic, so deadlock freedom is untouched).
pub type ClosRouting = NetRouting<ClosTopology>;

/// The folded Clos's port map and digit arithmetic.
///
/// Switches below the top rank are indexed by `levels - 1` digits in
/// base `k/2`; uplink `u` at rank `l` leads to the rank-`l+1` switch
/// with digit `l` replaced by `u`. The top rank is halved, each real
/// switch absorbing two virtual ones (differing in digit 0), with all
/// `k` ports pointing down. When `k/2` is odd (e.g. radix 6) the
/// virtual count is odd too, and the last real top switch absorbs a
/// single virtual, using only its parity-0 half of the down ports.
#[derive(Debug, Clone)]
pub struct ClosTopology {
    clos: FoldedClos,
    /// First global router index of each rank.
    rank_base: Vec<usize>,
}

impl From<FoldedClos> for ClosTopology {
    fn from(clos: FoldedClos) -> Self {
        assert!(clos.levels() >= 2, "need >= 2 ranks to have a network");
        let mut rank_base = Vec::with_capacity(clos.levels());
        let mut base = 0;
        for l in 0..clos.levels() {
            rank_base.push(base);
            base += clos.switches_at(l);
        }
        ClosTopology { clos, rank_base }
    }
}

impl std::ops::Deref for ClosTopology {
    type Target = FoldedClos;

    fn deref(&self) -> &FoldedClos {
        &self.clos
    }
}

impl ClosTopology {
    /// Number of virtual top switches (the switch count of every rank
    /// below the top).
    fn virtual_tops(&self) -> usize {
        self.clos.switches_at(0)
    }

    /// Half the switch radix: terminals per leaf, up/down port split.
    fn half(&self) -> usize {
        self.clos.switch_radix() / 2
    }

    /// `(rank, index-within-rank)` of a global router id.
    fn rank_of(&self, router: usize) -> (usize, usize) {
        let rank = self
            .rank_base
            .iter()
            .rposition(|&b| b <= router)
            .expect("router in range");
        (rank, router - self.rank_base[rank])
    }

    /// Digit `d` (base `k/2`) of a below-top switch index.
    fn digit(&self, s: usize, d: usize) -> usize {
        (s / self.half().pow(d as u32)) % self.half()
    }

    /// `s` with digit `d` replaced by `val`.
    fn with_digit(&self, s: usize, d: usize, val: usize) -> usize {
        let place = self.half().pow(d as u32);
        s - self.digit(s, d) * place + val * place
    }

    /// Whether switch `s` (below top, at `rank`) sits above the leaf
    /// `leaf`'s descent path: they agree on all digits at positions
    /// `>= rank`.
    fn above(&self, s: usize, rank: usize, leaf: usize) -> bool {
        (rank..self.clos.levels() - 1).all(|d| self.digit(s, d) == self.digit(leaf, d))
    }

    /// Salt-derived uplink choice at `rank` (stable per packet).
    fn pick_up(&self, salt: u32, rank: usize) -> usize {
        let mut z = (salt as u64) ^ ((rank as u64) << 40) ^ 0xD1B5_4A32_D192_ED03;
        z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z ^= z >> 33;
        (z as usize) % self.half()
    }

    /// Salt-derived virtual parity at the top rank.
    fn pick_parity(&self, salt: u32) -> usize {
        (salt as usize >> 7) & 1
    }

    /// The random-up / deterministic-down first hop from `router`
    /// toward terminal `dest`: ascend on the salt-hashed uplink until
    /// above the destination leaf, then descend by digits.
    fn minimal_port(&self, router: usize, dest: usize, salt: u32) -> PortVc {
        let half = self.half();
        let leaf = dest / half;
        let (rank, s) = self.rank_of(router);
        let levels = self.clos.levels();
        if rank + 1 == levels {
            // Top: descend toward the virtual that exists on this
            // switch; both virtuals work (their differing digit is
            // rewritten on the way down), pick by salt for balance. An
            // odd-half tail switch only hosts its parity-0 virtual.
            let parity = if 2 * s + 1 < self.virtual_tops() {
                self.pick_parity(salt)
            } else {
                0
            };
            return PortVc::new(parity * half + self.digit(leaf, levels - 2), 0);
        }
        if rank == 0 && s == leaf {
            return PortVc::new(dest % half, 0);
        }
        if rank > 0 && self.above(s, rank, leaf) {
            // Descend: set digit rank-1 to the destination's.
            return PortVc::new(self.digit(leaf, rank - 1), 0);
        }
        // Ascend on the salt-chosen uplink (random-up).
        PortVc::new(half + self.pick_up(salt, rank), 0)
    }

    /// Router-to-router hops of the up/down path from leaf `leaf` to
    /// leaf `dest_leaf`: twice the ascent height, which depends only on
    /// the highest differing index digit (every uplink choice yields the
    /// same length).
    fn min_hops_from_leaf(&self, leaf: usize, dest_leaf: usize) -> u32 {
        let levels = self.clos.levels();
        for height in 1..levels {
            if (height..levels - 1).all(|d| self.digit(leaf, d) == self.digit(dest_leaf, d)) {
                return 2 * height as u32;
            }
        }
        2 * (levels - 1) as u32
    }
}

impl BfsFaults for ClosTopology {}

impl NetTopology for ClosTopology {
    /// Leaves: ports `[0, k/2)` terminals, `[k/2, k)` up. Interior
    /// ranks: `[0, k/2)` down, `[k/2, k)` up. Top rank: all `k` ports
    /// down — `[0, k/2)` for its even virtual, `[k/2, k)` for its odd
    /// one (the last top switch has only the parity-0 block when the
    /// virtual count is odd). Leaf uplinks are classed local
    /// (intra-pod), higher ranks global.
    fn wire(&self, latency: u32) -> NetworkSpec {
        let half = self.half();
        let levels = self.clos.levels();
        let mut routers: Vec<RouterSpec> = Vec::with_capacity(self.clos.num_routers());
        // Pre-create empty specs, then fill by wiring each uplink pair.
        // Every rank uses all k ports (leaves: k/2 terminals + k/2 up;
        // interior: k/2 down + k/2 up; top: k down — except an odd-half
        // tail top switch, which only has its parity-0 k/2 block).
        // Placeholders are overwritten below; any survivor fails
        // validation.
        for l in 0..levels {
            for s in 0..self.clos.switches_at(l) {
                let np = if l + 1 == levels && 2 * s + 1 >= self.virtual_tops() {
                    half
                } else {
                    self.clos.switch_radix()
                };
                routers.push(RouterSpec {
                    ports: vec![
                        PortSpec {
                            conn: Connection::Terminal { terminal: 0 },
                            latency: 1,
                            class: ChannelClass::Terminal,
                        };
                        np
                    ],
                });
            }
        }
        // Terminals on the leaves.
        for (leaf, router) in routers
            .iter_mut()
            .enumerate()
            .take(self.clos.switches_at(0))
        {
            for t in 0..half {
                router.ports[t] = PortSpec {
                    conn: Connection::Terminal {
                        terminal: (leaf * half + t) as u32,
                    },
                    latency: 1,
                    class: ChannelClass::Terminal,
                };
            }
        }
        // Uplinks rank by rank.
        for l in 0..levels - 1 {
            let top = l + 2 == levels;
            let class = if l == 0 {
                ChannelClass::Local
            } else {
                ChannelClass::Global
            };
            for s in 0..self.clos.switches_at(l) {
                let me = self.rank_base[l] + s;
                for u in 0..half {
                    let my_port = half + u;
                    let v = self.with_digit(s, l, u);
                    let (peer, peer_port) = if top {
                        // Real top switch v/2; its down port block for
                        // virtual parity v%2, slot = digit l of s.
                        (
                            self.rank_base[l + 1] + v / 2,
                            (v % 2) * half + self.digit(s, l),
                        )
                    } else {
                        (self.rank_base[l + 1] + v, self.digit(s, l))
                    };
                    routers[me].ports[my_port] = PortSpec {
                        conn: Connection::Router {
                            router: peer as u32,
                            port: peer_port as u32,
                        },
                        latency,
                        class,
                    };
                    routers[peer].ports[peer_port] = PortSpec {
                        conn: Connection::Router {
                            router: me as u32,
                            port: my_port as u32,
                        },
                        latency,
                        class,
                    };
                }
            }
        }
        NetworkSpec::validated(routers, 1).expect("folded Clos wiring must validate")
    }

    /// Up to the top rank and back down.
    fn hop_bound(&self) -> usize {
        2 * (self.clos.levels() - 1)
    }

    fn terminal_router(&self, terminal: usize) -> usize {
        terminal / self.half()
    }

    fn ejection_port(&self, terminal: usize) -> usize {
        terminal % self.half()
    }

    /// The random-up / deterministic-down walk, except that at its
    /// source leaf an adaptive packet takes the alternative uplink it
    /// committed to (carried as the route's non-minimal tag).
    fn route(&self, router: usize, flit: &Flit) -> PortVc {
        let half = self.half();
        let dest = flit.dest as usize;
        if let Some(uplink) = flit.route.intermediate() {
            if router < self.rank_base[1] && router != dest / half {
                return PortVc::new(half + uplink as usize, 0);
            }
        }
        self.minimal_port(router, dest, flit.route.salt)
    }

    /// The salt-hashed uplink the oblivious random-up rule would take.
    /// Every uplink at a leaf starts an equal-length up/down path, so
    /// the two candidates differ only in which leaf uplink they commit
    /// to.
    fn minimal_candidate(&self, router: usize, dest: usize, salt: u32) -> CandidatePath {
        debug_assert_eq!(self.rank_of(router).0, 0, "decisions happen at leaves");
        let leaf = dest / self.half();
        let hops = if router == leaf {
            0
        } else {
            self.min_hops_from_leaf(router, leaf)
        };
        let first = self.minimal_port(router, dest, salt);
        CandidatePath::new(first.port as usize, first.vc as usize, hops)
    }

    /// The alternative uplink `intermediate`: an adaptive spread over the
    /// full bisection driven by whichever congestion estimator the
    /// chooser carries.
    fn non_minimal_candidate(
        &self,
        router: usize,
        dest: usize,
        intermediate: u32,
        _salt: u32,
    ) -> CandidatePath {
        let half = self.half();
        let leaf = dest / half;
        debug_assert_eq!(self.rank_of(router).0, 0, "decisions happen at leaves");
        debug_assert_ne!(router, leaf, "no alternative path within a leaf");
        CandidatePath::new(
            half + intermediate as usize,
            0,
            self.min_hops_from_leaf(router, leaf),
        )
    }

    /// An alternative leaf uplink, uniform over the ones the salt hash
    /// did not pick.
    fn draw_tag(&self, _router: usize, _dest: usize, salt: u32, rng: &mut SmallRng) -> Option<u32> {
        let half = self.half();
        if half < 2 {
            return None;
        }
        let hashed = self.pick_up(salt, 0);
        let alternative = rng.gen_range(0..half - 1);
        Some((alternative + usize::from(alternative >= hashed)) as u32)
    }

    fn canon(&self, latency: u32, failed: &[(usize, usize)]) -> String {
        format!(
            "network={:?} latency={latency} failed={failed:?}",
            self.clos
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UgalVariant;
    use dfly_netsim::{FaultPlan, SimConfig, Simulation};
    use dfly_traffic::{Permutation, UniformRandom};
    use std::sync::Arc;

    fn fast_cfg(load: f64) -> SimConfig {
        let mut cfg = SimConfig::paper_default(load);
        cfg.warmup = 300;
        cfg.measure = 1_000;
        cfg.drain_cap = 30_000;
        cfg
    }

    #[test]
    fn specs_wire_for_two_and_three_levels() {
        for levels in [2usize, 3] {
            let net = ClosNetwork::new(FoldedClos::new(levels, 8));
            let spec = net.build_spec();
            assert_eq!(
                spec.num_terminals(),
                net.topology().num_terminals(),
                "levels={levels}"
            );
        }
    }

    #[test]
    fn rank_of_inverts_the_rank_layout() {
        let net = ClosTopology::from(FoldedClos::new(3, 8));
        // Ranks: 16 leaves, 16 mid, 8 top.
        assert_eq!(net.rank_of(0), (0, 0));
        assert_eq!(net.rank_of(15), (0, 15));
        assert_eq!(net.rank_of(16), (1, 0));
        assert_eq!(net.rank_of(31), (1, 15));
        assert_eq!(net.rank_of(32), (2, 0));
        assert_eq!(net.rank_of(39), (2, 7));
    }

    #[test]
    fn smallest_radix_clos_works() {
        let net = Arc::new(ClosNetwork::new(FoldedClos::new(2, 4)));
        let spec = net.build_spec();
        assert_eq!(spec.num_terminals(), 4);
        let routing = ClosRouting::new(net);
        let pattern = UniformRandom::new(4);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.2))
            .unwrap()
            .finish();
        assert!(stats.drained);
    }

    #[test]
    fn uniform_traffic_delivers() {
        let net = Arc::new(ClosNetwork::new(FoldedClos::new(3, 8)));
        let spec = net.build_spec();
        let routing = ClosRouting::new(net);
        let pattern = UniformRandom::new(spec.num_terminals());
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.2))
            .unwrap()
            .finish();
        assert!(stats.drained);
        assert!((stats.accepted_rate - 0.2).abs() < 0.04);
    }

    #[test]
    fn zero_load_latency_is_up_and_down() {
        let net = Arc::new(ClosNetwork::new(FoldedClos::new(3, 8)));
        let spec = net.build_spec();
        let routing = ClosRouting::new(net);
        let pattern = UniformRandom::new(spec.num_terminals());
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.01))
            .unwrap()
            .finish();
        assert!(stats.drained);
        // Worst: up 2 + down 2 + inject + eject = 6; best same-leaf = 2.
        assert!(stats.latency.max <= 8, "max {}", stats.latency.max);
        assert!(stats.latency.min >= 2);
    }

    #[test]
    fn full_bisection_handles_permutations_at_high_load() {
        // The defining fat-tree property: any permutation at high load
        // drains (random-up spreads it over the full bisection).
        let net = Arc::new(ClosNetwork::new(FoldedClos::new(2, 8)));
        let spec = net.build_spec();
        let routing = ClosRouting::new(net);
        let mut rng = dfly_traffic::rng_for(11, 0);
        let pattern = Permutation::random(spec.num_terminals(), &mut rng);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.6))
            .unwrap()
            .finish();
        assert!(
            stats.drained,
            "fat tree should sustain 0.6 on a permutation"
        );
    }

    #[test]
    fn adaptive_up_delivers_and_reports_decisions() {
        let net = Arc::new(ClosNetwork::new(FoldedClos::new(3, 8)));
        let spec = net.build_spec();
        let routing = ClosRouting::ugal(net, UgalVariant::Local);
        let pattern = UniformRandom::new(spec.num_terminals());
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.3))
            .unwrap()
            .finish();
        assert!(stats.drained);
        assert!((stats.accepted_rate - 0.3).abs() < 0.04);
        // Cross-leaf packets all ran the adaptive uplink comparison.
        assert!(stats.routing.adaptive_decisions > 0);
        assert_eq!(
            stats.routing.minimal_takes + stats.routing.non_minimal_takes,
            stats.latency.count
        );
    }

    #[test]
    fn min_hops_from_leaf_matches_observed_latency_bounds() {
        let net = ClosTopology::from(FoldedClos::new(3, 8));
        // Same mid-rank pod (digit 1 equal): up 1, down 1.
        assert_eq!(net.min_hops_from_leaf(0, 1), 2);
        // Different pods: up 2 to the top, down 2.
        assert_eq!(net.min_hops_from_leaf(0, 15), 4);
        let two = ClosTopology::from(FoldedClos::new(2, 8));
        assert_eq!(two.min_hops_from_leaf(0, 3), 2);
    }

    #[test]
    fn same_leaf_traffic_never_leaves_the_leaf() {
        let net = Arc::new(ClosNetwork::new(FoldedClos::new(2, 8)));
        let spec = net.build_spec();
        let routing = ClosRouting::new(net);
        // Terminals 0..4 live on leaf 0; shift within the leaf.
        #[derive(Debug)]
        struct IntraLeaf;
        impl dfly_traffic::TrafficPattern for IntraLeaf {
            fn num_terminals(&self) -> usize {
                16
            }
            fn destination(&self, source: usize, _rng: &mut SmallRng) -> usize {
                (source / 4) * 4 + (source + 1) % 4
            }
        }
        let stats = Simulation::new(&spec, &routing, &IntraLeaf, fast_cfg(0.5))
            .unwrap()
            .finish();
        assert!(stats.drained);
        // No network channel carries anything: all traffic ejects at the
        // ingress leaf.
        for load in &stats.channel_loads {
            assert_eq!(load.flits, 0, "channel {:?} carried traffic", load);
        }
        assert_eq!(stats.latency.min, 2);
    }

    #[test]
    fn odd_half_radix_six_wires_and_delivers() {
        // radix 6 → odd k/2: the last top switch absorbs a single
        // virtual and exposes only 3 down ports.
        let net = Arc::new(ClosNetwork::new(FoldedClos::new(2, 6)));
        let spec = net.build_spec();
        assert_eq!(spec.num_terminals(), 9);
        assert_eq!(spec.num_routers(), 5);
        assert_eq!(spec.routers[3].ports.len(), 6);
        assert_eq!(spec.routers[4].ports.len(), 3);
        let routing = ClosRouting::new(net);
        let pattern = UniformRandom::new(9);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.02))
            .unwrap()
            .finish();
        assert!(stats.drained);
        // Up 1, down 1, plus inject and eject, with near-zero queueing.
        assert!(stats.latency.max <= 6, "max {}", stats.latency.max);
    }

    #[test]
    fn odd_half_three_levels_deliver() {
        let net = Arc::new(ClosNetwork::new(FoldedClos::new(3, 6)));
        let spec = net.build_spec();
        assert_eq!(spec.num_terminals(), 27);
        let routing = ClosRouting::new(net);
        let pattern = UniformRandom::new(27);
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.15))
            .unwrap()
            .finish();
        assert!(stats.drained);
    }

    #[test]
    fn faulty_clos_delivers_uniform() {
        let net = ClosNetwork::new(FoldedClos::new(3, 8))
            .with_fault_plan(&FaultPlan::random_any(0.05, 9))
            .unwrap();
        assert!(net.has_faults());
        assert!(!net.failed_links().is_empty());
        let spec = net.build_spec();
        assert!(spec.has_faults());
        let routing = ClosRouting::new(Arc::new(net));
        let pattern = UniformRandom::new(spec.num_terminals());
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.1))
            .unwrap()
            .finish();
        assert!(stats.drained, "faulty Clos starved");
    }

    #[test]
    fn adaptive_clos_under_faults_stays_minimal_and_drains() {
        let net = ClosNetwork::new(FoldedClos::new(2, 8))
            .with_fault_plan(&FaultPlan::random_any(0.05, 4))
            .unwrap();
        let spec = net.build_spec();
        let routing = ClosRouting::ugal(Arc::new(net), UgalVariant::Local);
        let pattern = UniformRandom::new(spec.num_terminals());
        let stats = Simulation::new(&spec, &routing, &pattern, fast_cfg(0.1))
            .unwrap()
            .finish();
        assert!(stats.drained);
        // Under faults every flit rides the BFS tables: no uplink tags.
        assert_eq!(stats.routing.non_minimal_takes, 0);
        assert_eq!(stats.routing.adaptive_decisions, 0);
    }
}

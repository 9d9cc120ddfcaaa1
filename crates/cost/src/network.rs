//! Whole-network cost roll-ups for the Figure 19 comparison.
//!
//! Every topology is normalised to the same per-node injection
//! bandwidth: each ordinary channel carries `channel_gbps`, and the 3-D
//! torus — whose narrow links would otherwise give it far less capacity
//! — gets its links widened by the bisection factor `k/8` so that all
//! four networks deliver comparable uniform throughput. Router silicon
//! is priced per Gb/s of pin bandwidth, cables via the §2 cost-versus-
//! length models over the [`Floorplan`] geometry.

use dfly_topo::{FlattenedButterfly, FoldedClos, Topology, Torus};
use dragonfly::{Dragonfly, DragonflyParams};

use crate::cable::CableCostModel;
use crate::packaging::Floorplan;

/// A requested network size that no topology in the radix budget can
/// realise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizingError {
    /// Requested terminal count.
    pub terminals: usize,
    /// Largest terminal count the sizing rule can reach.
    pub max_terminals: usize,
    /// Human description of the exhausted design rule.
    pub rule: &'static str,
}

impl std::fmt::Display for SizingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "network of {} terminals exceeds the {} (max {} terminals)",
            self.terminals, self.rule, self.max_terminals
        )
    }
}

impl std::error::Error for SizingError {}

/// Cost-model parameters shared by all topologies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConfig {
    /// Bandwidth of one ordinary channel (and per-node injection
    /// bandwidth), Gb/s.
    pub channel_gbps: f64,
    /// Router silicon + packaging cost per Gb/s of pin bandwidth.
    pub router_cost_per_gbps: f64,
    /// Nodes packaged per cabinet.
    pub nodes_per_cabinet: usize,
    /// Router radix budget for the high-radix topologies.
    pub router_radix: usize,
    /// Nodes per dragonfly group (the paper uses 512).
    pub dragonfly_group: usize,
    /// Cable cost-versus-length model.
    pub cables: CableCostModel,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            channel_gbps: 5.0,
            router_cost_per_gbps: 0.10,
            nodes_per_cabinet: 512,
            router_radix: 64,
            dragonfly_group: 512,
            cables: CableCostModel::default(),
        }
    }
}

/// Aggregated cable statistics of one network.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CableStats {
    /// Intra-cabinet board/backplane channels.
    pub board: usize,
    /// Electrical cables (above 0 m, at most the electrical limit).
    pub electrical: usize,
    /// Active optical cables.
    pub optical: usize,
    /// Sum of cable lengths in metres (boards count 0).
    pub total_length_m: f64,
    /// Aggregate bandwidth over board channels, Gb/s.
    pub board_gbps: f64,
    /// Aggregate bandwidth over electrical cables, Gb/s.
    pub electrical_gbps: f64,
    /// Aggregate bandwidth over optical cables, Gb/s.
    pub optical_gbps: f64,
}

impl CableStats {
    /// Total channel count.
    pub fn count(&self) -> usize {
        self.board + self.electrical + self.optical
    }

    /// Mean cable length over *inter-cabinet* cables, metres.
    pub fn mean_cable_length_m(&self) -> f64 {
        let cables = self.electrical + self.optical;
        if cables == 0 {
            0.0
        } else {
            self.total_length_m / cables as f64
        }
    }
}

/// The priced bill of materials of one network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkCost {
    /// Topology name.
    pub topology: String,
    /// Terminals actually provided (at least the requested size).
    pub terminals: usize,
    /// Router count.
    pub routers: usize,
    /// Router cost in dollars.
    pub router_cost: f64,
    /// Aggregate router pin bandwidth, Gb/s (for the power model).
    pub router_gbps: f64,
    /// Cable cost in dollars.
    pub cable_cost: f64,
    /// Cable statistics.
    pub cables: CableStats,
}

impl NetworkCost {
    /// Total network cost.
    pub fn total(&self) -> f64 {
        self.router_cost + self.cable_cost
    }

    /// Cost per terminal — the y-axis of Figure 19.
    pub fn per_node(&self) -> f64 {
        self.total() / self.terminals as f64
    }
}

/// Accumulates channels into costs and statistics.
struct Pricer<'a> {
    cfg: &'a CostConfig,
    floor: Floorplan,
    stats: CableStats,
    cable_cost: f64,
}

impl<'a> Pricer<'a> {
    fn new(cfg: &'a CostConfig, nodes: usize) -> Self {
        Pricer {
            cfg,
            floor: Floorplan::new(cfg.nodes_per_cabinet, nodes),
            stats: CableStats::default(),
            cable_cost: 0.0,
        }
    }

    /// Adds one bidirectional channel between the cabinets of `node_a`
    /// and `node_b` carrying `gbps`.
    fn add_between_nodes(&mut self, node_a: usize, node_b: usize, gbps: f64) {
        let len = self.floor.node_cable_length_m(node_a, node_b);
        self.add_length(len, gbps);
    }

    /// Adds one channel of an explicit length.
    fn add_length(&mut self, len_m: f64, gbps: f64) {
        if len_m <= 0.0 {
            self.stats.board += 1;
            self.stats.board_gbps += gbps;
        } else if len_m <= self.cfg.cables.electrical_max_m {
            self.stats.electrical += 1;
            self.stats.electrical_gbps += gbps;
            self.stats.total_length_m += len_m;
        } else {
            self.stats.optical += 1;
            self.stats.optical_gbps += gbps;
            self.stats.total_length_m += len_m;
        }
        self.cable_cost += self.cfg.cables.cable(len_m) * gbps;
    }
}

impl CostConfig {
    /// Prices a dragonfly of at least `n` terminals: radix-budget
    /// routers, `dragonfly_group` nodes per group, fully connected
    /// groups, offset-ring global channels (§5: "for the dragonfly
    /// network we use a group size of 512 nodes").
    ///
    /// # Panics
    ///
    /// Panics if `n` is smaller than two groups' worth of nodes or too
    /// large for the radix budget.
    pub fn dragonfly(&self, n: usize) -> NetworkCost {
        // Up to the reach of a single fully connected stage the dragonfly
        // *is* a 1-D flattened butterfly and the two cost the same (§5).
        let c1 = self.router_radix / 2;
        if n <= c1 * (self.router_radix - c1 + 1) {
            let mut cost = self.flattened_butterfly(n);
            cost.topology = "dragonfly".into();
            return cost;
        }
        // Split the radix budget as the paper does for its 512-node
        // groups with radix-64 parts: p = k/4, a = k/2 and the balanced
        // h = a/2, giving a*p nodes per group.
        let p = self.router_radix / 4;
        let a = self.dragonfly_group / p;
        let h = (self.router_radix - p - a + 1).min(a / 2).max(1);
        let g = n.div_ceil(a * p);
        let params =
            DragonflyParams::with_groups(p, a, h, g.max(2)).expect("dragonfly sizing out of range");
        let df = Dragonfly::new(params);
        let nodes = params.num_terminals();
        let mut pricer = Pricer::new(self, nodes);
        // Local channels: full connectivity within each group.
        for group in 0..params.num_groups() {
            for i in 0..a {
                for j in (i + 1)..a {
                    let ra = (group * a + i) * p;
                    let rb = (group * a + j) * p;
                    pricer.add_between_nodes(ra, rb, self.channel_gbps);
                }
            }
        }
        // Global channels: one per wired slot pair.
        for group in 0..params.num_groups() {
            for q in 0..params.global_ports_per_group() {
                if let Some((pg, pq)) = df.global_slot_target(group, q) {
                    if pg > group {
                        let ra = df.slot_router(group, q) * p;
                        let rb = df.slot_router(pg, pq) * p;
                        pricer.add_between_nodes(ra, rb, self.channel_gbps);
                    }
                }
            }
        }
        let router_bw = params.router_radix() as f64 * self.channel_gbps;
        NetworkCost {
            topology: "dragonfly".into(),
            terminals: nodes,
            routers: params.num_routers(),
            router_gbps: params.num_routers() as f64 * router_bw,
            router_cost: params.num_routers() as f64 * router_bw * self.router_cost_per_gbps,
            cable_cost: pricer.cable_cost,
            cables: pricer.stats,
        }
    }

    /// Sizes a flattened butterfly of at least `n` terminals within the
    /// radix budget, following the flattened-butterfly design rule: the
    /// fewest dimensions that fit with concentration `k/(d+1)` (the
    /// balanced split) and *full-radix* dimension sizes; the machine is
    /// scaled by populating the outermost dimension.
    ///
    /// # Errors
    ///
    /// Returns a [`SizingError`] when `n` exceeds what four dimensions
    /// (the rule's practical ceiling — beyond it the per-hop serialisa-
    /// tion latency erases the butterfly's advantage) can reach.
    pub fn flattened_butterfly_dims(&self, n: usize) -> Result<FlattenedButterfly, SizingError> {
        let mut max_terminals = 0;
        for d in 1..=4usize {
            let c = self.router_radix / (d + 1);
            let s_max = (self.router_radix - c) / d + 1;
            max_terminals = c * s_max.pow(d as u32);
            if max_terminals < n {
                continue;
            }
            let inner: usize = c * s_max.pow(d as u32 - 1);
            let last = n.div_ceil(inner).max(if d == 1 { 2 } else { 1 });
            let mut dims = vec![s_max; d - 1];
            dims.push(last);
            return Ok(FlattenedButterfly::with_dims(&dims, c));
        }
        Err(SizingError {
            terminals: n,
            max_terminals,
            rule: "4-dimension flattened-butterfly design rule",
        })
    }

    /// Prices a flattened butterfly of at least `n` terminals.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the four-dimension design-rule range; use
    /// [`CostConfig::flattened_butterfly_dims`] to handle that case
    /// gracefully.
    pub fn flattened_butterfly(&self, n: usize) -> NetworkCost {
        let fb = self
            .flattened_butterfly_dims(n)
            .expect("flattened butterfly sizing out of range");
        let c = fb.concentration();
        let nodes = fb.num_terminals();
        let mut pricer = Pricer::new(self, nodes);
        for r in 0..fb.num_routers() {
            let coords = fb.coordinates(r);
            for (dim, &s) in fb.dims().iter().enumerate() {
                for other in (coords[dim] + 1)..s {
                    let mut c2 = coords.clone();
                    c2[dim] = other;
                    let peer = fb.router_index(&c2);
                    pricer.add_between_nodes(r * c, peer * c, self.channel_gbps);
                }
            }
        }
        let router_bw = fb.radix() as f64 * self.channel_gbps;
        NetworkCost {
            topology: "flattened butterfly".into(),
            terminals: nodes,
            routers: fb.num_routers(),
            router_gbps: fb.num_routers() as f64 * router_bw,
            router_cost: fb.num_routers() as f64 * router_bw * self.router_cost_per_gbps,
            cable_cost: pricer.cable_cost,
            cables: pricer.stats,
        }
    }

    /// Prices a folded Clos (fat tree) of at least `n` terminals.
    ///
    /// Packaging model (Cray BlackWidow style): leaf switches live with
    /// their terminals; every higher rank lives in dedicated switch
    /// cabinets along one edge of the floor, so each leaf uplink is a
    /// real cable spanning from the leaf's cabinet to the switch row,
    /// and switch-rank-to-switch-rank cables are short jumpers within
    /// the switch row.
    pub fn folded_clos(&self, n: usize) -> NetworkCost {
        let clos = FoldedClos::for_terminals(n, self.router_radix);
        let nodes = clos.num_terminals();
        let half = self.router_radix / 2;
        let mut pricer = Pricer::new(self, nodes);
        let floor = Floorplan::new(self.nodes_per_cabinet, nodes);
        let (cols, rows) = floor.grid();
        // Distance from a leaf's cabinet to the switch row beyond the
        // last compute row, at mid-floor.
        let to_switch_row = |cabinet: usize| {
            let (x, y) = floor.position(cabinet);
            let dx = (x as f64 - cols as f64 / 2.0).abs() * floor.pitch_x_m;
            let dy = (rows - y) as f64 * floor.pitch_y_m;
            dx + dy + floor.slack_m
        };
        for level in 0..clos.levels() - 1 {
            for s in 0..clos.switches_at(level) {
                let len = if level == 0 {
                    // Leaf s serves terminals [s*half, (s+1)*half).
                    to_switch_row(floor.cabinet_of_node((s * half + half / 2).min(nodes - 1)))
                } else {
                    // Jumpers within the switch row.
                    3.0
                };
                for _uplink in 0..half {
                    pricer.add_length(len, self.channel_gbps);
                }
            }
        }
        let router_bw = self.router_radix as f64 * self.channel_gbps;
        NetworkCost {
            topology: "folded Clos".into(),
            terminals: nodes,
            routers: clos.num_routers(),
            router_gbps: clos.num_routers() as f64 * router_bw,
            router_cost: clos.num_routers() as f64 * router_bw * self.router_cost_per_gbps,
            cable_cost: pricer.cable_cost,
            cables: pricer.stats,
        }
    }

    /// Prices a 3-D torus of at least `n` terminals, one node per
    /// router.
    ///
    /// Links are widened by the bisection-derived factor `k/16` so the
    /// torus offers uniform throughput comparable to the other networks
    /// at the provisioning level tori are customarily built to, and a
    /// folded physical layout keeps every cable short (≤ ~2 m,
    /// electrical): the paper notes the torus avoids optics but pays in
    /// sheer cable bandwidth.
    pub fn torus_3d(&self, n: usize) -> NetworkCost {
        let torus = Torus::cubic_3d_for(n, 1);
        let k = torus.arity();
        let nodes = torus.num_terminals();
        let link_gbps = self.channel_gbps * (k as f64 / 16.0).max(1.0);
        let mut pricer = Pricer::new(self, nodes);
        // Folded-torus packaging: +x and +y neighbours share a board or
        // an adjacent cabinet (1 m), +z spans an aisle (2 m).
        let per_router_lengths = [1.0, 1.0, 2.0];
        for _r in 0..torus.num_routers() {
            for len in per_router_lengths {
                pricer.add_length(len, link_gbps);
            }
        }
        let router_bw = 6.0 * link_gbps + self.channel_gbps;
        NetworkCost {
            topology: "3-D torus".into(),
            terminals: nodes,
            routers: torus.num_routers(),
            router_gbps: torus.num_routers() as f64 * router_bw,
            router_cost: torus.num_routers() as f64 * router_bw * self.router_cost_per_gbps,
            cable_cost: pricer.cable_cost,
            cables: pricer.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dragonfly_sizing_matches_paper_parts() {
        let cfg = CostConfig::default();
        let c = cfg.dragonfly(16 * 1024);
        assert!(c.terminals >= 16 * 1024);
        // 512-node groups of 32 radix-≤64 routers.
        assert_eq!(c.routers % 32, 0);
        assert!(c.per_node() > 0.0);
    }

    #[test]
    fn dragonfly_beats_flattened_butterfly_at_scale() {
        let cfg = CostConfig::default();
        for (n, min_saving) in [(16 * 1024, 0.05), (20 * 1024, 0.08), (64 * 1024, 0.20)] {
            let df = cfg.dragonfly(n);
            let fb = cfg.flattened_butterfly(n);
            let saving = 1.0 - df.per_node() / fb.per_node();
            assert!(
                saving >= min_saving,
                "n={n}: dragonfly {:.2} vs FB {:.2} (saving {saving:.2})",
                df.per_node(),
                fb.per_node()
            );
        }
    }

    #[test]
    fn dragonfly_equals_fb_when_fully_connected() {
        // §5: "for networks up to 1K nodes ... the cost of the two
        // networks are identical".
        let cfg = CostConfig::default();
        let df = cfg.dragonfly(1024);
        let fb = cfg.flattened_butterfly(1024);
        assert_eq!(df.per_node(), fb.per_node());
        assert_eq!(df.topology, "dragonfly");
    }

    #[test]
    fn dragonfly_saves_half_versus_clos() {
        let cfg = CostConfig::default();
        let n = 16 * 1024;
        let df = cfg.dragonfly(n);
        let clos = cfg.folded_clos(n);
        let saving = 1.0 - df.per_node() / clos.per_node();
        assert!((0.30..0.75).contains(&saving), "saving vs Clos {saving:.2}");
    }

    #[test]
    fn torus_and_clos_are_the_expensive_pair() {
        // Figure 19's top two curves: the torus and the folded Clos cost
        // roughly 2-3x the dragonfly, with the torus climbing as its
        // links widen with k.
        let cfg = CostConfig::default();
        let n = 16 * 1024;
        let torus = cfg.torus_3d(n);
        let df = cfg.dragonfly(n);
        let clos = cfg.folded_clos(n);
        assert!(torus.per_node() > clos.per_node() * 0.9, "torus vs clos");
        assert!(torus.per_node() > 1.8 * df.per_node(), "torus vs dragonfly");
        let saving = 1.0 - df.per_node() / torus.per_node();
        assert!(saving > 0.45, "dragonfly saves {saving:.2} vs torus");
        // And the torus uses no optics (the paper's §5 observation).
        assert_eq!(torus.cables.optical, 0);
        // Torus per-node cost grows with scale as links widen.
        assert!(cfg.torus_3d(20 * 1024).per_node() > cfg.torus_3d(4 * 1024).per_node());
    }

    #[test]
    fn fb_sizing_respects_radix() {
        let cfg = CostConfig::default();
        for n in [1_000usize, 5_000, 20_000, 64 * 1024] {
            let fb = cfg.flattened_butterfly_dims(n).unwrap();
            assert!(fb.num_terminals() >= n, "n={n}");
            assert!(fb.radix() <= cfg.router_radix, "n={n} radix {}", fb.radix());
        }
    }

    #[test]
    fn fb_sizing_reports_out_of_range_instead_of_panicking() {
        let cfg = CostConfig::default();
        let err = cfg.flattened_butterfly_dims(usize::MAX).unwrap_err();
        assert!(err.max_terminals > 0);
        assert_eq!(err.terminals, usize::MAX);
        assert!(err.to_string().contains("flattened-butterfly design rule"));
    }

    #[test]
    fn dragonfly_has_fewest_long_cables() {
        // At the 64K design point of Figure 18 the dragonfly needs about
        // half the inter-cabinet (global) cables of the FB and far fewer
        // than the Clos.
        let cfg = CostConfig::default();
        let n = 64 * 1024;
        let df = cfg.dragonfly(n);
        let fb = cfg.flattened_butterfly(n);
        let clos = cfg.folded_clos(n);
        let per_node =
            |c: &NetworkCost| (c.cables.electrical + c.cables.optical) as f64 / c.terminals as f64;
        assert!(
            per_node(&df) < 0.65 * per_node(&fb),
            "df {:.2} vs fb {:.2} long cables/node",
            per_node(&df),
            per_node(&fb)
        );
        assert!(per_node(&df) < per_node(&clos), "df vs clos long cables");
    }

    #[test]
    fn costs_scale_sublinearly_per_node() {
        // Per-node dragonfly cost should not explode with N (cables grow
        // longer but stay one global hop).
        let cfg = CostConfig::default();
        let small = cfg.dragonfly(2 * 1024).per_node();
        let large = cfg.dragonfly(20 * 1024).per_node();
        assert!(large < small * 2.0, "small {small:.2} large {large:.2}");
    }
}

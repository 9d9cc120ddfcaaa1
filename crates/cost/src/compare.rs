//! Structural topology comparisons: Table 2 and the Figure 18 64K-node
//! case study.

use dfly_topo::{FlattenedButterfly, Topology};
use dragonfly::{Dragonfly, DragonflyParams};

use crate::packaging::Floorplan;

/// A hop-count expression `a·h_l + b·h_g` (local and global hops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopExpr {
    /// Local-hop coefficient.
    pub local: u32,
    /// Global-hop coefficient.
    pub global: u32,
}

impl HopExpr {
    /// Evaluates with concrete per-hop latencies.
    pub fn eval(&self, h_local: f64, h_global: f64) -> f64 {
        self.local as f64 * h_local + self.global as f64 * h_global
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Topology name.
    pub topology: &'static str,
    /// Diameter under minimal routing.
    pub minimal_diameter: HopExpr,
    /// Diameter under non-minimal (Valiant) routing.
    pub non_minimal_diameter: HopExpr,
    /// Average cable length as a fraction of the floor dimension `E`.
    pub avg_cable_length_e: f64,
    /// Maximum cable length as a multiple of `E`.
    pub max_cable_length_e: f64,
}

/// Table 2 of the paper: the flattened butterfly and the dragonfly.
///
/// The dragonfly trades *longer* global cables (average 2E/3 vs E/3, max
/// 2E vs E) for *half as many* of them, with nearly identical hop
/// counts — which is exactly the trade active optical cables reward.
pub fn table2() -> [Table2Row; 2] {
    [
        Table2Row {
            topology: "flattened butterfly",
            minimal_diameter: HopExpr {
                local: 1,
                global: 2,
            },
            non_minimal_diameter: HopExpr {
                local: 2,
                global: 4,
            },
            avg_cable_length_e: 1.0 / 3.0,
            max_cable_length_e: 1.0,
        },
        Table2Row {
            topology: "dragonfly",
            minimal_diameter: HopExpr {
                local: 2,
                global: 1,
            },
            non_minimal_diameter: HopExpr {
                local: 3,
                global: 2,
            },
            avg_cable_length_e: 2.0 / 3.0,
            max_cable_length_e: 2.0,
        },
    ]
}

/// The Figure 18 case study: a 64K-node flattened butterfly versus a
/// 64K-node dragonfly built from comparable router parts.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudy64K {
    /// Terminals in each network.
    pub terminals: (usize, usize),
    /// Bidirectional global (inter-cabinet-group) cables: (FB, dragonfly).
    pub global_cables: (usize, usize),
    /// Fraction of router ports used for global channels.
    pub global_port_fraction: (f64, f64),
    /// Router radix used by each.
    pub radix: (usize, usize),
}

/// Builds the Figure 18 comparison: FB with three dimensions of 16 and
/// concentration 16; dragonfly with 16-router groups (256 terminals per
/// group) spanning one "dimension" of 256 groups.
pub fn case_study_64k() -> CaseStudy64K {
    let fb = FlattenedButterfly::new(3, 16, 16);
    // Dragonfly: p = 16, a = 16, h = 16 -> g = 257 max; 256 groups for 64K.
    let params = DragonflyParams::with_groups(16, 16, 16, 256).expect("valid 64K dragonfly");
    let df = Dragonfly::new(params);

    // FB: dimension 1 is intra-cabinet; dimensions 2 and 3 are global.
    // Links per dimension: s(s-1)/2 per dimension group.
    let s = fb.routers_per_dim();
    let groups_per_dim = fb.num_routers() / s;
    let fb_global = 2 * groups_per_dim * s * (s - 1) / 2;
    let fb_global_ports = 2 * (s - 1);

    // Dragonfly: all inter-group channels are global.
    let ah = params.global_ports_per_group();
    let df_global =
        params.num_groups() * ah / 2 - params.num_groups() * df.unused_global_ports_per_group() / 2;
    let df_global_ports = params.global_ports_per_router();

    CaseStudy64K {
        terminals: (fb.num_terminals(), params.num_terminals()),
        global_cables: (fb_global, df_global),
        global_port_fraction: (
            fb_global_ports as f64 / fb.radix() as f64,
            df_global_ports as f64 / params.router_radix() as f64,
        ),
        radix: (fb.radix(), params.router_radix()),
    }
}

/// Empirically measures average and maximum *global* cable length (as
/// fractions of the floor extent `E`) for a dragonfly on a square
/// floorplan — validating the Table 2 length model.
pub fn dragonfly_cable_lengths_in_e(
    params: DragonflyParams,
    nodes_per_cabinet: usize,
) -> (f64, f64) {
    let df = Dragonfly::new(params);
    let p = params.terminals_per_router();
    let floor = Floorplan::new(nodes_per_cabinet, params.num_terminals());
    let e = floor.extent_m();
    let mut total = 0.0;
    let mut max: f64 = 0.0;
    let mut count = 0usize;
    for group in 0..params.num_groups() {
        for q in 0..params.global_ports_per_group() {
            if let Some((pg, pq)) = df.global_slot_target(group, q) {
                if pg > group {
                    let len = floor.node_cable_length_m(
                        df.slot_router(group, q) * p,
                        df.slot_router(pg, pq) * p,
                    ) - floor.slack_m;
                    total += len;
                    max = max.max(len);
                    count += 1;
                }
            }
        }
    }
    (total / count as f64 / e, max / e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let rows = table2();
        assert_eq!(
            rows[0].minimal_diameter,
            HopExpr {
                local: 1,
                global: 2
            }
        );
        assert_eq!(
            rows[1].minimal_diameter,
            HopExpr {
                local: 2,
                global: 1
            }
        );
        // With equal hop costs the diameters are nearly identical (3),
        // but the dragonfly pays fewer *global* hops.
        assert_eq!(rows[0].minimal_diameter.eval(1.0, 1.0), 3.0);
        assert_eq!(rows[1].minimal_diameter.eval(1.0, 1.0), 3.0);
        assert!(rows[1].minimal_diameter.global < rows[0].minimal_diameter.global);
        // Dragonfly cables are twice as long on average.
        assert!((rows[1].avg_cable_length_e / rows[0].avg_cable_length_e - 2.0).abs() < 1e-9);
    }

    #[test]
    fn case_study_matches_figure18() {
        let cs = case_study_64k();
        assert_eq!(cs.terminals.0, 65_536);
        assert_eq!(cs.terminals.1, 65_536);
        // "the dragonfly requires only half the number of global cables"
        let ratio = cs.global_cables.1 as f64 / cs.global_cables.0 as f64;
        assert!((ratio - 0.5).abs() < 0.05, "global cable ratio {ratio}");
        // FB spends ~half its ports on global channels, the dragonfly
        // far fewer.
        assert!(cs.global_port_fraction.0 > 0.45);
        assert!(cs.global_port_fraction.1 < cs.global_port_fraction.0 * 0.75);
    }

    #[test]
    fn hop_expr_weights_hops() {
        let e = HopExpr {
            local: 2,
            global: 1,
        };
        assert_eq!(e.eval(1.0, 1.0), 3.0);
        // With 10x slower global hops the dragonfly's advantage shows.
        let df = e.eval(1.0, 10.0);
        let fb = HopExpr {
            local: 1,
            global: 2,
        }
        .eval(1.0, 10.0);
        assert!(df < fb);
    }

    #[test]
    fn measured_global_lengths_track_table2() {
        // A 16K-node dragonfly on a square floor: global cables between
        // uniformly spread groups average ~2E/3 Manhattan and top out
        // near 2E.
        let params = DragonflyParams::with_groups(16, 32, 8, 32).unwrap();
        let (avg_e, max_e) = dragonfly_cable_lengths_in_e(params, 128);
        assert!((0.4..0.9).contains(&avg_e), "avg {avg_e}");
        assert!((1.2..=2.1).contains(&max_e), "max {max_e}");
    }
}

//! Network power estimation from the Table 1 energy-per-bit figures.
//!
//! The paper notes (§5) that the dragonfly's cost reduction "also
//! translates to reduction of power". This module makes that concrete:
//! every channel class gets an energy-per-bit from Table 1 (active
//! optical cables burn ~60 pJ/bit in their E/O–O/E transceivers,
//! electrical cables ~2 pJ/bit, boards less), routers a SerDes-dominated
//! figure per pin bandwidth, and a network's power is the roll-up over
//! its bill of materials.

use crate::network::NetworkCost;

/// Energy-per-bit assumptions, picojoules.
///
/// 1 pJ/bit at 1 Gb/s is 1 mW, so watts = pJ/bit × Gb/s / 1000.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Board/backplane channels (short traces).
    pub board_pj_per_bit: f64,
    /// Electrical cables (Table 1: ~2 pJ/bit).
    pub electrical_pj_per_bit: f64,
    /// Active optical cables (Table 1: ~55–60 pJ/bit).
    pub optical_pj_per_bit: f64,
    /// Router SerDes + crossbar per pin bandwidth.
    pub router_pj_per_bit: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            board_pj_per_bit: 1.0,
            electrical_pj_per_bit: 2.0,
            optical_pj_per_bit: 60.0,
            router_pj_per_bit: 10.0,
        }
    }
}

/// Power roll-up of one network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkPower {
    /// Router power, watts.
    pub router_w: f64,
    /// Channel (board + cable) power, watts.
    pub channel_w: f64,
    /// Terminals the network serves.
    pub terminals: usize,
}

impl NetworkPower {
    /// Total power in watts.
    pub fn total_w(&self) -> f64 {
        self.router_w + self.channel_w
    }

    /// Power per terminal in watts.
    pub fn per_node_w(&self) -> f64 {
        self.total_w() / self.terminals as f64
    }
}

impl PowerModel {
    /// Estimates the power of a priced network.
    pub fn of(&self, cost: &NetworkCost) -> NetworkPower {
        let c = &cost.cables;
        let channel_w = (c.board_gbps * self.board_pj_per_bit
            + c.electrical_gbps * self.electrical_pj_per_bit
            + c.optical_gbps * self.optical_pj_per_bit)
            / 1000.0;
        NetworkPower {
            router_w: cost.router_gbps * self.router_pj_per_bit / 1000.0,
            channel_w,
            terminals: cost.terminals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CostConfig;

    #[test]
    fn units_check_one_cable() {
        // A single 20 Gb/s optical cable at 60 pJ/bit burns 1.2 W —
        // exactly the Intel Connects figure of Table 1.
        let w: f64 = 20.0 * 60.0 / 1000.0;
        assert!((w - 1.2).abs() < 1e-12);
    }

    #[test]
    fn dragonfly_power_beats_clos_and_torus() {
        // The §5 remark "cost reduction translates to power reduction":
        // the dragonfly needs roughly half the Clos's power and far less
        // than the wide-linked torus; against the FB the gap opens at
        // the 64K design point where the FB needs twice the optical
        // cables (Figure 18).
        let cfg = CostConfig::default();
        let pm = PowerModel::default();
        let n = 16 * 1024;
        let df = pm.of(&cfg.dragonfly(n));
        let clos = pm.of(&cfg.folded_clos(n));
        let torus = pm.of(&cfg.torus_3d(n));
        assert!(
            df.per_node_w() < 0.6 * clos.per_node_w(),
            "df {:.3} W vs clos {:.3} W",
            df.per_node_w(),
            clos.per_node_w()
        );
        assert!(df.per_node_w() < 0.6 * torus.per_node_w());

        let n = 64 * 1024;
        let df = pm.of(&cfg.dragonfly(n));
        let fb = pm.of(&cfg.flattened_butterfly(n));
        assert!(
            df.per_node_w() < fb.per_node_w(),
            "df {:.3} W vs fb {:.3} W at 64K",
            df.per_node_w(),
            fb.per_node_w()
        );
    }

    #[test]
    fn optics_dominate_dragonfly_channel_power() {
        // The few long optical cables burn more than the many boards.
        let cfg = CostConfig::default();
        let cost = cfg.dragonfly(16 * 1024);
        let pm = PowerModel::default();
        let optical_w = cost.cables.optical_gbps * pm.optical_pj_per_bit / 1000.0;
        let power = pm.of(&cost);
        assert!(optical_w > 0.5 * power.channel_w);
    }

    #[test]
    fn torus_channels_are_cheap_but_routers_are_not() {
        // The all-electrical torus has low channel power; its wide
        // links make its routers the power sink.
        let cfg = CostConfig::default();
        let pm = PowerModel::default();
        let torus = pm.of(&cfg.torus_3d(16 * 1024));
        assert!(torus.router_w > torus.channel_w);
    }

    #[test]
    fn bandwidth_accounting_is_populated() {
        let cfg = CostConfig::default();
        let df = cfg.dragonfly(4 * 1024);
        assert!(df.cables.board_gbps > 0.0);
        assert!(df.cables.optical_gbps + df.cables.electrical_gbps > 0.0);
        assert!(df.router_gbps > 0.0);
        // gbps sums are consistent with counts x channel bandwidth.
        let per = cfg.channel_gbps;
        assert!((df.cables.board_gbps - df.cables.board as f64 * per).abs() < 1e-6);
    }
}

//! Cable technology and cost-versus-length models (§2 of the paper).

/// Characteristics of one interconnect cable technology (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CableTechnology {
    /// Marketing / reference name.
    pub name: &'static str,
    /// Maximum reach in metres.
    pub max_length_m: f64,
    /// Data rate in Gb/s (4x cable).
    pub data_rate_gbps: f64,
    /// Active power in watts.
    pub power_w: f64,
    /// Energy per bit in picojoules.
    pub energy_pj_per_bit: f64,
}

/// Table 1 of the paper: the three cable technologies compared.
pub const CABLE_TECHNOLOGIES: [CableTechnology; 3] = [
    CableTechnology {
        name: "Intel Connects Cable (optical)",
        max_length_m: 100.0,
        data_rate_gbps: 20.0,
        power_w: 1.2,
        energy_pj_per_bit: 60.0,
    },
    CableTechnology {
        name: "Luxtera Blazar (optical)",
        max_length_m: 300.0,
        data_rate_gbps: 42.0,
        power_w: 2.2,
        energy_pj_per_bit: 55.0,
    },
    CableTechnology {
        name: "conventional electrical",
        max_length_m: 10.0,
        data_rate_gbps: 10.0,
        power_w: 0.02,
        energy_pj_per_bit: 2.0,
    },
];

/// The cost-versus-length model of Figure 2, in dollars per Gb/s of
/// cable bandwidth.
///
/// Electrical cables are cheap but their cost grows quickly with length
/// (and they stop working past ~10 m); active optical cables carry a
/// high fixed cost (the E/O and O/E transceivers in the connectors) but
/// a small per-metre cost. Channels inside a cabinet run over circuit
/// boards and backplanes at a flat (low) cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CableCostModel {
    /// Flat $/Gb/s for intra-cabinet (board / backplane) channels.
    pub board: f64,
    /// Electrical cable fixed cost, $/Gb/s (Figure 2: 2.16).
    pub electrical_base: f64,
    /// Electrical cable cost slope, $/Gb/s/m (Figure 2: 1.40).
    pub electrical_per_m: f64,
    /// Longest usable electrical cable in metres (the paper uses 8 m as
    /// the technology switch point in its Figure 19 methodology).
    pub electrical_max_m: f64,
    /// Optical cable fixed cost, $/Gb/s (Figure 2: 9.7103).
    pub optical_base: f64,
    /// Optical cable cost slope, $/Gb/s/m (Figure 2: 0.364).
    pub optical_per_m: f64,
}

impl Default for CableCostModel {
    fn default() -> Self {
        CableCostModel {
            board: 0.40,
            electrical_base: 2.16,
            electrical_per_m: 1.40,
            electrical_max_m: 8.0,
            optical_base: 9.7103,
            optical_per_m: 0.364,
        }
    }
}

impl CableCostModel {
    /// Cost of an electrical cable of `length_m`, $/Gb/s.
    pub fn electrical(&self, length_m: f64) -> f64 {
        self.electrical_base + self.electrical_per_m * length_m
    }

    /// Cost of an active optical cable of `length_m`, $/Gb/s.
    pub fn optical(&self, length_m: f64) -> f64 {
        self.optical_base + self.optical_per_m * length_m
    }

    /// Cost of a cable of `length_m` using the cheaper viable
    /// technology: electrical up to `electrical_max_m`, optical beyond —
    /// the selection rule of the paper's Figure 19 (`length_m == 0`
    /// denotes an intra-cabinet board/backplane channel).
    pub fn cable(&self, length_m: f64) -> f64 {
        if length_m <= 0.0 {
            self.board
        } else if length_m <= self.electrical_max_m {
            self.electrical(length_m)
        } else {
            self.optical(length_m)
        }
    }

    /// The length at which optical becomes cheaper than electrical
    /// (about 10 m for the paper's constants).
    pub fn crossover_m(&self) -> f64 {
        (self.optical_base - self.electrical_base) / (self.electrical_per_m - self.optical_per_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fit_lines() {
        let m = CableCostModel::default();
        assert!((m.electrical(10.0) - 16.16).abs() < 1e-9);
        assert!((m.optical(10.0) - 13.3503).abs() < 1e-9);
        assert!((m.optical(100.0) - 46.1103).abs() < 1e-9);
    }

    #[test]
    fn crossover_near_ten_metres() {
        let m = CableCostModel::default();
        let x = m.crossover_m();
        assert!((5.0..12.0).contains(&x), "crossover {x}");
        // At the crossover point the two models agree.
        assert!((m.electrical(x) - m.optical(x)).abs() < 1e-9);
    }

    #[test]
    fn cable_picks_technology_by_length() {
        let m = CableCostModel::default();
        assert_eq!(m.cable(0.0), m.board);
        assert_eq!(m.cable(5.0), m.electrical(5.0));
        assert_eq!(m.cable(8.0), m.electrical(8.0));
        assert_eq!(m.cable(8.1), m.optical(8.1));
        assert_eq!(m.cable(50.0), m.optical(50.0));
    }

    #[test]
    fn optical_monotone_and_cheaper_far_out() {
        let m = CableCostModel::default();
        assert!(m.optical(40.0) < m.electrical(40.0));
        assert!(m.optical(20.0) > m.optical(10.0));
    }

    #[test]
    fn table1_sanity() {
        assert_eq!(CABLE_TECHNOLOGIES.len(), 3);
        let electrical = &CABLE_TECHNOLOGIES[2];
        assert!(electrical.max_length_m < CABLE_TECHNOLOGIES[0].max_length_m);
        assert!(electrical.energy_pj_per_bit < CABLE_TECHNOLOGIES[0].energy_pj_per_bit);
    }
}

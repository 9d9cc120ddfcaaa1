//! The packaging / floorplan model that assigns cables their lengths.

/// A machine-room floorplan: nodes fill cabinets in index order and
/// cabinets stand on a near-square grid.
///
/// Cable length between two cabinets is the Manhattan distance between
/// their grid positions plus a fixed routing slack (up/down the racks
/// and through the cable tray); channels within one cabinet run over
/// boards and backplanes and are reported as length 0.
///
/// # Example
///
/// ```
/// use dfly_cost::Floorplan;
///
/// let floor = Floorplan::new(128, 4096);
/// assert_eq!(floor.num_cabinets(), 32);
/// assert_eq!(floor.cabinet_of_node(0), 0);
/// assert_eq!(floor.cabinet_of_node(4095), 31);
/// assert_eq!(floor.cable_length_m(3, 3), 0.0);
/// assert!(floor.cable_length_m(0, 31) > 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floorplan {
    nodes_per_cabinet: usize,
    cabinets: usize,
    columns: usize,
    /// Cabinet pitch along an aisle, metres.
    pub pitch_x_m: f64,
    /// Aisle-to-aisle pitch, metres.
    pub pitch_y_m: f64,
    /// Fixed per-cable routing slack, metres.
    pub slack_m: f64,
}

impl Floorplan {
    /// Lays out `nodes` nodes in cabinets of `nodes_per_cabinet`, with
    /// default pitches (1.5 m along the aisle, 2.4 m between aisles) and
    /// 2 m of routing slack.
    ///
    /// # Panics
    ///
    /// Panics if `nodes_per_cabinet == 0` or `nodes == 0`.
    pub fn new(nodes_per_cabinet: usize, nodes: usize) -> Self {
        assert!(nodes_per_cabinet > 0, "cabinet must hold >= 1 node");
        assert!(nodes > 0, "need >= 1 node");
        let cabinets = nodes.div_ceil(nodes_per_cabinet);
        let columns = (cabinets as f64).sqrt().ceil() as usize;
        Floorplan {
            nodes_per_cabinet,
            cabinets,
            columns: columns.max(1),
            pitch_x_m: 1.5,
            pitch_y_m: 2.4,
            slack_m: 2.0,
        }
    }

    /// Number of cabinets on the floor.
    pub fn num_cabinets(&self) -> usize {
        self.cabinets
    }

    /// Nodes housed per cabinet.
    pub fn nodes_per_cabinet(&self) -> usize {
        self.nodes_per_cabinet
    }

    /// The cabinet housing `node`.
    pub fn cabinet_of_node(&self, node: usize) -> usize {
        node / self.nodes_per_cabinet
    }

    /// Grid position `(col, row)` of a cabinet.
    ///
    /// # Panics
    ///
    /// Panics if `cabinet` is out of range.
    pub fn position(&self, cabinet: usize) -> (usize, usize) {
        assert!(cabinet < self.cabinets, "cabinet {cabinet} out of range");
        (cabinet % self.columns, cabinet / self.columns)
    }

    /// Cable length in metres between two cabinets: 0 within a cabinet
    /// (board/backplane), otherwise Manhattan distance plus slack.
    pub fn cable_length_m(&self, cab_a: usize, cab_b: usize) -> f64 {
        if cab_a == cab_b {
            return 0.0;
        }
        let (xa, ya) = self.position(cab_a);
        let (xb, yb) = self.position(cab_b);
        let dx = xa.abs_diff(xb) as f64 * self.pitch_x_m;
        let dy = ya.abs_diff(yb) as f64 * self.pitch_y_m;
        dx + dy + self.slack_m
    }

    /// Length of a cable between the cabinets of two *nodes*.
    pub fn node_cable_length_m(&self, node_a: usize, node_b: usize) -> f64 {
        self.cable_length_m(self.cabinet_of_node(node_a), self.cabinet_of_node(node_b))
    }

    /// Grid shape `(columns, rows)` of the floor.
    pub fn grid(&self) -> (usize, usize) {
        (self.columns, self.cabinets.div_ceil(self.columns))
    }

    /// The side length `E` of the floor in metres (the longer dimension),
    /// used by the Table 2 length comparison.
    pub fn extent_m(&self) -> f64 {
        let rows = self.cabinets.div_ceil(self.columns);
        ((self.columns.saturating_sub(1)) as f64 * self.pitch_x_m)
            .max((rows.saturating_sub(1)) as f64 * self.pitch_y_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_layout() {
        let f = Floorplan::new(64, 64 * 16);
        assert_eq!(f.num_cabinets(), 16);
        assert_eq!(f.position(0), (0, 0));
        assert_eq!(f.position(5), (1, 1));
        assert_eq!(f.position(15), (3, 3));
    }

    #[test]
    fn partial_last_cabinet_counts() {
        let f = Floorplan::new(100, 250);
        assert_eq!(f.num_cabinets(), 3);
    }

    #[test]
    fn intra_cabinet_is_board() {
        let f = Floorplan::new(128, 1024);
        assert_eq!(f.node_cable_length_m(0, 127), 0.0);
        assert!(f.node_cable_length_m(0, 128) > 0.0);
    }

    #[test]
    fn lengths_are_symmetric_and_triangleish() {
        let f = Floorplan::new(32, 32 * 25);
        for a in 0..25 {
            for b in 0..25 {
                assert_eq!(f.cable_length_m(a, b), f.cable_length_m(b, a));
            }
        }
        // Fully across the 5x5 floor: 4 * 1.5 + 4 * 2.4 + 2.
        let far = f.cable_length_m(0, 24);
        assert!((far - (6.0 + 9.6 + 2.0)).abs() < 1e-9, "far {far}");
    }

    #[test]
    fn extent_scales_with_floor() {
        let small = Floorplan::new(64, 64 * 4);
        let big = Floorplan::new(64, 64 * 100);
        assert!(big.extent_m() > small.extent_m());
    }
}

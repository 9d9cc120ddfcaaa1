//! The flattened butterfly (k-ary n-flat) topology.

/// A flattened butterfly (k-ary n-flat) network, possibly with unequal
/// dimension sizes.
///
/// Routers sit at the points of an `n`-dimensional grid; within each
/// dimension, the routers that share the other coordinates are *fully
/// connected*. Each router additionally concentrates `c` terminals.
///
/// This is the topology of Kim, Dally & Abts (ISCA 2007) that the
/// dragonfly paper uses as its primary comparison point: a dragonfly
/// with fully-connected groups is exactly a 1-D flattened butterfly plus
/// an inter-group stage. Unequal dimensions arise when a machine is
/// scaled by populating a partially filled outer dimension.
///
/// # Example
///
/// ```
/// use dfly_topo::FlattenedButterfly;
///
/// // Figure 18(a) of the paper: 64K nodes from 16 routers per dimension,
/// // concentration 16, 3 dimensions.
/// let fb = FlattenedButterfly::new(3, 16, 16);
/// assert_eq!(fb.num_terminals(), 65_536);
/// assert_eq!(fb.radix(), 16 + 3 * 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlattenedButterfly {
    dims: Vec<usize>,
    concentration: usize,
}

impl FlattenedButterfly {
    /// Creates a k-ary n-flat with `dimensions` equal dimensions of
    /// `routers_per_dim` routers and `concentration` terminals per
    /// router.
    ///
    /// # Panics
    ///
    /// Panics if `dimensions == 0` or `routers_per_dim == 0`.
    pub fn new(dimensions: usize, routers_per_dim: usize, concentration: usize) -> Self {
        assert!(dimensions > 0, "flattened butterfly needs >= 1 dimension");
        Self::with_dims(&vec![routers_per_dim; dimensions], concentration)
    }

    /// Creates a flattened butterfly with explicit per-dimension sizes
    /// (first dimension varies fastest in the router numbering).
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any dimension size is zero.
    pub fn with_dims(dims: &[usize], concentration: usize) -> Self {
        assert!(!dims.is_empty(), "flattened butterfly needs >= 1 dimension");
        assert!(
            dims.iter().all(|&s| s > 0),
            "every dimension must have >= 1 router"
        );
        FlattenedButterfly {
            dims: dims.to_vec(),
            concentration,
        }
    }

    /// Number of dimensions `n`.
    pub fn dimensions(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Routers along dimension 0 (for uniform networks, every dimension).
    pub fn routers_per_dim(&self) -> usize {
        self.dims[0]
    }

    /// Terminals per router.
    pub fn concentration(&self) -> usize {
        self.concentration
    }

    /// The multi-index coordinates of router `r`, least-significant
    /// dimension first.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.num_routers()`.
    pub fn coordinates(&self, r: usize) -> Vec<usize> {
        assert!(r < self.num_routers(), "router {r} out of range");
        let mut rem = r;
        self.dims
            .iter()
            .map(|&s| {
                let c = rem % s;
                rem /= s;
                c
            })
            .collect()
    }

    /// The router index for a coordinate vector (inverse of
    /// [`coordinates`](Self::coordinates)).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate count or any coordinate is out of range.
    pub fn router_index(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dims.len(), "wrong coordinate count");
        let mut idx = 0;
        for (&c, &s) in coords.iter().zip(&self.dims).rev() {
            assert!(c < s, "coordinate {c} out of range");
            idx = idx * s + c;
        }
        idx
    }

    /// Minimal hop count between two routers: the number of dimensions in
    /// which their coordinates differ.
    pub fn min_hops(&self, a: usize, b: usize) -> usize {
        let ca = self.coordinates(a);
        let cb = self.coordinates(b);
        ca.iter().zip(&cb).filter(|(x, y)| x != y).count()
    }

    /// Number of routers: the product of the dimension sizes.
    pub fn num_routers(&self) -> usize {
        self.dims.iter().product()
    }

    /// Number of terminals: `c` per router.
    pub fn num_terminals(&self) -> usize {
        self.num_routers() * self.concentration
    }

    /// Router radix: `c` terminal ports plus `s_d - 1` channels per
    /// dimension.
    pub fn radix(&self) -> usize {
        self.concentration + self.dims.iter().map(|&s| s - 1).sum::<usize>()
    }

    /// Number of bidirectional inter-router channels: each dimension `d`
    /// contributes `(R / s_d) · s_d (s_d - 1) / 2` links.
    pub fn num_links(&self) -> usize {
        let routers = self.num_routers();
        self.dims
            .iter()
            .map(|&s| (routers / s) * s * (s - 1) / 2)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_hops;

    /// Each router's peers: every router that differs from it in exactly
    /// one coordinate.
    fn adjacency(fb: &FlattenedButterfly) -> Vec<Vec<usize>> {
        (0..fb.num_routers())
            .map(|r| {
                let coords = fb.coordinates(r);
                let mut peers = Vec::new();
                for (dim, &s) in fb.dims().iter().enumerate() {
                    for other in (0..s).filter(|&o| o != coords[dim]) {
                        let mut c2 = coords.clone();
                        c2[dim] = other;
                        peers.push(fb.router_index(&c2));
                    }
                }
                peers
            })
            .collect()
    }

    #[test]
    fn one_dimension_is_complete_graph() {
        let fb = FlattenedButterfly::new(1, 8, 4);
        assert_eq!(fb.num_routers(), 8);
        assert_eq!(fb.num_terminals(), 32);
        assert_eq!(fb.radix(), 4 + 7);
        assert_eq!(fb.num_links(), 8 * 7 / 2);
        assert_eq!(fb.min_hops(0, 7), 1);
    }

    #[test]
    fn diameter_equals_dimensions() {
        for n in 1..=3 {
            let fb = FlattenedButterfly::new(n, 4, 2);
            let adj = adjacency(&fb);
            let mut worst = 0;
            for a in 0..fb.num_routers() {
                for (b, &d) in bfs_hops(&adj, a).iter().enumerate() {
                    assert_eq!(fb.min_hops(a, b), d, "n={n} a={a} b={b}");
                    worst = worst.max(d);
                }
            }
            assert_eq!(worst, n, "n={n}");
        }
    }

    #[test]
    fn coordinates_round_trip() {
        let fb = FlattenedButterfly::new(3, 5, 1);
        for r in 0..fb.num_routers() {
            assert_eq!(fb.router_index(&fb.coordinates(r)), r);
        }
    }

    #[test]
    fn unequal_dimensions() {
        let fb = FlattenedButterfly::with_dims(&[5, 3], 2);
        assert_eq!(fb.num_routers(), 15);
        assert_eq!(fb.num_terminals(), 30);
        assert_eq!(fb.radix(), 2 + 4 + 2);
        for r in 0..15 {
            assert_eq!(fb.router_index(&fb.coordinates(r)), r);
        }
        // Link count: dim0: 3 groups of C(5,2)=10 -> 30; dim1: 5 groups
        // of C(3,2)=3 -> 15.
        assert_eq!(fb.num_links(), 45);
    }

    #[test]
    fn min_hops_counts_differing_dimensions() {
        let fb = FlattenedButterfly::new(2, 4, 1);
        let a = fb.router_index(&[0, 0]);
        let b = fb.router_index(&[3, 0]);
        let c = fb.router_index(&[3, 2]);
        assert_eq!(fb.min_hops(a, a), 0);
        assert_eq!(fb.min_hops(a, b), 1);
        assert_eq!(fb.min_hops(a, c), 2);
    }

    #[test]
    fn link_count_formula_matches_graph() {
        for fb in [
            FlattenedButterfly::new(2, 6, 3),
            FlattenedButterfly::with_dims(&[5, 3], 2),
        ] {
            let ends: usize = adjacency(&fb).iter().map(Vec::len).sum();
            assert_eq!(ends, 2 * fb.num_links(), "{fb:?}");
        }
    }

    #[test]
    fn paper_figure18_configuration() {
        // 64K-node comparison of Section 5: dimension size 16, c=16, n=3.
        let fb = FlattenedButterfly::new(3, 16, 16);
        assert_eq!(fb.num_terminals(), 65_536);
        // Radix = 16 + 3*15 = 61; 30 of 45 network ports serve the two
        // inter-cabinet dimensions.
        assert_eq!(fb.radix(), 61);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn zero_dimensions_panics() {
        FlattenedButterfly::new(0, 4, 1);
    }
}

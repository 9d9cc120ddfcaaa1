//! k-ary n-cube (torus) networks.

/// A k-ary n-cube: an `n`-dimensional torus with `k` routers per dimension
/// and `c` terminals per router.
///
/// The 3-D instance is the low-radix baseline of the paper's cost study
/// (Figure 19), standing in for machines like the Cray T3E.
///
/// # Example
///
/// ```
/// use dfly_topo::Torus;
///
/// let t = Torus::new(3, 8, 1); // 8x8x8, one node per router
/// assert_eq!(t.num_terminals(), 512);
/// // The farthest router is k/2 hops away in every dimension.
/// assert_eq!(t.min_hops(0, t.router_index(&[4, 4, 4])), 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Torus {
    dimensions: usize,
    arity: usize,
    concentration: usize,
}

impl Torus {
    /// Creates a k-ary n-cube with `dimensions` dimensions, `arity` routers
    /// per dimension and `concentration` terminals per router.
    ///
    /// # Panics
    ///
    /// Panics if `dimensions == 0` or `arity < 2`.
    pub fn new(dimensions: usize, arity: usize, concentration: usize) -> Self {
        assert!(dimensions > 0, "torus needs >= 1 dimension");
        assert!(arity >= 2, "torus arity must be >= 2");
        Torus {
            dimensions,
            arity,
            concentration,
        }
    }

    /// Builds the smallest cubic 3-D torus with at least `terminals` nodes
    /// at the given concentration — the sizing rule used for the cost
    /// comparison curves.
    pub fn cubic_3d_for(terminals: usize, concentration: usize) -> Self {
        assert!(concentration > 0, "concentration must be >= 1");
        let routers_needed = terminals.div_ceil(concentration);
        let mut k = 2usize;
        while k * k * k < routers_needed {
            k += 1;
        }
        Torus::new(3, k, concentration)
    }

    /// Number of dimensions `n`.
    pub fn dimensions(&self) -> usize {
        self.dimensions
    }

    /// Routers per dimension `k`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Terminals per router.
    pub fn concentration(&self) -> usize {
        self.concentration
    }

    /// Number of routers: `k^n`.
    pub fn num_routers(&self) -> usize {
        self.arity.pow(self.dimensions as u32)
    }

    /// Number of terminals: `c` per router.
    pub fn num_terminals(&self) -> usize {
        self.num_routers() * self.concentration
    }

    /// Router radix: `c` terminal ports plus two ring ports per
    /// dimension (one for `k = 2`, where both directions coincide).
    pub fn radix(&self) -> usize {
        let ring_ports = if self.arity == 2 { 1 } else { 2 };
        self.concentration + self.dimensions * ring_ports
    }

    /// Multi-index coordinates of router `r`, least-significant dimension
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.num_routers()`.
    pub fn coordinates(&self, r: usize) -> Vec<usize> {
        assert!(r < self.num_routers(), "router {r} out of range");
        let mut rem = r;
        (0..self.dimensions)
            .map(|_| {
                let c = rem % self.arity;
                rem /= self.arity;
                c
            })
            .collect()
    }

    /// Router index for a coordinate vector.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate count or any coordinate is out of range.
    pub fn router_index(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dimensions, "wrong coordinate count");
        let mut idx = 0;
        for &c in coords.iter().rev() {
            assert!(c < self.arity, "coordinate {c} out of range");
            idx = idx * self.arity + c;
        }
        idx
    }

    /// Minimal hop count between routers `a` and `b`: the sum over
    /// dimensions of the shorter way around each ring.
    pub fn min_hops(&self, a: usize, b: usize) -> usize {
        let ca = self.coordinates(a);
        let cb = self.coordinates(b);
        ca.iter()
            .zip(&cb)
            .map(|(&x, &y)| {
                let d = x.abs_diff(y);
                d.min(self.arity - d)
            })
            .sum()
    }

    /// Number of bidirectional inter-router links: `n * k^n` for `k > 2`
    /// (each router has one plus-direction link per dimension); for `k = 2`
    /// the two directions coincide, giving half that.
    pub fn num_links(&self) -> usize {
        let links = self.dimensions * self.num_routers();
        if self.arity == 2 {
            links / 2
        } else {
            links
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_hops;

    /// Each router's peers: one step either way round the ring of every
    /// dimension, counted once where the two steps meet (`k = 2`).
    fn adjacency(t: &Torus) -> Vec<Vec<usize>> {
        let k = t.arity();
        (0..t.num_routers())
            .map(|r| {
                let coords = t.coordinates(r);
                let mut peers = Vec::new();
                for dim in 0..t.dimensions() {
                    for step in [1, k - 1] {
                        let mut c2 = coords.clone();
                        c2[dim] = (coords[dim] + step) % k;
                        peers.push(t.router_index(&c2));
                    }
                    if k == 2 {
                        peers.pop();
                    }
                }
                peers
            })
            .collect()
    }

    #[test]
    fn ring_is_one_dimensional_torus() {
        let t = Torus::new(1, 6, 1);
        assert_eq!(t.num_routers(), 6);
        assert_eq!(t.min_hops(0, 3), 3);
        assert_eq!(t.min_hops(0, 4), 2); // wraps the short way
        assert_eq!(t.radix(), 1 + 2);
    }

    #[test]
    fn diameter_formula() {
        for (n, k) in [(2, 4), (3, 4), (3, 5)] {
            let t = Torus::new(n, k, 1);
            let adj = adjacency(&t);
            let worst = (0..t.num_routers()).flat_map(|a| bfs_hops(&adj, a)).max();
            assert_eq!(worst, Some(n * (k / 2)), "n={n} k={k}");
        }
    }

    #[test]
    fn min_hops_matches_bfs() {
        let t = Torus::new(2, 5, 1);
        let adj = adjacency(&t);
        for a in 0..t.num_routers() {
            for (b, &db) in bfs_hops(&adj, a).iter().enumerate() {
                assert_eq!(t.min_hops(a, b), db, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn link_count_matches_graph() {
        for t in [Torus::new(3, 4, 2), Torus::new(2, 2, 1)] {
            let ends: usize = adjacency(&t).iter().map(Vec::len).sum();
            assert_eq!(ends, 2 * t.num_links(), "{t:?}");
        }
    }

    #[test]
    fn arity_two_has_single_link_per_dimension() {
        let t = Torus::new(3, 2, 1);
        assert_eq!(t.radix(), 1 + 3);
        assert_eq!(t.num_links(), 3 * 8 / 2);
    }

    #[test]
    fn cubic_sizing_covers_request() {
        let t = Torus::cubic_3d_for(5000, 2);
        assert!(t.num_terminals() >= 5000);
        assert_eq!(t.dimensions(), 3);
        // The next-smaller cube must not suffice.
        let smaller = Torus::new(3, t.arity() - 1, 2);
        assert!(smaller.num_terminals() < 5000);
    }

    #[test]
    fn coordinates_round_trip() {
        let t = Torus::new(3, 3, 1);
        for r in 0..t.num_routers() {
            assert_eq!(t.router_index(&t.coordinates(r)), r);
        }
    }
}

//! Folded-Clos (fat-tree) networks.

/// A folded-Clos (fat-tree) network built from uniform radix-`k` switches.
///
/// The network has `levels` ranks of switches. Leaf (rank-0) switches
/// devote half their ports (`k/2`) to terminals and half to uplinks; every
/// interior rank uses `k/2` ports down and `k/2` up, and the top rank uses
/// all `k` ports downward (so it has half as many switches). This is the
/// full-bisection-bandwidth configuration the paper compares against (its
/// folded-Clos curves and the Cray BlackWidow network are of this family).
///
/// # Example
///
/// ```
/// use dfly_topo::FoldedClos;
///
/// // A 2-level fat tree of radix-8 switches: 4 terminals per leaf,
/// // 4 leaves, 2 top switches, 16 terminals.
/// let clos = FoldedClos::new(2, 8);
/// assert_eq!(clos.num_terminals(), 16);
/// assert_eq!(clos.num_routers(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FoldedClos {
    levels: usize,
    radix: usize,
}

impl FoldedClos {
    /// Creates a folded Clos with the given number of switch `levels`
    /// (ranks) built from radix-`radix` switches.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`, `radix < 4`, or `radix` is odd.
    pub fn new(levels: usize, radix: usize) -> Self {
        assert!(levels > 0, "folded Clos needs >= 1 level");
        assert!(radix >= 4, "switch radix must be >= 4");
        assert!(radix.is_multiple_of(2), "switch radix must be even");
        FoldedClos { levels, radix }
    }

    /// The smallest folded Clos of radix-`radix` switches that reaches at
    /// least `terminals` terminals — the sizing rule used in the cost
    /// comparison.
    pub fn for_terminals(terminals: usize, radix: usize) -> Self {
        let mut levels = 1;
        loop {
            let clos = FoldedClos::new(levels, radix);
            if clos.num_terminals() >= terminals {
                return clos;
            }
            levels += 1;
        }
    }

    /// Number of switch ranks.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Switch radix `k`.
    pub fn switch_radix(&self) -> usize {
        self.radix
    }

    /// Number of switches over all ranks.
    pub fn num_routers(&self) -> usize {
        (0..self.levels).map(|l| self.switches_at(l)).sum()
    }

    /// Number of terminals: `k/2` per leaf.
    pub fn num_terminals(&self) -> usize {
        if self.levels == 1 {
            // A single switch uses all its ports for terminals.
            self.radix
        } else {
            self.switches_at(0) * self.half()
        }
    }

    /// Router radix: the switch radix `k`.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// `k/2`, the up/down port split.
    fn half(&self) -> usize {
        self.radix / 2
    }

    /// Switches in rank `level` (0 = leaves).
    ///
    /// Every rank below the top has `(k/2)^(levels-1)` switches; the top
    /// rank has (roughly) half as many because each of its switches
    /// points all `k` ports downward. When the count below the top is
    /// odd (odd `k/2`, e.g. radix 6), the pairing leaves one virtual
    /// switch over: the last real top switch absorbs a single virtual
    /// one and uses only `k/2` of its ports.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.levels()`.
    pub fn switches_at(&self, level: usize) -> usize {
        assert!(level < self.levels, "level {level} out of range");
        let m = self.half().pow(self.levels as u32 - 1);
        if level + 1 == self.levels {
            m.div_ceil(2)
        } else {
            m
        }
    }

    /// Total bidirectional switch-to-switch cables: each non-top rank
    /// contributes `switches * k/2` uplinks.
    pub fn num_links(&self) -> usize {
        (0..self.levels - 1)
            .map(|l| self.switches_at(l) * self.half())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_hops;

    /// The folded-butterfly wiring of the ranks, routers numbered rank
    /// by rank from the leaves. Uplink `u` of switch `s` at rank `l`
    /// reaches the rank-`l+1` switch equal to `s` with base-`k/2` digit
    /// `l` replaced by `u`; the top rank is halved, real switch `v / 2`
    /// absorbing virtual switches `v` and `v ^ 1`.
    fn adjacency(c: &FoldedClos) -> Vec<Vec<usize>> {
        let half = c.half();
        let base: Vec<usize> = (0..c.levels())
            .scan(0, |next, l| {
                let first = *next;
                *next += c.switches_at(l);
                Some(first)
            })
            .collect();
        let mut adj = vec![Vec::new(); c.num_routers()];
        for l in 0..c.levels() - 1 {
            let place = half.pow(l as u32);
            let top = l + 2 == c.levels();
            for s in 0..c.switches_at(l) {
                let own = s / place % half;
                for u in 0..half {
                    let v = s - own * place + u * place;
                    let up = base[l + 1] + if top { v / 2 } else { v };
                    adj[base[l] + s].push(up);
                    adj[up].push(base[l] + s);
                }
            }
        }
        adj
    }

    fn is_connected(c: &FoldedClos) -> bool {
        bfs_hops(&adjacency(c), 0).iter().all(|&d| d != usize::MAX)
    }

    #[test]
    fn single_level_is_one_switch() {
        let c = FoldedClos::new(1, 8);
        assert_eq!(c.num_routers(), 1);
        assert_eq!(c.num_terminals(), 8);
        assert_eq!(c.num_links(), 0);
    }

    #[test]
    fn two_level_counts() {
        let c = FoldedClos::new(2, 8);
        assert_eq!(c.switches_at(0), 4);
        assert_eq!(c.switches_at(1), 2);
        assert_eq!(c.num_terminals(), 16);
        assert_eq!(c.num_links(), 16);
        // Top switches must expose exactly k down ports.
        let adj = adjacency(&c);
        assert_eq!(adj[4].len(), 8);
        assert_eq!(adj[5].len(), 8);
    }

    #[test]
    fn terminals_scale_geometrically() {
        let k = 64;
        let t2 = FoldedClos::new(2, k).num_terminals();
        let t3 = FoldedClos::new(3, k).num_terminals();
        assert_eq!(t2, 32 * 32);
        assert_eq!(t3, 32 * 32 * 32);
    }

    #[test]
    fn sizing_covers_request() {
        let c = FoldedClos::for_terminals(5000, 64);
        assert!(c.num_terminals() >= 5000);
        assert_eq!(c.levels(), 3);
    }

    #[test]
    fn graph_is_connected() {
        for levels in 1..=3 {
            let c = FoldedClos::new(levels, 8);
            assert!(is_connected(&c), "levels={levels}");
        }
    }

    #[test]
    fn every_rank_has_balanced_degree() {
        let c = FoldedClos::new(3, 8);
        let adj = adjacency(&c);
        let (leaves, mid) = (c.switches_at(0), c.switches_at(1));
        assert_eq!(adj.len(), leaves + mid + c.switches_at(2));
        for (s, peers) in adj.iter().enumerate() {
            let want = if s < leaves { 4 } else { 8 };
            assert_eq!(peers.len(), want, "switch {s}");
        }
    }

    #[test]
    fn diameter_is_up_and_down() {
        // Leaf-to-leaf worst case traverses to the top rank and back:
        // 2*(levels-1) hops.
        let c = FoldedClos::new(3, 8);
        let adj = adjacency(&c);
        let leaves = c.switches_at(0);
        let mut worst = 0;
        for a in 0..leaves {
            for &d in bfs_hops(&adj, a).iter().take(leaves) {
                assert_ne!(d, usize::MAX);
                worst = worst.max(d);
            }
        }
        assert_eq!(worst, 4);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_radix_panics() {
        FoldedClos::new(2, 7);
    }

    #[test]
    fn odd_half_radix_six_builds() {
        // radix 6 → k/2 = 3 is odd: 3 virtual top switches fold into 2
        // real ones, the last absorbing a single virtual.
        let c = FoldedClos::new(2, 6);
        assert_eq!(c.switches_at(0), 3);
        assert_eq!(c.switches_at(1), 2);
        assert_eq!(c.num_terminals(), 9);
        assert_eq!(c.num_links(), 9);
        assert!(is_connected(&c));
        // Real top 0 absorbs virtuals 0 and 1 (one uplink from each leaf
        // per virtual); real top 1 absorbs only virtual 2.
        let adj = adjacency(&c);
        assert_eq!(adj[3].len(), 6);
        assert_eq!(adj[4].len(), 3);
    }

    #[test]
    fn odd_half_three_levels_stay_connected() {
        let c = FoldedClos::new(3, 6);
        assert_eq!(c.switches_at(0), 9);
        assert_eq!(c.switches_at(2), 5);
        assert!(is_connected(&c));
    }
}

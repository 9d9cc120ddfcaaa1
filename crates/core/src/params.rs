//! Dragonfly configuration parameters and scaling rules.

/// The defining parameters of a dragonfly network (§3.1 of the paper).
///
/// * `p` — terminals per router,
/// * `a` — routers per group,
/// * `h` — global channels per router,
/// * `g` — number of groups (defaults to the maximum `a·h + 1`).
///
/// Each router then has radix `k = p + (a-1) + h`, a group acts as a
/// virtual router of effective radix `k' = a(p + h)`, and the network
/// connects `N = a·p·g` terminals.
///
/// # Example
///
/// ```
/// use dragonfly::DragonflyParams;
///
/// // The paper's 1K-node evaluation network.
/// let params = DragonflyParams::new(4, 8, 4).unwrap();
/// assert_eq!(params.num_terminals(), 1056);
/// assert_eq!(params.router_radix(), 15);
/// assert_eq!(params.effective_radix(), 64);
/// assert!(params.is_balanced());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DragonflyParams {
    p: usize,
    a: usize,
    h: usize,
    g: usize,
}

impl DragonflyParams {
    /// Creates a maximum-size dragonfly: `g = a·h + 1` groups.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero or the configuration is
    /// degenerate (see [`DragonflyParams::with_groups`]).
    pub fn new(p: usize, a: usize, h: usize) -> Result<Self, String> {
        if a == 0 || h == 0 {
            return Err("a and h must be >= 1".into());
        }
        Self::with_groups(p, a, h, a * h + 1)
    }

    /// Creates a dragonfly with an explicit group count `g <= a·h + 1`.
    ///
    /// With fewer groups than the maximum, the excess global channels are
    /// spread so that every pair of groups is connected by at least
    /// `⌊a·h / (g-1)⌋` channels.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero, `g < 2`, or
    /// `g > a·h + 1` (not enough global ports to reach every group).
    pub fn with_groups(p: usize, a: usize, h: usize, g: usize) -> Result<Self, String> {
        if p == 0 || a == 0 || h == 0 {
            return Err("p, a and h must all be >= 1".into());
        }
        if g < 2 {
            return Err(format!("need at least 2 groups, got {g}"));
        }
        if g > a * h + 1 {
            return Err(format!(
                "{g} groups need more than the a*h = {} global ports per group",
                a * h
            ));
        }
        Ok(DragonflyParams { p, a, h, g })
    }

    /// The largest *balanced* dragonfly (`a = 2p = 2h`) buildable from
    /// routers of radix at most `k` — the sizing rule of Figure 4.
    ///
    /// # Errors
    ///
    /// Returns an error if `k < 3` (no balanced dragonfly exists).
    pub fn balanced_from_radix(k: usize) -> Result<Self, String> {
        // k = p + a + h - 1 = 4h - 1 for a balanced network, so take
        // h = floor((k+1)/4) and give any leftover ports to p and a,
        // keeping a >= 2h and p >= h (over-provisioning local/terminal
        // bandwidth is allowed; under-provisioning is not).
        let h = (k + 1) / 4;
        if h == 0 {
            return Err(format!("radix {k} too small for a balanced dragonfly"));
        }
        let p = h;
        let a = k + 1 - p - h;
        debug_assert!(a >= 2 * h);
        Self::new(p, a, h)
    }

    /// Terminals per router (`p`).
    pub fn terminals_per_router(&self) -> usize {
        self.p
    }

    /// Routers per group (`a`).
    pub fn routers_per_group(&self) -> usize {
        self.a
    }

    /// Global channels per router (`h`).
    pub fn global_ports_per_router(&self) -> usize {
        self.h
    }

    /// Number of groups (`g`).
    pub fn num_groups(&self) -> usize {
        self.g
    }

    /// Maximum group count `a·h + 1` for these router parameters.
    pub fn max_groups(&self) -> usize {
        self.a * self.h + 1
    }

    /// Total routers `a·g`.
    pub fn num_routers(&self) -> usize {
        self.a * self.g
    }

    /// Total terminals `N = a·p·g`.
    pub fn num_terminals(&self) -> usize {
        self.a * self.p * self.g
    }

    /// Router radix `k = p + (a-1) + h`.
    pub fn router_radix(&self) -> usize {
        self.p + self.a - 1 + self.h
    }

    /// Effective radix of the group as a virtual router,
    /// `k' = a(p + h)`.
    pub fn effective_radix(&self) -> usize {
        self.a * (self.p + self.h)
    }

    /// Global channels leaving each group (`a·h`).
    pub fn global_ports_per_group(&self) -> usize {
        self.a * self.h
    }

    /// Whether the network satisfies the paper's load-balance rule
    /// `a = 2p = 2h`.
    pub fn is_balanced(&self) -> bool {
        self.a == 2 * self.p && self.a == 2 * self.h
    }

    /// Whether the network at least over-provisions local and terminal
    /// bandwidth relative to global bandwidth (`a >= 2h` and `p >= h`),
    /// the weaker condition the paper recommends so that the expensive
    /// global channels stay fully utilisable.
    pub fn is_over_provisioned(&self) -> bool {
        self.a >= 2 * self.h && self.p >= self.h
    }

    /// Group index of a terminal.
    ///
    /// # Panics
    ///
    /// Panics if `terminal` is out of range.
    pub fn group_of_terminal(&self, terminal: usize) -> usize {
        assert!(terminal < self.num_terminals(), "terminal out of range");
        terminal / (self.a * self.p)
    }

    /// Router (global index) of a terminal.
    ///
    /// # Panics
    ///
    /// Panics if `terminal` is out of range.
    pub fn router_of_terminal(&self, terminal: usize) -> usize {
        assert!(terminal < self.num_terminals(), "terminal out of range");
        terminal / self.p
    }

    /// Group index of a router.
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of range.
    pub fn group_of_router(&self, router: usize) -> usize {
        assert!(router < self.num_routers(), "router out of range");
        router / self.a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_n72() {
        // Figure 5: p = h = 2, a = 4 scales to N = 72 with k = 7.
        let d = DragonflyParams::new(2, 4, 2).unwrap();
        assert_eq!(d.num_terminals(), 72);
        assert_eq!(d.router_radix(), 7);
        assert_eq!(d.effective_radix(), 16);
        assert_eq!(d.num_groups(), 9);
        assert!(d.is_balanced());
    }

    #[test]
    fn paper_evaluation_network() {
        let d = DragonflyParams::new(4, 8, 4).unwrap();
        assert_eq!(d.num_groups(), 33);
        assert_eq!(d.num_routers(), 264);
        assert_eq!(d.num_terminals(), 1056);
    }

    #[test]
    fn figure4_scale_points_are_the_advertised_sizes() {
        // The two networks the scale-mode runs use: the benchmark's
        // 262K-terminal workload and the million-terminal release test.
        // (p, a, h) -> (groups, routers, terminals, radix).
        for ((p, a, h), sizes) in [
            ((16, 32, 16), (513, 16_416, 262_656, 63)),
            ((23, 46, 23), (1_059, 48_714, 1_120_422, 91)),
        ] {
            let d = DragonflyParams::new(p, a, h).unwrap();
            assert_eq!(
                (
                    d.num_groups(),
                    d.num_routers(),
                    d.num_terminals(),
                    d.router_radix()
                ),
                sizes,
                "p={p} a={a} h={h}"
            );
        }
    }

    #[test]
    fn radix64_scales_past_256k() {
        // §3.1: "with radix-64 routers, the topology scales to over 256K
        // nodes".
        let d = DragonflyParams::balanced_from_radix(64).unwrap();
        assert_eq!(d.router_radix(), 64);
        assert!(d.num_terminals() > 256 * 1024, "N = {}", d.num_terminals());
        assert!(d.is_over_provisioned());
    }

    #[test]
    fn balanced_from_radix_respects_radix() {
        for k in 3..=128 {
            let d = DragonflyParams::balanced_from_radix(k).unwrap();
            assert!(d.router_radix() <= k, "k={k} used {}", d.router_radix());
            assert!(d.is_over_provisioned(), "k={k}");
        }
    }

    #[test]
    fn small_group_count() {
        let d = DragonflyParams::with_groups(2, 4, 2, 5).unwrap();
        assert_eq!(d.num_terminals(), 40);
        assert_eq!(d.max_groups(), 9);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(DragonflyParams::new(0, 4, 2).is_err());
        assert!(DragonflyParams::with_groups(2, 4, 2, 1).is_err());
        assert!(DragonflyParams::with_groups(2, 4, 2, 10).is_err());
        assert!(DragonflyParams::balanced_from_radix(2).is_err());
    }

    #[test]
    fn index_maps() {
        let d = DragonflyParams::new(2, 4, 2).unwrap();
        // Terminal 17: group 2 (8 per group), router 8.
        assert_eq!(d.group_of_terminal(17), 2);
        assert_eq!(d.router_of_terminal(17), 8);
        assert_eq!(d.group_of_router(8), 2);
    }
}

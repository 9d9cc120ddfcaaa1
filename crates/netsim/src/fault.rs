//! Link-failure injection.
//!
//! A [`FaultPlan`] names a set of router-to-router cables to fail —
//! either explicitly or as a seeded random fraction of a channel class —
//! and [`crate::NetworkSpec::with_faults`] applies it, marking both
//! directions of every selected cable dead. Random draws are *nested*:
//! for a fixed seed, the fault set at fraction `f1 < f2` is a subset of
//! the set at `f2`, so degradation curves over increasing fractions
//! compare monotone fault sets instead of independent draws.
//!
//! [`FaultTable`] is the alive-path complement: per-destination BFS
//! next-hop tables over the surviving links, which topology adapters use
//! to detour packets around dead links.

use crate::error::SimError;
use crate::spec::{ChannelClass, Connection, HopColumn, NetworkSpec};

/// Which channel class a random fault draw selects from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Inter-group (optical) channels only.
    Global,
    /// Intra-group (electrical) channels only.
    Local,
    /// Any router-to-router channel.
    Any,
}

impl FaultClass {
    fn matches(self, class: ChannelClass) -> bool {
        match self {
            FaultClass::Global => class == ChannelClass::Global,
            FaultClass::Local => class == ChannelClass::Local,
            FaultClass::Any => class != ChannelClass::Terminal,
        }
    }
}

/// A set of cables to fail, resolved against a [`NetworkSpec`].
///
/// Terminal (injection/ejection) channels can never fail; a cable always
/// fails in both directions, preserving the spec's symmetric-pair
/// invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlan {
    /// No faults (the identity plan).
    None,
    /// Fail exactly the listed links, each named by one directed
    /// `(router, port)` endpoint (either direction of the cable works).
    Explicit(Vec<(usize, usize)>),
    /// Fail a seeded random `fraction` of the cables in `class`.
    ///
    /// The failed count is `round(fraction * cables_in_class)`; the
    /// selection is a hash order of the canonical cable list, so it is
    /// deterministic in `seed` and nested across fractions.
    Random {
        /// Fraction of matching cables to fail, in `[0, 1]`.
        fraction: f64,
        /// Seed of the hash order (same seed ⇒ nested fault sets).
        seed: u64,
        /// Channel class the draw selects from.
        class: FaultClass,
    },
}

impl FaultPlan {
    /// A seeded random fraction of the global channels.
    pub fn random_global(fraction: f64, seed: u64) -> Self {
        FaultPlan::Random {
            fraction,
            seed,
            class: FaultClass::Global,
        }
    }

    /// A seeded random fraction of the local channels.
    pub fn random_local(fraction: f64, seed: u64) -> Self {
        FaultPlan::Random {
            fraction,
            seed,
            class: FaultClass::Local,
        }
    }

    /// A seeded random fraction of all router-to-router channels.
    pub fn random_any(fraction: f64, seed: u64) -> Self {
        FaultPlan::Random {
            fraction,
            seed,
            class: FaultClass::Any,
        }
    }

    /// Whether the plan fails nothing.
    pub fn is_none(&self) -> bool {
        match self {
            FaultPlan::None => true,
            FaultPlan::Explicit(links) => links.is_empty(),
            FaultPlan::Random { fraction, .. } => *fraction == 0.0,
        }
    }

    /// Resolves the plan against `spec` into the canonical list of
    /// failed cables, each as the lexicographically smaller directed
    /// endpoint `(router, port)`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultPlan`] if a fraction is outside `[0, 1]`
    /// (or not finite), an explicit link names a port that does not
    /// exist or is a terminal channel, or a positive fraction draws from
    /// a class with no channels.
    pub fn resolve(&self, spec: &NetworkSpec) -> Result<Vec<(usize, usize)>, SimError> {
        let invalid = |msg: String| SimError::InvalidFaultPlan(msg);
        match self {
            FaultPlan::None => Ok(Vec::new()),
            FaultPlan::Explicit(links) => {
                let mut out = Vec::with_capacity(links.len());
                for &(r, p) in links {
                    let port = spec
                        .routers
                        .get(r)
                        .and_then(|router| router.ports.get(p))
                        .ok_or_else(|| invalid(format!("router {r} port {p} does not exist")))?;
                    match port.conn {
                        Connection::Terminal { .. } => {
                            return Err(invalid(format!(
                                "router {r} port {p} is a terminal channel; terminals cannot fail"
                            )))
                        }
                        Connection::Router {
                            router: peer,
                            port: peer_port,
                        } => {
                            let canon = canonical(r, p, peer as usize, peer_port as usize);
                            if !out.contains(&canon) {
                                out.push(canon);
                            }
                        }
                    }
                }
                out.sort_unstable();
                Ok(out)
            }
            FaultPlan::Random {
                fraction,
                seed,
                class,
            } => {
                if !fraction.is_finite() || !(0.0..=1.0).contains(fraction) {
                    return Err(invalid(format!("fraction {fraction} out of range [0, 1]")));
                }
                let mut cables: Vec<(usize, usize)> = Vec::new();
                for (r, p) in spec.network_channels() {
                    let port = &spec.routers[r].ports[p];
                    if !class.matches(port.class) {
                        continue;
                    }
                    if let Connection::Router {
                        router: peer,
                        port: peer_port,
                    } = port.conn
                    {
                        let canon = canonical(r, p, peer as usize, peer_port as usize);
                        if canon == (r, p) {
                            cables.push(canon);
                        }
                    }
                }
                if cables.is_empty() && *fraction > 0.0 {
                    return Err(invalid(format!("no channels of class {class:?} to fail")));
                }
                let count = (fraction * cables.len() as f64).round() as usize;
                // Hash order: stable in the seed, so a larger fraction's
                // fault set strictly contains a smaller one's.
                cables.sort_by_key(|&(r, p)| (splitmix(*seed, (r as u64) << 20 | p as u64), r, p));
                cables.truncate(count);
                cables.sort_unstable();
                Ok(cables)
            }
        }
    }
}

/// The smaller directed endpoint of a cable.
fn canonical(r: usize, p: usize, peer: usize, peer_port: usize) -> (usize, usize) {
    if (r, p) <= (peer, peer_port) {
        (r, p)
    } else {
        (peer, peer_port)
    }
}

/// SplitMix64 over a seed/value pair — the repo's standard deterministic
/// hash for seed-derived orderings.
fn splitmix(seed: u64, v: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(v)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One destination's reverse-BFS column, built lazily on first use.
#[derive(Debug, Clone)]
struct FaultCol {
    /// `next[router]` = output port toward the destination;
    /// [`HopColumn::UNREACHED`] when `router` is the destination or the
    /// destination is unreachable.
    next: Vec<u16>,
    /// `dist[router]` = alive hops to the destination, or
    /// [`HopColumn::UNREACHED`].
    dist: Vec<u16>,
}

/// Per-destination BFS next-hop tables over the alive links of a
/// (possibly faulted) [`NetworkSpec`].
///
/// Topology adapters consult this when faults are present: following
/// `next_port` strictly decreases the alive-graph distance every hop, so
/// a detoured packet can neither loop nor livelock, and its hop count is
/// bounded by the alive diameter.
///
/// Columns are materialised per destination on first touch, so memory is
/// `O(routers × destinations actually routed to)` instead of
/// `O(routers²)`: a fault confined to one region only ever builds the
/// columns for destinations whose traffic crosses it. Distances are
/// stored as `u16` — a network whose alive diameter exceeds 65534 hops
/// is far outside anything the spec layer can build.
#[derive(Debug)]
pub struct FaultTable {
    spec: NetworkSpec,
    cols: Vec<std::sync::OnceLock<Box<FaultCol>>>,
    diameter: u32,
}

impl Clone for FaultTable {
    fn clone(&self) -> Self {
        FaultTable {
            spec: self.spec.clone(),
            cols: self.cols.clone(),
            diameter: self.diameter,
        }
    }
}

impl FaultTable {
    /// Prepares lazy next-hop tables over the alive links of `spec`.
    ///
    /// Construction computes only the alive diameter (with `O(routers)`
    /// scratch); per-destination columns are built on first
    /// [`next_port`](Self::next_port) / [`distance`](Self::distance)
    /// touch.
    pub fn new(spec: &NetworkSpec) -> Self {
        let mut cols = Vec::new();
        cols.resize_with(spec.num_routers(), std::sync::OnceLock::new);
        FaultTable {
            spec: spec.clone(),
            cols,
            diameter: spec.all_pairs().0.into(),
        }
    }

    /// The faulted spec the tables were built over.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    fn col(&self, dest: usize) -> &FaultCol {
        self.cols[dest].get_or_init(|| {
            let mut col = HopColumn::default();
            self.spec.hops_to(dest, &mut col);
            Box::new(FaultCol {
                next: col.next,
                dist: col.dist,
            })
        })
    }

    /// The output port at `router` of a shortest alive path to `dest`,
    /// or `None` if `router == dest` or `dest` is unreachable.
    pub fn next_port(&self, router: usize, dest: usize) -> Option<usize> {
        let p = self.col(dest).next[router];
        (p != HopColumn::UNREACHED).then_some(p as usize)
    }

    /// Alive-graph hop distance, or `None` if unreachable.
    pub fn distance(&self, router: usize, dest: usize) -> Option<u32> {
        let d = self.col(dest).dist[router];
        (d != HopColumn::UNREACHED).then_some(d as u32)
    }

    /// The largest finite router-to-router distance over alive links.
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// How many destination columns have been materialised so far —
    /// observability for the laziness contract (and its tests).
    pub fn built_columns(&self) -> usize {
        self.cols.iter().filter(|c| c.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::ring_spec;

    #[test]
    fn none_plan_resolves_empty() {
        let spec = NetworkSpec::validated(ring_spec(4), 2).unwrap();
        assert!(FaultPlan::None.resolve(&spec).unwrap().is_empty());
        assert!(FaultPlan::None.is_none());
        assert!(FaultPlan::random_global(0.0, 7).is_none());
    }

    #[test]
    fn explicit_canonicalises_and_dedups() {
        let spec = NetworkSpec::validated(ring_spec(4), 2).unwrap();
        // Router 0 port 1 <-> router 1 port 2: both namings, twice.
        let plan = FaultPlan::Explicit(vec![(0, 1), (1, 2), (0, 1)]);
        let links = plan.resolve(&spec).unwrap();
        assert_eq!(links, vec![(0, 1)]);
    }

    #[test]
    fn explicit_rejects_missing_and_terminal_ports() {
        let spec = NetworkSpec::validated(ring_spec(4), 2).unwrap();
        let err = FaultPlan::Explicit(vec![(9, 0)])
            .resolve(&spec)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidFaultPlan(_)), "{err}");
        let err = FaultPlan::Explicit(vec![(0, 0)])
            .resolve(&spec)
            .unwrap_err();
        assert!(err.to_string().contains("terminal"), "{err}");
    }

    #[test]
    fn random_fraction_out_of_range_rejected() {
        let spec = NetworkSpec::validated(ring_spec(4), 2).unwrap();
        for f in [-0.1, 1.5, f64::NAN] {
            let err = FaultPlan::random_any(f, 1).resolve(&spec).unwrap_err();
            assert!(matches!(err, SimError::InvalidFaultPlan(_)), "{err}");
        }
    }

    #[test]
    fn random_draw_on_empty_class_rejected() {
        // The ring has only local channels.
        let spec = NetworkSpec::validated(ring_spec(4), 2).unwrap();
        let err = FaultPlan::random_global(0.5, 1).resolve(&spec).unwrap_err();
        assert!(err.to_string().contains("no channels"), "{err}");
    }

    #[test]
    fn random_draws_are_nested_across_fractions() {
        let spec = NetworkSpec::validated(ring_spec(8), 2).unwrap();
        let small = FaultPlan::random_any(0.25, 42).resolve(&spec).unwrap();
        let large = FaultPlan::random_any(0.5, 42).resolve(&spec).unwrap();
        assert!(small.len() < large.len());
        for link in &small {
            assert!(large.contains(link), "nested sets: {link:?}");
        }
        // Deterministic in the seed.
        assert_eq!(
            small,
            FaultPlan::random_any(0.25, 42).resolve(&spec).unwrap()
        );
        assert_ne!(
            small,
            FaultPlan::random_any(0.25, 43).resolve(&spec).unwrap()
        );
    }

    #[test]
    fn fault_table_columns_build_lazily() {
        let spec = NetworkSpec::validated(ring_spec(6), 2).unwrap();
        let spec = spec
            .with_faults(&FaultPlan::Explicit(vec![(0, 1)]))
            .unwrap();
        let table = FaultTable::new(&spec);
        assert_eq!(table.built_columns(), 0, "construction builds no columns");
        assert!(table.diameter() > 0, "diameter is still eager");
        table.next_port(0, 3);
        assert_eq!(table.built_columns(), 1);
        table.distance(5, 3);
        assert_eq!(table.built_columns(), 1, "same destination, same column");
        table.distance(5, 2);
        assert_eq!(table.built_columns(), 2);
    }

    #[test]
    fn fault_table_routes_around_a_dead_link() {
        let spec = NetworkSpec::validated(ring_spec(4), 2).unwrap();
        let spec = spec
            .with_faults(&FaultPlan::Explicit(vec![(0, 1)]))
            .unwrap();
        let table = FaultTable::new(&spec);
        // 0 -> 1 must now go the long way round: 3 hops.
        assert_eq!(table.distance(0, 1), Some(3));
        assert_eq!(table.distance(1, 0), Some(3));
        assert_eq!(table.distance(0, 0), Some(0));
        assert_eq!(table.next_port(0, 0), None);
        assert_eq!(table.diameter(), 3);
        // Walking next_port reaches the destination.
        let (mut r, mut hops) = (0usize, 0);
        while r != 1 {
            let p = table.next_port(r, 1).unwrap();
            assert!(!spec.is_failed(r, p));
            let Connection::Router { router, .. } = spec.routers[r].ports[p].conn else {
                panic!("next hop must be a router link");
            };
            r = router as usize;
            hops += 1;
            assert!(hops <= 3);
        }
    }
}

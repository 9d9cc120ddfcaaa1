//! Structural description of a simulatable network.

use crate::error::SimError;
use crate::fault::FaultPlan;

/// The packaging class of a channel, which determines its latency default
/// and whether the credit-delay mechanism applies to credits crossing it
/// (credits over *global* channels are never delayed, per §4.3.2 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelClass {
    /// Terminal (injection/ejection) channel between a node and its router.
    Terminal,
    /// Intra-group (or intra-cabinet) electrical channel.
    Local,
    /// Inter-group optical channel.
    Global,
}

/// What a router port is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connection {
    /// The port attaches terminal `terminal`.
    Terminal {
        /// Terminal index in `0..num_terminals`.
        terminal: u32,
    },
    /// The port attaches to `port` of `router` by a paired channel
    /// (one in each direction).
    Router {
        /// Peer router index.
        router: u32,
        /// Peer port index on that router.
        port: u32,
    },
}

/// One port of a router: its wiring, channel class and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSpec {
    /// Wiring of the port.
    pub conn: Connection,
    /// Channel latency in cycles (applies in both directions).
    pub latency: u32,
    /// Packaging class of the attached channel.
    pub class: ChannelClass,
}

/// A router: an ordered list of ports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterSpec {
    /// The router's ports, in a topology-defined order.
    pub ports: Vec<PortSpec>,
}

/// Alive hop distances and first-hop ports from every router toward one
/// destination router, filled by [`NetworkSpec::hops_to`].
#[derive(Debug, Clone, Default)]
pub struct HopColumn {
    /// `dist[r]`: alive hops from router `r` to the destination, or
    /// [`HopColumn::UNREACHED`].
    pub dist: Vec<u16>,
    /// `next[r]`: `r`'s output port on the first hop of a shortest alive
    /// path, or [`HopColumn::UNREACHED`] (at the destination, or no path).
    pub next: Vec<u16>,
    queue: std::collections::VecDeque<u32>,
}

impl HopColumn {
    /// The entry of a router with no alive path to the destination (and
    /// the `next` entry of the destination itself).
    pub const UNREACHED: u16 = u16::MAX;
}

/// A complete network description: routers, their wiring, terminals and
/// the virtual-channel count.
///
/// Built by topology adapters (the `dragonfly` crate builds dragonflies
/// and flattened butterflies); consumed by [`crate::Simulation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSpec {
    /// All routers.
    pub routers: Vec<RouterSpec>,
    /// Number of virtual channels on every channel.
    pub vcs: usize,
    /// For each terminal `t`, the `(router, port)` it attaches to.
    /// Derived by [`NetworkSpec::validated`].
    terminal_ports: Vec<(u32, u32)>,
    /// Per-router per-port failure mask; empty when no faults were
    /// applied. Both directions of a failed cable are marked.
    failed: Vec<Vec<bool>>,
    /// Canonical failed cables, as resolved by the applied [`FaultPlan`]
    /// (lexicographically smaller directed endpoint per cable).
    failed_links: Vec<(usize, usize)>,
}

impl NetworkSpec {
    /// Builds and validates a network description.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSpec`] describing the first structural
    /// defect found: dangling or asymmetric router-router wiring,
    /// mismatched latency or class across a channel pair, terminals that
    /// are missing, duplicated, or not densely numbered, local ports wired
    /// to a terminal (or vice versa), or a zero VC count. Catching these
    /// at construction means routing never encounters them at run time.
    pub fn validated(routers: Vec<RouterSpec>, vcs: usize) -> Result<Self, SimError> {
        let invalid = |msg: String| SimError::InvalidSpec(msg);
        if vcs == 0 {
            return Err(invalid("virtual channel count must be >= 1".into()));
        }
        let mut terminals: Vec<Option<(u32, u32)>> = Vec::new();
        for (r, router) in routers.iter().enumerate() {
            for (p, port) in router.ports.iter().enumerate() {
                match port.conn {
                    Connection::Terminal { terminal } => {
                        let t = terminal as usize;
                        if port.class != ChannelClass::Terminal {
                            return Err(invalid(format!(
                                "router {r} port {p}: terminal connection with class {:?}",
                                port.class
                            )));
                        }
                        if t >= terminals.len() {
                            terminals.resize(t + 1, None);
                        }
                        if terminals[t].is_some() {
                            return Err(invalid(format!("terminal {t} attached more than once")));
                        }
                        terminals[t] = Some((r as u32, p as u32));
                    }
                    Connection::Router {
                        router: peer,
                        port: peer_port,
                    } => {
                        let peer_spec = routers.get(peer as usize).ok_or_else(|| {
                            invalid(format!("router {r} port {p}: peer {peer} missing"))
                        })?;
                        let back = peer_spec.ports.get(peer_port as usize).ok_or_else(|| {
                            invalid(format!(
                                "router {r} port {p}: peer port {peer_port} missing"
                            ))
                        })?;
                        match back.conn {
                            Connection::Router {
                                router: rr,
                                port: pp,
                            } if rr as usize == r && pp as usize == p => {}
                            _ => {
                                return Err(invalid(format!(
                                "router {r} port {p}: peer {peer}:{peer_port} does not point back"
                            )))
                            }
                        }
                        if back.latency != port.latency || back.class != port.class {
                            return Err(invalid(format!(
                                "router {r} port {p}: latency/class mismatch with peer"
                            )));
                        }
                        if port.class == ChannelClass::Terminal {
                            return Err(invalid(format!(
                                "router {r} port {p}: router connection with terminal class"
                            )));
                        }
                    }
                }
                if port.latency == 0 {
                    return Err(invalid(format!(
                        "router {r} port {p}: latency must be >= 1"
                    )));
                }
            }
        }
        let terminal_ports = terminals
            .into_iter()
            .enumerate()
            .map(|(t, slot)| slot.ok_or_else(|| invalid(format!("terminal {t} not attached"))))
            .collect::<Result<Vec<_>, _>>()?;
        if terminal_ports.is_empty() {
            return Err(invalid("network has no terminals".into()));
        }
        Ok(NetworkSpec {
            routers,
            vcs,
            terminal_ports,
            failed: Vec::new(),
            failed_links: Vec::new(),
        })
    }

    /// Applies a [`FaultPlan`], failing both directions of every cable
    /// it resolves to. Faults compose: applying a second plan adds to
    /// the links already failed.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultPlan`] if the plan is malformed (see
    /// [`FaultPlan::resolve`]); [`SimError::Unreachable`] if the
    /// surviving links leave some pair of terminals disconnected —
    /// degraded networks always deliver, or they are rejected here, so
    /// routing never hangs on an unreachable destination.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Result<Self, SimError> {
        let links = plan.resolve(&self)?;
        if links.is_empty() {
            return Ok(self);
        }
        if self.failed.is_empty() {
            self.failed = self
                .routers
                .iter()
                .map(|r| vec![false; r.ports.len()])
                .collect();
        }
        for &(r, p) in &links {
            self.failed[r][p] = true;
            if let Connection::Router {
                router: peer,
                port: peer_port,
            } = self.routers[r].ports[p].conn
            {
                self.failed[peer as usize][peer_port as usize] = true;
            }
            if !self.failed_links.contains(&(r, p)) {
                self.failed_links.push((r, p));
            }
        }
        self.failed_links.sort_unstable();
        self.check_connected()?;
        Ok(self)
    }

    /// Checks that every terminal can reach every other over alive
    /// links (one reverse BFS toward the first terminal's router; links
    /// are symmetric pairs, so reaching it both ways is the same rule).
    ///
    /// # Errors
    ///
    /// [`SimError::Unreachable`] naming terminal 0 and the first
    /// terminal cut off from it.
    pub(crate) fn check_connected(&self) -> Result<(), SimError> {
        let mut col = HopColumn::default();
        self.hops_to(self.terminal_router(0), &mut col);
        let cut = |&(r, _): &(u32, u32)| col.dist[r as usize] == HopColumn::UNREACHED;
        match self.terminal_ports.iter().position(cut) {
            Some(dest) => Err(SimError::Unreachable { src: 0, dest }),
            None => Ok(()),
        }
    }

    /// Reverse BFS over the alive links toward router `dest`, filling
    /// `col` (whose buffers are reused, so a loop over destinations
    /// allocates once). Ports are scanned in index order and the first
    /// discovery of a router wins, so `col.next` is deterministic.
    /// Returns the largest finite distance in the column.
    pub fn hops_to(&self, dest: usize, col: &mut HopColumn) -> u16 {
        let n = self.routers.len();
        col.dist.clear();
        col.dist.resize(n, HopColumn::UNREACHED);
        col.next.clear();
        col.next.resize(n, HopColumn::UNREACHED);
        col.queue.clear();
        col.dist[dest] = 0;
        col.queue.push_back(dest as u32);
        let mut far = 0;
        while let Some(r) = col.queue.pop_front() {
            let d = col.dist[r as usize] + 1;
            // Links are symmetric pairs, so out-ports double as in-links:
            // `peer` reaches `r` through its own `peer_port`.
            for port in &self.routers[r as usize].ports {
                let Connection::Router {
                    router: peer,
                    port: peer_port,
                } = port.conn
                else {
                    continue;
                };
                let (peer, peer_port) = (peer as usize, peer_port as usize);
                if col.dist[peer] != HopColumn::UNREACHED || self.is_failed(peer, peer_port) {
                    continue;
                }
                col.dist[peer] = d;
                col.next[peer] = peer_port as u16;
                far = d;
                col.queue.push_back(peer as u32);
            }
        }
        far
    }

    /// One [`hops_to`](Self::hops_to) per router: the largest finite
    /// alive distance, the distance total over reached ordered pairs,
    /// and whether every pair was reached.
    pub(crate) fn all_pairs(&self) -> (u16, u64, bool) {
        let mut col = HopColumn::default();
        let (mut far, mut total, mut connected) = (0, 0u64, true);
        for dest in 0..self.routers.len() {
            far = far.max(self.hops_to(dest, &mut col));
            for &d in &col.dist {
                if d == HopColumn::UNREACHED {
                    connected = false;
                } else {
                    total += u64::from(d);
                }
            }
        }
        (far, total, connected)
    }

    /// Router-to-router diameter in hops over the alive links, ignoring
    /// terminal channels; `None` if some router cannot reach another.
    pub fn diameter(&self) -> Option<usize> {
        let (far, _, connected) = self.all_pairs();
        connected.then_some(far as usize)
    }

    /// Mean router-to-router hop count over the alive links, across all
    /// ordered pairs of distinct routers (integer total ÷ `n(n−1)`);
    /// `None` if disconnected or with fewer than two routers.
    pub fn average_hop_count(&self) -> Option<f64> {
        let n = self.routers.len() as f64;
        let (_, total, connected) = self.all_pairs();
        (connected && n >= 2.0).then(|| total as f64 / (n * (n - 1.0)))
    }

    /// Whether the directed channel out of `(router, port)` is failed.
    #[inline]
    pub fn is_failed(&self, router: usize, port: usize) -> bool {
        !self.failed.is_empty() && self.failed[router][port]
    }

    /// Whether any fault plan has been applied.
    #[inline]
    pub fn has_faults(&self) -> bool {
        !self.failed_links.is_empty()
    }

    /// The canonical failed cables (one `(router, port)` endpoint each).
    pub fn failed_links(&self) -> &[(usize, usize)] {
        &self.failed_links
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Number of terminals.
    pub fn num_terminals(&self) -> usize {
        self.terminal_ports.len()
    }

    /// The `(router, port)` a terminal attaches to.
    ///
    /// # Panics
    ///
    /// Panics if `terminal` is out of range.
    pub fn terminal_port(&self, terminal: usize) -> (usize, usize) {
        let (r, p) = self.terminal_ports[terminal];
        (r as usize, p as usize)
    }

    /// The router a terminal attaches to.
    ///
    /// # Panics
    ///
    /// Panics if `terminal` is out of range.
    pub fn terminal_router(&self, terminal: usize) -> usize {
        self.terminal_ports[terminal].0 as usize
    }

    /// Iterates over all directed router-to-router channels as
    /// `(router, port)` pairs (each physical cable appears twice, once per
    /// direction).
    pub fn network_channels(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.routers.iter().enumerate().flat_map(|(r, spec)| {
            spec.ports
                .iter()
                .enumerate()
                .filter(|(_, p)| matches!(p.conn, Connection::Router { .. }))
                .map(move |(i, _)| (r, i))
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    /// A ring of `n` routers, one terminal each: port 0 terminal,
    /// port 1 clockwise, port 2 counter-clockwise.
    pub(crate) fn ring_spec(n: usize) -> Vec<RouterSpec> {
        (0..n)
            .map(|r| RouterSpec {
                ports: vec![
                    PortSpec {
                        conn: Connection::Terminal { terminal: r as u32 },
                        latency: 1,
                        class: ChannelClass::Terminal,
                    },
                    PortSpec {
                        conn: Connection::Router {
                            router: ((r + 1) % n) as u32,
                            port: 2,
                        },
                        latency: 1,
                        class: ChannelClass::Local,
                    },
                    PortSpec {
                        conn: Connection::Router {
                            router: ((r + n - 1) % n) as u32,
                            port: 1,
                        },
                        latency: 1,
                        class: ChannelClass::Local,
                    },
                ],
            })
            .collect()
    }

    /// A complete graph on `n` routers, one terminal each: port 0
    /// terminal, port `1 + i` to the i-th other router (in index order).
    pub(crate) fn full_spec(n: usize) -> Vec<RouterSpec> {
        let port_to = |r: usize, s: usize| if s < r { 1 + s } else { s };
        (0..n)
            .map(|r| {
                let mut ports = vec![PortSpec {
                    conn: Connection::Terminal { terminal: r as u32 },
                    latency: 1,
                    class: ChannelClass::Terminal,
                }];
                for s in (0..n).filter(|&s| s != r) {
                    ports.push(PortSpec {
                        conn: Connection::Router {
                            router: s as u32,
                            port: port_to(s, r) as u32,
                        },
                        latency: 1,
                        class: ChannelClass::Local,
                    });
                }
                RouterSpec { ports }
            })
            .collect()
    }

    /// Two routers joined by one local channel, one terminal each.
    pub(crate) fn tiny_spec() -> Vec<RouterSpec> {
        let term = |t: u32| PortSpec {
            conn: Connection::Terminal { terminal: t },
            latency: 1,
            class: ChannelClass::Terminal,
        };
        let link = |r: u32, p: u32| PortSpec {
            conn: Connection::Router { router: r, port: p },
            latency: 1,
            class: ChannelClass::Local,
        };
        vec![
            RouterSpec {
                ports: vec![term(0), link(1, 0)],
            },
            RouterSpec {
                ports: vec![link(0, 1), term(1)],
            },
        ]
    }

    #[test]
    fn valid_spec_accepted() {
        let spec = NetworkSpec::validated(tiny_spec(), 3).unwrap();
        assert_eq!(spec.num_routers(), 2);
        assert_eq!(spec.num_terminals(), 2);
        assert_eq!(spec.terminal_port(0), (0, 0));
        assert_eq!(spec.terminal_port(1), (1, 1));
        assert_eq!(spec.network_channels().count(), 2);
    }

    #[test]
    fn asymmetric_wiring_rejected() {
        let mut routers = tiny_spec();
        routers[1].ports[0].conn = Connection::Router { router: 0, port: 0 };
        let err = NetworkSpec::validated(routers, 3).unwrap_err().to_string();
        assert!(err.contains("does not point back"), "{err}");
    }

    #[test]
    fn latency_mismatch_rejected() {
        let mut routers = tiny_spec();
        routers[1].ports[0].latency = 5;
        let err = NetworkSpec::validated(routers, 3).unwrap_err().to_string();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn duplicate_terminal_rejected() {
        let mut routers = tiny_spec();
        routers[1].ports[1].conn = Connection::Terminal { terminal: 0 };
        let err = NetworkSpec::validated(routers, 3).unwrap_err().to_string();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn missing_terminal_rejected() {
        let mut routers = tiny_spec();
        routers[1].ports[1].conn = Connection::Terminal { terminal: 2 };
        let err = NetworkSpec::validated(routers, 3).unwrap_err().to_string();
        assert!(err.contains("terminal 1 not attached"), "{err}");
    }

    #[test]
    fn zero_vcs_rejected() {
        let err = NetworkSpec::validated(tiny_spec(), 0)
            .unwrap_err()
            .to_string();
        assert!(err.contains("virtual channel"), "{err}");
    }

    #[test]
    fn zero_latency_rejected() {
        let mut routers = tiny_spec();
        routers[0].ports[0].latency = 0;
        routers[1].ports[1].latency = 0;
        let err = NetworkSpec::validated(routers, 2).unwrap_err().to_string();
        assert!(err.contains("latency"), "{err}");
    }

    #[test]
    fn fault_application_marks_both_directions() {
        let spec = NetworkSpec::validated(ring_spec(4), 2).unwrap();
        assert!(!spec.has_faults());
        let spec = spec
            .with_faults(&FaultPlan::Explicit(vec![(1, 2)]))
            .unwrap();
        assert!(spec.has_faults());
        // (1,2) <-> (0,1): canonical endpoint is (0,1).
        assert_eq!(spec.failed_links(), &[(0, 1)]);
        assert!(spec.is_failed(0, 1));
        assert!(spec.is_failed(1, 2));
        assert!(!spec.is_failed(1, 1));
        assert!(!spec.is_failed(0, 0));
    }

    #[test]
    fn faults_compose_across_applications() {
        // A complete graph survives two separate cable failures.
        let spec = NetworkSpec::validated(full_spec(4), 2)
            .unwrap()
            .with_faults(&FaultPlan::Explicit(vec![(0, 1)]))
            .unwrap()
            .with_faults(&FaultPlan::Explicit(vec![(2, 3)]))
            .unwrap();
        assert_eq!(spec.failed_links(), &[(0, 1), (2, 3)]);
        // A later application that disconnects on top of the earlier
        // faults is still caught.
        let spec2 = NetworkSpec::validated(ring_spec(4), 2)
            .unwrap()
            .with_faults(&FaultPlan::Explicit(vec![(0, 1)]))
            .unwrap();
        let err = spec2
            .with_faults(&FaultPlan::Explicit(vec![(1, 1)]))
            .unwrap_err();
        assert_eq!(err, SimError::Unreachable { src: 0, dest: 1 });
    }

    #[test]
    fn disconnecting_plan_surfaces_unreachable() {
        // Failing both ring links around router 1 isolates terminal 1.
        let spec = NetworkSpec::validated(ring_spec(4), 2).unwrap();
        let err = spec
            .with_faults(&FaultPlan::Explicit(vec![(0, 1), (1, 1)]))
            .unwrap_err();
        assert_eq!(err, SimError::Unreachable { src: 0, dest: 1 });
    }

    #[test]
    fn none_plan_leaves_spec_unchanged() {
        let spec = NetworkSpec::validated(ring_spec(4), 2).unwrap();
        let same = spec.clone().with_faults(&FaultPlan::None).unwrap();
        assert_eq!(spec, same);
        assert!(!same.has_faults());
    }

    #[test]
    fn ring_hops_take_the_short_way_round() {
        let spec = NetworkSpec::validated(ring_spec(8), 2).unwrap();
        let mut col = HopColumn::default();
        assert_eq!(spec.hops_to(0, &mut col), 4);
        assert_eq!(col.dist, [0, 1, 2, 3, 4, 3, 2, 1]);
        // Port 1 is clockwise, port 2 counter-clockwise; router 4 is
        // first discovered from router 3, so it goes counter-clockwise.
        assert_eq!(col.next, [HopColumn::UNREACHED, 2, 2, 2, 2, 1, 1, 1]);
        assert_eq!(spec.diameter(), Some(4));
        // Each router sees 1, 1, 2, 2, 3, 3, 4 hops: 16 over 7 others.
        assert_eq!(spec.average_hop_count(), Some(16.0 / 7.0));
    }

    #[test]
    fn complete_spec_mean_hop_count_is_one() {
        let complete = NetworkSpec::validated(full_spec(5), 2).unwrap();
        assert_eq!(complete.diameter(), Some(1));
        assert_eq!(complete.average_hop_count(), Some(1.0));
    }

    #[test]
    fn hop_metrics_follow_alive_links_only() {
        let cut = NetworkSpec::validated(ring_spec(4), 2)
            .unwrap()
            .with_faults(&FaultPlan::Explicit(vec![(0, 1)]))
            .unwrap();
        assert_eq!(cut.diameter(), Some(3));
        let mut col = HopColumn::default();
        cut.hops_to(1, &mut col);
        assert_eq!(col.dist, [3, 0, 1, 2]);
        assert_eq!(col.next[0], 2, "router 0 detours counter-clockwise");
        // Two routers with no link between them.
        let mut routers = tiny_spec();
        routers[0].ports.pop();
        routers[1].ports.remove(0);
        let apart = NetworkSpec::validated(routers, 1).unwrap();
        assert_eq!(apart.diameter(), None);
        assert_eq!(apart.average_hop_count(), None);
        assert_eq!(
            apart.check_connected(),
            Err(SimError::Unreachable { src: 0, dest: 1 })
        );
        apart.hops_to(0, &mut col);
        assert_eq!(col.dist, [0, HopColumn::UNREACHED]);
    }

    #[test]
    fn wrong_class_on_terminal_rejected() {
        let mut routers = tiny_spec();
        routers[0].ports[0].class = ChannelClass::Local;
        let err = NetworkSpec::validated(routers, 2).unwrap_err().to_string();
        assert!(err.contains("terminal connection with class"), "{err}");
    }
}

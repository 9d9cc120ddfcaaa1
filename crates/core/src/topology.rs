//! The dragonfly topology: wiring, port maps and route primitives.

use std::collections::VecDeque;

use dfly_netsim::{
    CandidatePath, ChannelClass, Connection, FaultPlan, NetworkSpec, PortSpec, PortVc, RouteClass,
    RouteInfo, RouterSpec, SimError,
};

use crate::params::DragonflyParams;

/// Channel latencies per packaging class, in cycles.
///
/// The paper's routing study uses unit latencies (its latency plots are
/// in hop-count-scale cycles); the fields exist so that experiments can
/// model long optical global channels explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelLatencies {
    /// Terminal (injection/ejection) channel latency.
    pub terminal: u32,
    /// Intra-group (local, electrical) channel latency.
    pub local: u32,
    /// Inter-group (global, optical) channel latency.
    pub global: u32,
}

impl Default for ChannelLatencies {
    fn default() -> Self {
        ChannelLatencies {
            terminal: 1,
            local: 1,
            global: 1,
        }
    }
}

/// The most intra-group dimensions a [`GroupTopology`] may have.
const MAX_GROUP_DIMS: usize = 8;

/// How the `a` routers of a group are connected (§3.2, Figure 6).
///
/// The paper's default is a fully connected group — equivalently a 1-D
/// flattened butterfly. Higher-dimensional intra-group flattened
/// butterflies spend fewer local ports per router (raising the radix
/// available for terminals and global channels, and exploiting
/// packaging locality) at the price of extra local hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupTopology {
    /// Every pair of routers in the group directly connected.
    Complete,
    /// Routers at the points of an n-D grid, fully connected within
    /// each dimension; the dimension sizes must multiply to `a`.
    FlattenedButterfly(Vec<usize>),
}

/// A fully wired dragonfly network.
///
/// Groups are internally a flattened butterfly — fully connected (1-D)
/// by default, the organisation the paper evaluates — and the
/// inter-group channels are laid out in *offset rings*: for each offset
/// `d`, one channel joins every pair of groups `(i, i+d)`. In a
/// maximum-size dragonfly (`g = a·h + 1`) this places exactly one
/// channel between every pair of groups; smaller networks repeat rings,
/// giving every pair at least `⌊a·h/(g-1)⌋` channels as the paper
/// requires.
///
/// Within a group, global slot `q ∈ [0, a·h)` lives on router `q / h`,
/// global port `q mod h`.
///
/// Every fault-free routing answer is read from three small tables
/// built once with the wiring — the ring of each global slot (`a·h`
/// entries), the rings at each offset (`g/2 + 2` starts over the
/// rings), and the group-local `(port, hops)` table (`a²` entries) — so
/// routing memory is O(a·h + a² + g), independent of the terminal count.
///
/// # Example
///
/// ```
/// use dragonfly::{Dragonfly, DragonflyParams};
///
/// let df = Dragonfly::new(DragonflyParams::new(2, 4, 2).unwrap());
/// assert_eq!(df.params().num_terminals(), 72);
/// let spec = df.build_spec();
/// assert_eq!(spec.diameter(), Some(3)); // local - global - local
/// ```
#[derive(Debug, Clone)]
pub struct Dragonfly {
    params: DragonflyParams,
    latencies: ChannelLatencies,
    /// Intra-group dimension sizes (product = `a`); `[a]` for a
    /// complete group.
    dims: Vec<usize>,
    /// Local ports per router: `Σ (dims[d] - 1)`.
    local_ports: usize,
    /// The offset rings the construction placed, ordered by offset `d`
    /// and, within one offset, by placement (bases ascending). Every
    /// group's slot layout is identical — each ring advances every
    /// group's next free slot by exactly its cost — so the whole
    /// `(group, slot) → (peer_group, peer_slot)` wiring is arithmetic
    /// over this O(a·h)-entry schedule instead of O(g²) slot tables.
    rings: Vec<Ring>,
    /// The rings at offset `d` are `rings[ring_start[d]..ring_start[d +
    /// 1]]` (`g/2 + 2` entries); an offset has more than one ring when
    /// the port budget repeats rings, none at `d = 0`.
    ring_start: Vec<u16>,
    /// Global slot `q` of any group (`a·h` entries): its router, port
    /// and ring.
    slots: Vec<Slot>,
    /// Fault-free group-local routing, `local[i * a + j]`: the
    /// dimension-ordered first port and the hop count from group member
    /// `i` to member `j` (port [`NO_PORT`] and 0 hops on the diagonal).
    local: Vec<LocalHop>,
    /// Global slots per group left unused (by the ring construction or
    /// bandwidth tapering).
    unused_slots_per_group: usize,
    /// Link-failure state, present after [`Dragonfly::with_fault_plan`].
    faults: Option<Box<DragonflyFaults>>,
}

/// One placed offset ring of the global-channel construction: every
/// group spends `cost` consecutive slots starting at `base` on channels
/// to its partner(s) at ring offset `d`.
#[derive(Debug, Clone, Copy)]
struct Ring {
    /// Ring offset, in `1..=g/2`.
    d: u16,
    /// First slot index of this ring in every group's slot numbering.
    base: u16,
    /// Slots per group: 1 for the self-paired middle ring (`2d = g`),
    /// otherwise 2 (one toward `+d`, one toward `-d`).
    cost: u8,
}

/// One global slot of a group's slot numbering.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Group-local index of the router owning the slot (`q / h`).
    router: u16,
    /// The slot's port on that router (`p + local ports + q mod h`).
    port: u16,
    /// Index into [`Dragonfly::rings`] of the slot's ring; [`NO_RING`]
    /// for a slot the construction left unused.
    ring: u16,
}

/// [`Slot::ring`] of an unused slot.
const NO_RING: u16 = u16::MAX;

/// A group-local route: the first port from one group member toward
/// another and the local hops it takes. Under a fault plan the same
/// pair is read from [`DragonflyFaults`]' BFS tables.
#[derive(Debug, Clone, Copy)]
struct LocalHop {
    port: u16,
    hops: u16,
}

/// [`LocalHop::port`] from a router to itself.
const NO_PORT: u16 = u16::MAX;

/// Derived fault state: which channels survive and how to route around
/// the dead ones while keeping the paper's VC schedule intact. Local
/// detours stay inside their group (each group must remain internally
/// connected) and global detours stay within the Valiant shape (at most
/// one intermediate group), so every route still ascends
/// `l0 < g0 < l1 < g1 < l2` and deadlock freedom is preserved.
#[derive(Debug, Clone)]
struct DragonflyFaults {
    /// Canonical failed cables, as `(router, port)` spec endpoints.
    failed_links: Vec<(usize, usize)>,
    /// [`Dragonfly::links`] filtered to surviving slots:
    /// `alive[src_group * g + dst_group]`.
    alive_links: Vec<Vec<u16>>,
    /// Valiant intermediates still usable for each ordered group pair:
    /// `viable[gs * g + gd]` = groups `gi` with alive `gs→gi` *and*
    /// `gi→gd` channels.
    viable_inter: Vec<Vec<u32>>,
    /// BFS next-hop local port over alive intra-group links:
    /// `next[router * a + target_group_index]`; `u16::MAX` on the
    /// diagonal.
    local_next: Vec<u16>,
    /// BFS intra-group hop distance, same indexing.
    local_dist: Vec<u16>,
    /// Longest surviving intra-group shortest path (≥ the fault-free
    /// group diameter), for the route hop bound.
    max_local_dist: usize,
}

impl From<DragonflyParams> for Dragonfly {
    fn from(params: DragonflyParams) -> Self {
        Dragonfly::new(params)
    }
}

impl Dragonfly {
    /// Builds the dragonfly for `params` with fully connected groups and
    /// unit channel latencies.
    pub fn new(params: DragonflyParams) -> Self {
        Self::with_latencies(params, ChannelLatencies::default())
    }

    /// Builds the dragonfly with explicit channel latencies.
    pub fn with_latencies(params: DragonflyParams, latencies: ChannelLatencies) -> Self {
        Self::with_group_topology(params, GroupTopology::Complete, latencies)
            .expect("complete group is always valid")
    }

    /// Builds a dragonfly with an explicit intra-group organisation
    /// (§3.2, Figure 6).
    ///
    /// # Errors
    ///
    /// Returns an error if a flattened-butterfly group's dimension sizes
    /// do not multiply to `a`, contain a dimension smaller than 2, are
    /// empty, or number more than 8.
    pub fn with_group_topology(
        params: DragonflyParams,
        group: GroupTopology,
        latencies: ChannelLatencies,
    ) -> Result<Self, String> {
        let a = params.routers_per_group();
        let dims = match group {
            GroupTopology::Complete => vec![a],
            GroupTopology::FlattenedButterfly(dims) => {
                if dims.is_empty() || dims.len() > MAX_GROUP_DIMS {
                    return Err(format!("group needs 1 to {MAX_GROUP_DIMS} dimensions"));
                }
                if dims.iter().any(|&s| s < 2) {
                    return Err("every group dimension needs >= 2 routers".into());
                }
                if dims.iter().product::<usize>() != a {
                    return Err(format!(
                        "group dimensions {dims:?} do not multiply to a = {a}"
                    ));
                }
                dims
            }
        };
        Ok(Self::build(params, dims, latencies, 1.0))
    }

    /// Builds a dragonfly with tapered global bandwidth (§3.2): only
    /// `taper` of each group's `a·h` global ports are wired, uniformly
    /// over the offset rings, reducing inter-group cost when full
    /// global bandwidth is not needed. Groups are fully connected and
    /// channel latencies are the defaults.
    ///
    /// # Errors
    ///
    /// Returns an error if `taper` is outside `(0, 1]` or leaves some
    /// pair of groups unconnected.
    pub fn with_taper(params: DragonflyParams, taper: f64) -> Result<Self, String> {
        if !(taper > 0.0 && taper <= 1.0) {
            return Err(format!("taper {taper} outside (0, 1]"));
        }
        let df = Self::build(
            params,
            vec![params.routers_per_group()],
            ChannelLatencies::default(),
            taper,
        );
        let g = params.num_groups();
        for i in 0..g {
            for j in 0..g {
                if i != j && df.global_slot_count(i, j) == 0 {
                    return Err(format!(
                        "taper {taper} leaves groups {i} and {j} unconnected"
                    ));
                }
            }
        }
        Ok(df)
    }

    fn build(
        params: DragonflyParams,
        dims: Vec<usize>,
        latencies: ChannelLatencies,
        taper: f64,
    ) -> Self {
        let g = params.num_groups();
        let ah = params.global_ports_per_group();

        // Ring construction: repeatedly sweep offsets d = 1 .. g/2,
        // adding one full ring of channels per offset while every group
        // still has ports for it (2 per ring, or 1 for the self-paired
        // ring d = g/2 when g is even). Tapering shrinks the budget.
        //
        // Only the *schedule* of placed rings is recorded: a ring
        // advances every group's next free slot by exactly its cost, so
        // all groups share one slot layout and every `(group, slot)`
        // endpoint is recomputable from `(d, base, cost)` — see
        // [`Dragonfly::slot_in_ring`] / [`Dragonfly::global_slot_target`].
        let mut budget = ((ah as f64) * taper).round() as usize;
        let unused = ah - budget;
        let half = g / 2;
        let mut rings = Vec::new();
        let mut base = 0usize;
        'outer: loop {
            let mut placed = false;
            for d in 1..=half {
                let cost = if 2 * d == g { 1 } else { 2 };
                if budget < cost {
                    continue;
                }
                budget -= cost;
                placed = true;
                rings.push(Ring {
                    d: d as u16,
                    base: base as u16,
                    cost: cost as u8,
                });
                base += cost;
                if budget == 0 {
                    break 'outer;
                }
            }
            if !placed {
                // One port per group left but every remaining ring costs
                // two: the leftover ports stay unconnected.
                break;
            }
        }

        // Group the rings by offset (the sort is stable, so each
        // offset's rings keep placement order) and index them by offset.
        rings.sort_by_key(|r| r.d);
        let ring_start = (0..=half + 1)
            .map(|d| rings.partition_point(|r| (r.d as usize) < d) as u16)
            .collect();

        let p = params.terminals_per_router();
        let h = params.global_ports_per_router();
        let mut dim_base = Vec::with_capacity(dims.len());
        let mut local_ports = 0;
        for &s in &dims {
            dim_base.push(local_ports);
            local_ports += s - 1;
        }
        let mut slots: Vec<Slot> = (0..ah)
            .map(|q| Slot {
                router: (q / h) as u16,
                port: (p + local_ports + q % h) as u16,
                ring: NO_RING,
            })
            .collect();
        for (i, r) in rings.iter().enumerate() {
            let base = r.base as usize;
            for slot in &mut slots[base..base + r.cost as usize] {
                slot.ring = i as u16;
            }
        }

        // The dimension-ordered local route between every ordered pair
        // of group members: it corrects the lowest differing dimension
        // first, and takes one hop per differing dimension.
        let a = params.routers_per_group();
        let coords: Vec<[usize; MAX_GROUP_DIMS]> = (0..a)
            .map(|idx| {
                let mut coords = [0usize; MAX_GROUP_DIMS];
                let mut rem = idx;
                for (d, &s) in dims.iter().enumerate() {
                    coords[d] = rem % s;
                    rem /= s;
                }
                coords
            })
            .collect();
        let mut local = Vec::with_capacity(a * a);
        for me in &coords {
            for them in &coords {
                let mut differ = (0..dims.len()).filter(|&d| me[d] != them[d]);
                let port = differ.next().map_or(NO_PORT, |d| {
                    let them = them[d] - usize::from(them[d] > me[d]);
                    (p + dim_base[d] + them) as u16
                });
                let hops = u16::from(port != NO_PORT) + differ.count() as u16;
                local.push(LocalHop { port, hops });
            }
        }

        Dragonfly {
            params,
            latencies,
            dims,
            local_ports,
            rings,
            ring_start,
            slots,
            local,
            unused_slots_per_group: unused + budget,
            faults: None,
        }
    }

    /// Builds the dragonfly for `params` with the given link failures
    /// applied (see [`Dragonfly::with_fault_plan`]).
    ///
    /// # Errors
    ///
    /// Everything [`Dragonfly::with_fault_plan`] rejects.
    pub fn with_faults(params: DragonflyParams, plan: &FaultPlan) -> Result<Self, SimError> {
        Self::new(params).with_fault_plan(plan)
    }

    /// Applies a [`FaultPlan`] on top of this dragonfly (composing with
    /// any faults already present), rebuilding the routing tables to
    /// steer around the dead links: global channel picks draw from the
    /// surviving parallel slots, local hops follow per-group BFS
    /// next-hop tables, and Valiant intermediates are restricted to
    /// groups with both legs alive.
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidFaultPlan`] for malformed plans (see
    ///   [`FaultPlan::resolve`]) and for plans whose local failures
    ///   disconnect a group internally — fault-aware routing keeps the
    ///   paper's VC schedule by detouring locals *within* their group.
    /// - [`SimError::Unreachable`] when some group pair retains neither
    ///   a direct alive channel nor any viable intermediate group, so
    ///   traffic between those groups cannot be delivered.
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Result<Self, SimError> {
        // `build_spec` re-applies any existing faults, so the new plan
        // composes; `with_faults` also re-checks global connectivity.
        let spec = self.build_spec().with_faults(plan)?;
        if spec.failed_links().is_empty() {
            self.faults = None;
            return Ok(self);
        }
        self.faults = Some(Box::new(self.compute_faults(&spec)?));
        Ok(self)
    }

    /// Derives the fault-routing tables from a spec with failures marked.
    fn compute_faults(&self, spec: &NetworkSpec) -> Result<DragonflyFaults, SimError> {
        let g = self.params.num_groups();
        let a = self.params.routers_per_group();
        let p = self.params.terminals_per_router();

        let mut alive_links = vec![Vec::new(); g * g];
        for i in 0..g {
            for j in 0..g {
                if i == j {
                    continue;
                }
                alive_links[i * g + j] = self
                    .rings_between(i, j)
                    .iter()
                    .map(|&ring| self.slot_in_ring(ring, i, j))
                    .filter(|&q| !spec.is_failed(self.slot_router(i, q), self.slot_port(q)))
                    .map(|q| q as u16)
                    .collect();
            }
        }

        let mut viable_inter = vec![Vec::new(); g * g];
        for gs in 0..g {
            for gd in 0..g {
                if gs == gd {
                    continue;
                }
                viable_inter[gs * g + gd] = (0..g)
                    .filter(|&gi| {
                        gi != gs
                            && gi != gd
                            && !alive_links[gs * g + gi].is_empty()
                            && !alive_links[gi * g + gd].is_empty()
                    })
                    .map(|gi| gi as u32)
                    .collect();
            }
        }

        // Per-group BFS from every target over the surviving local
        // links: `local_next[v*a + t]` is v's port one shortest alive
        // hop toward group member t.
        let n = self.params.num_routers();
        let mut local_next = vec![u16::MAX; n * a];
        let mut local_dist = vec![u16::MAX; n * a];
        let mut max_local_dist = 0usize;
        let mut queue = VecDeque::new();
        for grp in 0..g {
            let base = grp * a;
            for t_idx in 0..a {
                local_dist[(base + t_idx) * a + t_idx] = 0;
                queue.clear();
                queue.push_back(base + t_idx);
                while let Some(u) = queue.pop_front() {
                    let du = local_dist[u * a + t_idx];
                    for lp in p..p + self.local_ports {
                        if spec.is_failed(u, lp) {
                            continue;
                        }
                        let Connection::Router { router, port } = spec.routers[u].ports[lp].conn
                        else {
                            continue;
                        };
                        let (v, vp) = (router as usize, port as usize);
                        if local_dist[v * a + t_idx] != u16::MAX {
                            continue;
                        }
                        local_dist[v * a + t_idx] = du + 1;
                        local_next[v * a + t_idx] = vp as u16;
                        max_local_dist = max_local_dist.max(du as usize + 1);
                        queue.push_back(v);
                    }
                }
                for idx in 0..a {
                    if local_dist[(base + idx) * a + t_idx] == u16::MAX {
                        return Err(SimError::InvalidFaultPlan(format!(
                            "local faults disconnect group {grp}: router {} cannot reach \
                             router {} inside the group (local detours never leave a group, \
                             preserving the VC schedule)",
                            base + idx,
                            base + t_idx
                        )));
                    }
                }
            }
        }

        // Every group pair must keep a direct channel or one viable
        // Valiant intermediate; otherwise the dragonfly route shapes
        // cannot deliver and the plan is rejected up front (typed error,
        // never a routing hang).
        let tpg = a * p;
        for gs in 0..g {
            for gd in 0..g {
                if gs != gd
                    && alive_links[gs * g + gd].is_empty()
                    && viable_inter[gs * g + gd].is_empty()
                {
                    return Err(SimError::Unreachable {
                        src: gs * tpg,
                        dest: gd * tpg,
                    });
                }
            }
        }

        Ok(DragonflyFaults {
            failed_links: spec.failed_links().to_vec(),
            alive_links,
            viable_inter,
            local_next,
            local_dist,
            max_local_dist,
        })
    }

    /// Whether a fault plan has been applied.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// The canonical failed cables, empty for a fault-free network.
    pub fn failed_links(&self) -> &[(usize, usize)] {
        self.faults.as_ref().map_or(&[], |f| &f.failed_links)
    }

    /// The Valiant intermediate groups still viable between `gs` and
    /// `gd` (both legs alive), or `None` on a fault-free network where
    /// every third group is viable.
    pub fn viable_intermediates(&self, gs: usize, gd: usize) -> Option<&[u32]> {
        let g = self.params.num_groups();
        assert!(gs < g && gd < g, "group out of range");
        self.faults
            .as_ref()
            .map(|f| f.viable_inter[gs * g + gd].as_slice())
    }

    /// How many parallel `gs → gd` global channels a fault plan removed
    /// (0 on a fault-free network).
    fn dead_global_slots(&self, gs: usize, gd: usize) -> u32 {
        let g = self.params.num_groups();
        match &self.faults {
            Some(f) => (self.rings_between(gs, gd).len() - f.alive_links[gs * g + gd].len()) as u32,
            None => 0,
        }
    }

    /// The configuration parameters.
    pub fn params(&self) -> &DragonflyParams {
        &self.params
    }

    /// The configured channel latencies.
    pub fn latencies(&self) -> ChannelLatencies {
        self.latencies
    }

    /// Local (intra-group) ports per router: `a - 1` for a complete
    /// group, fewer for multi-dimensional groups.
    pub fn local_ports_per_router(&self) -> usize {
        self.local_ports
    }

    /// Upper bound on the hops of any valid route, derived from the
    /// topology diameter: the longest (Valiant) route traverses at most
    /// three groups — each at most the intra-group diameter, which is
    /// the group's dimension count (under faults, the longest surviving
    /// intra-group shortest path) — plus two global channels and the
    /// ejection hop. Route walkers ([`crate::NetworkSim::trace_route`],
    /// [`dfly_netsim::trace_path`]) report a
    /// [`dfly_netsim::SimError::RouteLoop`] past this bound.
    pub fn route_hop_bound(&self) -> usize {
        let group_diameter = match &self.faults {
            Some(f) => f.max_local_dist.max(self.dims.len()),
            None => self.dims.len(),
        };
        3 * group_diameter + 3
    }

    /// Actual router radix: `p + local ports + h`. Equals
    /// [`DragonflyParams::router_radix`] for complete groups and is
    /// smaller for multi-dimensional groups — the §3.2 trade.
    pub fn router_radix(&self) -> usize {
        self.params.terminals_per_router()
            + self.local_ports
            + self.params.global_ports_per_router()
    }

    /// Global ports per group the construction left unused (non-zero
    /// for some non-maximal configurations and for tapered networks).
    pub fn unused_global_ports_per_group(&self) -> usize {
        self.unused_slots_per_group
    }

    /// The rings joining `x` to `y`: those at the pair's offset
    /// `min((y - x) mod g, (x - y) mod g)`, in placement order (none
    /// for `x == y`).
    fn rings_between(&self, x: usize, y: usize) -> &[Ring] {
        let g = self.params.num_groups();
        let diff = if y >= x { y - x } else { y + g - x };
        let d = diff.min(g - diff);
        &self.rings[self.ring_start[d] as usize..self.ring_start[d + 1] as usize]
    }

    /// `x`'s slot within `ring` whose channel leads to `y` (one of `x`'s
    /// partners at the ring's offset).
    ///
    /// Slot order within a cost-2 ring follows the construction's pair
    /// sweep `i = 0..g` over `(i, (i+d) mod g)`: group `x` is visited as
    /// the `+d` end at iteration `x` and as the `-d` end at iteration
    /// `(x - d) mod g`, so for `x >= d` the `-d` slot comes first.
    fn slot_in_ring(&self, ring: Ring, x: usize, y: usize) -> usize {
        let (d, base) = (ring.d as usize, ring.base as usize);
        if ring.cost == 1 {
            return base;
        }
        let plus = x + d == y || x + d == y + self.params.num_groups();
        base + usize::from((x >= d) == plus)
    }

    /// How many parallel `src_group → dst_group` global channels exist
    /// (0 for `src == dst`). Under a fault plan only surviving channels
    /// are counted, so routing picks stay consistent with the channels
    /// packets actually use.
    ///
    /// # Panics
    ///
    /// Panics if either group index is out of range.
    pub fn global_slot_count(&self, src_group: usize, dst_group: usize) -> usize {
        let g = self.params.num_groups();
        assert!(src_group < g && dst_group < g, "group out of range");
        match &self.faults {
            Some(f) => f.alive_links[src_group * g + dst_group].len(),
            None => self.rings_between(src_group, dst_group).len(),
        }
    }

    /// The `i`-th of the parallel `src_group → dst_group` global slots,
    /// `i < global_slot_count(..)`. Read from the ring schedule on a
    /// fault-free network; from the surviving slot lists under a fault
    /// plan.
    ///
    /// # Panics
    ///
    /// Panics if a group index or `i` is out of range.
    pub fn global_slot_at(&self, src_group: usize, dst_group: usize, i: usize) -> usize {
        let g = self.params.num_groups();
        assert!(src_group < g && dst_group < g, "group out of range");
        match &self.faults {
            Some(f) => f.alive_links[src_group * g + dst_group][i] as usize,
            None => {
                let ring = self.rings_between(src_group, dst_group)[i];
                self.slot_in_ring(ring, src_group, dst_group)
            }
        }
    }

    /// Salt-picks one of the parallel `src_group → dst_group` slots, or
    /// `None` when the pair has no (surviving) direct channel.
    ///
    /// # Panics
    ///
    /// Panics if either group index is out of range.
    pub fn pick_global_slot(
        &self,
        src_group: usize,
        dst_group: usize,
        salt: u32,
        leg: u32,
    ) -> Option<usize> {
        self.pick_leg(src_group, dst_group, salt, leg)
            .map(|(q, _)| q)
    }

    /// The salt-picked `src → dst` global channel of route leg `leg`, as
    /// its slot in `src` and the slot it lands on in `dst`; `None` when
    /// the pair has no (surviving) direct channel. The one slot pick
    /// behind every route, candidate and [`Dragonfly::pick_global_slot`].
    fn pick_leg(&self, src: usize, dst: usize, salt: u32, leg: u32) -> Option<(usize, usize)> {
        let g = self.params.num_groups();
        assert!(src < g && dst < g, "group out of range");
        let ring = match &self.faults {
            None => {
                let rings = self.rings_between(src, dst);
                if rings.is_empty() {
                    return None;
                }
                rings[self.pick(rings.len(), salt, leg)]
            }
            Some(f) => {
                let alive = &f.alive_links[src * g + dst];
                if alive.is_empty() {
                    return None;
                }
                let q = alive[self.pick(alive.len(), salt, leg)] as usize;
                self.rings[self.slots[q].ring as usize]
            }
        };
        Some((
            self.slot_in_ring(ring, src, dst),
            self.slot_in_ring(ring, dst, src),
        ))
    }

    /// `(peer_group, peer_slot)` reached by global slot `q` of `group`,
    /// or `None` for an unused slot.
    ///
    /// # Panics
    ///
    /// Panics if `group` or `q` is out of range.
    pub fn global_slot_target(&self, group: usize, q: usize) -> Option<(usize, usize)> {
        let g = self.params.num_groups();
        assert!(group < g && q < self.slots.len(), "out of range");
        let ring = self.slots[q].ring;
        if ring == NO_RING {
            return None;
        }
        let ring = self.rings[ring as usize];
        let d = ring.d as usize;
        let plus = ring.cost == 1 || ((group < d) == (q == ring.base as usize));
        let peer = if plus {
            (group + d) % g
        } else {
            (group + g - d) % g
        };
        Some((peer, self.slot_in_ring(ring, peer, group)))
    }

    /// Router (global index) owning global slot `q` of `group`.
    pub fn slot_router(&self, group: usize, q: usize) -> usize {
        group * self.params.routers_per_group() + self.slots[q].router as usize
    }

    /// Router port carrying global slot `q`.
    pub fn slot_port(&self, q: usize) -> usize {
        self.slots[q].port as usize
    }

    /// `(group, index within the group)` of `router`.
    fn locate(&self, router: usize) -> (usize, usize) {
        let a = self.params.routers_per_group();
        let group = router / a;
        (group, router - group * a)
    }

    /// The local route from member `from` to member `to` of `group`
    /// (group-local indices): the table fault-free, the BFS tables over
    /// the surviving links under a fault plan.
    fn local_route(&self, group: usize, from: usize, to: usize) -> LocalHop {
        let a = self.params.routers_per_group();
        match &self.faults {
            None => self.local[from * a + to],
            Some(f) => {
                let at = (group * a + from) * a + to;
                LocalHop {
                    port: f.local_next[at],
                    hops: f.local_dist[at],
                }
            }
        }
    }

    /// From member `from` of `group` to the channel of its global slot
    /// `q`: the first port (the slot's own when `from` owns it) and the
    /// local hops before the channel.
    fn to_slot(&self, group: usize, from: usize, q: usize) -> (usize, u32) {
        let slot = self.slots[q];
        let hop = self.local_route(group, from, slot.router as usize);
        let port = if slot.router as usize == from {
            slot.port
        } else {
            hop.port
        };
        (port as usize, u32::from(hop.hops))
    }

    /// Local hops between two routers of the same group: the number of
    /// group dimensions in which they differ (1 for complete groups);
    /// under a fault plan, the BFS distance over the surviving local
    /// links.
    ///
    /// # Panics
    ///
    /// Panics if the routers are in different groups.
    pub fn local_hops(&self, router: usize, peer: usize) -> usize {
        let ((group, from), (peer_group, to)) = (self.locate(router), self.locate(peer));
        assert_eq!(group, peer_group, "routers in different groups");
        self.local_route(group, from, to).hops as usize
    }

    /// The local port of `router` leading one hop toward `peer` (both in
    /// the same group): dimension-ordered on a fault-free network (the
    /// direct channel for complete groups), the BFS next hop over the
    /// surviving local links under a fault plan.
    ///
    /// # Panics
    ///
    /// Panics if the routers are not distinct members of one group.
    pub fn local_next_hop(&self, router: usize, peer: usize) -> usize {
        let ((group, from), (peer_group, to)) = (self.locate(router), self.locate(peer));
        assert_eq!(group, peer_group, "routers in different groups");
        assert_ne!(router, peer, "no local channel to self");
        self.local_route(group, from, to).port as usize
    }

    /// The group members behind `from`'s local ports, in port order:
    /// the members one local hop away, placed by the table's port.
    fn local_peers(&self, from: usize) -> Vec<usize> {
        let a = self.params.routers_per_group();
        let p = self.params.terminals_per_router();
        let mut peers = vec![0; self.local_ports];
        for (to, hop) in self.local[from * a..(from + 1) * a].iter().enumerate() {
            if hop.hops == 1 {
                peers[hop.port as usize - p] = to;
            }
        }
        peers
    }

    /// The next hop of a flit at `router` bound for terminal `dest` on
    /// `route`: ejection at the destination router, dimension-ordered
    /// local hops on VC2 inside the destination group, otherwise toward
    /// the salt-picked channel of the current leg — VC1 for minimal
    /// routes, VC0 on a non-minimal route's first leg and VC1 on its
    /// second.
    pub(crate) fn next_hop(&self, router: usize, dest: usize, route: RouteInfo) -> PortVc {
        let rd = self.params.router_of_terminal(dest);
        if router == rd {
            return PortVc::new(self.eject_port(dest), 0);
        }
        let (gr, from) = self.locate(router);
        let (gd, to) = self.locate(rd);
        if gr == gd {
            return PortVc::new(self.local_route(gr, from, to).port as usize, 2);
        }
        let (target, leg) = match route.intermediate() {
            None => (gd, 0),
            Some(gi) if gr == gi as usize => (gd, 1),
            Some(gi) => (gi as usize, 0),
        };
        let (q, _) = self
            .pick_leg(gr, target, route.salt, leg)
            .expect("routed group pair keeps an alive channel");
        let vc = match route.class {
            RouteClass::Minimal => 1,
            RouteClass::NonMinimal => leg as usize,
        };
        PortVc::new(self.to_slot(gr, from, q).0, vc)
    }

    /// The route from `router` to terminal `dest` through intermediate
    /// group `via` (`None` for the minimal route), with `salt` picking
    /// each leg's channel once, summarised as a UGAL candidate: its first
    /// port and VC, its network hops, its first global channel as the
    /// probe point, and the channels a fault plan removed from its legs.
    pub(crate) fn candidate(
        &self,
        router: usize,
        dest: usize,
        via: Option<usize>,
        salt: u32,
    ) -> CandidatePath {
        let rd = self.params.router_of_terminal(dest);
        if router == rd {
            return CandidatePath::new(self.eject_port(dest), 0, 0);
        }
        let (gs, from) = self.locate(router);
        let (gd, to) = self.locate(rd);
        debug_assert!(
            via != Some(gs) && via != Some(gd),
            "intermediate must be a third group"
        );
        if gs == gd {
            let hop = self.local_route(gs, from, to);
            return CandidatePath::new(hop.port as usize, 2, u32::from(hop.hops));
        }
        let first = via.unwrap_or(gd);
        let (q, landing) = self
            .pick_leg(gs, first, salt, 0)
            .expect("candidate requested for a leg with an alive channel");
        let (port, mut hops) = self.to_slot(gs, from, q);
        let mut dropped = self.dead_global_slots(gs, first);
        let mut entry = self.slots[landing].router as usize;
        if first != gd {
            let (q2, landing2) = self
                .pick_leg(first, gd, salt, 1)
                .expect("viable intermediate keeps its second leg alive");
            hops += 1 + self.to_slot(first, entry, q2).1;
            dropped += self.dead_global_slots(first, gd);
            entry = self.slots[landing2].router as usize;
        }
        hops += 1 + u32::from(self.local_route(gd, entry, to).hops);
        let vc = if via.is_some() { 0 } else { 1 };
        CandidatePath::new(port, vc, hops)
            .with_probe(self.slot_router(gs, q), self.slot_port(q))
            .with_dropped(dropped)
    }

    /// Deterministically picks one of `n` parallel channels from a
    /// per-packet `salt` and the route leg, so that the queue a routing
    /// decision inspects is the queue the packet will use.
    pub fn pick(&self, n: usize, salt: u32, leg: u32) -> usize {
        debug_assert!(n > 0);
        if n == 1 {
            return 0;
        }
        let mut z = (salt as u64) ^ ((leg as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z >> 32) as usize % n
    }

    /// The ejection port for `terminal` on its router.
    pub fn eject_port(&self, terminal: usize) -> usize {
        terminal % self.params.terminals_per_router()
    }

    /// Builds the cycle-accurate network description (3 VCs, the count
    /// the paper's deadlock-avoidance assignment needs). Any applied
    /// fault plan is re-applied, so the spec's failure marks always
    /// match this dragonfly's routing tables.
    ///
    /// # Panics
    ///
    /// Panics only if the internal wiring is inconsistent, which would
    /// be a bug in this crate.
    pub fn build_spec(&self) -> NetworkSpec {
        let spec = self.build_spec_clean();
        match &self.faults {
            None => spec,
            Some(f) => spec
                .with_faults(&FaultPlan::Explicit(f.failed_links.clone()))
                .expect("stored fault list was validated when the plan was applied"),
        }
    }

    /// The fault-free wiring.
    fn build_spec_clean(&self) -> NetworkSpec {
        let p = self.params.terminals_per_router();
        let a = self.params.routers_per_group();
        let h = self.params.global_ports_per_router();
        let g = self.params.num_groups();
        let peers: Vec<Vec<usize>> = (0..a).map(|idx| self.local_peers(idx)).collect();
        let mut routers = Vec::with_capacity(self.params.num_routers());
        for grp in 0..g {
            for (idx, peers) in peers.iter().enumerate() {
                let router = grp * a + idx;
                let mut ports = Vec::with_capacity(p + self.local_ports + h);
                for t in 0..p {
                    ports.push(PortSpec {
                        conn: Connection::Terminal {
                            terminal: (router * p + t) as u32,
                        },
                        latency: self.latencies.terminal,
                        class: ChannelClass::Terminal,
                    });
                }
                for &peer in peers {
                    ports.push(PortSpec {
                        conn: Connection::Router {
                            router: (grp * a + peer) as u32,
                            port: self.local[peer * a + idx].port.into(),
                        },
                        latency: self.latencies.local,
                        class: ChannelClass::Local,
                    });
                }
                for j in 0..h {
                    let q = idx * h + j;
                    // Unused slots (tapering / odd leftovers) only ever
                    // occupy the tail of the group's slot numbering, so
                    // skipping them keeps port indices contiguous.
                    let Some((peer_group, peer_slot)) = self.global_slot_target(grp, q) else {
                        continue;
                    };
                    ports.push(PortSpec {
                        conn: Connection::Router {
                            router: self.slot_router(peer_group, peer_slot) as u32,
                            port: self.slot_port(peer_slot) as u32,
                        },
                        latency: self.latencies.global,
                        class: ChannelClass::Global,
                    });
                }
                routers.push(RouterSpec { ports });
            }
        }
        NetworkSpec::validated(routers, 3).expect("dragonfly wiring must validate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n72() -> Dragonfly {
        Dragonfly::new(DragonflyParams::new(2, 4, 2).unwrap())
    }

    #[test]
    fn max_size_connects_every_pair_once() {
        let df = n72();
        let g = df.params().num_groups();
        for i in 0..g {
            for j in 0..g {
                let n = df.global_slot_count(i, j);
                if i == j {
                    assert_eq!(n, 0, "self link {i}");
                } else {
                    assert_eq!(n, 1, "pair ({i},{j})");
                }
            }
        }
        assert_eq!(df.unused_global_ports_per_group(), 0);
    }

    #[test]
    fn slot_pairing_is_involutive() {
        let df = n72();
        let g = df.params().num_groups();
        let ah = df.params().global_ports_per_group();
        for grp in 0..g {
            for q in 0..ah {
                let (pg, pq) = df.global_slot_target(grp, q).expect("slot used");
                assert_eq!(df.global_slot_target(pg, pq), Some((grp, q)));
                assert_ne!(pg, grp);
            }
        }
    }

    /// The pre-arithmetic table construction, kept as the reference the
    /// closed-form slot algebra is checked against: one full
    /// `links`/`slot_target` build exactly as the old code wrote it.
    fn reference_tables(
        params: &DragonflyParams,
        taper: f64,
    ) -> (Vec<Vec<u16>>, Vec<(u32, u16)>, usize) {
        let g = params.num_groups();
        let ah = params.global_ports_per_group();
        let mut links = vec![Vec::new(); g * g];
        let mut slot_target = vec![(u32::MAX, 0u16); g * ah];
        let mut next_slot = vec![0usize; g];
        let mut budget = ((ah as f64) * taper).round() as usize;
        let unused = ah - budget;
        let half = g / 2;
        'outer: loop {
            let mut placed = false;
            for d in 1..=half {
                let cost = if 2 * d == g { 1 } else { 2 };
                if budget < cost {
                    continue;
                }
                budget -= cost;
                placed = true;
                let pairs: Vec<(usize, usize)> = if 2 * d == g {
                    (0..half).map(|i| (i, i + d)).collect()
                } else {
                    (0..g).map(|i| (i, (i + d) % g)).collect()
                };
                for (i, j) in pairs {
                    let qi = next_slot[i];
                    next_slot[i] += 1;
                    let qj = next_slot[j];
                    next_slot[j] += 1;
                    slot_target[i * ah + qi] = (j as u32, qj as u16);
                    slot_target[j * ah + qj] = (i as u32, qi as u16);
                    links[i * g + j].push(qi as u16);
                    links[j * g + i].push(qj as u16);
                }
                if budget == 0 {
                    break 'outer;
                }
            }
            if !placed {
                break;
            }
        }
        (links, slot_target, unused + budget)
    }

    #[test]
    fn arithmetic_slots_match_reference_table_sweep() {
        // (p, a, h, g, taper): maximum-size, multi-pass parallel links,
        // odd leftover port, even g with a self-paired middle ring (both
        // single- and repeated-ring), and a tapered build.
        let cases = [
            (2, 4, 2, 9, 1.0),
            (2, 4, 2, 5, 1.0),
            (1, 3, 1, 3, 1.0),
            (2, 2, 4, 8, 1.0),
            (1, 2, 3, 6, 1.0),
            (2, 4, 2, 5, 0.5),
            (1, 2, 2, 4, 0.75),
        ];
        for (p, a, h, g, taper) in cases {
            let params = DragonflyParams::with_groups(p, a, h, g).unwrap();
            let df = if taper < 1.0 {
                Dragonfly::with_taper(params, taper).unwrap()
            } else {
                Dragonfly::new(params)
            };
            let (links, slot_target, unused) = reference_tables(&params, taper);
            let ah = params.global_ports_per_group();
            assert_eq!(
                df.unused_global_ports_per_group(),
                unused,
                "unused mismatch for {params:?}"
            );
            for i in 0..g {
                for j in 0..g {
                    let reference = &links[i * g + j];
                    let computed: Vec<u16> = (0..df.global_slot_count(i, j))
                        .map(|k| df.global_slot_at(i, j, k) as u16)
                        .collect();
                    assert_eq!(&computed, reference, "slots {i}->{j} for {params:?}");
                }
                for q in 0..ah {
                    let (pg, pq) = slot_target[i * ah + q];
                    let reference = (pg != u32::MAX).then_some((pg as usize, pq as usize));
                    assert_eq!(
                        df.global_slot_target(i, q),
                        reference,
                        "target of ({i}, {q}) for {params:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn diameter_is_three_for_multi_group() {
        let df = n72();
        assert_eq!(df.build_spec().diameter(), Some(3));
    }

    #[test]
    fn spec_validates_and_counts_match() {
        let df = n72();
        let spec = df.build_spec();
        assert_eq!(spec.num_routers(), 36);
        assert_eq!(spec.num_terminals(), 72);
        // Every router has p + (a-1) + h = 7 ports.
        for r in &spec.routers {
            assert_eq!(r.ports.len(), 7);
        }
        // Global channel count: g*(g-1)/2 pairs * 2 directions.
        let globals = spec
            .network_channels()
            .filter(|&(r, p)| spec.routers[r].ports[p].class == ChannelClass::Global)
            .count();
        assert_eq!(globals, 9 * 8);
    }

    #[test]
    fn paper_evaluation_spec_builds() {
        let df = Dragonfly::new(DragonflyParams::new(4, 8, 4).unwrap());
        let spec = df.build_spec();
        assert_eq!(spec.num_terminals(), 1056);
        assert_eq!(spec.num_routers(), 264);
        assert_eq!(spec.diameter(), Some(3));
    }

    #[test]
    fn non_maximal_group_count_spreads_links() {
        // a*h = 8 ports over g-1 = 4 other groups: every pair gets 2.
        let df = Dragonfly::new(DragonflyParams::with_groups(2, 4, 2, 5).unwrap());
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    assert_eq!(df.global_slot_count(i, j), 2, "pair ({i},{j})");
                }
            }
        }
        assert_eq!(df.unused_global_ports_per_group(), 0);
        df.build_spec();
    }

    #[test]
    fn odd_leftover_ports_are_reported() {
        // g = 3 (odd, rings cost 2), a*h = 3: one port per group unused.
        let df = Dragonfly::new(DragonflyParams::with_groups(1, 3, 1, 3).unwrap());
        assert_eq!(df.unused_global_ports_per_group(), 1);
        let spec = df.build_spec();
        assert!(spec.num_terminals() == 9);
    }

    #[test]
    fn local_port_map_is_consistent() {
        let df = n72();
        // Router 5 (group 1, idx 1): locals to peers 4, 6, 7.
        assert_eq!(df.local_next_hop(5, 4), 2);
        assert_eq!(df.local_next_hop(5, 6), 3);
        assert_eq!(df.local_next_hop(5, 7), 4);
        // And the peer's port back to 5 (idx 1).
        assert_eq!(df.local_next_hop(4, 5), 2);
        assert_eq!(df.local_next_hop(6, 5), 3);
        // Complete groups: every pair one hop apart.
        assert_eq!(df.local_hops(4, 7), 1);
    }

    #[test]
    fn pick_is_deterministic_and_in_range() {
        let df = n72();
        for n in 1..5 {
            for salt in 0..100u32 {
                let x = df.pick(n, salt, 0);
                assert!(x < n);
                assert_eq!(x, df.pick(n, salt, 0));
            }
        }
        // Different legs usually differ for n > 1.
        let diffs = (0..64u32)
            .filter(|&s| df.pick(4, s, 0) != df.pick(4, s, 1))
            .count();
        assert!(diffs > 16, "legs correlated: {diffs}");
    }

    #[test]
    fn average_hop_count_below_three() {
        let df = n72();
        let avg = df.build_spec().average_hop_count().unwrap();
        assert!(avg < 3.0, "avg {avg}");
        assert!(avg > 1.5, "avg {avg}");
    }

    // ----- §3.2 variants -----

    /// Figure 6(b): a 3-D flattened-butterfly group of 2x2x2 routers
    /// with p = h = 2 keeps the k = 7 router of Figure 5 while raising
    /// the group's effective radix.
    #[test]
    fn cube_group_matches_figure6() {
        let params = DragonflyParams::new(2, 8, 2).unwrap();
        let df = Dragonfly::with_group_topology(
            params,
            GroupTopology::FlattenedButterfly(vec![2, 2, 2]),
            ChannelLatencies::default(),
        )
        .unwrap();
        // p + (1+1+1) + h = 7 ports, same as the complete 4-router group.
        assert_eq!(df.router_radix(), 7);
        assert_eq!(df.local_ports_per_router(), 3);
        // Effective radix doubles vs the Figure-5 group: a(p + h) = 32.
        assert_eq!(params.effective_radix(), 32);
        // The spec wires and the local network is a 3-cube: diameter 3
        // within a group, so network diameter local(3)+global+local(3).
        let spec = df.build_spec();
        assert_eq!(spec.num_terminals(), params.num_terminals());
        assert_eq!(df.local_hops(0, 7), 3); // opposite cube corners
        assert_eq!(df.local_hops(0, 3), 2);
        assert_eq!(df.local_hops(0, 4), 1);
    }

    #[test]
    fn group_dims_must_multiply_to_a() {
        let params = DragonflyParams::new(2, 8, 2).unwrap();
        assert!(Dragonfly::with_group_topology(
            params,
            GroupTopology::FlattenedButterfly(vec![3, 3]),
            ChannelLatencies::default(),
        )
        .is_err());
        assert!(Dragonfly::with_group_topology(
            params,
            GroupTopology::FlattenedButterfly(vec![8, 1]),
            ChannelLatencies::default(),
        )
        .is_err());
        // Nine dimensions multiply to a = 512 but overflow the
        // coordinate array every later route computation uses.
        assert!(Dragonfly::with_group_topology(
            DragonflyParams::with_groups(1, 512, 1, 2).unwrap(),
            GroupTopology::FlattenedButterfly(vec![2; 9]),
            ChannelLatencies::default(),
        )
        .is_err());
    }

    #[test]
    fn local_next_hop_walks_dimension_order() {
        let params = DragonflyParams::new(2, 8, 2).unwrap();
        let df = Dragonfly::with_group_topology(
            params,
            GroupTopology::FlattenedButterfly(vec![2, 2, 2]),
            ChannelLatencies::default(),
        )
        .unwrap();
        // From router 0 to router 7 (coords 111): first hop flips dim 0
        // -> router 1; from router 1, flips dim 1 -> router 3; then 7.
        let spec = df.build_spec();
        let mut at = 0usize;
        let mut hops = 0;
        while at != 7 {
            let port_spec = spec.routers[at].ports[df.local_next_hop(at, 7)];
            // `NetworkSpec::validated` rejects any local-class port wired
            // to a terminal at construction, so the wiring guarantee
            // holds before any route is ever walked.
            assert_eq!(port_spec.class, ChannelClass::Local);
            let Connection::Router { router, .. } = port_spec.conn else {
                unreachable!("validated spec: non-terminal class implies router wiring");
            };
            at = router as usize;
            hops += 1;
            assert!(hops <= 3, "dimension-order walk too long");
        }
        assert_eq!(hops, 3);
    }

    #[test]
    fn two_dim_group_spec_is_symmetric() {
        let params = DragonflyParams::new(2, 4, 2).unwrap();
        let df = Dragonfly::with_group_topology(
            params,
            GroupTopology::FlattenedButterfly(vec![2, 2]),
            ChannelLatencies::default(),
        )
        .unwrap();
        assert_eq!(df.router_radix(), 6); // one port fewer than complete
        let spec = df.build_spec();
        assert_eq!(spec.num_terminals(), 72);
        // Validation inside build_spec checked symmetric wiring.
        // Worst minimal route is local(2) + global + local(2) = 5, but
        // shortest paths may cut through a third group, so the graph
        // diameter sits between the complete-group 3 and 5 (`Some` also
        // means connected).
        let diameter = spec.diameter().unwrap();
        assert!((4..=5).contains(&diameter), "diameter {diameter}");
    }

    #[test]
    fn taper_halves_global_channels() {
        let params = DragonflyParams::with_groups(2, 4, 2, 5).unwrap();
        let full = Dragonfly::new(params);
        let tapered = Dragonfly::with_taper(params, 0.5).unwrap();
        let count = |df: &Dragonfly| {
            (0..5)
                .map(|i| (0..5).map(|j| df.global_slot_count(i, j)).sum::<usize>())
                .sum::<usize>()
        };
        assert_eq!(count(&tapered) * 2, count(&full));
        assert_eq!(tapered.unused_global_ports_per_group(), 4);
        tapered.build_spec();
    }

    #[test]
    fn taper_too_aggressive_is_rejected() {
        // 9 groups need at least 8 of the 8 ports: taper below 1.0
        // disconnects some pair.
        let params = DragonflyParams::new(2, 4, 2).unwrap();
        assert!(Dragonfly::with_taper(params, 0.3).is_err());
        assert!(Dragonfly::with_taper(params, 1.5).is_err());
        assert!(Dragonfly::with_taper(params, 1.0).is_ok());
    }

    /// The (router, port) of the unique global cable from group `ga`
    /// toward group `gb` in `spec`.
    fn global_cable(df: &Dragonfly, spec: &NetworkSpec, ga: usize, gb: usize) -> (usize, usize) {
        let a = df.params().routers_per_group();
        for r in ga * a..(ga + 1) * a {
            for (p, port) in spec.routers[r].ports.iter().enumerate() {
                if let Connection::Router { router: peer, .. } = port.conn {
                    if port.class == ChannelClass::Global
                        && df.params().group_of_router(peer as usize) == gb
                    {
                        return (r, p);
                    }
                }
            }
        }
        panic!("no cable {ga}-{gb}")
    }

    #[test]
    fn fault_plan_filters_slots_and_intermediates() {
        let clean = n72();
        assert!(!clean.has_faults());
        assert!(clean.viable_intermediates(0, 1).is_none());
        let cable = global_cable(&clean, &clean.build_spec(), 0, 1);
        let df = clean
            .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
            .unwrap();
        assert!(df.has_faults());
        assert_eq!(df.failed_links().len(), 1);
        // The dead cable vanishes from both directions' slot lists;
        // every other pair keeps its single cable.
        assert_eq!(df.global_slot_count(0, 1), 0);
        assert_eq!(df.global_slot_count(1, 0), 0);
        assert_eq!(df.global_slot_count(0, 2), 1);
        assert_eq!(df.dead_global_slots(0, 1), 1);
        assert_eq!(df.dead_global_slots(0, 2), 0);
        let viable = df.viable_intermediates(0, 1).unwrap();
        assert!(!viable.is_empty());
        assert!(viable.iter().all(|&gi| gi != 0 && gi != 1));
        // An unaffected pair keeps every third group viable.
        assert_eq!(
            df.viable_intermediates(2, 3).unwrap().len(),
            df.params().num_groups() - 2
        );
    }

    #[test]
    fn local_fault_detours_within_group() {
        let clean = n72();
        let spec = clean.build_spec();
        // Kill the 0 <-> 1 local cable inside group 0.
        let cable = spec.routers[0]
            .ports
            .iter()
            .enumerate()
            .find_map(|(p, port)| match port.conn {
                Connection::Router { router: 1, .. } if port.class == ChannelClass::Local => {
                    Some((0, p))
                }
                _ => None,
            })
            .expect("group peers are directly wired");
        let df = clean
            .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
            .unwrap();
        // Router 0 now reaches router 1 in two hops via a live peer, and
        // the first hop stays inside the group.
        assert_eq!(df.local_hops(0, 1), 2);
        let via = df.local_next_hop(0, 1);
        let step = match df.build_spec().routers[0].ports[via].conn {
            Connection::Router { router, .. } => router as usize,
            other => panic!("local hop left the network: {other:?}"),
        };
        assert!(step < df.params().routers_per_group());
        assert_ne!(step, 1);
        assert_eq!(df.local_hops(step, 1), 1);
        // The hop bound stretches to cover the detour.
        assert!(df.route_hop_bound() > n72().route_hop_bound());
    }

    #[test]
    fn local_fault_that_splits_a_group_is_rejected() {
        // p=1, a=2: each group is two routers joined by one local cable.
        let params = DragonflyParams::new(1, 2, 2).unwrap();
        let clean = Dragonfly::new(params);
        let spec = clean.build_spec();
        let cable = spec.routers[0]
            .ports
            .iter()
            .enumerate()
            .find_map(|(p, port)| (port.class == ChannelClass::Local).then_some((0usize, p)))
            .expect("local cable exists");
        let err = clean
            .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
            .expect_err("splitting a group must be rejected");
        assert!(
            matches!(err, SimError::InvalidFaultPlan(_)),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn fault_plans_compose_and_zero_fraction_is_clean() {
        let clean = n72();
        let spec = clean.build_spec();
        let c01 = global_cable(&clean, &spec, 0, 1);
        let c23 = global_cable(&clean, &spec, 2, 3);
        let df = n72()
            .with_fault_plan(&FaultPlan::Explicit(vec![c01]))
            .unwrap()
            .with_fault_plan(&FaultPlan::Explicit(vec![c23]))
            .unwrap();
        assert_eq!(df.failed_links().len(), 2);
        assert_eq!(df.global_slot_count(0, 1), 0);
        assert_eq!(df.global_slot_count(2, 3), 0);
        let df0 = n72()
            .with_fault_plan(&FaultPlan::random_global(0.0, 9))
            .unwrap();
        assert!(!df0.has_faults());
    }
}

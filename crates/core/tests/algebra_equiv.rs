//! The route the engine runs, judged against a BFS oracle.
//!
//! Every topology answers its routing questions by index arithmetic
//! over `(router, dest)` — the "algebra" of its [`NetTopology`] items —
//! with no per-pair tables. This suite walks, on small instances of all
//! four topologies, the route a packet actually takes:
//! [`NetworkSim::trace_route`] steps through the same per-hop `route`
//! the engine calls, from every source terminal to every destination
//! terminal under every salt in [`SALTS`]. Interior routers are reached
//! as hops, the only way a packet reaches them. Every hop must cross an
//! alive router link on a VC below the spec's count, the walk must end
//! with the ejection to the destination, and its router hops must equal
//! those of the minimal UGAL candidate the injection decision weighs —
//! and the BFS distance. Dragonfly minimal routes are salt-selected
//! among parallel global channels, so there the walk is bounded by the
//! BFS distance below and by local + global + local above. The same
//! walks are repeated under an explicit single-cable [`FaultPlan`].
//!
//! The detour side is judged by [`NetTopology::draw_tag`], the draw
//! production makes: over seeded draws per pair, every tag must name a
//! valid detour — a third router, a third group (inside the viable set
//! under faults), the long way round the first differing ring, or an
//! uplink other than the salt-hashed one.
//!
//! The oracle also judges the spec's own BFS: on every spec built here,
//! [`NetworkSpec::hops_to`] must reproduce its distances with first
//! hops that make progress, and [`NetworkSpec::diameter`] its diameter.
//! The topologies' structural properties — flattened-butterfly and
//! torus diameters and link counts, Clos connectivity and port counts,
//! the dragonfly's diameter and mean hop count — are asserted on the
//! same specs.

use dfly_netsim::{ChannelClass, Connection, FaultPlan, HopColumn, NetworkSpec, RouteInfo};
use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};
use dfly_traffic::rng_for;
use dragonfly::butterfly::{ButterflyNetwork, FbTopology};
use dragonfly::clos_sim::ClosNetwork;
use dragonfly::network::{BfsFaults, NetTopology, SimNetwork};
use dragonfly::torus_sim::TorusNetwork;
use dragonfly::{
    ChannelLatencies, Dragonfly, DragonflyParams, DragonflySim, GroupTopology, NetworkSim,
};

const SALTS: [u32; 3] = [0, 1, 7];

/// Seeded [`NetTopology::draw_tag`] draws per (pair, salt).
const DRAWS: usize = 4;

/// Router-to-router hop distances from `start` over alive links only.
fn bfs_from(spec: &NetworkSpec, start: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; spec.num_routers()];
    dist[start] = 0;
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(r) = queue.pop_front() {
        for (p, port) in spec.routers[r].ports.iter().enumerate() {
            if spec.is_failed(r, p) {
                continue;
            }
            if let Connection::Router { router: peer, .. } = port.conn {
                let peer = peer as usize;
                if dist[peer] == u32::MAX {
                    dist[peer] = dist[r] + 1;
                    queue.push_back(peer);
                }
            }
        }
    }
    dist
}

/// All-pairs distances, indexed `[from][to]` — after checking the
/// spec's own BFS ([`NetworkSpec::hops_to`]) against this oracle: equal
/// distances everywhere, and every first-hop port an alive link to a
/// router one hop closer.
fn bfs_all(spec: &NetworkSpec) -> Vec<Vec<u32>> {
    let dist: Vec<Vec<u32>> = (0..spec.num_routers()).map(|r| bfs_from(spec, r)).collect();
    let mut col = HopColumn::default();
    for dest in 0..spec.num_routers() {
        spec.hops_to(dest, &mut col);
        for (r, row) in dist.iter().enumerate() {
            let got = (col.dist[r] != HopColumn::UNREACHED).then_some(u32::from(col.dist[r]));
            let want = (row[dest] != u32::MAX).then_some(row[dest]);
            assert_eq!(
                got, want,
                "hops_to({dest}) at router {r} disagrees with the oracle"
            );
            if r == dest || want.is_none() {
                assert_eq!(col.next[r], HopColumn::UNREACHED, "first hop at router {r}");
                continue;
            }
            let p = col.next[r] as usize;
            assert!(
                !spec.is_failed(r, p),
                "first hop ({r}, {p}) is a failed link"
            );
            let Connection::Router { router: peer, .. } = spec.routers[r].ports[p].conn else {
                panic!("first hop ({r}, {p}) toward {dest} is a terminal port");
            };
            assert_eq!(
                dist[peer as usize][dest] + 1,
                row[dest],
                "first hop ({r}, {p}) gains nothing"
            );
        }
    }
    dist
}

/// The oracle's diameter (`None` if some pair is unreachable), after
/// checking that [`NetworkSpec::diameter`] agrees with it.
fn diameter(spec: &NetworkSpec) -> Option<usize> {
    let dist = bfs_all(spec);
    let far = dist.iter().flatten().max().copied();
    let want = far.filter(|&d| d != u32::MAX).map(|d| d as usize);
    assert_eq!(
        spec.diameter(),
        want,
        "spec diameter disagrees with the oracle"
    );
    want
}

/// Router-to-router ports of every router, parallel channels counted.
fn degrees(spec: &NetworkSpec) -> Vec<usize> {
    spec.routers
        .iter()
        .map(|r| {
            r.ports
                .iter()
                .filter(|p| matches!(p.conn, Connection::Router { .. }))
                .count()
        })
        .collect()
}

/// The topology's terminal attachment must be the spec's.
fn check_terminals<T: NetTopology>(topology: &T, spec: &NetworkSpec) {
    for t in 0..spec.num_terminals() {
        assert_eq!(
            spec.terminal_port(t),
            (topology.terminal_router(t), topology.ejection_port(t)),
            "terminal {t} attachment disagrees with the spec"
        );
    }
}

/// Walks the minimal route salted `salt` from terminal `src` to
/// terminal `dest` as the engine steps it: every router hop must cross
/// an alive link on a VC below the spec's count, and the walk must end
/// with the ejection to `dest`. Its router hops must equal those of the
/// minimal candidate at the source router; they are returned.
fn walk_minimal<T: NetTopology + 'static>(
    sim: &NetworkSim<T>,
    src: usize,
    dest: usize,
    salt: u32,
) -> u32 {
    let spec = sim.spec();
    let trace = sim
        .trace_route(src, dest, RouteInfo::minimal().with_salt(salt))
        .unwrap_or_else(|e| panic!("t{src}->t{dest} (salt {salt}): {e}"));
    let (eject, hops) = trace.split_last().expect("a route ends with its ejection");
    for hop in hops {
        let (r, p) = (hop.router, hop.port);
        assert!(
            hop.vc < spec.vcs,
            "VC {} at ({r}, {p}) outside the spec's {} (t{src}->t{dest}, salt {salt})",
            hop.vc,
            spec.vcs
        );
        assert!(
            !spec.is_failed(r, p),
            "minimal route crosses a failed link at ({r}, {p}) (t{src}->t{dest}, salt {salt})"
        );
    }
    assert!(eject.vc < spec.vcs, "ejection VC {}", eject.vc);
    assert_eq!(
        spec.routers[eject.router].ports[eject.port].conn,
        Connection::Terminal {
            terminal: dest as u32
        }
    );
    let net = sim.network();
    let rs = net.topology().terminal_router(src);
    let candidate = net.minimal_candidate(rs, dest, salt);
    assert_eq!(
        hops.len() as u32,
        candidate.hops,
        "walk and minimal candidate disagree on t{src}->t{dest} (salt {salt})"
    );
    candidate.hops
}

/// Calls `check(src_router, dest_router, router_hops)` on the walk of
/// every (source terminal, destination terminal, salt), after checking
/// the terminal attachment.
fn walk_all<T: NetTopology + 'static>(
    sim: &NetworkSim<T>,
    mut check: impl FnMut(usize, usize, u32),
) {
    let topology = sim.network().topology();
    check_terminals(topology, sim.spec());
    let terminals = sim.spec().num_terminals();
    for src in 0..terminals {
        for dest in 0..terminals {
            let (rs, rd) = (
                topology.terminal_router(src),
                topology.terminal_router(dest),
            );
            for salt in SALTS {
                check(rs, rd, walk_minimal(sim, src, dest, salt));
            }
        }
    }
}

/// Walk + BFS-equality sweep for a topology whose minimal routes are
/// true shortest paths.
fn check_exact<T: NetTopology + 'static>(sim: &NetworkSim<T>) {
    let dist = bfs_all(sim.spec());
    walk_all(sim, |rs, rd, hops| {
        assert_eq!(
            hops, dist[rs][rd],
            "{rs}->{rd} disagrees with the BFS oracle"
        );
    });
}

/// Calls `check(src_router, dest, salt, tag)` on [`DRAWS`] seeded
/// [`NetTopology::draw_tag`] draws for every salt and every pair
/// production draws a detour for: a source terminal's router and a
/// destination terminal on another router.
fn check_draws<T: NetTopology + 'static>(
    sim: &NetworkSim<T>,
    mut check: impl FnMut(usize, usize, u32, Option<u32>),
) {
    let topology = sim.network().topology();
    let terminals = sim.spec().num_terminals();
    let mut sources: Vec<usize> = (0..terminals)
        .map(|t| topology.terminal_router(t))
        .collect();
    sources.dedup();
    let mut rng = rng_for(0xD7A6, 0);
    for rs in sources {
        for dest in (0..terminals).filter(|&t| topology.terminal_router(t) != rs) {
            for salt in SALTS {
                for _ in 0..DRAWS {
                    check(rs, dest, salt, topology.draw_tag(rs, dest, salt, &mut rng));
                }
            }
        }
    }
}

/// `net` with its first router-to-router cable failed.
fn without_first_cable<T: BfsFaults + 'static>(net: SimNetwork<T>) -> NetworkSim<T> {
    let cable = first_cable(&net.build_spec());
    let sim = NetworkSim::from(
        net.with_fault_plan(&FaultPlan::Explicit(vec![cable]))
            .unwrap(),
    );
    assert!(sim.spec().has_faults());
    sim
}

/// The butterfly walks exactly, and its detour is a router distinct
/// from both endpoints, with or without faults.
fn check_butterfly(sim: &NetworkSim<FbTopology>) {
    check_exact(sim);
    let routers = sim.spec().num_routers();
    let c = sim.network().topology().concentration();
    check_draws(sim, |rs, dest, _, tag| {
        let ri = tag.expect("a butterfly pair draws a detour") as usize;
        assert!(ri < routers, "tag {ri} is no router");
        assert_ne!(ri, rs, "detour through the source router");
        assert_ne!(ri, dest / c, "detour through the destination router");
    });
}

#[test]
fn butterfly_algebra_matches_bfs_oracle() {
    check_butterfly(&NetworkSim::new(FlattenedButterfly::new(2, 4, 2)));
}

#[test]
fn butterfly_algebra_matches_bfs_oracle_under_faults() {
    let net = ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2));
    check_butterfly(&without_first_cable(net));
}

#[test]
fn torus_algebra_matches_bfs_oracle() {
    let torus = Torus::new(2, 4, 1);
    let sim = NetworkSim::from(TorusNetwork::new(torus));
    check_exact(&sim);
    // Every draw is the pair's single tag, `dim * 2 + (direction is +)`:
    // the long way round the first differing dimension's ring.
    let k = torus.arity();
    let net = sim.network();
    check_draws(&sim, |rs, dest, salt, tag| {
        let rd = net.topology().terminal_router(dest);
        let (ca, cb) = (torus.coordinates(rs), torus.coordinates(rd));
        let dim = (0..ca.len())
            .find(|&d| ca[d] != cb[d])
            .expect("distinct routers");
        let forward = (cb[dim] + k - ca[dim]) % k;
        let long_plus = forward > k - forward;
        assert_eq!(
            tag,
            Some((2 * dim + usize::from(long_plus)) as u32),
            "{rs}->t{dest}"
        );
        let m = net.minimal_candidate(rs, dest, salt);
        let nm = net.non_minimal_candidate(rs, dest, tag.unwrap(), salt);
        assert_ne!(
            nm.port, m.port,
            "the detour leaves through the short way's port"
        );
        assert!(
            nm.hops >= m.hops,
            "the long way is shorter than the short way"
        );
    });
}

#[test]
fn torus_algebra_matches_bfs_oracle_under_faults() {
    check_exact(&without_first_cable(TorusNetwork::new(Torus::new(2, 4, 1))));
}

#[test]
fn clos_algebra_matches_bfs_oracle() {
    // Radix 6 exercises the odd virtual-top parity split; (3, 4) the
    // multi-level ascend/descend arithmetic.
    for (levels, radix) in [(2usize, 6usize), (3, 4)] {
        let sim = NetworkSim::from(ClosNetwork::new(FoldedClos::new(levels, radix)));
        check_exact(&sim);
        // The detour is a leaf uplink other than the salt-hashed one.
        let half = radix / 2;
        let net = sim.network();
        check_draws(&sim, |rs, dest, salt, tag| {
            let up = tag.expect("a leaf with two uplinks has an alternative") as usize;
            assert!(up < half, "uplink {up} out of range");
            let hashed = net.minimal_candidate(rs, dest, salt).port as usize;
            assert_ne!(
                half + up,
                hashed,
                "the alternative is the salt-hashed uplink"
            );
        });
    }
}

#[test]
fn clos_algebra_matches_bfs_oracle_under_faults() {
    for (levels, radix) in [(2usize, 6usize), (3, 4)] {
        check_exact(&without_first_cable(ClosNetwork::new(FoldedClos::new(
            levels, radix,
        ))));
    }
}

#[test]
fn dragonfly_algebra_is_consistent_and_bfs_bounded() {
    // The dragonfly's minimal route is salt-selected among parallel
    // global channels, so its hop count is a valid path length bounded
    // below by the BFS distance and above by local+global+local.
    let params = DragonflyParams::new(2, 4, 2).unwrap();
    let sim = DragonflySim::new(params);
    let dist = bfs_all(sim.spec());
    walk_all(&sim, |rs, rd, hops| {
        assert!(
            hops >= dist[rs][rd],
            "walk beat the BFS shortest path {rs}->{rd}"
        );
        assert!(hops <= 3, "minimal dragonfly route longer than l+g+l");
    });
    // Inter-group pairs detour through a third group, intra-group pairs
    // not at all.
    check_draws(&sim, |rs, dest, _, tag| {
        let (gs, gd) = (params.group_of_router(rs), params.group_of_terminal(dest));
        if gs == gd {
            assert_eq!(tag, None, "detour offered for intra-group traffic");
            return;
        }
        let gi = tag.expect("an inter-group pair draws a detour") as usize;
        assert!(gi < params.num_groups());
        assert_ne!(gi, gs, "detour through the source group");
        assert_ne!(gi, gd, "detour through the destination group");
    });
}

#[test]
fn dragonfly_algebra_is_consistent_under_faults() {
    // Kill one global cable: pairs that still own an alive slot must
    // keep walking consistently; the severed group pair must instead
    // draw a detour, and every drawn detour must be viable.
    let params = DragonflyParams::new(2, 4, 2).unwrap();
    let cable = first_global_cable(&Dragonfly::new(params).build_spec());
    let sim = DragonflySim::with_faults(params, &FaultPlan::Explicit(vec![cable])).unwrap();
    assert!(sim.spec().has_faults());
    let df = sim.dragonfly();
    let severed = |rs: usize, rd: usize| {
        let (gs, gd) = (params.group_of_router(rs), params.group_of_router(rd));
        gs != gd && df.global_slot_count(gs, gd) == 0
    };
    let dist = bfs_all(sim.spec());
    let terminals = sim.spec().num_terminals();
    for src in 0..terminals {
        for dest in 0..terminals {
            let (rs, rd) = (df.terminal_router(src), df.terminal_router(dest));
            // No minimal route exists for a severed pair.
            if severed(rs, rd) {
                continue;
            }
            for salt in SALTS {
                assert!(walk_minimal(&sim, src, dest, salt) >= dist[rs][rd]);
            }
        }
    }
    let mut severed_pairs = 0;
    check_draws(&sim, |rs, dest, _, tag| {
        let (gs, gd) = (params.group_of_router(rs), params.group_of_terminal(dest));
        let viable = df.viable_intermediates(gs, gd).expect("faults applied");
        if severed(rs, df.terminal_router(dest)) {
            severed_pairs += 1;
            assert!(tag.is_some(), "severed pair {gs}->{gd} drew no detour");
        }
        match tag {
            Some(gi) => assert!(viable.contains(&gi), "{gi} is no viable {gs}->{gd} detour"),
            None => assert!(viable.is_empty(), "{gs}->{gd} drew nothing from {viable:?}"),
        }
    });
    // p=2 a=4 h=2 has exactly one cable per group pair, so exactly one
    // ordered group pair each way loses its minimal route.
    assert!(
        severed_pairs > 0,
        "a dead global cable severed no group pair"
    );
}

#[test]
fn butterfly_structure_holds_on_the_spec() {
    // One hop per dimension.
    for n in 1..=3 {
        let spec = ButterflyNetwork::new(FlattenedButterfly::new(n, 4, 2)).build_spec();
        assert_eq!(diameter(&spec), Some(n), "n={n}");
    }
    // Every cable of the link-count formula is wired, once per direction.
    for fb in [
        FlattenedButterfly::new(1, 8, 4),
        FlattenedButterfly::new(2, 6, 3),
        FlattenedButterfly::with_dims(&[5, 3], 2),
    ] {
        let spec = ButterflyNetwork::new(fb.clone()).build_spec();
        assert_eq!(
            spec.network_channels().count(),
            2 * fb.num_links(),
            "{fb:?}"
        );
        assert_eq!(diameter(&spec), Some(fb.dimensions()), "{fb:?}");
    }
    // Structural hops are shortest paths.
    let fb = FlattenedButterfly::new(2, 4, 1);
    let dist = bfs_all(&ButterflyNetwork::new(fb.clone()).build_spec());
    for (a, row) in dist.iter().enumerate() {
        for (b, &d) in row.iter().enumerate() {
            assert_eq!(fb.min_hops(a, b), d as usize, "a={a} b={b}");
        }
    }
}

#[test]
fn torus_structure_holds_on_the_spec() {
    for (n, k) in [(1, 6), (2, 4), (3, 4), (3, 5), (2, 3), (3, 2)] {
        let spec = TorusNetwork::new(Torus::new(n, k, 1)).build_spec();
        assert_eq!(diameter(&spec), Some(n * (k / 2)), "n={n} k={k}");
    }
    // k = 2 folds the two ring directions into one link per dimension.
    for torus in [
        Torus::new(3, 4, 2),
        Torus::new(2, 2, 1),
        Torus::new(3, 2, 1),
    ] {
        let spec = TorusNetwork::new(torus).build_spec();
        assert_eq!(
            spec.network_channels().count(),
            2 * torus.num_links(),
            "{torus:?}"
        );
    }
    let degree = degrees(&TorusNetwork::new(Torus::new(3, 2, 1)).build_spec());
    assert!(degree.iter().all(|&d| d == 3), "{degree:?}");
    // Structural hops are shortest paths, wrapping the short way.
    let torus = Torus::new(2, 5, 1);
    let dist = bfs_all(&TorusNetwork::new(torus).build_spec());
    for (a, row) in dist.iter().enumerate() {
        for (b, &d) in row.iter().enumerate() {
            assert_eq!(torus.min_hops(a, b), d as usize, "a={a} b={b}");
        }
    }
}

#[test]
fn clos_structure_holds_on_the_spec() {
    // Connected at 2-4 levels, odd k/2 included; leaf to leaf climbs
    // to the top rank and back.
    for (levels, radix) in [(2, 8), (2, 6), (3, 8), (3, 6), (4, 4)] {
        let clos = FoldedClos::new(levels, radix);
        let dist = bfs_all(&ClosNetwork::new(clos).build_spec());
        let leaves = clos.switches_at(0);
        let worst = (dist[..leaves].iter())
            .flat_map(|row| &row[..leaves])
            .max()
            .copied();
        assert_eq!(
            worst,
            Some(2 * (levels as u32 - 1)),
            "levels={levels} radix={radix}"
        );
    }
    // k/2 up and k/2 down below the top, k down at the top.
    let clos = FoldedClos::new(3, 8);
    let degree = degrees(&ClosNetwork::new(clos).build_spec());
    let (leaves, mid) = (clos.switches_at(0), clos.switches_at(1));
    assert!(degree[..leaves].iter().all(|&d| d == 4), "{degree:?}");
    assert!(degree[leaves..].iter().all(|&d| d == 8), "{degree:?}");
    assert_eq!(degree.len(), leaves + mid + clos.switches_at(2));
    // Radix 6: real top 0 absorbs virtuals 0 and 1 (one uplink from
    // each leaf per virtual); real top 1 absorbs only virtual 2.
    let degree = degrees(&ClosNetwork::new(FoldedClos::new(2, 6)).build_spec());
    assert_eq!(degree[3..], [6, 3]);
}

#[test]
fn dragonfly_structure_holds_on_the_spec() {
    // Complete groups: local - global - local, under 3 hops on average.
    let spec = Dragonfly::new(DragonflyParams::new(2, 4, 2).unwrap()).build_spec();
    assert_eq!(diameter(&spec), Some(3));
    let avg = spec.average_hop_count().unwrap();
    assert!(avg > 1.5 && avg < 3.0, "avg {avg}");
    // 2x2 flattened-butterfly groups: the worst minimal route is
    // local(2) + global + local(2) = 5, but shortest paths may cut
    // through a third group.
    let df = Dragonfly::with_group_topology(
        DragonflyParams::new(2, 4, 2).unwrap(),
        GroupTopology::FlattenedButterfly(vec![2, 2]),
        ChannelLatencies::default(),
    )
    .unwrap();
    let spec = df.build_spec();
    assert_eq!(spec.num_routers(), df.params().num_routers());
    let d = diameter(&spec).expect("connected");
    assert!((4..=5).contains(&d), "diameter {d}");
}

/// The first router-to-router cable of `spec`, canonical end.
fn first_cable(spec: &NetworkSpec) -> (usize, usize) {
    spec.network_channels()
        .next()
        .expect("network has at least one cable")
}

/// The first global cable of `spec`, canonical end.
fn first_global_cable(spec: &NetworkSpec) -> (usize, usize) {
    spec.network_channels()
        .find(|&(r, p)| spec.routers[r].ports[p].class == ChannelClass::Global)
        .expect("dragonfly has global cables")
}

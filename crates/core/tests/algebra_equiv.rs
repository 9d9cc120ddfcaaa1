//! Equivalence of the closed-form [`RouteAlgebra`] with a BFS oracle.
//!
//! The algebra answers routing queries from index arithmetic alone; the
//! old table-driven path derived the same answers from BFS over the
//! built [`NetworkSpec`]. This suite pins the two together on small
//! instances of all four topologies: following `minimal_port` hop by
//! hop must traverse only alive links, shed exactly one hop of
//! `minimal_hops` per step, and end at the destination's ejection port;
//! the hop count itself must match the BFS distance (dragonfly minimal
//! routes are salt-selected among parallel global channels, so there
//! the algebra is checked as a real path of bounded length instead).
//! The same walks are repeated under an explicit single-cable
//! [`FaultPlan`], where the algebra is allowed to consult the lazy
//! per-destination BFS columns — its answers must agree with a fresh
//! oracle built over the degraded spec.
//!
//! The oracle also judges the spec's own BFS: on every spec built here,
//! [`NetworkSpec::hops_to`] must reproduce its distances with first
//! hops that make progress, and [`NetworkSpec::diameter`] its diameter.
//! The topologies' structural properties — flattened-butterfly and
//! torus diameters and link counts, Clos connectivity and port counts,
//! the dragonfly's diameter and mean hop count — are asserted on the
//! same specs.

use dfly_netsim::{ChannelClass, Connection, FaultPlan, HopColumn, NetworkSpec, RouteAlgebra};
use dfly_topo::Topology;
use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};
use dragonfly::butterfly::ButterflyNetwork;
use dragonfly::clos_sim::ClosNetwork;
use dragonfly::torus_sim::TorusNetwork;
use dragonfly::{ChannelLatencies, Dragonfly, DragonflyParams, GroupTopology};

const SALTS: [u32; 3] = [0, 1, 7];

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

/// The algebra's terminal attachment must be the spec's, and its VC
/// schedule must fit the spec's channel provisioning.
fn check_terminals(alg: &dyn RouteAlgebra, spec: &NetworkSpec) {
    assert!(alg.vc_count() >= 1 && alg.vc_count() <= spec.vcs);
    for t in 0..spec.num_terminals() {
        assert_eq!(
            spec.terminal_port(t),
            (alg.terminal_router(t), alg.ejection_port(t)),
            "terminal {t} attachment disagrees with the spec"
        );
    }
}

/// Walks the salt-selected minimal route from `router` to terminal
/// `dest`: every hop must use an alive router-router port, carry a VC
/// inside the schedule, and reduce the remaining `minimal_hops` by
/// exactly one; the walk must end at the destination's router, where
/// `minimal_port` becomes the ejection hop on VC 0. Returns the hop
/// count taken.
fn walk_minimal(
    alg: &dyn RouteAlgebra,
    spec: &NetworkSpec,
    router: usize,
    dest: usize,
    salt: u32,
) -> u32 {
    let rd = alg.terminal_router(dest);
    let hops = alg.minimal_hops(router, dest, salt);
    let mut r = router;
    for step in 0..hops {
        let pv = alg.minimal_port(r, dest, salt);
        assert!(
            (pv.vc as usize) < alg.vc_count(),
            "VC {} out of schedule at router {r} ({router}->t{dest}, salt {salt})",
            pv.vc
        );
        let p = pv.port as usize;
        assert!(
            !spec.is_failed(r, p),
            "minimal route crosses a failed link at ({r}, {p})"
        );
        let Connection::Router { router: peer, .. } = spec.routers[r].ports[p].conn else {
            panic!("minimal_port ejected early at router {r}, step {step} ({router}->t{dest})");
        };
        r = peer as usize;
        assert_eq!(
            alg.minimal_hops(r, dest, salt),
            hops - step - 1,
            "remaining hops did not shed by one at router {r} ({router}->t{dest}, salt {salt})"
        );
    }
    assert_eq!(r, rd, "walk of {hops} hops missed the destination router");
    let eject = alg.minimal_port(rd, dest, salt);
    assert_eq!(eject.port as usize, alg.ejection_port(dest));
    assert_eq!(eject.vc, 0, "ejection must ride VC 0");
    assert_eq!(
        spec.routers[rd].ports[eject.port as usize].conn,
        Connection::Terminal {
            terminal: dest as u32
        }
    );
    hops
}

/// The Valiant tag enumeration must produce `valiant_degree` distinct
/// tags. Returns them for topology-specific checks.
fn valiant_tags(alg: &dyn RouteAlgebra, router: usize, dest: usize) -> Vec<u32> {
    let tags: Vec<u32> = (0..alg.valiant_degree(router, dest))
        .map(|i| alg.valiant_tag(router, dest, i))
        .collect();
    let mut sorted = tags.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        tags.len(),
        "duplicate Valiant tags for {router}->t{dest}"
    );
    tags
}

/// Walk + BFS-equality sweep over every (router, terminal, salt) of a
/// topology whose minimal routes are true shortest paths.
fn check_exact(alg: &dyn RouteAlgebra, spec: &NetworkSpec) {
    check_terminals(alg, spec);
    let dist = bfs_all(spec);
    for (router, drow) in dist.iter().enumerate() {
        for dest in 0..spec.num_terminals() {
            let rd = alg.terminal_router(dest);
            for salt in SALTS {
                let hops = walk_minimal(alg, spec, router, dest, salt);
                assert_eq!(
                    hops, drow[rd],
                    "minimal_hops({router}, t{dest}) disagrees with the BFS oracle"
                );
            }
            valiant_tags(alg, router, dest);
        }
    }
}

#[test]
fn butterfly_algebra_matches_bfs_oracle() {
    let net = ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2));
    let spec = net.build_spec();
    check_exact(&net, &spec);
    // Fault-free, the detour set is every third router.
    let routers = spec.num_routers();
    let c = net.topology().concentration();
    for (router, dest) in [(0usize, (routers - 1) * c), (3, 5 * c)] {
        let rd = dest / c;
        let tags = valiant_tags(&net, router, dest);
        assert_eq!(tags.len(), routers - 2);
        for &tag in &tags {
            assert!((tag as usize) < routers);
            assert_ne!(tag as usize, router, "detour through the source router");
            assert_ne!(tag as usize, rd, "detour through the destination router");
        }
    }
}

#[test]
fn butterfly_algebra_matches_bfs_oracle_under_faults() {
    let cable = first_cable(&ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2)).build_spec());
    let net = ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2))
        .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
        .unwrap();
    let spec = net.build_spec();
    assert!(spec.has_faults());
    check_exact(&net, &spec);
}

#[test]
fn torus_algebra_matches_bfs_oracle() {
    let net = TorusNetwork::new(Torus::new(2, 4, 1));
    let spec = net.build_spec();
    check_exact(&net, &spec);
    // The single detour tag names a (dimension, long direction) ring.
    let tags = valiant_tags(&net, 0, spec.num_terminals() - 1);
    assert_eq!(tags.len(), 1);
    assert!(
        (tags[0] as usize) < 2 * 2,
        "tag {} outside dim*2+dir range",
        tags[0]
    );
}

#[test]
fn torus_algebra_matches_bfs_oracle_under_faults() {
    let cable = first_cable(&TorusNetwork::new(Torus::new(2, 4, 1)).build_spec());
    let net = TorusNetwork::new(Torus::new(2, 4, 1))
        .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
        .unwrap();
    let spec = net.build_spec();
    assert!(spec.has_faults());
    check_exact(&net, &spec);
}

#[test]
fn clos_algebra_matches_bfs_oracle() {
    // Radix 6 exercises the odd virtual-top parity split; (3, 4) the
    // multi-level ascend/descend arithmetic.
    for (levels, radix) in [(2usize, 6usize), (3, 4)] {
        let net = ClosNetwork::new(FoldedClos::new(levels, radix));
        let spec = net.build_spec();
        check_exact(&net, &spec);
    }
}

#[test]
fn clos_algebra_matches_bfs_oracle_under_faults() {
    for (levels, radix) in [(2usize, 6usize), (3, 4)] {
        let cable = first_cable(&ClosNetwork::new(FoldedClos::new(levels, radix)).build_spec());
        let net = ClosNetwork::new(FoldedClos::new(levels, radix))
            .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
            .unwrap();
        let spec = net.build_spec();
        assert!(spec.has_faults());
        check_exact(&net, &spec);
        // Under faults the routing rides BFS columns, not tags.
        assert_eq!(net.valiant_degree(0, spec.num_terminals() - 1), 0);
    }
}

#[test]
fn dragonfly_algebra_is_consistent_and_bfs_bounded() {
    // The dragonfly's minimal route is salt-selected among parallel
    // global channels, so its hop count is a valid path length bounded
    // below by the BFS distance and above by local+global+local.
    let params = DragonflyParams::new(2, 4, 2).unwrap();
    let df = Dragonfly::new(params);
    let spec = df.build_spec();
    check_terminals(&df, &spec);
    let dist = bfs_all(&spec);
    for (router, drow) in dist.iter().enumerate() {
        for dest in 0..spec.num_terminals() {
            let rd = df.terminal_router(dest);
            for salt in SALTS {
                let hops = walk_minimal(&df, &spec, router, dest, salt);
                assert!(
                    hops >= drow[rd],
                    "algebra beat the BFS shortest path {router}->t{dest}"
                );
                assert!(hops <= 3, "minimal dragonfly route longer than l+g+l");
            }
            let gs = params.group_of_router(router);
            let gd = params.group_of_router(rd);
            let tags = valiant_tags(&df, router, dest);
            if gs == gd {
                assert!(tags.is_empty(), "detour offered for intra-group traffic");
            } else {
                assert_eq!(tags.len(), params.num_groups() - 2);
                for &tag in &tags {
                    assert!((tag as usize) < params.num_groups());
                    assert_ne!(tag as usize, gs, "detour through the source group");
                    assert_ne!(tag as usize, gd, "detour through the destination group");
                }
            }
        }
    }
}

#[test]
fn dragonfly_algebra_is_consistent_under_faults() {
    // Kill one global cable: pairs that still own an alive slot must
    // keep walking consistently; the severed group pair must instead
    // expose a non-empty viable-intermediate set (its Valiant tags).
    let params = DragonflyParams::new(2, 4, 2).unwrap();
    let clean_spec = Dragonfly::new(params).build_spec();
    let cable = first_global_cable(&clean_spec);
    let df = Dragonfly::new(params)
        .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
        .unwrap();
    let spec = df.build_spec();
    assert!(spec.has_faults());
    check_terminals(&df, &spec);
    let dist = bfs_all(&spec);
    let mut severed_pairs = 0;
    for (router, drow) in dist.iter().enumerate() {
        for dest in 0..spec.num_terminals() {
            let rd = df.terminal_router(dest);
            let gs = params.group_of_router(router);
            let gd = params.group_of_router(rd);
            if gs != gd && df.global_slot_count(gs, gd) == 0 {
                // No minimal route exists; the tag set must route around.
                severed_pairs += 1;
                let tags = valiant_tags(&df, router, dest);
                assert!(
                    !tags.is_empty(),
                    "severed pair {gs}->{gd} with no detour tags"
                );
                continue;
            }
            for salt in SALTS {
                let hops = walk_minimal(&df, &spec, router, dest, salt);
                assert!(hops >= drow[rd]);
            }
        }
    }
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
    assert_eq!(spec.num_routers(), df.num_routers());
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

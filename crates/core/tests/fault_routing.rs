//! Fault-injection properties across all four topologies.
//!
//! For every single failed link, every still-connected terminal pair
//! must deliver within the topology's diameter-derived hop bound
//! (`route_hop_bound`), and malformed or disconnecting fault plans must
//! be rejected with typed errors — never a hang or a panic.

use dfly_netsim::{
    ChannelClass, Connection, FaultPlan, NetworkSpec, RouteInfo, SimConfig, SimError,
};
use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};
use dragonfly::butterfly::ButterflyNetwork;
use dragonfly::clos_sim::ClosNetwork;
use dragonfly::torus_sim::TorusNetwork;
use dragonfly::{
    Dragonfly, DragonflyParams, DragonflySim, FaultSweep, NetworkSim, RoutingChoice, TrafficChoice,
};

/// Every router-to-router cable of `spec`, one canonical end each.
fn cables(spec: &NetworkSpec) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (r, router) in spec.routers.iter().enumerate() {
        for (p, port) in router.ports.iter().enumerate() {
            if let Connection::Router {
                router: peer,
                port: peer_port,
            } = port.conn
            {
                if (r, p) < (peer as usize, peer_port as usize) {
                    out.push((r, p));
                }
            }
        }
    }
    out
}

#[test]
fn dragonfly_delivers_around_any_single_global_failure() {
    // p=2, a=4, h=2: 9 groups with exactly one cable per group pair, so
    // a failed global cable removes the only minimal inter-group path.
    let params = DragonflyParams::new(2, 4, 2).unwrap();
    let clean_spec = Dragonfly::new(params).build_spec();
    let tpg = params.num_terminals() / params.num_groups();
    for cable in cables(&clean_spec)
        .into_iter()
        .filter(|&(r, p)| clean_spec.routers[r].ports[p].class == ChannelClass::Global)
    {
        let sim = DragonflySim::new(
            Dragonfly::new(params)
                .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
                .unwrap_or_else(|e| panic!("cable {cable:?} rejected: {e}")),
        );
        let df = sim.dragonfly();
        let bound = df.route_hop_bound();
        for gs in 0..params.num_groups() {
            for gd in 0..params.num_groups() {
                if gs == gd {
                    continue;
                }
                let (src, dest) = (gs * tpg, gd * tpg);
                let route = if df.global_slot_count(gs, gd) == 0 {
                    let viable = df
                        .viable_intermediates(gs, gd)
                        .expect("faulty dragonfly exposes viable intermediates");
                    assert!(
                        !viable.is_empty(),
                        "no route {gs}->{gd} with cable {cable:?} down"
                    );
                    RouteInfo::non_minimal(viable[0])
                } else {
                    RouteInfo::minimal()
                };
                let hops = sim
                    .trace_route(src, dest, route)
                    .unwrap_or_else(|e| panic!("{gs}->{gd}, cable {cable:?} down: {e}"));
                assert!(
                    hops.len() <= bound,
                    "{gs}->{gd} took {} hops (bound {bound}) with cable {cable:?} down",
                    hops.len()
                );
            }
        }
    }
}

#[test]
fn butterfly_delivers_around_any_single_failure() {
    let net = ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2));
    let all = cables(&net.build_spec());
    for cable in all {
        let net = ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2))
            .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
            .unwrap_or_else(|e| panic!("cable {cable:?} rejected: {e}"));
        let bound = net.route_hop_bound();
        let c = net.topology().concentration();
        let sim = NetworkSim::from(net);
        let routers = sim.spec().num_routers();
        for sr in 0..routers {
            for dr in 0..routers {
                let (src, dest) = (sr * c, dr * c);
                let hops = sim
                    .trace_route(src, dest, RouteInfo::minimal())
                    .unwrap_or_else(|e| panic!("{sr}->{dr}, cable {cable:?} down: {e}"));
                assert!(hops.len() <= bound);
            }
        }
    }
}

#[test]
fn torus_delivers_around_any_single_failure() {
    let all = cables(&TorusNetwork::new(Torus::new(2, 4, 1)).build_spec());
    for cable in all {
        let net = TorusNetwork::new(Torus::new(2, 4, 1))
            .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
            .unwrap_or_else(|e| panic!("cable {cable:?} rejected: {e}"));
        let bound = net.route_hop_bound();
        let sim = NetworkSim::from(net);
        let n = sim.spec().num_terminals();
        for src in 0..n {
            for dest in 0..n {
                let hops = sim
                    .trace_route(src, dest, RouteInfo::minimal())
                    .unwrap_or_else(|e| panic!("{src}->{dest}, cable {cable:?} down: {e}"));
                assert!(hops.len() <= bound);
            }
        }
    }
}

#[test]
fn clos_delivers_around_any_single_failure() {
    // Radix 6 also exercises the odd-half top rank under faults.
    for (levels, radix) in [(2usize, 6usize), (3, 4)] {
        let all = cables(&ClosNetwork::new(FoldedClos::new(levels, radix)).build_spec());
        for cable in all {
            let net = ClosNetwork::new(FoldedClos::new(levels, radix))
                .with_fault_plan(&FaultPlan::Explicit(vec![cable]))
                .unwrap_or_else(|e| panic!("cable {cable:?} rejected: {e}"));
            let bound = net.route_hop_bound();
            let sim = NetworkSim::from(net);
            let n = sim.spec().num_terminals();
            for src in 0..n {
                for dest in 0..n {
                    let route = RouteInfo::minimal().with_salt(src as u32 ^ 0x9E37);
                    let hops = sim
                        .trace_route(src, dest, route)
                        .unwrap_or_else(|e| panic!("{src}->{dest}, cable {cable:?} down: {e}"));
                    assert!(hops.len() <= bound);
                }
            }
        }
    }
}

#[test]
fn out_of_range_fraction_is_rejected() {
    let params = DragonflyParams::new(2, 4, 2).unwrap();
    for fraction in [-0.1, 1.5, f64::NAN] {
        let err = Dragonfly::with_faults(params, &FaultPlan::random_global(fraction, 1))
            .expect_err("fraction outside [0, 1] must be rejected");
        assert!(
            matches!(err, SimError::InvalidFaultPlan(_)),
            "unexpected error {err:?}"
        );
    }
}

#[test]
fn malformed_explicit_plans_are_rejected() {
    let params = DragonflyParams::new(2, 4, 2).unwrap();
    // Router out of range, port out of range, and a terminal channel.
    for bad in [(9999usize, 0usize), (0, 9999), (0, 0)] {
        let err = Dragonfly::with_faults(params, &FaultPlan::Explicit(vec![bad]))
            .expect_err("malformed explicit plan must be rejected");
        assert!(
            matches!(err, SimError::InvalidFaultPlan(_)),
            "unexpected error {err:?} for {bad:?}"
        );
    }
}

#[test]
fn disconnecting_plan_is_rejected_not_hung() {
    // A 4-ring: killing the 0-1 and 2-3 cables splits {1, 2} from
    // {3, 0}. dir_port(dim 0, +) = 1 for every router (c = 1).
    let err = TorusNetwork::new(Torus::new(1, 4, 1))
        .with_fault_plan(&FaultPlan::Explicit(vec![(0, 1), (2, 1)]))
        .expect_err("disconnecting plan must be rejected");
    assert!(
        matches!(err, SimError::Unreachable { .. }),
        "unexpected error {err:?}"
    );
}

#[test]
fn dragonfly_rejects_pairs_with_no_valiant_shaped_path() {
    // p=1, a=2, h=2: 5 groups, one cable per pair. Killing 0-1, 0-2,
    // 0-3 and 4-1 leaves the network connected (0-4-2-1 exists) but the
    // 0 -> 1 pair has neither a direct cable nor an intermediate group
    // with both legs alive, so the dragonfly's Valiant-shaped routing
    // cannot reach it.
    let params = DragonflyParams::new(1, 2, 2).unwrap();
    let clean = Dragonfly::new(params);
    let spec = clean.build_spec();
    let cable_between = |ga: usize, gb: usize| {
        let a = params.routers_per_group();
        for r in ga * a..(ga + 1) * a {
            for (p, port) in spec.routers[r].ports.iter().enumerate() {
                if let Connection::Router { router: peer, .. } = port.conn {
                    if port.class == ChannelClass::Global
                        && params.group_of_router(peer as usize) == gb
                    {
                        return (r, p);
                    }
                }
            }
        }
        panic!("no cable {ga}-{gb}")
    };
    let plan = FaultPlan::Explicit(vec![
        cable_between(0, 1),
        cable_between(0, 2),
        cable_between(0, 3),
        cable_between(4, 1),
    ]);
    let err = Dragonfly::with_faults(params, &plan)
        .expect_err("pair without direct cable or viable intermediate must be rejected");
    assert!(
        matches!(err, SimError::Unreachable { .. }),
        "unexpected error {err:?}"
    );
}

#[test]
fn fault_sweep_on_1056_nodes_is_monotone_and_parallel_identical() {
    // The acceptance configuration: the paper's 1056-terminal dragonfly
    // (33 groups, 264 routers, one global cable per group pair).
    let params = DragonflyParams::new(4, 8, 4).unwrap();
    assert_eq!(params.num_terminals(), 1056);
    let mut cfg = SimConfig::paper_default(1.0);
    cfg.warmup = 100;
    cfg.measure = 250;
    let sweep = FaultSweep::new(
        params,
        RoutingChoice::UgalLVcH,
        TrafficChoice::Uniform,
        &cfg,
        &[0.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0],
        42,
    );
    let parallel = sweep.execute().unwrap();
    let serial = sweep.execute_on(1).unwrap();
    assert_eq!(parallel, serial, "parallel sweep diverged from serial");
    assert_eq!(parallel.len(), 4);
    assert_eq!(parallel[0].failed_links, 0);
    // 528 global cables: the fractions fail 33, 66 and 132 of them.
    assert_eq!(parallel[1].failed_links, 33);
    assert_eq!(parallel[2].failed_links, 66);
    assert_eq!(parallel[3].failed_links, 132);
    for pair in parallel.windows(2) {
        assert!(
            pair[1].throughput() <= pair[0].throughput() + 1e-9,
            "throughput rose with more failures: {} -> {} at fraction {}",
            pair[0].throughput(),
            pair[1].throughput(),
            pair[1].fraction
        );
    }
    assert!(parallel[0].throughput() > 0.3, "healthy network too slow");
    assert!(
        parallel[3].throughput() > 0.0,
        "quarter-failed network delivered nothing"
    );
}

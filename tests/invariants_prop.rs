//! Randomized invariants across the whole stack: any valid dragonfly
//! configuration must wire consistently, route without loss or
//! deadlock under any routing algorithm, and respect the paper's VC
//! ordering.
//!
//! Cases are drawn from a seeded RNG (no external property-testing
//! dependency — the container builds offline), so every run exercises
//! the same deterministic case set.

use dfly_traffic::rng_for;
use rand::rngs::SmallRng;
use rand::Rng;

use dragonfly::{DragonflyParams, DragonflySim, RoutingChoice, TrafficChoice};

/// Samples small-but-varied dragonfly parameters, including non-maximal
/// group counts.
fn sample_params(rng: &mut SmallRng) -> DragonflyParams {
    let p = rng.gen_range(1usize..=3);
    let a = rng.gen_range(2usize..=5);
    let h = rng.gen_range(1usize..=3);
    let max_g = a * h + 1;
    let g = rng.gen_range(2usize..=max_g);
    DragonflyParams::with_groups(p, a, h, g).unwrap()
}

/// The generated wiring always validates and every global slot pair is
/// involutive.
#[test]
fn wiring_is_consistent() {
    for case in 0..24u64 {
        let mut rng = rng_for(0x111, case);
        let params = sample_params(&mut rng);
        let df = dragonfly::Dragonfly::new(params);
        let spec = df.build_spec();
        assert_eq!(spec.num_terminals(), params.num_terminals());
        assert_eq!(spec.num_routers(), params.num_routers());
        let ah = params.global_ports_per_group();
        for group in 0..params.num_groups() {
            for q in 0..ah {
                if let Some((pg, pq)) = df.global_slot_target(group, q) {
                    assert_eq!(df.global_slot_target(pg, pq), Some((group, q)));
                    assert_ne!(pg, group);
                }
            }
        }
        // Every pair of groups is connected (global diameter one).
        let g = params.num_groups();
        for i in 0..g {
            for j in 0..g {
                if i != j {
                    assert!(
                        df.global_slot_count(i, j) > 0,
                        "groups {i} and {j} unconnected"
                    );
                }
            }
        }
    }
}

/// Every packet injected at light load is delivered (no loss, no
/// deadlock) under each routing family member, including with the
/// credit round-trip mechanism enabled.
#[test]
fn all_packets_delivered() {
    for case in 0..24u64 {
        let mut rng = rng_for(0x222, case);
        let params = sample_params(&mut rng);
        let choice = RoutingChoice::ALL[rng.gen_range(0usize..7)];
        let seed = rng.gen_range(0u64..1000);
        let sim = DragonflySim::new(params);
        let mut cfg = sim.config(0.08);
        cfg.warmup = 100;
        cfg.measure = 500;
        cfg.drain_cap = 20_000;
        cfg.seed = seed;
        let stats = sim.run(choice, TrafficChoice::Uniform, cfg);
        assert!(
            stats.drained,
            "case {case}: {} lost packets ({params:?}, seed {seed})",
            choice.label()
        );
        assert!(stats.latency.count > 0, "case {case}");
    }
}

/// The adversarial pattern at a load below the Valiant bound drains
/// under non-minimal and adaptive routing.
#[test]
fn adversarial_drains_under_valiant() {
    let mut done = 0u32;
    let mut case = 0u64;
    // Resample until 24 configurations with >= 3 groups (so an
    // intermediate group exists) have been exercised.
    while done < 24 {
        let mut rng = rng_for(0x333, case);
        case += 1;
        let params = sample_params(&mut rng);
        if params.num_groups() < 3 {
            continue;
        }
        done += 1;
        let choice = [RoutingChoice::Valiant, RoutingChoice::UgalG][rng.gen_range(0usize..2)];
        let sim = DragonflySim::new(params);
        let mut cfg = sim.config(0.05);
        cfg.warmup = 100;
        cfg.measure = 400;
        cfg.drain_cap = 30_000;
        let stats = sim.run(choice, TrafficChoice::WorstCase, cfg);
        assert!(
            stats.drained,
            "case {case}: {} lost packets ({params:?})",
            choice.label()
        );
    }
}

/// Accepted throughput equals offered load below saturation, for any
/// seed.
#[test]
fn throughput_conservation() {
    for case in 0..24u64 {
        let mut rng = rng_for(0x444, case);
        let seed = rng.gen_range(0u64..500);
        let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
        let mut cfg = sim.config(0.2);
        cfg.warmup = 300;
        cfg.measure = 1_500;
        cfg.seed = seed;
        let stats = sim.run(RoutingChoice::UgalLVcH, TrafficChoice::Uniform, cfg);
        assert!(stats.drained, "seed {seed}");
        assert!(
            (stats.accepted_rate - 0.2).abs() < 0.04,
            "seed {seed}: accepted {}",
            stats.accepted_rate
        );
    }
}

/// Latency is bounded below by the zero-load path length: injection +
/// at most (local, global, local) + ejection for minimal routes.
#[test]
fn latency_lower_bound() {
    for case in 0..24u64 {
        let mut rng = rng_for(0x555, case);
        let seed = rng.gen_range(0u64..200);
        let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
        let mut cfg = sim.config(0.05);
        cfg.warmup = 100;
        cfg.measure = 800;
        cfg.seed = seed;
        let stats = sim.run(RoutingChoice::Min, TrafficChoice::Uniform, cfg);
        assert!(stats.drained, "seed {seed}");
        // Same-router traffic: inject (1) + eject (1).
        assert!(stats.latency.min >= 2, "seed {seed}");
        // And nothing exceeds a generous zero-loadish cap at this load.
        assert!(
            stats.latency.max < 100,
            "seed {seed}: max {}",
            stats.latency.max
        );
    }
}

mod traffic_properties {
    use super::*;
    use dfly_traffic::{GroupAdversarial, TrafficPattern, UniformRandom};

    /// Destinations are always in range and never the source.
    #[test]
    fn uniform_destinations_valid() {
        for case in 0..64u64 {
            let mut g = rng_for(0x666, case);
            let n = g.gen_range(2usize..200);
            let src_frac = g.gen::<f64>();
            let seed = g.gen_range(0u64..99);
            let ur = UniformRandom::new(n);
            let src = ((n - 1) as f64 * src_frac) as usize;
            let mut rng = rng_for(seed, 0);
            for _ in 0..16 {
                let d = ur.destination(src, &mut rng);
                assert!(d < n, "case {case}");
                assert_ne!(d, src, "case {case}");
            }
        }
    }

    /// The adversarial pattern always targets the configured group.
    #[test]
    fn adversarial_group_offset() {
        let mut done = 0u32;
        let mut case = 0u64;
        while done < 64 {
            let mut g = rng_for(0x777, case);
            case += 1;
            let groups = g.gen_range(2usize..20);
            let size = g.gen_range(1usize..16);
            let offset = g.gen_range(1usize..19);
            let seed = g.gen_range(0u64..99);
            if offset % groups == 0 {
                continue;
            }
            done += 1;
            let n = groups * size;
            let wc = GroupAdversarial::new(n, size, offset);
            let mut rng = rng_for(seed, 1);
            for src in (0..n).step_by((n / 7).max(1)) {
                let d = wc.destination(src, &mut rng);
                assert_eq!(
                    d / size,
                    (src / size + offset) % groups,
                    "groups={groups} size={size} offset={offset} src={src}"
                );
            }
        }
    }
}

mod route_structure {
    use super::*;
    use dfly_netsim::{ChannelClass, RouteInfo};
    use dragonfly::DragonflySim;

    /// Every minimal route crosses at most one global channel — the
    /// paper's defining property — and every Valiant route at most two,
    /// for any configuration and endpoints.
    #[test]
    fn global_hop_bounds() {
        for case in 0..16u64 {
            let mut g = rng_for(0x888, case);
            let params = sample_params(&mut g);
            let seed = g.gen_range(0u64..100);
            let sim = DragonflySim::new(params);
            let n = params.num_terminals();
            let mut rng = rng_for(seed, 3);
            for _ in 0..12 {
                let src = rng.gen_range(0..n);
                let dest = rng.gen_range(0..n);
                if src == dest {
                    continue;
                }
                let salt: u32 = rng.gen();
                let hops = sim
                    .trace_route(src, dest, RouteInfo::minimal().with_salt(salt))
                    .expect("minimal route completes");
                let globals = hops
                    .iter()
                    .filter(|h| h.class == ChannelClass::Global)
                    .count();
                assert!(globals <= 1, "{src}->{dest}: {globals} globals on MIN");

                let gs = params.group_of_terminal(src);
                let gd = params.group_of_terminal(dest);
                if gs != gd && params.num_groups() >= 3 {
                    let gi = (0..params.num_groups())
                        .find(|&x| x != gs && x != gd)
                        .unwrap();
                    let hops = sim
                        .trace_route(src, dest, RouteInfo::non_minimal(gi as u32).with_salt(salt))
                        .expect("valiant route completes");
                    let globals = hops
                        .iter()
                        .filter(|h| h.class == ChannelClass::Global)
                        .count();
                    assert!(globals <= 2, "{src}->{dest} via {gi}: {globals} globals");
                }
            }
        }
    }

    /// The (channel-class, VC) rank never decreases along any route —
    /// the acyclicity invariant behind Figure 7's deadlock freedom.
    #[test]
    fn vc_rank_is_monotone() {
        fn rank(class: ChannelClass, vc: usize) -> usize {
            match class {
                ChannelClass::Local => 2 * vc,
                ChannelClass::Global => 2 * vc + 1,
                ChannelClass::Terminal => usize::MAX,
            }
        }
        for case in 0..16u64 {
            let mut g = rng_for(0x999, case);
            let params = sample_params(&mut g);
            let seed = g.gen_range(0u64..100);
            let sim = DragonflySim::new(params);
            let n = params.num_terminals();
            let mut rng = rng_for(seed, 4);
            for _ in 0..12 {
                let src = rng.gen_range(0..n);
                let dest = rng.gen_range(0..n);
                if src == dest {
                    continue;
                }
                let gs = params.group_of_terminal(src);
                let gd = params.group_of_terminal(dest);
                let mut routes = vec![RouteInfo::minimal().with_salt(rng.gen())];
                if gs != gd && params.num_groups() >= 3 {
                    let gi = (0..params.num_groups())
                        .find(|&x| x != gs && x != gd)
                        .unwrap() as u32;
                    routes.push(RouteInfo::non_minimal(gi).with_salt(rng.gen()));
                }
                for route in routes {
                    let hops = sim.trace_route(src, dest, route).expect("route completes");
                    let ranks: Vec<usize> = hops.iter().map(|h| rank(h.class, h.vc)).collect();
                    for w in ranks.windows(2) {
                        assert!(w[0] <= w[1], "{src}->{dest}: ranks {ranks:?}");
                    }
                }
            }
        }
    }
}

//! Candidate-path properties of the unified adaptive-routing layer.
//!
//! Every topology now enumerates its UGAL candidates through the shared
//! [`dfly_netsim::CandidatePaths`] trait. These tests walk both
//! candidates of randomly sampled (source, destination) pairs on all
//! four topologies and assert the two deadlock-freedom witnesses:
//!
//! 1. the route ejects at the destination within the topology's
//!    diameter-derived hop bound (no routing loop), and
//! 2. the VC schedule along the path is non-decreasing in the
//!    topology's deadlock rank order (dragonfly `l0 < g0 < l1 < g1 <
//!    l2`; torus `(dimension, VC)` lexicographic; butterfly plain VC;
//!    Clos single-VC up/down),
//!
//! plus that the candidate's advertised first hop (port, VC) is exactly
//! the hop the route function takes — the queue an adaptive decision
//! inspects is the queue the packet uses. On the dragonfly the judge
//! also checks each candidate's hop count and oracle probe against the
//! traced path, over every group organisation, tapering and random
//! fault plans: those are the `H` and `q` of UGAL's `q·H` comparison.
//!
//! The last test runs the layer's other product, the estimator-accuracy
//! scoreboard, for every estimator on the two topologies that carry the
//! whole family.
//!
//! Cases are drawn from a seeded RNG (no external property-testing
//! dependency — the container builds offline), so every run exercises
//! the same deterministic case set.

use std::sync::Arc;

use dfly_netsim::{
    trace_path, CandidatePath, CandidatePaths, ChannelClass, CreditMode, InjectionKind,
    NetworkSpec, RouteInfo, RoutingAlgorithm, SimConfig, Simulation, TraceHop,
};
use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};
use dfly_traffic::{rng_for, UniformRandom};
use rand::Rng;

use dragonfly::butterfly::{ButterflyNetwork, ButterflyRouting};
use dragonfly::clos_sim::{ClosNetwork, ClosRouting};
use dragonfly::network::{NetRouting, SimNetwork};
use dragonfly::torus_sim::{TorusNetwork, TorusRouting};
use dragonfly::{
    ChannelLatencies, Dragonfly, DragonflyParams, DragonflySim, FaultPlan, GroupTopology,
    UgalVariant,
};

/// Asserts a rank sequence never decreases (the acyclic-resource
/// witness: a packet only ever moves to an equal- or higher-ranked VC).
fn assert_monotone(ranks: &[usize], ctx: &str) {
    for w in ranks.windows(2) {
        assert!(w[1] >= w[0], "{ctx}: VC rank regressed in {ranks:?}");
    }
}

/// Network-channel hops of a trace (the ejection hop carries no VC
/// constraint and is excluded from rank sequences).
fn network_hops(hops: &[TraceHop]) -> impl Iterator<Item = &TraceHop> {
    hops.iter().filter(|h| h.class != ChannelClass::Terminal)
}

/// The dragonfly builds the candidate judge walks: complete groups at
/// random sizes, 2-D and 3-D flattened-butterfly groups, a tapered and
/// a non-maximal-`g` build, and random any-link fault plans over three
/// of them (seeds whose plan disconnects a group are skipped).
fn dragonfly_builds() -> Vec<(String, Dragonfly)> {
    let mut builds = Vec::new();
    for case in 0..10u64 {
        let mut rng = rng_for(0xADA0, case);
        let p = rng.gen_range(1usize..=3);
        let a = rng.gen_range(2usize..=5);
        let h = rng.gen_range(1usize..=3);
        let g = rng.gen_range(2usize..=a * h + 1);
        let params = DragonflyParams::with_groups(p, a, h, g).unwrap();
        builds.push((format!("complete {params:?}"), Dragonfly::new(params)));
    }
    let fb = |dims: Vec<usize>| {
        let params = DragonflyParams::new(2, 8, 2).unwrap();
        let group = GroupTopology::FlattenedButterfly(dims);
        Dragonfly::with_group_topology(params, group, ChannelLatencies::default()).unwrap()
    };
    let non_max = DragonflyParams::with_groups(2, 4, 2, 5).unwrap();
    let clean = [
        ("fb [2, 4]", fb(vec![2, 4])),
        ("fb [2, 2, 2]", fb(vec![2, 2, 2])),
        ("taper 0.5", Dragonfly::with_taper(non_max, 0.5).unwrap()),
        ("non-maximal g", Dragonfly::new(non_max)),
        (
            "complete 72",
            Dragonfly::new(DragonflyParams::new(2, 4, 2).unwrap()),
        ),
    ];
    for (name, df) in &clean[1..] {
        for seed in 0..4u64 {
            let plan = FaultPlan::random_any(0.1, seed);
            if let Ok(faulted) = df.clone().with_fault_plan(&plan) {
                builds.push((format!("{name} + random_any(0.1, {seed})"), faulted));
            }
        }
    }
    assert!(builds.len() >= 10 + 12, "too few fault plans applied");
    builds.extend(clean.map(|(name, df)| (name.to_string(), df)));
    builds
}

/// Walks both UGAL candidates of sampled pairs on every dragonfly build
/// and checks what UGAL's `q·H` comparison reads: the first hop (port,
/// VC), the hop count `H` against the traced path, and the probe point
/// against the traced path's first global channel — plus the ejection
/// and deadlock-rank witnesses. Under a fault plan only the candidates
/// the harness may request are walked: minimal where a direct channel
/// survives, non-minimal through a viable intermediate.
#[test]
fn dragonfly_candidates_eject_and_rank_monotone() {
    // Rank in the paper's deadlock order l0 < g0 < l1 < g1 < l2.
    let rank = |hop: &TraceHop| match hop.class {
        ChannelClass::Local => 2 * hop.vc,
        ChannelClass::Global => 2 * hop.vc + 1,
        ChannelClass::Terminal => unreachable!("filtered"),
    };
    // The candidate's claims against the path a packet actually takes.
    let judge = |c: &CandidatePath, hops: &[TraceHop], ctx: &str| {
        assert_eq!(
            (hops[0].port, hops[0].vc),
            (c.port as usize, c.vc as usize),
            "{ctx}: first hop"
        );
        assert_eq!(c.hops as usize, network_hops(hops).count(), "{ctx}: hops");
        let probe = hops
            .iter()
            .find(|h| h.class == ChannelClass::Global)
            .map(|h| (h.router as u32, h.port as u16));
        let claimed = (c.probe_router != u32::MAX).then_some((c.probe_router, c.probe_port));
        assert_eq!(claimed, probe, "{ctx}: probe");
        let ranks: Vec<usize> = network_hops(hops).map(rank).collect();
        assert_monotone(&ranks, ctx);
    };
    let mut walked = 0usize;
    for (case, (name, df)) in dragonfly_builds().into_iter().enumerate() {
        let mut rng = rng_for(0xADA3, case as u64);
        let params = *df.params();
        let g = params.num_groups();
        let n = params.num_terminals();
        let sim = DragonflySim::new(df);
        let df = sim.dragonfly();
        let trace = |src, dest, route| {
            sim.trace_route(src, dest, route)
                .unwrap_or_else(|e| panic!("{name}: {src}->{dest} {route:?}: {e}"))
        };
        for _ in 0..160 {
            let src = rng.gen_range(0..n);
            let dest = rng.gen_range(0..n);
            let salt: u32 = rng.gen();
            let rs = params.router_of_terminal(src);
            let (gs, gd) = (
                params.group_of_terminal(src),
                params.group_of_terminal(dest),
            );
            if gs == gd || df.global_slot_count(gs, gd) > 0 {
                let m = df.minimal_candidate(rs, dest, salt);
                let hops = trace(src, dest, RouteInfo::minimal().with_salt(salt));
                judge(&m, &hops, &format!("{name}: minimal {src}->{dest}"));
                walked += 1;
            }
            if g < 3 || gs == gd {
                continue;
            }
            let gi = match df.viable_intermediates(gs, gd) {
                Some([]) => continue,
                Some(viable) => viable[rng.gen_range(0..viable.len())] as usize,
                None => {
                    let mut gi = rng.gen_range(0..g - 2);
                    for skip in [gs.min(gd), gs.max(gd)] {
                        if gi >= skip {
                            gi += 1;
                        }
                    }
                    gi
                }
            };
            let nm = df.non_minimal_candidate(rs, dest, gi as u32, salt);
            let hops = trace(src, dest, RouteInfo::non_minimal(gi as u32).with_salt(salt));
            judge(
                &nm,
                &hops,
                &format!("{name}: non-minimal {src}->{dest} via {gi}"),
            );
            walked += 1;
        }
    }
    assert!(walked > 5_000, "only {walked} candidate paths walked");
}

#[test]
fn butterfly_candidates_eject_and_vcs_monotone() {
    for case in 0..10u64 {
        let mut rng = rng_for(0xADA1, case);
        let d = rng.gen_range(1usize..=3);
        let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(2usize..=4)).collect();
        let c = rng.gen_range(1usize..=2);
        let net = Arc::new(ButterflyNetwork::new(FlattenedButterfly::with_dims(
            &dims, c,
        )));
        let spec = net.build_spec();
        // The UGAL-L(CR) portability demonstration rides the same route
        // function, so walking it covers every mode's paths.
        let routing = ButterflyRouting::ugal(net.clone(), UgalVariant::CreditRoundTrip);
        let n = spec.num_terminals();
        let nr = spec.num_routers();
        // Diameter: one hop per dimension, doubled through the Valiant
        // intermediate, plus ejection and margin.
        let bound = 2 * d + 2;
        for _ in 0..16 {
            let src = rng.gen_range(0..n);
            let dest = rng.gen_range(0..n);
            let salt: u32 = rng.gen();
            let (rs, rd) = (src / c, dest / c);
            let m = net.minimal_candidate(rs, dest, salt);
            let hops = trace_path(
                &spec,
                &routing,
                src,
                dest,
                RouteInfo::minimal().with_salt(salt),
                bound,
            )
            .expect("minimal candidate must eject");
            assert_eq!((hops[0].port, hops[0].vc), (m.port as usize, m.vc as usize));
            let ranks: Vec<usize> = network_hops(&hops).map(|h| h.vc).collect();
            assert_monotone(&ranks, "butterfly minimal");

            if nr < 3 || rs == rd {
                continue;
            }
            let mut ri = rng.gen_range(0..nr - 2);
            for skip in [rs.min(rd), rs.max(rd)] {
                if ri >= skip {
                    ri += 1;
                }
            }
            let nm = net.non_minimal_candidate(rs, dest, ri as u32, salt);
            let hops = trace_path(
                &spec,
                &routing,
                src,
                dest,
                RouteInfo::non_minimal(ri as u32).with_salt(salt),
                bound,
            )
            .expect("non-minimal candidate must eject");
            assert_eq!(
                (hops[0].port, hops[0].vc),
                (nm.port as usize, nm.vc as usize)
            );
            let ranks: Vec<usize> = network_hops(&hops).map(|h| h.vc).collect();
            assert_monotone(&ranks, "butterfly non-minimal");
        }
    }
}

#[test]
fn torus_candidates_eject_and_dim_vc_rank_monotone() {
    for case in 0..10u64 {
        let mut rng = rng_for(0xADA2, case);
        let d = rng.gen_range(1usize..=3);
        let k = rng.gen_range(3usize..=6);
        let c = rng.gen_range(1usize..=2);
        let net = Arc::new(TorusNetwork::new(Torus::new(d, k, c)));
        let spec = net.build_spec();
        let routing = TorusRouting::ugal(net.clone(), UgalVariant::Local);
        let n = spec.num_terminals();
        // Worst path: the long way (k-1 hops) around the detour ring
        // plus the short way (k/2) in every other dimension, ejection
        // and margin.
        let bound = (k - 1) + (d - 1) * (k / 2) + 2;
        // Dimension-order rank: VCs may restart in each new ring, so
        // the deadlock rank is (dimension, VC) lexicographic.
        let rank = |hop: &TraceHop| {
            let dim = (hop.port - c) / 2; // k >= 3: a +/- port pair per dim
            dim * 2 + hop.vc
        };
        for _ in 0..16 {
            let src = rng.gen_range(0..n);
            let dest = rng.gen_range(0..n);
            let salt: u32 = rng.gen();
            let (rs, rd) = (src / c, dest / c);
            let m = net.minimal_candidate(rs, dest, salt);
            let hops = trace_path(
                &spec,
                &routing,
                src,
                dest,
                RouteInfo::minimal().with_salt(salt),
                bound,
            )
            .expect("minimal candidate must eject");
            assert_eq!((hops[0].port, hops[0].vc), (m.port as usize, m.vc as usize));
            let ranks: Vec<usize> = network_hops(&hops).map(rank).collect();
            assert_monotone(&ranks, "torus minimal");

            if rs == rd {
                continue;
            }
            // The detour tag the adaptive mode would pick: the long way
            // around the first differing dimension's ring.
            let ca = net.topology().coordinates(rs);
            let cb = net.topology().coordinates(rd);
            let dim = (0..d).find(|&i| ca[i] != cb[i]).unwrap();
            let forward = (cb[dim] + k - ca[dim]) % k;
            let plus_long = forward > k - forward;
            let tag = (dim * 2 + usize::from(plus_long)) as u32;
            let nm = net.non_minimal_candidate(rs, dest, tag, salt);
            assert!(nm.hops >= m.hops, "detour shorter than minimal");
            let hops = trace_path(
                &spec,
                &routing,
                src,
                dest,
                RouteInfo::non_minimal(tag).with_salt(salt),
                bound,
            )
            .expect("non-minimal candidate must eject");
            assert_eq!(
                (hops[0].port, hops[0].vc),
                (nm.port as usize, nm.vc as usize)
            );
            let ranks: Vec<usize> = network_hops(&hops).map(rank).collect();
            assert_monotone(&ranks, "torus non-minimal");
        }
    }
}

#[test]
fn clos_candidates_eject_with_equal_length_up_down_paths() {
    for case in 0..10u64 {
        let mut rng = rng_for(0xADA3, case);
        let levels = rng.gen_range(2usize..=3);
        // Radix divisible by 4: the folded construction pairs virtual
        // top switches, so k/2 must be even (enforced by ClosNetwork).
        let radix = 4 * rng.gen_range(1usize..=2);
        let half = radix / 2;
        let net = Arc::new(ClosNetwork::new(FoldedClos::new(levels, radix)));
        let spec = net.build_spec();
        let routing = ClosRouting::ugal(net.clone(), UgalVariant::Local);
        let n = spec.num_terminals();
        let bound = 2 * (levels - 1) + 2;
        for _ in 0..16 {
            let src = rng.gen_range(0..n);
            let dest = rng.gen_range(0..n);
            let salt: u32 = rng.gen();
            let (rs, rd) = (src / half, dest / half);
            let m = net.minimal_candidate(rs, dest, salt);
            let hops = trace_path(
                &spec,
                &routing,
                src,
                dest,
                RouteInfo::minimal().with_salt(salt),
                bound,
            )
            .expect("minimal candidate must eject");
            assert_eq!((hops[0].port, hops[0].vc), (m.port as usize, m.vc as usize));
            // Single-VC up/down routing: the whole schedule is VC 0.
            assert!(network_hops(&hops).all(|h| h.vc == 0), "clos left VC 0");

            if rs == rd {
                continue;
            }
            // Every alternative uplink gives an equal-length path — the
            // property that makes the Clos "non-minimal" candidate safe.
            let u = rng.gen_range(0..half) as u32;
            let nm = net.non_minimal_candidate(rs, dest, u, salt);
            assert_eq!(nm.hops, m.hops, "clos alternative uplink not equal-length");
            let alt = trace_path(
                &spec,
                &routing,
                src,
                dest,
                RouteInfo::non_minimal(u).with_salt(salt),
                bound,
            )
            .expect("alternative uplink must eject");
            assert_eq!((alt[0].port, alt[0].vc), (nm.port as usize, nm.vc as usize));
            assert_eq!(alt.len(), hops.len(), "up/down path lengths diverged");
            assert!(network_hops(&alt).all(|h| h.vc == 0), "clos left VC 0");
        }
    }
}

/// The estimator-accuracy scoreboard on both topologies that run the
/// full estimator family: under bursty Markov on/off injection every
/// one of the six congestion estimators has its UGAL decisions scored
/// against the oracle queue depth, and the oracle scored against itself
/// is exact — zero error, never a disagreement.
#[test]
fn every_estimator_is_scored_and_the_oracle_scores_itself_exactly() {
    let df = Arc::new(SimNetwork::<Dragonfly>::new(Dragonfly::new(
        DragonflyParams::new(2, 4, 2).unwrap(),
    )));
    let df_spec = df.build_spec();
    let fb = Arc::new(ButterflyNetwork::new(FlattenedButterfly::new(2, 6, 2)));
    let fb_spec = fb.build_spec();
    for variant in [
        UgalVariant::Local,
        UgalVariant::LocalVc,
        UgalVariant::LocalVcHybrid,
        UgalVariant::LocalEwma,
        UgalVariant::CreditRoundTrip,
        UgalVariant::Global,
    ] {
        let cases: [(&str, &NetworkSpec, Box<dyn RoutingAlgorithm>); 2] = [
            (
                "dragonfly",
                &df_spec,
                Box::new(NetRouting::ugal(Arc::clone(&df), variant)),
            ),
            (
                "FB",
                &fb_spec,
                Box::new(ButterflyRouting::ugal(Arc::clone(&fb), variant)),
            ),
        ];
        for (topology, spec, routing) in cases {
            let mut cfg = SimConfig::paper_default(0.2).with_seed(1);
            cfg.warmup = 500;
            cfg.measure = 1_000;
            cfg.drain_cap = 6_000;
            cfg.injection = InjectionKind::MarkovOnOff {
                rate: 0.2,
                burst_len: 8.0,
                duty: 0.5,
            };
            if variant == UgalVariant::CreditRoundTrip {
                cfg.credit_mode = CreditMode::round_trip();
            }
            let pattern = UniformRandom::new(spec.num_terminals());
            let board = Simulation::new(spec, routing.as_ref(), &pattern, cfg)
                .expect("estimator-accuracy run must be valid")
                .finish()
                .scoreboard;
            let name = format!("{topology} {}", variant.label());
            assert!(board.scored > 0, "{name}: no scored decisions");
            if variant == UgalVariant::Global {
                assert_eq!(board.mean_abs_error(), Some(0.0), "{name}");
                assert_eq!(board.disagreement_rate(), Some(0.0), "{name}");
            }
        }
    }
}

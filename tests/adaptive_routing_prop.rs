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
//! inspects is the queue the packet uses.
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
    trace_path, CandidatePaths, ChannelClass, CreditMode, InjectionKind, NetworkSpec, RouteInfo,
    RoutingAlgorithm, SimConfig, Simulation, TraceHop,
};
use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};
use dfly_traffic::{rng_for, UniformRandom};
use rand::Rng;

use dragonfly::butterfly::{ButterflyNetwork, ButterflyRouting};
use dragonfly::clos_sim::{ClosNetwork, ClosRouting};
use dragonfly::network::{NetRouting, SimNetwork};
use dragonfly::torus_sim::{TorusNetwork, TorusRouting};
use dragonfly::{trace_route, Dragonfly, DragonflyParams, UgalVariant};

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

#[test]
fn dragonfly_candidates_eject_and_rank_monotone() {
    for case in 0..10u64 {
        let mut rng = rng_for(0xADA0, case);
        let p = rng.gen_range(1usize..=3);
        let a = rng.gen_range(2usize..=5);
        let h = rng.gen_range(1usize..=3);
        let g = rng.gen_range(2usize..=a * h + 1);
        let params = DragonflyParams::with_groups(p, a, h, g).unwrap();
        let df = Dragonfly::new(params);
        let n = params.num_terminals();
        let bound = df.route_hop_bound();
        // Rank in the paper's deadlock order l0 < g0 < l1 < g1 < l2.
        let rank = |hop: &TraceHop| match hop.class {
            ChannelClass::Local => 2 * hop.vc,
            ChannelClass::Global => 2 * hop.vc + 1,
            ChannelClass::Terminal => unreachable!("filtered"),
        };
        for _ in 0..16 {
            let src = rng.gen_range(0..n);
            let dest = rng.gen_range(0..n);
            let salt: u32 = rng.gen();
            let rs = params.router_of_terminal(src);
            let m = df.minimal_candidate(rs, dest, salt);
            let hops = trace_route(&df, src, dest, RouteInfo::minimal().with_salt(salt))
                .expect("minimal candidate must eject");
            assert!(hops.len() <= bound, "minimal exceeded {bound} hops");
            assert_eq!(
                (hops[0].port, hops[0].vc),
                (m.port as usize, m.vc as usize),
                "minimal candidate first hop mismatch {src}->{dest}"
            );
            let ranks: Vec<usize> = network_hops(&hops).map(rank).collect();
            assert_monotone(&ranks, "dragonfly minimal");

            let (gs, gd) = (
                params.group_of_terminal(src),
                params.group_of_terminal(dest),
            );
            if g < 3 || gs == gd {
                continue;
            }
            let mut gi = rng.gen_range(0..g - 2);
            for skip in [gs.min(gd), gs.max(gd)] {
                if gi >= skip {
                    gi += 1;
                }
            }
            let nm = df.non_minimal_candidate(rs, dest, gi as u32, salt);
            let hops = trace_route(
                &df,
                src,
                dest,
                RouteInfo::non_minimal(gi as u32).with_salt(salt),
            )
            .expect("non-minimal candidate must eject");
            assert!(hops.len() <= bound, "non-minimal exceeded {bound} hops");
            assert_eq!(
                (hops[0].port, hops[0].vc),
                (nm.port as usize, nm.vc as usize),
                "non-minimal candidate first hop mismatch {src}->{dest} via {gi}"
            );
            let ranks: Vec<usize> = network_hops(&hops).map(rank).collect();
            assert_monotone(&ranks, "dragonfly non-minimal");
        }
    }
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
        let cases: [(&NetworkSpec, Box<dyn RoutingAlgorithm>); 2] = [
            (
                &df_spec,
                Box::new(NetRouting::ugal(Arc::clone(&df), variant)),
            ),
            (
                &fb_spec,
                Box::new(ButterflyRouting::ugal(Arc::clone(&fb), variant)),
            ),
        ];
        for (spec, routing) in cases {
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
            let name = routing.name();
            assert!(board.scored > 0, "{name}: no scored decisions");
            if variant == UgalVariant::Global {
                assert_eq!(board.mean_abs_error(), Some(0.0), "{name}");
                assert_eq!(board.disagreement_rate(), Some(0.0), "{name}");
            }
        }
    }
}

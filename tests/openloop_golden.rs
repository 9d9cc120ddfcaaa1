//! Golden-baseline guard for the open-loop adapter path.
//!
//! The workload refactor rewired packet generation from
//! `InjectionProcess` oracles to `Workload::offer`, with the legacy
//! Bernoulli / Markov on/off processes wrapped as open-loop adapters.
//! These fingerprints were captured from the engine *before* that
//! refactor; the adapter path must keep every one of them bit-identical
//! so all historical BENCH numbers remain comparable.
//!
//! The same fingerprint freezes the three baseline topologies, and then
//! the dragonfly's own routing family, across their moves onto the
//! shared `dragonfly::network` harness.

use std::sync::Arc;

use dfly_netsim::{
    ChannelClass, Connection, CreditMode, FaultPlan, InjectionKind, NetworkSpec, RoutingAlgorithm,
    RunStats, ShortestPathRouting, SimConfig, Simulation, TelemetryConfig,
};
use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};
use dfly_traffic::UniformRandom;
use dragonfly::butterfly::{ButterflyNetwork, ButterflyRouting};
use dragonfly::clos_sim::{ClosNetwork, ClosRouting};
use dragonfly::network::{BfsFaults, SimNetwork};
use dragonfly::torus_sim::{TorusNetwork, TorusRouting};
use dragonfly::{DragonflyParams, DragonflySim, RoutingChoice, UgalVariant};

/// FNV-1a over the full debug rendering of `stats` — any change to
/// RunStats content or ordering shifts it. The debug string carries
/// every field the latency log, flit trace and channel series JSON
/// documents export, so the hash pins run content, not how those
/// documents are formatted. Fields added after the capture are
/// normalised out: `completion` while unset (always `None` on
/// fixed-window runs, so it still trips if a closed-loop value ever
/// leaks into an open-loop run) and the trailing warmup-convergence
/// diagnostics (`converged` and the drift pair), which are derived from
/// warmup-only counters and cannot alter the simulated traffic.
fn fingerprint(stats: &RunStats) -> u64 {
    let debug = format!("{stats:?}").replace(", completion: None", "");
    // The convergence diagnostics are the last fields of RunStats, so
    // truncating at the first of them and re-closing the struct leaves
    // the pre-capture rendering intact.
    let debug = match debug.find(", converged: ") {
        Some(at) => format!("{} }}", &debug[..at]),
        None => debug,
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in debug.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One fixed-window run of `routing` over `spec` under uniform traffic
/// with the sampler and the flit tracer on.
fn golden_run(
    spec: &NetworkSpec,
    routing: &dyn RoutingAlgorithm,
    injection: InjectionKind,
    seed: u64,
    credit_mode: CreditMode,
) -> RunStats {
    let mut cfg = SimConfig::paper_default(injection.rate());
    cfg.injection = injection;
    cfg.credit_mode = credit_mode;
    cfg.warmup = 150;
    cfg.measure = 300;
    cfg.drain_cap = 5_000;
    cfg.seed = seed;
    cfg.telemetry = TelemetryConfig {
        sample_every: 16,
        trace_rate: 0.25,
        trace_seed: 9,
    };
    let pattern = UniformRandom::new(spec.num_terminals());
    Simulation::new(spec, routing, &pattern, cfg)
        .expect("golden configuration is valid")
        .finish()
}

#[test]
fn open_loop_adapter_matches_pre_refactor_baselines() {
    let cases: [(RoutingChoice, InjectionKind, u64, u64); 3] = [
        (
            RoutingChoice::Min,
            InjectionKind::Bernoulli { rate: 0.1 },
            42,
            0x0737_915c_2aaa_e991,
        ),
        (
            RoutingChoice::UgalLVcH,
            InjectionKind::Bernoulli { rate: 0.2 },
            7,
            0xc3f3_54f1_43c1_0b74,
        ),
        (
            RoutingChoice::UgalL,
            InjectionKind::MarkovOnOff {
                rate: 0.15,
                burst_len: 8.0,
                duty: 0.5,
            },
            23,
            0xabcf_f5ad_77d9_887a,
        ),
    ];
    let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
    let mut drift = String::new();
    for (choice, injection, seed, want) in cases {
        let routing = choice.build(sim.shared_network());
        let stats = golden_run(
            sim.spec(),
            routing.as_ref(),
            injection,
            seed,
            CreditMode::Conventional,
        );
        assert!(stats.drained, "golden run did not drain");
        let got = fingerprint(&stats);
        if got != want {
            drift.push_str(&format!(
                "open-loop fingerprint drifted: {choice:?} / {injection:?} / seed {seed} -> {got:#018x}\n"
            ));
        }
    }
    assert!(drift.is_empty(), "{drift}");
}

/// The first global cable from group `ga` to group `gb`, as a one-link
/// fault plan on a fresh `params` dragonfly.
fn group_cable(params: DragonflyParams, ga: usize, gb: usize) -> FaultPlan {
    let spec = DragonflySim::new(params).spec().clone();
    let cable = spec
        .routers
        .iter()
        .enumerate()
        .filter(|&(r, _)| params.group_of_router(r) == ga)
        .find_map(|(r, router)| {
            let p = router.ports.iter().position(|port| match port.conn {
                Connection::Router { router: peer, .. } => {
                    port.class == ChannelClass::Global
                        && params.group_of_router(peer as usize) == gb
                }
                Connection::Terminal { .. } => false,
            })?;
            Some((r, p))
        })
        .expect("every group pair is wired");
    FaultPlan::Explicit(vec![cable])
}

/// Frozen judge for the dragonfly's routing family — every choice
/// fault-free, and the slot-masking fault model's forced detours and
/// forced-minimal fallbacks — captured from the dedicated MIN / VAL /
/// UGAL structs before the dragonfly moved onto `dragonfly::network`.
#[test]
fn dragonfly_routings_match_pre_harness_fingerprints() {
    use RoutingChoice::*;
    let df72 = DragonflyParams::new(2, 4, 2).unwrap();
    let df5 = DragonflyParams::with_groups(2, 4, 2, 5).unwrap();
    let df3 = DragonflyParams::with_groups(1, 3, 1, 3).unwrap();
    let faulted = |params, plan: FaultPlan| DragonflySim::with_faults(params, &plan).unwrap();
    let local_cut = first_cable(DragonflySim::new(df72).spec());
    let rows = [
        (
            "clean 72",
            DragonflySim::new(df72),
            vec![
                (Min, 0x72de_6a8d_ba5b_3013),
                (Valiant, 0xc1f7_a34b_825f_c885),
                (UgalL, 0x1495_aae1_2bc1_50b3),
                (UgalLVc, 0x3899_c053_0705_3057),
                (UgalLVcH, 0x0a60_15ef_f361_a8ed),
                (UgalLCr, 0x2bdd_5f59_2a14_b77e),
                (UgalG, 0x84d4_8cab_3fc8_d705),
                (UgalLEwma, 0x60b2_6433_d828_36bc),
            ],
        ),
        (
            "72, 0-1 global cut",
            faulted(df72, group_cable(df72, 0, 1)),
            vec![
                (Min, 0x8ed5_519c_9314_c5c5),
                (Valiant, 0x4120_c431_1598_d350),
                (UgalLVcH, 0x420d_d799_0bd2_9a75),
            ],
        ),
        (
            "72, local cut",
            faulted(df72, local_cut),
            vec![(Min, 0xdaf7_f943_a47b_cb81), (UgalL, 0x2784_cd7e_4f2e_e566)],
        ),
        (
            "g=5, one of two 0-1 cables cut",
            faulted(df5, group_cable(df5, 0, 1)),
            vec![
                (Min, 0x7f80_5b60_2210_71bd),
                (Valiant, 0xa58d_fffc_fa83_06d8),
                (UgalG, 0x0349_2185_5164_2490),
            ],
        ),
        // 0 -> 2 must detour through group 1, and 0 -> 1 has no viable
        // intermediate left: both fault-forced rules fire.
        (
            "g=3, 0-2 cut",
            faulted(df3, group_cable(df3, 0, 2)),
            vec![
                (Valiant, 0xfccc_74fe_b2d2_6c3b),
                (UgalL, 0x1ee8_6fe8_971b_ad1f),
            ],
        ),
    ];
    let mut drift = String::new();
    for (label, sim, cases) in &rows {
        assert_eq!(sim.spec().has_faults(), !label.starts_with("clean"));
        for &(choice, want) in cases {
            let routing = choice.build(sim.shared_network());
            let credit_mode = if choice.needs_round_trip_credits() {
                CreditMode::round_trip()
            } else {
                CreditMode::Conventional
            };
            let stats = golden_run(
                sim.spec(),
                routing.as_ref(),
                InjectionKind::Bernoulli { rate: 0.2 },
                11,
                credit_mode,
            );
            let got = fingerprint(&stats);
            if got != want {
                drift.push_str(&format!(
                    "dragonfly fingerprint drifted: {label} / {choice:?} -> {got:#018x} \
                     (drained {}, fault-avoided {})\n",
                    stats.drained, stats.routing.fault_avoided_decisions
                ));
            }
        }
    }
    assert!(drift.is_empty(), "{drift}");
}

/// The first router-to-router cable of `spec`, as a one-link fault plan.
fn first_cable(spec: &NetworkSpec) -> FaultPlan {
    let (router, port) = spec
        .routers
        .iter()
        .enumerate()
        .find_map(|(r, router)| {
            let p = router
                .ports
                .iter()
                .position(|p| matches!(p.conn, Connection::Router { .. }))?;
            Some((r, p))
        })
        .expect("network has a cable");
    FaultPlan::Explicit(vec![(router, port)])
}

/// `net` as is, or with its first cable cut.
fn maybe_cut<T: BfsFaults>(net: SimNetwork<T>, cut: bool) -> Arc<SimNetwork<T>> {
    Arc::new(if cut {
        let plan = first_cable(&net.build_spec());
        net.with_fault_plan(&plan).unwrap()
    } else {
        net
    })
}

/// Frozen judge for the three baseline topologies: every routing mode,
/// fault-free and with one cable cut, captured from the per-topology
/// harnesses before they were folded into `dragonfly::network`. The
/// shared harness must reproduce each run bit for bit.
#[test]
fn baseline_topologies_match_pre_harness_fingerprints() {
    let want: [[u64; 7]; 2] = [
        [
            0xa610_3c4d_2a9d_bec7,
            0xea5d_eaa4_b399_fa53,
            0xf9a8_7a57_33b2_1348,
            0xcf8c_5068_d890_c498,
            0xc2eb_8a53_c824_ac77,
            0xcfeb_ebb3_4792_4e46,
            0xddb6_e18d_5f1d_a7fa,
        ],
        // One cable cut. Clos and torus fall back to minimal under
        // faults, so their two modes coincide; the faulted Clos rides
        // first-port BFS columns, saturates one uplink and does not
        // drain — that too is frozen.
        [
            0x73b9_4364_bf02_48f8,
            0xdbff_6a41_86ab_16c5,
            0xe079_eeb3_b459_561e,
            0xff39_2cfa_d676_fb17,
            0xff39_2cfa_d676_fb17,
            0xca32_e21a_16ad_0b53,
            0xca32_e21a_16ad_0b53,
        ],
    ];
    let mut drift = String::new();
    for (cut, want) in [false, true].into_iter().zip(want) {
        let fb = maybe_cut(ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2)), cut);
        let clos = maybe_cut(ClosNetwork::new(FoldedClos::new(3, 8)), cut);
        let torus = maybe_cut(TorusNetwork::new(Torus::new(2, 4, 2)), cut);
        let (fb_spec, clos_spec, torus_spec) =
            (fb.build_spec(), clos.build_spec(), torus.build_spec());
        let rows: [(&str, &NetworkSpec, Box<dyn RoutingAlgorithm>); 7] = [
            (
                "FB-MIN",
                &fb_spec,
                Box::new(ButterflyRouting::new(fb.clone())),
            ),
            (
                "FB-VAL",
                &fb_spec,
                Box::new(ButterflyRouting::valiant(fb.clone())),
            ),
            (
                "FB-UGAL-L_CR",
                &fb_spec,
                Box::new(ButterflyRouting::ugal(fb, UgalVariant::CreditRoundTrip)),
            ),
            (
                "clos-updown",
                &clos_spec,
                Box::new(ClosRouting::new(clos.clone())),
            ),
            (
                "clos-UGAL-L",
                &clos_spec,
                Box::new(ClosRouting::ugal(clos, UgalVariant::Local)),
            ),
            (
                "torus-DOR",
                &torus_spec,
                Box::new(TorusRouting::new(torus.clone())),
            ),
            (
                "torus-UGAL-L",
                &torus_spec,
                Box::new(TorusRouting::ugal(torus, UgalVariant::Local)),
            ),
        ];
        for ((name, spec, routing), want) in rows.iter().zip(want) {
            assert_eq!(spec.has_faults(), cut);
            // Only UGAL-L_CR reads round-trip credit state.
            let credit_mode = if name.ends_with("UGAL-L_CR") {
                CreditMode::round_trip()
            } else {
                CreditMode::Conventional
            };
            let stats = golden_run(
                spec,
                routing.as_ref(),
                InjectionKind::Bernoulli { rate: 0.2 },
                11,
                credit_mode,
            );
            let got = fingerprint(&stats);
            if got != want {
                drift.push_str(&format!(
                    "baseline fingerprint drifted: {name} / cut {cut} -> {got:#018x}\n"
                ));
            }
        }
    }
    assert!(drift.is_empty(), "{drift}");
}

/// Frozen judge for the substrate's own `ShortestPathRouting` over a
/// spec with one cable cut: its next hops are BFS first discoveries
/// over the surviving links, so any change to that BFS shows here.
#[test]
fn shortest_path_routing_on_a_cut_butterfly_is_frozen() {
    let net = maybe_cut(
        ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2)),
        true,
    );
    let spec = net.build_spec();
    assert!(spec.has_faults());
    let routing = ShortestPathRouting::new(&spec);
    let stats = golden_run(
        &spec,
        &routing,
        InjectionKind::Bernoulli { rate: 0.2 },
        11,
        CreditMode::Conventional,
    );
    assert!(stats.drained, "golden run did not drain");
    let got = fingerprint(&stats);
    assert_eq!(
        got, 0xb638_80da_38bd_9123,
        "shortest-path fingerprint drifted: {got:#018x}"
    );
}

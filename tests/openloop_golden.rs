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
    RunStats, SimConfig, Simulation, TelemetryConfig,
};
use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};
use dfly_traffic::UniformRandom;
use dragonfly::butterfly::{ButterflyNetwork, ButterflyRouting};
use dragonfly::clos_sim::{ClosNetwork, ClosRouting};
use dragonfly::network::{BfsFaults, SimNetwork};
use dragonfly::torus_sim::{TorusNetwork, TorusRouting};
use dragonfly::{DragonflyParams, DragonflySim, RoutingChoice, UgalVariant};

/// FNV-1a over the full debug rendering plus the exported JSON bytes —
/// any change to RunStats content, ordering or formatting shifts it.
/// Fields added after the capture are normalised out: `completion` while
/// unset (always `None` on fixed-window runs, so it still trips if a
/// closed-loop value ever leaks into an open-loop run) and the trailing
/// warmup-convergence diagnostics (`converged` and the drift pair),
/// which are derived from warmup-only counters and cannot alter the
/// simulated traffic. The hash keeps covering exactly what the
/// pre-refactor engine emitted.
fn fingerprint(stats: &RunStats) -> u64 {
    let debug = format!("{stats:?}").replace(", completion: None", "");
    // The convergence diagnostics are the last fields of RunStats, so
    // truncating at the first of them and re-closing the struct leaves
    // the pre-capture rendering intact.
    let debug = match debug.find(", converged: ") {
        Some(at) => format!("{} }}", &debug[..at]),
        None => debug,
    };
    let mut bytes = debug.into_bytes();
    bytes.extend_from_slice(stats.latency_log.to_json().as_bytes());
    if let Some(trace) = &stats.trace {
        bytes.extend_from_slice(trace.to_chrome_json().as_bytes());
    }
    if let Some(series) = &stats.series {
        bytes.extend_from_slice(series.to_json().as_bytes());
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
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
            0xe50a_a897_a165_f551,
        ),
        (
            RoutingChoice::UgalLVcH,
            InjectionKind::Bernoulli { rate: 0.2 },
            7,
            0x07d9_f0a8_b839_949b,
        ),
        (
            RoutingChoice::UgalL,
            InjectionKind::MarkovOnOff {
                rate: 0.15,
                burst_len: 8.0,
                duty: 0.5,
            },
            23,
            0x2a2c_ce80_e36d_5cd6,
        ),
    ];
    let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
    let mut drift = String::new();
    for (choice, injection, seed, want) in cases {
        let routing = choice.build(sim.shared_dragonfly());
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
                (Min, 0x55dd_f5ab_e8c2_51e0),
                (Valiant, 0xaf60_42e5_21e4_16f4),
                (UgalL, 0xe1a2_25df_851b_101a),
                (UgalLVc, 0xe28c_3358_cec4_ee08),
                (UgalLVcH, 0x8fbc_a228_bf75_cc7a),
                (UgalLCr, 0xb96f_c78e_09d6_1bb8),
                (UgalG, 0x1ea6_8fbc_025d_dc69),
                (UgalLEwma, 0xb334_ed79_54a1_9fe7),
            ],
        ),
        (
            "72, 0-1 global cut",
            faulted(df72, group_cable(df72, 0, 1)),
            vec![
                (Min, 0xfa30_a1f5_b3d1_d053),
                (Valiant, 0x9966_6477_ab67_634d),
                (UgalLVcH, 0xec44_4aae_a162_6d28),
            ],
        ),
        (
            "72, local cut",
            faulted(df72, local_cut),
            vec![(Min, 0x2f4e_8864_ffc8_d85f), (UgalL, 0x494a_7d83_a463_e468)],
        ),
        (
            "g=5, one of two 0-1 cables cut",
            faulted(df5, group_cable(df5, 0, 1)),
            vec![
                (Min, 0xd226_2733_8d1a_64d8),
                (Valiant, 0x0ffd_1a34_b9d7_8d21),
                (UgalG, 0xf6aa_35e7_e40f_e4f4),
            ],
        ),
        // 0 -> 2 must detour through group 1, and 0 -> 1 has no viable
        // intermediate left: both fault-forced rules fire.
        (
            "g=3, 0-2 cut",
            faulted(df3, group_cable(df3, 0, 2)),
            vec![
                (Valiant, 0xf28d_16cf_29a4_a101),
                (UgalL, 0x2651_41c5_0b6a_c165),
            ],
        ),
    ];
    let mut drift = String::new();
    for (label, sim, cases) in &rows {
        assert_eq!(sim.spec().has_faults(), !label.starts_with("clean"));
        for &(choice, want) in cases {
            let routing = choice.build(sim.shared_dragonfly());
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
            0x787c_841f_3cf7_551f,
            0xe10f_f730_90b3_dae2,
            0xe707_4871_94ca_70e1,
            0xb7cf_72d0_b825_d0c3,
            0xcc08_437b_2183_ed13,
            0xc65c_36df_80d6_927d,
            0x7ce4_870c_2836_17a7,
        ],
        // One cable cut. Clos and torus fall back to minimal under
        // faults, so their two modes coincide; the faulted Clos rides
        // first-port BFS columns, saturates one uplink and does not
        // drain — that too is frozen.
        [
            0x2972_fbf3_7492_b4dd,
            0x1453_6cc7_d424_4402,
            0x14dc_264a_a95f_1a01,
            0x2375_3a08_35c5_2d9f,
            0x2375_3a08_35c5_2d9f,
            0x5341_2698_29fe_5b53,
            0x5341_2698_29fe_5b53,
        ],
    ];
    let mut drift = String::new();
    for (cut, want) in [false, true].into_iter().zip(want) {
        let fb = maybe_cut(ButterflyNetwork::new(FlattenedButterfly::new(2, 4, 2)), cut);
        let clos = maybe_cut(ClosNetwork::new(FoldedClos::new(3, 8)), cut);
        let torus = maybe_cut(TorusNetwork::new(Torus::new(2, 4, 2)), cut);
        let (fb_spec, clos_spec, torus_spec) =
            (fb.build_spec(), clos.build_spec(), torus.build_spec());
        let rows: [(&NetworkSpec, Box<dyn RoutingAlgorithm>); 7] = [
            (&fb_spec, Box::new(ButterflyRouting::new(fb.clone()))),
            (&fb_spec, Box::new(ButterflyRouting::valiant(fb.clone()))),
            (
                &fb_spec,
                Box::new(ButterflyRouting::ugal(fb, UgalVariant::CreditRoundTrip)),
            ),
            (&clos_spec, Box::new(ClosRouting::new(clos.clone()))),
            (
                &clos_spec,
                Box::new(ClosRouting::ugal(clos, UgalVariant::Local)),
            ),
            (&torus_spec, Box::new(TorusRouting::new(torus.clone()))),
            (
                &torus_spec,
                Box::new(TorusRouting::ugal(torus, UgalVariant::Local)),
            ),
        ];
        for ((spec, routing), want) in rows.iter().zip(want) {
            assert_eq!(spec.has_faults(), cut);
            // Only UGAL-L_CR reads round-trip credit state.
            let credit_mode = if routing.name().ends_with("UGAL-L_CR") {
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
                    "baseline fingerprint drifted: {} / cut {cut} -> {got:#018x}\n",
                    routing.name()
                ));
            }
        }
    }
    assert!(drift.is_empty(), "{drift}");
}

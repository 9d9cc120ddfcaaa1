//! End-to-end integration: the full public API — parameters, topology,
//! simulation harness, every routing choice, every traffic pattern —
//! exercised together the way a downstream user would.

use dragonfly::{DragonflyParams, DragonflySim, RoutingChoice, RunGrid, TrafficChoice};

fn small_sim() -> DragonflySim {
    // 72-node dragonfly: fast enough to sweep everything.
    DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap())
}

fn fast_cfg(sim: &DragonflySim, load: f64) -> dfly_netsim::SimConfig {
    let mut cfg = sim.config(load);
    cfg.warmup = 400;
    cfg.measure = 1_200;
    cfg.drain_cap = 20_000;
    cfg
}

#[test]
fn every_routing_choice_delivers_benign_traffic() {
    let sim = small_sim();
    for choice in RoutingChoice::ALL {
        let stats = sim.run(choice, TrafficChoice::Uniform, fast_cfg(&sim, 0.15));
        assert!(stats.drained, "{} did not drain", choice.label());
        assert!(
            (stats.accepted_rate - 0.15).abs() < 0.03,
            "{}: accepted {}",
            choice.label(),
            stats.accepted_rate
        );
        let avg = stats.avg_latency().expect("latency recorded");
        assert!(avg < 20.0, "{}: latency {avg}", choice.label());
    }
}

#[test]
fn every_traffic_pattern_runs_under_adaptive_routing() {
    let sim = small_sim();
    for traffic in [
        TrafficChoice::Uniform,
        TrafficChoice::WorstCase,
        TrafficChoice::GroupTornado,
        TrafficChoice::RandomPermutation { seed: 5 },
    ] {
        let stats = sim.run(RoutingChoice::UgalLVcH, traffic, fast_cfg(&sim, 0.1));
        assert!(stats.drained, "{} did not drain", traffic.label());
        assert!(stats.latency.count > 0, "{}: no packets", traffic.label());
    }
}

#[test]
fn harness_is_deterministic() {
    let sim = small_sim();
    let a = sim.run(
        RoutingChoice::UgalL,
        TrafficChoice::WorstCase,
        fast_cfg(&sim, 0.2),
    );
    let b = sim.run(
        RoutingChoice::UgalL,
        TrafficChoice::WorstCase,
        fast_cfg(&sim, 0.2),
    );
    assert_eq!(a, b);
}

#[test]
fn sweep_api_produces_ascending_latency() {
    let sim = small_sim();
    let base = fast_cfg(&sim, 0.0);
    let grid = RunGrid::cross(
        &[RoutingChoice::UgalG],
        &[TrafficChoice::Uniform],
        &[0.1, 0.4, 0.7],
        &base,
    );
    let points = grid.execute(&sim);
    assert_eq!(points.len(), 3);
    let lats: Vec<f64> = points
        .iter()
        .map(|s| {
            assert!(s.drained);
            s.avg_latency().unwrap()
        })
        .collect();
    assert!(
        lats[0] <= lats[1] + 0.5 && lats[1] <= lats[2] + 0.5,
        "{lats:?}"
    );
}

#[test]
fn multi_flit_packets_work_on_the_dragonfly() {
    let sim = small_sim();
    let mut cfg = fast_cfg(&sim, 0.04);
    cfg.packet_len = 4;
    let stats = sim.run(RoutingChoice::UgalLVcH, TrafficChoice::Uniform, cfg);
    assert!(stats.drained);
    // 4-flit packets serialise over the injection channel.
    assert!(stats.latency.min >= 5, "min {}", stats.latency.min);
}

#[test]
fn bursty_injection_is_supported() {
    let sim = small_sim();
    let mut cfg = fast_cfg(&sim, 0.0);
    cfg.injection = dfly_netsim::InjectionKind::OnOff {
        rate: 0.1,
        burst_len: 16.0,
    };
    let stats = sim.run(RoutingChoice::UgalLVcH, TrafficChoice::Uniform, cfg);
    assert!(stats.drained);
    assert!(
        (stats.injected_rate - 0.1).abs() < 0.03,
        "{}",
        stats.injected_rate
    );
}

#[test]
fn larger_network_with_custom_latencies() {
    use dragonfly::{ChannelLatencies, Dragonfly};
    // Global channels 5 cycles (long optics), locals 2: zero-load
    // latency grows accordingly but everything still works.
    let params = DragonflyParams::new(2, 4, 2).unwrap();
    let df = Dragonfly::with_latencies(
        params,
        ChannelLatencies {
            terminal: 1,
            local: 2,
            global: 5,
        },
    );
    let sim = DragonflySim::new(df);
    let stats = sim.run(
        RoutingChoice::Min,
        TrafficChoice::Uniform,
        fast_cfg(&sim, 0.1),
    );
    assert!(stats.drained);
    // Worst minimal path: 1 + 2 + 5 + 2 + 1 = 11 cycles zero-load.
    assert!(stats.latency.max >= 11);
    let avg = stats.avg_latency().unwrap();
    assert!(avg > 6.0, "avg {avg} should reflect longer channels");
}

#[test]
fn non_maximal_group_count_simulates() {
    let sim = DragonflySim::new(DragonflyParams::with_groups(2, 4, 2, 5).unwrap());
    let stats = sim.run(
        RoutingChoice::UgalLVcH,
        TrafficChoice::WorstCase,
        fast_cfg(&sim, 0.15),
    );
    assert!(stats.drained);
}

#[test]
fn multidimensional_group_simulates_deadlock_free() {
    use dragonfly::{ChannelLatencies, Dragonfly, GroupTopology};
    // Figure 6(b)-style cube groups: 8 routers as 2x2x2, p = h = 2.
    let params = DragonflyParams::new(2, 8, 2).unwrap();
    let df = Dragonfly::with_group_topology(
        params,
        GroupTopology::FlattenedButterfly(vec![2, 2, 2]),
        ChannelLatencies::default(),
    )
    .unwrap();
    assert_eq!(df.router_radix(), 7); // the Figure-5 router, reused
    let sim = DragonflySim::new(df);
    for choice in [
        RoutingChoice::Min,
        RoutingChoice::Valiant,
        RoutingChoice::UgalLVcH,
        RoutingChoice::UgalLCr,
    ] {
        let stats = sim.run(choice, TrafficChoice::Uniform, fast_cfg(&sim, 0.1));
        assert!(stats.drained, "{} on cube groups", choice.label());
    }
    // Adversarial traffic too (multi-hop local segments stress VCs).
    let stats = sim.run(
        RoutingChoice::UgalG,
        TrafficChoice::WorstCase,
        fast_cfg(&sim, 0.1),
    );
    assert!(stats.drained);
}

#[test]
fn tapered_dragonfly_trades_capacity_for_cables() {
    use dragonfly::Dragonfly;
    // 5 groups, a*h = 8 ports: full wiring gives 2 channels per pair,
    // a 0.5 taper gives 1.
    let params = DragonflyParams::with_groups(2, 4, 2, 5).unwrap();
    let full = DragonflySim::new(params);
    let tapered = DragonflySim::new(Dragonfly::with_taper(params, 0.5).unwrap());
    let cap = |sim: &DragonflySim| {
        let mut cfg = sim.config(1.0);
        cfg.warmup = 600;
        cfg.measure = 1_200;
        cfg.drain_cap = 0;
        sim.run(RoutingChoice::Min, TrafficChoice::Uniform, cfg)
            .accepted_rate
    };
    let (full_cap, tapered_cap) = (cap(&full), cap(&tapered));
    assert!(
        tapered_cap < full_cap * 0.75,
        "taper should cut global capacity: {full_cap} -> {tapered_cap}"
    );
    assert!(tapered_cap > full_cap * 0.3, "but not collapse it");
}

/// The paper's Figure 4 regime: the million-terminal dragonfly
/// (p = 23, a = 46, h = 23; 1,120,422 terminals) builds and runs a
/// short MIN/uniform point in `scale_mode` inside a 4 GB peak-RSS
/// budget — router memory is O(radix), a next-hop table alone would
/// blow it. Release only:
/// `cargo test --release --test end_to_end -- --ignored`.
#[test]
#[ignore = "1.1M terminals: minutes of release-build time, ~1.1 GB"]
fn million_terminal_network_runs_inside_the_memory_budget() {
    let sim = DragonflySim::new(DragonflyParams::new(23, 46, 23).unwrap());
    let mut cfg = sim.config(0.2);
    cfg.seed = 1;
    cfg.warmup = 60;
    cfg.measure = 120;
    cfg.drain_cap = 3_000;
    cfg.scale_mode = true;
    let stats = sim.run(RoutingChoice::Min, TrafficChoice::Uniform, cfg);
    assert!(
        stats.channel_loads.is_empty(),
        "scale mode kept per-channel load counters"
    );
    assert!(stats.accepted_rate > 0.0, "nothing delivered");

    // `VmHWM` is the process's peak resident set; this is the only test
    // an `--ignored` run of this binary executes, so it is this run's.
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        eprintln!("no /proc/self/status here: peak-RSS assertion skipped");
        return;
    };
    let peak_mb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status")
        / 1024.0;
    eprintln!("million-terminal run: VmHWM {peak_mb:.0} MB");
    assert!(peak_mb < 4096.0, "peak RSS {peak_mb:.0} MB >= 4096 MB");
}

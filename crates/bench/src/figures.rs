//! One generator per table/figure of the paper's evaluation, plus the
//! extension experiments, and [`FIGURES`] — the one table of them that
//! `dfly fig <id>|all|list` dispatches over.

use std::collections::HashMap;
use std::sync::Arc;

use dfly_cost::{
    case_study_64k, dragonfly_cable_lengths_in_e, max_dragonfly_terminals,
    radix_for_single_global_hop, table2, CableCostModel, CostConfig, CABLE_TECHNOLOGIES,
};
use dfly_netsim::{CreditMode, InjectionKind, TdEstimator};
use dfly_topo::{FlattenedButterfly, FoldedClos, Topology, Torus};
use dfly_traffic::UniformRandom;
use dragonfly::butterfly::{ButterflyNetwork, ButterflyRouting};
use dragonfly::clos_sim::{ClosNetwork, ClosRouting};
use dragonfly::torus_sim::{TorusNetwork, TorusRouting};
use dragonfly::{
    DragonflyParams, DragonflySim, LoadPoint, RoutingChoice, RunGrid, RunPlan, TrafficChoice,
    UgalVariant,
};

use crate::{
    assemble_curves, baseline_curves, fmt_latency, latency_cell, paper_network, run_plans,
    sweep_curves, Curve, CurveSpec, Windows,
};

/// One entry of the figure table.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The id `dfly fig <id>` selects it by.
    pub id: &'static str,
    /// One-line title: the heading of a stand-alone run.
    pub title: &'static str,
    /// Prints the figure's tables to standard output.
    pub run: fn(&Windows),
}

const fn fig(id: &'static str, title: &'static str, run: fn(&Windows)) -> Figure {
    Figure { id, title, run }
}

/// How many leading [`FIGURES`] entries make up the paper's evaluation
/// — what `dfly fig all` prints, recorded in `figures_quick.md`.
pub const PAPER_SET: usize = 14;

/// Every table and figure generator: the paper's evaluation first, in
/// `dfly fig all` order, then the extension experiments.
#[rustfmt::skip]
pub static FIGURES: [Figure; 18] = [
    fig("fig1", "Figure 1 — radix required for one global hop vs N", |_| fig1()),
    fig("tab1", "Table 1 — cable technology characteristics", |_| tab1()),
    fig("fig2", "Figure 2 — cable cost vs length", |_| fig2()),
    fig("fig4", "Figure 4 — dragonfly scalability vs router radix", |_| fig4()),
    fig("fig8", "Figure 8 — routing algorithm comparison (UR and WC)", fig8),
    fig("fig9", "Figure 9 — global channel utilisation under UGAL-L/G", fig9),
    fig("fig10", "Figure 10 — the VC-discriminating UGAL variants", fig10),
    fig("fig11", "Figure 11 — minimal vs non-minimal packet latency", fig11),
    fig("fig12", "Figure 12 — packet latency histograms", fig12),
    fig("fig14", "Figure 14 — latency vs load across buffer depths", fig14),
    fig("fig16", "Figure 16 — UGAL-L_CR vs UGAL-L_VCH vs UGAL-G", fig16),
    fig("ext_tail_latency", "Tail latency vs load (1K nodes)", ext_tail_latency),
    fig("tab2", "Table 2 and Figure 18 — dragonfly vs flattened butterfly", |_| tab2()),
    fig("fig19", "Figure 19 — cost per node vs network size", |_| fig19()),
    fig("ext_baselines", "Four topologies on one engine (uniform random)", ext_baselines),
    fig("ext_bursty", "Bursty vs Bernoulli injection (WC traffic, 1K nodes)", ext_bursty),
    fig("ext_butterfly_comparison", "Dragonfly vs flattened butterfly, simulated head-to-head",
        ext_butterfly_comparison),
    fig("ablations", "Credit round-trip ablations (UGAL-L_CR, WC traffic at 0.2)", ablations),
];

/// The table entry with id `id`.
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// Prints one figure as a stand-alone document: its title as the
/// heading, then its tables.
pub fn print_one(figure: &Figure, win: &Windows) {
    println!("# {}", figure.title);
    (figure.run)(win);
}

/// Prints the paper's evaluation — the first [`PAPER_SET`] entries, in
/// table order — as one document.
pub fn print_all(win: &Windows) {
    println!("# Dragonfly paper — regenerated tables and figures");
    println!("(windows: {win:?})");
    for figure in &FIGURES[..PAPER_SET] {
        (figure.run)(win);
    }
}

/// The worst-case-pattern load axis of the paper's Figures 8(b)–16.
pub const WC_LOADS: [f64; 11] = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55];
/// The uniform-random load axis of Figures 8(a), 10(a), 16(c,d).
pub const UR_LOADS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95];

/// The cell of a mean-latency table (see [`latency_cell`]).
fn mean_cell(p: &LoadPoint) -> String {
    latency_cell(&p.stats)
}

/// The cell of a tail-latency table: `p50/p99`, `sat` when the run did
/// not drain.
fn tail_cell(p: &LoadPoint) -> String {
    let stats = &p.stats;
    match (stats.drained, stats.p50_latency(), stats.p99_latency()) {
        (false, ..) => "sat".into(),
        (true, Some(p50), Some(p99)) => format!("{p50}/{p99}"),
        (true, ..) => "-".into(),
    }
}

/// Prints latency-load curves as one table: a `### {title}` heading
/// (none when `title` is empty), one column per curve, one row per load
/// with `digits` decimals. `cell` formats a point; a curve cut short at
/// saturation shows `-` past its end, and a row no curve reaches is
/// left out.
fn print_curves(
    title: &str,
    digits: usize,
    loads: &[f64],
    series: &[Curve],
    cell: fn(&LoadPoint) -> String,
) {
    println!();
    if !title.is_empty() {
        println!("### {title}");
    }
    print!("| load |");
    for (name, _) in series {
        print!(" {name} |");
    }
    println!();
    println!("|---|{}", "---|".repeat(series.len()));
    for &load in loads {
        let mut row = format!("| {load:.digits$} |");
        let mut any = false;
        for (_, points) in series {
            let text = match points.iter().find(|p| (p.load - load).abs() < 1e-9) {
                Some(p) => {
                    any = true;
                    cell(p)
                }
                None => "-".into(),
            };
            row.push_str(&format!(" {text} |"));
        }
        if any {
            println!("{row}");
        }
    }
}

fn print_throughputs(series: &[(String, f64)]) {
    println!("\nSaturation throughput (accepted at offered 1.0):");
    for (name, cap) in series {
        println!("  {name:12} {cap:.3}");
    }
}

/// Per-curve routing decision quality, aggregated over the drained
/// loads of a sweep: what fraction of packets went minimal, and how
/// often the configured congestion estimator chose differently from the
/// plain queue-occupancy baseline.
fn print_decision_quality(series: &[Curve]) {
    println!("\nRouting decision quality (aggregated over drained loads):");
    println!("| routing | minimal take rate | estimator disagreement |");
    println!("|---|---|---|");
    for (name, points) in series {
        let mut t = dfly_netsim::RouteTelemetry::default();
        for p in points.iter().filter(|p| p.stats.drained) {
            t.minimal_takes += p.stats.routing.minimal_takes;
            t.non_minimal_takes += p.stats.routing.non_minimal_takes;
            t.adaptive_decisions += p.stats.routing.adaptive_decisions;
            t.estimator_disagreements += p.stats.routing.estimator_disagreements;
        }
        let rate = t
            .minimal_take_rate()
            .map_or("-".into(), |r| format!("{:.1}%", 100.0 * r));
        let dis = t
            .disagreement_rate()
            .map_or("-".into(), |r| format!("{:.1}%", 100.0 * r));
        println!("| {name} | {rate} | {dis} |");
    }
}

/// Figure 1: router radix required for a single global hop vs N.
pub fn fig1() {
    println!("\n## Figure 1 — radix for one global hop (fully connected, k ~ 2*sqrt(N))");
    println!("| N | required radix k |");
    println!("|---|---|");
    for exp in [2u32, 3, 4, 5, 6] {
        let n = 10usize.pow(exp);
        println!("| {n} | {} |", radix_for_single_global_hop(n));
    }
}

/// Table 1: cable technology characteristics.
pub fn tab1() {
    println!("\n## Table 1 — cable technologies");
    println!("| cable | reach (m) | rate (Gb/s) | power (W) | energy (pJ/bit) |");
    println!("|---|---|---|---|---|");
    for t in CABLE_TECHNOLOGIES {
        println!(
            "| {} | {} | {} | {} | {} |",
            t.name, t.max_length_m, t.data_rate_gbps, t.power_w, t.energy_pj_per_bit
        );
    }
}

/// Figure 2: cable cost ($/Gb/s) vs length for the two technologies.
pub fn fig2() {
    let m = CableCostModel::default();
    println!("\n## Figure 2 — cable cost vs length ($/Gb/s)");
    println!("| length (m) | electrical | optical | chosen |");
    println!("|---|---|---|---|");
    for len in (0..=10).map(|x| (x * 10) as f64) {
        println!(
            "| {len:.0} | {:.2} | {:.2} | {:.2} |",
            m.electrical(len),
            m.optical(len),
            m.cable(len.max(0.1))
        );
    }
    println!("Crossover: {:.1} m (paper: ~10 m)", m.crossover_m());
}

/// Figure 4: maximum balanced dragonfly size vs router radix.
pub fn fig4() {
    println!("\n## Figure 4 — dragonfly scalability (balanced a = 2p = 2h)");
    println!("| radix k | max N |");
    println!("|---|---|");
    for k in [4usize, 8, 16, 24, 32, 48, 64, 80] {
        match max_dragonfly_terminals(k) {
            Some(n) => println!("| {k} | {n} |"),
            None => println!("| {k} | - |"),
        }
    }
}

/// Figure 8: MIN / VAL / UGAL-L / UGAL-G on (a) uniform random and
/// (b) the worst-case pattern.
pub fn fig8(win: &Windows) {
    let sim = paper_network();
    let algos = [
        RoutingChoice::Min,
        RoutingChoice::Valiant,
        RoutingChoice::UgalG,
        RoutingChoice::UgalL,
    ];
    let curves: Vec<CurveSpec> = algos.iter().map(|&a| CurveSpec::algo(a, 16)).collect();
    for (traffic, loads) in [
        (TrafficChoice::Uniform, &UR_LOADS[..]),
        (TrafficChoice::WorstCase, &WC_LOADS[..]),
    ] {
        let loads = win.thin(loads);
        let (series, caps) = sweep_curves(&sim, &curves, traffic, &loads, win, true);
        print_curves(
            &format!(
                "Figure 8({}) — latency vs load, {} traffic",
                if traffic == TrafficChoice::Uniform {
                    "a"
                } else {
                    "b"
                },
                traffic.label()
            ),
            2,
            &loads,
            &series,
            mean_cell,
        );
        print_throughputs(&caps);
        print_decision_quality(&series);
    }
}

/// Figure 9: per-global-channel utilisation under WC at load 0.2 for
/// UGAL-L and UGAL-G, ordered as in the paper: the minimal channel
/// first, then the non-minimal channels sharing its router, then the
/// rest of the group, averaged over all groups.
pub fn fig9(win: &Windows) {
    let sim = paper_network();
    let df = sim.dragonfly();
    let params = *df.params();
    let (g, h, ah) = (
        params.num_groups(),
        params.global_ports_per_router(),
        params.global_ports_per_group(),
    );
    println!("\n## Figure 9 — global channel utilisation, WC traffic at 0.2");
    println!("(rank 0 = minimal channel; ranks 1..{h} share its router; rest share the group)");
    let choices = [RoutingChoice::UgalL, RoutingChoice::UgalG];
    let mut cfg = win.config(0.2);
    // Saturated UGAL-L runs are fine here: the utilisation during the
    // window is what the figure reports.
    cfg.drain_cap = 0;
    let grid = RunGrid::cross(&choices, &[TrafficChoice::WorstCase], &[0.2], &cfg);
    let mut table: Vec<Vec<f64>> = Vec::new();
    for stats in run_plans(&sim, &grid) {
        let util: HashMap<(usize, usize), f64> = stats
            .channel_loads
            .iter()
            .map(|c| ((c.router, c.port), c.utilization))
            .collect();
        let mut mean = vec![0.0f64; ah];
        for group in 0..g {
            let target = (group + 1) % g;
            let qmin = df.global_slot_at(group, target, 0);
            let min_router_base = (qmin / h) * h;
            // Rank ordering of this group's slots.
            let mut order = vec![qmin];
            order.extend((min_router_base..min_router_base + h).filter(|&q| q != qmin));
            order.extend((0..ah).filter(|&q| !(min_router_base..min_router_base + h).contains(&q)));
            for (rank, &q) in order.iter().enumerate() {
                let key = (df.slot_router(group, q), df.slot_port(q));
                mean[rank] += util.get(&key).copied().unwrap_or(0.0) / g as f64;
            }
        }
        table.push(mean);
    }
    println!(
        "| channel rank | {} | {} |",
        choices[0].label(),
        choices[1].label()
    );
    println!("|---|---|---|");
    for (rank, (l, g)) in table[0].iter().zip(&table[1]).enumerate() {
        println!("| {rank} | {l:.3} | {g:.3} |");
    }
}

/// Figure 10: the VC-discrimination variants vs UGAL-L and UGAL-G.
pub fn fig10(win: &Windows) {
    let sim = paper_network();
    let algos = [
        RoutingChoice::UgalL,
        RoutingChoice::UgalLVc,
        RoutingChoice::UgalLVcH,
        RoutingChoice::UgalG,
    ];
    let curves: Vec<CurveSpec> = algos.iter().map(|&a| CurveSpec::algo(a, 16)).collect();
    for (traffic, loads, tag) in [
        (TrafficChoice::Uniform, &UR_LOADS[..], "a"),
        (TrafficChoice::WorstCase, &WC_LOADS[..], "b"),
    ] {
        let loads = win.thin(loads);
        let (series, caps) = sweep_curves(&sim, &curves, traffic, &loads, win, true);
        print_curves(
            &format!(
                "Figure 10({tag}) — VC discrimination, {} traffic",
                traffic.label()
            ),
            2,
            &loads,
            &series,
            mean_cell,
        );
        print_throughputs(&caps);
    }
}

/// Figure 11: minimal vs non-minimal packet latency under UGAL-L (WC)
/// with 16- and 256-flit buffers.
pub fn fig11(win: &Windows) {
    let loads = win.thin(&WC_LOADS);
    let depths = [(16usize, "a"), (256, "b")];
    let curves = depths.map(|(buffers, tag)| CurveSpec {
        label: tag.to_string(),
        choice: RoutingChoice::UgalL,
        buffer_depth: buffers,
    });
    let sim = paper_network();
    let (series, _) = sweep_curves(&sim, &curves, TrafficChoice::WorstCase, &loads, win, false);
    for ((buffers, tag), (_, points)) in depths.iter().zip(&series) {
        println!("\n### Figure 11({tag}) — UGAL-L WC, buffers {buffers}");
        println!("| load | minimal | non-minimal | average |");
        println!("|---|---|---|---|");
        // The curve ends at its first saturated point.
        for LoadPoint { load, stats } in points {
            if !stats.drained {
                println!("| {load:.2} | sat | sat | sat |");
                continue;
            }
            println!(
                "| {load:.2} | {} | {} | {} |",
                fmt_latency(stats.minimal_latency.mean()),
                fmt_latency(stats.non_minimal_latency.mean()),
                fmt_latency(stats.avg_latency()),
            );
        }
    }
}

/// Figure 12: latency histograms at load 0.25 (UGAL-L, WC), buffers 16
/// and 256.
pub fn fig12(win: &Windows) {
    let depths = [(16usize, "a", 4u64), (256, "b", 16)];
    let curves = depths.map(|(buffers, tag, _)| CurveSpec {
        label: tag.to_string(),
        choice: RoutingChoice::UgalL,
        buffer_depth: buffers,
    });
    let sim = paper_network();
    let (series, _) = sweep_curves(&sim, &curves, TrafficChoice::WorstCase, &[0.25], win, false);
    for ((buffers, tag, bucket), (_, points)) in depths.into_iter().zip(&series) {
        let stats = &points[0].stats;
        println!("\n### Figure 12({tag}) — latency histogram at 0.25, buffers {buffers}");
        println!(
            "avg latency = {} (paper: 19.2 for 16, 39.19 for 256)",
            fmt_latency(stats.avg_latency())
        );
        println!("| latency | fraction | minimal fraction |");
        println!("|---|---|---|");
        let all = stats.histogram.buckets();
        let min_only = stats.minimal_histogram.buckets();
        let total = stats.histogram.total() as f64;
        let mut printed = 0;
        for start in (0..all.len() as u64).step_by(bucket as usize) {
            let sum: u64 = (start..(start + bucket).min(all.len() as u64))
                .map(|i| all[i as usize])
                .sum();
            let msum: u64 = (start..(start + bucket).min(min_only.len() as u64))
                .map(|i| min_only[i as usize])
                .sum();
            if sum > 0 {
                println!(
                    "| {start}-{} | {:.4} | {:.4} |",
                    start + bucket - 1,
                    sum as f64 / total,
                    msum as f64 / total
                );
                printed += 1;
            }
            if printed > 40 {
                break;
            }
        }
    }
}

/// Figure 14: latency vs load as the buffer depth varies (UGAL-L, WC).
pub fn fig14(win: &Windows) {
    let sim = paper_network();
    let depths = [4usize, 8, 16, 32, 64];
    let loads = win.thin(&WC_LOADS);
    let curves: Vec<CurveSpec> = depths
        .iter()
        .map(|&d| CurveSpec {
            label: format!("buf {d}"),
            choice: RoutingChoice::UgalL,
            buffer_depth: d,
        })
        .collect();
    let (series, _) = sweep_curves(&sim, &curves, TrafficChoice::WorstCase, &loads, win, false);
    print_curves(
        "Figure 14 — UGAL-L WC latency vs load by buffer depth",
        2,
        &loads,
        &series,
        mean_cell,
    );
}

/// Figure 16: UGAL-L_CR vs UGAL-L_VCH vs UGAL-G on WC (a,b) and UR
/// (c,d) with 16- and 256-flit buffers.
pub fn fig16(win: &Windows) {
    let sim = paper_network();
    let algos = [
        RoutingChoice::UgalLVcH,
        RoutingChoice::UgalLCr,
        RoutingChoice::UgalG,
    ];
    for (traffic, loads, tags) in [
        (TrafficChoice::WorstCase, &WC_LOADS[..], ["a", "b"]),
        (TrafficChoice::Uniform, &UR_LOADS[..], ["c", "d"]),
    ] {
        for (buffers, tag) in [(16usize, tags[0]), (256, tags[1])] {
            let loads = win.thin(loads);
            let curves: Vec<CurveSpec> =
                algos.iter().map(|&a| CurveSpec::algo(a, buffers)).collect();
            let (series, _) = sweep_curves(&sim, &curves, traffic, &loads, win, false);
            print_curves(
                &format!(
                    "Figure 16({tag}) — credit round trip, {} traffic, buffers {buffers}",
                    traffic.label()
                ),
                2,
                &loads,
                &series,
                mean_cell,
            );
            print_decision_quality(&series);
        }
    }
}

/// Extension figure: p50/p99 packet latency vs load per routing
/// scheme, read from the log-bucketed latency histogram every run
/// records. The paper's mean-latency curves (Figure 8) hide tail
/// inflation — a scheme can hold its mean while its p99 degrades well
/// before saturation — so this table reports both percentiles side by
/// side for each routing family.
pub fn ext_tail_latency(win: &Windows) {
    let sim = paper_network();
    let algos = [
        RoutingChoice::Min,
        RoutingChoice::Valiant,
        RoutingChoice::UgalL,
        RoutingChoice::UgalG,
    ];
    let curves: Vec<CurveSpec> = algos
        .iter()
        .map(|&a| CurveSpec {
            label: format!("{} p50/p99", a.label()),
            ..CurveSpec::algo(a, 16)
        })
        .collect();
    for (traffic, loads) in [
        (TrafficChoice::Uniform, &UR_LOADS[..]),
        (TrafficChoice::WorstCase, &WC_LOADS[..]),
    ] {
        let loads = win.thin(loads);
        let (series, _) = sweep_curves(&sim, &curves, traffic, &loads, win, false);
        print_curves(
            &format!(
                "Tail latency — p50/p99 vs load, {} traffic",
                traffic.label()
            ),
            2,
            &loads,
            &series,
            tail_cell,
        );
    }
}

/// Table 2 and Figure 18: structural comparison against the flattened
/// butterfly.
pub fn tab2() {
    println!("\n## Table 2 — dragonfly vs flattened butterfly");
    println!("| topology | min diameter | non-min diameter | avg cable | max cable |");
    println!("|---|---|---|---|---|");
    for row in table2() {
        println!(
            "| {} | {}hl + {}hg | {}hl + {}hg | {:.2}E | {:.0}E |",
            row.topology,
            row.minimal_diameter.local,
            row.minimal_diameter.global,
            row.non_minimal_diameter.local,
            row.non_minimal_diameter.global,
            row.avg_cable_length_e,
            row.max_cable_length_e
        );
    }
    let params = DragonflyParams::with_groups(16, 32, 8, 32).expect("valid");
    let (avg_e, max_e) = dragonfly_cable_lengths_in_e(params, 128);
    println!(
        "Measured dragonfly global cables on a square floor: avg {avg_e:.2}E, max {max_e:.2}E"
    );

    let cs = case_study_64k();
    println!("\n## Figure 18 — 64K-node case study");
    println!("| metric | flattened butterfly | dragonfly |");
    println!("|---|---|---|");
    println!("| terminals | {} | {} |", cs.terminals.0, cs.terminals.1);
    println!("| router radix | {} | {} |", cs.radix.0, cs.radix.1);
    println!(
        "| global cables | {} | {} |",
        cs.global_cables.0, cs.global_cables.1
    );
    println!(
        "| global port fraction | {:.2} | {:.2} |",
        cs.global_port_fraction.0, cs.global_port_fraction.1
    );
}

/// Figure 19: cost per node vs network size for the four topologies.
pub fn fig19() {
    let cfg = CostConfig::default();
    println!("\n## Figure 19 — network cost per node vs size");
    println!("| N | dragonfly | flattened butterfly | folded Clos | 3-D torus | DF vs FB | DF vs Clos | DF vs torus |");
    println!("|---|---|---|---|---|---|---|---|");
    for n in [1024usize, 2048, 4096, 8192, 12288, 16384, 20480, 65536] {
        let df = cfg.dragonfly(n);
        let fb = cfg.flattened_butterfly(n);
        let clos = cfg.folded_clos(n);
        let torus = cfg.torus_3d(n);
        let save = |other: f64| format!("{:+.0}%", (1.0 - df.per_node() / other) * 100.0);
        println!(
            "| {n} | {:.1} | {:.1} | {:.1} | {:.1} | {} | {} | {} |",
            df.per_node(),
            fb.per_node(),
            clos.per_node(),
            torus.per_node(),
            save(fb.per_node()),
            save(clos.per_node()),
            save(torus.per_node()),
        );
    }
}

/// Extension experiment: all four of the paper's §5 topologies
/// simulated head-to-head on the same cycle-accurate engine —
/// dragonfly, flattened butterfly, folded Clos and 3-D torus of
/// comparable size — under uniform random traffic.
///
/// The paper compares these topologies on cost only; simulating them
/// behaviourally shows the other side of the trade: the torus's hop
/// count inflates its latency, the Clos needs twice the hops of the
/// dragonfly, and the butterfly matches the dragonfly only by spending
/// twice the router ports. The dragonfly curve runs through
/// [`run_plans`], the three baselines through [`baseline_curves`].
pub fn ext_baselines(win: &Windows) {
    // Four machines near 64-72 terminals.
    let df = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap()); // 72
    let fbn = Arc::new(ButterflyNetwork::new(FlattenedButterfly::new(2, 6, 2))); // 72
    let clos = Arc::new(ClosNetwork::new(FoldedClos::new(3, 8))); // 64
    let torus = Arc::new(TorusNetwork::new(Torus::new(3, 4, 1))); // 64

    let fb_spec = fbn.build_spec();
    let clos_spec = clos.build_spec();
    let torus_spec = torus.build_spec();

    println!(
        "| network | terminals | routers | radix |\n|---|---|---|---|\n\
         | dragonfly | {} | {} | {} |\n\
         | flattened butterfly | {} | {} | {} |\n\
         | folded Clos | {} | {} | {} |\n\
         | 3-D torus | {} | {} | {} |",
        df.spec().num_terminals(),
        df.spec().num_routers(),
        df.dragonfly().router_radix(),
        fb_spec.num_terminals(),
        fb_spec.num_routers(),
        fbn.topology().radix(),
        clos_spec.num_terminals(),
        clos_spec.num_routers(),
        clos.topology().radix(),
        torus_spec.num_terminals(),
        torus_spec.num_routers(),
        torus.topology().radix(),
    );

    let loads = win.thin(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]);
    let grid = RunGrid::cross(
        &[RoutingChoice::UgalLVcH],
        &[TrafficChoice::Uniform],
        &loads,
        &win.config(0.1),
    );
    let (mut series, _) = assemble_curves(
        ["dragonfly UGAL"],
        &loads,
        run_plans(&df, &grid),
        false,
        false,
    );
    let fb_routing = ButterflyRouting::ugal(Arc::clone(&fbn), UgalVariant::Local);
    let clos_routing = ClosRouting::new(Arc::clone(&clos));
    let torus_routing = TorusRouting::new(Arc::clone(&torus));
    let fb_traffic = UniformRandom::new(fb_spec.num_terminals());
    let clos_traffic = UniformRandom::new(clos_spec.num_terminals());
    let torus_traffic = UniformRandom::new(torus_spec.num_terminals());
    series.extend(baseline_curves(
        &[
            ("butterfly UGAL", &fb_spec, &fb_routing, &fb_traffic),
            ("Clos up/down", &clos_spec, &clos_routing, &clos_traffic),
            ("torus DOR", &torus_spec, &torus_routing, &torus_traffic),
        ],
        &loads,
        win,
    ));
    print_curves("", 1, &loads, &series, mean_cell);
    println!(
        "\nHop counts at 0.1 load: dragonfly/butterfly ~2, Clos ~2x ranks, \
         torus ~k (the diameter penalty the paper's cost argument starts from)."
    );
}

/// Extension experiment: bursty (on/off) injection versus the paper's
/// Bernoulli process at equal average rate. Burstiness stresses the
/// adaptive decision — queues oscillate, so the UGAL estimate is stale
/// more often — and rewards the credit round-trip variant's faster
/// congestion sensing.
pub fn ext_bursty(win: &Windows) {
    let sim = paper_network();
    let loads = win.thin(&[0.1, 0.2, 0.3]);
    let choices = [
        RoutingChoice::UgalLVcH,
        RoutingChoice::UgalLCr,
        RoutingChoice::UgalG,
    ];
    let processes = |load| {
        [
            ("bernoulli", InjectionKind::Bernoulli { rate: load }),
            (
                "on/off x16",
                InjectionKind::OnOff {
                    rate: load,
                    burst_len: 16.0,
                },
            ),
        ]
    };
    let mut grid = RunGrid::new();
    for &load in &loads {
        for (_, kind) in processes(load) {
            for choice in choices {
                let mut cfg = win.config(load);
                cfg.injection = kind;
                grid.push(RunPlan::new(choice, TrafficChoice::WorstCase, cfg));
            }
        }
    }
    let mut results = run_plans(&sim, &grid).into_iter();
    println!("| load | process | UGAL-L_VCH | UGAL-L_CR | UGAL-G |");
    println!("|---|---|---|---|---|");
    for &load in &loads {
        for (name, _) in processes(load) {
            let mut row = format!("| {load:.1} | {name} |");
            for stats in results.by_ref().take(choices.len()) {
                row.push_str(&format!(" {} |", latency_cell(&stats)));
            }
            println!("{row}");
        }
    }
    println!(
        "\nBurstiness raises everyone's latency; the ordering\n\
         VCH > CR > G (and CR's closeness to G) survives it."
    );
}

/// Extension experiment (beyond the paper's cost-only §5 comparison):
/// a flattened butterfly and a dragonfly of similar size and router
/// radix on the same engine, compared on latency and saturation.
pub fn ext_butterfly_comparison(win: &Windows) {
    // Comparable machines from radix-7-ish parts:
    //  - dragonfly p=h=2, a=4: 72 terminals, radix 7;
    //  - 2-D flattened butterfly c=2, s=6: 72 terminals, radix 12.
    let df = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
    let fbn = Arc::new(ButterflyNetwork::new(FlattenedButterfly::new(2, 6, 2)));
    let fb_spec = fbn.build_spec();
    println!(
        "dragonfly: N={}, radix {}; butterfly: N={}, radix {}",
        df.spec().num_terminals(),
        df.dragonfly().router_radix(),
        fb_spec.num_terminals(),
        fbn.topology().radix(),
    );

    let loads = win.thin(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]);
    let grid = RunGrid::cross(
        &[RoutingChoice::Min, RoutingChoice::UgalLVcH],
        &[TrafficChoice::Uniform],
        &loads,
        &win.config(0.1),
    );
    let (mut series, _) = assemble_curves(
        ["DF MIN", "DF UGAL-L_VCH"],
        &loads,
        run_plans(&df, &grid),
        false,
        false,
    );
    let fb_min = ButterflyRouting::new(Arc::clone(&fbn));
    let fb_ugal = ButterflyRouting::ugal(Arc::clone(&fbn), UgalVariant::Local);
    let traffic = UniformRandom::new(fb_spec.num_terminals());
    series.extend(baseline_curves(
        &[
            ("FB MIN", &fb_spec, &fb_min, &traffic),
            ("FB UGAL-L", &fb_spec, &fb_ugal, &traffic),
        ],
        &loads,
        win,
    ));
    print_curves("", 1, &loads, &series, mean_cell);
    println!(
        "\nBoth reach comparable uniform-random performance; the dragonfly \
         does it with {} network ports per router instead of {} — the whole \
         point of the virtual-router construction.",
        df.dragonfly().router_radix() - 2,
        fbn.topology().radix() - 2,
    );
}

/// Ablations of the credit round-trip mechanism's design choices
/// (DESIGN.md): the td estimator (last sample vs EWMA), the CTQ
/// sampling ratio (the paper suggests tracking 1 of 4 credits
/// suffices), and buffer depth under UGAL-L_CR.
pub fn ablations(win: &Windows) {
    let round_trip = |sample, estimator| CreditMode::RoundTrip { sample, estimator };
    let (last, ewma) = (TdEstimator::LastSample, |shift| TdEstimator::Ewma { shift });
    // (heading, first column, rows of (label, credit mode, buffers)).
    let sections = [
        (
            "td estimator",
            "estimator",
            vec![
                ("last sample (paper)".to_string(), round_trip(1, last), 16),
                ("EWMA 1/4".into(), round_trip(1, ewma(2)), 16),
                ("EWMA 1/16".into(), round_trip(1, ewma(4)), 16),
            ],
        ),
        (
            "CTQ sampling ratio (paper: 1-of-4 suffices)",
            "tracked credits",
            [1u32, 2, 4, 8]
                .map(|sample| (format!("1 of {sample}"), round_trip(sample, last), 16))
                .to_vec(),
        ),
        (
            "buffer depth (CR should be ~independent; cf. Figure 16)",
            "buffers",
            [16usize, 64, 256]
                .map(|buffers| (buffers.to_string(), CreditMode::round_trip(), buffers))
                .to_vec(),
        ),
    ];
    let mut grid = RunGrid::new();
    for (_, _, rows) in &sections {
        for &(_, mode, buffers) in rows {
            let cfg = win
                .config(0.2)
                .with_buffer_depth(buffers)
                .with_credit_mode(mode);
            let plan = RunPlan::new(RoutingChoice::UgalLCr, TrafficChoice::WorstCase, cfg);
            grid.push(plan);
        }
    }
    let mut results = run_plans(&paper_network(), &grid).into_iter();
    for (heading, column, rows) in &sections {
        println!("\n## {heading}");
        println!("| {column} | avg latency | minimal-packet latency |");
        println!("|---|---|---|");
        for ((label, ..), stats) in rows.iter().zip(results.by_ref()) {
            println!(
                "| {label} | {} | {} |",
                fmt_latency(stats.avg_latency()),
                fmt_latency(stats.minimal_latency.mean()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_figures_print() {
        // The analytic generators must not panic.
        fig1();
        tab1();
        fig2();
        fig4();
        tab2();
        fig19();
    }
}

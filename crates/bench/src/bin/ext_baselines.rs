//! Extension experiment: all four of the paper's §5 topologies simulated
//! head-to-head on the same cycle-accurate engine — dragonfly, flattened
//! butterfly, folded Clos and 3-D torus of comparable size — under
//! uniform random traffic.
//!
//! The paper compares these topologies on cost only; simulating them
//! behaviourally shows the other side of the trade: the torus's hop
//! count inflates its latency, the Clos needs twice the hops of the
//! dragonfly, and the butterfly matches the dragonfly only by spending
//! twice the router ports.
//!
//! All four curves are described as [`TopoCurve`]s and fanned out as a
//! single flat batch of independent runs (see
//! [`sweep_topology_curves`]), rather than one sweep per topology.

use std::sync::Arc;

use dfly_bench::{sweep_topology_curves, TopoCurve, Windows};
use dfly_netsim::RunStats;
use dfly_topo::{FlattenedButterfly, FoldedClos, Topology, Torus};
use dfly_traffic::UniformRandom;
use dragonfly::butterfly::{ButterflyNetwork, ButterflyRouting};
use dragonfly::clos_sim::{ClosNetwork, ClosRouting};
use dragonfly::torus_sim::{TorusNetwork, TorusRouting};
use dragonfly::{DragonflyParams, DragonflySim, RoutingChoice, TrafficChoice, UgalVariant};

fn cell(stats: &RunStats) -> String {
    if stats.drained {
        stats
            .avg_latency()
            .map(|l| format!("{l:.1}"))
            .unwrap_or_else(|| "-".into())
    } else {
        "sat".into()
    }
}

fn main() {
    let win = Windows::from_env();

    // Four machines near 64-72 terminals.
    let df = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap()); // 72
    let fbn = Arc::new(ButterflyNetwork::new(FlattenedButterfly::new(2, 6, 2))); // 72
    let clos = Arc::new(ClosNetwork::new(FoldedClos::new(3, 8))); // 64
    let torus = Arc::new(TorusNetwork::new(Torus::new(3, 4, 1))); // 64

    let fb_spec = Arc::new(fbn.build_spec());
    let clos_spec = Arc::new(clos.build_spec());
    let torus_spec = Arc::new(torus.build_spec());

    println!("# Four topologies on one engine (uniform random)");
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
    let base = win.config(0.1);
    // One flat batch: every (topology, load) pair is an independent run.
    let curves = [
        TopoCurve {
            label: "dragonfly UGAL".into(),
            ..TopoCurve::dragonfly(&df, RoutingChoice::UgalLVcH, TrafficChoice::Uniform)
        },
        TopoCurve::new(
            "butterfly UGAL",
            Arc::clone(&fb_spec),
            Arc::new(ButterflyRouting::ugal(Arc::clone(&fbn), UgalVariant::Local)),
            Arc::new(UniformRandom::new(fb_spec.num_terminals())),
        ),
        TopoCurve::new(
            "Clos up/down",
            Arc::clone(&clos_spec),
            Arc::new(ClosRouting::new(Arc::clone(&clos))),
            Arc::new(UniformRandom::new(clos_spec.num_terminals())),
        ),
        TopoCurve::new(
            "torus DOR",
            Arc::clone(&torus_spec),
            Arc::new(TorusRouting::new(Arc::clone(&torus))),
            Arc::new(UniformRandom::new(torus_spec.num_terminals())),
        ),
    ];
    let (series, _) = sweep_topology_curves(&curves, &loads, &base, false, false);

    print!("\n| load |");
    for (label, _) in &series {
        print!(" {label} |");
    }
    println!();
    println!("|---|{}", "---|".repeat(series.len()));
    for (i, &load) in loads.iter().enumerate() {
        print!("| {load:.1} |");
        for (_, points) in &series {
            print!(" {} |", cell(&points[i].stats));
        }
        println!();
    }
    println!(
        "\nHop counts at 0.1 load: dragonfly/butterfly ~2, Clos ~2x ranks, \
         torus ~k (the diameter penalty the paper's cost argument starts from)."
    );
}

//! Extension experiment (beyond the paper's cost-only §5 comparison):
//! simulate a flattened butterfly and a dragonfly of similar size and
//! router radix on the same engine, and compare latency and saturation
//! behaviourally.

use std::sync::Arc;

use dfly_bench::Windows;
use dfly_netsim::Simulation;
use dfly_topo::{FlattenedButterfly, Topology};
use dfly_traffic::UniformRandom;
use dragonfly::butterfly::{ButterflyNetwork, ButterflyRouting};
use dragonfly::{DragonflyParams, DragonflySim, RoutingChoice, TrafficChoice, UgalVariant};

fn main() {
    let win = Windows::from_env();

    // Comparable machines from radix-7-ish parts:
    //  - dragonfly p=h=2, a=4: 72 terminals, radix 7;
    //  - 2-D flattened butterfly c=2, s=6: 72 terminals, radix 12.
    let df = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
    let fbn = Arc::new(ButterflyNetwork::new(FlattenedButterfly::new(2, 6, 2)));
    let fb_spec = fbn.build_spec();
    println!("# Dragonfly vs flattened butterfly, simulated head-to-head");
    println!(
        "dragonfly: N={}, radix {}; butterfly: N={}, radix {}",
        df.spec().num_terminals(),
        df.dragonfly().router_radix(),
        fb_spec.num_terminals(),
        fbn.topology().radix(),
    );

    println!("\n| load | DF MIN | DF UGAL-L_VCH | FB MIN | FB UGAL-L |");
    println!("|---|---|---|---|---|");
    let traffic = UniformRandom::new(72);
    for &load in &win.thin(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]) {
        let cfg = win.config(load);
        let df_min = df.run(RoutingChoice::Min, TrafficChoice::Uniform, cfg.clone());
        let df_ugal = df.run(RoutingChoice::UgalLVcH, TrafficChoice::Uniform, cfg.clone());
        let fb_lat = |routing: &ButterflyRouting| {
            let stats = Simulation::new(&fb_spec, routing, &traffic, cfg.clone())
                .unwrap()
                .finish();
            if stats.drained {
                stats
                    .avg_latency()
                    .map(|l| format!("{l:.1}"))
                    .unwrap_or_else(|| "-".into())
            } else {
                "sat".into()
            }
        };
        let cell = |stats: &dfly_netsim::RunStats| {
            if stats.drained {
                stats
                    .avg_latency()
                    .map(|l| format!("{l:.1}"))
                    .unwrap_or_else(|| "-".into())
            } else {
                "sat".into()
            }
        };
        println!(
            "| {load:.1} | {} | {} | {} | {} |",
            cell(&df_min),
            cell(&df_ugal),
            fb_lat(&ButterflyRouting::new(fbn.clone())),
            fb_lat(&ButterflyRouting::ugal(fbn.clone(), UgalVariant::Local)),
        );
    }
    println!(
        "\nBoth reach comparable uniform-random performance; the dragonfly \
         does it with {} network ports per router instead of {} — the whole \
         point of the virtual-router construction.",
        df.dragonfly().router_radix() - 2,
        fbn.topology().radix() - 2,
    );
}

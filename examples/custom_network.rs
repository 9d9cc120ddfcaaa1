//! Using the simulator substrate directly: wire a custom network (here
//! a star of four leaf routers around a hub), drive it with a traffic
//! pattern, and route it with the built-in shortest-path tables.
//!
//! The dragonfly crate builds exactly this kind of `NetworkSpec` — this
//! example shows the lower-level API any other topology would use.
//!
//! Run with: `cargo run --release --example custom_network`

use dfly_netsim::{
    ChannelClass, Connection, NetworkSpec, PortSpec, RouterSpec, ShortestPathRouting, SimConfig,
    Simulation,
};
use dfly_traffic::UniformRandom;

fn term(t: u32) -> PortSpec {
    PortSpec {
        conn: Connection::Terminal { terminal: t },
        latency: 1,
        class: ChannelClass::Terminal,
    }
}

fn link(router: u32, port: u32, latency: u32) -> PortSpec {
    PortSpec {
        conn: Connection::Router { router, port },
        latency,
        class: ChannelClass::Local,
    }
}

fn main() {
    // Router 0 is the hub (no terminals); routers 1-4 each host two
    // terminals. Hub links have 2-cycle latency.
    let mut routers = vec![RouterSpec {
        ports: (1..=4).map(|r| link(r, 2, 2)).collect(),
    }];
    for leaf in 0..4u32 {
        routers.push(RouterSpec {
            ports: vec![term(2 * leaf), term(2 * leaf + 1), link(0, leaf, 2)],
        });
    }
    let spec = NetworkSpec::validated(routers, 2).expect("star wiring is consistent");
    println!(
        "custom star network: {} routers, {} terminals",
        spec.num_routers(),
        spec.num_terminals()
    );

    let routing = ShortestPathRouting::new(&spec);
    let pattern = UniformRandom::new(spec.num_terminals());
    let mut cfg = SimConfig::paper_default(0.15);
    cfg.warmup = 500;
    cfg.measure = 3_000;

    let stats = Simulation::new(&spec, &routing, &pattern, cfg)
        .expect("valid configuration")
        .finish();

    println!("uniform random at 0.15:");
    println!("  accepted  {:.3} flits/node/cycle", stats.accepted_rate);
    println!(
        "  latency   avg {:.1}, min {}, max {}",
        stats.avg_latency().unwrap_or(f64::NAN),
        stats.latency.min,
        stats.latency.max
    );
    // Same-leaf packets pay inject 1 + eject 1; cross-leaf packets add
    // two 2-cycle hub hops.
    assert!(stats.latency.min >= 2);
    assert!(stats.latency.max >= 6);
    assert!(stats.drained);

    // The hub is the bottleneck: show its channel utilisation.
    for load in stats.channel_loads.iter().filter(|c| c.router == 0) {
        println!(
            "  hub port {} -> utilisation {:.2}",
            load.port, load.utilization
        );
    }
}

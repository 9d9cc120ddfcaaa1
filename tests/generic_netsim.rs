//! The simulator substrate on non-dragonfly networks: the engine is
//! topology-agnostic and must behave on arbitrary wirings.

use dfly_netsim::{
    ChannelClass, Connection, NetworkSpec, PortSpec, RouterSpec, ShortestPathRouting, SimConfig,
    Simulation,
};
use dfly_traffic::{Shift, TrafficPattern, UniformRandom};

fn term(t: u32) -> PortSpec {
    PortSpec {
        conn: Connection::Terminal { terminal: t },
        latency: 1,
        class: ChannelClass::Terminal,
    }
}

fn link(router: u32, port: u32) -> PortSpec {
    PortSpec {
        conn: Connection::Router { router, port },
        latency: 1,
        class: ChannelClass::Local,
    }
}

/// A binary tree of 7 routers, terminals on the 4 leaves.
fn tree_spec() -> NetworkSpec {
    // Router 0 root; 1,2 mid; 3..6 leaves with 2 terminals each.
    NetworkSpec::validated(
        vec![
            RouterSpec {
                ports: vec![link(1, 0), link(2, 0)],
            },
            RouterSpec {
                ports: vec![link(0, 0), link(3, 0), link(4, 0)],
            },
            RouterSpec {
                ports: vec![link(0, 1), link(5, 0), link(6, 0)],
            },
            RouterSpec {
                ports: vec![link(1, 1), term(0), term(1)],
            },
            RouterSpec {
                ports: vec![link(1, 2), term(2), term(3)],
            },
            RouterSpec {
                ports: vec![link(2, 1), term(4), term(5)],
            },
            RouterSpec {
                ports: vec![link(2, 2), term(6), term(7)],
            },
        ],
        2,
    )
    .unwrap()
}

#[test]
fn tree_network_delivers_and_bounds_latency() {
    let spec = tree_spec();
    let routing = ShortestPathRouting::new(&spec);
    let pattern = UniformRandom::new(8);
    let mut cfg = SimConfig::paper_default(0.08);
    cfg.warmup = 200;
    cfg.measure = 2_000;
    let stats = Simulation::new(&spec, &routing, &pattern, cfg)
        .unwrap()
        .finish();
    assert!(stats.drained);
    // Worst path: leaf -> root -> leaf = 4 links + inject + eject = 6.
    assert!(stats.latency.max >= 6);
    assert!(stats.latency.min >= 2);
}

#[test]
fn root_is_the_tree_bottleneck() {
    // Shift by half the terminals forces all traffic across the root:
    // 8 terminals at rate r need 4r of the root's 1+1 link capacity
    // each way, so saturation sits near 0.25 per terminal.
    let spec = tree_spec();
    let routing = ShortestPathRouting::new(&spec);
    let pattern = Shift::new(8, 4);
    let mut cfg = SimConfig::paper_default(1.0);
    cfg.warmup = 500;
    cfg.measure = 2_000;
    cfg.drain_cap = 0;
    let stats = Simulation::new(&spec, &routing, &pattern, cfg)
        .unwrap()
        .finish();
    assert!(
        (0.2..0.3).contains(&stats.accepted_rate),
        "root-limited throughput {}",
        stats.accepted_rate
    );
    // Root links saturated.
    for load in stats.channel_loads.iter().filter(|c| c.router == 0) {
        assert!(load.utilization > 0.9, "root port {}", load.port);
    }
}

#[test]
fn single_pair_ping() {
    // Two terminals, two routers: a packet each way per cycle at most.
    let spec = NetworkSpec::validated(
        vec![
            RouterSpec {
                ports: vec![term(0), link(1, 0)],
            },
            RouterSpec {
                ports: vec![link(0, 1), term(1)],
            },
        ],
        1,
    )
    .unwrap();
    let routing = ShortestPathRouting::new(&spec);
    let pattern = Shift::new(2, 1);
    let mut cfg = SimConfig::paper_default(0.95);
    cfg.warmup = 200;
    cfg.measure = 2_000;
    cfg.drain_cap = 10_000;
    let stats = Simulation::new(&spec, &routing, &pattern, cfg)
        .unwrap()
        .finish();
    assert!(stats.drained);
    assert!(
        (stats.accepted_rate - 0.95).abs() < 0.03,
        "full-rate ping {}",
        stats.accepted_rate
    );
    // Zero contention: every packet takes exactly inject+link+eject.
    assert_eq!(stats.latency.min, 3);
    assert!(stats.latency.mean().unwrap() < 6.0);
}

#[test]
fn heterogeneous_latencies_accumulate() {
    // One long channel (10 cycles) between two routers.
    let long = |router: u32, port: u32| PortSpec {
        conn: Connection::Router { router, port },
        latency: 10,
        class: ChannelClass::Global,
    };
    let spec = NetworkSpec::validated(
        vec![
            RouterSpec {
                ports: vec![term(0), long(1, 0)],
            },
            RouterSpec {
                ports: vec![long(0, 1), term(1)],
            },
        ],
        1,
    )
    .unwrap();
    let routing = ShortestPathRouting::new(&spec);
    let pattern = Shift::new(2, 1);
    let mut cfg = SimConfig::paper_default(0.02);
    cfg.warmup = 100;
    cfg.measure = 3_000;
    let stats = Simulation::new(&spec, &routing, &pattern, cfg)
        .unwrap()
        .finish();
    assert!(stats.drained);
    assert_eq!(stats.latency.min, 12); // 1 + 10 + 1
}

#[test]
fn credits_limit_inflight_on_long_channels() {
    // With buffer depth 4 and a 10-cycle channel, at most 4 flits can
    // be outstanding: throughput caps at 4 / (2*10+eps) per VC even
    // though demand is higher.
    let long = |router: u32, port: u32| PortSpec {
        conn: Connection::Router { router, port },
        latency: 10,
        class: ChannelClass::Global,
    };
    let spec = NetworkSpec::validated(
        vec![
            RouterSpec {
                ports: vec![term(0), long(1, 0)],
            },
            RouterSpec {
                ports: vec![long(0, 1), term(1)],
            },
        ],
        1,
    )
    .unwrap();
    let routing = ShortestPathRouting::new(&spec);
    #[derive(Debug)]
    struct ZeroToOne;
    impl TrafficPattern for ZeroToOne {
        fn name(&self) -> &'static str {
            "zero-to-one"
        }
        fn num_terminals(&self) -> usize {
            2
        }
        fn destination(&self, source: usize, _rng: &mut rand::rngs::SmallRng) -> usize {
            1 - source
        }
    }
    let mut cfg = SimConfig::paper_default(1.0);
    cfg.buffer_depth = 4;
    cfg.warmup = 500;
    cfg.measure = 4_000;
    cfg.drain_cap = 0;
    let stats = Simulation::new(&spec, &routing, &ZeroToOne, cfg)
        .unwrap()
        .finish();
    // Credit round trip is ~20 cycles; 4 credits -> ~0.2 flits/cycle on
    // the channel; per-terminal accepted ~0.2 for terminal 0's flow
    // (plus the reverse flow), so the average accepted rate per node
    // sits near 0.2.
    assert!(
        (0.15..0.30).contains(&stats.accepted_rate),
        "bandwidth-delay limited rate {}",
        stats.accepted_rate
    );
}

//! Randomized property tests of the simulation engine on generated
//! line networks: conservation, determinism and latency bounds must
//! hold for any wiring the generator produces.
//!
//! Cases are drawn from a seeded RNG (no external property-testing
//! dependency — the container builds offline), so every run exercises
//! the same deterministic case set; bump `CASES` or the seeds to widen
//! coverage.

use dfly_netsim::{
    ChannelClass, Connection, NetworkSpec, PortSpec, RouterSpec, ShortestPathRouting, SimConfig,
    Simulation,
};
use dfly_traffic::{rng_for, UniformRandom};
use rand::Rng;

/// Builds a line of `n` routers with `terms` terminals on each and the
/// given channel latency.
fn line(n: usize, terms: usize, latency: u32) -> NetworkSpec {
    let mut routers = Vec::new();
    let mut next_terminal = 0u32;
    for r in 0..n {
        let mut ports = Vec::new();
        for _ in 0..terms {
            ports.push(PortSpec {
                conn: Connection::Terminal {
                    terminal: next_terminal,
                },
                latency: 1,
                class: ChannelClass::Terminal,
            });
            next_terminal += 1;
        }
        if r > 0 {
            ports.push(PortSpec {
                conn: Connection::Router {
                    router: (r - 1) as u32,
                    port: (terms + usize::from(r >= 2)) as u32,
                },
                latency,
                class: ChannelClass::Local,
            });
        }
        if r + 1 < n {
            ports.push(PortSpec {
                conn: Connection::Router {
                    router: (r + 1) as u32,
                    port: terms as u32,
                },
                latency,
                class: ChannelClass::Local,
            });
        }
        routers.push(RouterSpec { ports });
    }
    NetworkSpec::validated(routers, 2).expect("line wiring is consistent")
}

const CASES: u64 = 24;

/// Everything injected at light load is delivered, whatever the line
/// length, concentration, latency, buffers or packet length.
#[test]
fn light_load_conserves_packets() {
    for case in 0..CASES {
        let mut g = rng_for(0xE17, case);
        let n = g.gen_range(2usize..6);
        let terms = g.gen_range(1usize..3);
        let latency = g.gen_range(1u32..5);
        let buffers = g.gen_range(2usize..24);
        let packet_len = g.gen_range(1usize..4);
        let seed = g.gen_range(0u64..500);
        let ctx = format!(
            "case {case}: n={n} terms={terms} latency={latency} buffers={buffers} \
             packet_len={packet_len} seed={seed}"
        );

        let spec = line(n, terms, latency);
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(spec.num_terminals());
        let mut cfg = SimConfig::paper_default(0.05);
        cfg.buffer_depth = buffers;
        cfg.packet_len = packet_len;
        cfg.warmup = 100;
        cfg.measure = 600;
        cfg.drain_cap = 30_000;
        cfg.seed = seed;
        let stats = Simulation::new(&spec, &routing, &pattern, cfg)
            .unwrap()
            .finish();
        assert!(stats.drained, "{ctx}");
        assert!(stats.latency.count > 0, "{ctx}");
        // Zero-load floor: inject + eject at minimum.
        assert!(stats.latency.min as usize > packet_len, "{ctx}");
        // Ceiling: path length x latency plus generous queueing slack.
        let worst_path = 2 + (n - 1) as u64 * latency as u64;
        assert!(
            stats.latency.max < worst_path * 40 + 200,
            "{ctx}: max {} vs path {}",
            stats.latency.max,
            worst_path
        );
    }
}

/// Same seed, same everything: bit-identical results.
#[test]
fn engine_is_deterministic() {
    for case in 0..CASES {
        let mut g = rng_for(0xDE7, case);
        let seed = g.gen_range(0u64..200);
        let buffers = g.gen_range(2usize..20);

        let spec = line(3, 2, 2);
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(6);
        let run = || {
            let mut cfg = SimConfig::paper_default(0.3);
            cfg.buffer_depth = buffers;
            cfg.warmup = 100;
            cfg.measure = 500;
            cfg.seed = seed;
            Simulation::new(&spec, &routing, &pattern, cfg)
                .unwrap()
                .finish()
        };
        assert_eq!(run(), run(), "case {case}: seed={seed} buffers={buffers}");
    }
}

/// Accepted equals offered below saturation, independent of channel
/// latency (credits cover the bandwidth-delay product as long as
/// buffers do).
#[test]
fn throughput_invariant_to_latency() {
    for latency in 1u32..4 {
        let spec = line(3, 2, latency);
        let routing = ShortestPathRouting::new(&spec);
        let pattern = UniformRandom::new(6);
        let mut cfg = SimConfig::paper_default(0.15);
        cfg.warmup = 300;
        cfg.measure = 2_000;
        let stats = Simulation::new(&spec, &routing, &pattern, cfg)
            .unwrap()
            .finish();
        assert!(stats.drained, "latency {latency}");
        assert!(
            (stats.accepted_rate - 0.15).abs() < 0.03,
            "latency {latency}: accepted {}",
            stats.accepted_rate
        );
    }
}

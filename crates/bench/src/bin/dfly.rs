//! `dfly` — a command-line front end for the dragonfly library.
//!
//! ```text
//! dfly info     -p 4 -a 8 -H 4 [-g N]          topology facts
//! dfly simulate -p 4 -a 8 -H 4 --routing ugal-lvch --traffic wc \
//!               --load 0.2 [--buffers 16] [--cycles 3000] [--seed 1]
//! dfly sweep    -p 4 -a 8 -H 4 --routing ugal-g --traffic ur \
//!               --loads 0.1,0.3,0.5,0.7,0.9
//! dfly cost     -n 16384                        Figure-19 style table
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use dfly_cost::{CostConfig, PowerModel};
use dfly_topo::Topology;
use dragonfly::{DragonflyParams, DragonflySim, RoutingChoice, RunGrid, RunPlan, TrafficChoice};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         dfly info     -p P -a A -H H [-g G]\n  \
         dfly simulate -p P -a A -H H [-g G] --routing R --traffic T --load L\n                \
         [--buffers B] [--cycles C] [--seed S]\n  \
         dfly sweep    -p P -a A -H H [-g G] --routing R --traffic T --loads L1,L2,..\n  \
         dfly cost     -n NODES\n\n\
         routings: {}\n\
         traffic:  ur wc tornado perm",
        ROUTINGS.map(|(spelling, _)| spelling).join(" ")
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").or_else(|| flag.strip_prefix('-'))?;
        let value = it.next()?;
        flags.insert(key.to_string(), value.clone());
    }
    Some(flags)
}

fn params_from(flags: &HashMap<String, String>) -> Result<DragonflyParams, String> {
    let get = |k: &str| -> Result<usize, String> {
        flags
            .get(k)
            .ok_or(format!("missing -{k}"))?
            .parse()
            .map_err(|e| format!("-{k}: {e}"))
    };
    let (p, a, h) = (get("p")?, get("a")?, get("H")?);
    match flags.get("g") {
        Some(g) => {
            DragonflyParams::with_groups(p, a, h, g.parse().map_err(|e| format!("-g: {e}"))?)
        }
        None => DragonflyParams::new(p, a, h),
    }
}

/// CLI spelling of every routing: the one table `routing_from` matches
/// on and the usage text lists.
const ROUTINGS: [(&str, RoutingChoice); RoutingChoice::ALL.len()] = [
    ("min", RoutingChoice::Min),
    ("val", RoutingChoice::Valiant),
    ("ugal-l", RoutingChoice::UgalL),
    ("ugal-lvc", RoutingChoice::UgalLVc),
    ("ugal-lvch", RoutingChoice::UgalLVcH),
    ("ugal-lcr", RoutingChoice::UgalLCr),
    ("ugal-g", RoutingChoice::UgalG),
    ("ugal-lewma", RoutingChoice::UgalLEwma),
];

fn routing_from(flags: &HashMap<String, String>) -> Result<RoutingChoice, String> {
    let name = flags.get("routing").ok_or("missing --routing")?;
    ROUTINGS
        .iter()
        .find(|(spelling, _)| spelling == name)
        .map(|&(_, choice)| choice)
        .ok_or_else(|| format!("unknown routing {name}"))
}

fn traffic_from(flags: &HashMap<String, String>) -> Result<TrafficChoice, String> {
    match flags.get("traffic").map(String::as_str) {
        Some("ur") => Ok(TrafficChoice::Uniform),
        Some("wc") => Ok(TrafficChoice::WorstCase),
        Some("tornado") => Ok(TrafficChoice::GroupTornado),
        Some("perm") => Ok(TrafficChoice::RandomPermutation { seed: 42 }),
        Some(other) => Err(format!("unknown traffic {other}")),
        None => Err("missing --traffic".into()),
    }
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), String> {
    let params = params_from(flags)?;
    let df = dragonfly::Dragonfly::new(params);
    println!(
        "dragonfly p={} a={} h={} g={}",
        params.terminals_per_router(),
        params.routers_per_group(),
        params.global_ports_per_router(),
        params.num_groups()
    );
    println!("  terminals          {}", params.num_terminals());
    println!("  routers            {}", params.num_routers());
    println!("  router radix       {}", params.router_radix());
    println!("  effective radix k' {}", params.effective_radix());
    println!(
        "  global channels    {}",
        params.num_groups()
            * (params.global_ports_per_group() - df.unused_global_ports_per_group())
            / 2
    );
    println!("  balanced (a=2p=2h) {}", params.is_balanced());
    println!("  diameter (hops)    {:?}", df.diameter());
    println!(
        "  avg hops           {:.2}",
        df.average_hop_count().unwrap_or(f64::NAN)
    );
    Ok(())
}

fn sim_config(
    flags: &HashMap<String, String>,
    load: f64,
) -> Result<dfly_netsim::SimConfig, String> {
    let mut cfg = dfly_netsim::SimConfig::paper_default(load);
    if let Some(c) = flags.get("cycles") {
        let c: u64 = c.parse().map_err(|e| format!("--cycles: {e}"))?;
        cfg.warmup = c / 2;
        cfg.measure = c;
        cfg.drain_cap = 10 * c;
    } else {
        cfg.warmup = 2_000;
        cfg.measure = 3_000;
        cfg.drain_cap = 30_000;
    }
    if let Some(b) = flags.get("buffers") {
        cfg.buffer_depth = b.parse().map_err(|e| format!("--buffers: {e}"))?;
    }
    if let Some(s) = flags.get("seed") {
        cfg.seed = s.parse().map_err(|e| format!("--seed: {e}"))?;
    }
    Ok(cfg)
}

fn print_stats(stats: &dfly_netsim::RunStats) {
    println!("  offered load       {:.3}", stats.offered_load);
    println!("  injected rate      {:.3}", stats.injected_rate);
    println!("  accepted rate      {:.3}", stats.accepted_rate);
    println!("  drained            {}", stats.drained);
    if let Some(avg) = stats.avg_latency() {
        println!("  latency avg        {avg:.1}");
        println!(
            "  latency p50/p95/p99  {:?} / {:?} / {:?}",
            stats.histogram.percentile(0.50),
            stats.histogram.percentile(0.95),
            stats.histogram.percentile(0.99)
        );
        println!(
            "  latency min/max    {} / {}",
            stats.latency.min, stats.latency.max
        );
    }
    if let Some(frac) = stats.minimal_fraction() {
        println!("  minimally routed   {:.1}%", frac * 100.0);
    }
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let params = params_from(flags)?;
    let routing = routing_from(flags)?;
    let traffic = traffic_from(flags)?;
    let load: f64 = flags
        .get("load")
        .ok_or("missing --load")?
        .parse()
        .map_err(|e| format!("--load: {e}"))?;
    let sim = DragonflySim::new(params);
    let stats = sim.run(routing, traffic, sim_config(flags, load)?);
    println!(
        "{} on {} traffic, N={}:",
        routing.label(),
        traffic.label(),
        params.num_terminals()
    );
    print_stats(&stats);
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), String> {
    let params = params_from(flags)?;
    let routing = routing_from(flags)?;
    let traffic = traffic_from(flags)?;
    let loads: Vec<f64> = flags
        .get("loads")
        .ok_or("missing --loads")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|e| format!("--loads: {e}")))
        .collect::<Result<_, _>>()?;
    let sim = DragonflySim::new(params);
    println!("| load | latency | accepted | minimal % |");
    println!("|---|---|---|---|");
    let mut grid = RunGrid::new();
    for &load in &loads {
        grid.push(RunPlan::new(routing, traffic, sim_config(flags, load)?));
    }
    for (load, stats) in loads.iter().zip(grid.execute(&sim)) {
        let latency = if stats.drained {
            stats
                .avg_latency()
                .map(|l| format!("{l:.1}"))
                .unwrap_or_else(|| "-".into())
        } else {
            "sat".into()
        };
        println!(
            "| {load:.2} | {latency} | {:.3} | {:.0} |",
            stats.accepted_rate,
            stats.minimal_fraction().unwrap_or(0.0) * 100.0
        );
    }
    Ok(())
}

fn cmd_cost(flags: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = flags
        .get("n")
        .ok_or("missing -n")?
        .parse()
        .map_err(|e| format!("-n: {e}"))?;
    let cfg = CostConfig::default();
    let pm = PowerModel::default();
    println!("| topology | $/node | W/node | routers | optical cables |");
    println!("|---|---|---|---|---|");
    for cost in [
        cfg.dragonfly(n),
        cfg.flattened_butterfly(n),
        cfg.folded_clos(n),
        cfg.torus_3d(n),
    ] {
        let power = pm.of(&cost);
        println!(
            "| {} | {:.1} | {:.2} | {} | {} |",
            cost.topology,
            cost.per_node(),
            power.per_node_w(),
            cost.routers,
            cost.cables.optical
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(flags) = parse_flags(rest) else {
        return usage();
    };
    let result = match cmd.as_str() {
        "info" => cmd_info(&flags),
        "simulate" => cmd_simulate(&flags),
        "sweep" => cmd_sweep(&flags),
        "cost" => cmd_cost(&flags),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_routing_choice_has_a_cli_spelling_that_parses_back() {
        for choice in RoutingChoice::ALL {
            let (spelling, _) = ROUTINGS
                .iter()
                .find(|(_, c)| *c == choice)
                .unwrap_or_else(|| panic!("{} has no CLI spelling", choice.label()));
            let flags = HashMap::from([("routing".to_string(), spelling.to_string())]);
            assert_eq!(routing_from(&flags), Ok(choice), "--routing {spelling}");
        }
        let flags = HashMap::from([("routing".to_string(), "ugal-x".to_string())]);
        assert_eq!(routing_from(&flags), Err("unknown routing ugal-x".into()));
    }
}

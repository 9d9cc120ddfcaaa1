//! `dfly` — the command-line front end for the dragonfly library, and
//! the workspace's one binary.
//!
//! ```text
//! dfly info     -p 4 -a 8 -H 4 [-g N]          topology facts
//! dfly simulate -p 4 -a 8 -H 4 --routing ugal-lvch --traffic wc \
//!               --load 0.2 [--buffers 16] [--cycles 3000] [--seed 1]
//! dfly sweep    -p 4 -a 8 -H 4 --routing ugal-g --traffic ur \
//!               --loads 0.1,0.3,0.5,0.7,0.9
//! dfly cost     -n 16384                        Figure-19 style table
//! dfly fig      <id> | all | list               the paper's tables and figures
//! dfly doctor   [CAMPAIGN_DIR]                  campaign-journal health verdict
//! dfly resume                                   campaign crash/resume check
//! ```
//!
//! `dfly fig` regenerates the evaluation from the one figure table in
//! `dfly_bench::figures`: `all` prints the paper's set as one document,
//! `list` names every id. `DFLY_QUICK=1` shortens the simulation
//! windows. With `DFLY_CAMPAIGN_DIR` set, every dragonfly cell of
//! `fig`, `sweep` and `simulate` is served from (or journaled to) that
//! campaign store (see `dfly_bench::run_plans`).
//!
//! `dfly doctor` replays a campaign journal and prints a verdict table
//! (see [`cmd_doctor`]); `dfly resume` runs a small fixed grid through
//! the store and can kill itself mid-campaign (see [`cmd_resume`]).
//!
//! Exit codes: 0 on success, 2 on a usage error, a failed command or an
//! UNHEALTHY doctor verdict, 3 when `dfly resume` kills itself.

use std::collections::HashMap;
use std::fmt;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use dfly_bench::figures::{self, FIGURES};
use dfly_bench::{latency_cell, run_plans, Windows};
use dfly_cost::{CostConfig, PowerModel};
use dfly_netsim::json::JsonWriter;
use dragonfly::{
    CampaignStore, DragonflyParams, DragonflySim, RoutingChoice, RunGrid, RunPlan, TrafficChoice,
};

fn usage() -> u8 {
    eprintln!(
        "usage:\n  \
         dfly info     -p P -a A -H H [-g G]\n  \
         dfly simulate -p P -a A -H H [-g G] --routing R --traffic T --load L\n                \
         [--buffers B] [--cycles C] [--seed S]\n  \
         dfly sweep    -p P -a A -H H [-g G] --routing R --traffic T --loads L1,L2,..\n  \
         dfly cost     -n NODES\n  \
         dfly fig      ID | all | list\n  \
         dfly doctor   [CAMPAIGN_DIR]\n  \
         dfly resume\n\n\
         routings: {}\n\
         traffic:  ur wc tornado perm",
        ROUTINGS.map(|(spelling, _)| spelling).join(" ")
    );
    2
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
    let spec = df.build_spec();
    println!("  diameter (hops)    {:?}", spec.diameter());
    println!(
        "  avg hops           {:.2}",
        spec.average_hop_count().unwrap_or(f64::NAN)
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
    let mut grid = RunGrid::new();
    grid.push(RunPlan::new(routing, traffic, sim_config(flags, load)?));
    let stats = &run_plans(&DragonflySim::new(params), &grid)[0];
    println!(
        "{} on {} traffic, N={}:",
        routing.label(),
        traffic.label(),
        params.num_terminals()
    );
    print_stats(stats);
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
    let mut grid = RunGrid::new();
    for &load in &loads {
        grid.push(RunPlan::new(routing, traffic, sim_config(flags, load)?));
    }
    let results = run_plans(&DragonflySim::new(params), &grid);
    println!("| load | latency | accepted | minimal % |");
    println!("|---|---|---|---|");
    for (load, stats) in loads.iter().zip(results) {
        // Undrained runs report no minimal fraction, as no latency.
        let minimal = stats
            .minimal_fraction()
            .map_or_else(|| "-".into(), |f| format!("{:.0}", f * 100.0));
        println!(
            "| {load:.2} | {} | {:.3} | {minimal} |",
            latency_cell(&stats, dfly_netsim::RunStats::avg_latency),
            stats.accepted_rate,
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

/// `dfly fig <id>|all|list`.
fn cmd_fig(args: &[String]) -> u8 {
    let [id] = args else {
        return usage();
    };
    let win = Windows::from_env();
    match id.as_str() {
        "all" => figures::print_all(&win),
        "list" => {
            for f in &FIGURES {
                println!("{:26} {}", f.id, f.title);
            }
        }
        id => match figures::figure(id) {
            Some(f) => figures::print_one(f, &win),
            None => {
                eprintln!("dfly fig: unknown figure {id} (`dfly fig list` names them)");
                return 2;
            }
        },
    }
    0
}

/// Severity of one doctor verdict row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok,
    Info,
    Warn,
    Fail,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Status::Ok => "OK",
            Status::Info => "INFO",
            Status::Warn => "WARN",
            Status::Fail => "FAIL",
        })
    }
}

/// The doctor's verdict rows: (check, status, detail).
type Report = Vec<(&'static str, Status, String)>;

/// The checks over one campaign store, in order: every journal entry
/// decodes; work-complete (workload) cells actually completed;
/// undrained sweep cells are reported as saturation (expected at the
/// top of a latency-load curve, so informational); cells whose warmup
/// failed the convergence gate are warned about.
fn check_campaign(dir: &str) -> Report {
    if !std::path::Path::new(dir).join("journal.jsonl").is_file() {
        let detail = format!("no journal at {dir} - nothing to replay");
        return vec![("campaign journal", Status::Info, detail)];
    }
    let store = match CampaignStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            let detail = format!("store at {dir} unopenable: {e}");
            return vec![("campaign journal", Status::Fail, detail)];
        }
    };
    let mut report = Report::new();
    // Entries written by a superseded codec generation are permanent
    // cache misses by design (the canon embeds the format version), so
    // they don't count against decode coverage — only current-format
    // payloads that fail to decode indicate damage.
    let records = store.records();
    let stale = store.stale_len();
    report.push((
        "campaign journal",
        if records.len() + stale == store.len() {
            Status::Ok
        } else {
            Status::Warn
        },
        format!(
            "{}/{} entries decoded, {} from superseded formats ({}, revision {})",
            records.len(),
            store.len(),
            stale,
            store.dir().display(),
            store.revision()
        ),
    ));

    let workloads = records.iter().filter(|r| r.kind == "workload");
    let n = workloads.clone().count();
    let wedged = workloads.filter(|r| r.stats.completion.is_none()).count();
    report.push(if wedged == 0 {
        let detail = format!("{n}/{n} work-complete cells finished");
        ("workload completion", Status::Ok, detail)
    } else {
        let detail = format!("{wedged}/{n} work-complete cells hit their cycle cap");
        ("workload completion", Status::Fail, detail)
    });

    // Undrained open-loop cells that were configured to drain: expected
    // exactly at the saturated top of a latency-load curve, so they are
    // surfaced but not failed. Saturation probes (drain_cap: 0) are
    // exempt entirely.
    let saturated = records
        .iter()
        .filter(|r| r.kind != "workload" && r.drain_expected() && !r.stats.drained)
        .count();
    report.push((
        "saturated cells",
        Status::Info,
        format!("{saturated} undrained sweep cells (expected at saturation)"),
    ));

    let unconverged = records.iter().filter(|r| !r.stats.converged).count();
    let n = records.len();
    report.push(if unconverged == 0 {
        let detail = format!("{n}/{n} cells converged");
        ("warmup convergence", Status::Ok, detail)
    } else {
        let detail = format!("{unconverged}/{n} cells exceeded the warmup drift limit");
        ("warmup convergence", Status::Warn, detail)
    });
    report
}

/// `dfly doctor [CAMPAIGN_DIR]`: replays the campaign journal of a
/// finished (or crashed) session and prints a verdict table, so "did
/// anything go wrong in that overnight sweep?" is one command. It
/// judges health only; speed verdicts come from `dfly-benchmark
/// compare` (see `scripts/bench_history.sh`).
///
/// The directory defaults to `DFLY_CAMPAIGN_DIR`, then
/// `target/campaign`. A missing journal is reported and skipped, never
/// invented. Exit code: 0 when no check FAILed (WARNs allowed), 2
/// otherwise and on a usage error.
fn cmd_doctor(args: &[String]) -> u8 {
    if let [_, extra, ..] = args {
        eprintln!("dfly doctor: unexpected argument {extra}\nusage: dfly doctor [CAMPAIGN_DIR]");
        return 2;
    }
    let dir = args
        .first()
        .cloned()
        .or_else(|| std::env::var("DFLY_CAMPAIGN_DIR").ok())
        .unwrap_or_else(|| "target/campaign".to_string());
    let report = check_campaign(&dir);
    println!("| check | status | detail |");
    println!("|---|---|---|");
    for (check, status, detail) in &report {
        println!("| {check} | {status} | {detail} |");
    }
    let count = |status| report.iter().filter(|row| row.1 == status).count();
    let (fails, warns) = (count(Status::Fail), count(Status::Warn));
    println!(
        "doctor: verdict {} ({fails} FAIL, {warns} WARN)",
        if fails > 0 { "UNHEALTHY" } else { "CLEAN" }
    );
    if fails > 0 {
        2
    } else {
        0
    }
}

/// `dfly resume`: the campaign crash/resume check. Runs a small fixed
/// grid through the campaign store, optionally killing itself
/// mid-campaign after a configured number of cache misses (leaving a
/// torn partial line at the journal tail), so a follow-up invocation
/// can prove that the rerun simulates only the missing cells and still
/// matches a fresh serial sweep byte for byte.
///
/// Knobs:
/// * `DFLY_CAMPAIGN_DIR` — store directory (default
///   `target/campaign_resume`);
/// * `DFLY_CAMPAIGN_KILL=K` — exit with code 3 after `K` cache misses
///   have been journaled, appending a torn partial entry first.
///
/// Without the kill knob it completes the grid, compares the cached
/// results against a fresh serial sweep, and prints a one-line JSON
/// summary: `{"total":…,"hits":…,"misses":…,"identical":…,"entries":…}`.
fn cmd_resume(args: &[String]) -> u8 {
    if !args.is_empty() {
        return usage();
    }
    let dir =
        std::env::var("DFLY_CAMPAIGN_DIR").unwrap_or_else(|_| "target/campaign_resume".to_string());
    let kill_after: Option<usize> = std::env::var("DFLY_CAMPAIGN_KILL")
        .ok()
        .and_then(|v| v.parse().ok());

    // A fixed 2x2x2 grid on the 72-terminal network: small enough for
    // CI, large enough that a mid-grid kill leaves real work behind.
    let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).expect("valid params"));
    let mut cfg = sim.config(0.1);
    cfg.seed = 1;
    cfg.warmup = 200;
    cfg.measure = 600;
    cfg.drain_cap = 20_000;
    let grid = RunGrid::cross(
        &[RoutingChoice::Min, RoutingChoice::UgalLVcH],
        &[TrafficChoice::Uniform, TrafficChoice::WorstCase],
        &[0.1, 0.3],
        &cfg,
    );

    let store = CampaignStore::open(&dir).expect("campaign store must open");
    eprintln!(
        "dfly resume: {} runs, store at {} ({} entries)",
        grid.len(),
        store.dir().display(),
        store.len()
    );

    if let Some(kill_after) = kill_after {
        // Streaming kill leg: single-threaded so the journal grows in
        // plan order, abort once `kill_after` misses have streamed to
        // disk. The torn tail appended below — the first half of the
        // last journaled line, without its newline — is what a crash
        // mid-write leaves; recovery must truncate it, not reject the
        // journal.
        let misses = AtomicUsize::new(0);
        let journal = store.dir().join("journal.jsonl");
        grid.execute_cached_streaming_on(&sim, &store, 1, &|i, _stats, hit| {
            if hit {
                return;
            }
            let done = misses.fetch_add(1, Ordering::SeqCst) + 1;
            eprintln!("dfly resume: miss {done} (plan {i}) journaled");
            if done >= kill_after {
                let text = std::fs::read(&journal).expect("journal exists");
                let last = text[..text.len() - 1].rsplit(|&b| b == b'\n').next();
                let last = last.expect("a miss was journaled");
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&journal)
                    .expect("journal exists");
                f.write_all(&last[..last.len() / 2])
                    .expect("append torn tail");
                f.flush().expect("flush torn tail");
                eprintln!("dfly resume: killed after {done} misses (torn tail appended)");
                std::process::exit(3);
            }
        })
        .expect("campaign kill leg must run");
        // Fewer cells than the kill threshold: fall through and report.
        eprintln!("dfly resume: grid finished before reaching the kill threshold");
    }

    let (cached, report) = grid
        .execute_cached(&sim, &store)
        .expect("campaign grid must run");
    let fresh = grid.execute_on(&sim, 1);
    let identical = cached == fresh;
    assert!(identical, "cached grid diverged from fresh serial grid");
    let mut summary = JsonWriter::new();
    summary.begin_object().key("total").u64(grid.len() as u64);
    summary.key("hits").u64(report.hits as u64);
    summary.key("misses").u64(report.misses as u64);
    summary.key("identical").bool(identical);
    summary.key("entries").u64(store.len() as u64).end_object();
    println!("{}", summary.finish());
    0
}

/// Runs one command line (without the program name); returns the
/// process exit code.
fn run(args: &[String]) -> u8 {
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    match cmd.as_str() {
        "fig" => return cmd_fig(rest),
        "doctor" => return cmd_doctor(rest),
        "resume" => return cmd_resume(rest),
        _ => {}
    }
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
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&args))
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_figure_id_dispatches_and_an_unknown_one_exits_2() {
        // Every table entry resolves, to itself (so no id is shadowed),
        // through the lookup `dfly fig` uses; the analytic ones (no
        // simulation) run to completion.
        for f in &FIGURES {
            assert!(std::ptr::eq(figures::figure(f.id).expect(f.id), f));
        }
        assert_eq!(FIGURES[figures::PAPER_SET - 1].id, "fig19");
        for id in ["fig1", "tab1", "fig2", "fig4", "tab2", "fig19", "list"] {
            assert_eq!(run(&args(&format!("fig {id}"))), 0, "dfly fig {id}");
        }
        assert_eq!(run(&args("fig fig99")), 2);
        assert_eq!(run(&args("fig")), 2);
        assert_eq!(run(&args("fig fig1 fig2")), 2);
        assert_eq!(run(&args("resume extra")), 2);
        assert_eq!(run(&args("nonsense")), 2);
    }
}

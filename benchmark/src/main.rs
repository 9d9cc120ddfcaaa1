//! `dfly-benchmark` command line: `run`, `list`, `compare`, `selfcheck`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dfly_benchmark::compare::{any_worse, compare_docs, noise_floor, render};
use dfly_benchmark::json::{self, Value};
use dfly_benchmark::measure::{env_header, scrub_env};
use dfly_benchmark::registry::{self, Tier, METRICS, WORKLOADS};
use dfly_benchmark::runner::{default_out_dir, run_workload, Outcome, RunOpts};
use dfly_benchmark::workloads::Size;

const USAGE: &str = "\
dfly-benchmark: the repo's one benchmark

  run --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke] [--out <file>]
        Runs one workload in this process, or with `all` each workload in a
        fresh child process. Prints every metric by name with unit and
        direction, checks outputs, and writes the result document under
        benchmark/out/. The last line of a single-workload run is the JSON
        object the driver reads. --trace makes the separate traced run
        (per-layer metrics and benchmark/out/<workload>.trace.json).
  list  Every metric with unit, direction, bound and workloads.
  compare <A.json> <B.json>
        Per metric x workload: better / same / worse / unresolved.
        Exits 1 on any \"worse\" (a rise in failed_share is one).
  selfcheck [--seed <n>] [--seconds <s>]
        Two full sets of the same build back to back, compared; records each
        metric's set-to-set spread in benchmark/noise_floor.json and fails
        if a spread exceeds its bound or a simulated value differs.
";

/// Default time budget of the timed reps; `BENCHMARK.json`'s
/// `run_seconds` is the same number.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a number >= 0")?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => parsed.smoke = true,
            // Bare `--trace` means on; the driver passes `--trace 0|1`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn print_outcome(o: &Outcome, trace: bool) {
    let tier = if trace {
        "per-layer, traced run"
    } else {
        "end-to-end, untraced run"
    };
    println!(
        "== {} ({tier}): {} reps, threads {}, shards {}, fingerprint {:016x}",
        o.workload, o.reps, o.threads, o.shards, o.fingerprint
    );
    for (name, stat) in &o.metrics {
        let def = registry::metric(name);
        println!(
            "  {:<40} {:>16.6} {:<15} {:<7} min {:.6} max {:.6} n {}",
            name,
            stat.median,
            def.unit,
            def.better.label(),
            stat.min,
            stat.max,
            stat.n
        );
    }
    println!("  checks: {} attempted, {} failed", o.attempted, o.failed);
    for failure in &o.failures {
        println!("  FAILED {failure}");
    }
}

fn document(env: Value, workloads: Value) -> Value {
    Value::obj()
        .with("schema", "dfly-benchmark/1")
        .with("env", env)
        .with("workloads", workloads)
}

fn write_doc(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_doc(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn doc_path(out_dir: &Path, stem: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("{stem}{}.json", if trace { ".layers" } else { "" }))
}

/// One workload, in this process. Exit code 0 = ran and every check
/// passed, 1 = a check failed, 3 = skipped (no result line).
fn run_one(name: &str, args: &Args, scrubbed: &[&'static str]) -> Result<ExitCode, String> {
    if registry::workload(name).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload '{name}'; one of: all, {}",
            names.join(", ")
        ));
    }
    let out_dir = default_out_dir();
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: if args.smoke { Size::Smoke } else { Size::Full },
        out_dir: out_dir.clone(),
    };
    let outcome = run_workload(name, &opts);
    let env = env_header(args.seed, args.seconds, args.trace, scrubbed);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| doc_path(&out_dir, name, args.trace));
    write_doc(
        &path,
        &document(env, Value::obj().with(name, outcome.to_json())),
    )?;
    if let Some(why) = &outcome.skipped {
        eprintln!("{name}: skipped, {why}");
        return Ok(ExitCode::from(3));
    }
    if args.trace {
        let trace_path = out_dir.join(format!("{name}.trace.json"));
        outcome
            .tracer
            .write_chrome(name, &trace_path)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    }
    print_outcome(&outcome, args.trace);
    if outcome.metrics.is_empty() {
        return Err(format!(
            "{name}: every rep failed its checks, nothing was timed"
        ));
    }
    println!("{}", outcome.driver_line());
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Every workload, each in a fresh child process so that `peak_rss_mb`
/// is that workload's own high-water mark. Returns the merged document.
fn run_all(args: &Args, stem: &str) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let out_dir = default_out_dir();
    let mut merged = Value::obj();
    let mut env = Value::Null;
    let mut clean = true;
    for w in &WORKLOADS {
        let part = doc_path(&out_dir, &format!("{stem}.{}", w.name), args.trace);
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("start the {} child: {e}", w.name))?;
        // 3 = skipped: recorded in the document, not an error of the set.
        if !status.success() && status.code() != Some(3) {
            clean = false;
        }
        let doc = read_doc(&part)?;
        let _ = std::fs::remove_file(&part);
        env = doc.get("env").cloned().unwrap_or(Value::Null);
        if let Some(entry) = doc.get("workloads").and_then(|ws| ws.get(w.name)) {
            merged.set(w.name, entry.clone());
        }
    }
    Ok((document(env, merged), clean))
}

fn list() {
    // `driver` = listed in BENCHMARK.json, so the driver gates it.
    println!(
        "{:<40} {:<15} {:<7} {:>6}  {:<10} {:<6} workloads",
        "metric", "unit", "better", "bound", "tier", "driver"
    );
    for m in METRICS {
        let (tier, bound) = match m.tier {
            Tier::EndToEnd => ("end-to-end", format!("{:.0}%", m.bound * 100.0)),
            Tier::PerLayer => ("per-layer", "-".to_string()),
        };
        println!(
            "{:<40} {:<15} {:<7} {:>6}  {:<10} {:<6} {}",
            m.name,
            m.unit,
            m.better.label(),
            bound,
            tier,
            if m.in_contract() { "yes" } else { "no" },
            m.workloads.map_or("all".to_string(), |list| list.join(","))
        );
        // End-to-end: how it is measured. Per-layer: what it should move.
        println!("{:<40}   {}", "", m.note);
    }
    println!();
    for w in &WORKLOADS {
        println!("{:<20} {}", w.name, w.why);
    }
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two result documents".into());
    };
    let rows = compare_docs(&read_doc(Path::new(a))?, &read_doc(Path::new(b))?);
    print!("{}", render(&rows));
    Ok(if any_worse(&rows) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let out_dir = default_out_dir();
    let mut sets = Vec::new();
    for stem in ["selfcheck-a", "selfcheck-b"] {
        let (doc, clean) = run_all(args, stem)?;
        write_doc(&doc_path(&out_dir, stem, false), &doc)?;
        if !clean {
            return Err(format!("{stem}: a workload failed its checks"));
        }
        sets.push(doc);
    }
    print!("{}", render(&compare_docs(&sets[0], &sets[1])));
    let floor = noise_floor(&sets[0], &sets[1]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("noise_floor.json");
    write_doc(&path, &floor.doc)?;
    println!("noise floor recorded in {}", path.display());
    for v in &floor.violations {
        println!("VIOLATION {v}");
    }
    Ok(if floor.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    // Before anything else runs: no thread exists yet, and nothing has
    // read the variables.
    let scrubbed = scrub_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = parse_args(rest).and_then(|args| match command.as_str() {
        "run" => match args.workload.as_deref() {
            None => Err("run needs --workload <name|all>".to_string()),
            Some("all") => {
                let (doc, clean) = run_all(&args, "result")?;
                let path = args
                    .out
                    .clone()
                    .unwrap_or_else(|| doc_path(&default_out_dir(), "result", args.trace));
                write_doc(&path, &doc)?;
                println!("result document: {}", path.display());
                Ok(if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                })
            }
            Some(name) => run_one(name, &args, &scrubbed),
        },
        "list" => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        "compare" => compare(&args.positional),
        "selfcheck" => selfcheck(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dfly-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

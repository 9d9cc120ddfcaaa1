//! Run-health doctor: replays the campaign journal of a finished (or
//! crashed) session and prints a verdict table, so "did anything go
//! wrong in that overnight sweep?" is one command instead of an
//! archaeology session. It judges health only; speed verdicts come
//! from `dfly-benchmark compare` (see `scripts/bench_history.sh`).
//!
//! Checks, in order: every journal entry decodes; work-complete
//! (workload) cells actually completed; undrained sweep cells are
//! reported as saturation (expected at the top of a latency-load
//! curve, so informational); cells whose warmup failed the
//! convergence gate are warned about.
//!
//! Usage: `doctor [CAMPAIGN_DIR]` — the directory defaults to
//! `DFLY_CAMPAIGN_DIR` or `target/campaign`. A missing journal is
//! reported and skipped, never invented. Exit code: 0 when no check
//! FAILed (WARNs allowed), 2 otherwise and on a usage error.

use std::fmt;
use std::process::ExitCode;

use dragonfly::CampaignStore;

/// Severity of one verdict row.
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

#[derive(Default)]
struct Report {
    rows: Vec<(String, Status, String)>,
}

impl Report {
    fn row(&mut self, check: &str, status: Status, detail: impl Into<String>) {
        self.rows.push((check.to_string(), status, detail.into()));
    }

    fn count(&self, status: Status) -> usize {
        self.rows.iter().filter(|(_, s, _)| *s == status).count()
    }
}

fn check_campaign(report: &mut Report, dir: &str) {
    if !std::path::Path::new(dir).join("journal.jsonl").is_file() {
        report.row(
            "campaign journal",
            Status::Info,
            format!("no journal at {dir} - nothing to replay"),
        );
        return;
    }
    let store = match CampaignStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            report.row(
                "campaign journal",
                Status::Fail,
                format!("store at {dir} unopenable: {e}"),
            );
            return;
        }
    };
    // Entries written by a superseded codec generation are permanent
    // cache misses by design (the canon embeds the format version), so
    // they don't count against decode coverage — only current-format
    // payloads that fail to decode indicate damage.
    let records = store.records();
    let stale = store.stale_len();
    let status = if records.len() + stale == store.len() {
        Status::Ok
    } else {
        Status::Warn
    };
    report.row(
        "campaign journal",
        status,
        format!(
            "{}/{} entries decoded, {} from superseded formats ({}, revision {})",
            records.len(),
            store.len(),
            stale,
            store.dir().display(),
            store.revision()
        ),
    );

    let wedged: Vec<&dragonfly::JournalRecord> = records
        .iter()
        .filter(|r| r.kind == "workload" && r.stats.completion.is_none())
        .collect();
    let workloads = records.iter().filter(|r| r.kind == "workload").count();
    if wedged.is_empty() {
        report.row(
            "workload completion",
            Status::Ok,
            format!("{workloads}/{workloads} work-complete cells finished"),
        );
    } else {
        report.row(
            "workload completion",
            Status::Fail,
            format!(
                "{}/{} work-complete cells hit their cycle cap",
                wedged.len(),
                workloads
            ),
        );
    }

    // Undrained open-loop cells that were configured to drain: expected
    // exactly at the saturated top of a latency-load curve, so they are
    // surfaced but not failed. Saturation probes (drain_cap: 0) are
    // exempt entirely.
    let saturated = records
        .iter()
        .filter(|r| r.kind != "workload" && r.drain_expected() && !r.stats.drained)
        .count();
    report.row(
        "saturated cells",
        Status::Info,
        format!("{saturated} undrained sweep cells (expected at saturation)"),
    );

    let unconverged = records.iter().filter(|r| !r.stats.converged).count();
    if unconverged == 0 {
        report.row(
            "warmup convergence",
            Status::Ok,
            format!("{}/{} cells converged", records.len(), records.len()),
        );
    } else {
        report.row(
            "warmup convergence",
            Status::Warn,
            format!(
                "{unconverged}/{} cells exceeded the warmup drift limit",
                records.len()
            ),
        );
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let dir = args
        .next()
        .or_else(|| std::env::var("DFLY_CAMPAIGN_DIR").ok())
        .unwrap_or_else(|| "target/campaign".to_string());
    if let Some(extra) = args.next() {
        eprintln!("doctor: unexpected argument {extra}\nusage: doctor [CAMPAIGN_DIR]");
        return ExitCode::from(2);
    }

    let mut report = Report::default();
    check_campaign(&mut report, &dir);

    println!("| check | status | detail |");
    println!("|---|---|---|");
    for (check, status, detail) in &report.rows {
        println!("| {check} | {status} | {detail} |");
    }
    let fails = report.count(Status::Fail);
    let warns = report.count(Status::Warn);
    println!(
        "doctor: verdict {} ({fails} FAIL, {warns} WARN)",
        if fails > 0 { "UNHEALTHY" } else { "CLEAN" }
    );
    if fails > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

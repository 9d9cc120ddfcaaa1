//! The benchmark checked against its own contract at `--smoke` size:
//! every workload shrunk to well under a second.

use std::path::PathBuf;

use dfly_benchmark::json::{self, Value};
use dfly_benchmark::measure::nproc;
use dfly_benchmark::registry::{MetricDef, Tier, METRICS, WORKLOADS};
use dfly_benchmark::runner::{run_spec, run_workload, RunOpts};
use dfly_benchmark::workloads::{spec, Size, Spec};

fn opts(tag: &str, trace: bool) -> RunOpts {
    RunOpts {
        seed: 1,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        // One directory per test: tests run on parallel threads.
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
    }
}

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_the_registry() {
    let doc = contract();
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = doc.get("workloads").unwrap();
    assert_eq!(names(workloads), WORKLOADS.map(|w| w.name));
    for (entry, def) in workloads.items().iter().zip(&WORKLOADS) {
        assert_eq!(entry.get("why").and_then(Value::as_str), Some(def.why));
        assert!(
            def.why.len() <= 200 && !def.why.contains('\n'),
            "{}",
            def.name
        );
    }

    for (key, tier) in [
        ("end_to_end", Tier::EndToEnd),
        ("per_layer", Tier::PerLayer),
    ] {
        let listed = doc.get(key).unwrap();
        let want: Vec<_> = METRICS
            .iter()
            .filter(|m| m.tier == tier && m.in_contract())
            .collect();
        assert_eq!(
            names(listed),
            want.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{key}"
        );
        for (entry, def) in listed.items().iter().zip(want) {
            assert!(well_formed(def.name), "{}", def.name);
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(def.better.label()),
                "{}",
                def.name
            );
            match tier {
                Tier::EndToEnd => {
                    assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(def.bound));
                    assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
                }
                Tier::PerLayer => assert!(entry.get("bound").is_none(), "{}", def.name),
            }
        }
    }
    // The end-to-end metrics that cannot be in the driver's list, which
    // wants every metric on every workload, never 0 and steady across seeds.
    let left_out: Vec<_> = METRICS
        .iter()
        .filter(|m| m.tier == Tier::EndToEnd && !m.in_contract())
        .map(|m| m.name)
        .collect();
    assert_eq!(
        left_out,
        [
            "cold_cells_per_s",
            "warm_cells_per_s",
            "peak_rss_mb",
            "failed_share",
            "sim_completion_cycles"
        ]
    );
    assert_eq!(
        METRICS.iter().filter(|m| m.tier == Tier::EndToEnd).count(),
        12
    );
}

/// Every workload, untraced and traced: the driver line carries exactly
/// the contract's metrics, each once and in order; nothing fails; the
/// traced run reproduces the untraced run's simulated results.
#[test]
fn every_workload_emits_the_contract_once() {
    let doc = contract();
    for w in &WORKLOADS {
        if nproc() < w.needs_threads {
            let skipped = run_workload(w.name, &opts("emit", false));
            assert!(
                skipped.skipped.is_some() && skipped.metrics.is_empty(),
                "{}",
                w.name
            );
            continue;
        }
        let mut fingerprints = Vec::new();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run_workload(w.name, &opts("emit", trace));
            assert_eq!(
                outcome.failures,
                Vec::<String>::new(),
                "{} trace={trace}",
                w.name
            );
            assert!(outcome.attempted >= 1 && outcome.failed == 0);
            fingerprints.push(outcome.fingerprint);

            let line = json::parse(&outcome.driver_line()).expect("the driver line is JSON");
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            let emitted: Vec<&str> = line
                .get("metrics")
                .unwrap()
                .fields()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(emitted, names(doc.get(key).unwrap()), "{} {key}", w.name);
            for (name, value) in line.get("metrics").unwrap().fields() {
                let v = value
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("a number");
                assert!(v.is_finite(), "{} {name} = {v}", w.name);
                // (A per-layer difference such as cold_overhead_share may
                // dip below 0 in the noise of a smoke-sized run.)
                assert!(
                    trace || v > 0.0,
                    "{} {name}: end-to-end metrics are never 0",
                    w.name
                );
            }
            // Beyond the driver's view: the document also carries the
            // workload-specific end-to-end metrics, each where declared.
            let in_doc: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
            let tier = if trace {
                Tier::PerLayer
            } else {
                Tier::EndToEnd
            };
            let want: Vec<&str> = METRICS
                .iter()
                .filter(|m| m.tier == tier && (trace || m.applies_to(w.name)))
                .map(|m| m.name)
                .collect();
            assert_eq!(in_doc, want, "{}", w.name);
            if trace {
                assert!(!outcome.tracer.spans().is_empty(), "{}: no spans", w.name);
                // Simulated counts may be 0 (MIN routing makes no adaptive
                // decision); a host time that was measured is not.
                let timed = |m: &&MetricDef| m.tier == tier && m.applies_to(w.name) && !m.simulated;
                for m in METRICS.iter().filter(timed) {
                    assert!(
                        outcome.metric(m.name).unwrap().median != 0.0,
                        "{}: {} should be measured here",
                        w.name,
                        m.name
                    );
                }
            }
        }
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "{}: traced != untraced",
            w.name
        );
    }
}

#[test]
fn a_wrong_expected_hit_count_is_a_failure() {
    let Some(Spec::Campaign(mut campaign)) = spec("campaign_fill_rerun", Size::Smoke, nproc())
    else {
        panic!("the campaign workload has a campaign spec");
    };
    campaign.expected_warm_hits += 1;
    let outcome = run_spec(
        "campaign_fill_rerun",
        &Spec::Campaign(campaign),
        &opts("mismatch", false),
    );
    assert!(outcome.failed_share() > 0.0);
    assert!(
        outcome
            .failures
            .iter()
            .any(|f| f.contains("warm rerun reported")),
        "{:?}",
        outcome.failures
    );
    let line = json::parse(&outcome.driver_line()).unwrap();
    assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
}

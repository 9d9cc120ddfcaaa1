//! Judging two result documents: per metric x workload better / same /
//! worse / unresolved, and the set-to-set noise floor `selfcheck`
//! records.

use crate::json::Value;
use crate::registry::{Better, MetricDef, Tier, METRICS, WORKLOADS};

/// The verdict on one metric of one workload, baseline vs candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound (or below the metric's absolute tolerance).
    Same,
    /// Worse by more than the bound.
    Worse,
    /// Moved by more than the bound, but the reps of at least one side
    /// spread wider than the bound and the two ranges overlap: the
    /// documents cannot tell.
    Unresolved,
    /// A per-layer metric: reported, never judged (it has no bound).
    Layer,
    /// One side ran the workload and the other skipped it.
    Skipped,
}

impl Verdict {
    /// Lower-case label for the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Layer => "layer",
            Verdict::Skipped => "skipped",
        }
    }
}

/// A metric reading with the range of its reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Median.
    pub value: f64,
    /// Smallest rep.
    pub min: f64,
    /// Largest rep.
    pub max: f64,
}

impl Sample {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.value.abs()
        }
    }
}

/// By how much of the baseline `b` is worse than `a` (negative = better).
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        // From nothing to something: infinitely worse (or better).
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

/// Judges candidate `b` against baseline `a` under `def`'s bound.
pub fn judge(def: &MetricDef, a: Sample, b: Sample) -> Verdict {
    if def.tier == Tier::PerLayer {
        return Verdict::Layer;
    }
    if (b.value - a.value).abs() < def.equal_below {
        return Verdict::Same;
    }
    let moved = worse_by(def, a.value, b.value);
    if moved.abs() <= def.bound {
        return Verdict::Same;
    }
    let noisy = a.spread() > def.bound || b.spread() > def.bound;
    let overlap = a.min <= b.max && b.min <= a.max;
    if noisy && overlap {
        Verdict::Unresolved
    } else if moved > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// One line of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline median.
    pub a: f64,
    /// Candidate median.
    pub b: f64,
    /// Share of the baseline by which the candidate is worse.
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn sample(entry: &Value, metric: &str) -> Option<Sample> {
    let m = entry.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    Some(Sample {
        value,
        min: m.get("min").and_then(Value::as_f64).unwrap_or(value),
        max: m.get("max").and_then(Value::as_f64).unwrap_or(value),
    })
}

/// Workload `name`'s entry in a result document.
fn entry<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?.get(name)
}

fn is_ok(entry: &Value) -> bool {
    entry.get("status").and_then(Value::as_str) == Some("ok")
}

/// Compares every metric both documents carry, workload by workload in
/// registry order.
pub fn compare_docs(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let (Some(ea), Some(eb)) = (entry(a, w.name), entry(b, w.name)) else {
            continue;
        };
        if is_ok(ea) != is_ok(eb) {
            rows.push(Row {
                workload: w.name,
                metric: "status",
                a: f64::from(u8::from(is_ok(ea))),
                b: f64::from(u8::from(is_ok(eb))),
                worse_by: 0.0,
                verdict: Verdict::Skipped,
            });
            continue;
        }
        for def in METRICS {
            let (Some(sa), Some(sb)) = (sample(ea, def.name), sample(eb, def.name)) else {
                continue;
            };
            rows.push(Row {
                workload: w.name,
                metric: def.name,
                a: sa.value,
                b: sb.value,
                worse_by: worse_by(def, sa.value, sb.value),
                verdict: judge(def, sa, sb),
            });
        }
    }
    rows
}

/// Whether a comparison fails: any "worse" (a rise in `failed_share`
/// is one, its bound being 0).
pub fn any_worse(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

/// The comparison as a text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<40} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "baseline", "candidate", "worse by"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<40} {:>14.6} {:>14.6} {:>8.2}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.verdict.label()
        ));
    }
    out
}

/// What `selfcheck` found between two sets of the same build.
#[derive(Debug)]
pub struct NoiseFloor {
    /// The document to record.
    pub doc: Value,
    /// Why the two sets do not agree within the benchmark's own bounds
    /// (empty = they do).
    pub violations: Vec<String>,
}

/// Measures the set-to-set spread of every end-to-end metric between
/// two untraced documents of the same build and seed: host-time medians
/// must agree within their bound, simulated values and fingerprints
/// exactly, and nothing may have failed.
pub fn noise_floor(a: &Value, b: &Value) -> NoiseFloor {
    let mut violations = Vec::new();
    let mut floors = Value::obj();
    for w in &WORKLOADS {
        let (Some(ea), Some(eb)) = (entry(a, w.name), entry(b, w.name)) else {
            violations.push(format!("{}: missing from a set", w.name));
            continue;
        };
        if !is_ok(ea) || !is_ok(eb) {
            floors.set(w.name, Value::obj().with("status", "skipped"));
            continue;
        }
        if ea.get("sim_fingerprint") != eb.get("sim_fingerprint") {
            violations.push(format!(
                "{}: sim_fingerprint differs between the sets",
                w.name
            ));
        }
        let mut per_metric = Value::obj();
        for def in METRICS.iter().filter(|m| m.tier == Tier::EndToEnd) {
            let (Some(sa), Some(sb)) = (sample(ea, def.name), sample(eb, def.name)) else {
                continue;
            };
            let spread = if sa.value == sb.value {
                0.0
            } else {
                (sa.value - sb.value).abs() / sa.value.abs().min(sb.value.abs())
            };
            per_metric.set(
                def.name,
                Value::obj()
                    .with("set_a", sa.value)
                    .with("set_b", sb.value)
                    .with("spread", spread)
                    .with("bound", def.bound),
            );
            let same_enough = (sa.value - sb.value).abs() < def.equal_below;
            if def.name == "failed_share" {
                if sa.value > 0.0 || sb.value > 0.0 {
                    violations.push(format!("{}: failed_share is not 0", w.name));
                }
            } else if def.simulated {
                if sa.value != sb.value {
                    violations.push(format!(
                        "{}: {} differs between the sets ({} vs {}), simulated values must repeat exactly",
                        w.name, def.name, sa.value, sb.value
                    ));
                }
            } else if spread > def.bound && !same_enough {
                violations.push(format!(
                    "{}: {} spread {:.1} % exceeds its bound {:.0} %",
                    w.name,
                    def.name,
                    spread * 100.0,
                    def.bound * 100.0
                ));
            }
        }
        floors.set(w.name, per_metric);
    }
    let doc = Value::obj()
        .with("schema", "dfly-benchmark/noise-floor/1")
        .with("what", "set-to-set spread |a-b|/min(a,b) of each end-to-end median between two back-to-back full sets of one build (selfcheck)")
        .with("env", a.get("env").cloned().unwrap_or(Value::Null))
        .with("noise_floor", floors);
    NoiseFloor { doc, violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::metric;

    fn s(value: f64, min: f64, max: f64) -> Sample {
        Sample { value, min, max }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_overlap() {
        // Lower is better; a 10 % bound whatever the registry says today.
        let wall = &MetricDef {
            bound: 0.10,
            ..*metric("wall_s")
        };
        assert_eq!(
            judge(wall, s(1.0, 0.99, 1.01), s(1.05, 1.04, 1.06)),
            Verdict::Same
        );
        assert_eq!(
            judge(wall, s(1.0, 0.99, 1.01), s(1.2, 1.19, 1.21)),
            Verdict::Worse
        );
        assert_eq!(
            judge(wall, s(1.0, 0.99, 1.01), s(0.8, 0.79, 0.81)),
            Verdict::Better
        );
        // Noisy and overlapping: cannot tell.
        assert_eq!(
            judge(wall, s(1.0, 0.8, 1.3), s(1.2, 1.0, 1.4)),
            Verdict::Unresolved
        );
        // Noisy but disjoint: every candidate rep is slower.
        assert_eq!(
            judge(wall, s(1.0, 0.8, 1.05), s(1.4, 1.2, 1.6)),
            Verdict::Worse
        );
        let rate = &MetricDef {
            bound: 0.10,
            ..*metric("sim_cycles_per_s") // higher is better
        };
        assert_eq!(
            judge(rate, s(100.0, 99.0, 101.0), s(80.0, 79.0, 81.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, s(100.0, 99.0, 101.0), s(130.0, 129.0, 131.0)),
            Verdict::Better
        );
    }

    #[test]
    fn small_absolute_moves_are_equal_and_failures_never_are() {
        let setup = metric("setup_s");
        assert_eq!(
            judge(setup, s(0.001, 0.001, 0.001), s(0.004, 0.004, 0.004)),
            Verdict::Same
        );
        assert_eq!(
            judge(setup, s(0.100, 0.100, 0.100), s(0.140, 0.140, 0.140)),
            Verdict::Worse
        );
        let failed = metric("failed_share");
        assert_eq!(
            judge(failed, s(0.0, 0.0, 0.0), s(0.0, 0.0, 0.0)),
            Verdict::Same
        );
        assert_eq!(
            judge(failed, s(0.0, 0.0, 0.0), s(0.01, 0.01, 0.01)),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                metric("bench.trace_overhead"),
                s(1.0, 1.0, 1.0),
                s(2.0, 2.0, 2.0)
            ),
            Verdict::Layer
        );
    }
}

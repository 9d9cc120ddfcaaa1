//! Run-health primitives: the stall watchdog's report and the
//! engine/phase/shard span tree.
//!
//! The cycle engine is deliberately allowed to run to a hard cap
//! (`warmup + measure + drain_cap`), which means a wedged network — a
//! credit-starved cycle, a routing bug, a hostile configuration — shows
//! up as a run that silently burns the whole cap and then reports
//! suspicious numbers. The watchdog (enabled via
//! [`crate::SimConfig::watchdog_every`]) checks progress on fixed cycle
//! boundaries and, on a zero-progress window with packets still in
//! flight, ends the run with [`crate::SimError::Stalled`] carrying a
//! [`StallReport`] that names the hottest blocked resources.
//!
//! Everything in the report is computed from deterministic engine state
//! on a barrier-aligned cycle, merged across shards in shard order with
//! fixed tie-breaks — so the report is bit-identical at any shard
//! count.
//!
//! The second half of the module turns [`SimPerf`](crate::SimPerf)'s
//! phase accounting into a hierarchical [`SpanTree`]
//! (engine → phase → shard) and renders it as chrome://tracing JSON,
//! the same format as the flit tracer's
//! [`FlitTrace::to_chrome_json`](crate::FlitTrace::to_chrome_json) —
//! load either into `chrome://tracing` or Perfetto.

use std::fmt;

use crate::json::JsonWriter;
use crate::sim::SimPerf;
use crate::telemetry::begin_chrome_event;

/// Relative drift between the last two warmup quarters above which a
/// run is declared unconverged. The comparison uses a symmetric
/// relative difference (`2|a - b| / (a + b)`, range 0..=2), so 0.5
/// means the quarters disagree by more than ~29% around their mean —
/// far outside steady-state noise for any run large enough to measure.
pub const WARMUP_DRIFT_LIMIT: f64 = 0.5;

/// Windowed warmup-convergence diagnostic.
///
/// The engine splits the warmup interval into four equal windows and
/// accumulates, per window, the number of packets ejected and the sum
/// of their latencies. This function compares the third and fourth
/// windows (the half of warmup closest to measurement): if either
/// throughput or mean latency still drifts by more than
/// [`WARMUP_DRIFT_LIMIT`], warmup was too short and the measured phase
/// starts from a transient.
///
/// Returns `(converged, throughput_drift, latency_drift)`. With no
/// ejections in either window (warmup disabled or shorter than the
/// network's flight time) there is nothing to compare: the run is
/// reported converged with both drifts `None`.
pub fn warmup_convergence(
    ejects: &[u64; 4],
    lat_sums: &[u64; 4],
) -> (bool, Option<f64>, Option<f64>) {
    let (e2, e3) = (ejects[2], ejects[3]);
    if e2 + e3 == 0 {
        return (true, None, None);
    }
    let rel = |a: f64, b: f64| {
        if a + b == 0.0 {
            0.0
        } else {
            2.0 * (a - b).abs() / (a + b)
        }
    };
    let tput_drift = rel(e2 as f64, e3 as f64);
    // An empty window has no mean latency; treat it as maximal drift so
    // a half-dead warmup (traffic only just starting) never passes.
    let lat_drift = if e2 == 0 || e3 == 0 {
        2.0
    } else {
        rel(
            lat_sums[2] as f64 / e2 as f64,
            lat_sums[3] as f64 / e3 as f64,
        )
    };
    let converged = tput_drift <= WARMUP_DRIFT_LIMIT && lat_drift <= WARMUP_DRIFT_LIMIT;
    (converged, Some(tput_drift), Some(lat_drift))
}

/// Diagnosis of a zero-progress window, attached to
/// [`crate::SimError::Stalled`].
///
/// All fields are integers derived from engine state at a
/// barrier-aligned cycle, so two runs of the same configuration — at
/// any shard counts — produce byte-identical reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallReport {
    /// Cycle at which the watchdog fired (the end of the window).
    pub cycle: u64,
    /// Length of the observed zero-progress window in cycles
    /// (the configured [`crate::SimConfig::watchdog_every`]).
    pub window: u64,
    /// Packets generated but not yet ejected when the watchdog fired.
    pub in_flight: u64,
    /// Router with the most credit-blocked output ports (lowest index
    /// on a tie).
    pub hottest_router: usize,
    /// Number of blocked output ports on that router: ports with flits
    /// queued and zero credits on every VC.
    pub blocked_ports: usize,
    /// Router owning the most backed-up credit-starved channel.
    pub starved_router: usize,
    /// Port index of that channel on its router.
    pub starved_port: usize,
    /// Flits queued behind the starved channel across its VCs.
    pub starved_depth: u64,
    /// Age in cycles of the oldest packet still in flight.
    pub oldest_age: u64,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no progress for {} cycles ending at cycle {}: {} packets in flight; \
             hottest router {} has {} credit-blocked output ports; \
             most starved channel is router {} port {} ({} flits queued, zero credits); \
             oldest in-flight packet is {} cycles old",
            self.window,
            self.cycle,
            self.in_flight,
            self.hottest_router,
            self.blocked_ports,
            self.starved_router,
            self.starved_port,
            self.starved_depth,
            self.oldest_age,
        )
    }
}

/// One node of the engine/phase/shard span tree: a named interval on a
/// synthetic timeline, with child spans nested inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span label ("engine", a phase name, or `shard N`).
    pub name: String,
    /// Start of the interval in microseconds on the synthetic timeline.
    pub start_us: u64,
    /// Duration of the interval in microseconds.
    pub dur_us: u64,
    /// Track the span renders on (chrome trace `tid`): 0 for the
    /// engine and phase rows, `shard + 1` for per-shard rows.
    pub track: u64,
    /// Spans nested inside this one.
    pub children: Vec<Span>,
}

/// A hierarchical view of where a run's wall-clock time went:
/// one engine-wide span, a child span per engine phase (placed
/// sequentially, each sized to the slowest shard), and under each phase
/// a span per shard showing that shard's own time in the phase.
///
/// The timeline is synthetic — phases did not literally run
/// back-to-back once each; the tree aggregates per-phase totals over
/// all cycles — but the proportions are real and the rendering makes
/// barrier imbalance between shards directly visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// The engine-wide root span.
    pub root: Span,
}

impl SpanTree {
    /// Builds the engine → phase → shard tree from a run's
    /// [`SimPerf`]. Phase widths use the slowest shard's time (the
    /// barrier-visible cost); per-shard children show each shard's own
    /// time inside the phase window.
    pub fn from_perf(perf: &SimPerf) -> Self {
        let mut phases = Vec::with_capacity(SimPerf::PHASE_NAMES.len());
        let mut cursor = 0u64;
        for (i, name) in SimPerf::PHASE_NAMES.iter().enumerate() {
            let width = perf.phases[i].as_micros() as u64;
            let mut shards = Vec::with_capacity(perf.shard_phases.len());
            for (s, sp) in perf.shard_phases.iter().enumerate() {
                shards.push(Span {
                    name: format!("shard {s}"),
                    start_us: cursor,
                    dur_us: sp[i].as_micros() as u64,
                    track: s as u64 + 1,
                    children: Vec::new(),
                });
            }
            phases.push(Span {
                name: (*name).to_string(),
                start_us: cursor,
                dur_us: width,
                track: 0,
                children: shards,
            });
            cursor += width;
        }
        SpanTree {
            root: Span {
                name: "engine".to_string(),
                start_us: 0,
                dur_us: cursor,
                track: 0,
                children: phases,
            },
        }
    }

    /// Renders the tree as chrome://tracing JSON (complete "X" events,
    /// microsecond timestamps), the same document shape as the flit
    /// tracer. Track 0 holds the engine and phase rows; track `s + 1`
    /// holds shard `s`.
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("displayTimeUnit").str("ms");
        w.key("traceEvents").begin_array();
        let mut stack = vec![&self.root];
        while let Some(span) = stack.pop() {
            begin_chrome_event(&mut w, &span.name, span.start_us, span.dur_us, span.track)
                .end_object();
            // Children pushed in reverse so they emit in declaration
            // order — the output is deterministic either way, but this
            // keeps the document readable.
            for child in span.children.iter().rev() {
                stack.push(child);
            }
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Total number of spans in the tree (root included).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut stack = vec![&self.root];
        while let Some(span) = stack.pop() {
            n += 1;
            stack.extend(span.children.iter());
        }
        n
    }

    /// Whether the tree is empty — never true, since the engine root
    /// always exists; provided to pair with [`SpanTree::len`].
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_report() -> StallReport {
        StallReport {
            cycle: 4096,
            window: 512,
            in_flight: 33,
            hottest_router: 2,
            blocked_ports: 3,
            starved_router: 2,
            starved_port: 1,
            starved_depth: 16,
            oldest_age: 900,
        }
    }

    #[test]
    fn report_display_names_the_channel() {
        let s = sample_report().to_string();
        assert!(s.contains("router 2 port 1"), "starved channel named: {s}");
        assert!(s.contains("512 cycles"), "window named: {s}");
        assert!(s.contains("33 packets in flight"), "population named: {s}");
    }

    fn sample_perf() -> SimPerf {
        let mk = |ms: [u64; 5]| ms.map(Duration::from_millis);
        SimPerf {
            cycles: 1000,
            wall: Duration::from_millis(40),
            phases: mk([5, 10, 8, 4, 3]),
            flit_hops: 123,
            shards: 2,
            shard_phases: vec![mk([5, 9, 8, 4, 3]), mk([4, 10, 7, 2, 3])],
        }
    }

    #[test]
    fn span_tree_shape_and_timeline() {
        let tree = SpanTree::from_perf(&sample_perf());
        assert_eq!(tree.root.name, "engine");
        assert_eq!(tree.root.children.len(), 5);
        // 1 engine + 5 phases + 5 * 2 shards.
        assert_eq!(tree.len(), 16);
        assert!(!tree.is_empty());
        // Phases tile the engine span back to back.
        let mut cursor = 0;
        for phase in &tree.root.children {
            assert_eq!(phase.start_us, cursor);
            cursor += phase.dur_us;
            for (s, shard) in phase.children.iter().enumerate() {
                assert_eq!(shard.start_us, phase.start_us);
                assert!(shard.dur_us <= phase.dur_us, "shard within phase");
                assert_eq!(shard.track, s as u64 + 1);
            }
        }
        assert_eq!(tree.root.dur_us, cursor);
        assert_eq!(
            tree.root.dur_us,
            Duration::from_millis(30).as_micros() as u64
        );
    }

    #[test]
    fn convergence_empty_windows_are_vacuously_converged() {
        assert_eq!(warmup_convergence(&[0; 4], &[0; 4]), (true, None, None));
        // Early windows may be empty (pipeline fill); only the last two count.
        let (ok, t, l) = warmup_convergence(&[0, 0, 100, 100], &[0, 0, 1000, 1000]);
        assert!(ok);
        assert_eq!(t, Some(0.0));
        assert_eq!(l, Some(0.0));
    }

    #[test]
    fn convergence_flags_drifting_warmup() {
        // Throughput still ramping: 40 -> 100 ejects across the half.
        let (ok, t, _) = warmup_convergence(&[0, 10, 40, 100], &[0, 50, 200, 500]);
        assert!(!ok);
        assert!(t.unwrap() > WARMUP_DRIFT_LIMIT);
        // Latency still climbing steeply at stable throughput.
        let (ok, t, l) = warmup_convergence(&[50, 50, 50, 50], &[100, 200, 500, 2000]);
        assert!(!ok);
        assert!(t.unwrap() <= WARMUP_DRIFT_LIMIT);
        assert!(l.unwrap() > WARMUP_DRIFT_LIMIT);
        // One-sided: traffic only arrived in the final window.
        let (ok, _, l) = warmup_convergence(&[0, 0, 0, 30], &[0, 0, 0, 90]);
        assert!(!ok);
        assert_eq!(l, Some(2.0));
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let json = SpanTree::from_perf(&sample_perf()).to_chrome_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 16);
        assert!(json.contains("\"name\":\"engine\""));
        assert!(json.contains("\"name\":\"switch\""));
        assert!(json.contains("\"name\":\"shard 1\""));
        // Balanced braces — cheap structural sanity without a parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn span_names_are_escaped_and_scan_back_intact() {
        let mut tree = SpanTree::from_perf(&sample_perf());
        let name = "say \"hi\"\nthen \\ leave";
        tree.root.name = name.to_string();
        let json = tree.to_chrome_json();
        let at = json.find("\"name\":\"").expect("root event") + "\"name\":\"".len();
        let (back, rest) = crate::json::scan_json_string(&json[at..]).expect("name scans");
        assert_eq!(back, name);
        assert!(rest.starts_with(",\"ph\":\"X\""), "{rest}");
    }
}

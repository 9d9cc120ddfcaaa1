//! Dependency-free telemetry: metrics registry, log-bucketed latency
//! histograms, time-resolved channel traces, a sampling flit tracer,
//! and the estimator-accuracy scoreboard.
//!
//! Everything in this module is plain data, exported through the one
//! [`JsonWriter`] so the artifacts are reproducible byte-for-byte: two
//! runs that produce equal values produce equal JSON, which is what the
//! serial-vs-parallel determinism tests assert. No wall-clock reads,
//! no hashing with ambient state — the flit tracer's packet selection
//! is a pure function of `(trace_seed, packet id)`.
//!
//! Cost model: every collector here is either always-on and O(1) per
//! *rare* event (one histogram insert per ejected packet, one
//! scoreboard update per injected packet) or gated behind a single
//! predictable branch in the per-flit hot path (channel sampling, flit
//! tracing). What tracing costs in host time is the benchmark's
//! `bench.trace_overhead`.

use std::collections::BTreeMap;

use crate::json::JsonWriter;
use crate::spec::ChannelClass;

/// SplitMix64 finalizer; the tracer's packet-selection hash.
///
/// Identical on every platform and independent of the simulation RNG
/// streams, so turning tracing on cannot perturb a run.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A histogram over `u64` values with logarithmic (power-of-two)
/// buckets.
///
/// Bucket 0 holds the value 0; bucket `b >= 1` holds values in
/// `[2^(b-1), 2^b)`. Unlike the fixed-width [`crate::Histogram`] it
/// covers the full `u64` range with at most 65 buckets, so there is no
/// overflow bucket and percentile queries never fail on heavy tails.
/// Min, max, count and sum are tracked exactly; percentiles are
/// resolved to the containing bucket's upper edge (clamped to the
/// exact max), giving a relative error of at most 2x — adequate for
/// p50/p95/p99 tail reporting at a fraction of the memory of exact
/// reservoirs, and mergeable across parallel workers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket counts, trimmed to the highest non-empty bucket.
    pub buckets: Vec<u64>,
}

/// Index of the log bucket holding `value`.
#[inline]
fn log_bucket(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper edge of log bucket `b`.
#[inline]
fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        (1u64 << (b - 1)).saturating_mul(2).wrapping_sub(1)
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let b = log_bucket(value);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
    }

    /// Mean of the recorded values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// The value at quantile `p` in `[0, 1]`, resolved to the upper
    /// edge of its log bucket and clamped to the exact min/max.
    /// `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper(b).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// JSON object: exact summary stats plus the non-empty buckets as
    /// `[upper_edge, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().key("count").u64(self.count);
        w.key("sum").u64(self.sum).key("min").u64(self.min);
        w.key("max").u64(self.max).key("buckets").begin_array();
        for (b, &n) in self.buckets.iter().enumerate().filter(|b| *b.1 > 0) {
            w.u64s([bucket_upper(b), n]);
        }
        w.end_array().end_object();
    }
}

/// A mergeable bag of named counters, gauges, and log histograms.
///
/// Each parallel worker owns a private registry; the harness merges
/// them in deterministic (plan) order, so the merged registry — and
/// its JSON — is identical to the serial run's. Names are kept in
/// `BTreeMap`s so iteration (and therefore JSON emission) is sorted
/// and reproducible.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-written point-in-time values.
    pub gauges: BTreeMap<String, f64>,
    /// Log-bucketed value distributions.
    pub histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the counter `name`, creating it at zero.
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The histogram `name`, created empty on first use.
    pub fn histogram_mut(&mut self, name: &str) -> &mut LogHistogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Folds another registry into this one. Counters and histograms
    /// add; gauges take the other registry's value (last write wins,
    /// matching what a serial run would have observed).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// JSON object with `counters`, `gauges`, and `histograms`
    /// sections, all sorted by name.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("counters").begin_object();
        for (k, v) in &self.counters {
            w.key(k).u64(*v);
        }
        w.end_object().key("gauges").begin_object();
        for (k, v) in &self.gauges {
            w.key(k).f64(*v);
        }
        w.end_object().key("histograms").begin_object();
        for (k, v) in &self.histograms {
            v.write_json(w.key(k));
        }
        w.end_object().end_object();
        w.finish()
    }
}

/// Time series of one network channel's queue state.
///
/// Column `i` of every vector corresponds to `TimeSeries::ticks[i]`;
/// `vc_occupancy` is flattened `[tick][vc]` (row-major, `vcs` entries
/// per tick).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSeries {
    /// Router the sampled output port belongs to.
    pub router: u32,
    /// Port index on that router.
    pub port: u16,
    /// Channel class (local or global) of the port.
    pub class: ChannelClass,
    /// Total output-queue occupancy (flits) at each sample tick.
    pub occupancy: Vec<u16>,
    /// Per-VC output-queue occupancy, flattened `[tick][vc]`.
    pub vc_occupancy: Vec<u16>,
    /// Credits available across all VCs at each sample tick.
    pub credits: Vec<u16>,
    /// Flits transmitted on the channel during each sample interval.
    pub sent: Vec<u32>,
}

/// Per-channel, per-VC queue state sampled at a fixed cadence across
/// warmup, the measurement window, and drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    /// Sampling cadence in cycles.
    pub every: u64,
    /// Number of virtual channels per port (stride of `vc_occupancy`).
    pub vcs: u8,
    /// Cycle number of each sample.
    pub ticks: Vec<u64>,
    /// One series per router-to-router channel, in `(router, port)`
    /// order.
    pub channels: Vec<ChannelSeries>,
}

impl TimeSeries {
    /// JSON object with the cadence, tick vector, and per-channel
    /// columns.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("every").u64(self.every);
        w.key("vcs").u64(self.vcs);
        w.key("ticks").u64s(self.ticks.iter().copied());
        w.key("channels").begin_array();
        for ch in &self.channels {
            w.begin_object().key("router").u64(ch.router);
            w.key("port").u64(ch.port);
            w.key("class").str(&format!("{:?}", ch.class));
            w.key("occupancy").u64s(ch.occupancy.iter().copied());
            w.key("vc_occupancy").u64s(ch.vc_occupancy.iter().copied());
            w.key("credits").u64s(ch.credits.iter().copied());
            w.key("sent").u64s(ch.sent.iter().copied());
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// Opens one chrome-trace complete ("X") event on process 0: `name` on
/// track `tid`, from `ts` for `dur`. The caller may add keys (`args`)
/// before closing the object.
pub(crate) fn begin_chrome_event<'w>(
    w: &'w mut JsonWriter,
    name: &str,
    ts: u64,
    dur: u64,
    tid: u64,
) -> &'w mut JsonWriter {
    w.begin_object().key("name").str(name).key("ph").str("X");
    w.key("ts").u64(ts).key("dur").u64(dur);
    w.key("pid").u64(0u64).key("tid").u64(tid)
}

/// One event recorded by the flit tracer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event occurred on.
    pub cycle: u64,
    /// Packet id the event belongs to.
    pub packet: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The kind of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The packet's head flit entered the network, with the routing
    /// decision taken at injection.
    Inject {
        /// Source terminal.
        src: u32,
        /// Destination terminal.
        dest: u32,
        /// Whether the minimal path was chosen.
        minimal: bool,
        /// The active estimator's reading for the chosen path.
        q_chosen: u64,
        /// The oracle's ground-truth reading for the chosen path.
        oracle: u64,
    },
    /// The head flit crossed a router-to-router channel.
    Hop {
        /// Router the flit departed from.
        router: u32,
        /// Output port used.
        port: u16,
        /// Virtual channel used.
        vc: u8,
    },
    /// The tail flit left the network at the destination terminal.
    Eject {
        /// End-to-end packet latency in cycles.
        latency: u64,
    },
}

/// The completed event log of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlitTrace {
    /// Fraction of packets sampled.
    pub rate: f64,
    /// Selection seed (independent of the run seed).
    pub seed: u64,
    /// Events in simulation order.
    pub events: Vec<TraceEvent>,
}

impl FlitTrace {
    /// Chrome-trace-format JSON (`chrome://tracing`, Perfetto): one
    /// complete "X" event per record, `ts` in cycles, one track per
    /// packet.
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("displayTimeUnit").str("ns");
        w.key("traceEvents").begin_array();
        for ev in &self.events {
            let name = match ev.kind {
                TraceEventKind::Inject { .. } => "inject",
                TraceEventKind::Hop { .. } => "hop",
                TraceEventKind::Eject { .. } => "eject",
            };
            begin_chrome_event(&mut w, name, ev.cycle, 1, ev.packet);
            w.key("args").begin_object();
            match ev.kind {
                TraceEventKind::Inject {
                    src,
                    dest,
                    minimal,
                    q_chosen,
                    oracle,
                } => {
                    w.key("src").u64(src).key("dest").u64(dest);
                    w.key("minimal").bool(minimal);
                    w.key("q_chosen").u64(q_chosen).key("oracle").u64(oracle);
                }
                TraceEventKind::Hop { router, port, vc } => {
                    w.key("router").u64(router).key("port").u64(port);
                    w.key("vc").u64(vc);
                }
                TraceEventKind::Eject { latency } => {
                    w.key("latency").u64(latency);
                }
            }
            w.end_object().end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// Seeded sampling flit tracer.
///
/// A packet is traced iff `splitmix64(seed ^ packet) <= threshold`,
/// where the threshold encodes the sampling rate — a pure function of
/// the packet id, so serial and parallel runs (and re-runs) select
/// identical packets.
#[derive(Debug, Clone)]
pub struct FlitTracer {
    rate: f64,
    seed: u64,
    threshold: u64,
    events: Vec<TraceEvent>,
}

impl FlitTracer {
    /// A tracer sampling `rate` of packets (clamped to `[0, 1]`) under
    /// the given selection seed.
    pub fn new(rate: f64, seed: u64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        };
        Self {
            rate,
            seed,
            threshold,
            events: Vec::new(),
        }
    }

    /// Whether the given packet is in the traced sample.
    #[inline]
    pub fn selected(&self, packet: u64) -> bool {
        splitmix64(self.seed ^ packet) <= self.threshold
    }

    /// Appends an event (caller has already checked [`selected`]).
    ///
    /// [`selected`]: FlitTracer::selected
    #[inline]
    pub fn push(&mut self, cycle: u64, packet: u64, kind: TraceEventKind) {
        self.events.push(TraceEvent {
            cycle,
            packet,
            kind,
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finishes the trace, yielding the immutable event log.
    pub fn finish(self) -> FlitTrace {
        FlitTrace {
            rate: self.rate,
            seed: self.seed,
            events: self.events,
        }
    }
}

/// Accuracy scoreboard for the active congestion estimator.
///
/// At every adaptive injection decision the simulator records the
/// estimator reading for the *chosen* path next to the oracle's
/// ground-truth occupancy of the same path (read directly from the
/// global network state, exactly like `GlobalOracle`). The resulting
/// error distribution quantifies the paper's UGAL-L vs UGAL-G gap:
/// a perfect estimator has zero error and zero disagreement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EstimatorScoreboard {
    /// Adaptive decisions observed (committed injections).
    pub decisions: u64,
    /// Decisions where an oracle reading was available (fault-masked
    /// shortcuts are not scored).
    pub scored: u64,
    /// Scored decisions where routing under the oracle's readings
    /// would have picked the other path.
    pub oracle_disagreements: u64,
    /// Sum of the estimator readings for chosen paths.
    pub sum_estimate: u64,
    /// Sum of the oracle readings for chosen paths.
    pub sum_oracle: u64,
    /// Distribution of `|estimate - oracle|` per scored decision.
    pub abs_error: LogHistogram,
}

impl EstimatorScoreboard {
    /// An empty scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one adaptive decision.
    #[inline]
    pub fn record(&mut self, estimate: u64, oracle: u64, disagreed: bool, scored: bool) {
        self.decisions += 1;
        if !scored {
            return;
        }
        self.scored += 1;
        self.sum_estimate = self.sum_estimate.saturating_add(estimate);
        self.sum_oracle = self.sum_oracle.saturating_add(oracle);
        self.abs_error.record(estimate.abs_diff(oracle));
        if disagreed {
            self.oracle_disagreements += 1;
        }
    }

    /// Folds another scoreboard into this one.
    pub fn merge(&mut self, other: &EstimatorScoreboard) {
        self.decisions += other.decisions;
        self.scored += other.scored;
        self.oracle_disagreements += other.oracle_disagreements;
        self.sum_estimate = self.sum_estimate.saturating_add(other.sum_estimate);
        self.sum_oracle = self.sum_oracle.saturating_add(other.sum_oracle);
        self.abs_error.merge(&other.abs_error);
    }

    /// Mean estimator reading over scored decisions.
    pub fn mean_estimate(&self) -> Option<f64> {
        (self.scored > 0).then(|| self.sum_estimate as f64 / self.scored as f64)
    }

    /// Mean oracle reading over scored decisions.
    pub fn mean_oracle(&self) -> Option<f64> {
        (self.scored > 0).then(|| self.sum_oracle as f64 / self.scored as f64)
    }

    /// Mean absolute error over scored decisions.
    pub fn mean_abs_error(&self) -> Option<f64> {
        self.abs_error.mean()
    }

    /// Fraction of scored decisions where the oracle would have routed
    /// differently.
    pub fn disagreement_rate(&self) -> Option<f64> {
        (self.scored > 0).then(|| self.oracle_disagreements as f64 / self.scored as f64)
    }

    /// JSON object with counts, means, and the error distribution.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("decisions").u64(self.decisions);
        w.key("scored").u64(self.scored);
        w.key("oracle_disagreements").u64(self.oracle_disagreements);
        w.key("mean_estimate").f64(self.mean_estimate());
        w.key("mean_oracle").f64(self.mean_oracle());
        w.key("mean_abs_error").f64(self.mean_abs_error());
        w.key("disagreement_rate").f64(self.disagreement_rate());
        self.abs_error.write_json(w.key("abs_error"));
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_buckets_cover_powers_of_two() {
        assert_eq!(log_bucket(0), 0);
        assert_eq!(log_bucket(1), 1);
        assert_eq!(log_bucket(2), 2);
        assert_eq!(log_bucket(3), 2);
        assert_eq!(log_bucket(4), 3);
        assert_eq!(log_bucket(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(3), 7);
    }

    #[test]
    fn histogram_percentile_edge_cases_never_fabricate() {
        // Empty: nothing to rank, every percentile is None — not a
        // garbage bucket edge.
        let empty = LogHistogram::new();
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.percentile(p), None, "empty p{p}");
        }
        assert_eq!(empty.mean(), None);
        // One sample: every percentile is that exact value — the
        // min/max clamp must override the bucket's upper edge.
        let mut one = LogHistogram::new();
        one.record(300); // bucket upper edge is 511, not 300
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(p), Some(300), "one-sample p{p}");
        }
        assert_eq!(one.mean(), Some(300.0));
        // Still exact after a merge with an empty histogram.
        let mut merged = LogHistogram::new();
        merged.merge(&one);
        assert_eq!(merged.percentile(0.5), Some(300));
    }

    #[test]
    fn histogram_percentiles_bracket_exact_values() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert_eq!(h.mean(), Some(500.5));
        let p50 = h.percentile(0.5).unwrap();
        // 500 lives in bucket [256, 511]; upper edge 511.
        assert_eq!(p50, 511);
        let p99 = h.percentile(0.99).unwrap();
        // 990 lives in bucket [512, 1023]; clamped to the exact max.
        assert_eq!(p99, 1000);
        assert_eq!(h.percentile(1.0), Some(1000));
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    fn histogram_merge_matches_single_pass() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.record(v * 7);
            } else {
                b.record(v * 7);
            }
            whole.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.to_json(), whole.to_json());
    }

    #[test]
    fn registry_merge_is_order_insensitive_for_counters() {
        let mut a = MetricsRegistry::new();
        a.inc("runs", 1);
        a.histogram_mut("latency").record(10);
        let mut b = MetricsRegistry::new();
        b.inc("runs", 2);
        b.inc("packets", 5);
        b.histogram_mut("latency").record(20);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.histograms, ba.histograms);
        assert_eq!(ab.counters["runs"], 3);
        assert_eq!(ab.counters["packets"], 5);
        assert_eq!(ab.histograms["latency"].count, 2);
    }

    #[test]
    fn registry_json_is_sorted_and_stable() {
        let mut r = MetricsRegistry::new();
        r.inc("zeta", 1);
        r.inc("alpha", 2);
        r.set_gauge("speedup", 2.5);
        let json = r.to_json();
        let alpha = json.find("\"alpha\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "counters must be emitted in sorted order");
        assert!(json.contains("\"speedup\":2.5"));
        assert_eq!(json, r.clone().to_json());
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(5);
        r.histograms.insert("lat".into(), h);
        assert_eq!(
            r.to_json(),
            "{\"counters\":{\"alpha\":2,\"zeta\":1},\"gauges\":{\"speedup\":2.5},\
             \"histograms\":{\"lat\":{\"count\":2,\"sum\":5,\"min\":0,\"max\":5,\
             \"buckets\":[[0,1],[7,1]]}}}"
        );
    }

    #[test]
    fn tracer_selection_is_a_pure_function_of_seed_and_packet() {
        let t1 = FlitTracer::new(0.25, 7);
        let t2 = FlitTracer::new(0.25, 7);
        let picked: Vec<u64> = (0..4096).filter(|&p| t1.selected(p)).collect();
        let again: Vec<u64> = (0..4096).filter(|&p| t2.selected(p)).collect();
        assert_eq!(picked, again);
        // Rate is roughly honoured.
        let frac = picked.len() as f64 / 4096.0;
        assert!((0.15..0.35).contains(&frac), "sample fraction {frac}");
        // Rate 1.0 selects everything, including the worst-case hash.
        let all = FlitTracer::new(1.0, 7);
        assert!((0..4096).all(|p| all.selected(p)));
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let mut t = FlitTracer::new(1.0, 0);
        t.push(
            5,
            42,
            TraceEventKind::Inject {
                src: 1,
                dest: 2,
                minimal: true,
                q_chosen: 3,
                oracle: 4,
            },
        );
        t.push(
            6,
            42,
            TraceEventKind::Hop {
                router: 9,
                port: 3,
                vc: 1,
            },
        );
        t.push(12, 42, TraceEventKind::Eject { latency: 7 });
        let json = t.finish().to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"inject\""));
        assert!(json.contains("\"tid\":42"));
        assert!(json.contains("\"args\":{\"latency\":7}"));
        assert!(json.contains("\"args\":{\"router\":9,\"port\":3,\"vc\":1}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn scoreboard_tracks_errors_and_disagreements() {
        let mut s = EstimatorScoreboard::new();
        s.record(10, 12, false, true);
        s.record(3, 9, true, true);
        s.record(0, 0, false, false); // fault-masked: counted, not scored
        assert_eq!(s.decisions, 3);
        assert_eq!(s.scored, 2);
        assert_eq!(s.oracle_disagreements, 1);
        assert_eq!(s.mean_abs_error(), Some(4.0));
        assert_eq!(s.disagreement_rate(), Some(0.5));

        let mut t = EstimatorScoreboard::new();
        t.record(5, 5, false, true);
        s.merge(&t);
        assert_eq!(s.decisions, 4);
        assert_eq!(s.scored, 3);
        assert_eq!(s.abs_error.count, 3);
    }
}

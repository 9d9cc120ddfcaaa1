//! Run statistics: latency, throughput, histograms, channel loads.

use crate::spec::ChannelClass;
use crate::telemetry::{EstimatorScoreboard, FlitTrace, LogHistogram, TimeSeries};

/// Streaming summary statistics for one latency population.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Sum of squared samples (for the variance).
    pub sum_sq: u128,
    /// Largest sample, 0 if none.
    pub max: u64,
    /// Smallest sample, 0 if none.
    pub min: u64,
}

impl LatencySummary {
    /// Records one latency sample.
    pub fn record(&mut self, sample: u64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
        self.sum_sq += (sample as u128) * (sample as u128);
    }

    /// Mean latency, or `None` with no samples.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Population standard deviation, or `None` with no samples.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self.sum_sq as f64 / self.count as f64 - mean * mean;
        Some(var.max(0.0).sqrt())
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &LatencySummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }
}

/// A fixed-width latency histogram with an overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    width: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of `width` cycles each.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `buckets == 0`.
    pub fn new(buckets: usize, width: u64) -> Self {
        assert!(width > 0, "bucket width must be >= 1");
        assert!(buckets > 0, "bucket count must be >= 1");
        Histogram {
            buckets: vec![0; buckets],
            width,
            overflow: 0,
        }
    }

    /// Reassembles a histogram from previously exported parts (see
    /// [`Histogram::buckets`], [`Histogram::bucket_width`] and
    /// [`Histogram::overflow`]) — the decode half of a persisted run.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `buckets` is empty, like
    /// [`Histogram::new`].
    pub fn from_parts(buckets: Vec<u64>, width: u64, overflow: u64) -> Self {
        assert!(width > 0, "bucket width must be >= 1");
        assert!(!buckets.is_empty(), "bucket count must be >= 1");
        Histogram {
            buckets,
            width,
            overflow,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, sample: u64) {
        let idx = (sample / self.width) as usize;
        match self.buckets.get_mut(idx) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Bucket counts; bucket `i` covers `[i*width, (i+1)*width)`.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Width of each bucket in cycles.
    pub fn bucket_width(&self) -> u64 {
        self.width
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Fraction of samples in each bucket (empty if no samples).
    pub fn normalized(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return Vec::new();
        }
        self.buckets
            .iter()
            .map(|&b| b as f64 / total as f64)
            .collect()
    }

    /// Adds another histogram's counts into this one. Both histograms
    /// must have the same shape (bucket count and width); the sharded
    /// engine merges per-shard histograms built from one config, so a
    /// shape mismatch is a logic error.
    ///
    /// # Panics
    ///
    /// Panics if the bucket counts or widths differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "histogram width mismatch");
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket count mismatch"
        );
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
        self.overflow += other.overflow;
    }

    /// The `p`-quantile (0.0–1.0) of the recorded samples, resolved to
    /// the upper edge of the bucket containing it. Returns `None` with
    /// no samples, or if the quantile falls in the overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0, 1]");
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = ((total as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some((i as u64 + 1) * self.width - 1);
            }
        }
        None // falls in the overflow bucket
    }
}

/// Measured load on one directed channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelLoad {
    /// Router owning the sending port.
    pub router: usize,
    /// Port index on that router.
    pub port: usize,
    /// Channel class.
    pub class: ChannelClass,
    /// Flits sent during the measurement window.
    pub flits: u64,
    /// Utilisation: flits per cycle of the measurement window.
    pub utilization: f64,
}

/// Per-decision routing telemetry over the measurement window: how the
/// injection-time minimal/non-minimal choice went, and how often the
/// configured congestion estimator disagreed with the plain
/// queue-occupancy baseline on the same candidates. Only labelled
/// packets (those created inside the window) are counted, and every
/// count is deterministic for a fixed seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteTelemetry {
    /// Labelled packets injected on their minimal path.
    pub minimal_takes: u64,
    /// Labelled packets injected non-minimally.
    pub non_minimal_takes: u64,
    /// Injections where an adaptive minimal/non-minimal comparison ran
    /// (both candidates existed and queue state was consulted).
    pub adaptive_decisions: u64,
    /// Adaptive decisions where the configured estimator chose
    /// differently from the queue-occupancy baseline.
    pub estimator_disagreements: u64,
    /// Injections where a fault forced the route class: the usual
    /// choice (or one of the two candidates) was unusable because of a
    /// failed link, so the surviving alternative was taken without a
    /// queue comparison.
    pub fault_avoided_decisions: u64,
    /// Candidate paths discarded at injection time because a fault made
    /// them unusable (dead first hop, or a dead link further along).
    pub dropped_candidates: u64,
    /// Candidates evaluated without a probe point under a probe-needing
    /// (oracle) estimator — each one a silent UGAL-G → UGAL-L
    /// degradation that previous versions did not report.
    pub oracle_probe_fallbacks: u64,
}

impl RouteTelemetry {
    /// Fraction of labelled packets injected minimally, or `None` if no
    /// packet was injected in the window.
    pub fn minimal_take_rate(&self) -> Option<f64> {
        let total = self.minimal_takes + self.non_minimal_takes;
        (total > 0).then(|| self.minimal_takes as f64 / total as f64)
    }

    /// Fraction of adaptive decisions on which the estimator disagreed
    /// with the queue-occupancy baseline, or `None` if no adaptive
    /// decision ran.
    pub fn disagreement_rate(&self) -> Option<f64> {
        (self.adaptive_decisions > 0)
            .then(|| self.estimator_disagreements as f64 / self.adaptive_decisions as f64)
    }
}

/// Everything measured by one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Cycles simulated in total (including warm-up and drain).
    pub cycles: u64,
    /// Configured average offered load (packets/terminal/cycle).
    pub offered_load: f64,
    /// Measured injection rate during the window (flits/terminal/cycle);
    /// under saturation this falls below the offered load because source
    /// queues back up.
    pub injected_rate: f64,
    /// Accepted throughput: flits ejected per terminal per cycle during
    /// the measurement window.
    pub accepted_rate: f64,
    /// Whether every labelled packet drained before the cap; `false`
    /// means the network is saturated at this load and latencies are
    /// lower bounds.
    pub drained: bool,
    /// Latency of all labelled packets (creation to ejection of the tail
    /// flit, including source queueing).
    pub latency: LatencySummary,
    /// Latency of minimally routed labelled packets.
    pub minimal_latency: LatencySummary,
    /// Latency of non-minimally routed labelled packets.
    pub non_minimal_latency: LatencySummary,
    /// Network (router-to-router) hops of labelled packets.
    pub hops: LatencySummary,
    /// Histogram over all labelled packet latencies.
    pub histogram: Histogram,
    /// Histogram over minimally routed labelled packet latencies.
    pub minimal_histogram: Histogram,
    /// Per-channel loads over the measurement window (network channels
    /// only, in `(router, port)` order).
    pub channel_loads: Vec<ChannelLoad>,
    /// Injection-decision telemetry over the measurement window.
    pub routing: RouteTelemetry,
    /// Log-bucketed latency distribution of all labelled packets —
    /// unlike [`RunStats::histogram`] it has no overflow bucket, so
    /// p50/p95/p99/max queries always resolve. Always collected.
    pub latency_log: LogHistogram,
    /// Estimator-accuracy scoreboard: the active estimator's reading
    /// vs the oracle's ground truth at each labelled adaptive
    /// decision. Always collected; empty under non-adaptive routing.
    pub scoreboard: EstimatorScoreboard,
    /// Per-channel queue/credit/utilization time series, present when
    /// [`crate::TelemetryConfig::sample_every`] was non-zero.
    pub series: Option<TimeSeries>,
    /// Sampled flit trace, present when
    /// [`crate::TelemetryConfig::trace_rate`] was non-zero.
    pub trace: Option<FlitTrace>,
    /// Cycle at which all closed-loop work finished, for
    /// [`crate::Termination::WorkComplete`] runs that completed within
    /// the cap. `None` on fixed-window runs and on runs that hit the
    /// cap with work outstanding.
    pub completion: Option<u64>,
    /// Whether the warmup interval settled before measurement began:
    /// throughput and mean latency drift between the last two warmup
    /// quarter-windows stayed within
    /// [`crate::WARMUP_DRIFT_LIMIT`]. Vacuously `true` when warmup was
    /// too short to compare (see [`crate::warmup_convergence`]).
    pub converged: bool,
    /// Symmetric relative throughput difference between the last two
    /// warmup quarter-windows; `None` when there was nothing to
    /// compare.
    pub warmup_throughput_drift: Option<f64>,
    /// Symmetric relative mean-latency difference between the last two
    /// warmup quarter-windows; `None` when there was nothing to
    /// compare.
    pub warmup_latency_drift: Option<f64>,
}

impl RunStats {
    /// Mean latency of all labelled packets — `None` unless the run
    /// drained. An undrained (saturated, or fault-starved) run has only
    /// measured the packets that escaped before the cap, so its mean is
    /// biased low; use [`RunStats::latency`] directly for that partial
    /// population.
    pub fn avg_latency(&self) -> Option<f64> {
        if !self.drained {
            return None;
        }
        self.latency.mean()
    }

    /// Fraction of labelled packets routed minimally — `None` unless
    /// the run drained. Same bias as [`RunStats::avg_latency`] on an
    /// undrained run: non-minimal packets take longer and are the ones
    /// still stuck at the cap, so the surviving population over-counts
    /// minimal ones. Use [`RunStats::routing`] (which counts at
    /// injection, not ejection) for the saturated picture.
    pub fn minimal_fraction(&self) -> Option<f64> {
        if !self.drained {
            return None;
        }
        let total = self.minimal_latency.count + self.non_minimal_latency.count;
        (total > 0).then(|| self.minimal_latency.count as f64 / total as f64)
    }

    /// Latency at quantile `p` — `None` unless the run drained, for the
    /// same reason as [`RunStats::avg_latency`]. Read from the linear
    /// [`RunStats::histogram`], exact with the engine's 1-cycle buckets;
    /// a quantile in its overflow bucket (4,096 cycles and up) falls back
    /// to [`RunStats::latency_log`], resolved to the containing
    /// power-of-two bucket's upper edge, clamped to the exact max.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        if !self.drained {
            return None;
        }
        self.histogram
            .percentile(p)
            .or_else(|| self.latency_log.percentile(p))
    }

    /// Median labelled-packet latency (drained runs only).
    pub fn p50_latency(&self) -> Option<u64> {
        self.latency_percentile(0.50)
    }

    /// 99th-percentile labelled-packet latency (drained runs only).
    pub fn p99_latency(&self) -> Option<u64> {
        self.latency_percentile(0.99)
    }

    /// Loads of the global channels only.
    pub fn global_channel_loads(&self) -> Vec<ChannelLoad> {
        self.channel_loads
            .iter()
            .filter(|c| c.class == ChannelClass::Global)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_rates() {
        let t = RouteTelemetry::default();
        assert_eq!(t.minimal_take_rate(), None);
        assert_eq!(t.disagreement_rate(), None);
        let t = RouteTelemetry {
            minimal_takes: 3,
            non_minimal_takes: 1,
            adaptive_decisions: 4,
            estimator_disagreements: 1,
            ..RouteTelemetry::default()
        };
        assert_eq!(t.minimal_take_rate(), Some(0.75));
        assert_eq!(t.disagreement_rate(), Some(0.25));
        assert_eq!(t.fault_avoided_decisions, 0);
        assert_eq!(t.dropped_candidates, 0);
        assert_eq!(t.oracle_probe_fallbacks, 0);
    }

    #[test]
    fn summary_mean_and_bounds() {
        let mut s = LatencySummary::default();
        assert_eq!(s.mean(), None);
        for v in [4, 8, 12] {
            s.record(v);
        }
        assert_eq!(s.mean(), Some(8.0));
        assert_eq!(s.min, 4);
        assert_eq!(s.max, 12);
        let sd = s.std_dev().unwrap();
        assert!((sd - (32.0f64 / 3.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge() {
        let mut a = LatencySummary::default();
        a.record(2);
        let mut b = LatencySummary::default();
        b.record(10);
        b.record(6);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.mean(), Some(6.0));
        assert_eq!(a.min, 2);
        assert_eq!(a.max, 10);

        let mut empty = LatencySummary::default();
        empty.merge(&a);
        assert_eq!(empty, a);
        a.merge(&LatencySummary::default());
        assert_eq!(a.count, 3);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(4, 10);
        for v in [0, 9, 10, 39, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.buckets(), &[2, 1, 0, 1]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
        let norm = h.normalized();
        assert!((norm[0] - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_normalizes_to_empty() {
        let h = Histogram::new(4, 1);
        assert!(h.normalized().is_empty());
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn percentiles_land_in_right_buckets() {
        let mut h = Histogram::new(100, 1);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(0.5), Some(49));
        assert_eq!(h.percentile(0.95), Some(94));
        assert_eq!(h.percentile(1.0), Some(99));
        // A sample beyond the buckets pushes the tail quantile into the
        // overflow bucket.
        h.record(10_000);
        assert_eq!(h.percentile(1.0), None);
        // 101 samples now: the median target moves up one bucket.
        assert_eq!(h.percentile(0.5), Some(50));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_bad_quantile() {
        Histogram::new(4, 1).percentile(1.5);
    }

    #[test]
    fn histogram_merge_matches_single_pass() {
        let mut a = Histogram::new(4, 10);
        let mut b = Histogram::new(4, 10);
        let mut whole = Histogram::new(4, 10);
        for (i, v) in [0u64, 9, 10, 39, 40, 1000].into_iter().enumerate() {
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn histogram_merge_rejects_shape_mismatch() {
        Histogram::new(4, 10).merge(&Histogram::new(4, 20));
    }
}

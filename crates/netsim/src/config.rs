//! Simulation configuration.

use crate::error::SimError;

/// How packets are injected at each terminal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionKind {
    /// Memoryless Bernoulli injection at the given rate (packets per
    /// cycle per terminal) — the process used throughout the paper.
    Bernoulli {
        /// Injection rate in `[0, 1]`.
        rate: f64,
    },
    /// Bursty on/off injection with the given average rate and mean
    /// burst length in cycles.
    OnOff {
        /// Average injection rate in `[0, 0.5]`.
        rate: f64,
        /// Mean burst length in cycles (>= 1).
        burst_len: f64,
    },
    /// Two-state Markov on/off injection with an explicit duty cycle:
    /// the terminal alternates geometric on-bursts of mean length
    /// `burst_len` with geometric off-gaps sized so the on-state holds
    /// `duty` of the time. During a burst it injects at `rate / duty`,
    /// so the long-run average rate is `rate` — the same offered load
    /// as Bernoulli, concentrated into transients that stress the
    /// congestion estimators.
    MarkovOnOff {
        /// Long-run average injection rate; must satisfy `rate <= duty`
        /// so the in-burst rate stays at or below one flit per cycle.
        rate: f64,
        /// Mean burst length in cycles (>= 1).
        burst_len: f64,
        /// Fraction of time spent in the on state, in `(0, 1]`.
        duty: f64,
    },
}

impl InjectionKind {
    /// The long-run average injection rate.
    pub fn rate(&self) -> f64 {
        match *self {
            InjectionKind::Bernoulli { rate } => rate,
            InjectionKind::OnOff { rate, .. } => rate,
            InjectionKind::MarkovOnOff { rate, .. } => rate,
        }
    }
}

/// Telemetry collection knobs. The default disables every optional
/// collector, leaving only the always-on (O(1)-per-packet) latency
/// histogram and estimator scoreboard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Channel time-series sampling cadence in cycles across warmup,
    /// measurement, and drain; 0 disables sampling.
    pub sample_every: u64,
    /// Fraction of packets the flit tracer follows, in `[0, 1]`;
    /// 0 disables tracing.
    pub trace_rate: f64,
    /// Tracer packet-selection seed. Independent of the run seed so
    /// tracing the same run twice picks identical packets.
    pub trace_seed: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: 0,
            trace_rate: 0.0,
            trace_seed: 0,
        }
    }
}

impl TelemetryConfig {
    /// Whether any optional collector is enabled.
    pub fn any_enabled(&self) -> bool {
        self.sample_every > 0 || self.trace_rate > 0.0
    }
}

/// When a run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Termination {
    /// Classic fixed-window run: warm up, measure a cycle window,
    /// drain the labelled packets. Every pre-workload sweep uses this.
    #[default]
    FixedWindow,
    /// Fixed-work run: end when every closed-loop workload reports all
    /// of its tasks finished and all tracked packets have been
    /// delivered, reporting the completion cycle in
    /// [`crate::RunStats::completion`]. `warmup`/`measure` do not gate
    /// the run; `warmup + measure + drain_cap` still caps it, and a run
    /// that hits the cap is reported undrained with no completion.
    WorkComplete,
}

/// How the value of `td` (measured credit round-trip excess) is smoothed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TdEstimator {
    /// Use the latest sample directly, as the paper describes.
    LastSample,
    /// Exponentially weighted moving average with weight `1 / 2^shift`
    /// on new samples — an ablation of the estimator choice.
    Ewma {
        /// EWMA shift; `2` weights new samples by 1/4.
        shift: u8,
    },
}

/// Credit flow-control mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditMode {
    /// Conventional credits: returned as soon as a flit leaves the
    /// downstream input buffer.
    Conventional,
    /// The paper's credit round-trip mechanism (Figure 17): per-output
    /// credit timestamp queues measure `tcrt`; returned credits are
    /// delayed by `td(O) − min_o td(o)` (never across global channels),
    /// stiffening backpressure so upstream routers sense remote global
    /// congestion quickly.
    RoundTrip {
        /// Track one of every `sample` credits (1 = every credit). The
        /// paper notes a 1-of-4 sampling CTQ suffices.
        sample: u32,
        /// Smoothing applied to `td` samples.
        estimator: TdEstimator,
    },
}

impl CreditMode {
    /// The round-trip mode with full tracking and last-sample estimation
    /// — the configuration evaluated in the paper's Figure 16.
    pub fn round_trip() -> Self {
        CreditMode::RoundTrip {
            sample: 1,
            estimator: TdEstimator::LastSample,
        }
    }
}

/// The one thread-budget rule, shared by automatic sharding
/// ([`SimConfig::shards`] `== 0`) and the sweep-level thread pools:
/// `DFLY_THREADS` when set to a positive integer, otherwise the
/// machine's available parallelism.
pub fn thread_budget() -> usize {
    std::env::var("DFLY_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Full configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Input buffer depth in flits per (port, VC). The paper uses 16 by
    /// default and studies 4–256.
    pub buffer_depth: usize,
    /// Flits per packet. The paper's evaluation uses single-flit packets
    /// to separate routing from flow-control effects.
    pub packet_len: usize,
    /// Injection process run at every terminal.
    pub injection: InjectionKind,
    /// Warm-up cycles before measurement starts.
    pub warmup: u64,
    /// Measurement window length in cycles; packets created during the
    /// window are labelled and tracked to ejection.
    pub measure: u64,
    /// Extra cycles allowed after the window for labelled packets to
    /// drain; if exceeded the run is reported as saturated.
    pub drain_cap: u64,
    /// RNG seed; every run with the same seed and configuration is
    /// bit-identical.
    pub seed: u64,
    /// Credit flow-control mode.
    pub credit_mode: CreditMode,
    /// Telemetry collection knobs (sampling cadence, flit tracer).
    pub telemetry: TelemetryConfig,
    /// Router shards the cycle engine splits this run across: 1 runs
    /// the whole network on the calling thread, `n > 1` partitions the
    /// routers into `n` contiguous shards driven by worker threads, and
    /// 0 picks a shard count automatically from the available hardware
    /// threads (respecting `DFLY_THREADS`). Results are bit-identical
    /// at every shard count; counts beyond the router count are clamped.
    pub shards: usize,
    /// Million-terminal scale mode: drops the per-network-channel load
    /// counters (the one remaining O(channels) statistics structure), so
    /// [`crate::RunStats::channel_loads`] comes back empty. Everything
    /// else — latencies, throughput, histograms — is unaffected, and
    /// results stay bit-identical to a run with it off.
    pub scale_mode: bool,
    /// When the run ends: after the classic fixed measurement window
    /// (default), or when all closed-loop work completes.
    pub termination: Termination,
    /// Stall-watchdog cadence in cycles; 0 disables the watchdog. When
    /// enabled, every `watchdog_every` cycles the engine checks that the
    /// network made progress (a flit moved or a packet ejected) since
    /// the previous checkpoint; a zero-progress window with packets
    /// still in flight ends the run with
    /// [`SimError::Stalled`](crate::SimError::Stalled) instead of
    /// spinning until the drain cap. The check runs in-band on cycle
    /// boundaries, so reports are bit-identical at any shard count.
    pub watchdog_every: u64,
}

impl SimConfig {
    /// A configuration matching the paper's defaults: 16-flit buffers,
    /// single-flit packets, Bernoulli injection at `rate`, conventional
    /// credits.
    pub fn paper_default(rate: f64) -> Self {
        SimConfig {
            buffer_depth: 16,
            packet_len: 1,
            injection: InjectionKind::Bernoulli { rate },
            warmup: 10_000,
            measure: 10_000,
            drain_cap: 100_000,
            seed: 1,
            credit_mode: CreditMode::Conventional,
            telemetry: TelemetryConfig::default(),
            shards: 1,
            scale_mode: false,
            termination: Termination::FixedWindow,
            watchdog_every: 0,
        }
    }

    /// Sets the buffer depth (builder style).
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = depth;
        self
    }

    /// Sets the credit mode (builder style).
    pub fn with_credit_mode(mut self, mode: CreditMode) -> Self {
        self.credit_mode = mode;
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the telemetry knobs (builder style).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the shard count (builder style); 0 = auto.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables or disables scale mode (builder style).
    pub fn with_scale_mode(mut self, on: bool) -> Self {
        self.scale_mode = on;
        self
    }

    /// Sets the termination mode (builder style).
    pub fn with_termination(mut self, termination: Termination) -> Self {
        self.termination = termination;
        self
    }

    /// Sets the stall-watchdog cadence (builder style); 0 disables it.
    pub fn with_watchdog(mut self, every: u64) -> Self {
        self.watchdog_every = every;
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] describing the first invalid
    /// field.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |msg: String| Err(SimError::InvalidConfig(msg));
        if self.buffer_depth == 0 {
            return invalid("buffer depth must be >= 1".into());
        }
        if self.packet_len == 0 {
            return invalid("packet length must be >= 1".into());
        }
        let rate = self.injection.rate();
        if !(0.0..=1.0).contains(&rate) {
            return invalid(format!("injection rate {rate} outside [0, 1]"));
        }
        if let InjectionKind::MarkovOnOff {
            rate,
            burst_len,
            duty,
        } = self.injection
        {
            if burst_len.is_nan() || burst_len < 1.0 {
                return invalid(format!("burst length {burst_len} must be >= 1"));
            }
            if !(duty > 0.0 && duty <= 1.0) {
                return invalid(format!("duty cycle {duty} outside (0, 1]"));
            }
            if rate > duty {
                return invalid(format!(
                    "rate {rate} exceeds duty {duty}: in-burst rate would exceed 1"
                ));
            }
            // Mirror `OnOff::with_rate_and_duty`'s feasibility check —
            // the identical floating-point expression — so the engine
            // can construct the process infallibly after validation:
            // the on-transition probability must not exceed 1.
            if duty < 1.0 && (1.0 / burst_len) * duty / (1.0 - duty) > 1.0 {
                return invalid(format!(
                    "duty {duty} unrealisable at burst length {burst_len}: \
                     needs a mean burst of at least {} cycles",
                    duty / (1.0 - duty)
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.telemetry.trace_rate) {
            return invalid(format!(
                "trace rate {} outside [0, 1]",
                self.telemetry.trace_rate
            ));
        }
        if self.measure == 0 {
            return invalid("measurement window must be >= 1 cycle".into());
        }
        if let CreditMode::RoundTrip { sample, .. } = self.credit_mode {
            if sample == 0 {
                return invalid("credit sample ratio must be >= 1".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        assert!(SimConfig::paper_default(0.5).validate().is_ok());
    }

    #[test]
    fn builders_apply() {
        let c = SimConfig::paper_default(0.1)
            .with_buffer_depth(256)
            .with_credit_mode(CreditMode::round_trip())
            .with_seed(9)
            .with_shards(4);
        assert_eq!(c.buffer_depth, 256);
        assert_eq!(c.seed, 9);
        assert_eq!(c.shards, 4);
        assert!(matches!(
            c.credit_mode,
            CreditMode::RoundTrip { sample: 1, .. }
        ));
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = SimConfig::paper_default(0.5);
        c.buffer_depth = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::paper_default(1.5);
        assert!(c.validate().is_err());
        c.injection = InjectionKind::Bernoulli { rate: 0.5 };
        c.measure = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::paper_default(0.5);
        c.credit_mode = CreditMode::RoundTrip {
            sample: 0,
            estimator: TdEstimator::LastSample,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn markov_on_off_validation() {
        let markov = |rate, burst_len, duty| {
            let mut c = SimConfig::paper_default(0.1);
            c.injection = InjectionKind::MarkovOnOff {
                rate,
                burst_len,
                duty,
            };
            c.validate()
        };
        assert!(markov(0.2, 8.0, 0.5).is_ok());
        assert!(markov(0.5, 1.0, 0.5).is_ok());
        assert!(markov(0.2, 0.5, 0.5).is_err(), "burst shorter than 1");
        assert!(markov(0.2, f64::NAN, 0.5).is_err(), "NaN burst length");
        assert!(markov(0.2, 8.0, 0.0).is_err(), "zero duty");
        assert!(markov(0.2, 8.0, 1.5).is_err(), "duty above 1");
        assert!(markov(0.6, 8.0, 0.5).is_err(), "rate above duty");
        assert!(markov(0.45, 2.0, 0.9).is_err(), "unrealisable duty");
        assert!(markov(0.45, 16.0, 0.9).is_ok(), "long bursts realise it");
        assert!(markov(0.3, 8.0, 1.0).is_ok(), "full duty is degenerate-ok");
    }

    #[test]
    fn termination_defaults_to_fixed_window() {
        let c = SimConfig::paper_default(0.1);
        assert_eq!(c.termination, Termination::FixedWindow);
        let c = c.with_termination(Termination::WorkComplete);
        assert_eq!(c.termination, Termination::WorkComplete);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn watchdog_defaults_off() {
        let c = SimConfig::paper_default(0.1);
        assert_eq!(c.watchdog_every, 0);
        let c = c.with_watchdog(512);
        assert_eq!(c.watchdog_every, 512);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn telemetry_validation() {
        let mut c = SimConfig::paper_default(0.1);
        assert!(!c.telemetry.any_enabled(), "telemetry defaults off");
        c.telemetry.trace_rate = 1.5;
        assert!(c.validate().is_err(), "trace rate above 1");
        c.telemetry.trace_rate = 0.5;
        assert!(c.validate().is_ok());
        assert!(c.telemetry.any_enabled());
        let c = SimConfig::paper_default(0.1).with_telemetry(TelemetryConfig {
            sample_every: 64,
            trace_rate: 0.0,
            trace_seed: 0,
        });
        assert!(c.telemetry.any_enabled());
        assert_eq!(c.telemetry.sample_every, 64);
    }

    #[test]
    fn injection_rate_accessor() {
        assert_eq!(InjectionKind::Bernoulli { rate: 0.25 }.rate(), 0.25);
        assert_eq!(
            InjectionKind::OnOff {
                rate: 0.2,
                burst_len: 8.0
            }
            .rate(),
            0.2
        );
        assert_eq!(
            InjectionKind::MarkovOnOff {
                rate: 0.2,
                burst_len: 8.0,
                duty: 0.5
            }
            .rate(),
            0.2
        );
    }
}

//! Packet injection processes.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

use crate::error::ConfigError;

/// Decides, cycle by cycle, whether a terminal injects a packet.
///
/// One process instance is held per terminal so that stateful processes
/// (e.g. [`OnOff`]) evolve independently per source.
pub trait InjectionProcess {
    /// The long-run average injection rate in packets/cycle/terminal.
    fn rate(&self) -> f64;

    /// Returns `true` if a packet is injected this cycle.
    fn inject(&mut self, rng: &mut SmallRng) -> bool;

    /// Runs up to `limit` consecutive trials and stops at the first
    /// success: `Some(k)` means trial `k` (0-based) injected, `None`
    /// that all `limit` trials failed. Draws and state changes are
    /// exactly those of the `k + 1` (or `limit`) [`Self::inject`] calls
    /// it stands for, which is what lets a source run its trials ahead
    /// of the simulated cycle without changing the run.
    fn first_success(&mut self, rng: &mut SmallRng, limit: u64) -> Option<u64> {
        (0..limit).find(|_| self.inject(rng))
    }
}

/// Memoryless injection: a packet is generated each cycle with fixed
/// probability `rate` — the process used throughout the paper's
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    rate: f64,
    /// `ceil(rate * 2^53)`: a trial succeeds iff the generator's 53-bit
    /// sample is below it.
    threshold: u64,
}

impl Bernoulli {
    /// Creates a Bernoulli process with the given injection `rate` in
    /// packets/cycle (equivalently, fraction of terminal bandwidth).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn new(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "injection rate {rate} outside [0, 1]"
        );
        // `rate * 2^53` is an exact power-of-two scaling, so the ceiling
        // is the exact integer bound of `sample * 2^-53 < rate`.
        let threshold = (rate * (1u64 << 53) as f64).ceil() as u64;
        Bernoulli { rate, threshold }
    }
}

impl InjectionProcess for Bernoulli {
    fn rate(&self) -> f64 {
        self.rate
    }

    /// `rng.gen_bool(rate)` in integer form: `gen_bool` compares the
    /// 53-bit sample `k * 2^-53` with `rate`, and for an integer `k`
    /// that is `k < ceil(rate * 2^53)` — same draw, same answer, no
    /// float conversion in the look-ahead loop.
    fn inject(&mut self, rng: &mut SmallRng) -> bool {
        (rng.next_u64() >> 11) < self.threshold
    }
}

/// A two-state Markov-modulated (on/off) process producing bursty
/// traffic with the same average rate as a Bernoulli process.
///
/// While *on*, the terminal injects with probability `burst_rate`; while
/// *off* it injects nothing. State flips with the given transition
/// probabilities, giving mean burst length `1/p_off` cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnOff {
    burst_rate: f64,
    p_on: f64,
    p_off: f64,
    on: bool,
}

impl OnOff {
    /// Creates an on/off process.
    ///
    /// * `burst_rate` — injection probability while on.
    /// * `p_on` — per-cycle probability of switching off → on.
    /// * `p_off` — per-cycle probability of switching on → off.
    ///
    /// # Panics
    ///
    /// Panics unless all three probabilities are in `(0, 1]` for the
    /// transitions and `[0, 1]` for the burst rate.
    pub fn new(burst_rate: f64, p_on: f64, p_off: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&burst_rate),
            "burst rate {burst_rate} outside [0, 1]"
        );
        assert!((0.0..=1.0).contains(&p_on) && p_on > 0.0, "bad p_on {p_on}");
        assert!(
            (0.0..=1.0).contains(&p_off) && p_off > 0.0,
            "bad p_off {p_off}"
        );
        OnOff {
            burst_rate,
            p_on,
            p_off,
            on: false,
        }
    }

    /// Creates an on/off process with average rate `rate` and mean burst
    /// length `burst_len` cycles, spending half the time in each state.
    ///
    /// # Panics
    ///
    /// Panics if `rate > 0.5` (the on-state rate would exceed 1) or
    /// `burst_len < 1.0`.
    pub fn with_rate(rate: f64, burst_len: f64) -> Self {
        assert!(rate <= 0.5, "on/off rate {rate} > 0.5 is unrealisable");
        assert!(burst_len >= 1.0, "burst length {burst_len} < 1");
        let p = 1.0 / burst_len;
        OnOff::new(2.0 * rate, p, p)
    }

    /// Creates a Markov on/off process with average rate `rate`, mean
    /// burst length `burst_len` cycles, and an explicit `duty` cycle —
    /// the stationary fraction of time spent on. During a burst the
    /// terminal injects at `rate / duty`, so small duties concentrate
    /// the same offered load into sharper transients; `duty = 0.5`
    /// reproduces [`OnOff::with_rate`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] if `burst_len < 1.0`, `duty` is
    /// outside `(0, 1]`, `rate > duty` (the in-burst rate would exceed
    /// 1 packet/cycle), or the duty cannot be realised at this burst
    /// length (the on-transition probability would exceed 1; the
    /// shortest feasible mean burst is `duty / (1 - duty)` cycles).
    /// Earlier revisions silently lengthened the bursts in that last
    /// case, handing back a different process than the one requested.
    pub fn with_rate_and_duty(rate: f64, burst_len: f64, duty: f64) -> Result<Self, ConfigError> {
        if burst_len.is_nan() || burst_len < 1.0 {
            return Err(ConfigError::BurstTooShort { burst_len });
        }
        if !(duty > 0.0 && duty <= 1.0) {
            return Err(ConfigError::DutyOutOfRange { duty });
        }
        if rate.is_nan() || rate > duty {
            return Err(ConfigError::RateExceedsDuty { rate, duty });
        }
        if duty >= 1.0 {
            // Degenerate always-on case: never leave the on state.
            // A mean off-gap of zero cycles is not expressible with a
            // geometric transition, so model it as plain Bernoulli-like
            // behaviour with p_on = 1 and an unreachable p_off path.
            return Ok(OnOff {
                burst_rate: rate,
                p_on: 1.0,
                p_off: f64::MIN_POSITIVE,
                on: true,
            });
        }
        // Stationary duty = p_on / (p_on + p_off); solve for p_on. If
        // the requested burst length is too short to realise the duty
        // (p_on would exceed 1), reject: the only fix that keeps the
        // rate is lengthening the bursts, and that is the caller's
        // decision to make, not a silent substitution.
        let p_off = 1.0 / burst_len;
        let p_on = p_off * duty / (1.0 - duty);
        if p_on > 1.0 {
            return Err(ConfigError::UnrealisableDuty {
                burst_len,
                duty,
                min_burst_len: duty / (1.0 - duty),
            });
        }
        Ok(OnOff::new(rate / duty, p_on, p_off))
    }
}

impl InjectionProcess for OnOff {
    fn rate(&self) -> f64 {
        let duty = self.p_on / (self.p_on + self.p_off);
        self.burst_rate * duty
    }

    fn inject(&mut self, rng: &mut SmallRng) -> bool {
        let flip = rng.gen_bool(if self.on { self.p_off } else { self.p_on });
        if flip {
            self.on = !self.on;
        }
        self.on && rng.gen_bool(self.burst_rate)
    }
}

/// The rates the look-ahead tests sweep: both extremes, the largest
/// rate below 1 (where a rounding slip in the integer bound would show)
/// and ordinary loads.
#[cfg(test)]
pub(crate) const EDGE_RATES: [f64; 6] = [0.0, 1e-4, 0.02, 0.5, 1.0 - f64::EPSILON / 2.0, 1.0];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_for;

    #[test]
    fn bernoulli_long_run_rate() {
        let mut p = Bernoulli::new(0.3);
        let mut rng = rng_for(11, 0);
        let n = 200_000;
        let hits = (0..n).filter(|_| p.inject(&mut rng)).count();
        let measured = hits as f64 / n as f64;
        assert!((measured - 0.3).abs() < 0.01, "measured {measured}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = rng_for(0, 0);
        let mut zero = Bernoulli::new(0.0);
        let mut one = Bernoulli::new(1.0);
        for _ in 0..100 {
            assert!(!zero.inject(&mut rng));
            assert!(one.inject(&mut rng));
        }
    }

    #[test]
    fn bernoulli_integer_trial_is_gen_bool() {
        for rate in EDGE_RATES {
            for seed in 0..8 {
                let mut p = Bernoulli::new(rate);
                let mut a = rng_for(seed, 3);
                let mut b = a.clone();
                for i in 0..20_000 {
                    assert_eq!(p.inject(&mut a), b.gen_bool(rate), "rate {rate} draw {i}");
                }
                assert_eq!(a, b, "rate {rate}: generator states diverged");
            }
        }
        // The bound itself at the extremes: never, all but the largest
        // sample, always.
        assert_eq!(Bernoulli::new(0.0).threshold, 0);
        assert_eq!(Bernoulli::new(EDGE_RATES[4]).threshold, (1 << 53) - 1);
        assert_eq!(Bernoulli::new(1.0).threshold, 1 << 53);
        assert_eq!(Bernoulli::new(f64::MIN_POSITIVE).threshold, 1);
    }

    /// `first_success` against the trial-by-trial loop it stands for:
    /// same index, same process state, same generator state — also when
    /// the limit runs out first.
    fn check_first_success<P: InjectionProcess + Clone + PartialEq + std::fmt::Debug>(proto: &P) {
        for seed in 0..8 {
            for limit in [0, 1, 7, 1024] {
                let (mut ahead, mut stepped) = (proto.clone(), proto.clone());
                let mut a = rng_for(seed, 5);
                let mut b = a.clone();
                for round in 0..50 {
                    let got = ahead.first_success(&mut a, limit);
                    let mut want = None;
                    for k in 0..limit {
                        if stepped.inject(&mut b) {
                            want = Some(k);
                            break;
                        }
                    }
                    assert_eq!(
                        got, want,
                        "{proto:?} seed {seed} limit {limit} round {round}"
                    );
                    assert_eq!(ahead, stepped);
                    assert_eq!(a, b, "{proto:?}: generator states diverged");
                }
            }
        }
    }

    #[test]
    fn first_success_matches_the_trial_loop() {
        for rate in EDGE_RATES {
            check_first_success(&Bernoulli::new(rate));
        }
        check_first_success(&OnOff::with_rate(0.02, 8.0));
        check_first_success(&OnOff::with_rate_and_duty(0.1, 16.0, 0.25).unwrap());
        check_first_success(&OnOff::with_rate_and_duty(0.3, 8.0, 1.0).unwrap());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bernoulli_rejects_bad_rate() {
        Bernoulli::new(1.5);
    }

    #[test]
    fn on_off_long_run_rate() {
        let mut p = OnOff::with_rate(0.25, 20.0);
        assert!((p.rate() - 0.25).abs() < 1e-12);
        let mut rng = rng_for(13, 0);
        let n = 400_000;
        let hits = (0..n).filter(|_| p.inject(&mut rng)).count();
        let measured = hits as f64 / n as f64;
        assert!((measured - 0.25).abs() < 0.01, "measured {measured}");
    }

    #[test]
    fn markov_on_off_duty_preserves_rate() {
        for duty in [0.125, 0.25, 0.5, 0.75] {
            let mut p = OnOff::with_rate_and_duty(0.1, 16.0, duty).unwrap();
            assert!(
                (p.rate() - 0.1).abs() < 1e-9,
                "duty {duty}: rate {}",
                p.rate()
            );
            let mut rng = rng_for(19, duty.to_bits());
            let n = 400_000;
            let hits = (0..n).filter(|_| p.inject(&mut rng)).count();
            let measured = hits as f64 / n as f64;
            assert!(
                (measured - 0.1).abs() < 0.01,
                "duty {duty}: measured {measured}"
            );
        }
    }

    #[test]
    fn markov_on_off_half_duty_matches_with_rate() {
        assert_eq!(
            OnOff::with_rate_and_duty(0.2, 16.0, 0.5).unwrap(),
            OnOff::with_rate(0.2, 16.0)
        );
    }

    #[test]
    fn markov_on_off_short_bursts_rejected_with_typed_error() {
        // duty 0.9 with burst length 2 is unrealisable (p_on would be
        // 4.5); earlier revisions silently lengthened the bursts, now
        // the constructor reports exactly what was infeasible and the
        // shortest burst that would work.
        let err = OnOff::with_rate_and_duty(0.45, 2.0, 0.9).unwrap_err();
        match err {
            ConfigError::UnrealisableDuty {
                burst_len,
                duty,
                min_burst_len,
            } => {
                assert_eq!(burst_len, 2.0);
                assert_eq!(duty, 0.9);
                assert!((min_burst_len - 9.0).abs() < 1e-9, "min {min_burst_len}");
            }
            other => panic!("wrong error variant: {other:?}"),
        }
        assert!(err.to_string().contains("unrealisable"), "{err}");
        // Just above the reported minimum the construction succeeds.
        let p = OnOff::with_rate_and_duty(0.45, 10.0, 0.9).unwrap();
        assert!((p.rate() - 0.45).abs() < 1e-9, "rate {}", p.rate());
    }

    #[test]
    fn markov_on_off_feasible_duty_accepted() {
        // Ok path for the former clamping branch: long enough bursts
        // realise the duty exactly, with the requested rate.
        let mut p = OnOff::with_rate_and_duty(0.45, 16.0, 0.9).unwrap();
        assert!((p.rate() - 0.45).abs() < 1e-9, "rate {}", p.rate());
        let mut rng = rng_for(23, 0);
        let n = 400_000;
        let hits = (0..n).filter(|_| p.inject(&mut rng)).count();
        let measured = hits as f64 / n as f64;
        assert!((measured - 0.45).abs() < 0.01, "measured {measured}");
    }

    #[test]
    fn markov_on_off_full_duty_is_steady() {
        let mut p = OnOff::with_rate_and_duty(0.3, 8.0, 1.0).unwrap();
        assert!((p.rate() - 0.3).abs() < 1e-9);
        let mut rng = rng_for(29, 0);
        let n = 200_000;
        let hits = (0..n).filter(|_| p.inject(&mut rng)).count();
        let measured = hits as f64 / n as f64;
        assert!((measured - 0.3).abs() < 0.01, "measured {measured}");
    }

    #[test]
    fn markov_on_off_rejects_rate_above_duty() {
        assert_eq!(
            OnOff::with_rate_and_duty(0.5, 8.0, 0.25).unwrap_err(),
            ConfigError::RateExceedsDuty {
                rate: 0.5,
                duty: 0.25
            }
        );
        assert_eq!(
            OnOff::with_rate_and_duty(0.2, 0.5, 0.5).unwrap_err(),
            ConfigError::BurstTooShort { burst_len: 0.5 }
        );
        assert_eq!(
            OnOff::with_rate_and_duty(0.2, 8.0, 1.5).unwrap_err(),
            ConfigError::DutyOutOfRange { duty: 1.5 }
        );
    }

    #[test]
    fn on_off_is_bursty() {
        // Consecutive-injection probability should exceed the Bernoulli
        // baseline at the same rate.
        let mut p = OnOff::with_rate(0.2, 50.0);
        let mut rng = rng_for(17, 0);
        let mut prev = false;
        let (mut pairs, mut after) = (0usize, 0usize);
        for _ in 0..400_000 {
            let now = p.inject(&mut rng);
            if prev {
                pairs += 1;
                if now {
                    after += 1;
                }
            }
            prev = now;
        }
        let cond = after as f64 / pairs as f64;
        assert!(cond > 0.3, "conditional rate {cond} not bursty");
    }
}

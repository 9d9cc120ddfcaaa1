//! Small measurement helpers: sample summaries, process peak RSS, and
//! the environment header every result document carries.

use std::process::Command;

use crate::json::Value;

/// Environment variables the simulator reads; removed before anything
/// runs so a stray shell setting cannot change what is measured.
pub const SCRUBBED_ENV: [&str; 5] = [
    "DFLY_THREADS",
    "DFLY_QUICK",
    "DFLY_PROGRESS",
    "DFLY_CAMPAIGN_DIR",
    "DFLY_CODE_REV",
];

/// Removes [`SCRUBBED_ENV`] from the environment; returns the names
/// that were set. Call first thing in `main`, before any thread exists.
pub fn scrub_env() -> Vec<&'static str> {
    let mut removed = Vec::new();
    for name in SCRUBBED_ENV {
        if std::env::var_os(name).is_some() {
            std::env::remove_var(name);
            removed.push(name);
        }
    }
    removed
}

/// Median / min / max / n of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Median (mean of the middle two for even n).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Stat {
    /// Summary of `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite sample set — the caller
    /// measured nothing, which is a bug, not a result.
    pub fn of(samples: &[f64]) -> Stat {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Stat {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            n,
        }
    }

    /// A value that was not sampled (an exact count, or one reading).
    pub fn exact(value: f64) -> Stat {
        Stat {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// The same summary with every sample mapped through the monotone
    /// function `f` (which may reverse the order, e.g. `1/x`).
    pub fn map(self, f: impl Fn(f64) -> f64) -> Stat {
        let (a, b) = (f(self.min), f(self.max));
        Stat {
            median: f(self.median),
            min: a.min(b),
            max: a.max(b),
            n: self.n,
        }
    }
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn quantile(samples: &mut [u32], q: f64) -> u32 {
    assert!(!samples.is_empty(), "no samples to rank");
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Process peak resident set size (`VmHWM`) in MB; 0 where `/proc` has
/// no such line (non-Linux).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment header of a result document: what was measured,
/// where, and with which knobs.
pub fn env_header(seed: u64, seconds: f64, trace: bool, scrubbed: &[&'static str]) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj()
        .with("commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("rustc", command_line("rustc", &["-V"]))
        .with("cpu_model", cpu)
        .with("nproc", nproc())
        .with("seed", seed)
        .with("seconds", seconds)
        .with("trace", trace)
        .with("env_removed", SCRUBBED_ENV.to_vec())
        .with("env_was_set", scrubbed.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_median_and_map() {
        let s = Stat::of(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 10.0, 4));
        let inv = s.map(|x| 1.0 / x);
        assert_eq!((inv.min, inv.max), (0.1, 1.0));
        assert_eq!(Stat::exact(4.0).n, 1);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
    }
}

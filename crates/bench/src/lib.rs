//! Figure/table regeneration harness for the dragonfly paper.
//!
//! Every table and figure of the paper's evaluation has a function here
//! that recomputes its rows and prints them as a markdown-ish table; the
//! `src/bin` binaries are thin wrappers (`fig8_routing_comparison`,
//! `fig19_cost_comparison`, …) and the `figures` binary runs the whole
//! set. Set `DFLY_QUICK=1` to use shorter simulation windows and coarser
//! sweeps while iterating.

use std::sync::Arc;

use dfly_netsim::{CreditMode, InjectionKind, NetworkSpec, RoutingAlgorithm, RunStats, SimConfig};
use dfly_traffic::TrafficPattern;
use dragonfly::parallel::{run_cells, NetworkCell};
use dragonfly::{
    CampaignStore, DragonflyParams, DragonflySim, RoutingChoice, RunGrid, RunPlan, TrafficChoice,
};

pub mod figures;
pub mod heatmap;

/// Simulation window sizes used by the figure harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Drain cap.
    pub drain_cap: u64,
    /// Load-sweep granularity divider (1 = full, 2 = every other point).
    pub stride: usize,
}

impl Windows {
    /// Full-fidelity windows (figure defaults).
    pub fn full() -> Self {
        Windows {
            warmup: 2_000,
            measure: 3_000,
            drain_cap: 15_000,
            stride: 1,
        }
    }

    /// Abbreviated windows for smoke testing.
    pub fn quick() -> Self {
        Windows {
            warmup: 500,
            measure: 1_000,
            drain_cap: 6_000,
            stride: 2,
        }
    }

    /// Picks [`Windows::quick`] when the `DFLY_QUICK` environment
    /// variable is set (to anything but `0`), else [`Windows::full`].
    pub fn from_env() -> Self {
        match std::env::var("DFLY_QUICK") {
            Ok(v) if v != "0" => Windows::quick(),
            _ => Windows::full(),
        }
    }

    /// A [`SimConfig`] at the given offered load.
    pub fn config(&self, load: f64) -> SimConfig {
        let mut cfg = SimConfig::paper_default(load);
        cfg.warmup = self.warmup;
        cfg.measure = self.measure;
        cfg.drain_cap = self.drain_cap;
        cfg
    }

    /// Thins a load list by the stride (always keeps the last point).
    pub fn thin(&self, loads: &[f64]) -> Vec<f64> {
        if self.stride <= 1 {
            return loads.to_vec();
        }
        let mut out: Vec<f64> = loads.iter().copied().step_by(self.stride).collect();
        if let Some(&last) = loads.last() {
            if out.last() != Some(&last) {
                out.push(last);
            }
        }
        out
    }
}

/// The paper's evaluation network: 1K nodes, `p = h = 4`, `a = 8`.
pub fn paper_network() -> DragonflySim {
    DragonflySim::new(DragonflyParams::new(4, 8, 4).expect("paper parameters are valid"))
}

/// The campaign store selected by `DFLY_CAMPAIGN_DIR`, if any: point
/// the variable at a directory to make the figure/bench sweeps
/// incremental (already-computed cells are answered from the on-disk
/// journal; see `dragonfly::campaign`). Unset, empty, `0`, or `off`
/// disables caching; an unopenable store falls back to uncached
/// execution with a note on stderr rather than failing the sweep.
pub fn campaign_store() -> Option<Arc<CampaignStore>> {
    let dir = std::env::var("DFLY_CAMPAIGN_DIR").ok()?;
    if dir.is_empty() || dir == "0" || dir == "off" {
        return None;
    }
    match CampaignStore::open(&dir) {
        Ok(store) => Some(Arc::new(store)),
        Err(e) => {
            eprintln!("campaign store at {dir} unavailable ({e}); running uncached");
            None
        }
    }
}

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered load.
    pub load: f64,
    /// Full run statistics.
    pub stats: RunStats,
}

impl SweepPoint {
    /// Average latency if the run drained.
    pub fn latency(&self) -> Option<f64> {
        if self.stats.drained {
            self.stats.avg_latency()
        } else {
            None
        }
    }
}

/// One latency-load curve to compute: a routing choice at a buffer
/// depth, labelled for the table header.
#[derive(Debug, Clone)]
pub struct CurveSpec {
    /// Column label.
    pub label: String,
    /// Routing algorithm.
    pub choice: RoutingChoice,
    /// Input buffer depth in flits.
    pub buffer_depth: usize,
}

impl CurveSpec {
    /// A curve for `choice` at `buffer_depth`, labelled with the
    /// routing's paper label.
    pub fn algo(choice: RoutingChoice, buffer_depth: usize) -> Self {
        CurveSpec {
            label: choice.label().to_string(),
            choice,
            buffer_depth,
        }
    }
}

/// A labelled latency-load curve.
pub type Curve = (String, Vec<SweepPoint>);
/// A labelled saturation throughput.
pub type Throughput = (String, f64);

/// Computes several latency-load curves — and, when `saturation` is
/// set, their saturation throughputs — as one flat batch of
/// independent runs fanned out across the worker pool.
///
/// Each curve is truncated one point past its first saturated load —
/// the paper's latency-load curves end at saturation — exactly as a
/// serial sweep that stops there would be (the extra speculated points
/// are discarded), so the output is identical regardless of thread
/// count. Thread budget comes from `DFLY_THREADS` (see
/// [`dragonfly::parallel::configured_threads`]).
pub fn sweep_curves(
    sim: &DragonflySim,
    curves: &[CurveSpec],
    traffic: TrafficChoice,
    loads: &[f64],
    win: &Windows,
    saturation: bool,
) -> (Vec<Curve>, Vec<Throughput>) {
    let mut grid = RunGrid::new();
    for curve in curves {
        for &load in loads {
            let mut cfg = win.config(load).with_buffer_depth(curve.buffer_depth);
            cfg.seed = 1;
            grid.push(RunPlan::new(curve.choice, traffic, cfg));
        }
        if saturation {
            let mut cfg = win.config(1.0).with_buffer_depth(curve.buffer_depth);
            cfg.drain_cap = 0;
            grid.push(RunPlan::new(curve.choice, traffic, cfg));
        }
    }
    let results = match campaign_store() {
        Some(store) => match grid.execute_cached(sim, &store) {
            Ok((stats, report)) => {
                eprintln!(
                    "campaign: {} hits, {} misses ({})",
                    report.hits,
                    report.misses,
                    store.dir().display()
                );
                stats
            }
            Err(e) => {
                eprintln!("campaign store failed ({e}); running uncached");
                grid.execute(sim)
            }
        },
        None => grid.execute(sim),
    };
    assemble_curves(
        curves.iter().map(|c| &c.label),
        loads,
        results,
        true,
        saturation,
    )
}

/// Cuts a flat batch of results — per curve, one run per load then
/// (when `saturation`) one drain-capped run at load 1.0 — back into
/// labelled curves and saturation throughputs. With `truncate`, a curve
/// ends one point past its first saturated load.
fn assemble_curves<'a>(
    labels: impl Iterator<Item = &'a String>,
    loads: &[f64],
    results: Vec<RunStats>,
    truncate: bool,
    saturation: bool,
) -> (Vec<Curve>, Vec<Throughput>) {
    let mut results = results.into_iter();
    let mut series = Vec::new();
    let mut caps = Vec::new();
    for label in labels {
        let mut points = Vec::new();
        let mut saturated = false;
        for &load in loads {
            let stats = results.next().expect("one result per planned run");
            if !(truncate && saturated) {
                saturated = !stats.drained;
                points.push(SweepPoint { load, stats });
            }
        }
        series.push((label.clone(), points));
        if saturation {
            let stats = results.next().expect("one result per planned run");
            caps.push((label.clone(), stats.accepted_rate));
        }
    }
    (series, caps)
}

/// One latency-load curve on an arbitrary wired network: the spec plus
/// the routing algorithm and traffic pattern driving it.
///
/// This is the cross-topology counterpart of [`CurveSpec`] (which is
/// dragonfly-only): the flattened-butterfly, folded-Clos and torus
/// baselines describe their sweeps with it so all curves — dragonfly
/// included — fan out as one flat batch of independent runs.
pub struct TopoCurve {
    /// Column label.
    pub label: String,
    /// The wired network.
    pub spec: Arc<NetworkSpec>,
    /// Routing algorithm under test.
    pub routing: Arc<dyn RoutingAlgorithm + Send + Sync>,
    /// Offered traffic pattern.
    pub pattern: Arc<dyn TrafficPattern + Send + Sync>,
    /// Switch runs to round-trip credit accounting (required by
    /// routings that meter credit round-trip latency, e.g. UGAL-L_CR).
    pub round_trip_credits: bool,
}

impl std::fmt::Debug for TopoCurve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopoCurve")
            .field("label", &self.label)
            .field("routing", &self.routing.name())
            .field("pattern", &self.pattern.name())
            .field("round_trip_credits", &self.round_trip_credits)
            .finish_non_exhaustive()
    }
}

impl TopoCurve {
    /// A curve for `routing` under `pattern` on `spec`.
    pub fn new(
        label: impl Into<String>,
        spec: Arc<NetworkSpec>,
        routing: Arc<dyn RoutingAlgorithm + Send + Sync>,
        pattern: Arc<dyn TrafficPattern + Send + Sync>,
    ) -> Self {
        TopoCurve {
            label: label.into(),
            spec,
            routing,
            pattern,
            round_trip_credits: false,
        }
    }

    /// A dragonfly curve through the same generic path as the baseline
    /// topologies, labelled with the routing's paper label.
    pub fn dragonfly(sim: &DragonflySim, choice: RoutingChoice, traffic: TrafficChoice) -> Self {
        TopoCurve {
            label: choice.label().to_string(),
            spec: Arc::new(sim.spec().clone()),
            routing: Arc::from(choice.build(sim.shared_dragonfly())),
            pattern: Arc::from(traffic.build(sim.dragonfly().params())),
            round_trip_credits: choice.needs_round_trip_credits(),
        }
    }
}

/// Computes latency-load curves across heterogeneous topologies as one
/// flat batch of independent runs fanned out across the worker pool.
///
/// Every `(curve, load)` pair becomes one run of `base` with Bernoulli
/// injection at that load (plus, when `saturation` is set, one
/// drain-capped run at load 1.0 per curve for its saturation
/// throughput). When `truncate` is set each curve is cut one point past
/// its first saturated load, exactly like [`sweep_curves`]; otherwise
/// every requested load is reported (cross-topology tables print `sat`
/// cells instead of ending the row). Results are bit-identical to a
/// serial sweep regardless of thread count.
pub fn sweep_topology_curves(
    curves: &[TopoCurve],
    loads: &[f64],
    base: &SimConfig,
    truncate: bool,
    saturation: bool,
) -> (Vec<Curve>, Vec<Throughput>) {
    let mut cells = Vec::new();
    for tc in curves {
        let cell = |load: f64, saturation_probe: bool| {
            let mut cfg = base.clone();
            cfg.injection = InjectionKind::Bernoulli { rate: load };
            if saturation_probe {
                // Don't wait for a futile drain at full load.
                cfg.drain_cap = 0;
            }
            if tc.round_trip_credits && cfg.credit_mode == CreditMode::Conventional {
                cfg.credit_mode = CreditMode::round_trip();
            }
            NetworkCell {
                spec: &tc.spec,
                routing: tc.routing.as_ref(),
                pattern: tc.pattern.as_ref(),
                cfg,
            }
        };
        cells.extend(loads.iter().map(|&load| cell(load, false)));
        if saturation {
            cells.push(cell(1.0, true));
        }
    }
    let results = run_cells(&cells, None).expect("topology sweep configuration must be valid");
    assemble_curves(
        curves.iter().map(|c| &c.label),
        loads,
        results,
        truncate,
        saturation,
    )
}

/// Formats an optional latency for a table cell.
pub fn fmt_latency(l: Option<f64>) -> String {
    match l {
        Some(v) => format!("{v:.1}"),
        None => "sat".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_thin_keeps_last() {
        let w = Windows {
            stride: 2,
            ..Windows::quick()
        };
        assert_eq!(w.thin(&[0.1, 0.2, 0.3, 0.4]), vec![0.1, 0.3, 0.4]);
        let w1 = Windows::full();
        assert_eq!(w1.thin(&[0.1, 0.2]), vec![0.1, 0.2]);
    }

    #[test]
    fn topology_curves_match_dragonfly_sweep() {
        let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
        let win = Windows {
            warmup: 100,
            measure: 200,
            drain_cap: 1_000,
            stride: 1,
        };
        let loads = [0.1, 0.3];
        let base = win.config(0.1);
        let curve = TopoCurve::dragonfly(&sim, RoutingChoice::UgalL, TrafficChoice::Uniform);
        let (curves, caps) = sweep_topology_curves(&[curve], &loads, &base, false, true);
        let by_grid = sim.sweep(RoutingChoice::UgalL, TrafficChoice::Uniform, &loads, &base);
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].0, "UGAL-L");
        assert_eq!(curves[0].1.len(), loads.len());
        assert!(caps[0].1 > 0.0);
        for (p, lp) in curves[0].1.iter().zip(&by_grid) {
            assert_eq!(p.load, lp.load);
            assert_eq!(p.stats, lp.stats);
        }
    }

    #[test]
    fn truncated_curves_stop_one_point_past_saturation() {
        let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
        let win = Windows {
            warmup: 100,
            measure: 300,
            drain_cap: 1_000,
            stride: 1,
        };
        // MIN on WC saturates at 1/(a*h) = 0.125 on this network.
        let loads = [0.05, 0.4, 0.6, 0.8];
        let curve = || TopoCurve::dragonfly(&sim, RoutingChoice::Min, TrafficChoice::WorstCase);
        let (full, _) = sweep_topology_curves(&[curve()], &loads, &win.config(0.1), false, false);
        assert_eq!(full[0].1.len(), loads.len());
        let (cut, _) = sweep_topology_curves(&[curve()], &loads, &win.config(0.1), true, false);
        assert_eq!(
            cut[0].1.len(),
            2,
            "one drained point, then the first saturated one"
        );
        assert!(cut[0].1[0].latency().is_some());
        assert!(cut[0].1[1].latency().is_none());
        // The dragonfly-only path assembles through the same function.
        let spec = [CurveSpec::algo(RoutingChoice::Min, 16)];
        let (by_grid, caps) =
            sweep_curves(&sim, &spec, TrafficChoice::WorstCase, &loads, &win, true);
        assert_eq!(by_grid[0].1.len(), 2);
        assert!(caps[0].1 > 0.0 && caps[0].1 < 0.2);
    }
}

//! Figure/table regeneration harness for the dragonfly paper.
//!
//! Every table and figure of the paper's evaluation has a function here
//! that recomputes its rows and prints them as a markdown-ish table, and
//! one entry in [`figures::FIGURES`]; the `dfly` binary runs one entry
//! (`dfly fig fig8`) or the paper's whole set (`dfly fig all`). Set
//! `DFLY_QUICK=1` to use shorter simulation windows and coarser sweeps
//! while iterating.
//!
//! A simulated cell runs one of two ways. A dragonfly cell is a
//! [`RunPlan`] in a [`RunGrid`] executed by [`run_plans`], which serves
//! and journals it through the campaign store `DFLY_CAMPAIGN_DIR` names
//! (see [`campaign_store`]). A baseline cell (flattened butterfly,
//! folded Clos, torus) is a [`NetworkCell`] run by
//! [`dragonfly::parallel::run_cells`] (see [`baseline_curves`]). Both
//! fan out across the worker pool with results bit-identical at any
//! thread count; [`assemble_curves`] cuts either kind of batch back into
//! labelled latency-load curves.

use std::sync::Arc;

use dfly_netsim::{NetworkSpec, RoutingAlgorithm, RunStats, SimConfig};
use dfly_traffic::TrafficPattern;
use dragonfly::parallel::{run_cells, NetworkCell};
use dragonfly::{
    CampaignStore, DragonflyParams, DragonflySim, LoadPoint, RoutingChoice, RunGrid, RunPlan,
    TrafficChoice,
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

/// Runs every plan of `grid` against `sim` — the one way this crate
/// runs a dragonfly cell. With a [`campaign_store`] the plans go
/// through it (stored cells are served, the rest run and are
/// journaled) and a `campaign: H hits, M misses` line goes to stderr;
/// without one, or if the store fails, they run uncached. Results are
/// in plan order and bit-identical either way, at any thread count.
pub fn run_plans(sim: &DragonflySim, grid: &RunGrid) -> Vec<RunStats> {
    let Some(store) = campaign_store() else {
        return grid.execute(sim);
    };
    match grid.execute_cached(sim, &store) {
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
pub type Curve = (String, Vec<LoadPoint>);
/// A labelled saturation throughput.
pub type Throughput = (String, f64);

/// Computes several dragonfly latency-load curves — and, when
/// `saturation` is set, their saturation throughputs — as one
/// [`RunGrid`] through [`run_plans`].
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
            let cfg = win.config(load).with_buffer_depth(curve.buffer_depth);
            grid.push(RunPlan::new(curve.choice, traffic, cfg));
        }
        if saturation {
            let mut cfg = win.config(1.0).with_buffer_depth(curve.buffer_depth);
            cfg.drain_cap = 0;
            grid.push(RunPlan::new(curve.choice, traffic, cfg));
        }
    }
    assemble_curves(
        curves.iter().map(|c| c.label.as_str()),
        loads,
        run_plans(sim, &grid),
        true,
        saturation,
    )
}

/// One baseline curve to run: its label, the wired network, the
/// routing algorithm and the traffic pattern.
pub type Baseline<'a> = (
    &'a str,
    &'a NetworkSpec,
    &'a (dyn RoutingAlgorithm + Sync),
    &'a (dyn TrafficPattern + Sync),
);

/// Latency-load curves on baseline networks — the one way this crate
/// runs a non-dragonfly cell: one [`NetworkCell`] per `(curve, load)`
/// at `win`'s windows, fanned out by [`run_cells`]. Uncached (an
/// arbitrary routing algorithm has no canonical description to key on);
/// every load is kept, saturated or not.
pub fn baseline_curves(curves: &[Baseline<'_>], loads: &[f64], win: &Windows) -> Vec<Curve> {
    let mut cells = Vec::new();
    for &(_, spec, routing, pattern) in curves {
        cells.extend(loads.iter().map(|&load| NetworkCell {
            spec,
            routing,
            pattern,
            cfg: win.config(load),
        }));
    }
    let results = run_cells(&cells, None).expect("baseline configuration must be valid");
    assemble_curves(curves.iter().map(|c| c.0), loads, results, false, false).0
}

/// Cuts a flat batch of results — per curve, one run per load then
/// (when `saturation`) one drain-capped run at load 1.0 — back into
/// labelled curves and saturation throughputs. With `truncate`, a curve
/// ends one point past its first saturated load.
pub fn assemble_curves<'a>(
    labels: impl IntoIterator<Item = &'a str>,
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
                points.push(LoadPoint { load, stats });
            }
        }
        series.push((label.to_string(), points));
        if saturation {
            let stats = results.next().expect("one result per planned run");
            caps.push((label.to_string(), stats.accepted_rate));
        }
    }
    (series, caps)
}

/// Formats an optional latency for a table cell.
pub fn fmt_latency(l: Option<f64>) -> String {
    match l {
        Some(v) => format!("{v:.1}"),
        None => "sat".into(),
    }
}

/// A table cell for one run's mean latency: `sat` when it did not
/// drain, `-` when it drained but measured no packet.
pub fn latency_cell(stats: &RunStats) -> String {
    if stats.drained {
        stats
            .avg_latency()
            .map_or_else(|| "-".into(), |l| format!("{l:.1}"))
    } else {
        "sat".into()
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

    fn tiny_windows(measure: u64) -> Windows {
        Windows {
            warmup: 100,
            measure,
            drain_cap: 1_000,
            stride: 1,
        }
    }

    /// The two runners agree: a dragonfly run as a baseline cell
    /// ([`baseline_curves`], a `NetworkCell` over its spec) equals the
    /// [`run_plans`] run of the same plan.
    #[test]
    fn topology_curves_match_dragonfly_sweep() {
        let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
        let win = tiny_windows(200);
        let loads = [0.1, 0.3];
        let choice = RoutingChoice::UgalL;
        let routing = choice.build(sim.shared_dragonfly());
        let pattern = TrafficChoice::Uniform.build(sim.dragonfly().params());
        let curves = baseline_curves(
            &[("UGAL-L", sim.spec(), routing.as_ref(), pattern.as_ref())],
            &loads,
            &win,
        );
        let grid = RunGrid::cross(
            &[choice],
            &[TrafficChoice::Uniform],
            &loads,
            &win.config(0.1),
        );
        let by_grid = run_plans(&sim, &grid);
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].0, "UGAL-L");
        assert_eq!(curves[0].1.len(), loads.len());
        for ((p, stats), &load) in curves[0].1.iter().zip(&by_grid).zip(&loads) {
            assert_eq!(p.load, load);
            assert_eq!(&p.stats, stats);
        }
    }

    #[test]
    fn truncated_curves_stop_one_point_past_saturation() {
        let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
        let win = tiny_windows(300);
        // MIN on WC saturates at 1/(a*h) = 0.125 on this network.
        let loads = [0.05, 0.4, 0.6, 0.8];
        let grid = RunGrid::cross(
            &[RoutingChoice::Min],
            &[TrafficChoice::WorstCase],
            &loads,
            &win.config(0.1),
        );
        let results = run_plans(&sim, &grid);
        let (full, _) = assemble_curves(["MIN"], &loads, results.clone(), false, false);
        assert_eq!(full[0].1.len(), loads.len());
        let (cut, _) = assemble_curves(["MIN"], &loads, results, true, false);
        assert_eq!(
            cut[0].1.len(),
            2,
            "one drained point, then the first saturated one"
        );
        assert!(cut[0].1[0].latency().is_some());
        assert!(cut[0].1[1].latency().is_none());
        // The curve sweep truncates through the same function and adds
        // one saturation probe per curve.
        let spec = [CurveSpec::algo(RoutingChoice::Min, 16)];
        let (by_grid, caps) =
            sweep_curves(&sim, &spec, TrafficChoice::WorstCase, &loads, &win, true);
        assert_eq!(by_grid[0].1.len(), 2);
        assert!(caps[0].1 > 0.0 && caps[0].1 < 0.2);
    }
}

//! Figure/table regeneration harness for the dragonfly paper.
//!
//! Every table and figure of the paper's evaluation has a function here
//! that recomputes its rows and prints them as a markdown-ish table, and
//! one entry in [`figures::FIGURES`]; the `dfly` binary runs one entry
//! (`dfly fig fig8`) or the paper's whole set (`dfly fig all`). Set
//! `DFLY_QUICK=1` to use shorter simulation windows and coarser sweeps
//! while iterating.
//!
//! A simulated cell runs one way, whatever its topology (dragonfly,
//! flattened butterfly, folded Clos, torus): it is a [`RunPlan`] in a
//! [`RunGrid`] executed on that network's [`NetworkSim`] by
//! [`run_plans`], which serves and journals it through the campaign
//! store `DFLY_CAMPAIGN_DIR` names (see [`campaign_store`]). Cells fan
//! out across the worker pool with results bit-identical at any thread
//! count; [`assemble_curves`] cuts a batch back into labelled
//! latency-load curves.

use std::sync::{Arc, OnceLock};

use dfly_netsim::{RunStats, SimConfig};
use dragonfly::network::NetTopology;
use dragonfly::{
    CampaignStore, DragonflyParams, DragonflySim, LoadPoint, NetworkSim, RoutingChoice, RunGrid,
    RunPlan, TrafficChoice,
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
///
/// The store is opened (its journal read) once per process, on the
/// first call; later calls share it, whatever the variable reads then.
pub fn campaign_store() -> Option<Arc<CampaignStore>> {
    static STORE: OnceLock<Option<Arc<CampaignStore>>> = OnceLock::new();
    STORE
        .get_or_init(|| {
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
        })
        .clone()
}

/// Runs every plan of `grid` against `sim` — the one way this crate
/// runs a cell, on any topology. With a [`campaign_store`] the plans go
/// through it (stored cells are served, the rest run and are
/// journaled) and a `campaign: H hits, M misses` line goes to stderr;
/// without one, or if the store fails, they run uncached. Results are
/// in plan order and bit-identical either way, at any thread count.
pub fn run_plans<T: NetTopology + 'static>(sim: &NetworkSim<T>, grid: &RunGrid) -> Vec<RunStats> {
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

/// A table cell for a latency `mean` of one run (e.g.
/// [`RunStats::avg_latency`]): `sat` when the run did not drain, `-`
/// when it drained but measured no packet.
pub fn latency_cell(stats: &RunStats, mean: fn(&RunStats) -> Option<f64>) -> String {
    if stats.drained {
        mean(stats).map_or_else(|| "-".into(), |l| format!("{l:.1}"))
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

    /// A baseline network's curve through [`run_plans`] is the
    /// [`assemble_curves`] cut of its [`RunGrid`] run, as the dragonfly's
    /// is: one cell type for every topology.
    #[test]
    fn topology_curves_match_dragonfly_sweep() {
        use dfly_topo::FlattenedButterfly;
        use dragonfly::butterfly::ButterflyNetwork;

        let win = tiny_windows(200);
        let loads = [0.1, 0.3];
        let base = win.config(0.1);
        let df = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
        let fb = NetworkSim::from(ButterflyNetwork::new(FlattenedButterfly::new(2, 6, 2)));
        for (sim_curve, by_grid) in [
            (
                curve(&df, RoutingChoice::UgalL, &loads, &base),
                RunGrid::cross(
                    &[RoutingChoice::UgalL],
                    &[TrafficChoice::Uniform],
                    &loads,
                    &base,
                )
                .execute_on(&df, 1),
            ),
            (
                curve(&fb, RoutingChoice::UgalL, &loads, &base),
                RunGrid::cross(
                    &[RoutingChoice::UgalL],
                    &[TrafficChoice::Uniform],
                    &loads,
                    &base,
                )
                .execute_on(&fb, 1),
            ),
        ] {
            assert_eq!(sim_curve.0, "UGAL-L");
            assert_eq!(sim_curve.1.len(), loads.len());
            for ((p, stats), &load) in sim_curve.1.iter().zip(&by_grid).zip(&loads) {
                assert_eq!(p.load, load);
                assert_eq!(&p.stats, stats);
            }
        }
        // The two networks are different machines, not one run twice.
        assert_ne!(
            curve(&df, RoutingChoice::UgalL, &loads, &base).1[0].stats,
            curve(&fb, RoutingChoice::UgalL, &loads, &base).1[0].stats
        );
    }

    /// One uniform-traffic curve of `choice` on `sim` through
    /// [`run_plans`].
    fn curve<T: NetTopology + 'static>(
        sim: &NetworkSim<T>,
        choice: RoutingChoice,
        loads: &[f64],
        base: &SimConfig,
    ) -> Curve {
        let grid = RunGrid::cross(&[choice], &[TrafficChoice::Uniform], loads, base);
        let results = run_plans(sim, &grid);
        let (mut curves, _) = assemble_curves([choice.label()], loads, results, false, false);
        curves.remove(0)
    }

    /// The one latency-cell rule: a number, `sat` for an undrained run
    /// (even when its packets give a mean), `-` for a drained run that
    /// measured no packet in that column.
    #[test]
    fn latency_cells_follow_one_rule() {
        let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
        let grid = RunGrid::cross(
            &[RoutingChoice::Min],
            &[TrafficChoice::Uniform],
            &[0.1],
            &tiny_windows(200).config(0.1),
        );
        let mut stats = grid.execute_on(&sim, 1).remove(0);
        let minimal = |s: &RunStats| s.minimal_latency.mean();
        let non_minimal = |s: &RunStats| s.non_minimal_latency.mean();
        assert!(stats.drained && stats.non_minimal_latency.count == 0);
        let mean = stats.avg_latency().unwrap();
        assert_eq!(
            latency_cell(&stats, RunStats::avg_latency),
            format!("{mean:.1}")
        );
        assert_eq!(latency_cell(&stats, non_minimal), "-");
        stats.drained = false;
        assert!(minimal(&stats).is_some(), "a biased mean exists");
        assert_eq!(latency_cell(&stats, minimal), "sat");
        assert_eq!(latency_cell(&stats, RunStats::avg_latency), "sat");
        assert_eq!(latency_cell(&stats, non_minimal), "sat");
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

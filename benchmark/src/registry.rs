//! The benchmark's vocabulary: the seven workload names and every
//! metric with its unit, direction, regression bound and the workloads
//! it is measured on. `BENCHMARK.json` at the repo root is the driver's
//! view of this table (checked by `tests/smoke.rs`).

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as in `--workload` and `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload is in the benchmark.
    pub why: &'static str,
    /// Worker threads or engine shards the workload needs to mean
    /// anything; with fewer hardware threads it is skipped, never run
    /// oversubscribed.
    pub needs_threads: usize,
}

/// The seven workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "idle_1k",
        why: "terminal-bound: 1,056 terminals at load 0.02, cost is per-terminal polling; injection/cycle-skipping work shows here, flit-path kernels do not",
        needs_threads: 1,
    },
    WorkloadDef {
        name: "sat_wc_1k",
        why: "flit-bound: UGAL-L_CR under worst-case traffic at load 0.4, every packet makes a real min/non-min choice, round-trip credits; injection work bypasses it",
        needs_threads: 1,
    },
    WorkloadDef {
        name: "shard2_1k",
        why: "the sharded engine on two real cores: barrier wait, cross-shard staging, imbalance; a 1-shard win that costs the barrier path is a loss here",
        needs_threads: 2,
    },
    WorkloadDef {
        name: "scale_262k",
        why: "memory-bound: 262,656 terminals in scale mode; the only workload where set-up time and peak RSS are material, layout changes show here",
        needs_threads: 1,
    },
    WorkloadDef {
        name: "sweep_fig8_72",
        why: "sweep executor: 96 short cells on 2 workers, so per-cell fixed cost and pool efficiency decide the number; engine kernels matter little",
        needs_threads: 2,
    },
    WorkloadDef {
        name: "campaign_fill_rerun",
        why: "the result store, writes beside reads: cold fill (encode, append, fsynced index) then open + all-hit reruns (replay, lookup, decode)",
        needs_threads: 1,
    },
    WorkloadDef {
        name: "jobs_mix_1k",
        why: "closed loop at paper scale: two tenant collectives under both placements and background load; offer/delivered and job dispatch on the hot path",
        needs_threads: 1,
    },
];

/// The four workloads that are one `Simulation` run.
pub const ENGINE: &[&str] = &["idle_1k", "sat_wc_1k", "shard2_1k", "scale_262k"];
/// The engine workloads that run on one shard (per-cycle stepping from
/// outside is only meaningful there).
pub const ENGINE_1SHARD: &[&str] = &["idle_1k", "sat_wc_1k", "scale_262k"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// What a user of the simulator sees; from the untraced run only.
    EndToEnd,
    /// One layer's cost; from the `--trace` run only, no bound.
    PerLayer,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit, `BENCHMARK.json` style.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end or per-layer.
    pub tier: Tier,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` says "worse" (end-to-end only).
    pub bound: f64,
    /// Absolute differences below this are "same" whatever the ratio
    /// (a 2 ms set-up moving by 1 ms is timer noise, not a regression).
    pub equal_below: f64,
    /// Workloads the metric is measured on; `None` = all seven. On the
    /// others a per-layer metric reads 0 ("layer not exercised / not
    /// observable from outside") and an end-to-end metric is absent.
    pub workloads: Option<&'static [&'static str]>,
    /// Simulated quantities repeat exactly for a seed; host-time
    /// quantities do not.
    pub simulated: bool,
    /// How it is measured (end-to-end) / the end-to-end metric it should
    /// move (per-layer).
    pub note: &'static str,
}

impl MetricDef {
    /// Whether the metric is measured on `workload`.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_none_or(|list| list.contains(&workload))
    }

    /// Whether the metric is part of the driver contract in
    /// `BENCHMARK.json`: every per-layer metric, and the end-to-end
    /// metrics the driver can hold to its rules — measured on all seven
    /// workloads, never 0, and steady across seeds within the bound.
    pub fn in_contract(&self) -> bool {
        self.tier == Tier::PerLayer
            || (self.workloads.is_none() && !DRIVER_CANNOT_HOLD.contains(&self.name))
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: Option<&'static [&'static str]>,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        tier: Tier::EndToEnd,
        bound,
        equal_below: 0.0,
        workloads,
        simulated: false,
        note,
    }
}

const fn sim(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: Option<&'static [&'static str]>,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        simulated: true,
        ..e2e(name, unit, better, bound, workloads, note)
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: Option<&'static [&'static str]>,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        tier: Tier::PerLayer,
        bound: 0.0,
        equal_below: 0.0,
        workloads,
        simulated: false,
        note,
    }
}

use Better::{Higher, Lower};

const SHARD: Option<&[&str]> = Some(&["shard2_1k"]);
const SWEEP: Option<&[&str]> = Some(&["sweep_fig8_72"]);
const CAMPAIGN: Option<&[&str]> = Some(&["campaign_fill_rerun"]);
const JOBS: Option<&[&str]> = Some(&["jobs_mix_1k"]);

/// End-to-end metrics measured on every workload that still stay out of
/// `BENCHMARK.json`: `failed_share` is 0 by design (the driver reads
/// `failed`/`attempted` instead), and `peak_rss_mb` at 1K terminals is a
/// 4-10 MB process whose peak moves in allocator-sized steps with the seed
/// (7.0 / 7.9 / 10.0 MB on `sat_wc_1k`), a 37 % spread where the driver
/// allows 25 %. `compare` judges it with a 4 MB absolute tolerance, and the
/// driver sees memory as per-layer `netsim.arena.bytes_per_terminal`.
const DRIVER_CANNOT_HOLD: [&str; 2] = ["failed_share", "peak_rss_mb"];

/// Every metric the benchmark emits: 12 end-to-end, then per-layer.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end (untraced run) -------------------------------
    MetricDef {
        equal_below: 0.005,
        ..e2e("setup_s", "s", Lower, 0.25, None,
            "host time before the timed body: topology+spec build, routing/pattern build, Simulation::new, grid/store creation")
    },
    e2e("wall_s", "s", Lower, 0.25, None,
        "host time of the timed body: finish(), execute_on, both campaign legs"),
    e2e("sim_cycles_per_s", "cycles/s", Higher, 0.25, None,
        "simulated cycles of the timed body / wall_s"),
    e2e("cells_per_s", "cells/s", Higher, 0.25, None,
        "simulation results produced or served by the timed body / wall_s (1 cell on the engine workloads)"),
    e2e("cold_cells_per_s", "cells/s", Higher, 0.25, CAMPAIGN,
        "cells / host time of the cold fill of an empty store"),
    e2e("warm_cells_per_s", "cells/s", Higher, 0.25, CAMPAIGN,
        "cells / host time of the all-hit reruns, CampaignStore::open included"),
    MetricDef {
        equal_below: 4.0,
        ..e2e("peak_rss_mb", "MB", Lower, 0.10, None, "VmHWM of the workload's own process")
    },
    e2e("failed_share", "share", Lower, 0.0, None,
        "failed cells / attempted cells, expected 0 (the driver reads it as failed/attempted)"),
    sim("sim_accepted_rate", "pkt/term/cycle", Higher, 0.05, None,
        "mean over cells of RunStats::accepted_rate; closed-loop cells: tracked packets / (terminals x completion cycles)"),
    sim("sim_avg_latency_cycles", "cycles", Lower, 0.10, None,
        "labelled-packet latency, packet-weighted over cells"),
    sim("sim_p99_latency_cycles", "cycles", Lower, 0.15, None,
        "99th percentile of the cells' merged 1-cycle latency histograms, interpolated inside its bucket"),
    sim("sim_completion_cycles", "cycles", Lower, 0.02, JOBS,
        "cycle at which each point's work completed, summed over the six points"),
    // ---- per layer (traced run) ----------------------------------
    layer("core.topology.build_s", "s", Lower, None, "setup_s on scale_262k"),
    layer("core.routing.build_us", "us", Lower, None, "cells_per_s on sweep_fig8_72"),
    layer("core.routing.route_ns_per_hop.min", "ns", Lower, None, "sim_cycles_per_s on sat_wc_1k"),
    layer("core.routing.route_ns_per_hop.ugal_l", "ns", Lower, None, "sim_cycles_per_s on sat_wc_1k"),
    MetricDef { simulated: true, ..layer("core.routing.nonminimal_share", "share", Lower, None, "sim_avg_latency_cycles on sat_wc_1k") },
    MetricDef { simulated: true, ..layer("core.routing.adaptive_decisions", "count", Lower, None, "sim_avg_latency_cycles on sat_wc_1k") },
    layer("traffic.pattern.destination_ns.ur", "ns", Lower, None, "sim_cycles_per_s on sat_wc_1k"),
    layer("traffic.pattern.destination_ns.wc", "ns", Lower, None, "sim_cycles_per_s on sat_wc_1k"),
    layer("netsim.sim.new_s", "s", Lower, None, "setup_s on scale_262k; cells_per_s on sweep_fig8_72"),
    layer("netsim.sim.phase_share.credits", "share", Lower, Some(ENGINE), "sim_cycles_per_s on idle_1k"),
    layer("netsim.sim.phase_share.arrivals", "share", Lower, Some(ENGINE), "sim_cycles_per_s on sat_wc_1k, scale_262k"),
    layer("netsim.sim.phase_share.switch", "share", Lower, Some(ENGINE), "sim_cycles_per_s on sat_wc_1k"),
    layer("netsim.sim.phase_share.transmit", "share", Lower, Some(ENGINE), "sim_cycles_per_s on sat_wc_1k, scale_262k"),
    layer("netsim.sim.phase_share.inject", "share", Lower, Some(ENGINE), "sim_cycles_per_s on idle_1k"),
    layer("netsim.sim.ns_per_terminal_cycle", "ns", Lower, None, "sim_cycles_per_s on idle_1k, scale_262k"),
    layer("netsim.sim.ns_per_flit_hop", "ns", Lower, Some(ENGINE), "sim_cycles_per_s on sat_wc_1k"),
    layer("netsim.sim.cycle_us_p50", "us", Lower, Some(ENGINE_1SHARD), "sim_cycles_per_s"),
    layer("netsim.sim.cycle_us_p99", "us", Lower, Some(ENGINE_1SHARD), "sim_cycles_per_s; p99 >> p50 flags stalls the median hides"),
    layer("netsim.shard.speedup_over_1", "ratio", Higher, SHARD, "sim_cycles_per_s on shard2_1k"),
    layer("netsim.shard.barrier_share", "share", Lower, SHARD, "sim_cycles_per_s on shard2_1k"),
    layer("netsim.shard.imbalance", "ratio", Lower, SHARD, "sim_cycles_per_s on shard2_1k"),
    layer("netsim.arena.bytes_per_terminal", "B", Lower, None, "peak_rss_mb on scale_262k"),
    layer("core.parallel.pool_efficiency", "ratio", Higher, SWEEP, "cells_per_s on sweep_fig8_72"),
    layer("core.parallel.empty_cell_us", "us", Lower, SWEEP, "cells_per_s on sweep_fig8_72"),
    layer("core.campaign.open_ms", "ms", Lower, CAMPAIGN, "warm_cells_per_s"),
    layer("core.campaign.key_us", "us", Lower, CAMPAIGN, "warm_cells_per_s, cold_cells_per_s"),
    layer("core.campaign.lookup_us", "us", Lower, CAMPAIGN, "warm_cells_per_s"),
    layer("core.campaign.insert_us", "us", Lower, CAMPAIGN, "cold_cells_per_s"),
    layer("core.campaign.journal_bytes_per_cell", "B", Lower, CAMPAIGN, "cold_cells_per_s, warm_cells_per_s"),
    layer("core.campaign.cold_overhead_share", "share", Lower, CAMPAIGN, "cold_cells_per_s"),
    layer("core.jobs.assign_us", "us", Lower, JOBS, "setup_s on jobs_mix_1k"),
    MetricDef { simulated: true, ..layer("core.jobs.slowdown_ratio", "ratio", Lower, JOBS, "sim_completion_cycles on jobs_mix_1k") },
    layer("traffic.workload.cycles_per_s", "cycles/s", Higher, JOBS, "sim_cycles_per_s on jobs_mix_1k"),
    layer("bench.trace_overhead", "ratio", Lower, None, "none: it is the cost of looking"),
];

/// The definition of metric `name`.
///
/// # Panics
///
/// Panics on a name the registry does not hold — a bug in the caller.
pub fn metric(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the registry"))
}

/// The definition of workload `name`, if there is one.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

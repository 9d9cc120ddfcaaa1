//! A cycle-accurate, flit-level interconnection-network simulator.
//!
//! This crate is the evaluation substrate of the dragonfly reproduction:
//! input-queued single-cycle routers with virtual channels, credit-based
//! flow control, per-class channel latencies, Bernoulli (or bursty)
//! injection, and the warm-up / labelled-measurement / drain methodology
//! of Dally & Towles that the paper's §4.2 describes. It also implements
//! the paper's *credit round-trip* mechanism (§4.3.2, Figure 17): credit
//! timestamp queues measure per-output congestion and returned credits
//! are delayed to stiffen backpressure, which is what makes the
//! UGAL-L(CR) routing variant possible.
//!
//! The crate is topology-agnostic: a [`NetworkSpec`] describes any wired
//! network, and a [`RoutingAlgorithm`] drives it. The `dragonfly` crate
//! provides the topologies and the MIN / VAL / UGAL routing family on
//! top of these interfaces: each topology implements one trait there,
//! `NetTopology`, whose two UGAL candidates are this crate's
//! [`CandidatePath`]s, weighed by a [`UgalChooser`].
//!
//! # Example
//!
//! See [`Simulation`] for a complete runnable example; the typical
//! shape is:
//!
//! ```text
//! let spec    = ...;                      // NetworkSpec from a topology
//! let algo    = ...;                      // impl RoutingAlgorithm
//! let traffic = UniformRandom::new(spec.num_terminals());
//! let stats   = Simulation::new(&spec, &algo, &traffic, SimConfig::paper_default(0.4))?.finish();
//! println!("avg latency {:?}", stats.avg_latency());
//! ```

// Unsafe is denied crate-wide and allowed only on the two items the
// sharded cycle engine needs: the shared router table (`sim::ShardTable`)
// and the raw-pointer internals of `NetView`. Each unsafe block carries
// its field-disjointness argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod arena;
mod config;
mod error;
mod fault;
mod flit;
mod health;
pub mod json;
mod routing;
mod sim;
mod spec;
mod stats;
pub mod telemetry;

pub use adaptive::{
    CandidatePath, CongestionEstimator, CreditCommitted, EwmaOccupancy, GlobalOracle,
    QueueOccupancy, UgalChooser, VcHybrid, VcOccupancy,
};
pub use config::{
    thread_budget, CreditMode, InjectionKind, SimConfig, TdEstimator, TelemetryConfig, Termination,
};
pub use error::SimError;
pub use fault::{FaultClass, FaultPlan, FaultTable};
pub use flit::{Flit, RouteClass, RouteInfo};
pub use health::{warmup_convergence, Span, SpanTree, StallReport, WARMUP_DRIFT_LIMIT};
pub use routing::{
    trace_path, DecisionRecord, NetView, PortVc, RoutingAlgorithm, ShortestPathRouting, TraceHop,
};
pub use sim::{SimPerf, Simulation};
pub use spec::{ChannelClass, Connection, HopColumn, NetworkSpec, PortSpec, RouterSpec};
pub use stats::{ChannelLoad, Histogram, LatencySummary, RouteTelemetry, RunStats};
pub use telemetry::{
    ChannelSeries, EstimatorScoreboard, FlitTrace, FlitTracer, LogHistogram, MetricsRegistry,
    TimeSeries, TraceEvent, TraceEventKind,
};

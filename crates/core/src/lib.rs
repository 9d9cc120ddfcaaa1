//! The dragonfly topology and its indirect global adaptive routing —
//! a from-scratch reproduction of Kim, Dally, Scott & Abts,
//! *"Technology-Driven, Highly-Scalable Dragonfly Topology"* (ISCA 2008).
//!
//! A dragonfly groups `a` high-radix routers into a *virtual router* of
//! effective radix `a(p + h)`, so that every minimal route crosses at
//! most **one** expensive global (optical) channel. This crate provides:
//!
//! * [`DragonflyParams`] / [`Dragonfly`] — configuration, wiring
//!   (fully-connected groups, offset-ring inter-group channels), and a
//!   [`dfly_netsim::NetworkSpec`] builder for cycle-accurate simulation;
//! * the routing family of the paper — [`RoutingChoice::build`] returns
//!   the shared [`network::NetRouting`] over any wired network:
//!   `NetRouting::new` (MIN), `NetRouting::valiant` (VAL) and
//!   `NetRouting::ugal` with its [`UgalVariant`]s (UGAL-L, UGAL-L_VC,
//!   UGAL-L_VCH, UGAL-G), plus UGAL-L_CR via the simulator's credit
//!   round-trip mode;
//! * [`NetworkSim`] — the experiment harness over any topology
//!   ([`DragonflySim`] for the dragonfly): it wires the network once and
//!   runs routing choices, traffic patterns and loads as [`RunPlan`]s,
//!   swept by a [`RunGrid`] and cached by a [`CampaignStore`] under a
//!   canonical text each topology declares once;
//! * [`analysis`] — closed-form saturation-throughput bounds (the
//!   paper's `1/(a·h)` and 50% limits, generalised);
//! * [`butterfly`] / [`clos_sim`] / [`torus_sim`] — the flattened
//!   butterfly, folded Clos and k-ary n-cube torus (the paper's §5
//!   baselines) wired for the same simulator, each with its own
//!   deadlock-free routing — with the dragonfly, the four instances of
//!   the one [`network`] harness, which owns spec building, the
//!   oblivious / Valiant / UGAL routing family and (for the three
//!   baselines) faults;
//! * link-failure injection — apply a [`FaultPlan`] with
//!   [`Dragonfly::with_fault_plan`] / [`DragonflySim::with_faults`] and
//!   every routing algorithm steers around the dead links; [`FaultSweep`]
//!   measures throughput degradation over failed-link fractions;
//! * [`campaign`] — a content-addressed on-disk result store: sweeps
//!   executed through [`CampaignStore`] serve previously-completed
//!   cells bit-identically from a crash-safe journal and simulate only
//!   what is missing.
//!
//! # Quickstart
//!
//! ```
//! use dragonfly::{DragonflyParams, DragonflySim, RoutingChoice, TrafficChoice};
//!
//! // A 72-terminal dragonfly (p = h = 2, a = 4), as in the paper's Fig 5.
//! let sim = DragonflySim::new(DragonflyParams::new(2, 4, 2).unwrap());
//! let mut cfg = sim.config(0.2);
//! cfg.warmup = 200;
//! cfg.measure = 500;
//! let stats = sim.run(RoutingChoice::UgalLVcH, TrafficChoice::Uniform, cfg);
//! assert!(stats.drained);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod butterfly;
pub mod campaign;
pub mod clos_sim;
mod experiment;
pub mod jobs;
pub mod network;
pub mod parallel;
mod params;
pub mod progress;
mod routing;
mod topology;
pub mod torus_sim;

pub use campaign::{CampaignError, CampaignKey, CampaignReport, CampaignStore, JournalRecord};
pub use dfly_netsim::{FaultClass, FaultPlan, SimError};
pub use experiment::{DragonflySim, LoadPoint, NetworkSim, RoutingChoice, TrafficChoice};
pub use jobs::{
    JobAssignment, JobBook, JobError, JobKind, JobLedger, JobMix, JobSpec, MixWorkload, Placement,
};
pub use parallel::{
    FaultPoint, FaultSweep, RunGrid, RunPlan, SlowdownPoint, WorkloadPoint, WorkloadSweep,
};
pub use params::DragonflyParams;
pub use progress::{ProgressSink, SweepProgress};
pub use routing::{trace_route, TraceHop, UgalVariant};
pub use topology::{ChannelLatencies, Dragonfly, GroupTopology};

//! `dfly-benchmark`: the repo's one benchmark. Seven named workloads,
//! twelve end-to-end metrics from an untraced run, a host-time cost
//! stack per layer from a separate traced run — all measured from
//! outside, through public functions of the simulator crates.
//!
//! See `README.md` in this directory for the tables and how to read
//! the numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod measure;
pub mod registry;
pub mod runner;
pub mod trace;
pub mod workloads;

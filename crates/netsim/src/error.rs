//! Typed errors for spec validation, configuration and route tracing.

use std::fmt;

use crate::health::StallReport;

/// An error raised while constructing or driving a simulation.
///
/// Every fallible entry point of the engine — [`crate::NetworkSpec::validated`],
/// [`crate::SimConfig::validate`], [`crate::Simulation::new`] and the route
/// walkers ([`crate::trace_path`]) — reports through this type, so callers can
/// match on the failure kind instead of parsing strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The network description is structurally invalid (dangling wiring,
    /// mismatched channel pairs, missing terminals, …).
    InvalidSpec(String),
    /// The simulation configuration is out of range.
    InvalidConfig(String),
    /// A route is malformed: it references an out-of-range terminal or
    /// ejects at the wrong one.
    InvalidRoute(String),
    /// A route failed to reach its ejection port within the hop bound
    /// derived from the topology diameter — the route computation loops.
    RouteLoop {
        /// Source terminal of the traced route.
        src: usize,
        /// Destination terminal of the traced route.
        dest: usize,
        /// The diameter-derived hop bound that was exceeded.
        bound: usize,
    },
    /// A fault plan is malformed: a fraction out of range, an explicit
    /// link that does not exist (or is a terminal channel), or a random
    /// draw over an empty candidate set.
    InvalidFaultPlan(String),
    /// A pair of terminals is disconnected: no alive path leads from
    /// `src` to `dest`. Raised when a fault plan is applied or a
    /// shortest-path table is built, so routing never discovers it as a
    /// hang.
    Unreachable {
        /// A terminal that lost connectivity.
        src: usize,
        /// A terminal it can no longer reach.
        dest: usize,
    },
    /// The stall watchdog observed a zero-progress window with packets
    /// still in flight: no flit advanced and no packet ejected for
    /// [`crate::SimConfig::watchdog_every`] cycles. The report names
    /// the hottest blocked resources; it is bit-identical at any shard
    /// count.
    Stalled(StallReport),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSpec(msg) => write!(f, "invalid network spec: {msg}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::InvalidRoute(msg) => write!(f, "invalid route: {msg}"),
            SimError::RouteLoop { src, dest, bound } => write!(
                f,
                "route {src} -> {dest} did not eject within {bound} hops: route loop"
            ),
            SimError::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            SimError::Unreachable { src, dest } => write!(
                f,
                "network is disconnected: terminal {src} cannot reach terminal {dest}"
            ),
            SimError::Stalled(report) => write!(f, "simulation stalled: {report}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_detail() {
        let e = SimError::InvalidSpec("router 3 port 1: peer missing".into());
        assert!(e.to_string().contains("invalid network spec"));
        assert!(e.to_string().contains("peer missing"));
        let e = SimError::RouteLoop {
            src: 4,
            dest: 9,
            bound: 6,
        };
        assert!(e.to_string().contains("4 -> 9"));
        assert!(e.to_string().contains("6 hops"));
    }

    #[test]
    fn fault_errors_display() {
        let e = SimError::InvalidFaultPlan("fraction 1.5 out of range".into());
        assert!(e.to_string().contains("invalid fault plan"));
        assert!(e.to_string().contains("1.5"));
        let e = SimError::Unreachable { src: 3, dest: 11 };
        assert!(e.to_string().contains("terminal 3"));
        assert!(e.to_string().contains("terminal 11"));
    }
}

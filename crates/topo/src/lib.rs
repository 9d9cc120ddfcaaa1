//! Interconnection-network topology substrate.
//!
//! This crate provides the *structural* parameters of the classical
//! topologies the dragonfly paper compares against — sizes, radices,
//! coordinates, link counts and minimal hop counts:
//!
//! * [`FlattenedButterfly`] — the k-ary n-flat of Kim, Dally & Abts
//!   (ISCA 2007), the closest competitor to the dragonfly.
//! * [`FoldedClos`] — the folded-Clos / fat-tree family.
//! * [`Torus`] — k-ary n-cube networks (e.g. the 3-D torus of the Cray T3E).
//!
//! The wiring itself lives in one place: the `dragonfly` crate turns each
//! of these (and the dragonfly) into a `dfly_netsim::NetworkSpec`, the
//! description the simulator runs, and graph questions such as diameter
//! and mean hop count are answered on that spec
//! (`NetworkSpec::diameter`, `NetworkSpec::average_hop_count`). The
//! cost model reads the same [`Topology`] trait.
//!
//! # Example
//!
//! ```
//! use dfly_topo::{FlattenedButterfly, Topology};
//!
//! // An 8-ary 2-flat with concentration 8: 64 routers, 512 terminals.
//! let fb = FlattenedButterfly::new(2, 8, 8);
//! assert_eq!(fb.num_terminals(), 512);
//! // One hop per dimension in which two routers differ.
//! assert_eq!(fb.min_hops(0, fb.num_routers() - 1), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clos;
mod flattened_butterfly;
mod torus;

pub use clos::FoldedClos;
pub use flattened_butterfly::FlattenedButterfly;
pub use torus::Torus;

/// A network topology's size: routers with terminals attached.
///
/// Implementations describe *structure only*; the wiring the simulator
/// runs is built in the `dragonfly` crate, and the cycle-accurate
/// behaviour (buffers, credits, routing) lives in `dfly-netsim`.
pub trait Topology {
    /// Human-readable topology name, e.g. `"flattened butterfly"`.
    fn name(&self) -> &'static str;

    /// Number of routers (switches) in the network.
    fn num_routers(&self) -> usize;

    /// Number of terminals (processing nodes) attached to the network.
    fn num_terminals(&self) -> usize;

    /// Radix of each router: terminal ports plus network ports.
    ///
    /// For irregular topologies this is the maximum radix over all routers.
    fn radix(&self) -> usize;
}

#[cfg(test)]
/// Hop counts from `start` over an undirected adjacency list, by
/// breadth-first search; `usize::MAX` marks routers it never reaches.
/// The structural formulas are checked against it.
fn bfs_hops(adj: &[Vec<usize>], start: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; adj.len()];
    dist[start] = 0;
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(r) = queue.pop_front() {
        for &peer in &adj[r] {
            if dist[peer] == usize::MAX {
                dist[peer] = dist[r] + 1;
                queue.push_back(peer);
            }
        }
    }
    dist
}

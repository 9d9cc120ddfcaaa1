//! Closed-form routing algebra.
//!
//! A [`RouteAlgebra`] answers every routing question — the minimal
//! first hop, the remaining hop count, the Valiant intermediate set,
//! the VC schedule — from `(router, dest)` index arithmetic. No
//! per-pair tables are built or stored: an implementation may keep only
//! tables sized by the router's radix (the dragonfly's slot, ring and
//! group-local tables, O(a·h + a² + g)), independent of node count,
//! which is what lets a million-terminal network route without an
//! O(routers²) `next_hop` matrix.
//!
//! Fault-free, every implementation is index math over those. Under an
//! active [`crate::FaultPlan`] implementations may consult the
//! lazily-built per-destination BFS columns of [`crate::FaultTable`] —
//! the one place tables are permitted, and then only for the
//! destinations that are actually routed to.

use crate::PortVc;

/// Computed routing (no per-pair tables) for a direct network: terminals
/// concentrated on routers, minimal paths, and a Valiant-style
/// non-minimal spread identified by per-topology integer tags.
///
/// The `salt` threaded through the minimal queries pre-selects among
/// parallel equivalent channels (e.g. the dragonfly's multiple global
/// channels per group pair); topologies with a unique minimal first
/// hop ignore it. All flits of a packet carry the same salt, so the
/// algebra is deterministic per packet.
pub trait RouteAlgebra {
    /// The router terminal `terminal` attaches to.
    fn terminal_router(&self, terminal: usize) -> usize;

    /// The port on [`Self::terminal_router`] that ejects to `terminal`.
    fn ejection_port(&self, terminal: usize) -> usize;

    /// First hop (output port + VC) of the salt-selected minimal route
    /// from `router` toward terminal `dest`. When `router` is already
    /// the destination's router this is the ejection hop on VC 0.
    fn minimal_port(&self, router: usize, dest: usize, salt: u32) -> PortVc;

    /// Router-to-router channel hops of that same minimal route
    /// (0 when `router` already hosts `dest`).
    fn minimal_hops(&self, router: usize, dest: usize, salt: u32) -> u32;

    /// Size of the Valiant intermediate set for packets from `router`
    /// to terminal `dest`: how many distinct non-minimal tags
    /// [`Self::valiant_tag`] can produce. Zero when the pair admits no
    /// useful detour (local traffic, or a topology/fault state whose
    /// routing rides tables instead of tags).
    fn valiant_degree(&self, router: usize, dest: usize) -> usize;

    /// The `i`-th Valiant tag for the pair, `i < valiant_degree`. The
    /// tag is the value stored in
    /// [`RouteInfo::non_minimal`](crate::RouteInfo::non_minimal) —
    /// an intermediate group (dragonfly), an intermediate router
    /// (flattened butterfly), an uplink index (folded Clos), or a
    /// `dim * 2 + direction` ring detour (torus).
    fn valiant_tag(&self, router: usize, dest: usize, i: usize) -> u32;

    /// Virtual channels the topology's deadlock-free schedule needs.
    fn vc_count(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-terminal, 2-router toy line to pin the trait's object
    /// safety and default-free surface.
    struct Line;

    impl RouteAlgebra for Line {
        fn terminal_router(&self, terminal: usize) -> usize {
            terminal / 2
        }
        fn ejection_port(&self, terminal: usize) -> usize {
            terminal % 2
        }
        fn minimal_port(&self, router: usize, dest: usize, _salt: u32) -> PortVc {
            if router == self.terminal_router(dest) {
                PortVc::new(self.ejection_port(dest), 0)
            } else {
                PortVc::new(2, 0)
            }
        }
        fn minimal_hops(&self, router: usize, dest: usize, _salt: u32) -> u32 {
            u32::from(router != self.terminal_router(dest))
        }
        fn valiant_degree(&self, _router: usize, _dest: usize) -> usize {
            0
        }
        fn valiant_tag(&self, _router: usize, _dest: usize, _i: usize) -> u32 {
            unreachable!("degree is zero")
        }
        fn vc_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn trait_is_object_safe_and_computes() {
        let alg: &dyn RouteAlgebra = &Line;
        assert_eq!(alg.terminal_router(3), 1);
        assert_eq!(alg.minimal_port(0, 3, 7), PortVc::new(2, 0));
        assert_eq!(alg.minimal_port(1, 3, 7), PortVc::new(1, 0));
        assert_eq!(alg.minimal_hops(0, 3, 7), 1);
        assert_eq!(alg.vc_count(), 1);
    }
}

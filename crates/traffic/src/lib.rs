//! Synthetic traffic patterns and injection processes.
//!
//! The dragonfly paper evaluates routing with synthetic traffic: packets
//! are injected by a Bernoulli process and destinations are drawn from a
//! pattern — *uniform random* for benign load and a *group-adversarial*
//! pattern (every node in group `i` sends to a random node in group
//! `i + 1`) as the worst case for minimal routing. This crate implements
//! those two plus the standard permutation patterns used throughout the
//! interconnection-network literature, and the injection processes that
//! drive them.
//!
//! # Example
//!
//! ```
//! use dfly_traffic::{GroupAdversarial, TrafficPattern, rng_for};
//!
//! // 72-terminal dragonfly with 8 terminals per group: group i -> i+1.
//! let wc = GroupAdversarial::next_group(72, 8);
//! let mut rng = rng_for(42, 0);
//! let dest = wc.destination(0, &mut rng);
//! assert!((8..16).contains(&dest)); // source group 0 targets group 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod injection;
mod pattern;
mod workload;

pub use error::ConfigError;
pub use injection::{Bernoulli, InjectionProcess, OnOff};
pub use pattern::{
    BitComplement, GroupAdversarial, Permutation, Shift, Tornado, TrafficPattern, Transpose,
    UniformRandom,
};
pub use workload::{
    AllReduce, AllReduceAlgo, AllToAll, Barrier, Delivery, Idle, MessageIntent, OpenLoop,
    RequestReply, Source, Workload, LOOKAHEAD,
};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds a deterministic small-state RNG from an experiment seed and a
/// stream index (e.g. one stream per terminal), so that runs are exactly
/// reproducible and streams are decorrelated.
pub fn rng_for(seed: u64, stream: u64) -> SmallRng {
    // SplitMix64 over (seed, stream) to derive a well-mixed 64-bit state.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    SmallRng::seed_from_u64(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn rng_streams_are_deterministic() {
        let mut a = rng_for(1, 7);
        let mut b = rng_for(1, 7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn rng_streams_differ() {
        let mut a = rng_for(1, 0);
        let mut b = rng_for(1, 1);
        let same = (0..16).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }
}

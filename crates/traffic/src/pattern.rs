//! Destination-selection patterns.

use rand::rngs::SmallRng;
use rand::Rng;

/// A synthetic traffic pattern: maps a source terminal to a destination
/// terminal, possibly randomly.
///
/// Implementations must return a destination in `0..num_terminals()`
/// different from `source` (self-traffic never enters the network and
/// would only distort offered-load accounting).
///
/// `Sync` is a supertrait: the sharded cycle engine shares one pattern
/// reference across its worker threads, each calling `destination`
/// with its own per-terminal RNG.
pub trait TrafficPattern: Sync {
    /// Short name used in reports, e.g. `"uniform random"`.
    fn name(&self) -> &'static str;

    /// Number of terminals the pattern is defined over.
    fn num_terminals(&self) -> usize;

    /// Picks the destination for a packet injected at `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source >= self.num_terminals()`.
    fn destination(&self, source: usize, rng: &mut SmallRng) -> usize;
}

/// Benign traffic: every packet targets a terminal chosen uniformly at
/// random (excluding the source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformRandom {
    terminals: usize,
}

impl UniformRandom {
    /// Creates the pattern over `terminals` terminals.
    ///
    /// # Panics
    ///
    /// Panics if `terminals < 2`.
    pub fn new(terminals: usize) -> Self {
        assert!(terminals >= 2, "uniform random needs >= 2 terminals");
        UniformRandom { terminals }
    }
}

impl TrafficPattern for UniformRandom {
    fn name(&self) -> &'static str {
        "uniform random"
    }

    fn num_terminals(&self) -> usize {
        self.terminals
    }

    fn destination(&self, source: usize, rng: &mut SmallRng) -> usize {
        assert!(source < self.terminals, "source {source} out of range");
        // Draw from 0..n-1 and skip over the source: uniform over the
        // other n-1 terminals without rejection sampling.
        let d = rng.gen_range(0..self.terminals - 1);
        if d >= source {
            d + 1
        } else {
            d
        }
    }
}

/// The paper's worst-case (WC) adversarial pattern: every terminal in
/// group `i` sends to a uniformly random terminal in group
/// `i + offset (mod g)`.
///
/// Under minimal routing all of a group's traffic then crowds onto the
/// few direct channels between the two groups (a single channel in a
/// maximum-size dragonfly), capping throughput at `1/(ah)`; non-minimal
/// routing is required to spread it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupAdversarial {
    terminals: usize,
    group_size: usize,
    offset: usize,
}

impl GroupAdversarial {
    /// Creates the pattern for `terminals` terminals in consecutive groups
    /// of `group_size`, targeting the group `offset` ahead.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero or does not divide `terminals`, if
    /// there are fewer than two groups, or if `offset` is congruent to 0
    /// modulo the group count (self-group traffic would defeat the
    /// pattern's purpose).
    pub fn new(terminals: usize, group_size: usize, offset: usize) -> Self {
        assert!(group_size > 0, "group size must be positive");
        assert!(
            terminals.is_multiple_of(group_size),
            "group size {group_size} must divide terminal count {terminals}"
        );
        let groups = terminals / group_size;
        assert!(groups >= 2, "adversarial pattern needs >= 2 groups");
        assert!(
            !offset.is_multiple_of(groups),
            "offset {offset} maps groups onto themselves"
        );
        GroupAdversarial {
            terminals,
            group_size,
            offset,
        }
    }

    /// The paper's WC pattern: `offset = 1` (group `i` → group `i+1`).
    pub fn next_group(terminals: usize, group_size: usize) -> Self {
        GroupAdversarial::new(terminals, group_size, 1)
    }

    /// Group-level tornado: `offset = ⌈g/2⌉ - 1` maximises the distance
    /// travelled around the "ring" of groups.
    ///
    /// # Panics
    ///
    /// Panics if the resulting offset is zero (fewer than four groups).
    pub fn tornado(terminals: usize, group_size: usize) -> Self {
        let groups = terminals / group_size.max(1);
        GroupAdversarial::new(terminals, group_size, groups.div_ceil(2) - 1)
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.terminals / self.group_size
    }

    /// Terminals per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Group offset applied to every packet.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl TrafficPattern for GroupAdversarial {
    fn name(&self) -> &'static str {
        "group adversarial"
    }

    fn num_terminals(&self) -> usize {
        self.terminals
    }

    fn destination(&self, source: usize, rng: &mut SmallRng) -> usize {
        assert!(source < self.terminals, "source {source} out of range");
        let group = source / self.group_size;
        let target_group = (group + self.offset) % self.groups();
        target_group * self.group_size + rng.gen_range(0..self.group_size)
    }
}

/// Bit-complement permutation: destination is the bitwise complement of
/// the source index. Requires a power-of-two terminal count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitComplement {
    terminals: usize,
}

impl BitComplement {
    /// Creates the pattern over `terminals` terminals.
    ///
    /// # Panics
    ///
    /// Panics unless `terminals` is a power of two and at least 2.
    pub fn new(terminals: usize) -> Self {
        assert!(
            terminals.is_power_of_two() && terminals >= 2,
            "bit complement needs a power-of-two terminal count"
        );
        BitComplement { terminals }
    }
}

impl TrafficPattern for BitComplement {
    fn name(&self) -> &'static str {
        "bit complement"
    }

    fn num_terminals(&self) -> usize {
        self.terminals
    }

    fn destination(&self, source: usize, _rng: &mut SmallRng) -> usize {
        assert!(source < self.terminals, "source {source} out of range");
        !source & (self.terminals - 1)
    }
}

/// Shift permutation: `dest = (source + delta) mod N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shift {
    terminals: usize,
    delta: usize,
}

impl Shift {
    /// Creates the pattern over `terminals` terminals with shift `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta % terminals == 0` (identity permutation) or
    /// `terminals == 0`.
    pub fn new(terminals: usize, delta: usize) -> Self {
        assert!(terminals > 0, "need >= 1 terminal");
        assert!(
            !delta.is_multiple_of(terminals),
            "shift of 0 is the identity"
        );
        Shift { terminals, delta }
    }
}

impl TrafficPattern for Shift {
    fn name(&self) -> &'static str {
        "shift"
    }

    fn num_terminals(&self) -> usize {
        self.terminals
    }

    fn destination(&self, source: usize, _rng: &mut SmallRng) -> usize {
        assert!(source < self.terminals, "source {source} out of range");
        (source + self.delta) % self.terminals
    }
}

/// Terminal-level tornado: shift by `⌈N/2⌉ - 1`, the classic worst case
/// for rings and tori.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tornado {
    inner: Shift,
}

impl Tornado {
    /// Creates the pattern over `terminals` terminals.
    ///
    /// # Panics
    ///
    /// Panics if `terminals < 4` (the shift would be zero).
    pub fn new(terminals: usize) -> Self {
        assert!(terminals >= 4, "tornado needs >= 4 terminals");
        Tornado {
            inner: Shift::new(terminals, terminals.div_ceil(2) - 1),
        }
    }
}

impl TrafficPattern for Tornado {
    fn name(&self) -> &'static str {
        "tornado"
    }

    fn num_terminals(&self) -> usize {
        self.inner.num_terminals()
    }

    fn destination(&self, source: usize, rng: &mut SmallRng) -> usize {
        self.inner.destination(source, rng)
    }
}

/// Matrix-transpose permutation: with `N = 2^(2b)` terminals viewed as
/// a `2^b x 2^b` matrix, terminal `(i, j)` sends to `(j, i)` — a classic
/// stress for networks whose bisection lies between the index halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transpose {
    terminals: usize,
    half_bits: u32,
}

impl Transpose {
    /// Creates the pattern over `terminals` terminals.
    ///
    /// # Panics
    ///
    /// Panics unless `terminals` is 4 or more and an even power of two.
    pub fn new(terminals: usize) -> Self {
        assert!(
            terminals >= 4 && terminals.is_power_of_two(),
            "transpose needs a power-of-two terminal count >= 4"
        );
        let bits = terminals.trailing_zeros();
        assert!(
            bits.is_multiple_of(2),
            "transpose needs an even power of two"
        );
        Transpose {
            terminals,
            half_bits: bits / 2,
        }
    }
}

impl TrafficPattern for Transpose {
    fn name(&self) -> &'static str {
        "transpose"
    }

    fn num_terminals(&self) -> usize {
        self.terminals
    }

    fn destination(&self, source: usize, rng: &mut SmallRng) -> usize {
        assert!(source < self.terminals, "source {source} out of range");
        let mask = (1usize << self.half_bits) - 1;
        let (i, j) = (source >> self.half_bits, source & mask);
        let dest = (j << self.half_bits) | i;
        if dest == source {
            // Diagonal elements are fixed points; redirect them
            // uniformly so the pattern stays self-traffic-free.
            let ur = UniformRandom::new(self.terminals);
            ur.destination(source, rng)
        } else {
            dest
        }
    }
}

/// An arbitrary fixed permutation of the terminals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    map: Vec<u32>,
}

impl Permutation {
    /// Creates the pattern from an explicit permutation vector.
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a permutation of `0..map.len()` or if any
    /// element is a fixed point (`map[i] == i`).
    pub fn new(map: Vec<u32>) -> Self {
        let n = map.len();
        let mut seen = vec![false; n];
        for (i, &d) in map.iter().enumerate() {
            let d = d as usize;
            assert!(d < n, "destination {d} out of range");
            assert!(!seen[d], "destination {d} repeated: not a permutation");
            assert!(d != i, "terminal {i} maps to itself");
            seen[d] = true;
        }
        Permutation { map }
    }

    /// Creates a uniformly random fixed-point-free permutation
    /// (derangement) over `terminals` terminals, by rejection.
    ///
    /// # Panics
    ///
    /// Panics if `terminals < 2`.
    pub fn random(terminals: usize, rng: &mut SmallRng) -> Self {
        assert!(terminals >= 2, "permutation needs >= 2 terminals");
        'retry: loop {
            let mut map: Vec<u32> = (0..terminals as u32).collect();
            // Fisher-Yates shuffle.
            for i in (1..terminals).rev() {
                let j = rng.gen_range(0..=i);
                map.swap(i, j);
            }
            for (i, &d) in map.iter().enumerate() {
                if d as usize == i {
                    continue 'retry;
                }
            }
            return Permutation { map };
        }
    }
}

impl TrafficPattern for Permutation {
    fn name(&self) -> &'static str {
        "permutation"
    }

    fn num_terminals(&self) -> usize {
        self.map.len()
    }

    fn destination(&self, source: usize, _rng: &mut SmallRng) -> usize {
        self.map[source] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_for;

    #[test]
    fn uniform_never_hits_source_and_covers_range() {
        let ur = UniformRandom::new(16);
        let mut rng = rng_for(3, 0);
        let mut hit = [false; 16];
        for _ in 0..2000 {
            let d = ur.destination(5, &mut rng);
            assert_ne!(d, 5);
            hit[d] = true;
        }
        let covered = hit.iter().filter(|&&h| h).count();
        assert_eq!(covered, 15, "all non-source terminals reachable");
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let n = 8;
        let ur = UniformRandom::new(n);
        let mut rng = rng_for(9, 0);
        let mut counts = vec![0usize; n];
        let trials = 70_000;
        for _ in 0..trials {
            counts[ur.destination(0, &mut rng)] += 1;
        }
        let expected = trials as f64 / (n - 1) as f64;
        for (d, &c) in counts.iter().enumerate().skip(1) {
            let err = (c as f64 - expected).abs() / expected;
            assert!(err < 0.05, "dest {d}: count {c} vs expected {expected}");
        }
    }

    #[test]
    fn adversarial_targets_next_group_only() {
        let wc = GroupAdversarial::next_group(72, 8);
        let mut rng = rng_for(1, 0);
        for src in 0..72 {
            for _ in 0..20 {
                let d = wc.destination(src, &mut rng);
                assert_eq!(d / 8, (src / 8 + 1) % 9, "src {src} dest {d}");
            }
        }
    }

    #[test]
    fn adversarial_wraps_last_group() {
        let wc = GroupAdversarial::next_group(24, 8);
        let mut rng = rng_for(2, 0);
        let d = wc.destination(23, &mut rng);
        assert!(d < 8, "last group wraps to group 0, got {d}");
    }

    #[test]
    fn group_tornado_offset() {
        let t = GroupAdversarial::tornado(90, 10); // 9 groups -> offset 4
        assert_eq!(t.offset(), 4);
    }

    #[test]
    #[should_panic(expected = "maps groups onto themselves")]
    fn adversarial_zero_offset_panics() {
        GroupAdversarial::new(72, 8, 9);
    }

    #[test]
    fn bit_complement_is_involution() {
        let bc = BitComplement::new(64);
        let mut rng = rng_for(0, 0);
        for s in 0..64 {
            let d = bc.destination(s, &mut rng);
            assert_eq!(bc.destination(d, &mut rng), s);
            assert_ne!(d, s);
        }
    }

    #[test]
    fn shift_and_tornado() {
        let mut rng = rng_for(0, 0);
        let sh = Shift::new(10, 3);
        assert_eq!(sh.destination(9, &mut rng), 2);
        let t = Tornado::new(10);
        assert_eq!(t.destination(0, &mut rng), 4);
    }

    #[test]
    fn random_permutation_is_derangement() {
        let mut rng = rng_for(5, 0);
        let p = Permutation::random(33, &mut rng);
        let mut seen = [false; 33];
        for s in 0..33 {
            let d = p.destination(s, &mut rng);
            assert_ne!(d, s);
            assert!(!seen[d]);
            seen[d] = true;
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_permutation_panics() {
        Permutation::new(vec![1, 0, 1, 2]);
    }
}

#[cfg(test)]
mod transpose_tests {
    use super::*;
    use crate::rng_for;

    #[test]
    fn transpose_is_involution_off_diagonal() {
        let t = Transpose::new(64); // 8x8
        let mut rng = rng_for(0, 0);
        for s in 0..64 {
            let d = t.destination(s, &mut rng);
            assert_ne!(d, s);
            let (i, j) = (s >> 3, s & 7);
            if i != j {
                assert_eq!(d, (j << 3) | i, "source {s}");
                assert_eq!(t.destination(d, &mut rng), s);
            }
        }
    }

    #[test]
    fn transpose_diagonal_redirects_in_range() {
        let t = Transpose::new(16); // 4x4, diagonal 0,5,10,15
        let mut rng = rng_for(1, 0);
        for s in [0usize, 5, 10, 15] {
            for _ in 0..20 {
                let d = t.destination(s, &mut rng);
                assert!(d < 16);
                assert_ne!(d, s);
            }
        }
    }

    #[test]
    #[should_panic(expected = "even power")]
    fn odd_power_rejected() {
        Transpose::new(32);
    }
}

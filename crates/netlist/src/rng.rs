//! A small, reproducible PRNG (xoshiro256** seeded via SplitMix64).
//!
//! Every stochastic procedure in the workspace — synthetic circuit
//! generation, LFSR seed selection, random target ordering — draws from this
//! generator so that experiments replay exactly from a `u64` seed. It is not
//! cryptographically secure and does not need to be.

/// xoshiro256** pseudo-random generator.
///
/// # Example
///
/// ```
/// use fbt_netlist::rng::Rng;
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a seed, expanded via SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut s = [next(), next(), next(), next()];
        if s == [0; 4] {
            s = [1, 2, 3, 4];
        }
        Rng { s }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        // Lemire-style rejection-free-enough mapping; bias is negligible for
        // the bounds used here (all far below 2^32).
        (((self.next_u64() >> 32) * bound as u64) >> 32) as usize
    }

    /// A pseudo-random boolean.
    pub fn bit(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A boolean that is `true` with probability `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Derive an independent child generator (for parallel sub-procedures
    /// that must not perturb the parent's stream).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50 elements almost surely move"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(9);
        assert!(!(0..100).any(|_| r.chance(0, 10)));
        assert!((0..100).all(|_| r.chance(10, 10)));
    }

    #[test]
    fn fork_diverges_from_parent() {
        let mut a = Rng::new(11);
        let mut child = a.fork();
        assert_ne!(a.next_u64(), child.next_u64());
    }
}

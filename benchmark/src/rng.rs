//! The benchmark's own input generator.
//!
//! Inputs must be a pure function of `--seed` and must not drift when
//! the repository's `rand` stand-in is refactored (the `inputs_hash` in
//! every result file pins them), so the generator lives here: SplitMix64
//! plus the three samplers the workloads need.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent generator for one named part of a workload's
    /// inputs, so adding a part never shifts the stream of another.
    pub fn fork(seed: u64, part: &str) -> SplitMix64 {
        SplitMix64(seed ^ fnv1a(part.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // 128-bit multiply-shift: unbiased enough for workload shaping
        // and free of the modulo's low-bit artefacts.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// 64-bit FNV-1a, used for stream forking.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = InputHasher::default();
    h.bytes(bytes);
    h.0
}

/// An incremental FNV-1a hasher over the generated inputs.
#[derive(Debug, Clone)]
pub struct InputHasher(u64);

impl Default for InputHasher {
    fn default() -> InputHasher {
        InputHasher(0xCBF2_9CE4_8422_2325)
    }
}

impl InputHasher {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Mixes one 64-bit word in.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Mixes a string in (length-prefixed, so `"ab","c"` ≠ `"a","bc"`).
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash so far, as the 16-hex-digit string result files carry.
    pub fn finish(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        SplitMix64::new(3).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn forked_streams_differ_by_part() {
        let a = SplitMix64::fork(5, "weights").next_u64();
        let b = SplitMix64::fork(5, "arrivals").next_u64();
        assert_ne!(a, b);
    }
}

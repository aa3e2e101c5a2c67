//! Small deterministic random-number utilities.
//!
//! `tinynn` (and the crates above it) must be bit-for-bit reproducible for
//! a given seed, so all stochastic choices flow through either
//! `rand::rngs::StdRng` seeded explicitly, or — on hot paths where we
//! want a tiny, inlineable generator — the [`SplitMix64`] implemented
//! here. SplitMix64 is the statistically solid 64-bit mixer from Steele,
//! Lea & Flood (OOPSLA'14); it is also what `rand` itself uses to seed
//! larger generators.

/// A 64-bit SplitMix generator. One `u64` of state, passes BigCrush when
/// used as a stream, and is ideal for deriving per-entity deterministic
/// pseudo-randomness from stable identifiers (hashes of names, positions,
/// seeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The raw generator state. `SplitMix64::new(rng.state())` rebuilds
    /// a generator whose future output is identical — the whole state is
    /// one `u64`, which is what lets suspended linking sessions
    /// checkpoint their merge RNG to disk and resume bit-exactly.
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "next_below(0)");
        // Multiply-shift rejection-free mapping; bias is < 2^-53 for the
        // n values used in this workspace (all far below 2^32).
        (self.next_f64() * n as f64) as usize
    }

    /// Standard normal via Box–Muller. Two uniforms per call; the second
    /// variate is discarded. Kept byte-for-byte as-is because frozen
    /// streams are pinned to this consumption pattern under the
    /// workspace's corpus-version contract (`simlm::CorpusVersion`):
    /// probe training and every corpus-shared stream (decisions,
    /// s-signal, softmax, layer directions) consume it sequentially.
    /// The hidden-state synthesis streams draw through
    /// [`SplitMix64::fill_gaussian`], which keeps both variates and
    /// wastes nothing — new bulk streams should start there; moving an
    /// existing stream means minting a new corpus version, never
    /// editing this sampler.
    #[inline]
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Both Box–Muller variates from one pair of uniforms. The first
    /// element is exactly what [`SplitMix64::next_gaussian`] returns
    /// from the same state (and both consume two uniforms), so taking
    /// `.0` is stream-compatible with the sequential sampler; the
    /// second element is the `r·sin θ` twin that `next_gaussian`
    /// throws away.
    #[inline]
    pub fn next_gaussian_pair(&mut self) -> (f64, f64) {
        // Avoid ln(0).
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        (r * theta.cos(), r * theta.sin())
    }

    /// Fill `out` with standard normals using both Box–Muller variates:
    /// two uniforms per *two* outputs instead of the two-per-one of
    /// repeated [`SplitMix64::next_gaussian`] calls — half the RNG
    /// draws and half the `ln`/`sqrt` evaluations for bulk synthesis.
    ///
    /// The resulting stream is NOT the same as `n` sequential
    /// `next_gaussian` calls (those discard every `sin` twin), so this
    /// must only be used where no consumer depends on the legacy
    /// stream.
    #[inline]
    pub fn fill_gaussian(&mut self, out: &mut [f64]) {
        let mut chunks = out.chunks_exact_mut(2);
        for pair in &mut chunks {
            let (a, b) = self.next_gaussian_pair();
            pair[0] = a;
            pair[1] = b;
        }
        if let [last] = chunks.into_remainder() {
            *last = self.next_gaussian();
        }
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Derive an independent child generator. Mixing the child index with
    /// a large odd constant keeps sibling streams decorrelated.
    #[inline]
    pub fn fork(&mut self, salt: u64) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

/// Stable 64-bit hash of a byte string (FNV-1a folded through SplitMix).
/// Used to derive deterministic pseudo-randomness from names: the same
/// table/column/question name always maps to the same latent draws, which
/// keeps whole-dataset regeneration stable across runs and platforms.
#[inline]
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // One SplitMix finalisation round to spread low-entropy inputs.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by a [`SplitMix64`].
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i + 1);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_roundtrips_mid_stream() {
        let mut a = SplitMix64::new(77);
        for _ in 0..13 {
            a.next_u64();
        }
        let mut b = SplitMix64::new(a.state());
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = SplitMix64::new(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SplitMix64::new(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gaussian_pair_first_matches_sequential_sampler() {
        // The pair sampler is a strict extension of `next_gaussian`:
        // same uniforms consumed, same first variate, same state after.
        let mut a = SplitMix64::new(99);
        let mut b = a;
        for _ in 0..200 {
            let lone = a.next_gaussian();
            let (first, second) = b.next_gaussian_pair();
            assert_eq!(lone.to_bits(), first.to_bits());
            assert_eq!(a, b, "pair call consumed a different uniform count");
            assert!(second.is_finite());
        }
    }

    #[test]
    fn gaussian_pair_second_variate_is_standard_normal() {
        // The recovered `sin` twin must be N(0,1) too — the whole point
        // of not discarding it.
        let mut rng = SplitMix64::new(21);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.next_gaussian_pair().1).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn fill_gaussian_matches_pair_stream_and_halves_draws() {
        let mut filled = SplitMix64::new(5);
        let mut paired = SplitMix64::new(5);
        let mut buf = [0.0f64; 33]; // odd length exercises the tail
        filled.fill_gaussian(&mut buf);
        for pair in buf.chunks_exact(2) {
            let (a, b) = paired.next_gaussian_pair();
            assert_eq!(pair[0].to_bits(), a.to_bits());
            assert_eq!(pair[1].to_bits(), b.to_bits());
        }
        // Odd tail falls back to the sequential sampler.
        assert_eq!(buf[32].to_bits(), paired.next_gaussian().to_bits());
        assert_eq!(filled, paired);
        // 33 outputs cost 17 pairs of uniforms (16 full + 1 tail), vs 33
        // pairs for the sequential sampler.
        let mut counter = SplitMix64::new(5);
        for _ in 0..34 {
            counter.next_u64();
        }
        assert_eq!(filled, counter, "fill consumed an unexpected draw count");
    }

    #[test]
    fn fill_gaussian_moments() {
        let mut rng = SplitMix64::new(17);
        let mut xs = vec![0.0f64; 50_000];
        rng.fill_gaussian(&mut xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
        // Adjacent cos/sin twins share a radius but must be linearly
        // uncorrelated.
        let corr: f64 = xs.chunks_exact(2).map(|p| p[0] * p[1]).sum::<f64>() / (n / 2.0);
        assert!(corr.abs() < 0.05, "pair correlation {corr}");
    }

    #[test]
    fn next_below_covers_range() {
        let mut rng = SplitMix64::new(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.next_below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn stable_hash_is_stable_and_spread() {
        assert_eq!(stable_hash(b"races"), stable_hash(b"races"));
        assert_ne!(stable_hash(b"races"), stable_hash(b"race"));
        assert_ne!(stable_hash(b""), 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        let mut rng = SplitMix64::new(9);
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input ordered");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SplitMix64::new(123);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let matches = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(matches, 0);
    }
}

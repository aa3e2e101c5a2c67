//! Small deterministic random-number utilities.
//!
//! `tinynn` (and the crates above it) must be bit-for-bit reproducible for
//! a given seed, so all stochastic choices flow through either
//! `rand::rngs::StdRng` seeded explicitly, or — on hot paths where we
//! want a tiny, inlineable generator — the [`SplitMix64`] implemented
//! here. SplitMix64 is the statistically solid 64-bit mixer from Steele,
//! Lea & Flood (OOPSLA'14); it is also what `rand` itself uses to seed
//! larger generators.

/// SplitMix64's Weyl increment: the state after `k` draws from seed `s`
/// is `s + k·GAMMA` (wrapping), which is what makes [`SplitMix64::jump`]
/// O(1).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

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
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Skip `n` draws: the state afterwards is the one `n` calls of
    /// [`SplitMix64::next_u64`] would leave. SplitMix64 is counter-based
    /// (the `k`-th state is `seed + k·γ`), so this costs one multiply.
    #[inline]
    fn jump(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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
    /// The hidden-state synthesis streams are defined by
    /// [`SplitMix64::fill_gaussian`], which keeps both variates and
    /// wastes nothing (synthesis computes them through
    /// [`SplitMix64::fill_gaussian_fast`]) — new bulk streams should
    /// start there; moving an existing stream means minting a new
    /// corpus version, never editing this sampler.
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

    /// The value [`SplitMix64::fill_gaussian`] writes at index `i` of a
    /// row drawn from this state, computed without drawing the values
    /// before it: the generator is jumped to the pair that holds `i`.
    /// An odd row's tail is the first variate of its pair, so this
    /// holds for every row length.
    #[inline]
    pub fn fill_gaussian_at(&self, i: usize) -> f64 {
        let mut rng = *self;
        rng.jump(2 * (i / 2) as u64);
        let (a, b) = rng.next_gaussian_pair();
        if i.is_multiple_of(2) {
            a
        } else {
            b
        }
    }

    /// [`SplitMix64::fill_gaussian`] through in-tree `ln` and `sincos`
    /// instead of libm: the same uniforms in the same order, and each
    /// output within [`GAUSS_ERR`] of the value `fill_gaussian` writes
    /// there (usually within a few ulp; see [`GAUSS_ERR`]). The state
    /// afterwards is the same too.
    ///
    /// Each block of up to 16 pairs is drawn into stack arrays first
    /// and then transformed by a branch-free loop the compiler
    /// vectorizes at both x86-64 ISA levels the workspace builds for:
    /// four `f64` lanes at `x86-64-v3` (AVX2, the default in
    /// `.cargo/config.toml`) and two at the SSE2 baseline. Each lane
    /// computes the same IEEE result, so the output bits do not depend
    /// on the level. A caller that needs
    /// `fill_gaussian`'s exact bits rounds with [`round_f32_within`]
    /// and recomputes the rare undecided value with
    /// [`SplitMix64::fill_gaussian_at`].
    pub fn fill_gaussian_fast(&mut self, out: &mut [f64]) {
        for chunk in out.chunks_mut(2 * GAUSS_BLOCK) {
            let pairs = chunk.len().div_ceil(2);
            // Unused lanes keep u1 = 1 (ln 1 = 0): finite, never read.
            let mut u1 = [1.0f64; GAUSS_BLOCK];
            let mut u2 = [0.0f64; GAUSS_BLOCK];
            for (a, b) in u1.iter_mut().zip(u2.iter_mut()).take(pairs) {
                // Avoid ln(0), exactly as `next_gaussian_pair` does.
                *a = self.next_f64().max(1e-12);
                *b = self.next_f64();
            }
            let mut c = [0.0f64; GAUSS_BLOCK];
            let mut s = [0.0f64; GAUSS_BLOCK];
            for i in 0..GAUSS_BLOCK {
                let r = (-2.0 * ln_fast(u1[i])).sqrt();
                // The same f64 product as `next_gaussian_pair`'s θ.
                let (cos, sin) = sincos_fast(2.0 * std::f64::consts::PI * u2[i]);
                c[i] = r * cos;
                s[i] = r * sin;
            }
            let mut out_pairs = chunk.chunks_exact_mut(2);
            for (i, pair) in (&mut out_pairs).enumerate() {
                pair[0] = c[i];
                pair[1] = s[i];
            }
            // Odd tail: the `cos` variate, like `fill_gaussian`'s
            // sequential draw from the same two uniforms.
            if let [last] = out_pairs.into_remainder() {
                *last = c[pairs - 1];
            }
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

/// Pairs of uniforms [`SplitMix64::fill_gaussian_fast`] transforms per
/// block: one 32-wide hidden-state row.
const GAUSS_BLOCK: usize = 16;

/// Absolute error bound, per variate, of
/// [`SplitMix64::fill_gaussian_fast`] against
/// [`SplitMix64::fill_gaussian`]: 2⁻⁴⁰ ≈ 9.1e-13.
///
/// Budget, for `r = √(−2 ln u₁) ≤ √(−2 ln 10⁻¹²) < 7.44`: both `ln`s
/// are within 1 ulp of the true logarithm, so the two `r` differ by at
/// most about `r·2⁻⁵¹ < 2⁻⁴⁸`; both `cos`/`sin` are within 2⁻⁵² of the
/// true value (the Cody–Waite reduction is exact up to one rounding),
/// a difference `r` scales to below 2⁻⁴⁸; the final products round
/// within `r·2⁻⁵³` each. The sum is below 2⁻⁴⁶, so the bound leaves a
/// factor of over 60. The largest difference measured over 10⁶ draws
/// is 2⁻⁵⁰, and a test holds it to `GAUSS_ERR / 100`.
pub const GAUSS_ERR: f64 = 1.0 / (1u64 << 40) as f64;

/// The `f32` that every `f64` within `err` of `v` rounds to, or `None`
/// when `[v − err, v + err]` straddles an `f32` rounding boundary.
///
/// `as f32` rounds monotonically, so when both ends of the interval
/// round to the same `f32`, so does every value between them. Bits are
/// compared, so an interval around zero whose ends round to `−0.0` and
/// `+0.0` is undecided. `err` must already cover the rounding of
/// `v ± err` itself.
#[inline]
pub fn round_f32_within(v: f64, err: f64) -> Option<f32> {
    let lo = (v - err) as f32;
    let hi = (v + err) as f32;
    (lo.to_bits() == hi.to_bits()).then_some(lo)
}

/// `1.5·2⁵²`: adding and subtracting it rounds an `f64` of magnitude
/// below 2⁵¹ to the nearest integer, ties to even, and leaves that
/// integer in the low mantissa bits of the sum, where `sincos_fast`
/// reads the quadrant. `f64::round` rounds ties away from zero;
/// `f64::round_ties_even` matches but is a libm call (`rint`) at the
/// baseline x86-64 ISA, which has no `roundsd` (at `x86-64-v3` it is
/// one `vroundsd`).
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Natural logarithm of a positive normal `x`, within 1 ulp. Branch-free
/// so that a loop over it vectorizes: an exponent split puts
/// `x = 2ᵏ·m` with `m ∈ [√2/2, √2)`, and `ln m = 2·atanh(f/(2+f))` for
/// `f = m − 1` is a minimax series (the coefficients of fdlibm's
/// `e_log.c`, after Cody & Waite).
#[inline(always)]
fn ln_fast(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000); // 0.6931471803691238
    const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76); // 1.9082149292705877e-10
    const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593); // 0.6666666666666735
    const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04); // 0.3999999999940942
    const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359); // 0.2857142874366239
    const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF); // 0.22222198432149784
    const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE); // 0.1818357216161805
    const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F); // 0.15313837699209373
    const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244); // 0.14798198605116586

    // High word shifted so that its exponent field reads k + 1023 for
    // m in [√2/2, √2) (0x3fe6a09e is the high word of √2/2).
    let bits = x.to_bits();
    let hx = (bits >> 32) + (0x3ff0_0000 - 0x3fe6_a09e);
    // k as an f64 without an int→float conversion: 2⁵² + (k + 1023)
    // is exact, and so is the subtraction.
    let k = f64::from_bits(0x4330_0000_0000_0000 | (hx >> 20)) - (4_503_599_627_370_496.0 + 1023.0);
    let m = f64::from_bits((((hx & 0x000f_ffff) + 0x3fe6_a09e) << 32) | (bits & 0xffff_ffff));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    s * (hfsq + t1 + t2) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `(cos θ, sin θ)` for `θ ∈ [0, 2π)`, each within 2⁻⁵² of the true
/// value. Branch-free: `θ` is reduced by the nearest multiple `k` of
/// π/2 with a two-part Cody–Waite constant (`k·PIO2_HI` is exact, and
/// so is `θ − k·PIO2_HI` by Sterbenz's lemma), the two minimax kernels
/// of fdlibm's `k_sin.c`/`k_cos.c` run on `|x| ≤ π/4`, and the quadrant
/// `k mod 4` swaps and negates their results by bit masks.
#[inline(always)]
fn sincos_fast(theta: f64) -> (f64, f64) {
    // π/2 to 33 bits, and the next 53 bits of π/2.
    const PIO2_HI: f64 = f64::from_bits(0x3FF9_21FB_5440_0000); // 1.5707963267341256
    const PIO2_LO: f64 = f64::from_bits(0x3DD0_B461_1A62_6331); // 6.077100506506192e-11
    const S1: f64 = f64::from_bits(0xBFC5_5555_5555_5549); // -0.16666666666666632
    const S2: f64 = f64::from_bits(0x3F81_1111_1110_F8A6); // 0.00833333333332249
    const S3: f64 = f64::from_bits(0xBF2A_01A0_19C1_61D5); // -0.0001984126982985795
    const S4: f64 = f64::from_bits(0x3EC7_1DE3_57B1_FE7D); // 2.7557313707070068e-06
    const S5: f64 = f64::from_bits(0xBE5A_E5E6_8A2B_9CEB); // -2.5050760253406863e-08
    const S6: f64 = f64::from_bits(0x3DE5_D93A_5ACF_D57C); // 1.58969099521155e-10
    const C1: f64 = f64::from_bits(0x3FA5_5555_5555_554C); // 0.0416666666666666
    const C2: f64 = f64::from_bits(0xBF56_C16C_16C1_5177); // -0.001388888888887411
    const C3: f64 = f64::from_bits(0x3EFA_01A0_19CB_1590); // 2.480158728947673e-05
    const C4: f64 = f64::from_bits(0xBE92_7E4F_809C_52AD); // -2.7557314351390663e-07
    const C5: f64 = f64::from_bits(0x3E21_EE9E_BDB4_B1C4); // 2.087572321298175e-09
    const C6: f64 = f64::from_bits(0xBDA8_FAE9_BE88_38D4); // -1.1359647557788195e-11
    let shifted = theta * std::f64::consts::FRAC_2_PI + ROUND_MAGIC;
    let k = shifted - ROUND_MAGIC;
    // The low mantissa bits of `shifted` hold k.
    let q = shifted.to_bits() & 3;
    let x = (theta - k * PIO2_HI) - k * PIO2_LO;
    let z = x * x;
    let sin_x = x + x * z * (S1 + z * (S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)))));
    let cos_x = 1.0 - (0.5 * z - z * z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6))))));
    // θ = kπ/2 + x: odd quadrants swap the kernels; cos is negated in
    // quadrants 1 and 2, sin in quadrants 2 and 3.
    let (c, s) = if q & 1 == 1 {
        (sin_x, cos_x)
    } else {
        (cos_x, sin_x)
    };
    let cos_sign = ((q + 1) & 2) << 62;
    let sin_sign = (q & 2) << 62;
    (
        f64::from_bits(c.to_bits() ^ cos_sign),
        f64::from_bits(s.to_bits() ^ sin_sign),
    )
}

/// Stable 64-bit hash of a byte string ([`fnv1a`] folded through
/// SplitMix). Used to derive deterministic pseudo-randomness from names:
/// the same table/column/question name always maps to the same latent
/// draws, which keeps whole-dataset regeneration stable across runs and
/// platforms.
#[inline]
pub fn stable_hash(bytes: &[u8]) -> u64 {
    fnv_finish(fnv1a(bytes))
}

/// Plain 64-bit FNV-1a of a byte string, fixed by its two published
/// constants: the same bytes hash the same on every run, host and
/// release.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

/// [`stable_hash`] of the concatenation of `parts`, without building
/// it.
#[inline]
pub fn stable_hash_parts(parts: &[&[u8]]) -> u64 {
    fnv_finish(parts.iter().fold(FNV_OFFSET, |h, part| fnv_fold(h, part)))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[inline(always)]
fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One SplitMix finalisation round to spread low-entropy inputs.
#[inline(always)]
fn fnv_finish(h: u64) -> u64 {
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
    fn jump_equals_repeated_draws() {
        for n in [0u64, 1, 2, 7, 32, 1000] {
            let mut jumped = SplitMix64::new(0xDEAD_BEEF);
            let mut stepped = jumped;
            jumped.jump(n);
            for _ in 0..n {
                stepped.next_u64();
            }
            assert_eq!(jumped, stepped, "jump({n})");
            assert_eq!(jumped.next_u64(), stepped.next_u64());
        }
    }

    #[test]
    fn fill_gaussian_at_matches_the_row() {
        for len in [1usize, 2, 5, 32, 33] {
            let rng = SplitMix64::new(len as u64 * 31);
            let mut row = vec![0.0f64; len];
            rng.clone().fill_gaussian(&mut row);
            for (i, v) in row.iter().enumerate() {
                assert_eq!(
                    rng.fill_gaussian_at(i).to_bits(),
                    v.to_bits(),
                    "len {len} i {i}"
                );
            }
        }
    }

    #[test]
    fn fast_fill_is_within_a_hundredth_of_its_bound() {
        // 10⁶ variates in rows of 32, the hidden-state shape.
        let mut max_err = 0.0f64;
        let mut reference = [0.0f64; 32];
        let mut fast = [0.0f64; 32];
        for seed in 0..31_250u64 {
            let mut a = SplitMix64::new(stable_hash(&seed.to_le_bytes()));
            let mut b = a;
            a.fill_gaussian(&mut reference);
            b.fill_gaussian_fast(&mut fast);
            assert_eq!(a, b, "fast fill consumed a different draw count");
            for (r, f) in reference.iter().zip(&fast) {
                max_err = max_err.max((r - f).abs());
            }
        }
        assert!(max_err <= GAUSS_ERR / 100.0, "max |g' - g| = {max_err:e}");
    }

    #[test]
    fn fast_fill_covers_the_extremes_of_its_uniforms() {
        // u1 at the 1e-12 floor (largest radius), at the exponent
        // split's √2/2 boundary and next to 1 (smallest radius); θ at
        // every multiple of π/4, where the reduction switches quadrant.
        let pi = std::f64::consts::PI;
        for u1 in [
            1e-12,
            1e-6,
            0.5,
            std::f64::consts::FRAC_1_SQRT_2,
            1.0 - 1.0 / (1u64 << 53) as f64,
        ] {
            for u2 in [
                0.0,
                0.125,
                0.25,
                0.375,
                0.5,
                0.625,
                0.75,
                0.875,
                0.999_999_999,
            ] {
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * pi * u2;
                let (c, s) = sincos_fast(theta);
                let rf = (-2.0 * ln_fast(u1)).sqrt();
                assert!(
                    (r * theta.cos() - rf * c).abs() <= GAUSS_ERR / 100.0,
                    "cos at {u1} {u2}"
                );
                assert!(
                    (r * theta.sin() - rf * s).abs() <= GAUSS_ERR / 100.0,
                    "sin at {u1} {u2}"
                );
            }
        }
    }

    #[test]
    fn fast_fill_odd_rows_match_the_tail_draw() {
        for len in [1usize, 3, 31, 33, 65] {
            let mut a = SplitMix64::new(len as u64);
            let mut b = a;
            let mut reference = vec![0.0f64; len];
            let mut fast = vec![0.0f64; len];
            a.fill_gaussian(&mut reference);
            b.fill_gaussian_fast(&mut fast);
            assert_eq!(a, b, "len {len}: draw count");
            for (r, f) in reference.iter().zip(&fast) {
                assert!((r - f).abs() <= GAUSS_ERR, "len {len}: {r} vs {f}");
            }
            // The tail is the `cos` variate of one more pair, as in
            // `next_gaussian`, and within the bound of it.
            let mut tail = SplitMix64::new(len as u64);
            tail.jump(2 * (len as u64 / 2));
            assert!((tail.next_gaussian() - fast[len - 1]).abs() <= GAUSS_ERR);
        }
    }

    /// What a caller that needs the reference's `f32` bits does: round
    /// `offset + g'` under the guard, and recompute an undecided value
    /// through `fill_gaussian_at`.
    fn guarded_f32(rng: &SplitMix64, fast: f64, i: usize, offset: f64) -> (f32, bool) {
        // The sum adds at most one rounding of |offset| + |g|.
        let err = GAUSS_ERR + 4.0 * f64::EPSILON * (offset.abs() + fast.abs());
        match round_f32_within(offset + fast, err) {
            Some(v) => (v, false),
            None => ((offset + rng.fill_gaussian_at(i)) as f32, true),
        }
    }

    #[test]
    fn guarded_fast_rounding_matches_the_reference_row() {
        let mut undecided = 0usize;
        for seed in 0..2_000u64 {
            let rng = SplitMix64::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
            let mut reference = [0.0f64; 33];
            let mut fast = [0.0f64; 33];
            rng.clone().fill_gaussian(&mut reference);
            rng.clone().fill_gaussian_fast(&mut fast);
            for (i, (r, f)) in reference.iter().zip(&fast).enumerate() {
                let (got, fell_back) = guarded_f32(&rng, *f, i, 0.0);
                undecided += fell_back as usize;
                assert_eq!(got.to_bits(), (*r as f32).to_bits(), "seed {seed} i {i}");
            }
        }
        // Values near zero have tiny f32 cells, so a few fall back.
        assert!(undecided < 200, "{undecided} of 66000 values undecided");
    }

    #[test]
    fn a_value_on_an_exact_f32_midpoint_takes_the_fallback() {
        // Shift reference variates onto the midpoint between two
        // adjacent f32s next to them: `offset = mid − g` is exact
        // (Sterbenz), so the reference sum is exactly `mid` and rounds
        // to the even neighbour, while the fast sum misses it by up to
        // GAUSS_ERR and may round either way. The guard must defer
        // every one of them.
        for seed in 0..64u64 {
            let rng = SplitMix64::new(seed);
            let mut fast = [0.0f64; 8];
            rng.clone().fill_gaussian_fast(&mut fast);
            for (i, f) in fast.iter().enumerate() {
                let g = rng.fill_gaussian_at(i);
                let below = g as f32;
                let above = f32::from_bits(below.to_bits() + 1);
                let mid = (below as f64 + above as f64) / 2.0;
                let offset = mid - g;
                assert_eq!(offset + g, mid, "crafted offset is not exact");
                let (got, fell_back) = guarded_f32(&rng, *f, i, offset);
                assert!(
                    fell_back,
                    "seed {seed} i {i}: midpoint decided by the fast value"
                );
                assert_eq!(got.to_bits(), (mid as f32).to_bits());
            }
        }
        // Signed zeros compare equal as floats but not as bits.
        assert_eq!(round_f32_within(0.0, 1e-300), None);
        assert_eq!(round_f32_within(-1e-300, 0.0), Some(-0.0));
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

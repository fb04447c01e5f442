//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the reproduction — weight initialization,
//! data synthesis, batch shuffling, DP noise, obfuscation values, Byzantine
//! behaviour — draws from [`Rng`], a hand-rolled xoshiro256\*\* generator
//! seeded through SplitMix64. Using one self-contained generator (rather than
//! the `rand` crate's thread-local entropy) makes every figure in the paper's
//! evaluation exactly reproducible from a single seed, and the
//! [`Rng::split`] operation derives independent streams per FL client so that
//! changing the number of clients does not perturb the other clients' draws.
//!
//! Scalar draws ([`Rng::normal`], [`Rng::uniform`]) walk the xoshiro stream
//! one sample at a time. Bulk draws ([`Rng::fill_normal`],
//! [`Rng::fill_uniform`], [`Rng::axpy_normal`] and the tensor constructors
//! built on them) instead consume two xoshiro outputs to key a fresh
//! counter-based stream ([`crate::cbrng::CbRng`]) and sample it with chunked,
//! autovectorized Box–Muller — an order of magnitude faster per element,
//! still a pure function of the seed/split hierarchy, and **cache-free**:
//! a bulk fill never consumes or leaves the scalar path's Box–Muller
//! half-sample, so interleaving scalar and bulk draws stays reproducible.
//!
//! [`Rng::advance`] skips a stream ahead by any number of raw outputs in
//! O(log n) time. A consumer whose items take a fixed number of draws can
//! therefore hand each parallel part a copy of the stream already at its
//! first item, and get the serial walk's output bit for bit at any pool
//! width — how `dinar-data`'s tabular generator fills its rows.

use crate::cbrng::CbRng;
use crate::{profile, Tensor};

/// Deterministic xoshiro256\*\* pseudo-random number generator.
///
/// # Example
///
/// ```
/// use dinar_tensor::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_cache: Option<f32>,
}

/// A serializable snapshot of an [`Rng`]'s full state, taken with
/// [`Rng::state`] and restored with [`Rng::from_state`]. This is what the
/// checkpoint plane persists so that a resumed run continues every client's
/// stream bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RngState {
    /// The four xoshiro256\*\* state words.
    pub words: [u64; 4],
    /// The in-flight Box–Muller half-sample, if a scalar Gaussian pair was
    /// split across the snapshot point.
    pub gauss_cache: Option<f32>,
}

/// One step of SplitMix64 (Steele, Lea & Flood 2014): advances `state` by
/// the golden-ratio increment and returns the mixed output.
///
/// It expands seeds into [`Rng`] state here, and it is the workspace's one
/// small counter-free mixer wherever a plain seeded `u64` stream suffices
/// (fault schedules, Byzantine vote draws).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The characteristic polynomial `P` of xoshiro256's state transition over
/// GF(2), below its monic `x²⁵⁶` term: bit `j % 64` of word `j / 64` is the
/// coefficient of `xʲ`. (Berlekamp–Massey over any state bit recovers it;
/// `x^(2¹²⁸) mod P` is the reference implementation's `JUMP` constant, which
/// a test checks.)
const CHARPOLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// A polynomial over GF(2) of degree below 256, laid out as [`CHARPOLY`].
type Poly256 = [u64; 4];

/// `xⁿ mod P`, by left-to-right square-and-multiply-by-`x`.
fn x_pow_mod_charpoly(n: u64) -> Poly256 {
    let mut r: Poly256 = [1, 0, 0, 0];
    for bit in (0..64 - n.leading_zeros()).rev() {
        r = square_mod_charpoly(r);
        if (n >> bit) & 1 == 1 {
            let carry = r[3] >> 63;
            r = [
                r[0] << 1,
                (r[1] << 1) | (r[0] >> 63),
                (r[2] << 1) | (r[1] >> 63),
                (r[3] << 1) | (r[2] >> 63),
            ];
            for (w, p) in r.iter_mut().zip(CHARPOLY) {
                *w ^= p & carry.wrapping_neg();
            }
        }
    }
    r
}

/// `a² mod P`. Squaring over GF(2) spreads coefficient `i` to `2i`; each
/// set coefficient `k ≥ 256` of the square is then replaced, from the top
/// down, by `x^(k−256)·(P − x²⁵⁶)`, which only sets coefficients below `k`.
fn square_mod_charpoly(a: Poly256) -> Poly256 {
    /// The 32 bits of `half` at the even bit positions of a word.
    fn spread(half: u64) -> u64 {
        let mut x = half & 0xFFFF_FFFF;
        x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
        x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
        x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        x = (x | (x << 2)) & 0x3333_3333_3333_3333;
        (x | (x << 1)) & 0x5555_5555_5555_5555
    }
    let mut wide = [0u64; 8];
    for (pair, &word) in wide.chunks_exact_mut(2).zip(&a) {
        pair[0] = spread(word);
        pair[1] = spread(word >> 32);
    }
    for top in (4..8).rev() {
        while wide[top] != 0 {
            let bit = 63 - wide[top].leading_zeros() as usize;
            wide[top] ^= 1 << bit;
            let shift = (top - 4) * 64 + bit;
            let (words, bits) = (shift / 64, shift % 64);
            for (i, &p) in CHARPOLY.iter().enumerate() {
                wide[words + i] ^= p << bits;
                if bits != 0 {
                    wide[words + i + 1] ^= p >> (64 - bits);
                }
            }
        }
    }
    [wide[0], wide[1], wide[2], wide[3]]
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four words of xoshiro state are expanded from the seed with
    /// SplitMix64, as recommended by the xoshiro authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        Rng {
            state,
            gauss_cache: None,
        }
    }

    /// Derives an independent generator for the given stream.
    ///
    /// Streams with distinct `(parent seed, stream)` pairs are statistically
    /// independent; FL clients each receive `rng.split(client_id)`.
    pub fn split(&self, stream: u64) -> Rng {
        // Mix the current state with the stream id through SplitMix64 so that
        // both distinct parents and distinct streams yield distinct children.
        let mut s = self.state[0]
            ^ self.state[1].rotate_left(17)
            ^ self.state[2].rotate_left(31)
            ^ self.state[3].rotate_left(47)
            ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        Rng {
            state,
            gauss_cache: None,
        }
    }

    /// Snapshots the full generator state for checkpointing: the four
    /// xoshiro words plus the Box–Muller half-sample cache. Restoring with
    /// [`Rng::from_state`] resumes the stream bit-exactly, including an
    /// in-flight scalar Gaussian pair.
    pub fn state(&self) -> RngState {
        RngState {
            words: self.state,
            gauss_cache: self.gauss_cache,
        }
    }

    /// Rebuilds a generator from a [`RngState`] snapshot; the restored
    /// stream continues exactly where [`Rng::state`] was taken.
    pub fn from_state(state: RngState) -> Rng {
        Rng {
            state: state.words,
            gauss_cache: state.gauss_cache,
        }
    }

    /// Next raw 64-bit output (xoshiro256\*\*).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Skips the stream ahead by exactly `n` raw outputs: the xoshiro words
    /// afterwards are those `n` calls of [`Rng::next_u64`] leave, and the
    /// Box–Muller cache is untouched.
    ///
    /// The state transition `T` is linear over GF(2), so `Tⁿ = q(T)` with
    /// `q = xⁿ mod P`, `P` its characteristic polynomial. `q` takes
    /// O(log n) squarings of a 256-bit polynomial; evaluating it costs one
    /// 256-step walk (the jump-ahead for F₂-linear generators of Haramoto et
    /// al. 2008). This is what lets a generator whose rows take a fixed
    /// number of draws hand each parallel part a stream already at its
    /// first row.
    pub fn advance(&mut self, n: u64) {
        let q = x_pow_mod_charpoly(n);
        let mut walker = self.clone();
        let mut acc = [0u64; 4];
        for coeff in 0..256 {
            if (q[coeff / 64] >> (coeff % 64)) & 1 == 1 {
                for (a, s) in acc.iter_mut().zip(walker.state) {
                    *a ^= s;
                }
            }
            walker.next_u64();
        }
        self.state = acc;
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // Take the top 24 bits for a uniformly distributed mantissa.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform_in requires lo <= hi, got {lo} > {hi}");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// Lemire's widening-multiply reduction (Lemire, "Fast Random Integer
    /// Generation in an Interval", 2019): `x·n / 2^64` maps the raw word
    /// into `[0, n)` with one multiply instead of a divide, and only the
    /// draws whose low product word falls below `2^64 mod n` — at most one
    /// slot per residue class — are rejected to remove the bias. The
    /// `2^64 mod n` divide itself is computed lazily, only on the (rare)
    /// `lo < n` path.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        let n = n as u64;
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            // 2^64 mod n, via (2^64 - n) mod n.
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.gauss_cache.take() {
            return z;
        }
        // u1 in (0, 1] to keep ln(u1) finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * (u1 as f64).ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2 as f64;
        self.gauss_cache = Some((r * theta.sin()) as f32);
        (r * theta.cos()) as f32
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.normal()
    }

    /// Bernoulli trial with success probability `p`.
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// Sample from a Dirichlet distribution with symmetric concentration
    /// `alpha` over `k` categories.
    ///
    /// Gamma variates are generated with the Marsaglia–Tsang method (with the
    /// `alpha < 1` boost). This drives the paper's non-IID partitioner (§5.8).
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0` or `k == 0`.
    pub fn dirichlet(&mut self, alpha: f64, k: usize) -> Vec<f64> {
        assert!(alpha > 0.0, "dirichlet requires alpha > 0");
        assert!(k > 0, "dirichlet requires k > 0");
        let mut draws: Vec<f64> = (0..k).map(|_| self.gamma(alpha)).collect();
        let total: f64 = draws.iter().sum();
        if total <= 0.0 {
            // Numerically degenerate (tiny alpha): fall back to a one-hot.
            let hot = self.below(k);
            return (0..k).map(|i| if i == hot { 1.0 } else { 0.0 }).collect();
        }
        for d in &mut draws {
            *d /= total;
        }
        draws
    }

    /// Gamma(shape, 1) variate via Marsaglia–Tsang.
    fn gamma(&mut self, shape: f64) -> f64 {
        if shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a + 1) * U^{1/a}.
            let u = (1.0 - self.uniform() as f64).max(f64::MIN_POSITIVE);
            return self.gamma(shape + 1.0) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal() as f64;
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = (1.0 - self.uniform() as f64).max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk sampling (counter-based fills)
    // ------------------------------------------------------------------

    /// Keys a fresh counter-based stream for one bulk fill: two xoshiro
    /// outputs become the 128-bit [`CbRng`] key, so every fill gets a
    /// distinct position-indexed stream that is still a pure function of
    /// the seed/split hierarchy. Deliberately does **not** touch
    /// `gauss_cache` — bulk fills are cache-free by construction.
    fn derive_cb(&mut self) -> CbRng {
        let key0 = self.next_u64();
        let key1 = self.next_u64();
        CbRng::new(key0, key1)
    }

    /// Fills `out` with i.i.d. uniform samples in `[0, 1)`.
    ///
    /// Chunked counter-based path: element `i` equals the keyed stream's
    /// [`CbRng::ref_uniform`]`(i)` bit-for-bit. An empty `out` consumes no
    /// generator state.
    pub fn fill_uniform(&mut self, out: &mut [f32]) {
        if out.is_empty() {
            return;
        }
        profile::record_rng_samples(out.len());
        self.derive_cb().fill_uniform(out);
    }

    /// Fills `out` with i.i.d. uniform samples in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn fill_uniform_in(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        assert!(
            lo <= hi,
            "fill_uniform_in requires lo <= hi, got {lo} > {hi}"
        );
        self.fill_uniform(out);
        for x in out {
            *x = lo + (hi - lo) * *x;
        }
    }

    /// Fills `out` with i.i.d. standard normal samples (chunked
    /// counter-based Box–Muller; see the module docs).
    pub fn fill_normal(&mut self, out: &mut [f32]) {
        self.fill_normal_with(out, 0.0, 1.0);
    }

    /// Fills `out` with i.i.d. `N(mean, std_dev²)` samples.
    pub fn fill_normal_with(&mut self, out: &mut [f32], mean: f32, std_dev: f32) {
        if out.is_empty() {
            return;
        }
        profile::record_rng_samples(out.len());
        self.derive_cb().fill_normal(0, out, mean, std_dev);
    }

    /// Adds `std_dev · zᵢ` to every element of `out`, with `zᵢ` i.i.d.
    /// standard normal — the in-place shape every noise mechanism needs
    /// (DP/CDP/DP-SGD noising, SA pairwise masks). Negating `std_dev`
    /// negates each contribution exactly, so a pair of calls with the same
    /// stream and opposite signs cancels bit-exactly.
    pub fn axpy_normal(&mut self, out: &mut [f32], std_dev: f32) {
        if out.is_empty() {
            return;
        }
        profile::record_rng_samples(out.len());
        self.derive_cb().axpy_normal(0, out, std_dev);
    }

    /// Writes `out[i] = f(a[i], b[i], zᵢ)`, with `zᵢ` i.i.d. standard
    /// normal: [`Rng::axpy_normal`]'s stream and samples, for mechanisms
    /// that fold an elementwise pass over two operands into the noise pass
    /// (`f = |t, b, z| ((t − b)·c + z·σ) + b` is clip, noise and add-back in
    /// one write). An empty `out` consumes no generator state.
    ///
    /// # Panics
    ///
    /// Panics unless `a`, `b` and `out` have one length.
    pub fn zip_normal(
        &mut self,
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        f: impl Fn(f32, f32, f32) -> f32,
    ) {
        if out.is_empty() {
            return;
        }
        profile::record_rng_samples(out.len());
        self.derive_cb().zip_normal(0, out, a, b, f);
    }

    // ------------------------------------------------------------------
    // Tensor sampling
    // ------------------------------------------------------------------

    /// Tensor of i.i.d. standard normal samples (bulk counter-based path).
    pub fn randn(&mut self, shape: &[usize]) -> Tensor {
        let mut t = Tensor::zeros(shape);
        self.fill_normal(t.as_mut_slice());
        t
    }

    /// Tensor of i.i.d. normal samples with given mean and standard deviation.
    pub fn randn_with(&mut self, shape: &[usize], mean: f32, std_dev: f32) -> Tensor {
        let mut t = Tensor::zeros(shape);
        self.fill_normal_with(t.as_mut_slice(), mean, std_dev);
        t
    }

    /// Overwrites an existing tensor with i.i.d. standard normal samples —
    /// [`Rng::randn`] without the allocation, for round loops that reuse a
    /// noise buffer.
    pub fn randn_into(&mut self, out: &mut Tensor) {
        self.fill_normal(out.as_mut_slice());
    }

    /// Tensor of i.i.d. uniform samples in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn rand_uniform(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let mut t = Tensor::zeros(shape);
        self.fill_uniform_in(t.as_mut_slice(), lo, hi);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_deterministic_and_distinct() {
        let root = Rng::seed_from(99);
        let mut c0 = root.split(0);
        let mut c0_again = root.split(0);
        let mut c1 = root.split(1);
        assert_eq!(c0.next_u64(), c0_again.next_u64());
        assert_ne!(c0.next_u64(), c1.next_u64());
    }

    #[test]
    fn advance_equals_stepping_on_root_and_split_streams() {
        let root = Rng::seed_from(21);
        for stream in [root.clone(), root.split(0), root.split(7)] {
            for n in [0u64, 1, 63, 64, 255, 256, 257, (1 << 20) + 3] {
                let mut stepped = stream.clone();
                for _ in 0..n {
                    stepped.next_u64();
                }
                let mut jumped = stream.clone();
                jumped.advance(n);
                assert_eq!(jumped.state(), stepped.state(), "n = {n}");
                assert_eq!(jumped.next_u64(), stepped.next_u64(), "n = {n}");
            }
        }
    }

    #[test]
    fn advance_keeps_the_box_muller_half_sample() {
        let mut rng = Rng::seed_from(22);
        rng.normal();
        let cached = rng.state().gauss_cache;
        assert!(cached.is_some());
        rng.advance(1_000);
        assert_eq!(rng.state().gauss_cache, cached);
    }

    #[test]
    fn charpoly_reproduces_the_reference_jump_polynomials() {
        // xoshiro256's published `jump()` (2¹²⁸ steps) and `long_jump()`
        // (2¹⁹² steps) are these powers of x reduced mod P: x squared 128
        // and 192 times.
        let x_to_2_pow = |k: usize| (0..k).fold([2, 0, 0, 0], |r, _| square_mod_charpoly(r));
        assert_eq!(
            x_to_2_pow(128),
            [
                0x180e_c6d3_3cfd_0aba,
                0xd5a6_1266_f0c9_392c,
                0xa958_2618_e03f_c9aa,
                0x39ab_dc45_29b1_661c
            ]
        );
        assert_eq!(
            x_to_2_pow(192),
            [
                0x76e1_5d3e_fefd_cbbf,
                0xc500_4e44_1c52_2fb3,
                0x7771_0069_854e_e241,
                0x3910_9bb0_2acb_e635
            ]
        );
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Rng::seed_from(4);
        let mean: f32 = (0..20_000).map(|_| rng.uniform()).sum::<f32>() / 20_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from(5);
        let n = 40_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seed_from(6);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_is_unbiased_across_buckets() {
        // The old plain-modulo code this replaced would also pass a loose
        // frequency check, so pin the bound tight: with 70_000 draws over 7
        // buckets, each count is Binomial(70_000, 1/7) with σ ≈ 92; ±5σ
        // keeps the flake rate negligible while catching any systematic
        // residue-class bias.
        let mut rng = Rng::seed_from(13);
        let trials = 70_000usize;
        let mut counts = [0usize; 7];
        for _ in 0..trials {
            counts[rng.below(7)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let dev = c as f64 - trials as f64 / 7.0;
            assert!(dev.abs() < 5.0 * 92.0, "bucket {i}: count {c}");
        }
        // Edge widths: powers of two never reject, u64-scale widths
        // exercise the threshold path.
        for &n in &[1usize, 2, 1 << 20, usize::MAX] {
            let v = rng.below(n);
            assert!(v < n);
        }
    }

    #[test]
    fn bulk_fill_matches_scalar_reference_stream() {
        // The fill must be bit-identical to deriving the same counter-based
        // key by hand and walking the scalar reference path.
        let mut rng = Rng::seed_from(14);
        let mut twin = rng.clone();
        let mut out = vec![0.0f32; 1001];
        rng.fill_normal_with(&mut out, 0.25, 1.75);
        let cb = CbRng::new(twin.next_u64(), twin.next_u64());
        for (i, &v) in out.iter().enumerate() {
            let (z0, z1) = cb.ref_normal_pair(i / 2);
            let z = if i % 2 == 0 { z0 } else { z1 };
            let want = z * 1.75 + 0.25;
            assert_eq!(v.to_bits(), want.to_bits(), "i={i}");
        }
    }

    #[test]
    fn bulk_fills_leave_the_scalar_cache_alone() {
        // Regression for the gauss_cache hazard: a bulk fill between two
        // scalar draws must neither consume nor replace the cached
        // Box–Muller half-sample.
        let mut with_fill = Rng::seed_from(15);
        let mut without = Rng::seed_from(15);
        let a = with_fill.normal(); // primes the sin-half cache
        let b = without.normal();
        assert_eq!(a.to_bits(), b.to_bits());
        let mut buf = vec![0.0f32; 33]; // odd length: no half-sample spare
        with_fill.fill_normal(&mut buf);
        // The very next scalar draw delivers the same cached half.
        assert_eq!(with_fill.normal().to_bits(), without.normal().to_bits());
    }

    #[test]
    fn split_streams_fill_independently() {
        let root = Rng::seed_from(16);
        let mut a = vec![0.0f32; 256];
        let mut b = vec![0.0f32; 256];
        root.split(0).fill_normal(&mut a);
        root.split(1).fill_normal(&mut b);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() != y.to_bits()));
        // Same split, same stream.
        let mut a2 = vec![0.0f32; 256];
        root.split(0).fill_normal(&mut a2);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            a2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn bulk_moments_and_uniform_range() {
        let mut rng = Rng::seed_from(17);
        let mut z = vec![0.0f32; 100_000];
        rng.fill_normal(&mut z);
        let mean = z.iter().map(|&x| x as f64).sum::<f64>() / z.len() as f64;
        let var = z.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 0.015, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");

        let mut u = vec![0.0f32; 10_000];
        rng.fill_uniform_in(&mut u, -0.5, 0.5);
        assert!(u.iter().all(|&x| (-0.5..0.5).contains(&x)));
        let umean = u.iter().map(|&x| x as f64).sum::<f64>() / u.len() as f64;
        assert!(umean.abs() < 0.01, "umean={umean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(8);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = Rng::seed_from(9);
        for &alpha in &[0.1, 0.8, 2.0, 5.0, 100.0] {
            let p = rng.dirichlet(alpha, 10);
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "alpha={alpha} total={total}");
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn dirichlet_concentration_controls_spread() {
        // Low alpha -> spiky distributions; high alpha -> near-uniform.
        let mut rng = Rng::seed_from(10);
        let spiky: f64 = (0..200)
            .map(|_| rng.dirichlet(0.1, 10).into_iter().fold(0.0f64, f64::max))
            .sum::<f64>()
            / 200.0;
        let flat: f64 = (0..200)
            .map(|_| rng.dirichlet(100.0, 10).into_iter().fold(0.0f64, f64::max))
            .sum::<f64>()
            / 200.0;
        assert!(
            spiky > flat + 0.3,
            "expected spiky ({spiky}) >> flat ({flat})"
        );
    }

    #[test]
    fn randn_tensor_shape() {
        let mut rng = Rng::seed_from(11);
        let t = rng.randn(&[3, 4]);
        assert_eq!(t.shape(), &[3, 4]);
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = Rng::seed_from(12);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((hits as f32 / 10_000.0 - 0.3).abs() < 0.02);
    }
}

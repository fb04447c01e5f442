//! Counter-based bulk sampling: position-indexed uniform and Gaussian
//! streams.
//!
//! [`crate::Rng`] (xoshiro256\*\*) is a *sequential* generator: sample `i+1`
//! cannot start before sample `i` finished, and its Box–Muller path pays two
//! `f64` libm calls per pair. That is fine for scalar draws, but since the
//! defense layer noises every parameter in place each round, bulk sampling
//! became the dominant per-round defense cost (~19 ns/element — an order of
//! magnitude slower than the matmul kernels it rides alongside).
//!
//! [`CbRng`] removes the sequential dependency: it is a Philox-style
//! counter-based generator (Salmon et al., "Parallel Random Numbers: As Easy
//! as 1, 2, 3", SC'11) whose output at position `i` is a pure function
//! `(key, i) → bits`. A bulk fill is then an embarrassingly parallel map
//! over positions, written as straight-line chunk loops over fixed-size
//! arrays that the compiler autovectorizes. All element math is `f32` with
//! explicit polynomial kernels (`ln_unit` and its siblings below) instead of
//! `f64` libm, so one Gaussian sample costs a handful of vector lanes.
//!
//! # Stream layout (the spec)
//!
//! The **scalar reference path is the spec**: [`CbRng::ref_uniform`] and
//! [`CbRng::ref_normal_pair`] define, element by element, exactly what every
//! bulk fill must produce; `tests` assert bit-identity between the chunked
//! and reference paths for every seed they try. The layout:
//!
//! * Counter block `b` (a `u64`) expands through Philox-2x64-10 to two
//!   output words `(y0, y1)`.
//! * Each word yields two 24-bit uniform lanes: bits `[40, 64)` and
//!   `[16, 40)`. Uniform element `i` therefore reads block `i / 4`,
//!   lane `i % 4`.
//! * Gaussian pair `p` reads block `p / 2`, word `p % 2`: `u1` from the
//!   high lane, `u2` from the low lane, mapped through Box–Muller
//!   (`z0 = r·cosθ`, `z1 = r·sinθ`). Gaussian element `i` is half `i % 2`
//!   of pair `i / 2` — so an odd-length fill simply discards the last
//!   `z1` instead of caching it (no `gauss_cache` hazard; see
//!   [`crate::Rng::fill_normal`]).
//! * A Gaussian fill may start at any position `start`: its element `k` is
//!   Gaussian element `start + k`. The chunked loop takes the elements up to
//!   the next multiple of the chunk length through the scalar reference,
//!   then runs its chunks on that grid — so a consumer can hand disjoint
//!   position ranges of one stream to parallel parts.
//!
//! # Determinism argument
//!
//! The chunked loops are *stage-split* (generate counters → Philox → lane
//! extraction → `ln`/`sqrt` → `sin`/`cos` → scale), but every stage applies
//! the same per-element scalar operation the reference path applies, and no
//! stage combines values across elements. Rust/LLVM never reassociates or
//! contracts float expressions, so splitting a per-element computation
//! across stage loops (or across SIMD lanes) cannot change any element's
//! bit pattern. Chunk boundaries select *when* an element is computed,
//! never *how* — the same argument `par` makes for partition boundaries.

/// Philox-2x64 multiplier (Random123's `PHILOX_M2x64_0`).
const PHILOX_M: u64 = 0xD2B7_4407_B1CE_6E93;
/// Philox Weyl key increment (the golden-ratio constant, as in Random123).
const PHILOX_W: u64 = 0x9E37_79B9_7F4A_7C15;
/// Philox rounds. 10 is Random123's recommended safety margin (BigCrush
/// passes from 6).
const PHILOX_ROUNDS: u32 = 10;

/// Scale mapping a 24-bit lane to `[0, 1)` with an exactly-representable
/// step.
const U24_SCALE: f32 = 1.0 / (1u32 << 24) as f32;

/// Gaussian samples per chunk of the stage-split fill loops. 128 normals =
/// 64 Box–Muller pairs = 32 Philox blocks; the stage arrays stay well under
/// 2 KiB so they live in L1 (and in registers once vectorized).
const CHUNK: usize = 128;
/// Box–Muller pairs per chunk.
const PAIRS: usize = CHUNK / 2;
/// Philox blocks per chunk.
const BLOCKS: usize = CHUNK / 4;

/// A counter-based (Philox-2x64-10) generator: a pure function from
/// `(key, position)` to output bits.
///
/// Keys are 128 bits: `key0` seeds the Philox round-key schedule and `key1`
/// occupies the second counter word, so distinct `(key0, key1)` pairs index
/// statistically independent streams. [`crate::Rng`] derives a fresh key
/// pair from its own (split-derived) state for every bulk fill, which ties
/// every bulk stream into the existing seed/split hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct CbRng {
    key0: u64,
    key1: u64,
}

/// One Philox-2x64 round: multiply-hi/lo mix of the counter word, keyed.
#[inline]
fn philox_round(x0: u64, x1: u64, k: u64) -> (u64, u64) {
    let prod = u128::from(x0) * u128::from(PHILOX_M);
    let hi = (prod >> 64) as u64;
    let lo = prod as u64;
    (hi ^ k ^ x1, lo)
}

impl CbRng {
    /// A generator for the stream identified by the 128-bit key.
    pub fn new(key0: u64, key1: u64) -> Self {
        CbRng { key0, key1 }
    }

    /// The two output words of counter block `b` (Philox-2x64-10).
    #[inline]
    pub fn block(&self, b: u64) -> [u64; 2] {
        let mut x0 = b;
        let mut x1 = self.key1;
        let mut k = self.key0;
        let mut r = 0;
        while r < PHILOX_ROUNDS {
            (x0, x1) = philox_round(x0, x1, k);
            k = k.wrapping_add(PHILOX_W);
            r += 1;
        }
        [x0, x1]
    }

    /// The round keys [`CbRng::block`] walks through, computed once.
    fn round_keys(&self) -> [u64; PHILOX_ROUNDS as usize] {
        std::array::from_fn(|r| self.key0.wrapping_add(PHILOX_W.wrapping_mul(r as u64)))
    }

    /// Blocks `b..b + 4`, each exactly [`CbRng::block`]: the four advance
    /// through the rounds in lockstep, so their independent multiplies
    /// overlap instead of forming one latency chain.
    #[inline(always)]
    fn blocks4(&self, keys: &[u64; PHILOX_ROUNDS as usize], b: u64) -> [[u64; 2]; 4] {
        let mut x0: [u64; 4] = std::array::from_fn(|i| b + i as u64);
        let mut x1 = [self.key1; 4];
        for &k in keys {
            for (x0, x1) in x0.iter_mut().zip(&mut x1) {
                (*x0, *x1) = philox_round(*x0, *x1, k);
            }
        }
        std::array::from_fn(|i| [x0[i], x1[i]])
    }

    // ------------------------------------------------------------------
    // Scalar reference path — the spec for the chunked fills
    // ------------------------------------------------------------------

    /// Uniform element `i` of this stream, in `[0, 1)` (24-bit grid).
    pub fn ref_uniform(&self, i: usize) -> f32 {
        let y = self.block((i / 4) as u64);
        let word = y[(i / 2) & 1];
        lane_low(word, i & 1)
    }

    /// Box–Muller pair `p` of this stream: `(z0, z1)`, both standard
    /// normal. Gaussian element `i` is half `i % 2` of pair `i / 2`.
    pub fn ref_normal_pair(&self, p: usize) -> (f32, f32) {
        let y = self.block((p / 2) as u64);
        let word = y[p & 1];
        box_muller(lane_hi24(word), lane_mid24(word))
    }

    // ------------------------------------------------------------------
    // Chunked fills
    // ------------------------------------------------------------------

    /// Fills `out` with uniform samples in `[0, 1)`: element `i` is
    /// [`CbRng::ref_uniform`]`(i)`, computed in autovectorizable chunks.
    pub fn fill_uniform(&self, out: &mut [f32]) {
        let keys = self.round_keys();
        let mut chunks = out.chunks_exact_mut(CHUNK);
        let mut base = 0usize;
        for chunk in &mut chunks {
            let mut lanes = [0i32; CHUNK];
            for (g, group) in lanes.chunks_exact_mut(16).enumerate() {
                let ys = self.blocks4(&keys, (base / 4 + 4 * g) as u64);
                for (quad, y) in group.chunks_exact_mut(4).zip(ys) {
                    quad[0] = hi24_bits(y[0]);
                    quad[1] = mid24_bits(y[0]);
                    quad[2] = hi24_bits(y[1]);
                    quad[3] = mid24_bits(y[1]);
                }
            }
            for (o, &l) in chunk.iter_mut().zip(&lanes) {
                *o = l as f32 * U24_SCALE;
            }
            base += CHUNK;
        }
        for (i, o) in chunks.into_remainder().iter_mut().enumerate() {
            *o = self.ref_uniform(base + i);
        }
    }

    /// Stages 1–3 of one chunk of the stage-split Gaussian sampler: the
    /// Box–Muller factors of the [`PAIRS`] pairs starting at element `base`
    /// (a multiple of [`CHUNK`]), as `(r, cos θ, sin θ)`. Pair `p` of the
    /// chunk is `z0 = r[p]·cos[p]`, `z1 = r[p]·sin[p]` — stage 4, which
    /// each caller fuses with its own write.
    #[inline(always)]
    fn pair_factors(&self, base: usize) -> ([f32; PAIRS], [f32; PAIRS], [f32; PAIRS]) {
        // Stage 1 (scalar integer): Philox blocks -> 24-bit lanes, four
        // blocks in lockstep.
        let keys = self.round_keys();
        let mut u1 = [0i32; PAIRS];
        let mut u2 = [0i32; PAIRS];
        for g in (0..BLOCKS).step_by(4) {
            let ys = self.blocks4(&keys, (base / 4 + g) as u64);
            for (bi, y) in (g..).zip(ys) {
                u1[2 * bi] = hi24_bits(y[0]);
                u2[2 * bi] = mid24_bits(y[0]);
                u1[2 * bi + 1] = hi24_bits(y[1]);
                u2[2 * bi + 1] = mid24_bits(y[1]);
            }
        }
        // Stage 2 (vectorizable): radius r = sqrt(-2 ln u1).
        let mut r = [0.0f32; PAIRS];
        for (ri, &l) in r.iter_mut().zip(&u1) {
            *ri = radius(l);
        }
        // Stage 3 (vectorizable): angle factors cos θ, sin θ.
        let mut cv = [0.0f32; PAIRS];
        let mut sv = [0.0f32; PAIRS];
        for ((ci, si), &l) in cv.iter_mut().zip(&mut sv).zip(&u2) {
            (*ci, *si) = cos_sin_turn(l);
        }
        (r, cv, sv)
    }

    /// Standard normal element `i` of this stream, through the scalar
    /// reference path (the heads and tails off the chunk grid).
    #[inline]
    fn ref_normal(&self, i: usize) -> f32 {
        let (z0, z1) = self.ref_normal_pair(i / 2);
        if i.is_multiple_of(2) {
            z0
        } else {
            z1
        }
    }

    /// Maps `out` in place through `f(old, z)` where `z` is the standard
    /// normal sample at position `start + k` of this stream for `out[k]` —
    /// bit-identical to driving [`CbRng::ref_normal_pair`] element by
    /// element. This one chunked loop backs overwriting fills
    /// (`f = |_, z| z·σ + µ`) and accumulating noise (`f = |x, z| x + z·σ`)
    /// without duplicating the sampler.
    #[inline]
    fn for_each_normal(&self, start: usize, out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
        let (head, body) = out.split_at_mut(head_len(start, out.len()));
        for (o, i) in head.iter_mut().zip(start..) {
            *o = f(*o, self.ref_normal(i));
        }
        let mut base = start + head.len();
        let (chunks, tail) = body.as_chunks_mut::<CHUNK>();
        for chunk in chunks {
            let (r, cv, sv) = self.pair_factors(base);
            // Stage 4 (vectorizable): interleave z0 = r·cosθ, z1 = r·sinθ.
            for (p, pair) in chunk.chunks_exact_mut(2).enumerate() {
                pair[0] = f(pair[0], r[p] * cv[p]);
                pair[1] = f(pair[1], r[p] * sv[p]);
            }
            base += CHUNK;
        }
        for (o, i) in tail.iter_mut().zip(base..) {
            *o = f(*o, self.ref_normal(i));
        }
    }

    /// Writes `out[k] = f(a[k], b[k], z)`, with `z` the standard normal
    /// sample at position `start + k` of this stream (the samples
    /// [`CbRng::axpy_normal`] adds): the sampler's stage 4 fused with a
    /// caller's own elementwise pass over two operands that live beside
    /// `out`, so a mechanism like `(a − b)·c + σ·z + b` needs no staging
    /// buffer. The three slices are chunked in lockstep, so stage 4 is a
    /// fixed-length loop over three arrays.
    ///
    /// # Panics
    ///
    /// Panics unless `a`, `b` and `out` have one length.
    pub fn zip_normal(
        &self,
        start: usize,
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        f: impl Fn(f32, f32, f32) -> f32,
    ) {
        assert!(
            a.len() == out.len() && b.len() == out.len(),
            "zip_normal: operands of {} and {} elements for an output of {}",
            a.len(),
            b.len(),
            out.len()
        );
        let h = head_len(start, out.len());
        let (head, out) = out.split_at_mut(h);
        let ((a_head, a), (b_head, b)) = (a.split_at(h), b.split_at(h));
        for (((o, &a), &b), i) in head.iter_mut().zip(a_head).zip(b_head).zip(start..) {
            *o = f(a, b, self.ref_normal(i));
        }
        let mut base = start + h;
        let (chunks, tail) = out.as_chunks_mut::<CHUNK>();
        let (a_chunks, a_tail) = a.as_chunks::<CHUNK>();
        let (b_chunks, b_tail) = b.as_chunks::<CHUNK>();
        for ((o, a), b) in chunks.iter_mut().zip(a_chunks).zip(b_chunks) {
            let (r, cv, sv) = self.pair_factors(base);
            for p in 0..PAIRS {
                o[2 * p] = f(a[2 * p], b[2 * p], r[p] * cv[p]);
                o[2 * p + 1] = f(a[2 * p + 1], b[2 * p + 1], r[p] * sv[p]);
            }
            base += CHUNK;
        }
        for (((o, &a), &b), i) in tail.iter_mut().zip(a_tail).zip(b_tail).zip(base..) {
            *o = f(a, b, self.ref_normal(i));
        }
    }

    /// Overwrites `out` with `N(mean, std_dev²)` samples: `out[k]` from
    /// the standard normal at position `start + k` of this stream.
    pub fn fill_normal(&self, start: usize, out: &mut [f32], mean: f32, std_dev: f32) {
        self.for_each_normal(start, out, |_, z| z * std_dev + mean);
    }

    /// Adds `std_dev · z` to each element of `out`, with `z` for `out[k]`
    /// the standard normal at position `start + k` of this stream. Negating
    /// `std_dev` negates every contribution exactly (IEEE
    /// `(-σ)·z = -(σ·z)`), which is what the pairwise SA masks rely on to
    /// cancel.
    pub fn axpy_normal(&self, start: usize, out: &mut [f32], std_dev: f32) {
        self.for_each_normal(start, out, |x, z| x + z * std_dev);
    }
}

/// How many elements of a fill of `len` starting at stream position
/// `start` lie before the first [`CHUNK`] boundary: the scalar head that
/// brings the chunked loop onto the chunk grid, where [`CbRng::pair_factors`]
/// expects it.
#[inline]
fn head_len(start: usize, len: usize) -> usize {
    (start.next_multiple_of(CHUNK) - start).min(len)
}

// ----------------------------------------------------------------------
// Lane extraction
// ----------------------------------------------------------------------

/// Bits `[40, 64)` of a Philox word as an `i32` in `[0, 2^24)`.
#[inline]
fn hi24_bits(y: u64) -> i32 {
    (y >> 40) as i32
}

/// Bits `[16, 40)` of a Philox word as an `i32` in `[0, 2^24)`.
#[inline]
fn mid24_bits(y: u64) -> i32 {
    ((y >> 16) & 0xFF_FFFF) as i32
}

/// Lane `half` (0 = high, 1 = mid) of `word`, scaled to `[0, 1)`.
#[inline]
fn lane_low(word: u64, half: usize) -> f32 {
    let bits = if half == 0 {
        hi24_bits(word)
    } else {
        mid24_bits(word)
    };
    bits as f32 * U24_SCALE
}

#[inline]
fn lane_hi24(word: u64) -> i32 {
    hi24_bits(word)
}

#[inline]
fn lane_mid24(word: u64) -> i32 {
    mid24_bits(word)
}

// ----------------------------------------------------------------------
// Per-element math kernels (shared by the chunked and reference paths)
// ----------------------------------------------------------------------

/// Box–Muller radius from the 24-bit `u1` lane: `sqrt(-2 ln(1 - u1/2^24))`.
///
/// `1 - u` is exact on the 24-bit grid, lands in `(0, 1]`, and bounds the
/// radius at `sqrt(-2 ln 2^-24) ≈ 5.77`.
#[inline]
fn radius(u1_bits: i32) -> f32 {
    let u1 = 1.0 - u1_bits as f32 * U24_SCALE;
    (-2.0 * ln_unit(u1)).sqrt()
}

/// `(cos θ, sin θ)` for `θ = 2π·u2/2^24`, via quadrant reduction on the
/// exact scale `a = u2/2^22 ∈ [0, 4)`.
#[inline]
fn cos_sin_turn(u2_bits: i32) -> (f32, f32) {
    // a = 4·u ∈ [0, 4): quadrant q plus fraction f, φ = f·π/2 ∈ [0, π/2).
    // `a` is `u2_bits · 2⁻²²` exactly, so its floor is the lane's top two
    // bits and `a − q` is exact. (A float→int `as` cast would saturate,
    // which compiles to a scalar convert-and-select per lane and keeps this
    // stage from vectorising.)
    let a = u2_bits as f32 * (4.0 * U24_SCALE);
    let q = u2_bits >> 22;
    let phi = (a - q as f32) * std::f32::consts::FRAC_PI_2;
    let (s, c) = (sin_poly(phi), cos_poly(phi));
    // θ = (q + f)·π/2: swap sin/cos on odd quadrants, flip signs by
    // quadrant. Branchless selects keep the chunk loops vectorizable.
    let swap = q & 1 != 0;
    let (cos_mag, sin_mag) = if swap { (s, c) } else { (c, s) };
    let cos_v = if (q + 1) & 2 != 0 { -cos_mag } else { cos_mag };
    let sin_v = if q & 2 != 0 { -sin_mag } else { sin_mag };
    (cos_v, sin_v)
}

/// Natural log on `(0, 1]` (any positive normal `f32`, in fact): exponent
/// extraction plus an odd `atanh` polynomial on the mantissa.
///
/// With `m` normalized to `[√½, √2)`, `s = (m-1)/(m+1)` stays in
/// `[-0.172, 0.172]` and the degree-7 odd series is accurate to ~1 ulp —
/// far below the 24-bit grid the inputs live on. The softmax kernel
/// (`Tensor::softmax_rows`) takes its row's `ln Σ` here too, on `[1, cols]`.
#[inline]
pub(crate) fn ln_unit(x: f32) -> f32 {
    let bits = x.to_bits();
    let e_raw = ((bits >> 23) & 0xFF) as i32 - 127;
    let m_raw = f32::from_bits((bits & 0x007F_FFFF) | 0x3F80_0000); // [1, 2)
    let shift = m_raw >= std::f32::consts::SQRT_2;
    let m = if shift { 0.5 * m_raw } else { m_raw };
    let e = if shift { e_raw + 1 } else { e_raw };
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    // atanh(s) = s + s³/3 + s⁵/5 + s⁷/7; ln m = 2 atanh(s).
    let p = s * (1.0 + s2 * (1.0 / 3.0 + s2 * (0.2 + s2 * (1.0 / 7.0))));
    e as f32 * std::f32::consts::LN_2 + 2.0 * p
}

/// `sin φ` on `[0, π/2)`: odd Taylor polynomial through degree 9
/// (max error ≈ 3.6e-6 at φ = π/2, well under the sampler's grid).
#[inline]
fn sin_poly(x: f32) -> f32 {
    const S3: f32 = -1.0 / 6.0;
    const S5: f32 = 1.0 / 120.0;
    const S7: f32 = -1.0 / 5040.0;
    const S9: f32 = 1.0 / 362_880.0;
    let x2 = x * x;
    x * (1.0 + x2 * (S3 + x2 * (S5 + x2 * (S7 + x2 * S9))))
}

/// `cos φ` on `[0, π/2)`: even Taylor polynomial through degree 10
/// (max error ≈ 4.7e-7 at φ = π/2).
#[inline]
fn cos_poly(x: f32) -> f32 {
    const C2: f32 = -0.5;
    const C4: f32 = 1.0 / 24.0;
    const C6: f32 = -1.0 / 720.0;
    const C8: f32 = 1.0 / 40_320.0;
    const C10: f32 = -1.0 / 3_628_800.0;
    let x2 = x * x;
    1.0 + x2 * (C2 + x2 * (C4 + x2 * (C6 + x2 * (C8 + x2 * C10))))
}

/// Hyperbolic tangent: the odd 13/6 rational `x·P(x²)/Q(x²)` (the minimax
/// fit Eigen ships for `float`), on the input clamped to ±[`TANH_CLAMP`].
///
/// Not part of the sampler — it lives beside the other libm-free
/// transcendentals because it exists for the same two reasons. It is
/// straight-line `f32` arithmetic (`×`, `÷`, `mul_add`, two selects), so an
/// elementwise loop over it autovectorizes where glibc's `tanhf` is a scalar
/// call (≈ 35× slower per element), and its result is a function of the
/// input bits alone, so Tanh-model digests do not depend on the host's libm.
///
/// Over every `f32`: absolute error against `f64::tanh` ≤ 2.92e-7 (at
/// |x| ≈ 5.13), `|tanh(x)| ≤ 1`, `tanh(-x) == -tanh(x)` bit for bit,
/// `tanh(±0) = ±0`, and NaN propagates — the clamp is written as compares
/// rather than `min`/`max`, which would swallow a NaN operand.
#[inline]
pub(crate) fn tanh(x: f32) -> f32 {
    // Eigen's coefficients, written at the precision `f32` holds.
    const A1: f32 = 4.893_524_6e-3;
    const A3: f32 = 6.372_619_5e-4;
    const A5: f32 = 1.485_722_35e-5;
    const A7: f32 = 5.122_297_3e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_4e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_7e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = if x > TANH_CLAMP { TANH_CLAMP } else { x };
    let x = if x < -TANH_CLAMP { -TANH_CLAMP } else { x };
    let x2 = x * x;
    let p = x2.mul_add(A13, A11);
    let p = x2.mul_add(p, A9);
    let p = x2.mul_add(p, A7);
    let p = x2.mul_add(p, A5);
    let p = x2.mul_add(p, A3);
    let p = x2.mul_add(p, A1);
    let q = x2.mul_add(B6, B4);
    let q = x2.mul_add(q, B2);
    let q = x2.mul_add(q, B0);
    x * p / q
}

/// Where [`tanh`] saturates: the rational evaluates to `1 − 2⁻²²` here, and
/// the true value is within 2.7e-7 of 1 from here on.
const TANH_CLAMP: f32 = 7.905_311;

/// `eˣ`: `2ⁿ·eʳ` with `n = round(x·log₂e)`, `r = x − n·ln 2` (a two-part
/// `ln 2`, so `r` is exact to the last bit), and Cephes' degree-7
/// polynomial for `eʳ` on `|r| ≤ ½ ln 2`.
///
/// Like [`tanh`], it exists because glibc's `expf` is a scalar call and a
/// host-dependent one: this is straight-line `f32` arithmetic (`mul_add`,
/// integer adds and shifts on the bits, three selects), so a loop over it
/// autovectorizes and its result is a function of the input bits alone.
/// `n` is rounded by the `1.5·2²³` magic add and read back from the sum's
/// low mantissa bits, not by an `as i32` cast, which saturates and keeps the
/// loop scalar (see `cos_sin_turn`).
///
/// On `[EXP_LO, 0]` (the softmax domain) the relative error against
/// `f64::exp` is ≤ 1.5e-7 (8.4e-8 at worst over a dense sweep, ≈ 1 ulp),
/// and up to [`EXP_HI`] it is the same. `exp(0) == 1` exactly. Below
/// [`EXP_LO`], where `eˣ` is no longer a normal `f32`, the result is exactly
/// `+0` (no subnormals, and `−∞` maps to `+0`); above [`EXP_HI`] it is `+∞`
/// (libm overflows at 88.72). NaN propagates: the clamps are compares, not
/// `min`/`max`.
#[inline]
pub(crate) fn exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // Cephes' split of ln 2: `n·LN2_HI` is exact for every reachable `n`.
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P0: f32 = 1.987_569_1e-4;
    const P1: f32 = 1.398_199_9e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_6e-2;
    const P4: f32 = 1.666_666_5e-1;
    const P5: f32 = 0.5;
    // 1.5·2²³: adding it rounds to an integer (ties to even), and the sum
    // stays in [2²³, 2²⁴) with `n` in its low mantissa bits.
    const MAGIC: f32 = 12_582_912.0;
    let xc = if x < EXP_LO { EXP_LO } else { x };
    let xc = if xc > EXP_HI { EXP_HI } else { xc };
    let t = xc.mul_add(LOG2E, MAGIC);
    let n = t - MAGIC;
    let r = n.mul_add(-LN2_HI, xc);
    let r = n.mul_add(-LN2_LO, r);
    let p = r.mul_add(P0, P1);
    let p = r.mul_add(p, P2);
    let p = r.mul_add(p, P3);
    let p = r.mul_add(p, P4);
    let p = r.mul_add(p, P5);
    let er = p.mul_add(r * r, r) + 1.0;
    // n ∈ [−126, 127] after the clamps, so `n + 127` is a normal exponent.
    let n_bits = (t.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    let scale = f32::from_bits(((n_bits + 127) << 23) as u32);
    let y = er * scale;
    let y = if x < EXP_LO { 0.0 } else { y };
    if x > EXP_HI {
        f32::INFINITY
    } else {
        y
    }
}

/// Where [`exp`] flushes to `+0`: `ln(f32::MIN_POSITIVE)`, below which `eˣ`
/// is subnormal.
const EXP_LO: f32 = -87.336_54;

/// Where [`exp`] overflows to `+∞`: `127.5·ln 2`, the last input whose `n`
/// still fits a normal exponent.
const EXP_HI: f32 = 88.376_26;

/// Box–Muller from two 24-bit lanes (the per-pair spec).
#[inline]
fn box_muller(u1_bits: i32, u2_bits: i32) -> (f32, f32) {
    let r = radius(u1_bits);
    let (c, s) = cos_sin_turn(u2_bits);
    (r * c, r * s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_pure_functions_of_key_and_counter() {
        let a = CbRng::new(1, 2);
        let b = CbRng::new(1, 2);
        for ctr in [0u64, 1, 7, u64::MAX] {
            assert_eq!(a.block(ctr), b.block(ctr));
        }
        assert_ne!(a.block(0), a.block(1));
        assert_ne!(CbRng::new(1, 2).block(0), CbRng::new(2, 2).block(0));
        assert_ne!(CbRng::new(1, 2).block(0), CbRng::new(1, 3).block(0));
    }

    #[test]
    fn chunked_uniform_matches_reference_for_every_length() {
        let g = CbRng::new(0xDEAD_BEEF, 42);
        // Lengths straddling the chunk boundary and odd tails.
        for n in [0usize, 1, 3, 4, CHUNK - 1, CHUNK, CHUNK + 5, 3 * CHUNK + 17] {
            let mut out = vec![0.0f32; n];
            g.fill_uniform(&mut out);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v.to_bits(), g.ref_uniform(i).to_bits(), "i={i} n={n}");
                assert!((0.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn chunked_normal_matches_reference_for_every_length() {
        for key in [0u64, 1, 0x1234_5678_9ABC_DEF0] {
            let g = CbRng::new(key, !key);
            for n in [1usize, 2, 7, CHUNK, CHUNK + 1, 2 * CHUNK + 3] {
                let mut out = vec![0.0f32; n];
                g.fill_normal(0, &mut out, 0.0, 1.0);
                for (i, &v) in out.iter().enumerate() {
                    let (z0, z1) = g.ref_normal_pair(i / 2);
                    let z = if i % 2 == 0 { z0 } else { z1 };
                    let want = z * 1.0 + 0.0;
                    assert_eq!(v.to_bits(), want.to_bits(), "key={key} i={i} n={n}");
                }
            }
        }
    }

    #[test]
    fn offset_fills_read_the_stream_from_their_start() {
        // Starts on and off the chunk grid, at odd positions (the second half
        // of a pair) and lengths that end before, on and after a boundary.
        let g = CbRng::new(0x5EED, 0xF11);
        let want = |i: usize| {
            let (z0, z1) = g.ref_normal_pair(i / 2);
            if i.is_multiple_of(2) {
                z0
            } else {
                z1
            }
        };
        let starts = [
            0usize,
            1,
            2,
            63,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            5 * CHUNK + 77,
        ];
        for start in starts {
            for n in [0usize, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5] {
                let mut fill = vec![0.0f32; n];
                g.fill_normal(start, &mut fill, 0.0, 1.0);
                let mut axpy = vec![1.0f32; n];
                g.axpy_normal(start, &mut axpy, 0.5);
                let mut zip = vec![0.0f32; n];
                let ones = vec![1.0f32; n];
                g.zip_normal(start, &mut zip, &ones, &ones, |a, _, z| a + z * 0.5);
                for k in 0..n {
                    let z = want(start + k);
                    let ctx = format!("start={start} n={n} k={k}");
                    assert_eq!(fill[k].to_bits(), (z * 1.0 + 0.0).to_bits(), "{ctx}");
                    assert_eq!(axpy[k].to_bits(), (1.0 + z * 0.5).to_bits(), "{ctx}");
                    assert_eq!(zip[k].to_bits(), axpy[k].to_bits(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn zip_normal_reads_operands_in_step_and_draws_the_axpy_samples() {
        let g = CbRng::new(3, 4);
        for n in [0usize, 1, 2, CHUNK - 1, CHUNK, 2 * CHUNK + 7] {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
            let b: Vec<f32> = (0..n).map(|i| 1.0 - i as f32).collect();
            // The unfused form: the elementwise pass, then the noise.
            let mut want: Vec<f32> = a.iter().zip(&b).map(|(a, b)| (a - b) * 0.75).collect();
            g.axpy_normal(0, &mut want, 0.25);
            let mut got = vec![f32::NAN; n];
            g.zip_normal(0, &mut got, &a, &b, |a, b, z| (a - b) * 0.75 + z * 0.25);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "zip_normal")]
    fn zip_normal_rejects_operands_of_another_length() {
        CbRng::new(3, 4).zip_normal(0, &mut [0.0; 4], &[0.0; 4], &[0.0; 3], |a, _, _| a);
    }

    #[test]
    fn axpy_negated_std_cancels_exactly() {
        let g = CbRng::new(9, 9);
        let mut plus = vec![0.0f32; 301];
        let mut minus = vec![0.0f32; 301];
        g.axpy_normal(0, &mut plus, 2.5);
        g.axpy_normal(0, &mut minus, -2.5);
        for (p, m) in plus.iter().zip(&minus) {
            // z·(-σ) is exactly -(z·σ), so the contributions negate
            // bit-for-bit — the property the pairwise SA masks rest on.
            assert_eq!(m.to_bits(), (-p).to_bits());
        }
    }

    #[test]
    fn ln_matches_libm_on_the_unit_interval() {
        for i in 1..=10_000 {
            let x = i as f32 / 10_000.0;
            let got = ln_unit(x);
            let want = (x as f64).ln() as f32;
            assert!(
                (got - want).abs() <= 2e-6 * want.abs().max(1.0),
                "x={x} got={got} want={want}"
            );
        }
    }

    #[test]
    fn lockstep_blocks_are_the_scalar_blocks() {
        for key in [0u64, 7, u64::MAX] {
            let g = CbRng::new(key, !key);
            for b in [0u64, 1, 1 << 40, u64::MAX - 3] {
                let ys = g.blocks4(&g.round_keys(), b);
                for (i, y) in (0..).zip(ys) {
                    assert_eq!(y, g.block(b + i), "key={key} b={b} i={i}");
                }
            }
        }
    }

    #[test]
    fn quadrant_shift_matches_the_float_cast_on_every_lane() {
        // The reduction as it was first written: quadrant by float→int cast.
        fn cast_quadrant(u2_bits: i32) -> (f32, f32) {
            let a = u2_bits as f32 * (4.0 * U24_SCALE);
            let q = a as i32;
            let phi = (a - q as f32) * std::f32::consts::FRAC_PI_2;
            let (s, c) = (sin_poly(phi), cos_poly(phi));
            let (cos_mag, sin_mag) = if q & 1 != 0 { (s, c) } else { (c, s) };
            let cos_v = if (q + 1) & 2 != 0 { -cos_mag } else { cos_mag };
            let sin_v = if q & 2 != 0 { -sin_mag } else { sin_mag };
            (cos_v, sin_v)
        }
        for bits in 0..1 << 24 {
            let (c, s) = cos_sin_turn(bits);
            let (want_c, want_s) = cast_quadrant(bits);
            assert!(
                c.to_bits() == want_c.to_bits() && s.to_bits() == want_s.to_bits(),
                "lane {bits}"
            );
        }
    }

    #[test]
    fn cos_sin_match_libm_over_the_turn() {
        for i in 0..(1 << 14) {
            let bits = i << 10; // spread across the 24-bit lane
            let theta = bits as f64 / (1u32 << 24) as f64 * std::f64::consts::TAU;
            let (c, s) = cos_sin_turn(bits);
            assert!((c as f64 - theta.cos()).abs() < 5e-6, "cos at {theta}");
            assert!((s as f64 - theta.sin()).abs() < 5e-6, "sin at {theta}");
        }
    }

    /// Inputs that stress [`tanh`]: a uniform sweep of [−10, 10], a
    /// logarithmic sweep towards 0 down to the smallest subnormal, and every
    /// float within 4096 ulps of the clamp (the kernel's only breakpoint).
    fn tanh_probe_points() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=1_000_000).map(|i| i as f32 * 2e-5 - 10.0).collect();
        for e in -149..=3 {
            for m in 0..256 {
                let x = (1.0 + m as f32 / 256.0) * 2f32.powi(e);
                xs.extend([x, -x]);
            }
        }
        for d in -4096i32..=4096 {
            let x = f32::from_bits(TANH_CLAMP.to_bits().wrapping_add_signed(d));
            xs.extend([x, -x]);
        }
        xs.extend([
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
        ]);
        xs
    }

    #[test]
    fn tanh_stays_within_5e7_of_f64_tanh() {
        let xs = tanh_probe_points();
        assert!(xs.len() >= 1_000_000);
        for x in xs {
            let err = (tanh(x) as f64 - (x as f64).tanh()).abs();
            assert!(err <= 5e-7, "x={x:e} got={} err={err:e}", tanh(x));
        }
    }

    #[test]
    fn tanh_is_odd_bounded_and_signed_zero_preserving() {
        let extremes = [f32::INFINITY, f32::MAX, 1e30, 100.0, TANH_CLAMP];
        for x in tanh_probe_points().into_iter().chain(extremes) {
            let y = tanh(x);
            assert_eq!(tanh(-x).to_bits(), (-y).to_bits(), "odd symmetry at {x:e}");
            assert!(y.abs() <= 1.0, "|tanh({x:e})| = {}", y.abs());
        }
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert!((tanh(f32::INFINITY) - 1.0).abs() <= 5e-7);
    }

    #[test]
    fn tanh_propagates_nan() {
        // `sanitize` pins a poisoned layer only if the NaN survives the
        // activation; a min/max clamp would turn it into ±TANH_CLAMP.
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_nan());
        assert!(tanh(f32::from_bits(0x7F80_0001)).is_nan());
    }

    /// Relative error of [`exp`] against `f64::exp`.
    fn exp_rel_err(x: f32) -> f64 {
        let want = (x as f64).exp();
        (exp(x) as f64 - want).abs() / want
    }

    #[test]
    fn exp_stays_within_1_5e7_relative_over_the_softmax_domain() {
        // A dense uniform sweep of [EXP_LO, 0], every float within 4096 ulps
        // of both ends and of the rounding ties of n (x = (k + ½)·ln 2).
        let mut xs: Vec<f32> = (0..=2_000_000).map(|i| EXP_LO * (i as f32 / 2e6)).collect();
        for d in 0..=4096u32 {
            xs.extend([f32::from_bits(EXP_LO.to_bits() - d), -f32::from_bits(d)]);
        }
        for k in -126..0 {
            let tie = ((k as f64 + 0.5) * std::f64::consts::LN_2) as f32;
            for d in -64i32..=64 {
                xs.push(f32::from_bits(tie.to_bits().wrapping_add_signed(d)));
            }
        }
        for x in xs {
            let err = exp_rel_err(x);
            assert!(err <= 1.5e-7, "x={x:e} got={} err={err:e}", exp(x));
        }
    }

    #[test]
    fn exp_is_accurate_up_to_its_overflow_clamp() {
        for i in 0..=200_000 {
            let x = EXP_HI * (i as f32 / 2e5);
            let err = exp_rel_err(x);
            assert!(err <= 1.5e-7, "x={x:e} got={} err={err:e}", exp(x));
        }
        assert!(exp(EXP_HI).is_finite());
    }

    #[test]
    fn exp_edges_are_exact_and_explicit() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        // Underflow: the last input kept is a normal, everything below is +0.
        assert!(exp(EXP_LO) >= f32::MIN_POSITIVE * 0.999_999);
        let below = f32::from_bits(EXP_LO.to_bits() + 1);
        for x in [below, -88.0, -103.9, -1e4, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0.0f32.to_bits(), "exp({x:e})");
        }
        let above = f32::from_bits(EXP_HI.to_bits() + 1);
        for x in [above, 89.0, 1e4, f32::MAX, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x:e})");
        }
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        assert!(exp(f32::from_bits(0x7F80_0001)).is_nan());
    }

    #[test]
    fn ln_unit_is_accurate_on_a_softmax_partition() {
        // The softmax kernel takes ln Σ with Σ ∈ [1, cols].
        for i in 0..=1_000_000 {
            let x = 1.0 + i as f32 * 1e-3;
            let err = (ln_unit(x) as f64 - (x as f64).ln()).abs();
            assert!(
                err <= 2.5e-7 * (x as f64).ln().max(1.0),
                "x={x} err={err:e}"
            );
        }
        assert_eq!(ln_unit(1.0).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn normal_moments_at_one_million() {
        let g = CbRng::new(0xFEED, 0xF00D);
        let n = 1_000_000usize;
        let mut out = vec![0.0f32; n];
        g.fill_normal(0, &mut out, 0.0, 1.0);
        let mean = out.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var = out.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        let tail3 = out.iter().filter(|&&x| x.abs() > 3.0).count() as f64 / n as f64;
        assert!(mean.abs() < 4e-3, "mean={mean}");
        assert!((var - 1.0).abs() < 5e-3, "var={var}");
        // P(|Z| > 3) ≈ 2.7e-3.
        assert!((tail3 - 2.7e-3).abs() < 6e-4, "tail={tail3}");
    }
}

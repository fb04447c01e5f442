//! The GEMM kernels behind the matmul family in [`crate::Tensor`].
//!
//! [`Tensor::matmul`](crate::Tensor::matmul),
//! [`matmul_t`](crate::Tensor::matmul_t) and
//! [`t_matmul`](crate::Tensor::t_matmul) are one product `out = A · B` over
//! two [`Operand`]s. A stored matrix is a strided [`View`]: a transposed
//! operand is the same buffer with its stride pair swapped. The lowered
//! convolution operand ([`crate::conv::Patches`]) is a [`Gather`]: the patch
//! matrix read through an offset table, never built. A strided `A` whose
//! entries are all ±0 or 1 (a binary-feature batch) over a row-major `B`
//! takes a third form, [`Indicator`]: `A` held as [`Bits`] (see
//! [`indicator_form`]). `gemm_onto` in `tensor.rs` partitions output *rows*
//! across the pool and hands each partition to [`gemm_row_block`], which
//! packs both operands into contiguous tile-shaped scratch and runs every
//! product through the single MR×NR register tile — operand layout is
//! absorbed by the packing, never by the arithmetic — or, for the indicator
//! form, to the skip kernel ([`Indicator::rows`]), which adds the rows of
//! `B` that `A`'s set bits select.
//!
//! # Element spec (the determinism contract)
//!
//! Every output element is defined by one serial fused-multiply-add chain:
//!
//! ```text
//! acc = 0.0;  for p in 0..k { acc = a_ip.mul_add(b_pj, acc) }  out_ij = acc
//! ```
//!
//! (The accumulating entry behind [`Tensor::add_t_matmul`](crate::Tensor::add_t_matmul)
//! starts the chain from `out_ij` instead of `0.0`.)
//!
//! Each of the tile's MR×NR lanes is exactly this chain. Blocking never
//! reorders it: a reduction block parks the chain in the output and the
//! next block resumes from the stored value — an exact `f32` round trip —
//! in ascending `p`. Edge tiles are *padded*, not special-cased: a partial
//! panel is packed with zero columns and a partial row-quad with a repeated
//! row, the full tile is computed, and only the lanes that exist are
//! stored. Lanes never mix, so a padded lane cannot reach a real one, and
//! each element's bits are a function of the operands alone, independent of
//! tiling, pool width, and partition. (`f32::mul_add` is the IEEE fused
//! operation — one rounding; with the workspace's x86-64-v3 baseline it
//! compiles to a single FMA instruction.)
//!
//! # The indicator lemma
//!
//! The skip kernel computes the same chain with fewer operations. For
//! finite `b`, `fma(1, b, acc)` is `acc + b` (one rounding of the same
//! exact sum), and `fma(±0, b, acc)` is `acc + (±0)`, which is `acc` itself
//! unless `acc` is −0. A chain that starts at +0 never reaches −0 by adding
//! floats (a sum is −0 only when both addends are), so skipping every zero
//! term and adding every selected `b` in ascending `p` is the chain bit for
//! bit. Three preconditions make it hold, and [`indicator_form`] checks
//! each before the form is taken:
//!
//! 1. every entry of `A` is +0, −0 or 1;
//! 2. every entry of `B` is finite (`fma(0, ±inf, acc)` is NaN, a skipped
//!    term is not);
//! 3. an accumulating product's output holds no −0 (nor a NaN, whose
//!    quieting by a skipped term no add reproduces).
//!
//! The lemma holds element by element, so it holds at every pool width and
//! partition.
//!
//! # Blocking
//!
//! MR = 4 rows × NR = 16 columns: the accumulator block is 8 AVX2 registers,
//! the streamed `b` tile 2 more, and the broadcast coefficient 1 — leaving
//! headroom in the 16-register file. Per reduction step the tile performs 8
//! vector FMAs against 3 loads (2 for the packed `b` row, 1 for the packed
//! coefficients), so the loop is FMA-throughput-bound rather than
//! load-bound. `B` is packed [`KC`]×[`NC`] at a time into NR-wide panels
//! (transposing on the fly when its unit stride runs along the reduction),
//! and each row-quad of `A` is packed once per block and reused across the
//! block's `NC / NR` panels. The scratch is therefore at most
//! `KC · (NC + MR)` floats per worker however large the operands are.
//!
//! The skip kernel holds [`IB`] = 64 output columns of one row as 8×8-lane
//! registers and walks `B` in blocks of one mask word (64 reduction rows) ×
//! [`IB`] columns, 16 KiB that stay in L1 while every row of the partition
//! passes over them. It reads `B` in place and packs nothing.

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile (two 8-lane AVX2 vectors).
const NR: usize = 16;
/// Reduction steps per packed block: one `B` panel (`KC · NR` floats) plus
/// the packed `A` quad stay L1-resident.
const KC: usize = 256;
/// Output columns per packed block (a multiple of [`NR`]): bounds the `B`
/// scratch at `KC · NC` floats and amortises each `A` quad over 8 tiles.
const NC: usize = 128;
/// Output columns per register block of the skip kernel: 8 vectors of 8
/// lanes.
const IB: usize = 64;
/// Reduction steps per mask word.
const WORD: usize = 64;

/// Read-only strided matrix view: element `(r, c)` is `data[r * rs + c * cs]`.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    pub data: &'a [f32],
    pub rs: usize,
    pub cs: usize,
}

/// Read-only gathered matrix: element `(r, c)` is `data[rows[r] + cols[c]]`.
#[derive(Clone, Copy)]
pub(crate) struct Gather<'a> {
    pub data: &'a [f32],
    pub rows: &'a [usize],
    pub cols: &'a [usize],
}

/// One operand of the packed product: the packs read either form.
#[derive(Clone, Copy)]
pub(crate) enum Operand<'a> {
    Strided(View<'a>),
    Gathered(Gather<'a>),
}

/// A 0/1 matrix as bit masks: element `(r, p)` is 1 when bit `p % 64` of
/// `words[r * rs + (p / 64) * ws]` is set and 0 otherwise.
struct Bits {
    words: Vec<u64>,
    rs: usize,
    ws: usize,
}

impl Bits {
    /// The mask of reduction steps `64 w..64 w + 64` of row `r`.
    fn word(&self, r: usize, w: usize) -> u64 {
        self.words[r * self.rs + w * self.ws]
    }
}

/// The indicator form of a product `A · B`: `A` as [`Bits`] over a
/// row-major `B`, built by [`indicator_form`] where the indicator lemma
/// holds and run by the skip kernel.
pub(crate) struct Indicator<'a> {
    a: Bits,
    b: View<'a>,
}

/// The indicator form of `A · B` (`A` is `m × k`) when the module's
/// indicator lemma holds for it: every entry of `A` is ±0 or 1, `B` is
/// row-major and finite, and `resumed` — the output an accumulating product
/// resumes — holds no −0 or NaN. `None` sends the product to the packed
/// path.
///
/// A non-binary `A` is rejected within its first stored row, so an operand
/// that never takes the form pays one partial row scan; gathered operands
/// are never inspected.
pub(crate) fn indicator_form<'b>(
    a: Operand,
    b: Operand<'b>,
    (m, k, n): (usize, usize, usize),
    resumed: Option<&[f32]>,
) -> Option<Indicator<'b>> {
    let (Operand::Strided(a), Operand::Strided(b)) = (a, b) else {
        return None;
    };
    if k == 0 || b.cs != 1 {
        return None;
    }
    let a = pack_bits(a, m, k)?;
    let finite = (0..k).all(|p| all_finite(&b.data[p * b.rs..][..n]));
    let clean = resumed.is_none_or(no_neg_zero_or_nan);
    (finite && clean).then_some(Indicator { a, b })
}

/// The bits of `-0.0`.
const NEG_ZERO: u32 = 0x8000_0000;
/// The bits of `+inf`: a larger magnitude is a NaN.
const INF: u32 = 0x7f80_0000;

/// Whether every value is finite, as one vectorisable max over the
/// magnitude bits.
fn all_finite(values: &[f32]) -> bool {
    values
        .iter()
        .fold(0, |max: u32, x| max.max(x.to_bits() & !NEG_ZERO))
        < INF
}

/// Whether no value is −0 or NaN, as one vectorisable fold over the bits.
fn no_neg_zero_or_nan(values: &[f32]) -> bool {
    let bad = values.iter().fold(0u32, |bad, x| {
        let u = x.to_bits();
        bad | u32::from(u == NEG_ZERO) | u32::from(u & !NEG_ZERO > INF)
    });
    bad == 0
}

/// The bit masks of a strided `A` (`m × k`) whose entries are all ±0 or 1:
/// per row for a row-major `A` (the dense forward's `x`), per reduction
/// word for its transpose (the weight gradient's `xᵀ`). `None` for any
/// other entry or layout, as soon as a stored row shows it.
fn pack_bits(a: View, m: usize, k: usize) -> Option<Bits> {
    // A non-binary operand shows itself early in its first stored row:
    // reject it there, before anything is allocated.
    let stored_row = match (a.cs, a.rs) {
        (1, _) => k,
        (_, 1) => m,
        _ => return None,
    };
    if !a.data[..stored_row].iter().all(|&x| is_indicator(x)) {
        return None;
    }
    let wpr = k.div_ceil(WORD);
    let mut words = vec![0u64; m * wpr];
    if a.cs == 1 {
        let mut full = [0.0f32; WORD];
        for (row, dst) in words.chunks_exact_mut(wpr).enumerate() {
            let src = &a.data[row * a.rs..][..k];
            for (word, chunk) in dst.iter_mut().zip(src.chunks(WORD)) {
                let chunk = chunk.first_chunk::<WORD>().unwrap_or_else(|| {
                    full = [0.0; WORD];
                    full[..chunk.len()].copy_from_slice(chunk);
                    &full
                });
                let [lo, hi] = [&chunk[..32], &chunk[32..]].map(half_word);
                *word = u64::from(lo?) | u64::from(hi?) << 32;
            }
        }
        Some(Bits {
            words,
            rs: wpr,
            ws: 1,
        })
    } else {
        // Stored row `p` holds reduction step `p` of every output row: its
        // bits go to word `p / 64` of each row, the words of one step side
        // by side, built 32 steps at a time in `u32` lanes.
        let mut half = vec![0u32; m];
        for p0 in (0..k).step_by(32) {
            half.fill(0);
            for (bit, p) in (p0..k.min(p0 + 32)).enumerate() {
                let mut bad = 0u32;
                for (h, &x) in half.iter_mut().zip(&a.data[p * a.cs..][..m]) {
                    bad |= u32::from(!is_indicator(x));
                    *h |= u32::from(x == 1.0) << bit;
                }
                if bad != 0 {
                    return None;
                }
            }
            let shift = p0 % WORD;
            for (word, &h) in words[p0 / WORD * m..][..m].iter_mut().zip(&half) {
                *word |= u64::from(h) << shift;
            }
        }
        Some(Bits {
            words,
            rs: 1,
            ws: m,
        })
    }
}

/// Whether `x` is +0, −0 or 1: `x · (x − 1)` is zero for those and for
/// nothing else (it is NaN or ±inf for the non-finite, and neither factor
/// is small enough to underflow the product for any other float).
fn is_indicator(x: f32) -> bool {
    x * (x - 1.0) == 0.0
}

/// The mask of 32 entries (bit `i` for `half[i] == 1`), or `None` when one
/// of them is other than ±0 or 1.
fn half_word(half: &[f32]) -> Option<u32> {
    let (mut bits, mut bad) = (0u32, 0u32);
    for (i, &x) in half.iter().enumerate() {
        bad |= u32::from(!is_indicator(x));
        bits |= u32::from(x == 1.0) << i;
    }
    (bad == 0).then_some(bits)
}

/// Computes a block of output rows of `out = A · B` (`a` is `m × k`, `b` is
/// `k × n`); `out_rows` holds rows `i0..` of the row-major output. With
/// `accumulate` the chains resume from the values `out_rows` holds — the
/// tile's path for every reduction block after the first, taken from the
/// first — so the block becomes `out += A · B` with no temporary.
///
/// With `k == 0` nothing is written: the zero-filled output (or the
/// accumulator) is the result.
pub(crate) fn gemm_row_block(
    out_rows: &mut [f32],
    i0: usize,
    a: Operand,
    b: Operand,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    if n == 0 {
        return;
    }
    let mut pa = vec![[0.0f32; MR]; k.min(KC)];
    let mut pb = vec![[0.0f32; NR]; k.min(KC) * n.min(NC).div_ceil(NR)];
    for jc in (0..n).step_by(NC) {
        let panels = || (jc..n.min(jc + NC)).step_by(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for (panel, j) in pb.chunks_exact_mut(kc).zip(panels()) {
                pack_b(panel, b, pc, j, NR.min(n - j));
            }
            for (quad, rows) in out_rows.chunks_mut(MR * n).enumerate() {
                pack_a(&mut pa[..kc], a, i0 + quad * MR, rows.len() / n, pc);
                for (panel, j) in pb.chunks_exact(kc).zip(panels()) {
                    tile(rows, n, j, accumulate || pc > 0, &pa[..kc], panel);
                }
            }
        }
    }
}

/// Packs columns `j..j + nr` (`nr ≤ NR`) of `B`, reduction steps `pc..`, into
/// one panel; missing columns are zero.
fn pack_b(panel: &mut [[f32; NR]], b: Operand, pc: usize, j: usize, nr: usize) {
    if nr < NR {
        panel.fill([0.0; NR]);
    }
    let b = match b {
        Operand::Strided(b) => b,
        Operand::Gathered(g) => return gather_b(panel, g, pc, &g.cols[j..j + nr]),
    };
    if b.cs == 1 {
        // Rows of `B` are contiguous: copy row segments.
        for (dst, p) in panel.iter_mut().zip(pc..) {
            let src = &b.data[p * b.rs + j..][..nr];
            match src.first_chunk::<NR>() {
                Some(full) => *dst = *full,
                None => dst[..nr].copy_from_slice(src),
            }
        }
    } else {
        // Transposing pack: stream each column of `B` into its lane.
        for c in 0..nr {
            for (dst, p) in panel.iter_mut().zip(pc..) {
                dst[c] = b.data[p * b.rs + (j + c) * b.cs];
            }
        }
    }
}

/// Packs reduction steps `pc..` of `mr ≤ MR` rows of `A` from row `i`; a
/// missing row repeats the last real one.
///
/// Rows with a contiguous reduction are streamed as slices, free of index
/// arithmetic and bounds checks: a quad is reused by only `n / NR` tiles, so
/// for a narrow output (the conv `dW` product has `n` = 8…32) its pack
/// otherwise costs as much as its FMAs.
fn pack_a(pa: &mut [[f32; MR]], a: Operand, i: usize, mr: usize, pc: usize) {
    let a = match a {
        Operand::Strided(a) => a,
        Operand::Gathered(g) => return gather_a(pa, g, i, mr, pc),
    };
    let rows: [&[f32]; MR] =
        std::array::from_fn(|r| &a.data[(i + r.min(mr - 1)) * a.rs + pc * a.cs..]);
    if a.cs == 1 {
        let [r0, r1, r2, r3] = rows;
        for ((((dst, &a0), &a1), &a2), &a3) in pa.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *dst = [a0, a1, a2, a3];
        }
    } else {
        for (p, dst) in pa.iter_mut().enumerate() {
            *dst = rows.map(|row| row[p * a.cs]);
        }
    }
}

/// The longest power-of-two `L ≤ max` such that every aligned run of `L`
/// entries of `cols` holds adjacent offsets — one slice of the gathered
/// buffer. A convolution's positions come in output rows of adjacent
/// receptive-field origins at stride 1, so `L` is the row length there.
pub(crate) fn run_len(cols: &[usize], max: usize) -> usize {
    let adjacent = |run: &[usize]| run.windows(2).all(|w| w[1] == w[0] + 1);
    let mut len = max;
    while len > 1 && !cols.chunks(len).all(adjacent) {
        len /= 2;
    }
    len
}

/// [`pack_b`] over a gathered `B`: each reduction step `p` reads the
/// columns `cols` of row `rows[p]`, a run of adjacent columns as one
/// fixed-size copy.
fn gather_b(panel: &mut [[f32; NR]], b: Gather, pc: usize, cols: &[usize]) {
    let rows = &b.rows[pc..pc + panel.len()];
    let Some(cols) = cols.first_chunk::<NR>() else {
        for (dst, &row) in panel.iter_mut().zip(rows) {
            for (d, &c) in dst.iter_mut().zip(cols) {
                *d = b.data[row + c];
            }
        }
        return;
    };
    match run_len(cols, NR) {
        16 => copy_runs::<16>(panel, b.data, rows, cols),
        8 => copy_runs::<8>(panel, b.data, rows, cols),
        4 => copy_runs::<4>(panel, b.data, rows, cols),
        2 => copy_runs::<2>(panel, b.data, rows, cols),
        _ => copy_runs::<1>(panel, b.data, rows, cols),
    }
}

/// Fills a panel whose columns are aligned runs of `L` adjacent offsets.
fn copy_runs<const L: usize>(
    panel: &mut [[f32; NR]],
    data: &[f32],
    rows: &[usize],
    cols: &[usize; NR],
) {
    for (dst, &row) in panel.iter_mut().zip(rows) {
        for (run, &c) in dst.chunks_exact_mut(L).zip(cols.iter().step_by(L)) {
            run.copy_from_slice(&data[row + c..][..L]);
        }
    }
}

/// [`pack_a`] over a gathered `A`: the reduction steps are the columns.
/// (Streaming runs of adjacent columns as slices measured slower than this
/// gather at every conv shape of `vgg11_mini`.)
fn gather_a(pa: &mut [[f32; MR]], a: Gather, i: usize, mr: usize, pc: usize) {
    let rows: [&[f32]; MR] = std::array::from_fn(|r| &a.data[a.rows[i + r.min(mr - 1)]..]);
    for (dst, &c) in pa.iter_mut().zip(&a.cols[pc..]) {
        *dst = rows.map(|row| row[c]);
    }
}

/// The MR×NR register tile over one packed reduction block: the chains of
/// columns `j..` of the (up to MR) output rows in `rows` start from zero, or
/// `resume` from the values an earlier block stored there.
// Kept out of line: inlined into the driver's loop nest, LLVM has been seen
// to scalarise the accumulator block instead of holding it in registers.
#[inline(never)]
fn tile(rows: &mut [f32], n: usize, j: usize, resume: bool, pa: &[[f32; MR]], pb: &[[f32; NR]]) {
    let mut acc = [[0.0f32; NR]; MR];
    if resume {
        for (accr, row) in acc.iter_mut().zip(rows.chunks_exact(n)) {
            match row[j..].first_chunk::<NR>() {
                Some(full) => *accr = *full,
                None => accr[..n - j].copy_from_slice(&row[j..]),
            }
        }
    }
    for (ca, bt) in pa.iter().zip(pb) {
        for (accr, &c) in acc.iter_mut().zip(ca) {
            for (av, &bv) in accr.iter_mut().zip(bt) {
                *av = c.mul_add(bv, *av);
            }
        }
    }
    for (accr, row) in acc.iter().zip(rows.chunks_exact_mut(n)) {
        match row[j..].first_chunk_mut::<NR>() {
            Some(full) => *full = *accr,
            None => row[j..].copy_from_slice(&accr[..n - j]),
        }
    }
}

impl Indicator<'_> {
    /// The skip kernel: a block of output rows as [`gemm_row_block`]
    /// computes it, each element the module's chain by the indicator lemma.
    /// Blocked [`WORD`] reduction rows × [`IB`] output columns, so the block
    /// of `B` stays in L1 while every row of the partition passes over it;
    /// each row parks its chains in the output between words, as the tile
    /// does between reduction blocks.
    pub(crate) fn rows(
        &self,
        out_rows: &mut [f32],
        i0: usize,
        k: usize,
        n: usize,
        accumulate: bool,
    ) {
        let (a, b) = (&self.a, self.b);
        // Rows past `k` are never selected (their bits are clear); they
        // point at zeros so that the block's table is total.
        let zeros = [0.0f32; IB];
        // A full block whose rows are not adjacent in `B` is copied here
        // once and read from the copy: at a 4 KiB pitch (1,024 columns) its
        // 64 rows alias onto the same L1 sets. Same values, same adds. A `B`
        // of `IB` columns is one contiguous block and pays for no scratch.
        let mut copy = (b.rs != IB && n >= IB).then(|| [[0.0f32; IB]; WORD]);
        for jc in (0..n).step_by(IB) {
            let nb = IB.min(n - jc);
            for (w, pc) in (0..k).step_by(WORD).enumerate() {
                let resume = accumulate || pc > 0;
                let mut block = [&zeros[..nb]; WORD];
                let rows = b.data[pc * b.rs + jc..].chunks(b.rs).take(k - pc);
                for (row, src) in block.iter_mut().zip(rows) {
                    *row = &src[..nb];
                }
                let full = match copy.as_mut().filter(|_| nb == IB) {
                    Some(copy) => {
                        for (dst, row) in copy.iter_mut().zip(&block) {
                            dst.copy_from_slice(row);
                        }
                        let copy = &*copy;
                        std::array::from_fn(|p| &copy[p])
                    }
                    None => block.map(|row| row.first_chunk::<IB>().unwrap_or(&zeros)),
                };
                for (r, row) in out_rows.chunks_exact_mut(n).enumerate() {
                    let mask = a.word(i0 + r, w);
                    if resume && mask == 0 {
                        continue;
                    }
                    let seg = &mut row[jc..jc + nb];
                    match seg.first_chunk_mut::<IB>() {
                        Some(seg) => add_selected(seg, resume, mask, &full),
                        None => add_selected_tail(seg, resume, mask, &block),
                    }
                }
            }
        }
    }
}

/// Adds to `seg` (or to zero, unless `resume`) the rows `block[p]` whose
/// bits are set in `mask`, in ascending `p`, with the 64 chains held in
/// registers.
// Kept out of line for the same reason as `tile`.
#[inline(never)]
fn add_selected(seg: &mut [f32; IB], resume: bool, mut mask: u64, block: &[&[f32; IB]; WORD]) {
    let mut acc = if resume { *seg } else { [0.0; IB] };
    while mask != 0 {
        // A set bit's index is below 64; `% WORD` lets the compiler see it.
        let row = block[mask.trailing_zeros() as usize % WORD];
        mask &= mask - 1;
        for (av, &bv) in acc.iter_mut().zip(row) {
            *av += bv;
        }
    }
    *seg = acc;
}

/// [`add_selected`] for a last column block narrower than [`IB`].
fn add_selected_tail(seg: &mut [f32], resume: bool, mut mask: u64, block: &[&[f32]; WORD]) {
    if !resume {
        seg.fill(0.0);
    }
    while mask != 0 {
        let row = block[mask.trailing_zeros() as usize % WORD];
        mask &= mask - 1;
        for (av, &bv) in seg.iter_mut().zip(row) {
            *av += bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The module-level element spec, written as the naive triple loop;
    /// each chain starts from `prior`'s element.
    fn reference_gemm(a: View, b: View, m: usize, k: usize, n: usize, prior: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = prior[i * n + j];
                for p in 0..k {
                    acc = a.data[i * a.rs + p * a.cs].mul_add(b.data[p * b.rs + j * b.cs], acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn fill_pattern(len: usize, salt: u32) -> Vec<f32> {
        // Deterministic, sign-mixed, non-dyadic values so reassociation or
        // contraction differences would show up in the low bits.
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt);
                (x % 2_001) as f32 / 997.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn gemm_matches_reference_across_layouts_shapes_and_partitions() {
        // Shapes straddle every blocking edge: MR rows, NR columns, the NC
        // column block and the KC reduction block, plus degenerate k.
        let shapes = [
            (3, 0, 5),
            (1, 1, 1),
            (4, 3, NR),
            (5, 7, NR + 1),
            (9, NR, 2 * NR + 1),
            (8, 2, NR - 1),
            (6, KC + 3, NC + NR + 5),
        ];
        for (m, k, n) in shapes {
            let (da, db) = (fill_pattern(m * k, 1), fill_pattern(k * n, 2));
            // Each operand row-major and as the transposed view of the
            // buffer `matmul_t` / `t_matmul` hand in.
            for a in [
                View {
                    data: &da,
                    rs: k,
                    cs: 1,
                },
                View {
                    data: &da,
                    rs: 1,
                    cs: m,
                },
            ] {
                for b in [
                    View {
                        data: &db,
                        rs: n,
                        cs: 1,
                    },
                    View {
                        data: &db,
                        rs: 1,
                        cs: k,
                    },
                ] {
                    let want = reference_gemm(a, b, m, k, n, &vec![0.0; m * n]);
                    let prior = fill_pattern(m * n, 3);
                    let resumed = reference_gemm(a, b, m, k, n, &prior);
                    // Each view also as the gather through its offset table
                    // (a unit column stride makes consecutive columns).
                    let tables = |v: View, r: usize, c: usize| {
                        let rows: Vec<usize> = (0..r).map(|i| i * v.rs).collect();
                        (rows, (0..c).map(|j| j * v.cs).collect::<Vec<usize>>())
                    };
                    let ((ra, ca), (rb, cb)) = (tables(a, m, k), tables(b, k, n));
                    let gather = |data, rows, cols| Operand::Gathered(Gather { data, rows, cols });
                    let a_forms = [Operand::Strided(a), gather(&da, &ra, &ca)];
                    let b_forms = [Operand::Strided(b), gather(&db, &rb, &cb)];
                    for (a, b) in a_forms.iter().flat_map(|&a| b_forms.map(|b| (a, b))) {
                        // Partitioned at every row boundary (0 = one
                        // whole-output call): the tile an element lands in
                        // shifts, its bits must not.
                        for split in 0..m {
                            let mut out = vec![0.0f32; m * n];
                            let (lo, hi) = out.split_at_mut(split * n);
                            gemm_row_block(lo, 0, a, b, k, n, false);
                            gemm_row_block(hi, split, a, b, k, n, false);
                            assert_eq!(out, want, "m={m} k={k} n={n} split={split}");
                        }
                        // Accumulating resumes each chain from the value the
                        // output holds, across every reduction block.
                        let mut out = prior.clone();
                        gemm_row_block(&mut out, 0, a, b, k, n, true);
                        assert_eq!(out, resumed, "accumulate m={m} k={k} n={n}");
                    }
                }
            }
        }
    }

    /// A 0/1 pattern with −0 zeros, `rows × cols` row-major.
    fn indicator_pattern(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| match (i * 7 + i / 5) % 11 {
                0..=2 => 1.0,
                3 => -0.0,
                _ => 0.0,
            })
            .collect()
    }

    #[test]
    fn pack_bits_reads_both_layouts_and_rejects_any_other_entry() {
        // k straddles the mask word; the transposed view is the buffer a
        // dense weight gradient hands in (`xᵀ` over a stored `[k, m]`).
        for (m, k) in [(1, 1), (3, 63), (5, 64), (4, 65), (2, 130), (67, 200)] {
            let rows = indicator_pattern(m, k);
            let cols = indicator_pattern(k, m);
            for (data, view) in [
                (
                    &rows,
                    View {
                        data: &rows,
                        rs: k,
                        cs: 1,
                    },
                ),
                (
                    &cols,
                    View {
                        data: &cols,
                        rs: 1,
                        cs: m,
                    },
                ),
            ] {
                let bits = pack_bits(view, m, k).expect("0/1 entries");
                for (i, p) in (0..m).flat_map(|i| (0..k).map(move |p| (i, p))) {
                    let want = data[i * view.rs + p * view.cs] == 1.0;
                    let got = bits.word(i, p / WORD) >> (p % WORD) & 1 == 1;
                    assert_eq!(got, want, "m={m} k={k} ({i}, {p})");
                }
                // One entry off {±0, 1}, in the last (partial) word of the
                // last row, rejects the operand.
                for bad in [0.5, 2.0, -1.0, 1e-45, f32::INFINITY, f32::NAN] {
                    let mut poisoned = data.clone();
                    poisoned[(m - 1) * view.rs + (k - 1) * view.cs] = bad;
                    let view = View {
                        data: &poisoned,
                        ..view
                    };
                    assert!(
                        pack_bits(view, m, k).is_none(),
                        "{bad} accepted, m={m} k={k}"
                    );
                }
            }
        }
        // A view with no unit stride has no bit layout.
        let data = indicator_pattern(4, 4);
        assert!(pack_bits(
            View {
                data: &data,
                rs: 2,
                cs: 4
            },
            2,
            2
        )
        .is_none());
    }

    #[test]
    fn skip_kernel_is_the_chain_partitioned_and_resumed() {
        // Shapes straddle the mask word and the register block. The output
        // starts as NaN, and row 0 is all zeros: its chains are written
        // though no term is added.
        for (m, k, n) in [
            (1, 1, 1),
            (5, 65, 17),
            (9, 130, IB + NR + 3),
            (4, 64, 2 * IB),
        ] {
            let mut da = indicator_pattern(m, k);
            da[..k].fill(0.0);
            let a = View {
                data: &da,
                rs: k,
                cs: 1,
            };
            let db = fill_pattern(k * n, 5);
            let b = View {
                data: &db,
                rs: n,
                cs: 1,
            };
            let prior = fill_pattern(m * n, 6);
            let (a_form, b_form) = (Operand::Strided(a), Operand::Strided(b));
            let form = indicator_form(a_form, b_form, (m, k, n), Some(&prior)).expect("taken");
            let want = reference_gemm(a, b, m, k, n, &vec![0.0; m * n]);
            for split in 0..m {
                let mut out = vec![f32::NAN; m * n];
                let (lo, hi) = out.split_at_mut(split * n);
                form.rows(lo, 0, k, n, false);
                form.rows(hi, split, k, n, false);
                assert_eq!(out, want, "m={m} k={k} n={n} split={split}");
            }
            let mut out = prior.clone();
            form.rows(&mut out, 0, k, n, true);
            assert_eq!(
                out,
                reference_gemm(a, b, m, k, n, &prior),
                "accumulate m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn indicator_form_checks_its_preconditions() {
        let (m, k, n) = (3, 70, 5);
        let da = indicator_pattern(m, k);
        let a = Operand::Strided(View {
            data: &da,
            rs: k,
            cs: 1,
        });
        let db = fill_pattern(k * n, 7);
        let b = Operand::Strided(View {
            data: &db,
            rs: n,
            cs: 1,
        });
        let out = fill_pattern(m * n, 8);
        let taken = |a: Operand, b: Operand, resumed: Option<&[f32]>| {
            indicator_form(a, b, (m, k, n), resumed).is_some()
        };
        assert!(taken(a, b, None));
        assert!(taken(a, b, Some(&out)));
        // A transposed `B`, a non-finite `B`, or a −0 or NaN to resume.
        assert!(!taken(
            a,
            Operand::Strided(View {
                data: &db,
                rs: 1,
                cs: k
            }),
            None
        ));
        for bad in [f32::INFINITY, f32::NAN] {
            let mut poisoned = db.clone();
            poisoned[k * n - 1] = bad;
            assert!(!taken(
                a,
                Operand::Strided(View {
                    data: &poisoned,
                    rs: n,
                    cs: 1
                }),
                None
            ));
        }
        for bad in [-0.0, f32::NAN] {
            let mut resumed = out.clone();
            resumed[m * n - 1] = bad;
            assert!(!taken(a, b, Some(&resumed)));
        }
        // A gathered `A` is never inspected.
        let (rows, cols): (Vec<usize>, Vec<usize>) =
            ((0..m).map(|i| i * k).collect(), (0..k).collect());
        let gathered = Operand::Gathered(Gather {
            data: &da,
            rows: &rows,
            cols: &cols,
        });
        assert!(!taken(gathered, b, None));
    }
}

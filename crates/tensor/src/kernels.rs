//! The packed GEMM microkernel behind the matmul family in [`crate::Tensor`].
//!
//! [`Tensor::matmul`](crate::Tensor::matmul),
//! [`matmul_t`](crate::Tensor::matmul_t) and
//! [`t_matmul`](crate::Tensor::t_matmul) are one product `out = A · B` over
//! two [`Operand`]s. A stored matrix is a strided [`View`]: a transposed
//! operand is the same buffer with its stride pair swapped. The lowered
//! convolution operand ([`crate::conv::Patches`]) is a [`Gather`]: the patch
//! matrix read through an offset table, never built. The driver in
//! `tensor.rs` partitions output *rows* across the pool and hands each
//! partition to [`gemm_row_block`], which packs both operands into
//! contiguous tile-shaped scratch and runs every product through the single
//! MR×NR register tile — operand layout is absorbed by the packing, never by
//! the arithmetic.
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
//! The tile is the only code that does arithmetic, and each of its MR×NR
//! lanes is exactly this chain. Blocking never reorders it: a reduction
//! block parks the chain in the output and the next block resumes from the
//! stored value — an exact `f32` round trip — in ascending `p`. Edge tiles
//! are *padded*, not special-cased: a partial panel is packed with zero
//! columns and a partial row-quad with a repeated row, the full tile is
//! computed, and only the lanes that exist are stored. Lanes never mix, so
//! a padded lane cannot reach a real one, and each element's bits are a
//! function of the operands alone, independent of tiling, pool width, and
//! partition. (`f32::mul_add` is the IEEE fused operation — one rounding;
//! with the workspace's x86-64-v3 baseline it compiles to a single FMA
//! instruction.)
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
            for a in [View { data: &da, rs: k, cs: 1 }, View { data: &da, rs: 1, cs: m }] {
                for b in [View { data: &db, rs: n, cs: 1 }, View { data: &db, rs: 1, cs: k }] {
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
}

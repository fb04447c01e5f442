//! Convolution lowering: the patch matrix as a view.
//!
//! The CNN architectures of the paper (ResNet20 for CIFAR, VGG11 for
//! GTSRB/CelebA, M18 for Speech Commands) are built on 2-D and 1-D
//! convolutions. As in most CPU deep-learning stacks, convolution is lowered
//! to matrix multiplication against a *patch matrix*: the convolution is one
//! product of the flattened kernel bank with it, and the input gradient is
//! the product's gradient folded back onto the input. A 1-D convolution is
//! the 2-D one over height-1 images with a height-1 kernel and no vertical
//! padding, so one private `Lowering` serves both dimensionalities.
//!
//! # Layout: patch-major
//!
//! The patch matrix has shape `[c·kh·kw, n·oh·ow]`. Row `q = (ch, ky, kx)` is
//! one kernel tap; column `r = (i, oy, ox)` is one output position of one
//! sample. The long side `n·oh·ow` is the one the GEMM driver wants on its
//! 16-wide register-tile axis (`W · cols`, see `dinar_nn::conv`).
//!
//! # The matrix is a view (implicit GEMM)
//!
//! Element `(q, r)` is `padded[bases[r] + taps[q]]`, where `padded` is the
//! input with its zero border written out, `bases[r]` is the offset of
//! position `r`'s receptive-field origin in it (sample, row and column, with
//! the stride folded in), and `taps[q]` is the offset of tap `(ch, ky, kx)`
//! from that origin. [`Patches`] is exactly that triple: the products
//! ([`Patches::left_matmul`] for `W · cols`, [`Patches::matmul_t`] for the
//! weight gradient `cols · gᵀ`) hand it to the GEMM's packs, which gather
//! their tile panels through the table, so no code path builds the
//! `[patch, n·oh·ow]` matrix to multiply with it. The zero border stands in
//! for every bounds test. [`im2col2d`]/[`im2col1d`] materialise the same view
//! (for callers that want the matrix itself), and the fold
//! [`col2im2d`]/[`col2im1d`] scatters through the same table.
//!
//! # Accumulation order of the fold
//!
//! The fold adds column `r` of row `q` onto `padded[bases[r] + taps[q]]` and
//! then crops the border. Overlapping patches make that a floating-point
//! sum per input cell, and the sum's order is part of the determinism
//! contract: every input cell receives its contributions in ascending
//! `(oy, ox)` order. An input cell `(iy, ix)` is reached from tap `(ky, kx)`
//! at `oy = (iy + p − ky) / s`, `ox = (ix + p − kx) / s`, at most once per
//! tap, so ascending `(oy, ox)` is exactly *descending* `(ky, kx)`: the fold
//! walks the rows of the matrix from the last tap to the first.

use crate::kernels::{run_len, Gather, Operand};
use crate::{par, sanitize, Result, Tensor, TensorError};
use std::borrow::Cow;
use std::ops::Range;

/// Minimum output cells per parallel part for the lowering kernels; below
/// this the whole buffer is filled inline.
const PAR_MIN_CELLS: usize = 16 * 1024;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dGeom {
    /// Output spatial size `(out_h, out_w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConv`] if the kernel does not fit in the
    /// padded input or the stride is zero.
    pub fn output_size(&self) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidConv {
                reason: "stride must be positive".into(),
            });
        }
        let ph = self.height + 2 * self.padding;
        let pw = self.width + 2 * self.padding;
        if self.kernel_h == 0 || self.kernel_w == 0 || self.kernel_h > ph || self.kernel_w > pw {
            return Err(TensorError::InvalidConv {
                reason: format!(
                    "kernel {}x{} does not fit padded input {}x{}",
                    self.kernel_h, self.kernel_w, ph, pw
                ),
            });
        }
        Ok((
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        ))
    }

    /// Number of elements in one unfolded patch (`C * kh * kw`).
    pub fn patch_len(&self) -> usize {
        self.channels * self.kernel_h * self.kernel_w
    }

    /// The patch matrix `[c·kh·kw, n·oh·ow]` of `input` (`[n, c, h, w]`) as
    /// a view (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `input` does not match the
    /// geometry, or [`TensorError::InvalidConv`] for invalid geometry.
    pub fn patches<'a>(&self, input: &'a Tensor) -> Result<Patches<'a>> {
        let image = [self.channels, self.height, self.width];
        self.lowering()?.patches("conv2d", input, &image)
    }

    fn lowering(&self) -> Result<Lowering> {
        let (oh, ow) = self.output_size()?;
        Ok(Lowering {
            c: self.channels,
            h: self.height,
            w: self.width,
            kh: self.kernel_h,
            kw: self.kernel_w,
            stride: self.stride,
            pad_h: self.padding,
            pad_w: self.padding,
            oh,
            ow,
        })
    }
}

/// The validated geometry both dimensionalities lower through: a 1-D
/// convolution is the 2-D one over height-1 images with a height-1 kernel
/// and no vertical padding.
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad_h: usize,
    pad_w: usize,
    oh: usize,
    ow: usize,
}

impl Lowering {
    /// Height and width of the zero-padded image.
    fn padded(&self) -> (usize, usize) {
        (self.h + 2 * self.pad_h, self.w + 2 * self.pad_w)
    }

    /// Offset of tap `q = (ch, ky, kx)` from a receptive-field origin in the
    /// padded image: one entry per patch row.
    fn taps(&self) -> Vec<usize> {
        let (hp, wp) = self.padded();
        let (kh, kw) = (self.kh, self.kw);
        (0..self.c)
            .flat_map(|ch| {
                (0..kh).flat_map(move |ky| (0..kw).map(move |kx| (ch * hp + ky) * wp + kx))
            })
            .collect()
    }

    /// Offset of the receptive-field origin of output position `(i, oy, ox)`
    /// in the padded batch of `n` images: one entry per patch column.
    fn bases(&self, n: usize) -> Vec<usize> {
        let (hp, wp) = self.padded();
        let (s, ow, image) = (self.stride, self.ow, self.c * hp * wp);
        let sample: Vec<usize> = (0..self.oh * ow).map(|r| (r / ow * wp + r % ow) * s).collect();
        let mut bases = Vec::with_capacity(n * sample.len());
        for i in 0..n {
            bases.extend(sample.iter().map(|&b| i * image + b));
        }
        bases
    }

    /// The patch matrix of `input`, a batch of `n` images of shape `image`
    /// (`[c, h, w]`, or `[c, len]` for waveforms), as a view.
    fn patches<'a>(
        &self,
        op: &'static str,
        input: &'a Tensor,
        image: &[usize],
    ) -> Result<Patches<'a>> {
        let shape = input.shape();
        if shape.len() != image.len() + 1 || shape[1..] != *image {
            return Err(TensorError::ShapeMismatch {
                lhs: shape.to_vec(),
                rhs: [&[0], image].concat(),
                op,
            });
        }
        sanitize::check_finite(op, "input", input);
        let n = shape[0];
        let padded = if self.pad_h == 0 && self.pad_w == 0 {
            Cow::Borrowed(input)
        } else {
            Cow::Owned(self.pad(input.as_slice(), n)?)
        };
        Ok(Patches {
            image: padded,
            taps: Cow::Owned(self.taps()),
            bases: Cow::Owned(self.bases(n)),
        })
    }

    /// `x` (`n` images) with its zero border written out.
    fn pad(&self, x: &[f32], n: usize) -> Result<Tensor> {
        let (hp, wp) = self.padded();
        let mut out = vec![0.0f32; n * self.c * hp * wp];
        if self.h * self.w > 0 {
            let interior = self.pad_h * wp + self.pad_w;
            for (src, dst) in x.chunks_exact(self.h * self.w).zip(out.chunks_exact_mut(hp * wp)) {
                for (src, dst) in src.chunks_exact(self.w).zip(dst[interior..].chunks_mut(wp)) {
                    dst[..self.w].copy_from_slice(src);
                }
            }
        }
        Tensor::from_vec(out, &[n, self.c, hp, wp])
    }

    /// The inverse of [`Lowering::pad`]: whole padded images into `out`
    /// without their border.
    fn crop(&self, padded: &[f32], out: &mut [f32]) {
        let (hp, wp) = self.padded();
        let interior = self.pad_h * wp + self.pad_w;
        for (src, dst) in padded.chunks_exact(hp * wp).zip(out.chunks_exact_mut(self.h * self.w)) {
            for (src, dst) in src[interior..].chunks(wp).zip(dst.chunks_exact_mut(self.w)) {
                dst.copy_from_slice(&src[..self.w]);
            }
        }
    }

    /// Folds a patch-matrix gradient (`[patch, n·oh·ow]`) back onto `n`
    /// images of shape `image`, overlapping patches accumulated.
    fn fold(&self, op: &'static str, cols: &Tensor, n: usize, image: &[usize]) -> Result<Tensor> {
        let (taps, map) = (self.taps(), self.oh * self.ow);
        let (patch, positions) = (taps.len(), n * map);
        if cols.shape() != [patch, positions] {
            return Err(TensorError::ShapeMismatch {
                lhs: cols.shape().to_vec(),
                rhs: vec![patch, positions],
                op,
            });
        }
        sanitize::check_finite(op, "cols", cols);
        let g = cols.as_slice();
        let (hp, wp) = self.padded();
        let (sample, padded) = (self.c * self.h * self.w, self.c * hp * wp);
        let bases = self.bases(n);
        let mut out = vec![0.0f32; n * sample];
        // Overlapping patches accumulate, but only within one sample, so
        // parallelizing over samples keeps every sum on a single thread. A
        // part's samples are scattered into a zero-bordered scratch batch,
        // last tap first (see the module docs), and cropped into place.
        if !out.is_empty() && positions > 0 {
            let min_samples = (PAR_MIN_CELLS / (map * patch).max(1)).max(1);
            par::for_each_part_mut(&mut out, sample, min_samples, |offset, part| {
                let (first, count) = (offset / sample, part.len() / sample);
                let columns = first * map..(first + count) * map;
                // The part's origins, relative to its first padded image.
                let local: Vec<usize> = bases[columns.clone()]
                    .iter()
                    .map(|b| b - first * padded)
                    .collect();
                let rows = taps.iter().zip(g.chunks_exact(positions)).rev();
                let rows = rows.map(|(&tap, row)| (tap, &row[columns.clone()]));
                let mut scratch = vec![0.0f32; count * padded];
                match run_len(&local, RUN_MAX) {
                    16 => scatter_add::<16>(&mut scratch, &local, rows),
                    8 => scatter_add::<8>(&mut scratch, &local, rows),
                    4 => scatter_add::<4>(&mut scratch, &local, rows),
                    2 => scatter_add::<2>(&mut scratch, &local, rows),
                    _ => scatter_add::<1>(&mut scratch, &local, rows),
                }
                self.crop(&scratch, part);
            });
        }
        sanitize::check_finite_slice(op, "output", &out);
        crate::profile::record_col2im(out.len() as u64 * 4);
        Tensor::from_vec(out, &[&[n], image].concat())
    }
}

/// The longest run of adjacent origins the lowering kernels copy as one
/// fixed-size block (see [`run_len`]): a `vgg11_mini` output row at most.
const RUN_MAX: usize = 16;

/// Adds each `(tap, row)` onto `scratch` in the given order: `row[r]` onto
/// cell `tap + bases[r]`, `bases` in aligned runs of `L` adjacent cells.
fn scatter_add<'a, const L: usize>(
    scratch: &mut [f32],
    bases: &[usize],
    rows: impl Iterator<Item = (usize, &'a [f32])>,
) {
    let whole = bases.len() / L * L;
    for (tap, row) in rows {
        let cells = &mut scratch[tap..];
        for (&base, run) in bases.iter().step_by(L).zip(row[..whole].chunks_exact(L)) {
            for (d, &v) in cells[base..base + L].iter_mut().zip(run) {
                *d += v;
            }
        }
        for (&base, &v) in bases[whole..].iter().zip(&row[whole..]) {
            cells[base] += v;
        }
    }
}

/// Fills each row `q` of `out` (rows of `bases.len()`) with
/// `image[taps[q] + bases[r]]`, `bases` in aligned runs of `L` adjacent
/// cells.
fn gather_rows<const L: usize>(out: &mut [f32], image: &[f32], taps: &[usize], bases: &[usize]) {
    let whole = bases.len() / L * L;
    for (&tap, row) in taps.iter().zip(out.chunks_exact_mut(bases.len())) {
        let cells = &image[tap..];
        let (runs, tail) = row.split_at_mut(whole);
        for (&base, run) in bases.iter().step_by(L).zip(runs.chunks_exact_mut(L)) {
            run.copy_from_slice(&cells[base..base + L]);
        }
        for (&base, d) in bases[whole..].iter().zip(tail) {
            *d = cells[base];
        }
    }
}

/// The patch matrix `[c·kh·kw, n·oh·ow]` of one batch as a view over its
/// zero-padded input: element `(q, r)` is `image[bases[r] + taps[q]]` (see
/// the module docs). Built by [`Conv2dGeom::patches`] or
/// [`Conv1dGeom::patches`]; the products read it through the GEMM's packs.
#[derive(Debug)]
pub struct Patches<'a> {
    /// The input with its zero border written out (the input itself when
    /// the convolution has no padding).
    image: Cow<'a, Tensor>,
    /// Per patch row: offset of the tap from a receptive-field origin.
    taps: Cow<'a, [usize]>,
    /// Per patch column: offset of its receptive-field origin in `image`.
    bases: Cow<'a, [usize]>,
}

impl Patches<'_> {
    /// `[patch rows, positions]` of the matrix this view stands for.
    pub fn shape(&self) -> [usize; 2] {
        [self.taps.len(), self.bases.len()]
    }

    fn operand(&self) -> Operand<'_> {
        Operand::Gathered(Gather {
            data: self.image.as_slice(),
            rows: &self.taps,
            cols: &self.bases,
        })
    }

    /// `lhs · P` for a `[m, patch]` matrix `lhs` (the convolution's forward
    /// product `W · cols`), `[m, positions]`. Counted and computed as the
    /// `matmul` of `lhs` with the materialised matrix, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] or [`TensorError::ShapeMismatch`]
    /// if `lhs` is not `[m, patch]`.
    pub fn left_matmul(&self, lhs: &Tensor) -> Result<Tensor> {
        let op = "patches left_matmul";
        let (m, k, a) = lhs.operand(op, false)?;
        let [patch, positions] = self.shape();
        if k != patch {
            return Err(TensorError::ShapeMismatch {
                lhs: lhs.shape().to_vec(),
                rhs: vec![patch, positions],
                op,
            });
        }
        sanitize::check_finite(op, "lhs", lhs);
        Ok(crate::tensor::gemm(
            op,
            m,
            k,
            positions,
            Operand::Strided(a),
            self.operand(),
        ))
    }

    /// `P · rhsᵀ` for a `[m, positions]` matrix `rhs` (the weight gradient
    /// `cols · gᵀ`), `[patch, m]`. Counted and computed as the `matmul_t` of
    /// the materialised matrix with `rhs`, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] or [`TensorError::ShapeMismatch`]
    /// if `rhs` is not `[m, positions]`.
    pub fn matmul_t(&self, rhs: &Tensor) -> Result<Tensor> {
        let op = "patches matmul_t";
        let (k, n, b) = rhs.operand(op, true)?;
        let [patch, positions] = self.shape();
        if k != positions {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![patch, positions],
                rhs: rhs.shape().to_vec(),
                op,
            });
        }
        sanitize::check_finite(op, "rhs", rhs);
        Ok(crate::tensor::gemm(
            op,
            patch,
            k,
            n,
            self.operand(),
            Operand::Strided(b),
        ))
    }

    /// Columns `positions` of this matrix (for example one sample's
    /// `oh·ow` block), as a view of the same image and table.
    ///
    /// # Panics
    ///
    /// Panics if `positions` reaches past the last column.
    pub fn columns(&self, positions: Range<usize>) -> Patches<'_> {
        Patches {
            image: Cow::Borrowed(&*self.image),
            taps: Cow::Borrowed(&*self.taps),
            bases: Cow::Borrowed(&self.bases[positions]),
        }
    }

    /// The matrix itself, `[patch, positions]`, row by row through the
    /// table: a run of adjacent origins is one slice copy.
    fn materialize(&self, op: &'static str) -> Result<Tensor> {
        let [patch, positions] = self.shape();
        let (x, bases) = (self.image.as_slice(), &*self.bases);
        let mut out = vec![0.0f32; patch * positions];
        // Parallel over patch rows: each row is written by exactly one
        // thread, so the result is identical for any partition.
        if !out.is_empty() {
            let min_rows = (PAR_MIN_CELLS / positions).max(1);
            let run = run_len(bases, RUN_MAX);
            par::for_each_part_mut(&mut out, positions, min_rows, |offset, rows| {
                let taps = &self.taps[offset / positions..];
                match run {
                    16 => gather_rows::<16>(rows, x, taps, bases),
                    8 => gather_rows::<8>(rows, x, taps, bases),
                    4 => gather_rows::<4>(rows, x, taps, bases),
                    2 => gather_rows::<2>(rows, x, taps, bases),
                    _ => gather_rows::<1>(rows, x, taps, bases),
                }
            });
        }
        let cols = Tensor::from_vec(out, &[patch, positions])?;
        sanitize::check_shape_contract(op, &[patch, positions], cols.shape());
        crate::profile::record_im2col(cols.len() as u64 * 4);
        Ok(cols)
    }
}

/// Unfolds a batched image tensor into the patch matrix.
///
/// `input` must have shape `[n, c, h, w]`. The result has shape
/// `[c * kh * kw, n * out_h * out_w]` (patch-major, see the module docs):
/// column `(i, oy, ox)` holds the receptive field of output pixel `(oy, ox)`
/// of sample `i`, so that `kernels.matmul(&cols)` (with `kernels` of shape
/// `[out_c, c * kh * kw]`) computes the convolution as `[out_c, n * out_h *
/// out_w]`. This materialises what [`Conv2dGeom::patches`] views.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` does not match the
/// geometry, or [`TensorError::InvalidConv`] for invalid geometry.
pub fn im2col2d(input: &Tensor, geom: &Conv2dGeom) -> Result<Tensor> {
    let image = [geom.channels, geom.height, geom.width];
    geom.lowering()?
        .patches("im2col2d", input, &image)?
        .materialize("im2col2d")
}

/// Folds a patch-matrix gradient back onto the input (the adjoint of
/// [`im2col2d`]).
///
/// `cols` must have shape `[c * kh * kw, n * out_h * out_w]`; the result has
/// shape `[n, c, h, w]`, with overlapping patches accumulated in ascending
/// output-position order per input cell.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not match the
/// geometry, or [`TensorError::InvalidConv`] for invalid geometry.
pub fn col2im2d(cols: &Tensor, n: usize, geom: &Conv2dGeom) -> Result<Tensor> {
    let image = [geom.channels, geom.height, geom.width];
    geom.lowering()?.fold("col2im2d", cols, n, &image)
}

/// Geometry of a 1-D convolution over waveforms `[n, c, len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv1dGeom {
    /// Input channels.
    pub channels: usize,
    /// Input length.
    pub len: usize,
    /// Kernel length.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on both ends.
    pub padding: usize,
}

impl Conv1dGeom {
    /// Output length.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConv`] if the kernel does not fit in the
    /// padded input or the stride is zero.
    pub fn output_len(&self) -> Result<usize> {
        if self.stride == 0 {
            return Err(TensorError::InvalidConv {
                reason: "stride must be positive".into(),
            });
        }
        let pl = self.len + 2 * self.padding;
        if self.kernel == 0 || self.kernel > pl {
            return Err(TensorError::InvalidConv {
                reason: format!("kernel {} does not fit padded input {}", self.kernel, pl),
            });
        }
        Ok((pl - self.kernel) / self.stride + 1)
    }

    /// The patch matrix `[c·kernel, n·out_len]` of `input` (`[n, c, len]`)
    /// as a view (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `input` does not match the
    /// geometry, or [`TensorError::InvalidConv`] for invalid geometry.
    pub fn patches<'a>(&self, input: &'a Tensor) -> Result<Patches<'a>> {
        self.lowering()?
            .patches("conv1d", input, &[self.channels, self.len])
    }

    fn lowering(&self) -> Result<Lowering> {
        Ok(Lowering {
            c: self.channels,
            h: 1,
            w: self.len,
            kh: 1,
            kw: self.kernel,
            stride: self.stride,
            pad_h: 0,
            pad_w: self.padding,
            oh: 1,
            ow: self.output_len()?,
        })
    }
}

/// 1-D analogue of [`im2col2d`]: unfolds `[n, c, len]` into
/// `[c * kernel, n * out_len]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` does not match the
/// geometry, or [`TensorError::InvalidConv`] for invalid geometry.
pub fn im2col1d(input: &Tensor, geom: &Conv1dGeom) -> Result<Tensor> {
    geom.lowering()?
        .patches("im2col1d", input, &[geom.channels, geom.len])?
        .materialize("im2col1d")
}

/// 1-D analogue of [`col2im2d`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not match the
/// geometry, or [`TensorError::InvalidConv`] for invalid geometry.
pub fn col2im1d(cols: &Tensor, n: usize, geom: &Conv1dGeom) -> Result<Tensor> {
    geom.lowering()?
        .fold("col2im1d", cols, n, &[geom.channels, geom.len])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeom {
        Conv2dGeom {
            channels: c,
            height: h,
            width: w,
            kernel_h: k,
            kernel_w: k,
            stride: s,
            padding: p,
        }
    }

    #[test]
    fn output_size_matches_formula() {
        assert_eq!(geom(3, 8, 8, 3, 1, 1).output_size().unwrap(), (8, 8));
        assert_eq!(geom(3, 8, 8, 3, 2, 1).output_size().unwrap(), (4, 4));
        assert_eq!(geom(1, 5, 5, 5, 1, 0).output_size().unwrap(), (1, 1));
    }

    #[test]
    fn invalid_geometry_errors() {
        assert!(geom(1, 3, 3, 5, 1, 0).output_size().is_err());
        assert!(geom(1, 3, 3, 3, 0, 0).output_size().is_err());
    }

    #[test]
    fn im2col_identity_kernel_1x1() {
        // With a 1x1 kernel and stride 1, im2col of one sample is a pure
        // reshape: row `ch` of the patch matrix is channel `ch`'s plane.
        let g = geom(2, 3, 3, 1, 1, 0);
        let x = Tensor::from_fn(&[1, 2, 3, 3], |i| i as f32);
        let cols = im2col2d(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[2, 9]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_via_im2col_matches_direct_convolution() {
        // 1 sample, 1 channel, 4x4 input, 3x3 kernel, stride 1, no padding.
        let g = geom(1, 4, 4, 3, 1, 0);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let kernel = Tensor::from_fn(&[1, 9], |i| (i % 2) as f32); // alternating 0/1
        let cols = im2col2d(&x, &g).unwrap();
        let y = kernel.matmul(&cols).unwrap(); // [1, 4]
        // Direct convolution.
        for oy in 0..2 {
            for ox in 0..2 {
                let mut acc = 0.0;
                for ky in 0..3 {
                    for kx in 0..3 {
                        let kidx = ky * 3 + kx;
                        let w = (kidx % 2) as f32;
                        acc += w * ((oy + ky) * 4 + ox + kx) as f32;
                    }
                }
                assert_eq!(y.get(&[0, oy * 2 + ox]).unwrap(), acc);
            }
        }
    }

    #[test]
    fn padding_zeroes_are_respected() {
        let g = geom(1, 2, 2, 3, 1, 1);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let cols = im2col2d(&x, &g).unwrap();
        // Top-left output: only the bottom-right 2x2 of the kernel overlaps
        // real pixels -> 4 ones, 5 zeros.
        let first_patch_sum: f32 = (0..9).map(|q| cols.get(&[q, 0]).unwrap()).sum();
        assert_eq!(first_patch_sum, 4.0);
        // Tap (0, 0) reads above-left of its output: only the bottom-right
        // output sees a real pixel through it.
        assert_eq!(cols.as_slice()[..4], [0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y: the defining
        // property of an adjoint pair, which is exactly what backprop needs.
        let g = geom(2, 5, 5, 3, 2, 1);
        let mut rng = crate::Rng::seed_from(42);
        let x = rng.randn(&[2, 2, 5, 5]);
        let cols = im2col2d(&x, &g).unwrap();
        let y = rng.randn(cols.shape());
        let lhs = cols.dot(&y).unwrap();
        let folded = col2im2d(&y, 2, &g).unwrap();
        let rhs = x.dot(&folded).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn im2col1d_basic() {
        let g = Conv1dGeom {
            channels: 1,
            len: 7,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let x = Tensor::from_fn(&[1, 1, 7], |i| (i + 1) as f32);
        let cols = im2col1d(&x, &g).unwrap();
        // Row `k` is tap `k` at outputs 0..4: input cell `2·o + k − 1`, zero
        // where that falls in the padding.
        assert_eq!(cols.shape(), &[3, 4]);
        assert_eq!(
            cols.as_slice(),
            &[0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0, 2.0, 4.0, 6.0, 0.0]
        );
    }

    #[test]
    fn col2im1d_is_adjoint_of_im2col1d() {
        let g = Conv1dGeom {
            channels: 3,
            len: 16,
            kernel: 5,
            stride: 2,
            padding: 2,
        };
        let mut rng = crate::Rng::seed_from(7);
        let x = rng.randn(&[2, 3, 16]);
        let cols = im2col1d(&x, &g).unwrap();
        let y = rng.randn(cols.shape());
        let lhs = cols.dot(&y).unwrap();
        let rhs = x.dot(&col2im1d(&y, 2, &g).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn patch_products_are_the_products_of_the_materialised_matrix() {
        let mut rng = crate::Rng::seed_from(11);
        for (s, p) in [(1, 1), (2, 0), (1, 2)] {
            let g = geom(3, 7, 6, 3, s, p);
            let x = rng.randn(&[4, 3, 7, 6]);
            let (patches, cols) = (g.patches(&x).unwrap(), im2col2d(&x, &g).unwrap());
            assert_eq!(patches.shape(), [cols.shape()[0], cols.shape()[1]]);
            let w = rng.randn(&[5, g.patch_len()]);
            let gy = rng.randn(&[5, cols.shape()[1]]);
            let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let forward = patches.left_matmul(&w).unwrap();
            assert_eq!(bits(forward.clone()), bits(w.matmul(&cols).unwrap()));
            assert_eq!(bits(patches.matmul_t(&gy).unwrap()), bits(cols.matmul_t(&gy).unwrap()));
            // One sample's column block, read as a view of the same table.
            let map = cols.shape()[1] / 4;
            let sample = patches.columns(2 * map..3 * map).left_matmul(&w).unwrap();
            for (o, row) in sample.as_slice().chunks(map).enumerate() {
                let full = &forward.as_slice()[o * 4 * map + 2 * map..][..map];
                assert_eq!(bits(Tensor::from_slice(row)), bits(Tensor::from_slice(full)));
            }
            assert!(patches.left_matmul(&rng.randn(&[5, 4])).is_err());
            assert!(patches.matmul_t(&rng.randn(&[5, 3])).is_err());
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = geom(3, 4, 4, 3, 1, 1);
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(im2col2d(&x, &g).is_err());
        let bad_cols = Tensor::zeros(&[3, 3]);
        assert!(col2im2d(&bad_cols, 1, &g).is_err());
    }
}

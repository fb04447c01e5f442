//! `im2col`/`col2im` lowering for convolutions.
//!
//! The CNN architectures of the paper (ResNet20 for CIFAR, VGG11 for
//! GTSRB/CelebA, M18 for Speech Commands) are built on 2-D and 1-D
//! convolutions. As in most CPU deep-learning stacks, convolution is lowered
//! to matrix multiplication: [`im2col2d`] unfolds the input into a *patch
//! matrix* so the convolution becomes one `matmul` of the flattened kernel
//! bank against it, and [`col2im2d`] folds a gradient of that matrix back
//! onto the input for the backward pass. [`im2col1d`]/[`col2im1d`] are the
//! waveform (audio) counterparts: the same lowering over height-1 images.
//!
//! # Layout: patch-major
//!
//! The patch matrix has shape `[c·kh·kw, n·oh·ow]`. Row `q = (ch, ky, kx)` is
//! one kernel tap; column `r = (i, oy, ox)` is one output position of one
//! sample. Within a row, the `ow` columns of one `(i, oy)` read consecutive
//! (or, at stride `s`, every `s`-th) cells of *one* input row, so the whole
//! lowering is a sequence of row-run copies: the output range `lo..hi` a tap
//! can reach without touching the zero padding is computed once per row of
//! the matrix, and each run inside it is a `copy_from_slice` (a strided
//! gather when `s > 1`). The long side `n·oh·ow` is the contiguous one, which
//! is also the side the GEMM driver wants on its 16-wide register-tile axis
//! (`W.matmul(cols)`, see `dinar_nn::conv`).
//!
//! # Accumulation order of `col2im`
//!
//! `col2im` is the transpose of the same copies — each run is *added* back —
//! and overlapping patches make that a floating-point sum per input cell.
//! The sum's order is part of the determinism contract: every input cell
//! receives its contributions in ascending `(oy, ox)` order. An input cell
//! `(iy, ix)` is reached from tap `(ky, kx)` at `oy = (iy + p − ky) / s`,
//! `ox = (ix + p − kx) / s`, at most once per tap, so ascending `(oy, ox)`
//! is exactly *descending* `(ky, kx)`: the fold walks the rows of the matrix
//! from the last tap to the first.

use crate::{par, sanitize, Result, Tensor, TensorError};
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

/// Output positions `o` along one axis whose tap `k` reads inside the input,
/// i.e. `0 <= o * stride + k - pad < len`.
fn tap_range(len: usize, pad: usize, stride: usize, out: usize, k: usize) -> Range<usize> {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    let hi = if len + pad > k {
        ((len + pad - k - 1) / stride + 1).min(out)
    } else {
        0
    };
    lo.min(hi)..hi
}

impl Lowering {
    fn patch(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the patch matrix for a batch of `n`.
    fn positions(&self, n: usize) -> usize {
        n * self.oh * self.ow
    }

    /// Calls `f(image, col, len)` for every run of patch row `q` over
    /// `samples`: columns `col..col + len` of that row correspond to the
    /// input cells `image, image + stride, ..` (flat `[n, c, h, w]` indices).
    /// Columns outside every run are padding.
    fn for_each_run(
        &self,
        q: usize,
        samples: Range<usize>,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        let (ch, ky, kx) = (q / (self.kh * self.kw), q / self.kw % self.kh, q % self.kw);
        let ys = tap_range(self.h, self.pad_h, self.stride, self.oh, ky);
        let xs = tap_range(self.w, self.pad_w, self.stride, self.ow, kx);
        if xs.is_empty() {
            return;
        }
        let ix = xs.start * self.stride + kx - self.pad_w;
        // Normally a run is the part of one output row that reads inside one
        // input row. A tap that maps whole input rows onto whole output rows
        // at stride 1 has them back to back on both sides: its runs join
        // into one per sample.
        let whole_rows = self.stride == 1 && xs.len() == self.w && self.ow == self.w;
        let (ys, len) = if whole_rows && !ys.is_empty() {
            (ys.start..ys.start + 1, ys.len() * self.w)
        } else {
            (ys, xs.len())
        };
        for i in samples {
            for oy in ys.clone() {
                let iy = oy * self.stride + ky - self.pad_h;
                let image = ((i * self.c + ch) * self.h + iy) * self.w + ix;
                f(image, (i * self.oh + oy) * self.ow + xs.start, len);
            }
        }
    }

    /// The patch matrix `[patch, n·oh·ow]` of `input`, a batch of `n` images
    /// of shape `image` (`[c, h, w]`, or `[c, len]` for waveforms).
    fn unfold(&self, op: &'static str, input: &Tensor, image: &[usize]) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() != image.len() + 1 || shape[1..] != *image {
            return Err(TensorError::ShapeMismatch {
                lhs: shape.to_vec(),
                rhs: [&[0], image].concat(),
                op,
            });
        }
        let n = shape[0];
        sanitize::check_finite(op, "input", input);
        let x = input.as_slice();
        let (patch, positions, s) = (self.patch(), self.positions(n), self.stride);
        let mut out = vec![0.0f32; patch * positions];
        // Parallel over patch rows: each row is written by exactly one
        // thread from its own tap coordinates, so the result is identical
        // for any partition.
        if !out.is_empty() {
            let min_rows = (PAR_MIN_CELLS / positions).max(1);
            par::for_each_part_mut(&mut out, positions, min_rows, |offset, rows| {
                for (q, row) in (offset / positions..).zip(rows.chunks_exact_mut(positions)) {
                    self.for_each_run(q, 0..n, |image, col, len| {
                        let dst = &mut row[col..col + len];
                        if s == 1 {
                            dst.copy_from_slice(&x[image..image + len]);
                        } else {
                            for (d, &v) in dst.iter_mut().zip(x[image..].iter().step_by(s)) {
                                *d = v;
                            }
                        }
                    });
                }
            });
        }
        let cols = Tensor::from_vec(out, &[patch, positions])?;
        sanitize::check_shape_contract(op, &[patch, positions], cols.shape());
        crate::profile::record_im2col(cols.len() as u64 * 4);
        Ok(cols)
    }

    /// Folds a patch-matrix gradient (`[patch, n·oh·ow]`) back onto `n`
    /// images of shape `image`, overlapping patches accumulated.
    fn fold(&self, op: &'static str, cols: &Tensor, n: usize, image: &[usize]) -> Result<Tensor> {
        let (patch, positions, s) = (self.patch(), self.positions(n), self.stride);
        if cols.shape() != [patch, positions] {
            return Err(TensorError::ShapeMismatch {
                lhs: cols.shape().to_vec(),
                rhs: vec![patch, positions],
                op,
            });
        }
        sanitize::check_finite(op, "cols", cols);
        let g = cols.as_slice();
        let sample = self.c * self.h * self.w;
        let mut out = vec![0.0f32; n * sample];
        // Overlapping patches accumulate, but only within one sample's
        // `[c, h, w]` block — so parallelizing over samples keeps every
        // accumulation on a single thread. Rows are visited last tap first
        // (see the module docs), each read as one sweep.
        if !out.is_empty() && positions > 0 {
            let min_samples = (PAR_MIN_CELLS / (self.oh * self.ow * patch).max(1)).max(1);
            par::for_each_part_mut(&mut out, sample, min_samples, |offset, part| {
                let samples = offset / sample..(offset + part.len()) / sample;
                for (q, row) in g.chunks_exact(positions).enumerate().rev() {
                    self.for_each_run(q, samples.clone(), |image, col, len| {
                        let src = &row[col..col + len];
                        let dst = &mut part[image - offset..];
                        if s == 1 {
                            for (d, &v) in dst.iter_mut().zip(src) {
                                *d += v;
                            }
                        } else {
                            for (d, &v) in dst.iter_mut().step_by(s).zip(src) {
                                *d += v;
                            }
                        }
                    });
                }
            });
        }
        sanitize::check_finite_slice(op, "output", &out);
        crate::profile::record_col2im(out.len() as u64 * 4);
        Tensor::from_vec(out, &[&[n], image].concat())
    }
}

/// Unfolds a batched image tensor into the patch matrix.
///
/// `input` must have shape `[n, c, h, w]`. The result has shape
/// `[c * kh * kw, n * out_h * out_w]` (patch-major, see the module docs):
/// column `(i, oy, ox)` holds the receptive field of output pixel `(oy, ox)`
/// of sample `i`, so that `kernels.matmul(&cols)` (with `kernels` of shape
/// `[out_c, c * kh * kw]`) computes the convolution as `[out_c, n * out_h *
/// out_w]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` does not match the
/// geometry, or [`TensorError::InvalidConv`] for invalid geometry.
pub fn im2col2d(input: &Tensor, geom: &Conv2dGeom) -> Result<Tensor> {
    let image = [geom.channels, geom.height, geom.width];
    geom.lowering()?.unfold("im2col2d", input, &image)
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
    geom.lowering()?.unfold("im2col1d", input, &[geom.channels, geom.len])
}

/// 1-D analogue of [`col2im2d`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not match the
/// geometry, or [`TensorError::InvalidConv`] for invalid geometry.
pub fn col2im1d(cols: &Tensor, n: usize, geom: &Conv1dGeom) -> Result<Tensor> {
    geom.lowering()?.fold("col2im1d", cols, n, &[geom.channels, geom.len])
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
    fn shape_mismatch_rejected() {
        let g = geom(3, 4, 4, 3, 1, 1);
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        assert!(im2col2d(&x, &g).is_err());
        let bad_cols = Tensor::zeros(&[3, 3]);
        assert!(col2im2d(&bad_cols, 1, &g).is_err());
    }
}

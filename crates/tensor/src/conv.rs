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
//! 16-wide register-tile axis. The products read and write the activation
//! layout `[n, oc, oh·ow]` directly: [`Patches::convolve`] writes each block
//! of samples' output planes in place, and the gradients read the output
//! gradient's planes.
//!
//! # The matrix is a view (implicit GEMM)
//!
//! Element `(q, r)` is `padded[bases[r] + taps[q]]`, where `padded` is the
//! input with its zero border written out, `bases[r]` is the offset of
//! position `r`'s receptive-field origin in it (sample, row and column, with
//! the stride folded in), and `taps[q]` is the offset of tap `(ch, ky, kx)`
//! from that origin. [`Patches`] is exactly that triple: the products
//! ([`Patches::convolve`] for `W · cols`, [`Patches::add_weight_grad`] for
//! the weight gradient `g · colsᵀ`) read
//! their operands through the table, so no code path builds the
//! `[patch, n·oh·ow]` matrix to multiply with it. The zero border stands in
//! for every bounds test. [`im2col2d`]/[`im2col1d`] materialise the same
//! view (for callers that want the matrix itself), and the fold
//! [`col2im2d`]/[`col2im1d`] scatters through the same table.
//!
//! # Dead taps
//!
//! A tap whose rows `oy·s + ky` or whose columns `ox·s + kx` all fall in the
//! zero border (a 1×1 map at padding 1 leaves only the centre tap) reads
//! nothing but zeros. Which taps those are is decided from the geometry
//! alone, and the products keep only the live rows: for finite weights
//! every skipped term is `fma(w, ±0, acc)` with `acc ≠ −0`, so no bit
//! moves. `im2col*`/`col2im*` keep every row.
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
//!
//! The input gradient ([`Conv2dGeom::input_grad`]) is `col2im(Wᵀ · g)`
//! without the product: each input cell computes only the product elements
//! that reach it, each the chain of `Tensor::t_matmul` over the output
//! channels, and sums them last tap first. On a stride-1 plane of eight
//! vectors or more the cells run along the lanes (a transposed
//! convolution over the gradient planes laid out at the padded pitch);
//! otherwise the input channels do, a few samples at a time.

use crate::kernels::{gemm_row_block, run_len, Gather, Operand, View};
use crate::tensor::F32;
use crate::{par, sanitize, Result, Tensor, TensorError};
use std::borrow::Cow;
use std::ops::Range;

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
        self.lowering()?.patches("conv2d", input, &image, true)
    }

    /// The input gradient of a convolution with weights `weight`
    /// (`[oc, c·kh·kw]`) for the output gradient `grad` in the activation
    /// layout (`[n, oc, oh·ow]`, whose `[oc, n·oh·ow]` matrix is `g`):
    /// `col2im2d(Wᵀ · g)`, bit for bit, with no product built and nothing
    /// scattered (see the module docs). `[n, c, h, w]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] or [`TensorError::NotAMatrix`]
    /// if the operands do not match the geometry, or
    /// [`TensorError::InvalidConv`] for invalid geometry.
    pub fn input_grad(&self, weight: &Tensor, grad: &Tensor, n: usize) -> Result<Tensor> {
        let image = [self.channels, self.height, self.width];
        self.lowering()?
            .input_grad("conv2d input_grad", weight, grad, n, &image)
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

    /// The patch rows `q = (ch, ky, kx)` that read an interior cell for some
    /// output position, ascending. A tap whose rows `oy·s + ky` or whose
    /// columns `ox·s + kx` all fall in the zero border only ever reads zeros
    /// (a *dead* tap, see the module docs); which taps are dead depends on
    /// the geometry alone.
    fn live_rows(&self) -> Vec<usize> {
        let s = self.stride;
        let reaches = |k: usize, len: usize, pad: usize, out: usize| {
            (0..out).any(|o| (pad..pad + len).contains(&(o * s + k)))
        };
        let rows: Vec<bool> = (0..self.kh)
            .map(|ky| reaches(ky, self.h, self.pad_h, self.oh))
            .collect();
        let cols: Vec<bool> = (0..self.kw)
            .map(|kx| reaches(kx, self.w, self.pad_w, self.ow))
            .collect();
        (0..self.c * self.kh * self.kw)
            .filter(|q| rows[q / self.kw % self.kh] && cols[q % self.kw])
            .collect()
    }

    /// Offset of the receptive-field origin of output position `(i, oy, ox)`
    /// in the padded batch of `n` images: one entry per patch column.
    fn bases(&self, n: usize) -> Vec<usize> {
        let (hp, wp) = self.padded();
        let (s, ow, image) = (self.stride, self.ow, self.c * hp * wp);
        let sample: Vec<usize> = (0..self.oh * ow)
            .map(|r| (r / ow * wp + r % ow) * s)
            .collect();
        let mut bases = Vec::with_capacity(n * sample.len());
        for i in 0..n {
            bases.extend(sample.iter().map(|&b| i * image + b));
        }
        bases
    }

    /// The patch matrix of `input`, a batch of `n` images of shape `image`
    /// (`[c, h, w]`, or `[c, len]` for waveforms), as a view: of its live
    /// rows only when `prune`, as the products read it, or of every row, as
    /// `im2col` writes it.
    fn patches<'a>(
        &self,
        op: &'static str,
        input: &'a Tensor,
        image: &[usize],
        prune: bool,
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
        let taps = self.taps();
        let rows = if prune {
            self.live_rows()
        } else {
            (0..taps.len()).collect()
        };
        Ok(Patches {
            image: padded,
            taps: Cow::Owned(rows.iter().map(|&q| taps[q]).collect()),
            rows: Cow::Owned(rows),
            bases: Cow::Owned(self.bases(n)),
            patch: taps.len(),
            map: self.oh * self.ow,
        })
    }

    /// Where the rows of an image sit in its zero-bordered copy.
    fn frame(&self) -> Frame {
        let wp = self.padded().1;
        Frame {
            rows: self.h,
            w: self.w,
            stride: wp,
            skip: 2 * self.pad_h * wp,
        }
    }

    /// `x` (`n` images) with its zero border written out.
    fn pad(&self, x: &[f32], n: usize) -> Result<Tensor> {
        let (hp, wp) = self.padded();
        let mut out = vec![0.0f32; n * self.c * hp * wp];
        let interior = &mut out[self.pad_h * wp + self.pad_w..];
        self.frame()
            .copy(interior, x, x.len() / self.w.max(1), true);
        Tensor::from_vec(out, &[n, self.c, hp, wp])
    }

    /// The inverse of [`Lowering::pad`]: whole padded images into `out`
    /// without their border.
    fn crop(&self, padded: &[f32], out: &mut [f32]) {
        let interior = &padded[self.pad_h * self.padded().1 + self.pad_w..];
        self.frame()
            .copy(out, interior, out.len() / self.w.max(1), false);
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
        let mut out = vec![0.0f32; n * sample];
        if !out.is_empty() && map > 0 {
            // Overlapping patches accumulate, but only within one sample, so
            // parts of whole samples keep every sum on a single thread. Each
            // part adds its columns of every row, last tap first, onto a
            // zero-bordered scratch batch and crops it into place.
            let bytes = F32 * (map * patch + sample);
            par::for_each_part_mut(&mut out, sample, bytes, |offset, part| {
                let (first, count) = (offset / sample, part.len() / sample);
                let bases = self.bases(count);
                let mut scratch = vec![0.0f32; count * padded];
                let columns = first * map..(first + count) * map;
                let rows = taps.iter().zip(g.chunks_exact(positions)).rev();
                let rows = &mut rows.map(|(&tap, row)| (tap, &row[columns.clone()]));
                match run_len(&bases, RUN_MAX) {
                    16 => scatter_add::<16>(&mut scratch, &bases, rows),
                    8 => scatter_add::<8>(&mut scratch, &bases, rows),
                    4 => scatter_add::<4>(&mut scratch, &bases, rows),
                    2 => scatter_add::<2>(&mut scratch, &bases, rows),
                    _ => scatter_add::<1>(&mut scratch, &bases, rows),
                }
                self.crop(&scratch, part);
            });
        }
        sanitize::check_finite_slice(op, "output", &out);
        crate::profile::record_col2im(out.len() as u64 * 4);
        Tensor::from_vec(out, &[&[n], image].concat())
    }

    /// The input gradient `Wᵀ · g` of a convolution over `n` images of shape
    /// `image`, folded back onto them, for the output gradient `grad` in the
    /// activation layout (`[n, oc, oh·ow]`). No `[patch, n·oh·ow]` product
    /// is built: each input cell computes the product elements that reach
    /// it, each the chain of `Tensor::t_matmul`, and sums them in the order
    /// of `col2im` over the whole product (last tap first), so the result is
    /// `col2im(Wᵀ · g)` bit for bit. A stride-1 plane of
    /// [`TRANSPOSED_MIN_VECTORS`] or more runs cells along the lanes
    /// ([`Lowering::transposed_conv`]); any other runs input channels along
    /// them ([`Lowering::channel_lanes`]).
    fn input_grad(
        &self,
        op: &'static str,
        weight: &Tensor,
        grad: &Tensor,
        n: usize,
        image: &[usize],
    ) -> Result<Tensor> {
        let (oc, patch, w) = weight.operand(op, false)?;
        let map = self.oh * self.ow;
        if patch != self.c * self.kh * self.kw || grad.len() != n * oc * map {
            return Err(TensorError::ShapeMismatch {
                lhs: weight.shape().to_vec(),
                rhs: grad.shape().to_vec(),
                op,
            });
        }
        sanitize::check_finite(op, "weight", weight);
        sanitize::check_finite(op, "grad", grad);
        let live = self.live_rows();
        crate::profile::record_matmul(live.len(), oc, n * map);
        let (w, g) = (w.data, grad.as_slice());
        let out = if self.stride == 1 && self.interior_vectors() >= TRANSPOSED_MIN_VECTORS {
            self.transposed_conv(w, oc, g, n, &live)
        } else {
            self.channel_lanes(w, oc, g, n)
        };
        sanitize::check_finite_slice(op, "output", &out);
        crate::profile::record_col2im(out.len() as u64 * 4);
        Tensor::from_vec(out, &[&[n], image].concat())
    }

    /// Per input cell `(iy, ix)`, the `(tap, position)` pairs that reach it,
    /// last tap first: kernel tap `(ky, kx)` reaches it from output
    /// position `((iy + p − ky) / s, (ix + p − kx) / s)` where that divides
    /// and lies in the map. As compressed rows: cell `t`'s pairs are
    /// `pairs[starts[t]..starts[t + 1]]`, each tap an index into `kernel`,
    /// the kernel taps that reach some cell (the live ones), ascending.
    fn cell_taps(&self) -> CellTaps {
        let s = self.stride;
        let reach = |i: usize, k: usize, pad: usize, out: usize| {
            (i + pad)
                .checked_sub(k)
                .filter(|t| t % s == 0 && t / s < out)
                .map(|t| t / s)
        };
        let kk = self.kh * self.kw;
        let mut cells = Vec::with_capacity(self.h * self.w);
        for iy in 0..self.h {
            for ix in 0..self.w {
                let pairs = (0..kk).rev().filter_map(|k| {
                    let oy = reach(iy, k / self.kw, self.pad_h, self.oh)?;
                    let ox = reach(ix, k % self.kw, self.pad_w, self.ow)?;
                    Some((k, oy * self.ow + ox))
                });
                cells.push(pairs.collect::<Vec<_>>());
            }
        }
        let mut kernel: Vec<usize> = cells.iter().flatten().map(|&(k, _)| k).collect();
        kernel.sort_unstable();
        kernel.dedup();
        let mut starts = vec![0];
        let mut pairs = Vec::new();
        for cell in &cells {
            pairs.extend(
                cell.iter()
                    .map(|&(k, pos)| (kernel.partition_point(|&t| t < k), pos)),
            );
            starts.push(pairs.len());
        }
        CellTaps {
            kernel,
            starts,
            pairs,
        }
    }

    /// The input gradient with the input channels on the lanes: for each
    /// input cell and `R` samples at a time, each pair (kernel tap `k`,
    /// position `pos`) that reaches the cell, last tap first, is the
    /// `t_matmul` chain over the output channels of
    /// `W[o, ch·kh·kw + k] · g[o, pos]`, added onto the cell's sum from
    /// `+0.0`, as the fold adds it.
    fn channel_lanes(&self, w: &[f32], oc: usize, g: &[f32], n: usize) -> Vec<f32> {
        let (kk, map, plane) = (self.kh * self.kw, self.oh * self.ow, self.h * self.w);
        let sample = self.c * plane;
        let mut out = vec![0.0f32; n * sample];
        if out.is_empty() || map == 0 {
            return out;
        }
        let taps = self.cell_taps();
        // `Wᵀ` live tap by live tap, channels on the lanes:
        // `wt[(t·oc + o)·lanes + ch]` is `W[o, ch·kk + kernel[t]]`, zero past
        // the last channel.
        let lanes = self.c.div_ceil(LANES) * LANES;
        let mut wt = vec![0.0f32; taps.kernel.len() * oc * lanes];
        for (o, row) in w.chunks_exact(self.c * kk).enumerate() {
            for (ch, kernel) in row.chunks_exact(kk).enumerate() {
                for (t, &k) in taps.kernel.iter().enumerate() {
                    wt[(t * oc + o) * lanes + ch] = kernel[k];
                }
            }
        }
        let madds = taps.pairs.len() * oc * self.c;
        let plan = ChannelLanes {
            oc,
            map,
            lanes,
            taps,
        };
        par::for_each_part_mut(&mut out, sample, madds, |offset, part| {
            let first = offset / sample;
            for v0 in (0..lanes / LANES).step_by(4) {
                match lanes / LANES - v0 {
                    1 => self.channel_part::<8, 1>(&plan, &wt, v0 * LANES, g, first, part),
                    2 => self.channel_part::<6, 2>(&plan, &wt, v0 * LANES, g, first, part),
                    3 => self.channel_part::<3, 3>(&plan, &wt, v0 * LANES, g, first, part),
                    _ => self.channel_part::<2, 4>(&plan, &wt, v0 * LANES, g, first, part),
                }
            }
        });
        out
    }

    /// [`Lowering::channel_lanes`] for channel lanes `lane..lane + 8·V` of
    /// the samples of `part`, from sample `first` on, `R` samples at a time
    /// (a group past the last sample repeats it; its sums are dropped).
    fn channel_part<const R: usize, const V: usize>(
        &self,
        plan: &ChannelLanes,
        wt: &[f32],
        lane: usize,
        g: &[f32],
        first: usize,
        part: &mut [f32],
    ) {
        let (plane, oc, map) = (self.h * self.w, plan.oc, plan.map);
        let sample = self.c * plane;
        let count = part.len() / sample;
        let channels = self.c.saturating_sub(lane).min(V * LANES);
        // The group's gradients interleaved, `[oc·map, R]`: one load finds a
        // position's `R` samples.
        let mut group = vec![0.0f32; oc * map * R];
        for s0 in (0..count).step_by(R) {
            for r in 0..R {
                let i = first + (s0 + r).min(count - 1);
                let src = &g[i * oc * map..][..oc * map];
                for (dst, &v) in group.chunks_exact_mut(R).zip(src) {
                    dst[r] = v;
                }
            }
            for (cell, span) in plan.taps.starts.windows(2).enumerate() {
                let pairs = &plan.taps.pairs[span[0]..span[1]];
                let sums = channel_tile::<R, V>(wt, plan.lanes, lane, pairs, oc, map, &group);
                for (r, sums) in sums.iter().enumerate().take(count - s0) {
                    let out = &mut part[(s0 + r) * sample + lane * plane..];
                    for (ch, &v) in sums.as_flattened().iter().enumerate().take(channels) {
                        out[ch * plane + cell] = v;
                    }
                }
            }
        }
    }

    /// Vectors of [`LANES`] cells from a padded plane's first interior cell
    /// to its last.
    fn interior_vectors(&self) -> usize {
        (self.h.saturating_sub(1) * self.padded().1 + self.w).div_ceil(LANES)
    }

    /// [`Lowering::input_grad`] at stride 1, as a transposed convolution:
    /// no product is stored and nothing is scattered. Cell `t` of a padded
    /// plane receives, from live tap `(ky, kx)`, the product row's element at
    /// the output position `t − (ky·wp + kx)` (in row pitch `wp`), so each
    /// sample's gradient planes are laid out at that pitch with a zero
    /// margin (`grad` is zero wherever no position exists), and a run of
    /// [`LANES`] cells reads one contiguous vector per output channel. Each
    /// cell's product elements are the same `Wᵀ · g` chains, and it sums them
    /// from the last tap to the first, as the fold does; an element the
    /// fold never makes (no position) is a chain of `fma(w, 0, ·)` from
    /// `+0.0`, which is `+0.0` for finite weights, and adding `+0.0` to a
    /// sum that starts at `+0.0` moves no bit. Lanes over border cells are
    /// computed and dropped.
    fn transposed_conv(
        &self,
        w: &[f32],
        oc: usize,
        g: &[f32],
        n: usize,
        live: &[usize],
    ) -> Vec<f32> {
        let wp = self.padded().1;
        let (kk, map) = (self.kh * self.kw, self.oh * self.ow);
        let sample = self.c * self.h * self.w;
        let mut out = vec![0.0f32; n * sample];
        if out.is_empty() || map == 0 {
            return out;
        }
        let (first, reach) = (
            self.pad_h * wp + self.pad_w,
            (self.kh - 1) * wp + self.kw - 1,
        );
        // The interior in runs of `v ≤ 6` vectors (4 ≤ v: the interior is
        // at least `TRANSPOSED_MIN_VECTORS`).
        let vectors = self.interior_vectors();
        let chunks = vectors.div_ceil(6);
        let v = vectors.div_ceil(chunks);
        // Each output channel's plane at pitch `wp`, `reach` cells in: cell
        // `t` meets tap offset `off` at `t + reach − off`.
        let glen = (first + chunks * v * LANES).max(self.oh * wp) + reach;
        // Live rows are the same kernel taps in every channel: channel 0's,
        // last first. A tap's chain runs over the output channels.
        let taps = &live[..live.partition_point(|&q| q < kk)];
        let steps = taps.iter().rev().flat_map(|&q| {
            let off = q / self.kw * wp + q % self.kw;
            (0..oc).map(move |o| (o * self.c * kk + q, o * glen + reach - off))
        });
        let plan = Transposed {
            oc,
            kk,
            reach,
            first,
            wp,
            glen,
            chunks,
            steps: steps.collect(),
        };
        let madds = sample * plan.steps.len();
        par::for_each_part_mut(&mut out, sample, madds, |offset, part| {
            let first_sample = offset / sample;
            match v {
                ..=4 => self.transposed_part::<3, 4>(&plan, w, g, first_sample, part),
                5 => self.transposed_part::<2, 5>(&plan, w, g, first_sample, part),
                _ => self.transposed_part::<2, 6>(&plan, w, g, first_sample, part),
            }
        });
        out
    }

    /// [`Lowering::transposed_conv`] for the samples of `part` from sample
    /// `first_sample` on, `C` channels × `V` vectors of cells at a time.
    fn transposed_part<const C: usize, const V: usize>(
        &self,
        plan: &Transposed,
        w: &[f32],
        g: &[f32],
        first_sample: usize,
        part: &mut [f32],
    ) {
        let (oc, c, plane, wp, glen) = (plan.oc, self.c, self.h * self.w, plan.wp, plan.glen);
        let lanes = plan.chunks * V * LANES;
        // Only the rows of positions are ever written; the margins stay zero.
        let embed = Frame {
            rows: self.oh,
            w: self.ow,
            stride: wp,
            skip: glen - self.oh * wp,
        };
        // A channel's sums at pitch `wp`, cropped as the fold crops.
        let pitch = lanes.max(self.h * wp);
        let crop = Frame {
            rows: self.h,
            w: self.w,
            stride: wp,
            skip: pitch - self.h * wp,
        };
        let mut planes = vec![0.0f32; oc * glen];
        let mut sums = vec![0.0f32; C * pitch];
        let sample = oc * self.oh * self.ow;
        for (i, out) in (first_sample..).zip(part.chunks_exact_mut(c * plane)) {
            embed.copy(
                &mut planes[plan.reach..],
                &g[i * sample..][..sample],
                oc * self.oh,
                true,
            );
            for ch0 in (0..c).step_by(C) {
                // A group past the last channel repeats it; its sums are dropped.
                let channels: [usize; C] = std::array::from_fn(|k| (ch0 + k).min(c - 1) * plan.kk);
                for chunk in 0..plan.chunks {
                    let at = plan.first + chunk * V * LANES;
                    let acc = transposed_tile::<C, V>(w, channels, &plan.steps, oc, &planes, at);
                    for (sum, acc) in sums.chunks_exact_mut(pitch).zip(&acc) {
                        sum[chunk * V * LANES..][..V * LANES].copy_from_slice(acc.as_flattened());
                    }
                }
                let channels = C.min(c - ch0);
                crop.copy(&mut out[ch0 * plane..], &sums, channels * self.h, false);
            }
        }
    }
}

/// Where packed image rows sit in their zero-bordered copies: planes of
/// `rows` rows of `w` floats, rows `stride` apart, and `skip` more floats
/// (the bottom and top border) between the last row of a plane and the
/// first of the next.
#[derive(Clone, Copy)]
struct Frame {
    rows: usize,
    w: usize,
    stride: usize,
    skip: usize,
}

impl Frame {
    /// Copies `count` rows into the frame (`dst` framed from its first
    /// interior cell, `src` packed) when `inward`, or out of it. The rows of
    /// small maps are a few floats long, where a `memcpy` call per row costs
    /// more than the copy, so the common short widths are fixed-size moves.
    fn copy(self, dst: &mut [f32], src: &[f32], count: usize, inward: bool) {
        match self.w {
            1 => self.copy_rows::<1>(dst, src, count, inward),
            2 => self.copy_rows::<2>(dst, src, count, inward),
            4 => self.copy_rows::<4>(dst, src, count, inward),
            8 => self.copy_rows::<8>(dst, src, count, inward),
            16 => self.copy_rows::<16>(dst, src, count, inward),
            _ => self.copy_rows::<0>(dst, src, count, inward),
        }
    }

    /// [`Frame::copy`] for rows of `W` floats (`W = 0`: of `w`).
    fn copy_rows<const W: usize>(self, dst: &mut [f32], src: &[f32], count: usize, inward: bool) {
        let w = if W == 0 { self.w } else { W };
        let (mut at, mut y) = (0, 0);
        for k in (0..count * w).step_by(w.max(1)) {
            let (d, s) = if inward { (at, k) } else { (k, at) };
            match (dst[d..].first_chunk_mut::<W>(), src[s..].first_chunk::<W>()) {
                (Some(d), Some(s)) if W > 0 => *d = *s,
                _ => dst[d..d + w].copy_from_slice(&src[s..s + w]),
            }
            y += 1;
            at += self.stride;
            if y == self.rows {
                (y, at) = (0, at + self.skip);
            }
        }
    }
}

/// The layout [`Lowering::transposed_conv`] works in.
struct Transposed {
    oc: usize,
    /// Taps per channel (`kh·kw`).
    kk: usize,
    /// Offset of the last tap from the first in a padded plane.
    reach: usize,
    /// The first interior cell of a padded plane, and the plane's pitch.
    first: usize,
    wp: usize,
    /// Floats per embedded gradient plane.
    glen: usize,
    /// Runs of `V` vectors of cells that cover a plane's interior.
    chunks: usize,
    /// Per live tap, last first, its chain's `oc` steps (see
    /// [`transposed_tile`]): `W[o, q]` against plane `o` at the tap's offset.
    steps: Vec<(usize, usize)>,
}

/// The smallest plane interior, in vectors of cells, whose input gradient
/// is a transposed convolution: on smaller maps the border cells are too
/// large a share of the lanes, and the channel lanes cost less.
const TRANSPOSED_MIN_VECTORS: usize = 8;

/// The input gradient's register tile: `V` vectors of cells in `C`
/// channels (`W` columns `channels[c] + q` for kernel tap `q`). For each
/// live tap, last first, the tap's `oc` steps `(o·patch + q, offset)` are
/// the `t_matmul` chain of its product element: lane `l` of vector `v`
/// multiplies `W[o, channels[c] + q]` with `planes[offset + at + 8v + l]`
/// from `+0.0`, and the chain is added onto the cell's sum, which starts at
/// `+0.0`.
// Kept out of line so the chains stay in registers.
#[inline(never)]
fn transposed_tile<const C: usize, const V: usize>(
    w: &[f32],
    channels: [usize; C],
    steps: &[(usize, usize)],
    oc: usize,
    planes: &[f32],
    at: usize,
) -> [[[f32; LANES]; V]; C] {
    let mut sums = [[[0.0f32; LANES]; V]; C];
    for tap in steps.chunks_exact(oc.max(1)) {
        let mut p = [[[0.0f32; LANES]; V]; C];
        for &(weight, offset) in tap {
            let cells = &planes[offset + at..][..V * LANES];
            let gv: [[f32; LANES]; V] = std::array::from_fn(|v| {
                cells[v * LANES..]
                    .first_chunk::<LANES>()
                    .copied()
                    .unwrap_or([0.0; LANES])
            });
            for (pc, &channel) in p.iter_mut().zip(&channels) {
                let wc = w[weight + channel];
                for (pv, gv) in pc.iter_mut().zip(&gv) {
                    for (a, &b) in pv.iter_mut().zip(gv) {
                        *a = wc.mul_add(b, *a);
                    }
                }
            }
        }
        for (sc, pc) in sums.iter_mut().zip(&p) {
            for (sv, pv) in sc.iter_mut().zip(pc) {
                for (s, &v) in sv.iter_mut().zip(pv) {
                    *s += v;
                }
            }
        }
    }
    sums
}

/// The pairs `(tap, position)` that reach each input cell (see
/// [`Lowering::cell_taps`]).
struct CellTaps {
    kernel: Vec<usize>,
    starts: Vec<usize>,
    pairs: Vec<(usize, usize)>,
}

/// The layout [`Lowering::channel_lanes`] works in.
struct ChannelLanes {
    oc: usize,
    /// Output positions per sample, and input channels rounded up to whole
    /// vectors.
    map: usize,
    lanes: usize,
    taps: CellTaps,
}

/// The channel-lane register tile: for one input cell, `R` samples × `V`
/// vectors of channels from lane `lane`. Each pair `(t, pos)` is the chain
/// over the output channels `o` of `wt[(t·oc + o)·lanes + ..] · g[o, pos]`
/// (`group[(o·map + pos)·R + r]` for sample `r`) from `+0.0`, added onto
/// the cell's sum from `+0.0`.
// Kept out of line so the chains stay in registers.
#[inline(never)]
fn channel_tile<const R: usize, const V: usize>(
    wt: &[f32],
    lanes: usize,
    lane: usize,
    pairs: &[(usize, usize)],
    oc: usize,
    map: usize,
    group: &[f32],
) -> [[[f32; LANES]; V]; R] {
    let mut sums = [[[0.0f32; LANES]; V]; R];
    for &(t, pos) in pairs {
        let mut p = [[[0.0f32; LANES]; V]; R];
        let w = &wt[t * oc * lanes + lane..];
        for o in 0..oc {
            let wv = &w[o * lanes..][..V * LANES];
            let wv: [[f32; LANES]; V] = std::array::from_fn(|v| {
                wv[v * LANES..]
                    .first_chunk::<LANES>()
                    .copied()
                    .unwrap_or([0.0; LANES])
            });
            let gv = group[(o * map + pos) * R..]
                .first_chunk::<R>()
                .copied()
                .unwrap_or([0.0; R]);
            for (pr, &gv) in p.iter_mut().zip(&gv) {
                for (pv, wv) in pr.iter_mut().zip(&wv) {
                    for (a, &b) in pv.iter_mut().zip(wv) {
                        *a = b.mul_add(gv, *a);
                    }
                }
            }
        }
        for (sr, pr) in sums.iter_mut().zip(&p) {
            for (sv, pv) in sr.iter_mut().zip(pr) {
                for (s, &v) in sv.iter_mut().zip(pv) {
                    *s += v;
                }
            }
        }
    }
    sums
}

/// Floats of the forward product one block of samples holds (64 KiB).
const PRODUCT_BLOCK: usize = 16 * 1024;

/// The longest run of adjacent origins the lowering kernels copy as one
/// fixed-size block (see [`run_len`]): a `vgg11_mini` output row at most.
const RUN_MAX: usize = 16;

/// Adds each `(tap, row)` onto `scratch` in the given order: `row[r]` onto
/// cell `tap + bases[r]`, `bases` in aligned runs of `L` adjacent cells.
fn scatter_add<const L: usize>(
    scratch: &mut [f32],
    bases: &[usize],
    rows: &mut dyn Iterator<Item = (usize, &[f32])>,
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
/// [`Conv1dGeom::patches`]; the products read it through the GEMM's packs,
/// and read only its live rows: a dead row is zero.
#[derive(Debug)]
pub struct Patches<'a> {
    /// The input with its zero border written out (the input itself when
    /// the convolution has no padding).
    image: Cow<'a, Tensor>,
    /// Per kept patch row: its index `q` among all `c·kh·kw` rows, ascending.
    rows: Cow<'a, [usize]>,
    /// Per kept patch row: offset of the tap from a receptive-field origin.
    taps: Cow<'a, [usize]>,
    /// Per patch column: offset of its receptive-field origin in `image`.
    bases: Cow<'a, [usize]>,
    /// Rows of the matrix this view stands for, kept or not.
    patch: usize,
    /// Output positions per sample (`oh·ow`).
    map: usize,
}

impl Patches<'_> {
    /// `[patch rows, positions]` of the matrix this view stands for.
    pub fn shape(&self) -> [usize; 2] {
        [self.patch, self.bases.len()]
    }

    /// The convolution `W · P + b` of every sample, in the activation layout
    /// `[n, m, oh·ow]`, for a `[m, patch]` weight `W` and an `[m]` bias `b`:
    /// element `(i, o, pos)` is element `(o, (i, pos))` of the `matmul` of
    /// `W` with the materialised matrix plus `b[o]`, bit for bit, computed
    /// and counted over the live rows only (the columns of `W` they meet are
    /// gathered). Each part of the
    /// batch computes its product a block of samples at a time
    /// (16 K floats at most) and writes each block's planes, bias
    /// added, straight into place, so the `[m, positions]` product is never
    /// built.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] or [`TensorError::ShapeMismatch`]
    /// unless `weight` is `[m, patch]`, `bias` is `[m]` and this view is
    /// whole samples.
    pub fn convolve(&self, weight: &Tensor, bias: &Tensor) -> Result<Tensor> {
        let op = "patches convolve";
        let (oc, k, w) = weight.operand(op, false)?;
        let ([patch, positions], map) = (self.shape(), self.map);
        if k != patch || bias.shape() != [oc] || !positions.is_multiple_of(map.max(1)) {
            return Err(TensorError::ShapeMismatch {
                lhs: weight.shape().to_vec(),
                rhs: bias.shape().to_vec(),
                op,
            });
        }
        sanitize::check_finite(op, "lhs", weight);
        sanitize::check_finite(op, "bias", bias);
        let live = self.rows.len();
        crate::profile::record_matmul(oc, live, positions);
        let starts: Vec<usize> = (0..oc).map(|o| o * w.rs).collect();
        let a = if live == patch {
            Operand::Strided(w)
        } else {
            Operand::Gathered(Gather {
                data: w.data,
                rows: &starts,
                cols: &self.rows,
            })
        };
        let (bias, n, sample) = (bias.as_slice(), positions / map.max(1), oc * map);
        let mut out = vec![0.0f32; n * sample];
        if !out.is_empty() {
            par::for_each_part_mut(&mut out, sample, sample * live, |offset, part| {
                let (first, count) = (offset / sample, part.len() / sample);
                let block = (PRODUCT_BLOCK / sample).clamp(1, count);
                let mut product = vec![0.0f32; oc * block * map];
                for (start, planes) in (first..)
                    .step_by(block)
                    .zip(part.chunks_mut(block * sample))
                {
                    let width = planes.len() / oc;
                    let product = &mut product[..oc * width];
                    let b = Gather {
                        data: self.image.as_slice(),
                        rows: &self.taps,
                        cols: &self.bases[start * map..][..width],
                    };
                    gemm_row_block(product, 0, a, Operand::Gathered(b), live, width, false);
                    // `[oc, samples, map]` into `[samples, oc, map]`.
                    for (s, planes) in planes.chunks_exact_mut(sample).enumerate() {
                        for (o, plane) in planes.chunks_exact_mut(map).enumerate() {
                            let row = &product[o * width + s * map..][..map];
                            for (d, &v) in plane.iter_mut().zip(row) {
                                *d = v + bias[o];
                            }
                        }
                    }
                }
            });
        }
        sanitize::check_finite_slice(op, "output", &out);
        Tensor::from_vec(out, &[n, oc, map])
    }

    /// `grad_weight += g · Pᵀ` in place for the output gradient `grad` in the
    /// activation layout (`[n, m, oh·ow]`, whole samples of this view's
    /// positions; `g` is its `[m, positions]` matrix) and a `[m, patch]`
    /// `grad_weight` (the convolution's weight gradient): each element's
    /// chain over the positions resumes from the value `grad_weight` holds,
    /// so on a zeroed `grad_weight` this is the `matmul_t` of `g` with the
    /// materialised matrix, bit for bit. Only the live columns are computed
    /// (and counted); a dead column is left as it is, which on a zeroed
    /// gradient is what its chain of `±0` products would have left.
    ///
    /// The kernel holds the chains of up to 8 patch rows × 8 lanes of
    /// output channels in registers and runs them over one block of
    /// positions at a time. The block's patch rows are read from the padded
    /// image run by run, or built by run copies where the runs are short
    /// (as `im2col` builds them), and its gradient is transposed from the
    /// planes so that the channels run along the lanes: every operand is
    /// streamed, none is gathered element by element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `grad_weight` is
    /// `[m, patch]` and `grad` holds `m` planes per sample of this view.
    pub fn add_weight_grad(&self, grad_weight: &mut Tensor, grad: &Tensor) -> Result<()> {
        let op = "patches add_weight_grad";
        let ([patch, positions], map) = (self.shape(), self.map);
        let oc = grad_weight.shape().first().copied().unwrap_or(0);
        if grad_weight.shape() != [oc, patch]
            || grad.len() != oc * positions
            || !positions.is_multiple_of(map.max(1))
        {
            return Err(TensorError::ShapeMismatch {
                lhs: grad_weight.shape().to_vec(),
                rhs: grad.shape().to_vec(),
                op,
            });
        }
        sanitize::check_finite(op, "grad", grad);
        crate::profile::record_matmul(oc, positions, self.rows.len());
        let lanes = oc.div_ceil(LANES) * LANES;
        if self.rows.is_empty() || lanes == 0 {
            return Ok(());
        }
        let planes = grad.as_slice();
        // The chains as `[live row, lanes]`, resumed from `grad_weight`.
        let gw = grad_weight.as_mut_slice();
        let mut chains = vec![0.0f32; self.rows.len() * lanes];
        for (chain, &q) in chains.chunks_exact_mut(lanes).zip(self.rows.iter()) {
            for (o, c) in chain[..oc].iter_mut().enumerate() {
                *c = gw[o * patch + q];
            }
        }
        let (x, run) = (self.image.as_slice(), run_len(&self.bases, RUN_MAX));
        par::for_each_part_mut(&mut chains, lanes, positions * oc, |offset, part| {
            let taps = &self.taps[offset / lanes..][..part.len() / lanes];
            // Positions per block: whole runs, and an L1-sized block of
            // gathered rows when the runs are too short to read in place.
            let block = if run >= DIRECT_RUN {
                GRAD_POSITIONS
            } else {
                (GRAD_BLOCK / taps.len()).clamp(RUN_MAX, GRAD_POSITIONS) / RUN_MAX * RUN_MAX
            };
            let mut gt = vec![0.0f32; block * lanes];
            let mut rows = Vec::new();
            for start in (0..positions).step_by(block) {
                let bases = &self.bases[start..positions.min(start + block)];
                let len = bases.len();
                let gt = &mut gt[..len * lanes];
                // The block's columns of `g`, one sample's planes at a time.
                let mut p = start;
                while p < start + len {
                    let (i, pos) = (p / map, p % map);
                    let seg = (map - pos).min(start + len - p);
                    let g = View {
                        data: &planes[i * oc * map + pos..],
                        rs: map,
                        cs: 1,
                    };
                    transpose_lanes(&mut gt[(p - start) * lanes..][..seg * lanes], g, oc, lanes);
                    p += seg;
                }
                let coeffs = if run >= DIRECT_RUN {
                    Coeffs::Image {
                        x,
                        taps,
                        bases,
                        run,
                    }
                } else {
                    rows.resize(taps.len() * len, 0.0);
                    match run {
                        8 => gather_rows::<8>(&mut rows, x, taps, bases),
                        4 => gather_rows::<4>(&mut rows, x, taps, bases),
                        2 => gather_rows::<2>(&mut rows, x, taps, bases),
                        _ => gather_rows::<1>(&mut rows, x, taps, bases),
                    }
                    Coeffs::Rows { rows: &rows, len }
                };
                weight_grad(part, lanes, coeffs, gt);
            }
        });
        for (chain, &q) in chains.chunks_exact(lanes).zip(self.rows.iter()) {
            for (o, &c) in chain[..oc].iter().enumerate() {
                gw[o * patch + q] = c;
            }
        }
        Ok(())
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
            rows: Cow::Borrowed(&*self.rows),
            taps: Cow::Borrowed(&*self.taps),
            bases: Cow::Borrowed(&self.bases[positions]),
            patch: self.patch,
            map: self.map,
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
            let run = run_len(bases, RUN_MAX);
            par::for_each_part_mut(&mut out, positions, 2 * F32 * positions, |offset, rows| {
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

/// Lanes of one accumulator vector of the weight-gradient kernel (one
/// 8-wide AVX2 register of `f32`).
const LANES: usize = 8;

/// Positions per weight-gradient block: its transposed gradient is at most
/// `GRAD_POSITIONS × 32` floats (64 KiB).
const GRAD_POSITIONS: usize = 512;

/// Floats of the patch rows one weight-gradient block gathers (128 KiB).
const GRAD_BLOCK: usize = 32 * 1024;

/// The shortest run of adjacent origins the weight-gradient kernel reads
/// straight from the padded image; shorter runs are gathered into rows
/// first.
const DIRECT_RUN: usize = 16;

/// The first `len` columns of `g` (`oc` rows `g.rs` apart) transposed
/// into `gt` (`[len, lanes]`): the channels run along the lanes, lanes past
/// `oc` are zero. Eight channels × eight positions at a time, through whole
/// `8 × 8` blocks the compiler turns into register shuffles.
fn transpose_lanes(gt: &mut [f32], g: View, oc: usize, lanes: usize) {
    let len = gt.len() / lanes;
    let whole = len / LANES * LANES;
    let (mut block, mut turned) = ([[0.0f32; LANES]; LANES], [[0.0f32; LANES]; LANES]);
    for o0 in (0..lanes).step_by(LANES) {
        let rows: [&[f32]; LANES] = std::array::from_fn(|o| match o0 + o < oc {
            true => &g.data[(o0 + o) * g.rs..][..len],
            false => &[],
        });
        for p0 in (0..whole).step_by(LANES) {
            for (b, row) in block.iter_mut().zip(&rows) {
                if let Some(run) = row.get(p0..).and_then(<[f32]>::first_chunk) {
                    *b = *run;
                }
            }
            transpose8(&block, &mut turned);
            for (dst, src) in gt[p0 * lanes + o0..].chunks_mut(lanes).zip(&turned) {
                if let Some(dst) = dst.first_chunk_mut() {
                    *dst = *src;
                }
            }
        }
        for p in whole..len {
            for (o, row) in rows.iter().enumerate() {
                gt[p * lanes + o0 + o] = row.get(p).copied().unwrap_or(0.0);
            }
        }
    }
}

/// `out = blockᵀ`.
#[inline(never)]
fn transpose8(block: &[[f32; LANES]; LANES], out: &mut [[f32; LANES]; LANES]) {
    *out = std::array::from_fn(|i| std::array::from_fn(|j| block[j][i]));
}

/// Where the weight-gradient kernel reads the patch matrix.
#[derive(Clone, Copy)]
enum Coeffs<'a> {
    /// Straight from the padded image `x`: every aligned run of `run`
    /// positions is one slice of it per tap.
    Image {
        x: &'a [f32],
        taps: &'a [usize],
        bases: &'a [usize],
        run: usize,
    },
    /// From patch rows gathered for a block of `len` positions
    /// (`[taps, len]`).
    Rows { rows: &'a [f32], len: usize },
}

/// Advances the chains of `part` (`[rows, lanes]`) over the positions of
/// `coeffs`, whose gradient `gt` holds transposed (`[positions, lanes]`).
/// Row groups of `R` rows × `V` vectors stay in registers; a short last
/// group repeats its last row and stores only the rows that exist.
fn weight_grad(part: &mut [f32], lanes: usize, coeffs: Coeffs, gt: &[f32]) {
    let vectors = lanes / LANES;
    for v0 in (0..vectors).step_by(4) {
        let lane = v0 * LANES;
        match vectors - v0 {
            1 => weight_grad_rows::<8, 4, 1>(part, lanes, lane, coeffs, gt),
            2 => weight_grad_rows::<6, 2, 2>(part, lanes, lane, coeffs, gt),
            3 => weight_grad_rows::<3, 1, 3>(part, lanes, lane, coeffs, gt),
            _ => weight_grad_rows::<2, 1, 4>(part, lanes, lane, coeffs, gt),
        }
    }
}

/// [`weight_grad`] for `V` vectors from lane `lane`: groups of `R` rows,
/// then groups of `RT` for the rows left over.
fn weight_grad_rows<const R: usize, const RT: usize, const V: usize>(
    part: &mut [f32],
    lanes: usize,
    lane: usize,
    coeffs: Coeffs,
    gt: &[f32],
) {
    let count = part.len() / lanes;
    let whole = count / R * R;
    for first in (0..whole).step_by(R) {
        weight_grad_tile::<R, V>(part, lanes, lane, coeffs, gt, first);
    }
    for first in (whole..count).step_by(RT) {
        weight_grad_tile::<RT, V>(part, lanes, lane, coeffs, gt, first);
    }
}

/// The weight-gradient register tile: the chains of rows `first..first + R`
/// (the last one repeated past the end), lanes `lane..lane + V·8`, resumed
/// from `part`, advanced over every position in order, and stored back.
// Kept out of line, as the GEMM tile is, so the accumulators stay in
// registers.
#[inline(never)]
fn weight_grad_tile<const R: usize, const V: usize>(
    part: &mut [f32],
    lanes: usize,
    lane: usize,
    coeffs: Coeffs,
    gt: &[f32],
    first: usize,
) {
    let count = part.len() / lanes;
    let row = |r: usize| (first + r).min(count - 1);
    let mut acc = [[[0.0f32; LANES]; V]; R];
    for (r, accr) in acc.iter_mut().enumerate() {
        let chains = &part[row(r) * lanes + lane..];
        for (v, accv) in accr.iter_mut().enumerate() {
            if let Some(stored) = chains[v * LANES..].first_chunk::<LANES>() {
                *accv = *stored;
            }
        }
    }
    match coeffs {
        Coeffs::Rows { rows, len } => {
            let rows = std::array::from_fn(|r| &rows[row(r) * len..]);
            weight_grad_steps::<R, V>(&mut acc, rows, gt, lanes, lane);
        }
        Coeffs::Image {
            x,
            taps,
            bases,
            run,
        } => {
            let taps: [usize; R] = std::array::from_fn(|r| taps[row(r)]);
            for (&base, gt) in bases.iter().step_by(run).zip(gt.chunks(run * lanes)) {
                let window = &x[base..];
                let rows = taps.map(|tap| &window[tap..]);
                weight_grad_steps::<R, V>(&mut acc, rows, gt, lanes, lane);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(count - first) {
        let chains = &mut part[(first + r) * lanes + lane..];
        for (v, accv) in accr.iter().enumerate() {
            if let Some(stored) = chains[v * LANES..].first_chunk_mut::<LANES>() {
                *stored = *accv;
            }
        }
    }
}

/// One segment of [`weight_grad_tile`]: position `p` of `gt` (`[len,
/// lanes]`) meets element `p` of each row, in order.
#[inline(always)]
fn weight_grad_steps<const R: usize, const V: usize>(
    acc: &mut [[[f32; LANES]; V]; R],
    rows: [&[f32]; R],
    gt: &[f32],
    lanes: usize,
    lane: usize,
) {
    let len = gt.len() / lanes;
    let rows = rows.map(|row| &row[..len]);
    let gt = &gt[lane..];
    for p in 0..len {
        let g = &gt[p * lanes..][..V * LANES];
        let g: [[f32; LANES]; V] = std::array::from_fn(|v| {
            g[v * LANES..]
                .first_chunk::<LANES>()
                .copied()
                .unwrap_or([0.0; LANES])
        });
        for (accr, row) in acc.iter_mut().zip(&rows) {
            let c = row[p];
            for (accv, gv) in accr.iter_mut().zip(&g) {
                for (a, &b) in accv.iter_mut().zip(gv) {
                    *a = c.mul_add(b, *a);
                }
            }
        }
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
        .patches("im2col2d", input, &image, false)?
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
            .patches("conv1d", input, &[self.channels, self.len], true)
    }

    /// 1-D analogue of [`Conv2dGeom::input_grad`]: `col2im1d(Wᵀ · grad)`,
    /// `[n, c, len]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] or [`TensorError::NotAMatrix`]
    /// if the operands do not match the geometry, or
    /// [`TensorError::InvalidConv`] for invalid geometry.
    pub fn input_grad(&self, weight: &Tensor, grad: &Tensor, n: usize) -> Result<Tensor> {
        self.lowering()?.input_grad(
            "conv1d input_grad",
            weight,
            grad,
            n,
            &[self.channels, self.len],
        )
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
        .patches("im2col1d", input, &[geom.channels, geom.len], false)?
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
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // The last three have dead taps: a 1×1 map at padding 1, a 2×2 map
        // at padding 2, and stride 2 past a 2-cell border.
        for (h, w, s, p) in [
            (7, 6, 1, 1),
            (7, 6, 2, 0),
            (7, 6, 1, 2),
            (1, 1, 1, 1),
            (2, 2, 1, 2),
            (3, 3, 2, 2),
        ] {
            let g = geom(3, h, w, 3, s, p);
            let x = rng.randn(&[4, 3, h, w]);
            let (patches, cols) = (g.patches(&x).unwrap(), im2col2d(&x, &g).unwrap());
            assert_eq!(patches.shape(), [cols.shape()[0], cols.shape()[1]]);
            let wt = rng.randn(&[5, g.patch_len()]);
            let b = rng.randn(&[5]);
            let gy = rng.randn(&[5, cols.shape()[1]]);
            let map = cols.shape()[1] / 4;
            // `gy` in the activation layout `[n, oc, map]`, and back.
            let planes = |m: &Tensor| {
                let m = m.as_slice();
                let v = (0..m.len()).map(|e| (e / map / 5, e / map % 5, e % map));
                Tensor::from_vec(
                    v.map(|(i, o, p)| m[o * 4 * map + i * map + p]).collect(),
                    &[4, 5, map],
                )
                .unwrap()
            };
            let positions = 4 * map;
            let product = wt.matmul(&cols).unwrap();
            let biased = product
                .as_slice()
                .iter()
                .enumerate()
                .map(|(e, v)| v + b.as_slice()[e / positions]);
            let biased = Tensor::from_vec(biased.collect(), &[5, positions]).unwrap();
            let forward = patches.convolve(&wt, &b).unwrap();
            assert_eq!(bits(&forward), bits(&planes(&biased)));
            let mut dw = Tensor::zeros(&[5, g.patch_len()]);
            patches.add_weight_grad(&mut dw, &planes(&gy)).unwrap();
            assert_eq!(bits(&dw), bits(&gy.matmul_t(&cols).unwrap()));
            let dx = g.input_grad(&wt, &planes(&gy), 4).unwrap();
            assert_eq!(
                bits(&dx),
                bits(&col2im2d(&wt.t_matmul(&gy).unwrap(), 4, &g).unwrap())
            );
            // One sample's column block, read as a view of the same table.
            let sample = patches.columns(2 * map..3 * map).convolve(&wt, &b).unwrap();
            let full = &forward.as_slice()[2 * 5 * map..][..5 * map];
            assert_eq!(bits(&sample), bits(&Tensor::from_slice(full)));
            assert!(patches.convolve(&rng.randn(&[5, 4]), &b).is_err());
            assert!(patches.convolve(&wt, &rng.randn(&[4])).is_err());
            assert!(patches
                .add_weight_grad(&mut dw, &rng.randn(&[5, 3]))
                .is_err());
            assert!(g.input_grad(&wt, &rng.randn(&[5, 3]), 4).is_err());
        }
    }

    #[test]
    fn dead_weight_columns_are_left_as_they_are() {
        // A 1×1 map at padding 1: only the centre tap of each channel reads
        // the image.
        let g = geom(2, 1, 1, 3, 1, 1);
        let mut rng = crate::Rng::seed_from(12);
        let x = rng.randn(&[3, 2, 1, 1]);
        let patches = g.patches(&x).unwrap();
        assert_eq!(patches.shape(), [18, 3]);
        let gy = rng.randn(&[4, 3]);
        let mut dw = Tensor::full(&[4, 18], 7.0);
        patches.add_weight_grad(&mut dw, &gy).unwrap();
        for q in 0..18 {
            let live = q % 9 == 4;
            let column: Vec<f32> = (0..4).map(|o| dw.as_slice()[o * 18 + q]).collect();
            assert!(
                column.iter().all(|&v| (v == 7.0) != live),
                "column {q}: {column:?}"
            );
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

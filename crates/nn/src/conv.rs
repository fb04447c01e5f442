//! Convolutional layers (2-D for images, 1-D for waveforms) and the
//! [`Flatten`] bridge into dense heads.

use crate::{init, Layer, NnError, Result};
use dinar_tensor::conv::{col2im1d, col2im2d, im2col1d, im2col2d, Conv1dGeom, Conv2dGeom};
use dinar_tensor::{par, Rng, Tensor};

/// Minimum output cells per parallel part for the layout-rearrange helpers.
const PAR_MIN_CELLS: usize = 16 * 1024;

/// 2-D convolution over `[batch, channels, height, width]` inputs.
///
/// Weights are stored flattened as `[out_channels, in_channels * k * k]` so
/// that the forward pass is a single matrix product against the `im2col`
/// patch matrix.
///
/// # Example
///
/// ```
/// use dinar_nn::{conv::Conv2d, Layer};
/// use dinar_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = rng.randn(&[2, 3, 8, 8]);
/// let y = conv.forward(&x, true)?;
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// # Ok::<(), dinar_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached: Option<ConvCache>,
}

#[derive(Debug)]
struct ConvCache {
    cols: Tensor,
    geom: Conv2dGeom,
    batch: usize,
    out_h: usize,
    out_w: usize,
}

impl Conv2d {
    /// Creates a 2-D convolution with He-normal initialization.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        let patch = in_channels * kernel * kernel;
        let weight = init::he_normal(rng, &[out_channels, patch], patch);
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            grad_weight: Tensor::zeros_like(&weight),
            grad_bias: Tensor::zeros(&[out_channels]),
            bias: Tensor::zeros(&[out_channels]),
            weight,
            cached: None,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn geom_for(&self, shape: &[usize]) -> Result<Conv2dGeom> {
        if shape.len() != 4 || shape[1] != self.in_channels {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "conv2d expects [n, {}, h, w] input, got {shape:?}",
                    self.in_channels
                ),
            });
        }
        Ok(Conv2dGeom {
            channels: self.in_channels,
            height: shape[2],
            width: shape[3],
            kernel_h: self.kernel,
            kernel_w: self.kernel,
            stride: self.stride,
            padding: self.padding,
        })
    }

    /// The parameter half of the backward pass: `dW += g_rowsᵀ · cols` and
    /// `db += column sums`, returning `grad_output` in the `[n*oh*ow, oc]`
    /// row layout the input product consumes.
    fn accumulate(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "conv2d" })?;
        let g_rows = nchw_to_rows(
            grad_output,
            cache.batch,
            self.out_channels,
            cache.out_h,
            cache.out_w,
        );
        // The weight-sized temporary is freed before the caller allocates
        // `g_cols`.
        self.grad_weight.add_assign(&g_rows.t_matmul(&cache.cols)?)?;
        self.grad_bias.add_assign(&g_rows.sum_rows()?)?;
        Ok(g_rows)
    }
}

/// Rearranges `[n*oh*ow, oc]` matrix rows into `[n, oc, oh, ow]` layout.
///
/// Both layouts keep each sample's block contiguous, so the transpose is
/// parallelized over samples on the [`par`] pool (pure per-element copies —
/// bit-identical for any thread count).
fn rows_to_nchw(rows: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Tensor {
    let src = rows.as_slice();
    let sample = oc * oh * ow;
    let mut out = vec![0.0f32; n * sample];
    if sample > 0 {
        let min_samples = (PAR_MIN_CELLS / sample).max(1);
        par::for_each_part_mut(&mut out, sample, min_samples, |offset, part| {
            let i0 = offset / sample;
            for (local, block) in part.chunks_exact_mut(sample).enumerate() {
                let i = i0 + local;
                for y in 0..oh {
                    for x in 0..ow {
                        let row = ((i * oh + y) * ow + x) * oc;
                        for c in 0..oc {
                            block[(c * oh + y) * ow + x] = src[row + c];
                        }
                    }
                }
            }
        });
    }
    // lint: allow(L001, length is n*oc*oh*ow by construction)
    Tensor::from_vec(out, &[n, oc, oh, ow]).expect("size preserved")
}

/// Inverse of [`rows_to_nchw`].
fn nchw_to_rows(t: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Tensor {
    let src = t.as_slice();
    let sample = oh * ow * oc;
    let mut out = vec![0.0f32; n * sample];
    if sample > 0 {
        let min_samples = (PAR_MIN_CELLS / sample).max(1);
        par::for_each_part_mut(&mut out, sample, min_samples, |offset, part| {
            let i0 = offset / sample;
            for (local, block) in part.chunks_exact_mut(sample).enumerate() {
                let i = i0 + local;
                for y in 0..oh {
                    for x in 0..ow {
                        let row = ((y * ow) + x) * oc;
                        for c in 0..oc {
                            block[row + c] = src[((i * oc + c) * oh + y) * ow + x];
                        }
                    }
                }
            }
        });
    }
    // lint: allow(L001, length is n*oh*ow*oc by construction)
    Tensor::from_vec(out, &[n * oh * ow, oc]).expect("size preserved")
}

/// Rearranges `[n*ol, oc]` matrix rows into `[n, oc, ol]` layout (1-D
/// counterpart of [`rows_to_nchw`]).
fn rows_to_ncl(rows: &Tensor, n: usize, oc: usize, ol: usize) -> Tensor {
    let src = rows.as_slice();
    let sample = oc * ol;
    let mut out = vec![0.0f32; n * sample];
    if sample > 0 {
        let min_samples = (PAR_MIN_CELLS / sample).max(1);
        par::for_each_part_mut(&mut out, sample, min_samples, |offset, part| {
            let i0 = offset / sample;
            for (local, block) in part.chunks_exact_mut(sample).enumerate() {
                let i = i0 + local;
                for o in 0..ol {
                    let row = (i * ol + o) * oc;
                    for c in 0..oc {
                        block[c * ol + o] = src[row + c];
                    }
                }
            }
        });
    }
    // lint: allow(L001, length is n*oc*ol by construction)
    Tensor::from_vec(out, &[n, oc, ol]).expect("size preserved")
}

/// Inverse of [`rows_to_ncl`].
fn ncl_to_rows(t: &Tensor, n: usize, oc: usize, ol: usize) -> Tensor {
    let src = t.as_slice();
    let sample = ol * oc;
    let mut out = vec![0.0f32; n * sample];
    if sample > 0 {
        let min_samples = (PAR_MIN_CELLS / sample).max(1);
        par::for_each_part_mut(&mut out, sample, min_samples, |offset, part| {
            let i0 = offset / sample;
            for (local, block) in part.chunks_exact_mut(sample).enumerate() {
                let i = i0 + local;
                for o in 0..ol {
                    for c in 0..oc {
                        block[o * oc + c] = src[(i * oc + c) * ol + o];
                    }
                }
            }
        });
    }
    // lint: allow(L001, length is n*ol*oc by construction)
    Tensor::from_vec(out, &[n * ol, oc]).expect("size preserved")
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let geom = self.geom_for(input.shape())?;
        let (oh, ow) = geom.output_size()?;
        let n = input.shape()[0];
        let cols = im2col2d(input, &geom)?;
        let rows = cols.matmul_t(&self.weight)?.add_row_broadcast(&self.bias)?;
        let out = rows_to_nchw(&rows, n, self.out_channels, oh, ow);
        self.cached = Some(ConvCache {
            cols,
            geom,
            batch: n,
            out_h: oh,
            out_w: ow,
        });
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g_rows = self.accumulate(grad_output)?;
        // d cols = g_rows · W ; fold back onto the input.
        let g_cols = g_rows.matmul(&self.weight)?;
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "conv2d" })?;
        Ok(col2im2d(&g_cols, cache.batch, &cache.geom)?)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.accumulate(grad_output).map(drop)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.grad_weight, &mut self.grad_bias]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        vec![
            (&mut self.weight, &self.grad_weight),
            (&mut self.bias, &self.grad_bias),
        ]
    }

    fn zero_grad(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clear_cache(&mut self) {
        self.cached = None;
    }
}

/// 1-D convolution over `[batch, channels, len]` waveforms (M18 family).
#[derive(Debug)]
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached: Option<Conv1dCache>,
}

#[derive(Debug)]
struct Conv1dCache {
    cols: Tensor,
    geom: Conv1dGeom,
    batch: usize,
    out_len: usize,
}

impl Conv1d {
    /// Creates a 1-D convolution with He-normal initialization.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        let patch = in_channels * kernel;
        let weight = init::he_normal(rng, &[out_channels, patch], patch);
        Conv1d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            grad_weight: Tensor::zeros_like(&weight),
            grad_bias: Tensor::zeros(&[out_channels]),
            bias: Tensor::zeros(&[out_channels]),
            weight,
            cached: None,
        }
    }

    /// The parameter half of the backward pass (see [`Conv2d`]'s): `dW`,
    /// `db`, and `grad_output` in `[n*ol, oc]` row layout.
    fn accumulate(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "conv1d" })?;
        let g_rows = ncl_to_rows(grad_output, cache.batch, self.out_channels, cache.out_len);
        self.grad_weight.add_assign(&g_rows.t_matmul(&cache.cols)?)?;
        self.grad_bias.add_assign(&g_rows.sum_rows()?)?;
        Ok(g_rows)
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() != 3 || shape[1] != self.in_channels {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "conv1d expects [n, {}, len] input, got {shape:?}",
                    self.in_channels
                ),
            });
        }
        let geom = Conv1dGeom {
            channels: self.in_channels,
            len: shape[2],
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        };
        let ol = geom.output_len()?;
        let n = shape[0];
        let cols = im2col1d(input, &geom)?;
        let rows = cols.matmul_t(&self.weight)?.add_row_broadcast(&self.bias)?;
        let out = rows_to_ncl(&rows, n, self.out_channels, ol);
        self.cached = Some(Conv1dCache {
            cols,
            geom,
            batch: n,
            out_len: ol,
        });
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g_rows = self.accumulate(grad_output)?;
        let g_cols = g_rows.matmul(&self.weight)?;
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "conv1d" })?;
        Ok(col2im1d(&g_cols, cache.batch, &cache.geom)?)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.accumulate(grad_output).map(drop)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.grad_weight, &mut self.grad_bias]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        vec![
            (&mut self.weight, &self.grad_weight),
            (&mut self.bias, &self.grad_bias),
        ]
    }

    fn zero_grad(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "conv1d"
    }

    fn clear_cache(&mut self) {
        self.cached = None;
    }
}

/// Flattens `[batch, ...]` into `[batch, features]`.
///
/// Bridges convolutional feature maps into dense classification heads.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let shape = input.shape();
        if shape.is_empty() {
            return Err(NnError::InvalidConfig {
                reason: "flatten requires a batched input".into(),
            });
        }
        self.cached_shape = Some(shape.to_vec());
        let features: usize = shape[1..].iter().product();
        Ok(input.reshape(&[shape[0], features])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "flatten" })?;
        Ok(grad_output.reshape(shape)?)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn clear_cache(&mut self) {
        self.cached_shape = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_output_shape() {
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new(3, 4, 3, 2, 1, &mut rng);
        let x = rng.randn(&[2, 3, 8, 8]);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
    }

    #[test]
    fn conv2d_gradient_matches_finite_difference() {
        let mut rng = Rng::seed_from(1);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = rng.randn(&[1, 2, 4, 4]);
        let y = conv.forward(&x, true).unwrap();
        let f0 = y.sum();
        let grad_out = Tensor::ones(y.shape());
        let gx = conv.backward(&grad_out).unwrap();

        let eps = 1e-2;
        // Weight gradient spot-check.
        for &(i, j) in &[(0, 0), (2, 17)] {
            let mut w2 = conv.weight.clone();
            let old = w2.get(&[i, j]).unwrap();
            w2.set(&[i, j], old + eps).unwrap();
            let mut conv2 = Conv2d::new(2, 3, 3, 1, 1, &mut Rng::seed_from(99));
            conv2.weight = w2;
            conv2.bias = conv.bias.clone();
            let f1 = conv2.forward(&x, true).unwrap().sum();
            let numeric = (f1 - f0) / eps;
            let analytic = conv.grad_weight.get(&[i, j]).unwrap();
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + analytic.abs()),
                "dW[{i},{j}] numeric={numeric} analytic={analytic}"
            );
        }
        // Input gradient spot-check.
        let mut x2 = x.clone();
        let old = x2.get(&[0, 1, 2, 3]).unwrap();
        x2.set(&[0, 1, 2, 3], old + eps).unwrap();
        let f1 = conv.forward(&x2, true).unwrap().sum();
        let numeric = (f1 - f0) / eps;
        let analytic = gx.get(&[0, 1, 2, 3]).unwrap();
        assert!((numeric - analytic).abs() < 0.05 * (1.0 + analytic.abs()));
    }

    #[test]
    fn conv1d_output_shape_and_gradcheck() {
        let mut rng = Rng::seed_from(2);
        let mut conv = Conv1d::new(2, 3, 5, 2, 2, &mut rng);
        let x = rng.randn(&[2, 2, 16]);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 3, 8]);

        let f0 = y.sum();
        let gx = conv.backward(&Tensor::ones(y.shape())).unwrap();
        let eps = 1e-2;
        let mut x2 = x.clone();
        let old = x2.get(&[1, 0, 7]).unwrap();
        x2.set(&[1, 0, 7], old + eps).unwrap();
        let f1 = conv.forward(&x2, true).unwrap().sum();
        let numeric = (f1 - f0) / eps;
        let analytic = gx.get(&[1, 0, 7]).unwrap();
        assert!((numeric - analytic).abs() < 0.05 * (1.0 + analytic.abs()));
    }

    /// `half` and `full` are identically built: `backward_params` on one
    /// must accumulate what `backward` accumulates on the other.
    fn assert_params_half_matches(mut full: impl Layer, mut half: impl Layer, x: &Tensor) {
        let g = Tensor::ones(full.forward(x, true).unwrap().shape());
        half.forward(x, true).unwrap();
        full.backward(&g).unwrap();
        half.backward_params(&g).unwrap();
        assert_eq!(half.grads(), full.grads());
        assert!(full.grads()[0].norm_l2() > 0.0);
    }

    #[test]
    fn backward_params_accumulates_what_backward_accumulates() {
        let mut rng = Rng::seed_from(4);
        let conv2 = || Conv2d::new(2, 3, 3, 2, 1, &mut Rng::seed_from(9));
        assert_params_half_matches(conv2(), conv2(), &rng.randn(&[2, 2, 6, 6]));
        let conv1 = || Conv1d::new(2, 3, 5, 2, 2, &mut Rng::seed_from(9));
        assert_params_half_matches(conv1(), conv1(), &rng.randn(&[2, 2, 16]));
    }

    #[test]
    fn backward_before_forward_errors_on_both_paths() {
        let mut rng = Rng::seed_from(5);
        let g = Tensor::ones(&[1, 3, 4, 4]);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        assert!(matches!(
            conv.backward(&g),
            Err(NnError::BackwardBeforeForward { layer: "conv2d" })
        ));
        assert!(matches!(
            conv.backward_params(&g),
            Err(NnError::BackwardBeforeForward { layer: "conv2d" })
        ));
        let mut conv = Conv1d::new(2, 3, 3, 1, 1, &mut rng);
        assert!(matches!(
            conv.backward_params(&Tensor::ones(&[1, 3, 8])),
            Err(NnError::BackwardBeforeForward { layer: "conv1d" })
        ));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut flat = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 4], |i| i as f32);
        let y = flat.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 12]);
        let gx = flat.backward(&y).unwrap();
        assert_eq!(gx.shape(), &[2, 3, 4]);
        assert_eq!(gx.as_slice(), x.as_slice());
    }

    #[test]
    fn conv2d_rejects_wrong_channels() {
        let mut rng = Rng::seed_from(3);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let x = rng.randn(&[1, 2, 8, 8]);
        assert!(conv.forward(&x, true).is_err());
    }
}

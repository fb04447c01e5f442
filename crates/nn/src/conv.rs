//! Convolutional layers (2-D for images, 1-D for waveforms) and the
//! [`Flatten`] bridge into dense heads.
//!
//! Both layers multiply through the patch matrix as a view
//! ([`dinar_tensor::conv::Patches`]): the forward product `W · cols` and the
//! weight gradient `cols · gᵀ` gather their GEMM panels from the
//! zero-padded input through one offset table, and the input gradient is
//! `Wᵀ · g` folded back through the same table. No patch matrix is built or
//! kept: a layer's cache is a copy-on-write share of its input (O(1)) and
//! the geometry, and the padded image is rebuilt where it is read and
//! dropped after the product.

use crate::{init, Layer, NnError, Result};
use dinar_tensor::conv::{col2im1d, col2im2d, Conv1dGeom, Conv2dGeom, Patches};
use dinar_tensor::{sanitize, Rng, Tensor};

/// Copies `src`, viewed as `[a, b, run]`, into `[b, a, run]` order one
/// contiguous run at a time, adding `bias[i]` to block `i` of `a` on the way
/// if given. With `run` = one feature map this is the swap between the
/// product layout `[oc, n, map]` and the activation layout `[n, oc, map]`,
/// in either direction and for either dimensionality.
fn swap_blocks(src: &[f32], a: usize, b: usize, run: usize, bias: Option<&[f32]>) -> Vec<f32> {
    let mut out = vec![0.0f32; a * b * run];
    if !out.is_empty() {
        for (j, block) in out.chunks_exact_mut(a * run).enumerate() {
            for (i, dst) in block.chunks_exact_mut(run).enumerate() {
                let from = &src[(i * b + j) * run..][..run];
                match bias {
                    Some(bias) => dst.iter_mut().zip(from).for_each(|(d, &v)| *d = v + bias[i]),
                    None => dst.copy_from_slice(from),
                }
            }
        }
    }
    out
}

/// The forward product both layers share: `W · cols + b` for the patch
/// matrix `cols` of `n` samples with `map` output positions each, returned
/// flat in `[n, oc, map]` order.
fn lowered_forward(
    weight: &Tensor,
    bias: &Tensor,
    cols: &Patches,
    n: usize,
    map: usize,
) -> Result<Vec<f32>> {
    // `[oc, n·map]`: the long side runs along the register tile's 16 lanes.
    let product = cols.left_matmul(weight)?;
    if bias.shape() != [product.shape()[0]] {
        return Err(dinar_tensor::TensorError::ShapeMismatch {
            lhs: product.shape().to_vec(),
            rhs: bias.shape().to_vec(),
            op: "conv bias",
        }
        .into());
    }
    sanitize::check_finite("conv", "bias", bias);
    Ok(swap_blocks(product.as_slice(), bias.len(), n, map, Some(bias.as_slice())))
}

/// The parameter half of the backward pass both layers share: `dW += g ·
/// colsᵀ` and `db +=` the sums over (sample, position), returning
/// `grad_output` (`[n, oc, map]`) block-swapped to the `[oc, n·map]` layout
/// the input product consumes.
fn accumulate(
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
    cols: &Patches,
    grad_output: &Tensor,
    n: usize,
    map: usize,
) -> Result<Tensor> {
    let oc = grad_bias.len();
    if grad_output.len() != n * oc * map {
        return Err(NnError::InvalidConfig {
            reason: format!(
                "conv backward expects a gradient of [{n}, {oc}, {map}] elements, got {:?}",
                grad_output.shape()
            ),
        });
    }
    let g = swap_blocks(grad_output.as_slice(), n, oc, map, None);
    let g = Tensor::from_vec(g, &[oc, n * map])?;
    // Both operands have the reduction contiguous, so one is packed
    // transposed: as `cols · gᵀ` that is `g`, the small one. The weight-sized
    // temporaries are freed before the caller allocates the input product.
    grad_weight.add_assign(&cols.matmul_t(&g)?.transpose()?)?;
    // `db[o]` is the add chain along row `o` of `g`, i.e. in ascending
    // (sample, position) order. The chains are independent, so eight run
    // interleaved in registers; a lane past the last channel repeats it and
    // its sum is dropped.
    let (mut db, positions) = (vec![0.0f32; oc], n * map);
    for (group, rows) in db.chunks_mut(8).zip(g.as_slice().chunks(8 * positions.max(1))) {
        let lanes: [&[f32]; 8] = std::array::from_fn(|lane| {
            &rows[lane.min(group.len() - 1) * positions..][..positions]
        });
        let mut sums = [0.0f32; 8];
        for r in 0..positions {
            for (sum, row) in sums.iter_mut().zip(lanes) {
                *sum += row[r];
            }
        }
        group.copy_from_slice(&sums[..group.len()]);
    }
    grad_bias.add_assign(&Tensor::from_vec(db, &[oc])?)?;
    Ok(g)
}

/// 2-D convolution over `[batch, channels, height, width]` inputs.
///
/// Weights are stored flattened as `[out_channels, in_channels * k * k]` so
/// that the forward pass is a single matrix product against the patch
/// matrix. That matrix is patch-major, `[in_channels·k·k, batch·out_h·out_w]`,
/// and never built: the products read it through an offset table
/// into the zero-padded input (see [`dinar_tensor::conv`]). Every product of
/// a training step has the long position axis on the kernel's 16-lane side:
/// `W · cols` forward, `Wᵀ · g` for the input gradient, and `cols · gᵀ` for
/// the weight gradient. Products come out as `[out_channels, batch, map]`;
/// activations and gradients are `[batch, out_channels, map]`; one block
/// swap of whole feature maps converts between the two (adding the bias on
/// the way forward).
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
    /// A share of the forward input: the weight gradient views the patch
    /// matrix through it again.
    input: Tensor,
    geom: Conv2dGeom,
    batch: usize,
    /// Output positions per sample (`out_h * out_w`).
    map: usize,
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

    /// The parameter half of the backward pass (see [`accumulate`]).
    fn accumulate(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "conv2d" })?;
        accumulate(
            &mut self.grad_weight,
            &mut self.grad_bias,
            &cache.geom.patches(&cache.input)?,
            grad_output,
            cache.batch,
            cache.map,
        )
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let geom = self.geom_for(input.shape())?;
        let (oh, ow) = geom.output_size()?;
        let n = input.shape()[0];
        let out = lowered_forward(&self.weight, &self.bias, &geom.patches(input)?, n, oh * ow)?;
        self.cached = Some(ConvCache {
            input: input.clone(),
            geom,
            batch: n,
            map: oh * ow,
        });
        Ok(Tensor::from_vec(out, &[n, self.out_channels, oh, ow])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g = self.accumulate(grad_output)?;
        // d cols = Wᵀ · g ; fold back onto the input, with `g` freed first.
        let g_cols = self.weight.t_matmul(&g)?;
        drop(g);
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
    /// A share of the forward input (see [`ConvCache`]).
    input: Tensor,
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

    /// The parameter half of the backward pass (see [`accumulate`]).
    fn accumulate(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "conv1d" })?;
        accumulate(
            &mut self.grad_weight,
            &mut self.grad_bias,
            &cache.geom.patches(&cache.input)?,
            grad_output,
            cache.batch,
            cache.out_len,
        )
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
        let out = lowered_forward(&self.weight, &self.bias, &geom.patches(input)?, n, ol)?;
        self.cached = Some(Conv1dCache {
            input: input.clone(),
            geom,
            batch: n,
            out_len: ol,
        });
        Ok(Tensor::from_vec(out, &[n, self.out_channels, ol])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g = self.accumulate(grad_output)?;
        let g_cols = self.weight.t_matmul(&g)?;
        drop(g);
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

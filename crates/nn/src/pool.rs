//! Pooling layers: max pooling (VGG11, M18) and global average pooling
//! (ResNet20 head).

use crate::{Layer, NnError, Result};
use dinar_tensor::Tensor;

/// Non-overlapping 2-D max pooling over `[n, c, h, w]` inputs.
///
/// Kernel and stride are equal (the configuration used by VGG-style
/// networks). Input height/width must be divisible by the kernel.
#[derive(Debug)]
pub struct MaxPool2d {
    kernel: usize,
    cached: Option<MaxPoolCache>,
}

#[derive(Debug)]
struct MaxPoolCache {
    input_shape: Vec<usize>,
    /// Flat input index of the max element for every output element.
    argmax: Vec<u32>,
}

impl MaxPoolCache {
    /// Routes each output gradient to the input cell that won its window.
    fn backward(&self, grad_output: &Tensor) -> Result<Tensor> {
        if grad_output.len() != self.argmax.len() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "max pooling produced {} outputs, got a gradient of {:?}",
                    self.argmax.len(),
                    grad_output.shape()
                ),
            });
        }
        let mut grad_in = Tensor::zeros(&self.input_shape);
        let gi = grad_in.as_mut_slice();
        for (&idx, &g) in self.argmax.iter().zip(grad_output.as_slice()) {
            gi[idx as usize] += g;
        }
        Ok(grad_in)
    }
}

/// Max over the non-overlapping `kh × kw` windows of every `[h, w]` plane of
/// `x` (`h`, `w` divisible by the window): the maxima in plane order and the
/// flat input index of each. Within a window the first maximum wins (`>` is
/// strict), and a NaN is only ever kept from the window's first cell.
///
/// Each window is scanned row slice by row slice against a running maximum
/// held in registers and updated by compare-select, so the scan carries no
/// data-dependent branch.
fn max_pool(x: &[f32], w: usize, kh: usize, kw: usize) -> Result<(Vec<f32>, Vec<u32>)> {
    if u32::try_from(x.len()).is_err() {
        return Err(NnError::InvalidConfig {
            reason: format!(
                "max pooling indexes its input with u32; {} elements is too many",
                x.len()
            ),
        });
    }
    let mut out = vec![0.0f32; x.len() / (kh * kw)];
    let mut argmax = vec![0u32; out.len()];
    if out.is_empty() {
        return Ok((out, argmax));
    }
    // Heights are divisible by `kh`, so each output row of the stacked planes
    // covers the next `kh` input rows whichever plane it is in.
    let bands = out.chunks_exact_mut(w / kw).zip(argmax.chunks_exact_mut(w / kw));
    for ((best_row, arg_row), (band_no, band)) in bands.zip(x.chunks_exact(kh * w).enumerate()) {
        for (ox, (best_out, arg_out)) in best_row.iter_mut().zip(arg_row).enumerate() {
            let (mut best, mut arg) = (band[ox * kw], ox * kw);
            for (ky, row) in band.chunks_exact(w).enumerate() {
                let offset = ky * w + ox * kw;
                for (idx, &v) in (offset..).zip(&row[ox * kw..][..kw]) {
                    let take = v > best;
                    best = if take { v } else { best };
                    arg = if take { idx } else { arg };
                }
            }
            (*best_out, *arg_out) = (best, (band_no * kh * w + arg) as u32);
        }
    }
    Ok((out, argmax))
}

impl MaxPool2d {
    /// Creates a max-pooling layer with the given kernel (= stride).
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pooling kernel must be positive");
        MaxPool2d { kernel, cached: None }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() != 4 || shape[2] % self.kernel != 0 || shape[3] % self.kernel != 0 {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "maxpool2d(k={}) requires [n, c, h, w] with h, w divisible by k; got {shape:?}",
                    self.kernel
                ),
            });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let k = self.kernel;
        let (out, argmax) = max_pool(input.as_slice(), w, k, k)?;
        self.cached = Some(MaxPoolCache {
            input_shape: shape.to_vec(),
            argmax,
        });
        Ok(Tensor::from_vec(out, &[n, c, h / k, w / k])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "maxpool2d" })?;
        cache.backward(grad_output)
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn clear_cache(&mut self) {
        self.cached = None;
    }
}

/// Non-overlapping 1-D max pooling over `[n, c, len]` inputs (M18).
#[derive(Debug)]
pub struct MaxPool1d {
    kernel: usize,
    cached: Option<MaxPoolCache>,
}

impl MaxPool1d {
    /// Creates a 1-D max-pooling layer with the given kernel (= stride).
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pooling kernel must be positive");
        MaxPool1d { kernel, cached: None }
    }
}

impl Layer for MaxPool1d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() != 3 || shape[2] % self.kernel != 0 {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "maxpool1d(k={}) requires [n, c, len] with len divisible by k; got {shape:?}",
                    self.kernel
                ),
            });
        }
        let (n, c, l) = (shape[0], shape[1], shape[2]);
        let (out, argmax) = max_pool(input.as_slice(), l, 1, self.kernel)?;
        self.cached = Some(MaxPoolCache {
            input_shape: shape.to_vec(),
            argmax,
        });
        Ok(Tensor::from_vec(out, &[n, c, l / self.kernel])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "maxpool1d" })?;
        cache.backward(grad_output)
    }

    fn name(&self) -> &'static str {
        "maxpool1d"
    }

    fn clear_cache(&mut self) {
        self.cached = None;
    }
}

/// Global average pooling: `[n, c, h, w]` → `[n, c]` or `[n, c, len]` → `[n, c]`.
///
/// Used as the ResNet20 and M18 heads before the final classifier.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() < 3 {
            return Err(NnError::InvalidConfig {
                reason: format!("global average pool requires [n, c, ...], got {shape:?}"),
            });
        }
        let (n, c) = (shape[0], shape[1]);
        let spatial: usize = shape[2..].iter().product();
        let x = input.as_slice();
        let mut out = vec![0.0f32; n * c];
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * spatial;
                out[i * c + ch] = x[base..base + spatial].iter().sum::<f32>() / spatial as f32;
            }
        }
        self.cached_shape = Some(shape.to_vec());
        Ok(Tensor::from_vec(out, &[n, c])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "global_avg_pool" })?;
        let (n, c) = (shape[0], shape[1]);
        let spatial: usize = shape[2..].iter().product();
        let mut grad_in = Tensor::zeros(shape);
        let gi = grad_in.as_mut_slice();
        let g = grad_output.as_slice();
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * spatial;
                let v = g[i * c + ch] / spatial as f32;
                for s in 0..spatial {
                    gi[base + s] = v;
                }
            }
        }
        Ok(grad_in)
    }

    fn name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn clear_cache(&mut self) {
        self.cached_shape = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool2d_picks_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 1.0, 1.0, 1.0, //
                1.0, 1.0, 1.0, 2.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 9.0, 2.0]);
    }

    #[test]
    fn maxpool2d_backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x, true).unwrap();
        let gx = pool
            .backward(&Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 0.0, 0.0, 10.0]);
    }

    /// The loop [`max_pool`] replaced: a flat index per window element, a
    /// branch per compare, starting from the window's first cell.
    fn replaced_max_pool(
        x: &[f32],
        planes: usize,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
    ) -> (Vec<f32>, Vec<u32>) {
        let (oh, ow) = (h / kh, w / kw);
        let (mut out, mut argmax) = (Vec::new(), Vec::new());
        for plane in 0..planes {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = (plane * h + oy * kh) * w + ox * kw;
                    let mut best = x[best_idx];
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let idx = (plane * h + oy * kh + ky) * w + ox * kw + kx;
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out.push(best);
                    argmax.push(best_idx as u32);
                }
            }
        }
        (out, argmax)
    }

    #[test]
    fn max_pool_matches_the_replaced_loop_on_ties_and_nans() {
        let mut rng = dinar_tensor::Rng::seed_from(6);
        let cases = [(6, 8, 12, 2, 2), (4, 9, 6, 3, 3), (5, 1, 20, 1, 4), (3, 4, 4, 4, 4)];
        for (planes, h, w, kh, kw) in cases {
            // Few distinct levels, so most windows hold a tie; NaNs land in
            // first and non-first window cells alike.
            let x = rng.randn(&[planes * h * w]);
            let mut x: Vec<f32> = x.as_slice().iter().map(|v| (v * 2.0).round()).collect();
            for i in (0..x.len()).step_by(7) {
                x[i] = f32::NAN;
            }
            let (want, want_arg) = replaced_max_pool(&x, planes, (h, w), (kh, kw));
            let (got, got_arg) = max_pool(&x, w, kh, kw).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{planes}x{h}x{w} k={kh}x{kw}");
            assert_eq!(got_arg, want_arg, "{planes}x{h}x{w} k={kh}x{kw}");
        }
    }

    #[test]
    fn maxpool_tie_goes_to_the_first_maximum_and_backward_follows_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                3.0, 3.0, 0.0, 5.0, //
                3.0, 1.0, 5.0, 5.0, //
                -1.0, -2.0, 7.0, 7.0, //
                -1.0, -1.0, 2.0, 7.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 5.0, -1.0, 7.0]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let gx = pool.backward(&g).unwrap();
        let mut want = [0.0; 16];
        (want[0], want[3], want[8], want[10]) = (1.0, 2.0, 3.0, 4.0);
        assert_eq!(gx.as_slice(), &want);

        let mut pool = MaxPool1d::new(3);
        let x = Tensor::from_vec(vec![1.0, 4.0, 4.0, 2.0, 2.0, 2.0], &[1, 1, 6]).unwrap();
        assert_eq!(pool.forward(&x, true).unwrap().as_slice(), &[4.0, 2.0]);
        let gx = pool.backward(&Tensor::from_vec(vec![5.0, 6.0], &[1, 1, 2]).unwrap()).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 5.0, 0.0, 6.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool2d_rejects_indivisible_input() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 3, 4]);
        assert!(pool.forward(&x, true).is_err());
    }

    #[test]
    fn maxpool1d_basic() {
        let mut pool = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 4]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 3.0]);
        let gx = pool
            .backward(&Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 2]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_averages_and_distributes() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1]);
        assert_eq!(y.as_slice(), &[4.0]);
        let gx = pool
            .backward(&Tensor::from_vec(vec![8.0], &[1, 1]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_works_on_1d() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[2, 1, 2]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 1]);
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }
}

//! Batch normalization.
//!
//! One implementation covers the 2-D (`[n, c, h, w]`), 1-D (`[n, c, len]`)
//! and dense (`[n, c]`) cases by normalizing per channel across all other
//! dimensions. Running statistics are exposed as *buffers* — state that is
//! part of the model (and is exchanged in federated aggregation) but is not
//! touched by optimizers.

use crate::{Layer, NnError, Result};
use dinar_tensor::Tensor;

const EPS: f32 = 1e-5;

/// Batch normalization over the channel dimension.
///
/// # Example
///
/// ```
/// use dinar_nn::{norm::BatchNorm, Layer};
/// use dinar_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let mut bn = BatchNorm::new(4);
/// let x = rng.randn_with(&[8, 4, 2, 2], 3.0, 2.0);
/// let y = bn.forward(&x, true)?;
/// // Normalized output has (approximately) zero mean.
/// assert!(y.mean().abs() < 0.05);
/// # Ok::<(), dinar_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct BatchNorm {
    channels: usize,
    momentum: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    cached: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    input_shape: Vec<usize>,
}

impl BatchNorm {
    /// Creates a batch-norm layer for `channels` channels with PyTorch's
    /// default momentum of 0.1.
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            channels,
            momentum: 0.1,
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            cached: None,
        }
    }

    fn check_shape(&self, shape: &[usize]) -> Result<(usize, usize)> {
        if shape.len() < 2 || shape[1] != self.channels {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "batchnorm({}) expects [n, {}, ...] input, got {shape:?}",
                    self.channels, self.channels
                ),
            });
        }
        Ok((shape[0], shape[2..].iter().product::<usize>().max(1)))
    }

    /// Running (inference-time) mean and variance buffers.
    pub fn running_stats(&self) -> (&Tensor, &Tensor) {
        (&self.running_mean, &self.running_var)
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let shape = input.shape().to_vec();
        let (n, spatial) = self.check_shape(&shape)?;
        let c = self.channels;
        let m = (n * spatial) as f32;
        let x = input.as_slice();

        let (mean, var) = if train {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for i in 0..n {
                for ch in 0..c {
                    let base = (i * c + ch) * spatial;
                    for s in 0..spatial {
                        mean[ch] += x[base + s];
                    }
                }
            }
            for v in &mut mean {
                *v /= m;
            }
            for i in 0..n {
                for ch in 0..c {
                    let base = (i * c + ch) * spatial;
                    for s in 0..spatial {
                        let d = x[base + s] - mean[ch];
                        var[ch] += d * d;
                    }
                }
            }
            for v in &mut var {
                *v /= m;
            }
            // Update running buffers.
            for ch in 0..c {
                let rm = self.running_mean.as_mut_slice();
                rm[ch] = (1.0 - self.momentum) * rm[ch] + self.momentum * mean[ch];
                let rv = self.running_var.as_mut_slice();
                rv[ch] = (1.0 - self.momentum) * rv[ch] + self.momentum * var[ch];
            }
            (mean, var)
        } else {
            (
                self.running_mean.as_slice().to_vec(),
                self.running_var.as_slice().to_vec(),
            )
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let g = self.gamma.as_slice();
        let b = self.beta.as_slice();
        let mut xhat = vec![0.0f32; x.len()];
        let mut out = vec![0.0f32; x.len()];
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * spatial;
                for s in 0..spatial {
                    let h = (x[base + s] - mean[ch]) * inv_std[ch];
                    xhat[base + s] = h;
                    out[base + s] = g[ch] * h + b[ch];
                }
            }
        }
        if train {
            self.cached = Some(BnCache {
                xhat: Tensor::from_vec(xhat, &shape)?,
                inv_std,
                input_shape: shape.clone(),
            });
        } else {
            // Inference backward (rarely used) needs inv_std too.
            self.cached = Some(BnCache {
                xhat: Tensor::from_vec(xhat, &shape)?,
                inv_std,
                input_shape: shape.clone(),
            });
        }
        Ok(Tensor::from_vec(out, &shape)?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "batchnorm" })?;
        let shape = &cache.input_shape;
        let (n, spatial) = self.check_shape(shape)?;
        let c = self.channels;
        let m = (n * spatial) as f32;
        let dy = grad_output.as_slice();
        let xh = cache.xhat.as_slice();

        // Per-channel reductions.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * spatial;
                for s in 0..spatial {
                    sum_dy[ch] += dy[base + s];
                    sum_dy_xhat[ch] += dy[base + s] * xh[base + s];
                }
            }
        }
        for ch in 0..c {
            let gg = self.grad_gamma.as_mut_slice();
            gg[ch] += sum_dy_xhat[ch];
            let gb = self.grad_beta.as_mut_slice();
            gb[ch] += sum_dy[ch];
        }

        let g = self.gamma.as_slice();
        let mut grad_in = vec![0.0f32; dy.len()];
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * spatial;
                let k = g[ch] * cache.inv_std[ch];
                let mean_dy = sum_dy[ch] / m;
                let mean_dy_xhat = sum_dy_xhat[ch] / m;
                for s in 0..spatial {
                    grad_in[base + s] = k * (dy[base + s] - mean_dy - xh[base + s] * mean_dy_xhat);
                }
            }
        }
        Ok(Tensor::from_vec(grad_in, shape)?)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_gamma, &self.grad_beta]
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.grad_gamma, &mut self.grad_beta]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        vec![
            (&mut self.gamma, &self.grad_gamma),
            (&mut self.beta, &self.grad_beta),
        ]
    }

    fn buffers(&self) -> Vec<&Tensor> {
        vec![&self.running_mean, &self.running_var]
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.running_mean, &mut self.running_var]
    }

    fn zero_grad(&mut self) {
        self.grad_gamma.map_inplace(|_| 0.0);
        self.grad_beta.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "batchnorm"
    }

    fn clear_cache(&mut self) {
        self.cached = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_tensor::Rng;

    #[test]
    fn train_forward_normalizes_per_channel() {
        let mut rng = Rng::seed_from(0);
        let mut bn = BatchNorm::new(2);
        // Channel 0 ~ N(5, 4), channel 1 ~ N(-3, 1).
        let mut x = Tensor::zeros(&[64, 2, 4]);
        for i in 0..64 {
            for s in 0..4 {
                x.set(&[i, 0, s], rng.normal_with(5.0, 2.0)).unwrap();
                x.set(&[i, 1, s], rng.normal_with(-3.0, 1.0)).unwrap();
            }
        }
        let y = bn.forward(&x, true).unwrap();
        // Each channel of the output should be ~N(0, 1).
        let mut ch0 = Vec::new();
        let mut ch1 = Vec::new();
        for i in 0..64 {
            for s in 0..4 {
                ch0.push(y.get(&[i, 0, s]).unwrap());
                ch1.push(y.get(&[i, 1, s]).unwrap());
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let var = |v: &[f32]| {
            let m = mean(v);
            v.iter().map(|x| (x - m).powi(2)).sum::<f32>() / v.len() as f32
        };
        assert!(mean(&ch0).abs() < 1e-4);
        assert!(mean(&ch1).abs() < 1e-4);
        assert!((var(&ch0) - 1.0).abs() < 1e-2);
        assert!((var(&ch1) - 1.0).abs() < 1e-2);
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = Rng::seed_from(1);
        let mut bn = BatchNorm::new(1);
        // Train on shifted data long enough for the running mean to move.
        for _ in 0..200 {
            let x = rng.randn_with(&[32, 1], 10.0, 1.0);
            bn.forward(&x, true).unwrap();
        }
        let (rm, rv) = bn.running_stats();
        assert!((rm.as_slice()[0] - 10.0).abs() < 0.5);
        assert!((rv.as_slice()[0] - 1.0).abs() < 0.5);
        // In eval mode a sample at the running mean maps near zero.
        let x = Tensor::from_vec(vec![10.0], &[1, 1]).unwrap();
        let y = bn.forward(&x, false).unwrap();
        assert!(y.as_slice()[0].abs() < 0.5);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Rng::seed_from(2);
        let mut bn = BatchNorm::new(2);
        let x = rng.randn(&[4, 2, 3]);
        let y = bn.forward(&x, true).unwrap();
        // Objective: weighted sum to create non-uniform dy.
        let w = rng.randn(y.shape());
        let f0 = y.mul(&w).unwrap().sum();
        let gx = bn.backward(&w).unwrap();

        let eps = 1e-2;
        for &idx in &[[0usize, 0, 0], [3, 1, 2], [2, 0, 1]] {
            let mut x2 = x.clone();
            let old = x2.get(&idx).unwrap();
            x2.set(&idx, old + eps).unwrap();
            let mut bn2 = BatchNorm::new(2);
            bn2.gamma = bn.gamma.clone();
            bn2.beta = bn.beta.clone();
            let f1 = bn2.forward(&x2, true).unwrap().mul(&w).unwrap().sum();
            let numeric = (f1 - f0) / eps;
            let analytic = gx.get(&idx).unwrap();
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + analytic.abs()),
                "dx{idx:?} numeric={numeric} analytic={analytic}"
            );
        }
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut rng = Rng::seed_from(3);
        let mut bn = BatchNorm::new(2);
        let x = rng.randn(&[8, 2]);
        let y = bn.forward(&x, true).unwrap();
        bn.backward(&Tensor::ones(y.shape())).unwrap();
        // dBeta = sum of dy = batch size per channel.
        assert!(bn
            .grad_beta
            .approx_eq(&Tensor::from_slice(&[8.0, 8.0]), 1e-5));
        // dGamma = sum of xhat which is ~0 because xhat is normalized.
        assert!(bn.grad_gamma.as_slice().iter().all(|g| g.abs() < 1e-3));
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm::new(3);
        let x = Tensor::zeros(&[2, 2, 4]);
        assert!(bn.forward(&x, true).is_err());
    }
}

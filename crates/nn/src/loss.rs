//! Loss functions.
//!
//! Besides the batch-mean loss and gradient used for training, this module
//! exposes **per-sample** losses and softmax probability vectors: the
//! membership-inference attacks of the paper consume exactly these (the
//! loss-threshold attack compares per-sample losses, the shadow-model attack
//! classifies softmax confidence vectors), and Fig. 3 plots their
//! distributions.

use crate::{NnError, Result};
use dinar_tensor::Tensor;

/// Row-wise numerically stable softmax: [`Tensor::softmax_rows`] at scale 1,
/// so every row sums to 1 within `cols · 2⁻²³` and no libm call is made.
///
/// # Errors
///
/// Returns an error if `logits` is not rank-2.
pub fn softmax_rows(logits: &Tensor) -> Result<Tensor> {
    Ok(logits.softmax_rows(1.0, |_, _, _| {})?)
}

/// Categorical cross-entropy on logits (softmax + negative log-likelihood).
///
/// # Example
///
/// ```
/// use dinar_nn::loss::CrossEntropyLoss;
/// use dinar_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![5.0, 0.0, 0.0, 5.0], &[2, 2])?;
/// let (loss, grad) = CrossEntropyLoss.loss_and_grad(&logits, &[0, 1])?;
/// assert!(loss < 0.1); // confident and correct
/// assert_eq!(grad.shape(), &[2, 2]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss;

impl CrossEntropyLoss {
    fn check(&self, logits: &Tensor, labels: &[usize]) -> Result<(usize, usize)> {
        let rows = logits.nrows()?;
        let cols = logits.ncols()?;
        if labels.len() != rows {
            return Err(NnError::LabelMismatch {
                batch: rows,
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= cols) {
            return Err(NnError::LabelOutOfRange {
                label: bad,
                classes: cols,
            });
        }
        Ok((rows, cols))
    }

    /// Per-sample negative log-likelihoods, `log_z − x_label` per row from
    /// the softmax kernel's log-partition (see [`Tensor::softmax_rows`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LabelMismatch`] or [`NnError::LabelOutOfRange`] for
    /// inconsistent labels.
    pub fn per_sample(&self, logits: &Tensor, labels: &[usize]) -> Result<Vec<f32>> {
        let (rows, cols) = self.check(logits, labels)?;
        let x = logits.as_slice();
        let mut losses = Vec::with_capacity(rows);
        logits.softmax_rows(1.0, |i, _, log_z| {
            losses.push(log_z - x[i * cols + labels[i]]);
        })?;
        Ok(losses)
    }

    /// Batch-mean loss and the gradient with respect to the logits.
    ///
    /// The gradient is `(softmax(logits) - onehot(labels)) / batch`: one
    /// softmax sweep scaled by `1/batch`, with the one-hot subtraction and
    /// each row's loss term taken while the row is in cache.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LabelMismatch`] or [`NnError::LabelOutOfRange`] for
    /// inconsistent labels.
    pub fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
        let (rows, cols) = self.check(logits, labels)?;
        let scale = 1.0 / rows as f32;
        let x = logits.as_slice();
        let mut loss = 0.0f64;
        let grad = logits.softmax_rows(scale, |i, row, log_z| {
            let label = labels[i];
            loss += f64::from(log_z - x[i * cols + label]);
            row[label] -= scale;
        })?;
        Ok(((loss / rows as f64) as f32, grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_tensor::Rng;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::seed_from(0);
        let logits = rng.randn_with(&[4, 7], 0.0, 10.0);
        let p = softmax_rows(&logits).unwrap();
        for i in 0..4 {
            let row_sum: f32 = (0..7).map(|j| p.get(&[i, j]).unwrap()).sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
            assert!((0..7).all(|j| p.get(&[i, j]).unwrap() >= 0.0));
        }
    }

    #[test]
    fn softmax_stable_under_large_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 999.0], &[1, 2]).unwrap();
        let p = softmax_rows(&logits).unwrap();
        assert!(p.as_slice().iter().all(|x| x.is_finite()));
        assert!(p.as_slice()[0] > p.as_slice()[1]);
    }

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let logits = Tensor::zeros(&[3, 4]);
        let (loss, _) = CrossEntropyLoss.loss_and_grad(&logits, &[0, 1, 2]).unwrap();
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = Rng::seed_from(1);
        let logits = rng.randn(&[2, 3]);
        let labels = [2usize, 0];
        let (f0, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels).unwrap();
        let eps = 1e-3;
        for i in 0..2 {
            for j in 0..3 {
                let mut l2 = logits.clone();
                let old = l2.get(&[i, j]).unwrap();
                l2.set(&[i, j], old + eps).unwrap();
                let (f1, _) = CrossEntropyLoss.loss_and_grad(&l2, &labels).unwrap();
                let numeric = (f1 - f0) / eps;
                let analytic = grad.get(&[i, j]).unwrap();
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "grad[{i},{j}] numeric={numeric} analytic={analytic}"
                );
            }
        }
    }

    #[test]
    fn per_sample_mean_equals_batch_loss() {
        let mut rng = Rng::seed_from(2);
        let logits = rng.randn(&[5, 4]);
        let labels = [0usize, 1, 2, 3, 0];
        let per = CrossEntropyLoss.per_sample(&logits, &labels).unwrap();
        let (batch, _) = CrossEntropyLoss.loss_and_grad(&logits, &labels).unwrap();
        let mean = per.iter().sum::<f32>() / per.len() as f32;
        assert!((mean - batch).abs() < 1e-5);
    }

    #[test]
    fn label_validation() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            CrossEntropyLoss.loss_and_grad(&logits, &[0]),
            Err(NnError::LabelMismatch { .. })
        ));
        assert!(matches!(
            CrossEntropyLoss.loss_and_grad(&logits, &[0, 3]),
            Err(NnError::LabelOutOfRange {
                label: 3,
                classes: 3
            })
        ));
    }
}

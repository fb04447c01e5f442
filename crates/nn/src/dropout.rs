//! Dropout regularization.
//!
//! Dropout matters to this reproduction beyond its usual role: reducing
//! overfitting directly shrinks the member/non-member generalization gap
//! that membership inference exploits, making it the classic *implicit* MIA
//! mitigation that the DP/obfuscation defenses are compared against in the
//! literature. The `regularization` ablation bench measures exactly that
//! trade-off.

use crate::{Layer, NnError, Result};
use dinar_tensor::{Rng, Tensor};

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`; inference is the
/// identity.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: Rng,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and its own
    /// randomness stream.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, rng: Rng) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability {p} outside [0, 1)"
        );
        Dropout {
            p,
            rng,
            cached_mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if !train || self.p == 0.0 {
            self.cached_mask = None;
            return Ok(input.clone());
        }
        let keep = 1.0 - self.p;
        let mask = Tensor::from_fn(input.shape(), |_| {
            if self.rng.bernoulli(self.p) {
                0.0
            } else {
                1.0 / keep
            }
        });
        let out = input.mul(&mask)?;
        self.cached_mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        match &self.cached_mask {
            // Inference-mode or p=0 forward: identity backward.
            None => Ok(grad_output.clone()),
            Some(mask) => {
                if mask.shape() != grad_output.shape() {
                    return Err(NnError::BackwardBeforeForward { layer: "dropout" });
                }
                Ok(grad_output.mul(mask)?)
            }
        }
    }

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn clear_cache(&mut self) {
        self.cached_mask = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.5, Rng::seed_from(0));
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let y = d.forward(&x, false).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn training_drops_about_p_and_rescales() {
        let mut d = Dropout::new(0.3, Rng::seed_from(1));
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x, true).unwrap();
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let rate = zeros as f32 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
        // Survivors are scaled so the expectation is preserved.
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-5));
    }

    #[test]
    fn backward_routes_through_the_same_mask() {
        let mut d = Dropout::new(0.5, Rng::seed_from(2));
        let x = Tensor::ones(&[64]);
        let y = d.forward(&x, true).unwrap();
        let g = d.backward(&Tensor::ones(&[64])).unwrap();
        // Gradient is zero exactly where the activation was dropped.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn zero_probability_is_identity_in_training() {
        let mut d = Dropout::new(0.0, Rng::seed_from(3));
        let x = Tensor::from_slice(&[4.0, 5.0]);
        assert_eq!(d.forward(&x, true).unwrap(), x);
    }

    #[test]
    fn dropout_reduces_overfitting_gap() {
        use crate::activation::ReLU;
        use crate::dense::Dense;
        use crate::loss::CrossEntropyLoss;
        use crate::model::Model;
        use crate::optim::{Optimizer, Sgd};

        // Tiny noisy task; train with and without dropout and compare the
        // train/test accuracy gap.
        let mut rng = Rng::seed_from(4);
        let make_data = |rng: &mut Rng, n: usize| {
            let mut x = Tensor::zeros(&[n, 6]);
            let mut labels = Vec::new();
            for i in 0..n {
                let class = i % 2;
                for j in 0..6 {
                    let c = if j % 2 == class { 0.6 } else { 0.0 };
                    x.set(&[i, j], rng.normal_with(c, 1.2)).unwrap();
                }
                labels.push(class);
            }
            (x, labels)
        };
        let (train_x, train_y) = make_data(&mut rng, 40);
        let (test_x, test_y) = make_data(&mut rng, 200);

        let gap = |dropout_p: f32, rng: &mut Rng| {
            let mut layers: Vec<Box<dyn Layer>> =
                vec![Box::new(Dense::he(6, 64, rng)), Box::new(ReLU::new())];
            if dropout_p > 0.0 {
                layers.push(Box::new(Dropout::new(dropout_p, rng.split(7))));
            }
            layers.push(Box::new(Dense::he(64, 2, rng)));
            let mut model = Model::new(layers);
            let mut opt = Sgd::new(0.1);
            for _ in 0..150 {
                let logits = model.forward(&train_x, true).unwrap();
                let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &train_y).unwrap();
                model.zero_grad();
                model.backward(&grad).unwrap();
                opt.step(&mut model).unwrap();
            }
            let train_acc = model.accuracy(&train_x, &train_y).unwrap();
            let test_acc = model.accuracy(&test_x, &test_y).unwrap();
            train_acc - test_acc
        };
        let gap_plain = gap(0.0, &mut rng);
        let gap_dropout = gap(0.5, &mut rng);
        assert!(
            gap_dropout < gap_plain,
            "dropout should shrink the generalization gap: {gap_plain} -> {gap_dropout}"
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_probability_panics() {
        Dropout::new(1.0, Rng::seed_from(0));
    }
}

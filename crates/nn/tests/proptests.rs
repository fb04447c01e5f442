//! Property tests of the network substrate — gradient linearity, parameter
//! round-trips, loss bounds — driven by the crate's own seeded RNG instead of
//! `proptest` so the whole suite is deterministic and dependency-free.

use dinar_nn::loss::{softmax_rows, CrossEntropyLoss};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::{Optimizer, Sgd};
use dinar_tensor::Rng;

const CASES: u64 = 32;

/// Per-case RNG: independent, reproducible stream per (property, case).
fn case_rng(property: u64, case: u64) -> Rng {
    Rng::seed_from(0xD1AA_1000 + property * 10_007 + case)
}

/// Samples a dimension in `1..=max`.
fn dim(rng: &mut Rng, max: usize) -> usize {
    1 + rng.below(max)
}

/// Softmax rows are probability vectors for any logits.
#[test]
fn softmax_always_normalizes() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let (rows, cols) = (dim(&mut rng, 5), dim(&mut rng, 7));
        let scale = 0.1 + rng.uniform() * 49.9;
        let logits = rng.randn_with(&[rows, cols], 0.0, scale);
        let p = softmax_rows(&logits).unwrap();
        for i in 0..rows {
            let row_sum: f32 = (0..cols).map(|j| p.get(&[i, j]).unwrap()).sum();
            assert!((row_sum - 1.0).abs() < 1e-4, "case {case}");
        }
    }
}

/// Cross-entropy is non-negative and per-sample losses average to the
/// batch loss, for any logits/labels.
#[test]
fn cross_entropy_consistency() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let (rows, cols) = (dim(&mut rng, 7), 2 + rng.below(4));
        let logits = rng.randn_with(&[rows, cols], 0.0, 3.0);
        let labels: Vec<usize> = (0..rows).map(|_| rng.below(cols)).collect();
        let (batch, _) = CrossEntropyLoss.loss_and_grad(&logits, &labels).unwrap();
        assert!(batch >= 0.0, "case {case}");
        let per = CrossEntropyLoss.per_sample(&logits, &labels).unwrap();
        let mean = per.iter().sum::<f32>() / rows as f32;
        assert!((mean - batch).abs() < 1e-4, "case {case}");
    }
}

/// Each row of the cross-entropy gradient (softmax - onehot) sums to 0.
#[test]
fn ce_gradient_rows_sum_to_zero() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let (rows, cols) = (dim(&mut rng, 5), 2 + rng.below(4));
        let logits = rng.randn(&[rows, cols]);
        let labels: Vec<usize> = (0..rows).map(|_| rng.below(cols)).collect();
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels).unwrap();
        for i in 0..rows {
            let row_sum: f32 = (0..cols).map(|j| grad.get(&[i, j]).unwrap()).sum();
            assert!(row_sum.abs() < 1e-5, "case {case}");
        }
    }
}

/// Model params round-trip exactly through get/set for random MLPs.
#[test]
fn params_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let (inputs, hidden, classes) = (dim(&mut rng, 5), dim(&mut rng, 7), 2 + rng.below(3));
        let mut model =
            models::mlp(&[inputs, hidden, classes], Activation::Tanh, &mut rng).unwrap();
        let original = model.params();
        let mut perturbed = original.share();
        perturbed.map_inplace(|x| x * 2.0 + 1.0);
        model.set_params(&perturbed).unwrap();
        model.set_params(&original).unwrap();
        assert!(
            model.params().max_abs_diff(&original).unwrap() < 1e-9,
            "case {case}"
        );
    }
}

/// Backward pass is linear in the output gradient:
/// backward(a·g) accumulates a·backward(g).
#[test]
fn backward_is_linear() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let a = 0.1 + rng.uniform() * 3.9;
        let mut model = models::mlp(&[3, 5, 2], Activation::Tanh, &mut rng).unwrap();
        let x = rng.randn(&[4, 3]);
        let g = rng.randn(&[4, 2]);

        model.forward(&x, true).unwrap();
        model.zero_grad();
        model.backward(&g).unwrap();
        let base: Vec<f32> = model
            .layer_gradients()
            .iter()
            .flat_map(|l| l.to_flat())
            .collect();

        model.forward(&x, true).unwrap();
        model.zero_grad();
        model.backward(&g.mul_scalar(a)).unwrap();
        let scaled: Vec<f32> = model
            .layer_gradients()
            .iter()
            .flat_map(|l| l.to_flat())
            .collect();

        for (b, s) in base.iter().zip(&scaled) {
            assert!((b * a - s).abs() < 1e-3 * (1.0 + s.abs()), "case {case}");
        }
    }
}

/// One SGD step moves parameters exactly opposite to the gradient.
#[test]
fn sgd_step_is_exact() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let lr = 0.001 + rng.uniform() * 0.499;
        let mut model = models::mlp(&[2, 4, 2], Activation::ReLU, &mut rng).unwrap();
        let x = rng.randn(&[3, 2]);
        let g = rng.randn(&[3, 2]);
        model.forward(&x, true).unwrap();
        model.zero_grad();
        model.backward(&g).unwrap();
        let before = model.params().to_flat();
        let grads: Vec<f32> = model
            .layer_gradients()
            .iter()
            .flat_map(|l| l.to_flat())
            .collect();
        Sgd::new(lr).step(&mut model).unwrap();
        let after = model.params().to_flat();
        for ((b, a), gr) in before.iter().zip(&after).zip(&grads) {
            assert!(
                (b - lr * gr - a).abs() < 1e-5 * (1.0 + a.abs()),
                "case {case}"
            );
        }
    }
}

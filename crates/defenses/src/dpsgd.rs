//! Training-time differential privacy: the DP-SGD gradient perturbation the
//! paper applies through Opacus.
//!
//! Upload-time noising cannot undo memorization that already happened during
//! local training; the Opacus-style defenses instead perturb **every
//! optimizer step**: clip the gradient to a norm bound `C`, add Gaussian
//! noise with multiplier σ(ε, δ), then hand the gradient to the wrapped
//! optimizer. [`DpOptimizer`] wraps any [`Optimizer`] with exactly that
//! transform (batch-level clipping — the standard CPU-friendly approximation
//! of Opacus's per-sample clipping, preserving the noise-vs-budget shape).

use crate::dp::{clip_factor, DpParams};
use dinar_nn::optim::{OptimState, Optimizer};
use dinar_nn::{Model, NnError, Result};
use dinar_telemetry::Telemetry;
use dinar_tensor::Rng;

/// DP-SGD wrapper: gradient clipping + Gaussian noise before every step of
/// the wrapped optimizer.
#[derive(Debug)]
pub struct DpOptimizer {
    inner: Box<dyn Optimizer>,
    dp: DpParams,
    amortization: f32,
    rng: Rng,
    telemetry: Telemetry,
    client_id: usize,
}

impl DpOptimizer {
    /// Wraps `inner` with the (ε, δ)-calibrated gradient perturbation.
    pub fn new(inner: Box<dyn Optimizer>, dp: DpParams, rng: Rng) -> Self {
        DpOptimizer {
            inner,
            dp,
            amortization: 1.0,
            rng,
            telemetry: Telemetry::disabled(),
            client_id: 0,
        }
    }

    /// Amortizes the budget over a known number of steps: per-step noise is
    /// divided by `sqrt(steps)`, the advanced-composition scaling a privacy
    /// accountant applies when the total budget covers a whole training run
    /// (as Opacus does).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn with_amortization_over(mut self, steps: usize) -> Self {
        assert!(steps > 0, "amortization requires at least one step");
        self.amortization = (steps as f32).sqrt();
        self
    }
}

impl Optimizer for DpOptimizer {
    fn step(&mut self, model: &mut Model) -> Result<()> {
        // Global L2 norm of the accumulated gradient.
        let mut norm_sq = 0.0f64;
        for g in model.grads_mut() {
            for &v in g.as_slice() {
                norm_sq += (v as f64) * (v as f64);
            }
        }
        let norm = norm_sq.sqrt() as f32;
        let clip = self.dp.clip_norm;
        let scale = clip_factor(norm, clip);
        // Per-coordinate noise std σ·C/√d: total noise norm σ·C, the same
        // calibration as the upload-time mechanism, applied per step.
        let grads = model.grads_mut();
        let d: usize = grads.iter().map(|g| g.len()).sum();
        let std_dev =
            self.dp.noise_multiplier() * clip / ((d.max(1) as f32).sqrt() * self.amortization);
        // Clip (scale in place), then one bulk counter-based noise fill per
        // gradient tensor — the per-step cost is a few ns per coordinate
        // instead of a scalar Box–Muller draw each.
        for g in grads {
            if scale < 1.0 {
                for v in g.as_mut_slice() {
                    *v *= scale;
                }
            }
            self.rng.axpy_normal(g.as_mut_slice(), std_dev);
        }
        // Each step is one Gaussian-mechanism invocation. Amortization over
        // k steps divides the per-step noise by √k, so the per-step budget
        // *inflates* to ε·√k — the composition in the ledger then recovers
        // the whole-run cost instead of double-discounting it.
        self.telemetry.privacy_charge(
            "dpsgd",
            &format!("client[{}]", self.client_id),
            f64::from(self.dp.epsilon) * f64::from(self.amortization),
            f64::from(self.dp.delta),
        );
        self.inner.step(model)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        "dp-sgd"
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry, client_id: usize) {
        self.telemetry = telemetry.clone();
        self.client_id = client_id;
        self.inner.attach_telemetry(telemetry, client_id);
    }

    /// Refuses every resume: the exported state is empty, so the image
    /// carries neither the noise stream nor the wrapped optimizer's state,
    /// and a run restored without them would diverge.
    fn check_state(&self, _state: &OptimState) -> Result<()> {
        Err(NnError::InvalidConfig {
            reason: format!(
                "`dp-sgd` cannot resume: the resume image carries neither its noise \
                 stream nor the state of the wrapped `{}`",
                self.inner.name()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::loss::CrossEntropyLoss;
    use dinar_nn::models::{self, Activation};
    use dinar_nn::optim::Sgd;
    use dinar_tensor::Tensor;

    fn train_step(model: &mut Model, opt: &mut dyn Optimizer, rng: &mut Rng) {
        let x = rng.randn(&[8, 4]);
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let logits = model.forward(&x, true).unwrap();
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels).unwrap();
        model.zero_grad();
        model.backward(&grad).unwrap();
        opt.step(model).unwrap();
    }

    #[test]
    fn noised_steps_diverge_from_clean_steps() {
        let mut rng = Rng::seed_from(0);
        let mut clean = models::mlp(&[4, 8, 2], Activation::ReLU, &mut rng).unwrap();
        let init = clean.params();
        let mut noised = models::mlp(&[4, 8, 2], Activation::ReLU, &mut rng).unwrap();
        noised.set_params(&init).unwrap();

        let mut clean_opt = Sgd::new(0.1);
        let mut dp_opt = DpOptimizer::new(
            Box::new(Sgd::new(0.1)),
            DpParams::paper_default(),
            Rng::seed_from(1),
        );
        let mut data_rng = Rng::seed_from(2);
        train_step(&mut clean, &mut clean_opt, &mut data_rng);
        let mut data_rng = Rng::seed_from(2);
        train_step(&mut noised, &mut dp_opt, &mut data_rng);
        assert!(clean.params().max_abs_diff(&noised.params()).unwrap() > 1e-4);
    }

    #[test]
    fn smaller_epsilon_adds_more_noise() {
        let displacement = |eps: f32| {
            let mut rng = Rng::seed_from(3);
            let mut model = models::mlp(&[4, 8, 2], Activation::ReLU, &mut rng).unwrap();
            let before = model.params();
            let mut opt = DpOptimizer::new(
                Box::new(Sgd::new(0.0)), // zero LR isolates the injected noise
                DpParams::paper_default().with_epsilon(eps),
                Rng::seed_from(4),
            );
            // One manual "gradient" of zeros: noise is all that remains.
            let x = Tensor::zeros(&[2, 4]);
            let logits = model.forward(&x, true).unwrap();
            let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &[0, 1]).unwrap();
            model.zero_grad();
            model.backward(&grad).unwrap();
            opt.step(&mut model).unwrap();
            // With lr 0, params unchanged; measure the noised gradient norm
            // instead via a second step with lr 1.
            let mut opt2 = DpOptimizer::new(
                Box::new(Sgd::new(1.0)),
                DpParams::paper_default().with_epsilon(eps),
                Rng::seed_from(4),
            );
            opt2.step(&mut model).unwrap();
            model.params().sub(&before).unwrap().l2_norm()
        };
        assert!(displacement(0.05) > displacement(2.2) * 5.0);
    }

    #[test]
    fn gradient_is_clipped_before_inner_step() {
        let mut rng = Rng::seed_from(5);
        let mut model = models::mlp(&[4, 2], Activation::ReLU, &mut rng).unwrap();
        let before = model.params();
        // Huge synthetic gradient via a large-magnitude batch.
        let x = rng.randn_with(&[16, 4], 0.0, 100.0);
        let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let logits = model.forward(&x, true).unwrap();
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels).unwrap();
        model.zero_grad();
        model.backward(&grad).unwrap();
        let mut opt = DpOptimizer::new(
            Box::new(Sgd::new(1.0)),
            DpParams {
                epsilon: 1000.0, // negligible noise isolates the clipping
                delta: 1e-5,
                clip_norm: 0.5,
            },
            Rng::seed_from(6),
        );
        opt.step(&mut model).unwrap();
        // With lr 1 and clip 0.5, the parameter displacement is ~0.5.
        let disp = model.params().sub(&before).unwrap().l2_norm();
        assert!((disp - 0.5).abs() < 0.05, "displacement {disp}");
    }
}

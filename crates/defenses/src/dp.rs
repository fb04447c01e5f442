//! Shared differential-privacy machinery: the Gaussian mechanism with
//! L2 clipping.

use dinar_nn::{ModelParams, ParamView, ParamViewMut};
use dinar_tensor::Rng;

/// An (ε, δ) budget with an L2 clipping bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpParams {
    /// Privacy budget ε (the paper's default is 2.2).
    pub epsilon: f32,
    /// Failure probability δ (the paper's default is 10⁻⁵).
    pub delta: f32,
    /// L2 clipping bound applied before noising.
    pub clip_norm: f32,
}

impl DpParams {
    /// The paper's default budget: ε = 2.2, δ = 10⁻⁵ (§5.2, following \[33\]).
    pub fn paper_default() -> Self {
        DpParams {
            epsilon: 2.2,
            delta: 1e-5,
            clip_norm: 5.0,
        }
    }

    /// Returns this budget with a different ε (for the Fig. 10 sweep).
    pub fn with_epsilon(mut self, epsilon: f32) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Analytic Gaussian-mechanism noise multiplier:
    /// `σ = √(2 ln(1.25/δ)) / ε`.
    ///
    /// # Panics
    ///
    /// Panics if ε ≤ 0 or δ ∉ (0, 1).
    pub fn noise_multiplier(&self) -> f32 {
        assert!(self.epsilon > 0.0, "epsilon must be positive");
        assert!(
            self.delta > 0.0 && self.delta < 1.0,
            "delta must be in (0, 1)"
        );
        (2.0 * (1.25 / self.delta).ln()).sqrt() / self.epsilon
    }

    /// Per-coordinate noise of the Gaussian mechanism over `param_count`
    /// parameters: `σ · clip / √d`, so the *norm* of the added noise is
    /// `σ · clip` in expectation.
    ///
    /// # Panics
    ///
    /// As [`DpParams::noise_multiplier`].
    pub fn noise_std_dev(&self, param_count: usize) -> f32 {
        let d = param_count.max(1) as f32;
        self.noise_multiplier() * self.clip_norm / d.sqrt()
    }
}

/// Clips the parameter set to `clip_norm` in L2 (uniform scaling), returning
/// the factor applied (1.0 when already within the bound).
pub fn clip_l2(params: &mut ModelParams, clip_norm: f32) -> f32 {
    let norm = ParamView::of_model(params).l2_norm();
    let factor = clip_factor(norm, clip_norm);
    if factor < 1.0 {
        params.scale(factor);
    }
    factor
}

/// Like [`clip_l2`] but returns the **pre-clip** norm together with the
/// parameter count, both from the same single traversal — the shape the
/// mechanisms need to scale their noise (`σ · clip / √d`) without a second
/// pass over the parameters.
pub fn clip_l2_with_count(params: &mut ModelParams, clip_norm: f32) -> (f32, usize) {
    let (norm, count) = ParamView::of_model(params).norm_and_count();
    let factor = clip_factor(norm, clip_norm);
    if factor < 1.0 {
        params.scale(factor);
    }
    (norm, count)
}

/// The scaling factor that projects a vector of L2 norm `norm` onto the
/// `clip_norm` ball: `clip/norm` when outside, `1.0` otherwise (including
/// the zero vector). Fused mechanisms like DP-SGD apply this factor inline
/// instead of materializing a clipped copy.
pub fn clip_factor(norm: f32, clip_norm: f32) -> f32 {
    if norm > clip_norm && norm > 0.0 {
        clip_norm / norm
    } else {
        1.0
    }
}

/// Adds i.i.d. Gaussian noise with standard deviation `std_dev` to every
/// parameter, drawn in place through a [`ParamViewMut`] in flat canonical
/// order. Each parameter slice is one bulk [`Rng::axpy_normal`] fill
/// (chunked counter-based Box–Muller), so noising costs a few ns per
/// parameter instead of a scalar libm round-trip each — with PR 5's
/// in-place noising this was the dominant per-round defense cost. No noise
/// tensors are materialized (the clipped-copy overhead remains where the
/// caller makes one).
pub fn add_gaussian_noise(params: &mut ModelParams, std_dev: f32, rng: &mut Rng) {
    if std_dev <= 0.0 {
        return;
    }
    ParamViewMut::of_model(params).for_each_slice_mut(|s| {
        rng.axpy_normal(s, std_dev);
    });
}

/// Clip-then-noise on the update `trained − base`, reconstructed onto the
/// base: returns `base + clip(trained − base) + N(0, std_dev²)`, bit for
/// bit what `sub` → [`clip_l2`] → [`add_gaussian_noise`] → `add_assign(base)`
/// produce, with the same draws from `rng` (one keyed stream per non-empty
/// tensor, in canonical order; none when `std_dev ≤ 0`).
///
/// Two sweeps and one model-sized allocation: the clip factor comes from
/// the norm of the difference, which is never materialized
/// ([`ModelParams::diff_l2_norm`]); then every output element is written
/// once, as `((t − b)·factor + σ·z) + b`, inside the sampler's own pass
/// ([`Rng::zip_normal`]). An unclipped update takes the same path:
/// `factor` is then exactly `1.0`, and `x · 1.0` is `x`.
///
/// # Errors
///
/// Returns [`dinar_nn::NnError::ParamShapeMismatch`] if the architectures
/// differ.
pub fn clip_noise_onto(
    trained: &ModelParams,
    base: &ModelParams,
    clip_norm: f32,
    std_dev: f32,
    rng: &mut Rng,
) -> dinar_nn::Result<ModelParams> {
    // Also the architecture check: from here on the three sets walk in step.
    let factor = clip_factor(trained.diff_l2_norm(base)?, clip_norm);
    let mut out = trained.zeros_like();
    let (trained, base) = (ParamView::of_model(trained), ParamView::of_model(base));
    let mut operands = trained.slices().zip(base.slices());
    ParamViewMut::of_model(&mut out).for_each_slice_mut(|out| {
        let Some((t, b)) = operands.next() else {
            return;
        };
        if std_dev > 0.0 {
            rng.zip_normal(out, t, b, |t, b, z| ((t - b) * factor + z * std_dev) + b);
        } else {
            for ((o, &t), &b) in out.iter_mut().zip(t).zip(b) {
                *o = (t - b) * factor + b;
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::LayerParams;
    use dinar_tensor::Tensor;

    fn params(value: f32, len: usize) -> ModelParams {
        ModelParams::new(vec![LayerParams::new(vec![Tensor::full(&[len], value)])])
    }

    #[test]
    fn noise_multiplier_matches_formula() {
        let dp = DpParams::paper_default();
        let expected = (2.0f32 * (1.25f32 / 1e-5).ln()).sqrt() / 2.2;
        assert!((dp.noise_multiplier() - expected).abs() < 1e-6);
    }

    #[test]
    fn smaller_epsilon_means_more_noise() {
        let base = DpParams::paper_default();
        assert!(
            base.with_epsilon(0.05).noise_multiplier()
                > base.with_epsilon(2.2).noise_multiplier() * 10.0
        );
    }

    #[test]
    fn clip_scales_down_only_when_needed() {
        let mut big = params(1.0, 100); // norm 10
        let f = clip_l2(&mut big, 5.0);
        assert!((f - 0.5).abs() < 1e-6);
        assert!((big.l2_norm() - 5.0).abs() < 1e-4);

        let mut small = params(0.1, 100); // norm 1
        assert_eq!(clip_l2(&mut small, 5.0), 1.0);
        assert!((small.l2_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn noise_perturbs_with_expected_scale() {
        let mut p = params(0.0, 10_000);
        let mut rng = Rng::seed_from(0);
        add_gaussian_noise(&mut p, 0.5, &mut rng);
        let flat = p.to_flat();
        let var = flat.iter().map(|x| x * x).sum::<f32>() / flat.len() as f32;
        assert!((var.sqrt() - 0.5).abs() < 0.02);
    }

    #[test]
    fn zero_std_is_identity() {
        let mut p = params(1.0, 8);
        let before = p.share();
        add_gaussian_noise(&mut p, 0.0, &mut Rng::seed_from(0));
        assert_eq!(p, before);
    }

    #[test]
    fn fused_update_mechanism_equals_the_four_step_composition() {
        let base = params(0.25, 1000);
        // (trained value, clip bound): clipped, unclipped, and noise-free.
        for (value, clip, std_dev) in [(1.0, 5.0, 0.025), (0.26, 5.0, 0.025), (1.0, 5.0, 0.0)] {
            let trained = params(value, 1000);
            let (mut rng_ref, mut rng_fused) = (Rng::seed_from(6), Rng::seed_from(6));
            let mut want = trained.sub(&base).unwrap();
            clip_l2(&mut want, clip);
            add_gaussian_noise(&mut want, std_dev, &mut rng_ref);
            want.add_assign(&base).unwrap();
            let got = clip_noise_onto(&trained, &base, clip, std_dev, &mut rng_fused).unwrap();
            let bits =
                |p: &ModelParams| p.to_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "value {value} std {std_dev}");
            assert_eq!(rng_fused.state(), rng_ref.state());
        }
        assert!(clip_noise_onto(&base, &params(0.0, 3), 5.0, 0.1, &mut Rng::seed_from(0)).is_err());
    }

    #[test]
    fn mechanism_noise_norm_tracks_sigma_times_clip() {
        let mut p = params(0.0, 40_000);
        let dp = DpParams {
            epsilon: 1.0,
            delta: 1e-5,
            clip_norm: 3.0,
        };
        let mut rng = Rng::seed_from(1);
        let std_dev = dp.noise_std_dev(p.param_count());
        add_gaussian_noise(&mut p, std_dev, &mut rng);
        // Input was zero so the output is pure noise with expected norm
        // sigma * clip.
        let expected = dp.noise_multiplier() * dp.clip_norm;
        let actual = p.l2_norm();
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "norm {actual} vs expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_panics() {
        DpParams {
            epsilon: 0.0,
            delta: 1e-5,
            clip_norm: 1.0,
        }
        .noise_multiplier();
    }
}

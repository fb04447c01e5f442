//! Weak differential privacy (WDP): norm bounding plus low-magnitude noise.
//!
//! "Weak Differential Privacy (WDP) applies norm bounding and Gaussian noise
//! with a low magnitude for better model utility" (§2.3, following Sun et
//! al., "Can You Really Backdoor Federated Learning?"). The paper's setting
//! is a norm bound of 5 and σ = 0.025 (§5.2). As in that work, the bound
//! applies to the client's **model update** (trained minus received global).
//! Unlike [`crate::LocalDp`], the noise is an absolute magnitude, not
//! calibrated to a budget — hence "weak": good utility, limited protection
//! (its attack AUC stays high in Fig. 6).
//!
//! The upload transform is [`clip_noise_onto`]: the update's norm is taken
//! without materializing the update, and clip, noise and the add-back of
//! the global are one pass that writes the upload — two sweeps and one
//! model-sized allocation per round.

use crate::dp::clip_noise_onto;
use dinar_fl::{ClientMiddleware, FlError, Result};
use dinar_nn::ModelParams;
use dinar_telemetry::Telemetry;
use dinar_tensor::Rng;

/// The δ WDP's inverted-mechanism ε is reported against: WDP fixes the noise
/// magnitude instead of a budget, so the ledger entry is the (ε, δ) a
/// Gaussian mechanism with that exact noise would have provided.
const WDP_LEDGER_DELTA: f64 = 1e-5;

/// WDP upload middleware.
#[derive(Debug)]
pub struct WeakDp {
    norm_bound: f32,
    sigma: f32,
    rng: Rng,
    received_global: Option<ModelParams>,
    telemetry: Telemetry,
    client_id: usize,
}

impl WeakDp {
    /// Creates the middleware with explicit bound and noise magnitude.
    pub fn new(norm_bound: f32, sigma: f32, rng: Rng) -> Self {
        WeakDp {
            norm_bound,
            sigma,
            rng,
            received_global: None,
            telemetry: Telemetry::disabled(),
            client_id: 0,
        }
    }

    /// The paper's configuration: norm bound 5, σ = 0.025.
    pub fn paper_default(rng: Rng) -> Self {
        WeakDp::new(5.0, 0.025, rng)
    }
}

impl ClientMiddleware for WeakDp {
    fn transform_download(&mut self, _client_id: usize, params: &mut ModelParams) -> Result<()> {
        self.received_global = Some(params.share());
        Ok(())
    }

    fn transform_upload(&mut self, _client_id: usize, params: &mut ModelParams) -> Result<()> {
        let global = self
            .received_global
            .as_ref()
            .ok_or_else(|| FlError::Middleware {
                name: "wdp",
                reason: "upload before any download; no reference model".into(),
            })?;
        let upload = clip_noise_onto(params, global, self.norm_bound, self.sigma, &mut self.rng)?;
        // WDP fixes σ instead of a budget; invert the Gaussian-mechanism
        // calibration to find the ε this round's noise actually bought. Per
        // coordinate we add std `sigma` over d coordinates, i.e. a noise
        // *norm* of sigma·√d against sensitivity `norm_bound`, so the
        // effective multiplier is z = sigma·√d / bound and
        // ε = √(2 ln(1.25/δ)) / z — large ε, consistent with "weak".
        if self.telemetry.is_enabled() {
            let d = params.param_count().max(1) as f64;
            let z = f64::from(self.sigma) * d.sqrt() / f64::from(self.norm_bound);
            let eps = if z > 0.0 {
                (2.0 * (1.25 / WDP_LEDGER_DELTA).ln()).sqrt() / z
            } else {
                f64::INFINITY // no noise: clamped to 0 by the ledger, but counted
            };
            self.telemetry.privacy_charge(
                "wdp",
                &format!("client[{}]", self.client_id),
                eps,
                WDP_LEDGER_DELTA,
            );
        }
        *params = upload;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "wdp"
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry, client_id: usize) {
        self.telemetry = telemetry.clone(); // lint: allow(L009, telemetry handle, not params)
        self.client_id = client_id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::LayerParams;
    use dinar_tensor::Tensor;

    fn params(value: f32) -> ModelParams {
        ModelParams::new(vec![LayerParams::new(vec![Tensor::full(&[400], value)])])
    }

    #[test]
    fn bounds_update_norm_and_adds_small_noise() {
        let mut mw = WeakDp::paper_default(Rng::seed_from(0));
        let mut g = params(0.0);
        mw.transform_download(0, &mut g).unwrap();
        let mut trained = params(1.0); // update norm 20
        mw.transform_upload(0, &mut trained).unwrap();
        // Update clipped to 5, noise sigma 0.025 over 400 coords adds ~0.5.
        let update_norm = trained.l2_norm();
        assert!((update_norm - 5.0).abs() < 1.0, "norm {update_norm}");
    }

    #[test]
    fn small_updates_pass_almost_unchanged() {
        let mut mw = WeakDp::paper_default(Rng::seed_from(1));
        let mut g = params(1.0);
        mw.transform_download(0, &mut g).unwrap();
        let mut trained = params(1.01); // update norm 0.2, below the bound
        mw.transform_upload(0, &mut trained).unwrap();
        let dev = trained.sub(&params(1.01)).unwrap().l2_norm();
        // Only the sigma=0.025 noise remains: norm ~0.5 over 400 coords.
        assert!(dev < 1.0, "deviation {dev}");
    }

    #[test]
    fn noise_is_much_weaker_than_ldp() {
        use crate::{dp::DpParams, ldp::LocalDp};
        let measure = |is_wdp: bool| {
            let mut g = params(0.5);
            let mut trained = params(0.5); // zero true update
            if is_wdp {
                let mut mw = WeakDp::paper_default(Rng::seed_from(3));
                mw.transform_download(0, &mut g).unwrap();
                mw.transform_upload(0, &mut trained).unwrap();
            } else {
                let mut mw = LocalDp::new(DpParams::paper_default(), Rng::seed_from(3));
                mw.transform_download(0, &mut g).unwrap();
                mw.transform_upload(0, &mut trained).unwrap();
            }
            trained.sub(&params(0.5)).unwrap().l2_norm()
        };
        let wdp_dev = measure(true);
        let ldp_dev = measure(false);
        assert!(
            ldp_dev > wdp_dev * 2.0,
            "ldp {ldp_dev} should out-noise wdp {wdp_dev}"
        );
    }

    #[test]
    fn upload_before_download_errors() {
        let mut mw = WeakDp::paper_default(Rng::seed_from(4));
        let mut p = params(1.0);
        assert!(mw.transform_upload(0, &mut p).is_err());
    }
}

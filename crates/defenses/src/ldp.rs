//! Local differential privacy (LDP): clients noise their own uploads.
//!
//! "LDP applies on client model parameters before transmission to the FL
//! server" (§2.3, following Chamikara et al.). As in DP-FedAvg-style
//! client-level DP, the Gaussian mechanism is applied to the client's
//! **model update** — the difference between its trained parameters and the
//! global model it received — so that the clipping bound constrains each
//! client's *contribution*, not the absolute weight scale.
//!
//! The upload transform is [`clip_noise_onto`] with the mechanism's
//! calibrated noise: two sweeps and one model-sized allocation, the bits of
//! `sub` → [`gaussian_mechanism`](crate::dp::gaussian_mechanism) →
//! `add_assign`.

use crate::dp::{clip_noise_onto, DpParams};
use dinar_fl::{ClientMiddleware, FlError, Result};
use dinar_nn::ModelParams;
use dinar_telemetry::Telemetry;
use dinar_tensor::Rng;

/// LDP upload middleware: clip the update to the L2 bound, add Gaussian
/// noise calibrated to (ε, δ), upload `global + noised update`.
#[derive(Debug)]
pub struct LocalDp {
    dp: DpParams,
    rng: Rng,
    received_global: Option<ModelParams>,
    telemetry: Telemetry,
    client_id: usize,
}

impl LocalDp {
    /// Creates the middleware with a budget and a client-specific RNG stream.
    pub fn new(dp: DpParams, rng: Rng) -> Self {
        LocalDp {
            dp,
            rng,
            received_global: None,
            telemetry: Telemetry::disabled(),
            client_id: 0,
        }
    }

    /// The configured budget.
    pub fn dp_params(&self) -> DpParams {
        self.dp
    }
}

impl ClientMiddleware for LocalDp {
    fn transform_download(&mut self, _client_id: usize, params: &mut ModelParams) -> Result<()> {
        self.received_global = Some(params.share());
        Ok(())
    }

    fn transform_upload(&mut self, _client_id: usize, params: &mut ModelParams) -> Result<()> {
        let global = self
            .received_global
            .as_ref()
            .ok_or_else(|| FlError::Middleware {
                name: "ldp",
                reason: "upload before any download; no reference model".into(),
            })?;
        let std_dev = self.dp.noise_std_dev(params.param_count());
        let upload = clip_noise_onto(params, global, self.dp.clip_norm, std_dev, &mut self.rng)?;
        // Each upload is one (ε, δ) invocation of the Gaussian mechanism on
        // this client's data; the ledger composes the per-round charges.
        self.telemetry.privacy_charge(
            "ldp",
            &format!("client[{}]", self.client_id),
            f64::from(self.dp.epsilon),
            f64::from(self.dp.delta),
        );
        *params = upload;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "ldp"
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
        ModelParams::new(vec![LayerParams::new(vec![Tensor::full(&[1000], value)])])
    }

    fn round_trip(mw: &mut LocalDp, global: f32, trained: f32) -> ModelParams {
        let mut g = params(global);
        mw.transform_download(0, &mut g).unwrap();
        let mut t = params(trained);
        mw.transform_upload(0, &mut t).unwrap();
        t
    }

    #[test]
    fn upload_perturbs_the_update_not_the_base() {
        let mut mw = LocalDp::new(DpParams::paper_default(), Rng::seed_from(0));
        let uploaded = round_trip(&mut mw, 1.0, 1.01);
        // The upload stays anchored at the global model plus a (clipped,
        // noised) small update — not collapsed toward zero.
        let dev_from_global = uploaded.sub(&params(1.0)).unwrap().l2_norm();
        let dev_from_trained = uploaded.sub(&params(1.01)).unwrap().l2_norm();
        assert!(dev_from_global > 0.0);
        assert!(dev_from_trained < params(1.01).l2_norm()); // nowhere near zeroing
    }

    #[test]
    fn smaller_budget_perturbs_more() {
        let deviation = |eps: f32| {
            let mut mw = LocalDp::new(
                DpParams::paper_default().with_epsilon(eps),
                Rng::seed_from(7),
            );
            let uploaded = round_trip(&mut mw, 0.5, 0.5); // zero true update
            uploaded.sub(&params(0.5)).unwrap().l2_norm()
        };
        assert!(deviation(0.05) > deviation(2.2) * 5.0);
    }

    #[test]
    fn update_is_clipped() {
        let mut mw = LocalDp::new(
            DpParams {
                epsilon: 1000.0, // negligible noise isolates the clipping
                delta: 1e-5,
                clip_norm: 2.0,
            },
            Rng::seed_from(1),
        );
        // Huge update of norm ~31.6 gets clipped to 2.
        let uploaded = round_trip(&mut mw, 0.0, 1.0);
        let update_norm = uploaded.l2_norm();
        assert!((update_norm - 2.0).abs() < 0.1, "norm {update_norm}");
    }

    /// The folded upload is the four-step composition it replaced, kept
    /// here as the reference — `sub`, clip, noise, `add_assign` — on bits,
    /// round after round, clipped or not, with the noise stream left where
    /// the composition leaves it and one ledger charge per upload.
    #[test]
    fn upload_equals_the_four_step_composition_bit_for_bit() {
        let bits = |p: &ModelParams| p.to_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let dp = DpParams::paper_default(); // clip 5: 1000 × 1.0 clips, 1000 × 0.01 does not
        for trained_value in [1.5, 0.51] {
            let telemetry = Telemetry::new();
            let mut mw = LocalDp::new(dp, Rng::seed_from(11));
            mw.attach_telemetry(&telemetry, 3);
            let mut rng_ref = Rng::seed_from(11);
            for round in 1..=3 {
                let global = params(0.5);
                let mut want = params(trained_value).sub(&global).unwrap();
                crate::dp::gaussian_mechanism(&mut want, &dp, &mut rng_ref);
                want.add_assign(&global).unwrap();

                let got = round_trip(&mut mw, 0.5, trained_value);
                assert_eq!(bits(&got), bits(&want), "value {trained_value} round {round}");
                assert_eq!(mw.rng.state(), rng_ref.state(), "round {round}: stream position");
            }
            let accounts = telemetry.privacy_accounts();
            assert_eq!(accounts.len(), 1);
            assert_eq!((accounts[0].defense.as_str(), accounts[0].charges), ("ldp", 3));
        }
    }

    #[test]
    fn upload_before_download_errors() {
        let mut mw = LocalDp::new(DpParams::paper_default(), Rng::seed_from(2));
        let mut p = params(1.0);
        assert!(matches!(
            mw.transform_upload(0, &mut p),
            Err(FlError::Middleware { name: "ldp", .. })
        ));
    }
}

//! Central differential privacy (CDP): the server noises the aggregate.
//!
//! "CDP \[is\] where the server applies DP on aggregated model parameters
//! before sending the resulting model to the clients" (§2.3, following
//! Naseri et al.). The mechanism is applied to the **aggregate's update**
//! relative to the previous global model, with the noise scale divided by
//! the number of participating clients (the server's aggregate has
//! sensitivity `clip / N` with respect to one client). Protects the global
//! model; individual client uploads remain visible to the server — which is
//! why CDP protects local models poorly in the paper's Fig. 6.

use crate::dp::{clip_noise_onto, DpParams};
use dinar_fl::{Result, ServerMiddleware};
use dinar_nn::ModelParams;
use dinar_telemetry::Telemetry;
use dinar_tensor::Rng;

/// CDP server middleware: the Gaussian mechanism on the FedAvg aggregate's
/// round update.
#[derive(Debug)]
pub struct CentralDp {
    dp: DpParams,
    clients: usize,
    rng: Rng,
    previous_global: Option<ModelParams>,
    telemetry: Telemetry,
}

impl CentralDp {
    /// Creates the middleware with a budget, the number of participating
    /// clients (noise divisor), and a server RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero.
    pub fn new(dp: DpParams, clients: usize, rng: Rng) -> Self {
        assert!(clients > 0, "CDP needs at least one client");
        CentralDp {
            dp,
            clients,
            rng,
            previous_global: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl ServerMiddleware for CentralDp {
    fn transform_aggregate(&mut self, params: &mut ModelParams) -> Result<()> {
        if let Some(prev) = &self.previous_global {
            let d = params.param_count().max(1) as f32;
            let std_dev =
                self.dp.noise_multiplier() * self.dp.clip_norm / (self.clients as f32 * d.sqrt());
            // Clip, noise and the add-back of the previous global in one
            // pass over the never-materialized update.
            let released =
                clip_noise_onto(params, prev, self.dp.clip_norm, std_dev, &mut self.rng)?;
            // One (ε, δ) invocation of the Gaussian mechanism on the global
            // aggregate; the ledger composes the per-round charges.
            self.telemetry.privacy_charge(
                "cdp",
                "global",
                f64::from(self.dp.epsilon),
                f64::from(self.dp.delta),
            );
            *params = released;
        } else {
            // First-round pass-through releases the aggregate unnoised: an
            // explicit zero-cost ledger entry, so the audit shows the round
            // was seen rather than unaccounted for.
            self.telemetry.privacy_charge_zero("cdp", "global");
        }
        // First round has no reference; release the aggregate as-is (it is
        // one step from the public initialization).
        self.previous_global = Some(params.share());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "cdp"
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
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
    fn second_round_update_is_clipped_and_noised() {
        let mut mw = CentralDp::new(DpParams::paper_default(), 5, Rng::seed_from(0));
        let mut first = params(1.0);
        mw.transform_aggregate(&mut first).unwrap();
        assert_eq!(first, params(1.0)); // first round passes through

        let mut second = params(2.0); // update norm 20 -> clipped to 5
        mw.transform_aggregate(&mut second).unwrap();
        let update_norm = second.sub(&params(1.0)).unwrap().l2_norm();
        assert!((update_norm - 5.0).abs() < 1.0, "norm {update_norm}");
        assert!(second.max_abs_diff(&params(2.0)).unwrap() > 0.1);
    }

    /// The folded release is the four-step composition it replaced, kept
    /// here as the reference — `sub`, clip, noise, `add_assign` — on bits,
    /// round after round, clipped or not, with the noise stream left where
    /// the composition leaves it and one ledger entry per round.
    #[test]
    fn aggregate_equals_the_four_step_composition_bit_for_bit() {
        use crate::dp::{add_gaussian_noise, clip_l2_with_count};
        let bits = |p: &ModelParams| p.to_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (dp, clients) = (DpParams::paper_default(), 5usize);
        let telemetry = Telemetry::new();
        let mut mw = CentralDp::new(dp, clients, Rng::seed_from(13));
        mw.attach_telemetry(&telemetry);
        let mut rng_ref = Rng::seed_from(13);
        let mut prev = params(1.0);
        mw.transform_aggregate(&mut prev.share()).unwrap();
        // Steps of norm 20 (clipped to 5) and 0.2 (left alone).
        for (round, step) in [1.0f32, 0.01, 1.0].into_iter().enumerate() {
            let mut aggregate = prev.share();
            aggregate.map_inplace(|x| x + step);

            let mut want = aggregate.sub(&prev).unwrap();
            let (_, count) = clip_l2_with_count(&mut want, dp.clip_norm);
            let std_dev = dp.noise_multiplier() * dp.clip_norm
                / (clients as f32 * (count.max(1) as f32).sqrt());
            add_gaussian_noise(&mut want, std_dev, &mut rng_ref);
            want.add_assign(&prev).unwrap();

            mw.transform_aggregate(&mut aggregate).unwrap();
            assert_eq!(bits(&aggregate), bits(&want), "round {round} step {step}");
            assert_eq!(
                mw.rng.state(),
                rng_ref.state(),
                "round {round}: stream position"
            );
            prev = aggregate;
        }
        let accounts = telemetry.privacy_accounts();
        assert_eq!(accounts.len(), 1);
        assert_eq!(
            (accounts[0].defense.as_str(), accounts[0].charges),
            ("cdp", 4)
        );
    }

    #[test]
    fn more_clients_means_less_noise() {
        let noise_norm = |clients: usize| {
            let mut mw = CentralDp::new(DpParams::paper_default(), clients, Rng::seed_from(1));
            let mut first = params(1.0);
            mw.transform_aggregate(&mut first).unwrap();
            let mut second = params(1.0); // zero true update -> pure noise
            mw.transform_aggregate(&mut second).unwrap();
            second.sub(&params(1.0)).unwrap().l2_norm()
        };
        assert!(noise_norm(2) > noise_norm(20) * 5.0);
    }

    #[test]
    fn deterministic_per_stream() {
        let run = |seed: u64| {
            let mut mw = CentralDp::new(DpParams::paper_default(), 5, Rng::seed_from(seed));
            let mut a = params(1.0);
            mw.transform_aggregate(&mut a).unwrap();
            let mut b = params(1.2);
            mw.transform_aggregate(&mut b).unwrap();
            b
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_panics() {
        CentralDp::new(DpParams::paper_default(), 0, Rng::seed_from(0));
    }
}

//! Secure aggregation (SA): pairwise additive masking.
//!
//! Following the secure-aggregation line of work the paper cites (Zheng et
//! al. \[54\], after Bonawitz et al.), every pair of clients `(i, j)` agrees on
//! a shared seed; client `i` adds `+PRG(seed_ij)` and client `j` adds
//! `-PRG(seed_ij)` to their uploads, so the masks cancel **exactly** in the
//! server's sum while each individual upload is statistically garbage to the
//! server. This matches the paper's observation (Fig. 6): SA drives the
//! attack AUC on *local* models to 50% but leaves the *global* model exactly
//! as leaky as undefended FedAvg.
//!
//! Because our server computes a *weighted* average, client `i` uploads
//! `θ_i + m_i / w_i` where `w_i` is its FedAvg weight: then
//! `Σ w_i (θ_i + m_i / w_i) = Σ w_i θ_i + Σ m_i = FedAvg` since `Σ m_i = 0`.

use dinar_fl::{ClientMiddleware, FlError, Result};
use dinar_nn::{ModelParams, ParamViewMut};
use dinar_telemetry::Telemetry;
use dinar_tensor::Rng;
use std::sync::Arc;

/// The shared state of one secure-aggregation group: pairwise seeds and
/// FedAvg weights. Create once per FL system and hand an [`Arc`] to each
/// client's [`SecureAggregation`] middleware.
#[derive(Debug)]
pub struct SaGroup {
    num_clients: usize,
    weights: Vec<f32>,
    seed: u64,
    mask_std: f32,
}

impl SaGroup {
    /// Creates a group for `num_clients` clients with the given FedAvg
    /// weights (typically `n_i / Σn`).
    ///
    /// # Panics
    ///
    /// Panics if weights don't match the client count, are non-positive, or
    /// the client count is zero.
    pub fn new(num_clients: usize, weights: Vec<f32>, seed: u64) -> Arc<Self> {
        assert!(num_clients > 0, "group needs at least one client");
        assert_eq!(weights.len(), num_clients, "one weight per client");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        Arc::new(SaGroup {
            num_clients,
            weights,
            seed,
            mask_std: 10.0,
        })
    }

    /// Convenience constructor deriving weights from client sample counts.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SaGroup::new`].
    pub fn from_sample_counts(counts: &[usize], seed: u64) -> Arc<Self> {
        let total: usize = counts.iter().sum();
        let weights = counts
            .iter()
            .map(|&c| c as f32 / total.max(1) as f32)
            .collect();
        SaGroup::new(counts.len(), weights, seed)
    }

    /// The pairwise mask for the unordered pair `(a, b)`, `a < b` canonical.
    fn pair_rng(&self, a: usize, b: usize) -> Rng {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        Rng::seed_from(
            self.seed
                ^ (lo as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (hi as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        )
    }

    /// Computes client `i`'s total mask (sum over peers, signed by id order)
    /// shaped like `params`, already divided by the client's FedAvg weight.
    fn mask_for(&self, client: usize, params: &ModelParams) -> ModelParams {
        let mut mask = params.zeros_like();
        let mut view = ParamViewMut::of_model(&mut mask);
        for peer in 0..self.num_clients {
            if peer == client {
                continue;
            }
            let mut rng = self.pair_rng(client, peer);
            let sign = if client < peer { 1.0 } else { -1.0 };
            // Draw each peer's PRG stream directly into the mask buffer in
            // flat canonical order, one bulk fill per parameter slice. Both
            // ends of a pair walk the same slice sequence from the same
            // pair seed, so they derive the same counter-based streams; the
            // sign rides in the scale, and z·(-σ) = -(z·σ) exactly, so the
            // masks still cancel bit-for-bit in the server's sum.
            view.for_each_slice_mut(|s| {
                // lint: allow(L010, pairwise masks cancel exactly in the sum; not DP noise, no clip obligation)
                rng.axpy_normal(s, sign * self.mask_std);
            });
        }
        let w = self.weights[client];
        mask.scale(1.0 / w);
        mask
    }
}

/// Per-client secure-aggregation middleware.
#[derive(Debug)]
pub struct SecureAggregation {
    group: Arc<SaGroup>,
    telemetry: Telemetry,
}

impl SecureAggregation {
    /// Creates the middleware for one client of `group`.
    pub fn new(group: Arc<SaGroup>) -> Self {
        SecureAggregation {
            group,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl ClientMiddleware for SecureAggregation {
    fn transform_upload(&mut self, client_id: usize, params: &mut ModelParams) -> Result<()> {
        if client_id >= self.group.num_clients {
            return Err(FlError::Middleware {
                name: "sa",
                reason: format!(
                    "client {client_id} outside group of {}",
                    self.group.num_clients
                ),
            });
        }
        let mask = self.group.mask_for(client_id, params);
        params.add_assign(&mask)?;
        // Pairwise masks cancel exactly in the server's sum: SA spends no
        // differential-privacy budget, and the ledger records that as an
        // explicit zero-cost entry rather than silence.
        self.telemetry
            .privacy_charge_zero("sa", &format!("client[{client_id}]"));
        Ok(())
    }

    fn name(&self) -> &'static str {
        "sa"
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry, _client_id: usize) {
        self.telemetry = telemetry.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::LayerParams;
    use dinar_tensor::Tensor;

    fn params(value: f32) -> ModelParams {
        ModelParams::new(vec![
            LayerParams::new(vec![Tensor::full(&[32], value), Tensor::full(&[4], value)]),
            LayerParams::new(vec![Tensor::full(&[8], value)]),
        ])
    }

    #[test]
    fn masks_cancel_in_weighted_sum() {
        let counts = [100usize, 300, 50];
        let group = SaGroup::from_sample_counts(&counts, 42);
        let total: usize = counts.iter().sum();
        let originals = [params(1.0), params(2.0), params(3.0)];
        // Expected FedAvg without masking.
        let mut expected = originals[0].zeros_like();
        for (p, &c) in originals.iter().zip(&counts) {
            expected
                .scaled_add_assign(c as f32 / total as f32, p)
                .unwrap();
        }
        // Masked uploads, then the same weighted sum.
        let mut sum = originals[0].zeros_like();
        for (i, (p, &c)) in originals.iter().zip(&counts).enumerate() {
            let mut masked = p.share();
            SecureAggregation::new(Arc::clone(&group))
                .transform_upload(i, &mut masked)
                .unwrap();
            sum.scaled_add_assign(c as f32 / total as f32, &masked)
                .unwrap();
        }
        let err = sum.max_abs_diff(&expected).unwrap();
        assert!(err < 1e-3, "masks failed to cancel: max err {err}");
    }

    #[test]
    fn individual_uploads_are_garbage() {
        let group = SaGroup::from_sample_counts(&[10, 10], 7);
        let mut masked = params(1.0);
        SecureAggregation::new(group)
            .transform_upload(0, &mut masked)
            .unwrap();
        // Mask std is 10 / w with w = 0.5 -> deviations of ~20, swamping the
        // original value of 1.
        let dev = masked.sub(&params(1.0)).unwrap().l2_norm();
        assert!(dev > 10.0, "mask too weak: {dev}");
    }

    #[test]
    fn single_client_group_is_identity() {
        let group = SaGroup::from_sample_counts(&[10], 7);
        let mut p = params(4.0);
        SecureAggregation::new(group)
            .transform_upload(0, &mut p)
            .unwrap();
        assert_eq!(p, params(4.0)); // no peers, no masks
    }

    #[test]
    fn out_of_group_client_rejected() {
        let group = SaGroup::from_sample_counts(&[10, 10], 7);
        let mut p = params(1.0);
        assert!(matches!(
            SecureAggregation::new(group).transform_upload(5, &mut p),
            Err(FlError::Middleware { name: "sa", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "one weight per client")]
    fn mismatched_weights_panic() {
        SaGroup::new(3, vec![0.5, 0.5], 0);
    }
}

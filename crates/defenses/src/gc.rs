//! Gradient compression (GC): top-k sparsification of model updates with
//! error feedback.
//!
//! "Another approach to counter MIAs in FL is through Gradient Compression
//! techniques, which reduce the amount of information available for the
//! attacker" (§2.3, following Fu et al.). The client uploads only the
//! largest-magnitude entries of its *update* (trained parameters minus the
//! received global model); the remainder is kept locally as a residual and
//! re-added the next round (error feedback) — the residual buffer is the
//! memory overhead Table 3 attributes to GC.

use dinar_fl::{ClientMiddleware, FlError, Result};
use dinar_nn::ModelParams;
use dinar_telemetry::Telemetry;

/// Exact k-th largest magnitude over the update, found by binary search on
/// IEEE-754 bit patterns: for the non-negative floats `|x|` produces,
/// `total_cmp` order coincides with `u32` bit order, so the k-th largest
/// magnitude is the largest `bits` value with at least `k` elements at or
/// above it. ~31 counting passes, no flat copy, no sort, O(1) extra memory
/// (the old path materialized and sorted the full flat update).
///
/// `k` must be in `1..=param_count`.
fn kth_largest_magnitude(update: &ModelParams, k: usize) -> f32 {
    let count_at_least = |bits: u32| -> usize {
        let mut n = 0;
        for layer in &update.layers {
            for t in &layer.tensors {
                for x in t.as_slice() {
                    if x.abs().to_bits() >= bits {
                        n += 1;
                    }
                }
            }
        }
        n
    };
    // `|x|` has a clear sign bit, so patterns live in 0..=0x7FFF_FFFF (NaN
    // payloads included, above infinity — exactly where total_cmp puts them).
    let (mut lo, mut hi) = (0u32, 0x7FFF_FFFFu32);
    while lo < hi {
        let mid = lo + (hi - lo + 1) / 2;
        if count_at_least(mid) >= k {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    f32::from_bits(lo)
}

/// Top-k update sparsification middleware.
#[derive(Debug)]
pub struct GradientCompression {
    keep_ratio: f32,
    error_feedback: bool,
    received_global: Option<ModelParams>,
    residual: Option<ModelParams>,
    telemetry: Telemetry,
    client_id: usize,
}

impl GradientCompression {
    /// Creates the middleware keeping the top `keep_ratio` fraction of
    /// update entries (by absolute value).
    ///
    /// # Panics
    ///
    /// Panics if `keep_ratio` is outside `(0, 1]`.
    pub fn new(keep_ratio: f32) -> Self {
        assert!(
            keep_ratio > 0.0 && keep_ratio <= 1.0,
            "keep_ratio must be in (0, 1], got {keep_ratio}"
        );
        GradientCompression {
            keep_ratio,
            error_feedback: true,
            received_global: None,
            residual: None,
            telemetry: Telemetry::disabled(),
            client_id: 0,
        }
    }

    /// Enables or disables error feedback. With feedback off, suppressed
    /// update entries are *discarded* rather than retried next round — less
    /// information ever leaves the client (stronger privacy, lower utility),
    /// matching the lossy-compression defenses the paper evaluates.
    pub fn with_error_feedback(mut self, enabled: bool) -> Self {
        self.error_feedback = enabled;
        if !enabled {
            self.residual = None;
        }
        self
    }

    /// The configured keep ratio.
    pub fn keep_ratio(&self) -> f32 {
        self.keep_ratio
    }
}

impl ClientMiddleware for GradientCompression {
    fn transform_download(&mut self, _client_id: usize, params: &mut ModelParams) -> Result<()> {
        self.received_global = Some(params.share());
        Ok(())
    }

    fn transform_upload(&mut self, _client_id: usize, params: &mut ModelParams) -> Result<()> {
        let global = self
            .received_global
            .as_ref()
            .ok_or_else(|| FlError::Middleware {
                name: "gc",
                reason: "upload before any download; no reference model".into(),
            })?;
        // Update = trained - received (+ residual from previous rounds).
        let mut update = params.sub(global)?;
        if let Some(residual) = &self.residual {
            update.add_assign(residual)?;
        }
        // Global top-k threshold over |update|, no flat copy or sort.
        let total = update.param_count();
        let keep = ((total as f32 * self.keep_ratio).ceil() as usize).clamp(1, total);
        let threshold = kth_largest_magnitude(&update, keep);
        // One fused pass turns `update` into the upload in place: a kept
        // entry uploads `global + u`; a suppressed one uploads `global + 0.0`
        // (same arithmetic as the old `global.clone() + sparse update`) and
        // moves `u` into the residual.
        if self.error_feedback {
            // Reuse last round's residual buffer when present — every entry
            // is overwritten below.
            let mut residual = match self.residual.take() {
                Some(r) => r,
                None => update.zeros_like(),
            };
            for (ul, (gl, rl)) in update
                .layers
                .iter_mut()
                .zip(global.layers.iter().zip(&mut residual.layers))
            {
                for (ut, (gt, rt)) in ul
                    .tensors
                    .iter_mut()
                    .zip(gl.tensors.iter().zip(&mut rl.tensors))
                {
                    let gs = gt.as_slice();
                    let rs = rt.as_mut_slice();
                    for (i, u) in ut.as_mut_slice().iter_mut().enumerate() {
                        if u.abs() >= threshold {
                            rs[i] = 0.0; // uploaded, nothing left behind
                            *u += gs[i];
                        } else {
                            rs[i] = *u; // suppressed, kept as residual
                            *u = gs[i] + 0.0;
                        }
                    }
                }
            }
            self.residual = Some(residual);
        } else {
            for (ul, gl) in update.layers.iter_mut().zip(&global.layers) {
                for (ut, gt) in ul.tensors.iter_mut().zip(&gl.tensors) {
                    let gs = gt.as_slice();
                    for (i, u) in ut.as_mut_slice().iter_mut().enumerate() {
                        if u.abs() >= threshold {
                            *u += gs[i];
                        } else {
                            *u = gs[i] + 0.0; // suppressed entry is discarded
                        }
                    }
                }
            }
            self.residual = None;
        }
        // Sparsification discards information but carries no (ε, δ)
        // guarantee; the ledger records the round as an explicit zero-cost
        // entry so audits can tell "no DP" from "not accounted".
        self.telemetry
            .privacy_charge_zero("gc", &format!("client[{}]", self.client_id));
        *params = update;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "gc"
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry, client_id: usize) {
        self.telemetry = telemetry.clone();
        self.client_id = client_id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::LayerParams;
    use dinar_tensor::Tensor;

    fn params(values: &[f32]) -> ModelParams {
        ModelParams::new(vec![LayerParams::new(vec![Tensor::from_slice(values)])])
    }

    #[test]
    fn keeps_only_largest_update_entries() {
        let mut mw = GradientCompression::new(0.25);
        let mut global = params(&[0.0, 0.0, 0.0, 0.0]);
        mw.transform_download(0, &mut global).unwrap();
        let mut trained = params(&[0.1, -2.0, 0.3, 0.05]);
        mw.transform_upload(0, &mut trained).unwrap();
        // Only the -2.0 entry (top 25%) survives.
        assert_eq!(trained.to_flat(), vec![0.0, -2.0, 0.0, 0.0]);
    }

    #[test]
    fn residual_is_error_feedback() {
        let mut mw = GradientCompression::new(0.25);
        let mut global = params(&[0.0; 4]);
        mw.transform_download(0, &mut global).unwrap();
        let mut trained = params(&[0.1, -2.0, 0.3, 0.05]);
        mw.transform_upload(0, &mut trained).unwrap();
        // Round 2: no further training movement; the residual alone should
        // now promote the next-largest entry (0.3).
        let mut global2 = params(&[0.0; 4]);
        mw.transform_download(0, &mut global2).unwrap();
        let mut trained2 = params(&[0.0; 4]);
        mw.transform_upload(0, &mut trained2).unwrap();
        assert_eq!(trained2.to_flat(), vec![0.0, 0.0, 0.3, 0.0]);
    }

    #[test]
    fn keep_ratio_one_is_lossless() {
        let mut mw = GradientCompression::new(1.0);
        let mut global = params(&[1.0, 2.0, 3.0]);
        mw.transform_download(0, &mut global).unwrap();
        let mut trained = params(&[1.5, 1.0, 3.25]);
        let expect = trained.share();
        mw.transform_upload(0, &mut trained).unwrap();
        assert!(trained.max_abs_diff(&expect).unwrap() < 1e-6);
    }

    #[test]
    fn upload_before_download_errors() {
        let mut mw = GradientCompression::new(0.5);
        let mut p = params(&[1.0]);
        assert!(matches!(
            mw.transform_upload(0, &mut p),
            Err(FlError::Middleware { name: "gc", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "keep_ratio")]
    fn invalid_ratio_panics() {
        GradientCompression::new(0.0);
    }
}

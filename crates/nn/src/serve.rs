//! Batched inference over checkpointed personalized models.
//!
//! After federated training, each client owns a personalized model (the
//! global model with DINAR's private layer restored). This module is the
//! deployment end of the checkpoint plane: it loads a `DNCK` file
//! ([`crate::ckpt`]) and answers batched predictions from it **at the
//! checkpoint's storage width** — f32 sections serve as-is, i8 sections
//! stay resident as [`QuantTensor`]s (¼ the weight bytes) and are widened
//! per batch into a recycled [`BufferPool`] scratch buffer, so the
//! steady-state serving loop allocates nothing and runs the very same
//! `matmul` kernels as the dense path.
//!
//! The server reports throughput through `dinar-telemetry`: counters
//! `serve.batches` / `serve.rows`, plus a `serve.infer` span per batch —
//! the span's clock (not the wall clock) prices each batch in trace
//! export, so `rows / span-time` recovers rows-per-second post hoc.
//!
//! Serving supports MLP-family checkpoints (the paper's Purchase100 /
//! Texas100 classifiers): each layer must be a `[weights (in×out), bias]`
//! pair; hidden layers get ReLU, matching [`crate::models::mlp`]'s
//! eval-mode forward bit-for-bit.

use crate::ckpt::{self, CkptTensor, RawCheckpoint};
use crate::{NnError, Result};
use dinar_telemetry::Telemetry;
use dinar_tensor::{BufferPool, QuantTensor, Tensor};
use std::path::Path;

/// A layer's weight matrix, kept at the checkpoint's storage width.
#[derive(Debug)]
pub enum ServeWeights {
    /// Dense f32 weights (from an F32 or F16 checkpoint section).
    Dense(Tensor),
    /// Quantized i8 weights (from an I8 section), widened per batch.
    Quant(QuantTensor),
}

#[derive(Debug)]
struct ServeLayer {
    weights: ServeWeights,
    bias: Tensor,
    relu: bool,
}

/// A loaded model answering batched inference requests.
#[derive(Debug)]
pub struct ServingModel {
    layers: Vec<ServeLayer>,
    pool: BufferPool<f32>,
    telemetry: Telemetry,
    batches_served: u64,
    rows_served: u64,
}

impl ServingModel {
    /// Builds a serving model from a decoded checkpoint, keeping each
    /// weight matrix at its on-disk width. Every layer must be a
    /// `[rank-2 weights, rank-1 bias]` pair with matching output width;
    /// all but the last layer get ReLU.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for layers that are not dense
    /// `[weights, bias]` pairs (conv checkpoints are not servable here).
    pub fn from_checkpoint(raw: RawCheckpoint) -> Result<Self> {
        if raw.layers.is_empty() {
            return Err(NnError::InvalidConfig {
                reason: "checkpoint has no layers to serve".into(),
            });
        }
        let last = raw.layers.len() - 1;
        let mut layers = Vec::with_capacity(raw.layers.len());
        for (i, sections) in raw.layers.into_iter().enumerate() {
            let mut it = sections.into_iter();
            let (Some(weights), Some(bias), None) = (it.next(), it.next(), it.next()) else {
                return Err(NnError::InvalidConfig {
                    reason: format!("layer {i} is not a [weights, bias] pair"),
                });
            };
            let (rows_cols, out) = (weights.shape().to_vec(), bias.shape().to_vec());
            if rows_cols.len() != 2 || out.len() != 1 || rows_cols[1] != out[0] {
                return Err(NnError::InvalidConfig {
                    reason: format!(
                        "layer {i} has shapes {rows_cols:?}/{out:?}, serving needs \
                         [in, out] weights with an [out] bias"
                    ),
                });
            }
            let weights = match weights {
                CkptTensor::Quant(q) => ServeWeights::Quant(q),
                dense => ServeWeights::Dense(dense.into_tensor()),
            };
            layers.push(ServeLayer {
                weights,
                // Bias vectors are tiny; always serve them dense.
                bias: bias.into_tensor(),
                relu: i != last,
            });
        }
        Ok(ServingModel {
            layers,
            pool: BufferPool::new(),
            telemetry: Telemetry::disabled(),
            batches_served: 0,
            rows_served: 0,
        })
    }

    /// Loads a `DNCK` model checkpoint from `path` and builds a serving
    /// model at the checkpoint's storage widths.
    ///
    /// # Errors
    ///
    /// Propagates [`ckpt::load_raw`] and
    /// [`from_checkpoint`](ServingModel::from_checkpoint) errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_checkpoint(ckpt::load_raw(path)?)
    }

    /// Attaches a telemetry sink; subsequent batches report throughput.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Whether any layer serves from quantized i8 weights.
    pub fn is_quantized(&self) -> bool {
        self.layers
            .iter()
            .any(|l| matches!(l.weights, ServeWeights::Quant(_)))
    }

    /// Bytes of resident weight storage (weights + biases), the number the
    /// serving ratchet holds at ≥2× smaller for i8 checkpoints.
    pub fn resident_weight_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| {
                let w = match &l.weights {
                    ServeWeights::Dense(t) => 4 * t.len() as u64,
                    ServeWeights::Quant(q) => q.resident_bytes(),
                };
                w + 4 * l.bias.len() as u64
            })
            .sum()
    }

    /// Batches served since load.
    pub fn batches_served(&self) -> u64 {
        self.batches_served
    }

    /// Rows served since load.
    pub fn rows_served(&self) -> u64 {
        self.rows_served
    }

    /// Scratch-pool reuse hits (first batch misses, steady state hits).
    pub fn pool_hits(&self) -> u64 {
        self.pool.hits()
    }

    /// Answers one batch: `x` is `[rows, features]`, the result is
    /// `[rows, classes]` logits. Quantized layers widen into pooled
    /// scratch; the dense math is identical to the training model's
    /// eval-mode forward pass.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the matrix kernels.
    pub fn infer(&mut self, x: &Tensor) -> Result<Tensor> {
        // Per-batch wall time flows through the telemetry span (the
        // sanctioned clock), so trace export prices each batch; serving
        // code itself never reads the wall clock.
        let _span = self.telemetry.span("serve.infer");
        let rows = x.shape().first().copied().unwrap_or(0);
        let layers = &self.layers;
        let pool = &mut self.pool;
        let mut h = x.clone();
        for layer in layers {
            h = match &layer.weights {
                ServeWeights::Dense(w) => h.matmul(w)?,
                ServeWeights::Quant(q) => {
                    let mut wide = pool.acquire_tensor(q.shape());
                    q.dequantize_into(&mut wide)?;
                    let y = h.matmul(&wide)?;
                    pool.release_tensor(wide);
                    y
                }
            };
            h = h.add_row_broadcast(&layer.bias)?;
            if layer.relu {
                h = h.map(|v| v.max(0.0));
            }
        }
        self.batches_served += 1;
        self.rows_served += rows as u64;
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("serve.batches", 1);
            self.telemetry.counter_add("serve.rows", rows as u64);
        }
        Ok(h)
    }

    /// Predicted class per row (argmax over the logits).
    ///
    /// # Errors
    ///
    /// Propagates [`infer`](ServingModel::infer) errors.
    pub fn predict(&mut self, x: &Tensor) -> Result<Vec<usize>> {
        let logits = self.infer(x)?;
        let shape = logits.shape().to_vec();
        let (rows, classes) = (shape[0], shape[1]);
        let data = logits.as_slice();
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &data[r * classes..(r + 1) * classes];
            let mut best = 0;
            for (c, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = c;
                }
            }
            out.push(best);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{self, Activation};
    use dinar_tensor::{Dtype, Rng};

    fn trained_mlp() -> (crate::Model, Tensor) {
        let mut rng = Rng::seed_from(21);
        let model = models::mlp(&[6, 16, 4], Activation::ReLU, &mut rng).unwrap();
        let x = rng.randn(&[32, 6]);
        (model, x)
    }

    fn serving(model: &crate::Model, dtype: Dtype) -> ServingModel {
        let bytes = ckpt::encode_checkpoint(&model.params(), dtype).unwrap();
        ServingModel::from_checkpoint(ckpt::decode_checkpoint_raw(&bytes).unwrap()).unwrap()
    }

    #[test]
    fn f32_serving_matches_training_forward_bit_for_bit() {
        let (mut model, x) = trained_mlp();
        let want = model.forward(&x, false).unwrap();
        let mut serve = serving(&model, Dtype::F32);
        assert!(!serve.is_quantized());
        let got = serve.infer(&x).unwrap();
        let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(wb, gb);
    }

    #[test]
    fn i8_serving_shrinks_resident_weights_at_least_2x() {
        let (model, x) = trained_mlp();
        let mut dense = serving(&model, Dtype::F32);
        let mut quant = serving(&model, Dtype::I8);
        assert!(quant.is_quantized());
        assert!(
            quant.resident_weight_bytes() * 2 <= dense.resident_weight_bytes(),
            "i8 {} vs f32 {}",
            quant.resident_weight_bytes(),
            dense.resident_weight_bytes()
        );
        // Quantized logits track the dense ones closely on O(1) activations.
        let a = dense.infer(&x).unwrap();
        let b = quant.infer(&x).unwrap();
        let diff = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 0.2, "quantized serving drifted by {diff}");
    }

    #[test]
    fn quant_scratch_is_recycled_across_batches() {
        let (model, x) = trained_mlp();
        let mut quant = serving(&model, Dtype::I8);
        quant.infer(&x).unwrap();
        let after_first = quant.pool_hits();
        quant.infer(&x).unwrap();
        quant.infer(&x).unwrap();
        // Steady state: every widening (two quant layers × two batches)
        // reuses parked scratch instead of allocating.
        assert!(
            quant.pool_hits() >= after_first + 4,
            "hits {} after first {}",
            quant.pool_hits(),
            after_first
        );
        assert_eq!(quant.batches_served(), 3);
        assert_eq!(quant.rows_served(), 96);
    }

    #[test]
    fn telemetry_reports_throughput() {
        let (model, x) = trained_mlp();
        let mut serve = serving(&model, Dtype::F32);
        let telemetry = Telemetry::new();
        serve.set_telemetry(telemetry.clone());
        serve.infer(&x).unwrap();
        serve.infer(&x).unwrap();
        assert_eq!(telemetry.counter_value("serve.batches"), 2);
        assert_eq!(telemetry.counter_value("serve.rows"), 64);
    }

    #[test]
    fn predict_returns_argmax_classes() {
        let (mut model, x) = trained_mlp();
        let mut serve = serving(&model, Dtype::F32);
        let want = model.predict(&x).unwrap();
        let got = serve.predict(&x).unwrap();
        assert_eq!(want, got);
    }

    #[test]
    fn non_mlp_checkpoints_are_rejected() {
        // A layer with a rank-4 conv kernel is not servable.
        let p = crate::ModelParams::new(vec![crate::LayerParams::new(vec![
            Tensor::zeros(&[2, 3, 3, 2]),
            Tensor::zeros(&[2]),
        ])]);
        let bytes = ckpt::encode_checkpoint(&p, Dtype::F32).unwrap();
        let raw = ckpt::decode_checkpoint_raw(&bytes).unwrap();
        assert!(matches!(
            ServingModel::from_checkpoint(raw),
            Err(NnError::InvalidConfig { .. })
        ));
    }
}

//! The DINAR client middleware: personalization on download, obfuscation on
//! upload (Algorithm 1 without the training loop, which the FL client runs
//! between the two hooks).

use crate::obfuscation::{obfuscate_layer, ObfuscationStrategy};
use crate::DinarConfig;
use dinar_fl::{ClientMiddleware, FlError, MiddlewareState};
use dinar_nn::{LayerParams, ModelParams};
use dinar_tensor::Rng;

/// Per-client DINAR middleware.
///
/// * **Download** (Alg. 1, Model Personalization): every layer of the global
///   model is installed except the private layer(s), for which the client's
///   privately stored parameters `θᵢᵖ*` are restored. On the first round
///   (nothing stored yet) the global layer is installed as-is — at that
///   point it is still the common random initialization and leaks nothing.
/// * **Upload** (Alg. 1, Model Obfuscation): the trained private layer(s)
///   are stored as the new `θᵢᵖ*`, then replaced with random values before
///   the parameters leave the client.
///
/// DINAR protects a single layer `p` (the consensus result of §4.1);
/// the multi-layer constructor exists for the paper's Fig. 5 sweep, which
/// shows that obfuscating more layers buys no extra privacy and costs
/// utility.
#[derive(Debug)]
pub struct DinarMiddleware {
    layers: Vec<usize>,
    stored: Vec<Option<LayerParams>>,
    strategy: ObfuscationStrategy,
    rng: Rng,
}

impl DinarMiddleware {
    /// Creates the middleware protecting the single trainable layer
    /// `private_layer`, with a per-client seed for obfuscation randomness.
    pub fn new(private_layer: usize, config: DinarConfig, seed: u64) -> Self {
        Self::multi(vec![private_layer], config, seed)
    }

    /// Creates the middleware protecting several layers at once (Fig. 5).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or contains duplicates.
    pub fn multi(layers: Vec<usize>, config: DinarConfig, seed: u64) -> Self {
        assert!(!layers.is_empty(), "DINAR must protect at least one layer");
        let mut sorted = layers.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), layers.len(), "duplicate layer indices");
        DinarMiddleware {
            stored: layers.iter().map(|_| None).collect(),
            layers,
            strategy: config.strategy,
            rng: Rng::seed_from(seed ^ 0xD1AA_4000_0000_0000),
        }
    }

    fn check_range(&self, params: &ModelParams) -> dinar_fl::Result<()> {
        if let Some(&bad) = self.layers.iter().find(|&&p| p >= params.layers.len()) {
            return Err(FlError::Middleware {
                name: "dinar",
                reason: format!(
                    "private layer {bad} out of range for {} layers",
                    params.layers.len()
                ),
            });
        }
        Ok(())
    }
}

impl ClientMiddleware for DinarMiddleware {
    fn transform_download(
        &mut self,
        _client_id: usize,
        params: &mut ModelParams,
    ) -> dinar_fl::Result<()> {
        self.check_range(params)?;
        for (&p, stored) in self.layers.iter().zip(&self.stored) {
            if let Some(own) = stored {
                // Restore θᵢᵖ*: the client's own non-obfuscated layer.
                params.layers[p] = own.share();
            }
        }
        Ok(())
    }

    fn transform_upload(
        &mut self,
        _client_id: usize,
        params: &mut ModelParams,
    ) -> dinar_fl::Result<()> {
        self.check_range(params)?;
        for (&p, slot) in self.layers.iter().zip(&mut self.stored) {
            let original =
                obfuscate_layer(params, p, self.strategy, &mut self.rng).map_err(|e| {
                    FlError::Middleware {
                        name: "dinar",
                        reason: e.to_string(),
                    }
                })?;
            *slot = Some(original);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "dinar"
    }

    fn export_state(&self) -> Option<MiddlewareState> {
        Some(MiddlewareState {
            rng: Some(self.rng.state()),
            stored: self
                .stored
                .iter()
                .map(|s| s.as_ref().map(LayerParams::share))
                .collect(),
        })
    }

    fn check_state(&self, state: &MiddlewareState) -> dinar_fl::Result<()> {
        if state.stored.len() != self.stored.len() {
            return Err(FlError::Middleware {
                name: "dinar",
                reason: format!(
                    "resume image stores {} private layer slot(s), middleware has {}",
                    state.stored.len(),
                    self.stored.len()
                ),
            });
        }
        Ok(())
    }

    fn import_state(&mut self, state: MiddlewareState) {
        if let Some(rng) = state.rng {
            self.rng = Rng::from_state(rng);
        }
        self.stored = state.stored;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::LayerParams;
    use dinar_tensor::Tensor;

    fn params(values: &[f32]) -> ModelParams {
        ModelParams::new(
            values
                .iter()
                .map(|&v| LayerParams::new(vec![Tensor::full(&[4], v)]))
                .collect(),
        )
    }

    #[test]
    fn upload_obfuscates_and_stores_download_restores() {
        let mut mw = DinarMiddleware::new(1, DinarConfig::default(), 7);

        // Round 1 upload: layer 1 (value 2.0) is stored and obfuscated.
        let mut upload = params(&[1.0, 2.0]);
        mw.transform_upload(0, &mut upload).unwrap();
        assert_eq!(upload.layers[0].tensors[0].as_slice(), &[1.0; 4]);
        assert!(upload.layers[1].tensors[0]
            .as_slice()
            .iter()
            .all(|&x| x != 2.0));

        // Round 2 download: the global layer 1 (a garbage average, say 9.0)
        // is replaced by the stored 2.0; layer 0 comes from the global.
        let mut download = params(&[5.0, 9.0]);
        mw.transform_download(0, &mut download).unwrap();
        assert_eq!(download.layers[0].tensors[0].as_slice(), &[5.0; 4]);
        assert_eq!(download.layers[1].tensors[0].as_slice(), &[2.0; 4]);
    }

    #[test]
    fn first_download_is_identity() {
        let mut mw = DinarMiddleware::new(1, DinarConfig::default(), 7);
        let mut download = params(&[5.0, 9.0]);
        let before = download.share();
        mw.transform_download(0, &mut download).unwrap();
        assert_eq!(download, before);
    }

    #[test]
    fn multi_layer_protection() {
        let mut mw = DinarMiddleware::multi(vec![0, 2], DinarConfig::default(), 3);
        let mut upload = params(&[1.0, 2.0, 3.0]);
        mw.transform_upload(0, &mut upload).unwrap();
        // Layers 0 and 2 obfuscated, layer 1 intact.
        assert!(upload.layers[0].tensors[0]
            .as_slice()
            .iter()
            .all(|&x| x != 1.0));
        assert_eq!(upload.layers[1].tensors[0].as_slice(), &[2.0; 4]);
        assert!(upload.layers[2].tensors[0]
            .as_slice()
            .iter()
            .all(|&x| x != 3.0));

        let mut download = params(&[7.0, 8.0, 9.0]);
        mw.transform_download(0, &mut download).unwrap();
        assert_eq!(download.layers[0].tensors[0].as_slice(), &[1.0; 4]);
        assert_eq!(download.layers[1].tensors[0].as_slice(), &[8.0; 4]);
        assert_eq!(download.layers[2].tensors[0].as_slice(), &[3.0; 4]);
    }

    #[test]
    fn out_of_range_layer_errors() {
        let mut mw = DinarMiddleware::new(5, DinarConfig::default(), 7);
        let mut p = params(&[1.0, 2.0]);
        assert!(mw.transform_download(0, &mut p).is_err());
        assert!(mw.transform_upload(0, &mut p).is_err());
    }

    #[test]
    fn strategies_are_respected() {
        let config = DinarConfig {
            strategy: ObfuscationStrategy::Zeros,
            ..DinarConfig::default()
        };
        let mut mw = DinarMiddleware::new(0, config, 1);
        let mut p = params(&[3.0, 4.0]);
        mw.transform_upload(0, &mut p).unwrap();
        assert!(p.layers[0].tensors[0].as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_layers_panic() {
        DinarMiddleware::multi(vec![1, 1], DinarConfig::default(), 0);
    }
}

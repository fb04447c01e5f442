//! Layer obfuscation (Algorithm 1, lines 15–17).
//!
//! Before uploading, the client replaces the parameters of the
//! privacy-sensitive layer `p` with values that carry no information about
//! its data. The paper obfuscates "by simply replacing the actual value of
//! θᵢᵖ by random values"; zeroing and Gaussian noise are provided as
//! ablation alternatives (see the `obfuscation` bench).

use crate::{DinarError, Result};
use dinar_nn::{LayerParams, ModelParams};
use dinar_tensor::{Rng, Tensor};

/// How the private layer's parameters are replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObfuscationStrategy {
    /// Uniform random values in `[-0.5, 0.5]` — the paper's choice.
    Random,
    /// All zeros (reveals the layer *shape* only; ablation).
    Zeros,
    /// Standard Gaussian noise (ablation).
    Gaussian,
}

/// Replaces the parameters of trainable layer `p` in `params` with
/// obfuscated values, returning the original layer (to be stored privately
/// as `θᵢᵖ*`).
///
/// # Errors
///
/// Returns [`DinarError::InvalidConfig`] if `p` is out of range.
pub fn obfuscate_layer(
    params: &mut ModelParams,
    p: usize,
    strategy: ObfuscationStrategy,
    rng: &mut Rng,
) -> Result<LayerParams> {
    let num_layers = params.layers.len();
    let layer = params
        .layers
        .get_mut(p)
        .ok_or_else(|| DinarError::InvalidConfig {
            reason: format!(
                "layer index {p} out of range for model with {num_layers} trainable layers"
            ),
        })?;
    // O(1) snapshot: `θᵢᵖ*` shares the layer's buffers; every strategy below
    // replaces the tensors wholesale, so the original is never copied.
    let original = layer.share();
    for t in &mut layer.tensors {
        match strategy {
            ObfuscationStrategy::Random => {
                *t = rng.rand_uniform(t.shape(), -0.5, 0.5);
            }
            ObfuscationStrategy::Zeros => {
                // A fresh zero buffer, not `map_inplace`: writing through the
                // shared tensor would trigger a COW copy of data that is
                // about to be discarded anyway.
                *t = Tensor::zeros(t.shape());
            }
            ObfuscationStrategy::Gaussian => {
                *t = rng.randn(t.shape());
            }
        }
    }
    Ok(original)
}

/// Obfuscates several layers at once (the Fig. 5 multi-layer sweep),
/// returning the originals in the same order as `layers`.
///
/// # Errors
///
/// Returns [`DinarError::InvalidConfig`] if any index is out of range.
pub fn obfuscate_layers(
    params: &mut ModelParams,
    layers: &[usize],
    strategy: ObfuscationStrategy,
    rng: &mut Rng,
) -> Result<Vec<LayerParams>> {
    layers
        .iter()
        .map(|&p| obfuscate_layer(params, p, strategy, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::LayerParams;
    use dinar_tensor::Tensor;

    fn params() -> ModelParams {
        ModelParams::new(vec![
            LayerParams::new(vec![Tensor::full(&[6], 1.0)]),
            LayerParams::new(vec![Tensor::full(&[4], 2.0), Tensor::full(&[2], 3.0)]),
            LayerParams::new(vec![Tensor::full(&[3], 4.0)]),
        ])
    }

    #[test]
    fn obfuscation_replaces_only_target_layer_and_returns_original() {
        let mut p = params();
        let mut rng = Rng::seed_from(0);
        let original = obfuscate_layer(&mut p, 1, ObfuscationStrategy::Random, &mut rng).unwrap();
        // Original returned intact.
        assert_eq!(original.tensors[0].as_slice(), &[2.0; 4]);
        assert_eq!(original.tensors[1].as_slice(), &[3.0; 2]);
        // Other layers untouched.
        assert_eq!(p.layers[0].tensors[0].as_slice(), &[1.0; 6]);
        assert_eq!(p.layers[2].tensors[0].as_slice(), &[4.0; 3]);
        // Target layer replaced with values in [-0.5, 0.5].
        assert!(p.layers[1].tensors[0]
            .as_slice()
            .iter()
            .all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn zeros_strategy() {
        let mut p = params();
        obfuscate_layer(
            &mut p,
            0,
            ObfuscationStrategy::Zeros,
            &mut Rng::seed_from(1),
        )
        .unwrap();
        assert!(p.layers[0].tensors[0].as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gaussian_strategy_has_unit_scale() {
        let mut p = ModelParams::new(vec![LayerParams::new(vec![Tensor::zeros(&[20_000])])]);
        obfuscate_layer(
            &mut p,
            0,
            ObfuscationStrategy::Gaussian,
            &mut Rng::seed_from(2),
        )
        .unwrap();
        let flat = p.to_flat();
        let var = flat.iter().map(|x| x * x).sum::<f32>() / flat.len() as f32;
        assert!((var - 1.0).abs() < 0.05);
    }

    #[test]
    fn multi_layer_obfuscation() {
        let mut p = params();
        let originals = obfuscate_layers(
            &mut p,
            &[0, 2],
            ObfuscationStrategy::Zeros,
            &mut Rng::seed_from(3),
        )
        .unwrap();
        assert_eq!(originals.len(), 2);
        assert!(p.layers[0].tensors[0].as_slice().iter().all(|&x| x == 0.0));
        assert!(p.layers[2].tensors[0].as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(p.layers[1].tensors[0].as_slice(), &[2.0; 4]); // untouched
    }

    #[test]
    fn out_of_range_rejected() {
        let mut p = params();
        assert!(matches!(
            obfuscate_layer(
                &mut p,
                3,
                ObfuscationStrategy::Random,
                &mut Rng::seed_from(4)
            ),
            Err(DinarError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn obfuscation_is_deterministic_per_seed() {
        let mut a = params();
        let mut b = params();
        obfuscate_layer(
            &mut a,
            1,
            ObfuscationStrategy::Random,
            &mut Rng::seed_from(5),
        )
        .unwrap();
        obfuscate_layer(
            &mut b,
            1,
            ObfuscationStrategy::Random,
            &mut Rng::seed_from(5),
        )
        .unwrap();
        assert_eq!(a, b);
    }
}

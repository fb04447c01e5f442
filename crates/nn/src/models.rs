//! The paper's model zoo (Table 2).
//!
//! | Dataset | Paper model | Full profile | Mini profile |
//! |---|---|---|---|
//! | Purchase100 / Texas100 | 6-layer Tanh FCNN | [`fcnn_paper`] | [`fcnn6`] |
//! | GTSRB / CelebA | VGG11 (8 conv + dense head) | [`vgg11`] | [`vgg11_mini`] |
//! | CIFAR-10 / CIFAR-100 | ResNet20 | [`resnet20`] | [`resnet_mini`] |
//! | Speech Commands | M18 (1-D CNN) | [`m18`] | [`m18_mini`] |
//!
//! The `full` constructors match the architectures and dimensions reported in
//! the paper; the `mini` constructors keep the architectural *shape* (same
//! layer types, same depth class, same "8 convolutional layers" structure
//! where the paper's analysis depends on it) at widths that train in seconds
//! on one CPU core. All experiment binaries use the mini profiles and note
//! this substitution in EXPERIMENTS.md.

use crate::activation::{ReLU, Tanh};
use crate::conv::{Conv1d, Conv2d, Flatten};
use crate::dense::Dense;
use crate::model::{Model, Residual};
use crate::norm::BatchNorm;
use crate::pool::{GlobalAvgPool, MaxPool1d, MaxPool2d};
use crate::{Layer, NnError, Result};
use dinar_tensor::Rng;

/// Activation function selector for the generic builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    ReLU,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    fn boxed(self) -> Box<dyn Layer> {
        match self {
            Activation::ReLU => Box::new(ReLU::new()),
            Activation::Tanh => Box::new(Tanh::new()),
        }
    }
}

/// A multi-layer perceptron with the given layer sizes.
///
/// `sizes = [in, h1, ..., out]` produces `sizes.len() - 1` dense layers with
/// `activation` between them (none after the final logits layer).
/// Initialization follows the activation (He for ReLU, Xavier for Tanh).
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] if fewer than two sizes are given.
pub fn mlp(sizes: &[usize], activation: Activation, rng: &mut Rng) -> Result<Model> {
    if sizes.len() < 2 {
        return Err(NnError::InvalidConfig {
            reason: format!("mlp needs at least [in, out] sizes, got {sizes:?}"),
        });
    }
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for w in sizes.windows(2) {
        let dense = match activation {
            Activation::ReLU => Dense::he(w[0], w[1], rng),
            Activation::Tanh => Dense::xavier(w[0], w[1], rng),
        };
        layers.push(Box::new(dense));
        layers.push(activation.boxed());
    }
    layers.pop(); // no activation after the logits layer
    Ok(Model::new(layers))
}

/// The paper's full Purchase100/Texas100 classifier: fully-connected layers
/// of sizes 4096, 2048, 1024, 512, 256 and 128 with Tanh activations, plus a
/// final classification layer (§5.1).
///
/// # Errors
///
/// Propagates [`mlp`] errors.
pub fn fcnn_paper(in_features: usize, classes: usize, rng: &mut Rng) -> Result<Model> {
    mlp(
        &[in_features, 4096, 2048, 1024, 512, 256, 128, classes],
        Activation::Tanh,
        rng,
    )
}

/// Mini profile of the tabular classifier with exactly **six** trainable
/// layers — the numbering used by the paper's Fig. 5 ("obfuscated layers
/// 1..6" on a "6-layer" network).
///
/// Hidden widths scale down geometrically from `base_width`.
///
/// # Errors
///
/// Propagates [`mlp`] errors.
pub fn fcnn6(in_features: usize, classes: usize, base_width: usize, rng: &mut Rng) -> Result<Model> {
    let w = base_width.max(16);
    mlp(
        &[in_features, w, w * 3 / 4, w / 2, w * 3 / 8, w / 4, classes],
        Activation::Tanh,
        rng,
    )
}

fn conv_relu(in_ch: usize, out_ch: usize, rng: &mut Rng) -> Vec<Box<dyn Layer>> {
    vec![
        Box::new(Conv2d::new(in_ch, out_ch, 3, 1, 1, rng)),
        Box::new(ReLU::new()),
    ]
}

/// Full VGG11 (Simonyan & Zisserman): 8 convolutional layers with five 2×2
/// max pools, plus a 4096-4096-classes dense head. Expects square inputs of
/// `input_hw` pixels: the paper uses 64×64 CelebA crops (pooled to 2×2) and
/// 48×48 GTSRB (pooled 24, 12, 6, 3, 1 — each pool drops an odd last row
/// and column).
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] if `input_hw` is below 32, where the
/// five pools leave no map.
pub fn vgg11(in_channels: usize, classes: usize, input_hw: usize, rng: &mut Rng) -> Result<Model> {
    // Five flooring halvings are one flooring division by 32.
    let final_hw = input_hw / 32;
    if final_hw == 0 {
        return Err(NnError::InvalidConfig {
            reason: format!("vgg11 pools a {input_hw}×{input_hw} input to nothing; it needs ≥ 32"),
        });
    }
    let pool = || -> Box<dyn Layer> { Box::new(MaxPool2d::floor_mode(2)) };
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    layers.extend(conv_relu(in_channels, 64, rng));
    layers.push(pool());
    layers.extend(conv_relu(64, 128, rng));
    layers.push(pool());
    layers.extend(conv_relu(128, 256, rng));
    layers.extend(conv_relu(256, 256, rng));
    layers.push(pool());
    layers.extend(conv_relu(256, 512, rng));
    layers.extend(conv_relu(512, 512, rng));
    layers.push(pool());
    layers.extend(conv_relu(512, 512, rng));
    layers.extend(conv_relu(512, 512, rng));
    layers.push(pool());
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Dense::he(512 * final_hw * final_hw, 4096, rng)));
    layers.push(Box::new(ReLU::new()));
    layers.push(Box::new(Dense::he(4096, 4096, rng)));
    layers.push(Box::new(ReLU::new()));
    layers.push(Box::new(Dense::he(4096, classes, rng)));
    Ok(Model::new(layers))
}

/// Mini VGG11: the same **8 convolutional layers + dense head** structure at
/// CPU-friendly widths, for 16×16 inputs.
///
/// The CelebA analysis of Fig. 4 ("a neural network with 8 convolutional
/// layers") runs on this profile: trainable layers 0–7 are the convolutions,
/// 8 is the hidden dense layer (the penultimate layer) and 9 the classifier.
///
/// # Errors
///
/// Never fails for valid RNG input; returns `Result` for API uniformity.
pub fn vgg11_mini(in_channels: usize, classes: usize, rng: &mut Rng) -> Result<Model> {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    layers.extend(conv_relu(in_channels, 8, rng)); // conv1, 16x16
    layers.push(Box::new(MaxPool2d::new(2))); // 8x8
    layers.extend(conv_relu(8, 12, rng)); // conv2
    layers.push(Box::new(MaxPool2d::new(2))); // 4x4
    layers.extend(conv_relu(12, 16, rng)); // conv3
    layers.extend(conv_relu(16, 16, rng)); // conv4
    layers.push(Box::new(MaxPool2d::new(2))); // 2x2
    layers.extend(conv_relu(16, 24, rng)); // conv5
    layers.extend(conv_relu(24, 24, rng)); // conv6
    layers.push(Box::new(MaxPool2d::new(2))); // 1x1
    layers.extend(conv_relu(24, 32, rng)); // conv7
    layers.extend(conv_relu(32, 32, rng)); // conv8
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Dense::he(32, 48, rng)));
    layers.push(Box::new(ReLU::new()));
    layers.push(Box::new(Dense::he(48, classes, rng)));
    Ok(Model::new(layers))
}

fn basic_block(in_ch: usize, out_ch: usize, stride: usize, rng: &mut Rng) -> Box<dyn Layer> {
    let body: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(in_ch, out_ch, 3, stride, 1, rng)),
        Box::new(BatchNorm::new(out_ch)),
        Box::new(ReLU::new()),
        Box::new(Conv2d::new(out_ch, out_ch, 3, 1, 1, rng)),
        Box::new(BatchNorm::new(out_ch)),
    ];
    if stride != 1 || in_ch != out_ch {
        let shortcut: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(in_ch, out_ch, 1, stride, 0, rng)),
            Box::new(BatchNorm::new(out_ch)),
        ];
        Box::new(Residual::projected(body, shortcut))
    } else {
        Box::new(Residual::identity(body))
    }
}

/// Full ResNet20 for 32×32 CIFAR images (He et al.): an initial 16-channel
/// convolution, three stages of three residual blocks at widths 16/32/64,
/// global average pooling and a linear classifier.
///
/// # Errors
///
/// Never fails for valid RNG input; returns `Result` for API uniformity.
pub fn resnet20(in_channels: usize, classes: usize, rng: &mut Rng) -> Result<Model> {
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(in_channels, 16, 3, 1, 1, rng)),
        Box::new(BatchNorm::new(16)),
        Box::new(ReLU::new()),
    ];
    for (stage, &width) in [16usize, 32, 64].iter().enumerate() {
        for block in 0..3 {
            let in_ch = if block == 0 {
                if stage == 0 { 16 } else { width / 2 }
            } else {
                width
            };
            let stride = if block == 0 && stage > 0 { 2 } else { 1 };
            layers.push(basic_block(in_ch, width, stride, rng));
        }
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Dense::he(64, classes, rng)));
    Ok(Model::new(layers))
}

/// Mini residual network: one identity block and one strided projection
/// block over an 8-channel stem — the ResNet20 shape at 1/8 width and 1/4
/// depth, for 8×8 or 16×16 inputs.
///
/// # Errors
///
/// Never fails for valid RNG input; returns `Result` for API uniformity.
pub fn resnet_mini(in_channels: usize, classes: usize, rng: &mut Rng) -> Result<Model> {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(in_channels, 8, 3, 1, 1, rng)),
        Box::new(BatchNorm::new(8)),
        Box::new(ReLU::new()),
        basic_block(8, 8, 1, rng),
        basic_block(8, 16, 2, rng),
        Box::new(GlobalAvgPool::new()),
        Box::new(Dense::he(16, classes, rng)),
    ];
    Ok(Model::new(layers))
}

/// Full M18 raw-waveform classifier (Dai et al. 2017): a long-stride input
/// convolution followed by four groups of four 1-D convolutions at widths
/// 64/128/256/512 with max pooling between groups, global average pooling
/// and a linear classifier. Expects `[n, 1, 16000]` one-second waveforms,
/// which the pools take 4000 → 1000 → 250 → 62 → 15 → 3 (each dropping the
/// samples past its last whole window).
///
/// # Errors
///
/// Never fails for valid RNG input; returns `Result` for API uniformity.
pub fn m18(classes: usize, rng: &mut Rng) -> Result<Model> {
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv1d::new(1, 64, 80, 4, 38, rng)), // 16000 -> 4000
        Box::new(ReLU::new()),
        Box::new(MaxPool1d::floor_mode(4)), // -> 1000
    ];
    let mut in_ch = 64;
    for &width in &[64usize, 128, 256, 512] {
        for _ in 0..4 {
            layers.push(Box::new(Conv1d::new(in_ch, width, 3, 1, 1, rng)));
            layers.push(Box::new(ReLU::new()));
            in_ch = width;
        }
        layers.push(Box::new(MaxPool1d::floor_mode(4)));
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Dense::he(512, classes, rng)));
    Ok(Model::new(layers))
}

/// Mini M18: the same stride-convolution → conv/pool groups → global pool →
/// linear shape at small widths, for `[n, 1, 256]` waveforms.
///
/// # Errors
///
/// Never fails for valid RNG input; returns `Result` for API uniformity.
pub fn m18_mini(classes: usize, rng: &mut Rng) -> Result<Model> {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv1d::new(1, 8, 8, 4, 2, rng)), // 256 -> 64
        Box::new(ReLU::new()),
        Box::new(MaxPool1d::new(4)), // -> 16
        Box::new(Conv1d::new(8, 16, 3, 1, 1, rng)),
        Box::new(ReLU::new()),
        Box::new(MaxPool1d::new(4)), // -> 4
        Box::new(Conv1d::new(16, 32, 3, 1, 1, rng)),
        Box::new(ReLU::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Dense::he(32, 48, rng)),
        Box::new(ReLU::new()),
        Box::new(Dense::he(48, classes, rng)),
    ];
    Ok(Model::new(layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_tensor::Rng;

    #[test]
    fn mlp_shapes_and_layer_count() {
        let mut rng = Rng::seed_from(0);
        let mut m = mlp(&[10, 20, 5], Activation::Tanh, &mut rng).unwrap();
        assert_eq!(m.num_trainable_layers(), 2);
        let x = rng.randn(&[3, 10]);
        assert_eq!(m.forward(&x, false).unwrap().shape(), &[3, 5]);
    }

    #[test]
    fn mlp_rejects_too_few_sizes() {
        let mut rng = Rng::seed_from(0);
        assert!(mlp(&[10], Activation::ReLU, &mut rng).is_err());
    }

    #[test]
    fn fcnn6_has_exactly_six_trainable_layers() {
        let mut rng = Rng::seed_from(1);
        let m = fcnn6(60, 10, 64, &mut rng).unwrap();
        assert_eq!(m.num_trainable_layers(), 6);
    }

    #[test]
    fn vgg11_mini_has_eight_convs_and_dense_head() {
        let mut rng = Rng::seed_from(2);
        let mut m = vgg11_mini(3, 8, &mut rng).unwrap();
        let convs = m.layer_names().iter().filter(|n| **n == "conv2d").count();
        assert_eq!(convs, 8);
        assert_eq!(m.num_trainable_layers(), 10); // 8 conv + 2 dense
        let x = rng.randn(&[2, 3, 16, 16]);
        assert_eq!(m.forward(&x, true).unwrap().shape(), &[2, 8]);
    }

    #[test]
    fn resnet_mini_forward_shape() {
        let mut rng = Rng::seed_from(3);
        let mut m = resnet_mini(3, 10, &mut rng).unwrap();
        let x = rng.randn(&[2, 3, 8, 8]);
        assert_eq!(m.forward(&x, true).unwrap().shape(), &[2, 10]);
    }

    #[test]
    fn m18_mini_forward_shape() {
        let mut rng = Rng::seed_from(4);
        let mut m = m18_mini(6, &mut rng).unwrap();
        let x = rng.randn(&[2, 1, 256]);
        assert_eq!(m.forward(&x, true).unwrap().shape(), &[2, 6]);
    }

    #[test]
    fn full_profiles_construct_with_paper_dimensions() {
        let mut rng = Rng::seed_from(5);
        let fcnn = fcnn_paper(600, 100, &mut rng).unwrap();
        assert_eq!(fcnn.num_trainable_layers(), 7);
        assert!(fcnn.param_count() > 10_000_000); // 600*4096 + 4096*2048 + ...

        let resnet = resnet20(3, 10, &mut rng).unwrap();
        // conv1 + bn1 + 9 blocks + final dense = 12 trainable units.
        assert_eq!(resnet.num_trainable_layers(), 12);
        // ResNet20 has ~0.27M parameters.
        let pc = resnet.param_count();
        assert!((200_000..400_000).contains(&pc), "param count {pc}");
    }

    #[test]
    fn full_resnet20_forward_on_cifar_shape() {
        let mut rng = Rng::seed_from(6);
        let mut m = resnet20(3, 10, &mut rng).unwrap();
        let x = rng.randn(&[1, 3, 32, 32]);
        assert_eq!(m.forward(&x, false).unwrap().shape(), &[1, 10]);
    }

    #[test]
    fn full_vgg11_constructs_and_checks_input() {
        let mut rng = Rng::seed_from(7);
        assert!(vgg11(3, 43, 31, &mut rng).is_err());
        let m = vgg11(3, 43, 32, &mut rng).unwrap();
        assert_eq!(m.num_trainable_layers(), 11); // 8 conv + 3 dense
        // Table 3's 48×48 GTSRB pools to 1×1: the head reads 512 features.
        let m = vgg11(3, 43, 48, &mut rng).unwrap();
        assert_eq!(m.param_count(), vgg11(3, 43, 32, &mut rng).unwrap().param_count());
    }

    #[test]
    fn full_m18_has_seventeen_convs() {
        let mut rng = Rng::seed_from(8);
        let m = m18(35, &mut rng).unwrap();
        let convs = m.layer_names().iter().filter(|n| **n == "conv1d").count();
        assert_eq!(convs, 17);
        let pc = m.param_count();
        // Paper reports 3.7M parameters for M18.
        assert!((3_000_000..4_500_000).contains(&pc), "param count {pc}");
    }
}

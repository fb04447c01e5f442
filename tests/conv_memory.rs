//! What a convolutional training step holds: no patch matrix is built or
//! cached, so the step's tensor peak is the activations, the layer caches
//! (an O(1) share of each conv input) and the gradients.
//!
//! One training step (forward, loss gradient, `Model::backward`) of
//! `vgg11_mini` and of `m18_mini` at batch 64, as a client runs it, under a
//! [`MemoryScope`]. The bounds are the peaks the implicit-GEMM lowering
//! reads, exactly: every tensor the step allocates has a shape-determined
//! size, and the kernels' packing scratch is not a tensor. A lowering that
//! materialises and caches the `[patch, n·oh·ow]` matrices reads 7,013,120 B
//! and 812,288 B on the same steps, with 4,626,432 and 2,048,000 `im2col`
//! bytes.

use dinar_nn::loss::CrossEntropyLoss;
use dinar_nn::{models, Model};
use dinar_tensor::alloc::MemoryScope;
use dinar_tensor::{profile, Rng, Tensor};

/// Peak extra tensor bytes of one batch-64 `vgg11_mini` training step.
const VGG11_MINI_STEP_PEAK: u64 = 2_835_200;
/// Peak extra tensor bytes of one batch-64 `m18_mini` training step.
const M18_MINI_STEP_PEAK: u64 = 649_472;

/// Peak extra tensor bytes of one step, and the `im2col` bytes it counted.
fn step(model: &mut Model, x: &Tensor, classes: usize) -> (u64, u64) {
    let labels: Vec<usize> = (0..x.shape()[0]).map(|i| i * 7 % classes).collect();
    let before = profile::snapshot();
    let scope = MemoryScope::enter();
    let logits = model.forward(x, true).expect("forward");
    let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels).expect("loss");
    drop(logits);
    model.backward(&grad).expect("backward");
    let peak = scope.peak_extra_bytes();
    (peak, profile::snapshot().delta_since(&before).im2col_bytes)
}

#[test]
fn vgg11_mini_step_builds_no_patch_matrix() {
    let mut rng = Rng::seed_from(3);
    let mut model = models::vgg11_mini(3, 43, &mut rng).expect("model");
    let x = rng.randn(&[64, 3, 16, 16]);
    let (peak, im2col) = step(&mut model, &x, 43);
    assert_eq!(im2col, 0, "a conv layer materialised a patch matrix");
    assert!(peak <= VGG11_MINI_STEP_PEAK, "step peak {peak} B > {VGG11_MINI_STEP_PEAK} B");
}

#[test]
fn m18_mini_step_builds_no_patch_matrix() {
    let mut rng = Rng::seed_from(4);
    let mut model = models::m18_mini(35, &mut rng).expect("model");
    let x = rng.randn(&[64, 1, 256]);
    let (peak, im2col) = step(&mut model, &x, 35);
    assert_eq!(im2col, 0, "a conv layer materialised a patch matrix");
    assert!(peak <= M18_MINI_STEP_PEAK, "step peak {peak} B > {M18_MINI_STEP_PEAK} B");
}

//! The backward contract: `Model::backward` stops at the first trainable
//! layer, `Model::backward_input` walks every layer, and the two leave
//! bit-identical parameter gradients.
//!
//! `backward` asks the first trainable layer only for `backward_params` and
//! skips the parameterless layers before it; nothing downstream may notice.
//! These tests pin that for each first-layer kind the model zoo has (Dense,
//! Conv2d, Conv1d, and a conv stem followed by residual blocks) at pool
//! widths 1/2/4, pin `backward_input` to the plain layer-by-layer walk, and
//! count the products a training step issues.
//!
//! The pool width and the kernel counters are process-global, so every test
//! here holds one lock.

use dinar_nn::activation::{ReLU, Tanh};
use dinar_nn::conv::{Conv2d, Flatten};
use dinar_nn::dense::Dense;
use dinar_nn::models::{self, Activation};
use dinar_nn::{Layer, Model, NnError};
use dinar_tensor::{par, profile, Rng, Tensor};
use std::sync::Mutex;

static GLOBALS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Every accumulated gradient of `model`, as bit patterns in layer order.
fn grad_bits(model: &Model) -> Vec<Vec<u32>> {
    model
        .layer_gradients()
        .iter()
        .flat_map(|layer| layer.tensors.iter().map(bits))
        .collect()
}

type Build = fn(&mut Rng) -> Model;

/// One model per first-trainable-layer kind, with its input shape.
fn zoo() -> [(&'static str, Build, Vec<usize>); 4] {
    [
        (
            "mlp",
            |rng| models::mlp(&[37, 29, 11], Activation::Tanh, rng).expect("mlp"),
            vec![5, 37],
        ),
        (
            "vgg11_mini",
            |rng| models::vgg11_mini(3, 10, rng).expect("vgg11_mini"),
            vec![3, 3, 16, 16],
        ),
        (
            "m18_mini",
            |rng| models::m18_mini(10, rng).expect("m18_mini"),
            vec![3, 1, 256],
        ),
        (
            "resnet_mini",
            |rng| models::resnet_mini(3, 10, rng).expect("resnet_mini"),
            vec![4, 3, 8, 8],
        ),
    ]
}

#[test]
fn backward_and_backward_input_leave_identical_parameter_gradients() {
    let _guard = lock();
    for (name, build, input_shape) in zoo() {
        let mut reference = None;
        for width in [1, 2, 4] {
            par::set_threads(width);
            let mut rng = Rng::seed_from(11);
            let mut model = build(&mut rng);
            let x = rng.randn(&input_shape);
            let logits = model.forward(&x, true).expect("forward");
            let g = rng.randn(logits.shape());

            model.backward(&g).expect("backward");
            let stopped = grad_bits(&model);

            model.zero_grad();
            model.forward(&x, true).expect("forward");
            let gx = model.backward_input(&g).expect("backward_input");
            assert_eq!(gx.shape(), x.shape(), "{name}: input gradient shape");
            assert_eq!(
                stopped,
                grad_bits(&model),
                "{name}: backward and backward_input disagree at {width} threads"
            );

            let result = (stopped, bits(&gx));
            match &reference {
                None => reference = Some(result),
                Some(first) => assert_eq!(first, &result, "{name} diverged at {width} threads"),
            }
        }
    }
    par::reset_threads();
}

/// A conv stem, a flatten bridge, two dense layers and both activations:
/// small enough to walk by hand, and its first layer overrides
/// `backward_params`.
fn small_stack(rng: &mut Rng) -> Vec<Box<dyn Layer>> {
    vec![
        Box::new(Conv2d::new(2, 3, 3, 1, 1, rng)),
        Box::new(ReLU::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::xavier(3 * 4 * 4, 6, rng)),
        Box::new(Tanh::new()),
        Box::new(Dense::xavier(6, 4, rng)),
    ]
}

#[test]
fn backward_input_is_the_plain_layer_by_layer_walk() {
    let _guard = lock();
    // What `Model::backward` was before it learned to stop: every layer's
    // full `backward`, last to first.
    let mut rng = Rng::seed_from(21);
    let mut layers = small_stack(&mut rng);
    let x = rng.randn(&[3, 2, 4, 4]);
    let g = rng.randn(&[3, 4]);
    let mut h = x.clone();
    for layer in &mut layers {
        h = layer.forward(&h, true).expect("forward");
    }
    let mut walked = g.clone();
    for layer in layers.iter_mut().rev() {
        walked = layer.backward(&walked).expect("backward");
    }
    let walked_grads: Vec<Vec<u32>> = layers
        .iter()
        .flat_map(|l| l.grads().into_iter().map(bits).collect::<Vec<_>>())
        .collect();

    let mut model = Model::new(small_stack(&mut Rng::seed_from(21)));
    assert_eq!(bits(&model.forward(&x, true).expect("forward")), bits(&h));
    let gx = model.backward_input(&g).expect("backward_input");
    assert_eq!(bits(&gx), bits(&walked));
    assert_eq!(grad_bits(&model), walked_grads);
}

#[test]
fn taps_are_unchanged_by_the_early_stop() {
    let _guard = lock();
    let mut rng = Rng::seed_from(31);
    let mut model = Model::new(small_stack(&mut rng));
    let x = rng.randn(&[2, 2, 4, 4]);
    let g = rng.randn(&[2, 4]);
    model.forward(&x, true).expect("forward");
    let taps = model.backward_with_taps(&g).expect("taps");
    let tapped = grad_bits(&model);
    assert_eq!(taps.len(), 3);
    assert_eq!(taps[0].shape(), &[2, 3, 4, 4], "δ entering the conv");
    assert_eq!(bits(&taps[2]), bits(&g), "δ entering the classifier is the loss gradient");

    model.zero_grad();
    model.forward(&x, true).expect("forward");
    model.backward_input(&g).expect("backward_input");
    assert_eq!(tapped, grad_bits(&model));
}

#[test]
fn an_l_layer_mlp_issues_3l_minus_1_products_per_step() {
    let _guard = lock();
    for sizes in [&[8usize, 4][..], &[8, 6, 4], &[8, 7, 6, 5, 4]] {
        let dense_layers = (sizes.len() - 1) as u64;
        let mut rng = Rng::seed_from(41);
        let mut model = models::mlp(sizes, Activation::Tanh, &mut rng).expect("mlp");
        let x = rng.randn(&[3, 8]);
        let g = rng.randn(&[3, 4]);

        let before = profile::snapshot();
        model.forward(&x, true).expect("forward");
        model.backward(&g).expect("backward");
        let step = profile::snapshot().delta_since(&before);
        // Forward: one product per layer. Backward: dW for every layer, dx
        // for every layer but the first.
        assert_eq!(step.matmul_calls, 3 * dense_layers - 1, "sizes {sizes:?}");

        let before = profile::snapshot();
        model.forward(&x, true).expect("forward");
        model.backward_input(&g).expect("backward_input");
        let full = profile::snapshot().delta_since(&before);
        assert_eq!(full.matmul_calls, 3 * dense_layers, "sizes {sizes:?}");
        assert_eq!(
            full.matmul_flops - step.matmul_flops,
            2 * 3 * 8 * sizes[1] as u64,
            "the skipped product is the first layer's dy·Wᵀ"
        );
    }
}

#[test]
fn backward_before_forward_is_an_error_through_every_entry_point() {
    let _guard = lock();
    let mut rng = Rng::seed_from(51);
    let g = Tensor::ones(&[1, 4]);
    let fresh = |rng: &mut Rng| Model::new(small_stack(rng));
    assert!(matches!(
        fresh(&mut rng).backward(&g),
        Err(NnError::BackwardBeforeForward { .. })
    ));
    assert!(matches!(
        fresh(&mut rng).backward_with_taps(&g),
        Err(NnError::BackwardBeforeForward { .. })
    ));
    assert!(matches!(
        fresh(&mut rng).backward_input(&g),
        Err(NnError::BackwardBeforeForward { .. })
    ));
    // A single-layer model: the only layer is the one `backward` asks for
    // `backward_params`, so the error must come from that path too.
    let mut one = models::mlp(&[3, 4], Activation::ReLU, &mut rng).expect("mlp");
    assert!(matches!(
        one.backward(&g),
        Err(NnError::BackwardBeforeForward { layer: "dense" })
    ));
}

#[test]
fn dense_weight_gradient_accumulates_in_place_and_equals_the_product_from_zero() {
    let _guard = lock();
    // Batch 70 with 300 inputs: a reduction longer than one 256-step block,
    // so the in-place chain also resumes across blocks.
    let mut rng = Rng::seed_from(61);
    let mut layer = Dense::xavier(300, 19, &mut rng);
    let x = rng.randn(&[70, 300]);
    let g = rng.randn(&[70, 19]);
    for width in [1, 2, 4] {
        par::set_threads(width);
        layer.zero_grad();
        layer.forward(&x, true).expect("forward");
        layer.backward(&g).expect("backward");
        // The product the gradient used to be added from: a chain resumed
        // from `+0.0` equals `0.0 + chain`.
        let product = x.t_matmul(&g).expect("t_matmul");
        let added = Tensor::zeros(&[300, 19]).add(&product).expect("add");
        assert_eq!(bits(layer.grads()[0]), bits(&product), "width {width}");
        assert_eq!(bits(layer.grads()[0]), bits(&added), "width {width}");
        // Without a zero in between, the second product's chains resume
        // from the first one's values.
        layer.backward(&g).expect("backward");
        let mut resumed = product.clone();
        resumed.add_t_matmul(&x, &g).expect("add_t_matmul");
        assert_eq!(bits(layer.grads()[0]), bits(&resumed), "width {width}");
    }
    par::reset_threads();
}

/// Everything before `.backward(` / `.backward_input(` on `line` that names
/// the receiver: `self.model` in `self.model.backward(&g)?;`.
fn backward_receiver(line: &str) -> Option<&str> {
    let call = line.find(".backward(").or_else(|| line.find(".backward_input("))?;
    let head = &line[..call];
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
        .map_or(0, |i| i + 1);
    Some(&head[start..])
}

#[test]
fn every_backward_caller_zeroes_its_gradients_first() {
    // Dense layers accumulate `dW` by resuming the product's chains from
    // the gradient they hold, which is the old `0.0 + xᵀ·dy` bit for bit
    // only on a zeroed gradient. So every model backward outside the layer
    // crates runs right after its receiver's `zero_grad()`.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dirs = [
        "crates/attacks/src",
        "crates/core/src",
        "crates/defenses/src",
        "crates/fl/src",
        "crates/bench/src/paper",
        "examples",
        "src",
    ];
    let mut callers = std::collections::BTreeSet::new();
    let mut pending = dirs.map(|d| root.join(d)).to_vec();
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                pending.push(path);
                continue;
            }
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file");
            let lines: Vec<&str> = text.lines().map(str::trim).collect();
            for (n, line) in lines.iter().enumerate() {
                let Some(receiver) = backward_receiver(line) else {
                    continue;
                };
                let file = path.strip_prefix(root).expect("under the root").display().to_string();
                let zeroed = format!("{receiver}.zero_grad();");
                assert!(
                    n > 0 && lines[n - 1] == zeroed,
                    "{file}:{}: `{line}` does not follow `{zeroed}`",
                    n + 1
                );
                callers.insert(file);
            }
        }
    }
    for file in [
        "crates/fl/src/client.rs",
        "crates/defenses/src/dpsgd.rs",
        "crates/core/src/init.rs",
        "crates/core/src/sensitivity.rs",
        "crates/attacks/src/shadow.rs",
        "crates/attacks/src/threshold.rs",
        "crates/attacks/src/gradient.rs",
        "crates/attacks/src/repair.rs",
        "crates/attacks/src/inversion.rs",
    ] {
        assert!(callers.contains(file), "no backward caller found in {file}");
    }
}

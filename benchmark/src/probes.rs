//! Standalone calls into single layers, on the workload's own model and
//! shapes. Each probe is timed by the `dinar-bench` harness
//! (`timing::bench`: warm-up, calibrated iteration count, median of the
//! samples) and reports seconds per call.

use crate::report::{Pass, Result};
use dinar::middleware::DinarMiddleware;
use dinar::DinarConfig;
use dinar_bench::timing::{bench, Config};
use dinar_consensus::network::{simulate_vote, NodeBehavior, SimConfig};
use dinar_defenses::dp::add_gaussian_noise;
use dinar_defenses::{
    CentralDp, DpOptimizer, DpParams, GradientCompression, SaGroup, SecureAggregation, WeakDp,
};
use dinar_fl::netsim::Codec;
use dinar_fl::{ClientMiddleware, ServerMiddleware};
use dinar_nn::loss::CrossEntropyLoss;
use dinar_nn::optim::{Adam, Optimizer};
use dinar_nn::snapshot::{decode_params, encode_params};
use dinar_nn::{Model, ModelParams};
use dinar_tensor::conv::{col2im2d, im2col2d, Conv2dGeom};
use dinar_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::Duration;

/// Seconds per call of `f`, median of 7 samples of ≥ 5 ms each.
fn seconds_per_call<T>(name: &str, f: impl FnMut() -> T) -> f64 {
    let config = Config {
        warmup: Duration::from_millis(10),
        samples: 7,
        target_sample: Duration::from_millis(5),
    };
    bench(name, &config, f).median_ns() / 1e9
}

/// The largest matrix products a workload's model issues per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelShape {
    /// A dense layer: forward `x·W`, backward `xᵀ·g` and `g·Wᵀ`.
    Dense {
        /// Batch rows.
        batch: usize,
        /// Input features.
        inputs: usize,
        /// Output features.
        outputs: usize,
    },
    /// A 3×3-style convolution lowered through im2col: forward `cols·Wᵀ`,
    /// backward `gᵀ·cols` and `g·W`, tall and skinny.
    Conv {
        /// Batch images.
        batch: usize,
        /// Input channels.
        channels: usize,
        /// Input height and width (stride 1, same padding).
        hw: usize,
        /// Kernel height and width.
        kernel: usize,
        /// Output channels.
        filters: usize,
    },
}

impl KernelShape {
    fn geom(self) -> Option<(usize, Conv2dGeom)> {
        match self {
            KernelShape::Dense { .. } => None,
            KernelShape::Conv {
                batch,
                channels,
                hw,
                kernel,
                ..
            } => Some((
                batch,
                Conv2dGeom {
                    channels,
                    height: hw,
                    width: hw,
                    kernel_h: kernel,
                    kernel_w: kernel,
                    stride: 1,
                    padding: kernel / 2,
                },
            )),
        }
    }
}

/// `tensor.{matmul,matmul_t,t_matmul}_gflops` at the workload's shape.
fn tensor(shape: KernelShape, seed: u64, pass: &mut Pass) {
    let mut rng = Rng::seed_from(seed);
    // (left operand, weight, output gradient) of the layer, and its m·k·n.
    let (a, w, g, mkn) = match shape {
        KernelShape::Dense {
            batch,
            inputs,
            outputs,
        } => (
            rng.randn(&[batch, inputs]),
            rng.randn(&[inputs, outputs]),
            rng.randn(&[batch, outputs]),
            batch * inputs * outputs,
        ),
        KernelShape::Conv {
            batch,
            channels,
            hw,
            kernel,
            filters,
        } => {
            let (rows, ck) = (batch * hw * hw, channels * kernel * kernel);
            (
                rng.randn(&[rows, ck]),
                rng.randn(&[filters, ck]),
                rng.randn(&[rows, filters]),
                rows * ck * filters,
            )
        }
    };
    let gflops = |seconds: f64| 2.0 * mkn as f64 / 1e9 / seconds;
    let dense = matches!(shape, KernelShape::Dense { .. });
    // Dense: x·W, g·Wᵀ, xᵀ·g. Conv: g·W, cols·Wᵀ, gᵀ·cols.
    let matmul = if dense {
        seconds_per_call("tensor.matmul", || a.matmul(&w))
    } else {
        seconds_per_call("tensor.matmul", || g.matmul(&w))
    };
    let matmul_t = if dense {
        seconds_per_call("tensor.matmul_t", || g.matmul_t(&w))
    } else {
        seconds_per_call("tensor.matmul_t", || a.matmul_t(&w))
    };
    let t_matmul = if dense {
        seconds_per_call("tensor.t_matmul", || a.t_matmul(&g))
    } else {
        seconds_per_call("tensor.t_matmul", || g.t_matmul(&a))
    };
    pass.metric("tensor.matmul_gflops", gflops(matmul));
    pass.metric("tensor.matmul_t_gflops", gflops(matmul_t));
    pass.metric("tensor.t_matmul_gflops", gflops(t_matmul));
}

/// `tensor.im2col_s` / `tensor.col2im_s` at the first conv shape; 0 for a
/// model without convolutions.
fn lowering(shape: KernelShape, seed: u64, pass: &mut Pass) -> Result<()> {
    let (im2col, col2im) = match shape.geom() {
        None => (0.0, 0.0),
        Some((batch, geom)) => {
            let input =
                Rng::seed_from(seed).randn(&[batch, geom.channels, geom.height, geom.width]);
            let cols = im2col2d(&input, &geom)?;
            (
                seconds_per_call("tensor.im2col", || im2col2d(&input, &geom)),
                seconds_per_call("tensor.col2im", || col2im2d(&cols, batch, &geom)),
            )
        }
    };
    pass.metric("tensor.im2col_s", im2col);
    pass.metric("tensor.col2im_s", col2im);
    Ok(())
}

/// `tensor.fill_normal_ns_per_elem` over a buffer the size of a large update.
fn fill_normal(seed: u64, pass: &mut Pass) {
    let mut rng = Rng::seed_from(seed);
    let mut buffer = vec![0.0f32; 1 << 18];
    let seconds = seconds_per_call("tensor.fill_normal", || rng.fill_normal(&mut buffer));
    black_box(&buffer);
    pass.metric(
        "tensor.fill_normal_ns_per_elem",
        seconds * 1e9 / buffer.len() as f64,
    );
}

/// A batch of `n` standard-normal samples shaped for `model`'s dataset.
fn batch(sample_shape: &[usize], classes: usize, n: usize, rng: &mut Rng) -> (Tensor, Vec<usize>) {
    let mut shape = vec![n];
    shape.extend_from_slice(sample_shape);
    (rng.randn(&shape), (0..n).map(|i| i % classes).collect())
}

/// Fills `model`'s gradients from one batch of 64 and returns the batch.
fn accumulate_grads(
    model: &mut Model,
    sample_shape: &[usize],
    classes: usize,
    rng: &mut Rng,
) -> Result<(Tensor, Vec<usize>, Tensor)> {
    let (x, labels) = batch(sample_shape, classes, 64, rng);
    let logits = model.forward(&x, true)?;
    let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels)?;
    model.zero_grad();
    model.backward(&grad)?;
    Ok((x, labels, grad))
}

/// `nn.*`: forward, backward and optimizer step on one batch of 64, an
/// inference batch of 200, and the whole-model codecs.
fn nn(
    mut model: Model,
    mut optimizer: Box<dyn Optimizer>,
    sample_shape: &[usize],
    classes: usize,
    seed: u64,
    pass: &mut Pass,
) -> Result<()> {
    let mut rng = Rng::seed_from(seed);
    let (x, _, grad) = accumulate_grads(&mut model, sample_shape, classes, &mut rng)?;
    let forward = seconds_per_call("nn.forward", || model.forward(&x, true));
    let backward = seconds_per_call("nn.backward", || {
        model.zero_grad();
        model.backward(&grad)
    });
    let step = seconds_per_call("nn.optim_step", || optimizer.step(&mut model));
    let (x_eval, _) = batch(sample_shape, classes, 200, &mut rng);
    let eval = seconds_per_call("nn.forward_eval", || model.forward(&x_eval, false));
    pass.metric("nn.forward_s", forward);
    pass.metric("nn.backward_s", backward);
    pass.metric("nn.optim_step_s", step);
    pass.metric("nn.bwd_fwd_ratio", backward / forward);
    pass.metric("nn.param_count", model.param_count() as f64);
    pass.metric("nn.forward_eval_s", eval);

    let params = model.params();
    let codecs = [Codec::F32, Codec::QuantI8, Codec::Sign1];
    let mut frames = Vec::with_capacity(codecs.len());
    for (codec, name) in codecs.into_iter().zip([
        "nn.encode_f32_s",
        "nn.encode_quant_i8_s",
        "nn.encode_sign1_s",
    ]) {
        frames.push(encode_params(&params, codec)?);
        pass.metric(
            name,
            seconds_per_call(name, || encode_params(&params, codec)),
        );
    }
    for (frame, name) in frames.iter().zip([
        "nn.decode_f32_s",
        "nn.decode_quant_i8_s",
        "nn.decode_sign1_s",
    ]) {
        pass.metric(name, seconds_per_call(name, || decode_params(frame)));
    }
    Ok(())
}

/// A plausible post-training model: `global` plus small noise, so update
/// transforms see a non-zero delta.
fn trained_from(global: &ModelParams, seed: u64) -> ModelParams {
    let mut trained = global.share();
    add_gaussian_noise(&mut trained, 0.01, &mut Rng::seed_from(seed ^ 0x7A11));
    trained
}

/// Seconds per `transform_upload` of `mw` on a trained copy of `global`.
fn upload_seconds(
    name: &str,
    mw: &mut dyn ClientMiddleware,
    global: &ModelParams,
    trained: &ModelParams,
) -> Result<f64> {
    mw.transform_download(0, &mut global.share())?;
    let mut outcome = Ok(());
    let seconds = seconds_per_call(name, || {
        let mut upload = trained.share();
        if let Err(e) = mw.transform_upload(0, &mut upload) {
            outcome = Err(e);
        }
        upload
    });
    outcome?;
    Ok(seconds)
}

/// `defenses.{wdp,gc,sa}.upload_s` and `defenses.cdp.aggregate_s`: one
/// transform on the workload's model.
fn defenses(global: &ModelParams, clients: usize, seed: u64, pass: &mut Pass) -> Result<()> {
    let trained = trained_from(global, seed);
    let mut wdp = WeakDp::paper_default(Rng::seed_from(seed));
    let mut gc = GradientCompression::new(0.1).with_error_feedback(false);
    let mut sa =
        SecureAggregation::new(SaGroup::from_sample_counts(&vec![64; clients], seed ^ 0x5A));
    pass.metric(
        "defenses.wdp.upload_s",
        upload_seconds("defenses.wdp.upload", &mut wdp, global, &trained)?,
    );
    pass.metric(
        "defenses.gc.upload_s",
        upload_seconds("defenses.gc.upload", &mut gc, global, &trained)?,
    );
    pass.metric(
        "defenses.sa.upload_s",
        upload_seconds("defenses.sa.upload", &mut sa, global, &trained)?,
    );
    let mut cdp = CentralDp::new(DpParams::paper_default(), 1, Rng::seed_from(seed ^ 0xCD));
    let mut outcome = Ok(());
    let seconds = seconds_per_call("defenses.cdp.aggregate", || {
        let mut aggregate = trained.share();
        if let Err(e) = cdp.transform_aggregate(&mut aggregate) {
            outcome = Err(e);
        }
        aggregate
    });
    outcome?;
    pass.metric("defenses.cdp.aggregate_s", seconds);
    Ok(())
}

/// `defenses.ldp.step_s` and its ratio to a bare Adam step, on gradients of
/// one batch of 64.
fn ldp_step(
    mut model: Model,
    sample_shape: &[usize],
    classes: usize,
    seed: u64,
    pass: &mut Pass,
) -> Result<()> {
    let mut rng = Rng::seed_from(seed);
    accumulate_grads(&mut model, sample_shape, classes, &mut rng)?;
    let mut bare = Adam::new(1e-3);
    let mut private = DpOptimizer::new(
        Box::new(Adam::new(1e-3)),
        DpParams::paper_default().with_epsilon(2.2),
        Rng::seed_from(seed ^ 0xD9),
    )
    .with_amortization_over(2);
    let bare_s = seconds_per_call("nn.adam_step", || bare.step(&mut model));
    let private_s = seconds_per_call("defenses.ldp.step", || private.step(&mut model));
    pass.metric("defenses.ldp.step_s", private_s);
    pass.metric("defenses.ldp.step_overhead_ratio", private_s / bare_s);
    Ok(())
}

/// `core.personalize_s` / `core.obfuscate_s`: `DinarMiddleware`'s download
/// and upload hooks on the penultimate layer of the workload's model.
fn dinar(global: &ModelParams, seed: u64, pass: &mut Pass) -> Result<()> {
    let trained = trained_from(global, seed);
    let layer = global.num_layers().saturating_sub(2);
    let mut mw = DinarMiddleware::new(layer, DinarConfig::default(), seed);
    let obfuscate = upload_seconds("core.obfuscate", &mut mw, global, &trained)?;
    // The upload above stored the private layer the download hook restores.
    let mut outcome = Ok(());
    let personalize = seconds_per_call("core.personalize", || {
        let mut download = global.share();
        if let Err(e) = mw.transform_download(0, &mut download) {
            outcome = Err(e);
        }
        download
    });
    outcome?;
    pass.metric("core.personalize_s", personalize);
    pass.metric("core.obfuscate_s", obfuscate);
    Ok(())
}

/// `consensus.vote_s`: a 5-node `simulate_vote` with one Byzantine node.
fn consensus(seed: u64, pass: &mut Pass) -> Result<()> {
    let mut behaviors = vec![NodeBehavior::Honest { proposal: 4 }; 4];
    behaviors.push(NodeBehavior::byzantine_random());
    let config = SimConfig {
        num_choices: 6,
        seed,
    };
    simulate_vote(&behaviors, &config)?;
    let seconds = seconds_per_call("consensus.vote", || simulate_vote(&behaviors, &config));
    pass.metric("consensus.vote_s", seconds);
    Ok(())
}

/// What the standalone probes need to know about a workload.
pub struct Subject<'a> {
    /// The largest matrix products the model issues per batch.
    pub kernel: KernelShape,
    /// Builds the workload's model.
    pub model: &'a dyn Fn() -> dinar_nn::Result<Model>,
    /// The workload's bare optimizer.
    pub optimizer: Box<dyn Optimizer>,
    /// Shape of one input sample.
    pub sample_shape: &'a [usize],
    /// Number of classes.
    pub classes: usize,
    /// A global model the workload trained.
    pub global: &'a ModelParams,
    /// Clients in the workload's federation.
    pub clients: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Runs every standalone probe on `subject`.
pub fn run_all(subject: Subject<'_>, pass: &mut Pass) -> Result<()> {
    let Subject {
        kernel,
        model,
        optimizer,
        sample_shape,
        classes,
        global,
        clients,
        seed,
    } = subject;
    tensor(kernel, seed, pass);
    lowering(kernel, seed, pass)?;
    fill_normal(seed, pass);
    nn(model()?, optimizer, sample_shape, classes, seed, pass)?;
    defenses(global, clients, seed, pass)?;
    ldp_step(model()?, sample_shape, classes, seed, pass)?;
    dinar(global, seed, pass)?;
    consensus(seed, pass)
}

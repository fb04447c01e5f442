//! Which layer of your model leaks membership? Runs the paper's §3
//! layer-sensitivity analysis on a freshly trained audio classifier (the
//! Speech Commands scenario) and prints the divergence profile.
//!
//! ```text
//! cargo run --release --example layer_sensitivity
//! ```

use dinar_suite::core::sensitivity::{layer_divergences, SensitivityConfig};
use dinar_suite::data::catalog::{self, Profile};
use dinar_suite::data::split::attack_split;
use dinar_suite::nn::loss::CrossEntropyLoss;
use dinar_suite::nn::models;
use dinar_suite::nn::optim::{Adagrad, Optimizer};
use dinar_suite::tensor::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(5);
    let entry = catalog::speech_commands(Profile::Mini);
    let dataset = entry.generate(&mut rng)?;
    let split = attack_split(&dataset, &mut rng)?;
    let members = split.train.subset(&(0..256).collect::<Vec<_>>())?;

    // Train the M18-style waveform classifier until it overfits a little —
    // a model with no generalization gap has nothing to leak.
    let mut model = models::m18_mini(entry.spec.num_classes, &mut rng)?;
    let mut opt = Adagrad::new(0.05);
    let loss_fn = CrossEntropyLoss;
    for epoch in 0..40 {
        let mut total = 0.0;
        let mut batches = 0;
        for idx in members.batch_indices(32, &mut rng) {
            let batch = members.batch(&idx)?;
            let logits = model.forward(&batch.features, true)?;
            let (loss, grad) = loss_fn.loss_and_grad(&logits, &batch.labels)?;
            model.zero_grad();
            model.backward(&grad)?;
            opt.step(&mut model)?;
            total += loss;
            batches += 1;
        }
        if epoch % 10 == 0 {
            println!("epoch {epoch:>2}: loss {:.3}", total / batches as f32);
        }
    }
    let train_batch = members.full_batch()?;
    let test_batch = split.test.full_batch()?;
    println!(
        "\ntrain accuracy {:.1}% vs test accuracy {:.1}% — the gap is what leaks",
        model.accuracy(&train_batch.features, &train_batch.labels)? * 100.0,
        model.accuracy(&test_batch.features, &test_batch.labels)? * 100.0
    );

    // The §3 analysis: JS divergence between member and non-member gradient
    // distributions, per trainable layer.
    let divergences = layer_divergences(
        &mut model,
        &members,
        &split.test,
        &SensitivityConfig::default(),
        &mut rng,
    )?;
    println!("\nper-layer membership-leakage profile:");
    for (i, d) in divergences.iter().enumerate() {
        println!(
            "  layer {i}: {d:.4} {}",
            "#".repeat((d * 100.0).round() as usize)
        );
    }
    let p = divergences
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    println!("\nDINAR would propose protecting layer {p} for this client");
    Ok(())
}

//! EXTENSION (paper §6 future work): DINAR's resilience against **model
//! inversion**.
//!
//! The attacker inverts the model for each class (gradient ascent on the
//! class logit) and we measure the cosine similarity between the
//! reconstruction and the ground-truth class prototype — known exactly
//! because our data is synthetic. Compared across the undefended global
//! model, a client upload under DINAR, and DINAR's obfuscated global model.

use dinar_attacks::inversion::{cosine_similarity, invert_class, InversionConfig};
use dinar_bench::harness::{model_for, prepare, train_defense, Defense, ExperimentSpec};
use dinar_bench::report;
use dinar_data::catalog::{self, Profile};
use dinar_data::Dataset;
use dinar_nn::ModelParams;
use dinar_tensor::{Rng, Tensor, TensorError};
use dinar_bench::impl_to_json;


struct InversionRow {
    target: String,
    mean_prototype_similarity: f64,
}

impl_to_json!(InversionRow { target, mean_prototype_similarity });

/// Estimates each class's prototype as the mean of its training samples.
fn class_prototypes(data: &Dataset) -> Result<Vec<Tensor>, TensorError> {
    let d = data.feature_len();
    let mut sums = vec![vec![0.0f32; d]; data.num_classes()];
    let mut counts = vec![0usize; data.num_classes()];
    let x = data.features().as_slice();
    for (i, &label) in data.labels().iter().enumerate() {
        for j in 0..d {
            sums[label][j] += x[i * d + j];
        }
        counts[label] += 1;
    }
    sums.into_iter()
        .zip(counts)
        .map(|(s, c)| {
            Tensor::from_vec(
                s.into_iter().map(|v| v / c.max(1) as f32).collect(),
                &[d],
            )
        })
        .collect()
}

fn mean_similarity(
    target: &ModelParams,
    entry: &dinar_data::catalog::CatalogEntry,
    prototypes: &[Tensor],
    sample_shape: &[usize],
    classes: usize,
) -> Result<f64, Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(0xEE);
    let mut template = model_for(entry, &mut rng)?;
    let mut total = 0.0f64;
    for class in 0..classes {
        let inv = invert_class(
            target,
            &mut template,
            sample_shape,
            class,
            &InversionConfig::default(),
        )?;
        total += cosine_similarity(&inv.flatten(), &prototypes[class].flatten()) as f64;
    }
    Ok(total / classes as f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ExperimentSpec::mini_default(catalog::purchase100(Profile::Mini));
    let entry = spec.entry.clone();
    let env = prepare(spec)?;
    let prototypes = class_prototypes(&env.split.train)?;
    let sample_shape = env.split.train.sample_shape().to_vec();
    // Invert a subset of classes for speed (prototype structure is i.i.d.).
    let classes = 10usize;

    println!("EXTENSION — model inversion vs DINAR (Purchase100, 10 classes)\n");
    let mut rows = Vec::new();
    for (label, defense) in [
        ("no defense".to_string(), Defense::None),
        ("DINAR".to_string(), Defense::dinar(env.dinar_layer)),
    ] {
        let run = train_defense(&env, &defense)?;
        // Invert the global model and the first client upload.
        for (what, params) in [
            ("global model", run.system.global_params().clone()),
            ("client upload", run.uploads[0].clone()),
        ] {
            let sim = mean_similarity(&params, &entry, &prototypes, &sample_shape, classes)?;
            let name = format!("{label} / {what}");
            println!("  {name:<28} mean prototype similarity {sim:>6.3}");
            rows.push(InversionRow {
                target: name,
                mean_prototype_similarity: sim,
            });
        }
    }
    println!("\n(higher similarity = more training-data structure reconstructable)");
    let path = report::write_json("ext_inversion", &rows)?;
    println!("wrote {}", path.display());
    Ok(())
}

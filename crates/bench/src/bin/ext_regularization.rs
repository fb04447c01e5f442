//! EXTENSION: implicit regularization (dropout) as an MIA mitigation,
//! compared against DINAR on Purchase100.
//!
//! Dropout shrinks the generalization gap that membership inference feeds
//! on, so it partially mitigates MIAs "for free" — but, unlike DINAR, it
//! cannot reach the 50% optimum (the model still memorizes what it fits)
//! and it costs accuracy on hard tasks. This experiment quantifies that
//! comparison, complementing the paper's explicit-defense lineup.

use dinar_attacks::evaluate_attack;
use dinar_attacks::threshold::LossThresholdAttack;
use dinar_bench::harness::{prepare, run_defense, Defense, ExperimentSpec};
use dinar_bench::report;
use dinar_data::catalog::{self, Profile};
use dinar_data::Dataset;
use dinar_fl::{FlConfig, FlSystem};
use dinar_nn::activation::Tanh;
use dinar_nn::dense::Dense;
use dinar_nn::dropout::Dropout;
use dinar_nn::optim::Adagrad;
use dinar_nn::{Layer, Model};
use dinar_tensor::Rng;
use dinar_bench::impl_to_json;


struct RegRow {
    configuration: String,
    local_auc_pct: f64,
    accuracy_pct: f64,
}

impl_to_json!(RegRow { configuration, local_auc_pct, accuracy_pct });

/// The 6-layer FCNN with dropout after every hidden activation.
fn fcnn_with_dropout(p: f32, rng: &mut Rng) -> dinar_nn::Result<Model> {
    let widths = [600usize, 64, 48, 32, 24, 16];
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for w in widths.windows(2) {
        layers.push(Box::new(Dense::xavier(w[0], w[1], rng)));
        layers.push(Box::new(Tanh::new()));
        if p > 0.0 {
            layers.push(Box::new(Dropout::new(p, rng.split(0xD0))));
        }
    }
    layers.push(Box::new(Dense::xavier(16, 100, rng)));
    Ok(Model::new(layers))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ExperimentSpec::mini_default(catalog::purchase100(Profile::Mini));
    let mut env = prepare(spec)?;
    let mut rows = Vec::new();
    println!("EXTENSION — dropout regularization vs DINAR (Purchase100)\n");
    println!("  configuration   | local AUC | accuracy");

    // Baseline + DINAR via the standard harness.
    let p = env.dinar_layer;
    for defense in [Defense::None, Defense::dinar(p)] {
        let o = run_defense(&mut env, &defense)?;
        println!(
            "  {:<15} | {:>8.1}% | {:>7.1}%",
            o.defense, o.local_auc_pct, o.accuracy_pct
        );
        rows.push(RegRow {
            configuration: o.defense,
            local_auc_pct: o.local_auc_pct,
            accuracy_pct: o.accuracy_pct,
        });
    }

    // Dropout variants: same FL setup with a dropout-equipped architecture.
    for drop_p in [0.25f32, 0.5] {
        let spec = &env.spec;
        let mut system = FlSystem::builder(FlConfig {
            local_epochs: spec.local_epochs,
            batch_size: spec.batch_size,
            seed: spec.seed,
        })
        .clients_from_shards(
            env.shards.clone(),
            move |rng| fcnn_with_dropout(drop_p, rng),
            |_| Box::new(Adagrad::new(0.05)),
        )?
        .build()?;
        system.run(spec.rounds)?;
        let global = system.global_params().clone();
        let mut local_sum = 0.0;
        let mut rng = Rng::seed_from(7);
        let mut template = fcnn_with_dropout(drop_p, &mut rng)?;
        let cap = |d: &Dataset| d.subset(&(0..d.len().min(200)).collect::<Vec<_>>());
        let nonmembers = cap(&env.split.test)?;
        let mut uploads = Vec::new();
        for client in system.clients_mut() {
            client.receive_global(&global)?;
            client.train_local()?;
            uploads.push(client.produce_update()?.params);
        }
        for (client, upload) in system.clients().iter().zip(&uploads) {
            let members = cap(client.data())?;
            local_sum += evaluate_attack(
                &mut LossThresholdAttack,
                upload,
                &mut template,
                &members,
                &nonmembers,
            )?
            .auc;
        }
        let local_auc = local_sum / uploads.len() as f64 * 100.0;
        let acc = system.mean_client_accuracy(&env.split.test)? as f64 * 100.0;
        let name = format!("dropout p={drop_p}");
        println!("  {name:<15} | {local_auc:>8.1}% | {acc:>7.1}%");
        rows.push(RegRow {
            configuration: name,
            local_auc_pct: local_auc,
            accuracy_pct: acc,
        });
    }
    let path = report::write_json("ext_regularization", &rows)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

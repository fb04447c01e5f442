//! Quickstart: train a small cross-silo FL system, attack it with a
//! membership inference attack, then attach DINAR and attack again.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dinar_suite::attacks::evaluate_attack;
use dinar_suite::attacks::threshold::LossThresholdAttack;
use dinar_suite::core::middleware::DinarMiddleware;
use dinar_suite::core::DinarConfig;
use dinar_suite::data::catalog::{self, Profile};
use dinar_suite::data::partition::{partition_dataset, Distribution};
use dinar_suite::data::split::attack_split;
use dinar_suite::fl::{FlConfig, FlSystem};
use dinar_suite::nn::{models, optim::Adagrad};
use dinar_suite::tensor::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(7);

    // 1. Synthesize a Purchase100-like dataset and apply the paper's split:
    //    half to the attacker, then 80/20 train/test.
    let dataset = catalog::purchase100(Profile::Mini).generate(&mut rng)?;
    let split = attack_split(&dataset, &mut rng)?;
    println!(
        "dataset: {} samples -> attacker {}, train {}, test {}",
        dataset.len(),
        split.attacker.len(),
        split.train.len(),
        split.test.len()
    );

    // 2. Partition the training pool across 5 clients and run undefended FL.
    let shards = partition_dataset(&split.train, 5, Distribution::Iid, &mut rng)?;
    let config = FlConfig {
        local_epochs: 5,
        batch_size: 64,
        seed: 7,
    };
    let arch = |rng: &mut Rng| models::fcnn6(600, 100, 64, rng);
    let mut undefended = FlSystem::builder(config)
        .clients_from_shards(shards.clone(), arch, |_| Box::new(Adagrad::new(0.05)))?
        .build()?;
    undefended.run(8)?;
    let accuracy = undefended.mean_client_accuracy(&split.test)?;

    // 3. Attack the global model with the loss-threshold MIA.
    let mut template = arch(&mut rng)?;
    let members = split.train.subset(&(0..200).collect::<Vec<_>>())?;
    let result = evaluate_attack(
        &mut LossThresholdAttack,
        undefended.global_params(),
        &mut template,
        &members,
        &split.test,
    )?;
    println!(
        "undefended: accuracy {:.1}%, attack AUC {:.1}% (50% is optimal privacy)",
        accuracy * 100.0,
        result.auc * 100.0
    );

    // 4. Same system with the DINAR middleware protecting the penultimate
    //    layer — uploads are obfuscated, clients keep personalized models.
    let private_layer = template.num_trainable_layers() - 2;
    let dinar_config = DinarConfig::default();
    let mut defended = FlSystem::builder(config)
        .clients_from_shards(shards, arch, |_| Box::new(Adagrad::new(0.05)))?
        .with_client_middleware(|id| {
            vec![Box::new(DinarMiddleware::new(
                private_layer,
                dinar_config,
                id as u64,
            ))]
        })
        .build()?;
    defended.run(8)?;
    let accuracy = defended.mean_client_accuracy(&split.test)?;
    let result = evaluate_attack(
        &mut LossThresholdAttack,
        defended.global_params(),
        &mut template,
        &members,
        &split.test,
    )?;
    println!(
        "with DINAR: accuracy {:.1}%, attack AUC {:.1}%",
        accuracy * 100.0,
        result.auc * 100.0
    );
    Ok(())
}

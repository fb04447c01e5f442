//! Cross-silo FL among banks (the paper's fraud-detection motivation):
//! compare what a curious aggregation server learns about each bank's
//! customers under no defense, secure aggregation, and DINAR.
//!
//! ```text
//! cargo run --release --example banking_defense_comparison
//! ```

use dinar_suite::attacks::evaluate_attack;
use dinar_suite::attacks::threshold::LossThresholdAttack;
use dinar_suite::core::middleware::DinarMiddleware;
use dinar_suite::core::DinarConfig;
use dinar_suite::data::catalog::{self, Profile};
use dinar_suite::data::partition::{partition_dataset, Distribution};
use dinar_suite::data::split::attack_split;
use dinar_suite::defenses::{SaGroup, SecureAggregation};
use dinar_suite::fl::{ClientMiddleware, FlConfig, FlSystem};
use dinar_suite::nn::{models, optim::Adagrad, Model};
use dinar_suite::tensor::Rng;
use std::sync::Arc;

enum Setup {
    NoDefense,
    SecureAggregation,
    Dinar,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(77);
    let banks = 5;

    // Purchase100-like transaction records (600 binary features).
    let dataset = catalog::purchase100(Profile::Mini).generate(&mut rng)?;
    let split = attack_split(&dataset, &mut rng)?;
    let shards = partition_dataset(&split.train, banks, Distribution::Iid, &mut rng)?;
    let arch =
        |rng: &mut Rng| -> dinar_suite::nn::Result<Model> { models::fcnn6(600, 100, 64, rng) };

    println!("5 banks, {} transactions each (approx.)\n", shards[0].len());
    println!("  setup       | server attack AUC on a bank's upload | bank accuracy");

    for setup in [Setup::NoDefense, Setup::SecureAggregation, Setup::Dinar] {
        let counts: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let mut builder = FlSystem::builder(FlConfig {
            local_epochs: 5,
            batch_size: 64,
            seed: 3,
        })
        .clients_from_shards(shards.clone(), arch, |_| Box::new(Adagrad::new(0.05)))?;
        let label = match setup {
            Setup::NoDefense => "no defense",
            Setup::SecureAggregation => {
                let group = SaGroup::from_sample_counts(&counts, 9);
                builder = builder.with_client_middleware(move |_| {
                    vec![Box::new(SecureAggregation::new(Arc::clone(&group)))
                        as Box<dyn ClientMiddleware>]
                });
                "secure agg."
            }
            Setup::Dinar => {
                let config = DinarConfig::default();
                builder = builder.with_client_middleware(move |id| {
                    vec![Box::new(DinarMiddleware::new(4, config, id as u64))
                        as Box<dyn ClientMiddleware>]
                });
                "DINAR"
            }
        };
        let mut system = builder.build()?;
        system.run(10)?;

        // The curious server intercepts bank 0's next upload and runs a MIA
        // against that bank's customers.
        let global = system.global_params().share();
        let bank = &mut system.clients_mut()[0];
        bank.receive_global(&global)?;
        bank.train_local()?;
        let upload = bank.produce_update()?.params;
        let bank_members = bank.data().clone();

        let mut template = arch(&mut rng)?;
        let attack = evaluate_attack(
            &mut LossThresholdAttack,
            &upload,
            &mut template,
            &bank_members,
            &split.test,
        )?;
        let accuracy = system.mean_client_accuracy(&split.test)?;
        println!(
            "  {label:<11} | {:>35.1}% | {:>12.1}%",
            attack.auc * 100.0,
            accuracy * 100.0
        );
    }
    println!("\n(50% attack AUC means the server learns nothing about membership)");
    Ok(())
}

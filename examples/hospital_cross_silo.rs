//! Cross-silo FL among hospitals (the paper's Texas100 scenario): five
//! hospitals with heterogeneous (non-IID) patient populations train a
//! procedure classifier without sharing records, and agree via the
//! Byzantine-tolerant DINAR initialization vote on which layer to protect —
//! even with one malicious hospital in the vote.
//!
//! ```text
//! cargo run --release --example hospital_cross_silo
//! ```

use dinar_suite::core::init::{agree_on_layer, InitConfig};
use dinar_suite::core::middleware::DinarMiddleware;
use dinar_suite::core::DinarConfig;
use dinar_suite::data::catalog::{self, Profile};
use dinar_suite::data::partition::{partition_dataset, Distribution};
use dinar_suite::data::split::attack_split;
use dinar_suite::fl::{FlConfig, FlSystem};
use dinar_suite::nn::{models, optim::Adagrad};
use dinar_suite::tensor::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(2024);
    let hospitals = 5;

    // Texas100-like hospital discharge records (500 binary features, 100
    // procedure classes in the mini profile).
    let entry = catalog::texas100(Profile::Mini);
    let features = entry.spec.modality.feature_len();
    let classes = entry.spec.num_classes;
    let dataset = entry.generate(&mut rng)?;
    let split = attack_split(&dataset, &mut rng)?;

    // Hospitals serve different populations: Dirichlet(2) non-IID shards.
    let shards = partition_dataset(
        &split.train,
        hospitals,
        Distribution::Dirichlet(2.0),
        &mut rng,
    )?;
    for (i, shard) in shards.iter().enumerate() {
        let hist = shard.class_histogram();
        let top = hist.iter().enumerate().max_by_key(|(_, &c)| c).unwrap();
        println!(
            "hospital {i}: {} records, most common procedure class {} ({} records)",
            shard.len(),
            top.0,
            top.1
        );
    }

    // DINAR initialization: every hospital probes its own data for the most
    // privacy-sensitive layer, then all vote. Hospital 4 is Byzantine.
    let arch = move |rng: &mut Rng| models::fcnn6(features, classes, 64, rng);
    let client_data: Vec<_> = shards
        .iter()
        .map(|shard| {
            let mut r = rng.split(shard.len() as u64);
            let (members, held_out) = shard.split_fraction(0.8, &mut r).expect("non-empty shard");
            (members, held_out)
        })
        .collect();
    let init = InitConfig {
        warmup_epochs: 10,
        ..InitConfig::default()
    };
    let voted_layer = agree_on_layer(&client_data, arch, &[4], &init)?;
    println!("\nconsensus (with 1 Byzantine hospital): protect layer {voted_layer}");

    // Federated training with DINAR protecting the agreed layer.
    let dinar_config = DinarConfig::default();
    let mut system = FlSystem::builder(FlConfig {
        local_epochs: 5,
        batch_size: 64,
        seed: 11,
    })
    .clients_from_shards(shards, arch, |_| Box::new(Adagrad::new(0.05)))?
    .with_client_middleware(|id| {
        vec![Box::new(DinarMiddleware::new(
            voted_layer,
            dinar_config,
            id as u64,
        ))]
    })
    .build()?;

    for report in system.run(10)? {
        if report.round % 5 == 0 || report.round == 1 {
            println!(
                "round {:>2}: mean training loss {:.3}",
                report.round, report.mean_train_loss
            );
        }
    }
    let accuracy = system.mean_client_accuracy(&split.test)?;
    println!(
        "\nmean personalized accuracy across hospitals: {:.1}% ({} classes)",
        accuracy * 100.0,
        classes
    );
    println!("every upload left each hospital with layer {voted_layer} obfuscated");
    Ok(())
}

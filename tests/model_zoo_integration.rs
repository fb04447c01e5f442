//! Every dataset of the paper's Table 2 runs end-to-end through its
//! designated mini-profile model inside the FL engine, and every full
//! Table 2 pairing (paper-sized model on the paper-sized sample) takes one
//! training step.

use dinar_data::catalog::{self, CatalogEntry, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_data::split::attack_split;
use dinar_data::synth::Modality;
use dinar_fl::{FlConfig, FlSystem};
use dinar_nn::loss::CrossEntropyLoss;
use dinar_nn::{models, optim::Sgd, Model};
use dinar_tensor::Rng;

fn model_for(entry: &CatalogEntry, rng: &mut Rng) -> dinar_nn::Result<Model> {
    let classes = entry.spec.num_classes;
    match entry.name() {
        "cifar10" | "cifar100" => models::resnet_mini(3, classes, rng),
        "gtsrb" => models::vgg11_mini(3, classes, rng),
        "celeba" => models::vgg11_mini(1, classes, rng),
        "speech_commands" => models::m18_mini(classes, rng),
        _ => models::fcnn6(entry.spec.modality.feature_len(), classes, 48, rng),
    }
}

fn one_round(entry: CatalogEntry) {
    let name = entry.name().to_string();
    let mut rng = Rng::seed_from(17);
    let dataset = entry.generate(&mut rng).expect("generation");
    let split = attack_split(&dataset, &mut rng).expect("split");
    // Keep the shards tiny so a debug-profile round stays fast.
    let small = split
        .train
        .subset(&(0..120.min(split.train.len())).collect::<Vec<_>>())
        .expect("subset");
    let shards = partition_dataset(&small, 2, Distribution::Iid, &mut rng).expect("partition");
    let e2 = entry.clone();
    let mut system = FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 32,
        seed: 1,
    })
    .clients_from_shards(
        shards,
        move |rng| model_for(&e2, rng),
        |_| Box::new(Sgd::new(0.01)),
    )
    .expect("build clients")
    .build()
    .expect("build system");
    let report = system.run_round().expect("round");
    assert!(
        report.mean_train_loss.is_finite() && report.mean_train_loss > 0.0,
        "{name}: bad loss {}",
        report.mean_train_loss
    );
    // The aggregated model evaluates without error.
    let test = split
        .test
        .subset(&(0..40.min(split.test.len())).collect::<Vec<_>>())
        .expect("test subset");
    let acc = system.mean_client_accuracy(&test).expect("accuracy");
    assert!((0.0..=1.0).contains(&acc), "{name}: accuracy {acc}");
}

#[test]
fn purchase100_runs() {
    one_round(catalog::purchase100(Profile::Mini));
}

#[test]
fn texas100_runs() {
    one_round(catalog::texas100(Profile::Mini));
}

#[test]
fn cifar10_runs() {
    one_round(catalog::cifar10(Profile::Mini));
}

#[test]
fn cifar100_runs() {
    one_round(catalog::cifar100(Profile::Mini));
}

#[test]
fn gtsrb_runs() {
    one_round(catalog::gtsrb(Profile::Mini));
}

#[test]
fn celeba_runs() {
    one_round(catalog::celeba(Profile::Mini));
}

#[test]
fn speech_commands_runs() {
    one_round(catalog::speech_commands(Profile::Mini));
}

/// The paper's model for a full-profile catalog entry (Table 2).
fn full_model_for(entry: &CatalogEntry, rng: &mut Rng) -> dinar_nn::Result<Model> {
    let classes = entry.spec.num_classes;
    match (entry.paper.model, entry.spec.modality) {
        ("ResNet20", Modality::Image { channels, .. }) => models::resnet20(channels, classes, rng),
        (
            "VGG11",
            Modality::Image {
                channels, height, ..
            },
        ) => models::vgg11(channels, classes, height, rng),
        ("M18", Modality::Audio { .. }) => models::m18(classes, rng),
        (_, modality) => models::fcnn_paper(modality.feature_len(), classes, rng),
    }
}

#[test]
fn every_full_table2_pairing_takes_a_training_step_at_batch_2() {
    // One model at a time: the largest (VGG11 on 64×64 CelebA, the FCNN on
    // Texas100's 6,170 features) hold ~35 M parameters.
    let mut rng = Rng::seed_from(23);
    for entry in catalog::all(Profile::Full) {
        let name = entry.name().to_string();
        let mut model = full_model_for(&entry, &mut rng).expect("full model builds");
        let mut shape = vec![2];
        shape.extend(entry.spec.modality.sample_shape());
        let x = rng.randn(&shape);
        let logits = model.forward(&x, true).expect("forward");
        assert_eq!(logits.shape(), &[2, entry.spec.num_classes], "{name}");
        let (loss, grad) = CrossEntropyLoss
            .loss_and_grad(&logits, &[0, 1])
            .expect("loss");
        assert!(loss.is_finite() && loss > 0.0, "{name}: loss {loss}");
        model.zero_grad();
        model.backward(&grad).expect("backward");
        let grads = model.layer_gradients();
        let values = || {
            grads
                .iter()
                .flat_map(|l| &l.tensors)
                .flat_map(|t| t.as_slice())
        };
        assert!(
            values().all(|v| v.is_finite()),
            "{name}: non-finite gradient"
        );
        assert!(values().any(|&v| v != 0.0), "{name}: all-zero gradients");
    }
}

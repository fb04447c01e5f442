//! End-to-end integration: the full paper pipeline on one dataset.
//!
//! Data synthesis → attacker split → FL training → membership inference →
//! DINAR protection, asserting the paper's headline qualitative results:
//! the undefended system leaks (attack AUC well above 50%), DINAR pins the
//! attack near 50% on both the global model and client uploads, and keeps
//! the personalized accuracy close to the undefended baseline.

use dinar::middleware::DinarMiddleware;
use dinar::DinarConfig;
use dinar_attacks::evaluate_attack;
use dinar_attacks::threshold::LossThresholdAttack;
use dinar_data::catalog::{self, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_data::split::attack_split;
use dinar_fl::{FlConfig, FlSystem};
use dinar_nn::{models, optim::Adagrad, Model, ModelParams};
use dinar_tensor::Rng;

struct PipelineResult {
    global_auc: f64,
    upload_auc: f64,
    accuracy: f32,
}

fn run_pipeline(with_dinar: bool) -> PipelineResult {
    let mut rng = Rng::seed_from(1234);
    let dataset = catalog::purchase100(Profile::Mini)
        .generate(&mut rng)
        .expect("generation succeeds");
    let split = attack_split(&dataset, &mut rng).expect("split succeeds");
    let shards =
        partition_dataset(&split.train, 5, Distribution::Iid, &mut rng).expect("partition");
    let arch = |rng: &mut Rng| -> dinar_nn::Result<Model> { models::fcnn6(600, 100, 64, rng) };

    let mut builder = FlSystem::builder(FlConfig {
        local_epochs: 5,
        batch_size: 64,
        seed: 6,
    })
    .clients_from_shards(shards, arch, |_| Box::new(Adagrad::new(0.05)))
    .expect("clients built");
    if with_dinar {
        let config = DinarConfig::default();
        builder = builder.with_client_middleware(move |id| {
            vec![Box::new(DinarMiddleware::new(4, config, id as u64))]
        });
    }
    let mut system = builder.build().expect("system built");
    system.run(8).expect("training succeeds");

    // Capture one more client upload (what the server-side attacker sees).
    let global = system.global_params().share();
    let client = &mut system.clients_mut()[0];
    client.receive_global(&global).expect("download");
    client.train_local().expect("local training");
    let upload: ModelParams = client.produce_update().expect("upload").params;
    let client_members = client.data().clone();

    let mut template = arch(&mut rng).expect("template");
    let members = split
        .train
        .subset(&(0..200).collect::<Vec<_>>())
        .expect("members");
    let global_auc = evaluate_attack(
        &mut LossThresholdAttack,
        system.global_params(),
        &mut template,
        &members,
        &split.test,
    )
    .expect("global attack")
    .auc;
    let upload_auc = evaluate_attack(
        &mut LossThresholdAttack,
        &upload,
        &mut template,
        &client_members,
        &split.test,
    )
    .expect("upload attack")
    .auc;
    let accuracy = system
        .mean_client_accuracy(&split.test)
        .expect("evaluation");
    PipelineResult {
        global_auc,
        upload_auc,
        accuracy,
    }
}

#[test]
fn undefended_fl_leaks_membership() {
    let result = run_pipeline(false);
    assert!(
        result.global_auc > 0.60,
        "undefended global model should leak: AUC {}",
        result.global_auc
    );
    assert!(
        result.upload_auc > 0.65,
        "undefended uploads should leak more: AUC {}",
        result.upload_auc
    );
    assert!(
        result.accuracy > 0.5,
        "undefended accuracy should be substantial: {}",
        result.accuracy
    );
}

#[test]
fn dinar_pins_attack_near_optimum_and_preserves_utility() {
    let undefended = run_pipeline(false);
    let defended = run_pipeline(true);
    assert!(
        defended.global_auc < 0.58,
        "DINAR global AUC should approach 50%: {}",
        defended.global_auc
    );
    assert!(
        defended.upload_auc < 0.60,
        "DINAR upload AUC should approach 50%: {}",
        defended.upload_auc
    );
    // Personalization keeps most of the utility (paper: within 1%; our
    // synthetic substitutes concede a few points — see EXPERIMENTS.md).
    assert!(
        defended.accuracy > undefended.accuracy * 0.8,
        "DINAR accuracy {} should stay near baseline {}",
        defended.accuracy,
        undefended.accuracy
    );
}

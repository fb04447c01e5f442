//! Protocol-level integration tests for DINAR's middleware semantics inside
//! a live FL system (Algorithm 1 + §4.1 consensus).

use dinar::init::{agree_on_layer, InitConfig};
use dinar::middleware::DinarMiddleware;
use dinar::DinarConfig;
use dinar_data::catalog::{self, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_data::split::attack_split;
use dinar_data::Dataset;
use dinar_fl::{FlConfig, FlSystem};
use dinar_nn::{models, optim::Adagrad, Model};
use dinar_tensor::Rng;

const PRIVATE_LAYER: usize = 4;

fn arch(rng: &mut Rng) -> dinar_nn::Result<Model> {
    models::fcnn6(600, 100, 48, rng)
}

fn build_dinar_system(shards: Vec<Dataset>) -> FlSystem {
    let config = DinarConfig::default();
    FlSystem::builder(FlConfig {
        local_epochs: 2,
        batch_size: 64,
        seed: 21,
    })
    .clients_from_shards(shards, arch, |_| Box::new(Adagrad::new(0.05)))
    .unwrap()
    .with_client_middleware(move |id| {
        vec![Box::new(DinarMiddleware::new(
            PRIVATE_LAYER,
            config,
            id as u64,
        ))]
    })
    .build()
    .unwrap()
}

fn shards() -> Vec<Dataset> {
    let mut rng = Rng::seed_from(31);
    let dataset = catalog::purchase100(Profile::Mini)
        .generate(&mut rng)
        .unwrap();
    let split = attack_split(&dataset, &mut rng).unwrap();
    partition_dataset(&split.train, 3, Distribution::Iid, &mut rng).unwrap()
}

/// The server must never see a client's true private-layer parameters: every
/// upload's layer `p` differs from the client's live model layer `p`.
#[test]
fn uploads_never_contain_the_private_layer() {
    let mut system = build_dinar_system(shards());
    system.run(2).unwrap();
    let global = system.global_params().share();
    for client in system.clients_mut() {
        client.receive_global(&global).unwrap();
        client.train_local().unwrap();
        let upload = client.produce_update().unwrap().params;
        let live = client.model().params();
        // The private layer is obfuscated in the upload...
        let private_diff = upload.layers[PRIVATE_LAYER]
            .tensors
            .iter()
            .zip(&live.layers[PRIVATE_LAYER].tensors)
            .all(|(a, b)| a != b);
        assert!(private_diff, "private layer leaked in the upload");
        // ...while every other layer is uploaded verbatim.
        for (i, (up, lv)) in upload.layers.iter().zip(&live.layers).enumerate() {
            if i != PRIVATE_LAYER {
                assert_eq!(up, lv, "layer {i} should upload unchanged");
            }
        }
    }
}

/// Personalization: after receiving a global model, a client's private layer
/// equals its own stored parameters from the previous round, not the global
/// (obfuscated) values.
#[test]
fn personalization_restores_the_clients_own_layer() {
    let mut system = build_dinar_system(shards());
    system.run(1).unwrap();

    // Snapshot each client's live private layer after round 1.
    let before: Vec<_> = system
        .clients()
        .iter()
        .map(|c| c.model().params().layers[PRIVATE_LAYER].share())
        .collect();

    // Deliver the new global model; the private layer must be restored.
    let global = system.global_params().share();
    for (client, own) in system.clients_mut().iter_mut().zip(&before) {
        client.receive_global(&global).unwrap();
        let after = client.model().params();
        assert_eq!(
            &after.layers[PRIVATE_LAYER], own,
            "client lost its personalized layer"
        );
        // The global's obfuscated layer differs from what was installed.
        assert_ne!(
            global.layers[PRIVATE_LAYER], after.layers[PRIVATE_LAYER],
            "client installed the obfuscated global layer"
        );
    }
}

/// The initialization phase agrees on one layer across clients even with a
/// Byzantine minority, and the agreed index is a valid layer.
#[test]
fn initialization_consensus_with_byzantine_client() {
    let mut rng = Rng::seed_from(41);
    let dataset = catalog::purchase100(Profile::Mini)
        .generate(&mut rng)
        .unwrap();
    let split = attack_split(&dataset, &mut rng).unwrap();
    let shards = partition_dataset(&split.train, 4, Distribution::Iid, &mut rng).unwrap();
    let client_data: Vec<_> = shards
        .iter()
        .map(|s| {
            let mut r = rng.split(s.len() as u64);
            s.split_fraction(0.8, &mut r).unwrap()
        })
        .collect();
    let cfg = InitConfig {
        warmup_epochs: 6,
        ..InitConfig::default()
    };
    let layer = agree_on_layer(&client_data, arch, &[3], &cfg).unwrap();
    assert!(layer < 6, "agreed layer {layer} out of range");
}

/// Multi-layer DINAR round-trips correctly inside the engine.
#[test]
fn multi_layer_dinar_trains() {
    let config = DinarConfig::default();
    let mut system = FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 64,
        seed: 5,
    })
    .clients_from_shards(shards(), arch, |_| Box::new(Adagrad::new(0.05)))
    .unwrap()
    .with_client_middleware(move |id| {
        vec![Box::new(DinarMiddleware::multi(
            vec![3, 4],
            config,
            id as u64,
        ))]
    })
    .build()
    .unwrap();
    let reports = system.run(3).unwrap();
    assert!(reports.iter().all(|r| r.mean_train_loss.is_finite()));
}

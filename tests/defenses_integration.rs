//! Integration tests for the baseline defenses inside a live FL system.

use dinar_data::catalog::{self, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_data::split::attack_split;
use dinar_data::Dataset;
use dinar_defenses::dp::{add_gaussian_noise, clip_l2, clip_noise_onto};
use dinar_defenses::{
    DpOptimizer, DpParams, GradientCompression, SaGroup, SecureAggregation, WeakDp,
};
use dinar_fl::{ClientMiddleware, FlConfig, FlSystem};
use dinar_nn::{models, optim::Adagrad, Model, ModelParams};
use dinar_telemetry::Telemetry;
use dinar_tensor::alloc::MemoryScope;
use dinar_tensor::Rng;
use std::sync::Arc;

fn setup() -> (Vec<Dataset>, Dataset) {
    let mut rng = Rng::seed_from(99);
    let dataset = catalog::purchase100(Profile::Mini)
        .generate(&mut rng)
        .unwrap();
    let split = attack_split(&dataset, &mut rng).unwrap();
    let shards = partition_dataset(&split.train, 4, Distribution::Iid, &mut rng).unwrap();
    (shards, split.test)
}

fn arch(rng: &mut Rng) -> dinar_nn::Result<Model> {
    models::fcnn6(600, 100, 48, rng)
}

fn config() -> FlConfig {
    FlConfig {
        local_epochs: 2,
        batch_size: 64,
        seed: 8,
    }
}

/// Secure aggregation must be *exact*: the aggregated global model equals
/// the unmasked FedAvg bit-for-bit (up to float round-off), even though each
/// individual upload is masked garbage.
#[test]
fn secure_aggregation_preserves_the_aggregate_exactly() {
    let (shards, _) = setup();
    let run = |masked: bool| {
        let counts: Vec<usize> = shards.iter().map(Dataset::len).collect();
        let mut builder = FlSystem::builder(config())
            .clients_from_shards(shards.clone(), arch, |_| Box::new(Adagrad::new(0.05)))
            .unwrap();
        if masked {
            let group = SaGroup::from_sample_counts(&counts, 13);
            builder = builder.with_client_middleware(move |_| {
                vec![Box::new(SecureAggregation::new(Arc::clone(&group)))
                    as Box<dyn ClientMiddleware>]
            });
        }
        let mut system = builder.build().unwrap();
        system.run(2).unwrap();
        system.global_params().clone()
    };
    let clear = run(false);
    let masked = run(true);
    let err = clear.max_abs_diff(&masked).unwrap();
    assert!(err < 1e-2, "masking changed the aggregate by {err}");
}

#[test]
fn secure_aggregation_masks_individual_uploads() {
    let (shards, _) = setup();
    let counts: Vec<usize> = shards.iter().map(Dataset::len).collect();
    let group = SaGroup::from_sample_counts(&counts, 13);
    let mut system = FlSystem::builder(config())
        .clients_from_shards(shards, arch, |_| Box::new(Adagrad::new(0.05)))
        .unwrap()
        .with_client_middleware(move |_| {
            vec![Box::new(SecureAggregation::new(Arc::clone(&group)))
                as Box<dyn ClientMiddleware>]
        })
        .build()
        .unwrap();
    let global = system.global_params().clone();
    let client = &mut system.clients_mut()[0];
    client.receive_global(&global).unwrap();
    client.train_local().unwrap();
    let upload = client.produce_update().unwrap().params;
    // The upload should be far from the (unmasked) trained model.
    let trained = client.model().params();
    let dev = upload.sub(&trained).unwrap().l2_norm();
    assert!(dev > 100.0, "mask too weak: deviation {dev}");
}

#[test]
fn gradient_compression_uploads_are_sparse_updates() {
    let (shards, _) = setup();
    let mut system = FlSystem::builder(config())
        .clients_from_shards(shards, arch, |_| Box::new(Adagrad::new(0.05)))
        .unwrap()
        .with_client_middleware(|_| {
            vec![Box::new(GradientCompression::new(0.1).with_error_feedback(false))
                as Box<dyn ClientMiddleware>]
        })
        .build()
        .unwrap();
    let global = system.global_params().clone();
    let client = &mut system.clients_mut()[0];
    client.receive_global(&global).unwrap();
    client.train_local().unwrap();
    let upload = client.produce_update().unwrap().params;
    // The update (upload - global) must have ~90% zero entries.
    let update = upload.sub(&global).unwrap();
    let flat = update.to_flat();
    let nonzero = flat.iter().filter(|&&x| x != 0.0).count();
    let ratio = nonzero as f32 / flat.len() as f32;
    assert!(
        (0.05..=0.12).contains(&ratio),
        "expected ~10% nonzero update entries, got {ratio}"
    );
}

#[test]
fn wdp_bounds_every_upload() {
    let (shards, _) = setup();
    let mut system = FlSystem::builder(config())
        .clients_from_shards(shards, arch, |_| Box::new(Adagrad::new(0.05)))
        .unwrap()
        .with_client_middleware(|id| {
            vec![Box::new(WeakDp::paper_default(Rng::seed_from(id as u64)))
                as Box<dyn ClientMiddleware>]
        })
        .build()
        .unwrap();
    system.run(1).unwrap();
    let global = system.global_params().clone();
    for client in system.clients_mut() {
        client.receive_global(&global).unwrap();
        client.train_local().unwrap();
        let upload = client.produce_update().unwrap().params;
        let update_norm = upload.sub(&global).unwrap().l2_norm();
        // Norm bound 5 plus the sigma=0.025 noise.
        assert!(update_norm < 7.0, "update norm {update_norm} exceeds bound");
    }
}

/// The WDP upload as it was composed before the fold, kept as the
/// reference: materialize the update, clip it, noise it, add the global
/// back.
fn wdp_reference(trained: &ModelParams, global: &ModelParams, rng: &mut Rng) -> ModelParams {
    let mut update = trained.sub(global).unwrap();
    clip_l2(&mut update, 5.0);
    add_gaussian_noise(&mut update, 0.025, rng);
    update.add_assign(global).unwrap();
    update
}

fn param_bits(p: &ModelParams) -> Vec<u32> {
    p.to_flat().iter().map(|x| x.to_bits()).collect()
}

/// The folded WDP upload equals the four-step composition on bits, round
/// after round on one middleware instance, whether or not the update is
/// clipped; it leaves the noise stream where the composition leaves it,
/// charges the ledger once per upload, and allocates one model's worth.
#[test]
fn wdp_fold_matches_the_reference_composition_bit_for_bit() {
    let mut rng = Rng::seed_from(17);
    let global = arch(&mut rng).unwrap().params();
    let param_bytes = 4 * global.param_count() as u64;
    // Scaling every weight by 1 ± step moves the model by step·‖global‖.
    let global_norm = global.l2_norm();
    for (step, clipped) in [(0.5, true), (1e-3, false)] {
        assert_eq!(step * global_norm > 5.0, clipped, "‖global‖ = {global_norm}");
        let telemetry = Telemetry::new();
        let mut mw = WeakDp::paper_default(Rng::seed_from(23));
        mw.attach_telemetry(&telemetry, 0);
        let (mut rng_ref, mut rng_fused) = (Rng::seed_from(23), Rng::seed_from(23));
        for round in 1..=3u64 {
            let mut received = global.share();
            mw.transform_download(0, &mut received).unwrap();
            let mut trained = global.share();
            trained.map_inplace(|x| x * (1.0 + step / round as f32));
            let want = wdp_reference(&trained, &global, &mut rng_ref);

            let mut upload = trained.share();
            let scope = MemoryScope::enter();
            mw.transform_upload(0, &mut upload).unwrap();
            assert_eq!(scope.peak_extra_bytes(), param_bytes, "round {round}");
            assert_eq!(param_bits(&upload), param_bits(&want), "round {round}");

            let direct = clip_noise_onto(&trained, &global, 5.0, 0.025, &mut rng_fused).unwrap();
            assert_eq!(param_bits(&direct), param_bits(&want), "round {round}");
            assert_eq!(rng_fused.state(), rng_ref.state(), "round {round}: stream position");
        }
        let accounts = telemetry.privacy_accounts();
        assert_eq!(accounts.len(), 1);
        assert_eq!((accounts[0].defense.as_str(), accounts[0].charges), ("wdp", 3));
    }
}

#[test]
fn dp_sgd_training_still_converges_somewhat() {
    let (shards, test) = setup();
    let mut system = FlSystem::builder(config())
        .clients_from_shards(shards, arch, |id| {
            Box::new(
                DpOptimizer::new(
                    Box::new(dinar_nn::optim::Adam::new(1e-3)),
                    DpParams::paper_default(),
                    Rng::seed_from(id as u64),
                )
                .with_amortization_over(2),
            )
        })
        .unwrap()
        .build()
        .unwrap();
    let reports = system.run(8).unwrap();
    // Noisy but not divergent: losses stay finite and still trend downward
    // despite the injected noise (DP-SGD learns, just slowly).
    assert!(reports.iter().all(|r| r.mean_train_loss.is_finite()));
    let first = reports.first().unwrap().mean_train_loss;
    let last = reports.last().unwrap().mean_train_loss;
    assert!(
        last < first,
        "DP-SGD loss should still decrease: {first} -> {last}"
    );
    let acc = system.mean_client_accuracy(&test).unwrap();
    assert!((0.0..=1.0).contains(&acc));
}

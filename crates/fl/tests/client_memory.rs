//! A client round's tensor peak, pinned to the byte.
//!
//! The peak is the `client_peak_mem_bytes` a round reports: the per-thread
//! tensor ledger's high-water mark over one client's download, local
//! training and upload. Local training ends by dropping the model's layer
//! caches, so a WDP upload, which allocates a model-sized buffer, no longer
//! lands on top of the last batch's activations.

use dinar_data::catalog::{self, Profile};
use dinar_defenses::WeakDp;
use dinar_fl::{ClientMiddleware, FlConfig, FlSystem};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::Sgd;
use dinar_tensor::Rng;

/// One WDP client on 64 Purchase100-mini rows, training an
/// `mlp[600, 1024, 100]` for one batch-64 epoch with SGD.
fn wdp_system() -> FlSystem {
    let mut rng = Rng::seed_from(42);
    let data = catalog::purchase100(Profile::Mini)
        .generate(&mut rng)
        .expect("catalog entry");
    let keep: Vec<usize> = (0..64).collect();
    let shard = data.subset(&keep).expect("subset");
    FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 64,
        seed: 42,
    })
    .clients_from_shards(
        vec![shard],
        |rng| models::mlp(&[600, 1024, 100], Activation::ReLU, rng),
        |_| Box::new(Sgd::new(0.1)),
    )
    .expect("clients")
    .with_client_middleware(|id| -> Vec<Box<dyn ClientMiddleware>> {
        vec![Box::new(WeakDp::paper_default(Rng::seed_from(
            42 ^ (id as u64) << 8,
        )))]
    })
    .build()
    .expect("system")
}

/// The first round's peak (the round in which SGD also allocates its
/// velocity) with the layer caches dropped. With them held it read
/// 6,421,280 B: the 677,888 B of cached activations on top.
const WDP_CLIENT_PEAK: u64 = 5_743_392;

#[test]
fn a_wdp_client_round_peaks_without_the_layer_caches() {
    let report = wdp_system().run_round().expect("round");
    assert_eq!(report.cost.client_peak_mem_bytes, WDP_CLIENT_PEAK);
}

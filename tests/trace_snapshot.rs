//! Golden-snapshot gate for the Perfetto trace-event export.
//!
//! Runs the same tiny deterministic FL round as `tests/telemetry_snapshot.rs`
//! (2 clients, fixed seeds, [`ManualClock`], pool width pinned to 1) and
//! compares the rendered trace-event JSON byte-for-byte against the
//! committed golden file. Any change to the B/E pairing, pid/tid derivation,
//! field order, or timestamp computation shows up as a diff here and must be
//! reviewed by regenerating the golden:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace_snapshot
//! ```
//!
//! This file holds exactly one test so the width pin cannot race another
//! test in the same binary.

use dinar_data::Dataset;
use dinar_fl::{FlConfig, FlSystem};
use dinar_nn::models::{self, Activation};
use dinar_nn::Model;
use dinar_telemetry::{export, ManualClock, Telemetry};
use dinar_tensor::{par, Rng, Tensor};
use std::path::Path;
use std::sync::Arc;

const GOLDEN: &str = "tests/golden/trace_fl_round.json";

/// A tiny two-blob classification shard, deterministic in `seed`.
fn blob_shard(n: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from(seed);
    let mut features = Tensor::zeros(&[n, 2]);
    let mut labels = Vec::new();
    for i in 0..n {
        let class = i % 2;
        let c = if class == 0 { -2.0 } else { 2.0 };
        features.set(&[i, 0], rng.normal_with(c, 0.5)).unwrap();
        features.set(&[i, 1], rng.normal_with(c, 0.5)).unwrap();
        labels.push(class);
    }
    Dataset::new(features, labels, &[2], 2).unwrap()
}

#[test]
fn trace_events_match_golden_snapshot() {
    par::set_threads(1);
    let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
    let arch = |rng: &mut Rng| -> dinar_nn::Result<Model> {
        models::mlp(&[2, 4, 2], Activation::ReLU, rng)
    };
    let mut system = FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 8,
        seed: 5,
    })
    .clients_from_shards(vec![blob_shard(8, 1), blob_shard(8, 2)], arch, |_| {
        Box::new(dinar_nn::optim::Sgd::new(0.1))
    })
    .expect("clients built")
    .build()
    .expect("system built");
    system.set_telemetry(tel.clone());
    system.run_round().expect("round");
    par::reset_threads();

    let actual = export::trace_events(&tel);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden_path = root.join(GOLDEN);

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &actual).unwrap();
        eprintln!("regenerated {GOLDEN}");
        return;
    }

    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN} ({e}); regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "\ntrace export drifted from {GOLDEN}.\nIf the change is \
         intentional, regenerate with\n    UPDATE_GOLDEN=1 cargo test --test \
         trace_snapshot\nand commit the diff.\n"
    );
}

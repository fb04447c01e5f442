//! Distributed execution: every client on its own thread, exchanging models
//! only through messages — plus telemetry spans and checkpointing, the
//! operational pieces a deployed FL middleware needs.
//!
//! ```text
//! cargo run --release --example distributed_training
//! ```

use dinar_suite::core::middleware::DinarMiddleware;
use dinar_suite::core::DinarConfig;
use dinar_suite::data::catalog::{self, Profile};
use dinar_suite::data::partition::{partition_dataset, Distribution};
use dinar_suite::data::split::attack_split;
use dinar_suite::fl::clock::WallClock;
use dinar_suite::fl::{run_threaded_wire, FlConfig, FlSystem, RoundPolicy, WireConfig};
use dinar_suite::nn::{ckpt, models, optim::Adagrad};
use dinar_suite::telemetry::{export, Telemetry};
use dinar_suite::tensor::{Dtype, Rng};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(99);
    let dataset = catalog::texas100(Profile::Mini).generate(&mut rng)?;
    let split = attack_split(&dataset, &mut rng)?;
    let shards = partition_dataset(&split.train, 4, Distribution::Iid, &mut rng)?;

    let dinar_config = DinarConfig::default();
    let mut system = FlSystem::builder(FlConfig {
        local_epochs: 3,
        batch_size: 64,
        seed: 42,
    })
    .clients_from_shards(
        shards,
        |rng| models::fcnn6(500, 100, 64, rng),
        |_| Box::new(Adagrad::new(0.05)),
    )?
    .with_client_middleware(move |id| {
        vec![Box::new(DinarMiddleware::new(4, dinar_config, id as u64))]
    })
    .build()?;

    // One sink shared by the server and every client thread: each round,
    // client phase and middleware transform lands as a span.
    let telemetry = Telemetry::new();
    system.set_telemetry(telemetry.clone());

    println!("running 6 rounds with one thread per client ...");
    let run = run_threaded_wire(
        system,
        6,
        Arc::new(WallClock::new()),
        RoundPolicy::strict(),
        WireConfig::default(),
    )?;
    for report in &run.reports {
        println!(
            "round {:>2}: mean training loss {:.3} (client wall-clock {:.3}s)",
            report.round, report.mean_train_loss, report.cost.client_train_s
        );
    }

    // Checkpoint the final global model and prove the round trip.
    let system = run.system;
    let path = std::env::temp_dir().join("dinar-global.dnck");
    ckpt::save(system.global_params(), Dtype::F32, &path)?;
    let restored = ckpt::load(&path)?;
    assert!(system.global_params().max_abs_diff(&restored)? < 1e-9);
    println!("\ncheckpointed global model to {}", path.display());

    // The summary tree has one line per span path, indented by depth. Show
    // the last round down to the middleware level; the per-layer fwd/bwd
    // spans sit below `train`.
    let last_round = format!("round[{}]", run.reports.len());
    let mut in_last_round = false;
    for line in export::summary_tree(&telemetry).lines() {
        let name = line.trim_start();
        if name.len() == line.len() {
            in_last_round = name.starts_with(&last_round);
        }
        if in_last_round && !name.starts_with("fwd[") && !name.starts_with("bwd[") {
            println!("{line}");
        }
    }
    let spans = telemetry.spans();
    let dinar_transforms = spans
        .iter()
        .filter(|s| s.path.ends_with("/mw[dinar]"))
        .count();
    println!(
        "telemetry: {} spans, {} DINAR middleware transforms, {} updates aggregated",
        spans.len(),
        dinar_transforms,
        telemetry.counter_value("fl.updates")
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}

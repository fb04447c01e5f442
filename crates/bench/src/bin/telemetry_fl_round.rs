//! Telemetry profile of a small FL run: 2 clients, 2 rounds, synthetic
//! Purchase100-mini data.
//!
//! Emits `bench-results/TELEMETRY_fl_round.json`: the run's report
//! (`export::run_document` — Perfetto trace events with per-round /
//! per-client / per-middleware / per-layer spans, every metric, the
//! summary tree, span coverage, privacy ledger and flight view, so the
//! file opens in <https://ui.perfetto.dev> as-is) plus `clients`, `rounds`
//! and two health indicators:
//!
//! * `span_coverage` — the fraction of each root span's wall time covered
//!   by its direct children (the acceptance bar is ≥ 0.95: spans must
//!   account for where the time went, not just that it passed);
//! * `bit_identical` — the global model of the instrumented run matches an
//!   uninstrumented rerun bit for bit (observation must not perturb).
//!
//! The same sink also records an instrumented DINAR initialization vote
//! (`dinar-consensus`), so the coverage gate spans both the FL engine and
//! the consensus layer — a consensus phase that stops reporting where its
//! time goes fails the same ≥ 0.95 bar as a training phase.

use dinar_bench::report;
use dinar_consensus::network::{simulate_vote_with_telemetry, NodeBehavior, SimConfig};
use dinar_data::catalog::{self, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_fl::{FlConfig, FlSystem};
use dinar_nn::models::{self, Activation};
use dinar_nn::Model;
use dinar_telemetry::{export, Telemetry};
use dinar_tensor::json::{Json, ToJson};
use dinar_tensor::Rng;

const CLIENTS: usize = 2;
const ROUNDS: usize = 2;

fn build_system() -> Result<FlSystem, Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(42);
    let dataset = catalog::purchase100(Profile::Mini).generate(&mut rng)?;
    let shards = partition_dataset(&dataset, CLIENTS, Distribution::Iid, &mut rng)?;
    let arch = |rng: &mut Rng| -> dinar_nn::Result<Model> {
        models::mlp(&[600, 32, 100], Activation::ReLU, rng)
    };
    Ok(FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 64,
        seed: 5,
    })
    .clients_from_shards(shards, arch, |_| {
        Box::new(dinar_nn::optim::Adagrad::new(0.05))
    })?
    .build()?)
}

fn global_bits(system: &FlSystem) -> Vec<u32> {
    system
        .global_params()
        .to_flat()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Instrumented run.
    let tel = Telemetry::new();
    let mut system = build_system()?;
    system.set_telemetry(tel.clone());
    system.run(ROUNDS)?;
    let instrumented = global_bits(&system);

    // Consensus layer under the same sink: a mixed honest/Byzantine vote,
    // sized like the DINAR initialization round.
    let mut behaviors = vec![NodeBehavior::Honest { proposal: 1 }; 4];
    behaviors.push(NodeBehavior::byzantine_random());
    simulate_vote_with_telemetry(
        &behaviors,
        &SimConfig {
            num_choices: 4,
            seed: 11,
        },
        &tel,
    )?;

    // Uninstrumented rerun from the same seeds: observation must be free.
    let mut baseline = build_system()?;
    baseline.run(ROUNDS)?;
    let bit_identical = global_bits(&baseline) == instrumented;

    let coverage = export::span_coverage(&tel);
    let tree = export::summary_tree(&tel);
    println!("span summary ({CLIENTS} clients, {ROUNDS} rounds):\n{tree}");
    println!("span coverage: {:.1}%", coverage * 100.0);
    println!("instrumented == uninstrumented: {bit_identical}");

    let mut fields = vec![
        ("clients".to_string(), CLIENTS.to_json()),
        ("rounds".to_string(), ROUNDS.to_json()),
        ("bit_identical".to_string(), bit_identical.to_json()),
    ];
    if let Json::Obj(run) = export::run_document(&tel) {
        fields.extend(run);
    }
    let doc = Json::Obj(fields);
    let path = report::write_json("TELEMETRY_fl_round", &doc)?;
    println!("wrote {}", path.display());

    if !bit_identical {
        return Err("instrumented run diverged from uninstrumented baseline".into());
    }
    if coverage < 0.95 {
        return Err(format!("span coverage {coverage:.3} below the 0.95 bar").into());
    }
    Ok(())
}

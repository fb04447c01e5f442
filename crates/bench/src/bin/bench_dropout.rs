//! Client-dropout sweep over the fault-tolerant threaded transport:
//! records `bench-results/BENCH_dropout.json`.
//!
//! For each dropout rate the same seeded FL run (Purchase100-mini, 8
//! clients) executes under a [`FaultPlan::seeded_dropout`] schedule — every
//! client independently loses its upload with probability `rate` each round
//! — with a quorum of one, so the server aggregates whatever arrives. The
//! artifact tracks test accuracy and final-round loss as participation
//! drops — on the IID mini profile FedAvg proves robust: accuracy holds
//! through 50% dropout while the loss drifts up — plus the transport's own
//! fault accounting (updates aggregated, uploads lost).
//! Rate 0.0 doubles as the healthy baseline: its schedule is empty, so the
//! run is bit-identical to the strict transport.
//!
//! ```text
//! cargo run --release -p dinar-bench --bin bench_dropout
//! ```
//!
//! Everything is seeded (data, models, fault schedule) and dropout faults
//! are explicit notices rather than timeouts, so the accuracy column is
//! reproducible run to run.

use dinar_bench::report::{pct, table, write_json};
use dinar_bench::impl_to_json;
use dinar_data::catalog::{self, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_fl::clock::WallClock;
use dinar_fl::eval::accuracy_of_params;
use dinar_fl::{
    run_threaded_wire, FaultPlan, FlConfig, FlSystem, Quorum, RoundPolicy, WireConfig,
};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::Sgd;
use dinar_tensor::Rng;
use std::sync::Arc;

const CLIENTS: usize = 8;
const ROUNDS: usize = 20;
const RATES: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.5];

struct DropoutRow {
    rate: f64,
    /// Seed behind the generated fault schedule — with (clients, rounds,
    /// rate) it reconstructs the exact dropout pattern this row measured.
    fault_seed: Option<u64>,
    /// Round deadline in milliseconds (`null` = no deadline; dropout
    /// faults are explicit notices, so no timeout is needed).
    deadline_ms: Option<u64>,
    rounds: usize,
    updates_aggregated: usize,
    uploads_lost: usize,
    final_loss: f64,
    accuracy_pct: f64,
}

impl_to_json!(DropoutRow {
    rate,
    fault_seed,
    deadline_ms,
    rounds,
    updates_aggregated,
    uploads_lost,
    final_loss,
    accuracy_pct,
});

fn run_rate(rate: f64) -> Result<DropoutRow, Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(41);
    let data = catalog::purchase100(Profile::Mini).generate(&mut rng)?;
    let (train, test) = data.split_fraction(0.8, &mut rng)?;
    let shards = partition_dataset(&train, CLIENTS, Distribution::Iid, &mut rng)?;
    let arch = |rng: &mut Rng| models::mlp(&[600, 64, 100], Activation::ReLU, rng);
    let system = FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 64,
        seed: 7,
    })
    .clients_from_shards(shards, arch, |_| Box::new(Sgd::new(0.1)))?
    .build()?;

    let plan = FaultPlan::seeded_dropout(13, CLIENTS, ROUNDS, rate);
    let fault_seed = plan.seed();
    let policy = RoundPolicy::with_quorum(Quorum::AtLeast(1), None).with_faults(plan);
    let deadline_ms = policy.deadline.map(|d| d.as_millis() as u64);
    let clock = Arc::new(WallClock::new());
    let run = run_threaded_wire(system, ROUNDS, clock, policy, WireConfig::default())?;

    let mut template = models::mlp(&[600, 64, 100], Activation::ReLU, &mut rng)?;
    let accuracy = accuracy_of_params(run.system.global_params(), &mut template, &test)?;
    Ok(DropoutRow {
        rate,
        fault_seed,
        deadline_ms,
        rounds: run.reports.len(),
        updates_aggregated: run.fault_stats.iter().map(|s| s.participants).sum(),
        uploads_lost: run.fault_stats.iter().map(|s| s.clients_dropped).sum(),
        final_loss: run
            .reports
            .last()
            .map(|r| f64::from(r.mean_train_loss))
            .unwrap_or(f64::NAN),
        accuracy_pct: f64::from(accuracy) * 100.0,
    })
}

fn main() {
    let mut rows = Vec::new();
    for rate in RATES {
        match run_rate(rate) {
            Ok(row) => rows.push(row),
            Err(e) => {
                eprintln!("dropout sweep failed at rate {rate}: {e}");
                std::process::exit(1);
            }
        }
    }
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.rate),
                r.fault_seed.map_or("-".into(), |s| s.to_string()),
                r.rounds.to_string(),
                r.updates_aggregated.to_string(),
                r.uploads_lost.to_string(),
                format!("{:.4}", r.final_loss),
                pct(r.accuracy_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["rate", "seed", "rounds", "updates", "lost", "final_loss", "acc_%"],
            &cells
        )
    );
    match write_json("BENCH_dropout", rows.as_slice()) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_dropout.json: {e}");
            std::process::exit(1);
        }
    }
}

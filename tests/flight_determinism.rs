//! Flight-recorder determinism contract: the black-box dump produced after
//! a forced mid-round client death must be byte-identical at every
//! worker-pool width.
//!
//! This is the postmortem analogue of `tests/telemetry_determinism.rs`: a
//! flight dump is only trustworthy evidence if re-running the same seeds and
//! the same [`FaultPlan`] reproduces it bit-for-bit, regardless of how many
//! worker threads the failing run happened to use. Events are ordered by
//! per-tuple sequence ordinals (not arrival order), so the sorted JSONL is
//! stable even though threads interleave differently per width.
//!
//! The width-1 dump is also pinned byte-for-byte against a committed golden
//! file; regenerate it (after reviewing the diff) with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test flight_determinism
//! ```

use dinar_fl::clock::ManualClock as FlManualClock;
use dinar_fl::{run_threaded_wire, FaultPlan, FlConfig, FlSystem, Quorum, RoundPolicy, WireConfig};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::Sgd;
use dinar_telemetry::{ManualClock, Telemetry};
use dinar_tensor::{par, Rng, Tensor};
use std::path::Path;
use std::sync::{Arc, Mutex};

const GOLDEN: &str = "tests/golden/flight_fl_round.jsonl";

/// Serializes mutations of the process-global pool width across tests.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 3] = [1, 2, 4];

fn per_width<T>(f: impl Fn() -> T) -> Vec<T> {
    let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let results = WIDTHS
        .iter()
        .map(|&w| {
            par::set_threads(w);
            f()
        })
        .collect();
    par::reset_threads();
    results
}

fn blob_dataset(n: usize, seed: u64) -> dinar_data::Dataset {
    let mut rng = Rng::seed_from(seed);
    let mut features = Tensor::zeros(&[n, 2]);
    let mut labels = Vec::new();
    for i in 0..n {
        let class = i % 2;
        let c = if class == 0 { -2.0 } else { 2.0 };
        features.set(&[i, 0], rng.normal_with(c, 0.6)).expect("set");
        features.set(&[i, 1], rng.normal_with(c, 0.6)).expect("set");
        labels.push(class);
    }
    dinar_data::Dataset::new(features, labels, &[2], 2).expect("dataset")
}

fn build_system() -> FlSystem {
    let data = blob_dataset(90, 5);
    let mut rng = Rng::seed_from(9);
    let shards = dinar_data::partition::partition_dataset(
        &data,
        3,
        dinar_data::partition::Distribution::Iid,
        &mut rng,
    )
    .expect("partition");
    FlSystem::builder(FlConfig {
        local_epochs: 2,
        batch_size: 16,
        seed: 3,
    })
    .clients_from_shards(
        shards,
        |rng| models::mlp(&[2, 8, 2], Activation::ReLU, rng),
        |_| Box::new(Sgd::new(0.1)),
    )
    .expect("clients")
    .build()
    .expect("system")
}

/// Three wire rounds with client 1 crashing in round 2; returns the flight
/// dump of the run.
fn crash_run_dump() -> String {
    let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
    let mut system = build_system();
    system.set_telemetry(tel.clone());
    let policy = RoundPolicy::with_quorum(Quorum::AtLeast(2), None)
        .with_faults(FaultPlan::new().crash(1, 2));
    let clock = Arc::new(FlManualClock::new());
    let run = run_threaded_wire(system, 3, clock, policy, WireConfig::default())
        .expect("quorum run survives the crash");
    assert_eq!(run.reports.len(), 3, "run did not complete all rounds");
    assert_eq!(run.fault_stats[1].clients_dropped, 1, "crash did not fire");
    tel.flight_dump_jsonl()
}

#[test]
fn flight_dump_after_client_death_is_bit_identical_across_widths() {
    let results = per_width(crash_run_dump);

    for (w, dump) in WIDTHS.iter().zip(&results).skip(1) {
        assert_eq!(
            dump, &results[0],
            "flight dump diverged at {w} threads — the postmortem record is \
             no longer reproducible evidence"
        );
    }

    // The dump must actually contain the story of the failure: events from
    // the healthy rounds and the transport's fault accounting.
    let dump = &results[0];
    assert!(!dump.is_empty(), "armed flight ring recorded nothing");
    assert!(
        dump.contains("fl.transport"),
        "flight dump is missing the transport fault counters:\n{dump}"
    );
    for line in dump.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "flight dump line is not a JSON object: {line}"
        );
    }
}

#[test]
fn flight_dump_matches_golden_snapshot() {
    let actual = {
        let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        par::set_threads(1);
        let dump = crash_run_dump();
        par::reset_threads();
        dump
    };
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);

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
        "\nflight dump drifted from {GOLDEN}.\nIf the change is \
         intentional, regenerate with\n    UPDATE_GOLDEN=1 cargo test --test \
         flight_determinism\nand commit the diff.\n"
    );
}

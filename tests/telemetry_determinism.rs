//! Telemetry determinism contract: a fully instrumented FL round must
//! produce the same *observations* and the same *observed system* at every
//! worker-pool width.
//!
//! Three properties are pinned, for threads ∈ {1, 2, 4}:
//!
//! 1. the sorted span list (paths, manual-clock timestamps) is identical;
//! 2. the non-volatile metrics (kernel counters, FL counters, gradient-norm
//!    gauges) are identical — volatile metrics (pool fan-out, alloc
//!    high-water marks) legitimately vary and are excluded by the
//!    deterministic export;
//! 3. the trained global model is bit-identical to an *uninstrumented* run —
//!    observation must not perturb the computation.
//!
//! The suite's `sanitize` feature must not change any of this, so CI runs
//! this file in both configurations.

use dinar_data::catalog::{self, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_fl::{FlConfig, FlSystem};
use dinar_nn::models::{self, Activation};
use dinar_nn::Model;
use dinar_telemetry::{export, ManualClock, Telemetry};
use dinar_tensor::{par, Rng};
use std::sync::{Arc, Mutex};

/// Serializes mutations of the process-global pool width across tests.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 3] = [1, 2, 4];

/// Runs `f` once per width in [`WIDTHS`] and returns the results in order,
/// restoring the default width afterwards.
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

/// A small 3-client FL system over Purchase100-mini shards, built fresh
/// from fixed seeds so every call starts bit-identical.
fn build_system() -> FlSystem {
    let mut rng = Rng::seed_from(42);
    let dataset = catalog::purchase100(Profile::Mini)
        .generate(&mut rng)
        .expect("dataset");
    let shards = partition_dataset(&dataset, 3, Distribution::Iid, &mut rng).expect("partition");
    let arch = |rng: &mut Rng| -> dinar_nn::Result<Model> {
        models::mlp(&[600, 32, 100], Activation::ReLU, rng)
    };
    FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 64,
        seed: 5,
    })
    .clients_from_shards(shards, arch, |_| {
        Box::new(dinar_nn::optim::Adagrad::new(0.05))
    })
    .expect("clients built")
    .build()
    .expect("system built")
}

fn global_bits(system: &FlSystem) -> Vec<u32> {
    system
        .global_params()
        .to_flat()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

#[test]
fn instrumented_fl_round_is_deterministic_across_widths() {
    let results = per_width(|| {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let mut system = build_system();
        system.set_telemetry(tel.clone());
        system.run_round().expect("round");
        (export::export_jsonl(&tel, false), global_bits(&system))
    });

    // The instrumented run must also match a run with no telemetry at all.
    let baseline = {
        let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut system = build_system();
        system.run_round().expect("round");
        global_bits(&system)
    };

    for (w, (jsonl, bits)) in WIDTHS.iter().zip(&results) {
        assert_eq!(
            jsonl, &results[0].0,
            "deterministic telemetry export diverged at {w} threads"
        );
        assert_eq!(bits, &results[0].1, "global params diverged at {w} threads");
    }
    assert_eq!(
        results[0].1, baseline,
        "telemetry instrumentation perturbed the trained model"
    );

    // Sanity on the observation content itself: per-client, per-phase and
    // per-layer spans all present, and the kernel counters nonzero.
    let jsonl = &results[0].0;
    for needle in [
        "round[1]/client[0]/train",
        "round[1]/client[2]/upload",
        "round[1]/aggregate",
        "fwd[0:dense]",
        "bwd[2:dense]",
        "tensor.matmul.flops",
        "fl.rounds",
    ] {
        assert!(jsonl.contains(needle), "missing `{needle}` in:\n{jsonl}");
    }
    assert!(
        !jsonl.contains("tensor.pool."),
        "volatile pool metrics leaked into the deterministic export"
    );
}

#[test]
fn sorted_spans_and_metrics_are_stable_over_two_rounds() {
    let results = per_width(|| {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let mut system = build_system();
        system.set_telemetry(tel.clone());
        system.run(2).expect("two rounds");
        let spans: Vec<String> = export::sorted_spans(&tel)
            .into_iter()
            .map(|s| format!("{} {} {}", s.path, s.start_us, s.dur_us))
            .collect();
        let metrics: Vec<String> = tel
            .metrics()
            .into_iter()
            .filter(|m| !m.volatile)
            .map(|m| format!("{} {:?}", m.name, m.data))
            .collect();
        (spans, metrics)
    });
    for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
        assert_eq!(r.0, results[0].0, "sorted spans diverged at {w} threads");
        assert_eq!(r.1, results[0].1, "metrics diverged at {w} threads");
    }
    // Both rounds present in the span paths.
    assert!(results[0].0.iter().any(|s| s.starts_with("round[1]/")));
    assert!(results[0].0.iter().any(|s| s.starts_with("round[2]/")));
}

//! Parameter-plane invariants: copy-on-write tensor storage, O(1) `share()`
//! snapshots, O(model) aggregation memory, and the committed copy-reduction
//! evidence from the `BENCH_params` artifact.
//!
//! Like `tests/properties.rs`, the property tests are driven by the
//! workspace's own seeded RNG (a pure function of the loop index) instead of
//! a property-testing dependency.

use dinar_fl::{ClientUpdate, FlServer};
use dinar_nn::{LayerParams, ModelParams, ParamViewMut};
use dinar_tensor::alloc::{thread_live_bytes, MemoryScope};
use dinar_tensor::json::Json;
use dinar_tensor::{Rng, Tensor};
use std::path::Path;

const CASES: u64 = 64;

/// Per-case RNG: independent, reproducible stream per (property, case).
fn case_rng(property: u64, case: u64) -> Rng {
    Rng::seed_from(0xC0_4E00 + property * 10_007 + case)
}

fn random_shape(rng: &mut Rng) -> Vec<usize> {
    match rng.below(3) {
        0 => vec![1 + rng.below(48)],
        1 => vec![1 + rng.below(12), 1 + rng.below(12)],
        _ => vec![1 + rng.below(4), 1 + rng.below(6), 1 + rng.below(6)],
    }
}

// ----------------------------------------------------------------------
// Copy-on-write: clone-then-mutate never aliases
// ----------------------------------------------------------------------

#[test]
fn clone_then_mutate_never_aliases() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let shape = random_shape(&mut rng);
        let original = rng.randn(&shape);
        let before: Vec<u32> = original.as_slice().iter().map(|x| x.to_bits()).collect();

        // Exercise a different COW mutation point per case.
        let mut writer = original.clone();
        match case % 4 {
            0 => writer.as_mut_slice()[0] += 1.0,
            1 => writer.map_inplace(|x| x * 2.0 + 1.0),
            2 => writer.scale_inplace(-3.0),
            _ => writer.add_assign(&Tensor::ones(&shape)).unwrap(),
        }

        let after: Vec<u32> = original.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(before, after, "case {case}: reader saw a writer's mutation");
        assert_ne!(
            writer.as_slice(),
            original.as_slice(),
            "case {case}: mutation had no effect"
        );
    }
}

#[test]
fn mutating_the_original_leaves_clones_intact() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let shape = random_shape(&mut rng);
        let mut original = rng.randn(&shape);
        let snapshot = original.clone();
        let before: Vec<u32> = snapshot.as_slice().iter().map(|x| x.to_bits()).collect();

        original.map_inplace(|x| x + 42.0);

        let after: Vec<u32> = snapshot.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(before, after, "case {case}: snapshot drifted");
    }
}

#[test]
fn reshape_shares_storage_until_first_write() {
    let t = Tensor::ones(&[4, 6]);
    let live = thread_live_bytes();
    let mut flat = t.reshape(&[24]).unwrap();
    assert_eq!(thread_live_bytes(), live, "reshape must not copy");
    flat.as_mut_slice()[0] = 7.0;
    assert_eq!(
        thread_live_bytes(),
        live + 24 * 4,
        "first write materializes exactly one buffer"
    );
    assert_eq!(t.as_slice()[0], 1.0, "reader untouched by reshaped writer");
}

#[test]
fn model_params_share_is_free_and_isolated() {
    let mut rng = Rng::seed_from(9);
    let params = ModelParams::new(vec![
        LayerParams::new(vec![rng.randn(&[16, 8]), rng.randn(&[8])]),
        LayerParams::new(vec![rng.randn(&[8, 4])]),
    ]);
    let live = thread_live_bytes();
    let mut writer = params.share();
    assert_eq!(thread_live_bytes(), live, "share() must allocate nothing");
    ParamViewMut::of_model(&mut writer).for_each_slice_mut(|s| {
        for x in s {
            *x = 0.0;
        }
    });
    assert!(
        params.l2_norm() > 0.0,
        "writer's zeroing leaked into the shared snapshot"
    );
    assert_eq!(writer.l2_norm(), 0.0);
}

// ----------------------------------------------------------------------
// Aggregation memory: O(model), not O(clients × model)
// ----------------------------------------------------------------------

#[test]
fn aggregation_peak_memory_does_not_scale_with_client_count() {
    // Steady-state FedAvg accumulates into the recycled scratch buffer, so
    // the peak extra bytes attributable to aggregation are bounded by one
    // model — independent of how many clients report.
    let peak_for = |clients: usize| -> (u64, u64) {
        let mut rng = Rng::seed_from(77);
        let init = ModelParams::new(vec![LayerParams::new(vec![
            rng.randn(&[64, 64]),
            rng.randn(&[64]),
        ])]);
        let model_bytes = (init.param_count() * 4) as u64;
        // Distinct per-client buffers, as after real local training.
        let updates: Vec<ClientUpdate> = (0..clients)
            .map(|id| {
                let mut p = init.share();
                p.scale(1.0 + id as f32);
                ClientUpdate {
                    client_id: id,
                    params: p,
                    num_samples: 10,
                }
            })
            .collect();
        let mut server = FlServer::new(init);
        // Round 1 populates the scratch buffer; measure steady state.
        server.aggregate(&updates).unwrap();
        let scope = MemoryScope::enter();
        server.aggregate(&updates).unwrap();
        (scope.peak_extra_bytes(), model_bytes)
    };
    let (peak_small, model_bytes) = peak_for(4);
    let (peak_large, _) = peak_for(16);
    assert!(
        peak_large <= model_bytes,
        "steady-state aggregation allocated {peak_large} bytes (> one model of {model_bytes})"
    );
    assert_eq!(
        peak_small, peak_large,
        "aggregation peak memory scaled with the client count"
    );
}

// ----------------------------------------------------------------------
// Copy-reduction evidence: BENCH_params vs the committed baseline
// ----------------------------------------------------------------------

fn load_report(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{} must be committed (regenerate with `cargo run --release -p dinar-bench --bin paper -- BENCH_params`): {e}", path.display()));
    Json::parse(&text).expect("committed bench report parses")
}

#[test]
fn bench_params_shows_at_least_5x_copy_reduction() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline = load_report(&root.join("bench-results/BENCH_params_baseline.json"));
    let current = load_report(&root.join("bench-results/BENCH_params.json"));
    let bytes = |r: &Json| {
        r.get("mean_copy_bytes_per_round")
            .and_then(Json::as_f64)
            .expect("report has mean_copy_bytes_per_round")
    };
    let (before, after) = (bytes(&baseline), bytes(&current));
    assert!(
        after * 5.0 <= before,
        "bytes cloned per round: {after:.0} is not ≥5× below the pre-refactor {before:.0}"
    );
}

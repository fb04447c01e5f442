//! Property tests of DINAR's obfuscation/personalization invariants, driven
//! by the workspace's own seeded RNG instead of `proptest` so the whole suite
//! is deterministic and dependency-free.

use dinar::middleware::DinarMiddleware;
use dinar::obfuscation::{obfuscate_layer, ObfuscationStrategy};
use dinar::DinarConfig;
use dinar_fl::ClientMiddleware;
use dinar_nn::{LayerParams, ModelParams};
use dinar_tensor::Rng;

const CASES: u64 = 48;

/// Per-case RNG: independent, reproducible stream per (property, case).
fn case_rng(property: u64, case: u64) -> Rng {
    Rng::seed_from(0xD1AA_2000 + property * 10_007 + case)
}

fn arbitrary_params(layers: usize, seed: u64) -> ModelParams {
    let mut rng = Rng::seed_from(seed);
    ModelParams::new(
        (0..layers)
            .map(|i| LayerParams::new(vec![rng.randn(&[4 + i, 3]), rng.randn(&[3])]))
            .collect(),
    )
}

/// Obfuscation returns the exact original layer and never touches the
/// other layers, for every strategy and layer index.
#[test]
fn obfuscation_isolates_the_target_layer() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let layers = 1 + rng.below(5);
        let target = rng.below(layers);
        let strategy = [
            ObfuscationStrategy::Random,
            ObfuscationStrategy::Zeros,
            ObfuscationStrategy::Gaussian,
        ][rng.below(3)];
        let seed = rng.next_u64();
        let original = arbitrary_params(layers, seed);
        let mut mutated = original.share();
        let mut obf_rng = Rng::seed_from(seed ^ 0xF00);
        let returned = obfuscate_layer(&mut mutated, target, strategy, &mut obf_rng).unwrap();
        assert_eq!(&returned, &original.layers[target], "case {case}");
        for i in 0..layers {
            if i == target {
                // The obfuscated layer keeps its shapes but not its values
                // (zeros may coincide if the original was all zeros — our
                // random params never are).
                assert!(returned.same_shape(&mutated.layers[i]), "case {case}");
                assert_ne!(&mutated.layers[i], &original.layers[i], "case {case}");
            } else {
                assert_eq!(&mutated.layers[i], &original.layers[i], "case {case}");
            }
        }
    }
}

/// Upload-then-download through the DINAR middleware restores the
/// client's private layer exactly, regardless of what the server sends
/// back — the Alg. 1 personalization invariant.
#[test]
fn personalization_roundtrip_invariant() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let layers = 2 + rng.below(4);
        let target = rng.below(layers);
        let rounds = 1 + rng.below(3);
        let seed = rng.next_u64();
        let mut mw = DinarMiddleware::new(target, DinarConfig::default(), seed);
        for round in 0..rounds {
            // Locally trained parameters this round.
            let trained = arbitrary_params(layers, seed ^ (round as u64 + 1));
            let mut upload = trained.share();
            mw.transform_upload(0, &mut upload).unwrap();
            // Private layer never leaves the client.
            assert_ne!(
                &upload.layers[target], &trained.layers[target],
                "case {case}"
            );
            let last_private = trained.layers[target].share();

            // Arbitrary global model comes back.
            let mut download = arbitrary_params(layers, seed ^ 0xABCD ^ round as u64);
            mw.transform_download(0, &mut download).unwrap();
            // Personalization restored exactly what the client trained.
            assert_eq!(&download.layers[target], &last_private, "case {case}");
        }
    }
}

/// The obfuscated layer never correlates with the original: the random
/// strategy's output is independent of the private values.
#[test]
fn random_obfuscation_is_value_independent() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let seed = rng.next_u64();
        // Two different private layers, same obfuscation stream → same
        // obfuscated output (values depend only on the stream, not on the
        // secret).
        let mut a = arbitrary_params(3, seed);
        let mut b = arbitrary_params(3, seed ^ 0x5555);
        // Make shapes identical (arbitrary_params shapes depend only on the
        // layer index, so they already are).
        let mut rng_a = Rng::seed_from(42);
        let mut rng_b = Rng::seed_from(42);
        obfuscate_layer(&mut a, 1, ObfuscationStrategy::Random, &mut rng_a).unwrap();
        obfuscate_layer(&mut b, 1, ObfuscationStrategy::Random, &mut rng_b).unwrap();
        assert_eq!(&a.layers[1], &b.layers[1], "case {case}");
    }
}

/// Zeroed-layer uploads leak only shape: every tensor of the obfuscated
/// layer is identically zero.
#[test]
fn zeros_strategy_leaks_nothing_but_shape() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let layers = 1 + rng.below(4);
        let seed = rng.next_u64();
        let mut params = arbitrary_params(layers, seed);
        let target = (seed as usize) % layers;
        let mut obf_rng = Rng::seed_from(0);
        obfuscate_layer(
            &mut params,
            target,
            ObfuscationStrategy::Zeros,
            &mut obf_rng,
        )
        .unwrap();
        for t in &params.layers[target].tensors {
            assert!(t.as_slice().iter().all(|&x| x == 0.0), "case {case}");
        }
    }
}

/// Deterministic sanity check: a `Tensor` of arbitrary values is
/// never equal after Random obfuscation (collision probability ~0).
#[test]
fn random_obfuscation_changes_values() {
    let mut params = arbitrary_params(2, 7);
    let before = params.share();
    let mut rng = Rng::seed_from(1);
    obfuscate_layer(&mut params, 0, ObfuscationStrategy::Random, &mut rng).unwrap();
    assert_ne!(params.layers[0], before.layers[0]);
}

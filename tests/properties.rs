//! Property tests over the core data structures and invariants of the
//! reproduction, driven by the workspace's own seeded RNG instead of
//! `proptest` so the whole suite is deterministic and dependency-free:
//! every case is a pure function of the loop index.

use dinar_consensus::vote;
use dinar_data::partition::{partition_indices, Distribution};
use dinar_metrics::histogram::{js_divergence, Histogram};
use dinar_metrics::roc::attack_auc;
use dinar_nn::{LayerParams, ModelParams};
use dinar_tensor::{Rng, Tensor};

const CASES: u64 = 64;

/// Per-case RNG: independent, reproducible stream per (property, case).
fn case_rng(property: u64, case: u64) -> Rng {
    Rng::seed_from(0xD1AA_4000 + property * 10_007 + case)
}

/// Random vector with `1..max_len` entries in `[-100, 100)`.
fn small_vec(rng: &mut Rng, max_len: usize) -> Vec<f32> {
    let len = 1 + rng.below(max_len - 1);
    (0..len).map(|_| rng.uniform_in(-100.0, 100.0)).collect()
}

// ----------------------------------------------------------------------
// Tensor algebra
// ----------------------------------------------------------------------

#[test]
fn tensor_add_commutes() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let a = small_vec(&mut rng, 64);
        let t1 = Tensor::from_slice(&a);
        let t2 = rng.randn(&[a.len()]);
        let s1 = t1.add(&t2).unwrap();
        let s2 = t2.add(&t1).unwrap();
        assert!(s1.approx_eq(&s2, 1e-6), "case {case}");
    }
}

#[test]
fn tensor_scale_distributes_over_add() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let a = small_vec(&mut rng, 32);
        let k = rng.uniform_in(-10.0, 10.0);
        let t1 = Tensor::from_slice(&a);
        let t2 = rng.rand_uniform(&[a.len()], -1.0, 1.0);
        let lhs = t1.add(&t2).unwrap().mul_scalar(k);
        let rhs = t1.mul_scalar(k).add(&t2.mul_scalar(k)).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-3), "case {case}");
    }
}

#[test]
fn matmul_is_associative() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let (m, k, n, p) = (
            1 + rng.below(4),
            1 + rng.below(4),
            1 + rng.below(4),
            1 + rng.below(4),
        );
        let a = rng.rand_uniform(&[m, k], -1.0, 1.0);
        let b = rng.rand_uniform(&[k, n], -1.0, 1.0);
        let c = rng.rand_uniform(&[n, p], -1.0, 1.0);
        let lhs = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-3), "case {case}");
    }
}

#[test]
fn transpose_preserves_matmul() {
    // (A·B)ᵀ = Bᵀ·Aᵀ
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let (m, k, n) = (1 + rng.below(5), 1 + rng.below(5), 1 + rng.below(5));
        let a = rng.randn(&[m, k]);
        let b = rng.randn(&[k, n]);
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b
            .transpose()
            .unwrap()
            .matmul(&a.transpose().unwrap())
            .unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-3), "case {case}");
    }
}

// ----------------------------------------------------------------------
// Model parameter arithmetic (the FedAvg substrate)
// ----------------------------------------------------------------------

#[test]
fn fedavg_of_identical_params_is_identity() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let v = small_vec(&mut rng, 32);
        let copies = 2 + rng.below(4);
        let p = ModelParams::new(vec![LayerParams::new(vec![Tensor::from_slice(&v)])]);
        let mut acc = p.zeros_like();
        for _ in 0..copies {
            acc.scaled_add_assign(1.0 / copies as f32, &p).unwrap();
        }
        assert!(acc.max_abs_diff(&p).unwrap() < 1e-4, "case {case}");
    }
}

#[test]
fn fedavg_stays_within_convex_hull() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let a = small_vec(&mut rng, 16);
        let w = rng.uniform();
        let n = a.len();
        let pa = ModelParams::new(vec![LayerParams::new(vec![Tensor::from_slice(&a)])]);
        let pb = ModelParams::new(vec![LayerParams::new(vec![rng.rand_uniform(
            &[n],
            -50.0,
            50.0,
        )])]);
        let mut avg = pa.zeros_like();
        avg.scaled_add_assign(w, &pa).unwrap();
        avg.scaled_add_assign(1.0 - w, &pb).unwrap();
        let fa = pa.to_flat();
        let fb = pb.to_flat();
        for (i, x) in avg.to_flat().iter().enumerate() {
            let lo = fa[i].min(fb[i]) - 1e-4;
            let hi = fa[i].max(fb[i]) + 1e-4;
            assert!(
                (lo..=hi).contains(x),
                "case {case}: component {i} escaped the hull"
            );
        }
    }
}

// ----------------------------------------------------------------------
// Attack AUC
// ----------------------------------------------------------------------

#[test]
fn auc_is_bounded_and_inversion_symmetric() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let members = small_vec(&mut rng, 40);
        let nonmembers = small_vec(&mut rng, 40);
        let auc = attack_auc(&members, &nonmembers);
        assert!((0.0..=1.0).contains(&auc), "case {case}");
        // Negating all scores inverts the ranking exactly.
        let neg_m: Vec<f32> = members.iter().map(|x| -x).collect();
        let neg_n: Vec<f32> = nonmembers.iter().map(|x| -x).collect();
        let inverted = attack_auc(&neg_m, &neg_n);
        assert!((auc + inverted - 1.0).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn auc_is_translation_invariant() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let members = small_vec(&mut rng, 30);
        let nonmembers = small_vec(&mut rng, 30);
        let shift = rng.uniform_in(-5.0, 5.0);
        let auc = attack_auc(&members, &nonmembers);
        let shifted_m: Vec<f32> = members.iter().map(|x| x + shift).collect();
        let shifted_n: Vec<f32> = nonmembers.iter().map(|x| x + shift).collect();
        assert!(
            (auc - attack_auc(&shifted_m, &shifted_n)).abs() < 1e-9,
            "case {case}"
        );
    }
}

// ----------------------------------------------------------------------
// Histograms and JS divergence
// ----------------------------------------------------------------------

#[test]
fn js_divergence_is_symmetric_and_bounded() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let a = small_vec(&mut rng, 200);
        let b = small_vec(&mut rng, 200);
        let (ha, hb) = Histogram::joint_pair(&a, &b, 16);
        let p = ha.probabilities();
        let q = hb.probabilities();
        let d1 = js_divergence(&p, &q);
        let d2 = js_divergence(&q, &p);
        assert!((d1 - d2).abs() < 1e-12, "case {case}");
        assert!(
            (0.0..=std::f64::consts::LN_2 + 1e-12).contains(&d1),
            "case {case}"
        );
    }
}

#[test]
fn histogram_never_loses_finite_samples() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let a = small_vec(&mut rng, 100);
        let bins = 1 + rng.below(31);
        let mut h = Histogram::new(-10.0, 10.0, bins);
        h.extend(a.iter().copied());
        assert_eq!(h.total(), a.len() as u64, "case {case}"); // clamping, not dropping
    }
}

// ----------------------------------------------------------------------
// Partitioning
// ----------------------------------------------------------------------

#[test]
fn partitions_are_exhaustive_and_disjoint() {
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let n = 10 + rng.below(190);
        let classes = 1 + rng.below(9);
        let clients = 1 + rng.below(7.min(n));
        let dist = if rng.uniform() < 0.5 {
            Distribution::Dirichlet(0.1 + f64::from(rng.uniform()) * 9.9)
        } else {
            Distribution::Iid
        };
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let shards = partition_indices(&labels, classes, clients, dist, &mut rng).unwrap();
        assert_eq!(shards.len(), clients, "case {case}");
        assert!(shards.iter().all(|s| !s.is_empty()), "case {case}");
        let mut all: Vec<usize> = shards.concat();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "case {case}");
    }
}

// ----------------------------------------------------------------------
// Voting
// ----------------------------------------------------------------------

#[test]
fn majority_value_always_wins_the_vote() {
    for case in 0..CASES {
        let mut rng = case_rng(12, case);
        let majority_value = rng.below(8);
        let honest = 3 + rng.below(9);
        let byzantine = rng.below(3.min(honest));
        let byzantine_votes: Vec<usize> = (0..byzantine).map(|_| rng.below(8)).collect();
        let mut votes = vec![majority_value; honest];
        votes.extend(&byzantine_votes);
        let decided = vote::decide(&votes, 8).unwrap();
        assert_eq!(decided, majority_value, "case {case}");
    }
}

#[test]
fn decide_returns_a_valid_choice() {
    for case in 0..CASES {
        let mut rng = case_rng(13, case);
        let len = 1 + rng.below(19);
        let votes: Vec<usize> = (0..len).map(|_| rng.below(6)).collect();
        let decided = vote::decide(&votes, 6).unwrap();
        assert!(decided < 6, "case {case}");
        // The decided value must actually have been voted for.
        assert!(votes.contains(&decided), "case {case}");
    }
}

// ----------------------------------------------------------------------
// RNG determinism
// ----------------------------------------------------------------------

#[test]
fn rng_streams_are_reproducible() {
    for case in 0..CASES {
        let mut rng = case_rng(14, case);
        let seed = rng.next_u64() % 10_000;
        let stream = rng.next_u64() % 100;
        let root = Rng::seed_from(seed);
        let mut a = root.split(stream);
        let mut b = root.split(stream);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64(), "case {case}");
        }
    }
}

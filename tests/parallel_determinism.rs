//! Determinism under parallelism: the repo's bit-exactness contract must
//! hold for any worker-pool width.
//!
//! The parallel layer (`dinar_tensor::par`) partitions work over output
//! ranges so each element is computed by exactly one thread in the same FP
//! order regardless of width; reductions fold fixed-size chunks in a fixed
//! order. These tests pin that contract end to end: matmul-family kernels,
//! conv forward/backward, and a full FL round must produce bit-identical
//! results for threads ∈ {1, 2, 4}. The synthetic dataset generators fill
//! their rows in parallel parts from advanced copies of one stream; they
//! must reproduce the serial walk they replaced, datasets and caller's
//! stream alike.
//!
//! The pool width is process-global, so the tests serialize their width
//! changes through one mutex and restore the default afterwards.

use dinar_data::catalog::{self, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_data::synth::{Modality, SynthSpec};
use dinar_data::Dataset;
use dinar_fl::{FlConfig, FlSystem};
use dinar_nn::models::{self, Activation};
use dinar_nn::{Layer, Model};
use dinar_tensor::conv::{col2im2d, im2col2d, Conv2dGeom};
use dinar_tensor::{par, Rng, RngState, Tensor};
use std::sync::Mutex;

/// Serializes mutations of the process-global pool width across tests.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 3] = [1, 2, 4];

/// Runs `f` once per width in [`WIDTHS`] and returns the results in order,
/// restoring the default width afterwards even on panic within the lock.
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

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn matmul_family_is_bit_identical_across_widths() {
    // Odd, non-multiple-of-block sizes exercise partition remainders and the
    // 4-row/4-column kernel tails.
    let mut rng = Rng::seed_from(7);
    let a = rng.randn(&[97, 61]);
    let b = rng.randn(&[61, 33]);
    let bt = rng.randn(&[33, 61]); // for matmul_t: [m,k]·[n,k]ᵀ
    let at = rng.randn(&[61, 97]); // for t_matmul: [k,m]ᵀ·[k,n]

    let results = per_width(|| {
        let mm = a.matmul(&b).expect("matmul");
        let mmt = a.matmul_t(&bt).expect("matmul_t");
        let tmm = at.t_matmul(&b).expect("t_matmul");
        (bits(&mm), bits(&mmt), bits(&tmm))
    });
    for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
        assert_eq!(r, &results[0], "matmul family diverged at {w} threads");
    }
}

/// The kernels' element spec: one serial ascending-`p` FMA chain from 0.0.
fn serial_fma_product(a: &Tensor, b: &Tensor) -> Vec<u32> {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let chain = (0..k).fold(0.0f32, |acc, p| a[i * k + p].mul_add(b[p * n + j], acc));
            out.push(chain.to_bits());
        }
    }
    out
}

#[test]
fn matmul_family_is_the_serial_fma_chain_at_every_tile_edge() {
    // Shapes straddle every edge of the packed driver: the 4-row quad, the
    // 16-column panel (conv widths 8/12/24/27 included), the 128-column
    // block and the 256-step reduction block.
    let mut rng = Rng::seed_from(11);
    let mut cases = Vec::new();
    for m in [1, 3, 4, 5, 67] {
        for k in [1, 8, 27, 100, 300] {
            for n in [1, 7, 8, 12, 16, 17, 24, 27, 600] {
                let a = rng.randn(&[m, k]);
                let b = rng.randn(&[k, n]);
                let want = serial_fma_product(&a, &b);
                let (at, bt) = (a.transpose().expect("2-d"), b.transpose().expect("2-d"));
                cases.push((a, b, at, bt, want));
            }
        }
    }
    // All three entry points are the same product A·B, so each must equal
    // the chain — and hence `matmul_t(a, bᵀ) == matmul(a, b) == t_matmul(aᵀ, b)`.
    let results = per_width(|| {
        cases
            .iter()
            .map(|(a, b, at, bt, _)| {
                [
                    bits(&a.matmul(b).expect("matmul")),
                    bits(&a.matmul_t(bt).expect("matmul_t")),
                    bits(&at.t_matmul(b).expect("t_matmul")),
                ]
            })
            .collect::<Vec<_>>()
    });
    for (w, result) in WIDTHS.iter().zip(&results) {
        for ((a, b, _, _, want), got) in cases.iter().zip(result) {
            for (op, got) in ["matmul", "matmul_t", "t_matmul"].iter().zip(got) {
                assert!(
                    got == want,
                    "{op} {:?}·{:?} left the serial chain at {w} threads",
                    a.shape(),
                    b.shape()
                );
            }
        }
    }
}

#[test]
fn im2col_and_reductions_are_bit_identical_across_widths() {
    // A batch large enough that the lowering fans out at widths 2 and 4:
    // im2col partitions the 45 patch rows, col2im the 64 samples. Stride 2
    // takes the strided-gather form of the run copy.
    let mut rng = Rng::seed_from(8);
    let x = rng.randn(&[64, 5, 13, 11]);
    let geom = Conv2dGeom {
        channels: 5,
        height: 13,
        width: 11,
        kernel_h: 3,
        kernel_w: 3,
        stride: 2,
        padding: 1,
    };
    let v = rng.randn(&[100_001]); // odd length: partial trailing chunk
    let u = rng.randn(&[100_001]);

    let results = per_width(|| {
        let cols = im2col2d(&x, &geom).expect("im2col2d");
        assert_eq!(cols.shape(), &[5 * 3 * 3, 64 * 7 * 6], "patch-major");
        let folded = col2im2d(&cols, 64, &geom).expect("col2im2d");
        let sum = v.sum();
        let dot = v.dot(&u).expect("dot");
        let norm = v.norm_l2();
        (bits(&cols), bits(&folded), sum.to_bits(), dot.to_bits(), norm.to_bits())
    });
    for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
        assert_eq!(r, &results[0], "im2col/col2im/reductions diverged at {w} threads");
    }
}

#[test]
fn tanh_is_bit_identical_across_widths() {
    // 40k elements: above the elementwise fan-out threshold, and not a
    // multiple of any partition or vector width.
    let x = Rng::seed_from(12).randn_with(&[40_003], 0.0, 3.0);
    let results = per_width(|| bits(&x.tanh()));
    for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
        assert_eq!(r, &results[0], "tanh diverged at {w} threads");
    }
    // Each element is the scalar kernel's value wherever it was computed.
    let one_by_one: Vec<u32> = x
        .as_slice()
        .iter()
        .map(|&v| Tensor::from_slice(&[v]).tanh().as_slice()[0].to_bits())
        .collect();
    assert_eq!(results[0], one_by_one);
}

#[test]
fn conv2d_forward_backward_is_bit_identical_across_widths() {
    let results = per_width(|| {
        // Fresh layer per width from the same seed: identical weights, so
        // any divergence comes from the kernels, not the setup.
        let mut rng = Rng::seed_from(9);
        let mut conv = dinar_nn::conv::Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = rng.randn(&[2, 3, 9, 9]);
        let y = conv.forward(&x, true).expect("forward");
        let g = rng.randn(&[2, 8, 9, 9]);
        let gx = conv.backward(&g).expect("backward");
        let grads = conv.grads();
        (
            bits(&y),
            bits(&gx),
            grads.iter().flat_map(|t| bits(t)).collect::<Vec<u32>>(),
        )
    });
    for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
        assert_eq!(r, &results[0], "conv2d diverged at {w} threads");
    }
}

#[test]
fn model_forward_backward_is_bit_identical_across_widths() {
    let results = per_width(|| {
        let mut rng = Rng::seed_from(10);
        let mut model = models::mlp(&[37, 29, 11], Activation::ReLU, &mut rng).expect("mlp");
        let x = rng.randn(&[5, 37]);
        let y = model.forward(&x, true).expect("forward");
        let g = rng.randn(&[5, 11]);
        let gx = model.backward_input(&g).expect("backward");
        (bits(&y), bits(&gx), model.params().to_flat())
    });
    for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
        assert_eq!(
            (&r.0, &r.1),
            (&results[0].0, &results[0].1),
            "model fwd/bwd diverged at {w} threads"
        );
        assert_eq!(
            r.2.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
            results[0].2.iter().map(|x| x.to_bits()).collect::<Vec<u32>>(),
            "model params diverged at {w} threads"
        );
    }
}

#[test]
fn fl_round_is_bit_identical_across_widths() {
    let results = per_width(|| {
        // A fresh system per width from the same seeds; the concurrent
        // client fan-out must not change the aggregated round result.
        let mut rng = Rng::seed_from(42);
        let dataset = catalog::purchase100(Profile::Mini)
            .generate(&mut rng)
            .expect("dataset");
        let shards =
            partition_dataset(&dataset, 3, Distribution::Iid, &mut rng).expect("partition");
        let arch = |rng: &mut Rng| -> dinar_nn::Result<Model> {
            models::mlp(&[600, 32, 100], Activation::ReLU, rng)
        };
        let mut system = FlSystem::builder(FlConfig {
            local_epochs: 1,
            batch_size: 64,
            seed: 5,
        })
        .clients_from_shards(shards, arch, |_| {
            Box::new(dinar_nn::optim::Adagrad::new(0.05))
        })
        .expect("clients built")
        .build()
        .expect("system built");

        let report = system.run_round().expect("round");
        (
            system
                .global_params()
                .to_flat()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<u32>>(),
            report.mean_train_loss.to_bits(),
        )
    });
    for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
        assert_eq!(
            r.1, results[0].1,
            "FL round mean loss diverged at {w} threads"
        );
        assert_eq!(
            r.0, results[0].0,
            "FL round global params diverged at {w} threads"
        );
    }
}

/// FNV-1a over a generated dataset (feature bits, then labels) and the
/// generator's state afterwards (words, then the cached half-sample).
fn dataset_digest(ds: &Dataset, after: RngState) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    ds.features().as_slice().iter().for_each(|x| eat(u64::from(x.to_bits())));
    ds.labels().iter().for_each(|&l| eat(l as u64));
    after.words.iter().for_each(|&w| eat(w));
    eat(after.gauss_cache.map_or(u64::MAX, |z| u64::from(z.to_bits())));
    h
}

#[test]
fn catalog_mini_datasets_are_the_serial_generators_at_every_width() {
    // Recorded from the serial generator (one stream walked row by row)
    // before generation went row-parallel, seed 42.
    let serial = [
        ("cifar10", 0x2802_6431_94de_f5fa_u64),
        ("cifar100", 0xc033_84d6_9d62_49bb),
        ("gtsrb", 0x887a_d241_71e0_f258),
        ("celeba", 0x8b8c_9e7f_d495_6b58),
        ("speech_commands", 0x9165_db8f_6d3a_6835),
        ("purchase100", 0xfd76_e68d_01e2_9c84),
        ("texas100", 0xceae_a80e_62f1_15f0),
    ];
    let entries = catalog::all(Profile::Mini);
    let results = per_width(|| {
        entries
            .iter()
            .map(|entry| {
                let mut rng = Rng::seed_from(42);
                let ds = entry.generate(&mut rng).expect("catalog entries are valid");
                (entry.name().to_string(), dataset_digest(&ds, rng.state()))
            })
            .collect::<Vec<_>>()
    });
    for (w, result) in WIDTHS.iter().zip(&results) {
        for ((name, got), (want_name, want)) in result.iter().zip(serial) {
            assert_eq!(name, want_name);
            assert_eq!(*got, want, "{name} left the serial generator at {w} threads: {got:#018x}");
        }
    }
}

/// The serial walk the row-parallel generators replaced, for image and
/// tabular specs: the shuffled features as bits, and the labels.
fn serial_generate(spec: &SynthSpec, rng: &mut Rng) -> (Vec<u32>, Vec<usize>) {
    let (n, classes, flen) = (spec.num_samples, spec.num_classes, spec.modality.feature_len());
    let mut data = Vec::with_capacity(n * flen);
    if let Modality::BinaryTabular { features } = spec.modality {
        let profiles: Vec<Vec<f32>> = (0..classes)
            .map(|_| {
                (0..features)
                    .map(|_| {
                        if rng.bernoulli(0.3) {
                            rng.uniform_in(0.5, 0.95)
                        } else {
                            rng.uniform_in(0.02, 0.15)
                        }
                    })
                    .collect()
            })
            .collect();
        for i in 0..n {
            for &p in &profiles[i % classes] {
                let mut bit = rng.bernoulli(p);
                if rng.bernoulli(spec.noise) {
                    bit = !bit;
                }
                data.push(if bit { 1.0f32 } else { 0.0 });
            }
        }
    } else {
        let prototypes: Vec<Vec<f32>> = (0..classes)
            .map(|_| (0..flen).map(|_| rng.normal()).collect())
            .collect();
        for i in 0..n {
            for &p in &prototypes[i % classes] {
                data.push(p + spec.noise * rng.normal());
            }
        }
    }
    let perm = rng.permutation(n);
    let bits = perm
        .iter()
        .flat_map(|&i| data[i * flen..][..flen].iter().map(|x| x.to_bits()))
        .collect();
    (bits, perm.iter().map(|&i| i % classes).collect())
}

#[test]
fn generation_leaves_the_callers_stream_where_the_serial_walk_does() {
    let image = |classes, [channels, height, width]: [usize; 3]| SynthSpec {
        name: "image".into(),
        num_classes: classes,
        num_samples: 1001,
        modality: Modality::Image { channels, height, width },
        noise: 0.7,
    };
    // An odd row length puts odd rows at odd normal counts, where a part
    // starts on the cached half of a Box–Muller pair; odd and even
    // `classes · flen` start the rows on either half. 1001 rows split at
    // odd rows at widths 2 and 4.
    let specs = [
        image(3, [3, 5, 7]), // flen 105, classes·flen 315
        image(4, [3, 5, 7]), // flen 105, classes·flen 420
        image(3, [2, 4, 8]), // flen 64
        SynthSpec {
            name: "tabular".into(),
            num_classes: 5,
            num_samples: 2001,
            modality: Modality::BinaryTabular { features: 33 },
            noise: 0.05,
        },
    ];
    // The caller's stream enters with and without a cached half-sample.
    let callers = || {
        let fresh = Rng::seed_from(3);
        let mut cached = Rng::seed_from(4);
        cached.normal();
        [fresh, cached]
    };
    let mut want = Vec::new();
    for spec in &specs {
        for mut rng in callers() {
            want.push((serial_generate(spec, &mut rng), rng.state()));
        }
    }
    let results = per_width(|| {
        let mut got = Vec::new();
        for spec in &specs {
            for mut rng in callers() {
                let ds = spec.generate(&mut rng).expect("valid spec");
                let bits = ds.features().as_slice().iter().map(|x| x.to_bits()).collect();
                got.push(((bits, ds.labels().to_vec()), rng.state()));
            }
        }
        got
    });
    for (w, got) in WIDTHS.iter().zip(&results) {
        for (case, (g, want)) in got.iter().zip(&want).enumerate() {
            assert!(g.0 == want.0, "case {case}: dataset left the serial walk at {w} threads");
            assert_eq!(g.1, want.1, "case {case}: caller's stream left the serial walk at {w} threads");
        }
    }
}

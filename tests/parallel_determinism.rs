//! Determinism under parallelism: the repo's bit-exactness contract must
//! hold for any worker-pool width.
//!
//! The parallel layer (`dinar_tensor::par`) partitions work over output
//! ranges so each element is computed by exactly one thread in the same FP
//! order regardless of width; reductions fold fixed-size chunks in a fixed
//! order. These tests pin that contract end to end: matmul-family kernels,
//! conv forward/backward, and a full FL round must produce bit-identical
//! results for threads ∈ {1, 2, 4}. The synthetic dataset generators fill
//! their rows in parallel parts, each row from a stream position known up
//! front; they must reproduce a scalar reference of their stream layout,
//! datasets and caller's stream alike.
//!
//! The pool width is process-global, so the tests serialize their width
//! changes through one mutex and restore the default afterwards.
//!
//! A region runs inline unless its declared work clears the grain rule
//! (`par::parts`), so each width test asserts that one of its cases splits
//! at width 2: otherwise widths 2 and 4 would silently rerun width 1.

use dinar_data::catalog::{self, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_data::synth::{Modality, SynthSpec};
use dinar_data::Dataset;
use dinar_fl::{FlConfig, FlSystem};
use dinar_nn::models::{self, Activation};
use dinar_nn::{Layer, Model};
use dinar_tensor::conv::{col2im2d, im2col2d, Conv2dGeom};
use dinar_tensor::{par, CbRng, Rng, RngState, Tensor};
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

/// The parts `par::parts` gives a region of `granules` granules of
/// `work_per_granule` units each at width 2. The work is what the kernel
/// declares: `k·n` multiply-adds per output row of a product, bytes read
/// plus written per element or row of an elementwise or copy loop.
fn parts_at_width_2(granules: usize, work_per_granule: usize) -> usize {
    let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_threads(2);
    let parts = par::parts(granules, work_per_granule);
    par::reset_threads();
    parts
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn matmul_family_is_bit_identical_across_widths() {
    // Odd, non-multiple-of-block sizes exercise partition remainders and the
    // 4-row/4-column kernel tails; the larger product splits its rows at
    // widths 2 and 4.
    let (m, k, n) = (301, 131, 129);
    assert_eq!(parts_at_width_2(m, k * n), 2, "{m}x{k}x{n} runs inline");
    for (m, k, n) in [(97, 61, 33), (m, k, n)] {
        let mut rng = Rng::seed_from(7);
        let a = rng.randn(&[m, k]);
        let b = rng.randn(&[k, n]);
        let bt = rng.randn(&[n, k]); // for matmul_t: [m,k]·[n,k]ᵀ
        let at = rng.randn(&[k, m]); // for t_matmul: [k,m]ᵀ·[k,n]

        let results = per_width(|| {
            let mm = a.matmul(&b).expect("matmul");
            let mmt = a.matmul_t(&bt).expect("matmul_t");
            let tmm = at.t_matmul(&b).expect("t_matmul");
            (bits(&mm), bits(&mmt), bits(&tmm))
        });
        for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
            assert_eq!(r, &results[0], "{m}x{k}x{n} diverged at {w} threads");
        }
    }
}

/// The kernels' element spec resumed from `prior`: `prior + a · b` as one
/// serial ascending-`p` FMA chain per element.
fn serial_fma_onto(prior: &[f32], a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = prior.to_vec();
    for i in 0..m {
        for j in 0..n {
            let acc = &mut out[i * n + j];
            for p in 0..k {
                *acc = a[i * k + p].mul_add(b[p * n + j], *acc);
            }
        }
    }
    out
}

/// The kernels' element spec: one serial ascending-`p` FMA chain from 0.0.
fn serial_fma_product(a: &Tensor, b: &Tensor) -> Vec<u32> {
    let zeros = vec![0.0; a.shape()[0] * b.shape()[1]];
    serial_fma_onto(&zeros, a, b)
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

#[test]
fn matmul_family_is_the_serial_fma_chain_at_every_tile_edge() {
    // Shapes straddle every edge of the packed driver: the 4-row quad, the
    // 16-column panel (conv widths 8/12/24/27 included), the 128-column
    // block and the 256-step reduction block. The largest splits its rows.
    assert_eq!(parts_at_width_2(67, 300 * 600), 2);
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

/// A 0/1 matrix of density ≈ 0.29, as the binary-feature datasets hold:
/// every eighth zero is −0, row 0 is all zeros and the last row (when
/// there is more than one) all ones.
fn indicator_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    let mut data: Vec<f32> = (0..rows * cols)
        .map(|i| match (rng.uniform() < 0.29, i % 8) {
            (true, _) => 1.0,
            (false, 0) => -0.0,
            (false, _) => 0.0,
        })
        .collect();
    data[..cols].fill(0.0);
    if rows > 1 {
        data[(rows - 1) * cols..].fill(1.0);
    }
    Tensor::from_vec(data, &[rows, cols]).expect("shape")
}

/// Bit equality, with any NaN matching any NaN.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

/// `a · b` through `matmul` and `prior + a · b` through `add_t_matmul` (over
/// the stored transpose of `a`), at every pool width, against the serial
/// chain.
fn assert_products_are_the_chain(a: &Tensor, b: &Tensor, prior: &Tensor, case: &str) {
    let want = serial_fma_onto(&vec![0.0; prior.len()], a, b);
    let want_resumed = serial_fma_onto(prior.as_slice(), a, b);
    let at = a.transpose().expect("2-d");
    let results = per_width(|| {
        let mut resumed = prior.clone();
        resumed.add_t_matmul(&at, b).expect("add_t_matmul");
        (a.matmul(b).expect("matmul"), resumed)
    });
    for (w, (product, resumed)) in WIDTHS.iter().zip(&results) {
        assert!(
            same_bits(product.as_slice(), &want),
            "matmul {case} left the serial chain at {w} threads"
        );
        assert!(
            same_bits(resumed.as_slice(), &want_resumed),
            "add_t_matmul {case} left the serial chain at {w} threads"
        );
    }
}

#[test]
fn indicator_products_are_the_serial_fma_chain_at_every_width() {
    // 0/1 left operands take the skip kernel; the sizes straddle its mask
    // word (64 reduction steps) and register block (64 columns), and the
    // pool's row partition.
    assert_eq!(parts_at_width_2(67, 600 * 1024), 2);
    let mut rng = Rng::seed_from(13);
    for k in [1, 63, 64, 65, 130, 600] {
        for n in [1, 7, 16, 17, 64, 65, 100, 1024] {
            let mut b = rng.randn(&[k, n]).as_slice().to_vec();
            b[0] = -0.0;
            let b = Tensor::from_vec(b, &[k, n]).expect("shape");
            for m in [1, 3, 4, 5, 64, 67] {
                let a = indicator_matrix(&mut rng, m, k);
                let prior = rng.randn(&[m, n]);
                assert_products_are_the_chain(&a, &b, &prior, &format!("{m}x{k}x{n}"));
            }
        }
    }
}

#[test]
fn indicator_fallbacks_are_the_serial_fma_chain() {
    // Each case breaks one precondition of the skip kernel, so the product
    // takes the packed path; a kernel that skipped anyway would differ
    // from the chain at the marked element's row or column. The rows split
    // at widths 2 and 4.
    let mut rng = Rng::seed_from(17);
    let (m, k, n) = (67, 130, 513);
    assert_eq!(parts_at_width_2(m, k * n), 2);
    let a = indicator_matrix(&mut rng, m, k);
    let b = rng.randn(&[k, n]);
    let prior = rng.randn(&[m, n]);
    // A 0.5 in `A`: in its first row, its last row, and its last word.
    for at in [0, (m - 1) * k, m * k - 1] {
        let mut half = a.as_slice().to_vec();
        half[at] = 0.5;
        let half = Tensor::from_vec(half, &[m, k]).expect("shape");
        assert_products_are_the_chain(&half, &b, &prior, &format!("0.5 at {at}"));
    }
    // A −0 in the resumed output, in the all-zero row 0 of `A`, where every
    // term is skipped.
    let mut signed = prior.as_slice().to_vec();
    signed[1] = -0.0;
    let signed = Tensor::from_vec(signed, &[m, n]).expect("shape");
    assert_products_are_the_chain(&a, &b, &signed, "-0 in the resumed output");
    // A non-finite `B`. The sanitizer rejects such an operand before any
    // kernel runs, so these cases run without it.
    if !cfg!(feature = "sanitize") {
        for (at, bad) in [
            (0, f32::INFINITY),
            (k * n / 2, f32::NEG_INFINITY),
            (k * n - 1, f32::NAN),
        ] {
            let mut poisoned = b.as_slice().to_vec();
            poisoned[at] = bad;
            let poisoned = Tensor::from_vec(poisoned, &[k, n]).expect("shape");
            assert_products_are_the_chain(&a, &poisoned, &prior, &format!("{bad} in B at {at}"));
        }
    }
}

#[test]
fn im2col_and_reductions_are_bit_identical_across_widths() {
    // A batch large enough that the lowering fans out at widths 2 and 4:
    // im2col partitions the 45 patch rows (each a copy of its 64·19·15
    // positions), col2im the 64 samples (each reads its 45 rows of 19·15
    // positions and writes 5·37·29 cells). Stride 2 takes the
    // strided-gather form of the run copy.
    let (patch, map, sample) = (5 * 3 * 3, 19 * 15, 5 * 37 * 29);
    assert_eq!(parts_at_width_2(patch, 8 * 64 * map), 2, "im2col");
    assert_eq!(
        parts_at_width_2(64, 4 * (map * patch + sample)),
        2,
        "col2im"
    );
    let mut rng = Rng::seed_from(8);
    let x = rng.randn(&[64, 5, 37, 29]);
    let geom = Conv2dGeom {
        channels: 5,
        height: 37,
        width: 29,
        kernel_h: 3,
        kernel_w: 3,
        stride: 2,
        padding: 1,
    };
    // Odd length: a partial trailing chunk. The sum reads 4 bytes per
    // element, in the reductions' fixed 4096-element chunks.
    let len: usize = 1_100_001;
    assert_eq!(parts_at_width_2(len.div_ceil(4096), 4 * 4096), 2, "sum");
    let v = rng.randn(&[len]);
    let u = rng.randn(&[len]);

    let results = per_width(|| {
        let cols = im2col2d(&x, &geom).expect("im2col2d");
        assert_eq!(cols.shape(), &[patch, 64 * map], "patch-major");
        let folded = col2im2d(&cols, 64, &geom).expect("col2im2d");
        let sum = v.sum();
        let dot = v.dot(&u).expect("dot");
        let norm = v.norm_l2();
        (
            bits(&cols),
            bits(&folded),
            sum.to_bits(),
            dot.to_bits(),
            norm.to_bits(),
        )
    });
    for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
        assert_eq!(
            r, &results[0],
            "im2col/col2im/reductions diverged at {w} threads"
        );
    }
}

#[test]
fn tanh_is_bit_identical_across_widths() {
    // Enough elements (4 bytes read and 4 written each) to split at widths
    // 2 and 4, and not a multiple of any partition or vector width.
    let len = 600_011;
    assert_eq!(parts_at_width_2(len, 8), 2);
    let x = Rng::seed_from(12).randn_with(&[len], 0.0, 3.0);
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
    // Every tap is live, so each of the 20 samples' forward products is
    // 8 output planes of 31·37 positions over 27 rows; the weight gradient
    // and the input gradient are as large, and all three split.
    let (n, map) = (20, 31 * 37);
    assert_eq!(parts_at_width_2(n, 8 * map * 27), 2);
    let results = per_width(|| {
        // Fresh layer per width from the same seed: identical weights, so
        // any divergence comes from the kernels, not the setup.
        let mut rng = Rng::seed_from(9);
        let mut conv = dinar_nn::conv::Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = rng.randn(&[n, 3, 31, 37]);
        let y = conv.forward(&x, true).expect("forward");
        let g = rng.randn(&[n, 8, 31, 37]);
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

/// FNV-1a over `words`, continuing from `h`.
fn fnv(mut h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    for word in words {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Three batch-64 Adam steps of `vgg11_mini` as a client takes them, pinned
/// at every width to one recorded digest: the logits, every gradient and
/// every parameter after each step. The conv and pool kernel rewrites
/// (lane-parallel max-pool, dead-tap pruning, the in-place weight-gradient
/// kernel, the blocked input-gradient fold) kept it bit for bit; it was
/// re-recorded once when the loss moved off libm `exp`/`ln` onto the
/// tensor crate's own softmax kernel.
///
/// A batch-64 step runs every kernel inline, so a fourth step at batch 192,
/// whose conv1 forward product (8 planes of 16·16 positions over 27 rows
/// per sample) splits at widths 2 and 4, must agree across widths too.
#[test]
fn vgg11_mini_adam_steps_are_the_recorded_digest_at_every_width() {
    use dinar_nn::loss::CrossEntropyLoss;
    use dinar_nn::optim::{Adam, Optimizer};
    const RECORDED: u64 = 0xa67a_1ef0_0414_2a10;
    assert_eq!(parts_at_width_2(192, 8 * 16 * 16 * 27), 2);
    let results = per_width(|| {
        let mut rng = Rng::seed_from(13);
        let mut model = models::vgg11_mini(3, 43, &mut rng).expect("vgg11_mini");
        let mut opt = Adam::new(1e-3);
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut recorded = 0;
        for (step, batch) in [64, 64, 64, 192].into_iter().enumerate() {
            if step == 3 {
                recorded = h;
            }
            let x = rng.randn(&[batch, 3, 16, 16]);
            let labels: Vec<usize> = (0..batch).map(|i| (i * 7 + h as usize) % 43).collect();
            let logits = model.forward(&x, true).expect("forward");
            let (_, grad) = CrossEntropyLoss
                .loss_and_grad(&logits, &labels)
                .expect("loss");
            model.zero_grad();
            model.backward(&grad).expect("backward");
            h = fnv(h, bits(&logits));
            for g in model.grads_mut() {
                h = fnv(h, bits(g));
            }
            opt.step(&mut model).expect("adam");
            h = fnv(h, model.params().to_flat().iter().map(|x| x.to_bits()));
        }
        (recorded, h)
    });
    for (w, &(digest, wide)) in WIDTHS.iter().zip(&results) {
        assert_eq!(
            digest, RECORDED,
            "vgg11_mini steps at {w} threads: {digest:#018x}"
        );
        assert_eq!(wide, results[0].1, "batch-192 step at {w} threads");
    }
}

#[test]
fn cross_entropy_is_bit_identical_across_widths() {
    use dinar_nn::loss::CrossEntropyLoss;
    // The loss opens no parallel region (its rows run in order on the
    // caller), so no case splits; this pins that its bits ignore the width.
    // Batch-64 × 100 classes is the fcnn6 step's shape, 300 × 43 a taller
    // batch, and 5 × 7 leaves ragged lanes.
    for (rows, cols) in [(64, 100), (300, 43), (5, 7)] {
        let mut rng = Rng::seed_from(rows as u64);
        let logits = rng.randn_with(&[rows, cols], 0.0, 4.0);
        let labels: Vec<usize> = (0..rows).map(|i| (i * 13) % cols).collect();
        let results = per_width(|| {
            let (loss, grad) = CrossEntropyLoss
                .loss_and_grad(&logits, &labels)
                .expect("loss");
            let per = CrossEntropyLoss
                .per_sample(&logits, &labels)
                .expect("per-sample");
            let probs = dinar_nn::loss::softmax_rows(&logits).expect("softmax");
            let per: Vec<u32> = per.iter().map(|x| x.to_bits()).collect();
            (loss.to_bits(), bits(&grad), per, bits(&probs))
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0], "{rows}×{cols}");
        }
    }
}

#[test]
fn model_forward_backward_is_bit_identical_across_widths() {
    // The first layer's 37 × 601 · 601 × 263 product splits its rows.
    assert_eq!(parts_at_width_2(37, 601 * 263), 2);
    let results = per_width(|| {
        let mut rng = Rng::seed_from(10);
        let mut model = models::mlp(&[601, 263, 11], Activation::ReLU, &mut rng).expect("mlp");
        let x = rng.randn(&[37, 601]);
        let y = model.forward(&x, true).expect("forward");
        let g = rng.randn(&[37, 11]);
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
            results[0]
                .2
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<u32>>(),
            "model params diverged at {w} threads"
        );
    }
}

#[test]
fn fl_round_is_bit_identical_across_widths() {
    // Each client is an item of `par::map_items_mut`: a grain at least.
    assert_eq!(parts_at_width_2(3, par::GRAIN), 2);
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
    digest_parts(&bits(ds.features()), ds.labels(), after)
}

/// [`dataset_digest`] over a dataset given as feature bits and labels.
fn digest_parts(features: &[u32], labels: &[usize], after: RngState) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    features.iter().for_each(|&x| eat(u64::from(x)));
    labels.iter().for_each(|&l| eat(l as u64));
    after.words.iter().for_each(|&w| eat(w));
    eat(after
        .gauss_cache
        .map_or(u64::MAX, |z| u64::from(z.to_bits())));
    h
}

#[test]
fn catalog_mini_datasets_are_the_serial_generators_at_every_width() {
    // Seed 42. Purchase100 and Texas100 were recorded from the serial
    // generator (one stream walked row by row) before generation went
    // row-parallel; the five image and audio digests from the counter-based
    // stream layout (`dinar_data::synth`), which the scalar reference below
    // reproduces element by element. Purchase100's 2400 rows of 600
    // features and GTSRB's 1600 rows of 768 (4 bytes written each) split.
    assert_eq!(parts_at_width_2(2400, 4 * 600), 2);
    assert_eq!(parts_at_width_2(1600, 4 * 768), 2);
    let serial = [
        ("cifar10", 0xd786_9a62_bda9_1fba_u64),
        ("cifar100", 0xa518_d21c_9fd8_40f5),
        ("gtsrb", 0xe4d0_c4e5_96dd_7357),
        ("celeba", 0xcbb9_0127_d712_2307),
        ("speech_commands", 0xe480_85a2_7ed9_9acd),
        ("purchase100", 0xfd76_e68d_01e2_9c84),
        ("texas100", 0xceae_a80e_62f1_15f0),
    ];
    let entries = catalog::all(Profile::Mini);
    let reference: Vec<u64> = entries
        .iter()
        .map(|entry| {
            let mut rng = Rng::seed_from(42);
            let (bits, labels) = reference_generate(&entry.spec, &mut rng);
            digest_parts(&bits, &labels, rng.state())
        })
        .collect();
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
        for (((name, got), (want_name, want)), reference) in
            result.iter().zip(serial).zip(&reference)
        {
            assert_eq!(name, want_name);
            assert_eq!(
                got, reference,
                "{name} left the scalar reference at {w} threads: {got:#018x}"
            );
            assert_eq!(
                *got, want,
                "{name} left its recorded digest at {w} threads: {got:#018x}"
            );
        }
    }
}

/// A scalar reference of the generators: tabular specs as the serial walk
/// of one stream, image and audio specs as the counter-based stream layout
/// of `dinar_data::synth`'s module docs, element by element through
/// [`CbRng::ref_normal_pair`]. Returns the shuffled features as bits, and
/// the labels.
fn reference_generate(spec: &SynthSpec, rng: &mut Rng) -> (Vec<u32>, Vec<usize>) {
    let (n, classes, flen) = (
        spec.num_samples,
        spec.num_classes,
        spec.modality.feature_len(),
    );
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
        let stream = CbRng::new(rng.next_u64(), rng.next_u64());
        let z = |p: usize| {
            let (z0, z1) = stream.ref_normal_pair(p / 2);
            if p.is_multiple_of(2) {
                z0
            } else {
                z1
            }
        };
        let (prototypes, shifts, first): (Vec<Vec<f32>>, Vec<usize>, usize) =
            if let Modality::Audio { len } = spec.modality {
                let prototypes = (0..classes).map(|_| waveform(rng, len)).collect();
                let shifts = (0..n)
                    .map(|_| if flen > 8 { rng.below(flen / 8) } else { 0 })
                    .collect();
                (prototypes, shifts, 0)
            } else {
                let prototypes = (0..classes)
                    .map(|c| (0..flen).map(|j| z(c * flen + j) * 1.0 + 0.0).collect())
                    .collect();
                (prototypes, vec![0; n], classes * flen)
            };
        for i in 0..n {
            let proto = &prototypes[i % classes];
            for j in 0..flen {
                let p = proto[(j + shifts[i]) % flen];
                data.push(p + z(first + i * flen + j) * spec.noise);
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

/// The audio prototype as the module docs define it: three sinusoids of a
/// frequency, a phase and an amplitude each.
fn waveform(rng: &mut Rng, len: usize) -> Vec<f32> {
    let components: Vec<(f32, f32, f32)> = (0..3)
        .map(|_| {
            (
                rng.uniform_in(1.0, 24.0),
                rng.uniform_in(0.0, std::f32::consts::TAU),
                rng.uniform_in(0.5, 1.0),
            )
        })
        .collect();
    (0..len)
        .map(|t| {
            let x = t as f32 / len as f32;
            components
                .iter()
                .map(|&(f, p, a)| a * (std::f32::consts::TAU * f * x + p).sin())
                .sum()
        })
        .collect()
}

#[test]
fn generation_leaves_the_callers_stream_where_the_serial_walk_does() {
    let image = |classes, [channels, height, width]: [usize; 3]| SynthSpec {
        name: "image".into(),
        num_classes: classes,
        num_samples: 20_001,
        modality: Modality::Image {
            channels,
            height,
            width,
        },
        noise: 0.7,
    };
    // An odd row length puts odd rows at odd stream positions, so parts
    // and rows start on the second half of a Box–Muller pair and off the
    // sampler's chunk grid; odd and even `classes · flen` start the rows on
    // either half. 20,001 rows of 105 features (4 bytes written each) split
    // at odd rows at widths 2 and 4.
    assert_eq!(parts_at_width_2(20_001, 4 * 105), 2);
    let audio = |len| SynthSpec {
        name: "audio".into(),
        num_classes: 7,
        num_samples: 20_001,
        modality: Modality::Audio { len },
        noise: 0.8,
    };
    let specs = [
        image(3, [3, 5, 7]), // flen 105, classes·flen 315
        image(4, [3, 5, 7]), // flen 105, classes·flen 420
        image(3, [2, 4, 8]), // flen 64
        audio(105),          // odd flen, shifts in 0..13
        audio(8),            // no shift
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
            want.push((reference_generate(spec, &mut rng), rng.state()));
        }
    }
    let results = per_width(|| {
        let mut got = Vec::new();
        for spec in &specs {
            for mut rng in callers() {
                let ds = spec.generate(&mut rng).expect("valid spec");
                let bits = ds
                    .features()
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                got.push(((bits, ds.labels().to_vec()), rng.state()));
            }
        }
        got
    });
    for (w, got) in WIDTHS.iter().zip(&results) {
        for (case, (g, want)) in got.iter().zip(&want).enumerate() {
            assert!(
                g.0 == want.0,
                "case {case}: dataset left the scalar reference at {w} threads"
            );
            assert_eq!(
                g.1, want.1,
                "case {case}: caller's stream left the scalar reference at {w} threads"
            );
        }
    }
}

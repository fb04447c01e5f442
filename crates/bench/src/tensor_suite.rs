//! The tensor micro-benchmark suite.
//!
//! The hot-kernel benchmarks (matmul family, im2col lowering, elementwise,
//! RNG, data generation, wire codecs) that the `BENCH_tensor` artifact
//! prints and records in `bench-results/BENCH_tensor.json`.
//!
//! Each measurement becomes a [`TensorBenchEntry`] row `(op, size,
//! ns_per_iter, threads)`, plus `gflops` on the matmul-family rows; `threads`
//! is the pool width the suite ran with ([`dinar_tensor::par::threads`]), so
//! recorded baselines are comparable across runners. Regeneration
//! instructions live in `crates/bench/README.md`.

use crate::timing::{bench, bench_batched, Config, Measurement};
use dinar_data::catalog::{self, Profile};
use dinar_nn::conv::Conv2d;
use dinar_nn::models::{self, Activation};
use dinar_nn::snapshot::{decode_params, decode_params_onto, encode_params, ErrorFeedback};
use dinar_nn::{Layer, NnError};
use dinar_tensor::conv::{col2im2d, im2col2d, Conv2dGeom};
use dinar_tensor::json::{Json, ToJson};
use dinar_tensor::wire::Codec;
use dinar_tensor::{par, Rng, Tensor};
use std::hint::black_box;

/// One benchmark result row of the tensor suite.
#[derive(Debug, Clone)]
pub struct TensorBenchEntry {
    /// Operation family (`matmul`, `im2col2d`, `scaled_add_assign`, ...).
    pub op: String,
    /// Problem-size label (`128x128x128`, `100k`, ...).
    pub size: String,
    /// Median wall time per iteration, in nanoseconds.
    pub ns_per_iter: f64,
    /// Worker-pool width the measurement ran with.
    pub threads: usize,
    /// Achieved GFLOP/s (`2·m·k·n` per iteration); matmul-family rows only.
    pub gflops: Option<f64>,
}

impl ToJson for TensorBenchEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("op", self.op.to_json()),
            ("size", self.size.to_json()),
            ("ns_per_iter", self.ns_per_iter.to_json()),
            ("threads", self.threads.to_json()),
        ];
        if let Some(gflops) = self.gflops {
            fields.push(("gflops", gflops.to_json()));
        }
        Json::obj(fields)
    }
}

fn entry(op: &str, size: &str, m: &Measurement) -> TensorBenchEntry {
    TensorBenchEntry {
        op: op.to_string(),
        size: size.to_string(),
        ns_per_iter: m.median_ns(),
        threads: par::threads(),
        gflops: None,
    }
}

/// Runs every benchmark in the suite and returns one entry per measurement.
///
/// `config` drives all benchmarks except the elementwise one, which uses
/// [`Config::heavy`] because each iteration needs a fresh (untimed) clone of
/// its input. Results also print as aligned lines, one per benchmark.
///
/// # Errors
///
/// Returns an error if a benchmark's operand shapes are inconsistent — each
/// routine is shape-checked once before its timed loop starts.
pub fn run(config: &Config) -> dinar_nn::Result<Vec<TensorBenchEntry>> {
    let mut entries = Vec::new();

    // The matmul family as logical products `m×k×n`: the square forward
    // shapes, the dense-backward transposed shapes, and the first-conv
    // forward shape (`W · cols`: 8 rows, the 16384 positions along `n`).
    type Product = fn(&Tensor, &Tensor) -> dinar_tensor::Result<Tensor>;
    let family: [(&str, Product, [usize; 3]); 6] = [
        ("matmul", Tensor::matmul, [32, 32, 32]),
        ("matmul", Tensor::matmul, [64, 64, 64]),
        ("matmul", Tensor::matmul, [128, 128, 128]),
        ("matmul", Tensor::matmul, [8, 27, 16384]),
        ("matmul_t", Tensor::matmul_t, [64, 128, 96]),
        ("t_matmul", Tensor::t_matmul, [128, 64, 96]),
    ];
    let mut rng = Rng::seed_from(0);
    for (op, product, [m, k, n]) in family {
        // The transposed entry points store that operand transposed.
        let a = rng.randn(&if op == "t_matmul" { [k, m] } else { [m, k] });
        let b = rng.randn(&if op == "matmul_t" { [n, k] } else { [k, n] });
        product(&a, &b)?; // shape-check once; the timed closure cannot fail
        let size = format!("{m}x{k}x{n}");
        let timed = bench(&format!("{op}_{size}"), config, || {
            black_box(product(&a, &b))
        });
        entries.push(TensorBenchEntry {
            gflops: Some(2.0 * (m * k * n) as f64 / timed.median_ns()),
            ..entry(op, &size, &timed)
        });
    }

    let mut rng = Rng::seed_from(2);
    let x = rng.randn(&[8, 8, 16, 16]);
    let geom = Conv2dGeom {
        channels: 8,
        height: 16,
        width: 16,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    let cols = im2col2d(&x, &geom)?;
    let m = bench("im2col2d_8x8x16x16_k3", config, || {
        black_box(im2col2d(&x, &geom))
    });
    entries.push(entry("im2col2d", "8x8x16x16_k3", &m));
    col2im2d(&cols, 8, &geom)?;
    let m = bench("col2im2d_8x8x16x16_k3", config, || {
        black_box(col2im2d(&cols, 8, &geom))
    });
    entries.push(entry("col2im2d", "8x8x16x16_k3", &m));

    // One training step (forward + backward) of vgg11_mini convolutions at
    // the DP-SGD batch: lowering, the three products, the layout swaps and
    // the gradient folds together. The first two convolutions, and the 4×4
    // and 2×2 maps, where a materialised patch matrix was copied in short
    // runs.
    for (c, hw, oc) in [(3, 16, 8), (8, 8, 12), (12, 4, 16), (16, 2, 24)] {
        let mut conv = Conv2d::new(c, oc, 3, 1, 1, &mut rng);
        let x = rng.randn(&[64, c, hw, hw]);
        let g = rng.randn(&[64, oc, hw, hw]);
        let mut step = || conv.forward(&x, true).and_then(|_| conv.backward(&g));
        step()?;
        let size = format!("64x{c}x{hw}x{hw}_to_{oc}");
        let m = bench(&format!("conv2d_step_{size}"), config, || black_box(step()));
        entries.push(entry("conv2d_step", &size, &m));
    }

    let mut rng = Rng::seed_from(3);
    let a = rng.randn(&[100_000]);
    let b = rng.randn(&[100_000]);
    let mut probe = a.clone();
    probe.scaled_add_assign(0.5, &b)?;
    let m = bench_batched(
        "scaled_add_assign_100k",
        &Config::heavy(),
        || a.clone(),
        |mut t| {
            let _ = t.scaled_add_assign(0.5, &b); // shape-checked above
            black_box(t)
        },
    );
    entries.push(entry("scaled_add_assign", "100k", &m));

    // The Tanh activation at the fcnn6 hidden shape (batch 64 × 64 units).
    let mut rng = Rng::seed_from(5);
    let x = rng.randn(&[64, 64]);
    let m = bench("tanh_64x64", config, || black_box(x.tanh()));
    entries.push(entry("tanh", "64x64", &m));

    let mut rng = Rng::seed_from(4);
    let m = bench("randn_100k", config, || black_box(rng.randn(&[100_000])));
    entries.push(entry("randn", "100k", &m));

    // Allocation-free sampler variants over the same 100k draw: the
    // (randn − randn_into) gap is the tensor-allocation cost, and either
    // row's ns_per_iter ÷ 100_000 is the bulk sampler's ns/element.
    let mut out = Tensor::zeros(&[100_000]);
    let m = bench("randn_into_100k", config, || {
        rng.randn_into(&mut out);
        black_box(&out);
    });
    entries.push(entry("randn_into", "100k", &m));

    let mut buf = vec![0.0f32; 100_000];
    let m = bench("fill_normal_100k", config, || {
        rng.fill_normal(&mut buf);
        black_box(&buf);
    });
    entries.push(entry("fill_normal", "100k", &m));

    // Data generation, the largest set-up cost of the round workloads: the
    // tabular and image catalog datasets the `fcnn_dinar` and `vgg_ldp`
    // benchmarks draw, from one seed.
    for catalog_entry in [
        catalog::purchase100(Profile::Mini),
        catalog::gtsrb(Profile::Mini),
    ] {
        let size = format!("{}_mini", catalog_entry.name());
        catalog_entry
            .generate(&mut Rng::seed_from(7))
            .map_err(|e| NnError::InvalidConfig {
                reason: e.to_string(),
            })?;
        let m = bench(&format!("generate_{size}"), config, || {
            black_box(catalog_entry.generate(&mut Rng::seed_from(7)))
        });
        entries.push(entry("generate", &size, &m));
    }

    // The wire plane at the `comm_wdp_i8` model (`mlp[600,1024,100]`,
    // 717,924 parameters): one client's whole lossy uplink — delta, error
    // feedback (residual present), i8 encode — the server's decode of it
    // onto its base, and the lossless pair the downlink pays.
    let mut rng = Rng::seed_from(6);
    let base = models::mlp(&[600, 1024, 100], Activation::ReLU, &mut rng)?.params();
    let mut trained = base.share();
    trained.map_inplace(|x| x * 1.01 + 1e-3);
    let size = base.param_count().to_string();
    let mut feedback = ErrorFeedback::new();
    let frame = feedback.compress_delta(&trained, &base, Codec::QuantI8)?;
    let m = bench(&format!("uplink_delta_quant_i8_{size}"), config, || {
        black_box(feedback.compress_delta(&trained, &base, Codec::QuantI8))
    });
    entries.push(entry("uplink_delta_quant_i8", &size, &m));
    decode_params_onto(&frame, &base)?;
    let m = bench(&format!("decode_onto_quant_i8_{size}"), config, || {
        black_box(decode_params_onto(&frame, &base))
    });
    entries.push(entry("decode_onto_quant_i8", &size, &m));
    let frame = encode_params(&base, Codec::F32)?;
    let m = bench(&format!("encode_f32_{size}"), config, || {
        black_box(encode_params(&base, Codec::F32))
    });
    entries.push(entry("encode_f32", &size, &m));
    decode_params(&frame)?;
    let m = bench(&format!("decode_f32_{size}"), config, || {
        black_box(decode_params(&frame))
    });
    entries.push(entry("decode_f32", &size, &m));

    Ok(entries)
}

/// The suite's JSON artifact: `{ threads, entries: [...] }`.
pub fn to_json(entries: &[TensorBenchEntry]) -> Json {
    Json::obj([
        ("threads", par::threads().to_json()),
        ("entries", entries.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn suite_runs_and_serializes() {
        // A near-zero config keeps this a smoke test, not a benchmark.
        let config = Config {
            warmup: Duration::from_millis(0),
            samples: 1,
            target_sample: Duration::from_millis(0),
        };
        let entries = run(&config).expect("static shapes are consistent");
        assert_eq!(entries.len(), 23);
        assert!(entries.iter().all(|e| e.ns_per_iter > 0.0));
        assert!(entries.iter().all(|e| e.threads == par::threads()));

        let json = to_json(&entries);
        let back = Json::parse(&json.dump_pretty()).expect("emitter output parses");
        let rows = back.get("entries").and_then(Json::as_arr).expect("entries");
        assert_eq!(rows.len(), 23);
        assert_eq!(
            rows[2].get("op").and_then(Json::as_str),
            Some("matmul"),
            "third row is matmul/128"
        );
        assert_eq!(
            rows[2].get("size").and_then(Json::as_str),
            Some("128x128x128")
        );
        // `gflops` rides on the six matmul-family rows only.
        let with_gflops = rows.iter().filter(|r| r.get("gflops").is_some()).count();
        assert_eq!(with_gflops, 6);
    }
}

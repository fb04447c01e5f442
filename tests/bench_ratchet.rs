//! Perf ratchets over committed bench artifacts.
//!
//! Tensor kernels: the committed `bench-results/BENCH_tensor.json` must
//! keep showing the speedups the bulk-sampling + microkernel rewrite
//! bought, measured against the pre-rewrite numbers frozen below.
//!
//! `tanh` kernel: the committed `tanh` 64×64 row must stay ≥5× under the
//! libm reading frozen before the vectorised rational kernel replaced it.
//!
//! Packed GEMM driver: the transposed products (`matmul_t`, `t_matmul`) go
//! through the same register tile as `matmul`, so the committed artifact must
//! keep them within [`TRANSPOSED_MATMUL_CAP`] of `matmul` 128³ per FLOP.
//!
//! Patch-major conv lowering: the committed `im2col2d` row must stay ≥2.5×
//! under the per-element row-major lowering it replaced, and the conv-shaped
//! `matmul` 8×27×16384 (`W · cols`, positions along the register tile's
//! lanes) within [`CONV_MATMUL_CAP`] of `matmul` 128³ per FLOP.
//!
//! Implicit-GEMM conv: the committed `conv2d_step` 64×12×4×4 → 16 row (a
//! `vgg11_mini` conv at a 4×4 map) must stay ≥1.2× under the step that
//! materialised and cached its patch matrix.
//!
//! Fused uplink: the committed `uplink_delta_quant_i8` row (one client's
//! delta + error feedback + i8 encode at the `comm_wdp_i8` model) must stay
//! ≥3× under the materialize-encode-decode-subtract pipeline it replaced.
//!
//! Row-parallel data generation: the committed `generate` purchase100-mini
//! row must stay ≥1.5× under the serial generator it replaced, at width 1 —
//! the branch-free Bernoulli test and the rows drawn straight into their
//! shuffled places, not the fan-out, carry it there.
//!
//! Training-step profile: the committed `bench-results/step_profile.json`
//! (one `paper -- step_profile` run, so every row shares one provenance)
//! must keep the `vgg11_mini` step where the lane-parallel max-pool and the
//! conv backward rewrite put it: the max-pool forward share of the width-1
//! step under [`MAXPOOL_FWD_SHARE_CAP`], and conv backward ÷ conv forward
//! under [`CONV_BWD_FWD_CAP`]. Both are same-run ratios, so a slower host
//! moves neither.
//!
//! Telemetry overhead: the committed `bench-results/BENCH_telemetry.json`
//! must keep showing that a fully instrumented FL training run stays
//! within [`TELEMETRY_OVERHEAD_CAP`] of the uninstrumented run —
//! observation is near-free, so no experiment has a perf reason to turn
//! telemetry off.
//!
//! Like `tests/param_plane.rs`, this ratchets the committed artifact rather
//! than timing inside the test — test-process timing is too noisy to gate
//! on, while the artifact is regenerated deliberately (`cargo run --release
//! -p dinar-bench --bin paper -- BENCH_tensor`, which pins pool width 1
//! itself) and reviewed when committed. [`load_entries`] rejects a row recorded at
//! any other pool width: a kernel that fans out on a small host reads many
//! times slower, which would trip or loosen every ratchet below. The
//! reference constants are *not* read from `BENCH_tensor_baseline.json` on
//! purpose: that file tracks the current accepted single-thread numbers and
//! moves forward over time, whereas the denominators here are the
//! pre-rewrite scalar implementations and must stay frozen for the ratchet
//! to mean anything.

use dinar_tensor::json::Json;
use std::path::Path;

/// `randn(&[100_000])`, scalar Box–Muller through `gauss_cache`, one draw
/// per element (single thread, this repo's reference runner).
const PRE_REWRITE_RANDN_100K_NS: f64 = 1_900_000.0;
/// 128×128×128 `matmul`, cache-blocked loops without the register-blocked
/// FMA microkernel (single thread, same runner).
const PRE_REWRITE_MATMUL_128_NS: f64 = 285_970.0;

/// `tanh` over a 64×64 `randn` activation (the fcnn6 hidden shape) through
/// glibc `tanhf`, one scalar call per element (single thread, same runner;
/// three runs read medians of 63.7–81.7 µs with a fastest sample of 57.9 µs
/// on a noisy host — frozen below all of them, so the ratchet errs strict).
const PRE_REWRITE_TANH_4096_NS: f64 = 56_000.0;

/// `im2col2d` of an 8×8×16×16 batch (3×3, stride 1, padding 1) into the
/// row-major patch matrix: one output row per position, two signed compares
/// per element (single thread, same runner; the last committed reading).
const PRE_REWRITE_IM2COL_8X8X16X16_NS: f64 = 257_848.0;

/// One forward + backward of `Conv2d(12 → 16, 3×3, stride 1, padding 1)` on a
/// 64×12×4×4 batch while the layer built its `[108, 1024]` patch matrix by
/// row-run copies, cached it, and folded the input gradient run by run
/// (single thread, same runner; median of 20 samples).
const PRE_IMPLICIT_CONV_STEP_4X4_NS: f64 = 489_270.0;

/// One client's lossy uplink at the `comm_wdp_i8` model (717,924
/// parameters, residual present) as it ran before the sweeps were fused:
/// `params.sub(global)` (1.1 ms) + `ErrorFeedback::compress` (5.4 ms: COW
/// copy + residual add, scale scan, a `put_i8` per element, a decode of the
/// frame just written, `sub` for the residual). Single thread, same runner.
const PRE_REWRITE_UPLINK_718K_NS: f64 = 6_500_000.0;

/// `catalog::purchase100(Profile::Mini).generate` (2,400 × 600 binary
/// features) while one stream was walked serially, each Bernoulli test a
/// branch on an `f32` compare and the rows shuffled by a copy (single
/// thread, same runner; three runs read medians of 31.0–33.7 ms — frozen
/// at the lowest).
const PRE_PARALLEL_GENERATE_PURCHASE100_MINI_NS: f64 = 30_970_000.0;

/// Cost per multiply-add the first-conv forward product `W · cols`
/// (8×27×16384) may reach relative to `matmul` 128³: two row quads and a
/// 27-step reduction amortise the packing far less than a square product.
/// Reads 1.7–1.95 on a quiet host. Its 2.3 MB of operands spill the caches
/// the 128³ product sits in, so on a shared host other tenants' traffic has
/// pushed single readings to 2.4: regenerate the artifact when it is quiet.
const CONV_MATMUL_CAP: f64 = 2.0;

/// Cost per multiply-add a transposed product may reach relative to
/// `matmul` 128³: the packing absorbs the layout, the tile is shared.
const TRANSPOSED_MATMUL_CAP: f64 = 1.5;

/// Share of a width-1 `vgg11_mini` step the max-pool forward may take: the
/// reached share, 0.0297 (87.5 of 2,948 µs), with 15 % headroom. The
/// per-window scalar scan it replaced read 0.102.
const MAXPOOL_FWD_SHARE_CAP: f64 = 0.034;

/// Conv backward ÷ conv forward of a width-1 `vgg11_mini` step: the reached
/// ratio, 1.99 (1,624 / 815 µs), with 15 % headroom. With the weight
/// gradient through the GEMM tile and the input-gradient product built
/// whole it read 3.04.
const CONV_BWD_FWD_CAP: f64 = 2.29;

/// Instrumented / uninstrumented FL-run ratio the committed telemetry
/// bench must stay under: within 5%.
const TELEMETRY_OVERHEAD_CAP: f64 = 1.05;

fn load_entries(path: &Path) -> Vec<(String, String, f64)> {
    let stem = path.file_stem().map_or_else(String::new, |s| s.to_string_lossy().into_owned());
    let regenerate =
        format!("regenerate with `cargo run --release -p dinar-bench --bin paper -- {stem}`");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{} must be committed ({regenerate}): {e}", path.display()));
    parse_entries(&text, &regenerate)
}

/// The `(op, size, ns_per_iter)` rows of a bench report. Every row must have
/// been measured at pool width 1: the frozen constants are single-thread
/// readings.
fn parse_entries(text: &str, regenerate: &str) -> Vec<(String, String, f64)> {
    let json = Json::parse(text).expect("committed bench report parses");
    json.get("entries")
        .and_then(Json::as_arr)
        .expect("report has entries")
        .iter()
        .map(|row| {
            let field = |k: &str| {
                row.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("row missing {k}"))
                    .to_string()
            };
            let ns = row
                .get("ns_per_iter")
                .and_then(Json::as_f64)
                .expect("row has ns_per_iter");
            let (op, size) = (field("op"), field("size"));
            let threads = row.get("threads").and_then(Json::as_usize);
            assert!(
                threads == Some(1),
                "{op}/{size} was recorded at pool width {threads:?}, not 1: {regenerate}"
            );
            (op, size, ns)
        })
        .collect()
}

#[test]
#[should_panic(expected = "recorded at pool width Some(2), not 1: regenerate with")]
fn rows_recorded_at_another_pool_width_are_rejected() {
    let report = r#"{"threads": 2, "entries": [
        {"op": "im2col2d", "size": "8x8x16x16_k3", "ns_per_iter": 898000.0, "threads": 2}]}"#;
    parse_entries(report, "regenerate with `cargo run .. paper -- BENCH_tensor`");
}

fn ns_for(entries: &[(String, String, f64)], op: &str, size: &str) -> f64 {
    entries
        .iter()
        .find(|(o, s, _)| o == op && s == size)
        .unwrap_or_else(|| panic!("committed bench report has no {op}/{size} row"))
        .2
}

#[test]
fn bulk_sampler_holds_4x_over_scalar_draws() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_tensor.json"));
    let ns = ns_for(&entries, "randn", "100k");
    assert!(
        ns * 4.0 <= PRE_REWRITE_RANDN_100K_NS,
        "randn 100k at {ns:.0} ns/iter is not ≥4× under the pre-rewrite \
         {PRE_REWRITE_RANDN_100K_NS:.0} ns/iter"
    );
}

#[test]
fn microkernel_matmul_holds_2x_over_blocked_loops() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_tensor.json"));
    let ns = ns_for(&entries, "matmul", "128x128x128");
    assert!(
        ns * 2.0 <= PRE_REWRITE_MATMUL_128_NS,
        "matmul 128³ at {ns:.0} ns/iter is not ≥2× under the pre-rewrite \
         {PRE_REWRITE_MATMUL_128_NS:.0} ns/iter"
    );
}

#[test]
fn vectorised_tanh_holds_5x_over_libm() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_tensor.json"));
    let ns = ns_for(&entries, "tanh", "64x64");
    assert!(
        ns * 5.0 <= PRE_REWRITE_TANH_4096_NS,
        "tanh 64x64 at {ns:.0} ns/iter is not ≥5× under the pre-rewrite \
         {PRE_REWRITE_TANH_4096_NS:.0} ns/iter — the elementwise loop stopped \
         vectorising, or libm is back"
    );
}

#[test]
fn run_copy_im2col_holds_2_5x_over_per_element_lowering() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_tensor.json"));
    let ns = ns_for(&entries, "im2col2d", "8x8x16x16_k3");
    assert!(
        ns * 2.5 <= PRE_REWRITE_IM2COL_8X8X16X16_NS,
        "im2col2d 8x8x16x16_k3 at {ns:.0} ns/iter is not ≥2.5× under the \
         pre-rewrite {PRE_REWRITE_IM2COL_8X8X16X16_NS:.0} ns/iter — the lowering \
         is back to per-element gathers"
    );
}

#[test]
fn implicit_gemm_conv_step_holds_1_2x_at_a_4x4_map() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_tensor.json"));
    let ns = ns_for(&entries, "conv2d_step", "64x12x4x4_to_16");
    assert!(
        ns * 1.2 <= PRE_IMPLICIT_CONV_STEP_4X4_NS,
        "conv2d_step 64x12x4x4_to_16 at {ns:.0} ns/iter is not ≥1.2× under the \
         materialised-lowering {PRE_IMPLICIT_CONV_STEP_4X4_NS:.0} ns/iter — a conv \
         layer is building its patch matrix again"
    );
}

#[test]
fn fused_uplink_holds_3x_over_the_decode_own_frame_pipeline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_tensor.json"));
    let ns = ns_for(&entries, "uplink_delta_quant_i8", "717924");
    assert!(
        ns * 3.0 <= PRE_REWRITE_UPLINK_718K_NS,
        "uplink_delta_quant_i8 717924 at {ns:.0} ns/iter is not ≥3× under the \
         pre-rewrite {PRE_REWRITE_UPLINK_718K_NS:.0} ns/iter — the uplink is \
         materializing its delta or decoding its own frame again"
    );
    // The server's half and the lossless pair are recorded beside it.
    for op in ["decode_onto_quant_i8", "encode_f32", "decode_f32"] {
        assert!(ns_for(&entries, op, "717924") > 0.0, "{op} row is empty");
    }
}

#[test]
fn tabular_generation_holds_1_5x_over_the_serial_walk() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_tensor.json"));
    let ns = ns_for(&entries, "generate", "purchase100_mini");
    assert!(
        ns * 1.5 <= PRE_PARALLEL_GENERATE_PURCHASE100_MINI_NS,
        "generate purchase100_mini at {ns:.0} ns/iter is not ≥1.5× under the \
         serial {PRE_PARALLEL_GENERATE_PURCHASE100_MINI_NS:.0} ns/iter — the \
         Bernoulli test branches again, or the rows are shuffled by a copy"
    );
    assert!(ns_for(&entries, "generate", "gtsrb_mini") > 0.0, "gtsrb_mini row is empty");
}

/// ns per multiply-add of a matmul-family row, from its `MxKxN` size label.
fn ns_per_mac(entries: &[(String, String, f64)], op: &str, size: &str) -> f64 {
    let macs: f64 = size
        .split('x')
        .map(|d| d.parse::<f64>().expect("matmul-family size is MxKxN"))
        .product();
    ns_for(entries, op, size) / macs
}

#[test]
fn transposed_products_stay_within_cap_of_matmul_per_flop() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_tensor.json"));
    let matmul = ns_per_mac(&entries, "matmul", "128x128x128");
    for (op, size) in [("matmul_t", "64x128x96"), ("t_matmul", "128x64x96")] {
        let ns = ns_per_mac(&entries, op, size);
        assert!(
            ns <= matmul * TRANSPOSED_MATMUL_CAP,
            "{op} {size} at {ns:.4} ns/MAC is over {TRANSPOSED_MATMUL_CAP}× the \
             matmul 128³ {matmul:.4} ns/MAC — the transposed product left the \
             shared packed tile"
        );
    }
}

#[test]
fn conv_shaped_matmul_stays_within_cap_of_matmul_per_flop() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_tensor.json"));
    let matmul = ns_per_mac(&entries, "matmul", "128x128x128");
    let ns = ns_per_mac(&entries, "matmul", "8x27x16384");
    assert!(
        ns <= matmul * CONV_MATMUL_CAP,
        "matmul 8x27x16384 at {ns:.4} ns/MAC is over {CONV_MATMUL_CAP}× the \
         matmul 128³ {matmul:.4} ns/MAC — the conv forward product lost the \
         straight-copy pack or its positions left the tile's lane axis"
    );
}

#[test]
fn instrumented_fl_run_stays_within_five_percent_of_uninstrumented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_telemetry.json"));
    let size = "2c2r";
    let with_tel = ns_for(&entries, "fl_run_instrumented", size);
    let without = ns_for(&entries, "fl_run_uninstrumented", size);
    assert!(without > 0.0, "uninstrumented row is empty");
    assert!(
        with_tel <= without * TELEMETRY_OVERHEAD_CAP,
        "instrumented FL run at {with_tel:.0} ns is {:.2}% over the \
         uninstrumented {without:.0} ns — telemetry overhead broke the \
         {TELEMETRY_OVERHEAD_CAP}x ratchet",
        (with_tel / without - 1.0) * 100.0
    );
}

#[test]
fn telemetry_rows_cover_recorder_ledger_and_exporters() {
    // The suite must keep pricing the observability primitives: the armed
    // flight-recorder event, the deterministic counter, the span pair, the
    // ledger charge, and both exporters. Bounds are sanity checks (well
    // above measured values), not ratchets: a primitive that suddenly
    // costs microseconds has lost its lock-free/O(1) implementation.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_telemetry.json"));
    for (op, size, max_ns) in [
        ("flight_record", "1", 10_000.0),
        ("counter_add", "1", 10_000.0),
        ("span_enter_exit", "1", 50_000.0),
        ("privacy_charge", "1", 10_000.0),
        ("trace_export", "1024_spans", 1e9),
        ("jsonl_export", "1024_spans", 1e9),
        ("flight_dump", "4096_events", 1e9),
    ] {
        let ns = ns_for(&entries, op, size);
        assert!(ns > 0.0, "{op} row is empty");
        assert!(ns <= max_ns, "{op} at {ns:.0} ns/iter exceeds {max_ns:.0}");
    }
}

/// Minimum uplink compression the 1-bit sign codec must keep delivering
/// over the raw-f32 wire baseline. The theoretical ceiling is 32× (one bit
/// per f32) minus framing and per-tensor scales; the committed artifact
/// measures ~31.6×, so 8× leaves generous headroom while still catching a
/// regression to un-packed or un-delta'd uploads.
const WIRE_SIGN1_MIN_RATIO: f64 = 8.0;

#[test]
fn wire_compression_ratio_holds_8x() {
    // Unlike the timing ratchets above, bytes-per-round is a pure function
    // of the model architecture and codec — the committed artifact is
    // bit-reproducible, so this ratchet can sit close to exact.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("bench-results/BENCH_wire.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} must be committed (regenerate with `cargo run --release -p \
             dinar-bench --bin paper -- BENCH_wire`): {e}",
            path.display()
        )
    });
    let json = Json::parse(&text).expect("committed wire report parses");
    let rows = json.as_arr().expect("wire report is an array of rows");
    let up_bytes = |codec: &str| -> f64 {
        rows.iter()
            .find(|r| r.get("codec").and_then(Json::as_str) == Some(codec))
            .unwrap_or_else(|| panic!("wire report has no {codec} row"))
            .get("bytes_up_per_round")
            .and_then(Json::as_f64)
            .expect("row has bytes_up_per_round")
    };
    let f32_up = up_bytes("f32");
    let sign1_up = up_bytes("sign1");
    assert!(f32_up > 0.0 && sign1_up > 0.0, "empty byte columns");
    let ratio = f32_up / sign1_up;
    assert!(
        ratio >= WIRE_SIGN1_MIN_RATIO,
        "sign1 uplink at {sign1_up:.0} B/round vs f32 {f32_up:.0} B/round \
         is only {ratio:.1}x — below the {WIRE_SIGN1_MIN_RATIO}x wire ratchet"
    );
    // The quantized-i8 path must also beat raw f32 (≈4× minus framing).
    let qi8 = up_bytes("quant_i8");
    assert!(
        f32_up / qi8 >= 3.0,
        "quant_i8 uplink compression fell under 3x ({:.1}x)",
        f32_up / qi8
    );
}

/// Minimum resident-weight-bytes shrink the quant_i8 serving path must
/// keep delivering over f32 serving. The theoretical ceiling is 4× (one
/// i8 per f32) minus the per-tensor scale and the always-dense biases;
/// the committed artifact measures ~3.98×, so 2× leaves headroom while
/// still catching a regression to widened-at-load storage.
const SERVE_I8_MIN_BYTES_RATIO: f64 = 2.0;

#[test]
fn i8_serving_halves_resident_weight_bytes() {
    // Resident bytes are a pure function of the architecture and dtype, so
    // that column is bit-reproducible; throughput is measured, so its bound
    // is a generous sanity floor (the artifact shows i8 at parity or
    // better — dequantize-into-pooled-scratch never dominates the matmul).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("bench-results/BENCH_serve.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} must be committed (regenerate with `cargo run --release -p \
             dinar-bench --bin paper -- BENCH_serve`): {e}",
            path.display()
        )
    });
    let json = Json::parse(&text).expect("committed serve report parses");
    let rows = json.as_arr().expect("serve report is an array of rows");
    let row = |storage: &str| {
        rows.iter()
            .find(|r| r.get("storage").and_then(Json::as_str) == Some(storage))
            .unwrap_or_else(|| panic!("serve report has no {storage} row"))
    };
    let field = |storage: &str, key: &str| -> f64 {
        row(storage)
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{storage} row missing {key}"))
    };
    let f32_bytes = field("f32", "resident_weight_bytes");
    let i8_bytes = field("quant_i8", "resident_weight_bytes");
    assert!(f32_bytes > 0.0 && i8_bytes > 0.0, "empty byte columns");
    let ratio = f32_bytes / i8_bytes;
    assert!(
        ratio >= SERVE_I8_MIN_BYTES_RATIO,
        "quant_i8 serving at {i8_bytes:.0} resident B vs f32 {f32_bytes:.0} B \
         is only {ratio:.2}x smaller — below the {SERVE_I8_MIN_BYTES_RATIO}x \
         serving ratchet"
    );
    // "At equal batch throughput": the quantized path must not buy its
    // memory shrink with serving speed. Half of f32 throughput is a loose
    // floor against timing noise; the artifact measures ≥1× in practice.
    let f32_rps = field("f32", "rows_per_s");
    let i8_rps = field("quant_i8", "rows_per_s");
    assert!(
        i8_rps >= 0.5 * f32_rps,
        "quant_i8 serving at {i8_rps:.0} rows/s fell under half the f32 \
         throughput ({f32_rps:.0} rows/s)"
    );
}

#[test]
fn sampler_rows_cover_the_allocation_free_paths() {
    // The suite must keep reporting the allocation-free sampler entry
    // points; their per-element cost is what the defenses actually pay.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entries = load_entries(&root.join("bench-results/BENCH_tensor.json"));
    for op in ["randn_into", "fill_normal"] {
        let ns = ns_for(&entries, op, "100k");
        assert!(ns > 0.0, "{op} row is empty");
        // Sanity bound, not a ratchet: 10 ns/element leaves 2–3× headroom
        // over the measured ~3.5 ns/element without flaking across runners.
        assert!(
            ns <= 1_000_000.0,
            "{op} 100k at {ns:.0} ns/iter exceeds 10 ns/element"
        );
    }
}

/// `us_per_step` of the `gtsrb` (`vgg11_mini`) width-1 rows of the committed
/// step profile, by `(layer, pass)`.
fn vgg_step_rows() -> Vec<(String, String, f64)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench-results/step_profile.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} must be committed (regenerate with `cargo run --release -p dinar-bench --bin paper -- step_profile`): {e}",
            path.display()
        )
    });
    let json = Json::parse(&text).expect("step profile parses");
    let rows = json.as_arr().expect("step profile is a row list");
    let field = |row: &Json, k: &str| row.get(k).and_then(Json::as_str).map(str::to_string);
    rows.iter()
        .filter(|row| {
            field(row, "dataset").as_deref() == Some("gtsrb")
                && row.get("threads").and_then(Json::as_usize) == Some(1)
        })
        .map(|row| {
            let us = row.get("us_per_step").and_then(Json::as_f64).expect("row has us_per_step");
            (field(row, "layer").expect("layer"), field(row, "pass").expect("pass"), us)
        })
        .collect()
}

fn step_us(rows: &[(String, String, f64)], layer: &str, pass: &str) -> f64 {
    rows.iter()
        .find(|(l, p, _)| l == layer && p == pass)
        .unwrap_or_else(|| panic!("step profile has no gtsrb width-1 {layer}/{pass} row"))
        .2
}

#[test]
fn maxpool_forward_share_of_a_vgg_step_holds() {
    let rows = vgg_step_rows();
    let step: f64 = rows.iter().map(|r| r.2).sum();
    let share = step_us(&rows, "maxpool2d", "fwd") / step;
    assert!(
        share <= MAXPOOL_FWD_SHARE_CAP,
        "max-pool forward is {share:.3} of a vgg11_mini step, cap {MAXPOOL_FWD_SHARE_CAP}"
    );
}

#[test]
fn conv_backward_over_forward_of_a_vgg_step_holds() {
    let rows = vgg_step_rows();
    let ratio = step_us(&rows, "conv2d", "bwd") / step_us(&rows, "conv2d", "fwd");
    assert!(
        ratio <= CONV_BWD_FWD_CAP,
        "conv backward is {ratio:.2}× its forward in a vgg11_mini step, cap {CONV_BWD_FWD_CAP}"
    );
}

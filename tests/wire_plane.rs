//! The wire plane, end to end: tensor/model codec round-trips, corrupted
//! byte streams, and pool-width bit-identity of FL rounds whose every
//! model crosses the simulated network as encoded bytes.
//!
//! These tests also run under `--features sanitize`: the wire codec moves
//! raw bit patterns without arithmetic, so even non-finite payloads
//! round-trip without tripping the kernel sanitizers.

use dinar_fl::clock::ManualClock;
use dinar_fl::netsim::{Codec, LinkModel, NetworkModel};
use dinar_fl::{run_threaded_wire, FlConfig, FlSystem, ResilientRun, RoundPolicy, WireConfig};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::Sgd;
use dinar_nn::snapshot::{decode_params, decode_params_onto, encode_params, ErrorFeedback};
use dinar_nn::{LayerParams, ModelParams};
use dinar_tensor::alloc::MemoryScope;
use dinar_tensor::wire::{
    decode_tensor, encode_tensor, read_header, write_header, ByteReader, ByteWriter, MAGIC,
};
use dinar_tensor::{par, Rng, Tensor};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[path = "support/corruption.rs"]
mod corruption;

/// Serializes mutations of the process-global pool width across tests.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 3] = [1, 2, 4];

const ALL_CODECS: [Codec; 3] = [Codec::F32, Codec::Sign1, Codec::QuantI8];

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

fn tensor_roundtrip(t: &Tensor, codec: Codec) -> Tensor {
    let mut w = ByteWriter::with_capacity(64);
    write_header(&mut w, MAGIC, codec.tag());
    encode_tensor(t, codec, &mut w).expect("encode");
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    let decoded_codec =
        Codec::from_tag(read_header(&mut r, MAGIC).expect("header")).expect("codec");
    assert_eq!(decoded_codec, codec);
    let back = decode_tensor(&mut r, codec).expect("decode");
    r.finish().expect("no trailing bytes");
    back
}

/// Lossless round-trips are bit-identical over every shape class the
/// transport can produce: empty tensors, odd lengths that exercise the
/// sign-bit padding, and multi-dimensional shapes.
#[test]
fn f32_roundtrip_is_bit_identical_over_shape_classes() {
    let mut rng = Rng::seed_from(11);
    let shapes: Vec<Vec<usize>> = vec![
        vec![0],
        vec![1],
        vec![3],
        vec![7],
        vec![9],
        vec![15],
        vec![8, 0],
        vec![2, 3, 5],
        vec![1, 1, 1, 1],
        vec![64],
    ];
    for shape in &shapes {
        let t = rng.randn(shape);
        let back = tensor_roundtrip(&t, Codec::F32);
        assert_eq!(back.shape(), t.shape(), "{shape:?}");
        let bits: Vec<u32> = t.as_slice().iter().map(|x| x.to_bits()).collect();
        let back_bits: Vec<u32> = back.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, back_bits, "{shape:?}");
    }
}

/// Non-finite and subnormal payloads cross the lossless wire bit-exactly —
/// the codec moves bit patterns, not numbers (and under
/// `--features sanitize` this stays true: no kernel arithmetic runs).
#[test]
fn f32_roundtrip_preserves_nonfinite_bit_patterns() {
    let payload: Vec<f32> = [
        f32::NAN.to_bits(),
        (f32::NAN.to_bits() | 0x8000_0000),
        f32::INFINITY.to_bits(),
        f32::NEG_INFINITY.to_bits(),
        0x0000_0001, // smallest positive subnormal
        0x807F_FFFF, // largest negative subnormal
        0x8000_0000, // -0.0
        f32::MAX.to_bits(),
    ]
    .iter()
    .map(|&b| f32::from_bits(b))
    .collect();
    let t = Tensor::from_vec(payload.clone(), &[payload.len()]).expect("tensor");
    let back = tensor_roundtrip(&t, Codec::F32);
    for (a, b) in payload.iter().zip(back.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} lost its bit pattern");
    }
}

/// The lossy codecs round-trip every shape class to the right shape, and
/// re-encoding their own decode is a fixed point (idempotent on the
/// quantization grid).
#[test]
fn lossy_codecs_roundtrip_shapes_and_are_idempotent() {
    let mut rng = Rng::seed_from(12);
    for codec in [Codec::Sign1, Codec::QuantI8] {
        for shape in [vec![0], vec![1], vec![7], vec![9], vec![4, 3]] {
            let t = rng.randn(&shape);
            let once = tensor_roundtrip(&t, codec);
            assert_eq!(once.shape(), t.shape(), "{codec:?} {shape:?}");
            let twice = tensor_roundtrip(&once, codec);
            let a: Vec<u32> = once.as_slice().iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = twice.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "{codec:?} {shape:?} not idempotent");
        }
    }
}

/// Seeded fuzz over corrupted model streams under every codec, through
/// the corruption harness `tests/ckpt_plane.rs` shares: every truncation
/// and a spread of random bit flips must return a typed error or decode
/// garbage — and never panic, allocate absurdly, or loop.
#[test]
fn corrupted_model_streams_never_panic() {
    let mut rng = Rng::seed_from(99);
    let params = models::mlp(&[6, 5, 4], Activation::ReLU, &mut rng)
        .expect("model")
        .params();
    for codec in ALL_CODECS {
        let bytes = encode_params(&params, codec).expect("encode");
        corruption::assert_hardened(&format!("{codec:?}"), &bytes, 99, 200, decode_params);
    }
}

/// A parameter set over every length class the fused sweeps treat
/// differently (empty, one element, either side of the 8-bit sign packing
/// and of a 16-lane and a 128-element chunk), with an all-zero tensor and,
/// in the base, entries no arithmetic should be trusted with.
fn awkward_params(rng: &mut Rng, poisoned: bool) -> ModelParams {
    let lens = [0usize, 1, 15, 16, 17, 127, 128, 129];
    let mut tensors: Vec<Tensor> = lens.iter().map(|&n| rng.randn(&[n])).collect();
    tensors.push(Tensor::zeros(&[33]));
    tensors.push(rng.randn(&[3, 0, 5]));
    if poisoned {
        let special = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 2.0,
            -0.0,
        ];
        for t in &mut tensors {
            for (i, x) in t.as_mut_slice().iter_mut().enumerate().skip(2).step_by(5) {
                *x = special[(i / 5) % special.len()];
            }
        }
    }
    let (head, tail) = tensors.split_at(4);
    ModelParams::new(vec![
        LayerParams::new(head.to_vec()),
        LayerParams::new(tail.to_vec()),
    ])
}

fn param_bits(p: &ModelParams) -> Vec<u32> {
    p.to_flat().iter().map(|x| x.to_bits()).collect()
}

/// The uplink as it was before the sweeps were fused, kept as the
/// reference: materialize the delta, share it and add the residual, encode,
/// decode the frame just written, subtract for the new residual; the server
/// decodes and adds its base back.
struct ReferenceUplink {
    residual: Option<ModelParams>,
}

impl ReferenceUplink {
    fn upload(&mut self, params: &ModelParams, base: &ModelParams, codec: Codec) -> Vec<u8> {
        let delta = params.sub(base).expect("sub");
        let mut v = delta.share();
        if let Some(residual) = self.residual.take() {
            v.add_assign(&residual).expect("add residual");
        }
        let bytes = encode_params(&v, codec).expect("encode");
        let decoded = decode_params(&bytes).expect("own frame");
        self.residual = Some(v.sub(&decoded).expect("residual"));
        bytes
    }

    fn receive(bytes: &[u8], base: &ModelParams) -> ModelParams {
        let mut params = decode_params(bytes).expect("decode");
        params.add_assign(base).expect("add base");
        params
    }
}

/// The fused uplink against the formulation it replaced, bit for bit:
/// frame bytes, the residual carried into the next round, and the
/// parameters the server reconstructs — over three consecutive rounds
/// (the first has no residual to add, the later ones do), both lossy
/// codecs, clean and poisoned inputs, at every pool width. The second
/// client goes through `compress` on a materialized delta, the entry the
/// benchmark's stepwise pass drives.
#[test]
fn fused_uplink_matches_the_reference_pipeline_bit_for_bit() {
    let per_width_bits = per_width(|| {
        let mut seen = Vec::new();
        for codec in [Codec::QuantI8, Codec::Sign1] {
            for poisoned in [false, true] {
                let mut rng = Rng::seed_from(0xC0DEC);
                let mut reference = ReferenceUplink { residual: None };
                let (mut fused, mut split) = (ErrorFeedback::new(), ErrorFeedback::new());
                for round in 1..=4 {
                    let base = awkward_params(&mut rng, poisoned);
                    let mut trained = awkward_params(&mut rng, false);
                    trained.scale(0.05);
                    trained.add_assign(&base).expect("trained");
                    let tag = format!("{codec:?} poisoned={poisoned} round {round}");

                    let want = reference.upload(&trained, &base, codec);
                    let got = fused.compress_delta(&trained, &base, codec).expect("fused");
                    assert_eq!(got, want, "{tag}: frame bytes");
                    let delta = trained.sub(&base).expect("delta");
                    assert_eq!(split.compress(&delta, codec).expect("split"), want, "{tag}");

                    let carried = param_bits(reference.residual.as_ref().expect("residual"));
                    assert_eq!(
                        param_bits(fused.residual().expect("carried")),
                        carried,
                        "{tag}"
                    );
                    assert_eq!(
                        param_bits(split.residual().expect("carried")),
                        carried,
                        "{tag}"
                    );

                    let server = param_bits(&ReferenceUplink::receive(&want, &base));
                    let onto = decode_params_onto(&got, &base).expect("decode onto");
                    assert_eq!(param_bits(&onto), server, "{tag}: server parameters");
                    seen.push((got, carried, server));
                }
            }
        }
        seen
    });
    assert_eq!(
        per_width_bits[0], per_width_bits[1],
        "width 1 vs 2 diverged"
    );
    assert_eq!(
        per_width_bits[1], per_width_bits[2],
        "width 2 vs 4 diverged"
    );
}

/// Once the residual buffer exists, an upload through the delta entry
/// allocates no tensor memory at all: sweep A runs in place over it and
/// sweep B writes only into the frame.
#[test]
fn delta_entry_allocates_no_tensor_bytes_after_the_first_round() {
    let mut rng = Rng::seed_from(21);
    let base = awkward_params(&mut rng, false);
    let mut trained = base.share();
    trained.map_inplace(|x| x * 1.01 + 0.001);
    for codec in [Codec::QuantI8, Codec::Sign1] {
        let mut feedback = ErrorFeedback::new();
        let scope = MemoryScope::enter();
        feedback
            .compress_delta(&trained, &base, codec)
            .expect("round 1");
        assert_eq!(
            scope.peak_extra_bytes(),
            4 * base.param_count() as u64,
            "{codec:?}"
        );
        for round in 2..=3 {
            let scope = MemoryScope::enter();
            feedback
                .compress_delta(&trained, &base, codec)
                .expect("upload");
            assert_eq!(scope.peak_extra_bytes(), 0, "{codec:?} round {round}");
        }
    }
}

fn build_system() -> FlSystem {
    let data = {
        let mut rng = Rng::seed_from(5);
        let mut features = Tensor::zeros(&[90, 2]);
        let mut labels = Vec::new();
        for i in 0..90 {
            let class = i % 2;
            let c = if class == 0 { -2.0 } else { 2.0 };
            features.set(&[i, 0], rng.normal_with(c, 0.6)).expect("set");
            features.set(&[i, 1], rng.normal_with(c, 0.6)).expect("set");
            labels.push(class);
        }
        dinar_data::Dataset::new(features, labels, &[2], 2).expect("dataset")
    };
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

fn global_bits(run: &ResilientRun) -> Vec<u32> {
    run.system
        .global_params()
        .to_flat()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// A slow, asymmetric simulated network with one straggler override.
fn test_network() -> NetworkModel {
    NetworkModel::uniform(Duration::from_millis(5), 1_000_000).with_client(
        2,
        dinar_fl::ClientLink {
            down: LinkModel::new(Duration::from_millis(20), 500_000),
            up: LinkModel::new(Duration::from_millis(40), 250_000),
        },
    )
}

fn wire_run(uplink: Codec) -> ResilientRun {
    let wire = WireConfig::lossless()
        .with_uplink(uplink)
        .with_network(test_network());
    run_threaded_wire(
        build_system(),
        3,
        Arc::new(ManualClock::new()),
        RoundPolicy::strict(),
        wire,
    )
    .expect("wire run")
}

/// The flagship determinism contract: for every codec, an FL run whose
/// every model crosses the simulated network as encoded bytes produces a
/// bit-identical global model — and bit-identical wire accounting — for
/// any worker-pool width.
#[test]
fn wire_runs_are_bit_identical_across_pool_widths() {
    for codec in ALL_CODECS {
        let runs = per_width(|| wire_run(codec));
        let bits: Vec<Vec<u32>> = runs.iter().map(global_bits).collect();
        assert_eq!(bits[0], bits[1], "{codec:?}: width 1 vs 2 diverged");
        assert_eq!(bits[1], bits[2], "{codec:?}: width 2 vs 4 diverged");
        let stats: Vec<_> = runs.iter().map(|r| r.wire_stats.clone()).collect();
        assert_eq!(stats[0], stats[1], "{codec:?}: wire stats diverged");
        assert_eq!(stats[1], stats[2], "{codec:?}: wire stats diverged");
    }
}

/// The lossless wire run equals the in-process sequential engine bit for
/// bit: raw-f32 frames carry exact bit patterns, so routing every model
/// through encode → link → decode changes nothing.
#[test]
fn lossless_wire_run_matches_sequential_exactly() {
    let mut sequential = build_system();
    sequential.run(3).expect("sequential");
    let run = wire_run(Codec::F32);
    let diff = sequential
        .global_params()
        .max_abs_diff(run.system.global_params())
        .expect("diff");
    assert_eq!(diff, 0.0, "lossless wire run diverged by {diff}");
}

/// Lossy uplinks still learn (error feedback keeps the aggregate close)
/// while moving far fewer bytes than the raw-f32 baseline.
#[test]
fn lossy_uplinks_compress_and_still_learn() {
    let f32_run = wire_run(Codec::F32);
    let f32_up: u64 = f32_run.wire_stats.iter().map(|s| s.bytes_up).sum();
    // The 42-parameter test model is framing-dominated, so only modest
    // floors hold here (sign1 measures 2.8×, i8 1.9×); the headline ≥8×
    // ratio is ratcheted on a realistically-sized model by
    // tests/bench_ratchet.rs.
    for (codec, num, den) in [(Codec::Sign1, 2, 1), (Codec::QuantI8, 3, 2)] {
        let run = wire_run(codec);
        assert_eq!(run.reports.len(), 3, "{codec:?}");
        let up: u64 = run.wire_stats.iter().map(|s| s.bytes_up).sum();
        assert!(
            up * num < f32_up * den,
            "{codec:?} moved {up} uplink bytes vs f32's {f32_up} — no compression"
        );
        let first = run.reports.first().expect("reports").mean_train_loss;
        let last = run.reports.last().expect("reports").mean_train_loss;
        assert!(
            last < first,
            "{codec:?}: loss did not improve ({first} -> {last})"
        );
    }
}

/// The simulated network's timings are deterministic and reflect the link
/// models: the straggler's slow path dominates the makespan, and byte
/// accounting matches `frames × frame sizes`.
#[test]
fn simulated_network_prices_rounds_deterministically() {
    let run = wire_run(Codec::F32);
    assert_eq!(run.wire_stats.len(), 3);
    for s in &run.wire_stats {
        assert_eq!(s.frames, 6, "3 broadcasts down + 3 updates up");
        assert!(s.bytes_down > 0 && s.bytes_up > 0);
        // Healthy lossless rounds are symmetric: 3 equal frames each way.
        assert_eq!(s.bytes_down, s.bytes_up);
        let frame = s.bytes_down / 3;
        // Straggler path: down 20ms + B/500k, up 40ms + B/250k — strictly
        // the slowest, so it is the makespan.
        let expect =
            Duration::from_millis(60) + Duration::from_nanos(frame * 2_000 + frame * 4_000);
        assert_eq!(s.sim_elapsed, expect, "round {}", s.round);
    }
    // Identical rounds price identically.
    assert_eq!(run.wire_stats[0].sim_elapsed, run.wire_stats[1].sim_elapsed);
}

/// Wire telemetry lands under the stable `fl.transport.*` names and sums
/// over rounds.
#[test]
fn wire_telemetry_counters_sum_over_rounds() {
    let telemetry = dinar_telemetry::Telemetry::new();
    let mut system = build_system();
    system.set_telemetry(telemetry.clone());
    let wire = WireConfig::lossless().with_network(test_network());
    let run = run_threaded_wire(
        system,
        2,
        Arc::new(ManualClock::new()),
        RoundPolicy::strict(),
        wire,
    )
    .expect("wire run");
    let down: u64 = run.wire_stats.iter().map(|s| s.bytes_down).sum();
    let up: u64 = run.wire_stats.iter().map(|s| s.bytes_up).sum();
    let frames: u64 = run.wire_stats.iter().map(|s| s.frames).sum();
    assert_eq!(telemetry.counter_value("fl.transport.bytes_down"), down);
    assert_eq!(telemetry.counter_value("fl.transport.bytes_up"), up);
    assert_eq!(telemetry.counter_value("fl.transport.frames"), frames);
}

//! The kernel, plane and audit artifacts: the evidence behind the perf and
//! privacy claims that `tests/bench_ratchet.rs`, `tests/param_plane.rs` and
//! the audit's own invariants hold. Each is keyed by the `BENCH_*`,
//! `AUDIT_*` or `TELEMETRY_*` file stem it writes and returns its rows as
//! JSON with the text table rendered from them.
//!
//! `BENCH_tensor`, `BENCH_serve` and `BENCH_telemetry` time kernels at pool
//! width 1 (the ratchet's loader refuses rows from any other width), so
//! those procedures pin the width themselves and restore it afterwards.

use super::{at_width, render_rows, seeds, Output, Result, PROFILE};
use crate::harness::{
    prepare_training_only, train_defense_with_telemetry, Defense, Environment, ExperimentSpec,
};
use crate::tensor_suite::{self, TensorBenchEntry};
use crate::timing::{bench, fmt_ns, Config};
use dinar_consensus::network::{simulate_vote_with_telemetry, NodeBehavior, SimConfig};
use dinar_data::catalog;
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_data::Dataset;
use dinar_defenses::WeakDp;
use dinar_fl::clock::{ManualClock, WallClock};
use dinar_fl::eval::accuracy_of_params;
use dinar_fl::netsim::Codec;
use dinar_fl::system::FlSystemBuilder;
use dinar_fl::{
    run_threaded_wire, ClientMiddleware, ClientUpdate, FaultPlan, FlConfig, FlServer, FlSystem,
    NetworkModel, Quorum, RoundPolicy, RoundReport, WireConfig,
};
use dinar_nn::ckpt;
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::{Adagrad, Sgd};
use dinar_nn::serve::ServingModel;
use dinar_telemetry::{export, Telemetry};
use dinar_tensor::json::{Json, ToJson};
use dinar_tensor::{par, profile, Dtype, Rng, Tensor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Master seed of the plane benches' data and models.
const PLANE_SEED: u64 = 41;
/// The plane benches' MLP.
const PLANE_MLP: [usize; 3] = [600, 64, 100];
/// Clients of the `BENCH_params` and `BENCH_dropout` FL job.
const PLANE_CLIENTS: usize = 8;

/// Purchase100-mini drawn from [`PLANE_SEED`], and the stream after the
/// draw: the data of `BENCH_wire`, `BENCH_params` and `BENCH_dropout`.
fn plane_data() -> Result<(Dataset, Rng)> {
    let mut rng = Rng::seed_from(PLANE_SEED);
    let data = catalog::purchase100(PROFILE).generate(&mut rng)?;
    Ok((data, rng))
}

/// The plane benches' FL job: `data` in IID shards over `clients` (drawn
/// from `rng`), one [`PLANE_MLP`] under SGD 0.1 per shard, FL seed 7.
fn plane_system(data: &Dataset, clients: usize, rng: &mut Rng) -> Result<FlSystemBuilder> {
    let shards = partition_dataset(data, clients, Distribution::Iid, rng)?;
    Ok(FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 64,
        seed: 7,
    })
    .clients_from_shards(
        shards,
        |rng| models::mlp(&PLANE_MLP, Activation::ReLU, rng),
        |_| Box::new(Sgd::new(0.1)),
    )?)
}

/// The `BENCH_params` and `BENCH_dropout` job: 80 % of [`plane_data`] over
/// [`PLANE_CLIENTS`], and the 20 % held out as its test split.
fn held_out_plane_system() -> Result<(FlSystemBuilder, Dataset)> {
    let (data, mut rng) = plane_data()?;
    let (train, test) = data.split_fraction(0.8, &mut rng)?;
    Ok((plane_system(&train, PLANE_CLIENTS, &mut rng)?, test))
}

/// Master seed of the telemetry artifacts' data and models.
const TELEMETRY_SEED: u64 = 42;
/// Clients of the telemetry artifacts' FL job.
const TELEMETRY_CLIENTS: usize = 2;
/// Rounds of the telemetry artifacts' FL job.
const TELEMETRY_ROUNDS: usize = 2;

/// The FL job `BENCH_telemetry` and `TELEMETRY_fl_round` observe:
/// Purchase100-mini drawn from [`TELEMETRY_SEED`] in IID shards over
/// [`TELEMETRY_CLIENTS`], one `mlp[600,32,100]` under Adagrad 0.05 per
/// shard, FL seed 5.
fn telemetry_system() -> Result<FlSystem> {
    let mut rng = Rng::seed_from(TELEMETRY_SEED);
    let dataset = catalog::purchase100(PROFILE).generate(&mut rng)?;
    let shards = partition_dataset(&dataset, TELEMETRY_CLIENTS, Distribution::Iid, &mut rng)?;
    Ok(FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 64,
        seed: 5,
    })
    .clients_from_shards(
        shards,
        |rng| models::mlp(&[600, 32, 100], Activation::ReLU, rng),
        |_| Box::new(Adagrad::new(0.05)),
    )?
    .build()?)
}

/// `BENCH_tensor`: the [`tensor_suite`] kernel medians at pool width 1,
/// `{ threads, entries: [{op, size, ns_per_iter, threads, gflops?}] }`.
pub fn bench_tensor() -> Result<Output> {
    let json = at_width(1, || {
        tensor_suite::run(&Config::default()).map(|entries| tensor_suite::to_json(&entries))
    })?;
    let mut text = String::from("Tensor kernels — median ns per iteration, pool width 1\n\n");
    text.push_str(&render_rows(entries_of(&json)));
    Ok(Output {
        text,
        json: Some(json),
        seeds: Vec::new(),
    })
}

/// The `entries` rows of a `BENCH_tensor`-shaped report.
fn entries_of(json: &Json) -> &[Json] {
    json.get("entries")
        .and_then(Json::as_arr)
        .unwrap_or_default()
}

/// Rounds of each `BENCH_wire` run.
const WIRE_ROUNDS: usize = 8;

/// `BENCH_wire`: the same seeded 4-client FL run through
/// [`run_threaded_wire`] once per uplink codec (f32, sign1, quant_i8), every
/// frame crossing a uniform simulated network (5 ms latency, 1 MB/s) on a
/// [`ManualClock`]. Each row is the bytes each direction moved per round,
/// frames per round, the uplink compression ratio against the f32 row, the
/// simulated per-round makespan (slowest client path) and the final
/// training loss. Every column is a pure function of the seeds, codec and
/// link, so the file is bit-reproducible;
/// `tests/bench_ratchet.rs::wire_compression_ratio_holds_8x` holds the
/// sign1 and quant_i8 ratios.
pub fn bench_wire() -> Result<Output> {
    let mut rows = Vec::new();
    let mut f32_up = 0;
    for (name, uplink) in [
        ("f32", Codec::F32),
        ("sign1", Codec::Sign1),
        ("quant_i8", Codec::QuantI8),
    ] {
        let wire = WireConfig::lossless()
            .with_uplink(uplink)
            .with_network(NetworkModel::uniform(Duration::from_millis(5), 1_000_000));
        let (data, mut rng) = plane_data()?;
        let run = run_threaded_wire(
            plane_system(&data, 4, &mut rng)?.build()?,
            WIRE_ROUNDS,
            Arc::new(ManualClock::new()),
            RoundPolicy::strict(),
            wire,
        )?;
        let stats = &run.wire_stats;
        let rounds = stats.len().max(1) as u64;
        let bytes_up = stats.iter().map(|s| s.bytes_up).sum::<u64>() / rounds;
        if name == "f32" {
            f32_up = bytes_up;
        }
        let sim_ms = stats
            .iter()
            .map(|s| s.sim_elapsed.as_secs_f64() * 1e3)
            .sum::<f64>()
            / rounds as f64;
        rows.push(Json::obj([
            ("codec", name.to_json()),
            ("rounds", run.reports.len().to_json()),
            (
                "bytes_down_per_round",
                (stats.iter().map(|s| s.bytes_down).sum::<u64>() / rounds).to_json(),
            ),
            ("bytes_up_per_round", bytes_up.to_json()),
            (
                "frames_per_round",
                (stats.iter().map(|s| s.frames).sum::<u64>() / rounds).to_json(),
            ),
            (
                "uplink_ratio_vs_f32",
                (f32_up as f64 / bytes_up.max(1) as f64).to_json(),
            ),
            ("sim_ms_per_round", sim_ms.to_json()),
            ("final_loss", final_loss(&run.reports).to_json()),
        ]));
    }
    let mut text = String::from(
        "Wire plane — bytes, frames and simulated makespan per round by uplink codec \
         (4 clients, 8 rounds, 5 ms / 1 MB/s links)\n\n",
    );
    text.push_str(&render_rows(&rows));
    Ok(Output {
        text,
        json: Some(Json::Arr(rows)),
        seeds: vec![PLANE_SEED],
    })
}

/// The last round's mean training loss, `NaN` if no round ran.
fn final_loss(reports: &[RoundReport]) -> f64 {
    reports
        .last()
        .map_or(f64::NAN, |r| f64::from(r.mean_train_loss))
}

/// The `BENCH_serve` MLP (Purchase100-shaped).
const SERVE_MLP: [usize; 3] = [600, 256, 100];
/// Master seed of the `BENCH_serve` model.
const SERVE_MODEL_SEED: u64 = 97;
/// Master seed of the `BENCH_serve` inference stream.
const SERVE_INPUT_SEED: u64 = 4242;
/// Rows of each `BENCH_serve` inference batch.
const SERVE_BATCH_ROWS: usize = 64;
/// Batches in the `BENCH_serve` inference stream.
const SERVE_BATCHES: usize = 64;

/// `BENCH_serve`: one seeded `mlp[600,256,100]` checkpointed through the
/// `DNCK` plane at f32 and at quant_i8 storage width, each checkpoint
/// answering the same batched inference stream through [`ServingModel`] at
/// pool width 1. Each row is the resident weight bytes (a pure function of
/// architecture and dtype), their ratio to the f32 row, the measured batch
/// throughput, and the largest logit drift against the f32 run.
/// `tests/bench_ratchet.rs::i8_serving_halves_resident_weight_bytes` holds
/// quant_i8 at ≥ 2× fewer bytes and comparable throughput.
pub fn bench_serve() -> Result<Output> {
    let rows = at_width(1, serve_rows)?;
    let mut text = String::from(
        "Serving plane — resident weight bytes and batch throughput by storage width, \
         pool width 1\n\n",
    );
    text.push_str(&render_rows(&rows));
    Ok(Output {
        text,
        json: Some(Json::Arr(rows)),
        seeds: vec![SERVE_MODEL_SEED, SERVE_INPUT_SEED],
    })
}

/// The `BENCH_serve` rows, f32 first.
fn serve_rows() -> Result<Vec<Json>> {
    let mut rng = Rng::seed_from(SERVE_INPUT_SEED);
    let batches: Vec<Tensor> = (0..SERVE_BATCHES)
        .map(|_| rng.randn(&[SERVE_BATCH_ROWS, SERVE_MLP[0]]))
        .collect();
    let mut rows = Vec::new();
    let mut f32_run: Option<(u64, Vec<Tensor>)> = None;
    for (name, dtype) in [("f32", Dtype::F32), ("quant_i8", Dtype::I8)] {
        // The same seed both times: the two serving models differ only in
        // storage width, never in the underlying weights.
        let model = models::mlp(
            &SERVE_MLP,
            Activation::ReLU,
            &mut Rng::seed_from(SERVE_MODEL_SEED),
        )?;
        let raw = ckpt::decode_checkpoint_raw(&ckpt::encode_checkpoint(&model.params(), dtype)?)?;
        let mut serving = ServingModel::from_checkpoint(raw)?;
        let logits = batches
            .iter()
            .map(|x| serving.infer(x))
            .collect::<dinar_nn::Result<Vec<_>>>()?;
        // One timed iteration = one batch, cycling through the stream so the
        // pool's steady-state reuse (not the first-batch allocation) is what
        // gets measured.
        let mut next = 0usize;
        let config = Config {
            warmup: Duration::from_millis(100),
            samples: 20,
            target_sample: Duration::from_millis(20),
        };
        let ns_per_batch = bench(&format!("serve_{name}"), &config, || {
            let x = &batches[next % batches.len()];
            next += 1;
            // lint: allow(L001, every batch already inferred successfully above)
            serving.infer(x).expect("shapes validated above")
        })
        .median_ns();
        let resident = serving.resident_weight_bytes();
        let (f32_bytes, f32_logits) = f32_run.get_or_insert((resident, logits.clone()));
        let max_diff = f32_logits
            .iter()
            .zip(&logits)
            .flat_map(|(a, b)| a.as_slice().iter().zip(b.as_slice()))
            .map(|(p, q)| f64::from((p - q).abs()))
            .fold(0.0, f64::max);
        rows.push(Json::obj([
            ("storage", name.to_json()),
            ("resident_weight_bytes", resident.to_json()),
            (
                "bytes_ratio_vs_f32",
                (*f32_bytes as f64 / resident.max(1) as f64).to_json(),
            ),
            ("batch_rows", SERVE_BATCH_ROWS.to_json()),
            ("timed_batches", batches.len().to_json()),
            ("ns_per_batch", ns_per_batch.to_json()),
            (
                "rows_per_s",
                (SERVE_BATCH_ROWS as f64 * 1e9 / ns_per_batch.max(1e-9)).to_json(),
            ),
            ("max_abs_logit_diff", max_diff.to_json()),
        ]));
    }
    Ok(rows)
}

/// Rounds `BENCH_params` counts copies over.
const PARAMS_ROUNDS: usize = 5;

/// `BENCH_params`: the parameter plane's copy traffic. The default FL
/// configuration (Purchase100-mini, 8 clients, the paper's weak-DP client
/// defense) runs [`PARAMS_ROUNDS`] rounds; each `per_round` row diffs the
/// tensor buffer counters ([`profile::param_snapshot`]) — buffers
/// deep-copied, bytes those copies duplicated, clones served by an O(1)
/// share — and the summary adds their means and a FedAvg aggregation
/// microbench over the same 8 uploads. `tests/param_plane.rs` holds the
/// bytes cloned per round ≥ 5× under the committed pre-COW
/// `BENCH_params_baseline.json`.
pub fn bench_params() -> Result<Output> {
    let mut system = held_out_plane_system()?
        .0
        .with_client_middleware(|id| {
            vec![Box::new(WeakDp::paper_default(Rng::seed_from(
                7 ^ ((id as u64) << 8),
            ))) as Box<dyn ClientMiddleware>]
        })
        .build()?;
    let model_params = system.global_params().param_count();

    let mut per_round = Vec::new();
    let mut totals = [0u64; 3];
    for round in 0..PARAMS_ROUNDS {
        let before = profile::param_snapshot();
        system.run_round()?;
        let d = profile::param_snapshot().delta_since(&before);
        for (total, count) in totals
            .iter_mut()
            .zip([d.copy_calls, d.copy_bytes, d.share_calls])
        {
            *total += count;
        }
        per_round.push(Json::obj([
            ("round", round.to_json()),
            ("copy_calls", d.copy_calls.to_json()),
            ("copy_bytes", d.copy_bytes.to_json()),
            ("share_calls", d.share_calls.to_json()),
        ]));
    }

    // Server-side FedAvg microbench: aggregate the final global re-uploaded
    // by all clients (shapes and weights match a real round exactly).
    let updates: Vec<ClientUpdate> = system
        .clients()
        .iter()
        .enumerate()
        .map(|(id, client)| ClientUpdate {
            client_id: id,
            params: system.global_params().clone(),
            num_samples: client.data().len(),
        })
        .collect();
    let mut server = FlServer::new(system.global_params().clone());
    let agg = bench("fedavg_aggregate_8", &Config::default(), || {
        server
            .aggregate(&updates)
            .map(|p| p.param_count())
            .unwrap_or(0)
    });

    let mean = |i: usize| totals[i] as f64 / PARAMS_ROUNDS as f64;
    let text = format!(
        "Parameter plane — buffer copies and shares per round \
         ({PLANE_CLIENTS} clients, weak DP)\n\n{}\nmodel: {model_params} params; \
         mean copied/round: {:.2} MiB; aggregate: {:.2} µs median\n",
        render_rows(&per_round),
        mean(1) / (1024.0 * 1024.0),
        agg.median_ns() / 1e3,
    );
    let json = Json::obj([
        ("clients", PLANE_CLIENTS.to_json()),
        ("rounds", PARAMS_ROUNDS.to_json()),
        ("model_params", model_params.to_json()),
        ("model_bytes", (model_params as u64 * 4).to_json()),
        ("mean_copy_calls_per_round", mean(0).to_json()),
        ("mean_copy_bytes_per_round", mean(1).to_json()),
        ("mean_share_calls_per_round", mean(2).to_json()),
        ("agg_median_ns", agg.median_ns().to_json()),
        ("agg_min_ns", agg.min_ns().to_json()),
        ("per_round", Json::Arr(per_round)),
    ]);
    Ok(Output {
        text,
        json: Some(json),
        seeds: vec![PLANE_SEED],
    })
}

/// Rounds of each `BENCH_dropout` run.
const DROPOUT_ROUNDS: usize = 20;

/// `BENCH_dropout`: client dropout over the fault-tolerant threaded
/// transport. For each rate the same seeded 8-client FL run executes under
/// a [`FaultPlan::seeded_dropout`] schedule (every client loses its upload
/// with probability `rate` each round) with a quorum of one; rate 0.0 has
/// an empty schedule, so it is the strict transport bit for bit. Each row is
/// the schedule's seed (with clients, rounds and rate it rebuilds the exact
/// pattern), the round deadline (`null`: dropouts are explicit notices, not
/// timeouts), the transport's fault accounting, the final-round loss and
/// the global model's test accuracy. Everything is seeded, so the file is
/// bit-reproducible.
pub fn bench_dropout() -> Result<Output> {
    let mut rows = Vec::new();
    for rate in [0.0, 0.1, 0.2, 0.3, 0.5] {
        let (builder, test) = held_out_plane_system()?;
        let plan = FaultPlan::seeded_dropout(13, PLANE_CLIENTS, DROPOUT_ROUNDS, rate);
        let fault_seed = plan.seed();
        let policy = RoundPolicy::with_quorum(Quorum::AtLeast(1), None).with_faults(plan);
        let deadline_ms = policy.deadline.map(|d| d.as_millis() as u64);
        let run = run_threaded_wire(
            builder.build()?,
            DROPOUT_ROUNDS,
            Arc::new(WallClock::new()),
            policy,
            WireConfig::default(),
        )?;
        // `accuracy_of_params` loads the global into the template, so its
        // own initial weights never matter.
        let mut template = models::mlp(&PLANE_MLP, Activation::ReLU, &mut Rng::seed_from(0))?;
        let accuracy = accuracy_of_params(run.system.global_params(), &mut template, &test)?;
        rows.push(Json::obj([
            ("rate", rate.to_json()),
            ("fault_seed", fault_seed.to_json()),
            ("deadline_ms", deadline_ms.to_json()),
            ("rounds", run.reports.len().to_json()),
            (
                "updates_aggregated",
                run.fault_stats
                    .iter()
                    .map(|s| s.participants)
                    .sum::<usize>()
                    .to_json(),
            ),
            (
                "uploads_lost",
                run.fault_stats
                    .iter()
                    .map(|s| s.clients_dropped)
                    .sum::<usize>()
                    .to_json(),
            ),
            ("final_loss", final_loss(&run.reports).to_json()),
            ("accuracy_pct", (f64::from(accuracy) * 100.0).to_json()),
        ]));
    }
    let text = format!(
        "Client dropout — fault accounting, final loss and test accuracy by dropout rate \
         ({PLANE_CLIENTS} clients, {DROPOUT_ROUNDS} rounds, quorum 1)\n\n{}",
        render_rows(&rows)
    );
    Ok(Output {
        text,
        json: Some(Json::Arr(rows)),
        seeds: vec![PLANE_SEED],
    })
}

/// Alternating instrumented/uninstrumented samples for the FL-run pair.
const FL_RUN_SAMPLES: usize = 5;
/// Events recorded into one sink before a primitive loop moves on.
const ROTATE: u64 = 4096;

/// An enabled sink replaced every [`ROTATE`] events.
#[derive(Default)]
struct RotatingSink {
    tel: Telemetry,
    i: u64,
}

impl RotatingSink {
    /// The sink for the next event, and that event's index.
    fn next(&mut self) -> (&Telemetry, u64) {
        if self.i % ROTATE == 0 {
            self.tel = Telemetry::new();
        }
        self.i += 1;
        (&self.tel, self.i)
    }
}

/// A sink populated with a realistic span/metric population for the export
/// latency measurements.
fn populated_sink(spans: usize) -> Telemetry {
    let tel = Telemetry::new();
    for round in 0..spans / 4 {
        let _r = tel.span(&format!("round[{round}]"));
        for client in 0..3 {
            let _c = tel.span(&format!("client[{client}]"));
        }
    }
    for i in 0..64 {
        tel.counter_add(&format!("bench.counter[{i}]"), i as u64);
    }
    tel
}

/// One full [`telemetry_system`] training run, instrumented or not, in wall
/// nanoseconds. The instrumented run records every event an enabled sink
/// records — spans, counter updates and flight events — which is what the
/// 5 % overhead ratchet covers.
fn timed_fl_run(instrument: bool) -> Result<f64> {
    let mut system = telemetry_system()?;
    if instrument {
        system.set_telemetry(Telemetry::new());
    }
    // lint: allow(L007, the measurand is end-to-end wall time of one run)
    let t0 = Instant::now();
    system.run(TELEMETRY_ROUNDS)?;
    Ok(t0.elapsed().as_nanos() as f64)
}

/// `BENCH_telemetry`: the observability plane's own cost at pool width 1,
/// in the `(op, size, ns_per_iter, threads)` rows of `BENCH_tensor`, so
/// one ratchet loader reads both. Primitive throughput — one flight event,
/// one counter bump (registry update plus its `metric` event), one span
/// enter/exit, one ledger charge — then export latency over a populated
/// sink, then the end-to-end pair: the [`telemetry_system`] run, fully
/// instrumented and not, as the median of [`FL_RUN_SAMPLES`] alternating
/// samples so host noise hits both sides alike. `tests/bench_ratchet.rs`
/// holds the instrumented run within 5 % of the uninstrumented one.
pub fn bench_telemetry() -> Result<Output> {
    let (entries, fl_line) = at_width(1, telemetry_entries)?;
    let flight_ns = entries
        .iter()
        .find(|e| e.op == "flight_record")
        .map_or(0.0, |e| e.ns_per_iter);
    let json = Json::obj([
        ("threads", 1usize.to_json()),
        (
            "flight_events_per_sec",
            if flight_ns > 0.0 {
                1e9 / flight_ns
            } else {
                0.0
            }
            .to_json(),
        ),
        ("entries", entries.to_json()),
    ]);
    let text = format!(
        "Telemetry overhead — median ns per iteration, pool width 1\n\n{}\n{fl_line}\n",
        render_rows(entries_of(&json)),
    );
    Ok(Output {
        text,
        json: Some(json),
        seeds: vec![TELEMETRY_SEED],
    })
}

/// The `BENCH_telemetry` rows, and a line on the FL-run pair.
fn telemetry_entries() -> Result<(Vec<TensorBenchEntry>, String)> {
    let config = Config::default();
    let mut entries = Vec::new();
    let mut push = |op: &str, size: &str, ns_per_iter: f64| {
        entries.push(TensorBenchEntry {
            op: op.to_string(),
            size: size.to_string(),
            ns_per_iter,
            threads: par::threads(),
            gflops: None,
        });
    };

    // Primitive throughput: the per-event cost every instrumented code
    // path pays. An enabled sink keeps every event, so each loop moves to
    // a fresh sink every `ROTATE` events: the cost of registering with and
    // freeing a sink is amortised in, and the log never outgrows memory.
    let mut sink = RotatingSink::default();
    let m = bench("flight_record", &config, || {
        let (tel, i) = sink.next();
        tel.flight_record("bench", "event", i);
    });
    push("flight_record", "1", m.median_ns());

    let mut sink = RotatingSink::default();
    let m = bench("counter_add", &config, || {
        sink.next().0.counter_add("bench.counter", 1);
    });
    push("counter_add", "1", m.median_ns());

    let mut sink = RotatingSink::default();
    let m = bench("span_enter_exit", &config, || {
        drop(sink.next().0.span("bench"));
    });
    push("span_enter_exit", "1", m.median_ns());

    let tel = Telemetry::new();
    let m = bench("privacy_charge", &config, || {
        tel.privacy_charge("bench", "client[0]", 0.05, 1e-7);
    });
    push("privacy_charge", "1", m.median_ns());

    // Export latency over a populated sink.
    let tel = populated_sink(1024);
    let m = bench("trace_export", &config, || {
        black_box(export::trace_events(&tel));
    });
    push("trace_export", "1024_spans", m.median_ns());
    let m = bench("jsonl_export", &config, || {
        black_box(export::export_jsonl(&tel, false));
    });
    push("jsonl_export", "1024_spans", m.median_ns());

    let tel = Telemetry::new();
    for i in 0..4096 {
        tel.flight_record("bench", "event", i);
    }
    let m = bench("flight_dump", &config, || {
        black_box(tel.flight_dump_jsonl());
    });
    push("flight_dump", "4096_events", m.median_ns());

    // End-to-end: alternate instrumented / uninstrumented full training
    // runs and take medians, so slow-machine noise cancels instead of
    // biasing one side.
    let mut with_tel = Vec::new();
    let mut without = Vec::new();
    timed_fl_run(true)?; // warm-up (allocators, data caches)
    for _ in 0..FL_RUN_SAMPLES {
        with_tel.push(timed_fl_run(true)?);
        without.push(timed_fl_run(false)?);
    }
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let instrumented = median(with_tel);
    let uninstrumented = median(without);
    let size = format!("{TELEMETRY_CLIENTS}c{TELEMETRY_ROUNDS}r");
    push("fl_run_instrumented", &size, instrumented);
    push("fl_run_uninstrumented", &size, uninstrumented);
    let line = format!(
        "fl_run ({TELEMETRY_CLIENTS} clients, {TELEMETRY_ROUNDS} rounds): instrumented {}  \
         uninstrumented {}  overhead {:+.2}%",
        fmt_ns(instrumented),
        fmt_ns(uninstrumented),
        (instrumented / uninstrumented - 1.0) * 100.0,
    );
    Ok((entries, line))
}

/// `TELEMETRY_fl_round`: the observed [`telemetry_system`] run's report
/// ([`export::run_document`]: Perfetto trace events with per-round,
/// per-client, per-middleware and per-layer spans, every metric, the
/// summary tree, span coverage, privacy ledger and flight view, so the file
/// opens in <https://ui.perfetto.dev> as-is) after `clients`, `rounds` and
/// `bit_identical`. The same sink also records an instrumented DINAR
/// initialization vote (`dinar-consensus`), so the coverage bar spans the
/// consensus layer too.
///
/// # Errors
///
/// Fails, writing nothing, unless the global model of the run is bit for
/// bit an unobserved rerun's (observation must not perturb) and the
/// span coverage — the share of each root span's wall time its direct
/// children account for — is at least 0.95.
pub fn telemetry_fl_round() -> Result<Output> {
    let global_bits = |system: &FlSystem| -> Vec<u32> {
        system
            .global_params()
            .to_flat()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    let tel = Telemetry::new();
    let mut system = telemetry_system()?;
    system.set_telemetry(tel.clone());
    system.run(TELEMETRY_ROUNDS)?;
    let instrumented = global_bits(&system);

    // Consensus layer under the same sink: a mixed honest/Byzantine vote,
    // sized like the DINAR initialization round.
    let mut behaviors = vec![NodeBehavior::Honest { proposal: 1 }; 4];
    behaviors.push(NodeBehavior::byzantine_random());
    simulate_vote_with_telemetry(
        &behaviors,
        &SimConfig {
            num_choices: 4,
            seed: 11,
        },
        &tel,
    )?;

    let mut baseline = telemetry_system()?;
    baseline.run(TELEMETRY_ROUNDS)?;
    let bit_identical = global_bits(&baseline) == instrumented;
    if !bit_identical {
        return Err("instrumented run diverged from uninstrumented baseline".into());
    }
    let coverage = export::span_coverage(&tel);
    if coverage < 0.95 {
        return Err(format!("span coverage {coverage:.3} below the 0.95 bar").into());
    }

    let text = format!(
        "span summary ({TELEMETRY_CLIENTS} clients, {TELEMETRY_ROUNDS} rounds):\n{}\n\
         span coverage: {:.1}%\ninstrumented == uninstrumented: {bit_identical}\n",
        export::summary_tree(&tel),
        coverage * 100.0,
    );
    let mut fields = vec![
        ("clients".to_string(), TELEMETRY_CLIENTS.to_json()),
        ("rounds".to_string(), TELEMETRY_ROUNDS.to_json()),
        ("bit_identical".to_string(), bit_identical.to_json()),
    ];
    if let Json::Obj(run) = export::run_document(&tel) {
        fields.extend(run);
    }
    Ok(Output {
        text,
        json: Some(Json::Obj(fields)),
        seeds: vec![TELEMETRY_SEED],
    })
}

/// Defense labels whose ledger must show a strictly positive composed ε.
const DP_FAMILY: [&str; 3] = ["WDP", "LDP", "CDP"];
/// Defense labels whose ledger must show explicit zero-cost accounts.
const ZERO_COST: [&str; 2] = ["GC", "SA"];

/// One defense's privacy ledger after a training run.
#[derive(Debug, Clone)]
struct DefenseAudit {
    label: String,
    accounts: usize,
    charges: u64,
    max_eps_composed: f64,
    report: Json,
}

impl DefenseAudit {
    /// Trains `defense` on `env` under an enabled sink and reads its ledger.
    fn run(env: &Environment, defense: &Defense) -> Result<Self> {
        let telemetry = Telemetry::new();
        train_defense_with_telemetry(env, defense, &telemetry)?;
        let accounts = telemetry.privacy_accounts();
        Ok(DefenseAudit {
            label: defense.label(),
            accounts: accounts.len(),
            charges: accounts.iter().map(|a| a.charges).sum(),
            max_eps_composed: accounts.iter().map(|a| a.eps_composed).fold(0.0, f64::max),
            report: telemetry.privacy_report(),
        })
    }
}

/// Every way `audits` breaks the ledger's contract: each [`DP_FAMILY`]
/// defense spends a nonzero composed ε; each [`ZERO_COST`] defense charges
/// explicit entries of composed ε exactly 0 ("spends nothing", not "forgot
/// to report"; lint rule L016 guards the source side); every one of them is
/// in the lineup.
fn check(audits: &[DefenseAudit]) -> Vec<String> {
    let mut problems = Vec::new();
    let find = |label: &str| audits.iter().find(|a| a.label == label);
    for label in DP_FAMILY {
        match find(label) {
            Some(a) if a.max_eps_composed > 0.0 => {}
            Some(a) => problems.push(format!(
                "{label}: composed ε is {} but a DP defense must spend budget",
                a.max_eps_composed
            )),
            None => problems.push(format!("{label}: missing from the lineup")),
        }
    }
    for label in ZERO_COST {
        match find(label) {
            Some(a) if a.charges > 0 && a.max_eps_composed == 0.0 => {}
            Some(a) => problems.push(format!(
                "{label}: expected explicit zero-cost entries, got {} charges \
                 with max composed ε {}",
                a.charges, a.max_eps_composed
            )),
            None => problems.push(format!("{label}: missing from the lineup")),
        }
    }
    problems
}

/// `AUDIT_privacy`: the privacy ledger of every defense column of the
/// evaluation. Each trains once on a shrunk Purchase100-mini environment (4
/// clients, 3 rounds: the same middleware and charge sites as the full
/// runs) under an enabled sink, and the artifact carries each one's
/// composed (ε, δ) report. WDP, CDP and LDP (DP-SGD in the optimizer)
/// spend real budget; SA and GC charge explicit zero-cost entries;
/// undefended FL and DINAR register no accounts, since neither touches
/// member data through a randomized mechanism. The ledger is deterministic,
/// so the file is byte-identical across runs and pool widths.
///
/// # Errors
///
/// Fails, writing nothing, on any problem [`check`] finds.
pub fn audit_privacy() -> Result<Output> {
    let mut spec = ExperimentSpec::mini_default(catalog::purchase100(PROFILE));
    spec.clients = 4;
    spec.rounds = 3;
    spec.local_epochs = 1;
    let env = prepare_training_only(spec)?;
    let audits = Defense::lineup(env.dinar_layer)
        .iter()
        .map(|defense| DefenseAudit::run(&env, defense))
        .collect::<Result<Vec<_>>>()?;
    let problems = check(&audits);
    if !problems.is_empty() {
        return Err(format!("privacy audit failed:\n  {}", problems.join("\n  ")).into());
    }

    let mut text = String::from("Privacy audit — ledger accounts per defense (Purchase100)\n\n");
    let summary: Vec<Json> = audits
        .iter()
        .map(|a| {
            Json::obj([
                ("defense", a.label.to_json()),
                ("accounts", a.accounts.to_json()),
                ("charges", a.charges.to_json()),
                ("max_eps_composed", a.max_eps_composed.to_json()),
            ])
        })
        .collect();
    text.push_str(&render_rows(&summary));
    let defenses = audits
        .into_iter()
        .map(|a| Json::obj([("defense", a.label.to_json()), ("ledger", a.report)]))
        .collect();
    let json = Json::obj([
        ("dataset", env.spec.entry.name().to_json()),
        ("clients", env.spec.clients.to_json()),
        ("rounds", env.spec.rounds.to_json()),
        ("local_epochs", env.spec.local_epochs.to_json()),
        ("defenses", Json::Arr(defenses)),
    ]);
    Ok(Output {
        text,
        json: Some(json),
        seeds: seeds([&env.spec]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(label: &str, charges: u64, max_eps_composed: f64) -> DefenseAudit {
        DefenseAudit {
            label: label.to_string(),
            accounts: usize::from(charges > 0),
            charges,
            max_eps_composed,
            report: Json::Null,
        }
    }

    /// The lineup as a sound ledger reports it.
    fn well_formed() -> Vec<DefenseAudit> {
        vec![
            audit("No defense", 0, 0.0),
            audit("WDP", 3, 0.4),
            audit("LDP", 12, 2.2),
            audit("CDP", 3, 1.1),
            audit("GC", 12, 0.0),
            audit("SA", 12, 0.0),
            audit("DINAR", 0, 0.0),
        ]
    }

    #[test]
    fn a_well_formed_lineup_passes_the_audit() {
        assert_eq!(check(&well_formed()), Vec::<String>::new());
    }

    #[test]
    fn the_audit_names_each_broken_ledger_invariant() {
        let mut audits = well_formed();
        audits.retain(|a| a.label != "LDP");
        for a in &mut audits {
            match a.label.as_str() {
                "WDP" => a.max_eps_composed = 0.0,
                "SA" => a.charges = 0,
                _ => {}
            }
        }
        let problems = check(&audits);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(
            problems[0].starts_with("WDP: composed ε is 0"),
            "{problems:?}"
        );
        assert_eq!(problems[1], "LDP: missing from the lineup");
        assert!(problems[2].starts_with("SA: expected explicit zero-cost entries, got 0 charges"));
    }
}

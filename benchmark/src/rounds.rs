//! The three round workloads: `fcnn_dinar` and `vgg_ldp` on the in-process
//! engine (`FlSystem::run_round`), `comm_wdp_i8` on the threaded wire engine
//! (`run_threaded_wire`). All are closed loops: the next round starts when
//! the previous one finished.

use crate::probes::{self, KernelShape};
use crate::report::{nums, Ops, Pass, Result};
use crate::spec::POOL_WIDTH;
use crate::stats::{fastest, median, tail_at};
use crate::trace::{self_times, Tracer};
use dinar::middleware::DinarMiddleware;
use dinar::DinarConfig;
use dinar_bench::harness::model_for;
use dinar_data::catalog::{self, CatalogEntry, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_data::split::attack_split;
use dinar_data::Dataset;
use dinar_defenses::{DpOptimizer, DpParams, WeakDp};
use dinar_fl::clock::ManualClock;
use dinar_fl::netsim::Codec;
use dinar_fl::{
    run_threaded_wire, ClientMiddleware, FlConfig, FlSystem, NetworkModel, RoundPolicy, WireConfig,
};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::{self, Optimizer, Sgd};
use dinar_nn::snapshot::{decode_params, encode_params, ErrorFeedback};
use dinar_nn::{Model, ModelParams};
use dinar_tensor::json::Json;
use dinar_tensor::{par, profile, Rng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times the set-up is repeated in the untraced pass; `setup_s` is the median.
const SETUP_REPS: usize = 15;

/// Rounds run before sampling starts, so lazily allocated optimizer state and
/// buffer pools are in place.
const WARMUP_ROUNDS: usize = 2;

/// Rounds after which the two pool widths must agree on the global model.
const WIDTH_CHECK_ROUNDS: usize = 2;

/// Fewest rounds the stepwise schedule drives, however short the pass.
const MIN_STEPWISE_ROUNDS: usize = 3;

/// The defense a round workload trains under, built as
/// `harness::train_defense_with_telemetry` builds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defense {
    /// `DinarMiddleware` on the penultimate trainable layer, Adagrad 0.05.
    Dinar,
    /// DP-SGD (`DpOptimizer` around Adam 1e-3) at ε = 2.2.
    Ldp,
    /// `WeakDp::paper_default` on the upload, SGD 0.1.
    Wdp,
}

/// How rounds are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// `FlSystem::run_round`; one sample per call.
    InProcess,
    /// `run_threaded_wire` with an i8 uplink over a 5 ms / 1 MB/s link, from a
    /// fresh system per call so every call does identical work (error-feedback
    /// residuals start empty); one sample is the call's wall ÷ its rounds.
    Wire {
        /// Rounds per `run_threaded_wire` call.
        rounds_per_call: usize,
    },
}

/// A round workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct RoundWorkload {
    /// Workload name.
    pub name: &'static str,
    entry: fn(Profile) -> CatalogEntry,
    arch: fn(&CatalogEntry, &mut Rng) -> dinar_nn::Result<Model>,
    clients: usize,
    /// Samples each shard is cut to, if any.
    shard_cap: Option<usize>,
    local_epochs: usize,
    defense: Defense,
    engine: Engine,
    /// `mean_train_loss` must fall by at least this much from round 1 to
    /// round `loss_round`, so a change cannot get faster by learning less.
    min_loss_drop: f32,
    loss_round: usize,
    /// The largest matrix products the model issues per batch.
    pub kernel: KernelShape,
}

fn wide_mlp(_: &CatalogEntry, rng: &mut Rng) -> dinar_nn::Result<Model> {
    models::mlp(&[600, 1024, 100], Activation::ReLU, rng)
}

/// Purchase100-mini, `fcnn6`, 10 clients × 10 local epochs, DINAR.
pub const FCNN_DINAR: RoundWorkload = RoundWorkload {
    name: "fcnn_dinar",
    entry: catalog::purchase100,
    arch: model_for,
    clients: 10,
    shard_cap: None,
    local_epochs: 10,
    defense: Defense::Dinar,
    engine: Engine::InProcess,
    min_loss_drop: 3.0,
    loss_round: 20,
    kernel: KernelShape::Dense {
        batch: 64,
        inputs: 600,
        outputs: 64,
    },
};

/// GTSRB-mini, `vgg11_mini`, 5 clients × 5 local epochs, LDP ε = 2.2.
pub const VGG_LDP: RoundWorkload = RoundWorkload {
    name: "vgg_ldp",
    entry: catalog::gtsrb,
    arch: model_for,
    clients: 5,
    shard_cap: None,
    local_epochs: 5,
    defense: Defense::Ldp,
    engine: Engine::InProcess,
    min_loss_drop: 0.04,
    loss_round: 20,
    kernel: KernelShape::Conv {
        batch: 64,
        channels: 3,
        hw: 16,
        kernel: 3,
        filters: 8,
    },
};

/// Purchase100-mini, `mlp[600,1024,100]`, 4 clients × 64 samples × 1 epoch,
/// WDP, i8 uplink over the simulated network.
pub const COMM_WDP_I8: RoundWorkload = RoundWorkload {
    name: "comm_wdp_i8",
    entry: catalog::purchase100,
    arch: wide_mlp,
    clients: 4,
    shard_cap: Some(64),
    local_epochs: 1,
    defense: Defense::Wdp,
    engine: Engine::Wire { rounds_per_call: 8 },
    min_loss_drop: 1.2,
    loss_round: 8,
    kernel: KernelShape::Dense {
        batch: 64,
        inputs: 600,
        outputs: 1024,
    },
};

/// Everything the program receives: the generated shards. The seed itself
/// only reaches the program as the `FlConfig` seed of the system built on
/// them.
struct Inputs {
    entry: CatalogEntry,
    shards: Vec<Dataset>,
    seed: u64,
}

impl RoundWorkload {
    /// Generates the dataset, splits off the attacker's half and partitions
    /// the train pool, each step under its own `data.*` span.
    fn make_inputs(&self, seed: u64, tracer: &mut Tracer) -> Result<Inputs> {
        let entry = (self.entry)(Profile::Mini);
        let mut rng = Rng::seed_from(seed);
        let dataset = tracer
            .span("data.generate", 0, |_| entry.generate(&mut rng))
            .0?;
        let split = tracer
            .span("data.split", 0, |_| attack_split(&dataset, &mut rng))
            .0?;
        let mut shards = tracer
            .span("data.partition", 0, |_| {
                partition_dataset(&split.train, self.clients, Distribution::Iid, &mut rng)
            })
            .0?;
        if let Some(cap) = self.shard_cap {
            let keep: Vec<usize> = (0..cap).collect();
            shards = shards
                .iter()
                .map(|s| s.subset(&keep))
                .collect::<std::result::Result<_, _>>()?;
        }
        Ok(Inputs {
            entry,
            shards,
            seed,
        })
    }

    fn build_system(&self, inputs: &Inputs) -> Result<FlSystem> {
        let seed = inputs.seed;
        let defense = self.defense;
        let builder = FlSystem::builder(FlConfig {
            local_epochs: self.local_epochs,
            batch_size: 64,
            seed,
        })
        .clients_from_shards(
            inputs.shards.clone(),
            |rng| (self.arch)(&inputs.entry, rng),
            |id| match defense {
                Defense::Ldp => Box::new(
                    DpOptimizer::new(
                        defense.bare_optimizer(),
                        DpParams::paper_default().with_epsilon(2.2),
                        Rng::seed_from(seed ^ 0xD9 ^ ((id as u64) << 16)),
                    )
                    .with_amortization_over(2),
                ),
                Defense::Dinar | Defense::Wdp => defense.bare_optimizer(),
            },
        )?;
        let dinar_layer = (self.arch)(&inputs.entry, &mut Rng::seed_from(seed))?
            .num_trainable_layers()
            .saturating_sub(2);
        let builder = builder.with_client_middleware(|id| -> Vec<Box<dyn ClientMiddleware>> {
            match defense {
                Defense::Dinar => vec![Box::new(DinarMiddleware::multi(
                    vec![dinar_layer],
                    DinarConfig::default(),
                    seed ^ id as u64,
                ))],
                Defense::Wdp => vec![Box::new(WeakDp::paper_default(Rng::seed_from(
                    seed ^ (id as u64) << 8,
                )))],
                Defense::Ldp => Vec::new(),
            }
        });
        Ok(builder.build()?)
    }

    /// The whole set-up a user waits for before the first round.
    fn setup(&self, seed: u64, tracer: &mut Tracer) -> Result<(Inputs, FlSystem)> {
        let inputs = self.make_inputs(seed, tracer)?;
        let system = tracer
            .span("fl.build", 0, |_| self.build_system(&inputs))
            .0?;
        Ok((inputs, system))
    }

    fn samples_per_round(&self, inputs: &Inputs) -> usize {
        inputs.shards.iter().map(Dataset::len).sum::<usize>() * self.local_epochs
    }

    /// The untraced pass: the end-to-end metrics.
    pub fn untraced(&self, seed: u64, seconds: f64) -> Result<Pass> {
        let mut pass = Pass::default();
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut built = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            built = Some(self.setup(seed, &mut Tracer::new())?);
            setups.push(t0.elapsed().as_secs_f64());
        }
        let (inputs, system) = built.expect("SETUP_REPS is positive");

        let (run, global) =
            self.run_untraced(&inputs, system, seconds, self.loss_round, &mut pass.ops)?;
        pass.metric("setup_s", median(&setups));
        let round_min = fastest(&run.samples);
        pass.metric("round_min_s", round_min);
        pass.metric(
            "samples_per_s",
            self.samples_per_round(&inputs) as f64 / round_min,
        );
        pass.metric("client_peak_mem_bytes", run.peak_mem as f64);
        pass.note("round_walls_s", nums(&run.samples));
        self.check_outputs(&inputs, &run, &global, &mut pass)?;
        Ok(pass)
    }

    /// Drives rounds for `seconds`, and at least `min_rounds` of them on the
    /// in-process engine; returns the samples and what the output checks need.
    fn run_untraced(
        &self,
        inputs: &Inputs,
        mut system: FlSystem,
        seconds: f64,
        min_rounds: usize,
        ops: &mut Ops,
    ) -> Result<(UntracedRun, ModelParams)> {
        let mut run = UntracedRun::default();
        let budget = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let global = match self.engine {
            Engine::InProcess => {
                let mut round = 0;
                while started.elapsed() < budget || round < min_rounds {
                    let t0 = Instant::now();
                    let report = system.run_round()?;
                    let wall = t0.elapsed().as_secs_f64();
                    round += 1;
                    ops.record(self.clients, 0);
                    if round == 1 {
                        run.first_loss = report.mean_train_loss;
                    }
                    if round == self.loss_round {
                        run.checked_loss = report.mean_train_loss;
                    }
                    run.final_loss = report.mean_train_loss;
                    run.peak_mem = run.peak_mem.max(report.cost.client_peak_mem_bytes);
                    if round > WARMUP_ROUNDS {
                        run.samples.push(wall);
                    }
                }
                system.global_params().share()
            }
            Engine::Wire { rounds_per_call } => {
                let mut calls = 0;
                loop {
                    let t0 = Instant::now();
                    let out = run_threaded_wire(
                        system,
                        rounds_per_call,
                        Arc::new(ManualClock::new()),
                        RoundPolicy::strict(),
                        wire_config(),
                    )?;
                    let wall = t0.elapsed().as_secs_f64();
                    calls += 1;
                    for (faults, wire) in out.fault_stats.iter().zip(&out.wire_stats) {
                        let lost = faults.clients_dropped + faults.stale_discarded;
                        ops.record(self.clients, lost);
                        run.updates_lost += lost;
                        run.short_rounds += usize::from(faults.participants != self.clients);
                        run.wire_rounds += 1;
                        run.bytes_up += wire.bytes_up;
                        run.bytes_down += wire.bytes_down;
                        run.frames += wire.frames;
                        run.sim_s += wire.sim_elapsed.as_secs_f64();
                    }
                    let last = out.reports.last().ok_or("a wire call completed no round")?;
                    run.first_loss = out.reports[0].mean_train_loss;
                    run.checked_loss = last.mean_train_loss;
                    run.final_loss = last.mean_train_loss;
                    run.peak_mem = out
                        .reports
                        .iter()
                        .map(|r| r.cost.client_peak_mem_bytes)
                        .fold(run.peak_mem, u64::max);
                    // The first call warms the allocator and thread stacks.
                    if calls > 1 {
                        run.samples.push(wall / rounds_per_call as f64);
                    }
                    if started.elapsed() >= budget && calls > 2 {
                        break out.system.global_params().share();
                    }
                    system = self.build_system(inputs)?;
                }
            }
        };
        Ok((run, global))
    }

    fn check_outputs(
        &self,
        inputs: &Inputs,
        run: &UntracedRun,
        global: &ModelParams,
        pass: &mut Pass,
    ) -> Result<()> {
        let flat = global.to_flat();
        pass.ops.check(
            "global parameters finite",
            flat.iter().all(|v| v.is_finite()),
            &format!("{} parameters", flat.len()),
            "all finite",
        );
        pass.ops.check(
            "training loss falls",
            run.first_loss - run.checked_loss >= self.min_loss_drop,
            &format!(
                "{:.4} after round 1, {:.4} after round {}",
                run.first_loss, run.checked_loss, self.loss_round
            ),
            &format!("a drop of at least {}", self.min_loss_drop),
        );
        pass.note("final_loss", Json::Num(f64::from(run.final_loss)));
        pass.note(
            "global_digest",
            Json::Str(format!("{:016x}", digest(global))),
        );
        match self.engine {
            Engine::InProcess => {
                self.width_check(inputs, pass)?;
            }
            Engine::Wire { .. } => {
                let frame = encode_params(global, Codec::F32)?;
                let back = decode_params(&frame)?;
                pass.ops.check(
                    "f32 frame round-trips bit for bit",
                    digest(&back) == digest(global),
                    &format!("{} bytes", frame.len()),
                    "decode(encode(g)) == g",
                );
                pass.ops.check(
                    "every round aggregates all updates",
                    run.short_rounds == 0,
                    &format!("{} short rounds of {}", run.short_rounds, run.wire_rounds),
                    &format!("{0} of {0} updates in every round", self.clients),
                );
            }
        }
        Ok(())
    }

    /// Checks that fresh systems at pool widths 1 and [`POOL_WIDTH`] agree
    /// bit for bit after [`WIDTH_CHECK_ROUNDS`] rounds; returns how much
    /// faster the last round ran at the wider pool.
    fn width_check(&self, inputs: &Inputs, pass: &mut Pass) -> Result<f64> {
        let (narrow, narrow_s) = self.rounds_at_width(inputs, 1)?;
        let (wide, wide_s) = self.rounds_at_width(inputs, POOL_WIDTH)?;
        pass.ops.record(2 * WIDTH_CHECK_ROUNDS * self.clients, 0);
        pass.ops.check(
            "global model identical at pool widths 1 and 2",
            narrow == wide,
            &format!("{narrow:016x} vs {wide:016x}"),
            "equal digests",
        );
        Ok(narrow_s / wide_s)
    }

    /// Digest of the global model after [`WIDTH_CHECK_ROUNDS`] rounds of a
    /// fresh system at pool width `width`, and the wall of the last round.
    /// Leaves the pool at [`POOL_WIDTH`].
    fn rounds_at_width(&self, inputs: &Inputs, width: usize) -> Result<(u64, f64)> {
        let mut system = self.build_system(inputs)?;
        par::set_threads(width);
        let mut last = Ok(0.0);
        for _ in 0..WIDTH_CHECK_ROUNDS {
            let t0 = Instant::now();
            last = system.run_round().map(|_| t0.elapsed().as_secs_f64());
            if last.is_err() {
                break;
            }
        }
        par::set_threads(POOL_WIDTH);
        Ok((digest(system.global_params()), last?))
    }

    /// The traced pass: the per-layer metrics and the span trace.
    pub fn traced(&self, seed: u64, seconds: f64) -> Result<(Pass, Tracer)> {
        let mut pass = Pass::default();
        let mut tracer = Tracer::new();
        let (inputs, system) = tracer.span("bench.setup", 0, |t| self.setup(seed, t)).0?;
        let setup_self = self_times(tracer.spans(), None);

        // A short untraced run of the same engine: the base the stepwise
        // schedule is compared against.
        let (untraced, _) = self.run_untraced(
            &inputs,
            system,
            seconds * 0.3,
            WARMUP_ROUNDS + MIN_STEPWISE_ROUNDS,
            &mut pass.ops,
        )?;
        let round_min = fastest(&untraced.samples);
        let width_speedup = match self.engine {
            Engine::InProcess => self.width_check(&inputs, &mut pass)?,
            // Client threads, not the pool, carry this engine's parallelism.
            Engine::Wire { .. } => 0.0,
        };

        // Inside the engines a client's kernels run serially: the in-process
        // engine trains clients on pool workers, where nested regions run
        // inline. Width 1 gives the stepwise calls and the probes the same
        // kernels, so a layer's time here is what it costs a worker there;
        // what the pool adds or saves shows in `fl.engine_overhead_s` and
        // `fl.width_speedup`.
        par::set_threads(1);
        let layers = self.trace_layers(seed, seconds, &inputs, &mut tracer, &mut pass);
        par::set_threads(POOL_WIDTH);
        let (stepwise, selfs) = layers?;
        let layer = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        let client_busy = layer("fl.receive_global")
            + layer("fl.train_local")
            + layer("fl.produce_update")
            + layer("nn.decode_down")
            + layer("nn.encode_up");
        let server_busy = layer("fl.aggregate")
            + layer("nn.encode_down")
            + layer("nn.decode_base")
            + layer("nn.decode_up");
        // What the engine adds to the ideal schedule, in which the clients'
        // work is spread evenly over the pool and the server follows.
        let engine_overhead = round_min - (client_busy / POOL_WIDTH as f64 + server_busy);
        let kernels = stepwise.kernels;

        pass.metric(
            "tensor.achieved_gflops",
            kernels.matmul_flops as f64 / 1e9 / layer("fl.train_local"),
        );
        pass.counts_per_round(&kernels, &stepwise.params, 1.0);
        pass.metric("data.generate_s", setup_self["data.generate"]);
        pass.metric("data.split_s", setup_self["data.split"]);
        pass.metric("data.partition_s", setup_self["data.partition"]);
        pass.metric("fl.receive_global_s", layer("fl.receive_global"));
        pass.metric("fl.train_local_s", layer("fl.train_local"));
        pass.metric("fl.produce_update_s", layer("fl.produce_update"));
        pass.metric("fl.aggregate_s", layer("fl.aggregate"));
        pass.metric("fl.engine_overhead_s", engine_overhead);
        pass.metric("fl.round_p50_s", median(&untraced.samples));
        let p90 = tail_at(&untraced.samples, 90);
        if p90.percentile.is_none() {
            println!(
                "  fl.round_p90_s: {} samples leave fewer than 10 beyond p90; reporting the maximum",
                untraced.samples.len()
            );
        }
        pass.metric("fl.round_p90_s", p90.value);
        pass.metric(
            "fl.round_max_s",
            untraced.samples.iter().copied().fold(0.0, f64::max),
        );
        pass.metric("fl.width_speedup", width_speedup);
        let wire_rounds = untraced.wire_rounds.max(1) as f64;
        pass.metric("fl.updates_attempted", self.clients as f64);
        pass.metric(
            "fl.updates_aggregated",
            self.clients as f64 - untraced.updates_lost as f64 / wire_rounds,
        );
        pass.metric(
            "fl.updates_dropped",
            untraced.updates_lost as f64 / wire_rounds,
        );
        pass.metric("fl.frames_per_round", untraced.frames as f64 / wire_rounds);
        pass.metric(
            "fl.uplink_bytes_per_round",
            untraced.bytes_up as f64 / wire_rounds,
        );
        pass.metric(
            "fl.downlink_bytes_per_round",
            untraced.bytes_down as f64 / wire_rounds,
        );
        pass.metric("fl.net_sim_round_s", untraced.sim_s / wire_rounds);
        for cell_only in [
            "core.sensitivity_s",
            "attacks.shadow_fit_s",
            "attacks.evaluate_s",
            "attacks.evaluations",
            "harness.train_defense_s",
            "harness.cell_s",
            "harness.prepare_width_speedup",
        ] {
            pass.metric(cell_only, 0.0);
        }
        pass.metric(
            "bench.trace_overhead_ratio",
            stepwise.fastest_wall / round_min,
        );
        pass.metric("bench.traced_rounds", stepwise.rounds as f64);
        pass.note("untraced_round_min_s", Json::Num(round_min));
        pass.note(
            "untraced_round_samples",
            Json::Num(untraced.samples.len() as f64),
        );
        pass.note("client_busy_per_round_s", Json::Num(client_busy));
        pass.note("server_busy_per_round_s", Json::Num(server_busy));
        // Where the fastest untraced round's wall goes, on the ideal schedule.
        let client_share = |busy: f64| Json::Num(busy / POOL_WIDTH as f64 / round_min);
        pass.note(
            "shares_of_round",
            Json::obj(vec![
                ("train", client_share(layer("fl.train_local"))),
                (
                    "transform",
                    client_share(layer("fl.receive_global") + layer("fl.produce_update")),
                ),
                (
                    "client_codec",
                    client_share(layer("nn.decode_down") + layer("nn.encode_up")),
                ),
                ("server", Json::Num(server_busy / round_min)),
                ("engine_overhead", Json::Num(engine_overhead / round_min)),
            ]),
        );
        Ok((pass, tracer))
    }

    /// The serial part of the traced pass: the stepwise rounds and the
    /// standalone probes. Returns the stepwise run and the self times of its
    /// fastest round — as `round_min_s` is read off the fastest untraced
    /// round: the host's slow phases last seconds and would otherwise land on
    /// whichever layer ran in them.
    fn trace_layers(
        &self,
        seed: u64,
        seconds: f64,
        inputs: &Inputs,
        tracer: &mut Tracer,
        pass: &mut Pass,
    ) -> Result<(Stepwise, BTreeMap<&'static str, f64>)> {
        let stepwise = self.run_stepwise(inputs, seconds * 0.3, tracer, &mut pass.ops)?;
        let selfs = self_times(tracer.spans(), Some(stepwise.fastest_round));
        let train = &inputs.shards[0];
        probes::run_all(
            probes::Subject {
                kernel: self.kernel,
                model: &|| (self.arch)(&inputs.entry, &mut Rng::seed_from(seed)),
                optimizer: self.defense.bare_optimizer(),
                sample_shape: train.sample_shape(),
                classes: train.num_classes(),
                global: &stepwise.global,
                clients: self.clients,
                seed,
            },
            pass,
        )?;
        Ok((stepwise, selfs))
    }

    /// Drives rounds step by step for `seconds`, a span around every call
    /// into a layer: per client `receive_global` → `train_local` →
    /// `produce_update`, then `aggregate`; on the wire engine additionally
    /// the `nn::snapshot` encode/decode of every hop, as `spawn_client` and
    /// the server loop of `fl::transport` perform them.
    fn run_stepwise(
        &self,
        inputs: &Inputs,
        seconds: f64,
        tracer: &mut Tracer,
        ops: &mut Ops,
    ) -> Result<Stepwise> {
        let wire = matches!(self.engine, Engine::Wire { .. });
        let (mut server, mut clients, _) = self.build_system(inputs)?.into_parts();
        let mut feedback: Vec<ErrorFeedback> =
            clients.iter().map(|_| ErrorFeedback::new()).collect();
        let mut rounds = 0;
        let mut fastest = (0, f64::INFINITY);
        let mut counted = None;
        let budget = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        while started.elapsed() < budget || rounds < MIN_STEPWISE_ROUNDS {
            let round = rounds + 1;
            let before = (profile::snapshot(), profile::param_snapshot());
            let (outcome, wall) = tracer.span("bench.round", round, |t| -> Result<()> {
                let global = server.global_params().share();
                let mut updates = Vec::with_capacity(clients.len());
                let frame = match wire {
                    true => Some(
                        t.span("nn.encode_down", round, |_| {
                            encode_params(&global, Codec::F32)
                        })
                        .0?,
                    ),
                    false => None,
                };
                let base = match &frame {
                    Some(f) => Some(t.span("nn.decode_base", round, |_| decode_params(f)).0?),
                    None => None,
                };
                for (client, feedback) in clients.iter_mut().zip(&mut feedback) {
                    let received = match &frame {
                        Some(f) => t.span("nn.decode_down", round, |_| decode_params(f)).0?,
                        None => global.share(),
                    };
                    t.span("fl.receive_global", round, |_| {
                        client.receive_global(&received)
                    })
                    .0?;
                    t.span("fl.train_local", round, |_| client.train_local())
                        .0?;
                    let mut update = t
                        .span("fl.produce_update", round, |_| client.produce_update())
                        .0?;
                    if let Some(base) = &base {
                        let bytes = t
                            .span("nn.encode_up", round, |_| {
                                update
                                    .params
                                    .sub(&received)
                                    .and_then(|delta| feedback.compress(&delta, Codec::QuantI8))
                            })
                            .0?;
                        update.params = t
                            .span(
                                "nn.decode_up",
                                round,
                                |_| -> dinar_nn::Result<ModelParams> {
                                    let mut params = decode_params(&bytes)?;
                                    params.add_assign(base)?;
                                    Ok(params)
                                },
                            )
                            .0?;
                    }
                    updates.push(update);
                }
                t.span("fl.aggregate", round, |_| {
                    server.aggregate(&updates).map(|_| ())
                })
                .0?;
                Ok(())
            });
            outcome?;
            ops.record(self.clients, 0);
            rounds += 1;
            if wall < fastest.1 {
                fastest = (round, wall);
            }
            // Counts are taken over one fixed round past the first-touch
            // allocations, so they repeat exactly however many rounds fit.
            if round == MIN_STEPWISE_ROUNDS {
                counted = Some((
                    profile::snapshot().delta_since(&before.0),
                    profile::param_snapshot().delta_since(&before.1),
                ));
            }
        }
        let (kernels, params) = counted.expect("at least MIN_STEPWISE_ROUNDS rounds ran");
        Ok(Stepwise {
            rounds,
            fastest_round: fastest.0,
            fastest_wall: fastest.1,
            kernels,
            params,
            global: server.global_params().share(),
        })
    }
}

impl Defense {
    /// The optimizer the defense trains with, without any DP wrapper.
    fn bare_optimizer(self) -> Box<dyn Optimizer> {
        match self {
            Defense::Dinar => Box::new(optim::Adagrad::new(0.05)),
            Defense::Ldp => Box::new(optim::Adam::new(1e-3)),
            Defense::Wdp => Box::new(Sgd::new(0.1)),
        }
    }
}

fn wire_config() -> WireConfig {
    WireConfig::lossless()
        .with_uplink(Codec::QuantI8)
        .with_network(NetworkModel::uniform(Duration::from_millis(5), 1_000_000))
}

/// What an untraced run leaves behind.
#[derive(Default)]
struct UntracedRun {
    /// Wall seconds per round, warm-up excluded.
    samples: Vec<f64>,
    peak_mem: u64,
    first_loss: f32,
    checked_loss: f32,
    final_loss: f32,
    /// Wire engine only: rounds metered, rounds that aggregated fewer than
    /// all updates, updates lost, and the `RoundWireStats` totals.
    wire_rounds: usize,
    short_rounds: usize,
    updates_lost: usize,
    bytes_up: u64,
    bytes_down: u64,
    frames: u64,
    sim_s: f64,
}

/// What a stepwise run leaves behind.
struct Stepwise {
    rounds: usize,
    /// The traced round with the smallest wall, and that wall.
    fastest_round: usize,
    fastest_wall: f64,
    /// Counter deltas over round [`MIN_STEPWISE_ROUNDS`].
    kernels: profile::KernelSnapshot,
    params: profile::ParamSnapshot,
    global: ModelParams,
}

/// FNV-1a over the bit patterns of every parameter, in layer order.
pub fn digest(params: &ModelParams) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in params.to_flat() {
        for byte in value.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

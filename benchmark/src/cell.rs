//! `cell_purchase100`: one fig6 column slice as the figure binaries run it —
//! `harness::prepare`, then `train_defense` + `evaluate_run` for
//! {None, SA, DINAR} — and the paper's claims as output checks.

use crate::probes;
use crate::report::{nums, Pass, Result};
use crate::rounds::{digest, FCNN_DINAR};
use crate::stats::{fastest, median};
use crate::trace::{self_times, Tracer};
use dinar::init::{client_proposal, InitConfig};
use dinar_attacks::shadow::{ShadowAttack, ShadowConfig};
use dinar_bench::harness::{
    evaluate_run, model_for, prepare, prepare_training_only, train_defense, Defense, Environment,
    ExperimentSpec, Outcome,
};
use dinar_data::catalog::{self, Profile};
use dinar_data::partition::partition_dataset;
use dinar_data::split::attack_split;
use dinar_data::Dataset;
use dinar_nn::optim::Adagrad;
use dinar_nn::ModelParams;
use dinar_tensor::json::{Json, ToJson};
use dinar_tensor::{par, profile, Rng};
use std::time::{Duration, Instant};

/// Pool width of this workload. The figure path is main-thread code calling
/// small kernels; at width 2 every such call fans out to freshly spawned
/// threads, which makes `prepare` slower than at width 1 (1.2–2.8 s against
/// 0.9 s, `harness.prepare_width_speedup`) and hands its wall to the host's
/// scheduler: whole runs then differ by a third. Width 1 measures the attack
/// and harness code itself; `fcnn_dinar` covers the same model's rounds on
/// the two-wide pool.
pub const POOL_WIDTH: usize = 1;

/// Times `harness::prepare` is repeated in the untraced pass; `setup_s` is
/// the median.
const SETUP_REPS: usize = 5;

/// FL rounds per defense. `ExperimentSpec::mini_default` runs 15; the cell is
/// cut to a third so that several repetitions, and several `prepare` calls,
/// fit one timed run. Shadow epochs and the sensitivity warm-up scale with
/// it, as in the harness.
const ROUNDS: usize = 5;

fn spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        rounds: ROUNDS,
        seed,
        ..ExperimentSpec::mini_default(catalog::purchase100(Profile::Mini))
    }
}

fn lineup(env: &Environment) -> [Defense; 3] {
    [Defense::None, Defense::Sa, Defense::dinar(env.dinar_layer)]
}

/// One defense's result within a cell.
struct Column {
    outcome: Outcome,
    global: ModelParams,
    train_s: f64,
    evaluate_s: f64,
}

/// Trains and evaluates the three defenses on `env`; `tracer` wraps each
/// harness call in a span.
fn run_columns(env: &mut Environment, rep: usize, tracer: &mut Tracer) -> Result<Vec<Column>> {
    let mut columns = Vec::with_capacity(3);
    for defense in lineup(env) {
        let (run, train_s) = tracer.span("harness.train_defense", rep, |_| {
            train_defense(env, &defense)
        });
        let mut run = run?;
        let (outcome, evaluate_s) = tracer.span("attacks.evaluate", rep, |_| {
            evaluate_run(env, &mut run, defense.label())
        });
        columns.push(Column {
            outcome: outcome?,
            global: run.system.global_params().share(),
            train_s,
            evaluate_s,
        });
    }
    Ok(columns)
}

/// Client updates one `train_defense` call trains: `ROUNDS` rounds plus the
/// final upload pass.
fn updates_per_train(env: &Environment) -> usize {
    env.spec.clients * (ROUNDS + 1)
}

/// The untraced pass: the end-to-end metrics and the paper-claim checks.
pub fn untraced(seed: u64, seconds: f64) -> Result<Pass> {
    let mut pass = Pass::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        prepared = Some(prepare(spec(seed))?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut env = prepared.expect("SETUP_REPS is positive");
    let samples_per_round =
        env.shards.iter().map(Dataset::len).sum::<usize>() * env.spec.local_epochs;

    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut round_samples = Vec::new();
    let mut cell_walls = Vec::new();
    let mut first = None;
    while started.elapsed() < budget || cell_walls.len() < 2 {
        let columns = run_columns(&mut env, cell_walls.len() + 1, &mut Tracer::new())?;
        pass.ops.record(3 * (updates_per_train(&env) + 1), 0);
        round_samples.extend(columns.iter().map(|c| c.train_s / (ROUNDS + 1) as f64));
        cell_walls.push(
            columns
                .iter()
                .map(|c| c.train_s + c.evaluate_s)
                .sum::<f64>(),
        );
        first.get_or_insert(columns);
    }
    let columns = first.expect("at least two repetitions ran");

    pass.metric("setup_s", median(&setups));
    let round_min = fastest(&round_samples);
    pass.metric("round_min_s", round_min);
    pass.metric("samples_per_s", samples_per_round as f64 / round_min);
    pass.metric(
        "client_peak_mem_bytes",
        columns
            .iter()
            .map(|c| c.outcome.cost.client_peak_mem_bytes)
            .max()
            .unwrap_or(0) as f64,
    );
    pass.note("cell_walls_s", nums(&cell_walls));
    pass.note("round_walls_s", nums(&round_samples));
    pass.note("cell_s", Json::Num(median(&setups) + fastest(&cell_walls)));
    check_claims(&columns, &mut pass);
    check_masks_cancel(seed, &mut pass)?;
    Ok(pass)
}

/// The paper's claims on this cell, as bands around the values 16 seeds gave
/// when the benchmark was defined (README, "Output checks").
fn check_claims(columns: &[Column], pass: &mut Pass) {
    let [none, sa, dinar] = columns else {
        unreachable!("the lineup has three defenses");
    };
    for c in columns {
        pass.note(
            match c.outcome.defense.as_str() {
                "No defense" => "outcome_none",
                "SA" => "outcome_sa",
                _ => "outcome_dinar",
            },
            c.outcome.to_json(),
        );
    }
    let finite = columns
        .iter()
        .all(|c| c.global.to_flat().iter().all(|v| v.is_finite()));
    pass.ops.check(
        "global parameters finite",
        finite,
        "three global models",
        "all finite",
    );
    let near_chance = |auc: f64| (auc - 50.0).abs() <= 12.0;
    let (n, s, d) = (&none.outcome, &sa.outcome, &dinar.outcome);
    pass.ops.check(
        "DINAR holds the global-model attack near chance",
        near_chance(d.global_auc_pct),
        &format!("{:.1}", d.global_auc_pct),
        "50 ± 12",
    );
    pass.ops.check(
        "DINAR holds the upload attack near chance",
        near_chance(d.local_auc_pct),
        &format!("{:.1}", d.local_auc_pct),
        "50 ± 12",
    );
    pass.ops.check(
        "DINAR keeps accuracy within 10 points of no defense",
        d.accuracy_pct >= n.accuracy_pct - 10.0,
        &format!("{:.1} vs {:.1}", d.accuracy_pct, n.accuracy_pct),
        "≥ undefended − 10",
    );
    pass.ops.check(
        "undefended uploads leak membership",
        n.local_auc_pct >= 70.0,
        &format!("{:.1}", n.local_auc_pct),
        "≥ 70",
    );
    pass.ops.check(
        "SA protects uploads",
        (s.local_auc_pct - 50.0).abs() <= 6.0,
        &format!("{:.1}", s.local_auc_pct),
        "50 ± 6",
    );
    pass.ops.check(
        "SA does not protect the global model",
        (s.global_auc_pct - n.global_auc_pct).abs() <= 4.0,
        &format!("{:.1} vs {:.1}", s.global_auc_pct, n.global_auc_pct),
        "within 4 points of undefended",
    );
    pass.note(
        "global_digest",
        Json::Str(format!("{:016x}", digest(&dinar.global))),
    );
}

/// Secure aggregation's own claim: the pairwise masks cancel in the server's
/// sum. Compared after a single aggregation, where the undefended and the
/// masked run have seen identical inputs; over several rounds training
/// amplifies the masks' rounding residue and the two models drift apart.
fn check_masks_cancel(seed: u64, pass: &mut Pass) -> Result<()> {
    let env = prepare_training_only(ExperimentSpec {
        rounds: 1,
        ..spec(seed)
    })?;
    let plain = train_defense(&env, &Defense::None)?;
    let masked = train_defense(&env, &Defense::Sa)?;
    pass.ops.record(2 * 2 * env.spec.clients, 0);
    let (plain, masked) = (plain.system.global_params(), masked.system.global_params());
    let gap = f64::from(masked.max_abs_diff(plain)?);
    let rms = f64::from(plain.l2_norm()) / (plain.param_count() as f64).sqrt();
    pass.ops.check(
        "SA masks cancel in the aggregate",
        gap <= 5e-3 * rms,
        &format!("max |Δ| {gap:.2e} at parameter rms {rms:.2e}"),
        "≤ 5e-3 relative after one aggregation",
    );
    Ok(())
}

/// The traced pass: `prepare`'s constituents and every harness call under
/// spans, plus the standalone probes on `fcnn6`.
pub fn traced(seed: u64, _seconds: f64) -> Result<(Pass, Tracer)> {
    let mut pass = Pass::default();

    // One untraced cell, the base of `bench.trace_overhead_ratio`.
    let t0 = Instant::now();
    let mut env = prepare(spec(seed))?;
    let prepare_s = t0.elapsed().as_secs_f64();
    run_columns(&mut env, 0, &mut Tracer::new())?;
    let untraced_cell_s = t0.elapsed().as_secs_f64();
    pass.ops.record(3 * (updates_per_train(&env) + 1), 0);

    // The same `prepare` on the two-wide pool the round workloads use.
    par::set_threads(crate::spec::POOL_WIDTH);
    let t0 = Instant::now();
    let wide = prepare(spec(seed));
    let wide_prepare_s = t0.elapsed().as_secs_f64();
    par::set_threads(POOL_WIDTH);
    wide?;

    let mut tracer = Tracer::new();
    let (cell, traced_cell_s) = tracer.span("harness.cell", 1, |t| -> Result<_> {
        let mut env = prepare_stepwise(spec(seed), t)?;
        let before = (profile::snapshot(), profile::param_snapshot());
        let columns = run_columns(&mut env, 1, t)?;
        Ok((
            columns,
            profile::snapshot().delta_since(&before.0),
            profile::param_snapshot().delta_since(&before.1),
        ))
    });
    let (columns, kernels, params) = cell?;
    pass.ops.record(3 * (updates_per_train(&env) + 1), 0);
    let selfs = self_times(tracer.spans(), None);
    let train_s: f64 = columns.iter().map(|c| c.train_s).sum();
    let evaluate_s: f64 = columns.iter().map(|c| c.evaluate_s).sum();
    // Rounds behind the per-round counts: every training pass of every
    // defense. The counts are taken over the three columns (the evaluations'
    // forward passes included) and exclude `prepare`, whose shadow models and
    // sensitivity warm-up train outside any round.
    let rounds = (3 * (ROUNDS + 1)) as f64;

    pass.metric(
        "tensor.achieved_gflops",
        kernels.matmul_flops as f64 / 1e9 / (train_s + evaluate_s),
    );
    pass.counts_per_round(&kernels, &params, rounds);
    pass.metric("data.generate_s", selfs["data.generate"]);
    pass.metric("data.split_s", selfs["data.split"]);
    pass.metric("data.partition_s", selfs["data.partition"]);
    // The harness drives its rounds inside `train_defense`: there is no
    // public step to put a span around, and no wire.
    for unreached in [
        "fl.receive_global_s",
        "fl.train_local_s",
        "fl.produce_update_s",
        "fl.aggregate_s",
        "fl.engine_overhead_s",
        "fl.round_p50_s",
        "fl.round_p90_s",
        "fl.round_max_s",
        "fl.width_speedup",
        "fl.updates_dropped",
        "fl.frames_per_round",
        "fl.uplink_bytes_per_round",
        "fl.downlink_bytes_per_round",
        "fl.net_sim_round_s",
    ] {
        pass.metric(unreached, 0.0);
    }
    pass.metric("fl.updates_attempted", env.spec.clients as f64);
    pass.metric("fl.updates_aggregated", env.spec.clients as f64);
    pass.metric("core.sensitivity_s", selfs["core.sensitivity"]);
    pass.metric("attacks.shadow_fit_s", selfs["attacks.shadow_fit"]);
    let evaluations = 3 * (env.spec.clients + 1);
    pass.metric(
        "attacks.evaluate_s",
        selfs["attacks.evaluate"] / evaluations as f64,
    );
    pass.metric("attacks.evaluations", evaluations as f64);
    pass.metric("harness.train_defense_s", train_s / 3.0);
    pass.metric("harness.cell_s", untraced_cell_s);
    pass.metric("harness.prepare_width_speedup", prepare_s / wide_prepare_s);
    pass.metric(
        "bench.trace_overhead_ratio",
        traced_cell_s / untraced_cell_s,
    );
    pass.metric("bench.traced_rounds", rounds);
    pass.note(
        "shares_of_cell",
        Json::obj(
            [
                "attacks.shadow_fit",
                "core.sensitivity",
                "harness.train_defense",
                "attacks.evaluate",
            ]
            .map(|name| (name, Json::Num(selfs[name] / traced_cell_s))),
        ),
    );

    let entry = env.spec.entry.clone();
    probes::run_all(
        probes::Subject {
            // The same `fcnn6` on the same dataset.
            kernel: FCNN_DINAR.kernel,
            model: &|| model_for(&entry, &mut Rng::seed_from(seed)),
            optimizer: Box::new(Adagrad::new(0.05)),
            sample_shape: env.split.train.sample_shape(),
            classes: env.split.train.num_classes(),
            global: &columns[0].global,
            clients: env.spec.clients,
            seed,
        },
        &mut pass,
    )?;
    check_claims(&columns, &mut pass);
    check_masks_cancel(seed, &mut pass)?;
    Ok((pass, tracer))
}

/// `harness::prepare`, constituent by constituent, each under its own span.
/// Mirrors the harness so the traced cell does the same work.
fn prepare_stepwise(spec: ExperimentSpec, t: &mut Tracer) -> Result<Environment> {
    let mut rng = Rng::seed_from(spec.seed);
    let dataset = t
        .span("data.generate", 1, |_| spec.entry.generate(&mut rng))
        .0?;
    let split = t
        .span("data.split", 1, |_| attack_split(&dataset, &mut rng))
        .0?;
    let shards = t
        .span("data.partition", 1, |_| {
            partition_dataset(&split.train, spec.clients, spec.distribution, &mut rng)
        })
        .0?;
    let mut attack = ShadowAttack::new(ShadowConfig {
        num_shadows: 3,
        shadow_epochs: spec.rounds * spec.local_epochs,
        batch_size: spec.batch_size,
        lr: spec.baseline_opt.1,
        optimizer: spec.baseline_opt.0,
        attack_epochs: 80,
        seed: spec.seed ^ 0xA77A,
    });
    let entry = spec.entry.clone();
    t.span("attacks.shadow_fit", 1, |_| {
        attack.fit(&split.attacker, |rng| model_for(&entry, rng))
    })
    .0?;
    let mut init_rng = rng.split(0xD1AA);
    let mut probe_model = model_for(&spec.entry, &mut init_rng)?;
    let sensitivity_argmax = t
        .span("core.sensitivity", 1, |_| {
            client_proposal(
                &mut probe_model,
                &shards[0],
                &split.test,
                &InitConfig {
                    warmup_epochs: spec.rounds * spec.local_epochs / 2,
                    batch_size: spec.batch_size,
                    lr: spec.dinar_opt.1,
                    ..InitConfig::default()
                },
                &mut init_rng,
            )
        })
        .0?;
    let dinar_layer = probe_model.num_trainable_layers().saturating_sub(2);
    Ok(Environment {
        spec,
        split,
        shards,
        attack,
        dinar_layer,
        sensitivity_argmax,
    })
}

//! Shared experiment machinery: dataset → model mapping, defense assembly,
//! end-to-end privacy/utility/cost measurement.

use dinar::middleware::DinarMiddleware;
use dinar::{DinarConfig, ObfuscationStrategy};
use dinar_attacks::evaluate_attack;
use dinar_attacks::shadow::{ShadowAttack, ShadowConfig};
use dinar_data::catalog::CatalogEntry;
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_data::split::{attack_split, AttackSplit};
use dinar_data::Dataset;
use dinar_defenses::{
    CentralDp, DpOptimizer, DpParams, GradientCompression, SaGroup, SecureAggregation, WeakDp,
};
use dinar_fl::{ClientMiddleware, FlConfig, FlSystem};
use dinar_metrics::cost::CostSample;
use dinar_nn::optim::{self, Adam, Optimizer};
use dinar_nn::{Model, ModelParams};
use dinar_telemetry::{export, Telemetry};
use dinar_tensor::json::{Json, ToJson};
use dinar_tensor::Rng;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maximum samples per side when estimating an attack AUC (keeps the
/// evaluation fast without biasing the estimate).
const AUC_EVAL_CAP: usize = 200;

/// A defense configuration under test (the paper's §5.2 baselines + DINAR).
#[derive(Debug, Clone, PartialEq)]
pub enum Defense {
    /// Undefended FL (the baseline of every comparison).
    None,
    /// Weak DP: norm bound 5, σ = 0.025.
    Wdp,
    /// Local DP with the given ε (δ = 10⁻⁵).
    Ldp {
        /// Privacy budget ε.
        epsilon: f32,
    },
    /// Central DP with the given ε (δ = 10⁻⁵).
    Cdp {
        /// Privacy budget ε.
        epsilon: f32,
    },
    /// Gradient compression keeping the given fraction of update entries.
    Gc {
        /// Fraction of entries kept.
        keep_ratio: f32,
    },
    /// Secure aggregation (pairwise masking).
    Sa,
    /// DINAR protecting the given trainable layers.
    Dinar {
        /// Protected layer indices (normally one: the consensus layer).
        layers: Vec<usize>,
        /// Obfuscation strategy.
        strategy: ObfuscationStrategy,
    },
}

impl Defense {
    /// The paper's seven-column defense lineup, given DINAR's layer `p`.
    pub fn lineup(dinar_layer: usize) -> Vec<Defense> {
        vec![
            Defense::None,
            Defense::Wdp,
            Defense::Ldp { epsilon: 2.2 },
            Defense::Cdp { epsilon: 2.2 },
            Defense::Gc { keep_ratio: 0.1 },
            Defense::Sa,
            Defense::dinar(dinar_layer),
        ]
    }

    /// Standard single-layer DINAR with random-value obfuscation.
    pub fn dinar(layer: usize) -> Defense {
        Defense::Dinar {
            layers: vec![layer],
            strategy: ObfuscationStrategy::Random,
        }
    }

    /// Column label used in reports (matching the paper's figures).
    pub fn label(&self) -> String {
        match self {
            Defense::None => "No defense".into(),
            Defense::Wdp => "WDP".into(),
            Defense::Ldp { .. } => "LDP".into(),
            Defense::Cdp { .. } => "CDP".into(),
            Defense::Gc { .. } => "GC".into(),
            Defense::Sa => "SA".into(),
            Defense::Dinar { .. } => "DINAR".into(),
        }
    }
}

/// Parameters of one experiment (dataset × FL configuration).
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Dataset to generate.
    pub entry: CatalogEntry,
    /// Number of FL clients (the paper uses 5, or 10 for Purchase100).
    pub clients: usize,
    /// FL rounds.
    pub rounds: usize,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Baseline optimizer (name, learning rate) — the paper trains baselines
    /// at lr 1e-3.
    pub baseline_opt: (&'static str, f32),
    /// DINAR optimizer (name, learning rate) — Algorithm 1 uses Adagrad.
    pub dinar_opt: (&'static str, f32),
    /// Client data distribution.
    pub distribution: Distribution,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// The CPU-scale default for a catalog dataset: mirrors the paper's §5.3
    /// choices (5 clients, 10 for Purchase100; batch 64) with round counts
    /// scaled to the mini profiles.
    pub fn mini_default(entry: CatalogEntry) -> Self {
        let clients = if entry.name() == "purchase100" { 10 } else { 5 };
        let (rounds, local_epochs) = match entry.name() {
            "purchase100" => (15, 10),
            "texas100" => (12, 5),
            // The VGG11-mini tasks need a longer plateau escape.
            "gtsrb" | "celeba" => (20, 5),
            _ => (10, 5),
        };
        ExperimentSpec {
            entry,
            clients,
            rounds,
            local_epochs,
            batch_size: 64,
            baseline_opt: ("adagrad", 0.05),
            dinar_opt: ("adagrad", 0.05),
            distribution: Distribution::Iid,
            seed: 42,
        }
    }
}

/// Builds the paper's model for a dataset (Table 2 mapping, mini profiles).
///
/// # Errors
///
/// Propagates model-construction errors.
pub fn model_for(entry: &CatalogEntry, rng: &mut Rng) -> dinar_nn::Result<Model> {
    use dinar_nn::models;
    let classes = entry.spec.num_classes;
    match entry.name() {
        "cifar10" | "cifar100" => models::resnet_mini(3, classes, rng),
        "gtsrb" => models::vgg11_mini(3, classes, rng),
        "celeba" => models::vgg11_mini(1, classes, rng),
        "speech_commands" => models::m18_mini(classes, rng),
        _ => {
            let features = entry.spec.modality.feature_len();
            models::fcnn6(features, classes, 64, rng)
        }
    }
}

/// A prepared experiment environment, reusable across defenses so every
/// defense sees the same data, the same initial model distribution, and the
/// same fitted attacker.
pub struct Environment {
    /// The experiment parameters.
    pub spec: ExperimentSpec,
    /// Attacker/train/test split.
    pub split: AttackSplit,
    /// Per-client shards of the train pool.
    pub shards: Vec<Dataset>,
    /// The fitted shadow-model attack.
    pub attack: ShadowAttack,
    /// The layer DINAR protects in the figures: the penultimate trainable
    /// layer, where the paper reports the consensus converges (§4.1). See
    /// EXPERIMENTS.md for why this is pinned rather than taken from
    /// [`Environment::sensitivity_argmax`] on synthetic substitutes.
    pub dinar_layer: usize,
    /// The argmax of our own divergence measurement on this environment's
    /// data (reported in fig1/fig4; used by ablations).
    pub sensitivity_argmax: usize,
}

impl std::fmt::Debug for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Environment")
            .field("dataset", &self.spec.entry.name())
            .field("clients", &self.spec.clients)
            .field("dinar_layer", &self.dinar_layer)
            .finish()
    }
}

/// Prepares an environment: generates the data, performs the paper's splits,
/// fits the shadow attack on the attacker half, and determines DINAR's layer
/// via the initialization analysis.
///
/// # Errors
///
/// Propagates data, training and attack-fitting errors.
pub fn prepare(spec: ExperimentSpec) -> Result<Environment, Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(spec.seed);
    let dataset = spec.entry.generate(&mut rng)?;
    let split = attack_split(&dataset, &mut rng)?;
    let shards = partition_dataset(&split.train, spec.clients, spec.distribution, &mut rng)?;

    // Fit the shadow attack on the attacker's half.
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
    attack.fit(&split.attacker, move |rng| model_for(&entry, rng))?;

    // DINAR initialization: one representative client's sensitivity probe
    // (all honest clients converge to the same argmax on IID shards; the
    // full Byzantine vote is exercised in `dinar::init` tests and fig1).
    let mut init_rng = rng.split(0xD1AA);
    let mut probe_model = model_for(&spec.entry, &mut init_rng)?;
    let probe_members = shards[0].clone();
    let sensitivity_argmax = dinar::init::client_proposal(
        &mut probe_model,
        &probe_members,
        &split.test,
        &dinar::init::InitConfig {
            warmup_epochs: spec.rounds * spec.local_epochs / 2,
            batch_size: spec.batch_size,
            lr: spec.dinar_opt.1,
            ..dinar::init::InitConfig::default()
        },
        &mut init_rng,
    )?;

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

/// Prepares a training-only environment: data, splits and shards as in
/// [`prepare`], but with an *unfitted* shadow attack and no sensitivity
/// probe. Sufficient for [`train_defense`] (which never touches the
/// attack) and orders of magnitude cheaper, so audit and overhead
/// binaries can train the full defense lineup quickly; calling
/// [`evaluate_run`] on such an environment is an error.
///
/// # Errors
///
/// Propagates data-generation and partitioning errors.
pub fn prepare_training_only(
    spec: ExperimentSpec,
) -> Result<Environment, Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(spec.seed);
    let dataset = spec.entry.generate(&mut rng)?;
    let split = attack_split(&dataset, &mut rng)?;
    let shards = partition_dataset(&split.train, spec.clients, spec.distribution, &mut rng)?;
    let attack = ShadowAttack::new(ShadowConfig {
        num_shadows: 1,
        shadow_epochs: 1,
        batch_size: spec.batch_size,
        lr: spec.baseline_opt.1,
        optimizer: spec.baseline_opt.0,
        attack_epochs: 1,
        seed: spec.seed ^ 0xA77A,
    });
    let dinar_layer = model_for(&spec.entry, &mut rng)?
        .num_trainable_layers()
        .saturating_sub(2);
    Ok(Environment {
        spec,
        split,
        shards,
        attack,
        dinar_layer,
        sensitivity_argmax: dinar_layer,
    })
}

/// The measured outcome of one (dataset, defense) run — one cell of the
/// paper's evaluation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Dataset name.
    pub dataset: String,
    /// Defense label.
    pub defense: String,
    /// Attack AUC against the global model, in percent (Fig. 6 left).
    pub global_auc_pct: f64,
    /// Mean attack AUC against client uploads, in percent (Fig. 6 right).
    pub local_auc_pct: f64,
    /// Mean personalized-client accuracy on held-out test data, in percent.
    pub accuracy_pct: f64,
    /// Mean per-round costs.
    pub cost: CostSample,
}

impl ToJson for Outcome {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dataset", self.dataset.to_json()),
            ("defense", self.defense.to_json()),
            ("global_auc_pct", self.global_auc_pct.to_json()),
            ("local_auc_pct", self.local_auc_pct.to_json()),
            ("accuracy_pct", self.accuracy_pct.to_json()),
            ("cost", self.cost.to_json()),
        ])
    }
}

impl Outcome {
    /// Reconstructs an outcome from its [`ToJson`] encoding (used to reuse a
    /// previous run's `fig6.json` artifact).
    ///
    /// Returns `None` if any field is missing or has the wrong type.
    pub fn from_json(value: &Json) -> Option<Self> {
        Some(Outcome {
            dataset: value.get("dataset").and_then(Json::as_str)?.to_string(),
            defense: value.get("defense").and_then(Json::as_str)?.to_string(),
            global_auc_pct: value.get("global_auc_pct").and_then(Json::as_f64)?,
            local_auc_pct: value.get("local_auc_pct").and_then(Json::as_f64)?,
            accuracy_pct: value.get("accuracy_pct").and_then(Json::as_f64)?,
            cost: CostSample::from_json(value.get("cost")?)?,
        })
    }
}

/// A trained FL system plus the artifacts the evaluations need.
#[derive(Debug)]
pub struct TrainedRun {
    /// The trained system (clients hold personalized end-of-training models).
    pub system: FlSystem,
    /// The final per-client uploads, as the server-side attacker sees them.
    pub uploads: Vec<ModelParams>,
    /// Mean per-round cost sample.
    pub cost: CostSample,
}

/// Trains one defense configuration on a prepared environment, returning the
/// trained system for further inspection (loss distributions, per-layer
/// experiments).
///
/// Observation: when `DINAR_OBSERVE=<dir>` is set
/// ([`dinar_telemetry::observe_dir`]), the run records on a fresh enabled
/// sink and writes `<dir>/RUN_<nnn>_<dataset>_<defense>.json` afterwards
/// ([`dinar_telemetry::export::run_document`]), naming the file on stderr;
/// `nnn` counts observed runs in this process, so repeated labels (fig10's
/// LDP at every ε) never overwrite each other. Any paper artifact can be
/// observed without a rebuild. For programmatic access to the sink (audit
/// artifacts, overhead benches) use [`train_defense_with_telemetry`].
///
/// # Errors
///
/// Propagates FL and middleware errors.
pub fn train_defense(
    env: &Environment,
    defense: &Defense,
) -> Result<TrainedRun, Box<dyn std::error::Error>> {
    match dinar_telemetry::observe_dir() {
        Some(dir) => train_observed(env, defense, &dir, &Telemetry::new()),
        None => train_defense_with_telemetry(env, defense, &Telemetry::disabled()),
    }
}

/// Observed runs so far in this process: the `nnn` of each RUN file.
static OBSERVED_RUNS: AtomicUsize = AtomicUsize::new(0);

/// [`train_defense_with_telemetry`] on `telemetry`, then its RUN document
/// written into `dir` — whether or not the run succeeded. A write failure
/// is reported on stderr: an exporter never fails the run it observed.
fn train_observed(
    env: &Environment,
    defense: &Defense,
    dir: &Path,
    telemetry: &Telemetry,
) -> Result<TrainedRun, Box<dyn std::error::Error>> {
    let run = train_defense_with_telemetry(env, defense, telemetry);
    let nnn = OBSERVED_RUNS.fetch_add(1, Ordering::Relaxed) + 1;
    // File-name safe: "No defense" becomes "No-defense".
    let token = |s: &str| -> String {
        s.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect()
    };
    let id = format!(
        "{nnn:03}_{}_{}",
        token(env.spec.entry.name()),
        token(&defense.label())
    );
    match export::write_run(telemetry, dir, &id) {
        Ok(path) => eprintln!("observed run: {}", path.display()),
        Err(e) => eprintln!(
            "observed run {id}: writing into {} failed: {e}",
            dir.display()
        ),
    }
    run
}

/// [`train_defense`] with a caller-supplied telemetry sink.
///
/// When `telemetry` is enabled it is attached to every client, optimizer
/// and middleware before training, so defense transforms charge the
/// privacy ledger and spans/metrics record; nothing is written — the
/// caller owns the sink and what becomes of it. A
/// [`Telemetry::disabled`] sink makes this identical to an unobserved run.
///
/// # Errors
///
/// Propagates FL and middleware errors.
pub fn train_defense_with_telemetry(
    env: &Environment,
    defense: &Defense,
    telemetry: &Telemetry,
) -> Result<TrainedRun, Box<dyn std::error::Error>> {
    let spec = &env.spec;
    let entry = spec.entry.clone();
    let is_dinar = matches!(defense, Defense::Dinar { .. });

    let fl_config = FlConfig {
        local_epochs: spec.local_epochs,
        batch_size: spec.batch_size,
        seed: spec.seed,
    };
    let (opt_name, opt_lr) = if is_dinar {
        spec.dinar_opt
    } else {
        spec.baseline_opt
    };
    // LDP trains with Opacus-style DP-SGD: gradient clipping + noise at
    // every step, wrapped around Adam (see EXPERIMENTS.md for calibration).
    let ldp_eps = match defense {
        Defense::Ldp { epsilon } => Some(*epsilon),
        _ => None,
    };
    let opt_seed = spec.seed;
    let make_opt = optim::by_name(opt_name)
        .ok_or_else(|| format!("unknown optimizer `{opt_name}` in the experiment spec"))?;
    let mut builder = FlSystem::builder(fl_config).clients_from_shards(
        env.shards.clone(),
        |rng| model_for(&entry, rng),
        move |id| -> Box<dyn Optimizer> {
            match ldp_eps {
                Some(epsilon) => Box::new(
                    DpOptimizer::new(
                        Box::new(Adam::new(1e-3)),
                        DpParams::paper_default().with_epsilon(epsilon),
                        Rng::seed_from(opt_seed ^ 0xD9 ^ ((id as u64) << 16)),
                    )
                    .with_amortization_over(2),
                ),
                None => make_opt(opt_lr),
            }
        },
    )?;

    // Client-side middleware.
    let sample_counts: Vec<usize> = env.shards.iter().map(Dataset::len).collect();
    let seed = spec.seed;
    match defense.clone() {
        Defense::None | Defense::Cdp { .. } => {}
        Defense::Wdp => {
            builder = builder.with_client_middleware(|id| {
                vec![Box::new(WeakDp::paper_default(Rng::seed_from(
                    seed ^ (id as u64) << 8,
                ))) as Box<dyn ClientMiddleware>]
            });
        }
        // LDP is handled in the optimizer factory (training-time DP-SGD).
        Defense::Ldp { .. } => {}
        Defense::Gc { keep_ratio } => {
            builder = builder.with_client_middleware(move |_| {
                vec![
                    Box::new(GradientCompression::new(keep_ratio).with_error_feedback(false))
                        as Box<dyn ClientMiddleware>,
                ]
            });
        }
        Defense::Sa => {
            let group = SaGroup::from_sample_counts(&sample_counts, seed ^ 0x5A);
            builder = builder.with_client_middleware(move |_| {
                vec![
                    Box::new(SecureAggregation::new(std::sync::Arc::clone(&group)))
                        as Box<dyn ClientMiddleware>,
                ]
            });
        }
        Defense::Dinar { layers, strategy } => {
            let config = DinarConfig {
                strategy,
                ..DinarConfig::default()
            };
            builder = builder.with_client_middleware(move |id| {
                vec![Box::new(DinarMiddleware::multi(
                    layers.clone(),
                    config,
                    seed ^ id as u64,
                )) as Box<dyn ClientMiddleware>]
            });
        }
    }
    // Server-side middleware.
    if let Defense::Cdp { epsilon } = defense {
        let mut dp = DpParams::paper_default().with_epsilon(*epsilon);
        dp.clip_norm = 1.0; // tighter aggregate clipping; see EXPERIMENTS.md
        builder = builder.with_server_middleware(Box::new(CentralDp::new(
            dp,
            1, // full-strength central noise
            Rng::seed_from(seed ^ 0xCD),
        )));
    }

    let mut system = builder.build()?;
    if telemetry.is_enabled() {
        system.set_telemetry(telemetry.clone());
    }
    let reports = system.run(spec.rounds)?;
    let cost = CostSample {
        client_train_s: reports.iter().map(|r| r.cost.client_train_s).sum::<f64>()
            / reports.len().max(1) as f64,
        server_agg_s: reports.iter().map(|r| r.cost.server_agg_s).sum::<f64>()
            / reports.len().max(1) as f64,
        client_peak_mem_bytes: reports
            .iter()
            .map(|r| r.cost.client_peak_mem_bytes)
            .max()
            .unwrap_or(0),
    };

    // Final pass: every client downloads the final global model, trains, and
    // produces one more upload; this gives us (a) the per-client uploads the
    // server-side attacker sees and (b) personalized client models for the
    // utility metric.
    let global = system.global_params().share();
    let mut uploads: Vec<ModelParams> = Vec::new();
    for client in system.clients_mut() {
        client.receive_global(&global)?;
        client.train_local()?;
        uploads.push(client.produce_update()?.params);
    }
    Ok(TrainedRun {
        system,
        uploads,
        cost,
    })
}

/// Evaluates a trained run: attack AUC on the global model and on every
/// client upload, plus the utility metric.
///
/// # Errors
///
/// Propagates attack and evaluation errors.
pub fn evaluate_run(
    env: &mut Environment,
    run: &mut TrainedRun,
    defense_label: String,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let spec = &env.spec;
    let mut rng = Rng::seed_from(spec.seed ^ 0xE7A1);
    let mut template = model_for(&spec.entry, &mut rng)?;

    // Attack the global model: members are the train pool, non-members the
    // test set.
    let members = subsample(&env.split.train, AUC_EVAL_CAP, &mut rng)?;
    let nonmembers = subsample(&env.split.test, AUC_EVAL_CAP, &mut rng)?;
    let global_result = evaluate_attack(
        &mut env.attack,
        run.system.global_params(),
        &mut template,
        &members,
        &nonmembers,
    )?;

    // Attack each client upload: members are that client's own shard.
    let mut local_sum = 0.0;
    for (client, upload) in run.system.clients().iter().zip(&run.uploads) {
        let client_members = subsample(client.data(), AUC_EVAL_CAP, &mut rng)?;
        let result = evaluate_attack(
            &mut env.attack,
            upload,
            &mut template,
            &client_members,
            &nonmembers,
        )?;
        local_sum += result.auc;
    }
    let local_auc = local_sum / run.system.clients().len() as f64;

    // Utility: personalized client models on held-out test data.
    let accuracy = run.system.mean_client_accuracy(&env.split.test)?;

    Ok(Outcome {
        dataset: spec.entry.name().to_string(),
        defense: defense_label,
        global_auc_pct: global_result.auc * 100.0,
        local_auc_pct: local_auc * 100.0,
        accuracy_pct: accuracy as f64 * 100.0,
        cost: run.cost,
    })
}

/// Trains and evaluates one defense on a prepared environment — one cell of
/// the paper's evaluation grid.
///
/// # Errors
///
/// Propagates FL, middleware and attack errors.
pub fn run_defense(
    env: &mut Environment,
    defense: &Defense,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut run = train_defense(env, defense)?;
    evaluate_run(env, &mut run, defense.label())
}

/// A uniformly subsampled copy of a dataset (or the dataset itself if small).
fn subsample(ds: &Dataset, cap: usize, rng: &mut Rng) -> dinar_data::Result<Dataset> {
    if ds.len() <= cap {
        return ds.subset(&(0..ds.len()).collect::<Vec<_>>());
    }
    let mut perm = rng.permutation(ds.len());
    perm.truncate(cap);
    ds.subset(&perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_data::catalog::{self, Profile};

    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .map(|e| {
                        e.expect("dir entry")
                            .file_name()
                            .to_string_lossy()
                            .into_owned()
                    })
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    /// One observed run writes one RUN document whose trace is the sink's
    /// trace export; an unobserved run and a caller-supplied sink write
    /// nothing.
    #[test]
    fn an_observed_run_writes_one_run_document() {
        let env = prepare_training_only(ExperimentSpec {
            clients: 2,
            rounds: 1,
            local_epochs: 1,
            ..ExperimentSpec::mini_default(catalog::purchase100(Profile::Mini))
        })
        .expect("environment");
        let dir = std::env::temp_dir().join(format!("dinar-observe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        train_defense_with_telemetry(&env, &Defense::None, &Telemetry::disabled())
            .expect("unobserved run");
        train_defense_with_telemetry(&env, &Defense::None, &Telemetry::new())
            .expect("caller-supplied sink");
        assert!(files_in(&dir).is_empty());

        let tel = Telemetry::new();
        train_observed(&env, &Defense::None, &dir, &tel).expect("observed run");
        let files = files_in(&dir);
        assert_eq!(files.len(), 1, "{files:?}");
        assert!(
            files[0].starts_with("RUN_") && files[0].ends_with("_purchase100_No-defense.json"),
            "{files:?}"
        );
        let text = std::fs::read_to_string(dir.join(&files[0])).expect("RUN file");
        let doc = Json::parse(&text).expect("RUN file parses");
        for key in [
            "traceEvents",
            "metrics",
            "summary_tree",
            "span_coverage",
            "privacy",
            "flight",
            "flight_dropped",
        ] {
            assert!(doc.get(key).is_some(), "RUN file lacks `{key}`");
        }
        let trace = Json::parse(&export::trace_events(&tel)).expect("trace parses");
        let events = trace.get("traceEvents").and_then(Json::as_arr);
        assert!(events.is_some_and(|e| !e.is_empty()));
        assert_eq!(doc.get("traceEvents").and_then(Json::as_arr), events);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}

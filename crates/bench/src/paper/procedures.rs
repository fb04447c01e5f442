//! The artifacts that are not grids: static tables, per-layer sweeps, loss
//! distributions, the fig7 view over fig6, the two extension experiments
//! and the training-step profile. Each returns its printed report and JSON
//! for the runner.

use super::{at_width, grids, seeds, Output, Result, PROFILE};
use crate::harness::{
    model_for, prepare, run_defense, train_defense, Defense, ExperimentSpec, Outcome,
};
use crate::report;
use dinar::obfuscation::{obfuscate_layer, ObfuscationStrategy};
use dinar::sensitivity::{layer_divergences, SensitivityConfig};
use dinar_attacks::evaluate_attack;
use dinar_attacks::inversion::{cosine_similarity, invert_class, InversionConfig};
use dinar_attacks::repair::{RepairAttack, RepairConfig};
use dinar_attacks::threshold::LossThresholdAttack;
use dinar_data::catalog::{self, CatalogEntry};
use dinar_data::split::attack_split;
use dinar_data::Dataset;
use dinar_fl::eval::losses_of_params;
use dinar_fl::{FlConfig, FlSystem};
use dinar_metrics::histogram::js_divergence_samples;
use dinar_metrics::stats::Summary;
use dinar_nn::activation::Tanh;
use dinar_nn::dense::Dense;
use dinar_nn::dropout::Dropout;
use dinar_nn::loss::CrossEntropyLoss;
use dinar_nn::optim::{Adagrad, Optimizer};
use dinar_nn::{Layer, Model, ModelParams};
use dinar_tensor::json::{Json, ToJson};
use dinar_tensor::{Rng, Tensor, TensorError};
use std::fmt::Write as _;
use std::path::Path;

/// Table 1: the paper's qualitative taxonomy of FL privacy-preserving
/// methods, reproduced verbatim (a claim, not a measurement) so the measured
/// grids can be read against it.
pub fn table1() -> Result<Output> {
    let headers = [
        "Category",
        "Method",
        "Model privacy",
        "Model utility",
        "Negligible overhead",
    ];
    let rows: Vec<Vec<String>> = [
        "Cryptography-based|PEFL|yes|yes|no (severe)",
        "Cryptography-based|HybridAlpha|yes|yes|no (severe)",
        "Cryptography-based|Chen et al.|yes|yes|no (severe)",
        "Cryptography-based|Secure Aggregation|yes|yes|no",
        "TEE-based|MixNN|yes|yes|no (severe)",
        "TEE-based|GradSec|yes|yes|no (severe)",
        "TEE-based|PPFL|yes|yes|no (severe)",
        "Perturbation-based|CDP|yes|no|no",
        "Perturbation-based|LDP|yes|no|no",
        "Perturbation-based|FedGP|yes|no|no",
        "Perturbation-based|WDP|no|yes|no",
        "Perturbation-based|PFA|yes|yes|no",
        "Perturbation-based|MR-MTL|no|yes|no",
        "Perturbation-based|DP-FedSAM|yes|yes|no",
        "Perturbation-based|PrivateFL|no|yes|no",
        "Gradient Compression|Fu et al.|yes|yes|no",
        "Our method|DINAR|yes|yes|yes",
    ]
    .iter()
    .map(|row| row.split('|').map(str::to_string).collect())
    .collect();
    let mut text =
        String::from("Table 1 — Comparison of FL privacy-preserving methods (paper taxonomy)\n\n");
    text.push_str(&report::table(&headers, &rows));
    text.push_str("\nOf these, this repository implements and measures: Secure Aggregation,\n");
    text.push_str("CDP, LDP, WDP, Gradient Compression, and DINAR (see fig6/fig7/table3).\n");
    Ok(Output {
        text,
        json: None,
        seeds: Vec::new(),
    })
}

/// Table 2: the dataset/model inventory — the paper's dimensions beside
/// the mini profiles and the parameter counts of our models.
pub fn table2() -> Result<Output> {
    let mut rng = Rng::seed_from(0);
    let headers = [
        "Dataset",
        "Paper records",
        "Paper features",
        "Classes",
        "Model",
        "Mini records",
        "Mini features",
        "Mini model params",
    ];
    let mut rows = Vec::new();
    for entry in catalog::all(PROFILE) {
        let model = model_for(&entry, &mut rng)?;
        rows.push(vec![
            entry.name().to_string(),
            entry.paper.records.to_string(),
            entry.paper.features.to_string(),
            entry.spec.num_classes.to_string(),
            entry.paper.model.to_string(),
            entry.spec.num_samples.to_string(),
            entry.spec.modality.feature_len().to_string(),
            model.param_count().to_string(),
        ]);
    }
    let mut text = String::from("Table 2 — Datasets and models (paper dims vs mini profiles)\n\n");
    text.push_str(&report::table(&headers, &rows));
    Ok(Output {
        text,
        json: Some(catalog::all(PROFILE).to_json()),
        seeds: Vec::new(),
    })
}

/// Fig. 1: per-layer Jensen–Shannon divergence between member and
/// non-member gradients of an unprotected model on GTSRB, CelebA, Texas100
/// and Purchase100. The paper finds one dominant layer (the penultimate on
/// its CNNs); on our synthetic substitutes it sits earlier (EXPERIMENTS.md).
pub fn fig1() -> Result<Output> {
    let mut text = String::new();
    let mut rows = Vec::new();
    let mut specs = Vec::new();
    for entry in [
        catalog::gtsrb(PROFILE),
        catalog::celeba(PROFILE),
        catalog::texas100(PROFILE),
        catalog::purchase100(PROFILE),
    ] {
        let spec = ExperimentSpec::mini_default(entry.clone());
        let mut rng = Rng::seed_from(spec.seed);
        let dataset = entry.generate(&mut rng)?;
        let split = attack_split(&dataset, &mut rng)?;
        // Train a single unprotected model the way one FL client would.
        let mut model = model_for(&entry, &mut rng)?;
        let members = split
            .train
            .subset(&(0..300.min(split.train.len())).collect::<Vec<_>>())?;
        let mut opt = Adagrad::new(spec.dinar_opt.1);
        let loss_fn = CrossEntropyLoss;
        for _ in 0..spec.rounds * spec.local_epochs {
            for idx in members.batch_indices(spec.batch_size, &mut rng) {
                let b = members.batch(&idx)?;
                let logits = model.forward(&b.features, true)?;
                let (_, grad) = loss_fn.loss_and_grad(&logits, &b.labels)?;
                model.zero_grad();
                model.backward(&grad)?;
                opt.step(&mut model)?;
            }
        }
        let divergences = layer_divergences(
            &mut model,
            &members,
            &split.test,
            &SensitivityConfig::default(),
            &mut rng,
        )?;
        let argmax = divergences
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        writeln!(
            text,
            "\n{} — per-layer JS divergence (member vs non-member gradients):",
            entry.name()
        )?;
        for (i, d) in divergences.iter().enumerate() {
            let bar = "#".repeat((d * 80.0).round() as usize);
            let marker = if i == argmax {
                "  <-- most sensitive"
            } else {
                ""
            };
            writeln!(text, "  layer {i:>2}: {d:.4} {bar}{marker}")?;
        }
        rows.push(Json::obj(vec![
            ("dataset", entry.name().to_json()),
            ("divergences", divergences.to_json()),
            ("argmax_layer", argmax.to_json()),
        ]));
        specs.push(spec);
    }
    Ok(Output {
        text,
        json: Some(Json::Arr(rows)),
        seeds: seeds(&specs),
    })
}

/// Fig. 3: member vs non-member per-sample loss under No-Defense, LDP,
/// CDP, WDP and DINAR on CIFAR-10. An effective defense matches the two
/// distributions without pushing the losses up: DP matches them by
/// inflating everyone's loss, DINAR while keeping the personalized model's
/// losses low.
pub fn fig3() -> Result<Output> {
    let spec = ExperimentSpec::mini_default(catalog::cifar10(PROFILE));
    let entry = spec.entry.clone();
    let env = prepare(spec)?;
    let p = env.dinar_layer;
    let defenses = [
        Defense::None,
        Defense::Ldp { epsilon: 2.2 },
        Defense::Cdp { epsilon: 2.2 },
        Defense::Wdp,
        Defense::dinar(p),
    ];
    let mut rows = Vec::new();
    let mut rng = Rng::seed_from(env.spec.seed ^ 0xF13);
    let mut template = model_for(&entry, &mut rng)?;
    let members = env.split.train.subset(&(0..200).collect::<Vec<_>>())?;

    let mut text =
        String::from("Fig. 3 — loss distributions, member (M) vs non-member (N), CIFAR-10\n\n");
    for defense in defenses {
        let mut run = train_defense(&env, &defense)?;
        // The paper plots the loss of the *attacked* model. For DINAR the
        // attacked artifact is what leaves the client: evaluate the client
        // upload; its personalized counterpart is the client's live model.
        let is_dinar = matches!(defense, Defense::Dinar { .. });
        let target = if is_dinar {
            run.uploads[0].share()
        } else {
            run.system.global_params().share()
        };
        let member_losses = losses_of_params(&target, &mut template, &members)?;
        let nonmember_losses = losses_of_params(&target, &mut template, &env.split.test)?;
        let js = js_divergence_samples(&member_losses, &nonmember_losses, 30);

        // For DINAR also report the personalized model's losses (what the
        // client actually uses for predictions).
        let personalized_note = if is_dinar {
            let personalized = run.system.clients_mut()[0].model_mut().params();
            let pm = losses_of_params(&personalized, &mut template, &members)?;
            let pn = losses_of_params(&personalized, &mut template, &env.split.test)?;
            format!(
                "  (personalized model: member median {:.3}, non-member median {:.3})",
                Summary::of(&pm).median,
                Summary::of(&pn).median
            )
        } else {
            String::new()
        };

        let ms = Summary::of(&member_losses);
        let ns = Summary::of(&nonmember_losses);
        writeln!(
            text,
            "{:<11} M median {:>6.3} (q1 {:>6.3}, q3 {:>6.3}) | N median {:>6.3} (q1 {:>6.3}, q3 {:>6.3}) | JS {:.4}{}",
            defense.label(), ms.median, ms.q1, ms.q3, ns.median, ns.q1, ns.q3, js, personalized_note
        )?;
        rows.push(Json::obj(vec![
            ("defense", defense.label().to_json()),
            ("member_losses", ms.to_json()),
            ("nonmember_losses", ns.to_json()),
            ("js_divergence", js.to_json()),
        ]));
    }
    Ok(Output {
        text,
        json: Some(Json::Arr(rows)),
        seeds: seeds([&env.spec]),
    })
}

/// Fig. 4: per-layer analysis on CelebA (8 conv layers + a dense head).
/// (a) member/non-member gradient divergence per layer; (b) attack AUC
/// after obfuscating each single layer of an upload, against the naive
/// attack and the adaptive repair attacker (who re-trains the obfuscated
/// layer first). Only the layers that hold the membership evidence stay
/// near 50 % after repair: obfuscating the most-leaking layer suffices.
pub fn fig4() -> Result<Output> {
    let spec = ExperimentSpec::mini_default(catalog::celeba(PROFILE));
    let entry = spec.entry.clone();
    let env = prepare(spec)?;
    let mut rng = Rng::seed_from(env.spec.seed ^ 0xF14);
    let mut template = model_for(&entry, &mut rng)?;

    // Train an unprotected run; take client 0's upload as the attacked model.
    let mut run = train_defense(&env, &Defense::None)?;
    let upload = run.uploads[0].share();
    let members = run.system.clients()[0].data().clone();
    let nonmembers = env.split.test.clone();

    // (a) Per-layer divergence of the trained client model.
    let client_model = run.system.clients_mut()[0].model_mut();
    let divergences = layer_divergences(
        client_model,
        &members,
        &nonmembers,
        &SensitivityConfig::default(),
        &mut rng,
    )?;
    let mut text =
        String::from("Fig. 4(a) — per-layer gradient divergence (CelebA, 8 conv + 2 dense):\n");
    for (i, d) in divergences.iter().enumerate() {
        writeln!(
            text,
            "  layer {i:>2}: {d:.4} {}",
            "#".repeat((d * 120.0).round() as usize)
        )?;
    }

    // Reference: attack on the unmodified upload.
    let baseline = evaluate_attack(
        &mut LossThresholdAttack,
        &upload,
        &mut template,
        &members,
        &nonmembers,
    )?;
    writeln!(
        text,
        "\nFig. 4(b) — attack AUC after obfuscating each single layer"
    )?;
    writeln!(text, "(no obfuscation: {:.1}%)\n", baseline.auc * 100.0)?;
    writeln!(text, "  layer | naive AUC | repair AUC")?;

    let attacker_data = env
        .split
        .attacker
        .subset(&(0..400.min(env.split.attacker.len())).collect::<Vec<_>>())?;
    let mut naive_aucs = Vec::new();
    let mut repair_aucs = Vec::new();
    for p in 0..divergences.len() {
        let mut obf = upload.share();
        let mut obf_rng = Rng::seed_from(0x0bf ^ p as u64);
        obfuscate_layer(&mut obf, p, ObfuscationStrategy::Random, &mut obf_rng)?;
        let naive = evaluate_attack(
            &mut LossThresholdAttack,
            &obf,
            &mut template,
            &members,
            &nonmembers,
        )?;
        let mut repair = RepairAttack::new(
            LossThresholdAttack,
            RepairConfig {
                epochs: 30,
                lr: 0.1,
                ..RepairConfig::for_layers(&[p])
            },
            attacker_data.clone(),
        );
        let repaired = evaluate_attack(&mut repair, &obf, &mut template, &members, &nonmembers)?;
        writeln!(
            text,
            "  {p:>5} | {:>8.1}% | {:>8.1}%",
            naive.auc * 100.0,
            repaired.auc * 100.0
        )?;
        naive_aucs.push(naive.auc * 100.0);
        repair_aucs.push(repaired.auc * 100.0);
    }
    let json = Json::obj(vec![
        ("divergences", divergences.to_json()),
        ("per_layer_naive_auc", naive_aucs.to_json()),
        ("per_layer_repair_auc", repair_aucs.to_json()),
        ("no_defense_auc", (baseline.auc * 100.0).to_json()),
    ]);
    Ok(Output {
        text,
        json: Some(json),
        seeds: seeds([&env.spec]),
    })
}

/// Fig. 7: privacy vs utility of the local models — each defense of the
/// fig6 grid as (accuracy, upload AUC) per dataset; the best corner is high
/// accuracy at 50 % AUC. A view over `fig6.json`: fig6 is regenerated first
/// if the file is missing.
pub fn fig7() -> Result<Output> {
    let path = Path::new(report::RESULTS_DIR).join("fig6.json");
    if path.exists() {
        eprintln!("[fig7] reusing {}", path.display());
    } else {
        eprintln!("[fig7] no {} found; regenerating fig6", path.display());
        super::regenerate("fig6", super::artifact("fig6")?)?;
    }
    let value = Json::parse(&std::fs::read_to_string(&path)?)?;
    let outcomes = value
        .as_arr()
        .and_then(|rows| {
            rows.iter()
                .map(Outcome::from_json)
                .collect::<Option<Vec<_>>>()
        })
        .ok_or_else(|| format!("{} is not a valid outcome list", path.display()))?;

    let mut datasets: Vec<&str> = outcomes.iter().map(|o| o.dataset.as_str()).collect();
    datasets.dedup();
    let mut text = String::from("Fig. 7 — privacy vs utility for local models\n");
    text.push_str("(best corner: high accuracy, AUC at the 50% optimum)\n\n");
    // "Best" = closest to (max accuracy, 50% AUC) in this dataset.
    let score = |x: &Outcome| x.local_auc_pct - 50.0 + (100.0 - x.accuracy_pct) * 0.5;
    for dataset in datasets {
        writeln!(text, "--- {dataset} ---")?;
        writeln!(text, "  defense     | accuracy (x) | attack AUC (y)")?;
        let mut best: Option<&Outcome> = None;
        for o in outcomes.iter().filter(|o| o.dataset == dataset) {
            writeln!(
                text,
                "  {:<11} | {:>11.1}% | {:>12.1}%",
                o.defense, o.accuracy_pct, o.local_auc_pct
            )?;
            if best.is_none_or(|b| score(o) < score(b)) {
                best = Some(o);
            }
        }
        if let Some(b) = best {
            writeln!(text, "  -> frontier point: {}", b.defense)?;
        }
        writeln!(text)?;
    }
    Ok(Output {
        text,
        json: Some(outcomes.to_json()),
        seeds: seeds(grids::fig6().columns.iter().map(|c| &c.spec)),
    })
}

/// Training steps `step_profile` times per configuration, after
/// [`PROFILE_WARMUP`] untimed ones.
const PROFILE_STEPS: usize = 200;
/// Untimed steps before `step_profile`'s timed ones (first-touch pages,
/// optimizer state).
const PROFILE_WARMUP: usize = 20;
/// Independent runs of each `step_profile` configuration; the fastest one
/// is reported, so a burst of load from elsewhere on the host drops out.
const PROFILE_RUNS: usize = 3;

/// Where one local training step's time goes, by layer kind: the `vgg11_mini`
/// step on GTSRB (Table 3's model) and the `fcnn6` step on Purchase100 (the
/// headline configuration), at pool widths 1 and 2. Each configuration runs
/// `PROFILE_STEPS` batch-64 Adam steps as a client does (forward, loss
/// gradient, backward, optimizer) under an enabled sink attached to the
/// model, one `step` span per step, and keeps the fastest of
/// `PROFILE_RUNS` runs; its rows are the `fwd[..]`/`bwd[..]`
/// span totals summed per layer kind, plus the step's self time (batching,
/// loss, optimizer and the sink's gradient-norm gauges), in µs per step and
/// as a share of the step.
pub fn step_profile() -> Result<Output> {
    let mut text = format!(
        "Step profile — µs per batch-64 local training step by layer kind \
         ({PROFILE_STEPS} steps after {PROFILE_WARMUP} warm-up, fastest of {PROFILE_RUNS} runs)\n"
    );
    let mut rows = Vec::new();
    let mut specs = Vec::new();
    for entry in [catalog::gtsrb(PROFILE), catalog::purchase100(PROFILE)] {
        let spec = ExperimentSpec::mini_default(entry.clone());
        let data = entry.generate(&mut Rng::seed_from(spec.seed))?;
        for threads in [1, 2] {
            let runs: Result<Vec<_>> = at_width(threads, || {
                (0..PROFILE_RUNS)
                    .map(|_| profile_steps(&entry, &data, spec.seed))
                    .collect()
            });
            let step_us = |parts: &[(String, &str, f64)]| parts.iter().map(|p| p.2).sum::<f64>();
            let (model, parts) = runs?
                .into_iter()
                .min_by(|a, b| step_us(&a.1).total_cmp(&step_us(&b.1)))
                .ok_or("no profile run")?;
            let step_us = step_us(&parts);
            writeln!(
                text,
                "\n{} / {model}, width {threads}: {step_us:.0} µs per step",
                entry.name()
            )?;
            let mut table = Vec::new();
            for (layer, pass, us) in parts {
                let share = us / step_us;
                table.push(vec![
                    layer.clone(),
                    pass.to_string(),
                    format!("{us:.1}"),
                    report::pct(share * 100.0),
                ]);
                rows.push(Json::obj(vec![
                    ("dataset", entry.name().to_json()),
                    ("model", model.to_json()),
                    ("threads", threads.to_json()),
                    ("layer", layer.to_json()),
                    ("pass", pass.to_json()),
                    ("us_per_step", us.to_json()),
                    ("share", share.to_json()),
                ]));
            }
            text.push_str(&report::table(
                &["layer", "pass", "µs/step", "share %"],
                &table,
            ));
        }
        specs.push(spec);
    }
    Ok(Output {
        text,
        json: Some(Json::Arr(rows)),
        seeds: seeds(&specs),
    })
}

/// µs per step by (layer kind, pass), in first-appearance order, then the
/// step's self time as `("step", "self")`.
type StepParts = Vec<(String, &'static str, f64)>;

/// One `step_profile` configuration: the model's name and its [`StepParts`].
fn profile_steps(
    entry: &CatalogEntry,
    data: &Dataset,
    seed: u64,
) -> Result<(&'static str, StepParts)> {
    let mut rng = Rng::seed_from(seed);
    let mut model = model_for(entry, &mut rng)?;
    let name = if entry.name() == "gtsrb" {
        "vgg11_mini"
    } else {
        "fcnn6"
    };
    let mut opt = dinar_nn::optim::Adam::new(1e-3);
    let tel = dinar_telemetry::Telemetry::new();
    let mut batches = Vec::new();
    for step in 0..PROFILE_WARMUP + PROFILE_STEPS {
        if batches.is_empty() {
            batches = data.batch_indices(64, &mut rng);
            batches.retain(|b| b.len() == 64);
        }
        if step == PROFILE_WARMUP {
            model.set_telemetry(tel.clone());
        }
        let _span = (step >= PROFILE_WARMUP).then(|| tel.span("step"));
        let batch = data.batch(&batches.pop().ok_or("no full batch of 64")?)?;
        let logits = model.forward(&batch.features, true)?;
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &batch.labels)?;
        model.zero_grad();
        model.backward(&grad)?;
        opt.step(&mut model)?;
    }
    let mut parts = StepParts::new();
    let mut total_us = 0.0;
    for span in tel.spans() {
        let us = span.dur_us as f64 / PROFILE_STEPS as f64;
        let Some(layer) = span.path.strip_prefix("step/") else {
            total_us += us;
            continue;
        };
        // `fwd[i:kind]` / `bwd[i:kind]`.
        let pass = if layer.starts_with("fwd[") {
            "fwd"
        } else {
            "bwd"
        };
        let kind = layer
            .split_once(':')
            .map_or(layer, |(_, rest)| rest.trim_end_matches(']'))
            .to_string();
        match parts.iter_mut().find(|(k, p, _)| *k == kind && *p == pass) {
            Some(part) => part.2 += us,
            None => parts.push((kind, pass, us)),
        }
        total_us -= us;
    }
    parts.push(("step".to_string(), "self", total_us));
    Ok((name, parts))
}

/// Each class's prototype estimated as the mean of its training samples.
fn class_prototypes(data: &Dataset) -> std::result::Result<Vec<Tensor>, TensorError> {
    let d = data.feature_len();
    let mut sums = vec![vec![0.0f32; d]; data.num_classes()];
    let mut counts = vec![0usize; data.num_classes()];
    let x = data.features().as_slice();
    for (i, &label) in data.labels().iter().enumerate() {
        for j in 0..d {
            sums[label][j] += x[i * d + j];
        }
        counts[label] += 1;
    }
    sums.into_iter()
        .zip(counts)
        .map(|(s, c)| Tensor::from_vec(s.into_iter().map(|v| v / c.max(1) as f32).collect(), &[d]))
        .collect()
}

/// Mean cosine similarity between each class's inversion of `target` and
/// its true prototype.
fn mean_similarity(
    target: &ModelParams,
    entry: &CatalogEntry,
    prototypes: &[Tensor],
    sample_shape: &[usize],
    classes: usize,
) -> Result<f64> {
    let mut rng = Rng::seed_from(0xEE);
    let mut template = model_for(entry, &mut rng)?;
    let mut total = 0.0f64;
    for (class, prototype) in prototypes.iter().enumerate().take(classes) {
        let inv = invert_class(
            target,
            &mut template,
            sample_shape,
            class,
            &InversionConfig::default(),
        )?;
        total += cosine_similarity(&inv.flatten(), &prototype.flatten()) as f64;
    }
    Ok(total / classes as f64)
}

/// Extension (the paper's §6 future work): DINAR against model inversion.
/// The attacker inverts the model for each class (gradient ascent on the
/// class logit); the score is the cosine similarity between reconstruction
/// and the true class prototype, known exactly on synthetic data — for the
/// undefended global model, a DINAR upload and DINAR's global model.
pub fn ext_inversion() -> Result<Output> {
    let spec = ExperimentSpec::mini_default(catalog::purchase100(PROFILE));
    let entry = spec.entry.clone();
    let env = prepare(spec)?;
    let prototypes = class_prototypes(&env.split.train)?;
    let sample_shape = env.split.train.sample_shape().to_vec();
    // Invert a subset of classes for speed (prototype structure is i.i.d.).
    let classes = 10usize;

    let mut text =
        String::from("EXTENSION — model inversion vs DINAR (Purchase100, 10 classes)\n\n");
    let mut rows = Vec::new();
    for (label, defense) in [
        ("no defense", Defense::None),
        ("DINAR", Defense::dinar(env.dinar_layer)),
    ] {
        let run = train_defense(&env, &defense)?;
        // Invert the global model and the first client upload.
        for (what, params) in [
            ("global model", run.system.global_params()),
            ("client upload", &run.uploads[0]),
        ] {
            let sim = mean_similarity(params, &entry, &prototypes, &sample_shape, classes)?;
            let name = format!("{label} / {what}");
            writeln!(text, "  {name:<28} mean prototype similarity {sim:>6.3}")?;
            rows.push(Json::obj(vec![
                ("target", name.to_json()),
                ("mean_prototype_similarity", sim.to_json()),
            ]));
        }
    }
    text.push_str("\n(higher similarity = more training-data structure reconstructable)\n");
    Ok(Output {
        text,
        json: Some(Json::Arr(rows)),
        seeds: seeds([&env.spec]),
    })
}

/// The 6-layer FCNN with dropout after every hidden activation.
fn fcnn_with_dropout(p: f32, rng: &mut Rng) -> dinar_nn::Result<Model> {
    let widths = [600usize, 64, 48, 32, 24, 16];
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for w in widths.windows(2) {
        layers.push(Box::new(Dense::xavier(w[0], w[1], rng)));
        layers.push(Box::new(Tanh::new()));
        if p > 0.0 {
            layers.push(Box::new(Dropout::new(p, rng.split(0xD0))));
        }
    }
    layers.push(Box::new(Dense::xavier(16, 100, rng)));
    Ok(Model::new(layers))
}

/// Extension: dropout as an implicit MIA mitigation beside DINAR on
/// Purchase100. Dropout shrinks the generalization gap membership inference
/// feeds on, but the model still memorizes what it fits, so it cannot reach
/// the 50 % optimum, and it costs accuracy on hard tasks.
pub fn ext_regularization() -> Result<Output> {
    let spec = ExperimentSpec::mini_default(catalog::purchase100(PROFILE));
    let mut env = prepare(spec)?;
    let mut rows = Vec::new();
    let mut text = String::from("EXTENSION — dropout regularization vs DINAR (Purchase100)\n\n");
    writeln!(text, "  configuration   | local AUC | accuracy")?;
    let mut row = |text: &mut String, name: &str, local_auc: f64, acc: f64| -> Result<()> {
        writeln!(text, "  {name:<15} | {local_auc:>8.1}% | {acc:>7.1}%")?;
        rows.push(Json::obj(vec![
            ("configuration", name.to_json()),
            ("local_auc_pct", local_auc.to_json()),
            ("accuracy_pct", acc.to_json()),
        ]));
        Ok(())
    };

    // Baseline + DINAR via the standard harness.
    let p = env.dinar_layer;
    for defense in [Defense::None, Defense::dinar(p)] {
        let o = run_defense(&mut env, &defense)?;
        row(&mut text, &o.defense, o.local_auc_pct, o.accuracy_pct)?;
    }

    // Dropout variants: same FL setup with a dropout-equipped architecture.
    for drop_p in [0.25f32, 0.5] {
        let spec = &env.spec;
        let mut system = FlSystem::builder(FlConfig {
            local_epochs: spec.local_epochs,
            batch_size: spec.batch_size,
            seed: spec.seed,
        })
        .clients_from_shards(
            env.shards.clone(),
            move |rng| fcnn_with_dropout(drop_p, rng),
            |_| Box::new(Adagrad::new(0.05)),
        )?
        .build()?;
        system.run(spec.rounds)?;
        let global = system.global_params().share();
        let mut local_sum = 0.0;
        let mut rng = Rng::seed_from(7);
        let mut template = fcnn_with_dropout(drop_p, &mut rng)?;
        let cap = |d: &Dataset| d.subset(&(0..d.len().min(200)).collect::<Vec<_>>());
        let nonmembers = cap(&env.split.test)?;
        let mut uploads = Vec::new();
        for client in system.clients_mut() {
            client.receive_global(&global)?;
            client.train_local()?;
            uploads.push(client.produce_update()?.params);
        }
        for (client, upload) in system.clients().iter().zip(&uploads) {
            let members = cap(client.data())?;
            local_sum += evaluate_attack(
                &mut LossThresholdAttack,
                upload,
                &mut template,
                &members,
                &nonmembers,
            )?
            .auc;
        }
        let local_auc = local_sum / uploads.len() as f64 * 100.0;
        let acc = system.mean_client_accuracy(&env.split.test)? as f64 * 100.0;
        row(&mut text, &format!("dropout p={drop_p}"), local_auc, acc)?;
    }
    Ok(Output {
        text,
        json: Some(Json::Arr(rows)),
        seeds: seeds([&env.spec]),
    })
}

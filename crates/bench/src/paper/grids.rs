//! The grid-shaped artifacts as declarations. Each names its environments,
//! the defenses trained on each and the fields every row reports; the
//! paper's expected shape of each result is on its function.

use super::{Cell, Column, Grid, Metric, PROFILE};
use crate::harness::{Defense, ExperimentSpec};
use dinar::ObfuscationStrategy;
use dinar_data::catalog::{self, CatalogEntry};
use dinar_data::partition::Distribution;
use dinar_tensor::json::ToJson;

/// The paper's seven-column lineup, each cell keyed by its defense label.
fn lineup(dinar_layer: usize) -> Vec<Cell> {
    Defense::lineup(dinar_layer)
        .into_iter()
        .map(Cell::labelled)
        .collect()
}

/// One unkeyed column on `entry`'s default spec.
fn single(entry: CatalogEntry) -> Vec<Column> {
    let spec = ExperimentSpec::mini_default(entry);
    vec![Column {
        keys: Vec::new(),
        spec,
    }]
}

/// Table 3: overheads of each defense relative to the undefended baseline —
/// client training time per round, server aggregation time, client memory —
/// on GTSRB / VGG11 as in the paper. Paper: WDP +35%/0%/+257%, LDP
/// +7%/0%/+267%, CDP +0%/+3000%/+261%, GC +21%/0%/+252%, SA +21%/+4%/0%,
/// DINAR +0%/+0%/+0%.
pub fn table3() -> Grid {
    Grid {
        title: "Table 3 — defense overheads vs FL baseline (GTSRB / VGG11-mini)".into(),
        columns: single(catalog::gtsrb(PROFILE)),
        cells: lineup,
        metrics: &[
            Metric::Cost,
            Metric::TrainOverhead,
            Metric::AggOverhead,
            Metric::MemOverhead,
        ],
    }
}

/// Fig. 5: protecting more than one layer of the 6-layer FCNN on
/// Purchase100. The paper obfuscates {5}, {4,5}, …, {1..5}, {1..6}
/// (1-indexed) and finds privacy already optimal with one layer while
/// utility falls with each extra layer.
pub fn fig5() -> Grid {
    fn cells(_: usize) -> Vec<Cell> {
        // Paper layer k is index k − 1.
        let sets = [
            vec![4],
            vec![3, 4],
            vec![2, 3, 4],
            vec![1, 2, 3, 4],
            vec![0, 1, 2, 3, 4],
            vec![0, 1, 2, 3, 4, 5],
        ];
        sets.into_iter()
            .map(|layers: Vec<usize>| {
                let label: Vec<String> = layers.iter().map(|l| (l + 1).to_string()).collect();
                Cell {
                    keys: vec![
                        ("obfuscated_layers", layers.to_json()),
                        ("label", label.join("-").to_json()),
                    ],
                    defense: Defense::Dinar {
                        layers,
                        strategy: ObfuscationStrategy::Random,
                    },
                }
            })
            .collect()
    }
    Grid {
        title: "Fig. 5 — multi-layer obfuscation, Purchase100 (6-layer FCNN)".into(),
        columns: single(catalog::purchase100(PROFILE)),
        cells,
        metrics: &[Metric::LocalAuc, Metric::GlobalAuc, Metric::Accuracy],
    }
}

/// Fig. 6: attack AUC against the global model and the uploads, six
/// datasets × seven defenses — the paper's headline grid. Expected: DINAR
/// near 50 % on both everywhere; SA protects uploads only; WDP barely
/// helps; DP is inconsistent; no defense leaks.
pub fn fig6() -> Grid {
    let datasets = [
        catalog::purchase100(PROFILE),
        catalog::cifar10(PROFILE),
        catalog::cifar100(PROFILE),
        catalog::speech_commands(PROFILE),
        catalog::celeba(PROFILE),
        catalog::gtsrb(PROFILE),
    ];
    let columns = datasets
        .into_iter()
        .map(|entry| {
            let keys = vec![("dataset", entry.name().to_json())];
            let spec = ExperimentSpec::mini_default(entry);
            Column { keys, spec }
        })
        .collect();
    Grid {
        title: "Fig. 6 — attack AUC on the global model and the uploads".into(),
        columns,
        cells: lineup,
        metrics: &[
            Metric::GlobalAuc,
            Metric::LocalAuc,
            Metric::Accuracy,
            Metric::Cost,
        ],
    }
}

/// Fig. 8: privacy and utility under non-IID data — GTSRB partitioned with
/// Dirichlet α ∈ {0.8, 2, 5, ∞}. Paper: DINAR stays at the optimum for
/// every α while the other defenses move with it.
pub fn fig8() -> Grid {
    let alphas = [
        ("0.8", Distribution::Dirichlet(0.8)),
        ("2", Distribution::Dirichlet(2.0)),
        ("5", Distribution::Dirichlet(5.0)),
        ("inf (IID)", Distribution::Iid),
    ];
    let columns = alphas
        .into_iter()
        .map(|(alpha, distribution)| {
            let mut spec = ExperimentSpec::mini_default(catalog::gtsrb(PROFILE));
            spec.distribution = distribution;
            let keys = vec![("alpha", alpha.to_json())];
            Column { keys, spec }
        })
        .collect();
    Grid {
        title: "Fig. 8 — non-IID sweep (GTSRB), Dirichlet alpha".into(),
        columns,
        cells: |p| {
            [
                Defense::None,
                Defense::Wdp,
                Defense::Cdp { epsilon: 2.2 },
                Defense::Ldp { epsilon: 2.2 },
                Defense::dinar(p),
            ]
            .into_iter()
            .map(Cell::labelled)
            .collect()
        },
        metrics: &[Metric::LocalAuc, Metric::Accuracy],
    }
}

/// Fig. 9: Purchase100 divided across N ∈ {5, 10, 20, 30} clients. Paper:
/// fewer clients give more data per client and higher accuracy; DINAR holds
/// the optimum at every N.
pub fn fig9() -> Grid {
    let columns = [5usize, 10, 20, 30]
        .into_iter()
        .map(|clients| {
            let mut spec = ExperimentSpec::mini_default(catalog::purchase100(PROFILE));
            spec.clients = clients;
            let keys = vec![("clients", clients.to_json())];
            Column { keys, spec }
        })
        .collect();
    Grid {
        title: "Fig. 9 — client-count sweep (Purchase100)".into(),
        columns,
        cells: |p| {
            [Defense::None, Defense::dinar(p)]
                .into_iter()
                .map(Cell::labelled)
                .collect()
        },
        metrics: &[Metric::LocalAuc, Metric::Accuracy],
    }
}

/// Fig. 10: LDP with ε ∈ {0.05, 0.2, 1, 2.2} on Purchase100 beside no
/// defense and DINAR. Paper: smaller budgets buy privacy with accuracy
/// (13 % at ε = 0.05); DINAR has both.
pub fn fig10() -> Grid {
    fn cell(label: String, defense: Defense) -> Cell {
        Cell {
            keys: vec![("label", label.to_json())],
            defense,
        }
    }
    Grid {
        title: "Fig. 10 — DP budget sweep (Purchase100)".into(),
        columns: single(catalog::purchase100(PROFILE)),
        cells: |p| {
            let ldp = [0.05f32, 0.2, 1.0, 2.2]
                .map(|epsilon| cell(format!("LDP (eps={epsilon})"), Defense::Ldp { epsilon }));
            std::iter::once(cell("No defense".into(), Defense::None))
                .chain(ldp)
                .chain([cell("DINAR".into(), Defense::dinar(p))])
                .collect()
        },
        metrics: &[Metric::LocalAuc, Metric::Accuracy],
    }
}

/// Fig. 11 (ablation): DINAR's adaptive training (Adagrad, Algorithm 1)
/// against Adam, ADGD and AdaMax on Purchase100. Paper: every variant
/// reaches the same privacy; Adagrad has the best accuracy.
pub fn fig11() -> Grid {
    let optimizers = [
        ("adam", 1e-2f32),
        ("adgd", 1e-2),
        ("adamax", 1e-2),
        ("adagrad", 0.05),
    ];
    let columns = optimizers
        .into_iter()
        .map(|(name, lr)| {
            let mut spec = ExperimentSpec::mini_default(catalog::purchase100(PROFILE));
            spec.dinar_opt = (name, lr);
            let keys = vec![("optimizer", name.to_json())];
            Column { keys, spec }
        })
        .collect();
    Grid {
        title: "Fig. 11 — DINAR optimizer ablation (Purchase100)".into(),
        columns,
        cells: |p| {
            vec![Cell {
                keys: Vec::new(),
                defense: Defense::dinar(p),
            }]
        },
        metrics: &[Metric::Accuracy, Metric::LocalAuc, Metric::GlobalAuc],
    }
}

/// The seven-defense lineup on one catalog dataset: a spot check that
/// writes nothing (`paper sweep <dataset>`).
///
/// # Errors
///
/// Returns an error naming the catalog if `dataset` is not in it.
pub fn sweep(dataset: &str) -> super::Result<Grid> {
    let entries = catalog::all(PROFILE);
    let names: Vec<String> = entries.iter().map(|e| e.name().to_string()).collect();
    let entry = entries
        .into_iter()
        .find(|e| e.name() == dataset)
        .ok_or_else(|| format!("unknown dataset `{dataset}`; known: {}", names.join(", ")))?;
    Ok(Grid {
        title: format!("Defense lineup on {dataset}"),
        columns: single(entry),
        cells: lineup,
        metrics: &[Metric::GlobalAuc, Metric::LocalAuc, Metric::Accuracy],
    })
}

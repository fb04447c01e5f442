//! Every committed artifact as one registry, run by the `paper` binary.
//!
//! Every table, figure and extension experiment of the paper's evaluation
//! (§5), and every kernel, plane and audit artifact behind the perf and
//! privacy claims, is an entry of [`ARTIFACTS`], named after the files it
//! writes under `bench-results/` (`<name>.txt` always, `<name>.json` when it
//! has data). Most paper artifacts are *grids*: a list of
//! prepared environments (columns) × the defense configurations trained and
//! attacked on each (cells), with a fixed set of measured fields per row.
//! Those are [`Grid`] declarations in [`grids`], all run by [`run_grid`]. The
//! rest — per-layer sweeps, loss distributions, static tables, the fig7 view
//! over fig6 — are code of their own in [`procedures`], and the `BENCH_*`,
//! `AUDIT_privacy` and `TELEMETRY_fl_round` artifacts are code of their own
//! in [`benches`].
//!
//! A grid row is the column's key fields, then the cell's key fields, then
//! the declared [`Metric`]s, in that order: the same JSON the per-figure
//! binaries wrote, which `tests` pins against the committed artifacts.
//!
//! Each regeneration also records the revision, the pool width, the profile
//! and the master seeds it ran with in `bench-results/PAPER_manifest.json`.

pub mod benches;
pub mod grids;
pub mod procedures;

use crate::harness::{prepare, run_defense, Defense, ExperimentSpec, Outcome};
use crate::report;
use dinar_data::catalog::Profile;
use dinar_metrics::cost::CostSample;
use dinar_tensor::json::{Json, ToJson};
use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// The scale every artifact runs at (`harness::model_for` builds the mini
/// models).
pub const PROFILE: Profile = Profile::Mini;

/// Name of the manifest written beside the artifacts.
pub const MANIFEST: &str = "PAPER_manifest";

/// Result type of the runner and its procedures.
pub type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Named key fields of a row, in JSON order.
pub type Keys = Vec<(&'static str, Json)>;

/// One prepared environment of a grid.
#[derive(Debug, Clone)]
pub struct Column {
    /// Fields that identify the column in every row trained on it.
    pub keys: Keys,
    /// What [`prepare`] builds the environment from.
    pub spec: ExperimentSpec,
}

/// One trained configuration of a column.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Fields that identify the cell within its column.
    pub keys: Keys,
    /// The defense trained and attacked.
    pub defense: Defense,
}

impl Cell {
    /// A cell keyed by its defense's column label (`"defense": "WDP"`).
    pub fn labelled(defense: Defense) -> Self {
        Cell {
            keys: vec![("defense", defense.label().to_json())],
            defense,
        }
    }
}

/// A measured field of a grid row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Attack AUC against the global model, percent.
    GlobalAuc,
    /// Mean attack AUC against the client uploads, percent.
    LocalAuc,
    /// Mean personalized-client accuracy, percent.
    Accuracy,
    /// The mean per-round cost sample.
    Cost,
    /// Client training-time overhead against the column's first cell, percent.
    TrainOverhead,
    /// Server aggregation-time overhead against the column's first cell, percent.
    AggOverhead,
    /// Client peak-memory overhead against the column's first cell, percent.
    MemOverhead,
}

impl Metric {
    /// The field's JSON key.
    pub fn key(self) -> &'static str {
        match self {
            Metric::GlobalAuc => "global_auc_pct",
            Metric::LocalAuc => "local_auc_pct",
            Metric::Accuracy => "accuracy_pct",
            Metric::Cost => "cost",
            Metric::TrainOverhead => "client_train_pct",
            Metric::AggOverhead => "server_agg_pct",
            Metric::MemOverhead => "client_mem_pct",
        }
    }

    fn value(self, outcome: &Outcome, baseline: &CostSample) -> Json {
        let overhead = || outcome.cost.overhead_vs(baseline);
        match self {
            Metric::GlobalAuc => outcome.global_auc_pct.to_json(),
            Metric::LocalAuc => outcome.local_auc_pct.to_json(),
            Metric::Accuracy => outcome.accuracy_pct.to_json(),
            Metric::Cost => outcome.cost.to_json(),
            Metric::TrainOverhead => overhead().client_train_pct.to_json(),
            Metric::AggOverhead => overhead().server_agg_pct.to_json(),
            Metric::MemOverhead => overhead().client_mem_pct.to_json(),
        }
    }

    fn text(self, value: &Json) -> String {
        let num = value.as_f64().unwrap_or(f64::NAN);
        match self {
            Metric::GlobalAuc | Metric::LocalAuc | Metric::Accuracy => report::pct(num),
            Metric::TrainOverhead | Metric::AggOverhead | Metric::MemOverhead => {
                format!("{num:+.0}%")
            }
            Metric::Cost => match CostSample::from_json(value) {
                Some(c) => format!(
                    "train {:.1} ms / agg {:.3} ms / mem {} MiB",
                    c.client_train_s * 1e3,
                    c.server_agg_s * 1e3,
                    report::mib(c.client_peak_mem_bytes)
                ),
                None => value.dump(),
            },
        }
    }
}

/// A grid-shaped artifact: every cell of every column is prepared, trained
/// and evaluated the same way, and only the declaration differs.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Heading of the rendered table.
    pub title: String,
    /// The environments, in row order.
    pub columns: Vec<Column>,
    /// The cells trained on each column, given the column's DINAR layer.
    pub cells: fn(usize) -> Vec<Cell>,
    /// The measured fields of every row, in JSON order.
    pub metrics: &'static [Metric],
}

impl Grid {
    /// One row: `column`'s keys, `cell`'s keys, then the declared metrics
    /// of `outcome`; overheads are taken against `baseline`.
    pub fn row(
        &self,
        column: &Column,
        cell: &Cell,
        outcome: &Outcome,
        baseline: &CostSample,
    ) -> Json {
        let keys = column.keys.iter().chain(&cell.keys).cloned();
        let metrics = self
            .metrics
            .iter()
            .map(|&m| (m.key(), m.value(outcome, baseline)));
        Json::obj(keys.chain(metrics))
    }

    /// The rows as an aligned text table.
    pub fn render(&self, rows: &[Json]) -> String {
        table_of(rows, |key, value| {
            match self.metrics.iter().find(|m| m.key() == key) {
                Some(m) => m.text(value),
                None => key_text(value),
            }
        })
    }
}

/// Rows of one shape as an aligned text table: the first row's keys are the
/// headers, each cell is `cell(key, value)`, and `-` stands where a row
/// lacks a key.
fn table_of(rows: &[Json], cell: impl Fn(&str, &Json) -> String) -> String {
    let Some(first) = rows.first().and_then(Json::as_obj) else {
        return String::new();
    };
    let headers: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            headers
                .iter()
                .map(|&key| {
                    row.get(key)
                        .map_or_else(|| "-".to_string(), |v| cell(key, v))
                })
                .collect()
        })
        .collect();
    report::table(&headers, &cells)
}

/// Measured rows as an aligned text table: whole numbers exact, fractions
/// to four decimals, `null` as `-`, strings bare.
pub fn render_rows(rows: &[Json]) -> String {
    table_of(rows, |_, value| match value {
        Json::Num(x) if x.fract() != 0.0 => format!("{x:.4}"),
        Json::Null => "-".to_string(),
        _ => key_text(value),
    })
}

/// A key value as a table cell: strings bare, everything else as JSON.
fn key_text(value: &Json) -> String {
    value.as_str().map_or_else(|| value.dump(), str::to_string)
}

/// Runs `f` at pool width `threads`, then restores the width it found.
pub fn at_width<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let width = dinar_tensor::par::threads();
    dinar_tensor::par::set_threads(threads);
    let out = f();
    dinar_tensor::par::set_threads(width);
    out
}

/// What one artifact run produced.
#[derive(Debug)]
pub struct Output {
    /// The printed report, also written to `<name>.txt`.
    pub text: String,
    /// The data written to `<name>.json`, if the artifact has any.
    pub json: Option<Json>,
    /// The master seeds its data and models were drawn from.
    pub seeds: Vec<u64>,
}

/// Prepares every column, trains and evaluates every cell, and returns the
/// rows with the rendered table. Progress goes to stderr as rows complete.
///
/// # Errors
///
/// Propagates data, training and attack errors.
pub fn run_grid(name: &str, grid: &Grid) -> Result<Output> {
    let mut text = format!("{}\n\n", grid.title);
    let mut rows = Vec::new();
    for column in &grid.columns {
        let mut env = prepare(column.spec.clone())?;
        let mut line = env.spec.entry.name().to_string();
        for (key, value) in column.keys.iter().filter(|(key, _)| *key != "dataset") {
            write!(line, ", {key} = {}", key_text(value))?;
        }
        write!(
            line,
            ": DINAR layer p = {}, sensitivity argmax = {}",
            env.dinar_layer, env.sensitivity_argmax
        )?;
        eprintln!("[{name}] {line}");
        writeln!(text, "{line}")?;
        let mut baseline = None;
        for cell in (grid.cells)(env.dinar_layer) {
            let outcome = run_defense(&mut env, &cell.defense)?;
            let base = *baseline.get_or_insert(outcome.cost);
            let row = grid.row(column, &cell, &outcome, &base);
            eprintln!("[{name}] {}", row.dump());
            rows.push(row);
        }
    }
    writeln!(text)?;
    text.push_str(&grid.render(&rows));
    Ok(Output {
        text,
        json: Some(Json::Arr(rows)),
        seeds: seeds(grid.columns.iter().map(|c| &c.spec)),
    })
}

/// The distinct master seeds of `specs`, in first-use order.
pub fn seeds<'a>(specs: impl IntoIterator<Item = &'a ExperimentSpec>) -> Vec<u64> {
    let mut out = Vec::new();
    for spec in specs {
        if !out.contains(&spec.seed) {
            out.push(spec.seed);
        }
    }
    out
}

/// How an artifact is produced.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// A declared grid, run by [`run_grid`].
    Grid(fn() -> Grid),
    /// Code of its own.
    Procedure(fn() -> Result<Output>),
}

/// Every artifact by name — its file stem under `bench-results/` and the
/// runner's argument — in the order `paper all` regenerates them (fig6
/// before fig7, which reads its JSON).
pub const ARTIFACTS: [(&str, Plan); 24] = [
    ("table1", Plan::Procedure(procedures::table1)),
    ("table2", Plan::Procedure(procedures::table2)),
    ("table3", Plan::Grid(grids::table3)),
    ("fig1", Plan::Procedure(procedures::fig1)),
    ("fig3", Plan::Procedure(procedures::fig3)),
    ("fig4", Plan::Procedure(procedures::fig4)),
    ("fig5", Plan::Grid(grids::fig5)),
    ("fig6", Plan::Grid(grids::fig6)),
    ("fig7", Plan::Procedure(procedures::fig7)),
    ("fig8", Plan::Grid(grids::fig8)),
    ("fig9", Plan::Grid(grids::fig9)),
    ("fig10", Plan::Grid(grids::fig10)),
    ("fig11", Plan::Grid(grids::fig11)),
    ("ext_inversion", Plan::Procedure(procedures::ext_inversion)),
    (
        "ext_regularization",
        Plan::Procedure(procedures::ext_regularization),
    ),
    ("step_profile", Plan::Procedure(procedures::step_profile)),
    ("BENCH_tensor", Plan::Procedure(benches::bench_tensor)),
    ("BENCH_wire", Plan::Procedure(benches::bench_wire)),
    ("BENCH_serve", Plan::Procedure(benches::bench_serve)),
    ("BENCH_params", Plan::Procedure(benches::bench_params)),
    ("BENCH_dropout", Plan::Procedure(benches::bench_dropout)),
    ("BENCH_telemetry", Plan::Procedure(benches::bench_telemetry)),
    ("AUDIT_privacy", Plan::Procedure(benches::audit_privacy)),
    (
        "TELEMETRY_fl_round",
        Plan::Procedure(benches::telemetry_fl_round),
    ),
];

/// The plan of the artifact called `name`.
///
/// # Errors
///
/// Returns an error listing the known names if there is none.
pub fn artifact(name: &str) -> Result<Plan> {
    match ARTIFACTS.iter().find(|(known, _)| *known == name) {
        Some(&(_, plan)) => Ok(plan),
        None => {
            let known: Vec<&str> = ARTIFACTS.iter().map(|(known, _)| *known).collect();
            Err(format!("unknown artifact `{name}`; known: {}", known.join(", ")).into())
        }
    }
}

/// Runs artifact `name`, prints its report, and writes `<name>.txt`,
/// `<name>.json` (if it has data) and its manifest entry under
/// [`report::RESULTS_DIR`].
///
/// # Errors
///
/// Propagates the run's errors and I/O errors.
pub fn regenerate(name: &str, plan: Plan) -> Result<()> {
    let out = match plan {
        Plan::Grid(grid) => run_grid(name, &grid())?,
        Plan::Procedure(run) => run()?,
    };
    print!("{}", out.text);
    let dir = Path::new(report::RESULTS_DIR);
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{name}.txt")), &out.text)?;
    if let Some(json) = &out.json {
        let path = report::write_json(name, json)?;
        println!("\nwrote {}", path.display());
    }
    let mut manifest = match fs::read_to_string(dir.join(format!("{MANIFEST}.json"))) {
        Ok(text) => Json::parse(&text)?
            .as_obj()
            .map(<[_]>::to_vec)
            .unwrap_or_default(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let entry = Json::obj(vec![
        ("revision", revision().to_json()),
        ("profile", format!("{PROFILE:?}").to_lowercase().to_json()),
        ("threads", dinar_tensor::par::threads().to_json()),
        ("seeds", out.seeds.to_json()),
    ]);
    set_entry(&mut manifest, name, entry);
    report::write_json(MANIFEST, &Json::Obj(manifest))?;
    Ok(())
}

/// Replaces `name`'s entry of a manifest, or appends it if there is none.
fn set_entry(manifest: &mut Vec<(String, Json)>, name: &str, entry: Json) {
    match manifest.iter_mut().find(|(key, _)| key == name) {
        Some((_, old)) => *old = entry,
        None => manifest.push((name.to_string(), entry)),
    }
}

/// The checkout's `git describe --always --dirty`, or `"unknown"` outside a
/// git checkout.
fn revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Outcome;

    /// The committed `bench-results/` directory.
    fn results_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(report::RESULTS_DIR)
    }

    /// An outcome carrying whatever measured fields `row` holds.
    fn outcome_of(row: &Json) -> Outcome {
        let num = |key| row.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        Outcome {
            dataset: String::new(),
            defense: String::new(),
            global_auc_pct: num("global_auc_pct"),
            local_auc_pct: num("local_auc_pct"),
            accuracy_pct: num("accuracy_pct"),
            cost: row
                .get("cost")
                .and_then(CostSample::from_json)
                .unwrap_or_default(),
        }
    }

    /// Every grid's declared cells, projected from the measured fields of the
    /// committed artifact, write that artifact's bytes: same rows in the same
    /// order, same keys, same values. The DINAR layer is not part of any key, so
    /// any value enumerates the same cells.
    #[test]
    fn grid_declarations_rebuild_the_committed_json() {
        for (name, plan) in ARTIFACTS {
            let Plan::Grid(declare) = plan else {
                continue;
            };
            let grid = declare();
            let path = results_dir().join(format!("{name}.json"));
            let committed = fs::read_to_string(&path).expect("committed grid artifact");
            let parsed = Json::parse(&committed).expect("artifact parses");
            let mut committed_rows = parsed.as_arr().expect("artifact is a row list").iter();
            let mut rows = Vec::new();
            for column in &grid.columns {
                let mut baseline = None;
                for cell in (grid.cells)(4) {
                    let measured = outcome_of(committed_rows.next().expect("a row per cell"));
                    let base = *baseline.get_or_insert(measured.cost);
                    rows.push(grid.row(column, &cell, &measured, &base));
                }
            }
            assert!(
                committed_rows.next().is_none(),
                "{name}: more rows than cells"
            );
            assert_eq!(Json::Arr(rows).dump_pretty(), committed, "{name}");
        }
    }

    /// Every `.json`/`.txt` under `bench-results/` is written by exactly one
    /// registry entry, except the files named here, each with why.
    #[test]
    fn every_committed_paper_artifact_has_one_recipe() {
        const NOT_ARTIFACTS: [(&str, &str); 3] = [
            (
                "PAPER_manifest.json",
                "the runner's record of every regeneration, not an artifact",
            ),
            (
                "BENCH_tensor_baseline.json",
                "a frozen single-thread reference, copied from a BENCH_tensor run by hand",
            ),
            (
                "BENCH_params_baseline.json",
                "the frozen pre-copy-on-write counts, which no code produces any more",
            ),
        ];
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ARTIFACTS.len(), "artifact names are unique");
        for file in fs::read_dir(results_dir()).expect("results dir") {
            let file_name = file.expect("dir entry").file_name();
            let name = file_name.to_string_lossy();
            let Some((stem, "json" | "txt")) = name.rsplit_once('.') else {
                continue;
            };
            if NOT_ARTIFACTS.iter().all(|(exempt, _)| *exempt != name) {
                assert!(artifact(stem).is_ok(), "{name} has no recipe in ARTIFACTS");
            }
        }
        assert!(artifact("fig2").is_err());
    }

    #[test]
    fn fig7_follows_fig6_in_the_full_run() {
        let at = |name| ARTIFACTS.iter().position(|(known, _)| *known == name);
        assert!(at("fig6") < at("fig7"));
    }

    #[test]
    fn manifest_entries_are_replaced_in_place() {
        let mut m = Vec::new();
        set_entry(&mut m, "fig6", 1usize.to_json());
        set_entry(&mut m, "fig7", 2usize.to_json());
        set_entry(&mut m, "fig6", 3usize.to_json());
        assert_eq!(Json::Obj(m).dump(), r#"{"fig6":3,"fig7":2}"#);
    }

    #[test]
    fn seeds_are_distinct_in_first_use_order() {
        let spec = |seed| ExperimentSpec {
            seed,
            ..ExperimentSpec::mini_default(dinar_data::catalog::purchase100(PROFILE))
        };
        let specs = [spec(7), spec(42), spec(7)];
        assert_eq!(seeds(&specs), vec![7, 42]);
    }

    /// The runner end to end on a shrunk copy of a declaration: one prepared
    /// column, every cell trained and attacked, rows keyed as declared.
    #[test]
    fn the_runner_prepares_trains_and_keys_every_cell() {
        let mut grid = grids::fig10();
        for column in &mut grid.columns {
            column.spec.clients = 2;
            column.spec.rounds = 1;
            column.spec.local_epochs = 1;
        }
        let out = run_grid("fig10", &grid).expect("shrunk grid runs");
        let json = out.json.expect("grid rows");
        let rows = json.as_arr().expect("row list");
        let labels: Vec<&str> = rows
            .iter()
            .filter_map(|r| r.get("label")?.as_str())
            .collect();
        assert_eq!(
            labels,
            [
                "No defense",
                "LDP (eps=0.05)",
                "LDP (eps=0.2)",
                "LDP (eps=1)",
                "LDP (eps=2.2)",
                "DINAR"
            ]
        );
        for row in rows {
            let keys: Vec<&str> = row
                .as_obj()
                .expect("row")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["label", "local_auc_pct", "accuracy_pct"]);
            let auc = row
                .get("local_auc_pct")
                .and_then(Json::as_f64)
                .expect("auc");
            assert!((0.0..=100.0).contains(&auc));
        }
        assert_eq!(out.seeds, vec![42]);
        assert!(out.text.starts_with("Fig. 10"));
        assert!(out.text.contains("| LDP (eps=0.05) |"));
    }
}

//! End-to-end FL round, comm and paper-cell benchmark with per-layer
//! attribution. See `README.md` beside this crate and `BENCHMARK.json` at the
//! repo root.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml            # everything
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --repeat-check
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fcnn_dinar --seed 7 --seconds 15 --trace 0           # one pass, as the driver runs it
//! ```

mod cell;
mod probes;
mod report;
mod rounds;
mod spec;
mod stats;
mod trace;

use dinar_bench::report::table;
use dinar_tensor::json::Json;
use dinar_tensor::par;
use report::{Pass, Result};
use spec::{
    Better, MetricDecl, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, PER_LAYER, POOL_WIDTH, WORKLOADS,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where `latest.json`, `trace_<workload>.json` and `repeat_check.json` go.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_result(name: &str, value: &Json) -> Result<()> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(name), value.dump_pretty() + "\n")?;
    Ok(())
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    repeat_check: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat_check: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`; one of {WORKLOADS:?}").into());
                }
                parsed.workload = Some(name);
            }
            "--seed" => parsed.seed = value()?.parse()?,
            "--seconds" => parsed.seconds = value()?.parse()?,
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`").into()),
                })
            }
            "--repeat-check" => parsed.repeat_check = true,
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    Ok(parsed)
}

/// Orders a pass's metrics as declared and insists that the names produced
/// are exactly the names declared, so what is printed can neither miss a
/// declared metric nor carry an undeclared one.
fn finalize(pass: &Pass, decls: &[MetricDecl]) -> Result<Vec<(MetricDecl, f64)>> {
    let produced: BTreeSet<&str> = pass.metrics.iter().map(|(n, _)| *n).collect();
    let declared: BTreeSet<&str> = decls.iter().map(|m| m.name).collect();
    if produced != declared || pass.metrics.len() != decls.len() {
        return Err(format!(
            "metrics produced and declared differ: undeclared {:?}, missing {:?}, {} produced for {} declared",
            produced.difference(&declared).collect::<Vec<_>>(),
            declared.difference(&produced).collect::<Vec<_>>(),
            pass.metrics.len(),
            decls.len()
        )
        .into());
    }
    decls
        .iter()
        .map(|m| match pass.value(m.name) {
            Some(v) if v.is_finite() => Ok((*m, v)),
            other => Err(format!("metric {} is not a finite number: {other:?}", m.name).into()),
        })
        .collect()
}

/// Runs one pass of one workload at its pool width, prints its metrics and,
/// for a traced pass, writes `trace_<workload>.json`.
fn run_pass(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Pass, Vec<(MetricDecl, f64)>)> {
    let round = [rounds::FCNN_DINAR, rounds::VGG_LDP, rounds::COMM_WDP_I8]
        .into_iter()
        .find(|w| w.name == workload);
    let width = if round.is_some() {
        POOL_WIDTH
    } else {
        cell::POOL_WIDTH
    };
    par::set_threads(width);
    let kind = if traced { "traced" } else { "untraced" };
    println!("== {workload}: {kind} pass, seed {seed}, {seconds} s, pool width {width}");
    let seconds = seconds as f64;
    let (pass, decls) = if traced {
        let (pass, tracer) = match round {
            Some(w) => w.traced(seed, seconds)?,
            None => cell::traced(seed, seconds)?,
        };
        let mut trace = vec![
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("seed".to_string(), Json::Num(seed as f64)),
        ];
        if let Json::Obj(fields) = tracer.to_json() {
            trace.extend(fields);
        }
        write_result(&format!("trace_{workload}.json"), &Json::Obj(trace))?;
        (pass, &PER_LAYER[..])
    } else {
        let pass = match round {
            Some(w) => w.untraced(seed, seconds)?,
            None => cell::untraced(seed, seconds)?,
        };
        (pass, &END_TO_END[..])
    };
    let metrics = finalize(&pass, decls)?;
    let rows: Vec<Vec<String>> = metrics
        .iter()
        .map(|(m, v)| {
            vec![
                m.name.to_string(),
                format!("{v}"),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            ]
        })
        .collect();
    print!("{}", table(&["metric", "value", "unit", "better"], &rows));
    println!(
        "  operations: {} attempted, {} failed",
        pass.ops.attempted, pass.ops.failed
    );
    Ok((pass, metrics))
}

fn metrics_json(metrics: &[(MetricDecl, f64)]) -> Json {
    Json::obj(metrics.iter().map(|(m, v)| {
        (
            m.name,
            Json::obj(vec![
                ("value", Json::Num(*v)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        )
    }))
}

/// The contract's result line.
fn result_line(pass: &Pass, metrics: &[(MetricDecl, f64)]) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(pass.ops.failed == 0)),
        ("attempted", Json::Num(pass.ops.attempted as f64)),
        ("failed", Json::Num(pass.ops.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .dump()
}

/// The machine the numbers were taken on.
fn environment(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu)),
        ("pool_width", Json::Num(POOL_WIDTH as f64)),
        (
            "pool_width_cell_purchase100",
            Json::Num(cell::POOL_WIDTH as f64),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds_per_pass", Json::Num(args.seconds as f64)),
    ])
}

/// One full set: both passes of every selected workload.
struct FullRun {
    /// `(workload, end-to-end metrics)`, for the repeat check.
    end_to_end: Vec<(&'static str, Vec<(MetricDecl, f64)>)>,
    report: Json,
    failed: u64,
}

fn run_full(args: &Args) -> Result<FullRun> {
    let mut end_to_end = Vec::new();
    let mut workloads = Vec::new();
    let mut failed = 0;
    for name in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != name) {
            continue;
        }
        let (untraced, e2e) = run_pass(name, args.seed, args.seconds, false)?;
        let (traced, layers) = run_pass(name, args.seed, args.seconds, true)?;
        failed += untraced.ops.failed + traced.ops.failed;
        let info = |pass: &Pass| Json::obj(pass.info.iter().map(|(k, v)| (*k, v.clone())));
        workloads.push((
            name,
            Json::obj(vec![
                ("end_to_end", metrics_json(&e2e)),
                ("per_layer", metrics_json(&layers)),
                (
                    "attempted",
                    Json::Num((untraced.ops.attempted + traced.ops.attempted) as f64),
                ),
                (
                    "failed",
                    Json::Num((untraced.ops.failed + traced.ops.failed) as f64),
                ),
                ("untraced_info", info(&untraced)),
                ("traced_info", info(&traced)),
            ]),
        ));
        end_to_end.push((name, e2e));
    }
    Ok(FullRun {
        end_to_end,
        report: Json::obj(vec![
            ("env", environment(args)),
            ("workloads", Json::obj(workloads)),
        ]),
        failed,
    })
}

/// Relative amount by which `second` is worse than `first`, in the metric's
/// own direction (negative when it is better).
fn worsening(m: &MetricDecl, first: f64, second: f64) -> f64 {
    match m.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Runs the full set twice back to back and holds every end-to-end metric of
/// the second set within its bound of the first.
fn repeat_check(args: &Args) -> Result<bool> {
    let first = run_full(args)?;
    let second = run_full(args)?;
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut ok = first.failed == 0 && second.failed == 0;
    for ((workload, a), (_, b)) in first.end_to_end.iter().zip(&second.end_to_end) {
        for ((m, va), (_, vb)) in a.iter().zip(b) {
            let bound = m.bound.unwrap_or(0.0);
            let diff = worsening(m, *va, *vb);
            let within = diff.abs() <= bound;
            ok &= within;
            rows.push(vec![
                workload.to_string(),
                m.name.to_string(),
                format!("{va}"),
                format!("{vb}"),
                format!("{:+.2}%", diff * 100.0),
                format!("{:.0}%", bound * 100.0),
                if within { "ok" } else { "FAIL" }.to_string(),
            ]);
            entries.push(Json::obj(vec![
                ("workload", Json::Str(workload.to_string())),
                ("metric", Json::Str(m.name.to_string())),
                ("unit", Json::Str(m.unit.to_string())),
                ("first", Json::Num(*va)),
                ("second", Json::Num(*vb)),
                ("worsening", Json::Num(diff)),
                ("bound", Json::Num(bound)),
                ("within_bound", Json::Bool(within)),
            ]));
        }
    }
    println!("== repeat check: second set against the first");
    print!(
        "{}",
        table(
            &["workload", "metric", "first", "second", "worse by", "bound", ""],
            &rows
        )
    );
    write_result(
        "repeat_check.json",
        &Json::obj(vec![
            ("env", environment(args)),
            ("passed", Json::Bool(ok)),
            ("comparisons", Json::Arr(entries)),
        ]),
    )?;
    write_result("latest.json", &second.report)?;
    Ok(ok)
}

fn run(args: &Args) -> Result<bool> {
    if args.repeat_check {
        return repeat_check(args);
    }
    if let (Some(workload), Some(traced)) = (&args.workload, args.trace) {
        let (pass, metrics) = run_pass(workload, args.seed, args.seconds, traced)?;
        println!("{}", result_line(&pass, &metrics));
        return Ok(pass.ops.failed == 0);
    }
    let full = run_full(args)?;
    write_result("latest.json", &full.report)?;
    println!("== {} output checks or operations failed", full.failed);
    Ok(full.failed == 0)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_with(names: &[&'static str]) -> Pass {
        let mut pass = Pass::default();
        for (i, name) in names.iter().enumerate() {
            pass.metric(name, i as f64 + 1.0);
        }
        pass
    }

    #[test]
    fn finalize_accepts_exactly_the_declared_names_in_declared_order() {
        let mut names: Vec<&'static str> = END_TO_END.iter().map(|m| m.name).collect();
        names.reverse();
        let metrics = finalize(&pass_with(&names), &END_TO_END).expect("same set");
        let ordered: Vec<&str> = metrics.iter().map(|(m, _)| m.name).collect();
        assert_eq!(
            ordered,
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn finalize_rejects_missing_undeclared_duplicate_and_non_finite() {
        let names: Vec<&'static str> = END_TO_END.iter().map(|m| m.name).collect();
        assert!(finalize(&pass_with(&names[1..]), &END_TO_END).is_err());
        let mut extra = names.clone();
        extra.push("not_declared");
        assert!(finalize(&pass_with(&extra), &END_TO_END).is_err());
        let mut twice = names.clone();
        twice.push(names[0]);
        assert!(finalize(&pass_with(&twice), &END_TO_END).is_err());
        let mut nan = pass_with(&names);
        nan.metrics[0].1 = f64::NAN;
        assert!(finalize(&nan, &END_TO_END).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let names: Vec<&'static str> = END_TO_END.iter().map(|m| m.name).collect();
        let mut pass = pass_with(&names);
        pass.ops.record(10, 0);
        let metrics = finalize(&pass, &END_TO_END).expect("same set");
        let line = Json::parse(&result_line(&pass, &metrics)).expect("one JSON object");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let setup = line
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args = "--workload vgg_ldp --seed 9 --seconds 3 --trace 1";
        let parsed = parse_args(args.split(' ').map(String::from)).expect("valid");
        assert_eq!(
            parsed,
            Args {
                workload: Some("vgg_ldp".into()),
                seed: 9,
                seconds: 3,
                trace: Some(true),
                repeat_check: false
            }
        );
        assert!(parse_args(["--workload".to_string(), "nope".to_string()].into_iter()).is_err());
        assert!(parse_args(["--trace".to_string(), "2".to_string()].into_iter()).is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END[1];
        let higher = END_TO_END[2];
        assert!(worsening(&lower, 1.0, 1.1) > 0.0);
        assert!(worsening(&higher, 100.0, 110.0) < 0.0);
    }
}

//! The paper runner: regenerates any table, figure or extension artifact of
//! the evaluation under `bench-results/` (declared in
//! `dinar_bench::paper`), recording each run in `PAPER_manifest.json`.
//!
//! ```text
//! cargo run --release -p dinar-bench --bin paper                     # list the artifacts
//! cargo run --release -p dinar-bench --bin paper -- all              # regenerate every one, in order
//! cargo run --release -p dinar-bench --bin paper -- fig6 table3      # regenerate the named ones
//! cargo run --release -p dinar-bench --bin paper -- sweep cifar10    # lineup on one dataset, writes nothing
//! ```

use dinar_bench::paper::{self, grids, ARTIFACTS};

fn main() -> paper::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {
            for (name, _) in ARTIFACTS {
                println!("{name}");
            }
            Ok(())
        }
        ["sweep", dataset] => {
            let out = paper::run_grid("sweep", &grids::sweep(dataset)?)?;
            print!("{}", out.text);
            Ok(())
        }
        ["sweep", ..] => Err("usage: paper sweep <dataset>".into()),
        ["all"] => ARTIFACTS
            .into_iter()
            .try_for_each(|(name, plan)| paper::regenerate(name, plan)),
        ref names => {
            // Resolve every name before running anything.
            let plans = names
                .iter()
                .map(|&name| Ok((name, paper::artifact(name)?)))
                .collect::<paper::Result<Vec<_>>>()?;
            plans
                .into_iter()
                .try_for_each(|(name, plan)| paper::regenerate(name, plan))
        }
    }
}

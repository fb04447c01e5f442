//! Runs the shared tensor micro-benchmark suite and records
//! `bench-results/BENCH_tensor.json` — the machine-readable perf trajectory
//! for the hot kernels (op, size, ns/iter, threads).
//!
//! Set `DINAR_THREADS=1` for a single-thread baseline run; regeneration
//! instructions live in `crates/bench/README.md`.

use dinar_bench::report::write_json;
use dinar_bench::tensor_suite;
use dinar_bench::timing::Config;

fn main() {
    let entries = match tensor_suite::run(&Config::default()) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("tensor suite failed: {e}");
            std::process::exit(1);
        }
    };
    match write_json("BENCH_tensor", &tensor_suite::to_json(&entries)) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_tensor.json: {e}");
            std::process::exit(1);
        }
    }
}

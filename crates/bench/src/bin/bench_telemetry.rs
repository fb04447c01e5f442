//! Telemetry-overhead micro-suite: records
//! `bench-results/BENCH_telemetry.json`.
//!
//! Measures the cost of the observability plane itself, in two tiers:
//!
//! * **primitive throughput** — one flight event, one deterministic
//!   counter bump (registry update plus its `metric` event), one span
//!   enter/exit pair, and one ledger charge, each in ns/iter (the artifact
//!   also derives `flight_events_per_sec`);
//! * **export latency** — rendering the Perfetto trace-event JSON and the
//!   deterministic JSONL over a populated sink;
//! * **end-to-end overhead** — a seeded 2-client FL training run timed
//!   fully instrumented vs. uninstrumented. `tests/bench_ratchet.rs`
//!   ratchets the committed artifact: the instrumented run must stay
//!   within 5% of the uninstrumented one, the "observation is near-free"
//!   contract. Both runs take the median of [`FL_RUN_SAMPLES`] alternating
//!   samples so scheduler noise hits both sides equally.
//!
//! ```text
//! DINAR_THREADS=1 cargo run --release -p dinar-bench --bin bench_telemetry
//! ```
//!
//! Rows reuse the `(op, size, ns_per_iter, threads)` schema of
//! `BENCH_tensor.json`, so the same ratchet loader reads both artifacts.

use dinar_bench::report::write_json;
use dinar_bench::tensor_suite::TensorBenchEntry;
use dinar_bench::timing::{bench, fmt_ns, Config};
use dinar_data::catalog::{self, Profile};
use dinar_data::partition::{partition_dataset, Distribution};
use dinar_fl::{FlConfig, FlSystem};
use dinar_nn::models::{self, Activation};
use dinar_nn::Model;
use dinar_tensor::json::{Json, ToJson};
use dinar_tensor::{par, Rng};
use dinar_telemetry::{export, Telemetry};
use std::hint::black_box;
use std::time::Instant;

const CLIENTS: usize = 2;
const ROUNDS: usize = 2;
/// Alternating instrumented/uninstrumented samples for the FL-run pair.
const FL_RUN_SAMPLES: usize = 5;

fn entry(op: &str, size: &str, ns_per_iter: f64) -> TensorBenchEntry {
    TensorBenchEntry {
        op: op.to_string(),
        size: size.to_string(),
        ns_per_iter,
        threads: par::threads(),
        gflops: None,
    }
}

fn build_system() -> Result<FlSystem, Box<dyn std::error::Error>> {
    let mut rng = Rng::seed_from(42);
    let dataset = catalog::purchase100(Profile::Mini).generate(&mut rng)?;
    let shards = partition_dataset(&dataset, CLIENTS, Distribution::Iid, &mut rng)?;
    let arch = |rng: &mut Rng| -> dinar_nn::Result<Model> {
        models::mlp(&[600, 32, 100], Activation::ReLU, rng)
    };
    Ok(FlSystem::builder(FlConfig {
        local_epochs: 1,
        batch_size: 64,
        seed: 5,
    })
    .clients_from_shards(shards, arch, |_| {
        Box::new(dinar_nn::optim::Adagrad::new(0.05))
    })?
    .build()?)
}

/// One full training run, instrumented or not, returning wall nanoseconds.
/// The instrumented run records every event an enabled sink records —
/// spans, counter updates and flight events — which is what the 5%
/// overhead ratchet covers.
fn timed_fl_run(instrument: bool) -> Result<f64, Box<dyn std::error::Error>> {
    let mut system = build_system()?;
    if instrument {
        system.set_telemetry(Telemetry::new());
    }
    // lint: allow(L007, the measurand is end-to-end wall time of one run)
    let t0 = Instant::now();
    system.run(ROUNDS)?;
    Ok(t0.elapsed().as_nanos() as f64)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

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

fn run_suite() -> Result<Vec<TensorBenchEntry>, Box<dyn std::error::Error>> {
    let config = Config::default();
    let mut entries = Vec::new();

    // Primitive throughput: the per-event cost every instrumented code
    // path pays. An enabled sink keeps every event, so each loop moves to
    // a fresh sink every `ROTATE` events: the cost of registering with and
    // freeing a sink is amortised in, and the log never outgrows memory.
    let mut sink = RotatingSink::default();
    let m = bench("flight_record", &config, || {
        let (tel, i) = sink.next();
        tel.flight_record("bench", "event", i);
    });
    entries.push(entry("flight_record", "1", m.median_ns()));

    let mut sink = RotatingSink::default();
    let m = bench("counter_add", &config, || {
        sink.next().0.counter_add("bench.counter", 1);
    });
    entries.push(entry("counter_add", "1", m.median_ns()));

    let mut sink = RotatingSink::default();
    let m = bench("span_enter_exit", &config, || {
        drop(sink.next().0.span("bench"));
    });
    entries.push(entry("span_enter_exit", "1", m.median_ns()));

    let tel = Telemetry::new();
    let m = bench("privacy_charge", &config, || {
        tel.privacy_charge("bench", "client[0]", 0.05, 1e-7);
    });
    entries.push(entry("privacy_charge", "1", m.median_ns()));

    // Export latency over a populated sink.
    let tel = populated_sink(1024);
    let m = bench("trace_export", &config, || {
        black_box(export::trace_events(&tel));
    });
    entries.push(entry("trace_export", "1024_spans", m.median_ns()));
    let m = bench("jsonl_export", &config, || {
        black_box(export::export_jsonl(&tel, false));
    });
    entries.push(entry("jsonl_export", "1024_spans", m.median_ns()));

    let tel = Telemetry::new();
    for i in 0..4096 {
        tel.flight_record("bench", "event", i);
    }
    let m = bench("flight_dump", &config, || {
        black_box(tel.flight_dump_jsonl());
    });
    entries.push(entry("flight_dump", "4096_events", m.median_ns()));

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
    let instrumented = median(with_tel);
    let uninstrumented = median(without);
    println!(
        "fl_run ({CLIENTS} clients, {ROUNDS} rounds): instrumented {}  \
         uninstrumented {}  overhead {:+.2}%",
        fmt_ns(instrumented),
        fmt_ns(uninstrumented),
        (instrumented / uninstrumented - 1.0) * 100.0,
    );
    let size = format!("{CLIENTS}c{ROUNDS}r");
    entries.push(entry("fl_run_instrumented", &size, instrumented));
    entries.push(entry("fl_run_uninstrumented", &size, uninstrumented));
    Ok(entries)
}

fn main() {
    let entries = match run_suite() {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("telemetry suite failed: {e}");
            std::process::exit(1);
        }
    };
    let flight_ns = entries
        .iter()
        .find(|e| e.op == "flight_record")
        .map_or(0.0, |e| e.ns_per_iter);
    let doc = Json::obj([
        ("threads", par::threads().to_json()),
        (
            "flight_events_per_sec",
            if flight_ns > 0.0 { 1e9 / flight_ns } else { 0.0 }.to_json(),
        ),
        ("entries", entries.to_json()),
    ]);
    match write_json("BENCH_telemetry", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_telemetry.json: {e}");
            std::process::exit(1);
        }
    }
}

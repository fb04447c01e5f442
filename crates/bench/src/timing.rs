//! A minimal, std-only micro-benchmark harness (the workspace builds
//! hermetically, so the usual external harnesses are unavailable).
//!
//! The model mirrors the familiar sample/iteration split: a short warm-up,
//! then `samples` timed samples of `iters` iterations each, where `iters` is
//! auto-calibrated so one sample lasts roughly [`Config::target_sample`].
//! Results print as one aligned line per benchmark (median / mean / min per
//! iteration) and are returned for programmatic use.
//!
//! ```no_run
//! use dinar_bench::timing::{bench, Config};
//! bench("matmul_64", &Config::default(), || 2 + 2);
//! ```

use std::time::{Duration, Instant};

/// Sampling parameters for one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// How long to run the routine untimed before sampling.
    pub warmup: Duration,
    /// Number of timed samples to collect.
    pub samples: usize,
    /// Target wall-time per sample; iterations per sample are calibrated
    /// so one sample lasts about this long.
    pub target_sample: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            warmup: Duration::from_millis(200),
            samples: 20,
            target_sample: Duration::from_millis(50),
        }
    }
}

impl Config {
    /// A cheaper profile for expensive routines (few samples, one
    /// iteration each) — the analogue of `sample_size(10)` on heavyweight
    /// benches.
    pub fn heavy() -> Self {
        Config {
            warmup: Duration::from_millis(0),
            samples: 10,
            target_sample: Duration::from_millis(0),
        }
    }
}

/// Timing results for one benchmark: per-iteration nanoseconds per sample.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name as printed.
    pub name: String,
    /// Per-iteration time of each sample, in nanoseconds, sorted ascending.
    pub per_iter_ns: Vec<f64>,
    /// Iterations per sample used.
    pub iters: u32,
}

impl Measurement {
    /// Median per-iteration time in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        let n = self.per_iter_ns.len();
        if n == 0 {
            return 0.0;
        }
        if n % 2 == 1 {
            self.per_iter_ns[n / 2]
        } else {
            (self.per_iter_ns[n / 2 - 1] + self.per_iter_ns[n / 2]) / 2.0
        }
    }

    /// Mean per-iteration time in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.per_iter_ns.is_empty() {
            return 0.0;
        }
        self.per_iter_ns.iter().sum::<f64>() / self.per_iter_ns.len() as f64
    }

    /// Fastest per-iteration time in nanoseconds.
    pub fn min_ns(&self) -> f64 {
        self.per_iter_ns.first().copied().unwrap_or(0.0)
    }
}

/// Renders nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn print_line(m: &Measurement) {
    println!(
        "{:<44} median {:>12}   mean {:>12}   min {:>12}   ({} samples x {} iters)",
        m.name,
        fmt_ns(m.median_ns()),
        fmt_ns(m.mean_ns()),
        fmt_ns(m.min_ns()),
        m.per_iter_ns.len(),
        m.iters,
    );
}

/// Calibrates iterations per sample so one sample lasts about
/// `target_sample` (at least 1).
fn calibrate<T>(config: &Config, f: &mut impl FnMut() -> T) -> u32 {
    if config.target_sample.is_zero() {
        return 1;
    }
    let probe = Instant::now();
    std::hint::black_box(f());
    let once = probe.elapsed().max(Duration::from_nanos(1));
    let per_sample = config.target_sample.as_nanos() / once.as_nanos().max(1);
    per_sample.clamp(1, 1_000_000) as u32
}

/// Times `f` under `config` and prints one result line.
pub fn bench<T>(name: &str, config: &Config, mut f: impl FnMut() -> T) -> Measurement {
    // Warm-up: run untimed until the budget is spent.
    let start = Instant::now();
    while start.elapsed() < config.warmup {
        std::hint::black_box(f());
    }

    let iters = calibrate(config, &mut f);
    let mut per_iter_ns = Vec::with_capacity(config.samples);
    for _ in 0..config.samples.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        per_iter_ns.push(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    per_iter_ns.sort_by(f64::total_cmp);
    let measurement = Measurement {
        name: name.to_string(),
        per_iter_ns,
        iters,
    };
    print_line(&measurement);
    measurement
}

/// Times `routine` on fresh input from `setup` each iteration; only the
/// routine is timed. One iteration per sample (the batched analogue of
/// `BatchSize::PerIteration`).
pub fn bench_batched<S, T>(
    name: &str,
    config: &Config,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> T,
) -> Measurement {
    let mut per_iter_ns = Vec::with_capacity(config.samples);
    for _ in 0..config.samples.max(1) {
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(routine(input));
        per_iter_ns.push(t0.elapsed().as_nanos() as f64);
    }
    per_iter_ns.sort_by(f64::total_cmp);
    let measurement = Measurement {
        name: name.to_string(),
        per_iter_ns,
        iters: 1,
    };
    print_line(&measurement);
    measurement
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_requested_samples() {
        let config = Config {
            warmup: Duration::from_millis(0),
            samples: 5,
            target_sample: Duration::from_micros(100),
        };
        let m = bench("noop", &config, || 1 + 1);
        assert_eq!(m.per_iter_ns.len(), 5);
        assert!(m.iters >= 1);
        assert!(m.min_ns() <= m.median_ns() && m.median_ns() <= m.per_iter_ns[4]);
    }

    #[test]
    fn batched_times_only_the_routine() {
        let config = Config::heavy();
        let m = bench_batched("batched-noop", &config, || vec![0u8; 16], |v| v.len());
        assert_eq!(m.per_iter_ns.len(), 10);
        assert_eq!(m.iters, 1);
    }

    #[test]
    fn fmt_ns_picks_adaptive_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(12_000_000_000.0).ends_with('s'));
    }
}

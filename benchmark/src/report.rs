//! What one pass over one workload produces: named metric values, the
//! operation ledger behind `failed`, and free-form facts printed for
//! information.

use dinar_tensor::json::Json;
use dinar_tensor::profile::{KernelSnapshot, ParamSnapshot};

/// Result alias for benchmark code: any layer's error ends the pass.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Operations attempted and failed in a pass. An operation is one client
/// update due in a round, one harness call of a cell, or one output check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Records `n` operations of which `failed` failed.
    pub fn record(&mut self, n: usize, failed: usize) {
        self.attempted += n as u64;
        self.failed += failed as u64;
    }

    /// Records one output check and prints its verdict with the observed
    /// and expected values.
    pub fn check(&mut self, name: &str, ok: bool, observed: &str, expected: &str) {
        self.record(1, usize::from(!ok));
        let verdict = if ok { "ok" } else { "FAIL" };
        println!("  check {name}: {verdict} (observed {observed}; expected {expected})");
    }
}

/// The outcome of one pass (untraced or traced) over one workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// `(metric name, value)` in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operation ledger.
    pub ops: Ops,
    /// Facts recorded in `results/latest.json` but not held to any bound:
    /// sample counts, final loss, parameter digest.
    pub info: Vec<(&'static str, Json)>,
}

impl Pass {
    /// Appends a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Appends an informational fact and prints it.
    pub fn note(&mut self, name: &'static str, value: Json) {
        println!("  info {name}: {}", value.dump());
        self.info.push((name, value));
    }

    /// The `tensor.*_per_round` counts: `dinar_tensor::profile` deltas taken
    /// over `rounds` rounds.
    pub fn counts_per_round(
        &mut self,
        kernels: &KernelSnapshot,
        params: &ParamSnapshot,
        rounds: f64,
    ) {
        for (name, count) in [
            ("tensor.matmul_flops_per_round", kernels.matmul_flops),
            ("tensor.matmul_calls_per_round", kernels.matmul_calls),
            ("tensor.im2col_bytes_per_round", kernels.im2col_bytes),
            ("tensor.col2im_bytes_per_round", kernels.col2im_bytes),
            ("tensor.rng_samples_per_round", kernels.rng_samples),
            ("tensor.param_copy_bytes_per_round", params.copy_bytes),
            ("tensor.param_share_calls_per_round", params.share_calls),
        ] {
            self.metric(name, count as f64 / rounds);
        }
    }

    /// The value of metric `name`, if this pass produced it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// A JSON array of numbers.
pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

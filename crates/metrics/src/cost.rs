//! Cost accounting: wall-clock time and tensor memory.
//!
//! Backs the Table 3 comparison ("training duration per FL round on client
//! side", "aggregation duration on server side", "GPU memory usage on client
//! side"). Time is read through the sanctioned injectable
//! [`Clock`] — [`WallClock`] by default, a
//! [`ManualClock`](crate::clock::ManualClock) in replay tests — and memory
//! is the peak of extra live tensor bytes measured through
//! `dinar_tensor::alloc`.

use crate::clock::{Clock, WallClock};
use dinar_tensor::alloc::MemoryScope;
use dinar_tensor::json::{Json, ToJson};
use std::time::Duration;

/// A cost sample for one FL configuration: the three Table 3 columns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostSample {
    /// Mean client-side training duration per FL round, in seconds.
    pub client_train_s: f64,
    /// Mean server-side aggregation duration per round, in seconds.
    pub server_agg_s: f64,
    /// Peak extra tensor memory on the client during a round, in bytes.
    pub client_peak_mem_bytes: u64,
}

impl ToJson for CostSample {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("client_train_s", self.client_train_s.to_json()),
            ("server_agg_s", self.server_agg_s.to_json()),
            (
                "client_peak_mem_bytes",
                self.client_peak_mem_bytes.to_json(),
            ),
        ])
    }
}

impl CostSample {
    /// Reconstructs a sample from its [`ToJson`] encoding.
    ///
    /// Returns `None` if any of the three fields is missing or has the
    /// wrong type.
    pub fn from_json(value: &Json) -> Option<Self> {
        Some(CostSample {
            client_train_s: value.get("client_train_s").and_then(Json::as_f64)?,
            server_agg_s: value.get("server_agg_s").and_then(Json::as_f64)?,
            client_peak_mem_bytes: value.get("client_peak_mem_bytes").and_then(Json::as_u64)?,
        })
    }

    /// Relative overhead of `self` against a `baseline` sample, as the three
    /// Table 3 percentages (client time, aggregation time, memory).
    ///
    /// A zero baseline component yields 0% for that component.
    pub fn overhead_vs(&self, baseline: &CostSample) -> CostOverhead {
        fn pct(x: f64, base: f64) -> f64 {
            if base <= 0.0 {
                0.0
            } else {
                (x / base - 1.0) * 100.0
            }
        }
        CostOverhead {
            client_train_pct: pct(self.client_train_s, baseline.client_train_s),
            server_agg_pct: pct(self.server_agg_s, baseline.server_agg_s),
            client_mem_pct: pct(
                self.client_peak_mem_bytes as f64,
                baseline.client_peak_mem_bytes as f64,
            ),
        }
    }
}

/// Percentage overheads relative to the undefended FL baseline (Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostOverhead {
    /// Client training-time overhead in percent.
    pub client_train_pct: f64,
    /// Server aggregation-time overhead in percent.
    pub server_agg_pct: f64,
    /// Client memory overhead in percent.
    pub client_mem_pct: f64,
}

/// Measures a closure's wall-clock time and peak extra tensor memory,
/// timing through a fresh [`WallClock`].
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration, u64) {
    measure_with(&WallClock::new(), f)
}

/// Measures a closure's elapsed time on `clock` and its peak extra tensor
/// memory. Inject a [`ManualClock`](crate::clock::ManualClock) for
/// deterministic timings in tests.
pub fn measure_with<T>(clock: &dyn Clock, f: impl FnOnce() -> T) -> (T, Duration, u64) {
    let scope = MemoryScope::enter();
    let t0 = clock.elapsed();
    let out = f();
    let elapsed = clock.elapsed().saturating_sub(t0);
    (out, elapsed, scope.peak_extra_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_tensor::Tensor;

    #[test]
    fn measure_with_manual_clock_is_deterministic() {
        let clock = crate::clock::ManualClock::new();
        let (out, elapsed, _) = measure_with(&clock, || {
            clock.advance(Duration::from_micros(42));
            7
        });
        assert_eq!(out, 7);
        assert_eq!(elapsed, Duration::from_micros(42));
    }

    #[test]
    fn measure_reports_memory() {
        let (_, _, peak) = measure(|| {
            let _t = Tensor::zeros(&[10_000]);
        });
        assert!(peak >= 40_000);
    }

    #[test]
    fn overhead_percentages() {
        let base = CostSample {
            client_train_s: 1.0,
            server_agg_s: 0.1,
            client_peak_mem_bytes: 1000,
        };
        let defended = CostSample {
            client_train_s: 1.35,
            server_agg_s: 3.1,
            client_peak_mem_bytes: 3570,
        };
        let o = defended.overhead_vs(&base);
        assert!((o.client_train_pct - 35.0).abs() < 1e-9);
        assert!((o.server_agg_pct - 3000.0).abs() < 1e-9);
        assert!((o.client_mem_pct - 257.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_overhead_is_zero() {
        let base = CostSample::default();
        let x = CostSample {
            client_train_s: 5.0,
            server_agg_s: 5.0,
            client_peak_mem_bytes: 5,
        };
        let o = x.overhead_vs(&base);
        assert_eq!(o.client_train_pct, 0.0);
        assert_eq!(o.client_mem_pct, 0.0);
    }
}

//! Bridges from the `dinar-tensor` counters into the metrics registry.
//!
//! The tensor crate cannot depend on this one (it supplies the JSON layer
//! telemetry exports with), so its kernels count into the plain atomics of
//! [`dinar_tensor::profile`] and its allocator into
//! [`dinar_tensor::alloc`]; these helpers copy snapshots of both into a
//! [`Telemetry`] registry under stable metric names.
//!
//! Kernel-work counters (`tensor.matmul.*`, `tensor.im2col.*`,
//! `tensor.col2im.*`, `tensor.rng.*`) are logical and thread-invariant, so
//! they land as deterministic metrics. Pool scheduling (`tensor.pool.*`) and the
//! process-global alloc ledger (`tensor.alloc.*`) vary with the pool width
//! and with whatever else the process runs, so they are tagged volatile.

use crate::Telemetry;
use dinar_tensor::{alloc, profile};

/// Records a kernel-counter delta (see
/// [`KernelSnapshot::delta_since`](profile::KernelSnapshot::delta_since))
/// into `tel`.
pub fn record_kernel_delta(tel: &Telemetry, delta: &profile::KernelSnapshot) {
    if !tel.is_enabled() {
        return;
    }
    tel.counter_add("tensor.matmul.calls", delta.matmul_calls);
    tel.counter_add("tensor.matmul.flops", delta.matmul_flops);
    tel.counter_add("tensor.im2col.calls", delta.im2col_calls);
    tel.counter_add("tensor.im2col.bytes", delta.im2col_bytes);
    tel.counter_add("tensor.col2im.calls", delta.col2im_calls);
    tel.counter_add("tensor.col2im.bytes", delta.col2im_bytes);
    // Bulk noise volume: one count per element filled, derived from the
    // request length alone — deterministic like the other kernel counters.
    tel.counter_add("tensor.rng.samples", delta.rng_samples);
    tel.counter_add_volatile("tensor.pool.regions", delta.pool_regions);
    tel.counter_add_volatile("tensor.pool.tasks", delta.pool_tasks);
    tel.gauge_max_volatile("tensor.pool.max_width", delta.pool_max_width as f64);
}

/// Records the current process-wide alloc ledger into `tel` as volatile
/// high-water gauges.
pub fn record_alloc_gauges(tel: &Telemetry) {
    if !tel.is_enabled() {
        return;
    }
    tel.gauge_max_volatile("tensor.alloc.live_bytes", alloc::live_bytes() as f64);
    tel.gauge_max_volatile("tensor.alloc.peak_bytes", alloc::peak_bytes() as f64);
}

/// Records one round of wire-plane traffic under the stable
/// `fl.transport.*` names. Byte and frame counts are functions of the
/// model architecture and the codec alone — independent of pool width,
/// arrival order and wall time — so they land as deterministic counters.
pub fn record_wire_round(tel: &Telemetry, bytes_down: u64, bytes_up: u64, frames: u64) {
    if !tel.is_enabled() {
        return;
    }
    tel.counter_add("fl.transport.bytes_down", bytes_down);
    tel.counter_add("fl.transport.bytes_up", bytes_up);
    tel.counter_add("fl.transport.frames", frames);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricData;
    use crate::ManualClock;
    use dinar_tensor::Tensor;
    use std::sync::Arc;

    #[test]
    fn kernel_delta_lands_under_stable_names() {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let before = profile::snapshot();
        let a = Tensor::ones(&[3, 4]);
        let b = Tensor::ones(&[4, 2]);
        a.matmul(&b).unwrap();
        dinar_tensor::Rng::seed_from(0).randn(&[64]);
        record_kernel_delta(&tel, &profile::snapshot().delta_since(&before));
        let metrics = tel.metrics();
        for (name, at_least) in [("tensor.matmul.calls", 1), ("tensor.rng.samples", 64)] {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(!m.volatile, "{name} must be deterministic");
            match m.data {
                MetricData::Counter(v) => assert!(v >= at_least, "{name} = {v}"),
                ref other => panic!("expected counter, got {other:?}"),
            }
        }
        assert!(metrics
            .iter()
            .any(|m| m.name == "tensor.pool.regions" && m.volatile));
    }

    #[test]
    fn alloc_and_scope_gauges_are_volatile() {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let scope = alloc::MemoryScope::enter();
        let _t = Tensor::zeros(&[1024]);
        record_alloc_gauges(&tel);
        // A scope's peak is published the same way, under its own name.
        tel.gauge_max_volatile("client.peak_bytes", scope.peak_extra_bytes() as f64);
        for name in [
            "tensor.alloc.live_bytes",
            "tensor.alloc.peak_bytes",
            "client.peak_bytes",
        ] {
            let m = tel
                .metrics()
                .into_iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(m.volatile, "{name} must be volatile");
            match m.data {
                MetricData::Gauge(v) => assert!(v >= 0.0),
                other => panic!("expected gauge, got {other:?}"),
            }
        }
    }

    #[test]
    fn wire_round_lands_as_deterministic_counters() {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        record_wire_round(&tel, 1000, 250, 8);
        record_wire_round(&tel, 1000, 250, 8);
        for (name, want) in [
            ("fl.transport.bytes_down", 2000),
            ("fl.transport.bytes_up", 500),
            ("fl.transport.frames", 16),
        ] {
            let m = tel
                .metrics()
                .into_iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(!m.volatile, "{name} must be deterministic");
            match m.data {
                MetricData::Counter(v) => assert_eq!(v, want, "{name}"),
                ref other => panic!("expected counter, got {other:?}"),
            }
        }
    }

    #[test]
    fn bridges_are_noops_when_disabled() {
        let tel = Telemetry::disabled();
        record_kernel_delta(&tel, &profile::snapshot());
        record_alloc_gauges(&tel);
        record_wire_round(&tel, 1, 1, 1);
        assert!(tel.metrics().is_empty());
    }
}

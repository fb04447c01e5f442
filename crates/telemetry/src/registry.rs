//! Thread-safe metrics registry: counters, gauges and histograms.
//!
//! Metrics are named, get-or-created on first touch, and stored in a
//! `BTreeMap` so every export walks them in name order. Handles are cheap
//! `Arc` clones that can be cached outside the registry lock, so hot paths
//! pay one relaxed atomic op per update.
//!
//! # Determinism contract
//!
//! Whether a metric's final value depends on thread interleaving is a
//! property of its *update discipline*, not its type:
//!
//! * [`Counter::add`] and [`Gauge::maximize`] are commutative — any
//!   interleaving of the same multiset of updates yields the same value.
//! * [`Histo::observe`] fills deterministic bins; the counts depend only on
//!   the multiset of observations.
//! * [`Gauge::set`] is last-write-wins — deterministic only with a single
//!   writer.
//!
//! Metrics whose *values* are inherently scheduling-dependent (pool fan-out
//! widths, process-global alloc high-water marks) are registered with
//! `volatile = true`; deterministic exports skip them
//! ([`Registry::export`] reports the flag).

use dinar_metrics::histogram::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotone `u64` counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `v` to the counter.
    pub fn add(&self, v: u64) {
        self.cell.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An `f64` gauge stored as atomic bits.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Overwrites the gauge (last write wins — single-writer discipline).
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if larger (commutative; safe under
    /// concurrent writers). Non-finite values are ignored.
    pub fn maximize(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A mutex-wrapped [`Histogram`] handle.
#[derive(Debug, Clone)]
pub struct Histo {
    inner: Arc<Mutex<Histogram>>,
    lo: f64,
    hi: f64,
}

impl Histo {
    fn new(lo: f64, hi: f64, bins: usize) -> Self {
        Histo {
            inner: Arc::new(Mutex::new(Histogram::new(lo, hi, bins))),
            lo,
            hi,
        }
    }

    /// Records one observation (non-finite samples are ignored by the
    /// underlying histogram).
    pub fn observe(&self, x: f32) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .add(x);
    }

    /// A copy of the current histogram state.
    pub fn snapshot(&self) -> Histogram {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The `[lo, hi]` range the histogram was created with.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

#[derive(Debug, Clone)]
struct Entry {
    metric: Metric,
    volatile: bool,
}

/// Exported value of one metric (see [`Registry::export`]).
#[derive(Debug, Clone)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// `true` if the value is scheduling-dependent and must be excluded
    /// from deterministic comparisons.
    pub volatile: bool,
    /// The value itself.
    pub data: MetricData,
}

/// Typed payload of an exported metric.
#[derive(Debug, Clone)]
pub enum MetricData {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram range, bin counts and total sample count.
    Histogram {
        /// Lower bound of the binning range.
        lo: f64,
        /// Upper bound of the binning range.
        hi: f64,
        /// Per-bin sample counts.
        counts: Vec<u64>,
        /// Total samples recorded.
        total: u64,
    },
}

/// Name-keyed store of metrics.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn entry<F: FnOnce() -> Metric>(&self, name: &str, volatile: bool, make: F) -> Metric {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        match entries.get(name) {
            Some(e) => e.metric.clone(),
            None => {
                let metric = make();
                entries.insert(
                    name.to_string(),
                    Entry {
                        metric: metric.clone(),
                        volatile,
                    },
                );
                metric
            }
        }
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a metric of a different kind.
    pub fn counter(&self, name: &str, volatile: bool) -> Counter {
        match self.entry(name, volatile, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            // lint: allow(L012, kind mismatch is a programmer error at the registration site)
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Gets or creates the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a metric of a different kind.
    pub fn gauge(&self, name: &str, volatile: bool) -> Gauge {
        match self.entry(name, volatile, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            // lint: allow(L012, kind mismatch is a programmer error at the registration site)
            other => panic!("metric `{name}` is not a gauge: {other:?}"),
        }
    }

    /// Gets or creates the histogram `name` with `bins` bins over
    /// `[lo, hi]`; an existing histogram keeps its original binning.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a metric of a different kind, or on
    /// an invalid range (see [`Histogram::new`]).
    pub fn histogram(&self, name: &str, lo: f64, hi: f64, bins: usize, volatile: bool) -> Histo {
        match self.entry(name, volatile, || Metric::Histo(Histo::new(lo, hi, bins))) {
            Metric::Histo(h) => h,
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    /// Snapshots every metric, in ascending name order.
    pub fn export(&self) -> Vec<MetricValue> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries
            .iter()
            .map(|(name, e)| MetricValue {
                name: name.clone(),
                volatile: e.volatile,
                data: match &e.metric {
                    Metric::Counter(c) => MetricData::Counter(c.get()),
                    Metric::Gauge(g) => MetricData::Gauge(g.get()),
                    Metric::Histo(h) => {
                        let snap = h.snapshot();
                        let (lo, hi) = h.range();
                        MetricData::Histogram {
                            lo,
                            hi,
                            counts: snap.counts().to_vec(),
                            total: snap.total(),
                        }
                    }
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_handles_share_state() {
        let reg = Registry::new();
        let a = reg.counter("calls", false);
        let b = reg.counter("calls", false);
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.export().len(), 1);
    }

    #[test]
    fn gauge_maximize_is_monotone() {
        let reg = Registry::new();
        let g = reg.gauge("grad_norm", false);
        g.maximize(1.5);
        g.maximize(0.5);
        g.maximize(f64::NAN);
        assert_eq!(g.get(), 1.5);
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
    }

    #[test]
    fn histogram_reuses_original_binning() {
        let reg = Registry::new();
        let h = reg.histogram("loss", 0.0, 10.0, 5, false);
        h.observe(1.0);
        h.observe(100.0); // clamps into the top bin
        let h2 = reg.histogram("loss", -1.0, 1.0, 2, false);
        assert_eq!(h2.snapshot().total(), 2);
        assert_eq!(h2.range(), (0.0, 10.0));
    }

    #[test]
    fn export_is_name_ordered_and_typed() {
        let reg = Registry::new();
        reg.gauge("b.gauge", true).set(2.0);
        reg.counter("a.counter", false).add(7);
        reg.histogram("c.hist", 0.0, 1.0, 2, false).observe(0.1);
        let out = reg.export();
        let names: Vec<&str> = out.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a.counter", "b.gauge", "c.hist"]);
        assert!(matches!(out[0].data, MetricData::Counter(7)));
        assert!(out[1].volatile);
        match &out[2].data {
            MetricData::Histogram { counts, total, .. } => {
                assert_eq!(*total, 1);
                assert_eq!(counts, &vec![1, 0]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.gauge("x", false);
        reg.counter("x", false);
    }

    #[test]
    fn concurrent_maximize_keeps_the_max() {
        let reg = std::sync::Arc::new(Registry::new());
        let g = reg.gauge("peak", false);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        g.maximize(f64::from(t * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.get(), 3999.0);
    }
}

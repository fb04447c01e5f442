//! # dinar-telemetry
//!
//! Observability substrate for the DINAR reproduction: hierarchical
//! [`span`]s timed by an injectable [`Clock`], a thread-safe metrics
//! [`registry`] (counters, gauges, histograms), a [`bridge`] from the
//! `dinar-tensor` kernel/alloc counters, deterministic JSONL /
//! summary-tree / trace-event [`export`]ers, a postmortem flight
//! [`recorder`] view, and a privacy-budget [`ledger`]. Spans, counter
//! updates and flight records share one per-thread event log ([`span`]).
//!
//! The paper's evaluation is built from per-phase measurements — per-round
//! training time, per-layer cost, memory footprint (Figs 8–11, Tables 2–3)
//! — and this crate is the one instrument all layers share: `dinar-nn`
//! times every layer's forward/backward, `dinar-fl` wraps rounds, clients
//! and middleware in spans, and `dinar-bench` writes one report per
//! observed training run. The audit plane rides the same handle: defenses
//! charge their (ε, δ) spend to the [`ledger`], and the flight [`recorder`]
//! reads the last events of every thread back for crash postmortems.
//!
//! # One switch
//!
//! `DINAR_OBSERVE=<dir>` is the only observability setting, read by
//! [`observe_dir`] alone. Under it every harness training run records on
//! an enabled sink and writes `<dir>/RUN_<nnn>_<dataset>_<defense>.json`
//! ([`export::run_document`]: a Perfetto-loadable trace plus metrics,
//! summary tree, coverage, privacy ledger and flight view), and the
//! engine's failure exits write `<dir>/FLIGHT_<reason>.jsonl`. A caller
//! that attaches its own sink gets no RUN file written behind its back.
//!
//! # The handle
//!
//! [`Telemetry`] is a cheap clonable handle; all clones feed one sink. The
//! [`Telemetry::disabled`] handle (also [`Default`]) holds no allocation
//! and makes every operation an early-return on a `None` — instrumented
//! hot paths cost one branch when profiling is off.
//!
//! ```
//! use dinar_telemetry::{ManualClock, Telemetry};
//! use std::sync::Arc;
//!
//! let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
//! {
//!     let _round = tel.span("round[1]");
//!     let _train = tel.span("train");
//!     tel.counter_add("steps", 1);
//! }
//! assert_eq!(tel.spans().len(), 2);
//! ```
//!
//! # Determinism contract
//!
//! With a [`ManualClock`] and deterministic program flow, the *sorted*
//! span list and the non-volatile metrics are identical for any
//! `DINAR_THREADS`. See [`registry`] for which updates commute,
//! [`export`] for the sorted, volatile-filtered emission, and
//! [`recorder`] for why flight dumps are width-independent too.

#![warn(missing_docs)]

pub mod bridge;
pub mod export;
pub mod ledger;
pub mod recorder;
pub mod registry;
pub mod span;

pub use dinar_metrics::clock::{Clock, ManualClock, WallClock};
pub use ledger::PrivacyAccount;
pub use recorder::FlightEvent;
pub use registry::{Counter, Gauge, Histo, MetricData, MetricValue, Registry};
pub use span::{SpanGuard, SpanRecord};

use dinar_tensor::json::Json;
use ledger::PrivacyLedger;
use span::EventLog;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The observability switch (crate docs, "One switch"): the directory
/// named by `DINAR_OBSERVE`, or [`None`] when it is unset or empty. This is
/// the only place the workspace reads it; everything below takes the
/// directory as an argument.
pub fn observe_dir() -> Option<PathBuf> {
    std::env::var_os("DINAR_OBSERVE")
        .filter(|dir| !dir.is_empty())
        .map(PathBuf::from)
}

#[derive(Debug)]
struct Inner {
    events: Arc<EventLog>,
    registry: Registry,
    ledger: PrivacyLedger,
}

/// Shared handle to one telemetry sink (event log + metrics + clock +
/// privacy ledger).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An enabled sink timed by a fresh [`WallClock`].
    pub fn new() -> Self {
        Telemetry::with_clock(Arc::new(WallClock::new()))
    }

    /// An enabled sink timed by `clock` — inject a [`ManualClock`] for
    /// replayable traces.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                events: Arc::new(EventLog {
                    clock,
                    threads: Default::default(),
                }),
                registry: Registry::new(),
                ledger: PrivacyLedger::default(),
            })),
        }
    }

    /// The no-op handle: records nothing, allocates nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// `true` if this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ------------------------------------------------------------------
    // Spans
    // ------------------------------------------------------------------

    /// Opens a span named `name` under the innermost span already open on
    /// this thread (a root span if none is).
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(_) => self.span_at(&span::current_path().unwrap_or_default(), name),
        }
    }

    /// Opens a span named `name` under the explicit `parent` path —
    /// the lineage seed for work fanned out to pool threads, whose
    /// thread-local span stack starts empty. An empty `parent` opens a
    /// root span.
    pub fn span_at(&self, parent: &str, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::noop();
        };
        let path = if parent.is_empty() {
            name.to_string()
        } else {
            format!("{parent}/{name}")
        };
        SpanGuard::begin(&inner.events, path)
    }

    /// Snapshot of all completed spans, grouped by recording thread (sort
    /// before comparing across runs — see [`export::sorted_spans`]).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.events().map_or_else(Vec::new, EventLog::spans)
    }

    /// The event log ([`None`] when disabled).
    fn events(&self) -> Option<&EventLog> {
        self.inner.as_ref().map(|i| &*i.events)
    }

    /// The clock driving this sink ([`None`] when disabled).
    pub fn clock(&self) -> Option<Arc<dyn Clock>> {
        self.inner.as_ref().map(|i| i.events.clock.clone())
    }

    // ------------------------------------------------------------------
    // Flight view
    // ------------------------------------------------------------------

    /// Records one structured event on the calling thread's log (no-op
    /// when disabled). `kind` classifies the event (`"fault"`, `"send"`,
    /// …); the scope is the innermost span open on this thread; the
    /// timestamp comes from the sink clock.
    pub fn flight_record(&self, kind: &'static str, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.events.record(kind, name, value);
        }
    }

    /// Every thread's last [`RING_CAPACITY`](recorder::RING_CAPACITY)
    /// flight events in canonical sorted order (empty when disabled).
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.events().map_or_else(Vec::new, |e| recorder::view(e).0)
    }

    /// How many older events fell outside the per-thread window of
    /// [`flight_events`](Telemetry::flight_events). Scheduling-dependent:
    /// it varies with how work was spread over threads.
    pub fn flight_dropped(&self) -> u64 {
        self.events().map_or(0, |e| recorder::view(e).1)
    }

    /// The sorted flight dump as JSONL — byte-identical across pool
    /// widths for deterministic programs (see [`recorder`] module docs).
    pub fn flight_dump_jsonl(&self) -> String {
        recorder::jsonl(&self.flight_events())
    }

    /// Writes the flight dump to `<dir>/FLIGHT_<reason>.jsonl` when the
    /// [`observe_dir`] switch names a `dir` and the sink is enabled,
    /// reporting events dropped from the per-thread window on stderr. The
    /// engine's failure exits (panic, deadline, quorum) call this. Returns
    /// the path written; an IO failure comes back as the error, for the
    /// caller to report and carry on.
    pub fn flight_dump_if_requested(&self, reason: &str) -> std::io::Result<Option<PathBuf>> {
        match observe_dir() {
            Some(dir) => self.flight_dump_to(&dir, reason),
            None => Ok(None),
        }
    }

    /// [`flight_dump_if_requested`](Telemetry::flight_dump_if_requested)
    /// into `dir`.
    fn flight_dump_to(&self, dir: &Path, reason: &str) -> std::io::Result<Option<PathBuf>> {
        let Some(log) = self.events() else {
            return Ok(None);
        };
        let (events, dropped) = recorder::view(log);
        if dropped > 0 {
            eprintln!("flight dump {reason}: {dropped} older events fell outside the window");
        }
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("FLIGHT_{reason}.jsonl"));
        std::fs::write(&path, recorder::jsonl(&events))?;
        Ok(Some(path))
    }

    // ------------------------------------------------------------------
    // Privacy ledger
    // ------------------------------------------------------------------

    /// Charges (ε, δ) spent by `defense` against `entity`'s budget and
    /// refreshes the deterministic gauge `privacy.eps.<defense>.<entity>`
    /// with the basic-composition total. Defense transforms are required
    /// to call this (or [`privacy_charge_zero`](Telemetry::privacy_charge_zero))
    /// on every application — lint rule L016.
    pub fn privacy_charge(&self, defense: &str, entity: &str, eps: f64, delta: f64) {
        if let Some(inner) = &self.inner {
            inner.ledger.charge(defense, entity, eps, delta);
            let total = inner.ledger.eps_basic(defense, entity);
            inner
                .registry
                .gauge(&format!("privacy.eps.{defense}.{entity}"), false)
                .set(total);
        }
    }

    /// Registers a zero-cost ledger entry: `defense` ran for `entity` and
    /// certifies it spent no differential-privacy budget. Keeps audit
    /// coverage total — "spends nothing" is reported, not inferred.
    pub fn privacy_charge_zero(&self, defense: &str, entity: &str) {
        self.privacy_charge(defense, entity, 0.0, 0.0);
    }

    /// Every ledger account composed (basic + advanced), in
    /// `(defense, entity)` order. Empty when disabled or nothing charged.
    pub fn privacy_accounts(&self) -> Vec<PrivacyAccount> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.ledger.accounts(),
        }
    }

    /// The audit report as JSON — the payload of `AUDIT_privacy.json`.
    pub fn privacy_report(&self) -> Json {
        match &self.inner {
            None => PrivacyLedger::default().report(),
            Some(inner) => inner.ledger.report(),
        }
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Adds `v` to the deterministic counter `name` and records it as a
    /// `metric` event.
    pub fn counter_add(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter(name, false).add(v);
            inner.events.record("metric", name, v);
        }
    }

    /// Adds `v` to the **volatile** (scheduling-dependent) counter `name`.
    pub fn counter_add_volatile(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter(name, true).add(v);
        }
    }

    /// Raises the deterministic gauge `name` to `v` if larger
    /// (commutative — safe from concurrent clients).
    pub fn gauge_max(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge(name, false).maximize(v);
        }
    }

    /// Overwrites the deterministic gauge `name` (single-writer
    /// discipline: concurrent setters make the value last-write-wins).
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge(name, false).set(v);
        }
    }

    /// Raises the **volatile** gauge `name` to `v` if larger.
    pub fn gauge_max_volatile(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge(name, true).maximize(v);
        }
    }

    /// Snapshots every metric in name order (empty when disabled).
    pub fn metrics(&self) -> Vec<MetricValue> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.registry.export(),
        }
    }

    /// Current value of the counter `name`, or 0 when the counter does not
    /// exist (or telemetry is disabled). Convenience for tests and reports
    /// that assert on a single counter without walking
    /// [`metrics`](Telemetry::metrics).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.metrics()
            .into_iter()
            .find(|m| m.name == name)
            .and_then(|m| match m.data {
                MetricData::Counter(v) => Some(v),
                _ => None,
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_default_and_free() {
        let tel = Telemetry::default();
        assert!(!tel.is_enabled());
        tel.counter_add("x", 1);
        tel.gauge_max("y", 1.0);
        tel.privacy_charge("dp", "client[0]", 1.0, 1e-5);
        tel.flight_record("fault", "crash", 1);
        assert!(tel.metrics().is_empty());
        assert!(tel.clock().is_none());
        assert!(tel.privacy_accounts().is_empty());
        assert!(tel.flight_events().is_empty());
    }

    #[test]
    fn clones_share_one_sink() {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let other = tel.clone();
        other.counter_add("shared", 2);
        tel.counter_add("shared", 3);
        match &tel.metrics()[0].data {
            MetricData::Counter(v) => assert_eq!(*v, 5),
            other => panic!("expected counter, got {other:?}"),
        }
        drop(other.span("from-clone"));
        assert_eq!(tel.spans().len(), 1);
    }

    #[test]
    fn counter_value_reads_one_counter() {
        let tel = Telemetry::new();
        assert_eq!(tel.counter_value("missing"), 0);
        tel.counter_add("hits", 4);
        tel.counter_add("hits", 1);
        assert_eq!(tel.counter_value("hits"), 5);
        // Non-counter metrics are not misread as counters.
        tel.gauge_set("level", 9.0);
        assert_eq!(tel.counter_value("level"), 0);
        // Disabled telemetry reads zero everywhere.
        assert_eq!(Telemetry::disabled().counter_value("hits"), 0);
    }

    #[test]
    fn flight_captures_spans_and_counters() {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        {
            let _r = tel.span("round[1]");
            tel.counter_add("ticks", 2);
            tel.counter_add_volatile("pool", 1);
            tel.flight_record("fault", "client[0]", 7);
        }
        let events = tel.flight_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["fault", "metric", "span_enter", "span_exit"]);
        let fault = events.iter().find(|e| e.kind == "fault").unwrap();
        assert_eq!(fault.scope, "round[1]");
        assert_eq!(fault.value, 7);
    }

    #[test]
    fn dump_and_trace_writers_return_io_errors() {
        let dir = std::env::temp_dir().join(format!("dinar-tel-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("regular-file");
        std::fs::write(&file, "not a directory").unwrap();
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        tel.flight_record("fault", "crash", 1);
        let blocked = file.join("sub");
        assert!(tel.flight_dump_to(&blocked, "crash").is_err());
        assert!(export::write_run(&tel, &blocked, "001").is_err());
        let written = tel.flight_dump_to(&dir, "crash").unwrap().unwrap();
        assert_eq!(written, dir.join("FLIGHT_crash.jsonl"));
        let dump = std::fs::read_to_string(&written).unwrap();
        assert!(dump.contains("\"crash\""));
        let run = export::write_run(&tel, &dir, "001").unwrap();
        assert_eq!(run, dir.join("RUN_001.json"));
        let disabled = Telemetry::disabled();
        assert_eq!(disabled.flight_dump_to(&dir, "x").unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn privacy_charges_surface_as_gauges_and_accounts() {
        let tel = Telemetry::new();
        tel.privacy_charge("ldp", "client[0]", 2.0, 1e-5);
        tel.privacy_charge("ldp", "client[0]", 2.0, 1e-5);
        tel.privacy_charge_zero("sa", "client[1]");
        let accounts = tel.privacy_accounts();
        assert_eq!(accounts.len(), 2);
        assert!((accounts[0].eps_basic - 4.0).abs() < 1e-12);
        assert_eq!(accounts[1].eps_composed, 0.0);
        let gauge = tel
            .metrics()
            .into_iter()
            .find(|m| m.name == "privacy.eps.ldp.client[0]")
            .expect("charge publishes a gauge");
        match gauge.data {
            MetricData::Gauge(v) => assert!((v - 4.0).abs() < 1e-12),
            other => panic!("expected gauge, got {other:?}"),
        }
        let report = tel.privacy_report().dump();
        assert!(report.contains("\"defense\":\"ldp\""));
        assert!(report.contains("\"defense\":\"sa\""));
    }
}

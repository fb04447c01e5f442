//! The one event record, its per-thread logs, and hierarchical spans.
//!
//! Every span, deterministic counter update and
//! [`flight_record`](crate::Telemetry::flight_record) call is one [`Event`]
//! — scope, kind, name, start time, value or duration — in an enabled
//! sink's [`EventLog`]. Each recording thread appends to its own log, and a
//! thread's `tid` is its log's registration index in the sink. The span
//! list ([`EventLog::spans`], behind [`export`](crate::export)) and the
//! flight dump ([`recorder`](crate::recorder)) are views over those logs.
//!
//! A span is a named interval on the injected [`Clock`], identified by its
//! slash-separated **path** — e.g. `round[1]/client[0]/train/fwd[0:dense]`.
//! A [`SpanGuard`] pushes its path onto a thread-local stack, so spans
//! opened while it is alive (on the same thread) become its children, and
//! pushes its event when it opens; on drop it pops the stack and fills in
//! the event's duration by index. An open span is thus visible to a flight
//! dump taken inside it. Work fanned out to pool threads starts with an
//! empty stack; callers seed the lineage with
//! [`Telemetry::span_at`](crate::Telemetry::span_at).
//!
//! # Determinism
//!
//! Record *content* depends only on the program's call structure and the
//! clock — except the [`tid`](SpanRecord::tid), which tracks scheduling by
//! design. `tid` is the **last** field, so the derived sort order
//! `(path, start_us, dur_us, tid)` and the deterministic exporters (which
//! omit `tid`) are unaffected. Emission *order* follows the thread logs, so
//! exports sort first ([`crate::export::sorted_spans`]).

use crate::Clock;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanRecord {
    /// Slash-separated span path, root first.
    pub path: String,
    /// Clock reading when the span opened, in microseconds.
    pub start_us: u64,
    /// Time the span stayed open, in microseconds.
    pub dur_us: u64,
    /// Ordinal of the recording thread within this sink (0 = the first
    /// thread that recorded an event). Scheduling-dependent; used only by
    /// the trace-event exporter, never by the deterministic ones.
    pub tid: u64,
}

/// The one event record.
#[derive(Debug)]
pub(crate) struct Event {
    /// A span's own path; otherwise the innermost span path open on the
    /// recording thread ("" at top level).
    pub(crate) scope: String,
    /// [`SPAN`], `metric`, `fault`, `send`, or a caller-defined tag.
    pub(crate) kind: &'static str,
    /// Name within the kind (span leaf name, counter name, …).
    pub(crate) name: String,
    /// Clock reading when recorded (a span: when it opened), in µs.
    pub(crate) t_us: u64,
    /// Payload; a span's duration once its guard drops.
    pub(crate) value: u64,
    /// A closed span's close tick (see [`ThreadLog`]); `None` otherwise.
    pub(crate) closed: Option<u64>,
}

/// [`Event::kind`] of a span.
pub(crate) const SPAN: &str = "span";

/// One thread's events within one sink, in push order.
#[derive(Debug, Default)]
pub(crate) struct ThreadLog {
    pub(crate) events: Vec<Event>,
    /// Every push and every span close takes the next tick, so a close
    /// tick places the span's exit among the pushes.
    ticks: u64,
}

/// An enabled sink's event store: its clock and one log per thread.
#[derive(Debug)]
pub(crate) struct EventLog {
    pub(crate) clock: Arc<dyn Clock>,
    /// Registered logs; a log's index is its thread's `tid`.
    pub(crate) threads: Mutex<Vec<Arc<Mutex<ThreadLog>>>>,
}

thread_local! {
    /// Paths of the spans currently open on this thread, innermost last.
    static PATH_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };

    /// This thread's log in each sink it recorded into. Both halves are
    /// weak — the sink owns its logs — and entries of dropped sinks are
    /// pruned whenever the thread registers with a new one.
    static LOGS: RefCell<Vec<(Weak<EventLog>, Weak<Mutex<ThreadLog>>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Path of the innermost span open on this thread, if any.
pub(crate) fn current_path() -> Option<String> {
    PATH_STACK.with(|s| s.borrow().last().cloned())
}

impl EventLog {
    fn now_us(&self) -> u64 {
        u64::try_from(self.clock.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The registered logs, locked.
    pub(crate) fn threads(&self) -> MutexGuard<'_, Vec<Arc<Mutex<ThreadLog>>>> {
        self.threads.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The calling thread's log in this sink, registered on first use.
    fn thread_log(self: &Arc<Self>) -> Arc<Mutex<ThreadLog>> {
        LOGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            // A held `Weak` keeps the sink's allocation, so no later sink
            // can reuse its address while the entry exists.
            let hit = cache
                .iter()
                .find(|(sink, _)| Weak::as_ptr(sink) == Arc::as_ptr(self));
            if let Some(log) = hit.and_then(|(_, log)| log.upgrade()) {
                return log;
            }
            cache.retain(|(sink, _)| sink.strong_count() > 0);
            let log = Arc::new(Mutex::new(ThreadLog::default()));
            self.threads().push(log.clone());
            cache.push((Arc::downgrade(self), Arc::downgrade(&log)));
            log
        })
    }

    /// Appends `event` to the calling thread's log; returns that log and
    /// the event's index in it.
    fn push(self: &Arc<Self>, event: Event) -> (Arc<Mutex<ThreadLog>>, usize) {
        let log = self.thread_log();
        let mut guard = log.lock().unwrap_or_else(PoisonError::into_inner);
        guard.ticks += 1;
        guard.events.push(event);
        let index = guard.events.len() - 1;
        drop(guard);
        (log, index)
    }

    /// Records a non-span event scoped to the innermost open span.
    pub(crate) fn record(self: &Arc<Self>, kind: &'static str, name: &str, value: u64) {
        self.push(Event {
            scope: current_path().unwrap_or_default(),
            kind,
            name: name.to_string(),
            t_us: self.now_us(),
            value,
            closed: None,
        });
    }

    /// The span view: every closed span, log by log.
    pub(crate) fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = Vec::new();
        for (tid, log) in (0u64..).zip(self.threads().iter()) {
            let log = log.lock().unwrap_or_else(PoisonError::into_inner);
            for e in log.events.iter().filter(|e| e.closed.is_some()) {
                spans.push(SpanRecord {
                    path: e.scope.clone(),
                    start_us: e.t_us,
                    dur_us: e.value,
                    tid,
                });
            }
        }
        spans
    }
}

/// RAII guard for an open span; fills in its duration on drop. Obtain one
/// via [`Telemetry::span`](crate::Telemetry::span) or
/// [`Telemetry::span_at`](crate::Telemetry::span_at).
#[must_use = "a span measures nothing unless the guard is held"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

#[derive(Debug)]
struct GuardInner {
    events: Arc<EventLog>,
    /// The log holding this span's event, at `index`.
    log: Arc<Mutex<ThreadLog>>,
    index: usize,
    path: String,
    /// Stack depth before this guard pushed; drop truncates back to it, so
    /// an out-of-order drop cannot leave stale ancestors behind.
    depth: usize,
}

impl SpanGuard {
    /// A guard that records nothing (disabled telemetry).
    pub(crate) fn noop() -> Self {
        SpanGuard { inner: None }
    }

    /// Opens a span at `path` in `events`.
    pub(crate) fn begin(events: &Arc<EventLog>, path: String) -> Self {
        let depth = PATH_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.push(path.clone());
            stack.len() - 1
        });
        let (log, index) = events.push(Event {
            scope: path.clone(),
            kind: SPAN,
            name: path.rsplit('/').next().unwrap_or(&path).to_string(),
            t_us: events.now_us(),
            value: 0,
            closed: None,
        });
        SpanGuard {
            inner: Some(GuardInner {
                events: events.clone(),
                log,
                index,
                path,
                depth,
            }),
        }
    }

    /// The full path of this span (empty for a no-op guard).
    pub fn path(&self) -> &str {
        self.inner.as_ref().map_or("", |g| g.path.as_str())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(g) = self.inner.take() else {
            return;
        };
        let end_us = g.events.now_us();
        PATH_STACK.with(|s| s.borrow_mut().truncate(g.depth));
        let mut log = g.log.lock().unwrap_or_else(PoisonError::into_inner);
        let tick = log.ticks;
        log.ticks += 1;
        if let Some(event) = log.events.get_mut(g.index) {
            event.value = end_us.saturating_sub(event.t_us);
            event.closed = Some(tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ManualClock;
    use crate::Telemetry;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn nested_spans_compose_paths() {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        {
            let _outer = tel.span("round[1]");
            let _inner = tel.span("client[0]");
            let leaf = tel.span("train");
            assert_eq!(leaf.path(), "round[1]/client[0]/train");
        }
        let paths: Vec<String> = tel.spans().into_iter().map(|s| s.path).collect();
        assert!(paths.contains(&"round[1]".to_string()));
        assert!(paths.contains(&"round[1]/client[0]/train".to_string()));
    }

    #[test]
    fn manual_clock_drives_durations() {
        let clock = Arc::new(ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        {
            let _s = tel.span("work");
            clock.advance(Duration::from_micros(42));
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_us, 0);
        assert_eq!(spans[0].dur_us, 42);
    }

    #[test]
    fn span_at_seeds_lineage_on_fresh_threads() {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let t2 = tel.clone();
        std::thread::spawn(move || {
            let _c = t2.span_at("round[1]", "client[3]");
            let _t = t2.span("train");
        })
        .join()
        .unwrap();
        let mut paths: Vec<String> = tel.spans().into_iter().map(|s| s.path).collect();
        paths.sort();
        assert_eq!(
            paths,
            vec!["round[1]/client[3]", "round[1]/client[3]/train"]
        );
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let g = tel.span("ignored");
            assert_eq!(g.path(), "");
        }
        assert!(tel.spans().is_empty());
        assert!(!tel.is_enabled());
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        {
            let _outer = tel.span("round[1]");
            drop(tel.span("a"));
            drop(tel.span("b"));
        }
        let mut paths: Vec<String> = tel.spans().into_iter().map(|s| s.path).collect();
        paths.sort();
        assert_eq!(paths, vec!["round[1]", "round[1]/a", "round[1]/b"]);
    }

    #[test]
    fn tids_are_per_sink_thread_ordinals() {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        drop(tel.span("main-a"));
        drop(tel.span("main-b"));
        let t2 = tel.clone();
        std::thread::spawn(move || drop(t2.span_at("", "other")))
            .join()
            .unwrap();
        let spans = crate::export::sorted_spans(&tel);
        let tid_of = |name: &str| {
            spans
                .iter()
                .find(|s| s.path == name)
                .map(|s| s.tid)
                .unwrap()
        };
        // The first recording thread gets 0; the spawned one gets 1.
        assert_eq!(tid_of("main-a"), 0);
        assert_eq!(tid_of("main-b"), 0);
        assert_eq!(tid_of("other"), 1);
    }

    #[test]
    fn thread_log_cache_forgets_dropped_sinks() {
        let cached = || super::LOGS.with(|c| c.borrow().len());
        let keep = Telemetry::with_clock(Arc::new(ManualClock::new()));
        drop(keep.span("kept"));
        for i in 0..1000 {
            let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
            drop(tel.span("brief"));
            tel.counter_add("n", i);
        }
        // Registering with one more sink prunes every dead entry.
        let last = Telemetry::with_clock(Arc::new(ManualClock::new()));
        last.flight_record("fault", "x", 1);
        let live_sinks = 2;
        assert!(cached() <= live_sinks, "{} cached logs", cached());
        drop(keep.span("still-recorded"));
        assert_eq!(keep.spans().len(), 2);
    }
}

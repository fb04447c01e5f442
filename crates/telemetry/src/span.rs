//! Hierarchical spans with scoped RAII timers.
//!
//! A span is a named interval on the injected [`Clock`],
//! identified by its slash-separated **path** — e.g.
//! `round[1]/client[0]/train/fwd[0:dense]`. Paths nest lexically: a
//! [`SpanGuard`] pushes its path onto a thread-local stack at creation, so
//! spans opened while it is alive (on the same thread) become its children,
//! and pops it when dropped, appending a [`SpanRecord`] to the owning
//! [`Telemetry`](crate::Telemetry) sink.
//!
//! Work fanned out to pool threads starts with an empty stack; callers seed
//! the lineage explicitly with
//! [`Telemetry::span_at`](crate::Telemetry::span_at), passing the parent
//! path captured before the fan-out.
//!
//! # Determinism
//!
//! Record *content* depends only on the program's call structure and the
//! clock — except the [`tid`](SpanRecord::tid), a per-sink thread ordinal
//! recorded for the trace-event exporter, which tracks scheduling by
//! design. `tid` is the **last** field, so the derived sort order
//! `(path, start_us, dur_us, tid)` and the deterministic exporters (which
//! list fields explicitly and omit `tid`) are unaffected. Under a
//! [`ManualClock`](crate::ManualClock) that nobody advances, every record
//! is `(path, 0, 0, tid)`; emission *order* may vary with thread
//! interleaving, so exports sort first ([`crate::export::sorted_spans`]).

use crate::Clock;
use crate::recorder::FlightRecorder;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

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
    /// thread that opened a span). Scheduling-dependent; used only by the
    /// trace-event exporter, never by the deterministic ones.
    pub tid: u64,
}

thread_local! {
    /// Paths of the spans currently open on this thread, innermost last.
    static PATH_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };

    /// This thread's ordinal per telemetry sink, keyed by sink id.
    static THREAD_ORDINALS: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Path of the innermost span open on this thread, if any.
pub(crate) fn current_path() -> Option<String> {
    PATH_STACK.with(|s| s.borrow().last().cloned())
}

/// Process-unique assigner ids, never reused (unlike `Arc` addresses).
static NEXT_ASSIGNER_ID: AtomicU64 = AtomicU64::new(1);

/// Hands each recording thread a small stable ordinal within one sink —
/// the `tid` of every span that thread records.
#[derive(Debug)]
pub(crate) struct TidAssigner {
    id: u64,
    next: AtomicU64,
}

impl TidAssigner {
    pub(crate) fn new() -> Self {
        TidAssigner {
            id: NEXT_ASSIGNER_ID.fetch_add(1, Ordering::Relaxed),
            next: AtomicU64::new(0),
        }
    }

    /// The calling thread's ordinal, assigned on first use.
    pub(crate) fn current(&self) -> u64 {
        THREAD_ORDINALS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(&(_, tid)) = cache.iter().find(|(id, _)| *id == self.id) {
                return tid;
            }
            let tid = self.next.fetch_add(1, Ordering::Relaxed);
            cache.push((self.id, tid));
            tid
        })
    }
}

/// Leaf name of a slash-separated span path.
pub(crate) fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// RAII guard for an open span; records on drop. Obtain one via
/// [`Telemetry::span`](crate::Telemetry::span) or
/// [`Telemetry::span_at`](crate::Telemetry::span_at).
#[must_use = "a span measures nothing unless the guard is held"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

#[derive(Debug)]
struct GuardInner {
    sink: Arc<Mutex<Vec<SpanRecord>>>,
    clock: Arc<dyn Clock>,
    path: String,
    start_us: u64,
    tid: u64,
    /// Stack depth before this guard pushed; drop truncates back to it, so
    /// an out-of-order drop cannot leave stale ancestors behind.
    depth: usize,
    /// Armed flight recorder to notify on exit, if any.
    flight: Option<Arc<FlightRecorder>>,
}

impl SpanGuard {
    /// A guard that records nothing (disabled telemetry).
    pub(crate) fn noop() -> Self {
        SpanGuard { inner: None }
    }

    /// Opens a span at `path`, pushing it on this thread's stack.
    pub(crate) fn begin(
        sink: Arc<Mutex<Vec<SpanRecord>>>,
        clock: Arc<dyn Clock>,
        path: String,
        tid: u64,
        flight: Option<Arc<FlightRecorder>>,
    ) -> Self {
        let depth = PATH_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let depth = stack.len();
            stack.push(path.clone());
            depth
        });
        let start_us = micros(&*clock);
        if let Some(f) = &flight {
            f.record(&path, "span_enter", leaf(&path), start_us, 0);
        }
        SpanGuard {
            inner: Some(GuardInner {
                sink,
                clock,
                path,
                start_us,
                tid,
                depth,
                flight,
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
        let end_us = micros(&*g.clock);
        PATH_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let len = stack.len().min(g.depth);
            stack.truncate(len);
        });
        let record = SpanRecord {
            path: g.path,
            start_us: g.start_us,
            dur_us: end_us.saturating_sub(g.start_us),
            tid: g.tid,
        };
        if let Some(f) = &g.flight {
            f.record(
                &record.path,
                "span_exit",
                leaf(&record.path),
                end_us,
                record.dur_us,
            );
        }
        g.sink
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }
}

fn micros(clock: &dyn Clock) -> u64 {
    u64::try_from(clock.elapsed().as_micros()).unwrap_or(u64::MAX)
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
        assert_eq!(paths, vec!["round[1]/client[3]", "round[1]/client[3]/train"]);
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
}

//! The flight view: the event logs read back as a postmortem tape.
//!
//! When a threaded FL round dies mid-flight (a client panic, a missed
//! deadline, a quorum failure), the question is *what each thread was doing
//! just before*. The flight view answers it from the per-thread event logs:
//! each thread's events are replayed in recording order — a span as a
//! `span_enter` where it opened and a `span_exit` where its guard dropped
//! (none while it is still open) — and the last [`RING_CAPACITY`] are kept.
//! The dump is the sorted union as JSONL.
//!
//! # Determinism
//!
//! The dump is byte-identical across `DINAR_THREADS` widths, so the
//! postmortem itself can be regression-tested:
//!
//! 1. every event carries a `scope` (a span's path, or the innermost span
//!    open on the recording thread), so distinct work sites never collide;
//! 2. `seq` is a per-thread ordinal **per `(kind, scope, name)` tuple** —
//!    one logical event stream always runs on one thread (a client's round
//!    is one task), so the ordinals do not depend on scheduling;
//! 3. the dump sorts by the full event tuple, erasing thread identity;
//! 4. timestamps come from the sink's injectable [`Clock`](crate::Clock).
//!
//! Which events fall outside a thread's window depends on how work was
//! spread over threads, so the dropped count
//! ([`Telemetry::flight_dropped`](crate::Telemetry::flight_dropped)) is
//! scheduling-dependent.

use crate::span::{Event, EventLog, SPAN};
use dinar_tensor::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::sync::PoisonError;

/// Per-thread window: the "last N events" the view keeps of each thread.
pub const RING_CAPACITY: usize = 4096;

/// One flight event. The derived order — `(scope, kind, name, seq, t_us,
/// value)` — is the canonical dump order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlightEvent {
    /// Innermost span path open on the recording thread ("" at top level).
    pub scope: String,
    /// Event class: `span_enter`, `span_exit`, `metric`, `fault`, `send`,
    /// or a caller-defined tag.
    pub kind: &'static str,
    /// Event name within the class (span leaf name, counter name, …).
    pub name: String,
    /// Ordinal among events with this `(kind, scope, name)` on one thread.
    pub seq: u64,
    /// Clock reading when the event was recorded, in microseconds.
    pub t_us: u64,
    /// Event payload (span duration, counter delta, round number, …).
    pub value: u64,
}

/// Every thread's last [`RING_CAPACITY`] flight events in canonical sorted
/// order, and the number of older events left out.
pub(crate) fn view(events: &EventLog) -> (Vec<FlightEvent>, u64) {
    let mut out = Vec::new();
    let mut dropped = 0;
    for log in events.threads().iter() {
        let tape = tape(&log.lock().unwrap_or_else(PoisonError::into_inner).events);
        let skip = tape.len().saturating_sub(RING_CAPACITY);
        dropped += skip as u64;
        out.extend(tape.into_iter().skip(skip));
    }
    out.sort();
    (out, dropped)
}

/// One thread's log replayed in recording order: a span enters where its
/// event was pushed and exits at the tick its guard dropped.
fn tape(events: &[Event]) -> Vec<FlightEvent> {
    let mut exits: Vec<(u64, &Event)> = events
        .iter()
        .filter_map(|e| e.closed.map(|tick| (tick, e)))
        .collect();
    exits.sort_unstable_by_key(|&(tick, _)| tick);
    let mut exits = exits.into_iter().peekable();
    let exit = |e: &Event| ("span_exit", e.t_us.saturating_add(e.value), e.value);
    // Every push and every close took one tick, so the tape's length is
    // the tick of the next entry.
    let mut order = Vec::with_capacity(events.len() + exits.len());
    for e in events {
        while let Some((_, x)) = exits.next_if(|&(tick, _)| tick <= order.len() as u64) {
            order.push((x, exit(x)));
        }
        let (kind, value) = match e.kind {
            SPAN => ("span_enter", 0),
            kind => (kind, e.value),
        };
        order.push((e, (kind, e.t_us, value)));
    }
    order.extend(exits.map(|(_, x)| (x, exit(x))));
    let mut ordinals: BTreeMap<(&str, &str, &str), u64> = BTreeMap::new();
    order
        .into_iter()
        .map(|(e, (kind, t_us, value))| {
            let seq = ordinals.entry((kind, &e.scope, &e.name)).or_insert(0);
            *seq += 1;
            FlightEvent {
                scope: e.scope.clone(),
                kind,
                name: e.name.clone(),
                seq: *seq - 1,
                t_us,
                value,
            }
        })
        .collect()
}

/// `events` as JSONL, one event per line with a fixed field order —
/// byte-identical across pool widths (module docs).
pub(crate) fn jsonl(events: &[FlightEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(
            &Json::obj([
                ("scope", e.scope.to_json()),
                ("kind", e.kind.to_json()),
                ("name", e.name.to_json()),
                ("seq", e.seq.to_json()),
                ("t_us", e.t_us.to_json()),
                ("value", e.value.to_json()),
            ])
            .dump(),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{ManualClock, Telemetry};
    use std::sync::Arc;

    use super::RING_CAPACITY;

    fn sink() -> Telemetry {
        Telemetry::with_clock(Arc::new(ManualClock::new()))
    }

    #[test]
    fn ordinals_count_per_tuple() {
        let tel = sink();
        {
            let _r = tel.span("round[1]");
            tel.flight_record("metric", "steps", 1);
            tel.flight_record("metric", "steps", 2);
        }
        {
            let _r = tel.span("round[2]");
            tel.flight_record("metric", "steps", 3);
        }
        let steps: Vec<_> = tel
            .flight_events()
            .into_iter()
            .filter(|e| e.name == "steps")
            .collect();
        assert_eq!(steps.len(), 3);
        assert_eq!((steps[0].seq, steps[0].value), (0, 1));
        assert_eq!((steps[1].seq, steps[1].value), (1, 2));
        // Different scope restarts the ordinal stream.
        assert_eq!((steps[2].seq, steps[2].value), (0, 3));
    }

    #[test]
    fn dump_is_sorted_and_stable() {
        let tel = sink();
        {
            let _b = tel.span("b");
            tel.flight_record("fault", "crash", 2);
        }
        tel.flight_record("send", "client[0]", 1);
        let dump = tel.flight_dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"scope":"","kind":"send","name":"client[0]","seq":0,"t_us":0,"value":1}"#,
                r#"{"scope":"b","kind":"fault","name":"crash","seq":0,"t_us":0,"value":2}"#,
                r#"{"scope":"b","kind":"span_enter","name":"b","seq":0,"t_us":0,"value":0}"#,
                r#"{"scope":"b","kind":"span_exit","name":"b","seq":0,"t_us":0,"value":0}"#,
            ],
            "{dump}"
        );
    }

    #[test]
    fn ring_is_bounded() {
        let tel = sink();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            tel.flight_record("metric", "tick", i);
        }
        let events = tel.flight_events();
        assert_eq!(events.len(), RING_CAPACITY);
        // The oldest 10 fell off the front, and are counted.
        assert_eq!(events[0].seq, 10);
        assert_eq!(tel.flight_dropped(), 10);
    }

    #[test]
    fn window_keeps_the_exits_of_long_spans() {
        let tel = sink();
        {
            let _r = tel.span("round[1]");
            for i in 0..RING_CAPACITY as u64 {
                tel.flight_record("metric", "tick", i);
            }
        }
        // The enter and the first tick fell out; the exit, recorded last,
        // is in the window.
        let events = tel.flight_events();
        assert_eq!(tel.flight_dropped(), 2);
        assert!(events.iter().any(|e| e.kind == "span_exit"));
        assert!(events.iter().all(|e| e.kind != "span_enter"));
    }

    #[test]
    fn open_span_dumps_its_enter_and_no_exit() {
        let tel = sink();
        let _round = tel.span("round[1]");
        drop(tel.span("train"));
        tel.flight_record("fault", "quorum_failed", 1);
        let dump = tel.flight_dump_jsonl();
        assert!(dump.contains(r#""scope":"round[1]","kind":"span_enter","name":"round[1]""#));
        assert!(
            !dump.contains(r#""scope":"round[1]","kind":"span_exit""#),
            "{dump}"
        );
        assert!(dump.contains(r#""scope":"round[1]/train","kind":"span_exit""#));
        assert!(dump.contains(r#""scope":"round[1]","kind":"fault""#));
    }

    #[test]
    fn rings_from_many_threads_merge_into_one_dump() {
        let tel = sink();
        // lint: allow(L006, dedicated test threads exercise per-thread logs)
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let tel = tel.clone();
                s.spawn(move || {
                    let _c = tel.span_at("", &format!("client[{t}]"));
                    tel.flight_record("send", "update", t);
                });
            }
        });
        let sends: Vec<_> = tel
            .flight_events()
            .into_iter()
            .filter(|e| e.kind == "send")
            .collect();
        assert_eq!(sends.len(), 3);
        assert_eq!(sends[0].scope, "client[0]");
        assert_eq!(sends[2].scope, "client[2]");
    }
}

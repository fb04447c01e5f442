//! Profile emission: JSONL, summary trees, coverage, the Perfetto trace
//! and the one report of an observed run ([`run_document`]).
//!
//! All emitters consume a [`Telemetry`] handle and are pure functions of
//! its state. Spans are sorted by `(path, start_us, dur_us)` before
//! emission, and metrics come out of the registry in name order, so two
//! runs with the same call structure and clock produce byte-identical
//! output — the contract `tests/telemetry_snapshot.rs` pins against a
//! golden file. The deterministic mode (`include_volatile = false`) also
//! drops every metric tagged volatile (pool fan-out, alloc high-water
//! marks), which legitimately vary with `DINAR_THREADS`.

use crate::recorder;
use crate::registry::{MetricData, MetricValue};
use crate::span::SpanRecord;
use crate::Telemetry;
use dinar_tensor::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// All completed spans sorted by `(path, start_us, dur_us)` — the
/// canonical order for cross-run comparison.
pub fn sorted_spans(tel: &Telemetry) -> Vec<SpanRecord> {
    let mut spans = tel.spans();
    spans.sort();
    spans
}

/// One JSON line per span, then one per metric.
///
/// Span lines look like
/// `{"kind":"span","path":"round[1]/train","start_us":0,"dur_us":42}`;
/// metric lines carry `kind` `counter` / `gauge` / `histogram` plus the
/// payload. With `include_volatile = false` the output is deterministic
/// (see module docs); with `true` it additionally reports the volatile
/// metrics, each tagged `"volatile":true`.
pub fn export_jsonl(tel: &Telemetry, include_volatile: bool) -> String {
    let mut lines = Vec::new();
    for span in sorted_spans(tel) {
        lines.push(
            Json::obj([
                ("kind", "span".to_json()),
                ("path", span.path.to_json()),
                ("start_us", span.start_us.to_json()),
                ("dur_us", span.dur_us.to_json()),
            ])
            .dump(),
        );
    }
    for metric in tel.metrics() {
        if metric.volatile && !include_volatile {
            continue;
        }
        lines.push(metric_line(&metric).dump());
    }
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

fn metric_line(metric: &MetricValue) -> Json {
    let mut pairs = vec![(
        "kind",
        match metric.data {
            MetricData::Counter(_) => "counter",
            MetricData::Gauge(_) => "gauge",
            MetricData::Histogram { .. } => "histogram",
        }
        .to_json(),
    )];
    pairs.push(("name", metric.name.to_json()));
    match &metric.data {
        MetricData::Counter(v) => pairs.push(("value", v.to_json())),
        MetricData::Gauge(v) => pairs.push(("value", v.to_json())),
        MetricData::Histogram {
            lo,
            hi,
            counts,
            total,
        } => {
            pairs.push(("lo", lo.to_json()));
            pairs.push(("hi", hi.to_json()));
            pairs.push(("total", total.to_json()));
            pairs.push(("counts", counts.to_json()));
        }
    }
    if metric.volatile {
        pairs.push(("volatile", true.to_json()));
    }
    Json::obj(pairs)
}

/// Per-path `(calls, total_us)` aggregate of the span list.
fn stats_by_path(tel: &Telemetry) -> BTreeMap<String, (u64, u64)> {
    let mut stats: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for span in tel.spans() {
        let (calls, total_us) = stats.entry(span.path).or_default();
        *calls += 1;
        *total_us = total_us.saturating_add(span.dur_us);
    }
    stats
}

/// A human-readable tree: one line per distinct span path in
/// lexicographic order, indented by depth, with call count and total
/// microseconds.
pub fn summary_tree(tel: &Telemetry) -> String {
    let mut out = String::new();
    for (path, (calls, total_us)) in stats_by_path(tel) {
        let depth = path.matches('/').count();
        let name = path.rsplit('/').next().unwrap_or(&path);
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!("{name}  calls={calls} total_us={total_us}\n"));
    }
    out
}

/// Fraction of root-span wall time covered by direct child spans, in
/// `[0, 1]`.
///
/// For each root path (no `/`), the durations of its direct children are
/// summed and clamped to the root's own total (concurrent children can
/// overlap, summing past it); the coverage is the ratio of the clamped
/// sums to the root totals. Returns 1.0 when there is no root time to
/// cover (e.g. a never-advanced [`ManualClock`](crate::ManualClock)).
pub fn span_coverage(tel: &Telemetry) -> f64 {
    let stats = stats_by_path(tel);
    let mut root_total = 0u64;
    let mut covered = 0u64;
    for (path, &(_, total_us)) in &stats {
        if path.contains('/') {
            continue;
        }
        root_total += total_us;
        let prefix = format!("{path}/");
        let child_sum: u64 = stats
            .iter()
            .filter(|(p, _)| p.starts_with(&prefix) && !p[prefix.len()..].contains('/'))
            .map(|(_, &(_, child_us))| child_us)
            .sum();
        covered += child_sum.min(total_us);
    }
    if root_total == 0 {
        return 1.0;
    }
    covered as f64 / root_total as f64
}

/// The process id a span belongs to in the trace-event export: the index
/// of the first `client[i]` segment on its path, or 0 for server/system
/// work. Groups every per-client track under one process row in the
/// Perfetto UI.
fn trace_pid(path: &str) -> u64 {
    for segment in path.split('/') {
        if let Some(idx) = segment
            .strip_prefix("client[")
            .and_then(|rest| rest.strip_suffix(']'))
        {
            if let Ok(pid) = idx.parse::<u64>() {
                // Client ids start a 1-based pid space; 0 stays the server.
                return pid + 1;
            }
        }
    }
    0
}

/// Chrome/Perfetto trace-event JSON over the completed spans: every span
/// becomes a `ph:"B"` / `ph:"E"` pair with `ts`/`dur` in microseconds,
/// `pid` derived from the span's `client[i]` path segment (0 = server)
/// and `tid` the recording thread's per-sink ordinal. Open the output in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Pairs are emitted adjacently in sorted-span order with a fixed field
/// order, so for a deterministic program under a
/// [`ManualClock`](crate::ManualClock) at pool width 1 the output is
/// byte-stable (the golden-snapshot contract); at wider pools `tid`
/// legitimately tracks scheduling.
pub fn trace_events(tel: &Telemetry) -> String {
    Json::obj(trace_fields(tel)).dump()
}

/// The two fields of the trace-event object format: `traceEvents` and
/// `displayTimeUnit`.
fn trace_fields(tel: &Telemetry) -> [(&'static str, Json); 2] {
    let mut events = Vec::new();
    for span in sorted_spans(tel) {
        let name = span.path.rsplit('/').next().unwrap_or(&span.path);
        let pid = trace_pid(&span.path);
        let common = [
            ("name", name.to_json()),
            ("cat", "span".to_json()),
            ("pid", pid.to_json()),
            ("tid", span.tid.to_json()),
        ];
        let mut begin = common.to_vec();
        begin.push(("ph", "B".to_json()));
        begin.push(("ts", span.start_us.to_json()));
        begin.push(("args", Json::obj([("path", span.path.to_json())])));
        events.push(Json::obj(begin));
        let mut end = common.to_vec();
        end.push(("ph", "E".to_json()));
        end.push(("ts", (span.start_us + span.dur_us).to_json()));
        events.push(Json::obj(end));
    }
    [
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ms".to_json()),
    ]
}

/// The one report of an observed run: the [`trace_events`] object (so
/// Perfetto and `chrome://tracing` open the document as-is; spans appear
/// once, as the `B`/`E` pairs, each `B` carrying the full path in `args`)
/// with the rest of the sink beside it —
///
/// * `metrics`: every metric in the [`export_jsonl`] line shape, volatile
///   ones tagged `"volatile":true`;
/// * `summary_tree` and `span_coverage`: [`summary_tree`] and
///   [`span_coverage`];
/// * `privacy`: the ledger report ([`Telemetry::privacy_report`]);
/// * `flight` and `flight_dropped`: the flight view
///   ([`Telemetry::flight_events`], [`Telemetry::flight_dropped`]).
///
/// Unlike the other emitters it is not deterministic as a whole: the
/// volatile metrics and `flight_dropped` track scheduling.
pub fn run_document(tel: &Telemetry) -> Json {
    let (flight, flight_dropped) = tel.events().map_or_else(Default::default, recorder::view);
    let mut fields = Vec::from(trace_fields(tel));
    fields.extend([
        (
            "metrics",
            Json::Arr(tel.metrics().iter().map(metric_line).collect()),
        ),
        ("summary_tree", summary_tree(tel).to_json()),
        ("span_coverage", span_coverage(tel).to_json()),
        ("privacy", tel.privacy_report()),
        ("flight", flight.to_json()),
        ("flight_dropped", flight_dropped.to_json()),
    ]);
    Json::obj(fields)
}

/// Writes [`run_document`] to `<dir>/RUN_<id>.json`, creating `dir`.
/// Returns the path written; an IO failure comes back as the error, for
/// the caller to report and carry on — an exporter never fails the run it
/// observed.
pub fn write_run(tel: &Telemetry, dir: &Path, id: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("RUN_{id}.json"));
    std::fs::write(&path, run_document(tel).dump())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;
    use std::sync::Arc;
    use std::time::Duration;

    fn manual() -> (Arc<ManualClock>, Telemetry) {
        let clock = Arc::new(ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        (clock, tel)
    }

    #[test]
    fn jsonl_is_sorted_and_parseable() {
        let (_, tel) = manual();
        drop(tel.span("b"));
        drop(tel.span("a"));
        tel.counter_add("z.counter", 3);
        tel.gauge_max_volatile("a.volatile", 9.0);
        let text = export_jsonl(&tel, false);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "volatile gauge must be filtered:\n{text}");
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("kind").and_then(Json::as_str), Some("span"));
        assert_eq!(first.get("path").and_then(Json::as_str), Some("a"));
        let last = Json::parse(lines[2]).unwrap();
        assert_eq!(last.get("name").and_then(Json::as_str), Some("z.counter"));
        assert_eq!(last.get("value").and_then(Json::as_u64), Some(3));
        let with_volatile = export_jsonl(&tel, true);
        assert_eq!(with_volatile.lines().count(), 4);
        assert!(with_volatile.contains("\"volatile\":true"));
    }

    #[test]
    fn summary_tree_indents_by_depth() {
        let (clock, tel) = manual();
        {
            let _r = tel.span("round[1]");
            let _c = tel.span("client[0]");
            clock.advance(Duration::from_micros(5));
        }
        let tree = summary_tree(&tel);
        assert!(tree.contains("round[1]  calls=1 total_us=5"));
        assert!(tree.contains("  client[0]  calls=1 total_us=5"));
    }

    #[test]
    fn coverage_counts_direct_children_only() {
        let (clock, tel) = manual();
        {
            let _root = tel.span("run");
            {
                let _a = tel.span("a");
                {
                    // Grandchild: contributes to a's coverage, not run's.
                    let _leaf = tel.span("leaf");
                    clock.advance(Duration::from_micros(60));
                }
            }
            {
                let _b = tel.span("b");
                clock.advance(Duration::from_micros(30));
            }
            clock.advance(Duration::from_micros(10));
        }
        // run = 100us, direct children a (60) + b (30) = 90.
        let cov = span_coverage(&tel);
        assert!((cov - 0.9).abs() < 1e-9, "coverage {cov}");
    }

    #[test]
    fn coverage_clamps_overlapping_children_and_handles_zero_time() {
        let (_, tel) = manual();
        drop(tel.span("idle"));
        assert_eq!(span_coverage(&tel), 1.0);
        // Two "concurrent" children each as long as the root.
        let clock = Arc::new(ManualClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        {
            let _root = tel.span("r");
            let a = tel.span_at("r", "a");
            let b = tel.span_at("r", "b");
            clock.advance(Duration::from_micros(50));
            drop(a);
            drop(b);
        }
        assert!(span_coverage(&tel) <= 1.0);
    }

    #[test]
    fn empty_telemetry_exports_empty_string() {
        assert_eq!(export_jsonl(&Telemetry::disabled(), true), "");
        assert_eq!(summary_tree(&Telemetry::disabled()), "");
    }

    #[test]
    fn trace_pid_reads_the_client_segment() {
        assert_eq!(trace_pid("round[1]/client[3]/train"), 4);
        assert_eq!(trace_pid("round[1]/aggregate"), 0);
        assert_eq!(trace_pid("client[0]"), 1);
        assert_eq!(trace_pid("round[1]/client[x]/train"), 0);
    }

    #[test]
    fn trace_events_emit_paired_b_e() {
        let (clock, tel) = manual();
        {
            let _r = tel.span("round[1]");
            {
                let _c = tel.span("client[2]");
                clock.advance(Duration::from_micros(10));
            }
            clock.advance(Duration::from_micros(5));
        }
        let text = trace_events(&tel);
        let json = Json::parse(&text).expect("trace JSON parses");
        let events = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), 4, "two spans, one B/E pair each");
        // Sorted-span order: round[1] first, then round[1]/client[2].
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("round[1]")
        );
        assert_eq!(events[0].get("pid").and_then(Json::as_u64), Some(0));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("E"));
        assert_eq!(events[1].get("ts").and_then(Json::as_u64), Some(15));
        assert_eq!(
            events[2].get("name").and_then(Json::as_str),
            Some("client[2]")
        );
        assert_eq!(events[2].get("pid").and_then(Json::as_u64), Some(3));
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("path"))
                .and_then(Json::as_str),
            Some("round[1]/client[2]")
        );
        // All on one thread under width-1 style execution: tid 0.
        assert_eq!(events[0].get("tid").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn run_document_sets_the_sections_beside_the_trace() {
        let (clock, tel) = manual();
        {
            let _r = tel.span("round[1]");
            tel.counter_add("fl.rounds", 1);
            tel.gauge_max_volatile("pool.width", 2.0);
            tel.privacy_charge("ldp", "client[0]", 0.5, 1e-5);
            clock.advance(Duration::from_micros(8));
        }
        let doc = run_document(&tel);
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "traceEvents",
                "displayTimeUnit",
                "metrics",
                "summary_tree",
                "span_coverage",
                "privacy",
                "flight",
                "flight_dropped"
            ]
        );
        let trace = Json::parse(&trace_events(&tel)).unwrap();
        assert_eq!(doc.get("traceEvents"), trace.get("traceEvents"));
        let metrics = doc.get("metrics").and_then(Json::as_arr).unwrap();
        assert_eq!(metrics.len(), tel.metrics().len());
        assert!(metrics
            .iter()
            .any(|m| m.get("volatile").and_then(Json::as_bool) == Some(true)));
        assert_eq!(doc.get("privacy"), Some(&tel.privacy_report()));
        assert_eq!(
            doc.get("flight").and_then(Json::as_arr).map(<[Json]>::len),
            Some(tel.flight_events().len())
        );
        assert_eq!(doc.get("flight_dropped").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn trace_events_of_empty_telemetry_is_valid_json() {
        let text = trace_events(&Telemetry::disabled());
        let json = Json::parse(&text).expect("parses");
        assert_eq!(
            json.get("traceEvents")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(0)
        );
    }
}

//! Benchmark-owned spans around calls into the layers.
//!
//! Nothing under `crates/` is instrumented for this: the benchmark drives a
//! round step by step and wraps every public call it makes in
//! [`Tracer::span`]. Spans stay in memory and are written out once, when the
//! pass ends.

use dinar_tensor::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fl.train_local`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The round (or cell repetition) every span of one request shares.
    pub round: usize,
}

/// In-memory span recorder for a single-threaded driver.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the span that is
    /// open on this tracer, and returns `f`'s result with the span's duration
    /// in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        round: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans[id].end = end;
        (out, end - start)
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as written to `results/trace_<workload>.json`.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::Str(s.name.to_string())),
                    ("round", Json::Num(s.round as f64)),
                    ("start_s", Json::Num(s.start)),
                    ("end_s", Json::Num(s.end)),
                ])
            })
            .collect();
        let self_time = self_times(&self.spans, None)
            .into_iter()
            .map(|(name, s)| (name, Json::Num(s)))
            .collect::<Vec<_>>();
        Json::obj(vec![
            ("self_time_s", Json::obj(self_time)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Total self time per span name: each span's duration minus the part of its
/// interval that its direct children cover. Children may overlap each other
/// (their union is subtracted once) and are clipped to the parent. With
/// `round` given, only that round's spans are totalled.
pub fn self_times(spans: &[Span], round: Option<usize>) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    let mut totals = BTreeMap::new();
    for (s, mut kids) in spans.iter().zip(children) {
        if round.is_some_and(|r| r != s.round) {
            continue;
        }
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (lo, hi) in kids {
            if hi > reach {
                covered += hi - lo.max(reach);
                reach = hi;
            }
        }
        *totals.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("round", 0.0, 10.0, None),
            span("train", 1.0, 5.0, Some(0)),
            span("train", 4.0, 7.0, Some(0)), // overlaps the first by 1 s
            span("agg", 8.0, 12.0, Some(0)),  // clipped to the parent's end
            span("kernel", 2.0, 3.0, Some(1)),
        ];
        let t = self_times(&spans, None);
        // Children cover [1,7] and [8,10]: 8 s of the round's 10.
        assert!((t["round"] - 2.0).abs() < 1e-12);
        // 4 s + 3 s of train, minus the 1 s kernel inside the first.
        assert!((t["train"] - 6.0).abs() < 1e-12);
        assert!((t["agg"] - 4.0).abs() < 1e-12);
        assert!((t["kernel"] - 1.0).abs() < 1e-12);
        assert!(self_times(&spans, Some(2)).is_empty());
        assert_eq!(self_times(&spans, Some(1)), t);
    }

    #[test]
    fn tracer_nests_spans_and_reports_durations() {
        let mut tracer = Tracer::new();
        let ((), outer) = tracer.span("outer", 3, |t| {
            t.span("inner", 3, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].round, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!((outer - (spans[0].end - spans[0].start)).abs() < 1e-12);
    }
}

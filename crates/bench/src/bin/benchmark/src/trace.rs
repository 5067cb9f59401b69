//! Host-time spans recorded from the benchmark's own calls into each
//! layer, and their export as a Chrome trace.
//!
//! Spans live in memory while a workload runs and travel to the parent
//! process inside the workload's result; the parent writes one trace for
//! every workload it ran.

use std::time::Instant;

use shrimp_sim::json::Value;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.map`.
    pub name: String,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall nanoseconds between start and end.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handle to an open span; inert when the recorder is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle of no span: children opened under it are roots.
    pub const ROOT: SpanId = SpanId(None);
}

/// An in-memory span recorder. When off it never reads the clock.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    /// Recorded spans, in open order.
    pub list: Vec<Span>,
}

impl Spans {
    /// Creates a recorder; `on = false` makes every call inert.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.list.push(Span {
            name: name.to_string(),
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(self.list.len() - 1))
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.list[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Per-span self time: the span's duration minus the part of it its
/// children cover (children of one span never overlap, since the
/// benchmark is single-threaded).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Mean wall microseconds of the spans named `name`; `None` if none ran.
pub fn mean_us(spans: &[Span], name: &str) -> Option<f64> {
    let durs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    (!durs.is_empty()).then(|| durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e3)
}

/// Total wall nanoseconds of the spans named `name`; `None` if none ran.
pub fn total_ns(spans: &[Span], name: &str) -> Option<u64> {
    let mut it = spans.iter().filter(|s| s.name == name).peekable();
    it.peek()?;
    Some(it.map(Span::dur_ns).sum())
}

/// Serializes spans as `[name, parent, start_ns, end_ns]` rows.
pub fn to_value(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Array(vec![
                    Value::Str(s.name.clone()),
                    s.parent.map_or(Value::Null, |p| Value::Uint(p as u64)),
                    Value::Uint(s.start_ns),
                    Value::Uint(s.end_ns),
                ])
            })
            .collect(),
    )
}

/// Parses rows written by [`to_value`].
pub fn from_value(v: &Value) -> Option<Vec<Span>> {
    v.as_array()?
        .iter()
        .map(|row| {
            Some(Span {
                name: row.index(0)?.as_str()?.to_string(),
                parent: match row.index(1)? {
                    Value::Null => None,
                    p => Some(p.as_u64()? as usize),
                },
                start_ns: row.index(2)?.as_u64()?,
                end_ns: row.index(3)?.as_u64()?,
            })
        })
        .collect()
}

/// Builds a Chrome trace with one process per workload. Each workload's
/// spans are shifted to start where the previous workload's ended, so
/// the timeline reads in run order. Every span becomes a complete
/// (`ph:"X"`) event whose args carry its parent, the shared workload id
/// and its self time.
pub fn chrome_json(workloads: &[(String, Vec<Span>)]) -> String {
    let mut events: Vec<(u64, u64, Value)> = Vec::new();
    let mut meta = Vec::new();
    let mut offset_ns = 0u64;
    for (pid, (name, spans)) in workloads.iter().enumerate() {
        let pid = pid as u64;
        meta.push(Value::Object(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("ts".into(), Value::Uint(0)),
            ("pid".into(), Value::Uint(pid)),
            ("tid".into(), Value::Uint(0)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str(name.clone()))]),
            ),
        ]));
        let base = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let own = self_ns(spans);
        for (i, s) in spans.iter().enumerate() {
            let start = offset_ns + (s.start_ns - base);
            let args = vec![
                ("workload".into(), Value::Str(name.clone())),
                ("span".into(), Value::Uint(i as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Uint(p as u64)),
                ),
                ("self_us".into(), Value::Float(own[i] as f64 / 1e3)),
            ];
            let ev = Value::Object(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(start as f64 / 1e3)),
                ("dur".into(), Value::Float(s.dur_ns() as f64 / 1e3)),
                ("pid".into(), Value::Uint(pid)),
                ("tid".into(), Value::Uint(0)),
                ("args".into(), Value::Object(args)),
            ]);
            events.push((start, s.dur_ns(), ev));
        }
        let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(base);
        offset_ns += end - base;
    }
    // Start order, enclosing span first at equal starts.
    events.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    meta.extend(events.into_iter().map(|(_, _, v)| v));
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(meta)),
        ("displayTimeUnit".into(), Value::Str("ns".into())),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("workload", None, 0, 100),
            span("setup", Some(0), 10, 40),
            span("core.map", Some(1), 15, 25),
            span("rep", Some(0), 50, 90),
        ];
        assert_eq!(self_ns(&spans), vec![30, 20, 10, 40]);
        assert_eq!(mean_us(&spans, "core.map"), Some(0.01));
        assert_eq!(total_ns(&spans, "rep"), Some(40));
        assert_eq!(total_ns(&spans, "missing"), None);
    }

    #[test]
    fn spans_round_trip_and_export_validates() {
        let mut rec = Spans::new(true);
        let w = rec.open("workload", SpanId::ROOT);
        let s = rec.open("setup", w);
        rec.time("core.map", s, || ());
        rec.close(s);
        rec.close(w);
        let back = from_value(&Value::parse(&to_value(&rec.list).to_json()).unwrap()).unwrap();
        assert_eq!(back, rec.list);
        let text = chrome_json(&[("a".into(), back.clone()), ("b".into(), back)]);
        assert_eq!(shrimp_sim::validate_chrome_json(&text), Ok(6));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Spans::new(false);
        let w = rec.open("workload", SpanId::ROOT);
        rec.time("core.map", w, || ());
        rec.close(w);
        assert!(rec.list.is_empty());
    }
}

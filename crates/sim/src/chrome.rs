//! Chrome trace-event (Perfetto / `chrome://tracing`) exporter.
//!
//! Converts a stream of typed [`TraceEvent`]s into the Chrome
//! trace-event JSON format: duration events (`ph:"B"`/`"E"`) for spans
//! with distinct begin/end trace points (FIFO backpressure episodes,
//! incoming DMA bursts) and instant events (`ph:"i"`) for everything
//! else, grouped into one process per node with named per-component
//! tracks. Timestamps are microseconds (the format's unit), derived
//! from the picosecond [`SimTime`]s.
//!
//! Guarantees: output `traceEvents` are sorted by non-decreasing `ts`
//! (stable, so same-instant events keep emission order), and every `B`
//! has a matching later `E` on the same `(pid, tid)` track — a span
//! still open when the trace ends is dropped rather than emitted
//! unmatched.

use crate::json::Value;
use crate::time::SimTime;
use crate::trace::{TraceData, TraceEvent};

/// Track ids within one process (= one node) in the exported trace.
const TID_PACKETS: u64 = 0;
const TID_FIFO_OUT: u64 = 1;
const TID_FIFO_IN: u64 = 2;
const TID_DMA: u64 = 3;
const TID_RETX: u64 = 4;
const TID_ENGINE: u64 = 5;

fn tid_name(tid: u64) -> &'static str {
    match tid {
        TID_FIFO_OUT => "fifo.out",
        TID_FIFO_IN => "fifo.in",
        TID_DMA => "dma",
        TID_RETX => "retx",
        TID_ENGINE => "engine.profile",
        _ => "packets",
    }
}

fn ts_us(t: SimTime) -> f64 {
    t.as_picos() as f64 / 1e6
}

struct Entry {
    pid: u64,
    tid: u64,
    ph: char,
    name: String,
    ts: f64,
    args: Vec<(String, Value)>,
}

fn classify(event: &TraceEvent) -> Entry {
    let pid = event.component.index.map(|i| i as u64 + 1).unwrap_or(0);
    let arg_u = |k: &str, v: u64| (k.to_string(), Value::Uint(v));
    match &event.data {
        TraceData::FifoThreshold {
            fifo,
            raised,
            occupancy,
        } => Entry {
            pid,
            tid: if *fifo == "in" { TID_FIFO_IN } else { TID_FIFO_OUT },
            ph: if *raised { 'B' } else { 'E' },
            name: format!("{fifo}FIFO backpressure"),
            ts: ts_us(event.time),
            args: vec![arg_u("occupancy_bytes", *occupancy)],
        },
        TraceData::DmaStart { node, bytes } => Entry {
            pid,
            tid: TID_DMA,
            ph: 'B',
            name: "dma burst".into(),
            ts: ts_us(event.time),
            args: vec![arg_u("node", *node as u64), arg_u("bytes", *bytes as u64)],
        },
        TraceData::DmaEnd { node, bytes } => Entry {
            pid,
            tid: TID_DMA,
            ph: 'E',
            name: "dma burst".into(),
            ts: ts_us(event.time),
            args: vec![arg_u("node", *node as u64), arg_u("bytes", *bytes as u64)],
        },
        TraceData::RetxTimeout { .. } | TraceData::Retransmit { .. } => Entry {
            pid,
            tid: TID_RETX,
            ph: 'i',
            name: event.data.to_string(),
            ts: ts_us(event.time),
            args: Vec::new(),
        },
        data => Entry {
            pid,
            tid: TID_PACKETS,
            ph: 'i',
            name: data.to_string(),
            ts: ts_us(event.time),
            args: Vec::new(),
        },
    }
}

/// One sample on a Perfetto counter track (`ph:"C"`), rendered as a
/// stacked-area series on the machine process's `engine.profile` track.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Counter/series name (e.g. `engine.profile.commit_ms`).
    pub name: String,
    /// Sample timestamp in trace microseconds.
    pub ts_us: f64,
    /// Sample value.
    pub value: f64,
}

/// Serializes `events` (any order; sorted internally) into a Chrome
/// trace-event JSON document, interleaving `counters` as `ph:"C"`
/// samples on the machine process's engine-profile track. Counter
/// samples do not participate in span matching.
pub fn to_chrome_json_with_counters(events: &[TraceEvent], counters: &[CounterSample]) -> String {
    let mut entries: Vec<Entry> = events.iter().map(classify).collect();
    entries.extend(counters.iter().map(|c| Entry {
        pid: 0,
        tid: TID_ENGINE,
        ph: 'C',
        name: c.name.clone(),
        ts: c.ts_us,
        args: vec![("value".to_string(), Value::Float(c.value))],
    }));
    entries.sort_by(|a, b| a.ts.total_cmp(&b.ts));

    // Enforce matched B/E per (pid, tid): drop E with no open B (a
    // threshold already raised when tracing started) and B left open at
    // the end of the trace.
    let mut open: Vec<(u64, u64, usize)> = Vec::new();
    let mut keep = vec![true; entries.len()];
    for (i, e) in entries.iter().enumerate() {
        match e.ph {
            'B' => open.push((e.pid, e.tid, i)),
            'E' => {
                if let Some(pos) = open.iter().rposition(|&(p, t, _)| p == e.pid && t == e.tid) {
                    open.remove(pos);
                } else {
                    keep[i] = false;
                }
            }
            _ => {}
        }
    }
    for (_, _, i) in open {
        keep[i] = false;
    }

    let mut out: Vec<Value> = Vec::new();
    let mut seen: Vec<(u64, u64)> = Vec::new();
    for e in entries.iter() {
        if !seen.contains(&(e.pid, e.tid)) {
            seen.push((e.pid, e.tid));
        }
    }
    seen.sort_unstable();
    let mut named_pids: Vec<u64> = Vec::new();
    for &(pid, tid) in &seen {
        if !named_pids.contains(&pid) {
            named_pids.push(pid);
            out.push(metadata(pid, 0, "process_name", process_name(pid)));
        }
        out.push(metadata(pid, tid, "thread_name", tid_name(tid).into()));
    }

    for (e, keep) in entries.into_iter().zip(keep) {
        if !keep {
            continue;
        }
        let mut fields = vec![
            ("name".into(), Value::Str(e.name)),
            ("ph".into(), Value::Str(e.ph.to_string())),
            ("ts".into(), Value::Float(e.ts)),
            ("pid".into(), Value::Uint(e.pid)),
            ("tid".into(), Value::Uint(e.tid)),
        ];
        if e.ph == 'i' {
            fields.push(("s".into(), Value::Str("t".into())));
        }
        if !e.args.is_empty() {
            fields.push(("args".into(), Value::Object(e.args)));
        }
        out.push(Value::Object(fields));
    }

    Value::Object(vec![
        ("traceEvents".into(), Value::Array(out)),
        ("displayTimeUnit".into(), Value::Str("ns".into())),
    ])
    .to_json()
}

fn process_name(pid: u64) -> String {
    if pid == 0 {
        "machine".into()
    } else {
        format!("node{}", pid - 1)
    }
}

fn metadata(pid: u64, tid: u64, name: &str, value: String) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(name.into())),
        ("ph".into(), Value::Str("M".into())),
        ("ts".into(), Value::Uint(0)),
        ("pid".into(), Value::Uint(pid)),
        ("tid".into(), Value::Uint(tid)),
        (
            "args".into(),
            Value::Object(vec![("name".into(), Value::Str(value))]),
        ),
    ])
}

/// Checks a Chrome trace document for the invariants the exporter
/// promises: well-formed JSON, non-decreasing `ts` over non-metadata
/// events, and strictly matched `B`/`E` pairs per `(pid, tid)`.
/// Returns the number of non-metadata events on success.
pub fn validate_chrome_json(text: &str) -> Result<usize, String> {
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    let mut last_ts = f64::NEG_INFINITY;
    let mut open: Vec<(u64, u64)> = Vec::new();
    let mut counted = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        counted += 1;
        let ts = e
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if ts < last_ts {
            return Err(format!("event {i}: ts {ts} < previous {last_ts}"));
        }
        last_ts = ts;
        let pid = e.get("pid").and_then(Value::as_u64).unwrap_or(0);
        let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
        match ph {
            "B" => open.push((pid, tid)),
            "E" => {
                let pos = open
                    .iter()
                    .rposition(|&t| t == (pid, tid))
                    .ok_or_else(|| format!("event {i}: E without B on ({pid},{tid})"))?;
                open.remove(pos);
            }
            _ => {}
        }
    }
    if !open.is_empty() {
        return Err(format!("{} B event(s) left unclosed: {open:?}", open.len()));
    }
    Ok(counted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ComponentId;

    fn ev(ps: u64, component: ComponentId, data: TraceData) -> TraceEvent {
        TraceEvent {
            time: SimTime::ZERO + crate::SimDuration::from_picos(ps),
            component,
            data,
        }
    }

    #[test]
    fn export_sorts_and_validates() {
        let events = vec![
            ev(
                5_000_000,
                ComponentId::nic(1),
                TraceData::DmaEnd { node: 1, bytes: 64 },
            ),
            ev(
                1_000_000,
                ComponentId::nic(0),
                TraceData::PacketInjected {
                    src: 0,
                    dst: 1,
                    bytes: 22,
                    seq: None,
                },
            ),
            ev(
                2_000_000,
                ComponentId::nic(1),
                TraceData::DmaStart { node: 1, bytes: 64 },
            ),
        ];
        let text = to_chrome_json_with_counters(&events, &[]);
        let n = validate_chrome_json(&text).expect("exporter output must validate");
        assert_eq!(n, 3);
    }

    #[test]
    fn unmatched_spans_are_dropped() {
        // A clear with no raise, and a raise never cleared: both must
        // vanish so the output still validates.
        let events = vec![
            ev(
                1_000,
                ComponentId::nic(0),
                TraceData::FifoThreshold {
                    fifo: "out",
                    raised: false,
                    occupancy: 0,
                },
            ),
            ev(
                2_000,
                ComponentId::nic(0),
                TraceData::FifoThreshold {
                    fifo: "out",
                    raised: true,
                    occupancy: 4096,
                },
            ),
            ev(
                3_000,
                ComponentId::nic(0),
                TraceData::FifoThreshold {
                    fifo: "out",
                    raised: false,
                    occupancy: 100,
                },
            ),
            ev(
                4_000,
                ComponentId::nic(0),
                TraceData::FifoThreshold {
                    fifo: "out",
                    raised: true,
                    occupancy: 5000,
                },
            ),
        ];
        let text = to_chrome_json_with_counters(&events, &[]);
        let n = validate_chrome_json(&text).expect("must validate after dropping strays");
        assert_eq!(n, 2, "only the matched raise/clear pair survives");
    }

    #[test]
    fn counter_samples_interleave_and_validate() {
        let events = vec![ev(
            2_000_000,
            ComponentId::nic(0),
            TraceData::PacketInjected {
                src: 0,
                dst: 1,
                bytes: 22,
                seq: None,
            },
        )];
        let counters = vec![
            CounterSample {
                name: "engine.profile.commit_ms".into(),
                ts_us: 1.0,
                value: 0.5,
            },
            CounterSample {
                name: "engine.profile.commit_ms".into(),
                ts_us: 3.0,
                value: 1.25,
            },
        ];
        let text = to_chrome_json_with_counters(&events, &counters);
        let n = validate_chrome_json(&text).expect("counter traces must validate");
        assert_eq!(n, 3, "instant event plus two counter samples");
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("engine.profile"));
    }

    #[test]
    fn validator_rejects_broken_traces() {
        assert!(validate_chrome_json("not json").is_err());
        assert!(validate_chrome_json("{}").is_err());
        let out_of_order = r#"{"traceEvents":[
            {"name":"a","ph":"i","ts":5,"pid":0,"tid":0},
            {"name":"b","ph":"i","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_json(out_of_order).is_err());
        let unmatched = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_json(unmatched).is_err());
    }
}

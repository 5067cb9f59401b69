//! `--compare BASE.json NEW.json`: a verdict per workload and end-to-end
//! metric, from the bounds in `BENCHMARK.json` and each side's quartiles.

use shrimp_sim::json::Value;

use crate::metrics::{Better, E2e, E2E};

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of a side exceeds the bound and the two
    /// sides' samples overlap: the data cannot tell.
    Unresolved,
    /// A simulated metric or the delivery hash moved: the model itself
    /// changed, whichever direction it moved in.
    ModelChanged,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::ModelChanged => "model changed",
        }
    }
}

/// One side's summary of a metric, as written in `results.json`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Side {
    pub value: Option<f64>,
    pub q1: Option<f64>,
    pub q3: Option<f64>,
    pub min: Option<f64>,
    pub max: Option<f64>,
}

impl Side {
    fn of(v: Option<&Value>) -> Side {
        let f = |k: &str| v.and_then(|v| v.get(k)).and_then(Value::as_f64);
        Side {
            value: f("value"),
            q1: f("q1"),
            q3: f("q3"),
            min: f("min"),
            max: f("max"),
        }
    }

    /// Interquartile range as a share of the median (0 for one sample).
    fn spread(&self) -> f64 {
        match (self.value, self.q1, self.q3) {
            (Some(m), Some(q1), Some(q3)) if m != 0.0 => (q3 - q1) / m.abs(),
            _ => 0.0,
        }
    }
}

/// Judges `new` against `base`. Host metrics use `bound`, the share of
/// the base median by which the metric may worsen; simulated metrics and
/// the error rate are exact.
pub fn verdict(m: &E2e, bound: Option<f64>, base: &Side, new: &Side) -> Verdict {
    if !m.host {
        let same = match (base.value, new.value) {
            (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
            (None, None) => true,
            _ => false,
        };
        return match (same, m.name) {
            (true, _) => Verdict::Same,
            (false, "error_rate") => match (base.value, new.value) {
                (Some(a), Some(b)) if b < a => Verdict::Better,
                _ => Verdict::Worse,
            },
            (false, _) => Verdict::ModelChanged,
        };
    }
    let (Some(bound), Some(b), Some(n)) = (bound, base.value, new.value) else {
        return Verdict::Unresolved;
    };
    // Positive = improvement, as a share of the base median.
    let gain = match m.better {
        Better::Lower => (b - n) / b,
        Better::Higher => (n - b) / b,
    };
    if base.spread().max(new.spread()) > bound {
        let separated = match (m.better, base.min, base.max, new.min, new.max) {
            (Better::Lower, Some(base_min), _, _, Some(new_max)) => new_max < base_min,
            (Better::Higher, _, Some(base_max), Some(new_min), _) => new_min > base_max,
            _ => false,
        };
        return if separated {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Value) -> Result<Vec<(String, f64)>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or("end_to_end entry without name")?;
            let bound = e
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("end_to_end entry without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Compares two `results.json` documents, printing one line per
/// workload × metric. Returns whether any verdict is `worse`.
pub fn compare(benchmark: &Value, base: &Value, new: &Value) -> Result<bool, String> {
    let bounds = bounds(benchmark)?;
    let workloads = |doc: &Value| -> Result<Vec<Value>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("results file has no workloads list")?
            .to_vec())
    };
    let (base_w, new_w) = (workloads(base)?, workloads(new)?);
    let mut any_worse = false;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base", "new", "change"
    );
    for b in &base_w {
        let name = b.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(n) = new_w
            .iter()
            .find(|n| n.get("workload").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<16} (absent from NEW)");
            continue;
        };
        for m in &E2E {
            let side = |doc: &Value| Side::of(doc.get("metrics").and_then(|x| x.get(m.name)));
            let (bs, ns) = (side(b), side(n));
            let bound = bounds.iter().find(|(k, _)| k == m.name).map(|&(_, v)| v);
            let v = verdict(m, bound, &bs, &ns);
            any_worse |= v == Verdict::Worse;
            let show = |s: &Side| s.value.map_or("null".to_string(), |v| format!("{v:.6}"));
            let change = match (bs.value, ns.value) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:+.1}%", (y - x) / x.abs() * 100.0),
                _ => "-".to_string(),
            };
            println!(
                "{name:<16} {:<20} {:>14} {:>14} {change:>9}  {}",
                m.name,
                show(&bs),
                show(&ns),
                v.name()
            );
        }
        let hash = |doc: &Value| doc.get("delivery_hash").cloned();
        let hv = if hash(b) == hash(n) {
            Verdict::Same
        } else {
            Verdict::ModelChanged
        };
        println!(
            "{name:<16} {:<20} {:>14} {:>14} {:>9}  {}",
            "delivery_hash",
            "",
            "",
            "",
            hv.name()
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static E2e {
        E2E.iter().find(|m| m.name == name).unwrap()
    }

    fn side(value: f64, q1: f64, q3: f64, min: f64, max: f64) -> Side {
        Side {
            value: Some(value),
            q1: Some(q1),
            q3: Some(q3),
            min: Some(min),
            max: Some(max),
        }
    }

    fn tight(v: f64) -> Side {
        side(v, v * 0.99, v * 1.01, v * 0.98, v * 1.02)
    }

    #[test]
    fn host_verdicts_follow_bound_and_direction() {
        let run_s = metric("run_s");
        let eps = metric("events_per_s");
        let b = Some(0.10);
        assert_eq!(verdict(run_s, b, &tight(1.0), &tight(1.05)), Verdict::Same);
        assert_eq!(verdict(run_s, b, &tight(1.0), &tight(1.2)), Verdict::Worse);
        assert_eq!(verdict(run_s, b, &tight(1.0), &tight(0.8)), Verdict::Better);
        assert_eq!(verdict(eps, b, &tight(100.0), &tight(80.0)), Verdict::Worse);
        assert_eq!(
            verdict(eps, b, &tight(100.0), &tight(120.0)),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_fully_separated() {
        let run_s = metric("run_s");
        let b = Some(0.10);
        // Base IQR is 40% of its median: wider than the 10% bound.
        let noisy = side(1.0, 0.8, 1.2, 0.7, 1.3);
        assert_eq!(verdict(run_s, b, &noisy, &tight(1.2)), Verdict::Unresolved);
        assert_eq!(verdict(run_s, b, &noisy, &tight(1.0)), Verdict::Unresolved);
        // Every new sample beats every base sample: better despite noise.
        assert_eq!(verdict(run_s, b, &noisy, &tight(0.5)), Verdict::Better);
        // A missing bound or value cannot be judged.
        assert_eq!(
            verdict(run_s, None, &tight(1.0), &tight(1.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(run_s, b, &Side::default(), &tight(1.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn simulated_metrics_are_exact_and_flag_model_changes() {
        let p99 = metric("pkt_latency_p99_us");
        let v = |x: f64| Side {
            value: Some(x),
            ..Side::default()
        };
        assert_eq!(verdict(p99, None, &v(3.5), &v(3.5)), Verdict::Same);
        // Lower latency is still a model change, not a win.
        assert_eq!(verdict(p99, None, &v(3.5), &v(3.0)), Verdict::ModelChanged);
        assert_eq!(
            verdict(p99, None, &v(3.5), &Side::default()),
            Verdict::ModelChanged
        );
        assert_eq!(
            verdict(p99, None, &Side::default(), &Side::default()),
            Verdict::Same
        );
        let err = metric("error_rate");
        assert_eq!(verdict(err, None, &v(0.0), &v(0.01)), Verdict::Worse);
        assert_eq!(verdict(err, None, &v(0.01), &v(0.0)), Verdict::Better);
    }

    #[test]
    fn bounds_come_from_the_benchmark_file() {
        let doc = Value::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(bounds(&doc), Ok(vec![("setup_s".to_string(), 0.25)]));
        assert!(bounds(&Value::parse("{}").unwrap()).is_err());
    }
}

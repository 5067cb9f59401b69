//! The repository benchmark: five seeded closed-loop workloads, host-speed
//! and simulated end-to-end metrics, and per-layer attribution from a
//! separate traced run. See `README.md` beside this package.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark --compare BASE.json NEW.json
//! ```
//!
//! Each workload runs in a fresh child process of this binary, with
//! `SHRIMP_WORKERS` removed from its environment, so heap state and peak
//! RSS never leak between workloads and the machine runs one simulator
//! thread. The parent checks every result, prints every metric with its
//! unit, and writes `target/benchmark/results.json`; a traced run also
//! writes `trace.json` and `layers.json` there. With exactly one
//! `--workload`, the last line of standard output is that workload's
//! result as one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`): the end-to-end host metrics, or with `--trace 1` the
//! per-layer metrics. The process exits nonzero when any operation
//! failed.

mod alloc;
mod compare;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use shrimp_bench::Table;
use shrimp_sim::json::Value;
use shrimp_sim::MetricsRegistry;

use metrics::{DRIVER_LAYERS, E2E};
use workloads::{Opts, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]\n       benchmark --compare BASE.json NEW.json";

/// Where results, traces and layer metrics are written.
const OUT_DIR: &str = "target/benchmark";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    opts: Opts,
    /// Run the single workload in this process and print its result
    /// document (the parent's view of a child).
    child: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        opts: Opts {
            seed: 777,
            seconds: 5.0,
            trace: false,
            smoke: false,
        },
        child: false,
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.workloads
                    .push(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                a.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.opts.seconds = s;
            }
            "--trace" => {
                a.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.opts.smoke = true,
            "--child" => a.child = true,
            "--compare" => {
                let base = value("--compare")?.clone();
                let new = value("--compare")?.clone();
                a.compare = Some((base, new));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.child && a.workloads.len() != 1 {
        return Err("--child runs exactly one --workload".into());
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

/// Runs `w` in a fresh child process and returns its result document.
fn spawn(w: Workload, o: &Opts) -> Value {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return workloads::crashed(w, o, format!("cannot locate own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    // The simulator's worker count defaults from this variable; removing
    // it keeps every measured machine on one simulator thread.
    cmd.env_remove("SHRIMP_WORKERS")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    match cmd.output() {
        Ok(out) if out.status.success() => {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("");
            Value::parse(last).unwrap_or_else(|e| {
                workloads::crashed(w, o, format!("unreadable child result: {e}"))
            })
        }
        Ok(out) => workloads::crashed(w, o, format!("child process exited with {}", out.status)),
        Err(e) => workloads::crashed(w, o, format!("cannot start child process: {e}")),
    }
}

fn u64_of(r: &Value, key: &str) -> u64 {
    r.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn value_of<'a>(r: &'a Value, group: &str, name: &str) -> Option<&'a Value> {
    r.get(group).and_then(|g| g.get(name))
}

/// The one-line result of a single workload: the end-to-end host
/// metrics, or the per-layer metrics of a traced run.
fn contract_line(r: &Value, trace: bool) -> Value {
    let failed = u64_of(r, "failed");
    let pick = |group: &str, name: &str| {
        let m = value_of(r, group, name);
        let field = |k: &str| m.and_then(|m| m.get(k)).cloned().unwrap_or(Value::Null);
        (
            name.to_string(),
            Value::Object(vec![
                ("value".into(), field("value")),
                ("unit".into(), field("unit")),
            ]),
        )
    };
    let metrics: Vec<(String, Value)> = if trace {
        DRIVER_LAYERS.iter().map(|n| pick("layers", n)).collect()
    } else {
        E2E.iter()
            .filter(|m| m.host)
            .map(|m| pick("metrics", m.name))
            .collect()
    };
    Value::Object(vec![
        (
            "correct".into(),
            Value::Bool(failed == 0 && u64_of(r, "attempted") > 0),
        ),
        (
            "attempted".into(),
            Value::Uint(u64_of(r, "attempted").max(1)),
        ),
        ("failed".into(), Value::Uint(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn show(m: Option<&Value>, key: &str) -> String {
    match m.and_then(|m| m.get(key)) {
        Some(Value::Float(v)) => format!("{v:.6}"),
        Some(Value::Uint(v)) => v.to_string(),
        _ => "-".to_string(),
    }
}

/// Prints every metric of every workload with its unit.
fn print_report(results: &[Value]) {
    for r in results {
        let name = r.get("workload").and_then(Value::as_str).unwrap_or("?");
        println!(
            "\n== {name}: seed {} · {} reps · {} attempted, {} failed · delivery hash {} ==",
            u64_of(r, "seed"),
            u64_of(r, "reps"),
            u64_of(r, "attempted"),
            u64_of(r, "failed"),
            r.get("delivery_hash")
                .and_then(Value::as_str)
                .unwrap_or("-"),
        );
        for f in r.get("failures").and_then(Value::as_array).unwrap_or(&[]) {
            println!("FAILED: {}", f.as_str().unwrap_or("?"));
        }
        for group in ["metrics", "layers"] {
            let Some(fields) = r.get(group).and_then(Value::as_object) else {
                continue;
            };
            let mut t = Table::new(vec![
                "metric",
                "median / value",
                "q1",
                "q3",
                "n",
                "unit",
                "note",
            ]);
            for (metric, m) in fields {
                let m = Some(m);
                t.row(vec![
                    metric.clone(),
                    match m.and_then(|m| m.get("value")) {
                        Some(Value::Null) | None => "null".to_string(),
                        _ => show(m, "value"),
                    },
                    show(m, "q1"),
                    show(m, "q3"),
                    show(m, "n"),
                    m.and_then(|m| m.get("unit"))
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    m.and_then(|m| m.get("reason"))
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                ]);
            }
            t.print();
        }
    }
}

/// Writes the traced run's Chrome trace (validated) and its per-layer
/// metrics in the `shrimp.metrics.v1` schema (linted on write).
fn write_trace(results: &[Value]) -> Result<(), String> {
    let mut per_workload = Vec::new();
    let mut reg = MetricsRegistry::new();
    for r in results {
        let name = r
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let spans = r
            .get("spans")
            .and_then(trace::from_value)
            .unwrap_or_default();
        for (layer, m) in r.get("layers").and_then(Value::as_object).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                reg.set_gauge(format!("{name}.{layer}"), v);
            }
        }
        let own = trace::self_ns(&spans);
        let mut by_name: Vec<(String, u64, u64)> = Vec::new();
        for (s, ns) in spans.iter().zip(&own) {
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += ns;
                    e.2 += 1;
                }
                None => by_name.push((s.name.clone(), *ns, 1)),
            }
        }
        for (span, ns, calls) in by_name {
            reg.set_gauge(format!("{name}.span.{span}.self_ms"), ns as f64 / 1e6);
            reg.set_counter(format!("{name}.span.{span}.calls"), calls);
        }
        per_workload.push((name, spans));
    }
    let chrome = trace::chrome_json(&per_workload);
    let events = shrimp_sim::validate_chrome_json(&chrome)
        .map_err(|e| format!("trace.json invalid: {e}"))?;
    let path = format!("{OUT_DIR}/trace.json");
    std::fs::write(&path, chrome).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path} ({events} spans)");
    shrimp_bench::write_metrics_to(&format!("{OUT_DIR}/layers.json"), &reg.snapshot());
    Ok(())
}

/// The results document: the run's options and every workload's result
/// (spans go to `trace.json` instead).
fn results_doc(results: &[Value], o: &Opts) -> Value {
    let strip = |r: &Value| match r {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "spans")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    Value::Object(vec![
        ("schema".into(), Value::Str("shrimp.benchmark.v1".into())),
        ("seed".into(), Value::Uint(o.seed)),
        ("seconds".into(), Value::Float(o.seconds)),
        ("trace".into(), Value::Bool(o.trace)),
        ("smoke".into(), Value::Bool(o.smoke)),
        (
            "workloads".into(),
            Value::Array(results.iter().map(strip).collect()),
        ),
    ])
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_compare(base: &str, new: &str) -> Result<bool, String> {
    compare::compare(
        &read_json("BENCHMARK.json")?,
        &read_json(base)?,
        &read_json(new)?,
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return match run_compare(base, new) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.child {
        println!(
            "{}",
            workloads::run(args.workloads[0], &args.opts).to_json()
        );
        return ExitCode::SUCCESS;
    }

    let o = args.opts;
    let results: Vec<Value> = args.workloads.iter().map(|&w| spawn(w, &o)).collect();
    print_report(&results);
    let mut ok = results.iter().all(|r| u64_of(r, "failed") == 0);
    let written = std::fs::create_dir_all(OUT_DIR)
        .map_err(|e| format!("create {OUT_DIR}: {e}"))
        .and_then(|()| {
            let path = Path::new(OUT_DIR).join("results.json");
            std::fs::write(&path, results_doc(&results, &o).to_json() + "\n")
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("\nwrote {}", path.display());
            if o.trace {
                write_trace(&results)?;
            }
            Ok(())
        });
    if let Err(e) = written {
        eprintln!("benchmark: {e}");
        ok = false;
    }
    if let [r] = results.as_slice() {
        println!("{}", contract_line(r, o.trace).to_json());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository's `BENCHMARK.json`, four directories above this
    /// package's manifest.
    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        read_json(path.to_str().expect("utf-8 path")).expect("BENCHMARK.json parses")
    }

    fn names_units(doc: &Value, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let doc = benchmark_json();
        let host: Vec<(String, String)> = E2E
            .iter()
            .filter(|m| m.host)
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names_units(&doc, "end_to_end"), host);
        for m in doc.get("end_to_end").and_then(Value::as_array).unwrap() {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            let cat = E2E.iter().find(|e| e.name == name).unwrap();
            let better = match cat.better {
                metrics::Better::Lower => "lower",
                metrics::Better::Higher => "higher",
            };
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better));
        }
        let layers: Vec<String> = names_units(&doc, "per_layer")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(layers, DRIVER_LAYERS);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn args_parse_the_driver_form_and_reject_garbage() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload ring1k --seed 9 --seconds 10 --trace 0")).unwrap();
        assert_eq!(a.workloads, vec![Workload::Ring1k]);
        assert_eq!(
            (a.opts.seed, a.opts.seconds, a.opts.trace),
            (9, 10.0, false)
        );
        let a = parse_args(&v("--seed 777 --trace")).unwrap();
        assert!(a.opts.trace);
        assert_eq!(a.workloads.len(), 5);
        assert!(parse_args(&v("--workload nope")).is_err());
        assert!(parse_args(&v("--seconds 0")).is_err());
        assert!(parse_args(&v("--seed")).is_err());
        assert!(parse_args(&v("--child")).is_err());
    }

    /// Every workload at smoke size, traced: every correctness check
    /// passes, the error rate is zero, and the one-line results carry
    /// exactly the metrics `BENCHMARK.json` lists, each a number.
    #[test]
    fn smoke() {
        let doc = benchmark_json();
        let o = Opts {
            seed: 777,
            seconds: 1.0,
            trace: true,
            smoke: true,
        };
        let started = std::time::Instant::now();
        for w in Workload::ALL {
            let r = workloads::run(w, &o);
            assert_eq!(
                u64_of(&r, "failed"),
                0,
                "{}: {:?}",
                w.name(),
                r.get("failures")
            );
            assert!(u64_of(&r, "attempted") > 0);
            let err = value_of(&r, "metrics", "error_rate").and_then(|m| m.get("value"));
            assert_eq!(err.and_then(Value::as_f64), Some(0.0), "{}", w.name());
            for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let line = contract_line(&r, trace);
                assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
                let got = line.get("metrics").and_then(Value::as_object).unwrap();
                let want = names_units(&doc, list);
                assert_eq!(got.len(), want.len());
                for ((name, m), (want_name, want_unit)) in got.iter().zip(&want) {
                    assert_eq!(name, want_name);
                    assert_eq!(
                        m.get("unit").and_then(Value::as_str),
                        Some(want_unit.as_str())
                    );
                    assert!(
                        m.get("value").and_then(Value::as_f64).is_some(),
                        "{}: {name} is not a number: {:?}",
                        w.name(),
                        value_of(&r, if trace { "layers" } else { "metrics" }, name)
                    );
                }
            }
            let spans = r.get("spans").and_then(trace::from_value).unwrap();
            assert!(spans.iter().any(|s| s.name == "workload"));
        }
        eprintln!("smoke: {:.2} s", started.elapsed().as_secs_f64());
    }
}

//! Shared infrastructure for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation is regenerated by a
//! binary in `src/bin/`:
//!
//! | target | paper result |
//! |---|---|
//! | `table1` | Table 1 — software overhead of the message-passing primitives |
//! | `latency` | §5.1 — <2 µs automatic-update latency (16 nodes, EISA prototype); <1 µs next-gen |
//! | `bandwidth` | §5.1 — 33 MB/s peak (EISA-limited); ~70 MB/s next-gen |
//! | `comparison` | §5.2 — csend/crecv vs NX/2; §1 — DELTA software-vs-hardware breakdown |
//! | `ablation` | design-choice studies: merge window, FIFO thresholds, auto-vs-deliberate crossover, pin-vs-invalidate paging |
//!
//! This library provides the text-table renderer those binaries share
//! and the synthetic [`workloads`] used by the `netchar` extension.

#![forbid(unsafe_code)]

pub mod workloads;

use std::fmt::Display;

use shrimp_sim::MetricsSnapshot;

/// A plain-text table renderer for benchmark reports.
///
/// # Examples
///
/// ```
/// use shrimp_bench::Table;
///
/// let mut t = Table::new(vec!["size", "rate"]);
/// t.row(vec!["4 KB".into(), "32.9 MB/s".into()]);
/// let s = t.render();
/// assert!(s.contains("4 KB"));
/// assert!(s.contains("rate"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                s.push_str(&format!(" {cell:<w$} |"));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a rate in MB/s with two decimals.
pub fn fmt_rate(bytes_per_sec: f64) -> String {
    format!("{:.2} MB/s", bytes_per_sec / 1e6)
}

/// Formats a duration given in microseconds.
pub fn fmt_us(us: f64) -> String {
    format!("{us:.3} us")
}

/// Formats a ratio like `0.25x`.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Prints a section banner.
pub fn banner(title: impl Display) {
    println!("\n== {title} ==\n");
}

/// Resolves the metrics output path for a benchmark binary: the value
/// following `--metrics-out` on the command line when present,
/// otherwise the conventional `BENCH_<name>.metrics.json`. Every bin
/// under `src/bin/` that writes a snapshot routes it through this one
/// helper, so the flag is spelled and parsed the same way everywhere.
///
/// # Panics
///
/// Panics if `--metrics-out` is passed without a following path.
pub fn metrics_out_path(name: &str) -> String {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--metrics-out" {
            return args
                .next()
                .unwrap_or_else(|| panic!("--metrics-out requires a path argument"));
        }
    }
    format!("BENCH_{name}.metrics.json")
}

/// Writes a metrics snapshot to `path`, validating the emitted
/// document against the `shrimp.metrics.v1` schema lint first so a
/// malformed snapshot fails loudly at the producer rather than in a
/// downstream consumer.
///
/// # Panics
///
/// Panics if the snapshot fails schema validation or the file cannot
/// be written.
pub fn write_metrics_to(path: &str, snapshot: &MetricsSnapshot) {
    let mut body = snapshot.to_json();
    body.push('\n');
    let entries = shrimp_sim::validate_metrics_json(&body)
        .unwrap_or_else(|e| panic!("metrics snapshot failed schema lint: {e}"));
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path} ({entries} metrics, schema shrimp.metrics.v1)");
}

/// Writes a metrics snapshot to the path chosen by
/// [`metrics_out_path`] — `--metrics-out <path>` when given, else
/// `BENCH_<name>.metrics.json`.
///
/// # Panics
///
/// Panics if the snapshot fails schema validation or the file cannot
/// be written.
pub fn write_metrics(name: &str, snapshot: &MetricsSnapshot) {
    write_metrics_to(&metrics_out_path(name), snapshot);
}

/// Turns a human-readable label into a metric name segment: lowercase,
/// with runs of non-alphanumeric characters collapsed to `_`.
pub fn metric_key(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut gap = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || c == '.' {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a", "header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].starts_with("|--"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_rate(33_000_000.0), "33.00 MB/s");
        assert_eq!(fmt_us(1.2345), "1.234 us");
        assert_eq!(fmt_ratio(0.25), "0.25x");
    }

    #[test]
    fn metric_keys_are_clean() {
        assert_eq!(metric_key("double buffering (case 2)"), "double_buffering_case_2");
        assert_eq!(metric_key("NeighborEast"), "neighboreast");
        assert_eq!(metric_key("loss 0.005"), "loss_0.005");
        assert_eq!(metric_key("  x  "), "x");
    }
}

//! Regenerates **Table 1** of the paper: software overhead (dynamic
//! user-level instruction counts) of the message-passing primitives.
//!
//! ```text
//! cargo run -p shrimp-bench --bin table1
//! ```

#![forbid(unsafe_code)]

use shrimp_bench::{banner, metric_key, write_metrics, Table};
use shrimp_core::msglib;

fn main() {
    banner("Table 1: software overhead of message passing primitives");
    println!("paper column: instructions as (source + destination)");
    println!("measured: dynamic retired instructions on the simulated machine");
    println!("(copy-excluded where the paper excludes per-byte copy costs)\n");

    let rows = msglib::table1().expect("table 1 primitives must run");
    let mut t = Table::new(vec![
        "primitive",
        "paper",
        "measured",
        "raw (with copies)",
        "verified",
        "simulated time",
    ]);
    for row in &rows {
        let (ps, pr) = row.paper;
        let m = row.report.copy_excluded.unwrap_or(row.report.counts);
        t.row(vec![
            row.name.to_string(),
            format!("{} ({}+{})", ps + pr, ps, pr),
            format!("{} ({}+{})", m.total(), m.sender, m.receiver),
            format!(
                "{} ({}+{})",
                row.report.counts.total(),
                row.report.counts.sender,
                row.report.counts.receiver
            ),
            if row.report.verified { "yes" } else { "NO" }.to_string(),
            format!("{}", row.report.elapsed),
        ]);
    }
    t.print();

    let mut reg = shrimp_sim::MetricsRegistry::new();
    for row in &rows {
        let m = row.report.copy_excluded.unwrap_or(row.report.counts);
        let p = format!("table1.{}", metric_key(row.name));
        reg.set_counter(format!("{p}.sender_insns"), m.sender);
        reg.set_counter(format!("{p}.receiver_insns"), m.receiver);
        reg.set_counter(
            format!("{p}.elapsed_ps"),
            row.report.elapsed.as_picos(),
        );
    }
    write_metrics("table1", &reg.snapshot());

    println!(
        "\nNote: csend/crecv is our user-level implementation of the NX/2\n\
         semantics under the paper's restrictions; it is leaner than the\n\
         authors' (which measured 73+78) but the comparison that matters —\n\
         against NX/2's 222+261 kernel-path instructions — is reproduced\n\
         by `cargo run -p shrimp-bench --bin comparison`."
    );
}

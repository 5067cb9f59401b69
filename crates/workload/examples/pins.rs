//! Prints each checked-in scenario's pinned values (for refreshing the
//! golden suite in `tests/scenarios.rs` after an intentional change).

use shrimp_workload::{dsl::Scenario, run_scenario};

fn main() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    names.sort();
    for path in names {
        let text = std::fs::read_to_string(&path).expect("scenario file");
        let sc = Scenario::parse(&text).expect("scenario parses");
        if matches!(sc.name.as_str(), "mixed10k" | "sessions_faulty") && cfg!(debug_assertions) {
            println!("{:<14} skipped (debug build)", sc.name);
            continue;
        }
        let start = std::time::Instant::now();
        match run_scenario(&sc) {
            Ok(r) => println!(
                "{:<14} hash=0x{:016x} events={} deliveries={} sessions={} goodput={}B final={}ps ({:.2?})",
                sc.name,
                r.delivery_hash,
                r.events_processed,
                r.deliveries,
                r.sessions_completed,
                r.goodput_bytes,
                r.final_time_ps,
                start.elapsed(),
            ),
            Err(e) => println!("{:<14} FAILED: {e}", sc.name),
        }
    }
}

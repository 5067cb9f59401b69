//! # shrimp-workload — closed-loop workload DSL and session generator
//!
//! Scenario files describe *sessions* — an application-level unit with
//! an open/close lifecycle: RPC exchanges over deliberate-update
//! channels, page streams, fan-out collectives, and DSM-style
//! shared-page traffic over automatic update. The generator keeps a
//! fixed number of sessions in flight (a closed loop: a new session
//! opens only when one closes) and drives a [`shrimp_core::Machine`]
//! through its ordinary host API.
//!
//! Every scenario is seeded and replays exactly — same event count,
//! same delivery hash, byte-identical `shrimp.metrics.v1` snapshot.
//! See DESIGN.md §5f.
//!
//! ```
//! use shrimp_workload::{dsl::Scenario, run_scenario};
//!
//! let sc = Scenario::parse(
//!     "scenario demo\n\
//!      mesh 2x1\n\
//!      seed 7\n\
//!      users 2\n\
//!      session rpc count=4 src=0 dst=1 requests=2 \
//!        request=256 response=512 think=1us..5us server=2us..4us\n",
//! )?;
//! let report = run_scenario(&sc)?;
//! assert_eq!(report.sessions_completed, 4);
//! let replay = run_scenario(&sc)?;
//! assert_eq!(replay.delivery_hash, report.delivery_hash);
//! assert_eq!(replay.metrics.to_json(), report.metrics.to_json());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod dsl;
pub mod gen;
pub mod report;

pub use dsl::{DslError, Scenario};
pub use gen::{run_scenario, run_scenario_observed, run_scenario_tuned, WorkloadError};
pub use report::{delivery_hash, Report};

//! Deterministic discrete-event simulation kernel for the SHRIMP
//! reproduction.
//!
//! Every component of the simulated SHRIMP multicomputer — CPUs, buses,
//! the network interface, the mesh backplane — advances on a single global
//! event loop driven by the primitives in this crate:
//!
//! * [`SimTime`] / [`SimDuration`] — integer picosecond timestamps, so all
//!   arithmetic is exact and runs are bit-for-bit reproducible.
//! * [`EventQueue`] — a priority queue with deterministic FIFO tie-breaking
//!   for events scheduled at the same instant. Pushes that arrive in time
//!   order join FIFO lanes and skip its binary heap.
//! * [`BandwidthResource`] — the occupancy model of one-at-a-time
//!   hardware (buses, links, DMA engines).
//! * [`SimRng`] — a seeded ChaCha RNG so workloads are reproducible.
//!
//! # Examples
//!
//! ```
//! use shrimp_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_ns(5), "later");
//! queue.push(SimTime::ZERO, "now");
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(ev, "now");
//! assert_eq!(t, SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use chrome::{to_chrome_json_with_counters, validate_chrome_json, CounterSample};
pub use event::EventQueue;
pub use fault::{
    FaultConfig, LinkChurnConfig, LinkFault, LinkFaultConfig, LinkFaultSite, NicFaultConfig,
    NicFaultSite,
};
pub use metrics::{
    validate_metrics_json, HistogramSummary, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use profile::{EnginePhase, EngineProfileReport, EngineProfiler};
pub use resource::BandwidthResource;
pub use rng::SimRng;
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};
pub use trace::{
    ComponentId, FlightEntry, TelemetryConfig, TraceData, TraceEvent, TraceOutbox, Tracer,
};

//! Unified telemetry for the TMI reproduction: a structured event bus, a
//! metrics registry, a per-phase cycle profiler and exporters.
//!
//! The simulation's observability used to be ~10 ad-hoc `*Stats` structs with
//! no common export surface and no timeline view of *when* the runtime made
//! its decisions. This crate gives every counter owner one API:
//!
//! - [`MetricSource`] / [`MetricSink`] / [`MetricsSnapshot`] — the metrics
//!   registry. Every `*Stats` struct implements [`MetricSource`], and any
//!   composition of sources flattens into one stable-named
//!   `name → u64/f64` snapshot that exporters, reports and tests consume.
//! - [`Tracer`] — the structured event bus. Zero-cost when disabled (a
//!   disabled tracer is a `None` and every emit is one branch); when enabled
//!   it records [`TraceEvent`]s stamped with simulated cycles and thread ids.
//! - [`PhaseProfile`] — cycles attributed to repair phases, kept by the
//!   runtime that charges them whether or not a run is traced.
//! - [`chrome::export_trace`] — Chrome `trace_event` JSON, loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//! - [`json`] — a hand-rolled JSON writer/parser (the workspace builds
//!   offline with no serde) used by the exporters and the schema gate.
//!
//! Telemetry is purely observational: nothing in this crate ever charges
//! simulated cycles, so enabling a tracer cannot perturb a run.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
mod metrics;
mod phase;
mod trace;

pub use metrics::{MetricSink, MetricSource, MetricValue, MetricsSnapshot};
pub use phase::{Phase, PhaseProfile};
pub use trace::{EventKind, TraceEvent, Tracer, GLOBAL_TID};

//! # tmi-service — the multi-tenant simulation job server
//!
//! Long-running service wrapping the deterministic simulation stack: a
//! TCP listener speaking newline-delimited JSON, one locked admission
//! queue with a bounded FIFO per priority class, per-tenant quotas, a
//! worker pool that runs jobs straight through the harness
//! ([`tmi_bench::harness::execute_spec`]), a result cache of payload
//! bytes keyed on the canonical [`JobSpec`] JSON (the only cache, so a
//! `fresh` submit really re-simulates), and streaming progress sourced
//! from the `service.*` metrics registry.
//!
//! The request-facing vocabulary is the same [`JobSpec`] the bench
//! figures build, the fuzz campaign checks, and the CLI flags set — one
//! job description across library, wire, and command line.
//!
//! ```no_run
//! use tmi_service::{Client, Service, ServiceConfig};
//! use tmi_bench::JobSpec;
//!
//! let service = Service::start(ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(service.addr()).unwrap();
//! let mut spec = JobSpec::new("histogramfs");
//! spec.scale = 0.05;
//! let out = client.run("ci", &spec, 1, false, |_| {}).unwrap();
//! assert!(!out.cached);
//! // Identical spec → byte-identical payload, served from the cache.
//! let again = client.run("ci", &spec, 1, false, |_| {}).unwrap();
//! assert!(again.cached);
//! assert_eq!(out.payload, again.payload);
//! client.shutdown().unwrap();
//! service.wait();
//! ```
//!
//! Fault points (`worker_kill`, `queue_full`, `cache_drop` from
//! [`tmi_faultpoint`]) are wired through the admission and worker
//! paths; [`chaos_plan`] is the deterministic plan CI boots the daemon
//! with to prove retried results stay byte-identical.

pub mod client;
pub mod journal;
pub mod persist;
pub mod proto;
pub mod server;
pub mod stats;

pub use client::{run_with_retry, Client, ClientConfig, Progress, RunOutcome};
pub use journal::{Journal, JournalRecord};
pub use persist::{CacheSpill, FrameLog};
pub use proto::Request;
pub use server::{chaos_plan, persist_chaos_plan, Service, ServiceConfig, ServiceReport};
pub use stats::{service_metric_names, ServiceStats};

// The spec type is re-exported so service users need not also depend on
// tmi-bench for the common case.
pub use tmi_bench::JobSpec;

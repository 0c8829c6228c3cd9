//! # tmi-service — the simulation job server
//!
//! Long-running service wrapping the deterministic simulation stack: a
//! TCP listener speaking newline-delimited JSON, one locked FIFO
//! admission queue, a worker pool that runs jobs straight through the
//! harness ([`tmi_bench::harness::execute_spec`]), and a result cache of
//! payload bytes keyed on the canonical [`JobSpec`] JSON (the only
//! cache, so a `fresh` submit really re-simulates). Each submitted job
//! gets one `accepted` line and then one result line.
//!
//! The request-facing vocabulary is the same [`JobSpec`] the bench
//! figures build, the fuzz campaign checks, and the CLI flags set — one
//! job description across library, wire, and command line.
//!
//! ```no_run
//! use tmi_service::{Client, ClientConfig, Service, ServiceConfig};
//! use tmi_bench::JobSpec;
//!
//! let service = Service::start(ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(service.addr(), &ClientConfig::default()).unwrap();
//! let mut spec = JobSpec::new("histogramfs");
//! spec.scale = 0.05;
//! let out = client.run(&spec, false).unwrap();
//! assert!(!out.cached);
//! // Identical spec → byte-identical payload, served from the cache.
//! let again = client.run(&spec, false).unwrap();
//! assert!(again.cached);
//! assert_eq!(out.payload, again.payload);
//! client.shutdown().unwrap();
//! service.wait();
//! ```
//!
//! Fault points (`worker_kill` and `cache_drop` from [`tmi_faultpoint`])
//! are wired through the worker path; [`chaos_plan`] is the
//! deterministic plan CI boots the daemon with to prove retried results
//! stay byte-identical.

pub mod client;
pub mod journal;
pub mod persist;
pub mod proto;
pub mod server;
pub mod stats;

pub use client::{Client, ClientConfig};
pub use server::{chaos_plan, persist_chaos_plan, Service, ServiceConfig, QUEUE_CAPACITY};

// The spec type is re-exported so service users need not also depend on
// tmi-bench for the common case.
pub use tmi_bench::JobSpec;

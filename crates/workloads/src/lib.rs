#![warn(missing_docs)]

//! # tmi-workloads — the evaluation suite
//!
//! Thirty-five workloads matching the paper's evaluation (§4.1): PARSEC
//! 3.0, Phoenix 1.0, Splash2x, leveldb 1.20 (with the §4.3 injected
//! false-sharing bug as a variant), and the three Boost microbenchmarks —
//! plus `cholesky` for the Fig. 12 consistency case study.
//!
//! We do not ship the original C/C++ programs; each workload is a
//! simulated program (a [`tmi_program::ThreadProgram`] state machine) that
//! reproduces the original's *sharing structure*: what is read-shared,
//! which per-thread records pack into cache lines (and how malloc headers
//! misalign them), where atomics and inline assembly appear, and how often
//! threads synchronize. Those are the properties the paper's results
//! depend on; per-workload doc comments spell out the correspondence.
//!
//! Use [`catalog::by_name`] or iterate [`catalog::SUITE`]:
//!
//! ```
//! use tmi_workloads::catalog;
//!
//! let w = catalog::by_name("histogram").unwrap();
//! assert!(w.spec().false_sharing);
//! assert_eq!(catalog::SUITE.len(), 35);
//! ```

pub mod catalog;
pub mod env;
pub mod leveldb;
pub mod micro;
pub mod parsec;
pub mod phoenix;
pub mod splash;

pub use catalog::{by_name, REPAIR_SUITE, SUITE};
pub use env::{fn_program, Lcg, SetupCtx, Workload, WorkloadParams, WorkloadSpec};

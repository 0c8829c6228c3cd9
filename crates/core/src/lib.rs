#![warn(missing_docs)]

//! # tmi — Thread Memory Isolation for false-sharing repair
//!
//! A faithful reproduction of the TMI runtime system (DeLozier, Eizenberg,
//! Hu, Pokam & Devietti, *"TMI: Thread Memory Isolation for False Sharing
//! Repair"*, MICRO-50, 2017), built on the simulated hardware/OS substrate
//! of this workspace.
//!
//! TMI combats cache-line oversharing entirely from userspace:
//!
//! 1. **Low-overhead detection** ([`detect`]): PEBS-style HITM samples are
//!    disassembled and aggregated per cache line; per-thread byte masks
//!    distinguish false sharing (disjoint bytes) from true sharing.
//! 2. **Making running threads into processes** ([`repair`]): on a
//!    threshold crossing, every thread is converted into a process (an
//!    injected `fork()`), giving each a privately remappable page table
//!    while all memory stays shared through a common memory object.
//! 3. **Targeted page protection** ([`repair`], [`twins`]): only the
//!    incriminated pages become read-only copy-on-write; writes buffer in
//!    private page copies (a page-twinning store buffer) that are
//!    byte-diffed against twin snapshots and merged back at every
//!    synchronization operation.
//! 4. **Code-centric consistency** ([`consistency`]): the PTSB is used
//!    only where the active code region's memory model permits it —
//!    regular C/C++ freely, relaxed atomics via the shared mapping without
//!    flushes, ordering atomics and inline assembly with a flush and
//!    shared-memory semantics.
//!
//! The entry point is [`TmiRuntime`], a [`tmi_sim::RuntimeHooks`]
//! implementation; plug it into a [`tmi_sim::Engine`] and run any
//! [`tmi_program::ThreadProgram`] workload under it. The `tmi-bench` crate
//! contains the experiment harnesses reproducing every table and figure of
//! the paper's evaluation.

pub mod config;
pub mod consistency;
pub mod detect;
pub mod layout;
pub mod locks;
pub mod memstats;
pub mod repair;
pub mod report;
pub mod runtime;
pub mod twins;

pub use config::{TmiConfig, FS_THRESHOLD_PER_SEC};
pub use detect::{
    DetectionLoop, DetectionWindow, FalseSharingDetector, LineProfile, SharingKind, SharingReport,
};
pub use layout::AppLayout;
pub use locks::{LockRedirector, LOCK_INDIRECT_CYCLES};
pub use memstats::MemoryBreakdown;
pub use repair::{GovernorState, RepairManager, RepairStats};
pub use report::{ContentionReport, LineReport};
pub use runtime::{RuntimeView, TmiRuntime, TmiStats};
pub use twins::{PageCommit, TwinStore};

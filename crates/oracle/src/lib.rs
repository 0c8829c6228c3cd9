#![warn(missing_docs)]

//! # tmi-oracle — differential consistency oracle and litmus fuzzer
//!
//! TMI's repair path (PTSB page twinning, COW isolation, diff-and-merge
//! commits, code-centric consistency) is only correct if, for data-race-
//! free programs, the repaired execution is indistinguishable from an
//! unrepaired one. This crate turns that claim into an executable oracle:
//!
//! * [`Litmus`] — a deterministic, seeded generator of small 2–4 thread
//!   programs mixing plain accesses, relaxed/ordering atomics, inline-asm
//!   regions, mutexes, spinlocks and a barrier, exercising every row of
//!   the paper's Table 2 while keeping each program data-race-free by
//!   construction (each shared slot has a single synchronization
//!   discipline).
//! * [`Interp`] — a reference interpreter that replays the engine's
//!   recorded schedule directly against flat shared memory under
//!   sequential consistency. Same interleaving, no page twins, no store
//!   buffer: what a correct repair must be equivalent to.
//! * [`check_litmus`] / [`check_seed`] — the differential checker: run
//!   the program through the full TMI stack with repair forced on, replay
//!   the trace through the interpreter, and compare per-step observations,
//!   final shared memory, and aligned-multi-byte-store atomicity
//!   ([`DivergenceKind::TornValue`]). Divergent programs are minimized
//!   and rendered with the seed command that reproduces them.
//!
//! With code-centric consistency ON every seed must check clean; with the
//! `--ablate-code-centric` ablation the same seeds reproduce the stale
//! atomic reads, lost updates and torn words of the paper's Figs. 11–12.
//!
//! The *transistency* extension fuzzes VM operations × consistency:
//! [`Litmus::generate_vm`] interleaves explicit `mprotect`, COW-break,
//! T2P-conversion, twin-commit and TLB-shootdown ops with the consistency
//! vocabulary, [`Litmus::vm_variants`] deterministically enumerates VM-op
//! placements over a small base program (DPOR-lite), and
//! [`check_transistency_seed`] / [`check_transistency_variants`] run them
//! through the same differential checker. With TMI on every transistency
//! seed must check clean; with `--ablate-shootdown` (drop precise per-PTE
//! TLB shootdowns, [`CheckConfig::ablate_shootdown`]) stale translations
//! surface as value, final-memory and permission divergences.
//!
//! ```
//! use tmi_oracle::{check_seed, CheckConfig};
//!
//! let report = check_seed(7, &CheckConfig::default());
//! assert!(report.clean(), "{}", report.render());
//! ```

pub mod diff;
pub mod interp;
pub mod litmus;

pub use diff::{
    check_litmus, check_seed, check_transistency_seed, check_transistency_variants,
    derive_fault_seed, run_seed_raw, run_transistency_seed_raw, trace_litmus, CheckConfig,
    CheckReport, Divergence, DivergenceKind, FaultSummary, RawRun,
};
pub use interp::{Interp, RefStep};
pub use litmus::{Coverage, Guard, GuardKind, Litmus, Slot, SlotClass};

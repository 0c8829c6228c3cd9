#![warn(missing_docs)]

//! # tmi-machine — simulated cache-coherent multicore
//!
//! This crate models the hardware substrate that the TMI paper (DeLozier et
//! al., MICRO-50 2017) relies on: a multicore processor with per-core private
//! caches kept coherent by an invalidation-based MESI protocol that enforces
//! the single-writer/multiple-reader (SWMR) invariant, plus the precise
//! event-based sampling (PEBS) *HITM* events that Intel chips expose when a
//! core's memory request hits a line held **M**odified in a remote private
//! cache.
//!
//! Two properties matter for reproducing the paper:
//!
//! 1. **Caches are physically indexed.** A cache line is identified by its
//!    *physical* address, so remapping a virtual page onto a fresh physical
//!    frame (what TMI's page-twinning store buffer does) moves the data onto
//!    different lines and dissolves false sharing — for exactly the same
//!    reason it does on real silicon.
//! 2. **Contention is expensive.** Accesses that hit a remote modified line
//!    pay a large latency (and emit a [`HitmEvent`]), so false sharing slows
//!    simulated programs by roughly an order of magnitude, matching §1 of the
//!    paper.
//!
//! The data plane ([`PhysMem`]) is separate from the coherence plane
//! ([`Machine`]): the execution engine in `tmi-sim` linearizes operations, so
//! stores can be applied directly to physical memory while the [`Machine`]
//! tracks MESI state purely for latency accounting and HITM generation.
//!
//! ```
//! use tmi_machine::{Machine, MachineConfig, AccessKind, Width, PhysAddr};
//!
//! let mut m = Machine::new(MachineConfig::with_cores(2));
//! // Core 0 writes a line, core 1 then reads it: the read hits modified
//! // data in core 0's private cache and generates a HITM event.
//! m.access(0, PhysAddr::new(0x1000), AccessKind::Store, Width::W8);
//! let out = m.access(1, PhysAddr::new(0x1000), AccessKind::Load, Width::W8);
//! assert!(out.hitm.is_some());
//! ```

pub mod addr;
pub mod cache;
pub mod coherence;
mod dirtab;
pub mod hitm;
pub mod latency;
pub mod physmem;
pub mod stats;

pub use addr::{CoreId, FrameId, LineAddr, PhysAddr, VAddr, Vpn, Width, FRAME_SIZE, LINE_SIZE};
pub use cache::{Cache, CacheConfig, MesiState};
pub use coherence::{AccessKind, AccessOutcome, Machine, MachineConfig, MAX_CORES};
pub use hitm::HitmEvent;
pub use latency::LatencyModel;
pub use physmem::PhysMem;
pub use stats::MachineStats;

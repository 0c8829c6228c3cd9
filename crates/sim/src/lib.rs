#![warn(missing_docs)]

//! # tmi-sim — the discrete-event execution engine
//!
//! Glues the substrates together: simulated threads ([`tmi_program`]) run
//! on a coherent multicore ([`tmi_machine`]) under a virtual-memory kernel
//! ([`tmi_os`]), while a pluggable runtime system ([`RuntimeHooks`])
//! observes and intervenes — exactly the vantage points the TMI paper's
//! runtime gets from `perf`, `ptrace`, interposed pthreads and
//! code-centric consistency callbacks.
//!
//! The engine is deterministic: oldest-clock-first scheduling over
//! per-thread cycle clocks, no host time, no host randomness. Two runs of
//! the same configuration produce identical cycle counts, which is what
//! makes the paper's figures reproducible as exact numbers.
//!
//! ```
//! use tmi_sim::{Engine, EngineConfig, NullRuntime};
//! use tmi_os::MapRequest;
//! use tmi_program::{Op, SequenceProgram, InstrKind};
//! use tmi_machine::{VAddr, Width, FRAME_SIZE};
//!
//! let mut e = Engine::new(EngineConfig::with_cores(2), NullRuntime);
//! let obj = e.core_mut().kernel.create_object(4 * FRAME_SIZE);
//! let aspace = e.core_mut().kernel.create_aspace();
//! e.core_mut().kernel.map(aspace,
//!     MapRequest::object(VAddr::new(0x10000), 4 * FRAME_SIZE, obj, 0))?;
//! e.create_root_process(aspace);
//! let pc = e.core_mut().code.instr("ex::store", InstrKind::Store, Width::W8);
//! e.add_thread(Box::new(SequenceProgram::new(vec![
//!     Op::Store { pc, addr: VAddr::new(0x10000), width: Width::W8, value: 9 },
//! ])));
//! let report = e.run();
//! assert!(report.completed());
//! # Ok::<(), tmi_os::OsError>(())
//! ```

pub mod engine;
pub mod hooks;
pub mod sync;

pub use engine::{Engine, EngineConfig, EngineCore, Halt, RunReport, TraceStep};
pub use hooks::{
    AccessInfo, EngineCtl, NullRuntime, PreAccess, RegionEvent, Route, RuntimeHooks, SyncEvent,
};
pub use sync::{BarrierState, MutexState, SyncTable};

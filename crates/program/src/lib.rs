#![warn(missing_docs)]

//! # tmi-program — the simulated program representation
//!
//! TMI operates on unmodified x86 binaries: it disassembles the application
//! to learn which instruction addresses are loads and stores and how wide
//! they are (§3.1), and it relies on compiler-inserted callbacks to learn
//! where C/C++ *atomic* operations and inline *assembly* regions begin and
//! end (§3.4.2, code-centric consistency). This crate is the simulator's
//! stand-in for all of that:
//!
//! * [`Op`] — one dynamic instruction: plain loads/stores, C++11 atomics
//!   with explicit memory orders, CAS, fences, assembly-region markers,
//!   pthread-style synchronization, and local compute.
//! * [`Pc`] / [`InstrInfo`] / [`CodeRegistry`] — the *static* side: every
//!   memory-touching op carries a program counter, and the registry is the
//!   "binary" that maps PCs back to `{load/store, width, atomic?, asm?}` —
//!   exactly what TMI's disassembler recovers at detection time.
//! * [`ThreadProgram`] — a thread as a resumable state machine: the engine
//!   feeds each completed op's result back in and receives the next op,
//!   which lets workloads express data-dependent behaviour (e.g. histogram
//!   bins chosen by pixel values) without a full ISA interpreter.
//!
//! ```
//! use tmi_program::{CodeRegistry, InstrKind, Op, OpResult, SequenceProgram, ThreadProgram};
//! use tmi_machine::{VAddr, Width};
//!
//! let mut code = CodeRegistry::new();
//! let pc = code.instr("demo::store_x", InstrKind::Store, Width::W2);
//! let mut prog = SequenceProgram::new(vec![Op::Store {
//!     pc,
//!     addr: VAddr::new(0x1000),
//!     width: Width::W2,
//!     value: 0xAB00,
//! }]);
//! assert!(matches!(prog.next(OpResult::none()), Op::Store { .. }));
//! assert!(matches!(prog.next(OpResult::none()), Op::Exit));
//! ```

pub mod build;
pub mod code;
pub mod op;
pub mod program;

pub use build::OpBuilder;
pub use code::{CodeRegistry, InstrInfo, InstrKind, Pc};
pub use op::{width_mask, MemOrder, Op, RmwOp, VmOp};
pub use program::{OpResult, SequenceProgram, ThreadProgram};

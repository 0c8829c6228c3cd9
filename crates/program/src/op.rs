//! Dynamic operations: what a simulated thread asks the machine to do next.

use std::fmt;

use tmi_machine::{VAddr, Width};

use crate::code::Pc;

/// C++11 memory orders (§3.4: TMI distinguishes `memory_order_relaxed`,
/// which requires only atomicity, from stronger orders that also require
/// ordering and therefore force a PTSB flush).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MemOrder {
    /// Atomicity only; no ordering. Does **not** flush the PTSB under TMI.
    Relaxed,
    /// Load-acquire.
    Acquire,
    /// Store-release.
    Release,
    /// Both acquire and release (RMW).
    AcqRel,
    /// Sequentially consistent.
    SeqCst,
}

impl MemOrder {
    /// True for every order stronger than `Relaxed`.
    pub fn is_ordering(self) -> bool {
        self != MemOrder::Relaxed
    }
}

/// The arithmetic applied by an atomic read-modify-write.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RmwOp {
    /// `fetch_add`
    Add,
    /// `fetch_sub`
    Sub,
    /// `fetch_and`
    And,
    /// `fetch_or`
    Or,
    /// `fetch_xor`
    Xor,
    /// `exchange`
    Xchg,
}

impl RmwOp {
    /// Applies the operation to `old` with `operand`, truncated to `width`.
    pub fn apply(self, old: u64, operand: u64, width: Width) -> u64 {
        let mask = width_mask(width);
        let v = match self {
            RmwOp::Add => old.wrapping_add(operand),
            RmwOp::Sub => old.wrapping_sub(operand),
            RmwOp::And => old & operand,
            RmwOp::Or => old | operand,
            RmwOp::Xor => old ^ operand,
            RmwOp::Xchg => operand,
        };
        v & mask
    }
}

/// Bit mask covering `width` bytes.
pub fn width_mask(width: Width) -> u64 {
    match width {
        Width::W1 => 0xff,
        Width::W2 => 0xffff,
        Width::W4 => 0xffff_ffff,
        Width::W8 => u64::MAX,
    }
}

/// A virtual-memory operation a thread can request mid-program, the
/// vocabulary of transistency litmus tests (TransForm): VM ops
/// interleaved with plain accesses, so remapping-under-running-threads
/// bugs (stale TLB entries, lost twin commits, partial rollbacks)
/// become observable as consistency divergences.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VmOp {
    /// Arm the page read-only/COW (TMI's page protection step). A no-op
    /// unless a repair episode is active.
    Mprotect,
    /// Force a COW break: perform the write-fault path on the page as if
    /// a store had hit a read-only COW mapping.
    CowBreak,
    /// Force a T2P conversion + arming of the page (starts a repair
    /// episode on the governor if none is active).
    T2p,
    /// Commit this thread's twin for the page set (diff-and-merge), as a
    /// sync point would.
    TwinCommit,
    /// Request a TLB shootdown of the page's translation on every core.
    Shootdown,
}

/// One dynamic operation issued by a thread program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Plain load; the loaded value is fed back via
    /// [`crate::OpResult::value`].
    Load {
        /// Static instruction.
        pc: Pc,
        /// Virtual address.
        addr: VAddr,
        /// Access width.
        width: Width,
    },
    /// Plain store of the low `width` bytes of `value`.
    Store {
        /// Static instruction.
        pc: Pc,
        /// Virtual address.
        addr: VAddr,
        /// Access width.
        width: Width,
        /// Value to store.
        value: u64,
    },
    /// C++11 atomic load.
    AtomicLoad {
        /// Static instruction.
        pc: Pc,
        /// Virtual address (must be naturally aligned).
        addr: VAddr,
        /// Access width.
        width: Width,
        /// Memory order.
        order: MemOrder,
    },
    /// C++11 atomic store.
    AtomicStore {
        /// Static instruction.
        pc: Pc,
        /// Virtual address (must be naturally aligned).
        addr: VAddr,
        /// Access width.
        width: Width,
        /// Value to store.
        value: u64,
        /// Memory order.
        order: MemOrder,
    },
    /// C++11 atomic read-modify-write; the *previous* value is fed back.
    AtomicRmw {
        /// Static instruction.
        pc: Pc,
        /// Virtual address (must be naturally aligned).
        addr: VAddr,
        /// Access width.
        width: Width,
        /// Operation.
        rmw: RmwOp,
        /// Right-hand operand.
        operand: u64,
        /// Memory order.
        order: MemOrder,
    },
    /// Atomic compare-and-swap; the *observed* value is fed back (success
    /// iff it equals `expected`).
    Cas {
        /// Static instruction.
        pc: Pc,
        /// Virtual address (must be naturally aligned).
        addr: VAddr,
        /// Access width.
        width: Width,
        /// Expected current value.
        expected: u64,
        /// Replacement value on success.
        desired: u64,
        /// Memory order.
        order: MemOrder,
    },
    /// A memory fence.
    Fence {
        /// Fence strength.
        order: MemOrder,
    },
    /// Start of an inline-assembly region (code-centric consistency
    /// callback; §3.4.2). Accesses until [`Op::AsmExit`] get TSO semantics.
    AsmEnter,
    /// End of an inline-assembly region.
    AsmExit,
    /// `pthread_mutex_lock`. The lock *object* lives at `lock` in simulated
    /// memory, so lock arrays can themselves falsely share (spinlockpool).
    MutexLock {
        /// Address of the lock object.
        lock: VAddr,
    },
    /// `pthread_mutex_unlock`.
    MutexUnlock {
        /// Address of the lock object.
        lock: VAddr,
    },
    /// Spinlock acquire (busy-waits with atomic exchanges, generating real
    /// coherence traffic while contended).
    SpinLock {
        /// Address of the lock word.
        lock: VAddr,
    },
    /// Spinlock release.
    SpinUnlock {
        /// Address of the lock word.
        lock: VAddr,
    },
    /// `pthread_barrier_wait` across all threads registered on the barrier.
    BarrierWait {
        /// Address of the barrier object.
        barrier: VAddr,
    },
    /// Local computation costing `cycles` with no memory traffic.
    Compute {
        /// Cycle cost.
        cycles: u64,
    },
    /// A virtual-memory operation on the page containing `addr`
    /// (transistency litmus vocabulary). The engine feeds back a small
    /// outcome code via [`crate::OpResult::value`]: `1` if the operation
    /// took effect, `0` if it was a no-op in the current governor state.
    Vm {
        /// Which VM operation.
        op: VmOp,
        /// Any address on the targeted page.
        addr: VAddr,
    },
    /// Thread termination; the engine will not call the program again.
    Exit,
}

impl Op {
    /// The static PC of this op, if it is a memory access.
    pub fn pc(&self) -> Option<Pc> {
        match *self {
            Op::Load { pc, .. }
            | Op::Store { pc, .. }
            | Op::AtomicLoad { pc, .. }
            | Op::AtomicStore { pc, .. }
            | Op::AtomicRmw { pc, .. }
            | Op::Cas { pc, .. } => Some(pc),
            _ => None,
        }
    }
}

impl fmt::Display for MemOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemOrder::Relaxed => "relaxed",
            MemOrder::Acquire => "acquire",
            MemOrder::Release => "release",
            MemOrder::AcqRel => "acq_rel",
            MemOrder::SeqCst => "seq_cst",
        };
        f.write_str(s)
    }
}

impl fmt::Display for VmOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VmOp::Mprotect => "mprotect",
            VmOp::CowBreak => "cow_break",
            VmOp::T2p => "t2p",
            VmOp::TwinCommit => "twin_commit",
            VmOp::Shootdown => "shootdown",
        };
        f.write_str(s)
    }
}

impl fmt::Display for RmwOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RmwOp::Add => "add",
            RmwOp::Sub => "sub",
            RmwOp::And => "and",
            RmwOp::Or => "or",
            RmwOp::Xor => "xor",
            RmwOp::Xchg => "xchg",
        };
        f.write_str(s)
    }
}

/// One-line assembly-like rendering, used by litmus-program listings in
/// divergence reports (`tmi-oracle`).
impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Load { addr, width, .. } => write!(f, "load.{width} {addr}"),
            Op::Store {
                addr, width, value, ..
            } => write!(f, "store.{width} {addr} <- {value:#x}"),
            Op::AtomicLoad {
                addr, width, order, ..
            } => write!(f, "atomic_load.{width}.{order} {addr}"),
            Op::AtomicStore {
                addr,
                width,
                value,
                order,
                ..
            } => write!(f, "atomic_store.{width}.{order} {addr} <- {value:#x}"),
            Op::AtomicRmw {
                addr,
                width,
                rmw,
                operand,
                order,
                ..
            } => write!(f, "atomic_{rmw}.{width}.{order} {addr}, {operand:#x}"),
            Op::Cas {
                addr,
                width,
                expected,
                desired,
                order,
                ..
            } => write!(
                f,
                "cas.{width}.{order} {addr}, {expected:#x} -> {desired:#x}"
            ),
            Op::Fence { order } => write!(f, "fence.{order}"),
            Op::AsmEnter => f.write_str("asm_enter"),
            Op::AsmExit => f.write_str("asm_exit"),
            Op::MutexLock { lock } => write!(f, "mutex_lock {lock}"),
            Op::MutexUnlock { lock } => write!(f, "mutex_unlock {lock}"),
            Op::SpinLock { lock } => write!(f, "spin_lock {lock}"),
            Op::SpinUnlock { lock } => write!(f, "spin_unlock {lock}"),
            Op::BarrierWait { barrier } => write!(f, "barrier_wait {barrier}"),
            Op::Compute { cycles } => write!(f, "compute {cycles}"),
            Op::Vm { op, addr } => write!(f, "vm.{op} {addr}"),
            Op::Exit => f.write_str("exit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_apply_semantics() {
        assert_eq!(RmwOp::Add.apply(10, 5, Width::W8), 15);
        assert_eq!(RmwOp::Sub.apply(10, 5, Width::W8), 5);
        assert_eq!(RmwOp::Xchg.apply(10, 5, Width::W8), 5);
        assert_eq!(RmwOp::And.apply(0b1100, 0b1010, Width::W8), 0b1000);
        assert_eq!(RmwOp::Or.apply(0b1100, 0b1010, Width::W8), 0b1110);
        assert_eq!(RmwOp::Xor.apply(0b1100, 0b1010, Width::W8), 0b0110);
    }

    #[test]
    fn rmw_truncates_to_width() {
        assert_eq!(RmwOp::Add.apply(0xff, 1, Width::W1), 0);
        assert_eq!(RmwOp::Add.apply(0xffff, 1, Width::W2), 0);
    }

    #[test]
    fn order_classification() {
        assert!(!MemOrder::Relaxed.is_ordering());
        for o in [
            MemOrder::Acquire,
            MemOrder::Release,
            MemOrder::AcqRel,
            MemOrder::SeqCst,
        ] {
            assert!(o.is_ordering());
        }
    }

    #[test]
    fn op_classification() {
        let pc = Pc(0x400000);
        let atomic = Op::AtomicRmw {
            pc,
            addr: VAddr::new(0),
            width: Width::W4,
            rmw: RmwOp::Add,
            operand: 1,
            order: MemOrder::Relaxed,
        };
        assert_eq!(atomic.pc(), Some(pc));
        let lock = Op::MutexLock {
            lock: VAddr::new(64),
        };
        assert_eq!(lock.pc(), None);
        let vm = Op::Vm {
            op: VmOp::Shootdown,
            addr: VAddr::new(0x1000),
        };
        assert_eq!(vm.pc(), None);
        assert_eq!(vm.to_string(), "vm.shootdown 0x1000");
    }
}

//! The runtime-hook interface: how TMI (and the Sheriff/LASER baselines)
//! observe and steer a running program.
//!
//! The paper's TMI attaches to an application from the outside — `ptrace`
//! stops, `perf` buffers, interposed pthread functions, and the LLVM-
//! inserted code-centric consistency callbacks (§3.4.2). In the simulator
//! all of those arrive through one trait, [`RuntimeHooks`], whose methods
//! the engine calls at the equivalent points:
//!
//! | paper mechanism                        | hook                     |
//! |----------------------------------------|--------------------------|
//! | PEBS HITM record                       | [`RuntimeHooks::post_access`] |
//! | code-centric consistency callbacks     | [`RuntimeHooks::pre_access`], [`RuntimeHooks::on_region`] |
//! | interposed `pthread_mutex_*`           | [`RuntimeHooks::map_lock`], [`RuntimeHooks::on_sync`] |
//! | detection thread (1 Hz analysis, §4.3) | [`RuntimeHooks::on_tick`] |
//! | `ptrace` stop-the-world + `fork`       | [`EngineCtl`] methods usable from any hook |

use tmi_machine::{AccessKind, AccessOutcome, VAddr, Width};
use tmi_os::{FaultResolution, Tid};
use tmi_program::{MemOrder, Pc, VmOp};

/// Description of a memory access about to execute (or just executed).
///
/// As in the C/C++ memory model, an access is atomic exactly when it
/// carries a memory order: the program's atomic loads, stores, RMWs and
/// CASes, and the spinlock's exchange and release store. A plain access,
/// including the simulated glibc's locked RMW on a mutex or barrier word,
/// has none.
#[derive(Clone, Copy, Debug)]
pub struct AccessInfo {
    /// Static instruction.
    pub pc: Pc,
    /// Virtual address the program issued.
    pub vaddr: VAddr,
    /// Width.
    pub width: Width,
    /// Load / store / RMW.
    pub kind: AccessKind,
    /// Memory order of an atomic access; `None` for a plain one.
    pub order: Option<MemOrder>,
    /// True if the issuing thread is inside an inline-assembly region.
    pub in_asm: bool,
}

/// How an access should be routed through the address space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Route {
    /// Translate through the thread's page table as-is; copy-on-write
    /// faults may redirect writes to a private page.
    #[default]
    Normal,
    /// Bypass any private COW copy and access the *shared object* frame —
    /// the always-shared first mapping of Fig. 6. TMI routes atomics and
    /// assembly-region accesses here so they keep their native semantics.
    SharedObject,
    /// Perform the data access without a coherence transaction: the value
    /// plane is updated but no cache state changes and no latency or HITM
    /// is generated. Models software store buffers (LASER) and
    /// byte-granularity remapping (Plastic), whose emulated accesses do not
    /// touch the contended line; the runtime charges the emulation cost via
    /// [`PreAccess::extra_cycles`].
    Uncached,
}

/// Decision returned by [`RuntimeHooks::pre_access`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PreAccess {
    /// Extra cycles charged before the access (e.g. a PTSB flush forced by
    /// a strong atomic).
    pub extra_cycles: u64,
    /// Routing decision.
    pub route: Route,
}

/// A synchronization event at which the PTSB commits (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncEvent {
    /// About to acquire a mutex.
    MutexLock(VAddr),
    /// About to release a mutex.
    MutexUnlock(VAddr),
    /// About to acquire a spinlock.
    SpinLock(VAddr),
    /// About to release a spinlock.
    SpinUnlock(VAddr),
    /// Arriving at a barrier.
    BarrierWait(VAddr),
    /// Thread termination (`pthread_exit`; joining it is a sync point, so
    /// any buffered writes must commit now).
    ThreadExit,
}

/// A code-centric consistency region event (§3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionEvent {
    /// Entering an inline-assembly region.
    AsmEnter,
    /// Leaving an inline-assembly region.
    AsmExit,
    /// A standalone fence of the given order.
    Fence(MemOrder),
}

/// Control surface the engine exposes to hooks. Implemented by the engine
/// core; hooks receive it as `&mut dyn EngineCtl`.
pub trait EngineCtl {
    /// The kernel (address spaces, processes, protection API).
    fn kernel(&mut self) -> &mut tmi_os::Kernel;
    /// All thread ids, in creation order.
    fn tids(&self) -> Vec<Tid>;
    /// Adds `cycles` to one thread's clock (e.g. a `ptrace` stop).
    fn add_cycles(&mut self, tid: Tid, cycles: u64);
    /// Adds `cycles` to every thread's clock (stop-the-world).
    fn add_cycles_all(&mut self, cycles: u64);
    /// Global simulated time: the minimum clock over unfinished threads.
    fn now(&self) -> u64;
    /// The static code table (for disassembly).
    fn code(&self) -> &tmi_program::CodeRegistry;
}

/// Observation and intervention points for a runtime system.
///
/// Every method has a no-op default, so [`NullRuntime`] — plain pthreads
/// execution — is the empty implementation.
#[allow(unused_variables)]
pub trait RuntimeHooks {
    /// Called once before execution starts, after all threads are added.
    fn on_start(&mut self, ctl: &mut dyn EngineCtl) {}

    /// Called before each memory access; may add cycles and choose routing.
    fn pre_access(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, acc: &AccessInfo) -> PreAccess {
        PreAccess::default()
    }

    /// Called after each memory access with its outcome (including any
    /// HITM event). Returns extra cycles (e.g. PEBS record capture cost).
    fn post_access(
        &mut self,
        ctl: &mut dyn EngineCtl,
        tid: Tid,
        acc: &AccessInfo,
        outcome: &AccessOutcome,
    ) -> u64 {
        0
    }

    /// Called when a page fault taken by `tid` was resolved. This is where
    /// a PTSB runtime snapshots twin pages on COW breaks.
    fn on_fault(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, res: &FaultResolution) {}

    /// Called when resolving a fault (or shared-object translation) for
    /// `tid` at `addr` *failed* with a kernel error — out of frames, a
    /// transient map failure, a vetoed fork. `attempt` counts consecutive
    /// failures of this same access, starting at 1.
    ///
    /// Return `Some(backoff_cycles)` to charge the thread and retry the
    /// access, or `None` to abort the run with the error. The default is
    /// `None`: a runtime with no self-healing governor treats every kernel
    /// error as fatal, exactly as before this hook existed.
    fn on_fault_error(
        &mut self,
        ctl: &mut dyn EngineCtl,
        tid: Tid,
        addr: VAddr,
        err: &tmi_os::OsError,
        attempt: u32,
    ) -> Option<u64> {
        None
    }

    /// Called at each synchronization operation, before it takes effect.
    /// Returns extra cycles (the PTSB diff-and-merge commit).
    fn on_sync(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, ev: SyncEvent) -> u64 {
        0
    }

    /// Called at code-centric consistency region boundaries.
    /// Returns extra cycles.
    fn on_region(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, ev: RegionEvent) -> u64 {
        0
    }

    /// Called when a thread issues an explicit virtual-memory operation
    /// ([`tmi_program::Op::Vm`], the transistency litmus vocabulary).
    /// Returns a small outcome code that the engine feeds back to the
    /// program and records in the trace: `1` if the operation took
    /// effect, `0` if it was a no-op in the current runtime state.
    ///
    /// The outcome must depend only on architectural state (page tables,
    /// governor state machine) — never on TLB occupancy — so that runs
    /// with and without the software TLB stay byte-identical. The default ignores the request: a runtime
    /// without a repair governor has no remapping machinery to drive.
    fn on_vm_op(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, op: VmOp, addr: VAddr) -> u64 {
        0
    }

    /// Redirects a mutex to a different lock object (TMI's interposed
    /// `pthread_mutex_init`, §3.2). Returns the effective lock address and
    /// extra cycles (the pointer indirection).
    fn map_lock(&mut self, ctl: &mut dyn EngineCtl, tid: Tid, lock: VAddr) -> (VAddr, u64) {
        (lock, 0)
    }

    /// Periodic callback at the engine's tick interval (the detection
    /// thread's 1 Hz analysis pass, scaled).
    fn on_tick(&mut self, ctl: &mut dyn EngineCtl, now: u64) {}
}

/// Plain pthreads execution: no monitoring, no repair.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRuntime;

impl RuntimeHooks for NullRuntime {}

impl tmi_telemetry::MetricSource for NullRuntime {
    fn metrics(&self, _out: &mut tmi_telemetry::MetricSink) {}
}

//! The sequentially consistent reference interpreter.
//!
//! [`Interp`] executes the same per-thread [`Op`] lists the engine runs,
//! but directly against one flat shared memory: every store is globally
//! visible the instant it executes, every load reads the latest store in
//! schedule order — sequential consistency *per schedule*. Driving it with
//! the exact schedule recorded by [`tmi_sim::Engine::take_trace`] yields
//! the value-oracle for the differential checker: under code-centric
//! consistency, a data-race-free litmus program run through the full TMI
//! repair path (COW, twins, PTSB commits) must produce exactly the values
//! the interpreter produces for the same interleaving.
//!
//! The interpreter mirrors the engine's synchronization semantics
//! operation for operation — FIFO mutex handoff, spinlock acquire
//! attempts that fail without advancing the program, all-thread barriers —
//! so an engine trace replays step for step, including the repeated
//! `spin_lock` steps of a contended acquire.

use std::collections::{HashMap, VecDeque};

use tmi_machine::{VAddr, Width};
use tmi_program::{width_mask, Op};

/// One interpreted step: the op the scheduled thread executed and the
/// value it produced, shaped exactly like [`tmi_sim::TraceStep`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefStep {
    /// The thread that was stepped.
    pub thread: u32,
    /// The op it executed (a failed spinlock attempt repeats the op).
    pub op: Op,
    /// The value produced (loads, RMW old values, CAS observations).
    pub value: Option<u64>,
}

#[derive(Debug, Default)]
struct MutexSt {
    owner: Option<u32>,
    waiters: VecDeque<u32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Blocked,
    Done,
}

/// Per-thread program state.
#[derive(Debug)]
struct ThreadCtx {
    ops: Vec<Op>,
    cursor: usize,
    /// A spinlock op that failed and must be re-executed.
    replay: Option<Op>,
    state: ThreadState,
    asm_depth: u32,
}

impl ThreadCtx {
    fn peek(&self) -> Op {
        self.replay
            .unwrap_or_else(|| self.ops.get(self.cursor).copied().unwrap_or(Op::Exit))
    }
}

/// The reference interpreter (see the module docs).
#[derive(Debug)]
pub struct Interp {
    mem: HashMap<u64, u8>,
    mutexes: HashMap<u64, MutexSt>,
    spins: HashMap<u64, Option<u32>>,
    barrier_arrived: HashMap<u64, Vec<u32>>,
    threads: Vec<ThreadCtx>,
}

impl Interp {
    /// Creates an interpreter over per-thread op lists. Memory starts
    /// zeroed, like the engine's demand-paged object frames.
    pub fn new(threads: Vec<Vec<Op>>) -> Interp {
        Interp {
            mem: HashMap::new(),
            mutexes: HashMap::new(),
            spins: HashMap::new(),
            barrier_arrived: HashMap::new(),
            threads: threads
                .into_iter()
                .map(|ops| ThreadCtx {
                    ops,
                    cursor: 0,
                    replay: None,
                    state: ThreadState::Runnable,
                    asm_depth: 0,
                })
                .collect(),
        }
    }

    /// Reads `width` bytes at `addr` from the interpreter's memory.
    pub fn read(&self, addr: VAddr, width: Width) -> u64 {
        let mut v = 0u64;
        for i in (0..width.bytes()).rev() {
            v = (v << 8) | u64::from(*self.mem.get(&(addr.raw() + i)).unwrap_or(&0));
        }
        v
    }

    fn write(&mut self, addr: VAddr, width: Width, value: u64) {
        let v = value & width_mask(width);
        for i in 0..width.bytes() {
            self.mem.insert(addr.raw() + i, (v >> (8 * i)) as u8);
        }
    }

    /// Executes the next op of `thread` under sequential consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of why the step is infeasible: the thread is
    /// blocked or finished, a region is unbalanced, or a lock is released
    /// by a non-owner. When replaying an engine trace any of these means
    /// the trace cannot be an execution of the program — a divergence in
    /// itself.
    pub fn step(&mut self, thread: u32) -> Result<RefStep, String> {
        let idx = thread as usize;
        if idx >= self.threads.len() {
            return Err(format!("no such thread t{thread}"));
        }
        match self.threads[idx].state {
            ThreadState::Done => return Err(format!("t{thread} stepped after exit")),
            ThreadState::Blocked => return Err(format!("t{thread} stepped while blocked")),
            ThreadState::Runnable => {}
        }
        let op = self.threads[idx].peek();
        self.threads[idx].replay = None;
        let mut advanced = true;
        let mut value = None;
        match op {
            Op::Load { addr, width, .. } => value = Some(self.read(addr, width)),
            Op::Store {
                addr, width, value, ..
            } => self.write(addr, width, value),
            Op::AtomicLoad { addr, width, .. } => value = Some(self.read(addr, width)),
            Op::AtomicStore {
                addr, width, value, ..
            } => self.write(addr, width, value),
            Op::AtomicRmw {
                addr,
                width,
                rmw,
                operand,
                ..
            } => {
                let old = self.read(addr, width);
                self.write(addr, width, rmw.apply(old, operand, width));
                value = Some(old);
            }
            Op::Cas {
                addr,
                width,
                expected,
                desired,
                ..
            } => {
                let observed = self.read(addr, width);
                if observed == expected {
                    self.write(addr, width, desired);
                }
                value = Some(observed);
            }
            Op::Fence { .. } | Op::Compute { .. } => {}
            Op::AsmEnter => self.threads[idx].asm_depth += 1,
            Op::AsmExit => {
                if self.threads[idx].asm_depth == 0 {
                    return Err(format!("t{thread}: asm_exit without asm_enter"));
                }
                self.threads[idx].asm_depth -= 1;
            }
            Op::MutexLock { lock } => {
                let m = self.mutexes.entry(lock.raw()).or_default();
                match m.owner {
                    None => m.owner = Some(thread),
                    Some(o) if o == thread => {
                        return Err(format!("t{thread}: relock of held mutex {lock}"))
                    }
                    Some(_) => {
                        m.waiters.push_back(thread);
                        self.threads[idx].state = ThreadState::Blocked;
                    }
                }
            }
            Op::MutexUnlock { lock } => {
                let m = self.mutexes.entry(lock.raw()).or_default();
                if m.owner != Some(thread) {
                    return Err(format!("t{thread}: unlock of mutex {lock} it does not own"));
                }
                m.owner = m.waiters.pop_front();
                if let Some(next) = m.owner {
                    self.threads[next as usize].state = ThreadState::Runnable;
                }
            }
            Op::SpinLock { lock } => {
                let s = self.spins.entry(lock.raw()).or_default();
                match *s {
                    None => *s = Some(thread),
                    Some(_) => {
                        // Failed exchange: the engine re-issues the op.
                        self.threads[idx].replay = Some(op);
                        advanced = false;
                    }
                }
            }
            Op::SpinUnlock { lock } => {
                let s = self.spins.entry(lock.raw()).or_default();
                if *s != Some(thread) {
                    return Err(format!(
                        "t{thread}: release of spinlock {lock} it does not hold"
                    ));
                }
                *s = None;
            }
            Op::BarrierWait { barrier } => {
                let arrived = self.barrier_arrived.entry(barrier.raw()).or_default();
                arrived.push(thread);
                if arrived.len() >= self.threads.len() {
                    for t in std::mem::take(arrived) {
                        self.threads[t as usize].state = ThreadState::Runnable;
                    }
                } else {
                    self.threads[idx].state = ThreadState::Blocked;
                }
            }
            // VM operations are memory-transparent under SC: mprotect, COW
            // breaks, T2P conversions, twin commits and shootdowns change
            // *mappings*, never the values a correct engine lets the program
            // observe. The engine reports an outcome code through the trace
            // value slot; the interpreter has no mapping state, so it yields
            // no value and the differential checker skips value comparison
            // for these steps (outcome codes are checked fast-vs-reference
            // path instead).
            Op::Vm { .. } => {}
            Op::Exit => {
                if self.threads[idx].asm_depth != 0 {
                    return Err(format!("t{thread}: exit inside asm region"));
                }
                self.threads[idx].state = ThreadState::Done;
            }
        }
        if advanced && self.threads[idx].cursor < self.threads[idx].ops.len() {
            self.threads[idx].cursor += 1;
        }
        Ok(RefStep { thread, op, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmi_program::{MemOrder, OpBuilder, Pc, RmwOp};

    const PC: Pc = Pc(0x40_0000);
    const X: VAddr = VAddr::new(0x10_0000);
    const Y: VAddr = VAddr::new(0x10_0008);
    const LOCK: VAddr = VAddr::new(0x10_8040);
    const BAR: VAddr = VAddr::new(0x10_8000);

    #[test]
    fn store_load_roundtrip_with_masking() {
        let mut it = Interp::new(vec![OpBuilder::new()
            .store(PC, X, Width::W2, 0xABCD_EF01)
            .load(PC, X, Width::W2)
            .load(PC, X, Width::W8)
            .build()]);
        assert_eq!(it.step(0).unwrap().value, None);
        assert_eq!(it.step(0).unwrap().value, Some(0xEF01), "truncated store");
        assert_eq!(it.step(0).unwrap().value, Some(0xEF01), "upper bytes zero");
        assert!(matches!(it.step(0).unwrap().op, Op::Exit));
    }

    #[test]
    fn rmw_and_cas_semantics_match_the_engine() {
        let mut it = Interp::new(vec![OpBuilder::new()
            .rmw(PC, X, Width::W8, RmwOp::Add, 5, MemOrder::Relaxed)
            .rmw(PC, X, Width::W8, RmwOp::Add, 5, MemOrder::SeqCst)
            .cas(PC, X, Width::W8, 10, 99, MemOrder::SeqCst)
            .cas(PC, X, Width::W8, 10, 7, MemOrder::SeqCst)
            .build()]);
        assert_eq!(it.step(0).unwrap().value, Some(0), "old value");
        assert_eq!(it.step(0).unwrap().value, Some(5));
        assert_eq!(it.step(0).unwrap().value, Some(10), "successful CAS");
        assert_eq!(it.step(0).unwrap().value, Some(99), "failed CAS observes");
        assert_eq!(it.read(X, Width::W8), 99);
    }

    #[test]
    fn mutex_blocks_and_hands_off_fifo() {
        let cs = |v: u64| {
            OpBuilder::new()
                .locked(LOCK, |b| b.store(PC, X, Width::W8, v))
                .build()
        };
        let mut it = Interp::new(vec![cs(1), cs(2), cs(3)]);
        it.step(0).unwrap(); // t0 takes the lock
        it.step(1).unwrap(); // t1 blocks
        it.step(2).unwrap(); // t2 blocks behind t1
        assert!(it.step(1).is_err(), "blocked thread cannot be stepped");
        it.step(0).unwrap(); // t0 store
        it.step(0).unwrap(); // t0 unlock -> t1 owns
        it.step(1).unwrap(); // t1 store
        assert!(it.step(2).is_err(), "t2 still blocked");
        it.step(1).unwrap(); // t1 unlock -> t2 owns
        it.step(2).unwrap();
        it.step(2).unwrap();
        assert_eq!(it.read(X, Width::W8), 3, "FIFO order");
    }

    #[test]
    fn failed_spin_attempt_repeats_the_op() {
        let mut it = Interp::new(vec![
            OpBuilder::new()
                .spin_locked(LOCK, |b| b.store(PC, X, Width::W8, 1))
                .build(),
            OpBuilder::new()
                .spin_locked(LOCK, |b| b.store(PC, X, Width::W8, 2))
                .build(),
        ]);
        it.step(0).unwrap(); // t0 acquires
        let s = it.step(1).unwrap(); // t1 attempt fails
        assert!(matches!(s.op, Op::SpinLock { .. }));
        let s = it.step(1).unwrap(); // fails again, op repeated
        assert!(matches!(s.op, Op::SpinLock { .. }));
        it.step(0).unwrap(); // t0 store
        it.step(0).unwrap(); // t0 release
        it.step(1).unwrap(); // t1 acquires now
        it.step(1).unwrap(); // t1 store
        assert_eq!(it.read(X, Width::W8), 2);
    }

    #[test]
    fn barrier_releases_all_threads_at_once() {
        let prog = |v: u64| {
            OpBuilder::new()
                .store(PC, VAddr::new(Y.raw() + 8 * v), Width::W8, v + 1)
                .barrier(BAR)
                .load(PC, Y, Width::W8)
                .build()
        };
        let mut it = Interp::new(vec![prog(0), prog(1)]);
        it.step(0).unwrap();
        it.step(1).unwrap();
        it.step(0).unwrap(); // t0 arrives, blocks
        assert!(it.step(0).is_err());
        it.step(1).unwrap(); // t1 arrives, opens the barrier
        assert_eq!(it.step(0).unwrap().value, Some(1));
        assert_eq!(it.step(1).unwrap().value, Some(1));
    }

    #[test]
    fn misuse_is_reported_as_infeasible() {
        let mut it = Interp::new(vec![
            vec![Op::MutexUnlock { lock: LOCK }],
            vec![Op::AsmExit],
            vec![Op::SpinUnlock { lock: LOCK }],
        ]);
        assert!(it.step(0).is_err());
        assert!(it.step(1).is_err());
        assert!(it.step(2).is_err());
        assert!(it.step(9).is_err(), "unknown thread");
    }
}

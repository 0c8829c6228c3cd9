//! The Boost microbenchmarks (§4.1, §4.3): spinlockpool, shptr-relaxed,
//! shptr-lock. These exist to demonstrate what code-centric consistency
//! buys: `shptr-relaxed` and `shptr-lock` do the *same work*, differing
//! only in how the smart-pointer refcount is synchronized — relaxed
//! atomics (no PTSB flush under TMI) vs a mutex (flush per lock op).

use tmi_machine::{VAddr, Width, LINE_SIZE};
use tmi_os::{AsId, Kernel};
use tmi_program::{InstrKind, MemOrder, Op, RmwOp, ThreadProgram};

use crate::env::{fn_program, read_shared, Lcg, SetupCtx, Workload, WorkloadParams, WorkloadSpec};

fn spec(name: &'static str) -> WorkloadSpec {
    WorkloadSpec {
        name,
        false_sharing: true,
        uses_atomics: false,
        uses_asm: false,
        sheriff_compatible: true,
        big_memory: false,
        allocator_sensitive: false,
    }
}

// ---------------------------------------------------------------------
// spinlockpool
// ---------------------------------------------------------------------

/// `boost::detail::spinlock_pool`: a fixed pool of 41 small locks indexed
/// by pointer hash; the pool packs the locks into a couple of cache lines,
/// so threads operating on *unrelated* data contend on the lock lines —
/// the well-known Boost bug (§4.1, reference \[28\] in the paper).
pub struct SpinlockPool;

impl Workload for SpinlockPool {
    fn spec(&self) -> WorkloadSpec {
        spec("spinlockpool")
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(150_000);
        let pool_size = 41u64;
        // Buggy: 8-byte-spaced locks (8 per line). Fixed: one per line.
        let stride = if params.fixed { LINE_SIZE } else { 8 };
        let pool = ctx.alloc.alloc_aligned(0, pool_size * stride, 64);
        let data: Vec<VAddr> = (0..t)
            .map(|i| ctx.alloc.alloc_aligned(i, 1024, 64))
            .collect();
        let st = ctx
            .code
            .instr("spinlockpool::store_data", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let mine = data[i];
                let mut lcg = Lcg::new(i as u64 + 31);
                let mut n = 0usize;
                let mut step = 0u8;
                let mut lock = VAddr::new(0);
                fn_program(move |_last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        // boost hashes the protected object's address to a
                        // pool slot; different threads land on different
                        // slots of the same line.
                        let slot = lcg.below(pool_size);
                        lock = pool.offset(slot * stride);
                        step = 1;
                        Op::MutexLock { lock }
                    }
                    1 => {
                        // The guarded operation is tiny (a shared_ptr
                        // refcount tweak in the original); the thread's own
                        // data is written only occasionally, off the
                        // critical path.
                        step = 2;
                        Op::Compute { cycles: 15 }
                    }
                    2 => {
                        step = 3;
                        Op::MutexUnlock { lock }
                    }
                    3 => {
                        step = 0;
                        n += 1;
                        if n.is_multiple_of(64) {
                            Op::Store {
                                pc: st,
                                addr: mine.offset(lcg.below(128) * 8),
                                width: Width::W8,
                                value: n as u64,
                            }
                        } else {
                            Op::Compute { cycles: 20 }
                        }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// shptr-relaxed / shptr-lock
// ---------------------------------------------------------------------

/// The shared-pointer microbenchmarks: false sharing on one page
/// (per-thread counters packed into a line) plus periodic smart-pointer
/// refcount manipulation **on a different page**, synchronized either
/// with relaxed atomics (Boost's default) or a mutex.
pub struct SharedPtr {
    /// Use relaxed atomics (`shptr-relaxed`) instead of a mutex
    /// (`shptr-lock`).
    pub relaxed: bool,
    counters: Vec<VAddr>,
    iters: usize,
}

impl SharedPtr {
    /// `shptr-relaxed`.
    pub fn relaxed() -> Self {
        SharedPtr {
            relaxed: true,
            counters: Vec::new(),
            iters: 0,
        }
    }

    /// `shptr-lock`.
    pub fn locked() -> Self {
        SharedPtr {
            relaxed: false,
            counters: Vec::new(),
            iters: 0,
        }
    }
}

impl Workload for SharedPtr {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            uses_atomics: self.relaxed,
            // Sheriff's PTSB breaks the relaxed-atomic refcounts (§4.3:
            // "does not work on ... shptr-relaxed").
            sheriff_compatible: !self.relaxed,
            ..spec(if self.relaxed {
                "shptr-relaxed"
            } else {
                "shptr-lock"
            })
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(200_000);
        self.iters = iters;

        // Page A: the falsely-shared counters.
        self.counters.clear();
        if params.fixed {
            for i in 0..t {
                self.counters.push(ctx.alloc.alloc_line_padded(i, 8));
            }
        } else {
            let base = ctx.alloc.alloc_aligned(0, t as u64 * 8 + 64, 64);
            for i in 0..t {
                self.counters.push(base.offset(i as u64 * 8));
            }
        }

        // Page B (separate page): the smart-pointer control block.
        let ctrl_page = ctx.alloc.alloc_aligned(0, 4096, 4096);
        let refcount = ctrl_page.offset(0);
        let ref_lock = ctrl_page.offset(512);

        let ld_c = ctx
            .code
            .instr("shptr::load_counter", InstrKind::Load, Width::W8);
        let st_c = ctx
            .code
            .instr("shptr::store_counter", InstrKind::Store, Width::W8);
        let rmw = ctx
            .code
            .atomic_instr("shptr::ref_add_relaxed", InstrKind::Rmw, Width::W4);
        let ld_r = ctx
            .code
            .instr("shptr::load_ref", InstrKind::Load, Width::W4);
        let st_r = ctx
            .code
            .instr("shptr::store_ref", InstrKind::Store, Width::W4);

        let relaxed = self.relaxed;
        (0..t)
            .map(|i| {
                let counter = self.counters[i];
                let mut n = 0usize;
                let mut step = 0u8;
                fn_program(move |last| match step {
                    // Hot loop: bump my (falsely shared) counter.
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        step = 1;
                        Op::Load {
                            pc: ld_c,
                            addr: counter,
                            width: Width::W8,
                        }
                    }
                    1 => {
                        let v = last.unwrap();
                        n += 1;
                        step = if n.is_multiple_of(96) { 2 } else { 0 };
                        Op::Store {
                            pc: st_c,
                            addr: counter,
                            width: Width::W8,
                            value: v + 1,
                        }
                    }
                    // Every 96th iteration: a smart-pointer copy+drop.
                    2 => {
                        if relaxed {
                            step = 3;
                            Op::AtomicRmw {
                                pc: rmw,
                                addr: refcount,
                                width: Width::W4,
                                rmw: RmwOp::Add,
                                operand: 1,
                                order: MemOrder::Relaxed,
                            }
                        } else {
                            step = 4;
                            Op::MutexLock { lock: ref_lock }
                        }
                    }
                    3 => {
                        step = 0;
                        Op::AtomicRmw {
                            pc: rmw,
                            addr: refcount,
                            width: Width::W4,
                            rmw: RmwOp::Sub,
                            operand: 1,
                            order: MemOrder::Relaxed,
                        }
                    }
                    4 => {
                        step = 5;
                        Op::Load {
                            pc: ld_r,
                            addr: refcount,
                            width: Width::W4,
                        }
                    }
                    5 => {
                        let v = last.unwrap();
                        step = 6;
                        Op::Store {
                            pc: st_r,
                            addr: refcount,
                            width: Width::W4,
                            value: v + 1,
                        }
                    }
                    6 => {
                        step = 0;
                        Op::MutexUnlock { lock: ref_lock }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }

    fn verify(&self, kernel: &mut Kernel, aspace: AsId) -> Result<(), String> {
        for (i, &c) in self.counters.iter().enumerate() {
            let v = read_shared(kernel, aspace, c, Width::W8);
            if v != self.iters as u64 {
                return Err(format!("thread {i} counter = {v}, expected {}", self.iters));
            }
        }
        Ok(())
    }
}

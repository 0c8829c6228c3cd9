//! A miniature leveldb (§4.1, §4.3): a concurrent key-value store with the
//! sharing structure of Google's leveldb 1.20 —
//!
//! * a striped-mutex hash index (gets and puts),
//! * a writer queue whose head/tail words are heavily *truly* shared
//!   ("leveldb exhibits roughly 10x more HITM events attributable to true
//!   sharing rather than false sharing", §4.2),
//! * atomic pointer operations implemented with inline assembly (8 call
//!   sites in the original, §4.5),
//! * and the paper's **injected false-sharing bug**: "each thread
//!   maintains a local count of operations performed; in our buggy version
//!   these are packed into a single cache line" (§4.3).

use rand::RngCore;
use tmi_machine::{VAddr, Width};
use tmi_os::{AsId, Kernel};
use tmi_program::{InstrKind, MemOrder, Op, RmwOp, ThreadProgram};

use crate::env::{fn_program, read_shared, Lcg, SetupCtx, Workload, WorkloadParams, WorkloadSpec};

/// The leveldb workload. `inject_bug` packs per-thread op counters into
/// one line (the §4.3 experiment); without it the store only has its
/// natural true sharing.
pub struct LevelDb {
    /// Inject the packed-counter false-sharing bug.
    pub inject_bug: bool,
    counters: Vec<VAddr>,
    ops_per_thread: usize,
}

impl LevelDb {
    /// The store as shipped (true sharing only).
    pub fn pristine() -> Self {
        LevelDb {
            inject_bug: false,
            counters: Vec::new(),
            ops_per_thread: 0,
        }
    }

    /// The store with the injected per-thread-counter bug.
    pub fn with_injected_bug() -> Self {
        LevelDb {
            inject_bug: true,
            counters: Vec::new(),
            ops_per_thread: 0,
        }
    }
}

impl Workload for LevelDb {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "leveldb",
            false_sharing: self.inject_bug,
            uses_atomics: true,
            uses_asm: true,
            sheriff_compatible: false, // atomics + asm (§1: "Sheriff ... does not work on ... leveldb")
            big_memory: false,
            allocator_sensitive: false,
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(150_000);
        self.ops_per_thread = iters;

        // The hash index: buckets of (key, value) words, striped locks.
        let buckets = 8192u64;
        let index = ctx.alloc.alloc_aligned(0, buckets * 16, 64);
        for b in (0..buckets).step_by(8) {
            let v = ctx.rng.next_u64();
            ctx.write(index.offset(b * 16), Width::W8, v);
        }
        let stripes = 64u64;
        let stripe_locks = ctx.alloc.alloc_aligned(0, stripes * 64, 64);

        // The writer queue: ring of 512 slots plus head/tail on one line —
        // the std::deque-like true sharing of §4.2.
        let queue = ctx.alloc.alloc_aligned(0, 512 * 8, 64);
        let q_head = ctx.alloc.alloc_aligned(0, 64, 64);
        let q_tail = q_head.offset(8);
        let q_lock = ctx.alloc.alloc_aligned(0, 64, 64);

        // The version refcount, touched via atomic ops in asm regions.
        let refcount = ctx.alloc.alloc_aligned(0, 64, 64);

        // Per-thread op counters: packed into one line when the bug is
        // injected, line-padded otherwise/when fixed.
        self.counters.clear();
        if self.inject_bug && !params.fixed {
            let base = ctx.alloc.alloc_aligned(0, (t as u64) * 8 + 64, 64);
            for i in 0..t {
                self.counters.push(base.offset(i as u64 * 8));
            }
        } else {
            for i in 0..t {
                self.counters.push(ctx.alloc.alloc_line_padded(i, 8));
            }
        }

        let ld_idx = ctx
            .code
            .instr("leveldb::load_bucket", InstrKind::Load, Width::W8);
        let st_idx = ctx
            .code
            .instr("leveldb::store_bucket", InstrKind::Store, Width::W8);
        let ld_ctr = ctx
            .code
            .instr("leveldb::load_opcount", InstrKind::Load, Width::W8);
        let st_ctr = ctx
            .code
            .instr("leveldb::store_opcount", InstrKind::Store, Width::W8);
        let st_q = ctx
            .code
            .instr("leveldb::queue_push", InstrKind::Store, Width::W8);
        let rmw_q = ctx
            .code
            .instr("leveldb::queue_tail", InstrKind::Rmw, Width::W8);
        let ref_rmw = ctx
            .code
            .asm_instr("leveldb::ref_acquire", InstrKind::Rmw, Width::W4);
        let _ = stripe_locks; // reads are lock-free in 1.20's hot path

        // The db_bench `readwhilewriting`-style division of labor: thread 0
        // is the writer, publishing batched write groups under the writer
        // mutex; the other threads are lock-free readers. This keeps
        // synchronization (and the PTSB commits it implies) off the read
        // hot path, as in the original.
        const BATCH: usize = 256;

        (0..t)
            .map(|i| {
                let counter = self.counters[i];
                let mut lcg = Lcg::new(i as u64 + 1234);
                let mut n = 0usize;
                let mut step = 0u8;
                let mut key = 0u64;
                let mut batch_left = 0u8;
                fn_program(move |last| match step {
                    // Per-op: bump the (buggy) op counter.
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        key = lcg.next_u64();
                        step = 1;
                        Op::Load {
                            pc: ld_ctr,
                            addr: counter,
                            width: Width::W8,
                        }
                    }
                    1 => {
                        let c = last.unwrap();
                        step = 2;
                        Op::Store {
                            pc: st_ctr,
                            addr: counter,
                            width: Width::W8,
                            value: c + 1,
                        }
                    }
                    // Lock-free GET: memtable/version reads.
                    2 => {
                        let b = key % buckets;
                        step = 3;
                        Op::Load {
                            pc: ld_idx,
                            addr: index.offset(b * 16),
                            width: Width::W8,
                        }
                    }
                    3 => {
                        let b = (key >> 17) % buckets;
                        step = if n.is_multiple_of(32) { 5 } else { 7 };
                        Op::Load {
                            pc: ld_idx,
                            addr: index.offset(b * 16 + 8),
                            width: Width::W8,
                        }
                    }
                    // Version refcount: leveldb's NoBarrier (relaxed)
                    // atomics on the read path — no PTSB flush under
                    // code-centric consistency.
                    5 => {
                        step = 7;
                        Op::AtomicRmw {
                            pc: ref_rmw,
                            addr: refcount,
                            width: Width::W4,
                            rmw: RmwOp::Add,
                            operand: 1,
                            order: MemOrder::Relaxed,
                        }
                    }
                    7 => {
                        n += 1;
                        let writer = i == 0;
                        step = if writer && n.is_multiple_of(BATCH) {
                            8
                        } else {
                            0
                        };
                        Op::Compute { cycles: 25 }
                    }
                    // Writer group: publish the batch under the mutex; the
                    // version swap inside uses the inline-assembly atomic
                    // pointer (one of the original's 8 asm sites).
                    8 => {
                        step = 20;
                        batch_left = 8;
                        Op::MutexLock { lock: q_lock }
                    }
                    20 => {
                        step = 21;
                        Op::AsmEnter
                    }
                    21 => {
                        step = 9;
                        Op::AtomicRmw {
                            pc: ref_rmw,
                            addr: refcount,
                            width: Width::W4,
                            rmw: RmwOp::Add,
                            operand: 1,
                            order: MemOrder::AcqRel,
                        }
                    }
                    9 => {
                        step = 22;
                        Op::AsmExit
                    }
                    // Bump the queue tail (the contended head/tail line).
                    22 => {
                        step = 10;
                        Op::AtomicRmw {
                            pc: rmw_q,
                            addr: q_tail,
                            width: Width::W8,
                            rmw: RmwOp::Add,
                            operand: 1,
                            order: MemOrder::Relaxed,
                        }
                    }
                    10 => {
                        let slot = last.unwrap() % 512;
                        step = 11;
                        Op::Store {
                            pc: st_q,
                            addr: queue.offset(slot * 8),
                            width: Width::W8,
                            value: key,
                        }
                    }
                    11 => {
                        batch_left -= 1;
                        if batch_left > 0 {
                            let b = (key.rotate_left(batch_left as u32)) % buckets;
                            step = 11;
                            return Op::Store {
                                pc: st_idx,
                                addr: index.offset(b * 16 + 8),
                                width: Width::W8,
                                value: key,
                            };
                        }
                        step = 12;
                        Op::Load {
                            pc: ld_idx,
                            addr: q_head,
                            width: Width::W8,
                        }
                    }
                    12 => {
                        step = 0;
                        Op::MutexUnlock { lock: q_lock }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }

    fn verify(&self, kernel: &mut Kernel, aspace: AsId) -> Result<(), String> {
        // Every op-counter increment must survive: the per-thread counters
        // are only touched by their owners, so any deficit means lost
        // updates (a broken PTSB commit).
        for (i, &c) in self.counters.iter().enumerate() {
            let v = read_shared(kernel, aspace, c, Width::W8);
            if v != self.ops_per_thread as u64 {
                return Err(format!(
                    "thread {i} op counter = {v}, expected {}",
                    self.ops_per_thread
                ));
            }
        }
        Ok(())
    }
}

//! PARSEC 3.0 workloads (§4.1): blackscholes, bodytrack, canneal, dedup,
//! facesim, ferret, fluidanimate, streamcluster, swaptions.

use rand::RngCore;
use tmi_machine::{VAddr, Width};
use tmi_program::{InstrKind, MemOrder, Op, ThreadProgram};

use crate::env::{fn_program, Lcg, SetupCtx, Suite, Workload, WorkloadParams, WorkloadSpec};

fn spec(name: &'static str) -> WorkloadSpec {
    WorkloadSpec {
        name,
        suite: Suite::Parsec,
        false_sharing: false,
        uses_atomics: false,
        uses_asm: false,
        sheriff_compatible: false, // native inputs overwhelm Sheriff (§4.2)
        big_memory: false,
        allocator_sensitive: false,
    }
}

// ---------------------------------------------------------------------
// blackscholes / swaptions — embarrassingly parallel kernels
// ---------------------------------------------------------------------

/// PARSEC `blackscholes`: each thread prices its own option slab —
/// read/compute/write with zero sharing.
pub struct Blackscholes;

impl Workload for Blackscholes {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            sheriff_compatible: true,
            ..spec("blackscholes")
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(200_000);
        let slab_words = 4096u64;
        let slabs: Vec<VAddr> = (0..t)
            .map(|i| {
                let s = ctx.alloc.alloc_aligned(i, slab_words * 8, 64);
                for w in (0..slab_words).step_by(16) {
                    let v = ctx.rng.next_u64();
                    ctx.write(s.offset(w * 8), Width::W8, v);
                }
                s
            })
            .collect();
        let ld = ctx
            .code
            .instr("blackscholes::load_option", InstrKind::Load, Width::W8);
        let st = ctx
            .code
            .instr("blackscholes::store_price", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let slab = slabs[i];
                let mut n = 0usize;
                let mut step = 0u8;
                fn_program(move |last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        step = 1;
                        Op::Load {
                            pc: ld,
                            addr: slab.offset(((n as u64 * 5) % slab_words) * 8),
                            width: Width::W8,
                        }
                    }
                    1 => {
                        let _opt = last.unwrap();
                        step = 2;
                        Op::Compute { cycles: 90 } // the CNDF evaluation
                    }
                    2 => {
                        step = 0;
                        let out = slab.offset(((n as u64 * 5 + 1) % slab_words) * 8);
                        n += 1;
                        Op::Store {
                            pc: st,
                            addr: out,
                            width: Width::W8,
                            value: n as u64,
                        }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

/// PARSEC `swaptions`: private Monte-Carlo simulation, compute-bound.
pub struct Swaptions;

impl Workload for Swaptions {
    fn spec(&self) -> WorkloadSpec {
        spec("swaptions")
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(120_000);
        let paths: Vec<VAddr> = (0..t)
            .map(|i| ctx.alloc.alloc_aligned(i, 2048 * 8, 64))
            .collect();
        let ld = ctx
            .code
            .instr("swaptions::load_path", InstrKind::Load, Width::W8);
        let st = ctx
            .code
            .instr("swaptions::store_path", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let path = paths[i];
                let mut lcg = Lcg::new(i as u64);
                let mut n = 0usize;
                let mut step = 0u8;
                fn_program(move |last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        step = 1;
                        Op::Store {
                            pc: st,
                            addr: path.offset(lcg.below(2048) * 8),
                            width: Width::W8,
                            value: lcg.next_u64(),
                        }
                    }
                    1 => {
                        step = 2;
                        Op::Compute { cycles: 150 } // HJM path evolution
                    }
                    2 => {
                        step = 0;
                        n += 1;
                        let _ = last;
                        Op::Load {
                            pc: ld,
                            addr: path.offset(lcg.below(2048) * 8),
                            width: Width::W8,
                        }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// canneal — atomic swaps (Fig. 11)
// ---------------------------------------------------------------------

/// PARSEC `canneal`: simulated annealing that swaps netlist elements with
/// lock-free atomic operations (implemented with inline assembly in the
/// original — 6 call sites, §4.5).
///
/// The verification checks the Fig. 11 invariant: swaps must *permute*
/// the elements — running it under a PTSB without code-centric
/// consistency loses and duplicates elements because the busy-flag
/// acquires and the swap stores hide in private pages.
pub struct Canneal {
    slots: VAddr,
    n_slots: u64,
}

impl Canneal {
    /// Creates the workload.
    pub fn new() -> Self {
        Canneal {
            slots: VAddr::new(0),
            n_slots: 0,
        }
    }
}

impl Default for Canneal {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for Canneal {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            uses_atomics: true,
            uses_asm: true,
            big_memory: true,
            ..spec("canneal")
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(60_000);
        let n_slots = 1024u64;
        self.n_slots = n_slots;
        // Elements: distinct values 1..=n so verification can detect loss
        // or duplication. One element per line (netlist elements are big).
        let slots = ctx.alloc.alloc_aligned(0, n_slots * 64, 64);
        self.slots = slots;
        for s in 0..n_slots {
            ctx.write(slots.offset(s * 64), Width::W8, s + 1);
        }
        // Busy flags guarding each slot (atomics).
        let busy = ctx.alloc.alloc_aligned(0, n_slots * 8, 64);

        let cas = ctx
            .code
            .atomic_instr("canneal::acquire_slot", InstrKind::Rmw, Width::W8);
        let rel = ctx
            .code
            .atomic_instr("canneal::release_slot", InstrKind::Store, Width::W8);
        let ld = ctx
            .code
            .asm_instr("canneal::swap_load", InstrKind::Load, Width::W8);
        let st = ctx
            .code
            .asm_instr("canneal::swap_store", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let mut lcg = Lcg::new(i as u64 + 77);
                let mut n = 0usize;
                let mut step = 0u8;
                let mut a = 0u64;
                let mut b = 0u64;
                let mut va = 0u64;
                let slot_addr = move |s: u64| slots.offset(s * 64);
                let busy_addr = move |s: u64| busy.offset(s * 8);
                fn_program(move |last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        let x = lcg.below(n_slots);
                        let y = lcg.below(n_slots);
                        if x == y {
                            return Op::Compute { cycles: 5 };
                        }
                        (a, b) = (x.min(y), x.max(y));
                        step = 1;
                        // Acquire slot a's busy flag (CAS 0 -> 1).
                        Op::Cas {
                            pc: cas,
                            addr: busy_addr(a),
                            width: Width::W8,
                            expected: 0,
                            desired: 1,
                            order: MemOrder::AcqRel,
                        }
                    }
                    1 => {
                        if last.unwrap() != 0 {
                            // Busy: retry.
                            return Op::Cas {
                                pc: cas,
                                addr: busy_addr(a),
                                width: Width::W8,
                                expected: 0,
                                desired: 1,
                                order: MemOrder::AcqRel,
                            };
                        }
                        step = 2;
                        Op::Cas {
                            pc: cas,
                            addr: busy_addr(b),
                            width: Width::W8,
                            expected: 0,
                            desired: 1,
                            order: MemOrder::AcqRel,
                        }
                    }
                    2 => {
                        if last.unwrap() != 0 {
                            return Op::Cas {
                                pc: cas,
                                addr: busy_addr(b),
                                width: Width::W8,
                                expected: 0,
                                desired: 1,
                                order: MemOrder::AcqRel,
                            };
                        }
                        step = 3;
                        Op::AsmEnter
                    }
                    3 => {
                        step = 4;
                        Op::Load {
                            pc: ld,
                            addr: slot_addr(a),
                            width: Width::W8,
                        }
                    }
                    4 => {
                        va = last.unwrap();
                        step = 5;
                        Op::Load {
                            pc: ld,
                            addr: slot_addr(b),
                            width: Width::W8,
                        }
                    }
                    5 => {
                        let vb = last.unwrap();
                        step = 6;
                        // Store vb into a; then va into b.

                        Op::Store {
                            pc: st,
                            addr: slot_addr(a),
                            width: Width::W8,
                            value: vb,
                        }
                    }
                    6 => {
                        step = 7;
                        Op::Store {
                            pc: st,
                            addr: slot_addr(b),
                            width: Width::W8,
                            value: va,
                        }
                    }
                    7 => {
                        step = 8;
                        Op::AsmExit
                    }
                    8 => {
                        step = 9;
                        Op::AtomicStore {
                            pc: rel,
                            addr: busy_addr(b),
                            width: Width::W8,
                            value: 0,
                            order: MemOrder::Release,
                        }
                    }
                    9 => {
                        step = 0;
                        n += 1;
                        Op::AtomicStore {
                            pc: rel,
                            addr: busy_addr(a),
                            width: Width::W8,
                            value: 0,
                            order: MemOrder::Release,
                        }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }

    fn verify(&self, ctx: &mut SetupCtx<'_>) -> Result<(), String> {
        // The multiset of elements must be exactly {1..=n}: any lost or
        // replicated element (Fig. 11) is detected here.
        let mut seen = vec![false; self.n_slots as usize + 1];
        for s in 0..self.n_slots {
            let v = ctx.read_shared(self.slots.offset(s * 64), Width::W8);
            if v == 0 || v > self.n_slots {
                return Err(format!("slot {s} holds out-of-range element {v}"));
            }
            if seen[v as usize] {
                return Err(format!("element {v} replicated (and another lost)"));
            }
            seen[v as usize] = true;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// dedup / ferret — pipelines
// ---------------------------------------------------------------------

/// PARSEC `dedup`: a compression pipeline; hashing uses OpenSSL routines
/// with inline assembly (7 call sites, §4.5), and stage queues are
/// mutex-protected.
pub struct Dedup;

impl Workload for Dedup {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            uses_asm: true,
            ..spec("dedup")
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(80_000);
        let queues: Vec<VAddr> = (0..t)
            .map(|_| ctx.alloc.alloc_aligned(0, 4096, 64))
            .collect();
        let locks: Vec<VAddr> = (0..t).map(|_| ctx.alloc.alloc_aligned(0, 64, 64)).collect();
        let chunks: Vec<VAddr> = (0..t)
            .map(|i| {
                let c = ctx.alloc.alloc_aligned(i, 8192, 64);
                for w in (0..1024).step_by(64) {
                    let v = ctx.rng.next_u64();
                    ctx.write(c.offset(w * 8), Width::W8, v);
                }
                c
            })
            .collect();
        let ld = ctx
            .code
            .instr("dedup::load_chunk", InstrKind::Load, Width::W8);
        let st_q = ctx
            .code
            .instr("dedup::store_queue", InstrKind::Store, Width::W8);
        let sha = ctx
            .code
            .asm_instr("dedup::sha1_block", InstrKind::Load, Width::W8);

        (0..t)
            .map(|i| {
                let chunk = chunks[i];
                // Each stage passes to the next thread's queue.
                let out_q = queues[(i + 1) % t];
                let out_lock = locks[(i + 1) % t];
                let mut lcg = Lcg::new(i as u64 + 9);
                let mut n = 0usize;
                let mut step = 0u8;
                fn_program(move |_last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        step = 1;
                        Op::Load {
                            pc: ld,
                            addr: chunk.offset(lcg.below(1024) * 8),
                            width: Width::W8,
                        }
                    }
                    // The OpenSSL hash: an assembly region.
                    1 => {
                        step = 2;
                        Op::AsmEnter
                    }
                    2 => {
                        step = 3;
                        Op::Load {
                            pc: sha,
                            addr: chunk.offset(lcg.below(1024) * 8),
                            width: Width::W8,
                        }
                    }
                    3 => {
                        step = 4;
                        Op::Compute { cycles: 200 }
                    }
                    4 => {
                        step = 5;
                        Op::AsmExit
                    }
                    5 => {
                        step = 6;
                        Op::MutexLock { lock: out_lock }
                    }
                    6 => {
                        step = 7;
                        Op::Store {
                            pc: st_q,
                            addr: out_q.offset(lcg.below(512) * 8),
                            width: Width::W8,
                            value: n as u64,
                        }
                    }
                    7 => {
                        step = 0;
                        n += 1;
                        Op::MutexUnlock { lock: out_lock }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

/// PARSEC `ferret`: similarity search — a read-heavy shared database with
/// a mutex-protected result queue.
pub struct Ferret;

impl Workload for Ferret {
    fn spec(&self) -> WorkloadSpec {
        spec("ferret")
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(100_000);
        let db_words = 65_536u64;
        let db = ctx.alloc.alloc_aligned(0, db_words * 8, 64);
        for w in (0..db_words).step_by(64) {
            let v = ctx.rng.next_u64();
            ctx.write(db.offset(w * 8), Width::W8, v);
        }
        let results = ctx.alloc.alloc_aligned(0, 4096, 64);
        let lock = ctx.alloc.alloc_aligned(0, 64, 64);
        let ld = ctx
            .code
            .instr("ferret::load_feature", InstrKind::Load, Width::W8);
        let st = ctx
            .code
            .instr("ferret::store_result", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let mut lcg = Lcg::new(i as u64 + 55);
                let mut n = 0usize;
                let mut step = 0u8;
                fn_program(move |_last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        n += 1;
                        if n.is_multiple_of(64) {
                            step = 1;
                        }
                        Op::Load {
                            pc: ld,
                            addr: db.offset(lcg.below(db_words) * 8),
                            width: Width::W8,
                        }
                    }
                    1 => {
                        step = 2;
                        Op::MutexLock { lock }
                    }
                    2 => {
                        step = 3;
                        Op::Store {
                            pc: st,
                            addr: results.offset(lcg.below(512) * 8),
                            width: Width::W8,
                            value: n as u64,
                        }
                    }
                    3 => {
                        step = 0;
                        Op::MutexUnlock { lock }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// bodytrack / facesim / streamcluster — barrier-phase kernels
// ---------------------------------------------------------------------

/// PARSEC `bodytrack`: shared read-only model, padded per-thread particle
/// weights, barrier per frame.
pub struct Bodytrack;

impl Workload for Bodytrack {
    fn spec(&self) -> WorkloadSpec {
        spec("bodytrack")
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        barrier_kernel(ctx, "bodytrack", params, 100_000, 32_768, 60)
    }
}

/// PARSEC `facesim`: large mesh sweeps in disjoint bands with barriers.
pub struct Facesim;

impl Workload for Facesim {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            big_memory: true,
            ..spec("facesim")
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        barrier_kernel(ctx, "facesim", params, 120_000, 1 << 19, 40)
    }
}

/// PARSEC `streamcluster`: distance evaluations over shared points with
/// barrier-separated phases.
pub struct Streamcluster;

impl Workload for Streamcluster {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            sheriff_compatible: true,
            ..spec("streamcluster")
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        barrier_kernel(ctx, "streamcluster", params, 150_000, 65_536, 25)
    }
}

fn barrier_kernel(
    ctx: &mut SetupCtx<'_>,
    name: &'static str,
    params: &WorkloadParams,
    base: usize,
    words: u64,
    compute: u64,
) -> Vec<Box<dyn ThreadProgram>> {
    let t = params.threads;
    let iters = params.iters(base);
    let data = ctx.alloc.alloc_aligned(0, words * 8, 64);
    for w in (0..words).step_by(128) {
        let v = ctx.rng.next_u64();
        ctx.write(data.offset(w * 8), Width::W8, v);
    }
    let barrier = ctx.alloc.alloc_aligned(0, 64, 64);
    let accs: Vec<VAddr> = (0..t).map(|i| ctx.alloc.alloc_line_padded(i, 64)).collect();
    let ld_name: &'static str = Box::leak(format!("{name}::load").into_boxed_str());
    let st_name: &'static str = Box::leak(format!("{name}::store_acc").into_boxed_str());
    let ld = ctx.code.instr(ld_name, InstrKind::Load, Width::W8);
    let st = ctx.code.instr(st_name, InstrKind::Store, Width::W8);

    (0..t)
        .map(|i| {
            let acc_addr = accs[i];
            let band = words / t as u64;
            let start = i as u64 * band;
            let mut lcg = Lcg::new(i as u64 + 200);
            let mut n = 0usize;
            let mut step = 0u8;
            let mut acc = 0u64;
            let phase_len = (iters / 8).max(1);
            fn_program(move |last| match step {
                0 => {
                    if n >= iters {
                        return Op::Exit;
                    }
                    if n % phase_len == phase_len - 1 {
                        step = 3;
                        return Op::BarrierWait { barrier };
                    }
                    step = 1;
                    Op::Load {
                        pc: ld,
                        addr: data.offset((start + lcg.below(band.max(1))) * 8),
                        width: Width::W8,
                    }
                }
                1 => {
                    acc = acc.wrapping_add(last.unwrap());
                    step = 2;
                    Op::Compute { cycles: compute }
                }
                2 => {
                    step = 0;
                    n += 1;
                    Op::Store {
                        pc: st,
                        addr: acc_addr,
                        width: Width::W8,
                        value: acc,
                    }
                }
                3 => {
                    step = 0;
                    n += 1;
                    Op::Compute { cycles: 10 }
                }
                _ => unreachable!(),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// fluidanimate — fine-grained per-cell locks
// ---------------------------------------------------------------------

/// PARSEC `fluidanimate`: grid cells guarded by fine-grained locks; the
/// sheer lock count drives TMI's indirection memory overhead (§4.2).
pub struct Fluidanimate;

impl Workload for Fluidanimate {
    fn spec(&self) -> WorkloadSpec {
        spec("fluidanimate")
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(80_000);
        let cells = 4096u64;
        let grid = ctx.alloc.alloc_aligned(0, cells * 64, 64);
        let locks = ctx.alloc.alloc_aligned(0, cells * 8, 64);
        let ld = ctx
            .code
            .instr("fluidanimate::load_cell", InstrKind::Load, Width::W8);
        let st = ctx
            .code
            .instr("fluidanimate::store_cell", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let mut lcg = Lcg::new(i as u64 + 88);
                let mut n = 0usize;
                let mut step = 0u8;
                let mut cell = 0u64;
                let band = cells / t as u64;
                fn_program(move |last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        // Mostly own band; occasionally a neighbor's cell.
                        let own = i as u64 * band + lcg.below(band.max(1));
                        cell = if n.is_multiple_of(16) {
                            (own + band) % cells
                        } else {
                            own
                        };
                        step = 1;
                        Op::MutexLock {
                            lock: locks.offset(cell * 8),
                        }
                    }
                    1 => {
                        step = 2;
                        Op::Load {
                            pc: ld,
                            addr: grid.offset(cell * 64),
                            width: Width::W8,
                        }
                    }
                    2 => {
                        let v = last.unwrap();
                        step = 3;
                        Op::Store {
                            pc: st,
                            addr: grid.offset(cell * 64),
                            width: Width::W8,
                            value: v + 1,
                        }
                    }
                    3 => {
                        step = 4;
                        Op::MutexUnlock {
                            lock: locks.offset(cell * 8),
                        }
                    }
                    4 => {
                        step = 0;
                        n += 1;
                        Op::Compute { cycles: 45 }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

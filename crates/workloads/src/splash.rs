//! Splash2x workloads (§4.1): barnes, fft, fmm, lu-cb, lu-ncb, ocean-cp,
//! ocean-ncp, radiosity, radix, raytrace, volrend, water-nsquare,
//! water-spatial — plus cholesky, which the paper excludes from the timing
//! suite (its runtime is too short, §4.1) but uses for the code-centric
//! consistency case study of Fig. 12.

use rand::RngCore;
use tmi_machine::{VAddr, Width};
use tmi_os::{AsId, Kernel};
use tmi_program::{InstrKind, Op, ThreadProgram};

use crate::env::{fn_program, read_shared, Lcg, SetupCtx, Workload, WorkloadParams, WorkloadSpec};

fn spec(name: &'static str) -> WorkloadSpec {
    WorkloadSpec {
        name,
        false_sharing: false,
        uses_atomics: false,
        uses_asm: false,
        sheriff_compatible: false, // native inputs overwhelm Sheriff (§4.2)
        big_memory: false,
        allocator_sensitive: false,
    }
}

/// Shared helper: a read-mostly phase kernel with barriers. Threads sweep
/// their own band of a shared array, read a few remote words per step, and
/// meet at a barrier between phases — the skeleton of most Splash2x codes.
#[allow(clippy::too_many_arguments)]
fn phase_kernel(
    ctx: &mut SetupCtx<'_>,
    name: &'static str,
    threads: usize,
    iters: usize,
    array_words: u64,
    remote_reads_per_step: u64,
    compute_per_step: u64,
    phases: usize,
) -> Vec<Box<dyn ThreadProgram>> {
    let arr = ctx.alloc.alloc_aligned(0, array_words * 8, 64);
    for w in (0..array_words).step_by(64) {
        let v = ctx.rng.next_u64();
        ctx.write(arr.offset(w * 8), Width::W8, v);
    }
    let barrier = ctx.alloc.alloc_aligned(0, 64, 64);
    let ld = ctx.code.instr(name, InstrKind::Load, Width::W8);
    let st = ctx
        .code
        .instr(&format!("{name}_store"), InstrKind::Store, Width::W8);

    let band = array_words / threads as u64;
    (0..threads)
        .map(|i| {
            let start = i as u64 * band;
            let mut lcg = Lcg::new(i as u64 * 31 + 5);
            let per_phase = iters / phases.max(1);
            let mut n = 0usize;
            let mut phase_no = 0usize;
            let mut step = 0u8;
            let mut acc = 0u64;
            fn_program(move |last| match step {
                0 => {
                    if n >= per_phase {
                        n = 0;
                        phase_no += 1;
                        if phase_no >= phases {
                            return Op::Exit;
                        }
                        step = 4;
                        return Op::BarrierWait { barrier };
                    }
                    step = 1;
                    // Own-band read.
                    Op::Load {
                        pc: ld,
                        addr: arr.offset((start + lcg.below(band.max(1))) * 8),
                        width: Width::W8,
                    }
                }
                1 => {
                    acc = acc.wrapping_add(last.value.unwrap_or(0));
                    // Higher `remote_reads_per_step` → more cross-band
                    // traffic (ocean-ncp vs ocean-cp).
                    let remote_every = match remote_reads_per_step {
                        0 => u64::MAX,
                        r => (8 / r.min(8)).max(1),
                    };
                    if (n as u64).is_multiple_of(remote_every) {
                        step = 2;
                        Op::Load {
                            pc: ld,
                            addr: arr.offset(lcg.below(array_words) * 8),
                            width: Width::W8,
                        }
                    } else {
                        step = 3;
                        Op::Compute {
                            cycles: compute_per_step,
                        }
                    }
                }
                2 => {
                    acc = acc.wrapping_add(last.value.unwrap_or(0));
                    step = 3;
                    Op::Compute {
                        cycles: compute_per_step,
                    }
                }
                3 => {
                    n += 1;
                    step = 0;
                    // Own-band write.
                    Op::Store {
                        pc: st,
                        addr: arr.offset((start + lcg.below(band.max(1))) * 8),
                        width: Width::W8,
                        value: acc,
                    }
                }
                4 => {
                    step = 0;
                    Op::Compute { cycles: 10 }
                }
                _ => unreachable!(),
            })
        })
        .collect()
}

macro_rules! phase_workload {
    ($ty:ident, $name:literal, $doc:literal, base=$base:expr, words=$words:expr,
     remote=$remote:expr, compute=$compute:expr, phases=$phases:expr, big=$big:expr) => {
        #[doc = $doc]
        pub struct $ty;

        impl Workload for $ty {
            fn spec(&self) -> WorkloadSpec {
                WorkloadSpec {
                    big_memory: $big,
                    ..spec($name)
                }
            }

            fn build(
                &mut self,
                ctx: &mut SetupCtx<'_>,
                params: &WorkloadParams,
            ) -> Vec<Box<dyn ThreadProgram>> {
                phase_kernel(
                    ctx,
                    concat!($name, "::sweep"),
                    params.threads,
                    params.iters($base),
                    $words,
                    $remote,
                    $compute,
                    $phases,
                )
            }
        }
    };
}

phase_workload!(
    Barnes,
    "barnes",
    "Splash2x `barnes`: tree-walk reads across the whole body array, \
     private band updates, barrier-separated timesteps.",
    base = 120_000,
    words = 65_536,
    remote = 1,
    compute = 35,
    phases = 4,
    big = false
);

phase_workload!(
    Fft,
    "fft",
    "Splash2x `fft`: butterfly passes over a shared complex array with \
     transpose phases that read other threads' freshly written blocks \
     (communication shows up as true-sharing HITMs at phase boundaries).",
    base = 120_000,
    words = 131_072,
    remote = 2,
    compute = 20,
    phases = 6,
    big = true
);

phase_workload!(
    Fmm,
    "fmm",
    "Splash2x `fmm`: multipole interactions — mostly private cell updates \
     with occasional remote reads, barriers per level.",
    base = 120_000,
    words = 65_536,
    remote = 1,
    compute = 45,
    phases = 4,
    big = true
);

phase_workload!(
    LuCb,
    "lu-cb",
    "Splash2x `lu` (contiguous blocks): threads own contiguous, \
     line-aligned blocks — the layout that avoids false sharing.",
    base = 120_000,
    words = 65_536,
    remote = 1,
    compute = 25,
    phases = 8,
    big = false
);

phase_workload!(
    OceanCp,
    "ocean-cp",
    "Splash2x `ocean` (contiguous partitions): large grids, banded \
     stencils, barriers; its 27 GB-class footprint is why it leads the \
     page-fault overheads of Fig. 10 (scaled down here).",
    base = 150_000,
    words = 1 << 20,
    remote = 1,
    compute = 18,
    phases = 6,
    big = true
);

phase_workload!(
    OceanNcp,
    "ocean-ncp",
    "Splash2x `ocean` (non-contiguous partitions): same stencil with \
     interleaved ownership — more cross-band traffic, large footprint.",
    base = 150_000,
    words = 1 << 20,
    remote = 3,
    compute = 18,
    phases = 6,
    big = true
);

phase_workload!(
    Volrend,
    "volrend",
    "Splash2x `volrend`: read-shared volume, private image tiles, \
     work counters (modeled in the remote-read mix).",
    base = 100_000,
    words = 32_768,
    remote = 1,
    compute = 30,
    phases = 3,
    big = false
);

phase_workload!(
    WaterNsquare,
    "water-nsquare",
    "Splash2x `water-nsquared`: O(n²) force pairs — reads of every \
     molecule, private accumulation, barrier per step.",
    base = 100_000,
    words = 16_384,
    remote = 2,
    compute = 40,
    phases = 4,
    big = false
);

// ---------------------------------------------------------------------
// lu-ncb — the allocator-sensitive false-sharing case
// ---------------------------------------------------------------------

/// Splash2x `lu` (non-contiguous blocks): "exhibits false sharing in the
/// array input to its daxpy implementation" (§4.3). Per-thread daxpy
/// temporaries are allocated by the main thread back-to-back, so under a
/// glibc-style allocator adjacent threads' vectors share lines; a
/// Lockless-style per-thread-arena allocator separates them, which is why
/// "Tmi does not need to repair the false sharing because it is
/// automatically repaired by changing the allocator".
pub struct LuNcb;

impl Workload for LuNcb {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            false_sharing: true,
            allocator_sensitive: true,
            ..spec("lu-ncb")
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(200_000);
        let matrix_words = 65_536u64;
        let matrix = ctx.alloc.alloc_aligned(0, matrix_words * 8, 64);
        for w in (0..matrix_words).step_by(32) {
            let v = ctx.rng.next_u64();
            ctx.write(matrix.offset(w * 8), Width::W8, v);
        }
        let barrier = ctx.alloc.alloc_aligned(0, 64, 64);
        // The daxpy temporaries: 24 bytes each. Under the buggy layout the
        // main thread allocates them consecutively (arena 0); fixed pads
        // them to full lines. When the harness selects a Lockless-policy
        // allocator with *per-thread* arenas the same code has no false
        // sharing — the allocator-sensitivity the paper calls out.
        let temps: Vec<VAddr> = (0..t)
            .map(|i| {
                if params.fixed {
                    ctx.alloc.alloc_line_padded(i, 24)
                } else {
                    // Whatever the configured policy (and the repair runs'
                    // forced misalignment) does for main-thread
                    // allocations.
                    ctx.alloc.alloc(0, 24)
                }
            })
            .collect();

        let ld_piv = ctx
            .code
            .instr("lu_ncb::load_pivot", InstrKind::Load, Width::W8);
        let ld_tmp = ctx
            .code
            .instr("lu_ncb::load_temp", InstrKind::Load, Width::W8);
        let st_tmp = ctx
            .code
            .instr("lu_ncb::store_temp", InstrKind::Store, Width::W8);
        let st_row = ctx
            .code
            .instr("lu_ncb::store_row", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let temp = temps[i];
                let mut lcg = Lcg::new(i as u64 + 71);
                let mut n = 0usize;
                let mut step = 0u8;
                let mut pivot = 0u64;
                fn_program(move |last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        if n % 4096 == 4095 {
                            step = 5;
                            return Op::BarrierWait { barrier };
                        }
                        step = 1;
                        Op::Load {
                            pc: ld_piv,
                            addr: matrix.offset(lcg.below(matrix_words) * 8),
                            width: Width::W8,
                        }
                    }
                    1 => {
                        pivot = last.unwrap();
                        step = 2;
                        Op::Load {
                            pc: ld_tmp,
                            addr: temp.offset(((n as u64) % 3) * 8),
                            width: Width::W8,
                        }
                    }
                    2 => {
                        let v = last.unwrap().wrapping_add(pivot);
                        step = 3;
                        Op::Store {
                            pc: st_tmp,
                            addr: temp.offset(((n as u64) % 3) * 8),
                            width: Width::W8,
                            value: v,
                        }
                    }
                    3 => {
                        step = 0;
                        n += 1;
                        // Row update within the thread's own interleaved
                        // blocks: blocks are whole cache lines, so the
                        // matrix itself has no false sharing (the bug lives
                        // in the daxpy temporaries).
                        let blocks = matrix_words / 8; // 8 words per line
                        let blk = (lcg.below(blocks / 4) * 4 + i as u64 % 4) % blocks;
                        let word = blk * 8 + lcg.below(8);
                        Op::Store {
                            pc: st_row,
                            addr: matrix.offset((word % matrix_words) * 8),
                            width: Width::W8,
                            value: pivot,
                        }
                    }
                    5 => {
                        step = 0;
                        n += 1;
                        Op::Compute { cycles: 10 }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// radiosity — task queue under a mutex
// ---------------------------------------------------------------------

/// Splash2x `radiosity`: a mutex-protected task queue feeding private
/// patch computation.
pub struct Radiosity;

impl Workload for Radiosity {
    fn spec(&self) -> WorkloadSpec {
        spec("radiosity")
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(80_000);
        let queue = ctx.alloc.alloc_aligned(0, 4096, 64);
        let lock = ctx.alloc.alloc_aligned(0, 64, 64);
        let patches: Vec<VAddr> = (0..t)
            .map(|i| ctx.alloc.alloc_aligned(i, 8192, 64))
            .collect();
        let ld_q = ctx
            .code
            .instr("radiosity::load_task", InstrKind::Load, Width::W8);
        let st_q = ctx
            .code
            .instr("radiosity::store_task", InstrKind::Store, Width::W8);
        let st_p = ctx
            .code
            .instr("radiosity::store_patch", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let patch = patches[i];
                let mut lcg = Lcg::new(i as u64 + 3);
                let mut n = 0usize;
                let mut step = 0u8;
                fn_program(move |last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        step = 1;
                        Op::MutexLock { lock }
                    }
                    1 => {
                        step = 2;
                        Op::Load {
                            pc: ld_q,
                            addr: queue.offset(lcg.below(512) * 8),
                            width: Width::W8,
                        }
                    }
                    2 => {
                        let task = last.unwrap();
                        step = 3;
                        Op::Store {
                            pc: st_q,
                            addr: queue.offset(lcg.below(512) * 8),
                            width: Width::W8,
                            value: task + 1,
                        }
                    }
                    3 => {
                        step = 4;
                        Op::MutexUnlock { lock }
                    }
                    4 => {
                        step = 5;
                        Op::Compute { cycles: 150 }
                    }
                    5 => {
                        step = 0;
                        n += 1;
                        Op::Store {
                            pc: st_p,
                            addr: patch.offset(lcg.below(1024) * 8),
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

// ---------------------------------------------------------------------
// radix — padded per-thread histograms, permute phase
// ---------------------------------------------------------------------

/// Splash2x `radix`: per-thread digit histograms (line-aligned, so no
/// false sharing), barrier-separated rank and permute phases with
/// scattered writes into the big key array.
pub struct Radix;

impl Workload for Radix {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            big_memory: true,
            ..spec("radix")
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(150_000);
        let keys_words = 1u64 << 18;
        let keys = ctx.alloc.alloc_aligned(0, keys_words * 8, 64);
        for w in (0..keys_words).step_by(128) {
            let v = ctx.rng.next_u64();
            ctx.write(keys.offset(w * 8), Width::W8, v);
        }
        let barrier = ctx.alloc.alloc_aligned(0, 64, 64);
        let hists: Vec<VAddr> = (0..t)
            .map(|i| ctx.alloc.alloc_line_padded(i, 256 * 8))
            .collect();
        let ld_k = ctx
            .code
            .instr("radix::load_key", InstrKind::Load, Width::W8);
        let ld_h = ctx
            .code
            .instr("radix::load_hist", InstrKind::Load, Width::W8);
        let st_h = ctx
            .code
            .instr("radix::store_hist", InstrKind::Store, Width::W8);
        let st_k = ctx
            .code
            .instr("radix::store_key", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let hist = hists[i];
                let chunk = keys_words / t as u64;
                let start = i as u64 * chunk;
                let mut lcg = Lcg::new(i as u64 + 17);
                let mut n = 0usize;
                let mut step = 0u8;
                let mut digit = 0u64;
                let half = iters / 2;
                fn_program(move |last| match step {
                    // Count phase.
                    0 => {
                        if n == half {
                            step = 4;
                            return Op::BarrierWait { barrier };
                        }
                        if n >= iters {
                            return Op::Exit;
                        }
                        step = 1;
                        Op::Load {
                            pc: ld_k,
                            addr: keys.offset((start + (n as u64) % chunk.max(1)) * 8),
                            width: Width::W8,
                        }
                    }
                    1 => {
                        digit = last.unwrap() & 0xff;
                        step = 2;
                        Op::Load {
                            pc: ld_h,
                            addr: hist.offset(digit * 8),
                            width: Width::W8,
                        }
                    }
                    2 => {
                        let v = last.unwrap();
                        step = 0;
                        n += 1;
                        Op::Store {
                            pc: st_h,
                            addr: hist.offset(digit * 8),
                            width: Width::W8,
                            value: v + 1,
                        }
                    }
                    // Permute phase: scattered stores across the array.
                    4 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        n += 1;
                        Op::Store {
                            pc: st_k,
                            addr: keys.offset(lcg.below(keys_words) * 8),
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

// ---------------------------------------------------------------------
// raytrace — atomic work counter
// ---------------------------------------------------------------------

/// Splash2x `raytrace`: read-shared scene, private framebuffer rows, and
/// an atomic ray counter — true sharing on the counter (uses atomics, so
/// Sheriff is unsafe on it).
pub struct Raytrace;

impl Workload for Raytrace {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            uses_atomics: true,
            ..spec("raytrace")
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(100_000);
        let scene_words = 32_768u64;
        let scene = ctx.alloc.alloc_aligned(0, scene_words * 8, 64);
        for w in (0..scene_words).step_by(64) {
            let v = ctx.rng.next_u64();
            ctx.write(scene.offset(w * 8), Width::W8, v);
        }
        let counter = ctx.alloc.alloc_aligned(0, 64, 64);
        let frames: Vec<VAddr> = (0..t)
            .map(|i| ctx.alloc.alloc_aligned(i, 16 * 1024, 64))
            .collect();
        let ld_s = ctx
            .code
            .instr("raytrace::load_scene", InstrKind::Load, Width::W8);
        let st_f = ctx
            .code
            .instr("raytrace::store_pixel", InstrKind::Store, Width::W8);
        let rmw = ctx
            .code
            .atomic_instr("raytrace::fetch_ray", InstrKind::Rmw, Width::W8);

        (0..t)
            .map(|i| {
                let frame = frames[i];
                let mut lcg = Lcg::new(i as u64 + 23);
                let mut n = 0usize;
                let mut step = 0u8;
                fn_program(move |last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        step = 1;
                        // Grab the next ray bundle from the shared counter.
                        Op::AtomicRmw {
                            pc: rmw,
                            addr: counter,
                            width: Width::W8,
                            rmw: tmi_program::RmwOp::Add,
                            operand: 1,
                            order: tmi_program::MemOrder::AcqRel,
                        }
                    }
                    1 => {
                        let _ray = last.unwrap();
                        step = 2;
                        Op::Load {
                            pc: ld_s,
                            addr: scene.offset(lcg.below(scene_words) * 8),
                            width: Width::W8,
                        }
                    }
                    2 => {
                        step = 3;
                        Op::Compute { cycles: 120 }
                    }
                    3 => {
                        step = 0;
                        n += 1;
                        Op::Store {
                            pc: st_f,
                            addr: frame.offset(lcg.below(2048) * 8),
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

// ---------------------------------------------------------------------
// water-spatial — many fine-grained locks
// ---------------------------------------------------------------------

/// Splash2x `water-spatial`: spatial cell lists with one lock per cell.
/// The lock count is what gives it a high memory overhead under TMI, which
/// "must replace (via an extra indirection) the fine-grained locks ...
/// with process-shared locks" (§4.2).
pub struct WaterSpatial;

impl Workload for WaterSpatial {
    fn spec(&self) -> WorkloadSpec {
        spec("water-spatial")
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(60_000);
        let cells = 2048u64;
        let cell_data = ctx.alloc.alloc_aligned(0, cells * 64, 64);
        // One lock per cell, line-spaced (the original embeds them in the
        // cell structs).
        let locks = ctx.alloc.alloc_aligned(0, cells * 64, 64);
        let ld_c = ctx
            .code
            .instr("water_spatial::load_cell", InstrKind::Load, Width::W8);
        let st_c = ctx
            .code
            .instr("water_spatial::store_cell", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let mut lcg = Lcg::new(i as u64 + 41);
                let mut n = 0usize;
                let mut step = 0u8;
                let mut cell = 0u64;
                fn_program(move |last| match step {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        // Threads mostly touch their own cell neighborhood.
                        let home = (i as u64 * cells) / t as u64;
                        cell = (home + lcg.below(cells / t as u64)) % cells;
                        step = 1;
                        Op::MutexLock {
                            lock: VAddr::new(locks.raw() + cell * 64),
                        }
                    }
                    1 => {
                        step = 2;
                        Op::Load {
                            pc: ld_c,
                            addr: cell_data.offset(cell * 64),
                            width: Width::W8,
                        }
                    }
                    2 => {
                        let v = last.unwrap();
                        step = 3;
                        Op::Store {
                            pc: st_c,
                            addr: cell_data.offset(cell * 64),
                            width: Width::W8,
                            value: v + 1,
                        }
                    }
                    3 => {
                        step = 4;
                        Op::MutexUnlock {
                            lock: VAddr::new(locks.raw() + cell * 64),
                        }
                    }
                    4 => {
                        step = 0;
                        n += 1;
                        Op::Compute { cycles: 60 }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// cholesky — the Fig. 12 flag-synchronization case study
// ---------------------------------------------------------------------

/// Splash2x `cholesky`'s racy flag synchronization (Fig. 12, simplified
/// from `mf.C:135-156`): thread 0 spins on a `volatile` flag that thread 1
/// eventually clears, then both meet at a barrier. Thread 0 has previously
/// *written* the flag's page, so under a whole-heap PTSB with no
/// code-centric consistency its polling loop reads a stale private copy
/// forever — the Sheriff hang. Code-centric consistency honors the
/// volatile intent (modeled as an assembly region) and routes the polls to
/// shared memory.
pub struct Cholesky {
    flag: VAddr,
}

impl Cholesky {
    /// Creates the workload.
    pub fn new() -> Self {
        Cholesky {
            flag: VAddr::new(0),
        }
    }
}

impl Default for Cholesky {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for Cholesky {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            uses_asm: true, // the volatile flag poll needs region semantics
            ..spec("cholesky")
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let page = ctx.alloc.alloc_aligned(0, 4096, 4096);
        let flag = page.offset(128);
        let scratch = page.offset(512); // same page as the flag
        self.flag = flag;
        ctx.write(flag, Width::W8, 0);
        let barrier = ctx.alloc.alloc_aligned(0, 64, 64);
        let iters = params.iters(20_000);

        let ld_flag = ctx
            .code
            .asm_instr("cholesky::poll_flag", InstrKind::Load, Width::W8);
        let st_scratch = ctx
            .code
            .instr("cholesky::store_scratch", InstrKind::Store, Width::W8);
        let st_flag = ctx
            .code
            .instr("cholesky::store_flag", InstrKind::Store, Width::W8);

        let mut progs: Vec<Box<dyn ThreadProgram>> = Vec::new();

        // Thread 0: dirty the flag's page, then poll until the flag flips.
        {
            let mut step = 0u8;
            progs.push(fn_program(move |last| match step {
                0 => {
                    step = 1;
                    Op::Store {
                        pc: st_scratch,
                        addr: scratch,
                        width: Width::W8,
                        value: 1,
                    }
                }
                1 => {
                    step = 2;
                    Op::AsmEnter
                }
                2 => {
                    step = 3;
                    Op::Load {
                        pc: ld_flag,
                        addr: flag,
                        width: Width::W8,
                    }
                }
                3 => {
                    if last.unwrap() == 0 {
                        step = 3;
                        // keep polling
                        Op::Load {
                            pc: ld_flag,
                            addr: flag,
                            width: Width::W8,
                        }
                    } else {
                        step = 4;
                        Op::AsmExit
                    }
                }
                4 => {
                    step = 5;
                    Op::BarrierWait { barrier }
                }
                _ => Op::Exit,
            }));
        }

        // Thread 1: do some work, set the flag, meet at the barrier.
        {
            let mut n = 0usize;
            let mut step = 0u8;
            progs.push(fn_program(move |_last| match step {
                0 => {
                    if n < iters {
                        n += 1;
                        return Op::Compute { cycles: 50 };
                    }
                    step = 1;
                    Op::Store {
                        pc: st_flag,
                        addr: flag,
                        width: Width::W8,
                        value: 1,
                    }
                }
                1 => {
                    step = 2;
                    Op::BarrierWait { barrier }
                }
                _ => Op::Exit,
            }));
        }

        // Remaining threads just participate in the barrier.
        for _ in 2..params.threads {
            let mut step = 0u8;
            progs.push(fn_program(move |_last| match step {
                0 => {
                    step = 1;
                    Op::BarrierWait { barrier }
                }
                _ => Op::Exit,
            }));
        }
        progs
    }

    fn verify(&self, kernel: &mut Kernel, aspace: AsId) -> Result<(), String> {
        let v = read_shared(kernel, aspace, self.flag, Width::W8);
        if v == 1 {
            Ok(())
        } else {
            Err(format!("flag never reached shared memory (={v})"))
        }
    }
}

//! Phoenix 1.0 workloads (§4.1): histogram, histogramfs, kmeans, lreg,
//! matrix, pca, reverse, stringmatch, wordcount.
//!
//! Each reproduces the *sharing structure* of the original MapReduce
//! kernel: the same data that is shared read-only, the same per-thread
//! records whose packing creates false sharing, and the same
//! synchronization cadence. The buggy variants model glibc's malloc-header
//! offset (+8 bytes), which is what pushes per-thread records across cache
//! line boundaries in the originals.

use rand::RngCore;
use tmi_machine::{VAddr, Width};
use tmi_os::{AsId, Kernel};
use tmi_program::{InstrKind, Op, ThreadProgram};

use crate::env::{fn_program, read_shared, Lcg, SetupCtx, Workload, WorkloadParams, WorkloadSpec};

/// Simulated malloc header: the natural misalignment of glibc allocations.
const MALLOC_HEADER: u64 = 8;

fn spec(name: &'static str, false_sharing: bool) -> WorkloadSpec {
    WorkloadSpec {
        name,
        false_sharing,
        uses_atomics: false,
        uses_asm: false,
        sheriff_compatible: true, // Phoenix inputs are small enough for Sheriff
        big_memory: false,
        allocator_sensitive: false,
    }
}

// ---------------------------------------------------------------------
// histogram / histogramfs
// ---------------------------------------------------------------------

/// Phoenix `histogram`: threads scan disjoint slices of an image and bump
/// per-thread bin counters. The counters of consecutive threads are packed
/// back-to-back (with a malloc header), so the last bins of thread *i*
/// share a line with the first bins of thread *i+1* — false sharing whose
/// intensity depends on the pixel distribution (§3: "histogram exhibits a
/// pattern of false sharing that is dependent on the image input").
pub struct Histogram {
    /// Skew pixels into the boundary bins (the `histogramfs` input).
    pub accentuate: bool,
    bins: Vec<VAddr>,
    iters: usize,
}

impl Histogram {
    /// Standard input.
    pub fn standard() -> Self {
        Histogram {
            accentuate: false,
            bins: Vec::new(),
            iters: 0,
        }
    }

    /// The false-sharing-accentuating input (`histogramfs`).
    pub fn accentuated() -> Self {
        Histogram {
            accentuate: true,
            bins: Vec::new(),
            iters: 0,
        }
    }
}

impl Workload for Histogram {
    fn spec(&self) -> WorkloadSpec {
        spec(
            if self.accentuate {
                "histogramfs"
            } else {
                "histogram"
            },
            true,
        )
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(300_000);
        self.iters = iters;
        let img_words = (iters / 4).max(64) as u64;
        let img = ctx.alloc.alloc_aligned(0, img_words * 8, 64);
        // Pixel bytes: uniform, or skewed into the bins nearest the
        // per-thread array boundaries.
        let accent = self.accentuate;
        for w in 0..img_words {
            let mut word = 0u64;
            for b in 0..8 {
                let px: u64 = if accent {
                    if ctx.rng.next_u64().is_multiple_of(2) {
                        120 + ctx.rng.next_u64() % 8
                    } else {
                        ctx.rng.next_u64() % 8
                    }
                } else {
                    ctx.rng.next_u64() % 128
                };
                word |= px << (b * 8);
            }
            ctx.write(img.offset(w * 8), Width::W8, word);
        }

        // Per-thread bins: 128 u64 counters each (the original's intensity
        // histogram), packed with a header offset in the buggy variant,
        // line-padded per thread when fixed.
        const BINS: u64 = 128;
        self.bins.clear();
        if params.fixed {
            for i in 0..t {
                self.bins.push(ctx.alloc.alloc_line_padded(i, BINS * 8));
            }
        } else {
            let base = ctx
                .alloc
                .alloc_aligned(0, t as u64 * BINS * 8 + MALLOC_HEADER + 64, 64)
                .offset(MALLOC_HEADER);
            for i in 0..t {
                self.bins.push(base.offset(i as u64 * BINS * 8));
            }
        }

        // MapReduce emit buffers: each map task streams key/value pairs
        // into a large per-thread buffer. These pages are written exactly
        // once and never shared — precisely the memory that pays useless
        // twinning and diffing under PTSB-everywhere (§4.3).
        let emit_words = (iters as u64).clamp(512, 131_072).next_multiple_of(512);
        let emits: Vec<VAddr> = (0..t)
            .map(|i| ctx.alloc.alloc_aligned(i, emit_words * 8, 4096))
            .collect();
        let barrier = ctx.alloc.alloc_aligned(0, 64, 64);

        let ld_img = ctx
            .code
            .instr("histogram::load_pixels", InstrKind::Load, Width::W8);
        let ld_bin = ctx
            .code
            .instr("histogram::load_bin", InstrKind::Load, Width::W8);
        let st_bin = ctx
            .code
            .instr("histogram::store_bin", InstrKind::Store, Width::W8);
        let st_emit = ctx
            .code
            .instr("histogram::emit", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let bins = self.bins[i];
                let emit = emits[i];
                let chunk = img_words / t as u64;
                let start = i as u64 * chunk;
                let phase_len = (iters / 4).max(1);
                let mut n = 0usize;
                let mut emitted = 0u64;
                let mut phases_done = 0usize;
                let mut phase = 0u8;
                let mut bin_addr = VAddr::new(0);
                fn_program(move |last| {
                    match phase {
                        // Load the next input word.
                        0 => {
                            if n >= iters {
                                return Op::Exit;
                            }
                            if phases_done < 3 && n == phase_len * (phases_done + 1) {
                                // Map/reduce phase boundary.
                                phases_done += 1;
                                phase = 4;
                                return Op::BarrierWait { barrier };
                            }
                            let w = start + (n as u64 / 4) % chunk.max(1);
                            phase = 1;
                            Op::Load {
                                pc: ld_img,
                                addr: img.offset(w * 8),
                                width: Width::W8,
                            }
                        }
                        // Pick a pixel byte, load its bin.
                        1 => {
                            let word = last.unwrap();
                            let byte = (word >> (((n as u64) % 4) * 8)) & 0x7f;
                            bin_addr = bins.offset(byte * 8);
                            phase = 2;
                            Op::Load {
                                pc: ld_bin,
                                addr: bin_addr,
                                width: Width::W8,
                            }
                        }
                        // Bump the bin.
                        2 => {
                            let v = last.unwrap();
                            phase = 3;
                            Op::Store {
                                pc: st_bin,
                                addr: bin_addr,
                                width: Width::W8,
                                value: v + 1,
                            }
                        }
                        // Emit an intermediate pair for every pixel —
                        // the streaming writes whose pages pay useless
                        // twinning under PTSB-everywhere.
                        3 => {
                            phase = 0;
                            n += 1;
                            let w = emitted % emit_words;
                            emitted += 1;
                            Op::Store {
                                pc: st_emit,
                                addr: emit.offset(w * 8),
                                width: Width::W8,
                                value: n as u64,
                            }
                        }
                        4 => {
                            phase = 0;
                            Op::Compute { cycles: 10 }
                        }
                        _ => unreachable!(),
                    }
                })
            })
            .collect()
    }

    fn verify(&self, kernel: &mut Kernel, aspace: AsId) -> Result<(), String> {
        for (i, &bins) in self.bins.iter().enumerate() {
            let mut sum = 0u64;
            for b in 0..128u64 {
                sum += read_shared(kernel, aspace, bins.offset(b * 8), Width::W8);
            }
            if sum != self.iters as u64 {
                return Err(format!(
                    "thread {i}: bins sum to {sum}, expected {}",
                    self.iters
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// linear-regression (lreg)
// ---------------------------------------------------------------------

/// Phoenix `linear-regression`: each thread accumulates five statistics
/// (SX, SY, SXX, SYY, SXY) in a 40-byte struct inside one shared `args`
/// array "that is not 64-byte aligned by default" (§4.3) — the canonical
/// packed-accumulator false-sharing bug, updated on every input point.
pub struct LinearRegression {
    args: Vec<VAddr>,
    expected: Vec<[u64; 5]>,
}

impl LinearRegression {
    /// Creates the workload.
    pub fn new() -> Self {
        LinearRegression {
            args: Vec::new(),
            expected: Vec::new(),
        }
    }
}

impl Default for LinearRegression {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for LinearRegression {
    fn spec(&self) -> WorkloadSpec {
        spec("lreg", true)
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(250_000);
        let pts_words = (iters / 8).max(64) as u64;
        let pts = ctx.alloc.alloc_aligned(0, pts_words * 8, 64);
        let mut pt_values = Vec::with_capacity(pts_words as usize);
        for w in 0..pts_words {
            let x = ctx.rng.next_u64() % 1000;
            let y = ctx.rng.next_u64() % 1000;
            let v = x | (y << 32);
            pt_values.push(v);
            ctx.write(pts.offset(w * 8), Width::W8, v);
        }

        // The args array of 40-byte accumulator structs.
        self.args.clear();
        if params.fixed {
            for i in 0..t {
                self.args.push(ctx.alloc.alloc_line_padded(i, 40));
            }
        } else {
            let base = ctx
                .alloc
                .alloc_aligned(0, t as u64 * 40 + MALLOC_HEADER + 64, 64)
                .offset(MALLOC_HEADER);
            for i in 0..t {
                self.args.push(base.offset(i as u64 * 40));
            }
        }

        // Precompute expected sums for verification.
        self.expected = (0..t)
            .map(|i| {
                let mut e = [0u64; 5];
                for n in 0..iters {
                    let w = (n as u64) % pts_words;
                    let _ = i;
                    let v = pt_values[w as usize];
                    let (x, y) = (v & 0xffff_ffff, v >> 32);
                    e[0] = e[0].wrapping_add(x);
                    e[1] = e[1].wrapping_add(y);
                    e[2] = e[2].wrapping_add(x * x);
                    e[3] = e[3].wrapping_add(y * y);
                    e[4] = e[4].wrapping_add(x * y);
                }
                e
            })
            .collect();

        let ld_pt = ctx
            .code
            .instr("lreg::load_point", InstrKind::Load, Width::W8);
        let ld_f = ctx
            .code
            .instr("lreg::load_field", InstrKind::Load, Width::W8);
        let st_f = ctx
            .code
            .instr("lreg::store_field", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let args = self.args[i];
                let mut acc = [0u64; 5];
                let mut n = 0usize;
                let mut phase = 0u8; // 0: load point, 1: refresh read, 2..7: store fields
                fn_program(move |last| match phase {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        let w = (n as u64) % pts_words;
                        phase = 1;
                        Op::Load {
                            pc: ld_pt,
                            addr: pts.offset(w * 8),
                            width: Width::W8,
                        }
                    }
                    1 => {
                        let v = last.unwrap();
                        let (x, y) = (v & 0xffff_ffff, v >> 32);
                        acc[0] = acc[0].wrapping_add(x);
                        acc[1] = acc[1].wrapping_add(y);
                        acc[2] = acc[2].wrapping_add(x * x);
                        acc[3] = acc[3].wrapping_add(y * y);
                        acc[4] = acc[4].wrapping_add(x * y);
                        // The original reads each field before writing it;
                        // one representative load keeps load-HITMs flowing
                        // for the detector.
                        phase = 2;
                        Op::Load {
                            pc: ld_f,
                            addr: args.offset(((n as u64) % 5) * 8),
                            width: Width::W8,
                        }
                    }
                    f @ 2..=6 => {
                        let k = (f - 2) as usize;
                        phase = if f == 6 { 0 } else { f + 1 };
                        if f == 6 {
                            n += 1;
                        }
                        Op::Store {
                            pc: st_f,
                            addr: args.offset(k as u64 * 8),
                            width: Width::W8,
                            value: acc[k],
                        }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }

    fn verify(&self, kernel: &mut Kernel, aspace: AsId) -> Result<(), String> {
        for (i, (&args, exp)) in self.args.iter().zip(&self.expected).enumerate() {
            for (k, &want) in exp.iter().enumerate() {
                let v = read_shared(kernel, aspace, args.offset(k as u64 * 8), Width::W8);
                if v != want {
                    return Err(format!("thread {i} field {k}: {v} != {want}"));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// stringmatch
// ---------------------------------------------------------------------

/// Phoenix `stringmatch`: each thread keeps two small buffers, `cur_word`
/// and `cur_word_final`, "that can partially overlap on the same cache
/// line" (§4.3) with a neighboring thread's buffers.
pub struct StringMatch {
    words: Vec<(VAddr, VAddr)>,
    iters: usize,
}

impl StringMatch {
    /// Creates the workload.
    pub fn new() -> Self {
        StringMatch {
            words: Vec::new(),
            iters: 0,
        }
    }
}

impl Default for StringMatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Workload for StringMatch {
    fn spec(&self) -> WorkloadSpec {
        spec("stringmatch", true)
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(200_000);
        self.iters = iters;
        let keys_words = 4096u64;
        let keys = ctx.alloc.alloc_aligned(0, keys_words * 8, 64);
        for w in 0..keys_words {
            let v = ctx.rng.next_u64();
            ctx.write(keys.offset(w * 8), Width::W8, v);
        }

        self.words.clear();
        if params.fixed {
            for i in 0..t {
                let cw = ctx.alloc.alloc_line_padded(i, 32);
                let cwf = ctx.alloc.alloc_line_padded(i, 32);
                self.words.push((cw, cwf));
            }
        } else {
            // cw_i and cwf_i packed back-to-back per thread with a malloc
            // header, so cwf_i straddles into thread i+1's line.
            let base = ctx
                .alloc
                .alloc_aligned(0, t as u64 * 64 + MALLOC_HEADER + 64, 64)
                .offset(MALLOC_HEADER);
            for i in 0..t {
                let cw = base.offset(i as u64 * 64);
                self.words.push((cw, cw.offset(32)));
            }
        }

        let ld_key = ctx
            .code
            .instr("stringmatch::load_key", InstrKind::Load, Width::W8);
        let st_cw = ctx
            .code
            .instr("stringmatch::store_cur_word", InstrKind::Store, Width::W8);
        let st_cwf = ctx
            .code
            .instr("stringmatch::store_final", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let (cw, cwf) = self.words[i];
                let mut lcg = Lcg::new(i as u64);
                let mut n = 0usize;
                let mut phase = 0u8;
                let mut key = 0u64;
                fn_program(move |last| match phase {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        let w = lcg.below(keys_words);
                        phase = 1;
                        Op::Load {
                            pc: ld_key,
                            addr: keys.offset(w * 8),
                            width: Width::W8,
                        }
                    }
                    1..=4 => {
                        if phase == 1 {
                            key = last.unwrap();
                        }
                        let k = (phase - 1) as u64;
                        phase += 1;
                        Op::Store {
                            pc: st_cw,
                            addr: cw.offset(k * 8),
                            width: Width::W8,
                            value: key.rotate_left(k as u32 * 8),
                        }
                    }
                    5 => {
                        phase = 6;
                        Op::Compute { cycles: 30 }
                    }
                    6..=9 => {
                        let k = (phase - 6) as u64;
                        phase += 1;
                        if phase == 10 {
                            phase = 0;
                            n += 1;
                        }
                        Op::Store {
                            pc: st_cwf,
                            addr: cwf.offset(k * 8),
                            width: Width::W8,
                            value: key ^ k,
                        }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// kmeans
// ---------------------------------------------------------------------

/// Phoenix `kmeans`: shared read-only points, padded per-thread partial
/// sums, and mutex-protected center updates — *true* sharing on the
/// centers and the lock, which is why kmeans is sensitive to the perf
/// sampling period (§4.2) but is not repairable.
pub struct Kmeans;

impl Workload for Kmeans {
    fn spec(&self) -> WorkloadSpec {
        spec("kmeans", false)
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(150_000);
        let k = 16u64;
        let pts_words = 8192u64;
        let pts = ctx.alloc.alloc_aligned(0, pts_words * 8, 64);
        for w in 0..pts_words {
            let v = ctx.rng.next_u64();
            ctx.write(pts.offset(w * 8), Width::W8, v);
        }
        let centers = ctx.alloc.alloc_aligned(0, k * 8, 64);
        let lock = ctx.alloc.alloc_aligned(0, 64, 64);
        let partials: Vec<VAddr> = (0..t)
            .map(|i| ctx.alloc.alloc_line_padded(i, k * 8))
            .collect();

        let ld_pt = ctx
            .code
            .instr("kmeans::load_point", InstrKind::Load, Width::W8);
        let ld_c = ctx
            .code
            .instr("kmeans::load_center", InstrKind::Load, Width::W8);
        let st_p = ctx
            .code
            .instr("kmeans::store_partial", InstrKind::Store, Width::W8);
        let st_c = ctx
            .code
            .instr("kmeans::store_center", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let partial = partials[i];
                let mut lcg = Lcg::new(i as u64 + 100);
                let mut n = 0usize;
                let mut phase = 0u8;
                let mut point = 0u64;
                fn_program(move |last| match phase {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        let w = lcg.below(pts_words);
                        phase = 1;
                        Op::Load {
                            pc: ld_pt,
                            addr: pts.offset(w * 8),
                            width: Width::W8,
                        }
                    }
                    1 => {
                        point = last.unwrap();
                        phase = 2;
                        Op::Load {
                            pc: ld_c,
                            addr: centers.offset((point % k) * 8),
                            width: Width::W8,
                        }
                    }
                    2 => {
                        phase = if n % 256 == 255 { 3 } else { 0 };
                        let bump = phase == 0;
                        if bump {
                            n += 1;
                        }
                        Op::Store {
                            pc: st_p,
                            addr: partial.offset((point % k) * 8),
                            width: Width::W8,
                            value: point,
                        }
                    }
                    // Periodic center update under the mutex: true sharing.
                    3 => {
                        phase = 4;
                        Op::MutexLock { lock }
                    }
                    4 => {
                        phase = 5;
                        Op::Store {
                            pc: st_c,
                            addr: centers.offset((point % k) * 8),
                            width: Width::W8,
                            value: point,
                        }
                    }
                    5 => {
                        phase = 0;
                        n += 1;
                        Op::MutexUnlock { lock }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// matrix
// ---------------------------------------------------------------------

/// Phoenix `matrix` (matrix multiply): shared read-only inputs, private
/// output rows — no contention.
pub struct MatrixMultiply;

impl Workload for MatrixMultiply {
    fn spec(&self) -> WorkloadSpec {
        spec("matrix", false)
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let n = ((params.iters(100_000) as f64).cbrt() as u64 * 2).clamp(16, 96);
        let words = n * n;
        let a = ctx.alloc.alloc_aligned(0, words * 8, 64);
        let b = ctx.alloc.alloc_aligned(0, words * 8, 64);
        let c = ctx.alloc.alloc_aligned(0, words * 8, 64);
        for w in 0..words {
            let v = ctx.rng.next_u64() % 100;
            ctx.write(a.offset(w * 8), Width::W8, v);
            ctx.write(b.offset(w * 8), Width::W8, v ^ 7);
        }

        let ld_a = ctx.code.instr("matrix::load_a", InstrKind::Load, Width::W8);
        let ld_b = ctx.code.instr("matrix::load_b", InstrKind::Load, Width::W8);
        let st_c = ctx
            .code
            .instr("matrix::store_c", InstrKind::Store, Width::W8);

        (0..t)
            .map(|tid| {
                let rows: Vec<u64> = (0..n).filter(|r| (*r as usize) % t == tid).collect();
                let mut ri = 0usize;
                let mut j = 0u64;
                let mut kk = 0u64;
                let mut acc = 0u64;
                let mut phase = 0u8;
                let mut a_val = 0u64;
                fn_program(move |last| match phase {
                    0 => {
                        if ri >= rows.len() {
                            return Op::Exit;
                        }
                        let i = rows[ri];
                        phase = 1;
                        Op::Load {
                            pc: ld_a,
                            addr: a.offset((i * n + kk) * 8),
                            width: Width::W8,
                        }
                    }
                    1 => {
                        a_val = last.unwrap();
                        phase = 2;
                        Op::Load {
                            pc: ld_b,
                            addr: b.offset((kk * n + j) * 8),
                            width: Width::W8,
                        }
                    }
                    2 => {
                        acc = acc.wrapping_add(a_val.wrapping_mul(last.unwrap()));
                        kk += 1;
                        if kk < n {
                            phase = 0;
                            // Tail-call into phase 0 via a cheap compute op.
                            return Op::Compute { cycles: 2 };
                        }
                        kk = 0;
                        phase = 3;
                        let i = rows[ri];
                        let out = c.offset((i * n + j) * 8);
                        let v = acc;
                        acc = 0;
                        j += 1;
                        if j >= n {
                            j = 0;
                            ri += 1;
                        }
                        let _ = phase;
                        phase = 0;
                        Op::Store {
                            pc: st_c,
                            addr: out,
                            width: Width::W8,
                            value: v,
                        }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// pca
// ---------------------------------------------------------------------

/// Phoenix `pca`: two barrier-separated phases (row means, covariance)
/// over a shared read-only matrix with padded per-thread accumulators.
pub struct Pca;

impl Workload for Pca {
    fn spec(&self) -> WorkloadSpec {
        spec("pca", false)
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(150_000);
        let words = 16384u64;
        let m = ctx.alloc.alloc_aligned(0, words * 8, 64);
        for w in 0..words {
            let v = ctx.rng.next_u64() % 1000;
            ctx.write(m.offset(w * 8), Width::W8, v);
        }
        let barrier = ctx.alloc.alloc_aligned(0, 64, 64);
        let accs: Vec<VAddr> = (0..t).map(|i| ctx.alloc.alloc_line_padded(i, 64)).collect();

        let ld = ctx.code.instr("pca::load", InstrKind::Load, Width::W8);
        let st = ctx
            .code
            .instr("pca::store_acc", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let acc_addr = accs[i];
                let mut lcg = Lcg::new(i as u64 + 7);
                let mut n = 0usize;
                let mut phase = 0u8;
                let mut acc = 0u64;
                let half = iters / 2;
                fn_program(move |last| match phase {
                    0 => {
                        if n == half {
                            phase = 3;
                            return Op::BarrierWait { barrier };
                        }
                        if n >= iters {
                            return Op::Exit;
                        }
                        phase = 1;
                        Op::Load {
                            pc: ld,
                            addr: m.offset(lcg.below(words) * 8),
                            width: Width::W8,
                        }
                    }
                    1 => {
                        acc = acc.wrapping_add(last.unwrap());
                        n += 1;
                        if n.is_multiple_of(16) {
                            phase = 2;
                            Op::Store {
                                pc: st,
                                addr: acc_addr,
                                width: Width::W8,
                                value: acc,
                            }
                        } else {
                            phase = 0;
                            Op::Compute { cycles: 12 }
                        }
                    }
                    2 => {
                        phase = 0;
                        Op::Compute { cycles: 12 }
                    }
                    3 => {
                        // Covariance phase after the barrier.
                        n += 1;
                        phase = 0;
                        Op::Compute { cycles: 20 }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// reverse (reverse_index)
// ---------------------------------------------------------------------

/// Phoenix `reverse_index`: scans a large shared input, builds big
/// per-thread index tables, and occasionally appends to a global index
/// under a mutex. Large footprint (the paper's Fig. 10 calls out
/// reverse-index among the fault-heavy workloads).
pub struct ReverseIndex;

impl Workload for ReverseIndex {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            big_memory: true,
            ..spec("reverse", false)
        }
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(120_000);
        let input_words = ((iters as u64) * 2).max(4096);
        let input = ctx.alloc.alloc_aligned(0, input_words * 8, 64);
        // Initialize sparsely: the simulated html corpus is mostly zeros
        // with link markers; only seed one word per page to keep setup fast
        // while still materializing the (large) object.
        for w in (0..input_words).step_by(512) {
            ctx.write(input.offset(w * 8), Width::W8, w);
        }
        let table_words = 32 * 1024u64; // 256 KiB per-thread index
        let tables: Vec<VAddr> = (0..t)
            .map(|i| ctx.alloc.alloc_aligned(i, table_words * 8, 64))
            .collect();
        let global = ctx.alloc.alloc_aligned(0, 4096, 64);
        let lock = ctx.alloc.alloc_aligned(0, 64, 64);

        let ld_in = ctx
            .code
            .instr("reverse::load_input", InstrKind::Load, Width::W8);
        let st_tab = ctx
            .code
            .instr("reverse::store_index", InstrKind::Store, Width::W8);
        let st_glob = ctx
            .code
            .instr("reverse::store_global", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let table = tables[i];
                let chunk = input_words / t as u64;
                let start = i as u64 * chunk;
                let mut lcg = Lcg::new(i as u64 + 13);
                let mut n = 0usize;
                let mut phase = 0u8;
                fn_program(move |last| match phase {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        let w = start + (n as u64) % chunk.max(1);
                        phase = 1;
                        Op::Load {
                            pc: ld_in,
                            addr: input.offset(w * 8),
                            width: Width::W8,
                        }
                    }
                    1 => {
                        let link = last.unwrap().wrapping_add(n as u64);
                        let slot = (link ^ lcg.next_u64()) % table_words;
                        n += 1;
                        phase = if n.is_multiple_of(128) { 2 } else { 0 };
                        Op::Store {
                            pc: st_tab,
                            addr: table.offset(slot * 8),
                            width: Width::W8,
                            value: link,
                        }
                    }
                    2 => {
                        phase = 3;
                        Op::MutexLock { lock }
                    }
                    3 => {
                        phase = 4;
                        Op::Store {
                            pc: st_glob,
                            addr: global.offset(lcg.below(512) * 8),
                            width: Width::W8,
                            value: n as u64,
                        }
                    }
                    4 => {
                        phase = 0;
                        Op::MutexUnlock { lock }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// wordcount
// ---------------------------------------------------------------------

/// Phoenix `wordcount`: shared read-only text, private per-thread count
/// tables, merged under a mutex at chunk boundaries.
pub struct WordCount;

impl Workload for WordCount {
    fn spec(&self) -> WorkloadSpec {
        spec("wordcount", false)
    }

    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>> {
        let t = params.threads;
        let iters = params.iters(150_000);
        let text_words = 16384u64;
        let text = ctx.alloc.alloc_aligned(0, text_words * 8, 64);
        for w in 0..text_words {
            let v = ctx.rng.next_u64();
            ctx.write(text.offset(w * 8), Width::W8, v);
        }
        let table_words = 4096u64;
        let tables: Vec<VAddr> = (0..t)
            .map(|i| ctx.alloc.alloc_aligned(i, table_words * 8, 64))
            .collect();
        let merged = ctx.alloc.alloc_aligned(0, table_words * 8, 64);
        let lock = ctx.alloc.alloc_aligned(0, 64, 64);

        let ld_txt = ctx
            .code
            .instr("wordcount::load_text", InstrKind::Load, Width::W8);
        let ld_tab = ctx
            .code
            .instr("wordcount::load_count", InstrKind::Load, Width::W8);
        let st_tab = ctx
            .code
            .instr("wordcount::store_count", InstrKind::Store, Width::W8);
        let st_merge = ctx
            .code
            .instr("wordcount::store_merge", InstrKind::Store, Width::W8);

        (0..t)
            .map(|i| {
                let table = tables[i];
                let chunk = text_words / t as u64;
                let start = i as u64 * chunk;
                let mut n = 0usize;
                let mut phase = 0u8;
                let mut slot = 0u64;
                fn_program(move |last| match phase {
                    0 => {
                        if n >= iters {
                            return Op::Exit;
                        }
                        let w = start + (n as u64) % chunk.max(1);
                        phase = 1;
                        Op::Load {
                            pc: ld_txt,
                            addr: text.offset(w * 8),
                            width: Width::W8,
                        }
                    }
                    1 => {
                        slot = last.unwrap() % table_words;
                        phase = 2;
                        Op::Load {
                            pc: ld_tab,
                            addr: table.offset(slot * 8),
                            width: Width::W8,
                        }
                    }
                    2 => {
                        let v = last.unwrap();
                        n += 1;
                        phase = if n.is_multiple_of(512) { 3 } else { 0 };
                        Op::Store {
                            pc: st_tab,
                            addr: table.offset(slot * 8),
                            width: Width::W8,
                            value: v + 1,
                        }
                    }
                    3 => {
                        phase = 4;
                        Op::MutexLock { lock }
                    }
                    4 => {
                        phase = 5;
                        Op::Store {
                            pc: st_merge,
                            addr: merged.offset(slot * 8),
                            width: Width::W8,
                            value: n as u64,
                        }
                    }
                    5 => {
                        phase = 0;
                        Op::MutexUnlock { lock }
                    }
                    _ => unreachable!(),
                })
            })
            .collect()
    }
}

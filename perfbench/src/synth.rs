//! Synthetic cells built directly on `Engine`, bypassing the runtimes and
//! the executor: each cell is [`THREADS`] simulated threads under
//! `NullRuntime` running programs generated here from the seed.
//!
//! Every program checks its own results. A thread is the only writer of
//! its words, so it keeps a shadow copy of them and checks every load
//! against it; the truly shared counter must end equal to the number of
//! atomic adds issued.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tmi_machine::{AccessKind, Machine, MachineConfig, VAddr, Width, FRAME_SIZE, LINE_SIZE};
use tmi_os::{AsId, Kernel, MapRequest};
use tmi_program::{InstrKind, MemOrder, Op, OpResult, Pc, RmwOp, ThreadProgram};
use tmi_sim::{Engine, EngineConfig, Halt, NullRuntime, TraceStep};
use tmi_telemetry::MetricsSnapshot;

use crate::spans::{SpanId, Spans};
use crate::{Layers, Pass};

/// Simulated threads (and cores) per cell.
pub const THREADS: usize = 4;
/// Smallest per-thread working set: well inside the 256 KiB private cache.
const MIN_WORKING_SET: u64 = 4 << 10;
/// Largest per-thread working set: across four threads, twice the 8 MiB LLC.
const MAX_WORKING_SET: u64 = 4 << 20;
/// Lines of the falsely shared region; thread `t` owns word `t` of each.
const SHARED_LINES: u64 = 16;
/// A contended thread adds to the shared counter once per this many ops.
const ADD_EVERY: u64 = 32;
/// One `ThreadProgram::next` call in this many is timed in traced runs,
/// so the timer does not distort the calls it measures.
const NEXT_SAMPLE_EVERY: u64 = 64;

const PRIVATE_BASE: u64 = 0x1000_0000;
/// Private regions sit this far apart, past the largest working set.
const PRIVATE_STRIDE: u64 = 0x100_0000;
const SHARED_BASE: u64 = 0x4000_0000;
const COUNTER: u64 = SHARED_BASE + FRAME_SIZE;

/// Which traffic a cell generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynthKind {
    /// Private loads and stores only (25% stores).
    Private,
    /// 30–60% of accesses on falsely shared lines, plus atomic adds to one
    /// truly shared counter (50% stores).
    Contended,
}

/// One generated cell.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Traffic kind.
    pub kind: SynthKind,
    /// Seed of the thread programs.
    pub seed: u64,
    /// Loads, stores and adds each thread issues.
    pub ops_per_thread: u64,
    /// Per-thread private working set in bytes (a multiple of 8).
    pub working_set: [u64; THREADS],
    /// Share of plain accesses that go to the falsely shared lines.
    pub shared_frac: f64,
    /// Share of plain accesses that are stores.
    pub store_frac: f64,
    /// Test seam: thread 0 records every value it stores with the low bit
    /// flipped, exactly as if memory had handed back a wrong value, so its
    /// later loads of those words fail their check.
    pub corrupt_shadow: bool,
}

/// `cells` cells of `kind` derived from `seed`: the same seed gives the
/// same cells.
///
/// Working sets are log-uniform and shared fractions uniform, both
/// stratified: each of the `cells` equal slices of the range holds exactly
/// one draw per thread. The threads of a cell draw from slices a quarter
/// of the range apart, so every cell mixes small and large working sets.
/// Every seed thus covers the range evenly and builds cells of similar
/// total size, and results vary between seeds far less than with
/// independent draws, while the cells themselves still differ.
///
/// Cells come largest first: the pool's workers start on the longest
/// cells and finish together, and the two largest always run side by
/// side, which fixes the pass's peak memory.
pub fn cell_specs(kind: SynthKind, seed: u64, cells: usize, ops_per_thread: u64) -> Vec<CellSpec> {
    let mut rng = Rng::new(seed);
    let mut strata = || {
        let mut order: Vec<usize> = (0..cells).collect();
        for i in (1..cells).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order
    };
    let ws_strata = strata();
    let frac_strata = strata();
    let span = (MAX_WORKING_SET as f64 / MIN_WORKING_SET as f64).ln();
    let mut specs: Vec<CellSpec> = (0..cells)
        .map(|i| {
            let mut rng = Rng::new(mix(seed, i as u64));
            let mut draw = |stratum: usize| (stratum as f64 + rng.unit()) / cells as f64;
            let working_set = std::array::from_fn(|t| {
                let stratum = (ws_strata[i] + t * cells / THREADS) % cells;
                let bytes = MIN_WORKING_SET as f64 * (draw(stratum) * span).exp();
                (bytes as u64 & !7).clamp(MIN_WORKING_SET, MAX_WORKING_SET)
            });
            let (shared_frac, store_frac) = match kind {
                SynthKind::Private => (0.0, 0.25),
                SynthKind::Contended => (0.3 + 0.3 * draw(frac_strata[i]), 0.5),
            };
            CellSpec {
                kind,
                seed: rng.next_u64(),
                ops_per_thread,
                working_set,
                shared_frac,
                store_frac,
                corrupt_shadow: false,
            }
        })
        .collect();
    specs.sort_by_key(|s| std::cmp::Reverse(s.working_set.iter().sum::<u64>()));
    specs
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent seed for item `i` of a sequence seeded `seed`.
fn mix(seed: u64, i: u64) -> u64 {
    Rng::new(seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

#[derive(Clone, Copy)]
struct Pcs {
    load: Pc,
    store: Pc,
    add: Pc,
}

/// What every program of a cell reports back after the run.
#[derive(Default)]
struct Tally {
    wrong_loads: AtomicU64,
    adds: AtomicU64,
}

/// One generated thread.
struct SynthProgram {
    rng: Rng,
    left: u64,
    issued: u64,
    base: u64,
    words: u64,
    /// This thread's word slot within each falsely shared line.
    slot: u64,
    shared_frac: f64,
    store_frac: f64,
    contended: bool,
    /// The last value this thread stored to each of its words: private
    /// words first, then its word of each shared line.
    shadow: Vec<u64>,
    /// The value the load just issued must return.
    expect: Option<u64>,
    corrupt: u64,
    pcs: Pcs,
    tally: Arc<Tally>,
}

impl SynthProgram {
    fn new(spec: &CellSpec, thread: usize, pcs: Pcs, tally: Arc<Tally>) -> Self {
        let words = spec.working_set[thread] / 8;
        SynthProgram {
            rng: Rng::new(mix(spec.seed, thread as u64)),
            left: spec.ops_per_thread,
            issued: 0,
            base: PRIVATE_BASE + thread as u64 * PRIVATE_STRIDE,
            words,
            slot: thread as u64,
            shared_frac: spec.shared_frac,
            store_frac: spec.store_frac,
            contended: spec.kind == SynthKind::Contended,
            shadow: vec![0; (words + SHARED_LINES) as usize],
            expect: None,
            corrupt: u64::from(spec.corrupt_shadow && thread == 0),
            pcs,
            tally,
        }
    }
}

impl ThreadProgram for SynthProgram {
    fn next(&mut self, last: OpResult) -> Op {
        if let Some(want) = self.expect.take() {
            if last.value != Some(want) {
                self.tally.wrong_loads.fetch_add(1, Ordering::Relaxed);
            }
        }
        if self.left == 0 {
            return Op::Exit;
        }
        self.left -= 1;
        self.issued += 1;
        if self.contended && self.issued.is_multiple_of(ADD_EVERY) {
            self.tally.adds.fetch_add(1, Ordering::Relaxed);
            return Op::AtomicRmw {
                pc: self.pcs.add,
                addr: VAddr::new(COUNTER),
                width: Width::W8,
                rmw: RmwOp::Add,
                operand: 1,
                order: MemOrder::Relaxed,
            };
        }
        let (word, addr) = if self.shared_frac > 0.0 && self.rng.unit() < self.shared_frac {
            let line = self.rng.below(SHARED_LINES);
            (
                self.words + line,
                SHARED_BASE + line * LINE_SIZE + self.slot * 8,
            )
        } else {
            let w = self.rng.below(self.words);
            (w, self.base + w * 8)
        };
        let addr = VAddr::new(addr);
        if self.rng.unit() < self.store_frac {
            let value = self.rng.next_u64();
            self.shadow[word as usize] = value ^ self.corrupt;
            Op::Store {
                pc: self.pcs.store,
                addr,
                width: Width::W8,
                value,
            }
        } else {
            self.expect = Some(self.shadow[word as usize]);
            Op::Load {
                pc: self.pcs.load,
                addr,
                width: Width::W8,
            }
        }
    }
}

/// `ThreadProgram::next` call statistics of one traced cell.
#[derive(Default)]
struct NextStats {
    calls: AtomicU64,
    samples: AtomicU64,
    sampled_ns: AtomicU64,
}

/// Times one `next` call in [`NEXT_SAMPLE_EVERY`] of the program it wraps.
struct Sampled {
    inner: SynthProgram,
    calls: u64,
    samples: u64,
    sampled_ns: u64,
    stats: Arc<NextStats>,
    spans: Arc<Spans>,
    thread: u64,
    parent: SpanId,
}

impl ThreadProgram for Sampled {
    fn next(&mut self, last: OpResult) -> Op {
        self.calls += 1;
        let op = if self.calls.is_multiple_of(NEXT_SAMPLE_EVERY) {
            let t0 = Instant::now();
            let op = self.inner.next(last);
            let t1 = Instant::now();
            self.samples += 1;
            self.sampled_ns += (t1 - t0).as_nanos() as u64;
            self.spans.record_sample(
                "program",
                "ThreadProgram::next",
                t0,
                t1,
                self.thread,
                self.parent,
            );
            op
        } else {
            self.inner.next(last)
        };
        if op == Op::Exit {
            // `next` is never called again after `Exit`: publish now.
            self.stats.calls.fetch_add(self.calls, Ordering::Relaxed);
            self.stats
                .samples
                .fetch_add(self.samples, Ordering::Relaxed);
            self.stats
                .sampled_ns
                .fetch_add(self.sampled_ns, Ordering::Relaxed);
        }
        op
    }
}

/// Where a traced cell records its spans.
#[derive(Clone)]
struct TraceCtx {
    /// The run's span log.
    spans: Arc<Spans>,
    /// Host thread the cell runs on.
    thread: u64,
    /// The span that caused this cell.
    parent: Option<SpanId>,
    /// Cost of one timer read, subtracted from every timed call.
    timer_ns: f64,
}

/// Host time the replay of a traced cell's schedule spent in each layer.
#[derive(Clone, Copy, Debug, Default)]
struct Replay {
    /// `Machine::access` calls.
    accesses: u64,
    /// Seconds in `Machine::access`.
    access_s: f64,
    /// `Kernel::translate` calls.
    translates: u64,
    /// Seconds in `Kernel::translate`.
    translate_s: f64,
    /// `Kernel::handle_fault` calls.
    faults: u64,
    /// Seconds in `Kernel::handle_fault`.
    fault_s: f64,
}

/// Per-layer numbers only a traced cell has.
#[derive(Clone, Copy, Debug, Default)]
struct TracedCell {
    /// `ThreadProgram::next` calls.
    next_calls: u64,
    /// Estimated seconds in `next`, from the sampled calls.
    next_s: f64,
    /// The schedule replay.
    replay: Replay,
}

/// The outcome of one cell.
#[derive(Clone, Debug)]
struct CellResult {
    /// Seconds generating programs and assembling the engine.
    setup_s: f64,
    /// Seconds in `Engine::run`.
    run_s: f64,
    /// Seconds for the whole cell: set-up, run and checks.
    host_s: f64,
    /// Ops the engine executed.
    ops: u64,
    /// The engine's metrics snapshot after the run.
    metrics: MetricsSnapshot,
    /// Why the cell's output is wrong; `None` if it checked out.
    error: Option<String>,
    /// Present on traced cells.
    traced: Option<TracedCell>,
}

impl CellResult {
    fn panicked(message: String) -> Self {
        CellResult {
            setup_s: 0.0,
            run_s: 0.0,
            host_s: 0.0,
            ops: 0,
            metrics: MetricsSnapshot::default(),
            error: Some(message),
            traced: None,
        }
    }
}

/// Maps the cell's regions into a fresh address space of `kernel`. Both
/// the engine and the traced replay call this, so they see the same
/// layout.
fn map_regions(kernel: &mut Kernel, spec: &CellSpec) -> AsId {
    let aspace = kernel.create_aspace();
    for (t, &bytes) in spec.working_set.iter().enumerate() {
        let base = PRIVATE_BASE + t as u64 * PRIVATE_STRIDE;
        let len = bytes.div_ceil(FRAME_SIZE) * FRAME_SIZE;
        kernel
            .map(aspace, MapRequest::anon(VAddr::new(base), len))
            .expect("private regions do not overlap");
    }
    kernel
        .map(
            aspace,
            MapRequest::anon(VAddr::new(SHARED_BASE), 2 * FRAME_SIZE),
        )
        .expect("shared region is free");
    aspace
}

/// Runs one cell on the calling thread; with `trace`, also records spans,
/// samples `next` calls and replays the schedule.
fn run_cell(spec: &CellSpec, trace: Option<&TraceCtx>) -> CellResult {
    let t0 = Instant::now();
    let mut engine = Engine::new(EngineConfig::with_cores(THREADS), NullRuntime);
    let aspace = map_regions(&mut engine.core_mut().kernel, spec);
    engine.create_root_process(aspace);
    let code = &mut engine.core_mut().code;
    let pcs = Pcs {
        load: code.instr("synth::load", InstrKind::Load, Width::W8),
        store: code.instr("synth::store", InstrKind::Store, Width::W8),
        add: code.atomic_instr("synth::counter_add", InstrKind::Rmw, Width::W8),
    };
    let tally = Arc::new(Tally::default());
    let next_stats = Arc::new(NextStats::default());
    let run_span = trace.map(|ctx| ctx.spans.id());
    for t in 0..THREADS {
        let program = SynthProgram::new(spec, t, pcs, Arc::clone(&tally));
        match (trace, run_span) {
            (Some(ctx), Some(parent)) => engine.add_thread(Box::new(Sampled {
                inner: program,
                calls: 0,
                samples: 0,
                sampled_ns: 0,
                stats: Arc::clone(&next_stats),
                spans: Arc::clone(&ctx.spans),
                thread: ctx.thread,
                parent,
            })),
            _ => engine.add_thread(Box::new(program)),
        };
    }
    if trace.is_some() {
        engine.enable_trace();
    }
    let t1 = Instant::now();
    let report = engine.run();
    let t2 = Instant::now();
    if let (Some(ctx), Some(id)) = (trace, run_span) {
        ctx.spans
            .record(id, "sim", "Engine::run", t1, t2, ctx.thread, ctx.parent);
    }

    let metrics = engine.metrics("runtime");
    let mut errors = Vec::new();
    if report.halt != Halt::Completed {
        errors.push(format!("halted with {:?}", report.halt));
    }
    let wrong = tally.wrong_loads.load(Ordering::Relaxed);
    if wrong > 0 {
        errors.push(format!(
            "{wrong} loads returned a value the thread did not store"
        ));
    }
    if spec.kind == SynthKind::Contended {
        let kernel = &engine.core().kernel;
        let counter = kernel
            .translate(aspace, VAddr::new(COUNTER), false)
            .map_or(0, |pa| kernel.physmem().read(pa, Width::W8));
        let adds = tally.adds.load(Ordering::Relaxed);
        if counter != adds {
            errors.push(format!("shared counter is {counter} after {adds} adds"));
        }
    }
    let host_s = t0.elapsed().as_secs_f64();

    let traced = trace.map(|ctx| {
        let steps = engine.take_trace();
        let t3 = Instant::now();
        let replay = replay(spec, &steps, ctx.timer_ns);
        let id = ctx.spans.id();
        ctx.spans.record(
            id,
            "os,machine",
            "replay: Kernel::translate/handle_fault + Machine::access",
            t3,
            Instant::now(),
            ctx.thread,
            ctx.parent,
        );
        // The replay must see the engine's access stream, or its per-call
        // times describe some other workload.
        let engine_accesses = metrics.u64("machine.accesses");
        if replay.accesses.abs_diff(engine_accesses) * 100 > engine_accesses {
            errors.push(format!(
                "replay made {} accesses, the engine {engine_accesses}",
                replay.accesses
            ));
        }
        let calls = next_stats.calls.load(Ordering::Relaxed);
        let samples = next_stats.samples.load(Ordering::Relaxed).max(1);
        let sampled_ns = next_stats.sampled_ns.load(Ordering::Relaxed) as f64;
        let per_call_ns = (sampled_ns / samples as f64 - ctx.timer_ns).max(0.0);
        TracedCell {
            next_calls: calls,
            next_s: per_call_ns * calls as f64 * 1e-9,
            replay,
        }
    });

    CellResult {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        host_s,
        ops: report.ops,
        metrics,
        error: (!errors.is_empty()).then(|| errors.join("; ")),
        traced,
    }
}

/// Re-executes the memory accesses of a traced schedule, in order, on a
/// fresh kernel and machine with the cell's layout, timing every call.
fn replay(spec: &CellSpec, steps: &[TraceStep], timer_ns: f64) -> Replay {
    let mut kernel = Kernel::new();
    let aspace = map_regions(&mut kernel, spec);
    let mut machine = Machine::new(MachineConfig::with_cores(THREADS));
    let mut r = Replay::default();
    let (mut access_ns, mut translate_ns, mut fault_ns) = (0u64, 0u64, 0u64);
    for step in steps {
        let (addr, width, kind) = match step.op {
            Op::Load { addr, width, .. } => (addr, width, AccessKind::Load),
            Op::Store { addr, width, .. } => (addr, width, AccessKind::Store),
            Op::AtomicRmw { addr, width, .. } => (addr, width, AccessKind::Rmw),
            _ => continue,
        };
        // The engine pins thread i to core i mod cores.
        let core = step.thread as usize % THREADS;
        let is_write = kind.is_write();
        let paddr = loop {
            let t = Instant::now();
            let translated = kernel.translate(aspace, addr, is_write);
            translate_ns += t.elapsed().as_nanos() as u64;
            r.translates += 1;
            match translated {
                Ok(pa) => break pa,
                Err(_) => {
                    let t = Instant::now();
                    let resolved = kernel.handle_fault(aspace, addr, is_write);
                    fault_ns += t.elapsed().as_nanos() as u64;
                    r.faults += 1;
                    resolved.expect("the engine resolved this fault, so the replay can");
                }
            }
        };
        let t = Instant::now();
        std::hint::black_box(machine.access(core, paddr, kind, width));
        access_ns += t.elapsed().as_nanos() as u64;
        r.accesses += 1;
    }
    let net = |ns: u64, calls: u64| (ns as f64 - calls as f64 * timer_ns).max(0.0) * 1e-9;
    r.access_s = net(access_ns, r.accesses);
    r.translate_s = net(translate_ns, r.translates);
    r.fault_s = net(fault_ns, r.faults);
    r
}

/// The cost of one `Instant::now()` pair around nothing, in nanoseconds:
/// what every timed call over-reports.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(Instant::now()) - t
        })
        .map(|d| d.as_nanos() as f64)
        .collect();
    crate::stats::median(&samples)
}

/// Runs `specs` on `workers` host threads, each pulling the next cell as
/// it finishes one (a closed loop). A cell that panics is reported as
/// failed, not propagated. Results come back in `specs` order.
fn run_cells(specs: &[CellSpec], workers: usize, trace: Option<&TraceCtx>) -> Vec<CellResult> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers.clamp(1, specs.len().max(1)) {
            let (next, slots) = (&next, &slots);
            let ctx = trace.map(|c| TraceCtx {
                thread: w as u64 + 1,
                ..c.clone()
            });
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let start = Instant::now();
                let cell_span = ctx.as_ref().map(|c| c.spans.id());
                let cell_ctx = ctx.as_ref().map(|c| TraceCtx {
                    parent: cell_span,
                    ..c.clone()
                });
                let result = catch_unwind(AssertUnwindSafe(|| run_cell(spec, cell_ctx.as_ref())))
                    .unwrap_or_else(|p| CellResult::panicked(panic_message(p.as_ref())));
                if let (Some(c), Some(id)) = (&ctx, cell_span) {
                    c.spans.record(
                        id,
                        "synth",
                        format!("cell {i}"),
                        start,
                        Instant::now(),
                        c.thread,
                        c.parent,
                    );
                }
                *slots[i].lock().expect("slot lock poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock poisoned")
                .expect("a worker filled every slot")
        })
        .collect()
}

/// One pass of a synthetic workload: every cell of `specs` on `workers`
/// host threads. A traced pass also attributes `Engine::run` time to the
/// program, OS and machine layers.
pub fn synth_pass(
    specs: &[CellSpec],
    workers: usize,
    trace: Option<(&Arc<Spans>, SpanId)>,
    timer_ns: f64,
) -> Pass {
    let ctx = trace.map(|(spans, parent)| TraceCtx {
        spans: Arc::clone(spans),
        thread: 0,
        parent: Some(parent),
        timer_ns,
    });
    let t0 = Instant::now();
    let results = run_cells(specs, workers, ctx.as_ref());
    let wall_s = t0.elapsed().as_secs_f64();

    let ran: Vec<&CellResult> = results.iter().filter(|r| r.host_s > 0.0).collect();
    let busy: f64 = ran.iter().map(|r| r.host_s).sum();
    let run_s: f64 = ran.iter().map(|r| r.run_s).sum();
    let ops: u64 = ran.iter().map(|r| r.ops).sum();
    let mut layers = Layers::new();
    layers.set("exec.cells", ran.len() as f64);
    layers.set("exec.busy_s", busy);
    layers.set("exec.idle_s", (workers as f64 * wall_s - busy).max(0.0));
    layers.set("exec.util", busy / (workers as f64 * wall_s));
    layers.set("sim.mops_per_s", ops as f64 / run_s / 1e6);
    let missing = layers.sum_counters(ran.iter().map(|r| &r.metrics));
    if trace.is_some() {
        let traced: Vec<TracedCell> = ran.iter().filter_map(|r| r.traced).collect();
        let next_s: f64 = traced.iter().map(|t| t.next_s).sum();
        let access_s: f64 = traced.iter().map(|t| t.replay.access_s).sum();
        let translate_s: f64 = traced.iter().map(|t| t.replay.translate_s).sum();
        let fault_s: f64 = traced.iter().map(|t| t.replay.fault_s).sum();
        layers.set(
            "program.next_calls",
            traced.iter().map(|t| t.next_calls as f64).sum(),
        );
        layers.set("program.next_share", next_s / run_s);
        layers.set("machine.access_share", access_s / run_s);
        layers.set("os.translate_share", translate_s / run_s);
        layers.set("os.fault_share", fault_s / run_s);
        layers.set(
            "sim.self_share",
            (run_s - next_s - access_s - translate_s - fault_s) / run_s,
        );
    }

    Pass {
        wall_s,
        trace_basis_s: busy,
        setup_s: ran.iter().map(|r| r.setup_s).collect(),
        cells: ran
            .iter()
            .map(|r| (r.host_s, r.metrics.u64("machine.accesses")))
            .collect(),
        attempted: specs.len() as u64,
        failures: results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.error.as_ref().map(|e| format!("cell {i}: {e}")))
            .collect(),
        missing_counters: missing,
        layers,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_string());
    format!("panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: SynthKind) -> CellSpec {
        let mut spec = cell_specs(kind, 7, 1, 4_000).remove(0);
        spec.working_set = [MIN_WORKING_SET; THREADS];
        spec
    }

    #[test]
    fn specs_are_a_function_of_the_seed() {
        let a = cell_specs(SynthKind::Contended, 1, 8, 100);
        let b = cell_specs(SynthKind::Contended, 1, 8, 100);
        let c = cell_specs(SynthKind::Contended, 2, 8, 100);
        let key = |v: &[CellSpec]| {
            v.iter()
                .map(|s| (s.seed, s.working_set, s.shared_frac.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn working_sets_and_fractions_stay_in_range() {
        let mut smallest = u64::MAX;
        let mut largest = 0;
        for s in cell_specs(SynthKind::Contended, 3, 200, 100) {
            for &ws in &s.working_set {
                assert!((MIN_WORKING_SET..=MAX_WORKING_SET).contains(&ws));
                assert_eq!(ws % 8, 0);
                smallest = smallest.min(ws);
                largest = largest.max(ws);
            }
            assert!((0.3..0.6).contains(&s.shared_frac));
        }
        // Log-uniform draws reach both ends of the range.
        assert!(smallest < 8 << 10 && largest > 2 << 20);
        for s in cell_specs(SynthKind::Private, 3, 20, 100) {
            assert_eq!(s.shared_frac, 0.0);
        }
    }

    #[test]
    fn every_stratum_holds_one_draw_per_thread() {
        let n = 50;
        let specs = cell_specs(SynthKind::Contended, 9, n, 100);
        let span = (MAX_WORKING_SET as f64 / MIN_WORKING_SET as f64).ln();
        let all: Vec<usize> = (0..n).collect();
        for t in 0..THREADS {
            let mut strata: Vec<usize> = specs
                .iter()
                .map(|s| {
                    let x = (s.working_set[t] as f64 / MIN_WORKING_SET as f64).ln() / span;
                    (x * n as f64) as usize
                })
                .collect();
            strata.sort_unstable();
            assert_eq!(strata, all, "thread {t}");
        }
        let mut strata: Vec<usize> = specs
            .iter()
            .map(|s| ((s.shared_frac - 0.3) / 0.3 * n as f64) as usize)
            .collect();
        strata.sort_unstable();
        assert_eq!(strata, all);
    }

    #[test]
    fn cells_come_largest_first_and_mix_sizes() {
        let specs = cell_specs(SynthKind::Private, 4, 40, 100);
        let totals: Vec<u64> = specs.iter().map(|s| s.working_set.iter().sum()).collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]), "{totals:?}");
        for s in &specs {
            let small = *s.working_set.iter().min().unwrap();
            let large = *s.working_set.iter().max().unwrap();
            // Slices a quarter of the 1024x range apart: at least 4.6x.
            assert!(large as f64 / small as f64 > 4.0, "{:?}", s.working_set);
        }
    }

    #[test]
    fn clean_cells_check_out() {
        for kind in [SynthKind::Private, SynthKind::Contended] {
            let r = run_cell(&small(kind), None);
            assert_eq!(r.error, None, "{kind:?}");
            assert_eq!(r.metrics.u64("machine.accesses"), THREADS as u64 * 4_000);
        }
        let contended = run_cell(&small(SynthKind::Contended), None);
        assert!(contended.metrics.u64("machine.hitm_events") > 0);
    }

    #[test]
    fn a_corrupted_shadow_fails_the_cell() {
        for kind in [SynthKind::Private, SynthKind::Contended] {
            let spec = CellSpec {
                corrupt_shadow: true,
                ..small(kind)
            };
            let err = run_cell(&spec, None).error.expect("wrong loads are caught");
            assert!(err.contains("loads returned"), "{err}");
        }
    }

    #[test]
    fn traced_replay_sees_every_engine_access() {
        let spans = Arc::new(Spans::new());
        let ctx = TraceCtx {
            spans: Arc::clone(&spans),
            thread: 1,
            parent: None,
            timer_ns: timer_overhead_ns(),
        };
        let r = run_cell(&small(SynthKind::Contended), Some(&ctx));
        assert_eq!(r.error, None);
        let t = r.traced.expect("traced cell");
        assert_eq!(t.replay.accesses, r.metrics.u64("machine.accesses"));
        assert!(t.replay.faults > 0 && t.replay.translates > t.replay.accesses);
        // Every thread calls `next` once per op plus once for `Exit`.
        assert_eq!(t.next_calls, THREADS as u64 * 4_001);
        assert!(spans.check().expect("well-formed spans") > 2);
    }

    #[test]
    fn a_panicking_cell_is_a_failure_not_a_crash() {
        let mut spec = small(SynthKind::Private);
        spec.working_set[0] = 0; // an empty mapping is refused
        let results = run_cells(&[spec, small(SynthKind::Private)], 2, None);
        assert!(results[0].error.as_deref().unwrap().starts_with("panicked"));
        assert_eq!(results[1].error, None);
    }
}

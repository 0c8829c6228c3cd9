//! End-to-end tests: TMI running inside the full simulation, detecting and
//! repairing false sharing online.

use tmi::{AppLayout, TmiConfig, TmiRuntime};
use tmi_machine::{VAddr, Width, FRAME_SIZE};
use tmi_os::AsId;
use tmi_program::{InstrKind, MemOrder, Op, OpResult, RmwOp, SequenceProgram, ThreadProgram};
use tmi_sim::{Engine, EngineConfig, NullRuntime, RuntimeHooks};

const LAYOUT: AppLayout = AppLayout {
    app_start: VAddr::new(0x10_0000),
    app_len: 64 * FRAME_SIZE,
    internal_start: VAddr::new(0x200_0000),
    internal_len: 16 * FRAME_SIZE,
    huge_pages: false,
};
const APP_START: u64 = LAYOUT.app_start.raw();

fn build_engine<R: RuntimeHooks>(runtime: R, cores: usize) -> (Engine<R>, AsId) {
    let mut cfg = EngineConfig::with_cores(cores);
    cfg.tick_interval = 200_000; // fast detection for small tests
    let mut e = Engine::new(cfg, runtime);
    let aspace = LAYOUT.install(&mut e);
    (e, aspace)
}

/// A counter-increment false-sharing workload: each thread hammers its own
/// 8-byte counter; counters are packed into one line (buggy) or padded
/// (fixed).
fn counter_threads(e: &mut Engine<impl RuntimeHooks>, stride: u64, iters: usize, threads: u64) {
    let ld = e
        .core_mut()
        .code
        .instr("ctr::ld", InstrKind::Load, Width::W8);
    let st = e
        .core_mut()
        .code
        .instr("ctr::st", InstrKind::Store, Width::W8);
    for i in 0..threads {
        let addr = VAddr::new(APP_START + i * stride);
        let mut ops = Vec::with_capacity(iters * 2);
        for n in 0..iters {
            ops.push(Op::Load {
                pc: ld,
                addr,
                width: Width::W8,
            });
            ops.push(Op::Store {
                pc: st,
                addr,
                width: Width::W8,
                value: n as u64,
            });
        }
        e.add_thread(Box::new(SequenceProgram::new(ops)));
    }
}

fn run_counters<R: RuntimeHooks>(runtime: R, stride: u64, iters: usize) -> (u64, Engine<R>) {
    let (mut e, _aspace) = build_engine(runtime, 4);
    counter_threads(&mut e, stride, iters, 4);
    let r = e.run();
    assert!(r.completed(), "halt: {:?}", r.halt);
    (r.cycles, e)
}

#[test]
fn tmi_detects_false_sharing() {
    let runtime = TmiRuntime::new(TmiConfig::detect_only(), LAYOUT);
    let (_cycles, e) = run_counters(runtime, 8, 20_000);
    let stats = e.runtime().stats();
    assert!(
        !stats.fs_lines.is_empty(),
        "detector must flag the packed counter line"
    );
    assert!(!e.runtime().repaired(), "detect-only must not repair");
    let hot = APP_START / 64;
    assert!(
        stats.fs_lines.contains(&hot),
        "fs lines: {:?}",
        stats.fs_lines
    );
}

#[test]
fn tmi_does_not_flag_padded_counters() {
    let runtime = TmiRuntime::new(TmiConfig::detect_only(), LAYOUT);
    let (_cycles, e) = run_counters(runtime, 64, 20_000);
    assert!(e.runtime().stats().fs_lines.is_empty());
    assert!(e.runtime().perf().events_seen() < 100);
}

#[test]
fn tmi_repairs_false_sharing_and_speeds_up() {
    // Long enough that the one-time detection latency and thread-to-process
    // conversion cost (~460k cycles for 4 threads) amortize, as they do over
    // the paper's minute-long workloads.
    let iters = 400_000;
    // Baseline: buggy layout under plain pthreads.
    let (buggy, _) = run_counters(NullRuntime, 8, iters);
    // Manual fix: padded layout under plain pthreads.
    let (manual, _) = run_counters(NullRuntime, 64, iters);
    // TMI: buggy layout, online repair.
    let (repaired, e) = run_counters(TmiRuntime::new(TmiConfig::protect(), LAYOUT), 8, iters);

    assert!(e.runtime().repair().active(), "repair must trigger");
    let speedup = buggy as f64 / repaired as f64;
    let manual_speedup = buggy as f64 / manual as f64;
    assert!(
        speedup > 2.0,
        "TMI should speed the buggy run up substantially, got {speedup:.2}x (manual {manual_speedup:.2}x)"
    );
    assert!(
        speedup > 0.7 * manual_speedup,
        "TMI should get most of the manual speedup: {speedup:.2}x vs {manual_speedup:.2}x"
    );
}

#[test]
fn tmi_overhead_without_contention_is_small() {
    // Threads working on disjoint lines: TMI must stay out of the way.
    let iters = 30_000;
    let (base, _) = run_counters(NullRuntime, 256, iters);
    let (tmi, e) = run_counters(TmiRuntime::new(TmiConfig::protect(), LAYOUT), 256, iters);
    assert!(!e.runtime().repaired());
    let overhead = tmi as f64 / base as f64 - 1.0;
    assert!(
        overhead < 0.05,
        "overhead without contention should be tiny, got {:.1}%",
        overhead * 100.0
    );
}

#[test]
fn repaired_data_is_still_correct() {
    // Each thread increments its packed counter via load+store; after the
    // run the final values must be exactly iters-1 (last stored value),
    // visible in shared memory (commits must have merged everything).
    let iters = 60_000;
    let (mut e, aspace) = build_engine(TmiRuntime::new(TmiConfig::protect(), LAYOUT), 4);
    counter_threads(&mut e, 8, iters, 4);
    let r = e.run();
    assert!(r.completed());
    assert!(e.runtime().repair().active());
    for i in 0..4u64 {
        let addr = VAddr::new(APP_START + i * 8);
        // Read through the shared object view (what any new thread or the
        // monitoring process would see).
        let pa = e.core_mut().kernel.object_paddr(aspace, addr).unwrap();
        let v = e.core_mut().kernel.physmem().read(pa, Width::W8);
        assert_eq!(v, (iters - 1) as u64, "counter {i}");
    }
}

#[test]
fn atomic_counters_remain_atomic_under_repair() {
    // Threads concurrently RMW one shared atomic on a protected page while
    // also false-sharing plain counters on the same page. Code-centric
    // consistency routes the atomics to shared memory, so no increment is
    // lost.
    let (mut e, aspace) = build_engine(TmiRuntime::new(TmiConfig::protect(), LAYOUT), 4);
    let ld = e.core_mut().code.instr("w::ld", InstrKind::Load, Width::W8);
    let st = e
        .core_mut()
        .code
        .instr("w::st", InstrKind::Store, Width::W8);
    let rmw = e
        .core_mut()
        .code
        .atomic_instr("w::rmw", InstrKind::Rmw, Width::W8);
    let shared_ctr = VAddr::new(APP_START + 1024);
    let iters = 20_000usize;
    for i in 0..4u64 {
        let mine = VAddr::new(APP_START + i * 8);
        let mut ops = Vec::new();
        for n in 0..iters {
            ops.push(Op::Load {
                pc: ld,
                addr: mine,
                width: Width::W8,
            });
            ops.push(Op::Store {
                pc: st,
                addr: mine,
                width: Width::W8,
                value: n as u64,
            });
            if n % 20 == 0 {
                ops.push(Op::AtomicRmw {
                    pc: rmw,
                    addr: shared_ctr,
                    width: Width::W8,
                    rmw: RmwOp::Add,
                    operand: 1,
                    order: MemOrder::Relaxed,
                });
            }
        }
        e.add_thread(Box::new(SequenceProgram::new(ops)));
    }
    let r = e.run();
    assert!(r.completed());
    assert!(e.runtime().repair().active(), "repair must have triggered");
    let pa = e
        .core_mut()
        .kernel
        .object_paddr(aspace, shared_ctr)
        .unwrap();
    let v = e.core_mut().kernel.physmem().read(pa, Width::W8);
    assert_eq!(
        v as usize,
        4 * iters.div_ceil(20),
        "no lost atomic increments"
    );
}

/// A thread program that plays `ops` but makes each store to `shared`
/// write back the value its preceding load returned, plus one: a
/// load-increment-store of a shared counter.
struct Incrementer {
    ops: std::vec::IntoIter<Op>,
    shared: VAddr,
}

impl ThreadProgram for Incrementer {
    fn next(&mut self, last: OpResult) -> Op {
        match self.ops.next() {
            Some(Op::Store {
                pc, addr, width, ..
            }) if addr == self.shared => Op::Store {
                pc,
                addr,
                width,
                value: last.value.expect("the counter was just loaded") + 1,
            },
            Some(op) => op,
            None => Op::Exit,
        }
    }
}

#[test]
fn mutex_workload_commits_at_sync_and_stays_correct() {
    // Per-thread counters falsely share one line, so repair arms their
    // page; a lock-protected shared counter sits on the same page, one
    // line away. Each locked increment writes a thread's private copy of
    // the page, and only the PTSB commits at the lock operations publish
    // it to the next lock holder, so a missed commit loses increments.
    let (mut e, aspace) = build_engine(TmiRuntime::new(TmiConfig::protect(), LAYOUT), 4);
    let ld = e.core_mut().code.instr("m::ld", InstrKind::Load, Width::W8);
    let st = e
        .core_mut()
        .code
        .instr("m::st", InstrKind::Store, Width::W8);
    let lock = VAddr::new(APP_START + 2048);
    let shared = VAddr::new(APP_START + 64);
    let iters = 8_000usize;
    for i in 0..4u64 {
        let mine = VAddr::new(APP_START + i * 8);
        let mut ops = Vec::new();
        for n in 0..iters {
            ops.push(Op::Load {
                pc: ld,
                addr: mine,
                width: Width::W8,
            });
            ops.push(Op::Store {
                pc: st,
                addr: mine,
                width: Width::W8,
                value: n as u64,
            });
            if n % 200 == 0 {
                ops.push(Op::MutexLock { lock });
                ops.push(Op::Load {
                    pc: ld,
                    addr: shared,
                    width: Width::W8,
                });
                // The value is the loaded one + 1 (see `Incrementer`).
                ops.push(Op::Store {
                    pc: st,
                    addr: shared,
                    width: Width::W8,
                    value: 0,
                });
                ops.push(Op::MutexUnlock { lock });
            }
        }
        e.add_thread(Box::new(Incrementer {
            ops: ops.into_iter(),
            shared,
        }));
    }
    let r = e.run();
    assert!(r.completed(), "halt: {:?}", r.halt);
    assert!(e.runtime().repair().active(), "repair must have triggered");
    assert!(e.runtime().repair().stats().commits > 0);
    assert!(
        e.runtime().repair().is_protected(shared.vpn()),
        "the counter's page is armed"
    );
    let pa = e.core_mut().kernel.object_paddr(aspace, shared).unwrap();
    let total = e.core_mut().kernel.physmem().read(pa, Width::W8);
    assert_eq!(
        total as usize,
        4 * iters.div_ceil(200),
        "no lost increments"
    );
}

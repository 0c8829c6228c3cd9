//! Quickstart: build a tiny falsely-sharing program, run it bare, then run
//! it under TMI and watch the online repair kick in.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tmi_repro::machine::{VAddr, Width, FRAME_SIZE};
use tmi_repro::program::{InstrKind, Op, SequenceProgram};
use tmi_repro::sim::{Engine, EngineConfig, NullRuntime, RuntimeHooks};
use tmi_repro::tmi::{AppLayout, TmiConfig, TmiRuntime};

/// All application memory lives in one shared-memory object, as under
/// TMI's allocator (Fig. 6) — that is what lets threads later become
/// processes while still sharing the heap. A second object holds TMI's
/// own state.
const LAYOUT: AppLayout = AppLayout {
    app_start: VAddr::new(0x10_0000),
    app_len: 64 * FRAME_SIZE,
    internal_start: VAddr::new(0x80_0000),
    internal_len: 16 * FRAME_SIZE,
    huge_pages: false,
};

/// Builds an engine with 4 threads, each hammering its own 8-byte counter.
/// With `stride = 8` the four counters pack into one cache line: textbook
/// false sharing.
fn build<R: RuntimeHooks>(runtime: R, stride: u64, iters: usize) -> Engine<R> {
    let mut cfg = EngineConfig::with_cores(4);
    cfg.tick_interval = 400_000; // detector analysis cadence
    let mut e = Engine::new(cfg, runtime);
    LAYOUT.install(&mut e);

    let ld = e
        .core_mut()
        .code
        .instr("quickstart::load", InstrKind::Load, Width::W8);
    let st = e
        .core_mut()
        .code
        .instr("quickstart::store", InstrKind::Store, Width::W8);
    for i in 0..4u64 {
        let addr = LAYOUT.app_start.offset(i * stride);
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
    e
}

fn main() {
    let iters = 300_000;

    // 1. The buggy program on plain pthreads.
    let mut buggy = build(NullRuntime, 8, iters);
    let r_buggy = buggy.run();
    println!(
        "buggy   (packed counters): {:>12} cycles, {} HITM events",
        r_buggy.cycles,
        buggy.core().machine.stats().hitm_events
    );

    // 2. The manual fix: counters padded to separate lines.
    let mut fixed = build(NullRuntime, 64, iters);
    let r_fixed = fixed.run();
    println!(
        "manual  (padded counters): {:>12} cycles, {} HITM events",
        r_fixed.cycles,
        fixed.core().machine.stats().hitm_events
    );

    // 3. The buggy program under TMI: detection via HITM sampling, then
    //    threads become processes and the hot page goes copy-on-write.
    let mut tmi = build(TmiRuntime::new(TmiConfig::protect(), LAYOUT), 8, iters);
    let r_tmi = tmi.run();
    let rt = tmi.runtime();
    println!(
        "TMI     (online repair)  : {:>12} cycles, repaired={}, commits={}, T2P at cycle {:?}",
        r_tmi.cycles,
        rt.repaired(),
        rt.repair().stats().commits,
        rt.repair().stats().converted_at_cycle,
    );

    let manual = r_buggy.cycles as f64 / r_fixed.cycles as f64;
    let online = r_buggy.cycles as f64 / r_tmi.cycles as f64;
    println!(
        "\nmanual speedup {manual:.2}x; TMI automatic speedup {online:.2}x ({:.0}% of manual)",
        100.0 * online / manual
    );
}

//! Engine edge cases: lock redirection, uncached routing, thread-exit
//! sync events, oversubscription, replayed (spinning) operations, and the
//! run queue under hooks that charge other threads.

use tmi_machine::{VAddr, Width, FRAME_SIZE};
use tmi_os::{MapRequest, Tid};
use tmi_program::{InstrKind, Op, OpResult, SequenceProgram, ThreadProgram};
use tmi_sim::{
    AccessInfo, Engine, EngineConfig, EngineCtl, NullRuntime, PreAccess, Route, RuntimeHooks,
    SyncEvent,
};

const APP: u64 = 0x10_0000;

fn engine_with<R: RuntimeHooks>(rt: R, cores: usize) -> (Engine<R>, tmi_os::AsId) {
    let mut e = Engine::new(EngineConfig::with_cores(cores), rt);
    let obj = e.core_mut().kernel.create_object(64 * FRAME_SIZE);
    let aspace = e.core_mut().kernel.create_aspace();
    e.core_mut()
        .kernel
        .map(
            aspace,
            MapRequest::object(VAddr::new(APP), 64 * FRAME_SIZE, obj, 0),
        )
        .unwrap();
    e.create_root_process(aspace);
    (e, aspace)
}

/// A runtime that redirects every mutex to a fixed internal word and logs
/// the sync events it saw.
#[derive(Default)]
struct RedirectingRuntime {
    syncs: Vec<SyncEvent>,
    redirects: u32,
}

impl RuntimeHooks for RedirectingRuntime {
    fn on_sync(&mut self, _ctl: &mut dyn EngineCtl, _tid: Tid, ev: SyncEvent) -> u64 {
        self.syncs.push(ev);
        0
    }

    fn map_lock(&mut self, _ctl: &mut dyn EngineCtl, _tid: Tid, _lock: VAddr) -> (VAddr, u64) {
        self.redirects += 1;
        (VAddr::new(APP + 32 * FRAME_SIZE), 3)
    }
}

#[test]
fn redirected_locks_keep_logical_identity() {
    // Two DIFFERENT app locks redirected to the SAME internal word must
    // still exclude independently: mutual exclusion is keyed on the app
    // lock, the redirect only moves the memory traffic.
    let (mut e, aspace) = engine_with(RedirectingRuntime::default(), 2);
    let ld = e.core_mut().code.instr("t::ld", InstrKind::Load, Width::W8);
    let st = e
        .core_mut()
        .code
        .instr("t::st", InstrKind::Store, Width::W8);
    let counter = VAddr::new(APP + 128);
    for i in 0..2u64 {
        let lock = VAddr::new(APP + i * 64); // different app locks
        let mut ops = Vec::new();
        for _ in 0..200 {
            ops.push(Op::MutexLock { lock });
            ops.push(Op::Load {
                pc: ld,
                addr: counter,
                width: Width::W8,
            });
            ops.push(Op::Store {
                pc: st,
                addr: counter,
                width: Width::W8,
                value: 1,
            });
            ops.push(Op::MutexUnlock { lock });
        }
        e.add_thread(Box::new(SequenceProgram::new(ops)));
    }
    let r = e.run();
    assert!(r.completed(), "{:?}", r.halt);
    assert_eq!(
        e.runtime().redirects,
        2 * 200 * 2,
        "every lock op redirected"
    );
    // Both locks' events arrived plus the two thread exits.
    let locks = e
        .runtime()
        .syncs
        .iter()
        .filter(|s| matches!(s, SyncEvent::MutexLock(_)))
        .count();
    assert_eq!(locks, 400);
    let exits = e
        .runtime()
        .syncs
        .iter()
        .filter(|s| matches!(s, SyncEvent::ThreadExit))
        .count();
    assert_eq!(exits, 2);
    let _ = aspace;
}

/// A runtime that routes every store through the Uncached path.
struct UncachedStores;

impl RuntimeHooks for UncachedStores {
    fn pre_access(&mut self, _ctl: &mut dyn EngineCtl, _tid: Tid, acc: &AccessInfo) -> PreAccess {
        if acc.kind.is_write() {
            PreAccess {
                extra_cycles: 5,
                route: Route::Uncached,
            }
        } else {
            PreAccess::default()
        }
    }
}

#[test]
fn uncached_stores_update_data_without_coherence_traffic() {
    let (mut e, aspace) = engine_with(UncachedStores, 2);
    let st = e
        .core_mut()
        .code
        .instr("u::st", InstrKind::Store, Width::W8);
    let x = VAddr::new(APP + 8);
    e.add_thread(Box::new(SequenceProgram::new(vec![
        Op::Store {
            pc: st,
            addr: x,
            width: Width::W8,
            value: 99,
        };
        100
    ])));
    let r = e.run();
    assert!(r.completed());
    // Data arrived...
    assert_eq!(
        e.core_mut()
            .kernel
            .force_read(aspace, x, Width::W8)
            .unwrap(),
        99
    );
    // ...but the machine saw no stores at all (only the page-fault-free
    // translation path ran).
    assert_eq!(e.core().machine.stats().stores, 0);
}

#[test]
fn oversubscription_threads_beyond_cores_complete() {
    let (mut e, aspace) = engine_with(NullRuntime, 2); // 6 threads, 2 cores
    let st = e
        .core_mut()
        .code
        .instr("o::st", InstrKind::Store, Width::W8);
    for i in 0..6u64 {
        let addr = VAddr::new(APP + 0x1000 + i * 256);
        e.add_thread(Box::new(SequenceProgram::new(vec![
            Op::Store {
                pc: st,
                addr,
                width: Width::W8,
                value: i
            };
            500
        ])));
    }
    let r = e.run();
    assert!(r.completed());
    for i in 0..6u64 {
        let addr = VAddr::new(APP + 0x1000 + i * 256);
        assert_eq!(
            e.core_mut()
                .kernel
                .force_read(aspace, addr, Width::W8)
                .unwrap(),
            i
        );
    }
}

#[test]
fn contended_spinlock_replays_until_acquired() {
    let (mut e, aspace) = engine_with(NullRuntime, 4);
    let rmw = e
        .core_mut()
        .code
        .atomic_instr("s::inc", InstrKind::Rmw, Width::W8);
    let lock = VAddr::new(APP);
    let counter = VAddr::new(APP + 512);
    for _ in 0..4 {
        let mut ops = Vec::new();
        for _ in 0..100 {
            ops.push(Op::SpinLock { lock });
            // Long critical section forces real contention and spinning.
            ops.push(Op::Compute { cycles: 300 });
            ops.push(Op::AtomicRmw {
                pc: rmw,
                addr: counter,
                width: Width::W8,
                rmw: tmi_program::RmwOp::Add,
                operand: 1,
                order: tmi_program::MemOrder::Relaxed,
            });
            ops.push(Op::SpinUnlock { lock });
        }
        e.add_thread(Box::new(SequenceProgram::new(ops)));
    }
    let r = e.run();
    assert!(r.completed());
    assert_eq!(
        e.core_mut()
            .kernel
            .force_read(aspace, counter, Width::W8)
            .unwrap(),
        400,
        "mutual exclusion held under contention"
    );
    // Spinning shows up as extra ops (replays) beyond the program length.
    assert!(
        r.ops > 4 * 401,
        "expected replayed spin attempts, got {}",
        r.ops
    );
}

/// Data-dependent program: spins on a flag written by the other thread —
/// exercising the OpResult feedback path under blocking.
struct FlagWaiter {
    flag: VAddr,
    ld: tmi_program::Pc,
    polls: u32,
    state: u8,
}

impl ThreadProgram for FlagWaiter {
    fn next(&mut self, last: OpResult) -> Op {
        match self.state {
            0 => {
                self.state = 1;
                Op::Load {
                    pc: self.ld,
                    addr: self.flag,
                    width: Width::W8,
                }
            }
            1 => {
                if last.unwrap() == 1 {
                    self.state = 2;
                    Op::Exit
                } else {
                    self.polls += 1;
                    Op::Load {
                        pc: self.ld,
                        addr: self.flag,
                        width: Width::W8,
                    }
                }
            }
            _ => Op::Exit,
        }
    }
}

#[test]
fn polling_loops_observe_remote_stores() {
    let (mut e, _aspace) = engine_with(NullRuntime, 2);
    let ld = e.core_mut().code.instr("f::ld", InstrKind::Load, Width::W8);
    let st = e
        .core_mut()
        .code
        .instr("f::st", InstrKind::Store, Width::W8);
    let flag = VAddr::new(APP + 2048);
    e.add_thread(Box::new(FlagWaiter {
        flag,
        ld,
        polls: 0,
        state: 0,
    }));
    e.add_thread(Box::new(SequenceProgram::new(vec![
        Op::Compute { cycles: 50_000 },
        Op::Store {
            pc: st,
            addr: flag,
            width: Width::W8,
            value: 1,
        },
    ])));
    let r = e.run();
    assert!(r.completed(), "the waiter must see the flag: {:?}", r.halt);
}

/// A xorshift step: the seeded randomness of the run-queue test.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Charges one other thread, or every thread, at random accesses and
/// ticks: the hook calls that move clocks outside the running thread.
struct Charger {
    x: u64,
    charges: u32,
}

impl Charger {
    fn charge(&mut self, ctl: &mut dyn EngineCtl, running: Option<Tid>) {
        let r = xorshift(&mut self.x);
        if r % 5 < 2 {
            let others: Vec<Tid> = ctl
                .tids()
                .into_iter()
                .filter(|&t| Some(t) != running)
                .collect();
            let victim = others[(r >> 8) as usize % others.len()];
            ctl.add_cycles(victim, (r >> 20) % 4_000);
            self.charges += 1;
        }
        if r.is_multiple_of(7) {
            ctl.add_cycles_all((r >> 32) % 2_000);
            self.charges += 1;
        }
    }
}

impl RuntimeHooks for Charger {
    fn post_access(
        &mut self,
        ctl: &mut dyn EngineCtl,
        tid: Tid,
        _acc: &AccessInfo,
        _outcome: &tmi_machine::AccessOutcome,
    ) -> u64 {
        if xorshift(&mut self.x).is_multiple_of(61) {
            self.charge(ctl, Some(tid));
        }
        0
    }

    fn on_tick(&mut self, ctl: &mut dyn EngineCtl, _now: u64) {
        self.charge(ctl, None);
    }
}

#[test]
fn run_queue_survives_blocking_wakes_exits_and_charges() {
    // Debug builds check every pick and every global time against the
    // scans the run queue replaces, so reaching the end of each run is the
    // test; the counter checks that the locks still exclude.
    for seed in 1..=12u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let rt = Charger { x, charges: 0 };
        let mut e = Engine::new(
            EngineConfig {
                tick_interval: 20_000,
                ..EngineConfig::with_cores(4)
            },
            rt,
        );
        let obj = e.core_mut().kernel.create_object(64 * FRAME_SIZE);
        let aspace = e.core_mut().kernel.create_aspace();
        e.core_mut()
            .kernel
            .map(
                aspace,
                MapRequest::object(VAddr::new(APP), 64 * FRAME_SIZE, obj, 0),
            )
            .unwrap();
        e.create_root_process(aspace);
        let rmw = e
            .core_mut()
            .code
            .atomic_instr("q::inc", InstrKind::Rmw, Width::W8);
        let (mutex, spin, barrier) = (VAddr::new(APP), VAddr::new(APP + 64), VAddr::new(APP + 128));
        let counter = VAddr::new(APP + 256);
        let threads = 3 + (seed % 4) as usize; // 3..=6 threads on 4 cores
        let mut increments = 0;
        for _ in 0..threads {
            let mut ops = Vec::new();
            for _ in 0..6 {
                for _ in 0..xorshift(&mut x) % 4 {
                    let r = xorshift(&mut x);
                    let (lock, unlock) = if r.is_multiple_of(2) {
                        (
                            Op::MutexLock { lock: mutex },
                            Op::MutexUnlock { lock: mutex },
                        )
                    } else {
                        (Op::SpinLock { lock: spin }, Op::SpinUnlock { lock: spin })
                    };
                    ops.push(lock);
                    // Costs from 0 (ties with the runner-up) to ~3k cycles.
                    ops.push(Op::Compute {
                        cycles: (r >> 8) % 4 * ((r >> 16) % 1_000),
                    });
                    ops.push(Op::AtomicRmw {
                        pc: rmw,
                        addr: counter,
                        width: Width::W8,
                        rmw: tmi_program::RmwOp::Add,
                        operand: 1,
                        order: tmi_program::MemOrder::Relaxed,
                    });
                    ops.push(unlock);
                    increments += 1;
                }
                ops.push(Op::Compute {
                    cycles: xorshift(&mut x) % 3 * 5_000,
                });
                ops.push(Op::BarrierWait { barrier });
            }
            // Threads leave at different times after the last barrier.
            ops.push(Op::Compute {
                cycles: xorshift(&mut x) % 50_000,
            });
            e.add_thread(Box::new(SequenceProgram::new(ops)));
        }
        let r = e.run();
        assert!(r.completed(), "seed {seed}: {:?}", r.halt);
        assert!(
            e.runtime().charges > 0,
            "seed {seed}: the hook never charged"
        );
        assert_eq!(
            e.core_mut()
                .kernel
                .force_read(aspace, counter, Width::W8)
                .unwrap(),
            increments,
            "seed {seed}"
        );
    }
}

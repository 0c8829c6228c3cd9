//! Deterministic litmus-program generation.
//!
//! A litmus program is a small multi-threaded [`Op`] program designed to
//! exercise every row of the paper's Table 2 consistency matrix on
//! PTSB-armed pages: plain loads/stores, relaxed and ordering C++11
//! atomics, inline-assembly regions, mutexes, spinlocks, barriers and
//! fences. Generation is a pure function of the seed — no wall clock, no
//! global RNG — so any divergence the differential checker finds is
//! reproducible from `(seed, config)` alone.
//!
//! ## The data-race-free slot discipline
//!
//! Every memory location a litmus program touches is a *slot* with a
//! class, and the generator only emits accesses the class permits:
//!
//! * [`SlotClass::Atomic`] — accessed exclusively through atomic ops, by
//!   any thread.
//! * [`SlotClass::Asm`] — accessed exclusively inside `asm` regions
//!   (plain ops allowed, races allowed: asm accesses get TSO semantics
//!   and bypass the PTSB entirely).
//! * [`SlotClass::Guarded`] — plain ops, only inside the critical section
//!   of one specific mutex or spinlock.
//! * [`SlotClass::Private`] — plain ops, only by the owning thread.
//! * [`SlotClass::Phase`] — plain-stored by one writer thread before the
//!   barrier, plain-loaded by anyone after it.
//!
//! Under code-centric consistency this discipline makes the program free
//! of *unsynchronized* plain-access races, so the repaired execution must
//! be value-equivalent to a sequentially consistent interpretation of the
//! same schedule ([`crate::interp`]). With the `code_centric` ablation the
//! atomic, asm and spinlock rules lose their PTSB bypass/flush semantics
//! and the same programs reproduce the paper's Fig. 11/12 failure modes.
//!
//! Lock words, the barrier word and spinlock words live on a dedicated
//! *sync page* that is never PTSB-armed, mirroring TMI's process-shared
//! internal lock objects (§3.2).

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use tmi::AppLayout;
use tmi_machine::{VAddr, Vpn, Width, FRAME_SIZE};
use tmi_program::{MemOrder, Op, OpBuilder, Pc, RmwOp, VmOp};

/// The process every litmus program runs in: a 64-page application
/// object at 1 MiB and a 16-page TMI-internal region (the lock
/// redirection target) at 16 MiB.
pub const LAYOUT: AppLayout = AppLayout {
    app_start: VAddr::new(0x10_0000),
    app_len: 64 * FRAME_SIZE,
    internal_start: VAddr::new(0x100_0000),
    internal_len: 16 * FRAME_SIZE,
    huge_pages: false,
};
/// Base of the application object, where the data and sync pages lie.
const APP_START: u64 = LAYOUT.app_start.raw();

/// Number of PTSB-armed data pages at the start of the app region.
const DATA_PAGE_COUNT: u64 = 2;
/// App-region page index of the (never armed) sync page.
const SYNC_PAGE_INDEX: u64 = 8;

const PC_LD: Pc = Pc(0x40_0000);
const PC_ST: Pc = Pc(0x40_0010);
const PC_ALD: Pc = Pc(0x40_0020);
const PC_AST: Pc = Pc(0x40_0030);
const PC_RMW: Pc = Pc(0x40_0040);
const PC_CAS: Pc = Pc(0x40_0050);
const PC_ASM_LD: Pc = Pc(0x40_0060);
const PC_ASM_ST: Pc = Pc(0x40_0070);

const LOAD_ORDERS: [MemOrder; 3] = [MemOrder::Relaxed, MemOrder::Acquire, MemOrder::SeqCst];
const STORE_ORDERS: [MemOrder; 3] = [MemOrder::Relaxed, MemOrder::Release, MemOrder::SeqCst];
const ALL_ORDERS: [MemOrder; 5] = [
    MemOrder::Relaxed,
    MemOrder::Acquire,
    MemOrder::Release,
    MemOrder::AcqRel,
    MemOrder::SeqCst,
];
const RMW_OPS: [RmwOp; 6] = [
    RmwOp::Add,
    RmwOp::Sub,
    RmwOp::And,
    RmwOp::Or,
    RmwOp::Xor,
    RmwOp::Xchg,
];

/// How a slot may be accessed (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotClass {
    /// Atomic ops only, any thread.
    Atomic,
    /// Inside asm regions only, any thread, races allowed.
    Asm,
    /// Plain ops inside the critical section of `guard` only.
    Guarded {
        /// Index into [`Litmus::guards`].
        guard: usize,
    },
    /// Plain ops by the owning thread only.
    Private {
        /// Thread index.
        owner: usize,
    },
    /// Plain-stored by `writer` before the barrier, loaded after it.
    Phase {
        /// Thread index of the sole phase-0 writer.
        writer: usize,
    },
}

/// One memory location under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Address on a PTSB-armed data page.
    pub addr: VAddr,
    /// The one width every access to this slot uses.
    pub width: Width,
    /// Access discipline.
    pub class: SlotClass,
}

/// Kind of a synchronization guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardKind {
    /// `pthread_mutex`-style lock (commits the PTSB via `on_sync`).
    Mutex,
    /// Spinlock (commits only through its ordering-atomic exchange, i.e.
    /// only under code-centric consistency).
    Spin,
}

/// A lock object on the sync page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Guard {
    /// Lock-word address (sync page, never armed).
    pub addr: VAddr,
    /// Mutex or spinlock.
    pub kind: GuardKind,
}

/// Static Table 2 coverage counters of a litmus program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Plain loads/stores outside asm regions.
    pub plain: u64,
    /// Relaxed atomic operations.
    pub atomic_relaxed: u64,
    /// Ordering (acquire/release/acq-rel/seq-cst) atomic operations.
    pub atomic_ordering: u64,
    /// Accesses inside asm regions.
    pub asm_accesses: u64,
    /// Mutex lock/unlock pairs' operations.
    pub mutex_ops: u64,
    /// Spinlock acquire/release operations.
    pub spin_ops: u64,
    /// Barrier arrivals.
    pub barrier_ops: u64,
    /// Fences.
    pub fences: u64,
    /// Explicit `mprotect` VM ops (transistency programs only; all the
    /// `vm_*` counters stay zero for [`Litmus::generate`] programs).
    pub vm_mprotect: u64,
    /// Explicit COW-break VM ops.
    pub vm_cow_break: u64,
    /// Explicit T2P-conversion VM ops.
    pub vm_t2p: u64,
    /// Explicit twin-commit VM ops.
    pub vm_twin_commit: u64,
    /// Explicit TLB-shootdown VM ops.
    pub vm_shootdown: u64,
}

impl Coverage {
    /// Accumulates another program's counters.
    pub fn add(&mut self, o: &Coverage) {
        self.plain += o.plain;
        self.atomic_relaxed += o.atomic_relaxed;
        self.atomic_ordering += o.atomic_ordering;
        self.asm_accesses += o.asm_accesses;
        self.mutex_ops += o.mutex_ops;
        self.spin_ops += o.spin_ops;
        self.barrier_ops += o.barrier_ops;
        self.fences += o.fences;
        self.vm_mprotect += o.vm_mprotect;
        self.vm_cow_break += o.vm_cow_break;
        self.vm_t2p += o.vm_t2p;
        self.vm_twin_commit += o.vm_twin_commit;
        self.vm_shootdown += o.vm_shootdown;
    }

    /// True if every Table 2 access row (regular, relaxed atomic, ordering
    /// atomic, asm) appears.
    pub fn all_table2_rows(&self) -> bool {
        self.plain > 0
            && self.atomic_relaxed > 0
            && self.atomic_ordering > 0
            && self.asm_accesses > 0
    }

    /// Total explicit VM operations of every kind.
    pub fn vm_ops(&self) -> u64 {
        self.vm_mprotect + self.vm_cow_break + self.vm_t2p + self.vm_twin_commit + self.vm_shootdown
    }

    /// True if all five VM-op kinds appear (the transistency analogue of
    /// [`Coverage::all_table2_rows`]).
    pub fn all_vm_kinds(&self) -> bool {
        self.vm_mprotect > 0
            && self.vm_cow_break > 0
            && self.vm_t2p > 0
            && self.vm_twin_commit > 0
            && self.vm_shootdown > 0
    }
}

impl std::fmt::Display for Coverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plain={} atomic(relaxed={} ordering={}) asm={} sync(mutex={} spin={} barrier={}) fence={}",
            self.plain,
            self.atomic_relaxed,
            self.atomic_ordering,
            self.asm_accesses,
            self.mutex_ops,
            self.spin_ops,
            self.barrier_ops,
            self.fences
        )?;
        if self.vm_ops() > 0 {
            write!(
                f,
                " vm(mprotect={} cow={} t2p={} commit={} shootdown={})",
                self.vm_mprotect,
                self.vm_cow_break,
                self.vm_t2p,
                self.vm_twin_commit,
                self.vm_shootdown
            )?;
        }
        Ok(())
    }
}

/// A generated litmus program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Litmus {
    /// The seed it was generated from.
    pub seed: u64,
    /// Per-thread op lists (the engine appends the final `Exit`).
    pub threads: Vec<Vec<Op>>,
    /// The slots under test.
    pub slots: Vec<Slot>,
    /// The lock objects.
    pub guards: Vec<Guard>,
}

/// Address of the shared barrier every litmus thread arrives at once.
pub fn barrier_addr() -> VAddr {
    VAddr::new(APP_START + SYNC_PAGE_INDEX * FRAME_SIZE)
}

fn guard_addr(i: usize) -> VAddr {
    VAddr::new(APP_START + SYNC_PAGE_INDEX * FRAME_SIZE + 64 * (i as u64 + 1))
}

fn pick(rng: &mut StdRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn pick_width(rng: &mut StdRng) -> Width {
    match pick(rng, 20) {
        0..=9 => Width::W8,
        10..=14 => Width::W4,
        15..=17 => Width::W2,
        _ => Width::W1,
    }
}

impl Litmus {
    /// Generates the litmus program for `seed` (pure, deterministic).
    ///
    /// The RNG draw order of this entry point is a stability contract:
    /// golden replay gates and fixed-seed campaigns depend on
    /// `generate(seed)` producing byte-identical programs across
    /// releases. Transistency programs therefore live behind the
    /// separate [`Litmus::generate_vm`] entry point instead of a flag
    /// that would perturb the shared draw sequence.
    pub fn generate(seed: u64) -> Litmus {
        Self::generate_with(seed, false)
    }

    /// Generates the transistency litmus program for `seed`: the same
    /// program family as [`Litmus::generate`], with explicit VM
    /// operations (`mprotect`, COW break, T2P conversion, twin commit,
    /// TLB shootdown) interleaved at balanced positions, plus one
    /// guaranteed pre-barrier T2P in thread 0 so every program forces a
    /// repair episode to start *mid-schedule* rather than being armed up
    /// front by the checker.
    pub fn generate_vm(seed: u64) -> Litmus {
        Self::generate_with(seed, true)
    }

    fn generate_with(seed: u64, vm: bool) -> Litmus {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_threads = 2 + pick(&mut rng, 3) as usize;
        let n_mutex = 1 + pick(&mut rng, 2) as usize;
        let n_spin = pick(&mut rng, 2) as usize;
        let guards: Vec<Guard> = (0..n_mutex + n_spin)
            .map(|i| Guard {
                addr: guard_addr(i),
                kind: if i < n_mutex {
                    GuardKind::Mutex
                } else {
                    GuardKind::Spin
                },
            })
            .collect();

        let n_slots = 8 + pick(&mut rng, 9) as usize;
        let mut slots = Vec::with_capacity(n_slots);
        for i in 0..n_slots {
            let page = (i % DATA_PAGE_COUNT as usize) as u64;
            let addr = VAddr::new(APP_START + page * FRAME_SIZE + (i as u64 / DATA_PAGE_COUNT) * 8);
            let mut width = pick_width(&mut rng);
            let class = if i == 0 {
                SlotClass::Atomic
            } else if i == 1 {
                SlotClass::Asm
            } else {
                match pick(&mut rng, 100) {
                    0..=19 => SlotClass::Atomic,
                    20..=34 => SlotClass::Asm,
                    35..=59 => SlotClass::Guarded {
                        guard: pick(&mut rng, guards.len() as u64) as usize,
                    },
                    60..=79 => SlotClass::Private {
                        owner: pick(&mut rng, n_threads as u64) as usize,
                    },
                    _ => SlotClass::Phase {
                        writer: pick(&mut rng, n_threads as u64) as usize,
                    },
                }
            };
            // Single-byte "atomics" cannot tear; keep atomic slots
            // multi-byte so the AMBSA detector has something to check.
            if class == SlotClass::Atomic && width == Width::W1 {
                width = Width::W8;
            }
            slots.push(Slot { addr, width, class });
        }

        let ctx = Ctx::new(&slots, &guards, n_threads);
        let mut threads = Vec::with_capacity(n_threads);
        for t in 0..n_threads {
            let mut ops = gen_phase(&mut rng, 0, t, &ctx, vm);
            ops.push(Op::BarrierWait {
                barrier: barrier_addr(),
            });
            ops.extend(gen_phase(&mut rng, 1, t, &ctx, vm));
            threads.push(ops);
        }

        // Guarantee every phase slot is actually written before the
        // barrier: prepend a store to its writer's phase-0 ops.
        for (s, slot) in slots.iter().enumerate() {
            if let SlotClass::Phase { writer } = slot.class {
                let value = rng.next_u64();
                threads[writer].insert(
                    0,
                    Op::Store {
                        pc: PC_ST,
                        addr: slot.addr,
                        width: slot.width,
                        value,
                    },
                );
                let _ = s;
            }
        }

        if vm {
            // Guarantee the repair episode starts mid-run: one T2P on the
            // first data page, at a random balanced pre-barrier position
            // in thread 0. Everything before it runs unrepaired (plain
            // shared memory, still SC), everything after runs armed.
            let points = vm_insertion_points(&threads[0]);
            let pos = points[pick(&mut rng, points.len() as u64) as usize];
            threads[0].insert(
                pos,
                Op::Vm {
                    op: VmOp::T2p,
                    addr: VAddr::new(APP_START),
                },
            );
        }

        Litmus {
            seed,
            threads,
            slots,
            guards,
        }
    }

    /// True if any thread issues an explicit VM operation (i.e. this is a
    /// transistency program; the checker then lets the program trigger
    /// repair itself instead of arming pages up front).
    pub fn has_vm_ops(&self) -> bool {
        self.threads
            .iter()
            .flatten()
            .any(|op| matches!(op, Op::Vm { .. }))
    }

    /// The PTSB-armed pages the checker must hand to `force_repair`.
    pub fn data_pages(&self) -> Vec<Vpn> {
        (0..DATA_PAGE_COUNT)
            .map(|i| Vpn(APP_START / FRAME_SIZE + i))
            .collect()
    }

    /// Total static op count across threads.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Static Table 2 coverage of this program.
    pub fn coverage(&self) -> Coverage {
        let mut c = Coverage::default();
        for ops in &self.threads {
            let mut depth = 0u32;
            for op in ops {
                match *op {
                    Op::AsmEnter => depth += 1,
                    Op::AsmExit => depth -= 1,
                    Op::Load { .. } | Op::Store { .. } => {
                        if depth > 0 {
                            c.asm_accesses += 1;
                        } else {
                            c.plain += 1;
                        }
                    }
                    Op::AtomicLoad { order, .. }
                    | Op::AtomicStore { order, .. }
                    | Op::AtomicRmw { order, .. }
                    | Op::Cas { order, .. } => {
                        if order.is_ordering() {
                            c.atomic_ordering += 1;
                        } else {
                            c.atomic_relaxed += 1;
                        }
                    }
                    Op::MutexLock { .. } | Op::MutexUnlock { .. } => c.mutex_ops += 1,
                    Op::SpinLock { .. } | Op::SpinUnlock { .. } => c.spin_ops += 1,
                    Op::BarrierWait { .. } => c.barrier_ops += 1,
                    Op::Fence { .. } => c.fences += 1,
                    Op::Vm { op, .. } => match op {
                        VmOp::Mprotect => c.vm_mprotect += 1,
                        VmOp::CowBreak => c.vm_cow_break += 1,
                        VmOp::T2p => c.vm_t2p += 1,
                        VmOp::TwinCommit => c.vm_twin_commit += 1,
                        VmOp::Shootdown => c.vm_shootdown += 1,
                    },
                    Op::Compute { .. } | Op::Exit => {}
                }
            }
        }
        c
    }

    /// Bounded schedule enumeration (DPOR-lite) for `seed`: a small
    /// two-thread base program, with the VM-op "sync points" — one T2P in
    /// thread 0, one seed-chosen second op in thread 1, one seed-chosen
    /// trailing op in thread 0 — placed at *every* pair of balanced
    /// pre-barrier positions, in deterministic order, capped at `cap`
    /// variants. Where the seeded mode samples VM-op placements randomly,
    /// this mode exhausts them for programs small enough to afford it:
    /// the transistency analogue of enumerating interleavings around sync
    /// points rather than fuzzing them.
    pub fn vm_variants(seed: u64, cap: usize) -> Vec<Litmus> {
        let base = Litmus::generate_small(seed);
        // Draws for the movable ops' kinds come from a distinct stream so
        // they cannot perturb (or be perturbed by) base-program growth.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7472_616E_7369_7374); // "transist"
        let second = vm_op_kind(&mut rng);
        let trailing = vm_op_kind(&mut rng);
        let p0 = vm_insertion_points(&base.threads[0]);
        let p1 = vm_insertion_points(&base.threads[1]);
        let mut out = Vec::new();
        for &i in &p0 {
            for &j in &p1 {
                if out.len() >= cap {
                    return out;
                }
                let mut v = base.clone();
                v.threads[0].insert(
                    i,
                    Op::Vm {
                        op: VmOp::T2p,
                        addr: VAddr::new(APP_START),
                    },
                );
                v.threads[1].insert(
                    j,
                    Op::Vm {
                        op: second,
                        addr: VAddr::new(APP_START + (DATA_PAGE_COUNT - 1) * FRAME_SIZE),
                    },
                );
                v.threads[0].push(Op::Vm {
                    op: trailing,
                    addr: VAddr::new(APP_START),
                });
                out.push(v);
            }
        }
        out
    }

    /// A deliberately small two-thread program for the enumeration mode:
    /// few slots, short phases, one mutex — enough surface for VM-op
    /// placements to interact with real accesses while keeping the
    /// placement cross-product tractable.
    fn generate_small(seed: u64) -> Litmus {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let n_threads = 2;
        let guards = vec![Guard {
            addr: guard_addr(0),
            kind: GuardKind::Mutex,
        }];
        let n_slots = 4 + pick(&mut rng, 3) as usize;
        let mut slots = Vec::with_capacity(n_slots);
        for i in 0..n_slots {
            let page = (i % DATA_PAGE_COUNT as usize) as u64;
            let addr = VAddr::new(APP_START + page * FRAME_SIZE + (i as u64 / DATA_PAGE_COUNT) * 8);
            let mut width = pick_width(&mut rng);
            let class = if i == 0 {
                SlotClass::Atomic
            } else if i == 1 {
                SlotClass::Asm
            } else {
                match pick(&mut rng, 100) {
                    0..=24 => SlotClass::Guarded { guard: 0 },
                    25..=59 => SlotClass::Private {
                        owner: pick(&mut rng, n_threads as u64) as usize,
                    },
                    _ => SlotClass::Phase {
                        writer: pick(&mut rng, n_threads as u64) as usize,
                    },
                }
            };
            if class == SlotClass::Atomic && width == Width::W1 {
                width = Width::W8;
            }
            slots.push(Slot { addr, width, class });
        }
        let ctx = Ctx::new(&slots, &guards, n_threads);
        let mut threads = Vec::with_capacity(n_threads);
        for t in 0..n_threads {
            let pre = 2 + pick(&mut rng, 2);
            let mut ops = gen_phase_n(&mut rng, 0, t, &ctx, false, pre);
            ops.push(Op::BarrierWait {
                barrier: barrier_addr(),
            });
            let post = 2 + pick(&mut rng, 2);
            ops.extend(gen_phase_n(&mut rng, 1, t, &ctx, false, post));
            threads.push(ops);
        }
        for slot in slots.iter() {
            if let SlotClass::Phase { writer } = slot.class {
                let value = rng.next_u64();
                threads[writer].insert(
                    0,
                    Op::Store {
                        pc: PC_ST,
                        addr: slot.addr,
                        width: slot.width,
                        value,
                    },
                );
            }
        }
        Litmus {
            seed,
            threads,
            slots,
            guards,
        }
    }

    /// Human-readable program listing for divergence reports.
    pub fn listing(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "litmus seed {}: {} threads, {} slots, {} guards",
            self.seed,
            self.threads.len(),
            self.slots.len(),
            self.guards.len()
        );
        for (i, slot) in self.slots.iter().enumerate() {
            let class = match slot.class {
                SlotClass::Atomic => "atomic".to_string(),
                SlotClass::Asm => "asm".to_string(),
                SlotClass::Guarded { guard } => format!("guarded(g{guard})"),
                SlotClass::Private { owner } => format!("private(t{owner})"),
                SlotClass::Phase { writer } => format!("phase(writer t{writer})"),
            };
            let _ = writeln!(s, "  s{i}: {} {} {class}", slot.addr, slot.width);
        }
        for (i, g) in self.guards.iter().enumerate() {
            let kind = match g.kind {
                GuardKind::Mutex => "mutex",
                GuardKind::Spin => "spin",
            };
            let _ = writeln!(s, "  g{i}: {} {kind}", g.addr);
        }
        for (t, ops) in self.threads.iter().enumerate() {
            let _ = writeln!(s, "thread {t}:");
            for (k, op) in ops.iter().enumerate() {
                let _ = writeln!(s, "  {k:3}: {op}");
            }
        }
        s
    }
}

/// Immutable slot-index tables the action generator draws from.
struct Ctx {
    atomic: Vec<usize>,
    asm: Vec<usize>,
    phase: Vec<usize>,
    by_guard: Vec<Vec<usize>>,
    by_owner: Vec<Vec<usize>>,
    slots: Vec<Slot>,
    guards: Vec<Guard>,
}

impl Ctx {
    fn new(slots: &[Slot], guards: &[Guard], n_threads: usize) -> Ctx {
        let mut ctx = Ctx {
            atomic: Vec::new(),
            asm: Vec::new(),
            phase: Vec::new(),
            by_guard: vec![Vec::new(); guards.len()],
            by_owner: vec![Vec::new(); n_threads],
            slots: slots.to_vec(),
            guards: guards.to_vec(),
        };
        for (i, s) in slots.iter().enumerate() {
            match s.class {
                SlotClass::Atomic => ctx.atomic.push(i),
                SlotClass::Asm => ctx.asm.push(i),
                SlotClass::Guarded { guard } => ctx.by_guard[guard].push(i),
                SlotClass::Private { owner } => ctx.by_owner[owner].push(i),
                SlotClass::Phase { .. } => ctx.phase.push(i),
            }
        }
        ctx
    }

    fn pick_slot(&self, rng: &mut StdRng, from: &[usize]) -> Slot {
        self.slots[from[pick(rng, from.len() as u64) as usize]]
    }
}

fn plain_op(rng: &mut StdRng, slot: Slot, b: OpBuilder, in_asm: bool) -> OpBuilder {
    let (ld, st) = if in_asm {
        (PC_ASM_LD, PC_ASM_ST)
    } else {
        (PC_LD, PC_ST)
    };
    if pick(rng, 2) == 0 {
        b.load(ld, slot.addr, slot.width)
    } else {
        let v = rng.next_u64();
        b.store(st, slot.addr, slot.width, v)
    }
}

fn atomic_op(rng: &mut StdRng, slot: Slot, b: OpBuilder) -> OpBuilder {
    match pick(rng, 4) {
        0 => b.atomic_load(
            PC_ALD,
            slot.addr,
            slot.width,
            LOAD_ORDERS[pick(rng, 3) as usize],
        ),
        1 => {
            let v = rng.next_u64();
            b.atomic_store(
                PC_AST,
                slot.addr,
                slot.width,
                v,
                STORE_ORDERS[pick(rng, 3) as usize],
            )
        }
        2 => {
            let op = RMW_OPS[pick(rng, 6) as usize];
            let operand = rng.next_u64();
            b.rmw(
                PC_RMW,
                slot.addr,
                slot.width,
                op,
                operand,
                ALL_ORDERS[pick(rng, 5) as usize],
            )
        }
        _ => {
            // Half the CAS ops expect zero so some succeed early in the
            // run; the rest expect a random value and (almost) always fail.
            let expected = if pick(rng, 2) == 0 { 0 } else { rng.next_u64() };
            let desired = rng.next_u64();
            b.cas(
                PC_CAS,
                slot.addr,
                slot.width,
                expected,
                desired,
                ALL_ORDERS[pick(rng, 5) as usize],
            )
        }
    }
}

fn gen_phase(rng: &mut StdRng, phase: usize, t: usize, ctx: &Ctx, vm: bool) -> Vec<Op> {
    let n_actions = 3 + pick(rng, 6);
    gen_phase_n(rng, phase, t, ctx, vm, n_actions)
}

fn gen_phase_n(
    rng: &mut StdRng,
    phase: usize,
    t: usize,
    ctx: &Ctx,
    vm: bool,
    n_actions: u64,
) -> Vec<Op> {
    let mut b = OpBuilder::new();
    for _ in 0..n_actions {
        b = gen_action(rng, phase, t, ctx, vm, b);
    }
    b.build()
}

/// Balanced insertion points in a thread's pre-barrier prefix: indices
/// where a depth-neutral op can go without landing inside an asm region
/// or a critical section. Includes the position just before the barrier.
fn vm_insertion_points(ops: &[Op]) -> Vec<usize> {
    let mut points = Vec::new();
    let mut depth = 0i32;
    let mut held = false;
    for (i, op) in ops.iter().enumerate() {
        if depth == 0 && !held {
            points.push(i);
        }
        match op {
            Op::AsmEnter => depth += 1,
            Op::AsmExit => depth -= 1,
            Op::MutexLock { .. } | Op::SpinLock { .. } => held = true,
            Op::MutexUnlock { .. } | Op::SpinUnlock { .. } => held = false,
            Op::BarrierWait { .. } => return points,
            _ => {}
        }
    }
    points.push(ops.len());
    points
}

fn vm_op_kind(rng: &mut StdRng) -> VmOp {
    match pick(rng, 5) {
        0 => VmOp::Mprotect,
        1 => VmOp::CowBreak,
        2 => VmOp::T2p,
        3 => VmOp::TwinCommit,
        _ => VmOp::Shootdown,
    }
}

fn gen_action(
    rng: &mut StdRng,
    phase: usize,
    t: usize,
    ctx: &Ctx,
    vm: bool,
    b: OpBuilder,
) -> OpBuilder {
    if vm && pick(rng, 100) < 18 {
        // Transistency mode: interleave a VM operation on one of the
        // armed data pages. gen_action only runs at depth 0 outside
        // critical sections (lock/asm bodies are built by closures), so
        // the op lands at a balanced position by construction.
        let kind = vm_op_kind(rng);
        let page = pick(rng, DATA_PAGE_COUNT);
        return b.vm(kind, VAddr::new(APP_START + page * FRAME_SIZE));
    }
    match pick(rng, 100) {
        0..=24 => {
            let slot = ctx.pick_slot(rng, &ctx.atomic);
            atomic_op(rng, slot, b)
        }
        25..=44 => {
            let g = pick(rng, ctx.guards.len() as u64) as usize;
            let lock = ctx.guards[g].addr;
            let kind = ctx.guards[g].kind;
            let n_inner = 1 + pick(rng, 3);
            let body = |mut bb: OpBuilder| {
                if ctx.by_guard[g].is_empty() {
                    return bb.compute(50);
                }
                for _ in 0..n_inner {
                    let slot = ctx.pick_slot(rng, &ctx.by_guard[g]);
                    bb = plain_op(rng, slot, bb, false);
                }
                bb
            };
            match kind {
                GuardKind::Mutex => b.locked(lock, body),
                GuardKind::Spin => b.spin_locked(lock, body),
            }
        }
        45..=59 => {
            let n_inner = 1 + pick(rng, 2);
            b.asm(|mut bb| {
                for _ in 0..n_inner {
                    let slot = ctx.pick_slot(rng, &ctx.asm);
                    bb = plain_op(rng, slot, bb, true);
                }
                bb
            })
        }
        60..=71 => {
            if ctx.by_owner[t].is_empty() {
                return b.compute(100 + pick(rng, 400));
            }
            let slot = ctx.pick_slot(rng, &ctx.by_owner[t]);
            plain_op(rng, slot, b, false)
        }
        72..=81 => {
            if phase == 0 {
                // Phase-0: only this thread's own phase slots may be
                // (re)written; nobody may read them yet.
                let mine: Vec<usize> = ctx
                    .phase
                    .iter()
                    .copied()
                    .filter(|&i| ctx.slots[i].class == SlotClass::Phase { writer: t })
                    .collect();
                if mine.is_empty() {
                    return b.compute(100 + pick(rng, 400));
                }
                let slot = ctx.pick_slot(rng, &mine);
                let v = rng.next_u64();
                b.store(PC_ST, slot.addr, slot.width, v)
            } else {
                if ctx.phase.is_empty() {
                    return b.compute(100 + pick(rng, 400));
                }
                let slot = ctx.pick_slot(rng, &ctx.phase);
                b.load(PC_LD, slot.addr, slot.width)
            }
        }
        82..=89 => b.fence(ALL_ORDERS[pick(rng, 5) as usize]),
        _ => b.compute(100 + pick(rng, 400)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Litmus::generate(42), Litmus::generate(42));
        assert_ne!(Litmus::generate(42), Litmus::generate(43));
    }

    #[test]
    fn programs_are_structurally_well_formed() {
        for seed in 0..64 {
            for lit in [Litmus::generate(seed), Litmus::generate_vm(seed)] {
                check_structure(&lit, seed);
            }
        }
        for (k, lit) in Litmus::vm_variants(3, 64).iter().enumerate() {
            check_structure(lit, k as u64);
        }
    }

    fn check_structure(lit: &Litmus, seed: u64) {
        {
            assert!((2..=4).contains(&lit.threads.len()), "seed {seed}");
            let data_pages = lit.data_pages();
            for ops in &lit.threads {
                let mut depth = 0i32;
                let mut barriers = 0;
                let mut held: Option<VAddr> = None;
                for op in ops {
                    match *op {
                        Op::AsmEnter => depth += 1,
                        Op::AsmExit => {
                            depth -= 1;
                            assert!(depth >= 0, "seed {seed}: unbalanced asm");
                        }
                        Op::MutexLock { lock } | Op::SpinLock { lock } => {
                            assert_eq!(held, None, "seed {seed}: nested lock");
                            held = Some(lock);
                        }
                        Op::MutexUnlock { lock } | Op::SpinUnlock { lock } => {
                            assert_eq!(held, Some(lock), "seed {seed}: unlock mismatch");
                            held = None;
                        }
                        Op::BarrierWait { barrier } => {
                            barriers += 1;
                            assert_eq!(barrier, barrier_addr());
                            assert_eq!(held, None, "seed {seed}: barrier inside lock");
                        }
                        Op::AtomicLoad { addr, width, .. }
                        | Op::AtomicStore { addr, width, .. }
                        | Op::AtomicRmw { addr, width, .. }
                        | Op::Cas { addr, width, .. } => {
                            assert!(addr.is_aligned(width), "seed {seed}: unaligned atomic");
                            assert!(data_pages.contains(&addr.vpn()));
                        }
                        Op::Load { addr, .. } | Op::Store { addr, .. } => {
                            assert!(data_pages.contains(&addr.vpn()), "seed {seed}");
                        }
                        Op::Vm { addr, .. } => {
                            assert!(data_pages.contains(&addr.vpn()), "seed {seed}");
                            assert_eq!(depth, 0, "seed {seed}: vm op inside asm");
                            assert_eq!(held, None, "seed {seed}: vm op inside lock");
                        }
                        Op::Fence { .. } | Op::Compute { .. } | Op::Exit => {}
                    }
                }
                assert_eq!(depth, 0, "seed {seed}: asm region left open");
                assert_eq!(held, None, "seed {seed}: lock left held");
                assert_eq!(barriers, 1, "seed {seed}: exactly one barrier per thread");
            }
        }
    }

    #[test]
    fn slot_discipline_is_respected() {
        for seed in 0..64 {
            for lit in [Litmus::generate(seed), Litmus::generate_vm(seed)] {
                let slot_of = |addr: VAddr| lit.slots.iter().find(|s| s.addr == addr);
                for (t, ops) in lit.threads.iter().enumerate() {
                    let mut depth = 0u32;
                    let mut held: Option<VAddr> = None;
                    let mut past_barrier = false;
                    for op in ops {
                        match *op {
                            Op::AsmEnter => depth += 1,
                            Op::AsmExit => depth -= 1,
                            Op::MutexLock { lock } | Op::SpinLock { lock } => held = Some(lock),
                            Op::MutexUnlock { .. } | Op::SpinUnlock { .. } => held = None,
                            Op::BarrierWait { .. } => past_barrier = true,
                            Op::Load { addr, .. } | Op::Store { addr, .. } => {
                                let slot = slot_of(addr).expect("plain access to a known slot");
                                match slot.class {
                                    SlotClass::Asm => assert!(depth > 0, "seed {seed}"),
                                    SlotClass::Guarded { guard } => {
                                        assert_eq!(
                                            held,
                                            Some(lit.guards[guard].addr),
                                            "seed {seed}"
                                        );
                                    }
                                    SlotClass::Private { owner } => assert_eq!(owner, t),
                                    SlotClass::Phase { writer } => {
                                        let is_store = matches!(op, Op::Store { .. });
                                        if past_barrier {
                                            assert!(
                                                !is_store,
                                                "seed {seed}: phase store after barrier"
                                            );
                                        } else {
                                            assert!(is_store && writer == t, "seed {seed}");
                                        }
                                    }
                                    SlotClass::Atomic => {
                                        panic!("seed {seed}: plain op on atomic slot")
                                    }
                                }
                            }
                            Op::AtomicLoad { addr, .. }
                            | Op::AtomicStore { addr, .. }
                            | Op::AtomicRmw { addr, .. }
                            | Op::Cas { addr, .. } => {
                                let slot = slot_of(addr).expect("atomic access to a known slot");
                                assert_eq!(slot.class, SlotClass::Atomic, "seed {seed}");
                                assert_eq!(slot.width, atomic_width(op), "seed {seed}");
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    fn atomic_width(op: &Op) -> Width {
        match *op {
            Op::AtomicLoad { width, .. }
            | Op::AtomicStore { width, .. }
            | Op::AtomicRmw { width, .. }
            | Op::Cas { width, .. } => width,
            _ => unreachable!(),
        }
    }

    #[test]
    fn a_few_seeds_cover_every_table2_row() {
        let mut c = Coverage::default();
        for seed in 0..32 {
            c.add(&Litmus::generate(seed).coverage());
        }
        assert!(c.all_table2_rows(), "{c}");
        assert!(c.mutex_ops > 0 && c.barrier_ops > 0 && c.fences > 0, "{c}");
        assert!(c.spin_ops > 0, "{c}");
    }

    #[test]
    fn vm_generation_is_deterministic_and_distinct_from_plain() {
        assert_eq!(Litmus::generate_vm(42), Litmus::generate_vm(42));
        // The plain entry point is a stability contract: adding the VM
        // mode must not have perturbed its draw sequence, so plain
        // programs contain no VM ops and differ from the VM variant.
        let plain = Litmus::generate(42);
        assert!(!plain.has_vm_ops());
        let vm = Litmus::generate_vm(42);
        assert!(vm.has_vm_ops());
        assert_ne!(plain, vm);
    }

    #[test]
    fn every_vm_program_forces_a_pre_barrier_t2p() {
        for seed in 0..64 {
            let lit = Litmus::generate_vm(seed);
            let pre_barrier_t2p = lit.threads[0]
                .iter()
                .take_while(|op| !matches!(op, Op::BarrierWait { .. }))
                .any(|op| matches!(op, Op::Vm { op: VmOp::T2p, .. }));
            assert!(pre_barrier_t2p, "seed {seed}: no guaranteed T2p");
        }
    }

    #[test]
    fn vm_seeds_cover_every_vm_kind() {
        let mut c = Coverage::default();
        for seed in 0..64 {
            c.add(&Litmus::generate_vm(seed).coverage());
        }
        assert!(c.all_vm_kinds(), "{c}");
        assert!(c.all_table2_rows(), "{c}");
        // Plain programs never contain VM ops.
        for seed in 0..64 {
            assert_eq!(Litmus::generate(seed).coverage().vm_ops(), 0);
        }
    }

    #[test]
    fn vm_variants_enumerate_deterministically_and_respect_the_cap() {
        let a = Litmus::vm_variants(9, 32);
        let b = Litmus::vm_variants(9, 32);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.len() <= 32);
        assert_eq!(Litmus::vm_variants(9, 4).len(), 4);
        assert_eq!(Litmus::vm_variants(9, 4), a[..4].to_vec());
        // Every variant is a distinct placement of the same base program.
        for (i, v) in a.iter().enumerate() {
            assert_eq!(v.threads.len(), 2, "variant {i}");
            assert!(v.has_vm_ops(), "variant {i}");
            for w in &a[i + 1..] {
                assert_ne!(v.threads, w.threads, "duplicate placement");
            }
        }
    }

    #[test]
    fn listing_mentions_every_thread() {
        let lit = Litmus::generate(7);
        let text = lit.listing();
        assert!(text.contains("litmus seed 7"));
        for t in 0..lit.threads.len() {
            assert!(text.contains(&format!("thread {t}:")));
        }
    }
}

//! A bounded model check of §3.4's Lemma 3.1: "For an assembly-free
//! program, if AMBSA for a location x is broken there is a data race on x."
//!
//! We enumerate **every** legal interleaving of two threads' operation
//! sequences and replay each one through the real kernel + twin-store
//! machinery:
//!
//! * the *race-free* program (each thread takes a lock, stores a 2-byte
//!   value to `x`, commits at unlock as TMI does) must end with `x`
//!   holding exactly the value of the serialization-order-last writer —
//!   in no interleaving is the PTSB observable;
//! * the *racy* program (no locks; commits only at thread exit) must
//!   exhibit at least one interleaving where `x = 0xABCD` — the Fig. 3
//!   word tearing — while every interleaving still only produces bytes
//!   some thread wrote (the merge never fabricates data).

use tmi::TwinStore;
use tmi_machine::{VAddr, Vpn, Width, FRAME_SIZE};
use tmi_os::{AsId, Kernel, MapRequest};

const BASE: u64 = 0x40000;
const X: VAddr = VAddr::new(BASE + 0x100); // 2-byte aligned

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Lock,
    /// 2-byte store through the PTSB (fault → twin snapshot → write).
    Store(u64),
    /// Commit own dirty pages then release the lock.
    Unlock,
    /// Commit at thread exit (the racy program's only sync point).
    ExitCommit,
}

struct World {
    kernel: Kernel,
    spaces: [AsId; 2],
    twins: TwinStore,
    lock_owner: Option<usize>,
    /// Serialization order of lock-protected writers.
    unlock_order: Vec<usize>,
}

fn vpn() -> Vpn {
    Vpn(BASE / FRAME_SIZE + (0x100 / FRAME_SIZE))
}

impl World {
    fn new() -> Self {
        let mut kernel = Kernel::new();
        let obj = kernel.create_object(4 * FRAME_SIZE);
        let a = kernel.create_aspace();
        let b = kernel.create_aspace();
        for s in [a, b] {
            kernel
                .map(
                    s,
                    MapRequest::object(VAddr::new(BASE), 4 * FRAME_SIZE, obj, 0),
                )
                .unwrap();
        }
        // Arm the PTSB on x's page in both processes (repair is active).
        let mut w = World {
            kernel,
            spaces: [a, b],
            twins: TwinStore::new(),
            lock_owner: None,
            unlock_order: Vec::new(),
        };
        for s in [a, b] {
            w.kernel.protect_page_cow(s, vpn()).unwrap();
        }
        w
    }

    /// Whether `thread` may execute `step` right now (lock semantics).
    fn enabled(&self, thread: usize, step: Step) -> bool {
        match step {
            Step::Lock => self.lock_owner.is_none(),
            Step::Store(_) | Step::ExitCommit => true,
            Step::Unlock => self.lock_owner == Some(thread),
        }
    }

    fn commit_thread(&mut self, thread: usize) {
        let s = self.spaces[thread];
        for page in self.twins.dirty_pages(s) {
            self.twins
                .commit_page(&mut self.kernel, s, page, false)
                .unwrap();
        }
    }

    fn exec(&mut self, thread: usize, step: Step) {
        let s = self.spaces[thread];
        match step {
            Step::Lock => {
                self.lock_owner = Some(thread);
                // Acquire empties the PTSB so the thread sees fresh shared
                // state (Lemma 3.1's proof relies on this).
                self.commit_thread(thread);
            }
            Step::Store(v) => {
                if self.kernel.translate(s, X, true).is_err() {
                    self.kernel.handle_fault(s, X, true).unwrap();
                    self.twins.snapshot(&self.kernel, s, vpn());
                }
                self.kernel.force_write(s, X, Width::W2, v).unwrap();
            }
            Step::Unlock => {
                self.commit_thread(thread);
                self.lock_owner = None;
                self.unlock_order.push(thread);
            }
            Step::ExitCommit => {
                self.commit_thread(thread);
            }
        }
    }

    fn shared_x(&mut self) -> u64 {
        let pa = self.kernel.object_paddr(self.spaces[0], X).unwrap();
        self.kernel.physmem().read(pa, Width::W2)
    }
}

/// Replays one interleaving (a sequence of thread ids) of the two step
/// lists; returns the final shared value of `x` and the unlock order.
fn replay(programs: &[Vec<Step>; 2], schedule: &[usize]) -> (u64, Vec<usize>) {
    let mut w = World::new();
    let mut pcs = [0usize; 2];
    for &t in schedule {
        let step = programs[t][pcs[t]];
        assert!(w.enabled(t, step), "schedule must be legal");
        w.exec(t, step);
        pcs[t] += 1;
    }
    (w.shared_x(), w.unlock_order)
}

/// Enumerates every legal interleaving, calling `visit` with each schedule.
fn enumerate(programs: &[Vec<Step>; 2], visit: &mut impl FnMut(&[usize])) {
    fn go(
        programs: &[Vec<Step>; 2],
        w: &mut World,
        pcs: &mut [usize; 2],
        schedule: &mut Vec<usize>,
        visit: &mut impl FnMut(&[usize]),
    ) {
        let mut progressed = false;
        for t in 0..2 {
            if pcs[t] < programs[t].len() && w.enabled(t, programs[t][pcs[t]]) {
                progressed = true;
                // Branch: snapshotting World is awkward, so re-derive it by
                // replaying the extended schedule from scratch (the state
                // space here is tiny).
                schedule.push(t);
                let mut w2 = World::new();
                let mut pcs2 = [0usize; 2];
                for &tt in schedule.iter() {
                    w2.exec(tt, programs[tt][pcs2[tt]]);
                    pcs2[tt] += 1;
                }
                go(programs, &mut w2, &mut pcs2, schedule, visit);
                schedule.pop();
            }
        }
        if !progressed {
            assert!(
                pcs.iter().zip(programs).all(|(&pc, p)| pc == p.len()),
                "no legal step but programs unfinished: deadlock in model"
            );
            visit(schedule);
        }
    }
    let mut w = World::new();
    let mut pcs = [0usize; 2];
    let mut schedule = Vec::new();
    go(programs, &mut w, &mut pcs, &mut schedule, visit);
}

#[test]
fn race_free_program_never_observes_the_ptsb() {
    // Both threads: lock; store; unlock — with 2-byte stores of values
    // that would tear if AMBSA broke.
    let programs = [
        vec![Step::Lock, Step::Store(0xAB00), Step::Unlock],
        vec![Step::Lock, Step::Store(0x00CD), Step::Unlock],
    ];
    let mut count = 0usize;
    enumerate(&programs, &mut |schedule| {
        count += 1;
        let (x, order) = replay(&programs, schedule);
        let last = *order.last().expect("both unlocked");
        let expect = if last == 0 { 0xAB00 } else { 0x00CD };
        assert_eq!(
            x, expect,
            "schedule {schedule:?}: PTSB visible! x={x:#06x}, last writer {last}"
        );
    });
    // Lock exclusion leaves exactly two serializations (whole critical
    // sections are atomic blocks).
    assert_eq!(count, 2, "expected the two serialized interleavings");
}

#[test]
fn racy_program_exhibits_word_tearing_somewhere() {
    // No locks: store then exit-commit only.
    let programs = [
        vec![Step::Store(0xAB00), Step::ExitCommit],
        vec![Step::Store(0x00CD), Step::ExitCommit],
    ];
    let mut outcomes = std::collections::BTreeSet::new();
    enumerate(&programs, &mut |schedule| {
        let (x, _) = replay(&programs, schedule);
        outcomes.insert(x);
        // The merge never invents bytes: each byte of x comes from one of
        // the two stores (or the initial zero).
        let [lo, hi] = (x as u16).to_le_bytes();
        assert!([0x00, 0xCD].contains(&lo), "fabricated low byte {lo:#x}");
        assert!([0x00, 0xAB].contains(&hi), "fabricated high byte {hi:#x}");
    });
    assert!(
        outcomes.contains(&0xABCD),
        "Fig. 3's torn value must be reachable; saw {outcomes:?}"
    );
    // All six interleavings of 2+2 steps exist.
    assert!(
        outcomes.len() >= 2,
        "races produce multiple outcomes: {outcomes:?}"
    );
}

#[test]
fn single_writer_is_always_exact() {
    // Lemma 3.1's "with no or just one thread writing, diffing and merging
    // preserve written values exactly" — thread 1 only reads (no steps).
    let programs = [
        vec![Step::Store(0x1234), Step::ExitCommit],
        vec![Step::ExitCommit],
    ];
    enumerate(&programs, &mut |schedule| {
        let (x, _) = replay(&programs, schedule);
        assert_eq!(x, 0x1234, "schedule {schedule:?}");
    });
}

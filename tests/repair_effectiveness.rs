//! Workspace integration tests for the paper's quantitative claims, at
//! reduced scale: repair helps where it should, stays out of the way where
//! it shouldn't, and the comparison systems order the way Table 1 says.

use tmi_repro::bench::{Experiment, RunResult, RuntimeKind};

/// A §4.1 repair cell at benchmark scale with the misaligned allocation.
fn repair_run(name: &str, rt: RuntimeKind) -> RunResult {
    Experiment::repair(name).runtime(rt).misaligned().run()
}

#[test]
fn tmi_recovers_most_of_the_manual_speedup_on_lreg() {
    let base = repair_run("lreg", RuntimeKind::Pthreads);
    let manual = Experiment::repair("lreg").fixed().run();
    let tmi = repair_run("lreg", RuntimeKind::TmiProtect);
    assert!(base.ok() && manual.ok() && tmi.ok());
    assert!(tmi.repaired, "repair must trigger");
    let manual_speedup = base.cycles as f64 / manual.cycles as f64;
    let tmi_speedup = base.cycles as f64 / tmi.cycles as f64;
    assert!(
        manual_speedup > 2.0,
        "lreg FS must be substantial: {manual_speedup:.2}x"
    );
    assert!(
        tmi_speedup > 0.7 * manual_speedup,
        "TMI {tmi_speedup:.2}x vs manual {manual_speedup:.2}x"
    );
}

#[test]
fn laser_repair_is_much_weaker_than_tmi() {
    let base = repair_run("stringmatch", RuntimeKind::Pthreads);
    let tmi = repair_run("stringmatch", RuntimeKind::TmiProtect);
    let laser = repair_run("stringmatch", RuntimeKind::Laser);
    assert!(base.ok() && tmi.ok() && laser.ok());
    let s_tmi = base.cycles as f64 / tmi.cycles as f64;
    let s_laser = base.cycles as f64 / laser.cycles as f64;
    assert!(
        s_tmi > 1.8 * s_laser,
        "TMI ({s_tmi:.2}x) should far outrepair LASER ({s_laser:.2}x)"
    );
}

#[test]
fn relaxed_atomics_keep_repair_effective_but_locks_do_not() {
    // §4.3's shptr pair: the headline result for code-centric consistency.
    let speedup = |name: &str| {
        let base = repair_run(name, RuntimeKind::Pthreads);
        let tmi = repair_run(name, RuntimeKind::TmiProtect);
        assert!(base.ok() && tmi.ok(), "{name}");
        base.cycles as f64 / tmi.cycles as f64
    };
    let relaxed = speedup("shptr-relaxed");
    let locked = speedup("shptr-lock");
    assert!(relaxed > 2.5, "shptr-relaxed: {relaxed:.2}x");
    assert!(locked < 1.5, "shptr-lock: {locked:.2}x");
    assert!(relaxed > 2.0 * locked);
}

#[test]
fn lu_ncb_is_fixed_by_tmis_allocator_without_page_protection() {
    let base = repair_run("lu-ncb", RuntimeKind::Pthreads);
    let tmi = repair_run("lu-ncb", RuntimeKind::TmiProtect);
    assert!(base.ok() && tmi.ok());
    assert!(
        tmi.cycles as f64 <= base.cycles as f64 * 0.8,
        "allocator change should repair lu-ncb: {} vs {}",
        tmi.cycles,
        base.cycles
    );
}

#[test]
fn spinlockpool_is_repaired_by_lock_repadding() {
    let base = repair_run("spinlockpool", RuntimeKind::Pthreads);
    let tmi = repair_run("spinlockpool", RuntimeKind::TmiProtect);
    assert!(base.ok() && tmi.ok());
    assert!(
        tmi.repaired,
        "the lock-array FS must be detected and repadded"
    );
    assert!(
        tmi.cycles < base.cycles,
        "repadding should help: {} vs {}",
        tmi.cycles,
        base.cycles
    );
}

#[test]
fn no_contention_means_no_intervention() {
    for name in ["blackscholes", "swaptions", "matrix"] {
        let base = Experiment::repair(name).scale(0.2).run();
        let tmi = Experiment::repair(name)
            .runtime(RuntimeKind::TmiProtect)
            .scale(0.2)
            .run();
        assert!(base.ok() && tmi.ok());
        assert!(!tmi.repaired, "{name} must not trigger repair");
        let over = tmi.cycles as f64 / base.cycles as f64 - 1.0;
        assert!(over < 0.06, "{name}: {:.1}% overhead", over * 100.0);
    }
}

#[test]
fn detection_classifies_leveldbs_queue_as_true_sharing() {
    // §4.2: TMI sees the pristine store's contention but declines to
    // repair it (true sharing dominates).
    let r = Experiment::new("leveldb")
        .runtime(RuntimeKind::TmiProtect)
        .scale(0.4)
        .run();
    assert!(r.ok());
    assert!(
        r.perf_events > 1_000,
        "contention must be visible: {}",
        r.perf_events
    );
    assert!(r.converted_at.is_none(), "no T2P for true sharing");
}

#[test]
fn huge_pages_cut_fault_counts_by_orders_of_magnitude() {
    let cell = Experiment::new("ocean-cp")
        .runtime(RuntimeKind::TmiDetect)
        .scale(0.2);
    let small = cell.clone().run();
    let huge = cell.huge_pages().run();
    assert!(small.ok() && huge.ok());
    assert!(
        huge.faults * 50 < small.faults,
        "huge pages: {} vs {} faults",
        huge.faults,
        small.faults
    );
}

#[test]
fn ptsb_everywhere_is_worse_than_targeted_on_histogram() {
    let run = |rt| {
        Experiment::repair("histogram")
            .runtime(rt)
            .scale(2.0)
            .misaligned()
            .run()
    };
    let targeted = run(RuntimeKind::TmiProtect);
    let everywhere = run(RuntimeKind::TmiPtsbEverywhere);
    assert!(targeted.ok() && everywhere.ok());
    assert!(
        everywhere.cycles > targeted.cycles,
        "PTSB-everywhere {} should be slower than targeted {}",
        everywhere.cycles,
        targeted.cycles
    );
}

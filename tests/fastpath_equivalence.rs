//! The TLB equivalence gate: the per-address-space software TLBs are a
//! pure accelerator, so a run with them must be *byte-identical* to a run
//! on a kernel that walks the page table for every translation (the
//! `Kernel::with_tlb(false)` test seam) on every observable — halt reason,
//! simulated cycles (total and per thread), dynamic op count, the executed
//! schedule with all load observations, and the full metrics snapshot —
//! differing only in the TLB's own `os.tlb.*` counters.

use tmi_repro::oracle::{run_seed_raw, run_transistency_seed_raw, RawRun};
use tmi_repro::program::Op;
use tmi_repro::telemetry::MetricValue;

/// The metrics a TLB run is allowed to differ on: the TLB counters
/// themselves (zero on the walk-every-time kernel by construction).
fn behavioral_metrics(r: &RawRun) -> Vec<(String, MetricValue)> {
    r.metrics
        .iter()
        .filter(|(n, _)| !n.starts_with("os.tlb."))
        .map(|(n, v)| (n.to_string(), v))
        .collect()
}

/// 64 fuzz seeds through the full repaired stack, page walks vs TLB:
/// everything observable must agree, and in aggregate the TLB must
/// actually have served translations (otherwise the gate proves nothing).
#[test]
fn fastpath_is_behaviorally_invisible_over_64_seeds() {
    let mut tlb_hits = 0u64;
    for seed in 0..64u64 {
        let fast = run_seed_raw(seed, true);
        let refr = run_seed_raw(seed, false);
        assert_eq!(fast.halt, refr.halt, "seed {seed}: halt diverged");
        assert_eq!(fast.cycles, refr.cycles, "seed {seed}: cycles diverged");
        assert_eq!(
            fast.thread_cycles, refr.thread_cycles,
            "seed {seed}: per-thread clocks diverged"
        );
        assert_eq!(fast.ops, refr.ops, "seed {seed}: op counts diverged");
        assert_eq!(
            fast.trace, refr.trace,
            "seed {seed}: schedule or observed values diverged"
        );
        assert_eq!(
            fast.metrics.u64("machine.hitm_events"),
            refr.metrics.u64("machine.hitm_events"),
            "seed {seed}: HITM counts diverged"
        );
        assert_eq!(
            behavioral_metrics(&fast),
            behavioral_metrics(&refr),
            "seed {seed}: behavioral metrics diverged"
        );
        // The walk-every-time kernel must not engage the TLB at all.
        assert_eq!(refr.metrics.u64("os.tlb.hits"), 0, "seed {seed}");
        assert_eq!(refr.metrics.u64("os.tlb.misses"), 0, "seed {seed}");
        tlb_hits += fast.metrics.u64("os.tlb.hits");
    }
    assert!(
        tlb_hits > 0,
        "the TLB never hit across 64 seeds — gate is vacuous"
    );
}

/// The same gate over a fixed block of *transistency* seeds: VM-op
/// litmus programs whose `mprotect` / COW-break / T2P / twin-commit /
/// shootdown outcome codes land in the trace value slots. The codes are
/// required to be TLB invariant (they depend on PTE and governor state,
/// never on TLB contents), so the full trace — including every VM-op
/// outcome — must be byte-identical across the two kernels.
#[test]
fn fastpath_is_invisible_to_transistency_programs() {
    let mut vm_steps = 0u64;
    for seed in 0..24u64 {
        let fast = run_transistency_seed_raw(seed, true);
        let refr = run_transistency_seed_raw(seed, false);
        assert_eq!(fast.halt, refr.halt, "vm seed {seed}: halt diverged");
        assert_eq!(fast.cycles, refr.cycles, "vm seed {seed}: cycles diverged");
        assert_eq!(
            fast.thread_cycles, refr.thread_cycles,
            "vm seed {seed}: per-thread clocks diverged"
        );
        assert_eq!(fast.ops, refr.ops, "vm seed {seed}: op counts diverged");
        assert_eq!(
            fast.trace, refr.trace,
            "vm seed {seed}: schedule, observed values or VM-op outcome \
             codes diverged"
        );
        assert_eq!(
            behavioral_metrics(&fast),
            behavioral_metrics(&refr),
            "vm seed {seed}: behavioral metrics diverged"
        );
        vm_steps += fast
            .trace
            .iter()
            .filter(|st| matches!(st.op, Op::Vm { .. }))
            .count() as u64;
    }
    assert!(
        vm_steps > 0,
        "no VM ops executed across 24 transistency seeds — gate is vacuous"
    );
}

/// Determinism of the raw-run capture itself: same seed and kernel, same
/// observables — so an equivalence failure always pins to the TLB, never
/// to fixture nondeterminism.
#[test]
fn raw_runs_reproduce_from_the_seed() {
    for seed in [0u64, 7, 31] {
        for tlb in [false, true] {
            let a = run_seed_raw(seed, tlb);
            let b = run_seed_raw(seed, tlb);
            assert_eq!(a.halt, b.halt);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.trace, b.trace);
            assert_eq!(
                a.metrics, b.metrics,
                "seed {seed} tlb={tlb} not reproducible"
            );
        }
    }
}

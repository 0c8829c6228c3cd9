//! Smoke tests for the harness: every workload completes and verifies
//! under the baseline, and the key repair behaviours reproduce at small
//! scale.

use tmi_bench::{JobSpec, RunResult, RuntimeKind};

/// The workload under pthreads at a small scale.
fn small(name: &str) -> RunResult {
    JobSpec::new(name).scale(0.03).run()
}

#[test]
fn whole_suite_completes_under_pthreads() {
    for name in tmi_workloads::SUITE {
        let r = small(name);
        assert!(r.ok(), "{name}: halt={:?} verify={:?}", r.halt, r.verified);
        assert!(r.cycles > 0);
    }
}

#[test]
fn false_sharing_workloads_generate_hitm_storms() {
    for name in ["histogramfs", "lreg", "shptr-relaxed", "leveldb-fs"] {
        let r = small(name);
        assert!(r.ok(), "{name}");
        assert!(
            r.hitm_events > 5_000,
            "{name}: only {} HITM events",
            r.hitm_events
        );
    }
}

#[test]
fn quiet_workloads_do_not() {
    for name in ["blackscholes", "swaptions", "matrix"] {
        let r = small(name);
        assert!(r.ok(), "{name}");
        assert!(
            r.hitm_events < 2_000,
            "{name}: unexpectedly {} HITM events",
            r.hitm_events
        );
    }
}

#[test]
fn tmi_protect_repairs_lreg_at_small_scale() {
    let base = JobSpec::new("lreg").scale(0.3).run();
    let tmi = JobSpec::new("lreg")
        .runtime(RuntimeKind::TmiProtect)
        .scale(0.3)
        .run();
    assert!(
        base.ok() && tmi.ok(),
        "{:?} {:?}",
        base.verified,
        tmi.verified
    );
    assert!(tmi.repaired, "repair should trigger on lreg");
    assert!(
        tmi.cycles < base.cycles,
        "TMI {} vs baseline {}",
        tmi.cycles,
        base.cycles
    );
}

#[test]
fn laser_and_plastic_report_their_perf_monitor_counts() {
    for (rt, prefix) in [
        (RuntimeKind::Laser, "laser"),
        (RuntimeKind::Plastic, "plastic"),
    ] {
        let r = JobSpec::new("lreg")
            .runtime(rt)
            .threads(4)
            .tick_interval(400_000)
            .scale(0.25)
            .misaligned()
            .run();
        assert!(r.ok(), "{prefix}: {:?}", r.verified);
        assert!(r.perf_records > 0, "{prefix} took no PEBS records");
        let records = r.metrics.u64(&format!("{prefix}.perf.records_taken"));
        let events = r.metrics.u64(&format!("{prefix}.perf.events_seen"));
        assert_eq!(r.perf_records, records, "{prefix} perf_records");
        assert_eq!(r.perf_events, events, "{prefix} perf_events");
    }
}

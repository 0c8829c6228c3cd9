//! Workspace integration tests: every workload × every runtime that claims
//! compatibility must complete and verify; known-broken combinations must
//! fail in exactly the way the paper describes.

use tmi_repro::bench::{Experiment, RuntimeKind};
use tmi_repro::sim::Halt;

fn small(name: &str, rt: RuntimeKind) -> Experiment {
    Experiment::new(name)
        .runtime(rt)
        .scale(0.05)
        .tick_interval(300_000)
        .max_ops(30_000_000)
}

#[test]
fn whole_suite_verifies_under_pthreads() {
    for name in tmi_repro::workloads::SUITE {
        let r = small(name, RuntimeKind::Pthreads).run();
        assert!(r.ok(), "{name}: halt={:?} verify={:?}", r.halt, r.verified);
    }
}

#[test]
fn whole_suite_verifies_under_tmi_detect() {
    for name in tmi_repro::workloads::SUITE {
        let r = small(name, RuntimeKind::TmiDetect).run();
        assert!(r.ok(), "{name}: halt={:?} verify={:?}", r.halt, r.verified);
    }
}

#[test]
fn whole_suite_verifies_under_tmi_protect() {
    // The paper's core compatibility claim: TMI's repair machinery never
    // breaks a program, whether or not it triggers.
    for name in tmi_repro::workloads::SUITE {
        let r = small(name, RuntimeKind::TmiProtect).run();
        assert!(r.ok(), "{name}: halt={:?} verify={:?}", r.halt, r.verified);
    }
}

#[test]
fn cholesky_is_safe_under_tmi_but_hangs_under_sheriff() {
    let tmi = small("cholesky", RuntimeKind::TmiProtect).run();
    assert!(tmi.ok(), "{:?}", tmi.halt);
    let sheriff = small("cholesky", RuntimeKind::SheriffProtect)
        .max_ops(3_000_000)
        .run();
    assert_eq!(sheriff.halt, Halt::Hang, "Sheriff must hang (Fig. 12)");
}

#[test]
fn canneal_corrupts_under_sheriff_only() {
    let sheriff = small("canneal", RuntimeKind::SheriffProtect)
        .scale(0.3)
        .run();
    assert!(
        sheriff.verified.is_err(),
        "Sheriff's guard-less PTSB must corrupt canneal (Fig. 11)"
    );
    let tmi = small("canneal", RuntimeKind::TmiProtect).scale(0.3).run();
    assert!(tmi.ok(), "{:?} {:?}", tmi.halt, tmi.verified);
}

#[test]
fn laser_and_plastic_preserve_correctness() {
    // Their store buffers/remaps are TSO-preserving, so the consistency
    // case studies must pass (Table 1's "memory consistency" row).
    for rt in [RuntimeKind::Laser, RuntimeKind::Plastic] {
        for name in ["canneal", "cholesky", "leveldb-fs"] {
            let r = small(name, rt).scale(0.2).run();
            assert!(
                r.ok(),
                "{name} under {}: {:?} {:?}",
                rt.label(),
                r.halt,
                r.verified
            );
        }
    }
}

#[test]
fn sheriff_compatible_workloads_run_correctly_under_sheriff() {
    for name in tmi_repro::workloads::SUITE {
        let spec = tmi_repro::workloads::by_name(name).unwrap().spec();
        if !spec.sheriff_compatible {
            continue;
        }
        let r = small(name, RuntimeKind::SheriffDetect).run();
        assert!(
            r.ok(),
            "{name} under sheriff-detect: {:?} {:?}",
            r.halt,
            r.verified
        );
    }
}

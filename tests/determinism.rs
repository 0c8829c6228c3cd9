//! The simulator must be bit-deterministic: identical configurations
//! produce identical cycle counts, HITM counts and repair decisions. This
//! is what makes every number in EXPERIMENTS.md reproducible exactly.

use tmi_repro::bench::{JobSpec, RuntimeKind};

fn fingerprint(r: &tmi_repro::bench::RunResult) -> (u64, u64, u64, bool, u64, Option<u64>) {
    (
        r.cycles,
        r.ops,
        r.hitm_events,
        r.repaired,
        r.commits,
        r.converted_at,
    )
}

#[test]
fn identical_runs_are_bit_identical() {
    for (name, rt) in [
        ("lreg", RuntimeKind::TmiProtect),
        ("leveldb-fs", RuntimeKind::TmiProtect),
        ("histogramfs", RuntimeKind::SheriffProtect),
        ("spinlockpool", RuntimeKind::Laser),
        ("canneal", RuntimeKind::Pthreads),
    ] {
        let cell = JobSpec::repair(name).runtime(rt).scale(0.2).misaligned();
        let a = cell.run();
        let b = cell.run();
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name} under {} must be deterministic",
            rt.label()
        );
    }
}

#[test]
fn different_seeds_of_work_change_results() {
    // Sanity check that the fingerprint actually discriminates: changing
    // the scale must change the outcome.
    let a = JobSpec::repair("lreg").scale(0.2).run();
    let b = JobSpec::repair("lreg").scale(0.25).run();
    assert_ne!(a.cycles, b.cycles);
}

//! Workspace integration tests for the differential consistency oracle:
//! the repaired execution must be indistinguishable from the sequential
//! reference on every generated litmus program, the code-centric ablation
//! must visibly break, and both verdicts must reproduce bit-identically
//! from the seed alone.

use tmi_repro::bench::fuzz::{run_campaign, FuzzConfig};
use tmi_repro::oracle::{check_seed, CheckConfig, DivergenceKind, Litmus};

/// §3.4: with code-centric consistency on, the PTSB repair path is
/// equivalent to sequential consistency per schedule for data-race-free
/// programs — across a healthy seed range.
#[test]
fn repair_path_matches_oracle_over_many_seeds() {
    let cfg = CheckConfig::default();
    for seed in 0..200 {
        let r = check_seed(seed, &cfg);
        assert!(
            r.clean(),
            "seed {seed} diverged under code-centric ON:\n{}",
            r.render()
        );
    }
}

/// Figs. 11–12: dropping code-centric consistency makes the same litmus
/// population observably incorrect — stale or torn values that the
/// checker pins to concrete steps.
#[test]
fn ablation_reproduces_paper_failure_modes() {
    let cfg = FuzzConfig {
        seeds: 96,
        start_seed: 0,
        check: CheckConfig {
            code_centric: false,
            ..CheckConfig::default()
        },
        workers: Some(4),
        ..FuzzConfig::default()
    };
    let r = run_campaign(&cfg);
    assert!(
        !r.divergent_seeds.is_empty(),
        "ablated campaign found nothing:\n{}",
        r.render()
    );
    // The population must exhibit stale reads, not just one lucky seed.
    assert!(
        r.divergent_seeds.len() >= 10,
        "only {} / {} seeds diverged",
        r.divergent_seeds.len(),
        r.checked
    );
    let kinds: Vec<DivergenceKind> = r
        .reports
        .iter()
        .flat_map(|rep| rep.divergences.iter().map(|d| d.kind))
        .collect();
    assert!(
        kinds.contains(&DivergenceKind::ValueMismatch)
            || kinds.contains(&DivergenceKind::FinalMemory)
            || kinds.contains(&DivergenceKind::TornValue),
        "expected a data divergence kind, got {kinds:?}"
    );
}

/// A divergence report is a function of (seed, mode) only: rerunning the
/// checker yields the identical rendered report, so the seed printed in a
/// CI failure is a complete reproducer.
#[test]
fn divergence_reports_reproduce_from_the_seed() {
    let cfg = CheckConfig {
        code_centric: false,
        ..CheckConfig::default()
    };
    let seed = (0..64)
        .find(|&s| !check_seed(s, &cfg).clean())
        .expect("some seed diverges under ablation");
    let a = check_seed(seed, &cfg).render();
    let b = check_seed(seed, &cfg).render();
    assert_eq!(a, b);
    assert!(a.contains(&format!("--start {seed}")));
}

/// The generator is deterministic and structurally honest: same seed,
/// same program; coverage counters match a hand scan of the listing.
#[test]
fn generator_is_deterministic_across_call_sites() {
    for seed in [0u64, 7, 99, 12345] {
        let a = Litmus::generate(seed);
        let b = Litmus::generate(seed);
        assert_eq!(a, b, "seed {seed} generated differently twice");
        assert_eq!(a.coverage(), b.coverage());
        assert!(a.total_ops() > 0);
    }
}

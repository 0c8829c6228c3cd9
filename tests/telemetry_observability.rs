//! The observability layer's three contracts:
//!
//! 1. **Determinism** — the Chrome-trace exporter is a pure function of
//!    the simulated execution, so the same seed produces a byte-identical
//!    trace, checked against a committed golden file
//!    (`tests/golden/trace_seed7.json`; regenerate with
//!    `TMI_BLESS=1 cargo test --test telemetry_observability`).
//! 2. **Schema stability** — every metric name the registry can export
//!    is unique and identical across repeated registrations, and every
//!    name a real run exports is in the canonical schema
//!    (`tests/golden/metric_names.txt`, the `scripts/check.sh` gate).
//! 3. **Zero perturbation** — enabling tracing must not change the
//!    simulation: cycle counts, repair decisions and every registered
//!    metric are identical with the tracer on and off.

use std::collections::BTreeSet;
use std::path::Path;

use proptest::prelude::*;
use tmi_repro::bench::telemetry::{registered_metric_names, validate_trace};
use tmi_repro::bench::{JobSpec, RuntimeKind};
use tmi_repro::oracle::{trace_seed, CheckConfig};
use tmi_repro::service::service_metric_names;

/// The full deployed schema: the simulation registry's names merged
/// with the job server's `service.*` aggregates — exactly what
/// `validate_telemetry` writes to `tests/golden/metric_names.txt`.
fn schema_metric_names() -> Vec<String> {
    let mut names = registered_metric_names();
    names.extend(service_metric_names());
    names.sort();
    names.dedup();
    names
}

#[test]
fn chrome_trace_matches_golden_byte_for_byte() {
    let (report, trace) = trace_seed(7, &CheckConfig::default());
    assert!(report.clean(), "{}", report.render());

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_seed7.json");
    if std::env::var("TMI_BLESS").is_ok() {
        std::fs::write(&golden_path, &trace).expect("write golden");
    }
    let golden = std::fs::read_to_string(&golden_path).expect(
        "tests/golden/trace_seed7.json missing — regenerate with \
         TMI_BLESS=1 cargo test --test telemetry_observability",
    );
    assert!(
        trace == golden,
        "trace for seed 7 drifted from the committed golden \
         ({} vs {} bytes); if the exporter change is intentional, \
         regenerate with TMI_BLESS=1",
        trace.len(),
        golden.len()
    );

    let summary = validate_trace(&trace).expect("golden trace validates");
    assert!(summary.events > 0);
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let quiet = JobSpec::repair("histogramfs")
        .runtime(RuntimeKind::TmiProtect)
        .scale(0.1)
        .misaligned()
        .run();
    let (traced, trace) = JobSpec::repair("histogramfs")
        .runtime(RuntimeKind::TmiProtect)
        .scale(0.1)
        .misaligned()
        .run_traced();

    assert!(!trace.is_empty());
    assert_eq!(quiet.cycles, traced.cycles, "tracing changed cycle counts");
    assert_eq!(quiet.ops, traced.ops);
    assert_eq!(quiet.repaired, traced.repaired);
    assert_eq!(quiet.commits, traced.commits);
    assert_eq!(quiet.converted_at, traced.converted_at);
    // Every registered metric matches, the per-phase profile included:
    // the runtime keeps it whether or not a tracer is installed.
    let a: Vec<_> = quiet.metrics.iter().collect();
    let b: Vec<_> = traced.metrics.iter().collect();
    assert_eq!(a, b, "tracing changed a registered metric");
    assert!(
        quiet.metrics.u64("tmi.phase.detect_cycles") > 0,
        "the untraced run should attribute cycles to the detect phase"
    );
}

#[test]
fn run_exports_only_schema_names() {
    let schema: BTreeSet<String> = registered_metric_names().into_iter().collect();
    let r = JobSpec::repair("histogramfs")
        .runtime(RuntimeKind::TmiProtect)
        .scale(0.1)
        .misaligned()
        .run();
    assert!(!r.metrics.is_empty());
    for name in r.metrics.names() {
        assert!(schema.contains(name), "run exported unknown metric {name}");
    }
}

proptest! {
    /// The registry's name set is a pure function: registering the same
    /// sources any number of times yields the same unique, sorted names,
    /// and they match the checked-in schema file exactly.
    #[test]
    fn registered_names_are_unique_and_stable(rounds in 1usize..4) {
        let first = schema_metric_names();
        let unique: BTreeSet<&String> = first.iter().collect();
        prop_assert_eq!(unique.len(), first.len(), "duplicate metric names");
        let mut sorted = first.clone();
        sorted.sort();
        prop_assert_eq!(&sorted, &first, "names must come out sorted");
        for _ in 0..rounds {
            prop_assert_eq!(&schema_metric_names(), &first);
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metric_names.txt");
        let checked_in: Vec<String> = std::fs::read_to_string(path)
            .expect("tests/golden/metric_names.txt")
            .lines()
            .map(str::to_string)
            .collect();
        prop_assert_eq!(&checked_in, &first, "schema file drifted; \
            regenerate with validate_telemetry --write-schema");
    }

    /// The exporter is deterministic across arbitrary seeds, not just the
    /// golden one: tracing the same litmus seed twice is byte-identical.
    #[test]
    fn trace_export_is_deterministic_for_any_seed(seed in 0u64..64) {
        let cfg = CheckConfig::default();
        let (ra, ta) = trace_seed(seed, &cfg);
        let (rb, tb) = trace_seed(seed, &cfg);
        prop_assert_eq!(ra.clean(), rb.clean());
        prop_assert_eq!(ta, tb, "trace for seed {} is not deterministic", seed);
    }
}

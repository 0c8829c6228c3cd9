//! The observability layer's contracts. This file is the one gate on the
//! telemetry export; regenerate its goldens deliberately with
//! `TMI_BLESS=1 cargo test --test telemetry_observability`.
//!
//! 1. **Determinism** — the Chrome-trace exporter is a pure function of
//!    the simulated execution, so the same seed produces a byte-identical
//!    trace, checked against `tests/golden/trace_seed7.json`.
//! 2. **Schema stability** — the metric names the registry can export,
//!    for every runtime and for the job service, equal
//!    `tests/golden/metric_names.txt`, and every runtime's real runs
//!    export only those names.
//! 3. **Repair episodes** — the cell `run_all --trace` traces shows one
//!    full repair episode (trigger → T2P → twin → commit).
//! 4. **Zero perturbation** — enabling tracing must not change the
//!    simulation: cycle counts, repair decisions and every registered
//!    metric are identical with the tracer on and off.

use std::collections::BTreeSet;
use std::path::Path;

use proptest::prelude::*;
use tmi_repro::baselines::{LaserRuntime, PlasticRuntime, SheriffConfig, SheriffRuntime};
use tmi_repro::bench::harness::app_layout;
use tmi_repro::bench::{JobSpec, RuntimeKind};
use tmi_repro::machine::MachineStats;
use tmi_repro::oracle::{trace_litmus, CheckConfig, Litmus};
use tmi_repro::os::{OsStats, TlbStats};
use tmi_repro::perf::PerfConfig;
use tmi_repro::service::stats::ServiceStats;
use tmi_repro::telemetry::json::{self, Json};
use tmi_repro::telemetry::MetricSink;
use tmi_repro::tmi::{MemoryBreakdown, TmiConfig, TmiRuntime};

/// Every metric name the registry can export, sorted: default-constructed
/// sources under the prefixes the harness and the job service register
/// them under. A counter added to any of these sources appears here
/// without further registration, and [`MetricSink`] panics on a
/// duplicate name.
fn registered_metric_names() -> Vec<String> {
    let layout = app_layout(false, false);
    let perf = PerfConfig::default();
    let mut sink = MetricSink::new();
    sink.source("machine", &MachineStats::default());
    sink.source("os", &OsStats::default());
    sink.source("os.tlb", &TlbStats::default());
    sink.source("tmi", &TmiRuntime::new(TmiConfig::default(), layout));
    sink.source("tmi.memory", &MemoryBreakdown::default());
    let sheriff = SheriffRuntime::new(SheriffConfig::protect(), layout);
    sink.source("sheriff", &sheriff);
    sink.source("laser", &LaserRuntime::new(perf, layout));
    sink.source("plastic", &PlasticRuntime::new(perf, layout));
    sink.source("service", &ServiceStats::default());
    sink.finish().names().map(String::from).collect()
}

/// The contents of `tests/golden/<name>`, first overwritten with `fresh`
/// when `TMI_BLESS` is set.
fn golden(name: &str, fresh: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("TMI_BLESS").is_ok() {
        std::fs::write(&path, fresh).expect("write golden");
    }
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "tests/golden/{name}: {e}; regenerate with \
             TMI_BLESS=1 cargo test --test telemetry_observability"
        )
    })
}

#[test]
fn chrome_trace_matches_golden_byte_for_byte() {
    let (report, trace) = trace_litmus(&Litmus::generate(7), &CheckConfig::default());
    assert!(report.clean(), "{}", report.render());
    let golden = golden("trace_seed7.json", &trace);
    assert!(
        trace == golden,
        "trace for seed 7 drifted from the committed golden \
         ({} vs {} bytes); if the exporter change is intentional, \
         regenerate with TMI_BLESS=1",
        trace.len(),
        golden.len()
    );
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

/// The registry's names equal the checked-in schema line for line: a
/// renamed, removed or unregistered metric fails here.
#[test]
fn registered_names_are_unique_and_stable() {
    let names = registered_metric_names();
    let mut fresh = names.join("\n");
    fresh.push('\n');
    let checked_in = golden("metric_names.txt", &fresh);
    let old: BTreeSet<&str> = checked_in.lines().collect();
    let new: BTreeSet<&str> = names.iter().map(String::as_str).collect();
    assert!(
        checked_in == fresh,
        "metric names drifted from tests/golden/metric_names.txt \
         (removed or renamed: {:?}; not in the schema: {:?}); if the change \
         is intentional, regenerate with TMI_BLESS=1",
        old.difference(&new).collect::<Vec<_>>(),
        new.difference(&old).collect::<Vec<_>>()
    );
}

/// Every runtime, on a repair workload and on a workload without false
/// sharing, exports only schema names: a counter a runtime registers
/// outside its default-constructed source fails here.
#[test]
fn run_exports_only_schema_names() {
    let schema: BTreeSet<String> = registered_metric_names().into_iter().collect();
    for workload in ["histogramfs", "blackscholes"] {
        for rt in RuntimeKind::ALL {
            let r = JobSpec::repair(workload)
                .runtime(rt)
                .scale(0.05)
                .misaligned()
                .run();
            assert!(!r.metrics.is_empty(), "{workload} under {}", rt.label());
            for name in r.metrics.names() {
                assert!(
                    schema.contains(name),
                    "{workload} under {} exported unknown metric {name}",
                    rt.label()
                );
            }
        }
    }
}

/// The cell `run_all --trace` writes shows one full repair episode.
#[test]
fn traced_repair_cell_holds_a_full_episode() {
    let (r, trace) = JobSpec::repair("histogramfs")
        .runtime(RuntimeKind::TmiProtect)
        .scale(0.25)
        .misaligned()
        .run_traced();
    assert!(r.ok(), "{:?}", r.verified);
    let doc = json::parse(&trace).expect("the trace is JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr);
    let names: BTreeSet<&str> = events
        .expect("the trace has a traceEvents array")
        .iter()
        .filter_map(|ev| ev.get("name").and_then(Json::as_str))
        .collect();
    for want in [
        "tmi.repair.trigger",
        "tmi.repair.t2p",
        "tmi.repair.twin",
        "tmi.repair.commit",
    ] {
        assert!(names.contains(want), "no {want} event; saw {names:?}");
    }
}

proptest! {
    /// The exporter is deterministic across arbitrary seeds, not just the
    /// golden one: tracing the same litmus seed twice is byte-identical.
    #[test]
    fn trace_export_is_deterministic_for_any_seed(seed in 0u64..64) {
        let cfg = CheckConfig::default();
        let (ra, ta) = trace_litmus(&Litmus::generate(seed), &cfg);
        let (rb, tb) = trace_litmus(&Litmus::generate(seed), &cfg);
        prop_assert_eq!(ra.clean(), rb.clean());
        prop_assert_eq!(ta, tb, "trace for seed {} is not deterministic", seed);
    }
}

//! The telemetry export gate: the canonical metric-name schema and the
//! JSON validators `scripts/check.sh` runs over every `BENCH_*.json`
//! report and Chrome trace the harness emits.
//!
//! Metric names are the export contract of the metrics registry
//! ([`tmi_telemetry::MetricSource`]): dashboards and diffing tools key on
//! them, so a rename is a breaking change. [`registered_metric_names`]
//! derives the full set from the registry itself (default-constructed
//! sources under the harness's prefixes); the checked-in copy lives at
//! `tests/golden/metric_names.txt`, and the `validate_telemetry` binary
//! fails whenever the two drift apart or a report contains a name outside
//! the schema.

use std::collections::BTreeSet;

use tmi::{AppLayout, MemoryBreakdown, TmiConfig, TmiRuntime};
use tmi_baselines::{LaserRuntime, PlasticRuntime, SheriffConfig, SheriffRuntime};
use tmi_machine::{MachineStats, VAddr};
use tmi_os::{OsStats, TlbStats};
use tmi_perf::PerfConfig;
use tmi_telemetry::json::{self, Json};
use tmi_telemetry::MetricSink;

/// Every metric name the harness can emit, in stable (sorted) order —
/// the union over all runtime prefixes (`machine.*`, `os.*`, `os.tlb.*`,
/// `tmi.*`, `tmi.memory.*`, `sheriff.*`, `laser.*`, `plastic.*`).
///
/// Derived from default-constructed sources, so it is exhaustive by
/// construction: a counter added to any `*Stats` struct appears here
/// without further registration. Uniqueness is enforced by
/// [`MetricSink`], which panics on duplicates.
pub fn registered_metric_names() -> Vec<String> {
    let layout = AppLayout {
        app_start: VAddr::new(crate::APP_START),
        app_len: 1 << 20,
        internal_start: VAddr::new(crate::INTERNAL_START),
        internal_len: 1 << 20,
        huge_pages: false,
    };
    let mut sink = MetricSink::new();
    sink.source("machine", &MachineStats::default());
    sink.source("os", &OsStats::default());
    sink.source("os.tlb", &TlbStats::default());
    sink.source("tmi", &TmiRuntime::new(TmiConfig::default(), layout));
    sink.source("tmi.memory", &MemoryBreakdown::default());
    sink.source(
        "sheriff",
        &SheriffRuntime::new(SheriffConfig::protect(), layout),
    );
    sink.source("laser", &LaserRuntime::new(PerfConfig::default(), layout));
    sink.source(
        "plastic",
        &PlasticRuntime::new(PerfConfig::default(), layout),
    );
    sink.finish().names().map(String::from).collect()
}

/// Validates a `BENCH_harness.json` document against `allowed` metric
/// names: the document must carry the current schema tag and every name
/// in every cell's `metrics` object must be in `allowed`. Returns the
/// number of `(cell, name)` pairs checked.
pub fn validate_report(doc: &str, allowed: &BTreeSet<String>) -> Result<usize, String> {
    let root = json::parse(doc).map_err(|e| format!("report is not valid JSON: {e}"))?;
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("report has no \"schema\" member")?;
    if schema != "tmi-bench-harness/2" {
        return Err(format!(
            "unexpected report schema {schema:?} (expected \"tmi-bench-harness/2\")"
        ));
    }
    let cells = root
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("report has no \"cells\" array")?;
    let mut checked = 0usize;
    for (i, cell) in cells.iter().enumerate() {
        let metrics = cell
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("cell {i} has no \"metrics\" object"))?;
        for name in metrics.keys() {
            if !allowed.contains(name) {
                return Err(format!(
                    "cell {i} exports unknown metric {name:?} — register it in the \
                     schema (tests/golden/metric_names.txt) or revert the rename"
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Structural summary of a validated Chrome trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Number of `traceEvents` entries.
    pub events: usize,
    /// Distinct event names, sorted.
    pub names: Vec<String>,
}

impl TraceSummary {
    /// True if the trace contains one full repair episode: trigger,
    /// fork/T2P conversion, a twin snapshot and a PTSB commit.
    pub fn has_repair_episode(&self) -> bool {
        [
            "tmi.repair.trigger",
            "tmi.repair.t2p",
            "tmi.repair.twin",
            "tmi.repair.commit",
        ]
        .iter()
        .all(|n| self.names.iter().any(|have| have == n))
    }
}

/// Validates a Chrome `trace_event` JSON document: object format with
/// `displayTimeUnit` and a `traceEvents` array whose entries each carry
/// `name`/`cat`/`ph`/`ts`/`pid`/`tid`, with `ph` one of the shapes the
/// exporter emits (`i` instants, `X` complete spans with `dur`).
pub fn validate_trace(doc: &str) -> Result<TraceSummary, String> {
    let root = json::parse(doc).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    root.get("displayTimeUnit")
        .and_then(Json::as_str)
        .ok_or("trace has no \"displayTimeUnit\"")?;
    root.get("otherData")
        .and_then(Json::as_obj)
        .ok_or("trace has no \"otherData\" object")?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace has no \"traceEvents\" array")?;
    let mut names = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no \"name\""))?;
        for field in ["cat", "ph"] {
            ev.get(field)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i} ({name}) has no \"{field}\""))?;
        }
        // `ts` is a decimal microsecond string rendered as a JSON number.
        for field in ["ts", "pid", "tid"] {
            ev.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i} ({name}) has no numeric \"{field}\""))?;
        }
        match ev.get("ph").and_then(Json::as_str) {
            Some("i") => (),
            Some("X") => {
                ev.get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("complete event {i} ({name}) has no numeric \"dur\""))?;
            }
            ph => return Err(format!("event {i} ({name}) has unexpected ph {ph:?}")),
        }
        names.insert(name.to_string());
    }
    Ok(TraceSummary {
        events: events.len(),
        names: names.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_are_unique_and_prefixed() {
        let names = registered_metric_names();
        let set: BTreeSet<&String> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "duplicate metric names");
        for n in &names {
            assert!(
                ["machine.", "os.", "tmi.", "sheriff.", "laser.", "plastic."]
                    .iter()
                    .any(|p| n.starts_with(p)),
                "unprefixed metric {n}"
            );
        }
    }

    #[test]
    fn traced_run_passes_the_trace_gate() {
        let (r, trace) = crate::JobSpec::repair("histogramfs")
            .runtime(crate::RuntimeKind::TmiProtect)
            .scale(0.25)
            .misaligned()
            .run_traced();
        assert!(r.ok(), "{:?}", r.verified);
        let summary = validate_trace(&trace).expect("trace validates");
        assert!(summary.events > 0);
        assert!(
            summary.has_repair_episode(),
            "expected a full repair episode, saw {:?}",
            summary.names
        );
    }

    #[test]
    fn report_gate_accepts_known_and_rejects_unknown_names() {
        let allowed: BTreeSet<String> = registered_metric_names().into_iter().collect();
        let good = r#"{"schema": "tmi-bench-harness/2",
            "cells": [{"metrics": {"machine.accesses": 1}}]}"#;
        assert_eq!(validate_report(good, &allowed), Ok(1));
        let bad = r#"{"schema": "tmi-bench-harness/2",
            "cells": [{"metrics": {"machine.acesses": 1}}]}"#;
        assert!(validate_report(bad, &allowed)
            .unwrap_err()
            .contains("unknown metric"));
        let old = r#"{"schema": "tmi-bench-harness/1", "cells": []}"#;
        assert!(validate_report(old, &allowed)
            .unwrap_err()
            .contains("unexpected report schema"));
    }
}

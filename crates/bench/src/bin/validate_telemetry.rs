//! The telemetry export gate (`scripts/check.sh`'s `telemetry` step).
//!
//! ```text
//! validate_telemetry --schema tests/golden/metric_names.txt
//!                    [--report BENCH_harness.json]
//!                    [--trace trace.json [--expect-repair-episode]]
//!                    [--write-schema]
//! ```
//!
//! The gated schema is the simulation registry
//! ([`tmi_bench::telemetry::registered_metric_names`]).
//!
//! Three checks, any failure exits non-zero:
//!
//! 1. **Schema drift** — the registry's metric-name list must equal the
//!    checked-in schema file line for line. A renamed or unregistered
//!    metric fails here even before any report is inspected. Regenerate
//!    deliberately with `--write-schema` after an intentional change.
//! 2. **Report names** — with `--report`, every metric name in every cell
//!    of the `BENCH_harness.json` document must be in the schema.
//! 3. **Trace shape** — with `--trace`, the Chrome `trace_event` document
//!    must parse and be structurally sound; `--expect-repair-episode`
//!    additionally requires one full repair episode (trigger → T2P →
//!    twin → commit) in the event stream.

use std::collections::BTreeSet;
use std::process::exit;

use tmi_bench::telemetry::{registered_metric_names, validate_report, validate_trace};

fn main() {
    let mut schema_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut expect_episode = false;
    let mut write_schema = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} expects a path");
                exit(2);
            })
        };
        match arg.as_str() {
            "--schema" => schema_path = Some(path("--schema")),
            "--report" => report_path = Some(path("--report")),
            "--trace" => trace_path = Some(path("--trace")),
            "--expect-repair-episode" => expect_episode = true,
            "--write-schema" => write_schema = true,
            _ => {
                eprintln!(
                    "usage: validate_telemetry --schema FILE [--report FILE] \
                     [--trace FILE [--expect-repair-episode]] [--write-schema]"
                );
                exit(2);
            }
        }
    }
    let Some(schema_path) = schema_path else {
        eprintln!("--schema is required");
        exit(2);
    };

    let current = registered_metric_names();
    if write_schema {
        let mut doc = current.join("\n");
        doc.push('\n');
        if let Err(e) = std::fs::write(&schema_path, doc) {
            eprintln!("failed to write {schema_path}: {e}");
            exit(1);
        }
        println!("wrote {} metric names to {schema_path}", current.len());
        return;
    }

    let checked_in: Vec<String> = match std::fs::read_to_string(&schema_path) {
        Ok(s) => s
            .lines()
            .map(str::to_string)
            .filter(|l| !l.is_empty())
            .collect(),
        Err(e) => {
            eprintln!("failed to read {schema_path}: {e}");
            exit(1);
        }
    };
    if checked_in != current {
        let old: BTreeSet<&String> = checked_in.iter().collect();
        let new: BTreeSet<&String> = current.iter().collect();
        for gone in old.difference(&new) {
            eprintln!("metric removed or renamed: {gone}");
        }
        for added in new.difference(&old) {
            eprintln!("metric not in schema: {added}");
        }
        eprintln!(
            "metric-name schema drifted from {schema_path}; if the change is \
             intentional, regenerate with: validate_telemetry --schema {schema_path} \
             --write-schema"
        );
        exit(1);
    }
    println!("schema: {} metric names stable", current.len());

    let allowed: BTreeSet<String> = current.into_iter().collect();
    if let Some(report) = report_path {
        match std::fs::read_to_string(&report)
            .map_err(|e| format!("failed to read {report}: {e}"))
            .and_then(|doc| validate_report(&doc, &allowed))
        {
            Ok(n) => println!("report: {report} ok ({n} metric values)"),
            Err(e) => {
                eprintln!("report gate failed: {e}");
                exit(1);
            }
        }
    }

    if let Some(trace) = trace_path {
        let summary = match std::fs::read_to_string(&trace)
            .map_err(|e| format!("failed to read {trace}: {e}"))
            .and_then(|doc| validate_trace(&doc))
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace gate failed: {e}");
                exit(1);
            }
        };
        if expect_episode && !summary.has_repair_episode() {
            eprintln!(
                "trace gate failed: no full repair episode (trigger/t2p/twin/commit) \
                 in {trace}; event names: {:?}",
                summary.names
            );
            exit(1);
        }
        println!(
            "trace: {trace} ok ({} events, {} distinct names)",
            summary.events,
            summary.names.len()
        );
    }
}

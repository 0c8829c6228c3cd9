//! Chrome `trace_event` JSON export, loadable in `chrome://tracing` and
//! <https://ui.perfetto.dev>.
//!
//! Timestamps are microseconds (the format's unit) derived from simulated
//! cycles with pure integer arithmetic, so the exported bytes are a
//! deterministic function of the recorded events.

use std::fmt::Write as _;

use crate::json;
use crate::metrics::MetricsSnapshot;
use crate::phase::PhaseProfile;
use crate::trace::{EventKind, TraceEvent, GLOBAL_TID};

/// The `pid` stamped on every event (one simulated machine per trace).
const TRACE_PID: u64 = 1;

/// The viewer `tid` used for engine-global events ([`GLOBAL_TID`] itself is
/// out of range for trace viewers).
const VIEWER_GLOBAL_TID: u64 = 9999;

/// Renders cycles as a microsecond timestamp with fixed nanosecond
/// precision (three decimals), via u128 so large cycle counts cannot
/// overflow.
fn cycles_to_us(cycles: u64, clock_hz: u64) -> String {
    let ns = (cycles as u128 * 1_000_000_000) / clock_hz.max(1) as u128;
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn viewer_tid(tid: u64) -> u64 {
    if tid == GLOBAL_TID {
        VIEWER_GLOBAL_TID
    } else {
        tid
    }
}

fn write_args(out: &mut String, args: &[(&'static str, u64)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json::string(k), v);
    }
    out.push('}');
}

/// Exports `events` (plus the phase breakdown and an optional metrics
/// snapshot) as a Chrome `trace_event` JSON document.
///
/// `clock_hz` is the simulated clock rate used to convert cycle stamps to
/// the format's microsecond timestamps. The output is byte-deterministic
/// for a given input.
pub fn export_trace(
    events: &[TraceEvent],
    phases: &PhaseProfile,
    clock_hz: u64,
    metrics: Option<&MetricsSnapshot>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"displayTimeUnit\": \"ns\",\n");

    // Viewer-ignored side data: the clock, the per-phase cycle breakdown
    // and (optionally) the full metrics snapshot of the run.
    let _ = write!(out, "  \"otherData\": {{\n    \"clock_hz\": {clock_hz}");
    let _ = write!(
        out,
        ",\n    \"phase_cycles\": {{{}}}",
        phases
            .iter()
            .map(|(p, c)| format!("{}: {}", json::string(p.name()), c))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Some(snap) = metrics {
        let _ = write!(out, ",\n    \"metrics\": {}", snap.to_json("      "));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"traceEvents\": [\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"name\": {}, \"cat\": {}, ",
            json::string(ev.name),
            json::string(ev.cat)
        );
        match ev.kind {
            EventKind::Instant => {
                let _ = write!(out, "\"ph\": \"i\", \"s\": \"t\", ");
            }
            EventKind::Complete { dur_cycles } => {
                let _ = write!(
                    out,
                    "\"ph\": \"X\", \"dur\": {}, ",
                    cycles_to_us(dur_cycles, clock_hz)
                );
            }
        }
        let _ = write!(
            out,
            "\"ts\": {}, \"pid\": {}, \"tid\": {}, \"args\": ",
            cycles_to_us(ev.cycle, clock_hz),
            TRACE_PID,
            viewer_tid(ev.tid)
        );
        // Cycle stamps ride along in args so the exact simulated time
        // survives the µs rounding.
        let mut args: Vec<(&'static str, u64)> = vec![("cycle", ev.cycle)];
        if let EventKind::Complete { dur_cycles } = ev.kind {
            args.push(("dur_cycles", dur_cycles));
        }
        args.extend_from_slice(&ev.args);
        write_args(&mut out, &args);
        out.push('}');
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::trace::Tracer;

    fn sample() -> (Vec<TraceEvent>, PhaseProfile) {
        let t = Tracer::enabled();
        t.instant(
            "repair.detect",
            "detect",
            GLOBAL_TID,
            3_400,
            &[("lines", 2)],
        );
        t.span("repair.commit", "repair", 3, 6_800, 3_400, &[("pages", 1)]);
        let mut phases = PhaseProfile::new();
        phases.add(Phase::Commit, 3_400);
        (t.take_events(), phases)
    }

    #[test]
    fn exports_valid_json_with_cycle_exact_args() {
        let (events, phases) = sample();
        let doc = export_trace(&events, &phases, 3_400_000_000, None);
        let v = json::parse(&doc).expect("valid JSON");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 2);
        // 3400 cycles at 3.4 GHz is exactly 1 µs.
        assert_eq!(evs[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(
            evs[0].get("args").unwrap().get("cycle").unwrap().as_f64(),
            Some(3400.0)
        );
        assert_eq!(evs[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(evs[1].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            v.get("otherData")
                .unwrap()
                .get("phase_cycles")
                .unwrap()
                .get("commit")
                .unwrap()
                .as_f64(),
            Some(3400.0)
        );
    }

    #[test]
    fn export_is_byte_deterministic() {
        let (e1, p1) = sample();
        let (e2, p2) = sample();
        assert_eq!(
            export_trace(&e1, &p1, 3_400_000_000, None),
            export_trace(&e2, &p2, 3_400_000_000, None)
        );
    }

    #[test]
    fn timestamps_survive_large_cycle_counts() {
        // ~10^13 cycles would overflow u64 nanosecond math; u128 must not.
        let ev = TraceEvent {
            name: "x",
            cat: "c",
            tid: 0,
            cycle: 10_000_000_000_000,
            kind: EventKind::Instant,
            args: vec![],
        };
        let doc = export_trace(&[ev], &PhaseProfile::new(), 3_400_000_000, None);
        json::parse(&doc).expect("still valid");
    }
}

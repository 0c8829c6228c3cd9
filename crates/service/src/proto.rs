//! The wire protocol: newline-delimited JSON over TCP, one request or
//! reply object per line, built on the workspace's hand-rolled
//! [`tmi_telemetry::json`] codec (offline-build clean, no serde).
//!
//! The request vocabulary is the shared [`JobSpec`]: the `job` member of
//! a `submit` line is exactly [`JobSpec::to_json`], so a job submitted
//! over the socket, built with the [`JobSpec`] builder methods, or
//! replayed from CLI flags is the same job with the same cache identity.
//!
//! ## Requests
//!
//! ```json
//! {"type": "submit", "tenant": "ci", "job": {"workload": "histogramfs", ...},
//!  "priority": 1, "fresh": false, "stream": true}
//! {"type": "wait", "job_id": 3, "stream": true}
//! {"type": "stats"}
//! {"type": "drain"}
//! {"type": "shutdown"}
//! ```
//!
//! ## Replies
//!
//! `submit` answers `accepted` or `rejected` (reasons: `queue_full`,
//! `quota_exceeded`, `bad_request`, `draining`) on the first line. An accepted
//! streaming submission is followed by `progress` events — each carrying
//! the live `service.*` metrics snapshot — and finally one `result` (or
//! `job_error`) line. The `payload` member of a `result` line is the
//! deterministic product of the job alone: it contains no job id, host
//! timing or cache flag, so a cache-served reply is **byte-identical**
//! to the compute that produced it.

use tmi_bench::{JobSpec, RunResult};
use tmi_oracle::CheckReport;
use tmi_telemetry::json::{self, Json};

/// Number of priority classes (0 = highest, `PRIORITIES - 1` = lowest).
pub const PRIORITIES: usize = 3;

/// One parsed request line.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Submit a job for `tenant`.
    Submit {
        /// Tenant name (quota accounting key).
        tenant: String,
        /// The job, in the shared vocabulary.
        job: JobSpec,
        /// Priority class, `0..PRIORITIES` (0 served first).
        priority: usize,
        /// Bypass the result cache read (the job still computes and
        /// stores; used to prove determinism against a cached reply).
        fresh: bool,
        /// Stream progress events and the final result on this
        /// connection.
        stream: bool,
    },
    /// Wait for a previously submitted job, optionally replaying its
    /// progress events.
    Wait {
        /// The id from the `accepted` reply.
        job_id: u64,
        /// Replay progress events before the result line.
        stream: bool,
    },
    /// Fetch the `service.*` metrics (including per-tenant counters).
    Stats,
    /// Begin a graceful drain: refuse new submissions with a
    /// `draining` rejection, finish in-flight jobs, flush durable
    /// state, then stop.
    Drain,
    /// Stop the server after replying.
    Shutdown,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let kind = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or("request needs a string \"type\"")?;
    let flag = |key: &str, default: bool| match v.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("\"{key}\" must be a boolean")),
    };
    match kind {
        "submit" => {
            let tenant = v
                .get("tenant")
                .and_then(Json::as_str)
                .ok_or("submit needs a string \"tenant\"")?
                .to_string();
            if tenant.is_empty() {
                return Err("tenant must be non-empty".into());
            }
            let job = JobSpec::from_json(v.get("job").ok_or("submit needs a \"job\" object")?)?;
            let priority = match v.get("priority") {
                None => 1,
                Some(p) => {
                    let p = p.as_f64().ok_or("\"priority\" must be a number")? as usize;
                    if p >= PRIORITIES {
                        return Err(format!("priority must be 0..{PRIORITIES}"));
                    }
                    p
                }
            };
            Ok(Request::Submit {
                tenant,
                job,
                priority,
                fresh: flag("fresh", false)?,
                stream: flag("stream", true)?,
            })
        }
        "wait" => {
            let job_id = v
                .get("job_id")
                .and_then(Json::as_f64)
                .ok_or("wait needs a numeric \"job_id\"")? as u64;
            Ok(Request::Wait {
                job_id,
                stream: flag("stream", true)?,
            })
        }
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request type {other:?}")),
    }
}

/// Renders a `submit` request line (the client side of
/// [`parse_request`]).
pub fn render_submit(
    tenant: &str,
    job: &JobSpec,
    priority: usize,
    fresh: bool,
    stream: bool,
) -> String {
    format!(
        "{{\"type\": \"submit\", \"tenant\": {}, \"job\": {}, \
         \"priority\": {priority}, \"fresh\": {fresh}, \"stream\": {stream}}}",
        json::string(tenant),
        job.to_json(),
    )
}

/// `accepted` reply line.
pub fn accepted(job_id: u64) -> String {
    format!("{{\"type\": \"accepted\", \"job_id\": {job_id}}}")
}

/// `rejected` reply line (the backpressure/quota/bad-request surface).
pub fn rejected(reason: &str, detail: &str) -> String {
    format!(
        "{{\"type\": \"rejected\", \"reason\": {}, \"detail\": {}}}",
        json::string(reason),
        json::string(detail),
    )
}

/// `progress` event line; `metrics` is a rendered `service.*` snapshot
/// object (the registry is the source of streamed progress).
pub fn progress(job_id: u64, state: &str, attempt: u32, metrics: &str) -> String {
    format!(
        "{{\"type\": \"progress\", \"job_id\": {job_id}, \"state\": {}, \
         \"attempt\": {attempt}, \"metrics\": {metrics}}}",
        json::string(state),
    )
}

/// Final `result` line. `payload` is the deterministic job product —
/// byte-identical whether computed, recomputed after a worker kill, or
/// served from the cache.
pub fn result(job_id: u64, cached: bool, attempts: u32, payload: &str) -> String {
    format!(
        "{{\"type\": \"result\", \"job_id\": {job_id}, \"cached\": {cached}, \
         \"attempts\": {attempts}, \"payload\": {payload}}}"
    )
}

/// Final error line for a failed job.
pub fn job_error(job_id: u64, message: &str) -> String {
    format!(
        "{{\"type\": \"job_error\", \"job_id\": {job_id}, \"message\": {}}}",
        json::string(message),
    )
}

/// Protocol-level error line (malformed request, unknown job id).
pub fn error(message: &str) -> String {
    format!(
        "{{\"type\": \"error\", \"message\": {}}}",
        json::string(message)
    )
}

/// `stats` reply line wrapping a rendered metrics object.
pub fn stats_reply(metrics: &str) -> String {
    format!("{{\"type\": \"stats\", \"metrics\": {metrics}}}")
}

/// Plain acknowledgement (`shutdown`).
pub fn ok() -> String {
    "{\"type\": \"ok\"}".to_string()
}

/// Extracts the exact `payload` bytes from a `result` line — the
/// byte-comparison target for the determinism guarantees. Relies on the
/// renderer above always placing `payload` last.
pub fn extract_payload(result_line: &str) -> Option<&str> {
    let line = result_line.trim_end();
    let start = result_line.find("\"payload\": ")? + "\"payload\": ".len();
    line.ends_with('}').then(|| &line[start..line.len() - 1])
}

/// Renders the deterministic result payload for a harness job: the spec
/// it answers plus every measured field and the full metrics snapshot.
/// Deliberately excludes anything about *how* the service ran it (job
/// id, attempts, host seconds, cache state).
pub fn run_payload(spec: &JobSpec, r: &RunResult) -> String {
    let verified = match &r.verified {
        Ok(()) => "true".to_string(),
        Err(e) => json::string(e),
    };
    format!(
        "{{\"kind\": \"run\", \"spec\": {}, \"halt\": {}, \"cycles\": {}, \
         \"seconds\": {}, \"ops\": {}, \"verified\": {verified}, \
         \"hitm_events\": {}, \"perf_records\": {}, \"perf_events\": {}, \
         \"repaired\": {}, \"commits\": {}, \"t2p_cycles\": {}, \
         \"memory_bytes\": {}, \"app_bytes\": {}, \"faults\": {}, \
         \"metrics\": {}}}",
        spec.to_json(),
        json::string(&format!("{:?}", r.halt)),
        r.cycles,
        json::fmt_f64(r.seconds),
        r.ops,
        r.hitm_events,
        r.perf_records,
        r.perf_events,
        r.repaired,
        r.commits,
        r.t2p_cycles,
        r.memory_bytes,
        r.app_bytes,
        r.faults,
        r.metrics.to_json(""),
    )
}

/// Renders the deterministic result payload for a litmus job checked
/// through the differential oracle.
pub fn litmus_payload(spec: &JobSpec, report: &CheckReport) -> String {
    format!(
        "{{\"kind\": \"litmus\", \"spec\": {}, \"litmus_seed\": {}, \
         \"clean\": {}, \"steps\": {}, \"divergences\": {}, \"report\": {}}}",
        spec.to_json(),
        report.seed,
        report.clean(),
        report.steps,
        report.divergences.len(),
        json::string(&report.render()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_through_parse() {
        let mut job = JobSpec::new("histogramfs");
        job.seed = 9;
        let line = render_submit("ci", &job, 0, true, false);
        let parsed = parse_request(&line).unwrap();
        assert_eq!(
            parsed,
            Request::Submit {
                tenant: "ci".into(),
                job,
                priority: 0,
                fresh: true,
                stream: false,
            }
        );
    }

    #[test]
    fn submit_defaults_and_validation() {
        let line = r#"{"type": "submit", "tenant": "t", "job": {"workload": "histogram"}}"#;
        match parse_request(line).unwrap() {
            Request::Submit {
                priority,
                fresh,
                stream,
                ..
            } => {
                assert_eq!(priority, 1);
                assert!(!fresh);
                assert!(stream);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_request(r#"{"type": "submit", "tenant": "t"}"#).is_err());
        assert!(
            parse_request(r#"{"type": "submit", "tenant": "", "job": {"workload": "x"}}"#).is_err()
        );
        assert!(parse_request(
            r#"{"type": "submit", "tenant": "t", "job": {"workload": "x"}, "priority": 3}"#
        )
        .is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"type": "frobnicate"}"#).is_err());
    }

    #[test]
    fn wait_stats_shutdown_parse() {
        assert_eq!(
            parse_request(r#"{"type": "wait", "job_id": 7, "stream": false}"#).unwrap(),
            Request::Wait {
                job_id: 7,
                stream: false
            }
        );
        assert_eq!(
            parse_request(r#"{"type": "stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"type": "drain"}"#).unwrap(),
            Request::Drain
        );
        assert_eq!(
            parse_request(r#"{"type": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn payload_extraction_is_byte_exact() {
        let payload = r#"{"kind": "run", "spec": {"workload": "x"}, "ops": 3}"#;
        let line = result(12, true, 1, payload);
        assert_eq!(extract_payload(&line), Some(payload));
        // The reply envelope differs between cached and fresh replies,
        // but the payload bytes must not.
        let fresh = result(99, false, 2, payload);
        assert_ne!(line, fresh);
        assert_eq!(extract_payload(&line), extract_payload(&fresh));
    }

    #[test]
    fn reply_lines_parse_as_json() {
        for line in [
            accepted(3),
            rejected("queue_full", "queue at capacity"),
            progress(1, "running", 2, "{\"service.jobs_submitted\": 1}"),
            result(1, false, 1, "{}"),
            job_error(1, "boom"),
            error("bad line"),
            stats_reply("{}"),
            ok(),
        ] {
            json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }
}

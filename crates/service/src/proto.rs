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
//! {"type": "submit", "job": {"workload": "histogramfs", ...}, "fresh": false}
//! {"type": "stats"}
//! {"type": "drain"}
//! {"type": "shutdown"}
//! ```
//!
//! A `submit` line may still carry the members older clients sent
//! (`tenant`, `priority`, `stream`); they are ignored.
//!
//! ## Replies
//!
//! `submit` answers `accepted` or `rejected` (reasons: `queue_full`,
//! `bad_request`, `draining`), and an accepted job then gets exactly one
//! `result` (or `job_error`) line on the same connection. The `payload`
//! member of a `result` line is the deterministic product of the job
//! alone: it contains no job id, host timing or cache flag, so a
//! cache-served reply is **byte-identical** to the compute that produced
//! it.

use tmi_bench::{JobSpec, RunResult};
use tmi_oracle::CheckReport;
use tmi_telemetry::json::{self, Json};

/// One parsed request line.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Submit a job and wait for its result on this connection.
    Submit {
        /// The job, or why [`JobSpec::from_json`] refused it (a `bad_request`).
        job: Result<JobSpec, String>,
        /// Bypass the result cache read (the job still computes and
        /// stores; used to prove determinism against a cached reply).
        fresh: bool,
    },
    /// Fetch the `service.*` metrics.
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
    match kind {
        "submit" => {
            let job = JobSpec::from_json(v.get("job").ok_or("submit needs a \"job\" object")?);
            let fresh = match v.get("fresh") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err("\"fresh\" must be a boolean".into()),
            };
            Ok(Request::Submit { job, fresh })
        }
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request type {other:?}")),
    }
}

/// Renders a `submit` request line (the client side of
/// [`parse_request`]).
pub fn render_submit(job: &JobSpec, fresh: bool) -> String {
    format!(
        "{{\"type\": \"submit\", \"job\": {}, \"fresh\": {fresh}}}",
        job.to_json()
    )
}

/// `accepted` reply line.
pub fn accepted(job_id: u64) -> String {
    format!("{{\"type\": \"accepted\", \"job_id\": {job_id}}}")
}

/// `rejected` reply line (the backpressure/bad-request/drain surface).
pub fn rejected(reason: &str, detail: &str) -> String {
    format!(
        "{{\"type\": \"rejected\", \"reason\": {}, \"detail\": {}}}",
        json::string(reason),
        json::string(detail),
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

/// Protocol-level error line (malformed request).
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

/// Plain acknowledgement (`drain`, `shutdown`).
pub fn ok() -> String {
    "{\"type\": \"ok\"}".to_string()
}

/// Extracts the exact bytes of the `key` member from a reply line — the
/// `payload` of a `result` line is the byte-comparison target for the
/// determinism guarantees, the `metrics` of a `stats` line the document
/// it carries. Relies on the renderers above always placing that member
/// last.
pub fn extract_member<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let line = line.trim_end();
    let marker = format!("\"{key}\": ");
    let start = line.find(&marker)? + marker.len();
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
        let parsed = parse_request(&render_submit(&job, true)).unwrap();
        let job = Ok(job);
        assert_eq!(parsed, Request::Submit { job, fresh: true });
    }

    #[test]
    fn submit_defaults_and_validation() {
        let line = r#"{"type": "submit", "job": {"workload": "histogram"}}"#;
        assert!(matches!(
            parse_request(line).unwrap(),
            Request::Submit { fresh: false, .. }
        ));
        assert!(parse_request(r#"{"type": "submit", "tenant": "t"}"#).is_err());
        assert!(
            parse_request(r#"{"type": "submit", "job": {"workload": "x"}, "fresh": 1}"#).is_err()
        );
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"type": "frobnicate"}"#).is_err());
        // `wait` was a request type once; it is not one now.
        assert!(parse_request(r#"{"type": "wait", "job_id": 7}"#).is_err());
    }

    #[test]
    fn submit_lines_with_retired_members_still_parse() {
        let line = r#"{"type": "submit", "tenant": "ci", "job": {"workload": "histogramfs"},
                      "priority": 2, "fresh": true, "stream": false}"#;
        assert_eq!(
            parse_request(line).unwrap(),
            Request::Submit {
                job: Ok(JobSpec::new("histogramfs")),
                fresh: true
            }
        );
    }

    #[test]
    fn stats_drain_shutdown_parse() {
        for (line, want) in [
            (r#"{"type": "stats"}"#, Request::Stats),
            (r#"{"type": "drain"}"#, Request::Drain),
            (r#"{"type": "shutdown"}"#, Request::Shutdown),
        ] {
            assert_eq!(parse_request(line).unwrap(), want);
        }
    }

    #[test]
    fn payload_extraction_is_byte_exact() {
        let payload = r#"{"kind": "run", "spec": {"workload": "x"}, "ops": 3}"#;
        let line = result(12, true, 1, payload);
        assert_eq!(extract_member(&line, "payload"), Some(payload));
        // The reply envelope differs between cached and fresh replies,
        // but the payload bytes must not.
        let fresh = result(99, false, 2, payload);
        assert_ne!(line, fresh);
        assert_eq!(
            extract_member(&line, "payload"),
            extract_member(&fresh, "payload")
        );
    }

    #[test]
    fn reply_lines_parse_as_json() {
        for line in [
            accepted(3),
            rejected("queue_full", "queue at capacity"),
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

//! End-to-end tests for the job server: real TCP connections against a
//! real daemon, covering admission edge cases (backpressure, quotas,
//! malformed lines), graceful drain, and the service's central
//! determinism claim — a job's payload bytes are identical whether
//! computed cold, served from the result cache, or re-simulated after
//! fault injection kills a worker's attempt.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use tmi_faultpoint::{FaultPlan, FaultPoint, PointPlan};
use tmi_service::{proto, Client, JobSpec, Service, ServiceConfig};
use tmi_telemetry::json::{self, Json};

/// A cheap deterministic spec the suite reuses (sized like the
/// `run_all --quick` cells).
fn small_spec() -> JobSpec {
    let mut spec = JobSpec::new("histogramfs");
    spec.threads = 4;
    spec.scale = 0.02;
    spec
}

/// Sends raw request lines on one connection and returns one reply line
/// per request (requests must be non-streaming).
fn raw_roundtrip(addr: std::net::SocketAddr, requests: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::new();
    for req in requests {
        writeln!(writer, "{req}").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        replies.push(line.trim_end().to_string());
    }
    replies
}

fn reply_field<'a>(reply: &'a Json, key: &str) -> &'a str {
    reply.get(key).and_then(Json::as_str).unwrap_or("")
}

#[test]
fn queue_full_submissions_get_backpressure_replies() {
    // No workers: nothing drains, so the queue (capacity 3, exact) fills
    // deterministically and the fourth submission must be shed with an
    // explicit queue_full reply, not a hang.
    let service = Service::start(ServiceConfig {
        workers: 0,
        queue_capacity: 3,
        default_quota: 100,
        ..ServiceConfig::default()
    })
    .unwrap();
    let submits: Vec<String> = (0..4)
        .map(|_| proto::render_submit("flood", &small_spec(), 1, true, false))
        .collect();
    let replies = raw_roundtrip(service.addr(), &submits);
    for reply in &replies[..3] {
        let v = json::parse(reply).unwrap();
        assert_eq!(reply_field(&v, "type"), "accepted", "reply: {reply}");
    }
    let v = json::parse(&replies[3]).unwrap();
    assert_eq!(reply_field(&v, "type"), "rejected");
    assert_eq!(reply_field(&v, "reason"), "queue_full");
    let m = service.metrics();
    assert_eq!(m.u64("service.reject_queue_full"), 1);
    assert_eq!(m.u64("service.jobs_submitted"), 3);
    assert_eq!(m.u64("service.queue_peak_depth"), 3);
    service.shutdown_now();
    service.wait();
}

#[test]
fn tenant_quota_exhaustion_rejects_but_only_for_that_tenant() {
    let service = Service::start(ServiceConfig {
        workers: 0,
        queue_capacity: 64,
        default_quota: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let submit = |tenant: &str| proto::render_submit(tenant, &small_spec(), 1, true, false);
    let replies = raw_roundtrip(
        service.addr(),
        &[
            submit("greedy"),
            submit("greedy"),
            submit("greedy"),
            submit("modest"),
        ],
    );
    let kinds: Vec<String> = replies
        .iter()
        .map(|r| reply_field(&json::parse(r).unwrap(), "type").to_string())
        .collect();
    assert_eq!(kinds, ["accepted", "accepted", "rejected", "accepted"]);
    let v = json::parse(&replies[2]).unwrap();
    assert_eq!(reply_field(&v, "reason"), "quota_exceeded");
    assert!(reply_field(&v, "detail").contains("quota 2"), "{replies:?}");
    let m = service.metrics();
    assert_eq!(m.u64("service.reject_quota"), 1);
    assert_eq!(m.u64("service.tenants"), 2);
    service.shutdown_now();
    service.wait();
}

#[test]
fn queue_full_fault_point_sheds_admissions() {
    // Every roll of the queue_full point fires: admission sheds the
    // request even though the ring is empty.
    let service = Service::start(ServiceConfig {
        workers: 0,
        faults: Some(FaultPlan::quiet().with(FaultPoint::QueueFull, PointPlan::transient(1, 1))),
        ..ServiceConfig::default()
    })
    .unwrap();
    let replies = raw_roundtrip(
        service.addr(),
        &[proto::render_submit("chaos", &small_spec(), 1, true, false)],
    );
    let v = json::parse(&replies[0]).unwrap();
    assert_eq!(reply_field(&v, "type"), "rejected");
    assert_eq!(reply_field(&v, "reason"), "queue_full");
    assert!(reply_field(&v, "detail").contains("fault point"));
    let m = service.metrics();
    assert_eq!(m.u64("service.reject_queue_full"), 1);
    // The shed request released its quota slot: the tenant can submit
    // again once the fault stops firing (quota not leaked).
    service.shutdown_now();
    service.wait();
}

#[test]
fn malformed_lines_get_error_replies_and_the_connection_survives() {
    let service = Service::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    let replies = raw_roundtrip(
        service.addr(),
        &[
            "this is not json".to_string(),
            r#"{"type": "submit", "tenant": "t"}"#.to_string(),
            r#"{"type": "wait", "job_id": 99}"#.to_string(),
            r#"{"type": "stats"}"#.to_string(),
        ],
    );
    for reply in &replies[..3] {
        let v = json::parse(reply).unwrap();
        assert_eq!(reply_field(&v, "type"), "error", "reply: {reply}");
    }
    let v = json::parse(&replies[3]).unwrap();
    assert_eq!(reply_field(&v, "type"), "stats");
    // The unparseable line and the invalid submit both count as
    // malformed; the unknown job id is a protocol error, not a
    // malformed request.
    assert_eq!(service.metrics().u64("service.malformed_requests"), 2);
    service.shutdown_now();
    service.wait();
}

#[test]
fn unknown_workloads_are_rejected_as_bad_requests() {
    let service = Service::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut spec = small_spec();
    spec.workload = "no-such-workload".to_string();
    let replies = raw_roundtrip(
        service.addr(),
        &[proto::render_submit("t", &spec, 1, false, false)],
    );
    let v = json::parse(&replies[0]).unwrap();
    assert_eq!(reply_field(&v, "type"), "rejected");
    assert_eq!(reply_field(&v, "reason"), "bad_request");
    assert_eq!(service.metrics().u64("service.reject_bad_request"), 1);
    service.shutdown_now();
    service.wait();
}

#[test]
fn duplicate_requests_hit_the_cache_with_byte_identical_payloads() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(service.addr()).unwrap();
    let spec = small_spec();

    let mut states = Vec::new();
    let cold = client
        .run("ci", &spec, 1, false, |p| states.push(p.state.clone()))
        .unwrap();
    assert!(!cold.cached);
    assert_eq!(cold.attempts, 1);
    assert_eq!(states, ["queued", "running", "done"], "streamed lifecycle");

    let cached = client.run("ci", &spec, 1, false, |_| {}).unwrap();
    assert!(
        cached.cached,
        "second identical submit must be cache-served"
    );
    assert_eq!(
        cold.payload, cached.payload,
        "cache hit must be byte-identical to the compute that filled it"
    );
    // The payload is the deterministic product of the spec alone.
    let v = json::parse(&cold.payload).unwrap();
    assert_eq!(reply_field(&v, "kind"), "run");
    assert!(v.get("metrics").is_some());

    let m = service.metrics();
    assert_eq!(m.u64("service.cache_hits"), 1);
    assert_eq!(m.u64("service.cache_misses"), 1);
    assert_eq!(m.u64("service.jobs_completed"), 2);

    client.shutdown().unwrap();
    service.wait();
}

#[test]
fn priorities_and_litmus_jobs_flow_through_the_service() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(service.addr()).unwrap();
    let litmus = JobSpec::litmus(7);
    let out = client.run("oracle", &litmus, 0, false, |_| {}).unwrap();
    let v = json::parse(&out.payload).unwrap();
    assert_eq!(reply_field(&v, "kind"), "litmus");
    assert_eq!(v.get("litmus_seed").and_then(Json::as_f64), Some(7.0));
    assert!(matches!(v.get("clean"), Some(Json::Bool(_))));

    // Transistency (VM-op) litmus jobs are first-class service workloads
    // too: same payload shape, routed through the transistency checker.
    let vm = JobSpec::litmus_vm(7);
    let out = client.run("oracle", &vm, 0, false, |_| {}).unwrap();
    let v = json::parse(&out.payload).unwrap();
    assert_eq!(reply_field(&v, "kind"), "litmus");
    assert_eq!(v.get("litmus_seed").and_then(Json::as_f64), Some(7.0));
    assert_eq!(
        v.get("clean"),
        Some(&Json::Bool(true)),
        "vm litmus seed 7 must check clean through the service"
    );

    // Stats carry both the schema-stable aggregates and the dynamic
    // per-tenant counters.
    let stats = client.stats().unwrap();
    let sv = json::parse(&stats).unwrap();
    assert!(sv.get("service.jobs_completed").is_some());
    assert_eq!(
        sv.get("service.tenant.oracle.submitted")
            .and_then(Json::as_f64),
        Some(2.0)
    );
    client.shutdown().unwrap();
    service.wait();
}

/// The central claim: a killed attempt does not change a single result
/// byte. Chaos plan `worker_kill` period 2 means the second pickup is
/// killed; the retry re-simulates the job and must reproduce the cold
/// run's payload exactly — and a second clean server computing the same
/// spec from scratch must agree too.
#[test]
fn worker_kill_campaign_retries_to_byte_identical_results() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        faults: Some(FaultPlan::quiet().with(FaultPoint::WorkerKill, PointPlan::transient(2, 1))),
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(service.addr()).unwrap();
    let spec = small_spec();

    // Pickup #1: the kill point rolls 1 (1 % 2 != 0) — survives.
    let cold = client.run("chaos", &spec, 1, false, |_| {}).unwrap();
    assert!(!cold.cached);
    assert_eq!(cold.attempts, 1);

    // Cache-served: no pickup, no roll.
    let cached = client.run("chaos", &spec, 1, false, |_| {}).unwrap();
    assert!(cached.cached);

    // `fresh` forces a recompute. Pickup #2 rolls 2 — the attempt is
    // killed and the job requeued; pickup #3 survives and simulates the
    // job again (the payload cache is the only cache, so nothing else
    // can answer it).
    let mut states = Vec::new();
    let retried = client
        .run("chaos", &spec, 1, true, |p| states.push(p.state.clone()))
        .unwrap();
    assert!(!retried.cached);
    assert_eq!(retried.attempts, 2, "exactly one kill and one retry");
    assert!(
        states.iter().any(|s| s == "retrying"),
        "retry must be visible in the progress stream: {states:?}"
    );

    assert_eq!(cold.payload, cached.payload, "cold vs cached");
    assert_eq!(cold.payload, retried.payload, "cold vs fault-retried");

    let m = service.metrics();
    assert_eq!(m.u64("service.worker_kills"), 1);
    assert_eq!(m.u64("service.jobs_retried"), 1);
    assert_eq!(m.u64("service.jobs_failed"), 0);

    client.shutdown().unwrap();
    let report = service.wait();
    // Every computed job left a span in the Chrome trace.
    assert!(report.chrome_trace.contains("\"service.job\""));

    // Cross-server determinism: a clean daemon must compute the same
    // bytes from scratch.
    let clean = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client2 = Client::connect(clean.addr()).unwrap();
    let independent = client2
        .run("other-tenant", &spec, 2, false, |_| {})
        .unwrap();
    assert_eq!(
        cold.payload, independent.payload,
        "two independent servers must agree byte-for-byte"
    );
    client2.shutdown().unwrap();
    clean.wait();
}

/// A dropped cache store (`cache_drop` fault) must not change reply
/// bytes — the recompute on the next submit agrees with the original.
#[test]
fn cache_drop_fault_forces_recompute_with_identical_bytes() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        faults: Some(FaultPlan::quiet().with(FaultPoint::CacheDrop, PointPlan::transient(1, 1))),
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(service.addr()).unwrap();
    let spec = small_spec();
    let first = client.run("ci", &spec, 1, false, |_| {}).unwrap();
    let second = client.run("ci", &spec, 1, false, |_| {}).unwrap();
    assert!(!first.cached);
    assert!(
        !second.cached,
        "every store is dropped, so the resubmit must recompute"
    );
    assert_eq!(first.payload, second.payload);
    let m = service.metrics();
    assert_eq!(m.u64("service.cache_drops"), 2);
    assert_eq!(m.u64("service.cache_hits"), 0);
    client.shutdown().unwrap();
    service.wait();
}

/// A drain requested while jobs are still queued or running lets them
/// finish: every job ends terminal with its result, and `Service::wait`
/// returns without a `shutdown` request.
#[test]
fn drain_with_jobs_in_flight_finishes_them_and_stops() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    // One worker and three distinct jobs of a few hundred milliseconds
    // each: when the drain begins, at least two are still in flight.
    let submits: Vec<String> = (1..=3)
        .map(|seed| {
            let mut spec = small_spec();
            spec.scale = 0.25;
            spec.seed = seed;
            proto::render_submit("drain", &spec, 1, false, false)
        })
        .collect();
    for reply in raw_roundtrip(service.addr(), &submits) {
        let v = json::parse(&reply).unwrap();
        assert_eq!(reply_field(&v, "type"), "accepted", "reply: {reply}");
    }
    assert!(
        service.metrics().u64("service.jobs_completed") < 3,
        "the drain must begin with jobs in flight"
    );
    service.begin_drain();

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(service.wait()).unwrap());
    let report = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("Service::wait must return once the drain completes");
    let m = report.metrics;
    assert_eq!(m.u64("service.drain.requests"), 1);
    assert_eq!(m.u64("service.jobs_submitted"), 3);
    assert_eq!(m.u64("service.jobs_completed"), 3, "every job finished");
    assert_eq!(m.u64("service.jobs_failed"), 0);
}

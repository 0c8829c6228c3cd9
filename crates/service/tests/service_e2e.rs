//! End-to-end tests for the job server: real TCP connections against a
//! real daemon, covering admission edge cases (backpressure, malformed
//! lines, unknown workloads), graceful drain, and the service's central
//! determinism claim — a job's payload bytes are identical whether
//! computed cold, served from the result cache, or re-simulated after
//! fault injection kills a worker's attempt.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use tmi_faultpoint::{FaultPlan, FaultPoint, PointPlan};
use tmi_service::{proto, Client, ClientConfig, JobSpec, Service, ServiceConfig, QUEUE_CAPACITY};
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
/// each (an accepted `submit` holds its connection until the result).
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

/// Submits `spec` on a connection of its own and returns the admission
/// reply without waiting for the result.
fn admit(addr: std::net::SocketAddr, spec: &JobSpec, fresh: bool) -> String {
    raw_roundtrip(addr, &[proto::render_submit(spec, fresh)]).remove(0)
}

fn reply_field<'a>(reply: &'a Json, key: &str) -> &'a str {
    reply.get(key).and_then(Json::as_str).unwrap_or("")
}

#[test]
fn queue_full_submissions_get_backpressure_replies() {
    // No workers: nothing drains, so the queue fills deterministically
    // to exactly QUEUE_CAPACITY and the next submission must be shed
    // with an explicit queue_full reply, not a hang.
    let service = Service::start(ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    for _ in 0..QUEUE_CAPACITY {
        let reply = admit(service.addr(), &small_spec(), true);
        let v = json::parse(&reply).unwrap();
        assert_eq!(reply_field(&v, "type"), "accepted", "reply: {reply}");
    }
    let v = json::parse(&admit(service.addr(), &small_spec(), true)).unwrap();
    assert_eq!(reply_field(&v, "type"), "rejected");
    assert_eq!(reply_field(&v, "reason"), "queue_full");
    let m = service.metrics();
    assert_eq!(m.u64("service.reject_queue_full"), 1);
    assert_eq!(m.u64("service.jobs_submitted"), QUEUE_CAPACITY as u64);
    assert_eq!(m.u64("service.queue_peak_depth"), QUEUE_CAPACITY as u64);
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
            r#"{"type": "submit", "job": {"workload": "histogramfs", "threads": 0}}"#.to_string(),
            r#"{"type": "stats"}"#.to_string(),
        ],
    );
    for reply in &replies[..3] {
        let v = json::parse(reply).unwrap();
        assert_eq!(reply_field(&v, "type"), "error", "reply: {reply}");
    }
    // A job the decoder refuses is an invalid job, not a malformed line:
    // it gets the same reply and counter as an unknown workload.
    let reply = &replies[3];
    let v = json::parse(reply).unwrap();
    assert_eq!(reply_field(&v, "reason"), "bad_request", "reply: {reply}");
    assert!(
        reply_field(&v, "detail").contains("1..=64"),
        "reply: {reply}"
    );
    let v = json::parse(&replies[4]).unwrap();
    assert_eq!(reply_field(&v, "type"), "stats");
    // The unparseable line, the submit without a job and the retired
    // `wait` request all count as malformed.
    assert_eq!(service.metrics().u64("service.malformed_requests"), 3);
    assert_eq!(service.metrics().u64("service.reject_bad_request"), 1);
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
    let reply = admit(service.addr(), &spec, false);
    let v = json::parse(&reply).unwrap();
    assert_eq!(reply_field(&v, "type"), "rejected");
    assert_eq!(reply_field(&v, "reason"), "bad_request");
    assert!(
        reply_field(&v, "detail").contains("unknown workload"),
        "reply: {reply}"
    );
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
    let mut client = Client::connect(service.addr(), &ClientConfig::default()).unwrap();
    let spec = small_spec();

    let cold = client.run(&spec, false).unwrap();
    assert!(!cold.cached);
    assert_eq!(cold.attempts, 1);

    let cached = client.run(&spec, false).unwrap();
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
    assert_eq!(
        m.u64("service.jobs_retried"),
        0,
        "a clean run never retries"
    );

    client.shutdown().unwrap();
    service.wait();
}

#[test]
fn litmus_jobs_flow_through_the_service() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(service.addr(), &ClientConfig::default()).unwrap();
    let litmus = JobSpec::litmus(7);
    let out = client.run(&litmus, false).unwrap();
    let v = json::parse(&out.payload).unwrap();
    assert_eq!(reply_field(&v, "kind"), "litmus");
    assert_eq!(v.get("litmus_seed").and_then(Json::as_f64), Some(7.0));
    assert!(matches!(v.get("clean"), Some(Json::Bool(_))));

    // Transistency (VM-op) litmus jobs are first-class service workloads
    // too: same payload shape, routed through the transistency checker.
    let vm = JobSpec::litmus_vm(7);
    let out = client.run(&vm, false).unwrap();
    let v = json::parse(&out.payload).unwrap();
    assert_eq!(reply_field(&v, "kind"), "litmus");
    assert_eq!(v.get("litmus_seed").and_then(Json::as_f64), Some(7.0));
    assert_eq!(
        v.get("clean"),
        Some(&Json::Bool(true)),
        "vm litmus seed 7 must check clean through the service"
    );

    let stats = client.stats().unwrap();
    let sv = json::parse(&stats).unwrap();
    assert_eq!(
        sv.get("service.jobs_completed").and_then(Json::as_f64),
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
    let mut client = Client::connect(service.addr(), &ClientConfig::default()).unwrap();
    let spec = small_spec();

    // Pickup #1: the kill point rolls 1 (1 % 2 != 0) — survives.
    let cold = client.run(&spec, false).unwrap();
    assert!(!cold.cached);
    assert_eq!(cold.attempts, 1);

    // Cache-served: no pickup, no roll.
    let cached = client.run(&spec, false).unwrap();
    assert!(cached.cached);

    // `fresh` forces a recompute. Pickup #2 rolls 2 — the attempt is
    // killed and the job requeued; pickup #3 survives and simulates the
    // job again (the payload cache is the only cache, so nothing else
    // can answer it).
    let retried = client.run(&spec, true).unwrap();
    assert!(!retried.cached);
    assert_eq!(retried.attempts, 2, "exactly one kill and one retry");

    assert_eq!(cold.payload, cached.payload, "cold vs cached");
    assert_eq!(cold.payload, retried.payload, "cold vs fault-retried");

    let m = service.metrics();
    assert_eq!(m.u64("service.worker_kills"), 1);
    assert_eq!(m.u64("service.jobs_retried"), 1);
    assert_eq!(m.u64("service.jobs_failed"), 0);

    client.shutdown().unwrap();
    service.wait();

    // Cross-server determinism: a clean daemon must compute the same
    // bytes from scratch.
    let clean = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client2 = Client::connect(clean.addr(), &ClientConfig::default()).unwrap();
    let independent = client2.run(&spec, false).unwrap();
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
    let mut client = Client::connect(service.addr(), &ClientConfig::default()).unwrap();
    let spec = small_spec();
    let first = client.run(&spec, false).unwrap();
    let second = client.run(&spec, false).unwrap();
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
    // One worker and three distinct jobs of a hundred milliseconds or
    // more each: when the drain begins, at least two are still in flight.
    // They run fault-free; under a fault seed this cell halts on its
    // first injected fault within a few thousand ops.
    for scale in [0.25, 0.3, 0.35] {
        let mut spec = small_spec();
        spec.scale = scale;
        let reply = admit(service.addr(), &spec, false);
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
    let m = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("Service::wait must return once the drain completes");
    assert_eq!(m.u64("service.drain.requests"), 1);
    assert_eq!(m.u64("service.jobs_submitted"), 3);
    assert_eq!(m.u64("service.jobs_completed"), 3, "every job finished");
    assert_eq!(m.u64("service.jobs_failed"), 0);
}

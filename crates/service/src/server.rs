//! The multi-tenant job server.
//!
//! One [`Service`] owns a TCP listener, a fixed worker pool that runs
//! jobs straight through the harness ([`execute_spec`]), one locked
//! admission queue holding a FIFO per priority class, a result cache
//! keyed on the canonical [`JobSpec`] JSON, and per-tenant quota
//! accounting.
//!
//! ## Determinism contract
//!
//! A job's result payload is a pure function of its spec. The service
//! holds that line through every path a reply can take:
//!
//! * **computed** — workers run specs through the harness, whose runs
//!   are deterministic;
//! * **cache-served** — the cache stores the rendered payload bytes, so
//!   a hit replays exactly what compute produced;
//! * **retried** — the `worker_kill` fault fires *before* compute
//!   starts, the job is requeued, and the next pickup simulates it again
//!   from scratch, producing the same bytes.
//!
//! The payload cache (with its disk spill) is the service's only cache,
//! so a `fresh`, cache-dropped or retried job really re-simulates. The
//! integration suite and `scripts/check.sh` byte-compare all three.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tmi_bench::harness::execute_spec;
use tmi_bench::JobSpec;
use tmi_faultpoint::{FaultInjector, FaultPlan, FaultPoint, PointPlan};
use tmi_telemetry::{
    chrome, EventKind, MetricSink, MetricsSnapshot, PhaseProfile, TraceEvent, Tracer,
};

use crate::journal::{Journal, JournalRecord};
use crate::persist::CacheSpill;
use crate::proto::{self, Request, PRIORITIES};
use crate::stats::ServiceStats;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks a free port (read it back with
    /// [`Service::addr`]).
    pub addr: String,
    /// Worker pool size. 0 runs the server admission-only — jobs queue
    /// but never execute (the backpressure tests use this to fill the
    /// queue deterministically).
    pub workers: usize,
    /// Jobs each priority class may hold queued at once, exactly; the
    /// next submission to a full class gets a `queue_full` rejection.
    pub queue_capacity: usize,
    /// Outstanding-job quota applied to tenants.
    pub default_quota: usize,
    /// Total attempts a job gets before it fails (≥ 1); attempts beyond
    /// the first happen only when a `worker_kill` firing abandons one.
    pub max_attempts: u32,
    /// Fault plan for the service fault points (`worker_kill`,
    /// `queue_full`, `cache_drop`, `journal_tear`, `cache_corrupt`,
    /// `flush_fail`); `None` runs clean.
    pub faults: Option<FaultPlan>,
    /// Durable-state directory (job journal + result-cache spill).
    /// `None` runs fully in-memory, exactly as before this layer
    /// existed. With a directory, a restarted daemon replays the
    /// journal (re-enqueueing unfinished jobs and rebuilding tenant
    /// quota state) and reloads the spilled cache, so warm restarts
    /// serve byte-identical cached replies without re-simulating.
    pub data_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            default_quota: 8,
            max_attempts: 3,
            faults: None,
            data_dir: None,
        }
    }
}

/// The deterministic chaos plan used by CI and the fault campaign tests:
/// every second worker pickup dies, every third cache store is dropped.
/// `queue_full` stays off (backpressure is exercised by actually filling
/// the queue). Seed 0 means no faults.
pub fn chaos_plan(seed: u64) -> Option<FaultPlan> {
    (seed != 0).then(|| {
        FaultPlan::quiet()
            .with(FaultPoint::WorkerKill, PointPlan::transient(2, 1))
            .with(FaultPoint::CacheDrop, PointPlan::transient(3, 1))
    })
}

/// Extends `base` with one of the deterministic persistence fault
/// plans the crash matrix drives: `"journal"` tears every third journal
/// frame and skips every second flush; `"cache"` corrupts every second
/// spilled cache frame and skips every third flush. `"none"` (or any
/// other string) leaves `base` untouched. All damage is at-rest only —
/// replies must stay byte-identical, the faults just force replay and
/// recompute work after a restart.
pub fn persist_chaos_plan(kind: &str, base: Option<FaultPlan>) -> Option<FaultPlan> {
    let base_plan = || base.clone().unwrap_or_else(FaultPlan::quiet);
    match kind {
        "journal" => Some(
            base_plan()
                .with(FaultPoint::JournalTear, PointPlan::transient(3, 1))
                .with(FaultPoint::FlushFail, PointPlan::transient(2, 1)),
        ),
        "cache" => Some(
            base_plan()
                .with(FaultPoint::CacheCorrupt, PointPlan::transient(2, 1))
                .with(FaultPoint::FlushFail, PointPlan::transient(3, 1)),
        ),
        _ => base,
    }
}

/// Per-job progress event, retained for streaming and `wait` replay.
struct JobEvent {
    state: &'static str,
    attempt: u32,
    /// Rendered `service.*` snapshot at the moment of the event — the
    /// metrics registry is the source of streamed progress.
    metrics: String,
}

enum JobState {
    Queued,
    Running,
    Done { payload: Arc<String>, cached: bool },
    Failed { message: String },
}

struct Job {
    tenant: String,
    spec: JobSpec,
    priority: usize,
    attempts: u32,
    state: JobState,
    events: Vec<JobEvent>,
}

#[derive(Default)]
struct Tenant {
    quota: usize,
    outstanding: usize,
    submitted: u64,
    completed: u64,
    rejected: u64,
}

/// One result-cache slot. `warm` marks entries loaded from the disk
/// spill at boot (first hit on one counts as a warm-restart hit).
struct CacheEntry {
    payload: Arc<String>,
    warm: bool,
}

/// Everything the connection and worker threads share.
struct ServiceInner {
    cfg: ServiceConfig,
    /// Queued job ids, one FIFO per priority class; workers drain 0
    /// first. Admission enforces `queue_capacity` under this lock, and
    /// idle workers park on `queue_cv` until a job is queued or the
    /// server stops.
    queue: Mutex<[VecDeque<u64>; PRIORITIES]>,
    queue_cv: Condvar,
    /// Job table indexed by `job_id - 1`; `job_cv` wakes streamers on
    /// any job-state change.
    jobs: Mutex<Vec<Job>>,
    job_cv: Condvar,
    /// Result cache: canonical spec JSON → rendered payload bytes.
    cache: Mutex<HashMap<String, CacheEntry>>,
    tenants: Mutex<BTreeMap<String, Tenant>>,
    stats: ServiceStats,
    faults: Option<FaultInjector>,
    /// Write-ahead job journal (None without a `data_dir`).
    journal: Option<Mutex<Journal>>,
    /// Result-cache spill file (None without a `data_dir`).
    spill: Option<Mutex<CacheSpill>>,
    /// Graceful drain in progress: admission refuses, in-flight jobs
    /// finish, and whichever of them becomes terminal last stops the
    /// server.
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// Chrome-trace spans (one per job completion), stamped in host
    /// microseconds since boot.
    trace: Mutex<Vec<TraceEvent>>,
    started: Instant,
}

/// What `submit` admission decided.
enum Admission {
    Accepted(u64),
    Rejected {
        reason: &'static str,
        detail: String,
    },
}

impl ServiceInner {
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn rendered_stats(&self) -> String {
        self.stats.snapshot().to_json("")
    }

    /// The full metrics document for `stats` replies: the schema-stable
    /// `service.*` aggregates plus dynamic per-tenant counters (never
    /// part of the golden schema).
    fn stats_with_tenants(&self) -> MetricsSnapshot {
        let mut sink = MetricSink::new();
        sink.source("service", &self.stats);
        for (name, t) in self.tenants.lock().unwrap().iter() {
            let k = |field: &str| format!("service.tenant.{name}.{field}");
            sink.u64(&k("quota"), t.quota as u64);
            sink.u64(&k("outstanding"), t.outstanding as u64);
            sink.u64(&k("submitted"), t.submitted);
            sink.u64(&k("completed"), t.completed);
            sink.u64(&k("rejected"), t.rejected);
        }
        sink.finish()
    }

    fn roll(&self, point: FaultPoint) -> bool {
        self.faults
            .as_ref()
            .map(|inj| inj.should_fail(point))
            .unwrap_or(false)
    }

    /// Appends a progress event to a job (caller holds the jobs lock).
    fn push_event(job: &mut Job, state: &'static str, metrics: String) {
        let attempt = job.attempts;
        job.events.push(JobEvent {
            state,
            attempt,
            metrics,
        });
    }

    /// Decrements a tenant's outstanding count (job reached a terminal
    /// state or was served from cache at admission).
    fn release_tenant(&self, tenant: &str, completed: bool) {
        let mut tenants = self.tenants.lock().unwrap();
        if let Some(t) = tenants.get_mut(tenant) {
            t.outstanding = t.outstanding.saturating_sub(1);
            if completed {
                t.completed += 1;
            }
        }
    }

    /// Appends one record to the job journal (no-op without a
    /// `data_dir`), surfacing skipped flushes in the metrics.
    fn journal_append(&self, record: &JournalRecord) {
        if let Some(journal) = &self.journal {
            let out = journal.lock().unwrap().append(record, self.faults.as_ref());
            self.stats.inc(&self.stats.journal_appended);
            if out.flush_skipped {
                self.stats.inc(&self.stats.flush_fails);
            }
        }
    }

    /// The admission path: validate, check drain state, check quota,
    /// consult the cache, roll the `queue_full` fault, journal, enqueue.
    fn admit(&self, tenant_name: &str, spec: JobSpec, priority: usize, fresh: bool) -> Admission {
        // Draining servers admit nothing: the client's retry layer
        // treats this reply as transient and resubmits elsewhere/later.
        if self.draining.load(Ordering::SeqCst) {
            self.stats.inc(&self.stats.drain_rejected_submits);
            return Admission::Rejected {
                reason: "draining",
                detail: "server is draining; resubmit after restart".to_string(),
            };
        }

        // Reject jobs naming no known workload before they consume
        // quota. `is_litmus` is seed-parse-strict (a malformed
        // `litmus:`/`litmus+vm:` seed makes it false), so this one check
        // also covers bad litmus workloads.
        let known = spec.is_litmus() || tmi_workloads::by_name(&spec.workload).is_some();
        if !known {
            self.stats.inc(&self.stats.reject_bad_request);
            self.note_tenant_reject(tenant_name);
            return Admission::Rejected {
                reason: "bad_request",
                detail: format!("unknown workload {:?}", spec.workload),
            };
        }

        // Quota: reserve an outstanding slot under the tenants lock.
        {
            let mut tenants = self.tenants.lock().unwrap();
            let t = tenants.entry(tenant_name.to_string()).or_insert_with(|| {
                self.stats.inc(&self.stats.tenants);
                Tenant {
                    quota: self.cfg.default_quota,
                    ..Tenant::default()
                }
            });
            if t.outstanding >= t.quota {
                t.rejected += 1;
                self.stats.inc(&self.stats.reject_quota);
                return Admission::Rejected {
                    reason: "quota_exceeded",
                    detail: format!(
                        "tenant {tenant_name:?} has {} outstanding jobs (quota {})",
                        t.outstanding, t.quota
                    ),
                };
            }
            t.outstanding += 1;
        }

        let cache_key = spec.to_json();
        if !fresh {
            let hit = {
                let cache = self.cache.lock().unwrap();
                cache
                    .get(&cache_key)
                    .map(|e| (Arc::clone(&e.payload), e.warm))
            };
            if let Some((payload, warm)) = hit {
                // Served straight from the cache: the job is born Done
                // and never touches the queue or the workers. A `warm`
                // entry came off disk — this hit is the restart saving
                // a re-simulation.
                if warm {
                    self.stats.inc(&self.stats.cache_warm_hits);
                }
                self.stats.inc(&self.stats.cache_hits);
                self.stats.inc(&self.stats.jobs_submitted);
                self.stats.inc(&self.stats.jobs_completed);
                self.release_tenant(tenant_name, true);
                if let Some(t) = self.tenants.lock().unwrap().get_mut(tenant_name) {
                    t.submitted += 1;
                }
                let done = JobState::Done {
                    payload,
                    cached: true,
                };
                return Admission::Accepted(self.new_job(tenant_name, spec, priority, done));
            }
        }
        self.stats.inc(&self.stats.cache_misses);

        // The queue_full fault point models load-shedding under
        // admission pressure: a firing sheds this request even though
        // the queue has room.
        if self.roll(FaultPoint::QueueFull) {
            self.stats.inc(&self.stats.reject_queue_full);
            self.release_tenant(tenant_name, false);
            self.note_tenant_reject(tenant_name);
            return Admission::Rejected {
                reason: "queue_full",
                detail: "admission shed by the queue_full fault point".to_string(),
            };
        }

        // Create the job, then queue its id on its priority class.
        let id = self.new_job(tenant_name, spec.clone(), priority, JobState::Queued);
        // Write-ahead: the accepted record hits the journal before the
        // job can run (or the accepted reply can flush), so a crash
        // from here on leaves a record to replay. A queue-full rejection
        // below lands a terminal `failed` record after it.
        self.journal_append(&JournalRecord::Accepted {
            id,
            tenant: tenant_name.to_string(),
            priority,
            spec,
        });
        if !self.enqueue(id, priority) {
            // Class full: true backpressure. The job record stays as a
            // tombstone so its id never re-enters circulation.
            self.fail_job(id, "rejected at admission: queue full".to_string());
            self.stats.inc(&self.stats.reject_queue_full);
            self.note_tenant_reject(tenant_name);
            return Admission::Rejected {
                reason: "queue_full",
                detail: format!(
                    "priority-{priority} queue at capacity {}",
                    self.cfg.queue_capacity
                ),
            };
        }
        self.stats.inc(&self.stats.jobs_submitted);
        if let Some(t) = self.tenants.lock().unwrap().get_mut(tenant_name) {
            t.submitted += 1;
        }
        Admission::Accepted(id)
    }

    /// Appends a job born in `state` — `Queued`, or `Done` from the
    /// cache — with its first progress event, and returns its id.
    /// Admission and journal replay both create jobs here.
    fn new_job(&self, tenant: &str, spec: JobSpec, priority: usize, state: JobState) -> u64 {
        let event = match state {
            JobState::Queued => "queued",
            _ => "done",
        };
        let snapshot = self.rendered_stats();
        let mut jobs = self.jobs.lock().unwrap();
        let mut job = Job {
            tenant: tenant.to_string(),
            spec,
            priority,
            attempts: 0,
            state,
            events: Vec::new(),
        };
        Self::push_event(&mut job, event, snapshot);
        jobs.push(job);
        self.job_cv.notify_all();
        jobs.len() as u64
    }

    /// Queues `id` on its priority class and wakes one idle worker, or
    /// returns false if the class already holds `queue_capacity` jobs.
    fn enqueue(&self, id: u64, priority: usize) -> bool {
        let mut queue = self.queue.lock().unwrap();
        let class = &mut queue[priority];
        if class.len() >= self.cfg.queue_capacity {
            return false;
        }
        class.push_back(id);
        self.stats.note_queue_depth(class.len() as u64);
        self.queue_cv.notify_one();
        true
    }

    fn note_tenant_reject(&self, tenant: &str) {
        if let Some(t) = self.tenants.lock().unwrap().get_mut(tenant) {
            t.rejected += 1;
        }
    }

    /// Moves a job to `Failed` and releases its tenant slot.
    fn fail_job(&self, id: u64, message: String) {
        self.journal_append(&JournalRecord::Failed { id });
        self.stats.inc(&self.stats.jobs_failed);
        let snapshot = self.rendered_stats();
        let tenant;
        {
            let mut jobs = self.jobs.lock().unwrap();
            let job = &mut jobs[id as usize - 1];
            tenant = job.tenant.clone();
            job.state = JobState::Failed {
                message: message.clone(),
            };
            Self::push_event(job, "failed", snapshot);
        }
        self.release_tenant(&tenant, false);
        self.job_cv.notify_all();
        self.finish_drain_if_idle();
    }

    /// Moves a job to `Done`, stores the payload in the result cache
    /// (unless `cache_drop` fires), emits the job's trace span, and
    /// releases the tenant slot.
    fn complete_job(&self, id: u64, payload: String, span_start_us: u64, worker: u64) {
        let payload = Arc::new(payload);
        let (cache_key, tenant, priority, attempts);
        {
            let jobs = self.jobs.lock().unwrap();
            let job = &jobs[id as usize - 1];
            cache_key = job.spec.to_json();
            tenant = job.tenant.clone();
            priority = job.priority;
            attempts = job.attempts;
        }
        if self.roll(FaultPoint::CacheDrop) {
            self.stats.inc(&self.stats.cache_drops);
        } else {
            if let Some(spill) = &self.spill {
                let out = spill
                    .lock()
                    .unwrap()
                    .store(&cache_key, &payload, self.faults.as_ref());
                self.stats.inc(&self.stats.cache_stores);
                if out.flush_skipped {
                    self.stats.inc(&self.stats.flush_fails);
                }
            }
            self.cache.lock().unwrap().insert(
                cache_key,
                CacheEntry {
                    payload: Arc::clone(&payload),
                    warm: false,
                },
            );
        }
        self.journal_append(&JournalRecord::Done { id });
        self.stats.inc(&self.stats.jobs_completed);
        self.release_tenant(&tenant, true);
        let snapshot = self.rendered_stats();
        {
            let mut jobs = self.jobs.lock().unwrap();
            let job = &mut jobs[id as usize - 1];
            job.state = JobState::Done {
                payload,
                cached: false,
            };
            Self::push_event(job, "done", snapshot);
        }
        let end = self.now_us();
        self.trace.lock().unwrap().push(TraceEvent {
            name: "service.job",
            cat: "service",
            tid: worker,
            cycle: span_start_us,
            kind: EventKind::Complete {
                dur_cycles: end.saturating_sub(span_start_us),
            },
            args: vec![
                ("job_id", id),
                ("attempt", attempts as u64),
                ("priority", priority as u64),
            ],
        });
        self.job_cv.notify_all();
        self.finish_drain_if_idle();
    }

    /// Blocks until a job is queued and pops the highest-priority one,
    /// or returns `None` once the server stops.
    fn next_job(&self) -> Option<u64> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(id) = queue.iter_mut().find_map(VecDeque::pop_front) {
                return Some(id);
            }
            queue = self.queue_cv.wait(queue).unwrap();
        }
    }

    /// Stops the server: idle workers wake and exit, busy ones exit
    /// after their current job, and the accept loop returns.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Notifying under the queue lock means a worker has either not
        // yet checked the flag or is already parked on the condvar.
        let _queue = self.queue.lock().unwrap();
        self.queue_cv.notify_all();
        self.job_cv.notify_all();
    }

    /// Flips the server into drain mode (idempotent): admission starts
    /// refusing, and the server stops once every admitted job has
    /// reached a terminal state — at once if none is in flight.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.stats.inc(&self.stats.drain_requests);
        }
        self.finish_drain_if_idle();
    }

    /// Completes a drain once every job is terminal: flushes durable
    /// state and stops the server. Runs when the drain begins and each
    /// time a job becomes terminal, so one of them sees the last job
    /// finish.
    fn finish_drain_if_idle(&self) {
        if !self.draining.load(Ordering::SeqCst) {
            return;
        }
        let idle = self
            .jobs
            .lock()
            .unwrap()
            .iter()
            .all(|j| matches!(j.state, JobState::Done { .. } | JobState::Failed { .. }));
        if idle {
            self.flush_durable();
            self.stop();
        }
    }

    /// Final durability flush on the drain path (best-effort — replay
    /// recovers anything a failed flush loses).
    fn flush_durable(&self) {
        if let Some(journal) = &self.journal {
            let _ = journal.lock().unwrap().sync();
        }
        if let Some(spill) = &self.spill {
            let _ = spill.lock().unwrap().sync();
        }
    }

    /// One worker thread: runs queued jobs until the server stops. A
    /// `worker_kill` firing abandons the attempt before any work is
    /// done — the job is requeued (or failed on its last attempt) and
    /// the worker carries on with the next pickup.
    fn worker_loop(&self, worker: u64) {
        while let Some(id) = self.next_job() {
            let span_start = self.now_us();
            let spec = {
                let snapshot = self.rendered_stats();
                let mut jobs = self.jobs.lock().unwrap();
                let job = &mut jobs[id as usize - 1];
                job.attempts += 1;
                job.state = JobState::Running;
                Self::push_event(job, "running", snapshot);
                job.spec.clone()
            };
            self.job_cv.notify_all();

            // The kill point sits between pickup and compute, so a
            // killed attempt has observably done no work — the retry
            // simulates from scratch and must produce the same bytes.
            if self.roll(FaultPoint::WorkerKill) {
                self.stats.inc(&self.stats.worker_kills);
                let mut jobs = self.jobs.lock().unwrap();
                let job = &mut jobs[id as usize - 1];
                // Requeue under the jobs lock: the job reads Queued before
                // the next worker can pick it up and mark it Running.
                if job.attempts < self.cfg.max_attempts && self.enqueue(id, job.priority) {
                    self.stats.inc(&self.stats.jobs_retried);
                    job.state = JobState::Queued;
                    Self::push_event(job, "retrying", self.rendered_stats());
                    drop(jobs);
                    self.job_cv.notify_all();
                } else {
                    let attempts = job.attempts;
                    drop(jobs);
                    self.fail_job(id, format!("worker killed on final attempt {attempts}"));
                }
                continue;
            }

            let computed = catch_unwind(AssertUnwindSafe(|| {
                if spec.is_litmus() {
                    tmi_bench::check_spec(&spec).map(|report| proto::litmus_payload(&spec, &report))
                } else {
                    let r = execute_spec(&spec, &Tracer::disabled());
                    Ok(proto::run_payload(&spec, &r))
                }
            }));
            match computed {
                Ok(Ok(payload)) => self.complete_job(id, payload, span_start, worker),
                Ok(Err(e)) => self.fail_job(id, e),
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "job panicked".to_string());
                    self.fail_job(id, format!("job panicked: {msg}"));
                }
            }
        }
    }

    /// Streams a job's progress events and final line to `out`.
    /// `stream` = false skips progress and writes only the final line.
    fn stream_job(&self, id: u64, stream: bool, out: &mut TcpStream) -> std::io::Result<()> {
        let mut next_event = 0usize;
        loop {
            // Collect under the lock, write outside it.
            let (batch, terminal) = {
                let jobs = self.jobs.lock().unwrap();
                let Some(job) = jobs.get(id as usize - 1) else {
                    return writeln!(out, "{}", proto::error(&format!("unknown job id {id}")));
                };
                let batch: Vec<String> = if stream {
                    job.events[next_event..]
                        .iter()
                        .map(|e| proto::progress(id, e.state, e.attempt, &e.metrics))
                        .collect()
                } else {
                    Vec::new()
                };
                next_event = job.events.len();
                let terminal = match &job.state {
                    JobState::Done { payload, cached } => {
                        Some(proto::result(id, *cached, job.attempts.max(1), payload))
                    }
                    JobState::Failed { message } => Some(proto::job_error(id, message)),
                    _ => None,
                };
                (batch, terminal)
            };
            for line in &batch {
                writeln!(out, "{line}")?;
            }
            if let Some(line) = terminal {
                return writeln!(out, "{line}");
            }
            let guard = self.jobs.lock().unwrap();
            let _ = self
                .job_cv
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap();
        }
    }

    /// One connection: read request lines, write reply lines. Malformed
    /// lines get an `error` reply and the connection stays open.
    fn serve_connection(self: &Arc<Self>, stream: TcpStream) {
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { return };
            if line.trim().is_empty() {
                continue;
            }
            let req = match proto::parse_request(&line) {
                Ok(req) => req,
                Err(e) => {
                    self.stats.inc(&self.stats.malformed_requests);
                    if writeln!(writer, "{}", proto::error(&e)).is_err() {
                        return;
                    }
                    continue;
                }
            };
            let io = match req {
                Request::Submit {
                    tenant,
                    job,
                    priority,
                    fresh,
                    stream,
                } => match self.admit(&tenant, job, priority, fresh) {
                    Admission::Accepted(id) => writeln!(writer, "{}", proto::accepted(id))
                        .and_then(|()| {
                            if stream {
                                self.stream_job(id, true, &mut writer)
                            } else {
                                Ok(())
                            }
                        }),
                    Admission::Rejected { reason, detail } => {
                        writeln!(writer, "{}", proto::rejected(reason, &detail))
                    }
                },
                Request::Wait { job_id, stream } => {
                    let known = job_id >= 1 && (job_id as usize) <= self.jobs.lock().unwrap().len();
                    if known {
                        self.stream_job(job_id, stream, &mut writer)
                    } else {
                        writeln!(
                            writer,
                            "{}",
                            proto::error(&format!("unknown job id {job_id}"))
                        )
                    }
                }
                Request::Stats => writeln!(
                    writer,
                    "{}",
                    proto::stats_reply(&self.stats_with_tenants().to_json(""))
                ),
                Request::Drain => {
                    self.begin_drain();
                    writeln!(writer, "{}", proto::ok())
                }
                Request::Shutdown => {
                    let io = writeln!(writer, "{}", proto::ok());
                    self.stop();
                    return io.unwrap_or(());
                }
            };
            if io.is_err() {
                return;
            }
        }
    }
}

/// Final report from a stopped service: the boot-to-shutdown stats and
/// the Chrome trace of every completed job.
pub struct ServiceReport {
    /// `service.*` aggregates at shutdown.
    pub metrics: MetricsSnapshot,
    /// Chrome `trace_event` JSON (one `service.job` span per computed
    /// job, microsecond timestamps).
    pub chrome_trace: String,
}

/// A running job server. Dropping the handle does not stop the server;
/// send a `shutdown` request (e.g. [`crate::Client::shutdown`]) and then
/// call [`Service::wait`].
pub struct Service {
    inner: Arc<ServiceInner>,
    addr: std::net::SocketAddr,
    listener: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Binds, spawns the worker pool and accept loop, and returns once
    /// the server is reachable.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Service> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let workers = cfg.workers;

        // Crash recovery, step 1: reload durable state before anything
        // can execute. The cache spill comes back warm; the journal is
        // replayed (torn tail skipped) and compacted down to just the
        // unfinished jobs, renumbered under this boot's ids 1..k.
        let mut journal = None;
        let mut spill = None;
        let mut warm_cache: Vec<(String, Arc<String>)> = Vec::new();
        let mut recovery: Option<crate::journal::Replay> = None;
        let mut loaded_corrupt = 0u64;
        if let Some(dir) = &cfg.data_dir {
            std::fs::create_dir_all(dir)?;
            let journal_path = dir.join("journal.log");
            let spill_path = dir.join("cache.log");
            let load = CacheSpill::load(&spill_path)?;
            loaded_corrupt = load.corrupt_dropped + u64::from(load.torn);
            warm_cache = load.entries;
            let replay = Journal::replay(&journal_path)?;
            let renumbered: Vec<JournalRecord> = replay
                .unfinished
                .iter()
                .enumerate()
                .map(|(i, rec)| match rec {
                    JournalRecord::Accepted {
                        tenant,
                        priority,
                        spec,
                        ..
                    } => JournalRecord::Accepted {
                        id: i as u64 + 1,
                        tenant: tenant.clone(),
                        priority: *priority,
                        spec: spec.clone(),
                    },
                    other => other.clone(),
                })
                .collect();
            Journal::compact(&journal_path, &renumbered)?;
            journal = Some(Mutex::new(Journal::open(&journal_path)?));
            spill = Some(Mutex::new(CacheSpill::open(&spill_path)?));
            recovery = Some(replay);
        }

        let inner = Arc::new(ServiceInner {
            faults: cfg.faults.clone().map(FaultInjector::new),
            queue: Mutex::new(Default::default()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(Vec::new()),
            job_cv: Condvar::new(),
            cache: Mutex::new(HashMap::new()),
            tenants: Mutex::new(BTreeMap::new()),
            stats: ServiceStats::default(),
            journal,
            spill,
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
            started: Instant::now(),
            cfg,
        });

        // Crash recovery, step 2: publish the recovered state. Warm
        // cache entries answer admission hits without re-simulating;
        // unfinished jobs are re-created (under their compacted ids)
        // and re-enqueued so each re-executes exactly once; tenant
        // accounting picks up where the dead process left off.
        for (key, payload) in warm_cache {
            inner.stats.inc(&inner.stats.cache_loaded);
            inner.cache.lock().unwrap().insert(
                key,
                CacheEntry {
                    payload,
                    warm: true,
                },
            );
        }
        for _ in 0..loaded_corrupt {
            inner.stats.inc(&inner.stats.cache_corrupt_dropped);
        }
        if let Some(replay) = recovery {
            inner.stats.inc(&inner.stats.journal_compactions);
            for _ in 0..replay.records {
                inner.stats.inc(&inner.stats.journal_replayed);
            }
            for _ in 0..replay.skipped {
                inner.stats.inc(&inner.stats.journal_torn_skipped);
            }
            for (name, submitted, completed) in replay.tenants {
                inner.stats.inc(&inner.stats.tenants);
                inner.tenants.lock().unwrap().insert(
                    name,
                    Tenant {
                        quota: inner.cfg.default_quota,
                        outstanding: 0,
                        submitted,
                        completed,
                        rejected: 0,
                    },
                );
            }
            for rec in replay.unfinished {
                let JournalRecord::Accepted {
                    tenant,
                    priority,
                    spec,
                    ..
                } = rec
                else {
                    continue;
                };
                let priority = priority.min(PRIORITIES - 1);
                inner.stats.inc(&inner.stats.jobs_submitted);

                // If the job's payload survived in the spilled cache
                // (its `done` journal record was torn but the result
                // store landed), it is born Done from the warm entry —
                // re-simulating would be pure waste. Otherwise it
                // re-enqueues and re-executes exactly once.
                let warm_payload = {
                    let cache = inner.cache.lock().unwrap();
                    cache.get(&spec.to_json()).map(|e| Arc::clone(&e.payload))
                };
                if let Some(payload) = warm_payload {
                    inner.stats.inc(&inner.stats.cache_hits);
                    inner.stats.inc(&inner.stats.cache_warm_hits);
                    inner.stats.inc(&inner.stats.jobs_completed);
                    if let Some(t) = inner.tenants.lock().unwrap().get_mut(&tenant) {
                        t.completed += 1;
                    }
                    let done = JobState::Done {
                        payload,
                        cached: true,
                    };
                    let id = inner.new_job(&tenant, spec, priority, done);
                    inner.journal_append(&JournalRecord::Done { id });
                    continue;
                }

                let id = inner.new_job(&tenant, spec, priority, JobState::Queued);
                if let Some(t) = inner.tenants.lock().unwrap().get_mut(&tenant) {
                    t.outstanding += 1;
                }
                if !inner.enqueue(id, priority) {
                    inner.fail_job(id, "recovery re-enqueue: queue full".to_string());
                }
            }
        }

        let workers = (0..workers as u64)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tmi-service-worker-{idx}"))
                    .spawn(move || inner.worker_loop(idx))
                    .expect("spawn worker")
            })
            .collect();

        // Accept loop: nonblocking so it can notice shutdown promptly.
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("tmi-service-accept".to_string())
                .spawn(move || loop {
                    if inner.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nodelay(true);
                            let inner = Arc::clone(&inner);
                            let _ = std::thread::Builder::new()
                                .name("tmi-service-conn".to_string())
                                .spawn(move || inner.serve_connection(stream));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => return,
                    }
                })
                .expect("spawn accept loop")
        };

        Ok(Service {
            inner,
            addr,
            listener: accept,
            workers,
        })
    }

    /// The bound address (use this when the config asked for port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// A live `service.*` snapshot (aggregates only).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Begins a graceful drain without a client connection (the signal
    /// handlers in `tmi_serve` use this): admission starts refusing
    /// with `draining` replies, in-flight jobs finish, durable state is
    /// flushed, then the server stops and [`Service::wait`] returns.
    pub fn begin_drain(&self) {
        self.inner.begin_drain();
    }

    /// Whether the server has fully stopped (drain finished or
    /// shutdown requested) — pollable without consuming the handle.
    pub fn is_stopped(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without a client connection (tests/embedders).
    pub fn shutdown_now(&self) {
        self.inner.stop();
    }

    /// Blocks until the server has shut down (a client sent `shutdown`
    /// or `drain`, [`Service::shutdown_now`] or [`Service::begin_drain`]
    /// was called), joins the accept loop and every worker, and returns
    /// the final report.
    pub fn wait(self) -> ServiceReport {
        let _ = self.listener.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        let metrics = self.inner.stats.snapshot();
        let events = self.inner.trace.lock().unwrap();
        // clock_hz = 1e6 maps the host-microsecond stamps 1:1 onto the
        // trace format's microsecond timeline.
        let chrome_trace =
            chrome::export_trace(&events, &PhaseProfile::new(), 1_000_000, Some(&metrics));
        ServiceReport {
            metrics,
            chrome_trace,
        }
    }
}

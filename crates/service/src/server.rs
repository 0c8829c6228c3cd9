//! The job server.
//!
//! One [`Service`] owns a TCP listener, a fixed worker pool that runs
//! jobs straight through the harness ([`execute_spec`]), one locked FIFO
//! admission queue, and a result cache keyed on the canonical
//! [`JobSpec`] JSON.
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

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tmi_bench::harness::execute_spec;
use tmi_bench::JobSpec;
use tmi_faultpoint::{FaultInjector, FaultPlan, FaultPoint, PointPlan};
use tmi_telemetry::{MetricsSnapshot, Tracer};

use crate::journal::{Journal, JournalRecord};
use crate::persist::CacheSpill;
use crate::proto::{self, Request};
use crate::stats::ServiceStats;

/// Jobs the admission queue holds at once, exactly; the next submission
/// that must compute gets a `queue_full` rejection.
pub const QUEUE_CAPACITY: usize = 64;

/// Total attempts a job gets before it fails; attempts beyond the first
/// happen only when a `worker_kill` firing abandons one.
pub const MAX_ATTEMPTS: u32 = 3;

/// Server deployment settings.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks a free port (read it back with
    /// [`Service::addr`]).
    pub addr: String,
    /// Worker pool size. 0 runs the server admission-only — jobs queue
    /// but never execute (the backpressure tests use this to fill the
    /// queue deterministically).
    pub workers: usize,
    /// Fault plan for the service fault points (`worker_kill`,
    /// `cache_drop`, `journal_tear`, `cache_corrupt`, `flush_fail`);
    /// `None` runs clean.
    pub faults: Option<FaultPlan>,
    /// Durable-state directory (job journal + result-cache spill).
    /// `None` runs fully in-memory. With a directory, a restarted daemon
    /// replays the journal (re-enqueueing unfinished jobs) and reloads
    /// the spilled cache, so warm restarts serve byte-identical cached
    /// replies without re-simulating.
    pub data_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            faults: None,
            data_dir: None,
        }
    }
}

/// The deterministic chaos plan used by CI and the fault campaign tests:
/// every second worker pickup dies, every third cache store is dropped.
/// Seed 0 means no faults.
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

/// A job is `Pending` (queued or running) until it reaches a terminal
/// state.
enum JobState {
    Pending,
    Done { payload: Arc<String>, cached: bool },
    Failed { message: String },
}

struct Job {
    spec: JobSpec,
    attempts: u32,
    state: JobState,
}

/// One result-cache slot. `warm` marks entries loaded from the disk
/// spill at boot (first hit on one counts as a warm-restart hit).
struct CacheEntry {
    payload: Arc<String>,
    warm: bool,
}

/// Everything the connection and worker threads share.
struct ServiceInner {
    faults: Option<FaultInjector>,
    /// Queued job ids, oldest first. Admission enforces
    /// [`QUEUE_CAPACITY`] under this lock, and idle workers park on
    /// `queue_cv` until a job is queued or the server stops.
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    /// Job table indexed by `job_id - 1`; `job_cv` wakes connections
    /// waiting on a job when any job reaches a terminal state or the
    /// server stops.
    jobs: Mutex<Vec<Job>>,
    job_cv: Condvar,
    /// Result cache: canonical spec JSON → rendered payload bytes.
    cache: Mutex<HashMap<String, CacheEntry>>,
    stats: ServiceStats,
    /// Write-ahead job journal (None without a `data_dir`).
    journal: Option<Mutex<Journal>>,
    /// Result-cache spill file (None without a `data_dir`).
    spill: Option<Mutex<CacheSpill>>,
    /// Graceful drain in progress: admission refuses, in-flight jobs
    /// finish, and whichever of them becomes terminal last stops the
    /// server.
    draining: AtomicBool,
    shutdown: AtomicBool,
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
    fn roll(&self, point: FaultPoint) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|inj| inj.should_fail(point))
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

    /// The admission path: check drain state, validate, consult the
    /// cache, journal, enqueue.
    fn admit(&self, spec: Result<JobSpec, String>, fresh: bool) -> Admission {
        // Draining servers admit nothing: the client's retry layer
        // treats this reply as transient and resubmits elsewhere/later.
        if self.draining.load(Ordering::SeqCst) {
            self.stats.inc(&self.stats.drain_rejected_submits);
            return Admission::Rejected {
                reason: "draining",
                detail: "server is draining; resubmit after restart".to_string(),
            };
        }

        // Reject jobs the decoder refused or naming no known workload;
        // `is_litmus` is seed-parse-strict, so a malformed `litmus:` or
        // `litmus+vm:` seed counts as unknown.
        let spec = match spec {
            Ok(s) if s.is_litmus() || tmi_workloads::by_name(&s.workload).is_some() => s,
            e => {
                self.stats.inc(&self.stats.reject_bad_request);
                return Admission::Rejected {
                    reason: "bad_request",
                    detail: e.map_or_else(|e| e, |s| format!("unknown workload {:?}", s.workload)),
                };
            }
        };

        if !fresh {
            if let Some(id) = self.serve_cached(&spec) {
                return Admission::Accepted(id);
            }
        }
        self.stats.inc(&self.stats.cache_misses);

        let id = self.new_job(spec.clone(), JobState::Pending);
        // Write-ahead: the accepted record hits the journal before the
        // job can run (or the accepted reply can flush), so a crash
        // from here on leaves a record to replay. A queue-full rejection
        // below lands a terminal `failed` record after it.
        self.journal_append(&JournalRecord::Accepted { id, spec });
        if !self.enqueue(id) {
            // Queue full: true backpressure. The job record stays as a
            // tombstone so its id never re-enters circulation.
            self.fail_job(id, "rejected at admission: queue full".to_string());
            self.stats.inc(&self.stats.reject_queue_full);
            return Admission::Rejected {
                reason: "queue_full",
                detail: format!("queue at capacity {QUEUE_CAPACITY}"),
            };
        }
        self.stats.inc(&self.stats.jobs_submitted);
        Admission::Accepted(id)
    }

    /// Answers `spec` from the result cache if it holds the payload: the
    /// job is born Done and never touches the queue or the workers.
    /// Returns its id, or `None` on a miss.
    fn serve_cached(&self, spec: &JobSpec) -> Option<u64> {
        let (payload, warm) = {
            let cache = self.cache.lock().unwrap();
            let entry = cache.get(&spec.to_json())?;
            (Arc::clone(&entry.payload), entry.warm)
        };
        // A `warm` entry came off disk — this hit is the restart saving
        // a re-simulation.
        if warm {
            self.stats.inc(&self.stats.cache_warm_hits);
        }
        self.stats.inc(&self.stats.cache_hits);
        self.stats.inc(&self.stats.jobs_submitted);
        self.stats.inc(&self.stats.jobs_completed);
        let done = JobState::Done {
            payload,
            cached: true,
        };
        Some(self.new_job(spec.clone(), done))
    }

    /// Appends a job born in `state` — `Pending`, or `Done` from the
    /// cache — and returns its id. Admission and journal replay both
    /// create jobs here.
    fn new_job(&self, spec: JobSpec, state: JobState) -> u64 {
        let mut jobs = self.jobs.lock().unwrap();
        jobs.push(Job {
            spec,
            attempts: 0,
            state,
        });
        jobs.len() as u64
    }

    /// Queues `id` and wakes one idle worker, or returns false if the
    /// queue already holds [`QUEUE_CAPACITY`] jobs.
    fn enqueue(&self, id: u64) -> bool {
        let mut queue = self.queue.lock().unwrap();
        if queue.len() >= QUEUE_CAPACITY {
            return false;
        }
        queue.push_back(id);
        self.stats.note_queue_depth(queue.len() as u64);
        self.queue_cv.notify_one();
        true
    }

    /// Moves a job to `Failed`.
    fn fail_job(&self, id: u64, message: String) {
        self.journal_append(&JournalRecord::Failed { id });
        self.stats.inc(&self.stats.jobs_failed);
        self.jobs.lock().unwrap()[id as usize - 1].state = JobState::Failed { message };
        self.job_cv.notify_all();
        self.finish_drain_if_idle();
    }

    /// Moves a job to `Done` and stores the payload in the result cache
    /// (unless `cache_drop` fires).
    fn complete_job(&self, id: u64, payload: String) {
        let payload = Arc::new(payload);
        let cache_key = self.jobs.lock().unwrap()[id as usize - 1].spec.to_json();
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
        self.jobs.lock().unwrap()[id as usize - 1].state = JobState::Done {
            payload,
            cached: false,
        };
        self.job_cv.notify_all();
        self.finish_drain_if_idle();
    }

    /// Blocks until a job is queued and pops the oldest, or returns
    /// `None` once the server stops.
    fn next_job(&self) -> Option<u64> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(id) = queue.pop_front() {
                return Some(id);
            }
            queue = self.queue_cv.wait(queue).unwrap();
        }
    }

    /// Stops the server: idle workers wake and exit, busy ones exit
    /// after their current job, connections waiting on a job return,
    /// and the accept loop returns.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Passing through each lock before notifying means a waiter has
        // either not yet checked the flag or is already parked.
        drop(self.queue.lock().unwrap());
        self.queue_cv.notify_all();
        drop(self.jobs.lock().unwrap());
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
    fn worker_loop(&self) {
        while let Some(id) = self.next_job() {
            let (spec, attempts) = {
                let mut jobs = self.jobs.lock().unwrap();
                let job = &mut jobs[id as usize - 1];
                job.attempts += 1;
                (job.spec.clone(), job.attempts)
            };

            // The kill point sits between pickup and compute, so a
            // killed attempt has observably done no work — the retry
            // simulates from scratch and must produce the same bytes.
            if self.roll(FaultPoint::WorkerKill) {
                self.stats.inc(&self.stats.worker_kills);
                if attempts < MAX_ATTEMPTS && self.enqueue(id) {
                    self.stats.inc(&self.stats.jobs_retried);
                } else {
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
                Ok(Ok(payload)) => self.complete_job(id, payload),
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

    /// Blocks until job `id` is terminal and writes its one `result` or
    /// `job_error` line to `out`. Returns without a line if the server
    /// stops first.
    fn await_job(&self, id: u64, out: &mut TcpStream) -> std::io::Result<()> {
        let mut jobs = self.jobs.lock().unwrap();
        let line = loop {
            let job = &jobs[id as usize - 1];
            match &job.state {
                JobState::Done { payload, cached } => {
                    break proto::result(id, *cached, job.attempts.max(1), payload)
                }
                JobState::Failed { message } => break proto::job_error(id, message),
                JobState::Pending => {}
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            jobs = self.job_cv.wait(jobs).unwrap();
        };
        drop(jobs);
        writeln!(out, "{line}")
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
                Request::Submit { job, fresh } => match self.admit(job, fresh) {
                    Admission::Accepted(id) => writeln!(writer, "{}", proto::accepted(id))
                        .and_then(|()| self.await_job(id, &mut writer)),
                    Admission::Rejected { reason, detail } => {
                        writeln!(writer, "{}", proto::rejected(reason, &detail))
                    }
                },
                Request::Stats => writeln!(
                    writer,
                    "{}",
                    proto::stats_reply(&self.stats.snapshot().to_json(""))
                ),
                Request::Drain => {
                    self.begin_drain();
                    writeln!(writer, "{}", proto::ok())
                }
                Request::Shutdown => {
                    let io = writeln!(writer, "{}", proto::ok());
                    self.stop();
                    io
                }
            };
            // A stopped server closes every connection, so a client
            // still waiting on a job sees it go instead of a silence.
            if io.is_err() || self.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
    }
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

        // Crash recovery, step 1: reload durable state before anything
        // can execute. The cache spill comes back warm; the journal is
        // replayed (torn tail skipped) and compacted down to just the
        // unfinished jobs, renumbered under this boot's ids 1..k.
        let stats = ServiceStats::default();
        let mut cache = HashMap::new();
        let (mut journal, mut spill, mut unfinished) = (None, None, Vec::new());
        if let Some(dir) = &cfg.data_dir {
            std::fs::create_dir_all(dir)?;
            let spill_path = dir.join("cache.log");
            let load = CacheSpill::load(&spill_path)?;
            stats.add(&stats.cache_loaded, load.entries.len() as u64);
            stats.add(&stats.cache_corrupt_dropped, load.dropped);
            for (key, payload) in load.entries {
                cache.insert(
                    key,
                    CacheEntry {
                        payload,
                        warm: true,
                    },
                );
            }
            let (recovered, replay) = Journal::recover(&dir.join("journal.log"))?;
            stats.inc(&stats.journal_compactions);
            stats.add(&stats.journal_replayed, replay.records);
            stats.add(&stats.journal_torn_skipped, replay.skipped);
            journal = Some(Mutex::new(recovered));
            spill = Some(Mutex::new(CacheSpill::open(&spill_path)?));
            unfinished = replay.unfinished;
        }

        let inner = Arc::new(ServiceInner {
            faults: cfg.faults.map(FaultInjector::new),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(Vec::new()),
            job_cv: Condvar::new(),
            cache: Mutex::new(cache),
            stats,
            journal,
            spill,
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });

        // Crash recovery, step 2: re-create the unfinished jobs under
        // their compacted ids. One whose payload survived in the spill
        // (its `done` record was torn but the store landed) is born Done
        // from the warm entry; the rest re-execute exactly once.
        for spec in unfinished {
            if let Some(id) = inner.serve_cached(&spec) {
                inner.journal_append(&JournalRecord::Done { id });
            } else {
                inner.stats.inc(&inner.stats.jobs_submitted);
                let id = inner.new_job(spec, JobState::Pending);
                if !inner.enqueue(id) {
                    inner.fail_job(id, "recovery re-enqueue: queue full".to_string());
                }
            }
        }

        let workers = (0..cfg.workers)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tmi-service-worker-{idx}"))
                    .spawn(move || inner.worker_loop())
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

    /// A live `service.*` snapshot.
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
    /// the final `service.*` snapshot.
    pub fn wait(self) -> MetricsSnapshot {
        let _ = self.listener.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        self.inner.stats.snapshot()
    }
}

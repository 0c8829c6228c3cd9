//! `crash_matrix` — the kill -9 chaos campaign for the job service.
//!
//! ```text
//! crash_matrix [--serve-bin PATH] [--kill-points N] [--data-root DIR]
//! ```
//!
//! Because every reply payload is a deterministic function of its
//! [`JobSpec`], crash recovery has a perfect oracle: a daemon killed at
//! *any* point must, after a restart on the same `--data-dir`, produce
//! byte-identical replies to a never-killed reference run. This driver
//! proves it systematically:
//!
//! 1. **Reference run** — boot a clean daemon, submit the fixed job
//!    list, record every payload, drain.
//! 2. **Kill matrix** — for each kill point `k` (1..=N) × persistence
//!    fault plan (`none`, `journal`, `cache`): boot a daemon on a fresh
//!    data dir, submit jobs until `k` replies have landed, fire one
//!    more submission *without* waiting (in-flight at the kill), then
//!    `kill -9` the daemon. Restart it on the same data dir, wait for
//!    the journal-replayed job to finish (re-executed exactly once),
//!    resubmit everything, and byte-compare all three reply streams:
//!    pre-kill, post-restart, and reference.
//! 3. **Drain check** — boot, submit, SIGTERM, assert exit status 0.
//!
//! The matrix also enforces the warm-restart economics: after every
//! restart `service.persist.cache.warm_hits` must be > 0 (cached
//! replies served from disk without re-simulation), and the warm
//! resubmission pass is timed against the cold reference as an
//! advisory wall-time check.
//!
//! Each restart must also show the plan's damage, so a fault roll that
//! stopped firing cannot pass vacuously: no torn journal record and no
//! dropped cache entry under `none`, a torn one under `journal`, and a
//! dropped one under `cache` from kill point 2 on (it corrupts every
//! second spill, and only one is spilled before kill point 1).
//!
//! Exits nonzero on the first byte mismatch, lost job, cold cache or
//! undamaged fault cell. `--kill-points` must be at least 1.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tmi_service::{client, proto, ClientConfig, JobSpec};
use tmi_telemetry::json::{self, Json};

fn usage() -> ! {
    eprintln!("usage: crash_matrix [--serve-bin PATH] [--kill-points N] [--data-root DIR]");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("crash_matrix: FAIL: {msg}");
    std::process::exit(1);
}

/// The fixed, deterministic job list the whole matrix replays. Small
/// enough that one pass is fast, varied enough to exercise machine,
/// repair, and litmus paths.
fn job_list() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for seed in 1..=6u64 {
        let mut spec = JobSpec::new("histogramfs");
        spec.threads = 4;
        spec.scale = 0.02;
        spec.seed = seed;
        jobs.push(spec);
    }
    jobs.push(JobSpec::litmus(7));
    jobs.push(JobSpec::litmus_vm(11));
    jobs
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Boots `tmi_serve` on a free port and blocks until the port file
    /// appears (the server is accepting by then).
    fn boot(serve_bin: &Path, data_dir: &Path, persist_faults: Option<&str>) -> Daemon {
        let port_file = data_dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(serve_bin);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg("2")
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(kind) = persist_faults {
            cmd.arg("--persist-faults").arg(kind);
        }
        let child = cmd
            .spawn()
            .unwrap_or_else(|e| fail(&format!("spawn {}: {e}", serve_bin.display())));
        let deadline = Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    break s;
                }
            }
            if Instant::now() > deadline {
                fail("daemon did not write its port file within 10s");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        Daemon { child, addr }
    }

    /// SIGKILL — the crash under test. Nothing gets to flush.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// SIGTERM — the graceful path. Returns the exit status.
    fn sigterm_and_wait(&mut self) -> Option<i32> {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        unsafe {
            kill(self.child.id() as i32, 15);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.code(),
                Ok(None) if Instant::now() > deadline => fail("daemon ignored SIGTERM for 20s"),
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => fail(&format!("wait after SIGTERM: {e}")),
            }
        }
    }
}

fn client_cfg() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(60),
        retries: 4,
        backoff_base_ms: 25,
        retry_seed: 9,
    }
}

/// Runs one job to completion, returning its payload bytes.
fn run_job(addr: &str, spec: &JobSpec) -> String {
    client::run_with_retry(addr, &client_cfg(), spec, false)
        .unwrap_or_else(|e| fail(&format!("job against {addr}: {e}")))
        .payload
}

/// Submits a job and returns as soon as the `accepted` reply lands —
/// the job is in flight (queued or running) when the caller kills the
/// daemon a moment later.
fn submit_no_wait(addr: &str, spec: &JobSpec) {
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(&format!("connect for no-wait submit: {e}")));
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", proto::render_submit(spec, false))
        .unwrap_or_else(|e| fail(&format!("no-wait submit: {e}")));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .unwrap_or_else(|e| fail(&format!("no-wait accept read: {e}")));
    if !line.contains("\"accepted\"") {
        fail(&format!("no-wait submit not accepted: {}", line.trim()));
    }
}

/// Fetches one numeric metric from a `stats` reply.
fn metric(stats_json: &str, name: &str) -> u64 {
    json::parse(stats_json)
        .ok()
        .and_then(|v| v.get(name).and_then(Json::as_f64))
        .unwrap_or(0.0) as u64
}

fn fetch_stats(addr: &str) -> String {
    let mut c = tmi_service::Client::connect(addr, &client_cfg())
        .unwrap_or_else(|e| fail(&format!("stats connect {addr}: {e}")));
    c.stats().unwrap_or_else(|e| fail(&format!("stats: {e}")))
}

/// Waits until every journal-replayed job has reached a terminal state
/// (completed + failed catches up to submitted), so resubmissions below
/// cannot race a replay into double execution.
fn await_replay_settled(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = fetch_stats(addr);
        let submitted = metric(&stats, "service.jobs_submitted");
        let done = metric(&stats, "service.jobs_completed") + metric(&stats, "service.jobs_failed");
        if done >= submitted {
            return;
        }
        if Instant::now() > deadline {
            fail(&format!(
                "replayed jobs did not settle: submitted={submitted} terminal={done}"
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn main() {
    let mut serve_bin: Option<PathBuf> = None;
    let mut kill_points = 8usize;
    let mut data_root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--serve-bin" => serve_bin = Some(value().into()),
            "--kill-points" => match value().parse() {
                Ok(n) if n > 0 => kill_points = n,
                _ => usage(),
            },
            "--data-root" => data_root = Some(value().into()),
            _ => usage(),
        }
    }
    // Default: the tmi_serve sitting next to this binary.
    let serve_bin = serve_bin.unwrap_or_else(|| {
        let mut p = std::env::current_exe().expect("current_exe");
        p.set_file_name("tmi_serve");
        p
    });
    if !serve_bin.exists() {
        fail(&format!("serve binary {} not found", serve_bin.display()));
    }
    let data_root = data_root.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("tmi-crash-matrix-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&data_root);
    std::fs::create_dir_all(&data_root).expect("create data root");

    let jobs = job_list();
    let kill_points = kill_points.min(jobs.len());

    // Phase 1: the unkilled reference run (and the cold wall-time).
    let ref_dir = data_root.join("reference");
    std::fs::create_dir_all(&ref_dir).unwrap();
    let mut daemon = Daemon::boot(&serve_bin, &ref_dir, None);
    let cold_started = Instant::now();
    let reference: Vec<String> = jobs.iter().map(|s| run_job(&daemon.addr, s)).collect();
    let cold_secs = cold_started.elapsed().as_secs_f64();
    let code = daemon.sigterm_and_wait();
    if code != Some(0) {
        fail(&format!("reference daemon drain exited {code:?}, want 0"));
    }
    println!(
        "reference: {} jobs in {cold_secs:.2}s, drained clean (exit 0)",
        jobs.len()
    );

    // Phase 2: the kill matrix.
    let plans: [Option<&str>; 3] = [None, Some("journal"), Some("cache")];
    let mut cells = 0usize;
    for plan in plans {
        let plan_name = plan.unwrap_or("none");
        for k in 1..=kill_points {
            let dir = data_root.join(format!("kill-{plan_name}-{k}"));
            std::fs::create_dir_all(&dir).unwrap();
            let mut daemon = Daemon::boot(&serve_bin, &dir, plan);

            // Submit k jobs to completion, then put one more in flight.
            let pre_kill: Vec<String> =
                jobs[..k].iter().map(|s| run_job(&daemon.addr, s)).collect();
            let in_flight = &jobs[k % jobs.len()];
            submit_no_wait(&daemon.addr, in_flight);
            daemon.kill9();

            // Restart on the same data dir; the journal replays the
            // in-flight job (unless its accepted record was torn — then
            // the resubmission below recomputes it; either way the
            // bytes must match).
            let mut daemon = Daemon::boot(&serve_bin, &dir, plan);
            await_replay_settled(&daemon.addr);

            let warm_started = Instant::now();
            let replies: Vec<String> = jobs.iter().map(|s| run_job(&daemon.addr, s)).collect();
            let warm_secs = warm_started.elapsed().as_secs_f64();

            for (i, reply) in replies.iter().enumerate() {
                if *reply != reference[i] {
                    fail(&format!(
                        "plan={plan_name} k={k} job {i}: post-restart reply differs from reference"
                    ));
                }
            }
            for (i, reply) in pre_kill.iter().enumerate() {
                if *reply != reference[i] {
                    fail(&format!(
                        "plan={plan_name} k={k} job {i}: pre-kill reply differs from reference"
                    ));
                }
            }

            let stats = fetch_stats(&daemon.addr);
            let warm_hits = metric(&stats, "service.persist.cache.warm_hits");
            if warm_hits == 0 {
                fail(&format!(
                    "plan={plan_name} k={k}: no warm cache hits after restart"
                ));
            }
            // The plan must have damaged exactly what it targets.
            let torn = metric(&stats, "service.persist.journal.torn_skipped");
            let corrupt = metric(&stats, "service.persist.cache.corrupt_dropped");
            let damaged = match plan_name {
                "journal" => torn >= 1,
                "cache" => k < 2 || corrupt >= 1,
                _ => torn == 0 && corrupt == 0,
            };
            if !damaged {
                fail(&format!(
                    "plan={plan_name} k={k}: torn_skipped={torn} corrupt_dropped={corrupt} \
                     does not show the plan's damage"
                ));
            }
            // A journal-replayed job re-executes exactly once: every
            // submitted job reaches exactly one terminal state.
            let submitted = metric(&stats, "service.jobs_submitted");
            let terminal =
                metric(&stats, "service.jobs_completed") + metric(&stats, "service.jobs_failed");
            if submitted != terminal {
                fail(&format!(
                    "plan={plan_name} k={k}: submitted={submitted} != terminal={terminal}"
                ));
            }

            let code = daemon.sigterm_and_wait();
            if code != Some(0) {
                fail(&format!(
                    "plan={plan_name} k={k}: drain exited {code:?}, want 0"
                ));
            }
            println!(
                "plan={plan_name} k={k}: replies byte-identical, warm_hits={warm_hits}, \
                 torn_skipped={torn}, corrupt_dropped={corrupt}, \
                 warm pass {warm_secs:.2}s vs cold {cold_secs:.2}s"
            );
            cells += 1;
        }
    }

    println!(
        "crash_matrix: PASS — {cells} kill cells × byte-identical replies, \
         graceful drains exit 0"
    );
    let _ = std::fs::remove_dir_all(&data_root);
}

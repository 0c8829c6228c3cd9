//! `tmi_client` — submit jobs to a running `tmi_serve` daemon.
//!
//! ```text
//! tmi_client (--addr HOST:PORT | --port-file PATH)
//!            [--timeout SECS] [--retries N]
//!            run [SPEC FLAGS] [--tenant NAME] [--priority N] [--fresh] [--no-stream]
//! tmi_client (--addr ... | --port-file ...) stats
//! tmi_client (--addr ... | --port-file ...) drain
//! tmi_client (--addr ... | --port-file ...) shutdown
//! ```
//!
//! `run` takes the shared [`JobSpec`] flags (`--workload`, `--runtime`,
//! `--threads`, `--scale`, `--seed`, ... — the same vocabulary as
//! `probe` and the library's `JobSpec` builder), streams progress to
//! **stderr**, and prints exactly the result payload to **stdout** — so
//! two invocations can be compared with `cmp` to prove the service's
//! byte-determinism (cold vs cached vs fault-retried).
//!
//! Every connection carries connect and read deadlines, so a daemon
//! that vanishes mid-reply yields a nonzero exit and a one-line error
//! naming the address, elapsed time, and attempts — never a hang. `run`
//! retries transient failures (refused/dropped connections, timeouts,
//! `draining` rejections) with seeded-jitter backoff; resubmission is
//! idempotent because replies are deterministic functions of the spec.

use std::io::Write;
use std::process::exit;
use std::time::Duration;

use tmi_service::{client, Client, ClientConfig, JobSpec};

fn usage() -> ! {
    eprintln!(
        "usage: tmi_client (--addr HOST:PORT | --port-file PATH) \
         [--timeout SECS] [--retries N] COMMAND\n\
         commands:\n  \
         run [SPEC FLAGS] [--tenant NAME] [--priority N] [--fresh] [--no-stream]\n  \
         stats\n  \
         drain\n  \
         shutdown\n\
         spec flags:\n{}",
        JobSpec::cli_usage()
    );
    exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("tmi_client: {msg}");
    exit(1);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut command: Option<String> = None;
    let mut cfg = ClientConfig::default();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(args.next().unwrap_or_else(|| usage())),
            "--port-file" => {
                let path = args.next().unwrap_or_else(|| usage());
                match std::fs::read_to_string(&path) {
                    Ok(s) => addr = Some(s.trim().to_string()),
                    Err(e) => fail(&format!("failed to read {path}: {e}")),
                }
            }
            "--timeout" => {
                let secs: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.read_timeout = Duration::from_secs_f64(secs.max(0.001));
            }
            "--retries" => {
                cfg.retries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "run" | "stats" | "drain" | "shutdown" => {
                command = Some(arg);
                break;
            }
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let Some(command) = command else { usage() };

    // `run` opens its own (retried) connections; the control commands
    // share one deadline-armed connection.
    if command == "run" {
        let mut spec = JobSpec::new("histogramfs");
        let mut tenant = "cli".to_string();
        let mut priority = 1usize;
        let mut fresh = false;
        let mut quiet = false;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--tenant" => tenant = args.next().unwrap_or_else(|| usage()),
                "--priority" => {
                    priority = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage())
                }
                "--fresh" => fresh = true,
                "--no-stream" => quiet = true,
                other => {
                    let mut next = || args.next();
                    match spec.apply_cli_arg(other, &mut next) {
                        Ok(true) => {}
                        Ok(false) => usage(),
                        Err(e) => fail(&e),
                    }
                }
            }
        }
        let outcome = client::run_with_retry(&addr, &cfg, &tenant, &spec, priority, fresh, |p| {
            if !quiet {
                eprintln!(
                    "progress: job {} {} (attempt {})",
                    p.job_id, p.state, p.attempt
                );
            }
        });
        match outcome {
            Ok(out) => {
                eprintln!(
                    "job {} done: cached={} attempts={}",
                    out.job_id, out.cached, out.attempts
                );
                let mut stdout = std::io::stdout().lock();
                let _ = writeln!(stdout, "{}", out.payload);
            }
            Err(e) => fail(&e),
        }
        return;
    }

    let mut client = match Client::connect_with(addr.as_str(), &cfg) {
        Ok(c) => c,
        Err(e) => fail(&format!("failed to connect to {addr}: {e}")),
    };
    match command.as_str() {
        "stats" => match client.stats() {
            Ok(metrics) => println!("{metrics}"),
            Err(e) => fail(&e),
        },
        "drain" => match client.drain() {
            Ok(()) => eprintln!("server draining"),
            Err(e) => fail(&e),
        },
        "shutdown" => match client.shutdown() {
            Ok(()) => eprintln!("server shut down"),
            Err(e) => fail(&e),
        },
        _ => usage(),
    }
}

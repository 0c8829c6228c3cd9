//! `tmi_serve` — boot the simulation job server.
//!
//! ```text
//! tmi_serve [--addr HOST:PORT] [--workers N] [--service-faults SEED]
//!           [--persist-faults none|journal|cache] [--data-dir PATH]
//!           [--port-file PATH]
//! ```
//!
//! Binds (port 0 picks a free port), prints `listening on HOST:PORT`,
//! optionally writes the bound address to `--port-file` (for scripts
//! that need to find the daemon), and serves until a client sends
//! `shutdown` or `drain`. On shutdown, prints the final `service.*`
//! metrics.
//!
//! `--data-dir` arms the crash-safety layer: accepted jobs are
//! journaled and result payloads spilled under the directory, so a
//! daemon killed with `kill -9` and restarted on the same directory
//! replays its unfinished jobs and serves cached replies warm. SIGTERM
//! and SIGINT trigger a graceful drain: admission refuses with a
//! `draining` reply, in-flight jobs finish, durable state is flushed,
//! and the process exits 0.
//!
//! `--service-faults SEED` arms the deterministic service chaos plan
//! ([`tmi_service::chaos_plan`]): seeded `worker_kill` and `cache_drop`
//! firings that the retry and cache layers must absorb without changing
//! a single result byte. `--persist-faults journal|cache` layers the
//! at-rest IO faults (`journal_tear`/`cache_corrupt`/`flush_fail`) on
//! top ([`tmi_service::persist_chaos_plan`]); `none` adds nothing.

use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};

use tmi_service::{chaos_plan, persist_chaos_plan, Service, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: tmi_serve [--addr HOST:PORT] [--workers N] [--service-faults SEED] \
         [--persist-faults none|journal|cache] [--data-dir PATH] [--port-file PATH]"
    );
    exit(2);
}

/// Set by the signal handler; the main loop turns it into a drain.
static DRAIN_SIGNAL: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    DRAIN_SIGNAL.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT (2) and SIGTERM (15) via the libc
/// `signal` symbol (always linked on the platforms we run on), keeping
/// the workspace dependency-free.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(2, handler);
        signal(15, handler);
    }
}

fn main() {
    let mut cfg = ServiceConfig::default();
    let mut persist_faults = "none".to_string();
    let mut port_file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        let parse = |v: String, what: &str| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{what} expects a number, got {v:?}");
                exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value(),
            "--workers" => cfg.workers = parse(value(), "--workers") as usize,
            "--service-faults" => cfg.faults = chaos_plan(parse(value(), "--service-faults")),
            "--persist-faults" => {
                persist_faults = value();
                if !matches!(persist_faults.as_str(), "none" | "journal" | "cache") {
                    usage();
                }
            }
            "--data-dir" => cfg.data_dir = Some(value().into()),
            "--port-file" => port_file = Some(value()),
            _ => usage(),
        }
    }
    cfg.faults = persist_chaos_plan(&persist_faults, cfg.faults.take());

    install_signal_handlers();
    let service = match Service::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tmi_serve: failed to start: {e}");
            exit(1);
        }
    };
    println!("listening on {}", service.addr());
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", service.addr())) {
            eprintln!("tmi_serve: failed to write {path}: {e}");
            exit(1);
        }
    }

    // Poll rather than block so a signal can start the drain: once the
    // service reports stopped, wait() returns promptly.
    while !service.is_stopped() {
        if DRAIN_SIGNAL.swap(false, Ordering::SeqCst) {
            eprintln!("tmi_serve: draining (signal)");
            service.begin_drain();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    println!("{}", service.wait().to_json(""));
}

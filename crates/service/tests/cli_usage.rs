//! The service binaries refuse bad flag values with the usage line and
//! exit status 2 — never a panic, a silent clamp or a run that proves
//! nothing. Parsing happens before any connect or bind, so no daemon is
//! needed.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` with `args` and asserts it printed the usage line and
/// exited 2. A build that accepts the input and keeps running (a daemon)
/// is killed after a deadline, which fails the assertion.
fn assert_usage(bin: &str, args: &[&str]) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("try_wait").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code();
    assert_eq!(code, Some(2), "{bin} {args:?} exited {code:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

#[test]
fn client_timeout_must_be_finite_and_positive() {
    for timeout in ["inf", "0", "-5", "nan"] {
        let args = ["--addr", "127.0.0.1:9", "--timeout", timeout, "stats"];
        assert_usage(env!("CARGO_BIN_EXE_tmi_client"), &args);
    }
}

#[test]
fn client_refuses_a_bad_spec_flag_value_with_usage() {
    let args = ["--addr", "127.0.0.1:9", "run", "--seed", "-3"];
    assert_usage(env!("CARGO_BIN_EXE_tmi_client"), &args);
}

#[test]
fn crash_matrix_needs_at_least_one_kill_point() {
    // A missing serve binary keeps a build that accepts 0 from booting
    // anything: it fails with status 1 instead.
    let args = [
        "--kill-points",
        "0",
        "--serve-bin",
        "/nonexistent/tmi_serve",
    ];
    assert_usage(env!("CARGO_BIN_EXE_crash_matrix"), &args);
}

#[test]
fn serve_accepts_only_known_persistence_plans() {
    let args = ["--addr", "127.0.0.1:0", "--persist-faults", "bogus"];
    assert_usage(env!("CARGO_BIN_EXE_tmi_serve"), &args);
}

//! `probe` refuses a workload it cannot run with the usage line and exit
//! status 2 before it simulates anything — never a panic and exit 0.

use std::process::Command;

/// Runs `probe` with `args`, asserts that it printed the usage line and
/// exited 2 without a panic, and returns its stderr.
fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(args)
        .output()
        .expect("run probe");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "probe {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "probe {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "probe {args:?}: {stderr}");
    stderr
}

#[test]
fn probe_refuses_an_unknown_workload() {
    let stderr = refused(&["--workload", "nosuch", "0.01"]);
    assert!(stderr.contains("unknown workload \"nosuch\""), "{stderr}");
}

#[test]
fn probe_points_litmus_jobs_to_the_binaries_that_run_them() {
    for workload in ["litmus:7", "litmus+vm:7"] {
        let stderr = refused(&["--workload", workload]);
        assert!(stderr.contains("fuzz_consistency"), "{stderr}");
        assert!(stderr.contains("tmi_client"), "{stderr}");
    }
}

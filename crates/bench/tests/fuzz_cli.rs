//! The `fuzz_consistency` binary checks what it claims: it refuses a
//! campaign of zero seeds, and `--trace` traces the program the campaign
//! checked.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_fuzz_consistency");

#[test]
fn zero_seeds_are_refused_with_the_usage_line() {
    let out = Command::new(BIN)
        .args(["--seeds", "0"])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// A one-seed transistency campaign's trace covers the same program as
/// the campaign: the traced run takes exactly the campaign's steps.
#[test]
fn trace_follows_the_campaign_program() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fuzz_cli_transistency.json");
    let out = Command::new(BIN)
        .args([
            "--transistency",
            "--seeds",
            "1",
            "--workers",
            "1",
            "--trace",
        ])
        .arg(&path)
        .output()
        .expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(std::fs::metadata(&path).expect("trace written").len() > 0);
    // stdout: "  trace steps: N total; ..."; stderr: "wrote ... (N steps, clean; ...".
    let checked = stdout
        .split("trace steps: ")
        .nth(1)
        .and_then(|s| s.split(' ').next());
    let traced = stderr
        .split(" steps,")
        .next()
        .and_then(|s| s.rsplit('(').next());
    assert!(checked.is_some(), "{stdout}");
    assert_eq!(checked, traced, "{stdout}{stderr}");
}

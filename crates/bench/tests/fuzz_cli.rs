//! The `fuzz_consistency` binary checks what it claims: it refuses a
//! campaign of zero seeds or one whose seed range would wrap past
//! `u64::MAX`, and `--trace` traces the program the campaign checked.

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

/// A range whose end does not fit in `u64` is refused like `--seeds 0`
/// instead of wrapping around to seed 0; the last range that fits runs.
#[test]
fn a_seed_range_past_u64_max_is_refused() {
    for (start, seeds) in [("18446744073709551615", "2"), ("18446744073709551615", "1")] {
        let out = Command::new(BIN)
            .args(["--start", start, "--seeds", seeds])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{start} + {seeds}: {stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    let out = Command::new(BIN)
        .args(["--start", "18446744073709551614", "--seeds", "1"])
        .output()
        .expect("run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("[18446744073709551614, 18446744073709551615)"),
        "{stdout}"
    );
}

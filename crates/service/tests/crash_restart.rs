//! End-to-end crash-recovery test: the `crash_matrix` campaign at eight
//! kill points. It boots real `tmi_serve` daemons, kills each with
//! SIGKILL while a job is in flight under every persistence fault plan,
//! restarts it on the same data directory, and byte-compares the
//! post-restart replies with the pre-kill ones and an unkilled
//! reference; every restart must serve warm cache hits, re-execute a
//! journal-replayed job exactly once and show the damage its plan
//! targets (a `cache` plan drops an entry only from kill point 2 on),
//! and a SIGTERM drain must exit 0.

use std::process::Command;

#[test]
fn crash_matrix_recovers_byte_identical_replies_at_eight_kill_points() {
    let data_root = std::env::temp_dir().join(format!("tmi-crash-test-{}", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_crash_matrix"))
        .arg("--serve-bin")
        .arg(env!("CARGO_BIN_EXE_tmi_serve"))
        .args(["--kill-points", "8"])
        .arg("--data-root")
        .arg(&data_root)
        .status()
        .expect("spawn crash_matrix");
    let _ = std::fs::remove_dir_all(&data_root);
    assert!(status.success(), "crash_matrix failed: {status}");
}

//! The job server's determinism proof through its binaries: a `tmi_serve`
//! daemon under the seeded service chaos plan (`--service-faults 1`,
//! which kills the attempt on every second pickup) serves one job three
//! ways — cold compute, cache-served duplicate, and a `--fresh` recompute
//! whose first attempt is killed and retried, re-simulating the job —
//! and `tmi_client` must print byte-identical payloads. The daemon's
//! stats must show that the kill, the retry and the cache hit happened,
//! and a `shutdown` must stop it with exit status 0.

use std::fs::{self, File};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const CLIENT: &str = env!("CARGO_BIN_EXE_tmi_client");

/// The daemon; killed if the test fails before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `tmi_client --port-file port args`, asserts exit status 0 and
/// returns its stdout.
fn client(port: &Path, args: &[&str]) -> Vec<u8> {
    let out = Command::new(CLIENT)
        .arg("--port-file")
        .arg(port)
        .args(args)
        .output()
        .expect("spawn tmi_client");
    assert!(
        out.status.success(),
        "tmi_client {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn cold_cached_and_fault_retried_payloads_are_byte_identical() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("service_cli");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the run directory");
    let port = dir.join("service.port");
    let log = File::create(dir.join("service.log")).expect("create the daemon log");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_tmi_serve"))
            .args(["--workers", "2", "--service-faults", "1", "--port-file"])
            .arg(&port)
            .stdout(log)
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn tmi_serve"),
    );
    // The daemon writes `HOST:PORT\n` once it is bound.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !fs::read_to_string(&port).is_ok_and(|s| s.ends_with('\n')) {
        assert!(
            daemon.0.try_wait().expect("try_wait").is_none(),
            "tmi_serve exited before it came up"
        );
        assert!(Instant::now() < deadline, "tmi_serve did not come up");
        std::thread::sleep(Duration::from_millis(20));
    }

    let job = [
        "run",
        "--workload",
        "histogramfs",
        "--runtime",
        "tmi-protect",
        "--threads",
        "4",
        "--scale",
        "0.05",
        "--misaligned",
    ];
    let cold = client(&port, &job);
    let cached = client(&port, &job);
    let fresh = client(&port, &[&job[..], &["--fresh"]].concat());
    assert!(!cold.is_empty(), "tmi_client printed no payload");
    assert!(
        cold == cached,
        "cache-served payload differs from cold compute"
    );
    assert!(
        cold == fresh,
        "fault-retried payload differs from cold compute"
    );

    let stats = String::from_utf8(client(&port, &["stats"])).expect("utf-8 stats");
    for want in [
        "\"service.worker_kills\": 1",
        "\"service.jobs_retried\": 1",
        "\"service.cache_hits\": 1",
    ] {
        assert!(stats.contains(want), "service stats miss {want}:\n{stats}");
    }
    client(&port, &["shutdown"]);
    let status = daemon.0.wait().expect("wait for tmi_serve");
    assert!(status.success(), "tmi_serve exited with {status}");
}

//! Facts about the host a result was measured on.

use std::path::Path;

/// Host threads the benchmark may use: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Names of the set `TMI_*` environment variables. The simulator reads
/// several of them as defaults, so a benchmark run with any of them set
/// would measure a different configuration.
pub fn tmi_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TMI_"))
        .collect();
    names.sort();
    names
}

/// The checked-out commit, read from `.git` under `root` without running
/// git; `"unknown"` outside a git checkout.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this benchmark.
fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The fingerprint printed with every result: results are comparable only
/// between equal fingerprints.
pub fn fingerprint_json(root: &Path) -> String {
    use tmi_telemetry::json::string;
    format!(
        "{{\"nproc\": {}, \"rustc\": {}, \"git_sha\": {}}}",
        nproc(),
        string(rustc()),
        string(&git_sha(root))
    )
}

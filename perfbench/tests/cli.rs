//! End-to-end checks of the `bench` binary and of `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use tmi_perfbench::{per_layer, Workload, END_TO_END};
use tmi_telemetry::json::{self, Json};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn bench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench"));
    cmd.current_dir(repo_root());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TMI_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

#[test]
fn smoke_runs_every_workload_correctly() {
    let start = Instant::now();
    let out = bench()
        .args(["run", "--smoke"])
        .output()
        .expect("bench runs");
    let elapsed = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2 * Workload::ALL.len(), "{stdout}");
    for (pair, workload) in lines.chunks(2).zip(Workload::ALL) {
        let detail = json::parse(pair[0]).expect("detail line is JSON");
        let name = detail.get("detail").and_then(|d| d.get("workload"));
        assert_eq!(name.and_then(Json::as_str), Some(workload.name()));
        let result = json::parse(pair[1]).expect("result line is JSON");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        for (name, unit) in END_TO_END {
            let m = &metrics[name];
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            let v = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{} {name} = {v}", workload.name());
        }
    }
    // Budget for an unoptimized build on a loaded 2-core host; the
    // release build takes about 1.5 s.
    assert!(elapsed < 60.0, "smoke took {elapsed:.1} s");
}

#[test]
fn a_set_tmi_variable_is_refused() {
    let out = bench()
        .args(["run", "--workload", "synth_private", "--seconds", "0"])
        .env("TMI_BENCH_JOBS", "1")
        .output()
        .expect("bench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("TMI_BENCH_JOBS"));
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        vec!["run"],
        vec!["bench"],
        vec!["run", "--workload", "nope"],
        vec!["run", "--workload", "synth_private", "--trace", "2"],
        vec!["run", "--workload", "synth_private", "--seconds"],
    ] {
        let out = bench().args(&args).output().expect("bench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// The metric names, units and workloads the binary prints are the ones
/// `BENCHMARK.json` declares.
#[test]
fn benchmark_json_matches_the_binary() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let names_units = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    let e2e: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    assert_eq!(names_units("end_to_end"), own(e2e));
    assert_eq!(names_units("per_layer"), own(per_layer()));

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!((0.0..=0.25).contains(&bound), "{m:?}");
    }
}

//! The benchmark may call only API that survives the planned removal of
//! the epoch-parallel engine, so that removing it cannot break the
//! benchmark. This test fails if a benchmark source names any of it.

use std::path::{Path, PathBuf};

/// Names of the engine's host-parallel stepping layer.
const FORBIDDEN: [&str; 7] = [
    "SimTuning",
    "FastPath",
    "sim_threads",
    "HostPhases",
    "speculation_allowed",
    "par_stats",
    "sim.par.",
];

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn benchmark_sources_use_only_surviving_api() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("build.rs")];
    sources(&root.join("src"), &mut files);
    assert!(files.len() > 3, "found the benchmark sources");
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        for (n, line) in text.lines().enumerate() {
            for name in FORBIDDEN {
                if line.contains(name) {
                    hits.push(format!("{}:{}: {name}", file.display(), n + 1));
                }
            }
        }
    }
    assert!(hits.is_empty(), "forbidden API named:\n{}", hits.join("\n"));
}

//! Every deterministic report the reproduction pins byte for byte: the
//! `run_all` sections and the five oracle campaign reports, one table row
//! per file under `tests/golden/`.
//!
//! Each row runs its binary in a directory of its own (`run_all` writes
//! `BENCH_harness.json` into its working directory), asserts that it
//! exited 0, checks the files it must leave behind, and only then
//! compares its stdout with the golden. With `TMI_BLESS` set, a row that
//! passes those checks rewrites its golden instead. A command that fails
//! still fails the test, so a campaign that lost its teeth (an ablation
//! that no longer diverges) or its fault coverage cannot be blessed.
//! Regenerate every golden of the workspace deliberately with
//! `TMI_BLESS=1 cargo test -q` and review `git diff tests/golden`.

use std::fs;
use std::path::Path;
use std::process::Command;

/// One pinned output: `bin args` prints exactly `tests/golden/<name>`.
struct Golden {
    name: &'static str,
    bin: &'static str,
    args: &'static [&'static str],
    /// Files the run must leave non-empty in its directory, each with a
    /// string it must contain.
    leaves: &'static [(&'static str, &'static str)],
}

const RUN_ALL: &str = env!("CARGO_BIN_EXE_run_all");
const FUZZ: &str = env!("CARGO_BIN_EXE_fuzz_consistency");

const GOLDENS: [Golden; 7] = [
    Golden {
        name: "run_all_quick.txt",
        bin: RUN_ALL,
        args: &["--quick", "--trace", "trace_quick.json"],
        leaves: &[
            ("BENCH_harness.json", "\"schema\": \"tmi-bench-harness/2\""),
            ("trace_quick.json", ""),
        ],
    },
    // table1 has no golden: its overhead rows run at scale 2 whatever
    // the SCALE (~30 s).
    Golden {
        name: "run_all_fig11_sweep_threads.txt",
        bin: RUN_ALL,
        args: &["fig11", "sweep_threads", "0.05"],
        leaves: &[],
    },
    Golden {
        name: "fuzz_seeds64.txt",
        bin: FUZZ,
        args: &["--seeds", "64"],
        leaves: &[],
    },
    Golden {
        name: "fuzz_ablate_code_centric.txt",
        bin: FUZZ,
        args: &["--seeds", "16", "--ablate-code-centric"],
        leaves: &[],
    },
    Golden {
        name: "fuzz_faults.txt",
        bin: FUZZ,
        args: &["--seeds", "128", "--faults", "1"],
        leaves: &[],
    },
    Golden {
        name: "fuzz_transistency.txt",
        bin: FUZZ,
        args: &["--transistency", "--seeds", "500", "--enumerate", "8"],
        leaves: &[],
    },
    Golden {
        name: "fuzz_ablate_shootdown.txt",
        bin: FUZZ,
        args: &["--transistency", "--ablate-shootdown", "--seeds", "40"],
        leaves: &[],
    },
];

/// Runs one row; `Err` says what went wrong, naming the golden.
fn check(g: &Golden, bless: bool) -> Result<(), String> {
    let bin = Path::new(g.bin).file_name().unwrap_or_default();
    let cmd = format!("`{} {}`", bin.to_string_lossy(), g.args.join(" "));
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("goldens")
        .join(g.name);
    // A file left by an earlier run must not satisfy `leaves`.
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the run directory");
    let out = Command::new(g.bin)
        .args(g.args)
        .current_dir(&dir)
        .output()
        .expect("spawn");
    if !out.status.success() {
        return Err(format!(
            "tests/golden/{}: {cmd} exited with {}\n{}{}",
            g.name,
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    for (file, needle) in g.leaves {
        let text = fs::read_to_string(dir.join(file)).unwrap_or_default();
        if text.is_empty() || !text.contains(needle) {
            return Err(format!(
                "tests/golden/{}: {cmd} left no {file} holding {needle:?}",
                g.name
            ));
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(g.name);
    if bless {
        fs::write(&path, &out.stdout).expect("write golden");
        return Ok(());
    }
    let golden = fs::read(&path).map_err(|e| format!("tests/golden/{}: {e}", g.name))?;
    if golden == out.stdout {
        return Ok(());
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let golden = String::from_utf8_lossy(&golden);
    // The first line that differs; past the shorter text, `<end>`.
    let i = golden
        .lines()
        .zip(stdout.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| golden.lines().count().min(stdout.lines().count()));
    Err(format!(
        "tests/golden/{}: {cmd} drifted at line {} ({} vs {} bytes)\n  \
         golden: {}\n  output: {}\n\
         if the change is intended, regenerate with TMI_BLESS=1 cargo test -q \
         and review git diff tests/golden",
        g.name,
        i + 1,
        golden.len(),
        stdout.len(),
        golden.lines().nth(i).unwrap_or("<end>"),
        stdout.lines().nth(i).unwrap_or("<end>")
    ))
}

#[test]
fn every_pinned_output_matches_its_golden() {
    let bless = std::env::var("TMI_BLESS").is_ok();
    let failures: Vec<String> = GOLDENS
        .iter()
        .filter_map(|g| check(g, bless).err())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

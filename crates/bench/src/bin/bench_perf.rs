//! Wall-clock throughput gate for the fast-path memory pipeline
//! (`scripts/bench.sh`).
//!
//! ```text
//! bench_perf [--quick] [--out BENCH_perf.json] [--run-all-wall FAST REF]
//! bench_perf --check BENCH_perf.json
//! ```
//!
//! `--run-all-wall FAST REF` embeds externally measured `run_all --quick`
//! wall times (seconds, fast path vs `TMI_FASTPATH=off` reference) as a
//! `run_all_quick` object — `scripts/bench.sh` measures and passes them.
//!
//! Every cell times the same workload with the fast-path accelerators
//! (software TLBs, sharer/owner directory) forced on and forced off, and
//! reports host-time throughput for both plus the speedup. The simulated
//! behavior of the two variants is byte-identical (see
//! `tests/fastpath_equivalence.rs`); only host time may differ.
//!
//! Wall-clock ratios on shared machines are noisy, so each microbenchmark
//! cell runs several back-to-back fast/reference pairs and reports the
//! quietest pair — the one with the smallest combined wall time (ambient
//! load only ever adds time). Both variants are taken from the same pair
//! so that slow host-speed drift (frequency scaling, hypervisor steal)
//! cancels out of the ratio instead of biasing whichever variant caught
//! the lucky window. Rep sizes are fixed; `--quick` only reduces the
//! number of pairs. The end-to-end cell stays single-shot — it runs
//! seconds, not milliseconds, and amortizes its own noise. Cells:
//!
//! * `machine/local_hit` — repeated private-cache hits: the flat tag
//!   array's best case, no coherence traffic.
//! * `machine/false_sharing_pingpong` — two cores alternating stores to
//!   one line: every access probes for a remote modified copy.
//! * `machine/snoop_storm` — 32 cores streaming over a shared working
//!   set: the directory absorbs the O(cores) broadcast snoops.
//! * `os/translate_hit` — the kernel translation fast path over resident
//!   pages: TLB hit vs full page-table walk.
//! * `sim/histogram_e2e` — one full harness experiment end to end
//!   (`ops` counts runs, not accesses), toggled via the typed
//!   [`tmi_sim::FastPath`] configuration.
//!
//! `--check` re-parses an emitted report and fails (exit 1) if it is
//! malformed: wrong schema tag, no cells, or non-positive timings. It
//! deliberately does not gate on a speedup threshold — wall-clock ratios
//! on shared CI machines are advisory, the JSON contract is not.

use std::process::exit;
use std::time::Instant;

use tmi_bench::{Experiment, RuntimeKind};
use tmi_machine::{AccessKind, Machine, MachineConfig, PhysAddr, Width};
use tmi_telemetry::json::{self, Json};

/// One timed variant: total ops, elapsed seconds and derived rates.
#[derive(Clone, Copy, Debug)]
struct Sample {
    secs: f64,
    ns_per_op: f64,
    ops_per_sec: f64,
}

fn sample(ops: u64, f: impl FnOnce()) -> Sample {
    let t0 = Instant::now();
    f();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    Sample {
        secs,
        ns_per_op: secs * 1e9 / ops as f64,
        ops_per_sec: ops as f64 / secs,
    }
}

/// Runs `reps` back-to-back (fast, reference) pairs of `cell` and returns
/// the pair with the smallest combined wall time. Both reported variants
/// come from the *same* pair on purpose: on hosts whose effective CPU
/// speed drifts slowly (frequency scaling, hypervisor steal), per-variant
/// minima land in different time windows and a lucky window for one
/// variant alone skews the ratio, while within one back-to-back pair the
/// drift cancels out of it.
fn best_of(ops: u64, reps: usize, cell: impl Fn(u64, bool) -> Sample) -> (Sample, Sample) {
    let mut best: Option<(Sample, Sample)> = None;
    for _ in 0..reps {
        let fast = cell(ops, true);
        let reference = cell(ops, false);
        let better = match &best {
            None => true,
            Some((bf, br)) => fast.secs + reference.secs < bf.secs + br.secs,
        };
        if better {
            best = Some((fast, reference));
        }
    }
    best.expect("reps is positive")
}

struct Cell {
    name: &'static str,
    ops: u64,
    fast: Sample,
    reference: Sample,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.reference.ns_per_op / self.fast.ns_per_op
    }
}

fn machine(cores: usize, directory: bool) -> Machine {
    Machine::new(MachineConfig {
        directory,
        ..MachineConfig::with_cores(cores)
    })
}

/// Repeated loads of one resident line on one core.
fn local_hit(ops: u64, directory: bool) -> Sample {
    let mut m = machine(4, directory);
    let a = PhysAddr::new(0x1000);
    m.access(0, a, AccessKind::Store, Width::W8);
    sample(ops, || {
        for _ in 0..ops {
            m.access(0, a, AccessKind::Load, Width::W8);
        }
    })
}

/// Two cores alternating stores to the same line: a HITM per access.
fn pingpong(ops: u64, directory: bool) -> Sample {
    let mut m = machine(2, directory);
    let a = PhysAddr::new(0x2000);
    sample(ops, || {
        for i in 0..ops {
            m.access((i & 1) as usize, a, AccessKind::Store, Width::W8);
        }
    })
}

/// 32 cores streaming a mixed load/store pattern over a working set
/// larger than any private cache — fills, evictions and invalidations
/// dominate, so the reference path broadcasts snoops to 31 siblings.
fn snoop_storm(ops: u64, directory: bool) -> Sample {
    const CORES: usize = 32;
    let mut m = machine(CORES, directory);
    let mut x = 0x9E37_79B9u64;
    sample(ops, || {
        for i in 0..ops {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 4096;
            let kind = if x & 3 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            m.access(
                (i as usize) % CORES,
                PhysAddr::new(line * 64),
                kind,
                Width::W8,
            );
        }
    })
}

/// The kernel translation fast path over a resident working set.
fn translate_hit(ops: u64, tlb: bool) -> Sample {
    use tmi_machine::{VAddr, FRAME_SIZE};
    use tmi_os::{Kernel, MapRequest};
    const PAGES: u64 = 64;
    let mut k = Kernel::with_tlb(tlb);
    let obj = k.create_object(PAGES * FRAME_SIZE);
    let aspace = k.create_aspace();
    k.map(
        aspace,
        MapRequest::object(VAddr::new(0x10000), PAGES * FRAME_SIZE, obj, 0),
    )
    .expect("map");
    for p in 0..PAGES {
        k.handle_fault(aspace, VAddr::new(0x10000 + p * FRAME_SIZE), true)
            .expect("fault in");
    }
    sample(ops, || {
        for i in 0..ops {
            let addr = VAddr::new(0x10000 + (i % PAGES) * FRAME_SIZE + (i * 8) % FRAME_SIZE);
            let _ = std::hint::black_box(k.translate(aspace, addr, false));
        }
    })
}

/// One full harness experiment end to end; the reference variant disables
/// the accelerators through the typed [`tmi_sim::FastPath`] config — the
/// same knob `TMI_FASTPATH=off` snapshots at startup — so no process
/// environment is mutated mid-run (the old `set_var`/`remove_var` toggle
/// raced with the parallel executor's worker threads).
fn histogram_e2e(runs: u64, fastpath: bool) -> Sample {
    let fp = if fastpath {
        tmi_sim::FastPath::enabled()
    } else {
        tmi_sim::FastPath::reference()
    };
    sample(runs, || {
        for _ in 0..runs {
            let r = Experiment::repair("histogram")
                .runtime(RuntimeKind::TmiProtect)
                .scale(0.05)
                .misaligned()
                .fast_path(fp)
                .run();
            assert!(r.ok(), "histogram experiment failed");
        }
    })
}

fn run_cells(quick: bool) -> Vec<Cell> {
    // Rep sizes are fixed per cell — small enough that one fast/reference
    // pair completes inside a host-speed drift window, large enough to
    // amortize timer and dispatch overhead. `--quick` reduces the number
    // of pairs, not their size, so both modes measure the same thing and
    // differ only in how hard they squeeze the noise.
    let reps = |full: usize| if quick { (full / 3).max(2) } else { full };
    let micro = |name: &'static str, ops: u64, n_reps: usize, cell: fn(u64, bool) -> Sample| {
        let (fast, reference) = best_of(ops, n_reps, cell);
        Cell {
            name,
            ops,
            fast,
            reference,
        }
    };
    let cells = vec![
        micro("machine/local_hit", 4_000_000, reps(15), local_hit),
        micro(
            "machine/false_sharing_pingpong",
            4_000_000,
            reps(15),
            pingpong,
        ),
        micro("machine/snoop_storm", 1_000_000, reps(9), snoop_storm),
        micro("os/translate_hit", 4_000_000, reps(9), translate_hit),
        Cell {
            name: "sim/histogram_e2e",
            ops: 1,
            fast: histogram_e2e(1, true),
            reference: histogram_e2e(1, false),
        },
    ];
    cells
}

fn render_json(cells: &[Cell], quick: bool, run_all_wall: Option<(f64, f64)>) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"tmi-bench-perf/1\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    if let Some((fast, reference)) = run_all_wall {
        let _ = writeln!(
            s,
            "  \"run_all_quick\": {{\"fast_secs\": {}, \"reference_secs\": {}, \"speedup\": {}}},",
            json::fmt_f64(fast),
            json::fmt_f64(reference),
            json::fmt_f64(reference / fast.max(1e-9))
        );
    }
    let _ = writeln!(s, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", c.name);
        let _ = writeln!(s, "      \"ops\": {},", c.ops);
        for (label, v) in [("fast", c.fast), ("reference", c.reference)] {
            let _ = writeln!(
                s,
                "      \"{label}\": {{\"secs\": {}, \"ns_per_op\": {}, \"ops_per_sec\": {}}},",
                json::fmt_f64(v.secs),
                json::fmt_f64(v.ns_per_op),
                json::fmt_f64(v.ops_per_sec)
            );
        }
        let _ = writeln!(s, "      \"speedup\": {}", json::fmt_f64(c.speedup()));
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn check(path: &str) -> Result<usize, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    let root = json::parse(&doc).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    match root.get("schema").and_then(Json::as_str) {
        Some("tmi-bench-perf/1") => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    if let Some(wall) = root.get("run_all_quick") {
        for field in ["fast_secs", "reference_secs", "speedup"] {
            let v = wall
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("run_all_quick has no numeric \"{field}\""))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("run_all_quick \"{field}\" = {v} is not positive"));
            }
        }
    }
    let cells = root
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("no \"cells\" array")?;
    if cells.is_empty() {
        return Err("empty \"cells\" array".to_string());
    }
    for (i, cell) in cells.iter().enumerate() {
        cell.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("cell {i} has no \"name\""))?;
        let ops = cell
            .get("ops")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("cell {i} has no numeric \"ops\""))?;
        if ops <= 0.0 {
            return Err(format!("cell {i} has non-positive ops"));
        }
        for variant in ["fast", "reference"] {
            for field in ["secs", "ns_per_op", "ops_per_sec"] {
                let v = cell
                    .get(variant)
                    .and_then(|x| x.get(field))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("cell {i} has no numeric \"{variant}.{field}\""))?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!(
                        "cell {i} \"{variant}.{field}\" = {v} is not positive"
                    ));
                }
            }
        }
        let speedup = cell
            .get("speedup")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("cell {i} has no numeric \"speedup\""))?;
        if !speedup.is_finite() || speedup <= 0.0 {
            return Err(format!("cell {i} speedup {speedup} is not positive"));
        }
    }
    Ok(cells.len())
}

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut run_all_wall: Option<(f64, f64)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} expects a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(value("--out")),
            "--check" => check_path = Some(value("--check")),
            "--run-all-wall" => {
                let parse = |s: String| {
                    s.parse::<f64>().unwrap_or_else(|_| {
                        eprintln!("--run-all-wall expects two numbers, got {s:?}");
                        exit(2);
                    })
                };
                let fast = parse(value("--run-all-wall"));
                let reference = parse(value("--run-all-wall"));
                run_all_wall = Some((fast, reference));
            }
            _ => {
                eprintln!(
                    "usage: bench_perf [--quick] [--out FILE] [--run-all-wall FAST REF] | \
                     bench_perf --check FILE"
                );
                exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        match check(&path) {
            Ok(n) => {
                println!("bench report: {path} ok ({n} cells)");
                return;
            }
            Err(e) => {
                eprintln!("bench report gate failed: {e}");
                exit(1);
            }
        }
    }

    let cells = run_cells(quick);
    println!(
        "{:32} {:>12} {:>12} {:>12} {:>8}",
        "cell", "fast ns/op", "ref ns/op", "fast ops/s", "speedup"
    );
    for c in &cells {
        println!(
            "{:32} {:>12.1} {:>12.1} {:>12.0} {:>7.2}x",
            c.name,
            c.fast.ns_per_op,
            c.reference.ns_per_op,
            c.fast.ops_per_sec,
            c.speedup()
        );
    }
    if let Some((fast, reference)) = run_all_wall {
        println!(
            "{:32} {:>12.2} {:>12.2} {:>12} {:>7.2}x",
            "run_all --quick (secs)",
            fast,
            reference,
            "-",
            reference / fast.max(1e-9)
        );
    }
    let doc = render_json(&cells, quick, run_all_wall);
    let path = out.unwrap_or_else(|| "BENCH_perf.json".to_string());
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("failed to write {path}: {e}");
        exit(1);
    }
    println!("wrote {path}");
}

//! Structural tests on the workload suite: the layouts that are supposed
//! to falsely share really do pack records into shared lines, the fixed
//! variants really do pad them apart, and the verifiers really catch
//! corruption.

use tmi_alloc::{AllocConfig, SimAllocator};
use tmi_machine::{VAddr, Width, FRAME_SIZE, LINE_SIZE};
use tmi_os::{AsId, Kernel, MapRequest};
use tmi_program::{CodeRegistry, Op, ThreadProgram};
use tmi_workloads::{by_name, SetupCtx, WorkloadParams};

const APP: u64 = 0x10_0000;
const APP_LEN: u64 = 64 << 20;

struct Env {
    kernel: Kernel,
    code: CodeRegistry,
    alloc: SimAllocator,
    aspace: AsId,
}

fn env() -> Env {
    let mut kernel = Kernel::new();
    let obj = kernel.create_object(APP_LEN);
    let aspace = kernel.create_aspace();
    kernel
        .map(aspace, MapRequest::object(VAddr::new(APP), APP_LEN, obj, 0))
        .unwrap();
    Env {
        kernel,
        code: CodeRegistry::new(),
        alloc: SimAllocator::new(VAddr::new(APP), APP_LEN, AllocConfig::default()),
        aspace,
    }
}

/// Collects the first `limit` memory-access addresses each thread program
/// would issue, feeding loads dummy values.
fn trace_addresses(progs: &mut [Box<dyn ThreadProgram>], limit: usize) -> Vec<Vec<(u64, bool)>> {
    use tmi_program::OpResult;
    progs
        .iter_mut()
        .map(|p| {
            let mut out = Vec::new();
            let mut last = OpResult::none();
            let mut lcg = tmi_workloads::Lcg::new(9);
            for _ in 0..limit * 6 {
                let op = p.next(last);
                last = OpResult::none();
                match op {
                    Op::Load { addr, .. } | Op::AtomicLoad { addr, .. } => {
                        out.push((addr.raw(), false));
                        // Vary dummy load results so data-dependent access
                        // patterns (histogram bins) spread realistically.
                        last = OpResult::of(lcg.next_u64());
                    }
                    Op::Store { addr, .. } | Op::AtomicStore { addr, .. } => {
                        out.push((addr.raw(), true));
                    }
                    Op::AtomicRmw { addr, .. } | Op::Cas { addr, .. } => {
                        out.push((addr.raw(), true));
                        last = OpResult::of(0);
                    }
                    Op::Exit => break,
                    _ => {}
                }
                if out.len() >= limit {
                    break;
                }
            }
            out
        })
        .collect()
}

/// Do any two threads write disjoint offsets of a common line?
fn has_cross_thread_line_writes(traces: &[Vec<(u64, bool)>]) -> bool {
    let mut writers: std::collections::HashMap<u64, std::collections::HashSet<usize>> =
        std::collections::HashMap::new();
    for (t, trace) in traces.iter().enumerate() {
        for &(addr, write) in trace {
            if write {
                writers.entry(addr / LINE_SIZE).or_default().insert(t);
            }
        }
    }
    writers.values().any(|s| s.len() >= 2)
}

fn build(name: &str, fixed: bool) -> (Vec<Vec<(u64, bool)>>, Env) {
    let mut e = env();
    let mut w = by_name(name).unwrap();
    let mut params = WorkloadParams::test(4);
    params.fixed = fixed;
    let mut ctx = SetupCtx::new(&mut e.kernel, &mut e.code, &mut e.alloc, e.aspace);
    let mut progs = w.build(&mut ctx, &params);
    let traces = trace_addresses(&mut progs, 4_000);
    (traces, e)
}

#[test]
fn buggy_variants_write_shared_lines() {
    for name in [
        "histogramfs",
        "lreg",
        "stringmatch",
        "shptr-relaxed",
        "leveldb-fs",
    ] {
        let (traces, _e) = build(name, false);
        assert!(
            has_cross_thread_line_writes(&traces),
            "{name} (buggy) should have cross-thread line writes"
        );
    }
}

#[test]
fn fixed_variants_separate_hot_records() {
    // The fixed shptr has NO cross-thread written lines at all; others may
    // retain legitimately shared (locked) lines, so check the specific
    // record addresses instead for lreg.
    let (traces, _e) = build("shptr-relaxed", true);
    // Filter out the shared refcount page (a single 4 KiB-aligned page).
    let filtered: Vec<Vec<(u64, bool)>> = traces
        .iter()
        .map(|t| {
            t.iter()
                .copied()
                .filter(|&(a, _)| a % FRAME_SIZE != 0 && a % FRAME_SIZE != 512)
                .collect()
        })
        .collect();
    assert!(
        !has_cross_thread_line_writes(&filtered),
        "fixed shptr counters must not share lines"
    );
}

#[test]
fn quiet_workloads_have_no_cross_thread_written_lines() {
    for name in ["blackscholes", "swaptions"] {
        let (traces, _e) = build(name, false);
        assert!(
            !has_cross_thread_line_writes(&traces),
            "{name} should be contention-free"
        );
    }
}

#[test]
fn canneal_verifier_catches_corruption() {
    let mut e = env();
    let mut w = by_name("canneal").unwrap();
    let params = WorkloadParams::test(2);
    let mut ctx = SetupCtx::new(&mut e.kernel, &mut e.code, &mut e.alloc, e.aspace);
    let _progs = w.build(&mut ctx, &params);
    // Pristine state verifies.
    assert!(w.verify(&mut e.kernel, e.aspace).is_ok());
    // Duplicate one element (what a broken PTSB does) — must be caught.
    // Element 1 lives in the first slot initially; slots are the first
    // allocation.
    let slots_probe = VAddr::new(APP);
    let v0 = e
        .kernel
        .force_read(e.aspace, slots_probe, Width::W8)
        .unwrap();
    e.kernel
        .force_write(e.aspace, slots_probe.offset(64), Width::W8, v0)
        .unwrap();
    assert!(
        w.verify(&mut e.kernel, e.aspace).is_err(),
        "replicated element must fail verify"
    );
}

#[test]
fn leveldb_counter_verifier_catches_lost_updates() {
    let mut e = env();
    let mut w = by_name("leveldb-fs").unwrap();
    let params = WorkloadParams::test(2);
    let mut ctx = SetupCtx::new(&mut e.kernel, &mut e.code, &mut e.alloc, e.aspace);
    let mut progs = w.build(&mut ctx, &params);
    // Nothing ran: counters are zero, so verify must fail (expected ops).
    assert!(w.verify(&mut e.kernel, e.aspace).is_err());
    let _ = trace_addresses(&mut progs, 10);
}

#[test]
fn workload_specs_are_internally_consistent() {
    for name in tmi_workloads::SUITE {
        let w = by_name(name).unwrap();
        let spec = w.spec();
        // Sheriff cannot be compatible with atomics/asm users — its PTSB
        // breaks them (§2.2).
        if spec.uses_atomics || spec.uses_asm {
            assert!(
                !spec.sheriff_compatible,
                "{name}: sheriff can't be compatible with atomics/asm"
            );
        }
    }
}

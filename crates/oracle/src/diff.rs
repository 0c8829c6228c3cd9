//! The differential consistency checker.
//!
//! [`check_litmus`] executes a litmus program twice:
//!
//! 1. **Repaired run** — through the full TMI stack: an [`Engine`] with a
//!    [`TmiRuntime`] in protect mode, the program's data pages PTSB-armed
//!    up front via [`TmiRuntime::force_repair`], execution tracing on.
//!    This exercises T2P conversion, COW faults, twin snapshots,
//!    diff-and-merge commits and the code-centric routing of every access.
//! 2. **Reference run** — the recorded schedule replayed step for step by
//!    the sequentially consistent [`Interp`].
//!
//! The two runs are compared on per-step load/RMW/CAS observations, on
//! final shared-memory contents of every slot, and by an AMBSA detector
//! that flags *torn* values: observations of a multi-byte slot that no
//! thread ever stored, the Fig. 3 word-tearing signature of byte-granular
//! PTSB merges. With code-centric consistency ON and the generator's
//! data-race-free slot discipline, every check must come back clean; with
//! the `code_centric` ablation the same seeds reproduce the stale-atomic,
//! lost-update and torn-value failures of Figs. 11–12.
//!
//! A divergent program is greedily minimized (drop the post-barrier
//! phase, drop the barrier, truncate threads at region-balanced cut
//! points) while the original divergence kind persists, and the report
//! carries the full listing plus the `fuzz_consistency` command that
//! reproduces it from the seed alone.

use std::fmt;

use tmi::{AppLayout, GovernorState, RepairStats, TmiConfig, TmiRuntime};
use tmi_faultpoint::{FaultInjector, FaultPlan, FaultStats};
use tmi_machine::{VAddr, Width};
use tmi_os::{AsId, Kernel, MapRequest};
use tmi_program::{width_mask, Op, SequenceProgram};
use tmi_sim::{Engine, EngineConfig, Halt, TraceStep};

use crate::interp::Interp;
use crate::litmus::{self, Coverage, Litmus};

/// Cap on the per-step value divergences recorded for one program.
const MAX_DIVERGENCES: usize = 8;

/// Checker configuration.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Code-centric consistency on (the real system) or off (the
    /// Sheriff-style ablation that is *expected* to diverge).
    pub code_centric: bool,
    /// Fault-campaign base seed: `Some(base)` runs the repaired execution
    /// under a seeded fault schedule derived from
    /// [`derive_fault_seed`]`(base, program_seed)`, so `(program seed,
    /// fault seed)` reproduces any failure. Repair may retry, degrade,
    /// roll back or revert under the schedule — results still may not
    /// diverge from the oracle.
    pub faults: Option<u64>,
    /// Transistency ablation: run the repaired execution with precise
    /// per-PTE TLB shootdowns disabled (the "forgotten IPI" bug class), so
    /// stale translations in the software TLB can actually serve.
    /// Expected to diverge on VM-op programs — the proof that the oracle
    /// can see transistency violations.
    pub ablate_shootdown: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            code_centric: true,
            faults: None,
            ablate_shootdown: false,
        }
    }
}

/// Derives the per-program fault seed from the campaign's base fault seed
/// — the `(program seed, fault seed)` reproduction convention.
pub fn derive_fault_seed(base: u64, program_seed: u64) -> u64 {
    base ^ program_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What the fault schedule did to one checked seed.
#[derive(Clone, Debug)]
pub struct FaultSummary {
    /// The campaign's base fault seed (`--faults` argument).
    pub base_seed: u64,
    /// The derived per-program fault seed that drove the schedule.
    pub fault_seed: u64,
    /// Per-point roll/fire counts.
    pub stats: FaultStats,
    /// Governor counters after the run (retries, recoveries, rollbacks,
    /// degraded pages, efficacy reverts).
    pub governor: RepairStats,
    /// Governor lifecycle state at end of run.
    pub state: GovernorState,
}

impl fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = &self.governor;
        write!(
            f,
            "faults(seed {}): {}; governor: retries={} recoveries={} \
             rollbacks={} degraded={} reverts={} state={:?}",
            self.fault_seed,
            self.stats,
            g.retries,
            g.transient_recoveries,
            g.rollbacks,
            g.pages_degraded,
            g.efficacy_reverts,
            self.state
        )
    }
}

/// What kind of disagreement was found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// A load/RMW/CAS observed a different value than the oracle.
    ValueMismatch,
    /// The engine executed a different op than the program prescribes.
    OpMismatch,
    /// Final shared-memory contents of a slot differ.
    FinalMemory,
    /// An observed or final value of a multi-byte slot was never stored
    /// by any thread (AMBSA violation — word tearing).
    TornValue,
    /// The engine schedule cannot be replayed against the program.
    ScheduleInfeasible,
    /// The repaired run did not complete (hang or fault).
    Halted,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivergenceKind::ValueMismatch => "value-mismatch",
            DivergenceKind::OpMismatch => "op-mismatch",
            DivergenceKind::FinalMemory => "final-memory",
            DivergenceKind::TornValue => "torn-value",
            DivergenceKind::ScheduleInfeasible => "schedule-infeasible",
            DivergenceKind::Halted => "halted",
        };
        f.write_str(s)
    }
}

/// One recorded disagreement between the repaired run and the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Classification.
    pub kind: DivergenceKind,
    /// Trace step it was detected at (`None` for end-of-run checks).
    pub step: Option<usize>,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step {
            Some(k) => write!(f, "[{}] step {k}: {}", self.kind, self.detail),
            None => write!(f, "[{}] {}", self.kind, self.detail),
        }
    }
}

/// Result of checking one litmus program.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Seed of the checked program.
    pub seed: u64,
    /// Consistency mode of the repaired run.
    pub code_centric: bool,
    /// Whether precise TLB shootdowns were ablated for the repaired run.
    pub ablate_shootdown: bool,
    /// Trace length of the (possibly minimized) repaired run.
    pub steps: usize,
    /// Divergences found (empty means the oracle agrees).
    pub divergences: Vec<Divergence>,
    /// Static coverage of the reported program.
    pub coverage: Coverage,
    /// The reported program (minimized if divergent).
    pub litmus: Litmus,
    /// True if the program was successfully shrunk.
    pub minimized: bool,
    /// Fault-schedule summary of the original (unminimized) run, present
    /// only in fault-campaign mode.
    pub faults: Option<FaultSummary>,
}

impl CheckReport {
    /// True if the repaired run matched the oracle everywhere.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Full report: verdict, divergences, program listing and the exact
    /// command reproducing it from the seed.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mode = match (self.code_centric, self.ablate_shootdown) {
            (true, false) => "code-centric on",
            (false, false) => "code-centric OFF",
            (true, true) => "code-centric on, shootdown OFF",
            (false, true) => "code-centric OFF, shootdown OFF",
        };
        let vm_flag = if self.litmus.has_vm_ops() {
            " --transistency"
        } else {
            ""
        };
        let shootdown_flag = if self.ablate_shootdown {
            " --ablate-shootdown"
        } else {
            ""
        };
        let mut s = String::new();
        if self.clean() {
            let _ = writeln!(
                s,
                "seed {} ({mode}): CLEAN over {} steps [{}]",
                self.seed, self.steps, self.coverage
            );
            if let Some(fs) = &self.faults {
                let _ = writeln!(s, "  {fs}");
                let _ = writeln!(
                    s,
                    "  reproduce: fuzz_consistency -- --start {} --seeds 1{vm_flag} --faults {}",
                    self.seed, fs.base_seed
                );
            }
            return s;
        }
        let _ = writeln!(
            s,
            "seed {} ({mode}): {} divergence(s) in {} steps{}",
            self.seed,
            self.divergences.len(),
            self.steps,
            if self.minimized { " [minimized]" } else { "" }
        );
        for d in &self.divergences {
            let _ = writeln!(s, "  {d}");
        }
        let _ = writeln!(s, "coverage: {}", self.coverage);
        if let Some(fs) = &self.faults {
            let _ = writeln!(s, "{fs}");
        }
        let _ = writeln!(s, "program:");
        for line in self.litmus.listing().lines() {
            let _ = writeln!(s, "  {line}");
        }
        let faults_flag = match &self.faults {
            Some(fs) => format!(" --faults {}", fs.base_seed),
            None => String::new(),
        };
        let _ = writeln!(
            s,
            "reproduce: fuzz_consistency -- --start {} --seeds 1{vm_flag}{}{shootdown_flag}{faults_flag}",
            self.seed,
            if self.code_centric {
                ""
            } else {
                " --ablate-code-centric"
            }
        );
        s
    }
}

/// Generates the litmus program for `seed` and checks it.
pub fn check_seed(seed: u64, cfg: &CheckConfig) -> CheckReport {
    check_litmus(&Litmus::generate(seed), cfg)
}

/// Generates the *transistency* litmus program for `seed` — VM operations
/// (`mprotect`, COW break, T2P conversion, twin commit, TLB shootdown)
/// interleaved with the consistency vocabulary — and checks it.
pub fn check_transistency_seed(seed: u64, cfg: &CheckConfig) -> CheckReport {
    check_litmus(&Litmus::generate_vm(seed), cfg)
}

/// The bounded schedule-enumeration (DPOR-lite) mode: checks every
/// deterministic VM-op placement of `seed`'s small base program (see
/// [`Litmus::vm_variants`]), up to `cap` variants. Returns one report per
/// variant, in enumeration order.
pub fn check_transistency_variants(seed: u64, cap: usize, cfg: &CheckConfig) -> Vec<CheckReport> {
    Litmus::vm_variants(seed, cap)
        .iter()
        .map(|lit| check_litmus(lit, cfg))
        .collect()
}

/// Checks `seed`'s litmus program once (no minimization) with telemetry
/// tracing enabled, and returns the report together with the Chrome
/// `trace_event` JSON of the repaired run — the full repair episode
/// (trigger → fork/T2P → twin snapshots → commits) on the litmus fixture.
pub fn trace_seed(seed: u64, cfg: &CheckConfig) -> (CheckReport, String) {
    let lit = Litmus::generate(seed);
    let tracer = tmi_telemetry::Tracer::enabled();
    let (divergences, steps, faults, phases) = run_traced(&lit, cfg, &tracer);
    let report = CheckReport {
        seed: lit.seed,
        code_centric: cfg.code_centric,
        ablate_shootdown: cfg.ablate_shootdown,
        steps,
        divergences,
        coverage: lit.coverage(),
        litmus: lit,
        minimized: false,
        faults,
    };
    let events = tracer.take_events();
    let trace = tmi_telemetry::chrome::export_trace(
        &events,
        &phases,
        tmi_machine::LatencyModel::CLOCK_HZ,
        None,
    );
    (report, trace)
}

/// Every observable of one repaired litmus run, captured for the
/// TLB equivalence suite: how the run halted, its simulated clocks, the
/// executed schedule with all load observations, and the full flat
/// metrics snapshot (machine, OS, TLB and runtime counters).
#[derive(Clone, Debug)]
pub struct RawRun {
    /// Why the run stopped.
    pub halt: Halt,
    /// Wall time of the run in simulated cycles.
    pub cycles: u64,
    /// Final clock of each thread.
    pub thread_cycles: Vec<u64>,
    /// Dynamic operations executed.
    pub ops: u64,
    /// The executed schedule and every value observed along it.
    pub trace: Vec<TraceStep>,
    /// Flat metrics snapshot (`machine.*`, `os.*`, `os.tlb.*`, `tmi.*`).
    pub metrics: tmi_telemetry::MetricsSnapshot,
}

/// Runs `seed`'s litmus program through the full repaired TMI stack with
/// the per-address-space software TLBs on (`tlb = true`, as every real
/// run) or off (a [`Kernel::with_tlb`]`(false)` kernel that walks the page
/// table on every translation), and returns every observable of the run.
/// The TLB is required to be behaviorally invisible, so for any seed the
/// two variants must agree on everything except the `os.tlb.*` counters
/// themselves — the contract `tests/fastpath_equivalence.rs` enforces.
pub fn run_seed_raw(seed: u64, tlb: bool) -> RawRun {
    run_litmus_raw(&Litmus::generate(seed), tlb)
}

/// [`run_seed_raw`] over the transistency program of `seed`: the same
/// TLB-invisibility contract, but the run now exercises explicit VM
/// operations — whose outcome codes land in the trace value slots and
/// therefore must also be byte-identical across the two variants.
pub fn run_transistency_seed_raw(seed: u64, tlb: bool) -> RawRun {
    run_litmus_raw(&Litmus::generate_vm(seed), tlb)
}

fn run_litmus_raw(lit: &Litmus, tlb: bool) -> RawRun {
    let cfg = CheckConfig::default();
    let (mut engine, _aspace) =
        build_fixture(lit, &cfg, &tmi_telemetry::Tracer::disabled(), None, tlb);
    let run = engine.run();
    let trace = engine.take_trace();
    let metrics = engine.metrics("tmi");
    RawRun {
        halt: run.halt,
        cycles: run.cycles,
        thread_cycles: run.thread_cycles,
        ops: run.ops,
        trace,
        metrics,
    }
}

/// Checks one litmus program (see the module docs).
pub fn check_litmus(lit: &Litmus, cfg: &CheckConfig) -> CheckReport {
    let (mut divergences, mut steps, faults) = run_once(lit, cfg);
    let mut litmus = lit.clone();
    let mut minimized = false;
    if let Some(first) = divergences.first() {
        let target = first.kind;
        let small = minimize(lit, cfg, target);
        if small != *lit {
            // The fault summary stays that of the original run — the
            // minimized replay re-derives the same schedule but fires
            // fewer points, and the campaign aggregates full-run stats.
            let (d, s, _) = run_once(&small, cfg);
            if d.iter().any(|x| x.kind == target) {
                divergences = d;
                steps = s;
                litmus = small;
                minimized = true;
            }
        }
    }
    CheckReport {
        seed: lit.seed,
        code_centric: cfg.code_centric,
        ablate_shootdown: cfg.ablate_shootdown,
        steps,
        divergences,
        coverage: litmus.coverage(),
        litmus,
        minimized,
        faults,
    }
}

/// Builds the standard litmus fixture, runs the repaired execution, and
/// diffs it against the schedule-replaying oracle.
fn run_once(lit: &Litmus, cfg: &CheckConfig) -> (Vec<Divergence>, usize, Option<FaultSummary>) {
    let (divergences, steps, faults, _) = run_traced(lit, cfg, &tmi_telemetry::Tracer::disabled());
    (divergences, steps, faults)
}

/// Builds the standard litmus fixture: a 4-core engine running a
/// protect-mode [`TmiRuntime`], the app and internal objects mapped, one
/// engine thread per litmus thread, repair forced on the program's data
/// pages, and execution tracing enabled. `tlb = false` installs the
/// walk-every-time kernel. Shared by the differential checker and the TLB
/// equivalence suite ([`run_seed_raw`]).
fn build_fixture(
    lit: &Litmus,
    cfg: &CheckConfig,
    tracer: &tmi_telemetry::Tracer,
    injector: Option<&FaultInjector>,
    tlb: bool,
) -> (Engine<TmiRuntime>, AsId) {
    let mut ecfg = EngineConfig::with_cores(4);
    // Litmus runs are far too short for the sampling detector; repair is
    // forced below and the detection thread never ticks.
    ecfg.tick_interval = u64::MAX;
    let layout = AppLayout {
        app_start: VAddr::new(litmus::APP_START),
        app_len: litmus::APP_LEN,
        internal_start: VAddr::new(litmus::INTERNAL_START),
        internal_len: litmus::INTERNAL_LEN,
        huge_pages: false,
    };
    let mut tcfg = TmiConfig {
        code_centric: cfg.code_centric,
        fs_threshold_per_sec: f64::INFINITY,
        ..TmiConfig::protect()
    };
    if let Some(inj) = injector {
        // Litmus runs are far shorter than the paper's sampling period, so
        // sample every HITM — otherwise the PEBS-drop fault point never
        // sees a record to lose.
        tcfg.perf.period = 1;
        if inj.efficacy_probe() {
            // Efficacy-probe schedules run the detection thread and judge
            // any commit overhead a net loss, so the first post-repair
            // window with commits reverts repair mid-run.
            ecfg.tick_interval = 25_000;
            tcfg.efficacy_revert_threshold = 0.0;
        }
    }
    let mut rt = TmiRuntime::new(tcfg, layout);
    rt.set_tracer(tracer.clone());
    if let Some(inj) = injector {
        rt.set_fault_injector(inj.clone());
    }
    let mut engine = Engine::new(ecfg, rt);
    let k = &mut engine.core_mut().kernel;
    if !tlb {
        *k = Kernel::with_tlb(false);
    }
    if let Some(inj) = injector {
        k.set_fault_injector(inj.clone());
    }
    if cfg.ablate_shootdown {
        k.set_tlb_shootdown(false);
    }
    let app = k.create_object(litmus::APP_LEN);
    let internal = k.create_object(litmus::INTERNAL_LEN);
    let aspace = k.create_aspace();
    // Fixture maps tolerate injected transient map failures (burst length
    // is bounded well below this retry budget).
    k.map_retrying(
        aspace,
        MapRequest::object(VAddr::new(litmus::APP_START), litmus::APP_LEN, app, 0),
        8,
    )
    .expect("map app object");
    k.map_retrying(
        aspace,
        MapRequest::object(
            VAddr::new(litmus::INTERNAL_START),
            litmus::INTERNAL_LEN,
            internal,
            0,
        ),
        8,
    )
    .expect("map internal object");
    engine.create_root_process(aspace);
    for ops in &lit.threads {
        engine.add_thread(Box::new(SequenceProgram::new(ops.clone())));
    }
    if !lit.has_vm_ops() {
        // Transistency programs carry a mandatory pre-barrier T2P op and
        // trigger repair *mid-schedule* themselves — forcing it up front
        // would erase exactly the conversion window they probe.
        let pages = lit.data_pages();
        let (rt, core) = engine.runtime_and_core();
        rt.force_repair(core, &pages);
    }
    engine.enable_trace();
    (engine, aspace)
}

/// [`run_once`] with an explicit telemetry tracer (disabled in the fuzz
/// hot path so checking stays allocation-lean), also returning the
/// runtime's per-phase cycle profile for the trace export.
fn run_traced(
    lit: &Litmus,
    cfg: &CheckConfig,
    tracer: &tmi_telemetry::Tracer,
) -> (
    Vec<Divergence>,
    usize,
    Option<FaultSummary>,
    tmi_telemetry::PhaseProfile,
) {
    let faults = cfg.faults.map(|base| {
        let fseed = derive_fault_seed(base, lit.seed);
        (base, fseed, FaultInjector::new(FaultPlan::from_seed(fseed)))
    });
    let (mut engine, aspace) = build_fixture(
        lit,
        cfg,
        tracer,
        faults.as_ref().map(|(_, _, inj)| inj),
        true,
    );
    let run = engine.run();
    let trace = engine.take_trace();
    let steps = trace.len();

    let mut divs = Vec::new();
    if !run.completed() {
        divs.push(Divergence {
            kind: DivergenceKind::Halted,
            step: None,
            detail: format!("repaired run ended with {:?} after {steps} steps", run.halt),
        });
    } else {
        // Replay the exact schedule through the SC oracle.
        let mut interp = Interp::new(lit.threads.clone());
        let mut replay_complete = true;
        for (k, st) in trace.iter().enumerate() {
            match interp.step(st.thread) {
                Err(e) => {
                    divs.push(Divergence {
                        kind: DivergenceKind::ScheduleInfeasible,
                        step: Some(k),
                        detail: e,
                    });
                    replay_complete = false;
                    break;
                }
                Ok(r) => {
                    if r.op != st.op {
                        divs.push(Divergence {
                            kind: DivergenceKind::OpMismatch,
                            step: Some(k),
                            detail: format!(
                                "t{}: engine executed `{}`, program prescribes `{}`",
                                st.thread, st.op, r.op
                            ),
                        });
                        replay_complete = false;
                        break;
                    }
                    // VM-op trace values are engine outcome codes, not
                    // memory observations — the SC oracle has no mapping
                    // state to predict them (they are checked TLB-on vs
                    // TLB-off by the equivalence suite instead).
                    let vm = matches!(st.op, Op::Vm { .. });
                    if !vm && r.value != st.value && divs.len() < MAX_DIVERGENCES {
                        divs.push(Divergence {
                            kind: DivergenceKind::ValueMismatch,
                            step: Some(k),
                            detail: format!(
                                "t{} `{}`: engine {}, oracle {}",
                                st.thread,
                                st.op,
                                fmt_val(st.value),
                                fmt_val(r.value)
                            ),
                        });
                    }
                }
            }
        }

        // Final shared-memory contents, slot by slot, straight from the
        // object frames (the view every process shares after commits).
        if replay_complete {
            for (i, slot) in lit.slots.iter().enumerate() {
                let engine_v = shared_read(&mut engine, aspace, slot.addr, slot.width);
                let oracle_v = interp.read(slot.addr, slot.width);
                if engine_v != oracle_v {
                    divs.push(Divergence {
                        kind: DivergenceKind::FinalMemory,
                        step: None,
                        detail: format!(
                            "slot s{i} @ {}: engine {engine_v:#x}, oracle {oracle_v:#x}",
                            slot.addr
                        ),
                    });
                }
            }
        }

        // AMBSA: no multi-byte slot may ever expose a value nobody stored.
        torn_values(lit, &trace, &mut engine, aspace, &mut divs);
    }

    let summary = faults.map(|(base, fseed, inj)| FaultSummary {
        base_seed: base,
        fault_seed: fseed,
        stats: inj.stats(),
        governor: engine.runtime().observe().repair().stats().clone(),
        state: engine.runtime().observe().repair().state(),
    });
    (divs, steps, summary, engine.runtime().observe().phases())
}

fn fmt_val(v: Option<u64>) -> String {
    match v {
        Some(v) => format!("{v:#x}"),
        None => "none".to_string(),
    }
}

fn shared_read<R: tmi_sim::RuntimeHooks>(
    engine: &mut Engine<R>,
    aspace: AsId,
    addr: VAddr,
    width: Width,
) -> u64 {
    let pa = engine
        .core_mut()
        .kernel
        .object_paddr(aspace, addr)
        .expect("slot is object backed");
    engine.core_mut().kernel.physmem().read(pa, width)
}

/// Scans the trace for aligned-multi-byte-store-atomicity violations: a
/// value observed from (or left in) a slot that is in no prefix of the
/// slot's store history — the byte-mixed result of overlapping PTSB
/// commits (Fig. 3).
fn torn_values(
    lit: &Litmus,
    trace: &[TraceStep],
    engine: &mut Engine<TmiRuntime>,
    aspace: AsId,
    divs: &mut Vec<Divergence>,
) {
    for (i, slot) in lit.slots.iter().enumerate() {
        if slot.width == Width::W1 {
            continue; // single bytes cannot tear
        }
        let mask = width_mask(slot.width);
        let mut candidates: Vec<u64> = vec![0];
        let mut reported = 0usize;
        let note = |candidates: &mut Vec<u64>, v: u64| {
            if !candidates.contains(&v) {
                candidates.push(v);
            }
        };
        for (k, st) in trace.iter().enumerate() {
            let observe = |candidates: &mut Vec<u64>, v: u64, reported: &mut usize| -> bool {
                let torn = !candidates.contains(&v);
                if torn {
                    // Remember it so one torn value isn't reported per read.
                    candidates.push(v);
                }
                torn && {
                    *reported += 1;
                    *reported <= 2
                }
            };
            match st.op {
                Op::Store {
                    addr, width, value, ..
                }
                | Op::AtomicStore {
                    addr, width, value, ..
                } if addr == slot.addr && width == slot.width => {
                    note(&mut candidates, value & mask);
                }
                Op::AtomicRmw {
                    addr,
                    width,
                    rmw,
                    operand,
                    ..
                } if addr == slot.addr && width == slot.width => {
                    let old = st.value.unwrap_or(0);
                    if observe(&mut candidates, old, &mut reported) {
                        divs.push(torn(i, slot.addr, k, old));
                    }
                    note(&mut candidates, rmw.apply(old, operand, width));
                }
                Op::Cas {
                    addr,
                    width,
                    expected,
                    desired,
                    ..
                } if addr == slot.addr && width == slot.width => {
                    let obs = st.value.unwrap_or(0);
                    if observe(&mut candidates, obs, &mut reported) {
                        divs.push(torn(i, slot.addr, k, obs));
                    }
                    if obs == expected {
                        note(&mut candidates, desired & mask);
                    }
                }
                Op::Load { addr, width, .. } | Op::AtomicLoad { addr, width, .. }
                    if addr == slot.addr && width == slot.width =>
                {
                    let obs = st.value.unwrap_or(0);
                    if observe(&mut candidates, obs, &mut reported) {
                        divs.push(torn(i, slot.addr, k, obs));
                    }
                }
                _ => {}
            }
        }
        let final_v = shared_read(engine, aspace, slot.addr, slot.width);
        if !candidates.contains(&final_v) {
            divs.push(Divergence {
                kind: DivergenceKind::TornValue,
                step: None,
                detail: format!(
                    "slot s{i} @ {}: final value {final_v:#x} was never stored by any thread",
                    slot.addr
                ),
            });
        }
    }
}

fn torn(slot: usize, addr: VAddr, step: usize, v: u64) -> Divergence {
    Divergence {
        kind: DivergenceKind::TornValue,
        step: Some(step),
        detail: format!("slot s{slot} @ {addr}: observed {v:#x}, never stored by any thread"),
    }
}

/// Greedy shrinking: drop the post-barrier phase, drop the barrier, then
/// repeatedly truncate threads at region-balanced cut points — accepting
/// each candidate only if a divergence of the original kind persists.
fn minimize(lit: &Litmus, cfg: &CheckConfig, target: DivergenceKind) -> Litmus {
    let budget = std::cell::Cell::new(48usize);
    let diverges = |cand: &Litmus| -> bool {
        if budget.get() == 0 {
            return false;
        }
        budget.set(budget.get() - 1);
        run_once(cand, cfg).0.iter().any(|d| d.kind == target)
    };

    let mut cur = lit.clone();
    let cand = truncate_after_barrier(&cur);
    if cand != cur && diverges(&cand) {
        cur = cand;
    }
    let cand = remove_barrier(&cur);
    if cand != cur && diverges(&cand) {
        cur = cand;
    }
    // Drop VM ops one at a time, back to front so indices stay valid.
    // They are depth-neutral single ops, so removal never unbalances a
    // region; even the generator's mandatory T2P may go if the divergence
    // survives without it.
    for t in 0..cur.threads.len() {
        let mut i = cur.threads[t].len();
        while i > 0 {
            i -= 1;
            if matches!(cur.threads[t][i], Op::Vm { .. }) {
                let mut cand = cur.clone();
                cand.threads[t].remove(i);
                if diverges(&cand) {
                    cur = cand;
                }
            }
        }
    }
    loop {
        let mut improved = false;
        for t in 0..cur.threads.len() {
            while let Some(cut) = last_balanced_cut(&cur.threads[t]) {
                let mut cand = cur.clone();
                cand.threads[t].truncate(cut);
                if diverges(&cand) {
                    cur = cand;
                    improved = true;
                } else {
                    break;
                }
            }
        }
        if !improved || budget.get() == 0 {
            break;
        }
    }
    cur
}

fn truncate_after_barrier(lit: &Litmus) -> Litmus {
    let mut out = lit.clone();
    for ops in &mut out.threads {
        if let Some(b) = ops.iter().position(|o| matches!(o, Op::BarrierWait { .. })) {
            ops.truncate(b + 1);
        }
    }
    out
}

fn remove_barrier(lit: &Litmus) -> Litmus {
    let mut out = lit.clone();
    for ops in &mut out.threads {
        ops.retain(|o| !matches!(o, Op::BarrierWait { .. }));
    }
    out
}

/// The largest strict prefix length at which no asm region or critical
/// section is open and the thread's barrier (if any) is retained.
fn last_balanced_cut(ops: &[Op]) -> Option<usize> {
    let barrier = ops.iter().position(|o| matches!(o, Op::BarrierWait { .. }));
    let floor = barrier.map_or(0, |b| b + 1);
    let mut depth = 0i32;
    let mut best = None;
    for (i, op) in ops.iter().enumerate() {
        if i >= floor && depth == 0 && i < ops.len() {
            best = Some(i);
        }
        match op {
            Op::AsmEnter | Op::MutexLock { .. } | Op::SpinLock { .. } => depth += 1,
            Op::AsmExit | Op::MutexUnlock { .. } | Op::SpinUnlock { .. } => depth -= 1,
            _ => {}
        }
    }
    // `best` is the last depth-0 position strictly before the end; cutting
    // there removes at least one op.
    best.filter(|&b| b < ops.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_seed_replays_clean() {
        let cfg = CheckConfig::default();
        let r = check_seed(1, &cfg);
        assert!(r.clean(), "unexpected divergences:\n{}", r.render());
        assert!(r.steps > 0);
        assert!(r.render().contains("CLEAN"));
    }

    #[test]
    fn ablation_diverges_and_reports_reproducibly() {
        let cfg = CheckConfig {
            code_centric: false,
            ..CheckConfig::default()
        };
        let seed = (0..64)
            .find(|&s| !check_seed(s, &cfg).clean())
            .expect("some seed must diverge with code-centric off");
        let a = check_seed(seed, &cfg);
        let b = check_seed(seed, &cfg);
        assert_eq!(a.render(), b.render(), "report must be deterministic");
        assert!(a.render().contains("reproduce: fuzz_consistency"));
        assert!(a.render().contains("--ablate-code-centric"));
        assert!(a.litmus.total_ops() > 0);
    }

    #[test]
    fn minimizer_shrinks_divergent_programs() {
        let cfg = CheckConfig {
            code_centric: false,
            ..CheckConfig::default()
        };
        let seed = (0..64)
            .find(|&s| !check_seed(s, &cfg).clean())
            .expect("some seed must diverge with code-centric off");
        let original = Litmus::generate(seed);
        let r = check_seed(seed, &cfg);
        assert!(
            r.litmus.total_ops() <= original.total_ops(),
            "minimization never grows the program"
        );
        // The minimized program still diverges with the same first kind.
        let kinds: Vec<DivergenceKind> = r.divergences.iter().map(|d| d.kind).collect();
        assert!(!kinds.is_empty());
    }

    #[test]
    fn fault_mode_checks_clean_and_is_deterministic() {
        use tmi_faultpoint::FaultPoint;
        let cfg = CheckConfig {
            faults: Some(0xF00D),
            ..CheckConfig::default()
        };
        let a = check_seed(5, &cfg);
        let b = check_seed(5, &cfg);
        assert!(
            a.clean(),
            "faults may abort repair, never diverge:\n{}",
            a.render()
        );
        assert_eq!(
            a.render(),
            b.render(),
            "(program seed, fault seed) must reproduce the run exactly"
        );
        let fs = a.faults.as_ref().expect("fault summary present");
        assert_eq!(fs.base_seed, 0xF00D);
        assert_eq!(fs.fault_seed, derive_fault_seed(0xF00D, 5));
        let rolls: u64 = FaultPoint::ALL.iter().map(|&p| fs.stats.get(p).rolls).sum();
        assert!(rolls > 0, "the repair path must roll fault points");
        assert!(a.render().contains("--faults 61453"), "{}", a.render());
    }

    #[test]
    fn fault_free_check_reports_no_fault_summary() {
        let r = check_seed(5, &CheckConfig::default());
        assert!(r.faults.is_none());
        assert!(!r.render().contains("faults("));
    }

    #[test]
    fn transistency_seeds_check_clean_with_tmi_on() {
        let cfg = CheckConfig::default();
        for seed in 0..8 {
            let r = check_transistency_seed(seed, &cfg);
            assert!(
                r.litmus.has_vm_ops(),
                "seed {seed}: transistency program must carry VM ops"
            );
            assert!(r.clean(), "seed {seed} diverged:\n{}", r.render());
        }
    }

    #[test]
    fn enumerated_vm_variants_check_clean() {
        let cfg = CheckConfig::default();
        let reports = check_transistency_variants(11, 12, &cfg);
        assert!(!reports.is_empty());
        for (k, r) in reports.iter().enumerate() {
            assert!(r.clean(), "variant {k} diverged:\n{}", r.render());
        }
    }

    #[test]
    fn shootdown_ablation_diverges_deterministically_and_minimizes() {
        let cfg = CheckConfig {
            ablate_shootdown: true,
            ..CheckConfig::default()
        };
        let seed = (0..64)
            .find(|&s| !check_transistency_seed(s, &cfg).clean())
            .expect("some transistency seed must diverge with shootdowns ablated");
        let a = check_transistency_seed(seed, &cfg);
        let b = check_transistency_seed(seed, &cfg);
        assert_eq!(a.render(), b.render(), "report must be deterministic");
        assert!(a.render().contains("--transistency"), "{}", a.render());
        assert!(a.render().contains("--ablate-shootdown"), "{}", a.render());
        assert!(
            a.litmus.total_ops() <= Litmus::generate_vm(seed).total_ops(),
            "minimization never grows the program"
        );
    }

    #[test]
    fn balanced_cut_respects_regions_and_barrier() {
        let lit = Litmus::generate(3);
        for ops in &lit.threads {
            if let Some(cut) = last_balanced_cut(ops) {
                let mut depth = 0i32;
                for op in &ops[..cut] {
                    match op {
                        Op::AsmEnter | Op::MutexLock { .. } | Op::SpinLock { .. } => depth += 1,
                        Op::AsmExit | Op::MutexUnlock { .. } | Op::SpinUnlock { .. } => depth -= 1,
                        _ => {}
                    }
                }
                assert_eq!(depth, 0, "cut leaves a region open");
                assert!(
                    ops[..cut]
                        .iter()
                        .any(|o| matches!(o, Op::BarrierWait { .. })),
                    "cut must not drop the barrier"
                );
            }
        }
    }
}

//! The experiment harness: builds a full simulation for one (workload,
//! runtime) pair, runs it, verifies the output, and collects every metric
//! the paper's tables and figures report.

use tmi::{AppLayout, MemoryBreakdown, TmiConfig, TmiRuntime};
use tmi_alloc::{AllocConfig, AllocPolicy, SimAllocator};
use tmi_baselines::{LaserRuntime, PlasticRuntime, SheriffConfig, SheriffRuntime};
use tmi_faultpoint::{FaultInjector, FaultPlan};
use tmi_machine::{LatencyModel, VAddr, FRAME_SIZE};
use tmi_perf::PerfConfig;
use tmi_sim::{Engine, EngineConfig, EngineCore, Halt, NullRuntime, RuntimeHooks};
use tmi_telemetry::{MetricSource, MetricsSnapshot, PhaseProfile, Tracer};
use tmi_workloads::{SetupCtx, Workload, WorkloadParams};

use crate::spec::JobSpec;

/// The process layout of a harness run: the app object at the 64 MiB
/// mark (2 MiB aligned, so huge pages fit), 16 MiB long or 64 MiB for a
/// big-memory workload, and TMI's 8 MiB internal region at 1 GiB.
pub fn app_layout(big_memory: bool, huge_pages: bool) -> AppLayout {
    AppLayout {
        app_start: VAddr::new(64 << 20),
        app_len: if big_memory { 64 << 20 } else { 16 << 20 },
        internal_start: VAddr::new(1 << 30),
        internal_len: 8 << 20,
        huge_pages,
    }
}

/// Which runtime system supervises the run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuntimeKind {
    /// Plain pthreads with the Lockless-style allocator (the baseline all
    /// figures normalize to). Anonymous memory, cheap faults.
    Pthreads,
    /// Baseline execution but with all allocations redirected to TMI's
    /// process-shared memory (the `tmi-alloc` bars of Fig. 7).
    TmiAlloc,
    /// TMI monitoring without repair (`tmi-detect`).
    TmiDetect,
    /// Full TMI (`TMI-protect`).
    TmiProtect,
    /// TMI with targeted protection disabled — the PTSB-everywhere
    /// ablation of §4.3.
    TmiPtsbEverywhere,
    /// TMI with code-centric consistency disabled (Figs. 11–12 ablation).
    TmiNoCodeCentric,
    /// Sheriff's detection tool.
    SheriffDetect,
    /// Sheriff's prevention tool.
    SheriffProtect,
    /// LASER.
    Laser,
    /// The Plastic-style comparator.
    Plastic,
}

impl RuntimeKind {
    /// Every runtime, in figure order.
    pub const ALL: [RuntimeKind; 10] = [
        RuntimeKind::Pthreads,
        RuntimeKind::TmiAlloc,
        RuntimeKind::TmiDetect,
        RuntimeKind::TmiProtect,
        RuntimeKind::TmiPtsbEverywhere,
        RuntimeKind::TmiNoCodeCentric,
        RuntimeKind::SheriffDetect,
        RuntimeKind::SheriffProtect,
        RuntimeKind::Laser,
        RuntimeKind::Plastic,
    ];

    /// The inverse of [`RuntimeKind::label`] — how wire requests and CLI
    /// flags name a runtime.
    pub fn from_label(label: &str) -> Option<RuntimeKind> {
        Self::ALL.iter().copied().find(|r| r.label() == label)
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Pthreads => "pthreads",
            RuntimeKind::TmiAlloc => "tmi-alloc",
            RuntimeKind::TmiDetect => "tmi-detect",
            RuntimeKind::TmiProtect => "tmi-protect",
            RuntimeKind::TmiPtsbEverywhere => "tmi-ptsb-everywhere",
            RuntimeKind::TmiNoCodeCentric => "tmi-no-ccc",
            RuntimeKind::SheriffDetect => "sheriff-detect",
            RuntimeKind::SheriffProtect => "sheriff-protect",
            RuntimeKind::Laser => "laser",
            RuntimeKind::Plastic => "plastic",
        }
    }

    /// Whether this runtime ships its own allocator (and therefore escapes
    /// allocator-induced false sharing like lu-ncb's, §4.3).
    pub fn has_own_allocator(self) -> bool {
        !matches!(
            self,
            RuntimeKind::Pthreads | RuntimeKind::Laser | RuntimeKind::Plastic
        )
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Runtime label.
    pub runtime: &'static str,
    /// How the run ended.
    pub halt: Halt,
    /// Wall time in cycles (max thread clock).
    pub cycles: u64,
    /// Wall time in simulated seconds.
    pub seconds: f64,
    /// Dynamic ops executed.
    pub ops: u64,
    /// Output verification outcome.
    pub verified: Result<(), String>,
    /// HITM events observed by the machine.
    pub hitm_events: u64,
    /// PEBS records captured by the runtime's perf monitor (0 for
    /// runtimes without one).
    pub perf_records: u64,
    /// HITM events seen by the runtime's perf monitor.
    pub perf_events: u64,
    /// Whether online repair activated.
    pub repaired: bool,
    /// PTSB commit events.
    pub commits: u64,
    /// Cycle at which threads became processes, if they did.
    pub converted_at: Option<u64>,
    /// Stop-the-world conversion cost in cycles.
    pub t2p_cycles: u64,
    /// Total memory footprint in bytes (app + runtime overheads).
    pub memory_bytes: u64,
    /// App-only memory in bytes.
    pub app_bytes: u64,
    /// Demand page faults taken.
    pub faults: u64,
    /// Simulated cycles the runtime charged per repair phase (zero for
    /// runtimes without a repair manager).
    pub phases: PhaseProfile,
    /// The full flat metrics-registry snapshot of the run: every
    /// `machine.*`, `os.*` and runtime counter under one stable namespace.
    /// The typed fields above are derived from this snapshot; reports
    /// should prefer it over field-walking.
    pub metrics: MetricsSnapshot,
}

impl RunResult {
    /// True if the run completed and verified.
    pub fn ok(&self) -> bool {
        self.halt == Halt::Completed && self.verified.is_ok()
    }

    /// Commits per simulated second (Table 3).
    pub fn commits_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.commits as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// T2P cost in microseconds (Table 3).
    pub fn t2p_micros(&self) -> f64 {
        self.t2p_cycles as f64 / (LatencyModel::CLOCK_HZ as f64 / 1e6)
    }
}

fn alloc_config(spec: &JobSpec, allocator_sensitive: bool) -> AllocConfig {
    let mut ac = AllocConfig::default();
    if allocator_sensitive && !spec.fixed && !spec.runtime.has_own_allocator() {
        // The glibc-style layout that packs cross-thread allocations, the
        // condition under which lu-ncb exhibits false sharing.
        ac.policy = AllocPolicy::Glibc;
        if spec.misaligned {
            ac.misalign = 8;
        }
    }
    ac
}

struct Built<R: RuntimeHooks> {
    engine: Engine<R>,
    workload: Box<dyn Workload>,
    aspace: tmi_os::AsId,
}

fn build<R: RuntimeHooks>(spec: &JobSpec, make_runtime: impl FnOnce(AppLayout) -> R) -> Built<R> {
    let name = &spec.workload;
    let mut workload =
        tmi_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let props = workload.spec();

    let mut engine_cfg = EngineConfig::with_cores(spec.threads.max(1));
    engine_cfg.tick_interval = spec.tick_interval;
    engine_cfg.max_ops = spec.max_ops;
    engine_cfg.max_cycles = 60_000_000_000;

    // The runtime is constructed against the layout before the engine
    // exists (TMI sets its memory up at program start, §3.2).
    let layout = app_layout(props.big_memory, spec.huge_pages);
    let mut engine = Engine::new(engine_cfg, make_runtime(layout));

    // Both regions are backed by shared objects: process-based runtimes
    // need that to survive T2P, and the baselines use it too so that
    // cold-start demand paging behaves uniformly (anonymous memory cannot
    // survive the residency reset between setup and simulation).
    let aspace = layout.install(&mut engine);

    // Build the workload.
    let mut alloc = SimAllocator::new(
        layout.app_start,
        layout.app_len,
        alloc_config(spec, props.allocator_sensitive),
    );
    let params = WorkloadParams {
        threads: spec.threads,
        scale: spec.scale,
        fixed: spec.fixed,
        misaligned: spec.misaligned,
    };
    let EngineCore { kernel, code, .. } = engine.core_mut();
    let mut ctx = SetupCtx::new(kernel, code, &mut alloc, aspace);
    for p in workload.build(&mut ctx, &params) {
        engine.add_thread(p);
    }

    // Cold start: drop residency so first touches fault during simulation
    // (the page-fault behaviour Fig. 10 measures).
    engine.core_mut().kernel.drop_residency(aspace);

    Built {
        engine,
        workload,
        aspace,
    }
}

fn base_result(spec: &JobSpec) -> RunResult {
    RunResult {
        workload: spec.workload.clone(),
        runtime: spec.runtime.label(),
        halt: Halt::Completed,
        cycles: 0,
        seconds: 0.0,
        ops: 0,
        verified: Ok(()),
        hitm_events: 0,
        perf_records: 0,
        perf_events: 0,
        repaired: false,
        commits: 0,
        converted_at: None,
        t2p_cycles: 0,
        memory_bytes: 0,
        app_bytes: 0,
        faults: 0,
        phases: PhaseProfile::new(),
        metrics: MetricsSnapshot::default(),
    }
}

fn finish<R: RuntimeHooks + MetricSource>(
    spec: &JobSpec,
    metric_prefix: &str,
    mut built: Built<R>,
    faults: Option<&FaultInjector>,
    fill: impl FnOnce(&R, &EngineCore, &mut RunResult),
) -> RunResult {
    // Faults target the simulated run, not workload setup: the injector
    // reaches the kernel only once the machine is assembled, so every
    // roll lands between the first and last simulated instruction and
    // the schedule is identical for any host interleaving.
    if let Some(inj) = faults {
        built
            .engine
            .core_mut()
            .kernel
            .set_fault_injector(inj.clone());
    }
    let report = built.engine.run();
    let mut r = base_result(spec);
    r.halt = report.halt.clone();
    r.cycles = report.cycles;
    r.seconds = report.seconds();
    r.ops = report.ops;
    // Snapshot the registry before verification touches the kernel: the
    // counters describe the simulated run, not the post-hoc readback.
    r.metrics = built.engine.metrics(metric_prefix);
    r.hitm_events = r.metrics.u64("machine.hitm_events");
    r.faults = r.metrics.u64("os.total_demand_faults");
    r.app_bytes = built.engine.core().kernel.physmem().peak_allocated_frames() as u64 * FRAME_SIZE;
    r.memory_bytes = r.app_bytes;

    // Verification (only meaningful if the run completed).
    if report.halt == Halt::Completed {
        let kernel = &mut built.engine.core_mut().kernel;
        r.verified = built.workload.verify(kernel, built.aspace);
    } else {
        r.verified = Err(format!("run did not complete: {:?}", report.halt));
    }

    fill(built.engine.runtime(), built.engine.core(), &mut r);
    r
}

/// The single synchronous entry point every run funnels through: the
/// [`JobSpec`] run methods, the executor and the service worker pool all
/// land here. Honors the spec's fault-schedule seed (a seeded
/// [`FaultInjector`] installed into the kernel and, for TMI runtimes, the
/// perf monitor and repair governor). `tracer` receives the run's events
/// when enabled; it never changes the result.
///
/// # Panics
///
/// Panics on unknown workload names.
pub fn execute_spec(spec: &JobSpec, tracer: &Tracer) -> RunResult {
    let injector = (spec.seed != 0).then(|| FaultInjector::new(FaultPlan::from_seed(spec.seed)));
    let faults = injector.as_ref();
    match spec.runtime {
        RuntimeKind::Pthreads | RuntimeKind::TmiAlloc => {
            let built = build(spec, |_| NullRuntime);
            finish(spec, "runtime", built, faults, |_rt, _core, _r| {})
        }
        RuntimeKind::TmiDetect
        | RuntimeKind::TmiProtect
        | RuntimeKind::TmiPtsbEverywhere
        | RuntimeKind::TmiNoCodeCentric => {
            let built = build(spec, |l| {
                let mut rt = TmiRuntime::new(tmi_config(spec), l);
                rt.set_tracer(tracer.clone());
                if let Some(inj) = faults {
                    rt.set_fault_injector(inj.clone());
                }
                rt
            });
            finish(spec, "tmi", built, faults, fill_tmi)
        }
        RuntimeKind::SheriffDetect | RuntimeKind::SheriffProtect => {
            let config = SheriffConfig {
                detect_mode: spec.runtime == RuntimeKind::SheriffDetect,
            };
            let built = build(spec, |l| {
                let mut rt = SheriffRuntime::new(config, l);
                rt.set_tracer(tracer.clone());
                rt
            });
            finish(spec, "sheriff", built, faults, fill_sheriff)
        }
        RuntimeKind::Laser => {
            let perf = PerfConfig::with_period(spec.period);
            let built = build(spec, |l| LaserRuntime::new(perf, l));
            finish(spec, "laser", built, faults, |_rt, _core, r| {
                r.repaired = r.metrics.u64("laser.repaired") != 0;
                fill_perf("laser", r);
            })
        }
        RuntimeKind::Plastic => {
            let perf = PerfConfig::with_period(spec.period);
            let built = build(spec, |l| PlasticRuntime::new(perf, l));
            finish(spec, "plastic", built, faults, |_rt, _core, r| {
                r.repaired = r.metrics.u64("plastic.remapped_lines") > 0;
                fill_perf("plastic", r);
            })
        }
    }
}

/// The TMI configuration a spec on one of TMI's runtime kinds runs under:
/// the kind's preset, sampling at the spec's perf period.
///
/// # Panics
///
/// Panics if the spec's runtime is not a TMI mode.
fn tmi_config(spec: &JobSpec) -> TmiConfig {
    let preset = match spec.runtime {
        RuntimeKind::TmiDetect => TmiConfig::detect_only(),
        RuntimeKind::TmiProtect => TmiConfig::protect(),
        RuntimeKind::TmiPtsbEverywhere => TmiConfig::ptsb_everywhere(),
        RuntimeKind::TmiNoCodeCentric => TmiConfig {
            code_centric: false,
            ..TmiConfig::protect()
        },
        other => panic!("{} is not a TMI runtime", other.label()),
    };
    TmiConfig {
        perf: PerfConfig::with_period(spec.period),
        ..preset
    }
}

fn fill_tmi(rt: &TmiRuntime, core: &EngineCore, r: &mut RunResult) {
    // The memory breakdown needs the kernel, so it cannot register itself
    // during the engine snapshot; fold it in here under `tmi.memory.`.
    let mem: MemoryBreakdown = rt.memory(&core.kernel);
    r.metrics.absorb("tmi.memory", &mem);
    fill_perf("tmi", r);
    r.repaired = r.metrics.u64("tmi.repaired") != 0;
    r.commits = r.metrics.u64("tmi.repair.commits");
    r.converted_at = (r.metrics.u64("tmi.repair.converted") != 0)
        .then(|| r.metrics.u64("tmi.repair.converted_at_cycle"));
    r.t2p_cycles = r.metrics.u64("tmi.repair.t2p_cycles");
    r.memory_bytes = r.metrics.u64("tmi.memory.total_bytes");
    r.app_bytes = r.metrics.u64("tmi.memory.app_bytes");
    r.phases = rt.phases();
}

/// The perf monitor's counts, for the runtimes that sample through one
/// (TMI, LASER and Plastic share `tmi::DetectionLoop`).
fn fill_perf(prefix: &str, r: &mut RunResult) {
    r.perf_records = r.metrics.u64(&format!("{prefix}.perf.records_taken"));
    r.perf_events = r.metrics.u64(&format!("{prefix}.perf.events_seen"));
}

fn fill_sheriff(rt: &SheriffRuntime, _core: &EngineCore, r: &mut RunResult) {
    r.repaired = r.metrics.u64("sheriff.repaired") != 0;
    r.phases = rt.repair().phases();
    r.commits = r.metrics.u64("sheriff.repair.commits");
    r.t2p_cycles = r.metrics.u64("sheriff.repair.t2p_cycles");
    // Sheriff's overhead: twins + protection state, no perf buffers.
    r.memory_bytes = r.app_bytes + r.metrics.u64("sheriff.repair.twin_peak_bytes");
}

/// Implementation behind [`JobSpec::run_detect_report`]: the spec under
/// `tmi-detect`, without tracing or faults.
pub(crate) fn execute_detect_report(spec: &JobSpec) -> (RunResult, tmi::ContentionReport, f64) {
    let spec = spec.clone().runtime(RuntimeKind::TmiDetect);
    let built = build(&spec, |l| TmiRuntime::new(tmi_config(&spec), l));
    let mut report = tmi::ContentionReport::default();
    let r = finish(&spec, "tmi", built, None, |rt, core, res| {
        fill_tmi(rt, core, res);
        report = tmi::ContentionReport::build(rt.detector(), &core.code, 16);
    });
    let predicted = report.predict_manual_speedup_calibrated(r.cycles, Some(r.perf_events));
    (r, report, predicted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_kind_properties() {
        assert!(RuntimeKind::TmiProtect.has_own_allocator());
        assert!(RuntimeKind::SheriffProtect.has_own_allocator());
        assert!(!RuntimeKind::Pthreads.has_own_allocator());
        assert!(!RuntimeKind::Laser.has_own_allocator());
        for rt in [
            RuntimeKind::Pthreads,
            RuntimeKind::TmiDetect,
            RuntimeKind::SheriffDetect,
        ] {
            assert!(!rt.label().is_empty());
        }
    }

    #[test]
    fn alloc_config_selects_glibc_only_for_sensitive_baselines() {
        let base = JobSpec::repair("lu-ncb").misaligned();
        let ac = alloc_config(&base, true);
        assert_eq!(ac.policy, AllocPolicy::Glibc);
        assert_eq!(ac.misalign, 8);
        // Runtimes with their own allocator escape the bad layout.
        let tmi = JobSpec::repair("lu-ncb")
            .runtime(RuntimeKind::TmiProtect)
            .misaligned();
        assert_eq!(alloc_config(&tmi, true).policy, AllocPolicy::Lockless);
        // Non-sensitive workloads keep the default even on baselines.
        assert_eq!(alloc_config(&base, false).policy, AllocPolicy::Lockless);
        // The manual fix also escapes it.
        let fixed = JobSpec::repair("lu-ncb").fixed();
        assert_eq!(alloc_config(&fixed, true).policy, AllocPolicy::Lockless);
    }

    #[test]
    fn result_time_conversions() {
        let mut r = base_result(&JobSpec::new("x"));
        r.cycles = 3_400_000;
        r.seconds = 1e-3;
        r.commits = 34;
        r.t2p_cycles = 340_000;
        assert!((r.commits_per_sec() - 34_000.0).abs() < 1.0);
        assert!((r.t2p_micros() - 100.0).abs() < 1e-6);
        assert!(r.ok());
    }

    #[test]
    fn sheriff_reports_repaired_from_its_governor() {
        let spec = JobSpec::repair("histogram")
            .runtime(RuntimeKind::SheriffProtect)
            .scale(0.02);
        let clean = spec.clone().run();
        assert!(clean.ok(), "{:?} {:?}", clean.halt, clean.verified);
        assert!(clean.repaired);
        // Under fault seed 1 the governor rolls the repair back (state
        // Aborted), so the run must not claim it repaired.
        let rolled_back = JobSpec { seed: 1, ..spec }.run();
        assert_eq!(rolled_back.metrics.u64("sheriff.repair.rollbacks"), 1);
        assert_eq!(rolled_back.metrics.u64("sheriff.repaired"), 0);
        assert!(!rolled_back.repaired);
    }

    /// Runs `built` and returns its pool's peak allocated and peak stored
    /// frame counts.
    fn peak_frames<R: RuntimeHooks + MetricSource>(
        spec: &JobSpec,
        built: Built<R>,
    ) -> (usize, usize) {
        let mut peaks = (0, 0);
        let r = finish(spec, "runtime", built, None, |_rt, core, _r| {
            let pm = core.kernel.physmem();
            peaks = (pm.peak_allocated_frames(), pm.peak_stored_frames());
        });
        assert!(r.ok(), "{:?} {:?}", r.halt, r.verified);
        peaks
    }

    #[test]
    fn frames_the_program_never_writes_hold_no_host_storage() {
        // Sheriff arms the whole app object, so its run allocates a frame
        // for every page it protects, written or not (the run_all --quick
        // Fig. 7 cell).
        let spec = JobSpec::new("reverse")
            .runtime(RuntimeKind::SheriffDetect)
            .scale(0.05);
        let built = build(&spec, |l| {
            SheriffRuntime::new(SheriffConfig { detect_mode: true }, l)
        });
        let (allocated, stored) = peak_frames(&spec, built);
        assert_eq!(allocated, 16_805, "the simulated frame count is unchanged");
        assert!(
            stored <= 1_000,
            "{stored} of {allocated} frames hold storage"
        );

        // PTSB-everywhere twins every page it buffers (the ablation cell).
        let spec = JobSpec::repair("histogramfs")
            .runtime(RuntimeKind::TmiPtsbEverywhere)
            .scale(0.25)
            .misaligned();
        let built = build(&spec, |l| TmiRuntime::new(tmi_config(&spec), l));
        let (allocated, stored) = peak_frames(&spec, built);
        assert_eq!(allocated, 4_255, "the simulated frame count is unchanged");
        assert!(
            stored <= 1_000,
            "{stored} of {allocated} frames hold storage"
        );
    }
}

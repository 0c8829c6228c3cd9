//! The experiment harness: builds a full simulation for one (workload,
//! runtime) pair, runs it, verifies the output, and collects every metric
//! the paper's tables and figures report.

use tmi::{AppLayout, MemoryBreakdown, TmiConfig, TmiRuntime};
use tmi_alloc::{AllocConfig, AllocPolicy, SimAllocator};
use tmi_baselines::{
    LaserConfig, LaserRuntime, PlasticConfig, PlasticRuntime, SheriffConfig, SheriffRuntime,
};
use tmi_faultpoint::{FaultInjector, FaultPlan};
use tmi_machine::{LatencyModel, VAddr, FRAME_SIZE};
use tmi_os::MapRequest;
use tmi_perf::PerfConfig;
use tmi_sim::{Engine, EngineConfig, Halt, NullRuntime, RuntimeHooks};
use tmi_telemetry::{MetricSource, MetricsSnapshot, PhaseProfile, Tracer};
use tmi_workloads::{SetupCtx, Workload, WorkloadParams};

use crate::spec::JobSpec;

/// Base of the primary application mapping.
pub const APP_START: u64 = 0x40_0000 * 16; // 64 MiB mark, 2 MiB aligned
/// Base of TMI's internal shared region.
pub const INTERNAL_START: u64 = 0x4000_0000;
/// Internal region size.
pub const INTERNAL_LEN: u64 = 8 * 1024 * 1024;

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

/// Full configuration for one run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RunConfig {
    /// The runtime supervising the run.
    pub runtime: RuntimeKind,
    /// Worker threads (= cores).
    pub threads: usize,
    /// Work scale (1.0 = benchmark size).
    pub scale: f64,
    /// Apply the manual source fix.
    pub fixed: bool,
    /// Force misaligned allocation (repair experiments, §4.3).
    pub misaligned: bool,
    /// Map application memory with 2 MiB huge pages (§4.4).
    pub huge_pages: bool,
    /// perf sampling period (Fig. 4 sweeps this).
    pub period: u64,
    /// Detection-tick interval in cycles.
    pub tick_interval: u64,
    /// Livelock backstop in dynamic ops.
    pub max_ops: u64,
}

impl RunConfig {
    /// Defaults: 8 threads (the detection machine), benchmark scale,
    /// period 100, 0.5 ms ticks.
    pub fn new(runtime: RuntimeKind) -> Self {
        RunConfig {
            runtime,
            threads: 8,
            scale: 1.0,
            fixed: false,
            misaligned: false,
            huge_pages: false,
            period: 100,
            tick_interval: 1_700_000,
            max_ops: 80_000_000,
        }
    }

    /// The 4-thread configuration of the repair experiments (§4.1), with a
    /// faster detection tick so that detection latency occupies the same
    /// small fraction of these shorter runs as the paper's 1 Hz analysis
    /// does of its minute-long ones.
    pub fn repair(runtime: RuntimeKind) -> Self {
        RunConfig {
            threads: 4,
            tick_interval: 400_000,
            ..Self::new(runtime)
        }
    }

    /// Scales the work (tests use small scales).
    pub fn scale(mut self, s: f64) -> Self {
        self.scale = s;
        self
    }

    /// Applies the manual fix.
    pub fn fixed(mut self) -> Self {
        self.fixed = true;
        self
    }

    /// Forces misaligned allocation.
    pub fn misaligned(mut self) -> Self {
        self.misaligned = true;
        self
    }

    /// Uses huge pages for application memory.
    pub fn huge_pages(mut self) -> Self {
        self.huge_pages = true;
        self
    }

    /// Sets the perf sampling period.
    pub fn period(mut self, p: u64) -> Self {
        self.period = p;
        self
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

    /// Wall time in seconds (alias).
    pub fn runtime_secs(&self) -> f64 {
        self.seconds
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

fn alloc_config(cfg: &RunConfig, allocator_sensitive: bool) -> AllocConfig {
    let mut ac = AllocConfig::default();
    if allocator_sensitive && !cfg.fixed && !cfg.runtime.has_own_allocator() {
        // The glibc-style layout that packs cross-thread allocations, the
        // condition under which lu-ncb exhibits false sharing.
        ac.policy = AllocPolicy::Glibc;
        if cfg.misaligned {
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

fn build<R: RuntimeHooks>(
    name: &str,
    cfg: &RunConfig,
    make_runtime: impl FnOnce(AppLayout) -> R,
) -> Built<R> {
    let mut workload =
        tmi_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let spec = workload.spec();

    let app_len: u64 = if spec.big_memory { 64 << 20 } else { 16 << 20 };
    let mut engine_cfg = EngineConfig::with_cores(cfg.threads.max(1));
    engine_cfg.tick_interval = cfg.tick_interval;
    engine_cfg.max_ops = cfg.max_ops;
    engine_cfg.max_cycles = 60_000_000_000;

    // The runtime is constructed against the layout before the engine
    // exists (TMI sets its memory up at program start, §3.2). The object
    // ids are the two objects the fresh kernel creates first, below.
    let layout = AppLayout {
        app_obj: tmi_os::ObjId(0),
        app_start: VAddr::new(APP_START),
        app_len,
        internal_obj: tmi_os::ObjId(1),
        internal_start: VAddr::new(INTERNAL_START),
        internal_len: INTERNAL_LEN,
        huge_pages: cfg.huge_pages,
    };
    let mut engine = Engine::new(engine_cfg, make_runtime(layout));

    // Map the application region and the internal region, both backed by
    // shared objects: process-based runtimes need that to survive T2P, and
    // the baselines use it too so that cold-start demand paging behaves
    // uniformly (anonymous memory cannot survive the residency reset
    // between setup and simulation).
    let kernel = &mut engine.core_mut().kernel;
    let app_obj = kernel.create_object(app_len);
    let internal_obj = kernel.create_object(INTERNAL_LEN);
    let aspace = kernel.create_aspace();
    let mut req = MapRequest::object(VAddr::new(APP_START), app_len, app_obj, 0);
    if cfg.huge_pages {
        req = req.huge();
    }
    kernel.map(aspace, req).expect("map app object");
    kernel
        .map(
            aspace,
            MapRequest::object(VAddr::new(INTERNAL_START), INTERNAL_LEN, internal_obj, 0),
        )
        .expect("map internal");

    engine.create_root_process(aspace);

    // Build the workload.
    let mut alloc = SimAllocator::new(
        VAddr::new(APP_START),
        app_len,
        alloc_config(cfg, spec.allocator_sensitive),
    );
    let params = WorkloadParams {
        threads: cfg.threads,
        scale: cfg.scale,
        fixed: cfg.fixed,
        misaligned: cfg.misaligned,
    };
    let core = engine.core_mut();
    let programs = {
        // Split borrows of the engine core for the setup context.
        let EngineCoreView { kernel, code } = split_core(core);
        let mut ctx = SetupCtx::new(kernel, code, &mut alloc, aspace);
        workload.build(&mut ctx, &params)
    };
    for p in programs {
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

struct EngineCoreView<'a> {
    kernel: &'a mut tmi_os::Kernel,
    code: &'a mut tmi_program::CodeRegistry,
}

fn split_core(core: &mut tmi_sim::EngineCore) -> EngineCoreView<'_> {
    // `kernel` and `code` are distinct public fields; reborrow them.
    let tmi_sim::EngineCore { kernel, code, .. } = core;
    EngineCoreView { kernel, code }
}

fn base_result(name: &str, cfg: &RunConfig) -> RunResult {
    RunResult {
        workload: name.to_owned(),
        runtime: cfg.runtime.label(),
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
    name: &str,
    cfg: &RunConfig,
    metric_prefix: &str,
    mut built: Built<R>,
    faults: Option<&FaultInjector>,
    fill: impl FnOnce(&R, &tmi_sim::EngineCore, &mut RunResult),
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
    let mut r = base_result(name, cfg);
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
        let core = built.engine.core_mut();
        let EngineCoreView { kernel, code } = split_core(core);
        let mut alloc = SimAllocator::new(VAddr::new(APP_START), 1 << 20, AllocConfig::default());
        let mut ctx = SetupCtx::new(kernel, code, &mut alloc, built.aspace);
        r.verified = built.workload.verify(&mut ctx);
    } else {
        r.verified = Err(format!("run did not complete: {:?}", report.halt));
    }

    fill(built.engine.runtime(), built.engine.core(), &mut r);
    r
}

/// The single synchronous entry point every run funnels through: the
/// [`crate::Experiment`] builder, the executor and the service worker
/// pool all lower to a [`JobSpec`] and land here. Honors the spec's
/// fault-schedule seed (a seeded [`FaultInjector`] installed into the
/// kernel and, for TMI runtimes, the perf monitor and repair governor).
/// `tracer` receives the run's events when enabled; it never changes the
/// result.
///
/// # Panics
///
/// Panics on unknown workload names.
pub fn execute_spec(spec: &JobSpec, tracer: &Tracer) -> RunResult {
    let injector = (spec.seed != 0).then(|| FaultInjector::new(FaultPlan::from_seed(spec.seed)));
    let faults = injector.as_ref();
    let (name, cfg) = (spec.workload.as_str(), &spec.cfg);
    let tmi_cfg = |preset: TmiConfig| TmiConfig {
        perf: PerfConfig::with_period(cfg.period),
        ..preset
    };
    let make_tmi = |c: TmiConfig| {
        move |l: AppLayout| {
            let mut rt = TmiRuntime::new(c, l);
            rt.set_tracer(tracer.clone());
            if let Some(inj) = faults {
                rt.set_fault_injector(inj.clone());
            }
            rt
        }
    };
    let make_sheriff = |c: SheriffConfig| {
        move |l: AppLayout| {
            let mut rt = SheriffRuntime::new(c, l);
            rt.set_tracer(tracer.clone());
            rt
        }
    };
    match cfg.runtime {
        RuntimeKind::Pthreads | RuntimeKind::TmiAlloc => {
            let built = build(name, cfg, |_| NullRuntime);
            finish(name, cfg, "runtime", built, faults, |_rt, _core, _r| {})
        }
        RuntimeKind::TmiDetect => {
            let built = build(name, cfg, make_tmi(tmi_cfg(TmiConfig::detect_only())));
            finish(name, cfg, "tmi", built, faults, fill_tmi)
        }
        RuntimeKind::TmiProtect => {
            let built = build(name, cfg, make_tmi(tmi_cfg(TmiConfig::protect())));
            finish(name, cfg, "tmi", built, faults, fill_tmi)
        }
        RuntimeKind::TmiPtsbEverywhere => {
            let built = build(name, cfg, make_tmi(tmi_cfg(TmiConfig::ptsb_everywhere())));
            finish(name, cfg, "tmi", built, faults, fill_tmi)
        }
        RuntimeKind::TmiNoCodeCentric => {
            let c = TmiConfig {
                code_centric: false,
                ..tmi_cfg(TmiConfig::protect())
            };
            let built = build(name, cfg, make_tmi(c));
            finish(name, cfg, "tmi", built, faults, fill_tmi)
        }
        RuntimeKind::SheriffDetect => {
            let built = build(name, cfg, make_sheriff(SheriffConfig::detect()));
            finish(name, cfg, "sheriff", built, faults, fill_sheriff)
        }
        RuntimeKind::SheriffProtect => {
            let built = build(name, cfg, make_sheriff(SheriffConfig::protect()));
            finish(name, cfg, "sheriff", built, faults, fill_sheriff)
        }
        RuntimeKind::Laser => {
            let c = LaserConfig {
                perf: PerfConfig::with_period(cfg.period),
                ..Default::default()
            };
            let built = build(name, cfg, |l| LaserRuntime::new(c, l));
            finish(name, cfg, "laser", built, faults, |_rt, _core, r| {
                r.repaired = r.metrics.u64("laser.repaired") != 0;
                r.perf_events = r.metrics.u64("laser.emulated_stores"); // proxy
            })
        }
        RuntimeKind::Plastic => {
            let c = PlasticConfig {
                perf: PerfConfig::with_period(cfg.period),
                ..Default::default()
            };
            let built = build(name, cfg, |l| PlasticRuntime::new(c, l));
            finish(name, cfg, "plastic", built, faults, |_rt, _core, r| {
                r.repaired = r.metrics.u64("plastic.remapped_lines") > 0;
            })
        }
    }
}

fn fill_tmi(rt: &TmiRuntime, core: &tmi_sim::EngineCore, r: &mut RunResult) {
    // The memory breakdown needs the kernel, so it cannot register itself
    // during the engine snapshot; fold it in here under `tmi.memory.`.
    let mem: MemoryBreakdown = rt.observe().memory(&core.kernel);
    r.metrics.absorb("tmi.memory", &mem);
    r.perf_records = r.metrics.u64("tmi.perf.records_taken");
    r.perf_events = r.metrics.u64("tmi.perf.events_seen");
    r.repaired = r.metrics.u64("tmi.repaired") != 0;
    r.commits = r.metrics.u64("tmi.repair.commits");
    r.converted_at = (r.metrics.u64("tmi.repair.converted") != 0)
        .then(|| r.metrics.u64("tmi.repair.converted_at_cycle"));
    r.t2p_cycles = r.metrics.u64("tmi.repair.t2p_cycles");
    r.memory_bytes = r.metrics.u64("tmi.memory.total_bytes");
    r.app_bytes = r.metrics.u64("tmi.memory.app_bytes");
    r.phases = rt.observe().phases();
}

fn fill_sheriff(rt: &SheriffRuntime, _core: &tmi_sim::EngineCore, r: &mut RunResult) {
    r.repaired = true;
    r.phases = rt.repair().phases();
    r.commits = r.metrics.u64("sheriff.repair.commits");
    r.t2p_cycles = r.metrics.u64("sheriff.repair.t2p_cycles");
    // Sheriff's overhead: twins + protection state, no perf buffers.
    r.memory_bytes = r.app_bytes + r.metrics.u64("sheriff.repair.twin_peak_bytes");
}

/// Implementation behind [`crate::Experiment::run_detect_report`].
pub(crate) fn execute_detect_report(
    name: &str,
    cfg: &RunConfig,
) -> (RunResult, tmi::ContentionReport, f64) {
    let mut cfg = *cfg;
    cfg.runtime = RuntimeKind::TmiDetect;
    let c = TmiConfig {
        perf: PerfConfig::with_period(cfg.period),
        ..TmiConfig::detect_only()
    };
    let built = build(name, &cfg, |l| TmiRuntime::new(c, l));
    let mut report = tmi::ContentionReport::default();
    let r = finish(name, &cfg, "tmi", built, None, |rt, core, res| {
        fill_tmi(rt, core, res);
        report = tmi::ContentionReport::build(rt.observe().detector(), &core.code, 16);
    });
    let predicted =
        report.predict_manual_speedup_calibrated(r.cycles, cfg.threads, Some(r.perf_events));
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
    fn run_config_builders_compose() {
        let c = RunConfig::repair(RuntimeKind::TmiProtect)
            .scale(0.5)
            .fixed()
            .misaligned()
            .huge_pages()
            .period(10);
        assert_eq!(c.threads, 4);
        assert_eq!(c.scale, 0.5);
        assert!(c.fixed && c.misaligned && c.huge_pages);
        assert_eq!(c.period, 10);
        assert!(c.tick_interval < RunConfig::new(RuntimeKind::TmiProtect).tick_interval);
    }

    #[test]
    fn alloc_config_selects_glibc_only_for_sensitive_baselines() {
        let base = RunConfig::repair(RuntimeKind::Pthreads).misaligned();
        let ac = alloc_config(&base, true);
        assert_eq!(ac.policy, AllocPolicy::Glibc);
        assert_eq!(ac.misalign, 8);
        // Runtimes with their own allocator escape the bad layout.
        let tmi = RunConfig::repair(RuntimeKind::TmiProtect).misaligned();
        assert_eq!(alloc_config(&tmi, true).policy, AllocPolicy::Lockless);
        // Non-sensitive workloads keep the default even on baselines.
        assert_eq!(alloc_config(&base, false).policy, AllocPolicy::Lockless);
        // The manual fix also escapes it.
        let fixed = RunConfig::repair(RuntimeKind::Pthreads).fixed();
        assert_eq!(alloc_config(&fixed, true).policy, AllocPolicy::Lockless);
    }

    #[test]
    fn result_time_conversions() {
        let mut r = base_result("x", &RunConfig::new(RuntimeKind::Pthreads));
        r.cycles = 3_400_000;
        r.seconds = 1e-3;
        r.commits = 34;
        r.t2p_cycles = 340_000;
        assert!((r.commits_per_sec() - 34_000.0).abs() < 1.0);
        assert!((r.t2p_micros() - 100.0).abs() < 1e-6);
        assert!(r.ok());
    }
}

//! Seeded, deterministic fault injection for the TMI reproduction.
//!
//! Real TMI deployments have to survive the failure modes the paper
//! glosses over: `fork(2)` denied under memory pressure, `mmap`/`mprotect`
//! transiently failing, the frame allocator running dry mid-COW, PEBS
//! buffers dropping samples, and twin snapshots failing to allocate.
//! This crate gives every such site a *named fault point* and drives all
//! of them from one seeded schedule, so that any observed failure —
//! including the runtime's recovery from it — reproduces exactly from the
//! pair `(program seed, fault seed)`.
//!
//! Design rules:
//!
//! * **Pure function of the seed.** [`FaultPlan::from_seed`] derives every
//!   per-point parameter from a splitmix64 stream; no ambient entropy, no
//!   time, no thread IDs.
//! * **Rolls count real attempts.** A fault point is only rolled when the
//!   modeled operation would actually happen (a frame really being
//!   allocated, a fork really being attempted), so schedules stay
//!   meaningful across refactors.
//! * **Transient points heal within the governor's retry budget.** Plans
//!   clamp burst lengths below the period so a bounded retry loop always
//!   outlasts a transient burst; only [`FaultPoint::Fork`],
//!   [`FaultPoint::ProtectPage`] and [`FaultPoint::TwinAlloc`] may turn
//!   *persistent*, which is exactly the set the repair governor can roll
//!   back from (abort T2P) or degrade through (give the page back to
//!   shared memory).
//!
//! The injector is shared by `Kernel`, `PerfMonitor` and `RepairManager`
//! via cheap clones ([`FaultInjector`] is an `Arc` handle); a `Mutex`
//! keeps it `Send + Sync` for the fuzz campaign's worker pool even though
//! each simulated machine is single-threaded.

use std::fmt;
use std::sync::{Arc, Mutex};

/// A named site in the stack where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultPoint {
    /// Physical frame allocation (demand paging, COW breaks, object
    /// population) reports out-of-frames.
    FrameAlloc,
    /// `Kernel::map` fails transiently (the `mmap` EAGAIN analogue).
    MapTransient,
    /// `Kernel::protect_page_cow` fails (the `mprotect` failure analogue;
    /// may turn persistent).
    ProtectPage,
    /// `Kernel::fork_aspace` is vetoed (the paper's ptrace-inject /
    /// `fork` EAGAIN analogue; may turn persistent).
    Fork,
    /// A PEBS record is dropped at capture time (sample buffer loss).
    PebsDrop,
    /// Twin-snapshot buffer allocation fails (may turn persistent).
    TwinAlloc,
    /// A `tmi-service` worker dies mid-job (the chaos-campaign analogue
    /// of an OOM-killed or segfaulted worker process); the job must be
    /// requeued and retried with an identical result.
    WorkerKill,
    /// The service result-cache store is dropped after a computed job
    /// (cache eviction under memory pressure); later duplicates recompute
    /// and must still produce byte-identical payloads.
    CacheDrop,
    /// A durable-log frame write is torn mid-record (the power-cut /
    /// kill -9 analogue at the IO layer): only a prefix of the frame
    /// reaches the file, and replay must skip the torn tail cleanly.
    JournalTear,
    /// A persisted cache frame is corrupted on the way to disk (bit rot /
    /// partial sector write); the CRC must reject it at load time and the
    /// entry silently degrades to a recompute, never a wrong payload.
    CacheCorrupt,
    /// A durability flush (`File::sync_data`) is skipped (the fsync-lost
    /// analogue); the write stays buffered, so a crash right after may
    /// lose it — bookkeeping must tolerate the gap.
    FlushFail,
}

impl FaultPoint {
    /// Every fault point, in stable order (used for stats aggregation
    /// and deterministic rendering).
    pub const ALL: [FaultPoint; 11] = [
        FaultPoint::FrameAlloc,
        FaultPoint::MapTransient,
        FaultPoint::ProtectPage,
        FaultPoint::Fork,
        FaultPoint::PebsDrop,
        FaultPoint::TwinAlloc,
        FaultPoint::WorkerKill,
        FaultPoint::CacheDrop,
        FaultPoint::JournalTear,
        FaultPoint::CacheCorrupt,
        FaultPoint::FlushFail,
    ];

    /// The simulator-level points — the subset [`FaultPlan::from_seed`]
    /// schedules and the litmus fault campaign's coverage gate requires.
    /// The service points are driven by `tmi-service`'s own plans and
    /// never fire inside a simulated machine.
    pub const SIM: [FaultPoint; 6] = [
        FaultPoint::FrameAlloc,
        FaultPoint::MapTransient,
        FaultPoint::ProtectPage,
        FaultPoint::Fork,
        FaultPoint::PebsDrop,
        FaultPoint::TwinAlloc,
    ];

    /// Stable short name (used in reports and the fault-matrix smoke).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::FrameAlloc => "frame_alloc",
            FaultPoint::MapTransient => "map_transient",
            FaultPoint::ProtectPage => "protect_page",
            FaultPoint::Fork => "fork",
            FaultPoint::PebsDrop => "pebs_drop",
            FaultPoint::TwinAlloc => "twin_alloc",
            FaultPoint::WorkerKill => "worker_kill",
            FaultPoint::CacheDrop => "cache_drop",
            FaultPoint::JournalTear => "journal_tear",
            FaultPoint::CacheCorrupt => "cache_corrupt",
            FaultPoint::FlushFail => "flush_fail",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultPoint::FrameAlloc => 0,
            FaultPoint::MapTransient => 1,
            FaultPoint::ProtectPage => 2,
            FaultPoint::Fork => 3,
            FaultPoint::PebsDrop => 4,
            FaultPoint::TwinAlloc => 5,
            FaultPoint::WorkerKill => 6,
            FaultPoint::CacheDrop => 7,
            FaultPoint::JournalTear => 8,
            FaultPoint::CacheCorrupt => 9,
            FaultPoint::FlushFail => 10,
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

const NPOINTS: usize = FaultPoint::ALL.len();

/// Failure schedule for one fault point.
///
/// Every `period`-th roll starts a *failure event*: that roll and the
/// next `burst - 1` rolls fail. If `persist_after` is `Some(n)`, the
/// `n`-th event flips the point permanently on — every later roll fails
/// until the injector is dropped (modeling a resource that never comes
/// back, e.g. a hard `RLIMIT_NPROC` fork denial).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PointPlan {
    /// Fail every `period`-th roll; `0` disables the point.
    pub period: u64,
    /// Consecutive failing rolls per event (min 1).
    pub burst: u32,
    /// Event number (1-based) at which the point becomes persistent.
    pub persist_after: Option<u32>,
}

impl PointPlan {
    /// A point that never fires.
    pub const OFF: PointPlan = PointPlan {
        period: 0,
        burst: 1,
        persist_after: None,
    };

    /// A transient plan: fail every `period`-th roll for `burst` rolls.
    pub fn transient(period: u64, burst: u32) -> PointPlan {
        PointPlan {
            period,
            burst: burst.max(1),
            persist_after: None,
        }
    }

    /// A plan that turns permanently on at the `nth` (1-based) event.
    pub fn persistent_after(period: u64, nth: u32) -> PointPlan {
        PointPlan {
            period,
            burst: 1,
            persist_after: Some(nth.max(1)),
        }
    }
}

/// A complete seeded fault schedule: one [`PointPlan`] per fault point
/// plus the campaign-level `efficacy_probe` flag (runs that additionally
/// stress the repair-efficacy revert path).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed this plan was derived from (0 for hand-built plans).
    pub seed: u64,
    plans: [PointPlan; NPOINTS],
    /// When set, the differential oracle's litmus fixture (`tmi-oracle`)
    /// runs with a fast detection tick and an efficacy threshold of 0, so
    /// the repair-efficacy revert path is exercised. Only that fixture
    /// honours it; the bench harness ignores it.
    pub efficacy_probe: bool,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `lo..=hi` from one splitmix64 draw.
fn draw(state: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(state) % (hi - lo + 1)
}

impl FaultPlan {
    /// Derives a full schedule from `seed`.
    ///
    /// Periods are tuned to litmus-scale runs (tens of rolls per point):
    /// small enough that every point fires somewhere in a modest seed
    /// range, large enough that transient bursts stay below the
    /// governor's retry budget. Bursts are clamped to `period - 1` so a
    /// burst is always followed by at least one healthy roll — the
    /// invariant that makes bounded retry sufficient for every
    /// non-persistent point.
    ///
    /// Only the [`FaultPoint::SIM`] points are scheduled; the service
    /// points stay [`PointPlan::OFF`] (a simulated machine has no service
    /// around it) and are planned by `tmi-service` via [`FaultPlan::with`].
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed ^ 0xF417_0F417_u64.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let mut plans = [PointPlan::OFF; NPOINTS];

        // Transient-only points: the governor heals these by retrying.
        plans[FaultPoint::FrameAlloc.index()] =
            PointPlan::transient(draw(&mut s, 3, 9), draw(&mut s, 1, 2) as u32);
        plans[FaultPoint::MapTransient.index()] = PointPlan::transient(draw(&mut s, 2, 5), 1);
        plans[FaultPoint::PebsDrop.index()] =
            PointPlan::transient(draw(&mut s, 2, 5), draw(&mut s, 1, 3) as u32);

        // Points that may turn persistent: fork veto forces a rollback,
        // protect/twin failures force per-page degradation.
        let fork_persists = draw(&mut s, 0, 3) == 0;
        plans[FaultPoint::Fork.index()] = PointPlan {
            period: draw(&mut s, 2, 4),
            burst: 1,
            persist_after: if fork_persists { Some(1) } else { None },
        };
        let protect_persists = draw(&mut s, 0, 3) == 0;
        plans[FaultPoint::ProtectPage.index()] = PointPlan {
            period: draw(&mut s, 2, 6),
            burst: 1,
            persist_after: if protect_persists { Some(2) } else { None },
        };
        let twin_persists = draw(&mut s, 0, 4) == 0;
        plans[FaultPoint::TwinAlloc.index()] = PointPlan {
            period: draw(&mut s, 2, 5),
            burst: 1,
            persist_after: if twin_persists { Some(1) } else { None },
        };

        // Clamp bursts below the period so transient events always heal.
        for p in plans.iter_mut() {
            if p.period > 0 {
                p.burst = p.burst.min((p.period - 1).max(1) as u32);
            }
        }

        let efficacy_probe = draw(&mut s, 0, 3) == 0;
        FaultPlan {
            seed,
            plans,
            efficacy_probe,
        }
    }

    /// An all-off schedule (useful as a base for hand-built test plans).
    pub fn quiet() -> FaultPlan {
        FaultPlan {
            seed: 0,
            plans: [PointPlan::OFF; NPOINTS],
            efficacy_probe: false,
        }
    }

    /// Builder-style override of one point's plan (for scripted tests).
    pub fn with(mut self, point: FaultPoint, plan: PointPlan) -> FaultPlan {
        self.plans[point.index()] = plan;
        self
    }

    /// The plan for one point.
    pub fn plan(&self, point: FaultPoint) -> PointPlan {
        self.plans[point.index()]
    }
}

/// Per-point roll/fire counters, as observed by [`FaultInjector::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PointStats {
    /// How many times the point was consulted.
    pub rolls: u64,
    /// How many rolls were answered "fail".
    pub fired: u64,
}

/// A snapshot of every point's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    per_point: [PointStats; NPOINTS],
}

impl FaultStats {
    /// Counters for one point.
    pub fn get(&self, point: FaultPoint) -> PointStats {
        self.per_point[point.index()]
    }

    /// Total injected failures across all points.
    pub fn total_fired(&self) -> u64 {
        self.per_point.iter().map(|p| p.fired).sum()
    }

    /// Accumulates another snapshot (campaign aggregation).
    pub fn add(&mut self, other: &FaultStats) {
        for (a, b) in self.per_point.iter_mut().zip(other.per_point.iter()) {
            a.rolls += b.rolls;
            a.fired += b.fired;
        }
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for p in FaultPoint::ALL {
            let st = self.get(p);
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            write!(f, "{}={}/{}", p.name(), st.fired, st.rolls)?;
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct PointState {
    rolls: u64,
    fired: u64,
    events: u32,
    burst_left: u32,
    persistent: bool,
}

#[derive(Debug)]
struct InjectorState {
    plan: FaultPlan,
    points: [PointState; NPOINTS],
}

/// Shared handle to one seeded fault schedule.
///
/// Clones share state: the kernel, the perf monitor and the repair
/// manager all roll against the same counters, so a schedule describes
/// the whole machine, not one subsystem.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    inner: Arc<Mutex<InjectorState>>,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            inner: Arc::new(Mutex::new(InjectorState {
                plan,
                points: [PointState::default(); NPOINTS],
            })),
        }
    }

    /// Rolls `point` once: true means the modeled operation must fail
    /// now. Deterministic in the sequence of rolls.
    pub fn should_fail(&self, point: FaultPoint) -> bool {
        let mut st = self.inner.lock().unwrap();
        let plan = st.plan.plan(point);
        let ps = &mut st.points[point.index()];
        ps.rolls += 1;
        let fail = if ps.persistent {
            true
        } else if ps.burst_left > 0 {
            ps.burst_left -= 1;
            true
        } else if plan.period != 0 && ps.rolls.is_multiple_of(plan.period) {
            ps.events += 1;
            if let Some(nth) = plan.persist_after {
                if ps.events >= nth {
                    ps.persistent = true;
                }
            }
            ps.burst_left = plan.burst.saturating_sub(1);
            true
        } else {
            false
        };
        if fail {
            ps.fired += 1;
        }
        fail
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> FaultStats {
        let st = self.inner.lock().unwrap();
        let mut out = FaultStats::default();
        for (i, ps) in st.points.iter().enumerate() {
            out.per_point[i] = PointStats {
                rolls: ps.rolls,
                fired: ps.fired,
            };
        }
        out
    }

    /// The schedule this injector executes.
    pub fn plan(&self) -> FaultPlan {
        self.inner.lock().unwrap().plan.clone()
    }

    /// Whether the schedule asks for an efficacy-revert probe run.
    pub fn efficacy_probe(&self) -> bool {
        self.inner.lock().unwrap().plan.efficacy_probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        for seed in 0..64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
        assert_ne!(FaultPlan::from_seed(1), FaultPlan::from_seed(2));
    }

    #[test]
    fn injector_roll_sequence_is_deterministic() {
        let a = FaultInjector::new(FaultPlan::from_seed(42));
        let b = FaultInjector::new(FaultPlan::from_seed(42));
        for _ in 0..200 {
            for p in FaultPoint::ALL {
                assert_eq!(a.should_fail(p), b.should_fail(p));
            }
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn period_and_burst_semantics() {
        let plan = FaultPlan::quiet().with(FaultPoint::FrameAlloc, PointPlan::transient(4, 2));
        let inj = FaultInjector::new(plan);
        let fails: Vec<bool> = (0..12)
            .map(|_| inj.should_fail(FaultPoint::FrameAlloc))
            .collect();
        // Rolls are 1-based: rolls 4,5 fail (event + burst), 8,9 fail, 12 fails.
        assert_eq!(
            fails,
            vec![false, false, false, true, true, false, false, true, true, false, false, true]
        );
        let st = inj.stats().get(FaultPoint::FrameAlloc);
        assert_eq!(st.rolls, 12);
        assert_eq!(st.fired, 5);
    }

    #[test]
    fn persistence_latches() {
        let plan = FaultPlan::quiet().with(FaultPoint::Fork, PointPlan::persistent_after(3, 2));
        let inj = FaultInjector::new(plan);
        let fails: Vec<bool> = (0..10).map(|_| inj.should_fail(FaultPoint::Fork)).collect();
        // Event 1 at roll 3 (transient), event 2 at roll 6 latches persistent.
        assert_eq!(
            fails,
            vec![false, false, true, false, false, true, true, true, true, true]
        );
    }

    #[test]
    fn quiet_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::quiet());
        for _ in 0..100 {
            for p in FaultPoint::ALL {
                assert!(!inj.should_fail(p));
            }
        }
        assert_eq!(inj.stats().total_fired(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let a = FaultInjector::new(
            FaultPlan::quiet().with(FaultPoint::PebsDrop, PointPlan::transient(2, 1)),
        );
        let b = a.clone();
        assert!(!a.should_fail(FaultPoint::PebsDrop)); // roll 1
        assert!(b.should_fail(FaultPoint::PebsDrop)); // roll 2 fires
        assert_eq!(a.stats().get(FaultPoint::PebsDrop).rolls, 2);
    }

    #[test]
    fn seeded_bursts_heal_within_small_retry_budget() {
        // The governor retries up to 4 times; every non-persistent plan
        // must produce at most 3 consecutive failures on any point.
        for seed in 0..256 {
            let plan = FaultPlan::from_seed(seed);
            let inj = FaultInjector::new(plan.clone());
            for p in FaultPoint::ALL {
                if plan.plan(p).persist_after.is_some() {
                    continue;
                }
                let mut consecutive = 0u32;
                for _ in 0..200 {
                    if inj.should_fail(p) {
                        consecutive += 1;
                        assert!(
                            consecutive <= 3,
                            "seed {seed} point {p} produced a burst of {consecutive}"
                        );
                    } else {
                        consecutive = 0;
                    }
                }
            }
        }
    }

    #[test]
    fn seed_range_covers_every_sim_point_and_mode() {
        // Over a modest seed range, every simulator point fires somewhere
        // and the persistent/probe modes all occur — the property the
        // campaign's coverage gate relies on. The service points must
        // stay quiet: they are planned by the service layer, never by the
        // seeded simulator schedule.
        let mut fired = [false; NPOINTS];
        let (mut fork_p, mut prot_p, mut twin_p, mut probe) = (false, false, false, false);
        for seed in 0..64 {
            let plan = FaultPlan::from_seed(seed);
            probe |= plan.efficacy_probe;
            fork_p |= plan.plan(FaultPoint::Fork).persist_after.is_some();
            prot_p |= plan.plan(FaultPoint::ProtectPage).persist_after.is_some();
            twin_p |= plan.plan(FaultPoint::TwinAlloc).persist_after.is_some();
            let inj = FaultInjector::new(plan);
            for p in FaultPoint::ALL {
                for _ in 0..20 {
                    if inj.should_fail(p) {
                        fired[p.index()] = true;
                    }
                }
            }
        }
        for p in FaultPoint::SIM {
            assert!(fired[p.index()], "sim point {p} never fired");
        }
        for p in [
            FaultPoint::WorkerKill,
            FaultPoint::CacheDrop,
            FaultPoint::JournalTear,
            FaultPoint::CacheCorrupt,
            FaultPoint::FlushFail,
        ] {
            assert!(!fired[p.index()], "service point {p} fired from a sim seed");
        }
        assert!(fork_p && prot_p && twin_p && probe);
    }
}

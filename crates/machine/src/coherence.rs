//! The coherent multicore: per-core private caches, a shared LLC, and the
//! MESI protocol.
//!
//! [`Machine::access`] is the single entry point: given a core, a physical
//! address and an access kind it plays the coherence protocol forward,
//! returning the latency of the access and the [`HitmEvent`] it generated,
//! if any. The single-writer/multiple-reader invariant (§2) is enforced
//! structurally: granting a writable copy invalidates every other copy.
//!
//! # The sharer directory
//!
//! The protocol is *specified* as snooping — every remote query is defined
//! by a broadcast probe of all sibling caches in ascending core order — but
//! *implemented* against a sharer/owner directory: a flat open-addressed
//! [`LineTable`] mapping each privately-cached line to a sharer bitmap and
//! the owning core when some cache holds it Modified. The directory is
//! **derived state**: the tag arrays remain the source of truth, the
//! directory is updated on exactly the mutations `Machine` itself performs
//! (fills, upgrades, downgrades, invalidations, evictions), and every
//! directory answer is `debug_assert`-checked against the broadcast probe
//! it replaces. Because SWMR makes the Modified holder unique and the
//! reference probes return the *lowest* matching core id, answering from
//! the bitmap's lowest set bit is exactly equivalent — the directory can
//! change no observable outcome (latencies, HITM events, stats), only the
//! host cycles spent finding it. `MachineConfig { directory: false, .. }`
//! switches to the literal broadcast loops for differential testing.
//!
//! ## Lazy activation
//!
//! Tracking every resident line costs a table update per fill and per
//! eviction, which on low-contention machines (a line ping-ponging between
//! two cores, or a single core hitting locally) is pure overhead: a 2-core
//! broadcast is cheaper than the bookkeeping it replaces. The directory is
//! therefore **lazily activated per line**: lines start untracked and
//! answer remote queries via broadcast, and a line is promoted into the
//! directory (a one-time tag-array scan seeds the exact entry) when it
//! proves itself contended, by either trigger:
//!
//! 1. a clean fill takes its holder count past two, or
//! 2. it sustains a back-to-back HITM streak — exclusive-ownership
//!    ping-pong keeps the instantaneous holder count at one, but each
//!    bounce pays an O(cores) broadcast the directory can absorb.
//!
//! Promotion is sticky: once tracked a line stays tracked — through
//! write ping-pong, invalidation storms, even after every copy evicts (a
//! drained entry answers "no holders" in O(1)). Machines with at most
//! two cores can never fire the holder-count trigger (three sharers need
//! three cores), so their cleanly-shared lines stay on broadcast — exactly
//! the regime where the broadcast wins. The streak trigger applies at any
//! core count: a two-core write ping-pong pays the same per-bounce
//! broadcast as a large machine, and the tracked M→M handoff (one table
//! probe) replaces a sibling tag probe plus a streak-table probe.

use crate::addr::{CoreId, LineAddr, PhysAddr, Width};
use crate::cache::{Cache, CacheConfig, Insertion, LlcTags, MesiState};
use crate::dirtab::{streak_step, DirEntry, DirTable, NO_HITM, NO_OWNER};
use crate::flat::LineTable;
use crate::hitm::{HitmEvent, HitmKind};
use crate::latency::LatencyModel;
use crate::stats::{DirStats, MachineStats};

/// The kind of a memory access, as the cache hierarchy sees it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write (issues a request-for-ownership on a miss).
    Store,
    /// An atomic read-modify-write (locked instruction).
    Rmw,
}

impl AccessKind {
    /// Whether the access needs a writable (M) copy.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store | AccessKind::Rmw)
    }
}

/// Which level of the memory system serviced an access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceLevel {
    /// Hit in the requester's private cache.
    Local,
    /// Clean line forwarded from a sibling private cache.
    RemoteClean,
    /// Dirty line forwarded from a sibling private cache — the HITM case.
    RemoteDirty,
    /// Hit in the shared last-level cache.
    Llc,
    /// Serviced from DRAM.
    Dram,
}

/// The result of one memory access.
#[derive(Clone, Copy, Debug)]
pub struct AccessOutcome {
    /// Cycles this access took.
    pub latency: u64,
    /// The HITM event generated, if the access hit a remote modified line.
    pub hitm: Option<HitmEvent>,
    /// Where the line was found.
    pub level: ServiceLevel,
}

/// Geometry and latency configuration for a [`Machine`].
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of cores.
    pub cores: usize,
    /// Geometry of each private cache.
    pub private_cache: CacheConfig,
    /// Geometry of the shared LLC.
    pub llc: CacheConfig,
    /// The latency model.
    pub latency: LatencyModel,
    /// Whether the sharer/owner directory accelerator answers remote
    /// queries (`false` forces the reference broadcast-snoop path). On by
    /// default; machines with more than 64 cores fall back to snooping
    /// regardless (the sharer bitmap is one `u64`). This is the typed
    /// replacement for the old process-global `TMI_FASTPATH` toggle.
    pub directory: bool,
}

impl MachineConfig {
    /// A machine with `cores` cores and default Haswell-like caches.
    pub fn with_cores(cores: usize) -> Self {
        MachineConfig {
            cores,
            private_cache: CacheConfig::private_default(),
            llc: CacheConfig::llc_default(),
            latency: LatencyModel::haswell(),
            directory: true,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::with_cores(4)
    }
}

/// The simulated coherent multicore (tag arrays only; data lives in
/// [`crate::PhysMem`]).
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    private: Vec<Cache>,
    llc: LlcTags,
    stats: MachineStats,
    /// Per-line HITM streak state for the queuing penalty: (sequence
    /// number of the last HITM, current streak length).
    hitm_streaks: LineTable<(u64, u64)>,
    /// Sharer/owner directory over the private caches (derived state; see
    /// the module docs). Empty and unused when `dir_enabled` is false.
    dir: DirTable,
    dir_enabled: bool,
    dir_stats: DirStats,
}

impl Machine {
    /// Creates a machine with all caches empty.
    ///
    /// The sharer directory follows [`MachineConfig::directory`] (on by
    /// default; `false` forces the reference broadcast-snoop path).
    /// Machines with more than 64 cores fall back to snooping (the sharer
    /// bitmap is one `u64`).
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero.
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.cores > 0, "machine needs at least one core");
        Machine {
            private: (0..config.cores)
                .map(|_| Cache::new(config.private_cache))
                .collect(),
            llc: LlcTags::new(config.llc),
            stats: MachineStats::default(),
            hitm_streaks: LineTable::default(),
            dir: DirTable::with_capacity(1024),
            dir_enabled: config.directory && config.cores <= 64,
            dir_stats: DirStats::default(),
            config,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.config.cores
    }

    /// The latency model in effect.
    pub fn latency(&self) -> &LatencyModel {
        &self.config.latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Directory accelerator counters (all zero when the directory is
    /// disabled or the machine has more than 64 cores).
    pub fn dir_stats(&self) -> &DirStats {
        &self.dir_stats
    }

    /// Whether the sharer directory is answering remote queries.
    pub fn directory_enabled(&self) -> bool {
        self.dir_enabled
    }

    /// Enables or disables the sharer directory at any point in a run
    /// (test-only; production configuration is construction-time via
    /// [`MachineConfig::directory`]). Disabling reverts every remote query
    /// to the reference broadcast snoop; re-enabling rebuilds the
    /// directory from the tag arrays (the source of truth), so toggling is
    /// always safe. The rebuild honors lazy activation: only lines already
    /// held by three or more caches are installed; the rest stay on
    /// broadcast until they re-promote.
    #[cfg(test)]
    pub(crate) fn set_directory_enabled(&mut self, enabled: bool) {
        let enabled = enabled && self.config.cores <= 64;
        // Tracked lines carry their HITM streak inside the directory entry;
        // write it back to the broadcast-path table before dropping the
        // entries, so a toggle (either direction) never forgets a streak
        // the reference machine would remember.
        {
            let (dir, streaks) = (&self.dir, &mut self.hitm_streaks);
            dir.for_each(|line, e| {
                if e.last_hitm != NO_HITM {
                    *streaks.get_or_insert(line, (NO_HITM, 0)) = (e.last_hitm, e.streak as u64);
                }
            });
        }
        self.dir.clear();
        self.dir_enabled = enabled;
        if enabled {
            let mut resident: std::collections::BTreeMap<LineAddr, DirEntry> =
                std::collections::BTreeMap::new();
            for core in 0..self.config.cores {
                self.private[core].for_each_resident(|line, state| {
                    let e = resident.entry(line).or_default();
                    e.sharers |= 1u64 << core;
                    if state == MesiState::Modified {
                        e.owner = core as u8;
                    }
                });
            }
            for (line, mut e) in resident {
                if e.sharers.count_ones() >= 3 {
                    // Re-installed entries resume the streak state the
                    // broadcast path accumulated.
                    let (last, streak) =
                        self.hitm_streaks.get(line).copied().unwrap_or((NO_HITM, 0));
                    e.last_hitm = last;
                    e.streak = streak.min(u32::MAX as u64) as u32;
                    self.dir.insert(line, e);
                    self.dir_stats.installs += 1;
                }
            }
        }
    }

    /// Performs one coherent memory access from `core` at physical address
    /// `paddr`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: CoreId,
        paddr: PhysAddr,
        kind: AccessKind,
        width: Width,
    ) -> AccessOutcome {
        assert!(core < self.config.cores, "core {core} out of range");
        let line = paddr.line();
        let lat = self.config.latency;
        self.stats.accesses += 1;
        if kind.is_write() {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }

        let mut outcome = if kind.is_write() {
            self.access_write(core, line, paddr, kind, width)
        } else {
            self.access_read(core, line, paddr, width)
        };
        if kind == AccessKind::Rmw {
            outcome.latency += lat.atomic_extra;
        }
        outcome
    }

    fn access_read(
        &mut self,
        core: CoreId,
        line: LineAddr,
        paddr: PhysAddr,
        width: Width,
    ) -> AccessOutcome {
        let lat = self.config.latency;
        if self.private[core].lookup(line).is_some() {
            self.stats.local_hits += 1;
            return AccessOutcome {
                latency: lat.local_hit,
                hitm: None,
                level: ServiceLevel::Local,
            };
        }
        // Query the sibling caches. A tracked line answers every sibling
        // question — dirty owner, lowest clean holder, requester-join and
        // the HITM streak — in one directory touch; untracked lines fall
        // through to the broadcast probes below.
        let mut tracked = false;
        if self.dir_enabled && !self.dir.is_empty() {
            self.dir_stats.probes += 1;
            let seq = self.stats.accesses;
            if let Some(e) = self.dir.get_mut(line) {
                self.dir_stats.hits += 1;
                tracked = true;
                debug_assert_eq!(e.sharers & (1u64 << core), 0, "local miss but bit set");
                if e.owner != NO_OWNER {
                    // HITM: M → S handoff. The old owner keeps a shared
                    // copy, the requester joins, and the dirty data is
                    // considered written back to the LLC.
                    let owner = e.owner as usize;
                    e.sharers |= 1u64 << core;
                    e.owner = NO_OWNER;
                    let queuing = e.hitm_streak_step(seq, &lat);
                    debug_assert_eq!(
                        Some(owner),
                        self.find_remote(core, line, MesiState::Modified),
                        "directory/snoop divergence on remote-M query for {line:?}"
                    );
                    self.private[owner].set_state(line, MesiState::Shared);
                    self.stats.writebacks += 1;
                    self.fill_llc(line);
                    self.fill_tags(core, line, MesiState::Shared);
                    self.stats.hitm_events += 1;
                    self.stats.hitm_loads += 1;
                    return AccessOutcome {
                        latency: lat.hitm + queuing,
                        hitm: Some(HitmEvent {
                            requester: core,
                            owner,
                            line,
                            paddr,
                            width,
                            kind: HitmKind::Load,
                        }),
                        level: ServiceLevel::RemoteDirty,
                    };
                }
                let bits = e.sharers;
                if bits != 0 {
                    // Clean forward from the lowest holder (the reference
                    // broadcast scans cores in ascending order); an E
                    // owner downgrades to S.
                    let fwd = bits.trailing_zeros() as usize;
                    e.sharers |= 1u64 << core;
                    debug_assert_eq!(
                        Some(fwd),
                        self.find_remote_any_clean(core, line),
                        "directory/snoop divergence on remote-clean query for {line:?}"
                    );
                    if self.private[fwd].peek(line) == Some(MesiState::Exclusive) {
                        self.private[fwd].set_state(line, MesiState::Shared);
                    }
                    self.fill_tags(core, line, MesiState::Shared);
                    self.stats.remote_clean_transfers += 1;
                    return AccessOutcome {
                        latency: lat.remote_clean,
                        hitm: None,
                        level: ServiceLevel::RemoteClean,
                    };
                }
                // Drained sticky entry: no sibling holds a copy — skip the
                // broadcasts and go straight to the LLC. The Exclusive
                // fill below re-adds the requester to the entry.
                debug_assert!(
                    self.find_remote_any_clean(core, line).is_none()
                        && self.find_remote(core, line, MesiState::Modified).is_none(),
                    "drained entry but a sibling holds {line:?}"
                );
            }
        }
        if !tracked {
            if let Some(owner) = self.find_remote(core, line, MesiState::Modified) {
                // HITM on an untracked line: broadcast found the owner.
                self.private[owner].set_state(line, MesiState::Shared);
                self.stats.writebacks += 1;
                self.fill_llc(line);
                self.fill_tags(core, line, MesiState::Shared);
                self.stats.hitm_events += 1;
                self.stats.hitm_loads += 1;
                let queuing = self.hitm_queuing(line);
                return AccessOutcome {
                    latency: lat.hitm + queuing,
                    hitm: Some(HitmEvent {
                        requester: core,
                        owner,
                        line,
                        paddr,
                        width,
                        kind: HitmKind::Load,
                    }),
                    level: ServiceLevel::RemoteDirty,
                };
            }
            if let Some(owner) = self.find_remote_any_clean(core, line) {
                // Clean forward; an E owner downgrades to S. (E/S
                // transitions do not touch the directory: the sharer bit
                // is state-blind.)
                if self.private[owner].peek(line) == Some(MesiState::Exclusive) {
                    self.private[owner].set_state(line, MesiState::Shared);
                }
                self.fill_private(core, line, MesiState::Shared);
                self.stats.remote_clean_transfers += 1;
                return AccessOutcome {
                    latency: lat.remote_clean,
                    hitm: None,
                    level: ServiceLevel::RemoteClean,
                };
            }
        }
        if self.llc.lookup(line) {
            self.fill_private(core, line, MesiState::Exclusive);
            self.stats.llc_hits += 1;
            return AccessOutcome {
                latency: lat.llc_hit,
                hitm: None,
                level: ServiceLevel::Llc,
            };
        }
        self.fill_llc(line);
        self.fill_private(core, line, MesiState::Exclusive);
        self.stats.dram_accesses += 1;
        AccessOutcome {
            latency: lat.dram,
            hitm: None,
            level: ServiceLevel::Dram,
        }
    }

    fn access_write(
        &mut self,
        core: CoreId,
        line: LineAddr,
        paddr: PhysAddr,
        kind: AccessKind,
        width: Width,
    ) -> AccessOutcome {
        let lat = self.config.latency;
        match self.private[core].lookup(line) {
            Some(MesiState::Modified) => {
                self.stats.local_hits += 1;
                return AccessOutcome {
                    latency: lat.local_hit,
                    hitm: None,
                    level: ServiceLevel::Local,
                };
            }
            Some(MesiState::Exclusive) => {
                // Silent E→M upgrade.
                self.private[core].set_state(line, MesiState::Modified);
                if !self.dir.is_empty() {
                    if let Some(e) = self.dir.get_mut(line) {
                        e.owner = core as u8;
                    }
                }
                self.stats.local_hits += 1;
                return AccessOutcome {
                    latency: lat.local_hit,
                    hitm: None,
                    level: ServiceLevel::Local,
                };
            }
            Some(MesiState::Shared) => {
                // Invalidating upgrade: kill every other copy. A tracked
                // line claims ownership and walks its sharer bitmap in one
                // directory touch; untracked lines broadcast.
                let n = match self.dir_claim_exclusive(core, line) {
                    Some(n) => n,
                    None => self.invalidate_others(core, line),
                };
                self.private[core].set_state(line, MesiState::Modified);
                self.stats.local_hits += 1;
                self.stats.invalidations += n;
                return AccessOutcome {
                    latency: lat.local_hit + lat.invalidate,
                    hitm: None,
                    level: ServiceLevel::Local,
                };
            }
            None => {}
        }
        // Miss: request for ownership. A tracked line answers the owner
        // query, performs the handoff bookkeeping, and advances the HITM
        // streak in a single directory touch; untracked lines fall through
        // to the broadcast probes below.
        let mut tracked = false;
        if self.dir_enabled && !self.dir.is_empty() {
            self.dir_stats.probes += 1;
            let seq = self.stats.accesses;
            if let Some(e) = self.dir.get_mut(line) {
                self.dir_stats.hits += 1;
                tracked = true;
                debug_assert_eq!(e.sharers & (1u64 << core), 0, "local miss but bit set");
                if e.owner != NO_OWNER {
                    // M → M handoff: SWMR means the old owner was the only
                    // holder, so the entry now describes exactly the new
                    // writer. Keeping the entry (rather than drop +
                    // re-install) is what holds a promoted line under the
                    // directory through ping-pong.
                    let owner = e.owner as usize;
                    debug_assert_eq!(e.sharers, 1u64 << owner, "M line with extra sharers");
                    e.sharers = 1u64 << core;
                    e.owner = core as u8;
                    let queuing = e.hitm_streak_step(seq, &lat);
                    debug_assert_eq!(
                        Some(owner),
                        self.find_remote(core, line, MesiState::Modified),
                        "directory/snoop divergence on remote-M query for {line:?}"
                    );
                    // The dirty owner forwards the line and is invalidated.
                    self.private[owner].invalidate(line);
                    self.stats.writebacks += 1;
                    self.stats.invalidations += 1;
                    self.fill_llc(line);
                    self.fill_tags(core, line, MesiState::Modified);
                    self.stats.hitm_events += 1;
                    self.stats.hitm_stores += 1;
                    let hitm_kind = if kind == AccessKind::Rmw {
                        HitmKind::Load
                    } else {
                        HitmKind::Store
                    };
                    return AccessOutcome {
                        latency: lat.hitm + lat.invalidate + queuing,
                        hitm: Some(HitmEvent {
                            requester: core,
                            owner,
                            line,
                            paddr,
                            width,
                            kind: hitm_kind,
                        }),
                        level: ServiceLevel::RemoteDirty,
                    };
                }
                let bits = e.sharers;
                if bits != 0 {
                    // Clean remote holders: claim the entry for the writer
                    // and invalidate every copy the bitmap lists.
                    e.sharers = 1u64 << core;
                    e.owner = core as u8;
                    debug_assert_eq!(
                        Some(bits.trailing_zeros() as usize),
                        self.find_remote_any_clean(core, line),
                        "directory/snoop divergence on remote-clean query for {line:?}"
                    );
                    let mut rest = bits;
                    let mut n = 0;
                    while rest != 0 {
                        let c = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        let was = self.private[c].invalidate(line);
                        debug_assert!(was.is_some(), "directory listed a non-holder {c}");
                        n += 1;
                    }
                    debug_assert!(
                        self.find_remote_any_clean(core, line).is_none(),
                        "sibling copy survived a tracked invalidation of {line:?}"
                    );
                    self.stats.invalidations += n;
                    self.fill_tags(core, line, MesiState::Modified);
                    self.stats.remote_clean_transfers += 1;
                    return AccessOutcome {
                        latency: lat.remote_clean + lat.invalidate,
                        hitm: None,
                        level: ServiceLevel::RemoteClean,
                    };
                }
                // Drained sticky entry: no sibling copies — skip the
                // broadcasts; the Modified fill below re-claims the entry.
                debug_assert!(
                    self.find_remote_any_clean(core, line).is_none()
                        && self.find_remote(core, line, MesiState::Modified).is_none(),
                    "drained entry but a sibling holds {line:?}"
                );
            }
        }
        if !tracked {
            if let Some(owner) = self.find_remote(core, line, MesiState::Modified) {
                // HITM on an untracked line: the dirty owner forwards the
                // line and is invalidated.
                self.private[owner].invalidate(line);
                self.stats.writebacks += 1;
                self.stats.invalidations += 1;
                self.fill_llc(line);
                self.fill_tags(core, line, MesiState::Modified);
                self.stats.hitm_events += 1;
                self.stats.hitm_stores += 1;
                let queuing = self.hitm_queuing(line);
                let hitm_kind = if kind == AccessKind::Rmw {
                    // RMWs are reported as loads by the HITM load event
                    // (the load half of the RMW performs the snoop).
                    HitmKind::Load
                } else {
                    HitmKind::Store
                };
                return AccessOutcome {
                    latency: lat.hitm + lat.invalidate + queuing,
                    hitm: Some(HitmEvent {
                        requester: core,
                        owner,
                        line,
                        paddr,
                        width,
                        kind: hitm_kind,
                    }),
                    level: ServiceLevel::RemoteDirty,
                };
            }
            if self.find_remote_any_clean(core, line).is_some() {
                let n = self.invalidate_others(core, line);
                self.stats.invalidations += n;
                self.fill_private(core, line, MesiState::Modified);
                self.stats.remote_clean_transfers += 1;
                return AccessOutcome {
                    latency: lat.remote_clean + lat.invalidate,
                    hitm: None,
                    level: ServiceLevel::RemoteClean,
                };
            }
        }
        if self.llc.lookup(line) {
            self.fill_private(core, line, MesiState::Modified);
            self.stats.llc_hits += 1;
            return AccessOutcome {
                latency: lat.llc_hit,
                hitm: None,
                level: ServiceLevel::Llc,
            };
        }
        self.fill_llc(line);
        self.fill_private(core, line, MesiState::Modified);
        self.stats.dram_accesses += 1;
        AccessOutcome {
            latency: lat.dram,
            hitm: None,
            level: ServiceLevel::Dram,
        }
    }

    /// Queuing penalty for a HITM on an *untracked* `line` (tracked lines
    /// keep their streak inside the directory entry and never reach this
    /// table): grows with the current back-to-back transfer streak,
    /// modeling coherence-fabric saturation under sustained ping-pong.
    /// The streak doubles as the second lazy promotion trigger: a line
    /// bouncing between exclusive owners never raises its instantaneous
    /// holder count above one, but a sustained streak proves the
    /// broadcast is being paid over and over, so the line moves under the
    /// directory.
    fn hitm_queuing(&mut self, line: LineAddr) -> u64 {
        let seq = self.stats.accesses;
        let lat = self.config.latency;
        let e = self.hitm_streaks.get_or_insert(line, (NO_HITM, 0));
        let penalty = streak_step(seq, &lat, &mut e.0, &mut e.1);
        // Promote exactly at the crossing, not on every later HITM: hot
        // lines keep their streak above the threshold for the whole run
        // and must not pay a lookup per event. No core-count gate: a
        // two-core ping-pong pays the same per-bounce broadcast as a big
        // machine, and the tracked handoff is strictly cheaper.
        if e.1 == 2 && self.dir_enabled {
            self.promote_contended(line);
        }
        penalty
    }

    /// Scans the tag arrays for `line`'s holders and Modified owner, and
    /// carries over any broadcast-path streak state — the one-time cost
    /// of promoting a line into the directory.
    fn scan_holders(&self, line: LineAddr) -> DirEntry {
        let mut sharers = 0u64;
        let mut owner = NO_OWNER;
        for c in 0..self.config.cores {
            if let Some(s) = self.private[c].peek(line) {
                sharers |= 1u64 << c;
                if s == MesiState::Modified {
                    owner = c as u8;
                }
            }
        }
        let (last_hitm, streak) = self.hitm_streaks.get(line).copied().unwrap_or((NO_HITM, 0));
        DirEntry {
            sharers,
            last_hitm,
            streak: streak.min(u32::MAX as u64) as u32,
            owner,
        }
    }

    /// Promotes a HITM-streaking line that the holder-count trigger can
    /// never catch (ownership ping-pong keeps the count at one). Out of
    /// line so the common single-HITM case stays branch-only.
    #[inline(never)]
    fn promote_contended(&mut self, line: LineAddr) {
        if self.dir.get(line).is_some() {
            return;
        }
        let e = self.scan_holders(line);
        self.dir.insert(line, e);
        self.dir_stats.installs += 1;
        self.dir_stats.promotions += 1;
    }

    /// Reference path: finds a sibling cache (not `core`) holding `line` in
    /// exactly `state` by probing every core in ascending order.
    fn find_remote(&self, core: CoreId, line: LineAddr, state: MesiState) -> Option<CoreId> {
        (0..self.config.cores)
            .filter(|&c| c != core)
            .find(|&c| self.private[c].peek(line) == Some(state))
    }

    /// Reference path: finds a sibling cache holding `line` clean (E or S).
    fn find_remote_any_clean(&self, core: CoreId, line: LineAddr) -> Option<CoreId> {
        (0..self.config.cores).filter(|&c| c != core).find(|&c| {
            matches!(
                self.private[c].peek(line),
                Some(MesiState::Exclusive) | Some(MesiState::Shared)
            )
        })
    }

    /// Tracked-line invalidating upgrade for a writer that already holds
    /// the line Shared: one directory touch claims exclusive ownership for
    /// `core`, then the copied bitmap drives the invalidations — no
    /// broadcast, no second lookup. Returns `None` when the line is
    /// untracked (caller falls back to [`Machine::invalidate_others`]).
    fn dir_claim_exclusive(&mut self, core: CoreId, line: LineAddr) -> Option<u64> {
        if !self.dir_enabled || self.dir.is_empty() {
            return None;
        }
        self.dir_stats.probes += 1;
        let e = self.dir.get_mut(line)?;
        self.dir_stats.hits += 1;
        // The requester holds the line Shared, so MESI says no core holds
        // it Modified.
        debug_assert_eq!(e.owner, NO_OWNER, "S upgrade with an M owner for {line:?}");
        let bits = e.sharers & !(1u64 << core);
        e.sharers = 1u64 << core;
        e.owner = core as u8;
        let mut rest = bits;
        let mut n = 0;
        while rest != 0 {
            let c = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let was = self.private[c].invalidate(line);
            debug_assert!(was.is_some(), "directory listed a non-holder {c}");
            n += 1;
        }
        debug_assert!(
            self.find_remote_any_clean(core, line).is_none(),
            "sibling copy survived a tracked invalidation of {line:?}"
        );
        Some(n)
    }

    /// Reference path: invalidates `line` in every sibling cache by
    /// probing all cores in ascending order, returning the count. Only
    /// reached for untracked lines, so there is no directory entry to
    /// maintain.
    fn invalidate_others(&mut self, core: CoreId, line: LineAddr) -> u64 {
        let mut n = 0;
        for c in 0..self.config.cores {
            if c != core && self.private[c].invalidate(line).is_some() {
                n += 1;
            }
        }
        n
    }

    /// Drops `core`'s sharer bit for `line` (cache eviction already
    /// applied to the tag array). A no-op for untracked lines. Promotion
    /// is sticky: an entry whose sharer set drains to empty is *kept* —
    /// it answers "no remote holder" in O(1), and the next fill re-adds
    /// the holder without a re-promotion scan.
    fn dir_drop_sharer(&mut self, line: LineAddr, core: CoreId) {
        if self.dir.is_empty() {
            return;
        }
        let Some(e) = self.dir.get_mut(line) else {
            return;
        };
        e.sharers &= !(1u64 << core);
        if e.owner as usize == core {
            e.owner = NO_OWNER;
        }
        if e.sharers == 0 {
            self.dir_stats.removals += 1;
        }
    }

    /// Tag-array insert plus victim handling, without the requester-line
    /// directory update — for callers that fold that update into a
    /// directory touch they make anyway (the HITM handoff paths).
    fn fill_tags(&mut self, core: CoreId, line: LineAddr, state: MesiState) {
        if let Insertion::Evicted { line: v, dirty } = self.private[core].insert(line, state) {
            if dirty {
                self.stats.writebacks += 1;
                self.llc.insert(v);
            }
            if self.dir_enabled {
                self.dir_drop_sharer(v, core);
            }
        }
    }

    fn fill_private(&mut self, core: CoreId, line: LineAddr, state: MesiState) {
        self.fill_tags(core, line, state);
        if !self.dir_enabled {
            return;
        }
        // Streak promotion works at any core count, so tracked entries
        // must be maintained whenever the table is non-empty — including
        // on two-core machines, whose table used to be permanently empty.
        if !self.dir.is_empty() {
            if let Some(e) = self.dir.get_mut(line) {
                // Already tracked: update in place.
                e.sharers |= 1u64 << core;
                if state == MesiState::Modified {
                    e.owner = core as u8;
                }
                return;
            }
        }
        // Lazy activation, trigger one: an untracked line is promoted on
        // the fill that takes its holder count past two. Only a Shared
        // fill can do that — an Exclusive fill means no other holder
        // existed and a Modified fill just invalidated every other copy,
        // so neither pays the scan. Impossible with fewer than three
        // cores, so those machines skip the probe entirely.
        if state == MesiState::Shared && self.config.cores > 2 {
            let e = self.scan_holders(line);
            if e.sharers.count_ones() >= 3 {
                self.dir.insert(line, e);
                self.dir_stats.installs += 1;
                self.dir_stats.promotions += 1;
            }
        }
    }

    fn fill_llc(&mut self, line: LineAddr) {
        // LLC victims just fall to memory; nothing to track.
        self.llc.insert(line);
    }

    /// Read-only view of one core's private cache (tests, memory stats).
    pub fn private_cache(&self, core: CoreId) -> &Cache {
        &self.private[core]
    }

    /// Asserts that the directory is a consistent *subset* of the tag
    /// arrays: every tracked line with a non-empty sharer set matches the
    /// caches exactly, and every drained (sticky) entry tracks a line no
    /// cache holds. Lazy activation means untracked resident lines are
    /// fine (they answer by broadcast); a tracked line the caches disagree
    /// with is a bug. Testing hook; a no-op while the directory is
    /// disabled.
    pub fn assert_directory_consistent(&self) {
        if !self.dir_enabled {
            return;
        }
        let mut expected: std::collections::BTreeMap<LineAddr, DirEntry> =
            std::collections::BTreeMap::new();
        for core in 0..self.config.cores {
            self.private[core].for_each_resident(|line, state| {
                let e = expected.entry(line).or_default();
                e.sharers |= 1u64 << core;
                if state == MesiState::Modified {
                    assert_eq!(e.owner, NO_OWNER, "two Modified holders for {line:?}");
                    e.owner = core as u8;
                }
            });
        }
        self.dir.for_each(|line, e| {
            if e.sharers == 0 {
                // Sticky entry: every copy evicted, kept to answer "no
                // holders" without a broadcast. No owner without a copy.
                assert_eq!(e.owner, NO_OWNER, "owner on a drained entry {line:?}");
                assert!(
                    !expected.contains_key(&line),
                    "drained entry but caches hold {line:?}"
                );
                return;
            }
            let want = expected
                .get(&line)
                .unwrap_or_else(|| panic!("directory tracks evicted line {line:?}"));
            assert_eq!(e.sharers, want.sharers, "sharer bitmap for {line:?}");
            assert_eq!(e.owner, want.owner, "owner for {line:?}");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig::with_cores(cores))
    }

    fn a(x: u64) -> PhysAddr {
        PhysAddr::new(x)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = machine(2);
        let o1 = m.access(0, a(0x1000), AccessKind::Load, Width::W8);
        assert_eq!(o1.level, ServiceLevel::Dram);
        let o2 = m.access(0, a(0x1008), AccessKind::Load, Width::W8);
        assert_eq!(o2.level, ServiceLevel::Local);
        assert!(o2.latency < o1.latency);
    }

    #[test]
    fn load_after_remote_store_is_hitm() {
        let mut m = machine(2);
        m.access(0, a(0x2000), AccessKind::Store, Width::W8);
        let o = m.access(1, a(0x2008), AccessKind::Load, Width::W8);
        assert_eq!(o.level, ServiceLevel::RemoteDirty);
        let hitm = o.hitm.expect("HITM event");
        assert_eq!(hitm.requester, 1);
        assert_eq!(hitm.owner, 0);
        assert_eq!(hitm.kind, HitmKind::Load);
        assert_eq!(hitm.paddr, a(0x2008));
        assert_eq!(m.stats().hitm_events, 1);
    }

    #[test]
    fn store_after_remote_store_is_store_hitm() {
        let mut m = machine(2);
        m.access(0, a(0x3000), AccessKind::Store, Width::W4);
        let o = m.access(1, a(0x3010), AccessKind::Store, Width::W4);
        let hitm = o.hitm.expect("HITM event");
        assert_eq!(hitm.kind, HitmKind::Store);
        assert_eq!(m.stats().hitm_stores, 1);
    }

    #[test]
    fn false_sharing_ping_pong_generates_stream_of_hitms() {
        // Two cores repeatedly writing disjoint bytes of one line: every
        // access after warmup must pay a HITM — the pathology of §1.
        let mut m = machine(2);
        let mut hitms = 0;
        for _ in 0..100 {
            if m.access(0, a(0x4000), AccessKind::Store, Width::W8)
                .hitm
                .is_some()
            {
                hitms += 1;
            }
            if m.access(1, a(0x4008), AccessKind::Store, Width::W8)
                .hitm
                .is_some()
            {
                hitms += 1;
            }
        }
        assert!(hitms >= 198, "expected ping-pong, got {hitms} HITMs");
    }

    #[test]
    fn disjoint_lines_do_not_ping_pong() {
        let mut m = machine(2);
        // Warm up.
        m.access(0, a(0x5000), AccessKind::Store, Width::W8);
        m.access(1, a(0x5040), AccessKind::Store, Width::W8);
        let before = m.stats().hitm_events;
        for _ in 0..100 {
            m.access(0, a(0x5000), AccessKind::Store, Width::W8);
            m.access(1, a(0x5040), AccessKind::Store, Width::W8);
        }
        assert_eq!(m.stats().hitm_events, before);
    }

    #[test]
    fn shared_reads_do_not_invalidate() {
        let mut m = machine(4);
        m.access(0, a(0x6000), AccessKind::Load, Width::W8);
        for c in 1..4 {
            let o = m.access(c, a(0x6000), AccessKind::Load, Width::W8);
            assert!(o.hitm.is_none());
        }
        // All four cores hold the line; further reads are local hits.
        for c in 0..4 {
            let o = m.access(c, a(0x6000), AccessKind::Load, Width::W8);
            assert_eq!(o.level, ServiceLevel::Local);
        }
        m.assert_directory_consistent();
    }

    #[test]
    fn write_to_shared_line_invalidates_other_readers() {
        let mut m = machine(3);
        for c in 0..3 {
            m.access(c, a(0x7000), AccessKind::Load, Width::W8);
        }
        let o = m.access(0, a(0x7000), AccessKind::Store, Width::W8);
        assert!(o.hitm.is_none(), "clean upgrade is not a HITM");
        assert!(m.stats().invalidations >= 2);
        // Core 1 must now re-fetch and sees the dirty line: HITM.
        let o = m.access(1, a(0x7000), AccessKind::Load, Width::W8);
        assert!(o.hitm.is_some());
        m.assert_directory_consistent();
    }

    #[test]
    fn rmw_pays_atomic_premium() {
        let mut m = machine(1);
        m.access(0, a(0x8000), AccessKind::Store, Width::W8);
        let plain = m.access(0, a(0x8000), AccessKind::Store, Width::W8).latency;
        let locked = m.access(0, a(0x8000), AccessKind::Rmw, Width::W8).latency;
        assert!(locked > plain);
    }

    #[test]
    fn different_physical_frames_same_virtual_pattern_no_hitm() {
        // The repair mechanism in one picture: move one thread's byte to a
        // different physical frame and the ping-pong disappears.
        let mut m = machine(2);
        m.access(0, a(0x9000), AccessKind::Store, Width::W8);
        m.access(1, a(0x20_9008), AccessKind::Store, Width::W8); // other frame
        let before = m.stats().hitm_events;
        for _ in 0..50 {
            m.access(0, a(0x9000), AccessKind::Store, Width::W8);
            m.access(1, a(0x20_9008), AccessKind::Store, Width::W8);
        }
        assert_eq!(m.stats().hitm_events, before);
    }

    #[test]
    fn llc_services_reread_after_eviction() {
        let cfg = MachineConfig {
            cores: 1,
            private_cache: CacheConfig { sets: 1, ways: 1 },
            llc: CacheConfig::llc_default(),
            latency: LatencyModel::haswell(),
            directory: true,
        };
        let mut m = Machine::new(cfg);
        m.access(0, a(0), AccessKind::Load, Width::W8);
        m.access(0, a(64), AccessKind::Load, Width::W8); // evicts line 0
        let o = m.access(0, a(0), AccessKind::Load, Width::W8);
        assert_eq!(o.level, ServiceLevel::Llc);
        m.assert_directory_consistent();
    }

    #[test]
    fn stats_accumulate() {
        let mut m = machine(2);
        m.access(0, a(0x1000), AccessKind::Load, Width::W8);
        m.access(0, a(0x1000), AccessKind::Store, Width::W8);
        m.access(1, a(0x1000), AccessKind::Rmw, Width::W8);
        let s = m.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 2);
    }

    #[test]
    fn directory_survives_evictions() {
        // Tiny private caches over a small hot set: lines get promoted
        // (three or more sharers), then constantly evicted and refilled.
        // The directory must stay a consistent subset of the tag arrays
        // throughout, and last-copy evictions must drop entries.
        let cfg = MachineConfig {
            cores: 4,
            private_cache: CacheConfig { sets: 2, ways: 2 },
            llc: CacheConfig::llc_default(),
            latency: LatencyModel::haswell(),
            directory: true,
        };
        let mut m = Machine::new(cfg);
        let mut x = 0x1234_5678u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let core = (x % 4) as usize;
            let addr = a((x >> 4) % (16 * 64)); // 16 lines: shared and thrashed
            let kind = if x % 5 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            m.access(core, addr, kind, Width::W8);
            m.assert_directory_consistent();
        }
        assert!(
            m.dir_stats().promotions > 0,
            "workload never promoted a line"
        );
        assert!(
            m.dir_stats().removals > 0,
            "evictions never emptied an entry"
        );
    }

    #[test]
    fn promotion_happens_on_the_third_sharer() {
        let mut m = machine(4);
        m.access(0, a(0xA000), AccessKind::Load, Width::W8);
        m.access(1, a(0xA000), AccessKind::Load, Width::W8);
        // Two holders: still on broadcast.
        assert_eq!(m.dir_stats().promotions, 0);
        m.access(2, a(0xA000), AccessKind::Load, Width::W8);
        // Third holder: promoted with the exact sharer set.
        assert_eq!(m.dir_stats().promotions, 1);
        m.assert_directory_consistent();
        // A write from a fourth core invalidates the sharers but keeps the
        // line tracked: the next remote query answers from the directory.
        m.access(3, a(0xA000), AccessKind::Store, Width::W8);
        m.assert_directory_consistent();
        let hits = m.dir_stats().hits;
        let o = m.access(0, a(0xA000), AccessKind::Load, Width::W8);
        assert_eq!(o.level, ServiceLevel::RemoteDirty);
        assert!(
            m.dir_stats().hits > hits,
            "tracked line answered by broadcast"
        );
        assert_eq!(m.dir_stats().promotions, 1, "no re-promotion churn");
    }

    #[test]
    fn two_core_clean_sharing_never_promotes() {
        // With at most two cores a line cannot reach three sharers, so
        // clean read sharing (no HITMs, no streak) leaves the directory
        // empty and every query takes the broadcast path.
        let mut m = machine(2);
        for i in 0..100u64 {
            let addr = a((i % 8) * 64);
            m.access(0, addr, AccessKind::Load, Width::W8);
            m.access(1, addr, AccessKind::Load, Width::W8);
        }
        assert_eq!(m.dir_stats().promotions, 0);
        assert_eq!(m.dir_stats().installs, 0);
        assert_eq!(m.dir_stats().hits, 0);
        m.assert_directory_consistent();
    }

    #[test]
    fn two_core_write_ping_pong_promotes_on_streak() {
        // The streak trigger has no core-count gate: a two-core store
        // ping-pong proves the broadcast is being paid per bounce, so the
        // line moves under the directory and later handoffs answer from
        // the tracked entry.
        let mut m = machine(2);
        for _ in 0..4 {
            m.access(0, a(0xB000), AccessKind::Store, Width::W8);
            m.access(1, a(0xB008), AccessKind::Store, Width::W8);
            m.assert_directory_consistent();
        }
        assert_eq!(m.dir_stats().promotions, 1);
        assert!(
            m.dir_stats().hits > 0,
            "promoted line never answered a query from the directory"
        );
        m.assert_directory_consistent();
    }

    #[test]
    fn directory_toggle_rebuilds_from_caches() {
        let mut m = machine(4);
        for i in 0..32u64 {
            m.access(
                (i % 4) as usize,
                a(0x1_0000 + i * 8),
                AccessKind::Store,
                Width::W8,
            );
            m.access(
                ((i + 1) % 4) as usize,
                a(0x1_0000 + i * 8),
                AccessKind::Load,
                Width::W8,
            );
        }
        m.set_directory_enabled(false);
        assert!(!m.directory_enabled());
        // Runs correctly on the snoop path.
        m.access(0, a(0x1_0000), AccessKind::Store, Width::W8);
        m.set_directory_enabled(true);
        m.assert_directory_consistent();
        m.access(1, a(0x1_0000), AccessKind::Load, Width::W8);
        m.assert_directory_consistent();
    }

    #[test]
    fn snoop_and_directory_agree_on_a_mixed_workload() {
        // Same deterministic access stream on both paths: every outcome
        // field and the final stats must be identical.
        let mut fast = machine(4);
        let mut refr = machine(4);
        refr.set_directory_enabled(false);
        let mut x = 0x9e37_79b9u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let core = (x % 4) as usize;
            let addr = a((x >> 8) % 0x8_0000);
            let kind = match x % 3 {
                0 => AccessKind::Load,
                1 => AccessKind::Store,
                _ => AccessKind::Rmw,
            };
            let of = fast.access(core, addr, kind, Width::W8);
            let or = refr.access(core, addr, kind, Width::W8);
            assert_eq!(of.latency, or.latency);
            assert_eq!(of.level, or.level);
            assert_eq!(
                of.hitm.map(|h| (h.owner, h.kind)),
                or.hitm.map(|h| (h.owner, h.kind))
            );
        }
        assert_eq!(fast.stats(), refr.stats());
        fast.assert_directory_consistent();
    }
}

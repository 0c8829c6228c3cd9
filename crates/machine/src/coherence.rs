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
//! *answered* by an exact sharer/owner directory. Every line held by any
//! private cache has one [`DirTable`] entry: the sharer bitmap, the core
//! holding the line Modified (if any) and the line's HITM streak. The
//! entry is created by the fill that brings in the first copy, updated on
//! every upgrade, downgrade, invalidation and eviction, and dropped when
//! the last private copy leaves — unless the line has HITM history, since
//! the queuing penalty of its next HITM depends on the streak. The table
//! is therefore bounded by the resident lines plus the lines that ever
//! paid a HITM.
//!
//! The directory is **derived state**: the tag arrays remain the source of
//! truth. SWMR makes the Modified holder unique and the broadcast returns
//! the *lowest* matching core id, so answering from the bitmap's lowest
//! set bit is exactly the broadcast's answer. The broadcast probes survive
//! only as the debug oracle: every directory answer is `debug_assert`-ed
//! against the probe it replaces, and
//! [`Machine::assert_directory_consistent`] checks the whole table against
//! the tag arrays. The sharer bitmap is one `u64`, so a machine has at most
//! [`MAX_CORES`] cores.

use crate::addr::{CoreId, LineAddr, PhysAddr, Width};
use crate::cache::{Cache, CacheConfig, Insertion, LlcTags, MesiState};
use crate::dirtab::{DirEntry, DirTable, NO_HITM, NO_OWNER};
use crate::hitm::{HitmEvent, HitmKind};
use crate::latency::LatencyModel;
use crate::stats::MachineStats;

/// The most cores a [`Machine`] can have: the width of the directory's
/// sharer bitmap.
pub const MAX_CORES: usize = 64;

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

/// Geometry of a [`Machine`]; its latencies are the [`LatencyModel`]
/// constants.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of cores (1 to [`MAX_CORES`]).
    pub cores: usize,
    /// Geometry of each private cache.
    pub private_cache: CacheConfig,
    /// Geometry of the shared LLC.
    pub llc: CacheConfig,
}

impl MachineConfig {
    /// A machine with `cores` cores and default Haswell-like caches.
    pub fn with_cores(cores: usize) -> Self {
        MachineConfig {
            cores,
            private_cache: CacheConfig::private_default(),
            llc: CacheConfig::llc_default(),
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
    /// Sharer/owner directory over the private caches (derived state; see
    /// the module docs).
    dir: DirTable,
}

impl Machine {
    /// Creates a machine with all caches empty.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero or above [`MAX_CORES`].
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.cores > 0, "machine needs at least one core");
        assert!(
            config.cores <= MAX_CORES,
            "machine has {} cores; the sharer bitmap holds at most {MAX_CORES}",
            config.cores
        );
        Machine {
            private: (0..config.cores)
                .map(|_| Cache::new(config.private_cache))
                .collect(),
            llc: LlcTags::new(config.llc),
            stats: MachineStats::default(),
            dir: DirTable::with_capacity(1024),
            config,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.config.cores
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
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
            outcome.latency += LatencyModel::ATOMIC_EXTRA;
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
        if self.private[core].lookup(line).is_some() {
            self.stats.local_hits += 1;
            return AccessOutcome {
                latency: LatencyModel::LOCAL_HIT,
                hitm: None,
                level: ServiceLevel::Local,
            };
        }
        // Query the sibling caches. The directory entry answers every
        // sibling question — dirty owner, lowest clean holder, requester
        // join and the HITM streak — in one touch.
        let seq = self.stats.accesses;
        if let Some(e) = self.dir.get_mut(line) {
            debug_assert_eq!(e.sharers & (1u64 << core), 0, "local miss but bit set");
            if e.owner != NO_OWNER {
                // HITM: M → S handoff. The old owner keeps a shared
                // copy, the requester joins, and the dirty data is
                // considered written back to the LLC.
                let owner = e.owner as usize;
                e.sharers |= 1u64 << core;
                e.owner = NO_OWNER;
                let queuing = e.hitm_streak_step(seq);
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
                    latency: LatencyModel::HITM + queuing,
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
                    latency: LatencyModel::REMOTE_CLEAN,
                    hitm: None,
                    level: ServiceLevel::RemoteClean,
                };
            }
            // An entry without holders is kept only for its HITM
            // history: no sibling holds a copy.
        }
        debug_assert!(
            self.find_remote_any_clean(core, line).is_none()
                && self.find_remote(core, line, MesiState::Modified).is_none(),
            "directory lists no holder but a sibling holds {line:?}"
        );
        if self.llc.lookup(line) {
            self.fill_private(core, line, MesiState::Exclusive);
            self.stats.llc_hits += 1;
            return AccessOutcome {
                latency: LatencyModel::LLC_HIT,
                hitm: None,
                level: ServiceLevel::Llc,
            };
        }
        self.fill_llc(line);
        self.fill_private(core, line, MesiState::Exclusive);
        self.stats.dram_accesses += 1;
        AccessOutcome {
            latency: LatencyModel::DRAM,
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
        match self.private[core].lookup(line) {
            Some(MesiState::Modified) => {
                self.stats.local_hits += 1;
                return AccessOutcome {
                    latency: LatencyModel::LOCAL_HIT,
                    hitm: None,
                    level: ServiceLevel::Local,
                };
            }
            Some(MesiState::Exclusive) => {
                // Silent E→M upgrade.
                self.private[core].set_state(line, MesiState::Modified);
                self.tracked(line).owner = core as u8;
                self.stats.local_hits += 1;
                return AccessOutcome {
                    latency: LatencyModel::LOCAL_HIT,
                    hitm: None,
                    level: ServiceLevel::Local,
                };
            }
            Some(MesiState::Shared) => {
                // Invalidating upgrade: claim ownership and kill every
                // other copy the sharer bitmap lists.
                let e = self.tracked(line);
                // The requester holds the line Shared, so MESI says no
                // core holds it Modified.
                debug_assert_eq!(e.owner, NO_OWNER, "S upgrade with an M owner for {line:?}");
                let others = e.sharers & !(1u64 << core);
                e.sharers = 1u64 << core;
                e.owner = core as u8;
                let n = self.invalidate_sharers(core, line, others);
                self.private[core].set_state(line, MesiState::Modified);
                self.stats.local_hits += 1;
                self.stats.invalidations += n;
                return AccessOutcome {
                    latency: LatencyModel::LOCAL_HIT + LatencyModel::INVALIDATE,
                    hitm: None,
                    level: ServiceLevel::Local,
                };
            }
            None => {}
        }
        // Miss: request for ownership. The directory entry answers the
        // owner query, performs the handoff bookkeeping, and advances the
        // HITM streak in a single touch.
        let seq = self.stats.accesses;
        if let Some(e) = self.dir.get_mut(line) {
            debug_assert_eq!(e.sharers & (1u64 << core), 0, "local miss but bit set");
            if e.owner != NO_OWNER {
                // M → M handoff: SWMR means the old owner was the only
                // holder, so the entry now describes exactly the new
                // writer.
                let owner = e.owner as usize;
                debug_assert_eq!(e.sharers, 1u64 << owner, "M line with extra sharers");
                e.sharers = 1u64 << core;
                e.owner = core as u8;
                let queuing = e.hitm_streak_step(seq);
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
                    // RMWs are reported as loads by the HITM load event
                    // (the load half of the RMW performs the snoop).
                    HitmKind::Load
                } else {
                    HitmKind::Store
                };
                return AccessOutcome {
                    latency: LatencyModel::HITM + LatencyModel::INVALIDATE + queuing,
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
                let n = self.invalidate_sharers(core, line, bits);
                self.stats.invalidations += n;
                self.fill_tags(core, line, MesiState::Modified);
                self.stats.remote_clean_transfers += 1;
                return AccessOutcome {
                    latency: LatencyModel::REMOTE_CLEAN + LatencyModel::INVALIDATE,
                    hitm: None,
                    level: ServiceLevel::RemoteClean,
                };
            }
            // An entry without holders is kept only for its HITM
            // history: no sibling holds a copy.
        }
        debug_assert!(
            self.find_remote_any_clean(core, line).is_none()
                && self.find_remote(core, line, MesiState::Modified).is_none(),
            "directory lists no holder but a sibling holds {line:?}"
        );
        if self.llc.lookup(line) {
            self.fill_private(core, line, MesiState::Modified);
            self.stats.llc_hits += 1;
            return AccessOutcome {
                latency: LatencyModel::LLC_HIT,
                hitm: None,
                level: ServiceLevel::Llc,
            };
        }
        self.fill_llc(line);
        self.fill_private(core, line, MesiState::Modified);
        self.stats.dram_accesses += 1;
        AccessOutcome {
            latency: LatencyModel::DRAM,
            hitm: None,
            level: ServiceLevel::Dram,
        }
    }

    /// The directory entry of a line some private cache holds.
    fn tracked(&mut self, line: LineAddr) -> &mut DirEntry {
        self.dir
            .get_mut(line)
            .unwrap_or_else(|| panic!("resident line {line:?} has no directory entry"))
    }

    /// Invalidates `line` in every core of the `sharers` bitmap (the
    /// caller has already claimed the entry for `core`) and returns the
    /// count.
    fn invalidate_sharers(&mut self, core: CoreId, line: LineAddr, sharers: u64) -> u64 {
        let mut rest = sharers;
        while rest != 0 {
            let c = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let was = self.private[c].invalidate(line);
            debug_assert!(was.is_some(), "directory listed a non-holder {c}");
        }
        debug_assert!(
            self.find_remote_any_clean(core, line).is_none(),
            "sibling copy survived an invalidation of {line:?}"
        );
        u64::from(sharers.count_ones())
    }

    /// Debug oracle: finds a sibling cache (not `core`) holding `line` in
    /// exactly `state` by probing every core in ascending order.
    fn find_remote(&self, core: CoreId, line: LineAddr, state: MesiState) -> Option<CoreId> {
        (0..self.config.cores)
            .filter(|&c| c != core)
            .find(|&c| self.private[c].peek(line) == Some(state))
    }

    /// Debug oracle: finds a sibling cache holding `line` clean (E or S).
    fn find_remote_any_clean(&self, core: CoreId, line: LineAddr) -> Option<CoreId> {
        (0..self.config.cores).filter(|&c| c != core).find(|&c| {
            matches!(
                self.private[c].peek(line),
                Some(MesiState::Exclusive) | Some(MesiState::Shared)
            )
        })
    }

    /// Tag-array insert plus victim handling, without the requester-line
    /// directory update — for callers that fold that update into a
    /// directory touch they make anyway (the remote-forward paths).
    fn fill_tags(&mut self, core: CoreId, line: LineAddr, state: MesiState) {
        if let Insertion::Evicted { line: v, dirty } = self.private[core].insert(line, state) {
            if dirty {
                self.stats.writebacks += 1;
                self.llc.insert(v);
            }
            self.dir.drop_sharer(v, core);
        }
    }

    /// Fills `line` into `core`'s private cache from the LLC or DRAM (no
    /// sibling holds it) and records the copy in the directory.
    fn fill_private(&mut self, core: CoreId, line: LineAddr, state: MesiState) {
        self.fill_tags(core, line, state);
        let e = self.dir.entry(line);
        e.sharers |= 1u64 << core;
        if state == MesiState::Modified {
            e.owner = core as u8;
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

    /// Asserts that the directory matches the tag arrays exactly: every
    /// resident line has an entry with its exact sharer set and Modified
    /// owner, and every other entry has no holders, no owner and a HITM
    /// history (the only reason to keep it). Testing hook.
    pub fn assert_directory_consistent(&self) {
        let mut expected: std::collections::BTreeMap<LineAddr, (u64, u8)> =
            std::collections::BTreeMap::new();
        for core in 0..self.config.cores {
            self.private[core].for_each_resident(|line, state| {
                let (sharers, owner) = expected.entry(line).or_insert((0, NO_OWNER));
                *sharers |= 1u64 << core;
                if state == MesiState::Modified {
                    assert_eq!(*owner, NO_OWNER, "two Modified holders for {line:?}");
                    *owner = core as u8;
                }
            });
        }
        let mut tracked = 0;
        self.dir.for_each(|line, e| match expected.get(&line) {
            Some(&(sharers, owner)) => {
                assert_eq!(e.sharers, sharers, "sharer bitmap for {line:?}");
                assert_eq!(e.owner, owner, "owner for {line:?}");
                tracked += 1;
            }
            None => {
                assert_eq!(e.sharers, 0, "directory lists holders of evicted {line:?}");
                assert_eq!(e.owner, NO_OWNER, "owner on a holder-less entry {line:?}");
                assert_ne!(
                    e.last_hitm, NO_HITM,
                    "holder-less entry without HITM history for {line:?}"
                );
            }
        });
        assert_eq!(
            tracked,
            expected.len(),
            "resident lines missing from the directory"
        );
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
        // Tiny private caches over a small hot set: lines are shared by
        // several cores, then constantly evicted and refilled. The
        // directory must match the tag arrays exactly throughout.
        let cfg = MachineConfig {
            cores: 4,
            private_cache: CacheConfig { sets: 2, ways: 2 },
            llc: CacheConfig::llc_default(),
        };
        let mut m = Machine::new(cfg);
        let mut x = 0x1234_5678u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let core = (x % 4) as usize;
            let addr = a((x >> 4) % (16 * 64)); // 16 lines: shared and thrashed
            let kind = if x.is_multiple_of(5) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            m.access(core, addr, kind, Width::W8);
            m.assert_directory_consistent();
        }
    }

    #[test]
    fn hitm_streak_outlives_eviction() {
        // One-line private caches: a store ping-pong builds a HITM streak,
        // then the line leaves every cache. Its entry must stay (holder-
        // less, with its history) so the next HITM continues the streak.
        let cfg = MachineConfig {
            private_cache: CacheConfig { sets: 1, ways: 1 },
            ..MachineConfig::with_cores(2)
        };
        let mut m = Machine::new(cfg);
        m.access(0, a(0xC000), AccessKind::Store, Width::W8);
        m.access(1, a(0xC000), AccessKind::Store, Width::W8); // streak 1
        m.access(0, a(0xC000), AccessKind::Store, Width::W8); // streak 2
        m.access(0, a(0xD000), AccessKind::Store, Width::W8); // evicts the line
        m.assert_directory_consistent();
        assert_eq!(m.dir.get(a(0xC000).line()).map(|e| e.sharers), Some(0));
        m.access(0, a(0xC000), AccessKind::Store, Width::W8);
        let o = m.access(1, a(0xC000), AccessKind::Store, Width::W8); // streak 3
        assert_eq!(
            o.latency,
            LatencyModel::HITM + LatencyModel::INVALIDATE + 3 * LatencyModel::HITM_QUEUING_STEP
        );
        m.assert_directory_consistent();
    }

    #[test]
    fn private_streaming_keeps_the_directory_bounded_by_resident_lines() {
        // Each core streams loads and stores through its own region, four
        // times its private cache. Every fill evicts a line no one else
        // holds and no line ever pays a HITM, so each last-copy eviction
        // must drop its entry: the table never outgrows the caches.
        let cfg = MachineConfig {
            private_cache: CacheConfig { sets: 16, ways: 4 },
            ..MachineConfig::with_cores(4)
        };
        let mut m = Machine::new(cfg);
        let lines = 4 * 16 * 4u64;
        for i in 0..lines {
            for core in 0..4 {
                let kind = if i % 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                m.access(core, a(((core as u64) << 24) + i * 64), kind, Width::W8);
            }
            assert!(m.dir.len() <= 4 * 16 * 4, "directory outgrew the caches");
        }
        let resident: usize = (0..4).map(|c| m.private_cache(c).resident_lines()).sum();
        assert_eq!(resident, 4 * 16 * 4);
        assert_eq!(m.dir.len(), resident);
        m.assert_directory_consistent();
    }

    #[test]
    fn snoop_and_directory_agree_on_a_mixed_workload() {
        // Every directory answer is debug-asserted against the broadcast
        // snoop it replaces; the periodic full check also catches stale
        // or missing entries between queries.
        let mut m = machine(4);
        let mut x = 0x9e37_79b9u64;
        for i in 0..50_000 {
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
            m.access(core, addr, kind, Width::W8);
            if i % 5_000 == 0 {
                m.assert_directory_consistent();
            }
        }
        assert!(m.stats().hitm_events > 0, "workload never contended");
        m.assert_directory_consistent();
    }
}

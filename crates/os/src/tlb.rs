//! A per-address-space software TLB: a direct-mapped translation cache in
//! front of the two-level page table.
//!
//! [`crate::Kernel::translate`] is the hottest kernel path — every
//! simulated memory access walks it — so each address space keeps a small
//! direct-mapped cache of present PTEs keyed by VPN. The TLB is a pure
//! accelerator: it only ever caches entries copied from the page table, and
//! every page-table mutation (`set_pte` / `remove_pte`, which is how
//! demand paging, COW breaks, PTSB arming/`mprotect` and fork reach the
//! table) shoots down the matching slot precisely, so a lookup can never
//! return stale state. A generation counter provides O(1) full flushes —
//! the simulated analogue of the TLB shootdown a real `mprotect`/`fork`
//! broadcasts, and the reset point when the accelerator is toggled.
//!
//! Interior mutability (`Cell`) keeps hit-path fills and hit/miss counters
//! inside `&self` translation, mirroring how a hardware TLB fills behind a
//! read-only architectural operation.

use std::cell::Cell;

use tmi_machine::{FrameId, Vpn};
use tmi_telemetry::{MetricSink, MetricSource};

/// Number of direct-mapped slots. 256 slots cover 1 MiB of 4 KiB pages —
/// comfortably the hot working set of the simulated workloads — while the
/// whole array stays a few cache lines of host memory.
const SLOTS: usize = 256;

/// One cached translation. `gen` ties the entry to the flush generation
/// that created it; a stale generation means invalid.
#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    vpn: u64,
    frame: FrameId,
    writable: bool,
    gen: u64,
}

const INVALID: TlbEntry = TlbEntry {
    vpn: 0,
    frame: FrameId(0),
    writable: false,
    gen: 0,
};

/// Aggregated software-TLB counters (see [`crate::Kernel::tlb_stats`]).
/// Purely observational: hits return exactly what the page-table walk
/// would. All zero when the TLB is disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations answered from the TLB.
    pub hits: u64,
    /// Translations that fell through to the page-table walk.
    pub misses: u64,
    /// Precise single-slot invalidations from PTE mutations.
    pub shootdowns: u64,
    /// Full flushes (generation bumps) from fork-style broadcasts.
    pub flushes: u64,
}

impl TlbStats {
    /// Fraction of enabled-path translations answered from the TLB.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl MetricSource for TlbStats {
    fn metrics(&self, out: &mut MetricSink) {
        out.u64("hits", self.hits);
        out.u64("misses", self.misses);
        out.u64("shootdowns", self.shootdowns);
        out.u64("flushes", self.flushes);
        out.f64("hit_rate", self.hit_rate());
    }
}

/// The direct-mapped translation cache owned by each
/// [`crate::AddressSpace`].
#[derive(Debug)]
pub struct Tlb {
    slots: Box<[Cell<TlbEntry>]>,
    /// Current generation; entries from older generations are invalid.
    /// Starts at 1 so the zeroed [`INVALID`] entry never matches.
    gen: Cell<u64>,
    enabled: Cell<bool>,
    /// Whether PTE-mutation shootdowns actually land. Always `true` in
    /// real runs; the transistency oracle flips it off to prove the
    /// differential checker can see the stale-translation bugs a
    /// forgotten shootdown causes (an ablation with teeth). Local fault
    /// handling ([`Tlb::invalidate`]) and full flushes ignore this flag —
    /// the ablation models *forgetting the remote IPI*, not a core that
    /// cannot maintain its own TLB.
    precise: Cell<bool>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    shootdowns: Cell<u64>,
    flushes: Cell<u64>,
}

impl Tlb {
    pub(crate) fn new(enabled: bool) -> Self {
        Tlb {
            slots: vec![Cell::new(INVALID); SLOTS].into_boxed_slice(),
            gen: Cell::new(1),
            enabled: Cell::new(enabled),
            precise: Cell::new(true),
            hits: Cell::new(0),
            misses: Cell::new(0),
            shootdowns: Cell::new(0),
            flushes: Cell::new(0),
        }
    }

    #[inline]
    fn slot(&self, vpn: Vpn) -> &Cell<TlbEntry> {
        &self.slots[(vpn.0 as usize) & (SLOTS - 1)]
    }

    /// Cached `(frame, writable)` for `vpn`, if present. Misses (and every
    /// call while disabled) return `None`, sending the caller to the
    /// page-table walk.
    #[inline]
    pub(crate) fn lookup(&self, vpn: Vpn) -> Option<(FrameId, bool)> {
        if !self.enabled.get() {
            return None;
        }
        let e = self.slot(vpn).get();
        if e.gen == self.gen.get() && e.vpn == vpn.0 {
            self.hits.set(self.hits.get() + 1);
            Some((e.frame, e.writable))
        } else {
            self.misses.set(self.misses.get() + 1);
            None
        }
    }

    /// Caches a translation the page-table walk just produced.
    #[inline]
    pub(crate) fn fill(&self, vpn: Vpn, frame: FrameId, writable: bool) {
        if !self.enabled.get() {
            return;
        }
        self.slot(vpn).set(TlbEntry {
            vpn: vpn.0,
            frame,
            writable,
            gen: self.gen.get(),
        });
    }

    /// Precise shootdown: invalidates the slot that could hold `vpn`.
    /// Called on every PTE mutation.
    #[inline]
    pub(crate) fn shootdown(&self, vpn: Vpn) {
        if !self.enabled.get() || !self.precise.get() {
            return;
        }
        let s = self.slot(vpn);
        let e = s.get();
        if e.gen == self.gen.get() && e.vpn == vpn.0 {
            s.set(INVALID);
            self.shootdowns.set(self.shootdowns.get() + 1);
        }
    }

    /// Unconditional local invalidation of `vpn`'s slot, bypassing the
    /// `precise` ablation and the shootdown counter. Models a core
    /// invalidating its own entry while handling a fault — something
    /// even the ablated (IPI-forgetting) configuration still does.
    #[inline]
    pub(crate) fn invalidate(&self, vpn: Vpn) {
        if !self.enabled.get() {
            return;
        }
        let s = self.slot(vpn);
        let e = s.get();
        if e.gen == self.gen.get() && e.vpn == vpn.0 {
            s.set(INVALID);
        }
    }

    /// Full flush: invalidates every slot in O(1) by bumping the
    /// generation.
    pub(crate) fn flush(&self) {
        if !self.enabled.get() {
            return;
        }
        self.gen.set(self.gen.get() + 1);
        self.flushes.set(self.flushes.get() + 1);
    }

    /// Enables or disables the TLB (test-only; production configuration
    /// is construction-time via `Kernel::with_tlb`). Disabling makes
    /// every subsequent lookup miss (the reference path); enabling starts
    /// from an empty TLB via a generation bump (not counted as a flush).
    #[cfg(test)]
    pub(crate) fn set_enabled(&self, enabled: bool) {
        self.gen.set(self.gen.get() + 1);
        self.enabled.set(enabled);
    }

    /// Whether lookups are being answered.
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Enables or disables precise PTE-mutation shootdowns (the
    /// transistency ablation; see the `precise` field).
    pub(crate) fn set_precise(&self, precise: bool) {
        self.precise.set(precise);
    }

    /// Whether PTE-mutation shootdowns are landing.
    pub fn precise(&self) -> bool {
        self.precise.get()
    }

    /// This TLB's counters.
    pub fn stats(&self) -> TlbStats {
        TlbStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            shootdowns: self.shootdowns.get(),
            flushes: self.flushes.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let t = Tlb::new(true);
        assert_eq!(t.lookup(Vpn(5)), None);
        t.fill(Vpn(5), FrameId(9), true);
        assert_eq!(t.lookup(Vpn(5)), Some((FrameId(9), true)));
        let s = t.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn aliasing_vpns_evict_each_other() {
        let t = Tlb::new(true);
        t.fill(Vpn(1), FrameId(1), false);
        t.fill(Vpn(1 + SLOTS as u64), FrameId(2), false);
        assert_eq!(t.lookup(Vpn(1)), None, "displaced by the aliasing fill");
        assert_eq!(t.lookup(Vpn(1 + SLOTS as u64)), Some((FrameId(2), false)));
    }

    #[test]
    fn shootdown_is_precise() {
        let t = Tlb::new(true);
        t.fill(Vpn(1), FrameId(1), true);
        t.fill(Vpn(2), FrameId(2), true);
        t.shootdown(Vpn(1));
        assert_eq!(t.lookup(Vpn(1)), None);
        assert_eq!(t.lookup(Vpn(2)), Some((FrameId(2), true)));
        assert_eq!(t.stats().shootdowns, 1);
        // Shooting down an uncached VPN is not counted.
        t.shootdown(Vpn(77));
        assert_eq!(t.stats().shootdowns, 1);
    }

    #[test]
    fn flush_invalidates_everything() {
        let t = Tlb::new(true);
        for i in 0..SLOTS as u64 {
            t.fill(Vpn(i), FrameId(i as u32), true);
        }
        t.flush();
        for i in 0..SLOTS as u64 {
            assert_eq!(t.lookup(Vpn(i)), None);
        }
        assert_eq!(t.stats().flushes, 1);
    }

    #[test]
    fn disabled_tlb_never_answers_or_counts() {
        let t = Tlb::new(false);
        t.fill(Vpn(1), FrameId(1), true);
        assert_eq!(t.lookup(Vpn(1)), None);
        t.shootdown(Vpn(1));
        t.flush();
        assert_eq!(t.stats(), TlbStats::default());
    }

    #[test]
    fn imprecise_mode_drops_shootdowns_but_not_local_invalidations() {
        let t = Tlb::new(true);
        t.set_precise(false);
        t.fill(Vpn(4), FrameId(4), true);
        t.shootdown(Vpn(4));
        assert_eq!(
            t.lookup(Vpn(4)),
            Some((FrameId(4), true)),
            "ablated shootdown must leave the stale entry in place"
        );
        assert_eq!(t.stats().shootdowns, 0);
        t.invalidate(Vpn(4));
        assert_eq!(t.lookup(Vpn(4)), None, "local invalidation still lands");
        // Full flushes are generation bumps, not IPIs: still effective.
        t.fill(Vpn(4), FrameId(4), true);
        t.flush();
        assert_eq!(t.lookup(Vpn(4)), None);
    }

    #[test]
    fn invalidate_is_uncounted_and_precise() {
        let t = Tlb::new(true);
        t.fill(Vpn(1), FrameId(1), true);
        t.fill(Vpn(2), FrameId(2), true);
        t.invalidate(Vpn(1));
        assert_eq!(t.lookup(Vpn(1)), None);
        assert_eq!(t.lookup(Vpn(2)), Some((FrameId(2), true)));
        assert_eq!(t.stats().shootdowns, 0);
    }

    #[test]
    fn reenabling_starts_empty() {
        let t = Tlb::new(true);
        t.fill(Vpn(3), FrameId(3), true);
        t.set_enabled(false);
        t.set_enabled(true);
        assert_eq!(t.lookup(Vpn(3)), None, "stale entry must not survive");
    }
}

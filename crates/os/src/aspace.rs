//! Address spaces: a VMA list plus a page table.

use tmi_machine::addr::FRAMES_PER_HUGE_PAGE;
use tmi_machine::{FrameId, VAddr, Vpn};

use crate::tlb::Tlb;
use crate::vma::Vma;

/// Identifier of an [`AddressSpace`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AsId(pub u32);

/// A page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// Backing frame.
    pub frame: FrameId,
    /// Whether writes are allowed through this entry.
    pub writable: bool,
    /// Whether a write fault should be resolved by copy-on-write. This is
    /// how both `fork()` semantics and TMI's page-twinning store buffer are
    /// expressed: a PTSB-armed page is exactly a read-only COW mapping of a
    /// shared frame (§3.3).
    pub cow: bool,
    /// Whether this address space owns the frame (a private COW copy that
    /// must be freed when the entry is replaced), as opposed to a frame
    /// owned by a shared object.
    pub owned: bool,
}

/// Pages per page-table leaf: one 2 MiB region.
const LEAF_PAGES: u64 = FRAMES_PER_HUGE_PAGE;

/// The entries of one 2 MiB-aligned region of pages.
#[derive(Debug)]
struct Leaf {
    ptes: [Option<Pte>; LEAF_PAGES as usize],
    /// Number of present entries.
    present: usize,
}

/// A two-level page table: one leaf of 512 entries per 2 MiB region that
/// holds a present page, found by a binary search of the regions'
/// numbers, so a walk (every software-TLB miss) costs a search of a short
/// list and an index. A leaf goes when its last entry does. Iteration
/// runs in VPN order: `Kernel::drop_residency` frees private frames in
/// that order, which decides the frame ids later allocations reuse, and
/// `Kernel::fork_aspace` copies entries in it.
#[derive(Debug, Default)]
struct PageTable {
    /// `vpn / 512` of each leaf, ascending; `leaves[i]` covers `regions[i]`.
    regions: Vec<u64>,
    leaves: Vec<Box<Leaf>>,
    len: usize,
}

impl PageTable {
    /// `vpn`'s region number and its slot in the region's leaf.
    fn split(vpn: Vpn) -> (u64, usize) {
        (vpn.0 / LEAF_PAGES, (vpn.0 % LEAF_PAGES) as usize)
    }

    #[inline]
    fn get(&self, vpn: Vpn) -> Option<Pte> {
        let (region, slot) = Self::split(vpn);
        let i = self.regions.binary_search(&region).ok()?;
        self.leaves[i].ptes[slot]
    }

    fn insert(&mut self, vpn: Vpn, pte: Pte) -> Option<Pte> {
        let (region, slot) = Self::split(vpn);
        let i = self.regions.binary_search(&region).unwrap_or_else(|i| {
            self.regions.insert(i, region);
            self.leaves.insert(
                i,
                Box::new(Leaf {
                    ptes: [None; LEAF_PAGES as usize],
                    present: 0,
                }),
            );
            i
        });
        let leaf = &mut self.leaves[i];
        let old = leaf.ptes[slot].replace(pte);
        if old.is_none() {
            leaf.present += 1;
            self.len += 1;
        }
        old
    }

    fn remove(&mut self, vpn: Vpn) -> Option<Pte> {
        let (region, slot) = Self::split(vpn);
        let i = self.regions.binary_search(&region).ok()?;
        let leaf = &mut self.leaves[i];
        let old = leaf.ptes[slot].take()?;
        leaf.present -= 1;
        self.len -= 1;
        if leaf.present == 0 {
            self.regions.remove(i);
            self.leaves.remove(i);
        }
        Some(old)
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Every present entry, in VPN order.
    fn iter(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.regions
            .iter()
            .zip(&self.leaves)
            .flat_map(|(&region, leaf)| {
                (region * LEAF_PAGES..)
                    .zip(leaf.ptes.iter())
                    .filter_map(|(vpn, pte)| pte.map(|p| (Vpn(vpn), p)))
            })
    }
}

/// One simulated address space: the analogue of an `mm_struct`.
///
/// VMAs are kept sorted by start address (they are disjoint by
/// construction), so covering-VMA lookup and overlap checks are binary
/// searches. Present-page translation goes through a per-space software
/// [`Tlb`] that every PTE mutation shoots down (see the `tlb` module
/// docs), in front of a two-level page table.
#[derive(Debug)]
pub struct AddressSpace {
    /// Sorted by `start`; pairwise disjoint.
    vmas: Vec<Vma>,
    ptes: PageTable,
    tlb: Tlb,
}

impl AddressSpace {
    pub(crate) fn new(tlb_enabled: bool) -> Self {
        AddressSpace {
            vmas: Vec::new(),
            ptes: PageTable::default(),
            tlb: Tlb::new(tlb_enabled),
        }
    }

    /// The VMA covering `addr`, if any: the last VMA starting at or below
    /// `addr` is the only candidate, because VMAs are sorted and disjoint.
    pub fn vma_for(&self, addr: VAddr) -> Option<&Vma> {
        let idx = self.vmas.partition_point(|v| v.start.raw() <= addr.raw());
        let v = &self.vmas[idx.checked_sub(1)?];
        v.contains(addr).then_some(v)
    }

    /// All VMAs, sorted by start address (the simulated `/proc/pid/maps`).
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Inserts a VMA at its sorted position.
    ///
    /// # Panics
    ///
    /// Panics if the VMA overlaps an existing one — callers must have
    /// checked [`AddressSpace::any_overlap`] (the kernel's `map` does).
    pub(crate) fn push_vma(&mut self, vma: Vma) {
        let idx = self
            .vmas
            .partition_point(|v| v.start.raw() < vma.start.raw());
        if let Some(prev) = idx.checked_sub(1).map(|i| &self.vmas[i]) {
            assert!(
                prev.end().raw() <= vma.start.raw(),
                "VMA at {:?} overlaps predecessor ending at {:?}",
                vma.start,
                prev.end()
            );
        }
        if let Some(next) = self.vmas.get(idx) {
            assert!(
                vma.end().raw() <= next.start.raw(),
                "VMA ending at {:?} overlaps successor at {:?}",
                vma.end(),
                next.start
            );
        }
        self.vmas.insert(idx, vma);
    }

    /// Whether `[start, start + len)` intersects any VMA. Only the last
    /// VMA starting below the range's end can intersect it (sorted,
    /// disjoint), so this is one binary search plus one comparison.
    pub(crate) fn any_overlap(&self, start: VAddr, len: u64) -> bool {
        let end = start.raw().saturating_add(len);
        let idx = self.vmas.partition_point(|v| v.start.raw() < end);
        idx.checked_sub(1)
            .is_some_and(|i| self.vmas[i].overlaps(start, len))
    }

    /// The page-table entry for `vpn`, if present.
    pub fn pte(&self, vpn: Vpn) -> Option<Pte> {
        self.ptes.get(vpn)
    }

    /// The `(frame, writable)` pair for `vpn` via the TLB, falling back to
    /// (and refilling from) the page table. This is the translation fast
    /// path; use [`AddressSpace::pte`] when the full PTE is needed.
    #[inline]
    pub(crate) fn lookup_translation(&self, vpn: Vpn) -> Option<(FrameId, bool)> {
        if let Some(hit) = self.tlb.lookup(vpn) {
            // With precise shootdowns ablated, stale entries are the whole
            // point — the differential oracle, not this assert, must
            // catch what they break.
            debug_assert!(
                !self.tlb.precise()
                    || Some(hit) == self.ptes.get(vpn).map(|p| (p.frame, p.writable)),
                "stale TLB entry for {vpn:?}"
            );
            return Some(hit);
        }
        let pte = self.ptes.get(vpn)?;
        self.tlb.fill(vpn, pte.frame, pte.writable);
        Some((pte.frame, pte.writable))
    }

    pub(crate) fn set_pte(&mut self, vpn: Vpn, pte: Pte) -> Option<Pte> {
        self.tlb.shootdown(vpn);
        self.ptes.insert(vpn, pte)
    }

    pub(crate) fn remove_pte(&mut self, vpn: Vpn) -> Option<Pte> {
        self.tlb.shootdown(vpn);
        self.ptes.remove(vpn)
    }

    /// This space's software TLB (counters and test hooks).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Number of resident (mapped) pages.
    pub fn resident_pages(&self) -> usize {
        self.ptes.len()
    }

    /// Iterates over all present page-table entries in VPN order.
    pub fn ptes(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.ptes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::{Backing, PageSize, Perms};
    use std::collections::BTreeMap;

    fn anon_vma(start: u64, len: u64) -> Vma {
        Vma {
            start: VAddr::new(start),
            len,
            backing: Backing::Anon,
            perms: Perms::rw(),
            page_size: PageSize::Small,
        }
    }

    #[test]
    fn translate_respects_writable_bit() {
        let mut a = AddressSpace::new(true);
        a.set_pte(
            Vpn(4),
            Pte {
                frame: FrameId(9),
                writable: false,
                cow: true,
                owned: false,
            },
        );
        // The entry translates, but read-only: `Kernel::translate` turns
        // that into a write fault.
        assert_eq!(a.lookup_translation(Vpn(4)), Some((FrameId(9), false)));
        assert_eq!(a.lookup_translation(Vpn(5)), None);
    }

    #[test]
    fn vma_lookup() {
        let mut a = AddressSpace::new(true);
        a.push_vma(anon_vma(0x10000, 0x4000));
        assert!(a.vma_for(VAddr::new(0x10004)).is_some());
        assert!(a.vma_for(VAddr::new(0x14000)).is_none());
        assert!(a.any_overlap(VAddr::new(0x13000), 0x2000));
        assert!(!a.any_overlap(VAddr::new(0x14000), 0x1000));
    }

    #[test]
    fn vmas_insert_sorted_and_lookup_binary_searches() {
        let mut a = AddressSpace::new(true);
        // Out-of-order pushes must still yield a sorted list.
        a.push_vma(anon_vma(0x30000, 0x1000));
        a.push_vma(anon_vma(0x10000, 0x1000));
        a.push_vma(anon_vma(0x20000, 0x1000));
        let starts: Vec<u64> = a.vmas().iter().map(|v| v.start.raw()).collect();
        assert_eq!(starts, vec![0x10000, 0x20000, 0x30000]);
        assert_eq!(
            a.vma_for(VAddr::new(0x20fff)).map(|v| v.start.raw()),
            Some(0x20000)
        );
        assert!(a.vma_for(VAddr::new(0x21000)).is_none());
        assert!(a.vma_for(VAddr::new(0xfff)).is_none());
        assert!(a.any_overlap(VAddr::new(0x2f000), 0x2000));
        assert!(!a.any_overlap(VAddr::new(0x11000), 0xf000));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_push_panics() {
        let mut a = AddressSpace::new(true);
        a.push_vma(anon_vma(0x10000, 0x2000));
        a.push_vma(anon_vma(0x11000, 0x2000));
    }

    #[test]
    fn page_table_mirrors_a_btreemap() {
        // A deterministic pseudo-random op stream over four regions, diffed
        // against a `BTreeMap`.
        let mut t = PageTable::default();
        let mut m: BTreeMap<Vpn, Pte> = BTreeMap::new();
        let pte = |x: u64| Pte {
            frame: FrameId(x as u32),
            writable: x & 1 == 0,
            cow: x & 2 == 0,
            owned: x & 4 == 0,
        };
        let check = |t: &PageTable, m: &BTreeMap<Vpn, Pte>| {
            assert_eq!(t.len(), m.len());
            assert!(t.iter().eq(m.iter().map(|(&v, &p)| (v, p))));
        };
        let regions = [0, 1, 7, 1 << 30];
        let mut x = 0x0123_4567_89ab_cdefu64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let vpn = Vpn(regions[(x % 4) as usize] * LEAF_PAGES + (x >> 8) % 24 * 21);
            match x >> 61 {
                0..=3 => assert_eq!(t.insert(vpn, pte(x)), m.insert(vpn, pte(x))),
                4 | 5 => assert_eq!(t.remove(vpn), m.remove(&vpn)),
                _ => assert_eq!(t.get(vpn), m.get(&vpn).copied()),
            }
            assert_eq!(t.len(), m.len());
            if step % 1_000 == 0 {
                check(&t, &m);
            }
        }
        check(&t, &m);

        // A full huge-page leaf: all 512 entries of one region, then its
        // neighbours on both sides, then the leaf emptied again.
        let base = 3 * LEAF_PAGES;
        for vpn in (base..base + LEAF_PAGES).rev() {
            assert_eq!(t.insert(Vpn(vpn), pte(vpn)), m.insert(Vpn(vpn), pte(vpn)));
        }
        for vpn in [base - 1, base + LEAF_PAGES] {
            assert_eq!(t.insert(Vpn(vpn), pte(vpn)), m.insert(Vpn(vpn), pte(vpn)));
        }
        check(&t, &m);
        assert_eq!(
            t.get(Vpn(base + LEAF_PAGES - 1)),
            Some(pte(base + LEAF_PAGES - 1))
        );
        for vpn in base..base + LEAF_PAGES {
            assert_eq!(t.remove(Vpn(vpn)), m.remove(&Vpn(vpn)));
        }
        check(&t, &m);
        assert!(!t.regions.contains(&3), "an empty leaf is dropped");
        assert_eq!(t.get(Vpn(base)), None);
    }

    #[test]
    fn pte_mutations_shoot_down_the_tlb() {
        let mut a = AddressSpace::new(true);
        a.set_pte(
            Vpn(4),
            Pte {
                frame: FrameId(9),
                writable: true,
                cow: false,
                owned: false,
            },
        );
        // Walk once (miss + fill), then hit.
        assert!(a.lookup_translation(Vpn(4)).is_some());
        assert!(a.lookup_translation(Vpn(4)).is_some());
        assert_eq!(a.tlb().stats().hits, 1);
        // Remap onto another frame: the cached translation must die.
        a.set_pte(
            Vpn(4),
            Pte {
                frame: FrameId(11),
                writable: true,
                cow: false,
                owned: false,
            },
        );
        assert_eq!(a.tlb().stats().shootdowns, 1);
        assert_eq!(
            a.lookup_translation(Vpn(4)),
            Some((FrameId(11), true)),
            "post-shootdown walk sees the new frame"
        );
        a.remove_pte(Vpn(4));
        assert_eq!(a.lookup_translation(Vpn(4)), None);
    }
}

//! Twin-page storage and the diff-and-merge commit (§2.2, Fig. 2).
//!
//! When a PTSB-armed page takes its first write, copy-on-write gives the
//! writing process a private copy; at that instant the private copy still
//! equals the shared page, so it doubles as the *twin* snapshot. At each
//! synchronization operation the dirty private copy is byte-diffed against
//! the twin and exactly the changed bytes are merged into shared memory —
//! merging anything else "is tantamount to fabricating stores that the
//! program did not perform" (§2.2). Byte-granularity diffing is also what
//! makes the word-tearing AMBSA violation of Fig. 3 reproducible.

use std::collections::HashMap;

use tmi_machine::physmem::ZERO_FRAME;
use tmi_machine::{FrameId, Vpn, FRAME_SIZE};
use tmi_os::{AsId, Kernel, OsError};

// The commit cost model, in cycles (the diff-and-merge of §2.2 / §3.3). A
// vectorized (SSE `memcmp`-style) byte diff runs at ≈0.15 cycles/byte and
// the chunk-skip fast path at ≈0.06; per-byte costs are in hundredths of a
// cycle.

/// Fixed cycles per committed page (syscall + bookkeeping).
const COMMIT_PER_PAGE_BASE: u64 = 350;
/// Hundredths of a cycle per byte of the twin/private byte-level diff.
const DIFF_PER_BYTE_X100: u64 = 15;
/// Hundredths of a cycle per byte of the `memcmp` fast path used to skip
/// identical 4 KiB chunks of a 2 MiB huge page (§4.4: "We optimize huge
/// page commit by comparing 4KB regions of the 2MB page using memcmp
/// before comparing the individual bytes").
const MEMCMP_PER_BYTE_X100: u64 = 6;
/// Hundredths of a cycle per byte actually merged into shared memory.
const MERGE_PER_BYTE_X100: u64 = 100;

/// Result of committing one page.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageCommit {
    /// Bytes that differed and were merged.
    pub bytes_merged: u64,
    /// Cycles the diff + merge cost.
    pub cycles: u64,
    /// Whether the page was successfully re-armed after the merge. `false`
    /// means the merge landed in shared memory but the re-protect failed
    /// (transient `mprotect` fault): the page is currently unmapped for
    /// this address space and the repair governor must either retry the
    /// arming or degrade the page to shared mode.
    pub rearmed: bool,
}

/// A twin snapshot. `None` is all zeros: the snapshot of a private frame
/// that was never written (see [`tmi_machine::PhysMem`]) holds no host
/// memory either.
type Twin = Option<Box<[u8; FRAME_SIZE as usize]>>;

/// Twin snapshots, keyed by (address space, page). The byte counters
/// charge `FRAME_SIZE` per twin, stored or not: they model the paper's
/// twin memory (Fig. 8), not the host's.
#[derive(Debug, Default)]
pub struct TwinStore {
    twins: HashMap<AsId, HashMap<Vpn, Twin>>,
    current_bytes: u64,
    peak_bytes: u64,
}

impl TwinStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the twin for `(aspace, vpn)` from the page's just-created
    /// private frame (which equals the shared page at COW-break time).
    /// No-op if a twin already exists or the page has no private copy.
    pub fn snapshot(&mut self, kernel: &Kernel, aspace: AsId, vpn: Vpn) {
        let Some(frame) = kernel.private_frame(aspace, vpn) else {
            return;
        };
        let per_as = self.twins.entry(aspace).or_default();
        if per_as.contains_key(&vpn) {
            return;
        }
        let data = kernel.physmem().frame_bytes(frame).map(|b| Box::new(*b));
        per_as.insert(vpn, data);
        self.current_bytes += FRAME_SIZE;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
    }

    /// Pages of `aspace` that currently have a twin (i.e. buffered writes).
    pub fn dirty_pages(&self, aspace: AsId) -> Vec<Vpn> {
        let mut v: Vec<Vpn> = self
            .twins
            .get(&aspace)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// True if `aspace` has any buffered page.
    pub fn has_dirty(&self, aspace: AsId) -> bool {
        self.twins.get(&aspace).is_some_and(|m| !m.is_empty())
    }

    /// Commits one page: diffs the private copy against the twin, merges
    /// changed bytes into the shared object frame, discards the private
    /// copy and re-arms protection (Fig. 2 steps 4–5).
    ///
    /// `huge` selects the chunked-`memcmp` cost model of §4.4.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchEntity`] — with **no** state change — if
    /// the page has no twin or no private frame (commit of a clean page is
    /// a runtime bug; callers iterate [`Self::dirty_pages`]), and
    /// propagates structural errors from the shared-frame lookup. A
    /// *re-arm* failure after the merge is not an error: it is reported
    /// through [`PageCommit::rearmed`] so the governor can retry or
    /// degrade without losing the commit's accounting.
    pub fn commit_page(
        &mut self,
        kernel: &mut Kernel,
        aspace: AsId,
        vpn: Vpn,
        huge: bool,
    ) -> Result<PageCommit, OsError> {
        if !self.has_twin(aspace, vpn) {
            return Err(OsError::NoSuchEntity("twin for committed page"));
        }
        let private = kernel
            .private_frame(aspace, vpn)
            .ok_or(OsError::NoSuchEntity("private frame for twin"))?;
        let shared_pa = kernel.object_paddr(aspace, vpn.base())?;
        let shared_frame: FrameId = shared_pa.frame();

        // Past this point the commit itself cannot fail: consume the twin.
        let twin = self
            .twins
            .get_mut(&aspace)
            .and_then(|m| m.remove(&vpn))
            .expect("twin presence checked above");
        self.current_bytes -= FRAME_SIZE;

        // Diff the private copy against the twin, then merge only the
        // changed bytes. A side without storage reads as zeros, and two
        // such sides are identical without a scan.
        let private_bytes = kernel.physmem().frame_bytes(private);
        let changed: Vec<(u64, u8)> = match (private_bytes, twin.as_deref()) {
            (None, None) => Vec::new(),
            (private_bytes, twin) => {
                let private_bytes = private_bytes.unwrap_or(&ZERO_FRAME);
                let twin = twin.unwrap_or(&ZERO_FRAME);
                if private_bytes == twin {
                    Vec::new()
                } else {
                    (0..FRAME_SIZE as usize)
                        .filter(|&i| private_bytes[i] != twin[i])
                        .map(|i| (i as u64, private_bytes[i]))
                        .collect()
                }
            }
        };
        for &(offset, byte) in &changed {
            kernel
                .physmem_mut()
                .write_byte(shared_frame.base().offset(offset), byte);
        }
        let merged = changed.len() as u64;
        let identical = merged == 0;

        // The merge has landed; a failed re-arm (injected mprotect fault)
        // leaves the page unmapped here and is reported to the governor
        // via `rearmed` rather than unwinding the commit.
        let rearmed = kernel.discard_private_and_rearm(aspace, vpn).is_ok();

        let scan = if huge && identical {
            // The memcmp fast path skips identical 4 KiB chunks cheaply.
            FRAME_SIZE * MEMCMP_PER_BYTE_X100 / 100
        } else if huge {
            FRAME_SIZE * (MEMCMP_PER_BYTE_X100 + DIFF_PER_BYTE_X100) / 100
        } else {
            FRAME_SIZE * DIFF_PER_BYTE_X100 / 100
        };
        let cycles = COMMIT_PER_PAGE_BASE + scan + merged * MERGE_PER_BYTE_X100 / 100;
        Ok(PageCommit {
            bytes_merged: merged,
            cycles,
            rearmed,
        })
    }

    /// True if `(aspace, vpn)` currently has a twin snapshot.
    pub fn has_twin(&self, aspace: AsId, vpn: Vpn) -> bool {
        self.twins
            .get(&aspace)
            .is_some_and(|m| m.contains_key(&vpn))
    }

    /// Discards the twin for `(aspace, vpn)` without committing — the
    /// rollback path (buffered bytes are dropped, shared memory keeps its
    /// pre-repair contents). Returns true if a twin was discarded.
    pub fn discard_page(&mut self, aspace: AsId, vpn: Vpn) -> bool {
        let removed = self
            .twins
            .get_mut(&aspace)
            .and_then(|m| m.remove(&vpn))
            .is_some();
        if removed {
            self.current_bytes -= FRAME_SIZE;
        }
        removed
    }

    /// Discards every twin of `aspace` (rollback). Returns the number of
    /// pages discarded.
    pub fn discard_aspace(&mut self, aspace: AsId) -> u64 {
        let n = self
            .twins
            .get_mut(&aspace)
            .map(|m| {
                let n = m.len() as u64;
                m.clear();
                n
            })
            .unwrap_or(0);
        self.current_bytes -= n * FRAME_SIZE;
        n
    }

    /// Current twin bytes held.
    pub fn current_bytes(&self) -> u64 {
        self.current_bytes
    }

    /// High-water mark of twin bytes, for Fig. 8.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmi_machine::{VAddr, Width};
    use tmi_os::MapRequest;

    fn setup() -> (Kernel, AsId, VAddr) {
        let mut k = Kernel::new();
        let obj = k.create_object(16 * FRAME_SIZE);
        let a = k.create_aspace();
        let base = VAddr::new(0x10000);
        k.map(a, MapRequest::object(base, 16 * FRAME_SIZE, obj, 0))
            .unwrap();
        (k, a, base)
    }

    fn arm_and_dirty(k: &mut Kernel, a: AsId, addr: VAddr, value: u64) -> TwinStore {
        k.force_write(a, addr, Width::W8, 1).unwrap();
        k.protect_page_cow(a, addr.vpn()).unwrap();
        k.handle_fault(a, addr, true).unwrap(); // COW break
        let mut tw = TwinStore::new();
        tw.snapshot(k, a, addr.vpn());
        k.force_write(a, addr, Width::W8, value).unwrap(); // private write
        tw
    }

    #[test]
    fn commit_merges_only_changed_bytes() {
        let (mut k, a, base) = setup();
        // Shared page byte 0..8 = 1; thread writes 2 privately; a *different*
        // byte range is concurrently changed in shared memory by "another
        // process" — the merge must not clobber it.
        let mut tw = arm_and_dirty(&mut k, a, base, 2);
        let shared = k.object_paddr(a, base).unwrap();
        k.physmem_mut().write(shared.offset(32), Width::W8, 777);

        let pc = tw.commit_page(&mut k, a, base.vpn(), false).unwrap();
        assert!(pc.bytes_merged >= 1 && pc.bytes_merged <= 8);
        assert_eq!(
            k.physmem().read(shared, Width::W8),
            2,
            "merged thread write"
        );
        assert_eq!(
            k.physmem().read(shared.offset(32), Width::W8),
            777,
            "concurrent shared update preserved"
        );
        // Page is re-armed: next write COWs again.
        assert!(k.translate(a, base, true).is_err());
    }

    #[test]
    fn identical_page_merges_nothing() {
        let (mut k, a, base) = setup();
        k.force_write(a, base, Width::W8, 5).unwrap();
        k.protect_page_cow(a, base.vpn()).unwrap();
        k.handle_fault(a, base, true).unwrap();
        let mut tw = TwinStore::new();
        tw.snapshot(&k, a, base.vpn());
        // Rewrite the same value: diff finds no changed bytes.
        k.force_write(a, base, Width::W8, 5).unwrap();
        let pc = tw.commit_page(&mut k, a, base.vpn(), false).unwrap();
        assert_eq!(pc.bytes_merged, 0);
    }

    #[test]
    fn twins_of_never_written_pages_hold_no_storage() {
        let (mut k, a, base) = setup();
        let mut tw = TwinStore::new();
        for page in [base, base.offset(FRAME_SIZE)] {
            k.protect_page_cow(a, page.vpn()).unwrap();
            k.handle_fault(a, page, true).unwrap();
            tw.snapshot(&k, a, page.vpn());
            assert_eq!(tw.twins[&a][&page.vpn()], None);
        }
        assert_eq!(tw.current_bytes(), 2 * FRAME_SIZE, "twin memory is modeled");
        assert_eq!(k.physmem().stored_frames(), 0);
        // Neither side written: nothing to merge.
        let clean = tw.commit_page(&mut k, a, base.vpn(), false).unwrap();
        assert_eq!(clean.bytes_merged, 0);
        // A write after the snapshot is diffed against the zero twin.
        let page = base.offset(FRAME_SIZE);
        k.force_write(a, page.offset(8), Width::W2, 0xAB00).unwrap();
        let dirty = tw.commit_page(&mut k, a, page.vpn(), false).unwrap();
        assert_eq!(dirty.bytes_merged, 1);
        let shared = k.object_paddr(a, page).unwrap();
        assert_eq!(k.physmem().read(shared.offset(8), Width::W2), 0xAB00);
    }

    #[test]
    fn word_tearing_is_reproducible_at_byte_granularity() {
        // Fig. 3: both "threads" (modeled as two address spaces) store two
        // bytes at x; diff/merge yields a value neither stored.
        let mut k = Kernel::new();
        let obj = k.create_object(FRAME_SIZE);
        let a = k.create_aspace();
        let b = k.create_aspace();
        let base = VAddr::new(0x10000);
        k.map(a, MapRequest::object(base, FRAME_SIZE, obj, 0))
            .unwrap();
        k.map(b, MapRequest::object(base, FRAME_SIZE, obj, 0))
            .unwrap();
        k.force_write(a, base, Width::W2, 0).unwrap();

        let mut tw = TwinStore::new();
        for (aspace, val) in [(a, 0xAB00u64), (b, 0x00CDu64)] {
            k.protect_page_cow(aspace, base.vpn()).unwrap();
            k.handle_fault(aspace, base, true).unwrap();
            tw.snapshot(&k, aspace, base.vpn());
            k.force_write(aspace, base, Width::W2, val).unwrap();
        }
        tw.commit_page(&mut k, a, base.vpn(), false).unwrap();
        tw.commit_page(&mut k, b, base.vpn(), false).unwrap();
        let shared = k.object_paddr(a, base).unwrap();
        assert_eq!(
            k.physmem().read(shared, Width::W2),
            0xABCD,
            "AMBSA violated: a value no thread stored"
        );
    }

    #[test]
    fn dirty_tracking_and_peak_bytes() {
        let (mut k, a, base) = setup();
        let mut tw = arm_and_dirty(&mut k, a, base, 9);
        assert!(tw.has_dirty(a));
        assert_eq!(tw.dirty_pages(a), vec![base.vpn()]);
        assert_eq!(tw.current_bytes(), FRAME_SIZE);
        tw.commit_page(&mut k, a, base.vpn(), false).unwrap();
        assert!(!tw.has_dirty(a));
        assert_eq!(tw.current_bytes(), 0);
        assert_eq!(tw.peak_bytes(), FRAME_SIZE);
    }

    #[test]
    fn snapshot_is_idempotent_and_requires_private_frame() {
        let (mut k, a, base) = setup();
        let mut tw = TwinStore::new();
        // No private frame yet: snapshot is a no-op.
        tw.snapshot(&k, a, base.vpn());
        assert!(!tw.has_dirty(a));
        let tw2 = arm_and_dirty(&mut k, a, base, 3);
        let _ = tw2;
        // Second snapshot doesn't double-count.
        let mut tw3 = TwinStore::new();
        tw3.snapshot(&k, a, base.vpn());
        tw3.snapshot(&k, a, base.vpn());
        assert_eq!(tw3.current_bytes(), FRAME_SIZE);
    }

    #[test]
    fn huge_commit_costs_less_when_identical() {
        let (mut k, a, base) = setup();
        // Identical page, huge model.
        k.force_write(a, base, Width::W8, 5).unwrap();
        k.protect_page_cow(a, base.vpn()).unwrap();
        k.handle_fault(a, base, true).unwrap();
        let mut tw = TwinStore::new();
        tw.snapshot(&k, a, base.vpn());
        let clean = tw.commit_page(&mut k, a, base.vpn(), true).unwrap();

        // Dirty page, huge model.
        let mut tw = arm_and_dirty(&mut k, a, base.offset(FRAME_SIZE), 7);
        let dirty = tw
            .commit_page(&mut k, a, base.offset(FRAME_SIZE).vpn(), true)
            .unwrap();
        assert!(clean.cycles < dirty.cycles);
    }
}

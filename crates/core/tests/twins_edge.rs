//! Edge cases of the PTSB diff-and-merge commit ([`TwinStore::commit_page`])
//! that the inline unit tests don't reach: two processes committing
//! *overlapping* dirty words, committing again after a re-snapshot of the
//! same page, and the twin-memory accounting (`current_bytes` /
//! `peak_bytes`) across those sequences.

use tmi::TwinStore;
use tmi_machine::{VAddr, Width, FRAME_SIZE};
use tmi_os::{AsId, Kernel, MapRequest};

const BASE: u64 = 0x40000;

fn setup(spaces: usize) -> (Kernel, Vec<AsId>) {
    let mut k = Kernel::new();
    let obj = k.create_object(4 * FRAME_SIZE);
    let ids = (0..spaces)
        .map(|_| {
            let a = k.create_aspace();
            k.map(
                a,
                MapRequest::object(VAddr::new(BASE), 4 * FRAME_SIZE, obj, 0),
            )
            .unwrap();
            a
        })
        .collect();
    (k, ids)
}

/// Arms `addr`'s page for `aspace`, breaks the COW, snapshots the twin
/// into `tw`, then writes `value` privately — the engine's exact sequence.
fn dirty(k: &mut Kernel, tw: &mut TwinStore, aspace: AsId, addr: VAddr, value: u64) {
    k.protect_page_cow(aspace, addr.vpn()).unwrap();
    k.handle_fault(aspace, addr, true).unwrap();
    tw.snapshot(k, aspace, addr.vpn());
    k.force_write(aspace, addr, Width::W8, value).unwrap();
}

fn shared_read(k: &mut Kernel, aspace: AsId, addr: VAddr, width: Width) -> u64 {
    let pa = k.object_paddr(aspace, addr).unwrap();
    k.physmem().read(pa, width)
}

#[test]
fn overlapping_words_resolve_per_byte_to_the_last_committer() {
    let (mut k, ids) = setup(2);
    let (a, b) = (ids[0], ids[1]);
    let addr = VAddr::new(BASE);

    // Both processes dirty the SAME aligned word — a racy overlap the
    // PTSB resolves byte-wise. A changes the low half, B the high half.
    let mut tw_a = TwinStore::new();
    let mut tw_b = TwinStore::new();
    dirty(&mut k, &mut tw_a, a, addr, 0x0000_0000_1111_2222);
    dirty(&mut k, &mut tw_b, b, addr, 0x3333_4444_0000_0000);

    let pa = tw_a.commit_page(&mut k, a, addr.vpn(), false).unwrap();
    let pb = tw_b.commit_page(&mut k, b, addr.vpn(), false).unwrap();
    // Each writer changed 4 of the 8 bytes relative to its twin (both
    // twins saw the word as 0).
    assert_eq!(pa.bytes_merged, 4);
    assert_eq!(pb.bytes_merged, 4);
    // Disjoint byte ranges merge losslessly even though the *words*
    // overlapped completely.
    assert_eq!(
        shared_read(&mut k, a, addr, Width::W8),
        0x3333_4444_1111_2222
    );

    // Now a genuine byte-level conflict: both rewrite the same low byte.
    let mut tw_a = TwinStore::new();
    let mut tw_b = TwinStore::new();
    dirty(&mut k, &mut tw_a, a, addr, 0x3333_4444_1111_22AA);
    dirty(&mut k, &mut tw_b, b, addr, 0x3333_4444_1111_22BB);
    tw_a.commit_page(&mut k, a, addr.vpn(), false).unwrap();
    tw_b.commit_page(&mut k, b, addr.vpn(), false).unwrap();
    // Last committer wins on the conflicting byte — the racy-write
    // semantics of case 1 in Table 2 (undefined, but never fabricated:
    // the byte is one of the two written values).
    assert_eq!(
        shared_read(&mut k, a, addr, Width::W8),
        0x3333_4444_1111_22BB
    );
}

#[test]
fn commit_after_resnapshot_diffs_against_the_new_twin() {
    let (mut k, ids) = setup(1);
    let a = ids[0];
    let addr = VAddr::new(BASE);

    let mut tw = TwinStore::new();
    dirty(&mut k, &mut tw, a, addr, 0xAB);
    let p1 = tw.commit_page(&mut k, a, addr.vpn(), false).unwrap();
    assert_eq!(p1.bytes_merged, 1);
    assert_eq!(shared_read(&mut k, a, addr, Width::W8), 0xAB);
    // commit_page re-armed the page: the next write faults again.
    assert!(k.translate(a, addr, true).is_err());
    assert!(!tw.has_dirty(a));

    // Second round on the same page: the twin must be the *current*
    // shared contents (0xAB), not the original zeros — so an identical
    // rewrite merges nothing and a one-byte change merges one byte.
    k.handle_fault(a, addr, true).unwrap();
    tw.snapshot(&k, a, addr.vpn());
    k.force_write(a, addr, Width::W8, 0xAB).unwrap();
    let p2 = tw.commit_page(&mut k, a, addr.vpn(), false).unwrap();
    assert_eq!(p2.bytes_merged, 0, "identical rewrite diffs clean");

    k.handle_fault(a, addr, true).unwrap();
    tw.snapshot(&k, a, addr.vpn());
    k.force_write(a, addr, Width::W8, 0xCD).unwrap();
    let p3 = tw.commit_page(&mut k, a, addr.vpn(), false).unwrap();
    assert_eq!(p3.bytes_merged, 1, "only the changed byte re-merges");
    assert_eq!(shared_read(&mut k, a, addr, Width::W8), 0xCD);
}

#[test]
fn twin_memory_accounting_tracks_concurrent_peak() {
    let (mut k, ids) = setup(2);
    let (a, b) = (ids[0], ids[1]);
    let p0 = VAddr::new(BASE);
    let p1 = VAddr::new(BASE + FRAME_SIZE);

    // One TwinStore serves all processes (as RepairManager uses it); its
    // accounting must reflect twins from *both* address spaces at once.
    let mut tw = TwinStore::new();
    assert_eq!(tw.current_bytes(), 0);
    assert_eq!(tw.peak_bytes(), 0);

    dirty(&mut k, &mut tw, a, p0, 1);
    dirty(&mut k, &mut tw, a, p1, 2);
    dirty(&mut k, &mut tw, b, p0, 3);
    assert_eq!(tw.current_bytes(), 3 * FRAME_SIZE);
    assert_eq!(tw.peak_bytes(), 3 * FRAME_SIZE);
    assert_eq!(tw.dirty_pages(a).len(), 2);
    assert_eq!(tw.dirty_pages(b).len(), 1);

    // Committing releases twins one page at a time; the peak stays.
    tw.commit_page(&mut k, a, p0.vpn(), false).unwrap();
    assert_eq!(tw.current_bytes(), 2 * FRAME_SIZE);
    tw.commit_page(&mut k, a, p1.vpn(), false).unwrap();
    tw.commit_page(&mut k, b, p0.vpn(), false).unwrap();
    assert_eq!(tw.current_bytes(), 0);
    assert_eq!(tw.peak_bytes(), 3 * FRAME_SIZE);
    assert!(!tw.has_dirty(a) && !tw.has_dirty(b));

    // A later smaller round never lowers the recorded peak.
    dirty(&mut k, &mut tw, b, p1, 4);
    assert_eq!(tw.current_bytes(), FRAME_SIZE);
    assert_eq!(tw.peak_bytes(), 3 * FRAME_SIZE);
    tw.commit_page(&mut k, b, p1.vpn(), false).unwrap();
    assert_eq!(tw.current_bytes(), 0);
}

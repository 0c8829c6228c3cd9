//! Property tests for the page-twinning store buffer: for any interleaving
//! of writes by two "threads" (address spaces) to disjoint byte ranges of
//! a page, diff-and-merge commits reconstruct exactly the union of their
//! writes — the §3.4 Lemma 3.1 guarantee that race-free programs cannot
//! observe the PTSB. With *overlapping* racy writes, the committed bytes
//! still always come from one of the writers (no fabricated bytes beyond
//! the racy locations themselves).

use proptest::prelude::*;
use tmi::TwinStore;
use tmi_machine::{VAddr, Width, FRAME_SIZE};
use tmi_os::{AsId, Kernel, MapRequest};

const BASE: u64 = 0x20000;

fn setup() -> (Kernel, AsId, AsId) {
    let mut k = Kernel::new();
    let obj = k.create_object(FRAME_SIZE);
    let a = k.create_aspace();
    let b = k.create_aspace();
    for s in [a, b] {
        k.map(s, MapRequest::object(VAddr::new(BASE), FRAME_SIZE, obj, 0))
            .unwrap();
    }
    (k, a, b)
}

fn arm(k: &mut Kernel, s: AsId) {
    k.protect_page_cow(s, VAddr::new(BASE).vpn()).unwrap();
}

proptest! {
    /// Disjoint writers: thread A writes even words, thread B odd words.
    /// After both commit (in either order), shared memory holds exactly
    /// what each wrote.
    #[test]
    fn disjoint_writes_merge_losslessly(
        writes_a in proptest::collection::vec((0..256u64, any::<u64>()), 1..60),
        writes_b in proptest::collection::vec((0..256u64, any::<u64>()), 1..60),
        b_commits_first in any::<bool>(),
    ) {
        let (mut k, a, b) = setup();
        arm(&mut k, a);
        arm(&mut k, b);
        let mut tw2 = TwinStore::new();
        let vpn = VAddr::new(BASE).vpn();
        let mut expect = std::collections::HashMap::new();

        let write = |k: &mut Kernel, tw: &mut TwinStore, s: AsId, word: u64, v: u64| {
            let addr = VAddr::new(BASE + word * 8);
            // Emulate the engine: fault first, notify the runtime (twin
            // snapshot), then store.
            if k.translate(s, addr, true).is_err() {
                k.handle_fault(s, addr, true).unwrap();
                tw.snapshot(k, s, vpn);
            }
            k.force_write(s, addr, Width::W8, v).unwrap();
        };

        for &(w, v) in &writes_a {
            let word = w * 2;
            write(&mut k, &mut tw2, a, word, v);
            expect.insert(word, v);
        }
        for &(w, v) in &writes_b {
            let word = w * 2 + 1;
            write(&mut k, &mut tw2, b, word, v);
            expect.insert(word, v);
        }
        let order = if b_commits_first { [b, a] } else { [a, b] };
        for s in order {
            if tw2.has_dirty(s) {
                tw2.commit_page(&mut k, s, vpn, false).unwrap();
            }
        }
        for (&word, &v) in &expect {
            let pa = k.object_paddr(a, VAddr::new(BASE + word * 8)).unwrap();
            prop_assert_eq!(k.physmem().read(pa, Width::W8), v, "word {}", word);
        }
    }

    /// Racy overlapping writes: after both commits, every byte of the
    /// final value comes from one of the two written values (byte-level
    /// mixing is permitted — that's the AMBSA story — but bytes from
    /// nowhere are not).
    #[test]
    fn racy_writes_never_fabricate_bytes(
        word in 0..512u64,
        va in any::<u64>(),
        vb in any::<u64>(),
    ) {
        let (mut k, a, b) = setup();
        arm(&mut k, a);
        arm(&mut k, b);
        let mut tw = TwinStore::new();
        let vpn = VAddr::new(BASE).vpn();
        let addr = VAddr::new(BASE + word * 8);

        for (s, v) in [(a, va), (b, vb)] {
            k.handle_fault(s, addr, true).unwrap();
            tw.snapshot(&k, s, vpn);
            k.force_write(s, addr, Width::W8, v).unwrap();
        }
        tw.commit_page(&mut k, a, vpn, false).unwrap();
        tw.commit_page(&mut k, b, vpn, false).unwrap();

        let pa = k.object_paddr(a, addr).unwrap();
        let got = k.physmem().read(pa, Width::W8).to_le_bytes();
        let ba = va.to_le_bytes();
        let bb = vb.to_le_bytes();
        for i in 0..8 {
            prop_assert!(
                got[i] == ba[i] || got[i] == bb[i] || got[i] == 0,
                "byte {i}: {:#x} from neither {:#x} nor {:#x}",
                got[i], ba[i], bb[i]
            );
        }
    }

    /// Commit-then-rewrite cycles: the page stays armed after each commit,
    /// and repeated rounds keep merging correctly.
    #[test]
    fn repeated_commit_rounds_stay_consistent(
        rounds in proptest::collection::vec((0..512u64, any::<u64>()), 1..20)
    ) {
        let (mut k, a, _b) = setup();
        arm(&mut k, a);
        let mut tw = TwinStore::new();
        let vpn = VAddr::new(BASE).vpn();
        for &(word, v) in &rounds {
            let addr = VAddr::new(BASE + word * 8);
            prop_assert!(k.translate(a, addr, true).is_err(), "page must be re-armed");
            k.handle_fault(a, addr, true).unwrap();
            tw.snapshot(&k, a, vpn);
            k.force_write(a, addr, Width::W8, v).unwrap();
            tw.commit_page(&mut k, a, vpn, false).unwrap();
            let pa = k.object_paddr(a, addr).unwrap();
            prop_assert_eq!(k.physmem().read(pa, Width::W8), v);
        }
        prop_assert_eq!(tw.current_bytes(), 0);
    }
}

//! Property tests for code-centric consistency (§3.4): for *any* access —
//! every combination of code kind (regular / atomic / inline asm), memory
//! order, access kind and width — [`tmi::access_decision`] must implement
//! exactly the Table 2 matrix, its relaxed-atomic refinement, and the
//! `code_centric = false` ablation (everything through the PTSB, the
//! Sheriff behaviour that Figs. 11–12 show corrupting canneal/cholesky).

use proptest::prelude::*;
use tmi::consistency::{access_decision, region_flush, route_of, Decision};
use tmi_machine::{AccessKind, VAddr, Width};
use tmi_program::MemOrder;
use tmi_program::Pc;
use tmi_sim::{AccessInfo, RegionEvent, Route};

fn order_strategy() -> impl Strategy<Value = Option<MemOrder>> {
    (0..6u64).prop_map(|i| match i {
        0 => None,
        1 => Some(MemOrder::Relaxed),
        2 => Some(MemOrder::Acquire),
        3 => Some(MemOrder::Release),
        4 => Some(MemOrder::AcqRel),
        _ => Some(MemOrder::SeqCst),
    })
}

fn access_strategy() -> impl Strategy<Value = AccessInfo> {
    (
        order_strategy(),
        any::<bool>(),
        (0..3u64, 0..4u64, any::<u64>()),
    )
        .prop_map(|(order, in_asm, (kind, width, addr))| AccessInfo {
            pc: Pc(0x40_0000 + (addr & 0xfff0)),
            vaddr: VAddr::new(addr & 0xffff_fff8),
            width: match width {
                0 => Width::W1,
                1 => Width::W2,
                2 => Width::W4,
                _ => Width::W8,
            },
            kind: match kind {
                0 => AccessKind::Load,
                1 => AccessKind::Store,
                _ => AccessKind::Rmw,
            },
            order,
            in_asm,
        })
}

proptest! {
    /// Table 2, row by row, for every generated access. The decision
    /// depends only on the code kind and memory order — never on the
    /// address, width or load/store direction.
    #[test]
    fn decision_matches_table2(acc in access_strategy()) {
        let d = access_decision(true, &acc);
        if let Some(order) = acc.order {
            // Cases 2 & 4: atomics always bypass the PTSB (AMBSA).
            prop_assert!(d.shared, "atomics must route shared: {acc:?}");
            // Refinement: relaxed requires atomicity only — no flush;
            // ordering orders flush.
            prop_assert_eq!(d.flush, order.is_ordering(), "{:?}", acc);
        } else if acc.in_asm {
            // Cases 3 & 5: asm runs on shared memory (TSO); the flush
            // already happened at AsmEnter, not per access.
            prop_assert_eq!(d, Decision { flush: false, shared: true }, "{:?}", acc);
        } else {
            // Case 1 / Lemma 3.1: regular code may use the PTSB freely.
            prop_assert_eq!(d, Decision::default(), "{:?}", acc);
        }
    }

    /// The decision is a pure function of (order, in_asm): two accesses
    /// agreeing on those two always decide identically.
    #[test]
    fn decision_ignores_address_kind_and_width(
        a in access_strategy(),
        b in access_strategy(),
        code_centric in any::<bool>(),
    ) {
        if a.order == b.order && a.in_asm == b.in_asm {
            prop_assert_eq!(
                access_decision(code_centric, &a),
                access_decision(code_centric, &b)
            );
        }
    }

    /// The ablation: with code-centric consistency off, *every* access —
    /// atomic, asm, anything — gets the default PTSB route with no flush.
    /// This is precisely why the differential fuzzer must find torn and
    /// stale values in that mode.
    #[test]
    fn ablation_sends_everything_through_the_ptsb(acc in access_strategy()) {
        prop_assert_eq!(access_decision(false, &acc), Decision::default());
    }

    /// A flush is only ever demanded together with a shared-route: the
    /// runtime never commits the PTSB just to keep using it.
    #[test]
    fn flush_implies_shared(acc in access_strategy(), code_centric in any::<bool>()) {
        let d = access_decision(code_centric, &acc);
        prop_assert!(!d.flush || d.shared, "{:?} -> {:?}", acc, d);
    }

    /// Route conversion is exactly the `shared` bit.
    #[test]
    fn route_is_the_shared_bit(acc in access_strategy(), code_centric in any::<bool>()) {
        let d = access_decision(code_centric, &acc);
        let expected = if d.shared { Route::SharedObject } else { Route::Normal };
        prop_assert_eq!(route_of(d), expected);
    }

    /// Region events: asm entry always flushes (case 3/5 boundary), asm
    /// exit never does, fences flush iff they order — and the ablation
    /// disables all of it.
    #[test]
    fn region_events_flush_per_table2(order in order_strategy()) {
        prop_assert!(region_flush(true, RegionEvent::AsmEnter));
        prop_assert!(!region_flush(true, RegionEvent::AsmExit));
        prop_assert!(!region_flush(false, RegionEvent::AsmEnter));
        prop_assert!(!region_flush(false, RegionEvent::AsmExit));
        if let Some(o) = order {
            prop_assert_eq!(region_flush(true, RegionEvent::Fence(o)), o.is_ordering());
            prop_assert!(!region_flush(false, RegionEvent::Fence(o)));
        }
    }
}

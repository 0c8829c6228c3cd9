//! Code-centric consistency (§3.4, Table 2).
//!
//! The consistency model in force depends on which *kind of code* is
//! executing: regular C/C++, C/C++ atomics, or inline assembly. The
//! compiler-inserted callbacks tell the runtime where these regions begin
//! and end; the runtime then decides, per access, whether the PTSB may be
//! used and whether it must be flushed first.
//!
//! | interaction (Table 2)      | semantics | PTSB permitted?             |
//! |-----------------------------|-----------|-----------------------------|
//! | regular × regular (racy)    | undefined | yes (case 1)                |
//! | atomic × atomic             | atomic    | no — flush + shared (case 2)|
//! | regular × asm               | undefined | TMI still disables (case 3) |
//! | atomic × asm                | proposed  | no — disabled (case 4)      |
//! | asm × asm                   | TSO       | no (case 5)                 |
//! | data-race-free regular code | SC        | yes (Lemma 3.1)             |
//!
//! Refinement for atomics: `memory_order_relaxed` requires only
//! *atomicity*, so relaxed atomics operate directly on shared pages (so
//! AMBSA holds) but do **not** force a PTSB flush — the optimization that
//! makes `shptr-relaxed` fast (§4.3).

use tmi_sim::{AccessInfo, RegionEvent, Route};

/// Per-access decision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Decision {
    /// Commit buffered pages before the access.
    pub flush: bool,
    /// Route the access through the always-shared mapping.
    pub shared: bool,
}

/// Decides how one access must be handled while repair is active.
///
/// With `code_centric` disabled (the ablation used to demonstrate the
/// canneal/cholesky failures, Figs. 11–12), every access runs through the
/// PTSB as Sheriff would — semantically wrong for atomics and assembly.
pub fn access_decision(code_centric: bool, acc: &AccessInfo) -> Decision {
    if !code_centric {
        return Decision::default();
    }
    if let Some(order) = acc.order {
        return Decision {
            flush: order.is_ordering(),
            shared: true,
        };
    }
    if acc.in_asm {
        // Flushing happened at AsmEnter; within the region, accesses
        // operate on shared memory for TSO semantics (case 5).
        return Decision {
            flush: false,
            shared: true,
        };
    }
    Decision::default()
}

/// Decides whether a region event must flush the PTSB.
pub fn region_flush(code_centric: bool, ev: RegionEvent) -> bool {
    if !code_centric {
        return false;
    }
    match ev {
        RegionEvent::AsmEnter => true,
        RegionEvent::AsmExit => false,
        RegionEvent::Fence(order) => order.is_ordering(),
    }
}

/// Convenience: converts a [`Decision`] into the engine's [`Route`].
pub fn route_of(d: Decision) -> Route {
    if d.shared {
        Route::SharedObject
    } else {
        Route::Normal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmi_machine::{AccessKind, VAddr, Width};
    use tmi_program::{MemOrder, Pc};

    fn acc(order: Option<MemOrder>, in_asm: bool) -> AccessInfo {
        AccessInfo {
            pc: Pc(0x400000),
            vaddr: VAddr::new(0x1000),
            width: Width::W8,
            kind: AccessKind::Store,
            order,
            in_asm,
        }
    }

    #[test]
    fn regular_code_uses_ptsb_freely() {
        let d = access_decision(true, &acc(None, false));
        assert_eq!(
            d,
            Decision {
                flush: false,
                shared: false
            }
        );
    }

    #[test]
    fn relaxed_atomics_bypass_without_flush() {
        let d = access_decision(true, &acc(Some(MemOrder::Relaxed), false));
        assert_eq!(
            d,
            Decision {
                flush: false,
                shared: true
            }
        );
    }

    #[test]
    fn ordering_atomics_flush_and_bypass() {
        for order in [
            MemOrder::Acquire,
            MemOrder::Release,
            MemOrder::AcqRel,
            MemOrder::SeqCst,
        ] {
            let d = access_decision(true, &acc(Some(order), false));
            assert_eq!(
                d,
                Decision {
                    flush: true,
                    shared: true
                },
                "{order:?}"
            );
        }
    }

    #[test]
    fn asm_accesses_bypass_flush_at_entry() {
        let d = access_decision(true, &acc(None, true));
        assert_eq!(
            d,
            Decision {
                flush: false,
                shared: true
            }
        );
        assert!(region_flush(true, RegionEvent::AsmEnter));
        assert!(!region_flush(true, RegionEvent::AsmExit));
    }

    #[test]
    fn fences_flush_when_ordering() {
        assert!(region_flush(true, RegionEvent::Fence(MemOrder::SeqCst)));
        assert!(!region_flush(true, RegionEvent::Fence(MemOrder::Relaxed)));
    }

    #[test]
    fn without_code_centric_everything_is_unsafe_ptsb() {
        // The Sheriff-style ablation: atomics and asm go through the PTSB.
        for a in [acc(Some(MemOrder::SeqCst), false), acc(None, true)] {
            let d = access_decision(false, &a);
            assert_eq!(d, Decision::default());
        }
        assert!(!region_flush(false, RegionEvent::AsmEnter));
    }

    #[test]
    fn route_conversion() {
        assert_eq!(
            route_of(Decision {
                flush: false,
                shared: true
            }),
            Route::SharedObject
        );
        assert_eq!(route_of(Decision::default()), Route::Normal);
    }
}

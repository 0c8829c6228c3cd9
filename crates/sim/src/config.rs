//! Typed fast-path configuration.
//!
//! Historically the fast-path accelerators (the software TLBs in `tmi-os`
//! and the sharer/owner directory in `tmi-machine`) were toggled through a
//! process-global `TMI_FASTPATH` environment variable read independently
//! by each component at construction time, plus per-component setters for
//! mid-run flips. Mutating the process environment to flip it raced
//! against every other thread in the process. The typed [`FastPath`]
//! struct on [`crate::EngineConfig`] replaces both: the environment is
//! consulted exactly once per process (memoized), at config construction,
//! purely for CLI compatibility, and everything downstream passes plain
//! values.

use std::sync::OnceLock;

/// Which accelerator fast paths an engine run uses. Both accelerators are
/// required to be *behaviorally invisible*: flipping them may only change
/// the `os.tlb.*` / `machine.dir.*` counters, never a simulated outcome
/// (the contract `tests/fastpath_equivalence.rs` enforces).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FastPath {
    /// Per-address-space software TLBs (`tmi-os`). When `false`, every
    /// translation walks the page table — the reference path.
    pub tlb: bool,
    /// The sharer/owner directory over the private caches
    /// (`tmi-machine`). When `false`, every remote query broadcasts — the
    /// reference snoop path.
    pub directory: bool,
}

impl FastPath {
    /// Both accelerators on — the production configuration.
    pub fn enabled() -> Self {
        FastPath {
            tlb: true,
            directory: true,
        }
    }

    /// Both accelerators off — the reference paths, for differential runs.
    pub fn reference() -> Self {
        FastPath {
            tlb: false,
            directory: false,
        }
    }

    /// The configuration selected by the environment: `reference()` when
    /// `TMI_FASTPATH` is `off|0|false|no`, `enabled()` otherwise. The
    /// variable is read once per process and memoized — this is the *only*
    /// place in the workspace that reads it, kept solely so existing CLI
    /// recipes (`TMI_FASTPATH=off run_all`) keep working.
    pub fn from_env() -> Self {
        static DISABLED: OnceLock<bool> = OnceLock::new();
        let disabled = *DISABLED.get_or_init(|| {
            matches!(
                std::env::var("TMI_FASTPATH").as_deref(),
                Ok("off") | Ok("0") | Ok("false") | Ok("no")
            )
        });
        if disabled {
            Self::reference()
        } else {
            Self::enabled()
        }
    }
}

impl Default for FastPath {
    fn default() -> Self {
        Self::enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_constructors() {
        assert_eq!(
            FastPath::enabled(),
            FastPath {
                tlb: true,
                directory: true
            }
        );
        assert_eq!(
            FastPath::reference(),
            FastPath {
                tlb: false,
                directory: false
            }
        );
        assert_eq!(FastPath::default(), FastPath::enabled());
    }
}

//! Static code metadata: program counters and the simulated "binary".
//!
//! TMI's detector disassembles the application binary once at startup to
//! learn, for every instruction address, whether it is a load or a store
//! and how many bytes it touches (§3.1) — that is what lets it tell false
//! sharing (disjoint byte ranges within a line) from true sharing
//! (overlapping ranges). [`CodeRegistry`] plays the role of the binary:
//! workloads mint a [`Pc`] per static instruction and the detector later
//! looks the metadata back up.

use std::fmt;

use tmi_machine::Width;

/// A static program counter (instruction address).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl fmt::Debug for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pc({:#x})", self.0)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// What kind of memory instruction a PC decodes to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstrKind {
    /// A read.
    Load,
    /// A write.
    Store,
    /// An atomic read-modify-write (reads *and* writes its location).
    Rmw,
}

impl InstrKind {
    /// Whether instructions of this kind write memory.
    pub fn writes(self) -> bool {
        matches!(self, InstrKind::Store | InstrKind::Rmw)
    }

    /// Whether instructions of this kind read memory.
    pub fn reads(self) -> bool {
        matches!(self, InstrKind::Load | InstrKind::Rmw)
    }
}

/// Decoded metadata for one static instruction — the disassembler's output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstrInfo {
    /// Load, store or RMW.
    pub kind: InstrKind,
    /// Access width in bytes.
    pub width: Width,
    /// True if the instruction implements a C/C++ atomic operation (found
    /// via the code-centric consistency callbacks, not the disassembler).
    pub atomic: bool,
    /// True if the instruction lies inside an inline-assembly region.
    pub asm: bool,
}

/// The simulated application binary: an append-only table of static
/// instructions with symbol names for reporting.
///
/// PCs are handed out sequentially starting at `0x40_0000` (a traditional
/// ELF text base) with 4-byte spacing, so a PC's entry is found by
/// index: `(pc - 0x40_0000) / 4`.
#[derive(Debug)]
pub struct CodeRegistry {
    instrs: Vec<(InstrInfo, String)>,
}

/// Base address of the simulated text segment.
const TEXT_BASE: u64 = 0x40_0000;

/// Bytes between consecutive PCs.
const PC_STRIDE: u64 = 4;

impl Default for CodeRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl CodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CodeRegistry { instrs: Vec::new() }
    }

    /// Registers a plain (non-atomic, non-asm) instruction and returns its
    /// fresh PC. `symbol` names the instruction in reports, e.g.
    /// `"histogram::bump_bin"`.
    pub fn instr(&mut self, symbol: &str, kind: InstrKind, width: Width) -> Pc {
        self.register(
            symbol,
            InstrInfo {
                kind,
                width,
                atomic: false,
                asm: false,
            },
        )
    }

    /// Registers an instruction implementing a C/C++ atomic operation.
    pub fn atomic_instr(&mut self, symbol: &str, kind: InstrKind, width: Width) -> Pc {
        self.register(
            symbol,
            InstrInfo {
                kind,
                width,
                atomic: true,
                asm: false,
            },
        )
    }

    /// Registers an instruction inside an inline-assembly region.
    pub fn asm_instr(&mut self, symbol: &str, kind: InstrKind, width: Width) -> Pc {
        self.register(
            symbol,
            InstrInfo {
                kind,
                width,
                atomic: false,
                asm: true,
            },
        )
    }

    fn register(&mut self, symbol: &str, info: InstrInfo) -> Pc {
        let pc = Pc(TEXT_BASE + self.instrs.len() as u64 * PC_STRIDE);
        self.instrs.push((info, symbol.to_owned()));
        pc
    }

    /// The table entry of `pc`, if the registry handed it out.
    fn entry(&self, pc: Pc) -> Option<&(InstrInfo, String)> {
        let offset = pc.0.checked_sub(TEXT_BASE)?;
        if offset % PC_STRIDE != 0 {
            return None;
        }
        self.instrs.get(usize::try_from(offset / PC_STRIDE).ok()?)
    }

    /// Disassembles one PC: the lookup TMI's detector performs for every
    /// PEBS record (§3.1).
    pub fn disassemble(&self, pc: Pc) -> Option<InstrInfo> {
        self.entry(pc).map(|(info, _)| *info)
    }

    /// The symbol registered for `pc`, for human-readable reports.
    pub fn symbol(&self, pc: Pc) -> Option<&str> {
        self.entry(pc).map(|(_, symbol)| symbol.as_str())
    }

    /// Number of static instructions registered. The detector's memory
    /// footprint scales with this (Fig. 8 discussion).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if no instructions have been registered.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcs_are_unique_and_text_based() {
        let mut c = CodeRegistry::new();
        let a = c.instr("a", InstrKind::Load, Width::W4);
        let b = c.instr("b", InstrKind::Store, Width::W8);
        assert_ne!(a, b);
        assert!(a.0 >= TEXT_BASE);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn disassembly_recovers_kind_and_width() {
        let mut c = CodeRegistry::new();
        let pc = c.instr("k", InstrKind::Store, Width::W2);
        let info = c.disassemble(pc).unwrap();
        assert_eq!(info.kind, InstrKind::Store);
        assert_eq!(info.width, Width::W2);
        assert!(!info.atomic && !info.asm);
        assert_eq!(c.symbol(pc), Some("k"));
    }

    #[test]
    fn atomic_and_asm_flags() {
        let mut c = CodeRegistry::new();
        let a = c.atomic_instr("refcount", InstrKind::Rmw, Width::W4);
        let s = c.asm_instr("memcpy_body", InstrKind::Store, Width::W8);
        assert!(c.disassemble(a).unwrap().atomic);
        assert!(c.disassemble(s).unwrap().asm);
    }

    #[test]
    fn unknown_pc_disassembles_to_none() {
        let c = CodeRegistry::new();
        assert_eq!(c.disassemble(Pc(0x1234)), None);
    }

    #[test]
    fn pcs_outside_the_table_have_no_entry() {
        let mut c = CodeRegistry::new();
        let a = c.instr("a", InstrKind::Load, Width::W4);
        let b = c.instr("b", InstrKind::Store, Width::W4);
        assert_eq!(b.0, a.0 + PC_STRIDE);
        for pc in [Pc(a.0 - PC_STRIDE), Pc(a.0 + 1), Pc(b.0 + PC_STRIDE), Pc(0)] {
            assert_eq!(c.disassemble(pc), None, "{pc}");
            assert_eq!(c.symbol(pc), None, "{pc}");
        }
        assert_eq!(c.symbol(b), Some("b"));
    }

    #[test]
    fn default_numbers_pcs_like_new() {
        let mut d = CodeRegistry::default();
        let mut n = CodeRegistry::new();
        let pc = d.instr("x", InstrKind::Load, Width::W1);
        assert_eq!(pc, n.instr("x", InstrKind::Load, Width::W1));
        assert_eq!(pc, Pc(TEXT_BASE));
    }

    #[test]
    fn kind_predicates() {
        assert!(InstrKind::Rmw.reads() && InstrKind::Rmw.writes());
        assert!(InstrKind::Load.reads() && !InstrKind::Load.writes());
        assert!(!InstrKind::Store.reads() && InstrKind::Store.writes());
    }
}

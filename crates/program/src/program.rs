//! Thread programs: resumable state machines that emit [`Op`]s.

use crate::op::Op;

/// The result of the previously executed op, fed back into
/// [`ThreadProgram::next`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpResult {
    /// Value produced by the last op: the loaded value for loads and atomic
    /// loads, the *previous* value for RMWs, the *observed* value for CAS.
    /// `None` for ops that produce nothing (stores, fences, sync, compute).
    pub value: Option<u64>,
}

impl OpResult {
    /// The result fed to the very first op of a thread.
    pub fn none() -> Self {
        OpResult { value: None }
    }

    /// A result carrying a value.
    pub fn of(value: u64) -> Self {
        OpResult { value: Some(value) }
    }

    /// The value, panicking if the last op produced none.
    ///
    /// # Panics
    ///
    /// Panics if the previous op was not value-producing — which indicates
    /// a bug in the thread program, not in user input.
    pub fn unwrap(self) -> u64 {
        self.value.expect("previous op produced no value")
    }
}

/// A simulated thread: the engine repeatedly calls [`Self::next`], passing
/// the result of the op it just completed, until [`Op::Exit`] is returned.
///
/// Implementations are ordinary Rust state machines; see
/// [`SequenceProgram`] for the simplest one and the `tmi-workloads` crate
/// for realistic ones.
pub trait ThreadProgram {
    /// Produces the next operation. `last` carries the result of the
    /// previously returned op ([`OpResult::none()`] on the first call).
    ///
    /// After returning [`Op::Exit`] this method is never called again.
    fn next(&mut self, last: OpResult) -> Op;
}

/// The simplest [`ThreadProgram`]: plays a fixed list of ops, then exits.
/// Litmus programs are sequences (Fig. 3's word-tearing pair, the
/// differential oracle's generated programs); what they loaded is read
/// from the engine's execution trace (`Engine::enable_trace`).
#[derive(Debug)]
pub struct SequenceProgram {
    ops: Vec<Op>,
    idx: usize,
}

impl SequenceProgram {
    /// Creates a program that runs `ops` then exits.
    pub fn new(ops: Vec<Op>) -> Self {
        SequenceProgram { ops, idx: 0 }
    }
}

impl ThreadProgram for SequenceProgram {
    fn next(&mut self, _last: OpResult) -> Op {
        let op = self.ops.get(self.idx).copied().unwrap_or(Op::Exit);
        self.idx += 1;
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Pc;
    use tmi_machine::{VAddr, Width};

    #[test]
    fn sequence_plays_ops_then_exits() {
        let load = Op::Load {
            pc: Pc(0x400000),
            addr: VAddr::new(0x1000),
            width: Width::W8,
        };
        let mut p = SequenceProgram::new(vec![load, Op::Compute { cycles: 10 }]);
        assert_eq!(p.next(OpResult::none()), load);
        assert_eq!(p.next(OpResult::of(42)), Op::Compute { cycles: 10 });
        assert_eq!(p.next(OpResult::none()), Op::Exit);
        assert_eq!(p.next(OpResult::none()), Op::Exit);
    }

    #[test]
    fn op_result_helpers() {
        assert_eq!(OpResult::of(7).unwrap(), 7);
        assert_eq!(OpResult::none().value, None);
    }

    #[test]
    #[should_panic(expected = "no value")]
    fn unwrap_none_panics() {
        let _ = OpResult::none().unwrap();
    }
}

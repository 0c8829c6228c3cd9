//! Thread programs: resumable state machines that emit [`Op`]s.

use std::cell::RefCell;
use std::rc::Rc;

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

/// A shared, append-only log of op results, for litmus tests that need to
/// observe what a [`SequenceProgram`] loaded.
pub type SharedLog = Rc<RefCell<Vec<Option<u64>>>>;

/// The simplest [`ThreadProgram`]: plays a fixed list of ops and records
/// every op result into a [`SharedLog`]. Used heavily by litmus tests
/// (e.g. the Fig. 3 word-tearing program).
#[derive(Debug)]
pub struct SequenceProgram {
    ops: Vec<Op>,
    idx: usize,
    log: SharedLog,
}

impl SequenceProgram {
    /// Creates a program that runs `ops` then exits.
    pub fn new(ops: Vec<Op>) -> Self {
        SequenceProgram {
            ops,
            idx: 0,
            log: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// A handle to the result log; entry *i* is the result observed *after*
    /// op *i* completed (so entry 0 is the first op's result, recorded when
    /// the second op is requested).
    pub fn log(&self) -> SharedLog {
        Rc::clone(&self.log)
    }
}

impl ThreadProgram for SequenceProgram {
    fn next(&mut self, last: OpResult) -> Op {
        if self.idx > 0 && self.idx <= self.ops.len() {
            self.log.borrow_mut().push(last.value);
        }
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
    fn log_records_results_in_order() {
        let load = Op::Load {
            pc: Pc(0x400000),
            addr: VAddr::new(0x1000),
            width: Width::W8,
        };
        let mut p = SequenceProgram::new(vec![load, load]);
        let log = p.log();
        p.next(OpResult::none());
        p.next(OpResult::of(1));
        p.next(OpResult::of(2));
        // A trailing Exit request records nothing further.
        p.next(OpResult::none());
        assert_eq!(*log.borrow(), vec![Some(1), Some(2)]);
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

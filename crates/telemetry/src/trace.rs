//! The structured event bus: a cloneable [`Tracer`] handle that runtime
//! components emit spans and instants into.
//!
//! A disabled tracer is a `None`; every emit is one branch and no
//! allocation, so instrumented code is zero-cost unless a run opts in.
//! Handles are reference-counted (each simulated run lives on a single host
//! thread), so the engine, runtime and repair manager can all share one
//! buffer. The tracer holds events only: the per-phase cycle profile is
//! owned by the runtime that charges the cycles, so it is the same whether
//! or not a run is traced.

use std::cell::RefCell;
use std::rc::Rc;

/// The shape of a [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A point-in-time marker (Chrome `ph: "i"`).
    Instant,
    /// A span covering `dur_cycles` starting at the event's cycle
    /// (Chrome `ph: "X"`).
    Complete {
        /// Span length in simulated cycles.
        dur_cycles: u64,
    },
}

/// One recorded event, stamped with simulated cycles and the acting
/// thread id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (stable, e.g. `"repair.commit"`).
    pub name: &'static str,
    /// Category for trace-viewer filtering (e.g. `"repair"`).
    pub cat: &'static str,
    /// Acting thread id (`u64::MAX` for engine-global events).
    pub tid: u64,
    /// Simulated cycle at which the event happened (span start for
    /// [`EventKind::Complete`]).
    pub cycle: u64,
    /// Instant or span.
    pub kind: EventKind,
    /// Numeric payload, shown in the viewer's args pane.
    pub args: Vec<(&'static str, u64)>,
}

/// The thread id [`Tracer`] stamps on events with no single acting thread.
pub const GLOBAL_TID: u64 = u64::MAX;

/// A cloneable handle to a shared trace buffer, or a no-op when disabled.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Vec<TraceEvent>>>>,
}

impl Tracer {
    /// A disabled tracer: every emit is a single branch.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer with a fresh buffer. Clones share the buffer.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(Vec::new()))),
        }
    }

    /// Records an instant event.
    pub fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        tid: u64,
        cycle: u64,
        args: &[(&'static str, u64)],
    ) {
        if let Some(buf) = &self.inner {
            buf.borrow_mut().push(TraceEvent {
                name,
                cat,
                tid,
                cycle,
                kind: EventKind::Instant,
                args: args.to_vec(),
            });
        }
    }

    /// Records a complete span of `dur_cycles` starting at `cycle`.
    pub fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        tid: u64,
        cycle: u64,
        dur_cycles: u64,
        args: &[(&'static str, u64)],
    ) {
        if let Some(buf) = &self.inner {
            buf.borrow_mut().push(TraceEvent {
                name,
                cat,
                tid,
                cycle,
                kind: EventKind::Complete { dur_cycles },
                args: args.to_vec(),
            });
        }
    }

    /// Number of events recorded so far (0 when disabled).
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |b| b.borrow().len())
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the recorded events.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |b| std::mem::take(&mut *b.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.instant("x", "c", 0, 1, &[]);
        t.span("y", "c", 0, 1, 5, &[]);
        assert!(t.is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::enabled();
        let u = t.clone();
        t.instant("a", "c", 1, 10, &[("k", 7)]);
        u.span("b", "c", 2, 20, 5, &[]);
        assert_eq!(t.len(), 2);
        let events = t.take_events();
        assert_eq!(events[0].name, "a");
        assert_eq!(events[0].args, vec![("k", 7)]);
        assert_eq!(events[1].kind, EventKind::Complete { dur_cycles: 5 });
        assert!(u.is_empty(), "take drains the shared buffer");
    }
}

//! Data-plane semantics of the remaining op kinds: CAS success/failure,
//! atomic loads, fences, and width truncation through the engine.

use tmi_machine::{LatencyModel, VAddr, Width, FRAME_SIZE};
use tmi_os::MapRequest;
use tmi_program::{InstrKind, MemOrder, Op, RmwOp, SequenceProgram};
use tmi_sim::{Engine, EngineConfig, NullRuntime};

const APP: u64 = 0x10_0000;

fn engine() -> (Engine<NullRuntime>, tmi_os::AsId) {
    let mut e = Engine::new(EngineConfig::with_cores(2), NullRuntime);
    let obj = e.core_mut().kernel.create_object(16 * FRAME_SIZE);
    let aspace = e.core_mut().kernel.create_aspace();
    e.core_mut()
        .kernel
        .map(
            aspace,
            MapRequest::object(VAddr::new(APP), 16 * FRAME_SIZE, obj, 0),
        )
        .unwrap();
    e.create_root_process(aspace);
    e.enable_trace();
    (e, aspace)
}

/// The values the traced run's ops produced, one per executed op in
/// program order, `Exit` left out.
fn observed(e: &mut Engine<NullRuntime>) -> Vec<Option<u64>> {
    e.take_trace()
        .iter()
        .filter(|s| s.op != Op::Exit)
        .map(|s| s.value)
        .collect()
}

#[test]
fn cas_success_and_failure_semantics() {
    let (mut e, aspace) = engine();
    let pc = e
        .core_mut()
        .code
        .atomic_instr("t::cas", InstrKind::Rmw, Width::W8);
    let x = VAddr::new(APP + 64);
    e.core_mut()
        .kernel
        .force_write(aspace, x, Width::W8, 5)
        .unwrap();
    let prog = SequenceProgram::new(vec![
        // Fails: expected 4, observed 5.
        Op::Cas {
            pc,
            addr: x,
            width: Width::W8,
            expected: 4,
            desired: 9,
            order: MemOrder::SeqCst,
        },
        // Succeeds: expected 5.
        Op::Cas {
            pc,
            addr: x,
            width: Width::W8,
            expected: 5,
            desired: 9,
            order: MemOrder::SeqCst,
        },
        // Fails again: now 9.
        Op::Cas {
            pc,
            addr: x,
            width: Width::W8,
            expected: 5,
            desired: 1,
            order: MemOrder::SeqCst,
        },
    ]);
    e.add_thread(Box::new(prog));
    assert!(e.run().completed());
    assert_eq!(observed(&mut e), [Some(5), Some(5), Some(9)]);
    assert_eq!(
        e.core_mut()
            .kernel
            .force_read(aspace, x, Width::W8)
            .unwrap(),
        9
    );
}

#[test]
fn atomic_load_returns_value_and_fence_costs_cycles() {
    let (mut e, aspace) = engine();
    let pc = e
        .core_mut()
        .code
        .atomic_instr("t::ald", InstrKind::Load, Width::W4);
    let x = VAddr::new(APP + 128);
    e.core_mut()
        .kernel
        .force_write(aspace, x, Width::W4, 77)
        .unwrap();
    let prog = SequenceProgram::new(vec![
        Op::AtomicLoad {
            pc,
            addr: x,
            width: Width::W4,
            order: MemOrder::Acquire,
        },
        Op::Fence {
            order: MemOrder::SeqCst,
        },
    ]);
    e.add_thread(Box::new(prog));
    let r = e.run();
    assert!(r.completed());
    assert_eq!(observed(&mut e)[0], Some(77));
    assert!(r.cycles >= LatencyModel::FENCE);
}

#[test]
fn narrow_rmw_wraps_at_width() {
    let (mut e, aspace) = engine();
    let pc = e
        .core_mut()
        .code
        .atomic_instr("t::rmw8", InstrKind::Rmw, Width::W1);
    let x = VAddr::new(APP + 256);
    e.core_mut()
        .kernel
        .force_write(aspace, x, Width::W1, 0xff)
        .unwrap();
    let prog = SequenceProgram::new(vec![Op::AtomicRmw {
        pc,
        addr: x,
        width: Width::W1,
        rmw: RmwOp::Add,
        operand: 1,
        order: MemOrder::Relaxed,
    }]);
    e.add_thread(Box::new(prog));
    assert!(e.run().completed());
    assert_eq!(
        observed(&mut e)[0],
        Some(0xff),
        "RMW returns the previous value"
    );
    assert_eq!(
        e.core_mut()
            .kernel
            .force_read(aspace, x, Width::W1)
            .unwrap(),
        0,
        "one-byte add wraps"
    );
}

#[test]
#[should_panic(expected = "unaligned atomic")]
fn unaligned_atomics_are_rejected() {
    let (mut e, _) = engine();
    let pc = e
        .core_mut()
        .code
        .atomic_instr("t::bad", InstrKind::Store, Width::W8);
    e.add_thread(Box::new(SequenceProgram::new(vec![Op::AtomicStore {
        pc,
        addr: VAddr::new(APP + 4), // not 8-aligned
        width: Width::W8,
        value: 0,
        order: MemOrder::SeqCst,
    }])));
    let _ = e.run();
}

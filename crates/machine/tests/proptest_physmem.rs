//! Property test for the data plane: for any sequence of allocations,
//! frees, accesses and copies, [`PhysMem`] — which gives a frame storage
//! only on its first write — behaves exactly like a pool of plain frames
//! zero-filled at allocation, hands out the same frame ids in the same
//! order, and never holds storage for more frames than were written.

use std::collections::HashSet;

use proptest::prelude::*;
use tmi_machine::{FrameId, PhysMem, Width, FRAME_SIZE};

const WIDTHS: [Width; 4] = [Width::W1, Width::W2, Width::W4, Width::W8];

/// One operation. `usize` picks index the live frames (modulo their
/// count); offsets are clamped so an access never crosses its frame.
#[derive(Clone, Copy, Debug)]
enum Op {
    Alloc,
    AllocContiguous(usize),
    Free(usize),
    Read(usize, u64, Width),
    Write(usize, u64, Width, u64),
    WriteByte(usize, u64, u8),
    Copy(usize, usize),
    FrameBytes(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let pick = || 0..64usize;
    // Mostly the first line, so writes and reads overlap.
    let offset = || prop_oneof![3 => 0..64u64, 1 => 0..FRAME_SIZE];
    let width = || (0..4usize).prop_map(|i| WIDTHS[i]);
    prop_oneof![
        3 => Just(Op::Alloc),
        1 => (1..6usize).prop_map(Op::AllocContiguous),
        2 => pick().prop_map(Op::Free),
        4 => (pick(), offset(), width()).prop_map(|(f, o, w)| Op::Read(f, o, w)),
        4 => (pick(), offset(), width(), any::<u64>())
            .prop_map(|(f, o, w, v)| Op::Write(f, o, w, v)),
        1 => (pick(), offset(), any::<u8>()).prop_map(|(f, o, b)| Op::WriteByte(f, o, b)),
        3 => (pick(), pick()).prop_map(|(s, d)| Op::Copy(s, d)),
        1 => pick().prop_map(Op::FrameBytes),
    ]
}

/// The reference: every allocated frame is 4 KiB of bytes, zeroed when
/// allocated, and freed slots are recycled last-in first-out.
#[derive(Default)]
struct Model {
    frames: Vec<Option<Vec<u8>>>,
    free: Vec<FrameId>,
    peak: usize,
    /// Live frames written since their allocation, or copied from one.
    written: HashSet<FrameId>,
}

impl Model {
    fn live(&self) -> Vec<FrameId> {
        (0..self.frames.len() as u32)
            .map(FrameId)
            .filter(|id| self.frames[id.index()].is_some())
            .collect()
    }

    fn pick(&self, i: usize) -> Option<FrameId> {
        let live = self.live();
        (!live.is_empty()).then(|| live[i % live.len()])
    }

    fn bytes(&mut self, id: FrameId) -> &mut Vec<u8> {
        self.frames[id.index()]
            .as_mut()
            .expect("model frame is live")
    }

    fn alloc(&mut self) -> FrameId {
        let id = self.free.pop().unwrap_or(FrameId(self.frames.len() as u32));
        if id.index() == self.frames.len() {
            self.frames.push(None);
        }
        self.frames[id.index()] = Some(vec![0; FRAME_SIZE as usize]);
        self.peak = self.peak.max(self.live().len());
        id
    }
}

/// Clamps `off` so that a `width` access at it stays in its frame.
fn clamp(off: u64, width: Width) -> u64 {
    off.min(FRAME_SIZE - width.bytes())
}

fn le_value(bytes: &[u8], off: u64, width: Width) -> u64 {
    let mut buf = [0u8; 8];
    let n = width.bytes() as usize;
    buf[..n].copy_from_slice(&bytes[off as usize..off as usize + n]);
    u64::from_le_bytes(buf)
}

proptest! {
    #[test]
    fn lazy_frames_behave_like_zero_filled_frames(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        let mut pm = PhysMem::new();
        let mut model = Model::default();
        for &op in &ops {
            match op {
                Op::Alloc => prop_assert_eq!(pm.alloc_frame(), model.alloc()),
                Op::AllocContiguous(n) => {
                    let first = pm.alloc_contiguous(n);
                    prop_assert_eq!(first, FrameId(model.frames.len() as u32));
                    for _ in 0..n {
                        model.frames.push(Some(vec![0; FRAME_SIZE as usize]));
                    }
                    model.peak = model.peak.max(model.live().len());
                }
                Op::Free(i) => {
                    let Some(id) = model.pick(i) else { continue };
                    pm.free_frame(id);
                    model.frames[id.index()] = None;
                    model.free.push(id);
                    model.written.remove(&id);
                }
                Op::Read(i, off, width) => {
                    let Some(id) = model.pick(i) else { continue };
                    let off = clamp(off, width);
                    let want = le_value(model.bytes(id), off, width);
                    prop_assert_eq!(pm.read(id.base().offset(off), width), want, "{:?}", op);
                }
                Op::Write(i, off, width, value) => {
                    let Some(id) = model.pick(i) else { continue };
                    let off = clamp(off, width);
                    pm.write(id.base().offset(off), width, value);
                    let n = width.bytes() as usize;
                    model.bytes(id)[off as usize..off as usize + n]
                        .copy_from_slice(&value.to_le_bytes()[..n]);
                    model.written.insert(id);
                }
                Op::WriteByte(i, off, byte) => {
                    let Some(id) = model.pick(i) else { continue };
                    pm.write_byte(id.base().offset(off), byte);
                    model.bytes(id)[off as usize] = byte;
                    model.written.insert(id);
                }
                Op::Copy(s, d) => {
                    let (Some(src), Some(dst)) = (model.pick(s), model.pick(d)) else {
                        continue;
                    };
                    pm.copy_frame(src, dst);
                    let data = model.bytes(src).clone();
                    *model.bytes(dst) = data;
                    if model.written.contains(&src) {
                        model.written.insert(dst);
                    } else {
                        model.written.remove(&dst);
                    }
                }
                Op::FrameBytes(i) => {
                    let Some(id) = model.pick(i) else { continue };
                    let want = model.bytes(id).clone();
                    match pm.frame_bytes(id) {
                        Some(bytes) => prop_assert_eq!(&bytes[..], &want[..]),
                        None => prop_assert!(want.iter().all(|&b| b == 0), "{:?}", op),
                    }
                }
            }
            prop_assert_eq!(pm.allocated_frames(), model.live().len());
            prop_assert_eq!(pm.peak_allocated_frames(), model.peak);
            prop_assert!(
                pm.stored_frames() <= model.written.len(),
                "{} frames hold storage but {} were written",
                pm.stored_frames(),
                model.written.len()
            );
        }
        for id in model.live() {
            let want = model.bytes(id).clone();
            for off in (0..FRAME_SIZE).step_by(8) {
                prop_assert_eq!(pm.read(id.base().offset(off), Width::W8), le_value(&want, off, Width::W8));
            }
        }
    }
}

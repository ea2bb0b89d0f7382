//! Loop-invariant code motion, above `Tier::Optimizing`, on the compacted
//! stream the mid-end's walk left. A loop is a backward-branch target (its
//! *header*) up to its last back-edge. An innermost one (holding no other
//! header) with no call, whose header no forward branch enters and is
//! entered from a falling-through op, gets the moved ops right after that
//! op (its *preheader*); outer loops run rarely.
//!
//! An op moves when its row is `pure` with [`Flow::Next`] (no load, trapping
//! div/rem or truncation), its fields are one slot wide, none both read and
//! written, each register it reads is written nowhere in the loop (fields
//! and unwind copies) or last by a moved op with no branch target between,
//! and its result is a local the loop writes nowhere else and no path from
//! the header reads first (which keeps the value; the in-loop op goes) or a
//! temporary the liveness table finds dead at the header. A `global.get`
//! stays if the loop sets that global, a `memory.size` if it grows memory.
//! The op only moves: into the preheader as it is, a `Copy` of its result
//! into a scratch local after it, its in-loop op becoming a `Copy` back.
//! The mid-end's walk does the rest: a sweep deletes the in-loop `Copy`s
//! nothing reads (their values need no scratch local), and [`peephole`]
//! forwards the others into their readers and sinks each preheader op into
//! its scratch local. A value the next op reads and runs with as one step
//! anyway (`closures::fused`) is not worth a frame slot and stays; equal
//! constants share one. A zero-trip loop leaves no trace; no trap moves.

use super::forward::{
    branch_targets, live_in, peephole, reads_reg, rebuild, renumber, span, sweep, unread, walk_run, Run, Scratch,
};
use super::shape::{dests, fields, writes, Flow, R, W, WIDE};
use super::{rop, unwind_parts, Rc, RegFunc, RegOp, MAX_REG};
use crate::closures;

/// What becomes of a loop's op: it stays, moves as its local's own value, or moves leaving a `Copy`.
#[derive(Clone, Copy, PartialEq)]
enum Move {
    Stay,
    Own,
    Copy,
}

/// The buffers of a function's loops (and of a thread's functions, in
/// [`Scratch`]); `moved` holds (header, index, the op as it was).
#[derive(Default)]
pub(super) struct Work {
    moves: Vec<Move>,
    loops: Vec<(usize, usize)>,
    moved: Vec<(usize, usize, RegOp)>,
    inserts: Vec<(usize, RegOp, u32)>,
    pre: Run,
    /// Per register: how often the loop writes it, and the op that last did
    /// since the last branch target (one keeping a moved value: ever since).
    regs: Vec<(u8, Option<usize>)>,
    globals: Vec<u32>,
    consts: Vec<((usize, u64), u32)>,
    path: (Vec<bool>, Vec<usize>),
}

/// Move the invariant ops of every innermost loop of `f` (compacted; its
/// liveness table in `s.live`) to the preheaders, in one rebuild.
pub(super) fn hoist(f: &mut RegFunc, hs: &mut Vec<u32>, s: &mut Scratch) {
    branch_targets(f, &mut s.ends, &mut s.marks);
    let Scratch { ends, marks, live, spare, work: w, .. } = s;
    let (h0, fs) = (f.n_local_slots, f.frame_size);
    w.moves.clear();
    w.moves.resize(f.code.len(), Move::Stay);
    w.loops.clear();
    w.moved.clear();
    w.consts.clear();
    for h in 0..f.code.len() {
        let innermost = ends[h] != 0 && ends[h + 1..ends[h]].iter().all(|&e| e == 0);
        if innermost && invariants(f, hs, marks, live, h..ends[h], w) {
            w.loops.push((h, ends[h]));
        }
    }
    if w.loops.is_empty() || fs.saturating_add(w.moved.len() as u32) > MAX_REG {
        return;
    }
    // Rewrite each loop where it stands, the last first (a sweep takes the
    // table past it as it stands); a `Copy` reads `frame_size` for now.
    for &(h, e) in w.loops.iter().rev() {
        for j in (h..e).filter(|&j| w.moves[j] != Move::Stay) {
            let own = w.moves[j] == Move::Own;
            f.code[j] = if own { rop(Rc::Nop, 0, 0, 0, 0, 0) } else { rop(Rc::Copy, fs, 0, f.code[j].c, 0, 0) };
        }
        sweep(f, hs, live, h..e, |_, op, out| op.code == Rc::Copy && op.a == fs && unread(h0, op, out));
    }
    // The preheaders: each moved op and, after one whose in-loop `Copy` is
    // left, a `Copy` into the scratch local (`frame_size + k`, virtual until
    // numbered) that the in-loop one reads.
    let (mut inserts, mut n) = (std::mem::take(&mut w.inserts), 0);
    inserts.clear();
    for &(h, j, op) in &w.moved {
        inserts.push((h - 1, op, hs[j]));
        if f.code[j].code != Rc::Copy {
            continue;
        }
        let shared = w.consts.iter().find(|c| op.code == Rc::Const && c.0 == (h, op.imm)).map(|c| c.1);
        f.code[j].a = fs + shared.unwrap_or(n);
        if shared.is_none() {
            w.consts.extend((op.code == Rc::Const).then_some(((h, op.imm), n)));
            inserts.push((h - 1, rop(Rc::Copy, op.c, 0, fs + n, 0, 0), hs[j]));
            n += 1;
        }
    }
    if n > 0 {
        renumber(f, n, &(h0..h0 + n).collect::<Vec<_>>(), inserts.iter_mut().map(|(_, op, _)| op));
    }
    // The walk over each loop where it stands, then over its preheader.
    for &(h, e) in &w.loops {
        peephole(f, hs, marks, live, true, h..e);
        let run = inserts.partition_point(|i| i.0 < h - 1)..inserts.partition_point(|i| i.0 < h);
        walk_run(f, &mut inserts[run], live[h], &mut w.pre);
    }
    inserts.retain(|i| i.1.code != Rc::Nop);
    rebuild(f, hs, live, &inserts, spare);
    w.inserts = inserts;
}

/// One walk over the loop `lp`: what becomes of each op (into `w.moves`),
/// and the ops that move (into `w.moved`). False if none does.
fn invariants(f: &RegFunc, hs: &[u32], marks: &[u8], live: &[u64], lp: std::ops::Range<usize>, w: &mut Work) -> bool {
    let (h, body) = (lp.start, &f.code[lp.clone()]);
    if h == 0 || marks[h] & 1 != 0 || !f.code[h - 1].code.row().flow.falls_through() || hs[h] == u32::MAX {
        return false;
    }
    let Work { moves, moved, regs, globals, path, .. } = w;
    regs.clear();
    regs.resize(f.frame_size as usize, (0, None));
    globals.clear();
    // How often the loop writes each register; the globals it sets;
    // whether it grows memory. A loop that calls keeps everything.
    let mut grows = false;
    for op in body {
        if op.code.row().flow == Flow::Call {
            return false;
        }
        let copies = dests(f, op).filter(|d| d.unwind != 0).map(|d| unwind_parts(d.unwind));
        for (r, n) in writes(op).into_iter().chain(copies.map(|(_, dst, n)| (dst as u32, n as u32))) {
            regs.iter_mut().skip(r as usize).take(n as usize).for_each(|g| g.0 = g.0.saturating_add(1));
        }
        globals.extend((op.code == Rc::GlobalSet).then_some(op.a));
        grows |= op.code == Rc::MemGrow;
    }
    let h0 = f.n_local_slots;
    let dead = |r: u32| r >= h0 && (r - h0 >= hs[h] || span(h0, r, 1) & !live[h] != 0);
    for (j, op) in (h..).zip(body) {
        if marks[j] != 0 {
            regs.iter_mut().filter(|g| g.1.is_some_and(|d| moves[d] != Move::Own)).for_each(|g| g.1 = None);
        }
        let row = op.code.row();
        let mut invariant = row.pure
            && row.flow == Flow::Next
            && op.code != Rc::Nop
            && row.fields.iter().all(|&u| u & WIDE == 0 && u & (R | W) != R | W)
            && !(op.code == Rc::GlobalGet && globals.contains(&op.a))
            && !(op.code == Rc::MemSize && grows);
        for (r, _) in fields(op).into_iter().filter(|&(_, u)| u & R != 0) {
            invariant &= match regs.get(r as usize) {
                Some(&(written, None)) => written == 0,
                Some(&(_, Some(def))) => moves[def] != Move::Stay,
                None => false,
            };
        }
        let written = writes(op);
        moves[j] = match written {
            Some((r, _)) if invariant && r < h0 && regs[r as usize].0 == 1 && !live_in(f, h, r, path) => Move::Own,
            Some((r, _)) if invariant && dead(r) => Move::Copy,
            _ => Move::Stay,
        };
        // A value the next op reads and runs with as one step stays.
        let p = f.code[j - 1];
        if moves[j] == Move::Stay && j > h && moves[j - 1] == Move::Copy && reads_reg(op, f, p.c) && closures::fused(p, *op) {
            moves[j - 1] = Move::Stay;
        }
        let n = regs.len() as u32;
        written.into_iter().flat_map(|(r, w)| r..(r + w).min(n)).for_each(|r| regs[r as usize].1 = Some(j));
    }
    let before = moved.len();
    moved.extend(lp.filter(|&j| moves[j] != Move::Stay).map(|j| (h, j, f.code[j])));
    moved.len() > before
}

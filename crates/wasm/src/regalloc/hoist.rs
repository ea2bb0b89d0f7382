//! Loop-invariant code motion, above `Tier::Optimizing`, on the stream the
//! eliminate / peephole fixpoint left. A loop is a backward-branch target
//! (its *header*) up to its last back-edge; one that holds no other loop's
//! header and no call, whose header no forward branch enters and is
//! entered from a falling-through op, gets the hoisted ops right after
//! that op (its *preheader*). Outer loops are left alone: their bodies run
//! rarely, and walking them again costs compile time on every module.
//!
//! An op moves when its row is `pure` with [`Flow::Next`] (never a load, a
//! trapping div/rem or a truncation), its fields are one slot wide, none
//! both read and written, and each register it reads is written nowhere in
//! the loop (fields and unwind copies), is a local hoisted as its own home,
//! or was last written by a hoisted op with no branch target in between.
//! A `global.get` stays if the loop sets that global, a `memory.size` if it
//! grows memory. The value ([`Home`]) stays in its own local if the loop
//! writes that nowhere else and no path from the header reads it first (the
//! in-loop op goes), in its own temporary if only hoisted ops read it, else
//! in a scratch local (equal constants share one) that the in-loop op
//! becomes a `Copy` from. The loop's readers of the value then read the
//! scratch local — except through a field they also write (`Select`'s
//! first operand, `Fma64`'s addend), which would overwrite it — and the
//! `Copy` goes once nothing reads it. A value whose one reader is the next
//! op, run with it as one step anyway (`closures::fused`), is not worth a
//! frame slot. A zero-trip loop leaves no trace; no trap moves.

use super::forward::{
    branch_targets, definitely_writes, reads_reg, rebuild, renumber, span, sweep, Scratch,
};
use super::shape::{dests, fields, targets, writes, Flow, R, W, WIDE};
use super::{rop, unwind_parts, Rc, RegFunc, RegOp, MAX_REG};
use crate::closures;

/// Where a hoisted op's value lives from the preheader on.
#[derive(Clone, Copy, PartialEq)]
enum Home {
    /// Not hoisted.
    Stay,
    /// Its own destination, a local: the in-loop op goes.
    Own,
    /// Its own destination, a temporary: the in-loop op dies with its readers.
    Temp,
    /// Scratch local `k` (register `frame_size + k` until numbered).
    Scratch(u32),
}

/// Not yet numbered.
const WANTS_SCRATCH: Home = Home::Scratch(u32::MAX);
/// No op; several ops.
const NO: usize = usize::MAX;
const MANY: usize = usize::MAX - 1;

/// What the walk over a loop finds out about one of its ops.
#[derive(Clone, Copy)]
struct Op {
    home: Home,
    /// Some hoisted op reads its value.
    by_hoisted: bool,
    /// The staying op that reads its value (`NO`, `MANY`).
    by_stay: usize,
    /// An equal constant before it holds its scratch local: not emitted.
    shared: bool,
}

/// What that walk finds out about one register.
#[derive(Clone, Copy)]
struct Reg {
    /// How often the loop writes it (fields and unwind copies).
    written: u8,
    /// The op that last wrote it since the last branch target.
    last: usize,
    /// A local hoisted as its own home.
    own: bool,
}

/// Op `reader` of the loop reads the value of op `def` through a field.
struct Read {
    reader: usize,
    field: usize,
    def: usize,
}

/// The buffers the loops of a function share (and the functions of a
/// thread, in [`Scratch`]).
#[derive(Default)]
pub(super) struct Work {
    /// The stream as it came, and the preheaders to insert into it.
    orig: Vec<RegOp>,
    inserts: Vec<(usize, RegOp)>,
    ops: Vec<Op>,
    regs: Vec<Reg>,
    reads: Vec<Read>,
    touched: Vec<u32>,
    globals: Vec<u32>,
    consts: Vec<(u64, u32)>,
    /// Per temporary below the header's entry height: live there?
    live_below: Vec<Option<bool>>,
    /// [`live_in`]'s walk.
    seen: Vec<bool>,
    stack: Vec<usize>,
}

/// Hoist the invariant ops of every innermost loop (one that holds no
/// other loop's header), all in one rebuild of the stream. `s.live` is the
/// liveness table of `f`.
pub(super) fn hoist(f: &mut RegFunc, hs: &mut Vec<u32>, s: &mut Scratch) {
    branch_targets(f, &mut s.ends, &mut s.marks);
    let Scratch { ends, marks, live, spare, work: w, .. } = s;
    let innermost = |&h: &usize| ends[h] != 0 && ends[h + 1..ends[h]].iter().all(|&e| e == 0);
    let mut loops = (0..f.code.len()).filter(innermost).peekable();
    if loops.peek().is_none() {
        return;
    }
    // Each loop is judged on the stream as it came (its v128 constants
    // aside, which nothing here reads): what a loop before it reads stays
    // where a liveness walk finds it, and the table is swept again over
    // each loop as it is rewritten.
    let code = std::mem::take(&mut w.orig);
    let mut orig = RegFunc { code, dest_pool: f.dest_pool.clone(), v128_pool: Vec::new(), ..*f };
    orig.code.clone_from(&f.code);
    let (mut inserts, mut scratch) = (std::mem::take(&mut w.inserts), 0);
    inserts.clear();
    for h in loops {
        hoist_loop(&orig, f, hs, marks, h..ends[h], live, w, &mut inserts, &mut scratch);
    }
    (w.orig, w.inserts) = (orig.code, inserts);
    if w.inserts.is_empty() {
        return;
    }
    rebuild(f, hs, &w.inserts, spare);
    if scratch == 0 {
        return;
    }
    let virt: Vec<u32> = (f.n_local_slots..f.n_local_slots + scratch).collect();
    renumber(f, scratch, &virt);
    f.n_local_slots += scratch;
    f.scratch_slots += scratch;
    f.frame_size += scratch;
}

/// Whether some path from op `from`, over every edge, reads register `r`
/// before overwriting it.
fn live_in(f: &RegFunc, from: usize, r: u32, seen: &mut Vec<bool>, stack: &mut Vec<usize>) -> bool {
    seen.clear();
    seen.resize(f.code.len(), false);
    stack.clear();
    stack.push(from);
    while let Some(j) = stack.pop() {
        let Some(op) = f.code.get(j) else { continue };
        if std::mem::replace(&mut seen[j], true) {
            continue;
        }
        if reads_reg(op, f, r) {
            return true;
        }
        if !definitely_writes(op, r) {
            stack.extend(targets(f, op).map(|t| t as usize));
            stack.extend(op.code.row().flow.falls_through().then_some(j + 1));
        }
    }
    false
}

/// Hoist what is invariant in `lp` of `orig`: rewrite the loop in `f` and
/// add its preheader to `inserts`, numbering new scratch locals from
/// `scratch`.
#[allow(clippy::too_many_arguments)]
fn hoist_loop(
    orig: &RegFunc,
    f: &mut RegFunc,
    hs: &[u32],
    marks: &[u8],
    lp: std::ops::Range<usize>,
    live: &mut Vec<u64>,
    w: &mut Work,
    inserts: &mut Vec<(usize, RegOp)>,
    scratch: &mut u32,
) {
    let (h, body) = (lp.start, &orig.code[lp.clone()]);
    if h == 0
        || marks[h] & 1 != 0
        || !orig.code[h - 1].code.row().flow.falls_through()
        || hs[h] == u32::MAX
        || body.iter().any(|op| op.code.row().flow == Flow::Call)
    {
        return;
    }
    if !invariants(orig, h, body, marks, w) {
        return;
    }
    let (h0, fs) = (f.n_local_slots, f.frame_size);
    let Work { ops, reads, consts, live_below, seen, stack, .. } = w;
    // A temporary dead at the header: above its entry height (a fused
    // header op carries the height of the compare it swallowed), or
    // overwritten before any read (walked once per temporary). The walk
    // ignores heights, as the table does not: the table would find more
    // temporaries dead here, past a call's open argument window.
    live_below.clear();
    live_below.resize(hs[h] as usize, None);
    let mut dead_temp = |r: u32| {
        r >= h0
            && match live_below.get_mut((r - h0) as usize) {
                Some(live) => !*live.get_or_insert_with(|| live_in(orig, h, r, seen, stack)),
                None => true,
            }
    };

    // Decide from the last op back, so that every reader of a value is
    // decided before it.
    let mut next = reads.len();
    for k in (0..body.len()).rev() {
        let op = ops[k];
        if op.home == Home::Temp {
            let dead = dead_temp(body[k].c);
            let fused = op.by_stay == k + 1 && closures::fused(body[k], body[k + 1]);
            ops[k].home = match (op.by_hoisted, op.by_stay) {
                (true, NO) if dead => Home::Temp,
                (true, _) => WANTS_SCRATCH,
                (false, r) if r != NO && dead && !fused => WANTS_SCRATCH,
                _ => Home::Stay,
            };
        }
        while next > 0 && reads[next - 1].reader == k {
            next -= 1;
            let (stays, d) = (ops[k].home == Home::Stay, &mut ops[reads[next].def]);
            if !stays {
                d.by_hoisted = true;
            } else {
                d.by_stay = if d.by_stay == NO || d.by_stay == k { k } else { MANY };
            }
        }
    }

    // Number the scratch locals; equal constants share one.
    consts.clear();
    let first = *scratch;
    let mut any = false;
    for (o, op) in ops.iter_mut().zip(body) {
        any |= o.home != Home::Stay;
        if o.home != WANTS_SCRATCH {
            continue;
        }
        let konst = op.code == Rc::Const;
        let shared = consts.iter().find(|c| konst && c.0 == op.imm).map(|c| c.1);
        if shared.is_none() {
            consts.extend(konst.then_some((op.imm, *scratch)));
            *scratch += 1;
        }
        o.shared = shared.is_some();
        o.home = Home::Scratch(shared.unwrap_or(*scratch - 1));
    }
    if !any || fs.saturating_add(*scratch) > MAX_REG {
        *scratch = first;
        return;
    }

    // The preheader reads and writes the homes, and the loop's readers of
    // a value in a scratch local read that (it holds what the temporary
    // does); the in-loop op of a value in its own local goes, one in a
    // scratch local copies from it.
    let reg = |k: usize, r: u32| match ops[k].home {
        Home::Scratch(s) => fs + s,
        _ => r,
    };
    let mut reads = reads.iter().peekable();
    for (k, &op) in body.iter().enumerate() {
        let home = ops[k].home;
        let mut moved = RegOp { c: reg(k, op.c), ..op };
        while let Some(rd) = reads.next_if(|rd| rd.reader == k) {
            let at = if home == Home::Stay { &mut f.code[h + k] } else { &mut moved };
            let field = [&mut at.a, &mut at.b, &mut at.c].into_iter().nth(rd.field).unwrap();
            *field = reg(rd.def, *field);
        }
        if home == Home::Stay {
            continue;
        } else if !ops[k].shared {
            inserts.push((h - 1, moved));
        }
        match home {
            Home::Own => f.code[h + k] = rop(Rc::Nop, 0, 0, 0, 0, 0),
            Home::Scratch(_) => f.code[h + k] = rop(Rc::Copy, reg(k, op.c), 0, op.c, 0, 0),
            _ => {}
        }
    }
    // What the loop left of a hoisted temporary goes once nothing reads it
    // (last first, so that a chain goes at once).
    sweep(f, hs, live, lp, |j, _, out| {
        let hoisted = matches!(ops[j - h].home, Home::Temp | Home::Scratch(_));
        hoisted && span(h0, body[j - h].c, 1) & !out != 0
    });
}

/// One walk over the loop `body` from header `h` into `w`: which ops are
/// invariant (`Home::Own` where a local can be its own home, else
/// `Home::Temp` until a home is found), and each read of a hoisted value,
/// in reader order. False if no op is.
fn invariants(f: &RegFunc, h: usize, body: &[RegOp], marks: &[u8], w: &mut Work) -> bool {
    let Work { ops, regs, reads, touched, globals, seen, stack, .. } = w;
    let stay = Op { home: Home::Stay, by_hoisted: false, by_stay: NO, shared: false };
    ops.clear();
    ops.resize(body.len(), stay);
    regs.clear();
    regs.resize(f.frame_size as usize, Reg { written: 0, last: NO, own: false });
    reads.clear();
    touched.clear();
    globals.clear();
    // How often the loop writes each register; the globals it sets;
    // whether it grows memory.
    let mut grows = false;
    for op in body {
        let copies = dests(f, op).filter(|d| d.unwind != 0).map(|d| unwind_parts(d.unwind));
        let copies = copies.map(|(_, dst, n)| (dst as u32, n as u32));
        for (r, n) in writes(op).into_iter().chain(copies) {
            for g in regs.iter_mut().skip(r as usize).take(n as usize) {
                g.written = g.written.saturating_add(1);
            }
        }
        globals.extend((op.code == Rc::GlobalSet).then_some(op.a));
        grows |= op.code == Rc::MemGrow;
    }
    let mut any = false;
    for (k, op) in body.iter().enumerate() {
        if marks[h + k] != 0 {
            touched.drain(..).for_each(|r| regs[r as usize].last = NO);
        }
        let row = op.code.row();
        let mut invariant = row.pure
            && row.flow == Flow::Next
            && op.code != Rc::Nop
            && row.fields.iter().all(|&u| u & WIDE == 0 && u & (R | W) != R | W)
            && !(op.code == Rc::GlobalGet && globals.contains(&op.a))
            && !(op.code == Rc::MemSize && grows);
        for (field, (r, u)) in fields(op).into_iter().enumerate() {
            let g = regs.get(r as usize).copied();
            let def = g.map_or(NO, |g| g.last);
            // A field the op also writes stays on the in-loop register:
            // pointed at a home, it would overwrite the hoisted value.
            if u & R == 0 {
                continue;
            } else if def != NO && ops[def].home != Home::Stay && u & W == 0 {
                reads.push(Read { reader: k, field, def });
            } else if def != NO || !g.is_some_and(|g| g.own || g.written == 0) {
                invariant = false;
            }
        }
        if let (true, Some((r, _))) = (invariant, writes(op)) {
            let alone = r < f.n_local_slots
                && regs[r as usize].written == 1
                && !live_in(f, h, r, seen, stack);
            regs[r as usize].own |= alone;
            ops[k].home = if alone { Home::Own } else { Home::Temp };
            any = true;
        }
        let n = regs.len() as u32;
        for r in writes(op).into_iter().flat_map(|(r, w)| r..(r + w).min(n)) {
            regs[r as usize].last = k;
            touched.push(r);
        }
    }
    any
}

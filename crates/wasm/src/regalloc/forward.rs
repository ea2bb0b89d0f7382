//! The register mid-end: the liveness table over the heights oracle, the
//! value-tracking pass, scratch-local materialization, dead-result
//! elimination, the register peephole and stream compaction.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::ir::Cmp;

use super::shape::{dests, fields, targets, unwinds, width, writes, Class, Flow, R, W, WIDE};
use super::{pack_unwind, rop, unwind_parts, Rc, RegFunc, RegOp, MAX_REG};

/// True if executing `op` reads register `t` (exact: the register fields
/// plus branch unwind source ranges, return result ranges, and a
/// conservative open range for call arguments).
pub(super) fn reads_reg(op: &RegOp, f: &RegFunc, t: u32) -> bool {
    let range = |s: u32, n: u32| t.wrapping_sub(s) < n;
    let sh = op.code.row().fields;
    (sh[0] & R != 0 && range(op.a, width(sh[0])))
        || (sh[1] & R != 0 && range(op.b, width(sh[1])))
        || (sh[2] & R != 0 && range(op.c, width(sh[2])))
        || control_reads(op, f, t)
}

/// True if taking `op`'s control transfer reads register `t`: a branch's
/// unwind source ranges, a return's results, a call's argument window.
fn control_reads(op: &RegOp, f: &RegFunc, t: u32) -> bool {
    let range = |s: u32, n: u32| t.wrapping_sub(s) < n;
    match op.code.row().flow {
        Flow::Next => false,
        Flow::Return => range(op.a, f.result_slots),
        // Calls consume their argument window; its width depends on the
        // callee, so treat everything at or above the window as read.
        Flow::Call => t >= op.b,
        _ => unwinds(f, op).any(|imm| {
            let (src, _, arity) = unwind_parts(imm);
            range(src as u32, arity as u32)
        }),
    }
}

/// True if `op` writes register `t` through a field. (A `Select` writes
/// its destination only maybe, but reads it too: every walk that asks
/// this asks [`reads_reg`] first.)
pub(super) fn writes_reg(op: &RegOp, t: u32) -> bool {
    writes(op).is_some_and(|(s, w)| s <= t && t < s + w)
}

// --- liveness ---

/// The first `k` temporaries, as the bits of a liveness word: bit `k` is
/// register `n_local_slots + k`.
fn below(k: u32) -> u64 {
    if k >= 64 { !0 } else { (1 << k) - 1 }
}

/// The temporaries among registers `[s, s + n)` of a function whose
/// locals end at `h0`. Only the first 64 temporaries have a bit: every
/// later one counts as always live, the one limit of the table.
pub(super) fn span(h0: u32, s: u32, n: u32) -> u64 {
    below(s.saturating_add(n).saturating_sub(h0)) & !below(s.saturating_sub(h0))
}

/// The heights oracle: at an op entered at height `h`, every register
/// `>= n_local_slots + h` is dead (the operand stack has popped below
/// it; a later value there is a fresh definition). All are possibly live
/// at an unknown height.
fn height(hs: &[u32], j: u32) -> u64 {
    match hs.get(j as usize) {
        Some(&h) if h != u32::MAX => below(h),
        _ => !0,
    }
}

/// The temporaries `op` reads ([`reads_reg`] as a word) and those it
/// writes. A `Select`, which writes its destination only maybe, reads it
/// too, so the write never kills a value the table has.
fn effect(f: &RegFunc, op: &RegOp) -> (u64, u64) {
    let h0 = f.n_local_slots;
    let (mut read, mut kill) = (0, 0);
    for (r, u) in fields(op) {
        // The field's temporaries: `span` for a width of 1 or 2.
        let k = r.wrapping_sub(h0);
        let bits = if k < 64 { (1 + (u & WIDE != 0) as u64 * 2) << k } else { 0 };
        read |= if u & R != 0 { bits } else { 0 };
        kill |= if u & W != 0 { bits } else { 0 };
    }
    read |= match op.code.row().flow {
        Flow::Next => 0,
        Flow::Return => span(h0, op.a, f.result_slots),
        Flow::Call => span(h0, op.b, u32::MAX),
        _ => unwinds(f, op).fold(0, |m, imm| {
            let (src, _, arity) = unwind_parts(imm);
            m | span(h0, src as u32, arity as u32)
        }),
    };
    (read, kill)
}

/// What is possibly live once op `j` is done, from where control goes
/// next: the table at a forward target or the next op, the heights
/// oracle at a backward or `br_table` target (the entry height of a
/// forward target says little once the ops that began its block are gone).
fn after(f: &RegFunc, hs: &[u32], live: &[u64], j: usize) -> u64 {
    let op = &f.code[j];
    let to = |t: u32| match t as usize > j {
        true => live.get(t as usize).copied().unwrap_or(!0),
        false => height(hs, t),
    };
    match op.code.row().flow {
        Flow::Jump | Flow::Br => to(op.c),
        Flow::Branch => to(op.c) | live[j + 1],
        Flow::Table => targets(f, op).fold(0, |m, t| m | height(hs, t)),
        Flow::Return | Flow::Trap => 0,
        Flow::Next | Flow::Guard | Flow::Call => live[j + 1],
    }
}

/// Whether the value op `at` leaves in register `t` is possibly read: a
/// local's always, a temporary's per the table.
pub(super) fn live_after(f: &RegFunc, live: &[u64], at: usize, t: u32) -> bool {
    let bit = span(f.n_local_slots, t, 1);
    bit == 0 || live[at + 1] & bit != 0
}

/// The liveness table, one backward sweep over the ops in `ops`: `live[j]`
/// holds the temporaries possibly read, before anything overwrites them,
/// once control enters op `j`, and `live[len]` (falling off the end) all of
/// them. An op's own reads count before the heights oracle (fusion moves a
/// read below the height its operand was born at), and past `ops` the
/// table is taken as it stands. `dead` is asked, before an op's entry is
/// made, whether the op goes (becomes a `Nop`), given what is live after
/// it. Returns true if one did.
pub(super) fn sweep(
    f: &mut RegFunc,
    hs: &[u32],
    live: &mut Vec<u64>,
    ops: std::ops::Range<usize>,
    mut dead: impl FnMut(usize, &RegOp, u64) -> bool,
) -> bool {
    // A table made for an earlier stream is written before it is read.
    live.resize(f.code.len() + 1, !0);
    live[f.code.len()] = !0;
    let mut changed = false;
    for j in ops.rev() {
        let op = f.code[j];
        let out = match op.code.row().flow {
            Flow::Next => live[j + 1],
            _ => after(f, hs, live, j),
        };
        let entry = height(hs, j as u32);
        live[j] = if dead(j, &op, out) {
            f.code[j] = rop(Rc::Nop, 0, 0, 0, 0, 0);
            changed = true;
            entry & out
        } else {
            let (read, kill) = effect(f, &op);
            read | entry & !kill & out
        };
    }
    changed
}

// --- value tracking ---

/// A value number: an index into [`Values::values`]. Two registers with
/// the same number hold bit-identical slots. `NONE` = nothing is known
/// (a fresh opaque number is minted when the register is first read).
type Vn = u32;
const NONE: Vn = 0;

/// What a value number stands for. Operands are value numbers, not
/// registers, so an expression stays valid when its source registers are
/// overwritten; what can go stale is only *where* a value lives.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Expr {
    /// An unknown but fixed value: a register's content where it was
    /// first read. Never interned.
    Opaque,
    Const(u64),
    /// `from_i32(base.i32() * mul + add)`, wrapping; `base` is neither
    /// `Aff` nor `Const` and `mul != 0`.
    Aff { base: Vn, mul: u32, add: u32 },
    /// `from_bool(cmp(x.i32(), k as i32))` over the [`Cmp`] byte codes.
    CmpK { x: Vn, cmp: u8, k: u32 },
    /// Any other pure integer op of one register; `imm` is its immediate.
    Un { code: Rc, aux: u8, imm: u64, a: Vn },
    /// A pure integer op of two registers (commutative ones sorted).
    Bin { code: Rc, aux: u8, a: Vn, b: Vn },
}

/// Virtual scratch slots tracked beyond the frame by [`forward`]: a value
/// computed into a stack temporary is also recorded in one of these, and
/// a slot becomes a real scratch local ([`materialize`]) only if a later
/// op that recomputes the value while the slot still holds it on every
/// path has a result something reads. A slot keeps one value from one
/// reset to the next (when the pool is full, later values simply get
/// none), so the pool bounds the abstract state, not the function.
const POOL: u32 = 64;

/// One thing [`forward`] did with a virtual slot: op `at` involved `slot`
/// while it held `value`.
#[derive(Clone, Copy)]
struct SlotRef {
    at: u32,
    slot: u32,
    value: Vn,
}

/// What [`forward`] did with the virtual slots, for [`materialize`]:
/// every op whose result a slot was assigned (`defs`), every op rewritten
/// to copy from a slot (`hits`), and every read of a stack temporary made
/// while a slot held the same value (`uses`, with the index of the field
/// and the temporary it named).
#[derive(Default)]
pub(super) struct Slots {
    defs: Vec<SlotRef>,
    hits: Vec<SlotRef>,
    uses: Vec<(SlotRef, usize, u32)>,
}

/// The hasher of the expression index: multiply-and-fold over the
/// integers an [`Expr`] is made of (FxHash-style). The index is consulted
/// for every integer op of every function: SipHash there adds 4.6 ms to
/// the 63 ms the benchmark's 650-KB module takes to compile.
#[derive(Default)]
struct Mix(u64);

impl Mix {
    #[inline]
    fn add(&mut self, v: u64) {
        let x = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 29);
    }
}

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b as u64));
    }
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64)
    }
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64)
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v)
    }
    fn write_isize(&mut self, v: isize) {
        self.add(v as u64)
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One numbered value: what it stands for, whether it is known to be 0
/// or 1, and a local, scratch or virtual slot that held it when last seen
/// (`u32::MAX` = none) — a hint, validated against `Values::val` on use.
struct Value {
    expr: Expr,
    is_bool: bool,
    home: u32,
}

/// The value table plus the abstract register state of [`forward`].
#[derive(Default)]
struct Values {
    values: Vec<Value>,
    /// Expression → number.
    index: HashMap<Expr, Vn, BuildHasherDefault<Mix>>,
    /// Current number of each frame register, then of each virtual slot.
    val: Vec<Vn>,
    /// Registers below this are locals (always safe to read); the virtual
    /// slots start at `frame`.
    locals: u32,
    frame: u32,
}

impl Values {
    /// Empty for `f`, keeping what the buffers hold from earlier functions.
    fn clear(&mut self, f: &RegFunc, pool: u32) {
        self.values.clear();
        self.values.reserve(f.code.len() + f.n_local_slots as usize + 1);
        self.index.clear();
        self.val.clear();
        self.val.resize((f.frame_size + pool) as usize, NONE);
        (self.locals, self.frame) = (f.n_local_slots, f.frame_size);
        self.opaque(); // number 0 is `NONE`
    }

    fn expr(&self, v: Vn) -> Expr {
        self.values[v as usize].expr
    }

    fn is_bool(&self, v: Vn) -> bool {
        self.values[v as usize].is_bool
    }

    fn opaque(&mut self) -> Vn {
        self.values.push(Value { expr: Expr::Opaque, is_bool: false, home: u32::MAX });
        (self.values.len() - 1) as Vn
    }

    fn intern(&mut self, e: Expr) -> Vn {
        if let Some(&v) = self.index.get(&e) {
            return v;
        }
        let is_bool = match e {
            Expr::Const(k) => k <= 1,
            Expr::CmpK { .. } => true,
            Expr::Un { code, .. } => matches!(code, Rc::Eqz64 | Rc::Cmp64K),
            Expr::Bin { code, a, b, .. } => match code {
                Rc::Cmp32 | Rc::Cmp64 => true,
                Rc::And32 | Rc::Or32 | Rc::Xor32 => self.is_bool(a) && self.is_bool(b),
                _ => false,
            },
            Expr::Opaque | Expr::Aff { .. } => false,
        };
        self.values.push(Value { expr: e, is_bool, home: u32::MAX });
        let v = (self.values.len() - 1) as Vn;
        self.index.insert(e, v);
        v
    }

    /// Forget everything at a loop header (or any point reached by a
    /// backward branch); locals get their fresh numbers eagerly so the
    /// paths of a later fork agree on them.
    fn reset(&mut self) {
        self.val.fill(NONE);
        for r in 0..self.locals {
            let v = self.opaque();
            self.set(r, v);
        }
    }

    /// The number of the value in register `r`, minting one if unknown.
    fn read(&mut self, r: u32) -> Vn {
        match self.val.get(r as usize).copied() {
            Some(NONE) => {
                let v = self.opaque();
                self.set(r, v);
                v
            }
            Some(v) => v,
            None => self.opaque(), // out of frame: `verify` rejects it later
        }
    }

    fn konst(&self, r: u32) -> Option<u64> {
        match self.val.get(r as usize).map(|&v| self.expr(v)) {
            Some(Expr::Const(k)) => Some(k),
            _ => None,
        }
    }

    fn is_const(&self, v: Vn, k: u64) -> bool {
        self.expr(v) == Expr::Const(k)
    }

    /// The number of `x * mul + add` (wrapping i32 arithmetic).
    fn affine(&mut self, x: Vn, mul: u32, add: u32) -> Vn {
        let (base, m, a) = match self.expr(x) {
            Expr::Const(k) => {
                let k = (k as u32).wrapping_mul(mul).wrapping_add(add);
                return self.intern(Expr::Const(k as u64));
            }
            Expr::Aff { base, mul, add } => (base, mul, add),
            _ => (x, 1, 0),
        };
        let add = a.wrapping_mul(mul).wrapping_add(add);
        self.intern(match m.wrapping_mul(mul) {
            0 => Expr::Const(add as u64),
            mul => Expr::Aff { base, mul, add },
        })
    }

    /// The number of `cmp(x, k)`, folded when `x` is a constant.
    fn cmpk(&mut self, x: Vn, cmp: u8, k: u32) -> Vn {
        let e = match (self.expr(x), Cmp::from_byte(cmp)) {
            (Expr::Const(c), Some(cmp)) => Expr::Const(cmp.eval(c as i32, k as i32) as u64),
            _ => Expr::CmpK { x, cmp, k },
        };
        self.intern(e)
    }

    /// The number of a generic two-operand op.
    fn binary(&mut self, op: &RegOp, commutes: bool) -> Vn {
        let (mut a, mut b) = (self.read(op.a), self.read(op.b));
        if commutes && a > b {
            std::mem::swap(&mut a, &mut b);
        }
        self.intern(Expr::Bin { code: op.code, aux: op.aux, a, b })
    }

    /// `(x >=s 0) & (x <s K)` with `K >= 0` is the unsigned `x <u K`.
    fn range_merge(&mut self, va: Vn, vb: Vn) -> Option<Vn> {
        let (Expr::CmpK { x, cmp: ca, k: ka }, Expr::CmpK { x: xb, cmp: cb, k: kb }) =
            (self.expr(va), self.expr(vb))
        else {
            return None;
        };
        if x != xb {
            return None;
        }
        let (ges, gts, lts, les) =
            (Cmp::GeS as u8, Cmp::GtS as u8, Cmp::LtS as u8, Cmp::LeS as u8);
        let lower = |c: u8, k: u32| (c == ges && k == 0) || (c == gts && k == u32::MAX);
        let upper = |c: u8, k: u32| match k as i32 {
            k if k < 0 => None,
            k if c == lts => Some(k as u32),
            k if c == les && k < i32::MAX => Some(k as u32 + 1),
            _ => None,
        };
        let bound = match (lower(ca, ka), lower(cb, kb)) {
            (true, _) => upper(cb, kb),
            (_, true) => upper(ca, ka),
            _ => None,
        }?;
        Some(self.cmpk(x, Cmp::LtU as u8, bound))
    }

    fn holds(&self, r: u32, v: Vn) -> bool {
        r != u32::MAX && self.val[r as usize] == v
    }

    /// A local (or scratch local) currently holding `v`.
    fn local_home(&self, v: Vn) -> Option<u32> {
        let h = self.values[v as usize].home;
        (h < self.locals && self.holds(h, v)).then_some(h)
    }

    /// A local, or else a virtual slot, currently holding `v`.
    fn any_home(&self, v: Vn) -> Option<u32> {
        let h = self.values[v as usize].home;
        self.holds(h, v).then_some(h)
    }

    /// Record that register (or virtual slot) `r` now holds `v`.
    fn set(&mut self, r: u32, v: Vn) {
        let Some(slot) = self.val.get_mut(r as usize) else { return };
        *slot = v;
        // Only locals and virtual slots may be read back later; a local
        // beats a virtual slot, which needs a scratch local materialized.
        if r < self.locals || r >= self.frame {
            let h = self.values[v as usize].home;
            if !self.holds(h, v) || (h >= self.frame && r < self.locals) {
                self.values[v as usize].home = r;
            }
        }
    }

    fn kill(&mut self, r: u32, n: u32) {
        for r in r..r.saturating_add(n).min(self.frame) {
            self.val[r as usize] = NONE;
        }
    }

    /// The state a taken branch hands its target, into `out`: the current
    /// one with the branch's unwind copy applied.
    fn unwound(&self, unwind: u64, out: &mut Vec<Vn>) {
        out.clone_from(&self.val);
        let (src, dst, arity) = unwind_parts(unwind);
        if unwind != 0 && src + arity <= self.frame as usize && dst + arity <= self.frame as usize
        {
            out[dst..dst + arity].copy_from_slice(&self.val[src..src + arity]);
        }
    }
}

/// What the pipeline reuses from one function to the next on a thread
/// ([`super::optimize`] takes it for a function and gives it back): the
/// liveness table ([`sweep`]), [`branch_targets`]' tables, [`rebuild`]'s
/// buffers, the heights `crate::ir::compile` records; [`forward`]'s value
/// table, its states waiting at forward targets (and spent ones), its
/// virtual slots' owners and what it hands [`materialize`]; `hoist`'s.
#[derive(Default)]
pub(super) struct Scratch {
    pub live: Vec<u64>,
    pub ends: Vec<usize>,
    pub marks: Vec<u8>,
    pub spare: Spare,
    pub hs: Vec<u32>,
    values: Values,
    pending: HashMap<u32, Vec<Vn>, BuildHasherDefault<Mix>>,
    spent: Vec<Vec<Vn>>,
    owner: Vec<Vn>,
    slots: Slots,
    pub work: super::hoist::Work,
}

/// Keep only what two paths into a join agree on.
fn meet(into: &mut [Vn], other: &[Vn]) {
    for (a, b) in into.iter_mut().zip(other) {
        if *a != *b {
            *a = NONE;
        }
    }
}

/// The value-tracking mid-end of the flat tiers: one forward walk that
/// numbers every integer value symbolically ([`Expr`]) and rewrites ops
/// from what it knows.
///
/// * **Forwarding**: a read of a stack temporary whose value also lives
///   in a local reads the local (`local.get` residue), and known
///   constants fold into the immediate forms (`AddK32`, `ShlK32`,
///   `Cmp32K`, multiply-by-power-of-two into shifts).
///   Reads are only ever redirected to *locals*: a forwarded read of a
///   stack temporary could sit above the abstract stack height, where the
///   heights oracle lets [`eliminate`] delete its producer.
/// * **Symbolic rewrites**: an address `(local * 2^s) + k` feeding a
///   32/64-bit load or store becomes the `*ShlK` form with `k` in the
///   *wrapping* displacement (never in the offset, which is added without
///   wrapping); a compare of `local + k` reads the local directly
///   ([`Rc::CmpAddK32`]); `(x >= 0) & (x < K)` becomes one unsigned
///   compare; `1 & b` with `b` a boolean becomes `b`. The producers die in
///   [`eliminate`].
/// * **Reuse**: an op recomputing a value a local already holds becomes a
///   `Copy`. A value computed into a stack temporary is remembered in a
///   virtual slot; when it is recomputed while the slot still holds it,
///   the slot is materialized as a scratch local (between the declared
///   locals and the temporaries, which are renumbered) that every
///   computation of the value writes and every reader of it reads.
///
/// State flows across forward joins — a target whose predecessors are all
/// earlier in the stream meets their states — and resets at anything a
/// backward branch reaches, so every cycle passes a reset and a value
/// number denotes one run-time value. (What a loop recomputes unchanged
/// every iteration is [`hoist`](super::hoist)'s to move out, above
/// `Tier::Optimizing`.) Calls clobber their argument window and
/// everything above it. The virtual slots' bookkeeping is left in `s`:
/// ops that hit one read register `frame_size + slot` until
/// [`materialize`] runs. `Nop`s are passed over.
pub(super) fn forward(f: &mut RegFunc, s: &mut Scratch) {
    use Rc::*;
    branch_targets(f, &mut s.ends, &mut s.marks);
    let (h0, fs) = (f.n_local_slots, f.frame_size);
    let pool = if fs + 2 * POOL <= MAX_REG { POOL } else { 0 };
    let Scratch { marks, values: vs, pending, spent, owner, slots, .. } = s;
    vs.clear(f, pool);
    vs.reset();
    // The states handed to forward branch targets, met as they arrive,
    // wait in `pending` for the walk to reach them.
    spent.extend(pending.drain().map(|(_, state)| state));
    // False after an unconditional transfer, until a target is reached.
    let mut live = true;
    slots.defs.clear();
    slots.hits.clear();
    slots.uses.clear();
    // The value each virtual slot belongs to since the last reset.
    owner.clear();

    for i in 0..f.code.len() {
        if marks[i] != 0 {
            if let Some(mut state) = pending.remove(&(i as u32)) {
                if marks[i] & 2 == 0 && live {
                    meet(&mut vs.val, &state);
                } else if marks[i] & 2 == 0 {
                    std::mem::swap(&mut vs.val, &mut state);
                    live = true;
                }
                spent.push(state);
            }
            if marks[i] & 2 != 0 {
                vs.reset();
                owner.clear();
                live = true;
            }
        }
        if !live {
            continue;
        }
        let mut op = f.code[i];

        // 1. Read a local instead of a stack temporary holding its value
        // (or note the virtual slot that does, should it become one).
        let sh = op.code.row().fields;
        for (n, r) in [&mut op.a, &mut op.b, &mut op.c].into_iter().enumerate() {
            if sh[n] == R && *r >= h0 && *r < fs {
                let v = vs.val[*r as usize];
                match vs.any_home(v) {
                    Some(h) if h < h0 => *r = h,
                    Some(h) => {
                        let at = SlotRef { at: i as u32, slot: h - fs, value: v };
                        slots.uses.push((at, n, *r));
                    }
                    None => {}
                }
            }
        }

        // 2. One dispatch per op: fold known constants into immediate
        // forms (a folded op goes round again as what it became), number
        // the result, and rewrite from the operands' symbolic values.
        let res: Option<Vn> = loop {
            let folded = match op.code {
                // Self-copy (a `local.set x; local.get x` round-trip
                // whose set was forwarded): pure no-op.
                Copy if op.a == op.c => rop(Nop, 0, 0, 0, 0, 0),
                Copy => break Some(vs.read(op.a)),
                Const => break Some(vs.intern(Expr::Const(op.imm))),
                AddK32 => {
                    let x = vs.read(op.a);
                    break Some(vs.affine(x, 1, op.b));
                }
                ShlK32 => {
                    let x = vs.read(op.a);
                    break Some(vs.affine(x, 1u32.wrapping_shl(op.aux as u32), 0));
                }
                Cmp32K => {
                    let x = vs.read(op.a);
                    break Some(vs.cmpk(x, op.aux, op.b));
                }
                Eqz32 => {
                    let x = vs.read(op.a);
                    break Some(vs.cmpk(x, Cmp::Eq as u8, 0));
                }
                CmpAddK32 => {
                    let x = vs.read(op.a);
                    let x = vs.affine(x, 1, op.imm as u32);
                    break Some(vs.cmpk(x, op.aux, op.b));
                }
                Add32 => match (vs.konst(op.a), vs.konst(op.b)) {
                    (_, Some(k)) => rop(AddK32, op.a, k as u32, op.c, 0, 0),
                    (Some(k), _) => rop(AddK32, op.b, k as u32, op.c, 0, 0),
                    _ => break Some(vs.binary(&op, true)),
                },
                Sub32 => match vs.konst(op.b) {
                    Some(k) => rop(AddK32, op.a, (k as i32).wrapping_neg() as u32, op.c, 0, 0),
                    None => break Some(vs.binary(&op, false)),
                },
                Shl32 => match vs.konst(op.b) {
                    Some(k) => rop(ShlK32, op.a, 0, op.c, (k as u32 & 31) as u8, 0),
                    None => break Some(vs.binary(&op, false)),
                },
                Mul32 => {
                    let (x, k) = match (vs.konst(op.a), vs.konst(op.b)) {
                        (_, Some(k)) => (op.a, k as u32),
                        (Some(k), _) => (op.b, k as u32),
                        _ => break Some(vs.binary(&op, true)),
                    };
                    if k.is_power_of_two() {
                        rop(ShlK32, x, 0, op.c, k.trailing_zeros() as u8, 0)
                    } else {
                        let x = vs.read(x);
                        break Some(vs.affine(x, k, 0));
                    }
                }
                Cmp32 => match vs.konst(op.b) {
                    Some(k) => rop(Cmp32K, op.a, k as u32, op.c, op.aux, 0),
                    None => break Some(vs.binary(&op, false)),
                },
                Add64 => match (vs.konst(op.a), vs.konst(op.b)) {
                    (Some(ka), Some(kb)) => rop(Const, 0, 0, op.c, 0, ka.wrapping_add(kb)),
                    (_, Some(k)) => rop(AddK64, op.a, 0, op.c, 0, k),
                    (Some(k), _) => rop(AddK64, op.b, 0, op.c, 0, k),
                    _ => break Some(vs.binary(&op, true)),
                },
                Sub64 => match (vs.konst(op.a), vs.konst(op.b)) {
                    (Some(ka), Some(kb)) => rop(Const, 0, 0, op.c, 0, ka.wrapping_sub(kb)),
                    (_, Some(k)) => rop(AddK64, op.a, 0, op.c, 0, (k as i64).wrapping_neg() as u64),
                    _ => break Some(vs.binary(&op, false)),
                },
                Cmp64 => match vs.konst(op.b) {
                    Some(k) => rop(Cmp64K, op.a, 0, op.c, op.aux, k),
                    None => break Some(vs.binary(&op, false)),
                },
                // Float const-const arithmetic folds at compile time. This is
                // bit-exact versus runtime evaluation: both run the same IEEE
                // op on the same host, so even NaN payload propagation agrees.
                AddF32 | SubF32 | MulF32 | DivF32 => match (vs.konst(op.a), vs.konst(op.b)) {
                    (Some(ka), Some(kb)) => {
                        let (x, y) = (f32::from_bits(ka as u32), f32::from_bits(kb as u32));
                        let r = match op.code {
                            AddF32 => x + y,
                            SubF32 => x - y,
                            MulF32 => x * y,
                            _ => x / y,
                        };
                        rop(Const, 0, 0, op.c, 0, r.to_bits() as u64)
                    }
                    _ => break None,
                },
                AddF64 | SubF64 | MulF64 | DivF64 => match (vs.konst(op.a), vs.konst(op.b)) {
                    (Some(ka), Some(kb)) => {
                        let (x, y) = (f64::from_bits(ka), f64::from_bits(kb));
                        let r = match op.code {
                            AddF64 => x + y,
                            SubF64 => x - y,
                            MulF64 => x * y,
                            _ => x / y,
                        };
                        rop(Const, 0, 0, op.c, 0, r.to_bits())
                    }
                    _ => break None,
                },
                And32 => {
                    let (va, vb) = (vs.read(op.a), vs.read(op.b));
                    if vs.is_const(va, 1) && vs.is_bool(vb) {
                        op = rop(Copy, op.b, 0, op.c, 0, 0);
                        break Some(vb);
                    } else if vs.is_const(vb, 1) && vs.is_bool(va) {
                        op = rop(Copy, op.a, 0, op.c, 0, 0);
                        break Some(va);
                    } else if let Some(v) = vs.range_merge(va, vb) {
                        break Some(v);
                    }
                    break Some(vs.binary(&op, true));
                }
                // An address that is `local * 2^s + k`: fold the whole
                // chain into the scaled-index form. `k` goes into the
                // displacement, which wraps at 2^32 exactly as the
                // address arithmetic it replaces did. (Translation emits
                // only the plain forms, displacement 0.)
                Load32 | Load64 | Store32 | Store64 => {
                    let store = matches!(op.code, Store32 | Store64);
                    let wide = matches!(op.code, Load64 | Store64);
                    let x = vs.read(op.a);
                    if let Expr::Aff { base, mul, add } = vs.expr(x) {
                        if let (true, Some(h)) = (mul.is_power_of_two(), vs.local_home(base)) {
                            let imm = op.imm | (add as u64) << 32;
                            let sh = mul.trailing_zeros() as u8;
                            let code = match (store, wide, sh) {
                                (false, false, 0) => Load32,
                                (false, true, 0) => Load64,
                                (false, false, _) => Load32ShlK,
                                (false, true, _) => Load64ShlK,
                                (true, false, _) => Store32ShlK,
                                (true, true, _) => Store64ShlK,
                            };
                            op = if store {
                                rop(code, h, op.b, 0, sh, imm)
                            } else {
                                rop(code, h, 0, op.c, sh, imm)
                            };
                        }
                    }
                    break None;
                }
                code => match code.row().class {
                    Class::Untracked => break None,
                    Class::Unary => {
                        let a = vs.read(op.a);
                        break Some(vs.intern(Expr::Un { code, aux: op.aux, imm: op.imm, a }));
                    }
                    Class::Binary => break Some(vs.binary(&op, false)),
                    Class::Commutative => break Some(vs.binary(&op, true)),
                },
            };
            op = folded;
        };
        match res.map(|v| vs.expr(v)) {
            Some(Expr::Const(k)) if op.code != Const => op = rop(Const, 0, 0, op.c, 0, k),
            // A compare of `local + k` reads the local; the range test an
            // `And32` merged into needs its operand in a local at all.
            Some(Expr::CmpK { x, cmp, k }) if matches!(op.code, Cmp32K | Eqz32 | And32) => {
                let based = match vs.expr(x) {
                    Expr::Aff { base, mul: 1, add } => vs.local_home(base).map(|h| (h, add)),
                    _ => None,
                };
                if let Some((h, add)) = based {
                    op = rop(CmpAddK32, h, k, op.c, cmp, add as u64);
                } else if let (And32, Some(h)) = (op.code, vs.local_home(x)) {
                    op = rop(Cmp32K, h, k, op.c, cmp, 0);
                }
            }
            _ => {}
        }

        // 3. Reuse: the value is already somewhere readable, or gets a
        // virtual slot in case it is wanted again.
        if let (Some(v), false) = (res, matches!(op.code, Copy | Const | Nop)) {
            if let Some(h) = vs.any_home(v) {
                if h >= fs {
                    slots.hits.push(SlotRef { at: i as u32, slot: h - fs, value: v });
                }
                op = if h == op.c { rop(Nop, 0, 0, 0, 0, 0) } else { rop(Copy, h, 0, op.c, 0, 0) };
            } else if op.c >= h0 && worth_a_slot(vs.expr(v)) {
                // The value's own slot if it has one (a computation on
                // one path only loses it at the join), else a free one.
                let own = vs.values[v as usize].home.wrapping_sub(fs);
                let slot = if owner.get(own as usize) == Some(&v) {
                    Some(own)
                } else if (owner.len() as u32) < pool {
                    owner.push(v);
                    Some(owner.len() as u32 - 1)
                } else {
                    None
                };
                if let Some(slot) = slot {
                    vs.set(fs + slot, v);
                    slots.defs.push(SlotRef { at: i as u32, slot, value: v });
                }
            }
        }

        // 4. Update the state for this op's writes.
        f.code[i] = op;
        if let (Some(v), true) = (res, op.code != Nop) {
            vs.set(op.c, v);
            continue;
        }
        if let Some((r, n)) = writes(&op) {
            vs.kill(r, n);
            continue;
        }

        // 5. Control: calls clobber their argument window and everything
        // above it (the callee's frame starts there); branches hand the
        // state to forward targets.
        let next = op.code.row().flow;
        if next == Flow::Call {
            vs.kill(op.b, u32::MAX);
        }
        let mut flow = |target: u32, unwind: u64| {
            if target as usize > i {
                let mut state = spent.pop().unwrap_or_default();
                vs.unwound(unwind, &mut state);
                match pending.entry(target) {
                    Entry::Occupied(mut waiting) => {
                        meet(waiting.get_mut(), &state);
                        spent.push(state);
                    }
                    Entry::Vacant(slot) => drop(slot.insert(state)),
                }
            }
        };
        if next != Flow::Next {
            dests(f, &op).for_each(|d| flow(d.target, d.unwind));
        }
        live = next.falls_through();
    }
}

/// Turn the virtual slots that are read back into scratch locals just
/// below the temporaries (which move up to make room). One rule: every
/// computation of a value that is read back from a slot is followed by a
/// `Copy` of its result into that slot, and the reads [`forward`] recorded
/// of a temporary holding the same value read the slot instead. Nothing
/// is decided about the computation's own temporary here — where it is
/// dead afterwards, [`peephole`] sinks the computation into the slot, and
/// [`eliminate`] removes whatever else the rewrite left unread.
pub(super) fn materialize(f: &mut RegFunc, hs: &mut Vec<u32>, s: &mut Scratch) {
    let (h0, fs) = (f.n_local_slots, f.frame_size);
    let Scratch { slots, live, spare, .. } = s;
    let Some(first) = slots.hits.first() else { return };
    // Per value, the set of slots it is read back from.
    const _: () = assert!(POOL <= 64);
    let mut used: Vec<u64> = Vec::new();
    let mut real = [u32::MAX; POOL as usize];
    let (mut n, mut swept) = (0u32, false);
    for hit in &slots.hits {
        // `forward` left `Copy slot → c` here. Where a later rewrite
        // replaced the consumer, nothing reads `c` and the slot is not
        // needed on this account. The straight-line ops after the hit
        // usually say; else the table from the first hit on does.
        let (at, c) = (hit.at as usize, f.code[hit.at as usize].c);
        let read = read_next(f, hs, at, c).unwrap_or_else(|| {
            if !std::mem::replace(&mut swept, true) {
                sweep(f, hs, live, first.at as usize + 1..f.code.len(), |_, _, _| false);
            }
            live_after(f, live, at, c)
        });
        if !read {
            f.code[at] = rop(Rc::Nop, 0, 0, 0, 0, 0);
            continue;
        }
        if used.len() <= hit.value as usize {
            used.resize(hit.value as usize + 1, 0);
        }
        used[hit.value as usize] |= 1 << hit.slot;
        if real[hit.slot as usize] == u32::MAX {
            real[hit.slot as usize] = h0 + n;
            n += 1;
        }
    }
    if n == 0 {
        return;
    }
    let is_used =
        |r: &SlotRef| used.get(r.value as usize).is_some_and(|slots| slots >> r.slot & 1 != 0);
    for (at, field, temp) in slots.uses.iter().filter(|(at, ..)| is_used(at)) {
        let op = &mut f.code[at.at as usize];
        let reads = op.code.row().fields[*field] == R;
        let field = [&mut op.a, &mut op.b, &mut op.c].into_iter().nth(*field).unwrap();
        if reads && *field == *temp {
            *field = fs + at.slot;
        }
    }
    let copies: Vec<(usize, RegOp, u32)> = slots
        .defs
        .iter()
        .filter(|def| is_used(def))
        .map(|def| {
            let (at, h) = (def.at as usize, hs.get(def.at as usize + 1).copied().unwrap_or(u32::MAX));
            (at, rop(Rc::Copy, f.code[at].c, 0, fs + def.slot, 0, 0), h)
        })
        .collect();
    // Compact first: renumbering then only walks what survives.
    rebuild(f, hs, live, &copies, spare);
    renumber(f, n, &real, []);
}

/// Whether the value op `at` leaves in register `t` is read, by the
/// table's rules (a local's always, a temporary's if an op reads it before
/// one overwrites it or the heights oracle kills it), read off the
/// straight-line ops after `at`; `None` past a control transfer or 16 ops.
fn read_next(f: &RegFunc, hs: &[u32], at: usize, t: u32) -> Option<bool> {
    let h0 = f.n_local_slots;
    if span(h0, t, 1) == 0 {
        return Some(true);
    }
    for (j, op) in f.code.iter().enumerate().take(at + 17).skip(at + 1) {
        if reads_reg(op, f, t) {
            return Some(true);
        } else if hs[j] != u32::MAX && t >= h0 + hs[j] || writes_reg(op, t) {
            return Some(false);
        } else if op.code.row().flow != Flow::Next {
            return None;
        }
    }
    None
}

/// Whether remembering a value in a virtual slot can pay for the copy
/// that materializing the slot costs: anything that is not free to
/// recompute or folded into its consumers anyway (`local * 2^s + k`).
fn worth_a_slot(e: Expr) -> bool {
    match e {
        Expr::Opaque | Expr::Const(_) => false,
        Expr::Aff { mul, .. } => !mul.is_power_of_two(),
        Expr::CmpK { .. } | Expr::Un { .. } | Expr::Bin { .. } => true,
    }
}

/// Make room for `n` more scratch locals: move the stack temporaries up by
/// `n` and turn each virtual slot `frame_size + k` into register `virt[k]`,
/// in `f` and in the ops of `extra`, which are to join it. Covers every
/// place an op names a register: the register fields, the packed unwind
/// copies (pool included), `Return`'s source and the calls' argument base.
pub(super) fn renumber<'a>(
    f: &mut RegFunc,
    n: u32,
    virt: &[u32],
    extra: impl IntoIterator<Item = &'a mut RegOp>,
) {
    let (h0, fs) = (f.n_local_slots, f.frame_size);
    let reg = |r: u32| match r {
        r if r >= fs => virt[(r - fs) as usize],
        r if r >= h0 => r + n,
        r => r,
    };
    // A window base may sit at the very end of the frame (an empty
    // window), where a register field would be a virtual slot.
    let base = |r: u32| if r >= h0 { r + n } else { r };
    let unwind = |imm: u64| {
        let (src, dst, arity) = unwind_parts(imm);
        match imm {
            0 => 0,
            _ => pack_unwind(base(src as u32), base(dst as u32), arity as u32)
                .expect("frame size was checked against the encodable range"),
        }
    };
    let each = |op: &mut RegOp| {
        let row = op.code.row();
        let sh = row.fields;
        for (r, u) in [(&mut op.a, sh[0]), (&mut op.b, sh[1]), (&mut op.c, sh[2])] {
            if u != 0 {
                *r = reg(*r);
            }
        }
        match row.flow {
            flow if flow.has_unwind() => op.imm = unwind(op.imm),
            Flow::Return => op.a = base(op.a),
            Flow::Call => op.b = base(op.b),
            _ => {}
        }
    };
    f.code.iter_mut().for_each(each);
    extra.into_iter().for_each(each);
    for d in &mut f.dest_pool {
        d.unwind = unwind(d.unwind);
    }
    f.n_local_slots += n;
    f.scratch_slots += n;
    f.frame_size += n;
}

/// Whether `op` is a pure op whose one-slot temporary result the table
/// (`out`: what is live after it) says nothing reads.
pub(super) fn unread(h0: u32, op: &RegOp, out: u64) -> bool {
    op.code.row().pure && writes(op).is_some_and(|(t, w)| t >= h0 && w == 1 && span(h0, t, 1) & !out != 0)
}

/// Remove pure ops whose result is a one-slot stack temporary the table
/// says nothing reads, in the sweep that builds the table into `live`, so
/// a chain of producers whose final result is dead goes at once. Returns
/// whether an op went, and the scratch locals ([`scratch`]) that lost a
/// reader with it, each maybe its last ([`unread_scratch`]).
pub(super) fn eliminate(f: &mut RegFunc, hs: &[u32], live: &mut Vec<u64>) -> (bool, u64) {
    let (h0, n, mut lost) = (f.n_local_slots, f.scratch_slots, 0);
    let changed = sweep(f, hs, live, 0..f.code.len(), |_, op, out| {
        let dead = unread(h0, op, out);
        lost |= if dead { scratch_reads(h0, n, op) } else { 0 };
        dead
    });
    (changed, lost)
}

/// The bit of register `r` among the `n` scratch locals below `h0` (0 if
/// it is none of them; the 64th and later share the last bit).
fn scratch(h0: u32, n: u32, r: u32) -> u64 {
    match (r + n).checked_sub(h0) {
        Some(k) if r < h0 => 1 << k.min(63),
        _ => 0,
    }
}

/// The bits ([`scratch`]) of the scratch locals `op` reads.
fn scratch_reads(h0: u32, n: u32, op: &RegOp) -> u64 {
    fields(op).iter().filter(|(_, u)| u & R != 0).fold(0, |m, &(r, _)| m | scratch(h0, n, r))
}

/// Remove the pure ops that write a scratch local of `lost` that nothing
/// reads: scratch locals have no uses [`forward`] did not create, so an
/// unread one is dead as a whole. Returns true if any went.
pub(super) fn unread_scratch(f: &mut RegFunc, mut lost: u64) -> bool {
    let (h0, n) = (f.n_local_slots, f.scratch_slots);
    for op in &f.code {
        if lost == 0 {
            return false;
        }
        lost &= !scratch_reads(h0, n, op);
    }
    let mut changed = false;
    for op in f.code.iter_mut().filter(|op| op.code.row().pure) {
        if writes(op).is_some_and(|(t, _)| scratch(h0, n, t) & lost != 0) {
            (*op, changed) = (rop(Rc::Nop, 0, 0, 0, 0, 0), true);
        }
    }
    changed
}

/// The register peephole, one walk over the ops in `ops` that reaches its
/// own fixpoint: after any rewrite at op `i` it steps back to the op
/// before (never across a branch target), whose pattern the rewrite may
/// have completed. Every rewrite removes an op (leaves a `Nop`, which
/// [`compact`] removes), so the walk ends. A pair's partner is the next op
/// that is not a `Nop`, with no branch target up to it. The rewrites:
///
/// * Result sinking: `[op → t][Copy t → x]` → `[op → x]` when `t` dies
///   there — every `local.set` of a computed value. (`Select` writes `a`,
///   `Fma64` reads its destination; both are excluded.)
/// * Copy forwarding ([`forward_copy`]): `[Copy s → t]` with `s` a local
///   goes, `t`'s readers reading `s`.
/// * `[ShlK32 → t][Add32 base + t → d]` → `AddShl32` (the scaled-index
///   address form, reconstructed after constant forwarding turned the
///   guest's multiply into a shift).
/// * `[AddShl32 → t][load addr=t]` → scaled load (all widths share
///   `Load32Shl`/`Load64Shl`).
/// * `[ShlK32 → t][load addr=t]` → constant-base scaled load.
/// * `[AddShl32 → t] …value ops… [store addr=t]` → scaled store: the
///   classic `a[i] = expr` window where the value computation separates
///   the address from the store.
/// * `[ShlK32 → t][AddK32 t → u] …value ops… [store addr=u]` →
///   constant-base scaled store (`counts[k[i]] += 1` in NPB IS).
/// * `fuse_pairs`, the tiers above `Optimizing`: the pairs of
///   [`fuse_pair`].
///
/// Liveness is the table [`eliminate`] left in `live`, which every rewrite
/// keeps covering what is live. Fusion moves reads *downward*: the fused
/// op at position `k` reads registers the original stream consumed at
/// position `i < k`, where the recorded entry height may be higher, so
/// [`moved`] keeps both the table and the heights oracle from reporting
/// them dead before `k`. Returns true if changed.
pub(super) fn peephole(
    f: &mut RegFunc,
    hs: &mut [u32],
    marks: &[u8],
    live: &mut [u64],
    fuse_pairs: bool,
    ops: std::ops::Range<usize>,
) -> bool {
    let mut changed = false;
    let mut i = ops.start;
    while i < ops.end {
        if f.code[i].code == Rc::Nop || !rewrite(f, hs, marks, live, fuse_pairs, i, ops.end) {
            i += 1;
            continue;
        }
        changed = true;
        while i > ops.start && marks[i] == 0 {
            i -= 1;
            if f.code[i].code != Rc::Nop {
                break;
            }
        }
    }
    changed
}

/// The next op after `i` that is not a `Nop`, if no branch target lies
/// in between or on it.
fn partner(f: &RegFunc, marks: &[u8], i: usize, end: usize) -> Option<usize> {
    (i + 1..end).take_while(|&k| marks[k] == 0).find(|&k| f.code[k].code != Rc::Nop)
}

/// One rewrite of [`peephole`] at op `i`, if any applies.
fn rewrite(
    f: &mut RegFunc,
    hs: &mut [u32],
    marks: &[u8],
    live: &mut [u64],
    fuse_pairs: bool,
    i: usize,
    end: usize,
) -> bool {
    use Rc::*;
    let (h0, addr) = (f.n_local_slots, f.code[i]);
    // Every rule folds away a value op `i` leaves in a one-slot temporary.
    if !writes(&addr).is_some_and(|(t, w)| t >= h0 && w == 1) {
        return false;
    }
    let next = partner(f, marks, i, end);
    if let Some(k) = next {
        let nx = f.code[k];
        if nx.code == Copy
            && nx.a != nx.c
            && nx.a >= h0
            && addr.c == nx.a
            && writes(&addr) == Some((nx.a, 1))
            && !matches!(addr.code, Select | Fma64)
            && !live_after(f, live, k, nx.a)
        {
            f.code[i].c = nx.c;
            f.code[k] = rop(Nop, 0, 0, 0, 0, 0);
            // `x` is written from op `i` on now, `t` not at all.
            let (x, t) = (span(h0, nx.c, 1), span(h0, nx.a, 1));
            live[i + 1..=k].iter_mut().for_each(|l| *l = *l & !t | x);
            return true;
        }
        if fuse_pairs && fuse_pair(f, hs, live, i, k) {
            return true;
        }
    }
    let (t, fused_addr) = match addr.code {
        Copy => return forward_copy(f, hs, marks, live, i, end),
        AddShl32 => (addr.c, true),
        ShlK32 => (addr.c, false),
        _ => return false,
    };
    if t < h0 {
        return false;
    }
    if let Some(k) = next {
        let nx = f.code[k];
        // ShlK feeding a plain add of a register base → AddShl32,
        // provided the scaled temp dies with the add.
        if !fused_addr && nx.code == Add32 && (nx.a == t) != (nx.b == t) {
            let base = if nx.a == t { nx.b } else { nx.a };
            if base != t && !live_after(f, live, k, t) {
                moved(f, hs, live, i, k);
                f.code[k] = rop(AddShl32, addr.a, base, nx.c, addr.aux, 0);
                return true;
            }
        }
        // Adjacent load: address produced then immediately consumed.
        let wide_bias = (nx.imm >> 32) as u32;
        if matches!(nx.code, Load32 | Load64) && nx.a == t && (nx.c == t || !live_after(f, live, k, t)) {
            if fused_addr && wide_bias != 0 {
                return false; // bias not representable in the Shl form
            }
            let wide = nx.code == Load64;
            let offset = nx.imm as u32 as u64;
            let fused = if fused_addr {
                rop(if wide { Load64Shl } else { Load32Shl }, addr.a, addr.b, nx.c, addr.aux, offset)
            } else {
                let imm = offset | (wide_bias as u64) << 32;
                rop(if wide { Load64ShlK } else { Load32ShlK }, addr.a, 0, nx.c, addr.aux, imm)
            };
            moved(f, hs, live, i, k);
            f.code[k] = fused;
            return true;
        }
    }
    // Store window: [addr → t] (+ AddK for the ShlK form) then value
    // computation, then a store addressing t. Every op in the gap
    // must be pure straight-line flow not touching the address regs.
    let mut j = i;
    let mut bias = 0u32;
    let mut store_addr = t;
    if !fused_addr {
        // ShlK needs the following AddK folding the constant base.
        j = match next {
            Some(k) if f.code[k].code == AddK32 && f.code[k].a == t => k,
            _ => return false,
        };
        bias = f.code[j].b;
        store_addr = f.code[j].c;
        if store_addr < h0 || (store_addr != t && live_after(f, live, j, t)) {
            return false;
        }
    }
    // The gap may freely *read* the address source registers (the
    // value computation usually does); it must not write them, and it
    // must not touch the address temporaries at all (their only
    // consumer is the store). At most 12 ops, `Nop`s not counted.
    let clobbers = |op: &RegOp| {
        writes_reg(op, addr.a)
            || (fused_addr && writes_reg(op, addr.b))
            || [t, store_addr].iter().any(|&g| writes_reg(op, g) || reads_reg(op, f, g))
    };
    let mut found = None;
    let mut gap = j;
    for _ in 0..12 {
        let Some(k) = partner(f, marks, gap, end) else { break };
        let op = f.code[k];
        if op.code.row().flow != Flow::Next {
            break;
        }
        if matches!(op.code, Store32 | Store64) && op.a == store_addr {
            found = Some(k);
            break;
        }
        if clobbers(&op) {
            break;
        }
        gap = k;
    }
    let Some(sj) = found else { return false };
    let st = f.code[sj];
    // The address temp must die at the store.
    if live_after(f, live, sj, store_addr) {
        return false;
    }
    let offset = st.imm as u32 as u64;
    let wide = st.code == Store64;
    let fused = if fused_addr {
        rop(if wide { Store64Shl } else { Store32Shl }, addr.a, st.b, addr.b, addr.aux, offset)
    } else {
        let imm = offset | (bias as u64) << 32;
        rop(if wide { Store64ShlK } else { Store32ShlK }, addr.a, st.b, 0, addr.aux, imm)
    };
    moved(f, hs, live, i, sj);
    if !fused_addr {
        f.code[j] = rop(Nop, 0, 0, 0, 0, 0);
        live[j + 1..=sj].iter_mut().for_each(|l| *l &= !span(h0, store_addr, 1));
    }
    f.code[sj] = fused;
    true
}

/// A run of ops outside the stream as a stream of its own, for
/// [`walk_run`]: ops, heights, table, branch marks.
pub(super) type Run = (Vec<RegOp>, Vec<u32>, Vec<u64>, Vec<u8>);

/// The walk over straight-line `ops` of `f` that are not in its stream
/// (each with its entry height; a preheader), ended by a `Nop` that
/// stands for the op they fall into, whose table entry is `out`: the
/// sweep deletes what nothing reads, the peephole does the rest (sinks
/// each op into the local it is copied to). Deleted ops become `Nop`s.
pub(super) fn walk_run(f: &RegFunc, ops: &mut [(usize, RegOp, u32)], out: u64, buf: &mut Run) {
    let (code, hs, live, marks) = buf;
    let n = ops.len();
    let mut g = RegFunc { code: std::mem::take(code), dest_pool: Vec::new(), v128_pool: Vec::new(), ..*f };
    g.code.clear();
    g.code.extend(ops.iter().map(|i| i.1).chain([rop(Rc::Nop, 0, 0, 0, 0, 0)]));
    hs.clear();
    hs.extend(ops.iter().map(|i| i.2).chain([u32::MAX]));
    live.resize(n + 2, !0);
    live[n] = out;
    marks.clear();
    marks.resize(n + 2, 0);
    sweep(&mut g, hs, live, 0..n, |_, op, out| unread(f.n_local_slots, op, out));
    peephole(&mut g, hs, marks, live, true, 0..n);
    ops.iter_mut().zip(&g.code).for_each(|(i, op)| i.1 = *op);
    *code = g.code;
}

/// Whether some path from op `from`, over every edge, reads register `r`
/// before overwriting it.
pub(super) fn live_in(f: &RegFunc, from: usize, r: u32, (seen, stack): &mut (Vec<bool>, Vec<usize>)) -> bool {
    seen.clear();
    seen.resize(f.code.len(), false);
    stack.clear();
    stack.push(from);
    while let Some(j) = stack.pop() {
        let Some(op) = f.code.get(j) else { continue };
        if std::mem::replace(&mut seen[j], true) {
            continue;
        } else if reads_reg(op, f, r) {
            return true;
        } else if !writes_reg(op, r) {
            stack.extend(targets(f, op).map(|t| t as usize));
            stack.extend(op.code.row().flow.falls_through().then_some(j + 1));
        }
    }
    false
}

/// Copy forwarding, the rule [`forward`] applies first, for the `Copy`s
/// the walk meets: `[Copy s → t]` at op `i`, `s` a local and `t` a
/// one-slot temporary, goes, and `t`'s readers up to its death read `s` —
/// when no branch target lies in between, no op in between writes `s`,
/// and every read of `t` is through a field the reader does not also
/// write (never into `Select`'s first operand or `Fma64`'s addend, which
/// would write over `s`). Returns true if it did.
fn forward_copy(f: &mut RegFunc, hs: &[u32], marks: &[u8], live: &mut [u64], i: usize, end: usize) -> bool {
    let RegOp { a: s, c: t, .. } = f.code[i];
    let bit = span(f.n_local_slots, t, 1);
    if s >= f.n_local_slots || bit == 0 {
        return false;
    }
    // `t` holds the copy on entry to op `j` until `live` says otherwise or
    // an op overwrites it; `last` is one past the op at which it dies.
    let (mut j, mut read) = (i + 1, false);
    let last = loop {
        if live[j] & bit == 0 {
            break j;
        }
        if j >= end || marks[j] != 0 {
            return false;
        }
        let op = f.code[j];
        let row = op.code.row();
        let clean = fields(&op).iter().all(|&(r, u)| u & R == 0 || u == R || t.wrapping_sub(r) >= width(u));
        if !clean || control_reads(&op, f, t) {
            return false;
        }
        read |= reads_reg(&op, f, t);
        let out = match row.flow {
            Flow::Next => live[j + 1],
            _ => after(f, hs, live, j),
        };
        if writes_reg(&op, t) || out & bit == 0 {
            break j + 1;
        } else if writes_reg(&op, s) || row.flow != Flow::Next {
            return false;
        }
        j += 1;
    };
    // A copy nothing reads stays for `eliminate`: no read of `s` goes.
    if !read {
        return false;
    }
    for (op, l) in f.code[i + 1..last].iter_mut().zip(&mut live[i + 1..last]) {
        let sh = op.code.row().fields;
        for (n, r) in [&mut op.a, &mut op.b, &mut op.c].into_iter().enumerate() {
            if sh[n] == R && *r == t {
                *r = s;
            }
        }
        *l &= !bit;
    }
    f.code[i] = rop(Rc::Nop, 0, 0, 0, 0, 0);
    true
}

/// The adjacent-pair fusions that separate the `Max` tiers from
/// `Optimizing`, tried on op `i` and its partner `k`. Like result sinking,
/// each folds a producer into the op that consumes its temp `t`, and only
/// when `t` dies there:
///
/// * `[Cmp32 / Cmp32K → t][BrIf t]` → `BrIfCmp32` / `BrIfCmp32K`; behind a
///   `BrIfZ` the comparison is negated instead. `[Eqz32 → t]` just flips
///   `BrIf` and `BrIfZ`.
/// * `[MulF64 → t][AddF64 d + t → d]` → `Fma64`, which performs both
///   roundings exactly as the pair did.
fn fuse_pair(f: &mut RegFunc, hs: &mut [u32], live: &mut [u64], i: usize, k: usize) -> bool {
    use Rc::*;
    let (def, nx) = (f.code[i], f.code[k]);
    let t = def.c;
    if t < f.n_local_slots {
        return false;
    }
    let fused = match (def.code, nx.code) {
        (MulF64, AddF64) if nx.b == t && nx.a == nx.c && nx.a != t => {
            rop(Fma64, def.a, def.b, nx.c, 0, 0)
        }
        (Eqz32, BrIf | BrIfZ) if nx.a == t => {
            rop(if nx.code == BrIf { BrIfZ } else { BrIf }, def.a, 0, nx.c, 0, nx.imm)
        }
        (Cmp32 | Cmp32K, BrIf | BrIfZ) if nx.a == t => {
            let Some(cmp) = Cmp::from_byte(def.aux) else { return false };
            let cmp = if nx.code == BrIf { cmp } else { cmp.negate() };
            let code = if def.code == Cmp32 { BrIfCmp32 } else { BrIfCmp32K };
            rop(code, def.a, def.b, nx.c, cmp as u8, nx.imm)
        }
        _ => return false,
    };
    // Past a branch `t` is dead only if neither the carried slots, the
    // taken path nor the fallthrough read it.
    let (src, _, arity) = unwind_parts(nx.imm);
    let carried = nx.code != AddF64 && t.wrapping_sub(src as u32) < arity as u32;
    if carried || span(f.n_local_slots, t, 1) & !after(f, hs, live, k) == 0 {
        return false;
    }
    moved(f, hs, live, i, k);
    f.code[k] = fused;
    true
}

/// A fusion folds op `i` into op `k` (which the caller then rewrites):
/// op `i` goes, what it wrote is dead over `(i, k]`, and what it read
/// stays live there — in the table, for the rest of this walk, and in
/// `hs`, raised to op `i`'s entry height (`u32::MAX` propagates as
/// "unknown" via `max`), for a later one.
fn moved(f: &mut RegFunc, hs: &mut [u32], live: &mut [u64], i: usize, k: usize) {
    let ((read, kill), h) = (effect(f, &f.code[i]), hs[i]);
    for j in i + 1..=k {
        (live[j], hs[j]) = (live[j] & !kill | read, hs[j].max(h));
    }
    f.code[i] = rop(Rc::Nop, 0, 0, 0, 0, 0);
}

/// Into `marks`, per op index: 1 = some branch targets it, 2 = a backward
/// branch does (fusion windows must not span a target; value tracking
/// resets at a backward one). Into `ends`, per op one past the index of
/// the last backward branch to it (0: none) — where a loop with that
/// header ends.
pub(super) fn branch_targets(f: &RegFunc, ends: &mut Vec<usize>, marks: &mut Vec<u8>) {
    let len = f.code.len();
    ends.clear();
    ends.resize(len + 1, 0);
    marks.clear();
    marks.resize(len + 1, 0);
    for (i, op) in f.code.iter().enumerate().filter(|(_, op)| op.code.row().flow != Flow::Next) {
        for t in targets(f, op).map(|t| t as usize).filter(|&t| t <= len) {
            marks[t] |= if t <= i { 2 } else { 1 };
            if t <= i {
                ends[t] = ends[t].max(i + 1);
            }
        }
    }
}

/// Remove `Nop`s.
pub(super) fn compact(f: &mut RegFunc, hs: &mut Vec<u32>, live: &mut Vec<u64>, spare: &mut Spare) {
    if f.code.iter().any(|op| op.code == Rc::Nop) {
        rebuild(f, hs, live, &[], spare);
    }
}

/// [`rebuild`]'s output buffers, and its map from old op indices to new.
pub(super) type Spare = (Vec<RegOp>, Vec<u32>, Vec<u64>, Vec<u32>);

/// Rewrite the stream without its `Nop`s and with each `(i, op, height)` of
/// `inserts` (sorted by `i`) placed right after op `i`, remapping branch
/// targets (including the dest pool) and keeping the per-op entry heights
/// and the liveness table index-aligned (an inserted op's entry is all
/// live until a sweep makes it). A branch to `i + 1` still lands on the old
/// op `i + 1`: an inserted op belongs to the op it follows. The new stream,
/// heights and table are written to `spare`'s buffers, which then trade
/// places with the old ones.
pub(super) fn rebuild(
    f: &mut RegFunc,
    hs: &mut Vec<u32>,
    live: &mut Vec<u64>,
    inserts: &[(usize, RegOp, u32)],
    spare: &mut Spare,
) {
    let len = f.code.len();
    let height = |i: usize| hs.get(i).copied().unwrap_or(u32::MAX);
    let entry = |i: usize| live.get(i).copied().unwrap_or(!0);
    let (out, out_h, out_live, new_index) = spare;
    out.clear();
    out.reserve(len + inserts.len());
    out_h.clear();
    out_h.reserve(len + inserts.len());
    out_live.clear();
    out_live.reserve(len + inserts.len() + 1);
    new_index.clear();
    new_index.resize(len + 1, 0);
    let mut inserts = inserts.iter().peekable();
    for (i, op) in f.code.iter().enumerate() {
        new_index[i] = out.len() as u32;
        if op.code != Rc::Nop {
            out.push(*op);
            out_h.push(height(i));
            out_live.push(entry(i));
        }
        while let Some(&(_, extra, h)) = inserts.next_if(|(at, ..)| *at == i) {
            out.push(extra);
            out_h.push(h);
            out_live.push(!0);
        }
    }
    new_index[len] = out.len() as u32;
    out_live.push(!0);
    let count = out.len() as u32;
    let remap = |t: u32| new_index.get(t as usize).copied().unwrap_or(count);
    for op in out.iter_mut() {
        if op.code.row().flow.has_target() {
            op.c = remap(op.c);
        }
    }
    for d in &mut f.dest_pool {
        d.target = remap(d.target);
    }
    std::mem::swap(&mut f.code, out);
    std::mem::swap(hs, out_h);
    std::mem::swap(live, out_live);
}

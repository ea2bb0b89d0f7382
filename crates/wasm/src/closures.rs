//! Step programs: what the flat tiers run. At its first call a function's
//! register form ([`RegFunc`]) is lowered to one [`Chain`] — its ops in
//! stream order, pre-decoded — and [`Chain::run`] is the only register
//! executor.
//!
//! # Steps
//!
//! A [`Chain`] is a flat program of 32-byte [`ChainStep`]s, each carrying
//! everything an op needs — opcode, registers, immediates — decoded once at
//! build time. [`Chain::run`] is one out-of-line loop whose only `match` is
//! the op table [`crate::ops::exec`] itself, expanded over the step's
//! opcode: no op fetch from the stream and no indirect call.
//!
//! Control flow uses **control words**: a step either falls through to the
//! next or yields the index of the step to run next — always a step index,
//! so taking one costs no test. A conditional branch carries its taken
//! side in `c` and its not-taken side in `w` (the next step, unless a
//! rewrite says otherwise); `Jump` and `Br` are `Br` steps; a `BrTable`
//! step reads the program's own pool of (step, unwind) entries. The four ops that leave the frame or may move the
//! memory — `Return`, `CallGuest`, `CallIndirect`, `CallHost` — leave
//! [`Chain::run`] with the index of the step after them, and
//! [`crate::dispatch`]'s outer loop does them, so nothing `run`'s loop
//! executes writes its [`Ctx`]. A loop runs **all** its iterations inside
//! one `run` call.
//!
//! # The `Max` program
//!
//! At `Optimizing` a program is one step per non-`Nop` op. At `Max` three
//! rewrites run as the steps are laid out:
//!
//! * A while-shaped loop is *rotated*: where the `Jump` back to a loop
//!   head meets that head's exit guard (after at most two plain steps), an
//!   iteration ends on copies of those steps and the guard, not on a jump
//!   to the head.
//! * One peephole (`fuse`) folds op pairs and triples into twelve of the
//!   fourteen codes that exist only in programs: three load → add-constant
//!   → store triples, four constant + i32-binary pairs, a loop's increment
//!   and test (two), `and` + `br_if` zero, multiply-add, and a scaled f64
//!   load into an add.
//! * *Predication* (`predicate`) makes the other two: a `br_if` zero guard
//!   (or its `and` form) whose taken side skips exactly one accumulate —
//!   that f64 load and add, or an `i32` add of a constant — becomes one
//!   [`Flow::Next`] step that runs the accumulate only when the guard
//!   would fall through, as in HPCG's `if (neighbour in range) sum += …`.
//!
//! **Every branch target is a step boundary**: a rewrite may swallow an op
//! that [`targets`] names only as the first op it replaces, so each target
//! maps to a step that does exactly what the op stream does from there.
//! Steps preserve the op stream's semantics exactly — the differential
//! suites hold `Optimizing` and `Max` to `Baseline`, the independent oracle.

use std::ops::Range;

use crate::dispatch::Ctx;
use crate::error::Trap;
use crate::ops;
use crate::regalloc::{dests, rop, targets, BrDest, Flow, Rc, RegFunc, RegOp};
use crate::tier::Tier;

/// While a program is laid out, a conditional step's `w` when it falls
/// through, and an unused `w` or `x`; [`Chain::build`] turns every
/// fall-through word into the next step's index.
const FALL: u32 = u32::MAX;

/// One pre-decoded step: a [`RegOp`] plus `w`, a conditional step's
/// not-taken control word or a fused step's second destination register,
/// and `x`, a predicated step's second condition register (in what would
/// otherwise be tail padding).
#[derive(Clone, Copy)]
pub(crate) struct ChainStep {
    op: RegOp,
    w: u32,
    x: u32,
}

impl From<RegOp> for ChainStep {
    fn from(op: RegOp) -> Self {
        ChainStep { op, w: FALL, x: FALL }
    }
}

impl ChainStep {
    #[inline(always)]
    pub(crate) fn a(&self) -> u32 {
        self.op.a
    }
    #[inline(always)]
    pub(crate) fn b(&self) -> u32 {
        self.op.b
    }
    #[inline(always)]
    pub(crate) fn c(&self) -> u32 {
        self.op.c
    }
    #[inline(always)]
    pub(crate) fn imm(&self) -> u64 {
        self.op.imm
    }
    #[inline(always)]
    pub(crate) fn aux(&self) -> u8 {
        self.op.aux
    }
    #[inline(always)]
    pub(crate) fn w(&self) -> u32 {
        self.w
    }
    #[inline(always)]
    pub(crate) fn x(&self) -> u32 {
        self.x
    }
}

/// One function's step program.
pub(crate) struct Chain {
    prog: Vec<ChainStep>,
    /// `br_table` destinations, targets as step indices; a `BrTable`
    /// step's `b` indexes here.
    pool: Vec<BrDest>,
    /// The function's v128 constants, which a `V128Const` step's `a`
    /// indexes: with them here, a step reads nothing of the `RegFunc`.
    v128: Vec<u128>,
}

impl Chain {
    /// The op of step `i`: the return or call [`Chain::run`] left at.
    #[inline(always)]
    pub(crate) fn op(&self, i: usize) -> RegOp {
        self.prog[i].op
    }

    /// Pool entry `i` of a `BrTable` step.
    #[inline(always)]
    pub(crate) fn dest(&self, i: usize) -> BrDest {
        self.pool[i]
    }

    /// v128 constant `i`.
    #[inline(always)]
    pub(crate) fn v128(&self, i: u32) -> u128 {
        self.v128[i as usize]
    }

    /// Run from step `at` to the next return or call, and return the index
    /// of the step after it. Loops run inside this loop. `METERED`
    /// (execution limits) compiles the fuel guards at backward transfers
    /// in; `epoch` counts guard points across calls, charged in batches of
    /// 1024.
    #[inline(never)]
    pub(crate) fn run<const METERED: bool>(
        &self,
        ctx: &mut Ctx<'_>,
        at: usize,
        epoch: &mut u32,
    ) -> Result<usize, Trap> {
        let mut guard_epoch = *epoch;
        let mut i = at;
        // A control word: the step to run next. A backward transfer is a
        // fuel guard point: a loop never leaves this loop, so the budget
        // must be enforced here or a runaway guest would be
        // uninterruptible.
        macro_rules! goto {
            ($w:expr) => {{
                let w = $w as usize;
                if METERED && w < i {
                    guard_epoch += 1;
                    if guard_epoch & 1023 == 0 {
                        ctx.inst.fuel_step(1024)?;
                    }
                }
                i = w;
                continue;
            }};
        }
        // Leave after the step just run: a return or a call. Rare beside
        // steps, and the hint keeps what only an exit needs out of the
        // registers the steps use.
        macro_rules! exit {
            () => {{
                std::hint::cold_path();
                if METERED {
                    *epoch = guard_epoch;
                }
                return Ok(i);
            }};
        }
        while let Some(s) = self.prog.get(i) {
            i += 1;
            ops::exec!(&mut *ctx, s.op.code, s, goto, exit);
        }
        // `regalloc::verify` proved no op stream runs off its end, and a
        // program ends where its stream does.
        Err(Trap::host("a step program ran off its end"))
    }

    /// Lower `f` to its program at `tier`: one step per non-`Nop` op, and
    /// at `Max` (and its alias) loop rotation, the peephole and
    /// predication.
    pub(crate) fn build(f: &RegFunc, tier: Tier) -> Chain {
        let Layout { mut prog, at, mut pool, .. } = Layout::new(f, tier != Tier::Optimizing);
        // Branch targets were op ips; each begins a step. A conditional
        // step that falls through names the next step, so every control
        // word `run` sees is a step index.
        for (i, s) in prog.iter_mut().enumerate() {
            let flow = s.op.code.row().flow;
            if flow.has_target() {
                s.op.c = at[s.op.c as usize];
            }
            if flow.conditional() && s.w == FALL {
                s.w = i as u32 + 1;
            }
        }
        for d in &mut pool {
            d.target = at[d.target as usize];
        }
        Chain { prog, pool, v128: f.v128_pool.clone() }
    }
}

/// A program laid out in stream order, its branch targets still op ips.
struct Layout {
    prog: Vec<ChainStep>,
    /// Per step, the ops its first op came with: that op and the `Nop`s
    /// before it (empty for a rotated loop's second and third copies).
    ops: Vec<Range<usize>>,
    /// Per op, the step it begins (meaningless for an op a rewrite
    /// swallowed: no branch goes to one).
    at: Vec<u32>,
    /// Per op, whether some branch goes to it.
    entry: Vec<bool>,
    pool: Vec<BrDest>,
    /// `Max`: rotation, the peephole and predication.
    rewrite: bool,
}

impl Layout {
    fn new(f: &RegFunc, rewrite: bool) -> Layout {
        let n = f.code.len();
        let mut entry = vec![false; n];
        for op in &f.code {
            targets(f, op).for_each(|t| entry[t as usize] = true);
        }
        let mut l = Layout {
            prog: Vec::with_capacity(n),
            ops: Vec::with_capacity(n),
            at: vec![0; n],
            entry,
            pool: Vec::new(),
            rewrite,
        };
        // The first op without a step yet: `Nop`s map to the next op's.
        let mut from = 0;
        for (ip, &op) in f.code.iter().enumerate() {
            let flow = op.code.row().flow;
            let next = match flow {
                _ if op.code == Rc::Nop => continue,
                Flow::Jump | Flow::Br => {
                    let imm = if flow.has_unwind() { op.imm } else { 0 };
                    if imm == 0 && l.rotate(op.c as usize, from..ip + 1) {
                        from = ip + 1;
                        continue;
                    }
                    rop(Rc::Br, 0, 0, op.c, 0, imm).into()
                }
                Flow::Table => {
                    let b = l.pool.len() as u32;
                    l.pool.extend(dests(f, &op));
                    RegOp { b, ..op }.into()
                }
                _ => op.into(),
            };
            l.emit(next, from..ip + 1);
            from = ip + 1;
        }
        l
    }

    /// Whether a branch enters step `k`.
    fn entered(&self, k: usize) -> bool {
        self.entry[self.ops[k].clone()].contains(&true)
    }

    /// Append `next`, made from `ops`. First a guard that skips the last
    /// step to `next` is predicated, then the peephole runs; neither
    /// swallows a step a branch enters, unless as the first it replaces.
    fn emit(&mut self, next: ChainStep, ops: Range<usize>) {
        let entered = self.entry[ops.clone()].contains(&true);
        if self.rewrite {
            let last = self.prog.len().wrapping_sub(1);
            if let Some(p) = predicate(&self.prog, &ops).filter(|_| !self.entered(last)) {
                self.splice(2, p);
            }
            let last = self.prog.len().wrapping_sub(1);
            let free = |n: usize| !entered && (n == 1 || !self.entered(last));
            if let Some((n, fused)) = fuse(&self.prog, next).filter(|&(n, _)| free(n)) {
                self.splice(n, fused);
                self.at[ops].fill(last as u32 + 1 - n as u32);
                return;
            }
        }
        self.at[ops.clone()].fill(self.prog.len() as u32);
        self.prog.push(next);
        self.ops.push(ops);
    }

    /// Replace the last `n` steps by `step`, which keeps the first one's
    /// ops.
    fn splice(&mut self, n: usize, step: ChainStep) {
        let slot = self.prog.len() - n;
        self.prog.truncate(slot + 1);
        self.ops.truncate(slot + 1);
        self.prog[slot] = step;
    }

    /// At `Max`, end a while-shaped loop's iteration at its `Jump` (from
    /// `ops`) back to `head` on copies of the head's steps, when the head
    /// opens with at most two plain steps and then its exit guard, not
    /// on a jump to the head. The copied guard's not-taken word goes back
    /// to the step after the original: it is the loop's fuel guard point.
    fn rotate(&mut self, head: usize, ops: Range<usize>) -> bool {
        if !self.rewrite || head >= ops.start {
            return false;
        }
        let h = self.at[head] as usize;
        let control = |s: &ChainStep| s.op.code.row().flow != Flow::Next;
        let Some(g) = self.prog[h..].iter().take(3).position(control).map(|g| h + g) else {
            return false;
        };
        let guard = self.prog[g];
        if !guard.op.code.row().flow.conditional() || guard.w != FALL {
            return false;
        }
        let start = self.prog.len();
        let empty = ops.end..ops.end;
        self.prog.extend_from_within(h..g);
        self.ops.extend((h..g).map(|k| if k == h { ops.clone() } else { empty.clone() }));
        let copy = ChainStep { w: g as u32 + 1, ..guard };
        if g == h {
            self.emit(copy, ops);
        } else {
            self.emit(copy, empty);
            self.at[ops].fill(start as u32);
        }
        true
    }
}

/// The peephole: `next` — a plain op, or a guard with both words baked —
/// fused with the steps that end `prog` into one step, and how many of
/// those trailing steps it replaces. Every row keeps what the unfused ops
/// would leave: each register they wrote is still written, a trap fires
/// before any write, and a guard fuses only when it has no unwind copy.
/// ([`Layout::emit`] keeps it from swallowing a step a branch enters.)
fn fuse(prog: &[ChainStep], next: ChainStep) -> Option<(usize, ChainStep)> {
    use Rc::*;
    let (q, n) = (prog.last()?.op, next.op);
    let step = |code, a, b, c, aux, imm, w| ChainStep { w, ..rop(code, a, b, c, aux, imm).into() };
    match (q.code, n.code) {
        // `Const` feeding the divisor / shift / factor of an i32 op. The
        // constant must round-trip as an i32 slot for its write to stay
        // exact (regalloc emits i32 consts zero-extended).
        (Const, Mul32 | ShrU32 | DivU32 | RemU32) if q.imm >> 32 == 0 => {
            let code = match n.code {
                Mul32 => MulK32R,
                ShrU32 => ShrUK32R,
                DivU32 => DivUK32R,
                _ => RemUK32R,
            };
            let a = match (n.a == q.c, n.b == q.c) {
                (false, true) => n.a,
                (true, false) if code == MulK32R => n.b,
                _ => return None,
            };
            Some((1, step(code, a, q.imm as u32, n.c, 0, 0, q.c)))
        }
        // `load; add k; store` over one address, checked once. The loaded
        // (`t`) and stored (`u`) registers must not be address registers,
        // or the store's address would see the updated values.
        (AddK32, Store32ShlK | Store32Shl | Store32) => {
            let [.., ChainStep { op: ld, .. }, _] = *prog else { return None };
            let (t, u) = (ld.c, n.b);
            if q.a != t || q.c != u || ld.a != n.a || ld.aux != n.aux || t == n.a || u == n.a {
                return None;
            }
            let (code, b, imm) = match (ld.code, n.code) {
                (Load32ShlK, Store32ShlK) if ld.imm == n.imm => (RmwShlK32, q.b, n.imm),
                (Load32Shl, Store32Shl)
                    if ld.b == n.c && ld.imm as u32 == n.imm as u32 && t != n.c && u != n.c =>
                {
                    (RmwShl32, n.c, n.imm as u32 as u64 | (q.b as u64) << 32)
                }
                (Load32, Store32) if ld.imm == n.imm && ld.imm >> 32 == 0 => (RmwReg32, q.b, n.imm),
                _ => return None,
            };
            Some((2, step(code, n.a, b, t, n.aux, imm, u)))
        }
        // A loop's `r += k` and its test of `r`.
        (AddK32, BrIfCmp32K | BrIfCmp32) if q.a == q.c && n.a == q.c && n.imm == 0 => {
            let code = if n.code == BrIfCmp32K { AddKBrIfCmp32K } else { AddKBrIfCmp32 };
            Some((1, step(code, q.a, n.b, n.c, n.aux, q.b as u64, next.w)))
        }
        (And32, BrIfZ) if n.a == q.c && n.imm == 0 => {
            Some((1, step(AndBrIfZ, q.a, q.b, n.c, 0, q.c as u64, next.w)))
        }
        (Mul32, Add32) if n.a == q.c || n.b == q.c => {
            let x = if n.a == q.c { n.b } else { n.a };
            Some((1, step(MulAdd32, q.a, q.b, n.c, 0, x as u64, q.c)))
        }
        // Only `acc + t`: operand order decides which NaN payload survives.
        (Load64ShlK, AddF64) if n.b == q.c => {
            Some((1, step(LoadAddF64ShlK, q.a, n.a, n.c, q.aux, q.imm, q.c)))
        }
        _ => None,
    }
}

/// Predication: a guard whose taken side is the op emitted next (from
/// `ops`) and whose fall-through is the one step before it, as one step
/// that runs that step only when the guard would not branch: `Flow::Next`
/// on both sides. The guard is a `BrIfZ` with no unwind copy (an `and` of
/// its register with itself, into itself) or an `AndBrIfZ` (whose
/// register is written either way); the step an accumulate into its own
/// operand, a `LoadAddF64ShlK` with no memarg offset (the low half of
/// `imm` names the `and` register instead) or an `AddK32`.
fn predicate(prog: &[ChainStep], ops: &Range<usize>) -> Option<ChainStep> {
    use Rc::*;
    let [.., g, s] = *prog else { return None };
    if g.w != FALL || !ops.contains(&(g.op.c as usize)) {
        return None;
    }
    let (c, x, and) = match g.op.code {
        BrIfZ if g.op.imm == 0 => (g.op.a, g.op.a, g.op.a),
        AndBrIfZ => (g.op.a, g.op.b, g.op.imm as u32),
        _ => return None,
    };
    let n = s.op;
    let op = match n.code {
        LoadAddF64ShlK if n.b == n.c && n.imm as u32 == 0 => {
            rop(LoadAddF64ShlKIf, n.a, n.b, c, n.aux, n.imm | and as u64)
        }
        AddK32 if n.a == n.c => rop(AddK32If, n.a, n.b, c, 0, and as u64),
        _ => return None,
    };
    Some(ChainStep { op, w: s.w, x })
}

#[cfg(test)]
mod tests {
    use super::{Chain, Layout, Rc};
    use crate::builder::ModuleBuilder;
    use crate::dsl;
    use crate::regalloc::{targets, RegFunc};
    use crate::runtime::{CompiledModule, Linker, Value};
    use crate::tier::{CompiledBody, Tier};
    use crate::types::ValType;

    /// A loop-heavy function (sum of i*i plus a memory histogram).
    fn sum_squares_module() -> crate::module::Module {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(1));
        b.func("run", vec![ValType::I32], vec![ValType::I32], |f| {
            let n = dsl::local(0, ValType::I32);
            let i = dsl::Var::new(f, ValType::I32);
            let acc = dsl::Var::new(f, ValType::I32);
            let stmts = vec![
                dsl::for_range(
                    i,
                    dsl::int(0),
                    n.get(),
                    &[
                        acc.set(acc.get() + i.get() * i.get()),
                        dsl::store(i.get().shl(dsl::int(2)), 64, acc.get()),
                    ],
                ),
                dsl::ret(Some(acc.get() + i.get().shl(dsl::int(2)).load(ValType::I32, 64))),
            ];
            dsl::emit_block(f, &stmts);
        });
        b.finish()
    }

    fn invoke(tier: Tier, arg: i32) -> i32 {
        let module = sum_squares_module();
        crate::validate::validate_module(&module).unwrap();
        let compiled = CompiledModule::compile(module, tier).unwrap();
        let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        let out = inst.invoke("run", &[Value::I32(arg)]).unwrap();
        match out[0] {
            Value::I32(v) => v,
            ref other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn chains_match_the_interpreter_on_a_hot_loop() {
        for arg in [0, 1, 7, 100] {
            let want = invoke(Tier::Baseline, arg);
            for tier in [Tier::Optimizing, Tier::Max] {
                assert_eq!(invoke(tier, arg), want, "arg {arg} at {tier}");
            }
        }
    }

    #[test]
    fn chain_steps_are_32_bytes() {
        assert_eq!(std::mem::size_of::<super::ChainStep>(), 32);
    }

    /// The register form of every function of `wasm` at `tier`.
    fn reg_funcs(wasm: &[u8], tier: Tier) -> Vec<RegFunc> {
        let compiled = CompiledModule::compile(crate::decode_module(wasm).unwrap(), tier).unwrap();
        let flat = |body: &CompiledBody| match body {
            CompiledBody::Flat(f) => f.clone(),
            CompiledBody::Interp(_) => panic!("flat tier expected"),
        };
        compiled.bodies().unwrap().into_iter().map(flat).collect()
    }

    fn hpcg() -> Vec<u8> {
        use hpc_benchmarks::hpcg;
        hpcg::build_guest(hpcg::HpcgParams { nx: 24, ny: 24, nz: 24, iters: 10 })
    }

    fn is() -> Vec<u8> {
        use hpc_benchmarks::npb_is;
        npb_is::build_guest(npb_is::IsParams { keys_per_rank: 1 << 18, max_key: 1 << 16, iters: 4 })
    }

    /// For each of `prog`'s innermost loops, in program order, the steps
    /// one iteration runs: a loop is a step some backward branch goes to,
    /// up to the last such branch, and holds no other loop. The hot loops
    /// measured here lay their iteration out straight.
    fn steps_per_iteration(prog: &Chain) -> Vec<usize> {
        let back = |(i, s): (usize, &super::ChainStep)| {
            let branch = s.op.code.row().flow.has_target();
            let words = [s.op.c, s.w].into_iter().filter(move |&w| branch && w as usize <= i);
            words.map(move |w| (w as usize, i))
        };
        let mut loops: Vec<(usize, usize)> = Vec::new();
        for (head, end) in prog.prog.iter().enumerate().flat_map(back) {
            match loops.iter_mut().find(|l| l.0 == head) {
                Some(l) => l.1 = l.1.max(end),
                None => loops.push((head, end)),
            }
        }
        let inner = |&(h, e): &(usize, usize)| {
            !loops.iter().any(|&(h2, e2)| (h2, e2) != (h, e) && h <= h2 && e2 <= e)
        };
        let mut inner: Vec<_> = loops.iter().copied().filter(inner).collect();
        inner.sort_unstable();
        inner.into_iter().map(|(h, e)| e + 1 - h).collect()
    }

    /// The deterministic twin of `Max`'s speed on the benchmark's HPCG and
    /// IS guests: the steps their hot loops run per iteration, after loop
    /// rotation, the peephole and predication. (Before any: 131 for the
    /// SpMV cell, 8 + 6 + 10 + 13 + 13 = 50 for IS's key loops.)
    #[test]
    fn hot_loops_run_in_few_steps() {
        let progs: Vec<Chain> =
            reg_funcs(&hpcg(), Tier::Max).iter().map(|f| Chain::build(f, Tier::Max)).collect();
        // The SpMV cell is the guest's longest innermost loop by far.
        let spmv = progs.iter().flat_map(steps_per_iteration).max().expect("a loop");
        assert!(spmv <= 61, "SpMV cell: {spmv} steps per iteration");
        // Each of its 26 neighbours is one guarded accumulate.
        let predicated =
            |p: &Chain| p.prog.iter().filter(|s| s.op.code == Rc::LoadAddF64ShlKIf).count();
        assert_eq!(progs.iter().map(predicated).max(), Some(26), "predicated SpMV steps");
        let is = reg_funcs(&is(), Tier::Max);
        // `_start`'s loops in order: key generation, zeroing the counts,
        // histogram, bucket maximum, zeroing the fill cursors, pack,
        // zeroing the histogram, sort, verify. The five per-key ones:
        let loops = steps_per_iteration(&Chain::build(&is[0], Tier::Max));
        assert_eq!(loops.len(), 9, "{loops:?}");
        let keys: usize = [0, 2, 5, 7, 8].iter().map(|&k| loops[k]).sum();
        assert!(keys <= 36, "IS key loops: {keys} steps per iteration ({loops:?})");
    }

    /// `Optimizing` runs the register stream as it is: one step per op
    /// that is not a `Nop`.
    #[test]
    fn optimizing_runs_one_step_per_op() {
        let funcs = [reg_funcs(&hpcg(), Tier::Optimizing), reg_funcs(&is(), Tier::Optimizing)];
        for f in funcs.iter().flatten() {
            let ops = f.code.iter().filter(|op| op.code != Rc::Nop).count();
            assert_eq!(Chain::build(f, Tier::Optimizing).prog.len(), ops);
        }
    }

    /// Whole-function lowering's invariant: every op a branch can go to
    /// begins a step — no rewrite swallowed it as a second or third op —
    /// on the benchmark's HPCG, IS and (SIMD) DT guests.
    #[test]
    fn every_branch_target_begins_a_step() {
        use hpc_benchmarks::npb_dt;
        let dt = npb_dt::build_guest(npb_dt::DtParams { simd: true, ..Default::default() });
        for wasm in [hpcg(), is(), dt] {
            for tier in [Tier::Optimizing, Tier::Max] {
                for f in reg_funcs(&wasm, tier) {
                    let l = Layout::new(&f, tier == Tier::Max);
                    for t in f.code.iter().flat_map(|op| targets(&f, op)) {
                        let k = l.at[t as usize] as usize;
                        assert!(l.ops[k].contains(&(t as usize)), "op {t} at {tier}: step {k}");
                    }
                }
            }
        }
    }
}

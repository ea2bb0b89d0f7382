//! Superblock lowering: each trace from [`crate::superblock`] becomes a
//! **compiled chain** — the execution half of the profile-guided top
//! tier ([`crate::tier::Tier::MaxJit`]).
//!
//! # Chains
//!
//! A [`Chain`] is a flat program of 32-byte [`ChainStep`]s, one per trace
//! op, each carrying everything the interpreter would have fetched per op
//! — opcode, registers, immediates — decoded once at build time.
//! [`Chain::run`] is one out-of-line loop whose only `match` is the op
//! table [`crate::ops::exec`] itself, expanded over the step's opcode: no
//! op fetch from the stream and no indirect call, where the threaded
//! dispatch loop pays both per op. Every op a trace can hold (a
//! [`Flow::Next`] op, or a branch) has its arm there, so there is no
//! fallback step form.
//!
//! Control flow inside a chain uses baked **control words**: a step
//! either falls through ([`FALL`]), or — guards, the in-chain backedge —
//! yields the index of the next step (for a loop backedge, index 0), or,
//! with the [`EXIT`] bit set, the op-stream ip at which the threaded
//! interpreter resumes. A guard is its conditional branch's own opcode
//! with both continuations in `c` (taken) and `w` (not taken); the
//! unconditional in-chain transfers are `Br` steps whose target is a step
//! index (or [`FALL`] for an unwind copy that continues in line). A loop
//! whose backedge guard stays in-chain runs **all** its iterations inside
//! one [`Chain::run`] call.
//!
//! A while-shaped loop whose chain opens with its exit guard is *rotated*:
//! an iteration ends on a copy of that guard (and of the at most two steps
//! before it), not on a `Br` to step 0. One peephole (`fuse`) folds op
//! pairs and triples into twelve of the fourteen codes that exist only
//! here: three load → add-constant → store triples, four constant +
//! i32-binary pairs, a loop's increment and test (two), `and` + `br_if`
//! zero, multiply-add, and a scaled f64 load into an add. *Predication*
//! (`predicate`) makes the other two: a `br_if` zero guard (or its `and`
//! form) whose taken side skips exactly one accumulate — that f64 load and
//! add, or an `i32` add of a constant — to the next step becomes one
//! [`Flow::Next`] step that runs the accumulate only when the guard would
//! fall through, as in HPCG's `if (neighbour in range) sum += …`. Steps
//! preserve interpreter semantics exactly — the differential suites drive
//! every tier over the same programs, including guard-exit paths that bail
//! mid-chain.

use crate::dispatch::Ctx;
use crate::error::Trap;
use crate::ops::{self, Operands, FALL};
use crate::regalloc::{rop, Flow, Rc, RegFunc, RegOp};
use crate::superblock::{self, Step, Superblock};

/// Control-word bit distinguishing "resume the interpreter at ip
/// `word & !EXIT`" from "run step `word` next". Op streams are far below
/// 2^31 ops, so the bit is always free.
const EXIT: u32 = 1 << 31;

/// One pre-decoded chain step: a [`RegOp`] plus `w`, a guard's not-taken
/// control word or a fused step's second destination register, and `x`, a
/// predicated step's second condition register (in what would otherwise
/// be tail padding).
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

impl Operands for ChainStep {
    #[inline(always)]
    fn op(&self) -> &RegOp {
        &self.op
    }
    #[inline(always)]
    fn w(&self) -> u32 {
        self.w
    }
    #[inline(always)]
    fn x(&self) -> u32 {
        self.x
    }
}

/// One compiled superblock: a flat pre-decoded step program plus the
/// interpreter ip to resume at when execution runs off the end.
pub(crate) struct Chain {
    prog: Vec<ChainStep>,
    resume: u32,
}

impl Chain {
    /// Execute the chain and return the ip the interpreter resumes at; a
    /// resume through a guard's bail-out side adds one to `exits`. Loop
    /// backedges jump to step 0 without leaving this loop. `METERED`
    /// (execution limits) compiles the backedge fuel guards in.
    #[inline(never)]
    pub(crate) fn run<const METERED: bool>(
        &self,
        ctx: &mut Ctx<'_>,
        exits: &mut u64,
    ) -> Result<usize, Trap> {
        let mut guard_epoch = 0u32;
        let mut i = 0usize;
        // A control word: fall through, leave the chain, or re-aim `i`. An
        // in-chain backward transfer is a fuel guard point: a fully chained
        // loop never returns to `run_jit`, so the budget must be enforced
        // here or a runaway guest would be uninterruptible at the top tier.
        macro_rules! goto {
            ($w:expr) => {{
                let w: u32 = $w;
                if w != FALL {
                    if w & EXIT != 0 {
                        *exits += 1;
                        return Ok((w & !EXIT) as usize);
                    }
                    if METERED && (w as usize) < i {
                        guard_epoch += 1;
                        if guard_epoch & 1023 == 0 {
                            ctx.inst.fuel_step(1024)?;
                        }
                    }
                    i = w as usize;
                }
                continue;
            }};
        }
        while let Some(s) = self.prog.get(i) {
            i += 1;
            ops::exec!(&mut *ctx, s.op.code, s, goto);
        }
        Ok(self.resume as usize)
    }
}

/// All compiled superblocks of one function, indexed by head ip.
pub(crate) struct FnChains {
    /// `ip -> chain index + 1`; 0 = no chain heads here. Same length as
    /// the function's op stream.
    entry: Vec<u32>,
    chains: Vec<Chain>,
}

impl FnChains {
    #[inline(always)]
    pub(crate) fn lookup(&self, ip: usize) -> Option<&Chain> {
        match self.entry.get(ip) {
            Some(&e) if e != 0 => Some(&self.chains[(e - 1) as usize]),
            _ => None,
        }
    }

    /// Number of compiled chains (introspection / tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.chains.len()
    }
}

/// Compile every superblock of `f` into a chain.
pub(crate) fn compile_fn(f: &RegFunc) -> FnChains {
    let blocks = superblock::discover(f);
    let mut entry = vec![0u32; f.code.len()];
    let mut chains = Vec::with_capacity(blocks.len());
    for b in &blocks {
        chains.push(build_chain(b));
        entry[b.head as usize] = chains.len() as u32;
    }
    FnChains { entry, chains }
}

/// The peephole: `next` — a plain op, or a guard with both words baked —
/// fused with the steps that end `prog` into one step, and how many of
/// those trailing steps it replaces. Every row keeps what the unfused ops
/// would leave: each register they wrote is still written, a trap fires
/// before any write, and a guard fuses only when it has no unwind copy.
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

/// Predication: a guard whose taken side is op `ip`, the op emitted next,
/// and whose fall-through is the one step before it, as one step that
/// runs that step only when the guard would not branch: `Flow::Next` on
/// both sides. The guard is a `BrIfZ` with no unwind copy (an `and` of
/// its register with itself, into itself) or an `AndBrIfZ` (whose
/// register is written either way); the step an accumulate into its own
/// operand, a `LoadAddF64ShlK` with no memarg offset (the low half of
/// `imm` names the `and` register instead) or an `AddK32`. The skipped
/// step's ip stops resolving in-chain, so a pair that an earlier guard of
/// the chain exits into stays two steps: that guard would leave the chain
/// instead.
fn predicate(prog: &[ChainStep], at: &[(u32, u32)], ip: u32) -> Option<ChainStep> {
    use Rc::*;
    let [.., g, s] = *prog else { return None };
    let skipped = (prog.len() - 1) as u32;
    let into_skipped = |w: u32| at.iter().any(|&(op_ip, idx)| idx == skipped && w == EXIT | op_ip);
    let guards = prog.iter().filter(|t| t.op.code.row().flow.conditional());
    if g.w != FALL || g.op.c != EXIT | ip || guards.flat_map(|t| [t.op.c, t.w]).any(into_skipped) {
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

/// Lower the trace front to back. Guards bake their control words: a
/// guard on the trace's own loop backedge points back at step 0, and
/// every bail-out side carries `EXIT | ip` — unless the bail target's op
/// is itself materialized later in this chain (an `if`-skip join point),
/// in which case the word is patched to the in-chain step index and the
/// "unlikely" side never leaves the chain either.
fn build_chain(b: &Superblock) -> Chain {
    let mut prog: Vec<ChainStep> = Vec::with_capacity(b.steps.len());
    // First step index materializing each op ip, for bail-target patching.
    let mut at: Vec<(u32, u32)> = Vec::new();
    // A conditional branch with both continuations baked.
    let guard =
        |op: RegOp, taken, not_taken| ChainStep { w: not_taken, ..RegOp { c: taken, ..op }.into() };
    // An unconditional transfer: its unwind copy, then `to`.
    let br = |imm, to| ChainStep::from(rop(Rc::Br, 0, 0, to, 0, imm));
    // A fused step takes the slot of the first of the `n` steps it
    // replaces, and only that op's ip still resolves in-chain: guards
    // exiting at an interior ip fall back to the interpreter.
    let splice = |prog: &mut Vec<ChainStep>, at: &mut Vec<(u32, u32)>, n: usize, fused| {
        let slot = prog.len() - n;
        prog.truncate(slot);
        at.retain(|&(_, idx)| idx <= slot as u32);
        prog.push(fused);
    };
    // Append `next` (from op `ip`, if it resolves in-chain): first a guard
    // that skips the last step to `ip` is predicated, then the peephole.
    let emit = |prog: &mut Vec<ChainStep>, at: &mut Vec<(u32, u32)>, next, ip: Option<u32>| {
        if let Some(p) = ip.and_then(|ip| predicate(prog, at, ip)) {
            splice(prog, at, 2, p);
        }
        if let Some((n, fused)) = fuse(prog, next) {
            splice(prog, at, n, fused);
        } else {
            at.extend(ip.map(|ip| (ip, prog.len() as u32)));
            prog.push(next);
        }
    };
    for step in &b.steps {
        let (next, ip) = match *step {
            // Nops emit nothing: the previous step falls through to
            // whatever is emitted next.
            Step::Op { op, .. } if op.code == Rc::Nop => continue,
            Step::Op { op, ip } => (op.into(), ip),
            Step::Unwind { imm } => {
                prog.push(br(imm, FALL));
                continue;
            }
            // An unconditional while-shaped backedge re-enters the chain
            // without leaving `run`. A chain that opens with at most two
            // plain steps and then its exit guard ends the iteration on
            // copies of those, not a `Br` to step 0: the copied guard's
            // not-taken word, back to the step after the head guard, is
            // the loop's fuel guard point.
            Step::Backedge { imm } => {
                // A `Br` or a guard.
                let control = |s: &ChainStep| s.op.code.row().flow != Flow::Next;
                let g = prog.iter().take(3).position(control);
                let guard_at = |g: usize| prog[g].op.code.row().flow.conditional();
                match g.filter(|&g| imm == 0 && guard_at(g) && prog[g].w == FALL) {
                    Some(g) => {
                        prog.extend_from_within(..g);
                        let copy = ChainStep { w: g as u32 + 1, ..prog[g] };
                        emit(&mut prog, &mut at, copy, None);
                    }
                    None => prog.push(br(imm, 0)),
                }
                continue;
            }
            // The guard on the trace's own backedge re-enters the chain
            // at step 0, keeping every loop iteration in-chain.
            // A guard is as much a bail target as a plain op: a skipped
            // `if` often lands on the next one's branch, its condition
            // already sitting in a local.
            Step::GuardTaken { op, fall_ip } => {
                (guard(op, if op.c == b.head { 0 } else { FALL }, EXIT | fall_ip), fall_ip - 1)
            }
            Step::GuardFall { op, ip } => (guard(op, EXIT | op.c, FALL), ip),
        };
        emit(&mut prog, &mut at, next, Some(ip));
    }
    // Redirect guard exits whose target op lives in this chain: running
    // the chain from that step is exactly the interpreter resuming at
    // that ip (each step replicates its op with identical effects).
    let resolve = |word: u32| -> u32 {
        if word != FALL && word & EXIT != 0 {
            if let Some(&(_, idx)) = at.iter().find(|&&(ip, _)| ip == word & !EXIT) {
                return idx;
            }
        }
        word
    };
    for s in &mut prog {
        if s.op.code.row().flow.conditional() {
            s.op.c = resolve(s.op.c);
            s.w = resolve(s.w);
        }
    }
    Chain { prog, resume: b.resume }
}

#[cfg(test)]
mod tests {
    use crate::builder::ModuleBuilder;
    use crate::dsl;
    use crate::runtime::{CompiledModule, Linker, Value};
    use crate::tier::Tier;
    use crate::types::ValType;

    /// A loop-heavy function (sum of i*i plus a memory histogram) run on
    /// Max and on MaxJit with the promotion threshold at 1, so the very
    /// first invocation compiles and executes chains — including the
    /// loop-backedge guard exit on the final iteration.
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

    fn invoke(tier: Tier, threshold: Option<u32>, arg: i32) -> i32 {
        let module = sum_squares_module();
        crate::validate::validate_module(&module).unwrap();
        let compiled = CompiledModule::compile(module, tier).unwrap();
        if let Some(t) = threshold {
            compiled.set_jit_threshold(t);
        }
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
            let max = invoke(Tier::Max, None, arg);
            let jit = invoke(Tier::MaxJit, Some(1), arg);
            assert_eq!(max, jit, "arg {arg}");
        }
    }

    #[test]
    fn cold_functions_never_compile_chains() {
        // Default threshold: a single short invocation stays interpreted
        // (same result, no promotion).
        let max = invoke(Tier::Max, None, 5);
        let jit = invoke(Tier::MaxJit, None, 5);
        assert_eq!(max, jit);
    }

    #[test]
    fn chain_steps_are_32_bytes() {
        assert_eq!(std::mem::size_of::<super::ChainStep>(), 32);
    }

    /// For each function of `wasm` at `MaxJit`, the steps one iteration of
    /// each in-chain loop runs, chains in head order. A chain lays its
    /// likely path out straight, so an iteration is every step from the
    /// one the loop-closing word (the last step's) goes back to, to the end.
    fn steps_per_iteration(wasm: &[u8]) -> Vec<Vec<usize>> {
        use super::{Flow, EXIT};
        let module = crate::decode_module(wasm).unwrap();
        let compiled = CompiledModule::compile(module, Tier::MaxJit).unwrap();
        let per_loop = |ch: &super::Chain| {
            let (last, s) = (ch.prog.len() - 1, ch.prog.last()?);
            let to = [s.w, s.op.c].into_iter().find(|&w| w & EXIT == 0 && w as usize <= last)?;
            (s.op.code.row().flow != Flow::Next).then(|| last + 1 - to as usize)
        };
        let loops = |body: &crate::tier::CompiledBody| match body {
            crate::tier::CompiledBody::Flat(f) => {
                super::compile_fn(f).chains.iter().filter_map(per_loop).collect()
            }
            _ => panic!("flat tier expected"),
        };
        compiled.bodies().unwrap().into_iter().map(loops).collect()
    }

    /// The deterministic twin of the chain tier's speed on the benchmark's
    /// HPCG and IS guests: the steps their hot loops run per iteration,
    /// after loop rotation, the peephole and predication. (Before any:
    /// 131 for the SpMV cell, 8 + 6 + 10 + 13 + 13 = 50 for IS's key loops.)
    #[test]
    fn hot_loops_run_in_few_steps() {
        use hpc_benchmarks::{hpcg, npb_is};
        let hpcg = hpcg::build_guest(hpcg::HpcgParams { nx: 24, ny: 24, nz: 24, iters: 10 });
        // The SpMV cell is the guest's longest loop by far.
        let spmv = steps_per_iteration(&hpcg).into_iter().flatten().max().expect("a loop");
        assert!(spmv <= 61, "SpMV cell: {spmv} steps per iteration");
        // Each of its 26 neighbours is one guarded accumulate.
        let module = crate::decode_module(&hpcg).unwrap();
        let compiled = CompiledModule::compile(module, Tier::MaxJit).unwrap();
        let predicated = |ch: &super::Chain| {
            ch.prog.iter().filter(|s| s.op.code == super::Rc::LoadAddF64ShlKIf).count()
        };
        let most = compiled.bodies().unwrap().into_iter().filter_map(|body| match body {
            crate::tier::CompiledBody::Flat(f) => {
                super::compile_fn(f).chains.iter().map(predicated).max()
            }
            _ => None,
        });
        assert_eq!(most.max(), Some(26), "predicated steps in the SpMV chain");
        let is = npb_is::IsParams { keys_per_rank: 1 << 18, max_key: 1 << 16, iters: 4 };
        let is = steps_per_iteration(&npb_is::build_guest(is));
        // `_start`'s loops in order: key generation, zeroing the counts,
        // histogram, bucket maximum, zeroing the fill cursors, pack,
        // zeroing the histogram, sort, verify. The five per-key ones:
        let loops = &is[0];
        assert_eq!(loops.len(), 9, "{loops:?}");
        let keys: usize = [0, 2, 5, 7, 8].iter().map(|&k| loops[k]).sum();
        assert!(keys <= 36, "IS key loops: {keys} steps per iteration ({loops:?})");
    }

    #[test]
    fn compile_fn_produces_chains_for_loops() {
        use crate::tier::CompiledBody;
        let module = sum_squares_module();
        crate::validate::validate_module(&module).unwrap();
        let compiled = CompiledModule::compile(module, Tier::MaxJit).unwrap();
        let CompiledBody::Flat(f) = compiled.bodies().unwrap()[0] else {
            panic!("flat tier expected");
        };
        let chains = super::compile_fn(f);
        assert!(chains.len() >= 1, "loop function should yield at least one superblock");
    }
}

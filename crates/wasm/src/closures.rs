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
//! dispatch loop pays both per op. Every op a trace can hold
//! ([`crate::regalloc::window_safe`]) has its arm there, so there is no
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
//! Six opcodes exist only here: two load → add-constant → store triples
//! over one address (`fuse_rmw`) and four constant + i32-binary pairs
//! (`fuse_kbin`). Steps preserve interpreter semantics exactly — the
//! differential suites drive every tier over the same programs, including
//! guard-exit paths that bail mid-chain.

use crate::dispatch::Ctx;
use crate::error::Trap;
use crate::ops::{self, Operands, FALL};
use crate::regalloc::{rop, Rc, RegFunc, RegOp};
use crate::superblock::{self, Step, Superblock};

/// Control-word bit distinguishing "resume the interpreter at ip
/// `word & !EXIT`" from "run step `word` next". Op streams are far below
/// 2^31 ops, so the bit is always free.
const EXIT: u32 = 1 << 31;

/// One pre-decoded chain step: a [`RegOp`] plus `w`, a guard's not-taken
/// control word or a fused step's second destination register.
#[derive(Clone, Copy)]
pub(crate) struct ChainStep {
    op: RegOp,
    w: u32,
}

impl From<RegOp> for ChainStep {
    fn from(op: RegOp) -> Self {
        ChainStep { op, w: FALL }
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

/// Recognize the store completing a `load; add-const; store` triple over
/// the same address with no intervening step, and return the fused RMW
/// step. Requires the loaded (`t`) and stored (`u`) registers to be
/// distinct from the address registers — otherwise the store's address
/// would see the updated values and the one-shot address computation
/// would diverge from the interpreter.
fn fuse_rmw(prog: &[ChainStep], st: &RegOp) -> Option<ChainStep> {
    let [.., ChainStep { op: ld, .. }, ChainStep { op: add, .. }] = prog else {
        return None;
    };
    let (t, u) = (ld.c, st.b);
    if add.code != Rc::AddK32 || add.a != t || add.c != u || ld.a != st.a || ld.aux != st.aux {
        return None;
    }
    if t == st.a || u == st.a {
        return None;
    }
    let (code, b, imm) = match (ld.code, st.code) {
        (Rc::Load32ShlK, Rc::Store32ShlK) if ld.imm == st.imm => (Rc::RmwShlK32, add.b, st.imm),
        (Rc::Load32Shl, Rc::Store32Shl)
            if ld.b == st.c && ld.imm as u32 == st.imm as u32 && t != st.c && u != st.c =>
        {
            (Rc::RmwShl32, st.c, st.imm as u32 as u64 | (add.b as u64) << 32)
        }
        _ => return None,
    };
    Some(ChainStep { op: rop(code, st.a, b, t, st.aux, imm), w: u })
}

/// Recognize a `Const` immediately feeding the divisor/shift/factor
/// operand of the next i32 binary op and fuse the pair into one step. The
/// constant register is still written by the fused step, so interpreter
/// state at any later guard exit is unchanged.
fn fuse_kbin(prog: &[ChainStep], op: &RegOp) -> Option<ChainStep> {
    let k = prog.last().map(|s| s.op).filter(|k| k.code == Rc::Const)?;
    // The constant must round-trip as an i32 slot for the rewrite of the
    // `r` write to be exact (regalloc emits i32 consts zero-extended).
    if k.imm >> 32 != 0 {
        return None;
    }
    let r = k.c;
    let code = match op.code {
        Rc::Mul32 => Rc::MulK32R,
        Rc::ShrU32 => Rc::ShrUK32R,
        Rc::DivU32 => Rc::DivUK32R,
        Rc::RemU32 => Rc::RemUK32R,
        _ => return None,
    };
    let a = match (op.a == r, op.b == r) {
        (false, true) => op.a,
        (true, false) if code == Rc::MulK32R => op.b,
        _ => return None,
    };
    Some(ChainStep { op: rop(code, a, k.imm as u32, op.c, 0, 0), w: r })
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
        |op: RegOp, taken, not_taken| ChainStep { op: RegOp { c: taken, ..op }, w: not_taken };
    // An unconditional transfer: its unwind copy, then `to`.
    let br = |imm, to| ChainStep::from(rop(Rc::Br, 0, 0, to, 0, imm));
    for step in &b.steps {
        let s = match *step {
            // Nops emit nothing: the previous step falls through to
            // whatever is emitted next.
            Step::Op { op, .. } if op.code == Rc::Nop => continue,
            Step::Op { op, ip } => {
                if let Some(fused) = fuse_kbin(&prog, &op) {
                    // Replace the trailing Const and this op with the
                    // fused pair at the Const's slot; this op's ip no
                    // longer resolves in-chain.
                    prog.pop();
                    prog.push(fused);
                    continue;
                }
                if let Some(fused) = fuse_rmw(&prog, &op) {
                    // The store completes a load → add-k → store RMW over
                    // one address: collapse all three into the load's
                    // slot. Entering at the load's ip still runs the whole
                    // triple; the two interior ips stop resolving in-chain
                    // (guards exiting there fall back to the interpreter).
                    let n = prog.len() - 2;
                    prog.truncate(n);
                    at.retain(|&(_, idx)| idx <= n as u32);
                    prog.push(fused);
                    continue;
                }
                at.push((ip, prog.len() as u32));
                op.into()
            }
            Step::Unwind { imm } => br(imm, FALL),
            // An unconditional while-shaped backedge: unwind, then
            // re-enter the chain at step 0 without leaving `run`.
            Step::Backedge { imm } => br(imm, 0),
            // The guard on the trace's own backedge re-enters the chain
            // at step 0, keeping every loop iteration in-chain.
            // A guard is as much a bail target as a plain op: a skipped
            // `if` often lands on the next one's branch, its condition
            // already sitting in a local.
            Step::GuardTaken { op, fall_ip } => {
                at.push((fall_ip - 1, prog.len() as u32));
                guard(op, if op.c == b.head { 0 } else { FALL }, EXIT | fall_ip)
            }
            Step::GuardFall { op, ip } => {
                at.push((ip, prog.len() as u32));
                guard(op, EXIT | op.c, FALL)
            }
        };
        prog.push(s);
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
        if matches!(s.op.code, Rc::BrIf | Rc::BrIfZ | Rc::BrIfCmp32 | Rc::BrIfCmp32K) {
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

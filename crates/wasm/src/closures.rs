//! Superblock lowering: each trace from [`crate::superblock`] becomes a
//! **compiled chain** — the execution half of the profile-guided top
//! tier ([`crate::tier::Tier::MaxJit`]).
//!
//! # Closure-chain contract
//!
//! A [`Chain`] is a flat program of steps, one per trace op, each
//! carrying everything the interpreter would have had to fetch per op:
//! register indices, immediates, memory-access shape, and the
//! branch-unwind copy — all pre-decoded at build time. Hot opcodes
//! lower to inline micro-steps ([`Mo`]) executed by [`Chain::run`]'s
//! match loop with **no function call at all**: the frame base, value
//! stack, and memory stay in registers across steps, where the threaded
//! dispatch loop pays an op fetch plus a table-indexed indirect call per
//! op. Any other op lowers to a monomorphized boxed closure ([`Link`])
//! that wraps its interpreter handler — the fallback step form.
//!
//! Control flow inside a chain uses baked **control words**: a step
//! either falls through, or (guards, closure steps) yields the index of
//! the next step — for an in-chain loop backedge, index 0 — or, with
//! the [`EXIT`] bit set, the op-stream ip at which the threaded
//! interpreter resumes. A loop whose backedge guard stays in-chain runs
//! **all** its iterations inside a single [`Chain::run`] call, never
//! touching the dispatch loop between iterations.
//!
//! Both step forms preserve interpreter semantics exactly — the
//! differential suite drives every tier over the same programs,
//! including guard-exit paths that bail mid-chain.
//!
//! v128 steps are mapped to real `std::arch` SIMD intrinsics on x86_64
//! (SSE2 baseline; `i32x4.mul` picks `_mm_mullo_epi32` only when SSE4.1
//! is detected at chain-build time) instead of the interpreter's
//! two-slot scalar emulation.

use crate::dispatch::{handler, ieval32, ieval64, rg, rg2, wr, wr2, Ctx, Handler};
use crate::error::Trap;
use crate::exec;
use crate::regalloc::{feval, unwind_parts, Rc, RegFunc, RegOp, FEQ, FGE, FGT, FLE, FLT, FNE};
use crate::runtime::Slot;
use crate::superblock::{self, Step, Superblock};

/// Control-word bit distinguishing "resume the interpreter at ip
/// `word & !EXIT`" from "run step `word` next". Op streams are far below
/// 2^31 ops, so the bit is always free.
const EXIT: u32 = 1 << 31;

/// A boxed fallback step: executes its op via the captured interpreter
/// handler and returns a control word.
pub(crate) type Link = Box<dyn for<'a> Fn(&mut Ctx<'a>) -> Result<u32, Trap> + Send + Sync>;

/// Guard conditions, pre-decoded from the conditional-branch forms.
enum Cond {
    NZ { a: u32 },
    Z { a: u32 },
    Cmp { a: u32, b: u32, aux: u8 },
    CmpK { a: u32, k: i32, aux: u8 },
}

/// One pre-decoded chain step ("micro-op"). Straight-line steps fall
/// through to the next index; `Guard` and `Link` return control words.
enum Mo {
    // -- moves / constants --
    Const { c: u32, v: Slot },
    Copy { a: u32, c: u32 },
    Copy2 { a: u32, c: u32 },
    VConst { c: u32, v: u128 },
    Select { a: u32, b: u32, c: u32 },
    GlobalGet { g: u32, c: u32 },
    GlobalSet { g: u32, b: u32 },
    // -- i32 --
    Add32 { a: u32, b: u32, c: u32 },
    Sub32 { a: u32, b: u32, c: u32 },
    Mul32 { a: u32, b: u32, c: u32 },
    DivS32 { a: u32, b: u32, c: u32 },
    DivU32 { a: u32, b: u32, c: u32 },
    RemS32 { a: u32, b: u32, c: u32 },
    RemU32 { a: u32, b: u32, c: u32 },
    And32 { a: u32, b: u32, c: u32 },
    Or32 { a: u32, b: u32, c: u32 },
    Xor32 { a: u32, b: u32, c: u32 },
    Shl32 { a: u32, b: u32, c: u32 },
    ShrS32 { a: u32, b: u32, c: u32 },
    ShrU32 { a: u32, b: u32, c: u32 },
    Eqz32 { a: u32, c: u32 },
    Cmp32 { a: u32, b: u32, c: u32, aux: u8 },
    Cmp32K { a: u32, k: i32, c: u32, aux: u8 },
    CmpAddK32 { a: u32, add: i32, k: i32, c: u32, aux: u8 },
    AddK32 { a: u32, k: i32, c: u32 },
    ShlK32 { a: u32, sh: u32, c: u32 },
    AddShl32 { a: u32, b: u32, sh: u32, c: u32 },
    // -- i64 --
    Add64 { a: u32, b: u32, c: u32 },
    Sub64 { a: u32, b: u32, c: u32 },
    Mul64 { a: u32, b: u32, c: u32 },
    DivS64 { a: u32, b: u32, c: u32 },
    DivU64 { a: u32, b: u32, c: u32 },
    RemS64 { a: u32, b: u32, c: u32 },
    RemU64 { a: u32, b: u32, c: u32 },
    And64 { a: u32, b: u32, c: u32 },
    Or64 { a: u32, b: u32, c: u32 },
    Xor64 { a: u32, b: u32, c: u32 },
    Shl64 { a: u32, b: u32, c: u32 },
    ShrS64 { a: u32, b: u32, c: u32 },
    ShrU64 { a: u32, b: u32, c: u32 },
    AddK64 { a: u32, k: i64, c: u32 },
    Cmp64 { a: u32, b: u32, c: u32, aux: u8 },
    Cmp64K { a: u32, k: i64, c: u32, aux: u8 },
    // -- floats --
    AddF32 { a: u32, b: u32, c: u32 },
    SubF32 { a: u32, b: u32, c: u32 },
    MulF32 { a: u32, b: u32, c: u32 },
    DivF32 { a: u32, b: u32, c: u32 },
    AddF64 { a: u32, b: u32, c: u32 },
    SubF64 { a: u32, b: u32, c: u32 },
    MulF64 { a: u32, b: u32, c: u32 },
    DivF64 { a: u32, b: u32, c: u32 },
    NegF64 { a: u32, c: u32 },
    SqrtF64 { a: u32, c: u32 },
    AbsF64 { a: u32, c: u32 },
    CmpF32 { a: u32, b: u32, c: u32, aux: u8 },
    CmpF64 { a: u32, b: u32, c: u32, aux: u8 },
    Fma64 { a: u32, b: u32, c: u32 },
    // -- conversions --
    Wrap64 { a: u32, c: u32 },
    ExtS3264 { a: u32, c: u32 },
    ExtU3264 { a: u32, c: u32 },
    ConvS32F64 { a: u32, c: u32 },
    ConvU32F64 { a: u32, c: u32 },
    Promote { a: u32, c: u32 },
    Demote { a: u32, c: u32 },
    // -- memory (disp = static address displacement, off = wasm offset) --
    Ld32 { a: u32, disp: i32, off: u32, c: u32 },
    Ld64 { a: u32, disp: i32, off: u32, c: u32 },
    Ld8S32 { a: u32, disp: i32, off: u32, c: u32 },
    Ld8U32 { a: u32, disp: i32, off: u32, c: u32 },
    Ld16S32 { a: u32, disp: i32, off: u32, c: u32 },
    Ld16U32 { a: u32, disp: i32, off: u32, c: u32 },
    LdShl32 { a: u32, b: u32, sh: u32, off: u32, c: u32 },
    LdShl64 { a: u32, b: u32, sh: u32, off: u32, c: u32 },
    LdShlK32 { a: u32, sh: u32, disp: i32, off: u32, c: u32 },
    LdShlK64 { a: u32, sh: u32, disp: i32, off: u32, c: u32 },
    St8 { a: u32, b: u32, off: u32 },
    St16 { a: u32, b: u32, off: u32 },
    St32 { a: u32, b: u32, off: u32 },
    St64 { a: u32, b: u32, off: u32 },
    StShl32 { a: u32, b: u32, base: u32, sh: u32, off: u32 },
    StShl64 { a: u32, b: u32, base: u32, sh: u32, off: u32 },
    StShlK32 { a: u32, sh: u32, disp: i32, off: u32, b: u32 },
    StShlK64 { a: u32, sh: u32, disp: i32, off: u32, b: u32 },
    /// Fused load → add-k → store over one address (`fuse_rmw`): the
    /// address is formed and bounds-checked once; both original register
    /// writes (`t` = loaded value, `u` = stored value) are preserved so a
    /// later guard exit resumes the interpreter with identical state.
    RmwShlK32 { a: u32, sh: u32, disp: i32, off: u32, k: i32, t: u32, u: u32 },
    RmwShl32 { a: u32, base: u32, sh: u32, off: u32, k: i32, t: u32, u: u32 },
    /// Fused constant rematerialization + binary op (`fuse_kbin`): the
    /// constant register `r` is still written (guard exits may resume an
    /// interpreter that reads it), but the pair costs one dispatch.
    MulK32R { k: i32, r: u32, a: u32, c: u32 },
    ShrUK32R { k: i32, r: u32, a: u32, c: u32 },
    DivUK32R { k: i32, r: u32, a: u32, c: u32 },
    RemUK32R { k: i32, r: u32, a: u32, c: u32 },
    V128Ld { a: u32, off: u32, c: u32 },
    V128St { a: u32, b: u32, off: u32 },
    // -- v128 lane arithmetic: intrinsic fn baked at build time --
    VBin { f: fn(u128, u128) -> u128, a: u32, b: u32, c: u32 },
    VNot { a: u32, c: u32 },
    Splat32 { a: u32, c: u32 },
    Splat64 { a: u32, c: u32 },
    // -- control --
    Jmp { to: u32 },
    Unwind { imm: u64 },
    Guard { cond: Cond, imm: u64, on_true: u32, on_false: u32 },
    // -- fallback: monomorphized boxed closure --
    Link(Link),
}

/// One compiled superblock: a flat pre-decoded step program plus the
/// interpreter ip to resume at when execution runs off the end.
pub(crate) struct Chain {
    prog: Vec<Mo>,
    resume: u32,
}

/// Per-call profiling tally kept by `run_jit` and folded into
/// [`crate::superblock::JitState`] at function exit. Counting is a
/// monomorphization parameter of [`Chain::run_impl`], so the untallied
/// path compiles to exactly the code it had before profiling existed.
#[derive(Default)]
pub(crate) struct ChainTally {
    pub(crate) guard_exits: u64,
    pub(crate) fallback_steps: u64,
}

impl Chain {
    /// Execute the chain. Loop backedges jump to step 0 without leaving
    /// this loop; every other exit yields the interpreter resume ip.
    #[inline]
    pub(crate) fn run(&self, ctx: &mut Ctx<'_>) -> Result<usize, Trap> {
        let mut tally = ChainTally::default();
        if ctx.inst.metered() {
            self.run_impl::<false, true>(ctx, &mut tally)
        } else {
            self.run_impl::<false, false>(ctx, &mut tally)
        }
    }

    /// [`Chain::run`] with profiling tallies enabled.
    #[inline]
    pub(crate) fn run_counted(
        &self,
        ctx: &mut Ctx<'_>,
        tally: &mut ChainTally,
    ) -> Result<usize, Trap> {
        if ctx.inst.metered() {
            self.run_impl::<true, true>(ctx, tally)
        } else {
            self.run_impl::<true, false>(ctx, tally)
        }
    }

    /// The chain execution loop, monomorphized on profiling (`COUNT`)
    /// and on execution limits (`METERED`): unlimited runs compile the
    /// backedge fuel guards out entirely.
    fn run_impl<const COUNT: bool, const METERED: bool>(
        &self,
        ctx: &mut Ctx<'_>,
        tally: &mut ChainTally,
    ) -> Result<usize, Trap> {
        // Declared ahead of the macros so `ctl!`'s guard-point charge can
        // bind it (macro bodies resolve against definition-site scope).
        let mut guard_epoch = 0u32;
        macro_rules! bin {
            ($read:ident, $wrap:path, $f:expr, $a:expr, $b:expr, $c:expr) => {{
                let x = rg(ctx, $a).$read();
                let y = rg(ctx, $b).$read();
                wr(ctx, $c, $wrap($f(x, y)));
            }};
        }
        macro_rules! trapbin {
            ($read:ident, $wrap:path, $f:expr, $a:expr, $b:expr, $c:expr) => {{
                let x = rg(ctx, $a).$read();
                let y = rg(ctx, $b).$read();
                wr(ctx, $c, $wrap($f(x, y)?));
            }};
        }
        macro_rules! un {
            ($read:ident, $wrap:path, $f:expr, $a:expr, $c:expr) => {{
                let v = rg(ctx, $a).$read();
                wr(ctx, $c, $wrap($f(v)));
            }};
        }
        macro_rules! ld {
            ($n:expr, $raw:ty, $conv:ty, $wrap:path, $a:expr, $disp:expr, $off:expr, $c:expr) => {{
                let addr = rg(ctx, $a).i32().wrapping_add($disp) as u32;
                let start = ctx.inst.memory.effective(addr, $off, $n)?;
                let raw = <$raw>::from_le_bytes(ctx.inst.memory.load::<{ $n as usize }>(start));
                wr(ctx, $c, $wrap(raw as $conv));
            }};
        }
        macro_rules! ldshl {
            ($n:expr, $raw:ty, $wrap:path, $a:expr, $b:expr, $sh:expr, $off:expr, $c:expr) => {{
                let addr =
                    rg(ctx, $b).i32().wrapping_add(rg(ctx, $a).i32().wrapping_shl($sh)) as u32;
                let start = ctx.inst.memory.effective(addr, $off, $n)?;
                let raw = <$raw>::from_le_bytes(ctx.inst.memory.load::<{ $n as usize }>(start));
                wr(ctx, $c, $wrap(raw));
            }};
        }
        macro_rules! ldshlk {
            ($n:expr, $raw:ty, $wrap:path, $a:expr, $sh:expr, $disp:expr, $off:expr, $c:expr) => {{
                let addr = rg(ctx, $a).i32().wrapping_shl($sh).wrapping_add($disp) as u32;
                let start = ctx.inst.memory.effective(addr, $off, $n)?;
                let raw = <$raw>::from_le_bytes(ctx.inst.memory.load::<{ $n as usize }>(start));
                wr(ctx, $c, $wrap(raw));
            }};
        }
        macro_rules! st {
            ($n:expr, $cast:ty, $a:expr, $b:expr, $off:expr) => {{
                let addr = rg(ctx, $a).u32();
                let val = rg(ctx, $b).u64();
                let start = ctx.inst.memory.effective(addr, $off, $n)?;
                ctx.inst.memory.store(start, &((val as $cast).to_le_bytes()));
            }};
        }
        macro_rules! stshl {
            ($n:expr, $cast:ty, $a:expr, $b:expr, $base:expr, $sh:expr, $off:expr) => {{
                let addr =
                    rg(ctx, $base).i32().wrapping_add(rg(ctx, $a).i32().wrapping_shl($sh)) as u32;
                let val = rg(ctx, $b).u64();
                let start = ctx.inst.memory.effective(addr, $off, $n)?;
                ctx.inst.memory.store(start, &((val as $cast).to_le_bytes()));
            }};
        }
        macro_rules! stshlk {
            ($n:expr, $cast:ty, $a:expr, $sh:expr, $disp:expr, $off:expr, $b:expr) => {{
                let addr = rg(ctx, $a).i32().wrapping_shl($sh).wrapping_add($disp) as u32;
                let val = rg(ctx, $b).u64();
                let start = ctx.inst.memory.effective(addr, $off, $n)?;
                ctx.inst.memory.store(start, &((val as $cast).to_le_bytes()));
            }};
        }
        /// Branch off the fallthrough path: exit the chain or re-aim `i`.
        /// An in-chain backward transfer (a loop backedge re-entering the
        /// chain at an earlier step) is a fuel guard point: a fully
        /// chained loop never returns to `run_jit`, so the budget must be
        /// enforced here or a runaway guest would be uninterruptible at
        /// the top tier.
        macro_rules! ctl {
            ($i:ident, $word:expr) => {{
                let w = $word;
                if w & EXIT != 0 {
                    return Ok((w & !EXIT) as usize);
                }
                if METERED && (w as usize) < $i {
                    guard_epoch += 1;
                    if guard_epoch & 1023 == 0 {
                        ctx.inst.fuel_step(1024)?;
                    }
                }
                $i = w as usize;
            }};
        }

        let prog = &self.prog[..];
        let mut i = 0usize;
        while let Some(mo) = prog.get(i) {
            i += 1;
            match *mo {
                Mo::Const { c, v } => wr(ctx, c, v),
                Mo::Copy { a, c } => {
                    let v = rg(ctx, a);
                    wr(ctx, c, v);
                }
                Mo::Copy2 { a, c } => {
                    let v = rg2(ctx, a);
                    wr2(ctx, c, v);
                }
                Mo::VConst { c, v } => wr2(ctx, c, v),
                Mo::Select { a, b, c } => {
                    if rg(ctx, c).i32() == 0 {
                        let v = rg(ctx, b);
                        wr(ctx, a, v);
                    }
                }
                Mo::GlobalGet { g, c } => {
                    let v = ctx.inst.globals[g as usize];
                    wr(ctx, c, v);
                }
                Mo::GlobalSet { g, b } => ctx.inst.globals[g as usize] = rg(ctx, b),

                Mo::Add32 { a, b, c } => bin!(i32, Slot::from_i32, i32::wrapping_add, a, b, c),
                Mo::Sub32 { a, b, c } => bin!(i32, Slot::from_i32, i32::wrapping_sub, a, b, c),
                Mo::Mul32 { a, b, c } => bin!(i32, Slot::from_i32, i32::wrapping_mul, a, b, c),
                Mo::DivS32 { a, b, c } => trapbin!(i32, Slot::from_i32, exec::i32_div_s, a, b, c),
                Mo::DivU32 { a, b, c } => trapbin!(i32, Slot::from_i32, exec::i32_div_u, a, b, c),
                Mo::RemS32 { a, b, c } => trapbin!(i32, Slot::from_i32, exec::i32_rem_s, a, b, c),
                Mo::RemU32 { a, b, c } => trapbin!(i32, Slot::from_i32, exec::i32_rem_u, a, b, c),
                Mo::And32 { a, b, c } => bin!(i32, Slot::from_i32, |x, y| x & y, a, b, c),
                Mo::Or32 { a, b, c } => bin!(i32, Slot::from_i32, |x, y| x | y, a, b, c),
                Mo::Xor32 { a, b, c } => bin!(i32, Slot::from_i32, |x, y| x ^ y, a, b, c),
                Mo::Shl32 { a, b, c } => {
                    bin!(i32, Slot::from_i32, |x: i32, y| x.wrapping_shl(y as u32), a, b, c)
                }
                Mo::ShrS32 { a, b, c } => {
                    bin!(i32, Slot::from_i32, |x: i32, y| x.wrapping_shr(y as u32), a, b, c)
                }
                Mo::ShrU32 { a, b, c } => bin!(
                    i32,
                    Slot::from_i32,
                    |x, y| ((x as u32).wrapping_shr(y as u32)) as i32,
                    a,
                    b,
                    c
                ),
                Mo::Eqz32 { a, c } => un!(i32, Slot::from_bool, |v| v == 0, a, c),
                Mo::Cmp32 { a, b, c, aux } => {
                    let r = ieval32(aux, rg(ctx, a).i32(), rg(ctx, b).i32());
                    wr(ctx, c, Slot::from_bool(r));
                }
                Mo::Cmp32K { a, k, c, aux } => {
                    let r = ieval32(aux, rg(ctx, a).i32(), k);
                    wr(ctx, c, Slot::from_bool(r));
                }
                Mo::CmpAddK32 { a, add, k, c, aux } => {
                    let r = ieval32(aux, rg(ctx, a).i32().wrapping_add(add), k);
                    wr(ctx, c, Slot::from_bool(r));
                }
                Mo::AddK32 { a, k, c } => {
                    let r = rg(ctx, a).i32().wrapping_add(k);
                    wr(ctx, c, Slot::from_i32(r));
                }
                Mo::ShlK32 { a, sh, c } => {
                    let r = rg(ctx, a).i32().wrapping_shl(sh);
                    wr(ctx, c, Slot::from_i32(r));
                }
                Mo::AddShl32 { a, b, sh, c } => {
                    let r = rg(ctx, b).i32().wrapping_add(rg(ctx, a).i32().wrapping_shl(sh));
                    wr(ctx, c, Slot::from_i32(r));
                }

                Mo::Add64 { a, b, c } => bin!(i64, Slot::from_i64, i64::wrapping_add, a, b, c),
                Mo::Sub64 { a, b, c } => bin!(i64, Slot::from_i64, i64::wrapping_sub, a, b, c),
                Mo::Mul64 { a, b, c } => bin!(i64, Slot::from_i64, i64::wrapping_mul, a, b, c),
                Mo::DivS64 { a, b, c } => trapbin!(i64, Slot::from_i64, exec::i64_div_s, a, b, c),
                Mo::DivU64 { a, b, c } => trapbin!(i64, Slot::from_i64, exec::i64_div_u, a, b, c),
                Mo::RemS64 { a, b, c } => trapbin!(i64, Slot::from_i64, exec::i64_rem_s, a, b, c),
                Mo::RemU64 { a, b, c } => trapbin!(i64, Slot::from_i64, exec::i64_rem_u, a, b, c),
                Mo::And64 { a, b, c } => bin!(i64, Slot::from_i64, |x, y| x & y, a, b, c),
                Mo::Or64 { a, b, c } => bin!(i64, Slot::from_i64, |x, y| x | y, a, b, c),
                Mo::Xor64 { a, b, c } => bin!(i64, Slot::from_i64, |x, y| x ^ y, a, b, c),
                Mo::Shl64 { a, b, c } => {
                    bin!(i64, Slot::from_i64, |x: i64, y| x.wrapping_shl(y as u32), a, b, c)
                }
                Mo::ShrS64 { a, b, c } => {
                    bin!(i64, Slot::from_i64, |x: i64, y| x.wrapping_shr(y as u32), a, b, c)
                }
                Mo::ShrU64 { a, b, c } => bin!(
                    i64,
                    Slot::from_i64,
                    |x, y| ((x as u64).wrapping_shr(y as u32)) as i64,
                    a,
                    b,
                    c
                ),
                Mo::AddK64 { a, k, c } => {
                    let r = rg(ctx, a).i64().wrapping_add(k);
                    wr(ctx, c, Slot::from_i64(r));
                }
                Mo::Cmp64 { a, b, c, aux } => {
                    let r = ieval64(aux, rg(ctx, a).i64(), rg(ctx, b).i64());
                    wr(ctx, c, Slot::from_bool(r));
                }
                Mo::Cmp64K { a, k, c, aux } => {
                    let r = ieval64(aux, rg(ctx, a).i64(), k);
                    wr(ctx, c, Slot::from_bool(r));
                }

                Mo::AddF32 { a, b, c } => bin!(f32, Slot::from_f32, |x, y| x + y, a, b, c),
                Mo::SubF32 { a, b, c } => bin!(f32, Slot::from_f32, |x, y| x - y, a, b, c),
                Mo::MulF32 { a, b, c } => bin!(f32, Slot::from_f32, |x, y| x * y, a, b, c),
                Mo::DivF32 { a, b, c } => bin!(f32, Slot::from_f32, |x, y| x / y, a, b, c),
                Mo::AddF64 { a, b, c } => bin!(f64, Slot::from_f64, |x, y| x + y, a, b, c),
                Mo::SubF64 { a, b, c } => bin!(f64, Slot::from_f64, |x, y| x - y, a, b, c),
                Mo::MulF64 { a, b, c } => bin!(f64, Slot::from_f64, |x, y| x * y, a, b, c),
                Mo::DivF64 { a, b, c } => bin!(f64, Slot::from_f64, |x, y| x / y, a, b, c),
                Mo::NegF64 { a, c } => un!(f64, Slot::from_f64, |v: f64| -v, a, c),
                Mo::SqrtF64 { a, c } => un!(f64, Slot::from_f64, f64::sqrt, a, c),
                Mo::AbsF64 { a, c } => un!(f64, Slot::from_f64, f64::abs, a, c),
                Mo::CmpF32 { a, b, c, aux } => {
                    let r = feval(aux, rg(ctx, a).f32(), rg(ctx, b).f32());
                    wr(ctx, c, Slot::from_bool(r));
                }
                Mo::CmpF64 { a, b, c, aux } => {
                    let r = feval(aux, rg(ctx, a).f64(), rg(ctx, b).f64());
                    wr(ctx, c, Slot::from_bool(r));
                }
                Mo::Fma64 { a, b, c } => {
                    let x = rg(ctx, a).f64();
                    let y = rg(ctx, b).f64();
                    let z = rg(ctx, c).f64();
                    // No FMA contraction: both roundings, as the unfused pair.
                    wr(ctx, c, Slot::from_f64(z + x * y));
                }

                Mo::Wrap64 { a, c } => un!(i64, Slot::from_i32, |v| v as i32, a, c),
                Mo::ExtS3264 { a, c } => un!(i32, Slot::from_i64, |v| v as i64, a, c),
                Mo::ExtU3264 { a, c } => un!(i32, Slot::from_i64, |v| v as u32 as i64, a, c),
                Mo::ConvS32F64 { a, c } => un!(i32, Slot::from_f64, |v| v as f64, a, c),
                Mo::ConvU32F64 { a, c } => un!(i32, Slot::from_f64, |v| v as u32 as f64, a, c),
                Mo::Promote { a, c } => un!(f32, Slot::from_f64, |v| v as f64, a, c),
                Mo::Demote { a, c } => un!(f64, Slot::from_f32, |v| v as f32, a, c),

                Mo::Ld32 { a, disp, off, c } => ld!(4, u32, u32, Slot::from_u32, a, disp, off, c),
                Mo::Ld64 { a, disp, off, c } => ld!(8, u64, u64, Slot::from_u64, a, disp, off, c),
                Mo::Ld8S32 { a, disp, off, c } => ld!(1, i8, i32, Slot::from_i32, a, disp, off, c),
                Mo::Ld8U32 { a, disp, off, c } => ld!(1, u8, i32, Slot::from_i32, a, disp, off, c),
                Mo::Ld16S32 { a, disp, off, c } => {
                    ld!(2, i16, i32, Slot::from_i32, a, disp, off, c)
                }
                Mo::Ld16U32 { a, disp, off, c } => {
                    ld!(2, u16, i32, Slot::from_i32, a, disp, off, c)
                }
                Mo::LdShl32 { a, b, sh, off, c } => {
                    ldshl!(4, u32, Slot::from_u32, a, b, sh, off, c)
                }
                Mo::LdShl64 { a, b, sh, off, c } => {
                    ldshl!(8, u64, Slot::from_u64, a, b, sh, off, c)
                }
                Mo::LdShlK32 { a, sh, disp, off, c } => {
                    ldshlk!(4, u32, Slot::from_u32, a, sh, disp, off, c)
                }
                Mo::LdShlK64 { a, sh, disp, off, c } => {
                    ldshlk!(8, u64, Slot::from_u64, a, sh, disp, off, c)
                }
                Mo::St8 { a, b, off } => st!(1, u8, a, b, off),
                Mo::St16 { a, b, off } => st!(2, u16, a, b, off),
                Mo::St32 { a, b, off } => st!(4, u32, a, b, off),
                Mo::St64 { a, b, off } => st!(8, u64, a, b, off),
                Mo::StShl32 { a, b, base, sh, off } => stshl!(4, u32, a, b, base, sh, off),
                Mo::StShl64 { a, b, base, sh, off } => stshl!(8, u64, a, b, base, sh, off),
                Mo::StShlK32 { a, sh, disp, off, b } => stshlk!(4, u32, a, sh, disp, off, b),
                Mo::RmwShlK32 { a, sh, disp, off, k, t, u } => {
                    let addr = rg(ctx, a).i32().wrapping_shl(sh).wrapping_add(disp) as u32;
                    let start = ctx.inst.memory.effective(addr, off, 4)?;
                    let v = i32::from_le_bytes(ctx.inst.memory.load::<4>(start));
                    wr(ctx, t, Slot::from_i32(v));
                    let nv = v.wrapping_add(k);
                    wr(ctx, u, Slot::from_i32(nv));
                    ctx.inst.memory.store(start, &nv.to_le_bytes());
                }
                Mo::RmwShl32 { a, base, sh, off, k, t, u } => {
                    let addr =
                        rg(ctx, base).i32().wrapping_add(rg(ctx, a).i32().wrapping_shl(sh)) as u32;
                    let start = ctx.inst.memory.effective(addr, off, 4)?;
                    let v = i32::from_le_bytes(ctx.inst.memory.load::<4>(start));
                    wr(ctx, t, Slot::from_i32(v));
                    let nv = v.wrapping_add(k);
                    wr(ctx, u, Slot::from_i32(nv));
                    ctx.inst.memory.store(start, &nv.to_le_bytes());
                }
                Mo::MulK32R { k, r, a, c } => {
                    wr(ctx, r, Slot::from_i32(k));
                    let x = rg(ctx, a).i32();
                    wr(ctx, c, Slot::from_i32(x.wrapping_mul(k)));
                }
                Mo::ShrUK32R { k, r, a, c } => {
                    wr(ctx, r, Slot::from_i32(k));
                    let x = rg(ctx, a).i32();
                    wr(ctx, c, Slot::from_i32(((x as u32).wrapping_shr(k as u32)) as i32));
                }
                Mo::DivUK32R { k, r, a, c } => {
                    wr(ctx, r, Slot::from_i32(k));
                    let x = rg(ctx, a).i32();
                    wr(ctx, c, Slot::from_i32(exec::i32_div_u(x, k)?));
                }
                Mo::RemUK32R { k, r, a, c } => {
                    wr(ctx, r, Slot::from_i32(k));
                    let x = rg(ctx, a).i32();
                    wr(ctx, c, Slot::from_i32(exec::i32_rem_u(x, k)?));
                }
                Mo::StShlK64 { a, sh, disp, off, b } => stshlk!(8, u64, a, sh, disp, off, b),
                Mo::V128Ld { a, off, c } => {
                    let addr = rg(ctx, a).u32();
                    let start = ctx.inst.memory.effective(addr, off, 16)?;
                    let v = u128::from_le_bytes(ctx.inst.memory.load::<16>(start));
                    wr2(ctx, c, v);
                }
                Mo::V128St { a, b, off } => {
                    let addr = rg(ctx, a).u32();
                    let val = rg2(ctx, b);
                    let start = ctx.inst.memory.effective(addr, off, 16)?;
                    ctx.inst.memory.store(start, &val.to_le_bytes());
                }

                Mo::VBin { f, a, b, c } => {
                    let x = rg2(ctx, a);
                    let y = rg2(ctx, b);
                    wr2(ctx, c, f(x, y));
                }
                Mo::VNot { a, c } => {
                    let v = rg2(ctx, a);
                    wr2(ctx, c, !v);
                }
                Mo::Splat32 { a, c } => {
                    let v = rg(ctx, a).u32() as u128;
                    wr2(ctx, c, v | v << 32 | v << 64 | v << 96);
                }
                Mo::Splat64 { a, c } => {
                    let v = rg(ctx, a).u64();
                    wr2(ctx, c, v as u128 | (v as u128) << 64);
                }

                Mo::Jmp { to } => {
                    if METERED && (to as usize) < i {
                        guard_epoch += 1;
                        if guard_epoch & 1023 == 0 {
                            ctx.inst.fuel_step(1024)?;
                        }
                    }
                    i = to as usize;
                }
                Mo::Unwind { imm } => unwind(ctx, imm),
                Mo::Guard { ref cond, imm, on_true, on_false } => {
                    let taken = match *cond {
                        Cond::NZ { a } => rg(ctx, a).i32() != 0,
                        Cond::Z { a } => rg(ctx, a).i32() == 0,
                        Cond::Cmp { a, b, aux } => {
                            ieval32(aux, rg(ctx, a).i32(), rg(ctx, b).i32())
                        }
                        Cond::CmpK { a, k, aux } => ieval32(aux, rg(ctx, a).i32(), k),
                    };
                    if taken {
                        if COUNT && on_true & EXIT != 0 {
                            tally.guard_exits += 1;
                        }
                        unwind(ctx, imm);
                        ctl!(i, on_true);
                    } else {
                        if COUNT && on_false & EXIT != 0 {
                            tally.guard_exits += 1;
                        }
                        ctl!(i, on_false);
                    }
                }
                Mo::Link(ref f) => {
                    if COUNT {
                        tally.fallback_steps += 1;
                    }
                    ctl!(i, f(ctx)?)
                }
            }
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
        chains.push(build_chain(f, b));
        entry[b.head as usize] = chains.len() as u32;
    }
    FnChains { entry, chains }
}

/// Recognize the store completing a `load; add-const; store` triple over
/// the same address with no intervening step, and return the fused RMW
/// micro-op. Requires the loaded (`t`) and stored (`u`) registers to be
/// distinct from the address registers — otherwise the store's address
/// would see the updated values and the one-shot address computation
/// would diverge from the interpreter.
fn fuse_rmw(prog: &[Mo], mo: &Mo) -> Option<Mo> {
    let n = prog.len();
    if n < 2 {
        return None;
    }
    match (mo, &prog[n - 2], &prog[n - 1]) {
        (
            &Mo::StShlK32 { a, sh, disp, off, b },
            &Mo::LdShlK32 { a: la, sh: ls, disp: ld, off: lo, c: t },
            &Mo::AddK32 { a: aa, k, c: u },
        ) if la == a
            && ls == sh
            && ld == disp
            && lo == off
            && aa == t
            && u == b
            && t != a
            && u != a =>
        {
            Some(Mo::RmwShlK32 { a, sh, disp, off, k, t, u })
        }
        (
            &Mo::StShl32 { a, b, base, sh, off },
            &Mo::LdShl32 { a: la, b: lb, sh: ls, off: lo, c: t },
            &Mo::AddK32 { a: aa, k, c: u },
        ) if la == a
            && lb == base
            && ls == sh
            && lo == off
            && aa == t
            && u == b
            && t != a
            && t != base
            && u != a
            && u != base =>
        {
            Some(Mo::RmwShl32 { a, base, sh, off, k, t, u })
        }
        _ => None,
    }
}

/// Recognize a `Const` immediately feeding the divisor/shift/factor
/// operand of the next binary op and fuse the pair into one step. The
/// constant register is still written by the fused step, so interpreter
/// state at any later guard exit is unchanged.
fn fuse_kbin(prog: &[Mo], mo: &Mo) -> Option<Mo> {
    let (r, v) = match prog.last() {
        Some(&Mo::Const { c, v }) => (c, v),
        _ => return None,
    };
    let k = v.i32();
    // The constant must round-trip as an i32 slot for the rewrite of the
    // `r` write to be exact (regalloc emits i32 consts zero-extended).
    if v.0 != Slot::from_i32(k).0 {
        return None;
    }
    match *mo {
        Mo::Mul32 { a, b, c } if b == r && a != r => Some(Mo::MulK32R { k, r, a, c }),
        Mo::Mul32 { a, b, c } if a == r && b != r => Some(Mo::MulK32R { k, r, a: b, c }),
        Mo::ShrU32 { a, b, c } if b == r && a != r => Some(Mo::ShrUK32R { k, r, a, c }),
        Mo::DivU32 { a, b, c } if b == r && a != r => Some(Mo::DivUK32R { k, r, a, c }),
        Mo::RemU32 { a, b, c } if b == r && a != r => Some(Mo::RemUK32R { k, r, a, c }),
        _ => None,
    }
}

/// Lower the trace front to back. Guards bake their control words: a
/// guard on the trace's own loop backedge points back at step 0, and
/// every bail-out side carries `EXIT | ip` — unless the bail target's op
/// is itself materialized later in this chain (an `if`-skip join point),
/// in which case the word is patched to the in-chain step index and the
/// "unlikely" side never leaves the chain either.
fn build_chain(f: &RegFunc, b: &Superblock) -> Chain {
    let mut prog: Vec<Mo> = Vec::with_capacity(b.steps.len());
    // First step index materializing each op ip, for bail-target patching.
    let mut at: Vec<(u32, u32)> = Vec::new();
    for step in &b.steps {
        // Sequential emission: the following step always lands at
        // `len() + 1` relative to the one pushed now. Nops emit nothing —
        // the previous step falls through to whatever is emitted next.
        let next = prog.len() as u32 + 1;
        let mo = match *step {
            Step::Op { op, ip } => match op.code {
                Rc::Nop => continue,
                _ => {
                    let mo = lower_op(f, op, ip, next);
                    if let Some(fused) = fuse_kbin(&prog, &mo) {
                        // Replace the trailing Const and this op with the
                        // fused pair at the Const's slot; this op's ip no
                        // longer resolves in-chain.
                        let n = prog.len();
                        prog.truncate(n - 1);
                        prog.push(fused);
                        continue;
                    }
                    if let Some(fused) = fuse_rmw(&prog, &mo) {
                        // The store completes a load → add-k → store RMW
                        // over one address: collapse all three into the
                        // load's slot. Entering at the load's ip still
                        // runs the whole triple; the two interior ips
                        // stop resolving in-chain (guards exiting there
                        // fall back to the interpreter instead).
                        let n = prog.len();
                        prog.truncate(n - 2);
                        at.retain(|&(_, idx)| idx <= (n - 2) as u32);
                        prog.push(fused);
                        continue;
                    }
                    at.push((ip, prog.len() as u32));
                    mo
                }
            },
            Step::Unwind { imm } => Mo::Unwind { imm },
            // An unconditional while-shaped backedge: unwind, then
            // re-enter the chain at step 0 without leaving `run`.
            Step::Backedge { imm } => {
                if imm != 0 {
                    prog.push(Mo::Unwind { imm });
                }
                Mo::Jmp { to: 0 }
            }
            // The guard on the trace's own backedge re-enters the chain
            // at step 0, keeping every loop iteration in-chain.
            // A guard is as much a bail target as a plain op: a skipped
            // `if` often lands on the next one's branch, its condition
            // already sitting in a local.
            Step::GuardTaken { op, fall_ip } => {
                at.push((fall_ip - 1, prog.len() as u32));
                let on_true = if op.c == b.head { 0 } else { next };
                guard(op, on_true, EXIT | fall_ip)
            }
            Step::GuardFall { op, ip } => {
                at.push((ip, prog.len() as u32));
                guard(op, EXIT | op.c, next)
            }
        };
        prog.push(mo);
    }
    // Redirect guard exits whose target op lives in this chain: running
    // the chain from that step is exactly the interpreter resuming at
    // that ip (each step replicates its op with identical effects).
    let resolve = |word: u32| -> u32 {
        if word & EXIT != 0 {
            let ip = word & !EXIT;
            if let Some(&(_, idx)) = at.iter().find(|&&(at_ip, _)| at_ip == ip) {
                return idx;
            }
        }
        word
    };
    for mo in &mut prog {
        if let Mo::Guard { on_true, on_false, .. } = mo {
            *on_true = resolve(*on_true);
            *on_false = resolve(*on_false);
        }
    }
    Chain { prog, resume: b.resume }
}

/// The branch unwind copy ([`crate::dispatch`]'s `take` without the
/// control transfer — in a chain the successor step is the
/// continuation).
#[inline(always)]
fn unwind(ctx: &mut Ctx<'_>, imm: u64) {
    if imm != 0 {
        let (src, dst, arity) = unwind_parts(imm);
        let b = ctx.base;
        ctx.stack.copy_within(b + src..b + src + arity, b + dst);
    }
}

/// Pre-decode one guard; both continuation control words are baked.
fn guard(op: RegOp, on_true: u32, on_false: u32) -> Mo {
    let cond = match op.code {
        Rc::BrIf => Cond::NZ { a: op.a },
        Rc::BrIfZ => Cond::Z { a: op.a },
        Rc::BrIfCmp32 => Cond::Cmp { a: op.a, b: op.b, aux: op.aux },
        Rc::BrIfCmp32K => Cond::CmpK { a: op.a, k: op.b as i32, aux: op.aux },
        other => unreachable!("non-conditional opcode {other:?} as guard"),
    };
    Mo::Guard { cond, imm: op.imm, on_true, on_false }
}

/// Lower one fallthrough op to a pre-decoded micro-step. Anything not
/// covered runs through its interpreter handler, captured as a direct fn
/// pointer inside a boxed closure step.
fn lower_op(f: &RegFunc, op: RegOp, ip: u32, next: u32) -> Mo {
    let (a, b, c, imm, aux) = (op.a, op.b, op.c, op.imm, op.aux);
    let disp = (imm >> 32) as i32;
    let off = imm as u32;
    let sh = aux as u32;

    match op.code {
        // -- moves / constants (Nop never reaches here; build_chain
        // elides it) --
        Rc::Const => Mo::Const { c, v: Slot(imm) },
        Rc::Copy => Mo::Copy { a, c },
        Rc::Copy2 => Mo::Copy2 { a, c },
        // The pool constant is baked into the chain.
        Rc::V128Const => Mo::VConst { c, v: f.v128_pool[a as usize] },
        Rc::Select => Mo::Select { a, b, c },
        Rc::GlobalGet => Mo::GlobalGet { g: a, c },
        Rc::GlobalSet => Mo::GlobalSet { g: a, b },

        // -- i32 --
        Rc::Add32 => Mo::Add32 { a, b, c },
        Rc::Sub32 => Mo::Sub32 { a, b, c },
        Rc::Mul32 => Mo::Mul32 { a, b, c },
        Rc::DivS32 => Mo::DivS32 { a, b, c },
        Rc::DivU32 => Mo::DivU32 { a, b, c },
        Rc::RemS32 => Mo::RemS32 { a, b, c },
        Rc::RemU32 => Mo::RemU32 { a, b, c },
        Rc::And32 => Mo::And32 { a, b, c },
        Rc::Or32 => Mo::Or32 { a, b, c },
        Rc::Xor32 => Mo::Xor32 { a, b, c },
        Rc::Shl32 => Mo::Shl32 { a, b, c },
        Rc::ShrS32 => Mo::ShrS32 { a, b, c },
        Rc::ShrU32 => Mo::ShrU32 { a, b, c },
        Rc::Eqz32 => Mo::Eqz32 { a, c },
        Rc::Cmp32 => Mo::Cmp32 { a, b, c, aux },
        Rc::Cmp32K => Mo::Cmp32K { a, k: b as i32, c, aux },
        Rc::CmpAddK32 => Mo::CmpAddK32 { a, add: imm as i32, k: b as i32, c, aux },
        Rc::AddK32 => Mo::AddK32 { a, k: b as i32, c },
        Rc::ShlK32 => Mo::ShlK32 { a, sh, c },
        Rc::AddShl32 => Mo::AddShl32 { a, b, sh, c },

        // -- i64 --
        Rc::Add64 => Mo::Add64 { a, b, c },
        Rc::Sub64 => Mo::Sub64 { a, b, c },
        Rc::Mul64 => Mo::Mul64 { a, b, c },
        Rc::DivS64 => Mo::DivS64 { a, b, c },
        Rc::DivU64 => Mo::DivU64 { a, b, c },
        Rc::RemS64 => Mo::RemS64 { a, b, c },
        Rc::RemU64 => Mo::RemU64 { a, b, c },
        Rc::And64 => Mo::And64 { a, b, c },
        Rc::Or64 => Mo::Or64 { a, b, c },
        Rc::Xor64 => Mo::Xor64 { a, b, c },
        Rc::Shl64 => Mo::Shl64 { a, b, c },
        Rc::ShrS64 => Mo::ShrS64 { a, b, c },
        Rc::ShrU64 => Mo::ShrU64 { a, b, c },
        Rc::AddK64 => Mo::AddK64 { a, k: imm as i64, c },
        Rc::Cmp64 => Mo::Cmp64 { a, b, c, aux },
        Rc::Cmp64K => Mo::Cmp64K { a, k: imm as i64, c, aux },

        // -- floats --
        Rc::AddF32 => Mo::AddF32 { a, b, c },
        Rc::SubF32 => Mo::SubF32 { a, b, c },
        Rc::MulF32 => Mo::MulF32 { a, b, c },
        Rc::DivF32 => Mo::DivF32 { a, b, c },
        Rc::AddF64 => Mo::AddF64 { a, b, c },
        Rc::SubF64 => Mo::SubF64 { a, b, c },
        Rc::MulF64 => Mo::MulF64 { a, b, c },
        Rc::DivF64 => Mo::DivF64 { a, b, c },
        Rc::NegF64 => Mo::NegF64 { a, c },
        Rc::SqrtF64 => Mo::SqrtF64 { a, c },
        Rc::AbsF64 => Mo::AbsF64 { a, c },
        Rc::CmpF32 => Mo::CmpF32 { a, b, c, aux },
        Rc::CmpF64 => Mo::CmpF64 { a, b, c, aux },
        Rc::Fma64 => Mo::Fma64 { a, b, c },

        // -- conversions (the cheap, hot ones) --
        Rc::Wrap64 => Mo::Wrap64 { a, c },
        Rc::ExtS3264 => Mo::ExtS3264 { a, c },
        Rc::ExtU3264 => Mo::ExtU3264 { a, c },
        Rc::ConvS32F64 => Mo::ConvS32F64 { a, c },
        Rc::ConvU32F64 => Mo::ConvU32F64 { a, c },
        Rc::Promote => Mo::Promote { a, c },
        Rc::Demote => Mo::Demote { a, c },

        // -- memory --
        Rc::Load32 => Mo::Ld32 { a, disp, off, c },
        Rc::Load64 => Mo::Ld64 { a, disp, off, c },
        Rc::Load8S32 => Mo::Ld8S32 { a, disp, off, c },
        Rc::Load8U32 => Mo::Ld8U32 { a, disp, off, c },
        Rc::Load16S32 => Mo::Ld16S32 { a, disp, off, c },
        Rc::Load16U32 => Mo::Ld16U32 { a, disp, off, c },
        Rc::Load32Shl => Mo::LdShl32 { a, b, sh, off, c },
        Rc::Load64Shl => Mo::LdShl64 { a, b, sh, off, c },
        Rc::Load32ShlK => Mo::LdShlK32 { a, sh, disp, off, c },
        Rc::Load64ShlK => Mo::LdShlK64 { a, sh, disp, off, c },
        Rc::Store8 => Mo::St8 { a, b, off },
        Rc::Store16 => Mo::St16 { a, b, off },
        Rc::Store32 => Mo::St32 { a, b, off },
        Rc::Store64 => Mo::St64 { a, b, off },
        Rc::Store32Shl => Mo::StShl32 { a, b, base: c, sh, off },
        Rc::Store64Shl => Mo::StShl64 { a, b, base: c, sh, off },
        Rc::Store32ShlK => Mo::StShlK32 { a, sh, disp, off, b },
        Rc::Store64ShlK => Mo::StShlK64 { a, sh, disp, off, b },
        Rc::V128Load => Mo::V128Ld { a, off, c },
        Rc::V128Store => Mo::V128St { a, b, off },

        // -- v128: native SIMD, intrinsic picked at build time --
        Rc::AddI32x4 => Mo::VBin { f: simd::add_i32x4, a, b, c },
        Rc::SubI32x4 => Mo::VBin { f: simd::sub_i32x4, a, b, c },
        Rc::MulI32x4 => {
            let f: fn(u128, u128) -> u128 = if simd::fast_mul_i32x4() {
                simd::mul_i32x4
            } else {
                |x, y| exec::i32x4_bin(x, y, i32::wrapping_mul)
            };
            Mo::VBin { f, a, b, c }
        }
        Rc::AddF32x4 => Mo::VBin { f: simd::add_f32x4, a, b, c },
        Rc::SubF32x4 => Mo::VBin { f: simd::sub_f32x4, a, b, c },
        Rc::MulF32x4 => Mo::VBin { f: simd::mul_f32x4, a, b, c },
        Rc::DivF32x4 => Mo::VBin { f: simd::div_f32x4, a, b, c },
        Rc::AddF64x2 => Mo::VBin { f: simd::add_f64x2, a, b, c },
        Rc::SubF64x2 => Mo::VBin { f: simd::sub_f64x2, a, b, c },
        Rc::MulF64x2 => Mo::VBin { f: simd::mul_f64x2, a, b, c },
        Rc::DivF64x2 => Mo::VBin { f: simd::div_f64x2, a, b, c },
        Rc::CmpF64x2 => {
            // Monomorphized per comparison code at build time.
            let f: fn(u128, u128) -> u128 = match aux {
                FEQ => simd::cmpeq_f64x2,
                FNE => simd::cmpne_f64x2,
                FLT => simd::cmplt_f64x2,
                FGT => simd::cmpgt_f64x2,
                FLE => simd::cmple_f64x2,
                FGE => simd::cmpge_f64x2,
                _ => |x, y| exec::f64x2_cmp(x, y, |_, _| false),
            };
            Mo::VBin { f, a, b, c }
        }
        Rc::VAnd => Mo::VBin { f: |x, y| x & y, a, b, c },
        Rc::VOr => Mo::VBin { f: |x, y| x | y, a, b, c },
        Rc::VXor => Mo::VBin { f: |x, y| x ^ y, a, b, c },
        Rc::VNot => Mo::VNot { a, c },
        Rc::Splat32 => Mo::Splat32 { a, c },
        Rc::Splat64 => Mo::Splat64 { a, c },

        // -- everything else: captured interpreter handler --
        code => {
            let h: Handler = handler(code);
            let at = ip as usize;
            Mo::Link(Box::new(move |ctx| {
                h(ctx, at)?;
                Ok(next)
            }))
        }
    }
}

/// v128 lane arithmetic over the two-slot `u128` representation, mapped
/// to `std::arch` intrinsics on x86_64 (SSE2 is baseline there) with the
/// interpreter's scalar lane helpers as the portable fallback.
mod simd {
    #[cfg(target_arch = "x86_64")]
    mod native {
        use std::arch::x86_64::*;

        macro_rules! v128_intrin {
            ($name:ident, $ty:ty, $intrin:ident) => {
                #[inline(always)]
                pub(crate) fn $name(a: u128, b: u128) -> u128 {
                    // Sound: u128 and the vector types are plain 16-byte
                    // values; lane order matches wasm's little-endian
                    // layout, and SSE2 is unconditionally available on
                    // x86_64.
                    unsafe {
                        let x: $ty = std::mem::transmute(a);
                        let y: $ty = std::mem::transmute(b);
                        std::mem::transmute($intrin(x, y))
                    }
                }
            };
        }

        v128_intrin!(add_i32x4, __m128i, _mm_add_epi32);
        v128_intrin!(sub_i32x4, __m128i, _mm_sub_epi32);
        v128_intrin!(add_f32x4, __m128, _mm_add_ps);
        v128_intrin!(sub_f32x4, __m128, _mm_sub_ps);
        v128_intrin!(mul_f32x4, __m128, _mm_mul_ps);
        v128_intrin!(div_f32x4, __m128, _mm_div_ps);
        v128_intrin!(add_f64x2, __m128d, _mm_add_pd);
        v128_intrin!(sub_f64x2, __m128d, _mm_sub_pd);
        v128_intrin!(mul_f64x2, __m128d, _mm_mul_pd);
        v128_intrin!(div_f64x2, __m128d, _mm_div_pd);
        v128_intrin!(cmpeq_f64x2, __m128d, _mm_cmpeq_pd);
        v128_intrin!(cmpne_f64x2, __m128d, _mm_cmpneq_pd);
        v128_intrin!(cmplt_f64x2, __m128d, _mm_cmplt_pd);
        v128_intrin!(cmpgt_f64x2, __m128d, _mm_cmpgt_pd);
        v128_intrin!(cmple_f64x2, __m128d, _mm_cmple_pd);
        v128_intrin!(cmpge_f64x2, __m128d, _mm_cmpge_pd);

        /// `i32x4.mul` needs SSE4.1 (`_mm_mullo_epi32`); detected once at
        /// chain-build time, scalar fallback otherwise.
        pub(crate) fn fast_mul_i32x4() -> bool {
            std::arch::is_x86_feature_detected!("sse4.1")
        }

        #[target_feature(enable = "sse4.1")]
        unsafe fn mullo(a: __m128i, b: __m128i) -> __m128i {
            _mm_mullo_epi32(a, b)
        }

        /// Only called from chains built after [`fast_mul_i32x4`]
        /// returned true.
        #[inline(always)]
        pub(crate) fn mul_i32x4(a: u128, b: u128) -> u128 {
            unsafe { std::mem::transmute(mullo(std::mem::transmute(a), std::mem::transmute(b))) }
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    mod native {
        use crate::exec;
        use crate::regalloc::{feval, FEQ, FGE, FGT, FLE, FLT, FNE};

        macro_rules! v128_scalar {
            ($name:ident, $bin:ident, $f:expr) => {
                #[inline(always)]
                pub(crate) fn $name(a: u128, b: u128) -> u128 {
                    exec::$bin(a, b, $f)
                }
            };
        }

        v128_scalar!(add_i32x4, i32x4_bin, i32::wrapping_add);
        v128_scalar!(sub_i32x4, i32x4_bin, i32::wrapping_sub);
        v128_scalar!(mul_i32x4, i32x4_bin, i32::wrapping_mul);
        v128_scalar!(add_f32x4, f32x4_bin, |x, y| x + y);
        v128_scalar!(sub_f32x4, f32x4_bin, |x, y| x - y);
        v128_scalar!(mul_f32x4, f32x4_bin, |x, y| x * y);
        v128_scalar!(div_f32x4, f32x4_bin, |x, y| x / y);
        v128_scalar!(add_f64x2, f64x2_bin, |x, y| x + y);
        v128_scalar!(sub_f64x2, f64x2_bin, |x, y| x - y);
        v128_scalar!(mul_f64x2, f64x2_bin, |x, y| x * y);
        v128_scalar!(div_f64x2, f64x2_bin, |x, y| x / y);
        v128_scalar!(cmpeq_f64x2, f64x2_cmp, |x, y| feval(FEQ, x, y));
        v128_scalar!(cmpne_f64x2, f64x2_cmp, |x, y| feval(FNE, x, y));
        v128_scalar!(cmplt_f64x2, f64x2_cmp, |x, y| feval(FLT, x, y));
        v128_scalar!(cmpgt_f64x2, f64x2_cmp, |x, y| feval(FGT, x, y));
        v128_scalar!(cmple_f64x2, f64x2_cmp, |x, y| feval(FLE, x, y));
        v128_scalar!(cmpge_f64x2, f64x2_cmp, |x, y| feval(FGE, x, y));

        pub(crate) fn fast_mul_i32x4() -> bool {
            true // the "fast" path is the same scalar helper here
        }
    }

    pub(crate) use native::*;
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
                dsl::for_range(i, dsl::int(0), n.get(), &[
                    acc.set(acc.get() + i.get() * i.get()),
                    dsl::store(i.get().shl(dsl::int(2)), 64, acc.get()),
                ]),
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

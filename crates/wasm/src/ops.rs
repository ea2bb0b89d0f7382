//! The semantics of every register op, written once: [`exec!`] is one
//! exhaustive `match` over [`Rc`](crate::regalloc::Rc), expanded as the
//! only `match` of the one register executor, [`crate::closures::Chain::run`],
//! over pre-decoded steps.
//!
//! An op reads its operands lazily from its [`ChainStep`]: the fields of
//! its [`RegOp`](crate::regalloc::RegOp) (meanings are
//! [`Rc`](crate::regalloc::Rc)'s), plus `w`, a step's second control word
//! or second destination register, and `x`, a predicated step's second
//! condition register. A straight-line op just completes; an op that
//! transfers control hands a **control word**, the index of the step to
//! run next, to the executor: a conditional branch `c` when taken and `w`
//! when not, as two transfers rather than one selected word, so that the
//! executor's next fetch waits on a predicted branch and not on the
//! condition. The four ops that leave the frame or may move the memory
//! (`Return` and the calls) leave the executor instead.
//!
//! The program-only codes follow `RemUK32` in `Rc` (the fused and
//! predicated steps of `closures`; a fused guard has no unwind copy); their
//! arms come first. `Rc::from_byte` stops before them, so no stream or artifact
//! holds one.
//!
//! v128 ops run `std::arch` SSE2 kernels on x86_64 (`i32x4.mul` takes
//! SSE4.1's `_mm_mullo_epi32` when the CPU has it), and the scalar lane
//! helpers of [`crate::exec`] elsewhere.

use crate::closures::ChainStep;
use crate::dispatch::{copy_regs, load, rg, rg2, store, wr, wr2, Ctx};
use crate::error::Trap;
use crate::regalloc::unwind_parts;
use crate::runtime::Slot;

/// A scalar as one [`Slot`] holds it.
pub(crate) trait Val: Copy {
    fn get(s: Slot) -> Self;
    fn put(self) -> Slot;
}

macro_rules! val {
    ($($t:ty: $get:ident, $put:ident;)*) => {$(
        impl Val for $t {
            #[inline(always)]
            fn get(s: Slot) -> Self {
                s.$get()
            }
            #[inline(always)]
            fn put(self) -> Slot {
                Slot::$put(self)
            }
        }
    )*};
}

val! {
    i32: i32, from_i32;
    u32: u32, from_u32;
    i64: i64, from_i64;
    u64: u64, from_u64;
    f32: f32, from_f32;
    f64: f64, from_f64;
}

impl Val for bool {
    #[inline(always)]
    fn get(s: Slot) -> Self {
        s.0 != 0
    }
    #[inline(always)]
    fn put(self) -> Slot {
        Slot::from_bool(self)
    }
}

/// What an op computes: a value, or — for the ops that can trap — a
/// `Result` of one.
pub(crate) trait Out {
    fn slot(self) -> Result<Slot, Trap>;
}

impl<T: Val> Out for T {
    #[inline(always)]
    fn slot(self) -> Result<Slot, Trap> {
        Ok(self.put())
    }
}

impl<T: Val> Out for Result<T, Trap> {
    #[inline(always)]
    fn slot(self) -> Result<Slot, Trap> {
        self.map(Val::put)
    }
}

#[inline(always)]
fn set(ctx: &mut Ctx<'_>, r: u32, v: impl Out) -> Result<(), Trap> {
    let s = v.slot()?;
    wr(ctx, r, s);
    Ok(())
}

/// `c = f(a)`.
#[inline(always)]
pub(crate) fn un<A: Val, R: Out>(
    ctx: &mut Ctx<'_>,
    o: &ChainStep,
    f: impl FnOnce(A) -> R,
) -> Result<(), Trap> {
    let x = A::get(rg(ctx, o.a()));
    set(ctx, o.c(), f(x))
}

/// `c = f(a, b)`.
#[inline(always)]
pub(crate) fn bin<A: Val, R: Out>(
    ctx: &mut Ctx<'_>,
    o: &ChainStep,
    f: impl FnOnce(A, A) -> R,
) -> Result<(), Trap> {
    let x = A::get(rg(ctx, o.a()));
    let y = A::get(rg(ctx, o.b()));
    set(ctx, o.c(), f(x, y))
}

/// `c = f(a, b)` over two-slot (v128) registers.
#[inline(always)]
pub(crate) fn vbin(ctx: &mut Ctx<'_>, o: &ChainStep, f: impl FnOnce(u128, u128) -> u128) {
    let x = rg2(ctx, o.a());
    let y = rg2(ctx, o.b());
    wr2(ctx, o.c(), f(x, y));
}

/// How a memory op forms its address.
#[derive(Clone, Copy)]
pub(crate) enum Ea {
    /// `a`: plain stores and the v128 accesses.
    Reg,
    /// `a + (imm >> 32)`: plain loads.
    Disp,
    /// `b + (a << aux)` / `c + (a << aux)`: the `*Shl` loads / stores.
    ShlB,
    ShlC,
    /// `(a << aux) + (imm >> 32)`: the `*ShlK` forms.
    ShlK,
}

#[inline(always)]
pub(crate) fn ea(ctx: &Ctx<'_>, o: &ChainStep, mode: Ea) -> u32 {
    let scaled = || rg(ctx, o.a()).i32().wrapping_shl(o.aux() as u32);
    let disp = (o.imm() >> 32) as i32;
    match mode {
        Ea::Reg => rg(ctx, o.a()).u32(),
        Ea::Disp => rg(ctx, o.a()).i32().wrapping_add(disp) as u32,
        Ea::ShlB => rg(ctx, o.b()).i32().wrapping_add(scaled()) as u32,
        Ea::ShlC => rg(ctx, o.c()).i32().wrapping_add(scaled()) as u32,
        Ea::ShlK => scaled().wrapping_add(disp) as u32,
    }
}

/// The bounds-checked start of the `n` bytes an access reaches: its
/// address plus the wasm offset `imm as u32`.
#[inline(always)]
pub(crate) fn at(ctx: &Ctx<'_>, o: &ChainStep, mode: Ea, n: usize) -> Result<usize, Trap> {
    ctx.inst.memory.effective(ea(ctx, o, mode), o.imm() as u32, n as u32)
}

/// Load `N` bytes into `c`, converted by `f`.
#[inline(always)]
pub(crate) fn ld<const N: usize, R: Val>(
    ctx: &mut Ctx<'_>,
    o: &ChainStep,
    mode: Ea,
    f: impl FnOnce([u8; N]) -> R,
) -> Result<(), Trap> {
    let start = at(ctx, o, mode, N)?;
    let v = f(load(ctx, start));
    set(ctx, o.c(), v)
}

/// Store the low `N` bytes of `b`, as `f` lays them out.
#[inline(always)]
pub(crate) fn st<const N: usize>(
    ctx: &mut Ctx<'_>,
    o: &ChainStep,
    mode: Ea,
    f: impl FnOnce(u64) -> [u8; N],
) -> Result<(), Trap> {
    let start = at(ctx, o, mode, N)?;
    let bytes = f(rg(ctx, o.b()).u64());
    store(ctx, start, bytes);
    Ok(())
}

/// Fused `load; add k; store` over one address, checked once: the loaded
/// value to `c`, the stored one to `w`, as the three ops would leave them.
#[inline(always)]
pub(crate) fn rmw(ctx: &mut Ctx<'_>, o: &ChainStep, mode: Ea, k: i32) -> Result<(), Trap> {
    let start = at(ctx, o, mode, 4)?;
    let v = i32::from_le_bytes(load(ctx, start));
    wr(ctx, o.c(), Slot::from_i32(v));
    let nv = v.wrapping_add(k);
    wr(ctx, o.w(), Slot::from_i32(nv));
    store(ctx, start, nv.to_le_bytes());
    Ok(())
}

/// A branch's unwind copy ([`crate::regalloc::pack_unwind`]).
#[inline(always)]
pub(crate) fn unwind(ctx: &mut Ctx<'_>, imm: u64) {
    if imm != 0 {
        let (src, dst, arity) = unwind_parts(imm);
        copy_regs(ctx, src, dst, arity);
    }
}

/// A predicated step's guard: `t = c & x` into register `imm as u32`
/// (for a `BrIfZ` guard on `r`, `r & r` into `r`: its i32 value stays);
/// whether `t` is non-zero, i.e. the skipped op runs.
#[inline(always)]
pub(crate) fn cond(ctx: &mut Ctx<'_>, o: &ChainStep) -> bool {
    let t = rg(ctx, o.c()).i32() & rg(ctx, o.x()).i32();
    wr(ctx, o.imm() as u32, Slot::from_i32(t));
    t != 0
}

/// A loop's fused increment: `a += imm as i32`, returning the new `a`.
#[inline(always)]
pub(crate) fn addk(ctx: &mut Ctx<'_>, o: &ChainStep) -> i32 {
    let r = rg(ctx, o.a()).i32().wrapping_add(o.imm() as i32);
    wr(ctx, o.a(), Slot::from_i32(r));
    r
}

/// Total i32 comparison over [`crate::ir::Cmp`] byte codes.
#[inline(always)]
pub(crate) fn ieval32(c: u8, a: i32, b: i32) -> bool {
    match c {
        0 => a == b,
        1 => a != b,
        2 => a < b,
        3 => (a as u32) < (b as u32),
        4 => a > b,
        5 => (a as u32) > (b as u32),
        6 => a <= b,
        7 => (a as u32) <= (b as u32),
        8 => a >= b,
        _ => (a as u32) >= (b as u32),
    }
}

#[inline(always)]
pub(crate) fn ieval64(c: u8, a: i64, b: i64) -> bool {
    match c {
        0 => a == b,
        1 => a != b,
        2 => a < b,
        3 => (a as u64) < (b as u64),
        4 => a > b,
        5 => (a as u64) > (b as u64),
        6 => a <= b,
        7 => (a as u64) <= (b as u64),
        8 => a >= b,
        _ => (a as u64) >= (b as u64),
    }
}

/// The op table: `exec!(ctx, code, o, goto, exit)` runs op `code` with
/// operands `o: &ChainStep` (`ctx: &mut Ctx`) and `?`s its traps out of
/// the enclosing function. An op that transfers control hands its control
/// word to the caller's `goto!` macro, and a return or a call invokes its
/// `exit!`; every other op completes and control falls out of the
/// expansion, so straight-line ops reach the caller's next fetch with no
/// word to test.
macro_rules! exec {
    ($ctx:expr, $code:expr, $o:expr, $goto:ident, $exit:ident) => {{
        use $crate::dispatch::{accumulate, load, rg, rg2, store, wr, wr2};
        use $crate::error::Trap;
        use $crate::exec;
        use $crate::ops::{addk, at, bin, cond, ieval32, ieval64, ld};
        use $crate::ops::{rmw, simd, st, un, unwind, vbin, Ea};
        use $crate::regalloc::{feval, Rc::*};
        use $crate::runtime::Slot;
        let ctx: &mut $crate::dispatch::Ctx<'_> = $ctx;
        let o = $o;
        match $code {
            // -- chain-only fusions --
            RmwShlK32 => rmw(ctx, o, Ea::ShlK, o.b() as i32)?,
            RmwReg32 => rmw(ctx, o, Ea::Reg, o.b() as i32)?,
            // A fused guard has no unwind copy.
            AddKBrIfCmp32K => {
                let r = addk(ctx, o);
                if ieval32(o.aux(), r, o.b() as i32) {
                    $goto!(o.c())
                }
                $goto!(o.w())
            }
            AddKBrIfCmp32 => {
                let r = addk(ctx, o);
                if ieval32(o.aux(), r, rg(ctx, o.b()).i32()) {
                    $goto!(o.c())
                }
                $goto!(o.w())
            }
            AndBrIfZ => {
                let t = rg(ctx, o.a()).i32() & rg(ctx, o.b()).i32();
                wr(ctx, o.imm() as u32, Slot::from_i32(t));
                if t == 0 {
                    $goto!(o.c())
                }
                $goto!(o.w())
            }
            MulAdd32 => {
                let t = rg(ctx, o.a()).i32().wrapping_mul(rg(ctx, o.b()).i32());
                wr(ctx, o.w(), Slot::from_i32(t));
                let x = rg(ctx, o.imm() as u32).i32();
                wr(ctx, o.c(), Slot::from_i32(t.wrapping_add(x)));
            }
            LoadAddF64ShlK => {
                let start = at(ctx, o, Ea::ShlK, 8)?;
                let t = Slot(u64::from_le_bytes(load(ctx, start)));
                wr(ctx, o.w(), t);
                let acc = rg(ctx, o.b()).f64();
                wr(ctx, o.c(), Slot::from_f64(acc + t.f64()));
            }
            LoadAddF64ShlKRun => {
                if let Err(addr) = accumulate(ctx, o) {
                    std::hint::cold_path();
                    let memory_size = ctx.inst.memory.size_bytes() as u64;
                    return Err(Trap::MemoryOutOfBounds { addr, len: 8, memory_size });
                }
            }
            AddK32If => {
                if cond(ctx, o) {
                    let r = rg(ctx, o.a()).i32().wrapping_add(o.b() as i32);
                    wr(ctx, o.a(), Slot::from_i32(r));
                }
            }

            // -- control --
            Nop => {}
            Jump => $goto!(o.c()),
            Br => {
                unwind(ctx, o.imm());
                $goto!(o.c());
            }
            // Taken, a conditional branch runs its unwind copy first.
            BrIf => {
                if rg(ctx, o.a()).i32() != 0 {
                    unwind(ctx, o.imm());
                    $goto!(o.c())
                }
                $goto!(o.w())
            }
            BrIfZ => {
                if rg(ctx, o.a()).i32() == 0 {
                    unwind(ctx, o.imm());
                    $goto!(o.c())
                }
                $goto!(o.w())
            }
            BrIfCmp32 => {
                if ieval32(o.aux(), rg(ctx, o.a()).i32(), rg(ctx, o.b()).i32()) {
                    unwind(ctx, o.imm());
                    $goto!(o.c())
                }
                $goto!(o.w())
            }
            BrIfCmp32K => {
                if ieval32(o.aux(), rg(ctx, o.a()).i32(), o.b() as i32) {
                    unwind(ctx, o.imm());
                    $goto!(o.c())
                }
                $goto!(o.w())
            }
            BrTable => {
                let idx = rg(ctx, o.a()).u32().min(o.c());
                let d = ctx.prog.dest(o.b() as usize + idx as usize);
                unwind(ctx, d.unwind);
                $goto!(d.target)
            }
            Unreachable => return Err(Trap::Unreachable),
            // They move between frames, or (a host) may grow or replace the
            // memory, so the executor leaves for the outer loop, which does
            // them, and no step writes `Ctx` (see there).
            Return | CallGuest | CallIndirect | CallHost => $exit!(),

            // -- moves / parametric --
            Copy => un(ctx, o, |v: u64| v)?,
            Copy2 => {
                let v = rg2(ctx, o.a());
                wr2(ctx, o.c(), v);
            }
            Select => {
                if rg(ctx, o.c()).i32() == 0 {
                    let v = rg(ctx, o.b());
                    wr(ctx, o.a(), v);
                }
            }
            Select2 => {
                if rg(ctx, o.c()).i32() == 0 {
                    let v = rg2(ctx, o.b());
                    wr2(ctx, o.a(), v);
                }
            }
            GlobalGet => {
                let v = ctx.inst.globals[o.a() as usize];
                wr(ctx, o.c(), v);
            }
            GlobalSet => ctx.inst.globals[o.a() as usize] = rg(ctx, o.b()),
            Const => wr(ctx, o.c(), Slot(o.imm())),
            V128Const => {
                let v = ctx.prog.v128(o.a());
                wr2(ctx, o.c(), v);
            }

            // -- memory --
            Load32 => ld(ctx, o, Ea::Disp, u32::from_le_bytes)?,
            Load64 => ld(ctx, o, Ea::Disp, u64::from_le_bytes)?,
            Load8S32 => ld(ctx, o, Ea::Disp, |b| i8::from_le_bytes(b) as i32)?,
            Load8U32 => ld(ctx, o, Ea::Disp, |b| u8::from_le_bytes(b) as i32)?,
            Load16S32 => ld(ctx, o, Ea::Disp, |b| i16::from_le_bytes(b) as i32)?,
            Load16U32 => ld(ctx, o, Ea::Disp, |b| u16::from_le_bytes(b) as i32)?,
            Load8S64 => ld(ctx, o, Ea::Disp, |b| i8::from_le_bytes(b) as i64)?,
            Load8U64 => ld(ctx, o, Ea::Disp, |b| u8::from_le_bytes(b) as i64)?,
            Load16S64 => ld(ctx, o, Ea::Disp, |b| i16::from_le_bytes(b) as i64)?,
            Load16U64 => ld(ctx, o, Ea::Disp, |b| u16::from_le_bytes(b) as i64)?,
            Load32S64 => ld(ctx, o, Ea::Disp, |b| i32::from_le_bytes(b) as i64)?,
            Load32U64 => ld(ctx, o, Ea::Disp, |b| u32::from_le_bytes(b) as i64)?,
            Load32Shl => ld(ctx, o, Ea::ShlB, u32::from_le_bytes)?,
            Load64Shl => ld(ctx, o, Ea::ShlB, u64::from_le_bytes)?,
            Load32ShlK => ld(ctx, o, Ea::ShlK, u32::from_le_bytes)?,
            Load64ShlK => ld(ctx, o, Ea::ShlK, u64::from_le_bytes)?,
            V128Load => {
                let start = at(ctx, o, Ea::Reg, 16)?;
                let v = u128::from_le_bytes(load(ctx, start));
                wr2(ctx, o.c(), v);
            }
            V128Store => {
                let start = at(ctx, o, Ea::Reg, 16)?;
                let v = rg2(ctx, o.b());
                store(ctx, start, v.to_le_bytes());
            }
            Store8 => st(ctx, o, Ea::Reg, |v| (v as u8).to_le_bytes())?,
            Store16 => st(ctx, o, Ea::Reg, |v| (v as u16).to_le_bytes())?,
            Store32 => st(ctx, o, Ea::Reg, |v| (v as u32).to_le_bytes())?,
            Store64 => st(ctx, o, Ea::Reg, u64::to_le_bytes)?,
            Store32Shl => st(ctx, o, Ea::ShlC, |v| (v as u32).to_le_bytes())?,
            Store64Shl => st(ctx, o, Ea::ShlC, u64::to_le_bytes)?,
            Store32ShlK => st(ctx, o, Ea::ShlK, |v| (v as u32).to_le_bytes())?,
            Store64ShlK => st(ctx, o, Ea::ShlK, u64::to_le_bytes)?,
            MemSize => {
                let pages = ctx.inst.memory.size_pages();
                wr(ctx, o.c(), Slot::from_u32(pages));
            }
            MemGrow => {
                let delta = rg(ctx, o.a()).i32();
                let r = if delta < 0 { -1 } else { ctx.inst.memory.grow(delta as u32) };
                wr(ctx, o.c(), Slot::from_i32(r));
            }
            MemCopy => {
                let (dst, src, len) =
                    (rg(ctx, o.a()).u32(), rg(ctx, o.b()).u32(), rg(ctx, o.c()).u32());
                ctx.inst.memory.copy_within(dst, src, len)?;
            }
            MemFill => {
                let (dst, val, len) =
                    (rg(ctx, o.a()).u32(), rg(ctx, o.b()).i32(), rg(ctx, o.c()).u32());
                ctx.inst.memory.fill(dst, val as u8, len)?;
            }

            // -- i32 --
            Eqz32 => un(ctx, o, |v: i32| v == 0)?,
            Cmp32 => bin(ctx, o, |x, y| ieval32(o.aux(), x, y))?,
            Cmp32K => un(ctx, o, |x| ieval32(o.aux(), x, o.b() as i32))?,
            CmpAddK32 => {
                un(ctx, o, |x: i32| ieval32(o.aux(), x.wrapping_add(o.imm() as i32), o.b() as i32))?
            }
            Clz32 => un(ctx, o, |v: i32| v.leading_zeros() as i32)?,
            Ctz32 => un(ctx, o, |v: i32| v.trailing_zeros() as i32)?,
            Popcnt32 => un(ctx, o, |v: i32| v.count_ones() as i32)?,
            Add32 => bin(ctx, o, i32::wrapping_add)?,
            Sub32 => bin(ctx, o, i32::wrapping_sub)?,
            Mul32 => bin(ctx, o, i32::wrapping_mul)?,
            DivS32 => bin(ctx, o, exec::i32_div_s)?,
            DivU32 => bin(ctx, o, exec::i32_div_u)?,
            RemS32 => bin(ctx, o, exec::i32_rem_s)?,
            RemU32 => bin(ctx, o, exec::i32_rem_u)?,
            And32 => bin(ctx, o, |x: i32, y| x & y)?,
            Or32 => bin(ctx, o, |x: i32, y| x | y)?,
            Xor32 => bin(ctx, o, |x: i32, y| x ^ y)?,
            Shl32 => bin(ctx, o, |x: i32, y| x.wrapping_shl(y as u32))?,
            ShrS32 => bin(ctx, o, |x: i32, y| x.wrapping_shr(y as u32))?,
            ShrU32 => bin(ctx, o, |x: u32, y| x.wrapping_shr(y))?,
            Rotl32 => bin(ctx, o, |x: i32, y| x.rotate_left(y as u32 & 31))?,
            Rotr32 => bin(ctx, o, |x: i32, y| x.rotate_right(y as u32 & 31))?,
            AddK32 => un(ctx, o, |x: i32| x.wrapping_add(o.b() as i32))?,
            ShlK32 => un(ctx, o, |x: i32| x.wrapping_shl(o.aux() as u32))?,
            MulK32 => un(ctx, o, |x: i32| x.wrapping_mul(o.b() as i32))?,
            ShrUK32 => un(ctx, o, |x: u32| x.wrapping_shr(o.aux() as u32))?,
            // A power-of-two divisor is a mask; `k = 0` is in no compiled stream.
            RemUK32 => un(ctx, o, |x: u32| match o.imm() as u32 {
                k if k.is_power_of_two() => Ok(x & (k - 1)),
                k => x.checked_rem(k).ok_or(Trap::IntegerDivideByZero),
            })?,
            AddShl32 => {
                bin(ctx, o, |x: i32, y: i32| y.wrapping_add(x.wrapping_shl(o.aux() as u32)))?
            }

            // -- i64 --
            Eqz64 => un(ctx, o, |v: i64| v == 0)?,
            Cmp64 => bin(ctx, o, |x, y| ieval64(o.aux(), x, y))?,
            Cmp64K => un(ctx, o, |x| ieval64(o.aux(), x, o.imm() as i64))?,
            Clz64 => un(ctx, o, |v: i64| v.leading_zeros() as i64)?,
            Ctz64 => un(ctx, o, |v: i64| v.trailing_zeros() as i64)?,
            Popcnt64 => un(ctx, o, |v: i64| v.count_ones() as i64)?,
            Add64 => bin(ctx, o, i64::wrapping_add)?,
            Sub64 => bin(ctx, o, i64::wrapping_sub)?,
            Mul64 => bin(ctx, o, i64::wrapping_mul)?,
            DivS64 => bin(ctx, o, exec::i64_div_s)?,
            DivU64 => bin(ctx, o, exec::i64_div_u)?,
            RemS64 => bin(ctx, o, exec::i64_rem_s)?,
            RemU64 => bin(ctx, o, exec::i64_rem_u)?,
            And64 => bin(ctx, o, |x: i64, y| x & y)?,
            Or64 => bin(ctx, o, |x: i64, y| x | y)?,
            Xor64 => bin(ctx, o, |x: i64, y| x ^ y)?,
            Shl64 => bin(ctx, o, |x: i64, y| x.wrapping_shl(y as u32))?,
            ShrS64 => bin(ctx, o, |x: i64, y| x.wrapping_shr(y as u32))?,
            ShrU64 => bin(ctx, o, |x: u64, y| x.wrapping_shr(y as u32))?,
            Rotl64 => bin(ctx, o, |x: i64, y| x.rotate_left((y & 63) as u32))?,
            Rotr64 => bin(ctx, o, |x: i64, y| x.rotate_right((y & 63) as u32))?,
            AddK64 => un(ctx, o, |x: i64| x.wrapping_add(o.imm() as i64))?,

            // -- f32 --
            CmpF32 => bin(ctx, o, |x: f32, y| feval(o.aux(), x, y))?,
            AbsF32 => un(ctx, o, f32::abs)?,
            NegF32 => un(ctx, o, |v: f32| -v)?,
            CeilF32 => un(ctx, o, f32::ceil)?,
            FloorF32 => un(ctx, o, f32::floor)?,
            TruncF32 => un(ctx, o, f32::trunc)?,
            NearestF32 => un(ctx, o, exec::nearest32)?,
            SqrtF32 => un(ctx, o, f32::sqrt)?,
            AddF32 => bin(ctx, o, |x: f32, y| x + y)?,
            SubF32 => bin(ctx, o, |x: f32, y| x - y)?,
            MulF32 => bin(ctx, o, |x: f32, y| x * y)?,
            DivF32 => bin(ctx, o, |x: f32, y| x / y)?,
            MinF32 => bin(ctx, o, exec::fmin32)?,
            MaxF32 => bin(ctx, o, exec::fmax32)?,
            CopysignF32 => bin(ctx, o, f32::copysign)?,

            // -- f64 --
            CmpF64 => bin(ctx, o, |x: f64, y| feval(o.aux(), x, y))?,
            AbsF64 => un(ctx, o, f64::abs)?,
            NegF64 => un(ctx, o, |v: f64| -v)?,
            CeilF64 => un(ctx, o, f64::ceil)?,
            FloorF64 => un(ctx, o, f64::floor)?,
            TruncF64 => un(ctx, o, f64::trunc)?,
            NearestF64 => un(ctx, o, exec::nearest64)?,
            SqrtF64 => un(ctx, o, f64::sqrt)?,
            AddF64 => bin(ctx, o, |x: f64, y| x + y)?,
            SubF64 => bin(ctx, o, |x: f64, y| x - y)?,
            MulF64 => bin(ctx, o, |x: f64, y| x * y)?,
            DivF64 => bin(ctx, o, |x: f64, y| x / y)?,
            MinF64 => bin(ctx, o, exec::fmin64)?,
            MaxF64 => bin(ctx, o, exec::fmax64)?,
            CopysignF64 => bin(ctx, o, f64::copysign)?,
            Fma64 => {
                let z = rg(ctx, o.c()).f64();
                // No FMA contraction: both roundings, as the unfused pair.
                bin(ctx, o, |x: f64, y: f64| z + x * y)?
            }

            // -- conversions --
            Wrap64 => un(ctx, o, |v: i64| v as i32)?,
            TruncF32S32 => un(ctx, o, |v: f32| exec::trunc_f64_to_i32(v as f64))?,
            TruncF32U32 => un(ctx, o, |v: f32| exec::trunc_f64_to_u32(v as f64))?,
            TruncF64S32 => un(ctx, o, exec::trunc_f64_to_i32)?,
            TruncF64U32 => un(ctx, o, exec::trunc_f64_to_u32)?,
            ExtS3264 => un(ctx, o, |v: i32| v as i64)?,
            ExtU3264 => un(ctx, o, |v: u32| v as u64)?,
            TruncF32S64 => un(ctx, o, |v: f32| exec::trunc_f64_to_i64(v as f64))?,
            TruncF32U64 => un(ctx, o, |v: f32| exec::trunc_f64_to_u64(v as f64))?,
            TruncF64S64 => un(ctx, o, exec::trunc_f64_to_i64)?,
            TruncF64U64 => un(ctx, o, exec::trunc_f64_to_u64)?,
            ConvS32F32 => un(ctx, o, |v: i32| v as f32)?,
            ConvU32F32 => un(ctx, o, |v: u32| v as f32)?,
            ConvS64F32 => un(ctx, o, |v: i64| v as f32)?,
            ConvU64F32 => un(ctx, o, |v: u64| v as f32)?,
            Demote => un(ctx, o, |v: f64| v as f32)?,
            ConvS32F64 => un(ctx, o, |v: i32| v as f64)?,
            ConvU32F64 => un(ctx, o, |v: u32| v as f64)?,
            ConvS64F64 => un(ctx, o, |v: i64| v as f64)?,
            ConvU64F64 => un(ctx, o, |v: u64| v as f64)?,
            Promote => un(ctx, o, |v: f32| v as f64)?,
            Ext8S32 => un(ctx, o, |v: i32| v as i8 as i32)?,
            Ext16S32 => un(ctx, o, |v: i32| v as i16 as i32)?,
            Ext8S64 => un(ctx, o, |v: i64| v as i8 as i64)?,
            Ext16S64 => un(ctx, o, |v: i64| v as i16 as i64)?,
            Ext32S64 => un(ctx, o, |v: i64| v as i32 as i64)?,

            // -- simd --
            Splat32 => {
                let l = rg(ctx, o.a()).u32() as u128;
                wr2(ctx, o.c(), l | l << 32 | l << 64 | l << 96);
            }
            Splat64 => {
                let l = rg(ctx, o.a()).u64() as u128;
                wr2(ctx, o.c(), l | l << 64);
            }
            Extract32 => {
                let lane = (rg2(ctx, o.a()) >> (32 * o.aux() as u32)) as u32;
                wr(ctx, o.c(), Slot::from_u32(lane));
            }
            Extract64 => {
                let lane = (rg2(ctx, o.a()) >> (64 * o.aux() as u32)) as u64;
                wr(ctx, o.c(), Slot::from_u64(lane));
            }
            Replace64 => {
                let mut lanes = exec::v_to_f64x2(rg2(ctx, o.a()));
                lanes[o.aux() as usize & 1] = rg(ctx, o.b()).f64();
                wr2(ctx, o.c(), exec::f64x2_to_v(lanes));
            }
            AddI32x4 => vbin(ctx, o, simd::add_i32x4),
            SubI32x4 => vbin(ctx, o, simd::sub_i32x4),
            MulI32x4 => vbin(ctx, o, simd::mul_i32x4),
            AddF32x4 => vbin(ctx, o, simd::add_f32x4),
            SubF32x4 => vbin(ctx, o, simd::sub_f32x4),
            MulF32x4 => vbin(ctx, o, simd::mul_f32x4),
            DivF32x4 => vbin(ctx, o, simd::div_f32x4),
            AddF64x2 => vbin(ctx, o, simd::add_f64x2),
            SubF64x2 => vbin(ctx, o, simd::sub_f64x2),
            MulF64x2 => vbin(ctx, o, simd::mul_f64x2),
            DivF64x2 => vbin(ctx, o, simd::div_f64x2),
            CmpF64x2 => vbin(ctx, o, |x, y| simd::cmp_f64x2(o.aux(), x, y)),
            VAnd => vbin(ctx, o, |x, y| x & y),
            VOr => vbin(ctx, o, |x, y| x | y),
            VXor => vbin(ctx, o, |x, y| x ^ y),
            VNot => {
                let v = rg2(ctx, o.a());
                wr2(ctx, o.c(), !v);
            }
            VAnyTrue => {
                let v = rg2(ctx, o.a());
                wr(ctx, o.c(), Slot::from_bool(v != 0));
            }
            AllTrueI32x4 => {
                let l = exec::v_to_i32x4(rg2(ctx, o.a()));
                wr(ctx, o.c(), Slot::from_bool(l.iter().all(|&x| x != 0)));
            }
            BitmaskI32x4 => {
                let l = exec::v_to_i32x4(rg2(ctx, o.a()));
                let m = l.iter().enumerate().fold(0, |m, (i, &x)| m | ((x < 0) as i32) << i);
                wr(ctx, o.c(), Slot::from_i32(m));
            }
        }
    }};
}
pub(crate) use exec;

/// v128 lane arithmetic over the two-slot `u128` representation:
/// `std::arch` intrinsics on x86_64 (SSE2 is baseline there), the scalar
/// lane helpers of [`crate::exec`] elsewhere.
pub(crate) mod simd {
    #[cfg(target_arch = "x86_64")]
    mod native {
        use std::arch::x86_64::*;
        use std::mem::transmute;

        /// One SSE2 intrinsic over `u128` operands.
        macro_rules! v128_intrin {
            ($($name:ident: $ty:ty, $intrin:ident;)*) => {$(
                #[inline(always)]
                pub(crate) fn $name(a: u128, b: u128) -> u128 {
                    // SAFETY: `u128` and the `__m128*` types are plain
                    // 16-byte values, every bit pattern valid for both, and
                    // lane order matches wasm's little-endian layout; SSE2
                    // is part of the x86_64 baseline, so the intrinsic is
                    // always available. Lane results are pinned against the
                    // scalar helpers by `ops::tests::sse_kernels_match_the_
                    // scalar_lane_helpers`.
                    unsafe {
                        let (x, y) = (transmute::<u128, $ty>(a), transmute::<u128, $ty>(b));
                        transmute::<$ty, u128>($intrin(x, y))
                    }
                }
            )*};
        }

        v128_intrin! {
            add_i32x4: __m128i, _mm_add_epi32;
            sub_i32x4: __m128i, _mm_sub_epi32;
            add_f32x4: __m128, _mm_add_ps;
            sub_f32x4: __m128, _mm_sub_ps;
            mul_f32x4: __m128, _mm_mul_ps;
            div_f32x4: __m128, _mm_div_ps;
            add_f64x2: __m128d, _mm_add_pd;
            sub_f64x2: __m128d, _mm_sub_pd;
            mul_f64x2: __m128d, _mm_mul_pd;
            div_f64x2: __m128d, _mm_div_pd;
            cmpeq_f64x2: __m128d, _mm_cmpeq_pd;
            cmpne_f64x2: __m128d, _mm_cmpneq_pd;
            cmplt_f64x2: __m128d, _mm_cmplt_pd;
            cmpgt_f64x2: __m128d, _mm_cmpgt_pd;
            cmple_f64x2: __m128d, _mm_cmple_pd;
            cmpge_f64x2: __m128d, _mm_cmpge_pd;
        }

        #[target_feature(enable = "sse4.1")]
        fn mullo(a: __m128i, b: __m128i) -> __m128i {
            _mm_mullo_epi32(a, b)
        }

        /// `i32x4.mul`: `_mm_mullo_epi32` needs SSE4.1, detected at run
        /// time (a cached load); the scalar lanes otherwise.
        #[inline(always)]
        pub(crate) fn mul_i32x4(a: u128, b: u128) -> u128 {
            if std::arch::is_x86_feature_detected!("sse4.1") {
                // SAFETY: `mullo` is only reached when SSE4.1 was detected
                // just above; the transmutes are between 16-byte plain
                // values as in `v128_intrin!`. Both branches are compared
                // lane by lane in `sse_kernels_match_the_scalar_lane_helpers`.
                unsafe {
                    let (x, y) = (transmute::<u128, __m128i>(a), transmute::<u128, __m128i>(b));
                    transmute::<__m128i, u128>(mullo(x, y))
                }
            } else {
                crate::exec::i32x4_bin(a, b, i32::wrapping_mul)
            }
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    mod native {
        use crate::exec::{f32x4_bin, f64x2_bin, f64x2_cmp, i32x4_bin};
        use crate::regalloc::{feval, FEQ, FGE, FGT, FLE, FLT, FNE};

        /// The same kernels as the scalar lane helpers.
        macro_rules! v128_scalar {
            ($($name:ident: $bin:ident, $f:expr;)*) => {$(
                #[inline(always)]
                pub(crate) fn $name(a: u128, b: u128) -> u128 {
                    $bin(a, b, $f)
                }
            )*};
        }

        v128_scalar! {
            add_i32x4: i32x4_bin, i32::wrapping_add;
            sub_i32x4: i32x4_bin, i32::wrapping_sub;
            mul_i32x4: i32x4_bin, i32::wrapping_mul;
            add_f32x4: f32x4_bin, |x, y| x + y;
            sub_f32x4: f32x4_bin, |x, y| x - y;
            mul_f32x4: f32x4_bin, |x, y| x * y;
            div_f32x4: f32x4_bin, |x, y| x / y;
            add_f64x2: f64x2_bin, |x, y| x + y;
            sub_f64x2: f64x2_bin, |x, y| x - y;
            mul_f64x2: f64x2_bin, |x, y| x * y;
            div_f64x2: f64x2_bin, |x, y| x / y;
            cmpeq_f64x2: f64x2_cmp, |x, y| feval(FEQ, x, y);
            cmpne_f64x2: f64x2_cmp, |x, y| feval(FNE, x, y);
            cmplt_f64x2: f64x2_cmp, |x, y| feval(FLT, x, y);
            cmpgt_f64x2: f64x2_cmp, |x, y| feval(FGT, x, y);
            cmple_f64x2: f64x2_cmp, |x, y| feval(FLE, x, y);
            cmpge_f64x2: f64x2_cmp, |x, y| feval(FGE, x, y);
        }
    }

    pub(crate) use native::*;

    /// `f64x2` comparison by [`crate::regalloc::FEQ`]-style code (the
    /// verifier bounds it by `FGE`).
    #[inline(always)]
    pub(crate) fn cmp_f64x2(code: u8, a: u128, b: u128) -> u128 {
        use crate::regalloc::{FEQ, FGT, FLE, FLT, FNE};
        match code {
            FEQ => cmpeq_f64x2(a, b),
            FNE => cmpne_f64x2(a, b),
            FLT => cmplt_f64x2(a, b),
            FGT => cmpgt_f64x2(a, b),
            FLE => cmple_f64x2(a, b),
            _ => cmpge_f64x2(a, b),
        }
    }

    /// The scalar lane form of [`cmp_f64x2`], the oracle the tests hold the
    /// intrinsics to.
    #[cfg(test)]
    pub(crate) fn cmp_f64x2_scalar(code: u8, a: u128, b: u128) -> u128 {
        crate::exec::f64x2_cmp(a, b, |x, y| crate::regalloc::feval(code, x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::simd;
    use crate::exec;
    use crate::regalloc::{FEQ, FGE};

    /// The v128 kernels against the scalar lane helpers `Baseline` uses,
    /// on every pair of a value set with NaNs, signed zeros, infinities
    /// and integer extremes in its lanes.
    #[test]
    fn sse_kernels_match_the_scalar_lane_helpers() {
        let f64s = [0.0, -0.0, 1.5, -3.25, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1e300];
        let f32s = [0.0f32, -0.0, 2.5, f32::NAN, -f32::INFINITY, 7e30, -1.0, 3.0];
        let i32s = [0, -1, i32::MIN, i32::MAX, 7, -65536, 0x1234_5678, 3];
        let mut vals = Vec::new();
        for k in 0..8 {
            vals.push(exec::f64x2_to_v([f64s[k], f64s[(k + 3) % 8]]));
            vals.push(exec::f32x4_to_v([0, 1, 2, 3].map(|j| f32s[(k + j) % 8])));
            vals.push(exec::i32x4_to_v([0, 1, 2, 3].map(|j| i32s[(k + 2 * j) % 8])));
        }
        for &a in &vals {
            for &b in &vals {
                let i32x4 = |f: fn(i32, i32) -> i32| exec::i32x4_bin(a, b, f);
                assert_eq!(simd::add_i32x4(a, b), i32x4(i32::wrapping_add));
                assert_eq!(simd::sub_i32x4(a, b), i32x4(i32::wrapping_sub));
                assert_eq!(simd::mul_i32x4(a, b), i32x4(i32::wrapping_mul));
                let f32x4 = |f: fn(f32, f32) -> f32| exec::f32x4_bin(a, b, f);
                assert_eq!(simd::add_f32x4(a, b), f32x4(|x, y| x + y));
                assert_eq!(simd::sub_f32x4(a, b), f32x4(|x, y| x - y));
                assert_eq!(simd::mul_f32x4(a, b), f32x4(|x, y| x * y));
                assert_eq!(simd::div_f32x4(a, b), f32x4(|x, y| x / y));
                let f64x2 = |f: fn(f64, f64) -> f64| exec::f64x2_bin(a, b, f);
                assert_eq!(simd::add_f64x2(a, b), f64x2(|x, y| x + y));
                assert_eq!(simd::sub_f64x2(a, b), f64x2(|x, y| x - y));
                assert_eq!(simd::mul_f64x2(a, b), f64x2(|x, y| x * y));
                assert_eq!(simd::div_f64x2(a, b), f64x2(|x, y| x / y));
                for code in FEQ..=FGE {
                    assert_eq!(simd::cmp_f64x2(code, a, b), simd::cmp_f64x2_scalar(code, a, b));
                }
            }
        }
    }
}

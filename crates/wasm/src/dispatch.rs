//! Threaded dispatch for the register-form flat tiers: a fn-pointer
//! handler table indexed by [`Rc`] opcode, replacing the single giant
//! `match` the previous engine dispatched through.
//!
//! # Handler contract
//!
//! Every handler has the shape `fn(&mut Ctx, ip) -> Result<usize, Trap>`
//! and returns the **next** instruction pointer (or [`DONE`] when the
//! outermost frame returns). The central loop is deliberately tiny —
//! fetch opcode byte, indirect call — so the compiler keeps `ip`, the
//! code pointer and the frame base in registers across the call; handlers
//! keep their tails tight (compute, one write, return `ip + 1`) for the
//! same reason. Trapping paths return `Err` and unwind the Rust way.
//!
//! # Frame arena
//!
//! Frames are statically sized (`RegFunc::frame_size`) windows of the
//! per-instance slot arena. A guest call places the callee frame at the
//! caller's argument registers (`base + arg_base`), so the caller's
//! outgoing arguments *are* the callee's parameter registers — no copy,
//! no allocation. The arena only grows during an invocation; the stack
//! limit is enforced per call (`base + frame_size` against
//! `max_value_stack`), which replaces the old per-1024-ops counter —
//! straight-line code cannot grow a frame at run time in register form.
//!
//! Register accesses are unchecked in release builds: the
//! [`crate::regalloc`] verifier proved every operand `< frame_size`, and
//! the call/entry paths maintain `base + frame_size <= stack.len()`.

use std::sync::Arc;

use crate::error::Trap;
use crate::exec;
use crate::regalloc::{feval, unwind_parts, Rc, RegFunc};
use crate::runtime::{Instance, Slot};
use crate::tier::{BodyCell, CompiledBody};

/// Sentinel "next ip" meaning the outermost activation returned.
const DONE: usize = usize::MAX;

/// A suspended caller activation.
struct Frame {
    defined_idx: u32,
    ret_ip: u32,
    base: u32,
}

/// Execution context threaded through every handler. Fields are crate
/// visible so the superblock closure tier ([`crate::closures`]) can reuse
/// the same register/memory access paths as the handlers.
pub(crate) struct Ctx<'a> {
    pub(crate) inst: &'a mut Instance,
    pub(crate) stack: &'a mut Vec<Slot>,
    bodies: &'a [BodyCell],
    frames: Vec<Frame>,
    func: &'a RegFunc,
    code: &'a [crate::regalloc::RegOp],
    /// Absolute arena offset of the current frame's register 0.
    pub(crate) base: usize,
    imported: u32,
    cur_idx: u32,
}

/// The register form of defined function `idx`, which has been lowered:
/// an entry function ([`crate::ir::call`] asked for it), one a frame
/// returns to, or one [`call_guest`] just asked for.
#[inline]
fn flat(bodies: &[BodyCell], idx: usize) -> &RegFunc {
    match bodies[idx].get() {
        Some(Ok(CompiledBody::Flat(f))) => f,
        _ => unreachable!("lowered flat body expected"),
    }
}

/// Read register `r` of the current frame.
#[inline(always)]
pub(crate) fn rg(ctx: &Ctx<'_>, r: u32) -> Slot {
    let i = ctx.base + r as usize;
    debug_assert!(i < ctx.stack.len(), "register read out of arena");
    unsafe { *ctx.stack.get_unchecked(i) }
}

/// Write register `r` of the current frame.
#[inline(always)]
pub(crate) fn wr(ctx: &mut Ctx<'_>, r: u32, v: Slot) {
    let i = ctx.base + r as usize;
    debug_assert!(i < ctx.stack.len(), "register write out of arena");
    unsafe { *ctx.stack.get_unchecked_mut(i) = v }
}

/// Read a wide (v128) register: two slots, low half first.
#[inline(always)]
pub(crate) fn rg2(ctx: &Ctx<'_>, r: u32) -> u128 {
    rg(ctx, r).0 as u128 | (rg(ctx, r + 1).0 as u128) << 64
}

#[inline(always)]
pub(crate) fn wr2(ctx: &mut Ctx<'_>, r: u32, v: u128) {
    wr(ctx, r, Slot(v as u64));
    wr(ctx, r + 1, Slot((v >> 64) as u64));
}

/// Take a branch: perform the packed unwind copy, return the target.
#[inline(always)]
fn take(ctx: &mut Ctx<'_>, target: u32, unwind: u64) -> usize {
    if unwind != 0 {
        let (src, dst, arity) = unwind_parts(unwind);
        let b = ctx.base;
        ctx.stack.copy_within(b + src..b + src + arity, b + dst);
    }
    target as usize
}

/// Total i32 comparison eval over [`crate::ir::Cmp`] byte codes.
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

pub(crate) type Handler = for<'a> fn(&mut Ctx<'a>, usize) -> Result<usize, Trap>;

/// The interpreter handler for one opcode — the closure tier's generic
/// fallback step for ops it does not monomorphize.
pub(crate) fn handler(code: Rc) -> Handler {
    HANDLERS[code as usize]
}

/// Fallthrough-op handler: body runs, then `ip + 1`.
macro_rules! h {
    ($name:ident, |$ctx:ident, $op:ident| $body:expr) => {
        fn $name<'a>($ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
            let $op = $ctx.code[ip];
            $body;
            Ok(ip + 1)
        }
    };
}

macro_rules! bin {
    ($name:ident, $read:ident, $wrap:path, $f:expr) => {
        h!($name, |ctx, op| {
            let a = rg(ctx, op.a).$read();
            let b = rg(ctx, op.b).$read();
            wr(ctx, op.c, $wrap($f(a, b)));
        });
    };
}

macro_rules! un {
    ($name:ident, $read:ident, $wrap:path, $f:expr) => {
        h!($name, |ctx, op| {
            let v = rg(ctx, op.a).$read();
            wr(ctx, op.c, $wrap($f(v)));
        });
    };
}

macro_rules! trapbin {
    ($name:ident, $read:ident, $wrap:path, $f:path) => {
        h!($name, |ctx, op| {
            let a = rg(ctx, op.a).$read();
            let b = rg(ctx, op.b).$read();
            wr(ctx, op.c, $wrap($f(a, b)?));
        });
    };
}

macro_rules! ld {
    ($name:ident, $n:expr, $raw:ty, $conv:ty, $wrap:path) => {
        h!($name, |ctx, op| {
            let addr = rg(ctx, op.a).i32().wrapping_add((op.imm >> 32) as i32) as u32;
            let start = ctx.inst.memory.effective(addr, op.imm as u32, $n)?;
            let raw = <$raw>::from_le_bytes(ctx.inst.memory.load::<{ $n as usize }>(start));
            wr(ctx, op.c, $wrap(raw as $conv));
        });
    };
}

macro_rules! ldshl {
    ($name:ident, $n:expr, $raw:ty, $wrap:path) => {
        h!($name, |ctx, op| {
            let addr = rg(ctx, op.b)
                .i32()
                .wrapping_add(rg(ctx, op.a).i32().wrapping_shl(op.aux as u32))
                as u32;
            let start = ctx.inst.memory.effective(addr, op.imm as u32, $n)?;
            let raw = <$raw>::from_le_bytes(ctx.inst.memory.load::<{ $n as usize }>(start));
            wr(ctx, op.c, $wrap(raw));
        });
    };
}

macro_rules! ldshlk {
    ($name:ident, $n:expr, $raw:ty, $wrap:path) => {
        h!($name, |ctx, op| {
            let addr = rg(ctx, op.a)
                .i32()
                .wrapping_shl(op.aux as u32)
                .wrapping_add((op.imm >> 32) as i32) as u32;
            let start = ctx.inst.memory.effective(addr, op.imm as u32, $n)?;
            let raw = <$raw>::from_le_bytes(ctx.inst.memory.load::<{ $n as usize }>(start));
            wr(ctx, op.c, $wrap(raw));
        });
    };
}

macro_rules! st {
    ($name:ident, $n:expr, $cast:ty) => {
        h!($name, |ctx, op| {
            let addr = rg(ctx, op.a).u32();
            let val = rg(ctx, op.b).u64();
            let start = ctx.inst.memory.effective(addr, op.imm as u32, $n)?;
            ctx.inst.memory.store(start, &((val as $cast).to_le_bytes()));
        });
    };
}

macro_rules! stshl {
    ($name:ident, $n:expr, $cast:ty) => {
        h!($name, |ctx, op| {
            let addr = rg(ctx, op.c)
                .i32()
                .wrapping_add(rg(ctx, op.a).i32().wrapping_shl(op.aux as u32))
                as u32;
            let val = rg(ctx, op.b).u64();
            let start = ctx.inst.memory.effective(addr, op.imm as u32, $n)?;
            ctx.inst.memory.store(start, &((val as $cast).to_le_bytes()));
        });
    };
}

macro_rules! stshlk {
    ($name:ident, $n:expr, $cast:ty) => {
        h!($name, |ctx, op| {
            let addr = rg(ctx, op.a)
                .i32()
                .wrapping_shl(op.aux as u32)
                .wrapping_add((op.imm >> 32) as i32) as u32;
            let val = rg(ctx, op.b).u64();
            let start = ctx.inst.memory.effective(addr, op.imm as u32, $n)?;
            ctx.inst.memory.store(start, &((val as $cast).to_le_bytes()));
        });
    };
}

macro_rules! vbin {
    ($name:ident, $f:expr) => {
        h!($name, |ctx, op| {
            let a = rg2(ctx, op.a);
            let b = rg2(ctx, op.b);
            wr2(ctx, op.c, $f(a, b));
        });
    };
}

// --- control ---

fn h_bad<'a>(_: &mut Ctx<'a>, _: usize) -> Result<usize, Trap> {
    Err(Trap::host("invalid register opcode"))
}

fn h_nop<'a>(_: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    Ok(ip + 1)
}

fn h_unreachable<'a>(_: &mut Ctx<'a>, _: usize) -> Result<usize, Trap> {
    Err(Trap::Unreachable)
}

fn h_jump<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    Ok(ctx.code[ip].c as usize)
}

fn h_br<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    Ok(take(ctx, op.c, op.imm))
}

fn h_br_if<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    if rg(ctx, op.a).i32() != 0 {
        Ok(take(ctx, op.c, op.imm))
    } else {
        Ok(ip + 1)
    }
}

fn h_br_if_z<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    if rg(ctx, op.a).i32() == 0 {
        Ok(take(ctx, op.c, op.imm))
    } else {
        Ok(ip + 1)
    }
}

fn h_br_if_cmp32<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    if ieval32(op.aux, rg(ctx, op.a).i32(), rg(ctx, op.b).i32()) {
        Ok(take(ctx, op.c, op.imm))
    } else {
        Ok(ip + 1)
    }
}

fn h_br_if_cmp32k<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    if ieval32(op.aux, rg(ctx, op.a).i32(), op.b as i32) {
        Ok(take(ctx, op.c, op.imm))
    } else {
        Ok(ip + 1)
    }
}

fn h_br_table<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    let idx = rg(ctx, op.a).u32().min(op.c);
    let d = ctx.func.dest_pool[op.b as usize + idx as usize];
    Ok(take(ctx, d.target, d.unwind))
}

fn h_return<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    let n = ctx.func.result_slots as usize;
    if n != 0 && op.a != 0 {
        let b = ctx.base;
        let src = b + op.a as usize;
        ctx.stack.copy_within(src..src + n, b);
    }
    match ctx.frames.pop() {
        None => Ok(DONE),
        Some(fr) => {
            ctx.cur_idx = fr.defined_idx;
            let f = flat(ctx.bodies, fr.defined_idx as usize);
            ctx.func = f;
            ctx.code = &f.code;
            ctx.base = fr.base as usize;
            Ok(fr.ret_ip as usize)
        }
    }
}

#[inline(always)]
fn call_guest<'a>(
    ctx: &mut Ctx<'a>,
    defined: u32,
    arg_base: u32,
    ret_ip: usize,
) -> Result<usize, Trap> {
    if ctx.frames.len() + ctx.inst.depth + 1 >= ctx.inst.limits.max_call_depth {
        return Err(Trap::StackExhausted);
    }
    // The first call of a function by anyone lowers it, for every
    // instance of the module — or traps, if it cannot be lowered.
    ctx.inst.bodies.body(defined as usize)?;
    let f = flat(ctx.bodies, defined as usize);
    let new_base = ctx.base + arg_base as usize;
    let need = new_base + f.frame_size as usize;
    if need > ctx.inst.limits.max_value_stack {
        return Err(Trap::StackExhausted);
    }
    if ctx.stack.len() < need {
        ctx.stack.resize(need, Slot::ZERO);
    }
    // The arena below `need` may hold stale slots from deeper earlier
    // calls; declared locals must start zeroed. Stack-temp registers need
    // no init (validation proves write-before-read).
    let (p, l) = (f.param_slots as usize, f.n_local_slots as usize);
    ctx.stack[new_base + p..new_base + l].fill(Slot::ZERO);
    ctx.frames.push(Frame {
        defined_idx: ctx.cur_idx,
        ret_ip: ret_ip as u32,
        base: ctx.base as u32,
    });
    ctx.cur_idx = defined;
    ctx.func = f;
    ctx.code = &f.code;
    ctx.base = new_base;
    Ok(0)
}

fn call_host(ctx: &mut Ctx<'_>, idx: u32, arg_base: u32) -> Result<(), Trap> {
    if ctx.frames.len() + ctx.inst.depth + 1 >= ctx.inst.limits.max_call_depth {
        return Err(Trap::StackExhausted);
    }
    let n = ctx.inst.host_arg_slots[idx as usize] as usize;
    let at = ctx.base + arg_base as usize;
    let args = ctx
        .stack
        .get(at..at + n)
        .ok_or_else(|| Trap::host("host call arguments out of frame"))?;
    let hf = Arc::clone(&ctx.inst.host_funcs[idx as usize]);
    ctx.inst.depth += 1;
    let results = hf(ctx.inst, args);
    ctx.inst.depth -= 1;
    let results = results?;
    ctx.stack
        .get_mut(at..at + results.len())
        .ok_or_else(|| Trap::host("host call results out of frame"))?
        .copy_from_slice(&results);
    Ok(())
}

fn h_call_guest<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    call_guest(ctx, op.a, op.b, ip + 1)
}

fn h_call_host<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    call_host(ctx, op.a, op.b)?;
    Ok(ip + 1)
}

fn h_call_indirect<'a>(ctx: &mut Ctx<'a>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    let slot_idx = rg(ctx, op.c).u32();
    let func_idx = ctx.inst.resolve_indirect(slot_idx, op.a)?;
    if func_idx < ctx.imported {
        call_host(ctx, func_idx, op.b)?;
        Ok(ip + 1)
    } else {
        call_guest(ctx, func_idx - ctx.imported, op.b, ip + 1)
    }
}

// --- moves / parametric ---

h!(h_copy, |ctx, op| {
    let v = rg(ctx, op.a);
    wr(ctx, op.c, v);
});
h!(h_copy2, |ctx, op| {
    let lo = rg(ctx, op.a);
    let hi = rg(ctx, op.a + 1);
    wr(ctx, op.c, lo);
    wr(ctx, op.c + 1, hi);
});
h!(h_select, |ctx, op| {
    if rg(ctx, op.c).i32() == 0 {
        let v = rg(ctx, op.b);
        wr(ctx, op.a, v);
    }
});
h!(h_select2, |ctx, op| {
    if rg(ctx, op.c).i32() == 0 {
        let v = rg2(ctx, op.b);
        wr2(ctx, op.a, v);
    }
});
h!(h_global_get, |ctx, op| {
    let v = ctx.inst.globals[op.a as usize];
    wr(ctx, op.c, v);
});
h!(h_global_set, |ctx, op| {
    ctx.inst.globals[op.a as usize] = rg(ctx, op.b);
});

// --- constants ---

h!(h_const, |ctx, op| wr(ctx, op.c, Slot(op.imm)));
h!(h_v128_const, |ctx, op| {
    let v = ctx.func.v128_pool[op.a as usize];
    wr2(ctx, op.c, v);
});

// --- memory ---

ld!(h_load32, 4, u32, u32, Slot::from_u32);
ld!(h_load64, 8, u64, u64, Slot::from_u64);
ld!(h_load8s32, 1, i8, i32, Slot::from_i32);
ld!(h_load8u32, 1, u8, i32, Slot::from_i32);
ld!(h_load16s32, 2, i16, i32, Slot::from_i32);
ld!(h_load16u32, 2, u16, i32, Slot::from_i32);
ld!(h_load8s64, 1, i8, i64, Slot::from_i64);
ld!(h_load8u64, 1, u8, i64, Slot::from_i64);
ld!(h_load16s64, 2, i16, i64, Slot::from_i64);
ld!(h_load16u64, 2, u16, i64, Slot::from_i64);
ld!(h_load32s64, 4, i32, i64, Slot::from_i64);
ld!(h_load32u64, 4, u32, i64, Slot::from_i64);
h!(h_v128_load, |ctx, op| {
    let addr = rg(ctx, op.a).u32();
    let start = ctx.inst.memory.effective(addr, op.imm as u32, 16)?;
    let v = u128::from_le_bytes(ctx.inst.memory.load::<16>(start));
    wr2(ctx, op.c, v);
});
st!(h_store8, 1, u8);
st!(h_store16, 2, u16);
st!(h_store32, 4, u32);
st!(h_store64, 8, u64);
h!(h_v128_store, |ctx, op| {
    let addr = rg(ctx, op.a).u32();
    let val = rg2(ctx, op.b);
    let start = ctx.inst.memory.effective(addr, op.imm as u32, 16)?;
    ctx.inst.memory.store(start, &val.to_le_bytes());
});
ldshl!(h_load32_shl, 4, u32, Slot::from_u32);
ldshl!(h_load64_shl, 8, u64, Slot::from_u64);
ldshlk!(h_load32_shlk, 4, u32, Slot::from_u32);
ldshlk!(h_load64_shlk, 8, u64, Slot::from_u64);
stshl!(h_store32_shl, 4, u32);
stshl!(h_store64_shl, 8, u64);
stshlk!(h_store32_shlk, 4, u32);
stshlk!(h_store64_shlk, 8, u64);
h!(h_mem_size, |ctx, op| {
    let v = Slot::from_i32(ctx.inst.memory.size_pages() as i32);
    wr(ctx, op.c, v);
});
h!(h_mem_grow, |ctx, op| {
    let delta = rg(ctx, op.a).i32();
    let r = if delta < 0 { -1 } else { ctx.inst.memory.grow(delta as u32) };
    wr(ctx, op.c, Slot::from_i32(r));
});
h!(h_mem_copy, |ctx, op| {
    let dst = rg(ctx, op.a).u32();
    let src = rg(ctx, op.b).u32();
    let len = rg(ctx, op.c).u32();
    ctx.inst.memory.copy_within(dst, src, len)?;
});
h!(h_mem_fill, |ctx, op| {
    let dst = rg(ctx, op.a).u32();
    let val = rg(ctx, op.b).i32() as u8;
    let len = rg(ctx, op.c).u32();
    ctx.inst.memory.fill(dst, val, len)?;
});

// --- i32 ---

un!(h_eqz32, i32, Slot::from_bool, |v| v == 0);
h!(h_cmp32, |ctx, op| {
    let r = ieval32(op.aux, rg(ctx, op.a).i32(), rg(ctx, op.b).i32());
    wr(ctx, op.c, Slot::from_bool(r));
});
un!(h_clz32, i32, Slot::from_i32, |v: i32| v.leading_zeros() as i32);
un!(h_ctz32, i32, Slot::from_i32, |v: i32| v.trailing_zeros() as i32);
un!(h_popcnt32, i32, Slot::from_i32, |v: i32| v.count_ones() as i32);
bin!(h_add32, i32, Slot::from_i32, i32::wrapping_add);
bin!(h_sub32, i32, Slot::from_i32, i32::wrapping_sub);
bin!(h_mul32, i32, Slot::from_i32, i32::wrapping_mul);
trapbin!(h_divs32, i32, Slot::from_i32, exec::i32_div_s);
trapbin!(h_divu32, i32, Slot::from_i32, exec::i32_div_u);
trapbin!(h_rems32, i32, Slot::from_i32, exec::i32_rem_s);
trapbin!(h_remu32, i32, Slot::from_i32, exec::i32_rem_u);
bin!(h_and32, i32, Slot::from_i32, |a, b| a & b);
bin!(h_or32, i32, Slot::from_i32, |a, b| a | b);
bin!(h_xor32, i32, Slot::from_i32, |a, b| a ^ b);
bin!(h_shl32, i32, Slot::from_i32, |a: i32, b| a.wrapping_shl(b as u32));
bin!(h_shrs32, i32, Slot::from_i32, |a: i32, b| a.wrapping_shr(b as u32));
bin!(h_shru32, i32, Slot::from_i32, |a, b| ((a as u32).wrapping_shr(b as u32)) as i32);
bin!(h_rotl32, i32, Slot::from_i32, |a: i32, b| a.rotate_left((b as u32) & 31));
bin!(h_rotr32, i32, Slot::from_i32, |a: i32, b| a.rotate_right((b as u32) & 31));
h!(h_cmp32k, |ctx, op| {
    let r = ieval32(op.aux, rg(ctx, op.a).i32(), op.b as i32);
    wr(ctx, op.c, Slot::from_bool(r));
});
h!(h_cmpaddk32, |ctx, op| {
    let x = rg(ctx, op.a).i32().wrapping_add(op.imm as i32);
    wr(ctx, op.c, Slot::from_bool(ieval32(op.aux, x, op.b as i32)));
});
h!(h_addk32, |ctx, op| {
    let r = rg(ctx, op.a).i32().wrapping_add(op.b as i32);
    wr(ctx, op.c, Slot::from_i32(r));
});
h!(h_cmp64k, |ctx, op| {
    let r = ieval64(op.aux, rg(ctx, op.a).i64(), op.imm as i64);
    wr(ctx, op.c, Slot::from_bool(r));
});
h!(h_addk64, |ctx, op| {
    let r = rg(ctx, op.a).i64().wrapping_add(op.imm as i64);
    wr(ctx, op.c, Slot::from_i64(r));
});
h!(h_shlk32, |ctx, op| {
    let r = rg(ctx, op.a).i32().wrapping_shl(op.aux as u32);
    wr(ctx, op.c, Slot::from_i32(r));
});
h!(h_addshl32, |ctx, op| {
    let r = rg(ctx, op.b)
        .i32()
        .wrapping_add(rg(ctx, op.a).i32().wrapping_shl(op.aux as u32));
    wr(ctx, op.c, Slot::from_i32(r));
});

// --- i64 ---

un!(h_eqz64, i64, Slot::from_bool, |v| v == 0);
h!(h_cmp64, |ctx, op| {
    let r = ieval64(op.aux, rg(ctx, op.a).i64(), rg(ctx, op.b).i64());
    wr(ctx, op.c, Slot::from_bool(r));
});
un!(h_clz64, i64, Slot::from_i64, |v: i64| v.leading_zeros() as i64);
un!(h_ctz64, i64, Slot::from_i64, |v: i64| v.trailing_zeros() as i64);
un!(h_popcnt64, i64, Slot::from_i64, |v: i64| v.count_ones() as i64);
bin!(h_add64, i64, Slot::from_i64, i64::wrapping_add);
bin!(h_sub64, i64, Slot::from_i64, i64::wrapping_sub);
bin!(h_mul64, i64, Slot::from_i64, i64::wrapping_mul);
trapbin!(h_divs64, i64, Slot::from_i64, exec::i64_div_s);
trapbin!(h_divu64, i64, Slot::from_i64, exec::i64_div_u);
trapbin!(h_rems64, i64, Slot::from_i64, exec::i64_rem_s);
trapbin!(h_remu64, i64, Slot::from_i64, exec::i64_rem_u);
bin!(h_and64, i64, Slot::from_i64, |a, b| a & b);
bin!(h_or64, i64, Slot::from_i64, |a, b| a | b);
bin!(h_xor64, i64, Slot::from_i64, |a, b| a ^ b);
bin!(h_shl64, i64, Slot::from_i64, |a: i64, b| a.wrapping_shl(b as u32));
bin!(h_shrs64, i64, Slot::from_i64, |a: i64, b| a.wrapping_shr(b as u32));
bin!(h_shru64, i64, Slot::from_i64, |a, b| ((a as u64).wrapping_shr(b as u32)) as i64);
bin!(h_rotl64, i64, Slot::from_i64, |a: i64, b| a.rotate_left((b as u64 & 63) as u32));
bin!(h_rotr64, i64, Slot::from_i64, |a: i64, b| a.rotate_right((b as u64 & 63) as u32));

// --- f32 ---

h!(h_cmpf32, |ctx, op| {
    let r = feval(op.aux, rg(ctx, op.a).f32(), rg(ctx, op.b).f32());
    wr(ctx, op.c, Slot::from_bool(r));
});
un!(h_absf32, f32, Slot::from_f32, f32::abs);
un!(h_negf32, f32, Slot::from_f32, |v: f32| -v);
un!(h_ceilf32, f32, Slot::from_f32, f32::ceil);
un!(h_floorf32, f32, Slot::from_f32, f32::floor);
un!(h_truncf32, f32, Slot::from_f32, f32::trunc);
un!(h_nearestf32, f32, Slot::from_f32, exec::nearest32);
un!(h_sqrtf32, f32, Slot::from_f32, f32::sqrt);
bin!(h_addf32, f32, Slot::from_f32, |a, b| a + b);
bin!(h_subf32, f32, Slot::from_f32, |a, b| a - b);
bin!(h_mulf32, f32, Slot::from_f32, |a, b| a * b);
bin!(h_divf32, f32, Slot::from_f32, |a, b| a / b);
bin!(h_minf32, f32, Slot::from_f32, exec::fmin32);
bin!(h_maxf32, f32, Slot::from_f32, exec::fmax32);
bin!(h_copysignf32, f32, Slot::from_f32, f32::copysign);

// --- f64 ---

h!(h_cmpf64, |ctx, op| {
    let r = feval(op.aux, rg(ctx, op.a).f64(), rg(ctx, op.b).f64());
    wr(ctx, op.c, Slot::from_bool(r));
});
un!(h_absf64, f64, Slot::from_f64, f64::abs);
un!(h_negf64, f64, Slot::from_f64, |v: f64| -v);
un!(h_ceilf64, f64, Slot::from_f64, f64::ceil);
un!(h_floorf64, f64, Slot::from_f64, f64::floor);
un!(h_truncf64, f64, Slot::from_f64, f64::trunc);
un!(h_nearestf64, f64, Slot::from_f64, exec::nearest64);
un!(h_sqrtf64, f64, Slot::from_f64, f64::sqrt);
bin!(h_addf64, f64, Slot::from_f64, |a, b| a + b);
bin!(h_subf64, f64, Slot::from_f64, |a, b| a - b);
bin!(h_mulf64, f64, Slot::from_f64, |a, b| a * b);
bin!(h_divf64, f64, Slot::from_f64, |a, b| a / b);
bin!(h_minf64, f64, Slot::from_f64, exec::fmin64);
bin!(h_maxf64, f64, Slot::from_f64, exec::fmax64);
bin!(h_copysignf64, f64, Slot::from_f64, f64::copysign);
h!(h_fma64, |ctx, op| {
    let a = rg(ctx, op.a).f64();
    let b = rg(ctx, op.b).f64();
    let c = rg(ctx, op.c).f64();
    // No FMA contraction: both roundings performed, as the unfused pair.
    wr(ctx, op.c, Slot::from_f64(c + a * b));
});

// --- conversions ---

un!(h_wrap64, i64, Slot::from_i32, |v| v as i32);
h!(h_truncf32s32, |ctx, op| {
    let v = rg(ctx, op.a).f32();
    wr(ctx, op.c, Slot::from_i32(exec::trunc_f64_to_i32(v as f64)?));
});
h!(h_truncf32u32, |ctx, op| {
    let v = rg(ctx, op.a).f32();
    wr(ctx, op.c, Slot::from_i32(exec::trunc_f64_to_u32(v as f64)? as i32));
});
h!(h_truncf64s32, |ctx, op| {
    let v = rg(ctx, op.a).f64();
    wr(ctx, op.c, Slot::from_i32(exec::trunc_f64_to_i32(v)?));
});
h!(h_truncf64u32, |ctx, op| {
    let v = rg(ctx, op.a).f64();
    wr(ctx, op.c, Slot::from_i32(exec::trunc_f64_to_u32(v)? as i32));
});
un!(h_exts3264, i32, Slot::from_i64, |v| v as i64);
un!(h_extu3264, i32, Slot::from_i64, |v| v as u32 as i64);
h!(h_truncf32s64, |ctx, op| {
    let v = rg(ctx, op.a).f32();
    wr(ctx, op.c, Slot::from_i64(exec::trunc_f64_to_i64(v as f64)?));
});
h!(h_truncf32u64, |ctx, op| {
    let v = rg(ctx, op.a).f32();
    wr(ctx, op.c, Slot::from_i64(exec::trunc_f64_to_u64(v as f64)? as i64));
});
h!(h_truncf64s64, |ctx, op| {
    let v = rg(ctx, op.a).f64();
    wr(ctx, op.c, Slot::from_i64(exec::trunc_f64_to_i64(v)?));
});
h!(h_truncf64u64, |ctx, op| {
    let v = rg(ctx, op.a).f64();
    wr(ctx, op.c, Slot::from_i64(exec::trunc_f64_to_u64(v)? as i64));
});
un!(h_convs32f32, i32, Slot::from_f32, |v| v as f32);
un!(h_convu32f32, i32, Slot::from_f32, |v| v as u32 as f32);
un!(h_convs64f32, i64, Slot::from_f32, |v| v as f32);
un!(h_convu64f32, i64, Slot::from_f32, |v| v as u64 as f32);
un!(h_demote, f64, Slot::from_f32, |v| v as f32);
un!(h_convs32f64, i32, Slot::from_f64, |v| v as f64);
un!(h_convu32f64, i32, Slot::from_f64, |v| v as u32 as f64);
un!(h_convs64f64, i64, Slot::from_f64, |v| v as f64);
un!(h_convu64f64, i64, Slot::from_f64, |v| v as u64 as f64);
un!(h_promote, f32, Slot::from_f64, |v| v as f64);
un!(h_ext8s32, i32, Slot::from_i32, |v| v as i8 as i32);
un!(h_ext16s32, i32, Slot::from_i32, |v| v as i16 as i32);
un!(h_ext8s64, i64, Slot::from_i64, |v| v as i8 as i64);
un!(h_ext16s64, i64, Slot::from_i64, |v| v as i16 as i64);
un!(h_ext32s64, i64, Slot::from_i64, |v| v as i32 as i64);

// --- simd ---

h!(h_splat32, |ctx, op| {
    let v = rg(ctx, op.a).u32();
    let lane = v as u128;
    wr2(ctx, op.c, lane | lane << 32 | lane << 64 | lane << 96);
});
h!(h_splat64, |ctx, op| {
    let v = rg(ctx, op.a).u64();
    wr2(ctx, op.c, v as u128 | (v as u128) << 64);
});
h!(h_extract32, |ctx, op| {
    let v = rg2(ctx, op.a);
    let lane = (v >> (32 * op.aux as u32)) as u32;
    wr(ctx, op.c, Slot::from_u32(lane));
});
h!(h_extract64, |ctx, op| {
    let v = rg2(ctx, op.a);
    let lane = (v >> (64 * op.aux as u32)) as u64;
    wr(ctx, op.c, Slot::from_u64(lane));
});
h!(h_replace64, |ctx, op| {
    let x = rg(ctx, op.b).f64();
    let v = rg2(ctx, op.a);
    let mut lanes = exec::v_to_f64x2(v);
    lanes[op.aux as usize & 1] = x;
    wr2(ctx, op.c, exec::f64x2_to_v(lanes));
});
vbin!(h_addi32x4, |a, b| exec::i32x4_bin(a, b, i32::wrapping_add));
vbin!(h_subi32x4, |a, b| exec::i32x4_bin(a, b, i32::wrapping_sub));
vbin!(h_muli32x4, |a, b| exec::i32x4_bin(a, b, i32::wrapping_mul));
vbin!(h_addf32x4, |a, b| exec::f32x4_bin(a, b, |x, y| x + y));
vbin!(h_subf32x4, |a, b| exec::f32x4_bin(a, b, |x, y| x - y));
vbin!(h_mulf32x4, |a, b| exec::f32x4_bin(a, b, |x, y| x * y));
vbin!(h_divf32x4, |a, b| exec::f32x4_bin(a, b, |x, y| x / y));
vbin!(h_addf64x2, |a, b| exec::f64x2_bin(a, b, |x, y| x + y));
vbin!(h_subf64x2, |a, b| exec::f64x2_bin(a, b, |x, y| x - y));
vbin!(h_mulf64x2, |a, b| exec::f64x2_bin(a, b, |x, y| x * y));
vbin!(h_divf64x2, |a, b| exec::f64x2_bin(a, b, |x, y| x / y));
h!(h_cmpf64x2, |ctx, op| {
    let a = rg2(ctx, op.a);
    let b = rg2(ctx, op.b);
    let code = op.aux;
    let r = exec::f64x2_cmp(a, b, |x, y| feval(code, x, y));
    wr2(ctx, op.c, r);
});
vbin!(h_vand, |a, b| a & b);
vbin!(h_vor, |a, b| a | b);
vbin!(h_vxor, |a, b| a ^ b);
h!(h_vnot, |ctx, op| {
    let a = rg2(ctx, op.a);
    wr2(ctx, op.c, !a);
});
h!(h_vanytrue, |ctx, op| {
    let a = rg2(ctx, op.a);
    wr(ctx, op.c, Slot::from_bool(a != 0));
});
h!(h_alltruei32x4, |ctx, op| {
    let a = exec::v_to_i32x4(rg2(ctx, op.a));
    wr(ctx, op.c, Slot::from_bool(a.iter().all(|&l| l != 0)));
});
h!(h_bitmaski32x4, |ctx, op| {
    let a = exec::v_to_i32x4(rg2(ctx, op.a));
    let mut m = 0;
    for (i, l) in a.iter().enumerate() {
        if *l < 0 {
            m |= 1 << i;
        }
    }
    wr(ctx, op.c, Slot::from_i32(m));
});

/// The dispatch table: one handler per [`Rc`] discriminant. Unassigned
/// slots hold [`h_bad`], which only fires on memory corruption (the
/// verifier never emits opcodes outside the enum).
static HANDLERS: [Handler; 256] = {
    let mut t: [Handler; 256] = [h_bad; 256];
    t[Rc::Nop as usize] = h_nop;
    t[Rc::Jump as usize] = h_jump;
    t[Rc::Br as usize] = h_br;
    t[Rc::BrIf as usize] = h_br_if;
    t[Rc::BrIfZ as usize] = h_br_if_z;
    t[Rc::BrIfCmp32 as usize] = h_br_if_cmp32;
    t[Rc::BrIfCmp32K as usize] = h_br_if_cmp32k;
    t[Rc::BrTable as usize] = h_br_table;
    t[Rc::Return as usize] = h_return;
    t[Rc::Unreachable as usize] = h_unreachable;
    t[Rc::CallGuest as usize] = h_call_guest;
    t[Rc::CallHost as usize] = h_call_host;
    t[Rc::CallIndirect as usize] = h_call_indirect;
    t[Rc::Copy as usize] = h_copy;
    t[Rc::Copy2 as usize] = h_copy2;
    t[Rc::Select as usize] = h_select;
    t[Rc::Select2 as usize] = h_select2;
    t[Rc::GlobalGet as usize] = h_global_get;
    t[Rc::GlobalSet as usize] = h_global_set;
    t[Rc::Const as usize] = h_const;
    t[Rc::V128Const as usize] = h_v128_const;
    t[Rc::Load32 as usize] = h_load32;
    t[Rc::Load64 as usize] = h_load64;
    t[Rc::Load8S32 as usize] = h_load8s32;
    t[Rc::Load8U32 as usize] = h_load8u32;
    t[Rc::Load16S32 as usize] = h_load16s32;
    t[Rc::Load16U32 as usize] = h_load16u32;
    t[Rc::Load8S64 as usize] = h_load8s64;
    t[Rc::Load8U64 as usize] = h_load8u64;
    t[Rc::Load16S64 as usize] = h_load16s64;
    t[Rc::Load16U64 as usize] = h_load16u64;
    t[Rc::Load32S64 as usize] = h_load32s64;
    t[Rc::Load32U64 as usize] = h_load32u64;
    t[Rc::V128Load as usize] = h_v128_load;
    t[Rc::Store8 as usize] = h_store8;
    t[Rc::Store16 as usize] = h_store16;
    t[Rc::Store32 as usize] = h_store32;
    t[Rc::Store64 as usize] = h_store64;
    t[Rc::V128Store as usize] = h_v128_store;
    t[Rc::Load32Shl as usize] = h_load32_shl;
    t[Rc::Load64Shl as usize] = h_load64_shl;
    t[Rc::Load32ShlK as usize] = h_load32_shlk;
    t[Rc::Load64ShlK as usize] = h_load64_shlk;
    t[Rc::Store32Shl as usize] = h_store32_shl;
    t[Rc::Store64Shl as usize] = h_store64_shl;
    t[Rc::Store32ShlK as usize] = h_store32_shlk;
    t[Rc::Store64ShlK as usize] = h_store64_shlk;
    t[Rc::MemSize as usize] = h_mem_size;
    t[Rc::MemGrow as usize] = h_mem_grow;
    t[Rc::MemCopy as usize] = h_mem_copy;
    t[Rc::MemFill as usize] = h_mem_fill;
    t[Rc::Eqz32 as usize] = h_eqz32;
    t[Rc::Cmp32 as usize] = h_cmp32;
    t[Rc::Clz32 as usize] = h_clz32;
    t[Rc::Ctz32 as usize] = h_ctz32;
    t[Rc::Popcnt32 as usize] = h_popcnt32;
    t[Rc::Add32 as usize] = h_add32;
    t[Rc::Sub32 as usize] = h_sub32;
    t[Rc::Mul32 as usize] = h_mul32;
    t[Rc::DivS32 as usize] = h_divs32;
    t[Rc::DivU32 as usize] = h_divu32;
    t[Rc::RemS32 as usize] = h_rems32;
    t[Rc::RemU32 as usize] = h_remu32;
    t[Rc::And32 as usize] = h_and32;
    t[Rc::Or32 as usize] = h_or32;
    t[Rc::Xor32 as usize] = h_xor32;
    t[Rc::Shl32 as usize] = h_shl32;
    t[Rc::ShrS32 as usize] = h_shrs32;
    t[Rc::ShrU32 as usize] = h_shru32;
    t[Rc::Rotl32 as usize] = h_rotl32;
    t[Rc::Rotr32 as usize] = h_rotr32;
    t[Rc::AddK32 as usize] = h_addk32;
    t[Rc::ShlK32 as usize] = h_shlk32;
    t[Rc::AddShl32 as usize] = h_addshl32;
    t[Rc::Eqz64 as usize] = h_eqz64;
    t[Rc::Cmp64 as usize] = h_cmp64;
    t[Rc::Clz64 as usize] = h_clz64;
    t[Rc::Ctz64 as usize] = h_ctz64;
    t[Rc::Popcnt64 as usize] = h_popcnt64;
    t[Rc::Add64 as usize] = h_add64;
    t[Rc::Sub64 as usize] = h_sub64;
    t[Rc::Mul64 as usize] = h_mul64;
    t[Rc::DivS64 as usize] = h_divs64;
    t[Rc::DivU64 as usize] = h_divu64;
    t[Rc::RemS64 as usize] = h_rems64;
    t[Rc::RemU64 as usize] = h_remu64;
    t[Rc::And64 as usize] = h_and64;
    t[Rc::Or64 as usize] = h_or64;
    t[Rc::Xor64 as usize] = h_xor64;
    t[Rc::Shl64 as usize] = h_shl64;
    t[Rc::ShrS64 as usize] = h_shrs64;
    t[Rc::ShrU64 as usize] = h_shru64;
    t[Rc::Rotl64 as usize] = h_rotl64;
    t[Rc::Rotr64 as usize] = h_rotr64;
    t[Rc::CmpF32 as usize] = h_cmpf32;
    t[Rc::AbsF32 as usize] = h_absf32;
    t[Rc::NegF32 as usize] = h_negf32;
    t[Rc::CeilF32 as usize] = h_ceilf32;
    t[Rc::FloorF32 as usize] = h_floorf32;
    t[Rc::TruncF32 as usize] = h_truncf32;
    t[Rc::NearestF32 as usize] = h_nearestf32;
    t[Rc::SqrtF32 as usize] = h_sqrtf32;
    t[Rc::AddF32 as usize] = h_addf32;
    t[Rc::SubF32 as usize] = h_subf32;
    t[Rc::MulF32 as usize] = h_mulf32;
    t[Rc::DivF32 as usize] = h_divf32;
    t[Rc::MinF32 as usize] = h_minf32;
    t[Rc::MaxF32 as usize] = h_maxf32;
    t[Rc::CopysignF32 as usize] = h_copysignf32;
    t[Rc::CmpF64 as usize] = h_cmpf64;
    t[Rc::AbsF64 as usize] = h_absf64;
    t[Rc::NegF64 as usize] = h_negf64;
    t[Rc::CeilF64 as usize] = h_ceilf64;
    t[Rc::FloorF64 as usize] = h_floorf64;
    t[Rc::TruncF64 as usize] = h_truncf64;
    t[Rc::NearestF64 as usize] = h_nearestf64;
    t[Rc::SqrtF64 as usize] = h_sqrtf64;
    t[Rc::AddF64 as usize] = h_addf64;
    t[Rc::SubF64 as usize] = h_subf64;
    t[Rc::MulF64 as usize] = h_mulf64;
    t[Rc::DivF64 as usize] = h_divf64;
    t[Rc::MinF64 as usize] = h_minf64;
    t[Rc::MaxF64 as usize] = h_maxf64;
    t[Rc::CopysignF64 as usize] = h_copysignf64;
    t[Rc::Fma64 as usize] = h_fma64;
    t[Rc::Wrap64 as usize] = h_wrap64;
    t[Rc::TruncF32S32 as usize] = h_truncf32s32;
    t[Rc::TruncF32U32 as usize] = h_truncf32u32;
    t[Rc::TruncF64S32 as usize] = h_truncf64s32;
    t[Rc::TruncF64U32 as usize] = h_truncf64u32;
    t[Rc::ExtS3264 as usize] = h_exts3264;
    t[Rc::ExtU3264 as usize] = h_extu3264;
    t[Rc::TruncF32S64 as usize] = h_truncf32s64;
    t[Rc::TruncF32U64 as usize] = h_truncf32u64;
    t[Rc::TruncF64S64 as usize] = h_truncf64s64;
    t[Rc::TruncF64U64 as usize] = h_truncf64u64;
    t[Rc::ConvS32F32 as usize] = h_convs32f32;
    t[Rc::ConvU32F32 as usize] = h_convu32f32;
    t[Rc::ConvS64F32 as usize] = h_convs64f32;
    t[Rc::ConvU64F32 as usize] = h_convu64f32;
    t[Rc::Demote as usize] = h_demote;
    t[Rc::ConvS32F64 as usize] = h_convs32f64;
    t[Rc::ConvU32F64 as usize] = h_convu32f64;
    t[Rc::ConvS64F64 as usize] = h_convs64f64;
    t[Rc::ConvU64F64 as usize] = h_convu64f64;
    t[Rc::Promote as usize] = h_promote;
    t[Rc::Ext8S32 as usize] = h_ext8s32;
    t[Rc::Ext16S32 as usize] = h_ext16s32;
    t[Rc::Ext8S64 as usize] = h_ext8s64;
    t[Rc::Ext16S64 as usize] = h_ext16s64;
    t[Rc::Ext32S64 as usize] = h_ext32s64;
    t[Rc::Splat32 as usize] = h_splat32;
    t[Rc::Splat64 as usize] = h_splat64;
    t[Rc::Extract32 as usize] = h_extract32;
    t[Rc::Extract64 as usize] = h_extract64;
    t[Rc::Replace64 as usize] = h_replace64;
    t[Rc::AddI32x4 as usize] = h_addi32x4;
    t[Rc::SubI32x4 as usize] = h_subi32x4;
    t[Rc::MulI32x4 as usize] = h_muli32x4;
    t[Rc::AddF32x4 as usize] = h_addf32x4;
    t[Rc::SubF32x4 as usize] = h_subf32x4;
    t[Rc::MulF32x4 as usize] = h_mulf32x4;
    t[Rc::DivF32x4 as usize] = h_divf32x4;
    t[Rc::AddF64x2 as usize] = h_addf64x2;
    t[Rc::SubF64x2 as usize] = h_subf64x2;
    t[Rc::MulF64x2 as usize] = h_mulf64x2;
    t[Rc::DivF64x2 as usize] = h_divf64x2;
    t[Rc::CmpF64x2 as usize] = h_cmpf64x2;
    t[Rc::VAnd as usize] = h_vand;
    t[Rc::VOr as usize] = h_vor;
    t[Rc::VXor as usize] = h_vxor;
    t[Rc::VNot as usize] = h_vnot;
    t[Rc::VAnyTrue as usize] = h_vanytrue;
    t[Rc::AllTrueI32x4 as usize] = h_alltruei32x4;
    t[Rc::BitmaskI32x4 as usize] = h_bitmaski32x4;
    t[Rc::Cmp32K as usize] = h_cmp32k;
    t[Rc::AddK64 as usize] = h_addk64;
    t[Rc::Cmp64K as usize] = h_cmp64k;
    t[Rc::CmpAddK32 as usize] = h_cmpaddk32;
    t
};

/// Run register-form function `defined_idx`; its arguments are the top
/// `param_slots` entries of `stack`. On success the stack is truncated to
/// frame base + results and the result slot count returned.
pub(crate) fn run(
    inst: &mut Instance,
    stack: &mut Vec<Slot>,
    defined_idx: usize,
) -> Result<usize, Trap> {
    if let Some(jit) = inst.jit.clone() {
        return run_jit(inst, stack, defined_idx, &jit);
    }
    let bodies = Arc::clone(&inst.bodies);
    let bodies: &[BodyCell] = bodies.cells();
    let f = flat(bodies, defined_idx);
    let base = stack.len() - f.param_slots as usize;
    let need = base + f.frame_size as usize;
    if need > inst.limits.max_value_stack {
        return Err(Trap::StackExhausted);
    }
    // Zero-fills the declared locals (they sit right after the args).
    stack.resize(need, Slot::ZERO);
    let imported = inst.host_funcs.len() as u32;
    let mut ctx = Ctx {
        inst,
        stack,
        bodies,
        frames: Vec::new(),
        func: f,
        code: &f.code,
        base,
        imported,
        cur_idx: defined_idx as u32,
    };
    // Meteredness is resolved once per entry: the unmetered loop is the
    // exact pre-limits dispatch loop (no per-op comparison at all).
    if ctx.inst.metered() {
        dispatch_loop::<true>(&mut ctx)?;
    } else {
        dispatch_loop::<false>(&mut ctx)?;
    }
    let result_slots = ctx.func.result_slots as usize;
    let base = ctx.base;
    stack.truncate(base + result_slots);
    Ok(result_slots)
}

/// The flat-tier dispatch loop. When `METERED`, backward control
/// transfers (loop iterations and calls, whose entry ip is 0) are the
/// fuel guard points; charging in batches of 1024 keeps the metered
/// loop's added cost to one comparison per op, and the unmetered
/// monomorphization compiles it out entirely.
#[inline(always)]
fn dispatch_loop<const METERED: bool>(ctx: &mut Ctx<'_>) -> Result<(), Trap> {
    let mut ip = 0usize;
    let mut guard_epoch = 0u32;
    loop {
        let opcode = ctx.code[ip].code as usize;
        let next = HANDLERS[opcode](ctx, ip)?;
        if next == DONE {
            return Ok(());
        }
        if METERED && next <= ip {
            guard_epoch += 1;
            if guard_epoch & 1023 == 0 {
                ctx.inst.fuel_step(1024)?;
            }
        }
        ip = next;
    }
}

/// The [`run`] loop variant for [`crate::tier::Tier::MaxJit`]: identical
/// dispatch, plus
///
/// * hotness accounting — one event per function entry/resume and one per
///   backward control transfer (loop iteration), so both hot call targets
///   and hot loops inside rarely-called functions promote;
/// * superblock chain entry — once a function is promoted, every ip that
///   heads a compiled superblock executes the whole chain in one call and
///   the loop resumes interpretation at whatever ip the chain bails or
///   runs off at.
///
/// Chains never call or return (superblock discovery stops at calls and
/// `Return`), so the current-function tracking only changes across
/// interpreted ops.
fn run_jit(
    inst: &mut Instance,
    stack: &mut Vec<Slot>,
    defined_idx: usize,
    jit: &crate::superblock::JitState,
) -> Result<usize, Trap> {
    let bodies = Arc::clone(&inst.bodies);
    let bodies: &[BodyCell] = bodies.cells();
    let f = flat(bodies, defined_idx);
    let base = stack.len() - f.param_slots as usize;
    let need = base + f.frame_size as usize;
    if need > inst.limits.max_value_stack {
        return Err(Trap::StackExhausted);
    }
    stack.resize(need, Slot::ZERO);
    let imported = inst.host_funcs.len() as u32;
    let mut ctx = Ctx {
        inst,
        stack,
        bodies,
        frames: Vec::new(),
        func: f,
        code: &f.code,
        base,
        imported,
        cur_idx: defined_idx as u32,
    };
    let mut cur = ctx.cur_idx;
    let mut chains = jit.bump(cur, ctx.func);
    let mut ip = 0usize;
    // Profiling resolved once per call: the hot loop pays one extra
    // branch per chain entry, and locals flush to the shared atomics only
    // on the way out.
    let profiling = jit.profiling();
    let mut tally = crate::closures::ChainTally::default();
    let mut chains_entered = 0u64;
    // Chain re-entries and interpreted backward transfers are the fuel
    // guard points of this tier (in-chain loop backedges charge inside
    // `Chain::run` itself). Meteredness is resolved once per entry and
    // rides branches the loop already takes, so unlimited runs pay one
    // predictable test per backward transfer and nothing per op.
    let metered = ctx.inst.metered();
    let mut guard_epoch = 0u32;
    loop {
        if ctx.cur_idx != cur {
            // Interpreted call or return switched functions.
            cur = ctx.cur_idx;
            chains = jit.bump(cur, ctx.func);
        }
        if let Some(ch) = &chains {
            if let Some(chain) = ch.lookup(ip) {
                if metered {
                    guard_epoch += 1;
                    if guard_epoch & 1023 == 0 {
                        ctx.inst.fuel_step(1024)?;
                    }
                }
                ip = if profiling {
                    chains_entered += 1;
                    chain.run_counted(&mut ctx, &mut tally)?
                } else {
                    chain.run(&mut ctx)?
                };
                continue;
            }
        }
        let opcode = ctx.code[ip].code as usize;
        let next = HANDLERS[opcode](&mut ctx, ip)?;
        if next == DONE {
            break;
        }
        if next <= ip {
            if metered {
                guard_epoch += 1;
                if guard_epoch & 1023 == 0 {
                    ctx.inst.fuel_step(1024)?;
                }
            }
            if chains.is_none() && ctx.cur_idx == cur {
                chains = jit.bump(cur, ctx.func);
            }
        }
        ip = next;
    }
    if profiling {
        jit.flush(chains_entered, &tally);
    }
    let result_slots = ctx.func.result_slots as usize;
    let base = ctx.base;
    stack.truncate(base + result_slots);
    Ok(result_slots)
}

//! Shared execution semantics for straight-line (non-control)
//! instructions over the untyped slot stack, with spec-accurate numeric
//! behaviour: wrapping integer arithmetic, trapping division and
//! truncation, IEEE round-to-even `nearest`, NaN-propagating `min`/`max`,
//! and the 128-bit SIMD lane ops.
//!
//! Operands live on an untyped stack of 64-bit [`Slot`]s (v128 spans two
//! slots, low half first). Validation statically proves every operand's
//! type, so nothing here tags or checks values at run time. The baseline
//! tier dispatches through [`step`]; the flat tiers run step programs
//! ([`crate::closures`]) whose op table, [`crate::ops`], shares the
//! numeric helpers below.
//!
//! Control flow, calls, and the width-dependent `drop`/`select` are
//! handled by each tier's driver, never passed here.

use crate::error::Trap;
use crate::instr::Instr;
use crate::runtime::{Instance, Slot};

#[inline]
pub(crate) fn pop(stack: &mut Vec<Slot>) -> Slot {
    // Validation guarantees the stack never underflows on executed paths;
    // if an engine bug (miscompiled fusion, corrupt artifact) breaks that
    // invariant, fail loudly rather than computing with silent zeros.
    stack.pop().expect("validated: operand stack underflow")
}

#[inline]
pub(crate) fn pop_v128(stack: &mut Vec<Slot>) -> u128 {
    let hi = pop(stack).0 as u128;
    let lo = pop(stack).0 as u128;
    lo | (hi << 64)
}

#[inline]
pub(crate) fn push_v128(stack: &mut Vec<Slot>, v: u128) {
    stack.push(Slot(v as u64));
    stack.push(Slot((v >> 64) as u64));
}

// --- float helpers with Wasm semantics ---

#[inline]
pub(crate) fn fmin32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_negative() { a } else { b }
    } else if a < b {
        a
    } else {
        b
    }
}

#[inline]
pub(crate) fn fmax32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_positive() { a } else { b }
    } else if a > b {
        a
    } else {
        b
    }
}

#[inline]
pub(crate) fn fmin64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_negative() { a } else { b }
    } else if a < b {
        a
    } else {
        b
    }
}

#[inline]
pub(crate) fn fmax64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_positive() { a } else { b }
    } else if a > b {
        a
    } else {
        b
    }
}

/// Round half to even, the Wasm `nearest` semantics.
#[inline]
pub(crate) fn nearest32(v: f32) -> f32 {
    let r = v.round();
    if (r - v).abs() == 0.5 && r % 2.0 != 0.0 {
        r - v.signum()
    } else {
        r
    }
}

#[inline]
pub(crate) fn nearest64(v: f64) -> f64 {
    let r = v.round();
    if (r - v).abs() == 0.5 && r % 2.0 != 0.0 {
        r - v.signum()
    } else {
        r
    }
}

// --- trapping truncations ---

pub(crate) fn trunc_f64_to_i32(v: f64) -> Result<i32, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = v.trunc();
    if !(-2147483648.0..=2147483647.0).contains(&t) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as i32)
}

pub(crate) fn trunc_f64_to_u32(v: f64) -> Result<u32, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = v.trunc();
    if !(t >= 0.0 && t <= 4294967295.0) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as u32)
}

pub(crate) fn trunc_f64_to_i64(v: f64) -> Result<i64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = v.trunc();
    // 2^63 is exactly representable; i64::MAX is not.
    if !(t >= -9223372036854775808.0 && t < 9223372036854775808.0) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as i64)
}

pub(crate) fn trunc_f64_to_u64(v: f64) -> Result<u64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversionToInteger);
    }
    let t = v.trunc();
    if !(t >= 0.0 && t < 18446744073709551616.0) {
        return Err(Trap::IntegerOverflow);
    }
    Ok(t as u64)
}

// --- integer ops with Wasm trap semantics ---

#[inline]
pub(crate) fn i32_div_s(a: i32, b: i32) -> Result<i32, Trap> {
    if b == 0 {
        return Err(Trap::IntegerDivideByZero);
    }
    if a == i32::MIN && b == -1 {
        return Err(Trap::IntegerOverflow);
    }
    Ok(a.wrapping_div(b))
}

#[inline]
pub(crate) fn i32_div_u(a: i32, b: i32) -> Result<i32, Trap> {
    if b == 0 {
        return Err(Trap::IntegerDivideByZero);
    }
    Ok(((a as u32) / (b as u32)) as i32)
}

#[inline]
pub(crate) fn i32_rem_s(a: i32, b: i32) -> Result<i32, Trap> {
    if b == 0 {
        return Err(Trap::IntegerDivideByZero);
    }
    Ok(a.wrapping_rem(b))
}

#[inline]
pub(crate) fn i32_rem_u(a: i32, b: i32) -> Result<i32, Trap> {
    if b == 0 {
        return Err(Trap::IntegerDivideByZero);
    }
    Ok(((a as u32) % (b as u32)) as i32)
}

#[inline]
pub(crate) fn i64_div_s(a: i64, b: i64) -> Result<i64, Trap> {
    if b == 0 {
        return Err(Trap::IntegerDivideByZero);
    }
    if a == i64::MIN && b == -1 {
        return Err(Trap::IntegerOverflow);
    }
    Ok(a.wrapping_div(b))
}

#[inline]
pub(crate) fn i64_div_u(a: i64, b: i64) -> Result<i64, Trap> {
    if b == 0 {
        return Err(Trap::IntegerDivideByZero);
    }
    Ok(((a as u64) / (b as u64)) as i64)
}

#[inline]
pub(crate) fn i64_rem_s(a: i64, b: i64) -> Result<i64, Trap> {
    if b == 0 {
        return Err(Trap::IntegerDivideByZero);
    }
    Ok(a.wrapping_rem(b))
}

#[inline]
pub(crate) fn i64_rem_u(a: i64, b: i64) -> Result<i64, Trap> {
    if b == 0 {
        return Err(Trap::IntegerDivideByZero);
    }
    Ok(((a as u64) % (b as u64)) as i64)
}

// --- v128 lane views ---

#[inline]
pub(crate) fn v_to_i32x4(v: u128) -> [i32; 4] {
    let b = v.to_le_bytes();
    [
        i32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        i32::from_le_bytes([b[4], b[5], b[6], b[7]]),
        i32::from_le_bytes([b[8], b[9], b[10], b[11]]),
        i32::from_le_bytes([b[12], b[13], b[14], b[15]]),
    ]
}

#[inline]
pub(crate) fn i32x4_to_v(l: [i32; 4]) -> u128 {
    let mut b = [0u8; 16];
    for (i, v) in l.iter().enumerate() {
        b[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }
    u128::from_le_bytes(b)
}

#[inline]
pub(crate) fn v_to_f32x4(v: u128) -> [f32; 4] {
    let b = v.to_le_bytes();
    [
        f32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        f32::from_le_bytes([b[4], b[5], b[6], b[7]]),
        f32::from_le_bytes([b[8], b[9], b[10], b[11]]),
        f32::from_le_bytes([b[12], b[13], b[14], b[15]]),
    ]
}

#[inline]
pub(crate) fn f32x4_to_v(l: [f32; 4]) -> u128 {
    let mut b = [0u8; 16];
    for (i, v) in l.iter().enumerate() {
        b[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }
    u128::from_le_bytes(b)
}

#[inline]
pub(crate) fn v_to_f64x2(v: u128) -> [f64; 2] {
    let b = v.to_le_bytes();
    [
        f64::from_le_bytes(b[0..8].try_into().unwrap()),
        f64::from_le_bytes(b[8..16].try_into().unwrap()),
    ]
}

#[inline]
pub(crate) fn f64x2_to_v(l: [f64; 2]) -> u128 {
    let mut b = [0u8; 16];
    b[0..8].copy_from_slice(&l[0].to_le_bytes());
    b[8..16].copy_from_slice(&l[1].to_le_bytes());
    u128::from_le_bytes(b)
}

#[inline]
pub(crate) fn f64x2_cmp(a: u128, b: u128, f: impl Fn(f64, f64) -> bool) -> u128 {
    let (x, y) = (v_to_f64x2(a), v_to_f64x2(b));
    let lane = |i: usize| if f(x[i], y[i]) { u64::MAX } else { 0 };
    (lane(0) as u128) | ((lane(1) as u128) << 64)
}

#[inline]
pub(crate) fn i32x4_bin(a: u128, b: u128, f: impl Fn(i32, i32) -> i32) -> u128 {
    let (x, y) = (v_to_i32x4(a), v_to_i32x4(b));
    i32x4_to_v([f(x[0], y[0]), f(x[1], y[1]), f(x[2], y[2]), f(x[3], y[3])])
}

#[inline]
pub(crate) fn f32x4_bin(a: u128, b: u128, f: impl Fn(f32, f32) -> f32) -> u128 {
    let (x, y) = (v_to_f32x4(a), v_to_f32x4(b));
    f32x4_to_v([f(x[0], y[0]), f(x[1], y[1]), f(x[2], y[2]), f(x[3], y[3])])
}

#[inline]
pub(crate) fn f64x2_bin(a: u128, b: u128, f: impl Fn(f64, f64) -> f64) -> u128 {
    let (x, y) = (v_to_f64x2(a), v_to_f64x2(b));
    f64x2_to_v([f(x[0], y[0]), f(x[1], y[1])])
}

macro_rules! load {
    ($inst:expr, $stack:expr, $m:expr, $n:expr, $raw:ty, $conv:ty, $wrap:path) => {{
        let addr = pop($stack).u32();
        let start = $inst.memory.effective(addr, $m.offset, $n)?;
        let raw = <$raw>::from_le_bytes($inst.memory.load::<{ $n as usize }>(start));
        $stack.push($wrap(raw as $conv));
    }};
}

macro_rules! store {
    ($inst:expr, $stack:expr, $m:expr, $n:expr, $read:ident, $cast:ty) => {{
        let val = pop($stack).$read();
        let addr = pop($stack).u32();
        let start = $inst.memory.effective(addr, $m.offset, $n)?;
        $inst.memory.store(start, &((val as $cast).to_le_bytes()));
    }};
}

macro_rules! binop {
    ($stack:expr, $read:ident, $wrap:path, $f:expr) => {{
        let b = pop($stack).$read();
        let a = pop($stack).$read();
        $stack.push($wrap($f(a, b)));
    }};
}

macro_rules! unop {
    ($stack:expr, $read:ident, $wrap:path, $f:expr) => {{
        let v = pop($stack).$read();
        $stack.push($wrap($f(v)));
    }};
}

/// Execute one straight-line instruction against the slot stack. The
/// current frame's locals live in the same stack buffer at
/// `locals_base`, mapped by `map` (packed `offset << 1 | is_v128` per
/// local index). Control instructions, calls, and `drop`/`select` must
/// not be passed here; each tier's driver handles them.
///
/// Always inlined into the baseline loop, its only caller: a call per
/// instruction made that tier's HPCG kernel ≈ 1.35× slower.
#[inline(always)]
pub(crate) fn step(
    inst: &mut Instance,
    stack: &mut Vec<Slot>,
    locals_base: usize,
    map: &[u32],
    instr: &Instr,
) -> Result<(), Trap> {
    use Instr::*;
    match instr {
        LocalGet(i) => {
            let e = map[*i as usize];
            let at = locals_base + (e >> 1) as usize;
            let v = stack[at];
            stack.push(v);
            if e & 1 != 0 {
                let hi = stack[at + 1];
                stack.push(hi);
            }
        }
        LocalSet(i) => {
            let e = map[*i as usize];
            let at = locals_base + (e >> 1) as usize;
            if e & 1 != 0 {
                stack[at + 1] = pop(stack);
            }
            stack[at] = pop(stack);
        }
        LocalTee(i) => {
            let e = map[*i as usize];
            let at = locals_base + (e >> 1) as usize;
            let len = stack.len();
            if e & 1 != 0 {
                stack[at] = stack[len - 2];
                stack[at + 1] = stack[len - 1];
            } else {
                stack[at] = stack[len - 1];
            }
        }
        GlobalGet(i) => stack.push(inst.globals[*i as usize]),
        GlobalSet(i) => inst.globals[*i as usize] = pop(stack),

        I32Load(m) => load!(inst, stack, m, 4, u32, u32, Slot::from_u32),
        I64Load(m) => load!(inst, stack, m, 8, u64, u64, Slot::from_u64),
        F32Load(m) => {
            let addr = pop(stack).u32();
            let start = inst.memory.effective(addr, m.offset, 4)?;
            stack.push(Slot::from_u32(u32::from_le_bytes(inst.memory.load::<4>(start))));
        }
        F64Load(m) => {
            let addr = pop(stack).u32();
            let start = inst.memory.effective(addr, m.offset, 8)?;
            stack.push(Slot::from_u64(u64::from_le_bytes(inst.memory.load::<8>(start))));
        }
        I32Load8S(m) => load!(inst, stack, m, 1, i8, i32, Slot::from_i32),
        I32Load8U(m) => load!(inst, stack, m, 1, u8, i32, Slot::from_i32),
        I32Load16S(m) => load!(inst, stack, m, 2, i16, i32, Slot::from_i32),
        I32Load16U(m) => load!(inst, stack, m, 2, u16, i32, Slot::from_i32),
        I64Load8S(m) => load!(inst, stack, m, 1, i8, i64, Slot::from_i64),
        I64Load8U(m) => load!(inst, stack, m, 1, u8, i64, Slot::from_i64),
        I64Load16S(m) => load!(inst, stack, m, 2, i16, i64, Slot::from_i64),
        I64Load16U(m) => load!(inst, stack, m, 2, u16, i64, Slot::from_i64),
        I64Load32S(m) => load!(inst, stack, m, 4, i32, i64, Slot::from_i64),
        I64Load32U(m) => load!(inst, stack, m, 4, u32, i64, Slot::from_i64),
        V128Load(m) => {
            let addr = pop(stack).u32();
            let start = inst.memory.effective(addr, m.offset, 16)?;
            push_v128(stack, u128::from_le_bytes(inst.memory.load::<16>(start)));
        }

        I32Store(m) => store!(inst, stack, m, 4, i32, u32),
        I64Store(m) => store!(inst, stack, m, 8, i64, u64),
        F32Store(m) => store!(inst, stack, m, 4, u32, u32),
        F64Store(m) => store!(inst, stack, m, 8, u64, u64),
        I32Store8(m) => store!(inst, stack, m, 1, i32, u8),
        I32Store16(m) => store!(inst, stack, m, 2, i32, u16),
        I64Store8(m) => store!(inst, stack, m, 1, i64, u8),
        I64Store16(m) => store!(inst, stack, m, 2, i64, u16),
        I64Store32(m) => store!(inst, stack, m, 4, i64, u32),
        V128Store(m) => {
            let val = pop_v128(stack);
            let addr = pop(stack).u32();
            let start = inst.memory.effective(addr, m.offset, 16)?;
            inst.memory.store(start, &val.to_le_bytes());
        }

        MemorySize => stack.push(Slot::from_i32(inst.memory.size_pages() as i32)),
        MemoryGrow => {
            let delta = pop(stack).i32();
            let r = if delta < 0 { -1 } else { inst.memory.grow(delta as u32) };
            stack.push(Slot::from_i32(r));
        }
        MemoryCopy => {
            let len = pop(stack).u32();
            let src = pop(stack).u32();
            let dst = pop(stack).u32();
            inst.memory.copy_within(dst, src, len)?;
        }
        MemoryFill => {
            let len = pop(stack).u32();
            let val = pop(stack).i32() as u8;
            let dst = pop(stack).u32();
            inst.memory.fill(dst, val, len)?;
        }

        I32Const(v) => stack.push(Slot::from_i32(*v)),
        I64Const(v) => stack.push(Slot::from_i64(*v)),
        F32Const(v) => stack.push(Slot::from_f32(*v)),
        F64Const(v) => stack.push(Slot::from_f64(*v)),
        V128Const(b) => push_v128(stack, u128::from_le_bytes(**b)),

        I32Eqz => unop!(stack, i32, Slot::from_bool, |v| v == 0),
        I64Eqz => unop!(stack, i64, Slot::from_bool, |v| v == 0),

        I32Eq => binop!(stack, i32, Slot::from_bool, |a, b| a == b),
        I32Ne => binop!(stack, i32, Slot::from_bool, |a, b| a != b),
        I32LtS => binop!(stack, i32, Slot::from_bool, |a, b| a < b),
        I32LtU => binop!(stack, u32, Slot::from_bool, |a, b| a < b),
        I32GtS => binop!(stack, i32, Slot::from_bool, |a, b| a > b),
        I32GtU => binop!(stack, u32, Slot::from_bool, |a, b| a > b),
        I32LeS => binop!(stack, i32, Slot::from_bool, |a, b| a <= b),
        I32LeU => binop!(stack, u32, Slot::from_bool, |a, b| a <= b),
        I32GeS => binop!(stack, i32, Slot::from_bool, |a, b| a >= b),
        I32GeU => binop!(stack, u32, Slot::from_bool, |a, b| a >= b),
        I64Eq => binop!(stack, i64, Slot::from_bool, |a, b| a == b),
        I64Ne => binop!(stack, i64, Slot::from_bool, |a, b| a != b),
        I64LtS => binop!(stack, i64, Slot::from_bool, |a, b| a < b),
        I64LtU => binop!(stack, u64, Slot::from_bool, |a, b| a < b),
        I64GtS => binop!(stack, i64, Slot::from_bool, |a, b| a > b),
        I64GtU => binop!(stack, u64, Slot::from_bool, |a, b| a > b),
        I64LeS => binop!(stack, i64, Slot::from_bool, |a, b| a <= b),
        I64LeU => binop!(stack, u64, Slot::from_bool, |a, b| a <= b),
        I64GeS => binop!(stack, i64, Slot::from_bool, |a, b| a >= b),
        I64GeU => binop!(stack, u64, Slot::from_bool, |a, b| a >= b),
        F32Eq => binop!(stack, f32, Slot::from_bool, |a, b| a == b),
        F32Ne => binop!(stack, f32, Slot::from_bool, |a, b| a != b),
        F32Lt => binop!(stack, f32, Slot::from_bool, |a, b| a < b),
        F32Gt => binop!(stack, f32, Slot::from_bool, |a, b| a > b),
        F32Le => binop!(stack, f32, Slot::from_bool, |a, b| a <= b),
        F32Ge => binop!(stack, f32, Slot::from_bool, |a, b| a >= b),
        F64Eq => binop!(stack, f64, Slot::from_bool, |a, b| a == b),
        F64Ne => binop!(stack, f64, Slot::from_bool, |a, b| a != b),
        F64Lt => binop!(stack, f64, Slot::from_bool, |a, b| a < b),
        F64Gt => binop!(stack, f64, Slot::from_bool, |a, b| a > b),
        F64Le => binop!(stack, f64, Slot::from_bool, |a, b| a <= b),
        F64Ge => binop!(stack, f64, Slot::from_bool, |a, b| a >= b),

        I32Clz => unop!(stack, i32, Slot::from_i32, |v: i32| v.leading_zeros() as i32),
        I32Ctz => unop!(stack, i32, Slot::from_i32, |v: i32| v.trailing_zeros() as i32),
        I32Popcnt => unop!(stack, i32, Slot::from_i32, |v: i32| v.count_ones() as i32),
        I32Add => binop!(stack, i32, Slot::from_i32, i32::wrapping_add),
        I32Sub => binop!(stack, i32, Slot::from_i32, i32::wrapping_sub),
        I32Mul => binop!(stack, i32, Slot::from_i32, i32::wrapping_mul),
        I32And => binop!(stack, i32, Slot::from_i32, |a, b| a & b),
        I32Or => binop!(stack, i32, Slot::from_i32, |a, b| a | b),
        I32Xor => binop!(stack, i32, Slot::from_i32, |a, b| a ^ b),
        I32Shl => binop!(stack, i32, Slot::from_i32, |a: i32, b| a.wrapping_shl(b as u32)),
        I32ShrS => binop!(stack, i32, Slot::from_i32, |a: i32, b| a.wrapping_shr(b as u32)),
        I32ShrU => {
            binop!(stack, i32, Slot::from_i32, |a, b| ((a as u32).wrapping_shr(b as u32)) as i32)
        }
        I32Rotl => binop!(stack, i32, Slot::from_i32, |a: i32, b| a.rotate_left((b as u32) & 31)),
        I32Rotr => binop!(stack, i32, Slot::from_i32, |a: i32, b| a.rotate_right((b as u32) & 31)),
        I32DivS => {
            let b = pop(stack).i32();
            let a = pop(stack).i32();
            stack.push(Slot::from_i32(i32_div_s(a, b)?));
        }
        I32DivU => {
            let b = pop(stack).i32();
            let a = pop(stack).i32();
            stack.push(Slot::from_i32(i32_div_u(a, b)?));
        }
        I32RemS => {
            let b = pop(stack).i32();
            let a = pop(stack).i32();
            stack.push(Slot::from_i32(i32_rem_s(a, b)?));
        }
        I32RemU => {
            let b = pop(stack).i32();
            let a = pop(stack).i32();
            stack.push(Slot::from_i32(i32_rem_u(a, b)?));
        }

        I64Clz => unop!(stack, i64, Slot::from_i64, |v: i64| v.leading_zeros() as i64),
        I64Ctz => unop!(stack, i64, Slot::from_i64, |v: i64| v.trailing_zeros() as i64),
        I64Popcnt => unop!(stack, i64, Slot::from_i64, |v: i64| v.count_ones() as i64),
        I64Add => binop!(stack, i64, Slot::from_i64, i64::wrapping_add),
        I64Sub => binop!(stack, i64, Slot::from_i64, i64::wrapping_sub),
        I64Mul => binop!(stack, i64, Slot::from_i64, i64::wrapping_mul),
        I64And => binop!(stack, i64, Slot::from_i64, |a, b| a & b),
        I64Or => binop!(stack, i64, Slot::from_i64, |a, b| a | b),
        I64Xor => binop!(stack, i64, Slot::from_i64, |a, b| a ^ b),
        I64Shl => binop!(stack, i64, Slot::from_i64, |a: i64, b| a.wrapping_shl(b as u32)),
        I64ShrS => binop!(stack, i64, Slot::from_i64, |a: i64, b| a.wrapping_shr(b as u32)),
        I64ShrU => {
            binop!(stack, i64, Slot::from_i64, |a, b| ((a as u64).wrapping_shr(b as u32)) as i64)
        }
        I64Rotl => {
            binop!(stack, i64, Slot::from_i64, |a: i64, b| a.rotate_left((b as u64 & 63) as u32))
        }
        I64Rotr => {
            binop!(stack, i64, Slot::from_i64, |a: i64, b| a.rotate_right((b as u64 & 63) as u32))
        }
        I64DivS => {
            let b = pop(stack).i64();
            let a = pop(stack).i64();
            stack.push(Slot::from_i64(i64_div_s(a, b)?));
        }
        I64DivU => {
            let b = pop(stack).i64();
            let a = pop(stack).i64();
            stack.push(Slot::from_i64(i64_div_u(a, b)?));
        }
        I64RemS => {
            let b = pop(stack).i64();
            let a = pop(stack).i64();
            stack.push(Slot::from_i64(i64_rem_s(a, b)?));
        }
        I64RemU => {
            let b = pop(stack).i64();
            let a = pop(stack).i64();
            stack.push(Slot::from_i64(i64_rem_u(a, b)?));
        }

        F32Abs => unop!(stack, f32, Slot::from_f32, f32::abs),
        F32Neg => unop!(stack, f32, Slot::from_f32, |v: f32| -v),
        F32Ceil => unop!(stack, f32, Slot::from_f32, f32::ceil),
        F32Floor => unop!(stack, f32, Slot::from_f32, f32::floor),
        F32Trunc => unop!(stack, f32, Slot::from_f32, f32::trunc),
        F32Nearest => unop!(stack, f32, Slot::from_f32, nearest32),
        F32Sqrt => unop!(stack, f32, Slot::from_f32, f32::sqrt),
        F32Add => binop!(stack, f32, Slot::from_f32, |a, b| a + b),
        F32Sub => binop!(stack, f32, Slot::from_f32, |a, b| a - b),
        F32Mul => binop!(stack, f32, Slot::from_f32, |a, b| a * b),
        F32Div => binop!(stack, f32, Slot::from_f32, |a, b| a / b),
        F32Min => binop!(stack, f32, Slot::from_f32, fmin32),
        F32Max => binop!(stack, f32, Slot::from_f32, fmax32),
        F32Copysign => binop!(stack, f32, Slot::from_f32, f32::copysign),

        F64Abs => unop!(stack, f64, Slot::from_f64, f64::abs),
        F64Neg => unop!(stack, f64, Slot::from_f64, |v: f64| -v),
        F64Ceil => unop!(stack, f64, Slot::from_f64, f64::ceil),
        F64Floor => unop!(stack, f64, Slot::from_f64, f64::floor),
        F64Trunc => unop!(stack, f64, Slot::from_f64, f64::trunc),
        F64Nearest => unop!(stack, f64, Slot::from_f64, nearest64),
        F64Sqrt => unop!(stack, f64, Slot::from_f64, f64::sqrt),
        F64Add => binop!(stack, f64, Slot::from_f64, |a, b| a + b),
        F64Sub => binop!(stack, f64, Slot::from_f64, |a, b| a - b),
        F64Mul => binop!(stack, f64, Slot::from_f64, |a, b| a * b),
        F64Div => binop!(stack, f64, Slot::from_f64, |a, b| a / b),
        F64Min => binop!(stack, f64, Slot::from_f64, fmin64),
        F64Max => binop!(stack, f64, Slot::from_f64, fmax64),
        F64Copysign => binop!(stack, f64, Slot::from_f64, f64::copysign),

        I32WrapI64 => unop!(stack, i64, Slot::from_i32, |v| v as i32),
        I32TruncF32S => {
            let v = pop(stack).f32();
            stack.push(Slot::from_i32(trunc_f64_to_i32(v as f64)?));
        }
        I32TruncF32U => {
            let v = pop(stack).f32();
            stack.push(Slot::from_i32(trunc_f64_to_u32(v as f64)? as i32));
        }
        I32TruncF64S => {
            let v = pop(stack).f64();
            stack.push(Slot::from_i32(trunc_f64_to_i32(v)?));
        }
        I32TruncF64U => {
            let v = pop(stack).f64();
            stack.push(Slot::from_i32(trunc_f64_to_u32(v)? as i32));
        }
        I64ExtendI32S => unop!(stack, i32, Slot::from_i64, |v| v as i64),
        I64ExtendI32U => unop!(stack, i32, Slot::from_i64, |v| v as u32 as i64),
        I64TruncF32S => {
            let v = pop(stack).f32();
            stack.push(Slot::from_i64(trunc_f64_to_i64(v as f64)?));
        }
        I64TruncF32U => {
            let v = pop(stack).f32();
            stack.push(Slot::from_i64(trunc_f64_to_u64(v as f64)? as i64));
        }
        I64TruncF64S => {
            let v = pop(stack).f64();
            stack.push(Slot::from_i64(trunc_f64_to_i64(v)?));
        }
        I64TruncF64U => {
            let v = pop(stack).f64();
            stack.push(Slot::from_i64(trunc_f64_to_u64(v)? as i64));
        }
        F32ConvertI32S => unop!(stack, i32, Slot::from_f32, |v| v as f32),
        F32ConvertI32U => unop!(stack, i32, Slot::from_f32, |v| v as u32 as f32),
        F32ConvertI64S => unop!(stack, i64, Slot::from_f32, |v| v as f32),
        F32ConvertI64U => unop!(stack, i64, Slot::from_f32, |v| v as u64 as f32),
        F32DemoteF64 => unop!(stack, f64, Slot::from_f32, |v| v as f32),
        F64ConvertI32S => unop!(stack, i32, Slot::from_f64, |v| v as f64),
        F64ConvertI32U => unop!(stack, i32, Slot::from_f64, |v| v as u32 as f64),
        F64ConvertI64S => unop!(stack, i64, Slot::from_f64, |v| v as f64),
        F64ConvertI64U => unop!(stack, i64, Slot::from_f64, |v| v as u64 as f64),
        F64PromoteF32 => unop!(stack, f32, Slot::from_f64, |v| v as f64),
        // Reinterpretations are no-ops on raw slots.
        I32ReinterpretF32 | F32ReinterpretI32 => {}
        I64ReinterpretF64 | F64ReinterpretI64 => {}
        I32Extend8S => unop!(stack, i32, Slot::from_i32, |v| v as i8 as i32),
        I32Extend16S => unop!(stack, i32, Slot::from_i32, |v| v as i16 as i32),
        I64Extend8S => unop!(stack, i64, Slot::from_i64, |v| v as i8 as i64),
        I64Extend16S => unop!(stack, i64, Slot::from_i64, |v| v as i16 as i64),
        I64Extend32S => unop!(stack, i64, Slot::from_i64, |v| v as i32 as i64),

        // --- SIMD ---
        I32x4Splat => {
            let v = pop(stack).i32();
            push_v128(stack, i32x4_to_v([v; 4]));
        }
        I64x2Splat => {
            let v = pop(stack).u64();
            push_v128(stack, (v as u128) | ((v as u128) << 64));
        }
        F32x4Splat => {
            let v = pop(stack).f32();
            push_v128(stack, f32x4_to_v([v; 4]));
        }
        F64x2Splat => {
            let v = pop(stack).f64();
            push_v128(stack, f64x2_to_v([v; 2]));
        }
        I32x4ExtractLane(l) => {
            let v = pop_v128(stack);
            stack.push(Slot::from_i32(v_to_i32x4(v)[*l as usize]));
        }
        F32x4ExtractLane(l) => {
            let v = pop_v128(stack);
            stack.push(Slot::from_f32(v_to_f32x4(v)[*l as usize]));
        }
        F64x2ExtractLane(l) => {
            let v = pop_v128(stack);
            stack.push(Slot::from_f64(v_to_f64x2(v)[*l as usize]));
        }
        F64x2ReplaceLane(l) => {
            let x = pop(stack).f64();
            let v = pop_v128(stack);
            let mut lanes = v_to_f64x2(v);
            lanes[*l as usize] = x;
            push_v128(stack, f64x2_to_v(lanes));
        }
        I32x4Add => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, i32x4_bin(a, b, i32::wrapping_add));
        }
        I32x4Sub => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, i32x4_bin(a, b, i32::wrapping_sub));
        }
        I32x4Mul => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, i32x4_bin(a, b, i32::wrapping_mul));
        }
        F32x4Add => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f32x4_bin(a, b, |x, y| x + y));
        }
        F32x4Sub => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f32x4_bin(a, b, |x, y| x - y));
        }
        F32x4Mul => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f32x4_bin(a, b, |x, y| x * y));
        }
        F32x4Div => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f32x4_bin(a, b, |x, y| x / y));
        }
        F64x2Add => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f64x2_bin(a, b, |x, y| x + y));
        }
        F64x2Sub => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f64x2_bin(a, b, |x, y| x - y));
        }
        F64x2Mul => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f64x2_bin(a, b, |x, y| x * y));
        }
        F64x2Div => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f64x2_bin(a, b, |x, y| x / y));
        }
        F64x2Eq => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f64x2_cmp(a, b, |x, y| x == y));
        }
        F64x2Ne => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f64x2_cmp(a, b, |x, y| x != y));
        }
        F64x2Lt => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f64x2_cmp(a, b, |x, y| x < y));
        }
        F64x2Gt => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f64x2_cmp(a, b, |x, y| x > y));
        }
        F64x2Le => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f64x2_cmp(a, b, |x, y| x <= y));
        }
        F64x2Ge => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, f64x2_cmp(a, b, |x, y| x >= y));
        }
        V128And => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, a & b);
        }
        V128Or => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, a | b);
        }
        V128Xor => {
            let b = pop_v128(stack);
            let a = pop_v128(stack);
            push_v128(stack, a ^ b);
        }
        V128Not => {
            let a = pop_v128(stack);
            push_v128(stack, !a);
        }
        V128AnyTrue => {
            let a = pop_v128(stack);
            stack.push(Slot::from_bool(a != 0));
        }
        I32x4AllTrue => {
            let a = v_to_i32x4(pop_v128(stack));
            stack.push(Slot::from_bool(a.iter().all(|&l| l != 0)));
        }
        I32x4Bitmask => {
            let a = v_to_i32x4(pop_v128(stack));
            let mut m = 0;
            for (i, l) in a.iter().enumerate() {
                if *l < 0 {
                    m |= 1 << i;
                }
            }
            stack.push(Slot::from_i32(m));
        }

        other => unreachable!("control/call/parametric instruction {other:?} in exec::step"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rounds_half_to_even() {
        assert_eq!(nearest64(2.5), 2.0);
        assert_eq!(nearest64(3.5), 4.0);
        assert_eq!(nearest64(-2.5), -2.0);
        assert_eq!(nearest64(0.4), 0.0);
        assert_eq!(nearest32(2.5), 2.0);
        assert_eq!(nearest32(-3.5), -4.0);
    }

    #[test]
    fn wasm_min_max_nan_and_zero() {
        assert!(fmin64(f64::NAN, 1.0).is_nan());
        assert!(fmax64(1.0, f64::NAN).is_nan());
        assert!(fmin64(-0.0, 0.0).is_sign_negative());
        assert!(fmax64(-0.0, 0.0).is_sign_positive());
        assert_eq!(fmin32(3.0, 2.0), 2.0);
        assert_eq!(fmax32(3.0, 2.0), 3.0);
    }

    #[test]
    fn trunc_traps() {
        assert!(matches!(trunc_f64_to_i32(f64::NAN), Err(Trap::InvalidConversionToInteger)));
        assert!(matches!(trunc_f64_to_i32(3e9), Err(Trap::IntegerOverflow)));
        assert!(matches!(trunc_f64_to_u32(-1.0), Err(Trap::IntegerOverflow)));
        assert_eq!(trunc_f64_to_i32(-1.9).unwrap(), -1);
        assert_eq!(trunc_f64_to_u64(1.5e18).unwrap(), 1_500_000_000_000_000_000);
        assert!(trunc_f64_to_i64(9.3e18).is_err());
    }

    #[test]
    fn lane_conversions_roundtrip() {
        let lanes = [1i32, -2, 3, -4];
        assert_eq!(v_to_i32x4(i32x4_to_v(lanes)), lanes);
        let flanes = [1.5f64, -2.25];
        assert_eq!(v_to_f64x2(f64x2_to_v(flanes)), flanes);
        let f32lanes = [0.5f32, 1.5, -2.5, 3.5];
        assert_eq!(v_to_f32x4(f32x4_to_v(f32lanes)), f32lanes);
    }

    #[test]
    fn f64x2_compare_lanes() {
        let a = f64x2_to_v([1.0, 5.0]);
        let b = f64x2_to_v([2.0, 5.0]);
        let lt = f64x2_cmp(a, b, |x, y| x < y);
        assert_eq!(lt & u64::MAX as u128, u64::MAX as u128);
        assert_eq!(lt >> 64, 0);
    }

    #[test]
    fn slot_stack_v128_roundtrip() {
        let mut stack = Vec::new();
        push_v128(&mut stack, 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128);
        assert_eq!(stack.len(), 2);
        assert_eq!(pop_v128(&mut stack), 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128);
        assert!(stack.is_empty());
    }

    #[test]
    fn div_traps() {
        assert!(matches!(i32_div_s(1, 0), Err(Trap::IntegerDivideByZero)));
        assert!(matches!(i32_div_s(i32::MIN, -1), Err(Trap::IntegerOverflow)));
        assert_eq!(i32_div_u(-2, 2).unwrap(), 0x7fff_ffff);
        assert!(matches!(i64_rem_u(1, 0), Err(Trap::IntegerDivideByZero)));
        assert_eq!(i64_rem_s(-7, 2).unwrap(), -1);
    }
}

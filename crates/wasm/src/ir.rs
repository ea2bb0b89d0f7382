//! The flat tiers' front end: one walk from a validated structured body
//! to the register form.
//!
//! [`compile`] resolves all structured control flow (`block`/`loop`/`if`)
//! into direct jumps with precomputed stack-unwind copies, eliminating the
//! label-stack bookkeeping of the baseline interpreter, and emits each
//! instruction straight as a [`RegOp`]: validation makes the operand-stack
//! height at every instruction static, so the walk's running slot count
//! *is* the register assignment (see [`crate::regalloc`]). The same
//! traversal tracks operand widths (slot heights, v128-ness of
//! `drop`/`select`), so the flat tiers never walk a function body twice and
//! no intermediate form exists between the body and the stream the
//! register pipeline ([`regalloc::optimize`]) rewrites — which is what the
//! engine executes and what the module cache stores.

use crate::error::Trap;
use crate::instr::Instr;
use crate::module::{Function, Module};
use crate::regalloc::{self, pack_unwind, rop, BrDest, Rc, RegFunc, RegOp};
use crate::runtime::{Instance, Slot};
use crate::tier::Tier;
use crate::types::ValType;
use crate::widths;

/// An i32 comparison, as the register form encodes it (`aux` byte of
/// `Cmp32`/`Cmp32K`/`BrIfCmp32`…).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Cmp {
    Eq = 0,
    Ne = 1,
    LtS = 2,
    LtU = 3,
    GtS = 4,
    GtU = 5,
    LeS = 6,
    LeU = 7,
    GeS = 8,
    GeU = 9,
}

impl Cmp {
    #[inline]
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::LtS => a < b,
            Cmp::LtU => (a as u32) < (b as u32),
            Cmp::GtS => a > b,
            Cmp::GtU => (a as u32) > (b as u32),
            Cmp::LeS => a <= b,
            Cmp::LeU => (a as u32) <= (b as u32),
            Cmp::GeS => a >= b,
            Cmp::GeU => (a as u32) >= (b as u32),
        }
    }

    /// The comparison that holds exactly when `self` does not.
    pub fn negate(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
            Cmp::LtS => Cmp::GeS,
            Cmp::LtU => Cmp::GeU,
            Cmp::GtS => Cmp::LeS,
            Cmp::GtU => Cmp::LeU,
            Cmp::LeS => Cmp::GtS,
            Cmp::LeU => Cmp::GtU,
            Cmp::GeS => Cmp::LtS,
            Cmp::GeU => Cmp::LtU,
        }
    }

    pub fn from_byte(b: u8) -> Option<Cmp> {
        Some(match b {
            0 => Cmp::Eq,
            1 => Cmp::Ne,
            2 => Cmp::LtS,
            3 => Cmp::LtU,
            4 => Cmp::GtS,
            5 => Cmp::GtU,
            6 => Cmp::LeS,
            7 => Cmp::LeU,
            8 => Cmp::GeS,
            9 => Cmp::GeU,
            _ => return None,
        })
    }
}

// --- compilation ---

struct Ctrl {
    /// Slot height of the frame (operand stack, frame-relative).
    height: u32,
    br_arity: u32,
    /// Start ip for loops (branch target).
    loop_start: Option<u32>,
    /// Forward jumps and branches (op indices) to patch to this frame's
    /// end, the then-arm's skip over `else` among them.
    patches: Vec<usize>,
    /// `br_table` destinations (dest-pool indices) to patch likewise.
    table_patches: Vec<usize>,
    /// `BrIfZ` emitted at `if`, patched at `else`/`end`.
    if_patch: Option<usize>,
    /// Width-stack depth at block entry (params popped) — the fused
    /// width pass's reset point for `else`/`end`.
    wbase: usize,
    /// Operand widths of the block's params / results (true = v128).
    wparams: Vec<bool>,
    wresults: Vec<bool>,
}

/// Slot count of a width list (v128 entries span two slots).
fn wslots(ws: &[bool]) -> u32 {
    ws.iter().map(|&w| if w { 2 } else { 1 }).sum()
}

/// Net stack effect of a straight-line instruction in *values* (pops,
/// pushes). Slot-accurate accounting is done by [`crate::widths`], which
/// consumes these counts.
pub(crate) fn stack_effect(module: &Module, i: &Instr) -> (u32, u32) {
    use Instr::*;
    match i {
        Drop => (1, 0),
        Select => (3, 1),
        LocalGet(_) | GlobalGet(_) => (0, 1),
        LocalSet(_) | GlobalSet(_) => (1, 0),
        LocalTee(_) => (1, 1),
        Call(f) => {
            let t = module.func_type(*f).expect("validated");
            (t.params.len() as u32, t.results.len() as u32)
        }
        CallIndirect { type_idx, .. } => {
            let t = &module.types[*type_idx as usize];
            (t.params.len() as u32 + 1, t.results.len() as u32)
        }
        I32Load(_) | I64Load(_) | F32Load(_) | F64Load(_) | I32Load8S(_) | I32Load8U(_)
        | I32Load16S(_) | I32Load16U(_) | I64Load8S(_) | I64Load8U(_) | I64Load16S(_)
        | I64Load16U(_) | I64Load32S(_) | I64Load32U(_) | V128Load(_) => (1, 1),
        I32Store(_) | I64Store(_) | F32Store(_) | F64Store(_) | I32Store8(_) | I32Store16(_)
        | I64Store8(_) | I64Store16(_) | I64Store32(_) | V128Store(_) => (2, 0),
        MemorySize => (0, 1),
        MemoryGrow => (1, 1),
        MemoryCopy | MemoryFill => (3, 0),
        I32Const(_) | I64Const(_) | F32Const(_) | F64Const(_) | V128Const(_) => (0, 1),
        I32Eqz | I64Eqz => (1, 1),
        // Comparisons and binary arithmetic pop two.
        I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS | I32GeU
        | I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS
        | I64GeU | F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge | F64Eq | F64Ne | F64Lt
        | F64Gt | F64Le | F64Ge | I32Add | I32Sub | I32Mul | I32DivS | I32DivU | I32RemS
        | I32RemU | I32And | I32Or | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr
        | I64Add | I64Sub | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU | I64And | I64Or
        | I64Xor | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr | F32Add | F32Sub | F32Mul
        | F32Div | F32Min | F32Max | F32Copysign | F64Add | F64Sub | F64Mul | F64Div
        | F64Min | F64Max | F64Copysign | I32x4Add | I32x4Sub | I32x4Mul | F32x4Add
        | F32x4Sub | F32x4Mul | F32x4Div | F64x2Add | F64x2Sub | F64x2Mul | F64x2Div
        | F64x2Eq | F64x2Ne | F64x2Lt | F64x2Gt | F64x2Le | F64x2Ge | V128And | V128Or
        | V128Xor => (2, 1),
        F64x2ReplaceLane(_) => (2, 1),
        // Unary ops.
        I32Clz | I32Ctz | I32Popcnt | I64Clz | I64Ctz | I64Popcnt | F32Abs | F32Neg
        | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt | F64Abs | F64Neg | F64Ceil
        | F64Floor | F64Trunc | F64Nearest | F64Sqrt | I32WrapI64 | I32TruncF32S
        | I32TruncF32U | I32TruncF64S | I32TruncF64U | I64ExtendI32S | I64ExtendI32U
        | I64TruncF32S | I64TruncF32U | I64TruncF64S | I64TruncF64U | F32ConvertI32S
        | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U | F32DemoteF64 | F64ConvertI32S
        | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U | F64PromoteF32
        | I32ReinterpretF32 | I64ReinterpretF64 | F32ReinterpretI32 | F64ReinterpretI64
        | I32Extend8S | I32Extend16S | I64Extend8S | I64Extend16S | I64Extend32S
        | I32x4Splat | I64x2Splat | F32x4Splat | F64x2Splat | I32x4ExtractLane(_)
        | F32x4ExtractLane(_) | F64x2ExtractLane(_) | V128Not | V128AnyTrue | I32x4AllTrue
        | I32x4Bitmask => (1, 1),
        Nop => (0, 0),
        Unreachable | Block(_) | Loop(_) | If(_) | Else | End | Br(_) | BrIf(_)
        | BrTable { .. } | Return => {
            unreachable!("control instruction in stack_effect")
        }
    }
}

const TRAP: RegOp = rop(Rc::Unreachable, 0, 0, 0, 0, 0);
const NOP: RegOp = rop(Rc::Nop, 0, 0, 0, 0, 0);

/// Compile one validated function body for a flat tier: translate it to
/// register form in a single walk, then run the register pipeline (where
/// all optimization happens). `Err` is a body outside the register
/// encoding's range (frame or branch unwind too large) — a compile error,
/// never a panic.
///
/// The walk is fused with the width pass: one traversal resolves control
/// flow, assigns registers *and* tracks operand widths, where earlier
/// engines walked every body twice or three times. The standalone
/// [`widths::analyze`] remains for the baseline tier.
pub fn compile(module: &Module, func: &Function, tier: Tier) -> Result<RegFunc, String> {
    let fty = &module.types[func.type_idx as usize];
    let (local_map, n_local_slots) = widths::local_map(&fty.params, &func.locals);
    let result_slots = widths::slot_count(&fty.results);
    let imported = module.num_imported_funcs() as u32;
    // Register of the stack temp at height `x`.
    let r = |x: u32| n_local_slots + x;

    let mut code: Vec<RegOp> = Vec::with_capacity(func.body.len());
    // Entry height of each op, index-aligned with `code`: the liveness
    // oracle of every later pass (at an op entered at height `h`, every
    // register `>= n_local_slots + h` is dead).
    let mut hs: Vec<u32> = Vec::with_capacity(func.body.len());
    let mut dest_pool: Vec<BrDest> = Vec::new();
    let mut v128_pool: Vec<u128> = Vec::new();
    let mut max_h: u32 = 0;
    // Fused width state: operand widths plus the running height in slots.
    let mut w: Vec<bool> = Vec::with_capacity(32);
    let mut slots: u32 = 0;
    let mut ctrl: Vec<Ctrl> = vec![Ctrl {
        height: 0,
        br_arity: result_slots,
        loop_start: None,
        patches: Vec::new(),
        table_patches: Vec::new(),
        if_patch: None,
        wbase: 0,
        wparams: Vec::new(),
        wresults: widths::widths_of(&fty.results),
    }];
    // When `Some(n)`, code is statically dead; n counts nested blocks opened
    // inside the dead region.
    let mut dead: Option<u32> = None;
    // Whether any path reaches the next op: false from an unconditional
    // transfer until a label some reached branch targets.
    let mut live = true;

    macro_rules! wpush {
        ($wide:expr) => {{
            let x: bool = $wide;
            w.push(x);
            slots += if x { 2 } else { 1 };
        }};
    }
    macro_rules! wpop {
        () => {{
            let x = w.pop().expect("validated: width stack underflow");
            slots -= if x { 2 } else { 1 };
            x
        }};
    }
    macro_rules! wreset {
        ($base:expr, $push:expr) => {{
            while w.len() > $base {
                wpop!();
            }
            for &x in $push {
                wpush!(x);
            }
        }};
    }
    macro_rules! wcall {
        ($ty:expr) => {{
            let ty = $ty;
            for _ in 0..ty.params.len() {
                wpop!();
            }
            for t in &ty.results {
                wpush!(*t == ValType::V128);
            }
        }};
    }
    // Append the op entered at height `$h`. Code no path reaches (what
    // follows a block that is only ever left by `return`, say) keeps its
    // op indices but is never translated: a trap of unknown height.
    macro_rules! emit {
        ($h:expr, $op:expr) => {{
            if live {
                max_h = max_h.max($h);
                hs.push($h);
                code.push($op);
            } else {
                hs.push(u32::MAX);
                code.push(TRAP);
            }
        }};
    }

    for instr in func.body.iter() {
        if let Some(n) = dead {
            match instr {
                i if i.opens_block() => dead = Some(n + 1),
                Instr::End if n > 0 => dead = Some(n - 1),
                // Else/End of the frame the dead code is in: processed
                // normally below.
                Instr::Else | Instr::End if n == 0 => dead = None,
                _ => continue,
            }
            if dead.is_some() {
                continue;
            }
        }
        // Entry height of whatever this instruction emits.
        let h = slots;
        match instr {
            Instr::Nop => {}
            Instr::Block(bt) | Instr::Loop(bt) | Instr::If(bt) => {
                let is_if = matches!(instr, Instr::If(_));
                if is_if {
                    wpop!(); // condition
                }
                let (wparams, wresults) = widths::block_widths(module, bt);
                for _ in 0..wparams.len() {
                    wpop!();
                }
                let wbase = w.len();
                // Branch heights exclude the block's params.
                let height = slots;
                for &x in &wparams {
                    wpush!(x);
                }
                let is_loop = matches!(instr, Instr::Loop(_));
                ctrl.push(Ctrl {
                    height,
                    br_arity: if is_loop { wslots(&wparams) } else { wslots(&wresults) },
                    loop_start: is_loop.then_some(code.len() as u32),
                    patches: Vec::new(),
                    table_patches: Vec::new(),
                    if_patch: (is_if && live).then_some(code.len()),
                    wbase,
                    wparams,
                    wresults,
                });
                if is_if {
                    emit!(h, rop(Rc::BrIfZ, r(h - 1), 0, u32::MAX, 0, 0));
                }
            }
            Instr::Else => {
                let frame = ctrl.last_mut().expect("validated");
                if live {
                    frame.patches.push(code.len());
                }
                emit!(h, rop(Rc::Jump, 0, 0, u32::MAX, 0, 0));
                // The else arm is reached exactly when the `if` was.
                live = frame.if_patch.is_some();
                if let Some(p) = frame.if_patch.take() {
                    code[p].c = code.len() as u32;
                }
                let (wbase, wparams) = (frame.wbase, frame.wparams.clone());
                wreset!(wbase, &wparams);
            }
            Instr::End => {
                let frame = ctrl.pop().expect("validated");
                let here = code.len() as u32;
                live |= frame.if_patch.is_some()
                    || !frame.patches.is_empty()
                    || !frame.table_patches.is_empty();
                for p in frame.patches.into_iter().chain(frame.if_patch) {
                    code[p].c = here;
                }
                for p in frame.table_patches {
                    dest_pool[p].target = here;
                }
                wreset!(frame.wbase, &frame.wresults);
                if ctrl.is_empty() {
                    // Function-level end; nothing may follow.
                    emit!(slots, rop(Rc::Return, r(slots - result_slots), 0, 0, 0, 0));
                    break;
                }
            }
            Instr::Br(depth) | Instr::BrIf(depth) => {
                let conditional = matches!(instr, Instr::BrIf(_));
                if conditional {
                    wpop!(); // condition
                }
                // Height the branch is taken at (condition popped).
                let ph = slots;
                let idx = ctrl.len() - 1 - *depth as usize;
                if idx == 0 {
                    // Branch to the function frame == return. A conditional
                    // return needs the jump form so fallthrough continues:
                    // BrIfZ(skip) ; Return ; skip:
                    if conditional {
                        let skip = code.len() as u32 + 2;
                        emit!(h, rop(Rc::BrIfZ, r(ph), 0, skip, 0, 0));
                    }
                    emit!(ph, rop(Rc::Return, r(ph - result_slots), 0, 0, 0, 0));
                } else {
                    let frame = &mut ctrl[idx];
                    if live && frame.loop_start.is_none() {
                        frame.patches.push(code.len());
                    }
                    let target = frame.loop_start.unwrap_or(u32::MAX);
                    let (rc, cond) = if conditional { (Rc::BrIf, r(ph)) } else { (Rc::Br, 0) };
                    let (arity, to) = (frame.br_arity, frame.height);
                    emit!(h, rop(rc, cond, 0, target, 0, pack_unwind(r(ph - arity), r(to), arity)?));
                }
                if !conditional {
                    dead = Some(0);
                    live = false;
                }
            }
            Instr::BrTable { targets, default } => {
                let ph = h - 1; // index popped
                let start = dest_pool.len() as u32;
                // A destination in the function frame unwinds to height 0
                // carrying the results and lands on the trailing `Return`
                // the function-level `End` appends.
                if live {
                    for depth in targets.iter().chain([default]) {
                        let idx = ctrl.len() - 1 - *depth as usize;
                        let frame = &mut ctrl[idx];
                        let (arity, to) = (frame.br_arity, frame.height);
                        let unwind = pack_unwind(r(ph - arity), r(to), arity)?;
                        if frame.loop_start.is_none() {
                            frame.table_patches.push(dest_pool.len());
                        }
                        let target = frame.loop_start.unwrap_or(u32::MAX);
                        dest_pool.push(BrDest { target, unwind });
                    }
                }
                emit!(h, rop(Rc::BrTable, r(ph), start, targets.len() as u32, 0, 0));
                dead = Some(0);
                live = false;
            }
            Instr::Return => {
                emit!(h, rop(Rc::Return, r(h - result_slots), 0, 0, 0, 0));
                dead = Some(0);
                live = false;
            }
            Instr::Unreachable => {
                emit!(h, TRAP);
                dead = Some(0);
                live = false;
            }
            Instr::Drop => {
                wpop!();
                emit!(h, NOP);
            }
            Instr::Select => {
                wpop!(); // condition
                let a = wpop!();
                let _b = wpop!();
                wpush!(a);
                emit!(h, if a {
                    rop(Rc::Select2, r(h - 5), r(h - 3), r(h - 1), 0, 0)
                } else {
                    rop(Rc::Select, r(h - 3), r(h - 2), r(h - 1), 0, 0)
                });
            }
            plain => {
                match plain {
                    Instr::LocalGet(i) => wpush!(local_map[*i as usize] & 1 != 0),
                    // Pops and re-pushes the same width.
                    Instr::LocalTee(_) => {}
                    Instr::Call(f) => wcall!(module.func_type(*f).expect("validated")),
                    Instr::CallIndirect { type_idx, .. } => {
                        wpop!(); // table index
                        wcall!(&module.types[*type_idx as usize]);
                    }
                    _ => {
                        let (pops, pushes) = stack_effect(module, plain);
                        for _ in 0..pops {
                            wpop!();
                        }
                        debug_assert!(pushes <= 1);
                        for _ in 0..pushes {
                            wpush!(widths::pushes_wide(plain));
                        }
                    }
                }
                let (base, pool) = (n_local_slots, &mut v128_pool);
                emit!(h, regalloc::lower_plain(plain, module, h, base, imported, &local_map, pool));
            }
        }
    }

    let frame_size = n_local_slots
        .checked_add(max_h)
        .filter(|&f| f <= regalloc::MAX_REG)
        .ok_or("frame size exceeds encodable range")?;
    let rf = RegFunc {
        code,
        dest_pool,
        v128_pool,
        frame_size,
        n_local_slots,
        scratch_slots: 0,
        param_slots: widths::slot_count(&fty.params),
        result_slots,
    };
    regalloc::optimize(module, rf, hs, tier)
}

// --- execution ---

/// Execute flat-IR function `defined_idx` with `args` (already as slots),
/// through the register-form threaded-dispatch engine.
pub(crate) fn call(
    inst: &mut Instance,
    defined_idx: usize,
    args: &[Slot],
) -> Result<Vec<Slot>, Trap> {
    // The executors read lowered code only; the entry function is lowered
    // here, callees where they are first called (`dispatch::call_guest`).
    inst.bodies.body(defined_idx)?;
    let mut stack = inst.take_stack();
    stack.extend_from_slice(args);
    let result = crate::dispatch::run(inst, &mut stack, defined_idx);
    let out = result.map(|result_slots| {
        let at = stack.len() - result_slots;
        stack.split_off(at)
    });
    inst.put_stack(stack);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_byte_roundtrip() {
        for b in 0..=9u8 {
            assert_eq!(Cmp::from_byte(b).unwrap() as u8, b);
        }
        assert!(Cmp::from_byte(10).is_none());
        assert!(Cmp::LtS.eval(-1, 0));
        assert!(!Cmp::LtU.eval(-1, 0));
        assert!(Cmp::GeS.eval(3, 3));
    }
}

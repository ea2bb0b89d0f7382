//! Flattening of structured Wasm bytecode into a flat op stream with
//! resolved jump targets — the front half of the flat tiers.
//!
//! [`flatten`] resolves all structured control flow (`block`/`loop`/`if`)
//! into direct jumps with precomputed stack-unwind information (in slot
//! units), eliminating the label-stack bookkeeping of the baseline
//! interpreter. The walk is **fused with the width pass**: the same single
//! traversal of the body tracks operand widths (slot heights, v128-ness of
//! `drop`/`select`), so the flat tiers never walk a function body twice.
//!
//! The [`Op`] stream is a pure function of the module bytes and carries no
//! optimization: it is a per-function temporary that [`compile`] hands to
//! [`crate::regalloc::lower`] and drops. Every optimization happens there,
//! on the stackless register form ([`crate::regalloc::RegOp`]) the engine
//! executes; what separates [`Tier::Optimizing`] from [`Tier::Max`] is a
//! pass subset of that one pipeline. The module cache serializes the same
//! stream (artifact VERSION 3) by re-flattening, and lowers it again at
//! load time.

use crate::error::Trap;
use crate::instr::Instr;
use crate::module::{Function, Module};
use crate::regalloc::{self, RegFunc};
use crate::runtime::{Instance, Slot};
use crate::tier::Tier;
use crate::types::ValType;
use crate::widths;

/// A resolved branch destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dest {
    pub target: u32,
    /// Operand-stack height (in slots) to unwind to, relative to the
    /// frame's operand base.
    pub height: u32,
    /// Number of slots carried over the unwind.
    pub arity: u32,
}

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

/// One flat-IR operation: the ten things flattening emits (also the
/// cache-serializable form).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A straight-line instruction with shared semantics.
    Plain(Instr),
    /// Unconditional jump (no stack adjustment; used for `else` skips).
    Jump(u32),
    /// Jump when the popped i32 is zero (used for `if`).
    JumpIfZero(u32),
    /// Resolved `br`.
    Br(Dest),
    /// Resolved `br_if` (jump taken when popped i32 is non-zero).
    BrIf(Dest),
    /// Resolved `br_table`.
    BrTable { dests: Box<[Dest]>, default: Dest },
    /// Return the function's results from the top of the stack.
    Return,
    /// Trap.
    Unreachable,
    /// `drop` of a two-slot (v128) operand.
    Drop2,
    /// `select` between two-slot (v128) operands.
    Select2,
}

// --- compilation ---

struct Ctrl {
    /// Slot height of the frame (operand stack, frame-relative).
    height: u32,
    br_arity: u32,
    /// Start ip for loops (branch target).
    loop_start: Option<u32>,
    /// Forward-branch op indices to patch to this frame's end.
    patches: Vec<Patch>,
    /// `JumpIfZero` emitted at `if`, patched at `else`/`end`.
    if_patch: Option<usize>,
    /// `Jump` emitted at `else` (then-arm fallthrough), patched at `end`.
    else_jump: Option<usize>,
    /// Width-stack depth at block entry (params popped) — the fused
    /// width pass's reset point for `else`/`end`.
    wbase: usize,
    /// Operand widths of the block's params / results (true = v128).
    wparams: Vec<bool>,
    wresults: Vec<bool>,
}

enum Patch {
    /// Patch `ops[idx]`'s single target.
    Single(usize),
    /// Patch `ops[idx]`'s br_table destination `slot` (usize::MAX = default).
    Table(usize, usize),
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

/// Compile one function body for a flat tier: flatten, lower to register
/// form (where all optimization happens), drop the op stream. `Err` is a
/// body outside the register encoding's range (frame or branch unwind too
/// large) — a compile error, never a panic.
pub fn compile(module: &Module, func: &Function, tier: Tier) -> Result<RegFunc, String> {
    regalloc::lower(module, func, &flatten(module, func), tier)
}

/// Flatten one validated function body into its op stream.
///
/// The flatten walk is fused with the width pass: a single traversal
/// resolves control flow *and* tracks operand widths (slot heights for
/// branch unwinding, v128-ness of `drop`/`select`), where earlier
/// engines walked every body twice (`widths::analyze` + flatten). The
/// standalone [`widths::analyze`] remains for the baseline tier.
pub fn flatten(module: &Module, func: &Function) -> Vec<Op> {
    let fty = &module.types[func.type_idx as usize];
    let result_slots = widths::slot_count(&fty.results);
    let local_wide: Vec<bool> = fty
        .params
        .iter()
        .chain(func.locals.iter())
        .map(|t| *t == ValType::V128)
        .collect();

    let mut ops: Vec<Op> = Vec::with_capacity(func.body.len());
    // Fused width state: operand widths plus the running height in slots.
    let mut w: Vec<bool> = Vec::with_capacity(32);
    let mut slots: u32 = 0;
    let mut ctrl: Vec<Ctrl> = vec![Ctrl {
        height: 0,
        br_arity: result_slots,
        loop_start: None,
        patches: Vec::new(),
        if_patch: None,
        else_jump: None,
        wbase: 0,
        wparams: Vec::new(),
        wresults: widths::widths_of(&fty.results),
    }];
    // When `Some(n)`, code is statically dead; n counts nested blocks opened
    // inside the dead region.
    let mut dead: Option<u32> = None;

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

    for instr in func.body.iter() {
        if let Some(n) = dead {
            match instr {
                i if i.opens_block() => dead = Some(n + 1),
                Instr::End if n > 0 => dead = Some(n - 1),
                Instr::Else if n == 0 => {
                    dead = None;
                    // Process the Else normally below.
                }
                Instr::End if n == 0 => {
                    dead = None;
                    // Process the End normally below.
                }
                _ => continue,
            }
            if dead.is_some() {
                continue;
            }
        }
        match instr {
            Instr::Nop => {}
            Instr::Block(bt) | Instr::Loop(bt) => {
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
                    loop_start: is_loop.then(|| ops.len() as u32),
                    patches: Vec::new(),
                    if_patch: None,
                    else_jump: None,
                    wbase,
                    wparams,
                    wresults,
                });
            }
            Instr::If(bt) => {
                wpop!(); // condition
                let (wparams, wresults) = widths::block_widths(module, bt);
                for _ in 0..wparams.len() {
                    wpop!();
                }
                let wbase = w.len();
                let height = slots;
                for &x in &wparams {
                    wpush!(x);
                }
                let if_patch = ops.len();
                ops.push(Op::JumpIfZero(u32::MAX));
                ctrl.push(Ctrl {
                    height,
                    br_arity: wslots(&wresults),
                    loop_start: None,
                    patches: Vec::new(),
                    if_patch: Some(if_patch),
                    else_jump: None,
                    wbase,
                    wparams,
                    wresults,
                });
            }
            Instr::Else => {
                let frame = ctrl.last_mut().expect("validated");
                let else_jump = ops.len();
                ops.push(Op::Jump(u32::MAX));
                if let Some(p) = frame.if_patch.take() {
                    ops[p] = Op::JumpIfZero(ops.len() as u32);
                }
                frame.else_jump = Some(else_jump);
                let (wbase, wparams) = (frame.wbase, frame.wparams.clone());
                wreset!(wbase, &wparams);
            }
            Instr::End => {
                let frame = ctrl.pop().expect("validated");
                let here = ops.len() as u32;
                if let Some(p) = frame.if_patch {
                    ops[p] = Op::JumpIfZero(here);
                }
                if let Some(p) = frame.else_jump {
                    ops[p] = Op::Jump(here);
                }
                for patch in frame.patches {
                    match patch {
                        Patch::Single(idx) => set_target(&mut ops[idx], here),
                        Patch::Table(idx, slot) => set_table_target(&mut ops[idx], slot, here),
                    }
                }
                wreset!(frame.wbase, &frame.wresults);
                if ctrl.is_empty() {
                    // Function-level end; nothing may follow.
                    ops.push(Op::Return);
                    break;
                }
            }
            Instr::Br(depth) => {
                emit_branch(&mut ops, &mut ctrl, *depth, false);
                dead = Some(0);
            }
            Instr::BrIf(depth) => {
                wpop!(); // condition
                emit_branch(&mut ops, &mut ctrl, *depth, true);
            }
            Instr::BrTable { targets, default } => {
                let op_idx = ops.len();
                let mut dests = Vec::with_capacity(targets.len());
                for (slot, t) in targets.iter().enumerate() {
                    dests.push(make_dest(&mut ctrl, *t, op_idx, slot));
                }
                let default_dest = make_dest(&mut ctrl, *default, op_idx, usize::MAX);
                ops.push(Op::BrTable { dests: dests.into_boxed_slice(), default: default_dest });
                dead = Some(0);
            }
            Instr::Return => {
                ops.push(Op::Return);
                dead = Some(0);
            }
            Instr::Unreachable => {
                ops.push(Op::Unreachable);
                dead = Some(0);
            }
            Instr::Drop => {
                let wide = wpop!();
                ops.push(if wide { Op::Drop2 } else { Op::Plain(Instr::Drop) });
            }
            Instr::Select => {
                wpop!(); // condition
                let a = wpop!();
                let _b = wpop!();
                wpush!(a);
                ops.push(if a { Op::Select2 } else { Op::Plain(Instr::Select) });
            }
            Instr::LocalGet(i) => {
                wpush!(local_wide[*i as usize]);
                ops.push(Op::Plain(instr.clone()));
            }
            Instr::LocalTee(_) => {
                // Pops and re-pushes the same width.
                ops.push(Op::Plain(instr.clone()));
            }
            Instr::Call(f) => {
                let ty = module.func_type(*f).expect("validated");
                for _ in 0..ty.params.len() {
                    wpop!();
                }
                for r in &ty.results {
                    wpush!(*r == ValType::V128);
                }
                ops.push(Op::Plain(instr.clone()));
            }
            Instr::CallIndirect { type_idx, .. } => {
                wpop!(); // table index
                let ty = &module.types[*type_idx as usize];
                for _ in 0..ty.params.len() {
                    wpop!();
                }
                for r in &ty.results {
                    wpush!(*r == ValType::V128);
                }
                ops.push(Op::Plain(instr.clone()));
            }
            plain => {
                let (pops, pushes) = stack_effect(module, plain);
                for _ in 0..pops {
                    wpop!();
                }
                debug_assert!(pushes <= 1);
                for _ in 0..pushes {
                    wpush!(widths::pushes_wide(plain));
                }
                ops.push(Op::Plain(plain.clone()));
            }
        }
    }

    ops
}

fn set_target(op: &mut Op, target: u32) {
    match op {
        Op::Br(d) | Op::BrIf(d) => d.target = target,
        Op::Jump(t) | Op::JumpIfZero(t) => *t = target,
        _ => unreachable!("patching non-branch op"),
    }
}

fn set_table_target(op: &mut Op, slot: usize, target: u32) {
    if let Op::BrTable { dests, default } = op {
        if slot == usize::MAX {
            default.target = target;
        } else {
            dests[slot].target = target;
        }
    } else {
        unreachable!("patching non-br_table op")
    }
}

fn emit_branch(ops: &mut Vec<Op>, ctrl: &mut [Ctrl], depth: u32, conditional: bool) {
    let idx = ctrl.len() - 1 - depth as usize;
    if idx == 0 {
        // Branch to the function frame == return. A conditional return
        // needs the jump form so fallthrough continues:
        // JumpIfZero(skip) ; Return ; skip:
        if conditional {
            let jz = ops.len();
            ops.push(Op::JumpIfZero(u32::MAX));
            ops.push(Op::Return);
            let here = ops.len() as u32;
            ops[jz] = Op::JumpIfZero(here);
        } else {
            ops.push(Op::Return);
        }
        return;
    }
    let frame = &ctrl[idx];
    let dest = Dest { target: u32::MAX, height: frame.height, arity: frame.br_arity };
    let op_idx = ops.len();
    if let Some(start) = frame.loop_start {
        let d = Dest { target: start, ..dest };
        ops.push(if conditional { Op::BrIf(d) } else { Op::Br(d) });
    } else {
        ops.push(if conditional { Op::BrIf(dest) } else { Op::Br(dest) });
        // ctrl is a slice; push patch onto the frame.
        let frame = &mut ctrl[idx];
        frame.patches.push(Patch::Single(op_idx));
    }
}

fn make_dest(ctrl: &mut [Ctrl], depth: u32, op_idx: usize, slot: usize) -> Dest {
    let idx = ctrl.len() - 1 - depth as usize;
    if idx == 0 {
        // Branch to the function frame: unwind to height 0 carrying the
        // function results, then fall into the trailing Return that the
        // function-level End appends (patched in by the frame's patch
        // list).
        let frame = &ctrl[0];
        let d = Dest { target: u32::MAX, height: 0, arity: frame.br_arity };
        let frame = &mut ctrl[0];
        frame.patches.push(Patch::Table(op_idx, slot));
        return d;
    }
    let frame = &ctrl[idx];
    let d = Dest {
        target: frame.loop_start.unwrap_or(u32::MAX),
        height: frame.height,
        arity: frame.br_arity,
    };
    if frame.loop_start.is_none() {
        let frame = &mut ctrl[idx];
        frame.patches.push(Patch::Table(op_idx, slot));
    }
    d
}

// --- execution ---

/// Execute flat-IR function `defined_idx` with `args` (already as slots),
/// through the register-form threaded-dispatch engine.
pub(crate) fn call(
    inst: &mut Instance,
    defined_idx: usize,
    args: &[Slot],
) -> Result<Vec<Slot>, Trap> {
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

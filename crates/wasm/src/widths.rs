//! Static slot-width analysis for function bodies.
//!
//! The execution engine stores operands as untyped 64-bit slots (v128
//! spans two). Validation has already proven every operand's type, so a
//! single forward pass can recover the only facts the untyped engine still
//! needs from the type system:
//!
//! * the operand-stack height **in slots** before every instruction
//!   (what the flat tiers' walk resolves branch unwind heights from), and
//! * for each `drop`/`select`, whether the selected operand is wide
//!   (v128), i.e. occupies two slots.
//!
//! The pass mirrors the validator's control-flow handling, including
//! statically dead code after `br`/`return`/`unreachable`, whose stack
//! state is irrelevant because it can never execute.

use crate::instr::Instr;
use crate::module::{Function, Module};
use crate::types::{BlockType, ValType};

/// Per-body facts derived from the type system. Indexed by instruction
/// position; entries inside statically dead regions are unspecified.
pub(crate) struct BodyInfo {
    /// Operand-stack height in slots before each instruction, relative to
    /// the frame's operand base (0 = empty operand stack). The flat tiers
    /// compute heights in their own fused walk (`ir::compile`) and the
    /// baseline tier tracks them at run time, so outside tests this is
    /// bookkeeping the pass maintains anyway to derive `wide`.
    #[allow(dead_code)]
    pub height: Vec<u32>,
    /// For `Drop`/`Select` positions: the popped/selected operand is v128.
    pub wide: Vec<bool>,
}

struct Ctrl {
    /// Width-stack length at block entry (with the block's params popped).
    base: usize,
    params: Vec<bool>,
    results: Vec<bool>,
}

pub(crate) fn widths_of(types: &[ValType]) -> Vec<bool> {
    types.iter().map(|t| *t == ValType::V128).collect()
}

pub(crate) fn block_widths(module: &Module, bt: &BlockType) -> (Vec<bool>, Vec<bool>) {
    match bt {
        BlockType::Empty => (Vec::new(), Vec::new()),
        BlockType::Value(t) => (Vec::new(), vec![*t == ValType::V128]),
        BlockType::Func(idx) => {
            let t = &module.types[*idx as usize];
            (widths_of(&t.params), widths_of(&t.results))
        }
    }
}

/// True for instructions whose (single) result is v128. Everything else
/// the generic fallback handles as one-slot results.
pub(crate) fn pushes_wide(i: &Instr) -> bool {
    use Instr::*;
    matches!(
        i,
        V128Load(_)
            | V128Const(_)
            | I32x4Splat
            | I64x2Splat
            | F32x4Splat
            | F64x2Splat
            | F64x2ReplaceLane(_)
            | I32x4Add
            | I32x4Sub
            | I32x4Mul
            | F32x4Add
            | F32x4Sub
            | F32x4Mul
            | F32x4Div
            | F64x2Add
            | F64x2Sub
            | F64x2Mul
            | F64x2Div
            | F64x2Eq
            | F64x2Ne
            | F64x2Lt
            | F64x2Gt
            | F64x2Le
            | F64x2Ge
            | V128And
            | V128Or
            | V128Xor
            | V128Not
    )
}

/// Run the width pass over one validated function body.
pub(crate) fn analyze(module: &Module, func: &Function) -> BodyInfo {
    let fty = &module.types[func.type_idx as usize];
    let local_wide: Vec<bool> = fty
        .params
        .iter()
        .chain(func.locals.iter())
        .map(|t| *t == ValType::V128)
        .collect();

    let body = &func.body;
    let mut height = vec![0u32; body.len()];
    let mut wide = vec![false; body.len()];

    // Width of each operand on the abstract stack, plus the running height
    // in slots (kept alongside to avoid re-summing).
    let mut w: Vec<bool> = Vec::with_capacity(32);
    let mut slots: u32 = 0;
    let mut ctrl: Vec<Ctrl> = vec![Ctrl {
        base: 0,
        params: Vec::new(),
        results: widths_of(&fty.results),
    }];
    // When `Some(n)`, code is statically dead; n counts nested blocks
    // opened inside the dead region (mirrors `ir::compile`).
    let mut dead: Option<u32> = None;

    macro_rules! push {
        ($wide:expr) => {{
            let x: bool = $wide;
            w.push(x);
            slots += if x { 2 } else { 1 };
        }};
    }
    macro_rules! pop {
        () => {{
            let x = w.pop().expect("validated: width stack underflow");
            slots -= if x { 2 } else { 1 };
            x
        }};
    }
    macro_rules! reset_to {
        ($base:expr, $push:expr) => {{
            while w.len() > $base {
                pop!();
            }
            for &x in $push {
                push!(x);
            }
        }};
    }

    for (pc, instr) in body.iter().enumerate() {
        if let Some(n) = dead {
            match instr {
                i if i.opens_block() => {
                    dead = Some(n + 1);
                    continue;
                }
                Instr::End if n > 0 => {
                    dead = Some(n - 1);
                    continue;
                }
                Instr::Else if n == 0 => dead = None,
                Instr::End if n == 0 => dead = None,
                _ => continue,
            }
            // Else/End at depth 0: reset the abstract state absolutely and
            // fall through to normal processing below.
        }
        height[pc] = slots;
        use Instr::*;
        match instr {
            Nop => {}
            Block(bt) | Loop(bt) => {
                let (params, results) = block_widths(module, bt);
                for _ in 0..params.len() {
                    pop!();
                }
                let base = w.len();
                // Branch heights exclude the block's params.
                height[pc] = slots;
                for &x in &params {
                    push!(x);
                }
                ctrl.push(Ctrl { base, params, results });
            }
            If(bt) => {
                pop!(); // condition
                let (params, results) = block_widths(module, bt);
                for _ in 0..params.len() {
                    pop!();
                }
                let base = w.len();
                height[pc] = slots;
                for &x in &params {
                    push!(x);
                }
                ctrl.push(Ctrl { base, params, results });
            }
            Else => {
                let frame = ctrl.last().expect("validated: else without if");
                let (base, params) = (frame.base, frame.params.clone());
                reset_to!(base, &params);
            }
            End => {
                let frame = ctrl.pop().expect("validated: unbalanced end");
                reset_to!(frame.base, &frame.results);
                if ctrl.is_empty() {
                    // Function-level end; nothing may follow.
                    break;
                }
            }
            Br(_) | BrTable { .. } | Return | Unreachable => {
                dead = Some(0);
            }
            BrIf(_) => {
                pop!();
            }
            Drop => {
                wide[pc] = pop!();
            }
            Select => {
                pop!(); // condition
                let a = pop!();
                let _b = pop!();
                wide[pc] = a;
                push!(a);
            }
            LocalGet(i) => push!(local_wide[*i as usize]),
            LocalSet(_) => {
                pop!();
            }
            LocalTee(_) => {} // pops and re-pushes the same width
            GlobalGet(_) => push!(false),
            GlobalSet(_) => {
                pop!();
            }
            Call(f) => {
                let ty = module.func_type(*f).expect("validated");
                for _ in 0..ty.params.len() {
                    pop!();
                }
                for r in &ty.results {
                    push!(*r == ValType::V128);
                }
            }
            CallIndirect { type_idx, .. } => {
                pop!(); // table index
                let ty = &module.types[*type_idx as usize];
                for _ in 0..ty.params.len() {
                    pop!();
                }
                for r in &ty.results {
                    push!(*r == ValType::V128);
                }
            }
            other => {
                let (pops, pushes) = crate::ir::stack_effect(module, other);
                for _ in 0..pops {
                    pop!();
                }
                debug_assert!(pushes <= 1);
                for _ in 0..pushes {
                    push!(pushes_wide(other));
                }
            }
        }
    }

    BodyInfo { height, wide }
}

/// Total slot count of a list of value types.
pub(crate) fn slot_count(types: &[ValType]) -> u32 {
    types.iter().map(|t| t.slot_width()).sum()
}

/// Packed local map: for each local (params first), `offset << 1 | wide`.
/// Returns the map and the total number of local slots.
pub(crate) fn local_map(params: &[ValType], locals: &[ValType]) -> (Vec<u32>, u32) {
    let mut map = Vec::with_capacity(params.len() + locals.len());
    let mut off = 0u32;
    for t in params.iter().chain(locals.iter()) {
        map.push(off << 1 | (*t == ValType::V128) as u32);
        off += t.slot_width();
    }
    (map, off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::MemArg;

    #[test]
    fn heights_count_slots_not_values() {
        // v128.load ; local.set ; local.get ; local.get ; v128.and ; drop
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.func("f", vec![], vec![], |f| {
            let l = f.local(ValType::V128);
            f.emit_all([
                Instr::I32Const(0),
                Instr::V128Load(MemArg::default()),
                Instr::LocalSet(l),
                Instr::LocalGet(l),
                Instr::LocalGet(l),
                Instr::V128And,
                Instr::Drop,
            ]);
        });
        let module = b.finish();
        crate::validate::validate_module(&module).unwrap();
        let func = &module.functions[0];
        let info = analyze(&module, func);
        // Before V128And: two v128 operands -> 4 slots.
        let and_pc = func.body.iter().position(|i| *i == Instr::V128And).unwrap();
        assert_eq!(info.height[and_pc], 4);
        let drop_pc = func.body.iter().position(|i| *i == Instr::Drop).unwrap();
        assert!(info.wide[drop_pc], "dropped operand is v128");
        assert_eq!(info.height[drop_pc], 2);
    }

    #[test]
    fn local_map_packs_offsets_and_width() {
        let (map, n) = local_map(
            &[ValType::I32, ValType::V128],
            &[ValType::F64, ValType::V128],
        );
        assert_eq!(map, vec![0 << 1, 1 << 1 | 1, 3 << 1, 4 << 1 | 1]);
        assert_eq!(n, 6);
    }
}

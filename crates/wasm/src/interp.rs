//! The baseline execution tier: a structured-bytecode interpreter.
//!
//! This is the engine's Singlepass analog (paper Table 1): "compilation"
//! only scans the body once to match each `block`/`loop`/`if` with its
//! `else`/`end` (the widths the untyped slot stack needs come from
//! validation), and execution walks the structured instruction stream with
//! an explicit label stack. No optimization is performed.
//!
//! Operands and locals live in one per-instance slot arena shared by all
//! activation frames: a guest→guest call pushes a frame whose locals are a
//! window into the same buffer (the caller's outgoing arguments become the
//! callee's first locals in place), so calls allocate nothing.

use std::sync::Arc;

use crate::error::Trap;
use crate::exec;
use crate::instr::Instr;
use crate::module::{Function, Module};
use crate::runtime::{Instance, Slot};
use crate::tier::{Bodies, CompiledBody};
use crate::types::{local_map, slot_count, BlockType};

/// Per-function control-flow side table: for every structured instruction,
/// the indices of its matching `else` (if any) and `end`, plus the
/// slot-layout metadata the untyped execution engine needs (local slot
/// offsets and the width of `drop`/`select` operands).
#[derive(Debug, Clone, Default)]
pub struct SideTable {
    /// Indexed by instruction position; `None` for non-block instructions.
    entries: Vec<Option<BlockInfo>>,
    /// Per-pc: the operand of a `Drop`/`Select` at this pc is v128.
    wide: Box<[bool]>,
    /// Per local index: `slot_offset << 1 | is_v128`.
    local_map: Box<[u32]>,
    n_local_slots: u32,
    param_slots: u32,
    result_slots: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct BlockInfo {
    pub else_pc: Option<usize>,
    pub end_pc: usize,
}

impl SideTable {
    /// Build the side table: one linear scan for block matching; `wide`
    /// is what validation recorded for this function
    /// ([`crate::validate::WideOps::of`]).
    pub(crate) fn build(module: &Module, func: &Function, wide: &[u32]) -> SideTable {
        let body = &func.body;
        let mut entries = vec![None; body.len()];
        let mut open: Vec<usize> = Vec::new();
        for (pc, instr) in body.iter().enumerate() {
            match instr {
                i if i.opens_block() => {
                    entries[pc] = Some(BlockInfo { else_pc: None, end_pc: usize::MAX });
                    open.push(pc);
                }
                Instr::Else => {
                    let &opener = open.last().expect("validated: else without if");
                    if let Some(info) = entries[opener].as_mut() {
                        info.else_pc = Some(pc);
                    }
                    // Map the Else itself to the matching end (filled below)
                    // so fallthrough of a then-arm can jump directly there.
                    entries[pc] = Some(BlockInfo { else_pc: None, end_pc: usize::MAX });
                }
                Instr::End => {
                    if let Some(opener) = open.pop() {
                        let else_pc = entries[opener].as_mut().map(|info| {
                            info.end_pc = pc;
                            info.else_pc
                        });
                        if let Some(Some(else_pc)) = else_pc {
                            if let Some(info) = entries[else_pc].as_mut() {
                                info.end_pc = pc;
                            }
                        }
                    }
                    // The function-level end has no opener; nothing to record.
                }
                _ => {}
            }
        }
        let fty = &module.types[func.type_idx as usize];
        let (local_map, n_local_slots) = local_map(&fty.params, &func.locals);
        let mut wide_at = vec![false; body.len()].into_boxed_slice();
        for &pc in wide {
            wide_at[pc as usize] = true;
        }
        SideTable {
            entries,
            wide: wide_at,
            local_map: local_map.into_boxed_slice(),
            n_local_slots,
            param_slots: slot_count(&fty.params),
            result_slots: slot_count(&fty.results),
        }
    }

    #[inline]
    fn info(&self, pc: usize) -> BlockInfo {
        self.entries[pc].expect("validated: side table entry missing")
    }

    /// Approximate in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Option<BlockInfo>>()
            + self.wide.len()
            + self.local_map.len() * 4
    }
}

struct Label {
    /// Continuation pc for a branch to this label.
    cont: usize,
    /// Absolute slot-stack height at entry.
    height: usize,
    /// Slots carried by a branch (loop params for loops, results otherwise).
    br_arity: usize,
    is_loop: bool,
}

/// A suspended caller activation.
struct Frame {
    defined_idx: u32,
    /// pc to resume at (the instruction after the call).
    pc: usize,
    locals_base: usize,
    labels_base: usize,
}

/// Execute defined function `defined_idx` with `args` (already as slots).
/// The function's body must have been compiled for the baseline tier.
pub(crate) fn call(
    inst: &mut Instance,
    defined_idx: usize,
    args: &[Slot],
) -> Result<Vec<Slot>, Trap> {
    let mut stack = inst.take_stack();
    stack.extend_from_slice(args);
    let result = run(inst, &mut stack, defined_idx);
    let out = result.map(|result_slots| {
        let at = stack.len() - result_slots;
        stack.split_off(at)
    });
    inst.put_stack(stack);
    out
}

/// Defined function `defined_idx` and its side table, built by this call
/// if it is the first to reach the function.
fn resolve<'a>(
    module: &'a Module,
    bodies: &'a Bodies,
    defined_idx: usize,
) -> Result<(&'a Function, &'a SideTable), Trap> {
    let func = &module.functions[defined_idx];
    match bodies.body(defined_idx)? {
        CompiledBody::Interp(side) => Ok((func, side)),
        CompiledBody::Flat(_) => unreachable!("baseline tier expected"),
    }
}

fn run(inst: &mut Instance, stack: &mut Vec<Slot>, defined_idx: usize) -> Result<usize, Trap> {
    // Clone the Arc handles so we can keep borrowing `inst` mutably.
    let module = Arc::clone(&inst.module);
    let bodies = Arc::clone(&inst.bodies);
    let hosts = Arc::clone(&inst.host_funcs);
    let imported = hosts.len() as u32;

    let mut frames: Vec<Frame> = Vec::new();
    let mut labels: Vec<Label> = Vec::with_capacity(8);

    let (func, mut side) = resolve(&module, &bodies, defined_idx)?;
    // Hot-loop state, re-hoisted on every frame switch so the dispatch
    // loop reads straight from slices instead of chasing references.
    let mut body: &[Instr] = &func.body;
    let mut map: &[u32] = &side.local_map;
    let mut cur_idx = defined_idx as u32;
    let mut locals_base = stack.len() - side.param_slots as usize;
    stack.resize(locals_base + side.n_local_slots as usize, Slot::ZERO);
    let mut labels_base = 0usize;
    let mut pc = 0usize;
    let mut limit_check = 0u32;

    macro_rules! do_return {
        () => {{
            let result_slots = side.result_slots as usize;
            let at = stack.len() - result_slots;
            stack.copy_within(at.., locals_base);
            stack.truncate(locals_base + result_slots);
            labels.truncate(labels_base);
            match frames.pop() {
                None => return Ok(result_slots),
                Some(fr) => {
                    cur_idx = fr.defined_idx;
                    let (f, s) = resolve(&module, &bodies, fr.defined_idx as usize)?;
                    body = &f.body;
                    map = &s.local_map;
                    side = s;
                    locals_base = fr.locals_base;
                    labels_base = fr.labels_base;
                    pc = fr.pc;
                    continue;
                }
            }
        }};
    }

    macro_rules! do_call {
        ($func_idx:expr) => {{
            let func_idx: u32 = $func_idx;
            if frames.len() + inst.depth + 1 >= inst.limits.max_call_depth {
                return Err(Trap::StackExhausted);
            }
            if func_idx < imported {
                let n_args = inst.host_arg_slots[func_idx as usize] as usize;
                let at = stack.len() - n_args;
                inst.depth += 1;
                let results = hosts[func_idx as usize](inst, &stack[at..]);
                inst.depth -= 1;
                let results = results?;
                stack.truncate(at);
                stack.extend_from_slice(&results);
            } else {
                let defined = (func_idx - imported) as usize;
                frames.push(Frame {
                    defined_idx: cur_idx,
                    pc: pc + 1,
                    locals_base,
                    labels_base,
                });
                let (f, s) = resolve(&module, &bodies, defined)?;
                body = &f.body;
                map = &s.local_map;
                side = s;
                cur_idx = defined as u32;
                locals_base = stack.len() - side.param_slots as usize;
                stack.resize(locals_base + side.n_local_slots as usize, Slot::ZERO);
                labels_base = labels.len();
                pc = 0;
                continue;
            }
        }};
    }

    loop {
        // Amortized stack-limit check: growth per instruction is O(1).
        // The same epoch doubles as the baseline tier's fuel/interrupt
        // guard point, so the hot path pays nothing new for limits.
        limit_check += 1;
        if limit_check >= 1024 {
            limit_check = 0;
            if stack.len() > inst.limits.max_value_stack {
                return Err(Trap::StackExhausted);
            }
            inst.fuel_step(1024)?;
        }
        let instr = &body[pc];
        match instr {
            Instr::Nop => {}
            Instr::Unreachable => return Err(Trap::Unreachable),
            Instr::Block(bt) => {
                let info = side.info(pc);
                labels.push(Label {
                    cont: info.end_pc + 1,
                    // The label height excludes block params (they are
                    // "passed into" the block); branch values land there.
                    height: stack.len() - param_arity(&module, bt),
                    br_arity: block_arity(&module, bt),
                    is_loop: false,
                });
            }
            Instr::Loop(bt) => {
                labels.push(Label {
                    cont: pc + 1,
                    height: stack.len() - param_arity(&module, bt),
                    br_arity: loop_arity(&module, bt),
                    is_loop: true,
                });
            }
            Instr::If(bt) => {
                let cond = exec::pop(stack).i32();
                let info = side.info(pc);
                labels.push(Label {
                    cont: info.end_pc + 1,
                    height: stack.len() - param_arity(&module, bt),
                    br_arity: block_arity(&module, bt),
                    is_loop: false,
                });
                if cond == 0 {
                    // Jump into the else arm, or to the End (which pops the
                    // label) when there is none.
                    pc = match info.else_pc {
                        Some(e) => e,
                        None => info.end_pc - 1, // step below advances onto End
                    };
                }
            }
            Instr::Else => {
                // Fallthrough from a then-arm: skip to the matching End,
                // which pops the label and carries the results.
                pc = side.info(pc).end_pc - 1;
            }
            Instr::End => {
                if labels.len() > labels_base {
                    labels.pop();
                } else {
                    // Function-level end: return to the caller (or out).
                    do_return!();
                }
            }
            Instr::Br(depth) => {
                match branch(stack, &mut labels, labels_base, *depth as usize) {
                    Some(target) => {
                        pc = target;
                        continue;
                    }
                    None => do_return!(),
                }
            }
            Instr::BrIf(depth) => {
                let cond = exec::pop(stack).i32();
                if cond != 0 {
                    match branch(stack, &mut labels, labels_base, *depth as usize) {
                        Some(target) => {
                            pc = target;
                            continue;
                        }
                        None => do_return!(),
                    }
                }
            }
            Instr::BrTable(table) => {
                let idx = exec::pop(stack).u32() as usize;
                let depth = *table.targets.get(idx).unwrap_or(&table.default) as usize;
                match branch(stack, &mut labels, labels_base, depth) {
                    Some(target) => {
                        pc = target;
                        continue;
                    }
                    None => do_return!(),
                }
            }
            Instr::Return => do_return!(),
            Instr::Call(f) => do_call!(*f),
            Instr::CallIndirect { type_idx, .. } => {
                let slot = exec::pop(stack).u32();
                let func_idx = inst.resolve_indirect(slot, *type_idx)?;
                do_call!(func_idx)
            }
            Instr::Drop => {
                exec::pop(stack);
                if side.wide[pc] {
                    exec::pop(stack);
                }
            }
            Instr::Select => {
                let c = exec::pop(stack).i32();
                if side.wide[pc] {
                    let b = exec::pop_v128(stack);
                    let a = exec::pop_v128(stack);
                    exec::push_v128(stack, if c != 0 { a } else { b });
                } else {
                    let b = exec::pop(stack);
                    let a = exec::pop(stack);
                    stack.push(if c != 0 { a } else { b });
                }
            }
            other => exec::step(inst, stack, locals_base, map, other)?,
        }
        pc += 1;
    }
}

fn block_arity(module: &Module, bt: &BlockType) -> usize {
    match bt {
        BlockType::Empty => 0,
        BlockType::Value(t) => t.slot_width() as usize,
        BlockType::Func(idx) => {
            slot_count(&module.types[*idx as usize].results) as usize
        }
    }
}

/// Branches to a loop label carry the loop's parameters.
fn loop_arity(module: &Module, bt: &BlockType) -> usize {
    match bt {
        BlockType::Empty | BlockType::Value(_) => 0,
        BlockType::Func(idx) => {
            slot_count(&module.types[*idx as usize].params) as usize
        }
    }
}

/// Slots a block's parameters occupy (already on the stack at entry).
fn param_arity(module: &Module, bt: &BlockType) -> usize {
    loop_arity(module, bt)
}

/// Perform a branch to `depth` within the current frame's labels. Returns
/// the new pc, or `None` to signal a function-level return (branch past
/// the outermost label).
fn branch(
    stack: &mut Vec<Slot>,
    labels: &mut Vec<Label>,
    labels_base: usize,
    depth: usize,
) -> Option<usize> {
    let in_frame = labels.len() - labels_base;
    if depth >= in_frame {
        // Branch targeting the function frame: a return.
        return None;
    }
    let idx = labels.len() - 1 - depth;
    let (cont, height, arity, is_loop) = {
        let l = &labels[idx];
        (l.cont, l.height, l.br_arity, l.is_loop)
    };
    // Carry the branch values over the unwound stack region, in place.
    if arity == 0 {
        stack.truncate(height);
    } else {
        let from = stack.len() - arity;
        if from != height {
            stack.copy_within(from.., height);
        }
        stack.truncate(height + arity);
    }
    if is_loop {
        labels.truncate(idx + 1);
    } else {
        labels.truncate(idx);
    }
    Some(cont)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType;

    #[test]
    fn side_table_matches_nested_blocks() {
        use Instr::*;
        // block ; loop ; if ; else ; end ; end ; end ; END(func)
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.func("f", vec![], vec![], |f| {
            f.emit_all([
                Block(BlockType::Empty),   // 0
                Loop(BlockType::Empty),    // 1
                I32Const(0),               // 2
                If(BlockType::Empty),      // 3
                Nop,                       // 4
                Else,                      // 5
                Nop,                       // 6
                End,                       // 7 closes if
                End,                       // 8 closes loop
                End,                       // 9 closes block
            ]);
        });
        let module = b.finish();
        let t = SideTable::build(&module, &module.functions[0], &[]);
        let blk = t.info(0);
        assert_eq!(blk.end_pc, 9);
        assert_eq!(blk.else_pc, None);
        let lp = t.info(1);
        assert_eq!(lp.end_pc, 8);
        let iff = t.info(3);
        assert_eq!(iff.end_pc, 7);
        assert_eq!(iff.else_pc, Some(5));
        // Else maps to the same end.
        assert_eq!(t.info(5).end_pc, 7);
    }

    #[test]
    fn param_carrying_loop_branches_correctly() {
        // A `loop (param i32) (result i32)` whose backedge carries the
        // value: label height must exclude the param slot already on the
        // stack, or the carry corrupts the operand stack. Counts x up
        // until >= 10 across every tier.
        use crate::runtime::{CompiledModule, Linker, Value};
        use crate::tier::Tier;
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let loop_ty = b.type_idx(crate::types::FuncType::new(
            vec![ValType::I32],
            vec![ValType::I32],
        ));
        b.func("count", vec![ValType::I32], vec![ValType::I32], |f| {
            f.emit_all([
                Instr::LocalGet(0),
                Instr::Loop(BlockType::Func(loop_ty)),
                Instr::I32Const(1),
                Instr::I32Add,
                Instr::LocalTee(0),
                Instr::LocalGet(0),
                Instr::I32Const(10),
                Instr::I32LtS,
                Instr::BrIf(0),
                Instr::End,
            ]);
        });
        let module = b.finish();
        crate::validate::validate_module(&module).unwrap();
        for tier in Tier::ALL {
            let compiled = CompiledModule::compile(module.clone(), tier).unwrap();
            let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
            let out = inst.invoke("count", &[Value::I32(0)]).unwrap();
            assert_eq!(out, vec![Value::I32(10)], "tier {tier}");
        }
    }

    #[test]
    fn side_table_records_slot_layout() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.func("f", vec![ValType::I32, ValType::F64], vec![ValType::I32], |f| {
            let v = f.local(ValType::V128);
            let _ = v;
            f.local_get(0);
        });
        let module = b.finish();
        let t = SideTable::build(&module, &module.functions[0], &[]);
        assert_eq!(t.param_slots, 2);
        assert_eq!(t.result_slots, 1);
        assert_eq!(t.n_local_slots, 4); // i32 + f64 + v128(2)
        assert_eq!(t.local_map[0], 0 << 1);
        assert_eq!(t.local_map[1], 1 << 1);
        assert_eq!(t.local_map[2], 2 << 1 | 1);
    }
}

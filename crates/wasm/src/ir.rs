//! The flat tiers' front end: one walk from a validated structured body
//! to the register form.
//!
//! [`compile`] resolves all structured control flow (`block`/`loop`/`if`)
//! into direct jumps with precomputed stack-unwind copies, eliminating the
//! label-stack bookkeeping of the baseline interpreter, and emits each
//! instruction straight as a [`RegOp`]: validation makes the operand-stack
//! height at every instruction static, so the walk's running slot count
//! *is* the register assignment (see [`crate::regalloc`]). The walk keeps
//! no operand types: the slot count after an instruction follows from the
//! instruction alone, except after `drop` and `select`, whose v128 cases
//! validation hands over ([`crate::validate::WideOps`]). The flat tiers
//! never walk a function body twice and no intermediate form exists between
//! the body and the stream the register pipeline ([`regalloc::optimize`])
//! rewrites — which is what the engine executes and what the module cache
//! stores.

use crate::error::Trap;
use crate::instr::{BrTable, Instr};
use crate::module::{Function, Module};
use crate::regalloc::{self, pack_unwind, rop, BrDest, Rc, RegFunc, RegOp};
use crate::runtime::{Instance, Slot};
use crate::tier::Tier;
use crate::types::{local_map, slot_count, BlockType, FuncType};

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
    /// Slots of the block's parameters (what `else` starts from, what a
    /// branch to a loop carries) and of its results (what `end` leaves,
    /// what any other branch carries).
    params: u32,
    results: u32,
    /// Start ip for loops (branch target).
    loop_start: Option<u32>,
    /// Forward jumps and branches (op indices) to patch to this frame's
    /// end, the then-arm's skip over `else` among them.
    patches: Vec<usize>,
    /// `br_table` destinations (dest-pool indices) to patch likewise.
    table_patches: Vec<usize>,
    /// `BrIfZ` emitted at `if`, patched at `else`/`end`.
    if_patch: Option<usize>,
}

impl Ctrl {
    fn br_arity(&self) -> u32 {
        if self.loop_start.is_some() { self.params } else { self.results }
    }
}

/// Slots of a block type's parameters and results.
fn block_slots(module: &Module, bt: &BlockType) -> (u32, u32) {
    match bt {
        BlockType::Empty => (0, 0),
        BlockType::Value(t) => (0, t.slot_width()),
        BlockType::Func(idx) => {
            let t = &module.types[*idx as usize];
            (slot_count(&t.params), slot_count(&t.results))
        }
    }
}

/// Operand-stack height after the straight-line op `lower_plain` made of an
/// instruction entered at height `h` — the one place that knows how many
/// slots such an instruction pops and pushes. `lower_plain` reads a window
/// of temps that ends at the stack top and writes the result, if any, at
/// the window's bottom (at `h` when it reads nothing).
fn height_after(op: &RegOp, base: u32, h: u32) -> u32 {
    match regalloc::writes(op) {
        Some((c, width)) if c >= base => c - base + width,
        // Stores and `local.set`: the lowest temp read is the new top.
        _ => regalloc::fields(op)
            .into_iter()
            .filter(|&(reg, used)| used != 0 && reg >= base)
            .map(|(reg, _)| reg - base)
            .min()
            .unwrap_or(h),
    }
}

const TRAP: RegOp = rop(Rc::Unreachable, 0, 0, 0, 0, 0);
const NOP: RegOp = rop(Rc::Nop, 0, 0, 0, 0, 0);

/// Compile one validated function body for a flat tier: translate it to
/// register form in a single walk, then run the register pipeline (where
/// all optimization happens). `wide` is what validation recorded for this
/// function ([`crate::validate::WideOps::of`]). `Err` is a body outside the
/// register encoding's range (frame or branch unwind too large) — a compile
/// error, never a panic.
pub(crate) fn compile(
    module: &Module,
    func: &Function,
    wide: &[u32],
    tier: Tier,
) -> Result<RegFunc, String> {
    let fty = &module.types[func.type_idx as usize];
    let (local_map, n_local_slots) = local_map(&fty.params, &func.locals);
    let result_slots = slot_count(&fty.results);
    let imported = module.num_imported_funcs() as u32;
    // Register of the stack temp at height `x`.
    let r = |x: u32| n_local_slots + x;
    // Slots of the operand a `drop`/`select` at `pc` takes: the one slot
    // effect that is the operand's type, so validation recorded it.
    let operand_slots = |pc: usize| 1 + wide.binary_search(&(pc as u32)).is_ok() as u32;

    let mut code: Vec<RegOp> = Vec::with_capacity(func.body.len());
    // Entry height of each op, index-aligned with `code`: the liveness
    // oracle of every later pass (at an op entered at height `h`, every
    // register `>= n_local_slots + h` is dead).
    let mut hs: Vec<u32> = Vec::with_capacity(func.body.len());
    let mut dest_pool: Vec<BrDest> = Vec::new();
    let mut v128_pool: Vec<u128> = Vec::new();
    let mut max_h: u32 = 0;
    // The running operand-stack height in slots.
    let mut slots: u32 = 0;
    let mut ctrl: Vec<Ctrl> = vec![Ctrl {
        height: 0,
        params: 0,
        results: result_slots,
        loop_start: None,
        patches: Vec::new(),
        table_patches: Vec::new(),
        if_patch: None,
    }];
    // When `Some(n)`, code is statically dead; n counts nested blocks opened
    // inside the dead region.
    let mut dead: Option<u32> = None;
    // Whether any path reaches the next op: false from an unconditional
    // transfer until a label some reached branch targets.
    let mut live = true;

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

    for (pc, instr) in func.body.iter().enumerate() {
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
                let (params, results) = block_slots(module, bt);
                // Branch heights exclude the condition and the block's params.
                let height = h - is_if as u32 - params;
                slots = height + params;
                ctrl.push(Ctrl {
                    height,
                    params,
                    results,
                    loop_start: matches!(instr, Instr::Loop(_)).then_some(code.len() as u32),
                    patches: Vec::new(),
                    table_patches: Vec::new(),
                    if_patch: (is_if && live).then_some(code.len()),
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
                slots = frame.height + frame.params;
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
                slots = frame.height + frame.results;
                if ctrl.is_empty() {
                    // Function-level end; nothing may follow.
                    emit!(slots, rop(Rc::Return, r(slots - result_slots), 0, 0, 0, 0));
                    break;
                }
            }
            Instr::Br(depth) | Instr::BrIf(depth) => {
                let conditional = matches!(instr, Instr::BrIf(_));
                // Height the branch is taken at (condition popped).
                let ph = h - conditional as u32;
                slots = ph;
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
                    let (arity, to) = (frame.br_arity(), frame.height);
                    emit!(h, rop(rc, cond, 0, target, 0, pack_unwind(r(ph - arity), r(to), arity)?));
                }
                if !conditional {
                    dead = Some(0);
                    live = false;
                }
            }
            Instr::BrTable(table) => {
                let BrTable { targets, default } = &**table;
                let ph = h - 1; // index popped
                let start = dest_pool.len() as u32;
                // A destination in the function frame unwinds to height 0
                // carrying the results and lands on the trailing `Return`
                // the function-level `End` appends.
                if live {
                    for depth in targets.iter().chain([default]) {
                        let idx = ctrl.len() - 1 - *depth as usize;
                        let frame = &mut ctrl[idx];
                        let (arity, to) = (frame.br_arity(), frame.height);
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
                slots = h - operand_slots(pc);
                emit!(h, NOP);
            }
            Instr::Select => {
                let w = operand_slots(pc);
                slots = h - 1 - w; // condition and one operand
                emit!(h, if w == 2 {
                    rop(Rc::Select2, r(h - 5), r(h - 3), r(h - 1), 0, 0)
                } else {
                    rop(Rc::Select, r(h - 3), r(h - 2), r(h - 1), 0, 0)
                });
            }
            plain => {
                let (base, pool) = (n_local_slots, &mut v128_pool);
                let op = regalloc::lower_plain(plain, module, h, base, imported, &local_map, pool);
                let call = |popped: u32, ty: &FuncType| {
                    h - popped - slot_count(&ty.params) + slot_count(&ty.results)
                };
                slots = match plain {
                    // Writes a local like `local.set`, pops nothing.
                    Instr::LocalTee(_) => h,
                    Instr::Call(f) => call(0, module.func_type(*f).expect("validated")),
                    Instr::CallIndirect { type_idx, .. } => {
                        call(1, &module.types[*type_idx as usize])
                    }
                    _ => height_after(&op, base, h),
                };
                emit!(h, op);
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
        param_slots: slot_count(&fty.params),
        result_slots,
    };
    regalloc::optimize(module, rf, hs, tier)
}

// --- execution ---

/// Execute flat-IR function `defined_idx` with `args` (already as slots),
/// through its step program ([`crate::dispatch::run`]).
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

//! The register-stream verifier: what the executors may assume.

use crate::module::Module;

use super::shape::{dests, fields, width, Flow};
use super::{unwind_parts, Rc, RegFunc};

/// Everything the two executors assume of a register stream, compiled or
/// read back from a cache artifact: every register operand within
/// `frame_size`, every branch target and pool reference in range, every
/// unwind copy in-frame, every `aux` byte one its handler decodes, and no
/// way to run off the end. Calls and globals are checked against the
/// module's static tables; the remaining dynamic quantities (memory
/// bounds, table contents) are checked by the handlers at run time.
pub(super) fn verify(f: &RegFunc, module: &Module) -> Result<(), String> {
    let fs = f.frame_size;
    let len = f.code.len() as u32;
    let err = |i: usize, what: &str| Err(format!("regalloc verify: op {i}: {what}"));
    if f.n_local_slots > fs || f.param_slots + f.scratch_slots > f.n_local_slots {
        return Err("regalloc verify: inconsistent frame layout".into());
    }
    if f.code.last().is_none_or(|op| op.code.row().flow.falls_through()) {
        return Err("regalloc verify: control can run off the end".into());
    }
    let imported = module.num_imported_funcs() as u32;
    for (i, op) in f.code.iter().enumerate() {
        if op.code.chain_only() {
            return err(i, "chain-only opcode");
        }
        let row = op.code.row();
        for (reg, u) in fields(op) {
            if u != 0 && reg.checked_add(width(u)).is_none_or(|end| end > fs) {
                return err(i, "register out of frame");
            }
        }
        if op.aux > row.aux {
            return err(i, "aux byte out of range");
        }
        match row.flow {
            Flow::Table => {
                let start = op.b as usize;
                let end = start
                    .checked_add(op.c as usize)
                    .and_then(|e| e.checked_add(1))
                    .ok_or("regalloc verify: dest pool overflow")?;
                if end > f.dest_pool.len() {
                    return Err("regalloc verify: dest pool range out of bounds".into());
                }
            }
            Flow::Return if op.a.checked_add(f.result_slots).is_none_or(|end| end > fs) => {
                return err(i, "return source out of frame");
            }
            Flow::Call => {
                let in_range = match op.code {
                    Rc::CallGuest => (op.a as usize) < module.functions.len(),
                    Rc::CallHost => op.a < imported,
                    _ => (op.a as usize) < module.types.len(),
                };
                if !in_range {
                    return err(i, "call target out of range");
                }
                if op.b > fs {
                    return err(i, "call arg base out of frame");
                }
            }
            _ => {}
        }
        match op.code {
            Rc::GlobalGet | Rc::GlobalSet if op.a as usize >= module.globals.len() => {
                return err(i, "global index out of range");
            }
            Rc::V128Const if op.a as usize >= f.v128_pool.len() => {
                return err(i, "v128 pool index out of range");
            }
            _ => {}
        }
        for d in dests(f, op) {
            if d.target >= len {
                return err(i, "branch target out of range");
            }
            let (src, dst, arity) = unwind_parts(d.unwind);
            if src + arity > fs as usize || dst + arity > fs as usize {
                return err(i, "unwind copy out of frame");
            }
        }
    }
    Ok(())
}

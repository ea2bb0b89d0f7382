//! Translation of one straight-line instruction to its register op: its
//! row of the instruction table, [`crate::instr::for_each_instr!`], names
//! the op's shape, code and `aux`.

use crate::instr::{for_each_instr, instr_pat, Instr};
use crate::ir::Cmp;
use crate::module::Module;
use crate::types::slot_count;

use super::{rop, Rc, RegOp, FEQ, FGE, FGT, FLE, FLT, FNE};

/// Translate one straight-line instruction of a validated body entered at
/// height `h` (`base` = register of the stack temp at height 0). `nop`,
/// `drop` and `select` are the walk's: they need no operand, or the width
/// validation recorded.
pub(crate) fn lower_plain(
    instr: &Instr,
    module: &Module,
    h: u32,
    base: u32,
    imported: u32,
    local_map: &[u32],
    v128_pool: &mut Vec<u128>,
) -> RegOp {
    use Instr as I;
    let r = |x: u32| base + x;
    // A local's first register, and the copy that moves it (`Copy2` for
    // a v128).
    let slot = |i: u32| local_map[i as usize] >> 1;
    let copy = |i: u32| if local_map[i as usize] & 1 != 0 { (Rc::Copy2, 2) } else { (Rc::Copy, 1) };
    // One arm per row of the instruction table that has a lowering: the
    // row's shape, expanded below, applied to its `Rc` code, its `aux` and
    // what its immediate becomes in `imm`. Calls and variables are written
    // here.
    macro_rules! lower {
        // The prefix groups' rows are rows like any other here.
        ({ $($rows:tt)* } $($prefix:literal { $($more:tt)* })*) => {
            lower!($($rows)* $($($more)*)*)
        };
        ($($name:ident $op:literal $imm:ident
            $(($($sig:tt)*) ($shape:ident $rc:ident $($aux:tt)*))?;)*) => {
            match instr {
                I::LocalGet(x) => rop(copy(*x).0, slot(*x), 0, r(h), 0, 0),
                I::LocalSet(x) | I::LocalTee(x) => {
                    let (rc, width) = copy(*x);
                    rop(rc, r(h - width), 0, slot(*x), 0, 0)
                }
                I::GlobalGet(g) => rop(Rc::GlobalGet, *g, 0, r(h), 0, 0),
                I::GlobalSet(g) => rop(Rc::GlobalSet, *g, r(h - 1), 0, 0, 0),
                I::Call(f) => {
                    let ty = module.func_type(*f).expect("validated");
                    let arg_base = r(h - slot_count(&ty.params));
                    if *f < imported {
                        rop(Rc::CallHost, *f, arg_base, 0, 0, 0)
                    } else {
                        rop(Rc::CallGuest, *f - imported, arg_base, 0, 0, 0)
                    }
                }
                I::CallIndirect { type_idx, .. } => {
                    let p = slot_count(&module.types[*type_idx as usize].params);
                    rop(Rc::CallIndirect, *type_idx, r(h - 1 - p), r(h - 1), 0, 0)
                }
                $($(
                    instr_pat!($name, $imm, x, _) => {
                        let (a, b, c, imm) = shape!($shape, imm!($imm, x));
                        rop(Rc::$rc, a, b, c, aux!(x, $($aux)*), imm)
                    }
                )?)*
                other => unreachable!("{other:?} is not a straight-line instruction"),
            }
        };
    }
    // The `aux` byte: none, a comparison code, or the lane immediate
    // (validated below the lane count).
    macro_rules! aux {
        ($x:ident,) => { 0 };
        ($x:ident, lane) => { *$x };
        ($x:ident, $code:expr) => { $code as u8 };
    }
    // What the immediate becomes in the op's `imm`: a memarg's offset, a
    // constant's bits, a v128 constant's index in the function's pool.
    macro_rules! imm {
        (memarg, $x:ident) => { $x.offset as u64 };
        (i32, $x:ident) => { *$x as u32 as u64 };
        (i64, $x:ident) => { *$x as u64 };
        (f32, $x:ident) => { $x.to_bits() as u64 };
        (f64, $x:ident) => { $x.to_bits() };
        (v128, $x:ident) => {{
            v128_pool.push(u128::from_le_bytes(**$x));
            v128_pool.len() as u64 - 1
        }};
        ($other:ident, $x:ident) => { 0 };
    }
    // The shapes: an op's `a`, `b`, `c` — which stack temps it reads and
    // writes, a v128 spanning two — and its `imm`.
    macro_rules! shape {
        (un, $imm:expr) => { (r(h - 1), 0, r(h - 1), $imm) };
        (bin, $imm:expr) => { (r(h - 2), r(h - 1), r(h - 2), $imm) };
        (tri, $imm:expr) => { (r(h - 3), r(h - 2), r(h - 1), $imm) };
        (put, $imm:expr) => { (0, 0, r(h), $imm) };
        (nop, $imm:expr) => { (0, 0, 0, $imm) };
        (st, $imm:expr) => { (r(h - 2), r(h - 1), 0, $imm) };
        (vst, $imm:expr) => { (r(h - 3), r(h - 2), 0, $imm) };
        (vput, $imm:expr) => { ($imm as u32, 0, r(h), 0) };
        (vun, $imm:expr) => { (r(h - 2), 0, r(h - 2), $imm) };
        (vbin, $imm:expr) => { (r(h - 4), r(h - 2), r(h - 4), $imm) };
        (vrep, $imm:expr) => { (r(h - 3), r(h - 1), r(h - 3), $imm) };
    }
    for_each_instr!(lower)
}

//! Translation of one straight-line instruction to its register op.

use crate::instr::Instr;
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
    // Shape helpers.
    macro_rules! bin {
        ($rc:expr) => {
            rop($rc, r(h - 2), r(h - 1), r(h - 2), 0, 0)
        };
    }
    macro_rules! cmp {
        ($rc:expr, $code:expr) => {
            rop($rc, r(h - 2), r(h - 1), r(h - 2), $code, 0)
        };
    }
    macro_rules! un {
        ($rc:expr) => {
            rop($rc, r(h - 1), 0, r(h - 1), 0, 0)
        };
    }
    macro_rules! ld {
        ($rc:expr, $m:expr) => {
            rop($rc, r(h - 1), 0, r(h - 1), 0, $m.offset as u64)
        };
    }
    macro_rules! st {
        ($rc:expr, $m:expr) => {
            rop($rc, r(h - 2), r(h - 1), 0, 0, $m.offset as u64)
        };
    }
    macro_rules! cst {
        ($bits:expr) => {
            rop(Rc::Const, 0, 0, r(h), 0, $bits)
        };
    }
    macro_rules! vbin {
        ($rc:expr) => {
            rop($rc, r(h - 4), r(h - 2), r(h - 4), 0, 0)
        };
    }
    macro_rules! vcmp {
        ($code:expr) => {
            rop(Rc::CmpF64x2, r(h - 4), r(h - 2), r(h - 4), $code, 0)
        };
    }

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

        // Memory.
        I::I32Load(m) | I::F32Load(m) => ld!(Rc::Load32, m),
        I::I64Load(m) | I::F64Load(m) => ld!(Rc::Load64, m),
        I::I32Load8S(m) => ld!(Rc::Load8S32, m),
        I::I32Load8U(m) => ld!(Rc::Load8U32, m),
        I::I32Load16S(m) => ld!(Rc::Load16S32, m),
        I::I32Load16U(m) => ld!(Rc::Load16U32, m),
        I::I64Load8S(m) => ld!(Rc::Load8S64, m),
        I::I64Load8U(m) => ld!(Rc::Load8U64, m),
        I::I64Load16S(m) => ld!(Rc::Load16S64, m),
        I::I64Load16U(m) => ld!(Rc::Load16U64, m),
        I::I64Load32S(m) => ld!(Rc::Load32S64, m),
        I::I64Load32U(m) => ld!(Rc::Load32U64, m),
        I::V128Load(m) => rop(Rc::V128Load, r(h - 1), 0, r(h - 1), 0, m.offset as u64),
        I::I32Store(m) | I::F32Store(m) | I::I64Store32(m) => st!(Rc::Store32, m),
        I::I64Store(m) | I::F64Store(m) => st!(Rc::Store64, m),
        I::I32Store8(m) | I::I64Store8(m) => st!(Rc::Store8, m),
        I::I32Store16(m) | I::I64Store16(m) => st!(Rc::Store16, m),
        I::V128Store(m) => rop(Rc::V128Store, r(h - 3), r(h - 2), 0, 0, m.offset as u64),
        I::MemorySize => rop(Rc::MemSize, 0, 0, r(h), 0, 0),
        I::MemoryGrow => un!(Rc::MemGrow),
        I::MemoryCopy => rop(Rc::MemCopy, r(h - 3), r(h - 2), r(h - 1), 0, 0),
        I::MemoryFill => rop(Rc::MemFill, r(h - 3), r(h - 2), r(h - 1), 0, 0),

        // Constants.
        I::I32Const(v) => cst!(*v as u32 as u64),
        I::I64Const(v) => cst!(*v as u64),
        I::F32Const(v) => cst!(v.to_bits() as u64),
        I::F64Const(v) => cst!(v.to_bits()),
        I::V128Const(bytes) => {
            let idx = v128_pool.len() as u32;
            v128_pool.push(u128::from_le_bytes(**bytes));
            rop(Rc::V128Const, idx, 0, r(h), 0, 0)
        }

        // i32.
        I::I32Eqz => un!(Rc::Eqz32),
        I::I32Eq => cmp!(Rc::Cmp32, Cmp::Eq as u8),
        I::I32Ne => cmp!(Rc::Cmp32, Cmp::Ne as u8),
        I::I32LtS => cmp!(Rc::Cmp32, Cmp::LtS as u8),
        I::I32LtU => cmp!(Rc::Cmp32, Cmp::LtU as u8),
        I::I32GtS => cmp!(Rc::Cmp32, Cmp::GtS as u8),
        I::I32GtU => cmp!(Rc::Cmp32, Cmp::GtU as u8),
        I::I32LeS => cmp!(Rc::Cmp32, Cmp::LeS as u8),
        I::I32LeU => cmp!(Rc::Cmp32, Cmp::LeU as u8),
        I::I32GeS => cmp!(Rc::Cmp32, Cmp::GeS as u8),
        I::I32GeU => cmp!(Rc::Cmp32, Cmp::GeU as u8),
        I::I32Clz => un!(Rc::Clz32),
        I::I32Ctz => un!(Rc::Ctz32),
        I::I32Popcnt => un!(Rc::Popcnt32),
        I::I32Add => bin!(Rc::Add32),
        I::I32Sub => bin!(Rc::Sub32),
        I::I32Mul => bin!(Rc::Mul32),
        I::I32DivS => bin!(Rc::DivS32),
        I::I32DivU => bin!(Rc::DivU32),
        I::I32RemS => bin!(Rc::RemS32),
        I::I32RemU => bin!(Rc::RemU32),
        I::I32And => bin!(Rc::And32),
        I::I32Or => bin!(Rc::Or32),
        I::I32Xor => bin!(Rc::Xor32),
        I::I32Shl => bin!(Rc::Shl32),
        I::I32ShrS => bin!(Rc::ShrS32),
        I::I32ShrU => bin!(Rc::ShrU32),
        I::I32Rotl => bin!(Rc::Rotl32),
        I::I32Rotr => bin!(Rc::Rotr32),

        // i64.
        I::I64Eqz => un!(Rc::Eqz64),
        I::I64Eq => cmp!(Rc::Cmp64, Cmp::Eq as u8),
        I::I64Ne => cmp!(Rc::Cmp64, Cmp::Ne as u8),
        I::I64LtS => cmp!(Rc::Cmp64, Cmp::LtS as u8),
        I::I64LtU => cmp!(Rc::Cmp64, Cmp::LtU as u8),
        I::I64GtS => cmp!(Rc::Cmp64, Cmp::GtS as u8),
        I::I64GtU => cmp!(Rc::Cmp64, Cmp::GtU as u8),
        I::I64LeS => cmp!(Rc::Cmp64, Cmp::LeS as u8),
        I::I64LeU => cmp!(Rc::Cmp64, Cmp::LeU as u8),
        I::I64GeS => cmp!(Rc::Cmp64, Cmp::GeS as u8),
        I::I64GeU => cmp!(Rc::Cmp64, Cmp::GeU as u8),
        I::I64Clz => un!(Rc::Clz64),
        I::I64Ctz => un!(Rc::Ctz64),
        I::I64Popcnt => un!(Rc::Popcnt64),
        I::I64Add => bin!(Rc::Add64),
        I::I64Sub => bin!(Rc::Sub64),
        I::I64Mul => bin!(Rc::Mul64),
        I::I64DivS => bin!(Rc::DivS64),
        I::I64DivU => bin!(Rc::DivU64),
        I::I64RemS => bin!(Rc::RemS64),
        I::I64RemU => bin!(Rc::RemU64),
        I::I64And => bin!(Rc::And64),
        I::I64Or => bin!(Rc::Or64),
        I::I64Xor => bin!(Rc::Xor64),
        I::I64Shl => bin!(Rc::Shl64),
        I::I64ShrS => bin!(Rc::ShrS64),
        I::I64ShrU => bin!(Rc::ShrU64),
        I::I64Rotl => bin!(Rc::Rotl64),
        I::I64Rotr => bin!(Rc::Rotr64),

        // f32.
        I::F32Eq => cmp!(Rc::CmpF32, FEQ),
        I::F32Ne => cmp!(Rc::CmpF32, FNE),
        I::F32Lt => cmp!(Rc::CmpF32, FLT),
        I::F32Gt => cmp!(Rc::CmpF32, FGT),
        I::F32Le => cmp!(Rc::CmpF32, FLE),
        I::F32Ge => cmp!(Rc::CmpF32, FGE),
        I::F32Abs => un!(Rc::AbsF32),
        I::F32Neg => un!(Rc::NegF32),
        I::F32Ceil => un!(Rc::CeilF32),
        I::F32Floor => un!(Rc::FloorF32),
        I::F32Trunc => un!(Rc::TruncF32),
        I::F32Nearest => un!(Rc::NearestF32),
        I::F32Sqrt => un!(Rc::SqrtF32),
        I::F32Add => bin!(Rc::AddF32),
        I::F32Sub => bin!(Rc::SubF32),
        I::F32Mul => bin!(Rc::MulF32),
        I::F32Div => bin!(Rc::DivF32),
        I::F32Min => bin!(Rc::MinF32),
        I::F32Max => bin!(Rc::MaxF32),
        I::F32Copysign => bin!(Rc::CopysignF32),

        // f64.
        I::F64Eq => cmp!(Rc::CmpF64, FEQ),
        I::F64Ne => cmp!(Rc::CmpF64, FNE),
        I::F64Lt => cmp!(Rc::CmpF64, FLT),
        I::F64Gt => cmp!(Rc::CmpF64, FGT),
        I::F64Le => cmp!(Rc::CmpF64, FLE),
        I::F64Ge => cmp!(Rc::CmpF64, FGE),
        I::F64Abs => un!(Rc::AbsF64),
        I::F64Neg => un!(Rc::NegF64),
        I::F64Ceil => un!(Rc::CeilF64),
        I::F64Floor => un!(Rc::FloorF64),
        I::F64Trunc => un!(Rc::TruncF64),
        I::F64Nearest => un!(Rc::NearestF64),
        I::F64Sqrt => un!(Rc::SqrtF64),
        I::F64Add => bin!(Rc::AddF64),
        I::F64Sub => bin!(Rc::SubF64),
        I::F64Mul => bin!(Rc::MulF64),
        I::F64Div => bin!(Rc::DivF64),
        I::F64Min => bin!(Rc::MinF64),
        I::F64Max => bin!(Rc::MaxF64),
        I::F64Copysign => bin!(Rc::CopysignF64),

        // Conversions. The four reinterpretations are no-ops on raw slots.
        I::I32WrapI64 => un!(Rc::Wrap64),
        I::I32TruncF32S => un!(Rc::TruncF32S32),
        I::I32TruncF32U => un!(Rc::TruncF32U32),
        I::I32TruncF64S => un!(Rc::TruncF64S32),
        I::I32TruncF64U => un!(Rc::TruncF64U32),
        I::I64ExtendI32S => un!(Rc::ExtS3264),
        I::I64ExtendI32U => un!(Rc::ExtU3264),
        I::I64TruncF32S => un!(Rc::TruncF32S64),
        I::I64TruncF32U => un!(Rc::TruncF32U64),
        I::I64TruncF64S => un!(Rc::TruncF64S64),
        I::I64TruncF64U => un!(Rc::TruncF64U64),
        I::F32ConvertI32S => un!(Rc::ConvS32F32),
        I::F32ConvertI32U => un!(Rc::ConvU32F32),
        I::F32ConvertI64S => un!(Rc::ConvS64F32),
        I::F32ConvertI64U => un!(Rc::ConvU64F32),
        I::F32DemoteF64 => un!(Rc::Demote),
        I::F64ConvertI32S => un!(Rc::ConvS32F64),
        I::F64ConvertI32U => un!(Rc::ConvU32F64),
        I::F64ConvertI64S => un!(Rc::ConvS64F64),
        I::F64ConvertI64U => un!(Rc::ConvU64F64),
        I::F64PromoteF32 => un!(Rc::Promote),
        I::I32ReinterpretF32 | I::I64ReinterpretF64 | I::F32ReinterpretI32
        | I::F64ReinterpretI64 => rop(Rc::Nop, 0, 0, 0, 0, 0),
        I::I32Extend8S => un!(Rc::Ext8S32),
        I::I32Extend16S => un!(Rc::Ext16S32),
        I::I64Extend8S => un!(Rc::Ext8S64),
        I::I64Extend16S => un!(Rc::Ext16S64),
        I::I64Extend32S => un!(Rc::Ext32S64),

        // SIMD. i32x4/f32x4 splats broadcast the same low 32 bits, and
        // i64x2/f64x2 the same 64 bits, so each pair shares an opcode
        // (same for the 32-bit lane extracts).
        I::I32x4Splat | I::F32x4Splat => rop(Rc::Splat32, r(h - 1), 0, r(h - 1), 0, 0),
        I::I64x2Splat | I::F64x2Splat => rop(Rc::Splat64, r(h - 1), 0, r(h - 1), 0, 0),
        I::I32x4ExtractLane(l) | I::F32x4ExtractLane(l) => {
            rop(Rc::Extract32, r(h - 2), 0, r(h - 2), *l & 3, 0)
        }
        I::F64x2ExtractLane(l) => rop(Rc::Extract64, r(h - 2), 0, r(h - 2), *l & 1, 0),
        I::F64x2ReplaceLane(l) => rop(Rc::Replace64, r(h - 3), r(h - 1), r(h - 3), *l & 1, 0),
        I::I32x4Add => vbin!(Rc::AddI32x4),
        I::I32x4Sub => vbin!(Rc::SubI32x4),
        I::I32x4Mul => vbin!(Rc::MulI32x4),
        I::F32x4Add => vbin!(Rc::AddF32x4),
        I::F32x4Sub => vbin!(Rc::SubF32x4),
        I::F32x4Mul => vbin!(Rc::MulF32x4),
        I::F32x4Div => vbin!(Rc::DivF32x4),
        I::F64x2Add => vbin!(Rc::AddF64x2),
        I::F64x2Sub => vbin!(Rc::SubF64x2),
        I::F64x2Mul => vbin!(Rc::MulF64x2),
        I::F64x2Div => vbin!(Rc::DivF64x2),
        I::F64x2Eq => vcmp!(FEQ),
        I::F64x2Ne => vcmp!(FNE),
        I::F64x2Lt => vcmp!(FLT),
        I::F64x2Gt => vcmp!(FGT),
        I::F64x2Le => vcmp!(FLE),
        I::F64x2Ge => vcmp!(FGE),
        I::V128And => vbin!(Rc::VAnd),
        I::V128Or => vbin!(Rc::VOr),
        I::V128Xor => vbin!(Rc::VXor),
        I::V128Not => rop(Rc::VNot, r(h - 2), 0, r(h - 2), 0, 0),
        I::V128AnyTrue => rop(Rc::VAnyTrue, r(h - 2), 0, r(h - 2), 0, 0),
        I::I32x4AllTrue => rop(Rc::AllTrueI32x4, r(h - 2), 0, r(h - 2), 0, 0),
        I::I32x4Bitmask => rop(Rc::BitmaskI32x4, r(h - 2), 0, r(h - 2), 0, 0),

        other => unreachable!("{other:?} is not a straight-line instruction"),
    }
}

//! The instruction set supported by the engine: the MVP numeric, memory,
//! control, and variable instructions, the sign-extension operators, and a
//! 128-bit SIMD subset sufficient for `-msimd128`-style vectorized kernels.

use crate::types::BlockType;

/// Static memory-access immediate: alignment hint and constant offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemArg {
    /// log2 of the alignment hint. Purely advisory in this engine.
    pub align: u32,
    /// Constant byte offset added to the dynamic address.
    pub offset: u32,
}

impl MemArg {
    pub fn offset(offset: u32) -> Self {
        Self { align: 0, offset }
    }
}

/// The operands of a `br_table`: one label depth per index value, and the
/// depth taken when the index is past the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrTable {
    pub targets: Vec<u32>,
    pub default: u32,
}

/// One decoded instruction. Structured control instructions (`Block`,
/// `Loop`, `If`, `Else`, `End`) appear inline in the body, exactly as in
/// the binary format; branch targets are relative label depths.
///
/// 16 bytes: a tag and at most eight bytes of immediate. Decode writes one
/// of these per instruction of the module and validation reads every one
/// back before the first guest instruction runs, so an uncached start is
/// bound by the bytes of this type. Exactly two variants do not fit —
/// `br_table` (a vector) and `v128.const` (sixteen bytes) — and both are
/// rare (a jump table per `switch`, a constant per vectorised loop), so
/// they sit behind a `Box` rather than widening the other 211 variants to
/// 32 bytes. `instr_is_sixteen_bytes` pins the size: a new variant with a
/// wider immediate must be boxed too, or every module pays for it.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // Control.
    Unreachable,
    Nop,
    Block(BlockType),
    Loop(BlockType),
    If(BlockType),
    Else,
    End,
    Br(u32),
    BrIf(u32),
    BrTable(Box<BrTable>),
    Return,
    Call(u32),
    CallIndirect { type_idx: u32, table: u32 },

    // Parametric.
    Drop,
    Select,

    // Variables.
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet(u32),

    // Memory loads.
    I32Load(MemArg),
    I64Load(MemArg),
    F32Load(MemArg),
    F64Load(MemArg),
    I32Load8S(MemArg),
    I32Load8U(MemArg),
    I32Load16S(MemArg),
    I32Load16U(MemArg),
    I64Load8S(MemArg),
    I64Load8U(MemArg),
    I64Load16S(MemArg),
    I64Load16U(MemArg),
    I64Load32S(MemArg),
    I64Load32U(MemArg),

    // Memory stores.
    I32Store(MemArg),
    I64Store(MemArg),
    F32Store(MemArg),
    F64Store(MemArg),
    I32Store8(MemArg),
    I32Store16(MemArg),
    I64Store8(MemArg),
    I64Store16(MemArg),
    I64Store32(MemArg),

    MemorySize,
    MemoryGrow,
    /// `memory.copy` from the bulk-memory proposal (emitted by toolchains
    /// for `memcpy`; the embedder's zero-copy story relies on it in guests).
    MemoryCopy,
    /// `memory.fill` from the bulk-memory proposal.
    MemoryFill,

    // Constants.
    I32Const(i32),
    I64Const(i64),
    F32Const(f32),
    F64Const(f64),

    // i32 comparisons.
    I32Eqz,
    I32Eq,
    I32Ne,
    I32LtS,
    I32LtU,
    I32GtS,
    I32GtU,
    I32LeS,
    I32LeU,
    I32GeS,
    I32GeU,

    // i64 comparisons.
    I64Eqz,
    I64Eq,
    I64Ne,
    I64LtS,
    I64LtU,
    I64GtS,
    I64GtU,
    I64LeS,
    I64LeU,
    I64GeS,
    I64GeU,

    // f32 comparisons.
    F32Eq,
    F32Ne,
    F32Lt,
    F32Gt,
    F32Le,
    F32Ge,

    // f64 comparisons.
    F64Eq,
    F64Ne,
    F64Lt,
    F64Gt,
    F64Le,
    F64Ge,

    // i32 arithmetic.
    I32Clz,
    I32Ctz,
    I32Popcnt,
    I32Add,
    I32Sub,
    I32Mul,
    I32DivS,
    I32DivU,
    I32RemS,
    I32RemU,
    I32And,
    I32Or,
    I32Xor,
    I32Shl,
    I32ShrS,
    I32ShrU,
    I32Rotl,
    I32Rotr,

    // i64 arithmetic.
    I64Clz,
    I64Ctz,
    I64Popcnt,
    I64Add,
    I64Sub,
    I64Mul,
    I64DivS,
    I64DivU,
    I64RemS,
    I64RemU,
    I64And,
    I64Or,
    I64Xor,
    I64Shl,
    I64ShrS,
    I64ShrU,
    I64Rotl,
    I64Rotr,

    // f32 arithmetic.
    F32Abs,
    F32Neg,
    F32Ceil,
    F32Floor,
    F32Trunc,
    F32Nearest,
    F32Sqrt,
    F32Add,
    F32Sub,
    F32Mul,
    F32Div,
    F32Min,
    F32Max,
    F32Copysign,

    // f64 arithmetic.
    F64Abs,
    F64Neg,
    F64Ceil,
    F64Floor,
    F64Trunc,
    F64Nearest,
    F64Sqrt,
    F64Add,
    F64Sub,
    F64Mul,
    F64Div,
    F64Min,
    F64Max,
    F64Copysign,

    // Conversions.
    I32WrapI64,
    I32TruncF32S,
    I32TruncF32U,
    I32TruncF64S,
    I32TruncF64U,
    I64ExtendI32S,
    I64ExtendI32U,
    I64TruncF32S,
    I64TruncF32U,
    I64TruncF64S,
    I64TruncF64U,
    F32ConvertI32S,
    F32ConvertI32U,
    F32ConvertI64S,
    F32ConvertI64U,
    F32DemoteF64,
    F64ConvertI32S,
    F64ConvertI32U,
    F64ConvertI64S,
    F64ConvertI64U,
    F64PromoteF32,
    I32ReinterpretF32,
    I64ReinterpretF64,
    F32ReinterpretI32,
    F64ReinterpretI64,

    // Sign-extension operators.
    I32Extend8S,
    I32Extend16S,
    I64Extend8S,
    I64Extend16S,
    I64Extend32S,

    // --- SIMD subset (0xFD prefix) ---
    V128Load(MemArg),
    V128Store(MemArg),
    V128Const(Box<[u8; 16]>),
    I32x4Splat,
    I64x2Splat,
    F32x4Splat,
    F64x2Splat,
    I32x4ExtractLane(u8),
    F32x4ExtractLane(u8),
    F64x2ExtractLane(u8),
    F64x2ReplaceLane(u8),
    I32x4Add,
    I32x4Sub,
    I32x4Mul,
    F32x4Add,
    F32x4Sub,
    F32x4Mul,
    F32x4Div,
    F64x2Add,
    F64x2Sub,
    F64x2Mul,
    F64x2Div,
    F64x2Eq,
    F64x2Ne,
    F64x2Lt,
    F64x2Gt,
    F64x2Le,
    F64x2Ge,
    V128And,
    V128Or,
    V128Xor,
    V128Not,
    V128AnyTrue,
    I32x4AllTrue,
    /// Bitmask of the sign bits of the four i32 lanes.
    I32x4Bitmask,
}

impl Instr {
    pub fn br_table(targets: Vec<u32>, default: u32) -> Self {
        Instr::BrTable(Box::new(BrTable { targets, default }))
    }

    pub fn v128_const(bytes: [u8; 16]) -> Self {
        Instr::V128Const(Box::new(bytes))
    }

    /// True for instructions that open a nested block scope.
    pub fn opens_block(&self) -> bool {
        matches!(self, Instr::Block(_) | Instr::Loop(_) | Instr::If(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BlockType;

    #[test]
    fn instr_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Instr>(), 16);
    }

    #[test]
    fn opens_block_classification() {
        assert!(Instr::Block(BlockType::Empty).opens_block());
        assert!(Instr::Loop(BlockType::Empty).opens_block());
        assert!(Instr::If(BlockType::Empty).opens_block());
        assert!(!Instr::Else.opens_block());
        assert!(!Instr::End.opens_block());
        assert!(!Instr::I32Add.opens_block());
    }

    #[test]
    fn memarg_offset_constructor() {
        let m = MemArg::offset(16);
        assert_eq!(m.offset, 16);
        assert_eq!(m.align, 0);
    }
}

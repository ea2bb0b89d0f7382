//! The instruction set supported by the engine: the MVP numeric, memory,
//! control, and variable instructions, the sign-extension operators, and a
//! 128-bit SIMD subset sufficient for `-msimd128`-style vectorized kernels.
//!
//! [`for_each_instr!`] is the one table of what each instruction is in the
//! binary format and to the engine: its opcode, its immediate, and for a
//! straight-line instruction its operand and result types and its register
//! op. The decoder, the encoder, validation's straight-line arms and
//! `lower_plain`'s are `match`es expanded from it, so an opcode, a type
//! signature or a register code is written in this file and nowhere else.

use crate::types::BlockType;

/// Static memory-access immediate: alignment hint and constant offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemArg {
    /// log2 of the alignment hint: at most the access's natural width
    /// (validation checks it), and otherwise advisory in this engine.
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
/// they sit behind a `Box` rather than widening the other 212 variants to
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

/// The instruction table: calls `$m! { rows }`, one row per [`Instr`]
/// variant, in the style of wasmparser's `for_each_operator!`. The rows
/// come in groups: `{ … }` holds the one-byte opcodes, and `0xfc { … }` and
/// `0xfd { … }` the instructions behind each prefix byte, which the binary
/// format names by a LEB128 `u32` sub-opcode after it. A row is
///
/// ```text
/// Name  opcode  immediate  [ (types) (lowering) ] ;
/// ```
///
/// * **opcode**: the byte, or in a prefix group the sub-opcode.
/// * **immediate**: `none`; `index` (a LEB `u32`: local, global, function
///   or label depth); `block` (a block type); `memarg`; `br_table`;
///   `call_indirect`; `i32` / `i64` (signed LEB) or `f32` / `f64` / `v128`
///   (little-endian) constants; `lane` (one byte); `zero` / `zero2` (one or
///   two reserved memory-index bytes, which must be 0).
/// * **types**, straight-line instructions only: what the instruction pops
///   and pushes, in the spec's order, `(I32 I64 -> F64)`. A prefix `mem:`
///   requires a memory; `mem W:` also names the access's natural width `W`
///   in bytes, which bounds the memarg's alignment; `lanes N:` bounds the
///   lane immediate below `N`.
/// * **lowering**: the register op `lower_plain` makes: a shape (which
///   stack temps it reads and writes, see `regalloc/lower.rs`), an `Rc`
///   code, and the `aux` byte if there is one (a comparison code, or
///   `lane`).
///
/// Control flow, locals, globals, calls, `drop` and `select` have neither:
/// each walk writes its own arm for them. The semantics of every row are
/// written apart from this table, in `exec.rs` (the baseline tier, which
/// the differential tests hold the others to) and in `ops.rs` (`exec!`).
macro_rules! for_each_instr {
    ($m:ident) => {
        $m! {
            {
                // Control.
                Unreachable       0x00  none;
                Nop               0x01  none;
                Block             0x02  block;
                Loop              0x03  block;
                If                0x04  block;
                Else              0x05  none;
                End               0x0b  none;
                Br                0x0c  index;
                BrIf              0x0d  index;
                BrTable           0x0e  br_table;
                Return            0x0f  none;
                Call              0x10  index;
                CallIndirect      0x11  call_indirect;

                // Parametric and variables.
                Drop              0x1a  none;
                Select            0x1b  none;
                LocalGet          0x20  index;
                LocalSet          0x21  index;
                LocalTee          0x22  index;
                GlobalGet         0x23  index;
                GlobalSet         0x24  index;

                // Memory. An `f32`/`f64` access moves the same bits as the
                // integer one of its width.
                I32Load           0x28  memarg  (mem 4: I32 -> I32)          (un Load32);
                I64Load           0x29  memarg  (mem 8: I32 -> I64)          (un Load64);
                F32Load           0x2a  memarg  (mem 4: I32 -> F32)          (un Load32);
                F64Load           0x2b  memarg  (mem 8: I32 -> F64)          (un Load64);
                I32Load8S         0x2c  memarg  (mem 1: I32 -> I32)          (un Load8S32);
                I32Load8U         0x2d  memarg  (mem 1: I32 -> I32)          (un Load8U32);
                I32Load16S        0x2e  memarg  (mem 2: I32 -> I32)          (un Load16S32);
                I32Load16U        0x2f  memarg  (mem 2: I32 -> I32)          (un Load16U32);
                I64Load8S         0x30  memarg  (mem 1: I32 -> I64)          (un Load8S64);
                I64Load8U         0x31  memarg  (mem 1: I32 -> I64)          (un Load8U64);
                I64Load16S        0x32  memarg  (mem 2: I32 -> I64)          (un Load16S64);
                I64Load16U        0x33  memarg  (mem 2: I32 -> I64)          (un Load16U64);
                I64Load32S        0x34  memarg  (mem 4: I32 -> I64)          (un Load32S64);
                I64Load32U        0x35  memarg  (mem 4: I32 -> I64)          (un Load32U64);
                I32Store          0x36  memarg  (mem 4: I32 I32 ->)          (st Store32);
                I64Store          0x37  memarg  (mem 8: I32 I64 ->)          (st Store64);
                F32Store          0x38  memarg  (mem 4: I32 F32 ->)          (st Store32);
                F64Store          0x39  memarg  (mem 8: I32 F64 ->)          (st Store64);
                I32Store8         0x3a  memarg  (mem 1: I32 I32 ->)          (st Store8);
                I32Store16        0x3b  memarg  (mem 2: I32 I32 ->)          (st Store16);
                I64Store8         0x3c  memarg  (mem 1: I32 I64 ->)          (st Store8);
                I64Store16        0x3d  memarg  (mem 2: I32 I64 ->)          (st Store16);
                I64Store32        0x3e  memarg  (mem 4: I32 I64 ->)          (st Store32);
                MemorySize        0x3f  zero    (mem: -> I32)                (put MemSize);
                MemoryGrow        0x40  zero    (mem: I32 -> I32)            (un MemGrow);

                // Constants.
                I32Const          0x41  i32     (-> I32)                     (put Const);
                I64Const          0x42  i64     (-> I64)                     (put Const);
                F32Const          0x43  f32     (-> F32)                     (put Const);
                F64Const          0x44  f64     (-> F64)                     (put Const);

                // Comparisons.
                I32Eqz            0x45  none    (I32 -> I32)                 (un Eqz32);
                I32Eq             0x46  none    (I32 I32 -> I32)             (bin Cmp32 Cmp::Eq);
                I32Ne             0x47  none    (I32 I32 -> I32)             (bin Cmp32 Cmp::Ne);
                I32LtS            0x48  none    (I32 I32 -> I32)             (bin Cmp32 Cmp::LtS);
                I32LtU            0x49  none    (I32 I32 -> I32)             (bin Cmp32 Cmp::LtU);
                I32GtS            0x4a  none    (I32 I32 -> I32)             (bin Cmp32 Cmp::GtS);
                I32GtU            0x4b  none    (I32 I32 -> I32)             (bin Cmp32 Cmp::GtU);
                I32LeS            0x4c  none    (I32 I32 -> I32)             (bin Cmp32 Cmp::LeS);
                I32LeU            0x4d  none    (I32 I32 -> I32)             (bin Cmp32 Cmp::LeU);
                I32GeS            0x4e  none    (I32 I32 -> I32)             (bin Cmp32 Cmp::GeS);
                I32GeU            0x4f  none    (I32 I32 -> I32)             (bin Cmp32 Cmp::GeU);
                I64Eqz            0x50  none    (I64 -> I32)                 (un Eqz64);
                I64Eq             0x51  none    (I64 I64 -> I32)             (bin Cmp64 Cmp::Eq);
                I64Ne             0x52  none    (I64 I64 -> I32)             (bin Cmp64 Cmp::Ne);
                I64LtS            0x53  none    (I64 I64 -> I32)             (bin Cmp64 Cmp::LtS);
                I64LtU            0x54  none    (I64 I64 -> I32)             (bin Cmp64 Cmp::LtU);
                I64GtS            0x55  none    (I64 I64 -> I32)             (bin Cmp64 Cmp::GtS);
                I64GtU            0x56  none    (I64 I64 -> I32)             (bin Cmp64 Cmp::GtU);
                I64LeS            0x57  none    (I64 I64 -> I32)             (bin Cmp64 Cmp::LeS);
                I64LeU            0x58  none    (I64 I64 -> I32)             (bin Cmp64 Cmp::LeU);
                I64GeS            0x59  none    (I64 I64 -> I32)             (bin Cmp64 Cmp::GeS);
                I64GeU            0x5a  none    (I64 I64 -> I32)             (bin Cmp64 Cmp::GeU);
                F32Eq             0x5b  none    (F32 F32 -> I32)             (bin CmpF32 FEQ);
                F32Ne             0x5c  none    (F32 F32 -> I32)             (bin CmpF32 FNE);
                F32Lt             0x5d  none    (F32 F32 -> I32)             (bin CmpF32 FLT);
                F32Gt             0x5e  none    (F32 F32 -> I32)             (bin CmpF32 FGT);
                F32Le             0x5f  none    (F32 F32 -> I32)             (bin CmpF32 FLE);
                F32Ge             0x60  none    (F32 F32 -> I32)             (bin CmpF32 FGE);
                F64Eq             0x61  none    (F64 F64 -> I32)             (bin CmpF64 FEQ);
                F64Ne             0x62  none    (F64 F64 -> I32)             (bin CmpF64 FNE);
                F64Lt             0x63  none    (F64 F64 -> I32)             (bin CmpF64 FLT);
                F64Gt             0x64  none    (F64 F64 -> I32)             (bin CmpF64 FGT);
                F64Le             0x65  none    (F64 F64 -> I32)             (bin CmpF64 FLE);
                F64Ge             0x66  none    (F64 F64 -> I32)             (bin CmpF64 FGE);

                // i32 arithmetic.
                I32Clz            0x67  none    (I32 -> I32)                 (un Clz32);
                I32Ctz            0x68  none    (I32 -> I32)                 (un Ctz32);
                I32Popcnt         0x69  none    (I32 -> I32)                 (un Popcnt32);
                I32Add            0x6a  none    (I32 I32 -> I32)             (bin Add32);
                I32Sub            0x6b  none    (I32 I32 -> I32)             (bin Sub32);
                I32Mul            0x6c  none    (I32 I32 -> I32)             (bin Mul32);
                I32DivS           0x6d  none    (I32 I32 -> I32)             (bin DivS32);
                I32DivU           0x6e  none    (I32 I32 -> I32)             (bin DivU32);
                I32RemS           0x6f  none    (I32 I32 -> I32)             (bin RemS32);
                I32RemU           0x70  none    (I32 I32 -> I32)             (bin RemU32);
                I32And            0x71  none    (I32 I32 -> I32)             (bin And32);
                I32Or             0x72  none    (I32 I32 -> I32)             (bin Or32);
                I32Xor            0x73  none    (I32 I32 -> I32)             (bin Xor32);
                I32Shl            0x74  none    (I32 I32 -> I32)             (bin Shl32);
                I32ShrS           0x75  none    (I32 I32 -> I32)             (bin ShrS32);
                I32ShrU           0x76  none    (I32 I32 -> I32)             (bin ShrU32);
                I32Rotl           0x77  none    (I32 I32 -> I32)             (bin Rotl32);
                I32Rotr           0x78  none    (I32 I32 -> I32)             (bin Rotr32);

                // i64 arithmetic.
                I64Clz            0x79  none    (I64 -> I64)                 (un Clz64);
                I64Ctz            0x7a  none    (I64 -> I64)                 (un Ctz64);
                I64Popcnt         0x7b  none    (I64 -> I64)                 (un Popcnt64);
                I64Add            0x7c  none    (I64 I64 -> I64)             (bin Add64);
                I64Sub            0x7d  none    (I64 I64 -> I64)             (bin Sub64);
                I64Mul            0x7e  none    (I64 I64 -> I64)             (bin Mul64);
                I64DivS           0x7f  none    (I64 I64 -> I64)             (bin DivS64);
                I64DivU           0x80  none    (I64 I64 -> I64)             (bin DivU64);
                I64RemS           0x81  none    (I64 I64 -> I64)             (bin RemS64);
                I64RemU           0x82  none    (I64 I64 -> I64)             (bin RemU64);
                I64And            0x83  none    (I64 I64 -> I64)             (bin And64);
                I64Or             0x84  none    (I64 I64 -> I64)             (bin Or64);
                I64Xor            0x85  none    (I64 I64 -> I64)             (bin Xor64);
                I64Shl            0x86  none    (I64 I64 -> I64)             (bin Shl64);
                I64ShrS           0x87  none    (I64 I64 -> I64)             (bin ShrS64);
                I64ShrU           0x88  none    (I64 I64 -> I64)             (bin ShrU64);
                I64Rotl           0x89  none    (I64 I64 -> I64)             (bin Rotl64);
                I64Rotr           0x8a  none    (I64 I64 -> I64)             (bin Rotr64);

                // f32 arithmetic.
                F32Abs            0x8b  none    (F32 -> F32)                 (un AbsF32);
                F32Neg            0x8c  none    (F32 -> F32)                 (un NegF32);
                F32Ceil           0x8d  none    (F32 -> F32)                 (un CeilF32);
                F32Floor          0x8e  none    (F32 -> F32)                 (un FloorF32);
                F32Trunc          0x8f  none    (F32 -> F32)                 (un TruncF32);
                F32Nearest        0x90  none    (F32 -> F32)                 (un NearestF32);
                F32Sqrt           0x91  none    (F32 -> F32)                 (un SqrtF32);
                F32Add            0x92  none    (F32 F32 -> F32)             (bin AddF32);
                F32Sub            0x93  none    (F32 F32 -> F32)             (bin SubF32);
                F32Mul            0x94  none    (F32 F32 -> F32)             (bin MulF32);
                F32Div            0x95  none    (F32 F32 -> F32)             (bin DivF32);
                F32Min            0x96  none    (F32 F32 -> F32)             (bin MinF32);
                F32Max            0x97  none    (F32 F32 -> F32)             (bin MaxF32);
                F32Copysign       0x98  none    (F32 F32 -> F32)             (bin CopysignF32);

                // f64 arithmetic.
                F64Abs            0x99  none    (F64 -> F64)                 (un AbsF64);
                F64Neg            0x9a  none    (F64 -> F64)                 (un NegF64);
                F64Ceil           0x9b  none    (F64 -> F64)                 (un CeilF64);
                F64Floor          0x9c  none    (F64 -> F64)                 (un FloorF64);
                F64Trunc          0x9d  none    (F64 -> F64)                 (un TruncF64);
                F64Nearest        0x9e  none    (F64 -> F64)                 (un NearestF64);
                F64Sqrt           0x9f  none    (F64 -> F64)                 (un SqrtF64);
                F64Add            0xa0  none    (F64 F64 -> F64)             (bin AddF64);
                F64Sub            0xa1  none    (F64 F64 -> F64)             (bin SubF64);
                F64Mul            0xa2  none    (F64 F64 -> F64)             (bin MulF64);
                F64Div            0xa3  none    (F64 F64 -> F64)             (bin DivF64);
                F64Min            0xa4  none    (F64 F64 -> F64)             (bin MinF64);
                F64Max            0xa5  none    (F64 F64 -> F64)             (bin MaxF64);
                F64Copysign       0xa6  none    (F64 F64 -> F64)             (bin CopysignF64);

                // Conversions. A reinterpretation is a no-op on a raw slot.
                I32WrapI64        0xa7  none    (I64 -> I32)                 (un Wrap64);
                I32TruncF32S      0xa8  none    (F32 -> I32)                 (un TruncF32S32);
                I32TruncF32U      0xa9  none    (F32 -> I32)                 (un TruncF32U32);
                I32TruncF64S      0xaa  none    (F64 -> I32)                 (un TruncF64S32);
                I32TruncF64U      0xab  none    (F64 -> I32)                 (un TruncF64U32);
                I64ExtendI32S     0xac  none    (I32 -> I64)                 (un ExtS3264);
                I64ExtendI32U     0xad  none    (I32 -> I64)                 (un ExtU3264);
                I64TruncF32S      0xae  none    (F32 -> I64)                 (un TruncF32S64);
                I64TruncF32U      0xaf  none    (F32 -> I64)                 (un TruncF32U64);
                I64TruncF64S      0xb0  none    (F64 -> I64)                 (un TruncF64S64);
                I64TruncF64U      0xb1  none    (F64 -> I64)                 (un TruncF64U64);
                F32ConvertI32S    0xb2  none    (I32 -> F32)                 (un ConvS32F32);
                F32ConvertI32U    0xb3  none    (I32 -> F32)                 (un ConvU32F32);
                F32ConvertI64S    0xb4  none    (I64 -> F32)                 (un ConvS64F32);
                F32ConvertI64U    0xb5  none    (I64 -> F32)                 (un ConvU64F32);
                F32DemoteF64      0xb6  none    (F64 -> F32)                 (un Demote);
                F64ConvertI32S    0xb7  none    (I32 -> F64)                 (un ConvS32F64);
                F64ConvertI32U    0xb8  none    (I32 -> F64)                 (un ConvU32F64);
                F64ConvertI64S    0xb9  none    (I64 -> F64)                 (un ConvS64F64);
                F64ConvertI64U    0xba  none    (I64 -> F64)                 (un ConvU64F64);
                F64PromoteF32     0xbb  none    (F32 -> F64)                 (un Promote);
                I32ReinterpretF32 0xbc  none    (F32 -> I32)                 (nop Nop);
                I64ReinterpretF64 0xbd  none    (F64 -> I64)                 (nop Nop);
                F32ReinterpretI32 0xbe  none    (I32 -> F32)                 (nop Nop);
                F64ReinterpretI64 0xbf  none    (I64 -> F64)                 (nop Nop);

                // Sign-extension operators.
                I32Extend8S       0xc0  none    (I32 -> I32)                 (un Ext8S32);
                I32Extend16S      0xc1  none    (I32 -> I32)                 (un Ext16S32);
                I64Extend8S       0xc2  none    (I64 -> I64)                 (un Ext8S64);
                I64Extend16S      0xc3  none    (I64 -> I64)                 (un Ext16S64);
                I64Extend32S      0xc4  none    (I64 -> I64)                 (un Ext32S64);
            }
            // Bulk memory.
            0xfc {
                MemoryCopy        10    zero2   (mem: I32 I32 I32 ->)        (tri MemCopy);
                MemoryFill        11    zero    (mem: I32 I32 I32 ->)        (tri MemFill);
            }
            // SIMD. The i32x4/f32x4 splats broadcast the same 32 bits, and
            // i64x2/f64x2 the same 64, so each pair shares a register op (as
            // do the 32-bit lane extracts).
            0xfd {
                V128Load          0     memarg  (mem 16: I32 -> V128)        (un V128Load);
                V128Store         11    memarg  (mem 16: I32 V128 ->)        (vst V128Store);
                V128Const         12    v128    (-> V128)                    (vput V128Const);
                I32x4Splat        17    none    (I32 -> V128)                (un Splat32);
                I64x2Splat        18    none    (I64 -> V128)                (un Splat64);
                F32x4Splat        19    none    (F32 -> V128)                (un Splat32);
                F64x2Splat        20    none    (F64 -> V128)                (un Splat64);
                I32x4ExtractLane  27    lane    (lanes 4: V128 -> I32)       (vun Extract32 lane);
                F32x4ExtractLane  31    lane    (lanes 4: V128 -> F32)       (vun Extract32 lane);
                F64x2ExtractLane  33    lane    (lanes 2: V128 -> F64)       (vun Extract64 lane);
                F64x2ReplaceLane  34    lane    (lanes 2: V128 F64 -> V128)  (vrep Replace64 lane);
                F64x2Eq           71    none    (V128 V128 -> V128)          (vbin CmpF64x2 FEQ);
                F64x2Ne           72    none    (V128 V128 -> V128)          (vbin CmpF64x2 FNE);
                F64x2Lt           73    none    (V128 V128 -> V128)          (vbin CmpF64x2 FLT);
                F64x2Gt           74    none    (V128 V128 -> V128)          (vbin CmpF64x2 FGT);
                F64x2Le           75    none    (V128 V128 -> V128)          (vbin CmpF64x2 FLE);
                F64x2Ge           76    none    (V128 V128 -> V128)          (vbin CmpF64x2 FGE);
                V128Not           77    none    (V128 -> V128)               (vun VNot);
                V128And           78    none    (V128 V128 -> V128)          (vbin VAnd);
                V128Or            80    none    (V128 V128 -> V128)          (vbin VOr);
                V128Xor           81    none    (V128 V128 -> V128)          (vbin VXor);
                V128AnyTrue       83    none    (V128 -> I32)                (vun VAnyTrue);
                I32x4AllTrue      163   none    (V128 -> I32)                (vun AllTrueI32x4);
                I32x4Bitmask      164   none    (V128 -> I32)                (vun BitmaskI32x4);
                I32x4Add          174   none    (V128 V128 -> V128)          (vbin AddI32x4);
                I32x4Sub          177   none    (V128 V128 -> V128)          (vbin SubI32x4);
                I32x4Mul          181   none    (V128 V128 -> V128)          (vbin MulI32x4);
                F32x4Add          228   none    (V128 V128 -> V128)          (vbin AddF32x4);
                F32x4Sub          229   none    (V128 V128 -> V128)          (vbin SubF32x4);
                F32x4Mul          230   none    (V128 V128 -> V128)          (vbin MulF32x4);
                F32x4Div          231   none    (V128 V128 -> V128)          (vbin DivF32x4);
                F64x2Add          240   none    (V128 V128 -> V128)          (vbin AddF64x2);
                F64x2Sub          241   none    (V128 V128 -> V128)          (vbin SubF64x2);
                F64x2Mul          242   none    (V128 V128 -> V128)          (vbin MulF64x2);
                F64x2Div          243   none    (V128 V128 -> V128)          (vbin DivF64x2);
            }
        }
    };
}
pub(crate) use for_each_instr;

/// The pattern of row `$name`'s variant with immediate `$imm`, binding the
/// immediate to `$x` (and `call_indirect`'s table to `$y`).
macro_rules! instr_pat {
    ($name:ident, none, $x:tt, $y:tt) => { Instr::$name };
    ($name:ident, zero, $x:tt, $y:tt) => { Instr::$name };
    ($name:ident, zero2, $x:tt, $y:tt) => { Instr::$name };
    ($name:ident, call_indirect, $x:tt, $y:tt) => { Instr::$name { type_idx: $x, table: $y } };
    ($name:ident, $imm:ident, $x:tt, $y:tt) => { Instr::$name($x) };
}
pub(crate) use instr_pat;

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

    /// The table against the decoder and the encoder it expands into, in
    /// the manner of `regalloc::tests::every_byte_is_an_opcode_or_rejected`:
    /// each row's bytes decode to its variant and re-encode to themselves,
    /// no two rows share an opcode or a variant, and every byte and every
    /// `0xfc`/`0xfd` sub-opcode up to 255 that no row names is rejected.
    #[test]
    fn every_opcode_is_one_row_or_rejected() {
        use crate::decode::decode_instr;
        use crate::encode::encode_instr;
        use crate::leb128::{write_u32, Reader};
        use std::collections::HashSet;
        macro_rules! rows {
            (
                { $($name:ident $op:literal $imm:ident $(($($sig:tt)*) ($($low:tt)*))?;)* }
                $($prefix:literal {
                    $($pname:ident $sub:literal $pimm:ident $(($($psig:tt)*) ($($plow:tt)*))?;)*
                })*
            ) => {
                vec![
                    $((stringify!($name), ($op, None), sample!($imm)),)*
                    $($((stringify!($pname), ($prefix, Some($sub)), sample!($pimm)),)*)*
                ]
            };
        }
        // Bytes of an immediate of each kind, each one the decoder takes.
        macro_rules! sample {
            (none) => { vec![] };
            (index) => { vec![0x85, 0x01] };
            (block) => { vec![0x7c] };
            (memarg) => { vec![0x01, 0xac, 0x02] };
            (br_table) => { vec![2, 0, 1, 3] };
            (call_indirect) => { vec![4, 0] };
            (i32) => { vec![0x7b] };
            (i64) => { vec![0x80, 0x7f] };
            (f32) => { 1.5f32.to_le_bytes().to_vec() };
            (f64) => { (-0.25f64).to_le_bytes().to_vec() };
            (v128) => { (0..16).collect() };
            (lane) => { vec![1] };
            (zero) => { vec![0] };
            (zero2) => { vec![0, 0] };
        }
        let rows = for_each_instr!(rows);
        let (mut names, mut opcodes) = (HashSet::new(), HashSet::new());
        for (name, (op, sub), imm) in &rows {
            assert!(names.insert(*name), "{name} has two rows");
            assert!(opcodes.insert((*op, *sub)), "{name} shares opcode {op:#x} {sub:?}");
            let mut bytes = vec![*op];
            if let Some(sub) = sub {
                write_u32(&mut bytes, *sub);
            }
            bytes.extend_from_slice(imm);
            let mut r = Reader::new(&bytes);
            let instr = decode_instr(&mut r).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(r.is_empty(), "{name} leaves bytes");
            let debug = format!("{instr:?}");
            let rest = debug.strip_prefix(name).unwrap_or_else(|| panic!("{name} is {debug}"));
            assert!(matches!(rest.chars().next(), None | Some('(' | ' ')), "{name} is {debug}");
            let mut again = Vec::new();
            encode_instr(&mut again, &instr);
            assert_eq!(again, bytes, "{name} re-encodes");
        }
        let rejected = |bytes: &[u8]| {
            let err = decode_instr(&mut Reader::new(bytes)).unwrap_err();
            assert_eq!(err.offset, 0, "{bytes:x?}");
            err.message
        };
        for op in 0..=u8::MAX {
            if matches!(op, 0xfc | 0xfd) {
                let prefix = if op == 0xfc { "0xfc" } else { "SIMD" };
                for sub in (0..=255).filter(|&sub| !opcodes.contains(&(op, Some(sub)))) {
                    let mut bytes = vec![op];
                    write_u32(&mut bytes, sub);
                    assert_eq!(rejected(&bytes), format!("unsupported {prefix} sub-opcode {sub}"));
                }
            } else if !opcodes.contains(&(op, None)) {
                assert_eq!(rejected(&[op]), format!("unknown opcode {op:#x}"));
            }
        }
    }

    #[test]
    fn memarg_offset_constructor() {
        let m = MemArg::offset(16);
        assert_eq!(m.offset, 16);
        assert_eq!(m.align, 0);
    }
}

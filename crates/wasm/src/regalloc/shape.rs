//! The one description of every register opcode, stream and chain-only
//! codes alike: [`Rc::row`]. A row says which of the fields `a`, `b`, `c`
//! are registers and how they are used, where control goes after the op,
//! whether a dead result lets the op go, how the mid-end numbers its
//! result, and the largest `aux` byte an executor decodes for it. Every
//! pass reads an op through its row — the mid-end, [`verify`](super::verify),
//! the step-program builder — and the branch edges through
//! [`dests`], [`targets`] and [`unwinds`]; none of them lists opcodes to
//! decide control flow. (The rewrite rules that *produce* a fused code
//! name what they fuse, where they are.)

use crate::ir::Cmp;

use super::{BrDest, Rc, RegFunc, RegOp, FGE};

/// How an opcode uses one of its register fields (`a`, `b`, `c`): any
/// combination of read, written and two-slots-wide; `0` = the field is
/// not a register (unused, an immediate, a pool index or a branch target).
pub(crate) const R: u8 = 1;
pub(crate) const W: u8 = 2;
pub(crate) const WIDE: u8 = 4;

/// Where control goes after an op. What no field can say is here too:
/// a branch's unwind copy (`imm`, or the `br_table` pool), `Return`'s
/// result range from `a` and the calls' open argument window from `b`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// To the next op.
    Next,
    /// To the op in `c`; `imm` is unused.
    Jump,
    /// To the op in `c`, after the unwind copy in `imm` ([`super::pack_unwind`]).
    Br,
    /// If taken, as [`Flow::Br`]; else to the next op.
    Branch,
    /// A chain's fused guard: if taken to `c`, else to the step's `w`; no
    /// unwind copy.
    Guard,
    /// To one of the `dest_pool` entries `[b, b + c]` (the last is the
    /// default), each with its own target and unwind copy.
    Table,
    /// Out of the function, with the results from register `a` on.
    Return,
    /// Nowhere: the op traps.
    Trap,
    /// Into a callee whose frame starts at the argument window at `b`,
    /// then to the next op.
    Call,
}

impl Flow {
    /// Whether control can go on to the next op.
    pub(crate) fn falls_through(self) -> bool {
        matches!(self, Flow::Next | Flow::Branch | Flow::Guard | Flow::Call)
    }

    /// A conditional branch: the stream's, or a chain's fused guard.
    pub(crate) fn conditional(self) -> bool {
        matches!(self, Flow::Branch | Flow::Guard)
    }

    /// Whether `c` holds a branch target.
    pub(crate) fn has_target(self) -> bool {
        matches!(self, Flow::Jump | Flow::Br | Flow::Branch | Flow::Guard)
    }

    /// Whether `imm` holds an unwind copy.
    pub(crate) fn has_unwind(self) -> bool {
        matches!(self, Flow::Br | Flow::Branch)
    }
}

/// How the mid-end's value numbering names an op's result where it has no
/// rule of its own for the op.
#[derive(Clone, Copy)]
pub(crate) enum Class {
    /// Not numbered: impure, floating point, wide, or numbered by a rule
    /// of its own.
    Untracked,
    /// A function of `a`, with `aux` and `imm` as immediates.
    Unary,
    /// A function of `a` and `b`.
    Binary,
    /// A function of `a` and `b` in either order.
    Commutative,
}

/// One opcode's row of the table.
#[derive(Clone, Copy)]
pub(crate) struct Row {
    /// The register fields `[a, b, c]`: [`R`], [`W`], [`WIDE`] or 0.
    pub fields: [u8; 3],
    pub flow: Flow,
    /// Removable when its result is dead: no trap, no memory or global
    /// write, no control effect. (Float arithmetic never traps in Wasm;
    /// integer div/rem and float→int truncation do.)
    pub pure: bool,
    pub class: Class,
    /// The largest `aux` byte an executor accepts: a comparison code it
    /// decodes, or a lane index it shifts by.
    pub aux: u8,
}

/// A row with these register fields that falls through, is impure, is not
/// numbered and takes any `aux`; the methods below amend it.
const fn op(fields: [u8; 3]) -> Row {
    Row { fields, flow: Flow::Next, pure: false, class: Class::Untracked, aux: u8::MAX }
}

impl Row {
    const fn to(self, flow: Flow) -> Row {
        Row { flow, ..self }
    }

    const fn pure(self) -> Row {
        Row { pure: true, ..self }
    }

    const fn class(self, class: Class) -> Row {
        Row { class, ..self }
    }

    const fn aux(self, aux: u8) -> Row {
        Row { aux, ..self }
    }
}

impl Rc {
    /// This opcode's row: one load from [`ROWS`].
    #[inline(always)]
    pub(crate) fn row(self) -> Row {
        ROWS[self as usize]
    }
}

/// Every opcode's row, indexed by its byte; built at compile time from
/// [`row_of`].
static ROWS: [Row; Rc::LAST as usize + 1] = {
    let mut rows = [op([0; 3]); Rc::LAST as usize + 1];
    let mut b = 0;
    while b < rows.len() {
        // SAFETY: `Rc` is `repr(u8)` and numbers its variants contiguously
        // from `Nop = 0` to `Rc::LAST`, so every `b` here is a variant
        // (`chain_only_opcodes_never_enter_a_stream` fails if a variant is
        // added after `Rc::LAST`).
        rows[b] = row_of(unsafe { std::mem::transmute::<u8, Rc>(b as u8) });
        b += 1;
    }
    rows
};

/// The table itself: one arm per group of opcodes with the same row.
const fn row_of(code: Rc) -> Row {
    use Rc::*;
    const NONE: [u8; 3] = [0, 0, 0];
    const R2: u8 = R | WIDE;
    const W2: u8 = W | WIDE;
    const GEU: u8 = Cmp::GeU as u8;
    match code {
        // -- control --
        Nop => op(NONE),
        Jump => op(NONE).to(Flow::Jump),
        Br => op(NONE).to(Flow::Br),
        BrIf | BrIfZ => op([R, 0, 0]).to(Flow::Branch),
        BrIfCmp32 => op([R, R, 0]).to(Flow::Branch).aux(GEU),
        BrIfCmp32K => op([R, 0, 0]).to(Flow::Branch).aux(GEU),
        BrTable => op([R, 0, 0]).to(Flow::Table),
        Return => op(NONE).to(Flow::Return),
        Unreachable => op(NONE).to(Flow::Trap),
        CallGuest | CallHost => op(NONE).to(Flow::Call),
        CallIndirect => op([0, 0, R]).to(Flow::Call),
        // -- moves / parametric --
        Copy => op([R, 0, W]).pure(),
        Copy2 => op([R2, 0, W2]).pure(),
        // `a` is kept or overwritten with `b` depending on `c`.
        Select => op([R | W, R, R]),
        Select2 => op([R2 | W, R2, R]),
        GlobalGet | Const | MemSize => op([0, 0, W]).pure(),
        GlobalSet => op([0, R, 0]),
        V128Const => op([0, 0, W2]).pure(),
        // -- memory --
        Load32 | Load64 | Load8S32 | Load8U32 | Load16S32 | Load16U32 | Load8S64 | Load8U64
        | Load16S64 | Load16U64 | Load32S64 | Load32U64 | Load32ShlK | Load64ShlK | MemGrow => {
            op([R, 0, W])
        }
        V128Load => op([R, 0, W2]),
        Store8 | Store16 | Store32 | Store64 | Store32ShlK | Store64ShlK => op([R, R, 0]),
        V128Store => op([R, R2, 0]),
        Load32Shl | Load64Shl => op([R, R, W]),
        Store32Shl | Store64Shl | MemCopy | MemFill => op([R, R, R]),
        // -- one register: a → c --
        Clz32 | Ctz32 | Popcnt32 | Eqz64 | Clz64 | Ctz64 | Popcnt64 | Wrap64 | ExtS3264
        | ExtU3264 | Ext8S32 | Ext16S32 | Ext8S64 | Ext16S64 | Ext32S64 | AddK64 => {
            op([R, 0, W]).pure().class(Class::Unary)
        }
        Cmp64K => op([R, 0, W]).pure().class(Class::Unary).aux(GEU),
        // Numbered as affine forms and constant compares.
        Eqz32 | AddK32 | ShlK32 => op([R, 0, W]).pure(),
        Cmp32K | CmpAddK32 => op([R, 0, W]).pure().aux(GEU),
        AbsF32 | NegF32 | CeilF32 | FloorF32 | TruncF32 | NearestF32 | SqrtF32 | AbsF64
        | NegF64 | CeilF64 | FloorF64 | TruncF64 | NearestF64 | SqrtF64 | ConvS32F32
        | ConvU32F32 | ConvS64F32 | ConvU64F32 | Demote | ConvS32F64 | ConvU32F64 | ConvS64F64
        | ConvU64F64 | Promote => op([R, 0, W]).pure(),
        TruncF32S32 | TruncF32U32 | TruncF64S32 | TruncF64U32 | TruncF32S64 | TruncF32U64
        | TruncF64S64 | TruncF64U64 => op([R, 0, W]),
        // -- two registers: a, b → c --
        Add32 | Mul32 | And32 | Or32 | Xor32 | Add64 | Mul64 | And64 | Or64 | Xor64 => {
            op([R, R, W]).pure().class(Class::Commutative)
        }
        Sub32 | Shl32 | ShrS32 | ShrU32 | Rotl32 | Rotr32 | Sub64 | Shl64 | ShrS64 | ShrU64
        | Rotl64 | Rotr64 => op([R, R, W]).pure().class(Class::Binary),
        Cmp32 | Cmp64 => op([R, R, W]).pure().class(Class::Binary).aux(GEU),
        CmpF32 | CmpF64 => op([R, R, W]).pure().aux(FGE),
        AddF32 | SubF32 | MulF32 | DivF32 | MinF32 | MaxF32 | CopysignF32 | AddF64 | SubF64
        | MulF64 | DivF64 | MinF64 | MaxF64 | CopysignF64 | AddShl32 => op([R, R, W]).pure(),
        DivS32 | DivU32 | RemS32 | RemU32 | DivS64 | DivU64 | RemS64 | RemU64 => op([R, R, W]),
        Fma64 => op([R, R, R | W]).pure(),
        // -- simd --
        Splat32 | Splat64 => op([R, 0, W2]),
        Extract32 => op([R2, 0, W]).aux(3),
        Extract64 => op([R2, 0, W]).aux(1),
        VAnyTrue | AllTrueI32x4 | BitmaskI32x4 => op([R2, 0, W]),
        Replace64 => op([R2, R, W2]).aux(1),
        AddI32x4 | SubI32x4 | MulI32x4 | AddF32x4 | SubF32x4 | MulF32x4 | DivF32x4 | AddF64x2
        | SubF64x2 | MulF64x2 | DivF64x2 | VAnd | VOr | VXor => op([R2, R2, W2]),
        CmpF64x2 => op([R2, R2, W2]).aux(FGE),
        VNot => op([R2, 0, W2]),
        // -- chain-only: a fused step writes `w` too, which no field
        // names, so none is pure --
        RmwShlK32 | RmwReg32 | MulK32R | ShrUK32R | DivUK32R | RemUK32R => op([R, 0, W]),
        RmwShl32 | MulAdd32 | LoadAddF64ShlK => op([R, R, W]),
        AddKBrIfCmp32K => op([R | W, 0, 0]).to(Flow::Guard).aux(GEU),
        AddKBrIfCmp32 => op([R | W, R, 0]).to(Flow::Guard).aux(GEU),
        AndBrIfZ => op([R, R, 0]).to(Flow::Guard),
        // The second condition register is the step's `x`.
        LoadAddF64ShlKIf => op([R, R | W, R]),
        AddK32If => op([R | W, 0, R]),
    }
}

/// Every edge a taken `op` can follow, as a target and an unwind copy
/// (0 = none): the one in `c` / `imm` of a branch, the pool entries of a
/// table (none if the range is out of the pool — [`verify`](super::verify)
/// rejects such a stream), nothing for any other op.
pub(crate) fn dests<'a>(f: &'a RegFunc, op: &RegOp) -> impl Iterator<Item = BrDest> + 'a {
    let flow = op.code.row().flow;
    let own = flow.has_target().then(|| BrDest {
        target: op.c,
        unwind: if flow.has_unwind() { op.imm } else { 0 },
    });
    let pool = match flow {
        Flow::Table => f.dest_pool.get(op.b as usize..=op.b as usize + op.c as usize),
        _ => None,
    };
    own.into_iter().chain(pool.unwrap_or(&[]).iter().copied())
}

/// The ops a taken `op` can go to ([`dests`]).
pub(crate) fn targets<'a>(f: &'a RegFunc, op: &RegOp) -> impl Iterator<Item = u32> + 'a {
    dests(f, op).map(|d| d.target)
}

/// The unwind copies a taken `op` can run ([`dests`]; 0 = none).
pub(crate) fn unwinds<'a>(f: &'a RegFunc, op: &RegOp) -> impl Iterator<Item = u64> + 'a {
    dests(f, op).map(|d| d.unwind)
}

/// An op's register fields paired with their usage.
#[inline]
pub(crate) fn fields(op: &RegOp) -> [(u32, u8); 3] {
    let s = op.code.row().fields;
    [(op.a, s[0]), (op.b, s[1]), (op.c, s[2])]
}

#[inline]
pub(crate) fn width(u: u8) -> u32 {
    1 + (u & WIDE != 0) as u32
}

/// Destination registers an op writes through a register field
/// (`(start, width)`; control ops and calls report `None`).
pub(crate) fn writes(op: &RegOp) -> Option<(u32, u32)> {
    fields(op).into_iter().find(|&(_, u)| u & W != 0).map(|(r, u)| (r, width(u)))
}

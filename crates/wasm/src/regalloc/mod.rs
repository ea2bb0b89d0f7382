//! The register form the flat tiers execute and the module cache stores,
//! and the flat tiers' one optimizer: the pipeline that takes the stream
//! [`crate::ir::compile`] translates from a validated body to the
//! stackless three-address [`RegOp`] form run by [`crate::dispatch`].
//! [`RegFunc::write`] and [`RegFunc::read`] are its wire format.
//!
//! # The register model
//!
//! Validation proves that the operand stack height at every instruction is
//! a static quantity. This pass exploits that: each stack temporary at
//! height `h` is assigned the fixed frame slot `n_local_slots + h`, so
//! locals and stack temporaries share one flat **register space** — a
//! register number is simply an offset into the activation frame, which is
//! a statically-sized window (`frame_size` slots) of the per-instance slot
//! arena. The hot loop performs no push/pop traffic at all: every operand
//! read and result write is `frame[imm]`.
//!
//! Collapsing the spaces also makes most superinstructions unnecessary:
//! `local.get a; local.get b; i32.add` is one [`Rc::Add32`] `{a, b, c}`
//! once value tracking has pointed its register fields at the locals
//! instead of at stack temps. The specialized opcodes that remain are the
//! immediate forms, the addressing forms (scaled / biased loads and
//! stores), the fused compare-and-branches and `Fma64`.
//!
//! # Invariants established here and relied on by the executor
//!
//! * **Frame layout**: registers `0..param_slots` are the parameters
//!   (written by the caller in place), `param_slots..n_local_slots` the
//!   declared locals followed by the mid-end's scratch locals (all zeroed
//!   at call entry), `n_local_slots..frame_size` the stack temporaries
//!   (no init — validation guarantees every read is preceded by a write
//!   on every path).
//! * **Liveness**: a stack temporary is dead once execution moves below
//!   its height; branch unwinding copies the `arity` carried slots from
//!   their static source offset to the target height's offset, so merge
//!   points always find operands at the registers the target expects. The
//!   mid-end holds this as a table, per op one `u64` of the temporaries
//!   possibly live on entry; a temporary at or above bit 64 has no bit and
//!   counts as always live.
//! * **Bounds**: [`verify`] — run on every stream the pipeline produces
//!   and on every stream [`RegFunc::read`] takes from a cache artifact —
//!   proves every register operand `< frame_size`, every branch target in
//!   range, every pool reference valid, every `aux` byte one a handler
//!   decodes and the last op a terminator, which makes the executor's
//!   unchecked frame accesses sound even for hand-corrupted artifacts:
//!   `read` returns `Err` (and the cache recompiles) rather than handing
//!   out code outside the model.
//!
//! The front end hands over the 1:1 translation of the body with each op's
//! entry height; the pipeline ([`optimize`]) is a value-tracking mid-end
//! over that ([`forward`]: symbolic value numbers rewrite reads, compares
//! and addresses and keep recomputed values in scratch locals), then one
//! backward sweep that is both dead-result elimination and the liveness
//! table, and one walk of the register peephole (result sinking, copy
//! forwarding, the scaled-index addressing forms, including scaled stores
//! with a value-computation window, and, above `Tier::Optimizing`, the
//! pair fusions of `fuse_pair`) that steps back after each rewrite and so
//! reaches its own fixpoint; one nop compaction keeps the dispatched
//! stream dense. Above `Tier::Optimizing`, loop-invariant code motion
//! ([`hoist`]) then moves what an innermost loop does not change into the
//! loop's preheader, and the same sweep and walk clean up each loop it
//! rewrote. Every flat tier runs the pipeline, once, at compile time; a
//! cache hit runs none of it.
//!
//! # Layout
//!
//! `shape` is the one description of every opcode ([`Rc::row`]: register
//! fields, control flow, purity, value-numbering class, `aux` range) that
//! every pass reads; `lower` translates an instruction to its op;
//! `forward` is the mid-end, `hoist` its loop-invariant code motion;
//! `verify` states what an executor may assume.
//! Adding a register op is an `Rc` variant, its row in
//! `regalloc/shape.rs`, the rows of the instruction table
//! ([`crate::instr::for_each_instr!`]) that lower to it, and its `exec!`
//! arm ([`crate::ops`]). A chain-only fused code is appended after the
//! last variant (moving [`Rc::LAST`] to it) and no instruction lowers to
//! it: its rule goes in the step-program builder (`closures::fuse` or
//! `closures::predicate`) instead.

use crate::leb128::Reader;
use crate::module::{Function, Module};
use crate::tier::Tier;
use crate::types::slot_count;

mod forward;
mod hoist;
mod lower;
mod shape;
#[cfg(test)]
mod tests;
mod verify;

use forward::{
    branch_targets, compact, eliminate, forward, materialize, peephole, unread_scratch, Scratch,
};
use hoist::hoist;
pub(crate) use lower::lower_plain;
pub(crate) use shape::{dests, fields, targets, writes, Flow};
use verify::verify;

/// One executable register-form operation. 24 bytes, fixed layout; the
/// meaning of `a`/`b`/`c`/`aux`/`imm` depends on [`Rc`] (documented
/// per-family on the enum). By convention `a`/`b` are source registers and
/// `c` is the destination register; branch targets live in `c`, constants
/// and packed unwind info in `imm`, and small immediates (shift counts,
/// comparison codes, lane indices) in `aux`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegOp {
    pub imm: u64,
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub code: Rc,
    pub aux: u8,
}

/// Register-form opcodes. Families share operand conventions:
///
/// * compute ops: `frame[c] = frame[a] ⊕ frame[b]` (binary) or
///   `frame[c] = ⊕ frame[a]` (unary); `Cmp*` carry the comparison in
///   `aux` ([`Cmp`](crate::ir::Cmp) codes for integers, 0..=5 `eq ne lt gt le ge` for
///   floats).
/// * loads: address `= wrap(frame[a].i32 + bias) + offset` with
///   `imm = offset | bias << 32`; result to `c`. Scaled forms add
///   `frame[b]` (base register, `*Shl`) or use a constant base folded
///   into `bias` (`*ShlK`), scaling `frame[a] << aux`.
/// * stores: address register `a`, value register `b`, `imm = offset`
///   (scaled stores move the value to `b`, index to `a`, base to `c`
///   or bias into `imm` high half).
/// * branches: target in `c`, packed unwind copy in `imm`
///   ([`pack_unwind`]), operands in `a`/`b` (`BrIfCmp32K` compares
///   `frame[a]` with the constant in `b`).
/// * calls: `b` = frame-relative offset where the argument slots start
///   (the callee's frame base); `a` = defined-function index
///   (`CallGuest`), host-function index (`CallHost`) or type index
///   (`CallIndirect`, table-index register in `c`).
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rc {
    // -- control --
    Nop = 0,
    Jump,
    Br,
    BrIf,
    /// Branch when `frame[a] == 0` (fused `eqz`/`if` polarity).
    BrIfZ,
    BrIfCmp32,
    BrIfCmp32K,
    BrTable,
    Return,
    Unreachable,
    CallGuest,
    CallHost,
    CallIndirect,
    // -- moves / parametric --
    Copy,
    Copy2,
    /// `frame[a] = cond(frame[c]) ? frame[a] : frame[b]` (dst == a).
    Select,
    Select2,
    GlobalGet,
    GlobalSet,
    // -- constants --
    Const,
    V128Const,
    // -- memory --
    Load32,
    Load64,
    Load8S32,
    Load8U32,
    Load16S32,
    Load16U32,
    Load8S64,
    Load8U64,
    Load16S64,
    Load16U64,
    Load32S64,
    Load32U64,
    V128Load,
    Store8,
    Store16,
    Store32,
    Store64,
    V128Store,
    Load32Shl,
    Load64Shl,
    Load32ShlK,
    Load64ShlK,
    Store32Shl,
    Store64Shl,
    Store32ShlK,
    Store64ShlK,
    MemSize,
    MemGrow,
    MemCopy,
    MemFill,
    // -- i32 --
    Eqz32,
    Cmp32,
    Clz32,
    Ctz32,
    Popcnt32,
    Add32,
    Sub32,
    Mul32,
    DivS32,
    DivU32,
    RemS32,
    RemU32,
    And32,
    Or32,
    Xor32,
    Shl32,
    ShrS32,
    ShrU32,
    Rotl32,
    Rotr32,
    /// `frame[c] = frame[a] +wrap (b as i32)` — with `c == a` a local,
    /// the loop-counter step.
    AddK32,
    ShlK32,
    /// `frame[c] = frame[b] +wrap (frame[a] << aux)` (address form).
    AddShl32,
    // -- i64 --
    Eqz64,
    Cmp64,
    Clz64,
    Ctz64,
    Popcnt64,
    Add64,
    Sub64,
    Mul64,
    DivS64,
    DivU64,
    RemS64,
    RemU64,
    And64,
    Or64,
    Xor64,
    Shl64,
    ShrS64,
    ShrU64,
    Rotl64,
    Rotr64,
    // -- f32 --
    CmpF32,
    AbsF32,
    NegF32,
    CeilF32,
    FloorF32,
    TruncF32,
    NearestF32,
    SqrtF32,
    AddF32,
    SubF32,
    MulF32,
    DivF32,
    MinF32,
    MaxF32,
    CopysignF32,
    // -- f64 --
    CmpF64,
    AbsF64,
    NegF64,
    CeilF64,
    FloorF64,
    TruncF64,
    NearestF64,
    SqrtF64,
    AddF64,
    SubF64,
    MulF64,
    DivF64,
    MinF64,
    MaxF64,
    CopysignF64,
    /// `frame[c] = frame[c] + frame[a] * frame[b]` (both roundings kept).
    Fma64,
    // -- conversions --
    Wrap64,
    TruncF32S32,
    TruncF32U32,
    TruncF64S32,
    TruncF64U32,
    ExtS3264,
    ExtU3264,
    TruncF32S64,
    TruncF32U64,
    TruncF64S64,
    TruncF64U64,
    ConvS32F32,
    ConvU32F32,
    ConvS64F32,
    ConvU64F32,
    Demote,
    ConvS32F64,
    ConvU32F64,
    ConvS64F64,
    ConvU64F64,
    Promote,
    Ext8S32,
    Ext16S32,
    Ext8S64,
    Ext16S64,
    Ext32S64,
    // -- simd (wide registers occupy two slots, low half first) --
    Splat32,
    Splat64,
    Extract32,
    Extract64,
    Replace64,
    AddI32x4,
    SubI32x4,
    MulI32x4,
    AddF32x4,
    SubF32x4,
    MulF32x4,
    DivF32x4,
    AddF64x2,
    SubF64x2,
    MulF64x2,
    DivF64x2,
    CmpF64x2,
    VAnd,
    VOr,
    VXor,
    VNot,
    VAnyTrue,
    AllTrueI32x4,
    BitmaskI32x4,
    /// `frame[c] = cmp(frame[a], b as i32)` — formed by constant
    /// forwarding.
    Cmp32K,
    /// `frame[c] = frame[a] +wrap (imm as i64)` — formed by constant
    /// forwarding. The constant lives in `imm` because `b` is only 32
    /// bits wide.
    AddK64,
    /// `frame[c] = cmp64(frame[a], imm as i64)` with the comparison code
    /// in `aux` — formed by constant forwarding.
    Cmp64K,
    /// `frame[c] = cmp(frame[a] +wrap (imm as i32), b as i32)` with the
    /// comparison code in `aux` — formed by the value-tracking pass when a
    /// compare's operand is `local + k`. With an unsigned code this is the
    /// one-op range test `0 <= x + k < b`.
    CmpAddK32,
    // -- chain-only: fused steps a `Max` step program holds
    // (`crate::closures`); never in a `RegFunc`, never read from bytes --
    /// `RmwShlK32`: the `Load32ShlK; AddK32; Store32ShlK` triple over one
    /// address (`a`, `aux`, `imm`), `k` in `b`; loaded value to `c`,
    /// stored value to the step's `w`.
    RmwShlK32,
    /// The `Load32Shl; AddK32; Store32Shl` triple: base `b`, offset in the
    /// low half of `imm`, `k` in its high half; `c` / `w` as above.
    RmwShl32,
    /// The `Load32; AddK32; Store32` triple over address register `a`,
    /// offset in `imm`, `k` in `b`; `c` / `w` as above.
    RmwReg32,
    /// `w = k; c = a op k` with `k` in `b`: a `Const` fused into the
    /// i32 binary op that reads it.
    MulK32R,
    ShrUK32R,
    DivUK32R,
    RemUK32R,
    /// `a += imm as i32`, then the guard `BrIfCmp32K` on the new `a`: a
    /// loop's increment and test. Taken goes to `c`, not taken to the
    /// step's `w`; no unwind copy.
    AddKBrIfCmp32K,
    /// The same with the guard `BrIfCmp32` (`b` a register).
    AddKBrIfCmp32,
    /// `And32` into register `imm`, then the guard `BrIfZ` on it.
    AndBrIfZ,
    /// `w = a * b; c = w + frame[imm]`: `Mul32` feeding `Add32`.
    MulAdd32,
    /// `w = Load64ShlK(a, aux, imm); c = b + w` (f64): a scaled load
    /// feeding `AddF64` as its second operand.
    LoadAddF64ShlK,
    /// A guard fused with the one `LoadAddF64ShlK` it skips: `t = c & x`
    /// into register `imm as u32` (a `BrIfZ` guard on `r`: `r & r` into
    /// `r`); then, only if `t != 0`, `w = Load64ShlK(a, aux, imm >> 32);
    /// b = b + w`. No control word: both sides go on.
    LoadAddF64ShlKIf,
    /// The same guard fused with the one `AddK32` it skips:
    /// if `t != 0`, `a = a + b`.
    AddK32If,
}

impl Rc {
    /// The last variant: the row table is sized from it, and
    /// `chain_only_opcodes_never_enter_a_stream` fails unless it is last.
    pub(crate) const LAST: Rc = Rc::AddK32If;

    /// The opcode with discriminant `b`, if there is one a register
    /// stream may hold (the chain-only codes are not).
    pub const fn from_byte(b: u8) -> Option<Rc> {
        if b <= Rc::CmpAddK32 as u8 {
            // SAFETY: `Rc` is `repr(u8)` and numbers its variants
            // contiguously from `Nop = 0`, so every byte up to `CmpAddK32`
            // is a variant (`every_byte_is_an_opcode_or_rejected` walks
            // all 256).
            Some(unsafe { std::mem::transmute::<u8, Rc>(b) })
        } else {
            None
        }
    }

    /// One of the fused codes only a compiled chain holds.
    pub const fn chain_only(self) -> bool {
        self as u8 > Rc::CmpAddK32 as u8
    }
}

/// One `br_table` destination in the side pool: resolved target plus the
/// packed unwind copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrDest {
    pub target: u32,
    pub unwind: u64,
}

/// A function in register form: what the flat tiers execute, all of a
/// flat-tier body that stays resident, and what the module cache stores
/// ([`RegFunc::write`] / [`RegFunc::read`]). The executors index frames
/// and pools unchecked on the strength of [`verify`], so outside this
/// crate a `RegFunc` comes only from compiling or from the verifying
/// `read`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegFunc {
    pub code: Vec<RegOp>,
    /// `br_table` destinations; an op references `[b, b + c]` (the entry
    /// at `b + c` is the default).
    pub(crate) dest_pool: Vec<BrDest>,
    /// v128 constants (too wide for `imm`).
    pub(crate) v128_pool: Vec<u128>,
    /// Total frame slots: locals plus the maximum operand-stack height.
    pub(crate) frame_size: u32,
    /// Parameters, declared locals and — last — the `scratch_slots`
    /// compiler-invented locals: everything below the stack temporaries.
    pub(crate) n_local_slots: u32,
    /// Scratch locals the value-tracking pass invented to keep a
    /// recomputed value across blocks (the top of `n_local_slots`).
    pub scratch_slots: u32,
    pub(crate) param_slots: u32,
    pub(crate) result_slots: u32,
}

impl RegFunc {
    pub fn size_bytes(&self) -> usize {
        self.code.len() * std::mem::size_of::<RegOp>()
            + self.dest_pool.len() * std::mem::size_of::<BrDest>()
            + self.v128_pool.len() * 16
    }

    /// Append the wire form — the flat body of a cache artifact:
    ///
    /// ```text
    /// u32 frame_size | u32 scratch_slots
    /// u32 n | n × (u64 imm, u32 a, u32 b, u32 c, u8 code, u8 aux)   code
    /// u32 n | n × (u32 target, u64 unwind)                          dest_pool
    /// u32 n | n × u128                                              v128_pool
    /// ```
    ///
    /// Fixed-width, little-endian, field by field (no padding), and nothing
    /// the module already says: the parameter, result and declared-local
    /// slot counts are recomputed by [`RegFunc::read`].
    pub fn write(&self, out: &mut Vec<u8>) {
        let word = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
        word(out, self.frame_size);
        word(out, self.scratch_slots);
        word(out, self.code.len() as u32);
        for op in &self.code {
            out.extend_from_slice(&op.imm.to_le_bytes());
            word(out, op.a);
            word(out, op.b);
            word(out, op.c);
            out.extend_from_slice(&[op.code as u8, op.aux]);
        }
        word(out, self.dest_pool.len() as u32);
        for d in &self.dest_pool {
            word(out, d.target);
            out.extend_from_slice(&d.unwind.to_le_bytes());
        }
        word(out, self.v128_pool.len() as u32);
        for v in &self.v128_pool {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Read back what [`RegFunc::write`] wrote for `func` of the validated
    /// `module`. The bytes are untrusted: an opcode byte that is no [`Rc`]
    /// or a count the remaining bytes cannot hold is an error, and so is
    /// any stream [`verify`] rejects — what is returned is safe to run.
    pub fn read(r: &mut Reader<'_>, module: &Module, func: &Function) -> Result<RegFunc, String> {
        let fty = &module.types[func.type_idx as usize];
        let param_slots = slot_count(&fty.params);
        let frame_size = word(r)?;
        let scratch_slots = word(r)?;
        let recs = records::<22>(r)?;
        let mut code = Vec::with_capacity(recs.len());
        for rec in recs {
            code.push(RegOp {
                imm: u64::from_le_bytes(field(rec, 0)),
                a: u32::from_le_bytes(field(rec, 8)),
                b: u32::from_le_bytes(field(rec, 12)),
                c: u32::from_le_bytes(field(rec, 16)),
                code: Rc::from_byte(rec[20]).ok_or_else(|| format!("no opcode {}", rec[20]))?,
                aux: rec[21],
            });
        }
        let dest_pool = records::<12>(r)?
            .iter()
            .map(|rec| BrDest {
                target: u32::from_le_bytes(field(rec, 0)),
                unwind: u64::from_le_bytes(field(rec, 4)),
            })
            .collect();
        let v128_pool = records::<16>(r)?.iter().map(|rec| u128::from_le_bytes(*rec)).collect();
        let f = RegFunc {
            code,
            dest_pool,
            v128_pool,
            frame_size,
            n_local_slots: (param_slots + slot_count(&func.locals))
                .checked_add(scratch_slots)
                .ok_or("scratch slot count out of range")?,
            scratch_slots,
            param_slots,
            result_slots: slot_count(&fty.results),
        };
        verify(&f, module)?;
        Ok(f)
    }
}

fn word(r: &mut Reader<'_>) -> Result<u32, String> {
    Ok(u32::from_le_bytes(field(r.read_bytes(4).map_err(|e| e.to_string())?, 0)))
}

/// A counted run of fixed-width `N`-byte records. The count comes from the
/// artifact: taking the bytes first bounds whatever is reserved for the
/// records by the bytes that are left.
fn records<'a, const N: usize>(r: &mut Reader<'a>) -> Result<&'a [[u8; N]], String> {
    let bytes = (word(r)? as usize).checked_mul(N).ok_or("record count out of range")?;
    Ok(r.read_bytes(bytes).map_err(|e| e.to_string())?.as_chunks::<N>().0)
}

/// The `N`-byte field at `at` of one record.
fn field<const N: usize>(rec: &[u8], at: usize) -> [u8; N] {
    rec[at..at + N].try_into().expect("field within its record")
}

/// Registers and unwind offsets must fit the packed branch encoding.
pub(crate) const MAX_REG: u32 = (1 << 24) - 1;

/// Pack a branch's unwind copy: move `arity` slots from frame offset
/// `src` down to `dst`. `0` means "no copy needed" (encoded when the
/// slots are already in place).
pub fn pack_unwind(src: u32, dst: u32, arity: u32) -> Result<u64, String> {
    if arity == 0 || src == dst {
        return Ok(0);
    }
    if arity > 0xffff || src > MAX_REG || dst > MAX_REG {
        return Err("branch unwind exceeds encodable range".into());
    }
    Ok(arity as u64 | (src as u64) << 16 | (dst as u64) << 40)
}

/// Unpack [`pack_unwind`]: `(src, dst, arity)`.
#[inline(always)]
pub fn unwind_parts(imm: u64) -> (usize, usize, usize) {
    (
        ((imm >> 16) & 0xff_ffff) as usize,
        (imm >> 40) as usize,
        (imm & 0xffff) as usize,
    )
}

#[inline]
pub(crate) const fn rop(code: Rc, a: u32, b: u32, c: u32, aux: u8, imm: u64) -> RegOp {
    RegOp { imm, a, b, c, code, aux }
}

/// Float comparison codes shared by `CmpF32`/`CmpF64`/`CmpF64x2`.
pub const FEQ: u8 = 0;
pub const FNE: u8 = 1;
pub const FLT: u8 = 2;
pub const FGT: u8 = 3;
pub const FLE: u8 = 4;
pub const FGE: u8 = 5;

#[inline(always)]
pub fn feval<T: PartialOrd>(code: u8, a: T, b: T) -> bool {
    match code {
        FEQ => a == b,
        FNE => a != b,
        FLT => a < b,
        FGT => a > b,
        FLE => a <= b,
        _ => a >= b,
    }
}

thread_local! {
    /// The pipeline's buffers, reused by every function this thread
    /// compiles.
    static SCRATCH: std::cell::RefCell<Scratch> = Default::default();
}

/// This thread's empty vector for the entry heights of a translated
/// stream, which [`optimize`] gives back.
pub(crate) fn heights() -> Vec<u32> {
    SCRATCH.with_borrow_mut(|s| std::mem::take(&mut s.hs))
}

/// Run the register pipeline over one function's freshly translated
/// stream (`hs` = entry height of each op, `u32::MAX` where no path
/// reaches): the value-tracking mid-end, dead-result elimination, the
/// register peephole (with the pair fusions for every tier above
/// `Optimizing`), nop compaction, loop-invariant code motion (above
/// `Optimizing`), verification. The thread keeps the buffers for its next
/// function unless `release`.
pub(crate) fn optimize(
    module: &Module,
    mut rf: RegFunc,
    mut hs: Vec<u32>,
    tier: Tier,
    release: bool,
) -> Result<RegFunc, String> {
    let fuse_pairs = tier != Tier::Optimizing;
    let mut s = SCRATCH.take();
    // `hs` stays index-aligned with `rf.code` through every pass
    // (compaction remaps it, and the liveness table, alongside the
    // targets). Value tracking runs once, on the raw stream, and the
    // scratch locals it asks for are added before anything is removed;
    // then one sweep removes what is dead and builds the table, and one
    // peephole walk, which steps back after each rewrite, reaches the
    // fixpoint of the rewrites that expose one another (a result sunk into
    // a local completes a multiply-add, an `eqz` flipped into its branch
    // leaves the compare before it next to the branch...).
    forward(&mut rf, &mut s);
    materialize(&mut rf, &mut hs, &mut s);
    let (_, mut lost) = eliminate(&mut rf, &hs, &mut s.live);
    #[cfg(test)]
    tests::against_the_scan(&rf, &hs, &s.live, true);
    branch_targets(&rf, &mut s.ends, &mut s.marks);
    let ops = 0..rf.code.len();
    peephole(&mut rf, &mut hs, &s.marks, &mut s.live, fuse_pairs, ops);
    #[cfg(test)]
    tests::against_the_scan(&rf, &hs, &s.live, false);
    compact(&mut rf, &mut hs, &mut s.live, &mut s.spare);
    // A scratch local whose last reader the sweep removed is dead with its
    // writes, which may leave more dead: the sweep and the walk go again
    // (on no benchmark guest; a value recomputed only for readers that die
    // is). The walk keeps every read of a local it does not move.
    while unread_scratch(&mut rf, lost) {
        lost = !0;
        eliminate(&mut rf, &hs, &mut s.live);
        branch_targets(&rf, &mut s.ends, &mut s.marks);
        let ops = 0..rf.code.len();
        peephole(&mut rf, &mut hs, &s.marks, &mut s.live, fuse_pairs, ops);
        compact(&mut rf, &mut hs, &mut s.live, &mut s.spare);
    }
    // Above `Optimizing`, loop-invariant code motion runs on what the walk
    // left — constants already folded into `K` forms, pairs already fused
    // — and the same walk runs again over each loop it rewrote.
    if fuse_pairs {
        hoist(&mut rf, &mut hs, &mut s);
    }
    #[cfg(test)]
    tests::at_the_fixpoint(&rf, &hs, fuse_pairs);
    // The stream may sit in a buffer sized for an earlier function.
    rf.code.shrink_to_fit();
    if !release {
        hs.clear();
        s.hs = hs;
        SCRATCH.set(s);
    }
    verify(&rf, module)?;
    Ok(rf)
}

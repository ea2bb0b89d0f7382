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
//!   points always find operands at the registers the target expects.
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
//! and addresses and keep recomputed values in scratch locals), then
//! dead-result elimination and a register peephole (result sinking; the
//! scaled-index addressing forms, including scaled stores with a
//! value-computation window; and, above `Tier::Optimizing`, the
//! adjacent-pair fusions of [`fuse_pair`]) iterated to a bounded fixpoint
//! with a nop compaction that keeps the dispatched stream dense. Every
//! flat tier runs it, once, at compile time; a cache hit runs none of it.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::instr::Instr;
use crate::ir::Cmp;
use crate::leb128::Reader;
use crate::module::{Function, Module};
use crate::tier::Tier;
use crate::types::slot_count;

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
///   `aux` ([`Cmp`] codes for integers, 0..=5 `eq ne lt gt le ge` for
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
    // -- chain-only: fused steps the superblock tier builds
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
}

impl Rc {
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

/// Run the register pipeline over one function's freshly translated
/// stream (`hs` = entry height of each op, `u32::MAX` where no path
/// reaches): the value-tracking mid-end, register peephole (with the
/// adjacent-pair fusions for every tier above `Optimizing`), nop
/// compaction, verification.
pub(crate) fn optimize(
    module: &Module,
    mut rf: RegFunc,
    mut hs: Vec<u32>,
    tier: Tier,
) -> Result<RegFunc, String> {
    let fuse_pairs = tier != Tier::Optimizing;
    // `hs` stays index-aligned with `rf.code` through every pass
    // (compaction remaps it alongside the targets).
    compact(&mut rf, &mut hs);
    // Value tracking runs once, on the raw stream, and the scratch locals
    // it asks for are added before anything is removed; dead-code
    // elimination and addressing fusion then iterate to a bounded
    // fixpoint, each exposing opportunities for the other (a forwarded
    // constant turned Mul32 into ShlK32, which the addressing pass folds
    // into a scaled load, which leaves the Copy dead...).
    let (mut changed, slots) = forward(&mut rf);
    materialize(&mut rf, &mut hs, &slots);
    for _ in 0..6 {
        changed |= eliminate(&mut rf, &hs);
        changed |= peephole(&mut rf, &mut hs, fuse_pairs);
        if !changed {
            break;
        }
        compact(&mut rf, &mut hs);
        changed = false;
    }
    verify(&rf, module)?;
    Ok(rf)
}

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

// --- register peephole ---

/// How an opcode uses one of its register fields (`a`, `b`, `c`): any
/// combination of read, written and two-slots-wide; `0` = the field is
/// not a register (unused, an immediate, a pool index or a branch target).
const R: u8 = 1;
const W: u8 = 2;
const WIDE: u8 = 4;

/// The register fields of every opcode, `[a, b, c]` — the one table the
/// passes below read operands from ([`writes`], [`reads_reg`], operand
/// forwarding, temp renumbering, [`verify`]). Not expressible per field
/// and handled by those callers: the packed unwind copy of the branch
/// forms (and the `br_table` pool), `Return`'s result range starting at
/// `a`, and the open argument window of the calls starting at `b`.
const fn shape(code: Rc) -> [u8; 3] {
    use Rc::*;
    const R2: u8 = R | WIDE;
    const W2: u8 = W | WIDE;
    match code {
        Nop | Unreachable | Jump | Br | Return | CallGuest | CallHost => [0, 0, 0],
        BrIf | BrIfZ | BrIfCmp32K | BrTable => [R, 0, 0],
        BrIfCmp32 => [R, R, 0],
        CallIndirect => [0, 0, R],
        Copy => [R, 0, W],
        Copy2 => [R2, 0, W2],
        // `a` is kept or overwritten with `b` depending on `c`.
        Select => [R | W, R, R],
        Select2 => [R2 | W, R2, R],
        GlobalGet | Const | MemSize => [0, 0, W],
        GlobalSet => [0, R, 0],
        V128Const => [0, 0, W2],
        Load32 | Load64 | Load8S32 | Load8U32 | Load16S32 | Load16U32 | Load8S64 | Load8U64
        | Load16S64 | Load16U64 | Load32S64 | Load32U64 | Load32ShlK | Load64ShlK | MemGrow => {
            [R, 0, W]
        }
        V128Load => [R, 0, W2],
        Store8 | Store16 | Store32 | Store64 | Store32ShlK | Store64ShlK => [R, R, 0],
        V128Store => [R, R2, 0],
        Load32Shl | Load64Shl => [R, R, W],
        Store32Shl | Store64Shl | MemCopy | MemFill => [R, R, R],
        // Unary compute and the immediate forms: a → c.
        Eqz32 | Clz32 | Ctz32 | Popcnt32 | Eqz64 | Clz64 | Ctz64 | Popcnt64 | AbsF32 | NegF32
        | CeilF32 | FloorF32 | TruncF32 | NearestF32 | SqrtF32 | AbsF64 | NegF64 | CeilF64
        | FloorF64 | TruncF64 | NearestF64 | SqrtF64 | Wrap64 | TruncF32S32 | TruncF32U32
        | TruncF64S32 | TruncF64U32 | ExtS3264 | ExtU3264 | TruncF32S64 | TruncF32U64
        | TruncF64S64 | TruncF64U64 | ConvS32F32 | ConvU32F32 | ConvS64F32 | ConvU64F32
        | Demote | ConvS32F64 | ConvU32F64 | ConvS64F64 | ConvU64F64 | Promote | Ext8S32
        | Ext16S32 | Ext8S64 | Ext16S64 | Ext32S64 | AddK32 | ShlK32 | Cmp32K | AddK64
        | Cmp64K | CmpAddK32 => [R, 0, W],
        // Binary compute: a, b → c.
        Cmp32 | Cmp64 | CmpF32 | CmpF64 | Add32 | Sub32 | Mul32 | DivS32 | DivU32 | RemS32
        | RemU32 | And32 | Or32 | Xor32 | Shl32 | ShrS32 | ShrU32 | Rotl32 | Rotr32 | Add64
        | Sub64 | Mul64 | DivS64 | DivU64 | RemS64 | RemU64 | And64 | Or64 | Xor64 | Shl64
        | ShrS64 | ShrU64 | Rotl64 | Rotr64 | AddF32 | SubF32 | MulF32 | DivF32 | MinF32
        | MaxF32 | CopysignF32 | AddF64 | SubF64 | MulF64 | DivF64 | MinF64 | MaxF64
        | CopysignF64 | AddShl32 => [R, R, W],
        Fma64 => [R, R, R | W],
        Splat32 | Splat64 => [R, 0, W2],
        Extract32 | Extract64 | VAnyTrue | AllTrueI32x4 | BitmaskI32x4 => [R2, 0, W],
        Replace64 => [R2, R, W2],
        AddI32x4 | SubI32x4 | MulI32x4 | AddF32x4 | SubF32x4 | MulF32x4 | DivF32x4 | AddF64x2
        | SubF64x2 | MulF64x2 | DivF64x2 | CmpF64x2 | VAnd | VOr | VXor => [R2, R2, W2],
        VNot => [R2, 0, W2],
        RmwShlK32 | RmwReg32 | MulK32R | ShrUK32R | DivUK32R | RemUK32R => [R, 0, W],
        RmwShl32 | MulAdd32 | LoadAddF64ShlK => [R, R, W],
        AddKBrIfCmp32K => [R | W, 0, 0],
        AddKBrIfCmp32 => [R | W, R, 0],
        AndBrIfZ => [R, R, 0],
    }
}

/// An op's register fields paired with their [`shape`] entry.
#[inline]
pub(crate) fn fields(op: &RegOp) -> [(u32, u8); 3] {
    let s = shape(op.code);
    [(op.a, s[0]), (op.b, s[1]), (op.c, s[2])]
}

#[inline]
fn width(u: u8) -> u32 {
    1 + (u & WIDE != 0) as u32
}

/// Destination registers an op writes through a register field
/// (`(start, width)`; control ops and calls report `None`).
pub(crate) fn writes(op: &RegOp) -> Option<(u32, u32)> {
    fields(op).into_iter().find(|&(_, u)| u & W != 0).map(|(r, u)| (r, width(u)))
}

/// True if the op is safe to sit inside a store-fusion window: pure
/// straight-line data flow (no control transfer, no calls — calls can
/// re-enter the guest and observe memory ordering). The superblock tier
/// reuses this as its "plain fallthrough step" predicate: exactly these
/// ops can run inside a compiled chain without touching the frame stack
/// or the instruction pointer.
pub(crate) fn window_safe(op: &RegOp) -> bool {
    use Rc::*;
    !matches!(
        op.code,
        Jump | Br
            | BrIf
            | BrIfZ
            | BrIfCmp32
            | BrIfCmp32K
            | BrTable
            | Return
            | Unreachable
            | CallGuest
            | CallHost
            | CallIndirect
    )
}

/// True if the op can be discarded when its result is dead: no traps, no
/// memory or global writes, no control effects. (Float arithmetic never
/// traps in Wasm; integer div/rem and float→int truncation do.)
fn is_pure(code: Rc) -> bool {
    use Rc::*;
    matches!(
        code,
        Copy | Copy2
            | Const
            | V128Const
            | GlobalGet
            | MemSize
            | Eqz32
            | Cmp32
            | Cmp32K
            | CmpAddK32
            | Clz32
            | Ctz32
            | Popcnt32
            | Add32
            | Sub32
            | Mul32
            | And32
            | Or32
            | Xor32
            | Shl32
            | ShrS32
            | ShrU32
            | Rotl32
            | Rotr32
            | AddK32
            | ShlK32
            | AddShl32
            | AddK64
            | Cmp64K
            | Eqz64
            | Cmp64
            | Clz64
            | Ctz64
            | Popcnt64
            | Add64
            | Sub64
            | Mul64
            | And64
            | Or64
            | Xor64
            | Shl64
            | ShrS64
            | ShrU64
            | Rotl64
            | Rotr64
            | CmpF32
            | AbsF32
            | NegF32
            | CeilF32
            | FloorF32
            | TruncF32
            | NearestF32
            | SqrtF32
            | AddF32
            | SubF32
            | MulF32
            | DivF32
            | MinF32
            | MaxF32
            | CopysignF32
            | CmpF64
            | AbsF64
            | NegF64
            | CeilF64
            | FloorF64
            | TruncF64
            | NearestF64
            | SqrtF64
            | AddF64
            | SubF64
            | MulF64
            | DivF64
            | MinF64
            | MaxF64
            | CopysignF64
            | Fma64
            | Wrap64
            | ExtS3264
            | ExtU3264
            | ConvS32F32
            | ConvU32F32
            | ConvS64F32
            | ConvU64F32
            | Demote
            | ConvS32F64
            | ConvU32F64
            | ConvS64F64
            | ConvU64F64
            | Promote
            | Ext8S32
            | Ext16S32
            | Ext8S64
            | Ext16S64
            | Ext32S64
    )
}

/// True if executing `op` reads register `t` (exact: the [`shape`] table
/// plus branch unwind source ranges, return result ranges, and a
/// conservative open range for call arguments).
fn reads_reg(op: &RegOp, f: &RegFunc, t: u32) -> bool {
    use Rc::*;
    let range = |s: u32, n: u32| t.wrapping_sub(s) < n;
    let sh = shape(op.code);
    if (sh[0] & R != 0 && range(op.a, width(sh[0])))
        || (sh[1] & R != 0 && range(op.b, width(sh[1])))
        || (sh[2] & R != 0 && range(op.c, width(sh[2])))
    {
        return true;
    }
    let unwind_reads = |imm: u64| {
        let (src, _, arity) = unwind_parts(imm);
        range(src as u32, arity as u32)
    };
    match op.code {
        Br | BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K => unwind_reads(op.imm),
        BrTable => br_dests(f, op).iter().any(|d| unwind_reads(d.unwind)),
        Return => range(op.a, f.result_slots),
        // Calls consume their argument window; its width depends on the
        // callee, so treat everything at or above the window as read.
        CallGuest | CallHost | CallIndirect => t >= op.b,
        _ => false,
    }
}

/// The pool entries of a `BrTable` op (empty if the reference is out of
/// range — [`verify`] rejects such streams before they run).
fn br_dests<'a>(f: &'a RegFunc, op: &RegOp) -> &'a [BrDest] {
    let start = op.b as usize;
    f.dest_pool.get(start..start + op.c as usize + 1).unwrap_or(&[])
}

/// True if `op` unconditionally overwrites register `t` (kills the value
/// that was there). `Select`/`Select2` write conditionally and so never
/// count.
fn definitely_writes(op: &RegOp, t: u32) -> bool {
    if matches!(op.code, Rc::Select | Rc::Select2) {
        return false;
    }
    writes(op).is_some_and(|(s, w)| s <= t && t < s + w)
}

/// Is the value written to register `t` at op `def` possibly read later?
/// Uses the static heights as the liveness oracle: at an op whose entry
/// height is `h`, every register `>= n_local_slots + h` is dead (the
/// operand stack has popped below it; any later value at that offset is a
/// fresh definition). Conservative on calls, unknown heights and bounded
/// scan length.
fn value_live(f: &RegFunc, hs: &[u32], def: usize, t: u32) -> bool {
    if t < f.n_local_slots {
        return true; // locals are always live (the heights oracle only covers temps)
    }
    live_from(f, hs, def + 1, t, &mut 64)
}

/// The heights oracle: whether temp `t` is (possibly) live when control
/// enters op `j`.
fn live_at(f: &RegFunc, hs: &[u32], j: u32, t: u32) -> bool {
    match hs.get(j as usize) {
        Some(&h) if h != u32::MAX => t < f.n_local_slots + h,
        _ => true, // unknown height: conservative
    }
}

/// Whether temp `t` is (possibly) live on the taken path of the branch at
/// `j`.
fn live_if_taken(f: &RegFunc, hs: &[u32], j: usize, t: u32, budget: &mut u32) -> bool {
    let target = f.code[j].c;
    if target as usize > j {
        live_from(f, hs, target as usize, t, budget)
    } else {
        live_at(f, hs, target, t)
    }
}

/// [`value_live`]'s scan from op `j`, sharing one step budget across the
/// paths it follows. Forward branches are followed into their target —
/// the target's own entry height says little once the ops that began its
/// block are gone — backward ones fall back to the target's height.
fn live_from(f: &RegFunc, hs: &[u32], mut j: usize, t: u32, budget: &mut u32) -> bool {
    use Rc::*;
    let live_at = |j: u32| live_at(f, hs, j, t);
    loop {
        if *budget == 0 || j >= f.code.len() {
            return true; // out of budget, or fell off the end (corrupt input)
        }
        *budget -= 1;
        // Check the op's own reads before the height oracle: peephole
        // fusion can relocate a read below the height its operand was
        // born at (the fused op's entry height is patched, but a stale
        // caller-cached `hs` must still never hide a direct read).
        let op = &f.code[j];
        if reads_reg(op, f, t) {
            return true;
        }
        if !live_at(j as u32) {
            return false;
        }
        if definitely_writes(op, t) {
            return false;
        }
        let forward = op.c as usize > j;
        match op.code {
            Jump | Br if forward => j = op.c as usize,
            Jump | Br => return live_at(op.c),
            BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K => {
                if live_if_taken(f, hs, j, t, budget) {
                    return true;
                }
                j += 1; // dead if taken; keep scanning the fallthrough
            }
            BrTable => return br_dests(f, op).iter().any(|d| live_at(d.target)),
            Return | Unreachable => return false,
            _ => j += 1,
        }
    }
}

// --- value tracking ---

/// A value number: an index into [`Values::values`]. Two registers with
/// the same number hold bit-identical slots. `NONE` = nothing is known
/// (a fresh opaque number is minted when the register is first read).
type Vn = u32;
const NONE: Vn = 0;

/// What a value number stands for. Operands are value numbers, not
/// registers, so an expression stays valid when its source registers are
/// overwritten; what can go stale is only *where* a value lives.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Expr {
    /// An unknown but fixed value: a register's content where it was
    /// first read. Never interned.
    Opaque,
    Const(u64),
    /// `from_i32(base.i32() * mul + add)`, wrapping; `base` is neither
    /// `Aff` nor `Const` and `mul != 0`.
    Aff { base: Vn, mul: u32, add: u32 },
    /// `from_bool(cmp(x.i32(), k as i32))` over the [`Cmp`] byte codes.
    CmpK { x: Vn, cmp: u8, k: u32 },
    /// Any other pure integer op of one register; `imm` is its immediate.
    Un { code: Rc, aux: u8, imm: u64, a: Vn },
    /// A pure integer op of two registers (commutative ones sorted).
    Bin { code: Rc, aux: u8, a: Vn, b: Vn },
}

/// Virtual scratch slots tracked beyond the frame by [`forward`]: a value
/// computed into a stack temporary is also recorded in one of these, and
/// a slot becomes a real scratch local ([`materialize`]) only if a later
/// op that recomputes the value while the slot still holds it on every
/// path has a result something reads. A slot keeps one value from one
/// reset to the next (when the pool is full, later values simply get
/// none), so the pool bounds the abstract state, not the function.
const POOL: u32 = 64;

/// One thing [`forward`] did with a virtual slot: op `at` involved `slot`
/// while it held `value`.
#[derive(Clone, Copy)]
struct SlotRef {
    at: u32,
    slot: u32,
    value: Vn,
}

/// What [`forward`] did with the virtual slots, for [`materialize`]:
/// every op whose result a slot was assigned (`defs`), every op rewritten
/// to copy from a slot (`hits`), and every read of a stack temporary made
/// while a slot held the same value (`uses`, with the index of the field
/// and the temporary it named).
#[derive(Default)]
struct Slots {
    defs: Vec<SlotRef>,
    hits: Vec<SlotRef>,
    uses: Vec<(SlotRef, usize, u32)>,
}

/// The hasher of the expression index: multiply-and-fold over the
/// integers an [`Expr`] is made of (FxHash-style). The index is consulted
/// for every integer op of every function: SipHash there adds 4.6 ms to
/// the 63 ms the benchmark's 650-KB module takes to compile.
#[derive(Default)]
struct Mix(u64);

impl Mix {
    #[inline]
    fn add(&mut self, v: u64) {
        let x = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 29);
    }
}

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b as u64));
    }
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64)
    }
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64)
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v)
    }
    fn write_isize(&mut self, v: isize) {
        self.add(v as u64)
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One numbered value: what it stands for, whether it is known to be 0
/// or 1, and a local, scratch or virtual slot that held it when last seen
/// (`u32::MAX` = none) — a hint, validated against `Values::val` on use.
struct Value {
    expr: Expr,
    is_bool: bool,
    home: u32,
}

/// The value table plus the abstract register state of [`forward`].
struct Values {
    values: Vec<Value>,
    /// Expression → number.
    index: HashMap<Expr, Vn, BuildHasherDefault<Mix>>,
    /// Current number of each frame register, then of each virtual slot.
    val: Vec<Vn>,
    /// Registers below this are locals (always safe to read); the virtual
    /// slots start at `frame`.
    locals: u32,
    frame: u32,
}

impl Values {
    fn new(f: &RegFunc, pool: u32) -> Self {
        let mut vs = Values {
            values: Vec::with_capacity(f.code.len() + f.n_local_slots as usize + 1),
            index: HashMap::default(),
            val: vec![NONE; (f.frame_size + pool) as usize],
            locals: f.n_local_slots,
            frame: f.frame_size,
        };
        vs.opaque(); // number 0 is `NONE`
        vs
    }

    fn expr(&self, v: Vn) -> Expr {
        self.values[v as usize].expr
    }

    fn is_bool(&self, v: Vn) -> bool {
        self.values[v as usize].is_bool
    }

    fn opaque(&mut self) -> Vn {
        self.values.push(Value { expr: Expr::Opaque, is_bool: false, home: u32::MAX });
        (self.values.len() - 1) as Vn
    }

    fn intern(&mut self, e: Expr) -> Vn {
        if let Some(&v) = self.index.get(&e) {
            return v;
        }
        let is_bool = match e {
            Expr::Const(k) => k <= 1,
            Expr::CmpK { .. } => true,
            Expr::Un { code, .. } => matches!(code, Rc::Eqz64 | Rc::Cmp64K),
            Expr::Bin { code, a, b, .. } => match code {
                Rc::Cmp32 | Rc::Cmp64 => true,
                Rc::And32 | Rc::Or32 | Rc::Xor32 => self.is_bool(a) && self.is_bool(b),
                _ => false,
            },
            Expr::Opaque | Expr::Aff { .. } => false,
        };
        self.values.push(Value { expr: e, is_bool, home: u32::MAX });
        let v = (self.values.len() - 1) as Vn;
        self.index.insert(e, v);
        v
    }

    /// Forget everything at a loop header (or any point reached by a
    /// backward branch); locals get their fresh numbers eagerly so the
    /// paths of a later fork agree on them.
    fn reset(&mut self) {
        self.val.fill(NONE);
        for r in 0..self.locals {
            let v = self.opaque();
            self.set(r, v);
        }
    }

    /// The number of the value in register `r`, minting one if unknown.
    fn read(&mut self, r: u32) -> Vn {
        match self.val.get(r as usize).copied() {
            Some(NONE) => {
                let v = self.opaque();
                self.set(r, v);
                v
            }
            Some(v) => v,
            None => self.opaque(), // out of frame: `verify` rejects it later
        }
    }

    fn konst(&self, r: u32) -> Option<u64> {
        match self.val.get(r as usize).map(|&v| self.expr(v)) {
            Some(Expr::Const(k)) => Some(k),
            _ => None,
        }
    }

    fn is_const(&self, v: Vn, k: u64) -> bool {
        self.expr(v) == Expr::Const(k)
    }

    /// The number of `x * mul + add` (wrapping i32 arithmetic).
    fn affine(&mut self, x: Vn, mul: u32, add: u32) -> Vn {
        let (base, m, a) = match self.expr(x) {
            Expr::Const(k) => {
                let k = (k as u32).wrapping_mul(mul).wrapping_add(add);
                return self.intern(Expr::Const(k as u64));
            }
            Expr::Aff { base, mul, add } => (base, mul, add),
            _ => (x, 1, 0),
        };
        let add = a.wrapping_mul(mul).wrapping_add(add);
        self.intern(match m.wrapping_mul(mul) {
            0 => Expr::Const(add as u64),
            mul => Expr::Aff { base, mul, add },
        })
    }

    /// The number of `cmp(x, k)`, folded when `x` is a constant.
    fn cmpk(&mut self, x: Vn, cmp: u8, k: u32) -> Vn {
        let e = match (self.expr(x), Cmp::from_byte(cmp)) {
            (Expr::Const(c), Some(cmp)) => Expr::Const(cmp.eval(c as i32, k as i32) as u64),
            _ => Expr::CmpK { x, cmp, k },
        };
        self.intern(e)
    }

    /// The number of a generic two-operand op.
    fn binary(&mut self, op: &RegOp, commutes: bool) -> Vn {
        let (mut a, mut b) = (self.read(op.a), self.read(op.b));
        if commutes && a > b {
            std::mem::swap(&mut a, &mut b);
        }
        self.intern(Expr::Bin { code: op.code, aux: op.aux, a, b })
    }

    /// `(x >=s 0) & (x <s K)` with `K >= 0` is the unsigned `x <u K`.
    fn range_merge(&mut self, va: Vn, vb: Vn) -> Option<Vn> {
        let (Expr::CmpK { x, cmp: ca, k: ka }, Expr::CmpK { x: xb, cmp: cb, k: kb }) =
            (self.expr(va), self.expr(vb))
        else {
            return None;
        };
        if x != xb {
            return None;
        }
        let (ges, gts, lts, les) =
            (Cmp::GeS as u8, Cmp::GtS as u8, Cmp::LtS as u8, Cmp::LeS as u8);
        let lower = |c: u8, k: u32| (c == ges && k == 0) || (c == gts && k == u32::MAX);
        let upper = |c: u8, k: u32| match k as i32 {
            k if k < 0 => None,
            k if c == lts => Some(k as u32),
            k if c == les && k < i32::MAX => Some(k as u32 + 1),
            _ => None,
        };
        let bound = match (lower(ca, ka), lower(cb, kb)) {
            (true, _) => upper(cb, kb),
            (_, true) => upper(ca, ka),
            _ => None,
        }?;
        Some(self.cmpk(x, Cmp::LtU as u8, bound))
    }

    fn holds(&self, r: u32, v: Vn) -> bool {
        r != u32::MAX && self.val[r as usize] == v
    }

    /// A local (or scratch local) currently holding `v`.
    fn local_home(&self, v: Vn) -> Option<u32> {
        let h = self.values[v as usize].home;
        (h < self.locals && self.holds(h, v)).then_some(h)
    }

    /// A local, or else a virtual slot, currently holding `v`.
    fn any_home(&self, v: Vn) -> Option<u32> {
        let h = self.values[v as usize].home;
        self.holds(h, v).then_some(h)
    }

    /// Record that register (or virtual slot) `r` now holds `v`.
    fn set(&mut self, r: u32, v: Vn) {
        let Some(slot) = self.val.get_mut(r as usize) else { return };
        *slot = v;
        // Only locals and virtual slots may be read back later; a local
        // beats a virtual slot, which needs a scratch local materialized.
        if r < self.locals || r >= self.frame {
            let h = self.values[v as usize].home;
            if !self.holds(h, v) || (h >= self.frame && r < self.locals) {
                self.values[v as usize].home = r;
            }
        }
    }

    fn kill(&mut self, r: u32, n: u32) {
        for r in r..r.saturating_add(n).min(self.frame) {
            self.val[r as usize] = NONE;
        }
    }

    /// The state a taken branch hands its target: the current one with
    /// the branch's unwind copy applied.
    fn unwound(&self, unwind: u64) -> Vec<Vn> {
        let mut out = self.val.clone();
        let (src, dst, arity) = unwind_parts(unwind);
        if unwind != 0 && src + arity <= self.frame as usize && dst + arity <= self.frame as usize
        {
            out[dst..dst + arity].copy_from_slice(&self.val[src..src + arity]);
        }
        out
    }
}

/// Keep only what two paths into a join agree on.
fn meet(into: &mut [Vn], other: &[Vn]) {
    for (a, b) in into.iter_mut().zip(other) {
        if *a != *b {
            *a = NONE;
        }
    }
}

/// How [`forward`] numbers the result of a pure integer op it has no
/// dedicated rule for.
enum Generic {
    /// Of `a`, with `imm`/`aux` as immediates.
    Unary,
    Binary,
    /// Binary, operands in either order.
    Commutative,
}

/// `None` = the result is not tracked (impure, floating point, wide, or
/// handled explicitly).
fn generic_class(code: Rc) -> Option<Generic> {
    use Rc::*;
    Some(match code {
        Clz32 | Ctz32 | Popcnt32 | Eqz64 | Clz64 | Ctz64 | Popcnt64 | Wrap64 | ExtS3264
        | ExtU3264 | Ext8S32 | Ext16S32 | Ext8S64 | Ext16S64 | Ext32S64 | AddK64 | Cmp64K => {
            Generic::Unary
        }
        Sub32 | Shl32 | ShrS32 | ShrU32 | Rotl32 | Rotr32 | Cmp32 | Sub64 | Shl64 | ShrS64
        | ShrU64 | Rotl64 | Rotr64 | Cmp64 => Generic::Binary,
        Add32 | Mul32 | And32 | Or32 | Xor32 | Add64 | Mul64 | And64 | Or64 | Xor64 => {
            Generic::Commutative
        }
        _ => return None,
    })
}

/// The value-tracking mid-end of the flat tiers: one forward walk that
/// numbers every integer value symbolically ([`Expr`]) and rewrites ops
/// from what it knows.
///
/// * **Forwarding**: a read of a stack temporary whose value also lives
///   in a local reads the local (`local.get` residue), and known
///   constants fold into the immediate forms (`AddK32`, `ShlK32`,
///   `Cmp32K`, multiply-by-power-of-two into shifts).
///   Reads are only ever redirected to *locals*: a forwarded read of a
///   stack temporary could sit above the abstract stack height, where the
///   heights oracle lets [`eliminate`] delete its producer.
/// * **Symbolic rewrites**: an address `(local * 2^s) + k` feeding a
///   32/64-bit load or store becomes the `*ShlK` form with `k` in the
///   *wrapping* displacement (never in the offset, which is added without
///   wrapping); a compare of `local + k` reads the local directly
///   ([`Rc::CmpAddK32`]); `(x >= 0) & (x < K)` becomes one unsigned
///   compare; `1 & b` with `b` a boolean becomes `b`. The producers die in
///   [`eliminate`].
/// * **Reuse**: an op recomputing a value a local already holds becomes a
///   `Copy`. A value computed into a stack temporary is remembered in a
///   virtual slot; when it is recomputed while the slot still holds it,
///   the slot is materialized as a scratch local (between the declared
///   locals and the temporaries, which are renumbered) that every
///   computation of the value writes and every reader of it reads.
///
/// State flows across forward joins — a target whose predecessors are all
/// earlier in the stream meets their states — and resets at anything a
/// backward branch reaches, so every cycle passes a reset and a value
/// number denotes one run-time value. Calls clobber their argument window
/// and everything above it. Returns whether anything changed, and the
/// virtual slots' bookkeeping: ops that hit one read register
/// `frame_size + slot` until [`materialize`] runs.
fn forward(f: &mut RegFunc) -> (bool, Slots) {
    use Rc::*;
    // Per op: 1 = some branch targets it, 2 = a backward branch does.
    let mut marks = vec![0u8; f.code.len() + 1];
    for (i, op) in f.code.iter().enumerate() {
        each_target(f, op, |t| {
            if let Some(m) = marks.get_mut(t as usize) {
                *m |= if t as usize <= i { 2 } else { 1 };
            }
        });
    }
    let (h0, fs) = (f.n_local_slots, f.frame_size);
    let pool = if fs + 2 * POOL <= MAX_REG { POOL } else { 0 };
    let mut vs = Values::new(f, pool);
    vs.reset();
    // The states handed to forward branch targets, met as they arrive,
    // waiting for the walk to reach them.
    let mut pending: HashMap<u32, Vec<Vn>> = HashMap::new();
    // False after an unconditional transfer, until a target is reached.
    let mut live = true;
    let mut changed = false;
    let mut slots = Slots::default();
    // The value each virtual slot belongs to since the last reset.
    let mut owner: Vec<Vn> = Vec::new();

    for i in 0..f.code.len() {
        if marks[i] != 0 {
            let waiting = pending.remove(&(i as u32));
            if marks[i] & 2 != 0 {
                vs.reset();
                owner.clear();
                live = true;
            } else if let Some(state) = waiting {
                if live {
                    meet(&mut vs.val, &state);
                } else {
                    vs.val = state;
                    live = true;
                }
            }
        }
        if !live {
            continue;
        }
        let mut op = f.code[i];
        let before = op;

        // 1. Read a local instead of a stack temporary holding its value
        // (or note the virtual slot that does, should it become one).
        let sh = shape(op.code);
        for (n, r) in [&mut op.a, &mut op.b, &mut op.c].into_iter().enumerate() {
            if sh[n] == R && *r >= h0 && *r < fs {
                let v = vs.val[*r as usize];
                match vs.any_home(v) {
                    Some(h) if h < h0 => *r = h,
                    Some(h) => {
                        let at = SlotRef { at: i as u32, slot: h - fs, value: v };
                        slots.uses.push((at, n, *r));
                    }
                    None => {}
                }
            }
        }

        // 2. One dispatch per op: fold known constants into immediate
        // forms (a folded op goes round again as what it became), number
        // the result, and rewrite from the operands' symbolic values.
        let res: Option<Vn> = loop {
            let folded = match op.code {
                // Self-copy (a `local.set x; local.get x` round-trip
                // whose set was forwarded): pure no-op.
                Copy if op.a == op.c => rop(Nop, 0, 0, 0, 0, 0),
                Copy => break Some(vs.read(op.a)),
                Const => break Some(vs.intern(Expr::Const(op.imm))),
                AddK32 => {
                    let x = vs.read(op.a);
                    break Some(vs.affine(x, 1, op.b));
                }
                ShlK32 => {
                    let x = vs.read(op.a);
                    break Some(vs.affine(x, 1u32.wrapping_shl(op.aux as u32), 0));
                }
                Cmp32K => {
                    let x = vs.read(op.a);
                    break Some(vs.cmpk(x, op.aux, op.b));
                }
                Eqz32 => {
                    let x = vs.read(op.a);
                    break Some(vs.cmpk(x, Cmp::Eq as u8, 0));
                }
                CmpAddK32 => {
                    let x = vs.read(op.a);
                    let x = vs.affine(x, 1, op.imm as u32);
                    break Some(vs.cmpk(x, op.aux, op.b));
                }
                Add32 => match (vs.konst(op.a), vs.konst(op.b)) {
                    (_, Some(k)) => rop(AddK32, op.a, k as u32, op.c, 0, 0),
                    (Some(k), _) => rop(AddK32, op.b, k as u32, op.c, 0, 0),
                    _ => break Some(vs.binary(&op, true)),
                },
                Sub32 => match vs.konst(op.b) {
                    Some(k) => rop(AddK32, op.a, (k as i32).wrapping_neg() as u32, op.c, 0, 0),
                    None => break Some(vs.binary(&op, false)),
                },
                Shl32 => match vs.konst(op.b) {
                    Some(k) => rop(ShlK32, op.a, 0, op.c, (k as u32 & 31) as u8, 0),
                    None => break Some(vs.binary(&op, false)),
                },
                Mul32 => {
                    let (x, k) = match (vs.konst(op.a), vs.konst(op.b)) {
                        (_, Some(k)) => (op.a, k as u32),
                        (Some(k), _) => (op.b, k as u32),
                        _ => break Some(vs.binary(&op, true)),
                    };
                    if k.is_power_of_two() {
                        rop(ShlK32, x, 0, op.c, k.trailing_zeros() as u8, 0)
                    } else {
                        let x = vs.read(x);
                        break Some(vs.affine(x, k, 0));
                    }
                }
                Cmp32 => match vs.konst(op.b) {
                    Some(k) => rop(Cmp32K, op.a, k as u32, op.c, op.aux, 0),
                    None => break Some(vs.binary(&op, false)),
                },
                Add64 => match (vs.konst(op.a), vs.konst(op.b)) {
                    (Some(ka), Some(kb)) => rop(Const, 0, 0, op.c, 0, ka.wrapping_add(kb)),
                    (_, Some(k)) => rop(AddK64, op.a, 0, op.c, 0, k),
                    (Some(k), _) => rop(AddK64, op.b, 0, op.c, 0, k),
                    _ => break Some(vs.binary(&op, true)),
                },
                Sub64 => match (vs.konst(op.a), vs.konst(op.b)) {
                    (Some(ka), Some(kb)) => rop(Const, 0, 0, op.c, 0, ka.wrapping_sub(kb)),
                    (_, Some(k)) => rop(AddK64, op.a, 0, op.c, 0, (k as i64).wrapping_neg() as u64),
                    _ => break Some(vs.binary(&op, false)),
                },
                Cmp64 => match vs.konst(op.b) {
                    Some(k) => rop(Cmp64K, op.a, 0, op.c, op.aux, k),
                    None => break Some(vs.binary(&op, false)),
                },
                // Float const-const arithmetic folds at compile time. This is
                // bit-exact versus runtime evaluation: both run the same IEEE
                // op on the same host, so even NaN payload propagation agrees.
                AddF32 | SubF32 | MulF32 | DivF32 => match (vs.konst(op.a), vs.konst(op.b)) {
                    (Some(ka), Some(kb)) => {
                        let (x, y) = (f32::from_bits(ka as u32), f32::from_bits(kb as u32));
                        let r = match op.code {
                            AddF32 => x + y,
                            SubF32 => x - y,
                            MulF32 => x * y,
                            _ => x / y,
                        };
                        rop(Const, 0, 0, op.c, 0, r.to_bits() as u64)
                    }
                    _ => break None,
                },
                AddF64 | SubF64 | MulF64 | DivF64 => match (vs.konst(op.a), vs.konst(op.b)) {
                    (Some(ka), Some(kb)) => {
                        let (x, y) = (f64::from_bits(ka), f64::from_bits(kb));
                        let r = match op.code {
                            AddF64 => x + y,
                            SubF64 => x - y,
                            MulF64 => x * y,
                            _ => x / y,
                        };
                        rop(Const, 0, 0, op.c, 0, r.to_bits())
                    }
                    _ => break None,
                },
                And32 => {
                    let (va, vb) = (vs.read(op.a), vs.read(op.b));
                    if vs.is_const(va, 1) && vs.is_bool(vb) {
                        op = rop(Copy, op.b, 0, op.c, 0, 0);
                        break Some(vb);
                    } else if vs.is_const(vb, 1) && vs.is_bool(va) {
                        op = rop(Copy, op.a, 0, op.c, 0, 0);
                        break Some(va);
                    } else if let Some(v) = vs.range_merge(va, vb) {
                        break Some(v);
                    }
                    break Some(vs.binary(&op, true));
                }
                // An address that is `local * 2^s + k`: fold the whole
                // chain into the scaled-index form. `k` goes into the
                // displacement, which wraps at 2^32 exactly as the
                // address arithmetic it replaces did. (Translation emits
                // only the plain forms, displacement 0.)
                Load32 | Load64 | Store32 | Store64 => {
                    let store = matches!(op.code, Store32 | Store64);
                    let wide = matches!(op.code, Load64 | Store64);
                    let x = vs.read(op.a);
                    if let Expr::Aff { base, mul, add } = vs.expr(x) {
                        if let (true, Some(h)) = (mul.is_power_of_two(), vs.local_home(base)) {
                            let imm = op.imm | (add as u64) << 32;
                            let sh = mul.trailing_zeros() as u8;
                            let code = match (store, wide, sh) {
                                (false, false, 0) => Load32,
                                (false, true, 0) => Load64,
                                (false, false, _) => Load32ShlK,
                                (false, true, _) => Load64ShlK,
                                (true, false, _) => Store32ShlK,
                                (true, true, _) => Store64ShlK,
                            };
                            op = if store {
                                rop(code, h, op.b, 0, sh, imm)
                            } else {
                                rop(code, h, 0, op.c, sh, imm)
                            };
                        }
                    }
                    break None;
                }
                code => match generic_class(code) {
                    None => break None,
                    Some(Generic::Unary) => {
                        let a = vs.read(op.a);
                        break Some(vs.intern(Expr::Un { code, aux: op.aux, imm: op.imm, a }));
                    }
                    Some(Generic::Binary) => break Some(vs.binary(&op, false)),
                    Some(Generic::Commutative) => break Some(vs.binary(&op, true)),
                },
            };
            op = folded;
        };
        match res.map(|v| vs.expr(v)) {
            Some(Expr::Const(k)) if op.code != Const => op = rop(Const, 0, 0, op.c, 0, k),
            // A compare of `local + k` reads the local; the range test an
            // `And32` merged into needs its operand in a local at all.
            Some(Expr::CmpK { x, cmp, k }) if matches!(op.code, Cmp32K | Eqz32 | And32) => {
                let based = match vs.expr(x) {
                    Expr::Aff { base, mul: 1, add } => vs.local_home(base).map(|h| (h, add)),
                    _ => None,
                };
                if let Some((h, add)) = based {
                    op = rop(CmpAddK32, h, k, op.c, cmp, add as u64);
                } else if let (And32, Some(h)) = (op.code, vs.local_home(x)) {
                    op = rop(Cmp32K, h, k, op.c, cmp, 0);
                }
            }
            _ => {}
        }

        // 3. Reuse: the value is already somewhere readable, or gets a
        // virtual slot in case it is wanted again.
        if let (Some(v), false) = (res, matches!(op.code, Copy | Const | Nop)) {
            if let Some(h) = vs.any_home(v) {
                if h >= fs {
                    slots.hits.push(SlotRef { at: i as u32, slot: h - fs, value: v });
                }
                op = if h == op.c { rop(Nop, 0, 0, 0, 0, 0) } else { rop(Copy, h, 0, op.c, 0, 0) };
            } else if op.c >= h0 && worth_a_slot(vs.expr(v)) {
                // The value's own slot if it has one (a computation on
                // one path only loses it at the join), else a free one.
                let own = vs.values[v as usize].home.wrapping_sub(fs);
                let slot = if owner.get(own as usize) == Some(&v) {
                    Some(own)
                } else if (owner.len() as u32) < pool {
                    owner.push(v);
                    Some(owner.len() as u32 - 1)
                } else {
                    None
                };
                if let Some(slot) = slot {
                    vs.set(fs + slot, v);
                    slots.defs.push(SlotRef { at: i as u32, slot, value: v });
                }
            }
        }

        // 4. Update the state for this op's writes.
        changed |= op != before;
        f.code[i] = op;
        if let (Some(v), true) = (res, op.code != Nop) {
            vs.set(op.c, v);
            continue;
        }
        if let Some((r, n)) = writes(&op) {
            vs.kill(r, n);
            continue;
        }

        // 5. Control: calls clobber their argument window and everything
        // above it (the callee's frame starts there); branches hand the
        // state to forward targets.
        let mut flow = |target: u32, unwind: u64| {
            if target as usize > i {
                let state = vs.unwound(unwind);
                match pending.entry(target) {
                    Entry::Occupied(mut waiting) => meet(waiting.get_mut(), &state),
                    Entry::Vacant(slot) => drop(slot.insert(state)),
                }
            }
        };
        match op.code {
            CallGuest | CallHost | CallIndirect => vs.kill(op.b, u32::MAX),
            Jump | Br => {
                flow(op.c, op.imm);
                live = false;
            }
            BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K => flow(op.c, op.imm),
            BrTable => {
                br_dests(f, &op).iter().for_each(|d| flow(d.target, d.unwind));
                live = false;
            }
            Return | Unreachable => live = false,
            _ => {}
        }
    }

    (changed, slots)
}

/// Turn the virtual slots that are read back into scratch locals just
/// below the temporaries (which move up to make room). One rule: every
/// computation of a value that is read back from a slot is followed by a
/// `Copy` of its result into that slot, and the reads [`forward`] recorded
/// of a temporary holding the same value read the slot instead. Nothing
/// is decided about the computation's own temporary here — where it is
/// dead afterwards, [`peephole`] sinks the computation into the slot, and
/// [`eliminate`] removes whatever else the rewrite left unread.
fn materialize(f: &mut RegFunc, hs: &mut Vec<u32>, slots: &Slots) {
    let (h0, fs) = (f.n_local_slots, f.frame_size);
    // Per value, the set of slots it is read back from.
    const _: () = assert!(POOL <= 64);
    let mut used: Vec<u64> = Vec::new();
    let mut real = [u32::MAX; POOL as usize];
    let mut n = 0u32;
    for hit in &slots.hits {
        // `forward` left `Copy slot → c` here. Where a later rewrite
        // replaced the consumer, nothing reads `c` and the slot is not
        // needed on this account.
        let at = hit.at as usize;
        if !value_live(f, hs, at, f.code[at].c) {
            f.code[at] = rop(Rc::Nop, 0, 0, 0, 0, 0);
            continue;
        }
        if used.len() <= hit.value as usize {
            used.resize(hit.value as usize + 1, 0);
        }
        used[hit.value as usize] |= 1 << hit.slot;
        if real[hit.slot as usize] == u32::MAX {
            real[hit.slot as usize] = h0 + n;
            n += 1;
        }
    }
    if n == 0 {
        return;
    }
    let is_used =
        |r: &SlotRef| used.get(r.value as usize).is_some_and(|slots| slots >> r.slot & 1 != 0);
    for (at, field, temp) in slots.uses.iter().filter(|(at, ..)| is_used(at)) {
        let op = &mut f.code[at.at as usize];
        let reads = shape(op.code)[*field] == R;
        let field = [&mut op.a, &mut op.b, &mut op.c].into_iter().nth(*field).unwrap();
        if reads && *field == *temp {
            *field = fs + at.slot;
        }
    }
    let copies: Vec<(usize, RegOp)> = slots
        .defs
        .iter()
        .filter(|def| is_used(def))
        .map(|def| {
            let at = def.at as usize;
            (at, rop(Rc::Copy, f.code[at].c, 0, fs + def.slot, 0, 0))
        })
        .collect();
    // Compact first: renumbering then only walks what survives.
    rebuild(f, hs, &copies);
    renumber(f, n, &real);
    f.n_local_slots += n;
    f.scratch_slots += n;
    f.frame_size += n;
}

/// Whether remembering a value in a virtual slot can pay for the copy
/// that materializing the slot costs: anything that is not free to
/// recompute or folded into its consumers anyway (`local * 2^s + k`).
fn worth_a_slot(e: Expr) -> bool {
    match e {
        Expr::Opaque | Expr::Const(_) => false,
        Expr::Aff { mul, .. } => !mul.is_power_of_two(),
        Expr::CmpK { .. } | Expr::Un { .. } | Expr::Bin { .. } => true,
    }
}

/// Make room for `n` more locals: move the stack temporaries up by `n`
/// and turn each virtual slot `frame_size + k` into register `virt[k]`.
/// Covers every place an op names a register: the [`shape`] fields, the
/// packed unwind copies (pool included), `Return`'s source and the calls'
/// argument base.
fn renumber(f: &mut RegFunc, n: u32, virt: &[u32]) {
    use Rc::*;
    let (h0, fs) = (f.n_local_slots, f.frame_size);
    let reg = |r: u32| match r {
        r if r >= fs => virt[(r - fs) as usize],
        r if r >= h0 => r + n,
        r => r,
    };
    // A window base may sit at the very end of the frame (an empty
    // window), where a register field would be a virtual slot.
    let base = |r: u32| if r >= h0 { r + n } else { r };
    let unwind = |imm: u64| {
        let (src, dst, arity) = unwind_parts(imm);
        match imm {
            0 => 0,
            _ => pack_unwind(base(src as u32), base(dst as u32), arity as u32)
                .expect("frame size was checked against the encodable range"),
        }
    };
    for op in &mut f.code {
        let sh = shape(op.code);
        for (r, u) in [(&mut op.a, sh[0]), (&mut op.b, sh[1]), (&mut op.c, sh[2])] {
            if u != 0 {
                *r = reg(*r);
            }
        }
        match op.code {
            Br | BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K => op.imm = unwind(op.imm),
            Return => op.a = base(op.a),
            CallGuest | CallHost | CallIndirect => op.b = base(op.b),
            _ => {}
        }
    }
    for d in &mut f.dest_pool {
        d.unwind = unwind(d.unwind);
    }
}

/// Remove pure ops whose result is dead: a one-slot stack temporary per
/// [`value_live`], or a scratch local nothing reads (scratch locals have
/// no uses [`forward`] did not create, so an unread one is dead as a
/// whole). Returns true if changed.
fn eliminate(f: &mut RegFunc, hs: &[u32]) -> bool {
    let h0 = f.n_local_slots;
    let scratch = h0 - f.scratch_slots..h0;
    let mut read = vec![false; scratch.len()];
    if !scratch.is_empty() {
        for (r, u) in f.code.iter().flat_map(fields) {
            if u & R != 0 && scratch.contains(&r) {
                read[(r - scratch.start) as usize] = true;
            }
        }
    }
    let mut changed = false;
    // Last op first: a chain of producers whose final result is dead
    // then goes in one sweep, not one link per round.
    for i in (0..f.code.len()).rev() {
        let op = f.code[i];
        if op.code == Rc::Nop || !is_pure(op.code) {
            continue;
        }
        let Some((t, w)) = writes(&op) else { continue };
        let dead = if t >= h0 {
            w == 1 && !value_live(f, hs, i, t)
        } else {
            scratch.contains(&t) && !read[(t - scratch.start) as usize]
        };
        if dead {
            f.code[i] = rop(Rc::Nop, 0, 0, 0, 0, 0);
            changed = true;
        }
    }
    changed
}

/// Sink results into the local they are copied to, fuse the scaled-index
/// addressing patterns, and — `fuse_pairs`, the tiers above `Optimizing` —
/// the adjacent pairs of [`fuse_pair`]:
///
/// * `[ShlK32 → t][Add32 base + t → d]` → `AddShl32` (the scaled-index
///   address form, reconstructed after constant forwarding turned the
///   guest's multiply into a shift).
/// * `[AddShl32 → t][load addr=t]` → scaled load (all widths share
///   `Load32Shl`/`Load64Shl`).
/// * `[ShlK32 → t][load addr=t]` → constant-base scaled load.
/// * `[AddShl32 → t] …value ops… [store addr=t]` → scaled store: the
///   classic `a[i] = expr` window where the value computation separates
///   the address from the store.
/// * `[ShlK32 → t][AddK32 t → u] …value ops… [store addr=u]` →
///   constant-base scaled store (`counts[k[i]] += 1` in NPB IS).
///
/// Replaced ops become `Nop` (removed by [`compact`]). Returns true if
/// changed.
///
/// Fusion moves reads *downward*: the fused op at position `k` reads
/// registers the original stream consumed at position `i < k`, where the
/// recorded entry height may be higher. The heights oracle would then
/// wrongly report those source registers dead at `k` and a later
/// [`eliminate`] pass would delete their defining ops. Every fusion
/// therefore raises `hs` over `(i, k]` to the fusion head's entry height
/// (`u32::MAX` propagates as "unknown" via `max`), keeping the oracle
/// sound.
fn peephole(f: &mut RegFunc, hs: &mut [u32], fuse_pairs: bool) -> bool {
    use Rc::*;
    let targets = jump_targets(f);
    let max_gap = 12usize;
    let mut changed = false;
    for i in 0..f.code.len() {
        // Sink a one-slot result straight into the register the following
        // Copy moves it to: `[op → t][Copy t → x]` becomes `[op → x]`
        // when the temp dies there — every `local.set` of a computed
        // value. (`Select` writes `a`, `Fma64` reads its destination;
        // both are excluded.)
        if i + 1 < f.code.len() && !targets[i + 1] {
            let nx = f.code[i + 1];
            if nx.code == Copy
                && nx.a != nx.c
                && nx.a >= f.n_local_slots
                && f.code[i].c == nx.a
                && writes(&f.code[i]) == Some((nx.a, 1))
                && !matches!(f.code[i].code, Select | Fma64 | Nop)
                && !value_live(f, hs, i + 1, nx.a)
            {
                f.code[i].c = nx.c;
                f.code[i + 1] = rop(Nop, 0, 0, 0, 0, 0);
                changed = true;
            }
            changed |= fuse_pairs && fuse_pair(f, hs, i);
        }
        let (t, fused_addr) = match f.code[i].code {
            AddShl32 => (f.code[i].c, true),
            ShlK32 => (f.code[i].c, false),
            _ => continue,
        };
        if t < f.n_local_slots {
            continue;
        }
        let addr = f.code[i];
        if i + 1 < f.code.len() && !targets[i + 1] {
            let nx = f.code[i + 1];
            // ShlK feeding a plain add of a register base → AddShl32,
            // provided the scaled temp dies with the add.
            if !fused_addr && nx.code == Add32 && (nx.a == t) != (nx.b == t) {
                let base = if nx.a == t { nx.b } else { nx.a };
                if base != t && !value_live(f, hs, i + 1, t) {
                    f.code[i] = rop(Nop, 0, 0, 0, 0, 0);
                    f.code[i + 1] = rop(AddShl32, addr.a, base, nx.c, addr.aux, 0);
                    hs[i + 1] = hs[i + 1].max(hs[i]);
                    changed = true;
                    continue;
                }
            }
            // Adjacent load: address produced then immediately consumed.
            let (is_load, wide_bias) = match nx.code {
                Load32 | Load64 => (true, (nx.imm >> 32) as u32),
                _ => (false, 0),
            };
            if is_load && nx.a == t && (nx.c == t || !value_live(f, hs, i + 1, t)) {
                let offset = nx.imm as u32 as u64;
                let fused = if fused_addr {
                    if wide_bias != 0 {
                        continue; // bias not representable in the Shl form
                    }
                    rop(
                        if nx.code == Load64 { Load64Shl } else { Load32Shl },
                        addr.a,
                        addr.b,
                        nx.c,
                        addr.aux,
                        offset,
                    )
                } else {
                    rop(
                        if nx.code == Load64 { Load64ShlK } else { Load32ShlK },
                        addr.a,
                        0,
                        nx.c,
                        addr.aux,
                        offset | (wide_bias as u64) << 32,
                    )
                };
                f.code[i] = rop(Nop, 0, 0, 0, 0, 0);
                f.code[i + 1] = fused;
                hs[i + 1] = hs[i + 1].max(hs[i]);
                changed = true;
                continue;
            }
        }
        // Store window: [addr → t] (+ AddK for the ShlK form) then value
        // computation, then a store addressing t. Every op in the gap
        // must be pure straight-line flow not touching the address regs.
        let mut j = i + 1;
        let mut bias = 0u32;
        let mut store_addr = t;
        if !fused_addr {
            // ShlK needs the following AddK folding the constant base.
            if j >= f.code.len() || targets[j] || f.code[j].code != AddK32 || f.code[j].a != t
            {
                continue;
            }
            bias = f.code[j].b;
            store_addr = f.code[j].c;
            if store_addr < f.n_local_slots || (store_addr != t && value_live(f, hs, j, t)) {
                continue;
            }
            j += 1;
        }
        // The gap may freely *read* the address source registers (the
        // value computation usually does); it must not write them, and it
        // must not touch the address temporaries at all (their only
        // consumer is the store).
        let srcs_arr = [addr.a, addr.b];
        let addr_srcs: &[u32] = if fused_addr { &srcs_arr } else { &srcs_arr[..1] };
        let temps_arr = [t, store_addr];
        let temps: &[u32] =
            if store_addr != t { &temps_arr } else { &temps_arr[..1] };
        let window_end = (j + max_gap).min(f.code.len());
        let mut found = None;
        while j < window_end {
            if targets[j] || !window_safe(&f.code[j]) {
                break;
            }
            let op = f.code[j];
            if matches!(op.code, Store32 | Store64) && op.a == store_addr {
                found = Some(j);
                break;
            }
            let writes_hit = |g: u32| writes(&op).is_some_and(|(s, w)| s <= g && g < s + w);
            if addr_srcs.iter().any(|&g| writes_hit(g))
                || temps.iter().any(|&g| writes_hit(g) || reads_reg(&op, f, g))
            {
                break;
            }
            j += 1;
        }
        let Some(sj) = found else { continue };
        let st = f.code[sj];
        // The address temp must die at the store.
        if value_live(f, hs, sj, store_addr) {
            continue;
        }
        let offset = st.imm as u32 as u64;
        let fused = if fused_addr {
            rop(
                if st.code == Store64 { Store64Shl } else { Store32Shl },
                addr.a,
                st.b,
                addr.b,
                addr.aux,
                offset,
            )
        } else {
            rop(
                if st.code == Store64 { Store64ShlK } else { Store32ShlK },
                addr.a,
                st.b,
                0,
                addr.aux,
                offset | (bias as u64) << 32,
            )
        };
        f.code[i] = rop(Nop, 0, 0, 0, 0, 0);
        if !fused_addr {
            f.code[i + 1] = rop(Nop, 0, 0, 0, 0, 0);
        }
        f.code[sj] = fused;
        let hs_i = hs[i];
        for h in &mut hs[i + 1..=sj] {
            *h = (*h).max(hs_i);
        }
        changed = true;
    }
    changed
}

/// The adjacent-pair fusions that separate the `Max` tiers from
/// `Optimizing`, tried on ops `i`, `i + 1` (the caller has checked that no
/// branch lands between them). Like result sinking, each folds a producer
/// into the op that consumes its temp `t`, and only when `t` dies there:
///
/// * `[Cmp32 / Cmp32K → t][BrIf t]` → `BrIfCmp32` / `BrIfCmp32K`; behind a
///   `BrIfZ` the comparison is negated instead. `[Eqz32 → t]` just flips
///   `BrIf` and `BrIfZ`.
/// * `[MulF64 → t][AddF64 d + t → d]` → `Fma64`, which performs both
///   roundings exactly as the pair did.
fn fuse_pair(f: &mut RegFunc, hs: &mut [u32], i: usize) -> bool {
    use Rc::*;
    let (def, nx) = (f.code[i], f.code[i + 1]);
    let t = def.c;
    if t < f.n_local_slots {
        return false;
    }
    let fused = match (def.code, nx.code) {
        (MulF64, AddF64) if nx.b == t && nx.a == nx.c && nx.a != t => {
            rop(Fma64, def.a, def.b, nx.c, 0, 0)
        }
        (Eqz32, BrIf | BrIfZ) if nx.a == t => {
            rop(if nx.code == BrIf { BrIfZ } else { BrIf }, def.a, 0, nx.c, 0, nx.imm)
        }
        (Cmp32 | Cmp32K, BrIf | BrIfZ) if nx.a == t => {
            let Some(cmp) = Cmp::from_byte(def.aux) else { return false };
            let cmp = if nx.code == BrIf { cmp } else { cmp.negate() };
            let code = if def.code == Cmp32 { BrIfCmp32 } else { BrIfCmp32K };
            rop(code, def.a, def.b, nx.c, cmp as u8, nx.imm)
        }
        _ => return false,
    };
    // Past a branch `t` is dead only if neither the carried slots, the
    // taken path nor the fallthrough read it.
    let live = if nx.code == AddF64 {
        value_live(f, hs, i + 1, t)
    } else {
        let (src, _, arity) = unwind_parts(nx.imm);
        let mut budget = 64;
        t.wrapping_sub(src as u32) < arity as u32
            || live_if_taken(f, hs, i + 1, t, &mut budget)
            || live_from(f, hs, i + 2, t, &mut budget)
    };
    if live {
        return false;
    }
    f.code[i] = rop(Nop, 0, 0, 0, 0, 0);
    f.code[i + 1] = fused;
    hs[i + 1] = hs[i + 1].max(hs[i]);
    true
}

/// Call `mark` with every static branch target of `op`.
fn each_target(f: &RegFunc, op: &RegOp, mut mark: impl FnMut(u32)) {
    use Rc::*;
    match op.code {
        Jump | Br | BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K => mark(op.c),
        BrTable => br_dests(f, op).iter().for_each(|d| mark(d.target)),
        _ => {}
    }
}

/// Op indices that are jump targets (fusion windows must not span them).
fn jump_targets(f: &RegFunc) -> Vec<bool> {
    let mut t = vec![false; f.code.len() + 1];
    for op in &f.code {
        each_target(f, op, |x| {
            if let Some(slot) = t.get_mut(x as usize) {
                *slot = true;
            }
        });
    }
    t
}

/// Remove `Nop`s.
fn compact(f: &mut RegFunc, hs: &mut Vec<u32>) {
    if f.code.iter().any(|op| op.code == Rc::Nop) {
        rebuild(f, hs, &[]);
    }
}

/// Rewrite the stream without its `Nop`s and with each `(i, op)` of
/// `inserts` (sorted by `i`) placed right after op `i`, remapping branch
/// targets (including the dest pool) and keeping the per-op entry-height
/// array index-aligned. A branch to `i + 1` still lands on the old op
/// `i + 1`: an inserted op belongs to the op it follows.
fn rebuild(f: &mut RegFunc, hs: &mut Vec<u32>, inserts: &[(usize, RegOp)]) {
    use Rc::*;
    let len = f.code.len();
    let height = |i: usize| hs.get(i).copied().unwrap_or(u32::MAX);
    let mut new_index = vec![0u32; len + 1];
    let mut out = Vec::with_capacity(len + inserts.len());
    let mut out_h = Vec::with_capacity(len + inserts.len());
    let mut inserts = inserts.iter().peekable();
    for (i, op) in f.code.iter().enumerate() {
        new_index[i] = out.len() as u32;
        if op.code != Nop {
            out.push(*op);
            out_h.push(height(i));
        }
        while let Some((_, extra)) = inserts.next_if(|(at, _)| *at == i) {
            out.push(*extra);
            out_h.push(height(i + 1));
        }
    }
    new_index[len] = out.len() as u32;
    let count = out.len() as u32;
    let remap = |t: u32| new_index.get(t as usize).copied().unwrap_or(count);
    for op in &mut out {
        if matches!(op.code, Jump | Br | BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K) {
            op.c = remap(op.c);
        }
    }
    for d in &mut f.dest_pool {
        d.target = remap(d.target);
    }
    f.code = out;
    *hs = out_h;
}

/// Largest `aux` byte the executors accept for an opcode: a comparison
/// code they decode, or a lane index they shift by.
const fn aux_limit(code: Rc) -> u8 {
    use Rc::*;
    match code {
        Cmp32 | Cmp32K | CmpAddK32 | BrIfCmp32 | BrIfCmp32K | Cmp64 | Cmp64K => Cmp::GeU as u8,
        CmpF32 | CmpF64 | CmpF64x2 => FGE,
        Extract32 => 3,
        Extract64 | Replace64 => 1,
        _ => u8::MAX,
    }
}

/// Everything the two executors assume of a register stream, compiled or
/// read back from a cache artifact: every register operand within
/// `frame_size`, every branch target and pool reference in range, every
/// unwind copy in-frame, every `aux` byte one its handler decodes, and no
/// way to run off the end. Calls and globals are checked against the
/// module's static tables; the remaining dynamic quantities (memory
/// bounds, table contents) are checked by the handlers at run time.
fn verify(f: &RegFunc, module: &Module) -> Result<(), String> {
    use Rc::*;
    let fs = f.frame_size;
    let len = f.code.len() as u32;
    let err = |i: usize, what: &str| Err(format!("regalloc verify: op {i}: {what}"));
    if f.n_local_slots > fs || f.param_slots + f.scratch_slots > f.n_local_slots {
        return Err("regalloc verify: inconsistent frame layout".into());
    }
    if !f.code.last().is_some_and(|op| matches!(op.code, Jump | Br | BrTable | Return | Unreachable)) {
        return Err("regalloc verify: control can run off the end".into());
    }
    let imported = module.num_imported_funcs() as u32;
    for (i, op) in f.code.iter().enumerate() {
        if op.code.chain_only() {
            return err(i, "chain-only opcode");
        }
        for (reg, u) in fields(op) {
            if u != 0 && reg.checked_add(width(u)).is_none_or(|end| end > fs) {
                return err(i, "register out of frame");
            }
        }
        if op.aux > aux_limit(op.code) {
            return err(i, "aux byte out of range");
        }
        let mut target: Option<u32> = None;
        let mut unwind = 0u64;
        match op.code {
            Jump => target = Some(op.c),
            Br | BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K => {
                target = Some(op.c);
                unwind = op.imm;
            }
            BrTable => {
                let start = op.b as usize;
                let end = start
                    .checked_add(op.c as usize)
                    .and_then(|e| e.checked_add(1))
                    .ok_or("regalloc verify: dest pool overflow")?;
                let pool = f
                    .dest_pool
                    .get(start..end)
                    .ok_or("regalloc verify: dest pool range out of bounds")?;
                for d in pool {
                    if d.target >= len {
                        return err(i, "br_table target out of range");
                    }
                    let (src, dst, arity) = unwind_parts(d.unwind);
                    if src + arity > fs as usize || dst + arity > fs as usize {
                        return err(i, "br_table unwind out of frame");
                    }
                }
            }
            Return if op.a.checked_add(f.result_slots).is_none_or(|end| end > fs) => {
                return err(i, "return source out of frame");
            }
            CallGuest | CallHost | CallIndirect => {
                let in_range = match op.code {
                    CallGuest => (op.a as usize) < module.functions.len(),
                    CallHost => op.a < imported,
                    _ => (op.a as usize) < module.types.len(),
                };
                if !in_range {
                    return err(i, "call target out of range");
                }
                if op.b > fs {
                    return err(i, "call arg base out of frame");
                }
            }
            GlobalGet | GlobalSet if op.a as usize >= module.globals.len() => {
                return err(i, "global index out of range");
            }
            V128Const if op.a as usize >= f.v128_pool.len() => {
                return err(i, "v128 pool index out of range");
            }
            _ => {}
        }
        if let Some(t) = target {
            if t >= len {
                return err(i, "branch target out of range");
            }
        }
        if unwind != 0 {
            let (src, dst, arity) = unwind_parts(unwind);
            if src + arity > fs as usize || dst + arity > fs as usize {
                return err(i, "unwind copy out of frame");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::MemArg;
    use crate::tier::{CompiledBody, Tier};
    use crate::types::ValType;

    /// Compile one body at the given tier and return its register form.
    fn reg_of(build: impl Fn(&mut crate::builder::FunctionBuilder), tier: Tier) -> RegFunc {
        reg_of_t(vec![ValType::I32, ValType::I32], build, tier)
    }

    /// Like [`reg_of`], with explicit parameter types.
    fn reg_of_t(
        params: Vec<ValType>,
        build: impl Fn(&mut crate::builder::FunctionBuilder),
        tier: Tier,
    ) -> RegFunc {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.func("f", params, vec![], build);
        let module = b.finish();
        crate::validate::validate_module(&module).unwrap();
        let compiled =
            crate::runtime::CompiledModule::compile(module, tier).unwrap();
        match compiled.bodies().unwrap()[0] {
            CompiledBody::Flat(f) => f.clone(),
            CompiledBody::Interp(_) => panic!("flat tier expected"),
        }
    }

    fn count(rf: &RegFunc, code: Rc) -> usize {
        rf.code.iter().filter(|op| op.code == code).count()
    }

    #[test]
    fn regop_is_compact() {
        assert_eq!(std::mem::size_of::<RegOp>(), 24);
    }

    #[test]
    fn every_byte_is_an_opcode_or_rejected() {
        // `from_byte` is the inverse of `as u8` on exactly the bytes up to
        // the last variant; everything above is no opcode.
        let last = Rc::CmpAddK32 as u8;
        for b in 0..=u8::MAX {
            match Rc::from_byte(b) {
                Some(code) => assert_eq!(code as u8, b),
                None => assert!(b > last, "byte {b} rejected"),
            }
            assert_eq!(Rc::from_byte(b).is_some(), b <= last);
        }
        // Every variant has a distinct Debug name (none is a transmuted
        // out-of-range value printed as its neighbour).
        let names: std::collections::HashSet<String> =
            (0..=last).map(|b| format!("{:?}", Rc::from_byte(b).unwrap())).collect();
        assert_eq!(names.len(), last as usize + 1);
    }

    /// Every code after `CmpAddK32` is a fused code only a compiled chain
    /// holds: no byte decodes to one, and the verifier refuses a stream
    /// holding one — so neither the compiler nor an artifact can hand one
    /// to the threaded handlers.
    #[test]
    fn chain_only_opcodes_never_enter_a_stream() {
        const LAST: Rc = Rc::LoadAddF64ShlK;
        // rustc keeps `Option<Rc>`'s `None` in the byte after the last
        // variant, so a variant added after `LAST` fails here.
        // SAFETY: `Option<Rc>` is one initialized byte (or this would not
        // compile).
        let none = unsafe { std::mem::transmute::<Option<Rc>, u8>(None) };
        assert_eq!(none, LAST as u8 + 1, "LAST is not the last `Rc` variant");
        use crate::instr::Instr as I;
        let mut b = ModuleBuilder::new();
        b.func("f", vec![ValType::I32, ValType::I32], vec![], |f| {
            f.emit_all([I::LocalGet(0), I::LocalGet(1), I::I32Add, I::Drop]);
        });
        let module = b.finish();
        crate::validate::validate_module(&module).unwrap();
        let compiled = crate::runtime::CompiledModule::compile(module.clone(), Tier::Max).unwrap();
        let CompiledBody::Flat(rf) = compiled.bodies().unwrap()[0] else { panic!("flat tier expected") };
        verify(rf, &module).unwrap();
        for byte in Rc::CmpAddK32 as u8 + 1..=LAST as u8 {
            // SAFETY: `Rc` is `repr(u8)` with contiguous discriminants from
            // 0, and `byte` is at most a variant's.
            let code = unsafe { std::mem::transmute::<u8, Rc>(byte) };
            assert!(code.chain_only() && Rc::from_byte(byte).is_none(), "{code:?}");
            let mut bad = rf.clone();
            bad.code.insert(0, rop(code, 0, 0, 0, 0, 0));
            let err = verify(&bad, &module).unwrap_err();
            assert!(err.contains("chain-only opcode"), "{code:?}: {err}");
        }
    }

    #[test]
    fn i64_scaled_load_fuses_at_register_level() {
        // base + (idx << 3) ; i64.load — the register peephole must
        // produce Load64Shl (one scaled form for every 64-bit load).
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::LocalGet(1),
                    I::I32Const(3),
                    I::I32Shl,
                    I::I32Add,
                    I::I64Load(MemArg::offset(16)),
                    I::Drop,
                ]);
            },
            Tier::Max,
        );
        // The whole chain is one op: idx, base, shift and offset in place.
        assert_eq!(rf.code[0], rop(Rc::Load64Shl, 1, 0, rf.n_local_slots, 3, 16), "{:?}", rf.code);
        assert_eq!(rf.code.len(), 2, "{:?}", rf.code);
    }

    #[test]
    fn f32_scaled_load_fuses_at_register_level() {
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::LocalGet(1),
                    I::I32Const(2),
                    I::I32Shl,
                    I::I32Add,
                    I::F32Load(MemArg::offset(0)),
                    I::Drop,
                ]);
            },
            Tier::Max,
        );
        assert_eq!(count(&rf, Rc::Load32Shl), 1, "{:?}", rf.code);
    }

    #[test]
    fn store_with_value_window_fuses() {
        // a[i] = f64(load(b)) — address first, value computation between
        // it and the store: the "value window" no adjacent-op rule can
        // match, fused here into Store64Shl.
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::LocalGet(1),
                    I::I32Const(3),
                    I::I32Shl,
                    I::I32Add,
                    I::LocalGet(1),
                    I::F64Load(MemArg::offset(64)),
                    I::F64Sqrt,
                    I::F64Store(MemArg::offset(8)),
                ]);
            },
            Tier::Max,
        );
        assert_eq!(count(&rf, Rc::Store64Shl), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Store64), 0);
    }

    #[test]
    fn const_base_store_window_fuses() {
        // counts[x<<2 + K] = value — the NPB IS histogram update.
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::I32Const(2),
                    I::I32Shl,
                    I::I32Const(4096),
                    I::I32Add,
                    I::LocalGet(1),
                    I::I32Const(1),
                    I::I32Add,
                    I::I32Store(MemArg::offset(0)),
                ]);
            },
            Tier::Max,
        );
        assert_eq!(count(&rf, Rc::Store32ShlK), 1, "{:?}", rf.code);
    }

    #[test]
    fn forwarding_eliminates_copy_and_const_traffic() {
        // x*8 at the optimizing tier: forwarding must fold the const
        // multiply into a shift and leave no Copy of the local behind.
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::I32Const(8),
                    I::I32Mul,
                    I::LocalSet(1),
                ]);
            },
            Tier::Optimizing,
        );
        assert_eq!(count(&rf, Rc::ShlK32), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Mul32), 0, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Copy), 0, "copies should forward: {:?}", rf.code);
    }

    #[test]
    fn i64_const_forwarding_forms_addk64_and_cmp64k() {
        // x + 5 (i64) and x < 100 (i64) must fold their Const operands
        // into the immediate forms, leaving no Const+Add64/Cmp64 pairs.
        use crate::instr::Instr as I;
        let rf = reg_of_t(
            vec![ValType::I64, ValType::I64, ValType::I32],
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::I64Const(5),
                    I::I64Add,
                    I::LocalSet(1),
                    I::LocalGet(0),
                    I::I64Const(100),
                    I::I64LtS,
                    I::LocalSet(2),
                ]);
            },
            Tier::Optimizing,
        );
        assert_eq!(count(&rf, Rc::AddK64), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Add64), 0, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Cmp64K), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Cmp64), 0, "{:?}", rf.code);
        let addk = rf.code.iter().find(|op| op.code == Rc::AddK64).unwrap();
        assert_eq!(addk.imm, 5);
    }

    #[test]
    fn i64_sub_const_negates_into_addk64() {
        use crate::instr::Instr as I;
        let rf = reg_of_t(
            vec![ValType::I64, ValType::I64],
            |f| {
                f.emit_all([I::LocalGet(0), I::I64Const(7), I::I64Sub, I::LocalSet(1)]);
            },
            Tier::Optimizing,
        );
        assert_eq!(count(&rf, Rc::AddK64), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Sub64), 0, "{:?}", rf.code);
        let addk = rf.code.iter().find(|op| op.code == Rc::AddK64).unwrap();
        assert_eq!(addk.imm as i64, -7);
    }

    #[test]
    fn float_const_const_folds_to_const() {
        // 2.5 * 4.0 (f64) and 1.5 + 0.25 (f32) fold at compile time.
        use crate::instr::Instr as I;
        let rf = reg_of_t(
            vec![ValType::F64, ValType::F32],
            |f| {
                f.emit_all([
                    I::F64Const(2.5),
                    I::F64Const(4.0),
                    I::F64Mul,
                    I::LocalSet(0),
                    I::F32Const(1.5),
                    I::F32Const(0.25),
                    I::F32Add,
                    I::LocalSet(1),
                ]);
            },
            Tier::Optimizing,
        );
        assert_eq!(count(&rf, Rc::MulF64), 0, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::AddF32), 0, "{:?}", rf.code);
        assert!(
            rf.code
                .iter()
                .any(|op| op.code == Rc::Const && op.imm == 10.0f64.to_bits()),
            "{:?}",
            rf.code
        );
        assert!(
            rf.code
                .iter()
                .any(|op| op.code == Rc::Const && op.imm == 1.75f32.to_bits() as u64),
            "{:?}",
            rf.code
        );
    }

    #[test]
    fn loop_counter_increment_is_one_in_place_add() {
        // i = i + 1: no copies, no constant (the indexed and const-base
        // load chains are pinned by the scaled-load tests around this one).
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([I::LocalGet(0), I::I32Const(1), I::I32Add, I::LocalSet(0)]);
            },
            Tier::Max,
        );
        assert_eq!(rf.code[0], rop(Rc::AddK32, 0, 1, 0, 0, 0), "{:?}", rf.code);
        assert_eq!(rf.code.len(), 2, "{:?}", rf.code);
    }

    // --- the adjacent-pair fusions of the Max tiers ---

    /// `block { <cond>; br_if 0; mem[0] = 1 }` with `x`, `y` the params.
    fn guarded_by(cond: &[crate::instr::Instr], tier: Tier) -> RegFunc {
        use crate::instr::Instr as I;
        use crate::types::BlockType;
        reg_of(
            |f| {
                f.emit(I::Block(BlockType::Empty));
                f.emit_all(cond.iter().cloned());
                f.emit_all([
                    I::BrIf(0),
                    I::I32Const(0),
                    I::I32Const(1),
                    I::I32Store(MemArg::offset(0)),
                    I::End,
                ]);
            },
            tier,
        )
    }

    #[test]
    fn compare_and_branch_fuses_at_max_and_not_at_optimizing() {
        use crate::instr::Instr as I;
        let ll = [I::LocalGet(0), I::LocalGet(1), I::I32GeS];
        let rf = guarded_by(&ll, Tier::Max);
        let br = rf.code[0];
        assert_eq!((br.code, br.a, br.b, br.aux), (Rc::BrIfCmp32, 0, 1, Cmp::GeS as u8), "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Cmp32) + count(&rf, Rc::BrIf), 0, "{:?}", rf.code);
        let rf = guarded_by(&ll, Tier::Optimizing);
        assert_eq!((count(&rf, Rc::Cmp32), count(&rf, Rc::BrIf)), (1, 1), "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::BrIfCmp32), 0, "{:?}", rf.code);

        let lk = [I::LocalGet(0), I::I32Const(5), I::I32LtS];
        let rf = guarded_by(&lk, Tier::Max);
        let br = rf.code[0];
        assert_eq!((br.code, br.a, br.b, br.aux), (Rc::BrIfCmp32K, 0, 5, Cmp::LtS as u8), "{:?}", rf.code);
        assert_eq!(count(&guarded_by(&lk, Tier::Optimizing), Rc::Cmp32K), 1);
    }

    #[test]
    fn eqz_and_if_fold_into_the_branch_polarity() {
        use crate::instr::Instr as I;
        use crate::types::BlockType;
        // eqz ; br_if  =>  branch when x == 0.
        let rf = guarded_by(&[I::LocalGet(0), I::I32Eqz], Tier::Max);
        assert_eq!((rf.code[0].code, rf.code[0].a), (Rc::BrIfZ, 0), "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Eqz32) + count(&rf, Rc::BrIf), 0, "{:?}", rf.code);
        // if (x < y) skips its body when x >= y; if (x == 0) when x != 0.
        let skipping = |cond: &[I]| {
            reg_of(
                |f| {
                    f.emit_all(cond.iter().cloned());
                    f.emit_all([
                        I::If(BlockType::Empty),
                        I::I32Const(0),
                        I::I32Const(1),
                        I::I32Store(MemArg::offset(0)),
                        I::End,
                    ]);
                },
                Tier::Max,
            )
        };
        let rf = skipping(&[I::LocalGet(0), I::LocalGet(1), I::I32LtS]);
        let br = rf.code[0];
        assert_eq!((br.code, br.a, br.b, br.aux), (Rc::BrIfCmp32, 0, 1, Cmp::GeS as u8), "{:?}", rf.code);
        let rf = skipping(&[I::LocalGet(0), I::I32Eqz]);
        assert_eq!((rf.code[0].code, rf.code[0].a), (Rc::BrIf, 0), "{:?}", rf.code);
        for c in (0..=9).filter_map(Cmp::from_byte) {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(1, 2), (2, 1), (3, 3), (-1, 0)] {
                assert_ne!(c.eval(a, b), c.negate().eval(a, b), "{c:?} {a} {b}");
            }
        }
    }

    #[test]
    fn no_pair_fusion_across_a_jump_target() {
        // The compare feeds a loop's parameter: the `br_if` at the loop
        // header also runs on the back edge, where the slot holds `x`.
        use crate::instr::Instr as I;
        use crate::types::{BlockType, FuncType};
        let mut b = ModuleBuilder::new();
        let ty = b.type_idx(FuncType::new(vec![ValType::I32], vec![]));
        b.func("f", vec![ValType::I32, ValType::I32], vec![], |f| {
            f.emit_all([
                I::Block(BlockType::Empty),
                I::LocalGet(0),
                I::LocalGet(1),
                I::I32LtS,
                I::Loop(BlockType::Func(ty)),
                I::BrIf(1),
                I::LocalGet(0),
                I::I32Const(1),
                I::I32Add,
                I::LocalTee(0),
                I::Br(0),
                I::End,
                I::End,
            ]);
        });
        let compiled = crate::runtime::CompiledModule::compile(b.finish(), Tier::Max).unwrap();
        let CompiledBody::Flat(rf) = compiled.bodies().unwrap()[0] else { panic!("flat tier expected") };
        assert_eq!((count(rf, Rc::Cmp32), count(rf, Rc::BrIf)), (1, 1), "{:?}", rf.code);
        assert_eq!(count(rf, Rc::BrIfCmp32), 0, "{:?}", rf.code);
    }

    #[test]
    fn no_pair_fusion_when_the_compare_is_read_again() {
        // cmp ; local.tee z ; br_if — the compare sinks into `z`, a
        // local, which outlives the branch.
        use crate::instr::Instr as I;
        let z = 2;
        let rf = reg_of(
            |f| {
                assert_eq!(f.local(ValType::I32), z);
                f.emit_all([
                    I::Block(crate::types::BlockType::Empty),
                    I::LocalGet(0),
                    I::LocalGet(1),
                    I::I32LtS,
                    I::LocalTee(z),
                    I::BrIf(0),
                    I::End,
                ]);
            },
            Tier::Max,
        );
        assert_eq!((rf.code[0].code, rf.code[0].c), (Rc::Cmp32, z), "{:?}", rf.code);
        assert_eq!((rf.code[1].code, rf.code[1].a), (Rc::BrIf, z), "{:?}", rf.code);
    }

    #[test]
    fn fma_keeps_both_roundings_on_every_tier() {
        // -c + a * b with a * b = 1 - 2^-60, which rounds to 1: the pair
        // yields 0, a contracted multiply-add would yield -2^-60.
        use crate::instr::Instr as I;
        use crate::runtime::Value;
        let (a, b, c) = (1.0 + 2f64.powi(-30), 1.0 - 2f64.powi(-30), 1.0f64);
        let expect = -c + a * b;
        assert_eq!(expect.to_bits(), 0f64.to_bits());
        for tier in Tier::ALL {
            let mut mb = ModuleBuilder::new();
            mb.func("f", vec![ValType::F64; 3], vec![ValType::F64], |f| {
                f.emit_all([I::LocalGet(2), I::F64Neg, I::LocalGet(0), I::LocalGet(1), I::F64Mul, I::F64Add]);
            });
            let compiled = crate::runtime::CompiledModule::compile(mb.finish(), tier).unwrap();
            if let CompiledBody::Flat(rf) = compiled.bodies().unwrap()[0] {
                let fused = (tier != Tier::Optimizing) as usize;
                assert_eq!(count(rf, Rc::Fma64), fused, "tier {tier}: {:?}", rf.code);
                assert_eq!(count(rf, Rc::MulF64), 1 - fused, "tier {tier}: {:?}", rf.code);
            }
            compiled.set_jit_threshold(1);
            let mut inst = crate::runtime::Linker::new().instantiate(&compiled, Box::new(())).unwrap();
            let got = inst.invoke("f", &[Value::F64(a), Value::F64(b), Value::F64(c)]).unwrap();
            assert_eq!(got[0].as_f64().unwrap().to_bits(), expect.to_bits(), "tier {tier}");
        }
    }

    // --- value tracking: one test per rewrite, with the cases in which
    // it must not fire. Bodies are written in the DSL; params 0/1 are
    // `x`/`y`, further locals are declared per test. ---

    use crate::dsl::{self, int};

    fn x() -> dsl::Var {
        dsl::local(0, ValType::I32)
    }

    fn y() -> dsl::Var {
        dsl::local(1, ValType::I32)
    }

    /// Compile `stmts(f)` at both flat tiers (they share the register
    /// pipeline) and hand each result to `check`.
    fn both_flat_tiers(
        stmts: impl Fn(&mut crate::builder::FunctionBuilder) -> Vec<dsl::Stmt>,
        check: impl Fn(&RegFunc),
    ) {
        for tier in [Tier::Optimizing, Tier::Max] {
            let rf = reg_of(
                |f| {
                    let stmts = stmts(f);
                    dsl::emit_block(f, &stmts)
                },
                tier,
            );
            check(&rf);
        }
    }

    #[test]
    fn sign_test_pair_becomes_one_unsigned_range_test() {
        // (x-1 >= 0) & (x-1 < 24): one CmpAddK32 reading `x` directly.
        both_flat_tiers(
            |_| {
                let v = || x().get() - int(1);
                vec![y().set(v().ge(int(0)).and(v().lt(int(24))))]
            },
            |rf| {
                let range: Vec<_> = rf.code.iter().filter(|op| op.code == Rc::CmpAddK32).collect();
                assert_eq!(range.len(), 1, "{:?}", rf.code);
                let op = range[0];
                assert_eq!((op.a, op.b, op.aux, op.imm as i32), (0, 24, Cmp::LtU as u8, -1));
                for gone in [Rc::And32, Rc::Cmp32K, Rc::AddK32] {
                    assert_eq!(count(rf, gone), 0, "{gone:?} left in {:?}", rf.code);
                }
            },
        );
    }

    #[test]
    fn range_test_needs_a_constant_non_negative_bound_over_one_value() {
        // Negative K, a K that is not a constant, and two different
        // affine values each keep their And32.
        let keeps_and = |cond: fn() -> dsl::Expr| {
            both_flat_tiers(
                move |_| vec![y().set(cond())],
                |rf| assert_eq!(count(rf, Rc::And32), 1, "{:?}", rf.code),
            );
        };
        keeps_and(|| (x().get() - int(1)).ge(int(0)).and((x().get() - int(1)).lt(int(-5))));
        keeps_and(|| (x().get() - int(1)).ge(int(0)).and((x().get() - int(1)).lt(y().get())));
        keeps_and(|| (x().get() - int(1)).ge(int(0)).and((x().get() + int(1)).lt(int(24))));
    }

    #[test]
    fn range_test_does_not_span_a_write_to_its_leaf() {
        // lo = x-1 >= 0; x += 1; lo & (x-1 < 24): the two compares are
        // over different values of `x`.
        both_flat_tiers(
            |f| {
                let lo = dsl::Var::new(f, ValType::I32);
                vec![
                    lo.set((x().get() - int(1)).ge(int(0))),
                    x().set(x().get() + int(1)),
                    y().set(lo.get().and((x().get() - int(1)).lt(int(24)))),
                ]
            },
            |rf| assert_eq!(count(rf, Rc::And32), 1, "{:?}", rf.code),
        );
    }

    #[test]
    fn one_and_boolean_is_the_boolean() {
        both_flat_tiers(
            |_| vec![y().set(int(1).and(x().get().lt(int(5))))],
            |rf| {
                assert_eq!(count(rf, Rc::And32), 0, "{:?}", rf.code);
                assert_eq!(count(rf, Rc::Cmp32K), 1, "{:?}", rf.code);
            },
        );
        // `1 & x` with `x` not known to be 0 or 1 masks a bit: stays.
        both_flat_tiers(
            |_| vec![y().set(int(1).and(x().get()))],
            |rf| assert_eq!(count(rf, Rc::And32), 1, "{:?}", rf.code),
        );
    }

    #[test]
    fn compare_of_local_plus_k_reads_the_local() {
        both_flat_tiers(
            |_| vec![y().set((x().get() + int(5)).lt(int(10)))],
            |rf| {
                assert_eq!(count(rf, Rc::CmpAddK32), 1, "{:?}", rf.code);
                assert_eq!(count(rf, Rc::AddK32), 0, "{:?}", rf.code);
            },
        );
    }

    #[test]
    fn affine_address_folds_into_the_wrapping_displacement() {
        // ((x + 7) << 3) + 4096 as an f64 address, loaded and stored:
        // scaled forms on `x` with (7 << 3) + 4096 in the high (wrapping)
        // half of `imm` and the Wasm offset alone in the low half.
        both_flat_tiers(
            |_| {
                let addr = || ((x().get() + int(7)).shl(int(3))) + int(4096);
                vec![dsl::store(addr(), 16, addr().load(ValType::F64, 8))]
            },
            |rf| {
                let ld = rf.code.iter().find(|op| op.code == Rc::Load64ShlK).expect("scaled load");
                let st = rf.code.iter().find(|op| op.code == Rc::Store64ShlK).expect("scaled store");
                assert_eq!((ld.a, ld.aux, ld.imm), (0, 3, 8 | (4152u64 << 32)));
                assert_eq!((st.a, st.aux, st.imm), (0, 3, 16 | (4152u64 << 32)));
                for gone in [Rc::AddK32, Rc::ShlK32, Rc::Load64, Rc::Store64] {
                    assert_eq!(count(rf, gone), 0, "{gone:?} left in {:?}", rf.code);
                }
            },
        );
    }

    #[test]
    fn address_fold_keeps_a_producer_that_is_still_read() {
        // t = x + 7 is both the index of a load and stored itself: the
        // load folds onto `x`, the add stays for its other reader.
        both_flat_tiers(
            |f| {
                let t = dsl::Var::new(f, ValType::I32);
                vec![
                    t.set(x().get() + int(7)),
                    dsl::store(int(0), 0, t.get().shl(int(2)).load(ValType::I32, 0)),
                    dsl::store(int(8), 0, t.get()),
                ]
            },
            |rf| {
                let ld = rf.code.iter().find(|op| op.code == Rc::Load32ShlK).expect("scaled load");
                assert_eq!((ld.a, ld.aux, ld.imm), (0, 2, 28u64 << 32));
                assert_eq!(count(rf, Rc::AddK32), 1, "{:?}", rf.code);
            },
        );
    }

    #[test]
    fn address_fold_does_not_read_a_leaf_written_in_between() {
        // The address is formed from the old `x`, then `x` changes, then
        // the load happens: no local holds the old `x` any more.
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::I32Const(7),
                    I::I32Add,
                    I::I32Const(3),
                    I::I32Shl,
                    I::LocalGet(0),
                    I::I32Const(1),
                    I::I32Add,
                    I::LocalSet(0),
                    I::F64Load(MemArg::offset(0)),
                    I::Drop,
                ]);
            },
            Tier::Optimizing,
        );
        assert!(
            !rf.code.iter().any(|op| op.code == Rc::Load64ShlK && op.a == 0),
            "{:?}",
            rf.code
        );
    }

    #[test]
    fn recomputation_of_a_local_reads_the_local() {
        // y = x * 3; z = x * 3: the second is a copy of `y`.
        both_flat_tiers(
            |f| {
                let z = dsl::Var::new(f, ValType::I32);
                vec![y().set(x().get() * int(3)), z.set(x().get() * int(3))]
            },
            |rf| {
                assert_eq!(count(rf, Rc::Mul32), 1, "{:?}", rf.code);
                assert_eq!(rf.scratch_slots, 0);
            },
        );
    }

    /// `if (x * y < 7) { mem[0] = x }` — the block all the cross-block
    /// tests repeat.
    fn guarded_store(at: i32) -> dsl::Stmt {
        dsl::if_then((x().get() * y().get()).lt(int(7)), &[dsl::store(int(at), 0, x().get())])
    }

    #[test]
    fn value_recomputed_across_a_join_gets_a_scratch_local() {
        // The product and the compare are computed once; the second
        // block tests the scratch local (declared locals: just x, y).
        both_flat_tiers(
            |_| vec![guarded_store(0), guarded_store(8)],
            |rf| {
                assert_eq!(count(rf, Rc::Mul32), 1, "{:?}", rf.code);
                assert_eq!(count(rf, Rc::Cmp32K), 1, "{:?}", rf.code);
                assert_eq!((rf.scratch_slots, rf.n_local_slots), (1, 3), "{:?}", rf.code);
                // The scratch local sits between the locals and the temps.
                assert!(rf.code.iter().any(|op| op.code == Rc::BrIfZ && op.a == 2), "{:?}", rf.code);
            },
        );
    }

    #[test]
    fn scratch_reuse_stops_at_a_write_to_a_leaf() {
        both_flat_tiers(
            |_| vec![guarded_store(0), x().set(x().get() + int(1)), guarded_store(8)],
            |rf| {
                assert_eq!(count(rf, Rc::Mul32), 2, "{:?}", rf.code);
                assert_eq!(rf.scratch_slots, 0);
            },
        );
    }

    #[test]
    fn scratch_reuse_needs_the_value_on_every_path_into_the_join() {
        // Computed in one arm only, then again after the join.
        both_flat_tiers(
            |f| {
                let z = dsl::Var::new(f, ValType::I32);
                vec![
                    dsl::if_then(x().get(), &[z.set((x().get() * y().get()).lt(int(7)))]),
                    guarded_store(8),
                ]
            },
            |rf| {
                assert_eq!(count(rf, Rc::Mul32), 2, "{:?}", rf.code);
                assert_eq!(rf.scratch_slots, 0);
            },
        );
    }

    #[test]
    fn scratch_reuse_stops_at_a_loop_header() {
        // Before the loop and inside it: the header resets the state
        // (the body may change the leaves on the back edge).
        both_flat_tiers(
            |f| {
                let i = dsl::Var::new(f, ValType::I32);
                vec![guarded_store(0), dsl::for_range(i, int(0), int(4), &[guarded_store(8)])]
            },
            |rf| {
                assert_eq!(count(rf, Rc::Mul32), 2, "{:?}", rf.code);
                assert_eq!(rf.scratch_slots, 0);
            },
        );
    }

    #[test]
    fn scratch_locals_renumber_calls_and_branch_unwinds() {
        // A scratch local in a function that also calls (argument base)
        // and carries a value out of a block (unwind copy): `verify` runs
        // inside `lower`, and the temporaries sit above the scratch slot.
        use crate::instr::Instr as I;
        use crate::types::BlockType;
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let callee = b.func("id", vec![ValType::I32], vec![ValType::I32], |f| {
            f.emit_all([I::LocalGet(0)]);
        });
        b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], move |f| {
            dsl::emit_block(f, &[guarded_store(0), guarded_store(8)]);
            f.emit_all([
                I::I32Const(5),
                I::Block(BlockType::Value(ValType::I32)),
                I::LocalGet(0),
                I::Call(callee),
                I::LocalGet(1),
                I::BrIf(0),
                I::Drop,
                I::I32Const(9),
                I::End,
                I::I32Add,
            ]);
        });
        let module = b.finish();
        let compiled = crate::runtime::CompiledModule::compile(module, Tier::Max).unwrap();
        let CompiledBody::Flat(f) = compiled.bodies().unwrap()[1] else { panic!("flat tier expected") };
        let rf = f;
        assert_eq!((rf.scratch_slots, rf.n_local_slots), (1, 3));
        let call = rf.code.iter().find(|op| op.code == Rc::CallGuest).unwrap();
        assert!(call.b >= rf.n_local_slots, "argument window below the temporaries: {call:?}");
        let mut inst = crate::runtime::Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        use crate::runtime::Value;
        // x*y = 6 < 7: both stores happen; y != 0 carries id(x) out: 5 + 2.
        assert_eq!(inst.invoke("f", &[Value::I32(2), Value::I32(3)]).unwrap(), vec![Value::I32(7)]);
        assert_eq!(inst.invoke("f", &[Value::I32(2), Value::I32(0)]).unwrap(), vec![Value::I32(14)]);
    }

    #[test]
    fn unwind_roundtrip() {
        let u = pack_unwind(100, 7, 3).unwrap();
        assert_eq!(unwind_parts(u), (100, 7, 3));
        // In-place carries encode as "no copy".
        assert_eq!(pack_unwind(5, 5, 2).unwrap(), 0);
        assert_eq!(pack_unwind(9, 4, 0).unwrap(), 0);
        assert!(pack_unwind(1 << 24, 0, 1).is_err());
    }

    #[test]
    fn feval_codes() {
        assert!(feval(FEQ, 1.0, 1.0));
        assert!(feval(FNE, 1.0, 2.0));
        assert!(feval(FLT, 1.0, 2.0));
        assert!(feval(FGT, 2.0, 1.0));
        assert!(feval(FLE, 1.0, 1.0));
        assert!(feval(FGE, 1.0, 1.0));
        assert!(!feval(FEQ, f64::NAN, f64::NAN));
    }
}

//! Decoding of the Wasm binary format into a [`Module`].
//!
//! Implements the MVP sections, the sign-extension operators, the
//! `memory.copy`/`memory.fill` bulk-memory instructions, and the SIMD
//! subset listed in [`crate::instr`]. Unknown constructs are rejected with
//! a positioned [`DecodeError`] — the embedder never executes anything the
//! decoder did not fully understand.

use crate::error::DecodeError;
use crate::instr::{Instr, MemArg};
use crate::leb128::Reader;
use crate::module::{
    DataSegment, ElementSegment, Export, ExportKind, Function, Global, Import, Module,
};
use crate::types::{BlockType, ExternKind, FuncType, GlobalType, Limits, Mutability, ValType};
use crate::{WASM_MAGIC, WASM_VERSION};

/// Hard limit on items in any single vector; guards against hostile
/// length prefixes allocating unbounded memory before the data is read.
const MAX_ITEMS: u32 = 10_000_000;

/// Decode a complete binary module.
pub fn decode_module(bytes: &[u8]) -> Result<Module, DecodeError> {
    let mut r = Reader::new(bytes);
    let magic = r.read_bytes(4)?;
    if magic != WASM_MAGIC {
        return Err(DecodeError::new(0, "bad magic: not a Wasm binary"));
    }
    let version = r.read_bytes(4)?;
    if version != WASM_VERSION {
        return Err(DecodeError::new(4, "unsupported Wasm binary version"));
    }

    let mut module = Module::default();
    // Function section type indices, joined with code section bodies below.
    let mut func_type_indices: Vec<u32> = Vec::new();
    let mut last_section_id: i32 = -1;

    while !r.is_empty() {
        let sec_offset = r.pos();
        let id = r.read_u8()?;
        let size = r.read_u32()? as usize;
        let mut body = r.sub_reader(size)?;
        if id != 0 {
            if (id as i32) <= last_section_id {
                return Err(DecodeError::new(sec_offset, "sections out of order or duplicated"));
            }
            last_section_id = id as i32;
        }
        match id {
            0 => decode_custom_section(&mut body, &mut module)?,
            1 => module.types = decode_type_section(&mut body)?,
            2 => module.imports = decode_import_section(&mut body)?,
            3 => func_type_indices = decode_vec_u32(&mut body)?,
            4 => module.tables = decode_table_section(&mut body)?,
            5 => module.memories = decode_memory_section(&mut body)?,
            6 => module.globals = decode_global_section(&mut body)?,
            7 => module.exports = decode_export_section(&mut body)?,
            8 => module.start = Some(body.read_u32()?),
            9 => module.elements = decode_element_section(&mut body)?,
            10 => module.functions = decode_code_section(&mut body, &func_type_indices)?,
            11 => module.data = decode_data_section(&mut body)?,
            other => {
                return Err(DecodeError::new(sec_offset, format!("unknown section id {other}")))
            }
        }
        if !body.is_empty() {
            return Err(DecodeError::new(
                sec_offset,
                format!("section {id} has {} trailing bytes", body.remaining()),
            ));
        }
    }

    if module.functions.len() != func_type_indices.len() {
        return Err(DecodeError::new(
            bytes.len(),
            "function and code section lengths disagree",
        ));
    }
    Ok(module)
}

fn checked_count(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
    let pos = r.pos();
    let n = r.read_u32()?;
    if n > MAX_ITEMS {
        return Err(DecodeError::new(pos, format!("vector length {n} exceeds engine limit")));
    }
    Ok(n)
}

fn decode_custom_section(r: &mut Reader<'_>, module: &mut Module) -> Result<(), DecodeError> {
    let name = r.read_name()?;
    if name == "name" {
        // Only the module-name subsection (id 0) is interpreted.
        while !r.is_empty() {
            let sub_id = r.read_u8()?;
            let sub_len = r.read_u32()? as usize;
            let mut sub = r.sub_reader(sub_len)?;
            if sub_id == 0 {
                module.name = Some(sub.read_name()?);
            }
        }
    } else {
        // Skip unknown custom sections entirely.
        let n = r.remaining();
        r.read_bytes(n)?;
    }
    Ok(())
}

fn decode_type_section(r: &mut Reader<'_>) -> Result<Vec<FuncType>, DecodeError> {
    let count = checked_count(r)?;
    let mut types = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let pos = r.pos();
        let form = r.read_u8()?;
        if form != 0x60 {
            return Err(DecodeError::new(pos, format!("expected functype (0x60), got {form:#x}")));
        }
        let params = decode_valtype_vec(r)?;
        let results = decode_valtype_vec(r)?;
        types.push(FuncType::new(params, results));
    }
    Ok(types)
}

fn decode_valtype_vec(r: &mut Reader<'_>) -> Result<Vec<ValType>, DecodeError> {
    let count = checked_count(r)?;
    let mut out = Vec::with_capacity(count.min(64) as usize);
    for _ in 0..count {
        let pos = r.pos();
        out.push(ValType::from_byte(r.read_u8()?, pos)?);
    }
    Ok(out)
}

fn decode_limits(r: &mut Reader<'_>) -> Result<Limits, DecodeError> {
    let pos = r.pos();
    match r.read_u8()? {
        0x00 => Ok(Limits::new(r.read_u32()?, None)),
        0x01 => {
            let min = r.read_u32()?;
            let max = r.read_u32()?;
            Ok(Limits::new(min, Some(max)))
        }
        flag => Err(DecodeError::new(pos, format!("bad limits flag {flag:#x}"))),
    }
}

fn decode_import_section(r: &mut Reader<'_>) -> Result<Vec<Import>, DecodeError> {
    let count = checked_count(r)?;
    let mut imports = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let module = r.read_name()?;
        let name = r.read_name()?;
        let pos = r.pos();
        let kind = match r.read_u8()? {
            0x00 => ExternKind::Func(r.read_u32()?),
            0x01 => {
                expect_funcref(r)?;
                ExternKind::Table(decode_limits(r)?)
            }
            0x02 => ExternKind::Memory(decode_limits(r)?),
            0x03 => ExternKind::Global(decode_global_type(r)?),
            b => return Err(DecodeError::new(pos, format!("bad import kind {b:#x}"))),
        };
        imports.push(Import { module, name, kind });
    }
    Ok(imports)
}

fn expect_funcref(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    let pos = r.pos();
    let b = r.read_u8()?;
    if b != 0x70 {
        return Err(DecodeError::new(pos, format!("expected funcref (0x70), got {b:#x}")));
    }
    Ok(())
}

fn decode_global_type(r: &mut Reader<'_>) -> Result<GlobalType, DecodeError> {
    let pos = r.pos();
    let val_type = ValType::from_byte(r.read_u8()?, pos)?;
    let pos = r.pos();
    let mutability = match r.read_u8()? {
        0x00 => Mutability::Const,
        0x01 => Mutability::Var,
        b => return Err(DecodeError::new(pos, format!("bad mutability {b:#x}"))),
    };
    Ok(GlobalType { val_type, mutability })
}

fn decode_vec_u32(r: &mut Reader<'_>) -> Result<Vec<u32>, DecodeError> {
    let count = checked_count(r)?;
    let mut out = Vec::with_capacity(count.min(4096) as usize);
    for _ in 0..count {
        out.push(r.read_u32()?);
    }
    Ok(out)
}

fn decode_table_section(r: &mut Reader<'_>) -> Result<Vec<Limits>, DecodeError> {
    let count = checked_count(r)?;
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        expect_funcref(r)?;
        out.push(decode_limits(r)?);
    }
    Ok(out)
}

fn decode_memory_section(r: &mut Reader<'_>) -> Result<Vec<Limits>, DecodeError> {
    let count = checked_count(r)?;
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        out.push(decode_limits(r)?);
    }
    Ok(out)
}

/// A constant initializer expression: exactly one const instruction + `end`.
fn decode_const_expr(r: &mut Reader<'_>) -> Result<Instr, DecodeError> {
    let pos = r.pos();
    let instr = match r.read_u8()? {
        0x41 => Instr::I32Const(r.read_i32()?),
        0x42 => Instr::I64Const(r.read_i64()?),
        0x43 => Instr::F32Const(r.read_f32()?),
        0x44 => Instr::F64Const(r.read_f64()?),
        b => return Err(DecodeError::new(pos, format!("unsupported const expr opcode {b:#x}"))),
    };
    let pos = r.pos();
    if r.read_u8()? != 0x0b {
        return Err(DecodeError::new(pos, "const expr missing end"));
    }
    Ok(instr)
}

fn decode_const_i32(r: &mut Reader<'_>) -> Result<i32, DecodeError> {
    let pos = r.pos();
    match decode_const_expr(r)? {
        Instr::I32Const(v) => Ok(v),
        _ => Err(DecodeError::new(pos, "expected i32.const offset expression")),
    }
}

fn decode_global_section(r: &mut Reader<'_>) -> Result<Vec<Global>, DecodeError> {
    let count = checked_count(r)?;
    let mut out = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let ty = decode_global_type(r)?;
        let init = decode_const_expr(r)?;
        out.push(Global { ty, init });
    }
    Ok(out)
}

fn decode_export_section(r: &mut Reader<'_>) -> Result<Vec<Export>, DecodeError> {
    let count = checked_count(r)?;
    let mut out = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let name = r.read_name()?;
        let pos = r.pos();
        let kind = match r.read_u8()? {
            0x00 => ExportKind::Func,
            0x01 => ExportKind::Table,
            0x02 => ExportKind::Memory,
            0x03 => ExportKind::Global,
            b => return Err(DecodeError::new(pos, format!("bad export kind {b:#x}"))),
        };
        let index = r.read_u32()?;
        out.push(Export { name, kind, index });
    }
    Ok(out)
}

fn decode_element_section(r: &mut Reader<'_>) -> Result<Vec<ElementSegment>, DecodeError> {
    let count = checked_count(r)?;
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let pos = r.pos();
        let flags = r.read_u32()?;
        if flags != 0 {
            return Err(DecodeError::new(pos, "only active funcref element segments supported"));
        }
        let offset = decode_const_i32(r)?;
        let funcs = decode_vec_u32(r)?;
        out.push(ElementSegment { table: 0, offset, funcs });
    }
    Ok(out)
}

fn decode_data_section(r: &mut Reader<'_>) -> Result<Vec<DataSegment>, DecodeError> {
    let count = checked_count(r)?;
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let pos = r.pos();
        let flags = r.read_u32()?;
        if flags != 0 {
            return Err(DecodeError::new(pos, "only active data segments supported"));
        }
        let offset = decode_const_i32(r)?;
        let len = checked_count(r)? as usize;
        let bytes = r.read_bytes(len)?.to_vec();
        out.push(DataSegment { memory: 0, offset, bytes });
    }
    Ok(out)
}

fn decode_code_section(
    r: &mut Reader<'_>,
    func_types: &[u32],
) -> Result<Vec<Function>, DecodeError> {
    let count = checked_count(r)?;
    if count as usize != func_types.len() {
        return Err(DecodeError::new(
            r.pos(),
            format!("code section has {count} bodies but function section declared {}", func_types.len()),
        ));
    }
    let mut out = Vec::with_capacity(count.min(4096) as usize);
    for (i, &type_idx) in func_types.iter().enumerate() {
        let size = r.read_u32()? as usize;
        let mut body = r.sub_reader(size)?;
        let locals = decode_locals(&mut body)?;
        let instrs = decode_expr(&mut body)?;
        if !body.is_empty() {
            return Err(DecodeError::new(
                body.pos(),
                format!("function body {i} has trailing bytes"),
            ));
        }
        out.push(Function { type_idx, locals, body: instrs });
    }
    Ok(out)
}

fn decode_locals(r: &mut Reader<'_>) -> Result<Vec<ValType>, DecodeError> {
    let groups = checked_count(r)?;
    let mut locals = Vec::new();
    for _ in 0..groups {
        let n = checked_count(r)?;
        let pos = r.pos();
        let ty = ValType::from_byte(r.read_u8()?, pos)?;
        if locals.len() as u64 + n as u64 > 1_000_000 {
            return Err(DecodeError::new(pos, "too many locals"));
        }
        locals.extend(std::iter::repeat(ty).take(n as usize));
    }
    Ok(locals)
}

fn decode_block_type(r: &mut Reader<'_>) -> Result<BlockType, DecodeError> {
    // Peek: 0x40 is empty, a valtype byte is a single result, otherwise a
    // positive s33 type-section index.
    let pos = r.pos();
    match r.peek_u8() {
        Some(0x40) => {
            r.read_u8()?;
            Ok(BlockType::Empty)
        }
        Some(b) if matches!(b, 0x7f | 0x7e | 0x7d | 0x7c | 0x7b) => {
            r.read_u8()?;
            Ok(BlockType::Value(ValType::from_byte(b, pos)?))
        }
        Some(_) => {
            let idx = r.read_s33()?;
            if idx < 0 {
                return Err(DecodeError::new(pos, "negative block type index"));
            }
            Ok(BlockType::Func(idx as u32))
        }
        None => Err(DecodeError::new(pos, "unexpected end in block type")),
    }
}

fn decode_memarg(r: &mut Reader<'_>) -> Result<MemArg, DecodeError> {
    let align = r.read_u32()?;
    let offset = r.read_u32()?;
    Ok(MemArg { align, offset })
}

/// Decode an expression (the body of a function): a flat instruction list
/// terminated by the matching function-level `end`, which is kept as the
/// final [`Instr::End`].
///
/// The list is sized before it is filled. An instruction is at least one
/// byte, so the bytes `r` still holds bound the count; they are bytes the
/// caller has in hand (`sub_reader` checked them), so a hostile length
/// prefix reserves nothing. The loop stops when the reservation is full
/// (`r` is then empty) and never reallocates, and `shrink_to_fit` returns
/// the tail — pages nothing touched — to the allocator in place.
pub fn decode_expr(r: &mut Reader<'_>) -> Result<Vec<Instr>, DecodeError> {
    let mut instrs = Vec::with_capacity(r.remaining());
    // Depth of open blocks; the function body itself counts as one frame.
    let mut depth = 1u32;
    while depth > 0 {
        let instr = decode_instr(r)?;
        if instr.opens_block() {
            depth += 1;
        } else if matches!(instr, Instr::End) {
            depth -= 1;
        }
        instrs.push(instr);
    }
    instrs.shrink_to_fit();
    Ok(instrs)
}

fn decode_instr(r: &mut Reader<'_>) -> Result<Instr, DecodeError> {
    let pos = r.pos();
    let op = r.read_u8()?;
    Ok(match op {
        0x00 => Instr::Unreachable,
        0x01 => Instr::Nop,
        0x02 => Instr::Block(decode_block_type(r)?),
        0x03 => Instr::Loop(decode_block_type(r)?),
        0x04 => Instr::If(decode_block_type(r)?),
        0x05 => Instr::Else,
        0x0b => Instr::End,
        0x0c => Instr::Br(r.read_u32()?),
        0x0d => Instr::BrIf(r.read_u32()?),
        0x0e => {
            let targets = decode_vec_u32(r)?;
            let default = r.read_u32()?;
            Instr::br_table(targets, default)
        }
        0x0f => Instr::Return,
        0x10 => Instr::Call(r.read_u32()?),
        0x11 => {
            let type_idx = r.read_u32()?;
            let table = r.read_u32()?;
            Instr::CallIndirect { type_idx, table }
        }
        0x1a => Instr::Drop,
        0x1b => Instr::Select,
        0x20 => Instr::LocalGet(r.read_u32()?),
        0x21 => Instr::LocalSet(r.read_u32()?),
        0x22 => Instr::LocalTee(r.read_u32()?),
        0x23 => Instr::GlobalGet(r.read_u32()?),
        0x24 => Instr::GlobalSet(r.read_u32()?),
        0x28 => Instr::I32Load(decode_memarg(r)?),
        0x29 => Instr::I64Load(decode_memarg(r)?),
        0x2a => Instr::F32Load(decode_memarg(r)?),
        0x2b => Instr::F64Load(decode_memarg(r)?),
        0x2c => Instr::I32Load8S(decode_memarg(r)?),
        0x2d => Instr::I32Load8U(decode_memarg(r)?),
        0x2e => Instr::I32Load16S(decode_memarg(r)?),
        0x2f => Instr::I32Load16U(decode_memarg(r)?),
        0x30 => Instr::I64Load8S(decode_memarg(r)?),
        0x31 => Instr::I64Load8U(decode_memarg(r)?),
        0x32 => Instr::I64Load16S(decode_memarg(r)?),
        0x33 => Instr::I64Load16U(decode_memarg(r)?),
        0x34 => Instr::I64Load32S(decode_memarg(r)?),
        0x35 => Instr::I64Load32U(decode_memarg(r)?),
        0x36 => Instr::I32Store(decode_memarg(r)?),
        0x37 => Instr::I64Store(decode_memarg(r)?),
        0x38 => Instr::F32Store(decode_memarg(r)?),
        0x39 => Instr::F64Store(decode_memarg(r)?),
        0x3a => Instr::I32Store8(decode_memarg(r)?),
        0x3b => Instr::I32Store16(decode_memarg(r)?),
        0x3c => Instr::I64Store8(decode_memarg(r)?),
        0x3d => Instr::I64Store16(decode_memarg(r)?),
        0x3e => Instr::I64Store32(decode_memarg(r)?),
        0x3f => {
            expect_zero_byte(r)?;
            Instr::MemorySize
        }
        0x40 => {
            expect_zero_byte(r)?;
            Instr::MemoryGrow
        }
        0x41 => Instr::I32Const(r.read_i32()?),
        0x42 => Instr::I64Const(r.read_i64()?),
        0x43 => Instr::F32Const(r.read_f32()?),
        0x44 => Instr::F64Const(r.read_f64()?),
        0x45 => Instr::I32Eqz,
        0x46 => Instr::I32Eq,
        0x47 => Instr::I32Ne,
        0x48 => Instr::I32LtS,
        0x49 => Instr::I32LtU,
        0x4a => Instr::I32GtS,
        0x4b => Instr::I32GtU,
        0x4c => Instr::I32LeS,
        0x4d => Instr::I32LeU,
        0x4e => Instr::I32GeS,
        0x4f => Instr::I32GeU,
        0x50 => Instr::I64Eqz,
        0x51 => Instr::I64Eq,
        0x52 => Instr::I64Ne,
        0x53 => Instr::I64LtS,
        0x54 => Instr::I64LtU,
        0x55 => Instr::I64GtS,
        0x56 => Instr::I64GtU,
        0x57 => Instr::I64LeS,
        0x58 => Instr::I64LeU,
        0x59 => Instr::I64GeS,
        0x5a => Instr::I64GeU,
        0x5b => Instr::F32Eq,
        0x5c => Instr::F32Ne,
        0x5d => Instr::F32Lt,
        0x5e => Instr::F32Gt,
        0x5f => Instr::F32Le,
        0x60 => Instr::F32Ge,
        0x61 => Instr::F64Eq,
        0x62 => Instr::F64Ne,
        0x63 => Instr::F64Lt,
        0x64 => Instr::F64Gt,
        0x65 => Instr::F64Le,
        0x66 => Instr::F64Ge,
        0x67 => Instr::I32Clz,
        0x68 => Instr::I32Ctz,
        0x69 => Instr::I32Popcnt,
        0x6a => Instr::I32Add,
        0x6b => Instr::I32Sub,
        0x6c => Instr::I32Mul,
        0x6d => Instr::I32DivS,
        0x6e => Instr::I32DivU,
        0x6f => Instr::I32RemS,
        0x70 => Instr::I32RemU,
        0x71 => Instr::I32And,
        0x72 => Instr::I32Or,
        0x73 => Instr::I32Xor,
        0x74 => Instr::I32Shl,
        0x75 => Instr::I32ShrS,
        0x76 => Instr::I32ShrU,
        0x77 => Instr::I32Rotl,
        0x78 => Instr::I32Rotr,
        0x79 => Instr::I64Clz,
        0x7a => Instr::I64Ctz,
        0x7b => Instr::I64Popcnt,
        0x7c => Instr::I64Add,
        0x7d => Instr::I64Sub,
        0x7e => Instr::I64Mul,
        0x7f => Instr::I64DivS,
        0x80 => Instr::I64DivU,
        0x81 => Instr::I64RemS,
        0x82 => Instr::I64RemU,
        0x83 => Instr::I64And,
        0x84 => Instr::I64Or,
        0x85 => Instr::I64Xor,
        0x86 => Instr::I64Shl,
        0x87 => Instr::I64ShrS,
        0x88 => Instr::I64ShrU,
        0x89 => Instr::I64Rotl,
        0x8a => Instr::I64Rotr,
        0x8b => Instr::F32Abs,
        0x8c => Instr::F32Neg,
        0x8d => Instr::F32Ceil,
        0x8e => Instr::F32Floor,
        0x8f => Instr::F32Trunc,
        0x90 => Instr::F32Nearest,
        0x91 => Instr::F32Sqrt,
        0x92 => Instr::F32Add,
        0x93 => Instr::F32Sub,
        0x94 => Instr::F32Mul,
        0x95 => Instr::F32Div,
        0x96 => Instr::F32Min,
        0x97 => Instr::F32Max,
        0x98 => Instr::F32Copysign,
        0x99 => Instr::F64Abs,
        0x9a => Instr::F64Neg,
        0x9b => Instr::F64Ceil,
        0x9c => Instr::F64Floor,
        0x9d => Instr::F64Trunc,
        0x9e => Instr::F64Nearest,
        0x9f => Instr::F64Sqrt,
        0xa0 => Instr::F64Add,
        0xa1 => Instr::F64Sub,
        0xa2 => Instr::F64Mul,
        0xa3 => Instr::F64Div,
        0xa4 => Instr::F64Min,
        0xa5 => Instr::F64Max,
        0xa6 => Instr::F64Copysign,
        0xa7 => Instr::I32WrapI64,
        0xa8 => Instr::I32TruncF32S,
        0xa9 => Instr::I32TruncF32U,
        0xaa => Instr::I32TruncF64S,
        0xab => Instr::I32TruncF64U,
        0xac => Instr::I64ExtendI32S,
        0xad => Instr::I64ExtendI32U,
        0xae => Instr::I64TruncF32S,
        0xaf => Instr::I64TruncF32U,
        0xb0 => Instr::I64TruncF64S,
        0xb1 => Instr::I64TruncF64U,
        0xb2 => Instr::F32ConvertI32S,
        0xb3 => Instr::F32ConvertI32U,
        0xb4 => Instr::F32ConvertI64S,
        0xb5 => Instr::F32ConvertI64U,
        0xb6 => Instr::F32DemoteF64,
        0xb7 => Instr::F64ConvertI32S,
        0xb8 => Instr::F64ConvertI32U,
        0xb9 => Instr::F64ConvertI64S,
        0xba => Instr::F64ConvertI64U,
        0xbb => Instr::F64PromoteF32,
        0xbc => Instr::I32ReinterpretF32,
        0xbd => Instr::I64ReinterpretF64,
        0xbe => Instr::F32ReinterpretI32,
        0xbf => Instr::F64ReinterpretI64,
        0xc0 => Instr::I32Extend8S,
        0xc1 => Instr::I32Extend16S,
        0xc2 => Instr::I64Extend8S,
        0xc3 => Instr::I64Extend16S,
        0xc4 => Instr::I64Extend32S,
        0xfc => decode_misc_instr(r, pos)?,
        0xfd => decode_simd_instr(r, pos)?,
        b => return Err(DecodeError::new(pos, format!("unknown opcode {b:#x}"))),
    })
}

fn expect_zero_byte(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    let pos = r.pos();
    if r.read_u8()? != 0 {
        return Err(DecodeError::new(pos, "expected zero byte (memory index)"));
    }
    Ok(())
}

fn decode_misc_instr(r: &mut Reader<'_>, pos: usize) -> Result<Instr, DecodeError> {
    match r.read_u32()? {
        10 => {
            expect_zero_byte(r)?;
            expect_zero_byte(r)?;
            Ok(Instr::MemoryCopy)
        }
        11 => {
            expect_zero_byte(r)?;
            Ok(Instr::MemoryFill)
        }
        sub => Err(DecodeError::new(pos, format!("unsupported 0xfc sub-opcode {sub}"))),
    }
}

fn decode_simd_instr(r: &mut Reader<'_>, pos: usize) -> Result<Instr, DecodeError> {
    let sub = r.read_u32()?;
    Ok(match sub {
        0 => Instr::V128Load(decode_memarg(r)?),
        11 => Instr::V128Store(decode_memarg(r)?),
        12 => {
            let bytes = r.read_bytes(16)?;
            let mut arr = [0u8; 16];
            arr.copy_from_slice(bytes);
            Instr::v128_const(arr)
        }
        17 => Instr::I32x4Splat,
        18 => Instr::I64x2Splat,
        19 => Instr::F32x4Splat,
        20 => Instr::F64x2Splat,
        27 => Instr::I32x4ExtractLane(r.read_u8()?),
        31 => Instr::F32x4ExtractLane(r.read_u8()?),
        33 => Instr::F64x2ExtractLane(r.read_u8()?),
        34 => Instr::F64x2ReplaceLane(r.read_u8()?),
        71 => Instr::F64x2Eq,
        72 => Instr::F64x2Ne,
        73 => Instr::F64x2Lt,
        74 => Instr::F64x2Gt,
        75 => Instr::F64x2Le,
        76 => Instr::F64x2Ge,
        77 => Instr::V128Not,
        78 => Instr::V128And,
        80 => Instr::V128Or,
        81 => Instr::V128Xor,
        83 => Instr::V128AnyTrue,
        163 => Instr::I32x4AllTrue,
        164 => Instr::I32x4Bitmask,
        174 => Instr::I32x4Add,
        177 => Instr::I32x4Sub,
        181 => Instr::I32x4Mul,
        228 => Instr::F32x4Add,
        229 => Instr::F32x4Sub,
        230 => Instr::F32x4Mul,
        231 => Instr::F32x4Div,
        240 => Instr::F64x2Add,
        241 => Instr::F64x2Sub,
        242 => Instr::F64x2Mul,
        243 => Instr::F64x2Div,
        other => return Err(DecodeError::new(pos, format!("unsupported SIMD sub-opcode {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_magic() {
        let err = decode_module(b"\x01asm\x01\x00\x00\x00").unwrap_err();
        assert!(err.message.contains("magic"));
    }

    #[test]
    fn rejects_bad_version() {
        let err = decode_module(b"\x00asm\x02\x00\x00\x00").unwrap_err();
        assert!(err.message.contains("version"));
    }

    #[test]
    fn decodes_empty_module() {
        let m = decode_module(b"\x00asm\x01\x00\x00\x00").unwrap();
        assert!(m.types.is_empty());
        assert!(m.functions.is_empty());
    }

    #[test]
    fn rejects_truncated_section() {
        // Section id 1, declared size 10, no payload.
        let err = decode_module(b"\x00asm\x01\x00\x00\x00\x01\x0a").unwrap_err();
        assert!(err.message.contains("bytes"));
    }

    #[test]
    fn rejects_out_of_order_sections() {
        // Memory section (5) followed by type section (1).
        let mut bytes = b"\x00asm\x01\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&[5, 1, 0]); // empty memory section
        bytes.extend_from_slice(&[1, 1, 0]); // empty type section
        let err = decode_module(&bytes).unwrap_err();
        assert!(err.message.contains("out of order"));
    }

    #[test]
    fn rejects_hostile_vector_length() {
        // Type section claiming u32::MAX entries.
        let mut bytes = b"\x00asm\x01\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&[1, 5, 0xff, 0xff, 0xff, 0xff, 0x0f]);
        let err = decode_module(&bytes).unwrap_err();
        assert!(err.message.contains("limit"), "{err}");
    }

    #[test]
    fn decodes_minimal_function_module() {
        // (module (func (result i32) i32.const 7))
        let mut bytes = b"\x00asm\x01\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&[1, 5, 1, 0x60, 0, 1, 0x7f]); // type section
        bytes.extend_from_slice(&[3, 2, 1, 0]); // function section
        bytes.extend_from_slice(&[10, 6, 1, 4, 0, 0x41, 7, 0x0b]); // code section
        let m = decode_module(&bytes).unwrap();
        assert_eq!(m.functions.len(), 1);
        assert_eq!(
            m.functions[0].body,
            vec![Instr::I32Const(7), Instr::End]
        );
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut bytes = b"\x00asm\x01\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]); // type ()->()
        bytes.extend_from_slice(&[3, 2, 1, 0]);
        bytes.extend_from_slice(&[10, 5, 1, 3, 0, 0xf5, 0x0b]); // 0xf5 invalid
        let err = decode_module(&bytes).unwrap_err();
        assert!(err.message.contains("unknown opcode 0xf5"), "{err}");
        // Header 8, type section 6, function section 4, then id, size,
        // count, body size, locals: the opcode is byte 0x17 of the file.
        assert_eq!(err.offset, 0x17, "{err}");
    }

    #[test]
    fn an_error_in_a_section_reports_its_file_offset() {
        let mut bytes = b"\x00asm\x01\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]); // type ()->(), bytes 8..14
        bytes.extend_from_slice(&[7, 5, 1, 1, b'x', 0x07, 0]); // export "x", kind 7
        let err = decode_module(&bytes).unwrap_err();
        assert!(err.message.contains("bad export kind"), "{err}");
        assert_eq!(err.offset, 0x13, "{err}");
    }

    #[test]
    fn an_error_in_a_br_table_vector_reports_its_file_offset() {
        let mut bytes = b"\x00asm\x01\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]);
        bytes.extend_from_slice(&[3, 2, 1, 0]);
        // i32.const 0; br_table with u32::MAX targets — three readers deep.
        bytes.extend_from_slice(&[10, 12, 1, 10, 0, 0x41, 0, 0x0e]);
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f, 0x0b]);
        let err = decode_module(&bytes).unwrap_err();
        assert!(err.message.contains("limit"), "{err}");
        assert_eq!(err.offset, 0x1a, "{err}");
    }

    #[test]
    fn custom_section_name_parsed_and_unknown_skipped() {
        let mut bytes = b"\x00asm\x01\x00\x00\x00".to_vec();
        // custom "name" section with module-name subsection "hi".
        let mut payload = Vec::new();
        crate::leb128::write_name(&mut payload, "name");
        payload.push(0); // subsection id 0
        let mut sub = Vec::new();
        crate::leb128::write_name(&mut sub, "hi");
        crate::leb128::write_u32(&mut payload, sub.len() as u32);
        payload.extend_from_slice(&sub);
        bytes.push(0);
        crate::leb128::write_u32(&mut bytes, payload.len() as u32);
        bytes.extend_from_slice(&payload);
        // unknown custom section
        let mut payload2 = Vec::new();
        crate::leb128::write_name(&mut payload2, "weird");
        payload2.extend_from_slice(&[1, 2, 3]);
        bytes.push(0);
        crate::leb128::write_u32(&mut bytes, payload2.len() as u32);
        bytes.extend_from_slice(&payload2);

        let m = decode_module(&bytes).unwrap();
        assert_eq!(m.name.as_deref(), Some("hi"));
    }
}

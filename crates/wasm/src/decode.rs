//! Decoding of the Wasm binary format into a [`Module`].
//!
//! Implements the MVP sections, the sign-extension operators, the
//! `memory.copy`/`memory.fill` bulk-memory instructions, and the SIMD
//! subset listed in [`crate::instr`]. Instructions are read by a `match`
//! expanded from the instruction table, [`crate::instr::for_each_instr!`]:
//! a byte no row names is no instruction. Unknown constructs are rejected
//! with a positioned [`DecodeError`] — the embedder never executes anything
//! the decoder did not fully understand.

use crate::error::DecodeError;
use crate::instr::{for_each_instr, BrTable, Instr, MemArg};
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
    use Instr::{F32Const, F64Const, I32Const, I64Const};
    let (pos, op) = (r.pos(), r.peek_u8());
    let instr = match decode_instr(r) {
        Ok(c @ (I32Const(_) | I64Const(_) | F32Const(_) | F64Const(_))) => c,
        // An immediate that does not read, or no byte at all: the reader's
        // own error.
        Err(e) if e.offset > pos || op.is_none() => return Err(e),
        _ => {
            let b = op.unwrap_or_default();
            return Err(DecodeError::new(pos, format!("unsupported const expr opcode {b:#x}")));
        }
    };
    let pos = r.pos();
    if r.is_empty() {
        // Truncated: the reader's own error, as anywhere in a section.
        r.read_u8()?;
    }
    if decode_instr(r).ok() != Some(Instr::End) {
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

/// Decode one instruction: a `match` on the opcode, and on the sub-opcode
/// after a prefix byte, with one arm per row of [`for_each_instr!`], each
/// reading that row's immediate.
///
/// Always inlined: `decode_expr`'s loop is where a cold start spends its
/// decode time, and out of line this function made decoding the
/// benchmark's 650-KB module ≈ 4× slower. (The other callers, in
/// `decode_const_expr`, run once per global or segment.)
#[inline(always)]
pub(crate) fn decode_instr(r: &mut Reader<'_>) -> Result<Instr, DecodeError> {
    let pos = r.pos();
    let op = r.read_u8()?;
    macro_rules! decode {
        (
            { $($name:ident $op:literal $imm:ident $(($($sig:tt)*) ($($low:tt)*))?;)* }
            $($prefix:literal {
                $($pname:ident $sub:literal $pimm:ident $(($($psig:tt)*) ($($plow:tt)*))?;)*
            })*
        ) => {
            Ok(match op {
                $($op => read_imm!($name, $imm),)*
                $($prefix => match r.read_u32()? {
                    $($sub => read_imm!($pname, $pimm),)*
                    sub => {
                        let what = if op == 0xfd { "SIMD".into() } else { format!("{op:#x}") };
                        let msg = format!("unsupported {what} sub-opcode {sub}");
                        return Err(DecodeError::new(pos, msg));
                    }
                },)*
                b => return Err(DecodeError::new(pos, format!("unknown opcode {b:#x}"))),
            })
        };
    }
    /// Row `$name` with its immediate read from `r`.
    macro_rules! read_imm {
        ($name:ident, none) => { Instr::$name };
        ($name:ident, index) => { Instr::$name(r.read_u32()?) };
        ($name:ident, block) => { Instr::$name(decode_block_type(r)?) };
        ($name:ident, memarg) => { Instr::$name(decode_memarg(r)?) };
        ($name:ident, br_table) => {{
            let targets = decode_vec_u32(r)?;
            let default = r.read_u32()?;
            Instr::$name(Box::new(BrTable { targets, default }))
        }};
        ($name:ident, call_indirect) => {
            Instr::$name { type_idx: r.read_u32()?, table: r.read_u32()? }
        };
        ($name:ident, i32) => { Instr::$name(r.read_i32()?) };
        ($name:ident, i64) => { Instr::$name(r.read_i64()?) };
        ($name:ident, f32) => { Instr::$name(r.read_f32()?) };
        ($name:ident, f64) => { Instr::$name(r.read_f64()?) };
        ($name:ident, v128) => {{
            let mut bytes = [0u8; 16];
            bytes.copy_from_slice(r.read_bytes(16)?);
            Instr::$name(Box::new(bytes))
        }};
        ($name:ident, lane) => { Instr::$name(r.read_u8()?) };
        ($name:ident, zero) => {{
            expect_zero_byte(r)?;
            Instr::$name
        }};
        ($name:ident, zero2) => {{
            expect_zero_byte(r)?;
            expect_zero_byte(r)?;
            Instr::$name
        }};
    }
    for_each_instr!(decode)
}

fn expect_zero_byte(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    let pos = r.pos();
    if r.read_u8()? != 0 {
        return Err(DecodeError::new(pos, "expected zero byte (memory index)"));
    }
    Ok(())
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

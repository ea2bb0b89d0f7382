//! Encoding of a [`Module`] back to the Wasm binary format.
//!
//! Together with [`crate::decode`] this forms a lossless round-trip for
//! every construct the engine supports; the module builder and DSL emit
//! through this path, so generated guest binaries are real Wasm binaries.

use crate::instr::{Instr, MemArg};
use crate::leb128::{write_i32, write_i64, write_name, write_u32};
use crate::module::{Export, ExportKind, Function, Global, Import, Module};
use crate::types::{BlockType, ExternKind, FuncType, GlobalType, Limits, Mutability, ValType};
use crate::{WASM_MAGIC, WASM_VERSION};

/// Encode a module to binary bytes.
pub fn encode_module(module: &Module) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(&WASM_MAGIC);
    out.extend_from_slice(&WASM_VERSION);

    if !module.types.is_empty() {
        write_section(&mut out, 1, |buf| {
            write_u32(buf, module.types.len() as u32);
            for t in &module.types {
                encode_functype(buf, t);
            }
        });
    }
    if !module.imports.is_empty() {
        write_section(&mut out, 2, |buf| {
            write_u32(buf, module.imports.len() as u32);
            for imp in &module.imports {
                encode_import(buf, imp);
            }
        });
    }
    if !module.functions.is_empty() {
        write_section(&mut out, 3, |buf| {
            write_u32(buf, module.functions.len() as u32);
            for f in &module.functions {
                write_u32(buf, f.type_idx);
            }
        });
    }
    if !module.tables.is_empty() {
        write_section(&mut out, 4, |buf| {
            write_u32(buf, module.tables.len() as u32);
            for limits in &module.tables {
                buf.push(0x70);
                encode_limits(buf, limits);
            }
        });
    }
    if !module.memories.is_empty() {
        write_section(&mut out, 5, |buf| {
            write_u32(buf, module.memories.len() as u32);
            for limits in &module.memories {
                encode_limits(buf, limits);
            }
        });
    }
    if !module.globals.is_empty() {
        write_section(&mut out, 6, |buf| {
            write_u32(buf, module.globals.len() as u32);
            for g in &module.globals {
                encode_global(buf, g);
            }
        });
    }
    if !module.exports.is_empty() {
        write_section(&mut out, 7, |buf| {
            write_u32(buf, module.exports.len() as u32);
            for e in &module.exports {
                encode_export(buf, e);
            }
        });
    }
    if let Some(start) = module.start {
        write_section(&mut out, 8, |buf| write_u32(buf, start));
    }
    if !module.elements.is_empty() {
        write_section(&mut out, 9, |buf| {
            write_u32(buf, module.elements.len() as u32);
            for seg in &module.elements {
                write_u32(buf, 0); // flags: active, table 0
                encode_const_i32(buf, seg.offset);
                write_u32(buf, seg.funcs.len() as u32);
                for &f in &seg.funcs {
                    write_u32(buf, f);
                }
            }
        });
    }
    if !module.functions.is_empty() {
        write_section(&mut out, 10, |buf| {
            write_u32(buf, module.functions.len() as u32);
            for f in &module.functions {
                encode_code(buf, f);
            }
        });
    }
    if !module.data.is_empty() {
        write_section(&mut out, 11, |buf| {
            write_u32(buf, module.data.len() as u32);
            for seg in &module.data {
                write_u32(buf, 0); // flags: active, memory 0
                encode_const_i32(buf, seg.offset);
                write_u32(buf, seg.bytes.len() as u32);
                buf.extend_from_slice(&seg.bytes);
            }
        });
    }
    if let Some(name) = &module.name {
        write_section(&mut out, 0, |buf| {
            write_name(buf, "name");
            let mut sub = Vec::new();
            write_name(&mut sub, name);
            buf.push(0);
            write_u32(buf, sub.len() as u32);
            buf.extend_from_slice(&sub);
        });
    }
    out
}

fn write_section(out: &mut Vec<u8>, id: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    let mut payload = Vec::new();
    fill(&mut payload);
    out.push(id);
    write_u32(out, payload.len() as u32);
    out.extend_from_slice(&payload);
}

fn encode_functype(out: &mut Vec<u8>, t: &FuncType) {
    out.push(0x60);
    write_u32(out, t.params.len() as u32);
    for p in &t.params {
        out.push(p.to_byte());
    }
    write_u32(out, t.results.len() as u32);
    for r in &t.results {
        out.push(r.to_byte());
    }
}

fn encode_limits(out: &mut Vec<u8>, l: &Limits) {
    match l.max {
        None => {
            out.push(0x00);
            write_u32(out, l.min);
        }
        Some(max) => {
            out.push(0x01);
            write_u32(out, l.min);
            write_u32(out, max);
        }
    }
}

fn encode_global_type(out: &mut Vec<u8>, g: &GlobalType) {
    out.push(g.val_type.to_byte());
    out.push(match g.mutability {
        Mutability::Const => 0x00,
        Mutability::Var => 0x01,
    });
}

fn encode_import(out: &mut Vec<u8>, imp: &Import) {
    write_name(out, &imp.module);
    write_name(out, &imp.name);
    match &imp.kind {
        ExternKind::Func(type_idx) => {
            out.push(0x00);
            write_u32(out, *type_idx);
        }
        ExternKind::Table(limits) => {
            out.push(0x01);
            out.push(0x70);
            encode_limits(out, limits);
        }
        ExternKind::Memory(limits) => {
            out.push(0x02);
            encode_limits(out, limits);
        }
        ExternKind::Global(g) => {
            out.push(0x03);
            encode_global_type(out, g);
        }
    }
}

fn encode_global(out: &mut Vec<u8>, g: &Global) {
    encode_global_type(out, &g.ty);
    encode_instr(out, &g.init);
    out.push(0x0b);
}

fn encode_export(out: &mut Vec<u8>, e: &Export) {
    write_name(out, &e.name);
    out.push(match e.kind {
        ExportKind::Func => 0x00,
        ExportKind::Table => 0x01,
        ExportKind::Memory => 0x02,
        ExportKind::Global => 0x03,
    });
    write_u32(out, e.index);
}

fn encode_const_i32(out: &mut Vec<u8>, v: i32) {
    out.push(0x41);
    write_i32(out, v);
    out.push(0x0b);
}

fn encode_code(out: &mut Vec<u8>, f: &Function) {
    let mut body = Vec::new();
    // Run-length encode locals.
    let mut groups: Vec<(u32, ValType)> = Vec::new();
    for &l in &f.locals {
        match groups.last_mut() {
            Some((count, ty)) if *ty == l => *count += 1,
            _ => groups.push((1, l)),
        }
    }
    write_u32(&mut body, groups.len() as u32);
    for (count, ty) in groups {
        write_u32(&mut body, count);
        body.push(ty.to_byte());
    }
    for instr in &f.body {
        encode_instr(&mut body, instr);
    }
    write_u32(out, body.len() as u32);
    out.extend_from_slice(&body);
}

fn encode_block_type(out: &mut Vec<u8>, bt: &BlockType) {
    match bt {
        BlockType::Empty => out.push(0x40),
        BlockType::Value(t) => out.push(t.to_byte()),
        BlockType::Func(idx) => write_i64(out, *idx as i64),
    }
}

fn encode_memarg(out: &mut Vec<u8>, m: &MemArg) {
    write_u32(out, m.align);
    write_u32(out, m.offset);
}

fn simd(out: &mut Vec<u8>, sub: u32) {
    out.push(0xfd);
    write_u32(out, sub);
}

/// Encode a single instruction.
pub fn encode_instr(out: &mut Vec<u8>, instr: &Instr) {
    use Instr::*;
    match instr {
        Unreachable => out.push(0x00),
        Nop => out.push(0x01),
        Block(bt) => {
            out.push(0x02);
            encode_block_type(out, bt);
        }
        Loop(bt) => {
            out.push(0x03);
            encode_block_type(out, bt);
        }
        If(bt) => {
            out.push(0x04);
            encode_block_type(out, bt);
        }
        Else => out.push(0x05),
        End => out.push(0x0b),
        Br(d) => {
            out.push(0x0c);
            write_u32(out, *d);
        }
        BrIf(d) => {
            out.push(0x0d);
            write_u32(out, *d);
        }
        BrTable(table) => {
            out.push(0x0e);
            write_u32(out, table.targets.len() as u32);
            for t in &table.targets {
                write_u32(out, *t);
            }
            write_u32(out, table.default);
        }
        Return => out.push(0x0f),
        Call(f) => {
            out.push(0x10);
            write_u32(out, *f);
        }
        CallIndirect { type_idx, table } => {
            out.push(0x11);
            write_u32(out, *type_idx);
            write_u32(out, *table);
        }
        Drop => out.push(0x1a),
        Select => out.push(0x1b),
        LocalGet(i) => {
            out.push(0x20);
            write_u32(out, *i);
        }
        LocalSet(i) => {
            out.push(0x21);
            write_u32(out, *i);
        }
        LocalTee(i) => {
            out.push(0x22);
            write_u32(out, *i);
        }
        GlobalGet(i) => {
            out.push(0x23);
            write_u32(out, *i);
        }
        GlobalSet(i) => {
            out.push(0x24);
            write_u32(out, *i);
        }
        I32Load(m) => {
            out.push(0x28);
            encode_memarg(out, m);
        }
        I64Load(m) => {
            out.push(0x29);
            encode_memarg(out, m);
        }
        F32Load(m) => {
            out.push(0x2a);
            encode_memarg(out, m);
        }
        F64Load(m) => {
            out.push(0x2b);
            encode_memarg(out, m);
        }
        I32Load8S(m) => {
            out.push(0x2c);
            encode_memarg(out, m);
        }
        I32Load8U(m) => {
            out.push(0x2d);
            encode_memarg(out, m);
        }
        I32Load16S(m) => {
            out.push(0x2e);
            encode_memarg(out, m);
        }
        I32Load16U(m) => {
            out.push(0x2f);
            encode_memarg(out, m);
        }
        I64Load8S(m) => {
            out.push(0x30);
            encode_memarg(out, m);
        }
        I64Load8U(m) => {
            out.push(0x31);
            encode_memarg(out, m);
        }
        I64Load16S(m) => {
            out.push(0x32);
            encode_memarg(out, m);
        }
        I64Load16U(m) => {
            out.push(0x33);
            encode_memarg(out, m);
        }
        I64Load32S(m) => {
            out.push(0x34);
            encode_memarg(out, m);
        }
        I64Load32U(m) => {
            out.push(0x35);
            encode_memarg(out, m);
        }
        I32Store(m) => {
            out.push(0x36);
            encode_memarg(out, m);
        }
        I64Store(m) => {
            out.push(0x37);
            encode_memarg(out, m);
        }
        F32Store(m) => {
            out.push(0x38);
            encode_memarg(out, m);
        }
        F64Store(m) => {
            out.push(0x39);
            encode_memarg(out, m);
        }
        I32Store8(m) => {
            out.push(0x3a);
            encode_memarg(out, m);
        }
        I32Store16(m) => {
            out.push(0x3b);
            encode_memarg(out, m);
        }
        I64Store8(m) => {
            out.push(0x3c);
            encode_memarg(out, m);
        }
        I64Store16(m) => {
            out.push(0x3d);
            encode_memarg(out, m);
        }
        I64Store32(m) => {
            out.push(0x3e);
            encode_memarg(out, m);
        }
        MemorySize => out.extend_from_slice(&[0x3f, 0x00]),
        MemoryGrow => out.extend_from_slice(&[0x40, 0x00]),
        MemoryCopy => {
            out.push(0xfc);
            write_u32(out, 10);
            out.extend_from_slice(&[0x00, 0x00]);
        }
        MemoryFill => {
            out.push(0xfc);
            write_u32(out, 11);
            out.push(0x00);
        }
        I32Const(v) => {
            out.push(0x41);
            write_i32(out, *v);
        }
        I64Const(v) => {
            out.push(0x42);
            write_i64(out, *v);
        }
        F32Const(v) => {
            out.push(0x43);
            out.extend_from_slice(&v.to_le_bytes());
        }
        F64Const(v) => {
            out.push(0x44);
            out.extend_from_slice(&v.to_le_bytes());
        }
        I32Eqz => out.push(0x45),
        I32Eq => out.push(0x46),
        I32Ne => out.push(0x47),
        I32LtS => out.push(0x48),
        I32LtU => out.push(0x49),
        I32GtS => out.push(0x4a),
        I32GtU => out.push(0x4b),
        I32LeS => out.push(0x4c),
        I32LeU => out.push(0x4d),
        I32GeS => out.push(0x4e),
        I32GeU => out.push(0x4f),
        I64Eqz => out.push(0x50),
        I64Eq => out.push(0x51),
        I64Ne => out.push(0x52),
        I64LtS => out.push(0x53),
        I64LtU => out.push(0x54),
        I64GtS => out.push(0x55),
        I64GtU => out.push(0x56),
        I64LeS => out.push(0x57),
        I64LeU => out.push(0x58),
        I64GeS => out.push(0x59),
        I64GeU => out.push(0x5a),
        F32Eq => out.push(0x5b),
        F32Ne => out.push(0x5c),
        F32Lt => out.push(0x5d),
        F32Gt => out.push(0x5e),
        F32Le => out.push(0x5f),
        F32Ge => out.push(0x60),
        F64Eq => out.push(0x61),
        F64Ne => out.push(0x62),
        F64Lt => out.push(0x63),
        F64Gt => out.push(0x64),
        F64Le => out.push(0x65),
        F64Ge => out.push(0x66),
        I32Clz => out.push(0x67),
        I32Ctz => out.push(0x68),
        I32Popcnt => out.push(0x69),
        I32Add => out.push(0x6a),
        I32Sub => out.push(0x6b),
        I32Mul => out.push(0x6c),
        I32DivS => out.push(0x6d),
        I32DivU => out.push(0x6e),
        I32RemS => out.push(0x6f),
        I32RemU => out.push(0x70),
        I32And => out.push(0x71),
        I32Or => out.push(0x72),
        I32Xor => out.push(0x73),
        I32Shl => out.push(0x74),
        I32ShrS => out.push(0x75),
        I32ShrU => out.push(0x76),
        I32Rotl => out.push(0x77),
        I32Rotr => out.push(0x78),
        I64Clz => out.push(0x79),
        I64Ctz => out.push(0x7a),
        I64Popcnt => out.push(0x7b),
        I64Add => out.push(0x7c),
        I64Sub => out.push(0x7d),
        I64Mul => out.push(0x7e),
        I64DivS => out.push(0x7f),
        I64DivU => out.push(0x80),
        I64RemS => out.push(0x81),
        I64RemU => out.push(0x82),
        I64And => out.push(0x83),
        I64Or => out.push(0x84),
        I64Xor => out.push(0x85),
        I64Shl => out.push(0x86),
        I64ShrS => out.push(0x87),
        I64ShrU => out.push(0x88),
        I64Rotl => out.push(0x89),
        I64Rotr => out.push(0x8a),
        F32Abs => out.push(0x8b),
        F32Neg => out.push(0x8c),
        F32Ceil => out.push(0x8d),
        F32Floor => out.push(0x8e),
        F32Trunc => out.push(0x8f),
        F32Nearest => out.push(0x90),
        F32Sqrt => out.push(0x91),
        F32Add => out.push(0x92),
        F32Sub => out.push(0x93),
        F32Mul => out.push(0x94),
        F32Div => out.push(0x95),
        F32Min => out.push(0x96),
        F32Max => out.push(0x97),
        F32Copysign => out.push(0x98),
        F64Abs => out.push(0x99),
        F64Neg => out.push(0x9a),
        F64Ceil => out.push(0x9b),
        F64Floor => out.push(0x9c),
        F64Trunc => out.push(0x9d),
        F64Nearest => out.push(0x9e),
        F64Sqrt => out.push(0x9f),
        F64Add => out.push(0xa0),
        F64Sub => out.push(0xa1),
        F64Mul => out.push(0xa2),
        F64Div => out.push(0xa3),
        F64Min => out.push(0xa4),
        F64Max => out.push(0xa5),
        F64Copysign => out.push(0xa6),
        I32WrapI64 => out.push(0xa7),
        I32TruncF32S => out.push(0xa8),
        I32TruncF32U => out.push(0xa9),
        I32TruncF64S => out.push(0xaa),
        I32TruncF64U => out.push(0xab),
        I64ExtendI32S => out.push(0xac),
        I64ExtendI32U => out.push(0xad),
        I64TruncF32S => out.push(0xae),
        I64TruncF32U => out.push(0xaf),
        I64TruncF64S => out.push(0xb0),
        I64TruncF64U => out.push(0xb1),
        F32ConvertI32S => out.push(0xb2),
        F32ConvertI32U => out.push(0xb3),
        F32ConvertI64S => out.push(0xb4),
        F32ConvertI64U => out.push(0xb5),
        F32DemoteF64 => out.push(0xb6),
        F64ConvertI32S => out.push(0xb7),
        F64ConvertI32U => out.push(0xb8),
        F64ConvertI64S => out.push(0xb9),
        F64ConvertI64U => out.push(0xba),
        F64PromoteF32 => out.push(0xbb),
        I32ReinterpretF32 => out.push(0xbc),
        I64ReinterpretF64 => out.push(0xbd),
        F32ReinterpretI32 => out.push(0xbe),
        F64ReinterpretI64 => out.push(0xbf),
        I32Extend8S => out.push(0xc0),
        I32Extend16S => out.push(0xc1),
        I64Extend8S => out.push(0xc2),
        I64Extend16S => out.push(0xc3),
        I64Extend32S => out.push(0xc4),
        V128Load(m) => {
            simd(out, 0);
            encode_memarg(out, m);
        }
        V128Store(m) => {
            simd(out, 11);
            encode_memarg(out, m);
        }
        V128Const(bytes) => {
            simd(out, 12);
            out.extend_from_slice(&**bytes);
        }
        I32x4Splat => simd(out, 17),
        I64x2Splat => simd(out, 18),
        F32x4Splat => simd(out, 19),
        F64x2Splat => simd(out, 20),
        I32x4ExtractLane(l) => {
            simd(out, 27);
            out.push(*l);
        }
        F32x4ExtractLane(l) => {
            simd(out, 31);
            out.push(*l);
        }
        F64x2ExtractLane(l) => {
            simd(out, 33);
            out.push(*l);
        }
        F64x2ReplaceLane(l) => {
            simd(out, 34);
            out.push(*l);
        }
        F64x2Eq => simd(out, 71),
        F64x2Ne => simd(out, 72),
        F64x2Lt => simd(out, 73),
        F64x2Gt => simd(out, 74),
        F64x2Le => simd(out, 75),
        F64x2Ge => simd(out, 76),
        V128Not => simd(out, 77),
        V128And => simd(out, 78),
        V128Or => simd(out, 80),
        V128Xor => simd(out, 81),
        V128AnyTrue => simd(out, 83),
        I32x4AllTrue => simd(out, 163),
        I32x4Bitmask => simd(out, 164),
        I32x4Add => simd(out, 174),
        I32x4Sub => simd(out, 177),
        I32x4Mul => simd(out, 181),
        F32x4Add => simd(out, 228),
        F32x4Sub => simd(out, 229),
        F32x4Mul => simd(out, 230),
        F32x4Div => simd(out, 231),
        F64x2Add => simd(out, 240),
        F64x2Sub => simd(out, 241),
        F64x2Mul => simd(out, 242),
        F64x2Div => simd(out, 243),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_module;
    use crate::module::{DataSegment, ElementSegment};

    fn sample_module() -> Module {
        let mut m = Module::default();
        m.types.push(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]));
        m.types.push(FuncType::new(vec![], vec![]));
        m.imports.push(Import {
            module: "env".into(),
            name: "MPI_Init".into(),
            kind: ExternKind::Func(1),
        });
        m.memories.push(Limits::new(1, Some(16)));
        m.tables.push(Limits::new(2, None));
        m.globals.push(Global {
            ty: GlobalType { val_type: ValType::I32, mutability: Mutability::Var },
            init: Instr::I32Const(42),
        });
        m.functions.push(Function {
            type_idx: 0,
            locals: vec![ValType::I64, ValType::I64, ValType::F64],
            body: vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::I32Add,
                Instr::End,
            ],
        });
        m.functions.push(Function {
            type_idx: 1,
            locals: vec![],
            body: vec![
                Instr::Block(BlockType::Empty),
                Instr::I32Const(1),
                Instr::BrIf(0),
                Instr::End,
                Instr::End,
            ],
        });
        m.exports.push(Export { name: "add".into(), kind: ExportKind::Func, index: 1 });
        m.exports.push(Export { name: "memory".into(), kind: ExportKind::Memory, index: 0 });
        m.elements.push(ElementSegment { table: 0, offset: 0, funcs: vec![1, 2] });
        m.data.push(DataSegment { memory: 0, offset: 64, bytes: vec![1, 2, 3, 4] });
        m.name = Some("sample".into());
        m
    }

    #[test]
    fn roundtrip_sample_module() {
        let m = sample_module();
        let bytes = encode_module(&m);
        let decoded = decode_module(&bytes).unwrap();
        assert_eq!(m, decoded);
    }

    #[test]
    fn roundtrip_every_simple_instr() {
        use Instr::*;
        let instrs = vec![
            Unreachable, Nop, Drop, Select, Return, MemorySize, MemoryGrow, MemoryCopy,
            MemoryFill, I32Eqz, I32Add, I64Mul, F32Sqrt, F64Div, I32WrapI64, I64ExtendI32U,
            F64PromoteF32, I32ReinterpretF32, I32Extend8S, I64Extend32S, I32x4Splat,
            F64x2Add, F64x2Lt, F64x2Gt, F64x2Ge, V128Not, V128AnyTrue, I32x4Bitmask,
            I32Const(-5), I64Const(i64::MIN), F32Const(1.5), F64Const(-0.25),
            LocalGet(3), GlobalSet(1), Br(2), BrIf(0), Call(9),
            CallIndirect { type_idx: 4, table: 0 },
            Instr::br_table(vec![0, 1, 2], 3),
            I32Load(MemArg { align: 2, offset: 16 }),
            F64Store(MemArg { align: 3, offset: 1024 }),
            V128Load(MemArg { align: 4, offset: 0 }),
            Instr::v128_const([7; 16]),
            I32x4ExtractLane(2), F64x2ExtractLane(1), F64x2ReplaceLane(0),
        ];
        for instr in instrs {
            let mut buf = Vec::new();
            encode_instr(&mut buf, &instr);
            // Wrap in a valid function body for the expression decoder.
            buf.push(0x0b);
            let mut r = crate::leb128::Reader::new(&buf);
            let decoded = crate::decode::decode_expr(&mut r).unwrap();
            assert_eq!(decoded[0], instr, "instruction failed to round-trip");
        }
    }

    #[test]
    fn locals_run_length_encoding_roundtrips() {
        let mut m = Module::default();
        m.types.push(FuncType::new(vec![], vec![]));
        m.functions.push(Function {
            type_idx: 0,
            locals: vec![
                ValType::I32,
                ValType::I32,
                ValType::F64,
                ValType::I32,
                ValType::I32,
                ValType::I32,
            ],
            body: vec![Instr::End],
        });
        let decoded = decode_module(&encode_module(&m)).unwrap();
        assert_eq!(decoded.functions[0].locals, m.functions[0].locals);
    }

    #[test]
    fn empty_module_is_8_bytes() {
        let m = Module::default();
        assert_eq!(encode_module(&m).len(), 8);
    }
}

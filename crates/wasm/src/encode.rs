//! Encoding of a [`Module`] back to the Wasm binary format.
//!
//! Together with [`crate::decode`] this forms a lossless round-trip for
//! every construct the engine supports; the module builder and DSL emit
//! through this path, so generated guest binaries are real Wasm binaries.
//! An instruction's bytes are its row of the instruction table,
//! [`crate::instr::for_each_instr!`], which the decoder reads too.

use crate::instr::{for_each_instr, instr_pat, Instr, MemArg};
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
    encode_instr(out, &Instr::End);
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
    encode_instr(out, &Instr::I32Const(v));
    encode_instr(out, &Instr::End);
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

/// Encode a single instruction: its row of [`for_each_instr!`], the
/// opcode then the immediate. The `match` has no wildcard, so a variant
/// without a row does not compile.
pub fn encode_instr(out: &mut Vec<u8>, instr: &Instr) {
    macro_rules! encode {
        (
            { $($name:ident $op:literal $imm:ident $(($($sig:tt)*) ($($low:tt)*))?;)* }
            $($prefix:literal {
                $($pname:ident $sub:literal $pimm:ident $(($($psig:tt)*) ($($plow:tt)*))?;)*
            })*
        ) => {
            match instr {
                $(instr_pat!($name, $imm, x, y) => {
                    out.push($op);
                    write_imm!($imm, x, y);
                })*
                $($(instr_pat!($pname, $pimm, x, y) => {
                    out.push($prefix);
                    write_u32(out, $sub);
                    write_imm!($pimm, x, y);
                })*)*
            }
        };
    }
    macro_rules! write_imm {
        (none, $x:ident, $y:ident) => {};
        (index, $x:ident, $y:ident) => { write_u32(out, *$x) };
        (block, $x:ident, $y:ident) => { encode_block_type(out, $x) };
        (memarg, $x:ident, $y:ident) => { encode_memarg(out, $x) };
        (br_table, $x:ident, $y:ident) => {{
            write_u32(out, $x.targets.len() as u32);
            for t in &$x.targets {
                write_u32(out, *t);
            }
            write_u32(out, $x.default);
        }};
        (call_indirect, $x:ident, $y:ident) => {{
            write_u32(out, *$x);
            write_u32(out, *$y);
        }};
        (i32, $x:ident, $y:ident) => { write_i32(out, *$x) };
        (i64, $x:ident, $y:ident) => { write_i64(out, *$x) };
        (f32, $x:ident, $y:ident) => { out.extend_from_slice(&$x.to_le_bytes()) };
        (f64, $x:ident, $y:ident) => { out.extend_from_slice(&$x.to_le_bytes()) };
        (v128, $x:ident, $y:ident) => { out.extend_from_slice(&**$x) };
        (lane, $x:ident, $y:ident) => { out.push(*$x) };
        (zero, $x:ident, $y:ident) => { out.push(0) };
        (zero2, $x:ident, $y:ident) => { out.extend_from_slice(&[0, 0]) };
    }
    for_each_instr!(encode)
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

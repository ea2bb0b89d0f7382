//! A WebAssembly-text-format printer for debugging and documentation.
//!
//! Produces output in the spirit of the paper's Listings 1 and 3: type
//! declarations, imports with namespaces, exports, and function bodies with
//! indentation following the structured nesting. The output is meant for
//! humans (and tests); it is not a parseable round-trip format.

use crate::instr::Instr;
use crate::module::Module;
use crate::types::{BlockType, ExternKind};
use std::fmt::Write;

/// Render a module in WAT-like text.
pub fn to_wat(module: &Module) -> String {
    let mut out = String::new();
    let name = module.name.as_deref().unwrap_or("");
    let _ = writeln!(out, "(module {name}");

    for (i, ty) in module.types.iter().enumerate() {
        let params: Vec<String> = ty.params.iter().map(|t| t.to_string()).collect();
        let results: Vec<String> = ty.results.iter().map(|t| t.to_string()).collect();
        let _ = write!(out, "  (type (;{i};) (func");
        if !params.is_empty() {
            let _ = write!(out, " (param {})", params.join(" "));
        }
        if !results.is_empty() {
            let _ = write!(out, " (result {})", results.join(" "));
        }
        let _ = writeln!(out, "))");
    }

    for imp in &module.imports {
        let desc = match &imp.kind {
            ExternKind::Func(t) => format!("(func (type {t}))"),
            ExternKind::Table(l) => format!("(table {} funcref)", l.min),
            ExternKind::Memory(l) => format!("(memory {})", l.min),
            ExternKind::Global(g) => format!("(global {})", g.val_type),
        };
        let _ = writeln!(out, "  (import \"{}\" \"{}\" {desc})", imp.module, imp.name);
    }

    for (i, mem) in module.memories.iter().enumerate() {
        match mem.max {
            Some(max) => {
                let _ = writeln!(out, "  (memory (;{i};) {} {})", mem.min, max);
            }
            None => {
                let _ = writeln!(out, "  (memory (;{i};) {})", mem.min);
            }
        }
    }

    let imported = module.num_imported_funcs() as u32;
    for (i, func) in module.functions.iter().enumerate() {
        let idx = imported + i as u32;
        let _ = writeln!(out, "  (func (;{idx};) (type {})", func.type_idx);
        if !func.locals.is_empty() {
            let locals: Vec<String> = func.locals.iter().map(|t| t.to_string()).collect();
            let _ = writeln!(out, "    (local {})", locals.join(" "));
        }
        let mut indent = 2usize;
        for instr in &func.body {
            if matches!(instr, Instr::End | Instr::Else) {
                indent = indent.saturating_sub(1);
            }
            let _ = writeln!(out, "{}{}", "  ".repeat(indent + 1), instr_text(instr));
            if instr.opens_block() || matches!(instr, Instr::Else) {
                indent += 1;
            }
        }
        let _ = writeln!(out, "  )");
    }

    for e in &module.exports {
        let kind = match e.kind {
            crate::module::ExportKind::Func => "func",
            crate::module::ExportKind::Table => "table",
            crate::module::ExportKind::Memory => "memory",
            crate::module::ExportKind::Global => "global",
        };
        let _ = writeln!(out, "  (export \"{}\" ({kind} {}))", e.name, e.index);
    }
    out.push_str(")\n");
    out
}

fn block_type_text(bt: &BlockType) -> String {
    match bt {
        BlockType::Empty => String::new(),
        BlockType::Value(t) => format!(" (result {t})"),
        BlockType::Func(i) => format!(" (type {i})"),
    }
}

fn instr_text(i: &Instr) -> String {
    use Instr::*;
    match i {
        Block(bt) => format!("block{}", block_type_text(bt)),
        Loop(bt) => format!("loop{}", block_type_text(bt)),
        If(bt) => format!("if{}", block_type_text(bt)),
        Else => "else".into(),
        End => "end".into(),
        Br(d) => format!("br {d}"),
        BrIf(d) => format!("br_if {d}"),
        BrTable(t) => format!("br_table {:?} {}", t.targets, t.default),
        Call(f) => format!("call {f}"),
        CallIndirect { type_idx, .. } => format!("call_indirect (type {type_idx})"),
        I32Const(v) => format!("i32.const {v}"),
        I64Const(v) => format!("i64.const {v}"),
        F32Const(v) => format!("f32.const {v}"),
        F64Const(v) => format!("f64.const {v}"),
        LocalGet(i) => format!("local.get {i}"),
        LocalSet(i) => format!("local.set {i}"),
        LocalTee(i) => format!("local.tee {i}"),
        GlobalGet(i) => format!("global.get {i}"),
        GlobalSet(i) => format!("global.set {i}"),
        I32Load(m) => format!("i32.load offset={}", m.offset),
        I64Load(m) => format!("i64.load offset={}", m.offset),
        F32Load(m) => format!("f32.load offset={}", m.offset),
        F64Load(m) => format!("f64.load offset={}", m.offset),
        I32Store(m) => format!("i32.store offset={}", m.offset),
        I64Store(m) => format!("i64.store offset={}", m.offset),
        F32Store(m) => format!("f32.store offset={}", m.offset),
        F64Store(m) => format!("f64.store offset={}", m.offset),
        other => format!("{other:?}").to_lowercase(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType;

    #[test]
    fn wat_output_mentions_imports_and_exports() {
        let mut b = ModuleBuilder::new();
        b.name("watdemo");
        b.memory(1, Some(2));
        let init = b.import_func(
            "env",
            "MPI_Init",
            vec![ValType::I32, ValType::I32],
            vec![ValType::I32],
        );
        b.func("_start", vec![], vec![], |f| {
            f.i32_const(0).i32_const(0).call(init).drop();
        });
        let wat = to_wat(&b.finish());
        assert!(wat.contains("(import \"env\" \"MPI_Init\""), "{wat}");
        assert!(wat.contains("(export \"_start\""), "{wat}");
        assert!(wat.contains("(export \"memory\""), "{wat}");
        assert!(wat.contains("i32.const 0"), "{wat}");
    }

    #[test]
    fn wat_indents_blocks() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.func("f", vec![], vec![], |f| {
            f.block(crate::types::BlockType::Empty);
            f.i32_const(1).drop();
            f.end();
        });
        let wat = to_wat(&b.finish());
        let lines: Vec<&str> = wat.lines().collect();
        let block_line = lines.iter().position(|l| l.trim_start() == "block").unwrap();
        let const_line = lines.iter().position(|l| l.contains("i32.const 1")).unwrap();
        let block_ws = lines[block_line].len() - lines[block_line].trim_start().len();
        let const_ws = lines[const_line].len() - lines[const_line].trim_start().len();
        assert!(const_ws > block_ws);
    }
}

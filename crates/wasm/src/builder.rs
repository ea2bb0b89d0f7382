//! Programmatic module construction: the repository's stand-in for the
//! paper's WASI-SDK toolchain. Guest benchmarks are authored against
//! [`ModuleBuilder`] / [`FunctionBuilder`] (usually through the higher
//! level [`crate::dsl`]), producing real Wasm binaries via
//! [`crate::encode_module`].

use crate::instr::{Instr, MemArg};
use crate::module::{
    DataSegment, ElementSegment, Export, ExportKind, Function, Global, Import, Module,
};
use crate::types::{BlockType, ExternKind, FuncType, GlobalType, Limits, Mutability, ValType};

/// Builds a [`Module`] incrementally. Imported functions must be declared
/// before defined functions (they occupy the front of the function index
/// space, as in the binary format).
#[derive(Default)]
pub struct ModuleBuilder {
    module: Module,
    defined_started: bool,
    /// Function-index placeholders reserved for forward references.
    reserved: Vec<bool>,
}

impl ModuleBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the module name (emitted as a custom `name` section).
    pub fn name(&mut self, name: &str) -> &mut Self {
        self.module.name = Some(name.to_string());
        self
    }

    /// Intern a function type, deduplicating.
    pub fn type_idx(&mut self, ty: FuncType) -> u32 {
        if let Some(i) = self.module.types.iter().position(|t| *t == ty) {
            return i as u32;
        }
        self.module.types.push(ty);
        (self.module.types.len() - 1) as u32
    }

    /// Declare a linear memory (min/max pages) and export it as `"memory"`,
    /// the convention the embedder expects (paper Listing 1).
    pub fn memory(&mut self, min: u32, max: Option<u32>) -> &mut Self {
        assert!(self.module.memories.is_empty(), "only one memory is supported");
        self.module.memories.push(Limits::new(min, max));
        self.module.exports.push(Export {
            name: "memory".into(),
            kind: ExportKind::Memory,
            index: 0,
        });
        self
    }

    /// Import a function from `(module, name)`; returns its index in the
    /// function index space.
    pub fn import_func(
        &mut self,
        module: &str,
        name: &str,
        params: Vec<ValType>,
        results: Vec<ValType>,
    ) -> u32 {
        assert!(
            !self.defined_started,
            "imports must be declared before defined functions"
        );
        let type_idx = self.type_idx(FuncType::new(params, results));
        self.module.imports.push(Import {
            module: module.into(),
            name: name.into(),
            kind: ExternKind::Func(type_idx),
        });
        (self.module.num_imported_funcs() - 1) as u32
    }

    /// Define an exported function; the closure fills in the body. Returns
    /// the function index.
    pub fn func(
        &mut self,
        export_name: &str,
        params: Vec<ValType>,
        results: Vec<ValType>,
        body: impl FnOnce(&mut FunctionBuilder),
    ) -> u32 {
        let idx = self.func_private(params, results, body);
        self.module.exports.push(Export {
            name: export_name.into(),
            kind: ExportKind::Func,
            index: idx,
        });
        idx
    }

    /// Define a private (non-exported) function.
    pub fn func_private(
        &mut self,
        params: Vec<ValType>,
        results: Vec<ValType>,
        body: impl FnOnce(&mut FunctionBuilder),
    ) -> u32 {
        self.defined_started = true;
        let type_idx = self.type_idx(FuncType::new(params.clone(), results));
        let mut fb = FunctionBuilder::new(params.len() as u32);
        body(&mut fb);
        let (locals, mut instrs) = fb.finish();
        instrs.push(Instr::End);
        self.module.functions.push(Function { type_idx, locals, body: instrs });
        self.reserved.push(false);
        (self.module.num_imported_funcs() + self.module.functions.len() - 1) as u32
    }

    /// Reserve a function index for a forward reference (e.g. mutual
    /// recursion or tables built before bodies). Fill it in with
    /// [`ModuleBuilder::define_reserved`].
    pub fn reserve_func(&mut self, params: Vec<ValType>, results: Vec<ValType>) -> u32 {
        self.defined_started = true;
        let type_idx = self.type_idx(FuncType::new(params, results));
        self.module.functions.push(Function {
            type_idx,
            locals: vec![],
            body: vec![Instr::Unreachable, Instr::End],
        });
        self.reserved.push(true);
        (self.module.num_imported_funcs() + self.module.functions.len() - 1) as u32
    }

    /// Define the body of a previously reserved function.
    pub fn define_reserved(&mut self, func_idx: u32, body: impl FnOnce(&mut FunctionBuilder)) {
        let defined_idx = (func_idx as usize)
            .checked_sub(self.module.num_imported_funcs())
            .expect("reserved index refers to an import");
        assert!(self.reserved[defined_idx], "function {func_idx} was not reserved");
        let ty = self.module.functions[defined_idx].type_idx;
        let n_params = self.module.types[ty as usize].params.len() as u32;
        let mut fb = FunctionBuilder::new(n_params);
        body(&mut fb);
        let (locals, mut instrs) = fb.finish();
        instrs.push(Instr::End);
        self.module.functions[defined_idx] = Function { type_idx: ty, locals, body: instrs };
        self.reserved[defined_idx] = false;
    }

    /// Export an already-defined function under an additional name.
    pub fn export_func(&mut self, name: &str, func_idx: u32) -> &mut Self {
        self.module.exports.push(Export {
            name: name.into(),
            kind: ExportKind::Func,
            index: func_idx,
        });
        self
    }

    /// Define a global; returns its index.
    pub fn global(&mut self, ty: ValType, mutable: bool, init: Instr) -> u32 {
        self.module.globals.push(Global {
            ty: GlobalType {
                val_type: ty,
                mutability: if mutable { Mutability::Var } else { Mutability::Const },
            },
            init,
        });
        (self.module.globals.len() - 1) as u32
    }

    /// Add an active data segment.
    pub fn data(&mut self, offset: i32, bytes: Vec<u8>) -> &mut Self {
        self.module.data.push(DataSegment { memory: 0, offset, bytes });
        self
    }

    /// Create the funcref table populated with `funcs` starting at slot 0.
    pub fn table(&mut self, funcs: Vec<u32>) -> &mut Self {
        assert!(self.module.tables.is_empty(), "only one table is supported");
        self.module.tables.push(Limits::new(funcs.len() as u32, Some(funcs.len() as u32)));
        self.module.elements.push(ElementSegment { table: 0, offset: 0, funcs });
        self
    }

    /// Set the start function.
    pub fn start(&mut self, func_idx: u32) -> &mut Self {
        self.module.start = Some(func_idx);
        self
    }

    /// Finalize and return the module.
    pub fn finish(self) -> Module {
        assert!(
            self.reserved.iter().all(|r| !r),
            "reserved function(s) were never defined"
        );
        self.module
    }
}

/// Builds one function body with a fluent instruction API.
pub struct FunctionBuilder {
    n_params: u32,
    locals: Vec<ValType>,
    instrs: Vec<Instr>,
}

macro_rules! simple_ops {
    ($($method:ident => $instr:ident),* $(,)?) => {
        $(
            pub fn $method(&mut self) -> &mut Self {
                self.instrs.push(Instr::$instr);
                self
            }
        )*
    };
}

macro_rules! mem_ops {
    ($($method:ident => $instr:ident),* $(,)?) => {
        $(
            /// Memory access with a constant byte offset.
            pub fn $method(&mut self, offset: u32) -> &mut Self {
                self.instrs.push(Instr::$instr(MemArg::offset(offset)));
                self
            }
        )*
    };
}

impl FunctionBuilder {
    fn new(n_params: u32) -> Self {
        Self { n_params, locals: Vec::new(), instrs: Vec::new() }
    }

    fn finish(self) -> (Vec<ValType>, Vec<Instr>) {
        (self.locals, self.instrs)
    }

    /// Declare a new local of type `ty`; returns its index (after params).
    pub fn local(&mut self, ty: ValType) -> u32 {
        self.locals.push(ty);
        self.n_params + self.locals.len() as u32 - 1
    }

    /// Append a raw instruction.
    pub fn emit(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    /// Append many raw instructions.
    pub fn emit_all(&mut self, instrs: impl IntoIterator<Item = Instr>) -> &mut Self {
        self.instrs.extend(instrs);
        self
    }

    pub fn i32_const(&mut self, v: i32) -> &mut Self {
        self.instrs.push(Instr::I32Const(v));
        self
    }

    pub fn i64_const(&mut self, v: i64) -> &mut Self {
        self.instrs.push(Instr::I64Const(v));
        self
    }

    pub fn f32_const(&mut self, v: f32) -> &mut Self {
        self.instrs.push(Instr::F32Const(v));
        self
    }

    pub fn f64_const(&mut self, v: f64) -> &mut Self {
        self.instrs.push(Instr::F64Const(v));
        self
    }

    pub fn local_get(&mut self, i: u32) -> &mut Self {
        self.instrs.push(Instr::LocalGet(i));
        self
    }

    pub fn local_set(&mut self, i: u32) -> &mut Self {
        self.instrs.push(Instr::LocalSet(i));
        self
    }

    pub fn local_tee(&mut self, i: u32) -> &mut Self {
        self.instrs.push(Instr::LocalTee(i));
        self
    }

    pub fn global_get(&mut self, i: u32) -> &mut Self {
        self.instrs.push(Instr::GlobalGet(i));
        self
    }

    pub fn global_set(&mut self, i: u32) -> &mut Self {
        self.instrs.push(Instr::GlobalSet(i));
        self
    }

    pub fn call(&mut self, func_idx: u32) -> &mut Self {
        self.instrs.push(Instr::Call(func_idx));
        self
    }

    pub fn call_indirect(&mut self, type_idx: u32) -> &mut Self {
        self.instrs.push(Instr::CallIndirect { type_idx, table: 0 });
        self
    }

    pub fn block(&mut self, bt: BlockType) -> &mut Self {
        self.instrs.push(Instr::Block(bt));
        self
    }

    pub fn loop_(&mut self, bt: BlockType) -> &mut Self {
        self.instrs.push(Instr::Loop(bt));
        self
    }

    pub fn if_(&mut self, bt: BlockType) -> &mut Self {
        self.instrs.push(Instr::If(bt));
        self
    }

    pub fn else_(&mut self) -> &mut Self {
        self.instrs.push(Instr::Else);
        self
    }

    pub fn end(&mut self) -> &mut Self {
        self.instrs.push(Instr::End);
        self
    }

    pub fn br(&mut self, depth: u32) -> &mut Self {
        self.instrs.push(Instr::Br(depth));
        self
    }

    pub fn br_if(&mut self, depth: u32) -> &mut Self {
        self.instrs.push(Instr::BrIf(depth));
        self
    }

    pub fn br_table(&mut self, targets: Vec<u32>, default: u32) -> &mut Self {
        self.instrs.push(Instr::br_table(targets, default));
        self
    }

    pub fn return_(&mut self) -> &mut Self {
        self.instrs.push(Instr::Return);
        self
    }

    simple_ops! {
        unreachable => Unreachable,
        nop => Nop,
        drop => Drop,
        select => Select,
        memory_size => MemorySize,
        memory_grow => MemoryGrow,
        memory_copy => MemoryCopy,
        memory_fill => MemoryFill,
        i32_eqz => I32Eqz,
        i32_eq => I32Eq,
        i32_ne => I32Ne,
        i32_lt_s => I32LtS,
        i32_lt_u => I32LtU,
        i32_gt_s => I32GtS,
        i32_gt_u => I32GtU,
        i32_le_s => I32LeS,
        i32_ge_s => I32GeS,
        i32_ge_u => I32GeU,
        i32_add => I32Add,
        i32_sub => I32Sub,
        i32_mul => I32Mul,
        i32_div_s => I32DivS,
        i32_div_u => I32DivU,
        i32_rem_s => I32RemS,
        i32_rem_u => I32RemU,
        i32_and => I32And,
        i32_or => I32Or,
        i32_xor => I32Xor,
        i32_shl => I32Shl,
        i32_shr_s => I32ShrS,
        i32_shr_u => I32ShrU,
        i64_eqz => I64Eqz,
        i64_eq => I64Eq,
        i64_lt_s => I64LtS,
        i64_add => I64Add,
        i64_sub => I64Sub,
        i64_mul => I64Mul,
        i64_div_s => I64DivS,
        i64_and => I64And,
        i64_or => I64Or,
        i64_xor => I64Xor,
        i64_shl => I64Shl,
        i64_shr_u => I64ShrU,
        f64_eq => F64Eq,
        f64_ne => F64Ne,
        f64_lt => F64Lt,
        f64_gt => F64Gt,
        f64_le => F64Le,
        f64_ge => F64Ge,
        f64_abs => F64Abs,
        f64_neg => F64Neg,
        f64_sqrt => F64Sqrt,
        f64_add => F64Add,
        f64_sub => F64Sub,
        f64_mul => F64Mul,
        f64_div => F64Div,
        f64_min => F64Min,
        f64_max => F64Max,
        f32_add => F32Add,
        f32_mul => F32Mul,
        i32_wrap_i64 => I32WrapI64,
        i64_extend_i32_s => I64ExtendI32S,
        i64_extend_i32_u => I64ExtendI32U,
        i32_trunc_f64_s => I32TruncF64S,
        i64_trunc_f64_s => I64TruncF64S,
        f64_convert_i32_s => F64ConvertI32S,
        f64_convert_i32_u => F64ConvertI32U,
        f64_convert_i64_s => F64ConvertI64S,
        f64_convert_i64_u => F64ConvertI64U,
        f64_promote_f32 => F64PromoteF32,
        f32_demote_f64 => F32DemoteF64,
        i64_reinterpret_f64 => I64ReinterpretF64,
        f64_reinterpret_i64 => F64ReinterpretI64,
        f64x2_splat => F64x2Splat,
        f64x2_add => F64x2Add,
        f64x2_mul => F64x2Mul,
        f64x2_sub => F64x2Sub,
        v128_xor => V128Xor,
        v128_any_true => V128AnyTrue,
    }

    mem_ops! {
        i32_load => I32Load,
        i64_load => I64Load,
        f32_load => F32Load,
        f64_load => F64Load,
        i32_load8_u => I32Load8U,
        i32_load16_u => I32Load16U,
        i32_store => I32Store,
        i64_store => I64Store,
        f32_store => F32Store,
        f64_store => F64Store,
        i32_store8 => I32Store8,
        v128_load => V128Load,
        v128_store => V128Store,
    }

    pub fn f64x2_extract_lane(&mut self, lane: u8) -> &mut Self {
        self.instrs.push(Instr::F64x2ExtractLane(lane));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_module;

    #[test]
    fn builder_produces_valid_module() {
        let mut b = ModuleBuilder::new();
        b.name("test");
        b.memory(1, Some(16));
        let imp = b.import_func("env", "host", vec![ValType::I32], vec![ValType::I32]);
        b.func("run", vec![ValType::I32], vec![ValType::I32], |f| {
            let tmp = f.local(ValType::I32);
            f.local_get(0).call(imp).local_set(tmp);
            f.local_get(tmp).i32_const(1).i32_add();
        });
        let m = b.finish();
        validate_module(&m).unwrap();
        assert_eq!(m.num_imported_funcs(), 1);
        assert_eq!(m.export("run").unwrap().index, 1);
        // Round-trips through the binary format.
        let bytes = crate::encode_module(&m);
        let decoded = crate::decode_module(&bytes).unwrap();
        assert_eq!(m, decoded);
    }

    #[test]
    fn reserved_functions_support_forward_calls() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let later = b.reserve_func(vec![], vec![ValType::I32]);
        b.func("first", vec![], vec![ValType::I32], |f| {
            f.call(later);
        });
        b.define_reserved(later, |f| {
            f.i32_const(11);
        });
        let m = b.finish();
        validate_module(&m).unwrap();
    }

    #[test]
    #[should_panic(expected = "never defined")]
    fn undefined_reserved_function_panics() {
        let mut b = ModuleBuilder::new();
        b.reserve_func(vec![], vec![]);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "imports must be declared")]
    fn import_after_define_panics() {
        let mut b = ModuleBuilder::new();
        b.func("f", vec![], vec![], |_| {});
        b.import_func("env", "x", vec![], vec![]);
    }

    #[test]
    fn table_and_call_indirect_validate() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let f0 = b.func("ten", vec![], vec![ValType::I32], |f| {
            f.i32_const(10);
        });
        let f1 = b.func("twenty", vec![], vec![ValType::I32], |f| {
            f.i32_const(20);
        });
        let ty = b.type_idx(FuncType::new(vec![], vec![ValType::I32]));
        b.table(vec![f0, f1]);
        b.func("dispatch", vec![ValType::I32], vec![ValType::I32], move |f| {
            f.local_get(0).call_indirect(ty);
        });
        validate_module(&b.finish()).unwrap();
    }
}

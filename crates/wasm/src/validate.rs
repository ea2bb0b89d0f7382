//! Module validation: structural checks plus full type-checking of every
//! function body using the standard value-stack / control-stack algorithm.
//!
//! The embedder refuses to instantiate modules that do not validate, which
//! is one of the pillars of the Wasm sandboxing story the paper relies on
//! (§2.2): control flow integrity follows from the structured control
//! checks performed here.
//!
//! An instruction's types are its row of the instruction table
//! ([`crate::instr::for_each_instr!`]): the loads, stores, numeric,
//! conversion and SIMD arms of the walk are expanded from it, and check
//! what the row names — a memory, a memarg's alignment against the
//! access's natural width, a lane index — before the operand types.
//! Control flow, locals, globals, calls, `drop` and `select` are written
//! here.
//!
//! This is the only place that tracks operand *types*. The engine runs on
//! untyped slots (a v128 spans two) and the lowerers ([`crate::ir::compile`],
//! `SideTable::build`) keep a running slot count, which every instruction
//! fixes on its own except `drop` and `select`; for those the type-check
//! records the one fact it would otherwise throw away ([`WideOps`]).

use crate::error::ValidateError;
use crate::instr::{for_each_instr, Instr, MemArg};
use crate::module::{ExportKind, Function, Module};
use crate::types::{BlockType, ExternKind, FuncType, GlobalType, Mutability, ValType};
use crate::MAX_PAGES;

/// Validate a module. Returns `Ok(())` when every function body type-checks
/// and all cross-section references are in range.
pub fn validate_module(module: &Module) -> Result<(), ValidateError> {
    validate(module).map(drop)
}

/// What the lowerers need from the type-check: for each defined function
/// that has any (sorted by index), the sorted pcs of the `drop`/`select`
/// instructions whose operand is a v128. Entries in statically dead code
/// are unspecified; no lowerer looks there.
#[derive(Default)]
pub(crate) struct WideOps(Vec<(u32, Vec<u32>)>);

impl WideOps {
    /// The wide `drop`/`select` pcs of defined function `idx`.
    pub(crate) fn of(&self, idx: usize) -> &[u32] {
        match self.0.binary_search_by_key(&idx, |&(f, _)| f as usize) {
            Ok(at) => &self.0[at].1,
            Err(_) => &[],
        }
    }
}

/// [`validate_module`], keeping what the lowerers need.
pub(crate) fn validate(module: &Module) -> Result<WideOps, ValidateError> {
    validate_structure(module)?;
    let imported = module.num_imported_funcs() as u32;
    let mut wide = WideOps::default();
    let mut v = FuncValidator::new(module);
    for (i, func) in module.functions.iter().enumerate() {
        let func_idx = imported + i as u32;
        let ty = module
            .types
            .get(func.type_idx as usize)
            .ok_or_else(|| ValidateError::in_func(func_idx, "type index out of range"))?;
        v.run(func_idx, ty, func)?;
        if !v.wide.is_empty() {
            wide.0.push((i as u32, std::mem::take(&mut v.wide)));
        }
    }
    Ok(wide)
}

/// Most parameters or results a function or block type may declare — the
/// limit the WebAssembly JS API fixes. It keeps every branch's carried-slot
/// count inside the flat tiers' packed unwind encoding, so the four tiers
/// agree on what is a module.
const MAX_TYPE_ARITY: usize = 1000;

fn validate_structure(module: &Module) -> Result<(), ValidateError> {
    for (i, ty) in module.types.iter().enumerate() {
        if ty.params.len() > MAX_TYPE_ARITY || ty.results.len() > MAX_TYPE_ARITY {
            return Err(ValidateError::module(format!(
                "type {i} declares more than {MAX_TYPE_ARITY} parameters or results"
            )));
        }
    }

    // Imports reference valid types.
    for imp in &module.imports {
        if let ExternKind::Func(t) = imp.kind {
            if t as usize >= module.types.len() {
                return Err(ValidateError::module(format!(
                    "import {}.{} references unknown type {t}",
                    imp.module, imp.name
                )));
            }
        }
    }

    // MVP: at most one memory and one table (imports + definitions).
    let imported_mems =
        module.imports.iter().filter(|i| matches!(i.kind, ExternKind::Memory(_))).count();
    let imported_tables =
        module.imports.iter().filter(|i| matches!(i.kind, ExternKind::Table(_))).count();
    if imported_mems + module.memories.len() > 1 {
        return Err(ValidateError::module("multiple memories are not supported"));
    }
    if imported_tables + module.tables.len() > 1 {
        return Err(ValidateError::module("multiple tables are not supported"));
    }
    for mem in &module.memories {
        if mem.min > MAX_PAGES || mem.max.map_or(false, |m| m > MAX_PAGES || m < mem.min) {
            return Err(ValidateError::module("memory limits out of range"));
        }
    }
    if let Some(t) = module.tables.first() {
        if t.max.map_or(false, |m| m < t.min) {
            return Err(ValidateError::module("table max below min"));
        }
    }

    // Globals: initializer type must match declared type.
    for (i, g) in module.globals.iter().enumerate() {
        let init_ty = match g.init {
            Instr::I32Const(_) => ValType::I32,
            Instr::I64Const(_) => ValType::I64,
            Instr::F32Const(_) => ValType::F32,
            Instr::F64Const(_) => ValType::F64,
            _ => return Err(ValidateError::module(format!("global {i} has non-const init"))),
        };
        if init_ty != g.ty.val_type {
            return Err(ValidateError::module(format!(
                "global {i} init type {init_ty} != declared {}",
                g.ty.val_type
            )));
        }
    }

    // Exports: indices in range, names unique.
    let num_funcs = module.num_funcs() as u32;
    let mut seen = std::collections::HashSet::new();
    for e in &module.exports {
        if !seen.insert(e.name.as_str()) {
            return Err(ValidateError::module(format!("duplicate export name {:?}", e.name)));
        }
        let in_range = match e.kind {
            ExportKind::Func => e.index < num_funcs,
            ExportKind::Memory => (e.index as usize) < imported_mems + module.memories.len(),
            ExportKind::Table => (e.index as usize) < imported_tables + module.tables.len(),
            ExportKind::Global => {
                let imported_globals = module
                    .imports
                    .iter()
                    .filter(|i| matches!(i.kind, ExternKind::Global(_)))
                    .count();
                (e.index as usize) < imported_globals + module.globals.len()
            }
        };
        if !in_range {
            return Err(ValidateError::module(format!(
                "export {:?} index {} out of range",
                e.name, e.index
            )));
        }
    }

    // Start function must exist and have type [] -> [].
    if let Some(start) = module.start {
        let ty = module
            .func_type(start)
            .ok_or_else(|| ValidateError::module("start function index out of range"))?;
        if !ty.params.is_empty() || !ty.results.is_empty() {
            return Err(ValidateError::module("start function must have type () -> ()"));
        }
    }

    // Element segments reference valid functions.
    for seg in &module.elements {
        if module.tables.is_empty() && imported_tables == 0 {
            return Err(ValidateError::module("element segment without a table"));
        }
        for &f in &seg.funcs {
            if f >= num_funcs {
                return Err(ValidateError::module(format!(
                    "element segment references unknown function {f}"
                )));
            }
        }
    }

    // Data segments require a memory.
    if !module.data.is_empty() && module.memories.is_empty() && imported_mems == 0 {
        return Err(ValidateError::module("data segment without a memory"));
    }
    Ok(())
}

/// Value on the type-checking stack: a concrete type, or unknown (pushed
/// while dead code after an unconditional branch is being checked).
type StackType = Option<ValType>;

/// A block's type as the two slices it names: borrowed from the module's
/// type section, or — for the one-result shorthand — from [`one`].
struct ControlFrame<'m> {
    /// Types on the stack where the block starts (its parameters) — and
    /// where the `else` arm of an `if` starts again.
    start_types: &'m [ValType],
    /// Types the block leaves on the stack at its `end`.
    end_types: &'m [ValType],
    /// Stack height when the frame was entered.
    height: usize,
    /// Set once an unconditional transfer has occurred in this frame.
    unreachable: bool,
    kind: FrameKind,
}

impl<'m> ControlFrame<'m> {
    /// Types a branch to this frame carries (loop: params; otherwise results).
    fn label_types(&self) -> &'m [ValType] {
        if self.kind == FrameKind::Loop { self.start_types } else { self.end_types }
    }
}

/// `[t]`, for a block type that names its single result inline.
fn one(t: ValType) -> &'static [ValType] {
    match t {
        ValType::I32 => &[ValType::I32],
        ValType::I64 => &[ValType::I64],
        ValType::F32 => &[ValType::F32],
        ValType::F64 => &[ValType::F64],
        ValType::V128 => &[ValType::V128],
    }
}

#[derive(PartialEq, Clone, Copy)]
enum FrameKind {
    Block,
    Loop,
    If,
    Else,
    Func,
}

/// One per module: what a body may refer to, resolved once (a `call` is a
/// table lookup, not a walk over the imports), and the three stacks, which
/// every function reuses.
struct FuncValidator<'m> {
    module: &'m Module,
    /// The function index space; `None` where a defined function names a
    /// type the module does not have (reported in that function, and in
    /// any earlier one that calls it).
    func_types: Vec<Option<&'m FuncType>>,
    /// The global index space: imports first.
    globals: Vec<GlobalType>,
    has_memory: bool,
    has_table: bool,
    locals: Vec<ValType>,
    stack: Vec<StackType>,
    control: Vec<ControlFrame<'m>>,
    func_idx: u32,
    /// pcs of the `drop`/`select` that took a v128, in body order.
    wide: Vec<u32>,
}

impl<'m> FuncValidator<'m> {
    fn new(module: &'m Module) -> Self {
        let ty = |idx: u32| module.types.get(idx as usize);
        let imports = || module.imports.iter().map(|i| &i.kind);
        Self {
            module,
            func_types: module
                .imported_funcs()
                .map(|(_, _, t)| ty(t))
                .chain(module.functions.iter().map(|f| ty(f.type_idx)))
                .collect(),
            globals: imports()
                .filter_map(|k| if let ExternKind::Global(g) = k { Some(*g) } else { None })
                .chain(module.globals.iter().map(|g| g.ty))
                .collect(),
            has_memory: !module.memories.is_empty()
                || imports().any(|k| matches!(k, ExternKind::Memory(_))),
            has_table: !module.tables.is_empty()
                || imports().any(|k| matches!(k, ExternKind::Table(_))),
            locals: Vec::new(),
            stack: Vec::new(),
            control: Vec::new(),
            func_idx: 0,
            wide: Vec::new(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ValidateError {
        ValidateError::in_func(self.func_idx, msg)
    }

    fn push(&mut self, ty: ValType) {
        self.stack.push(Some(ty));
    }

    fn push_unknown(&mut self) {
        self.stack.push(None);
    }

    fn pop_any(&mut self) -> Result<StackType, ValidateError> {
        let frame = self.control.last().ok_or_else(|| self.err("control stack empty"))?;
        if self.stack.len() == frame.height {
            if frame.unreachable {
                return Ok(None);
            }
            return Err(self.err("value stack underflow"));
        }
        Ok(self.stack.pop().unwrap())
    }

    fn pop_expect(&mut self, want: ValType) -> Result<(), ValidateError> {
        match self.pop_any()? {
            Some(got) if got != want => {
                Err(self.err(format!("type mismatch: expected {want}, found {got}")))
            }
            _ => Ok(()),
        }
    }

    fn pop_many(&mut self, types: &[ValType]) -> Result<(), ValidateError> {
        for ty in types.iter().rev() {
            self.pop_expect(*ty)?;
        }
        Ok(())
    }

    fn push_many(&mut self, types: &[ValType]) {
        for ty in types {
            self.push(*ty);
        }
    }

    fn block_types(
        &self,
        bt: &BlockType,
    ) -> Result<(&'m [ValType], &'m [ValType]), ValidateError> {
        match bt {
            BlockType::Empty => Ok((&[], &[])),
            BlockType::Value(t) => Ok((&[], one(*t))),
            BlockType::Func(idx) => {
                let ty = self
                    .module
                    .types
                    .get(*idx as usize)
                    .ok_or_else(|| self.err("block type index out of range"))?;
                Ok((&ty.params, &ty.results))
            }
        }
    }

    /// Enter a frame at the current height, its parameters on the stack.
    fn push_frame(&mut self, kind: FrameKind, params: &'m [ValType], results: &'m [ValType]) {
        let height = self.stack.len();
        self.push_many(params);
        self.control.push(ControlFrame {
            start_types: params,
            end_types: results,
            height,
            unreachable: false,
            kind,
        });
    }

    fn label(&self, depth: u32) -> Result<&ControlFrame<'m>, ValidateError> {
        let idx = self
            .control
            .len()
            .checked_sub(1 + depth as usize)
            .ok_or_else(|| self.err(format!("branch depth {depth} exceeds nesting")))?;
        Ok(&self.control[idx])
    }

    fn mark_unreachable(&mut self) -> Result<(), ValidateError> {
        if self.control.is_empty() {
            return Err(self.err("control stack empty"));
        }
        let frame = self.control.last_mut().unwrap();
        frame.unreachable = true;
        let height = frame.height;
        self.stack.truncate(height);
        Ok(())
    }

    fn local_type(&self, idx: u32) -> Result<ValType, ValidateError> {
        self.locals
            .get(idx as usize)
            .copied()
            .ok_or_else(|| self.err(format!("local {idx} out of range")))
    }

    fn global_type(&self, idx: u32) -> Result<(ValType, Mutability), ValidateError> {
        let g = self
            .globals
            .get(idx as usize)
            .ok_or_else(|| self.err(format!("global {idx} out of range")))?;
        Ok((g.val_type, g.mutability))
    }

    fn check_memory_exists(&self) -> Result<(), ValidateError> {
        if self.has_memory {
            Ok(())
        } else {
            Err(self.err("memory instruction without a memory"))
        }
    }

    /// Type-check `func`, whose type is `ty`, as function `func_idx`.
    fn run(
        &mut self,
        func_idx: u32,
        ty: &'m FuncType,
        func: &Function,
    ) -> Result<(), ValidateError> {
        use Instr::*;
        self.func_idx = func_idx;
        self.locals.clear();
        self.locals.extend_from_slice(&ty.params);
        self.locals.extend_from_slice(&func.locals);
        self.stack.clear();
        self.control.clear();
        self.push_frame(FrameKind::Func, &[], &ty.results);
        // One arm per row of the instruction table that has types; the
        // rest are written here.
        macro_rules! walk {
            // The prefix groups' rows are rows like any other here.
            ({ $($rows:tt)* } $($prefix:literal { $($more:tt)* })*) => {
                walk!($($rows)* $($($more)*)*)
            };
            ($($name:ident $op:literal $imm:ident $(($($sig:tt)*) ($($low:tt)*))?;)*) => {
                for (pc, instr) in func.body.iter().enumerate() {
                    match instr {
                        Unreachable => self.mark_unreachable()?,
                        Nop => {}
                        Block(bt) | Loop(bt) | If(bt) => {
                            let kind = match instr {
                                Block(_) => FrameKind::Block,
                                Loop(_) => FrameKind::Loop,
                                _ => {
                                    self.pop_expect(ValType::I32)?;
                                    FrameKind::If
                                }
                            };
                            let (params, results) = self.block_types(bt)?;
                            self.pop_many(params)?;
                            self.push_frame(kind, params, results);
                        }
                        Else => {
                            let frame =
                                self.control.pop().ok_or_else(|| self.err("else without if"))?;
                            if frame.kind != FrameKind::If {
                                return Err(self.err("else without matching if"));
                            }
                            self.pop_results_to(&frame)?;
                            // The else arm starts where the then arm did: at the
                            // frame's height, with the block's parameters.
                            self.push_frame(FrameKind::Else, frame.start_types, frame.end_types);
                        }
                        End => {
                            let frame =
                                self.control.pop().ok_or_else(|| self.err("end without block"))?;
                            // No else arm is an empty one: parameters in, results out.
                            if frame.kind == FrameKind::If && frame.start_types != frame.end_types
                            {
                                let msg = "if without else must leave what it was given";
                                return Err(self.err(msg));
                            }
                            self.pop_results_to(&frame)?;
                            self.push_many(frame.end_types);
                            if self.control.is_empty() {
                                // This was the function-level end; nothing may follow.
                                return Ok(());
                            }
                        }
                        Br(depth) => {
                            let types = self.label(*depth)?.label_types();
                            self.pop_many(types)?;
                            self.mark_unreachable()?;
                        }
                        BrIf(depth) => {
                            self.pop_expect(ValType::I32)?;
                            let types = self.label(*depth)?.label_types();
                            self.pop_many(types)?;
                            self.push_many(types);
                        }
                        BrTable(table) => {
                            self.pop_expect(ValType::I32)?;
                            let default_types = self.label(table.default)?.label_types();
                            for t in &table.targets {
                                if self.label(*t)?.label_types() != default_types {
                                    return Err(self.err("br_table targets have mismatched types"));
                                }
                            }
                            self.pop_many(default_types)?;
                            self.mark_unreachable()?;
                        }
                        Return => {
                            self.pop_many(&ty.results)?;
                            self.mark_unreachable()?;
                        }
                        Call(f) => {
                            let callee = self
                                .func_types
                                .get(*f as usize)
                                .copied()
                                .flatten()
                                .ok_or_else(|| self.err(format!("call to unknown function {f}")))?;
                            self.pop_many(&callee.params)?;
                            self.push_many(&callee.results);
                        }
                        CallIndirect { type_idx, table } => {
                            if *table != 0 {
                                return Err(self.err("only table 0 is supported"));
                            }
                            if !self.has_table {
                                return Err(self.err("call_indirect without a table"));
                            }
                            let ty = self
                                .module
                                .types
                                .get(*type_idx as usize)
                                .ok_or_else(|| self.err("call_indirect type out of range"))?;
                            self.pop_expect(ValType::I32)?;
                            self.pop_many(&ty.params)?;
                            self.push_many(&ty.results);
                        }
                        Drop => {
                            if self.pop_any()? == Some(ValType::V128) {
                                self.wide.push(pc as u32);
                            }
                        }
                        Select => {
                            self.pop_expect(ValType::I32)?;
                            let a = self.pop_any()?;
                            let b = self.pop_any()?;
                            match (a, b) {
                                (Some(x), Some(y)) if x != y => {
                                    return Err(self.err("select operand types differ"))
                                }
                                (Some(x), _) | (None, Some(x)) => {
                                    if x == ValType::V128 {
                                        self.wide.push(pc as u32);
                                    }
                                    self.push(x)
                                }
                                (None, None) => self.push_unknown(),
                            }
                        }
                        LocalGet(i) => {
                            let ty = self.local_type(*i)?;
                            self.push(ty);
                        }
                        LocalSet(i) => {
                            let ty = self.local_type(*i)?;
                            self.pop_expect(ty)?;
                        }
                        LocalTee(i) => {
                            let ty = self.local_type(*i)?;
                            self.pop_expect(ty)?;
                            self.push(ty);
                        }
                        GlobalGet(i) => {
                            let (ty, _) = self.global_type(*i)?;
                            self.push(ty);
                        }
                        GlobalSet(i) => {
                            let (ty, m) = self.global_type(*i)?;
                            if m == Mutability::Const {
                                return Err(self.err(format!("global {i} is immutable")));
                            }
                            self.pop_expect(ty)?;
                        }
                        $($(
                            operand_pat!($name, ($($sig)*), x) => check!(x, $($sig)*),
                        )?)*
                    }
                }
            };
        }
        /// Row `$name`'s pattern, binding the immediate its check reads.
        macro_rules! operand_pat {
            ($name:ident, (mem $w:literal: $($t:tt)*), $x:ident) => { $name($x) };
            ($name:ident, (lanes $n:literal: $($t:tt)*), $x:ident) => { $name($x) };
            ($name:ident, $sig:tt, $x:ident) => { $name { .. } };
        }
        /// A row's types: what the instruction needs, then its pops (the
        /// last operand first) and pushes.
        macro_rules! check {
            ($x:ident, mem $w:literal: $($t:tt)*) => {{
                self.check_memory_exists()?;
                self.check_align($x, $w)?;
                check!($x, $($t)*)
            }};
            ($x:ident, mem: $($t:tt)*) => {{
                self.check_memory_exists()?;
                check!($x, $($t)*)
            }};
            ($x:ident, lanes $n:literal: $($t:tt)*) => {{
                self.check_lane(*$x, $n)?;
                check!($x, $($t)*)
            }};
            ($x:ident, $($in:ident)* -> $($out:ident)*) => {{
                pop!($($in)*);
                $(self.push(ValType::$out);)*
            }};
        }
        macro_rules! pop {
            () => {};
            ($t:ident $($rest:ident)*) => {
                pop!($($rest)*);
                self.pop_expect(ValType::$t)?;
            };
        }
        for_each_instr!(walk);
        // Instruction stream must have been terminated by the function-level
        // `End` (the loop returns from inside the End arm).
        Err(self.err("function body missing final end"))
    }

    /// The spec's alignment rule: `2^align` may not exceed the access's
    /// natural width, `width` bytes.
    fn check_align(&self, m: &MemArg, width: u32) -> Result<(), ValidateError> {
        if m.align > width.ilog2() {
            return Err(self.err(format!(
                "alignment must not be larger than natural: 2^{} > {width}",
                m.align
            )));
        }
        Ok(())
    }

    fn check_lane(&self, lane: u8, max: u8) -> Result<(), ValidateError> {
        if lane >= max {
            return Err(self.err(format!("lane index {lane} out of range (max {max})")));
        }
        Ok(())
    }

    /// Leave `frame` (just popped): the stack holds exactly its results,
    /// or anything at all after an unconditional transfer.
    fn pop_results_to(&mut self, frame: &ControlFrame<'m>) -> Result<(), ValidateError> {
        if frame.unreachable {
            self.stack.truncate(frame.height);
            return Ok(());
        }
        for ty in frame.end_types.iter().rev() {
            if self.stack.len() == frame.height {
                return Err(self.err("block leaves too few values on the stack"));
            }
            match self.stack.pop().unwrap() {
                Some(got) if got != *ty => {
                    return Err(self.err(format!("block result mismatch: {got} != {ty}")))
                }
                _ => {}
            }
        }
        if self.stack.len() != frame.height {
            return Err(self.err("block leaves extra values on the stack"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FuncType, Limits};

    fn module_with_body(
        params: Vec<ValType>,
        results: Vec<ValType>,
        locals: Vec<ValType>,
        body: Vec<Instr>,
    ) -> Module {
        let mut m = Module::default();
        m.types.push(FuncType::new(params, results));
        m.memories.push(Limits::new(1, None));
        m.functions.push(Function { type_idx: 0, locals, body });
        m
    }

    #[test]
    fn accepts_simple_add() {
        let m = module_with_body(
            vec![ValType::I32, ValType::I32],
            vec![ValType::I32],
            vec![],
            vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add, Instr::End],
        );
        validate_module(&m).unwrap();
    }

    #[test]
    fn rejects_type_mismatch() {
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![Instr::F64Const(1.0), Instr::End],
        );
        let err = validate_module(&m).unwrap_err();
        assert!(err.message.contains("mismatch"), "{err}");
    }

    #[test]
    fn rejects_stack_underflow() {
        let m = module_with_body(vec![], vec![], vec![], vec![Instr::I32Add, Instr::End]);
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_unbalanced_blocks() {
        let m = module_with_body(
            vec![],
            vec![],
            vec![],
            vec![Instr::Block(BlockType::Empty), Instr::End],
        );
        // Body: block/end then nothing — missing the function-level end.
        let err = validate_module(&m).unwrap_err();
        assert!(err.message.contains("end"), "{err}");
    }

    #[test]
    fn accepts_branching_loop() {
        // loop { local0 += 1; br_if 0 (local0 < 10) }
        let m = module_with_body(
            vec![],
            vec![],
            vec![ValType::I32],
            vec![
                Instr::Loop(BlockType::Empty),
                Instr::LocalGet(0),
                Instr::I32Const(1),
                Instr::I32Add,
                Instr::LocalTee(0),
                Instr::I32Const(10),
                Instr::I32LtS,
                Instr::BrIf(0),
                Instr::End,
                Instr::End,
            ],
        );
        validate_module(&m).unwrap();
    }

    #[test]
    fn rejects_branch_depth_out_of_range() {
        let m = module_with_body(vec![], vec![], vec![], vec![Instr::Br(4), Instr::End]);
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_set_of_immutable_global() {
        let mut m = module_with_body(
            vec![],
            vec![],
            vec![],
            vec![Instr::I32Const(1), Instr::GlobalSet(0), Instr::End],
        );
        m.globals.push(crate::module::Global {
            ty: crate::types::GlobalType {
                val_type: ValType::I32,
                mutability: Mutability::Const,
            },
            init: Instr::I32Const(0),
        });
        let err = validate_module(&m).unwrap_err();
        assert!(err.message.contains("immutable"), "{err}");
    }

    #[test]
    fn rejects_if_with_result_but_no_else() {
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![
                Instr::I32Const(1),
                Instr::If(BlockType::Value(ValType::I32)),
                Instr::I32Const(2),
                Instr::End,
                Instr::End,
            ],
        );
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn accepts_if_else_with_result() {
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![
                Instr::I32Const(1),
                Instr::If(BlockType::Value(ValType::I32)),
                Instr::I32Const(2),
                Instr::Else,
                Instr::I32Const(3),
                Instr::End,
                Instr::End,
            ],
        );
        validate_module(&m).unwrap();
    }

    /// A `(param i32) (result i32)` function that starts `i32.const 7;
    /// local.get 0; if (type 1)`, type 1 being `[i32; params] -> [i32; results]`.
    fn if_on_7(params: usize, results: usize, rest: &[Instr]) -> Result<(), ValidateError> {
        let i32s = |n| vec![ValType::I32; n];
        let mut body = vec![Instr::I32Const(7), Instr::LocalGet(0), Instr::If(BlockType::Func(1))];
        body.extend_from_slice(rest);
        let mut m = module_with_body(i32s(1), i32s(1), vec![], body);
        m.types.push(FuncType::new(i32s(params), i32s(results)));
        validate_module(&m)
    }

    #[test]
    fn an_empty_else_arm_leaves_the_ifs_parameter() {
        if_on_7(1, 1, &[Instr::Else, Instr::End, Instr::End]).unwrap();
    }

    #[test]
    fn an_else_arm_computes_on_the_ifs_parameter() {
        use Instr::*;
        if_on_7(1, 1, &[Else, I32Const(1), I32Add, End, End]).unwrap();
    }

    #[test]
    fn an_else_arm_that_pushes_beside_the_parameter_leaves_too_much() {
        use Instr::*;
        let err = if_on_7(1, 1, &[Else, I32Const(2), End, End]).unwrap_err();
        assert!(err.message.contains("extra values"), "{err}");
    }

    #[test]
    fn an_if_without_else_cannot_consume_its_parameter() {
        // No else arm is an empty one, and that cannot turn [i32] into [].
        use Instr::*;
        let err = if_on_7(1, 0, &[Drop, End, LocalGet(0), End]).unwrap_err();
        assert!(err.message.contains("without else"), "{err}");
    }

    #[test]
    fn records_the_v128_drops_and_selects_of_each_function() {
        use Instr::*;
        let v = || Instr::v128_const([0; 16]);
        let mut m = module_with_body(
            vec![],
            vec![],
            vec![],
            vec![v(), v(), V128And, Drop, I32Const(1), I32Const(2), I32Const(0), Select, Drop, End],
        );
        let body = vec![v(), v(), I32Const(0), Select, Drop, End];
        m.functions.insert(0, Function { type_idx: 0, locals: vec![], body: vec![End] });
        m.functions.push(Function { type_idx: 0, locals: vec![], body });
        let wide = validate(&m).unwrap();
        assert_eq!(wide.of(0), &[] as &[u32]);
        assert_eq!(wide.of(1), &[3], "the drop of the v128.and, not the i32 select or its drop");
        assert_eq!(wide.of(2), &[3, 4]);
    }

    #[test]
    fn a_function_of_unknown_type_is_reported_where_it_is_first_met() {
        // Function 1 names type 9 of 1. A caller before it meets it first.
        let untyped = Function { type_idx: 9, locals: vec![], body: vec![Instr::End] };
        let mut m = module_with_body(vec![], vec![], vec![], vec![Instr::Call(1), Instr::End]);
        m.functions.push(untyped.clone());
        let err = validate_module(&m).unwrap_err();
        assert_eq!((err.func, err.message.as_str()), (Some(0), "call to unknown function 1"));

        let mut m = module_with_body(vec![], vec![], vec![], vec![Instr::End]);
        m.functions.push(untyped);
        let err = validate_module(&m).unwrap_err();
        assert_eq!((err.func, err.message.as_str()), (Some(1), "type index out of range"));
    }

    #[test]
    fn rejects_memory_access_without_memory() {
        let mut m = module_with_body(
            vec![],
            vec![],
            vec![],
            vec![
                Instr::I32Const(0),
                Instr::I32Load(crate::instr::MemArg::default()),
                Instr::Drop,
                Instr::End,
            ],
        );
        m.memories.clear();
        let err = validate_module(&m).unwrap_err();
        assert!(err.message.contains("memory"), "{err}");
    }

    #[test]
    fn dead_code_after_unconditional_branch_is_permissive() {
        let m = module_with_body(
            vec![],
            vec![ValType::I32],
            vec![],
            vec![
                Instr::I32Const(1),
                Instr::Return,
                // Dead code with bogus stack usage is allowed by the spec.
                Instr::I32Add,
                Instr::Drop,
                Instr::End,
            ],
        );
        validate_module(&m).unwrap();
    }

    #[test]
    fn rejects_duplicate_export_names() {
        let mut m = module_with_body(vec![], vec![], vec![], vec![Instr::End]);
        for _ in 0..2 {
            m.exports.push(crate::module::Export {
                name: "x".into(),
                kind: ExportKind::Func,
                index: 0,
            });
        }
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_bad_start_signature() {
        let mut m = module_with_body(vec![ValType::I32], vec![], vec![], vec![Instr::End]);
        m.start = Some(0);
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn rejects_simd_lane_out_of_range() {
        let m = module_with_body(
            vec![],
            vec![ValType::F64],
            vec![],
            vec![
                Instr::v128_const([0; 16]),
                Instr::F64x2ExtractLane(2),
                Instr::End,
            ],
        );
        assert!(validate_module(&m).is_err());
    }

    /// The spec's rule: a memarg's alignment, `2^align` bytes, may not
    /// exceed the access's natural width. Written apart from the
    /// instruction table, as its oracle.
    #[test]
    fn a_memarg_may_claim_at_most_the_natural_alignment() {
        use Instr::*;
        use ValType::{F32, F64, I32, I64, V128};
        // The access, log2 of its width, its value type, whether it stores.
        type Access = fn(MemArg) -> Instr;
        let accesses: [(Access, u32, ValType, bool); 25] = [
            (I32Load, 2, I32, false),
            (I64Load, 3, I64, false),
            (F32Load, 2, F32, false),
            (F64Load, 3, F64, false),
            (I32Load8S, 0, I32, false),
            (I32Load8U, 0, I32, false),
            (I32Load16S, 1, I32, false),
            (I32Load16U, 1, I32, false),
            (I64Load8S, 0, I64, false),
            (I64Load8U, 0, I64, false),
            (I64Load16S, 1, I64, false),
            (I64Load16U, 1, I64, false),
            (I64Load32S, 2, I64, false),
            (I64Load32U, 2, I64, false),
            (V128Load, 4, V128, false),
            (I32Store, 2, I32, true),
            (I64Store, 3, I64, true),
            (F32Store, 2, F32, true),
            (F64Store, 3, F64, true),
            (I32Store8, 0, I32, true),
            (I32Store16, 1, I32, true),
            (I64Store8, 0, I64, true),
            (I64Store16, 1, I64, true),
            (I64Store32, 2, I64, true),
            (V128Store, 4, V128, true),
        ];
        let value = |ty| match ty {
            I32 => I32Const(0),
            I64 => I64Const(0),
            F32 => F32Const(0.0),
            F64 => F64Const(0.0),
            V128 => Instr::v128_const([0; 16]),
        };
        for (access, natural, ty, store) in accesses {
            for align in (0..=natural + 1).chain([31, 32, u32::MAX]) {
                let instr = access(MemArg { align, offset: 8 });
                let body = if store {
                    vec![I32Const(0), value(ty), instr.clone(), End]
                } else {
                    vec![I32Const(0), instr.clone(), Drop, End]
                };
                let result = validate_module(&module_with_body(vec![], vec![], vec![], body));
                match result {
                    Ok(()) => assert!(align <= natural, "{instr:?} accepted"),
                    Err(e) => {
                        assert!(align > natural, "{instr:?}: {e}");
                        assert!(e.message.contains("alignment"), "{instr:?}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_multiple_memories() {
        let mut m = module_with_body(vec![], vec![], vec![], vec![Instr::End]);
        m.memories.push(Limits::new(1, None));
        assert!(validate_module(&m).is_err());
    }
}

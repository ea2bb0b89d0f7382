//! Module instantiation and the embedding interface.
//!
//! A [`Linker`] collects host functions by `(namespace, name)`; the paper's
//! embedder registers all `env.MPI_*` functions and the WASI imports here.
//! [`Linker::instantiate`] checks the module's imports against the
//! registered definitions (name *and* signature), allocates memory, applies
//! data/element segments, runs the start function, and returns an
//! [`Instance`] on which exports can be invoked.
//!
//! Host functions receive `&mut Instance`, which lets them read and write
//! guest memory with zero copies and *re-enter* the guest — the embedder's
//! `MPI_Alloc_mem` uses this to invoke the guest's exported `malloc`
//! (paper §3.7).

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{Trap, ValidateError};
use crate::module::{ExportKind, Function, Module};
use crate::regalloc::RegFunc;
use crate::tier::{Bodies, CompiledBody, Tier};
use crate::types::{slot_count, FuncType, Limits, ValType};
use crate::validate::validate;

use super::memory::Memory;
use super::value::{Slot, Value};

/// Alias kept for API familiarity with mainstream embedders: host functions
/// are called with the instance as their "caller" context.
pub type Caller = Instance;

/// A host function: receives the calling instance (for memory access and
/// guest re-entry) and the argument slots; returns the result slots.
/// Arguments arrive as untyped [`Slot`]s — the registered [`FuncType`] is
/// the contract for how to read them (`args[i].i32()` etc.), exactly as
/// validation guarantees for guest-side operands. The executors call it
/// through a borrow of the instance's host table, so a call costs no
/// reference count, and a function registered with [`Linker::func_word`]
/// hands back its one result inline: such a call allocates nothing.
pub type HostFn =
    Arc<dyn Fn(&mut Instance, &[Slot]) -> Result<HostResults, Trap> + Send + Sync>;

/// The result slots of one host call.
pub enum HostResults {
    /// A single slot, held inline ([`Linker::func_word`]).
    Word(Slot),
    /// Any number of slots ([`Linker::func`]).
    Slots(Vec<Slot>),
}

impl std::ops::Deref for HostResults {
    type Target = [Slot];

    fn deref(&self) -> &[Slot] {
        match self {
            HostResults::Word(slot) => std::slice::from_ref(slot),
            HostResults::Slots(slots) => slots,
        }
    }
}

/// Errors produced while instantiating a module.
#[derive(Debug)]
pub enum InstantiateError {
    /// The module failed validation.
    Validate(ValidateError),
    /// An import had no registered definition.
    MissingImport { module: String, name: String },
    /// An import's registered definition has the wrong type.
    ImportTypeMismatch { module: String, name: String, expected: FuncType, found: FuncType },
    /// A data or element segment fell outside its target.
    SegmentOutOfBounds(String),
    /// The start function trapped.
    StartTrap(Trap),
    /// The module declares no memory but the embedder requires one.
    NoMemory,
}

impl fmt::Display for InstantiateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstantiateError::Validate(e) => write!(f, "{e}"),
            InstantiateError::MissingImport { module, name } => {
                write!(f, "missing import {module}.{name}")
            }
            InstantiateError::ImportTypeMismatch { module, name, expected, found } => write!(
                f,
                "import {module}.{name} type mismatch: module wants {expected}, host provides {found}"
            ),
            InstantiateError::SegmentOutOfBounds(what) => {
                write!(f, "{what} segment out of bounds")
            }
            InstantiateError::StartTrap(t) => write!(f, "start function trapped: {t}"),
            InstantiateError::NoMemory => write!(f, "module declares no linear memory"),
        }
    }
}

impl std::error::Error for InstantiateError {}

impl From<ValidateError> for InstantiateError {
    fn from(e: ValidateError) -> Self {
        InstantiateError::Validate(e)
    }
}

/// Engine execution limits, guarding the embedder against runaway guests.
#[derive(Debug, Clone, Copy)]
pub struct InstanceLimits {
    /// Maximum nested guest call depth (including host→guest re-entries).
    pub max_call_depth: usize,
    /// Maximum operand-stack entries per activation.
    pub max_value_stack: usize,
}

impl Default for InstanceLimits {
    fn default() -> Self {
        // The guest call depth is bounded well below the host stack it
        // consumes (each guest activation uses ~1 KiB of host frame, and
        // test threads only get 2 MiB), so exhaustion is reported as a
        // clean `Trap::StackExhausted` instead of overflowing the host.
        Self { max_call_depth: 1000, max_value_stack: 1 << 20 }
    }
}

/// A validated module and its code for a specific execution tier. The
/// code is shared (`Arc`) so one compiled module can be instantiated once
/// per MPI rank without recompiling — the engine-level mechanism behind
/// the embedder's module cache (§3.3) — and is produced one function at a
/// time: [`CompiledModule::deferred`] lowers nothing, the first call of a
/// function lowers it for every instance, and [`CompiledModule::compile`]
/// lowers everything before it returns.
#[derive(Clone)]
pub struct CompiledModule {
    pub(crate) module: Arc<Module>,
    pub(crate) tier: Tier,
    pub(crate) bodies: Arc<Bodies>,
}

/// What the retired profile-guided tier counted, now always zero. Kept
/// because `benchmark/` reads it; ROADMAP item 1's `[benchmark]` PR
/// removes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitSnapshot {
    pub promotions: u64,
    pub chains_entered: u64,
    pub guard_exits: u64,
    pub fallback_steps: u64,
}

impl CompiledModule {
    /// Validate a module for the given tier and lower nothing yet: each
    /// function is lowered by the first call that reaches it. For a
    /// launch with no consumer of the whole module's code — a job lowers
    /// what it runs. A body the tier cannot express (see
    /// [`CompiledModule::lower_all`]) traps that call with
    /// [`Trap::Unlowerable`](crate::error::Trap::Unlowerable).
    pub fn deferred(module: Module, tier: Tier) -> Result<Self, ValidateError> {
        let wide = validate(&module)?;
        let module = Arc::new(module);
        let bodies = Arc::new(Bodies::deferred(Arc::clone(&module), wide, tier));
        Ok(Self { module, tier, bodies })
    }

    /// Validate and compile a module for the given tier: every body is
    /// lowered on return.
    pub fn compile(module: Module, tier: Tier) -> Result<Self, ValidateError> {
        let compiled = Self::deferred(module, tier)?;
        compiled.lower_all()?;
        Ok(compiled)
    }

    /// Lower every body not lowered yet. `Err` names the first function
    /// whose valid body the flat tiers' register encoding cannot express
    /// (see [`crate::ir::compile`]).
    pub fn lower_all(&self) -> Result<(), ValidateError> {
        self.bodies().map(drop)
    }

    /// How many of the module's defined functions have been lowered so
    /// far (all of them after `compile` or `lower_all`).
    pub fn lowered_funcs(&self) -> usize {
        self.bodies.lowered_count()
    }

    /// Does nothing. Kept because `benchmark/` reads it; ROADMAP item 1's
    /// `[benchmark]` PR removes it.
    pub fn set_jit_profiling(&self, _on: bool) {}

    /// Always `None`. Kept because `benchmark/` reads it; ROADMAP item 1's
    /// `[benchmark]` PR removes it.
    pub fn jit_snapshot(&self) -> Option<JitSnapshot> {
        None
    }

    pub fn module(&self) -> &Module {
        &self.module
    }

    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Approximate in-memory size of the whole module's compiled code, in
    /// bytes (lowers what is not lowered yet, so the answer does not
    /// depend on what happened to run). Used by the binary-size experiment
    /// as the "native code" artifact size.
    pub fn code_size(&self) -> usize {
        (0..self.bodies.len())
            .filter_map(|i| self.bodies.lowered(i).ok())
            .map(CompiledBody::size_bytes)
            .sum()
    }

    /// Reassemble a compiled module from deserialized parts (the module
    /// cache's load path). The module is validated first, then `code` is
    /// asked for each function's stored code in order: its register form
    /// at a flat tier, `None` at `Baseline` (nothing is stored; the side
    /// table is built by the function's first call). Anything else is
    /// rejected — the executors assume a body's kind from the tier.
    pub fn from_parts(
        module: Module,
        tier: Tier,
        mut code: impl FnMut(&Module, &Function) -> Result<Option<RegFunc>, String>,
    ) -> Result<Self, ValidateError> {
        let compiled = Self::deferred(module, tier)?;
        for (idx, func) in compiled.module.functions.iter().enumerate() {
            match code(&compiled.module, func).map_err(ValidateError::module)? {
                Some(f) if tier != Tier::Baseline => compiled.bodies.set(idx, f),
                None if tier == Tier::Baseline => {}
                _ => return Err(ValidateError::module("compiled body of another tier's kind")),
            }
        }
        Ok(compiled)
    }

    /// Every function's compiled body, in order (the cache's store path),
    /// lowering what is not lowered yet; `Err` as for
    /// [`CompiledModule::lower_all`].
    pub fn bodies(&self) -> Result<Vec<&CompiledBody>, ValidateError> {
        (0..self.bodies.len())
            .map(|i| {
                self.bodies
                    .lowered(i)
                    .map_err(|e| ValidateError::in_func(self.bodies.func_index(i), e))
            })
            .collect()
    }
}

/// Registry of host-provided import definitions.
#[derive(Default, Clone)]
pub struct Linker {
    funcs: HashMap<(String, String), (FuncType, HostFn)>,
}

impl Linker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a host function under `(module, name)` with an explicit
    /// signature. Instantiation fails if a guest imports the same name with
    /// a different signature.
    pub fn func(
        &mut self,
        module: &str,
        name: &str,
        ty: FuncType,
        f: impl Fn(&mut Instance, &[Slot]) -> Result<Vec<Slot>, Trap> + Send + Sync + 'static,
    ) -> &mut Self {
        let f = move |inst: &mut Instance, args: &[Slot]| f(inst, args).map(HostResults::Slots);
        self.define(module, name, ty, Arc::new(f))
    }

    /// Register a host function whose signature has exactly one result
    /// slot (one scalar, not a `v128`): it returns that slot, and a call
    /// allocates nothing to pass it back.
    ///
    /// # Panics
    /// If `ty` does not have exactly one single-slot result.
    pub fn func_word(
        &mut self,
        module: &str,
        name: &str,
        ty: FuncType,
        f: impl Fn(&mut Instance, &[Slot]) -> Result<Slot, Trap> + Send + Sync + 'static,
    ) -> &mut Self {
        assert_eq!(slot_count(&ty.results), 1, "{module}.{name}: not one result slot");
        let f = move |inst: &mut Instance, args: &[Slot]| f(inst, args).map(HostResults::Word);
        self.define(module, name, ty, Arc::new(f))
    }

    fn define(&mut self, module: &str, name: &str, ty: FuncType, f: HostFn) -> &mut Self {
        self.funcs.insert((module.into(), name.into()), (ty, f));
        self
    }

    /// Whether a definition exists for `(module, name)`.
    pub fn contains(&self, module: &str, name: &str) -> bool {
        self.funcs.contains_key(&(module.to_string(), name.to_string()))
    }

    /// Number of registered definitions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Instantiate a compiled module, attaching `data` as embedder state.
    pub fn instantiate(
        &self,
        compiled: &CompiledModule,
        data: Box<dyn Any + Send>,
    ) -> Result<Instance, InstantiateError> {
        let module = Arc::clone(&compiled.module);

        // Resolve function imports in order.
        let mut host_funcs: Vec<HostFn> = Vec::new();
        for (ns, name, type_idx) in module.imported_funcs() {
            let want = module.types[type_idx as usize].clone();
            let (ty, f) = self
                .funcs
                .get(&(ns.to_string(), name.to_string()))
                .ok_or_else(|| InstantiateError::MissingImport {
                    module: ns.into(),
                    name: name.into(),
                })?;
            if *ty != want {
                return Err(InstantiateError::ImportTypeMismatch {
                    module: ns.into(),
                    name: name.into(),
                    expected: want,
                    found: ty.clone(),
                });
            }
            host_funcs.push(Arc::clone(f));
        }

        // Memory: defined or a zero-page default (imported memories are not
        // supported; the MPIWasm model is one private memory per instance).
        let mem_limits = module.memories.first().copied().unwrap_or(Limits::new(0, Some(0)));
        let mut memory = Memory::new(mem_limits);

        // Apply data segments.
        for seg in &module.data {
            let offset = seg.offset as u32;
            let dst = memory
                .slice_mut(offset, seg.bytes.len() as u32)
                .map_err(|_| InstantiateError::SegmentOutOfBounds("data".into()))?;
            dst.copy_from_slice(&seg.bytes);
        }

        // Globals, stored untyped; the declared types are kept for the
        // typed accessor.
        let globals = module
            .globals
            .iter()
            .map(|g| match g.init {
                crate::instr::Instr::I32Const(v) => Slot::from_i32(v),
                crate::instr::Instr::I64Const(v) => Slot::from_i64(v),
                crate::instr::Instr::F32Const(v) => Slot::from_f32(v),
                crate::instr::Instr::F64Const(v) => Slot::from_f64(v),
                _ => unreachable!("validated"),
            })
            .collect();
        let global_types: Vec<ValType> = module.globals.iter().map(|g| g.ty.val_type).collect();

        // Table + element segments.
        let table_limits = module.tables.first().copied().unwrap_or(Limits::new(0, Some(0)));
        let mut table: Vec<Option<u32>> = vec![None; table_limits.min as usize];
        for seg in &module.elements {
            let start = seg.offset as usize;
            let end = start + seg.funcs.len();
            if end > table.len() {
                return Err(InstantiateError::SegmentOutOfBounds("element".into()));
            }
            for (i, &f) in seg.funcs.iter().enumerate() {
                table[start + i] = Some(f);
            }
        }

        // Precompute the function-index-space type list and, for imports,
        // the argument slot counts (the host-call boundary works in slots).
        let mut func_types = Vec::with_capacity(module.num_funcs());
        for (_, _, type_idx) in module.imported_funcs() {
            func_types.push(module.types[type_idx as usize].clone());
        }
        for f in &module.functions {
            func_types.push(module.types[f.type_idx as usize].clone());
        }
        let host_arg_slots: Vec<u32> = func_types[..host_funcs.len()]
            .iter()
            .map(|t| slot_count(&t.params))
            .collect();

        let mut instance = Instance {
            module,
            tier: compiled.tier,
            bodies: Arc::clone(&compiled.bodies),
            memory,
            globals,
            global_types,
            table,
            host_funcs: host_funcs.into(),
            host_arg_slots,
            func_types,
            data,
            limits: InstanceLimits::default(),
            depth: 0,
            spare_stack: None,
            fuel_left: u64::MAX,
            interrupt: None,
        };

        if let Some(start) = instance.module.start {
            instance.call_func(start, &[]).map_err(InstantiateError::StartTrap)?;
        }
        Ok(instance)
    }
}

/// A live module instance: compiled code plus its mutable state (memory,
/// globals, table) and the embedder's per-instance data.
pub struct Instance {
    pub(crate) module: Arc<Module>,
    pub(crate) tier: Tier,
    pub(crate) bodies: Arc<Bodies>,
    /// The instance's linear memory. Public so host functions can translate
    /// guest pointers with zero copies.
    pub memory: Memory,
    pub(crate) globals: Vec<Slot>,
    pub(crate) global_types: Vec<ValType>,
    pub(crate) table: Vec<Option<u32>>,
    /// Imported functions, by index. Shared, so an executor borrows the
    /// table once for every host call of an invocation.
    pub(crate) host_funcs: Arc<[HostFn]>,
    /// Per imported function: argument count in slots.
    pub(crate) host_arg_slots: Vec<u32>,
    pub(crate) func_types: Vec<FuncType>,
    /// Embedder state (e.g. the MPIWasm `Env`); downcast with [`Instance::data`].
    pub(crate) data: Box<dyn Any + Send>,
    pub(crate) limits: InstanceLimits,
    pub(crate) depth: usize,
    /// The frame arena: one slot buffer shared by the operand stacks and
    /// locals of all activation frames of an invocation. Parked here
    /// between invocations so repeated calls allocate nothing; taken by
    /// the active driver loop (a host re-entry simply allocates a fresh
    /// one for its nested invocation).
    pub(crate) spare_stack: Option<Vec<Slot>>,
    /// Remaining execution fuel in guard-point ticks; `u64::MAX` means
    /// unlimited. Consumed at backward branches / interpreter epochs (in
    /// batches of up to 1024) and at invocation entries, so enforcement
    /// overruns the budget by at most one batch.
    pub(crate) fuel_left: u64,
    /// Embedder-raised interruption flag, polled at the same guard points
    /// fuel is charged at. `None` until [`Instance::interrupt_handle`] is
    /// first called, so un-instrumented instances pay nothing.
    pub(crate) interrupt: Option<Arc<std::sync::atomic::AtomicBool>>,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("module", &self.module.name)
            .field("tier", &self.tier)
            .field("memory_pages", &self.memory.size_pages())
            .field("funcs", &self.func_types.len())
            .finish_non_exhaustive()
    }
}

impl Instance {
    /// The module this instance was created from.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The execution tier the module was compiled with.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Replace the engine limits (call depth, stack size).
    pub fn set_limits(&mut self, limits: InstanceLimits) {
        self.limits = limits;
    }

    /// Budget guest execution: `fuel` guard-point ticks (backward
    /// branches, interpreter instruction epochs, invocation entries).
    /// When the budget runs out the guest traps with [`Trap::OutOfFuel`]
    /// at the next guard point. `u64::MAX` restores unlimited execution.
    /// Granularity is coarse — ticks are charged in batches of up to 1024
    /// events — so treat fuel as a containment bound, not a cycle count.
    /// Lowering a function on its first call is not a guard point.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel_left = fuel;
    }

    /// Remaining fuel ticks (`u64::MAX` = unlimited).
    pub fn fuel_left(&self) -> u64 {
        self.fuel_left
    }

    /// The instance's interruption flag, created on first use. Storing
    /// `true` (from any thread — a deadline timer, a job canceller) makes
    /// the guest trap with [`Trap::Interrupted`] at the next guard point.
    /// The flag is sticky; the embedder may reset it to reuse the
    /// instance.
    pub fn interrupt_handle(&mut self) -> Arc<std::sync::atomic::AtomicBool> {
        Arc::clone(
            self.interrupt
                .get_or_insert_with(|| Arc::new(std::sync::atomic::AtomicBool::new(false))),
        )
    }

    /// Install a shared interruption flag — one deadline timer can drive
    /// every rank of a job through a single flag. Replaces any flag
    /// previously handed out by [`Instance::interrupt_handle`].
    pub fn set_interrupt_flag(&mut self, flag: Arc<std::sync::atomic::AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Cap linear memory at `max_bytes` (rounded down to whole pages,
    /// never below the current size): a `memory.grow` past the cap fails
    /// with -1 exactly like growing past the module's declared maximum.
    pub fn cap_memory(&mut self, max_bytes: u64) {
        let pages = (max_bytes / crate::PAGE_SIZE as u64).min(u32::MAX as u64) as u32;
        self.memory.cap_max_pages(pages);
    }

    /// Whether any execution limit (fuel budget or interrupt flag) is
    /// armed. The tiers resolve this once per entry and select an
    /// unmetered hot loop when nothing could ever fire, so unlimited
    /// runs execute exactly the pre-limits code.
    #[inline]
    pub(crate) fn metered(&self) -> bool {
        self.fuel_left != u64::MAX || self.interrupt.is_some()
    }

    /// Charge `ticks` guard events against the fuel budget and poll the
    /// interrupt flag. Called from the execution tiers' guard points.
    #[inline]
    pub(crate) fn fuel_step(&mut self, ticks: u64) -> Result<(), Trap> {
        if self.fuel_left != u64::MAX {
            self.fuel_left = self.fuel_left.saturating_sub(ticks);
            if self.fuel_left == 0 {
                return Err(Trap::OutOfFuel);
            }
        }
        if let Some(flag) = &self.interrupt {
            if flag.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(Trap::Interrupted);
            }
        }
        Ok(())
    }

    /// Borrow the embedder state, downcast to `T`.
    pub fn data<T: 'static>(&self) -> Option<&T> {
        self.data.downcast_ref::<T>()
    }

    /// Mutably borrow the embedder state, downcast to `T`.
    pub fn data_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.data.downcast_mut::<T>()
    }

    /// Split-borrow the linear memory and the embedder state. Host
    /// functions use this to move bytes between guest memory and embedder
    /// structures without intermediate copies.
    pub fn parts(&mut self) -> (&mut Memory, &mut (dyn Any + Send)) {
        (&mut self.memory, &mut *self.data)
    }

    /// Look up an exported function's index by name.
    pub fn export_func(&self, name: &str) -> Option<u32> {
        self.module
            .exports
            .iter()
            .find(|e| e.name == name && e.kind == ExportKind::Func)
            .map(|e| e.index)
    }

    /// The type of a function in the function index space.
    pub fn func_type(&self, func_idx: u32) -> Option<&FuncType> {
        self.func_types.get(func_idx as usize)
    }

    /// Invoke an exported function by name.
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let idx = self
            .export_func(name)
            .ok_or_else(|| Trap::host(format!("no exported function {name:?}")))?;
        self.call_func(idx, args)
    }

    /// Invoke a function by index in the function index space, checking the
    /// argument types against its signature.
    pub fn call_func(&mut self, func_idx: u32, args: &[Value]) -> Result<Vec<Value>, Trap> {
        let ty = self
            .func_types
            .get(func_idx as usize)
            .ok_or_else(|| Trap::host(format!("function index {func_idx} out of range")))?;
        if ty.params.len() != args.len()
            || ty.params.iter().zip(args).any(|(p, a)| *p != a.ty())
        {
            return Err(Trap::host(format!(
                "argument mismatch calling function {func_idx}: expected {ty}",
            )));
        }
        // Typed boundary: convert to slots, run untyped, convert back.
        let result_types = ty.results.clone();
        let mut slots = Vec::with_capacity(args.len());
        for a in args {
            a.push_slots(&mut slots);
        }
        let out = self.call_func_unchecked(func_idx, &slots)?;
        let mut values = Vec::with_capacity(result_types.len());
        let mut at = 0;
        for ty in &result_types {
            let (v, n) = Value::from_slots(*ty, &out[at..]);
            values.push(v);
            at += n;
        }
        Ok(values)
    }

    /// Internal call path on the untyped slot representation, used by the
    /// execution engines and host re-entry once types were validated.
    pub(crate) fn call_func_unchecked(
        &mut self,
        func_idx: u32,
        args: &[Slot],
    ) -> Result<Vec<Slot>, Trap> {
        if self.depth >= self.limits.max_call_depth {
            return Err(Trap::StackExhausted);
        }
        // Call-site guard point: every invocation entry (exports, host
        // re-entries, indirect dispatch) charges fuel, so fuel-bounded
        // recursion through the host boundary is contained too.
        self.fuel_step(1)?;
        let imported = self.host_funcs.len() as u32;
        if func_idx < imported {
            let hosts = Arc::clone(&self.host_funcs);
            self.depth += 1;
            let result = hosts[func_idx as usize](self, args);
            self.depth -= 1;
            return result.map(|slots| slots.to_vec());
        }
        let defined = (func_idx - imported) as usize;
        self.depth += 1;
        let result = match self.tier {
            Tier::Baseline => crate::interp::call(self, defined, args),
            _ => crate::ir::call(self, defined, args),
        };
        self.depth -= 1;
        result
    }

    /// Resolve a `call_indirect` through the table, checking the declared
    /// signature against the callee's actual type.
    pub(crate) fn resolve_indirect(&self, slot: u32, type_idx: u32) -> Result<u32, Trap> {
        let func_idx = self
            .table
            .get(slot as usize)
            .copied()
            .flatten()
            .ok_or(Trap::UndefinedTableElement { index: slot })?;
        let expected = &self.module.types[type_idx as usize];
        let actual = self
            .func_type(func_idx)
            .ok_or(Trap::UndefinedTableElement { index: slot })?;
        if expected != actual {
            return Err(Trap::IndirectCallTypeMismatch);
        }
        Ok(func_idx)
    }

    /// Take the frame arena for a driver loop (or a fresh one when a host
    /// re-entry finds it already in use).
    #[inline]
    pub(crate) fn take_stack(&mut self) -> Vec<Slot> {
        self.spare_stack.take().unwrap_or_else(|| Vec::with_capacity(4096))
    }

    /// Park the frame arena again, keeping its capacity for the next call.
    /// When a nested (host re-entry) invocation parked its stack first,
    /// keep whichever buffer is larger so the warmed-up outer arena is
    /// not thrown away.
    #[inline]
    pub(crate) fn put_stack(&mut self, mut stack: Vec<Slot>) {
        stack.clear();
        match &self.spare_stack {
            Some(parked) if parked.capacity() >= stack.capacity() => {}
            _ => self.spare_stack = Some(stack),
        }
    }

    /// Read a global by index (diagnostics / tests).
    pub fn global(&self, idx: u32) -> Option<Value> {
        let slot = *self.globals.get(idx as usize)?;
        let ty = *self.global_types.get(idx as usize)?;
        Some(Value::from_slots(ty, &[slot]).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::ValType;

    fn add_module() -> Module {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(4));
        let add = b.func(
            "add",
            vec![ValType::I32, ValType::I32],
            vec![ValType::I32],
            |f| {
                f.local_get(0).local_get(1).i32_add();
            },
        );
        let _ = add;
        b.finish()
    }

    #[test]
    fn instantiate_and_invoke() {
        let compiled = CompiledModule::compile(add_module(), Tier::Baseline).unwrap();
        let linker = Linker::new();
        let mut inst = linker.instantiate(&compiled, Box::new(())).unwrap();
        let out = inst.invoke("add", &[Value::I32(2), Value::I32(40)]).unwrap();
        assert_eq!(out, vec![Value::I32(42)]);
    }

    #[test]
    fn invoke_with_wrong_arity_fails() {
        let compiled = CompiledModule::compile(add_module(), Tier::Baseline).unwrap();
        let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        assert!(inst.invoke("add", &[Value::I32(1)]).is_err());
        assert!(inst.invoke("add", &[Value::I32(1), Value::F64(2.0)]).is_err());
        assert!(inst.invoke("missing", &[]).is_err());
    }

    #[test]
    fn missing_import_is_reported() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let imp = b.import_func("env", "mystery", vec![ValType::I32], vec![]);
        b.func("go", vec![], vec![], |f| {
            f.i32_const(1).call(imp);
        });
        let compiled = CompiledModule::compile(b.finish(), Tier::Baseline).unwrap();
        let err = Linker::new().instantiate(&compiled, Box::new(())).unwrap_err();
        assert!(matches!(err, InstantiateError::MissingImport { .. }), "{err}");
    }

    #[test]
    fn import_signature_mismatch_is_reported() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let imp = b.import_func("env", "f", vec![ValType::I32], vec![]);
        b.func("go", vec![], vec![], |f| {
            f.i32_const(1).call(imp);
        });
        let compiled = CompiledModule::compile(b.finish(), Tier::Baseline).unwrap();
        let mut linker = Linker::new();
        linker.func("env", "f", FuncType::new(vec![ValType::F64], vec![]), |_, _| Ok(vec![]));
        let err = linker.instantiate(&compiled, Box::new(())).unwrap_err();
        assert!(matches!(err, InstantiateError::ImportTypeMismatch { .. }), "{err}");
    }

    #[test]
    fn host_function_sees_and_mutates_data() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let tick = b.import_func("env", "tick", vec![], vec![]);
        b.func("go", vec![], vec![], |f| {
            f.call(tick).call(tick).call(tick);
        });
        let compiled = CompiledModule::compile(b.finish(), Tier::Baseline).unwrap();
        let mut linker = Linker::new();
        linker.func("env", "tick", FuncType::new(vec![], vec![]), |inst, _| {
            *inst.data_mut::<u32>().unwrap() += 1;
            Ok(vec![])
        });
        let mut inst = linker.instantiate(&compiled, Box::new(0u32)).unwrap();
        inst.invoke("go", &[]).unwrap();
        assert_eq!(*inst.data::<u32>().unwrap(), 3);
    }

    #[test]
    fn host_function_can_reenter_guest() {
        // Host `alloc_hook` calls the guest's exported `bump` function,
        // mirroring MPI_Alloc_mem -> guest malloc.
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let hook = b.import_func("env", "alloc_hook", vec![], vec![ValType::I32]);
        b.func("bump", vec![], vec![ValType::I32], |f| {
            f.i32_const(4096);
        });
        b.func("go", vec![], vec![ValType::I32], |f| {
            f.call(hook);
        });
        let compiled = CompiledModule::compile(b.finish(), Tier::Baseline).unwrap();
        let mut linker = Linker::new();
        linker.func("env", "alloc_hook", FuncType::new(vec![], vec![ValType::I32]), |inst, _| {
            let out = inst.invoke("bump", &[])?;
            Ok(vec![Slot::from_i32(out[0].as_i32()?)])
        });
        let mut inst = linker.instantiate(&compiled, Box::new(())).unwrap();
        assert_eq!(inst.invoke("go", &[]).unwrap(), vec![Value::I32(4096)]);
    }

    #[test]
    fn data_segments_applied_and_oob_rejected() {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.data(16, b"hello".to_vec());
        b.func("noop", vec![], vec![], |_| {});
        let compiled = CompiledModule::compile(b.finish(), Tier::Baseline).unwrap();
        let inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        assert_eq!(inst.memory.slice(16, 5).unwrap(), b"hello");

        let mut b = ModuleBuilder::new();
        b.memory(1, Some(1));
        b.data(crate::PAGE_SIZE as i32 - 2, b"hello".to_vec());
        b.func("noop", vec![], vec![], |_| {});
        let compiled = CompiledModule::compile(b.finish(), Tier::Baseline).unwrap();
        assert!(Linker::new().instantiate(&compiled, Box::new(())).is_err());
    }
}

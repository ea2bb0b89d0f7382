//! Execution tiers: the engine's analog of Wasmer's three compiler
//! backends (paper §3.3, Table 1).
//!
//! | Paper backend | Tier              | Strategy |
//! |---------------|-------------------|----------|
//! | Singlepass    | [`Tier::Baseline`]  | structured interpreter over the untyped slot stack; linear-time prepare (one scan matching each block with its `else`/`end`) |
//! | Cranelift     | [`Tier::Optimizing`]| one walk over the validated body ([`crate::ir::compile`]: jumps resolved, registers assigned from the running slot count) straight to the stackless [`crate::regalloc::RegOp`] form, optimized by the register pipeline below, and run as one step per op |
//! | LLVM          | [`Tier::Max`] (**default**) | the same walk and the same register pipeline, plus its adjacent-pair fusions (compare-and-branch with the polarity folded, multiply-then-add), and a step program with rotated loops, fused steps and predicated guards |
//!
//! [`Tier::MaxJit`] is an alias of `Max`: it compiles and runs exactly as
//! `Max` does, and the module cache gives it a tier byte of its own.
//!
//! The three flat tiers share one optimizer, the register pipeline
//! ([`crate::regalloc`]) — no other form exists between a validated body
//! and the register stream that executes: register allocation during the
//! walk, then a value-tracking mid-end (symbolic value numbers for integer
//! values; reads redirected to locals, constants folded into
//! immediate forms, `local * 2^s + k` addresses folded into scaled
//! loads/stores, sign-test pairs merged into one unsigned range test, and
//! values recomputed across blocks kept in compiler-invented scratch
//! locals), then to a fixpoint dead-result elimination and the peephole
//! (result sinking, scaled loads/stores). What separates `Optimizing`
//! from `Max` is a pass subset: the peephole's adjacent-pair fusions run
//! only above `Optimizing`, and so do the step program's rewrites
//! ([`crate::closures`]). Both run their programs on one executor.
//! `Baseline` shares none of it and stays the independent oracle of the
//! differential suites.
//!
//! The default is the tier that executes fastest — as the paper ships its
//! fastest backend (LLVM) as Wasmer's default — and every embedder entry
//! point (`JobConfig`, the `mpiwasm` CLI) takes it from [`Tier::default`].
//!
//! All tiers share the untyped execution engine: operands are raw 64-bit
//! slots (f32/f64 bit-cast, v128 in two slots) with no runtime type tags —
//! validation proves the types statically, and is the only walk that
//! tracks them: the one thing a lowerer cannot tell from an instruction
//! alone, whether a `drop`/`select` operand is a v128, it reads from what
//! validation recorded ([`crate::validate::WideOps`], kept in [`Bodies`])
//! — and activation frames live in one per-instance slot arena, so
//! guest→guest calls allocate nothing.
//! The tiers preserve the paper's ordering: compile time grows and run
//! time shrinks from Baseline to Max.
//!
//! **When a body is lowered.** Decoding and validation are eager —
//! validation is the sandbox — but a function is lowered for its tier the
//! first time something asks for its code: each function has one cell in
//! [`Bodies`], shared by every instance of the compiled module, filled
//! through [`compile_body`] by the first call that reaches it — an entry
//! function where the embedder invokes it, a callee at its first guest
//! call site (`dispatch::call_guest`, `interp::resolve`). Past that point
//! the flat executors read cells and never lower.
//! `CompiledModule::compile` is that deferred construction followed by
//! `lower_all()`, for consumers of the whole module's code (the cache's
//! store path, the code-size table); a job run from bytes without a cache
//! lowers only what it calls.
//!
//! A flat-tier function's step program ([`crate::closures`]) is built from
//! its register form at its first call, and is in-memory only: the module
//! cache stores the register form, and a hit's programs are built the
//! same way.

use std::sync::{Arc, OnceLock};

use crate::closures::Chain;
use crate::error::Trap;
use crate::interp::SideTable;
use crate::module::{Function, Module};
use crate::regalloc::RegFunc;
use crate::validate::WideOps;

/// Selects how module bodies are compiled and executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// Structured interpreter; fastest to prepare, slowest to run
    /// (Singlepass analog).
    Baseline,
    /// Register form through the shared register pipeline, one step per op
    /// (Cranelift analog).
    Optimizing,
    /// The same pipeline with its adjacent-pair fusions on, and a step
    /// program with the chain rewrites (LLVM analog). The default: it
    /// executes fastest.
    #[default]
    Max,
    /// An alias of [`Tier::Max`]: compiles and runs exactly as `Max`. Kept
    /// because `benchmark/` reads it; ROADMAP item 1's `[benchmark]` PR
    /// removes it.
    MaxJit,
}

impl Tier {
    /// Every tier, the `MaxJit` alias last. Kept at four because
    /// `benchmark/` reads it; ROADMAP item 1's `[benchmark]` PR removes it.
    pub const ALL: [Tier; 4] = [Tier::Baseline, Tier::Optimizing, Tier::Max, Tier::MaxJit];

    /// Short display name matching the paper's backend names.
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Baseline => "baseline (singlepass analog)",
            Tier::Optimizing => "optimizing (cranelift analog)",
            Tier::Max => "max (llvm analog)",
            Tier::MaxJit => "max+jit (alias of max)",
        }
    }

    /// The tier's spelling on the `mpiwasm` command line (`-tier <flag>`).
    pub fn flag(&self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            Tier::Optimizing => "optimizing",
            Tier::Max => "max",
            Tier::MaxJit => "max+jit",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A function body compiled for some tier.
pub enum CompiledBody {
    /// Baseline: the original structured body plus its control side table.
    Interp(SideTable),
    /// The flat tiers: the stackless register form.
    Flat(RegFunc),
}

impl CompiledBody {
    /// Approximate in-memory size of the compiled artifact in bytes. Used
    /// by the binary-size experiment (Table 2 analog) as "native code
    /// size": for the flat tiers, the register form — all that stays
    /// resident.
    pub fn size_bytes(&self) -> usize {
        match self {
            CompiledBody::Interp(side) => side.size_bytes(),
            CompiledBody::Flat(f) => f.size_bytes(),
        }
    }
}

/// Compile one function body for the given tier; `wide` is what validation
/// recorded for it. `Err` is a valid body the flat tiers' register encoding
/// cannot express (see [`crate::ir::compile`]).
fn compile_body(
    module: &Module,
    func: &Function,
    wide: &[u32],
    tier: Tier,
) -> Result<CompiledBody, String> {
    Ok(match tier {
        Tier::Baseline => CompiledBody::Interp(SideTable::build(module, func, wide)),
        _ => CompiledBody::Flat(crate::ir::compile(module, func, wide, tier)?),
    })
}

/// A compiled module's function bodies: one write-once cell per defined
/// function, filled by whichever caller first asks for that function's
/// code. A body the
/// flat tiers cannot express is stored as its error, so every caller —
/// on every rank — is told the same thing and nothing is retried.
pub(crate) struct Bodies {
    module: Arc<Module>,
    /// What validating `module` left for the lowerers.
    wide: WideOps,
    tier: Tier,
    cells: Box<[OnceLock<Result<CompiledBody, String>>]>,
    /// The flat tiers' step programs, one per function, each built from
    /// its register form at the function's first call ([`Bodies::flat`]).
    progs: Box<[OnceLock<Chain>]>,
}

impl Bodies {
    /// No body lowered yet.
    pub(crate) fn deferred(module: Arc<Module>, wide: WideOps, tier: Tier) -> Bodies {
        let cells = module.functions.iter().map(|_| OnceLock::new()).collect();
        let progs = module.functions.iter().map(|_| OnceLock::new()).collect();
        Bodies { module, wide, tier, cells, progs }
    }

    /// Give function `idx`, not lowered yet, its verified register form
    /// (the cache's load path).
    pub(crate) fn set(&self, idx: usize, code: RegFunc) {
        let fresh = self.cells[idx].set(Ok(CompiledBody::Flat(code))).is_ok();
        debug_assert!(fresh, "function {idx} was lowered already");
    }

    /// The body of defined function `idx`, lowered now if no caller needed
    /// it before. Once lowered this is the cell's acquire load and a
    /// branch. Lowering is charged to no virtual clock and is not a fuel
    /// or interrupt guard point.
    #[inline]
    pub(crate) fn body(&self, idx: usize) -> Result<&CompiledBody, Trap> {
        match self.cells[idx].get() {
            Some(Ok(body)) => Ok(body),
            _ => self.lower_or_trap(idx),
        }
    }

    #[cold]
    #[inline(never)]
    fn lower_or_trap(&self, idx: usize) -> Result<&CompiledBody, Trap> {
        self.lowered(idx).map_err(|message| Trap::Unlowerable {
            func: self.func_index(idx),
            message: message.to_string(),
        })
    }

    /// Defined function `idx` in the function index space (after the
    /// imports), as errors name it.
    pub(crate) fn func_index(&self, idx: usize) -> u32 {
        (self.module.num_imported_funcs() + idx) as u32
    }

    /// [`Bodies::body`] with the lowering failure as the message
    /// [`compile_body`] gave.
    pub(crate) fn lowered(&self, idx: usize) -> Result<&CompiledBody, &str> {
        self.cells[idx]
            .get_or_init(|| {
                let func = &self.module.functions[idx];
                compile_body(&self.module, func, self.wide.of(idx), self.tier)
            })
            .as_ref()
            .map_err(String::as_str)
    }

    /// The register form and step program of defined function `idx`, which
    /// has been lowered: an entry function ([`crate::ir::call`] asked for
    /// it), one a frame returns to, or one `dispatch::call_guest` just
    /// asked for. The first call of a function builds its program, for
    /// every instance of the module, so a module compiled whole (for the
    /// cache, say) holds programs only for what ran.
    #[inline]
    pub(crate) fn flat(&self, idx: usize) -> (&RegFunc, &Chain) {
        match self.cells[idx].get() {
            Some(Ok(CompiledBody::Flat(f))) => {
                (f, self.progs[idx].get_or_init(|| Chain::build(f, self.tier)))
            }
            _ => unreachable!("lowered flat body expected"),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// How many bodies have been lowered so far.
    pub(crate) fn lowered_count(&self) -> usize {
        self.cells.iter().filter(|c| matches!(c.get(), Some(Ok(_)))).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_are_distinct() {
        let names: std::collections::HashSet<_> = Tier::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn default_tier_is_max() {
        assert_eq!(Tier::default(), Tier::Max);
    }
}

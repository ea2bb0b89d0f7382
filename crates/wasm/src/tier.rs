//! Execution tiers: the engine's analog of Wasmer's three compiler
//! backends (paper §3.3, Table 1).
//!
//! | Paper backend | Tier              | Strategy |
//! |---------------|-------------------|----------|
//! | Singlepass    | [`Tier::Baseline`]  | structured interpreter over the untyped slot stack; linear-time prepare (side table + width pass) |
//! | Cranelift     | [`Tier::Optimizing`]| one walk over the validated body ([`crate::ir::compile`]: jumps resolved, registers assigned, width pass fused in) straight to the stackless [`crate::regalloc::RegOp`] form, optimized by the register pipeline below |
//! | LLVM          | [`Tier::Max`]       | the same walk and the same register pipeline, plus its adjacent-pair fusions (compare-and-branch with the polarity folded, multiply-then-add) |
//! | LLVM + hot-tier JIT | [`Tier::MaxJit`] (**default**) | the Max pipeline plus a profile-guided top tier: hot functions (per-function execution counters in the dispatch loop) have superblocks discovered over their register stream and compiled into single closure-chain units with constants and register indices baked in, v128 ops mapped to native SIMD, and guard exits that fall back to the threaded interpreter at the recorded ip |
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
//! only above `Optimizing`. `Baseline` shares none of it and stays the
//! independent oracle of the differential suites.
//!
//! The default is the tier that executes fastest — as the paper ships its
//! fastest backend (LLVM) as Wasmer's default — and every embedder entry
//! point (`JobConfig`, the `mpiwasm` CLI) takes it from [`Tier::default`].
//!
//! All tiers share the untyped execution engine: operands are raw 64-bit
//! slots (f32/f64 bit-cast, v128 in two slots) with no runtime type tags —
//! validation proves the types statically — and activation frames live in
//! one per-instance slot arena, so guest→guest calls allocate nothing.
//! The tiers preserve the paper's ordering: compile time grows and run
//! time shrinks from Baseline to Max; MaxJit defers its extra compile
//! work to run time, paying it only for functions that prove hot.
//!
//! The superblock tier's artifacts are in-memory only: the module cache
//! stores a MaxJit module exactly like a Max module (the register form
//! that executes, under a different tier byte — a hit reads it back,
//! verifies it and runs it) and superblocks are re-derived from the
//! register form after load — see [`crate::superblock`] for formation
//! and [`crate::closures`] for the closure-chain contract.

use crate::interp::SideTable;
use crate::regalloc::RegFunc;
use crate::module::{Function, Module};

/// Selects how module bodies are compiled and executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// Structured interpreter; fastest to prepare, slowest to run
    /// (Singlepass analog).
    Baseline,
    /// Register form through the shared register pipeline (Cranelift
    /// analog).
    Optimizing,
    /// The same pipeline with its adjacent-pair fusions on (LLVM analog).
    Max,
    /// Max plus the profile-guided superblock top tier: hot functions are
    /// recompiled at run time into closure-chain units with native SIMD.
    /// The default: it executes the shared register form fastest.
    #[default]
    MaxJit,
}

impl Tier {
    pub const ALL: [Tier; 4] = [Tier::Baseline, Tier::Optimizing, Tier::Max, Tier::MaxJit];

    /// The three paper-backend analogs (Table 1); excludes the superblock
    /// top tier, which has no Wasmer counterpart in the paper.
    pub const PAPER: [Tier; 3] = [Tier::Baseline, Tier::Optimizing, Tier::Max];

    /// Short display name matching the paper's backend names.
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Baseline => "baseline (singlepass analog)",
            Tier::Optimizing => "optimizing (cranelift analog)",
            Tier::Max => "max (llvm analog)",
            Tier::MaxJit => "max+jit (superblock closure tier)",
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

/// Compile one function body for the given tier. `Err` is a valid body
/// the flat tiers' register encoding cannot express (see [`crate::ir::compile`]).
pub fn compile_body(module: &Module, func: &Function, tier: Tier) -> Result<CompiledBody, String> {
    Ok(match tier {
        Tier::Baseline => CompiledBody::Interp(SideTable::build(module, func)),
        // MaxJit shares the Max ahead-of-time pipeline; the superblock
        // compilation happens at run time, driven by hotness counters.
        _ => CompiledBody::Flat(crate::ir::compile(module, func, tier)?),
    })
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
    fn default_tier_is_the_superblock_tier() {
        assert_eq!(Tier::default(), Tier::MaxJit);
    }
}

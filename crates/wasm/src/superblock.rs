//! Superblock discovery over the register-form op stream plus the
//! per-module promotion state — the analysis half of the profile-guided
//! top tier ([`crate::tier::Tier::MaxJit`]). The lowering half, which
//! turns each superblock into a chain of pre-decoded steps run over the
//! one op table ([`crate::ops`]), lives in [`crate::closures`].
//!
//! # Superblock formation
//!
//! A superblock is a single-entry, multi-exit trace through a function's
//! [`RegOp`] stream: it starts at a *head* ip, follows straight-line ops
//! and the **likely** side of every branch, and records a guard exit for
//! each unlikely side. Heads are the ips control re-enters repeatedly —
//! ip 0 (function entry) and every backward-branch target (loop header).
//! The likely side of a conditional branch is the *taken* side when the
//! target is at or before the branch (a loop backedge, taken every
//! iteration but the last) and the *fallthrough* side otherwise (forward
//! branches are bail-outs: bounds checks, early exits).
//!
//! Trace growth stops at:
//! * ops that transfer control out of the frame (`Return`, calls,
//!   `BrTable`, `Unreachable`) — the interpreter resumes at exactly that
//!   ip and executes the op itself;
//! * a branch to an already-visited ip (a cycle): the chain ends and the
//!   dispatch loop re-enters it — except that a backedge to the trace's
//!   own head (conditional or unconditional) stays *in-chain*, so a loop
//!   iterates inside one chain call without returning to the dispatch
//!   loop at all;
//! * reaching a *different* head: that ip has its own chain, so the
//!   trace ends there instead of inlining the inner loop — the resume ip
//!   lands directly on the inner chain and outer-loop chains stay small;
//! * the [`MAX_TRACE`] op cap.
//!
//! # Interpreter-fallback invariant
//!
//! Every exit from a chain — guard bail, trace end, or cycle — resumes
//! the threaded interpreter at a *recorded ip of the unmodified op
//! stream*, with all effects of the chain's already-executed ops
//! committed to the frame exactly as the interpreter would have left
//! them. Chains add no speculative state: a mid-chain trap therefore
//! unwinds identically to an interpreted trap, and the differential
//! suite holds MaxJit to byte- and trap-kind-identical results.
//!
//! # Promotion heuristic
//!
//! [`JitState`] keeps one counter per defined function, bumped on every
//! function entry/resume and every backward control transfer inside the
//! function (so single-call hot-loop functions still promote). When a
//! counter reaches the threshold (default [`DEFAULT_HOT_THRESHOLD`];
//! tests lower it via `CompiledModule::set_jit_threshold`), the
//! function's superblocks are compiled once behind a `OnceLock` and
//! shared by every instance of the compiled module — repeated
//! invocations, e.g. benchmark reps, accumulate hotness instead of
//! rediscovering it.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::closures::{self, FnChains};
use crate::regalloc::{targets, Flow, RegFunc, RegOp};

/// Hard cap on ops folded into one chain: bounds compile time and
/// resident size per block. Chains execute as a flat loop over
/// pre-decoded steps, so the cap can afford whole unrolled loop bodies
/// (hpcg's 27-point stencil body alone is ~400 ops).
const MAX_TRACE: usize = 1024;

/// Hotness events before a function is superblock-compiled. High enough
/// that cold code never pays compile time, low enough that one benchmark
/// warmup rep promotes every loop that matters.
pub(crate) const DEFAULT_HOT_THRESHOLD: u32 = 64;

/// One step of a superblock trace, in execution order.
pub(crate) enum Step {
    /// A plain fallthrough op ([`Flow::Next`]) executed exactly as the
    /// interpreter would.
    Op { op: RegOp, ip: u32 },
    /// An unconditional `Br` taken in-chain: only its unwind copy runs
    /// (the control transfer is implicit in the trace).
    Unwind { imm: u64 },
    /// A conditional branch whose likely (taken, backward) side continues
    /// in-chain: the unwind copy runs and the trace proceeds at the
    /// target; when untaken the chain bails to `fall_ip`.
    GuardTaken { op: RegOp, fall_ip: u32 },
    /// A conditional branch (at `ip`) whose likely side is the
    /// fallthrough: the trace proceeds past it; when taken the unwind copy
    /// runs and the chain bails to the branch target.
    GuardFall { op: RegOp, ip: u32 },
    /// An unconditional branch back to the trace's own head (`Jump`/`Br`
    /// closing a while-shaped loop): the unwind copy runs and the chain
    /// re-enters at its first step, keeping the loop in-chain (or, rotated,
    /// ends the iteration on a copy of the loop's exit guard).
    Backedge { imm: u64 },
}

/// A discovered superblock: the trace plus where the interpreter resumes
/// when the chain runs off its end.
pub(crate) struct Superblock {
    pub head: u32,
    pub steps: Vec<Step>,
    pub resume: u32,
}

/// Collect superblock heads: function entry plus every backward branch
/// target (conditional, unconditional, and `br_table` entries).
fn heads(f: &RegFunc) -> Vec<u32> {
    let mut heads = vec![0u32];
    for (i, op) in f.code.iter().enumerate() {
        heads.extend(targets(f, op).filter(|&t| t as usize <= i));
    }
    heads.sort_unstable();
    heads.dedup();
    heads.retain(|&h| (h as usize) < f.code.len());
    heads
}

/// Grow one trace from `head`. Returns `None` for traces with no body
/// (e.g. a head sitting directly on a `Return`). `heads` holds every
/// discovered head in the function: a trace that reaches a *different*
/// head stops there instead of inlining that loop — the resume ip lands
/// exactly on the other head's own chain, so stopping costs nothing at
/// run time and keeps outer-loop chains from duplicating (and dwarfing)
/// every inner-loop body.
fn trace(f: &RegFunc, head: u32, heads: &[u32]) -> Option<Superblock> {
    let code = &f.code;
    let mut steps = Vec::new();
    // Branch targets already part of the trace; following one again would
    // loop discovery (and unroll the guest loop), so the trace ends there.
    let mut visited = vec![head];
    let follow = |t: u32, visited: &mut Vec<u32>| -> Option<usize> {
        if visited.contains(&t) {
            None
        } else {
            visited.push(t);
            Some(t as usize)
        }
    };
    let mut ip = head as usize;
    let resume = loop {
        if steps.len() >= MAX_TRACE || ip >= code.len() {
            break ip as u32;
        }
        if !steps.is_empty() && ip as u32 != head && heads.binary_search(&(ip as u32)).is_ok() {
            break ip as u32;
        }
        let op = code[ip];
        match op.code.row().flow {
            flow @ (Flow::Jump | Flow::Br) => {
                let (target, imm) = (op.c, if flow.has_unwind() { op.imm } else { 0 });
                if target == head {
                    steps.push(Step::Backedge { imm });
                    break head;
                }
                match follow(target, &mut visited) {
                    Some(t) => {
                        if imm != 0 {
                            steps.push(Step::Unwind { imm });
                        }
                        ip = t;
                    }
                    None => break ip as u32,
                }
            }
            Flow::Branch => {
                let taken_likely = op.c as usize <= ip;
                if taken_likely && op.c == head {
                    // The trace's own loop backedge: guard it in-chain so
                    // an iteration is one chain call, and resume at the
                    // head — where the dispatch loop re-enters the chain.
                    steps.push(Step::GuardTaken { op, fall_ip: ip as u32 + 1 });
                    break head;
                }
                if taken_likely {
                    match follow(op.c, &mut visited) {
                        Some(t) => {
                            steps.push(Step::GuardTaken { op, fall_ip: ip as u32 + 1 });
                            ip = t;
                        }
                        None => break ip as u32,
                    }
                } else {
                    steps.push(Step::GuardFall { op, ip: ip as u32 });
                    ip += 1;
                }
            }
            Flow::Next => {
                steps.push(Step::Op { op, ip: ip as u32 });
                ip += 1;
            }
            // Return / calls / BrTable / Unreachable: the interpreter
            // executes the op itself.
            _ => break ip as u32,
        }
    };
    if steps.is_empty() {
        return None;
    }
    Some(Superblock { head, steps, resume })
}

/// Discover every superblock of a function, longest-first per head.
pub(crate) fn discover(f: &RegFunc) -> Vec<Superblock> {
    let hs = heads(f);
    hs.iter().filter_map(|&h| trace(f, h, &hs)).collect()
}

/// Per-compiled-module promotion state for the superblock tier: hotness
/// counters and lazily compiled chains, one pair per defined function.
/// Shared (`Arc`) by the [`crate::runtime::CompiledModule`] and all its
/// instances; [`JitState::bump`] hands out chains as plain borrows so the
/// dispatch loop pays no refcount traffic on function transitions.
pub(crate) struct JitState {
    threshold: AtomicU32,
    funcs: Vec<FuncJit>,
    /// Whether [`crate::dispatch`] flushes its per-call chain counts here.
    /// Read once at the end of a `run_jit` call.
    profiling: AtomicBool,
    promotions: AtomicU64,
    chains_entered: AtomicU64,
    guard_exits: AtomicU64,
    /// Called with the defined-function index each time a function is
    /// promoted (chains compiled). Set by the embedder; the wasm crate
    /// stays free of any tracing dependency.
    promotion_hook: Mutex<Option<Box<dyn Fn(u32) + Send + Sync>>>,
}

struct FuncJit {
    counter: AtomicU32,
    chains: OnceLock<FnChains>,
}

/// Point-in-time copy of the profiling counters
/// ([`crate::runtime::CompiledModule::jit_snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitSnapshot {
    /// Functions promoted to compiled superblock chains.
    pub promotions: u64,
    /// Chain executions entered from the dispatch loop.
    pub chains_entered: u64,
    /// Chain exits through a guard's unlikely side.
    pub guard_exits: u64,
    /// Always 0: chains have no fallback step form (every op a trace holds
    /// has a chain step). Kept because `benchmark/` reads it.
    pub fallback_steps: u64,
}

impl JitSnapshot {
    /// The counters as named metric entries (`jit.*`).
    pub fn metric_entries(&self) -> [(&'static str, u64); 3] {
        [
            ("jit.promotions", self.promotions),
            ("jit.chains_entered", self.chains_entered),
            ("jit.guard_exits", self.guard_exits),
        ]
    }
}

impl JitState {
    pub(crate) fn new(n_funcs: usize) -> Self {
        JitState {
            threshold: AtomicU32::new(DEFAULT_HOT_THRESHOLD),
            funcs: (0..n_funcs)
                .map(|_| FuncJit { counter: AtomicU32::new(0), chains: OnceLock::new() })
                .collect(),
            profiling: AtomicBool::new(false),
            promotions: AtomicU64::new(0),
            chains_entered: AtomicU64::new(0),
            guard_exits: AtomicU64::new(0),
            promotion_hook: Mutex::new(None),
        }
    }

    /// Lower the promotion threshold (test hook; also reachable through
    /// `CompiledModule::set_jit_threshold`).
    pub(crate) fn set_threshold(&self, n: u32) {
        self.threshold.store(n.max(1), Ordering::Relaxed);
    }

    pub(crate) fn set_profiling(&self, on: bool) {
        self.profiling.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn profiling(&self) -> bool {
        self.profiling.load(Ordering::Relaxed)
    }

    pub(crate) fn set_promotion_hook(&self, hook: Box<dyn Fn(u32) + Send + Sync>) {
        *self.promotion_hook.lock().unwrap() = Some(hook);
    }

    /// Fold one `run_jit` call's local counts into the shared counters
    /// (only reached when profiling is on).
    pub(crate) fn flush(&self, chains_entered: u64, guard_exits: u64) {
        self.chains_entered.fetch_add(chains_entered, Ordering::Relaxed);
        self.guard_exits.fetch_add(guard_exits, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> JitSnapshot {
        JitSnapshot {
            promotions: self.promotions.load(Ordering::Relaxed),
            chains_entered: self.chains_entered.load(Ordering::Relaxed),
            guard_exits: self.guard_exits.load(Ordering::Relaxed),
            fallback_steps: 0,
        }
    }

    /// Record one hotness event for defined function `idx` and return its
    /// chains if it is (or just became) hot. `f` must be that function's
    /// register form — chains are compiled from it on promotion.
    pub(crate) fn bump(&self, idx: u32, f: &RegFunc) -> Option<&FnChains> {
        let fj = &self.funcs[idx as usize];
        if let Some(c) = fj.chains.get() {
            return Some(c);
        }
        let n = fj.counter.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        if n < self.threshold.load(Ordering::Relaxed) {
            return None;
        }
        Some(fj.chains.get_or_init(|| {
            self.promotions.fetch_add(1, Ordering::Relaxed);
            if let Some(hook) = self.promotion_hook.lock().unwrap().as_ref() {
                hook(idx);
            }
            closures::compile_fn(f)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::regalloc::Rc;
    use crate::tier::{CompiledBody, Tier};
    use crate::types::ValType;

    fn reg_of(build: impl Fn(&mut crate::builder::FunctionBuilder)) -> RegFunc {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.func("f", vec![ValType::I32, ValType::I32], vec![ValType::I32], build);
        let module = b.finish();
        crate::validate::validate_module(&module).unwrap();
        let compiled = crate::runtime::CompiledModule::compile(module, Tier::MaxJit).unwrap();
        match compiled.bodies().unwrap()[0] {
            CompiledBody::Flat(f) => f.clone(),
            CompiledBody::Interp(_) => panic!("flat tier expected"),
        }
    }

    #[test]
    fn loop_body_forms_backedge_guarded_superblock() {
        // do { x += 1 } while (x < k): a head at the loop header, with
        // the conditional backedge guarded in-chain (resume == head).
        use crate::instr::Instr as I;
        use crate::types::BlockType;
        let rf = reg_of(|f| {
            f.emit_all([
                I::Loop(BlockType::Empty),
                I::LocalGet(0),
                I::I32Const(1),
                I::I32Add,
                I::LocalSet(0),
                I::LocalGet(0),
                I::LocalGet(1),
                I::I32LtS,
                I::BrIf(0),
                I::End,
                I::LocalGet(0),
                I::Return,
            ]);
        });
        let blocks = discover(&rf);
        let with_backedge: Vec<_> = blocks.iter().filter(|b| b.resume == b.head).collect();
        assert!(
            !with_backedge.is_empty(),
            "expected an in-chain backedge block, got {:?}",
            blocks.iter().map(|b| (b.head, b.resume, b.steps.len())).collect::<Vec<_>>()
        );
        assert!(with_backedge[0]
            .steps
            .iter()
            .any(|s| matches!(s, Step::GuardTaken { .. })));
    }

    #[test]
    fn traces_end_at_returns_and_respect_the_cap() {
        let rf = reg_of(|f| {
            use crate::instr::Instr as I;
            f.emit_all([I::LocalGet(0), I::LocalGet(1), I::I32Add, I::Return]);
        });
        for b in discover(&rf) {
            assert!(b.steps.len() <= MAX_TRACE);
            assert_eq!(rf.code[b.resume as usize].code, Rc::Return);
        }
    }
}

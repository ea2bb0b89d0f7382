//! Threaded dispatch for the register-form flat tiers: a fn-pointer
//! handler table indexed by [`Rc`] opcode, and the two loops that drive
//! it ([`run`]; [`run_jit`] adds promotion and superblock chains).
//!
//! # Handlers
//!
//! Every handler has the shape `fn(&mut Ctx, ip) -> Result<usize, Trap>`
//! and returns the **next** instruction pointer (or [`DONE`] when the
//! outermost frame returns). Handlers are not written here: `op::<C>` is
//! [`crate::ops::exec`] — the one definition of every op — expanded at the
//! constant opcode `C`, so each folds to its op's arm plus `ip + 1`.
//! `HANDLERS` holds one per opcode a stream can contain; the four ops
//! that leave the current frame (`Return`, `CallGuest`, `CallIndirect`,
//! and `CallHost`, whose host may grow or replace the memory) have their
//! own. The central loop is deliberately tiny — fetch opcode byte,
//! indirect call — so the compiler keeps `ip`, the code pointer and the
//! context in registers across the call. Trapping paths return `Err` and
//! unwind the Rust way.
//!
//! # Frame arena
//!
//! Frames are statically sized (`RegFunc::frame_size`) windows of the
//! per-instance slot arena. A guest call places the callee frame at the
//! caller's argument registers (`base + arg_base`), so the caller's
//! outgoing arguments *are* the callee's parameter registers — no copy,
//! no allocation. The arena only grows during an invocation; the stack
//! limit is enforced per call (`base + frame_size` against
//! `max_value_stack`), which replaces the old per-1024-ops counter —
//! straight-line code cannot grow a frame at run time in register form.
//!
//! A register access is one load or store off [`Ctx`]'s `frame` (the
//! arena's data pointer plus `base`), unchecked in release builds: the
//! [`crate::regalloc`] verifier proved every operand `< frame_size`, and
//! the call/entry paths maintain `base + frame_size <= stack.len()`. A
//! guest load or store goes off `mem`, linear memory's pinned base, after
//! its bounds check against the live memory size.

use std::ptr;
use std::sync::Arc;

use crate::error::Trap;
use crate::ops::{self, FALL};
use crate::regalloc::{Rc, RegFunc, RegOp};
use crate::runtime::{HostFn, Instance, Slot};
use crate::superblock::JitState;
use crate::tier::{BodyCell, CompiledBody};

/// Sentinel "next ip" meaning the outermost activation returned.
const DONE: usize = usize::MAX;

/// A suspended caller activation.
struct Frame {
    defined_idx: u32,
    ret_ip: u32,
    base: u32,
}

/// Execution context threaded through every handler and chain step.
///
/// **Nothing [`crate::closures::Chain::run`]'s loop executes writes a
/// `Ctx`.** Only then can the compiler keep `frame` and `mem` in registers
/// for a whole chain: one write — refreshing `mem` after `memory.grow`,
/// say — and every access reloads both from here. So the ops that move
/// `frame` or may move `mem` (calls, returns, host calls) have handlers
/// of their own, and no trace holds one.
pub(crate) struct Ctx<'a> {
    pub(crate) inst: &'a mut Instance,
    stack: &'a mut Vec<Slot>,
    /// `stack.as_mut_ptr() + base`: register 0 of the current frame. Set
    /// wherever `base` or the arena's allocation changes ([`Ctx::at`]).
    frame: *mut Slot,
    /// The base of `inst.memory`, pinned by [`crate::runtime::Memory::grow`];
    /// re-read after each host call, which may replace the memory.
    mem: *mut u8,
    bodies: &'a [BodyCell],
    /// The instance's host functions, borrowed once per invocation.
    hosts: &'a [HostFn],
    frames: Vec<Frame>,
    pub(crate) func: &'a RegFunc,
    code: &'a [RegOp],
    /// Absolute arena offset of the current frame's register 0.
    base: usize,
    imported: u32,
    cur_idx: u32,
}

impl Ctx<'_> {
    /// Make the frame at arena offset `base` current.
    #[inline(always)]
    fn at(&mut self, base: usize) {
        self.base = base;
        self.frame = self.stack.as_mut_ptr().wrapping_add(base);
    }

    /// Whether `frame` and `mem` are where `stack`, `base` and the
    /// instance's memory put them.
    fn fresh(&self) -> bool {
        ptr::eq(self.frame, self.stack.as_ptr().wrapping_add(self.base))
            && ptr::eq(self.mem, self.inst.memory.base_ptr())
    }
}

/// The register form of defined function `idx`, which has been lowered:
/// an entry function ([`crate::ir::call`] asked for it), one a frame
/// returns to, or one [`call_guest`] just asked for.
#[inline]
fn flat(bodies: &[BodyCell], idx: usize) -> &RegFunc {
    match bodies[idx].get() {
        Some(Ok(CompiledBody::Flat(f))) => f,
        _ => unreachable!("lowered flat body expected"),
    }
}

/// Read register `r` of the current frame.
#[inline(always)]
pub(crate) fn rg(ctx: &Ctx<'_>, r: u32) -> Slot {
    debug_assert!(ctx.fresh() && ctx.base + (r as usize) < ctx.stack.len());
    // SAFETY: `regalloc::verify` proved every register operand (plus its
    // width) `< frame_size`, compiled or read back from an artifact; entry,
    // `call_guest` and `h_return` set `frame` to `stack + base` after any
    // resize, with `base + frame_size <= stack.len()`. Broken, it shows as
    // the assertion above, or in release (CI reruns both) in `mpiwasm`'s
    // `cache::tests::resealed_body_corruption_never_panics_the_host` and,
    // for a stale `frame`, `executor_pointers::a_recursion_that_regrows_
    // the_arena_reads_its_registers_after_each_return`. (No Miri here.)
    unsafe { *ctx.frame.add(r as usize) }
}

/// Write register `r` of the current frame.
#[inline(always)]
pub(crate) fn wr(ctx: &mut Ctx<'_>, r: u32, v: Slot) {
    debug_assert!(ctx.fresh() && ctx.base + (r as usize) < ctx.stack.len());
    // SAFETY: as for `rg`: a verified destination register is inside the
    // current frame, which is inside the arena `frame` points into.
    unsafe { *ctx.frame.add(r as usize) = v }
}

/// Copy registers `src..src + n` of the current frame to `dst..` (the
/// ranges may overlap): a branch's unwind copy, a return's results.
#[inline(always)]
pub(crate) fn copy_regs(ctx: &mut Ctx<'_>, src: usize, dst: usize, n: usize) {
    debug_assert!(ctx.fresh() && ctx.base + src.max(dst) + n <= ctx.stack.len());
    // SAFETY: `regalloc::verify` proved both ranges of every unwind copy
    // and of every `Return`'s results inside the frame, which is in the
    // arena as for `rg`; `ptr::copy` is a memmove through `frame`, not a
    // fresh `&mut [Slot]` of `stack`. Broken, it shows in `executor_
    // pointers::a_chained_br_with_an_unwind_copy_agrees_with_baseline`.
    unsafe { ptr::copy(ctx.frame.add(src), ctx.frame.add(dst), n) }
}

/// The `N` guest bytes at `start`, which the caller bounds-checked against
/// the live memory size ([`crate::runtime::Memory::effective`]).
#[inline(always)]
pub(crate) fn load<const N: usize>(ctx: &Ctx<'_>, start: usize) -> [u8; N] {
    debug_assert!(ctx.fresh() && start + N <= ctx.inst.memory.size_bytes());
    // SAFETY: the caller checked `start + N` against the live size, and
    // `mem` is that memory's base: set at entry, kept by `Memory::grow`
    // (`grow_keeps_base_address_pinned`), re-read by `call_host` after a
    // host, which may replace `Instance::memory`. Broken, it shows as the
    // assertion above, or in release (CI reruns it) in `executor_pointers::
    // loads_after_a_host_call_read_the_memory_the_host_left` and `memory_
    // grown_inside_a_chain_is_reachable_to_its_last_byte`. (No Miri here.)
    unsafe { ctx.mem.add(start).cast::<[u8; N]>().read_unaligned() }
}

/// Store `bytes` at guest address `start`, checked as for [`load`].
#[inline(always)]
pub(crate) fn store<const N: usize>(ctx: &mut Ctx<'_>, start: usize, bytes: [u8; N]) {
    debug_assert!(ctx.fresh() && start + N <= ctx.inst.memory.size_bytes());
    // SAFETY: as for `load`; `mem` came from `Memory::as_mut_ptr`, so it
    // may write.
    unsafe { ctx.mem.add(start).cast::<[u8; N]>().write_unaligned(bytes) }
}

/// Read a wide (v128) register: two slots, low half first.
#[inline(always)]
pub(crate) fn rg2(ctx: &Ctx<'_>, r: u32) -> u128 {
    rg(ctx, r).0 as u128 | (rg(ctx, r + 1).0 as u128) << 64
}

#[inline(always)]
pub(crate) fn wr2(ctx: &mut Ctx<'_>, r: u32, v: u128) {
    wr(ctx, r, Slot(v as u64));
    wr(ctx, r + 1, Slot((v >> 64) as u64));
}

pub(crate) type Handler = for<'a> fn(&mut Ctx<'a>, usize) -> Result<usize, Trap>;

/// The handler of opcode `C`: its arm of the op table, then `ip + 1`
/// unless the op says where to go (an untaken branch says [`FALL`]).
fn op<const C: u8>(ctx: &mut Ctx<'_>, ip: usize) -> Result<usize, Trap> {
    let Some(code) = (const { Rc::from_byte(C) }) else {
        return h_bad(ctx, ip);
    };
    macro_rules! goto {
        ($w:expr) => {{
            let w: u32 = $w;
            return Ok(if w == FALL { ip + 1 } else { w as usize });
        }};
    }
    let stream = ctx.code;
    ops::exec!(ctx, code, &stream[ip], goto);
    Ok(ip + 1)
}

fn h_bad(_: &mut Ctx<'_>, _: usize) -> Result<usize, Trap> {
    Err(Trap::host("invalid register opcode"))
}

fn h_return(ctx: &mut Ctx<'_>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    let n = ctx.func.result_slots as usize;
    if n != 0 && op.a != 0 {
        copy_regs(ctx, op.a as usize, 0, n);
    }
    match ctx.frames.pop() {
        None => Ok(DONE),
        Some(fr) => {
            ctx.cur_idx = fr.defined_idx;
            let f = flat(ctx.bodies, fr.defined_idx as usize);
            ctx.func = f;
            ctx.code = &f.code;
            ctx.at(fr.base as usize);
            Ok(fr.ret_ip as usize)
        }
    }
}

#[inline(always)]
fn call_guest(
    ctx: &mut Ctx<'_>,
    defined: u32,
    arg_base: u32,
    ret_ip: usize,
) -> Result<usize, Trap> {
    if ctx.frames.len() + ctx.inst.depth + 1 >= ctx.inst.limits.max_call_depth {
        return Err(Trap::StackExhausted);
    }
    // The first call of a function by anyone lowers it, for every
    // instance of the module — or traps, if it cannot be lowered.
    ctx.inst.bodies.body(defined as usize)?;
    let f = flat(ctx.bodies, defined as usize);
    let new_base = ctx.base + arg_base as usize;
    let need = new_base + f.frame_size as usize;
    if need > ctx.inst.limits.max_value_stack {
        return Err(Trap::StackExhausted);
    }
    if ctx.stack.len() < need {
        ctx.stack.resize(need, Slot::ZERO);
    }
    // The arena below `need` may hold stale slots from deeper earlier
    // calls; declared locals must start zeroed. Stack-temp registers need
    // no init (validation proves write-before-read).
    let (p, l) = (f.param_slots as usize, f.n_local_slots as usize);
    ctx.stack[new_base + p..new_base + l].fill(Slot::ZERO);
    ctx.frames.push(Frame {
        defined_idx: ctx.cur_idx,
        ret_ip: ret_ip as u32,
        base: ctx.base as u32,
    });
    ctx.cur_idx = defined;
    ctx.func = f;
    ctx.code = &f.code;
    ctx.at(new_base);
    Ok(0)
}

fn call_host(ctx: &mut Ctx<'_>, idx: u32, arg_base: u32) -> Result<(), Trap> {
    if ctx.frames.len() + ctx.inst.depth + 1 >= ctx.inst.limits.max_call_depth {
        return Err(Trap::StackExhausted);
    }
    let n = ctx.inst.host_arg_slots[idx as usize] as usize;
    let at = ctx.base + arg_base as usize;
    let args =
        ctx.stack.get(at..at + n).ok_or_else(|| Trap::host("host call arguments out of frame"))?;
    let host = &ctx.hosts[idx as usize];
    ctx.inst.depth += 1;
    let results = host(ctx.inst, args);
    ctx.inst.depth -= 1;
    // The host holds `&mut Instance`: it may have grown the memory or put
    // another one in its place.
    ctx.mem = ctx.inst.memory.as_mut_ptr();
    let results = results?;
    ctx.stack
        .get_mut(at..at + results.len())
        .ok_or_else(|| Trap::host("host call results out of frame"))?
        .copy_from_slice(&results);
    Ok(())
}

fn h_call_host(ctx: &mut Ctx<'_>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    call_host(ctx, op.a, op.b)?;
    Ok(ip + 1)
}

fn h_call_guest(ctx: &mut Ctx<'_>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    call_guest(ctx, op.a, op.b, ip + 1)
}

fn h_call_indirect(ctx: &mut Ctx<'_>, ip: usize) -> Result<usize, Trap> {
    let op = ctx.code[ip];
    let slot_idx = rg(ctx, op.c).u32();
    let func_idx = ctx.inst.resolve_indirect(slot_idx, op.a)?;
    if func_idx < ctx.imported {
        call_host(ctx, func_idx, op.b)?;
        Ok(ip + 1)
    } else {
        call_guest(ctx, func_idx - ctx.imported, op.b, ip + 1)
    }
}

/// `t[c] = op::<c>` for every code `c` a stream can hold among `$c` plus
/// any sum of the listed halvings.
macro_rules! fill {
    ($t:ident, $c:expr;) => {
        if Rc::from_byte($c as u8).is_some() {
            $t[$c] = op::<{ $c as u8 }>;
        }
    };
    ($t:ident, $c:expr; $half:tt $($rest:tt)*) => {
        fill!($t, $c; $($rest)*);
        fill!($t, $c + $half; $($rest)*);
    };
}

/// The dispatch table: one handler per opcode a register stream can hold
/// (everything [`Rc::from_byte`] decodes). Other slots hold [`h_bad`],
/// which only fires on memory corruption — the verifier admits no other
/// byte, and the chain-only codes never reach this table.
static HANDLERS: [Handler; 256] = {
    let mut t: [Handler; 256] = [h_bad; 256];
    fill!(t, 0; 128 64 32 16 8 4 2 1);
    t[Rc::Return as usize] = h_return;
    t[Rc::CallGuest as usize] = h_call_guest;
    t[Rc::CallIndirect as usize] = h_call_indirect;
    t[Rc::CallHost as usize] = h_call_host;
    t
};

/// Run register-form function `defined_idx`; its arguments are the top
/// `param_slots` entries of `stack`. On success the stack is truncated to
/// frame base + results and the result slot count returned.
pub(crate) fn run(
    inst: &mut Instance,
    stack: &mut Vec<Slot>,
    defined_idx: usize,
) -> Result<usize, Trap> {
    let jit = inst.jit.clone();
    let bodies = Arc::clone(&inst.bodies);
    let hosts = Arc::clone(&inst.host_funcs);
    let f = flat(bodies.cells(), defined_idx);
    let base = stack.len() - f.param_slots as usize;
    let need = base + f.frame_size as usize;
    if need > inst.limits.max_value_stack {
        return Err(Trap::StackExhausted);
    }
    // Zero-fills the declared locals (they sit right after the args).
    stack.resize(need, Slot::ZERO);
    let mut ctx = Ctx {
        frame: stack.as_mut_ptr().wrapping_add(base),
        mem: inst.memory.as_mut_ptr(),
        imported: inst.host_funcs.len() as u32,
        inst,
        stack,
        bodies: bodies.cells(),
        hosts: &hosts,
        frames: Vec::new(),
        func: f,
        code: &f.code,
        base,
        cur_idx: defined_idx as u32,
    };
    // Meteredness is resolved once per entry: the unmetered loop is the
    // exact pre-limits dispatch loop (no per-op comparison at all).
    match &jit {
        Some(jit) => run_jit(&mut ctx, jit)?,
        None if ctx.inst.metered() => dispatch_loop::<true>(&mut ctx)?,
        None => dispatch_loop::<false>(&mut ctx)?,
    }
    let (base, result_slots) = (ctx.base, ctx.func.result_slots as usize);
    stack.truncate(base + result_slots);
    Ok(result_slots)
}

/// The flat-tier dispatch loop. When `METERED`, backward control
/// transfers (loop iterations and calls, whose entry ip is 0) are the
/// fuel guard points; charging in batches of 1024 keeps the metered
/// loop's added cost to one comparison per op, and the unmetered
/// monomorphization compiles it out entirely.
#[inline(always)]
fn dispatch_loop<const METERED: bool>(ctx: &mut Ctx<'_>) -> Result<(), Trap> {
    let mut ip = 0usize;
    let mut guard_epoch = 0u32;
    loop {
        let opcode = ctx.code[ip].code as usize;
        let next = HANDLERS[opcode](ctx, ip)?;
        if next == DONE {
            return Ok(());
        }
        if METERED && next <= ip {
            guard_epoch += 1;
            if guard_epoch & 1023 == 0 {
                ctx.inst.fuel_step(1024)?;
            }
        }
        ip = next;
    }
}

/// The [`run`] loop variant for [`crate::tier::Tier::MaxJit`]: identical
/// dispatch, plus
///
/// * hotness accounting — one event per function entry/resume and one per
///   backward control transfer (loop iteration), so both hot call targets
///   and hot loops inside rarely-called functions promote;
/// * superblock chain entry — once a function is promoted, every ip that
///   heads a compiled superblock runs its chain ([`crate::closures::Chain::run`],
///   out of line) and the loop resumes interpretation at whatever ip the
///   chain bails or runs off at.
///
/// Chains never call or return (superblock discovery stops at calls and
/// `Return`), so the current-function tracking only changes across
/// interpreted ops. Kept out of line, like [`crate::closures::Chain::run`],
/// so its placement is one symbol `crates/bench/placement.sh` can read.
#[inline(never)]
fn run_jit(ctx: &mut Ctx<'_>, jit: &JitState) -> Result<(), Trap> {
    let mut cur = ctx.cur_idx;
    let mut chains = jit.bump(cur, ctx.func);
    let mut ip = 0usize;
    // Chain entries and guard exits are counted in locals on every call;
    // they reach the shared counters only when profiling is on.
    let (mut entered, mut exits) = (0u64, 0u64);
    // Chain re-entries and interpreted backward transfers are the fuel
    // guard points of this tier (in-chain loop backedges charge inside
    // `Chain::run` itself). Meteredness is resolved once per entry and
    // rides branches the loop already takes, so unlimited runs pay one
    // predictable test per backward transfer and nothing per op.
    let metered = ctx.inst.metered();
    let mut guard_epoch = 0u32;
    loop {
        if ctx.cur_idx != cur {
            // Interpreted call or return switched functions.
            cur = ctx.cur_idx;
            chains = jit.bump(cur, ctx.func);
        }
        if let Some(ch) = &chains {
            if let Some(chain) = ch.lookup(ip) {
                entered += 1;
                ip = if metered {
                    guard_epoch += 1;
                    if guard_epoch & 1023 == 0 {
                        ctx.inst.fuel_step(1024)?;
                    }
                    chain.run::<true>(ctx, &mut exits)?
                } else {
                    chain.run::<false>(ctx, &mut exits)?
                };
                continue;
            }
        }
        let opcode = ctx.code[ip].code as usize;
        let next = HANDLERS[opcode](ctx, ip)?;
        if next == DONE {
            break;
        }
        if next <= ip {
            if metered {
                guard_epoch += 1;
                if guard_epoch & 1023 == 0 {
                    ctx.inst.fuel_step(1024)?;
                }
            }
            if chains.is_none() && ctx.cur_idx == cur {
                chains = jit.bump(cur, ctx.func);
            }
        }
        ip = next;
    }
    if jit.profiling() {
        jit.flush(entered, exits);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every opcode a register stream can hold has a handler; every other
    /// byte — the chain-only codes included — has none.
    #[test]
    fn every_stream_opcode_has_a_handler() {
        for c in 0..=u8::MAX {
            let bad = HANDLERS[c as usize] as usize == h_bad as Handler as usize;
            assert_eq!(bad, Rc::from_byte(c).is_none(), "opcode byte {c}");
        }
    }
}

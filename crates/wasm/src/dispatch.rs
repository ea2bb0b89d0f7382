//! The outer loop of the flat tiers' one executor: [`run`] enters a
//! function's step program ([`crate::closures::Chain`]) and does the four
//! ops a program leaves for — `Return`, `CallGuest`, `CallIndirect` and
//! `CallHost`, which move between frames or (a host) may grow or replace
//! the memory. Every other op, branches and loops included, runs inside
//! [`crate::closures::Chain::run`]. A call re-enters the callee's program
//! at step 0; a return re-enters the caller's at the continuation step
//! kept in its [`Frame`]. Trapping paths return `Err` and unwind the Rust
//! way.
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

use crate::closures::{Chain, ChainStep};
use crate::error::Trap;
use crate::regalloc::{Rc, RegFunc, RegOp};
use crate::runtime::{HostFn, Instance, Slot};
use crate::tier::Bodies;

/// A suspended caller activation.
struct Frame {
    defined_idx: u32,
    /// The caller's continuation: the step after its call.
    ret_ip: u32,
    base: u32,
}

/// Execution context threaded through the outer loop and every step.
///
/// **Nothing [`crate::closures::Chain::run`]'s loop executes writes a
/// `Ctx`.** Only then can the compiler keep `frame` and `mem` in registers
/// for a whole program: one write — refreshing `mem` after `memory.grow`,
/// say — and every access reloads both from here. So the ops that move
/// `frame` or may move `mem` (calls, returns, host calls) leave the
/// program for [`run`]'s outer loop.
pub(crate) struct Ctx<'a> {
    pub(crate) inst: &'a mut Instance,
    stack: &'a mut Vec<Slot>,
    /// `stack.as_mut_ptr() + base`: register 0 of the current frame. Set
    /// wherever `base` or the arena's allocation changes ([`Ctx::at`]).
    frame: *mut Slot,
    /// The base of `inst.memory`, pinned by [`crate::runtime::Memory::grow`];
    /// re-read after each host call, which may replace the memory.
    mem: *mut u8,
    bodies: &'a Bodies,
    /// The instance's host functions, borrowed once per invocation.
    hosts: &'a [HostFn],
    frames: Vec<Frame>,
    pub(crate) func: &'a RegFunc,
    /// `func`'s step program.
    pub(crate) prog: &'a Chain,
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

/// Read register `r` of the current frame.
#[inline(always)]
pub(crate) fn rg(ctx: &Ctx<'_>, r: u32) -> Slot {
    debug_assert!(ctx.fresh() && ctx.base + (r as usize) < ctx.stack.len());
    // SAFETY: `regalloc::verify` proved every register operand (plus its
    // width) `< frame_size`, compiled or read back from an artifact; entry,
    // `call_guest` and `ret` set `frame` to `stack + base` after any
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

/// A run of guarded accumulates ([`Rc::LoadAddF64ShlKRun`]): the sum stays
/// in a machine register from the first element to the last, and is
/// written back at the end, or before the access out of bounds that stops
/// the run, whose address is the `Err` (the caller makes the trap, on its
/// cold path). Every element keeps the writes it made as a step of its
/// own: `t` to its `and` register, the loaded value to `w`, and the add in
/// its operand order (`acc + t`, [`add_f64`]). Inline in `Chain::run`: an
/// out-of-line body there read `is_np2` 3–4 % slower (ROADMAP item 2 (v)).
#[inline(always)]
pub(crate) fn accumulate(ctx: &mut Ctx<'_>, s: &ChainStep) -> Result<(), u64> {
    let prog = ctx.prog;
    let len = ctx.inst.memory.size_bytes();
    let scaled = rg(ctx, s.a()).i32().wrapping_shl(s.aux() as u32);
    let mut acc = rg(ctx, s.b()).f64();
    for e in prog.accs(s) {
        let t = rg(ctx, e.c).i32() & rg(ctx, e.x).i32();
        wr(ctx, e.and, Slot::from_i32(t));
        if t != 0 {
            let addr = scaled.wrapping_add(e.disp) as u32 as usize;
            if addr + 8 > len {
                wr(ctx, s.b(), Slot::from_f64(acc));
                return Err(addr as u64);
            }
            let v = Slot(u64::from_le_bytes(load(ctx, addr)));
            wr(ctx, s.w(), v);
            acc = add_f64(acc, v.f64());
        }
    }
    wr(ctx, s.b(), Slot::from_f64(acc));
    Ok(())
}

/// `acc + t` with `Baseline`'s NaN payload. Wasm leaves open which of two
/// NaN operands an add returns, and the differential suites hold `Max` to
/// `Baseline` bit for bit. x86's `addsd` keeps its destination's NaN, and
/// where the compiler optimizes, `Baseline`'s add (as the fused
/// `LoadAddF64ShlK` step's) goes into the register holding `t`, so `t`'s
/// survives; with `acc` held in a register across a run it would add into
/// `acc` (it may commute an `fadd`), so that build spells the instruction
/// out. An unoptimized build adds into the first operand everywhere.
#[inline(always)]
fn add_f64(acc: f64, t: f64) -> f64 {
    #[cfg(all(target_arch = "x86_64", not(debug_assertions)))]
    {
        let mut sum = t;
        // SAFETY: one register-to-register `addsd`: no memory, no stack,
        // no flags read; `pure` as the add it is.
        unsafe {
            std::arch::asm!("addsd {t}, {acc}", t = inout(xmm_reg) sum, acc = in(xmm_reg) acc,
                options(pure, nomem, nostack, preserves_flags));
        }
        sum
    }
    #[cfg(not(all(target_arch = "x86_64", not(debug_assertions))))]
    {
        acc + t
    }
}

/// `Return` from the current frame: its results to register 0, then the
/// caller's continuation step, or `None` when the outermost frame returns.
fn ret(ctx: &mut Ctx<'_>, op: RegOp) -> Option<usize> {
    let n = ctx.func.result_slots as usize;
    if n != 0 && op.a != 0 {
        copy_regs(ctx, op.a as usize, 0, n);
    }
    let fr = ctx.frames.pop()?;
    ctx.cur_idx = fr.defined_idx;
    (ctx.func, ctx.prog) = ctx.bodies.flat(fr.defined_idx as usize);
    ctx.at(fr.base as usize);
    Some(fr.ret_ip as usize)
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
    let (f, prog) = ctx.bodies.flat(defined as usize);
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
    (ctx.func, ctx.prog) = (f, prog);
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

/// Run register-form function `defined_idx`; its arguments are the top
/// `param_slots` entries of `stack`. On success the stack is truncated to
/// frame base + results and the result slot count returned.
pub(crate) fn run(
    inst: &mut Instance,
    stack: &mut Vec<Slot>,
    defined_idx: usize,
) -> Result<usize, Trap> {
    let bodies = Arc::clone(&inst.bodies);
    let hosts = Arc::clone(&inst.host_funcs);
    let (f, prog) = bodies.flat(defined_idx);
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
        bodies: &bodies,
        hosts: &hosts,
        frames: Vec::new(),
        func: f,
        prog,
        base,
        cur_idx: defined_idx as u32,
    };
    // Meteredness is resolved once per entry: the unmetered loops have no
    // fuel guards at all.
    if ctx.inst.metered() {
        steps::<true>(&mut ctx)?;
    } else {
        steps::<false>(&mut ctx)?;
    }
    let (base, result_slots) = (ctx.base, ctx.func.result_slots as usize);
    stack.truncate(base + result_slots);
    Ok(result_slots)
}

/// The outer loop: run the current program to its next return or call,
/// do that op, and re-enter the program it leaves current. When `METERED`,
/// guest calls are fuel guard points, beside the programs' backward
/// transfers, on one epoch charged in batches of 1024. Kept out of line,
/// like [`Chain::run`], so its placement is one symbol
/// `crates/bench/placement.sh` can read.
#[inline(never)]
fn steps<const METERED: bool>(ctx: &mut Ctx<'_>) -> Result<(), Trap> {
    let mut at = 0usize;
    let mut epoch = 0u32;
    loop {
        let prog = ctx.prog;
        // The step after the return or call `run` left at: a call's
        // continuation.
        let next = prog.run::<METERED>(ctx, at, &mut epoch)?;
        let op = prog.op(next - 1);
        at = match op.code {
            Rc::Return => match ret(ctx, op) {
                Some(at) => at,
                None => return Ok(()),
            },
            Rc::CallGuest => call_guest(ctx, op.a, op.b, next)?,
            Rc::CallHost => {
                call_host(ctx, op.a, op.b)?;
                next
            }
            _ => {
                let slot_idx = rg(ctx, op.c).u32();
                let func_idx = ctx.inst.resolve_indirect(slot_idx, op.a)?;
                if func_idx < ctx.imported {
                    call_host(ctx, func_idx, op.b)?;
                    next
                } else {
                    call_guest(ctx, func_idx - ctx.imported, op.b, next)?
                }
            }
        };
        if METERED && at == 0 {
            epoch += 1;
            if epoch & 1023 == 0 {
                ctx.inst.fuel_step(1024)?;
            }
        }
    }
}

//! The register executor reaches the current frame and linear memory
//! through two raw pointers kept in its context: the arena's data pointer
//! plus the frame base, and the memory's base. These are the programs that
//! would notice either pointer going stale — the arena reallocated by a
//! deep call, the memory grown inside a step program, grown or replaced by
//! a host import, a branch's unwind copy inside a loop. Each runs on every
//! tier and must leave exactly what `Baseline` leaves. A debug build
//! asserts the pointers fresh at every access; a release build (CI reruns
//! this file there) would read garbage instead, which the comparisons
//! catch.

use std::alloc::{GlobalAlloc, Layout, System};

use wasm_engine::dsl::{self, Var};
use wasm_engine::error::Trap;
use wasm_engine::instr::Instr as I;
use wasm_engine::regalloc::Rc;
use wasm_engine::runtime::{CompiledModule, Linker, Memory, Value};
use wasm_engine::tier::CompiledBody;
use wasm_engine::types::{BlockType, FuncType, Limits, ValType};
use wasm_engine::{Module, ModuleBuilder, Tier, PAGE_SIZE};

/// This binary's allocator: `System`, except that a reallocation always
/// moves (the default `GlobalAlloc::realloc`: allocate, copy, free) and a
/// freed block is overwritten first. So a pointer into a frame arena that
/// a call regrew reads garbage, not the bytes it left there — `System`
/// often grows a block in place, which would hide a stale pointer.
struct Moving;

// SAFETY: allocation and freeing are `System`'s; `dealloc` only writes to
// the block it is handed, before handing it back.
unsafe impl GlobalAlloc for Moving {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        ptr.write_bytes(0xa5, layout.size().min(1 << 20));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Moving = Moving;

/// What one call leaves behind: its result or trap, and linear memory.
type Outcome = (Result<Vec<Value>, Trap>, Vec<u8>);

/// `name(args)` on a fresh instance at `tier` with `linker`'s imports.
fn run(module: &Module, linker: &Linker, tier: Tier, name: &str, args: &[Value]) -> Outcome {
    let compiled = CompiledModule::compile(module.clone(), tier).unwrap();
    let mut inst = linker.instantiate(&compiled, Box::new(Vec::<Memory>::new())).unwrap();
    let out = inst.invoke(name, args);
    let mem = inst.memory.slice(0, inst.memory.size_bytes() as u32).unwrap().to_vec();
    (out, mem)
}

/// Every tier leaves what `Baseline` leaves; returns that result.
fn agree(module: &Module, linker: &Linker, name: &str, args: &[i32]) -> Result<Vec<Value>, Trap> {
    let args: Vec<Value> = args.iter().map(|&v| Value::I32(v)).collect();
    let want = run(module, linker, Tier::Baseline, name, &args);
    for tier in [Tier::Optimizing, Tier::Max] {
        let got = run(module, linker, tier, name, &args);
        assert_eq!(got.0, want.0, "{name}{args:?} at {tier}: result");
        assert!(got.1 == want.1, "{name}{args:?} at {tier}: memory differs");
    }
    want.0
}

fn i32s(n: usize) -> Vec<ValType> {
    vec![ValType::I32; n]
}

/// A recursion about 900 frames deep, each frame over 40 registers: the
/// 4 096-slot arena is reallocated (and, under [`Moving`], moved) several
/// times on the way down. Every
/// activation runs a loop before its
/// call and another after it, and then reads all its registers back — so
/// a frame pointer left aimed at the arena before a callee regrew it would
/// read the freed buffer.
#[test]
fn a_recursion_that_regrows_the_arena_reads_its_registers_after_each_return() {
    const LOCALS: i32 = 40;
    let mut b = ModuleBuilder::new();
    b.func("deep", i32s(1), i32s(1), |f| {
        let n = dsl::local(0, ValType::I32);
        let (i, t, r) =
            (Var::new(f, ValType::I32), Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let l: Vec<Var> = (0..LOCALS).map(|_| Var::new(f, ValType::I32)).collect();
        let mut body = vec![
            dsl::for_range(
                i,
                dsl::int(0),
                dsl::int(4),
                &[t.set(t.get() + i.get() * n.get() + dsl::int(1))],
            ),
            dsl::if_then(n.get().eq(dsl::int(0)), &[dsl::ret(Some(t.get()))]),
        ];
        body.extend((0..LOCALS).map(|k| l[k as usize].set(n.get() * dsl::int(k + 1) + t.get())));
        body.push(r.set(dsl::call(0, vec![n.get() + dsl::int(-1)], ValType::I32)));
        let tail = r.get() * dsl::int(3) + l[0].get() + l[LOCALS as usize - 1].get() + i.get();
        body.push(dsl::for_range(i, dsl::int(0), dsl::int(4), &[r.set(tail)]));
        let sum = l.iter().fold(r.get(), |acc, v| acc * dsl::int(5) + v.get());
        body.push(dsl::ret(Some(sum)));
        dsl::emit_block(f, &body);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    let linker = Linker::new();
    for depth in [0, 1, 5, 899] {
        let out = agree(&module, &linker, "deep", &[depth]);
        assert!(matches!(out.as_deref(), Ok([Value::I32(_)])), "deep({depth}): {out:?}");
    }
}

/// `memory.grow` runs as a step of a loop, and the same loop then stores
/// to and loads from the new page; on its last iteration it loads 4 bytes
/// at `probe`. Probing the last 4 bytes of the grown memory succeeds, one
/// byte further traps with `Baseline`'s trap: the bound is the live size,
/// not the size the program was entered with.
#[test]
fn memory_grown_inside_a_chain_is_reachable_to_its_last_byte() {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(3));
    // (n, probe)
    b.func("grow", i32s(2), i32s(1), |f| {
        let (n, probe) = (dsl::local(0, ValType::I32), dsl::local(1, ValType::I32));
        let (i, acc) = (Var::new(f, ValType::I32), Var::new(f, ValType::I32));
        let grow = dsl::Stmt::Raw(vec![I::I32Const(1), I::MemoryGrow, I::Drop]);
        let at = || dsl::int(PAGE_SIZE as i32) + i.get().shl(dsl::int(3));
        let body = [
            dsl::if_then(i.get().eq(dsl::int(1)), &[grow]),
            dsl::if_then(
                i.get().ge(dsl::int(1)),
                &[
                    dsl::store(at(), 4, i.get() * dsl::int(7) + acc.get()),
                    acc.set(acc.get() + at().load(ValType::I32, 4)),
                ],
            ),
            dsl::if_then(
                i.get().eq(n.get() + dsl::int(-1)),
                &[acc.set(acc.get() + probe.get().load(ValType::I32, 0))],
            ),
        ];
        dsl::emit_block(
            f,
            &[
                dsl::for_range(i, dsl::int(0), n.get(), &body),
                dsl::ret(Some(acc.get() + dsl::memory_size())),
            ],
        );
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    let linker = Linker::new();
    let end = 2 * PAGE_SIZE as i32;
    let out = agree(&module, &linker, "grow", &[6, end - 4]);
    assert!(out.is_ok(), "{out:?}");
    let out = agree(&module, &linker, "grow", &[6, end - 3]);
    let want = Trap::MemoryOutOfBounds { addr: end as u64 - 3, len: 4, memory_size: end as u64 };
    assert_eq!(out, Err(want));
}

/// Byte `j` of the memory a host import hands over after its `k`th call.
fn pattern(k: i32, j: usize) -> u8 {
    (j as u32).wrapping_mul(7).wrapping_add(k as u32 * 13 + 1) as u8
}

/// Two host imports that leave the guest a different memory: `grow(k)`
/// grows it by a page and fills the new page, `replace(k)` puts a fresh
/// two-page memory in its place (the old one is kept alive in the
/// instance's data, so the fresh one cannot reuse its address).
fn host_linker() -> Linker {
    let mut linker = Linker::new();
    let ty = FuncType::new(i32s(1), vec![]);
    linker.func("env", "grow", ty.clone(), |inst, args| {
        let old = inst.memory.size_bytes();
        assert_ne!(inst.memory.grow(1), -1, "grow past the declared maximum");
        let page = inst.memory.slice_mut(old as u32, PAGE_SIZE as u32)?;
        for (j, b) in page.iter_mut().enumerate() {
            *b = pattern(args[0].i32(), j);
        }
        Ok(vec![])
    });
    linker.func("env", "replace", ty, |inst, args| {
        let mut fresh = Memory::new(Limits::new(2, Some(2)));
        for (j, b) in fresh.slice_mut(0, 2 * PAGE_SIZE as u32)?.iter_mut().enumerate() {
            *b = pattern(args[0].i32(), j);
        }
        let old = std::mem::replace(&mut inst.memory, fresh);
        inst.data_mut::<Vec<Memory>>().unwrap().push(old);
        Ok(vec![])
    });
    linker
}

/// A loop that calls a host import and then loads what the
/// host left: the new page of a grown memory, or both pages of a memory
/// that replaced the one the loop started with.
#[test]
fn loads_after_a_host_call_read_the_memory_the_host_left() {
    let mut b = ModuleBuilder::new();
    let grow = b.import_func("env", "grow", i32s(1), vec![]);
    let replace = b.import_func("env", "replace", i32s(1), vec![]);
    b.memory(1, Some(8));
    type Expr = dsl::Expr;
    let page = |k: Expr| k * dsl::int(PAGE_SIZE as i32);
    // (n): for i in 0..n {
    //     acc += mem[8i]; grow(i); acc = acc * 31 + mem[page(i + 1) + 8i]
    // }
    b.func("after_grow", i32s(1), vec![ValType::I64], |f| {
        let n = dsl::local(0, ValType::I32);
        let (i, acc) = (Var::new(f, ValType::I32), Var::new(f, ValType::I64));
        let at = |base: Expr| (base + i.get().shl(dsl::int(3))).load(ValType::I64, 0);
        let body = [
            acc.set(acc.get() + at(dsl::int(0))),
            dsl::call_stmt(grow, vec![i.get()]),
            acc.set(acc.get() * dsl::long(31) + at(page(i.get() + dsl::int(1)))),
        ];
        dsl::emit_block(
            f,
            &[dsl::for_range(i, dsl::int(0), n.get(), &body), dsl::ret(Some(acc.get()))],
        );
    });
    // (n): for i in 0..n {
    //     acc += mem[8i]; replace(i); acc = acc * 31 + mem[8i] + mem[page(1) + 8i]
    // }
    b.func("after_replace", i32s(1), vec![ValType::I64], |f| {
        let n = dsl::local(0, ValType::I32);
        let (i, acc) = (Var::new(f, ValType::I32), Var::new(f, ValType::I64));
        let at = |base: Expr| (base + i.get().shl(dsl::int(3))).load(ValType::I64, 0);
        let body = [
            acc.set(acc.get() + at(dsl::int(0))),
            dsl::call_stmt(replace, vec![i.get()]),
            acc.set(acc.get() * dsl::long(31) + at(dsl::int(0)) + at(page(dsl::int(1)))),
        ];
        dsl::emit_block(
            f,
            &[dsl::for_range(i, dsl::int(0), n.get(), &body), dsl::ret(Some(acc.get()))],
        );
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    let linker = host_linker();
    let word = |k: i32, at: usize| u64::from_le_bytes(std::array::from_fn(|j| pattern(k, at + j)));
    let page = PAGE_SIZE;
    let mut want = 0u64;
    for i in 0..4 {
        want = want.wrapping_mul(31).wrapping_add(word(i, 8 * i as usize));
    }
    let out = agree(&module, &linker, "after_grow", &[4]);
    assert_eq!(out, Ok(vec![Value::I64(want as i64)]));
    let mut want = 0u64;
    for i in 0..4 {
        let at = 8 * i as usize;
        let before = if i == 0 { 0 } else { word(i - 1, at) };
        want = want.wrapping_add(before).wrapping_mul(31);
        want = want.wrapping_add(word(i, at)).wrapping_add(word(i, page + at));
    }
    let out = agree(&module, &linker, "after_replace", &[4]);
    assert_eq!(out, Ok(vec![Value::I64(want as i64)]));
}

/// Two blocks that carry a value out through a branch whose value sits
/// above the block's result register — an unwind copy — inside a loop
/// body: a `br` out of an `if` (taken when `i & mask`), and a `br_if`
/// (taken when not). The copy runs through the frame pointer, inside the
/// loop's program.
#[test]
fn a_chained_br_with_an_unwind_copy_agrees_with_baseline() {
    let mut b = ModuleBuilder::new();
    b.func("unwind", i32s(2), i32s(1), |f| {
        let (n, mask) = (0, 1);
        let (i, acc) = (f.local(ValType::I32), f.local(ValType::I32));
        let masked = [I::LocalGet(i), I::LocalGet(mask), I::I32And];
        f.emit(I::Loop(BlockType::Empty));
        // v = { 5; i * n; if i & mask { br i * 3 }; add }
        f.emit_all([I::Block(BlockType::Value(ValType::I32)), I::I32Const(5)]);
        f.emit_all([I::LocalGet(i), I::LocalGet(n), I::I32Mul]);
        f.emit_all(masked.clone()).emit(I::If(BlockType::Empty));
        f.emit_all([I::LocalGet(i), I::I32Const(3), I::I32Mul, I::Br(1), I::End]);
        f.emit_all([I::I32Add, I::End]);
        f.emit_all([I::LocalGet(acc), I::I32Const(7), I::I32Mul, I::I32Add, I::LocalSet(acc)]);
        // w = { 9; i * i; br_if !(i & mask); sub }
        f.emit_all([I::Block(BlockType::Value(ValType::I32)), I::I32Const(9)]);
        f.emit_all([I::LocalGet(i), I::LocalGet(i), I::I32Mul]);
        f.emit_all(masked).emit_all([I::I32Eqz, I::BrIf(0), I::I32Sub, I::End]);
        f.emit_all([I::LocalGet(acc), I::I32Add, I::LocalSet(acc)]);
        // i += 1; again while i < n
        f.emit_all([I::LocalGet(i), I::I32Const(1), I::I32Add, I::LocalTee(i), I::LocalGet(n)]);
        f.emit_all([I::I32LtS, I::BrIf(0), I::End, I::LocalGet(acc)]);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    // The `br` out of the `if` does copy its value down.
    let compiled = CompiledModule::compile(module.clone(), Tier::Max).unwrap();
    let CompiledBody::Flat(f) = compiled.bodies().unwrap()[0] else { panic!("flat body expected") };
    assert!(
        f.code.iter().any(|op| op.code == Rc::Br && op.imm != 0),
        "no unwind copy: {:?}",
        f.code
    );
    let linker = Linker::new();
    for (n, mask) in [(1, 0), (1, 1), (9, 0), (9, 1), (9, 2), (9, -1)] {
        let out = agree(&module, &linker, "unwind", &[n, mask]);
        assert!(out.is_ok(), "unwind({n}, {mask}): {out:?}");
    }
}

//! The front end touches each instruction once: `decode_module` sizes a
//! body before it fills it and `validate_module` allocates per module,
//! not per function, block or branch; a `Max` compile reuses the register
//! pipeline's buffers across functions. Gated on counts, not a clock: a
//! counting allocator tallies, per test thread, the allocations, the
//! reallocations that grow an `Instr`-aligned block, and the bytes live.
//!
//! The subject is the benchmark's cold-start module in miniature (the
//! `tests/op_counts.rs` builder): HPCG padded with 300 uncalled copies of
//! its own functions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hpc_benchmarks::imb::{self, ImbRoutine};
use hpc_benchmarks::{fig6, hpcg, ior, npb_dt, npb_is};
use wasm_engine::instr::Instr;
use wasm_engine::module::Module;
use wasm_engine::types::{BlockType, ValType};
use wasm_engine::runtime::CompiledModule;
use wasm_engine::{decode_module, encode_module, validate_module, ModuleBuilder, Tier};

#[derive(Clone, Copy)]
struct Tally {
    /// Calls to `alloc` / `alloc_zeroed`.
    allocs: u64,
    /// Calls to `realloc` that ask for more, on a block aligned like a
    /// `Vec<Instr>`'s buffer (the small vectors of locals and branch
    /// targets are 1- and 4-aligned and may still grow).
    body_grows: u64,
    /// Bytes allocated and not yet freed.
    live: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { allocs: 0, body_grows: 0, live: 0 }) };
}

fn tally(f: impl FnOnce(&mut Tally)) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = TALLY.try_with(|c| {
        let mut t = c.get();
        f(&mut t);
        c.set(t);
    });
}

struct CountingAlloc;

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(|t| {
            t.allocs += 1;
            t.live += layout.size() as i64;
        });
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(|t| {
            t.allocs += 1;
            t.live += layout.size() as i64;
        });
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(|t| {
            if new_size > layout.size() && layout.align() == std::mem::align_of::<Instr>() {
                t.body_grows += 1;
            }
            t.live += new_size as i64 - layout.size() as i64;
        });
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(|t| t.live -= layout.size() as i64);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What `f` added to this thread's tally, and what it returned.
fn counted<R>(f: impl FnOnce() -> R) -> (Tally, R) {
    let before = TALLY.with(Cell::get);
    let r = f();
    let after = TALLY.with(Cell::get);
    let spent = Tally {
        allocs: after.allocs - before.allocs,
        body_grows: after.body_grows - before.body_grows,
        live: after.live - before.live,
    };
    (spent, r)
}

fn small_hpcg() -> Vec<u8> {
    hpcg::build_guest(hpcg::HpcgParams { nx: 4, ny: 4, nz: 4, iters: 2 })
}

/// `wasm` carrying `copies` more copies of each of its functions.
fn padded(wasm: &[u8], copies: usize) -> Vec<u8> {
    let mut module = decode_module(wasm).unwrap();
    let own = module.functions.clone();
    for _ in 0..copies {
        module.functions.extend(own.iter().cloned());
    }
    encode_module(&module)
}

fn instructions(module: &Module) -> usize {
    module.functions.iter().map(|f| f.body.len()).sum()
}

#[test]
fn decode_allocates_per_function_and_never_grows_a_body() {
    let plain = small_hpcg();
    let wasm = padded(&plain, 300);
    let (fixed, _) = counted(|| decode_module(&plain).unwrap());
    let (spent, module) = counted(|| decode_module(&wasm).unwrap());
    let funcs = module.functions.len();
    assert!(funcs > 1200, "{funcs} functions");

    // A body and its locals; a third for a function with a `br_table` or
    // a `v128.const` would still pass, a vector per block would not.
    assert!(
        spent.allocs <= 3 * funcs as u64 + fixed.allocs,
        "{} allocations for {funcs} functions ({} for the sections of the plain module)",
        spent.allocs,
        fixed.allocs
    );
    assert_eq!(spent.body_grows, 0, "a body was reserved too small and grew");

    // What is left is the instructions at 16 bytes each, a `Function` and
    // its locals per function, and what the padding does not multiply
    // (types, import and export names, data segments: all of the plain
    // module's decode stands in for them) — no slack behind any body.
    let bound = 16 * instructions(&module) + 64 * funcs + fixed.live as usize;
    assert!(spent.live as usize <= bound, "{} bytes live, bound {bound}", spent.live);
    for f in &module.functions {
        assert_eq!(f.body.capacity(), f.body.len());
    }
}

#[test]
fn validation_allocates_per_module_not_per_function() {
    let plain = small_hpcg();
    let small = decode_module(&plain).unwrap();
    let large = decode_module(&padded(&plain, 300)).unwrap();
    let (of_small, _) = counted(|| validate_module(&small).unwrap());
    let (of_large, _) = counted(|| validate_module(&large).unwrap());
    // The 301 copies of each function reach the same stack depths, so the
    // reused stacks grow exactly as often; the function table is one
    // allocation at either size.
    assert!(
        of_large.allocs + of_large.body_grows <= of_small.allocs + of_small.body_grows + 2,
        "{} allocations for {} functions, {} for {}",
        of_large.allocs,
        large.functions.len(),
        of_small.allocs,
        small.functions.len()
    );
    assert_eq!(of_large.live, 0, "validate_module keeps nothing");
}

#[test]
fn every_guest_reencodes_to_the_bytes_it_was_decoded_from() {
    let imb = |routine| imb::build_guest(routine, &[(8, 4)]);
    let dt = |simd| npb_dt::build_guest(npb_dt::DtParams { simd, ..Default::default() });
    let mut both_boxed = ModuleBuilder::new();
    both_boxed.memory(1, None);
    both_boxed.func_private(vec![ValType::I32], vec![], |f| {
        f.block(BlockType::Empty).block(BlockType::Empty);
        f.local_get(0).br_table(vec![0, 1, 0], 1);
        f.end().end();
        f.emit(Instr::v128_const(*b"sixteen bytes...")).emit(Instr::Drop);
    });
    let guests = [
        ("hpcg", small_hpcg()),
        ("hpcg padded", padded(&small_hpcg(), 300)),
        ("npb_is", npb_is::build_guest(npb_is::IsParams::default())),
        ("npb_dt", dt(false)),
        ("npb_dt simd", dt(true)),
        ("imb pingpong", imb(ImbRoutine::PingPong)),
        ("imb allreduce", imb(ImbRoutine::Allreduce)),
        ("imb alltoall", imb(ImbRoutine::Alltoall)),
        ("imb bcast", imb(ImbRoutine::Bcast)),
        ("ior", ior::build_guest(ior::IorParams::default())),
        ("fig6", fig6::build_guest(&[64, 4096], 2)),
        ("br_table and v128.const", encode_module(&both_boxed.finish())),
    ];
    for (name, wasm) in guests {
        let module = decode_module(&wasm).unwrap_or_else(|e| panic!("{name}: {e}"));
        validate_module(&module).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(encode_module(&module) == wasm, "{name}: re-encoded bytes differ");
    }
}

#[test]
fn a_max_compile_allocates_a_few_times_per_function() {
    // Fresh thread: the register pipeline reuses its buffers from one
    // function to the next on a thread, so the count starts from none.
    let wasm = padded(&small_hpcg(), 300);
    let (spent, funcs) = std::thread::spawn(move || {
        let module = decode_module(&wasm).unwrap();
        let funcs = module.functions.len() as u64;
        let (spent, _) = counted(|| CompiledModule::compile(module, Tier::Max).unwrap());
        (spent, funcs)
    })
    .join()
    .unwrap();
    // 67 434 (56 per function) while the pipeline allocated its tables
    // per function, 9 980 while its fixpoint ran in rounds; what is left is
    // the translation's and the compiled module's own. A count that moves
    // either way updates this pin.
    assert_eq!(spent.allocs, 8_478, "{} allocations for {funcs} functions", spent.allocs);
}

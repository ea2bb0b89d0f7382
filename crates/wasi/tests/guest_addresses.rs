//! Guest pointers at the top of a full 4-GiB linear memory (65 536 pages):
//! the WASI imports compute every address in `u64` through
//! `Memory::guest_addr`, so a call whose data ends at the last byte
//! succeeds, and one that reaches past it traps `MemoryOutOfBounds` — in
//! debug builds (where `u32` arithmetic would panic) and in release builds
//! (where it would wrap to address 0) alike. CI runs this file in both.

use wasi_layer::host::wasi_is_data;
use wasi_layer::{register_wasi, SharedFs, WasiCtx};
use wasm_engine::error::Trap;
use wasm_engine::instr::Instr as I;
use wasm_engine::runtime::{CompiledModule, Instance, Linker, Value};
use wasm_engine::types::ValType;
use wasm_engine::{ModuleBuilder, Tier};

/// The first address past a 65 536-page memory.
const TOP: u64 = 1 << 32;

/// An instance whose export `call` passes its arguments to the WASI import
/// `name` and returns the errno.
fn instance(name: &str, params: usize, args: Vec<String>) -> Instance {
    let mut b = ModuleBuilder::new();
    b.memory(65536, None);
    let i32s = vec![ValType::I32; params];
    let import = b.import_func("wasi_snapshot_preview1", name, i32s.clone(), vec![ValType::I32]);
    b.func("call", i32s, vec![ValType::I32], |f| {
        f.emit_all((0..params as u32).map(I::LocalGet)).emit_all([I::Call(import)]);
    });
    let compiled = CompiledModule::compile(b.finish(), Tier::Max).unwrap();
    let mut linker = Linker::new();
    register_wasi(&mut linker, wasi_is_data);
    let ctx = WasiCtx::new(SharedFs::memory(), args);
    linker.instantiate(&compiled, Box::new(ctx)).unwrap()
}

fn call(inst: &mut Instance, args: &[u32]) -> Result<Vec<Value>, Trap> {
    let args: Vec<Value> = args.iter().map(|&a| Value::I32(a as i32)).collect();
    inst.invoke("call", &args)
}

/// The trap of a `len`-byte access at `at` in a full memory.
fn out_of_bounds(err: &Trap, at: u64, len: u64) -> bool {
    *err == Trap::MemoryOutOfBounds { addr: at, len, memory_size: TOP }
}

#[test]
fn args_get_may_end_at_the_last_byte() {
    let mut inst = instance("args_get", 2, vec!["ab".into()]);
    let buf = (TOP - 3) as u32; // "ab\0" fills the last three bytes
    assert_eq!(call(&mut inst, &[16, buf]), Ok(vec![Value::I32(0)]));
    assert_eq!(inst.memory.read_u32_at(16).unwrap(), buf);
    assert_eq!(inst.memory.slice(buf, 3).unwrap(), b"ab\0");
}

#[test]
fn args_get_past_the_last_byte_traps() {
    let mut inst = instance("args_get", 2, vec!["abc".into()]);
    let err = call(&mut inst, &[16, (TOP - 3) as u32]).unwrap_err();
    assert!(out_of_bounds(&err, TOP - 3, 4), "{err:?}");
}

#[test]
fn an_iov_array_past_the_last_byte_traps() {
    // Two iovs at 2^32 - 8: the second would start at 2^32, which `u32`
    // arithmetic wraps to address 0.
    let mut inst = instance("fd_write", 4, vec![]);
    let err = call(&mut inst, &[1, (TOP - 8) as u32, 2, 16]).unwrap_err();
    assert!(out_of_bounds(&err, TOP - 8, 16), "{err:?}");
    assert_eq!(inst.memory.read_u32_at(16).unwrap(), 0, "nothing written");
}

#[test]
fn a_prestat_past_the_last_byte_traps() {
    // Preopen fd 3 exists; its 8-byte prestat at 2^32 - 4 does not fit.
    let mut inst = instance("fd_prestat_get", 2, vec![]);
    let err = call(&mut inst, &[3, (TOP - 4) as u32]).unwrap_err();
    assert!(out_of_bounds(&err, TOP - 4, 8), "{err:?}");
    assert_eq!(inst.memory.read_u32_at(0).unwrap(), 0, "nothing written at the wrapped address");
}

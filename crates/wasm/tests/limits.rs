//! Guest resource limits: fuel, embedder interruption, the linear memory
//! growth cap, and the width of a function or block type — exercised on
//! every execution tier, since each tier has its own guard points
//! (interpreter instruction epochs, flat dispatch backward branches,
//! superblock chain backedges) and its own encoding of a branch's carried
//! values.

use std::sync::atomic::Ordering;
use std::time::Duration;

use wasm_engine::error::Trap;
use wasm_engine::runtime::{CompiledModule, Instance, Linker};
use wasm_engine::types::{BlockType, FuncType, ValType};
use wasm_engine::{ModuleBuilder, Tier, Value, PAGE_SIZE};

/// A module whose `spin` export loops forever.
fn spin_module() -> wasm_engine::Module {
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    b.func("spin", vec![], vec![], |f| {
        f.loop_(BlockType::Empty).br(0).end();
    });
    b.finish()
}

fn instantiate(tier: Tier) -> Instance {
    let compiled = CompiledModule::compile(spin_module(), tier).unwrap();
    // Force the superblock tier to compile chains immediately so the
    // in-chain backedge guard (not just the dispatch-loop guard) runs.
    compiled.set_jit_threshold(1);
    Linker::new().instantiate(&compiled, Box::new(())).unwrap()
}

#[test]
fn out_of_fuel_stops_an_infinite_loop_on_every_tier() {
    for tier in Tier::ALL {
        let mut inst = instantiate(tier);
        inst.set_fuel(50_000);
        let err = inst.invoke("spin", &[]).unwrap_err();
        assert_eq!(err, Trap::OutOfFuel, "tier {tier}");
        assert_eq!(inst.fuel_left(), 0, "tier {tier}");
    }
}

#[test]
fn interrupt_flag_stops_an_infinite_loop_on_every_tier() {
    for tier in Tier::ALL {
        let mut inst = instantiate(tier);
        let flag = inst.interrupt_handle();
        let timer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            flag.store(true, Ordering::Relaxed);
        });
        let err = inst.invoke("spin", &[]).unwrap_err();
        assert_eq!(err, Trap::Interrupted, "tier {tier}");
        timer.join().unwrap();
    }
}

#[test]
fn unlimited_fuel_charges_nothing() {
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    b.func("answer", vec![], vec![wasm_engine::types::ValType::I32], |f| {
        f.i32_const(42);
    });
    let compiled = CompiledModule::compile(b.finish(), Tier::Max).unwrap();
    let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
    assert_eq!(inst.invoke("answer", &[]).unwrap(), vec![Value::I32(42)]);
    assert_eq!(inst.fuel_left(), u64::MAX);
}

#[test]
fn fuel_persists_across_invocations_until_exhausted() {
    let mut inst = instantiate(Tier::Baseline);
    inst.set_fuel(200_000);
    assert_eq!(inst.invoke("spin", &[]).unwrap_err(), Trap::OutOfFuel);
    // The budget is spent; a fresh invocation fails immediately.
    assert_eq!(inst.invoke("spin", &[]).unwrap_err(), Trap::OutOfFuel);
    // Refueling makes the instance runnable again.
    inst.set_fuel(10_000);
    assert_eq!(inst.invoke("spin", &[]).unwrap_err(), Trap::OutOfFuel);
}

#[test]
fn memory_cap_converts_grow_into_failure() {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(64));
    b.func("grow_one", vec![], vec![wasm_engine::types::ValType::I32], |f| {
        f.i32_const(1).memory_grow();
    });
    let compiled = CompiledModule::compile(b.finish(), Tier::Max).unwrap();
    let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
    inst.cap_memory(2 * PAGE_SIZE as u64);
    // 1 -> 2 pages fits under the cap; the next grow fails with -1
    // exactly like exceeding the declared maximum.
    assert_eq!(inst.invoke("grow_one", &[]).unwrap(), vec![Value::I32(1)]);
    assert_eq!(inst.invoke("grow_one", &[]).unwrap(), vec![Value::I32(-1)]);
    assert_eq!(inst.memory.size_pages(), 2);
}

#[test]
fn memory_cap_never_shrinks_below_current_size() {
    let mut b = ModuleBuilder::new();
    b.memory(4, Some(64));
    b.func("noop", vec![], vec![], |_| {});
    let compiled = CompiledModule::compile(b.finish(), Tier::Max).unwrap();
    let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
    inst.cap_memory(PAGE_SIZE as u64); // below the current 4 pages
    assert_eq!(inst.memory.size_pages(), 4);
    assert_eq!(inst.memory.max_pages(), 4);
}

/// `wide() -> i32`: a block typed `[] -> [i32 × n]` pushes one junk
/// constant, then `0, 1, … n-1`, and leaves by `br 0` — the branch has to
/// carry `n` values down over the junk slot — after which the function
/// sums what the block left. Encodes, decodes and type-checks for any `n`.
fn wide_block_module(n: usize) -> wasm_engine::Module {
    let mut b = ModuleBuilder::new();
    let ty = b.type_idx(FuncType::new(vec![], vec![ValType::I32; n]));
    b.func("wide", vec![], vec![ValType::I32], |f| {
        f.block(BlockType::Func(ty)).i32_const(777);
        for i in 0..n {
            f.i32_const(i as i32);
        }
        f.br(0).end();
        for _ in 1..n {
            f.i32_add();
        }
    });
    b.finish()
}

#[test]
fn a_block_wider_than_the_type_limit_is_rejected_identically_on_every_tier() {
    // 70 000 carried values do not fit the flat tiers' 16-bit unwind arity:
    // they used to panic in `compile` (a host panic from module bytes)
    // while Baseline compiled the module. Now no tier calls it a module.
    let module = wide_block_module(70_000);
    let bytes = wasm_engine::encode_module(&module);
    let errors: Vec<String> = Tier::ALL
        .iter()
        .map(|&tier| {
            let module = wasm_engine::decode_module(&bytes).expect("decodes");
            match CompiledModule::compile(module, tier) {
                Ok(_) => panic!("tier {tier} compiled a 70 000-result block"),
                Err(e) => e.to_string(),
            }
        })
        .collect();
    assert!(errors[0].contains("more than 1000"), "{}", errors[0]);
    assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
}

#[test]
fn a_block_at_the_type_limit_runs_and_agrees_on_every_tier() {
    for tier in Tier::ALL {
        let compiled = CompiledModule::compile(wide_block_module(1000), tier).unwrap();
        compiled.set_jit_threshold(1);
        let mut inst = Linker::new().instantiate(&compiled, Box::new(())).unwrap();
        // 0 + 1 + … + 999: the junk 777 is unwound away, 999 is kept.
        assert_eq!(inst.invoke("wide", &[]).unwrap(), vec![Value::I32(499_500)], "tier {tier}");
    }
}

#[test]
fn a_body_longer_than_the_input_is_refused_before_anything_is_reserved() {
    // One function whose body claims 4 GiB and holds three bytes. Bodies
    // are reserved from the bytes in hand, after `sub_reader` has checked
    // the claim against them; reserving from the claim would be 64 GiB.
    let mut bytes = b"\x00asm\x01\x00\x00\x00".to_vec();
    bytes.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]); // type () -> ()
    bytes.extend_from_slice(&[3, 2, 1, 0]);
    bytes.extend_from_slice(&[10, 9, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0x01, 0x0b]);
    let err = wasm_engine::decode_module(&bytes).unwrap_err();
    assert!(err.message.contains("need 4294967295 bytes, only 3 left"), "{err}");
    assert_eq!(err.offset, bytes.len() - 3, "{err}");
}

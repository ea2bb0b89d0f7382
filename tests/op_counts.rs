//! Pins on how many register ops the flat tiers' shared pipeline leaves in
//! the guests' hot functions — the deterministic evidence behind the
//! benchmark's `kernel_s`: both executors run at a roughly fixed cost per
//! dispatched op, so time follows these counts. The guest builders are
//! the workload and stay untouched; a pin that has to rise is a mid-end
//! regression to explain, one that can fall is tightened.

use hpc_benchmarks::{hpcg, npb_is};
use wasm_engine::runtime::CompiledModule;
use wasm_engine::tier::CompiledBody;
use wasm_engine::{decode_module, Tier};

/// Register-op count and scratch-local count of every function of `wasm`
/// at `Tier::Max` (`MaxJit` executes the same stream).
fn reg_ops(wasm: &[u8]) -> Vec<(usize, u32)> {
    let compiled = CompiledModule::compile(decode_module(wasm).unwrap(), Tier::Max).unwrap();
    compiled
        .bodies()
        .iter()
        .map(|body| match body {
            CompiledBody::Flat(f) => (f.reg.code.len(), f.reg.scratch_slots),
            CompiledBody::Interp(_) => panic!("flat tier expected"),
        })
        .collect()
}

#[test]
fn hpcg_stencil_cell_stays_within_its_op_budget() {
    // The benchmark's problem. Function 1 is the SpMV: three loop headers
    // around one 27-point cell. 579 ops before the value-tracking mid-end;
    // 341 is what its local rewrites alone would leave, <= 200 needs the
    // boundary tests kept in scratch locals across the 26 neighbour blocks.
    let ops = reg_ops(&hpcg::build_guest(hpcg::HpcgParams {
        nx: 24,
        ny: 24,
        nz: 24,
        iters: 10,
    }));
    let (spmv, scratch) = ops[1];
    assert!(spmv <= 146, "SpMV is {spmv} register ops");
    assert!(
        (1..=16).contains(&scratch),
        "SpMV uses {scratch} scratch locals"
    );
    // The dot product has nothing to merge and must not grow.
    assert!(ops[2].0 <= 22, "dot is {} register ops", ops[2].0);
}

#[test]
fn npb_is_start_does_not_grow() {
    // Its loops are 7-13 ops per key already: nothing for the mid-end to
    // find, and nothing it may add.
    let ops = reg_ops(&npb_is::build_guest(npb_is::IsParams::default()));
    assert!(ops[0].0 <= 187, "IS _start is {} register ops", ops[0].0);
}

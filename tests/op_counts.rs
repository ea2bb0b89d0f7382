//! Pins on how many register ops the flat tiers' one pipeline leaves in
//! the guests' functions — the deterministic evidence behind the
//! benchmark's `kernel_s`: the register executor runs at a roughly fixed
//! cost per dispatched op, so time follows these counts. The guest builders are
//! the workload and stay untouched; a pin that has to rise is a mid-end
//! regression to explain, one that can fall is tightened.
//!
//! The last pin is on how many functions get lowered at all: a job run
//! from bytes lowers what it calls, however much the module carries.
//!
//! `Max` values were recorded at the last commit that still ran the
//! Op-level peepholes ahead of the register pipeline (PR 15): that the
//! register optimizer subsumes them is these counts not rising.

use hpc_benchmarks::imb::ImbRoutine;
use hpc_benchmarks::{fig6, hpcg, imb, ior, npb_dt, npb_is};
use wasm_engine::runtime::CompiledModule;
use wasm_engine::tier::CompiledBody;
use wasm_engine::{decode_module, encode_module, Tier};

/// Register-op count and scratch-local count of every function of `wasm`
/// at `tier` (`MaxJit` executes the `Max` stream).
fn reg_ops(wasm: &[u8], tier: Tier) -> Vec<(usize, u32)> {
    let compiled = CompiledModule::compile(decode_module(wasm).unwrap(), tier).unwrap();
    compiled
        .bodies()
        .unwrap()
        .into_iter()
        .map(|body| match body {
            CompiledBody::Flat(f) => (f.code.len(), f.scratch_slots),
            CompiledBody::Interp(_) => panic!("flat tier expected"),
        })
        .collect()
}

fn counts(wasm: &[u8], tier: Tier) -> Vec<usize> {
    reg_ops(wasm, tier).into_iter().map(|(ops, _)| ops).collect()
}

/// The benchmark's HPCG problem.
fn hpcg_guest() -> Vec<u8> {
    hpcg::build_guest(hpcg::HpcgParams { nx: 24, ny: 24, nz: 24, iters: 10 })
}

#[test]
fn hpcg_stencil_cell_stays_within_its_op_budget() {
    // Function 1 is the SpMV: three loop headers around one 27-point
    // cell. 579 ops before the value-tracking mid-end; 341 is what its
    // local rewrites alone would leave, <= 200 needs the boundary tests
    // kept in scratch locals across the 26 neighbour blocks.
    let ops = reg_ops(&hpcg_guest(), Tier::Max);
    let (spmv, scratch) = ops[1];
    assert!(spmv <= 141, "SpMV is {spmv} register ops");
    assert!(
        (1..=16).contains(&scratch),
        "SpMV uses {scratch} scratch locals"
    );
    assert!(ops[0].0 <= 38, "fn 0 is {} register ops", ops[0].0);
    // The dot product has nothing to merge and must not grow (22 until
    // its `if` tests fused into compare-and-branches).
    assert!(ops[2].0 <= 20, "dot is {} register ops", ops[2].0);
    assert!(ops[3].0 <= 109, "fn 3 is {} register ops", ops[3].0);
}

#[test]
fn npb_is_start_does_not_grow() {
    // Its loops are 7-13 ops per key already: nothing for the mid-end to
    // find, and nothing it may add.
    let ops = counts(&npb_is::build_guest(npb_is::IsParams::default()), Tier::Max);
    assert!(ops[0] <= 179, "IS _start is {} register ops", ops[0]);
}

#[test]
fn optimizing_streams_are_exactly_what_they_were() {
    // `Optimizing` is the register pipeline minus the adjacent-pair
    // fusions; nothing else may tell the tiers apart, and nothing that
    // changes `Max` alone may move it. (149 and 198 until a constant
    // factor, shift count or divisor became an immediate: those folds
    // belong to value tracking, which both flat tiers run, and the
    // constants they leave unread go.)
    assert_eq!(counts(&hpcg_guest(), Tier::Optimizing), [38, 144, 22, 117]);
    let is = npb_is::build_guest(npb_is::IsParams::default());
    assert_eq!(counts(&is, Tier::Optimizing), [193]);
}

#[test]
fn no_guest_is_larger_than_under_the_op_level_peepholes() {
    // Total register ops over all functions of every `crates/benchmarks`
    // guest at `Max`.
    let imb = |routine| imb::build_guest(routine, &[(8, 100)]);
    let guests = [
        ("hpcg", hpcg_guest(), 315),
        ("npb_is", npb_is::build_guest(npb_is::IsParams::default()), 186),
        ("npb_dt", npb_dt::build_guest(npb_dt::DtParams::default()), 110),
        (
            "npb_dt simd",
            npb_dt::build_guest(npb_dt::DtParams { simd: true, ..Default::default() }),
            136,
        ),
        ("imb pingpong", imb(ImbRoutine::PingPong), 64),
        ("imb allreduce", imb(ImbRoutine::Allreduce), 36),
        ("imb alltoall", imb(ImbRoutine::Alltoall), 37),
        ("imb bcast", imb(ImbRoutine::Bcast), 35),
        ("ior", ior::build_guest(ior::IorParams::default()), 146),
        ("fig6", fig6::build_guest(&fig6::figure6_sizes(), 20), 2116),
    ];
    for (name, wasm, parent_total) in guests {
        let total: usize = counts(&wasm, Tier::Max).iter().sum();
        assert!(total <= parent_total, "{name}: {total} register ops, {parent_total} before");
    }
}

#[test]
fn a_job_lowers_the_functions_it_reaches_and_no_others() {
    // The benchmark's cold-start module in miniature: HPCG carrying 300
    // unexported, uncalled copies of its own four functions. At np 1 the
    // job calls all four originals and nothing else, on every tier — a
    // start-up path that lowers on instantiate again shows here as 1204.
    // (A small grid: the count does not depend on the problem size.)
    let small = hpcg::build_guest(hpcg::HpcgParams { nx: 4, ny: 4, nz: 4, iters: 2 });
    let mut module = decode_module(&small).unwrap();
    let own = module.functions.clone();
    for _ in 0..300 {
        module.functions.extend(own.iter().cloned());
    }
    let wasm = encode_module(&module);
    let runner = mpiwasm::Runner::new();
    for tier in Tier::ALL {
        let (compiled, _) = runner.prepare(&wasm, tier).unwrap();
        assert_eq!(compiled.lowered_funcs(), 0, "{tier}: nothing lowered before the job");
        let job = runner
            .run_compiled(&compiled, mpiwasm::JobConfig { tier, ..Default::default() })
            .unwrap();
        assert!(job.success(), "{tier}: {:?}", job.ranks[0].error);
        assert_eq!(compiled.lowered_funcs(), own.len(), "{tier}: of {}", module.functions.len());
    }
}

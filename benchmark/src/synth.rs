//! The synthesized start-up module: an application-sized (600–700 KB,
//! paper Table 2 scale) Wasm binary whose decode → validate → compile →
//! instantiate cost dominates a job, built from real guest code.
//!
//! The base is the small HPCG guest; its exported `_start` is unchanged, so
//! the job still runs (and is verified as) that HPCG problem. Appended to
//! it are unexported functions, each a seeded draw from the function bodies
//! of the hpcg / npb_is / npb_dt guests, until the binary reaches the
//! target size, plus a seed-salted data segment so every seed has its own
//! cache key. All three guests declare the same import list, so call
//! indices of imports carry over; calls to a donor's own functions and all
//! type indices are remapped.

use hpc_benchmarks::hpcg::{self, HpcgParams};
use hpc_benchmarks::{npb_dt, npb_is};
use wasm_engine::module::{DataSegment, Function, Module};
use wasm_engine::types::{BlockType, FuncType};
use wasm_engine::{decode_module, encode_module, Instr};

use crate::stats::Rng;

/// The problem the synthesized module's `_start` solves.
pub const START_PARAMS: HpcgParams = HpcgParams {
    nx: 8,
    ny: 8,
    nz: 8,
    iters: 3,
};

/// Encoded size the generator grows the module to (it stops at the first
/// function that crosses it, so the result lands a few KB above).
const TARGET_BYTES: usize = 650_000;

/// A function of some donor guest, ready to be appended to the base.
struct Donor {
    function: Function,
    /// Encoded size this function adds to the module.
    cost: usize,
}

/// Build the module for `seed`. The same seed gives the same bytes.
pub fn synthesize(seed: u64) -> Vec<u8> {
    let mut module = decode_module(&hpcg::build_guest(START_PARAMS))
        .expect("the hpcg guest builder emits a decodable module");
    let base_size = encode_module(&module).len();
    let donors = collect_donors(&mut module);
    let anchors_size = encode_module(&module).len() - base_size;

    let mut rng = Rng::new(seed);
    let mut size = base_size + anchors_size;
    while size < TARGET_BYTES {
        let donor = &donors[rng.below(donors.len())];
        module.functions.push(donor.function.clone());
        size += donor.cost;
    }
    // Address 0..8 lies below every guest's scratch area and is never read.
    module.data.push(DataSegment {
        memory: 0,
        offset: 0,
        bytes: rng.next_u64().to_le_bytes().to_vec(),
    });
    encode_module(&module)
}

/// Gather every function the draw may pick, already remapped into the
/// base module's index spaces. Every function of a donor guest other than
/// the base is first appended once, so copied calls have a target.
fn collect_donors(base: &mut Module) -> Vec<Donor> {
    let n_imports = base.num_imported_funcs() as u32;
    let mut donors = Vec::new();

    // The base itself: indices already fit.
    let identity: Vec<u32> = (0..n_imports + base.functions.len() as u32).collect();
    let base_types = base.types.clone();
    for f in base.functions.clone() {
        donors.push(remapped(&f, &identity, &mut base.types, &base_types));
    }

    let others = [
        npb_is::build_guest(npb_is::IsParams::default()),
        npb_dt::build_guest(npb_dt::DtParams::default()),
        npb_dt::build_guest(npb_dt::DtParams {
            simd: true,
            ..Default::default()
        }),
    ];
    for bytes in others {
        let donor = decode_module(&bytes).expect("guest builders emit decodable modules");
        // Import call indices only carry over with an identical import
        // list; a guest that ever diverges is left out of the draw.
        if donor.imports != base.imports {
            continue;
        }
        // Imports map to themselves, the donor's functions to the copies
        // appended below (Wasm calls may point forward, so the map is
        // complete before anything is remapped).
        let first_copy = n_imports + base.functions.len() as u32;
        let map: Vec<u32> = (0..n_imports)
            .chain((0..donor.functions.len() as u32).map(|i| first_copy + i))
            .collect();
        for f in &donor.functions {
            let d = remapped(f, &map, &mut base.types, &donor.types);
            base.functions.push(d.function.clone());
            donors.push(d);
        }
    }
    donors
}

/// Copy `f` with function indices sent through `func_map` and type indices
/// re-interned from `donor_types` into `types`.
fn remapped(
    f: &Function,
    func_map: &[u32],
    types: &mut Vec<FuncType>,
    donor_types: &[FuncType],
) -> Donor {
    let mut intern = |idx: u32| -> u32 {
        let ty = &donor_types[idx as usize];
        match types.iter().position(|t| t == ty) {
            Some(pos) => pos as u32,
            None => {
                types.push(ty.clone());
                types.len() as u32 - 1
            }
        }
    };
    let remap_block = |bt: BlockType, intern: &mut dyn FnMut(u32) -> u32| match bt {
        BlockType::Func(idx) => BlockType::Func(intern(idx)),
        other => other,
    };
    let body = f
        .body
        .iter()
        .map(|instr| match instr {
            Instr::Call(idx) => Instr::Call(func_map[*idx as usize]),
            Instr::CallIndirect { type_idx, table } => Instr::CallIndirect {
                type_idx: intern(*type_idx),
                table: *table,
            },
            Instr::Block(bt) => Instr::Block(remap_block(*bt, &mut intern)),
            Instr::Loop(bt) => Instr::Loop(remap_block(*bt, &mut intern)),
            Instr::If(bt) => Instr::If(remap_block(*bt, &mut intern)),
            other => other.clone(),
        })
        .collect();
    let function = Function {
        type_idx: intern(f.type_idx),
        locals: f.locals.clone(),
        body,
    };
    let cost = function_cost(&function);
    Donor { function, cost }
}

/// Bytes one function adds to an encoded module: measured by encoding a
/// module that holds only it (body plus its function-section entry; the
/// few bytes of section-length growth are ignored).
fn function_cost(f: &Function) -> usize {
    let mut probe = Module {
        types: vec![FuncType::new(vec![], vec![])],
        ..Module::default()
    };
    let empty = encode_module(&probe).len();
    probe.functions.push(Function {
        type_idx: 0,
        ..f.clone()
    });
    encode_module(&probe).len() - empty
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiwasm::ModuleCache;
    use wasm_engine::{validate_module, Tier};

    #[test]
    fn same_seed_same_bytes_other_seed_other_key() {
        let a = synthesize(11);
        let b = synthesize(11);
        let c = synthesize(12);
        assert_eq!(a, b, "the generator must be deterministic in its seed");
        assert_ne!(a, c);
        assert_ne!(
            ModuleCache::key(&a, Tier::Max),
            ModuleCache::key(&c, Tier::Max)
        );
    }

    #[test]
    fn module_is_application_sized_and_valid() {
        for seed in [0, 1, 0xdead_beef] {
            let bytes = synthesize(seed);
            assert!(
                (600_000..=700_000).contains(&bytes.len()),
                "seed {seed}: {} bytes",
                bytes.len()
            );
            let module = decode_module(&bytes).unwrap();
            validate_module(&module).unwrap();
            // The entry point is still the base guest's.
            let base = decode_module(&hpcg::build_guest(START_PARAMS)).unwrap();
            assert_eq!(module.export("_start"), base.export("_start"));
            assert_eq!(module.exports.len(), base.exports.len());
            // More than one donor guest contributed.
            assert!(
                module.functions.len() > 100,
                "{} functions",
                module.functions.len()
            );
        }
    }
}

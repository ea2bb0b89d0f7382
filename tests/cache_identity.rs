//! "A hit runs what a miss compiled", as an identity rather than a timing:
//! for every guest of `crates/benchmarks` at every flat tier, loading the
//! stored artifact yields register code *equal* to what the compiler
//! produced, and a `Runner` with a cache directory reports a hit on the
//! second launch with the same rank reports.

use hpc_benchmarks::imb::ImbRoutine;
use hpc_benchmarks::{fig6, hpcg, imb, ior, npb_dt, npb_is};
use mpi_substrate::ClockMode;
use mpiwasm::cache::{load_artifact, store_artifact};
use mpiwasm::{JobConfig, Runner};
use netsim::{CostModel, SystemProfile};
use wasm_engine::regalloc::RegFunc;
use wasm_engine::runtime::CompiledModule;
use wasm_engine::tier::CompiledBody;
use wasm_engine::{decode_module, Tier};

const FLAT: [Tier; 3] = [Tier::Optimizing, Tier::Max, Tier::MaxJit];

/// The ten guests, small enough to run, with the ranks each needs.
fn guests() -> Vec<(&'static str, Vec<u8>, u32)> {
    let imb = |routine| imb::build_guest(routine, &[(8, 4)]);
    let dt = |simd| {
        npb_dt::build_guest(npb_dt::DtParams {
            elems: 16,
            topology: npb_dt::Topology::Shuffle,
            iters: 1,
            simd,
        })
    };
    vec![
        ("hpcg", hpcg::build_guest(hpcg::HpcgParams { nx: 4, ny: 4, nz: 4, iters: 2 }), 2),
        (
            "npb_is",
            npb_is::build_guest(npb_is::IsParams { keys_per_rank: 128, max_key: 256, iters: 1 }),
            2,
        ),
        ("npb_dt", dt(false), 2),
        ("npb_dt simd", dt(true), 2),
        ("imb pingpong", imb(ImbRoutine::PingPong), 2),
        ("imb allreduce", imb(ImbRoutine::Allreduce), 2),
        ("imb alltoall", imb(ImbRoutine::Alltoall), 2),
        ("imb bcast", imb(ImbRoutine::Bcast), 2),
        ("ior", ior::build_guest(ior::IorParams::default()), 1),
        ("fig6", fig6::build_guest(&[64, 4096], 2), 2),
    ]
}

fn flat_bodies(compiled: &CompiledModule) -> Vec<&RegFunc> {
    compiled
        .bodies()
        .unwrap()
        .into_iter()
        .map(|body| match body {
            CompiledBody::Flat(f) => f,
            CompiledBody::Interp(_) => panic!("flat tier expected"),
        })
        .collect()
}

#[test]
fn a_loaded_artifact_holds_the_code_that_was_compiled() {
    for (name, wasm, _) in guests() {
        for tier in FLAT {
            let compiled = CompiledModule::compile(decode_module(&wasm).unwrap(), tier).unwrap();
            let loaded = load_artifact(&store_artifact(&wasm, &compiled))
                .unwrap_or_else(|e| panic!("{name} at {tier}: {e}"));
            assert_eq!(loaded.tier(), tier);
            assert_eq!(flat_bodies(&loaded), flat_bodies(&compiled), "{name} at {tier}");
        }
    }
}

#[test]
fn a_cache_hit_reports_what_the_miss_reported() {
    let dir = std::env::temp_dir().join(format!("mpiwasm-cache-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let runner = Runner::new().with_cache(&dir).unwrap();
    // Virtual time, so that the seconds the guests report are the model's
    // and repeat exactly.
    let clock = ClockMode::Virtual(CostModel::native(SystemProfile::container()));
    for (name, wasm, np) in guests() {
        for tier in FLAT {
            let run = || {
                let result = runner
                    .run(&wasm, JobConfig { np, tier, clock: clock.clone(), ..Default::default() })
                    .unwrap_or_else(|e| panic!("{name} at {tier}: {e}"));
                assert!(result.success(), "{name} at {tier}");
                result
            };
            let (miss, hit) = (run(), run());
            assert!(!miss.cache_hit && hit.cache_hit, "{name} at {tier}");
            for (m, h) in miss.ranks.iter().zip(&hit.ranks) {
                assert_eq!(m.reports, h.reports, "{name} at {tier}: rank reports differ");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_artifact_does_not_depend_on_what_the_module_ran() {
    // A module whose functions are lowered on first call has lowered only
    // the ones its job reached; storing it lowers the rest, and what is
    // stored is what `compile` would have stored.
    let runner = Runner::new();
    for (name, wasm, np) in guests() {
        for tier in FLAT {
            let module = || decode_module(&wasm).unwrap();
            let compiled = CompiledModule::compile(module(), tier).unwrap();
            let deferred = CompiledModule::deferred(module(), tier).unwrap();
            assert_eq!(deferred.lowered_funcs(), 0, "{name} at {tier}");
            let result = runner
                .run_compiled(&deferred, JobConfig { np, tier, ..Default::default() })
                .unwrap_or_else(|e| panic!("{name} at {tier}: {e}"));
            assert!(result.success(), "{name} at {tier}");
            assert!(deferred.lowered_funcs() >= 1, "{name} at {tier}");
            assert_eq!(deferred.code_size(), compiled.code_size(), "{name} at {tier}");
            assert!(
                store_artifact(&wasm, &deferred) == store_artifact(&wasm, &compiled),
                "{name} at {tier}: artifacts differ"
            );
        }
    }
}

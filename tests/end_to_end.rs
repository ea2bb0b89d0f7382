//! Cross-crate integration tests: the full pipeline
//! DSL → Wasm bytes → decode/validate → tiered compile → embedder →
//! MPI substrate, exercised the way a user of the repository would.

use hpc_benchmarks::guest::{layout, MpiImports, MPI_DOUBLE, MPI_INT, MPI_SUM};
use hpc_benchmarks::{hpcg, imb, npb_dt, npb_is};
use mpi_substrate::ClockMode;
use mpiwasm::{JobConfig, Runner};
use netsim::{CostModel, SystemProfile};
use wasm_engine::dsl::*;
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder, Tier};

fn reports_value(r: &mpiwasm::RankResult, key: i32) -> f64 {
    r.reports.iter().find(|(k, _)| *k == key).map(|(_, v)| *v).unwrap()
}

/// Every benchmark guest completes under every tier at a small rank count.
#[test]
fn every_benchmark_under_every_tier() {
    let guests: Vec<(&str, Vec<u8>, u32)> = vec![
        ("imb-allreduce", imb::build_guest(imb::ImbRoutine::Allreduce, &[(128, 2)]), 2),
        (
            "hpcg",
            hpcg::build_guest(hpcg::HpcgParams { nx: 4, ny: 4, nz: 4, iters: 2 }),
            2,
        ),
        (
            "is",
            npb_is::build_guest(npb_is::IsParams {
                keys_per_rank: 128,
                max_key: 256,
                iters: 1,
            }),
            2,
        ),
        (
            "dt",
            npb_dt::build_guest(npb_dt::DtParams {
                elems: 16,
                topology: npb_dt::Topology::Shuffle,
                iters: 1,
                simd: true,
            }),
            2,
        ),
    ];
    let runner = Runner::new();
    for (name, wasm, np) in &guests {
        for tier in Tier::ALL {
            let result = runner
                .run(wasm, JobConfig { np: *np, tier, ..Default::default() })
                .unwrap_or_else(|e| panic!("{name} under {tier}: {e}"));
            assert!(
                result.success(),
                "{name} under {tier}: {:?}",
                result.ranks.iter().filter_map(|r| r.error.clone()).collect::<Vec<_>>()
            );
        }
    }
}

/// The same module bytes run under both system profiles (x86_64 HPC and
/// aarch64 Graviton2 models) — the portability claim of Figure 1.
#[test]
fn same_module_bytes_portable_across_system_profiles() {
    let wasm = imb::build_guest(imb::ImbRoutine::PingPong, &[(1024, 4)]);
    let runner = Runner::new();
    let mut times = Vec::new();
    for profile in [SystemProfile::supermuc_ng(), SystemProfile::graviton2()] {
        let result = runner
            .run(
                &wasm,
                JobConfig {
                    np: 2,
                    clock: ClockMode::Virtual(CostModel::native(profile)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(result.success());
        times.push(result.ranks[0].reports[0].1);
    }
    // Different interconnects give different timings for identical bytes.
    assert_ne!(times[0], times[1]);
}

/// Compile-through-cache: second launch of the same module hits the cache
/// and produces identical results.
#[test]
fn cache_hit_preserves_results() {
    let dir = std::env::temp_dir().join(format!("mpiwasm-e2e-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let runner = Runner::new().with_cache(&dir).unwrap();
    let wasm = imb::build_guest(imb::ImbRoutine::Bcast, &[(64, 2)]);

    let first = runner.run(&wasm, JobConfig { np: 2, ..Default::default() }).unwrap();
    assert!(!first.cache_hit);
    let second = runner.run(&wasm, JobConfig { np: 2, ..Default::default() }).unwrap();
    assert!(second.cache_hit, "second run must load the artifact");
    assert!(first.success() && second.success());
    assert_eq!(first.ranks[0].reports.len(), second.ranks[0].reports.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An out-of-bounds guest traps cleanly; the other ranks shut down and the
/// failure is reported per-rank rather than crashing the embedder.
#[test]
fn oob_guest_traps_cleanly() {
    let mut b = ModuleBuilder::new();
    b.memory(1, Some(1)); // 64 KiB only
    let mpi = MpiImports::declare(&mut b);
    b.func("_start", vec![], vec![], |f| {
        let sink = Var::new(f, ValType::I32);
        emit_block(f, &[
            mpi.init(),
            // Read far outside the single page.
            sink.set(int(10_000_000).load(ValType::I32, 0)),
            mpi.finalize(),
        ]);
    });
    let wasm = encode_module(&b.finish());
    let result = Runner::new().run(&wasm, JobConfig { np: 1, ..Default::default() }).unwrap();
    assert!(!result.success());
    let err = result.ranks[0].error.as_deref().unwrap();
    assert!(err.contains("out-of-bounds"), "{err}");
}

/// A module importing an unknown host function is rejected at
/// instantiation with a per-rank report, not a crash.
#[test]
fn unknown_import_rejected() {
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let mystery = b.import_func("env", "MPI_Not_A_Function", vec![], vec![]);
    b.func("_start", vec![], vec![], |f| {
        f.call(mystery);
    });
    let wasm = encode_module(&b.finish());
    let result = Runner::new().run(&wasm, JobConfig { np: 1, ..Default::default() }).unwrap();
    assert!(!result.success());
    assert!(result.ranks[0].error.as_deref().unwrap().contains("MPI_Not_A_Function"));
}

/// Derived communicators through the guest ABI: split into odd/even
/// sub-communicators and allreduce within each.
#[test]
fn comm_split_through_guest_abi() {
    let mut b = ModuleBuilder::new();
    b.memory(layout::PAGES, None);
    let mpi = MpiImports::declare(&mut b);
    b.func("_start", vec![], vec![], |f| {
        let rank = Var::new(f, ValType::I32);
        let sub = Var::new(f, ValType::I32);
        let mut stmts = vec![mpi.init()];
        stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
        stmts.extend([
            // split(world, color=rank%2, key=rank) -> handle at SCRATCH+16
            call_drop(
                mpi.comm_split,
                vec![int(0), rank.get() % int(2), rank.get(), int(layout::SCRATCH + 16)],
            ),
            sub.set(int(layout::SCRATCH + 16).load(ValType::I32, 0)),
            store(int(layout::SEND_BUF), 0, int(1)),
            // Allreduce on the sub-communicator.
            call_drop(
                mpi.allreduce,
                vec![
                    int(layout::SEND_BUF),
                    int(layout::RECV_BUF),
                    int(1),
                    int(MPI_INT),
                    int(MPI_SUM),
                    sub.get(),
                ],
            ),
            mpi.report(int(0), int(layout::RECV_BUF).load(ValType::I32, 0).to(ValType::F64)),
            // Free the derived communicator.
            store(int(layout::SCRATCH + 16), 0, sub.get()),
            call_drop(mpi.comm_free, vec![int(layout::SCRATCH + 16)]),
            mpi.finalize(),
        ]);
        emit_block(f, &stmts);
    });
    let wasm = encode_module(&b.finish());
    let result = Runner::new().run(&wasm, JobConfig { np: 6, ..Default::default() }).unwrap();
    assert!(result.success(), "{:?}", result.ranks[0].error);
    for r in &result.ranks {
        // Each parity class has 3 members.
        assert_eq!(reports_value(r, 0), 3.0, "rank {}", r.rank);
    }
}

/// Virtual-clock runs report simulated time through MPI_Wtime while real
/// runs report host time: the same guest distinguishes them only by scale.
#[test]
fn wtime_reflects_clock_mode() {
    let mut b = ModuleBuilder::new();
    b.memory(layout::PAGES, None);
    let mpi = MpiImports::declare(&mut b);
    b.func("_start", vec![], vec![], |f| {
        let t0 = Var::new(f, ValType::F64);
        emit_block(f, &[
            mpi.init(),
            t0.set(mpi.wtime()),
            // One 1 MiB bcast: ~100us simulated wire time.
            store(int(layout::SEND_BUF), 0, double(1.0)),
            mpi.bcast(int(layout::SEND_BUF), int(1 << 17), MPI_DOUBLE, int(0)),
            mpi.report(int(0), mpi.wtime() - t0.get()),
            mpi.finalize(),
        ]);
    });
    let wasm = encode_module(&b.finish());
    let runner = Runner::new();
    let sim = runner
        .run(
            &wasm,
            JobConfig {
                np: 2,
                clock: ClockMode::Virtual(CostModel::native(SystemProfile::supermuc_ng())),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(sim.success());
    let sim_t = reports_value(&sim.ranks[1], 0);
    // 1 MiB over ~12.5 GB/s ≈ 85-170us of simulated time.
    assert!(sim_t > 20e-6 && sim_t < 2e-3, "simulated {sim_t}s");
    assert!(sim.max_virtual_time_us() > 0.0);
}

/// Guest stdout flows back per rank through the WASI layer.
#[test]
fn guest_stdout_captured_per_rank() {
    let mut b = ModuleBuilder::new();
    b.memory(layout::PAGES, None);
    let mpi = MpiImports::declare(&mut b);
    let fd_write = b.import_func(
        "wasi_snapshot_preview1",
        "fd_write",
        vec![ValType::I32; 4],
        vec![ValType::I32],
    );
    b.data(512, b"hello from wasm\n".to_vec());
    b.func("_start", vec![], vec![], |f| {
        emit_block(f, &[
            mpi.init(),
            store(int(layout::IOV), 0, int(512)),
            store(int(layout::IOV), 4, int(16)),
            call_drop(fd_write, vec![int(1), int(layout::IOV), int(1), int(layout::SCRATCH)]),
            mpi.finalize(),
        ]);
    });
    let wasm = encode_module(&b.finish());
    let result = Runner::new().run(&wasm, JobConfig { np: 3, ..Default::default() }).unwrap();
    assert!(result.success());
    for r in &result.ranks {
        assert_eq!(r.stdout, "hello from wasm\n");
    }
}

/// Nonblocking operations through the guest ABI: post Irecv before the
/// matching Isend arrives, overlap "work", complete with Wait/Waitall,
/// and poll with Test.
#[test]
fn nonblocking_ring_exchange() {
    let mut b = ModuleBuilder::new();
    b.memory(layout::PAGES, None);
    let mpi = MpiImports::declare(&mut b);
    const REQS: i32 = 256; // two request handles
    b.func("_start", vec![], vec![], |f| {
        let rank = Var::new(f, ValType::I32);
        let size = Var::new(f, ValType::I32);
        let flag = Var::new(f, ValType::I32);
        let mut stmts = vec![mpi.init()];
        stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
        stmts.extend(mpi.load_size(layout::SCRATCH + 8, size));
        stmts.extend([
            // Post the receive first (from the left neighbour).
            call_drop(mpi.irecv, vec![
                int(layout::RECV_BUF), int(1), int(MPI_INT),
                (rank.get() + size.get() - int(1)) % size.get(),
                int(3), int(0), int(REQS),
            ]),
            // Test before anything was sent: in-flight requests may or may
            // not be ready, but the call itself must succeed.
            call_drop(mpi.test, vec![int(REQS), int(layout::SCRATCH + 32), int(0)]),
            // Send to the right neighbour.
            store(int(layout::SEND_BUF), 0, rank.get() * int(100)),
            call_drop(mpi.isend, vec![
                int(layout::SEND_BUF), int(1), int(MPI_INT),
                (rank.get() + int(1)) % size.get(),
                int(3), int(0), int(REQS + 4),
            ]),
            // Complete both with Waitall.
            call_drop(mpi.waitall, vec![int(2), int(REQS), int(0)]),
            mpi.report(
                int(0),
                int(layout::RECV_BUF).load(ValType::I32, 0).to(ValType::F64),
            ),
            // Waiting again on the nulled handles is a no-op.
            call_drop(mpi.wait, vec![int(REQS), int(0)]),
            flag.set(int(0)),
            mpi.finalize(),
        ]);
        let _ = flag;
        emit_block(f, &stmts);
    });
    let wasm = encode_module(&b.finish());
    let result = Runner::new().run(&wasm, JobConfig { np: 4, ..Default::default() }).unwrap();
    assert!(result.success(), "{:?}", result.ranks[0].error);
    for r in &result.ranks {
        let left = (r.rank + 3) % 4;
        assert_eq!(reports_value(r, 0), left as f64 * 100.0, "rank {}", r.rank);
    }
}

/// A valid guest with one function the flat tiers' register encoding
/// cannot express: its frame is one slot past the 24-bit register index
/// (`regalloc::MAX_REG`). From bytes that takes a 15-MB body — the decoder
/// stops at a million locals, the rest has to be operand stack — so the
/// locals are declared on the built module instead. `_start` calls the
/// function between `MPI_Init` and `MPI_Finalize` when `called`.
fn unlowerable_guest(called: bool) -> (wasm_engine::Module, u32) {
    const SLOTS: usize = 1 << 24;
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let mpi = MpiImports::declare(&mut b);
    let wide = b.func_private(vec![], vec![], |_| {});
    b.func("_start", vec![], vec![], |f| {
        let mut stmts = vec![mpi.init(), mpi.barrier_world()];
        if called {
            stmts.push(call_stmt(wide, vec![]));
        }
        stmts.push(mpi.finalize());
        emit_block(f, &stmts);
    });
    let mut module = b.finish();
    let defined = wide as usize - module.num_imported_funcs();
    module.functions[defined].locals = vec![ValType::V128; SLOTS / 2];
    (module, wide)
}

/// Lowering on first call moves a lowering failure from launch onto a rank
/// thread, where it has to be a trap: the same one on every rank that
/// reaches the function, naming it, with the job ending normally — and no
/// failure at all for a job that never calls it. `compile` still reports
/// it up front, as the cache path does.
#[test]
fn an_unlowerable_function_traps_its_callers_and_nobody_else() {
    use wasm_engine::runtime::CompiledModule;
    for tier in [Tier::Optimizing, Tier::Max, Tier::MaxJit] {
        let run = |module: wasm_engine::Module| {
            let deferred = CompiledModule::deferred(module, tier).unwrap();
            Runner::new()
                .run_compiled(&deferred, JobConfig { np: 2, tier, ..Default::default() })
                .unwrap()
        };
        let uncalled = run(unlowerable_guest(false).0);
        assert!(uncalled.success(), "{tier}: {:?}", uncalled.ranks[0].error);

        let (module, wide) = unlowerable_guest(true);
        let called = run(module.clone());
        assert_eq!(called.ranks.len(), 2, "{tier}: every rank is reported");
        let errors: Vec<&str> =
            called.ranks.iter().map(|r| r.error.as_deref().expect("rank trapped")).collect();
        assert_eq!(errors[0], errors[1], "{tier}");
        assert!(
            errors[0].contains(&format!("function {wide} cannot be lowered")),
            "{tier}: {}",
            errors[0]
        );

        // The forcing constructor names the same function, as an error.
        let err = CompiledModule::compile(module, tier).err().expect("compile refuses it");
        assert_eq!(err.func, Some(wide), "{tier}: {err}");
    }
}

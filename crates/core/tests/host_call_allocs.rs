//! A guest MPI call allocates nothing of its own: the engine passes a
//! host function's one result word back inline and borrows its host table
//! once per invocation. Gated on counts, not a clock: a counting allocator
//! tallies every allocation in the process, and each test takes the
//! difference between two jobs that differ only in how many calls they
//! make, so start-up, threads and compilation cancel out. Each side is the
//! least of three jobs: thread timing adds a few allocations to a job now
//! and then, which would otherwise make the larger job look cheaper.
//!
//! Returning each call's result in a fresh `Vec`, as `Linker::func` does,
//! costs one allocation per `MPI_Comm_rank` (exactly 1.0 per call at
//! every tier) and makes an 8-byte PingPong hop 2.0 instead of 0. The
//! substrate's own share of a hop was 2.0 while an eager payload was
//! always boxed and every receive built an entry; an 8-byte `MPI_Allreduce`
//! or `MPI_Alltoall` was 5.0 per call on each rank and an `MPI_Bcast` 3.0
//! while a collective's executor was boxed and its sends and receives
//! were vectors.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use mpiwasm::{handles, JobConfig, Runner};
use wasm_engine::dsl::*;
use wasm_engine::tier::Tier;
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The count is process-wide: one measurement at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocations made while running `wasm` as an `np`-rank job at `tier`.
fn allocs_of_job(wasm: &[u8], np: u32, tier: Tier) -> u64 {
    let runner = Runner::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = runner.run(wasm, JobConfig { np, tier, ..Default::default() }).unwrap();
    let spent = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(result.success(), "{:?}", result.ranks);
    spent
}

/// How many more allocations a job of `many` makes than one of `few`, each
/// the least of three runs. Where the extra calls allocate nothing, thread
/// timing alone can leave the larger job a few allocations below the
/// smaller one.
fn extra_allocs(few: &[u8], many: &[u8], np: u32, tier: Tier) -> i64 {
    let least = |wasm| (0..3).map(|_| allocs_of_job(wasm, np, tier)).min().unwrap();
    let (few, many) = (least(few), least(many));
    many as i64 - few as i64
}

/// `calls` calls of `MPI_Comm_rank(MPI_COMM_WORLD, &out)` in a loop.
fn comm_rank_loop(calls: i32) -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let comm_rank = b.import_func("env", "MPI_Comm_rank", vec![I32; 2], vec![I32]);
    b.func("_start", vec![], vec![], |f| {
        let i = Var::new(f, I32);
        let call = call_drop(comm_rank, vec![int(handles::MPI_COMM_WORLD), int(16)]);
        emit_block(f, &[for_range(i, int(0), int(calls), &[call])]);
    });
    encode_module(&b.finish())
}

/// `iters` round trips of 8 bytes between ranks 0 and 1 with blocking
/// `MPI_Send` / `MPI_Recv`: two hops each.
fn pingpong(iters: i32) -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let comm_rank = b.import_func("env", "MPI_Comm_rank", vec![I32; 2], vec![I32]);
    let send = b.import_func("env", "MPI_Send", vec![I32; 6], vec![I32]);
    let recv = b.import_func("env", "MPI_Recv", vec![I32; 7], vec![I32]);
    let (world, byte, ignore) =
        (handles::MPI_COMM_WORLD, handles::MPI_BYTE, handles::MPI_STATUS_IGNORE);
    b.func("_start", vec![], vec![], |f| {
        let (rank, i) = (Var::new(f, I32), Var::new(f, I32));
        let send_to = |peer: Expr| {
            call_drop(send, vec![int(64), int(8), int(byte), peer, int(0), int(world)])
        };
        let recv_from = |peer: Expr| {
            let args = vec![int(128), int(8), int(byte), peer, int(0), int(world), int(ignore)];
            call_drop(recv, args)
        };
        let round_trip = if_else(
            rank.get().eq(int(0)),
            &[send_to(int(1)), recv_from(int(1))],
            &[recv_from(int(0)), send_to(int(0))],
        );
        emit_block(f, &[
            call_drop(comm_rank, vec![int(world), int(16)]),
            rank.set(int(16).load(I32, 0)),
            for_range(i, int(0), int(iters), &[round_trip]),
        ]);
    });
    encode_module(&b.finish())
}

#[test]
fn a_host_call_allocates_nothing_at_any_tier() {
    let _serial = serial();
    const CALLS: i32 = 5_000;
    let (few, many) = (comm_rank_loop(CALLS), comm_rank_loop(2 * CALLS));
    for tier in Tier::ALL {
        // The first job of a process also pays for one-time set-up.
        allocs_of_job(&few, 1, tier);
        let extra = extra_allocs(&few, &many, 1, tier);
        assert!(
            extra < CALLS as i64 / 100,
            "{tier:?}: {CALLS} more MPI_Comm_rank calls made {extra} more allocations"
        );
    }
}

#[test]
fn a_pingpong_hop_allocates_nothing() {
    let _serial = serial();
    const ITERS: i32 = 5_000;
    let (few, many) = (pingpong(ITERS), pingpong(2 * ITERS));
    allocs_of_job(&few, 2, Tier::default());
    let extra = extra_allocs(&few, &many, 2, Tier::default());
    let per_hop = extra as f64 / (2 * ITERS) as f64;
    // The 8-byte payload travels inside its message, and a receive reuses
    // its rank's last entry or builds none; the queues the two ranks share
    // grow with how their threads interleave, which moves the count by a
    // few allocations per job, not per hop.
    assert!(per_hop < 0.01, "{per_hop:.3} allocations per hop ({extra} for {} hops)", 2 * ITERS);
}

/// `calls` calls of the collective `name(args…)` in a loop.
fn collective_loop(calls: i32, name: &str, args: &[i32]) -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    let collective = b.import_func("env", name, vec![I32; args.len()], vec![I32]);
    b.func("_start", vec![], vec![], |f| {
        let i = Var::new(f, I32);
        let call = call_drop(collective, args.iter().copied().map(int).collect());
        emit_block(f, &[for_range(i, int(0), int(calls), &[call])]);
    });
    encode_module(&b.finish())
}

#[test]
fn a_small_collective_call_allocates_nothing() {
    let _serial = serial();
    const CALLS: i32 = 5_000;
    use handles::{MPI_BYTE, MPI_COMM_WORLD, MPI_DOUBLE, MPI_SUM};
    let calls: [(&str, &[i32]); 3] = [
        // One f64 summed from 64 into 128.
        ("MPI_Allreduce", &[64, 128, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD]),
        // 8 bytes to each rank, from 64 into 128.
        ("MPI_Alltoall", &[64, 8, MPI_BYTE, 128, 8, MPI_BYTE, MPI_COMM_WORLD]),
        // 8 bytes at 64 from rank 0.
        ("MPI_Bcast", &[64, 8, MPI_BYTE, 0, MPI_COMM_WORLD]),
    ];
    for (name, args) in calls {
        let (few, many) = (collective_loop(CALLS, name, args), collective_loop(2 * CALLS, name, args));
        allocs_of_job(&few, 2, Tier::default());
        let extra = extra_allocs(&few, &many, 2, Tier::default());
        // Both ranks' allocations, per call: each rank thread runs the
        // collective in its last finished executor, vectors and all.
        let per_call = extra as f64 / CALLS as f64;
        assert!(per_call < 0.01, "{name}: {per_call:.3} allocations per call ({extra} for {CALLS})");
    }
}

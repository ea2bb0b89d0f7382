//! Runner-level fault tolerance: guest resource limits (fuel, deadline),
//! fault-plan injection, and the hang watchdog, all through the public
//! `JobConfig` surface.
//!
//! The invariant under test is the containment chain: a runaway or
//! crashed guest becomes a *failed rank* (never a hung job), its peers
//! observe `MPI_ERR_PROC_FAILED` (code 75) through the guest ABI with
//! errors-return semantics, and the diagnosis surfaces on `JobResult`.

use std::time::Duration;

use mpi_substrate::WatchdogConfig;
use mpiwasm::{handles, JobConfig, Runner};
use netsim::FaultPlan;
use wasm_engine::dsl::*;
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder};

const PROC_FAILED: i32 = 75; // MPI_ERR_PROC_FAILED

/// Rank 1 spins forever; every other rank blocks in `MPI_Recv` from rank
/// 1 and exits with the receive's return code.
fn spin_vs_recv_guest() -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.name("spin-vs-recv");
    b.memory(4, None);
    let init = b.import_func("env", "MPI_Init", vec![I32; 2], vec![I32]);
    let comm_rank = b.import_func("env", "MPI_Comm_rank", vec![I32; 2], vec![I32]);
    let recv = b.import_func("env", "MPI_Recv", vec![I32; 7], vec![I32]);
    let proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit", vec![I32], vec![]);
    b.func("_start", vec![], vec![], |f| {
        let rank = Var::new(f, ValType::I32);
        let code = Var::new(f, ValType::I32);
        emit_block(f, &[
            call_drop(init, vec![int(0), int(0)]),
            call_drop(comm_rank, vec![int(0), int(16)]),
            rank.set(int(16).load(ValType::I32, 0)),
            if_then(rank.get().eq(int(1)), &[
                while_loop(int(1), &[]), // runaway guest
            ]),
            code.set(call(
                recv,
                vec![int(64), int(4), int(handles::MPI_BYTE), int(1), int(0), int(0), int(0)],
                ValType::I32,
            )),
            call_stmt(proc_exit, vec![code.get()]),
        ]);
    });
    encode_module(&b.finish())
}

/// Every rank runs two barriers and exits with their OR-ed return codes.
fn two_barriers_guest() -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.name("two-barriers");
    b.memory(1, None);
    let init = b.import_func("env", "MPI_Init", vec![I32; 2], vec![I32]);
    let barrier = b.import_func("env", "MPI_Barrier", vec![I32], vec![I32]);
    let proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit", vec![I32], vec![]);
    b.func("_start", vec![], vec![], |f| {
        let code = Var::new(f, ValType::I32);
        emit_block(f, &[
            call_drop(init, vec![int(0), int(0)]),
            code.set(call(barrier, vec![int(0)], ValType::I32)),
            code.set(code.get().or(call(barrier, vec![int(0)], ValType::I32))),
            call_stmt(proc_exit, vec![code.get()]),
        ]);
    });
    encode_module(&b.finish())
}

/// Rank 0 blocks in a receive that can never be satisfied; rank 1 exits
/// immediately without sending.
fn starved_recv_guest() -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.name("starved-recv");
    b.memory(4, None);
    let init = b.import_func("env", "MPI_Init", vec![I32; 2], vec![I32]);
    let comm_rank = b.import_func("env", "MPI_Comm_rank", vec![I32; 2], vec![I32]);
    let recv = b.import_func("env", "MPI_Recv", vec![I32; 7], vec![I32]);
    let proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit", vec![I32], vec![]);
    b.func("_start", vec![], vec![], |f| {
        let rank = Var::new(f, ValType::I32);
        let code = Var::new(f, ValType::I32);
        emit_block(f, &[
            call_drop(init, vec![int(0), int(0)]),
            call_drop(comm_rank, vec![int(0), int(16)]),
            rank.set(int(16).load(ValType::I32, 0)),
            if_then(rank.get().eq(int(0)), &[
                code.set(call(
                    recv,
                    vec![int(64), int(4), int(handles::MPI_BYTE), int(1), int(0), int(0), int(0)],
                    ValType::I32,
                )),
                call_stmt(proc_exit, vec![code.get()]),
            ]),
            call_stmt(proc_exit, vec![int(0)]),
        ]);
    });
    encode_module(&b.finish())
}

/// Rank 0 posts an `Irecv` from rank 1 (which the fault plan kills) and
/// drives it with `MPI_Waitall`: the call must return code 75 with
/// errors-return semantics, null the guest's request handle, AND write
/// MPI_ERR_PROC_FAILED into the failed request's status MPI_ERROR word
/// (offset +8), as the Waitall contract pins. Exits with 75 when all
/// three hold.
fn waitall_after_crash_guest() -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.name("waitall-after-crash");
    b.memory(4, None);
    let init = b.import_func("env", "MPI_Init", vec![I32; 2], vec![I32]);
    let comm_rank = b.import_func("env", "MPI_Comm_rank", vec![I32; 2], vec![I32]);
    let irecv = b.import_func("env", "MPI_Irecv", vec![I32; 7], vec![I32]);
    let waitall = b.import_func("env", "MPI_Waitall", vec![I32; 3], vec![I32]);
    let barrier = b.import_func("env", "MPI_Barrier", vec![I32], vec![I32]);
    let proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit", vec![I32], vec![]);
    // Request handle word lives at 128; receive buffer at 64.
    b.func("_start", vec![], vec![], |f| {
        let rank = Var::new(f, ValType::I32);
        let code = Var::new(f, ValType::I32);
        emit_block(f, &[
            call_drop(init, vec![int(0), int(0)]),
            call_drop(comm_rank, vec![int(0), int(16)]),
            rank.set(int(16).load(ValType::I32, 0)),
            if_then(rank.get().eq(int(1)), &[
                // Dies at this barrier's entry (fault plan, call 2 after
                // the runner's one-call COMM_SELF split). Rank 0 never
                // barriers, so the crash MUST land here or the pair
                // deadlocks.
                call_drop(barrier, vec![int(0)]),
                call_stmt(proc_exit, vec![int(0)]),
            ]),
            call_drop(irecv, vec![
                int(64), int(4), int(handles::MPI_BYTE), int(1), int(0), int(0), int(128),
            ]),
            // Real status array at 192 (not MPI_STATUSES_IGNORE): the
            // failed request's MPI_ERROR word must be readable back.
            code.set(call(waitall, vec![int(1), int(128), int(192)], ValType::I32)),
            // The failed handle must have been rewritten to
            // MPI_REQUEST_NULL; report a distinct code if it was not.
            if_then(int(128).load(ValType::I32, 0).ne(int(handles::MPI_REQUEST_NULL)), &[
                call_stmt(proc_exit, vec![int(99)]),
            ]),
            // Status MPI_ERROR word (offset +8) carries the per-request
            // failure code, not a hardcoded success.
            if_then(int(192).load(ValType::I32, 8).ne(int(75)), &[
                call_stmt(proc_exit, vec![int(98)]),
            ]),
            call_stmt(proc_exit, vec![code.get()]),
        ]);
    });
    encode_module(&b.finish())
}

/// Rank 0 exchanges with rank 1 (which the fault plan kills) through
/// `MPI_Sendrecv` over a status pre-filled with a sentinel: the call must
/// return code 75 AND write it into the status MPI_ERROR word (offset
/// +8) — "every completion path", as docs/mpi_surface.md says. Exits with
/// 75 when both hold.
fn sendrecv_after_crash_guest() -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.name("sendrecv-after-crash");
    b.memory(4, None);
    let init = b.import_func("env", "MPI_Init", vec![I32; 2], vec![I32]);
    let comm_rank = b.import_func("env", "MPI_Comm_rank", vec![I32; 2], vec![I32]);
    let sendrecv = b.import_func("env", "MPI_Sendrecv", vec![I32; 12], vec![I32]);
    let barrier = b.import_func("env", "MPI_Barrier", vec![I32], vec![I32]);
    let proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit", vec![I32], vec![]);
    // Send buffer at 64, receive buffer at 128, status at 192.
    b.func("_start", vec![], vec![], |f| {
        let rank = Var::new(f, ValType::I32);
        let code = Var::new(f, ValType::I32);
        emit_block(f, &[
            call_drop(init, vec![int(0), int(0)]),
            call_drop(comm_rank, vec![int(0), int(16)]),
            rank.set(int(16).load(ValType::I32, 0)),
            if_then(rank.get().eq(int(1)), &[
                // Dies at this barrier's entry; rank 0 never barriers.
                call_drop(barrier, vec![int(0)]),
                call_stmt(proc_exit, vec![int(0)]),
            ]),
            store(int(192), 8, int(0x5e47)),
            code.set(call(
                sendrecv,
                vec![
                    int(64), int(4), int(handles::MPI_BYTE), int(1), int(0),
                    int(128), int(4), int(handles::MPI_BYTE), int(1), int(0),
                    int(0), int(192),
                ],
                ValType::I32,
            )),
            if_then(int(192).load(ValType::I32, 8).ne(int(75)), &[
                call_stmt(proc_exit, vec![int(98)]),
            ]),
            call_stmt(proc_exit, vec![code.get()]),
        ]);
    });
    encode_module(&b.finish())
}

#[test]
fn fuel_exhaustion_becomes_a_contained_rank_failure() {
    let result = Runner::new()
        .run(
            &spin_vs_recv_guest(),
            JobConfig { np: 2, max_fuel: Some(5_000_000), ..Default::default() },
        )
        .unwrap();
    let spinner = &result.ranks[1];
    assert_eq!(spinner.exit_code, -1);
    assert!(
        spinner.error.as_deref().unwrap_or("").contains("fuel"),
        "{:?}",
        spinner.error
    );
    // The blocked peer observes MPI_ERR_PROC_FAILED, not a hang.
    assert_eq!(result.ranks[0].exit_code, PROC_FAILED);
    assert!(result.ranks[0].error.is_none());
}

#[test]
fn deadline_interrupts_a_runaway_guest() {
    let result = Runner::new()
        .run(
            &spin_vs_recv_guest(),
            JobConfig {
                np: 2,
                deadline: Some(Duration::from_millis(300)),
                ..Default::default()
            },
        )
        .unwrap();
    let spinner = &result.ranks[1];
    assert!(
        spinner.error.as_deref().unwrap_or("").contains("interrupted"),
        "{:?}",
        spinner.error
    );
    // The peer either unblocked with code 75 or was itself interrupted
    // at a guard point after the failure propagated — contained either way.
    let peer = &result.ranks[0];
    assert!(
        peer.exit_code == PROC_FAILED || peer.error.is_some(),
        "rank 0 must not report clean success: {peer:?}"
    );
}

#[test]
fn injected_crash_surfaces_as_proc_failed_on_every_rank() {
    let result = Runner::new()
        .run(
            &two_barriers_guest(),
            JobConfig {
                np: 2,
                // Call 1 is the runner's COMM_SELF split (one allgather:
                // a collective's inner sends are not MPI calls); call 2 is
                // the guest's first barrier.
                fault: Some(FaultPlan::parse("seed=5;crash@call:rank=1,call=2").unwrap()),
                ..Default::default()
            },
        )
        .unwrap();
    // Both guests exit cleanly *with* the ULFM error code: the failure is
    // data, not a trap (MPI_ERRORS_RETURN semantics).
    for r in &result.ranks {
        assert_eq!(r.exit_code, PROC_FAILED, "rank {}: {:?}", r.rank, r.error);
        assert!(r.error.is_none(), "rank {}: {:?}", r.rank, r.error);
    }
    assert!(!result.success());
}

#[test]
fn waitall_nulls_handles_and_returns_proc_failed_after_crash() {
    let result = Runner::new()
        .run(
            &waitall_after_crash_guest(),
            JobConfig {
                np: 2,
                // Past the runner's one-call COMM_SELF split: rank 1 dies
                // at its first (and only) guest barrier.
                fault: Some(FaultPlan::parse("seed=6;crash@call:rank=1,call=2").unwrap()),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(
        result.ranks[0].exit_code, PROC_FAILED,
        "waitall must return 75 and null the handle: {:?}",
        result.ranks[0]
    );
}

#[test]
fn sendrecv_writes_proc_failed_into_the_status_after_crash() {
    let result = Runner::new()
        .run(
            &sendrecv_after_crash_guest(),
            JobConfig {
                np: 2,
                fault: Some(FaultPlan::parse("seed=7;crash@call:rank=1,call=2").unwrap()),
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(
        result.ranks[0].exit_code, PROC_FAILED,
        "sendrecv must return 75 and latch it in the status (98: it did not): {:?}",
        result.ranks[0].error
    );
}

#[test]
fn watchdog_report_lands_on_the_job_result() {
    let result = Runner::new()
        .run(
            &starved_recv_guest(),
            JobConfig {
                np: 2,
                watchdog: Some(WatchdogConfig::wall(Duration::from_millis(250))),
                ..Default::default()
            },
        )
        .unwrap();
    let report = result.watchdog_report.as_deref().expect("watchdog must fire");
    assert!(report.contains("rank 0"), "{report}");
    assert!(!result.success());
}

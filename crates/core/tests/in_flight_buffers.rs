//! A guest that breaks MPI's in-flight buffer rule cannot hurt the host.
//!
//! The embedder hands the substrate spans of linear memory
//! (`SendBuf::pinned` / `RecvBuf::pinned`) that stay referenced until the
//! request completes. MPI says the guest must leave them alone until then;
//! a guest that does not gets unspecified bytes delivered — and nothing
//! else: no trap, no host panic, no hang, right status counts. Growing
//! linear memory with a receive in flight moves nothing, so the bytes land
//! where the guest asked. Two ranks, real clock, every payload above the
//! eager threshold (a rendezvous: the peer reads or writes the span in
//! place), each job under the hang watchdog.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use mpi_substrate::WatchdogConfig;
use mpiwasm::{handles, JobConfig, Runner};
use wasm_engine::dsl::*;
use wasm_engine::types::ValType::I32;
use wasm_engine::{encode_module, Instr, ModuleBuilder};

/// 256 KiB: four times the real-clock eager threshold.
const BYTES: i32 = 256 << 10;
const WORDS: i32 = BYTES / 4;
const SBUF: i32 = 64 << 10;
const RBUF: i32 = SBUF + BYTES;
const STATUS: i32 = 256; // 20 bytes; the byte count is word 3
const REQ: i32 = 320;
const FLAG: i32 = 324;
const TAG: i32 = 5;
const WORLD: i32 = handles::MPI_COMM_WORLD;

/// What the guest exits with when a check fails.
const BAD_COUNT: i32 = 2;
const BAD_GROW: i32 = 3;
const BAD_BYTES: i32 = 4;

#[derive(Clone, Copy)]
enum Case {
    /// Rank 0 `MPI_Isend`s and rewrites the buffer until `MPI_Test` says
    /// done; rank 1 receives.
    ScribbledIsend,
    /// Both ranks `MPI_Iallreduce` and rewrite their send buffers until
    /// `MPI_Test` says done.
    ScribbledIallreduce,
    /// Rank 1 posts `MPI_Irecv`, grows its memory, then waits; rank 0
    /// sends a known pattern.
    GrowWithIrecvPending,
}

/// Word `i` of the pattern rank 0 sends in [`Case::GrowWithIrecvPending`].
fn pattern(i: Expr) -> Expr {
    i * int(0x9E37_79B1_u32 as i32) + int(17)
}

fn guest(case: Case) -> Vec<u8> {
    let (byte, int_type, sum) = (handles::MPI_BYTE, handles::MPI_INT, handles::MPI_SUM);
    let mut b = ModuleBuilder::new();
    b.name("in-flight-buffers");
    b.memory(16, Some(64));
    let mut import = |name: &str, params| b.import_func("env", name, vec![I32; params], vec![I32]);
    let (init, comm_rank) = (import("MPI_Init", 2), import("MPI_Comm_rank", 2));
    let (isend, send) = (import("MPI_Isend", 7), import("MPI_Send", 6));
    let (irecv, recv) = (import("MPI_Irecv", 7), import("MPI_Recv", 7));
    let iallreduce = import("MPI_Iallreduce", 7);
    let (test, wait) = (import("MPI_Test", 3), import("MPI_Wait", 2));
    let finalize = import("MPI_Finalize", 0);
    let proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit", vec![I32], vec![]);
    b.func("_start", vec![], vec![], |f| {
        use Instr::{I32Const, LocalSet, MemoryGrow};
        let [rank, i, pass, code] = [(); 4].map(|_| Var::new(f, I32));
        let word = |base: i32| int(base) + i.get() * int(4);
        let fail_unless = |ok: Expr, why: i32| if_then(ok.eqz(), &[code.set(int(why))]);
        let count_is_whole = || fail_unless(int(STATUS).load(I32, 12).eq(int(BYTES)), BAD_COUNT);
        let p2p = |buf: i32, peer: i32| vec![int(buf), int(BYTES), int(byte), int(peer), int(TAG)];
        let with = |mut args: Vec<Expr>, tail: &[i32]| {
            args.extend(tail.iter().map(|&a| int(a)));
            args
        };
        // Rewrite every byte of the send buffer until `MPI_Test` reports
        // the request done, then `MPI_Wait` it (on the nulled handle).
        let scribble_until_done = |start: Stmt| {
            vec![
                start,
                store(int(FLAG), 0, int(0)),
                while_loop(int(FLAG).load(I32, 0).eqz(), &[
                    pass.add_assign(int(1)),
                    for_range(i, int(0), int(WORDS), &[
                        store(word(SBUF), 0, i.get().xor(pass.get())),
                    ]),
                    call_drop(test, vec![int(REQ), int(FLAG), int(STATUS)]),
                ]),
                count_is_whole(),
                call_drop(wait, vec![int(REQ), int(STATUS)]),
            ]
        };
        let body = match case {
            Case::ScribbledIsend => vec![if_else(
                rank.get().eqz(),
                &scribble_until_done(call_drop(isend, with(p2p(SBUF, 1), &[WORLD, REQ]))),
                &[call_drop(recv, with(p2p(RBUF, 0), &[WORLD, STATUS])), count_is_whole()],
            )],
            Case::ScribbledIallreduce => {
                let args = [SBUF, RBUF, WORDS, int_type, sum, WORLD, REQ].map(int).to_vec();
                scribble_until_done(call_drop(iallreduce, args))
            }
            Case::GrowWithIrecvPending => vec![if_else(
                rank.get().eqz(),
                &[
                    for_range(i, int(0), int(WORDS), &[store(word(SBUF), 0, pattern(i.get()))]),
                    call_drop(send, with(p2p(SBUF, 1), &[WORLD])),
                ],
                &[
                    call_drop(irecv, with(p2p(RBUF, 0), &[WORLD, REQ])),
                    // 16 pages become 24; `memory.grow` returns the old size.
                    Stmt::Raw(vec![I32Const(8), MemoryGrow, LocalSet(pass.idx)]),
                    fail_unless(pass.get().eq(int(16)), BAD_GROW),
                    call_drop(wait, vec![int(REQ), int(STATUS)]),
                    count_is_whole(),
                    for_range(i, int(0), int(WORDS), &[fail_unless(
                        word(RBUF).load(I32, 0).eq(pattern(i.get())),
                        BAD_BYTES,
                    )]),
                ],
            )],
        };
        let head = [
            code.set(int(0)),
            call_drop(init, vec![int(0), int(0)]),
            call_drop(comm_rank, vec![int(WORLD), int(REQ)]),
            rank.set(int(REQ).load(I32, 0)),
        ];
        let tail = [call_drop(finalize, vec![]), call_stmt(proc_exit, vec![code.get()])];
        emit_block(f, &[&head[..], &body, &tail].concat());
    });
    encode_module(&b.finish())
}

/// Run `case` on two ranks; every rank must exit 0, with no trap, no
/// host panic and no watchdog report.
fn run(case: Case) {
    let wasm = guest(case);
    let config = JobConfig {
        np: 2,
        watchdog: Some(WatchdogConfig::wall(Duration::from_secs(60))),
        ..Default::default()
    };
    let result = catch_unwind(AssertUnwindSafe(|| Runner::new().run(&wasm, config)))
        .unwrap_or_else(|_| panic!("a host panic reached the launcher"))
        .expect("the generated guest is a valid module");
    assert_eq!(result.watchdog_report, None, "the job hung");
    for rank in &result.ranks {
        assert_eq!((rank.error.as_deref(), rank.exit_code), (None, 0), "rank {}", rank.rank);
    }
}

#[test]
fn a_send_buffer_rewritten_in_flight_hurts_no_one() {
    run(Case::ScribbledIsend);
}

#[test]
fn an_iallreduce_send_buffer_rewritten_in_flight_hurts_no_one() {
    run(Case::ScribbledIallreduce);
}

#[test]
fn a_receive_in_flight_survives_memory_grow() {
    run(Case::GrowWithIrecvPending);
}

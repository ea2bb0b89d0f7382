//! Hostile-guest suite, ABI leg (ROADMAP item 4b): every verb of the guest
//! ABI is called with adversarial integers, chosen *by the decoder kind of
//! each parameter* from the verb table itself, around an otherwise benign
//! call on one rank.
//!
//! The invariant: a guest integer is answered with an MPI error code or a
//! trap on that rank — never a panic reaching the launcher, never a hang.
//! Where the kind fixes the answer (`docs/mpi_surface.md` → *Argument
//! checking*) the sweep asserts it: an out-of-bounds out-pointer, status
//! or handle word traps; an out-of-bounds data buffer or input array is
//! `MPI_ERR_COUNT`; a bad handle is its class's error code.
//!
//! A verb the sweep has no benign call for is a failure, so a row cannot
//! be added to the table without being swept.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use mpi_substrate::WatchdogConfig;
use mpiwasm::mpi_host::{verbs, Kind, Verb};
use mpiwasm::{handles, JobConfig, Runner};
use wasm_engine::dsl::*;
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder};

// One 64-KiB page, never grown: `MEM_LEN` is the first invalid address.
const MEM_LEN: u32 = 65536;
const OUT: i32 = 256; // out words: OUT, OUT + 4, OUT + 8
const INDICES: i32 = 280; // MPI_Waitsome's index array
const REQ: i32 = 320; // a request handle word; also a one-element array
const MSG: i32 = 340; // a message handle word
const TYPE_WORD: i32 = 352; // holds the live derived datatype, 8
const GROUP_WORD: i32 = 360; // holds LIVE_GROUP
const COMM_WORD: i32 = 368; // holds the live dup'ed communicator, 2
const SCRATCH_WORD: i32 = 380; // the preamble's freed handles land here
const HOSTILE_WORD: i32 = 400; // a handle word the sweep fills
const STATUS: i32 = 512; // 20 bytes; also a one-element array
const SBUF: i32 = 1024;
const RBUF: i32 = 2048;
const ONE: i32 = 3072; // i32[1] = {1}
const ZERO: i32 = 3088; // i32[1] = {0}
const INT_TYPE: i32 = 3104; // i32[1] = {MPI_INT}
const ATTACH: i32 = 4096; // 1 KiB attach buffer
const HEAP: i32 = 8192; // what the guest's `malloc` returns

// Handles the preamble leaves behind: the first dynamic slot of each table
// is live, the second was created and freed.
const FREED_COMM: i32 = 3;
const FREED_TYPE: i32 = 9;
const LIVE_GROUP: i32 = 1;
const FREED_GROUP: i32 = 2;

const WORLD: i32 = handles::MPI_COMM_WORLD;
const BYTE: i32 = handles::MPI_BYTE;
const INT: i32 = handles::MPI_INT;
const SUM: i32 = handles::MPI_SUM;
const TAG: i32 = 7;

/// One step of a guest program.
#[derive(Clone, Debug)]
enum Step {
    Call(&'static str, Vec<i32>),
    Store(i32, i32),
}

fn call(name: &'static str, args: &[i32]) -> Step {
    Step::Call(name, args.to_vec())
}

/// Run before every case, so every table holds a live and a freed handle.
fn preamble() -> Vec<Step> {
    vec![
        call("MPI_Init", &[0, 0]),
        call("MPI_Comm_dup", &[WORLD, COMM_WORD]),
        call("MPI_Comm_dup", &[WORLD, SCRATCH_WORD]),
        call("MPI_Comm_free", &[SCRATCH_WORD]),
        call("MPI_Type_contiguous", &[2, INT, TYPE_WORD]),
        call("MPI_Type_commit", &[TYPE_WORD]),
        call("MPI_Type_contiguous", &[2, INT, SCRATCH_WORD]),
        call("MPI_Type_free", &[SCRATCH_WORD]),
        call("MPI_Comm_group", &[WORLD, GROUP_WORD]),
        call("MPI_Comm_group", &[WORLD, SCRATCH_WORD]),
        call("MPI_Group_free", &[SCRATCH_WORD]),
    ]
}

/// An eager self-send: the peer every waiting verb needs, at np 1.
fn self_send() -> Step {
    call("MPI_Send", &[SBUF, 4, BYTE, 0, TAG, WORLD])
}

fn irecv() -> Step {
    call("MPI_Irecv", &[RBUF, 4, BYTE, 0, TAG, WORLD, REQ])
}

/// The benign call of `name`: what must run first, and its arguments.
/// `None` is a verb the sweep does not know.
fn scenario(name: &str) -> Option<(Vec<Step>, Vec<i32>)> {
    let p2p = [SBUF, 4, BYTE, 0, TAG, WORLD];
    let recv = [RBUF, 4, BYTE, 0, TAG, WORLD];
    let two_bufs = [SBUF, 4, BYTE, RBUF, 4, BYTE];
    let alltoallv = [SBUF, ONE, ZERO, INT, RBUF, ONE, ZERO, INT, WORLD];
    let with = |head: &[i32], tail: &[i32]| [head, tail].concat();
    let matched = vec![self_send(), call("MPI_Mprobe", &[0, TAG, WORLD, MSG, 0])];
    let attached = vec![call("MPI_Buffer_attach", &[ATTACH, 1024])];
    let pending = vec![self_send(), irecv()];
    let persistent = vec![call("MPI_Send_init", &with(&p2p, &[REQ]))];
    let none = Vec::new;
    Some(match name {
        "MPI_Init" => (none(), vec![0, 0]),
        "MPI_Init_thread" => (none(), vec![0, 0, handles::MPI_THREAD_MULTIPLE, OUT]),
        "MPI_Finalize" | "MPI_Wtime" | "MPI_Wtick" => (none(), vec![]),
        "MPI_Initialized" | "MPI_Finalized" | "MPI_Query_thread" => (none(), vec![OUT]),
        "MPI_Comm_rank" | "MPI_Comm_size" | "MPI_Comm_dup" | "MPI_Comm_group" => {
            (none(), vec![WORLD, OUT])
        }
        "MPI_Abort" => (none(), vec![WORLD, 1]),
        "mpiwasm_stats" => (none(), vec![SBUF, 64]),
        "MPI_Get_processor_name" => (none(), vec![SBUF, OUT]),
        "MPI_Alloc_mem" => (none(), vec![16, 0, OUT]),
        "MPI_Free_mem" => (none(), vec![HEAP]),
        "MPI_Send" => (none(), p2p.to_vec()),
        "MPI_Isend" | "MPI_Issend" | "MPI_Send_init" => (none(), with(&p2p, &[REQ])),
        // Synchronous mode completes on the match: pre-post the receive.
        "MPI_Ssend" => (vec![irecv()], p2p.to_vec()),
        "MPI_Recv" => (vec![self_send()], with(&recv, &[STATUS])),
        "MPI_Irecv" | "MPI_Recv_init" => (none(), with(&recv, &[REQ])),
        "MPI_Sendrecv" => (none(), [&p2p[..5], &recv[..5], &[WORLD, STATUS]].concat()),
        "MPI_Bsend" => (attached, p2p.to_vec()),
        "MPI_Ibsend" => (attached, with(&p2p, &[REQ])),
        "MPI_Buffer_attach" => (none(), vec![ATTACH, 1024]),
        "MPI_Buffer_detach" => (attached, vec![OUT, OUT + 4]),
        "MPI_Iprobe" => (vec![self_send()], vec![0, TAG, WORLD, OUT, STATUS]),
        "MPI_Probe" => (vec![self_send()], vec![0, TAG, WORLD, STATUS]),
        "MPI_Improbe" => (vec![self_send()], vec![0, TAG, WORLD, OUT, MSG, STATUS]),
        "MPI_Mprobe" => (vec![self_send()], vec![0, TAG, WORLD, MSG, STATUS]),
        "MPI_Mrecv" => (matched, vec![RBUF, 4, BYTE, MSG, STATUS]),
        "MPI_Imrecv" => (matched, vec![RBUF, 4, BYTE, MSG, REQ]),
        "MPI_Cancel" | "MPI_Request_free" => (vec![irecv()], vec![REQ]),
        "MPI_Test_cancelled" => (none(), vec![STATUS, OUT]),
        "MPI_Start" => (persistent, vec![REQ]),
        "MPI_Startall" => (persistent, vec![1, REQ]),
        "MPI_Wait" => (pending, vec![REQ, STATUS]),
        "MPI_Waitall" => (pending, vec![1, REQ, STATUS]),
        "MPI_Waitany" => (pending, vec![1, REQ, OUT, STATUS]),
        "MPI_Waitsome" => (pending, vec![1, REQ, OUT, INDICES, STATUS]),
        "MPI_Test" => (pending, vec![REQ, OUT, STATUS]),
        "MPI_Testall" => (pending, vec![1, REQ, OUT, STATUS]),
        "MPI_Testany" => (pending, vec![1, REQ, OUT, OUT + 4, STATUS]),
        "MPI_Get_count" | "MPI_Get_elements" => (none(), vec![STATUS, BYTE, OUT]),
        "MPI_Type_size" => (none(), vec![INT, OUT]),
        "MPI_Type_contiguous" => (none(), vec![2, INT, OUT]),
        "MPI_Type_vector" => (none(), vec![2, 1, 2, INT, OUT]),
        "MPI_Type_create_struct" => (none(), vec![1, ONE, ZERO, INT_TYPE, OUT]),
        "MPI_Type_commit" | "MPI_Type_free" => (none(), vec![TYPE_WORD]),
        "MPI_Comm_split" => (none(), vec![WORLD, 0, 0, OUT]),
        "MPI_Comm_create" => (none(), vec![WORLD, LIVE_GROUP, OUT]),
        "MPI_Comm_free" => (none(), vec![COMM_WORD]),
        "MPI_Group_size" | "MPI_Group_rank" => (none(), vec![LIVE_GROUP, OUT]),
        "MPI_Group_incl" | "MPI_Group_excl" => (none(), vec![LIVE_GROUP, 1, ZERO, OUT]),
        "MPI_Group_free" => (none(), vec![GROUP_WORD]),
        "MPI_Barrier" => (none(), vec![WORLD]),
        "MPI_Ibarrier" => (none(), vec![WORLD, REQ]),
        "MPI_Bcast" => (none(), vec![RBUF, 4, BYTE, 0, WORLD]),
        "MPI_Ibcast" => (none(), vec![RBUF, 4, BYTE, 0, WORLD, REQ]),
        "MPI_Reduce" => (none(), vec![SBUF, RBUF, 1, INT, SUM, 0, WORLD]),
        "MPI_Ireduce" => (none(), vec![SBUF, RBUF, 1, INT, SUM, 0, WORLD, REQ]),
        "MPI_Allreduce" => (none(), vec![SBUF, RBUF, 1, INT, SUM, WORLD]),
        "MPI_Iallreduce" => (none(), vec![SBUF, RBUF, 1, INT, SUM, WORLD, REQ]),
        "MPI_Gather" | "MPI_Scatter" => (none(), with(&two_bufs, &[0, WORLD])),
        "MPI_Igather" | "MPI_Iscatter" => (none(), with(&two_bufs, &[0, WORLD, REQ])),
        "MPI_Allgather" | "MPI_Alltoall" => (none(), with(&two_bufs, &[WORLD])),
        "MPI_Iallgather" | "MPI_Ialltoall" => (none(), with(&two_bufs, &[WORLD, REQ])),
        "MPI_Alltoallv" => (none(), alltoallv.to_vec()),
        "MPI_Ialltoallv" => (none(), with(&alltoallv, &[REQ])),
        _ => return None,
    })
}

/// A guest that runs `steps` and exits with the last call's return code.
fn guest(table: &[Verb], steps: &[Step]) -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.name("hostile-abi");
    b.memory(1, Some(1));
    let imports: HashMap<&str, (u32, ValType)> = table
        .iter()
        .map(|v| {
            let idx = b.import_func("env", v.name, vec![I32; v.params.len()], vec![v.result]);
            (v.name, (idx, v.result))
        })
        .collect();
    let proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit", vec![I32], vec![]);
    b.data(ONE, 1i32.to_le_bytes().to_vec());
    b.data(INT_TYPE, INT.to_le_bytes().to_vec());
    b.func("malloc", vec![I32], vec![I32], |f| emit_block(f, &[ret(Some(int(HEAP)))]));
    b.func("free", vec![I32], vec![], |_f| {});
    b.func("_start", vec![], vec![], |f| {
        let code = Var::new(f, I32);
        let mut body = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Store(addr, value) => body.push(store(int(*addr), 0, int(*value))),
                Step::Call(name, args) => {
                    let (idx, result) = imports[name];
                    let args: Vec<Expr> = args.iter().map(|a| int(*a)).collect();
                    if i + 1 == steps.len() && result == I32 {
                        body.push(code.set(wasm_engine::dsl::call(idx, args, I32)));
                    } else {
                        body.push(call_drop(idx, args));
                    }
                }
            }
        }
        body.push(call_stmt(proc_exit, vec![code.get()]));
        emit_block(f, &body);
    });
    encode_module(&b.finish())
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Code(i32),
    Trap(String),
    /// A host panic reached the launcher.
    Panic(String),
    /// The watchdog had to break the job up.
    Hang,
}

fn run(runner: &Runner, table: &[Verb], steps: &[Step]) -> Outcome {
    let wasm = guest(table, steps);
    let config = JobConfig {
        np: 1,
        // The hang tripwire: it shuts the world down, which also unparks
        // a rank blocked inside a host call.
        watchdog: Some(WatchdogConfig {
            poll_interval: Duration::from_millis(1),
            ..WatchdogConfig::wall(Duration::from_millis(400))
        }),
        ..Default::default()
    };
    let result = match catch_unwind(AssertUnwindSafe(|| runner.run(&wasm, config))) {
        Ok(result) => result.expect("the generated guest is a valid module"),
        Err(panic) => {
            let text = panic.downcast_ref::<String>().cloned();
            let text = text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
            return Outcome::Panic(text.unwrap_or_default());
        }
    };
    if result.watchdog_report.is_some() {
        return Outcome::Hang;
    }
    match &result.ranks[0].error {
        Some(trap) => Outcome::Trap(trap.clone()),
        None => Outcome::Code(result.ranks[0].exit_code),
    }
}

/// What a case must end in, beyond "no panic, no hang".
#[derive(Clone, Copy, Debug)]
enum Expect {
    OutOfBoundsTrap,
    Code(i32),
    /// One of these codes.
    Codes(&'static [i32]),
    /// Any code but success; not a trap.
    ErrorCode,
    /// Any code; not a trap.
    AnyCode,
    Anything,
}

impl Expect {
    fn admits(self, outcome: &Outcome) -> bool {
        match (self, outcome) {
            (_, Outcome::Panic(_) | Outcome::Hang) => false,
            (Expect::Anything, _) => true,
            (Expect::OutOfBoundsTrap, Outcome::Trap(t)) => t.contains("out-of-bounds memory"),
            (Expect::Code(want), Outcome::Code(got)) => want == *got,
            (Expect::Codes(want), Outcome::Code(got)) => want.contains(got),
            (Expect::ErrorCode, Outcome::Code(got)) => *got != 0,
            (Expect::AnyCode, Outcome::Code(_)) => true,
            _ => false,
        }
    }
}

const ERR_COUNT: i32 = 2;
const ERR_TYPE: i32 = 3;
const ERR_COMM: i32 = 5;
const ERR_RANK: i32 = 6;
const ERR_OP: i32 = 9;

/// The adversarial values of one parameter, by its kind, with what each
/// must end in. A `Some(word)` value goes into [`HOSTILE_WORD`], which the
/// parameter then points at.
fn hostile(verb: &str, kind: Kind) -> Vec<(i32, Option<i32>, Expect)> {
    let out_of_bounds = [MEM_LEN - 1, MEM_LEN, 0xFFFF_FFFC, 0xFFFF_FFFF].map(|p| p as i32);
    let direct = |values: &[i32], e: Expect| values.iter().map(|v| (*v, None, e)).collect();
    let pointed = |words: &[(i32, Expect)]| -> Vec<(i32, Option<i32>, Expect)> {
        words.iter().map(|(w, e)| (HOSTILE_WORD, Some(*w), *e)).collect()
    };
    // MPI_Abort traps whatever it is given.
    let handle = |code: i32| if verb == "MPI_Abort" { Expect::Anything } else { Expect::Code(code) };
    match kind {
        Kind::Buf => direct(&out_of_bounds, Expect::Code(ERR_COUNT)),
        Kind::OutPtr | Kind::StatusPtr => direct(&out_of_bounds, Expect::OutOfBoundsTrap),
        Kind::HandlePtr => [
            direct(&out_of_bounds, Expect::OutOfBoundsTrap),
            pointed(&[
                (-7, Expect::AnyCode),
                (i32::MIN, Expect::AnyCode),
                (9999, Expect::ErrorCode),
            ]),
        ]
        .concat(),
        Kind::ArrayPtr => [
            direct(&out_of_bounds, Expect::Code(ERR_COUNT)),
            pointed(&[(-7, Expect::AnyCode), (i32::MIN, Expect::AnyCode), (9999, Expect::AnyCode)]),
        ]
        .concat(),
        // A negative completion-array length is an empty array.
        Kind::Count => direct(&[-1, i32::MIN, i32::MAX], Expect::Codes(&[0, ERR_COUNT])),
        Kind::Datatype => direct(&[-7, i32::MIN, 9999, FREED_TYPE], handle(ERR_TYPE)),
        Kind::Comm => direct(&[-7, i32::MIN, 9999, FREED_COMM], handle(ERR_COMM)),
        Kind::Group => direct(&[-7, i32::MIN, 9999, FREED_GROUP], handle(ERR_COMM)),
        Kind::Op => direct(&[-7, i32::MIN, 9999], handle(ERR_OP)),
        Kind::Rank => direct(&[-2, 1, i32::MAX], Expect::Code(ERR_RANK)),
        // Every `i32` is a tag, and a receive that no message matches
        // blocks by rights: the waiting verbs keep their tag.
        Kind::Tag if ["MPI_Recv", "MPI_Sendrecv", "MPI_Probe", "MPI_Mprobe"].contains(&verb) => {
            Vec::new()
        }
        Kind::Tag => direct(&[i32::MIN, i32::MAX], Expect::Anything),
        Kind::Int => direct(&[-1, i32::MIN, i32::MAX], Expect::Anything),
    }
}

struct Case {
    label: String,
    steps: Vec<Step>,
    expect: Expect,
}

/// The benign call of every verb, then each parameter's hostile values
/// substituted one at a time.
fn cases(table: &[Verb]) -> Vec<Case> {
    let mut cases = Vec::new();
    for verb in table {
        let (setup, args) = scenario(verb.name)
            .unwrap_or_else(|| panic!("{}: the sweep has no benign call for this verb", verb.name));
        assert_eq!(args.len(), verb.params.len(), "{}: benign call arity", verb.name);
        let program = |store: Option<Step>, args: Vec<i32>| {
            let mut steps = preamble();
            steps.extend(setup.iter().cloned());
            steps.extend(store);
            steps.push(Step::Call(verb.name, args));
            steps
        };
        let benign = match verb.name {
            "MPI_Abort" => Expect::Anything,
            "mpiwasm_stats" => Expect::Code(64), // the bytes it wrote
            _ => Expect::Code(0),
        };
        cases.push(Case {
            label: format!("{}(benign)", verb.name),
            steps: program(None, args.clone()),
            expect: benign,
        });
        for (i, kind) in verb.params.iter().enumerate() {
            for (value, word, expect) in hostile(verb.name, *kind) {
                let mut args = args.clone();
                args[i] = value;
                let store = word.map(|w| Step::Store(HOSTILE_WORD, w));
                cases.push(Case {
                    label: format!("{}(#{i} {kind:?} = {value:#x} -> {word:?})", verb.name),
                    steps: program(store, args),
                    expect,
                });
            }
        }
    }
    cases
}

#[test]
fn every_verb_survives_adversarial_arguments() {
    let table = verbs();
    assert_eq!(table.len(), 82, "a verb was added or removed: update docs/mpi_surface.md too");
    let cases = cases(&table);
    // A fixed enumeration, split over a few threads; the whole sweep runs
    // under a wall-clock tripwire of its own.
    let (tx, rx) = mpsc::channel();
    let workers = 4;
    let total = cases.len();
    let cases = std::sync::Arc::new(cases);
    for worker in 0..workers {
        let (tx, cases) = (tx.clone(), std::sync::Arc::clone(&cases));
        std::thread::spawn(move || {
            let (runner, table) = (Runner::new(), verbs());
            for case in cases.iter().skip(worker).step_by(workers) {
                let outcome = run(&runner, &table, &case.steps);
                if !case.expect.admits(&outcome) {
                    let _ = tx.send(format!("{}: {:?}, wanted {:?}", case.label, outcome, case.expect));
                }
            }
        });
    }
    drop(tx);
    let mut failures = Vec::new();
    loop {
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(failure) => failures.push(failure),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("the sweep itself hung"),
        }
    }
    assert!(failures.is_empty(), "{} of {total} cases:\n{}", failures.len(), failures.join("\n"));
}

/// The defect this suite was written against: guest pointers near
/// `u32::MAX` met `ptr + 12`, `ptr + i * 4`, `ptr + i * STATUS_SIZE` in
/// plain `u32` — a host panic in debug builds, a wrapped address (and
/// `MPI_SUCCESS` with data read from low memory) in release builds. Every
/// one must be an out-of-bounds trap, in both profiles.
#[test]
fn pointers_near_u32_max_trap() {
    let (runner, table) = (Runner::new(), verbs());
    let pending = [self_send(), irecv()];
    for high in [0xFFFF_FFE0u32, 0xFFFF_FFEC, 0xFFFF_FFF4, 0xFFFF_FFF8, 0xFFFF_FFFF] {
        let high = high as i32;
        let calls = [
            (&[][..], call("MPI_Get_count", &[high, INT, OUT])),
            (&[][..], call("MPI_Get_elements", &[high, INT, OUT])),
            (&[][..], call("MPI_Test_cancelled", &[high, OUT])),
            (&pending[..1], call("MPI_Recv", &[RBUF, 4, BYTE, 0, TAG, WORLD, high])),
            (&pending[..], call("MPI_Wait", &[REQ, high])),
            (&pending[..], call("MPI_Waitall", &[1, REQ, high])),
            (&pending[..], call("MPI_Testall", &[1, REQ, OUT, high])),
        ];
        for (setup, hostile_call) in calls {
            let steps = [&preamble()[..], setup, std::slice::from_ref(&hostile_call)].concat();
            let outcome = run(&runner, &table, &steps);
            assert!(
                Expect::OutOfBoundsTrap.admits(&outcome),
                "{hostile_call:?}: {outcome:?}, wanted an out-of-bounds trap"
            );
        }
    }
    // The same arithmetic on a handle: `handle - FIRST_DERIVED_DATATYPE`
    // used to be computed before the range check.
    let steps = [
        &preamble()[..],
        &[Step::Store(HOSTILE_WORD, i32::MIN), call("MPI_Type_commit", &[HOSTILE_WORD])],
    ]
    .concat();
    assert_eq!(run(&runner, &table, &steps), Outcome::Code(ERR_TYPE));
}

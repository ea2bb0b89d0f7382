//! Shared by the collective suites: deterministic payloads, the naive
//! oracles every schedule is compared against, and a single-thread
//! interpreter that runs all `p` schedules of one collective over plain
//! `Vec<u8>` buffers and per-pair FIFO queues.
#![allow(dead_code)]

use std::collections::{HashMap, VecDeque};

use mpi_substrate::datatype::{reduce_in_place, reduce_into};
use mpi_substrate::schedule::{Buf, Schedule, Span, Step};
use mpi_substrate::{Datatype, ReduceOp};

/// Deterministic byte `j` of rank `r`'s contribution.
pub fn cell(r: u32, j: usize) -> u8 {
    (r as usize * 131 + j * 29 + 17) as u8
}

/// Rank `r`'s `len`-byte contribution.
pub fn contribution(r: u32, len: usize) -> Vec<u8> {
    (0..len).map(|j| cell(r, j)).collect()
}

/// Rank `me`'s alltoall send buffer: byte `j` of the block from `src` to
/// `dst` is `cell(src * p + dst, j)`, unique per direction.
pub fn alltoall_send(me: u32, p: u32, block: usize) -> Vec<u8> {
    (0..p).flat_map(|dst| contribution(me * p + dst, block)).collect()
}

/// Allgather (and the root's gather) result: the contributions in rank
/// order.
pub fn gathered(sends: &[Vec<u8>]) -> Vec<u8> {
    sends.concat()
}

/// Rank `me`'s alltoall result: block `me` of every rank's send buffer,
/// in rank order.
pub fn transposed(sends: &[Vec<u8>], me: usize, block: usize) -> Vec<u8> {
    sends.iter().flat_map(|s| s[me * block..(me + 1) * block].to_vec()).collect()
}

/// Elementwise reduction of the contributions, folded in rank order.
/// Bit-exact for every schedule on the integer types (their operators are
/// associative and commutative); on floats only up to rounding.
pub fn reduced(sends: &[Vec<u8>], dt: Datatype, op: ReduceOp) -> Vec<u8> {
    let mut acc = sends[0].clone();
    for s in &sends[1..] {
        reduce_in_place(dt, op, &mut acc, s).unwrap();
    }
    acc
}

/// One rank of the interpreter.
struct Rank {
    /// The `Send`, `Recv` and `Scratch` buffers, indexed by `Buf`.
    bufs: [Vec<u8>; 3],
    round: u32,
    begun: bool,
    /// The current round's receives, in schedule order.
    pending: VecDeque<Step>,
    /// Send spans a peer may still read: the current round's, or every
    /// one so far for a pipelined schedule.
    in_flight: Vec<Span>,
}

fn view(bufs: &[Vec<u8>; 3], s: Span) -> &[u8] {
    &bufs[s.buf as usize][s.off..s.off + s.len]
}

fn view_mut(bufs: &mut [Vec<u8>; 3], s: Span) -> &mut [u8] {
    assert_ne!(s.buf, Buf::Send, "a step writes the send buffer");
    &mut bufs[s.buf as usize][s.off..s.off + s.len]
}

/// The round rule: no step writes a span another step of the round — or
/// a send still in flight — reads or writes. Sorting the spans makes
/// the check a sweep, so thousands of steps stay cheap.
fn check_round_rule(steps: &[Step], in_flight: &[Span], what: &dyn Fn() -> String) {
    // (buffer, start, end, is a write)
    let mut spans: Vec<(Buf, usize, usize, bool)> = Vec::new();
    let mut add = |s: Span, write: bool| {
        if s.len > 0 {
            spans.push((s.buf, s.off, s.off + s.len, write));
        }
    };
    in_flight.iter().for_each(|&s| add(s, false));
    for step in steps {
        match *step {
            Step::Send { .. } => {} // in `in_flight` already
            Step::Recv { span, .. } => add(span, true),
            Step::Reduce { dst, with, .. } => {
                add(dst, true);
                if with != dst {
                    add(with, false);
                }
            }
            Step::Copy { src, dst } => {
                assert_eq!(src.len, dst.len, "{}: copy between unequal spans", what());
                add(src, false);
                add(dst, true);
            }
        }
    }
    spans.sort_unstable();
    // Furthest end of any span, and of any written span, seen so far in
    // this buffer.
    let (mut buf, mut any_end, mut write_end) = (Buf::Send, 0, 0);
    for (b, start, end, write) in spans {
        if b != buf {
            (buf, any_end, write_end) = (b, 0, 0);
        }
        let clash = if write { start < any_end } else { start < write_end };
        assert!(!clash, "{}: a step writes {b:?}[..{end}] while another uses it", what());
        any_end = any_end.max(end);
        if write {
            write_end = write_end.max(end);
        }
    }
}

/// Run one collective — `scheds[r]` with `send[r]` and `recv[r]` on rank
/// `r` — to completion in this thread and return the final receive
/// buffers. A message is the bytes of its span when the send starts; a
/// send completes when it is received, and gates its round exactly as the
/// executor's rendezvous sends do, so a schedule that could deadlock there
/// deadlocks here. Asserts on the way that every span is inside its
/// buffer, that the round rule holds, that every message is received by
/// exactly one step of its own length, and that nothing is left queued.
pub fn interpret(
    scheds: &[Schedule],
    send: &[Vec<u8>],
    recv: Vec<Vec<u8>>,
    reduce: Option<(Datatype, ReduceOp)>,
) -> Vec<Vec<u8>> {
    let p = scheds.len();
    let mut ranks: Vec<Rank> = (0..p)
        .map(|r| Rank {
            bufs: [send[r].clone(), recv[r].clone(), vec![0xA5; scheds[r].scratch_len()]],
            round: 0,
            begun: false,
            pending: VecDeque::new(),
            in_flight: Vec::new(),
        })
        .collect();
    // Messages in flight per (from, to), and per rank how many of its
    // sends nobody has received yet.
    let mut queues: HashMap<(usize, u32), VecDeque<Vec<u8>>> = HashMap::new();
    let mut unreceived = vec![0usize; p];
    loop {
        let (mut progressed, mut running) = (false, false);
        for me in 0..p {
            let sched = &scheds[me];
            loop {
                let rank = &mut ranks[me];
                if rank.round == sched.rounds() {
                    running |= unreceived[me] > 0;
                    break;
                }
                let round = rank.round;
                let what = move || format!("{sched:?} round {round}");
                if !rank.begun {
                    let mut steps = Vec::new();
                    sched.round(rank.round, |s| steps.push(s));
                    if !sched.pipelined() {
                        rank.in_flight.clear();
                    }
                    for step in &steps {
                        if let Step::Send { span, .. } = *step {
                            rank.in_flight.push(span);
                        }
                    }
                    check_round_rule(&steps, &rank.in_flight, &what);
                    for step in steps {
                        match step {
                            Step::Send { to, span } => {
                                let data = view(&rank.bufs, span).to_vec();
                                queues.entry((me, to)).or_default().push_back(data);
                                unreceived[me] += 1;
                            }
                            Step::Recv { .. } | Step::Reduce { .. } => rank.pending.push_back(step),
                            Step::Copy { src, dst } => {
                                let data = view(&rank.bufs, src).to_vec();
                                view_mut(&mut rank.bufs, dst).copy_from_slice(&data);
                            }
                        }
                    }
                    rank.begun = true;
                    progressed = true;
                }
                while let Some(&step) = rank.pending.front() {
                    let (Step::Recv { from, .. } | Step::Reduce { from, .. }) = step else {
                        unreachable!()
                    };
                    let Some(data) =
                        queues.get_mut(&(from as usize, me as u32)).and_then(VecDeque::pop_front)
                    else {
                        break;
                    };
                    match step {
                        Step::Recv { span, .. } => {
                            assert_eq!(data.len(), span.len, "{}: block from {from}", what());
                            view_mut(&mut rank.bufs, span).copy_from_slice(&data);
                        }
                        Step::Reduce { dst, with, .. } => {
                            let (dt, op) = reduce.expect("a reducing schedule needs an operator");
                            if dst == with {
                                reduce_in_place(dt, op, view_mut(&mut rank.bufs, dst), &data)
                            } else {
                                let mine = view(&rank.bufs, with).to_vec();
                                reduce_into(dt, op, view_mut(&mut rank.bufs, dst), &mine, &data)
                            }
                            .unwrap_or_else(|e| panic!("{}: block from {from}: {e:?}", what()));
                        }
                        _ => unreachable!(),
                    }
                    unreceived[from as usize] -= 1;
                    rank.pending.pop_front();
                    progressed = true;
                }
                if !rank.pending.is_empty() || (!sched.pipelined() && unreceived[me] > 0) {
                    running = true;
                    break;
                }
                rank.round += 1;
                rank.begun = false;
                progressed = true;
            }
        }
        if !running {
            break;
        }
        assert!(progressed, "{:?} on {p} ranks deadlocks", scheds[0]);
    }
    assert!(queues.values().all(VecDeque::is_empty), "{:?}: messages left queued", scheds[0]);
    ranks.into_iter().map(|r| r.bufs).map(|[_, recv, _]| recv).collect()
}

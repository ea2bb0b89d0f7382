//! Shared by the collective suites: deterministic payloads, the naive
//! oracles every schedule is compared against, and an interpreter that
//! moves the bytes of all `p` schedules of one collective along
//! `schedule::walk` — in one thread, over plain `Vec<u8>` buffers and
//! per-pair FIFO queues.
#![allow(dead_code)]

use std::collections::{HashMap, VecDeque};

use mpi_substrate::datatype::{reduce_in_place, reduce_into};
use mpi_substrate::schedule::{walk, Buf, Hook, Schedule, Span, Step};
use mpi_substrate::{Datatype, ReduceOp};
use netsim::{CostModel, SystemProfile};

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

/// A message in flight: the round it left in, and its bytes.
type Message = (u32, Vec<u8>);

/// The interpreter's side of a walk: every rank's buffers, the bytes in
/// flight per (from, to) with the round they left in, and per rank the
/// steps of the round it is in and the send spans a peer may still read.
struct Data<'a> {
    scheds: &'a [Schedule],
    bufs: Vec<[Vec<u8>; 3]>,
    reduce: Option<(Datatype, ReduceOp)>,
    queues: HashMap<(u32, u32), VecDeque<Message>>,
    round: Vec<Option<u32>>,
    steps: Vec<Vec<Step>>,
    in_flight: Vec<Vec<Span>>,
}

impl Data<'_> {
    /// Hold rank `me`'s round that just ended to the round rule.
    fn check_round(&mut self, me: usize) {
        let (Some(round), sched) = (self.round[me], &self.scheds[me]) else { return };
        if !sched.pipelined() {
            self.in_flight[me].clear();
        }
        for step in &self.steps[me] {
            if let Step::Send { span, .. } = *step {
                self.in_flight[me].push(span);
            }
        }
        check_round_rule(&self.steps[me], &self.in_flight[me], &|| {
            format!("{sched:?} round {round}")
        });
        self.steps[me].clear();
    }
}

impl Hook for Data<'_> {
    fn begin(&mut self, me: u32, round: u32, step: Step) {
        let r = me as usize;
        if self.round[r] != Some(round) {
            self.check_round(r);
            self.round[r] = Some(round);
        }
        self.steps[r].push(step);
        match step {
            Step::Send { to, span } => {
                let data = view(&self.bufs[r], span).to_vec();
                self.queues.entry((me, to)).or_default().push_back((round, data));
            }
            Step::Copy { src, dst } => {
                let data = view(&self.bufs[r], src).to_vec();
                view_mut(&mut self.bufs[r], dst).copy_from_slice(&data);
            }
            Step::Recv { .. } | Step::Reduce { .. } => {}
        }
    }

    fn deliver(&mut self, me: u32, step: Step) {
        let r = me as usize;
        let (Step::Recv { from, .. } | Step::Reduce { from, .. }) = step else { unreachable!() };
        let (sched, round) =
            (&self.scheds[r], self.round[r].expect("a delivery follows its round's start"));
        let what = || format!("{sched:?} round {round}");
        let (sent_in, data) = self
            .queues
            .get_mut(&(from, me))
            .and_then(VecDeque::pop_front)
            .expect("a delivered message was sent");
        assert_eq!(
            sent_in,
            round + u32::from(sched.pipelined()),
            "{}: block from {from} pairs with the wrong round",
            what()
        );
        let bufs = &mut self.bufs[r];
        match step {
            Step::Recv { span, .. } => {
                assert_eq!(data.len(), span.len, "{}: block from {from}", what());
                view_mut(bufs, span).copy_from_slice(&data);
            }
            Step::Reduce { dst, with, .. } => {
                assert_eq!(data.len(), dst.len, "{}: block from {from}", what());
                let (dt, op) = self.reduce.expect("a reducing schedule needs an operator");
                if dst == with {
                    reduce_in_place(dt, op, view_mut(bufs, dst), &data)
                } else {
                    let mine = view(bufs, with).to_vec();
                    reduce_into(dt, op, view_mut(bufs, dst), &mine, &data)
                }
                .unwrap_or_else(|e| panic!("{}: block from {from}: {e:?}", what()));
            }
            _ => unreachable!(),
        }
    }
}

/// Run one collective — `scheds[r]` with `send[r]` and `recv[r]` on rank
/// `r` — to completion along `schedule::walk` and return the final
/// receive buffers. A message is the bytes of its span when its round
/// begins. Every non-empty message is a rendezvous (the walk's profile
/// has a zero threshold), so a send gates its round as the executor's
/// rendezvous sends do, and a schedule that could deadlock there
/// deadlocks here. Asserts on the way that every span is inside its
/// buffer, that the round rule holds, and that every message is received
/// by exactly one step of its own length in the round the round-pairing
/// rule names.
pub fn interpret(
    scheds: &[Schedule],
    send: &[Vec<u8>],
    recv: Vec<Vec<u8>>,
    reduce: Option<(Datatype, ReduceOp)>,
) -> Vec<Vec<u8>> {
    let p = scheds.len();
    let mut data = Data {
        scheds,
        bufs: (0..p)
            .map(|r| [send[r].clone(), recv[r].clone(), vec![0xA5; scheds[r].scratch_len()]])
            .collect(),
        reduce,
        queues: HashMap::new(),
        round: vec![None; p],
        steps: vec![Vec::new(); p],
        in_flight: vec![Vec::new(); p],
    };
    let all_rendezvous = SystemProfile { rendezvous_threshold: 0, ..SystemProfile::container() };
    walk(scheds, &CostModel::native(all_rendezvous), &vec![0.0; p], &mut data);
    for me in 0..p {
        data.check_round(me);
    }
    data.bufs.into_iter().map(|[_, recv, _]| recv).collect()
}

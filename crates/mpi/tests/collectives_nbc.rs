//! Conformance tests for the collective suite as requests
//! (`Igather`/`Iscatter`/`Iallgather`/`Ialltoall`/`Ialltoallv`, plus
//! `Ireduce`/`Iallreduce`, which reduce at delivery), for the blocking
//! forms over them, and for the posted-receive matching engine they ride
//! on.
//!
//! Blocking and nonblocking are one engine, so neither is the other's
//! reference: both are compared with the naive oracles of `common`, and —
//! where the order of a floating-point reduction shows in the bits — with
//! the single-thread interpreter running the same schedules. The
//! centerpiece is a property test: random sequences of collectives,
//! interleaved with point-to-point traffic, must produce the oracle's
//! buffers and statuses in both formulations and both clock modes. A
//! deadlock regression pins the symmetric `Ialltoall` + `Waitall` shape
//! with payloads straddling the rendezvous threshold.

mod common;

use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use common::{gathered, interpret, reduced, transposed};
use mpi_substrate::schedule::{Algo, Schedule};
use mpi_substrate::{
    run_world_configured, run_world_with, ClockMode, Datatype, MpiError, ProtocolConfig,
    ReduceOp, Request, Source, Status, Tag, WorldConfig,
};
use netsim::{CostModel, SystemProfile};

fn virtual_mode() -> ClockMode {
    ClockMode::Virtual(CostModel::native(SystemProfile::container()))
}

fn both_modes() -> [ClockMode; 2] {
    [ClockMode::Real, virtual_mode()]
}

/// Deterministic payload byte for (step, rank, offset).
fn fill(step: usize, rank: u32, len: usize) -> Vec<u8> {
    (0..len).map(|j| (step * 131 + rank as usize * 31 + j * 7 + 5) as u8).collect()
}

// --- per-collective oracles ----------------------------------------------

#[test]
fn reduce_and_ireduce_match_oracle() {
    let ints = |r: u32| -> Vec<u8> {
        (0..8i32).flat_map(|k| (k * (r as i32 + 2)).to_le_bytes()).collect()
    };
    for p in [1u32, 2, 3, 5, 8] {
        let all: Vec<Vec<u8>> = (0..p).map(ints).collect();
        let expect = reduced(&all, Datatype::Int, ReduceOp::Sum);
        for mode in both_modes() {
            let out = run_world_with(p, mode, move |comm| {
                let root = p - 1;
                let at_root = comm.rank() == root;
                let mine = ints(comm.rank());
                let mut blocking = vec![0u8; 32];
                comm.reduce(
                    &mine,
                    at_root.then_some(&mut blocking[..]),
                    Datatype::Int,
                    ReduceOp::Sum,
                    root,
                )
                .unwrap();
                let mut got = vec![0u8; 32];
                comm.ireduce(
                    &mine,
                    at_root.then_some(&mut got[..]),
                    Datatype::Int,
                    ReduceOp::Sum,
                    root,
                )
                .unwrap()
                .wait()
                .unwrap();
                at_root.then_some((blocking, got))
            });
            for (blocking, got) in out.into_iter().flatten() {
                assert_eq!(blocking, expect, "reduce p {p}");
                assert_eq!(got, expect, "ireduce p {p}");
            }
        }
    }
}

/// MPI defines the bitwise operators on integer types only.
fn valid_pair(dt: Datatype, op: ReduceOp) -> bool {
    let bitwise = matches!(op, ReduceOp::Band | ReduceOp::Bor | ReduceOp::Bxor);
    !(bitwise && matches!(dt, Datatype::Float | Datatype::Double))
}

/// A rank's operand: real floats whose sums round differently in a
/// different order, arbitrary bytes for the integer types.
fn operand(dt: Datatype, rank: u32, len: usize) -> Vec<u8> {
    let value = |k: usize| (rank as f64 + 1.0) * (k as f64 + 0.5) / 7.0;
    match dt {
        Datatype::Float => (0..len / 4).flat_map(|k| (value(k) as f32).to_le_bytes()).collect(),
        Datatype::Double => (0..len / 8).flat_map(|k| value(k).to_le_bytes()).collect(),
        _ => fill(9, rank, len),
    }
}

/// A world whose protocols switch at 256 bytes, so payloads of 248 and
/// 264 bytes reach the reducing schedules as an eager box and as a
/// rendezvous slot while every (type, operator) stays cheap.
fn small_threshold() -> ProtocolConfig {
    ProtocolConfig { eager_threshold: 256, ..ProtocolConfig::default_real() }
}

/// What every rank must hold after reducing `operands` (one per rank):
/// on the integer types the rank-order fold, exact under any schedule; on
/// floats, whose sums round by order, what the interpreter computes with
/// the schedules `algo` builds — the ones the world selects by default.
fn expected_reduction(
    algo: Algo,
    root: u32,
    operands: &[Vec<u8>],
    dt: Datatype,
    op: ReduceOp,
) -> Vec<u8> {
    if !matches!(dt, Datatype::Float | Datatype::Double) {
        return reduced(operands, dt, op);
    }
    let (p, len) = (operands.len() as u32, operands[0].len());
    let scheds: Vec<Schedule> =
        (0..p).map(|me| Schedule::new(algo.clone(), p, me, root, len)).collect();
    let recv = vec![vec![0u8; len]; p as usize];
    interpret(&scheds, operands, recv, Some((dt, op))).swap_remove(root as usize)
}

#[test]
fn reduce_and_allreduce_match_oracle_for_every_type_and_operator() {
    let cases: Vec<(Datatype, ReduceOp, usize)> = Datatype::ALL
        .into_iter()
        .flat_map(|dt| ReduceOp::ALL.map(|op| (dt, op)))
        .filter(|&(dt, op)| valid_pair(dt, op))
        .flat_map(|(dt, op)| [248usize, 264].map(|len| (dt, op, len)))
        .collect();
    for p in [1u32, 2, 3, 4, 5, 7, 8] {
        for mode in both_modes() {
            let run = cases.clone();
            // Per rank and case: the blocking and the nonblocking
            // allreduce, then the two reduces (empty off the root).
            let config = WorldConfig::new(mode).with_protocol(small_threshold());
            let out = run_world_configured(p, config, move |comm| {
                let me = comm.rank();
                let mut results = Vec::new();
                for (i, &(dt, op, len)) in run.iter().enumerate() {
                    let mine = operand(dt, me, len);
                    let mut all = [vec![0xEEu8; len], vec![0xEEu8; len]];
                    comm.allreduce(&mine, &mut all[0], dt, op).unwrap();
                    comm.iallreduce(&mine, &mut all[1], dt, op).unwrap().wait().unwrap();

                    let root = i as u32 % p;
                    let at_root = me == root;
                    let mut rooted = [vec![0xEEu8; len], vec![0xEEu8; len]];
                    comm.reduce(&mine, at_root.then_some(&mut rooted[0][..]), dt, op, root)
                        .unwrap();
                    comm.ireduce(&mine, at_root.then_some(&mut rooted[1][..]), dt, op, root)
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert_eq!(mine, operand(dt, me, len), "send buffer, case {i}");
                    results.push((all, at_root.then_some(rooted)));
                }
                results
            });
            for (i, &(dt, op, len)) in cases.iter().enumerate() {
                let what = format!("{dt:?} {op:?} {len} bytes on {p}");
                let operands: Vec<Vec<u8>> = (0..p).map(|r| operand(dt, r, len)).collect();
                let expect =
                    expected_reduction(Algo::AllreduceRecursiveDoubling, 0, &operands, dt, op);
                // Bit-agreement across ranks and entry points, floats
                // included.
                for (rank, results) in out.iter().enumerate() {
                    for got in &results[i].0 {
                        assert_eq!(*got, expect, "allreduce {what}, rank {rank}");
                    }
                }
                let root = i as u32 % p;
                let expect = expected_reduction(Algo::Reduce, root, &operands, dt, op);
                let rooted = out[root as usize][i].1.as_ref().expect("the root's results");
                for got in rooted {
                    assert_eq!(*got, expect, "reduce to {root} {what}");
                }
            }
        }
    }
}

/// One clock rule for collectives: the call is charged once, at
/// initiation, and each delivered message once — a schedule's inner sends
/// are not MPI calls. On a power of two recursive doubling therefore costs
/// the initiation plus one wire time and one delivery per round, and the
/// dissemination barrier the same over its one-byte tokens, whether the
/// collective was started blocking or not.
#[test]
fn iallreduce_virtual_time_is_the_closed_form() {
    let model = CostModel::native(SystemProfile::container());
    let call = model.call_overhead_us;
    let closed_form = move |rounds: f64, len: usize| {
        call + rounds * (model.profile.p2p_time(0, 1, len).as_micros() + call)
    };
    for (p, rounds) in [(2u32, 1.0), (4, 2.0), (8, 3.0)] {
        for len in [8usize, 4096] {
            let times = run_world_with(p, virtual_mode(), move |comm| {
                let mine = operand(Datatype::Double, comm.rank(), len);
                let mut out = vec![0u8; len];
                let t0 = comm.virtual_time_us();
                comm.iallreduce(&mine, &mut out, Datatype::Double, ReduceOp::Sum)
                    .unwrap()
                    .wait()
                    .unwrap();
                let t1 = comm.virtual_time_us();
                comm.allreduce(&mine, &mut out, Datatype::Double, ReduceOp::Sum).unwrap();
                [t1 - t0, comm.virtual_time_us() - t1]
            });
            let expect = closed_form(rounds, len);
            for t in times.into_iter().flatten() {
                assert!((t - expect).abs() < 1e-9, "p {p}, {len} bytes: {t} vs {expect}");
            }
        }
        let times = run_world_with(p, virtual_mode(), |comm| {
            let t0 = comm.virtual_time_us();
            comm.barrier().unwrap();
            let t1 = comm.virtual_time_us();
            comm.ibarrier().unwrap().wait().unwrap();
            [t1 - t0, comm.virtual_time_us() - t1]
        });
        for t in times.into_iter().flatten() {
            let expect = closed_form(rounds, 1);
            assert!((t - expect).abs() < 1e-9, "barrier on {p}: {t} vs {expect}");
        }
    }
}

/// Partners that post different byte counts both fail with
/// `CollectiveMismatch` and neither hangs: the block is consumed, and a
/// rendezvous handshake completed, even though the reduction refused it.
/// (A rendezvous partner may instead find the announcement withdrawn by
/// the rank that failed first.)
#[test]
fn iallreduce_byte_count_mismatch_fails_both_partners() {
    for (lens, eager) in [([16usize, 24], true), ([264, 272], false)] {
        for mode in both_modes() {
            let config = WorldConfig::new(mode).with_protocol(small_threshold());
            let out = run_world_configured(2, config, move |comm| {
                let mine = vec![1u8; lens[comm.rank() as usize]];
                let mut got = vec![0u8; mine.len()];
                let mut req =
                    comm.iallreduce(&mine, &mut got, Datatype::Long, ReduceOp::Sum).unwrap();
                req.wait()
            });
            let mismatches =
                out.iter().filter(|r| matches!(r, Err(MpiError::CollectiveMismatch(_)))).count();
            let withdrawn = out.iter().filter(|r| **r == Err(MpiError::WorldShutdown)).count();
            assert!(mismatches >= 1 && mismatches + withdrawn == 2, "{lens:?}: {out:?}");
            assert!(!eager || mismatches == 2, "{lens:?}: {out:?}");
        }
    }
}

/// An operator the datatype does not support is rejected at initiation,
/// at every count, before any message moves — and so is a rooted
/// collective's root that passes no buffer for its root-only side. The ranks meet outside MPI
/// around both snapshots, so neither is still leaving the barrier (or
/// already tearing down) while the other reads the counters.
#[test]
fn invalid_type_operator_pairs_are_rejected_at_initiation() {
    let outside = Arc::new(Barrier::new(2));
    run_world_with(2, ClockMode::Real, move |comm| {
        comm.barrier().unwrap();
        outside.wait();
        let before = comm.protocol_stats();
        let invalid = Err(MpiError::InvalidOp(u32::MAX));
        for len in [0usize, 32] {
            let (mine, mut out) = (vec![0u8; len], vec![0u8; len]);
            let (dt, op) = (Datatype::Double, ReduceOp::Bxor);
            assert_eq!(comm.allreduce(&mine, &mut out, dt, op), invalid);
            assert_eq!(comm.reduce(&mine, Some(&mut out), dt, op, 0), invalid);
            assert_eq!(comm.iallreduce(&mine, &mut out, dt, op).err(), invalid.clone().err());
            assert_eq!(comm.ireduce(&mine, Some(&mut out), dt, op, 0).err(), invalid.clone().err());
        }
        // A root without its root-only buffer. Every rank is the root of
        // its own call, so the ranks' collective sequences stay in step.
        let (me, mine, mut out) = (comm.rank(), [0u8; 8], [0u8; 8]);
        let (dt, op) = (Datatype::Double, ReduceOp::Sum);
        let rootless = [
            comm.ireduce(&mine, None::<&mut [u8]>, dt, op, me).err(),
            comm.igather(&mine, None::<&mut [u8]>, me).err(),
            comm.iscatter(None::<&[u8]>, &mut out, me).err(),
        ];
        for err in rootless {
            assert!(matches!(err, Some(MpiError::CollectiveMismatch(_))), "{err:?}");
        }
        let after = comm.protocol_stats();
        outside.wait();
        assert_eq!(after, before);
    });
}

#[test]
fn gather_and_scatter_match_oracle_at_all_roots() {
    for p in [1u32, 2, 3, 5] {
        for root in 0..p {
            run_world_with(p, ClockMode::Real, move |comm| {
                let n = 40;
                let me = comm.rank();
                let at_root = me == root;
                let blocks: Vec<Vec<u8>> = (0..p).map(|r| fill(0, r, n)).collect();
                let all = gathered(&blocks);
                // Gather.
                let mine = &blocks[me as usize];
                let mut blocking = vec![0u8; n * p as usize];
                comm.gather(mine, at_root.then_some(&mut blocking[..]), root).unwrap();
                let mut nb = vec![0u8; n * p as usize];
                comm.igather(mine, at_root.then_some(&mut nb[..]), root).unwrap().wait().unwrap();
                if at_root {
                    assert_eq!(blocking, all, "gather root {root} p {p}");
                    assert_eq!(nb, all, "igather root {root} p {p}");
                }
                // Scatter the same blocks back out.
                let mut b_block = vec![0u8; n];
                comm.scatter(at_root.then_some(&all[..]), &mut b_block, root).unwrap();
                let mut nb_block = vec![0u8; n];
                comm.iscatter(at_root.then_some(&all[..]), &mut nb_block, root)
                    .unwrap()
                    .wait()
                    .unwrap();
                assert_eq!(b_block, *mine, "scatter root {root} p {p} rank {me}");
                assert_eq!(nb_block, *mine, "iscatter root {root} p {p} rank {me}");
            });
        }
    }
}

/// Every rank's alltoall send buffer at `step`: `n` bytes per peer.
fn alltoall_sends(step: usize, p: u32, n: usize) -> Vec<Vec<u8>> {
    (0..p).map(|s| (0..p).flat_map(|r| fill(step + r as usize, s, n)).collect()).collect()
}

#[test]
fn allgather_and_alltoall_match_oracle() {
    for p in [1u32, 2, 3, 4, 7] {
        for mode in both_modes() {
            run_world_with(p, mode, move |comm| {
                let n = 24;
                let me = comm.rank();
                let blocks: Vec<Vec<u8>> = (0..p).map(|r| fill(1, r, n)).collect();
                let mine = &blocks[me as usize];
                let mut b_all = vec![0u8; n * p as usize];
                comm.allgather(mine, &mut b_all).unwrap();
                let mut nb_all = vec![0u8; n * p as usize];
                comm.iallgather(mine, &mut nb_all).unwrap().wait().unwrap();
                assert_eq!(b_all, gathered(&blocks), "allgather p {p} rank {me}");
                assert_eq!(nb_all, gathered(&blocks), "iallgather p {p} rank {me}");

                let sends = alltoall_sends(2, p, n);
                let send = &sends[me as usize];
                let mut b_a2a = vec![0u8; n * p as usize];
                comm.alltoall(send, &mut b_a2a).unwrap();
                let mut nb_a2a = vec![0u8; n * p as usize];
                comm.ialltoall(send, &mut nb_a2a).unwrap().wait().unwrap();
                let expect = transposed(&sends, me as usize, n);
                assert_eq!(b_a2a, expect, "alltoall p {p} rank {me}");
                assert_eq!(nb_a2a, expect, "ialltoall p {p} rank {me}");
            });
        }
    }
}

/// The vector exchange's counts for (sender s → receiver r) at `step`:
/// deliberately uneven, with some zero blocks.
fn a2av_count(step: usize, s: u32, r: u32, unit: usize) -> usize {
    ((s as usize * 7 + r as usize * 3 + step) % 4) * unit
}

/// Build (counts, displs, total) for one rank's side of an alltoallv.
fn a2av_layout(
    p: u32,
    count_of: impl Fn(u32) -> usize,
) -> (Vec<usize>, Vec<usize>, usize) {
    let mut counts = Vec::with_capacity(p as usize);
    let mut displs = Vec::with_capacity(p as usize);
    let mut off = 0;
    for r in 0..p {
        counts.push(count_of(r));
        displs.push(off);
        off += counts[r as usize];
    }
    (counts, displs, off)
}

/// What rank `me` holds after the vector exchange of `step`: from every
/// sender its (possibly empty) block, packed in rank order.
fn a2av_expected(step: usize, me: u32, p: u32, unit: usize) -> Vec<u8> {
    (0..p).flat_map(|s| fill(step + me as usize, s, a2av_count(step, s, me, unit))).collect()
}

#[test]
fn alltoallv_matches_oracle_including_zero_blocks() {
    for p in [1u32, 2, 3, 5] {
        for mode in both_modes() {
            run_world_with(p, mode, move |comm| {
                let me = comm.rank();
                let unit = 16;
                let (scounts, sdispls, stotal) =
                    a2av_layout(p, |r| a2av_count(3, me, r, unit));
                let (rcounts, rdispls, rtotal) =
                    a2av_layout(p, |s| a2av_count(3, s, me, unit));
                let mut send = vec![0u8; stotal];
                for r in 0..p as usize {
                    let block = fill(3 + r, me, scounts[r]);
                    send[sdispls[r]..sdispls[r] + scounts[r]].copy_from_slice(&block);
                }
                let mut blocking = vec![0u8; rtotal];
                comm.alltoallv(&send, &scounts, &sdispls, &mut blocking, &rcounts, &rdispls)
                    .unwrap();
                let mut nb = vec![0xEEu8; rtotal];
                comm.ialltoallv(&send, &scounts, &sdispls, &mut nb, &rcounts, &rdispls)
                    .unwrap()
                    .wait()
                    .unwrap();
                let expect = a2av_expected(3, me, p, unit);
                assert_eq!(blocking, expect, "alltoallv p {p} rank {me}");
                assert_eq!(nb, expect, "ialltoallv p {p} rank {me}");
            });
        }
    }
}

/// Two same-kind collectives in flight at once must not cross-match.
#[test]
fn outstanding_ialltoalls_do_not_cross_match() {
    for p in [2u32, 3, 4] {
        run_world_with(p, ClockMode::Real, move |comm| {
            let me = comm.rank();
            let n = 8;
            let (sends_a, sends_b) = (alltoall_sends(10, p, n), alltoall_sends(90, p, n));
            let (send_a, send_b) = (&sends_a[me as usize], &sends_b[me as usize]);
            let mut got_a = vec![0u8; n * p as usize];
            let mut got_b = vec![0u8; n * p as usize];
            {
                let mut req_a = comm.ialltoall(send_a, &mut got_a).unwrap();
                let _ = req_a.test().unwrap(); // get round 1 in flight
                let mut req_b = comm.ialltoall(send_b, &mut got_b).unwrap();
                // Complete B first: its arrivals must skip A's messages.
                req_b.wait().unwrap();
                req_a.wait().unwrap();
            }
            assert_eq!(got_a, transposed(&sends_a, me as usize, n), "A at rank {me} p {p}");
            assert_eq!(got_b, transposed(&sends_b, me as usize, n), "B at rank {me} p {p}");
        });
    }
}

// --- deadlock regression -------------------------------------------------

/// The shape PR 2's latched outcomes were built to survive, now with the
/// full pairwise exchange: every rank initiates a symmetric `Ialltoall`
/// whose per-peer blocks straddle the rendezvous threshold, posts p2p
/// requests on top, and parks in `Waitall`. Completion requires each
/// parked rank to keep driving its whole request table.
#[test]
fn symmetric_ialltoall_waitall_straddling_rendezvous_is_deadlock_free() {
    // 96 KiB blocks clear the real default (64 KiB) and the container
    // profile's virtual threshold (32 KiB); 1 KiB blocks stay eager.
    for block in [1usize << 10, 96 << 10] {
        for mode in both_modes() {
            for p in [2u32, 3] {
                run_world_with(p, mode.clone(), move |comm| {
                    let me = comm.rank();
                    let peer = (me + 1) % p;
                    let sends = alltoall_sends(0, p, block);
                    let mut recv = vec![0u8; block * p as usize];
                    let extra_out = fill(77, me, block);
                    let mut extra_in = vec![0u8; block];
                    {
                        let mut reqs = vec![
                            comm.ialltoall(&sends[me as usize], &mut recv).unwrap(),
                            comm.isend(&extra_out, peer, 9).unwrap(),
                            comm.irecv(
                                &mut extra_in,
                                Source::Rank((me + p - 1) % p),
                                Tag::Value(9),
                            )
                            .unwrap(),
                        ];
                        Request::wait_all(&mut reqs).unwrap();
                    }
                    let oracle = transposed(&sends, me as usize, block);
                    assert_eq!(recv, oracle, "rank {me} p {p} block {block}");
                    assert_eq!(extra_in, fill(77, (me + p - 1) % p, block), "p2p rank {me}");
                });
            }
        }
    }
}

// --- the differential property test --------------------------------------

#[derive(Debug, Clone, Copy)]
enum CollOp {
    Gather { root: u32 },
    Scatter { root: u32 },
    Allgather,
    Alltoall,
    Alltoallv,
}

#[derive(Debug, Clone)]
struct Script {
    /// Per step: the collective, large blocks?, interleave p2p traffic?,
    /// and whether the subject completes the p2p requests first.
    steps: Vec<(CollOp, bool, bool, bool)>,
}

/// Raw step tuples: (kind, raw root, large, p2p, p2p_first). Roots are
/// reduced mod `p` when the script is resolved (the world size is an
/// independent strategy argument).
type RawScript = Vec<(u8, u8, bool, bool, bool)>;

fn script_strategy() -> BoxedStrategy<RawScript> {
    proptest::collection::vec(
        (0u8..5, any::<u8>(), any::<bool>(), any::<bool>(), any::<bool>()),
        1..5,
    )
    .boxed()
}

fn resolve_script(raw: &RawScript, p: u32) -> Script {
    Script {
        steps: raw
            .iter()
            .map(|&(kind, root, large, p2p, p2p_first)| {
                let root = root as u32 % p;
                let op = match kind {
                    0 => CollOp::Gather { root },
                    1 => CollOp::Scatter { root },
                    2 => CollOp::Allgather,
                    3 => CollOp::Alltoall,
                    _ => CollOp::Alltoallv,
                };
                (op, large, p2p, p2p_first)
            })
            .collect(),
    }
}

/// Per-rank block size: large straddles every rendezvous threshold.
fn block_len(large: bool) -> usize {
    if large {
        96 << 10
    } else {
        64
    }
}

/// One rank's buffers for step `i` of the script, pre-filled
/// deterministically. Returns (send, recv, layout-for-alltoallv).
struct StepBufs {
    send: Vec<u8>,
    recv: Vec<u8>,
    scounts: Vec<usize>,
    sdispls: Vec<usize>,
    rcounts: Vec<usize>,
    rdispls: Vec<usize>,
}

fn step_bufs(op: CollOp, large: bool, step: usize, me: u32, p: u32) -> StepBufs {
    let n = block_len(large);
    let (send, recv_len, scounts, sdispls, rcounts, rdispls) = match op {
        CollOp::Gather { .. } => (fill(step, me, n), n * p as usize, vec![], vec![], vec![], vec![]),
        CollOp::Scatter { .. } => {
            ((0..p).flat_map(|r| fill(step + r as usize, me, n)).collect(), n, vec![], vec![], vec![], vec![])
        }
        CollOp::Allgather => (fill(step, me, n), n * p as usize, vec![], vec![], vec![], vec![]),
        CollOp::Alltoall => {
            ((0..p).flat_map(|r| fill(step + r as usize, me, n)).collect(), n * p as usize, vec![], vec![], vec![], vec![])
        }
        CollOp::Alltoallv => {
            // Uneven blocks, zero included; unit scaled so "large" still
            // crosses the rendezvous threshold for the nonzero blocks.
            let unit = if large { 48 << 10 } else { 32 };
            let (scounts, sdispls, stotal) =
                a2av_layout(p, |r| a2av_count(step, me, r, unit));
            let (rcounts, rdispls, rtotal) =
                a2av_layout(p, |s| a2av_count(step, s, me, unit));
            let mut send = vec![0u8; stotal];
            for r in 0..p as usize {
                send[sdispls[r]..sdispls[r] + scounts[r]]
                    .copy_from_slice(&fill(step + r, me, scounts[r]));
            }
            (send, rtotal, scounts, sdispls, rcounts, rdispls)
        }
    };
    StepBufs { send, recv: vec![0u8; recv_len], scounts, sdispls, rcounts, rdispls }
}

/// The per-rank result of one run: every step's receive buffer (roots
/// only, for rooted collectives) plus the p2p payloads and statuses.
type RankResult = Vec<(Vec<u8>, Option<Status>)>;

fn run_formulation(
    script: &Script,
    p: u32,
    mode: ClockMode,
    nonblocking: bool,
) -> Vec<RankResult> {
    let script = script.clone();
    run_world_with(p, mode, move |comm| {
        let me = comm.rank();
        let mut results: RankResult = Vec::new();
        for (i, &(op, large, p2p, p2p_first)) in script.steps.iter().enumerate() {
            let mut bufs = step_bufs(op, large, i, me, p);
            // Interleaved ring p2p traffic riding alongside the
            // collective (tags never collide with collective space).
            let n = block_len(large);
            let p2p_out = fill(1000 + i, me, n);
            let mut p2p_in = vec![0u8; n];
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            let tag = i as i32;

            let is_recv_root = |root: u32| me == root;
            let mut p2p_status = None;
            if nonblocking {
                let mut reqs: Vec<Request> = Vec::new();
                if p2p {
                    reqs.push(comm.irecv(&mut p2p_in, Source::Rank(left), Tag::Value(tag)).unwrap());
                    reqs.push(comm.isend(&p2p_out, right, tag).unwrap());
                }
                let coll = match op {
                    CollOp::Gather { root } => comm
                        .igather(&bufs.send, is_recv_root(root).then_some(&mut bufs.recv[..]), root)
                        .unwrap(),
                    CollOp::Scatter { root } => comm
                        .iscatter((me == root).then_some(&bufs.send[..]), &mut bufs.recv, root)
                        .unwrap(),
                    CollOp::Allgather => comm.iallgather(&bufs.send, &mut bufs.recv).unwrap(),
                    CollOp::Alltoall => comm.ialltoall(&bufs.send, &mut bufs.recv).unwrap(),
                    CollOp::Alltoallv => comm
                        .ialltoallv(
                            &bufs.send,
                            &bufs.scounts,
                            &bufs.sdispls,
                            &mut bufs.recv,
                            &bufs.rcounts,
                            &bufs.rdispls,
                        )
                        .unwrap(),
                };
                if p2p_first {
                    reqs.push(coll);
                } else {
                    reqs.insert(0, coll);
                }
                let statuses = Request::wait_all(&mut reqs).unwrap();
                if p2p {
                    // The irecv's status, wherever it landed in the set.
                    let idx = if p2p_first { 0 } else { 1 };
                    p2p_status = Some(statuses[idx]);
                }
            } else {
                // Oracle: the blocking formulations, p2p via sendrecv.
                if p2p {
                    let st = comm
                        .sendrecv(&p2p_out, right, tag, &mut p2p_in, Source::Rank(left), Tag::Value(tag))
                        .unwrap();
                    p2p_status = Some(st);
                }
                match op {
                    CollOp::Gather { root } => comm
                        .gather(&bufs.send, is_recv_root(root).then_some(&mut bufs.recv[..]), root)
                        .unwrap(),
                    CollOp::Scatter { root } => comm
                        .scatter((me == root).then_some(&bufs.send[..]), &mut bufs.recv, root)
                        .unwrap(),
                    CollOp::Allgather => comm.allgather(&bufs.send, &mut bufs.recv).unwrap(),
                    CollOp::Alltoall => comm.alltoall(&bufs.send, &mut bufs.recv).unwrap(),
                    CollOp::Alltoallv => comm
                        .alltoallv(
                            &bufs.send,
                            &bufs.scounts,
                            &bufs.sdispls,
                            &mut bufs.recv,
                            &bufs.rcounts,
                            &bufs.rdispls,
                        )
                        .unwrap(),
                }
            }
            // Non-root gather ranks have no defined recv contents.
            let observable = match op {
                CollOp::Gather { root } if me != root => Vec::new(),
                _ => bufs.recv,
            };
            results.push((observable, None));
            if p2p {
                results.push((p2p_in, p2p_status));
            }
        }
        results
    })
}

/// What [`run_formulation`] must return on every rank, from the oracles:
/// no run is another's reference.
fn expected_results(script: &Script, p: u32) -> Vec<RankResult> {
    (0..p)
        .map(|me| {
            let mut results: RankResult = Vec::new();
            for (i, &(op, large, p2p, _)) in script.steps.iter().enumerate() {
                let n = block_len(large);
                let blocks = || (0..p).map(|r| fill(i, r, n)).collect::<Vec<_>>();
                let observable = match op {
                    CollOp::Gather { root } if me != root => Vec::new(),
                    CollOp::Gather { .. } | CollOp::Allgather => gathered(&blocks()),
                    CollOp::Scatter { root } => fill(i + me as usize, root, n),
                    CollOp::Alltoall => transposed(&alltoall_sends(i, p, n), me as usize, n),
                    CollOp::Alltoallv => a2av_expected(i, me, p, if large { 48 << 10 } else { 32 }),
                };
                results.push((observable, None));
                if p2p {
                    let left = (me + p - 1) % p;
                    results.push((fill(1000 + i, left, n), Some(Status::msg(left, i as i32, n))));
                }
            }
            results
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random mixes of the five unreducing collectives plus p2p traffic
    /// produce the oracle's bytes and statuses, blocking and nonblocking,
    /// under both clock modes.
    #[test]
    fn collectives_with_interleaved_p2p_match_oracle(
        p in 2u32..5,
        raw in script_strategy(),
    ) {
        let script = resolve_script(&raw, p);
        let oracle = expected_results(&script, p);
        for mode in both_modes() {
            for nonblocking in [false, true] {
                let subject = run_formulation(&script, p, mode.clone(), nonblocking);
                prop_assert_eq!(oracle.len(), subject.len());
                for (rank, (o, s)) in oracle.iter().zip(&subject).enumerate() {
                    prop_assert_eq!(o.len(), s.len());
                    for (k, ((od, ost), (sd, sst))) in o.iter().zip(s).enumerate() {
                        prop_assert!(od == sd,
                            "data mismatch rank {} item {} nonblocking {} ({:?})",
                            rank, k, nonblocking, script);
                        prop_assert_eq!(ost, sst,
                            "status mismatch rank {} item {} nonblocking {} ({:?})",
                            rank, k, nonblocking, script);
                    }
                }
            }
        }
    }
}

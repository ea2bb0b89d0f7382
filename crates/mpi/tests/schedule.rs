//! Thread-free exhaustive check of the collective schedules: every
//! algorithm, every communicator size in 1..=130, roots {0, p/2, p−1},
//! ragged sizes (13 elements; 4097 bytes over 512-byte segments). All `p`
//! schedules of a collective run in this one thread along `schedule::walk`
//! (`common::interpret`), which asserts that every send is received
//! exactly once by a step of its length in the round the round-pairing
//! rule names, that no round deadlocks, and the round rule — within a
//! round no step writes a span another step reads or writes — which is
//! what the executor's raw-pointer spans and its reduce-at-delivery stand
//! on. Final buffers must equal the naive oracle.

mod common;

use common::{alltoall_send, contribution, gathered, interpret, reduced, transposed};
use mpi_substrate::schedule::{Algo, Extents, Schedule};
use mpi_substrate::{Datatype, ReduceOp};

const SIZES: std::ops::RangeInclusive<u32> = 1..=130;
const BLOCK: usize = 13;

fn roots(p: u32) -> Vec<u32> {
    let mut roots = vec![0, p / 2, p - 1];
    roots.dedup();
    roots
}

/// Rank `r`'s 13 ints: small enough that sums over 130 ranks are exact.
fn ints(r: u32) -> Vec<u8> {
    (0..BLOCK as i32).flat_map(|i| ((r as i32 * 31 + i * 7) % 101 - 50).to_le_bytes()).collect()
}

#[test]
fn barrier_pairs_every_token() {
    for p in SIZES {
        let none = vec![Vec::new(); p as usize];
        interpret(&Schedule::every_rank(Algo::Barrier, p, 0, 0), &none, none.clone(), None);
    }
}

#[test]
fn every_bcast_delivers_the_roots_payload() {
    let algos = [
        Algo::BcastBinomial,
        Algo::BcastBinomialSegmented { seg: 512 },
        Algo::BcastRing { seg: 512 },
    ];
    for algo in &algos {
        for p in SIZES {
            for root in roots(p) {
                for n in [0, BLOCK, 4097] {
                    let payload = contribution(root, n);
                    let bufs = (0..p)
                        .map(|r| if r == root { payload.clone() } else { vec![0; n] })
                        .collect();
                    let none = vec![Vec::new(); p as usize];
                    let out = interpret(
                        &Schedule::every_rank(algo.clone(), p, root, n),
                        &none,
                        bufs,
                        None,
                    );
                    assert!(out.iter().all(|b| *b == payload), "{algo:?} p {p} root {root} n {n}");
                }
            }
        }
    }
}

#[test]
fn reduce_and_every_allreduce_sum_exactly() {
    let sum = Some((Datatype::Int, ReduceOp::Sum));
    for p in SIZES {
        let sends: Vec<Vec<u8>> = (0..p).map(ints).collect();
        let expect = reduced(&sends, Datatype::Int, ReduceOp::Sum);
        let n = expect.len();
        for root in roots(p) {
            let recv = (0..p).map(|r| vec![0; if r == root { n } else { 0 }]).collect();
            let out = interpret(&Schedule::every_rank(Algo::Reduce, p, root, n), &sends, recv, sum);
            assert_eq!(out[root as usize], expect, "reduce p {p} root {root}");
        }
        for algo in [Algo::AllreduceRecursiveDoubling, Algo::AllreduceRabenseifner { elem: 4 }] {
            let recv = vec![vec![0; n]; p as usize];
            let out = interpret(&Schedule::every_rank(algo.clone(), p, 0, n), &sends, recv, sum);
            assert!(out.iter().all(|b| *b == expect), "{algo:?} p {p}");
        }
    }
}

#[test]
fn gather_and_scatter_move_every_block() {
    for p in SIZES {
        let blocks: Vec<Vec<u8>> = (0..p).map(|r| contribution(r, BLOCK)).collect();
        let all = gathered(&blocks);
        for root in roots(p) {
            let at_root = |len: usize| move |r: u32| vec![0u8; if r == root { len } else { 0 }];
            let recv = (0..p).map(at_root(all.len())).collect();
            let out =
                interpret(&Schedule::every_rank(Algo::Gather, p, root, BLOCK), &blocks, recv, None);
            assert_eq!(out[root as usize], all, "gather p {p} root {root}");

            let sends: Vec<Vec<u8>> =
                (0..p).map(|r| if r == root { all.clone() } else { Vec::new() }).collect();
            let recv = vec![vec![0; BLOCK]; p as usize];
            let out =
                interpret(&Schedule::every_rank(Algo::Scatter, p, root, BLOCK), &sends, recv, None);
            assert_eq!(out, blocks, "scatter p {p} root {root}");
        }
    }
}

#[test]
fn every_allgather_concatenates_in_rank_order() {
    for algo in [Algo::AllgatherRing, Algo::AllgatherBruck, Algo::AllgatherRecursiveDoubling] {
        for p in SIZES {
            let blocks: Vec<Vec<u8>> = (0..p).map(|r| contribution(r, BLOCK)).collect();
            let all = gathered(&blocks);
            let recv = vec![vec![0; all.len()]; p as usize];
            let out =
                interpret(&Schedule::every_rank(algo.clone(), p, 0, BLOCK), &blocks, recv, None);
            assert!(out.iter().all(|b| *b == all), "{algo:?} p {p}");
        }
    }
}

#[test]
fn every_alltoall_transposes() {
    for algo in [Algo::AlltoallPairwise, Algo::AlltoallBruck] {
        for p in SIZES {
            let sends: Vec<Vec<u8>> = (0..p).map(|r| alltoall_send(r, p, BLOCK)).collect();
            let recv = vec![vec![0; BLOCK * p as usize]; p as usize];
            let out =
                interpret(&Schedule::every_rank(algo.clone(), p, 0, BLOCK), &sends, recv, None);
            for (me, got) in out.iter().enumerate() {
                assert_eq!(*got, transposed(&sends, me, BLOCK), "{algo:?} p {p} rank {me}");
            }
        }
    }
}

#[test]
fn alltoallv_moves_uneven_and_empty_blocks() {
    // Bytes from `s` to `r`: uneven, every fourth pair empty.
    let count = |s: u32, r: u32| ((s * 7 + r * 3) % 4) as usize * 5;
    let layout = |counts: &[usize]| -> Vec<usize> {
        counts.iter().scan(0, |off, c| Some(std::mem::replace(off, *off + c))).collect()
    };
    for p in SIZES {
        let mut scheds = Vec::new();
        let (mut sends, mut recvs) = (Vec::new(), Vec::new());
        let mut expect: Vec<Vec<u8>> = Vec::new();
        for me in 0..p {
            let send_counts: Vec<usize> = (0..p).map(|r| count(me, r)).collect();
            let recv_counts: Vec<usize> = (0..p).map(|s| count(s, me)).collect();
            sends.push((0..p).flat_map(|r| contribution(me * p + r, count(me, r))).collect());
            expect.push((0..p).flat_map(|s| contribution(s * p + me, count(s, me))).collect());
            recvs.push(vec![0u8; recv_counts.iter().sum()]);
            let x = Extents {
                send_displs: layout(&send_counts),
                recv_displs: layout(&recv_counts),
                send_counts,
                recv_counts,
            };
            scheds.push(Schedule::new(Algo::Alltoallv(Box::new(x)), p, me, 0, 0));
        }
        let out = interpret(&scheds, &sends, recvs, None);
        assert_eq!(out, expect, "alltoallv p {p}");
    }
}

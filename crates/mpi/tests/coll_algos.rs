//! The collective-algorithm conformance matrix (ISSUE 9 satellite): every
//! (collective, algorithm) pair, forced through the tuning-table
//! override, must be **byte-identical** to the naive oracles of `common`
//! at rank counts {2, 3, 4, 7, 8, 16, 33, 64} under both clock modes. The
//! non-power-of-two counts are what exercise the recursive-doubling and
//! Rabenseifner fold-in/unfold paths and Bruck's ragged final round —
//! they are mandatory cells, not nice-to-haves. Every cell runs as
//! `iX(..).wait()` with a receive of the rank's own outstanding, so the
//! tuned schedules are exercised under a live request table and a
//! non-empty posted queue.
//!
//! A differential proptest rides along: random payload shapes, rank
//! counts, and segment sizes, with a randomly forced algorithm run
//! against the default selection — outputs must be byte-identical and
//! the Status fields of surrounding point-to-point traffic must be
//! unchanged by the schedule choice. (Reductions use exact integer
//! arithmetic so associativity differences between schedules cannot leak
//! into the comparison.)

mod common;

use common::{alltoall_send, cell, contribution, gathered, reduced, transposed};
use mpi_substrate::{
    run_world_configured, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, ClockMode,
    CollTuning, Comm, Datatype, ReduceOp, Source, Tag, WorldConfig,
};
use netsim::{CostModel, SystemProfile};
use proptest::prelude::*;

/// Mandatory rank counts: powers of two plus the fold-in shapes.
const SIZES: [u32; 8] = [2, 3, 4, 7, 8, 16, 33, 64];

fn both_modes() -> Vec<ClockMode> {
    vec![
        ClockMode::Real,
        ClockMode::Virtual(CostModel::native(SystemProfile::scale_cluster())),
    ]
}

/// Run `collective` while a receive from the left neighbour is posted and
/// unmatched; the neighbour's message only leaves afterwards.
fn under_an_outstanding_irecv(comm: &Comm, collective: impl FnOnce()) {
    let (me, p) = (comm.rank(), comm.size());
    let (left, right) = ((me + p - 1) % p, (me + 1) % p);
    let mut token = [0u8; 4];
    let mut pending = comm.irecv(&mut token, Source::Rank(left), Tag::Value(9)).unwrap();
    collective();
    comm.send(&me.to_le_bytes(), right, 9).unwrap();
    pending.wait().unwrap();
    drop(pending);
    assert_eq!(u32::from_le_bytes(token), left, "token at rank {me}");
}

#[test]
fn bcast_matrix_is_byte_identical_to_oracle() {
    // 4097 bytes over a 512-byte segment: 9 segments, ragged tail.
    const LEN: usize = 4097;
    for algo in BcastAlgo::ALL {
        for p in SIZES {
            for mode in both_modes() {
                let cfg = WorldConfig::new(mode).with_coll_tuning(
                    CollTuning::new().force_bcast(algo).with_segment_bytes(512),
                );
                run_world_configured(p, cfg, move |comm| {
                    let root = p / 2;
                    let oracle = contribution(root, LEN);
                    let mut buf = if comm.rank() == root { oracle.clone() } else { vec![0u8; LEN] };
                    under_an_outstanding_irecv(&comm, || {
                        comm.ibcast(&mut buf, root).unwrap().wait().unwrap();
                    });
                    assert_eq!(buf, oracle, "{algo:?} p={p} rank={}", comm.rank());
                });
            }
        }
    }
}

#[test]
fn allgather_matrix_is_byte_identical_to_oracle() {
    const BLOCK: usize = 33;
    for algo in AllgatherAlgo::ALL {
        for p in SIZES {
            for mode in both_modes() {
                let cfg = WorldConfig::new(mode)
                    .with_coll_tuning(CollTuning::new().force_allgather(algo));
                run_world_configured(p, cfg, move |comm| {
                    let blocks: Vec<Vec<u8>> = (0..p).map(|r| contribution(r, BLOCK)).collect();
                    let mut out = vec![0u8; BLOCK * p as usize];
                    under_an_outstanding_irecv(&comm, || {
                        let mine = &blocks[comm.rank() as usize];
                        comm.iallgather(mine, &mut out).unwrap().wait().unwrap();
                    });
                    assert_eq!(out, gathered(&blocks), "{algo:?} p={p} rank={}", comm.rank());
                });
            }
        }
    }
}

#[test]
fn allreduce_matrix_is_byte_identical_to_oracle() {
    // 13 ints: at p2 = 64 Rabenseifner chunks this leaves most chunks
    // empty, the hardest uneven split. Sum over small ints is exact, so
    // every schedule must agree to the byte.
    let ints = |r: u32| -> Vec<u8> {
        (0..13).flat_map(|i| ((r as i32 * 31 + i * 7) % 101 - 50).to_le_bytes()).collect()
    };
    for algo in AllreduceAlgo::ALL {
        for p in SIZES {
            for mode in both_modes() {
                for op in [ReduceOp::Sum, ReduceOp::Max] {
                    let cfg = WorldConfig::new(mode.clone())
                        .with_coll_tuning(CollTuning::new().force_allreduce(algo));
                    run_world_configured(p, cfg, move |comm| {
                        let sends: Vec<Vec<u8>> = (0..p).map(ints).collect();
                        let mut recv = vec![0u8; 13 * 4];
                        under_an_outstanding_irecv(&comm, || {
                            let send = &sends[comm.rank() as usize];
                            comm.iallreduce(send, &mut recv, Datatype::Int, op)
                                .unwrap()
                                .wait()
                                .unwrap();
                        });
                        assert_eq!(
                            recv,
                            reduced(&sends, Datatype::Int, op),
                            "{algo:?} {op:?} p={p} rank={}",
                            comm.rank()
                        );
                    });
                }
            }
        }
    }
}

#[test]
fn alltoall_matrix_is_byte_identical_to_oracle() {
    const BLOCK: usize = 9;
    for algo in AlltoallAlgo::ALL {
        for p in SIZES {
            for mode in both_modes() {
                let cfg = WorldConfig::new(mode)
                    .with_coll_tuning(CollTuning::new().force_alltoall(algo));
                run_world_configured(p, cfg, move |comm| {
                    let me = comm.rank();
                    let sends: Vec<Vec<u8>> = (0..p).map(|r| alltoall_send(r, p, BLOCK)).collect();
                    let mut recv = vec![0u8; BLOCK * p as usize];
                    under_an_outstanding_irecv(&comm, || {
                        comm.ialltoall(&sends[me as usize], &mut recv).unwrap().wait().unwrap();
                    });
                    let oracle = transposed(&sends, me as usize, BLOCK);
                    assert_eq!(recv, oracle, "{algo:?} p={p} rank={me}");
                });
            }
        }
    }
}

// --- differential proptest: forced algorithm vs default selection -------

#[derive(Debug, Clone, Copy)]
enum CollKind {
    Bcast,
    Allgather,
    Allreduce,
    Alltoall,
}

/// Run one collective at `p` ranks and return each rank's (output bytes,
/// surrounding-sendrecv Status fields). `forced` pins the schedule;
/// `None` uses the default selection.
fn run_case(
    kind: CollKind,
    forced: Option<usize>,
    p: u32,
    len: usize,
    seg: usize,
    virt: bool,
) -> Vec<(Vec<u8>, (u32, i32, usize))> {
    let mut t = CollTuning::new().with_segment_bytes(seg);
    if let Some(i) = forced {
        t = match kind {
            CollKind::Bcast => t.force_bcast(BcastAlgo::ALL[i % BcastAlgo::ALL.len()]),
            CollKind::Allgather => {
                t.force_allgather(AllgatherAlgo::ALL[i % AllgatherAlgo::ALL.len()])
            }
            CollKind::Allreduce => {
                t.force_allreduce(AllreduceAlgo::ALL[i % AllreduceAlgo::ALL.len()])
            }
            CollKind::Alltoall => {
                t.force_alltoall(AlltoallAlgo::ALL[i % AlltoallAlgo::ALL.len()])
            }
        };
    }
    let mode = if virt {
        ClockMode::Virtual(CostModel::native(SystemProfile::scale_cluster()))
    } else {
        ClockMode::Real
    };
    let cfg = WorldConfig::new(mode).with_coll_tuning(t);
    run_world_configured(p, cfg, move |comm| {
        let me = comm.rank();
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        // User-tagged traffic around the collective: its Status fields
        // must not depend on which schedule the collective ran.
        let mut ring = [0u8; 4];
        let st = comm
            .sendrecv(&me.to_le_bytes(), right, 5, &mut ring, Source::Rank(left), Tag::Value(5))
            .unwrap();
        let out = match kind {
            CollKind::Bcast => {
                let root = p - 1;
                let mut buf = if me == root {
                    (0..len).map(|j| cell(root, j)).collect()
                } else {
                    vec![0u8; len]
                };
                comm.bcast(&mut buf, root).unwrap();
                buf
            }
            CollKind::Allgather => {
                let mine: Vec<u8> = (0..len).map(|j| cell(me, j)).collect();
                let mut out = vec![0u8; len * p as usize];
                comm.allgather(&mine, &mut out).unwrap();
                out
            }
            CollKind::Allreduce => {
                let send: Vec<u8> = (0..len as i32)
                    .flat_map(|i| ((me as i32 * 13 + i * 3) % 51 - 25).to_le_bytes())
                    .collect();
                let mut out = vec![0u8; send.len()];
                comm.allreduce(&send, &mut out, Datatype::Int, ReduceOp::Sum).unwrap();
                out
            }
            CollKind::Alltoall => {
                let send: Vec<u8> = (0..p)
                    .flat_map(|dst| (0..len).map(move |j| cell(me * p + dst, j)))
                    .collect();
                let mut out = vec![0u8; len * p as usize];
                comm.alltoall(&send, &mut out).unwrap();
                out
            }
        };
        (out, (st.source, st.tag, st.bytes))
    })
}

fn kind_strategy() -> impl Strategy<Value = CollKind> {
    prop_oneof![
        Just(CollKind::Bcast),
        Just(CollKind::Allgather),
        Just(CollKind::Allreduce),
        Just(CollKind::Alltoall),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(8)
    ))]

    /// A randomly forced schedule must be observationally identical to
    /// whatever the default table would have picked: same bytes at every
    /// rank, same Status fields on neighbouring user traffic.
    #[test]
    fn forced_schedule_matches_default_selection(
        kind in kind_strategy(),
        forced in 0usize..6,
        p in prop_oneof![Just(2u32), Just(3), Just(4), Just(5), Just(7), Just(8), Just(16)],
        len in 0usize..300,
        seg in 1usize..200,
        virt in any::<bool>(),
    ) {
        let forced_out = run_case(kind, Some(forced), p, len, seg, virt);
        let default_out = run_case(kind, None, p, len, seg, virt);
        prop_assert_eq!(forced_out, default_out);
    }
}

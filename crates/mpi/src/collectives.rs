//! The blocking collectives: build the request, wait for it.
//!
//! A collective is a [`crate::schedule::Schedule`] — dissemination
//! barrier; binomial, pipelined-binomial or pipelined-ring bcast; binomial
//! reduce; recursive-doubling or Rabenseifner allreduce; linear gather and
//! scatter; ring, Bruck or recursive-doubling allgather; pairwise or Bruck
//! alltoall; pairwise alltoallv — run by the one executor in
//! [`crate::request`]. Multi-algorithm collectives pick their schedule
//! through the world's [`crate::coll_algo::CollTuning`] table when the
//! request is built, per (collective, communicator size, payload bytes)
//! and with any cell forcible, so `Comm::X` and `Comm::iX` (and with them
//! a Wasm guest's `MPI_X` and `MPI_IX`) always run the same schedule. The
//! selection inputs are identical at every rank (the buffer-length checks
//! guarantee matching sizes), so all ranks of one call agree on it; the
//! chosen algorithm is recorded on the `CollBegin` observability span.
//!
//! Because the schedules really execute (real messages between rank
//! threads), the virtual-time mode observes their true critical paths —
//! log₂(p) rounds for trees and recursive doubling, p−1 rounds for the
//! ring — which is what produces the paper-shaped scaling curves. A
//! collective costs one call overhead at initiation and one per delivered
//! message, whichever entry point started it.

use crate::comm::Comm;
use crate::datatype::{Datatype, ReduceOp};
use crate::error::MpiError;

impl Comm {
    /// `MPI_Barrier`.
    pub fn barrier(&self) -> Result<(), MpiError> {
        self.ibarrier()?.wait().map(drop)
    }

    /// `MPI_Bcast` from `root`; `buf` is the full payload on the root and
    /// is overwritten everywhere else.
    pub fn bcast(&self, buf: &mut [u8], root: u32) -> Result<(), MpiError> {
        self.ibcast(buf, root)?.wait().map(drop)
    }

    /// `MPI_Reduce`: the root's `recv_buf` receives the elementwise
    /// reduction of every rank's `send_buf`.
    pub fn reduce(
        &self,
        send_buf: &[u8],
        recv_buf: Option<&mut [u8]>,
        dt: Datatype,
        op: ReduceOp,
        root: u32,
    ) -> Result<(), MpiError> {
        self.ireduce(send_buf, recv_buf, dt, op, root)?.wait().map(drop)
    }

    /// `MPI_Allreduce`.
    pub fn allreduce(
        &self,
        send_buf: &[u8],
        recv_buf: &mut [u8],
        dt: Datatype,
        op: ReduceOp,
    ) -> Result<(), MpiError> {
        self.iallreduce(send_buf, recv_buf, dt, op)?.wait().map(drop)
    }

    /// `MPI_Gather`: every rank contributes `send_buf`; the root's
    /// `recv_buf` receives all contributions concatenated in rank order.
    pub fn gather(
        &self,
        send_buf: &[u8],
        recv_buf: Option<&mut [u8]>,
        root: u32,
    ) -> Result<(), MpiError> {
        self.igather(send_buf, recv_buf, root)?.wait().map(drop)
    }

    /// `MPI_Scatter`: the root's `send_buf` holds `p` equal blocks; each
    /// rank receives its block in `recv_buf`.
    pub fn scatter(
        &self,
        send_buf: Option<&[u8]>,
        recv_buf: &mut [u8],
        root: u32,
    ) -> Result<(), MpiError> {
        self.iscatter(send_buf, recv_buf, root)?.wait().map(drop)
    }

    /// `MPI_Allgather`: every schedule leaves rank `r`'s contribution in
    /// block `r` of `recv_buf`.
    pub fn allgather(&self, send_buf: &[u8], recv_buf: &mut [u8]) -> Result<(), MpiError> {
        self.iallgather(send_buf, recv_buf)?.wait().map(drop)
    }

    /// `MPI_Alltoall`: each rank sends block `r` of `send_buf` to rank `r`
    /// and receives block `s` of `recv_buf` from rank `s`.
    pub fn alltoall(&self, send_buf: &[u8], recv_buf: &mut [u8]) -> Result<(), MpiError> {
        self.ialltoall(send_buf, recv_buf)?.wait().map(drop)
    }

    /// `MPI_Alltoallv`: the vector all-to-all. Counts and displacements
    /// are in bytes; every pair exchanges exactly one (possibly empty)
    /// block, like [`Comm::alltoall`].
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv(
        &self,
        send_buf: &[u8],
        send_counts: &[usize],
        send_displs: &[usize],
        recv_buf: &mut [u8],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> Result<(), MpiError> {
        self.ialltoallv(send_buf, send_counts, send_displs, recv_buf, recv_counts, recv_displs)?
            .wait()
            .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll_algo::{AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning};
    use crate::world::{run_world, run_world_configured, WorldConfig};
    use crate::ClockMode;

    fn forced(t: CollTuning) -> WorldConfig {
        WorldConfig::new(ClockMode::Real).with_coll_tuning(t)
    }

    #[test]
    fn every_bcast_schedule_delivers() {
        for algo in BcastAlgo::ALL {
            for p in [1, 2, 3, 5, 8] {
                // A 7-byte segment over a 33-byte payload exercises the
                // pipelines with a ragged final segment.
                let cfg =
                    forced(CollTuning::new().force_bcast(algo).with_segment_bytes(7));
                run_world_configured(p, cfg, move |comm| {
                    let mut buf =
                        if comm.rank() == 1 % p { vec![0xAB; 33] } else { vec![0; 33] };
                    comm.bcast(&mut buf, 1 % p).unwrap();
                    assert!(
                        buf.iter().all(|&b| b == 0xAB),
                        "{algo:?} rank {} p {p}",
                        comm.rank()
                    );
                });
            }
        }
    }

    #[test]
    fn every_allgather_schedule_matches_oracle() {
        for algo in AllgatherAlgo::ALL {
            for p in [1, 2, 3, 4, 7, 8] {
                let cfg = forced(CollTuning::new().force_allgather(algo));
                run_world_configured(p, cfg, move |comm| {
                    let mine = [comm.rank() as u8 + 10, comm.rank() as u8 + 100];
                    let mut out = vec![0u8; 2 * p as usize];
                    comm.allgather(&mine, &mut out).unwrap();
                    for r in 0..p as usize {
                        assert_eq!(out[2 * r], r as u8 + 10, "{algo:?} p {p}");
                        assert_eq!(out[2 * r + 1], r as u8 + 100, "{algo:?} p {p}");
                    }
                });
            }
        }
    }

    #[test]
    fn every_allreduce_schedule_sums() {
        for algo in AllreduceAlgo::ALL {
            // Odd sizes exercise both fold-in paths; 5 ints exercise the
            // uneven Rabenseifner chunk split (5 elements over 4 chunks).
            for p in [1, 2, 3, 5, 7, 8] {
                let cfg = forced(CollTuning::new().force_allreduce(algo));
                run_world_configured(p, cfg, move |comm| {
                    let mut send = Vec::new();
                    for i in 0..5i32 {
                        send.extend_from_slice(&(comm.rank() as i32 + i).to_le_bytes());
                    }
                    let mut recv = vec![0u8; 20];
                    comm.allreduce(&send, &mut recv, Datatype::Int, ReduceOp::Sum)
                        .unwrap();
                    for i in 0..5i32 {
                        let got = i32::from_le_bytes(
                            recv[4 * i as usize..4 * i as usize + 4].try_into().unwrap(),
                        );
                        let exp: i32 = (0..p as i32).map(|r| r + i).sum();
                        assert_eq!(got, exp, "{algo:?} p {p} elem {i}");
                    }
                });
            }
        }
    }

    #[test]
    fn every_alltoall_schedule_transposes() {
        for algo in AlltoallAlgo::ALL {
            for p in [1, 2, 3, 5, 8] {
                let cfg = forced(CollTuning::new().force_alltoall(algo));
                run_world_configured(p, cfg, move |comm| {
                    let me = comm.rank() as u8;
                    let mut send = Vec::new();
                    for r in 0..p as u8 {
                        send.extend_from_slice(&[me, r]);
                    }
                    let mut recv = vec![0u8; 2 * p as usize];
                    comm.alltoall(&send, &mut recv).unwrap();
                    for r in 0..p as usize {
                        assert_eq!(recv[2 * r], r as u8, "{algo:?} p {p}");
                        assert_eq!(recv[2 * r + 1], me, "{algo:?} p {p}");
                    }
                });
            }
        }
    }

    #[test]
    fn barrier_completes_at_various_sizes() {
        for p in [1, 2, 3, 4, 7, 8] {
            run_world(p, |comm| {
                for _ in 0..3 {
                    comm.barrier().unwrap();
                }
            });
        }
    }

    #[test]
    fn bcast_delivers_to_all_from_every_root() {
        for p in [1, 2, 3, 5, 8] {
            for root in 0..p {
                run_world(p, move |comm| {
                    let mut buf = if comm.rank() == root {
                        vec![0xAB; 33]
                    } else {
                        vec![0; 33]
                    };
                    comm.bcast(&mut buf, root).unwrap();
                    assert!(buf.iter().all(|&b| b == 0xAB), "rank {}", comm.rank());
                });
            }
        }
    }

    #[test]
    fn reduce_sums_ints_at_root() {
        for p in [2, 3, 4, 6] {
            run_world(p, move |comm| {
                let v = (comm.rank() as i32 + 1).to_le_bytes();
                let mut out = [0u8; 4];
                let root = p - 1;
                comm.reduce(
                    &v,
                    if comm.rank() == root { Some(&mut out) } else { None },
                    Datatype::Int,
                    ReduceOp::Sum,
                    root,
                )
                .unwrap();
                if comm.rank() == root {
                    let expected: i32 = (1..=p as i32).sum();
                    assert_eq!(i32::from_le_bytes(out), expected);
                }
            });
        }
    }

    #[test]
    fn allreduce_matches_oracle_at_odd_sizes() {
        // Exercises the non-power-of-two folding path.
        for p in [1, 2, 3, 5, 6, 7, 8] {
            run_world(p, move |comm| {
                let mine = [comm.rank() as f64 + 0.5, -(comm.rank() as f64)];
                let mut send = Vec::new();
                for v in mine {
                    send.extend_from_slice(&v.to_le_bytes());
                }
                let mut recv = vec![0u8; 16];
                comm.allreduce(&send, &mut recv, Datatype::Double, ReduceOp::Sum).unwrap();
                let got0 = f64::from_le_bytes(recv[0..8].try_into().unwrap());
                let got1 = f64::from_le_bytes(recv[8..16].try_into().unwrap());
                let exp0: f64 = (0..p).map(|r| r as f64 + 0.5).sum();
                let exp1: f64 = (0..p).map(|r| -(r as f64)).sum();
                assert!((got0 - exp0).abs() < 1e-12, "rank {} p {}", comm.rank(), p);
                assert!((got1 - exp1).abs() < 1e-12);
            });
        }
    }

    #[test]
    fn allreduce_max() {
        run_world(5, |comm| {
            let v = ((comm.rank() as i32 * 7) % 5).to_le_bytes();
            let mut out = [0u8; 4];
            comm.allreduce(&v, &mut out, Datatype::Int, ReduceOp::Max).unwrap();
            assert_eq!(i32::from_le_bytes(out), 4);
        });
    }

    #[test]
    fn allreduce_max_agrees_on_a_nan_only_one_rank_holds() {
        // Recursive doubling: rank 0 computes `mine ⊕ theirs`, rank 1 the
        // mirror image, so a `Max` that is not commutative on NaN hands
        // the two ranks different answers.
        for nan_rank in [0, 1] {
            let got = run_world(2, move |comm| {
                let v = if comm.rank() == nan_rank { f64::NAN } else { 1.0 };
                let mut out = [0u8; 8];
                comm.allreduce(&v.to_le_bytes(), &mut out, Datatype::Double, ReduceOp::Max)
                    .unwrap();
                u64::from_le_bytes(out)
            });
            assert_eq!(got[0], got[1], "NaN on rank {nan_rank}: {got:x?}");
            assert!(f64::from_bits(got[0]).is_nan(), "NaN on rank {nan_rank}: {got:x?}");
        }
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        run_world(4, |comm| {
            let mine = [comm.rank() as u8; 3];
            let mut out = vec![0u8; 12];
            comm.gather(&mine, if comm.rank() == 2 { Some(&mut out) } else { None }, 2)
                .unwrap();
            if comm.rank() == 2 {
                assert_eq!(out, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
            }
        });
    }

    #[test]
    fn scatter_distributes_blocks() {
        run_world(4, |comm| {
            let src: Vec<u8> = (0..8).collect();
            let mut mine = [0u8; 2];
            comm.scatter(
                if comm.rank() == 0 { Some(&src[..]) } else { None },
                &mut mine,
                0,
            )
            .unwrap();
            assert_eq!(mine, [comm.rank() as u8 * 2, comm.rank() as u8 * 2 + 1]);
        });
    }

    #[test]
    fn allgather_ring_matches_oracle() {
        for p in [1, 2, 3, 4, 7] {
            run_world(p, move |comm| {
                let mine = [comm.rank() as u8 + 10, comm.rank() as u8 + 100];
                let mut out = vec![0u8; 2 * p as usize];
                comm.allgather(&mine, &mut out).unwrap();
                for r in 0..p as usize {
                    assert_eq!(out[2 * r], r as u8 + 10);
                    assert_eq!(out[2 * r + 1], r as u8 + 100);
                }
            });
        }
    }

    #[test]
    fn alltoall_transposes() {
        for p in [2, 3, 5] {
            run_world(p, move |comm| {
                let me = comm.rank() as u8;
                // Block sent to rank r encodes (me, r).
                let mut send = Vec::new();
                for r in 0..p as u8 {
                    send.extend_from_slice(&[me, r]);
                }
                let mut recv = vec![0u8; 2 * p as usize];
                comm.alltoall(&send, &mut recv).unwrap();
                for r in 0..p as usize {
                    assert_eq!(recv[2 * r], r as u8, "block from rank {r}");
                    assert_eq!(recv[2 * r + 1], me);
                }
            });
        }
    }

    #[test]
    fn bcast_mismatched_sizes_detected() {
        run_world(2, |comm| {
            let mut buf = if comm.rank() == 0 { vec![1u8; 8] } else { vec![0u8; 4] };
            let r = comm.bcast(&mut buf, 0);
            if comm.rank() == 1 {
                assert!(r.is_err());
            }
        });
    }

    #[test]
    fn collectives_on_split_subcommunicators() {
        run_world(6, |comm| {
            let sub = comm.split((comm.rank() % 2) as i32, 0).unwrap().unwrap();
            let v = 1i32.to_le_bytes();
            let mut out = [0u8; 4];
            sub.allreduce(&v, &mut out, Datatype::Int, ReduceOp::Sum).unwrap();
            assert_eq!(i32::from_le_bytes(out), 3);
        });
    }
}

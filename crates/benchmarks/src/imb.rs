//! The Intel MPI Benchmarks (§4.2): point-to-point and collective
//! communication measurements over a range of message sizes.
//!
//! Each routine exists as a Wasm guest builder ([`build_guest`]) and a
//! native implementation ([`run_native`]). Both execute the identical
//! measurement loop: per message size, a barrier, `iters` repetitions of
//! the routine, and a `MPI_Wtime`-based per-iteration time in µs. Under a
//! virtual-clock world, `MPI_Wtime` reads simulated time, so the same code
//! produces the large-scale figures.

use mpi_substrate::{Comm, Datatype, ReduceOp, Source, Tag};
use wasm_engine::dsl::*;
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder};

use crate::guest::{layout, MpiImports, MPI_BYTE};

/// The nine IMB routines of Figures 3 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImbRoutine {
    PingPong,
    SendRecv,
    Bcast,
    Allreduce,
    Allgather,
    Alltoall,
    Reduce,
    Gather,
    Scatter,
}

impl ImbRoutine {
    pub const ALL: [ImbRoutine; 9] = [
        ImbRoutine::PingPong,
        ImbRoutine::SendRecv,
        ImbRoutine::Bcast,
        ImbRoutine::Allreduce,
        ImbRoutine::Allgather,
        ImbRoutine::Alltoall,
        ImbRoutine::Reduce,
        ImbRoutine::Gather,
        ImbRoutine::Scatter,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            ImbRoutine::PingPong => "PingPong",
            ImbRoutine::SendRecv => "Sendrecv",
            ImbRoutine::Bcast => "Bcast",
            ImbRoutine::Allreduce => "Allreduce",
            ImbRoutine::Allgather => "Allgather",
            ImbRoutine::Alltoall => "Alltoall",
            ImbRoutine::Reduce => "Reduce",
            ImbRoutine::Gather => "Gather",
            ImbRoutine::Scatter => "Scatter",
        }
    }

    /// Whether the routine's aggregate buffer footprint scales with the
    /// communicator size (guides the harness's size sweeps).
    pub fn scales_with_ranks(&self) -> bool {
        matches!(
            self,
            ImbRoutine::Allgather | ImbRoutine::Alltoall | ImbRoutine::Gather | ImbRoutine::Scatter
        )
    }
}

/// Build the Wasm guest for `routine` measuring each `(bytes, iters)`
/// pair of `sweep`. The guest reports `(log2(bytes), time_us)` per size
/// through the harness hook.
pub fn build_guest(routine: ImbRoutine, sweep: &[(u32, u32)]) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    b.name(&format!("imb-{}", routine.name().to_lowercase()));
    b.memory(layout::PAGES, Some(layout::PAGES));
    let mpi = MpiImports::declare(&mut b);
    let sweep = sweep.to_vec();

    b.func("_start", vec![], vec![], move |f| {
        let rank = Var::new(f, ValType::I32);
        let size = Var::new(f, ValType::I32);
        let i = Var::new(f, ValType::I32);
        let t0 = Var::new(f, ValType::F64);

        let mut stmts = vec![mpi.init()];
        stmts.extend(mpi.load_rank(layout::SCRATCH, rank));
        stmts.extend(mpi.load_size(layout::SCRATCH + 8, size));

        for &(bytes, iters) in &sweep {
            let log = bytes.max(1).ilog2() as i32;
            let body = routine_body(&mpi, routine, bytes, rank, size);
            stmts.push(mpi.barrier_world());
            stmts.push(t0.set(mpi.wtime()));
            stmts.push(for_range(i, int(0), int(iters as i32), &body));
            // Per-iteration time in µs; PingPong halves (one-way time).
            let divisor = if routine == ImbRoutine::PingPong { 2.0 } else { 1.0 };
            stmts.push(mpi.report(
                int(log),
                (mpi.wtime() - t0.get()) * double(1e6 / (iters as f64 * divisor)),
            ));
        }
        stmts.push(mpi.finalize());
        emit_block(f, &stmts);
    });
    encode_module(&b.finish())
}

/// One iteration of `routine` at `bytes`, as DSL statements.
fn routine_body(
    mpi: &MpiImports,
    routine: ImbRoutine,
    bytes: u32,
    rank: Var,
    size: Var,
) -> Vec<Stmt> {
    let sbuf = int(layout::SEND_BUF);
    let rbuf = int(layout::RECV_BUF);
    let n = int(bytes as i32);
    match routine {
        ImbRoutine::PingPong => vec![if_else(
            rank.get().eq(int(0)),
            &[
                mpi.send(sbuf.clone(), n.clone(), MPI_BYTE, int(1), int(0)),
                mpi.recv(rbuf.clone(), n.clone(), MPI_BYTE, int(1), int(0)),
            ],
            &[if_then(rank.get().eq(int(1)), &[
                mpi.recv(rbuf, n.clone(), MPI_BYTE, int(0), int(0)),
                mpi.send(sbuf, n, MPI_BYTE, int(0), int(0)),
            ])],
        )],
        ImbRoutine::SendRecv => {
            // Periodic chain: send right, receive from left.
            vec![mpi.sendrecv(
                sbuf,
                n.clone(),
                MPI_BYTE,
                (rank.get() + int(1)) % size.get(),
                rbuf,
                n,
                (rank.get() + size.get() - int(1)) % size.get(),
                0,
            )]
        }
        ImbRoutine::Bcast => vec![mpi.bcast(sbuf, n, MPI_BYTE, int(0))],
        ImbRoutine::Allreduce => {
            // Counts are in doubles, as IMB does for reductions.
            let count = int((bytes / 8).max(1) as i32);
            vec![mpi.allreduce(sbuf, rbuf, count, crate::guest::MPI_DOUBLE, crate::guest::MPI_SUM)]
        }
        ImbRoutine::Reduce => {
            let count = int((bytes / 8).max(1) as i32);
            vec![mpi.reduce(
                sbuf,
                rbuf,
                count,
                crate::guest::MPI_DOUBLE,
                crate::guest::MPI_SUM,
                int(0),
            )]
        }
        ImbRoutine::Allgather => vec![mpi.allgather(sbuf, n, MPI_BYTE, rbuf)],
        ImbRoutine::Alltoall => vec![mpi.alltoall(sbuf, n, MPI_BYTE, rbuf)],
        ImbRoutine::Gather => vec![mpi.gather(sbuf, n, MPI_BYTE, rbuf, int(0))],
        ImbRoutine::Scatter => vec![mpi.scatter(sbuf, n, MPI_BYTE, rbuf, int(0))],
    }
}

/// Native execution of one routine sweep on an existing communicator.
/// Returns `(log2(bytes), time_us_per_iteration)` per sweep entry
/// (measured on this rank; callers typically read rank 0).
pub fn run_native(comm: &Comm, routine: ImbRoutine, sweep: &[(u32, u32)]) -> Vec<(i32, f64)> {
    let mut out = Vec::with_capacity(sweep.len());
    let p = comm.size();
    let me = comm.rank();
    // Buffers sized for the largest aggregate operation in the sweep.
    let max_bytes = sweep.iter().map(|&(b, _)| b as usize).max().unwrap_or(1);
    let sbuf = vec![1u8; max_bytes.max(8) * if routine == ImbRoutine::Alltoall || routine == ImbRoutine::Scatter { p as usize } else { 1 }];
    let mut rbuf = vec![0u8; max_bytes.max(8) * p as usize];

    for &(bytes, iters) in sweep {
        let n = bytes as usize;
        if routine == ImbRoutine::Bcast && me == 0 {
            // Once, outside the timed loop: the guest's Bcast broadcasts
            // its buffer as it stands, so a refill per iteration would time
            // a copy the guest does not make.
            rbuf[..n].copy_from_slice(&sbuf[..n]);
        }
        comm.barrier().unwrap();
        let t0 = comm.wtime();
        for _ in 0..iters {
            match routine {
                ImbRoutine::PingPong => {
                    if me == 0 {
                        comm.send(&sbuf[..n], 1, 0).unwrap();
                        comm.recv(&mut rbuf[..n], Source::Rank(1), Tag::Value(0)).unwrap();
                    } else if me == 1 {
                        comm.recv(&mut rbuf[..n], Source::Rank(0), Tag::Value(0)).unwrap();
                        comm.send(&sbuf[..n], 0, 0).unwrap();
                    }
                }
                ImbRoutine::SendRecv => {
                    let right = (me + 1) % p;
                    let left = (me + p - 1) % p;
                    comm.sendrecv(
                        &sbuf[..n],
                        right,
                        0,
                        &mut rbuf[..n],
                        Source::Rank(left),
                        Tag::Value(0),
                    )
                    .unwrap();
                }
                ImbRoutine::Bcast => comm.bcast(&mut rbuf[..n], 0).unwrap(),
                ImbRoutine::Allreduce => {
                    let count = (n / 8).max(1) * 8;
                    comm.allreduce(&sbuf[..count], &mut rbuf[..count], Datatype::Double, ReduceOp::Sum)
                        .unwrap();
                }
                ImbRoutine::Reduce => {
                    let count = (n / 8).max(1) * 8;
                    let root_buf = if me == 0 { Some(&mut rbuf[..count]) } else { None };
                    comm.reduce(&sbuf[..count], root_buf, Datatype::Double, ReduceOp::Sum, 0)
                        .unwrap();
                }
                ImbRoutine::Allgather => {
                    comm.allgather(&sbuf[..n], &mut rbuf[..n * p as usize]).unwrap();
                }
                ImbRoutine::Alltoall => {
                    comm.alltoall(&sbuf[..n * p as usize], &mut rbuf[..n * p as usize]).unwrap();
                }
                ImbRoutine::Gather => {
                    let root_buf = if me == 0 { Some(&mut rbuf[..n * p as usize]) } else { None };
                    comm.gather(&sbuf[..n], root_buf, 0).unwrap();
                }
                ImbRoutine::Scatter => {
                    let root_buf = if me == 0 { Some(&sbuf[..n * p as usize]) } else { None };
                    comm.scatter(root_buf, &mut rbuf[..n], 0).unwrap();
                }
            }
        }
        let elapsed_us = (comm.wtime() - t0) * 1e6;
        let divisor = if routine == ImbRoutine::PingPong { 2.0 } else { 1.0 };
        out.push((bytes.max(1).ilog2() as i32, elapsed_us / (iters as f64 * divisor)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_substrate::{run_world, run_world_with, ClockMode};
    use mpiwasm::{JobConfig, Runner};
    use netsim::{CostModel, SystemProfile};

    #[test]
    fn guest_modules_validate_for_every_routine() {
        for routine in ImbRoutine::ALL {
            let wasm = build_guest(routine, &[(64, 2)]);
            let module = wasm_engine::decode_module(&wasm).unwrap();
            wasm_engine::validate_module(&module).unwrap();
        }
    }

    #[test]
    fn pingpong_guest_runs_and_reports() {
        let wasm = build_guest(ImbRoutine::PingPong, &[(16, 4), (256, 4)]);
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks[0].error);
        let reports = &result.ranks[0].reports;
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].0, 4); // log2(16)
        assert_eq!(reports[1].0, 8); // log2(256)
        assert!(reports.iter().all(|&(_, t)| t >= 0.0));
    }

    #[test]
    fn collective_guests_run_at_np4() {
        for routine in [
            ImbRoutine::Bcast,
            ImbRoutine::Allreduce,
            ImbRoutine::Allgather,
            ImbRoutine::Alltoall,
            ImbRoutine::Reduce,
            ImbRoutine::Gather,
            ImbRoutine::Scatter,
            ImbRoutine::SendRecv,
        ] {
            let wasm = build_guest(routine, &[(128, 2)]);
            let result = Runner::new()
                .run(&wasm, JobConfig { np: 4, ..Default::default() })
                .unwrap();
            assert!(
                result.success(),
                "{routine:?}: {:?}",
                result.ranks.iter().filter_map(|r| r.error.clone()).collect::<Vec<_>>()
            );
            assert_eq!(result.ranks[0].reports.len(), 1, "{routine:?}");
        }
    }

    #[test]
    fn native_matches_structure() {
        let out = run_world(2, |comm| {
            run_native(&comm, ImbRoutine::PingPong, &[(8, 4), (1024, 4)])
        });
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[0][0].0, 3);
        assert_eq!(out[0][1].0, 10);
    }

    #[test]
    fn virtual_clock_guest_times_follow_message_size() {
        // Under a virtual clock the reported times must reflect the wire
        // model: 4 KiB takes longer than 8 bytes.
        let wasm = build_guest(ImbRoutine::PingPong, &[(8, 4), (4096, 4)]);
        let mode = ClockMode::Virtual(CostModel::native(SystemProfile::container()));
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, clock: mode, ..Default::default() })
            .unwrap();
        assert!(result.success());
        let reports = &result.ranks[0].reports;
        assert!(reports[1].1 > reports[0].1, "{reports:?}");
    }

    #[test]
    fn native_virtual_and_guest_virtual_agree_roughly() {
        // The same sweep, native vs guest, both under the container
        // profile's virtual clock: the guest may only be slower by the
        // per-call software overhead, not by orders of magnitude.
        let sweep = [(1024u32, 8u32)];
        let mode = ClockMode::Virtual(CostModel::native(SystemProfile::container()));
        let native = run_world_with(2, mode.clone(), move |comm| {
            run_native(&comm, ImbRoutine::PingPong, &sweep)
        });
        let wasm = build_guest(ImbRoutine::PingPong, &sweep);
        let result = Runner::new()
            .run(&wasm, JobConfig { np: 2, clock: mode, ..Default::default() })
            .unwrap();
        let native_t = native[0][0].1;
        let guest_t = result.ranks[0].reports[0].1;
        assert!(
            (guest_t / native_t) < 1.5 && (native_t / guest_t) < 1.5,
            "native {native_t}us vs guest {guest_t}us"
        );
    }
}

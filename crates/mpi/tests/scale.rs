//! Simulated-scale smoke: a 4096-rank virtual-clock world must be
//! runnable in a default test run (ISSUE 9 acceptance criterion).
//!
//! What makes this feasible is the small-stack option plus lazily
//! materialized per-rank state: 4096 ranks at the old fixed 32 MiB
//! stack would reserve 128 GiB of address space, while
//! [`mpi_substrate::SMALL_STACK_BYTES`] keeps the whole world under a
//! gigabyte. Collective *times* at this size come from
//! `schedule::cost`, which agrees with a threaded run to the bit
//! (`tests/cost.rs`); this one world keeps the threaded path itself
//! exercised at the size `bench_scale` prices.

use mpi_substrate::{
    run_world_configured, AllgatherAlgo, ClockMode, CollTuning, Datatype, ReduceOp,
    WorldConfig, SMALL_STACK_BYTES,
};
use netsim::{CostModel, SystemProfile};

const P: u32 = 4096;

#[test]
fn collectives_complete_at_4096_ranks() {
    let mode = ClockMode::Virtual(CostModel::native(SystemProfile::scale_cluster()));
    // Bruck keeps the one-byte allgather log₂(p)-round and latency-bound
    // — the regime it exists for.
    let cfg = WorldConfig::new(mode)
        .with_stack_size(SMALL_STACK_BYTES)
        .with_coll_tuning(CollTuning::new().force_allgather(AllgatherAlgo::Bruck));
    let times = run_world_configured(P, cfg, |comm| {
        comm.barrier().unwrap();

        // Allreduce: every rank contributes its rank id.
        let v = (comm.rank() as i32).to_le_bytes();
        let mut out = [0u8; 4];
        comm.allreduce(&v, &mut out, Datatype::Int, ReduceOp::Sum).unwrap();
        let expected: i32 = (0..P as i32).sum();
        assert_eq!(i32::from_le_bytes(out), expected, "rank {}", comm.rank());

        // Bcast from a non-zero root.
        let root = P - 1;
        let mut buf = if comm.rank() == root { [0x5Au8; 8] } else { [0u8; 8] };
        comm.bcast(&mut buf, root).unwrap();
        assert!(buf.iter().all(|&b| b == 0x5A));

        let mine = [comm.rank() as u8];
        let mut all = vec![0u8; P as usize];
        comm.allgather(&mine, &mut all).unwrap();
        for (r, &block) in all.iter().enumerate() {
            assert_eq!(block, r as u8, "block {r} at rank {}", comm.rank());
        }

        comm.wtime()
    });
    assert_eq!(times.len(), P as usize);
    // The virtual clock must have advanced on every rank.
    assert!(times.iter().all(|&t| t > 0.0));
}

//! Collective latency vs rank count under the virtual clock, emitting
//! `BENCH_scale.json` so the tuned schedules have a recorded scaling
//! trajectory.
//!
//! Usage: `bench_scale [out.json] [--check committed.json]` (default out
//! `BENCH_scale.json`).
//!
//! One virtual-clock world per rank count in 64→4096 (the
//! `scale_cluster` profile, ranks on [`SMALL_STACK_BYTES`] stacks), each
//! running barrier, bcast, allreduce, allgather — and alltoall up to
//! 1024 ranks — with the tuning table's default selection. The recorded
//! latency is the simulated time of one call, maxed over ranks (the
//! slowest rank bounds the collective), and each cell names the
//! algorithm the selection table picked so curve changes are
//! attributable to schedule changes.
//!
//! Because the schedules really execute under the deterministic LogP
//! clock, the numbers are reproducible run-to-run: with `--check`, a
//! fresh cell more than [`REGRESSION_TOLERANCE`] *slower* (higher µs)
//! than the committed baseline, or a cell present on one side only,
//! exits non-zero.

use mpi_substrate::{
    run_world_configured, ClockMode, CollTuning, Datatype, ReduceOp, WorldConfig,
    SMALL_STACK_BYTES,
};
use netsim::{CostModel, SystemProfile};
use mpiwasm_bench::gate::{self, CellSpec};

const RANK_COUNTS: [u32; 4] = [64, 256, 1024, 4096];
const BCAST_BYTES: usize = 64 << 10;
const ALLREDUCE_BYTES: usize = 64 << 10;
const ALLGATHER_BLOCK: usize = 8;
const ALLTOALL_BLOCK: usize = 8;
/// Pairwise-volume ceiling: alltoall moves p·block per rank, so the
/// 4096-rank cell is skipped to keep the sweep fast.
const ALLTOALL_MAX_RANKS: u32 = 1024;

/// Maximum tolerated slowdown vs the committed baseline. The virtual
/// clock is deterministic — a fresh run reproduces the committed file
/// exactly — so this is not noise headroom: a schedule or model change
/// that moves a cell by more must refresh `BENCH_scale.json` with it.
const REGRESSION_TOLERANCE: f64 = 0.01;

/// Simulated per-call latency (µs, max over ranks) of each collective at
/// `p` ranks, with the algorithm the default tuning table selected.
fn measure(p: u32) -> Vec<(&'static str, String, f64)> {
    let include_a2a = p <= ALLTOALL_MAX_RANKS;
    let mode = ClockMode::Virtual(CostModel::native(SystemProfile::scale_cluster()));
    let cfg = WorldConfig::new(mode).with_stack_size(SMALL_STACK_BYTES);
    let per_rank = run_world_configured(p, cfg, move |comm| {
        let mut lat = Vec::new();

        comm.barrier().unwrap();
        let t0 = comm.wtime();
        comm.barrier().unwrap();
        lat.push(comm.wtime() - t0);

        let mut buf = vec![0x11u8; BCAST_BYTES];
        comm.barrier().unwrap();
        let t0 = comm.wtime();
        comm.bcast(&mut buf, 0).unwrap();
        lat.push(comm.wtime() - t0);

        let send = vec![0u8; ALLREDUCE_BYTES];
        let mut out = vec![0u8; ALLREDUCE_BYTES];
        comm.barrier().unwrap();
        let t0 = comm.wtime();
        comm.allreduce(&send, &mut out, Datatype::Double, ReduceOp::Sum).unwrap();
        lat.push(comm.wtime() - t0);

        let mine = [0x22u8; ALLGATHER_BLOCK];
        let mut gathered = vec![0u8; ALLGATHER_BLOCK * comm.size() as usize];
        comm.barrier().unwrap();
        let t0 = comm.wtime();
        comm.allgather(&mine, &mut gathered).unwrap();
        lat.push(comm.wtime() - t0);

        if include_a2a {
            let send = vec![0x33u8; ALLTOALL_BLOCK * comm.size() as usize];
            let mut recv = vec![0u8; ALLTOALL_BLOCK * comm.size() as usize];
            comm.barrier().unwrap();
            let t0 = comm.wtime();
            comm.alltoall(&send, &mut recv).unwrap();
            lat.push(comm.wtime() - t0);
        }
        lat
    });

    let t = CollTuning::new();
    let mut cells: Vec<(&'static str, String)> = vec![
        ("barrier", "dissemination".to_string()),
        ("bcast", t.select_bcast(p, BCAST_BYTES).name().to_string()),
        ("allreduce", t.select_allreduce(p, ALLREDUCE_BYTES).name().to_string()),
        ("allgather", t.select_allgather(p, ALLGATHER_BLOCK).name().to_string()),
    ];
    if include_a2a {
        cells.push(("alltoall", t.select_alltoall(p, ALLTOALL_BLOCK).name().to_string()));
    }
    cells
        .into_iter()
        .enumerate()
        .map(|(i, (coll, algo))| {
            let us = per_rank.iter().map(|lat| lat[i]).fold(0.0, f64::max) * 1e6;
            (coll, algo, us)
        })
        .collect()
}

/// The gated cell: `(coll, np)` → simulated µs, lower is better.
const CELLS: CellSpec =
    CellSpec { section: "scale", key_fields: &["coll", "np"], value_field: "us" };

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_scale.json".to_string();
    let mut check_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--check" {
            check_path = Some(it.next().expect("--check needs a baseline path"));
        } else {
            out_path = a;
        }
    }

    let mut lines: Vec<String> = Vec::new();
    println!("== collective latency vs rank count (virtual clock, scale_cluster) ==");
    for p in RANK_COUNTS {
        for (coll, algo, us) in measure(p) {
            println!("np {p:>5}  {coll:>9}  {algo:>20}  {us:>12.2} us");
            lines.push(format!(
                "  {{\"section\": \"scale\", \"coll\": \"{coll}\", \"np\": {p}, \
                 \"algo\": \"{algo}\", \"us\": {us:.2}}}"
            ));
        }
    }

    let json = format!("[\n{}\n]\n", lines.join(",\n"));
    std::fs::write(&out_path, &json).expect("write json");
    println!("wrote {out_path}");

    if let Some(path) = check_path {
        gate::check_against(&path, &json, &CELLS, REGRESSION_TOLERANCE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_rows_are_gated_cells_keyed_by_collective_and_rank_count() {
        let json = concat!(
            "[\n",
            "  {\"section\": \"scale\", \"coll\": \"bcast\", \"np\": 64, \"algo\": \"binomial-segmented\", \"us\": 100.00},\n",
            "  {\"section\": \"scale\", \"coll\": \"barrier\", \"np\": 256, \"algo\": \"dissemination\", \"us\": 20.00}\n",
            "]\n"
        );
        let cells: Vec<(String, f64)> =
            gate::parse_cells(json, &CELLS).into_iter().map(|c| (c.key, c.value)).collect();
        assert_eq!(
            cells,
            vec![("scale/bcast/64".to_string(), 100.0), ("scale/barrier/256".to_string(), 20.0)]
        );
    }

    /// An unparsable or truncated baseline fails here, not only inside a
    /// `--check` run.
    #[test]
    fn the_committed_baseline_parses_to_nineteen_distinct_cells() {
        let cells = gate::parse_cells(include_str!("../../../../BENCH_scale.json"), &CELLS);
        assert_eq!(cells.len(), 19);
        let keys: std::collections::HashSet<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys.len(), cells.len(), "duplicate cell key");
        assert!(cells.iter().all(|c| c.value > 0.0));
    }
}

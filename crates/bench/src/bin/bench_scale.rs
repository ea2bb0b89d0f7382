//! Collective latency vs rank count under the virtual clock, emitting
//! `BENCH_scale.json` so the tuned schedules have a recorded scaling
//! trajectory.
//!
//! Usage: `bench_scale [out.json] [--check committed.json]` (default out
//! `BENCH_scale.json`).
//!
//! For each rank count in 64→4096 on the `scale_cluster` profile: barrier,
//! bcast, allreduce, allgather and alltoall with the tuning table's
//! default selection, each measured the way a benchmark times one call —
//! a barrier, then the clock, then the collective. The recorded latency
//! is the simulated time of that call, maxed over ranks (the slowest rank
//! bounds the collective), and each cell names the algorithm the
//! selection table picked so curve changes are attributable to schedule
//! changes.
//!
//! Nothing runs: every call is priced by `schedule::cost`, which walks all
//! `p` schedules in one thread under the executor's virtual-clock rule
//! and agrees with a threaded run to the bit (`crates/mpi/tests/cost.rs`),
//! each call entering at the clocks the previous one left. With
//! `--check`, a fresh cell more than [`REGRESSION_TOLERANCE`] *slower*
//! (higher µs) than the committed baseline, or a cell present on one side
//! only, exits non-zero.

use mpi_substrate::schedule::{cost, Schedule};
use mpi_substrate::{CollKind, CollTuning};
use mpiwasm_bench::gate::{self, CellSpec};
use netsim::{CostModel, SystemProfile};

const RANK_COUNTS: [u32; 4] = [64, 256, 1024, 4096];
const BCAST_BYTES: usize = 64 << 10;
/// Of doubles.
const ALLREDUCE_BYTES: usize = 64 << 10;
const ALLGATHER_BLOCK: usize = 8;
const ALLTOALL_BLOCK: usize = 8;

/// Maximum tolerated slowdown vs the committed baseline. The virtual
/// clock is deterministic — a fresh run reproduces the committed file
/// exactly — so this is not noise headroom: a schedule or model change
/// that moves a cell by more must refresh `BENCH_scale.json` with it.
const REGRESSION_TOLERANCE: f64 = 0.01;

/// Simulated per-call latency (µs, max over ranks) of each collective at
/// `p` ranks, with the algorithm the default tuning table selected.
fn measure(p: u32) -> Vec<(&'static str, String, f64)> {
    let model = CostModel::native(SystemProfile::scale_cluster());
    let t = CollTuning::new();
    // One call on every rank, entering at the clocks the last one left.
    let call = |clocks: &mut Vec<f64>, kind: CollKind, n: usize| {
        let scheds = Schedule::every_rank(t.algo(kind, p, n, 8), p, 0, n);
        *clocks = cost(&scheds, &model, clocks);
        scheds[0].algorithm().name()
    };
    let mut clocks = vec![0.0; p as usize];
    [
        (CollKind::Barrier, 0),
        (CollKind::Bcast, BCAST_BYTES),
        (CollKind::Allreduce, ALLREDUCE_BYTES),
        (CollKind::Allgather, ALLGATHER_BLOCK),
        (CollKind::Alltoall, ALLTOALL_BLOCK),
    ]
    .into_iter()
    .map(|(kind, n)| {
        call(&mut clocks, CollKind::Barrier, 0);
        // What `MPI_Wtime` reads before and after the call, in seconds.
        let t0: Vec<f64> = clocks.iter().map(|us| us / 1e6).collect();
        let algo = call(&mut clocks, kind, n);
        let s = clocks.iter().zip(&t0).map(|(us, t0)| us / 1e6 - t0).fold(0.0, f64::max);
        (kind.name(), algo.to_string(), s * 1e6)
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
    fn the_committed_baseline_parses_to_twenty_distinct_cells() {
        let cells = gate::parse_cells(include_str!("../../../../BENCH_scale.json"), &CELLS);
        assert_eq!(cells.len(), 20);
        let keys: std::collections::HashSet<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys.len(), cells.len(), "duplicate cell key");
        assert!(cells.iter().all(|c| c.value > 0.0));
    }
}

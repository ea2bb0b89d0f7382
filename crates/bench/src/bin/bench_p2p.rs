//! Point-to-point protocol benchmark: eager vs rendezvous bandwidth and
//! communication/computation overlap, written as JSON rows beside the
//! printed table.
//!
//! Usage: `bench_p2p [out.json]` (default out `BENCH_p2p.json`).
//!
//! Three sections:
//!
//! * **bandwidth** — real-clock PingPong at sizes straddling the
//!   rendezvous threshold, interleaved A/B between the progress engine's
//!   default protocol and the seed's eager-only behavior
//!   (`ProtocolConfig::eager_only()`), best-of-N per arm. Above the
//!   threshold the rendezvous path copies each payload once
//!   (sender buffer → receive buffer) instead of twice (sender → mailbox
//!   heap box → receive buffer), which is the bandwidth win.
//! * **overlap** — Iallreduce, Isend/Irecv, and IMB-NBC-style Ialltoall
//!   overlap kernels (`hpc_benchmarks::overlap`), blocking vs nonblocking
//!   per-iteration times, best-of-N.
//! * **imb_nbc_smoke** — the Wasm overlap guests (Iallreduce and
//!   Ialltoall) through the full embedder under both clock modes (the CI
//!   smoke for the nonblocking guest ABI; a failed guest aborts the
//!   binary).
//!
//! Nothing here is gated: the cells are wall clock on whatever machine runs
//! them (the committed baseline this binary used to `--check` against was
//! red on unchanged code), and wall clock is measured by `benchmark/`.

use std::sync::Arc;

use hpc_benchmarks::overlap::{self, OverlapParams, OverlapResult};
use mpi_substrate::{
    run_world_with_protocol, ClockMode, Comm, ProtocolConfig, Source, Tag,
};
use mpiwasm::{JobConfig, Runner};
use netsim::{CostModel, SystemProfile};

const SIZES: [usize; 5] = [4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];
const REPS: usize = 5;
/// Best-of reps for the overlap kernels.
const OVERLAP_REPS: usize = 3;

/// One timed pingpong run: returns the best per-iteration one-way time in
/// ns for `bytes` under `protocol`.
fn pingpong_ns(bytes: usize, protocol: ProtocolConfig) -> f64 {
    let iters: usize = if bytes >= 1 << 20 { 20 } else { 100 };
    let out = run_world_with_protocol(2, ClockMode::Real, protocol, move |comm| {
        let sbuf = vec![0x5au8; bytes];
        let mut rbuf = vec![0u8; bytes];
        comm.barrier().unwrap();
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            if comm.rank() == 0 {
                comm.send(&sbuf, 1, 0).unwrap();
                comm.recv(&mut rbuf, Source::Rank(1), Tag::Value(0)).unwrap();
            } else {
                comm.recv(&mut rbuf, Source::Rank(0), Tag::Value(0)).unwrap();
                comm.send(&sbuf, 0, 0).unwrap();
            }
        }
        t0.elapsed().as_nanos() as f64 / (2.0 * iters as f64)
    });
    // Rank 0's measurement (both agree to within the final barrier).
    out[0]
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e9 / 1e6
}

/// Best-of-N of an overlap kernel at `np` ranks, reduced across ranks by
/// max (slowest rank bounds the iteration).
fn overlap_best(
    np: u32,
    params: OverlapParams,
    kernel: impl Fn(&Comm, OverlapParams) -> OverlapResult + Send + Sync + Copy + 'static,
) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..OVERLAP_REPS {
        let out = run_world_with_protocol(
            np,
            ClockMode::Real,
            ProtocolConfig::default_real(),
            move |comm| kernel(&comm, params),
        );
        let block = out.iter().map(|r| r.blocking_us).fold(0.0, f64::max);
        let nb = out.iter().map(|r| r.nonblocking_us).fold(0.0, f64::max);
        best.0 = best.0.min(block);
        best.1 = best.1.min(nb);
    }
    best
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_p2p.json".to_string());

    let mut lines: Vec<String> = Vec::new();

    // --- bandwidth: interleaved A/B, default (rendezvous) vs eager-only -
    println!("== p2p bandwidth (PingPong, np=2, real clock) ==");
    for &bytes in &SIZES {
        let mut best_rdv = f64::INFINITY;
        let mut best_eager = f64::INFINITY;
        for _ in 0..REPS {
            // Interleave the arms so scheduler noise hits both equally.
            best_rdv = best_rdv.min(pingpong_ns(bytes, ProtocolConfig::default_real()));
            best_eager = best_eager.min(pingpong_ns(bytes, ProtocolConfig::eager_only()));
        }
        let (r, e) = (mb_per_s(bytes, best_rdv), mb_per_s(bytes, best_eager));
        println!(
            "{:>9} B  default {:>9.1} MB/s   eager-only {:>9.1} MB/s   ratio {:.2}x",
            bytes,
            r,
            e,
            r / e
        );
        lines.push(format!(
            "  {{\"section\": \"bandwidth\", \"bytes\": {bytes}, \
             \"default_mb_s\": {r:.1}, \"eager_only_mb_s\": {e:.1}}}"
        ));
    }

    // --- overlap kernels -------------------------------------------------
    println!("== overlap (np=4 Iallreduce/Ialltoall, np=2 p2p, real clock) ==");
    let coll_params = OverlapParams {
        bytes: 64 << 10,
        iters: 10,
        compute_units: 200_000,
        virtual_compute_us: 50.0,
    };
    let (coll_block, coll_nb) = overlap_best(4, coll_params, overlap::run_native);
    println!("iallreduce: blocking {coll_block:.1} us/iter, nonblocking {coll_nb:.1} us/iter");
    lines.push(format!(
        "  {{\"section\": \"overlap\", \"kernel\": \"iallreduce\", \
         \"blocking_us\": {coll_block:.2}, \"nonblocking_us\": {coll_nb:.2}}}"
    ));

    let p2p_params = OverlapParams {
        bytes: 1 << 20,
        iters: 10,
        compute_units: 200_000,
        virtual_compute_us: 50.0,
    };
    let (p2p_block, p2p_nb) = overlap_best(2, p2p_params, overlap::run_native_p2p);
    println!("p2p 1MiB:   blocking {p2p_block:.1} us/iter, nonblocking {p2p_nb:.1} us/iter");
    lines.push(format!(
        "  {{\"section\": \"overlap\", \"kernel\": \"p2p_1mib\", \
         \"blocking_us\": {p2p_block:.2}, \"nonblocking_us\": {p2p_nb:.2}}}"
    ));

    // IMB-style Ialltoall: 96 KiB per-peer blocks are rendezvous-sized,
    // so the kernel measures how much of the pairwise exchange the
    // request state machine hides behind compute.
    let a2a_params = OverlapParams {
        bytes: 96 << 10,
        iters: 10,
        compute_units: 200_000,
        virtual_compute_us: 50.0,
    };
    let (a2a_block, a2a_nb) = overlap_best(4, a2a_params, overlap::run_native_alltoall);
    println!("ialltoall:  blocking {a2a_block:.1} us/iter, nonblocking {a2a_nb:.1} us/iter");
    lines.push(format!(
        "  {{\"section\": \"overlap\", \"kernel\": \"ialltoall_96k\", \
         \"blocking_us\": {a2a_block:.2}, \"nonblocking_us\": {a2a_nb:.2}}}"
    ));

    // --- IMB-NBC guest smoke --------------------------------------------
    println!("== imb nbc guest smoke (np=4, real + virtual clocks) ==");
    let smoke_params = OverlapParams {
        bytes: 4096,
        iters: 4,
        compute_units: 1000,
        virtual_compute_us: 5.0,
    };
    let runner = Runner::new();
    for (kernel, wasm) in [
        ("iallreduce", Arc::new(overlap::build_guest(smoke_params))),
        ("ialltoall", Arc::new(overlap::build_alltoall_guest(smoke_params))),
    ] {
        for (name, clock) in [
            ("real", ClockMode::Real),
            ("virtual", ClockMode::Virtual(CostModel::native(SystemProfile::container()))),
        ] {
            let result = runner
                .run(&wasm, JobConfig { np: 4, clock, ..Default::default() })
                .expect("overlap guest launch");
            assert!(
                result.success(),
                "{kernel} guest failed under {name} clock: {:?}",
                result.ranks.iter().filter_map(|r| r.error.clone()).collect::<Vec<_>>()
            );
            let reports = &result.ranks[0].reports;
            println!(
                "{kernel:>10} {name:>8} clock: blocking {:.1} us/iter, nonblocking {:.1} us/iter",
                reports[0].1, reports[1].1
            );
            lines.push(format!(
                "  {{\"section\": \"imb_nbc_smoke\", \"kernel\": \"{kernel}\", \
                 \"clock\": \"{name}\", \
                 \"blocking_us\": {:.2}, \"nonblocking_us\": {:.2}}}",
                reports[0].1, reports[1].1
            ));
        }
    }

    let json = format!("[\n{}\n]\n", lines.join(",\n"));
    std::fs::write(&out_path, &json).expect("write json");
    println!("wrote {out_path}");
}

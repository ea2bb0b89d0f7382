//! Figure 7: MPIWasm vs the Faasm-style baseline on PingPong.
//!
//! Model curves for the paper's axes, plus a *real* wall-clock comparison:
//! the broker-mediated platform vs the embedder on this host.
//!
//! The MPIWasm curve adds the embedder overhead per call that the traced
//! `benchmark/` run measured; the executed penalty divides two wall-clock
//! timings of this run, and does not repeat exactly from run to run.

use std::process::ExitCode;

use faasm_sim::{FaasmModel, FaasmPlatform};
use hpc_benchmarks::{imb, imb_message_sizes};
use mpiwasm::{JobConfig, Runner};
use mpiwasm_bench::figures::imb_model_series;
use mpiwasm_bench::measure::quick;
use mpiwasm_bench::traced::Measured;
use mpiwasm_bench::{emit, geometric_mean, plot::ascii_chart, Figure};
use netsim::SystemProfile;

fn main() -> ExitCode {
    emit(&Measured::default_dir(), fig7)
}

fn fig7(m: &Measured) -> Figure {
    let profile = SystemProfile::supermuc_ng();
    let overhead_us = m.call_overhead_us();
    println!("Figure 7 — MPIWasm vs Faasm, PingPong on {}", profile.name);
    println!("measured embedder overhead: {overhead_us:.3} us/call\n");

    let sizes = imb_message_sizes();
    let faasm = FaasmModel::new(profile.clone());
    let mpiwasm_pts =
        imb_model_series(&profile, imb::ImbRoutine::PingPong, 2, &sizes, overhead_us);

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut mpiwasm_series = Vec::new();
    let mut faasm_series = Vec::new();
    for p in &mpiwasm_pts {
        let f_us = faasm.pingpong(p.bytes as usize).as_micros();
        ratios.push(f_us / p.wasm_us);
        mpiwasm_series.push(p.wasm_us);
        faasm_series.push(f_us);
        rows.push(vec![
            p.bytes.to_string(),
            format!("{:.4}", p.wasm_us),
            format!("{:.4}", f_us),
        ]);
    }
    let labels: Vec<String> = sizes.iter().map(|b| format!("{}", b.ilog2())).collect();
    println!(
        "{}",
        ascii_chart(
            "PingPong iteration time (us): MPIWasm vs Faasm",
            &labels,
            &[("MPIWasm", &mpiwasm_series), ("Faasm", &faasm_series)],
            12,
        )
    );
    println!(
        "GM speedup of MPIWasm over Faasm: {:.2}x (paper: 4.28x)\n",
        geometric_mean(&ratios)
    );

    // Real wall-clock cross-check on this host.
    let iters = if quick() { 50 } else { 400 };
    let bytes = 1024usize;
    let broker_us = FaasmPlatform::pingpong_us(bytes, iters);
    let wasm = imb::build_guest(imb::ImbRoutine::PingPong, &[(bytes as u32, iters)]);
    let result = Runner::new()
        .run(&wasm, JobConfig { np: 2, ..Default::default() })
        .unwrap();
    assert!(result.success());
    let embedder_us = result.ranks[0].reports[0].1;
    println!("executed on this host at {bytes}B x {iters} iters:");
    println!("  embedder (direct MPI):   {embedder_us:>8.2} us one-way");
    println!("  broker platform (Faasm): {broker_us:>8.2} us one-way");
    println!(
        "  measured architecture penalty: {:.2}x (wall clock, this run)",
        broker_us / embedder_us
    );

    let header = "bytes,mpiwasm_us,faasm_us".into();
    Figure { name: "fig7.csv", text: String::new(), header, rows, ratios: vec![] }
}

//! Figure 3: Intel MPI Benchmarks, native vs Wasm, on the HPC-system
//! profile (SuperMUC-NG, OmniPath) — all nine routines over the
//! 2^0..2^22-byte sweep, at the paper's rank counts (768 and 6144 for the
//! dual-panel routines).
//!
//! A collective's time is the schedule the substrate runs, walked under
//! the virtual clock (`schedule::cost`); point-to-point times come from
//! the interconnect model. The Wasm series adds the embedder overhead per
//! MPI call that the traced `benchmark/` run measured. Small-scale executed
//! runs (threaded ranks under virtual clocks) are printed beside the model.

use std::process::ExitCode;

use hpc_benchmarks::{imb, imb_message_sizes};
use mpiwasm_bench::figures::{imb_model_series, max_bandwidth_gib};
use mpiwasm_bench::measure::{imb_executed_virtual, quick};
use mpiwasm_bench::traced::Measured;
use mpiwasm_bench::{emit, gm_slowdown, plot::ascii_chart, Figure};
use netsim::SystemProfile;

fn main() -> ExitCode {
    emit(&Measured::default_dir(), fig3)
}

fn fig3(m: &Measured) -> Figure {
    let profile = SystemProfile::supermuc_ng();
    println!("Figure 3 — IMB on {}", profile.name);
    let overhead_us = m.call_overhead_us();
    println!(
        "measured embedder overhead: trampoline {:.3}us + translation {:.3}us = {overhead_us:.3}us/call\n",
        m.trampoline_ns / 1e3,
        m.translate_ns / 1e3,
    );

    let sizes = imb_message_sizes();
    let mut rows = Vec::new();
    let mut summary = Vec::new();

    for routine in imb::ImbRoutine::ALL {
        // PingPong runs on 2 ranks; Reduce/Gather/Scatter additionally at
        // 768 ranks in the paper; everything else at 6144.
        let rank_counts: &[u32] = match routine {
            imb::ImbRoutine::PingPong => &[2],
            imb::ImbRoutine::Reduce | imb::ImbRoutine::Gather | imb::ImbRoutine::Scatter => {
                &[768, 6144]
            }
            _ => &[6144],
        };
        for &ranks in rank_counts {
            // The aggregate-footprint routines cap at 2^17 per rank at
            // 6144 ranks, as the paper's axes do.
            let max_log = if routine.scales_with_ranks() && ranks >= 768 { 17 } else { 22 };
            let sizes_here: Vec<u32> =
                sizes.iter().copied().filter(|b| b.ilog2() <= max_log).collect();
            let pts = imb_model_series(&profile, routine, ranks, &sizes_here, overhead_us);
            let native: Vec<f64> = pts.iter().map(|p| p.native_us).collect();
            let wasm: Vec<f64> = pts.iter().map(|p| p.wasm_us).collect();
            let slowdown = gm_slowdown(&native, &wasm);
            summary.push((routine.name(), ranks, slowdown));
            let labels: Vec<String> =
                sizes_here.iter().map(|b| format!("{}", b.ilog2())).collect();
            println!(
                "{}",
                ascii_chart(
                    &format!(
                        "{} {} ranks — iteration time (us) vs log2(bytes)",
                        routine.name(),
                        ranks
                    ),
                    &labels,
                    &[("Native", &native), ("WASM", &wasm)],
                    10,
                )
            );
            for p in &pts {
                rows.push(vec![
                    routine.name().to_string(),
                    ranks.to_string(),
                    p.bytes.to_string(),
                    format!("{:.4}", p.native_us),
                    format!("{:.4}", p.wasm_us),
                ]);
            }
            if routine == imb::ImbRoutine::PingPong {
                println!(
                    "  max bandwidth: native {:.2} GiB/s, wasm {:.2} GiB/s (paper: 12.80 / 13.44)\n",
                    max_bandwidth_gib(&pts, false),
                    max_bandwidth_gib(&pts, true)
                );
            }
        }
    }

    println!("\nGM slowdowns (paper §4.5: PingPong 0.05, SendRecv 0.06, Bcast 0.13,");
    println!("Allreduce 0.06, Allgather 0.06, Alltoall 0.10, Reduce 0.12/0.05,");
    println!("Gather 0.14/0.10, Scatter 0.05/0.08):");
    for (name, ranks, s) in &summary {
        println!("  {name:<10} {ranks:>5} ranks: {s:+.3}");
    }

    // Model validation: executed threaded ranks under virtual clocks.
    let np = if quick() { 4 } else { 8 };
    println!("\nmodel validation at {np} executed ranks (virtual clocks):");
    for routine in [imb::ImbRoutine::Allreduce, imb::ImbRoutine::Bcast] {
        let sweep: Vec<(u32, u32)> = [64u32, 4096].iter().map(|&b| (b, 4)).collect();
        let (native, wasm) =
            imb_executed_virtual(&profile, routine, np, &sweep, overhead_us);
        for ((log, n_us), (_, w_us)) in native.iter().zip(&wasm) {
            println!(
                "  {:<10} 2^{log:<2}B executed: native {n_us:>8.3}us wasm {w_us:>8.3}us (wasm/native {:.3})",
                routine.name(),
                w_us / n_us
            );
        }
    }

    let header = "routine,ranks,bytes,native_us,wasm_us".into();
    Figure { name: "fig3.csv", text: String::new(), header, rows, ratios: vec![] }
}

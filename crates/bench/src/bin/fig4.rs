//! Figure 4: selected IMB routines and HPCG on the AWS Graviton2 profile
//! (single aarch64 node, 32 ranks). The same Wasm modules run unmodified
//! against this profile — the portability claim of Figure 1, demonstrated
//! by executing identical module bytes under a different system model.

use hpc_benchmarks::{hpcg, imb, imb_message_sizes};
use mpiwasm_bench::figures::{hpcg_scaling, imb_model_series, max_bandwidth_gib};
use mpiwasm_bench::measure::{measure_embedder_overhead, measure_hpcg_kernel, quick};
use mpiwasm_bench::{gm_slowdown, plot::ascii_chart, write_csv, HPCG_WASM_COMPUTE_FACTOR};
use netsim::SystemProfile;

fn main() {
    let profile = SystemProfile::graviton2();
    println!("Figure 4 — {}", profile.name);
    let overhead = measure_embedder_overhead();
    println!("measured embedder overhead: {:.3}us/call\n", overhead.total_us());

    let sizes = imb_message_sizes();
    let mut rows = Vec::new();

    for routine in [
        imb::ImbRoutine::PingPong,
        imb::ImbRoutine::SendRecv,
        imb::ImbRoutine::Allreduce,
        imb::ImbRoutine::Allgather,
        imb::ImbRoutine::Alltoall,
    ] {
        let ranks = if routine == imb::ImbRoutine::PingPong { 2 } else { 32 };
        let pts = imb_model_series(&profile, routine, ranks, &sizes, &overhead);
        let native: Vec<f64> = pts.iter().map(|p| p.native_us).collect();
        let wasm: Vec<f64> = pts.iter().map(|p| p.wasm_us).collect();
        let labels: Vec<String> = sizes.iter().map(|b| format!("{}", b.ilog2())).collect();
        println!(
            "{}",
            ascii_chart(
                &format!("{} {ranks} ranks — iteration time (us)", routine.name()),
                &labels,
                &[("Native", &native), ("WASM", &wasm)],
                10,
            )
        );
        println!("  GM slowdown: {:+.3}\n", gm_slowdown(&native, &wasm));
        if routine == imb::ImbRoutine::PingPong {
            println!(
                "  max bandwidth: native {:.2} GiB/s, wasm {:.2} GiB/s (paper: 10.98 / 10.61)\n",
                max_bandwidth_gib(&pts, false),
                max_bandwidth_gib(&pts, true)
            );
        }
        for p in &pts {
            rows.push(vec![
                routine.name().to_string(),
                ranks.to_string(),
                p.bytes.to_string(),
                format!("{:.4}", p.native_us),
                format!("{:.4}", p.wasm_us),
                "-".into(),
            ]);
        }
    }

    // Figure 4f: HPCG GFLOP/s and bandwidth, 1..32 ranks.
    let params = if quick() {
        hpcg::HpcgParams { nx: 8, ny: 8, nz: 8, iters: 5 }
    } else {
        hpcg::HpcgParams::default()
    };
    let (t_native, t_wasm) = measure_hpcg_kernel(params);
    println!(
        "HPCG kernel per iteration: native {:.3}ms, guest {:.3}ms — measured {:.2}x; projected {HPCG_WASM_COMPUTE_FACTOR}x compiled (HPCG_WASM_COMPUTE_FACTOR)",
        t_native * 1e3,
        t_wasm * 1e3,
        t_wasm / t_native
    );
    let ranks = [1u32, 2, 4, 8, 16, 32];
    let pts = hpcg_scaling(&profile, params, &ranks, t_native, t_wasm, &overhead);
    println!("\n  HPCG on Graviton2 (weak scaling), GFLOP/s and GB/s");
    println!(
        "  {:>6} {:>10} {:>14} {:>15} {:>10} {:>14} {:>15}",
        "ranks", "native GF", "wasm measured", "wasm projected", "native GB", "wasm measured", "wasm projected"
    );
    for p in &pts {
        println!(
            "  {:>6} {:>10.3} {:>14.3} {:>15.3} {:>10.2} {:>14.2} {:>15.2}",
            p.ranks,
            p.native_gflops,
            p.wasm_measured_gflops,
            p.wasm_projected_gflops,
            p.native_gbs,
            p.wasm_measured_gbs,
            p.wasm_projected_gbs
        );
        rows.push(vec![
            "HPCG".into(),
            p.ranks.to_string(),
            "-".into(),
            format!("{:.4}", p.native_gflops),
            format!("{:.4}", p.wasm_measured_gflops),
            format!("{:.4}", p.wasm_projected_gflops),
        ]);
    }

    // The IMB rows are the interconnect model plus the measured embedder
    // overhead — no projection constant — so they have no projected value.
    let header = format!(
        "series,ranks,bytes,native,wasm_measured,wasm_projected(HPCG_WASM_COMPUTE_FACTOR={HPCG_WASM_COMPUTE_FACTOR})"
    );
    let path = write_csv("fig4.csv", &header, &rows);
    println!("\nwrote {}", path.display());
}

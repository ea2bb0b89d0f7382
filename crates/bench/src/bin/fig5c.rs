//! Figure 5c: HPCG GFLOP/s and memory bandwidth on the HPC system, small
//! panel (4..144 ranks) and large panel (192..6144 ranks), the guest
//! series as measured and as projected. The projected series shows the
//! paper's headline effect: Wasm tracks native up to ~192 ranks, then the
//! per-Allreduce translation cost erodes performance to a ~14% gap at
//! 6144 ranks.

use hpc_benchmarks::hpcg;
use mpiwasm_bench::figures::hpcg_scaling;
use mpiwasm_bench::measure::{measure_embedder_overhead, measure_hpcg_kernel, quick};
use mpiwasm_bench::{plot::ascii_chart, write_csv, HPCG_WASM_COMPUTE_FACTOR};
use netsim::SystemProfile;

fn main() {
    let profile = SystemProfile::supermuc_ng();
    let overhead = measure_embedder_overhead();
    println!("Figure 5c — HPCG on {}\n", profile.name);

    let params = if quick() {
        hpcg::HpcgParams { nx: 8, ny: 8, nz: 8, iters: 5 }
    } else {
        hpcg::HpcgParams::default()
    };
    let (t_native, t_wasm) = measure_hpcg_kernel(params);
    println!(
        "measured HPCG kernel: native {:.3}ms/iter, guest {:.3}ms/iter — measured {:.2}x; projected {HPCG_WASM_COMPUTE_FACTOR}x compiled (HPCG_WASM_COMPUTE_FACTOR)",
        t_native * 1e3,
        t_wasm * 1e3,
        t_wasm / t_native
    );
    println!("measured embedder overhead: {:.3}us per MPI call\n", overhead.total_us());

    let mut rows = Vec::new();
    for (panel, ranks) in [
        ("small scale", vec![4u32, 8, 16, 48, 96, 144]),
        ("large scale", vec![192u32, 768, 1536, 3072, 6144]),
    ] {
        let pts = hpcg_scaling(&profile, params, &ranks, t_native, t_wasm, &overhead);
        println!("  HPCG {panel}, GFLOP/s and GB/s:");
        println!(
            "  {:>6} {:>10} {:>14} {:>15} {:>9} {:>10} {:>14} {:>15}",
            "ranks", "native GF", "wasm measured", "wasm projected", "proj gap", "native GB", "wasm measured", "wasm projected"
        );
        for p in &pts {
            let gap = 1.0 - p.wasm_projected_gflops / p.native_gflops;
            println!(
                "  {:>6} {:>10.2} {:>14.2} {:>15.2} {:>8.1}% {:>10.1} {:>14.1} {:>15.1}",
                p.ranks,
                p.native_gflops,
                p.wasm_measured_gflops,
                p.wasm_projected_gflops,
                gap * 100.0,
                p.native_gbs,
                p.wasm_measured_gbs,
                p.wasm_projected_gbs
            );
            rows.push(vec![
                p.ranks.to_string(),
                format!("{:.3}", p.native_gflops),
                format!("{:.3}", p.wasm_measured_gflops),
                format!("{:.3}", p.wasm_projected_gflops),
                format!("{:.3}", p.native_gbs),
                format!("{:.3}", p.wasm_measured_gbs),
                format!("{:.3}", p.wasm_projected_gbs),
            ]);
        }
        let labels: Vec<String> = ranks.iter().map(|r| r.to_string()).collect();
        let native: Vec<f64> = pts.iter().map(|p| p.native_gflops).collect();
        let measured: Vec<f64> = pts.iter().map(|p| p.wasm_measured_gflops).collect();
        let projected: Vec<f64> = pts.iter().map(|p| p.wasm_projected_gflops).collect();
        println!(
            "{}",
            ascii_chart(
                &format!("HPCG GFLOP/s, {panel}"),
                &labels,
                &[("Native", &native), ("WASM measured", &measured), ("WASM projected", &projected)],
                9
            )
        );
    }
    println!("  (paper: parity through 192 ranks, 14% GFLOP/s reduction at 6144 ranks,");
    println!("   driven by Allreduce frequency x datatype-translation cost)");
    let header = format!(
        "ranks,native_gflops,wasm_measured_gflops,wasm_projected_gflops(HPCG_WASM_COMPUTE_FACTOR={f}),\
         native_gbs,wasm_measured_gbs,wasm_projected_gbs(HPCG_WASM_COMPUTE_FACTOR={f})",
        f = HPCG_WASM_COMPUTE_FACTOR
    );
    let path = write_csv("fig5c.csv", &header, &rows);
    println!("wrote {}", path.display());
}

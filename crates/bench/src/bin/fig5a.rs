//! Figure 5a: NPB IS total Mop/s over rank counts, and NPB DT throughput
//! per topology with the SIMD ablation (Native vs WASM w/o SIMD vs WASM
//! w/ SIMD), every guest series as measured and as projected.

use hpc_benchmarks::{npb_dt, npb_is};
use mpiwasm_bench::figures::{dt_figure, is_scaling};
use mpiwasm_bench::measure::{measure_dt, measure_embedder_overhead, measure_is, quick};
use mpiwasm_bench::{write_csv, WASM_COMPUTE_FACTOR, WASM_SIMD_GAP_FACTOR};
use netsim::SystemProfile;

fn main() {
    let profile = SystemProfile::supermuc_ng();
    let overhead = measure_embedder_overhead();
    println!("Figure 5a — NPB IS and DT on {}\n", profile.name);

    // --- IS -------------------------------------------------------------
    let np = if quick() { 2 } else { 4 };
    let is_params = if quick() {
        npb_is::IsParams { keys_per_rank: 1024, max_key: 1 << 10, iters: 2 }
    } else {
        npb_is::IsParams { keys_per_rank: 8192, max_key: 1 << 14, iters: 3 }
    };
    let (native_s, wasm_s, total) = measure_is(np, is_params);
    println!(
        "IS executed at {np} ranks: native {:.1}ms, guest {:.1}ms, {} keys ranked",
        native_s * 1e3,
        wasm_s * 1e3,
        total
    );
    // Per-rank compute time per iteration, the scaling model's input.
    let t_native = native_s / is_params.iters as f64;
    let t_wasm = wasm_s / is_params.iters as f64;
    println!(
        "  guest/native kernel ratio: measured {:.2}x; projected {WASM_COMPUTE_FACTOR}x compiled (WASM_COMPUTE_FACTOR)",
        t_wasm / t_native
    );

    let rank_counts = [64u32, 128, 256, 512, 1024];
    let pts = is_scaling(&profile, 1 << 16, &rank_counts, t_native, t_wasm, &overhead);
    println!("\n  IS total Mop/s (keys ranked per second, millions):");
    println!(
        "  {:>6} {:>12} {:>14} {:>15} {:>15}",
        "ranks", "Native", "WASM measured", "WASM projected", "projected ratio"
    );
    let mut rows = Vec::new();
    for p in &pts {
        println!(
            "  {:>6} {:>12.1} {:>14.1} {:>15.1} {:>15.3}",
            p.ranks,
            p.native_mops,
            p.wasm_measured_mops,
            p.wasm_projected_mops,
            p.wasm_projected_mops / p.native_mops
        );
        rows.push(vec![
            "IS".into(),
            p.ranks.to_string(),
            format!("{:.2}", p.native_mops),
            format!("{:.2}", p.wasm_measured_mops),
            format!("{:.2}", p.wasm_projected_mops),
        ]);
    }
    println!("  (paper: WASM 8260 vs native 8546 average Mop/s — ~3% gap)");

    // --- DT -------------------------------------------------------------
    let dt_np = if quick() { 4 } else { 8 };
    let dt_params = if quick() {
        npb_dt::DtParams { elems: 512, iters: 2, ..Default::default() }
    } else {
        npb_dt::DtParams { elems: 8192, iters: 4, ..Default::default() }
    };
    println!("\n  DT total throughput (MB/s) per topology; projected with WASM_SIMD_GAP_FACTOR = {WASM_SIMD_GAP_FACTOR}:");
    println!(
        "  {:>4} {:>10} {:>14} {:>14} {:>14} {:>14} {:>13}",
        "topo", "Native", "no SIMD meas.", "SIMD measured", "no SIMD proj.", "SIMD proj.", "SIMD speedup"
    );
    let mut measured = Vec::new();
    for topology in npb_dt::Topology::ALL {
        let p = npb_dt::DtParams { topology, ..dt_params };
        let (native, scalar, simd) = measure_dt(dt_np, p);
        measured.push((topology, native, scalar, simd));
    }
    for row in dt_figure(dt_params, dt_np, &measured) {
        println!(
            "  {:>4} {:>10.1} {:>14.1} {:>14.1} {:>14.1} {:>14.1} {:>12.2}x",
            row.topology.short_name(),
            row.native_mbs,
            row.wasm_measured_mbs,
            row.wasm_simd_measured_mbs,
            row.wasm_projected_mbs,
            row.wasm_simd_projected_mbs,
            row.measured_simd_speedup
        );
        rows.push(vec![
            format!("DT-{}", row.topology.short_name()),
            dt_np.to_string(),
            format!("{:.2}", row.native_mbs),
            format!("{:.2}", row.wasm_simd_measured_mbs),
            format!("{:.2}", row.wasm_simd_projected_mbs),
        ]);
    }
    println!("  (paper: SIMD gives 1.36x over no-SIMD; native leads both — 128- vs 512-bit vectors)");

    let header = format!(
        "series,ranks,native,wasm_measured,wasm_projected(IS:WASM_COMPUTE_FACTOR={WASM_COMPUTE_FACTOR};DT:WASM_SIMD_GAP_FACTOR={WASM_SIMD_GAP_FACTOR})"
    );
    let path = write_csv("fig5a.csv", &header, &rows);
    println!("\nwrote {}", path.display());
}

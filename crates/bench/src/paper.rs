//! Table 1 and Figures 4, 5a and 5c: pure functions of one traced run
//! ([`Measured`]), the netsim profiles and `schedule::cost`.

use std::fmt::Write as _;

use hpc_benchmarks::{imb, imb_message_sizes};
use netsim::SystemProfile;

use crate::figures::{dt_figure, hpcg_scaling, imb_model_series, is_scaling, max_bandwidth_gib};
use crate::traced::{Kernel, Measured, DT, HPCG, IS};
use crate::{gm_slowdown, plot::ascii_chart, Figure};

/// `writeln!` into a figure's text (growing a `String` cannot fail).
macro_rules! say {
    ($text:expr, $($arg:tt)*) => {
        let _ = writeln!($text, $($arg)*);
    };
}

/// Prints the measured kernel a guest series rests on; returns its
/// guest/native ratio, from the per-iteration times the model is given.
fn kernel_line(text: &mut String, workload: &str, kernel: &Kernel, iters: u32) -> f64 {
    let (native, guest) = kernel.per_iter(iters);
    let ratio = guest / native;
    say!(
        text,
        "{workload} kernel per iteration: native {:.3}ms, guest {:.3}ms — guest/native {ratio:.2}x",
        native * 1e3,
        guest * 1e3
    );
    ratio
}

/// Table 1: compile duration and single-core HPCG performance for the
/// three tiers (Baseline/Optimizing/Max standing in for Wasmer's
/// Singlepass/Cranelift/LLVM), as `hpcg_np1` measured them.
pub fn table1(m: &Measured) -> Figure {
    let p = HPCG.params;
    let mut text = String::new();
    say!(text, "Table 1 — compiler backends on the HPCG Wasm module ({}, {}³ × {})", HPCG.name, p.nx, p.iters);
    say!(text, "(paper: Singlepass 52ms/0.38 GF, Cranelift 150ms/1.32 GF, LLVM 2811ms/1.54 GF)\n");
    say!(text, "{:<32} {:>13} {:>11} {:>22}", "Compiler", "Compile (ms)", "Kernel (s)", "Single-core (GFLOP/s)");
    let mut rows = Vec::new();
    for &(tier, compile_us, kernel_s) in &m.tiers {
        let gf = p.flops_per_iter() * p.iters as f64 / kernel_s / 1e9;
        say!(text, "{:<32} {:>13.3} {:>11.5} {gf:>22.4}", tier.to_string(), compile_us / 1e3, kernel_s);
        let row = [tier.flag().into(), format!("{compile_us:.3}"), format!("{kernel_s:.6}"), format!("{gf:.5}")];
        rows.push(row.to_vec());
    }
    let verdict = |ok: bool| if ok { "Baseline < Optimizing < Max ✓" } else { "UNEXPECTED" };
    say!(
        text,
        "\nordering check: compile {} ; performance {}",
        verdict(m.tiers.windows(2).all(|w| w[1].1 >= w[0].1)),
        verdict(m.tiers.windows(2).all(|w| w[1].2 <= w[0].2))
    );
    Figure { name: "table1.csv", text, header: "compiler,compile_us,kernel_s,gflops".into(), rows, ratios: vec![] }
}

/// Figure 4: selected IMB routines and HPCG on the AWS Graviton2 profile
/// (single aarch64 node, 32 ranks).
pub fn fig4(m: &Measured) -> Figure {
    let profile = SystemProfile::graviton2();
    let overhead_us = m.call_overhead_us();
    let mut text = String::new();
    say!(text, "Figure 4 — {}", profile.name);
    say!(text, "measured embedder overhead: {overhead_us:.3}us/call\n");

    let sizes = imb_message_sizes();
    let labels: Vec<String> = sizes.iter().map(|b| format!("{}", b.ilog2())).collect();
    let mut rows = Vec::new();
    use imb::ImbRoutine as R;
    for routine in [R::PingPong, R::SendRecv, R::Allreduce, R::Allgather, R::Alltoall] {
        let ranks = if routine == R::PingPong { 2 } else { 32 };
        let pts = imb_model_series(&profile, routine, ranks, &sizes, overhead_us);
        let native: Vec<f64> = pts.iter().map(|p| p.native_us).collect();
        let wasm: Vec<f64> = pts.iter().map(|p| p.wasm_us).collect();
        let title = format!("{} {ranks} ranks — iteration time (us)", routine.name());
        say!(text, "{}", ascii_chart(&title, &labels, &[("Native", &native), ("WASM", &wasm)], 10));
        say!(text, "  GM slowdown: {:+.3}\n", gm_slowdown(&native, &wasm));
        if routine == R::PingPong {
            say!(
                text,
                "  max bandwidth: native {:.2} GiB/s, wasm {:.2} GiB/s (paper: 10.98 / 10.61)\n",
                max_bandwidth_gib(&pts, false),
                max_bandwidth_gib(&pts, true)
            );
        }
        for p in &pts {
            let (native, wasm) = (format!("{:.4}", p.native_us), format!("{:.4}", p.wasm_us));
            rows.push(vec![routine.name().into(), ranks.to_string(), p.bytes.to_string(), native, wasm]);
        }
    }

    // Figure 4f: HPCG GFLOP/s and bandwidth, 1..32 ranks.
    let ratio = kernel_line(&mut text, HPCG.name, &m.hpcg, HPCG.params.iters);
    let (t_native, t_wasm) = m.hpcg.per_iter(HPCG.params.iters);
    let pts = hpcg_scaling(&profile, HPCG.params, &[1, 2, 4, 8, 16, 32], t_native, t_wasm, overhead_us);
    say!(text, "\n  HPCG on Graviton2 (weak scaling), GFLOP/s and GB/s");
    say!(text, "  {:>6} {:>10} {:>10} {:>10} {:>10}", "ranks", "native GF", "wasm GF", "native GB", "wasm GB");
    for p in &pts {
        say!(
            text,
            "  {:>6} {:>10.3} {:>10.3} {:>10.2} {:>10.2}",
            p.ranks, p.native_gflops, p.wasm_gflops, p.native_gbs, p.wasm_gbs
        );
        let (native, wasm) = (format!("{:.4}", p.native_gflops), format!("{:.4}", p.wasm_gflops));
        rows.push(vec!["HPCG".into(), p.ranks.to_string(), "-".into(), native, wasm]);
    }
    let header = "series,ranks,bytes,native,wasm".into();
    Figure { name: "fig4.csv", text, header, rows, ratios: vec![(HPCG.name, ratio)] }
}

/// Figure 5a: NPB IS total Mop/s over rank counts, and NPB DT throughput
/// on the topology `dt_simd_np2` runs (SH), with the SIMD ablation.
pub fn fig5a(m: &Measured) -> Figure {
    let profile = SystemProfile::supermuc_ng();
    let mut text = String::new();
    say!(text, "Figure 5a — NPB IS and DT on {}\n", profile.name);

    // --- IS -------------------------------------------------------------
    let ratio = kernel_line(&mut text, IS.name, &m.is, IS.params.iters);
    let (t_native, t_wasm) = m.is.per_iter(IS.params.iters);
    let keys = IS.params.keys_per_rank;
    let ranks = [64, 128, 256, 512, 1024];
    let pts = is_scaling(&profile, keys, &ranks, t_native, t_wasm, m.call_overhead_us());
    say!(text, "\n  IS total Mop/s (keys ranked per second, millions), {keys} keys per rank:");
    say!(text, "  {:>6} {:>12} {:>12} {:>12}", "ranks", "Native", "WASM", "WASM/Native");
    let mut rows = Vec::new();
    for p in &pts {
        let (native, wasm) = (p.native_mops, p.wasm_mops);
        say!(text, "  {:>6} {native:>12.1} {wasm:>12.1} {:>12.3}", p.ranks, wasm / native);
        let (native, wasm) = (format!("{native:.2}"), format!("{wasm:.2}"));
        rows.push(vec!["IS".into(), p.ranks.to_string(), native, wasm, "-".into()]);
    }
    say!(text, "  (paper: WASM 8260 vs native 8546 average Mop/s — ~3% gap)");

    // --- DT -------------------------------------------------------------
    let topology = DT.params.topology.short_name();
    let r = dt_figure(DT.params, DT.np, &m.dt, m.simd_over_scalar_x);
    say!(text, "\n  DT total throughput (MB/s), {topology} at {} ranks ({}):", DT.np, DT.name);
    say!(text, "  {:>4} {:>10} {:>10} {:>10} {:>13}", "topo", "Native", "no SIMD", "SIMD", "SIMD speedup");
    say!(
        text,
        "  {topology:>4} {:>10.1} {:>10.1} {:>10.1} {:>12.2}x",
        r.native_mbs,
        r.wasm_mbs,
        r.wasm_simd_mbs,
        r.wasm_simd_mbs / r.wasm_mbs
    );
    let mbs = [r.native_mbs, r.wasm_simd_mbs, r.wasm_mbs].map(|v| format!("{v:.2}"));
    rows.push([format!("DT-{topology}"), DT.np.to_string()].into_iter().chain(mbs).collect());
    say!(text, "  (paper: SIMD gives 1.36x over no-SIMD; native leads both — 128- vs 512-bit vectors)");
    let header = "series,ranks,native,wasm,wasm_no_simd".into();
    Figure { name: "fig5a.csv", text, header, rows, ratios: vec![(IS.name, ratio)] }
}

/// Figure 5c: HPCG GFLOP/s and memory bandwidth on the HPC system, small
/// panel (4..144 ranks) and large panel (192..6144 ranks). At scale the
/// per-Allreduce translation cost of §4.6 adds to the measured compute
/// gap.
pub fn fig5c(m: &Measured) -> Figure {
    let profile = SystemProfile::supermuc_ng();
    let overhead_us = m.call_overhead_us();
    let mut text = String::new();
    say!(text, "Figure 5c — HPCG on {}\n", profile.name);
    let ratio = kernel_line(&mut text, HPCG.name, &m.hpcg, HPCG.params.iters);
    say!(text, "measured embedder overhead: {overhead_us:.3}us per MPI call\n");
    let (t_native, t_wasm) = m.hpcg.per_iter(HPCG.params.iters);

    let mut rows = Vec::new();
    for (panel, ranks) in [
        ("small scale", vec![4u32, 8, 16, 48, 96, 144]),
        ("large scale", vec![192u32, 768, 1536, 3072, 6144]),
    ] {
        let pts = hpcg_scaling(&profile, HPCG.params, &ranks, t_native, t_wasm, overhead_us);
        say!(text, "  HPCG {panel}, GFLOP/s and GB/s:");
        say!(text, "  {:>6} {:>10} {:>10} {:>8} {:>10} {:>10}", "ranks", "native GF", "wasm GF", "gap", "native GB", "wasm GB");
        for p in &pts {
            let gap = (1.0 - p.wasm_gflops / p.native_gflops) * 100.0;
            say!(
                text,
                "  {:>6} {:>10.2} {:>10.2} {gap:>7.1}% {:>10.1} {:>10.1}",
                p.ranks, p.native_gflops, p.wasm_gflops, p.native_gbs, p.wasm_gbs
            );
            let values = [p.native_gflops, p.wasm_gflops, p.native_gbs, p.wasm_gbs];
            rows.push([p.ranks.to_string()].into_iter().chain(values.map(|v| format!("{v:.3}"))).collect());
        }
        let labels: Vec<String> = ranks.iter().map(|r| r.to_string()).collect();
        let native: Vec<f64> = pts.iter().map(|p| p.native_gflops).collect();
        let wasm: Vec<f64> = pts.iter().map(|p| p.wasm_gflops).collect();
        let title = format!("HPCG GFLOP/s, {panel}");
        say!(text, "{}", ascii_chart(&title, &labels, &[("Native", &native), ("WASM", &wasm)], 9));
    }
    say!(text, "  (paper: parity through 192 ranks, 14% GFLOP/s reduction at 6144 ranks,");
    say!(text, "   driven by Allreduce frequency x datatype-translation cost)");
    let header = "ranks,native_gflops,wasm_gflops,native_gbs,wasm_gbs".into();
    Figure { name: "fig5c.csv", text, header, rows, ratios: vec![(HPCG.name, ratio)] }
}

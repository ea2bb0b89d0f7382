//! Run the complete experiment suite: every table and figure, in order,
//! writing CSVs into `results/`, then the headline — the guest/native
//! kernel-time ratio as this engine measured it, which is the repo's
//! version of the paper's one number. The `runme.sh` analog of the paper's
//! artifact (§A.3.1).

use std::process::Command;

use hpc_benchmarks::{hpcg, npb_is};
use mpiwasm_bench::measure::{measure_hpcg_kernel, measure_is};

fn main() {
    let bins = [
        "table1", "table2", "fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig6", "fig7",
    ];
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .expect("locate binary dir");

    let mut failed = Vec::new();
    for bin in bins {
        println!("\n{}\n=== {bin} ===\n{}", "=".repeat(72), "=".repeat(72));
        let path = exe_dir.join(bin);
        let status = if path.exists() {
            Command::new(&path).status()
        } else {
            // Fall back to cargo when invoked via `cargo run`.
            Command::new("cargo").args(["run", "-q", "-p", "mpiwasm-bench", "--bin", bin]).status()
        };
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("{bin} failed: {other:?}");
                failed.push(bin);
            }
        }
    }
    println!("\n{}", "=".repeat(72));
    let (hpcg_native, hpcg_guest) = measure_hpcg_kernel(hpcg::HpcgParams::default());
    // 65 536 keys per rank, the size Figure 5a's model scales: at the
    // default 4 096 the native kernel is tens of µs and the ratio swings 2×.
    let is_params = npb_is::IsParams { keys_per_rank: 1 << 16, ..Default::default() };
    let (is_native, is_guest, _) = measure_is(2, is_params);
    println!(
        "measured guest/native kernel time: HPCG {:.2}x, IS {:.2}x (the figures plot this beside the paper-derived projection)",
        hpcg_guest / hpcg_native,
        is_guest / is_native
    );
    if failed.is_empty() {
        println!("all experiments completed; CSVs in results/");
    } else {
        println!("FAILED: {failed:?}");
        std::process::exit(1);
    }
}

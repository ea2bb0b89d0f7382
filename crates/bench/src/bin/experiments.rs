//! Run the complete experiment suite: the traced `benchmark/` run the
//! figures read, then every table and figure in order, writing CSVs into
//! `results/`, then the headline — each compute workload's guest/native
//! kernel-time ratio as that run measured it, which is the repo's version
//! of the paper's one number. The `runme.sh` analog of the paper's
//! artifact (§A.3.1).
//!
//! The figure binaries are built with the profile this binary was built
//! with, so `cargo run --release --bin experiments` measures optimised code
//! throughout; `benchmark/` always builds with `--release`.

use std::path::Path;
use std::process::{Command, ExitCode};

use mpiwasm_bench::traced::{Measured, DT, HPCG, IS, TRACED_RUN};

fn banner(title: &str) {
    println!("\n{}\n=== {title} ===\n{}", "=".repeat(72), "=".repeat(72));
}

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let profile = if cfg!(debug_assertions) { "dev" } else { "release" };
    let mut failed = Vec::new();

    banner(TRACED_RUN);
    let traced = Command::new("cargo").args(TRACED_RUN.split(' ').skip(1)).current_dir(&root).status();
    if !traced.as_ref().is_ok_and(|s| s.success()) {
        eprintln!("the traced benchmark run failed: {traced:?}");
        failed.push("benchmark");
    }

    let bins = ["table1", "table2", "fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig6", "fig7"];
    for bin in bins {
        banner(bin);
        let status = Command::new("cargo")
            .args(["run", "-q", "--offline", "--profile", profile, "--manifest-path"])
            .arg(root.join("Cargo.toml"))
            .args(["-p", "mpiwasm-bench", "--bin", bin])
            .status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            eprintln!("{bin} failed: {status:?}");
            failed.push(bin);
        }
    }

    println!("\n{}", "=".repeat(72));
    if let Ok(m) = Measured::load(&Measured::default_dir()) {
        println!(
            "measured guest/native kernel time (benchmarks.guest_over_native_x): \
             HPCG {:.2}x ({}), IS {:.2}x ({}), DT {:.2}x ({})",
            m.hpcg.guest_over_native_x,
            HPCG.name,
            m.is.guest_over_native_x,
            IS.name,
            m.dt.guest_over_native_x,
            DT.name
        );
    }
    if failed.is_empty() {
        println!("all experiments completed; CSVs in results/");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {failed:?}");
        ExitCode::FAILURE
    }
}

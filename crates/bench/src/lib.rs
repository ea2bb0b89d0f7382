//! The experiment harness. Two jobs:
//!
//! 1. **The paper's tables and figures** (§4), regenerated by the
//!    `table*` / `fig*` binaries and `experiments`, which starts with the
//!    traced `benchmark/` run and then runs them all.
//! 2. **The deterministic scale gate**: `bench_scale --check` holds the
//!    collective latencies simulated at 64–4096 ranks to the committed
//!    `BENCH_scale.json` ([`gate`]).
//!
//! Wall clock is not measured here: the repository's one wall-clock
//! benchmark is the `benchmark/` package (`BENCHMARK.json`).
//!
//! Methodology of the figures:
//!
//! * **Measured inputs** come from one results directory, the
//!   `*.traced.json` files of `benchmark/`'s traced run ([`traced`]): the
//!   compile time and kernel time per tier, the native and guest kernel
//!   times of HPCG, IS and DT, the SIMD build over the scalar one, and the
//!   trampoline and translation cost of one MPI call. Table 1 and Figures
//!   4, 5a and 5c are pure functions of that directory and of the
//!   modelled inputs ([`paper`]); the same directory gives the same CSVs
//!   byte for byte.
//! * **Modelled inputs** are everything hardware we do not have: wire
//!   times of the OmniPath-class fabric and the Graviton2 node
//!   (`netsim::CostModel`, point to point), and collectives as the
//!   schedules the substrate runs, priced over those wires by
//!   `mpi_substrate::schedule::cost` — the threaded virtual clock's rule,
//!   walked in one thread. The paper's "Native" series uses the native
//!   per-call cost; the "WASM" series adds the measured per-call
//!   overhead, and computes for as long as the guest kernel measured.
//!
//! Four figures still run a guest themselves, because `benchmark/` does
//! not measure what they show:
//!
//! * Figure 6's per-datatype translation distribution (`fig6`);
//! * IOR's bandwidths through the WASI layer, Figure 5b (`fig5b`,
//!   [`measure::measure_ior`]);
//! * Figure 3's executed virtual-clock IMB runs beside the model (`fig3`,
//!   [`measure::imb_executed_virtual`]);
//! * Figure 7's executed comparison with the Faasm-style broker (`fig7`).
//!
//! There is no projection: no figure scales a measured time by a constant.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use traced::Measured;

pub mod figures;
pub mod gate;
pub mod measure;
pub mod paper;
pub mod plot;
pub mod traced;

/// Geometric mean of a slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The paper's slowdown convention (§4.5): GM of native/wasm ratios,
/// minus one. Positive = Wasm slower.
pub fn gm_slowdown(native_us: &[f64], wasm_us: &[f64]) -> f64 {
    let ratios: Vec<f64> =
        native_us.iter().zip(wasm_us).map(|(n, w)| n / w).collect();
    1.0 - geometric_mean(&ratios)
}

/// Results directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MPIWASM_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// A CSV file's text.
pub fn csv(header: &str, rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{header}");
    for row in rows {
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

/// Write a CSV file into the results directory.
pub fn write_csv(name: &str, header: &str, rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, csv(header, rows)).expect("write csv");
    path
}

/// A table or figure drawn from one traced run: what its binary prints,
/// and its CSV.
pub struct Figure {
    /// The CSV's file name in the results directory.
    pub name: &'static str,
    pub text: String,
    pub header: String,
    pub rows: Vec<Vec<String>>,
    /// The guest/native kernel-time ratios its guest series rest on, as
    /// `(workload, ratio)`; the text prints each.
    pub ratios: Vec<(&'static str, f64)>,
}

/// A figure binary's whole run: load the traced run in `dir`, draw the
/// figure, print it and write its CSV. A directory that does not hold a
/// whole traced run ([`Measured::load`]) is a failure, reported on stderr.
pub fn emit(dir: &Path, figure: fn(&Measured) -> Figure) -> ExitCode {
    let measured = match Measured::load(dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let figure = figure(&measured);
    print!("{}", figure.text);
    let path = write_csv(figure.name, &figure.header, &figure.rows);
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[8.0]) - 8.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn gm_slowdown_sign_convention() {
        // Wasm 10% slower everywhere -> slowdown ≈ 0.09.
        let native = [10.0, 20.0, 40.0];
        let wasm = [11.0, 22.0, 44.0];
        let s = gm_slowdown(&native, &wasm);
        assert!((s - (1.0 - 1.0 / 1.1)).abs() < 1e-9, "{s}");
        // Wasm faster -> negative.
        assert!(gm_slowdown(&[10.0], &[9.0]) < 0.0);
    }
}

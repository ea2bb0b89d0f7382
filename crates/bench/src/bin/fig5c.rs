//! Figure 5c: HPCG at scale on the HPC system, from the traced
//! `benchmark/` run (`mpiwasm_bench::paper::fig5c`).

use std::process::ExitCode;

use mpiwasm_bench::traced::Measured;
use mpiwasm_bench::{emit, paper};

fn main() -> ExitCode {
    emit(&Measured::default_dir(), paper::fig5c)
}

//! Figure 5a: NPB IS and DT, from the traced `benchmark/` run
//! (`mpiwasm_bench::paper::fig5a`).

use std::process::ExitCode;

use mpiwasm_bench::traced::Measured;
use mpiwasm_bench::{emit, paper};

fn main() -> ExitCode {
    emit(&Measured::default_dir(), paper::fig5a)
}

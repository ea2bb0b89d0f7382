//! Table 1: compile duration and single-core HPCG performance per tier, from
//! the traced `benchmark/` run (`mpiwasm_bench::paper::table1`).

use std::process::ExitCode;

use mpiwasm_bench::traced::Measured;
use mpiwasm_bench::{emit, paper};

fn main() -> ExitCode {
    emit(&Measured::default_dir(), paper::table1)
}

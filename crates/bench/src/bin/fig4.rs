//! Figure 4: IMB and HPCG on the Graviton2 profile, from the traced
//! `benchmark/` run (`mpiwasm_bench::paper::fig4`).

use std::process::ExitCode;

use mpiwasm_bench::traced::Measured;
use mpiwasm_bench::{emit, paper};

fn main() -> ExitCode {
    emit(&Measured::default_dir(), paper::fig4)
}

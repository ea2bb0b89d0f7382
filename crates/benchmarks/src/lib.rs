//! Standardized HPC benchmark guests for the MPIWasm reproduction.
//!
//! Every benchmark of the paper's §4.2 is implemented twice:
//!
//! * a **Wasm guest**, authored in the engine's DSL against the guest MPI
//!   import surface ([`guest::MpiImports`], the `mpi.h` analog) and
//!   executed through the embedder — the "WASM" series of the figures, and
//! * a **native** implementation, plain Rust directly against the MPI
//!   substrate — the "Native" baseline series.
//!
//! | Module | Paper benchmark |
//! |--------|-----------------|
//! | [`imb`]   | Intel MPI Benchmarks: PingPong, Sendrecv, Bcast, Allreduce, Allgather, Alltoall, Reduce, Gather, Scatter (Figures 3, 4, 7) |
//! | [`hpcg`]  | HPCG conjugate-gradient (Table 1, Figures 4f, 5c) |
//! | [`npb_is`] | NAS IS integer sort (Figure 5a left) |
//! | [`npb_dt`] | NAS DT data-traffic graph, bh/wh/sh, with and without SIMD (Figure 5a right) |
//! | [`ior`]   | IOR POSIX-backend file I/O (Figure 5b) |
//! | [`fig6`]  | The custom PingPong iterating over MPI datatypes (Figure 6) |

pub mod fig6;
pub mod guest;
pub mod hpcg;
pub mod imb;
pub mod ior;
pub mod npb_dt;
pub mod npb_is;

/// Default message-size sweep of the Intel MPI Benchmarks: 2^0 .. 2^22.
pub fn imb_message_sizes() -> Vec<u32> {
    (0..=22).map(|l| 1u32 << l).collect()
}

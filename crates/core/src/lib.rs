//! # MPIWasm — a WebAssembly embedder for MPI-based HPC applications
//!
//! This crate is the reproduction of the paper's primary contribution: an
//! embedder that executes MPI applications compiled to WebAssembly with
//! close-to-native performance (PPoPP '23, "Exploring the Use of
//! WebAssembly in HPC").
//!
//! Architecture (paper §3):
//!
//! * [`env::Env`] — per-rank global state: the rank's MPI communicator
//!   handles, datatype/op translation tables, WASI context, and the
//!   translation-overhead instrumentation of §4.6.
//! * [`translate`] — the two translations at the heart of the design:
//!   guest (32-bit) ↔ host (64-bit) **address translation** implemented as
//!   zero-copy views over the instance's linear memory (§3.5), and
//!   **datatype/handle translation** between the guest's opaque 32-bit
//!   integers and host library types (§3.6).
//! * [`mpi_host`] — the `env.MPI_*` host functions (§3.7), as one table
//!   ([`mpi_host::verbs`]): each row is a verb's name, its signature as a
//!   tuple of typed argument decoders (`mpi_host/abi.rs`: the only place
//!   guest pointer arithmetic happens), whether a call is charged to the
//!   virtual clock, and a body that defers to the host MPI library
//!   (crate `mpi-substrate`, standing in for OpenMPI + rsmpi); one
//!   trampoline decodes, charges, runs and encodes every call.
//!   `MPI_Alloc_mem`/`MPI_Free_mem` re-enter the guest's exported
//!   `malloc`/`free`, exactly as the paper describes.
//! * [`cache`] — the compiled-module cache (§3.3): artifacts are stored
//!   content-addressed in the filesystem; re-running a module skips
//!   compilation entirely.
//! * [`runner`] — the `mpirun`-equivalent: decode and validate once
//!   (with a cache: compile everything or load it; without: lower each
//!   function on its first call), then instantiate the module once per
//!   rank and run the ranks to completion, gathering stdout, exit codes
//!   and I/O counters.
//! * [`hash`] — a from-scratch SHA-256 used for content addressing
//!   (substitution for the paper's BLAKE-3; [`hash`]'s module doc says
//!   why).

pub mod cache;
pub mod env;
pub mod hash;
pub mod mpi_host;
pub mod runner;
pub mod translate;

pub use cache::ModuleCache;
pub use env::{Env, MpiState};
pub use runner::{FrontEnd, JobConfig, JobResult, RankResult, Runner};
pub use translate::handles;

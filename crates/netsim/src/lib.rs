//! Discrete-event HPC cluster and interconnect simulation.
//!
//! The paper evaluates MPIWasm on SuperMUC-NG (Intel Skylake-SP nodes on a
//! 100 Gbit/s Intel OmniPath fabric, up to 6144 ranks) and on a 32-core AWS
//! Graviton2 node. Neither is available here, so this crate provides the
//! substitute substrate: parameterized machine
//! models ([`SystemProfile`]), the α–β point-to-point cost model and
//! per-call overhead the virtual clock charges ([`CostModel`]), and the
//! deterministic fault plans the MPI substrate injects ([`FaultPlan`]),
//! whose probabilistic choices are hashed by [`rng::SplitMix64`].
//!
//! Semantics (what bytes land where) always come from real execution in
//! crate `mpi-substrate`; this crate only supplies *time*, and only per
//! message: a collective's time is its schedule's messages, priced by
//! `mpi_substrate::schedule::cost` or clocked by a threaded run.

pub mod fault;
pub mod model;
pub mod profile;
pub mod rng;
pub mod time;

pub use fault::{FaultPlan, FaultSpec, WireFault};
pub use model::CostModel;
pub use profile::SystemProfile;
pub use time::SimTime;

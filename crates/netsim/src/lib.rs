//! Discrete-event HPC cluster and interconnect simulation.
//!
//! The paper evaluates MPIWasm on SuperMUC-NG (Intel Skylake-SP nodes on a
//! 100 Gbit/s Intel OmniPath fabric, up to 6144 ranks) and on a 32-core AWS
//! Graviton2 node. Neither is available here, so this crate provides the
//! substitute substrate: parameterized machine
//! models ([`SystemProfile`]), α–β communication cost models with
//! per-algorithm collective schedules ([`CostModel`]), a deterministic
//! jitter source for error bars ([`rng::SplitMix64`]), and a generic
//! discrete-event queue ([`event::EventQueue`]) used by the simulated-time
//! MPI transport and the Faasm baseline.
//!
//! Semantics (what bytes land where) always come from real execution in
//! crate `mpi-substrate`; this crate only supplies *time*.

pub mod event;
pub mod fault;
pub mod model;
pub mod profile;
pub mod rng;
pub mod time;

pub use event::EventQueue;
pub use fault::{FaultPlan, FaultSpec, WireFault};
pub use model::{CollectiveAlgorithm, CostModel};
pub use profile::SystemProfile;
pub use time::SimTime;

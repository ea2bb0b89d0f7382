//! The execution runtime: values, linear memory, host-function linking,
//! and module instances.

mod instance;
mod memory;
mod value;

pub use instance::{
    Caller, CompiledModule, HostFn, HostResults, Instance, InstanceLimits, InstantiateError,
    JitSnapshot, Linker,
};
pub use memory::Memory;
pub use value::{Slot, Value};

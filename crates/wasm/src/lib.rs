//! A from-scratch WebAssembly engine for the MPIWasm reproduction.
//!
//! This crate implements the complete substrate the paper's embedder runs on:
//!
//! * the Wasm **binary format**: [`decode`] and [`encode`] round-trip the
//!   MVP binary format plus the sign-extension and a 128-bit SIMD subset,
//! * a structural [`validate`] pass (type-checking of function bodies,
//!   import/export well-formedness, memory/table limits),
//! * a sandboxed [`runtime`] with a 32-bit bounds-checked linear memory,
//!   host function imports, exports, and reentrant host→guest calls,
//! * four execution tiers ([`tier::Tier`]): three mirroring Wasmer's
//!   Singlepass / Cranelift / LLVM backends by compile-time vs run-time
//!   trade-off, plus a profile-guided superblock top tier
//!   ([`tier::Tier::MaxJit`]) that recompiles hot functions at run time
//!   into chains of pre-decoded steps; one op table ([`ops`]) defines
//!   every register op for both that tier and the threaded dispatcher,
//! * a programmatic [`builder`] and a structured-AST [`dsl`] compiler used
//!   to author the guest benchmarks (the stand-in for the paper's
//!   WASI-SDK + custom `mpi.h` toolchain).
//!
//! The engine deliberately supports the slice of WebAssembly exercised by
//! MPI-style HPC applications: integer/float arithmetic, full control flow,
//! linear memory with all load/store widths, `call_indirect`, globals, and
//! 128-bit SIMD lane arithmetic (`-msimd128` analog).

pub mod builder;
pub mod decode;
pub(crate) mod closures;
pub(crate) mod dispatch;
pub(crate) mod exec;
pub mod interp;
pub mod dsl;
pub mod encode;
pub mod error;
pub mod instr;
pub mod ir;
pub mod leb128;
pub mod module;
pub(crate) mod ops;
pub mod regalloc;
pub mod runtime;
pub(crate) mod superblock;
pub mod tier;
pub mod types;
pub mod validate;

pub use builder::{FunctionBuilder, ModuleBuilder};
pub use decode::decode_module;
pub use encode::encode_module;
pub use error::{DecodeError, Trap, ValidateError};
pub use instr::Instr;
pub use module::Module;
pub use runtime::{Caller, HostFn, Instance, Linker, Memory, Slot, Value};
pub use superblock::JitSnapshot;
pub use tier::Tier;
pub use types::{FuncType, ValType};
pub use validate::validate_module;

/// Magic bytes at the start of every Wasm binary: `\0asm`.
pub const WASM_MAGIC: [u8; 4] = [0x00, 0x61, 0x73, 0x6d];
/// Binary format version implemented by this engine.
pub const WASM_VERSION: [u8; 4] = [0x01, 0x00, 0x00, 0x00];
/// Size of one linear memory page (64 KiB), fixed by the specification.
pub const PAGE_SIZE: usize = 65536;
/// Maximum number of pages addressable with 32-bit offsets (4 GiB).
pub const MAX_PAGES: u32 = 65536;

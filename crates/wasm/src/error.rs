//! Error types shared across the engine: decode failures, validation
//! failures, and runtime traps.

use std::fmt;

/// An error produced while parsing a Wasm binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset in the binary at which the error was detected.
    pub offset: usize,
    /// Human-readable description of the malformed construct.
    pub message: String,
}

impl DecodeError {
    pub fn new(offset: usize, message: impl Into<String>) -> Self {
        Self { offset, message: message.into() }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at offset {:#x}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// An error produced while validating a decoded module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Index of the function being validated, if the error is inside a body.
    pub func: Option<u32>,
    /// Human-readable description of the invalid construct.
    pub message: String,
}

impl ValidateError {
    pub fn module(message: impl Into<String>) -> Self {
        Self { func: None, message: message.into() }
    }

    pub fn in_func(func: u32, message: impl Into<String>) -> Self {
        Self { func: Some(func), message: message.into() }
    }
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.func {
            Some(i) => write!(f, "validation error in function {}: {}", i, self.message),
            None => write!(f, "validation error: {}", self.message),
        }
    }
}

impl std::error::Error for ValidateError {}

/// A runtime trap. Traps abort guest execution and unwind to the embedder;
/// they are the Wasm sandbox's answer to faults (out-of-bounds access,
/// division by zero, …) and to host-side policy violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// The `unreachable` instruction was executed.
    Unreachable,
    /// A linear-memory access fell outside the module's memory.
    MemoryOutOfBounds { addr: u64, len: u64, memory_size: u64 },
    /// `call_indirect` through a null or out-of-range table slot.
    UndefinedTableElement { index: u32 },
    /// `call_indirect` signature mismatch.
    IndirectCallTypeMismatch,
    /// Integer division or remainder by zero.
    IntegerDivideByZero,
    /// `i32.div_s`/`i64.div_s` overflow (`INT_MIN / -1`).
    IntegerOverflow,
    /// Float-to-int truncation of NaN or out-of-range value.
    InvalidConversionToInteger,
    /// The value stack exceeded the engine limit (guards against runaway
    /// recursion; the spec calls this stack exhaustion).
    StackExhausted,
    /// `memory.grow` beyond the declared maximum (reported as -1 per spec
    /// in guest code; used as a trap only by embedder-internal helpers).
    MemoryGrowFailed,
    /// The guest ran out of execution fuel (see `Instance::set_fuel`).
    /// Fuel is consumed at guard points — backward branches, call sites,
    /// and the interpreter's instruction epochs — so a runaway guest is
    /// interrupted within a bounded number of steps.
    OutOfFuel,
    /// The embedder raised the instance's interrupt flag (deadline timer,
    /// job cancellation); execution stopped at the next guard point.
    Interrupted,
    /// A call reached a function whose (valid) body the tier's register
    /// encoding cannot express — the failure `CompiledModule::compile`
    /// reports up front, met at the first call when lowering was deferred.
    /// `func` is the index in the function index space.
    Unlowerable { func: u32, message: String },
    /// A host function signalled an error. The string is the host's message
    /// (e.g. a WASI errno description or an MPI failure).
    Host(String),
    /// The guest called `proc_exit(code)`. Not an error per se; carries the
    /// exit code to the embedder.
    Exit(i32),
}

impl Trap {
    /// Convenience constructor for host-side failures.
    pub fn host(message: impl Into<String>) -> Self {
        Trap::Host(message.into())
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Unreachable => write!(f, "unreachable executed"),
            Trap::MemoryOutOfBounds { addr, len, memory_size } => write!(
                f,
                "out-of-bounds memory access: [{addr:#x}, {:#x}) outside memory of {memory_size:#x} bytes",
                addr + len
            ),
            Trap::UndefinedTableElement { index } => {
                write!(f, "undefined table element at index {index}")
            }
            Trap::IndirectCallTypeMismatch => write!(f, "indirect call type mismatch"),
            Trap::IntegerDivideByZero => write!(f, "integer divide by zero"),
            Trap::IntegerOverflow => write!(f, "integer overflow"),
            Trap::InvalidConversionToInteger => write!(f, "invalid conversion to integer"),
            Trap::StackExhausted => write!(f, "call stack exhausted"),
            Trap::MemoryGrowFailed => write!(f, "memory.grow failed"),
            Trap::OutOfFuel => write!(f, "execution fuel exhausted"),
            Trap::Interrupted => write!(f, "execution interrupted by the embedder"),
            Trap::Unlowerable { func, message } => {
                write!(f, "function {func} cannot be lowered for this tier: {message}")
            }
            Trap::Host(m) => write!(f, "host error: {m}"),
            Trap::Exit(code) => write!(f, "guest exited with code {code}"),
        }
    }
}

impl std::error::Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_error_display_includes_offset() {
        let e = DecodeError::new(0x10, "bad section id");
        assert!(e.to_string().contains("0x10"));
        assert!(e.to_string().contains("bad section id"));
    }

    #[test]
    fn validate_error_display_includes_function() {
        let e = ValidateError::in_func(3, "type mismatch");
        assert!(e.to_string().contains("function 3"));
        let m = ValidateError::module("no memory");
        assert!(!m.to_string().contains("function"));
    }

    #[test]
    fn trap_display_oob_shows_range() {
        let t = Trap::MemoryOutOfBounds { addr: 0x100, len: 8, memory_size: 0x100 };
        let s = t.to_string();
        assert!(s.contains("0x100"), "{s}");
        assert!(s.contains("0x108"), "{s}");
    }

    #[test]
    fn trap_exit_is_distinguishable() {
        assert_eq!(Trap::Exit(0), Trap::Exit(0));
        assert_ne!(Trap::Exit(0), Trap::Exit(1));
        assert_ne!(Trap::Exit(0), Trap::Unreachable);
    }
}

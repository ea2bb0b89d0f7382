//! Wasm type grammar: value types, function types, limits, and the
//! import/export descriptors built from them.

use crate::error::DecodeError;
use std::fmt;

/// A value type. The MVP types plus `v128` from the SIMD proposal
/// (the paper compiles guests with `-msimd128`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValType {
    I32,
    I64,
    F32,
    F64,
    V128,
}

impl ValType {
    /// Number of 64-bit stack slots a value of this type occupies in the
    /// untyped execution engine (`v128` spans two slots, low half first).
    #[inline]
    pub fn slot_width(self) -> u32 {
        match self {
            ValType::V128 => 2,
            _ => 1,
        }
    }

    /// Binary encoding byte for this type.
    pub fn to_byte(self) -> u8 {
        match self {
            ValType::I32 => 0x7f,
            ValType::I64 => 0x7e,
            ValType::F32 => 0x7d,
            ValType::F64 => 0x7c,
            ValType::V128 => 0x7b,
        }
    }

    pub fn from_byte(byte: u8, offset: usize) -> Result<Self, DecodeError> {
        match byte {
            0x7f => Ok(ValType::I32),
            0x7e => Ok(ValType::I64),
            0x7d => Ok(ValType::F32),
            0x7c => Ok(ValType::F64),
            0x7b => Ok(ValType::V128),
            b => Err(DecodeError::new(offset, format!("unknown value type {b:#x}"))),
        }
    }
}

/// Total slot count of a list of value types.
pub(crate) fn slot_count(types: &[ValType]) -> u32 {
    types.iter().map(|t| t.slot_width()).sum()
}

/// Packed local map: for each local (params first), `offset << 1 | wide`.
/// Returns the map and the total number of local slots.
pub(crate) fn local_map(params: &[ValType], locals: &[ValType]) -> (Vec<u32>, u32) {
    let mut map = Vec::with_capacity(params.len() + locals.len());
    let mut off = 0u32;
    for t in params.iter().chain(locals.iter()) {
        map.push(off << 1 | (*t == ValType::V128) as u32);
        off += t.slot_width();
    }
    (map, off)
}

impl fmt::Display for ValType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValType::I32 => "i32",
            ValType::I64 => "i64",
            ValType::F32 => "f32",
            ValType::F64 => "f64",
            ValType::V128 => "v128",
        };
        f.write_str(s)
    }
}

/// A function signature: parameter and result types.
///
/// The MVP allows at most one result; we keep the general form because the
/// validator and the host-call bridge are simpler with a slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FuncType {
    pub params: Vec<ValType>,
    pub results: Vec<ValType>,
}

impl FuncType {
    pub fn new(params: Vec<ValType>, results: Vec<ValType>) -> Self {
        Self { params, results }
    }
}

impl fmt::Display for FuncType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> (")?;
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

/// Size limits for memories and tables, in pages / elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    pub min: u32,
    pub max: Option<u32>,
}

impl Limits {
    pub fn new(min: u32, max: Option<u32>) -> Self {
        Self { min, max }
    }

    /// Whether `other` fits within these limits (import matching rule).
    pub fn subsumes(&self, other: &Limits) -> bool {
        other.min >= self.min
            && match (self.max, other.max) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(a), Some(b)) => b <= a,
            }
    }
}

/// Mutability flag of a global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutability {
    Const,
    Var,
}

/// Type of a global variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalType {
    pub val_type: ValType,
    pub mutability: Mutability,
}

/// Block type of a structured control instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockType {
    /// `[] -> []`
    Empty,
    /// `[] -> [t]`
    Value(ValType),
    /// Reference to a function type in the type section (multi-value form;
    /// accepted by the decoder/validator so typed blocks can be expressed).
    Func(u32),
}

/// What an import provides / an export exposes.
#[derive(Debug, Clone, PartialEq)]
pub enum ExternKind {
    /// Index into the type section.
    Func(u32),
    Table(Limits),
    Memory(Limits),
    Global(GlobalType),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valtype_byte_roundtrip() {
        for t in [ValType::I32, ValType::I64, ValType::F32, ValType::F64, ValType::V128] {
            assert_eq!(ValType::from_byte(t.to_byte(), 0).unwrap(), t);
        }
        assert!(ValType::from_byte(0x00, 0).is_err());
    }

    #[test]
    fn local_map_packs_offsets_and_width() {
        let (map, n) = local_map(
            &[ValType::I32, ValType::V128],
            &[ValType::F64, ValType::V128],
        );
        assert_eq!(map, vec![0 << 1, 1 << 1 | 1, 3 << 1, 4 << 1 | 1]);
        assert_eq!(n, 6);
    }

    #[test]
    fn functype_display() {
        let t = FuncType::new(vec![ValType::I32, ValType::F64], vec![ValType::I32]);
        assert_eq!(t.to_string(), "(i32 f64) -> (i32)");
    }

    #[test]
    fn limits_subsumption() {
        let unbounded = Limits::new(1, None);
        assert!(unbounded.subsumes(&Limits::new(1, None)));
        assert!(unbounded.subsumes(&Limits::new(5, Some(10))));
        assert!(!unbounded.subsumes(&Limits::new(0, None)));

        let bounded = Limits::new(1, Some(4));
        assert!(bounded.subsumes(&Limits::new(2, Some(3))));
        assert!(!bounded.subsumes(&Limits::new(2, None)));
        assert!(!bounded.subsumes(&Limits::new(2, Some(8))));
    }
}

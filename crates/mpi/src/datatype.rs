//! MPI datatypes and reduction operators.
//!
//! The embedder translates guest-side 32-bit handles to these enums
//! (paper §3.6); reductions operate on raw little-endian byte buffers,
//! matching the zero-copy design (the buffers *are* guest linear memory).

use crate::error::MpiError;

/// The standard MPI datatypes exercised by the paper's benchmarks
/// (Figure 6 iterates over exactly these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datatype {
    Byte,
    Char,
    Int,
    Unsigned,
    Long,
    UnsignedLong,
    Float,
    Double,
}

impl Datatype {
    /// Size of one element in bytes.
    pub fn size(&self) -> usize {
        match self {
            Datatype::Byte | Datatype::Char => 1,
            Datatype::Int | Datatype::Unsigned | Datatype::Float => 4,
            Datatype::Long | Datatype::UnsignedLong | Datatype::Double => 8,
        }
    }

    pub const ALL: [Datatype; 8] = [
        Datatype::Byte,
        Datatype::Char,
        Datatype::Int,
        Datatype::Unsigned,
        Datatype::Long,
        Datatype::UnsignedLong,
        Datatype::Float,
        Datatype::Double,
    ];

    /// Name as it appears in MPI programs.
    pub fn mpi_name(&self) -> &'static str {
        match self {
            Datatype::Byte => "MPI_BYTE",
            Datatype::Char => "MPI_CHAR",
            Datatype::Int => "MPI_INT",
            Datatype::Unsigned => "MPI_UNSIGNED",
            Datatype::Long => "MPI_LONG",
            Datatype::UnsignedLong => "MPI_UNSIGNED_LONG",
            Datatype::Float => "MPI_FLOAT",
            Datatype::Double => "MPI_DOUBLE",
        }
    }
}

/// Reduction operators (`MPI_Op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Sum,
    Prod,
    Max,
    Min,
    Band,
    Bor,
    Bxor,
    Land,
    Lor,
}

trait Scalar: Copy + PartialOrd {
    const W: usize = std::mem::size_of::<Self>();
    fn from_le(bytes: &[u8]) -> Self;
    fn write_le(self, bytes: &mut [u8]);
    fn add(self, other: Self) -> Self;
    fn mul(self, other: Self) -> Self;
    fn bitand(self, other: Self) -> Self;
    fn bitor(self, other: Self) -> Self;
    fn bitxor(self, other: Self) -> Self;
    fn is_true(self) -> bool;
    fn from_bool(b: bool) -> Self;
}

macro_rules! int_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn from_le(b: &[u8]) -> Self { Self::from_le_bytes(b.try_into().unwrap()) }
            fn write_le(self, b: &mut [u8]) { b.copy_from_slice(&self.to_le_bytes()) }
            fn add(self, o: Self) -> Self { self.wrapping_add(o) }
            fn mul(self, o: Self) -> Self { self.wrapping_mul(o) }
            fn bitand(self, o: Self) -> Self { self & o }
            fn bitor(self, o: Self) -> Self { self | o }
            fn bitxor(self, o: Self) -> Self { self ^ o }
            fn is_true(self) -> bool { self != 0 }
            fn from_bool(b: bool) -> Self { b as Self }
        }
    )*};
}

int_scalar!(i8, u8, i32, u32, i64, u64);

macro_rules! float_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn from_le(b: &[u8]) -> Self { Self::from_le_bytes(b.try_into().unwrap()) }
            fn write_le(self, b: &mut [u8]) { b.copy_from_slice(&self.to_le_bytes()) }
            fn add(self, o: Self) -> Self { self + o }
            fn mul(self, o: Self) -> Self { self * o }
            // `check_op` runs before any element loop and rejects these.
            fn bitand(self, _: Self) -> Self { unreachable!() }
            fn bitor(self, _: Self) -> Self { unreachable!() }
            fn bitxor(self, _: Self) -> Self { unreachable!() }
            fn is_true(self) -> bool { self != 0.0 }
            fn from_bool(b: bool) -> Self { if b { 1.0 } else { 0.0 } }
        }
    )*};
}

float_scalar!(f32, f64);

fn apply_scalar<T: Scalar>(a: T, b: T, op: ReduceOp) -> T {
    match op {
        ReduceOp::Sum => a.add(b),
        ReduceOp::Prod => a.mul(b),
        ReduceOp::Max => {
            if a < b {
                b
            } else {
                a
            }
        }
        ReduceOp::Min => {
            if b < a {
                b
            } else {
                a
            }
        }
        ReduceOp::Band => a.bitand(b),
        ReduceOp::Bor => a.bitor(b),
        ReduceOp::Bxor => a.bitxor(b),
        ReduceOp::Land => T::from_bool(a.is_true() && b.is_true()),
        ReduceOp::Lor => T::from_bool(a.is_true() || b.is_true()),
    }
}

fn in_place_typed<T: Scalar>(op: ReduceOp, acc: &mut [u8], input: &[u8]) {
    for (a, b) in acc.chunks_exact_mut(T::W).zip(input.chunks_exact(T::W)) {
        apply_scalar(T::from_le(a), T::from_le(b), op).write_le(a);
    }
}

fn into_typed<T: Scalar>(op: ReduceOp, out: &mut [u8], a: &[u8], b: &[u8]) {
    let operands = a.chunks_exact(T::W).zip(b.chunks_exact(T::W));
    for (o, (a, b)) in out.chunks_exact_mut(T::W).zip(operands) {
        apply_scalar(T::from_le(a), T::from_le(b), op).write_le(o);
    }
}

/// Run `$kernel::<T>($args)` with `T` the Rust scalar of `$dt`.
macro_rules! by_type {
    ($dt:expr, $kernel:ident($($arg:expr),*)) => {
        match $dt {
            Datatype::Byte => $kernel::<u8>($($arg),*),
            Datatype::Char => $kernel::<i8>($($arg),*),
            Datatype::Int => $kernel::<i32>($($arg),*),
            Datatype::Unsigned => $kernel::<u32>($($arg),*),
            Datatype::Long => $kernel::<i64>($($arg),*),
            Datatype::UnsignedLong => $kernel::<u64>($($arg),*),
            Datatype::Float => $kernel::<f32>($($arg),*),
            Datatype::Double => $kernel::<f64>($($arg),*),
        }
    };
}

/// Whether `op` is defined on `dt`: the bitwise operators are integer-only
/// (`MPI_ERR_OP` otherwise). Reductions check this at initiation, before
/// any message moves, so an invalid pair fails the same way at every count.
pub fn check_op(dt: Datatype, op: ReduceOp) -> Result<(), MpiError> {
    let bitwise = matches!(op, ReduceOp::Band | ReduceOp::Bor | ReduceOp::Bxor);
    if bitwise && matches!(dt, Datatype::Float | Datatype::Double) {
        return Err(MpiError::InvalidOp(u32::MAX));
    }
    Ok(())
}

/// The checks every reduction kernel makes before touching an element.
fn check_operands(dt: Datatype, op: ReduceOp, mine: usize, theirs: usize) -> Result<(), MpiError> {
    check_op(dt, op)?;
    if mine != theirs {
        return Err(MpiError::CollectiveMismatch(format!(
            "reduce buffers differ: {mine} vs {theirs} bytes"
        )));
    }
    if mine % dt.size() != 0 {
        return Err(MpiError::BadCount { bytes: mine, type_size: dt.size() });
    }
    Ok(())
}

/// Elementwise `acc = op(acc, input)` over raw little-endian buffers.
/// Both buffers must be the same length and a multiple of the type size.
pub fn reduce_in_place(
    dt: Datatype,
    op: ReduceOp,
    acc: &mut [u8],
    input: &[u8],
) -> Result<(), MpiError> {
    check_operands(dt, op, acc.len(), input.len())?;
    by_type!(dt, in_place_typed(op, acc, input));
    Ok(())
}

/// Elementwise `out = op(a, b)`: [`reduce_in_place`] with the result
/// written to a third buffer, so a reduction can read an accumulator a
/// peer is still reading. Same operand order, so results are
/// bit-identical to `reduce_in_place(a, b)`.
pub fn reduce_into(
    dt: Datatype,
    op: ReduceOp,
    out: &mut [u8],
    a: &[u8],
    b: &[u8],
) -> Result<(), MpiError> {
    check_operands(dt, op, a.len(), b.len())?;
    check_operands(dt, op, out.len(), a.len())?;
    by_type!(dt, into_typed(op, out, a, b));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_c_abi() {
        assert_eq!(Datatype::Byte.size(), 1);
        assert_eq!(Datatype::Int.size(), 4);
        assert_eq!(Datatype::Double.size(), 8);
        assert_eq!(Datatype::Long.size(), 8);
    }

    #[test]
    fn sum_doubles() {
        let mut acc = Vec::new();
        for v in [1.0f64, 2.0] {
            acc.extend_from_slice(&v.to_le_bytes());
        }
        let mut input = Vec::new();
        for v in [10.0f64, 20.0] {
            input.extend_from_slice(&v.to_le_bytes());
        }
        reduce_in_place(Datatype::Double, ReduceOp::Sum, &mut acc, &input).unwrap();
        assert_eq!(f64::from_le_bytes(acc[0..8].try_into().unwrap()), 11.0);
        assert_eq!(f64::from_le_bytes(acc[8..16].try_into().unwrap()), 22.0);
    }

    #[test]
    fn max_and_min_ints() {
        let mut acc = 5i32.to_le_bytes().to_vec();
        reduce_in_place(Datatype::Int, ReduceOp::Max, &mut acc, &9i32.to_le_bytes()).unwrap();
        assert_eq!(i32::from_le_bytes(acc.clone().try_into().unwrap()), 9);
        reduce_in_place(Datatype::Int, ReduceOp::Min, &mut acc, &(-3i32).to_le_bytes()).unwrap();
        assert_eq!(i32::from_le_bytes(acc.try_into().unwrap()), -3);
    }

    #[test]
    fn bitwise_on_floats_is_rejected_at_every_count() {
        for len in [0, 4] {
            let mut acc = vec![0u8; len];
            let err = reduce_in_place(Datatype::Float, ReduceOp::Band, &mut acc, &vec![0u8; len]);
            assert_eq!(err, Err(MpiError::InvalidOp(u32::MAX)), "{len} bytes");
        }
        assert_eq!(check_op(Datatype::Double, ReduceOp::Land), Ok(()));
        assert_eq!(check_op(Datatype::Long, ReduceOp::Bxor), Ok(()));
    }

    #[test]
    fn logical_ops() {
        let mut acc = 2i32.to_le_bytes().to_vec();
        reduce_in_place(Datatype::Int, ReduceOp::Land, &mut acc, &0i32.to_le_bytes()).unwrap();
        assert_eq!(i32::from_le_bytes(acc.clone().try_into().unwrap()), 0);
        reduce_in_place(Datatype::Int, ReduceOp::Lor, &mut acc, &7i32.to_le_bytes()).unwrap();
        assert_eq!(i32::from_le_bytes(acc.try_into().unwrap()), 1);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut acc = vec![0u8; 8];
        let input = vec![0u8; 4];
        assert!(reduce_in_place(Datatype::Int, ReduceOp::Sum, &mut acc, &input).is_err());
    }

    #[test]
    fn wrapping_integer_sum() {
        let mut acc = i32::MAX.to_le_bytes().to_vec();
        reduce_in_place(Datatype::Int, ReduceOp::Sum, &mut acc, &1i32.to_le_bytes()).unwrap();
        assert_eq!(i32::from_le_bytes(acc.try_into().unwrap()), i32::MIN);
    }

    #[test]
    fn bxor_unsigned() {
        let mut acc = 0b1100u32.to_le_bytes().to_vec();
        reduce_in_place(Datatype::Unsigned, ReduceOp::Bxor, &mut acc, &0b1010u32.to_le_bytes())
            .unwrap();
        assert_eq!(u32::from_le_bytes(acc.try_into().unwrap()), 0b0110);
    }
}

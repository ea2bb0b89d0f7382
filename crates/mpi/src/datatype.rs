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

impl ReduceOp {
    pub const ALL: [ReduceOp; 9] = [
        ReduceOp::Sum,
        ReduceOp::Prod,
        ReduceOp::Max,
        ReduceOp::Min,
        ReduceOp::Band,
        ReduceOp::Bor,
        ReduceOp::Bxor,
        ReduceOp::Land,
        ReduceOp::Lor,
    ];
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

/// The one scalar definition of every operator. Each kernel below calls it
/// with a constant `op`, so the match folds away inside the element loop.
///
/// `b != b` is "b is NaN" (never true for an integer): a NaN wins from
/// either side, so `Max`/`Min` commute and every rank of an allreduce gets
/// the same bits whichever operand order its schedule used.
#[inline(always)]
#[allow(clippy::eq_op)]
fn apply_scalar<T: Scalar>(a: T, b: T, op: ReduceOp) -> T {
    match op {
        ReduceOp::Sum => a.add(b),
        ReduceOp::Prod => a.mul(b),
        ReduceOp::Max => {
            if a < b || b != b {
                b
            } else {
                a
            }
        }
        ReduceOp::Min => {
            if b < a || b != b {
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

fn in_place_typed<T: Scalar>(f: impl Fn(T, T) -> T, acc: &mut [u8], input: &[u8]) {
    for (a, b) in acc.chunks_exact_mut(T::W).zip(input.chunks_exact(T::W)) {
        f(T::from_le(a), T::from_le(b)).write_le(a);
    }
}

fn into_typed<T: Scalar>(f: impl Fn(T, T) -> T, out: &mut [u8], a: &[u8], b: &[u8]) {
    let operands = a.chunks_exact(T::W).zip(b.chunks_exact(T::W));
    for (o, (a, b)) in out.chunks_exact_mut(T::W).zip(operands) {
        f(T::from_le(a), T::from_le(b)).write_le(o);
    }
}

/// Run `$kernel::<T>(f, $args)` with `f` the operator `$op` names. The
/// operator is chosen here, once per call: each arm instantiates the
/// kernel with its own closure, so every (type, operator) pair is a
/// straight-line element loop the compiler can vectorise.
macro_rules! by_op {
    ($op:expr, $kernel:ident::<$t:ty>($($arg:expr),*)) => {
        match $op {
            ReduceOp::Sum => $kernel::<$t>(|a, b| apply_scalar(a, b, ReduceOp::Sum), $($arg),*),
            ReduceOp::Prod => $kernel::<$t>(|a, b| apply_scalar(a, b, ReduceOp::Prod), $($arg),*),
            ReduceOp::Max => $kernel::<$t>(|a, b| apply_scalar(a, b, ReduceOp::Max), $($arg),*),
            ReduceOp::Min => $kernel::<$t>(|a, b| apply_scalar(a, b, ReduceOp::Min), $($arg),*),
            ReduceOp::Band => $kernel::<$t>(|a, b| apply_scalar(a, b, ReduceOp::Band), $($arg),*),
            ReduceOp::Bor => $kernel::<$t>(|a, b| apply_scalar(a, b, ReduceOp::Bor), $($arg),*),
            ReduceOp::Bxor => $kernel::<$t>(|a, b| apply_scalar(a, b, ReduceOp::Bxor), $($arg),*),
            ReduceOp::Land => $kernel::<$t>(|a, b| apply_scalar(a, b, ReduceOp::Land), $($arg),*),
            ReduceOp::Lor => $kernel::<$t>(|a, b| apply_scalar(a, b, ReduceOp::Lor), $($arg),*),
        }
    };
}

/// Evaluate `$body` with `$T` naming the Rust scalar of `$dt`.
macro_rules! by_type {
    ($dt:expr, $T:ident => $body:expr) => {
        match $dt {
            Datatype::Byte => { type $T = u8; $body }
            Datatype::Char => { type $T = i8; $body }
            Datatype::Int => { type $T = i32; $body }
            Datatype::Unsigned => { type $T = u32; $body }
            Datatype::Long => { type $T = i64; $body }
            Datatype::UnsignedLong => { type $T = u64; $body }
            Datatype::Float => { type $T = f32; $body }
            Datatype::Double => { type $T = f64; $body }
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
    by_type!(dt, T => by_op!(op, in_place_typed::<T>(acc, input)));
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
    by_type!(dt, T => by_op!(op, into_typed::<T>(out, a, b)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values of `dt` where operators change behaviour, as bytes.
    fn edges(dt: Datatype) -> Vec<Vec<u8>> {
        fn bytes<T: Scalar>(values: &[T]) -> Vec<Vec<u8>> {
            let le = |v: &T| {
                let mut b = vec![0u8; T::W];
                v.write_le(&mut b);
                b
            };
            values.iter().map(le).collect()
        }
        macro_rules! int {
            ($t:ty) => {
                bytes::<$t>(&[0, 1, 2, <$t>::MIN, <$t>::MAX, !0])
            };
        }
        macro_rules! float {
            ($t:ty) => {{
                const INF: $t = <$t>::INFINITY;
                bytes::<$t>(&[<$t>::NAN, 0.0, -0.0, 1.0, INF, -INF, <$t>::MIN, <$t>::MAX])
            }};
        }
        match dt {
            Datatype::Byte => int!(u8),
            Datatype::Char => int!(i8),
            Datatype::Int => int!(i32),
            Datatype::Unsigned => int!(u32),
            Datatype::Long => int!(i64),
            Datatype::UnsignedLong => int!(u64),
            Datatype::Float => float!(f32),
            Datatype::Double => float!(f64),
        }
    }

    /// `count` elements of `dt` from a fixed-seed generator: one in four is
    /// an edge value, the rest are random bits. A float's random bits have
    /// the top exponent bit cleared, so [`edges`] plants the only NaN there
    /// is: which payload survives `NaN ⊕ NaN` is not the operator's to say.
    fn elements(dt: Datatype, count: usize, seed: u64) -> Vec<u8> {
        let edges = edges(dt);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut out = Vec::with_capacity(count * dt.size());
        for _ in 0..count {
            let r = next() as usize;
            if r & 3 == 0 {
                out.extend_from_slice(&edges[(r / 4) % edges.len()]);
                continue;
            }
            let mut bits = (next() << 32 | next() & 0xFFFF_FFFF).to_le_bytes();
            if matches!(dt, Datatype::Float | Datatype::Double) {
                bits[dt.size() - 1] &= !0x40;
            }
            out.extend_from_slice(&bits[..dt.size()]);
        }
        out
    }

    /// Element by element through [`apply_scalar`] with a run-time `op`:
    /// what every kernel has to equal bit for bit.
    fn scalar_fold(dt: Datatype, op: ReduceOp, a: &[u8], b: &[u8]) -> Vec<u8> {
        fn typed<T: Scalar>(op: ReduceOp, a: &[u8], b: &[u8]) -> Vec<u8> {
            let mut out = vec![0u8; a.len()];
            for i in (0..a.len()).step_by(T::W) {
                let (a, b) = (T::from_le(&a[i..i + T::W]), T::from_le(&b[i..i + T::W]));
                apply_scalar(a, b, op).write_le(&mut out[i..i + T::W]);
            }
            out
        }
        by_type!(dt, T => typed::<T>(op, a, b))
    }

    /// A buffer holding `bytes` from `.1`, which lies `off` bytes past an
    /// 8-byte boundary.
    fn misaligned(bytes: &[u8], off: usize) -> (Vec<u8>, usize) {
        let mut buf = vec![0u8; bytes.len() + 16];
        let start = (8 - buf.as_ptr() as usize % 8) % 8 + off;
        buf[start..start + bytes.len()].copy_from_slice(bytes);
        (buf, start)
    }

    #[test]
    fn every_cell_equals_the_scalar_definition() {
        const LENGTHS: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 4099];
        for dt in Datatype::ALL {
            let a_all = elements(dt, 4099, 1);
            let b_all = elements(dt, 4099, 2);
            for op in ReduceOp::ALL {
                for count in LENGTHS {
                    let n = count * dt.size();
                    let (a, b) = (&a_all[..n], &b_all[..n]);
                    if check_op(dt, op).is_err() {
                        let invalid = Err(MpiError::InvalidOp(u32::MAX));
                        assert_eq!(reduce_in_place(dt, op, &mut a.to_vec(), b), invalid);
                        assert_eq!(reduce_into(dt, op, &mut vec![0; n], a, b), invalid);
                        continue;
                    }
                    let expected = scalar_fold(dt, op, a, b);
                    for off in 0..8 {
                        let ctx = format!("{dt:?} {op:?}, {count} elements, offset {off}");
                        let (mut acc, acc_at) = misaligned(a, off);
                        let (a_buf, a_at) = misaligned(a, (off + 3) % 8);
                        let (b_buf, b_at) = misaligned(b, (off * 3 + 1) % 8);
                        let (mut out, out_at) = misaligned(&vec![0; n], (off * 5 + 2) % 8);
                        let b = &b_buf[b_at..b_at + n];

                        reduce_in_place(dt, op, &mut acc[acc_at..acc_at + n], b).unwrap();
                        assert_eq!(&acc[acc_at..acc_at + n], expected, "in place: {ctx}");

                        let out = &mut out[out_at..out_at + n];
                        reduce_into(dt, op, out, &a_buf[a_at..a_at + n], b).unwrap();
                        assert_eq!(out, expected, "into: {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_cell_commutes_bit_for_bit() {
        for dt in Datatype::ALL {
            let grid = edges(dt);
            // A float zero of either sign: only the top bit may be set.
            let zero =
                |v: &[u8]| v.iter().rev().skip(1).all(|&b| b == 0) && v[v.len() - 1] << 1 == 0;
            for op in ReduceOp::ALL.into_iter().filter(|&op| check_op(dt, op).is_ok()) {
                for x in &grid {
                    for y in &grid {
                        let (mut xy, mut yx) = (x.clone(), y.clone());
                        reduce_in_place(dt, op, &mut xy, y).unwrap();
                        reduce_in_place(dt, op, &mut yx, x).unwrap();
                        // Zeros of either sign compare equal, so `Max` and
                        // `Min` keep the first operand (docs/mpi_surface.md).
                        let first_wins = matches!(op, ReduceOp::Max | ReduceOp::Min)
                            && matches!(dt, Datatype::Float | Datatype::Double)
                            && zero(x)
                            && zero(y);
                        if first_wins {
                            assert_eq!((&xy, &yx), (x, y), "{dt:?} {op:?}");
                        } else {
                            assert_eq!(xy, yx, "{dt:?} {op:?}({x:x?}, {y:x?})");
                        }
                    }
                }
            }
        }
    }

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

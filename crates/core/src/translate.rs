//! The embedder's two translation layers (paper §3.5, §3.6) plus the
//! instrumentation of §4.6.
//!
//! **Address translation (§3.5).** The guest supplies 32-bit offsets into
//! its linear memory; the host MPI library wants host pointers. Because
//! the instance's linear memory is one contiguous host allocation, the
//! translation is `host_ptr = base + offset`, rendered in safe Rust as a
//! bounds-checked subslice — a zero-copy view, no bytes are moved. The
//! same view is handed to the MPI substrate, which reads/writes guest
//! memory directly.
//!
//! **Datatype translation (§3.6).** MPI libraries do not share an ABI;
//! guests therefore see every MPI object as an opaque 32-bit integer
//! handle. This module owns the handle spaces for datatypes, ops, and
//! communicators and converts between them and the host library's types.
//!
//! **Instrumentation (§4.6).** When enabled, each translation on the send
//! path is timed with the host's monotonic clock and accumulated per
//! datatype and message-size bucket; the Figure 6 harness reads these
//! counters back.

use mpi_substrate::{Datatype, MpiError, ReduceOp};

/// Guest-visible handle constants. These are the values our `mpi.h`
/// equivalent (the DSL guest library in crate `hpc-benchmarks`) uses.
pub mod handles {
    pub const MPI_COMM_WORLD: i32 = 0;
    pub const MPI_COMM_SELF: i32 = 1;
    /// First handle available for `MPI_Comm_split`/`MPI_Comm_dup` results.
    pub const FIRST_DYNAMIC_COMM: i32 = 2;

    pub const MPI_BYTE: i32 = 0;
    pub const MPI_CHAR: i32 = 1;
    pub const MPI_INT: i32 = 2;
    pub const MPI_UNSIGNED: i32 = 3;
    pub const MPI_LONG: i32 = 4;
    pub const MPI_UNSIGNED_LONG: i32 = 5;
    pub const MPI_FLOAT: i32 = 6;
    pub const MPI_DOUBLE: i32 = 7;
    /// First handle assigned to guest-constructed derived datatypes
    /// (`MPI_Type_contiguous`/`Type_vector`/`Type_create_struct`); handles
    /// below this are the predefined primitives above.
    pub const FIRST_DERIVED_DATATYPE: i32 = 8;
    /// `MPI_Type_free` writes this into the guest's handle word. Negative
    /// (and distinct from `MPI_UNDEFINED`) so it can never collide with a
    /// primitive or derived handle.
    pub const MPI_DATATYPE_NULL: i32 = -2;

    /// Null group handle (`MPI_GROUP_NULL`); real group handles are ≥ 1.
    pub const MPI_GROUP_NULL: i32 = 0;
    /// `MPI_Comm_create` result for callers outside the group
    /// (`MPI_COMM_NULL`). Negative so it can never collide with a real
    /// communicator handle.
    pub const MPI_COMM_NULL: i32 = -1;

    pub const MPI_SUM: i32 = 0;
    pub const MPI_PROD: i32 = 1;
    pub const MPI_MAX: i32 = 2;
    pub const MPI_MIN: i32 = 3;
    pub const MPI_BAND: i32 = 4;
    pub const MPI_BOR: i32 = 5;
    pub const MPI_BXOR: i32 = 6;
    pub const MPI_LAND: i32 = 7;
    pub const MPI_LOR: i32 = 8;

    pub const MPI_ANY_SOURCE: i32 = -1;
    pub const MPI_ANY_TAG: i32 = -1;
    /// Null status pointer (`MPI_STATUS_IGNORE`).
    pub const MPI_STATUS_IGNORE: i32 = 0;
    /// Null statuses-array pointer (`MPI_STATUSES_IGNORE`).
    pub const MPI_STATUSES_IGNORE: i32 = 0;
    /// Null request handle (`MPI_REQUEST_NULL`).
    pub const MPI_REQUEST_NULL: i32 = 0;
    /// Null matched-probe message handle (`MPI_MESSAGE_NULL`).
    pub const MPI_MESSAGE_NULL: i32 = 0;
    /// `MPI_UNDEFINED`: no active request in a completion set.
    pub const MPI_UNDEFINED: i32 = -1;
    pub const MPI_SUCCESS: i32 = 0;

    /// Thread levels for `MPI_Init_thread`/`MPI_Query_thread`, in the
    /// standard order (`SINGLE < FUNNELED < SERIALIZED < MULTIPLE`).
    pub const MPI_THREAD_SINGLE: i32 = 0;
    pub const MPI_THREAD_FUNNELED: i32 = 1;
    pub const MPI_THREAD_SERIALIZED: i32 = 2;
    pub const MPI_THREAD_MULTIPLE: i32 = 3;
}

/// Translate a guest datatype handle to the host datatype.
#[inline]
pub fn datatype_from_handle(h: i32) -> Result<Datatype, MpiError> {
    Ok(match h {
        handles::MPI_BYTE => Datatype::Byte,
        handles::MPI_CHAR => Datatype::Char,
        handles::MPI_INT => Datatype::Int,
        handles::MPI_UNSIGNED => Datatype::Unsigned,
        handles::MPI_LONG => Datatype::Long,
        handles::MPI_UNSIGNED_LONG => Datatype::UnsignedLong,
        handles::MPI_FLOAT => Datatype::Float,
        handles::MPI_DOUBLE => Datatype::Double,
        other => return Err(MpiError::InvalidDatatype(other as u32)),
    })
}

/// Translate a guest op handle to the host reduction operator.
#[inline]
pub fn op_from_handle(h: i32) -> Result<ReduceOp, MpiError> {
    Ok(match h {
        handles::MPI_SUM => ReduceOp::Sum,
        handles::MPI_PROD => ReduceOp::Prod,
        handles::MPI_MAX => ReduceOp::Max,
        handles::MPI_MIN => ReduceOp::Min,
        handles::MPI_BAND => ReduceOp::Band,
        handles::MPI_BOR => ReduceOp::Bor,
        handles::MPI_BXOR => ReduceOp::Bxor,
        handles::MPI_LAND => ReduceOp::Land,
        handles::MPI_LOR => ReduceOp::Lor,
        other => return Err(MpiError::InvalidOp(other as u32)),
    })
}

/// Byte length of `count` elements of the datatype behind handle `dt`.
#[inline]
pub fn byte_len(count: i32, dt: Datatype) -> Result<u32, MpiError> {
    // A negative count, or one whose bytes do not fit the guest's 32-bit
    // address space, is the guest's error — never host arithmetic.
    u32::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(dt.size() as u32))
        .ok_or(MpiError::BadCount { bytes: count as isize as usize, type_size: dt.size() })
}

// --- derived datatypes ---------------------------------------------------

/// One contiguous byte run inside a derived datatype's extent.
///
/// `elem_size` is the primitive element size the run is made of — kept per
/// segment (not per type) so `MPI_Get_elements` can count basic elements
/// across struct types mixing primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeSegment {
    pub offset: u32,
    pub len: u32,
    pub elem_size: u32,
}

/// A guest-constructed derived datatype, canonicalized to a *segment
/// list*: the byte runs (in typemap order) one element occupies inside
/// its extent. Composition (contiguous-of-vector, struct-of-struct)
/// flattens at construction time, so the send/receive paths only ever
/// walk one flat list — pack-on-send gathers the runs into a contiguous
/// wire payload, unpack-on-recv scatters them back. The wire format is
/// therefore identical to a manually packed send, which is what the
/// differential proptests pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivedDatatype {
    /// Byte runs of one element, in typemap (pack) order, adjacent runs
    /// coalesced.
    pub segments: Vec<TypeSegment>,
    /// Packed (wire) bytes per element: the sum of segment lengths.
    pub packed_size: u32,
    /// Stride between consecutive elements of this type in guest memory.
    pub extent: u32,
    /// `MPI_Type_commit` has run; communication requires it.
    pub committed: bool,
}

/// Construction-size guard: a single derived type may not flatten to more
/// than this many segments (a `Type_vector(10^9, …)` must not OOM the
/// host).
const MAX_TYPE_SEGMENTS: usize = 1 << 20;

impl DerivedDatatype {
    /// The segment-list view of a primitive datatype (the composition
    /// leaf).
    pub fn primitive(dt: Datatype) -> DerivedDatatype {
        let s = dt.size() as u32;
        DerivedDatatype {
            segments: vec![TypeSegment { offset: 0, len: s, elem_size: s }],
            packed_size: s,
            extent: s,
            committed: true,
        }
    }

    /// Append `inner`'s segments shifted by `base`, coalescing with the
    /// tail run when byte-adjacent in pack order and of the same element
    /// size.
    fn push_shifted(&mut self, inner: &DerivedDatatype, base: u32) {
        for seg in &inner.segments {
            let offset = base + seg.offset;
            if let Some(last) = self.segments.last_mut() {
                if last.offset + last.len == offset && last.elem_size == seg.elem_size {
                    last.len += seg.len;
                    continue;
                }
            }
            self.segments.push(TypeSegment { offset, len: seg.len, elem_size: seg.elem_size });
        }
    }

    fn empty() -> DerivedDatatype {
        DerivedDatatype { segments: Vec::new(), packed_size: 0, extent: 0, committed: false }
    }

    /// Guard the flattened size: `placements` instances of `inner` may
    /// not exceed the segment budget (a `Type_vector(10^9, …)` must not
    /// OOM the host), and every derived byte quantity must fit `u32`
    /// (guest memory is 32-bit).
    fn check_size(placements: u64, inner: &DerivedDatatype, end: u64) -> Result<(), MpiError> {
        if placements * inner.segments.len().max(1) as u64 > MAX_TYPE_SEGMENTS as u64
            || end > u32::MAX as u64
        {
            return Err(MpiError::BadCount {
                bytes: end as usize,
                type_size: inner.extent.max(1) as usize,
            });
        }
        Ok(())
    }

    /// `MPI_Type_contiguous(count, inner)`.
    pub fn contiguous(count: u32, inner: &DerivedDatatype) -> Result<DerivedDatatype, MpiError> {
        let extent = count as u64 * inner.extent as u64;
        Self::check_size(count as u64, inner, extent.max(count as u64 * inner.packed_size as u64))?;
        let mut t = Self::empty();
        for i in 0..count {
            t.push_shifted(inner, i * inner.extent);
        }
        t.packed_size = count * inner.packed_size;
        t.extent = extent as u32;
        Ok(t)
    }

    /// `MPI_Type_vector(count, blocklen, stride, inner)`. `stride` is in
    /// elements of `inner`, as in MPI; negative strides are not supported
    /// (rejected at the host call).
    pub fn vector(
        count: u32,
        blocklen: u32,
        stride: u32,
        inner: &DerivedDatatype,
    ) -> Result<DerivedDatatype, MpiError> {
        if count > 0 && stride < blocklen {
            // Overlapping blocks would make unpack scatter the same bytes
            // twice; MPI allows them for sends only. Keep the table
            // symmetric and reject at construction.
            return Err(MpiError::BadCount {
                bytes: stride as usize,
                type_size: blocklen as usize,
            });
        }
        let placements = count as u64 * blocklen as u64;
        let extent = if count == 0 {
            0
        } else {
            ((count - 1) as u64 * stride as u64 + blocklen as u64) * inner.extent as u64
        };
        Self::check_size(placements, inner, extent.max(placements * inner.packed_size as u64))?;
        let mut t = Self::empty();
        for i in 0..count {
            for j in 0..blocklen {
                t.push_shifted(inner, (i * stride + j) * inner.extent);
            }
        }
        t.packed_size = count * blocklen * inner.packed_size;
        t.extent = extent as u32;
        Ok(t)
    }

    /// `MPI_Type_create_struct`: blocks of `(count, byte displacement,
    /// inner)` in typemap order. The extent is the furthest byte any
    /// block reaches (no alignment padding — the guest controls layout
    /// through explicit displacements).
    pub fn structure(
        blocks: &[(u32, u32, &DerivedDatatype)],
    ) -> Result<DerivedDatatype, MpiError> {
        let mut t = Self::empty();
        let mut packed: u64 = 0;
        for &(count, displ, inner) in blocks {
            let end = displ as u64 + count as u64 * inner.extent as u64;
            packed += count as u64 * inner.packed_size as u64;
            Self::check_size(count as u64, inner, end.max(packed))?;
            for i in 0..count {
                t.push_shifted(inner, displ + i * inner.extent);
            }
            t.packed_size += count * inner.packed_size;
            t.extent = t.extent.max(end as u32);
        }
        if t.segments.len() > MAX_TYPE_SEGMENTS {
            return Err(MpiError::BadCount { bytes: t.segments.len(), type_size: 1 });
        }
        Ok(t)
    }

    /// Bytes of guest memory `count` elements touch: the last element's
    /// furthest segment end. 0 for empty types. In `u64`, as `count` is
    /// the guest's: a span past `u32::MAX` fits no linear memory.
    pub fn span(&self, count: u32) -> u64 {
        if count == 0 || self.segments.is_empty() {
            return 0;
        }
        let last_end = self
            .segments
            .iter()
            .map(|s| s.offset + s.len)
            .max()
            .unwrap_or(0);
        (count - 1) as u64 * self.extent as u64 + last_end as u64
    }

    /// Pack `count` elements from `src` (a guest-memory view starting at
    /// the buffer base, at least [`DerivedDatatype::span`] bytes) into a
    /// contiguous wire payload.
    pub fn pack(&self, count: u32, src: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(count as usize * self.packed_size as usize);
        for i in 0..count {
            let base = (i * self.extent) as usize;
            for seg in &self.segments {
                let at = base + seg.offset as usize;
                out.extend_from_slice(&src[at..at + seg.len as usize]);
            }
        }
        out
    }

    /// Scatter a packed wire payload back into `dst` (a guest-memory view
    /// starting at the buffer base). Fewer bytes than the posted count is
    /// fine (a shorter message was received; trailing elements stay
    /// untouched), including a partial final segment.
    pub fn unpack(&self, bytes: &[u8], dst: &mut [u8]) {
        let mut read = 0usize;
        let mut elem = 0u32;
        'outer: loop {
            let base = (elem * self.extent) as usize;
            for seg in &self.segments {
                if read == bytes.len() {
                    break 'outer;
                }
                let take = (seg.len as usize).min(bytes.len() - read);
                let at = base + seg.offset as usize;
                dst[at..at + take].copy_from_slice(&bytes[read..read + take]);
                read += take;
            }
            elem += 1;
        }
    }

    /// `MPI_Get_elements`: the number of *basic* elements in `bytes`
    /// packed bytes of this type, or `None` when the byte count ends
    /// inside a basic element (`MPI_UNDEFINED`).
    pub fn elements_in(&self, bytes: u32) -> Option<u32> {
        if self.packed_size == 0 {
            return Some(0);
        }
        let full = bytes / self.packed_size;
        let mut rem = bytes % self.packed_size;
        let per_elem: u32 = self.segments.iter().map(|s| s.len / s.elem_size).sum();
        let mut n = full * per_elem;
        for seg in &self.segments {
            if rem == 0 {
                break;
            }
            let take = rem.min(seg.len);
            if take % seg.elem_size != 0 {
                return None;
            }
            n += take / seg.elem_size;
            rem -= take;
        }
        Some(n)
    }
}

/// Accumulated translation-overhead measurements (Figure 6).
///
/// Indexed by datatype and by log₂ message-size bucket; each cell holds
/// the summed nanoseconds and the sample count.
#[derive(Debug, Clone)]
pub struct TranslationStats {
    /// `[datatype][size_bucket] -> (total_ns, samples)`.
    pub cells: Vec<[(f64, u64); Self::BUCKETS]>,
}

impl Default for TranslationStats {
    fn default() -> Self {
        Self::new()
    }
}

impl TranslationStats {
    /// Buckets cover 1 byte .. 4 MiB and beyond (2^0 .. 2^23+).
    pub const BUCKETS: usize = 24;

    pub fn new() -> Self {
        Self { cells: vec![[(0.0, 0); Self::BUCKETS]; Datatype::ALL.len()] }
    }

    pub fn bucket_of(bytes: u32) -> usize {
        (32 - bytes.max(1).leading_zeros() - 1).min(Self::BUCKETS as u32 - 1) as usize
    }

    fn dt_index(dt: Datatype) -> usize {
        Datatype::ALL.iter().position(|d| *d == dt).unwrap()
    }

    pub fn record(&mut self, dt: Datatype, bytes: u32, ns: f64) {
        let cell = &mut self.cells[Self::dt_index(dt)][Self::bucket_of(bytes)];
        cell.0 += ns;
        cell.1 += 1;
    }

    /// Mean translation overhead in ns for a datatype/size bucket, if any
    /// samples were recorded.
    pub fn mean_ns(&self, dt: Datatype, bytes: u32) -> Option<f64> {
        let (total, n) = self.cells[Self::dt_index(dt)][Self::bucket_of(bytes)];
        (n > 0).then(|| total / n as f64)
    }

    /// Mean over every sample of a datatype.
    pub fn mean_ns_all_sizes(&self, dt: Datatype) -> Option<f64> {
        let (total, n) = self.cells[Self::dt_index(dt)]
            .iter()
            .fold((0.0, 0u64), |(t, c), (ct, cc)| (t + ct, c + cc));
        (n > 0).then(|| total / n as f64)
    }

    pub fn total_samples(&self) -> u64 {
        self.cells.iter().flatten().map(|(_, n)| n).sum()
    }

    pub fn merge(&mut self, other: &TranslationStats) {
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.0 += t.0;
                m.1 += t.1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_handles_roundtrip() {
        for (h, dt) in [
            (handles::MPI_BYTE, Datatype::Byte),
            (handles::MPI_CHAR, Datatype::Char),
            (handles::MPI_INT, Datatype::Int),
            (handles::MPI_FLOAT, Datatype::Float),
            (handles::MPI_DOUBLE, Datatype::Double),
            (handles::MPI_LONG, Datatype::Long),
        ] {
            assert_eq!(datatype_from_handle(h).unwrap(), dt);
        }
        assert!(datatype_from_handle(99).is_err());
        assert!(datatype_from_handle(-2).is_err());
    }

    #[test]
    fn op_handles_roundtrip() {
        assert_eq!(op_from_handle(handles::MPI_SUM).unwrap(), ReduceOp::Sum);
        assert_eq!(op_from_handle(handles::MPI_LOR).unwrap(), ReduceOp::Lor);
        assert!(op_from_handle(42).is_err());
    }

    #[test]
    fn byte_len_checks_sign() {
        assert_eq!(byte_len(16, Datatype::Double).unwrap(), 128);
        assert_eq!(byte_len(0, Datatype::Int).unwrap(), 0);
        assert!(byte_len(-1, Datatype::Int).is_err());
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(TranslationStats::bucket_of(1), 0);
        assert_eq!(TranslationStats::bucket_of(8), 3);
        assert_eq!(TranslationStats::bucket_of(9), 3);
        assert_eq!(TranslationStats::bucket_of(1 << 20), 20);
        assert_eq!(TranslationStats::bucket_of(u32::MAX), 23);
        assert_eq!(TranslationStats::bucket_of(0), 0);
    }

    #[test]
    fn record_and_mean() {
        let mut s = TranslationStats::new();
        s.record(Datatype::Double, 1024, 100.0);
        s.record(Datatype::Double, 1024, 200.0);
        assert_eq!(s.mean_ns(Datatype::Double, 1024), Some(150.0));
        assert_eq!(s.mean_ns(Datatype::Int, 1024), None);
        assert_eq!(s.total_samples(), 2);
        assert_eq!(s.mean_ns_all_sizes(Datatype::Double), Some(150.0));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TranslationStats::new();
        a.record(Datatype::Int, 8, 10.0);
        let mut b = TranslationStats::new();
        b.record(Datatype::Int, 8, 30.0);
        a.merge(&b);
        assert_eq!(a.mean_ns(Datatype::Int, 8), Some(20.0));
    }
}

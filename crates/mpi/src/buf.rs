//! The two buffer spans every nonblocking verb takes: a [`SendBuf`] the
//! substrate may read, a [`RecvBuf`] it may write, until the request holding
//! the span completes or is dropped. A native caller makes one from a
//! borrowed slice, so the borrow checker holds the buffer for the request's
//! lifetime. An embedder whose buffers outlive any borrow — linear memory,
//! referenced from a request table — makes a `'static` one with `pinned`
//! and takes the pin contract on itself. This file holds every
//! `from_raw_parts` of the crate: a span's bytes are reached nowhere else.

use std::marker::PhantomData;

/// What both spans are: a base and a length.
#[derive(Clone, Copy)]
struct Raw {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: a `Raw` is inert: only the `unsafe` views below dereference it,
// and their contracts cover the one cross-thread use, a rendezvous receiver
// reading the sender's span under the slot's state lock while the sender's
// request is live (`rendezvous_arrival_against_posted_buffer_is_zero_copy`
// in `tests/progress.rs`, and `tests/thread_multiple.rs`, would see a race).
unsafe impl Send for Raw {}
unsafe impl Sync for Raw {}

impl Raw {
    /// The bytes `off..off + len` of this span. Panics if they leave it:
    /// every view relies on this check.
    fn sub(self, off: usize, len: usize) -> Raw {
        let fits = off.checked_add(len).is_some_and(|end| end <= self.len);
        assert!(fits, "span {off}+{len} outside its {}-byte buffer", self.len);
        Raw { ptr: self.ptr.wrapping_add(off), len }
    }
}

/// Bytes the substrate may read until the request holding them completes
/// or is dropped: a send buffer, a collective's contribution.
#[derive(Clone, Copy)]
pub struct SendBuf<'a> {
    raw: Raw,
    _life: PhantomData<&'a [u8]>,
}

/// Bytes the substrate may write until the request holding them completes
/// or is dropped: a receive buffer, a collective's result. Not `Copy`: two
/// copies would be two writers of the same bytes.
pub struct RecvBuf<'a> {
    raw: Raw,
    _life: PhantomData<&'a mut [u8]>,
}

impl SendBuf<'static> {
    /// A span over `ptr..ptr + len` that no borrow holds: the embedder's
    /// way in.
    ///
    /// # Safety
    /// The pin contract: `ptr..ptr + len` is valid for reads and stays
    /// allocated and in place — not freed, moved or shrunk — until every
    /// request holding the span has completed or been dropped. Changing
    /// the bytes meanwhile breaks MPI's rule, not this one: the peer gets
    /// unspecified bytes, and nothing is read outside the span
    /// (`crates/core/tests/in_flight_buffers.rs`).
    pub unsafe fn pinned(ptr: *const u8, len: usize) -> Self {
        SendBuf { raw: Raw { ptr: ptr.cast_mut(), len }, _life: PhantomData }
    }
}

impl RecvBuf<'static> {
    /// [`SendBuf::pinned`], for writes.
    ///
    /// # Safety
    /// [`SendBuf::pinned`]'s contract, with the range valid for writes
    /// and its bytes relied on by no one until the requests end.
    pub unsafe fn pinned(ptr: *mut u8, len: usize) -> Self {
        RecvBuf { raw: Raw { ptr, len }, _life: PhantomData }
    }
}

impl<'a> SendBuf<'a> {
    pub(crate) fn len(&self) -> usize {
        self.raw.len
    }

    /// The bytes `off..off + len` of this span; panics if they leave it.
    pub(crate) fn sub(self, off: usize, len: usize) -> SendBuf<'a> {
        SendBuf { raw: self.raw.sub(off, len), _life: PhantomData }
    }

    /// The span without its lifetime, for state the borrow checker cannot
    /// follow (a rendezvous slot in a peer's mailbox): the request holding
    /// it keeps the lifetime, and cancels what is in flight before it ends.
    pub(crate) fn erased(self) -> SendBuf<'static> {
        SendBuf { raw: self.raw, _life: PhantomData }
    }

    /// # Safety
    /// The span is live — its request has neither completed nor been
    /// dropped — and nothing writes the bytes while the view is used.
    pub(crate) unsafe fn bytes(&self) -> &[u8] {
        // SAFETY: the caller's contract; an empty span is never
        // dereferenced, whatever its base (`tests`).
        match self.raw.len {
            0 => &[],
            len => std::slice::from_raw_parts(self.raw.ptr, len),
        }
    }
}

impl<'a> RecvBuf<'a> {
    pub(crate) fn len(&self) -> usize {
        self.raw.len
    }

    /// The bytes `off..off + len` of this span; panics if they leave it.
    pub(crate) fn sub(&self, off: usize, len: usize) -> RecvBuf<'a> {
        RecvBuf { raw: self.raw.sub(off, len), _life: PhantomData }
    }

    /// A second handle on the same bytes, for a persistent receive's
    /// next cycle: only the active one is written through.
    pub(crate) fn alias(&self) -> RecvBuf<'a> {
        RecvBuf { raw: self.raw, _life: PhantomData }
    }

    /// The same bytes, to read or to send from.
    pub(crate) fn readable(&self) -> SendBuf<'a> {
        SendBuf { raw: self.raw, _life: PhantomData }
    }

    /// [`SendBuf::erased`].
    pub(crate) fn erased(self) -> RecvBuf<'static> {
        RecvBuf { raw: self.raw, _life: PhantomData }
    }

    /// # Safety
    /// As [`SendBuf::bytes`], and nothing else reads or writes the bytes
    /// while the view is used.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn bytes_mut(&self) -> &mut [u8] {
        // SAFETY: as in `SendBuf::bytes`.
        match self.raw.len {
            0 => &mut [],
            len => std::slice::from_raw_parts_mut(self.raw.ptr, len),
        }
    }
}

/// The empty span: a side a collective ignores on this rank.
impl Default for SendBuf<'_> {
    fn default() -> Self {
        SendBuf::from(<&[u8]>::default())
    }
}

impl Default for RecvBuf<'_> {
    fn default() -> Self {
        RecvBuf::from(<&mut [u8]>::default())
    }
}

/// A borrowed slice, array or `Vec`.
impl<'a, B: AsRef<[u8]> + ?Sized> From<&'a B> for SendBuf<'a> {
    fn from(buf: &'a B) -> Self {
        let buf = buf.as_ref();
        SendBuf { raw: Raw { ptr: buf.as_ptr().cast_mut(), len: buf.len() }, _life: PhantomData }
    }
}

/// A mutably borrowed slice, array or `Vec`.
impl<'a, B: AsMut<[u8]> + ?Sized> From<&'a mut B> for RecvBuf<'a> {
    fn from(buf: &'a mut B) -> Self {
        let buf = buf.as_mut();
        RecvBuf { raw: Raw { ptr: buf.as_mut_ptr(), len: buf.len() }, _life: PhantomData }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "span 6+4 outside its 8-byte buffer")]
    fn a_sub_span_past_the_end_panics() {
        let bytes = [0u8; 8];
        SendBuf::from(&bytes).sub(6, 4);
    }

    #[test]
    fn a_sub_span_views_its_own_bytes() {
        let mut bytes = *b"abcdefgh";
        let buf = RecvBuf::from(&mut bytes);
        // SAFETY: `bytes` is borrowed by `buf`, and the two views are
        // disjoint.
        unsafe {
            buf.sub(4, 4).bytes_mut().copy_from_slice(buf.sub(0, 4).readable().bytes());
        }
        assert_eq!(&bytes, b"abcdabcd");
    }

    #[test]
    fn an_empty_span_is_never_dereferenced() {
        // Null and dangling bases, as an embedder's pointer arithmetic
        // may produce for a zero-length buffer: a view must not touch them.
        for base in [std::ptr::null_mut(), usize::MAX as *mut u8] {
            // SAFETY: the spans are empty, so the contract holds vacuously.
            let (send, recv) = unsafe { (SendBuf::pinned(base, 0), RecvBuf::pinned(base, 0)) };
            // SAFETY: as above.
            unsafe {
                assert!(send.bytes().is_empty());
                assert!(recv.bytes_mut().is_empty());
                assert!(send.sub(0, 0).bytes().is_empty());
            }
        }
    }
}

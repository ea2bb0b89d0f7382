//! The `env.MPI_*` host functions (paper §3.7).
//!
//! Every function follows the same pattern the paper describes: translate
//! the guest's 32-bit handles and addresses (crate-level [`crate::translate`]),
//! then defer to the host MPI library with zero-copy buffer views over the
//! instance's linear memory. That pattern is written once. The guest ABI is
//! a table — [`verbs`] — whose rows give a verb's name, its signature as a
//! tuple of typed argument decoders (module `abi`), whether a call is
//! charged to the virtual clock, and a body that receives the decoded
//! values; one trampoline runs every row.
//!
//! MPI failures surface as guest-visible MPI error codes, and so does a
//! *data* buffer or input array that leaves linear memory
//! (`MPI_ERR_COUNT`). Addresses the host must write a result through —
//! out-pointers, statuses, handle words — trap when out of bounds.
//!
//! `MPI_Alloc_mem`/`MPI_Free_mem` are the special case of §3.7: the host
//! library's allocator would return 64-bit host addresses that mean nothing
//! in the guest's 32-bit memory, so they re-enter the guest's `malloc`/`free`.

mod abi;

use std::time::Instant;

use mpi_substrate::request::backoff;
use mpi_substrate::{Comm, Datatype, MpiError, MpiMessage, Request, Source, Status};
use wasm_engine::error::Trap;
use wasm_engine::runtime::{Instance, Linker, Memory, Value};

use crate::env::{Env, MpiState};
use crate::translate::{
    byte_len, datatype_from_handle, handles, op_from_handle, DerivedDatatype,
};
use abi::{
    Arg, Buf, BufPtr, CommH, Count, Cx, DtypeH, GroupH, HandlePtr, HostResult, I32Array, Int, OpH,
    OutBuf, OutI32, Rank, ReqArray, StatusArray, StatusPtr, Tag,
};
pub use abi::{Kind, Verb};

/// Guest-side `MPI_Status` layout (our `mpi.h` equivalent):
/// `{ i32 MPI_SOURCE; i32 MPI_TAG; i32 MPI_ERROR; i32 count_bytes;
///    i32 cancelled }`. The trailing word is the implementation-internal
/// field `MPI_Test_cancelled` reads, as in real MPI's opaque status.
pub const STATUS_SIZE: u32 = 20;

/// What `MPI_Alloc_mem`/`MPI_Free_mem` return when the guest exports no
/// allocator or its `malloc` returned null: no [`MpiError`] says that, so
/// the ABI answers with `MPI_ERR_COUNT`'s value, as it always has.
const ALLOC_MEM_FAILED: i32 = 2;

/// The `charged` column of the table.
const CHARGED: bool = true;
const FREE: bool = false;

type NewRequest = Result<Request<'static>, MpiError>;

/// Translate a buffer's `(count, datatype)` on an instrumented path:
/// returns the host datatype and byte length, recording the translation
/// time when instrumentation is on (§4.6).
fn translate(env: &mut Env, buf: Buf) -> Result<(Datatype, u32), MpiError> {
    let t0 = env.mpi.instrument.then(Instant::now);
    let dt = datatype_from_handle(buf.dtype)?;
    let bytes = byte_len(buf.count, dt)?;
    if let Some(t0) = t0 {
        env.mpi.stats.record(dt, bytes.max(1), t0.elapsed().as_nanos() as f64);
    }
    Ok((dt, bytes))
}

/// A data buffer that leaves linear memory is the guest's `MPI_ERR_COUNT`.
fn bad_range(bytes: u64) -> MpiError {
    MpiError::BadCount { bytes: bytes as usize, type_size: 1 }
}

fn non_negative(v: i32) -> Result<u32, MpiError> {
    u32::try_from(v).map_err(|_| bad_range(v as i64 as u64))
}

/// Zero-copy: the slice *is* guest memory (§3.5).
fn view(mem: &Memory, ptr: u32, bytes: u32) -> Result<&[u8], MpiError> {
    mem.slice(ptr, bytes).map_err(|_| bad_range(bytes as u64))
}

fn view_mut(mem: &mut Memory, ptr: u32, bytes: u32) -> Result<&mut [u8], MpiError> {
    mem.slice_mut(ptr, bytes).map_err(|_| bad_range(bytes as u64))
}

fn send_view<'m>(mem: &'m Memory, env: &mut Env, buf: Buf) -> Result<&'m [u8], MpiError> {
    view(mem, buf.ptr, translate(env, buf)?.1)
}

/// The target region must be valid now, as real MPI requires of a posted
/// buffer.
fn recv_view<'m>(mem: &'m mut Memory, env: &mut Env, buf: Buf) -> Result<&'m mut [u8], MpiError> {
    view_mut(mem, buf.ptr, translate(env, buf)?.1)
}

/// Both buffers of a call that reads one guest region while writing
/// another. MPI requires them disjoint: overlap is a usage error, a range
/// outside memory `MPI_ERR_COUNT` like any other data buffer.
fn buffer_pair(
    mem: &mut Memory,
    send: (u32, u32),
    recv: (u32, u32),
) -> Result<(&[u8], &mut [u8]), MpiError> {
    mem.disjoint_pair(send, recv).map_err(|t| match t {
        Trap::MemoryOutOfBounds { len, .. } => bad_range(len),
        overlap => MpiError::CollectiveMismatch(overlap.to_string()),
    })
}

/// Resolve any datatype handle to its segment-list view: primitive
/// handles become their one-segment leaf, derived handles come from the
/// rank's type table (committed or not — construction composes over
/// uncommitted types).
fn resolve_dtype(env: &Env, h: i32) -> Result<DerivedDatatype, MpiError> {
    if h < handles::FIRST_DERIVED_DATATYPE {
        Ok(DerivedDatatype::primitive(datatype_from_handle(h)?))
    } else {
        env.mpi.dtypes.get(h).cloned()
    }
}

fn is_derived(buf: Buf) -> bool {
    buf.dtype >= handles::FIRST_DERIVED_DATATYPE
}

/// A derived-datatype buffer for communication: the type must exist *and*
/// be committed, the count be non-negative, and both the guest-memory
/// span (returned) and the packed wire size fit 32 bits.
fn derived_span(env: &Env, buf: Buf) -> Result<(DerivedDatatype, u32), MpiError> {
    let dt = resolve_dtype(env, buf.dtype)?;
    if !dt.committed {
        return Err(MpiError::InvalidDatatype(buf.dtype as u32));
    }
    let count = non_negative(buf.count)?;
    let (span, packed) = (dt.span(count), count as u64 * dt.packed_size as u64);
    if span.max(packed) > u32::MAX as u64 {
        return Err(bad_range(span.max(packed)));
    }
    Ok((dt, span as u32))
}

/// Pack-on-send: gather a derived-type buffer into an owned contiguous
/// wire payload, byte-identical to a manually packed send — the receiver
/// never needs to know, and the guest buffer needs no pinning past this
/// call.
fn pack_guest(mem: &Memory, env: &Env, buf: Buf) -> Result<Box<[u8]>, MpiError> {
    let (dt, span) = derived_span(env, buf)?;
    Ok(dt.pack(buf.count as u32, view(mem, buf.ptr, span)?).into_boxed_slice())
}

// --- progress: the one blocked-call loop --------------------------------------

/// Every host call that waits is this loop around a `poll` of its own
/// operation. Between polls the rank's whole request table progresses — a
/// guest waiting on a rendezvous Isend before its posted Irecv must still
/// service the peer's symmetric exchange: matched receives need their
/// delivery step (payload copy, clock charge, rendezvous completion), and
/// parked peers depend on it. A poll that finds nothing else to drive
/// parks on the substrate's blocking form instead of returning `None`.
fn drive<T, E>(
    cx: &mut Cx<'_>,
    mut poll: impl FnMut(&mut Cx<'_>) -> Result<Option<T>, E>,
) -> Result<T, E> {
    let mut spins = 0u32;
    loop {
        if let Some(done) = poll(cx)? {
            return Ok(done);
        }
        cx.env.mpi.requests.progress_all();
        backoff(&mut spins);
    }
}

/// Complete a local (untabled) request: a rank parked in `MPI_Send`/
/// `MPI_Recv`/a collective still services its posted receives (a posted
/// `MPI_Irecv` lets the peer's matching standard-mode send proceed). With
/// an empty table — the overwhelmingly common case — it parks at once.
fn wait_local(cx: &mut Cx<'_>, req: &mut Request<'static>) -> Result<Status, MpiError> {
    // Table first: older posted receives deliver before this request.
    cx.env.mpi.requests.progress_all();
    drive(cx, |cx| {
        req.progress();
        if req.is_complete() {
            return req.take_result().map(Some);
        }
        if cx.env.mpi.requests.progress_work() == 0 {
            return req.wait().map(Some);
        }
        Ok(None)
    })
}

/// What one request slot holds, after one step on it.
enum Scan {
    /// Nothing to wait for: a null handle or an inactive persistent
    /// request (MPI's `MPI_UNDEFINED` cases).
    Idle,
    Pending,
    /// Completed, or failed (an invalid handle included).
    Finished(Result<Status, MpiError>),
}

impl Scan {
    /// `None` while pending; an idle slot completes with the empty status.
    fn outcome(self) -> Option<Result<Status, MpiError>> {
        match self {
            Scan::Idle => Some(Ok(Status::empty())),
            Scan::Pending => None,
            Scan::Finished(outcome) => Some(outcome),
        }
    }
}

/// Run `op` on the live request behind `slot`. A one-shot request that
/// finished leaves the table and the guest's word becomes
/// `MPI_REQUEST_NULL` — *also on failure*: no dangling handles. Persistent
/// requests survive completion and errors, as `MPI_Start` must stay legal.
fn step(cx: &mut Cx<'_>, slot: HandlePtr, op: impl FnOnce(&mut Request<'static>) -> Scan) -> Scan {
    if slot.handle <= 0 {
        return Scan::Idle;
    }
    // Scope the table guard: removal below re-takes the table lock.
    let (persistent, scan) = match cx.env.mpi.requests.request_mut(slot.handle) {
        Ok(mut req) => (req.is_persistent(), op(&mut req)),
        Err(e) => return Scan::Finished(Err(e)),
    };
    if matches!(scan, Scan::Finished(_)) && !persistent {
        let _ = cx.env.mpi.requests.remove(slot.handle);
        let _ = slot.set(cx.mem, handles::MPI_REQUEST_NULL);
    }
    scan
}

/// The `MPI_Test` step: progress, and take the outcome if there is one.
fn test_step(req: &mut Request<'static>) -> Scan {
    if !req.participates() {
        return Scan::Idle;
    }
    req.test().transpose().map_or(Scan::Pending, Scan::Finished)
}

/// Wait for the request behind `slot`.
fn wait_one(cx: &mut Cx<'_>, slot: HandlePtr) -> Result<Status, MpiError> {
    if slot.handle <= 0 {
        return Ok(Status::empty());
    }
    cx.env.mpi.requests.progress_all();
    drive(cx, |cx| {
        if let Some(outcome) = step(cx, slot, test_step).outcome() {
            return outcome.map(Some);
        }
        let own = usize::from(cx.env.mpi.requests.request_mut(slot.handle)?.needs_progress());
        if cx.env.mpi.requests.progress_work() != own {
            return Ok(None);
        }
        // Nothing else needs driving: park, holding the table guard (it
        // is dropped before the handle is retired; the wake-up comes from
        // the peer's mailbox side, which never takes our table lock).
        step(cx, slot, |req| Scan::Finished(req.wait())).outcome().transpose()
    })
}

/// One pass of `MPI_Waitany`/`MPI_Testany`: the first finished request in
/// array order, else whether any request is still active.
fn scan_any(cx: &mut Cx<'_>, reqs: ReqArray) -> Result<(u32, Result<Status, MpiError>), bool> {
    let mut any_active = false;
    for i in 0..reqs.len {
        match step(cx, reqs.slot(cx.mem, i), test_step) {
            Scan::Idle => {}
            Scan::Pending => any_active = true,
            Scan::Finished(outcome) => return Ok((i, outcome)),
        }
    }
    Err(any_active)
}

/// The tail of a verb that completes one operation into a status.
fn complete(cx: &mut Cx<'_>, status: StatusPtr, outcome: Result<Status, MpiError>) -> HostResult<()> {
    status.write_outcome(cx.mem, &outcome);
    Ok(outcome.map(drop)?)
}

/// The tail of a request-creating verb.
fn finish_request(cx: &mut Cx<'_>, out: OutI32, req: Request<'static>) -> HostResult<()> {
    let handle = cx.env.mpi.requests.insert(req);
    out.set(cx.mem, handle)
}

// --- row shapes: verbs that differ only in how what they build is finished -------

/// `MPI_X(args…)`: the request `build` makes, driven to completion inside
/// the call — a rank parked here still services its posted receives, and
/// the guest cannot touch buffers a collective's schedule reads at poll
/// time.
fn blocking<A: Arg>(
    name: &'static str,
    build: impl Fn(&mut Cx<'_>, A) -> NewRequest + Send + Sync + 'static,
) -> Verb {
    Verb::new(name, CHARGED, move |cx: &mut Cx<'_>, args: A| {
        let mut req = build(cx, args)?;
        Ok(wait_local(cx, &mut req).map(drop)?)
    })
}

/// `MPI_IX(args…, request_ptr)`: the same request handed to the guest, a
/// true pending operation in the substrate's progress engine. Its buffers
/// live in linear memory, which `Memory::grow` never moves: a guest that
/// touches one early (docs/mpi_surface.md, *Buffer rules*) gets the result
/// MPI leaves undefined, never a host fault.
fn nonblocking<A: Arg>(
    name: &'static str,
    charged: bool,
    build: impl Fn(&mut Cx<'_>, A) -> NewRequest + Send + Sync + 'static,
) -> Verb {
    Verb::new(name, charged, move |cx: &mut Cx<'_>, (args, out): (A, OutI32)| {
        let req = build(cx, args)?;
        finish_request(cx, out, req)
    })
}

/// `MPI_X` and `MPI_IX` of one collective: one decoder checks every
/// handle, count, root and buffer range, once, for both entry points.
fn collective<A: Arg>(
    names: [&'static str; 2],
    build: fn(&mut Cx<'_>, A) -> NewRequest,
) -> [Verb; 2] {
    [blocking(names[0], build), nonblocking(names[1], CHARGED, build)]
}

/// `MPI_X(args…, out_ptr)`: compute one `i32` — a value looked up, or the
/// handle of what the body built and registered — and write it.
fn writes<A: Arg>(
    name: &'static str,
    charged: bool,
    compute: impl Fn(&mut Cx<'_>, A) -> HostResult<i32> + Send + Sync + 'static,
) -> Verb {
    Verb::new(name, charged, move |cx: &mut Cx<'_>, (args, out): (A, OutI32)| {
        let value = compute(cx, args)?;
        out.set(cx.mem, value)
    })
}

/// `MPI_X_free(handle_ptr)`: free the slot, null the guest's word.
fn frees(name: &'static str, free: fn(&mut MpiState, i32) -> Result<(), MpiError>, null: i32) -> Verb {
    Verb::new(name, FREE, move |cx: &mut Cx<'_>, word: HandlePtr| {
        free(&mut cx.env.mpi, word.handle)?;
        word.set(cx.mem, null)
    })
}

/// A communicator constructor's result: callers outside the new group
/// (or passing `MPI_UNDEFINED` as color) get `MPI_COMM_NULL`.
fn insert_comm(cx: &mut Cx<'_>, comm: Option<Comm>) -> i32 {
    comm.map_or(handles::MPI_COMM_NULL, |c| cx.env.mpi.insert_comm(c))
}

// --- point-to-point --------------------------------------------------------------

/// `(buf, count, datatype, dest | source, tag, comm)`.
type P2pArgs = (Buf, Rank, Tag, CommH);

/// A send mode: the substrate's constructor over a pinned guest buffer,
/// and the one over an owned payload (a packed derived-type buffer).
type SendMode = (
    unsafe fn(&Comm, *const u8, usize, u32, i32) -> NewRequest,
    Option<fn(&Comm, Box<[u8]>, u32, i32) -> NewRequest>,
);
const STANDARD: SendMode = (Comm::isend_raw, Some(Comm::isend_owned));
/// Completion implies the receiver matched, at every size.
const SYNCHRONOUS: SendMode = (Comm::issend_raw, Some(Comm::issend_owned));
/// `MPI_Send_init`: primitive datatypes only.
const PERSISTENT: SendMode = (Comm::send_init_raw, None);

/// The request of `MPI_Send`/`Isend`/`Ssend`/`Issend`/`Send_init`.
fn send_request(
    cx: &mut Cx<'_>,
    (raw, owned): SendMode,
    (buf, dest, tag, comm): P2pArgs,
) -> NewRequest {
    if let Some(owned) = owned.filter(|_| is_derived(buf)) {
        // The guest may reuse its buffer at once, but the request must
        // still be completed (it carries the delivery handshake).
        let data = pack_guest(cx.mem, cx.env, buf)?;
        return owned(cx.env.mpi.comm(comm.0)?, data, dest.rank(), tag.0);
    }
    let view = send_view(cx.mem, cx.env, buf)?;
    let (ptr, len) = (view.as_ptr(), view.len());
    // SAFETY: `ptr..ptr+len` was just bounds-checked inside the instance's
    // linear memory, which never moves or shrinks while the instance
    // lives, and the request is retired (or dropped with the `Env`) before
    // the instance is; leaving the bytes alone until then is MPI's rule.
    unsafe { raw(cx.env.mpi.comm(comm.0)?, ptr, len, dest.rank(), tag.0) }
}

/// `irecv_raw`, `recv_init_raw`, or — for a blocking call, which is
/// charged at delivery — `irecv_raw_uncharged`.
type RawRecv = unsafe fn(&Comm, *mut u8, usize, Source, mpi_substrate::Tag) -> NewRequest;

/// The request of `MPI_Recv`/`Irecv`/`Recv_init` into a primitive-type
/// buffer. The translation rejects derived handles (as the collectives'
/// does): a nonblocking unpack would need a staging buffer that outlives
/// the call, so guests receive derived types with the blocking `MPI_Recv`.
fn recv_request(cx: &mut Cx<'_>, raw: RawRecv, (buf, src, tag, comm): P2pArgs) -> NewRequest {
    let view = recv_view(cx.mem, cx.env, buf)?;
    let (ptr, len) = (view.as_mut_ptr(), view.len());
    // SAFETY: as in `send_request`; the receive region is the guest's to
    // leave alone until completion, and nothing else on the host holds it.
    unsafe { raw(cx.env.mpi.comm(comm.0)?, ptr, len, src.source(), tag.matcher()) }
}

/// Unpack-on-recv: the packed wire payload lands in a host staging
/// buffer, then scatters into guest memory per the type's segment list.
/// The status carries *packed* bytes, which is what `MPI_Get_count`/
/// `MPI_Get_elements` divide by.
fn recv_derived(cx: &mut Cx<'_>, (buf, src, tag, comm): P2pArgs) -> Result<Status, MpiError> {
    let (dt, span) = derived_span(cx.env, buf)?;
    // Up front, as real MPI requires of the posted buffer.
    view_mut(cx.mem, buf.ptr, span)?;
    let mut staging = vec![0u8; buf.count as usize * dt.packed_size as usize];
    let (ptr, len) = (staging.as_mut_ptr(), staging.len());
    let comm = cx.env.mpi.comm(comm.0)?;
    // SAFETY: `staging` is owned by this frame and outlives `req`, which
    // is completed (or dropped) before the function returns.
    let mut req = unsafe { comm.irecv_raw_uncharged(ptr, len, src.source(), tag.matcher()) }?;
    let st = wait_local(cx, &mut req)?;
    dt.unpack(&staging[..st.bytes.min(len)], view_mut(cx.mem, buf.ptr, span)?);
    Ok(st)
}

fn recv(cx: &mut Cx<'_>, (args, status): (P2pArgs, StatusPtr)) -> HostResult<()> {
    let outcome = if is_derived(args.0) {
        recv_derived(cx, args)
    } else {
        recv_request(cx, Comm::irecv_raw_uncharged, args).and_then(|mut r| wait_local(cx, &mut r))
    };
    complete(cx, status, outcome)
}

/// `MPI_Sendrecv(sbuf, scount, stype, dest, stag,
///               rbuf, rcount, rtype, source, rtag, comm, status)`
fn sendrecv(
    cx: &mut Cx<'_>,
    (sbuf, dest, stag, rbuf, src, rtag, comm, status): (Buf, Rank, Tag, Buf, Rank, Tag, CommH, StatusPtr),
) -> HostResult<()> {
    let outcome = (|| {
        let (sbytes, rbytes) = (translate(cx.env, sbuf)?.1, translate(cx.env, rbuf)?.1);
        let (sview, rview) = buffer_pair(cx.mem, (sbuf.ptr, sbytes), (rbuf.ptr, rbytes))?;
        let (sptr, slen) = (sview.as_ptr(), sview.len());
        let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
        let comm = cx.env.mpi.comm(comm.0)?;
        // SAFETY: both regions were just bounds-checked in linear memory,
        // disjoint; both requests complete before this call returns.
        let (mut sreq, mut rreq) = unsafe {
            (
                comm.isend_raw(sptr, slen, dest.rank(), stag.0)?,
                comm.irecv_raw_uncharged(rptr, rlen, src.source(), rtag.matcher())?,
            )
        };
        // Receive first (it needs active progress); the send completes
        // passively once the peer drains it, and is driven to completion
        // even when the receive errors — cancelling it would un-send a
        // message the peer may be blocked waiting for.
        let received = wait_local(cx, &mut rreq);
        let sent = wait_local(cx, &mut sreq);
        let st = received?;
        sent.map(|_| st)
    })();
    complete(cx, status, outcome)
}

/// `MPI_Bsend`/`MPI_Ibsend`: copy (or pack) the payload into an owned wire
/// buffer, start the send and *detach* it — buffered sends complete
/// locally by definition; the detached request stays parked in the table
/// and delivers when the peer drains it. The guest's attached buffer is
/// accounting only: the host just refuses sends larger than it, as
/// MPI_ERR_BUFFER requires.
fn buffered_send(cx: &mut Cx<'_>, (buf, dest, tag, comm): P2pArgs) -> Result<(), MpiError> {
    let data: Box<[u8]> = if is_derived(buf) {
        pack_guest(cx.mem, cx.env, buf)?
    } else {
        send_view(cx.mem, cx.env, buf)?.into()
    };
    cx.env.mpi.check_buffered(data.len())?;
    let req = cx.env.mpi.comm(comm.0)?.isend_owned(data, dest.rank(), tag.0)?;
    let handle = cx.env.mpi.requests.insert(req);
    cx.env.mpi.requests.detach(handle)
}

// --- probes and matched receives --------------------------------------------------

/// `(source, tag, comm)`.
type ProbeArgs = (Rank, Tag, CommH);

/// One probe. With a `flag` word it is `MPI_Iprobe`/`MPI_Improbe`: one
/// `attempt`, hit-or-miss written to the flag. Without, `MPI_Probe`/
/// `MPI_Mprobe`: poll `attempt` while the request table progresses — a
/// probe may only become answerable once this rank's own pending
/// operations drive their protocols — and `park` (the substrate's
/// blocking form) when the table has nothing to drive.
fn probe_with<T>(
    cx: &mut Cx<'_>,
    (src, tag, comm): ProbeArgs,
    flag: Option<OutI32>,
    attempt: fn(&Comm, Source, mpi_substrate::Tag) -> Result<Option<T>, MpiError>,
    park: fn(&Comm, Source, mpi_substrate::Tag) -> Result<T, MpiError>,
) -> HostResult<Option<T>> {
    let (src, tag) = (src.source(), tag.matcher());
    let Some(flag) = flag else {
        return Ok(Some(drive(cx, |cx| {
            let comm = cx.env.mpi.comm(comm.0)?;
            match attempt(comm, src, tag)? {
                None if cx.env.mpi.requests.progress_work() == 0 => park(comm, src, tag).map(Some),
                hit => Ok(hit),
            }
        })?));
    };
    let hit = attempt(cx.env.mpi.comm(comm.0)?, src, tag)?;
    flag.set(cx.mem, hit.is_some() as i32)?;
    Ok(hit)
}

/// `MPI_Iprobe` with the flag, `MPI_Probe` without.
fn probe(cx: &mut Cx<'_>, args: ProbeArgs, flag: Option<OutI32>, status: StatusPtr) -> HostResult<()> {
    if let Some(st) = probe_with(cx, args, flag, Comm::iprobe, Comm::probe)? {
        status.write(cx.mem, &st, handles::MPI_SUCCESS);
    }
    Ok(())
}

/// `MPI_Improbe` with the flag, `MPI_Mprobe` without. A hit is *extracted*
/// into the rank's message table (no concurrent receive can steal it).
fn matched_probe(
    cx: &mut Cx<'_>,
    args: ProbeArgs,
    flag: Option<OutI32>,
    message: OutI32,
    status: StatusPtr,
) -> HostResult<()> {
    let Some((msg, st)) = probe_with(cx, args, flag, Comm::improbe, Comm::mprobe)? else {
        return message.set(cx.mem, handles::MPI_MESSAGE_NULL);
    };
    let handle = cx.env.mpi.insert_message(msg);
    status.write(cx.mem, &st, handles::MPI_SUCCESS);
    message.set(cx.mem, handle)
}

/// The head of `MPI_Mrecv`/`MPI_Imrecv`: check the buffer, then consume
/// the message. The guest's word becomes `MPI_MESSAGE_NULL` exactly when
/// the message was consumed: a translation failure *before* that leaves
/// the handle live (the guest can still Mrecv it, and the message is not
/// stranded with its sender parked on a handshake); truncation, later,
/// consumes the message, so it nulls like a success.
fn take_matched<'m>(
    cx: &'m mut Cx<'_>,
    buf: Buf,
    message: HandlePtr,
) -> HostResult<(MpiMessage, &'m mut [u8])> {
    let bytes = translate(cx.env, buf)?.1;
    view(cx.mem, buf.ptr, bytes)?;
    let msg = cx.env.mpi.take_message(message.handle)?;
    message.set(cx.mem, handles::MPI_MESSAGE_NULL)?;
    Ok((msg, view_mut(cx.mem, buf.ptr, bytes)?))
}

/// `MPI_Mrecv`: never blocks — the message was extracted at probe time;
/// only the delivery (copy, clock charge, rendezvous completion) runs.
fn mrecv(cx: &mut Cx<'_>, (buf, message, status): (Buf, HandlePtr, StatusPtr)) -> HostResult<()> {
    if message.handle == handles::MPI_MESSAGE_NULL {
        return complete(cx, status, Ok(Status::empty()));
    }
    let (msg, view) = take_matched(cx, buf, message)?;
    let outcome = msg.recv(view);
    complete(cx, status, outcome)
}

/// `MPI_Imrecv`: the message handle becomes a request handle,
/// completable on its first progress step.
fn imrecv(cx: &mut Cx<'_>, (buf, message, request): (Buf, HandlePtr, OutI32)) -> HostResult<()> {
    if message.handle == handles::MPI_MESSAGE_NULL {
        return request.set(cx.mem, handles::MPI_REQUEST_NULL);
    }
    let (msg, view) = take_matched(cx, buf, message)?;
    let (ptr, len) = (view.as_mut_ptr(), view.len());
    // SAFETY: as in `recv_request`.
    let req = unsafe { msg.imrecv_raw(ptr, len) };
    finish_request(cx, request, req)
}

// --- completion --------------------------------------------------------------------

/// One outcome of a completion set: into its status slot, and the first
/// error is what the call returns, after every request was attempted.
fn record(
    cx: &mut Cx<'_>,
    status: StatusPtr,
    outcome: Result<Status, MpiError>,
    first_err: &mut Option<MpiError>,
) {
    status.write_outcome(cx.mem, &outcome);
    if let Err(e) = outcome {
        first_err.get_or_insert(e);
    }
}

fn first_error(first_err: Option<MpiError>) -> HostResult<()> {
    first_err.map_or(Ok(()), |e| Err(e.into()))
}

/// Every completed handle is nulled even when a later request fails.
fn waitall(cx: &mut Cx<'_>, (reqs, statuses): (ReqArray, StatusArray)) -> HostResult<()> {
    let mut first_err = None;
    for i in 0..reqs.len {
        let outcome = wait_one(cx, reqs.slot(cx.mem, i));
        record(cx, statuses.slot(cx.mem, i)?, outcome, &mut first_err);
    }
    first_error(first_err)
}

fn waitany(cx: &mut Cx<'_>, (reqs, index, status): (ReqArray, OutI32, StatusPtr)) -> HostResult<()> {
    let done = drive(cx, |cx| {
        Ok::<_, MpiError>(match scan_any(cx, reqs) {
            Err(true) => None,
            done => Some(done.ok()),
        })
    })?;
    let (at, outcome) = match done {
        Some((i, outcome)) => (i as i32, outcome),
        None => (handles::MPI_UNDEFINED, Ok(Status::empty())),
    };
    index.set(cx.mem, at)?;
    complete(cx, status, outcome)
}

fn waitsome(
    cx: &mut Cx<'_>,
    (reqs, outcount, indices, statuses): (ReqArray, OutI32, OutBuf, StatusArray),
) -> HostResult<()> {
    let (ndone, first_err) = drive(cx, |cx| {
        let (mut any_active, mut ndone, mut first_err) = (false, 0u32, None);
        for i in 0..reqs.len {
            match step(cx, reqs.slot(cx.mem, i), test_step) {
                Scan::Idle => {}
                Scan::Pending => any_active = true,
                // A failed request is still a completed request: report
                // its slot with the error latched in its status word and
                // finish the pass, so one dead peer cannot hide the live
                // completions behind it (ULFM-style partial failure).
                Scan::Finished(outcome) => {
                    indices.set_i32(cx.mem, ndone, i as i32)?;
                    record(cx, statuses.slot(cx.mem, ndone)?, outcome, &mut first_err);
                    ndone += 1;
                }
            }
        }
        Ok::<_, Trap>((ndone > 0 || !any_active).then_some((ndone, first_err)))
    })?;
    outcount.set(cx.mem, if ndone > 0 { ndone as i32 } else { handles::MPI_UNDEFINED })?;
    first_error(first_err)
}

/// The tail of `MPI_Test`/`MPI_Testany`: `None` is "nothing ready yet".
fn tested(
    cx: &mut Cx<'_>,
    flag: OutI32,
    status: StatusPtr,
    outcome: Option<Result<Status, MpiError>>,
) -> HostResult<()> {
    let Some(outcome) = outcome else {
        return flag.set(cx.mem, 0);
    };
    // Leave the out-params benign even on failure: guests that forget to
    // check the return code must not act on a stale flag word. The status
    // still carries the error.
    flag.set(cx.mem, outcome.is_ok() as i32)?;
    complete(cx, status, outcome)
}

fn testall(cx: &mut Cx<'_>, (reqs, flag, statuses): (ReqArray, OutI32, StatusArray)) -> HostResult<()> {
    // First pass: progress everything, check completion.
    let mut all_done = true;
    for i in 0..reqs.len {
        let handle = reqs.slot(cx.mem, i).handle;
        if handle > 0 {
            let mut req = cx.env.mpi.requests.request_mut(handle)?;
            req.progress();
            all_done &= req.is_complete();
        }
    }
    if !all_done {
        return flag.set(cx.mem, 0);
    }
    // Second pass: retire everything, statuses in request order; the
    // first latched error is reported after all requests are retired.
    let mut first_err = None;
    for i in 0..reqs.len {
        let taken = step(cx, reqs.slot(cx.mem, i), |req| Scan::Finished(req.take_result()));
        if let Some(outcome) = taken.outcome() {
            record(cx, statuses.slot(cx.mem, i)?, outcome, &mut first_err);
        }
    }
    flag.set(cx.mem, 1)?;
    first_error(first_err)
}

/// With nothing ready: flag=0, index=MPI_UNDEFINED (MPI 3.1 §3.7.5); with
/// nothing active at all, flag=1, the empty status, index MPI_UNDEFINED —
/// which a failed request leaves too (benign out-params, as `MPI_Test`).
fn testany(
    cx: &mut Cx<'_>,
    (reqs, index, flag, status): (ReqArray, OutI32, OutI32, StatusPtr),
) -> HostResult<()> {
    let (at, outcome) = match scan_any(cx, reqs) {
        Ok((i, Ok(st))) => (i as i32, Some(Ok(st))),
        Ok((_, failed)) => (handles::MPI_UNDEFINED, Some(failed)),
        Err(active) => (handles::MPI_UNDEFINED, (!active).then(|| Ok(Status::empty()))),
    };
    index.set(cx.mem, at)?;
    tested(cx, flag, status, outcome)
}

/// `MPI_Request_free` must return immediately ("marked for deletion on
/// completion"). Receives and finished requests are dropped outright — a
/// freed speculative receive may never match, and its message stays
/// queued. In-flight sends are *detached*: the payload must still arrive.
/// Only active nonblocking collectives — which MPI-3 §5.12 forbids
/// freeing — are driven to completion rather than corrupting the schedule
/// for every peer.
fn request_free(cx: &mut Cx<'_>, req: HandlePtr) -> HostResult<()> {
    if req.handle <= 0 {
        return Ok(());
    }
    let detach = drive(cx, |cx| {
        // The guard ends with this poll: detach/progress_all re-lock.
        let mut live = cx.env.mpi.requests.request_mut(req.handle)?;
        if live.safe_to_detach() || live.completes_passively() {
            return Ok::<_, MpiError>(Some(true));
        }
        live.progress();
        Ok(live.is_complete().then(|| {
            let _ = live.take_result();
            false
        }))
    })?;
    if detach {
        cx.env.mpi.requests.detach(req.handle)?;
    } else {
        cx.env.mpi.requests.remove(req.handle)?;
    }
    req.set(cx.mem, handles::MPI_REQUEST_NULL)
}

// --- collectives ---------------------------------------------------------------------
//
// SAFETY (every `*_raw` collective below): the ranges handed over were
// just bounds-checked views of the instance's linear memory — disjoint
// where there are two — which never moves or shrinks while the instance
// lives; the request is completed inside the call (`MPI_X`) or owned by
// the rank's table (`MPI_IX`), which the instance outlives. Leaving the
// buffers alone until then is MPI's rule for the guest: breaking it is a
// wrong result in guest memory, never a host fault.

/// The two buffers of a collective, as `sblocks`/`rblocks` blocks of
/// their `(count, datatype)`. A side given no blocks is not significant on
/// this rank (a rooted collective's root-only buffer): not translated,
/// not checked, empty.
fn sides<'m>(
    mem: &'m mut Memory,
    env: &mut Env,
    (sbuf, sblocks): (Buf, u32),
    (rbuf, rblocks): (Buf, u32),
) -> Result<(&'m [u8], &'m mut [u8]), MpiError> {
    let mut bytes = |buf: Buf, blocks: u32| match blocks {
        0 => Ok(0),
        n => {
            let each = translate(env, buf)?.1;
            each.checked_mul(n).ok_or(bad_range(each as u64 * n as u64))
        }
    };
    let (sbytes, rbytes) = (bytes(sbuf, sblocks)?, bytes(rbuf, rblocks)?);
    match (sblocks, rblocks) {
        (0, _) => Ok((&[], view_mut(mem, rbuf.ptr, rbytes)?)),
        (_, 0) => Ok((view(mem, sbuf.ptr, sbytes)?, &mut [])),
        _ => buffer_pair(mem, (sbuf.ptr, sbytes), (rbuf.ptr, rbytes)),
    }
}

fn barrier_request(cx: &mut Cx<'_>, comm: CommH) -> NewRequest {
    cx.env.mpi.comm(comm.0)?.ibarrier()
}

fn bcast_request(cx: &mut Cx<'_>, (buf, root, comm): (Buf, Rank, CommH)) -> NewRequest {
    let view = recv_view(cx.mem, cx.env, buf)?;
    let (ptr, len) = (view.as_mut_ptr(), view.len());
    // SAFETY: see the collectives' contract above.
    unsafe { cx.env.mpi.comm(comm.0)?.ibcast_raw(ptr, len, root.rank()) }
}

/// `MPI_Reduce(sendbuf, recvbuf, count, datatype, op, root, comm)`:
/// `recvbuf` is significant (and checked) on the root only.
fn reduce_request(
    cx: &mut Cx<'_>,
    (sptr, rbuf, op, root, comm): (BufPtr, Buf, OpH, Rank, CommH),
) -> NewRequest {
    let (dt, bytes) = translate(cx.env, rbuf)?;
    let op = op_from_handle(op.0)?;
    let (comm, root) = (cx.env.mpi.comm(comm.0)?, root.rank());
    let (sview, rview): (_, &mut [u8]) = if comm.rank() == root {
        buffer_pair(cx.mem, (sptr.0, bytes), (rbuf.ptr, bytes))?
    } else {
        (view(cx.mem, sptr.0, bytes)?, &mut [])
    };
    // SAFETY: see the collectives' contract above.
    unsafe { comm.ireduce_raw(sview, rview.as_mut_ptr(), rview.len(), dt, op, root) }
}

/// `MPI_Allreduce(sendbuf, recvbuf, count, datatype, op, comm)`
fn allreduce_request(
    cx: &mut Cx<'_>,
    (sptr, rbuf, op, comm): (BufPtr, Buf, OpH, CommH),
) -> NewRequest {
    let (dt, bytes) = translate(cx.env, rbuf)?;
    let op = op_from_handle(op.0)?;
    let (sview, rview) = buffer_pair(cx.mem, (sptr.0, bytes), (rbuf.ptr, bytes))?;
    let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
    // SAFETY: see the collectives' contract above.
    unsafe { cx.env.mpi.comm(comm.0)?.iallreduce_raw(sview, rptr, rlen, dt, op) }
}

/// `(sbuf, scount, stype, rbuf, rcount, rtype)`.
type TwoBufs = (Buf, Buf);

/// Blocks of a rooted collective's root-only buffer: `p` on the root.
fn root_blocks(env: &Env, comm: CommH, root: Rank) -> Result<u32, MpiError> {
    let comm = env.mpi.comm(comm.0)?;
    Ok(if comm.rank() == root.rank() { comm.size() } else { 0 })
}

/// The receive side is significant on the root only.
fn gather_request(cx: &mut Cx<'_>, ((sbuf, rbuf), root, comm): (TwoBufs, Rank, CommH)) -> NewRequest {
    let p = root_blocks(cx.env, comm, root)?;
    let (s, r) = sides(cx.mem, cx.env, (sbuf, 1), (rbuf, p))?;
    let (comm, root) = (cx.env.mpi.comm(comm.0)?, root.rank());
    // SAFETY: see the collectives' contract above.
    unsafe { comm.igather_raw(s.as_ptr(), s.len(), r.as_mut_ptr(), r.len(), root) }
}

/// The send side is significant on the root only.
fn scatter_request(cx: &mut Cx<'_>, ((sbuf, rbuf), root, comm): (TwoBufs, Rank, CommH)) -> NewRequest {
    let p = root_blocks(cx.env, comm, root)?;
    let (s, r) = sides(cx.mem, cx.env, (sbuf, p), (rbuf, 1))?;
    let (comm, root) = (cx.env.mpi.comm(comm.0)?, root.rank());
    // SAFETY: see the collectives' contract above.
    unsafe { comm.iscatter_raw(s.as_ptr(), s.len(), r.as_mut_ptr(), r.len(), root) }
}

fn allgather_request(cx: &mut Cx<'_>, ((sbuf, rbuf), comm): (TwoBufs, CommH)) -> NewRequest {
    let p = cx.env.mpi.comm(comm.0)?.size();
    let (s, r) = sides(cx.mem, cx.env, (sbuf, 1), (rbuf, p))?;
    // SAFETY: see the collectives' contract above.
    unsafe { cx.env.mpi.comm(comm.0)?.iallgather_raw(s, r.as_mut_ptr(), r.len()) }
}

fn alltoall_request(cx: &mut Cx<'_>, ((sbuf, rbuf), comm): (TwoBufs, CommH)) -> NewRequest {
    let p = cx.env.mpi.comm(comm.0)?.size();
    let (s, r) = sides(cx.mem, cx.env, (sbuf, p), (rbuf, p))?;
    let comm = cx.env.mpi.comm(comm.0)?;
    // SAFETY: see the collectives' contract above.
    unsafe { comm.ialltoall_raw(s.as_ptr(), s.len(), r.as_mut_ptr(), r.len()) }
}

/// `(buf, counts, displs, datatype)`: one side of `MPI_Alltoallv`.
type VSide = (BufPtr, I32Array, I32Array, DtypeH);

/// The guest's `p` element counts and displacements scaled to bytes,
/// and the byte extent they touch (`max(displ + count)`).
fn byte_extents(
    mem: &Memory,
    (_, counts, displs, dtype): VSide,
    p: u32,
) -> Result<(Vec<usize>, Vec<usize>, u32), MpiError> {
    let elem = datatype_from_handle(dtype.0)?.size();
    let scale = |v: i32| Ok(non_negative(v)? as usize * elem);
    let counts = counts.iter(mem, p)?.map(scale).collect::<Result<Vec<_>, MpiError>>()?;
    let displs = displs.iter(mem, p)?.map(scale).collect::<Result<Vec<_>, MpiError>>()?;
    let extent = counts.iter().zip(&displs).map(|(c, d)| c + d).max().unwrap_or(0);
    Ok((counts, displs, u32::try_from(extent).map_err(|_| bad_range(extent as u64))?))
}

fn alltoallv_request(cx: &mut Cx<'_>, (send, recv, comm): (VSide, VSide, CommH)) -> NewRequest {
    let comm = cx.env.mpi.comm(comm.0)?;
    let (scounts, sdispls, s_extent) = byte_extents(cx.mem, send, comm.size())?;
    let (rcounts, rdispls, r_extent) = byte_extents(cx.mem, recv, comm.size())?;
    let (sbuf, rbuf) = ((send.0 .0, s_extent), (recv.0 .0, r_extent));
    let (s, r) = buffer_pair(cx.mem, sbuf, rbuf)?;
    let (sptr, slen, rptr, rlen) = (s.as_ptr(), s.len(), r.as_mut_ptr(), r.len());
    // SAFETY: see the collectives' contract above.
    unsafe { comm.ialltoallv_raw(sptr, slen, scounts, sdispls, rptr, rlen, rcounts, rdispls) }
}

// --- derived datatypes and groups -------------------------------------------------------
//
// Datatype constructors flatten to a segment list at creation time (see
// crate::translate::DerivedDatatype), so communication only ever walks a
// flat list. A group is an ordered world-rank list in the rank's local
// table; only MPI_Comm_create communicates.

/// `MPI_Type_create_struct(count, blocklengths, displacements, types,
/// newtype)`. Displacements are byte offsets (MPI_Aint is i32 in the
/// 32-bit guest ABI) and non-negative; the guest controls padding through
/// them explicitly.
fn type_create_struct(
    cx: &mut Cx<'_>,
    (count, lens, displs, types): (Count, I32Array, I32Array, I32Array),
) -> HostResult<i32> {
    let n = non_negative(count.0)?;
    let rows = lens.iter(cx.mem, n)?.zip(displs.iter(cx.mem, n)?).zip(types.iter(cx.mem, n)?);
    let resolved = rows
        .map(|((len, displ), ty)| {
            Ok((non_negative(len)?, non_negative(displ)?, resolve_dtype(cx.env, ty)?))
        })
        .collect::<Result<Vec<_>, MpiError>>()?;
    let blocks: Vec<_> = resolved.iter().map(|(len, displ, ty)| (*len, *displ, ty)).collect();
    let new = DerivedDatatype::structure(&blocks)?;
    Ok(cx.env.mpi.dtypes.insert(new))
}

/// `MPI_Group_incl(group, n, ranks, newgroup)`, or — `exclude` —
/// `MPI_Group_excl`: the complement, preserving the original order.
fn group_subset(
    cx: &mut Cx<'_>,
    (group, n, ranks): (GroupH, Count, I32Array),
    exclude: bool,
) -> HostResult<i32> {
    let group = cx.env.mpi.groups.get(group.0)?;
    let mut picked = Vec::new();
    let mut dropped = vec![false; group.len()];
    for idx in ranks.iter(cx.mem, n.0.max(0) as u32)? {
        let at = usize::try_from(idx).ok().filter(|&i| i < group.len());
        let at = at.ok_or(MpiError::InvalidRank { rank: idx as u32, size: group.len() as u32 })?;
        picked.push(group[at]);
        dropped[at] = true;
    }
    if exclude {
        picked = group.iter().zip(dropped).filter(|(_, out)| !out).map(|(&w, _)| w).collect();
    }
    Ok(cx.env.mpi.groups.insert(picked))
}

/// `MPI_Get_count`: a byte count that is not a whole number of elements
/// yields MPI_UNDEFINED (MPI-4 §3.2.5) — flooring would silently
/// misreport a truncated or mismatched message as shorter-but-valid.
/// Derived handles divide by the type's packed (wire) size.
fn get_count(cx: &mut Cx<'_>, (status, dtype): (StatusPtr, DtypeH)) -> HostResult<i32> {
    let dt = resolve_dtype(cx.env, dtype.0)?;
    let bytes = status.count_bytes(cx.mem)?;
    Ok(match dt.packed_size {
        0 if bytes == 0 => 0,
        0 => handles::MPI_UNDEFINED,
        size if bytes % size == 0 => (bytes / size) as i32,
        _ => handles::MPI_UNDEFINED,
    })
}

/// `MPI_Get_elements`: the number of *basic* elements received — for
/// derived types a partial final element still has a defined count as
/// long as no primitive was split.
fn get_elements(cx: &mut Cx<'_>, (status, dtype): (StatusPtr, DtypeH)) -> HostResult<i32> {
    let dt = resolve_dtype(cx.env, dtype.0)?;
    let elements = dt.elements_in(status.count_bytes(cx.mem)?);
    Ok(elements.map_or(handles::MPI_UNDEFINED, |n| n as i32))
}

// --- environment -----------------------------------------------------------------------------

/// `mpiwasm_stats(ptr, cap_bytes) -> bytes_written`: embedder extension
/// exposing the *world's* ProtocolSnapshot — the counters every rank of the
/// job adds to, as they stand at the call — as little-endian u64 words in
/// `ProtocolSnapshot::as_words` order, so guest benchmarks can assert
/// protocol behavior (zero-copy rendezvous counts, prepost coverage) from
/// inside the sandbox. A difference of two snapshots includes what other
/// ranks sent in between. Writes as many whole words as fit in `cap_bytes`.
fn stats(cx: &mut Cx<'_>, (out, cap): (OutBuf, Int)) -> HostResult<i32> {
    let words = cx.env.mpi.world().protocol_stats().as_words();
    let n = (cap.0 as u32 as usize / 8).min(words.len());
    let dst = out.bytes(cx.mem, n as u32 * 8)?;
    for (word, value) in dst.chunks_exact_mut(8).zip(words) {
        word.copy_from_slice(&value.to_le_bytes());
    }
    Ok(n as i32 * 8)
}

fn get_processor_name(cx: &mut Cx<'_>, (out, len): (OutBuf, OutI32)) -> HostResult<()> {
    let name = format!("mpiwasm-rank-{}\0", cx.env.mpi.world().rank());
    out.bytes(cx.mem, name.len() as u32)?.copy_from_slice(name.as_bytes());
    len.set(cx.mem, name.len() as i32 - 1)
}

/// `MPI_Alloc_mem(size, info, baseptr)`: re-enters guest malloc (§3.7).
fn alloc_mem(inst: &mut Instance, (size, _info, out): (Int, Int, OutI32)) -> HostResult<i32> {
    if inst.export_func("malloc").is_none() {
        return Ok(ALLOC_MEM_FAILED);
    }
    let results = inst.invoke("malloc", &[Value::I32(size.0)])?;
    let guest_ptr = results.first().map(|v| v.as_i32()).transpose()?.unwrap_or(0);
    out.set(&mut inst.memory, guest_ptr)?;
    Ok(if guest_ptr == 0 { ALLOC_MEM_FAILED } else { handles::MPI_SUCCESS })
}

/// `MPI_Free_mem(ptr)`: re-enters guest free.
fn free_mem(inst: &mut Instance, ptr: Int) -> HostResult<i32> {
    if inst.export_func("free").is_none() {
        return Ok(ALLOC_MEM_FAILED);
    }
    inst.invoke("free", &[Value::I32(ptr.0)])?;
    Ok(handles::MPI_SUCCESS)
}

// --- the table ----------------------------------------------------------------------------------

/// The guest ABI: every `env` import the embedder provides, one row each.
pub fn verbs() -> Vec<Verb> {
    let mut table = vec![
        Verb::new("MPI_Init", CHARGED, |cx: &mut Cx<'_>, _argc_argv: (Int, Int)| {
            cx.env.mpi.initialized = true;
            Ok(())
        }),
        // The substrate is MPI_THREAD_MULTIPLE-clean (lock-protected
        // mailbox matching and request table): grant the clamped request.
        writes("MPI_Init_thread", CHARGED, |cx, (_argc, _argv, required): (Int, Int, Int)| {
            cx.env.mpi.initialized = true;
            cx.env.mpi.thread_level =
                required.0.clamp(handles::MPI_THREAD_SINGLE, handles::MPI_THREAD_MULTIPLE);
            Ok(cx.env.mpi.thread_level)
        }),
        // Ranks synchronize at finalize, as real MPI does — by a request,
        // so detached sends and leftover receives progress while parked.
        blocking("MPI_Finalize", |cx, ()| {
            cx.env.mpi.finalized = true;
            cx.env.mpi.world().ibarrier()
        }),
        writes("MPI_Initialized", FREE, |cx, ()| Ok(cx.env.mpi.initialized as i32)),
        writes("MPI_Finalized", FREE, |cx, ()| Ok(cx.env.mpi.finalized as i32)),
        writes("MPI_Query_thread", FREE, |cx, ()| Ok(cx.env.mpi.thread_level)),
        writes("MPI_Comm_rank", FREE, |cx, comm: CommH| Ok(cx.env.mpi.comm(comm.0)?.rank() as i32)),
        writes("MPI_Comm_size", FREE, |cx, comm: CommH| Ok(cx.env.mpi.comm(comm.0)?.size() as i32)),
        Verb::new("MPI_Wtime", FREE, |cx: &mut Cx<'_>, ()| Ok(cx.env.mpi.world().wtime())),
        Verb::new("MPI_Wtick", FREE, |_: &mut Cx<'_>, ()| Ok(1e-9)),
        // MPI_Abort(comm, errorcode): traps the instance.
        Verb::new("MPI_Abort", FREE, |_: &mut Cx<'_>, (_, code): (CommH, Int)| -> HostResult<()> {
            Err(Trap::host(format!("MPI_Abort called with code {}", code.0)).into())
        }),
        Verb::new("mpiwasm_stats", FREE, stats),
        Verb::new("MPI_Get_processor_name", FREE, get_processor_name),
        Verb::reentrant("MPI_Alloc_mem", FREE, alloc_mem),
        Verb::reentrant("MPI_Free_mem", FREE, free_mem),
        // Point-to-point: mode × how the request is finished.
        blocking("MPI_Send", |cx, args| send_request(cx, STANDARD, args)),
        nonblocking("MPI_Isend", CHARGED, |cx, args| send_request(cx, STANDARD, args)),
        blocking("MPI_Ssend", |cx, args| send_request(cx, SYNCHRONOUS, args)),
        nonblocking("MPI_Issend", CHARGED, |cx, args| send_request(cx, SYNCHRONOUS, args)),
        nonblocking("MPI_Send_init", FREE, |cx, args| send_request(cx, PERSISTENT, args)),
        Verb::new("MPI_Recv", CHARGED, recv),
        nonblocking("MPI_Irecv", CHARGED, |cx, args| recv_request(cx, Comm::irecv_raw, args)),
        nonblocking("MPI_Recv_init", FREE, |cx, args| recv_request(cx, Comm::recv_init_raw, args)),
        Verb::new("MPI_Sendrecv", CHARGED, sendrecv),
        // `MPI_Ibsend`'s request is MPI_REQUEST_NULL at once: waiting on it
        // is a no-op, which is the buffered-mode contract. Outstanding
        // buffered messages do not reference the attached buffer, so
        // detach need not block.
        Verb::new("MPI_Bsend", CHARGED, |cx: &mut Cx<'_>, args| Ok(buffered_send(cx, args)?)),
        writes("MPI_Ibsend", CHARGED, |cx, args| {
            buffered_send(cx, args)?;
            Ok(handles::MPI_REQUEST_NULL)
        }),
        Verb::new("MPI_Buffer_attach", FREE, |cx: &mut Cx<'_>, (ptr, size): (Int, Int)| {
            Ok(cx.env.mpi.attach_buffer(ptr.0 as u32, non_negative(size.0)?)?)
        }),
        Verb::new("MPI_Buffer_detach", FREE, |cx: &mut Cx<'_>, (ptr, size): (OutI32, OutI32)| {
            let (attached_ptr, attached_size) = cx.env.mpi.detach_buffer()?;
            ptr.set(cx.mem, attached_ptr as i32)?;
            size.set(cx.mem, attached_size as i32)
        }),
        Verb::new("MPI_Iprobe", FREE, |cx: &mut Cx<'_>, (args, flag, status)| {
            probe(cx, args, Some(flag), status)
        }),
        Verb::new("MPI_Probe", CHARGED, |cx: &mut Cx<'_>, (args, status)| {
            probe(cx, args, None, status)
        }),
        Verb::new("MPI_Improbe", FREE, |cx: &mut Cx<'_>, (args, flag, message, status)| {
            matched_probe(cx, args, Some(flag), message, status)
        }),
        Verb::new("MPI_Mprobe", CHARGED, |cx: &mut Cx<'_>, (args, message, status)| {
            matched_probe(cx, args, None, message, status)
        }),
        Verb::new("MPI_Mrecv", CHARGED, mrecv),
        Verb::new("MPI_Imrecv", CHARGED, imrecv),
        // An unmatched send is retracted, an unmatched receive unposted;
        // anything already matched completes normally. Completion still
        // retires the request, the outcome shown by MPI_Test_cancelled.
        Verb::new("MPI_Cancel", FREE, |cx: &mut Cx<'_>, req: HandlePtr| {
            if req.handle > 0 {
                cx.env.mpi.requests.request_mut(req.handle)?.cancel();
            }
            Ok(())
        }),
        writes("MPI_Test_cancelled", FREE, |cx, status: StatusPtr| {
            Ok(status.cancelled(cx.mem)? as i32)
        }),
        Verb::new("MPI_Start", FREE, |cx: &mut Cx<'_>, req: HandlePtr| {
            Ok(cx.env.mpi.requests.request_mut(req.handle)?.start()?)
        }),
        Verb::new("MPI_Startall", FREE, |cx: &mut Cx<'_>, reqs: ReqArray| {
            for i in 0..reqs.len {
                cx.env.mpi.requests.request_mut(reqs.slot(cx.mem, i).handle)?.start()?;
            }
            Ok(())
        }),
        Verb::new("MPI_Request_free", FREE, request_free),
        Verb::new("MPI_Wait", FREE, |cx: &mut Cx<'_>, (req, status)| {
            let outcome = wait_one(cx, req);
            complete(cx, status, outcome)
        }),
        Verb::new("MPI_Waitall", FREE, waitall),
        Verb::new("MPI_Waitany", FREE, waitany),
        Verb::new("MPI_Waitsome", FREE, waitsome),
        Verb::new("MPI_Test", FREE, |cx: &mut Cx<'_>, (req, flag, status)| {
            let outcome = step(cx, req, test_step).outcome();
            tested(cx, flag, status, outcome)
        }),
        Verb::new("MPI_Testall", FREE, testall),
        Verb::new("MPI_Testany", FREE, testany),
        writes("MPI_Get_count", FREE, get_count),
        writes("MPI_Get_elements", FREE, get_elements),
        // For derived handles the size is the packed (wire) size — the
        // bytes one element contributes to a message.
        writes("MPI_Type_size", FREE, |cx, dtype: DtypeH| {
            Ok(resolve_dtype(cx.env, dtype.0)?.packed_size as i32)
        }),
        writes("MPI_Type_contiguous", FREE, |cx, (count, old): (Count, DtypeH)| {
            let count = non_negative(count.0)?;
            let new = DerivedDatatype::contiguous(count, &resolve_dtype(cx.env, old.0)?)?;
            Ok(cx.env.mpi.dtypes.insert(new))
        }),
        // Strides are in oldtype elements; negative and block-overlapping
        // strides are rejected (the symmetric pack/unpack table cannot
        // represent overlap).
        writes("MPI_Type_vector", FREE, |cx, (count, blocklen, stride, old): (Count, Count, Int, DtypeH)| {
            let (count, blocklen) = (non_negative(count.0)?, non_negative(blocklen.0)?);
            let (stride, old) = (non_negative(stride.0)?, resolve_dtype(cx.env, old.0)?);
            Ok(cx.env.mpi.dtypes.insert(DerivedDatatype::vector(count, blocklen, stride, &old)?))
        }),
        writes("MPI_Type_create_struct", FREE, type_create_struct),
        Verb::new("MPI_Type_commit", FREE, |cx: &mut Cx<'_>, word: HandlePtr| {
            Ok(cx.env.mpi.commit_dtype(word.handle)?)
        }),
        // Packing is eager at each send/receive, so no in-flight operation
        // can reference a freed type.
        frees("MPI_Type_free", |mpi, h| mpi.dtypes.take(h).map(drop), handles::MPI_DATATYPE_NULL),
        writes("MPI_Comm_split", CHARGED, |cx, (comm, color, key): (CommH, Int, Int)| {
            let new = cx.env.mpi.comm(comm.0)?.split(color.0, key.0)?;
            Ok(insert_comm(cx, new))
        }),
        writes("MPI_Comm_dup", CHARGED, |cx, comm: CommH| {
            let new = cx.env.mpi.comm(comm.0)?.dup()?;
            Ok(insert_comm(cx, Some(new)))
        }),
        // Collective over comm — every member must pass a group with the
        // same membership (verified by an allgathered hash). Members get
        // the new communicator; everyone else gets MPI_COMM_NULL.
        writes("MPI_Comm_create", CHARGED, |cx, (comm, group): (CommH, GroupH)| {
            let new = cx.env.mpi.comm(comm.0)?.create_from_group(cx.env.mpi.groups.get(group.0)?)?;
            Ok(insert_comm(cx, new))
        }),
        frees("MPI_Comm_free", MpiState::free_comm, handles::MPI_COMM_NULL),
        writes("MPI_Comm_group", FREE, |cx, comm: CommH| {
            let ranks = cx.env.mpi.comm(comm.0)?.group_world_ranks();
            Ok(cx.env.mpi.groups.insert(ranks))
        }),
        writes("MPI_Group_size", FREE, |cx, group: GroupH| Ok(cx.env.mpi.groups.get(group.0)?.len() as i32)),
        // The calling rank's position in the group, or MPI_UNDEFINED when
        // it is not a member.
        writes("MPI_Group_rank", FREE, |cx, group: GroupH| {
            let me = cx.env.mpi.world().rank();
            let position = cx.env.mpi.groups.get(group.0)?.iter().position(|&w| w == me);
            Ok(position.map_or(handles::MPI_UNDEFINED, |i| i as i32))
        }),
        writes("MPI_Group_incl", FREE, |cx, args| group_subset(cx, args, false)),
        writes("MPI_Group_excl", FREE, |cx, args| group_subset(cx, args, true)),
        frees("MPI_Group_free", |mpi, h| mpi.groups.take(h).map(drop), handles::MPI_GROUP_NULL),
    ];
    table.extend(collective(["MPI_Barrier", "MPI_Ibarrier"], barrier_request));
    table.extend(collective(["MPI_Bcast", "MPI_Ibcast"], bcast_request));
    table.extend(collective(["MPI_Reduce", "MPI_Ireduce"], reduce_request));
    table.extend(collective(["MPI_Allreduce", "MPI_Iallreduce"], allreduce_request));
    table.extend(collective(["MPI_Gather", "MPI_Igather"], gather_request));
    table.extend(collective(["MPI_Scatter", "MPI_Iscatter"], scatter_request));
    table.extend(collective(["MPI_Allgather", "MPI_Iallgather"], allgather_request));
    table.extend(collective(["MPI_Alltoall", "MPI_Ialltoall"], alltoall_request));
    table.extend(collective(["MPI_Alltoallv", "MPI_Ialltoallv"], alltoallv_request));
    table
}

/// Register every MPI function the embedder provides.
pub fn register_mpi(linker: &mut Linker) {
    for verb in verbs() {
        verb.register(linker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SURFACE: &str = include_str!("../../../docs/mpi_surface.md");

    /// The words of `text`, `MPI_` prefixes dropped: how the doc names verbs.
    fn names(text: &str) -> std::collections::BTreeSet<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map(|word| word.strip_prefix("MPI_").unwrap_or(word))
            .collect()
    }

    #[test]
    fn the_table_and_the_surface_doc_agree() {
        let table = verbs();
        let documented = names(SURFACE);
        let mut seen = std::collections::BTreeSet::new();
        for verb in &table {
            let name = verb.name.strip_prefix("MPI_").unwrap_or(verb.name);
            assert!(seen.insert(name), "{} is registered twice", verb.name);
            assert!(documented.contains(name), "docs/mpi_surface.md never mentions {}", verb.name);
        }
        // The *Charged verbs* section is the table's `charged` column.
        // (Its first paragraph: the prose after it names free verbs too.)
        let section = SURFACE.split("## Charged verbs").nth(1).expect("a Charged verbs section");
        let listed = names(section.trim_start().split("\n\n").next().expect("the list"));
        for verb in &table {
            let name = verb.name.strip_prefix("MPI_").unwrap_or(verb.name);
            assert_eq!(listed.contains(name), verb.charged, "{}: charged column vs doc", verb.name);
        }
        assert_eq!(table.iter().filter(|v| v.charged).count(), 37);
    }
}

//! The `env.MPI_*` host functions (paper §3.7).
//!
//! Every function follows the same pattern the paper describes: translate
//! the guest's 32-bit handles and addresses (crate-level [`crate::translate`]),
//! then defer to the host MPI library with zero-copy buffer views over the
//! instance's linear memory. MPI failures surface as guest-visible MPI
//! error codes; engine-level faults (out-of-bounds addresses) trap.
//!
//! `MPI_Alloc_mem`/`MPI_Free_mem` are the special case of §3.7: the host
//! MPI library's allocator would return 64-bit host addresses that mean
//! nothing inside the guest's 32-bit memory, so the embedder re-enters the
//! guest's exported `malloc`/`free` instead.

use std::any::Any;
use std::time::Instant;

use mpi_substrate::request::backoff;
use mpi_substrate::{Comm, MpiError, Source, Status, Tag};
use wasm_engine::error::Trap;
use wasm_engine::runtime::{Instance, Linker, Memory, Slot};
use wasm_engine::types::{FuncType, ValType};

use crate::env::Env;
use crate::translate::{
    byte_len, datatype_from_handle, handles, op_from_handle, DerivedDatatype,
};

/// Guest-side `MPI_Status` layout (our `mpi.h` equivalent):
/// `{ i32 MPI_SOURCE; i32 MPI_TAG; i32 MPI_ERROR; i32 count_bytes;
///    i32 cancelled }`. The trailing word is the implementation-internal
/// field `MPI_Test_cancelled` reads, as in real MPI's opaque status.
pub const STATUS_SIZE: u32 = 20;

fn env_of(data: &mut (dyn Any + Send)) -> &mut Env {
    data.downcast_mut::<Env>().expect("instance data is not an mpiwasm Env")
}

fn code(r: Result<(), MpiError>) -> Vec<Slot> {
    vec![Slot::from_i32(match r {
        Ok(()) => handles::MPI_SUCCESS,
        Err(e) => e.code(),
    })]
}

/// Write a guest `MPI_Status`. `err` is the operation's outcome for the
/// `MPI_ERROR` word (MPI_SUCCESS on the happy path) — `Waitall`/`Waitsome`
/// partial-failure semantics depend on each failed request's status
/// carrying its own error code, not a hardcoded zero.
fn write_status(mem: &mut Memory, ptr: u32, st: &Status, err: i32) -> Result<(), Trap> {
    if ptr == handles::MPI_STATUS_IGNORE as u32 {
        return Ok(());
    }
    mem.write_i32_at(ptr, st.source as i32)?;
    mem.write_i32_at(ptr + 4, st.tag)?;
    mem.write_i32_at(ptr + 8, err)?;
    mem.write_i32_at(ptr + 12, st.bytes as i32)?;
    mem.write_i32_at(ptr + 16, st.cancelled as i32)?;
    Ok(())
}

/// Resolve any datatype handle to its segment-list view: primitive
/// handles become their one-segment leaf, derived handles come from the
/// rank's type table (committed or not — construction composes over
/// uncommitted types).
fn resolve_dtype(env: &Env, h: i32) -> Result<DerivedDatatype, MpiError> {
    if h < handles::FIRST_DERIVED_DATATYPE {
        Ok(DerivedDatatype::primitive(datatype_from_handle(h)?))
    } else {
        env.mpi.dtype(h).cloned()
    }
}

/// Resolve a derived handle for communication: it must exist *and* be
/// committed, and the count must be non-negative.
fn resolve_for_comm(env: &Env, count: i32, h: i32) -> Result<DerivedDatatype, MpiError> {
    let dt = resolve_dtype(env, h)?;
    if !dt.committed {
        return Err(MpiError::InvalidDatatype(h as u32));
    }
    if count < 0 {
        return Err(MpiError::BadCount {
            bytes: count as isize as usize,
            type_size: dt.packed_size.max(1) as usize,
        });
    }
    Ok(dt)
}

/// Pack-on-send: gather `count` elements of derived type `dt_h` starting
/// at guest address `buf` into an owned contiguous wire payload. The wire
/// bytes are identical to a manually packed send, so the receiver never
/// needs to know the sender used a derived type.
fn pack_guest(
    mem: &Memory,
    env: &Env,
    buf: u32,
    count: i32,
    dt_h: i32,
) -> Result<Box<[u8]>, MpiError> {
    let dt = resolve_for_comm(env, count, dt_h)?;
    let span = dt.span(count as u32);
    let view = mem.slice(buf, span).map_err(|_| MpiError::BadCount {
        bytes: span as usize,
        type_size: 1,
    })?;
    Ok(dt.pack(count as u32, view).into_boxed_slice())
}

/// Unpack-on-recv: blocking receive of a derived-type message. The packed
/// wire payload lands in a host staging buffer, then scatters into guest
/// memory per the type's segment list. The status carries *packed* bytes,
/// which is what `MPI_Get_count`/`MPI_Get_elements` divide by.
#[allow(clippy::too_many_arguments)]
fn recv_derived(
    mem: &mut Memory,
    env: &mut Env,
    buf: u32,
    count: i32,
    dt_h: i32,
    src: i32,
    tag: i32,
    comm_h: i32,
) -> Result<Status, MpiError> {
    let dt = resolve_for_comm(env, count, dt_h)?;
    let span = dt.span(count as u32);
    // Validate the scatter region up front, as real MPI requires of the
    // posted buffer.
    mem.slice_mut(buf, span).map_err(|_| MpiError::BadCount {
        bytes: span as usize,
        type_size: 1,
    })?;
    let max_bytes = count as u64 * dt.packed_size as u64;
    if max_bytes > u32::MAX as u64 {
        return Err(MpiError::BadCount {
            bytes: max_bytes as usize,
            type_size: dt.packed_size as usize,
        });
    }
    let mut staging = vec![0u8; max_bytes as usize];
    let mut req = {
        let comm = env.mpi.comm(comm_h)?;
        unsafe {
            comm.irecv_raw_uncharged(
                staging.as_mut_ptr(),
                staging.len(),
                source_of(src),
                tag_of(tag),
            )
        }
    }?;
    let st = wait_local(env, &mut req)?;
    let view = mem.slice_mut(buf, span).map_err(|_| MpiError::BadCount {
        bytes: span as usize,
        type_size: 1,
    })?;
    dt.unpack(&staging[..st.bytes.min(staging.len())], view);
    Ok(st)
}

/// Buffered-mode send body (`MPI_Bsend`/`MPI_Ibsend`): enforce the
/// attach-buffer accounting, copy (or pack) the payload into an owned
/// wire buffer, start the send and *detach* it — buffered sends complete
/// locally by definition; the detached request stays parked in the table
/// and delivers the payload when the peer drains it.
///
/// The guest's attached buffer is accounting only: the host never stages
/// bytes through guest memory (the owned copy already decouples the
/// guest's source buffer), it just refuses sends larger than what the
/// guest declared, as real MPI's MPI_ERR_BUFFER contract requires.
#[allow(clippy::too_many_arguments)]
fn buffered_send(
    mem: &mut Memory,
    env: &mut Env,
    buf: u32,
    count: i32,
    dt_h: i32,
    dest: i32,
    tag: i32,
    comm_h: i32,
) -> Result<(), MpiError> {
    let data: Box<[u8]> = if dt_h >= handles::FIRST_DERIVED_DATATYPE {
        pack_guest(mem, env, buf, count, dt_h)?
    } else {
        let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
        let view = mem.slice(buf, bytes).map_err(|_| MpiError::BadCount {
            bytes: bytes as usize,
            type_size: 1,
        })?;
        view.into()
    };
    env.mpi.check_buffered(data.len())?;
    let req = {
        let comm = env.mpi.comm(comm_h)?;
        comm.isend_owned(data, dest as u32, tag)
    }?;
    let h = env.mpi.insert_request(req);
    env.mpi.detach_request(h)
}

fn source_of(h: i32) -> Source {
    if h == handles::MPI_ANY_SOURCE {
        Source::Any
    } else {
        Source::Rank(h as u32)
    }
}

fn tag_of(h: i32) -> Tag {
    if h == handles::MPI_ANY_TAG {
        Tag::Any
    } else {
        Tag::Value(h)
    }
}

/// Wait for one request by guest handle. Handles `MPI_REQUEST_NULL`
/// (returns the empty status), writes the status back (tolerating
/// `MPI_STATUS_IGNORE`), removes completed one-shot requests from the
/// table, and rewrites the guest's handle word to `MPI_REQUEST_NULL` —
/// *also on failure*, so error paths never leave dangling handles behind.
///
/// While parked, the rank's whole request table keeps progressing: a
/// guest waiting on a rendezvous Isend before its posted Irecv must still
/// service the peer's symmetric exchange, exactly like a real MPI
/// progress engine.
fn wait_one(
    mem: &mut Memory,
    env: &mut Env,
    handle_ptr: u32,
    handle: i32,
    status_ptr: u32,
) -> Result<(), MpiError> {
    if handle <= 0 {
        let _ = write_status(mem, status_ptr, &Status::empty(), handles::MPI_SUCCESS);
        return Ok(());
    }
    let mut spins = 0u32;
    loop {
        // Drive the whole table first: matching is pinned at arrival by
        // the substrate's posted-receive queues, but matched receives
        // still need their delivery step, and rendezvous peers park
        // until it runs.
        env.mpi.progress_all();
        match try_complete(mem, env, handle_ptr, handle)? {
            Completion::Done(st) => {
                let _ = write_status(mem, status_ptr, &st, handles::MPI_SUCCESS);
                return Ok(());
            }
            Completion::Error(e) => {
                let _ = write_status(mem, status_ptr, &Status::empty(), e.code());
                return Err(e);
            }
            Completion::NotReady => {
                let target_drives = env.mpi.request_mut(handle)?.needs_progress();
                if env.mpi.progress_work() == usize::from(target_drives) {
                    // Nothing else needs driving: park on this request's
                    // blocking wait (condvar/slot) instead of polling. The
                    // table guard is held across the park and dropped
                    // before the handle is retired (the lock is not
                    // reentrant); the wake-up comes from the peer's
                    // mailbox side, which never takes our table lock.
                    let (persistent, outcome) = {
                        let mut req = env.mpi.request_mut(handle)?;
                        (req.is_persistent(), req.wait())
                    };
                    if !persistent {
                        let _ = env.mpi.remove_request(handle);
                        let _ = mem.write_i32_at(handle_ptr, handles::MPI_REQUEST_NULL);
                    }
                    let st = match outcome {
                        Ok(st) => st,
                        Err(e) => {
                            let _ = write_status(
                                mem,
                                status_ptr,
                                &Status::empty(),
                                e.code(),
                            );
                            return Err(e);
                        }
                    };
                    let _ = write_status(mem, status_ptr, &st, handles::MPI_SUCCESS);
                    return Ok(());
                }
                backoff(&mut spins);
            }
        }
    }
}

/// Outcome of [`try_complete`] on one live request.
enum Completion {
    NotReady,
    Done(Status),
    Error(MpiError),
}

/// Progress request `handle`; if it completed — or failed — retire it:
/// non-persistent requests leave the table and the guest's handle word at
/// `handle_ptr` is rewritten to `MPI_REQUEST_NULL` (persistent requests
/// survive both completion and errors, as `MPI_Start` must remain legal).
/// The outer `Err` is an invalid handle.
fn try_complete(
    mem: &mut Memory,
    env: &mut Env,
    handle_ptr: u32,
    handle: i32,
) -> Result<Completion, MpiError> {
    // Scope the table guard: removal below re-takes the table lock.
    let (persistent, outcome) = {
        let mut req = env.mpi.request_mut(handle)?;
        (req.is_persistent(), req.test())
    };
    let finished = !matches!(outcome, Ok(None));
    if finished && !persistent {
        let _ = env.mpi.remove_request(handle);
        let _ = mem.write_i32_at(handle_ptr, handles::MPI_REQUEST_NULL);
    }
    Ok(match outcome {
        Ok(Some(st)) => Completion::Done(st),
        Ok(None) => Completion::NotReady,
        Err(e) => Completion::Error(e),
    })
}

/// Whether `handle` participates in `*any`/`*some` completion sets
/// (pending or completed-unretired; inactive persistent requests do not).
fn handle_participates(env: &mut Env, handle: i32) -> Result<bool, MpiError> {
    Ok(env.mpi.request_mut(handle)?.participates())
}

/// One scan step of the `*any`/`*some` completion loops: read the handle
/// word at `handle_ptr` and drive it. `None` means there is nothing to
/// wait for in this slot (null handle or inactive persistent request);
/// invalid handles surface as `Completion::Error`.
fn scan_slot(
    mem: &mut Memory,
    env: &mut Env,
    handle_ptr: u32,
) -> Result<Option<Completion>, Trap> {
    let handle = mem.read_i32_at(handle_ptr)?;
    if handle <= 0 {
        return Ok(None);
    }
    match handle_participates(env, handle) {
        Ok(true) => {}
        Ok(false) => return Ok(None),
        Err(e) => return Ok(Some(Completion::Error(e))),
    }
    match try_complete(mem, env, handle_ptr, handle) {
        Ok(c) => Ok(Some(c)),
        Err(e) => Ok(Some(Completion::Error(e))),
    }
}

/// Progress one live request (outcomes latch inside it): is it complete?
fn progress_handle(env: &mut Env, handle: i32) -> Result<bool, MpiError> {
    let mut req = env.mpi.request_mut(handle)?;
    req.progress();
    Ok(req.is_complete())
}

/// Retire a completed request: `(is_persistent, outcome)`.
fn retire_handle(
    env: &mut Env,
    handle: i32,
) -> Result<(bool, Result<Status, MpiError>), MpiError> {
    let mut req = env.mpi.request_mut(handle)?;
    let persistent = req.is_persistent();
    let outcome = req.take_result();
    Ok((persistent, outcome))
}

/// Complete a local (untabled) request while keeping the rank's request
/// table progressing — the blocking p2p host functions are composed from
/// request primitives so a rank parked in `MPI_Send`/`MPI_Recv` still
/// services its posted receives (real-MPI progress guarantee: a posted
/// `MPI_Irecv` lets the peer's matching standard-mode send proceed).
///
/// With an empty request table (the overwhelmingly common plain
/// `MPI_Recv`/`MPI_Send` case) there is nothing else to drive, so the
/// request parks on the substrate's condvar/slot instead of polling.
fn wait_local(
    env: &mut Env,
    req: &mut mpi_substrate::Request<'static>,
) -> Result<Status, MpiError> {
    let mut spins = 0u32;
    loop {
        // Table first: posted receives claim their messages at arrival,
        // but the delivery step (payload copy, clock charge, rendezvous
        // completion) runs here, and parked peers depend on it.
        env.mpi.progress_all();
        req.progress();
        if req.is_complete() {
            return req.take_result();
        }
        if env.mpi.progress_work() == 0 {
            // Nothing older to drive: park on the condvar/slot.
            return req.wait();
        }
        backoff(&mut spins);
    }
}

/// Shared loop of the blocking probe host calls (`MPI_Probe`/
/// `MPI_Mprobe`): poll the non-blocking `attempt` while the rank's
/// request table keeps progressing — a probe may only become answerable
/// once this rank's own pending operations drive their protocols — and
/// fall back to `park` (the substrate's condvar-blocking form) when the
/// table has nothing to drive, mirroring [`wait_local`]'s structure.
fn blocking_probe<T>(
    env: &mut Env,
    comm_h: i32,
    attempt: impl Fn(&Comm) -> Result<Option<T>, MpiError>,
    park: impl Fn(&Comm) -> Result<T, MpiError>,
) -> Result<T, MpiError> {
    let mut spins = 0u32;
    loop {
        match env.mpi.comm(comm_h).and_then(&attempt) {
            Ok(Some(hit)) => return Ok(hit),
            Ok(None) => {
                if env.mpi.progress_work() == 0 {
                    return env.mpi.comm(comm_h).and_then(&park);
                }
                env.mpi.progress_all();
                backoff(&mut spins);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Register a freshly created request and write its guest handle, or
/// surface the creation error as an MPI code — the shared tail of every
/// request-creating host function.
fn finish_request(
    mem: &mut Memory,
    env: &mut Env,
    req_ptr: u32,
    req: Result<mpi_substrate::Request<'static>, MpiError>,
) -> Result<Vec<Slot>, Trap> {
    match req {
        Ok(req) => {
            let h = env.mpi.insert_request(req);
            mem.write_i32_at(req_ptr, h)?;
            Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
        }
        Err(e) => Ok(vec![Slot::from_i32(e.code())]),
    }
}

/// Status slot for request `i` of a completion array, honoring
/// `MPI_STATUSES_IGNORE`.
fn status_slot(statuses_ptr: u32, i: u32) -> u32 {
    if statuses_ptr == handles::MPI_STATUSES_IGNORE as u32 {
        handles::MPI_STATUS_IGNORE as u32
    } else {
        statuses_ptr + i * STATUS_SIZE
    }
}

/// Translate `(count, datatype_handle)` on an instrumented path: returns
/// the host datatype and byte length, recording the translation time when
/// instrumentation is on (§4.6).
fn translate_instrumented(
    env: &mut Env,
    count: i32,
    dt_handle: i32,
) -> Result<(mpi_substrate::Datatype, u32), MpiError> {
    if env.mpi.instrument {
        let t0 = Instant::now();
        let dt = datatype_from_handle(dt_handle)?;
        let bytes = byte_len(count, dt)?;
        let ns = t0.elapsed().as_nanos() as f64;
        env.mpi.stats.record(dt, bytes.max(1), ns);
        Ok((dt, bytes))
    } else {
        let dt = datatype_from_handle(dt_handle)?;
        let bytes = byte_len(count, dt)?;
        Ok((dt, bytes))
    }
}

/// Read a guest `i32[p]` counts/displacements array and scale it to
/// bytes by the datatype's element size (`MPI_Alltoallv` translation).
fn read_extents(
    mem: &Memory,
    ptr: u32,
    p: u32,
    elem_size: usize,
) -> Result<Vec<usize>, MpiError> {
    let mut out = Vec::with_capacity(p as usize);
    for i in 0..p {
        let v = mem
            .read_i32_at(ptr + i * 4)
            .map_err(|_| MpiError::BadCount { bytes: p as usize * 4, type_size: 4 })?;
        if v < 0 {
            return Err(MpiError::BadCount {
                bytes: v as isize as usize,
                type_size: elem_size,
            });
        }
        out.push(v as usize * elem_size);
    }
    Ok(out)
}

/// Byte extent a vector collective touches: `max(displ + count)`.
fn extent_of(counts: &[usize], displs: &[usize]) -> usize {
    counts.iter().zip(displs).map(|(c, d)| c + d).max().unwrap_or(0)
}

/// Builds a collective's substrate request from the guest's arguments —
/// those of `MPI_X`, which `MPI_IX` follows with its request pointer.
/// Every handle, count, root and buffer range is checked here, once, for
/// both entry points.
type CollectiveDecoder =
    fn(&mut Memory, &mut Env, &[Slot]) -> Result<mpi_substrate::Request<'static>, MpiError>;

/// `(MPI_X, MPI_IX, parameters of MPI_X, decoder)`.
const COLLECTIVES: [(&str, &str, usize, CollectiveDecoder); 9] = [
    ("MPI_Barrier", "MPI_Ibarrier", 1, barrier_request),
    ("MPI_Bcast", "MPI_Ibcast", 5, bcast_request),
    ("MPI_Reduce", "MPI_Ireduce", 7, reduce_request),
    ("MPI_Allreduce", "MPI_Iallreduce", 6, allreduce_request),
    ("MPI_Gather", "MPI_Igather", 8, gather_request),
    ("MPI_Scatter", "MPI_Iscatter", 8, scatter_request),
    ("MPI_Allgather", "MPI_Iallgather", 7, allgather_request),
    ("MPI_Alltoall", "MPI_Ialltoall", 7, alltoall_request),
    ("MPI_Alltoallv", "MPI_Ialltoallv", 9, alltoallv_request),
];

fn bad_range(bytes: u32) -> MpiError {
    MpiError::BadCount { bytes: bytes as usize, type_size: 1 }
}

fn overlap(t: Trap) -> MpiError {
    MpiError::CollectiveMismatch(t.to_string())
}

/// `MPI_Barrier(comm)`
fn barrier_request(
    _mem: &mut Memory,
    env: &mut Env,
    args: &[Slot],
) -> Result<mpi_substrate::Request<'static>, MpiError> {
    env.mpi.comm(args[0].i32())?.ibarrier()
}

/// `MPI_Bcast(buf, count, datatype, root, comm)`
fn bcast_request(
    mem: &mut Memory,
    env: &mut Env,
    args: &[Slot],
) -> Result<mpi_substrate::Request<'static>, MpiError> {
    let (buf, count, dt_h) = (args[0].u32(), args[1].i32(), args[2].i32());
    let (root, comm_h) = (args[3].i32(), args[4].i32());
    let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
    let view = mem.slice_mut(buf, bytes).map_err(|_| bad_range(bytes))?;
    let (ptr, len) = (view.as_mut_ptr(), view.len());
    unsafe { env.mpi.comm(comm_h)?.ibcast_raw(ptr, len, root as u32) }
}

/// `MPI_Reduce(sendbuf, recvbuf, count, datatype, op, root, comm)`
fn reduce_request(
    mem: &mut Memory,
    env: &mut Env,
    args: &[Slot],
) -> Result<mpi_substrate::Request<'static>, MpiError> {
    let (sbuf, rbuf, count, dt_h) = (args[0].u32(), args[1].u32(), args[2].i32(), args[3].i32());
    let (op_h, root, comm_h) = (args[4].i32(), args[5].i32() as u32, args[6].i32());
    let (dt, bytes) = translate_instrumented(env, count, dt_h)?;
    let op = op_from_handle(op_h)?;
    let comm = env.mpi.comm(comm_h)?;
    if comm.rank() == root {
        let (sview, rview) = mem.disjoint_pair((sbuf, bytes), (rbuf, bytes)).map_err(overlap)?;
        let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
        unsafe { comm.ireduce_raw(sview, rptr, rlen, dt, op, root) }
    } else {
        let sview = mem.slice(sbuf, bytes).map_err(|_| bad_range(bytes))?;
        unsafe { comm.ireduce_raw(sview, std::ptr::null_mut(), 0, dt, op, root) }
    }
}

/// `MPI_Allreduce(sendbuf, recvbuf, count, datatype, op, comm)`
fn allreduce_request(
    mem: &mut Memory,
    env: &mut Env,
    args: &[Slot],
) -> Result<mpi_substrate::Request<'static>, MpiError> {
    let (sbuf, rbuf, count, dt_h) = (args[0].u32(), args[1].u32(), args[2].i32(), args[3].i32());
    let (op_h, comm_h) = (args[4].i32(), args[5].i32());
    let (dt, bytes) = translate_instrumented(env, count, dt_h)?;
    let op = op_from_handle(op_h)?;
    let (sview, rview) = mem.disjoint_pair((sbuf, bytes), (rbuf, bytes)).map_err(overlap)?;
    let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
    unsafe { env.mpi.comm(comm_h)?.iallreduce_raw(sview, rptr, rlen, dt, op) }
}

/// `MPI_Gather(sbuf, scount, stype, rbuf, rcount, rtype, root, comm)`
fn gather_request(
    mem: &mut Memory,
    env: &mut Env,
    args: &[Slot],
) -> Result<mpi_substrate::Request<'static>, MpiError> {
    let (sbuf, scount, stype) = (args[0].u32(), args[1].i32(), args[2].i32());
    let (rbuf, rcount, rtype) = (args[3].u32(), args[4].i32(), args[5].i32());
    let (root, comm_h) = (args[6].i32() as u32, args[7].i32());
    let (_sdt, sbytes) = translate_instrumented(env, scount, stype)?;
    if env.mpi.comm(comm_h)?.rank() == root {
        let (_rdt, rbytes_each) = translate_instrumented(env, rcount, rtype)?;
        let comm = env.mpi.comm(comm_h)?;
        let total = rbytes_each * comm.size();
        let (sview, rview) = mem.disjoint_pair((sbuf, sbytes), (rbuf, total)).map_err(overlap)?;
        let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
        unsafe { comm.igather_raw(sview.as_ptr(), sview.len(), rptr, rlen, root) }
    } else {
        let sview = mem.slice(sbuf, sbytes).map_err(|_| bad_range(sbytes))?;
        let comm = env.mpi.comm(comm_h)?;
        unsafe { comm.igather_raw(sview.as_ptr(), sview.len(), std::ptr::null_mut(), 0, root) }
    }
}

/// `MPI_Scatter(sbuf, scount, stype, rbuf, rcount, rtype, root, comm)`
fn scatter_request(
    mem: &mut Memory,
    env: &mut Env,
    args: &[Slot],
) -> Result<mpi_substrate::Request<'static>, MpiError> {
    let (sbuf, scount, stype) = (args[0].u32(), args[1].i32(), args[2].i32());
    let (rbuf, rcount, rtype) = (args[3].u32(), args[4].i32(), args[5].i32());
    let (root, comm_h) = (args[6].i32() as u32, args[7].i32());
    let (_rdt, rbytes) = translate_instrumented(env, rcount, rtype)?;
    if env.mpi.comm(comm_h)?.rank() == root {
        let (_sdt, sbytes_each) = translate_instrumented(env, scount, stype)?;
        let comm = env.mpi.comm(comm_h)?;
        let total = sbytes_each * comm.size();
        let (sview, rview) = mem.disjoint_pair((sbuf, total), (rbuf, rbytes)).map_err(overlap)?;
        let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
        unsafe { comm.iscatter_raw(sview.as_ptr(), sview.len(), rptr, rlen, root) }
    } else {
        let rview = mem.slice_mut(rbuf, rbytes).map_err(|_| bad_range(rbytes))?;
        let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
        unsafe { env.mpi.comm(comm_h)?.iscatter_raw(std::ptr::null(), 0, rptr, rlen, root) }
    }
}

/// `MPI_Allgather(sbuf, scount, stype, rbuf, rcount, rtype, comm)`
fn allgather_request(
    mem: &mut Memory,
    env: &mut Env,
    args: &[Slot],
) -> Result<mpi_substrate::Request<'static>, MpiError> {
    let (sbuf, scount, stype) = (args[0].u32(), args[1].i32(), args[2].i32());
    let (rbuf, rcount, rtype) = (args[3].u32(), args[4].i32(), args[5].i32());
    let comm_h = args[6].i32();
    let (_sdt, sbytes) = translate_instrumented(env, scount, stype)?;
    let (_rdt, rbytes_each) = translate_instrumented(env, rcount, rtype)?;
    let comm = env.mpi.comm(comm_h)?;
    let total = rbytes_each * comm.size();
    let (sview, rview) = mem.disjoint_pair((sbuf, sbytes), (rbuf, total)).map_err(overlap)?;
    let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
    unsafe { comm.iallgather_raw(sview, rptr, rlen) }
}

/// `MPI_Alltoall(sbuf, scount, stype, rbuf, rcount, rtype, comm)`
fn alltoall_request(
    mem: &mut Memory,
    env: &mut Env,
    args: &[Slot],
) -> Result<mpi_substrate::Request<'static>, MpiError> {
    let (sbuf, scount, stype) = (args[0].u32(), args[1].i32(), args[2].i32());
    let (rbuf, rcount, rtype) = (args[3].u32(), args[4].i32(), args[5].i32());
    let comm_h = args[6].i32();
    let (_sdt, sbytes_each) = translate_instrumented(env, scount, stype)?;
    let (_rdt, rbytes_each) = translate_instrumented(env, rcount, rtype)?;
    let comm = env.mpi.comm(comm_h)?;
    let (stotal, rtotal) = (sbytes_each * comm.size(), rbytes_each * comm.size());
    let (sview, rview) = mem.disjoint_pair((sbuf, stotal), (rbuf, rtotal)).map_err(overlap)?;
    let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
    unsafe { comm.ialltoall_raw(sview.as_ptr(), sview.len(), rptr, rlen) }
}

/// `MPI_Alltoallv(sbuf, scounts, sdispls, stype, rbuf, rcounts, rdispls,
/// rtype, comm)`: the guest's element counts and displacements become
/// byte extents.
fn alltoallv_request(
    mem: &mut Memory,
    env: &mut Env,
    args: &[Slot],
) -> Result<mpi_substrate::Request<'static>, MpiError> {
    let (sbuf, scounts_ptr, sdispls_ptr, stype) =
        (args[0].u32(), args[1].u32(), args[2].u32(), args[3].i32());
    let (rbuf, rcounts_ptr, rdispls_ptr, rtype) =
        (args[4].u32(), args[5].u32(), args[6].u32(), args[7].i32());
    let comm_h = args[8].i32();
    let sdt = datatype_from_handle(stype)?;
    let rdt = datatype_from_handle(rtype)?;
    let comm = env.mpi.comm(comm_h)?;
    let p = comm.size();
    let scounts = read_extents(mem, scounts_ptr, p, sdt.size())?;
    let sdispls = read_extents(mem, sdispls_ptr, p, sdt.size())?;
    let rcounts = read_extents(mem, rcounts_ptr, p, rdt.size())?;
    let rdispls = read_extents(mem, rdispls_ptr, p, rdt.size())?;
    let s_extent = extent_of(&scounts, &sdispls) as u32;
    let r_extent = extent_of(&rcounts, &rdispls) as u32;
    let (sview, rview) =
        mem.disjoint_pair((sbuf, s_extent), (rbuf, r_extent)).map_err(overlap)?;
    let (sptr, slen) = (sview.as_ptr(), sview.len());
    let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
    unsafe { comm.ialltoallv_raw(sptr, slen, scounts, sdispls, rptr, rlen, rcounts, rdispls) }
}

macro_rules! mpi_fn {
    ($linker:expr, $name:literal, ($($p:expr),*) -> $r:expr, $body:expr) => {
        $linker.func("env", $name, FuncType::new(vec![$($p),*], vec![$r]), $body);
    };
}

/// Register every MPI function the embedder provides.
pub fn register_mpi(linker: &mut Linker) {
    use ValType::{F64, I32};

    mpi_fn!(linker, "MPI_Init", (I32, I32) -> I32, |inst, _args| {
        let env = env_of(inst.parts().1);
        env.mpi.initialized = true;
        env.mpi.charge_wasm_overhead();
        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
    });

    mpi_fn!(linker, "MPI_Finalize", () -> I32, |inst: &mut Instance, _args: &[Slot]| {
        let env = env_of(inst.parts().1);
        env.mpi.finalized = true;
        env.mpi.charge_wasm_overhead();
        // Ranks synchronize at finalize, as real MPI implementations do —
        // via the nonblocking barrier so detached sends and leftover
        // posted receives keep progressing while parked.
        let req = env.mpi.world().ibarrier();
        let r = req.and_then(|mut req| wait_local(env, &mut req).map(|_| ()));
        Ok(code(r))
    });

    mpi_fn!(linker, "MPI_Initialized", (I32) -> I32, |inst, args: &[Slot]| {
        let ptr = args[0].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        mem.write_i32_at(ptr, env.mpi.initialized as i32)?;
        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
    });

    mpi_fn!(linker, "MPI_Finalized", (I32) -> I32, |inst, args: &[Slot]| {
        let ptr = args[0].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        mem.write_i32_at(ptr, env.mpi.finalized as i32)?;
        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
    });

    mpi_fn!(linker, "MPI_Comm_rank", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let (comm_h, ptr) = (args[0].i32(), args[1].u32());
        let (mem, data) = inst.parts();
        let env = env_of(data);
        match env.mpi.comm(comm_h) {
            Ok(c) => {
                mem.write_i32_at(ptr, c.rank() as i32)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    mpi_fn!(linker, "MPI_Comm_size", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let (comm_h, ptr) = (args[0].i32(), args[1].u32());
        let (mem, data) = inst.parts();
        let env = env_of(data);
        match env.mpi.comm(comm_h) {
            Ok(c) => {
                mem.write_i32_at(ptr, c.size() as i32)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Send(buf, count, datatype, dest, tag, comm)
    mpi_fn!(linker, "MPI_Send", (I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let dest = args[3].i32();
        let tag = args[4].i32();
        let comm_h = args[5].i32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let req = (|| {
            if dt_h >= handles::FIRST_DERIVED_DATATYPE {
                // Pack-on-send: the wire payload is owned, so the guest
                // buffer needs no pinning past this call.
                let data = pack_guest(mem, env, buf, count, dt_h)?;
                let comm = env.mpi.comm(comm_h)?;
                return comm.isend_owned(data, dest as u32, tag);
            }
            let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
            // Zero-copy: the slice *is* guest memory (§3.5).
            let view = mem.slice(buf, bytes).map_err(|_| MpiError::BadCount {
                bytes: bytes as usize,
                type_size: 1,
            })?;
            let (ptr, len) = (view.as_ptr(), view.len());
            let comm = env.mpi.comm(comm_h)?;
            unsafe { comm.isend_raw(ptr, len, dest as u32, tag) }
        })();
        let r = req.and_then(|mut req| wait_local(env, &mut req).map(|_| ()));
        Ok(code(r))
    });

    // MPI_Recv(buf, count, datatype, source, tag, comm, status)
    mpi_fn!(linker, "MPI_Recv", (I32, I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let src = args[3].i32();
        let tag = args[4].i32();
        let comm_h = args[5].i32();
        let status_ptr = args[6].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let r = if dt_h >= handles::FIRST_DERIVED_DATATYPE {
            recv_derived(mem, env, buf, count, dt_h, src, tag, comm_h)
        } else {
            (|| {
                let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
                let view = mem.slice_mut(buf, bytes).map_err(|_| MpiError::BadCount {
                    bytes: bytes as usize,
                    type_size: 1,
                })?;
                let (ptr, len) = (view.as_mut_ptr(), view.len());
                let comm = env.mpi.comm(comm_h)?;
                unsafe { comm.irecv_raw_uncharged(ptr, len, source_of(src), tag_of(tag)) }
            })()
            .and_then(|mut req| wait_local(env, &mut req))
        };
        match r {
            Ok(st) => {
                write_status(mem, status_ptr, &st, handles::MPI_SUCCESS)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => {
                let _ = write_status(mem, status_ptr, &Status::empty(), e.code());
                Ok(vec![Slot::from_i32(e.code())])
            }
        }
    });

    // MPI_Sendrecv(sbuf, scount, stype, dest, stag,
    //              rbuf, rcount, rtype, source, rtag, comm, status)
    {
        let params = vec![I32; 12];
        linker.func("env", "MPI_Sendrecv", FuncType::new(params, vec![I32]), |inst, args| {
            let sbuf = args[0].u32();
            let scount = args[1].i32();
            let stype = args[2].i32();
            let dest = args[3].i32();
            let stag = args[4].i32();
            let rbuf = args[5].u32();
            let rcount = args[6].i32();
            let rtype = args[7].i32();
            let src = args[8].i32();
            let rtag = args[9].i32();
            let comm_h = args[10].i32();
            let status_ptr = args[11].u32();
            let (mem, data) = inst.parts();
            let env = env_of(data);
            env.mpi.charge_wasm_overhead();
            let reqs = (|| {
                let (_sdt, sbytes) = translate_instrumented(env, scount, stype)?;
                let (_rdt, rbytes) = translate_instrumented(env, rcount, rtype)?;
                let (sview, rview) = mem
                    .disjoint_pair((sbuf, sbytes), (rbuf, rbytes))
                    .map_err(|t| MpiError::CollectiveMismatch(t.to_string()))?;
                let (sptr, slen) = (sview.as_ptr(), sview.len());
                let (rptr, rlen) = (rview.as_mut_ptr(), rview.len());
                let comm = env.mpi.comm(comm_h)?;
                let sreq = unsafe { comm.isend_raw(sptr, slen, dest as u32, stag) }?;
                let rreq = unsafe {
                    comm.irecv_raw_uncharged(rptr, rlen, source_of(src), tag_of(rtag))
                }?;
                Ok((sreq, rreq))
            })();
            let r: Result<Status, MpiError> = reqs.and_then(|(mut sreq, mut rreq)| {
                // Receive first (it needs active progress); the send then
                // completes passively once the peer drains it. The send is
                // driven to completion even when the receive errors —
                // cancelling it would un-send a message the peer may be
                // blocked waiting for.
                let recv_result = wait_local(env, &mut rreq);
                let send_result = wait_local(env, &mut sreq);
                let st = recv_result?;
                send_result?;
                Ok(st)
            });
            match r {
                Ok(st) => {
                    write_status(mem, status_ptr, &st, handles::MPI_SUCCESS)?;
                    Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
                }
                Err(e) => Ok(vec![Slot::from_i32(e.code())]),
            }
        });
    }

    // The collectives. `MPI_X(args…)` is the request its decoder builds,
    // driven to completion inside the call — so a rank parked here still
    // services its posted receives (a peer may be waiting on one before it
    // can reach this same collective), and the guest cannot touch the
    // buffers the schedule reads at poll time. `MPI_IX(args…, request_ptr)`
    // hands the same request to the guest instead.
    for (blocking, nonblocking, params, decode) in COLLECTIVES {
        let ty = |params: usize| FuncType::new(vec![I32; params], vec![I32]);
        linker.func("env", blocking, ty(params), move |inst, args| {
            let (mem, data) = inst.parts();
            let env = env_of(data);
            env.mpi.charge_wasm_overhead();
            let req = decode(mem, env, args);
            Ok(code(req.and_then(|mut req| wait_local(env, &mut req).map(|_| ()))))
        });
        linker.func("env", nonblocking, ty(params + 1), move |inst, args| {
            let (mem, data) = inst.parts();
            let env = env_of(data);
            env.mpi.charge_wasm_overhead();
            let req = decode(mem, env, args);
            finish_request(mem, env, args[params].u32(), req)
        });
    }

    // MPI_Comm_split(comm, color, key, newcomm_ptr)
    mpi_fn!(linker, "MPI_Comm_split", (I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let comm_h = args[0].i32();
        let color = args[1].i32();
        let key = args[2].i32();
        let out_ptr = args[3].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let result: Result<Option<Comm>, MpiError> =
            env.mpi.comm(comm_h).and_then(|c| c.split(color, key));
        match result {
            Ok(Some(new_comm)) => {
                let h = env.mpi.insert_comm(new_comm);
                mem.write_i32_at(out_ptr, h)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Ok(None) => {
                mem.write_i32_at(out_ptr, -1)?; // MPI_COMM_NULL
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Comm_dup(comm, newcomm_ptr)
    mpi_fn!(linker, "MPI_Comm_dup", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let comm_h = args[0].i32();
        let out_ptr = args[1].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        match env.mpi.comm(comm_h).and_then(|c| c.dup()) {
            Ok(new_comm) => {
                let h = env.mpi.insert_comm(new_comm);
                mem.write_i32_at(out_ptr, h)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Comm_free(comm_ptr)
    mpi_fn!(linker, "MPI_Comm_free", (I32) -> I32, |inst, args: &[Slot]| {
        let ptr = args[0].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let h = mem.read_i32_at(ptr)?;
        let r = env.mpi.free_comm(h);
        if r.is_ok() {
            mem.write_i32_at(ptr, -1)?; // MPI_COMM_NULL
        }
        Ok(code(r))
    });

    // MPI_Wtime() -> f64
    linker.func("env", "MPI_Wtime", FuncType::new(vec![], vec![F64]), |inst, _args| {
        let env = env_of(inst.parts().1);
        Ok(vec![Slot::from_f64(env.mpi.world().wtime())])
    });

    // MPI_Wtick() -> f64
    linker.func("env", "MPI_Wtick", FuncType::new(vec![], vec![F64]), |_inst, _args| {
        Ok(vec![Slot::from_f64(1e-9)])
    });

    // MPI_Abort(comm, errorcode): traps the instance.
    mpi_fn!(linker, "MPI_Abort", (I32, I32) -> I32, |_inst, args: &[Slot]| {
        Err(Trap::host(format!("MPI_Abort called with code {}", args[1].i32())))
    });

    // mpiwasm_stats(ptr, cap_bytes) -> bytes_written: embedder extension
    // exposing this rank's ProtocolSnapshot as little-endian u64 words in
    // the fixed `ProtocolSnapshot::as_words` order, so guest benchmarks
    // can assert protocol behavior (e.g. zero-copy rendezvous counts,
    // prepost coverage) from inside the sandbox. Writes as many whole
    // words as fit in `cap_bytes`.
    mpi_fn!(linker, "mpiwasm_stats", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let ptr = args[0].u32();
        let cap = args[1].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let words = env.mpi.world().protocol_stats().as_words();
        let n = (cap as usize / 8).min(words.len());
        for (i, w) in words[..n].iter().enumerate() {
            mem.write_u64_at(ptr + (i as u32) * 8, *w)?;
        }
        Ok(vec![Slot::from_i32((n * 8) as i32)])
    });

    // MPI_Get_count(status_ptr, datatype, count_ptr). A byte count that
    // is not a whole number of datatype elements yields MPI_UNDEFINED
    // (MPI-4 §3.2.5) — flooring would silently misreport a truncated or
    // mismatched message as shorter-but-valid. Derived handles divide by
    // the type's packed (wire) size.
    mpi_fn!(linker, "MPI_Get_count", (I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let status_ptr = args[0].u32();
        let dt_h = args[1].i32();
        let out_ptr = args[2].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        match resolve_dtype(env, dt_h) {
            Ok(dt) => {
                let bytes = mem.read_i32_at(status_ptr + 12)? as u32;
                let count = match dt.packed_size {
                    0 if bytes == 0 => 0,
                    0 => handles::MPI_UNDEFINED,
                    size if bytes % size == 0 => (bytes / size) as i32,
                    _ => handles::MPI_UNDEFINED,
                };
                mem.write_i32_at(out_ptr, count)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Get_elements(status_ptr, datatype, count_ptr): the number of
    // *basic* elements received — finer-grained than MPI_Get_count for
    // derived types, where a partial final element still has a defined
    // basic-element count as long as no primitive was split.
    mpi_fn!(linker, "MPI_Get_elements", (I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let status_ptr = args[0].u32();
        let dt_h = args[1].i32();
        let out_ptr = args[2].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        match resolve_dtype(env, dt_h) {
            Ok(dt) => {
                let bytes = mem.read_i32_at(status_ptr + 12)? as u32;
                let n = dt
                    .elements_in(bytes)
                    .map_or(handles::MPI_UNDEFINED, |n| n as i32);
                mem.write_i32_at(out_ptr, n)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Iprobe(source, tag, comm, flag_ptr, status_ptr)
    mpi_fn!(linker, "MPI_Iprobe", (I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let src = args[0].i32();
        let tag = args[1].i32();
        let comm_h = args[2].i32();
        let flag_ptr = args[3].u32();
        let status_ptr = args[4].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let probed = env
            .mpi
            .comm(comm_h)
            .and_then(|c| c.iprobe(source_of(src), tag_of(tag)));
        match probed {
            Ok(Some(st)) => {
                mem.write_i32_at(flag_ptr, 1)?;
                write_status(mem, status_ptr, &st, handles::MPI_SUCCESS)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Ok(None) => {
                mem.write_i32_at(flag_ptr, 0)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Probe(source, tag, comm, status_ptr): blocking probe (see
    // blocking_probe for the progress structure).
    mpi_fn!(linker, "MPI_Probe", (I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let src = args[0].i32();
        let tag = args[1].i32();
        let comm_h = args[2].i32();
        let status_ptr = args[3].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let r = blocking_probe(
            env,
            comm_h,
            |c| c.iprobe(source_of(src), tag_of(tag)),
            |c| c.probe(source_of(src), tag_of(tag)),
        );
        match r {
            Ok(st) => {
                write_status(mem, status_ptr, &st, handles::MPI_SUCCESS)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Improbe(source, tag, comm, flag_ptr, message_ptr, status_ptr):
    // non-blocking matched probe. On a hit the message is *extracted*
    // into the rank's message table (no concurrent receive can steal it)
    // and its handle is written to message_ptr.
    mpi_fn!(linker, "MPI_Improbe", (I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let src = args[0].i32();
        let tag = args[1].i32();
        let comm_h = args[2].i32();
        let flag_ptr = args[3].u32();
        let msg_ptr = args[4].u32();
        let status_ptr = args[5].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let probed = env
            .mpi
            .comm(comm_h)
            .and_then(|c| c.improbe(source_of(src), tag_of(tag)));
        match probed {
            Ok(Some((msg, st))) => {
                let h = env.mpi.insert_message(msg);
                mem.write_i32_at(flag_ptr, 1)?;
                mem.write_i32_at(msg_ptr, h)?;
                write_status(mem, status_ptr, &st, handles::MPI_SUCCESS)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Ok(None) => {
                mem.write_i32_at(flag_ptr, 0)?;
                mem.write_i32_at(msg_ptr, handles::MPI_MESSAGE_NULL)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Mprobe(source, tag, comm, message_ptr, status_ptr): blocking
    // matched probe (see blocking_probe for the progress structure).
    mpi_fn!(linker, "MPI_Mprobe", (I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let src = args[0].i32();
        let tag = args[1].i32();
        let comm_h = args[2].i32();
        let msg_ptr = args[3].u32();
        let status_ptr = args[4].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let r = blocking_probe(
            env,
            comm_h,
            |c| c.improbe(source_of(src), tag_of(tag)),
            |c| c.mprobe(source_of(src), tag_of(tag)),
        );
        match r {
            Ok((msg, st)) => {
                let h = env.mpi.insert_message(msg);
                mem.write_i32_at(msg_ptr, h)?;
                write_status(mem, status_ptr, &st, handles::MPI_SUCCESS)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Mrecv(buf, count, datatype, message_ptr, status_ptr): receive a
    // matched-probe message. Never blocks — the message was extracted at
    // probe time; only the delivery (copy, clock charge, rendezvous
    // completion) runs. The guest's message handle word is rewritten to
    // MPI_MESSAGE_NULL exactly when the message was consumed: a
    // translation failure *before* the message is taken leaves the handle
    // live (the guest can still Mrecv it, and the extracted message is
    // not stranded in the table with its sender parked on a handshake);
    // truncation consumes the message, so it nulls like a success.
    mpi_fn!(linker, "MPI_Mrecv", (I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let msg_ptr = args[3].u32();
        let status_ptr = args[4].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let handle = mem.read_i32_at(msg_ptr)?;
        if handle == handles::MPI_MESSAGE_NULL {
            let _ = write_status(mem, status_ptr, &Status::empty(), handles::MPI_SUCCESS);
            return Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)]);
        }
        let r = match translate_instrumented(env, count, dt_h) {
            Ok((_dt, bytes)) => match mem.slice_mut(buf, bytes) {
                Ok(view) => env.mpi.take_message(handle).map(|msg| msg.recv(view)),
                Err(_) => {
                    Err(MpiError::BadCount { bytes: bytes as usize, type_size: 1 })
                }
            },
            Err(e) => Err(e),
        };
        match r {
            Ok(received) => {
                // The message was consumed (delivered, or truncated with
                // the handshake completed): null the handle either way.
                mem.write_i32_at(msg_ptr, handles::MPI_MESSAGE_NULL)?;
                match received {
                    Ok(st) => {
                        write_status(mem, status_ptr, &st, handles::MPI_SUCCESS)?;
                        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
                    }
                    Err(e) => Ok(vec![Slot::from_i32(e.code())]),
                }
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Imrecv(buf, count, datatype, message_ptr, request_ptr): the
    // nonblocking matched receive — converts the message handle into a
    // request handle (completable on its first progress step).
    mpi_fn!(linker, "MPI_Imrecv", (I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let msg_ptr = args[3].u32();
        let req_ptr = args[4].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let handle = mem.read_i32_at(msg_ptr)?;
        if handle == handles::MPI_MESSAGE_NULL {
            mem.write_i32_at(req_ptr, handles::MPI_REQUEST_NULL)?;
            return Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)]);
        }
        let req = (|| {
            let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
            let view = mem.slice_mut(buf, bytes).map_err(|_| MpiError::BadCount {
                bytes: bytes as usize,
                type_size: 1,
            })?;
            let (ptr, len) = (view.as_mut_ptr(), view.len());
            let msg = env.mpi.take_message(handle)?;
            Ok(unsafe { msg.imrecv_raw(ptr, len) })
        })();
        if req.is_ok() {
            mem.write_i32_at(msg_ptr, handles::MPI_MESSAGE_NULL)?;
        }
        finish_request(mem, env, req_ptr, req)
    });

    // MPI_Cancel(request_ptr): mark for cancellation. A pending send
    // still queued unmatched at the destination is retracted; a posted
    // unmatched receive is unposted; anything already matched completes
    // normally. Completion (Wait/Test) still retires the request, with
    // the outcome surfaced through MPI_Test_cancelled.
    mpi_fn!(linker, "MPI_Cancel", (I32) -> I32, |inst, args: &[Slot]| {
        let req_ptr = args[0].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let handle = mem.read_i32_at(req_ptr)?;
        if handle <= 0 {
            return Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)]);
        }
        let r = env.mpi.request_mut(handle).map(|mut req| req.cancel());
        Ok(code(r))
    });

    // MPI_Test_cancelled(status_ptr, flag_ptr)
    mpi_fn!(linker, "MPI_Test_cancelled", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let status_ptr = args[0].u32();
        let flag_ptr = args[1].u32();
        let mem = &mut inst.memory;
        let cancelled = mem.read_i32_at(status_ptr + 16)?;
        mem.write_i32_at(flag_ptr, (cancelled != 0) as i32)?;
        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
    });

    // MPI_Init_thread(argc, argv, required, provided_ptr): the substrate
    // is MPI_THREAD_MULTIPLE-clean (lock-protected mailbox matching and
    // request table), so the granted level is simply the clamped request.
    mpi_fn!(linker, "MPI_Init_thread", (I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let required = args[2].i32();
        let provided_ptr = args[3].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.initialized = true;
        env.mpi.thread_level =
            required.clamp(handles::MPI_THREAD_SINGLE, handles::MPI_THREAD_MULTIPLE);
        env.mpi.charge_wasm_overhead();
        mem.write_i32_at(provided_ptr, env.mpi.thread_level)?;
        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
    });

    // MPI_Query_thread(provided_ptr)
    mpi_fn!(linker, "MPI_Query_thread", (I32) -> I32, |inst, args: &[Slot]| {
        let provided_ptr = args[0].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        mem.write_i32_at(provided_ptr, env.mpi.thread_level)?;
        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
    });

    // MPI_Type_size(datatype, size_ptr): for derived handles this is the
    // packed (wire) size — the bytes one element contributes to a message.
    mpi_fn!(linker, "MPI_Type_size", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let dt_h = args[0].i32();
        let ptr = args[1].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        match resolve_dtype(env, dt_h) {
            Ok(dt) => {
                mem.write_i32_at(ptr, dt.packed_size as i32)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Alloc_mem(size, info, baseptr_ptr): re-enters guest malloc (§3.7).
    mpi_fn!(linker, "MPI_Alloc_mem", (I32, I32, I32) -> I32, |inst: &mut Instance, args: &[Slot]| {
        let size = args[0].i32();
        let out_ptr = args[2].u32();
        if inst.export_func("malloc").is_none() {
            return Ok(vec![Slot::from_i32(2 /* MPI_ERR_COUNT-ish: no allocator */)]);
        }
        let results = inst.invoke("malloc", &[wasm_engine::Value::I32(size)])?;
        let guest_ptr = results.first().map(|v| v.as_i32()).transpose()?.unwrap_or(0);
        inst.memory.write_i32_at(out_ptr, guest_ptr)?;
        Ok(vec![Slot::from_i32(if guest_ptr == 0 { 2 } else { handles::MPI_SUCCESS })])
    });

    // MPI_Free_mem(ptr): re-enters guest free.
    mpi_fn!(linker, "MPI_Free_mem", (I32) -> I32, |inst: &mut Instance, args: &[Slot]| {
        if inst.export_func("free").is_none() {
            return Ok(vec![Slot::from_i32(2)]);
        }
        inst.invoke("free", &[wasm_engine::Value::I32(args[0].i32())])?;
        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
    });

    // --- nonblocking operations (MPI_Request = i32 handle, 0 = NULL) ---
    //
    // Requests are true pending operations in the substrate's progress
    // engine (see crate::env for the handle encoding). The buffers live in
    // the instance's linear memory, which the embedder pins while requests
    // are pending (`Memory::grow` never moves it), so the raw-pointer
    // substrate API is sound here. That covers *send* buffers too: a
    // rendezvous `Isend`'s, `Ialltoall(v)`'s, `Iallreduce`'s and
    // `Ireduce`'s are read at poll time, by this rank and by its peers
    // (the list is in docs/mpi_surface.md). A guest that writes one before
    // completion gets the result MPI leaves undefined, never a host fault.

    // MPI_Isend(buf, count, datatype, dest, tag, comm, request_ptr)
    mpi_fn!(linker, "MPI_Isend", (I32, I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let dest = args[3].i32();
        let tag = args[4].i32();
        let comm_h = args[5].i32();
        let req_ptr = args[6].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let req = (|| {
            if dt_h >= handles::FIRST_DERIVED_DATATYPE {
                // Pack-on-send into an owned payload: the guest may reuse
                // its buffer immediately, but the request must still be
                // completed (it carries the delivery handshake).
                let data = pack_guest(mem, env, buf, count, dt_h)?;
                let comm = env.mpi.comm(comm_h)?;
                return comm.isend_owned(data, dest as u32, tag);
            }
            let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
            let view = mem.slice(buf, bytes).map_err(|_| MpiError::BadCount {
                bytes: bytes as usize,
                type_size: 1,
            })?;
            let (ptr, len) = (view.as_ptr(), view.len());
            let comm = env.mpi.comm(comm_h)?;
            unsafe { comm.isend_raw(ptr, len, dest as u32, tag) }
        })();
        finish_request(mem, env, req_ptr, req)
    });

    // MPI_Irecv(buf, count, datatype, source, tag, comm, request_ptr)
    //
    // Derived-datatype handles are rejected here (and on MPI_Recv_init
    // and the collectives) by the primitive-handle translation: a
    // nonblocking unpack would need the staging buffer to outlive this
    // call. Guests receive derived types with the blocking MPI_Recv.
    mpi_fn!(linker, "MPI_Irecv", (I32, I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let src = args[3].i32();
        let tag = args[4].i32();
        let comm_h = args[5].i32();
        let req_ptr = args[6].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let req = (|| {
            let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
            // The target region must be valid now, as real MPI requires.
            let view = mem.slice_mut(buf, bytes).map_err(|_| MpiError::BadCount {
                bytes: bytes as usize,
                type_size: 1,
            })?;
            let (ptr, len) = (view.as_mut_ptr(), view.len());
            let comm = env.mpi.comm(comm_h)?;
            unsafe { comm.irecv_raw(ptr, len, source_of(src), tag_of(tag)) }
        })();
        finish_request(mem, env, req_ptr, req)
    });

    // MPI_Send_init(buf, count, datatype, dest, tag, comm, request_ptr)
    mpi_fn!(linker, "MPI_Send_init", (I32, I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let dest = args[3].i32();
        let tag = args[4].i32();
        let comm_h = args[5].i32();
        let req_ptr = args[6].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let req = (|| {
            let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
            let view = mem.slice(buf, bytes).map_err(|_| MpiError::BadCount {
                bytes: bytes as usize,
                type_size: 1,
            })?;
            let (ptr, len) = (view.as_ptr(), view.len());
            let comm = env.mpi.comm(comm_h)?;
            unsafe { comm.send_init_raw(ptr, len, dest as u32, tag) }
        })();
        finish_request(mem, env, req_ptr, req)
    });

    // MPI_Recv_init(buf, count, datatype, source, tag, comm, request_ptr)
    mpi_fn!(linker, "MPI_Recv_init", (I32, I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let src = args[3].i32();
        let tag = args[4].i32();
        let comm_h = args[5].i32();
        let req_ptr = args[6].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let req = (|| {
            let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
            let view = mem.slice_mut(buf, bytes).map_err(|_| MpiError::BadCount {
                bytes: bytes as usize,
                type_size: 1,
            })?;
            let (ptr, len) = (view.as_mut_ptr(), view.len());
            let comm = env.mpi.comm(comm_h)?;
            unsafe { comm.recv_init_raw(ptr, len, source_of(src), tag_of(tag)) }
        })();
        finish_request(mem, env, req_ptr, req)
    });

    // MPI_Start(request_ptr)
    mpi_fn!(linker, "MPI_Start", (I32) -> I32, |inst, args: &[Slot]| {
        let req_ptr = args[0].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let handle = mem.read_i32_at(req_ptr)?;
        let r = env.mpi.request_mut(handle).and_then(|mut req| req.start());
        Ok(code(r))
    });

    // MPI_Startall(count, requests_ptr)
    mpi_fn!(linker, "MPI_Startall", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let count = args[0].i32();
        let reqs_ptr = args[1].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let r = (|| {
            for i in 0..count.max(0) as u32 {
                let handle = mem.read_i32_at(reqs_ptr + i * 4).map_err(|_| {
                    MpiError::BadCount { bytes: count as usize * 4, type_size: 4 }
                })?;
                env.mpi.request_mut(handle)?.start()?;
            }
            Ok(())
        })();
        Ok(code(r))
    });

    // MPI_Request_free(request_ptr): active requests are completed first
    // (the simple rendering of "marked for deletion on completion").
    mpi_fn!(linker, "MPI_Request_free", (I32) -> I32, |inst, args: &[Slot]| {
        let req_ptr = args[0].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let handle = mem.read_i32_at(req_ptr)?;
        if handle <= 0 {
            return Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)]);
        }
        let r = (|| {
            // MPI_Request_free must return immediately ("marked for
            // deletion on completion"). Receives and finished requests
            // are dropped outright — a freed speculative receive may
            // never match, and its message (if any) stays queued for
            // other receives. In-flight sends are *detached*: parked
            // alive until the peer drains them, since the payload must
            // still arrive. Only active nonblocking collectives — which
            // MPI-3 §5.12 forbids freeing — are driven to completion
            // rather than corrupting the schedule for every peer.
            enum Step {
                Detach,
                Retired,
                Pending,
            }
            let mut spins = 0u32;
            loop {
                // Scope the table guard: detach/progress_all below re-take
                // the table lock.
                let step = {
                    let mut req = env.mpi.request_mut(handle)?;
                    if req.safe_to_detach() || req.completes_passively() {
                        Step::Detach
                    } else {
                        req.progress();
                        if req.is_complete() {
                            let _ = req.take_result();
                            Step::Retired
                        } else {
                            Step::Pending
                        }
                    }
                };
                match step {
                    Step::Detach => {
                        env.mpi.detach_request(handle)?;
                        return Ok(());
                    }
                    Step::Retired => break,
                    Step::Pending => {
                        env.mpi.progress_all();
                        backoff(&mut spins);
                    }
                }
            }
            env.mpi.remove_request(handle)?;
            Ok(())
        })();
        if r.is_ok() {
            mem.write_i32_at(req_ptr, handles::MPI_REQUEST_NULL)?;
        }
        Ok(code(r))
    });

    // MPI_Wait(request_ptr, status_ptr)
    mpi_fn!(linker, "MPI_Wait", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let req_ptr = args[0].u32();
        let status_ptr = args[1].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let handle = mem.read_i32_at(req_ptr)?;
        let r = wait_one(mem, env, req_ptr, handle, status_ptr);
        Ok(code(r))
    });

    // MPI_Waitall(count, requests_ptr, statuses_ptr). Tolerates
    // MPI_STATUSES_IGNORE; every completed handle is rewritten to
    // MPI_REQUEST_NULL even when a later request fails (the first error
    // code is returned after attempting every request).
    mpi_fn!(linker, "MPI_Waitall", (I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let count = args[0].i32();
        let reqs_ptr = args[1].u32();
        let statuses_ptr = args[2].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let mut first_err: Option<MpiError> = None;
        for i in 0..count.max(0) as u32 {
            let handle = match mem.read_i32_at(reqs_ptr + i * 4) {
                Ok(h) => h,
                Err(_) => {
                    first_err.get_or_insert(MpiError::BadCount {
                        bytes: count as usize * 4,
                        type_size: 4,
                    });
                    continue;
                }
            };
            if let Err(e) = wait_one(mem, env, reqs_ptr + i * 4, handle, status_slot(statuses_ptr, i)) {
                first_err.get_or_insert(e);
            }
        }
        Ok(code(first_err.map_or(Ok(()), Err)))
    });

    // MPI_Waitany(count, requests_ptr, index_ptr, status_ptr)
    mpi_fn!(linker, "MPI_Waitany", (I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let count = args[0].i32().max(0) as u32;
        let reqs_ptr = args[1].u32();
        let index_ptr = args[2].u32();
        let status_ptr = args[3].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let mut spins = 0u32;
        loop {
            let mut any_active = false;
            for i in 0..count {
                match scan_slot(mem, env, reqs_ptr + i * 4)? {
                    None => {}
                    Some(Completion::NotReady) => any_active = true,
                    Some(Completion::Done(st)) => {
                        mem.write_i32_at(index_ptr, i as i32)?;
                        write_status(mem, status_ptr, &st, handles::MPI_SUCCESS)?;
                        return Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)]);
                    }
                    Some(Completion::Error(e)) => {
                        mem.write_i32_at(index_ptr, i as i32)?;
                        let _ = write_status(mem, status_ptr, &Status::empty(), e.code());
                        return Ok(vec![Slot::from_i32(e.code())]);
                    }
                }
            }
            if !any_active {
                mem.write_i32_at(index_ptr, handles::MPI_UNDEFINED)?;
                let _ = write_status(mem, status_ptr, &Status::empty(), handles::MPI_SUCCESS);
                return Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)]);
            }
            env.mpi.progress_all();
            backoff(&mut spins);
        }
    });

    // MPI_Waitsome(incount, requests_ptr, outcount_ptr, indices_ptr,
    //              statuses_ptr)
    mpi_fn!(linker, "MPI_Waitsome", (I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let incount = args[0].i32().max(0) as u32;
        let reqs_ptr = args[1].u32();
        let outcount_ptr = args[2].u32();
        let indices_ptr = args[3].u32();
        let statuses_ptr = args[4].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let mut spins = 0u32;
        loop {
            let mut any_active = false;
            let mut ndone = 0u32;
            let mut first_err: Option<MpiError> = None;
            for i in 0..incount {
                match scan_slot(mem, env, reqs_ptr + i * 4)? {
                    None => {}
                    Some(Completion::NotReady) => any_active = true,
                    Some(Completion::Done(st)) => {
                        mem.write_i32_at(indices_ptr + ndone * 4, i as i32)?;
                        write_status(mem, status_slot(statuses_ptr, ndone), &st, handles::MPI_SUCCESS)?;
                        ndone += 1;
                    }
                    Some(Completion::Error(e)) => {
                        // A failed request is still a completed request:
                        // report its slot with the error latched in its
                        // status word and finish the pass, so one dead
                        // peer cannot hide the live completions behind it
                        // (ULFM-style partial failure).
                        mem.write_i32_at(indices_ptr + ndone * 4, i as i32)?;
                        write_status(
                            mem,
                            status_slot(statuses_ptr, ndone),
                            &Status::empty(),
                            e.code(),
                        )?;
                        ndone += 1;
                        first_err.get_or_insert(e);
                    }
                }
            }
            if ndone > 0 {
                mem.write_i32_at(outcount_ptr, ndone as i32)?;
                return Ok(code(first_err.map_or(Ok(()), Err)));
            }
            if !any_active {
                mem.write_i32_at(outcount_ptr, handles::MPI_UNDEFINED)?;
                return Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)]);
            }
            env.mpi.progress_all();
            backoff(&mut spins);
        }
    });

    // MPI_Test(request_ptr, flag_ptr, status_ptr)
    mpi_fn!(linker, "MPI_Test", (I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let req_ptr = args[0].u32();
        let flag_ptr = args[1].u32();
        let status_ptr = args[2].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let handle = mem.read_i32_at(req_ptr)?;
        if handle <= 0 {
            mem.write_i32_at(flag_ptr, 1)?;
            let _ = write_status(mem, status_ptr, &Status::empty(), handles::MPI_SUCCESS);
            return Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)]);
        }
        let completion = match try_complete(mem, env, req_ptr, handle) {
            Ok(c) => c,
            Err(e) => return Ok(vec![Slot::from_i32(e.code())]),
        };
        match completion {
            Completion::Done(st) => {
                mem.write_i32_at(flag_ptr, 1)?;
                write_status(mem, status_ptr, &st, handles::MPI_SUCCESS)?;
            }
            Completion::NotReady => mem.write_i32_at(flag_ptr, 0)?,
            Completion::Error(e) => {
                // Leave the out-params benign even on failure: guests
                // that forget to check the return code must not act on a
                // stale flag word. The status still carries the error.
                let _ = mem.write_i32_at(flag_ptr, 0);
                let _ = write_status(mem, status_ptr, &Status::empty(), e.code());
                return Ok(vec![Slot::from_i32(e.code())]);
            }
        }
        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
    });

    // MPI_Testall(count, requests_ptr, flag_ptr, statuses_ptr)
    mpi_fn!(linker, "MPI_Testall", (I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let count = args[0].i32().max(0) as u32;
        let reqs_ptr = args[1].u32();
        let flag_ptr = args[2].u32();
        let statuses_ptr = args[3].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        // First pass: progress everything, check completion.
        let mut all_done = true;
        for i in 0..count {
            let handle = mem.read_i32_at(reqs_ptr + i * 4)?;
            if handle <= 0 {
                continue;
            }
            match progress_handle(env, handle) {
                Ok(complete) => all_done &= complete,
                Err(e) => return Ok(vec![Slot::from_i32(e.code())]),
            }
        }
        if !all_done {
            mem.write_i32_at(flag_ptr, 0)?;
            return Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)]);
        }
        // Second pass: retire everything, statuses in request order; the
        // first latched error is reported after all requests are retired.
        let mut first_err: Option<MpiError> = None;
        for i in 0..count {
            let handle = mem.read_i32_at(reqs_ptr + i * 4)?;
            let st_ptr = status_slot(statuses_ptr, i);
            if handle <= 0 {
                let _ = write_status(mem, st_ptr, &Status::empty(), handles::MPI_SUCCESS);
                continue;
            }
            let (persistent, outcome) = match retire_handle(env, handle) {
                Ok(v) => v,
                Err(e) => return Ok(vec![Slot::from_i32(e.code())]),
            };
            if !persistent {
                let _ = env.mpi.remove_request(handle);
                mem.write_i32_at(reqs_ptr + i * 4, handles::MPI_REQUEST_NULL)?;
            }
            match outcome {
                Ok(st) => write_status(mem, st_ptr, &st, handles::MPI_SUCCESS)?,
                Err(e) => {
                    write_status(mem, st_ptr, &Status::empty(), e.code())?;
                    first_err.get_or_insert(e);
                }
            }
        }
        mem.write_i32_at(flag_ptr, 1)?;
        Ok(code(first_err.map_or(Ok(()), Err)))
    });

    // MPI_Testany(count, requests_ptr, index_ptr, flag_ptr, status_ptr)
    mpi_fn!(linker, "MPI_Testany", (I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let count = args[0].i32().max(0) as u32;
        let reqs_ptr = args[1].u32();
        let index_ptr = args[2].u32();
        let flag_ptr = args[3].u32();
        let status_ptr = args[4].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let mut any_active = false;
        for i in 0..count {
            match scan_slot(mem, env, reqs_ptr + i * 4)? {
                None => {}
                Some(Completion::NotReady) => any_active = true,
                Some(Completion::Done(st)) => {
                    mem.write_i32_at(index_ptr, i as i32)?;
                    mem.write_i32_at(flag_ptr, 1)?;
                    write_status(mem, status_ptr, &st, handles::MPI_SUCCESS)?;
                    return Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)]);
                }
                Some(Completion::Error(e)) => {
                    // Benign out-params on failure (see MPI_Test).
                    let _ = mem.write_i32_at(flag_ptr, 0);
                    let _ = mem.write_i32_at(index_ptr, handles::MPI_UNDEFINED);
                    return Ok(vec![Slot::from_i32(e.code())]);
                }
            }
        }
        // Testany with nothing ready: flag=0, index=MPI_UNDEFINED (MPI
        // 3.1 §3.7.5); with nothing active at all, MPI sets flag=1 with
        // the empty status and index MPI_UNDEFINED.
        if any_active {
            mem.write_i32_at(index_ptr, handles::MPI_UNDEFINED)?;
            mem.write_i32_at(flag_ptr, 0)?;
        } else {
            mem.write_i32_at(index_ptr, handles::MPI_UNDEFINED)?;
            mem.write_i32_at(flag_ptr, 1)?;
            let _ = write_status(mem, status_ptr, &Status::empty(), handles::MPI_SUCCESS);
        }
        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
    });

    // MPI_Get_processor_name(name_ptr, resultlen_ptr)
    mpi_fn!(linker, "MPI_Get_processor_name", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let name_ptr = args[0].u32();
        let len_ptr = args[1].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let name = format!("mpiwasm-rank-{}", env.mpi.world().rank());
        mem.slice_mut(name_ptr, name.len() as u32 + 1)?[..name.len()]
            .copy_from_slice(name.as_bytes());
        mem.slice_mut(name_ptr + name.len() as u32, 1)?[0] = 0;
        mem.write_i32_at(len_ptr, name.len() as i32)?;
        Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
    });

    // --- derived datatypes (pack-on-send / unpack-on-recv) --------------
    //
    // Constructors flatten to a segment list at creation time (see
    // crate::translate::DerivedDatatype), so the communication paths only
    // ever walk a flat list. The wire format of a derived-type send is
    // byte-identical to a manually packed send.

    // MPI_Type_contiguous(count, oldtype, newtype_ptr)
    mpi_fn!(linker, "MPI_Type_contiguous", (I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let count = args[0].i32();
        let old_h = args[1].i32();
        let out_ptr = args[2].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let r = (|| {
            if count < 0 {
                return Err(MpiError::BadCount { bytes: count as isize as usize, type_size: 1 });
            }
            let inner = resolve_dtype(env, old_h)?;
            DerivedDatatype::contiguous(count as u32, &inner)
        })();
        match r {
            Ok(dt) => {
                let h = env.mpi.insert_dtype(dt);
                mem.write_i32_at(out_ptr, h)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Type_vector(count, blocklength, stride, oldtype, newtype_ptr).
    // Strides are in oldtype elements; negative and block-overlapping
    // strides are rejected (the symmetric pack/unpack table cannot
    // represent overlap).
    mpi_fn!(linker, "MPI_Type_vector", (I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let count = args[0].i32();
        let blocklen = args[1].i32();
        let stride = args[2].i32();
        let old_h = args[3].i32();
        let out_ptr = args[4].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let r = (|| {
            if count < 0 || blocklen < 0 || stride < 0 {
                return Err(MpiError::BadCount {
                    bytes: count.min(blocklen).min(stride) as isize as usize,
                    type_size: 1,
                });
            }
            let inner = resolve_dtype(env, old_h)?;
            DerivedDatatype::vector(count as u32, blocklen as u32, stride as u32, &inner)
        })();
        match r {
            Ok(dt) => {
                let h = env.mpi.insert_dtype(dt);
                mem.write_i32_at(out_ptr, h)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Type_create_struct(count, blocklengths_ptr, displacements_ptr,
    //                        types_ptr, newtype_ptr). Displacements are
    // byte offsets (MPI_Aint is i32 in the 32-bit guest ABI) and must be
    // non-negative; the guest controls padding through them explicitly.
    mpi_fn!(linker, "MPI_Type_create_struct", (I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let count = args[0].i32();
        let lens_ptr = args[1].u32();
        let displs_ptr = args[2].u32();
        let types_ptr = args[3].u32();
        let out_ptr = args[4].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let r = (|| {
            if count < 0 {
                return Err(MpiError::BadCount { bytes: count as isize as usize, type_size: 1 });
            }
            let mut resolved: Vec<(u32, u32, DerivedDatatype)> =
                Vec::with_capacity(count as usize);
            for i in 0..count as u32 {
                let read = |p: u32| {
                    mem.read_i32_at(p + i * 4).map_err(|_| MpiError::BadCount {
                        bytes: count as usize * 4,
                        type_size: 4,
                    })
                };
                let (blen, displ, th) = (read(lens_ptr)?, read(displs_ptr)?, read(types_ptr)?);
                if blen < 0 || displ < 0 {
                    return Err(MpiError::BadCount {
                        bytes: blen.min(displ) as isize as usize,
                        type_size: 1,
                    });
                }
                resolved.push((blen as u32, displ as u32, resolve_dtype(env, th)?));
            }
            let blocks: Vec<(u32, u32, &DerivedDatatype)> =
                resolved.iter().map(|(c, d, t)| (*c, *d, t)).collect();
            DerivedDatatype::structure(&blocks)
        })();
        match r {
            Ok(dt) => {
                let h = env.mpi.insert_dtype(dt);
                mem.write_i32_at(out_ptr, h)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Type_commit(type_ptr)
    mpi_fn!(linker, "MPI_Type_commit", (I32) -> I32, |inst, args: &[Slot]| {
        let ptr = args[0].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let h = mem.read_i32_at(ptr)?;
        Ok(code(env.mpi.commit_dtype(h)))
    });

    // MPI_Type_free(type_ptr): frees the slot and nulls the guest handle.
    // Packing is eager at each send/receive, so no in-flight operation
    // can reference a freed type.
    mpi_fn!(linker, "MPI_Type_free", (I32) -> I32, |inst, args: &[Slot]| {
        let ptr = args[0].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let h = mem.read_i32_at(ptr)?;
        let r = env.mpi.free_dtype(h);
        if r.is_ok() {
            mem.write_i32_at(ptr, handles::MPI_DATATYPE_NULL)?;
        }
        Ok(code(r))
    });

    // --- send modes -----------------------------------------------------

    // MPI_Ssend(buf, count, datatype, dest, tag, comm): synchronous mode —
    // completion implies the receiver matched the message. Above the
    // rendezvous threshold the standard path already has this property;
    // below it the substrate runs a receipt-acknowledged deferred-eager
    // variant (the payload parks in a rendezvous slot the receiver must
    // consume before the send completes).
    mpi_fn!(linker, "MPI_Ssend", (I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let dest = args[3].i32();
        let tag = args[4].i32();
        let comm_h = args[5].i32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let req = (|| {
            if dt_h >= handles::FIRST_DERIVED_DATATYPE {
                let data = pack_guest(mem, env, buf, count, dt_h)?;
                let comm = env.mpi.comm(comm_h)?;
                return comm.issend_owned(data, dest as u32, tag);
            }
            let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
            let view = mem.slice(buf, bytes).map_err(|_| MpiError::BadCount {
                bytes: bytes as usize,
                type_size: 1,
            })?;
            let (ptr, len) = (view.as_ptr(), view.len());
            let comm = env.mpi.comm(comm_h)?;
            unsafe { comm.issend_raw(ptr, len, dest as u32, tag) }
        })();
        let r = req.and_then(|mut req| wait_local(env, &mut req).map(|_| ()));
        Ok(code(r))
    });

    // MPI_Issend(buf, count, datatype, dest, tag, comm, request_ptr)
    mpi_fn!(linker, "MPI_Issend", (I32, I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let dest = args[3].i32();
        let tag = args[4].i32();
        let comm_h = args[5].i32();
        let req_ptr = args[6].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let req = (|| {
            if dt_h >= handles::FIRST_DERIVED_DATATYPE {
                let data = pack_guest(mem, env, buf, count, dt_h)?;
                let comm = env.mpi.comm(comm_h)?;
                return comm.issend_owned(data, dest as u32, tag);
            }
            let (_dt, bytes) = translate_instrumented(env, count, dt_h)?;
            let view = mem.slice(buf, bytes).map_err(|_| MpiError::BadCount {
                bytes: bytes as usize,
                type_size: 1,
            })?;
            let (ptr, len) = (view.as_ptr(), view.len());
            let comm = env.mpi.comm(comm_h)?;
            unsafe { comm.issend_raw(ptr, len, dest as u32, tag) }
        })();
        finish_request(mem, env, req_ptr, req)
    });

    // MPI_Buffer_attach(buf, size): one attached buffer at a time, as MPI
    // requires. The buffer is pure accounting (see buffered_send).
    mpi_fn!(linker, "MPI_Buffer_attach", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let ptr = args[0].u32();
        let size = args[1].i32();
        let env = env_of(inst.parts().1);
        if size < 0 {
            return Ok(vec![Slot::from_i32(
                MpiError::BadCount { bytes: size as isize as usize, type_size: 1 }.code(),
            )]);
        }
        Ok(code(env.mpi.attach_buffer(ptr, size as u32)))
    });

    // MPI_Buffer_detach(bufptr_ptr, size_ptr): returns the attached
    // buffer's address and size. Outstanding buffered messages live as
    // detached owned-payload requests in the rank's table — they no
    // longer reference the guest buffer, so detach need not block.
    mpi_fn!(linker, "MPI_Buffer_detach", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf_ptr = args[0].u32();
        let size_ptr = args[1].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        match env.mpi.detach_buffer() {
            Ok((ptr, size)) => {
                mem.write_i32_at(buf_ptr, ptr as i32)?;
                mem.write_i32_at(size_ptr, size as i32)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Bsend(buf, count, datatype, dest, tag, comm): buffered mode —
    // completes locally once the payload is copied out of guest memory.
    mpi_fn!(linker, "MPI_Bsend", (I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let dest = args[3].i32();
        let tag = args[4].i32();
        let comm_h = args[5].i32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        Ok(code(buffered_send(mem, env, buf, count, dt_h, dest, tag, comm_h)))
    });

    // MPI_Ibsend(buf, count, datatype, dest, tag, comm, request_ptr):
    // like MPI_Bsend but returns a request. A buffered send is complete
    // the moment it is initiated (the payload is owned), so the request
    // handle is immediately MPI_REQUEST_NULL — waiting on it is a no-op,
    // which is exactly the buffered-mode completion contract.
    mpi_fn!(linker, "MPI_Ibsend", (I32, I32, I32, I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let buf = args[0].u32();
        let count = args[1].i32();
        let dt_h = args[2].i32();
        let dest = args[3].i32();
        let tag = args[4].i32();
        let comm_h = args[5].i32();
        let req_ptr = args[6].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let r = buffered_send(mem, env, buf, count, dt_h, dest, tag, comm_h);
        if r.is_ok() {
            mem.write_i32_at(req_ptr, handles::MPI_REQUEST_NULL)?;
        }
        Ok(code(r))
    });

    // --- communicator groups --------------------------------------------
    //
    // A group handle names an ordered world-rank list in the rank's local
    // group table (handles are local, as in MPI). Set operations are pure
    // list manipulation; only MPI_Comm_create communicates.

    // MPI_Comm_group(comm, group_ptr)
    mpi_fn!(linker, "MPI_Comm_group", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let comm_h = args[0].i32();
        let out_ptr = args[1].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        match env.mpi.comm(comm_h).map(|c| c.group_world_ranks()) {
            Ok(ranks) => {
                let h = env.mpi.insert_group(ranks);
                mem.write_i32_at(out_ptr, h)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Group_size(group, size_ptr)
    mpi_fn!(linker, "MPI_Group_size", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let group_h = args[0].i32();
        let out_ptr = args[1].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        match env.mpi.group(group_h) {
            Ok(g) => {
                let n = g.len() as i32;
                mem.write_i32_at(out_ptr, n)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Group_rank(group, rank_ptr): the calling rank's position in the
    // group, or MPI_UNDEFINED when it is not a member.
    mpi_fn!(linker, "MPI_Group_rank", (I32, I32) -> I32, |inst, args: &[Slot]| {
        let group_h = args[0].i32();
        let out_ptr = args[1].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let me = env.mpi.world().rank();
        match env.mpi.group(group_h) {
            Ok(g) => {
                let rank = g
                    .iter()
                    .position(|&w| w == me)
                    .map_or(handles::MPI_UNDEFINED, |i| i as i32);
                mem.write_i32_at(out_ptr, rank)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Group_incl(group, n, ranks_ptr, newgroup_ptr)
    mpi_fn!(linker, "MPI_Group_incl", (I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let group_h = args[0].i32();
        let n = args[1].i32();
        let ranks_ptr = args[2].u32();
        let out_ptr = args[3].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let r: Result<Vec<u32>, MpiError> = (|| {
            let g = env.mpi.group(group_h)?;
            let mut picked = Vec::with_capacity(n.max(0) as usize);
            for i in 0..n.max(0) as u32 {
                let idx = mem.read_i32_at(ranks_ptr + i * 4).map_err(|_| {
                    MpiError::BadCount { bytes: n as usize * 4, type_size: 4 }
                })?;
                let w = *g.get(idx.max(0) as usize).filter(|_| idx >= 0).ok_or(
                    MpiError::InvalidRank { rank: idx as u32, size: g.len() as u32 },
                )?;
                picked.push(w);
            }
            Ok(picked)
        })();
        match r {
            Ok(picked) => {
                let h = env.mpi.insert_group(picked);
                mem.write_i32_at(out_ptr, h)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Group_excl(group, n, ranks_ptr, newgroup_ptr): the complement,
    // preserving the original order.
    mpi_fn!(linker, "MPI_Group_excl", (I32, I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let group_h = args[0].i32();
        let n = args[1].i32();
        let ranks_ptr = args[2].u32();
        let out_ptr = args[3].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let r = (|| {
            let g = env.mpi.group(group_h)?;
            let mut drop = vec![false; g.len()];
            for i in 0..n.max(0) as u32 {
                let idx = mem.read_i32_at(ranks_ptr + i * 4).map_err(|_| {
                    MpiError::BadCount { bytes: n as usize * 4, type_size: 4 }
                })?;
                if idx < 0 || idx as usize >= g.len() {
                    return Err(MpiError::InvalidRank {
                        rank: idx as u32,
                        size: g.len() as u32,
                    });
                }
                drop[idx as usize] = true;
            }
            Ok(g.iter()
                .enumerate()
                .filter(|(i, _)| !drop[*i])
                .map(|(_, &w)| w)
                .collect::<Vec<u32>>())
        })();
        match r {
            Ok(kept) => {
                let h = env.mpi.insert_group(kept);
                mem.write_i32_at(out_ptr, h)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });

    // MPI_Group_free(group_ptr)
    mpi_fn!(linker, "MPI_Group_free", (I32) -> I32, |inst, args: &[Slot]| {
        let ptr = args[0].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        let h = mem.read_i32_at(ptr)?;
        let r = env.mpi.free_group(h);
        if r.is_ok() {
            mem.write_i32_at(ptr, handles::MPI_GROUP_NULL)?;
        }
        Ok(code(r))
    });

    // MPI_Comm_create(comm, group, newcomm_ptr): collective over comm —
    // every member must pass a group with the same membership (verified
    // by an allgathered hash, like MPI's erroneous-usage check). Members
    // of the group get the new communicator; everyone else gets
    // MPI_COMM_NULL.
    mpi_fn!(linker, "MPI_Comm_create", (I32, I32, I32) -> I32, |inst, args: &[Slot]| {
        let comm_h = args[0].i32();
        let group_h = args[1].i32();
        let out_ptr = args[2].u32();
        let (mem, data) = inst.parts();
        let env = env_of(data);
        env.mpi.charge_wasm_overhead();
        let r = (|| {
            let world_ranks = env.mpi.group(group_h)?.clone();
            let comm = env.mpi.comm(comm_h)?;
            comm.create_from_group(&world_ranks)
        })();
        match r {
            Ok(Some(new_comm)) => {
                let h = env.mpi.insert_comm(new_comm);
                mem.write_i32_at(out_ptr, h)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Ok(None) => {
                mem.write_i32_at(out_ptr, handles::MPI_COMM_NULL)?;
                Ok(vec![Slot::from_i32(handles::MPI_SUCCESS)])
            }
            Err(e) => Ok(vec![Slot::from_i32(e.code())]),
        }
    });
}

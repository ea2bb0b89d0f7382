//! Nonblocking requests: the `MPI_Request` state machines.
//!
//! A [`Request`] is a detached operation bound to a communicator context.
//! Its lifecycle mirrors MPI-2.2:
//!
//! ```text
//!              Isend/Irecv/I<coll>            progress()
//!   (created) ───────────────────► Active ───────────────► Done(Status)
//!                                     ▲                        │
//!                        Start ───────┘          take_status() │
//!                                                              ▼
//!   Send_init/Recv_init ─► Inactive ◄──────(persistent)── Null/Inactive
//! ```
//!
//! * `progress()` drives the operation as far as it can without blocking
//!   (the *progress loop*); completed operations park in `Done` with
//!   their status — failures latch in `Failed` — until `take_result()`
//!   retires them: to `Null` for one-shot requests, back to `Inactive`
//!   for persistent ones (also after failures, so `Start` stays legal).
//!   Because outcomes latch, `progress()` is safe to call on requests the
//!   caller does not own — which is how an embedder can drive a whole
//!   request table while one operation waits.
//! * `test()` = `progress` + conditional `take_result`; `wait()` blocks
//!   (receives park on their posted entry's condvar, sends on the
//!   rendezvous slot, collectives poll with backoff).
//! * The completion set operations ([`Request::wait_all`],
//!   [`Request::wait_any`], [`Request::wait_some`], [`Request::test_all`],
//!   [`Request::test_any`]) progress requests in index order.
//!
//! **Matching model.** Receives match at *posting* time: `Irecv`
//! registers a [`crate::message::RecvEntry`] with the rank's mailbox, and
//! arrivals match posted entries in posting order with full
//! `ANY_SOURCE`/`ANY_TAG` wildcard semantics (see `crate::message` for
//! the queue invariants). Matching transfers only the message into the
//! entry; *delivery* — the payload copy and the virtual-clock charge —
//! happens on the receiving rank when the request is progressed, so
//! testing requests in any order is safe: a newer same-matcher request
//! can never steal an older one's message.
//!
//! Nonblocking collectives (`Ibarrier`/`Ibcast`/`Ireduce`/`Iallreduce`/
//! `Igather`/`Iscatter`/`Iallgather`/`Ialltoall`/`Ialltoallv`) are
//! expressed as schedules of the same eager/rendezvous point-to-point
//! steps, advanced by the shared progress loop; their rounds interleave
//! freely with unrelated traffic (each initiation draws its own tag from
//! the per-communicator sequence space).

use std::marker::PhantomData;
use std::sync::Arc;

use crate::comm::{Source, Status, Tag, COLLECTIVE_TAG_BASE};
use crate::datatype::{check_op, reduce_in_place, reduce_into, Datatype, ReduceOp};
use crate::error::MpiError;
use crate::message::{Message, RecvEntry};
use crate::progress::{CommCtx, SendOp};

/// Base of the nonblocking-collective tag space, below every blocking
/// collective tag. Each initiated nonblocking collective draws a unique
/// tag from here (see [`crate::Comm`]'s per-communicator sequence
/// counter) so the rounds of two outstanding collectives of the same type
/// can never cross-match.
pub(crate) const NBC_TAG_BASE: i32 = COLLECTIVE_TAG_BASE - 64;

/// Per-operation offset within one sequence slot.
pub(crate) const NBC_KIND_BARRIER: i32 = 0;
pub(crate) const NBC_KIND_BCAST: i32 = 1;
pub(crate) const NBC_KIND_ALLREDUCE: i32 = 2;
pub(crate) const NBC_KIND_REDUCE: i32 = 3;
pub(crate) const NBC_KIND_GATHER: i32 = 4;
pub(crate) const NBC_KIND_SCATTER: i32 = 5;
pub(crate) const NBC_KIND_ALLGATHER: i32 = 6;
pub(crate) const NBC_KIND_ALLTOALL: i32 = 7;
pub(crate) const NBC_KIND_ALLTOALLV: i32 = 8;

/// Tag for nonblocking collective number `seq` of kind `kind` on a
/// communicator. MPI requires every rank to issue collectives on a
/// communicator in the same order, so per-rank counters agree. The
/// sequence wraps far before the i32 tag space runs out; a wrap-distance
/// collision would need ~2^20 simultaneously outstanding collectives.
pub(crate) fn nbc_tag(seq: u64, kind: i32) -> i32 {
    NBC_TAG_BASE - ((seq & 0xF_FFFF) as i32 * 16 + kind)
}

/// Outcome of [`Request::test_any`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestAny {
    /// `index`, `status` of a completed request.
    Completed(usize, Status),
    /// Active requests exist but none has completed yet.
    NoneReady,
    /// No active request in the set (`MPI_UNDEFINED`).
    NoneActive,
}

/// A nonblocking operation handle (`MPI_Request`).
///
/// The lifetime ties the request to the buffers it references; the
/// `*_raw` constructors on [`crate::Comm`] produce `Request<'static>` for
/// embedders whose buffers (guest linear memory) outlive the request
/// table.
pub struct Request<'buf> {
    ctx: CommCtx,
    kind: Kind,
    persistent: Option<PersistentOp>,
    /// Flight-recorder id for state-transition events (0 = tracing off).
    trace_id: u64,
    /// Collective schedule rounds observed so far (trace-only).
    coll_rounds: u32,
    _buf: PhantomData<&'buf mut [u8]>,
}

// Safety: the raw buffer pointers inside `kind` are only dereferenced by
// the owning rank's thread (requests never migrate mid-operation; the
// embedder keeps each rank's request table on its own thread).
unsafe impl Send for Request<'_> {}

#[derive(Clone, Copy)]
enum PersistentOp {
    Send { ptr: *const u8, len: usize, dest: u32, tag: i32 },
    Recv { ptr: *mut u8, len: usize, src: Source, tag: Tag },
}

enum Kind {
    /// `MPI_REQUEST_NULL` (or a retired one-shot request).
    Null,
    /// Persistent request between `Start` calls.
    Inactive,
    /// Completed, status not yet retrieved.
    Done(Status),
    /// Failed during progress; the error is latched until retrieved by
    /// `wait`/`test`/a completion set (so errors discovered while another
    /// operation drives the progress loop are not lost, and a failed
    /// persistent request returns to a restartable `Inactive`).
    Failed(MpiError),
    Send { op: SendOp, dest: u32, tag: i32, len: usize },
    /// A posted receive: the entry is registered with the rank's mailbox
    /// (arrival-matched in posted order); `ptr`/`len` is the destination
    /// buffer the owning rank delivers into once the entry is matched.
    Recv { ptr: *mut u8, len: usize, entry: Arc<RecvEntry> },
    Coll(Box<CollState>),
}

impl Status {
    /// The "empty" status MPI returns for null/inactive requests.
    pub fn empty() -> Status {
        Status::msg(u32::MAX, -1, 0)
    }

    /// The status of a successfully cancelled operation: empty fields with
    /// the `MPI_Test_cancelled` flag set.
    pub fn cancelled() -> Status {
        Status { cancelled: true, ..Status::empty() }
    }
}

impl<'buf> Request<'buf> {
    // --- constructors (crate-internal; the public surface is on Comm) ---

    fn build(ctx: CommCtx, kind: Kind, persistent: Option<PersistentOp>) -> Request<'buf> {
        let req = Request {
            trace_id: ctx.world.next_trace_id(),
            ctx,
            kind,
            persistent,
            coll_rounds: 0,
            _buf: PhantomData,
        };
        req.note_state(match req.kind {
            Kind::Inactive => obs::ReqState::Inactive,
            _ => obs::ReqState::Active,
        });
        req
    }

    /// Emit the request's current state-machine position to the flight
    /// recorder (no-op when tracing is off).
    #[inline]
    fn note_state(&self, state: obs::ReqState) {
        if self.trace_id != 0 {
            let req = self.trace_id;
            self.ctx.trace(|| obs::EventKind::ReqTransition { req, state });
        }
    }

    pub(crate) fn send(
        ctx: CommCtx,
        ptr: *const u8,
        len: usize,
        dest: u32,
        tag: i32,
    ) -> Result<Request<'buf>, MpiError> {
        let op = ctx.start_send(ptr, len, dest, tag)?;
        Ok(Self::build(ctx, Kind::Send { op, dest, tag, len }, None))
    }

    /// Synchronous-mode send (`MPI_Issend`): completion of the request
    /// implies the receiver matched the message. Same `Kind::Send` state
    /// machine — only the initiation differs (see
    /// [`CommCtx::start_send_sync`]).
    pub(crate) fn send_sync(
        ctx: CommCtx,
        ptr: *const u8,
        len: usize,
        dest: u32,
        tag: i32,
    ) -> Result<Request<'buf>, MpiError> {
        let op = ctx.start_send_sync(ptr, len, dest, tag)?;
        Ok(Self::build(ctx, Kind::Send { op, dest, tag, len }, None))
    }

    /// Send of a protocol-owned payload (buffered-mode and host-packed
    /// derived-datatype sends): the caller's buffer is already decoupled,
    /// so the request never pins guest memory.
    pub(crate) fn send_owned(
        ctx: CommCtx,
        data: Box<[u8]>,
        dest: u32,
        tag: i32,
    ) -> Result<Request<'buf>, MpiError> {
        let len = data.len();
        let op = ctx.start_send_owned(data, dest, tag, false)?;
        Ok(Self::build(ctx, Kind::Send { op, dest, tag, len }, None))
    }

    /// Synchronous-mode owned-payload send: completion implies the
    /// receiver matched the message (`MPI_Issend` over packed data).
    pub(crate) fn send_owned_sync(
        ctx: CommCtx,
        data: Box<[u8]>,
        dest: u32,
        tag: i32,
    ) -> Result<Request<'buf>, MpiError> {
        let len = data.len();
        let op = ctx.start_send_owned(data, dest, tag, true)?;
        Ok(Self::build(ctx, Kind::Send { op, dest, tag, len }, None))
    }

    pub(crate) fn recv(
        ctx: CommCtx,
        ptr: *mut u8,
        len: usize,
        src: Source,
        tag: Tag,
    ) -> Result<Request<'buf>, MpiError> {
        if let Source::Rank(r) = src {
            ctx.check_rank(r)?;
        }
        let entry = ctx.post_recv(src, tag);
        Ok(Self::build(ctx, Kind::Recv { ptr, len, entry }, None))
    }

    pub(crate) fn send_init(
        ctx: CommCtx,
        ptr: *const u8,
        len: usize,
        dest: u32,
        tag: i32,
    ) -> Result<Request<'buf>, MpiError> {
        ctx.check_rank(dest)?;
        Ok(Self::build(
            ctx,
            Kind::Inactive,
            Some(PersistentOp::Send { ptr, len, dest, tag }),
        ))
    }

    pub(crate) fn recv_init(
        ctx: CommCtx,
        ptr: *mut u8,
        len: usize,
        src: Source,
        tag: Tag,
    ) -> Result<Request<'buf>, MpiError> {
        if let Source::Rank(r) = src {
            ctx.check_rank(r)?;
        }
        Ok(Self::build(
            ctx,
            Kind::Inactive,
            Some(PersistentOp::Recv { ptr, len, src, tag }),
        ))
    }

    pub(crate) fn coll(ctx: CommCtx, state: CollState) -> Request<'buf> {
        let req = Self::build(ctx, Kind::Coll(Box::new(state)), None);
        if req.trace_id != 0 {
            if let Kind::Coll(state) = &req.kind {
                let (kind, algo, id) = (state.obs_kind(), state.algo(), req.trace_id);
                req.ctx.trace(|| obs::EventKind::CollBegin { kind, algo, id });
            }
        }
        req
    }

    /// A receive whose message was already extracted by a matched probe
    /// (`MPI_Imrecv`): the entry is born matched, so the first progress
    /// step delivers. Dropping the request undelivered requeues the
    /// message (the usual matched-receive cancellation path).
    pub(crate) fn recv_matched(
        ctx: CommCtx,
        ptr: *mut u8,
        len: usize,
        msg: Message,
    ) -> Request<'buf> {
        let entry = RecvEntry::prematched(msg);
        Self::build(ctx, Kind::Recv { ptr, len, entry }, None)
    }

    // --- introspection --------------------------------------------------

    /// True for `MPI_REQUEST_NULL` / retired requests.
    pub fn is_null(&self) -> bool {
        matches!(self.kind, Kind::Null)
    }

    /// True for persistent requests (created by `send_init`/`recv_init`).
    pub fn is_persistent(&self) -> bool {
        self.persistent.is_some()
    }

    /// True when the operation has finished (or there is nothing to wait
    /// for): `Done`, `Failed`, `Null`, or an inactive persistent request.
    pub fn is_complete(&self) -> bool {
        matches!(self.kind, Kind::Done(_) | Kind::Failed(_) | Kind::Null | Kind::Inactive)
    }

    /// An operation is still running.
    fn is_pending(&self) -> bool {
        matches!(self.kind, Kind::Send { .. } | Kind::Recv { .. } | Kind::Coll(_))
    }

    /// The request participates in `*any`/`*some` completion-set
    /// operations: pending, or completed (or failed) with an unretrieved
    /// outcome. Null and inactive persistent requests do not participate
    /// (MPI's `MPI_UNDEFINED` cases).
    pub fn participates(&self) -> bool {
        self.is_pending() || matches!(self.kind, Kind::Done(_) | Kind::Failed(_))
    }

    /// Completed with an unretrieved outcome (success or failure).
    fn is_retirable(&self) -> bool {
        matches!(self.kind, Kind::Done(_) | Kind::Failed(_))
    }

    /// True when dropping this request without completing it is harmless
    /// to peers: receives leave their (unmatched) message queued for
    /// other receives, and finished/null/inactive requests hold nothing.
    /// Active sends and collectives must run to completion first or the
    /// peer would lose data (`MPI_Request_free` semantics).
    pub fn safe_to_detach(&self) -> bool {
        !matches!(self.kind, Kind::Send { .. } | Kind::Coll(_))
    }

    /// True when the operation finishes without any further action from
    /// this rank: an initiated send's payload is drained by the
    /// *receiver* (eager from the mailbox, rendezvous straight from the
    /// pinned buffer), so the request only needs to stay alive — parked,
    /// not driven — until the peer gets to it.
    pub fn completes_passively(&self) -> bool {
        matches!(self.kind, Kind::Send { .. })
    }

    /// True when this request requires active driving from the owning
    /// rank's progress loop: pending receives and collectives. Sends
    /// complete passively and retired/inactive requests hold nothing, so
    /// a rank whose table contains none of these can park on a condvar
    /// instead of polling.
    pub fn needs_progress(&self) -> bool {
        matches!(self.kind, Kind::Recv { .. } | Kind::Coll(_))
    }

    // --- lifecycle ------------------------------------------------------

    /// Activate a persistent request (`MPI_Start`). Errors on non-persistent
    /// or still-active requests.
    pub fn start(&mut self) -> Result<(), MpiError> {
        let Some(op) = self.persistent else {
            return Err(MpiError::CollectiveMismatch(
                "MPI_Start on a non-persistent request".into(),
            ));
        };
        if self.participates() {
            return Err(MpiError::CollectiveMismatch(
                "MPI_Start on an active request".into(),
            ));
        }
        self.ctx.charge_call();
        self.kind = match op {
            PersistentOp::Send { ptr, len, dest, tag } => {
                let op = self.ctx.start_send(ptr, len, dest, tag)?;
                Kind::Send { op, dest, tag, len }
            }
            PersistentOp::Recv { ptr, len, src, tag } => {
                let entry = self.ctx.post_recv(src, tag);
                Kind::Recv { ptr, len, entry }
            }
        };
        self.note_state(obs::ReqState::Active);
        Ok(())
    }

    /// `MPI_Startall`.
    pub fn start_all(reqs: &mut [Request<'_>]) -> Result<(), MpiError> {
        for r in reqs {
            r.start()?;
        }
        Ok(())
    }

    /// `MPI_Cancel`: mark the operation for cancellation. Cancellation is
    /// a *race against matching*, decided under the destination mailbox
    /// lock:
    ///
    /// * a pending **send** whose message is still queued unmatched (a
    ///   credit-deferred eager send or an unanswered rendezvous RTS) is
    ///   retracted — the message is removed before any receive can see it
    ///   (counted by `ProtocolStats::cancelled_sends`/`retracted_rts`);
    ///   an eager send that already buffered at the destination, or a
    ///   send whose RTS already matched, completes normally;
    /// * a posted **receive** that no arrival has matched is unposted;
    ///   a matched one delivers normally;
    /// * null, inactive, completed, and collective requests are left
    ///   untouched (MPI forbids cancelling collectives).
    ///
    /// Either way the request must still be completed by
    /// `wait`/`test`/a completion set, whose `Status` reports the outcome
    /// through [`Status::cancelled`] (`MPI_Test_cancelled`).
    pub fn cancel(&mut self) {
        let cancelled = match &mut self.kind {
            Kind::Send { op, dest, .. } => {
                let dest = *dest;
                op.try_cancel(&self.ctx, dest)
            }
            Kind::Recv { entry, .. } => {
                let mailbox = self.ctx.world.mailbox(self.ctx.my_world());
                mailbox.try_unpost(entry)
            }
            _ => false,
        };
        if cancelled {
            self.kind = Kind::Done(Status::cancelled());
            self.note_state(obs::ReqState::Cancelled);
        }
    }

    /// Drive the operation as far as possible without blocking. Completed
    /// operations transition to `Done`; failures latch in `Failed` (after
    /// cancelling any in-flight rendezvous so no dangling buffer pointer
    /// survives). Both park until retrieved by [`Request::take_result`] /
    /// `wait` / `test` / a completion set — so this is safe to call on
    /// requests someone else owns (the whole-table progress loop).
    pub fn progress(&mut self) {
        // Tracing: remember the collective's schedule position so a poll
        // that advances it (or finishes it) can be logged as a round/end
        // event after the mutable borrow ends.
        let coll_before = match (&self.kind, self.trace_id) {
            (Kind::Coll(state), id) if id != 0 => Some((state.obs_kind(), state.round_key())),
            _ => None,
        };
        let outcome: Result<Option<Status>, MpiError> = match &mut self.kind {
            Kind::Null | Kind::Inactive | Kind::Done(_) | Kind::Failed(_) => return,
            Kind::Send { op, dest, tag, len } => op.poll(&self.ctx).map(|done| {
                done.then(|| Status::msg(*dest, *tag, *len))
            }),
            Kind::Recv { ptr, len, entry } => {
                match entry.poll() {
                    Ok(Some(msg)) => {
                        let dst = unsafe { std::slice::from_raw_parts_mut(*ptr, *len) };
                        self.ctx.deliver(msg, Some(dst)).map(|(st, _)| Some(st))
                    }
                    Ok(None) => Ok(None),
                    Err(e) => Err(e),
                }
            }
            Kind::Coll(state) => state.poll(&self.ctx),
        };
        match outcome {
            Ok(Some(st)) => {
                self.kind = Kind::Done(st);
                if let Some((kind, _)) = coll_before {
                    let id = self.trace_id;
                    self.ctx.trace(|| obs::EventKind::CollEnd { kind, id });
                }
                self.note_state(obs::ReqState::Done);
            }
            Ok(None) => {
                if let (Some((kind, key0)), Kind::Coll(state)) = (coll_before, &self.kind) {
                    if state.round_key() != key0 {
                        self.coll_rounds += 1;
                        let (round, id) = (self.coll_rounds, self.trace_id);
                        self.ctx.trace(|| obs::EventKind::CollRound { kind, round, id });
                    }
                }
            }
            Err(e) => {
                self.kind.cancel_in_flight(&self.ctx);
                self.kind = Kind::Failed(e);
                self.note_state(obs::ReqState::Failed);
            }
        }
    }

    /// Retire a completed request: returns its status — or the latched
    /// error — and resets the request to `Null` (one-shot) or `Inactive`
    /// (persistent, which stays restartable even after a failure). Null
    /// and inactive requests yield the empty status.
    ///
    /// # Panics
    /// On a still-pending request; check [`Request::is_complete`] first.
    pub fn take_result(&mut self) -> Result<Status, MpiError> {
        let retired = if self.persistent.is_some() { Kind::Inactive } else { Kind::Null };
        let retired_state = if self.persistent.is_some() {
            obs::ReqState::Inactive
        } else {
            obs::ReqState::Null
        };
        match std::mem::replace(&mut self.kind, retired) {
            Kind::Done(st) => {
                self.note_state(retired_state);
                Ok(st)
            }
            Kind::Failed(e) => {
                self.note_state(retired_state);
                Err(e)
            }
            Kind::Inactive => {
                self.kind = Kind::Inactive;
                Ok(Status::empty())
            }
            Kind::Null => {
                self.kind = Kind::Null;
                Ok(Status::empty())
            }
            active => {
                self.kind = active;
                panic!("take_result on an incomplete request");
            }
        }
    }

    fn latch_error(&mut self, e: MpiError) {
        // Discarding the operation state must not leave queued rendezvous
        // RTS messages pointing into buffers we are about to free.
        self.kind.cancel_in_flight(&self.ctx);
        self.kind = Kind::Failed(e);
        self.note_state(obs::ReqState::Failed);
    }

    /// `MPI_Test`: progress, and if complete return the status (retiring
    /// the request; a latched failure surfaces as the `Err`).
    pub fn test(&mut self) -> Result<Option<Status>, MpiError> {
        self.progress();
        if self.is_complete() {
            self.take_result().map(Some)
        } else {
            Ok(None)
        }
    }

    /// `MPI_Wait`: block until complete, return the status.
    pub fn wait(&mut self) -> Result<Status, MpiError> {
        // Receives park on their posted entry's condvar instead of
        // polling: the matching arrival wakes them directly.
        let recv_parts = match &self.kind {
            Kind::Recv { ptr, len, entry } => Some((*ptr, *len, Arc::clone(entry))),
            _ => None,
        };
        if let Some((ptr, len, entry)) = recv_parts {
            match entry.wait() {
                Ok(msg) => {
                    let dst = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
                    let delivered = self.ctx.deliver(msg, Some(dst));
                    match delivered {
                        Ok((st, _)) => {
                            self.kind = Kind::Done(st);
                            self.note_state(obs::ReqState::Done);
                        }
                        Err(e) => self.latch_error(e),
                    }
                }
                Err(e) => self.latch_error(e),
            }
            return self.take_result();
        }
        // Sends park on the rendezvous slot.
        let send_outcome = match &mut self.kind {
            Kind::Send { op, dest, tag, len } => {
                Some((op.wait(&self.ctx), Status::msg(*dest, *tag, *len)))
            }
            _ => None,
        };
        if let Some((result, st)) = send_outcome {
            match result {
                Ok(()) => {
                    self.kind = Kind::Done(st);
                    self.note_state(obs::ReqState::Done);
                }
                Err(e) => self.latch_error(e),
            }
            return self.take_result();
        }
        // Collectives (and null/inactive/done/failed): poll with backoff.
        let mut spins = 0u32;
        loop {
            self.progress();
            if self.is_complete() {
                return self.take_result();
            }
            backoff(&mut spins);
        }
    }

    // --- completion sets ------------------------------------------------

    /// `MPI_Waitall`: wait for every request; statuses in request order.
    /// On failure the first error is returned after every request has
    /// been driven to completion and retired.
    pub fn wait_all(reqs: &mut [Request<'_>]) -> Result<Vec<Status>, MpiError> {
        // Progress in index order until all complete, then retire. Driving
        // them jointly (rather than waiting one by one) lets later
        // requests run their protocols while earlier ones are stuck.
        let mut spins = 0u32;
        loop {
            let mut all = true;
            for r in reqs.iter_mut() {
                r.progress();
                all &= r.is_complete();
            }
            if all {
                let mut statuses = Vec::with_capacity(reqs.len());
                let mut first_err = None;
                for r in reqs.iter_mut() {
                    match r.take_result() {
                        Ok(st) => statuses.push(st),
                        Err(e) => {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                        }
                    }
                }
                return match first_err {
                    None => Ok(statuses),
                    Some(e) => Err(e),
                };
            }
            backoff(&mut spins);
        }
    }

    /// `MPI_Waitany`: block until one active request completes; `None`
    /// when the set has no active request (`MPI_UNDEFINED`).
    pub fn wait_any(reqs: &mut [Request<'_>]) -> Result<Option<(usize, Status)>, MpiError> {
        let mut spins = 0u32;
        loop {
            match Self::test_any(reqs)? {
                TestAny::Completed(i, st) => return Ok(Some((i, st))),
                TestAny::NoneActive => return Ok(None),
                TestAny::NoneReady => backoff(&mut spins),
            }
        }
    }

    /// `MPI_Waitsome`: block until at least one active request completes;
    /// returns every request completed in that pass. Empty result means no
    /// active request existed (`MPI_UNDEFINED`).
    pub fn wait_some(reqs: &mut [Request<'_>]) -> Result<Vec<(usize, Status)>, MpiError> {
        if !reqs.iter().any(|r| r.participates()) {
            return Ok(Vec::new());
        }
        let mut spins = 0u32;
        loop {
            let mut done = Vec::new();
            let mut failed: Option<usize> = None;
            for (i, r) in reqs.iter_mut().enumerate() {
                if !r.participates() {
                    continue;
                }
                r.progress();
                match &r.kind {
                    Kind::Done(_) => {
                        done.push((i, r.take_result().expect("done retires cleanly")));
                    }
                    // Leave failures latched: successful completions from
                    // this pass must be reported first, never discarded.
                    Kind::Failed(_) => failed = failed.or(Some(i)),
                    _ => {}
                }
            }
            if !done.is_empty() {
                return Ok(done);
            }
            if let Some(i) = failed {
                return Err(reqs[i].take_result().expect_err("failed retires to error"));
            }
            backoff(&mut spins);
        }
    }

    /// `MPI_Testall`: `Some(statuses)` iff every request is complete
    /// (retiring them all); `None` otherwise (none retired). On failure
    /// the first error is returned, with every request retired.
    pub fn test_all(reqs: &mut [Request<'_>]) -> Result<Option<Vec<Status>>, MpiError> {
        let mut all = true;
        for r in reqs.iter_mut() {
            r.progress();
            all &= r.is_complete();
        }
        if !all {
            return Ok(None);
        }
        let mut statuses = Vec::with_capacity(reqs.len());
        let mut first_err = None;
        for r in reqs.iter_mut() {
            match r.take_result() {
                Ok(st) => statuses.push(st),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            None => Ok(Some(statuses)),
            Some(e) => Err(e),
        }
    }

    /// `MPI_Testany`: progress in index order, retiring and returning the
    /// first request found complete.
    pub fn test_any(reqs: &mut [Request<'_>]) -> Result<TestAny, MpiError> {
        let mut any_active = false;
        for (i, r) in reqs.iter_mut().enumerate() {
            if !r.participates() {
                continue;
            }
            any_active = true;
            r.progress();
            if r.is_retirable() {
                return Ok(TestAny::Completed(i, r.take_result()?));
            }
        }
        Ok(if any_active { TestAny::NoneReady } else { TestAny::NoneActive })
    }
}

impl Kind {
    /// Cancel (or ride out) any protocol state still referencing buffers
    /// owned by this request — called before the state is dropped so no
    /// dangling RTS pointer survives in a destination mailbox and no dead
    /// posted entry keeps claiming arrivals. A receive's already-matched
    /// message is requeued at its arrival position for other receives.
    fn cancel_in_flight(&mut self, ctx: &CommCtx) {
        match self {
            Kind::Send { op, .. } => op.cancel(ctx),
            Kind::Coll(state) => state.cancel(ctx),
            Kind::Recv { entry, .. } => ctx.cancel_recv(entry),
            _ => {}
        }
    }
}

impl Drop for Request<'_> {
    fn drop(&mut self) {
        // A dropped in-flight operation must not leave a dangling buffer
        // pointer in a destination mailbox (user buffers for sends and
        // collectives, state-owned scratch for the reductions).
        self.kind.cancel_in_flight(&self.ctx);
    }
}

/// Escalating wait-loop backoff: spin, then yield, then sleep — shared by
/// every polling wait in the substrate and by embedder-level completion
/// loops, so parked ranks don't burn a core while their peers compute.
/// Callers keep a counter starting at 0 and pass it on every idle pass.
pub fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else if *spins < 256 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(20));
    }
}

// --- nonblocking collective state machines ------------------------------

/// One in-progress nonblocking collective.
pub(crate) enum CollState {
    Barrier(IbarrierState),
    Bcast(IbcastState),
    Allreduce(IallreduceState),
    Reduce(IreduceState),
    Gather(IgatherState),
    Scatter(IscatterState),
    Allgather(IallgatherState),
    Alltoall(IalltoallState),
    Alltoallv(IalltoallvState),
}

impl CollState {
    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        // ULFM: any failed member fails the whole collective at every
        // poll step. Schedules only touch O(log p) partners, so without
        // this a survivor can park waiting on a live partner that already
        // aborted its own schedule against the dead rank.
        if let Some(err) = ctx.member_failure() {
            return Err(err);
        }
        match self {
            CollState::Barrier(s) => s.poll(ctx),
            CollState::Bcast(s) => s.poll(ctx),
            CollState::Allreduce(s) => s.poll(ctx),
            CollState::Reduce(s) => s.poll(ctx),
            CollState::Gather(s) => s.poll(ctx),
            CollState::Scatter(s) => s.poll(ctx),
            CollState::Allgather(s) => s.poll(ctx),
            CollState::Alltoall(s) => s.poll(ctx),
            CollState::Alltoallv(s) => s.poll(ctx),
        }
    }

    /// The trace vocabulary for this collective.
    fn obs_kind(&self) -> obs::CollKind {
        match self {
            CollState::Barrier(_) => obs::CollKind::Barrier,
            CollState::Bcast(_) => obs::CollKind::Bcast,
            CollState::Allreduce(_) => obs::CollKind::Allreduce,
            CollState::Reduce(_) => obs::CollKind::Reduce,
            CollState::Gather(_) => obs::CollKind::Gather,
            CollState::Scatter(_) => obs::CollKind::Scatter,
            CollState::Allgather(_) => obs::CollKind::Allgather,
            CollState::Alltoall(_) => obs::CollKind::Alltoall,
            CollState::Alltoallv(_) => obs::CollKind::Alltoallv,
        }
    }

    /// The schedule each state machine implements (the algorithm tag the
    /// exported trace carries on every collective span).
    fn algo(&self) -> obs::Algorithm {
        match self {
            CollState::Barrier(_) => obs::Algorithm::Dissemination,
            CollState::Bcast(_) | CollState::Reduce(_) => obs::Algorithm::Binomial,
            CollState::Allreduce(_) => obs::Algorithm::RecursiveDoubling,
            CollState::Gather(_) | CollState::Scatter(_) => obs::Algorithm::LinearRoot,
            CollState::Allgather(_) => obs::Algorithm::Ring,
            CollState::Alltoall(_) | CollState::Alltoallv(_) => obs::Algorithm::Pairwise,
        }
    }

    /// A value that changes exactly when the schedule advances a round —
    /// derived from each machine's existing position fields so progress
    /// polls can detect (and trace) round boundaries without the machines
    /// having to emit anything themselves.
    fn round_key(&self) -> u64 {
        match self {
            CollState::Barrier(s) => s.k as u64,
            CollState::Bcast(s) => (s.mask as u64) << 1 | s.receiving as u64,
            CollState::Allreduce(s) => (s.phase as u64) << 32 | s.mask as u64,
            CollState::Reduce(s) => s.mask as u64,
            CollState::Gather(s) => s.remaining as u64,
            CollState::Scatter(s) => s.started as u64,
            CollState::Allgather(s) => s.step as u64,
            CollState::Alltoall(s) => (s.started as u64) << 32 | s.remaining as u64,
            CollState::Alltoallv(s) => (s.started as u64) << 32 | s.remaining as u64,
        }
    }

    fn cancel(&mut self, ctx: &CommCtx) {
        match self {
            CollState::Barrier(s) => s.send.cancel(ctx),
            CollState::Bcast(s) => s.send.cancel(ctx),
            CollState::Allreduce(s) => s.send.cancel(ctx),
            CollState::Reduce(s) => s.send.cancel(ctx),
            CollState::Gather(s) => s.send.cancel(ctx),
            CollState::Scatter(s) => cancel_sends(ctx, &mut s.sends),
            CollState::Allgather(s) => s.send.cancel(ctx),
            CollState::Alltoall(s) => cancel_sends(ctx, &mut s.sends),
            CollState::Alltoallv(s) => cancel_sends(ctx, &mut s.sends),
        }
    }
}

/// Deliver a matched collective block into `dst`, requiring an exact
/// size. A block of another size is still consumed (completing any
/// rendezvous handshake so the sender proceeds) and the mismatch is
/// reported, as the blocking schedules do.
fn deliver_block(
    ctx: &CommCtx,
    msg: crate::message::Message,
    dst: &mut [u8],
    coll: &str,
) -> Result<(), MpiError> {
    let src = msg.src_in_comm;
    let delivered = ctx.deliver_with(msg, |block| {
        if block.len() != dst.len() {
            return Err(MpiError::CollectiveMismatch(format!(
                "{coll} block from rank {src} is {} bytes, expected {}",
                block.len(),
                dst.len()
            )));
        }
        dst.copy_from_slice(&block);
        Ok(())
    })?;
    delivered.1
}

/// Poll one tagged block from communicator rank `src` into `buf`,
/// requiring an exact size (see [`deliver_block`]).
fn poll_exact(
    ctx: &CommCtx,
    src: u32,
    tag: i32,
    buf: &mut [u8],
    coll: &str,
) -> Result<bool, MpiError> {
    match ctx.try_take(Source::Rank(src), Tag::Value(tag))? {
        Some(msg) => {
            deliver_block(ctx, msg, buf, coll)?;
            Ok(true)
        }
        None => Ok(false),
    }
}

/// Drive a fan-out of already-initiated sends one poll step.
fn poll_sends(ctx: &CommCtx, ops: &mut [SendOp]) -> Result<bool, MpiError> {
    let mut all = true;
    for op in ops.iter_mut() {
        all &= op.poll(ctx)?;
    }
    Ok(all)
}

fn cancel_sends(ctx: &CommCtx, ops: &mut Vec<SendOp>) {
    for op in ops.iter_mut() {
        op.cancel(ctx);
    }
    ops.clear();
}

/// A point-to-point sub-step of a collective schedule: a send that may be
/// in flight plus a receive that may not have arrived yet.
struct StepSend(Option<SendOp>);

impl StepSend {
    fn new() -> StepSend {
        StepSend(None)
    }

    /// Ensure the send is started, then poll it.
    fn drive(
        &mut self,
        ctx: &CommCtx,
        ptr: *const u8,
        len: usize,
        dest: u32,
        tag: i32,
    ) -> Result<bool, MpiError> {
        if self.0.is_none() {
            self.0 = Some(ctx.start_send(ptr, len, dest, tag)?);
        }
        self.0.as_mut().unwrap().poll(ctx)
    }

    fn reset(&mut self) {
        self.0 = None;
    }

    fn cancel(&mut self, ctx: &CommCtx) {
        if let Some(op) = &mut self.0 {
            op.cancel(ctx);
        }
        self.0 = None;
    }
}

/// `MPI_Ibarrier`: dissemination, ⌈log₂ p⌉ rounds driven incrementally.
pub(crate) struct IbarrierState {
    tag: i32,
    k: u32,
    token_out: Box<[u8; 1]>,
    token_in: Box<[u8; 1]>,
    send: StepSend,
    sent: bool,
    received: bool,
}

impl IbarrierState {
    pub fn new(tag: i32) -> IbarrierState {
        IbarrierState {
            tag,
            k: 1,
            token_out: Box::new([1]),
            token_in: Box::new([0]),
            send: StepSend::new(),
            sent: false,
            received: false,
        }
    }

    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        let p = ctx.size();
        let me = ctx.rank;
        loop {
            if p == 1 || self.k >= p {
                return Ok(Some(Status::msg(me, 0, 0)));
            }
            let to = (me + self.k) % p;
            let from = (me + p - self.k) % p;
            if !self.sent {
                self.sent = self.send.drive(
                    ctx,
                    self.token_out.as_ptr(),
                    1,
                    to,
                    self.tag,
                )?;
            }
            if !self.received {
                match ctx.try_take(Source::Rank(from), Tag::Value(self.tag))? {
                    Some(msg) => {
                        ctx.deliver(msg, Some(&mut self.token_in[..]))?;
                        self.received = true;
                    }
                    None => return Ok(None),
                }
            }
            if self.sent && self.received {
                self.k <<= 1;
                self.send.reset();
                self.sent = false;
                self.received = false;
            } else {
                return Ok(None);
            }
        }
    }
}

/// `MPI_Ibcast`: the binomial tree of [`crate::Comm::bcast`] as a state
/// machine. Non-roots first await the block from their parent (written
/// straight into the user buffer — rendezvous payloads land zero-copy),
/// then relay it to their subtree.
pub(crate) struct IbcastState {
    buf: *mut u8,
    len: usize,
    root: u32,
    tag: i32,
    /// Current tree mask: the receive mask while `receiving`, then the
    /// send mask walking down.
    mask: u32,
    receiving: bool,
    send: StepSend,
}

impl IbcastState {
    pub fn new(
        ctx: &CommCtx,
        buf: *mut u8,
        len: usize,
        root: u32,
        tag: i32,
    ) -> Result<IbcastState, MpiError> {
        ctx.check_rank(root)?;
        let p = ctx.size();
        let vr = (ctx.rank + p - root) % p;
        let (mask, receiving) = if p == 1 {
            (0, false)
        } else if vr == 0 {
            // Root: highest tree level, send-only.
            let mut m = 1u32;
            while m < p {
                m <<= 1;
            }
            (m >> 1, false)
        } else {
            // Parent hangs off our lowest set bit.
            (vr & vr.wrapping_neg(), true)
        };
        Ok(IbcastState { buf, len, root, tag, mask, receiving, send: StepSend::new() })
    }

    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        let p = ctx.size();
        let vr = (ctx.rank + p - self.root) % p;
        if self.receiving {
            let src = (vr - self.mask + self.root) % p;
            let dst = unsafe { std::slice::from_raw_parts_mut(self.buf, self.len) };
            if !poll_exact(ctx, src, self.tag, dst, "ibcast")? {
                return Ok(None);
            }
            self.receiving = false;
            self.mask >>= 1;
        }
        while self.mask > 0 {
            if vr + self.mask < p {
                let dst = (vr + self.mask + self.root) % p;
                if !self.send.drive(ctx, self.buf, self.len, dst, self.tag)? {
                    return Ok(None);
                }
                self.send.reset();
            }
            self.mask >>= 1;
        }
        Ok(Some(Status::msg(ctx.rank, 0, self.len)))
    }
}

/// Hand `f` one tagged block from communicator rank `src`, if it arrived,
/// in place (see [`CommCtx::deliver_with`]). A block `f` rejects is still
/// consumed, so the sender's handshake completes.
fn poll_fold(
    ctx: &CommCtx,
    src: u32,
    tag: i32,
    f: impl FnOnce(&[u8]) -> Result<(), MpiError>,
) -> Result<bool, MpiError> {
    match ctx.try_take(Source::Rank(src), Tag::Value(tag))? {
        Some(msg) => {
            ctx.deliver_with(msg, |theirs| f(&theirs))?.1?;
            Ok(true)
        }
        None => Ok(false),
    }
}

/// `MPI_Iallreduce`: recursive doubling with the non-power-of-two fold of
/// [`crate::Comm::allreduce`], advanced round by round. A step sends the
/// accumulator (at first the send buffer itself) and reduces the partner's
/// payload with it, at delivery, into the *other* of `out` and `scratch`:
/// the partner may still be reading the accumulator, but not the target,
/// whose send completed before the previous step ended.
pub(crate) struct IallreduceState {
    out: *mut u8,
    len: usize,
    dt: Datatype,
    op: ReduceOp,
    tag: i32,
    /// Current accumulator: the send buffer, then `out` or `scratch`.
    acc: *const u8,
    /// Reductions this rank still has to do; an odd count writes `out`.
    writes_left: u32,
    /// Empty unless this rank reduces twice or more.
    scratch: Vec<u8>,
    p2: u32,
    rem: u32,
    new_rank: i64,
    mask: u32,
    phase: ArPhase,
    send: StepSend,
    sent: bool,
    received: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArPhase {
    FoldSend,
    FoldRecv,
    Round,
    UnfoldSend,
    UnfoldRecv,
    Finish,
}

impl IallreduceState {
    pub fn new(
        ctx: &CommCtx,
        send_buf: &[u8],
        out: *mut u8,
        out_len: usize,
        dt: Datatype,
        op: ReduceOp,
        tag: i32,
    ) -> Result<IallreduceState, MpiError> {
        check_op(dt, op)?;
        let len = send_buf.len();
        if out_len != len {
            return Err(MpiError::CollectiveMismatch(format!(
                "iallreduce buffers differ: send {len}, recv {out_len}"
            )));
        }
        let p = ctx.size();
        let me = ctx.rank;
        let (p2, rem) = if p == 1 {
            (1, 0)
        } else {
            let p2 = 1u32 << (31 - p.leading_zeros());
            (p2, p - p2)
        };
        let rounds = p2.trailing_zeros();
        let (phase, new_rank, writes_left) = if p == 1 {
            // Nothing to reduce: the result is the contribution.
            unsafe { std::slice::from_raw_parts_mut(out, len) }.copy_from_slice(send_buf);
            (ArPhase::Finish, 0, 0)
        } else if me < 2 * rem {
            if me % 2 == 0 {
                (ArPhase::FoldSend, -1, 0)
            } else {
                (ArPhase::FoldRecv, (me / 2) as i64, rounds + 1)
            }
        } else {
            (ArPhase::Round, (me - rem) as i64, rounds)
        };
        Ok(IallreduceState {
            out,
            len,
            dt,
            op,
            tag,
            acc: send_buf.as_ptr(),
            writes_left,
            scratch: if writes_left >= 2 { vec![0u8; len] } else { Vec::new() },
            p2,
            rem,
            new_rank,
            mask: 1,
            phase,
            send: StepSend::new(),
            sent: false,
            received: false,
        })
    }

    /// Reduce `src`'s block, if it arrived, with the accumulator into the
    /// other buffer, which becomes the accumulator.
    fn recv_reduce(&mut self, ctx: &CommCtx, src: u32) -> Result<bool, MpiError> {
        let target =
            if self.writes_left % 2 == 1 { self.out } else { self.scratch.as_mut_ptr() };
        // SAFETY: `target` (`len` bytes of `out` or `scratch`) is not the
        // accumulator, and no peer reads it: see the struct docs.
        let (dst, mine) = unsafe {
            (
                std::slice::from_raw_parts_mut(target, self.len),
                std::slice::from_raw_parts(self.acc, self.len),
            )
        };
        let got = poll_fold(ctx, src, self.tag, |theirs| {
            reduce_into(self.dt, self.op, dst, mine, theirs)
        })?;
        if got {
            self.acc = target;
            self.writes_left -= 1;
        }
        Ok(got)
    }

    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        let me = ctx.rank;
        loop {
            match self.phase {
                ArPhase::FoldSend => {
                    if !self.send.drive(ctx, self.acc, self.len, me + 1, self.tag)? {
                        return Ok(None);
                    }
                    self.send.reset();
                    self.phase = ArPhase::UnfoldRecv;
                }
                ArPhase::FoldRecv => {
                    if !self.recv_reduce(ctx, me - 1)? {
                        return Ok(None);
                    }
                    self.phase = ArPhase::Round;
                }
                ArPhase::Round => {
                    if self.mask >= self.p2 {
                        self.phase = if me < 2 * self.rem {
                            // Odd folded ranks return the result.
                            ArPhase::UnfoldSend
                        } else {
                            ArPhase::Finish
                        };
                        continue;
                    }
                    let nr = self.new_rank as u32;
                    let partner_nr = nr ^ self.mask;
                    let partner = if partner_nr < self.rem {
                        partner_nr * 2 + 1
                    } else {
                        partner_nr + self.rem
                    };
                    if !self.sent {
                        self.sent =
                            self.send.drive(ctx, self.acc, self.len, partner, self.tag)?;
                    }
                    if !self.received {
                        // The round's send left above, before the
                        // accumulator moves to the buffer written here.
                        self.received = self.recv_reduce(ctx, partner)?;
                    }
                    if self.sent && self.received {
                        self.mask <<= 1;
                        self.send.reset();
                        self.sent = false;
                        self.received = false;
                    } else {
                        return Ok(None);
                    }
                }
                ArPhase::UnfoldSend => {
                    if !self.send.drive(ctx, self.acc, self.len, me - 1, self.tag)? {
                        return Ok(None);
                    }
                    self.send.reset();
                    self.phase = ArPhase::Finish;
                }
                ArPhase::UnfoldRecv => {
                    let out = unsafe { std::slice::from_raw_parts_mut(self.out, self.len) };
                    if !poll_exact(ctx, me + 1, self.tag, out, "iallreduce")? {
                        return Ok(None);
                    }
                    self.phase = ArPhase::Finish;
                }
                ArPhase::Finish => return Ok(Some(Status::msg(me, 0, self.len))),
            }
        }
    }
}

/// `MPI_Ireduce`: the binomial tree of [`crate::Comm::reduce`] advanced
/// round by round. Leaves send the send buffer itself. An interior node
/// reduces its first child with the send buffer into its accumulator —
/// `out` on the root, a scratch vector allocated then elsewhere — and
/// later children into the accumulator in place, all at delivery; nobody
/// reads the accumulator until it is sent up.
pub(crate) struct IreduceState {
    /// Root's output buffer (null on non-root ranks).
    out: *mut u8,
    sbuf: *const u8,
    len: usize,
    root: u32,
    dt: Datatype,
    op: ReduceOp,
    tag: i32,
    /// Null until the first child is folded in.
    acc: *mut u8,
    scratch: Vec<u8>,
    mask: u32,
    send: StepSend,
}

impl IreduceState {
    pub fn new(
        ctx: &CommCtx,
        send_buf: &[u8],
        out: *mut u8,
        out_len: usize,
        dt: Datatype,
        op: ReduceOp,
        root: u32,
        tag: i32,
    ) -> Result<IreduceState, MpiError> {
        check_op(dt, op)?;
        ctx.check_rank(root)?;
        if ctx.rank == root && out_len != send_buf.len() {
            return Err(MpiError::CollectiveMismatch(format!(
                "ireduce output buffer {out_len} bytes, data {} bytes",
                send_buf.len()
            )));
        }
        if ctx.size() == 1 {
            // No child to fold in: the result is the contribution.
            unsafe { std::slice::from_raw_parts_mut(out, out_len) }.copy_from_slice(send_buf);
        }
        Ok(IreduceState {
            out,
            sbuf: send_buf.as_ptr(),
            len: send_buf.len(),
            root,
            dt,
            op,
            tag,
            acc: std::ptr::null_mut(),
            scratch: Vec::new(),
            mask: 1,
            send: StepSend::new(),
        })
    }

    /// Fold a child's block into the accumulator.
    fn fold(&mut self, is_root: bool, theirs: &[u8]) -> Result<(), MpiError> {
        if !self.acc.is_null() {
            let acc = unsafe { std::slice::from_raw_parts_mut(self.acc, self.len) };
            return reduce_in_place(self.dt, self.op, acc, theirs);
        }
        if !is_root {
            self.scratch = vec![0u8; self.len];
        }
        self.acc = if is_root { self.out } else { self.scratch.as_mut_ptr() };
        let acc = unsafe { std::slice::from_raw_parts_mut(self.acc, self.len) };
        let sbuf = unsafe { std::slice::from_raw_parts(self.sbuf, self.len) };
        reduce_into(self.dt, self.op, acc, sbuf, theirs)
    }

    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        let p = ctx.size();
        let me = ctx.rank;
        let vr = (me + p - self.root) % p;
        loop {
            if self.mask >= p {
                // All subtrees folded in, straight into `out`: only the
                // root gets here (every other rank exits through the send
                // branch below).
                return Ok(Some(Status::msg(me, 0, self.len)));
            }
            if vr & self.mask == 0 {
                let partner = vr | self.mask;
                if partner < p {
                    let src = (partner + self.root) % p;
                    if !poll_fold(ctx, src, self.tag, |theirs| self.fold(vr == 0, theirs))? {
                        return Ok(None);
                    }
                }
                self.mask <<= 1;
            } else {
                let dst = (vr - self.mask + self.root) % p;
                let acc = if self.acc.is_null() { self.sbuf } else { self.acc.cast_const() };
                if !self.send.drive(ctx, acc, self.len, dst, self.tag)? {
                    return Ok(None);
                }
                self.send.reset();
                return Ok(Some(Status::msg(me, 0, self.len)));
            }
        }
    }
}

/// `MPI_Igather`: linear rooted. The root drains one block per peer —
/// matched by the collective's unique tag, placed by source rank, so
/// arrival order is free — while non-roots drive a single send.
pub(crate) struct IgatherState {
    /// Root's output buffer (`p * n` bytes; null on non-root ranks).
    out: *mut u8,
    /// Non-root's send buffer (null on the root: its block is copied at
    /// initiation).
    sbuf: *const u8,
    n: usize,
    root: u32,
    tag: i32,
    send: StepSend,
    /// Root: peers still to be received.
    remaining: u32,
}

impl IgatherState {
    pub fn new(
        ctx: &CommCtx,
        send_buf: &[u8],
        out: *mut u8,
        out_len: usize,
        root: u32,
        tag: i32,
    ) -> Result<IgatherState, MpiError> {
        ctx.check_rank(root)?;
        let p = ctx.size();
        let n = send_buf.len();
        let (sbuf, remaining) = if ctx.rank == root {
            if out_len != n * p as usize {
                return Err(MpiError::CollectiveMismatch(format!(
                    "igather output is {out_len} bytes, expected {}",
                    n * p as usize
                )));
            }
            // The root's own contribution lands at initiation.
            let own = unsafe {
                std::slice::from_raw_parts_mut(out.wrapping_add(root as usize * n), n)
            };
            own.copy_from_slice(send_buf);
            (std::ptr::null(), p - 1)
        } else {
            (send_buf.as_ptr(), 0)
        };
        Ok(IgatherState { out, sbuf, n, root, tag, send: StepSend::new(), remaining })
    }

    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        let me = ctx.rank;
        if me == self.root {
            while self.remaining > 0 {
                match ctx.try_take(Source::Any, Tag::Value(self.tag))? {
                    Some(msg) => {
                        let src = msg.src_in_comm as usize;
                        let dst = unsafe {
                            std::slice::from_raw_parts_mut(
                                self.out.wrapping_add(src * self.n),
                                self.n,
                            )
                        };
                        deliver_block(ctx, msg, dst, "igather")?;
                        self.remaining -= 1;
                    }
                    None => return Ok(None),
                }
            }
            let total = self.n * ctx.size() as usize;
            Ok(Some(Status::msg(me, 0, total)))
        } else {
            if !self.send.drive(ctx, self.sbuf, self.n, self.root, self.tag)? {
                return Ok(None);
            }
            self.send.reset();
            Ok(Some(Status::msg(me, 0, self.n)))
        }
    }
}

/// `MPI_Iscatter`: linear rooted fan-out. The root initiates every
/// peer's send on the first poll and then drives them jointly; non-roots
/// await their block.
pub(crate) struct IscatterState {
    /// Root's input buffer (`p * n` bytes; null on non-root ranks).
    sbuf: *const u8,
    out: *mut u8,
    n: usize,
    root: u32,
    tag: i32,
    sends: Vec<SendOp>,
    started: bool,
}

impl IscatterState {
    pub fn new(
        ctx: &CommCtx,
        sbuf: *const u8,
        sbuf_len: usize,
        out: *mut u8,
        out_len: usize,
        root: u32,
        tag: i32,
    ) -> Result<IscatterState, MpiError> {
        ctx.check_rank(root)?;
        let p = ctx.size();
        if ctx.rank == root && sbuf_len != out_len * p as usize {
            return Err(MpiError::CollectiveMismatch(format!(
                "iscatter input is {sbuf_len} bytes, expected {}",
                out_len * p as usize
            )));
        }
        Ok(IscatterState {
            sbuf,
            out,
            n: out_len,
            root,
            tag,
            sends: Vec::new(),
            started: false,
        })
    }

    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        let p = ctx.size();
        let me = ctx.rank;
        let st = Status::msg(me, 0, self.n);
        if me == self.root {
            if !self.started {
                // Post every block so slow children drain the root's
                // rendezvous handshakes concurrently, then copy our own.
                for r in 0..p {
                    if r == self.root {
                        continue;
                    }
                    self.sends.push(ctx.start_send(
                        self.sbuf.wrapping_add(r as usize * self.n),
                        self.n,
                        r,
                        self.tag,
                    )?);
                }
                let own = unsafe {
                    std::slice::from_raw_parts(
                        self.sbuf.wrapping_add(self.root as usize * self.n),
                        self.n,
                    )
                };
                unsafe { std::slice::from_raw_parts_mut(self.out, self.n) }
                    .copy_from_slice(own);
                self.started = true;
            }
            if !poll_sends(ctx, &mut self.sends)? {
                return Ok(None);
            }
            Ok(Some(st))
        } else {
            let dst = unsafe { std::slice::from_raw_parts_mut(self.out, self.n) };
            if !poll_exact(ctx, self.root, self.tag, dst, "iscatter")? {
                return Ok(None);
            }
            Ok(Some(st))
        }
    }
}

/// `MPI_Iallgather`: the ring of [`crate::Comm::allgather`] as a state
/// machine, p−1 rounds, all out of the caller's output buffer: each round
/// sends right the block the previous round completed (this rank's own in
/// the first) while the left neighbour's lands in a different block.
pub(crate) struct IallgatherState {
    out: *mut u8,
    n: usize,
    tag: i32,
    step: u32,
    send: StepSend,
    sent: bool,
    received: bool,
}

impl IallgatherState {
    pub fn new(
        ctx: &CommCtx,
        send_buf: &[u8],
        out: *mut u8,
        out_len: usize,
        tag: i32,
    ) -> Result<IallgatherState, MpiError> {
        let p = ctx.size() as usize;
        let n = send_buf.len();
        if out_len != n * p {
            return Err(MpiError::CollectiveMismatch(format!(
                "iallgather output is {out_len} bytes, expected {}",
                n * p
            )));
        }
        let me = ctx.rank as usize;
        unsafe { std::slice::from_raw_parts_mut(out.wrapping_add(me * n), n) }
            .copy_from_slice(send_buf);
        Ok(IallgatherState {
            out,
            n,
            tag,
            step: 0,
            send: StepSend::new(),
            sent: false,
            received: false,
        })
    }

    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        let p = ctx.size() as usize;
        let me = ctx.rank as usize;
        let n = self.n;
        loop {
            if p == 1 || self.step as usize >= p - 1 {
                return Ok(Some(Status::msg(ctx.rank, 0, n * p)));
            }
            let right = ((me + 1) % p) as u32;
            let left = ((me + p - 1) % p) as u32;
            let step = self.step as usize;
            let send_block = (me + p - step) % p;
            let recv_block = (me + p - step - 1) % p;
            if !self.sent {
                let block = self.out.wrapping_add(send_block * n);
                self.sent = self.send.drive(ctx, block, n, right, self.tag)?;
            }
            if !self.received {
                let dst = unsafe {
                    std::slice::from_raw_parts_mut(self.out.wrapping_add(recv_block * n), n)
                };
                self.received = poll_exact(ctx, left, self.tag, dst, "iallgather")?;
            }
            if self.sent && self.received {
                self.step += 1;
                self.send.reset();
                self.sent = false;
                self.received = false;
            } else {
                return Ok(None);
            }
        }
    }
}

/// `MPI_Ialltoall`: pairwise exchange. Every peer send is initiated on
/// the first poll (so rendezvous announcements are matchable while this
/// rank drains its own arrivals); incoming blocks are matched by the
/// collective's unique tag and placed by source rank.
pub(crate) struct IalltoallState {
    sbuf: *const u8,
    out: *mut u8,
    n: usize,
    tag: i32,
    sends: Vec<SendOp>,
    started: bool,
    remaining: u32,
}

impl IalltoallState {
    pub fn new(
        ctx: &CommCtx,
        sbuf: *const u8,
        sbuf_len: usize,
        out: *mut u8,
        out_len: usize,
        tag: i32,
    ) -> Result<IalltoallState, MpiError> {
        let p = ctx.size() as usize;
        if sbuf_len != out_len || sbuf_len % p != 0 {
            return Err(MpiError::CollectiveMismatch(format!(
                "ialltoall buffers must be equal and divisible by p: {sbuf_len} vs {out_len}"
            )));
        }
        Ok(IalltoallState {
            sbuf,
            out,
            n: sbuf_len / p,
            tag,
            sends: Vec::new(),
            started: false,
            remaining: ctx.size() - 1,
        })
    }

    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        let p = ctx.size() as usize;
        let me = ctx.rank as usize;
        let n = self.n;
        if !self.started {
            for i in 1..p {
                let dst = (me + i) % p;
                self.sends.push(ctx.start_send(
                    self.sbuf.wrapping_add(dst * n),
                    n,
                    dst as u32,
                    self.tag,
                )?);
            }
            unsafe { std::slice::from_raw_parts_mut(self.out.wrapping_add(me * n), n) }
                .copy_from_slice(unsafe {
                    std::slice::from_raw_parts(self.sbuf.wrapping_add(me * n), n)
                });
            self.started = true;
        }
        let sends_done = poll_sends(ctx, &mut self.sends)?;
        while self.remaining > 0 {
            match ctx.try_take(Source::Any, Tag::Value(self.tag))? {
                Some(msg) => {
                    let src = msg.src_in_comm as usize;
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(self.out.wrapping_add(src * n), n)
                    };
                    deliver_block(ctx, msg, dst, "ialltoall")?;
                    self.remaining -= 1;
                }
                None => return Ok(None),
            }
        }
        if !sends_done {
            return Ok(None);
        }
        Ok(Some(Status::msg(ctx.rank, 0, n * p)))
    }
}

/// `MPI_Ialltoallv`: the vector pairwise exchange. Counts and
/// displacements are in **bytes** at this layer (the embedder translates
/// element counts); zero-length blocks still travel so every rank sees
/// exactly `p − 1` arrivals per collective.
pub(crate) struct IalltoallvState {
    sbuf: *const u8,
    out: *mut u8,
    tag: i32,
    scounts: Vec<usize>,
    sdispls: Vec<usize>,
    rcounts: Vec<usize>,
    rdispls: Vec<usize>,
    sends: Vec<SendOp>,
    started: bool,
    /// Per-source arrival flag (a peer must contribute exactly once).
    received: Vec<bool>,
    remaining: u32,
}

impl IalltoallvState {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ctx: &CommCtx,
        sbuf: *const u8,
        sbuf_len: usize,
        scounts: Vec<usize>,
        sdispls: Vec<usize>,
        out: *mut u8,
        out_len: usize,
        rcounts: Vec<usize>,
        rdispls: Vec<usize>,
        tag: i32,
    ) -> Result<IalltoallvState, MpiError> {
        let p = ctx.size() as usize;
        if scounts.len() != p || sdispls.len() != p || rcounts.len() != p || rdispls.len() != p
        {
            return Err(MpiError::CollectiveMismatch(format!(
                "ialltoallv takes {p} counts/displacements per array"
            )));
        }
        for r in 0..p {
            if sdispls[r] + scounts[r] > sbuf_len {
                return Err(MpiError::CollectiveMismatch(format!(
                    "ialltoallv send block {r} ({} + {}) exceeds buffer of {sbuf_len}",
                    sdispls[r], scounts[r]
                )));
            }
            if rdispls[r] + rcounts[r] > out_len {
                return Err(MpiError::CollectiveMismatch(format!(
                    "ialltoallv recv block {r} ({} + {}) exceeds buffer of {out_len}",
                    rdispls[r], rcounts[r]
                )));
            }
        }
        let me = ctx.rank as usize;
        if scounts[me] != rcounts[me] {
            return Err(MpiError::CollectiveMismatch(format!(
                "ialltoallv self block differs: send {} recv {}",
                scounts[me], rcounts[me]
            )));
        }
        Ok(IalltoallvState {
            sbuf,
            out,
            tag,
            scounts,
            sdispls,
            rcounts,
            rdispls,
            sends: Vec::new(),
            started: false,
            received: vec![false; p],
            remaining: ctx.size() - 1,
        })
    }

    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        let p = ctx.size() as usize;
        let me = ctx.rank as usize;
        if !self.started {
            for i in 1..p {
                let dst = (me + i) % p;
                self.sends.push(ctx.start_send(
                    self.sbuf.wrapping_add(self.sdispls[dst]),
                    self.scounts[dst],
                    dst as u32,
                    self.tag,
                )?);
            }
            let own = unsafe {
                std::slice::from_raw_parts(
                    self.sbuf.wrapping_add(self.sdispls[me]),
                    self.scounts[me],
                )
            };
            unsafe {
                std::slice::from_raw_parts_mut(
                    self.out.wrapping_add(self.rdispls[me]),
                    self.rcounts[me],
                )
            }
            .copy_from_slice(own);
            self.started = true;
        }
        let sends_done = poll_sends(ctx, &mut self.sends)?;
        while self.remaining > 0 {
            match ctx.try_take(Source::Any, Tag::Value(self.tag))? {
                Some(msg) => {
                    let src = msg.src_in_comm as usize;
                    let want = self.rcounts[src];
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(
                            self.out.wrapping_add(self.rdispls[src]),
                            want,
                        )
                    };
                    if self.received[src] {
                        // Consume (completing any handshake) then report.
                        let _ = ctx.deliver_with(msg, |_| ());
                        return Err(MpiError::CollectiveMismatch(format!(
                            "ialltoallv got a second block from rank {src}"
                        )));
                    }
                    deliver_block(ctx, msg, dst, "ialltoallv")?;
                    self.received[src] = true;
                    self.remaining -= 1;
                }
                None => return Ok(None),
            }
        }
        if !sends_done {
            return Ok(None);
        }
        let total: usize = self.rcounts.iter().sum();
        Ok(Some(Status::msg(ctx.rank, 0, total)))
    }
}

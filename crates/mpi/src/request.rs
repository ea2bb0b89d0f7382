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
//!   rendezvous slot, collectives on whichever of the two their current
//!   step is blocked on).
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
//! Every collective, blocking or not, is a [`crate::schedule::Schedule`]
//! run by the one executor at the end of this file: rounds of the same
//! eager/rendezvous point-to-point steps, advanced by the shared progress
//! loop, interleaving freely with unrelated traffic (each initiation
//! draws its own tag from the per-communicator sequence space).

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use crate::coll_algo::{AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo};
use crate::comm::{Source, Status, Tag, COLLECTIVE_TAG_BASE};
use crate::datatype::{check_op, reduce_in_place, reduce_into, Datatype, ReduceOp};
use crate::error::MpiError;
use crate::message::{Message, RecvEntry};
use crate::park::YIELD_BUDGET;
use crate::progress::{CommCtx, SendOp, SendPayload};
use crate::schedule::{Algo, Buf, Extents, Schedule, Span, Step};

/// Tag of collective number `seq` on a communicator: each initiation
/// draws its own (see [`crate::Comm`]'s per-communicator sequence
/// counter), so the rounds of two outstanding collectives can never
/// cross-match. MPI requires every rank to issue collectives on a
/// communicator in the same order, so per-rank counters agree. The
/// sequence wraps far before the i32 tag space runs out; a wrap-distance
/// collision would need ~2^24 simultaneously outstanding collectives.
pub(crate) fn nbc_tag(seq: u64) -> i32 {
    COLLECTIVE_TAG_BASE - (seq & 0xFF_FFFF) as i32
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
    Coll(Box<CollExec>),
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

    /// An initiated send in any mode: `payload` pinned or protocol-owned,
    /// `sync` for `MPI_Issend` (completion implies the receiver matched
    /// the message). One `Kind::Send` state machine — only the initiation
    /// differs (see [`CommCtx::start_send`]).
    pub(crate) fn send(
        ctx: CommCtx,
        payload: SendPayload,
        dest: u32,
        tag: i32,
        sync: bool,
    ) -> Result<Request<'buf>, MpiError> {
        let len = payload.len();
        let op = ctx.start_send(payload, dest, tag, sync)?;
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

    pub(crate) fn coll(ctx: CommCtx, exec: CollExec) -> Request<'buf> {
        let mut req = Self::build(ctx, Kind::Coll(Box::new(exec)), None);
        if let Kind::Coll(exec) = &mut req.kind {
            exec.trace_begin(&req.ctx, req.trace_id);
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
        let entry = RecvEntry::prematched(msg, &ctx.world.stats);
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
                let op = self.ctx.start_send(SendPayload::Pinned(ptr, len), dest, tag, false)?;
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
            Kind::Coll(exec) => exec.poll(&self.ctx),
        };
        match outcome {
            Ok(Some(st)) => {
                self.kind = Kind::Done(st);
                self.note_state(obs::ReqState::Done);
            }
            Ok(None) => {}
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
        // Collectives park on the step they are blocked on, then poll
        // again; null, inactive, done and failed requests are complete.
        loop {
            self.progress();
            if self.is_complete() {
                return self.take_result();
            }
            if let Kind::Coll(exec) = &self.kind {
                exec.park();
            }
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
            Kind::Coll(exec) => exec.cancel(ctx),
            Kind::Recv { entry, .. } => ctx.cancel_recv(entry),
            _ => {}
        }
    }
}

impl Drop for Request<'_> {
    fn drop(&mut self) {
        // A dropped in-flight operation must not leave a dangling buffer
        // pointer in a destination mailbox (user buffers for sends and
        // collectives, executor-owned scratch for some schedules).
        self.kind.cancel_in_flight(&self.ctx);
    }
}

/// Wait-loop backoff, the polling form of [`crate::park`]'s policy: yield
/// for the same budget of idle passes, then sleep — shared by every
/// polling wait in the substrate and by embedder-level completion loops,
/// so waiting ranks don't burn a core while their peers compute. Callers
/// keep a counter starting at 0 and pass it on every idle pass.
pub fn backoff(idle_passes: &mut u32) {
    if *idle_passes < YIELD_BUDGET {
        *idle_passes += 1;
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(20));
    }
}

// --- the collective executor ---------------------------------------------

/// How long a collective parks on a send before it polls again. Nothing
/// wakes a rendezvous slot when a *third* rank dies — the receiver may
/// have abandoned the collective without ever draining it — so the park is
/// bounded and the poll's member-failure check runs at this cadence. Kept
/// well above the scheduler tick: a shorter timeout is the CPU's next timer
/// event, and re-arming the timer on every park cost ≈ 10 µs per 1-MiB
/// bcast on the (virtualised) reference host.
const FAILURE_HEARTBEAT: Duration = Duration::from_millis(50);

/// One collective in progress: a [`Schedule`] and the position in it.
///
/// A round starts its sends, posts its receives and runs its copies at
/// once; the receives are then delivered **in schedule order** — virtual
/// time must not depend on arrival order — and, last, its sends are seen
/// to completion (pipelined schedules leave theirs in flight to the end).
pub(crate) struct CollExec {
    kind: obs::CollKind,
    sched: Schedule,
    tag: i32,
    /// Base and length of the `Send`, `Recv` and `Scratch` buffers.
    bufs: [(*mut u8, usize); 3],
    /// Owns the scratch `bufs` points into.
    _scratch: Vec<u8>,
    reduce: Option<(Datatype, ReduceOp)>,
    /// Flight-recorder span id (0 = tracing off).
    trace_id: u64,
    round: u32,
    /// The current round's sends are started and receives posted.
    begun: bool,
    /// Sends in flight.
    sends: Vec<SendOp>,
    /// The current round's receives in schedule order, and how many of
    /// them have been delivered.
    recvs: Vec<(Arc<RecvEntry>, Step)>,
    delivered: usize,
}

/// Start of `span` inside its buffer.
///
/// # Panics
/// If the span leaves the buffer: every unsafe view of a span relies on
/// this check, and on the schedule invariants `tests/schedule.rs` pins.
fn locate(bufs: &[(*mut u8, usize); 3], span: Span) -> *mut u8 {
    let (base, len) = bufs[span.buf as usize];
    let fits = span.off.checked_add(span.len).is_some_and(|end| end <= len);
    assert!(fits, "collective span {span:?} outside its {len}-byte buffer");
    base.wrapping_add(span.off)
}

/// The bytes of `span`; empty without touching its buffer, which is null
/// where a rank has none.
///
/// # Safety
/// The buffer `span` names is valid for reads for `'a`, and nothing
/// writes the span meanwhile.
unsafe fn view<'a>(bufs: &[(*mut u8, usize); 3], span: Span) -> &'a [u8] {
    match (locate(bufs, span), span.len) {
        (_, 0) => &[],
        (start, len) => std::slice::from_raw_parts(start, len),
    }
}

/// [`view`], for writing. Schedules never write the send buffer.
///
/// # Safety
/// The buffer `span` names is valid for writes for `'a`, and nothing else
/// reads or writes the span meanwhile.
unsafe fn view_mut<'a>(bufs: &[(*mut u8, usize); 3], span: Span) -> &'a mut [u8] {
    assert!(span.buf != Buf::Send, "collective step writes the send buffer");
    match (locate(bufs, span), span.len) {
        (_, 0) => &mut [],
        (start, len) => std::slice::from_raw_parts_mut(start, len),
    }
}

impl CollExec {
    #[allow(clippy::too_many_arguments)]
    fn new(
        kind: obs::CollKind,
        ctx: &CommCtx,
        tag: i32,
        algo: Algo,
        root: u32,
        n: usize,
        send: (*const u8, usize),
        recv: (*mut u8, usize),
        reduce: Option<(Datatype, ReduceOp)>,
    ) -> CollExec {
        let sched = Schedule::new(algo, ctx.size(), ctx.rank, root, n);
        let mut scratch = vec![0u8; sched.scratch_len()];
        CollExec {
            kind,
            sched,
            tag,
            bufs: [(send.0.cast_mut(), send.1), recv, (scratch.as_mut_ptr(), scratch.len())],
            _scratch: scratch,
            reduce,
            trace_id: 0,
            round: 0,
            begun: false,
            sends: Vec::new(),
            recvs: Vec::new(),
            delivered: 0,
        }
    }

    pub fn barrier(ctx: &CommCtx, tag: i32) -> CollExec {
        let (send, recv) = ((std::ptr::null(), 0), (std::ptr::null_mut(), 0));
        Self::new(obs::CollKind::Barrier, ctx, tag, Algo::Barrier, 0, 0, send, recv, None)
    }

    pub fn bcast(
        ctx: &CommCtx,
        tag: i32,
        buf: *mut u8,
        len: usize,
        root: u32,
    ) -> Result<CollExec, MpiError> {
        ctx.check_rank(root)?;
        let tuning = &ctx.world.tuning;
        let seg = tuning.segment_bytes.max(1);
        let algo = match tuning.select_bcast(ctx.size(), len) {
            BcastAlgo::Binomial => Algo::BcastBinomial,
            BcastAlgo::BinomialSegmented => Algo::BcastBinomialSegmented { seg },
            BcastAlgo::Ring => Algo::BcastRing { seg },
        };
        let none = (std::ptr::null(), 0);
        Ok(Self::new(obs::CollKind::Bcast, ctx, tag, algo, root, len, none, (buf, len), None))
    }

    pub fn allreduce(
        ctx: &CommCtx,
        tag: i32,
        send: (*const u8, usize),
        recv: (*mut u8, usize),
        dt: Datatype,
        op: ReduceOp,
    ) -> Result<CollExec, MpiError> {
        check_op(dt, op)?;
        let len = send.1;
        if recv.1 != len {
            return Err(MpiError::CollectiveMismatch(format!(
                "allreduce buffers differ: send {len}, recv {}",
                recv.1
            )));
        }
        let algo = match ctx.world.tuning.select_allreduce(ctx.size(), len) {
            AllreduceAlgo::RecursiveDoubling => Algo::AllreduceRecursiveDoubling,
            AllreduceAlgo::Rabenseifner => {
                if !len.is_multiple_of(dt.size()) {
                    return Err(MpiError::BadCount { bytes: len, type_size: dt.size() });
                }
                Algo::AllreduceRabenseifner { elem: dt.size() }
            }
        };
        let reduce = Some((dt, op));
        Ok(Self::new(obs::CollKind::Allreduce, ctx, tag, algo, 0, len, send, recv, reduce))
    }

    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        ctx: &CommCtx,
        tag: i32,
        send: (*const u8, usize),
        recv: (*mut u8, usize),
        dt: Datatype,
        op: ReduceOp,
        root: u32,
    ) -> Result<CollExec, MpiError> {
        check_op(dt, op)?;
        ctx.check_rank(root)?;
        let len = send.1;
        let recv = if ctx.rank == root {
            Self::root_buffer("reduce", "receive", recv.0)?;
            if recv.1 != len {
                return Err(MpiError::CollectiveMismatch(format!(
                    "reduce output buffer {} bytes, data {len} bytes",
                    recv.1
                )));
            }
            recv
        } else {
            (std::ptr::null_mut(), 0)
        };
        let reduce = Some((dt, op));
        Ok(Self::new(obs::CollKind::Reduce, ctx, tag, Algo::Reduce, root, len, send, recv, reduce))
    }

    pub fn gather(
        ctx: &CommCtx,
        tag: i32,
        send: (*const u8, usize),
        recv: (*mut u8, usize),
        root: u32,
    ) -> Result<CollExec, MpiError> {
        ctx.check_rank(root)?;
        let n = send.1;
        let recv = if ctx.rank == root {
            Self::root_buffer("gather", "receive", recv.0)?;
            Self::whole("gather output", recv.1, n * ctx.size() as usize)?;
            recv
        } else {
            (std::ptr::null_mut(), 0)
        };
        Ok(Self::new(obs::CollKind::Gather, ctx, tag, Algo::Gather, root, n, send, recv, None))
    }

    pub fn scatter(
        ctx: &CommCtx,
        tag: i32,
        send: (*const u8, usize),
        recv: (*mut u8, usize),
        root: u32,
    ) -> Result<CollExec, MpiError> {
        ctx.check_rank(root)?;
        let n = recv.1;
        let send = if ctx.rank == root {
            Self::root_buffer("scatter", "send", send.0)?;
            Self::whole("scatter input", send.1, n * ctx.size() as usize)?;
            send
        } else {
            (std::ptr::null(), 0)
        };
        Ok(Self::new(obs::CollKind::Scatter, ctx, tag, Algo::Scatter, root, n, send, recv, None))
    }

    pub fn allgather(
        ctx: &CommCtx,
        tag: i32,
        send: (*const u8, usize),
        recv: (*mut u8, usize),
    ) -> Result<CollExec, MpiError> {
        let n = send.1;
        Self::whole("allgather output", recv.1, n * ctx.size() as usize)?;
        let algo = match ctx.world.tuning.select_allgather(ctx.size(), n) {
            AllgatherAlgo::Ring => Algo::AllgatherRing,
            AllgatherAlgo::Bruck => Algo::AllgatherBruck,
            AllgatherAlgo::RecursiveDoubling => Algo::AllgatherRecursiveDoubling,
        };
        Ok(Self::new(obs::CollKind::Allgather, ctx, tag, algo, 0, n, send, recv, None))
    }

    pub fn alltoall(
        ctx: &CommCtx,
        tag: i32,
        send: (*const u8, usize),
        recv: (*mut u8, usize),
    ) -> Result<CollExec, MpiError> {
        let p = ctx.size() as usize;
        if send.1 != recv.1 || !send.1.is_multiple_of(p) {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoall buffers must be equal and divisible by p: {} vs {}",
                send.1, recv.1
            )));
        }
        let n = send.1 / p;
        let algo = match ctx.world.tuning.select_alltoall(ctx.size(), n) {
            AlltoallAlgo::Pairwise => Algo::AlltoallPairwise,
            AlltoallAlgo::Bruck => Algo::AlltoallBruck,
        };
        Ok(Self::new(obs::CollKind::Alltoall, ctx, tag, algo, 0, n, send, recv, None))
    }

    /// Counts and displacements are in **bytes** at this layer (the
    /// embedder translates element counts).
    pub fn alltoallv(
        ctx: &CommCtx,
        tag: i32,
        send: (*const u8, usize),
        recv: (*mut u8, usize),
        x: Extents,
    ) -> Result<CollExec, MpiError> {
        let p = ctx.size() as usize;
        let arrays = [&x.send_counts, &x.send_displs, &x.recv_counts, &x.recv_displs];
        if arrays.iter().any(|a| a.len() != p) {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoallv takes {p} counts/displacements per array"
            )));
        }
        let outside = |displ: usize, count: usize, len: usize| {
            displ.checked_add(count).is_none_or(|end| end > len)
        };
        for r in 0..p {
            if outside(x.send_displs[r], x.send_counts[r], send.1)
                || outside(x.recv_displs[r], x.recv_counts[r], recv.1)
            {
                return Err(MpiError::CollectiveMismatch(format!(
                    "alltoallv block {r} exceeds its buffer"
                )));
            }
        }
        let me = ctx.rank as usize;
        if x.send_counts[me] != x.recv_counts[me] {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoallv self block differs: send {} recv {}",
                x.send_counts[me], x.recv_counts[me]
            )));
        }
        let algo = Algo::Alltoallv(Box::new(x));
        Ok(Self::new(obs::CollKind::Alltoallv, ctx, tag, algo, 0, 0, send, recv, None))
    }

    fn root_buffer(coll: &str, which: &str, ptr: *const u8) -> Result<(), MpiError> {
        if ptr.is_null() {
            return Err(MpiError::CollectiveMismatch(format!(
                "root {coll} requires a {which} buffer"
            )));
        }
        Ok(())
    }

    fn whole(what: &str, got: usize, expected: usize) -> Result<(), MpiError> {
        if got != expected {
            return Err(MpiError::CollectiveMismatch(format!(
                "{what} is {got} bytes, expected {expected}"
            )));
        }
        Ok(())
    }

    /// Open the trace span, naming the schedule that was selected.
    fn trace_begin(&mut self, ctx: &CommCtx, id: u64) {
        self.trace_id = id;
        if id != 0 {
            let (kind, algo) = (self.kind, self.sched.algorithm());
            ctx.trace(|| obs::EventKind::CollBegin { kind, algo, id });
        }
    }

    /// Drive the schedule as far as it goes without blocking; a finished
    /// or failed collective closes its trace span.
    fn poll(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        let outcome = match self.advance(ctx) {
            // ULFM: a collective that cannot finish now fails at *every*
            // member once any member has failed. Schedules only touch
            // O(log p) partners, so without this a survivor can park
            // waiting on a live partner that already aborted its own
            // schedule against the dead rank. Steps whose data arrived
            // before the failure still complete.
            Ok(None) => ctx.member_failure().map_or(Ok(None), Err),
            // A step that failed because a survivor withdrew from the
            // collective reports the death behind it, not the withdrawal.
            Err(e) => Err(ctx.member_failure().unwrap_or(e)),
            done => done,
        };
        if self.trace_id != 0 && !matches!(outcome, Ok(None)) {
            let (kind, id) = (self.kind, self.trace_id);
            ctx.trace(|| obs::EventKind::CollEnd { kind, id });
        }
        outcome
    }

    /// `Ok(None)`: blocked on the next undelivered receive or on a send.
    fn advance(&mut self, ctx: &CommCtx) -> Result<Option<Status>, MpiError> {
        loop {
            if self.round == self.sched.rounds() {
                let status = Status::msg(ctx.rank, 0, self.bufs[Buf::Recv as usize].1);
                return Ok(self.sends_done(ctx)?.then_some(status));
            }
            if !self.begun {
                self.begun = true;
                self.begin_round(ctx)?;
            }
            while let Some((entry, step)) = self.recvs.get(self.delivered) {
                let Some(msg) = entry.poll()? else { return Ok(None) };
                self.deliver(ctx, msg, *step)?;
                self.delivered += 1;
            }
            if !self.sched.pipelined() && !self.sends_done(ctx)? {
                return Ok(None);
            }
            self.recvs.clear();
            self.delivered = 0;
            self.begun = false;
            self.round += 1;
            if self.trace_id != 0 {
                let (kind, round, id) = (self.kind, self.round, self.trace_id);
                ctx.trace(|| obs::EventKind::CollRound { kind, round, id });
            }
        }
    }

    /// Start the round's sends, post its receives, run its copies.
    fn begin_round(&mut self, ctx: &CommCtx) -> Result<(), MpiError> {
        let CollExec { sched, bufs, tag, round, sends, recvs, .. } = self;
        let mut started = Ok(());
        sched.round(*round, |step| match step {
            _ if started.is_err() => {}
            Step::Send { to, span } => {
                let payload = SendPayload::Pinned(locate(bufs, span), span.len);
                match ctx.start_send(payload, to, *tag, false) {
                    Ok(op) => sends.push(op),
                    Err(e) => started = Err(e),
                }
            }
            Step::Recv { from, .. } | Step::Reduce { from, .. } => {
                recvs.push((ctx.post_recv(Source::Rank(from), Tag::Value(*tag)), step));
            }
            Step::Copy { src, dst } => {
                // SAFETY: the caller pinned the buffers for the request's
                // lifetime; the round rule keeps `dst` clear of `src` and
                // of every span this rank or a peer is using.
                unsafe { view_mut(bufs, dst).copy_from_slice(view(bufs, src)) };
            }
        });
        started
    }

    /// Deliver a matched message into its step's span. A block of another
    /// size is still consumed (completing any rendezvous handshake so the
    /// sender proceeds) and the mismatch is reported.
    fn deliver(&self, ctx: &CommCtx, msg: Message, step: Step) -> Result<(), MpiError> {
        let (coll, from) = (self.kind.name(), msg.src_in_comm);
        let delivered = ctx.deliver_with(msg, |block| match step {
            Step::Recv { span, .. } => {
                if block.len() != span.len {
                    return Err(MpiError::CollectiveMismatch(format!(
                        "{coll} block from rank {from} is {} bytes, expected {}",
                        block.len(),
                        span.len
                    )));
                }
                // SAFETY: as in `begin_round`: no other step of the round
                // touches the span, and no peer reads it before a later
                // round sends it.
                unsafe { view_mut(&self.bufs, span) }.copy_from_slice(&block);
                Ok(())
            }
            Step::Reduce { dst, with, .. } => {
                let (dt, op) = self.reduce.expect("a reducing schedule carries its operator");
                // SAFETY: as above; `with` is either `dst` itself (one
                // view, reduced in place) or disjoint from it and only
                // ever read, by this step and by peers.
                unsafe {
                    let out = view_mut(&self.bufs, dst);
                    if dst == with {
                        reduce_in_place(dt, op, out, &block)
                    } else {
                        reduce_into(dt, op, out, view(&self.bufs, with), &block)
                    }
                }
            }
            Step::Send { .. } | Step::Copy { .. } => unreachable!("only receives are posted"),
        })?;
        delivered.1
    }

    /// Have all sends in flight completed? Observed only once the round's
    /// receives are in, so a sender's clock catches up with its receivers
    /// at a fixed point of the schedule.
    fn sends_done(&mut self, ctx: &CommCtx) -> Result<bool, MpiError> {
        for op in &mut self.sends {
            if !op.poll(ctx)? {
                return Ok(false);
            }
        }
        self.sends.clear();
        Ok(true)
    }

    /// Block until the step `advance` stopped at can have moved: the next
    /// undelivered receive's posted entry, or else the rendezvous slot of
    /// a send in flight.
    fn park(&self) {
        match self.recvs.get(self.delivered) {
            Some((entry, _)) => entry.wait_ready(),
            None => {
                if let Some(op) = self.sends.iter().find(|op| !op.is_done()) {
                    op.park(FAILURE_HEARTBEAT);
                }
            }
        }
    }

    fn cancel(&mut self, ctx: &CommCtx) {
        for op in &mut self.sends {
            op.cancel(ctx);
        }
        self.sends.clear();
        for (entry, _) in self.recvs.drain(..).skip(self.delivered) {
            ctx.cancel_recv(&entry);
        }
        self.delivered = 0;
    }
}

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
//! * `test()` = `progress` + conditional `take_result`; `wait()` blocks,
//!   every kind of request the same way: on the rank's doorbell
//!   ([`crate::park`]), progressing the request each time it rings.
//! * The completion calls ([`Request::wait_one`], [`Request::wait_each`],
//!   [`Request::wait_any`], [`Request::wait_some`], [`Request::test_one`],
//!   [`Request::test_all`], [`Request::test_any`]) are MPI's completion
//!   rules, written once against a [`RequestSet`] — a slice of requests,
//!   or the Wasm embedder's guest handle array over its request table —
//!   and visit positions in index order.
//!
//! **Matching model.** Receives match at *posting* time: `Irecv` claims
//! the earliest queued match, or registers a [`crate::message::RecvEntry`]
//! with the rank's mailbox, and arrivals match posted entries in posting
//! order with full
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

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::buf::{RecvBuf, SendBuf};
use crate::comm::{Source, Status, Tag, COLLECTIVE_TAG_BASE};
use crate::datatype::{check_op, reduce_in_place, reduce_into, Datatype, ReduceOp};
use crate::error::MpiError;
use crate::message::{Message, Recv};
use crate::park::{Doorbell, Wait};
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

/// What a nonblocking initiation returns.
pub(crate) type Started<'buf> = Result<Request<'buf>, MpiError>;

/// How one request of a completion set ended: its status, or the error it
/// failed with.
pub type Outcome = Result<Status, MpiError>;

/// Outcome of [`Request::test_any`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestAny {
    /// `index` and outcome of a finished request — a failed one included.
    Completed(usize, Outcome),
    /// Active requests exist but none has completed yet.
    NoneReady,
    /// No active request in the set (`MPI_UNDEFINED`).
    NoneActive,
}

/// A nonblocking operation handle (`MPI_Request`).
///
/// The lifetime ties the request to the buffers it references: a
/// borrowed span's, or `'static` for a span an embedder pinned
/// ([`crate::SendBuf::pinned`]) because its buffers (guest linear memory)
/// outlive the request table.
pub struct Request<'buf> {
    ctx: Arc<CommCtx>,
    kind: Kind,
    /// Boxed: a request is moved by value through every initiation, and
    /// at 128 bytes or less each move is a few register stores, not a
    /// `memcpy` call.
    persistent: Option<Box<PersistentOp>>,
    /// Flight-recorder id for state-transition events (0 = tracing off).
    trace_id: u64,
    _buf: PhantomData<&'buf mut [u8]>,
}

enum PersistentOp {
    Send { buf: SendBuf<'static>, dest: u32, tag: i32 },
    Recv { buf: RecvBuf<'static>, src: Source, tag: Tag },
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
    /// A posted receive: its message claimed, or its entry registered with
    /// the rank's mailbox (arrival-matched in posted order); `buf` is the
    /// destination the owning rank delivers into once it has the message.
    Recv { buf: RecvBuf<'static>, recv: Recv },
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

    fn build(ctx: Arc<CommCtx>, kind: Kind, persistent: Option<Box<PersistentOp>>) -> Request<'buf> {
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
        ctx: Arc<CommCtx>,
        payload: SendPayload,
        dest: u32,
        tag: i32,
        sync: bool,
    ) -> Started<'buf> {
        let len = payload.len();
        let op = ctx.start_send(payload, dest, tag, sync)?;
        Ok(Self::build(ctx, Kind::Send { op, dest, tag, len }, None))
    }

    pub(crate) fn recv(
        ctx: Arc<CommCtx>,
        buf: RecvBuf<'buf>,
        src: Source,
        tag: Tag,
    ) -> Started<'buf> {
        if let Source::Rank(r) = src {
            ctx.check_rank(r)?;
        }
        let recv = ctx.post_recv(src, tag);
        Ok(Self::build(ctx, Kind::Recv { buf: buf.erased(), recv }, None))
    }

    pub(crate) fn send_init(
        ctx: Arc<CommCtx>,
        buf: SendBuf<'buf>,
        dest: u32,
        tag: i32,
    ) -> Started<'buf> {
        ctx.check_rank(dest)?;
        let op = PersistentOp::Send { buf: buf.erased(), dest, tag };
        Ok(Self::build(ctx, Kind::Inactive, Some(Box::new(op))))
    }

    pub(crate) fn recv_init(
        ctx: Arc<CommCtx>,
        buf: RecvBuf<'buf>,
        src: Source,
        tag: Tag,
    ) -> Started<'buf> {
        if let Source::Rank(r) = src {
            ctx.check_rank(r)?;
        }
        let op = PersistentOp::Recv { buf: buf.erased(), src, tag };
        Ok(Self::build(ctx, Kind::Inactive, Some(Box::new(op))))
    }

    pub(crate) fn coll(ctx: Arc<CommCtx>, exec: CollExec) -> Request<'buf> {
        let mut req = Self::build(ctx, Kind::Coll(exec.boxed()), None);
        if let Kind::Coll(exec) = &mut req.kind {
            exec.trace_begin(&req.ctx, req.trace_id);
        }
        req
    }

    /// A receive whose message was already extracted by a matched probe
    /// (`MPI_Imrecv`): it is born claimed, so the first progress step
    /// delivers. Dropping the request undelivered requeues the message
    /// (the usual claimed-receive cancellation path).
    pub(crate) fn recv_matched(ctx: Arc<CommCtx>, buf: RecvBuf<'buf>, msg: Message) -> Self {
        Self::build(ctx, Kind::Recv { buf: buf.erased(), recv: Recv::Claimed(msg) }, None)
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

    /// The request takes part in a completion call: pending, or finished
    /// with an outcome not yet taken. Null and inactive persistent requests
    /// do not (MPI's `MPI_UNDEFINED` cases).
    pub fn participates(&self) -> bool {
        !matches!(self.kind, Kind::Null | Kind::Inactive)
    }

    /// A collective still running: every member's schedule depends on it,
    /// so it must run to completion — `MPI_Request_free` may not drop it.
    pub fn is_active_collective(&self) -> bool {
        matches!(self.kind, Kind::Coll(_))
    }

    /// True when the operation finishes without any further action from
    /// this rank: an initiated send's payload is drained by the
    /// *receiver* (eager from the mailbox, rendezvous straight from the
    /// pinned buffer), so the request only needs to stay alive — parked,
    /// not driven — until the peer gets to it.
    pub fn completes_passively(&self) -> bool {
        matches!(self.kind, Kind::Send { .. })
    }

    /// The doorbell of the rank the request belongs to.
    pub(crate) fn doorbell(&self) -> &Doorbell {
        &self.ctx.world.mailbox(self.ctx.my_world()).bell
    }

    // --- lifecycle ------------------------------------------------------

    /// Activate a persistent request (`MPI_Start`). Errors on non-persistent
    /// or still-active requests.
    pub fn start(&mut self) -> Result<(), MpiError> {
        let Some(op) = &self.persistent else {
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
        self.kind = match **op {
            PersistentOp::Send { buf, dest, tag } => {
                let op = self.ctx.start_send(SendPayload::Pinned(buf), dest, tag, false)?;
                Kind::Send { op, dest, tag, len: buf.len() }
            }
            PersistentOp::Recv { ref buf, src, tag } => {
                Kind::Recv { buf: buf.alias(), recv: self.ctx.post_recv(src, tag) }
            }
        };
        self.note_state(obs::ReqState::Active);
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
            Kind::Recv { recv: Recv::Posted(entry), .. } => {
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
            Kind::Recv { buf, recv } => match recv.poll() {
                Ok(Some(msg)) => {
                    // SAFETY: the request is live, and its posted buffer is
                    // its own until it completes; `tests/progress.rs`
                    // (`same_matcher_receives_match_in_posted_order`) would
                    // see bytes land in the wrong receive.
                    let dst = unsafe { buf.bytes_mut() };
                    self.ctx.deliver(msg, Some(dst)).map(|(st, _)| Some(st))
                }
                Ok(None) => Ok(None),
                Err(e) => Err(e),
            },
            Kind::Coll(exec) => exec.poll(&self.ctx),
        };
        match outcome {
            Ok(Some(st)) => {
                if let Kind::Coll(exec) = std::mem::replace(&mut self.kind, Kind::Done(st)) {
                    exec.retire();
                }
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
        Self::wait_one(std::slice::from_mut(self), 0)
    }

    // --- completion sets ------------------------------------------------

    /// The one waiting loop under every completion call (and the Wasm
    /// embedder's blocking verbs and probes): read the rank's doorbell
    /// epoch, progress every request the set owns
    /// ([`RequestSet::progress_rest`]) — older requests deliver first —
    /// and `poll`; while `poll` yields nothing, wait for the epoch to move
    /// ([`crate::park`]). Counted once in the world's `parks` or
    /// `yield_hits`.
    pub fn drive<S: RequestSet<'buf> + ?Sized, T>(
        set: &mut S,
        mut poll: impl FnMut(&mut S) -> Option<T>,
    ) -> T {
        let mut wait = Wait::new();
        loop {
            let seen = set.doorbell().map(Doorbell::epoch);
            set.progress_rest();
            if let Some(done) = poll(set) {
                if let Some(bell) = set.doorbell() {
                    bell.done(wait);
                }
                return done;
            }
            let (Some(bell), Some(seen)) = (set.doorbell(), seen) else {
                unreachable!("only an empty set has no doorbell, and it has nothing pending")
            };
            bell.wait_past(seen, &mut wait);
        }
    }

    /// `MPI_Test` on position `i`: `None` while it is pending. A null
    /// position or an inactive persistent request completes at once, with
    /// the empty status.
    pub fn test_one<S: RequestSet<'buf> + ?Sized>(set: &mut S, i: usize) -> Option<Outcome> {
        scan(set, i, |r| r.test().transpose()).outcome()
    }

    /// `MPI_Wait` on position `i`: [`Request::test_one`] until it finishes.
    pub fn wait_one<S: RequestSet<'buf> + ?Sized>(set: &mut S, i: usize) -> Outcome {
        Self::drive(set, |set| Self::test_one(set, i))
    }

    /// `MPI_Waitall`: every position waited for in order, as
    /// [`Request::wait_one`] — so a finished one-shot request is retired
    /// even when another fails. One outcome per position.
    pub fn wait_each<S: RequestSet<'buf> + ?Sized>(set: &mut S) -> Vec<Outcome> {
        (0..set.count()).map(|i| Self::wait_one(set, i)).collect()
    }

    /// [`Request::wait_each`], its first failure in position order as the
    /// error.
    pub fn wait_all<S: RequestSet<'buf> + ?Sized>(set: &mut S) -> Result<Vec<Status>, MpiError> {
        Self::wait_each(set).into_iter().collect()
    }

    /// `MPI_Waitany`: [`Request::test_any`] passes until a position
    /// finishes, its index returned with its outcome — also when it
    /// failed. `None` when no position is active (`MPI_UNDEFINED`).
    pub fn wait_any<S: RequestSet<'buf> + ?Sized>(set: &mut S) -> Option<(usize, Outcome)> {
        Self::drive(set, |set| match Self::test_any(set) {
            TestAny::Completed(i, outcome) => Some(Some((i, outcome))),
            TestAny::NoneActive => Some(None),
            TestAny::NoneReady => None,
        })
    }

    /// `MPI_Waitsome`: passes until one finishes anything, then every
    /// position finished in that pass — a failed request is a finished
    /// one, so a dead peer cannot hide the completions beside it
    /// (ULFM-style partial failure). Empty when no position is active
    /// (`MPI_UNDEFINED`).
    pub fn wait_some<S: RequestSet<'buf> + ?Sized>(set: &mut S) -> Vec<(usize, Outcome)> {
        Self::drive(set, |set| {
            let mut done = Vec::new();
            let pending = pass(set, |i, outcome| {
                done.push((i, outcome));
                true
            });
            (!done.is_empty() || !pending).then_some(done)
        })
    }

    /// `MPI_Testall`: `None`, with nothing retired, until every position
    /// has finished; then every position retired, one outcome each.
    pub fn test_all<S: RequestSet<'buf> + ?Sized>(set: &mut S) -> Option<Vec<Outcome>> {
        let mut all = true;
        for i in 0..set.count() {
            if let Ok(Some(r)) = set.request(i) {
                r.progress();
                all &= r.is_complete();
            }
        }
        all.then(|| (0..set.count()).filter_map(|i| Self::test_one(set, i)).collect())
    }

    /// `MPI_Testany`: one pass in position order; the first position found
    /// finished — failed included — is retired and returned.
    pub fn test_any<S: RequestSet<'buf> + ?Sized>(set: &mut S) -> TestAny {
        let mut hit = None;
        let pending = pass(set, |i, outcome| {
            hit = Some((i, outcome));
            false
        });
        match hit {
            Some((i, outcome)) => TestAny::Completed(i, outcome),
            None if pending => TestAny::NoneReady,
            None => TestAny::NoneActive,
        }
    }
}

/// The requests one completion call works on, by position: a slice of
/// requests, or the Wasm embedder's guest handle array over its request
/// table. [`Request`]'s completion calls are written once against this
/// view, so native callers and guests get the same rules.
pub trait RequestSet<'buf> {
    /// Number of positions: the `count` of MPI's completion calls.
    fn count(&self) -> usize;

    /// The request at `i`: `Ok(None)` for a null position, `Err` for one
    /// that names no request.
    fn request(&mut self, i: usize) -> Result<Option<&mut Request<'buf>>, MpiError>;

    /// The one-shot request at `i` finished and its outcome was taken:
    /// release it (a guest's handle word becomes `MPI_REQUEST_NULL`).
    fn retire(&mut self, _i: usize) {}

    /// Progress every request the caller owns — outcomes latch until
    /// their owner takes them — before each look of a wait: matched
    /// receives need their delivery step, and peers may be waiting on it.
    fn progress_rest(&mut self);

    /// The doorbell of the rank whose requests these are, which a wait
    /// sleeps on ([`crate::park`]). `None` only for an empty set.
    fn doorbell<'s>(&'s self) -> Option<&'s Doorbell>
    where
        'buf: 's;
}

/// A slice of requests — a `Vec` or an array too: a retired request is
/// already `Null`, and the rest of the set is its other positions.
impl<'buf, T> RequestSet<'buf> for T
where
    T: AsRef<[Request<'buf>]> + AsMut<[Request<'buf>]> + ?Sized,
{
    fn count(&self) -> usize {
        self.as_ref().len()
    }

    fn request(&mut self, i: usize) -> Result<Option<&mut Request<'buf>>, MpiError> {
        Ok(Some(&mut self.as_mut()[i]))
    }

    fn progress_rest(&mut self) {
        self.as_mut().iter_mut().for_each(Request::progress);
    }

    fn doorbell<'s>(&'s self) -> Option<&'s Doorbell>
    where
        'buf: 's,
    {
        self.as_ref().first().map(Request::doorbell)
    }
}

/// What one position holds, after one step on it.
enum Scan {
    /// Nothing to wait for: a null position or an inactive persistent
    /// request (MPI's `MPI_UNDEFINED` cases).
    Idle,
    Pending,
    /// Completed or failed — a position naming no request included.
    Finished(Outcome),
}

impl Scan {
    /// `None` while pending; an idle position completes with the empty
    /// status.
    fn outcome(self) -> Option<Outcome> {
        match self {
            Scan::Idle => Some(Ok(Status::empty())),
            Scan::Pending => None,
            Scan::Finished(outcome) => Some(outcome),
        }
    }
}

/// Run `op` on the request at `i`, which finishes it when it returns an
/// outcome. A finished one-shot request is retired — also on failure, so
/// no handle dangles; a persistent one stays, as `MPI_Start` must stay
/// legal.
fn scan<'buf, S: RequestSet<'buf> + ?Sized>(
    set: &mut S,
    i: usize,
    op: impl FnOnce(&mut Request<'buf>) -> Option<Outcome>,
) -> Scan {
    let (persistent, outcome) = match set.request(i) {
        Ok(Some(r)) if r.participates() => (r.is_persistent(), op(r)),
        Ok(_) => return Scan::Idle,
        Err(e) => return Scan::Finished(Err(e)),
    };
    let Some(outcome) = outcome else { return Scan::Pending };
    if !persistent {
        set.retire(i);
    }
    Scan::Finished(outcome)
}

/// One `MPI_Test` pass in position order, handing each finished position
/// to `done` until it returns `false`. Returns whether a position it
/// visited is still pending.
fn pass<'buf, S: RequestSet<'buf> + ?Sized>(
    set: &mut S,
    mut done: impl FnMut(usize, Outcome) -> bool,
) -> bool {
    let mut pending = false;
    for i in 0..set.count() {
        match scan(set, i, |r| r.test().transpose()) {
            Scan::Idle => {}
            Scan::Pending => pending = true,
            Scan::Finished(outcome) => {
                if !done(i, outcome) {
                    break;
                }
            }
        }
    }
    pending
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
            Kind::Recv { recv, .. } => ctx.cancel_recv(recv),
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

// --- the collective executor ---------------------------------------------

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
    bufs: Bufs,
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
    recvs: Vec<(Recv, Step)>,
    delivered: usize,
}

thread_local! {
    /// This thread's last finished executor. The next collective the
    /// thread starts runs in it, so a collective allocates neither its
    /// executor nor, once they have grown, its vectors.
    static SPARE_EXEC: Cell<Option<Box<CollExec>>> = const { Cell::new(None) };
}

/// A collective's three buffers, by [`Buf`].
struct Bufs {
    send: SendBuf<'static>,
    recv: RecvBuf<'static>,
    scratch: RecvBuf<'static>,
    /// Owns the bytes `scratch` spans.
    _scratch: Vec<u8>,
}

impl Bufs {
    /// The bytes `span` names, to read or to send from.
    fn read(&self, span: Span) -> SendBuf<'static> {
        let buf = match span.buf {
            Buf::Send => self.send,
            Buf::Recv => self.recv.readable(),
            Buf::Scratch => self.scratch.readable(),
        };
        buf.sub(span.off, span.len)
    }

    /// The bytes `span` names, to write. Schedules never write the send
    /// buffer.
    fn write(&self, span: Span) -> RecvBuf<'static> {
        let buf = match span.buf {
            Buf::Send => panic!("collective step writes the send buffer"),
            Buf::Recv => &self.recv,
            Buf::Scratch => &self.scratch,
        };
        buf.sub(span.off, span.len)
    }
}

impl CollExec {
    /// A request for the schedule the world's tuning table picks for this
    /// call ([`crate::coll_algo::CollTuning::algo`]).
    #[allow(clippy::too_many_arguments)]
    fn new(
        kind: obs::CollKind,
        ctx: &CommCtx,
        tag: i32,
        root: u32,
        n: usize,
        send: SendBuf<'_>,
        recv: RecvBuf<'_>,
        reduce: Option<(Datatype, ReduceOp)>,
    ) -> CollExec {
        let elem = reduce.map_or(1, |(dt, _)| dt.size());
        let algo = ctx.world.tuning.algo(kind, ctx.size(), n, elem);
        let sched = Schedule::new(algo, ctx.size(), ctx.rank, root, n);
        Self::run(kind, sched, tag, send, recv, reduce)
    }

    fn run(
        kind: obs::CollKind,
        sched: Schedule,
        tag: i32,
        send: SendBuf<'_>,
        recv: RecvBuf<'_>,
        reduce: Option<(Datatype, ReduceOp)>,
    ) -> CollExec {
        let mut scratch = vec![0u8; sched.scratch_len()];
        let scratch_span = RecvBuf::from(&mut scratch).erased();
        CollExec {
            kind,
            sched,
            tag,
            bufs: Bufs {
                send: send.erased(),
                recv: recv.erased(),
                scratch: scratch_span,
                _scratch: scratch,
            },
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
        let (send, recv) = (SendBuf::default(), RecvBuf::default());
        Self::new(obs::CollKind::Barrier, ctx, tag, 0, 0, send, recv, None)
    }

    pub fn bcast(ctx: &CommCtx, tag: i32, buf: RecvBuf<'_>, root: u32) -> Result<Self, MpiError> {
        ctx.check_rank(root)?;
        let (len, none) = (buf.len(), SendBuf::default());
        Ok(Self::new(obs::CollKind::Bcast, ctx, tag, root, len, none, buf, None))
    }

    pub fn allreduce(
        ctx: &CommCtx,
        tag: i32,
        send: SendBuf<'_>,
        recv: RecvBuf<'_>,
        dt: Datatype,
        op: ReduceOp,
    ) -> Result<CollExec, MpiError> {
        check_op(dt, op)?;
        let len = send.len();
        if recv.len() != len {
            return Err(MpiError::CollectiveMismatch(format!(
                "allreduce buffers differ: send {len}, recv {}",
                recv.len()
            )));
        }
        let reduce = Some((dt, op));
        let exec = Self::new(obs::CollKind::Allreduce, ctx, tag, 0, len, send, recv, reduce);
        // Rabenseifner splits the payload at element boundaries.
        let split = exec.sched.algorithm() == obs::Algorithm::Rabenseifner;
        if split && !len.is_multiple_of(dt.size()) {
            return Err(MpiError::BadCount { bytes: len, type_size: dt.size() });
        }
        Ok(exec)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        ctx: &CommCtx,
        tag: i32,
        send: SendBuf<'_>,
        recv: Option<RecvBuf<'_>>,
        dt: Datatype,
        op: ReduceOp,
        root: u32,
    ) -> Result<CollExec, MpiError> {
        check_op(dt, op)?;
        ctx.check_rank(root)?;
        let len = send.len();
        let recv = Self::root_side(ctx, root, "reduce output", recv, RecvBuf::len, len)?;
        Ok(Self::new(obs::CollKind::Reduce, ctx, tag, root, len, send, recv, Some((dt, op))))
    }

    pub fn gather(
        ctx: &CommCtx,
        tag: i32,
        send: SendBuf<'_>,
        recv: Option<RecvBuf<'_>>,
        root: u32,
    ) -> Result<CollExec, MpiError> {
        ctx.check_rank(root)?;
        let (n, p) = (send.len(), ctx.size() as usize);
        let recv = Self::root_side(ctx, root, "gather output", recv, RecvBuf::len, n * p)?;
        Ok(Self::new(obs::CollKind::Gather, ctx, tag, root, n, send, recv, None))
    }

    pub fn scatter(
        ctx: &CommCtx,
        tag: i32,
        send: Option<SendBuf<'_>>,
        recv: RecvBuf<'_>,
        root: u32,
    ) -> Result<CollExec, MpiError> {
        ctx.check_rank(root)?;
        let (n, p) = (recv.len(), ctx.size() as usize);
        let send = Self::root_side(ctx, root, "scatter input", send, SendBuf::len, n * p)?;
        Ok(Self::new(obs::CollKind::Scatter, ctx, tag, root, n, send, recv, None))
    }

    pub fn allgather(
        ctx: &CommCtx,
        tag: i32,
        send: SendBuf<'_>,
        recv: RecvBuf<'_>,
    ) -> Result<CollExec, MpiError> {
        let n = send.len();
        Self::whole("allgather output", recv.len(), n * ctx.size() as usize)?;
        Ok(Self::new(obs::CollKind::Allgather, ctx, tag, 0, n, send, recv, None))
    }

    pub fn alltoall(
        ctx: &CommCtx,
        tag: i32,
        send: SendBuf<'_>,
        recv: RecvBuf<'_>,
    ) -> Result<CollExec, MpiError> {
        let p = ctx.size() as usize;
        if send.len() != recv.len() || !send.len().is_multiple_of(p) {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoall buffers must be equal and divisible by p: {} vs {}",
                send.len(),
                recv.len()
            )));
        }
        let n = send.len() / p;
        Ok(Self::new(obs::CollKind::Alltoall, ctx, tag, 0, n, send, recv, None))
    }

    /// Counts and displacements are in **bytes** at this layer (the
    /// embedder translates element counts).
    pub fn alltoallv(
        ctx: &CommCtx,
        tag: i32,
        send: SendBuf<'_>,
        recv: RecvBuf<'_>,
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
            if outside(x.send_displs[r], x.send_counts[r], send.len())
                || outside(x.recv_displs[r], x.recv_counts[r], recv.len())
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
        let sched = Schedule::new(Algo::Alltoallv(Box::new(x)), ctx.size(), ctx.rank, 0, 0);
        Ok(Self::run(obs::CollKind::Alltoallv, sched, tag, send, recv, None))
    }

    /// A rooted collective's root-only side: the root must pass it,
    /// `expected` bytes long; every other rank's is ignored.
    fn root_side<B: Default>(
        ctx: &CommCtx,
        root: u32,
        what: &str,
        buf: Option<B>,
        len: fn(&B) -> usize,
        expected: usize,
    ) -> Result<B, MpiError> {
        if ctx.rank != root {
            return Ok(B::default());
        }
        let missing = || MpiError::CollectiveMismatch(format!("the root passed no {what} buffer"));
        let buf = buf.ok_or_else(missing)?;
        Self::whole(what, len(&buf), expected)?;
        Ok(buf)
    }

    fn whole(what: &str, got: usize, expected: usize) -> Result<(), MpiError> {
        if got != expected {
            return Err(MpiError::CollectiveMismatch(format!(
                "{what} is {got} bytes, expected {expected}"
            )));
        }
        Ok(())
    }

    /// The executor in a box: this thread's spare one, with the capacity
    /// of its vectors, when it has one.
    fn boxed(mut self) -> Box<CollExec> {
        let Some(mut spare) = SPARE_EXEC.try_with(Cell::take).ok().flatten() else {
            return Box::new(self);
        };
        self.sends = std::mem::take(&mut spare.sends);
        self.recvs = std::mem::take(&mut spare.recvs);
        *spare = self;
        spare
    }

    /// Keep a finished executor, its vectors empty, as this thread's spare.
    /// Its scratch goes now: held until the next collective, it would sit
    /// beside that one's own, a payload's size of memory more at the peak.
    fn retire(mut self: Box<Self>) {
        self.bufs._scratch = Vec::new();
        let _ = SPARE_EXEC.try_with(|spare| spare.set(Some(self)));
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
                let status = Status::msg(ctx.rank, 0, self.bufs.recv.len());
                return Ok(self.sends_done(ctx)?.then_some(status));
            }
            if !self.begun {
                self.begun = true;
                self.begin_round(ctx)?;
            }
            while let Some((recv, step)) = self.recvs.get_mut(self.delivered) {
                let step = *step;
                let Some(msg) = recv.poll()? else { return Ok(None) };
                self.deliver(ctx, msg, step)?;
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
                match ctx.start_send(SendPayload::Pinned(bufs.read(span)), to, *tag, false) {
                    Ok(op) => sends.push(op),
                    Err(e) => started = Err(e),
                }
            }
            Step::Recv { from, .. } | Step::Reduce { from, .. } => {
                recvs.push((ctx.post_recv(Source::Rank(from), Tag::Value(*tag)), step));
            }
            Step::Copy { src, dst } => {
                // SAFETY: the request is live; the round rule keeps `dst`
                // clear of `src` and of every span this rank or a peer is
                // using (`tests/schedule.rs` checks it for every schedule).
                unsafe { bufs.write(dst).bytes_mut().copy_from_slice(bufs.read(src).bytes()) };
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
                // round sends it (`tests/collectives_nbc.rs` compares every
                // schedule's result with the oracle).
                unsafe { self.bufs.write(span).bytes_mut().copy_from_slice(&block) };
                Ok(())
            }
            Step::Reduce { dst, with, .. } => {
                let (dt, op) = self.reduce.expect("a reducing schedule carries its operator");
                let out = self.bufs.write(dst);
                // SAFETY: as above; `with` is either `dst` itself (one
                // view, reduced in place) or disjoint from it and only
                // ever read, by this step and by peers (`tests/schedule.rs`
                // checks the round rule for every reducing schedule).
                unsafe {
                    if dst == with {
                        reduce_in_place(dt, op, out.bytes_mut(), &block)
                    } else {
                        reduce_into(dt, op, out.bytes_mut(), self.bufs.read(with).bytes(), &block)
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

    fn cancel(&mut self, ctx: &CommCtx) {
        for op in &mut self.sends {
            op.cancel(ctx);
        }
        self.sends.clear();
        // A delivered receive is `Taken`: cancelling it does nothing.
        for (recv, _) in &mut self.recvs {
            ctx.cancel_recv(recv);
        }
        self.recvs.clear();
        self.delivered = 0;
    }
}

//! Communicators and point-to-point operations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buf::{RecvBuf, SendBuf};
use crate::clock::{Clock, ClockMode};
use crate::error::MpiError;
use crate::message::{Mailbox, Message, ProbeInfo};
use crate::park::Doorbell;
use crate::progress::{CommCtx, ProtocolSnapshot, SendPayload};
use crate::request::{nbc_tag, CollExec, Request, Started};
use crate::schedule::Extents;
use crate::world::World;
use crate::{CollKind, Datatype, ReduceOp};

/// Receive-source selector (`MPI_ANY_SOURCE` or a specific rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Any,
    Rank(u32),
}

/// Receive-tag selector (`MPI_ANY_TAG` or a specific tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Any,
    Value(i32),
}

/// Completed-receive metadata (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank of the sender within the communicator.
    pub source: u32,
    pub tag: i32,
    /// Received payload size in bytes (`MPI_Get_count * type size`).
    pub bytes: usize,
    /// The operation was successfully cancelled before matching
    /// (`MPI_Test_cancelled`). Always `false` for operations that ran to
    /// completion.
    pub cancelled: bool,
}

impl Status {
    /// Status of a completed (uncancelled) operation.
    pub fn msg(source: u32, tag: i32, bytes: usize) -> Status {
        Status { source, tag, bytes, cancelled: false }
    }
}

/// Tag base for internal collective traffic; user tags are expected to be
/// non-negative, as in MPI.
pub(crate) const COLLECTIVE_TAG_BASE: i32 = -0x4000_0000;

/// A communicator handle: its [`CommCtx`] — the world, the group mapping
/// communicator ranks to world ranks, this rank's position, the rank's
/// clock — and the per-communicator sequence counters.
///
/// `Comm` is `Send` **and** `Sync`: under `MPI_THREAD_MULTIPLE` several
/// threads of one rank may issue point-to-point calls, probes, and
/// request operations on a shared `&Comm` concurrently (the sequence
/// counters are atomic and the mailbox paths take the mailbox lock). Like
/// an `MPI_Comm` it still logically belongs to one *rank* — derived
/// communicators share the rank's clock — and MPI's own ordering rules
/// remain the caller's burden: collectives (including the nonblocking
/// initiations, which draw from the shared sequence counter) must be
/// issued in one well-defined order per communicator, which means from
/// one thread at a time.
pub struct Comm {
    /// Immutable for the communicator's life, so a request shares it for
    /// one reference count.
    ctx: Arc<CommCtx>,
    /// Per-communicator sequence number for deterministic derived-comm ids.
    derive_seq: AtomicU64,
    /// Collective sequence number: every rank issues collectives on a
    /// communicator in the same order (an MPI rule), so per-rank counters
    /// agree and give each outstanding collective its own tag.
    nbc_seq: AtomicU64,
    /// Agreement sequence number (same symmetric-usage contract as
    /// `nbc_seq`: every rank calls `agree`/`shrink` on a communicator in
    /// the same order, so per-rank counters line up).
    agree_seq: AtomicU64,
}

impl Comm {
    fn new(ctx: CommCtx) -> Comm {
        Comm {
            ctx: Arc::new(ctx),
            derive_seq: AtomicU64::new(0),
            nbc_seq: AtomicU64::new(0),
            agree_seq: AtomicU64::new(0),
        }
    }

    /// The world communicator for `rank` (`MPI_COMM_WORLD`).
    pub(crate) fn world(world: Arc<World>, rank: u32) -> Comm {
        let group = Arc::new((0..world.size).collect());
        let clock = Arc::new(Mutex::new(Clock::new()));
        world.register_clock(rank, Arc::clone(&clock));
        let acked = Arc::new(AtomicU64::new(0));
        Comm::new(CommCtx { world, group, rank, comm_id: 0, clock, acked })
    }

    /// A communicator derived from this one (split, create, dup, shrink):
    /// the same world, and the rank's clock and acknowledgement epoch.
    fn derived(&self, comm_id: u64, group: Arc<Vec<u32>>, rank: u32) -> Comm {
        let ctx = &self.ctx;
        Comm::new(CommCtx {
            world: Arc::clone(&ctx.world),
            group,
            rank,
            comm_id,
            clock: Arc::clone(&ctx.clock),
            acked: Arc::clone(&ctx.acked),
        })
    }

    /// Rank within this communicator (`MPI_Comm_rank`).
    pub fn rank(&self) -> u32 {
        self.ctx.rank
    }

    /// Number of ranks in this communicator (`MPI_Comm_size`).
    pub fn size(&self) -> u32 {
        self.ctx.size()
    }

    /// World rank backing a communicator rank.
    pub fn world_rank(&self, comm_rank: u32) -> u32 {
        self.ctx.group[comm_rank as usize]
    }

    /// Elapsed time in seconds (`MPI_Wtime`): virtual seconds in
    /// simulated-time mode, host monotonic time otherwise.
    pub fn wtime(&self) -> f64 {
        self.ctx.clock.lock().wtime(&self.ctx.world.mode)
    }

    /// Current virtual clock in µs (0 in real mode). Used by harnesses to
    /// read per-rank completion times.
    pub fn virtual_time_us(&self) -> f64 {
        self.ctx.clock.lock().virtual_us
    }

    /// Charge extra per-call software overhead to this rank's virtual
    /// clock. The embedder charges its measured translation cost here so
    /// simulated timings include the Wasm path's software cost.
    pub fn charge_overhead_us(&self, us: f64) {
        if matches!(self.ctx.world.mode, ClockMode::Virtual(_)) {
            self.ctx.clock.lock().charge(us);
        }
    }

    /// Per-call fault hook: records the op label + call count for the
    /// watchdog report and evaluates the world's fault plan. A rank the
    /// plan kills here (or that already died) gets `RankFailed` with its
    /// *own* world rank — once dead, every further MPI call fails. The
    /// label is a reference to a `'static` label, so recording it is one
    /// store; the clock is read only when a plan is attached.
    #[inline]
    pub(crate) fn fault_step(&self, op: &'static &'static str) -> Result<(), MpiError> {
        let ctx = &*self.ctx;
        ctx.world.fault_step(ctx.my_world(), op, || match &ctx.world.mode {
            ClockMode::Virtual(_) => ctx.clock.lock().virtual_us,
            ClockMode::Real => ctx.clock.lock().wtime(&ClockMode::Real) * 1e6,
        })
    }

    /// Failure predicate for blocking probes: a probe of a dead peer (or a
    /// wildcard probe while an unacknowledged failure is outstanding) can
    /// never be satisfied, so it returns `RankFailed` instead of waiting
    /// forever. Reported ranks follow the receive-path convention: the
    /// comm rank for a specific source, the world rank for wildcards.
    fn probe_peer_failure(&self, src: Source) -> Option<MpiError> {
        match src {
            Source::Rank(r) => {
                let w = *self.ctx.group.get(r as usize)?;
                self.ctx.world.is_failed(w).then_some(MpiError::RankFailed { rank: r })
            }
            Source::Any => self
                .ctx
                .world
                .failed_since(self.ctx.acked.load(Ordering::SeqCst))
                .map(|rank| MpiError::RankFailed { rank }),
        }
    }

    /// The operation context handed to a request: one reference count.
    pub(crate) fn ctx(&self) -> Arc<CommCtx> {
        Arc::clone(&self.ctx)
    }

    /// Initiate a collective — the one entry every `Comm::X` and
    /// `Comm::iX` funnels into: the call's one clock charge and fault guard
    /// point, the initiation's own tag, then `build`'s argument checks and
    /// schedule selection.
    fn start_coll<'a>(
        &self,
        kind: CollKind,
        build: impl FnOnce(&CommCtx, i32) -> Result<CollExec, MpiError>,
    ) -> Started<'a> {
        self.ctx.charge_call();
        self.fault_step(kind.label())?;
        let tag = nbc_tag(self.nbc_seq.fetch_add(1, Ordering::Relaxed));
        let exec = build(&self.ctx, tag)?;
        Ok(Request::coll(self.ctx(), exec))
    }

    /// World-wide protocol counters (eager vs rendezvous traffic).
    pub fn protocol_stats(&self) -> ProtocolSnapshot {
        self.ctx.world.stats.snapshot()
    }

    /// Blocking standard-mode send (`MPI_Send`). Payloads at or below the
    /// protocol's eager threshold are buffered (waiting for mailbox credit
    /// when the destination's eager budget is full); larger payloads use
    /// the rendezvous protocol and return once the receiver has drained
    /// the bytes straight out of `buf` — standard-mode semantics: the call
    /// may block until the matching receive.
    ///
    /// Note the progress-at-completion matching model: a blocking send
    /// does not drive this rank's *own* posted [`Comm::irecv`] requests
    /// while parked. Ranks that post receives and then block in symmetric
    /// sends should use [`Comm::sendrecv`], or `isend` and complete it in
    /// one set with the receives (`Request::wait_all`: the rest of the set
    /// progresses while one request is waited for). The Wasm embedder's
    /// blocking verbs wait the same way, with the rank's whole request
    /// table as the rest of the set — the MPI progress guarantee.
    pub fn send(&self, buf: &[u8], dest: u32, tag: i32) -> Result<(), MpiError> {
        self.ctx.charge_call();
        self.fault_step(&"send")?;
        self.ctx.send_blocking(buf, dest, tag, false)
    }

    /// Blocking synchronous-mode send (`MPI_Ssend`): returns only once
    /// the receiver has matched (and drained) the message. Above the
    /// rendezvous threshold this is exactly [`Comm::send`] — the
    /// handshake already parks the sender — and below it the payload
    /// travels a receipt-acknowledged owned slot instead of completing
    /// eagerly at initiation.
    pub fn ssend(&self, buf: &[u8], dest: u32, tag: i32) -> Result<(), MpiError> {
        self.ctx.charge_call();
        self.fault_step(&"ssend")?;
        self.ctx.send_blocking(buf, dest, tag, true)
    }

    /// Blocking receive into `buf` (`MPI_Recv`). Posts a receive with the
    /// rank's mailbox (claiming the earliest queued match, or waiting in
    /// the posted queue where arrivals match it in posted order) and
    /// delivers the matched message. The message must fit
    /// (`MPI_ERR_TRUNCATE` otherwise, with the message consumed, as real
    /// MPI does). Rendezvous payloads are copied directly from the
    /// sender's buffer into `buf`.
    pub fn recv(&self, buf: &mut [u8], src: Source, tag: Tag) -> Result<Status, MpiError> {
        let msg = self.wait_match(src, tag)?;
        let (status, _) = self.ctx.deliver(msg, Some(buf))?;
        Ok(status)
    }

    /// Blocking receive returning an owned buffer (no size known upfront).
    pub fn recv_vec(&self, src: Source, tag: Tag) -> Result<(Vec<u8>, Status), MpiError> {
        let msg = self.wait_match(src, tag)?;
        let (status, data) = self.ctx.deliver(msg, None)?;
        Ok((data.expect("owned delivery"), status))
    }

    /// The head of a blocking receive: post it and wait for its match.
    fn wait_match(&self, src: Source, tag: Tag) -> Result<Message, MpiError> {
        self.enter_recv(&"recv", src)?;
        let mut recv = self.ctx.post_recv(src, tag);
        self.ctx.block(|| recv.poll().transpose())
    }

    /// Combined send + receive (`MPI_Sendrecv`). The send is initiated
    /// nonblockingly before the receive so paired exchanges cannot
    /// deadlock even when both payloads use the rendezvous protocol. The
    /// send is always driven to completion — even when the receive errors
    /// — because cancelling it would un-send a message the peer may
    /// already be blocked waiting for.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        send_buf: &[u8],
        dest: u32,
        send_tag: i32,
        recv_buf: &mut [u8],
        src: Source,
        recv_tag: Tag,
    ) -> Result<Status, MpiError> {
        let mut sreq = self.isend(send_buf, dest, send_tag)?;
        let recv_result = self.recv(recv_buf, src, recv_tag);
        let send_result = sreq.wait();
        let st = recv_result?;
        send_result?;
        Ok(st)
    }

    /// This rank's mailbox.
    fn mailbox(&self) -> &Mailbox {
        self.ctx.world.mailbox(self.ctx.my_world())
    }

    /// This rank's doorbell: what every blocking call of the rank waits
    /// on. An embedder's own [`crate::RequestSet`] names it.
    pub fn doorbell(&self) -> &Doorbell {
        &self.mailbox().bell
    }

    /// The guard point of a receive or probe from `src`.
    fn enter_recv(&self, op: &'static &'static str, src: Source) -> Result<(), MpiError> {
        self.fault_step(op)?;
        match src {
            Source::Rank(r) => self.ctx.check_rank(r),
            Source::Any => Ok(()),
        }
    }

    fn matcher(&self, src: Source, tag: Tag) -> impl FnMut(&Message) -> bool {
        CommCtx::matcher(self.ctx.comm_id, src, tag)
    }

    /// Charge a *successful* probe to the rank's virtual clock: observing
    /// a message synchronizes the receiver with its arrival (`advance_to`
    /// departure + wire time, exactly what delivery will charge — `max`,
    /// so probe-then-receive never double-bills the wire) plus one call
    /// overhead. Probe *misses* are free in virtual time in both the
    /// blocking and the polling form: an `Iprobe` poll loop must not spin
    /// simulated time forward while waiting for a peer, so the two clock
    /// modes stay consistent (real mode charges nothing either way).
    fn charge_probe(&self, info: &ProbeInfo) {
        if let ClockMode::Virtual(model) = &self.ctx.world.mode {
            let me = self.ctx.my_world();
            let wire = model.profile.p2p_time(info.src_world, me, info.bytes);
            let mut clock = self.ctx.clock.lock();
            clock.advance_to(info.sent_at_us + wire.as_micros());
            clock.charge(model.call_overhead_us);
        }
    }

    fn probe_status(&self, info: &ProbeInfo) -> Status {
        self.charge_probe(info);
        Status::msg(info.src_in_comm, info.tag, info.bytes)
    }

    /// Non-blocking probe (`MPI_Iprobe`): returns the status of the
    /// earliest matching pending message — the one a receive posted now
    /// would claim — without receiving it. Wildcards skip internal
    /// collective traffic, like receives do, and messages already matched
    /// to a posted receive are not probe-visible (real MPI semantics).
    pub fn iprobe(&self, src: Source, tag: Tag) -> Result<Option<Status>, MpiError> {
        self.enter_recv(&"iprobe", src)?;
        let info = self.mailbox().peek_matching(self.matcher(src, tag))?;
        Ok(info.map(|info| self.probe_status(&info)))
    }

    /// Blocking probe (`MPI_Probe`): wait until a matching message is
    /// pending, returning its status without receiving it. The message
    /// stays queued — but under `MPI_THREAD_MULTIPLE` another thread may
    /// receive it first; use [`Comm::mprobe`] for the race-free form.
    pub fn probe(&self, src: Source, tag: Tag) -> Result<Status, MpiError> {
        self.enter_recv(&"probe", src)?;
        self.ctx.block(|| self.probe_look(src, tag))
    }

    /// One look of a blocking probe, past its guard point: the status of
    /// the earliest matching pending message, `None` while there is none,
    /// and `Err` once none can come — the world shut down, or the awaited
    /// sender died (for a wildcard, a failure not yet acknowledged). An
    /// embedder that drives its own requests between looks waits on it
    /// with [`crate::Request::drive`].
    pub fn probe_look(&self, src: Source, tag: Tag) -> Option<Result<Status, MpiError>> {
        let found = self.mailbox().peek_matching(self.matcher(src, tag));
        self.look(src, found).map(|hit| hit.map(|info| self.probe_status(&info)))
    }

    /// [`Comm::probe_look`] for a matched probe: a hit is extracted.
    pub fn mprobe_look(
        &self,
        src: Source,
        tag: Tag,
    ) -> Option<Result<(MpiMessage, Status), MpiError>> {
        let found = self.mailbox().try_take_matching(self.matcher(src, tag));
        self.look(src, found).map(|hit| hit.map(|msg| self.extracted(msg)))
    }

    /// A probe's look: what it found, else the failure that means it never
    /// will.
    fn look<T>(
        &self,
        src: Source,
        found: Result<Option<T>, MpiError>,
    ) -> Option<Result<T, MpiError>> {
        found.transpose().or_else(|| self.probe_peer_failure(src).map(Err))
    }

    /// A message a matched probe took out of the queue, as its handle.
    fn extracted(&self, msg: Message) -> (MpiMessage, Status) {
        let st = self.probe_status(&msg.probe_info());
        (MpiMessage { msg: Some(msg), ctx: self.ctx() }, st)
    }

    /// Non-blocking matched probe (`MPI_Improbe`): atomically *extract*
    /// the earliest matching pending message as an [`MpiMessage`] handle.
    /// Once extracted, no concurrent receive or probe can see the message
    /// — only [`MpiMessage::recv`]/[`MpiMessage::imrecv`] on the returned
    /// handle — which is what makes probe-then-receive sound under
    /// `MPI_THREAD_MULTIPLE`. Dropping the handle unreceived requeues the
    /// message at its original arrival position.
    pub fn improbe(
        &self,
        src: Source,
        tag: Tag,
    ) -> Result<Option<(MpiMessage, Status)>, MpiError> {
        self.enter_recv(&"improbe", src)?;
        let found = self.mailbox().try_take_matching(self.matcher(src, tag))?;
        Ok(found.map(|msg| self.extracted(msg)))
    }

    /// Diagnostics/stress-test hook: panic unless this rank's mailbox
    /// upholds the two-queue invariants (message queue in seq order, no
    /// queued message matching any posted receive). Takes the mailbox
    /// lock, so every snapshot it checks is one the matching paths could
    /// have observed — safe to call concurrently with any traffic.
    pub fn check_mailbox_invariants(&self) {
        self.mailbox().check_invariants();
    }

    /// Blocking matched probe (`MPI_Mprobe`): wait until a matching
    /// message is pending and extract it (see [`Comm::improbe`]).
    pub fn mprobe(&self, src: Source, tag: Tag) -> Result<(MpiMessage, Status), MpiError> {
        self.enter_recv(&"mprobe", src)?;
        self.ctx.block(|| self.mprobe_look(src, tag))
    }

    // --- nonblocking operations (see crate::request) --------------------
    //
    // Every buffer is a span (`crate::buf`): a borrowed slice, held for the
    // request's lifetime, or a `'static` span an embedder pinned. Either
    // way the substrate reads and writes it at poll time, until the request
    // completes or is dropped — the schedule of a collective, and a peer
    // that drains a rendezvous payload straight out of a send buffer.

    /// Nonblocking send (`MPI_Isend`). Above the eager threshold no copy
    /// of `buf` is ever made: the receiver drains it directly at its
    /// matching receive.
    pub fn isend<'a>(&self, buf: impl Into<SendBuf<'a>>, dest: u32, tag: i32) -> Started<'a> {
        self.ctx.charge_call();
        self.fault_step(&"isend")?;
        Request::send(self.ctx(), SendPayload::pinned(buf.into()), dest, tag, false)
    }

    /// Nonblocking synchronous-mode send (`MPI_Issend`): like
    /// [`Comm::isend`], but the request completes only once the receiver
    /// has matched the message.
    pub fn issend<'a>(&self, buf: impl Into<SendBuf<'a>>, dest: u32, tag: i32) -> Started<'a> {
        self.ctx.charge_call();
        self.fault_step(&"issend")?;
        Request::send(self.ctx(), SendPayload::pinned(buf.into()), dest, tag, true)
    }

    /// Nonblocking send of an owned payload (buffered-mode sends and
    /// host-packed derived-datatype sends): the protocol layer takes the
    /// bytes, so no caller buffer needs pinning. The request still must
    /// run to completion (dropping it would retract an undelivered
    /// message, as with any send).
    pub fn isend_owned(&self, data: Box<[u8]>, dest: u32, tag: i32) -> Started<'static> {
        self.ctx.charge_call();
        self.fault_step(&"isend")?;
        Request::send(self.ctx(), SendPayload::Owned(data), dest, tag, false)
    }

    /// Synchronous-mode variant of [`Comm::isend_owned`]
    /// (host-packed derived-datatype `MPI_Issend`): completion additionally
    /// implies the receiver has matched the message.
    pub fn issend_owned(&self, data: Box<[u8]>, dest: u32, tag: i32) -> Started<'static> {
        self.ctx.charge_call();
        self.fault_step(&"issend")?;
        Request::send(self.ctx(), SendPayload::Owned(data), dest, tag, true)
    }

    /// Nonblocking receive (`MPI_Irecv`): matching and delivery happen as
    /// the request is progressed (`wait`/`test`/completion sets).
    pub fn irecv<'a>(&self, buf: impl Into<RecvBuf<'a>>, src: Source, tag: Tag) -> Started<'a> {
        self.ctx.charge_call();
        self.fault_step(&"irecv")?;
        Request::recv(self.ctx(), buf.into(), src, tag)
    }

    /// A receive post *without* the per-call clock charge: for embedders
    /// composing a blocking receive out of request primitives (post +
    /// progress loop). The delivery path charges the one receive call;
    /// charging here too would double-bill `MPI_Recv`. It is still a fault
    /// guard point — only the clock charge is skipped, never the failure
    /// check, or a dead rank could park in a blocking receive.
    pub fn irecv_uncharged<'a>(
        &self,
        buf: impl Into<RecvBuf<'a>>,
        src: Source,
        tag: Tag,
    ) -> Started<'a> {
        self.fault_step(&"recv")?;
        Request::recv(self.ctx(), buf.into(), src, tag)
    }

    /// Persistent send (`MPI_Send_init`): inactive until started; every
    /// `Start` sends what `buf` holds then.
    pub fn send_init<'a>(&self, buf: impl Into<SendBuf<'a>>, dest: u32, tag: i32) -> Started<'a> {
        Request::send_init(self.ctx(), buf.into(), dest, tag)
    }

    /// Persistent receive (`MPI_Recv_init`).
    pub fn recv_init<'a>(&self, buf: impl Into<RecvBuf<'a>>, src: Source, tag: Tag) -> Started<'a> {
        Request::recv_init(self.ctx(), buf.into(), src, tag)
    }

    /// Nonblocking barrier (`MPI_Ibarrier`).
    pub fn ibarrier(&self) -> Started<'static> {
        self.start_coll(CollKind::Barrier, |ctx, tag| Ok(CollExec::barrier(ctx, tag)))
    }

    /// Nonblocking broadcast (`MPI_Ibcast`): the root's `buf` is only read.
    pub fn ibcast<'a>(&self, buf: impl Into<RecvBuf<'a>>, root: u32) -> Started<'a> {
        let buf = buf.into();
        self.start_coll(CollKind::Bcast, |ctx, tag| CollExec::bcast(ctx, tag, buf, root))
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`): the result lands in
    /// `recv_buf` when the request completes.
    pub fn iallreduce<'a>(
        &self,
        send_buf: impl Into<SendBuf<'a>>,
        recv_buf: impl Into<RecvBuf<'a>>,
        dt: Datatype,
        op: ReduceOp,
    ) -> Started<'a> {
        let (send, recv) = (send_buf.into(), recv_buf.into());
        self.start_coll(CollKind::Allreduce, |ctx, tag| {
            CollExec::allreduce(ctx, tag, send, recv, dt, op)
        })
    }

    /// Nonblocking reduce (`MPI_Ireduce`); the root passes `recv_buf`.
    pub fn ireduce<'a>(
        &self,
        send_buf: impl Into<SendBuf<'a>>,
        recv_buf: Option<impl Into<RecvBuf<'a>>>,
        dt: Datatype,
        op: ReduceOp,
        root: u32,
    ) -> Started<'a> {
        let (send, recv) = (send_buf.into(), recv_buf.map(Into::into));
        self.start_coll(CollKind::Reduce, |ctx, tag| {
            CollExec::reduce(ctx, tag, send, recv, dt, op, root)
        })
    }

    /// Nonblocking gather (`MPI_Igather`): the root's `recv_buf` collects
    /// the blocks in rank order.
    pub fn igather<'a>(
        &self,
        send_buf: impl Into<SendBuf<'a>>,
        recv_buf: Option<impl Into<RecvBuf<'a>>>,
        root: u32,
    ) -> Started<'a> {
        let (send, recv) = (send_buf.into(), recv_buf.map(Into::into));
        self.start_coll(CollKind::Gather, |ctx, tag| CollExec::gather(ctx, tag, send, recv, root))
    }

    /// Nonblocking scatter (`MPI_Iscatter`): the root's `send_buf` holds
    /// `p` equal blocks; each rank's block lands in `recv_buf`.
    pub fn iscatter<'a>(
        &self,
        send_buf: Option<impl Into<SendBuf<'a>>>,
        recv_buf: impl Into<RecvBuf<'a>>,
        root: u32,
    ) -> Started<'a> {
        let (send, recv) = (send_buf.map(Into::into), recv_buf.into());
        self.start_coll(CollKind::Scatter, |ctx, tag| CollExec::scatter(ctx, tag, send, recv, root))
    }

    /// Nonblocking allgather (`MPI_Iallgather`).
    pub fn iallgather<'a>(
        &self,
        send_buf: impl Into<SendBuf<'a>>,
        recv_buf: impl Into<RecvBuf<'a>>,
    ) -> Started<'a> {
        let (send, recv) = (send_buf.into(), recv_buf.into());
        self.start_coll(CollKind::Allgather, |ctx, tag| CollExec::allgather(ctx, tag, send, recv))
    }

    /// Nonblocking all-to-all (`MPI_Ialltoall`).
    pub fn ialltoall<'a>(
        &self,
        send_buf: impl Into<SendBuf<'a>>,
        recv_buf: impl Into<RecvBuf<'a>>,
    ) -> Started<'a> {
        let (send, recv) = (send_buf.into(), recv_buf.into());
        self.start_coll(CollKind::Alltoall, |ctx, tag| CollExec::alltoall(ctx, tag, send, recv))
    }

    /// Nonblocking vector all-to-all (`MPI_Ialltoallv`). Counts and
    /// displacements are in bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn ialltoallv<'a>(
        &self,
        send_buf: impl Into<SendBuf<'a>>,
        send_counts: &[usize],
        send_displs: &[usize],
        recv_buf: impl Into<RecvBuf<'a>>,
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> Started<'a> {
        let (send, recv) = (send_buf.into(), recv_buf.into());
        let (send_counts, send_displs) = (send_counts.to_vec(), send_displs.to_vec());
        let (recv_counts, recv_displs) = (recv_counts.to_vec(), recv_displs.to_vec());
        let x = Extents { send_counts, send_displs, recv_counts, recv_displs };
        self.start_coll(CollKind::Alltoallv, |ctx, t| CollExec::alltoallv(ctx, t, send, recv, x))
    }

    /// Split into sub-communicators by color, ordered by `(key, rank)`
    /// (`MPI_Comm_split`). All ranks of the communicator must call this.
    /// Returns `None` for `color < 0` (`MPI_UNDEFINED`).
    pub fn split(&self, color: i32, key: i32) -> Result<Option<Comm>, MpiError> {
        // Allgather (color, key) over this communicator.
        let mut mine = [0u8; 8];
        mine[0..4].copy_from_slice(&color.to_le_bytes());
        mine[4..8].copy_from_slice(&key.to_le_bytes());
        let all = self.allgather_bytes(&mine)?;

        let seq = self.derive_seq.fetch_add(1, Ordering::Relaxed);
        if color < 0 {
            return Ok(None);
        }

        // Members of my color, sorted by (key, old rank).
        let mut members: Vec<(i32, u32)> = Vec::new();
        for r in 0..self.size() {
            let off = r as usize * 8;
            let c = i32::from_le_bytes(all[off..off + 4].try_into().unwrap());
            let k = i32::from_le_bytes(all[off + 4..off + 8].try_into().unwrap());
            if c == color {
                members.push((k, r));
            }
        }
        members.sort_unstable();
        let group: Vec<u32> =
            members.iter().map(|&(_, r)| self.ctx.group[r as usize]).collect();
        let new_rank = members
            .iter()
            .position(|&(_, r)| r == self.ctx.rank)
            .expect("calling rank must be in its own color") as u32;

        // Deterministic id every member computes identically.
        let id = self
            .ctx
            .comm_id
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seq)
            .wrapping_mul(31)
            .wrapping_add(color as u64 + 1);

        Ok(Some(self.derived(id, Arc::new(group), new_rank)))
    }

    /// The communicator's group as world ranks, indexed by communicator
    /// rank (`MPI_Comm_group` — the embedder's group objects are plain
    /// rank lists over this).
    pub fn group_world_ranks(&self) -> Vec<u32> {
        self.ctx.group.as_ref().clone()
    }

    /// Create a sub-communicator from an explicit member list
    /// (`MPI_Comm_create`). `world_ranks` lists the members as *world*
    /// ranks in new-communicator rank order; every member of `self` must
    /// call collectively with an equal list (verified with an allgathered
    /// group hash over the `split` plumbing — a mismatch is
    /// `CollectiveMismatch`). Returns `None` for callers outside the
    /// group (`MPI_COMM_NULL`).
    pub fn create_from_group(
        &self,
        world_ranks: &[u32],
    ) -> Result<Option<Comm>, MpiError> {
        self.ctx.charge_call();
        self.fault_step(&"comm_create")?;
        for w in world_ranks {
            if !self.ctx.group.contains(w) {
                return Err(MpiError::InvalidRank {
                    rank: *w,
                    size: self.size(),
                });
            }
        }
        // Collective verification: allgather an order-sensitive group
        // hash so divergent member lists fail loudly instead of producing
        // communicators whose traffic silently cross-matches.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for w in world_ranks {
            hash ^= *w as u64 + 1;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let all = self.allgather_bytes(&hash.to_le_bytes())?;
        let seq = self.derive_seq.fetch_add(1, Ordering::Relaxed);
        for r in 0..self.size() as usize {
            let h = u64::from_le_bytes(all[r * 8..r * 8 + 8].try_into().unwrap());
            if h != hash {
                return Err(MpiError::CollectiveMismatch(format!(
                    "comm_create group differs between rank {r} and rank {}",
                    self.ctx.rank
                )));
            }
        }

        let me = self.ctx.my_world();
        let Some(new_rank) = world_ranks.iter().position(|&w| w == me) else {
            return Ok(None);
        };
        // Deterministic id every member computes identically (the same
        // construction discipline as `split`).
        let id = self
            .ctx
            .comm_id
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seq)
            .wrapping_mul(61)
            .wrapping_add(hash | 1);
        Ok(Some(self.derived(id, Arc::new(world_ranks.to_vec()), new_rank as u32)))
    }

    /// Duplicate the communicator (`MPI_Comm_dup`): same group, fresh
    /// message-matching space.
    pub fn dup(&self) -> Result<Comm, MpiError> {
        let seq = self.derive_seq.fetch_add(1, Ordering::Relaxed);
        let id = self
            .ctx
            .comm_id
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(seq)
            .wrapping_add(1);
        Ok(self.derived(id, Arc::clone(&self.ctx.group), self.ctx.rank))
    }

    /// Internal: fixed-size allgather used by `split` (and the public
    /// allgather). Returns `size * bytes.len()` bytes ordered by rank.
    pub(crate) fn allgather_bytes(&self, bytes: &[u8]) -> Result<Vec<u8>, MpiError> {
        let mut out = vec![0u8; bytes.len() * self.size() as usize];
        self.allgather(bytes, &mut out)?;
        Ok(out)
    }

    // --- fault tolerance (ULFM-style) -----------------------------------

    /// Failed members of this communicator, as communicator ranks in
    /// ascending order (`MPI_Comm_failure_get_acked` without the ack).
    pub fn failed_ranks(&self) -> Vec<u32> {
        let failed = self.ctx.world.failed_ranks();
        self.ctx
            .group
            .iter()
            .enumerate()
            .filter(|(_, w)| failed.contains(w))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Acknowledge every failure known so far (ULFM
    /// `MPI_Comm_failure_ack`): wildcard (`Source::Any`) receives posted
    /// *after* this call ignore the acknowledged failures and wait for the
    /// surviving senders. Returns the acknowledged comm ranks.
    pub fn ack_failed(&self) -> Vec<u32> {
        let ranks = self.failed_ranks();
        self.ctx.acked.store(self.ctx.world.failure_epoch(), Ordering::SeqCst);
        ranks
    }

    /// Declare *this* rank failed (the embedder's hook for turning a guest
    /// trap or resource-limit kill into a rank failure peers can observe).
    /// Idempotent; every later MPI call on this rank returns `RankFailed`.
    pub fn fail_self(&self) {
        self.ctx.world.fail_rank(self.ctx.my_world());
    }

    /// ULFM-style agreement (`MPI_Comm_agree`): bitwise-AND `flag` across
    /// the communicator's *surviving* members. Blocks until every member
    /// has contributed or failed; every survivor then returns the same
    /// value, even if ranks fail mid-agreement. Like the collectives, all
    /// survivors must call `agree`/`shrink` on a communicator in the same
    /// order.
    pub fn agree(&self, flag: u32) -> Result<u32, MpiError> {
        self.ctx.charge_call();
        self.fault_step(&"agree")?;
        let ctx = &*self.ctx;
        let seq = self.agree_seq.fetch_add(1, Ordering::Relaxed);
        let (value, _failed) =
            ctx.world.agree(ctx.comm_id, seq, &ctx.group, ctx.rank as usize, flag)?;
        Ok(value)
    }

    /// ULFM-style shrink (`MPI_Comm_shrink`): agree on the failed set and
    /// return a new communicator containing only survivors (rank order
    /// preserved). Every survivor computes the same group and the same
    /// derived id; a failed caller gets `RankFailed`.
    pub fn shrink(&self) -> Result<Comm, MpiError> {
        self.ctx.charge_call();
        self.fault_step(&"shrink")?;
        let ctx = &*self.ctx;
        let seq = self.agree_seq.fetch_add(1, Ordering::Relaxed);
        let (_, failed) =
            ctx.world.agree(ctx.comm_id, seq, &ctx.group, ctx.rank as usize, u32::MAX)?;
        let group: Vec<u32> = ctx.group.iter().copied().filter(|w| !failed.contains(w)).collect();
        let me = ctx.my_world();
        let new_rank = group
            .iter()
            .position(|&w| w == me)
            .ok_or(MpiError::RankFailed { rank: me })? as u32;
        // Deterministic id every survivor computes identically (the same
        // construction discipline as `split`).
        let id = self
            .ctx
            .comm_id
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seq)
            .wrapping_mul(131)
            .wrapping_add(7);
        Ok(self.derived(id, Arc::new(group), new_rank))
    }
}

/// A message extracted from the pending queue by a matched probe
/// (`MPI_Message`, from [`Comm::mprobe`]/[`Comm::improbe`]).
///
/// The handle *owns* the message: no receive, probe, or wildcard on the
/// communicator can see it anymore, so the eventual
/// [`MpiMessage::recv`]/[`MpiMessage::imrecv`] is immune to being raced —
/// the property `MPI_Mprobe` exists for. Dropping the handle without
/// receiving requeues the message at its original arrival position
/// (re-offering it to posted receives first), so an abandoned probe never
/// loses or reorders anyone's data.
pub struct MpiMessage {
    msg: Option<Message>,
    ctx: Arc<CommCtx>,
}

impl MpiMessage {
    /// The extracted message's status (source, tag, payload size).
    pub fn status(&self) -> Status {
        let m = self.msg.as_ref().expect("message already received");
        Status::msg(m.src_in_comm, m.tag, m.payload.len())
    }

    /// Blocking matched receive (`MPI_Mrecv`): deliver the payload into
    /// `buf`. Never actually blocks — the message is already here; only
    /// the delivery (payload copy, virtual-clock charge, rendezvous
    /// completion) runs. Truncation consumes the message and completes
    /// any handshake, as `MPI_Recv` does.
    pub fn recv(mut self, buf: &mut [u8]) -> Result<Status, MpiError> {
        let msg = self.msg.take().expect("message already received");
        let (st, _) = self.ctx.deliver(msg, Some(buf))?;
        Ok(st)
    }

    /// Matched receive into an owned buffer (size from the message).
    pub fn recv_vec(mut self) -> Result<(Vec<u8>, Status), MpiError> {
        let msg = self.msg.take().expect("message already received");
        let (st, data) = self.ctx.deliver(msg, None)?;
        Ok((data.expect("owned delivery"), st))
    }

    /// Nonblocking matched receive (`MPI_Imrecv`): a request that delivers
    /// this message into `buf` when progressed. The request is complete on
    /// its first progress step (the match already happened); dropping it
    /// undelivered requeues the message.
    pub fn imrecv<'a>(mut self, buf: impl Into<RecvBuf<'a>>) -> Request<'a> {
        let msg = self.msg.take().expect("message already received");
        Request::recv_matched(self.ctx.clone(), buf.into(), msg)
    }
}

impl Drop for MpiMessage {
    fn drop(&mut self) {
        if let Some(msg) = self.msg.take() {
            self.ctx.world.mailbox(self.ctx.my_world()).requeue(msg);
        }
    }
}

impl std::fmt::Debug for MpiMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpiMessage")
            .field("received", &self.msg.is_none())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_world;

    #[test]
    fn send_recv_roundtrip() {
        run_world(2, |comm| {
            if comm.rank() == 0 {
                comm.send(b"hello", 1, 7).unwrap();
            } else {
                let mut buf = [0u8; 5];
                let st = comm.recv(&mut buf, Source::Rank(0), Tag::Value(7)).unwrap();
                assert_eq!(&buf, b"hello");
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 7);
                assert_eq!(st.bytes, 5);
            }
        });
    }

    #[test]
    fn any_source_and_any_tag() {
        run_world(3, |comm| {
            if comm.rank() != 0 {
                comm.send(&comm.rank().to_le_bytes(), 0, comm.rank() as i32).unwrap();
            } else {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..2 {
                    let (data, st) = comm.recv_vec(Source::Any, Tag::Any).unwrap();
                    let v = u32::from_le_bytes(data.try_into().unwrap());
                    assert_eq!(v, st.source);
                    assert_eq!(st.tag as u32, st.source);
                    seen.insert(v);
                }
                assert_eq!(seen.len(), 2);
            }
        });
    }

    #[test]
    fn messages_do_not_overtake_per_sender() {
        run_world(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u32 {
                    comm.send(&i.to_le_bytes(), 1, 0).unwrap();
                }
            } else {
                for i in 0..100u32 {
                    let mut buf = [0u8; 4];
                    comm.recv(&mut buf, Source::Rank(0), Tag::Value(0)).unwrap();
                    assert_eq!(u32::from_le_bytes(buf), i);
                }
            }
        });
    }

    #[test]
    fn truncation_is_reported() {
        run_world(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[0u8; 64], 1, 0).unwrap();
            } else {
                let mut small = [0u8; 8];
                let err = comm.recv(&mut small, Source::Rank(0), Tag::Any).unwrap_err();
                assert!(matches!(err, MpiError::Truncated { message_len: 64, buffer_len: 8 }));
            }
        });
    }

    #[test]
    fn invalid_rank_is_rejected() {
        run_world(2, |comm| {
            let err = comm.send(b"x", 5, 0).unwrap_err();
            assert!(matches!(err, MpiError::InvalidRank { rank: 5, size: 2 }));
        });
    }

    #[test]
    fn sendrecv_exchanges_between_pairs() {
        run_world(2, |comm| {
            let me = comm.rank();
            let other = 1 - me;
            let mut buf = [0u8; 4];
            comm.sendrecv(
                &me.to_le_bytes(),
                other,
                3,
                &mut buf,
                Source::Rank(other),
                Tag::Value(3),
            )
            .unwrap();
            assert_eq!(u32::from_le_bytes(buf), other);
        });
    }

    #[test]
    fn iprobe_sees_pending_message() {
        run_world(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1, 2, 3], 1, 9).unwrap();
                // Signal completion via a second message on another tag.
                comm.send(&[], 1, 10).unwrap();
            } else {
                let mut sync = [0u8; 0];
                comm.recv(&mut sync, Source::Rank(0), Tag::Value(10)).unwrap();
                let st = comm.iprobe(Source::Any, Tag::Value(9)).unwrap().unwrap();
                assert_eq!(st.bytes, 3);
                assert!(comm.iprobe(Source::Any, Tag::Value(99)).unwrap().is_none());
                assert!(comm.iprobe(Source::Rank(7), Tag::Any).is_err(), "rank checked");
                let mut buf = [0u8; 3];
                comm.recv(&mut buf, Source::Rank(0), Tag::Value(9)).unwrap();
            }
        });
    }

    #[test]
    fn split_creates_disjoint_comms() {
        run_world(4, |comm| {
            let color = (comm.rank() % 2) as i32;
            let sub = comm.split(color, comm.rank() as i32).unwrap().unwrap();
            assert_eq!(sub.size(), 2);
            // Even ranks: {0,2} -> sub ranks {0,1}; odd: {1,3}.
            assert_eq!(sub.rank(), comm.rank() / 2);
            // Messages in sub don't leak into world: exchange inside sub.
            let partner = 1 - sub.rank();
            let mut buf = [0u8; 4];
            sub.sendrecv(
                &comm.rank().to_le_bytes(),
                partner,
                0,
                &mut buf,
                Source::Rank(partner),
                Tag::Value(0),
            )
            .unwrap();
            let got = u32::from_le_bytes(buf);
            assert_eq!(got % 2, comm.rank() % 2);
            assert_ne!(got, comm.rank());
        });
    }

    #[test]
    fn split_undefined_color_returns_none() {
        run_world(2, |comm| {
            let sub = comm.split(if comm.rank() == 0 { -1 } else { 0 }, 0).unwrap();
            assert_eq!(sub.is_some(), comm.rank() != 0);
        });
    }

    #[test]
    fn dup_isolates_message_space() {
        run_world(2, |comm| {
            let dup = comm.dup().unwrap();
            if comm.rank() == 0 {
                comm.send(b"world", 1, 5).unwrap();
                dup.send(b"dup__", 1, 5).unwrap();
            } else {
                // Receive from the dup first: the world message must not
                // match even though it was sent earlier with the same tag.
                let mut buf = [0u8; 5];
                dup.recv(&mut buf, Source::Rank(0), Tag::Value(5)).unwrap();
                assert_eq!(&buf, b"dup__");
                comm.recv(&mut buf, Source::Rank(0), Tag::Value(5)).unwrap();
                assert_eq!(&buf, b"world");
            }
        });
    }

    #[test]
    fn wtime_is_monotonic() {
        run_world(1, |comm| {
            let a = comm.wtime();
            let b = comm.wtime();
            assert!(b >= a);
        });
    }
}

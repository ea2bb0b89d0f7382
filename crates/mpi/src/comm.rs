//! Communicators and point-to-point operations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::{Clock, ClockMode};
use crate::error::MpiError;
use crate::message::{Mailbox, Message, ProbeInfo};
use crate::progress::{CommCtx, ProtocolSnapshot, SendPayload};
use crate::request::{nbc_tag, CollExec, Request};
use crate::schedule::Extents;
use crate::world::World;
use crate::{Datatype, ReduceOp};

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

/// A communicator handle. Holds the world, the group mapping communicator
/// ranks to world ranks, this rank's position, and the rank's clock.
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
    world: Arc<World>,
    id: u64,
    /// `group[comm_rank] = world_rank`.
    group: Arc<Vec<u32>>,
    rank: u32,
    clock: Arc<Mutex<Clock>>,
    /// Per-communicator sequence number for deterministic derived-comm ids.
    derive_seq: AtomicU64,
    /// Collective sequence number: every rank issues collectives on a
    /// communicator in the same order (an MPI rule), so per-rank counters
    /// agree and give each outstanding collective its own tag.
    nbc_seq: AtomicU64,
    /// Failure-acknowledgement epoch (ULFM `MPI_Comm_failure_ack`): how
    /// many world failures this *rank* has acknowledged. Wildcard
    /// receives posted afterwards ignore those failures. Shared across
    /// derived communicators, like the clock — acknowledgement is a
    /// rank-level act.
    acked: Arc<AtomicU64>,
    /// Agreement sequence number (same symmetric-usage contract as
    /// `nbc_seq`: every rank calls `agree`/`shrink` on a communicator in
    /// the same order, so per-rank counters line up).
    agree_seq: AtomicU64,
}

impl Comm {
    /// The world communicator for `rank` (`MPI_COMM_WORLD`).
    pub(crate) fn world(world: Arc<World>, rank: u32) -> Comm {
        let group = Arc::new((0..world.size).collect());
        let clock = Arc::new(Mutex::new(Clock::new()));
        world.register_clock(rank, Arc::clone(&clock));
        Comm {
            world,
            id: 0,
            group,
            rank,
            clock,
            derive_seq: AtomicU64::new(0),
            nbc_seq: AtomicU64::new(0),
            acked: Arc::new(AtomicU64::new(0)),
            agree_seq: AtomicU64::new(0),
        }
    }

    /// Rank within this communicator (`MPI_Comm_rank`).
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks in this communicator (`MPI_Comm_size`).
    pub fn size(&self) -> u32 {
        self.group.len() as u32
    }

    /// World rank backing a communicator rank.
    pub fn world_rank(&self, comm_rank: u32) -> u32 {
        self.group[comm_rank as usize]
    }

    /// Elapsed time in seconds (`MPI_Wtime`): virtual seconds in
    /// simulated-time mode, host monotonic time otherwise.
    pub fn wtime(&self) -> f64 {
        self.clock.lock().wtime(&self.world.mode)
    }

    /// Current virtual clock in µs (0 in real mode). Used by harnesses to
    /// read per-rank completion times.
    pub fn virtual_time_us(&self) -> f64 {
        self.clock.lock().virtual_us
    }

    /// Charge extra per-call software overhead to this rank's virtual
    /// clock. The embedder charges its measured translation cost here so
    /// simulated timings include the Wasm path's software cost.
    pub fn charge_overhead_us(&self, us: f64) {
        if matches!(self.world.mode, ClockMode::Virtual(_)) {
            self.clock.lock().charge(us);
        }
    }

    fn check_rank(&self, rank: u32) -> Result<(), MpiError> {
        if rank >= self.size() {
            return Err(MpiError::InvalidRank { rank, size: self.size() });
        }
        Ok(())
    }

    fn charge_call(&self) {
        if let ClockMode::Virtual(model) = &self.world.mode {
            self.clock.lock().charge(model.call_overhead_us);
        }
    }

    /// Per-call fault hook: records the op label + call count for the
    /// watchdog report and evaluates the world's fault plan. A rank the
    /// plan kills here (or that already died) gets `RankFailed` with its
    /// *own* world rank — once dead, every further MPI call fails.
    #[inline]
    pub(crate) fn fault_step(&self, op: &'static str) -> Result<(), MpiError> {
        let me = self.group[self.rank as usize];
        let now_us = match &self.world.mode {
            ClockMode::Virtual(_) => self.clock.lock().virtual_us,
            ClockMode::Real => self.clock.lock().wtime(&ClockMode::Real) * 1e6,
        };
        self.world.fault_step(me, op, now_us)
    }

    /// Failure predicate for blocking probes: a probe of a dead peer (or a
    /// wildcard probe while an unacknowledged failure is outstanding) can
    /// never be satisfied, so it returns `RankFailed` instead of parking
    /// forever. Reported ranks follow the receive-path convention: the
    /// comm rank for a specific source, the world rank for wildcards.
    fn probe_peer_failure(&self, src: Source) -> Option<MpiError> {
        match src {
            Source::Rank(r) => {
                let w = *self.group.get(r as usize)?;
                self.world.is_failed(w).then_some(MpiError::RankFailed { rank: r })
            }
            Source::Any => self
                .world
                .failed_since(self.acked.load(Ordering::SeqCst))
                .map(|rank| MpiError::RankFailed { rank }),
        }
    }

    /// The detached operation context handed to requests (cheap Arc
    /// clones of this communicator's internals).
    pub(crate) fn ctx(&self) -> CommCtx {
        CommCtx {
            world: Arc::clone(&self.world),
            group: Arc::clone(&self.group),
            rank: self.rank,
            comm_id: self.id,
            clock: Arc::clone(&self.clock),
            acked: Arc::clone(&self.acked),
        }
    }

    /// Initiate a collective — the one entry every `Comm::X`, `Comm::iX`
    /// and `Comm::iX_raw` funnels into: the call's one clock charge and
    /// fault guard point, the initiation's own tag, then `build`'s argument
    /// checks and schedule selection.
    fn start_coll(
        &self,
        kind: obs::CollKind,
        build: impl FnOnce(&CommCtx, i32) -> Result<CollExec, MpiError>,
    ) -> Result<Request<'static>, MpiError> {
        self.charge_call();
        self.fault_step(kind.name())?;
        let ctx = self.ctx();
        let tag = nbc_tag(self.nbc_seq.fetch_add(1, Ordering::Relaxed));
        let exec = build(&ctx, tag)?;
        Ok(Request::coll(ctx, exec))
    }

    /// World-wide protocol counters (eager vs rendezvous traffic).
    pub fn protocol_stats(&self) -> ProtocolSnapshot {
        self.world.stats.snapshot()
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
    /// sends should use [`Comm::sendrecv`] or `isend` + `Request::wait_all`
    /// (the Wasm embedder's host functions progress the whole per-rank
    /// request table instead, restoring the MPI progress guarantee).
    pub fn send(&self, buf: &[u8], dest: u32, tag: i32) -> Result<(), MpiError> {
        self.charge_call();
        self.fault_step("send")?;
        self.ctx().send_blocking(buf, dest, tag, false)
    }

    /// Blocking synchronous-mode send (`MPI_Ssend`): returns only once
    /// the receiver has matched (and drained) the message. Above the
    /// rendezvous threshold this is exactly [`Comm::send`] — the
    /// handshake already parks the sender — and below it the payload
    /// travels a receipt-acknowledged owned slot instead of completing
    /// eagerly at initiation.
    pub fn ssend(&self, buf: &[u8], dest: u32, tag: i32) -> Result<(), MpiError> {
        self.charge_call();
        self.fault_step("ssend")?;
        self.ctx().send_blocking(buf, dest, tag, true)
    }

    /// Blocking receive into `buf` (`MPI_Recv`). Posts a receive with the
    /// rank's mailbox (claiming the earliest queued match, or parking on
    /// the posted queue where arrivals match it in posted order) and
    /// delivers the matched message. The message must fit
    /// (`MPI_ERR_TRUNCATE` otherwise, with the message consumed, as real
    /// MPI does). Rendezvous payloads are copied directly from the
    /// sender's buffer into `buf`.
    pub fn recv(&self, buf: &mut [u8], src: Source, tag: Tag) -> Result<Status, MpiError> {
        self.fault_step("recv")?;
        if let Source::Rank(r) = src {
            self.check_rank(r)?;
        }
        let ctx = self.ctx();
        let entry = ctx.post_recv(src, tag);
        let msg = entry.wait()?;
        let (status, _) = ctx.deliver(msg, Some(buf))?;
        Ok(status)
    }

    /// Blocking receive returning an owned buffer (no size known upfront).
    pub fn recv_vec(&self, src: Source, tag: Tag) -> Result<(Vec<u8>, Status), MpiError> {
        self.fault_step("recv")?;
        if let Source::Rank(r) = src {
            self.check_rank(r)?;
        }
        let ctx = self.ctx();
        let entry = ctx.post_recv(src, tag);
        let msg = entry.wait()?;
        let (status, data) = ctx.deliver(msg, None)?;
        Ok((data.expect("owned delivery"), status))
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
        self.world.mailbox(self.group[self.rank as usize])
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
        if let ClockMode::Virtual(model) = &self.world.mode {
            let me = self.group[self.rank as usize];
            let wire = model.profile.p2p_time(info.src_world, me, info.bytes);
            let mut clock = self.clock.lock();
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
        self.fault_step("iprobe")?;
        if let Source::Rank(r) = src {
            self.check_rank(r)?;
        }
        Ok(self
            .mailbox()
            .peek_matching(CommCtx::matcher(self.id, src, tag))
            .map(|info| self.probe_status(&info)))
    }

    /// Blocking probe (`MPI_Probe`): park until a matching message is
    /// pending, returning its status without receiving it. The message
    /// stays queued — but under `MPI_THREAD_MULTIPLE` another thread may
    /// receive it first; use [`Comm::mprobe`] for the race-free form.
    pub fn probe(&self, src: Source, tag: Tag) -> Result<Status, MpiError> {
        self.fault_step("probe")?;
        if let Source::Rank(r) = src {
            self.check_rank(r)?;
        }
        let info = self
            .mailbox()
            .wait_probe(CommCtx::matcher(self.id, src, tag), || self.probe_peer_failure(src))?;
        Ok(self.probe_status(&info))
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
        self.fault_step("improbe")?;
        if let Source::Rank(r) = src {
            self.check_rank(r)?;
        }
        match self.mailbox().try_take_matching(CommCtx::matcher(self.id, src, tag))? {
            Some(msg) => {
                let st = self.probe_status(&msg.probe_info());
                Ok(Some((MpiMessage { msg: Some(msg), ctx: self.ctx() }, st)))
            }
            None => Ok(None),
        }
    }

    /// Diagnostics/stress-test hook: panic unless this rank's mailbox
    /// upholds the two-queue invariants (message queue in seq order, no
    /// queued message matching any posted receive). Takes the mailbox
    /// lock, so every snapshot it checks is one the matching paths could
    /// have observed — safe to call concurrently with any traffic.
    pub fn check_mailbox_invariants(&self) {
        self.mailbox().check_invariants();
    }

    /// Blocking matched probe (`MPI_Mprobe`): park until a matching
    /// message is pending and extract it (see [`Comm::improbe`]).
    pub fn mprobe(&self, src: Source, tag: Tag) -> Result<(MpiMessage, Status), MpiError> {
        self.fault_step("mprobe")?;
        if let Source::Rank(r) = src {
            self.check_rank(r)?;
        }
        let matcher = || CommCtx::matcher(self.id, src, tag);
        loop {
            // Park until something matching is queued, then race to take
            // it: a concurrent thread's receive or probe may win, in which
            // case we park again for the next arrival.
            self.mailbox().wait_probe(matcher(), || self.probe_peer_failure(src))?;
            if let Some(msg) = self.mailbox().try_take_matching(matcher())? {
                let st = self.probe_status(&msg.probe_info());
                return Ok((MpiMessage { msg: Some(msg), ctx: self.ctx() }, st));
            }
        }
    }

    // --- nonblocking operations (see crate::request) --------------------

    /// Nonblocking send (`MPI_Isend`). `buf` must stay untouched until the
    /// request completes — enforced by the borrow for the request's
    /// lifetime. Above the eager threshold no copy of `buf` is ever made:
    /// the receiver drains it directly at its matching receive.
    pub fn isend<'a>(&self, buf: &'a [u8], dest: u32, tag: i32) -> Result<Request<'a>, MpiError> {
        self.charge_call();
        self.fault_step("isend")?;
        Request::send(self.ctx(), SendPayload::Pinned(buf.as_ptr(), buf.len()), dest, tag, false)
    }

    /// Nonblocking receive (`MPI_Irecv`): matching and delivery happen as
    /// the request is progressed (`wait`/`test`/completion sets).
    pub fn irecv<'a>(
        &self,
        buf: &'a mut [u8],
        src: Source,
        tag: Tag,
    ) -> Result<Request<'a>, MpiError> {
        self.charge_call();
        self.fault_step("irecv")?;
        Request::recv(self.ctx(), buf.as_mut_ptr(), buf.len(), src, tag)
    }

    /// Persistent send (`MPI_Send_init`): inactive until started.
    pub fn send_init<'a>(
        &self,
        buf: &'a [u8],
        dest: u32,
        tag: i32,
    ) -> Result<Request<'a>, MpiError> {
        Request::send_init(self.ctx(), buf.as_ptr(), buf.len(), dest, tag)
    }

    /// Persistent receive (`MPI_Recv_init`).
    pub fn recv_init<'a>(
        &self,
        buf: &'a mut [u8],
        src: Source,
        tag: Tag,
    ) -> Result<Request<'a>, MpiError> {
        Request::recv_init(self.ctx(), buf.as_mut_ptr(), buf.len(), src, tag)
    }

    /// Nonblocking barrier (`MPI_Ibarrier`).
    pub fn ibarrier(&self) -> Result<Request<'static>, MpiError> {
        self.start_coll(obs::CollKind::Barrier, |ctx, tag| Ok(CollExec::barrier(ctx, tag)))
    }

    // The nonblocking collectives borrow their buffers for the request's
    // lifetime, which is everything the `*_raw` forms ask of a caller:
    // every schedule reads its send buffer, and peers read the blocks it
    // sends out of either buffer, at poll time.

    /// Nonblocking broadcast (`MPI_Ibcast`).
    pub fn ibcast<'a>(&self, buf: &'a mut [u8], root: u32) -> Result<Request<'a>, MpiError> {
        // SAFETY: `buf` is borrowed for `'a`.
        unsafe { self.ibcast_raw(buf.as_mut_ptr(), buf.len(), root) }
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`): the result lands in
    /// `recv_buf` when the request completes.
    pub fn iallreduce<'a>(
        &self,
        send_buf: &'a [u8],
        recv_buf: &'a mut [u8],
        dt: Datatype,
        op: ReduceOp,
    ) -> Result<Request<'a>, MpiError> {
        // SAFETY: both buffers are borrowed for `'a`, and cannot overlap.
        unsafe { self.iallreduce_raw(send_buf, recv_buf.as_mut_ptr(), recv_buf.len(), dt, op) }
    }

    /// Nonblocking reduce (`MPI_Ireduce`); the root passes `recv_buf`.
    pub fn ireduce<'a>(
        &self,
        send_buf: &'a [u8],
        recv_buf: Option<&'a mut [u8]>,
        dt: Datatype,
        op: ReduceOp,
        root: u32,
    ) -> Result<Request<'a>, MpiError> {
        let (out, len) = recv_buf.map_or((std::ptr::null_mut(), 0), |b| (b.as_mut_ptr(), b.len()));
        // SAFETY: both buffers are borrowed for `'a`, and cannot overlap.
        unsafe { self.ireduce_raw(send_buf, out, len, dt, op, root) }
    }

    /// Nonblocking gather (`MPI_Igather`): the root's `recv_buf` collects
    /// the blocks in rank order.
    pub fn igather<'a>(
        &self,
        send_buf: &'a [u8],
        recv_buf: Option<&'a mut [u8]>,
        root: u32,
    ) -> Result<Request<'a>, MpiError> {
        let (out, len) = recv_buf.map_or((std::ptr::null_mut(), 0), |b| (b.as_mut_ptr(), b.len()));
        // SAFETY: both buffers are borrowed for `'a`.
        unsafe { self.igather_raw(send_buf.as_ptr(), send_buf.len(), out, len, root) }
    }

    /// Nonblocking scatter (`MPI_Iscatter`): the root's `send_buf` holds
    /// `p` equal blocks; each rank's block lands in `recv_buf`.
    pub fn iscatter<'a>(
        &self,
        send_buf: Option<&'a [u8]>,
        recv_buf: &'a mut [u8],
        root: u32,
    ) -> Result<Request<'a>, MpiError> {
        let (src, len) = send_buf.map_or((std::ptr::null(), 0), |b| (b.as_ptr(), b.len()));
        // SAFETY: both buffers are borrowed for `'a`.
        unsafe { self.iscatter_raw(src, len, recv_buf.as_mut_ptr(), recv_buf.len(), root) }
    }

    /// Nonblocking allgather (`MPI_Iallgather`).
    pub fn iallgather<'a>(
        &self,
        send_buf: &'a [u8],
        recv_buf: &'a mut [u8],
    ) -> Result<Request<'a>, MpiError> {
        // SAFETY: both buffers are borrowed for `'a`.
        unsafe { self.iallgather_raw(send_buf, recv_buf.as_mut_ptr(), recv_buf.len()) }
    }

    /// Nonblocking all-to-all (`MPI_Ialltoall`).
    pub fn ialltoall<'a>(
        &self,
        send_buf: &'a [u8],
        recv_buf: &'a mut [u8],
    ) -> Result<Request<'a>, MpiError> {
        let (out, len) = (recv_buf.as_mut_ptr(), recv_buf.len());
        // SAFETY: both buffers are borrowed for `'a`.
        unsafe { self.ialltoall_raw(send_buf.as_ptr(), send_buf.len(), out, len) }
    }

    /// Nonblocking vector all-to-all (`MPI_Ialltoallv`). Counts and
    /// displacements are in bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn ialltoallv<'a>(
        &self,
        send_buf: &'a [u8],
        send_counts: &[usize],
        send_displs: &[usize],
        recv_buf: &'a mut [u8],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> Result<Request<'a>, MpiError> {
        // SAFETY: both buffers are borrowed for `'a`.
        unsafe {
            self.ialltoallv_raw(
                send_buf.as_ptr(),
                send_buf.len(),
                send_counts.to_vec(),
                send_displs.to_vec(),
                recv_buf.as_mut_ptr(),
                recv_buf.len(),
                recv_counts.to_vec(),
                recv_displs.to_vec(),
            )
        }
    }

    // --- raw (embedder) variants ----------------------------------------
    //
    // The Wasm embedder stores requests in a per-rank table that outlives
    // any borrow of the instance's linear memory, so it passes raw
    // pointers. Callers must uphold MPI's own rule: the buffer stays valid
    // and (for sends) unmodified until the request completes, and the
    // backing allocation must not move (the embedder pins linear memory
    // while requests are pending).

    /// Raw-pointer `MPI_Isend` for embedders.
    ///
    /// # Safety
    /// `buf..buf+len` must remain valid and unmodified until the request
    /// completes or is dropped.
    pub unsafe fn isend_raw(
        &self,
        buf: *const u8,
        len: usize,
        dest: u32,
        tag: i32,
    ) -> Result<Request<'static>, MpiError> {
        self.charge_call();
        self.fault_step("isend")?;
        Request::send(self.ctx(), SendPayload::Pinned(buf, len), dest, tag, false)
    }

    /// Raw-pointer `MPI_Issend` for embedders: like [`Comm::isend_raw`]
    /// but the request completes only once the receiver has matched the
    /// message (synchronous mode).
    ///
    /// # Safety
    /// As [`Comm::isend_raw`].
    pub unsafe fn issend_raw(
        &self,
        buf: *const u8,
        len: usize,
        dest: u32,
        tag: i32,
    ) -> Result<Request<'static>, MpiError> {
        self.charge_call();
        self.fault_step("issend")?;
        Request::send(self.ctx(), SendPayload::Pinned(buf, len), dest, tag, true)
    }

    /// Nonblocking send of an owned payload (buffered-mode sends and
    /// host-packed derived-datatype sends): the protocol layer takes the
    /// bytes, so no caller buffer needs pinning. The request still must
    /// run to completion (dropping it would retract an undelivered
    /// message, as with any send).
    pub fn isend_owned(
        &self,
        data: Box<[u8]>,
        dest: u32,
        tag: i32,
    ) -> Result<Request<'static>, MpiError> {
        self.charge_call();
        self.fault_step("isend")?;
        Request::send(self.ctx(), SendPayload::Owned(data), dest, tag, false)
    }

    /// Synchronous-mode variant of [`Comm::isend_owned`]
    /// (host-packed derived-datatype `MPI_Issend`): completion additionally
    /// implies the receiver has matched the message.
    pub fn issend_owned(
        &self,
        data: Box<[u8]>,
        dest: u32,
        tag: i32,
    ) -> Result<Request<'static>, MpiError> {
        self.charge_call();
        self.fault_step("issend")?;
        Request::send(self.ctx(), SendPayload::Owned(data), dest, tag, true)
    }

    /// Raw-pointer `MPI_Irecv` for embedders.
    ///
    /// # Safety
    /// `buf..buf+len` must remain valid and unaliased until the request
    /// completes or is dropped.
    pub unsafe fn irecv_raw(
        &self,
        buf: *mut u8,
        len: usize,
        src: Source,
        tag: Tag,
    ) -> Result<Request<'static>, MpiError> {
        self.charge_call();
        self.fault_step("irecv")?;
        Request::recv(self.ctx(), buf, len, src, tag)
    }

    /// Raw-pointer receive post *without* the per-call clock charge: for
    /// embedders composing a blocking receive out of request primitives
    /// (post + progress loop). The delivery path charges the one receive
    /// call; charging here too would double-bill `MPI_Recv`. It is still
    /// a fault guard point — only the clock charge is skipped, never the
    /// failure check, or a dead rank could park in a blocking receive.
    ///
    /// # Safety
    /// As [`Comm::irecv_raw`].
    pub unsafe fn irecv_raw_uncharged(
        &self,
        buf: *mut u8,
        len: usize,
        src: Source,
        tag: Tag,
    ) -> Result<Request<'static>, MpiError> {
        self.fault_step("recv")?;
        Request::recv(self.ctx(), buf, len, src, tag)
    }

    /// Raw-pointer `MPI_Send_init`.
    ///
    /// # Safety
    /// As [`Comm::isend_raw`], for every `Start`/completion cycle.
    pub unsafe fn send_init_raw(
        &self,
        buf: *const u8,
        len: usize,
        dest: u32,
        tag: i32,
    ) -> Result<Request<'static>, MpiError> {
        Request::send_init(self.ctx(), buf, len, dest, tag)
    }

    /// Raw-pointer `MPI_Recv_init`.
    ///
    /// # Safety
    /// As [`Comm::irecv_raw`], for every `Start`/completion cycle.
    pub unsafe fn recv_init_raw(
        &self,
        buf: *mut u8,
        len: usize,
        src: Source,
        tag: Tag,
    ) -> Result<Request<'static>, MpiError> {
        Request::recv_init(self.ctx(), buf, len, src, tag)
    }

    // The raw collectives share one contract: every buffer stays valid
    // until the request completes or is dropped, the send buffer also
    // unmodified (the schedule and, for rendezvous payloads, its peers
    // read it at poll time), the receive buffer untouched by the caller,
    // and the two do not overlap.

    /// Raw-pointer `MPI_Ibcast`.
    ///
    /// # Safety
    /// As [`Comm::irecv_raw`] (the root's buffer is only read).
    pub unsafe fn ibcast_raw(
        &self,
        buf: *mut u8,
        len: usize,
        root: u32,
    ) -> Result<Request<'static>, MpiError> {
        self.start_coll(obs::CollKind::Bcast, |ctx, tag| CollExec::bcast(ctx, tag, buf, len, root))
    }

    /// Raw-pointer `MPI_Iallreduce`.
    ///
    /// # Safety
    /// The collective contract above, over `send_buf` — despite the
    /// borrow, until completion — and `recv_buf..recv_buf+len`.
    pub unsafe fn iallreduce_raw(
        &self,
        send_buf: &[u8],
        recv_buf: *mut u8,
        len: usize,
        dt: Datatype,
        op: ReduceOp,
    ) -> Result<Request<'static>, MpiError> {
        let send = (send_buf.as_ptr(), send_buf.len());
        self.start_coll(obs::CollKind::Allreduce, |ctx, tag| {
            CollExec::allreduce(ctx, tag, send, (recv_buf, len), dt, op)
        })
    }

    /// Raw-pointer `MPI_Ireduce`.
    ///
    /// # Safety
    /// The collective contract above, over `send_buf` — despite the
    /// borrow, until completion — and, on the root,
    /// `recv_buf..recv_buf+len` (`recv_buf` is ignored elsewhere).
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn ireduce_raw(
        &self,
        send_buf: &[u8],
        recv_buf: *mut u8,
        len: usize,
        dt: Datatype,
        op: ReduceOp,
        root: u32,
    ) -> Result<Request<'static>, MpiError> {
        let send = (send_buf.as_ptr(), send_buf.len());
        self.start_coll(obs::CollKind::Reduce, |ctx, tag| {
            CollExec::reduce(ctx, tag, send, (recv_buf, len), dt, op, root)
        })
    }

    /// Raw-pointer `MPI_Igather`.
    ///
    /// # Safety
    /// The collective contract above, over `sbuf..sbuf+n` and, on the
    /// root, `rbuf..rbuf+rbuf_len` (`rbuf` is ignored elsewhere).
    pub unsafe fn igather_raw(
        &self,
        sbuf: *const u8,
        n: usize,
        rbuf: *mut u8,
        rbuf_len: usize,
        root: u32,
    ) -> Result<Request<'static>, MpiError> {
        self.start_coll(obs::CollKind::Gather, |ctx, tag| {
            CollExec::gather(ctx, tag, (sbuf, n), (rbuf, rbuf_len), root)
        })
    }

    /// Raw-pointer `MPI_Iscatter`.
    ///
    /// # Safety
    /// The collective contract above, over `rbuf..rbuf+n` and, on the
    /// root, `sbuf..sbuf+sbuf_len` (`sbuf` is ignored elsewhere).
    pub unsafe fn iscatter_raw(
        &self,
        sbuf: *const u8,
        sbuf_len: usize,
        rbuf: *mut u8,
        n: usize,
        root: u32,
    ) -> Result<Request<'static>, MpiError> {
        self.start_coll(obs::CollKind::Scatter, |ctx, tag| {
            CollExec::scatter(ctx, tag, (sbuf, sbuf_len), (rbuf, n), root)
        })
    }

    /// Raw-pointer `MPI_Iallgather`.
    ///
    /// # Safety
    /// The collective contract above, over `send_buf` — despite the
    /// borrow, until completion — and `rbuf..rbuf+rbuf_len`.
    pub unsafe fn iallgather_raw(
        &self,
        send_buf: &[u8],
        rbuf: *mut u8,
        rbuf_len: usize,
    ) -> Result<Request<'static>, MpiError> {
        let send = (send_buf.as_ptr(), send_buf.len());
        self.start_coll(obs::CollKind::Allgather, |ctx, tag| {
            CollExec::allgather(ctx, tag, send, (rbuf, rbuf_len))
        })
    }

    /// Raw-pointer `MPI_Ialltoall`.
    ///
    /// # Safety
    /// The collective contract above, over both buffers.
    pub unsafe fn ialltoall_raw(
        &self,
        sbuf: *const u8,
        sbuf_len: usize,
        rbuf: *mut u8,
        rbuf_len: usize,
    ) -> Result<Request<'static>, MpiError> {
        self.start_coll(obs::CollKind::Alltoall, |ctx, tag| {
            CollExec::alltoall(ctx, tag, (sbuf, sbuf_len), (rbuf, rbuf_len))
        })
    }

    /// Raw-pointer `MPI_Ialltoallv` (counts/displacements in bytes).
    ///
    /// # Safety
    /// The collective contract above, over both buffers.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn ialltoallv_raw(
        &self,
        sbuf: *const u8,
        sbuf_len: usize,
        send_counts: Vec<usize>,
        send_displs: Vec<usize>,
        rbuf: *mut u8,
        rbuf_len: usize,
        recv_counts: Vec<usize>,
        recv_displs: Vec<usize>,
    ) -> Result<Request<'static>, MpiError> {
        let extents = Extents { send_counts, send_displs, recv_counts, recv_displs };
        self.start_coll(obs::CollKind::Alltoallv, |ctx, tag| {
            CollExec::alltoallv(ctx, tag, (sbuf, sbuf_len), (rbuf, rbuf_len), extents)
        })
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
            members.iter().map(|&(_, r)| self.group[r as usize]).collect();
        let new_rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("calling rank must be in its own color") as u32;

        // Deterministic id every member computes identically.
        let id = self
            .id
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seq)
            .wrapping_mul(31)
            .wrapping_add(color as u64 + 1);

        Ok(Some(Comm {
            world: Arc::clone(&self.world),
            id,
            group: Arc::new(group),
            rank: new_rank,
            clock: Arc::clone(&self.clock),
            derive_seq: AtomicU64::new(0),
            nbc_seq: AtomicU64::new(0),
            acked: Arc::clone(&self.acked),
            agree_seq: AtomicU64::new(0),
        }))
    }

    /// The communicator's group as world ranks, indexed by communicator
    /// rank (`MPI_Comm_group` — the embedder's group objects are plain
    /// rank lists over this).
    pub fn group_world_ranks(&self) -> Vec<u32> {
        self.group.as_ref().clone()
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
        self.charge_call();
        self.fault_step("comm_create")?;
        for w in world_ranks {
            if !self.group.contains(w) {
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
                    self.rank
                )));
            }
        }

        let me = self.group[self.rank as usize];
        let Some(new_rank) = world_ranks.iter().position(|&w| w == me) else {
            return Ok(None);
        };
        // Deterministic id every member computes identically (the same
        // construction discipline as `split`).
        let id = self
            .id
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seq)
            .wrapping_mul(61)
            .wrapping_add(hash | 1);
        Ok(Some(Comm {
            world: Arc::clone(&self.world),
            id,
            group: Arc::new(world_ranks.to_vec()),
            rank: new_rank as u32,
            clock: Arc::clone(&self.clock),
            derive_seq: AtomicU64::new(0),
            nbc_seq: AtomicU64::new(0),
            acked: Arc::clone(&self.acked),
            agree_seq: AtomicU64::new(0),
        }))
    }

    /// Duplicate the communicator (`MPI_Comm_dup`): same group, fresh
    /// message-matching space.
    pub fn dup(&self) -> Result<Comm, MpiError> {
        let seq = self.derive_seq.fetch_add(1, Ordering::Relaxed);
        let id = self
            .id
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(seq)
            .wrapping_add(1);
        Ok(Comm {
            world: Arc::clone(&self.world),
            id,
            group: Arc::clone(&self.group),
            rank: self.rank,
            clock: Arc::clone(&self.clock),
            derive_seq: AtomicU64::new(0),
            nbc_seq: AtomicU64::new(0),
            acked: Arc::clone(&self.acked),
            agree_seq: AtomicU64::new(0),
        })
    }

    /// Internal: fixed-size allgather used by `split` (and the public
    /// allgather). Returns `size * bytes.len()` bytes ordered by rank.
    pub(crate) fn allgather_bytes(&self, bytes: &[u8]) -> Result<Vec<u8>, MpiError> {
        let mut out = vec![0u8; bytes.len() * self.size() as usize];
        self.allgather(bytes, &mut out)?;
        Ok(out)
    }

    // --- fault tolerance (ULFM-style) -----------------------------------

    /// Has communicator rank `comm_rank` failed?
    pub fn rank_failed(&self, comm_rank: u32) -> bool {
        self.check_rank(comm_rank).is_ok() && self.world.is_failed(self.group[comm_rank as usize])
    }

    /// Failed members of this communicator, as communicator ranks in
    /// ascending order (`MPI_Comm_failure_get_acked` without the ack).
    pub fn failed_ranks(&self) -> Vec<u32> {
        let failed = self.world.failed_ranks();
        self.group
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
        self.acked.store(self.world.failure_epoch(), Ordering::SeqCst);
        ranks
    }

    /// Declare *this* rank failed (the embedder's hook for turning a guest
    /// trap or resource-limit kill into a rank failure peers can observe).
    /// Idempotent; every later MPI call on this rank returns `RankFailed`.
    pub fn fail_self(&self) {
        self.world.fail_rank(self.group[self.rank as usize]);
    }

    /// ULFM-style agreement (`MPI_Comm_agree`): bitwise-AND `flag` across
    /// the communicator's *surviving* members. Blocks until every member
    /// has contributed or failed; every survivor then returns the same
    /// value, even if ranks fail mid-agreement. Like the collectives, all
    /// survivors must call `agree`/`shrink` on a communicator in the same
    /// order.
    pub fn agree(&self, flag: u32) -> Result<u32, MpiError> {
        self.charge_call();
        self.fault_step("agree")?;
        let seq = self.agree_seq.fetch_add(1, Ordering::Relaxed);
        let (value, _failed) =
            self.world.agree(self.id, seq, &self.group, self.rank as usize, flag)?;
        Ok(value)
    }

    /// ULFM-style shrink (`MPI_Comm_shrink`): agree on the failed set and
    /// return a new communicator containing only survivors (rank order
    /// preserved). Every survivor computes the same group and the same
    /// derived id; a failed caller gets `RankFailed`.
    pub fn shrink(&self) -> Result<Comm, MpiError> {
        self.charge_call();
        self.fault_step("shrink")?;
        let seq = self.agree_seq.fetch_add(1, Ordering::Relaxed);
        let (_, failed) =
            self.world.agree(self.id, seq, &self.group, self.rank as usize, u32::MAX)?;
        let group: Vec<u32> =
            self.group.iter().copied().filter(|w| !failed.contains(w)).collect();
        let me = self.group[self.rank as usize];
        let new_rank = group
            .iter()
            .position(|&w| w == me)
            .ok_or(MpiError::RankFailed { rank: me })? as u32;
        // Deterministic id every survivor computes identically (the same
        // construction discipline as `split`).
        let id = self
            .id
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seq)
            .wrapping_mul(131)
            .wrapping_add(7);
        Ok(Comm {
            world: Arc::clone(&self.world),
            id,
            group: Arc::new(group),
            rank: new_rank,
            clock: Arc::clone(&self.clock),
            derive_seq: AtomicU64::new(0),
            nbc_seq: AtomicU64::new(0),
            acked: Arc::clone(&self.acked),
            agree_seq: AtomicU64::new(0),
        })
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
    ctx: CommCtx,
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
    pub fn imrecv(mut self, buf: &mut [u8]) -> Request<'_> {
        let msg = self.msg.take().expect("message already received");
        Request::recv_matched(self.ctx.clone(), buf.as_mut_ptr(), buf.len(), msg)
    }

    /// Raw-pointer `MPI_Imrecv` for embedders.
    ///
    /// # Safety
    /// As [`Comm::irecv_raw`]: `buf..buf+len` must remain valid and
    /// unaliased until the request completes or is dropped.
    pub unsafe fn imrecv_raw(mut self, buf: *mut u8, len: usize) -> Request<'static> {
        let msg = self.msg.take().expect("message already received");
        Request::recv_matched(self.ctx.clone(), buf, len, msg)
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

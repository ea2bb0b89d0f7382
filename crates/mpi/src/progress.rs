//! The progress engine: protocol selection (eager vs rendezvous), the
//! rendezvous handshake, and the shared delivery path used by blocking
//! receives and the request machinery in [`crate::request`].
//!
//! Matching is **arrival-time against posted receives**: every receive
//! registers a [`crate::message::RecvEntry`] with its rank's mailbox via
//! [`CommCtx::post_recv`], and [`CommCtx::start_send`]'s deposit matches
//! arrivals against the posted queue in posting order (wildcard rules
//! included) before any mailbox buffering happens. The matched message
//! parks in the entry; [`CommCtx::deliver`] then runs on the *receiving*
//! rank — copying the payload (straight from the sender's pinned buffer
//! for rendezvous), charging the virtual clock, and completing the
//! handshake — so sender threads never touch receiver buffers or clocks.
//!
//! # Protocols
//!
//! * **Eager** (payload ≤ [`ProtocolConfig::eager_threshold`]): the bytes
//!   are copied into the destination mailbox, consuming credit from its
//!   bounded buffer budget. Sends that cannot obtain credit — blocking or
//!   not — fall back to a rendezvous with a sender-owned copy, so the
//!   per-sender FIFO order is preserved without unbounded mailbox growth
//!   and backpressure stays *matchable* (a posted receive always lets a
//!   credit-starved sender through).
//! * **Rendezvous** (payload above the threshold): the sender enqueues a
//!   tiny RTS control message carrying a [`RendezvousSlot`] and keeps the
//!   payload in place. When the receiver matches the RTS it copies the
//!   bytes *directly* from the sender's buffer into the posted receive
//!   buffer — no intermediate heap copy — and completes the slot, which
//!   is the CTS + transfer collapsed into one step. Blocking sends wait on
//!   the slot; nonblocking sends complete at `Wait`/`Test`.
//!
//! # Virtual time
//!
//! The receive path charges the wire time of [`netsim::SystemProfile::p2p_time`],
//! which already includes the extra handshake latency above the profile's
//! rendezvous threshold — so simulated runs see the protocol switch. A
//! rendezvous *sender* additionally synchronizes its clock to the
//! receiver's completion time (the moment the CTS/done notification comes
//! back), making rendezvous sends synchronous in virtual time, as on real
//! fabrics.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::clock::{Clock, ClockMode};
use crate::comm::{Source, Status, Tag};
use crate::error::MpiError;
use crate::message::{Deposit, Message, Payload, RecvEntry, RtsPayload};
use crate::park::Monitor;
use crate::world::World;

/// Message-protocol parameters of a world. Derived from the netsim
/// profile in virtual-clock worlds; real-clock worlds use the defaults
/// (or an explicit config via `run_world_with_protocol`).
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Payloads above this many bytes use the rendezvous protocol.
    pub eager_threshold: usize,
    /// Per-mailbox eager-buffer byte budget (credit pool).
    pub eager_capacity: usize,
}

impl ProtocolConfig {
    /// Default for real-clock worlds: 64 KiB eager limit, 16 MiB of
    /// buffered eager traffic per rank.
    pub fn default_real() -> ProtocolConfig {
        ProtocolConfig { eager_threshold: 64 << 10, eager_capacity: 16 << 20 }
    }

    /// Config implied by a clock mode: virtual worlds switch protocols at
    /// the profile's rendezvous threshold (so the cost model and the
    /// executed protocol agree), real worlds use the defaults.
    pub fn from_mode(mode: &ClockMode) -> ProtocolConfig {
        match mode {
            ClockMode::Real => ProtocolConfig::default_real(),
            ClockMode::Virtual(model) => ProtocolConfig {
                eager_threshold: model.profile.rendezvous_threshold,
                eager_capacity: (model.profile.rendezvous_threshold * 8).max(16 << 20),
            },
        }
    }
}

/// World-wide protocol counters (diagnostics and the zero-copy tests).
#[derive(Debug, Default)]
pub struct ProtocolStats {
    pub eager_messages: AtomicU64,
    /// Payload bytes that were heap-copied into mailboxes (eager path).
    pub eager_bytes_copied: AtomicU64,
    /// Nonblocking eager sends that could not obtain credit and were
    /// deferred through a sender-owned rendezvous.
    pub deferred_eager_messages: AtomicU64,
    pub rendezvous_messages: AtomicU64,
    /// Payload bytes moved by the rendezvous protocol (single direct copy,
    /// never buffered in a mailbox).
    pub rendezvous_bytes: AtomicU64,
    /// Arrivals that matched an already-posted receive (the pre-posted
    /// fast path: no mailbox buffering, no eager credit; a rendezvous RTS
    /// matched this way is answerable straight into the posted buffer).
    pub preposted_matches: AtomicU64,
    /// Sends successfully cancelled (`MPI_Cancel` retracting a pending
    /// credit-deferred or unmatched rendezvous send before any receive
    /// matched it).
    pub cancelled_sends: AtomicU64,
    /// RTS control messages removed from a destination queue by send-side
    /// cancellation. Today every cancelled send retracts exactly one RTS,
    /// so the counters move together; they are kept separate so a future
    /// cancellable-eager path cannot silently conflate them.
    pub retracted_rts: AtomicU64,
    /// Blocking waits that slept on their condvar (see [`crate::park`]).
    /// `parks + yield_hits` is the number of blocking waits; the polling
    /// loops around [`crate::request::backoff`] are not waits in this sense.
    pub parks: AtomicU64,
    /// Blocking waits that ended without sleeping: the state they waited
    /// for was already there, or arrived within the yield budget.
    pub yield_hits: AtomicU64,
    /// `notify_all` calls issued: state changes that found a thread asleep.
    /// One that finds nobody asleep costs no syscall and is not counted.
    pub wakes: AtomicU64,
}

/// Point-in-time copy of [`ProtocolStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolSnapshot {
    pub eager_messages: u64,
    pub eager_bytes_copied: u64,
    pub deferred_eager_messages: u64,
    pub rendezvous_messages: u64,
    pub rendezvous_bytes: u64,
    pub preposted_matches: u64,
    pub cancelled_sends: u64,
    pub retracted_rts: u64,
    pub parks: u64,
    pub yield_hits: u64,
    pub wakes: u64,
}

impl ProtocolStats {
    /// The snapshot as named counters for the unified metrics registry
    /// (`obs::MetricSet`); names are stable, prefixed `mpi.`.
    pub fn metric_entries(&self) -> [(&'static str, u64); 11] {
        let s = self.snapshot();
        [
            ("mpi.eager_messages", s.eager_messages),
            ("mpi.eager_bytes_copied", s.eager_bytes_copied),
            ("mpi.deferred_eager_messages", s.deferred_eager_messages),
            ("mpi.rendezvous_messages", s.rendezvous_messages),
            ("mpi.rendezvous_bytes", s.rendezvous_bytes),
            ("mpi.preposted_matches", s.preposted_matches),
            ("mpi.cancelled_sends", s.cancelled_sends),
            ("mpi.retracted_rts", s.retracted_rts),
            ("mpi.parks", s.parks),
            ("mpi.yield_hits", s.yield_hits),
            ("mpi.wakes", s.wakes),
        ]
    }

    pub fn snapshot(&self) -> ProtocolSnapshot {
        ProtocolSnapshot {
            eager_messages: self.eager_messages.load(Ordering::Relaxed),
            eager_bytes_copied: self.eager_bytes_copied.load(Ordering::Relaxed),
            deferred_eager_messages: self.deferred_eager_messages.load(Ordering::Relaxed),
            rendezvous_messages: self.rendezvous_messages.load(Ordering::Relaxed),
            rendezvous_bytes: self.rendezvous_bytes.load(Ordering::Relaxed),
            preposted_matches: self.preposted_matches.load(Ordering::Relaxed),
            cancelled_sends: self.cancelled_sends.load(Ordering::Relaxed),
            retracted_rts: self.retracted_rts.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            yield_hits: self.yield_hits.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
        }
    }
}

impl ProtocolSnapshot {
    /// The snapshot as a fixed-order word list — the wire format of the
    /// guest-visible `mpiwasm_stats` host call (little-endian u64s in this
    /// exact order; adding fields appends, never reorders). The wait
    /// counters are not in it: they depend on scheduling, and a guest can
    /// assert nothing about them.
    pub fn as_words(&self) -> [u64; 8] {
        [
            self.eager_messages,
            self.eager_bytes_copied,
            self.deferred_eager_messages,
            self.rendezvous_messages,
            self.rendezvous_bytes,
            self.preposted_matches,
            self.cancelled_sends,
            self.retracted_rts,
        ]
    }
}

// --- rendezvous slot ----------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum RdvState {
    /// RTS posted; payload waiting on the sender's side.
    Posted,
    /// Receiver copied the payload. Carries the receiver's virtual clock
    /// at completion (µs; 0 in real-clock mode) for sender-side charging.
    Complete(u64 /* f64 bits */),
    /// The transfer will never happen; carries the error both sides
    /// observe (shutdown, teardown, or a dependent rank failure).
    Failed(MpiError),
}

/// What a send transmits: the caller's buffer, or bytes the protocol layer
/// owns (buffered-mode and host-packed derived-datatype sends, whose copy
/// already decoupled the caller's buffer).
pub(crate) enum SendPayload {
    /// `ptr..ptr+len`. Safety contract, not enforced by types: the range
    /// stays valid and unmodified until the [`SendOp`] completes
    /// (`poll`/`wait`) or is cancelled.
    Pinned(*const u8, usize),
    Owned(Box<[u8]>),
}

impl SendPayload {
    pub fn len(&self) -> usize {
        match self {
            SendPayload::Pinned(_, len) => *len,
            SendPayload::Owned(data) => data.len(),
        }
    }

    /// The bytes as a box the protocol owns: an owned payload is moved, a
    /// pinned one copied.
    fn into_box(self) -> Box<[u8]> {
        match self {
            // SAFETY: the `Pinned` contract — the range is valid now.
            SendPayload::Pinned(ptr, len) => unsafe { std::slice::from_raw_parts(ptr, len) }.into(),
            SendPayload::Owned(data) => data,
        }
    }
}

/// Sender-side payload handle for one rendezvous transfer.
///
/// The protocol guarantees a pinned payload's validity for the receiver's
/// read: either the sending thread is blocked inside `send` until
/// [`RendezvousSlot::consume_with`] runs, or (nonblocking sends) the buffer
/// is pinned by MPI semantics until the matching `Wait`/`Test` — and
/// `Request::drop` cancels or completes the transfer before releasing the
/// borrow. An owned payload lives in the slot.
pub(crate) struct RendezvousSlot {
    payload: SendPayload,
    /// The protocol the send was initiated under, decided once in
    /// [`CommCtx::start_send`] so that the counters, `SendStart` and the
    /// receiver's `RecvDone` cannot name different ones.
    protocol: obs::Protocol,
    state: Monitor<RdvState>,
}

// Safety: the raw pointer is only dereferenced by the receiving thread
// while the protocol pins the sender buffer (see struct docs).
unsafe impl Send for RendezvousSlot {}
unsafe impl Sync for RendezvousSlot {}

impl std::fmt::Debug for RendezvousSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RendezvousSlot")
            .field("len", &self.len())
            .field("owned", &matches!(self.payload, SendPayload::Owned(_)))
            .field("protocol", &self.protocol)
            .field("state", &*self.state.lock())
            .finish()
    }
}

impl RendezvousSlot {
    pub fn new(
        payload: SendPayload,
        protocol: obs::Protocol,
        stats: &Arc<ProtocolStats>,
    ) -> Arc<RendezvousSlot> {
        let state = Monitor::new(RdvState::Posted, stats);
        Arc::new(RendezvousSlot { payload, protocol, state })
    }

    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// The protocol the transfer was initiated under (`EagerDeferred` or
    /// `Rendezvous`), for the receive path's trace event.
    pub fn protocol(&self) -> obs::Protocol {
        self.protocol
    }

    /// Receiver: hand `f` the payload in place and complete the handshake
    /// — whatever `f` returns, so the sender never hangs on the receiver's
    /// error. All under the state lock, so the read can never race the
    /// sender's buffer being released: the sender only unblocks once the
    /// state leaves `Posted`, and a slot failed by shutdown (whose buffer
    /// may already be gone) is never read.
    pub fn consume_with<R>(
        &self,
        recv_clock_us: f64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, MpiError> {
        let mut st = self.state.lock();
        match &*st {
            RdvState::Posted => {
                let out = f(match &self.payload {
                    // SAFETY: the protocol pins `ptr..ptr+len` while the
                    // slot is `Posted` (struct docs), and we hold the
                    // state lock.
                    SendPayload::Pinned(ptr, len) => unsafe {
                        std::slice::from_raw_parts(*ptr, *len)
                    },
                    SendPayload::Owned(data) => data,
                });
                *st = RdvState::Complete(recv_clock_us.to_bits());
                st.wake();
                Ok(out)
            }
            RdvState::Failed(err) => Err(err.clone()),
            RdvState::Complete(_) => Err(MpiError::WorldShutdown),
        }
    }

    /// Mark the transfer as dead if still pending (shutdown paths).
    pub fn fail_if_posted(&self) {
        self.fail_if_posted_with(MpiError::WorldShutdown);
    }

    /// Mark the transfer as dead with a specific error (rank-failure
    /// propagation: a waiting sender sees `RankFailed` instead of the
    /// generic shutdown error).
    pub fn fail_if_posted_with(&self, err: MpiError) {
        let mut st = self.state.lock();
        if matches!(*st, RdvState::Posted) {
            *st = RdvState::Failed(err);
            st.wake();
        }
    }

    /// The receiver's completion clock (µs) or the failure, once there is
    /// one: what the sender waits for.
    fn outcome(st: &mut RdvState) -> Option<Result<f64, MpiError>> {
        match st {
            RdvState::Complete(bits) => Some(Ok(f64::from_bits(*bits))),
            RdvState::Failed(err) => Some(Err(err.clone())),
            RdvState::Posted => None,
        }
    }

    /// Sender: block until the receiver finishes. Returns the receiver's
    /// completion clock (µs).
    pub fn wait_done(&self) -> Result<f64, MpiError> {
        self.state.wait(Self::outcome)
    }

    /// Sender: wait while the receiver has not touched the slot, asleep for
    /// at most `timeout`. The outcome is left for [`RendezvousSlot::poll_done`].
    pub fn wait_posted(&self, timeout: Duration) {
        self.state.wait_for(timeout, |st| (*st != RdvState::Posted).then_some(()));
    }

    /// Sender: non-blocking completion check.
    pub fn poll_done(&self) -> Result<Option<f64>, MpiError> {
        Self::outcome(&mut self.state.lock()).transpose()
    }
}

// --- per-request communicator context -----------------------------------

/// Everything a detached operation (a [`crate::request::Request`]) needs
/// from its communicator: the world, the group mapping, identity, and the
/// rank's clock. Cheap Arc clones of the `Comm` internals.
#[derive(Clone)]
pub(crate) struct CommCtx {
    pub world: Arc<World>,
    pub group: Arc<Vec<u32>>,
    pub rank: u32,
    pub comm_id: u64,
    pub clock: Arc<Mutex<Clock>>,
    /// Failure epoch this rank has acknowledged (`MPI_Comm_failure_ack`):
    /// any-source receives posted afterwards ignore failures at or below
    /// it. Shared across all handles/contexts of one rank.
    pub acked: Arc<AtomicU64>,
}

impl CommCtx {
    pub fn size(&self) -> u32 {
        self.group.len() as u32
    }

    pub fn my_world(&self) -> u32 {
        self.group[self.rank as usize]
    }

    /// ULFM collective semantics: a collective over a communicator with a
    /// failed member raises `RankFailed` at *every* member, not only at
    /// those whose schedule happens to touch the dead rank. Without this,
    /// a survivor whose next exchange partner is alive parks forever on a
    /// contribution the partner's aborted schedule will never send. One
    /// atomic load when nobody has failed; the membership scan only runs
    /// after a failure.
    pub fn member_failure(&self) -> Option<MpiError> {
        if !self.world.any_failed() {
            return None;
        }
        self.group
            .iter()
            .find(|w| self.world.is_failed(**w))
            .map(|w| MpiError::RankFailed { rank: *w })
    }

    /// Emit a flight-recorder event on this rank's track. One pointer test
    /// when tracing is off; the closure only runs when on.
    #[inline]
    pub(crate) fn trace(&self, kind: impl FnOnce() -> obs::EventKind) {
        self.world.emit(self.my_world(), &self.clock, kind);
    }

    /// Charge the per-call software overhead (virtual-clock worlds only).
    pub fn charge_call(&self) {
        if let ClockMode::Virtual(model) = &self.world.mode {
            self.clock.lock().charge(model.call_overhead_us);
        }
    }

    pub fn check_rank(&self, rank: u32) -> Result<(), MpiError> {
        if rank >= self.size() {
            return Err(MpiError::InvalidRank { rank, size: self.size() });
        }
        Ok(())
    }

    /// The error a blocked wildcard operation should observe: the first
    /// failed rank this rank has not acknowledged yet, if any.
    pub fn unacked_failure(&self) -> Option<MpiError> {
        self.world
            .failed_since(self.acked.load(Ordering::Relaxed))
            .map(|rank| MpiError::RankFailed { rank })
    }

    /// Matching predicate for a receive (delegates to
    /// [`Message::matches`]; see there for the wildcard rules).
    pub(crate) fn matcher(
        comm_id: u64,
        src: Source,
        tag: Tag,
    ) -> impl FnMut(&Message) -> bool {
        move |m: &Message| m.matches(comm_id, src, tag)
    }

    /// Post a receive with this rank's mailbox: either claims the
    /// earliest queued match immediately or enters the posted queue,
    /// where arrivals match it in posting order (see `crate::message`).
    /// The caller keeps the destination buffer and performs delivery via
    /// [`CommCtx::deliver`] once the entry yields its message.
    pub fn post_recv(&self, src: Source, tag: Tag) -> Arc<RecvEntry> {
        self.trace(|| obs::EventKind::RecvPost {
            peer: match src {
                Source::Rank(r) => self.group.get(r as usize).map(|w| *w as i32).unwrap_or(-1),
                Source::Any => -1,
            },
            tag: match tag {
                Tag::Value(t) => t,
                Tag::Any => -1,
            },
        });
        let src_world = match src {
            Source::Rank(r) => self.group.get(r as usize).copied(),
            Source::Any => None,
        };
        let entry = RecvEntry::with_src_world(self.comm_id, src, tag, src_world, &self.world.stats);
        self.world.mailbox(self.my_world()).post_recv(&entry);
        self.world.note_progress();
        // Failure checks *after* registration close the race with a
        // concurrent `fail_rank` sweep: whichever runs second sees the
        // other's effect. `fail_with` only fails a still-posted entry, so
        // a message that arrived before the failure stays deliverable.
        // A failed rank's own post fails immediately — `fail_own` only
        // sweeps entries posted before the death, and a dead rank parked
        // on a fresh receive would wait forever (senders refuse dead
        // destinations).
        let me = self.my_world();
        if self.world.is_failed(me) {
            entry.fail_with(MpiError::RankFailed { rank: me });
            return entry;
        }
        // Collective sub-receives (reserved negative tags) abort on *any*
        // failed member, matching the collective poll path: a blocking
        // collective must not park on a live partner whose own schedule
        // aborted against the dead rank.
        if matches!(tag, Tag::Value(t) if t < 0) {
            if let Some(err) = self.member_failure() {
                entry.fail_with(err);
                return entry;
            }
        }
        match src {
            Source::Rank(_) => {
                if let Some(w) = src_world {
                    if self.world.is_failed(w) {
                        entry.fail_with(MpiError::RankFailed { rank: w });
                    }
                }
            }
            Source::Any => {
                if let Some(err) = self.unacked_failure() {
                    entry.fail_with(err);
                }
            }
        }
        entry
    }

    /// Unpost a receive (request drop / free). A message already matched
    /// to the entry is reinserted into the mailbox at its arrival
    /// position, staying available to other receives.
    pub fn cancel_recv(&self, entry: &Arc<RecvEntry>) {
        self.world.mailbox(self.my_world()).cancel_posted(entry);
    }

    /// Stamp a new outgoing message (departure time, identity). The
    /// mailbox assigns `seq` at deposit.
    fn message(&self, tag: i32, payload: Payload) -> Message {
        Message {
            src_in_comm: self.rank,
            tag,
            comm_id: self.comm_id,
            payload,
            sent_at_us: self.clock.lock().virtual_us,
            src_world: self.my_world(),
            seq: 0,
            flow: self.world.next_flow(),
        }
    }

    /// Initiate a send without blocking. The protocol is decided here,
    /// once; the counters, `SendStart` and the slot the receiver reads its
    /// `RecvDone` tag from all follow that one decision:
    ///
    /// * **Eager** — the payload fits under the threshold and the send is
    ///   not `sync`: the bytes go into the destination mailbox (an owned
    ///   payload is moved, a pinned one copied) and the op is complete.
    /// * **Deferred eager** — an eager-sized payload that may not complete
    ///   at initiation rides a protocol-owned [`RendezvousSlot`], so the op
    ///   completes when the receiver drains it. Two causes: the mailbox had
    ///   no credit (FIFO order survives without growing the mailbox), or
    ///   the send is `sync` (`MPI_Ssend`/`Issend`), whose completion must
    ///   imply that the receiver matched the message.
    /// * **Rendezvous** — a payload above the threshold stays where it is
    ///   (the caller's pinned buffer, or the owned box) until the receiver
    ///   copies it out. That is synchronous already, so `sync` changes
    ///   nothing.
    ///
    /// Self-sends always complete locally — the mailbox buffers the payload
    /// regardless of size or credit, because the same thread must later
    /// receive it and could never answer a handshake — and a dropped wire
    /// fault completes the send. Both hold even for `sync`, where real MPI
    /// would block: matching the eager fault model keeps the watchdog's
    /// hung-*receiver* scenario.
    pub fn start_send(
        &self,
        payload: SendPayload,
        dest: u32,
        tag: i32,
        sync: bool,
    ) -> Result<SendOp, MpiError> {
        self.check_rank(dest)?;
        let me_world = self.my_world();
        if self.world.is_failed(me_world) {
            // A dead sender must never park in a rendezvous handshake a
            // live receiver may never answer.
            return Err(MpiError::RankFailed { rank: me_world });
        }
        let dest_world = self.group[dest as usize];
        if self.world.is_failed(dest_world) {
            return Err(MpiError::RankFailed { rank: dest_world });
        }
        let mailbox = self.world.mailbox(dest_world);
        let stats = &self.world.stats;
        self.world.note_progress();
        let len = payload.len();

        // Trace the departure: protocol decision, bytes, whether the
        // deposit hit an already-posted receive (counted here too), and
        // the flow id tying this send to its eventual delivery event on
        // the receiver.
        let sent = |protocol: obs::Protocol, deposit: Option<&Deposit>, flow: u64| {
            let matched = matches!(deposit, Some(Deposit::Matched));
            if matched {
                stats.preposted_matches.fetch_add(1, Ordering::Relaxed);
            }
            self.trace(|| obs::EventKind::SendStart {
                peer: dest_world,
                tag,
                bytes: len as u32,
                protocol,
                matched_posted: matched,
                flow,
            });
        };

        // Injected wire faults (deterministic, from the world's fault
        // plan): a dropped message is simply never deposited — the send
        // completes, the receiver waits for bytes that never arrive (the
        // hang watchdog's detection scenario); a delay fault shifts the
        // departure stamp so virtual-clock receivers see the extra wire
        // time.
        let wire_fault = self.world.fault_wire(me_world, dest_world);
        if wire_fault.drop {
            sent(obs::Protocol::Eager, None, 0);
            return Ok(SendOp::done());
        }

        let to_self = dest_world == me_world;
        let eager_sized = len <= self.world.protocol.eager_threshold;
        let (payload, protocol, starved) = if to_self || (eager_sized && !sync) {
            stats.eager_messages.fetch_add(1, Ordering::Relaxed);
            stats.eager_bytes_copied.fetch_add(len as u64, Ordering::Relaxed);
            let mut msg = self.message(tag, Payload::Eager(payload.into_box()));
            if !to_self {
                msg.sent_at_us += wire_fault.delay_us;
            }
            let flow = msg.flow;
            match mailbox.deposit(msg, !to_self) {
                Deposit::NoCredit(mut msg) => {
                    // No credit: the stamped message comes back, and goes
                    // out again below as the RTS of its own payload.
                    let taken = std::mem::replace(&mut msg.payload, Payload::Eager(Box::new([])));
                    let Payload::Eager(data) = taken else { unreachable!() };
                    (SendPayload::Owned(data), obs::Protocol::EagerDeferred, Some(msg))
                }
                deposit => {
                    let protocol =
                        if to_self { obs::Protocol::SelfMsg } else { obs::Protocol::Eager };
                    sent(protocol, Some(&deposit), flow);
                    return Ok(SendOp::done());
                }
            }
        } else if eager_sized {
            (SendPayload::Owned(payload.into_box()), obs::Protocol::EagerDeferred, None)
        } else {
            (payload, obs::Protocol::Rendezvous, None)
        };

        if protocol == obs::Protocol::EagerDeferred {
            stats.deferred_eager_messages.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.rendezvous_messages.fetch_add(1, Ordering::Relaxed);
            stats.rendezvous_bytes.fetch_add(len as u64, Ordering::Relaxed);
        }
        let slot = RendezvousSlot::new(payload, protocol, stats);
        let rts = Payload::Rendezvous(RtsPayload(Arc::clone(&slot)));
        let msg = match starved {
            Some(msg) => Message { payload: rts, ..msg },
            None => {
                let mut msg = self.message(tag, rts);
                msg.sent_at_us += wire_fault.delay_us;
                msg
            }
        };
        let flow = msg.flow;
        sent(protocol, Some(&mailbox.deposit(msg, false)), flow);
        self.recheck_dest(dest_world, &slot)?;
        Ok(SendOp::in_flight(slot, dest_world, flow))
    }

    /// Close the race between our failed-destination pre-check and a
    /// concurrent `fail_rank` sweep of the destination mailbox: a
    /// rendezvous RTS deposited *after* the sweep would otherwise park
    /// its sender forever. `fail_rank` marks the rank failed before
    /// sweeping, so re-checking after the deposit sees every failure the
    /// sweep could have missed.
    fn recheck_dest(
        &self,
        dest_world: u32,
        slot: &Arc<RendezvousSlot>,
    ) -> Result<(), MpiError> {
        if self.world.is_failed(dest_world) {
            let err = MpiError::RankFailed { rank: dest_world };
            self.world.mailbox(dest_world).retract_rendezvous(slot);
            slot.fail_if_posted_with(err.clone());
            return Err(err);
        }
        Ok(())
    }

    /// Sharpen a generic slot/entry error: if the peer we were talking to
    /// is in the failed set, the real cause is its death — report
    /// `RankFailed` rather than `WorldShutdown` (covers slots failed by a
    /// dying rank's own request teardown, which does not know why it is
    /// unwinding).
    pub fn refine_peer_err(&self, err: MpiError, peer_world: u32) -> MpiError {
        if matches!(err, MpiError::WorldShutdown) && self.world.is_failed(peer_world) {
            MpiError::RankFailed { rank: peer_world }
        } else {
            err
        }
    }

    /// Blocking send: the same initiation as the nonblocking path, then
    /// park until complete. Eager sends with credit return immediately;
    /// credit-starved eager sends and rendezvous sends park on their slot
    /// — which the receiver can *match* (the RTS rides the queue), unlike
    /// a wait for buffer credit, so a posted matching receive always lets
    /// a blocking send through (MPI's progress guarantee: rooted
    /// collectives like gather would otherwise deadlock once aggregate
    /// eager traffic exceeds the budget).
    pub fn send_blocking(
        &self,
        buf: &[u8],
        dest: u32,
        tag: i32,
        sync: bool,
    ) -> Result<(), MpiError> {
        let payload = SendPayload::Pinned(buf.as_ptr(), buf.len());
        self.start_send(payload, dest, tag, sync)?.wait(self)
    }

    /// Deliver a matched message into `dst` (or an owned vec when `dst` is
    /// `None`); see [`CommCtx::deliver_with`].
    ///
    /// On truncation the message is consumed and the handshake still
    /// completes (the sender must not hang on the receiver's error), as in
    /// real MPI.
    pub fn deliver(
        &self,
        msg: Message,
        dst: Option<&mut [u8]>,
    ) -> Result<(Status, Option<Vec<u8>>), MpiError> {
        let Some(buf) = dst else {
            let (status, data) = self.deliver_with(msg, |payload| payload.into_owned())?;
            return Ok((status, Some(data)));
        };
        // The direct handoff: sender buffer -> posted receive buffer, no
        // intermediate copy.
        let (status, copied) = self.deliver_with(msg, |payload| {
            if payload.len() > buf.len() {
                return Err(MpiError::Truncated {
                    message_len: payload.len(),
                    buffer_len: buf.len(),
                });
            }
            buf[..payload.len()].copy_from_slice(&payload);
            Ok(())
        })?;
        copied?;
        Ok((status, None))
    }

    /// The one delivery path: advance the receiver's virtual clock, trace
    /// the arrival, and hand `f` the matched payload *in place* — the
    /// eager box (owned, so taking it is free), or the sender's pinned
    /// buffer under the rendezvous slot's state lock — completing the
    /// handshake whatever `f` returns. Errors if the slot already failed
    /// (shutdown): a stale RTS must never be read, its buffer may be gone.
    pub fn deliver_with<R>(
        &self,
        msg: Message,
        f: impl FnOnce(Cow<'_, [u8]>) -> R,
    ) -> Result<(Status, R), MpiError> {
        let len = msg.payload.len();
        self.world.note_progress();
        let mut recv_clock_us = 0.0;
        if let ClockMode::Virtual(model) = &self.world.mode {
            let wire = model.profile.p2p_time(msg.src_world, self.my_world(), len);
            let mut clock = self.clock.lock();
            clock.advance_to(msg.sent_at_us + wire.as_micros());
            clock.charge(model.call_overhead_us);
            recv_clock_us = clock.virtual_us;
        }
        let status = Status::msg(msg.src_in_comm, msg.tag, len);
        // Delivery always runs on the receiving rank: trace the arrival
        // (timestamped *after* the wire-time advance, so virtual traces
        // put the event at simulated arrival time) with the protocol the
        // payload actually travelled under.
        self.trace(|| obs::EventKind::RecvDone {
            peer: msg.src_world,
            tag: msg.tag,
            bytes: len as u32,
            protocol: match &msg.payload {
                Payload::Eager(_) if msg.src_world == self.my_world() => obs::Protocol::SelfMsg,
                Payload::Eager(_) => obs::Protocol::Eager,
                Payload::Rendezvous(rts) => rts.0.protocol(),
            },
            flow: msg.flow,
        });

        let out = match msg.payload {
            Payload::Eager(data) => f(Cow::Owned(data.into_vec())),
            Payload::Rendezvous(rts) => rts
                .0
                .consume_with(recv_clock_us, |payload| f(Cow::Borrowed(payload)))
                .map_err(|e| self.refine_peer_err(e, msg.src_world))?,
        };
        Ok((status, out))
    }
}

// --- send operation handle ----------------------------------------------

/// An initiated send. Eager sends with credit complete immediately;
/// rendezvous (and credit-deferred) sends complete when the receiver
/// drains the payload.
pub(crate) struct SendOp {
    state: SendState,
}

enum SendState {
    Done,
    InFlight { slot: Arc<RendezvousSlot>, dest_world: u32, flow: u64 },
}

impl SendOp {
    fn done() -> SendOp {
        SendOp { state: SendState::Done }
    }

    fn in_flight(slot: Arc<RendezvousSlot>, dest_world: u32, flow: u64) -> SendOp {
        SendOp { state: SendState::InFlight { slot, dest_world, flow } }
    }

    fn on_complete(ctx: &CommCtx, recv_clock_us: f64, dest_world: u32, flow: u64) {
        // Rendezvous sends are synchronous: the sender's clock catches up
        // to the receiver's completion time (the CTS/done round trip is
        // inside the profile's handshake latency, already charged on the
        // receive path).
        if matches!(ctx.world.mode, ClockMode::Virtual(_)) {
            ctx.clock.lock().advance_to(recv_clock_us);
        }
        ctx.world.note_progress();
        // Handshake phase 3 from the sender's view: payload consumed,
        // buffer released. Timestamped after the clock sync above.
        ctx.trace(|| obs::EventKind::SendDone { peer: dest_world, flow });
    }

    /// Non-blocking completion check.
    pub fn poll(&mut self, ctx: &CommCtx) -> Result<bool, MpiError> {
        match &self.state {
            SendState::Done => Ok(true),
            SendState::InFlight { slot, dest_world, flow } => {
                match slot.poll_done().map_err(|e| ctx.refine_peer_err(e, *dest_world))? {
                    Some(recv_us) => {
                        Self::on_complete(ctx, recv_us, *dest_world, *flow);
                        self.state = SendState::Done;
                        Ok(true)
                    }
                    None => Ok(false),
                }
            }
        }
    }

    /// Already complete, as far as `poll` has seen.
    pub fn is_done(&self) -> bool {
        matches!(self.state, SendState::Done)
    }

    /// Park until the receiver has finished or failed the transfer, for
    /// at most `timeout`; the next `poll` observes the outcome.
    pub fn park(&self, timeout: Duration) {
        if let SendState::InFlight { slot, .. } = &self.state {
            slot.wait_posted(timeout);
        }
    }

    /// Block until the receiver completes the transfer.
    pub fn wait(&mut self, ctx: &CommCtx) -> Result<(), MpiError> {
        match &self.state {
            SendState::Done => Ok(()),
            SendState::InFlight { slot, dest_world, flow } => {
                let recv_us =
                    slot.wait_done().map_err(|e| ctx.refine_peer_err(e, *dest_world))?;
                Self::on_complete(ctx, recv_us, *dest_world, *flow);
                self.state = SendState::Done;
                Ok(())
            }
        }
    }

    /// Cancel or finish the transfer so the sender-side buffer can be
    /// released (called from `Request::drop` and error paths). The RTS
    /// stays queued: failing the slot means a receiver that matches it
    /// wakes with an error instead of waiting forever for a message that
    /// was un-sent, and the state-locked consume path guarantees the (now
    /// invalid) buffer pointer is never dereferenced. If the receiver is
    /// mid-copy, `fail_if_posted` blocks on the state lock until the copy
    /// finishes, so the buffer outlives every read either way.
    pub fn cancel(&mut self, _ctx: &CommCtx) {
        if let SendState::InFlight { slot, .. } = &self.state {
            slot.fail_if_posted();
            self.state = SendState::Done;
        }
    }

    /// `MPI_Cancel` on a pending send: retract the message if — and only
    /// if — its RTS is still queued unmatched at the destination (a
    /// credit-deferred eager send or an unanswered rendezvous). Returns
    /// `true` when the send was retracted; `false` when it is past
    /// cancellation (completed eagerly at initiation, or its RTS already
    /// matched a receive) and must complete normally. Unlike
    /// [`SendOp::cancel`], the RTS does not stay queued with a poisoned
    /// slot: the message is *removed* under the mailbox lock, so no
    /// receiver can ever observe the un-sent message.
    pub fn try_cancel(&mut self, ctx: &CommCtx, dest: u32) -> bool {
        let SendState::InFlight { slot, .. } = &self.state else {
            return false; // eagerly completed at initiation: unrecallable
        };
        let dest_world = ctx.group[dest as usize];
        if !ctx.world.mailbox(dest_world).retract_rendezvous(slot) {
            return false;
        }
        let stats = &ctx.world.stats;
        stats.cancelled_sends.fetch_add(1, Ordering::Relaxed);
        stats.retracted_rts.fetch_add(1, Ordering::Relaxed);
        self.state = SendState::Done;
        true
    }
}

//! Internal message representation, per-rank mailboxes, and the
//! **posted-receive queue**.
//!
//! A mailbox holds two queues under one lock:
//!
//! * the **message queue** — arrived-but-unmatched messages in arrival
//!   order (preserving MPI's non-overtaking guarantee per sender), with
//!   **bounded eager buffering**: eager payloads consume credit from a
//!   per-mailbox byte budget that is returned when the message leaves the
//!   queue. Senders that cannot obtain credit fall back to the rendezvous
//!   protocol (see [`crate::progress`]), which keeps the payload on the
//!   sender's side — announced by a matchable RTS in the queue — until the
//!   receiver is ready.
//! * the **posted queue** — receives posted before their message arrived
//!   ([`RecvEntry`]), in posting order.
//!
//! # Matching invariant
//!
//! Both queues are updated atomically under the mailbox lock, maintaining
//! the invariant that **no queued message matches any posted receive**:
//!
//! * an arriving message first scans the posted queue *in posting order*
//!   and, on a match, parks in that entry (never touching the message
//!   queue — matched eager arrivals consume no buffer credit, and a
//!   matched RTS is answerable the moment the receiver drains it);
//! * a receive being posted first scans the message queue *in arrival
//!   order* and claims the first match; only if none matches does it
//!   enter the posted queue.
//!
//! Together these give MPI's matching rules by construction: same-matcher
//! receives match in posted order, wildcard (`ANY_SOURCE`/`ANY_TAG`)
//! entries race specific entries purely by posting position, and per-pair
//! FIFO survives because a message can only bypass the message queue when
//! nothing queued could have matched its receiver.
//!
//! Matching transfers only the *message* into the entry. Delivery — the
//! payload copy and the virtual-clock charge — stays with the receiving
//! rank (see [`crate::progress::CommCtx::deliver`]), so arrival-time
//! matching never runs receiver-side accounting on the sender's thread.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::comm::{Source, Tag, COLLECTIVE_TAG_BASE};
use crate::error::MpiError;
use crate::park::Doorbell;
use crate::progress::{ProtocolStats, RendezvousSlot};

/// Eager payloads of at most this many bytes travel inside their
/// [`Message`] ([`Payload::Inline`]): an 8-byte send, the latency-bound
/// case, allocates nothing on its way.
pub(crate) const INLINE_PAYLOAD: usize = 16;

// `tests/progress.rs` sends every size from 0 to 64 bytes across it, and
// its length fits the `u8` that `Inline` keeps.
const _: () = assert!(8 <= INLINE_PAYLOAD && INLINE_PAYLOAD < 64);

/// Payload of an in-flight message: eagerly copied bytes, inline or boxed,
/// or a rendezvous RTS carrying a handle to the sender-side payload.
#[derive(Debug)]
pub(crate) enum Payload {
    /// Eager protocol, small: the bytes were copied into the message.
    Inline(Inline),
    /// Eager protocol: the bytes were copied into a box the message owns.
    Eager(Box<[u8]>),
    /// Rendezvous protocol: ready-to-send announcement. The payload stays
    /// with the sender; the receiver copies it straight into the posted
    /// buffer and completes the slot (the CTS + transfer in one step).
    Rendezvous(RtsPayload),
}

/// Up to [`INLINE_PAYLOAD`] bytes held in place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Inline {
    len: u8,
    bytes: [u8; INLINE_PAYLOAD],
}

impl Inline {
    /// `data` held in place, if it fits.
    pub fn new(data: &[u8]) -> Option<Inline> {
        let mut bytes = [0; INLINE_PAYLOAD];
        bytes.get_mut(..data.len())?.copy_from_slice(data);
        Some(Inline { len: data.len() as u8, bytes })
    }

    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl Payload {
    /// An eager payload of `data`: inline when it fits, else boxed.
    pub fn eager(data: &[u8]) -> Payload {
        Inline::new(data).map_or_else(|| Payload::Eager(data.into()), Payload::Inline)
    }

    pub fn len(&self) -> usize {
        match self {
            Payload::Inline(inline) => inline.len as usize,
            Payload::Eager(data) => data.len(),
            Payload::Rendezvous(rts) => rts.0.len(),
        }
    }

    /// Bytes of eager buffer the payload occupies while queued: the
    /// mailbox credit it holds (an RTS holds none).
    fn credit(&self) -> usize {
        match self {
            Payload::Rendezvous(_) => 0,
            eager => eager.len(),
        }
    }

    /// An eager payload's bytes as a box: moved if boxed, copied if inline
    /// (a credit-starved send turning into the RTS of its own payload).
    pub fn into_box(self) -> Box<[u8]> {
        match self {
            Payload::Inline(inline) => inline.bytes().into(),
            Payload::Eager(data) => data,
            Payload::Rendezvous(_) => unreachable!("an RTS has no eager bytes"),
        }
    }
}

/// RTS handle wrapper: if the message is destroyed without the receiver
/// completing the transfer (shutdown, teardown with queued messages, a
/// cancelled posted receive dropping its matched message), the slot fails
/// and its sender's doorbell rings.
#[derive(Debug)]
pub(crate) struct RtsPayload(pub Arc<RendezvousSlot>);

impl Drop for RtsPayload {
    fn drop(&mut self) {
        self.0.fail_if_posted();
    }
}

/// One in-flight message.
#[derive(Debug)]
pub(crate) struct Message {
    /// Sender's rank within the communicator `comm_id`.
    pub src_in_comm: u32,
    pub tag: i32,
    pub comm_id: u64,
    pub payload: Payload,
    /// Sender's virtual clock at departure, µs (0 in real-clock mode).
    pub sent_at_us: f64,
    /// Sender's world rank (for wire-time computation).
    pub src_world: u32,
    /// Arrival sequence number within the destination mailbox, assigned
    /// at deposit. The message queue is kept in `seq` order so a message
    /// reclaimed from a cancelled posted receive can be reinserted at its
    /// original arrival position (no overtaking through cancellation).
    pub seq: u64,
    /// Flight-recorder flow id tying the send event to the delivery event
    /// (0 when tracing is off; see `obs`).
    pub flow: u64,
}

impl Message {
    /// The posted-receive matching predicate. `Tag::Any` never matches
    /// the internal collective tag space (all at or below
    /// [`COLLECTIVE_TAG_BASE`]): collective traffic must stay invisible
    /// to wildcard point-to-point receives, as MPI requires.
    pub fn matches(&self, comm_id: u64, src: Source, tag: Tag) -> bool {
        self.comm_id == comm_id
            && match src {
                Source::Any => true,
                Source::Rank(r) => self.src_in_comm == r,
            }
            && match tag {
                Tag::Any => self.tag > COLLECTIVE_TAG_BASE,
                Tag::Value(t) => self.tag == t,
            }
    }

    pub(crate) fn probe_info(&self) -> ProbeInfo {
        ProbeInfo {
            src_in_comm: self.src_in_comm,
            tag: self.tag,
            bytes: self.payload.len(),
            sent_at_us: self.sent_at_us,
            src_world: self.src_world,
        }
    }
}

/// Everything a probe learns about a queued message without dequeuing it:
/// the `Status` fields plus the timing identity the virtual clock needs to
/// charge the observation consistently with a later delivery.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeInfo {
    pub src_in_comm: u32,
    pub tag: i32,
    pub bytes: usize,
    /// Sender's virtual clock at departure, µs (0 in real-clock mode).
    pub sent_at_us: f64,
    pub src_world: u32,
}

// --- posted receives -----------------------------------------------------

/// State of one posted receive.
#[derive(Debug)]
enum EntryState {
    /// Waiting in the mailbox's posted queue for an arrival.
    Posted,
    /// An arrival matched this entry; the message parks here until the
    /// receiving rank delivers it (copy + clock charge).
    Matched(Message),
    /// The receiver took the message (terminal).
    Taken,
    /// Failed before a match: world shutdown or a dependent rank failure
    /// (terminal; carries the error the receiver observes).
    Failed(MpiError),
    /// Unposted by the receiver before a match (terminal).
    Cancelled,
}

/// A pre-posted receive: the matchbox a receive registers with its rank's
/// mailbox. Holds no buffer pointers — the receiving rank keeps those and
/// performs delivery itself — so the sender-side matching path never
/// touches receiver memory.
#[derive(Debug)]
pub(crate) struct RecvEntry {
    comm_id: u64,
    src: Source,
    tag: Tag,
    /// World rank of the awaited sender when `src` is specific (resolved
    /// at posting time), so the mailbox can fail dependent entries on a
    /// peer failure without knowing communicator groups. `None` for
    /// wildcard receives — those depend on *every* peer.
    src_world: Option<u32>,
    /// Changed by the sender's deposit and by the failure sweeps, under the
    /// mailbox lock or right before the mailbox's doorbell rings.
    state: Mutex<EntryState>,
    /// Set, under the state lock, when the state leaves `Posted`: a poll
    /// that finds it clear answers "not yet" without taking the lock. It
    /// is set before the ring that follows every such change, so a waiter
    /// that reads it clear polls again after the ring and sees it set.
    settled: AtomicBool,
}

thread_local! {
    /// The entry of this thread's last delivered posted receive, which its
    /// next post reuses if nobody else still holds it: a thread that keeps
    /// posting receives builds one entry, not one per receive.
    static SPARE_ENTRY: Cell<Option<Arc<RecvEntry>>> = const { Cell::new(None) };
}

impl RecvEntry {
    /// A fresh `Posted` entry, in this thread's spare entry when that is
    /// uniquely owned.
    fn posted(comm_id: u64, src: Source, tag: Tag, src_world: Option<u32>) -> Arc<RecvEntry> {
        let state = Mutex::new(EntryState::Posted);
        let entry = RecvEntry { comm_id, src, tag, src_world, state, settled: AtomicBool::new(false) };
        if let Some(mut spare) = SPARE_ENTRY.try_with(Cell::take).ok().flatten() {
            if let Some(slot) = Arc::get_mut(&mut spare) {
                *slot = entry;
                return spare;
            }
        }
        Arc::new(entry)
    }

    /// Keep a delivered entry as this thread's spare.
    fn retire(entry: Arc<RecvEntry>) {
        let _ = SPARE_ENTRY.try_with(|spare| spare.set(Some(entry)));
    }

    fn matches(&self, m: &Message) -> bool {
        m.matches(self.comm_id, self.src, self.tag)
    }

    /// Latch a matched message; the caller rings the receiver's doorbell.
    /// Called under the mailbox lock on an entry just claimed from the
    /// posted queue. The entry is usually still `Posted`, but rank-failure
    /// propagation (`CommCtx::post_recv`'s post-registration checks) fails
    /// entries *without* holding the mailbox lock, so a concurrent sender
    /// can claim an entry that is already `Failed`. Such an entry hands
    /// the message back: the receiver must observe the failure, and the
    /// message stays deliverable to other receives.
    fn try_fulfill(&self, msg: Message) -> Result<(), Message> {
        let mut st = self.state.lock();
        if !matches!(*st, EntryState::Posted) {
            return Err(msg);
        }
        self.settle(&mut st, EntryState::Matched(msg));
        Ok(())
    }

    /// Move a `Posted` entry to `next`, under its state lock.
    fn settle(&self, st: &mut EntryState, next: EntryState) {
        *st = next;
        self.settled.store(true, Ordering::Release);
    }

    /// Fail a still-posted entry with a specific error (rank-failure
    /// propagation); entries already holding a matched message keep it —
    /// data that arrived before the failure is still deliverable. A
    /// receiver other than the caller learns of it from the ring that
    /// follows the sweep.
    pub(crate) fn fail_with(&self, err: MpiError) {
        let mut st = self.state.lock();
        if matches!(*st, EntryState::Posted) {
            self.settle(&mut st, EntryState::Failed(err));
        }
    }

    /// What the receiver gets once the entry has left `Posted`: the
    /// matched message, exactly once, or the failure.
    fn take(st: &mut EntryState) -> Option<Result<Message, MpiError>> {
        match st {
            EntryState::Posted => None,
            EntryState::Matched(_) => {
                let EntryState::Matched(msg) = std::mem::replace(st, EntryState::Taken) else {
                    unreachable!()
                };
                Some(Ok(msg))
            }
            EntryState::Failed(err) => Some(Err(err.clone())),
            EntryState::Taken | EntryState::Cancelled => {
                panic!("taking from a retired posted receive")
            }
        }
    }

    /// Receiver: non-blocking poll. `None` while unmatched; the matched
    /// message exactly once; `WorldShutdown` after a pre-match teardown.
    pub fn poll(&self) -> Result<Option<Message>, MpiError> {
        if !self.settled.load(Ordering::Acquire) {
            return Ok(None);
        }
        Self::take(&mut self.state.lock()).transpose()
    }
}

/// A posted receive as its poster holds it.
#[derive(Debug)]
pub(crate) enum Recv {
    /// Matched when it was posted, or by a matched probe (`MPI_Imrecv`):
    /// the message is already here, and no entry was built for it.
    Claimed(Message),
    /// Registered with the mailbox, where an arrival may match it.
    Posted(Arc<RecvEntry>),
    /// The message was taken (terminal).
    Taken,
}

impl Recv {
    /// Non-blocking poll: `None` while unmatched; the matched message
    /// exactly once; the failure of a posted entry, as often as asked. A
    /// posted entry whose message is taken becomes the thread's spare.
    pub fn poll(&mut self) -> Result<Option<Message>, MpiError> {
        match std::mem::replace(self, Recv::Taken) {
            Recv::Claimed(msg) => Ok(Some(msg)),
            Recv::Posted(entry) => {
                let polled = entry.poll();
                match polled {
                    Ok(Some(_)) => RecvEntry::retire(entry),
                    _ => *self = Recv::Posted(entry),
                }
                polled
            }
            Recv::Taken => panic!("taking from a retired receive"),
        }
    }
}

// --- mailbox -------------------------------------------------------------

/// Outcome of depositing a message into a mailbox.
#[derive(Debug)]
pub(crate) enum Deposit {
    /// The message matched a posted receive and parks in its entry — it
    /// never entered the message queue and consumed no eager credit.
    Matched,
    /// The message joined the message queue.
    Queued,
    /// Eager credit exhausted (or the world shut down): the message is
    /// handed back for the sender-owned rendezvous deferral.
    NoCredit(Message),
}

/// How deep a deposit may leave the message queue before the sender yields.
/// A receiver that yields instead of sleeping ([`crate::park`]) is never
/// *woken*, so wake-up preemption no longer paces a one-way eager stream:
/// on a shared CPU the root of an 8-byte Bcast loop ran a time slice ahead
/// (≈ 4 000 messages, `imb_small_np2` `peak_rss_mb` 5.7 → 7.3 MiB). With the
/// yield it is 4.1 MiB, and `mpi.bcast_us` reads 1.0 µs at 16 and at 64.
const RUN_AHEAD: usize = 64;

/// A rank's mailbox: the two matched queues, and the owner's doorbell.
/// Eager senders never wait for credit — a credit miss is converted into a
/// sender-owned rendezvous by the progress engine, so backpressure is
/// always visible to matching (no invisible parking).
pub(crate) struct Mailbox {
    /// What every blocked call of the owner waits on ([`crate::park`]).
    /// Rung by every change to the queues or to an entry posted here that
    /// another thread makes: a deposit, matched or queued, a re-offer or
    /// requeue, and the failure and shutdown sweeps.
    pub bell: Arc<Doorbell>,
    pub queue: Mutex<MailboxState>,
    /// Eager-buffer byte budget for this mailbox.
    capacity: usize,
}

#[derive(Default)]
pub(crate) struct MailboxState {
    pub messages: VecDeque<Message>,
    /// Receives posted before their message arrived, in posting order.
    pub posted: VecDeque<Arc<RecvEntry>>,
    /// Bytes of eager payload currently buffered (credit in use).
    pub eager_bytes: usize,
    /// Arrival counter: assigns [`Message::seq`].
    pub next_seq: u64,
    /// Set when the world is tearing down; receivers must stop blocking.
    pub shutdown: bool,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox::new(usize::MAX, &Arc::default())
    }
}

impl Mailbox {
    pub fn new(capacity: usize, stats: &Arc<ProtocolStats>) -> Mailbox {
        Mailbox { bell: Arc::new(Doorbell::new(stats)), queue: Mutex::default(), capacity }
    }

    /// First posted entry (in posting order) matching `msg`, removed from
    /// the posted queue. Must run under the state lock.
    fn claim_posted(q: &mut MailboxState, msg: &Message) -> Option<Arc<RecvEntry>> {
        let pos = q.posted.iter().position(|e| e.matches(msg))?;
        q.posted.remove(pos)
    }

    /// Deposit a message: match it against the posted queue (posting
    /// order) or append it to the message queue. With `enforce_credit`,
    /// an unmatched message must claim eager credit and is handed back in
    /// [`Deposit::NoCredit`] when the budget is exhausted (a message is
    /// always admitted into an empty buffer so payloads larger than the
    /// whole budget still make progress). Without it the message is
    /// queued unconditionally (rendezvous RTS control messages,
    /// self-sends, credit-deferred rendezvous).
    ///
    /// A sender that leaves the queue more than [`RUN_AHEAD`] deep yields
    /// once before it returns.
    ///
    /// After shutdown the message is discarded (credit-free path) or
    /// bounced (`NoCredit`), which ultimately fails its rendezvous slot
    /// (via `RtsPayload::drop`) so the sender wakes with `WorldShutdown`
    /// rather than parking forever on a handshake nobody will answer.
    pub fn deposit(&self, mut msg: Message, enforce_credit: bool) -> Deposit {
        let mut q = self.queue.lock();
        if q.shutdown {
            if enforce_credit {
                return Deposit::NoCredit(msg);
            }
            drop(q);
            drop(msg);
            return Deposit::Queued;
        }
        msg.seq = q.next_seq;
        q.next_seq += 1;
        while let Some(entry) = Self::claim_posted(&mut q, &msg) {
            // Fulfill while still holding the mailbox lock: a concurrent
            // cancel (which also takes the mailbox lock first) must see
            // either the entry still posted or the message latched —
            // never a removed-but-unmatched entry, whose message would
            // be lost. An entry already failed by rank-failure
            // propagation refuses the message (it stays removed —
            // terminal either way) and the scan continues.
            match entry.try_fulfill(msg) {
                Ok(()) => {
                    // Let go of the entry before the receiver can see its
                    // message, so that its next post finds it unshared
                    // and reuses it.
                    drop(entry);
                    drop(q);
                    self.bell.ring();
                    return Deposit::Matched;
                }
                Err(m) => msg = m,
            }
        }
        if enforce_credit {
            let len = msg.payload.len();
            if q.eager_bytes > 0 && q.eager_bytes + len > self.capacity {
                return Deposit::NoCredit(msg);
            }
            q.eager_bytes += len;
        } else {
            q.eager_bytes += msg.payload.credit();
        }
        q.messages.push_back(msg);
        let ahead = q.messages.len() > RUN_AHEAD;
        drop(q);
        self.bell.ring();
        if ahead {
            std::thread::yield_now();
        }
        Deposit::Queued
    }

    /// Post a receive: claim the first queued match (arrival order),
    /// building no entry for it, or append a new entry to the posted
    /// queue. `src_world` is the awaited sender's world rank, when `src`
    /// names one. After shutdown the entry is born failed.
    pub fn post_recv(&self, comm_id: u64, src: Source, tag: Tag, src_world: Option<u32>) -> Recv {
        let mut q = self.queue.lock();
        if q.shutdown {
            drop(q);
            let entry = RecvEntry::posted(comm_id, src, tag, src_world);
            entry.fail_with(MpiError::WorldShutdown);
            return Recv::Posted(entry);
        }
        if let Some(pos) = q.messages.iter().position(|m| m.matches(comm_id, src, tag)) {
            return Recv::Claimed(self.remove_at(&mut q, pos));
        }
        let entry = RecvEntry::posted(comm_id, src, tag, src_world);
        q.posted.push_back(Arc::clone(&entry));
        Recv::Posted(entry)
    }

    /// Unpost a receive (request drop / `MPI_Request_free` on a pending
    /// receive / persistent teardown). If an arrival already matched the
    /// entry, the unclaimed message is re-offered to the remaining
    /// posted entries (upholding the no-queued-match invariant) and only
    /// then reinserted into the message queue at its original arrival
    /// position (`seq` order), so it stays available to other receives
    /// with no overtaking.
    pub fn cancel_posted(&self, entry: &Arc<RecvEntry>) {
        let mut q = self.queue.lock();
        if let Some(pos) = q.posted.iter().position(|e| Arc::ptr_eq(e, entry)) {
            q.posted.remove(pos);
            drop(q);
            let mut st = entry.state.lock();
            if matches!(*st, EntryState::Posted) {
                entry.settle(&mut st, EntryState::Cancelled);
            }
            return;
        }
        // Not in the queue: either retired, or holding a matched message.
        let msg = {
            let mut st = entry.state.lock();
            match &*st {
                EntryState::Matched(_) => {
                    let EntryState::Matched(msg) =
                        std::mem::replace(&mut *st, EntryState::Cancelled)
                    else {
                        unreachable!()
                    };
                    Some(msg)
                }
                _ => None,
            }
        };
        if let Some(msg) = msg {
            if q.shutdown {
                return; // dropping the message fails any rendezvous slot
            }
            Self::reoffer(&mut q, msg);
            drop(q);
            self.bell.ring();
        }
    }

    /// Hand a message taken back from its receiver to the first posted
    /// entry that matches it — queueing it past a waiting receiver would
    /// both break the invariant and strand that receiver — and otherwise
    /// reinsert it at its arrival position (`seq` order), so it stays
    /// available to other receives with no overtaking. Entries already
    /// failed by rank-failure propagation refuse it. Under the lock; the
    /// caller rings.
    fn reoffer(q: &mut MailboxState, mut msg: Message) {
        while let Some(next) = Self::claim_posted(q, &msg) {
            match next.try_fulfill(msg) {
                Ok(()) => return,
                Err(m) => msg = m,
            }
        }
        q.eager_bytes += msg.payload.credit();
        let at = q.messages.partition_point(|m| m.seq < msg.seq);
        q.messages.insert(at, msg);
    }

    fn remove_at(&self, q: &mut MailboxState, pos: usize) -> Message {
        let msg = q.messages.remove(pos).expect("position just found");
        q.eager_bytes -= msg.payload.credit();
        msg
    }

    /// Non-blocking take: remove the first matching queued message if one
    /// is present — returning an eager message's credit. `Err(WorldShutdown)`
    /// after teardown.
    pub fn try_take_matching(
        &self,
        mut matches: impl FnMut(&Message) -> bool,
    ) -> Result<Option<Message>, MpiError> {
        let mut q = self.queue.lock();
        if let Some(pos) = q.messages.iter().position(&mut matches) {
            return Ok(Some(self.remove_at(&mut q, pos)));
        }
        if q.shutdown {
            return Err(MpiError::WorldShutdown);
        }
        Ok(None)
    }

    /// A probe's look: the earliest (lowest-seq) matching *queued*
    /// message — the one a receive posted at this instant would claim —
    /// left in the queue. Messages already matched to a posted receive
    /// are consumed and thus no longer probe-visible, as in real MPI.
    /// `Err(WorldShutdown)` after teardown.
    pub fn peek_matching(
        &self,
        mut matches: impl FnMut(&Message) -> bool,
    ) -> Result<Option<ProbeInfo>, MpiError> {
        let q = self.queue.lock();
        match q.messages.iter().find(|m| matches(m)) {
            Some(m) => Ok(Some(m.probe_info())),
            None if q.shutdown => Err(MpiError::WorldShutdown),
            None => Ok(None),
        }
    }

    /// Retract a queued-but-unmatched rendezvous/deferred send whose RTS
    /// carries `slot` (send-side `MPI_Cancel`). Atomic with matching: the
    /// message is either still in the queue here — removed, so no receive
    /// can ever see it — or it already matched a posted entry / was taken,
    /// in which case the send is past the point of cancellation and `false`
    /// is returned. Dropping the removed message fails the slot via
    /// [`RtsPayload::drop`], which is harmless: the canceller owns the
    /// request and never waits on a retracted slot.
    pub fn retract_rendezvous(&self, slot: &Arc<RendezvousSlot>) -> bool {
        let mut q = self.queue.lock();
        let pos = q.messages.iter().position(|m| {
            matches!(&m.payload, Payload::Rendezvous(rts) if Arc::ptr_eq(&rts.0, slot))
        });
        match pos {
            Some(pos) => {
                let msg = self.remove_at(&mut q, pos);
                drop(q);
                drop(msg);
                true
            }
            None => false,
        }
    }

    /// Unpost a still-unmatched receive (receive-side `MPI_Cancel`):
    /// removes the entry from the posted queue iff no arrival has matched
    /// it yet. Returns `false` when the entry already holds (or delivered)
    /// a message — the receive is past cancellation and completes
    /// normally, per MPI.
    pub fn try_unpost(&self, entry: &Arc<RecvEntry>) -> bool {
        let mut q = self.queue.lock();
        if let Some(pos) = q.posted.iter().position(|e| Arc::ptr_eq(e, entry)) {
            q.posted.remove(pos);
            drop(q);
            let mut st = entry.state.lock();
            if matches!(*st, EntryState::Posted) {
                entry.settle(&mut st, EntryState::Cancelled);
                true
            } else {
                // Failed by rank-failure propagation while still queued:
                // past cancellation, the receive completes with the error.
                false
            }
        } else {
            false
        }
    }

    /// Return a message removed by a matched probe (`Improbe`) that was
    /// never received (the `MpiMessage` was dropped): re-offer it to the
    /// posted entries — upholding the no-queued-match invariant — and
    /// otherwise reinsert it at its original arrival position, exactly
    /// like cancelling a matched posted receive.
    pub fn requeue(&self, msg: Message) {
        let mut q = self.queue.lock();
        if q.shutdown {
            return; // dropping the message fails any rendezvous slot
        }
        Self::reoffer(&mut q, msg);
        drop(q);
        self.bell.ring();
    }

    /// Panic unless the two-queue invariants hold: the message queue is in
    /// strictly increasing `seq` order (no overtaking through cancel or
    /// matched-probe requeues) and no queued message matches any posted
    /// entry. A diagnostics hook for the thread-multiple stress tests; it
    /// takes the mailbox lock, so every snapshot it sees is one the
    /// matching paths could have observed.
    pub fn check_invariants(&self) {
        let q = self.queue.lock();
        for pair in 0..q.messages.len().saturating_sub(1) {
            assert!(
                q.messages[pair].seq < q.messages[pair + 1].seq,
                "message queue out of seq order at {pair}"
            );
        }
        for (i, m) in q.messages.iter().enumerate() {
            for (j, e) in q.posted.iter().enumerate() {
                assert!(
                    !e.matches(m),
                    "queued message {i} (src {}, tag {}) matches posted entry {j}",
                    m.src_in_comm,
                    m.tag
                );
            }
        }
    }

    /// Rank-failure propagation, receiver side: a peer (`failed`, world
    /// rank) died. Posted entries that depend on it — specific receives
    /// awaiting that rank, and every wildcard receive (the dead rank
    /// *might* have been the sender; ULFM's `PROC_FAILED_PENDING`) — fail
    /// with `err`. Queued rendezvous announcements from the dead rank are
    /// discarded (their payload lives in the dead rank's frames and is no
    /// longer safely readable) and their slots failed; queued *eager*
    /// messages keep their bytes and stay deliverable. The owner's doorbell
    /// rings last, whether or not anything here changed: its blocked probes
    /// and collectives re-evaluate their failure checks.
    pub fn on_peer_failed(&self, failed: u32, err: &MpiError) {
        let mut q = self.queue.lock();
        if q.shutdown {
            return;
        }
        let mut doomed = Vec::new();
        let mut i = 0;
        while i < q.messages.len() {
            let from_dead = q.messages[i].src_world == failed
                && matches!(q.messages[i].payload, Payload::Rendezvous(_));
            if from_dead {
                doomed.push(self.remove_at(&mut q, i));
            } else {
                i += 1;
            }
        }
        let dependent: Vec<Arc<RecvEntry>> = {
            let mut keep = VecDeque::with_capacity(q.posted.len());
            let mut out = Vec::new();
            for e in q.posted.drain(..) {
                // Collective sub-receives (reserved negative tags) depend
                // on every member of their communicator, not just the
                // awaited sender: ULFM aborts the whole collective when
                // any member dies. The mailbox does not know communicator
                // groups, so this is conservative — a concurrent
                // collective on a comm excluding the dead rank is also
                // aborted (spurious `RankFailed`, recoverable by
                // agree/retry), which errs on the side of never parking.
                let depends = match e.src {
                    Source::Any => true,
                    Source::Rank(_) => {
                        e.src_world == Some(failed)
                            || matches!(e.tag, Tag::Value(t) if t < 0)
                    }
                };
                if depends {
                    out.push(e);
                } else {
                    keep.push_back(e);
                }
            }
            q.posted = keep;
            out
        };
        drop(q);
        for msg in doomed {
            if let Payload::Rendezvous(rts) = &msg.payload {
                rts.0.fail_if_posted_with(err.clone());
            }
        }
        for entry in dependent {
            entry.fail_with(err.clone());
        }
        self.bell.ring();
    }

    /// Rank-failure propagation, dead-rank side: this mailbox's owner
    /// died. Senders parked on rendezvous handshakes queued here fail with
    /// `err` (nobody will ever answer), and the dead rank's own
    /// still-posted receives are failed so any of its threads blocked in a
    /// receive unblock during teardown.
    pub fn fail_own(&self, err: &MpiError) {
        self.sweep(err, false);
    }

    /// Fail the queued handshakes and the posted receives with `err`, and
    /// ring. Entries holding matched messages are left for their
    /// receivers: the matched message is still deliverable. Does nothing
    /// after a shutdown sweep, and `shutdown` marks the mailbox so that
    /// late deposits and posts fail.
    fn sweep(&self, err: &MpiError, shutdown: bool) {
        let mut q = self.queue.lock();
        if q.shutdown {
            return;
        }
        q.shutdown = shutdown;
        for msg in &q.messages {
            if let Payload::Rendezvous(rts) = &msg.payload {
                rts.0.fail_if_posted_with(err.clone());
            }
        }
        let posted = std::mem::take(&mut q.posted);
        drop(q);
        for entry in posted {
            entry.fail_with(err.clone());
        }
        self.bell.ring();
    }

    /// World teardown: fail the senders blocked on queued rendezvous
    /// handshakes that will never be matched and the receives that will
    /// never be fulfilled, and refuse what comes later.
    pub fn shutdown(&self) {
        self.sweep(&MpiError::WorldShutdown, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::SendPayload;
    use std::sync::Arc;

    fn msg(src: u32, tag: i32, data: &[u8]) -> Message {
        Message {
            src_in_comm: src,
            tag,
            comm_id: 0,
            payload: Payload::eager(data),
            sent_at_us: 0.0,
            src_world: src,
            seq: 0,
            flow: 0,
        }
    }

    fn data(m: &Message) -> &[u8] {
        match &m.payload {
            Payload::Inline(inline) => inline.bytes(),
            Payload::Eager(d) => d,
            Payload::Rendezvous(_) => panic!("expected eager payload"),
        }
    }

    fn push(mb: &Mailbox, m: Message) -> Deposit {
        mb.deposit(m, false)
    }

    /// Post a receive that finds nothing queued: its registered entry.
    fn post_from(mb: &Mailbox, src: Source, tag: Tag, src_world: Option<u32>) -> Arc<RecvEntry> {
        match mb.post_recv(0, src, tag, src_world) {
            Recv::Posted(entry) => entry,
            other => panic!("expected a posted entry, got {other:?}"),
        }
    }

    fn post(mb: &Mailbox, src: Source, tag: Tag) -> Arc<RecvEntry> {
        post_from(mb, src, tag, None)
    }

    /// The scenarios below block the way a rank does: on the owner's
    /// doorbell, polling between rings.
    impl Mailbox {
        /// Take the first matching queued message; `None` on shutdown.
        fn take_matching(&self, mut matches: impl FnMut(&Message) -> bool) -> Option<Message> {
            self.bell.wait(|| self.try_take_matching(&mut matches).transpose()).ok()
        }

        /// A blocking probe with the failure check `Comm::probe` makes.
        fn wait_probe(
            &self,
            mut matches: impl FnMut(&Message) -> bool,
            mut failed: impl FnMut() -> Option<MpiError>,
        ) -> Result<ProbeInfo, MpiError> {
            self.bell.wait(|| {
                self.peek_matching(&mut matches).transpose().or_else(|| failed().map(Err))
            })
        }
    }

    #[test]
    fn fifo_per_matching_predicate() {
        let mb = Mailbox::default();
        push(&mb, msg(0, 1, b"first"));
        push(&mb, msg(0, 1, b"second"));
        let a = mb.take_matching(|m| m.tag == 1).unwrap();
        assert_eq!(data(&a), b"first");
        let b = mb.take_matching(|m| m.tag == 1).unwrap();
        assert_eq!(data(&b), b"second");
    }

    #[test]
    fn selective_receive_skips_nonmatching() {
        let mb = Mailbox::default();
        push(&mb, msg(3, 7, b"three"));
        push(&mb, msg(5, 9, b"five"));
        let m = mb.take_matching(|m| m.src_in_comm == 5).unwrap();
        assert_eq!(data(&m), b"five");
        // The earlier message is still there.
        let m = mb.take_matching(|_| true).unwrap();
        assert_eq!(data(&m), b"three");
    }

    #[test]
    fn blocking_receive_wakes_on_push() {
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || mb2.take_matching(|m| m.tag == 42));
        std::thread::sleep(std::time::Duration::from_millis(20));
        push(&mb, msg(1, 42, b"late"));
        let got = t.join().unwrap().unwrap();
        assert_eq!(data(&got), b"late");
    }

    #[test]
    fn shutdown_unblocks_receivers() {
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || mb2.take_matching(|_| false));
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.shutdown();
        assert!(t.join().unwrap().is_none());
    }

    #[test]
    fn peek_does_not_remove() {
        let mb = Mailbox::default();
        push(&mb, msg(2, 5, b"abc"));
        let peeked = mb.peek_matching(|m| m.tag == 5).unwrap().unwrap();
        assert_eq!((peeked.src_in_comm, peeked.tag, peeked.bytes), (2, 5, 3));
        assert!(mb.take_matching(|m| m.tag == 5).is_some());
    }

    #[test]
    fn peek_reports_earliest_matching_seq() {
        let mb = Mailbox::default();
        push(&mb, msg(0, 9, b"zero"));
        push(&mb, msg(1, 5, b"one"));
        push(&mb, msg(2, 5, b"two"));
        // Probe skips the non-matching head and reports the earliest
        // tag-5 arrival — the message a receive posted now would claim.
        let peeked = mb.peek_matching(|m| m.tag == 5).unwrap().unwrap();
        assert_eq!(peeked.src_in_comm, 1);
        assert_eq!(peeked.bytes, 3);
    }

    #[test]
    fn wait_probe_blocks_until_arrival_and_leaves_message() {
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || mb2.wait_probe(|m| m.tag == 3, || None));
        std::thread::sleep(std::time::Duration::from_millis(20));
        push(&mb, msg(4, 3, b"late"));
        let info = t.join().unwrap().unwrap();
        assert_eq!((info.src_in_comm, info.tag, info.bytes), (4, 3, 4));
        // The probed message is still receivable.
        assert_eq!(data(&mb.take_matching(|m| m.tag == 3).unwrap()), b"late");
    }

    #[test]
    fn wait_probe_unblocks_on_shutdown() {
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || mb2.wait_probe(|_| false, || None));
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.shutdown();
        assert!(matches!(t.join().unwrap(), Err(MpiError::WorldShutdown)));
    }

    #[test]
    fn try_unpost_only_wins_before_a_match() {
        let mb = Mailbox::default();
        let entry = post(&mb, Source::Any, Tag::Any);
        assert!(mb.try_unpost(&entry), "unmatched entry unposts");
        // A second attempt finds nothing.
        assert!(!mb.try_unpost(&entry));

        let matched = post(&mb, Source::Any, Tag::Any);
        push(&mb, msg(0, 1, b"taken"));
        // The arrival already parked in the entry: cancellation loses.
        assert!(!mb.try_unpost(&matched));
        assert_eq!(data(&matched.poll().unwrap().unwrap()), b"taken");
    }

    #[test]
    fn requeue_restores_arrival_position_and_rematches() {
        let mb = Mailbox::default();
        push(&mb, msg(0, 1, b"first"));
        push(&mb, msg(0, 1, b"second"));
        let early = mb.take_matching(|m| m.tag == 1).unwrap();
        assert_eq!(data(&early), b"first");
        mb.requeue(early);
        mb.check_invariants();
        // Arrival order is restored: "first" is taken again first.
        assert_eq!(data(&mb.take_matching(|m| m.tag == 1).unwrap()), b"first");

        // A requeue against a posted entry must fulfill it, not queue past
        // its condvar.
        let taken = mb.take_matching(|m| m.tag == 1).unwrap();
        let entry = post(&mb, Source::Rank(0), Tag::Value(1));
        mb.requeue(taken);
        mb.check_invariants();
        assert_eq!(data(&entry.poll().unwrap().expect("rematched")), b"second");
    }

    #[test]
    fn retract_removes_only_queued_unmatched_rts() {
        let mb = Mailbox::default();
        let slot = RendezvousSlot::new(
            SendPayload::Owned(b"payload".to_vec().into()),
            obs::Protocol::Rendezvous,
            Arc::default(),
        );
        push(
            &mb,
            Message {
                src_in_comm: 0,
                tag: 2,
                comm_id: 0,
                payload: Payload::Rendezvous(RtsPayload(Arc::clone(&slot))),
                sent_at_us: 0.0,
                src_world: 0,
                seq: 0,
                flow: 0,
            },
        );
        assert!(mb.retract_rendezvous(&slot), "queued RTS is retractable");
        assert!(mb.peek_matching(|_| true).unwrap().is_none(), "message is gone");
        assert!(!mb.retract_rendezvous(&slot), "second retract finds nothing");
        // The dropped message failed the slot; a (non-cancelling) waiter
        // would observe the failure rather than hanging.
        assert!(slot.poll_done().is_err());
    }

    #[test]
    #[should_panic(expected = "matches posted entry")]
    fn invariant_checker_detects_queued_match() {
        let mb = Mailbox::default();
        push(&mb, msg(0, 1, b"x"));
        // Force a violation: a posted entry added behind the checker's
        // back (bypassing post_recv's claim step).
        let entry = RecvEntry::posted(0, Source::Any, Tag::Any, None);
        mb.queue.lock().posted.push_back(entry);
        mb.check_invariants();
    }

    #[test]
    fn eager_credit_is_claimed_and_returned() {
        let mb = Mailbox::new(8, &Arc::default());
        assert!(matches!(mb.deposit(msg(0, 0, b"123456"), true), Deposit::Queued));
        // Budget exhausted: a second 6-byte message bounces.
        let Deposit::NoCredit(back) = mb.deposit(msg(0, 0, b"abcdef"), true) else {
            panic!("expected NoCredit");
        };
        assert_eq!(data(&back), b"abcdef");
        // Draining the first returns the credit.
        mb.take_matching(|_| true).unwrap();
        assert!(matches!(mb.deposit(msg(0, 0, b"abcdef"), true), Deposit::Queued));
    }

    #[test]
    fn oversized_message_admitted_into_empty_buffer() {
        let mb = Mailbox::new(4, &Arc::default());
        // Larger than the whole budget, but the buffer is empty.
        assert!(matches!(mb.deposit(msg(0, 0, b"12345678"), true), Deposit::Queued));
        assert!(matches!(mb.deposit(msg(0, 0, b"x"), true), Deposit::NoCredit(_)));
    }

    // --- posted-receive matching ----------------------------------------

    #[test]
    fn arrival_matches_posted_entry_and_skips_queue() {
        let mb = Mailbox::new(8, &Arc::default());
        let entry = post(&mb, Source::Rank(1), Tag::Value(5));
        // Even with zero remaining credit the matched arrival goes
        // through: it parks in the entry, not the buffer.
        assert!(matches!(mb.deposit(msg(9, 9, b"12345678"), true), Deposit::Queued));
        assert!(matches!(mb.deposit(msg(1, 5, b"matched!"), true), Deposit::Matched));
        let got = entry.poll().unwrap().expect("matched");
        assert_eq!(data(&got), b"matched!");
    }

    #[test]
    fn same_matcher_entries_match_in_posted_order() {
        let mb = Mailbox::default();
        let first = post(&mb, Source::Rank(0), Tag::Value(1));
        let second = post(&mb, Source::Rank(0), Tag::Value(1));
        push(&mb, msg(0, 1, b"one"));
        push(&mb, msg(0, 1, b"two"));
        // Polling the *newest* entry cannot steal the oldest message.
        assert_eq!(data(&second.poll().unwrap().unwrap()), b"two");
        assert_eq!(data(&first.poll().unwrap().unwrap()), b"one");
    }

    #[test]
    fn wildcard_race_respects_posting_position() {
        let mb = Mailbox::default();
        let specific = post(&mb, Source::Rank(1), Tag::Value(5));
        let wildcard = post(&mb, Source::Any, Tag::Any);
        // Matches both; the earlier-posted specific entry wins.
        push(&mb, msg(1, 5, b"exact"));
        // Matches only the wildcard.
        push(&mb, msg(2, 7, b"other"));
        assert_eq!(data(&specific.poll().unwrap().unwrap()), b"exact");
        assert_eq!(data(&wildcard.poll().unwrap().unwrap()), b"other");
    }

    #[test]
    fn wildcard_posted_first_beats_later_specific_entry() {
        let mb = Mailbox::default();
        let wildcard = post(&mb, Source::Any, Tag::Any);
        let specific = post(&mb, Source::Rank(1), Tag::Value(5));
        push(&mb, msg(1, 5, b"taken-by-wildcard"));
        assert_eq!(data(&wildcard.poll().unwrap().unwrap()), b"taken-by-wildcard");
        assert!(specific.poll().unwrap().is_none());
    }

    #[test]
    fn post_claims_earliest_queued_match() {
        let mb = Mailbox::default();
        push(&mb, msg(0, 3, b"early"));
        push(&mb, msg(0, 3, b"late"));
        // Claimed under the lock it was posted under: no entry is built.
        let Recv::Claimed(claimed) = mb.post_recv(0, Source::Rank(0), Tag::Value(3), None) else {
            panic!("nothing claimed");
        };
        assert_eq!(data(&claimed), b"early");
        assert_eq!(data(&mb.take_matching(|_| true).unwrap()), b"late");
    }

    #[test]
    fn cancel_requeues_matched_message_at_arrival_position() {
        let mb = Mailbox::default();
        push(&mb, msg(0, 7, b"first-arrival"));
        // Posted after the tag-7 message is queued, so it matches the
        // *next* tag-5 arrival directly.
        let entry = post(&mb, Source::Rank(0), Tag::Value(5));
        push(&mb, msg(0, 5, b"second-arrival"));
        push(&mb, msg(0, 5, b"third-arrival"));
        mb.cancel_posted(&entry);
        // The reclaimed message sits between the tag-7 and the later
        // tag-5 arrival: same-tag FIFO survives the cancellation.
        assert_eq!(data(&mb.take_matching(|m| m.tag == 5).unwrap()), b"second-arrival");
        assert_eq!(data(&mb.take_matching(|m| m.tag == 5).unwrap()), b"third-arrival");
        assert_eq!(data(&mb.take_matching(|_| true).unwrap()), b"first-arrival");
    }

    #[test]
    fn cancel_rematches_message_to_other_posted_entries() {
        let mb = Mailbox::default();
        let first = post(&mb, Source::Any, Tag::Any);
        let second = post(&mb, Source::Any, Tag::Any);
        push(&mb, msg(1, 2, b"payload")); // parks in `first`
        mb.cancel_posted(&first);
        // The reclaimed message must fulfill the still-posted entry, not
        // sit in the queue past its condvar.
        assert_eq!(data(&second.poll().unwrap().expect("rematched")), b"payload");
    }

    #[test]
    fn cancel_unmatched_entry_stops_future_matching() {
        let mb = Mailbox::default();
        let entry = post(&mb, Source::Any, Tag::Any);
        mb.cancel_posted(&entry);
        push(&mb, msg(0, 1, b"nobody-home"));
        // The message queued instead of vanishing into the dead entry.
        assert!(mb.peek_matching(|_| true).unwrap().is_some());
    }

    #[test]
    fn shutdown_fails_posted_entries() {
        let mb = Arc::new(Mailbox::default());
        let entry = post(&mb, Source::Any, Tag::Any);
        let (mb2, e2) = (Arc::clone(&mb), Arc::clone(&entry));
        let t = std::thread::spawn(move || mb2.bell.wait(|| e2.poll().transpose()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.shutdown();
        assert!(matches!(t.join().unwrap(), Err(MpiError::WorldShutdown)));
    }

    #[test]
    fn peer_failure_fails_dependent_entries_only() {
        let mb = Mailbox::default();
        let from_dead = post_from(&mb, Source::Rank(3), Tag::Any, Some(3));
        let from_live = post_from(&mb, Source::Rank(5), Tag::Any, Some(5));
        let wildcard = post(&mb, Source::Any, Tag::Any);
        mb.on_peer_failed(3, &MpiError::RankFailed { rank: 3 });
        assert!(matches!(from_dead.poll(), Err(MpiError::RankFailed { rank: 3 })));
        assert!(
            matches!(wildcard.poll(), Err(MpiError::RankFailed { rank: 3 })),
            "wildcard receives depend on every peer"
        );
        assert!(from_live.poll().unwrap().is_none(), "unrelated entry survives");
        mb.check_invariants();
    }

    #[test]
    fn peer_failure_keeps_eager_but_drops_rendezvous_messages() {
        let mb = Mailbox::default();
        push(&mb, msg(3, 1, b"eager-from-dead"));
        let slot = RendezvousSlot::new(
            SendPayload::Owned(b"rdv".to_vec().into()),
            obs::Protocol::Rendezvous,
            Arc::default(),
        );
        push(
            &mb,
            Message {
                src_in_comm: 3,
                tag: 2,
                comm_id: 0,
                payload: Payload::Rendezvous(RtsPayload(Arc::clone(&slot))),
                sent_at_us: 0.0,
                src_world: 3,
                seq: 0,
                flow: 0,
            },
        );
        mb.on_peer_failed(3, &MpiError::RankFailed { rank: 3 });
        assert!(matches!(slot.poll_done(), Err(MpiError::RankFailed { rank: 3 })));
        let left = mb.take_matching(|_| true).unwrap();
        assert_eq!(data(&left), b"eager-from-dead", "eager bytes already arrived");
        assert!(mb.peek_matching(|_| true).unwrap().is_none());
    }

    #[test]
    fn wait_probe_unblocks_on_failure_predicate() {
        let mb = Arc::new(Mailbox::default());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || {
            let mut polls = 0u32;
            mb2.wait_probe(
                |_| false,
                move || {
                    polls += 1;
                    (polls > 1).then_some(MpiError::RankFailed { rank: 1 })
                },
            )
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Propagation wakes the sleepers; the parked probe re-evaluates.
        mb.bell.ring();
        assert!(matches!(t.join().unwrap(), Err(MpiError::RankFailed { rank: 1 })));
    }

    #[test]
    fn an_inline_payload_grows_a_message_by_at_most_16_bytes() {
        // 64 bytes while every eager payload was a box.
        assert!(std::mem::size_of::<Message>() <= 64 + 16, "{}", std::mem::size_of::<Message>());
        assert_eq!(Payload::eager(&[7; INLINE_PAYLOAD]).credit(), INLINE_PAYLOAD);
        assert!(matches!(Payload::eager(&[7; INLINE_PAYLOAD]), Payload::Inline(_)));
        assert!(matches!(Payload::eager(&[7; INLINE_PAYLOAD + 1]), Payload::Eager(_)));
    }
}

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

use std::collections::VecDeque;
use std::sync::Arc;

use crate::comm::{Source, Tag, COLLECTIVE_TAG_BASE};
use crate::error::MpiError;
use crate::park::Monitor;
use crate::progress::{ProtocolStats, RendezvousSlot};

/// Payload of an in-flight message: either an eagerly copied buffer or a
/// rendezvous RTS carrying a handle to the sender-side payload.
#[derive(Debug)]
pub(crate) enum Payload {
    /// Eager protocol: the bytes were copied into the mailbox.
    Eager(Box<[u8]>),
    /// Rendezvous protocol: ready-to-send announcement. The payload stays
    /// with the sender; the receiver copies it straight into the posted
    /// buffer and completes the slot (the CTS + transfer in one step).
    Rendezvous(RtsPayload),
}

impl Payload {
    pub fn len(&self) -> usize {
        match self {
            Payload::Eager(data) => data.len(),
            Payload::Rendezvous(rts) => rts.0.len(),
        }
    }
}

/// RTS handle wrapper: if the message is destroyed without the receiver
/// completing the transfer (shutdown, teardown with queued messages, a
/// cancelled posted receive dropping its matched message), the sender
/// blocked on the slot must still be woken.
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
pub(crate) struct RecvEntry {
    comm_id: u64,
    src: Source,
    tag: Tag,
    /// World rank of the awaited sender when `src` is specific (resolved
    /// at posting time), so the mailbox can fail dependent entries on a
    /// peer failure without knowing communicator groups. `None` for
    /// wildcard receives — those depend on *every* peer.
    src_world: Option<u32>,
    state: Monitor<EntryState>,
}

impl RecvEntry {
    /// Test convenience: an entry with no known source world rank.
    #[cfg(test)]
    pub fn new(comm_id: u64, src: Source, tag: Tag) -> Arc<RecvEntry> {
        RecvEntry::with_src_world(comm_id, src, tag, None, &Arc::default())
    }

    pub fn with_src_world(
        comm_id: u64,
        src: Source,
        tag: Tag,
        src_world: Option<u32>,
        stats: &Arc<ProtocolStats>,
    ) -> Arc<RecvEntry> {
        let state = Monitor::new(EntryState::Posted, stats);
        Arc::new(RecvEntry { comm_id, src, tag, src_world, state })
    }

    /// An entry born already holding its message: the receive half of a
    /// matched probe (`MPI_Imrecv`). Never registered with a mailbox —
    /// matching happened at the probe — but cancelling it requeues the
    /// message exactly like a matched posted receive.
    pub fn prematched(msg: Message, stats: &Arc<ProtocolStats>) -> Arc<RecvEntry> {
        Arc::new(RecvEntry {
            comm_id: msg.comm_id,
            src: Source::Rank(msg.src_in_comm),
            tag: Tag::Value(msg.tag),
            src_world: Some(msg.src_world),
            state: Monitor::new(EntryState::Matched(msg), stats),
        })
    }

    fn matches(&self, m: &Message) -> bool {
        m.matches(self.comm_id, self.src, self.tag)
    }

    /// Latch a matched message and wake the receiver. Called under the
    /// mailbox lock on an entry just claimed from the posted queue. The
    /// entry is usually still `Posted`, but rank-failure propagation
    /// (`CommCtx::post_recv`'s post-registration checks) fails entries
    /// *without* holding the mailbox lock, so a concurrent sender can
    /// claim an entry that is already `Failed`. Such an entry hands the
    /// message back: the receiver must observe the failure, and the
    /// message stays deliverable to other receives.
    fn try_fulfill(&self, msg: Message) -> Result<(), Message> {
        let mut st = self.state.lock();
        if !matches!(*st, EntryState::Posted) {
            return Err(msg);
        }
        *st = EntryState::Matched(msg);
        st.wake();
        Ok(())
    }

    fn fail(&self) {
        self.fail_with(MpiError::WorldShutdown);
    }

    /// Fail a still-posted entry with a specific error (rank-failure
    /// propagation); entries already holding a matched message keep it —
    /// data that arrived before the failure is still deliverable.
    pub(crate) fn fail_with(&self, err: MpiError) {
        let mut st = self.state.lock();
        if matches!(*st, EntryState::Posted) {
            *st = EntryState::Failed(err);
            st.wake();
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
        Self::take(&mut self.state.lock()).transpose()
    }

    /// Receiver: wait until matched or failed, leaving the outcome for
    /// [`RecvEntry::poll`].
    pub fn wait_ready(&self) {
        self.state.wait(|st| (!matches!(st, EntryState::Posted)).then_some(()));
    }

    /// Receiver: wait until matched (or failed) and take the message.
    pub fn wait(&self) -> Result<Message, MpiError> {
        self.state.wait(Self::take)
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

/// A rank's mailbox: the two matched queues, in a monitor for the probes
/// blocked in [`Mailbox::wait_probe`]. Eager senders never wait for
/// credit — a credit miss is converted into a sender-owned rendezvous by
/// the progress engine, so backpressure is always visible to matching (no
/// invisible parking).
pub(crate) struct Mailbox {
    pub queue: Monitor<MailboxState>,
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
        Mailbox { queue: Monitor::new(MailboxState::default(), stats), capacity }
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
                Ok(()) => return Deposit::Matched,
                Err(m) => msg = m,
            }
        }
        if enforce_credit {
            let len = msg.payload.len();
            if q.eager_bytes > 0 && q.eager_bytes + len > self.capacity {
                return Deposit::NoCredit(msg);
            }
            q.eager_bytes += len;
        } else if let Payload::Eager(data) = &msg.payload {
            q.eager_bytes += data.len();
        }
        q.messages.push_back(msg);
        let ahead = q.messages.len() > RUN_AHEAD;
        q.wake();
        if ahead {
            std::thread::yield_now();
        }
        Deposit::Queued
    }

    /// Register a posted receive: claim the first queued match (arrival
    /// order) or append the entry to the posted queue. Returns `true`
    /// when an already-queued message was claimed.
    pub fn post_recv(&self, entry: &Arc<RecvEntry>) -> bool {
        let mut q = self.queue.lock();
        if q.shutdown {
            drop(q);
            entry.fail();
            return false;
        }
        if let Some(pos) = q.messages.iter().position(|m| entry.matches(m)) {
            let msg = self.remove_at(&mut q, pos);
            // Under the mailbox lock, as in `deposit`. The entry is
            // unshared until this registration, so it is still `Posted`.
            entry.try_fulfill(msg).unwrap_or_else(|_| {
                unreachable!("entry retired before registration")
            });
            return true;
        }
        q.posted.push_back(Arc::clone(entry));
        false
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
                *st = EntryState::Cancelled;
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
            // Another posted entry may match the reclaimed message —
            // queueing it past a waiting receiver would both break the
            // invariant and strand that receiver on its condvar. Entries
            // already failed by rank-failure propagation refuse it.
            let mut leftover = Some(msg);
            while let Some(m) = leftover.take() {
                match Self::claim_posted(&mut q, &m) {
                    Some(next) => match next.try_fulfill(m) {
                        Ok(()) => return,
                        Err(m) => leftover = Some(m),
                    },
                    None => {
                        leftover = Some(m);
                        break;
                    }
                }
            }
            let Some(msg) = leftover else { return };
            if let Payload::Eager(data) = &msg.payload {
                q.eager_bytes += data.len();
            }
            let at = q.messages.partition_point(|m| m.seq < msg.seq);
            q.messages.insert(at, msg);
            q.wake();
        }
    }

    fn remove_at(&self, q: &mut MailboxState, pos: usize) -> Message {
        let msg = q.messages.remove(pos).expect("position just found");
        if let Payload::Eager(data) = &msg.payload {
            q.eager_bytes -= data.len();
        }
        msg
    }

    /// Find and remove the first *queued* message matching the predicate,
    /// blocking until one arrives. Returns `None` on shutdown. Removing
    /// an eager message returns its credit.
    ///
    /// Production receives go through [`Mailbox::post_recv`] (blocking
    /// ones wait on the entry); this queue-scanning variant survives for
    /// the mailbox unit tests.
    #[cfg(test)]
    pub fn take_matching(
        &self,
        mut matches: impl FnMut(&Message) -> bool,
    ) -> Option<Message> {
        self.queue.wait(|q| match q.messages.iter().position(&mut matches) {
            Some(pos) => Some(Some(self.remove_at(q, pos))),
            None => q.shutdown.then_some(None),
        })
    }

    /// Non-blocking take: remove the first matching queued message if one
    /// is present. `Err(WorldShutdown)` after teardown.
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

    /// Non-blocking variant: check without waiting (used by `Iprobe`).
    /// Messages already matched to a posted receive are consumed and thus
    /// no longer probe-visible, as in real MPI. The earliest (lowest-seq)
    /// matching queued message is reported, the same one a receive posted
    /// at this instant would claim.
    pub fn peek_matching(
        &self,
        mut matches: impl FnMut(&Message) -> bool,
    ) -> Option<ProbeInfo> {
        let q = self.queue.lock();
        q.messages.iter().find(|m| matches(m)).map(Message::probe_info)
    }

    /// Blocking probe: wait until a matching message is *queued* (a
    /// message claimed by a posted receive is never probe-visible), the
    /// world shuts down, or `failed` reports that a rank the probe
    /// depends on has died (the probe would otherwise wait forever for a
    /// message the dead rank can no longer send). The message stays in
    /// the queue. `failed` is re-evaluated every time the wait looks —
    /// rank-failure propagation wakes this mailbox's sleepers.
    pub fn wait_probe(
        &self,
        mut matches: impl FnMut(&Message) -> bool,
        mut failed: impl FnMut() -> Option<MpiError>,
    ) -> Result<ProbeInfo, MpiError> {
        self.queue.wait(|q| {
            if let Some(m) = q.messages.iter().find(|m| matches(m)) {
                return Some(Ok(m.probe_info()));
            }
            if q.shutdown {
                return Some(Err(MpiError::WorldShutdown));
            }
            failed().map(Err)
        })
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
                *st = EntryState::Cancelled;
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
    pub fn requeue(&self, mut msg: Message) {
        let mut q = self.queue.lock();
        if q.shutdown {
            return; // dropping the message fails any rendezvous slot
        }
        while let Some(next) = Self::claim_posted(&mut q, &msg) {
            match next.try_fulfill(msg) {
                Ok(()) => return,
                Err(m) => msg = m,
            }
        }
        if let Payload::Eager(data) = &msg.payload {
            q.eager_bytes += data.len();
        }
        let at = q.messages.partition_point(|m| m.seq < msg.seq);
        q.messages.insert(at, msg);
        q.wake();
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
    /// messages keep their bytes and stay deliverable. Blocked probes are
    /// woken so they can re-evaluate their failure predicate.
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
        q.wake();
        for msg in doomed {
            if let Payload::Rendezvous(rts) = &msg.payload {
                rts.0.fail_if_posted_with(err.clone());
            }
        }
        for entry in dependent {
            entry.fail_with(err.clone());
        }
    }

    /// Rank-failure propagation, dead-rank side: this mailbox's owner
    /// died. Senders parked on rendezvous handshakes queued here are woken
    /// with `err` (nobody will ever answer), and the dead rank's own
    /// still-posted receives are failed so any of its threads parked in a
    /// receive unblock during teardown.
    pub fn fail_own(&self, err: &MpiError) {
        let mut q = self.queue.lock();
        if q.shutdown {
            return;
        }
        for msg in &q.messages {
            if let Payload::Rendezvous(rts) = &msg.payload {
                rts.0.fail_if_posted_with(err.clone());
            }
        }
        let posted = std::mem::take(&mut q.posted);
        q.wake();
        for entry in posted {
            entry.fail_with(err.clone());
        }
    }

    pub fn shutdown(&self) {
        let mut q = self.queue.lock();
        q.shutdown = true;
        // Wake senders blocked on queued rendezvous handshakes that will
        // never be matched, and receivers parked on posted entries that
        // will never be fulfilled. Entries holding matched messages are
        // left for their receivers: the matched message is still
        // deliverable.
        for msg in &q.messages {
            if let Payload::Rendezvous(rts) = &msg.payload {
                rts.0.fail_if_posted();
            }
        }
        let posted = std::mem::take(&mut q.posted);
        q.wake();
        for entry in posted {
            entry.fail();
        }
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
            payload: Payload::Eager(data.into()),
            sent_at_us: 0.0,
            src_world: src,
            seq: 0,
            flow: 0,
        }
    }

    fn data(m: &Message) -> &[u8] {
        match &m.payload {
            Payload::Eager(d) => d,
            Payload::Rendezvous(_) => panic!("expected eager payload"),
        }
    }

    fn push(mb: &Mailbox, m: Message) -> Deposit {
        mb.deposit(m, false)
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
        let peeked = mb.peek_matching(|m| m.tag == 5).unwrap();
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
        let peeked = mb.peek_matching(|m| m.tag == 5).unwrap();
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
        let entry = RecvEntry::new(0, Source::Any, Tag::Any);
        mb.post_recv(&entry);
        assert!(mb.try_unpost(&entry), "unmatched entry unposts");
        // A second attempt finds nothing.
        assert!(!mb.try_unpost(&entry));

        let matched = RecvEntry::new(0, Source::Any, Tag::Any);
        mb.post_recv(&matched);
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
        let entry = RecvEntry::new(0, Source::Rank(0), Tag::Value(1));
        let taken = mb.take_matching(|m| m.tag == 1).unwrap();
        mb.post_recv(&entry);
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
            &Arc::default(),
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
        assert!(mb.peek_matching(|_| true).is_none(), "message is gone");
        assert!(!mb.retract_rendezvous(&slot), "second retract finds nothing");
        // The dropped message failed the slot; a (non-cancelling) waiter
        // would observe the failure rather than hanging.
        assert!(slot.wait_done().is_err());
    }

    #[test]
    #[should_panic(expected = "matches posted entry")]
    fn invariant_checker_detects_queued_match() {
        let mb = Mailbox::default();
        push(&mb, msg(0, 1, b"x"));
        // Force a violation: a posted entry added behind the checker's
        // back (bypassing post_recv's claim step).
        let entry = RecvEntry::new(0, Source::Any, Tag::Any);
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
        let entry = RecvEntry::new(0, Source::Rank(1), Tag::Value(5));
        assert!(!mb.post_recv(&entry));
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
        let first = RecvEntry::new(0, Source::Rank(0), Tag::Value(1));
        let second = RecvEntry::new(0, Source::Rank(0), Tag::Value(1));
        mb.post_recv(&first);
        mb.post_recv(&second);
        push(&mb, msg(0, 1, b"one"));
        push(&mb, msg(0, 1, b"two"));
        // Polling the *newest* entry cannot steal the oldest message.
        assert_eq!(data(&second.poll().unwrap().unwrap()), b"two");
        assert_eq!(data(&first.poll().unwrap().unwrap()), b"one");
    }

    #[test]
    fn wildcard_race_respects_posting_position() {
        let mb = Mailbox::default();
        let specific = RecvEntry::new(0, Source::Rank(1), Tag::Value(5));
        let wildcard = RecvEntry::new(0, Source::Any, Tag::Any);
        mb.post_recv(&specific);
        mb.post_recv(&wildcard);
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
        let wildcard = RecvEntry::new(0, Source::Any, Tag::Any);
        let specific = RecvEntry::new(0, Source::Rank(1), Tag::Value(5));
        mb.post_recv(&wildcard);
        mb.post_recv(&specific);
        push(&mb, msg(1, 5, b"taken-by-wildcard"));
        assert_eq!(data(&wildcard.poll().unwrap().unwrap()), b"taken-by-wildcard");
        assert!(specific.poll().unwrap().is_none());
    }

    #[test]
    fn post_claims_earliest_queued_match() {
        let mb = Mailbox::default();
        push(&mb, msg(0, 3, b"early"));
        push(&mb, msg(0, 3, b"late"));
        let entry = RecvEntry::new(0, Source::Rank(0), Tag::Value(3));
        assert!(mb.post_recv(&entry));
        assert_eq!(data(&entry.poll().unwrap().unwrap()), b"early");
        assert_eq!(data(&mb.take_matching(|_| true).unwrap()), b"late");
    }

    #[test]
    fn cancel_requeues_matched_message_at_arrival_position() {
        let mb = Mailbox::default();
        push(&mb, msg(0, 7, b"first-arrival"));
        // Posted after the tag-7 message is queued, so it matches the
        // *next* tag-5 arrival directly.
        let entry = RecvEntry::new(0, Source::Rank(0), Tag::Value(5));
        mb.post_recv(&entry);
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
        let first = RecvEntry::new(0, Source::Any, Tag::Any);
        let second = RecvEntry::new(0, Source::Any, Tag::Any);
        mb.post_recv(&first);
        mb.post_recv(&second);
        push(&mb, msg(1, 2, b"payload")); // parks in `first`
        mb.cancel_posted(&first);
        // The reclaimed message must fulfill the still-posted entry, not
        // sit in the queue past its condvar.
        assert_eq!(data(&second.poll().unwrap().expect("rematched")), b"payload");
    }

    #[test]
    fn cancel_unmatched_entry_stops_future_matching() {
        let mb = Mailbox::default();
        let entry = RecvEntry::new(0, Source::Any, Tag::Any);
        mb.post_recv(&entry);
        mb.cancel_posted(&entry);
        push(&mb, msg(0, 1, b"nobody-home"));
        // The message queued instead of vanishing into the dead entry.
        assert!(mb.peek_matching(|_| true).is_some());
    }

    #[test]
    fn shutdown_fails_posted_entries() {
        let mb = Arc::new(Mailbox::default());
        let entry = RecvEntry::new(0, Source::Any, Tag::Any);
        mb.post_recv(&entry);
        let (mb2, e2) = (Arc::clone(&mb), Arc::clone(&entry));
        let t = std::thread::spawn(move || e2.wait());
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb2.shutdown();
        assert!(matches!(t.join().unwrap(), Err(MpiError::WorldShutdown)));
    }

    #[test]
    fn peer_failure_fails_dependent_entries_only() {
        let mb = Mailbox::default();
        let from_dead = RecvEntry::with_src_world(0, Source::Rank(3), Tag::Any, Some(3), &Arc::default());
        let from_live = RecvEntry::with_src_world(0, Source::Rank(5), Tag::Any, Some(5), &Arc::default());
        let wildcard = RecvEntry::new(0, Source::Any, Tag::Any);
        mb.post_recv(&from_dead);
        mb.post_recv(&from_live);
        mb.post_recv(&wildcard);
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
            &Arc::default(),
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
        assert!(matches!(slot.wait_done(), Err(MpiError::RankFailed { rank: 3 })));
        let left = mb.take_matching(|_| true).unwrap();
        assert_eq!(data(&left), b"eager-from-dead", "eager bytes already arrived");
        assert!(mb.peek_matching(|_| true).is_none());
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
        mb.queue.lock().wake();
        assert!(matches!(t.join().unwrap(), Err(MpiError::RankFailed { rank: 1 })));
    }
}

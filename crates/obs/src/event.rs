//! The typed event vocabulary of the flight recorder.
//!
//! Events are small `Copy` values (no heap, no strings) so a ring slot is
//! a plain store; names only materialize at export time.

/// Wire protocol a point-to-point message travelled under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Payload copied into the receiver's mailbox at send time.
    Eager,
    /// Eager-size message that found no credit and fell back to a
    /// sender-owned deferred rendezvous.
    EagerDeferred,
    /// Two-phase RTS/consume handshake; payload moves at match time.
    Rendezvous,
    /// Self-send (always eager, never counted against credits).
    SelfMsg,
}

impl Protocol {
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Eager => "eager",
            Protocol::EagerDeferred => "eager-deferred",
            Protocol::Rendezvous => "rendezvous",
            Protocol::SelfMsg => "self",
        }
    }
}

/// Which collective a round/span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollKind {
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Scatter,
    Allgather,
    Alltoall,
    Alltoallv,
}

impl CollKind {
    pub fn name(self) -> &'static str {
        self.label()
    }

    /// The name behind a `'static` reference: a label that fits in one
    /// pointer-sized atomic.
    pub fn label(self) -> &'static &'static str {
        match self {
            CollKind::Barrier => &"barrier",
            CollKind::Bcast => &"bcast",
            CollKind::Reduce => &"reduce",
            CollKind::Allreduce => &"allreduce",
            CollKind::Gather => &"gather",
            CollKind::Scatter => &"scatter",
            CollKind::Allgather => &"allgather",
            CollKind::Alltoall => &"alltoall",
            CollKind::Alltoallv => &"alltoallv",
        }
    }
}

/// Schedule used by a collective (the algorithm tag in the trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    Dissemination,
    Binomial,
    /// Binomial tree over pipelined segments (large bcast payloads).
    BinomialSegmented,
    RecursiveDoubling,
    Ring,
    /// Bruck's log₂(p)-round store-and-forward schedule (allgather /
    /// small alltoall).
    Bruck,
    /// Rabenseifner's reduce-scatter + allgather allreduce.
    Rabenseifner,
    Pairwise,
    LinearRoot,
}

impl Algorithm {
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Dissemination => "dissemination",
            Algorithm::Binomial => "binomial",
            Algorithm::BinomialSegmented => "binomial-segmented",
            Algorithm::RecursiveDoubling => "recursive-doubling",
            Algorithm::Ring => "ring",
            Algorithm::Bruck => "bruck",
            Algorithm::Rabenseifner => "rabenseifner",
            Algorithm::Pairwise => "pairwise",
            Algorithm::LinearRoot => "linear-root",
        }
    }
}

/// A nonblocking request's state-machine position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqState {
    Active,
    Done,
    Failed,
    Cancelled,
    Inactive,
    Null,
}

impl ReqState {
    pub fn name(self) -> &'static str {
        match self {
            ReqState::Active => "active",
            ReqState::Done => "done",
            ReqState::Failed => "failed",
            ReqState::Cancelled => "cancelled",
            ReqState::Inactive => "inactive",
            ReqState::Null => "null",
        }
    }
}

/// One recorded happening. The emitting rank is implied by which log the
/// event sits in; `peer` fields are ranks in the world communicator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A send left this rank. For rendezvous this marks the RTS posting
    /// (handshake phase 1). `matched_posted` distinguishes a posted-list
    /// match from an unexpected-queue deposit at the receiver.
    SendStart { peer: u32, tag: i32, bytes: u32, protocol: Protocol, matched_posted: bool, flow: u64 },
    /// A deferred/rendezvous send completed from the sender's point of
    /// view (handshake phase 3: payload consumed or buffer released).
    SendDone { peer: u32, flow: u64 },
    /// A receive was posted (peer/tag may be -1 wildcards).
    RecvPost { peer: i32, tag: i32 },
    /// A message was delivered into a receive buffer on this rank. For
    /// rendezvous this is handshake phase 2 (the consume/copy).
    RecvDone { peer: u32, tag: i32, bytes: u32, protocol: Protocol, flow: u64 },
    /// A collective began on this rank. `id` ties Begin/Round/End together
    /// so overlapping nonblocking collectives export as distinct spans.
    CollBegin { kind: CollKind, algo: Algorithm, id: u64 },
    /// The collective's schedule advanced to `round`.
    CollRound { kind: CollKind, round: u32, id: u64 },
    CollEnd { kind: CollKind, id: u64 },
    /// A request moved to `state`. `req` is a per-request trace id.
    ReqTransition { req: u64, state: ReqState },
    /// World rank `rank` failed (injected fault, guest trap, resource
    /// limit, or panic). Recorded on the failed rank's own log.
    RankFailed { rank: u32 },
    /// The hang watchdog declared the world stuck after `stalled_us`
    /// microseconds without progress. The human-readable per-rank report
    /// travels out of band (Perfetto `otherData` footer).
    WatchdogFired { stalled_us: f64 },
    /// Rank `rank`'s guest exhausted its fuel / deadline budget and was
    /// interrupted at a guard point.
    FuelExhausted { rank: u32 },
}

/// A timestamped event. `ts_us` is microseconds of whichever clock the
/// recorder was created with (host time or the simulated timeline).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    pub ts_us: f64,
    pub kind: EventKind,
}

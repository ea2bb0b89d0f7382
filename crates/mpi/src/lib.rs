//! An MPI-2.2-subset message-passing library over in-process rank threads.
//!
//! This is the reproduction's substitute for OpenMPI + rsmpi. Each MPI
//! rank is a thread inside one process;
//! point-to-point messages move through per-rank mailboxes, and the
//! collectives are implemented with the textbook schedules (binomial
//! trees, recursive doubling, ring, pairwise exchange) on top of the
//! point-to-point layer.
//!
//! # The progress engine
//!
//! Point-to-point transfers pick a protocol by payload size
//! ([`progress::ProtocolConfig`]):
//!
//! * **Eager** (≤ threshold): the payload is copied into the receiver's
//!   mailbox, consuming credit from a bounded per-mailbox byte budget.
//!   Credit returns when the receiver drains the message; sends that
//!   miss credit — blocking or not — fall back to a sender-owned
//!   rendezvous, so FIFO order holds without unbounded buffering and the
//!   backpressure stays matchable by posted receives. Self-sends are
//!   always eager (a rendezvous with yourself could never be answered).
//! * **Rendezvous** (> threshold): the sender enqueues a tiny RTS control
//!   message and keeps the payload in place; the receiver copies the bytes
//!   *directly* from the sender's buffer into the posted receive buffer —
//!   no intermediate heap copy — and completes the handshake. Blocking
//!   sends are synchronous (they return when the receiver has the data),
//!   matching standard-mode MPI semantics for large messages.
//!
//! # Posted-receive matching
//!
//! Receives match at **posting** time: every receive (blocking or
//! `Irecv`) registers a posted-receive entry with its rank's mailbox,
//! and arrivals match posted entries *in posting order* under the
//! mailbox lock — full `MPI_ANY_SOURCE`/`MPI_ANY_TAG` wildcard
//! semantics, with collective traffic invisible to wildcards. The two
//! mailbox queues (arrived-unmatched messages, posted-unmatched
//! receives) keep the invariant that no queued message matches any
//! posted entry, which is what pins MPI's matching rules: same-matcher
//! receives complete in posted order no matter how they are tested, a
//! wildcard races a specific receive purely by posting position, and a
//! pre-posted receive lets eager arrivals skip mailbox buffering (and
//! its credit) entirely. Matching moves only the message into the
//! entry; delivery — the payload copy and the virtual-clock charge —
//! stays with the receiving rank, so the sender-side matching path
//! never runs receiver accounting (see `crate::message` for the queue
//! invariants and what the arrival path may assume).
//!
//! Nonblocking operations are [`request::Request`] state machines:
//!
//! * `Isend`/`Irecv` ([`Comm::isend`], [`Comm::irecv`]) — true pending
//!   operations driven by `wait`/`test` and the completion sets
//!   (`wait_all`/`wait_any`/`wait_some`/`test_all`/`test_any`).
//! * Persistent requests ([`Comm::send_init`], [`Comm::recv_init`],
//!   [`request::Request::start`], [`request::Request::start_all`]).
//! * Collectives ([`Comm::ibarrier`], [`Comm::ibcast`],
//!   [`Comm::ireduce`], [`Comm::iallreduce`], [`Comm::igather`],
//!   [`Comm::iscatter`], [`Comm::iallgather`], [`Comm::ialltoall`],
//!   [`Comm::ialltoallv`]) — each a [`schedule::Schedule`], a value
//!   listing per round what to send, receive, reduce and copy, selected
//!   when the request is built and run by one executor under the same
//!   progress loop. Each initiation draws a unique per-communicator
//!   sequence tag, so communication overlaps with computation between
//!   initiation and completion and outstanding collectives never
//!   cross-match. The blocking collectives are these requests, waited
//!   for.
//!
//! # Timing
//!
//! Timing comes in two modes ([`clock::ClockMode`]):
//!
//! * **Real** — `wtime` reads the host monotonic clock; used for
//!   functional tests and single-core experiments.
//! * **Virtual** — every rank carries a LogP-style virtual clock. Sends
//!   stamp their departure time, receives complete at
//!   `max(local_clock, departure + wire_time)`, and every call charges the
//!   per-call software overhead of its [`netsim::CostModel`]. The wire
//!   model includes the eager→rendezvous handshake latency above the
//!   profile's threshold, and rendezvous senders synchronize to the
//!   receiver's completion time — so simulated runs see the protocol
//!   switch. Collectives then exhibit realistic log-p / linear-p scaling
//!   *by construction*, because they execute their actual communication
//!   schedules. This is how iteration times for systems much larger than
//!   the host machine are produced (the paper's 768- and 6144-rank
//!   figures).
//!
//! # Queue introspection, cancellation, threads
//!
//! `Probe`/`Iprobe` report the earliest matching *queued* message
//! (messages claimed by posted receives are not probe-visible, as in
//! real MPI); `Mprobe`/`Improbe` atomically extract the match as an
//! [`MpiMessage`] handle that only `Mrecv`/`Imrecv` on that handle can
//! receive — the race-free form. [`request::Request::cancel`] retracts a
//! still-unmatched send (or unposts an unmatched receive) and surfaces
//! the outcome through [`comm::Status::cancelled`]. The substrate is
//! `MPI_THREAD_MULTIPLE`-clean: [`Comm`] is `Sync`, mailbox matching
//! runs under one lock per mailbox, and [`RequestTable`] gives
//! embedders a lock-protected per-rank request table safe for
//! concurrent posters/probers/progressors.
//!
//! The public API mirrors the subset of MPI-2.2 the paper's benchmarks
//! exercise: `Send`/`Recv`/`Sendrecv` with tags, wildcards and `Status`,
//! probing (`Probe`/`Iprobe`/`Mprobe`/`Improbe`/`Mrecv`/`Imrecv`) and
//! cancellation, the nonblocking and persistent point-to-point surface,
//! the collectives
//! `Barrier`/`Bcast`/`Reduce`/`Allreduce`/`Gather`/`Allgather`/`Scatter`/
//! `Alltoall`/`Alltoallv` plus the full nonblocking family
//! (`Ibarrier`/`Ibcast`/`Ireduce`/`Iallreduce`/`Igather`/`Iscatter`/
//! `Iallgather`/`Ialltoall`/`Ialltoallv`), reduction ops over the
//! standard datatypes, `Comm_split`/`Comm_dup`, and `Wtime`.

pub mod clock;
pub mod coll_algo;
pub mod collectives;
pub mod comm;
pub mod datatype;
pub mod error;
pub(crate) mod message;
pub(crate) mod park;
pub mod progress;
pub mod request;
pub mod schedule;
pub mod table;
pub mod world;

pub use clock::ClockMode;
pub use coll_algo::{AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning};
pub use comm::{Comm, MpiMessage, Source, Status, Tag};
pub use datatype::{Datatype, ReduceOp};
pub use error::MpiError;
pub use progress::{ProtocolConfig, ProtocolSnapshot};
pub use request::{Request, TestAny};
pub use table::{RequestRef, RequestTable};
pub use world::{
    run_world, run_world_configured, run_world_recorded, run_world_with,
    run_world_with_protocol, WatchdogConfig, World, WorldConfig, DEFAULT_STACK_BYTES,
    SMALL_STACK_BYTES,
};

/// Wildcard source (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Source = Source::Any;
/// Wildcard tag (`MPI_ANY_TAG`).
pub const ANY_TAG: Tag = Tag::Any;

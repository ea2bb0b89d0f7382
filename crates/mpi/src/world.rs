//! World setup: spawn one thread per rank, hand each a world communicator,
//! join, and return the per-rank results.
//!
//! This is also where fault tolerance is anchored. A world owns the
//! **failed-rank set** (who has died, in failure order), the optional
//! **fault plan** (deterministic injected crashes/drops/delays, see
//! [`netsim::FaultPlan`]), the **hang watchdog** (a monitor thread that
//! detects no-progress and fails the job with a per-rank report instead of
//! hanging), and the **agreement table** backing the ULFM-style
//! `Comm::agree`/`Comm::shrink` primitives. Rank death — injected, guest
//! trap, resource limit, or panic — funnels through [`World::fail_rank`],
//! which sweeps every mailbox so anything depending on the dead rank
//! completes with `MpiError::RankFailed` instead of blocking forever.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use netsim::fault::{FaultPlan, WireFault};
use obs::{EventKind, Recorder};
use parking_lot::Mutex;

use crate::clock::{Clock, ClockMode};
use crate::coll_algo::CollTuning;
use crate::comm::Comm;
use crate::error::MpiError;
use crate::message::Mailbox;
use crate::progress::{ProtocolConfig, ProtocolStats};

/// Default per-rank thread stack. Deep guest recursion in debug builds
/// needs room, so ordinary worlds keep the historical 32 MiB.
pub const DEFAULT_STACK_BYTES: usize = 32 << 20;

/// A sensible [`WorldConfig::with_stack_size`] value for netsim-clock
/// worlds running native (non-guest) rank bodies: at 4096 ranks the
/// default stack would reserve 128 GiB of address space; this keeps the
/// whole world's stacks within a gigabyte.
pub const SMALL_STACK_BYTES: usize = 192 * 1024;

/// The flight-recorder hookup of a world. The clock mode is resolved
/// *once* here (`virt`) so every trace timestamp costs a single branch
/// instead of re-deriving the mode from `ClockMode` per event — the event
/// sink caches what `Clock::wtime` would otherwise re-match in hot loops.
pub(crate) struct WorldTrace {
    pub rec: Arc<Recorder>,
    pub virt: bool,
}

/// Per-rank liveness and diagnostics, updated lock-free on the MPI path.
pub(crate) struct RankHealth {
    /// Latched once the rank dies; checked by peers on their hot paths.
    pub failed: AtomicBool,
    /// The rank's body returned normally.
    pub done: AtomicBool,
    /// MPI calls issued so far (watchdog report + `CrashAtCall` faults).
    pub calls: AtomicU64,
    /// Label of the MPI call the rank most recently entered, through a
    /// pointer to a `'static` label: recording one is a single store.
    op: AtomicPtr<&'static str>,
}

impl RankHealth {
    fn new() -> RankHealth {
        RankHealth {
            failed: AtomicBool::new(false),
            done: AtomicBool::new(false),
            calls: AtomicU64::new(0),
            op: AtomicPtr::new(label_ptr(&"startup")),
        }
    }

    fn set_op(&self, op: &'static &'static str) {
        self.op.store(label_ptr(op), Ordering::Relaxed);
    }

    fn op(&self) -> &'static str {
        // SAFETY: `op` only ever holds pointers made by `label_ptr` from
        // `&'static` references, which stay valid for the whole program
        // and are never written through. A stray pointer would show as a
        // garbled op label in
        // `watchdog_fires_on_a_stuck_world_instead_of_hanging`.
        unsafe { *self.op.load(Ordering::Relaxed) }
    }
}

fn label_ptr(label: &'static &'static str) -> *mut &'static str {
    (label as *const &'static str).cast_mut()
}

/// Runtime state of an attached fault plan: the plan itself plus the
/// per-directed-pair message counters that key its drop/delay decisions.
pub(crate) struct FaultState {
    plan: FaultPlan,
    pair_seq: Mutex<HashMap<(u32, u32), u64>>,
}

/// One in-flight `Comm::agree` round. Frozen (`done`) exactly once — when
/// every group member has either contributed or failed — so every
/// participant reads the same value and the same failed set.
struct AgreeSlot {
    group: Arc<Vec<u32>>,
    value: u32,
    arrived: Vec<bool>,
    done: bool,
    /// World ranks of failed group members, snapshotted at freeze time.
    failed: Vec<u32>,
}

/// Hang-watchdog tuning. The watchdog declares the world stuck when the
/// global progress counter stops moving for `wall_timeout` (both clock
/// modes — blocked ranks make no progress regardless of how time is
/// measured), or, in virtual mode, when any rank's simulated clock passes
/// `virtual_budget_us`. On firing it stores a per-rank report, emits a
/// `WatchdogFired` trace event, invokes `on_fire`, and shuts the world
/// down so every blocked rank returns an error instead of hanging.
#[derive(Clone)]
pub struct WatchdogConfig {
    pub wall_timeout: Duration,
    pub virtual_budget_us: Option<f64>,
    pub poll_interval: Duration,
    pub on_fire: Option<Arc<dyn Fn(&str) + Send + Sync>>,
}

impl std::fmt::Debug for WatchdogConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchdogConfig")
            .field("wall_timeout", &self.wall_timeout)
            .field("virtual_budget_us", &self.virtual_budget_us)
            .field("poll_interval", &self.poll_interval)
            .field("on_fire", &self.on_fire.as_ref().map(|_| "<callback>"))
            .finish()
    }
}

impl WatchdogConfig {
    /// A watchdog that fires after `wall_timeout` without progress.
    pub fn wall(wall_timeout: Duration) -> WatchdogConfig {
        WatchdogConfig {
            wall_timeout,
            virtual_budget_us: None,
            poll_interval: Duration::from_millis(10).min(wall_timeout / 4).max(Duration::from_millis(1)),
            on_fire: None,
        }
    }

    /// Add a simulated-time budget (virtual-clock worlds).
    pub fn with_virtual_budget_us(mut self, budget: f64) -> WatchdogConfig {
        self.virtual_budget_us = Some(budget);
        self
    }

    /// Register a callback receiving the report when the watchdog fires.
    pub fn with_on_fire(mut self, f: impl Fn(&str) + Send + Sync + 'static) -> WatchdogConfig {
        self.on_fire = Some(Arc::new(f));
        self
    }
}

/// Everything configurable about a world, for [`run_world_configured`].
/// [`run_world`] and [`run_world_with`] set only the clock mode.
pub struct WorldConfig {
    pub mode: ClockMode,
    /// Eager/rendezvous protocol override (`None` = derive from mode).
    pub protocol: Option<ProtocolConfig>,
    /// Flight recorder to attach.
    pub recorder: Option<Arc<Recorder>>,
    /// Deterministic fault plan (injected crashes, drops, delays).
    pub fault: Option<FaultPlan>,
    /// Hang watchdog.
    pub watchdog: Option<WatchdogConfig>,
    /// Collective algorithm selection override (`None` = the adaptive
    /// defaults, with `MPIWASM_COLL_*` environment forcing applied).
    pub tuning: Option<CollTuning>,
    /// Per-rank thread stack size (`None` = [`DEFAULT_STACK_BYTES`]).
    /// Large simulated worlds running native bodies should pass
    /// [`SMALL_STACK_BYTES`] so idle ranks don't each pin 32 MiB.
    pub stack_size: Option<usize>,
}

impl WorldConfig {
    pub fn new(mode: ClockMode) -> WorldConfig {
        WorldConfig {
            mode,
            protocol: None,
            recorder: None,
            fault: None,
            watchdog: None,
            tuning: None,
            stack_size: None,
        }
    }

    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> WorldConfig {
        self.protocol = Some(protocol);
        self
    }

    /// Log every rank's p2p, collective and request activity into
    /// `recorder` (one ring per rank); at teardown the world's protocol
    /// counters are folded into the recorder's metrics registry.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> WorldConfig {
        self.recorder = Some(recorder);
        self
    }

    pub fn with_fault(mut self, plan: FaultPlan) -> WorldConfig {
        self.fault = Some(plan);
        self
    }

    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> WorldConfig {
        self.watchdog = Some(watchdog);
        self
    }

    pub fn with_coll_tuning(mut self, tuning: CollTuning) -> WorldConfig {
        self.tuning = Some(tuning);
        self
    }

    pub fn with_stack_size(mut self, bytes: usize) -> WorldConfig {
        self.stack_size = Some(bytes);
        self
    }
}

/// Shared world state.
pub struct World {
    pub(crate) size: u32,
    /// Per-rank mailboxes, materialized on first touch (through
    /// [`World::mailbox`]) so a mostly-idle 4096-rank simulated world
    /// pays only a pointer slot per rank that never communicates.
    mailboxes: Box<[OnceLock<Mailbox>]>,
    pub(crate) mode: ClockMode,
    /// Collective algorithm selection table (see [`crate::coll_algo`]).
    pub(crate) tuning: CollTuning,
    /// Per-rank thread stack size for `run_world_on`.
    stack_size: usize,
    /// Eager/rendezvous switch point and eager-buffer budgets.
    pub(crate) protocol: ProtocolConfig,
    /// Protocol traffic counters.
    pub(crate) stats: Arc<ProtocolStats>,
    /// Optional flight recorder (`None` = tracing off: every emission
    /// site reduces to one pointer test).
    pub(crate) trace: Option<WorldTrace>,
    /// Per-rank liveness + diagnostics.
    pub(crate) health: Vec<RankHealth>,
    /// Failed world ranks in failure order. Its length is the failure
    /// epoch: `failed_list[e..]` are the failures an acknowledger at
    /// epoch `e` has not yet seen.
    failed_list: Mutex<Vec<u32>>,
    /// Lock-free mirror of `failed_list.len()`: hot paths (collective
    /// polls) gate their member scan on one load instead of the lock.
    failure_count: AtomicU64,
    /// Global liveness heartbeat: bumped on every post/match/delivery so
    /// the watchdog can tell "slow" from "stuck".
    progress: AtomicU64,
    /// Set by `shutdown` (teardown, panic, watchdog): late blocking calls
    /// and agreement waits return `WorldShutdown` instead of waiting.
    stopped: AtomicBool,
    /// Injected-failure plan, if any.
    fault: Option<FaultState>,
    /// In-flight `Comm::agree` rounds, keyed by (comm id, agreement seq).
    /// A freeze rings the round's group.
    agreements: Mutex<HashMap<(u64, u64), AgreeSlot>>,
    /// Each rank's clock, registered at rank startup — lets world-scoped
    /// machinery (failure events, the watchdog report) timestamp and
    /// inspect per-rank virtual time.
    clocks: Mutex<Vec<Option<Arc<Mutex<Clock>>>>>,
    /// The watchdog's report, if it fired.
    watchdog_report: Mutex<Option<String>>,
    /// Watchdog tuning (consumed by `run_world_on` to start the monitor).
    watchdog: Option<WatchdogConfig>,
}

impl World {
    pub(crate) fn new(size: u32, mode: ClockMode) -> Arc<World> {
        Self::new_configured(size, WorldConfig::new(mode))
    }

    pub(crate) fn new_configured(size: u32, config: WorldConfig) -> Arc<World> {
        assert!(size >= 1, "world must have at least one rank");
        let protocol =
            config.protocol.unwrap_or_else(|| ProtocolConfig::from_mode(&config.mode));
        let mailboxes = (0..size).map(|_| OnceLock::new()).collect();
        let trace = config.recorder.map(|rec| WorldTrace {
            virt: matches!(config.mode, ClockMode::Virtual(_)),
            rec,
        });
        let stats = Arc::new(ProtocolStats::default());
        Arc::new(World {
            size,
            mailboxes,
            mode: config.mode,
            tuning: config.tuning.unwrap_or_else(CollTuning::from_env),
            stack_size: config.stack_size.unwrap_or(DEFAULT_STACK_BYTES),
            protocol,
            agreements: Mutex::new(HashMap::new()),
            stats,
            trace,
            health: (0..size).map(|_| RankHealth::new()).collect(),
            failed_list: Mutex::new(Vec::new()),
            failure_count: AtomicU64::new(0),
            progress: AtomicU64::new(0),
            stopped: AtomicBool::new(false),
            fault: config.fault.map(|plan| FaultState {
                plan,
                pair_seq: Mutex::new(HashMap::new()),
            }),
            clocks: Mutex::new((0..size).map(|_| None).collect()),
            watchdog_report: Mutex::new(None),
            watchdog: config.watchdog,
        })
    }

    pub fn size(&self) -> u32 {
        self.size
    }

    /// World rank `w`'s mailbox, materializing it on first touch. A
    /// mailbox born after a world-level sweep (shutdown, rank failure)
    /// must still observe it: the failed/stopped flags are set *before*
    /// the sweeps walk the mailboxes, so whichever of {sweep, init}
    /// misses the other, the flag check below closes the race.
    pub(crate) fn mailbox(&self, w: u32) -> &Mailbox {
        let slot = &self.mailboxes[w as usize];
        if let Some(mb) = slot.get() {
            return mb;
        }
        let mb = slot.get_or_init(|| Mailbox::new(self.protocol.eager_capacity, &self.stats));
        if self.stopped.load(Ordering::Acquire) {
            mb.shutdown();
        }
        if self.is_failed(w) {
            mb.fail_own(&MpiError::RankFailed { rank: w });
        }
        mb
    }

    /// The attached recorder, while it is enabled: one pointer test without
    /// a recorder, one atomic load with a disabled one.
    #[inline]
    fn tracing(&self) -> Option<&WorldTrace> {
        self.trace.as_ref().filter(|t| t.rec.is_enabled())
    }

    /// Emit a trace event attributed to world-rank `rank`, timestamped by
    /// `clock` (virtual mode) or the recorder's epoch (real mode). Neither
    /// the timestamp nor the event is made unless tracing is on.
    #[inline]
    pub(crate) fn emit(
        &self,
        rank: u32,
        clock: &Mutex<Clock>,
        kind: impl FnOnce() -> EventKind,
    ) {
        if let Some(t) = self.tracing() {
            let ts = if t.virt { clock.lock().virtual_us } else { t.rec.elapsed_us() };
            t.rec.emit(rank as usize, ts, kind());
        }
    }

    /// Allocate a send→recv flow id (0 when tracing is off — the exporter
    /// treats 0 as "no flow").
    #[inline]
    pub(crate) fn next_flow(&self) -> u64 {
        self.tracing().map_or(0, |t| t.rec.next_flow())
    }

    /// A fresh trace id for request state transitions (shares the flow
    /// counter: the ids only need uniqueness within a trace).
    #[inline]
    pub(crate) fn next_trace_id(&self) -> u64 {
        self.next_flow()
    }

    /// Has any rank failed yet? One atomic load — the fast-path gate for
    /// per-poll membership scans.
    #[inline]
    pub(crate) fn any_failed(&self) -> bool {
        self.failure_count.load(Ordering::Acquire) != 0
    }

    /// Has world rank `w` failed?
    #[inline]
    pub(crate) fn is_failed(&self, w: u32) -> bool {
        self.health
            .get(w as usize)
            .map(|h| h.failed.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// The first failure at or after acknowledgement epoch `epoch`
    /// (`epoch` = how many failures the caller has already acknowledged).
    pub(crate) fn failed_since(&self, epoch: u64) -> Option<u32> {
        self.failed_list.lock().get(epoch as usize).copied()
    }

    /// Current failure epoch (total failures so far).
    pub(crate) fn failure_epoch(&self) -> u64 {
        self.failed_list.lock().len() as u64
    }

    /// Failed world ranks in failure order.
    pub(crate) fn failed_ranks(&self) -> Vec<u32> {
        self.failed_list.lock().clone()
    }

    /// Bump the global liveness heartbeat (any post/match/delivery). The
    /// watchdog only asks whether it moved, so a load and a store do: two
    /// threads that race on it move it once, and no call pays a locked
    /// read-modify-write for it (three per 8-byte hop).
    #[inline]
    pub(crate) fn note_progress(&self) {
        let beat = self.progress.load(Ordering::Relaxed);
        self.progress.store(beat.wrapping_add(1), Ordering::Relaxed);
    }

    /// Register rank `rank`'s clock for world-scoped diagnostics.
    pub(crate) fn register_clock(&self, rank: u32, clock: Arc<Mutex<Clock>>) {
        if let Some(slot) = self.clocks.lock().get_mut(rank as usize) {
            *slot = Some(clock);
        }
    }

    /// Fault-plan hook for every MPI call `world_rank` makes: records the
    /// op label + call count for the watchdog report, and kills the rank
    /// if the plan says so (or if it is already dead — a failed rank's
    /// calls all fail, it never resurrects). `now_us` reads the rank's
    /// clock, which only a plan asks for.
    pub(crate) fn fault_step(
        &self,
        world_rank: u32,
        op: &'static &'static str,
        now_us: impl FnOnce() -> f64,
    ) -> Result<(), MpiError> {
        let h = &self.health[world_rank as usize];
        h.set_op(op);
        let calls = h.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if h.failed.load(Ordering::Acquire) {
            return Err(MpiError::RankFailed { rank: world_rank });
        }
        if let Some(f) = &self.fault {
            if f.plan.crash_due(world_rank, now_us(), calls) {
                self.fail_rank(world_rank);
                return Err(MpiError::RankFailed { rank: world_rank });
            }
        }
        Ok(())
    }

    /// Wire fault (drop/extra delay) for the next `src`→`dst` message.
    #[inline]
    pub(crate) fn fault_wire(&self, src: u32, dst: u32) -> WireFault {
        match &self.fault {
            None => WireFault::none(),
            Some(f) => {
                let seq = {
                    let mut m = f.pair_seq.lock();
                    let c = m.entry((src, dst)).or_insert(0);
                    *c += 1;
                    *c
                };
                f.plan.wire_fault(src, dst, seq)
            }
        }
    }

    /// Declare world rank `rank` dead. Idempotent. Marks the rank failed
    /// *before* sweeping, so operations racing with the sweep are caught
    /// by the post-registration checks in `post_recv`/`start_send`; then
    /// fails everything already depending on the rank: any agreement round
    /// awaiting its arrival, its own posted state (dead-rank side), and
    /// every peer's receives from it and rendezvous handshakes with it.
    /// Each mailbox's sweep ends with a ring, so every mailbox that exists
    /// is rung — after the agreements froze — and whoever waits on a
    /// collective or a probe re-checks the failed set.
    pub(crate) fn fail_rank(&self, rank: u32) {
        {
            let mut list = self.failed_list.lock();
            if self.health[rank as usize].failed.swap(true, Ordering::AcqRel) {
                return; // already dead
            }
            list.push(rank);
            self.failure_count.store(list.len() as u64, Ordering::Release);
        }
        // Agreement rounds no longer wait for the dead rank.
        for slot in self.agreements.lock().values_mut() {
            self.freeze_if_complete(slot);
        }
        let err = MpiError::RankFailed { rank };
        // Unmaterialized mailboxes are skipped: they hold nothing to
        // fail, nobody waits on their doorbells, and one born later
        // re-checks the failed flag in `World::mailbox`. The dead rank's
        // own goes first: a survivor's handshake with it fails before the
        // survivor's own sweep rings.
        if let Some(mb) = self.mailboxes[rank as usize].get() {
            mb.fail_own(&err);
        }
        for (w, slot) in self.mailboxes.iter().enumerate() {
            if w as u32 != rank {
                if let Some(mb) = slot.get() {
                    mb.on_peer_failed(rank, &err);
                }
            }
        }
        self.note_progress();
        if let Some(t) = &self.trace {
            let ts = if t.virt {
                self.clocks.lock()[rank as usize]
                    .as_ref()
                    .map(|c| c.lock().virtual_us)
                    .unwrap_or(0.0)
            } else {
                t.rec.elapsed_us()
            };
            t.rec.emit(rank as usize, ts, EventKind::RankFailed { rank });
        }
    }

    /// Freeze `slot` if every group member has arrived or failed.
    /// Returns true when the slot transitioned to done.
    fn freeze_if_complete(&self, slot: &mut AgreeSlot) -> bool {
        if slot.done {
            return false;
        }
        let complete = slot
            .group
            .iter()
            .enumerate()
            .all(|(i, &w)| slot.arrived[i] || self.is_failed(w));
        if complete {
            slot.done = true;
            slot.failed = slot.group.iter().copied().filter(|&w| self.is_failed(w)).collect();
        }
        complete
    }

    /// ULFM-style agreement: AND `contrib` across the live members of
    /// `group` (a communicator's world-rank table). Blocks until every
    /// member has contributed or failed, then every participant returns
    /// the same `(value, failed)` pair — `failed` being the group members
    /// (world ranks) dead at freeze time. `seq` distinguishes successive
    /// agreements on the same communicator.
    pub(crate) fn agree(
        &self,
        comm_id: u64,
        seq: u64,
        group: &Arc<Vec<u32>>,
        my_idx: usize,
        contrib: u32,
    ) -> Result<(u32, Vec<u32>), MpiError> {
        let key = (comm_id, seq);
        let mut map = self.agreements.lock();
        let slot = map.entry(key).or_insert_with(|| AgreeSlot {
            group: Arc::clone(group),
            value: u32::MAX,
            arrived: vec![false; group.len()],
            done: false,
            failed: Vec::new(),
        });
        slot.value &= contrib;
        slot.arrived[my_idx] = true;
        // Only an arrival or a failure can complete a round, and
        // `fail_rank` freezes for the failures.
        if self.freeze_if_complete(slot) {
            drop(map);
            for &w in group.iter() {
                self.mailbox(w).bell.ring();
            }
        } else {
            drop(map);
        }
        self.note_progress();
        self.mailbox(group[my_idx]).bell.wait(|| {
            let map = self.agreements.lock();
            let slot = map.get(&key).expect("agreement slot vanished");
            if slot.done {
                Some(Ok((slot.value, slot.failed.clone())))
            } else {
                self.stopped.load(Ordering::Acquire).then_some(Err(MpiError::WorldShutdown))
            }
        })
    }

    /// The watchdog's report, if it fired.
    pub fn watchdog_report(&self) -> Option<String> {
        self.watchdog_report.lock().clone()
    }

    /// All ranks finished (normally or by failure) — nothing to watch.
    fn all_done_or_failed(&self) -> bool {
        self.health
            .iter()
            .all(|h| h.done.load(Ordering::Acquire) || h.failed.load(Ordering::Acquire))
    }

    /// Per-rank state dump for the watchdog report.
    fn rank_report(&self) -> String {
        let clocks = self.clocks.lock();
        let mut out = String::new();
        for (r, h) in self.health.iter().enumerate() {
            let state = if h.failed.load(Ordering::Acquire) {
                "FAILED"
            } else if h.done.load(Ordering::Acquire) {
                "done"
            } else {
                "blocked"
            };
            let t_us = clocks
                .get(r)
                .and_then(|c| c.as_ref())
                .map(|c| c.lock().virtual_us)
                .unwrap_or(0.0);
            out.push_str(&format!(
                "rank {r}: {state} in {} (mpi_calls={}, vclock={t_us:.1}us)\n",
                h.op(),
                h.calls.load(Ordering::Relaxed),
            ));
        }
        out
    }

    /// Declare the world hung: store the report, surface it through the
    /// recorder (event + `otherData` annotation) and the `on_fire`
    /// callback, then shut the world down so blocked ranks error out.
    fn watchdog_fire(&self, why: &str, stalled: Duration) {
        let report = format!(
            "hang watchdog fired: {why} (no progress for {:.0}ms)\n{}",
            stalled.as_secs_f64() * 1e3,
            self.rank_report()
        );
        *self.watchdog_report.lock() = Some(report.clone());
        if let Some(t) = &self.trace {
            t.rec.emit_engine(EventKind::WatchdogFired {
                stalled_us: stalled.as_secs_f64() * 1e6,
            });
            t.rec.set_annotation("watchdog_report", report.as_str());
        }
        if let Some(cfg) = &self.watchdog {
            if let Some(f) = &cfg.on_fire {
                f(&report);
            }
        }
        self.shutdown();
    }

    /// Monitor loop (runs on its own thread until the world completes or
    /// the watchdog fires).
    fn watchdog_loop(&self, cfg: &WatchdogConfig, stop: &AtomicBool) {
        let mut last = self.progress.load(Ordering::Relaxed);
        let mut stalled = Duration::ZERO;
        loop {
            std::thread::sleep(cfg.poll_interval);
            if stop.load(Ordering::Acquire) || self.all_done_or_failed() {
                return;
            }
            if let Some(budget) = cfg.virtual_budget_us {
                let over = self.clocks.lock().iter().enumerate().find_map(|(r, c)| {
                    let t = c.as_ref().map(|c| c.lock().virtual_us).unwrap_or(0.0);
                    (t > budget).then_some((r, t))
                });
                if let Some((r, t)) = over {
                    self.watchdog_fire(
                        &format!(
                            "simulated-time budget exceeded (rank {r} at {t:.1}us > {budget:.1}us)"
                        ),
                        stalled,
                    );
                    return;
                }
            }
            let now = self.progress.load(Ordering::Relaxed);
            if now != last {
                last = now;
                stalled = Duration::ZERO;
                continue;
            }
            stalled += cfg.poll_interval;
            if stalled >= cfg.wall_timeout {
                self.watchdog_fire("no progress", stalled);
                return;
            }
        }
    }

    /// Unblock every rank (teardown after a panic or watchdog firing, so
    /// the others do not hang forever on a receive that will never be
    /// satisfied). Each mailbox's sweep fails its queued rendezvous
    /// handshakes, ringing their senders, and rings its owner — which is
    /// what releases agreement waiters too.
    pub(crate) fn shutdown(&self) {
        self.stopped.store(true, Ordering::Release);
        for slot in &self.mailboxes {
            if let Some(mb) = slot.get() {
                mb.shutdown();
            }
        }
    }
}

/// Run `size` MPI ranks with real clocks. Each rank executes `body` on its
/// own thread with a world [`Comm`]; results are returned in rank order.
///
/// This is the analog of `mpirun -np <size>`.
pub fn run_world<R, F>(size: u32, body: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Comm) -> R + Send + Sync + 'static,
{
    run_world_with(size, ClockMode::Real, body)
}

/// [`run_world`] with an explicit clock mode. Passing
/// [`ClockMode::Virtual`] makes every rank track LogP-style simulated time
/// (see crate docs); `Comm::wtime` then reads the virtual clock. The
/// message protocol (eager threshold, buffer budgets) is derived from the
/// mode; use [`run_world_configured`] to override it.
pub fn run_world_with<R, F>(size: u32, mode: ClockMode, body: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Comm) -> R + Send + Sync + 'static,
{
    run_world_on(World::new(size, mode), body)
}

/// The fully-configurable entry point: protocol, recorder, fault plan,
/// and hang watchdog all in one [`WorldConfig`].
pub fn run_world_configured<R, F>(size: u32, config: WorldConfig, body: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Comm) -> R + Send + Sync + 'static,
{
    run_world_on(World::new_configured(size, config), body)
}

fn run_world_on<R, F>(world: Arc<World>, body: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Comm) -> R + Send + Sync + 'static,
{
    let size = world.size;
    let body = Arc::new(body);

    // Start the hang watchdog before any rank runs, stop it after joins.
    let watchdog_stop = Arc::new(AtomicBool::new(false));
    let watchdog_handle = world.watchdog.clone().map(|cfg| {
        let world = Arc::clone(&world);
        let stop = Arc::clone(&watchdog_stop);
        std::thread::Builder::new()
            .name("mpi-watchdog".into())
            .spawn(move || world.watchdog_loop(&cfg, &stop))
            .expect("failed to spawn watchdog thread")
    });

    let handles: Vec<_> = (0..size)
        .map(|rank| {
            let world = Arc::clone(&world);
            let body = Arc::clone(&body);
            std::thread::Builder::new()
                .name(format!("mpi-rank-{rank}"))
                .stack_size(world.stack_size)
                .spawn(move || {
                    let comm = Comm::world(Arc::clone(&world), rank);
                    let result = catch_unwind(AssertUnwindSafe(|| body(comm)));
                    match &result {
                        Ok(_) => world.health[rank as usize].done.store(true, Ordering::Release),
                        Err(_) => {
                            // A panicking rank is a failed rank: peers
                            // observe `RankFailed` for work that depended
                            // on it. The shutdown keeps the historical
                            // big-hammer guarantee that *nothing* keeps
                            // blocking once a rank has panicked.
                            world.fail_rank(rank);
                            world.shutdown();
                        }
                    }
                    result
                })
                .expect("failed to spawn rank thread")
        })
        .collect();

    let mut results = Vec::with_capacity(size as usize);
    let mut panic: Option<(u32, Box<dyn std::any::Any + Send>)> = None;
    for (rank, h) in handles.into_iter().enumerate() {
        match h.join().expect("rank thread panicked outside catch_unwind") {
            Ok(r) => results.push(r),
            Err(p) => {
                if panic.is_none() {
                    panic = Some((rank as u32, p));
                }
            }
        }
    }
    watchdog_stop.store(true, Ordering::Release);
    if let Some(p) = &panic {
        // Don't wait out the watchdog poll on the panic path.
        drop(watchdog_handle);
        let _ = p;
    } else if let Some(h) = watchdog_handle {
        let _ = h.join();
    }
    if let Some((rank, p)) = panic {
        // Re-raise with the rank identity attached. String payloads keep
        // their original text embedded so `should_panic(expected = ...)`
        // substring pins continue to match; non-string payloads are
        // re-raised untouched (we cannot rewrap them losslessly).
        let msg = if let Some(s) = p.downcast_ref::<&'static str>() {
            Some((*s).to_string())
        } else {
            p.downcast_ref::<String>().cloned()
        };
        match msg {
            Some(m) => panic!("rank {rank} panicked: {m}"),
            None => resume_unwind(p),
        }
    }
    if let Some(t) = &world.trace {
        // Quiescent now (all ranks joined): fold the protocol counters
        // into the unified metrics registry.
        t.rec.fold_metrics(world.stats.metric_entries());
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_identity() {
        let ranks = run_world(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(ranks, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn single_rank_world_works() {
        let out = run_world(1, |comm| comm.rank());
        assert_eq!(out, vec![0]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates_without_hanging_others() {
        run_world(3, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            // Other ranks block forever on a message that never comes;
            // the shutdown must unblock them.
            let mut buf = [0u8; 4];
            let _ = comm.recv(&mut buf, crate::Source::Any, crate::Tag::Any);
        });
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked: kaput")]
    fn panic_message_names_the_guilty_rank() {
        run_world(4, |comm| {
            if comm.rank() == 2 {
                panic!("kaput");
            }
            let mut buf = [0u8; 4];
            let _ = comm.recv(&mut buf, crate::Source::Any, crate::Tag::Any);
        });
    }

    #[test]
    fn watchdog_fires_on_a_stuck_world_instead_of_hanging() {
        let fired = Arc::new(Mutex::new(None::<String>));
        let fired2 = Arc::clone(&fired);
        let config = WorldConfig::new(ClockMode::Real).with_watchdog(
            WatchdogConfig::wall(Duration::from_millis(100))
                .with_on_fire(move |report| *fired2.lock() = Some(report.to_string())),
        );
        // Rank 1 never sends: rank 0 is permanently stuck.
        let results = run_world_configured(2, config, |comm| {
            if comm.rank() == 0 {
                let mut buf = [0u8; 4];
                comm.recv(&mut buf, crate::Source::Rank(1), crate::Tag::Any).map(|_| ())
            } else {
                Ok(())
            }
        });
        assert_eq!(results[1], Ok(()));
        assert!(results[0].is_err(), "stuck rank must be unwedged with an error");
        let report = fired.lock().clone().expect("watchdog must fire");
        assert!(report.contains("hang watchdog fired"), "{report}");
        assert!(report.contains("rank 0"), "{report}");
        assert!(report.contains("recv"), "report should name the blocked op: {report}");
    }

    #[test]
    fn watchdog_stays_quiet_on_a_healthy_world() {
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        let config = WorldConfig::new(ClockMode::Real).with_watchdog(
            WatchdogConfig::wall(Duration::from_millis(200))
                .with_on_fire(move |_| fired2.store(true, Ordering::Release)),
        );
        let results = run_world_configured(2, config, |comm| {
            let mut buf = [0u8; 4];
            if comm.rank() == 0 {
                comm.send(&[1, 2, 3, 4], 1, 7).unwrap();
                Ok(())
            } else {
                comm.recv(&mut buf, crate::Source::Rank(0), crate::Tag::Value(7)).map(|_| ())
            }
        });
        assert!(results.iter().all(|r| r.is_ok()));
        assert!(!fired.load(Ordering::Acquire));
    }

    #[test]
    fn a_disabled_recorder_hands_out_no_flow_ids() {
        let rec = Recorder::new(2, 16, obs::TraceClock::Real);
        rec.set_enabled(false);
        let config = WorldConfig::new(ClockMode::Real).with_recorder(Arc::clone(&rec));
        run_world_configured(2, config, |comm| {
            let peer = 1 - comm.rank();
            let mut buf = [0u8; 4];
            let mut req = comm.irecv(&mut buf, crate::Source::Rank(peer), crate::Tag::Any).unwrap();
            comm.send(&[7u8; 4], peer, 0).unwrap();
            req.wait().unwrap();
        });
        // Ids start at 1; sends and requests took none while disabled.
        assert_eq!(rec.next_flow(), 1);
    }

    #[test]
    fn injected_crash_fails_survivors_with_rank_failed() {
        use netsim::FaultPlan;
        // Rank 1 dies on its very first MPI call; rank 0's blocking recv
        // from it must observe RankFailed rather than hang.
        let config = WorldConfig::new(ClockMode::Real)
            .with_fault(FaultPlan::new(1).crash_at_call(1, 1));
        let results = run_world_configured(2, config, |comm| {
            if comm.rank() == 0 {
                let mut buf = [0u8; 4];
                comm.recv(&mut buf, crate::Source::Rank(1), crate::Tag::Any).map(|_| ())
            } else {
                comm.send(&[9u8; 4], 0, 0).map(|_| ())
            }
        });
        assert_eq!(results[0], Err(MpiError::RankFailed { rank: 1 }));
        assert_eq!(results[1], Err(MpiError::RankFailed { rank: 1 }));
    }
}

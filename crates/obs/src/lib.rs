//! Flight recorder for the MPIWasm stack.
//!
//! Three pieces, all dependency-free so every layer of the workspace can
//! emit into the same sink:
//!
//! * **Events** ([`Event`], [`EventKind`]) — small `Copy` records of the
//!   things the paper's evaluation reasons about: p2p sends/receives with
//!   protocol and byte counts, rendezvous handshake phases, posted- vs
//!   queued-match outcomes, collective rounds with their algorithm tag,
//!   request state transitions, and the watchdog's verdict.
//! * **Per-rank ring buffers** ([`RankLog`]) — lock-free bounded append
//!   logs. A writer claims a slot with one `fetch_add`; once the log is
//!   full further events bump a dropped counter instead, so truncation is
//!   counted, never silent. Readers only observe slots whose `ready` flag
//!   has been published, so a snapshot taken concurrently with writers is
//!   safe (it simply misses in-flight events).
//! * **Exporter** ([`export_chrome_trace`]) — Chrome trace-event JSON
//!   loadable in Perfetto: one track per rank, `X` slices for p2p and
//!   async `b`/`e` spans for collectives, and `s`/`f` flow arrows tying
//!   each send to the matching receive.
//!
//! Timestamps are microseconds of either host time (real clock mode) or
//! simulated time (virtual clock mode); the recorder itself is
//! mode-agnostic — the emitting layer resolves the mode once (see
//! `mpi-substrate`'s `WorldTrace`) and hands finished `f64` timestamps in.

mod event;
mod export;
mod metrics;
mod ring;

pub use event::{Algorithm, CollKind, Event, EventKind, Protocol, ReqState};
pub use export::{export_chrome_trace, write_chrome_trace};
pub use metrics::MetricSet;
pub use ring::RankLog;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-rank event capacity (events, not bytes).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Which clock produced the timestamps in a recorder. Carried into the
/// exported trace metadata so a reader knows whether the timeline is host
/// time or the replayed simulated timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceClock {
    Real,
    Virtual,
}

impl TraceClock {
    pub fn name(self) -> &'static str {
        match self {
            TraceClock::Real => "real",
            TraceClock::Virtual => "virtual",
        }
    }
}

/// The flight recorder: one bounded event log per rank plus one extra
/// engine-wide track (for what belongs to no one rank, such as the hang
/// watchdog firing), a global flow-id allocator for send→recv
/// arrows, and a metrics registry that the layers fold their counters into
/// at quiescence.
pub struct Recorder {
    ranks: Vec<RankLog>,
    engine: RankLog,
    epoch: Instant,
    clock: TraceClock,
    enabled: AtomicBool,
    flow: AtomicU64,
    metrics: Mutex<MetricSet>,
    /// Free-form string annotations carried into the exported trace's
    /// `otherData` footer (e.g. the hang watchdog's per-rank report).
    annotations: Mutex<Vec<(String, String)>>,
}

impl Recorder {
    /// A recorder for `n_ranks` ranks with `capacity` event slots per rank
    /// (plus an engine track at the same capacity).
    pub fn new(n_ranks: usize, capacity: usize, clock: TraceClock) -> Arc<Recorder> {
        Arc::new(Recorder {
            ranks: (0..n_ranks).map(|_| RankLog::new(capacity)).collect(),
            engine: RankLog::new(capacity),
            epoch: Instant::now(),
            clock,
            enabled: AtomicBool::new(true),
            // Flow id 0 means "no flow"; real ids start at 1.
            flow: AtomicU64::new(1),
            metrics: Mutex::new(MetricSet::new()),
            annotations: Mutex::new(Vec::new()),
        })
    }

    /// Number of rank tracks (excluding the engine track).
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    pub fn clock(&self) -> TraceClock {
        self.clock
    }

    /// Runtime kill switch. A disabled recorder drops nothing — emit
    /// becomes a no-op and the dropped counters stay untouched — so a
    /// "compiled in but disabled" run measures pure instrumentation cost.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Microseconds since the recorder was created (real-clock timestamps).
    #[inline]
    pub fn elapsed_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Allocate a flow id tying a send event to its receive event.
    #[inline]
    pub fn next_flow(&self) -> u64 {
        self.flow.fetch_add(1, Ordering::Relaxed)
    }

    /// Append an event to `rank`'s log. Out-of-range ranks and disabled
    /// recorders are ignored (never panics on the hot path).
    #[inline]
    pub fn emit(&self, rank: usize, ts_us: f64, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        if let Some(log) = self.ranks.get(rank) {
            log.push(Event { ts_us, kind });
        }
    }

    /// Append an engine-track event, timestamped with the recorder's own
    /// real clock (the engine has no virtual clock of its own).
    #[inline]
    pub fn emit_engine(&self, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        self.engine.push(Event { ts_us: self.elapsed_us(), kind });
    }

    /// Snapshot of one rank's events in emission order.
    pub fn rank_events(&self, rank: usize) -> Vec<Event> {
        self.ranks.get(rank).map(|l| l.snapshot()).unwrap_or_default()
    }

    pub fn engine_events(&self) -> Vec<Event> {
        self.engine.snapshot()
    }

    /// Events dropped on `rank` because its log was full.
    pub fn dropped(&self, rank: usize) -> u64 {
        self.ranks.get(rank).map(|l| l.dropped()).unwrap_or(0)
    }

    pub fn total_dropped(&self) -> u64 {
        self.ranks.iter().map(|l| l.dropped()).sum::<u64>() + self.engine.dropped()
    }

    /// Fold a batch of named counters into the unified metrics registry.
    /// Values accumulate across calls (so per-rank or per-run sources can
    /// all merge into one table).
    pub fn fold_metrics<I>(&self, entries: I)
    where
        I: IntoIterator<Item = (&'static str, u64)>,
    {
        let mut m = self.metrics.lock().unwrap();
        for (name, v) in entries {
            m.add(name, v);
        }
    }

    /// Attach (or replace) a named free-form annotation. Annotations ride
    /// into the exported trace's `otherData` footer.
    pub fn set_annotation(&self, key: &str, value: impl Into<String>) {
        let mut a = self.annotations.lock().unwrap();
        match a.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value.into(),
            None => a.push((key.to_string(), value.into())),
        }
    }

    /// Snapshot of the annotations in insertion order.
    pub fn annotations(&self) -> Vec<(String, String)> {
        self.annotations.lock().unwrap().clone()
    }

    /// Point-in-time snapshot of the metrics registry, with the recorder's
    /// own drop counters folded in under `trace.dropped_events`.
    pub fn metrics(&self) -> MetricSet {
        let mut m = self.metrics.lock().unwrap().clone();
        m.add("trace.dropped_events", self.total_dropped());
        let events: u64 =
            self.ranks.iter().map(|l| l.len() as u64).sum::<u64>() + self.engine.len() as u64;
        m.add("trace.events", events);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_snapshot_roundtrip() {
        let rec = Recorder::new(2, 8, TraceClock::Virtual);
        rec.emit(0, 1.0, EventKind::RecvPost { peer: -1, tag: 7 });
        rec.emit(1, 2.0, EventKind::SendDone { peer: 0, flow: 3 });
        let r0 = rec.rank_events(0);
        assert_eq!(r0.len(), 1);
        assert_eq!(r0[0].ts_us, 1.0);
        assert!(matches!(r0[0].kind, EventKind::RecvPost { peer: -1, tag: 7 }));
        assert_eq!(rec.rank_events(1).len(), 1);
        assert_eq!(rec.total_dropped(), 0);
    }

    #[test]
    fn full_log_counts_drops_instead_of_growing() {
        let rec = Recorder::new(1, 4, TraceClock::Real);
        for i in 0..10 {
            rec.emit(0, i as f64, EventKind::RecvPost { peer: 0, tag: i });
        }
        assert_eq!(rec.rank_events(0).len(), 4);
        assert_eq!(rec.dropped(0), 6);
        // The metrics snapshot reports the truncation.
        let m = rec.metrics();
        assert_eq!(m.get("trace.dropped_events"), Some(6));
    }

    #[test]
    fn disabled_recorder_ignores_events() {
        let rec = Recorder::new(1, 4, TraceClock::Real);
        rec.set_enabled(false);
        rec.emit(0, 0.0, EventKind::RecvPost { peer: 0, tag: 0 });
        rec.emit_engine(EventKind::WatchdogFired { stalled_us: 1.0 });
        assert!(rec.rank_events(0).is_empty());
        assert!(rec.engine_events().is_empty());
        assert_eq!(rec.total_dropped(), 0);
    }

    #[test]
    fn flow_ids_are_unique_and_nonzero() {
        let rec = Recorder::new(1, 4, TraceClock::Real);
        let a = rec.next_flow();
        let b = rec.next_flow();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn out_of_range_rank_is_ignored() {
        let rec = Recorder::new(1, 4, TraceClock::Real);
        rec.emit(5, 0.0, EventKind::RecvPost { peer: 0, tag: 0 });
        assert_eq!(rec.total_dropped(), 0);
    }

    #[test]
    fn metrics_fold_accumulates() {
        let rec = Recorder::new(1, 4, TraceClock::Real);
        rec.fold_metrics([("mpi.eager_messages", 3)]);
        rec.fold_metrics([("mpi.eager_messages", 2), ("wasm.funcs_lowered", 1)]);
        let m = rec.metrics();
        assert_eq!(m.get("mpi.eager_messages"), Some(5));
        assert_eq!(m.get("wasm.funcs_lowered"), Some(1));
    }
}

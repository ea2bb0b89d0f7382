//! How a blocked rank waits (`src/park.rs`), seen from outside: a failure
//! reaches a survivor in either phase of its wait, nobody wakes a rank
//! that is not asleep, and every blocking wait is counted once.
//!
//! `parks` is counted as a waiter registers for its sleep, so a peer that
//! reads `parks >= 1` knows the survivor is asleep (or has the lock and is
//! about to be): the "asleep" interleavings below are forced, not slept for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use mpi_substrate::{
    run_world, run_world_configured, ClockMode, Comm, MpiError, ProtocolSnapshot, Source, Tag,
    WatchdogConfig, WorldConfig,
};
use netsim::{CostModel, FaultPlan, SystemProfile};
use obs::{Recorder, TraceClock};

fn both_modes() -> [ClockMode; 2] {
    [ClockMode::Real, ClockMode::Virtual(CostModel::native(SystemProfile::container()))]
}

/// A blocking call, one per wait site of the substrate: a posted entry
/// (`Recv`, and `Barrier`'s collective step), a rendezvous slot (`Ssend`'s
/// owned one, `Rendezvous`'s pinned one), the mailbox (`Probe`), the
/// agreement table (`Agree`).
#[derive(Debug, Clone, Copy)]
enum Blocked {
    Recv,
    Barrier,
    Ssend,
    Rendezvous,
    Probe,
    Agree,
}

const SITES: [Blocked; 6] = [
    Blocked::Recv,
    Blocked::Barrier,
    Blocked::Ssend,
    Blocked::Rendezvous,
    Blocked::Probe,
    Blocked::Agree,
];

impl Blocked {
    fn call(self, comm: &Comm) -> Result<(), MpiError> {
        let from_peer = Source::Rank(1);
        match self {
            Blocked::Recv => comm.recv(&mut [0u8; 8], from_peer, Tag::Value(0)).map(drop),
            Blocked::Barrier => comm.barrier(),
            Blocked::Ssend => comm.ssend(&[0u8; 8], 1, 0),
            Blocked::Rendezvous => comm.send(&vec![0u8; 1 << 20], 1, 0),
            Blocked::Probe => comm.probe(from_peer, Tag::Value(0)).map(drop),
            Blocked::Agree => comm.agree(1).map(drop),
        }
    }

    /// An agreement goes on without the dead rank; every other wait is for
    /// something only the dead rank could have done.
    fn expected(self) -> Result<(), MpiError> {
        match self {
            Blocked::Agree => Ok(()),
            _ => Err(MpiError::RankFailed { rank: 1 }),
        }
    }
}

/// Rank 0 blocks in `site`; rank 1 — in no MPI call — dies, either at once
/// (rank 0 is most likely still inside its yield budget) or once rank 0 is
/// asleep. Returns rank 0's outcome and the counters as it saw them after.
fn survivor(
    site: Blocked,
    mode: ClockMode,
    wait_until_asleep: bool,
) -> (Result<(), MpiError>, ProtocolSnapshot) {
    let hung = Arc::new(AtomicBool::new(false));
    let tripwire = Arc::clone(&hung);
    let config = WorldConfig::new(mode).with_watchdog(
        WatchdogConfig::wall(Duration::from_secs(5))
            .with_on_fire(move |_| tripwire.store(true, Ordering::Release)),
    );
    let mut out = run_world_configured(2, config, move |comm| {
        if comm.rank() == 0 {
            let outcome = site.call(&comm);
            Some((outcome, comm.protocol_stats()))
        } else {
            while wait_until_asleep && comm.protocol_stats().parks == 0 {
                std::thread::yield_now();
            }
            comm.fail_self();
            None
        }
    });
    assert!(!hung.load(Ordering::Acquire), "{site:?}: the watchdog fired, the survivor hung");
    out.swap_remove(0).expect("rank 0 reports")
}

#[test]
fn peer_death_reaches_a_survivor_that_is_asleep() {
    for mode in both_modes() {
        for site in SITES {
            let (outcome, stats) = survivor(site, mode.clone(), true);
            assert_eq!(outcome, site.expected(), "{site:?}");
            assert_eq!(stats.parks, 1, "{site:?}: one wait, and it slept: {stats:?}");
            assert!(stats.wakes >= 1, "{site:?}: somebody woke it: {stats:?}");
        }
    }
}

#[test]
fn peer_death_reaches_a_survivor_inside_its_yield_budget() {
    for mode in both_modes() {
        for site in SITES {
            for _ in 0..20 {
                let (outcome, stats) = survivor(site, mode.clone(), false);
                assert_eq!(outcome, site.expected(), "{site:?}");
                assert!(stats.wakes <= stats.parks, "{site:?}: {stats:?}");
            }
        }
    }
}

/// A survivor asleep on a message that never comes is still the watchdog's
/// to report, in the words it has always used.
#[test]
fn watchdog_report_for_a_sleeping_rank_reads_as_before() {
    let report: Arc<std::sync::Mutex<Option<String>>> = Arc::default();
    let cap = Arc::clone(&report);
    let config = WorldConfig::new(ClockMode::Real)
        .with_fault(FaultPlan::new(3).drop_nth(0, 1, 1))
        .with_watchdog(
            WatchdogConfig::wall(Duration::from_millis(150))
                .with_on_fire(move |r| *cap.lock().unwrap() = Some(r.to_string())),
        );
    let results = run_world_configured(2, config, |comm| {
        if comm.rank() == 0 {
            comm.send(&[1, 2, 3, 4], 1, 0)
        } else {
            comm.recv(&mut [0u8; 4], Source::Rank(0), Tag::Value(0)).map(drop)
        }
    });
    assert_eq!(results, [Ok(()), Err(MpiError::WorldShutdown)]);
    let report = report.lock().unwrap().clone().expect("watchdog must fire");
    let mut lines = report.lines();
    let head = lines.next().unwrap();
    assert!(
        head.starts_with("hang watchdog fired: no progress (no progress for ")
            && head.ends_with("ms)"),
        "{report}"
    );
    assert_eq!(lines.next(), Some("rank 0: done in send (mpi_calls=1, vclock=0.0us)"), "{report}");
    assert_eq!(lines.next(), Some("rank 1: blocked in recv (mpi_calls=1, vclock=0.0us)"), "{report}");
}

/// Rank 1 is in no MPI call while rank 0 sends: every deposit finds
/// nobody asleep on the mailbox, and none of them costs a wake.
#[test]
fn eager_sends_to_a_rank_outside_mpi_wake_nobody() {
    const MESSAGES: u64 = 1_000;
    let sent = Arc::new(Barrier::new(2));
    let out = run_world(2, move |comm| {
        if comm.rank() == 0 {
            for i in 0..MESSAGES {
                comm.send(&i.to_le_bytes(), 1, 0).unwrap();
            }
            let stats = comm.protocol_stats();
            sent.wait();
            Some(stats)
        } else {
            sent.wait();
            let mut word = [0u8; 8];
            for i in 0..MESSAGES {
                comm.recv(&mut word, Source::Rank(0), Tag::Value(0)).unwrap();
                assert_eq!(word, i.to_le_bytes());
            }
            None
        }
    });
    let stats = out[0].expect("rank 0 reports");
    assert_eq!(stats.eager_messages, MESSAGES);
    assert_eq!((stats.wakes, stats.parks, stats.yield_hits), (0, 0, 0), "{stats:?}");
}

/// Every blocking wait ends in exactly one of the two counters, and a wake
/// is only ever issued to a rank that parked. The counters reach the
/// recorder's metrics table under their `mpi.` names.
#[test]
fn pingpong_counts_each_blocking_wait_once_and_wakes_only_sleepers() {
    const ITERS: u64 = 10_000;
    let rec = Recorder::new(2, 1 << 10, TraceClock::Real);
    let done = Arc::new(Barrier::new(2));
    let config = WorldConfig::new(ClockMode::Real).with_recorder(Arc::clone(&rec));
    let out = run_world_configured(2, config, move |comm| {
        let (me, mut word) = (comm.rank(), [0u8; 8]);
        for _ in 0..ITERS {
            if me == 0 {
                comm.send(&word, 1, 0).unwrap();
                comm.recv(&mut word, Source::Rank(1), Tag::Value(0)).unwrap();
            } else {
                comm.recv(&mut word, Source::Rank(0), Tag::Value(0)).unwrap();
                comm.send(&word, 0, 0).unwrap();
            }
        }
        done.wait();
        comm.protocol_stats()
    });
    // Eager sends never wait; each of the 2 × ITERS receives waits once.
    for stats in out {
        assert_eq!(stats.parks + stats.yield_hits, 2 * ITERS, "{stats:?}");
        assert!(stats.wakes <= stats.parks, "woke a rank that was not asleep: {stats:?}");
    }
    let metrics = rec.metrics();
    let get = |name| metrics.get(name).unwrap_or_else(|| panic!("{name} is not in the table"));
    assert_eq!(get("mpi.parks") + get("mpi.yield_hits"), 2 * ITERS);
    assert!(get("mpi.wakes") <= get("mpi.parks"));
}

//! Fault-tolerance integration tests: injected rank crashes, message
//! drops, and the hang watchdog, in both clock modes.
//!
//! The contract under test is ULFM-flavoured: a failure never hangs a
//! survivor. Every surviving rank either completes cleanly or gets
//! `MpiError::RankFailed`; the failed rank's identity is observable; and
//! `agree`/`shrink` let survivors re-form a working communicator.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mpi_substrate::{
    run_world_configured, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, ClockMode,
    CollTuning, Datatype, MpiError, ReduceOp, Source, Tag, WatchdogConfig, WorldConfig,
};
use netsim::{CostModel, FaultPlan, SystemProfile};
use proptest::prelude::*;

fn both_modes() -> Vec<ClockMode> {
    vec![
        ClockMode::Real,
        ClockMode::Virtual(CostModel::native(SystemProfile::container())),
    ]
}

/// A rank that gives up on MPI announces its own death first — this is
/// what the embedder does when a guest traps (`Comm::fail_self`), and it
/// is what keeps failure knowledge flowing transitively: a peer waiting
/// on an *aborted* (not crashed) rank still observes `RankFailed`.
fn with_fail_on_abort<T>(
    comm: &mpi_substrate::Comm,
    f: impl FnOnce() -> Result<T, MpiError>,
) -> Result<T, MpiError> {
    let r = f();
    if r.is_err() {
        comm.fail_self();
    }
    r
}

/// The PR's acceptance scenario: a seeded crash lands while an
/// `Iallreduce` is in flight. Every survivor's wait must complete with
/// `RankFailed` — no hang, no abort — in both clock modes, whether the
/// survivors' payloads ride eager boxes (8 bytes) or are reduced straight
/// out of a peer's pinned buffer (1 MiB, rendezvous).
#[test]
fn crash_mid_iallreduce_fails_survivors_in_both_modes() {
    for (mode, elems) in both_modes().into_iter().flat_map(|m| [(m.clone(), 1), (m, 1 << 17)]) {
        // Rank 2's second MPI call is the iallreduce initiation: it dies
        // there, after the survivors have already entered the collective.
        let config = WorldConfig::new(mode)
            .with_fault(FaultPlan::new(42).crash_at_call(2, 2));
        let results = run_world_configured(4, config, move |comm| {
            with_fail_on_abort(&comm, || {
                let x = vec![comm.rank() as f64 + 1.0; elems];
                let mut warm = vec![0.0f64; elems];
                comm.allreduce(bytes(&x), bytes_mut(&mut warm), Datatype::Double, ReduceOp::Sum)?;
                assert_eq!(warm, vec![10.0; elems]);
                let mut out = vec![0.0f64; elems];
                let mut req = comm.iallreduce(
                    bytes(&x),
                    bytes_mut(&mut out),
                    Datatype::Double,
                    ReduceOp::Sum,
                )?;
                req.wait()?;
                Ok(())
            })
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(
                matches!(r, Err(MpiError::RankFailed { .. })),
                "rank {rank} must observe a failure, not hang ({elems} elements): {r:?}"
            );
        }
        // The original culprit is observable on at least one survivor.
        assert!(
            results.iter().any(|r| *r == Err(MpiError::RankFailed { rank: 2 })),
            "{elems} elements: {results:?}"
        );
    }
}

/// Fault-matrix smoke (ISSUE 9 satellite): a seeded crash lands
/// mid-collective under **each new tuned schedule**, and every survivor
/// that keeps driving the collective observes `RankFailed` — never a
/// hang (the watchdog is armed as a tripwire). Payloads stay eager-sized:
/// a crashed *rendezvous* sender is the message-drop scenario, covered
/// separately.
#[test]
fn crash_mid_collective_fails_survivors_under_every_new_schedule() {
    // A 4-byte segment turns the 13-byte bcast into a 4-segment pipeline.
    let cases: Vec<(&str, CollTuning)> = vec![
        (
            "bcast",
            CollTuning::new()
                .force_bcast(BcastAlgo::BinomialSegmented)
                .with_segment_bytes(4),
        ),
        ("bcast", CollTuning::new().force_bcast(BcastAlgo::Ring).with_segment_bytes(4)),
        ("allgather", CollTuning::new().force_allgather(AllgatherAlgo::Bruck)),
        (
            "allgather",
            CollTuning::new().force_allgather(AllgatherAlgo::RecursiveDoubling),
        ),
        ("allreduce", CollTuning::new().force_allreduce(AllreduceAlgo::Rabenseifner)),
        ("alltoall", CollTuning::new().force_alltoall(AlltoallAlgo::Bruck)),
    ];
    for (coll, tuning) in cases {
        let algo = format!("{tuning:?}");
        let hung = Arc::new(AtomicBool::new(false));
        let tripwire = Arc::clone(&hung);
        // Rank 1's third collective call is mid-matrix: survivors are
        // already inside the same call when it dies. p = 5 puts the
        // victim on the fold-in paths of the non-power-of-two shapes.
        let config = WorldConfig::new(ClockMode::Real)
            .with_coll_tuning(tuning)
            .with_fault(FaultPlan::new(5).crash_at_call(1, 3))
            .with_watchdog(
                WatchdogConfig::wall(Duration::from_secs(10))
                    .with_on_fire(move |_| tripwire.store(true, Ordering::Release)),
            );
        let coll_name = coll.to_string();
        let results = run_world_configured(5, config, move |comm| -> Result<(), MpiError> {
            let p = comm.size();
            let run_one = || -> Result<(), MpiError> {
                match coll_name.as_str() {
                    "bcast" => {
                        let mut buf = [0x42u8; 13];
                        comm.bcast(&mut buf, 0)
                    }
                    "allgather" => {
                        let mine = [comm.rank() as u8; 3];
                        let mut out = vec![0u8; 3 * p as usize];
                        comm.allgather(&mine, &mut out)
                    }
                    "allreduce" => {
                        let x = [comm.rank() as f64; 2];
                        let mut out = [0.0f64; 2];
                        comm.allreduce(
                            bytes(&x),
                            bytes_mut(&mut out),
                            Datatype::Double,
                            ReduceOp::Sum,
                        )
                    }
                    _ => {
                        let send = vec![comm.rank() as u8; 2 * p as usize];
                        let mut recv = vec![0u8; 2 * p as usize];
                        comm.alltoall(&send, &mut recv)
                    }
                }
            };
            // ULFM contract: keep driving the collective until the
            // failure surfaces at this rank.
            loop {
                run_one()?;
            }
        });
        assert!(
            !hung.load(Ordering::Acquire),
            "watchdog fired under {coll}/{algo}: a survivor hung"
        );
        for (rank, r) in results.iter().enumerate() {
            assert!(
                matches!(r, Err(MpiError::RankFailed { .. })),
                "rank {rank} under {coll}/{algo}: {r:?}"
            );
        }
        assert!(
            results.iter().any(|r| *r == Err(MpiError::RankFailed { rank: 1 })),
            "the culprit must be observable under {coll}/{algo}: {results:?}"
        );
    }
}

/// Survivors of a crash can acknowledge the failure, agree, shrink, and
/// keep computing on the smaller communicator.
#[test]
fn survivors_shrink_and_continue_after_crash() {
    let config =
        WorldConfig::new(ClockMode::Real).with_fault(FaultPlan::new(7).crash_at_call(1, 1));
    let results = run_world_configured(3, config, |comm| {
        let me = comm.rank();
        if me == 1 {
            // Dies on its first call; the error is the expected outcome.
            return comm.barrier();
        }
        // Drive a collective until the failure surfaces, then recover.
        loop {
            match comm.barrier() {
                Ok(()) => continue,
                Err(MpiError::RankFailed { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        assert_eq!(comm.ack_failed(), vec![1]);
        let flag = comm.agree(1)?;
        assert_eq!(flag, 1);
        let small = comm.shrink()?;
        assert_eq!(small.size(), 2);
        let x = [1.0f64];
        let mut sum = [0.0f64];
        small.allreduce(bytes(&x), bytes_mut(&mut sum), Datatype::Double, ReduceOp::Sum)?;
        assert_eq!(sum[0], 2.0);
        Ok(())
    });
    assert!(results[0].is_ok(), "{:?}", results[0]);
    assert_eq!(results[1], Err(MpiError::RankFailed { rank: 1 }));
    assert!(results[2].is_ok(), "{:?}", results[2]);
}

/// A dropped message starves the receiver; the watchdog (not a hung test)
/// is what reports it. This is the CI fault-injection smoke scenario.
#[test]
fn dropped_message_is_caught_by_the_watchdog() {
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
            comm.send(&[1, 2, 3, 4], 1, 0)?; // silently dropped on the wire
            Ok(())
        } else {
            let mut buf = [0u8; 4];
            comm.recv(&mut buf, Source::Rank(0), Tag::Value(0)).map(|_| ())
        }
    });
    assert!(results[0].is_ok());
    assert!(results[1].is_err(), "starved receiver must be unwedged");
    let report = report.lock().unwrap().clone().expect("watchdog must fire");
    assert!(report.contains("rank 1"), "{report}");
    assert!(report.contains("recv"), "{report}");
}

/// Injected extra wire delay is deterministic: the same seeded plan
/// produces the identical virtual-time outcome on every run.
#[test]
fn delay_injection_is_reproducible_in_virtual_time() {
    let run = || {
        let mode = ClockMode::Virtual(CostModel::native(SystemProfile::container()));
        let config = WorldConfig::new(mode)
            .with_fault(FaultPlan::new(11).delay(0, 1, 250.0, 0.5));
        run_world_configured(2, config, |comm| {
            if comm.rank() == 0 {
                for _ in 0..20 {
                    comm.send(&[0u8; 64], 1, 0).unwrap();
                }
            } else {
                let mut buf = [0u8; 64];
                for _ in 0..20 {
                    comm.recv(&mut buf, Source::Rank(0), Tag::Value(0)).unwrap();
                }
            }
            comm.virtual_time_us()
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same plan, same timeline");
    // The delay plan must actually have perturbed the receiver's clock
    // relative to an undisturbed run.
    let clean = run_world_configured(
        2,
        WorldConfig::new(ClockMode::Virtual(CostModel::native(SystemProfile::container()))),
        |comm| {
            if comm.rank() == 0 {
                for _ in 0..20 {
                    comm.send(&[0u8; 64], 1, 0).unwrap();
                }
            } else {
                let mut buf = [0u8; 64];
                for _ in 0..20 {
                    comm.recv(&mut buf, Source::Rank(0), Tag::Value(0)).unwrap();
                }
            }
            comm.virtual_time_us()
        },
    );
    assert!(a[1] > clean[1], "delays must add wire time: {} vs {}", a[1], clean[1]);
}

fn bytes(v: &[f64]) -> &[u8] {
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, v.len() * 8) }
}

fn bytes_mut(v: &mut [f64]) -> &mut [u8] {
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut u8, v.len() * 8) }
}

/// One step of the differential workload. Every op is symmetric (all
/// ranks execute the same call sequence), so without a fault plan the
/// mix always completes cleanly.
#[derive(Debug, Clone, Copy)]
enum WorkOp {
    Barrier,
    Allreduce,
    RingSendrecv,
    IallreduceWait,
    IsendIrecvRing,
}

fn op_strategy() -> impl Strategy<Value = WorkOp> {
    prop_oneof![
        Just(WorkOp::Barrier),
        Just(WorkOp::Allreduce),
        Just(WorkOp::RingSendrecv),
        Just(WorkOp::IallreduceWait),
        Just(WorkOp::IsendIrecvRing),
    ]
}

fn run_ops(comm: &mpi_substrate::Comm, ops: &[WorkOp]) -> Result<(), MpiError> {
    let n = comm.size();
    let me = comm.rank();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    for op in ops {
        match op {
            WorkOp::Barrier => comm.barrier()?,
            WorkOp::Allreduce => {
                let x = [me as f64];
                let mut out = [0.0f64];
                comm.allreduce(bytes(&x), bytes_mut(&mut out), Datatype::Double, ReduceOp::Sum)?;
            }
            WorkOp::RingSendrecv => {
                let mut buf = [0u8; 8];
                comm.sendrecv(
                    &[me as u8; 8],
                    right,
                    5,
                    &mut buf,
                    Source::Rank(left),
                    Tag::Value(5),
                )?;
            }
            WorkOp::IallreduceWait => {
                let x = [1.0f64];
                let mut out = [0.0f64];
                let mut req = comm.iallreduce(
                    bytes(&x),
                    bytes_mut(&mut out),
                    Datatype::Double,
                    ReduceOp::Sum,
                )?;
                req.wait()?;
            }
            WorkOp::IsendIrecvRing => {
                let payload = [me as u8; 16];
                let mut inbox = [0u8; 16];
                let mut rreq = comm.irecv(&mut inbox, Source::Rank(left), Tag::Value(9))?;
                let mut sreq = comm.isend(&payload, right, 9)?;
                rreq.wait()?;
                sreq.wait()?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(8)
    ))]

    /// Differential fault test: any op mix plus one injected crash leaves
    /// every surviving rank with either a clean result or `RankFailed` —
    /// never a hang. The watchdog is armed only as a tripwire: it firing
    /// (i.e. a real hang) fails the test.
    #[test]
    fn crash_never_hangs_survivors(
        ops in proptest::collection::vec(op_strategy(), 1..8),
        victim in 0u32..3,
        crash_call in 1u64..12,
        virtual_clock in any::<bool>(),
    ) {
        let mode = if virtual_clock {
            ClockMode::Virtual(CostModel::native(SystemProfile::container()))
        } else {
            ClockMode::Real
        };
        let hung = Arc::new(AtomicBool::new(false));
        let tripwire = Arc::clone(&hung);
        let config = WorldConfig::new(mode)
            .with_fault(FaultPlan::new(99).crash_at_call(victim, crash_call))
            .with_watchdog(
                WatchdogConfig::wall(Duration::from_secs(5))
                    .with_on_fire(move |_| tripwire.store(true, Ordering::Release)),
            );
        let ops_for_body = ops.clone();
        let results = run_world_configured(3, config, move |comm| {
            with_fail_on_abort(&comm, || run_ops(&comm, &ops_for_body))
        });
        prop_assert!(!hung.load(Ordering::Acquire), "watchdog fired: a survivor hung");
        for (rank, r) in results.iter().enumerate() {
            match r {
                Ok(()) => {}
                Err(MpiError::RankFailed { .. }) => {}
                Err(e) => prop_assert!(false, "rank {rank}: unexpected error {e:?}"),
            }
        }
    }
}

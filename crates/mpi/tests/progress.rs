//! Progress-engine integration tests: the rendezvous protocol, bounded
//! eager buffering, true nonblocking requests, persistent requests, and
//! nonblocking collectives.
//!
//! The centerpiece is a differential property test: random interleavings
//! of `Isend`/`Irecv`/`Wait`/`Test`/persistent-start must produce
//! byte-identical data and statuses to the plain blocking send/recv
//! formulation, in both real-time and virtual-clock worlds.

use proptest::prelude::*;

use mpi_substrate::{
    run_world_with, run_world_with_protocol, ClockMode, Comm, Datatype, ProtocolConfig,
    ReduceOp, Request, Source, Status, Tag, TestAny,
};
use netsim::{CostModel, SystemProfile};

fn virtual_mode() -> ClockMode {
    ClockMode::Virtual(CostModel::native(SystemProfile::container()))
}

/// Deterministic payload for message `i` of `len` bytes.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (i * 31 + j * 7 + 13) as u8).collect()
}

// --- zero-copy rendezvous (ISSUE acceptance criterion) ------------------

/// Large messages must travel by rendezvous with no intermediate heap
/// copy of the payload: the eager-copy counter stays at the small-message
/// traffic while the rendezvous counters account for the large payload.
#[test]
fn large_messages_skip_the_eager_copy() {
    const BIG: usize = 256 << 10; // far above every profile's threshold
    let out = run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 0 {
            comm.send(&payload(1, BIG), 1, 5).unwrap();
        } else {
            let mut buf = vec![0u8; BIG];
            let st = comm.recv(&mut buf, Source::Rank(0), Tag::Value(5)).unwrap();
            assert_eq!(st.bytes, BIG);
            assert_eq!(buf, payload(1, BIG));
        }
        comm.protocol_stats()
    });
    let stats = out[0];
    assert_eq!(stats.rendezvous_messages, 1, "{stats:?}");
    assert_eq!(stats.rendezvous_bytes, BIG as u64, "{stats:?}");
    // No eager copy of the big payload was ever made.
    assert!(
        stats.eager_bytes_copied < BIG as u64 / 2,
        "large payload was heap-copied: {stats:?}"
    );
}

#[test]
fn eager_messages_still_buffer() {
    let out = run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 0 {
            comm.send(&payload(0, 100), 1, 1).unwrap();
        } else {
            let mut buf = [0u8; 100];
            comm.recv(&mut buf, Source::Rank(0), Tag::Value(1)).unwrap();
        }
        comm.protocol_stats()
    });
    assert_eq!(out[0].eager_messages, 1);
    assert_eq!(out[0].rendezvous_messages, 0);
}

/// A tiny eager budget forces nonblocking sends through the sender-owned
/// deferred path; everything still arrives in order.
#[test]
fn bounded_eager_buffer_backpressure_preserves_order() {
    let protocol = ProtocolConfig { eager_threshold: 1 << 20, eager_capacity: 512 };
    let out = run_world_with_protocol(2, ClockMode::Real, protocol, |comm| {
        const N: usize = 40;
        if comm.rank() == 0 {
            let bufs: Vec<Vec<u8>> = (0..N).map(|m| payload(m, 200)).collect();
            let mut reqs: Vec<Request> = bufs
                .iter()
                .map(|b| comm.isend(b, 1, 0).unwrap())
                .collect();
            Request::wait_all(&mut reqs).unwrap();
            comm.protocol_stats().deferred_eager_messages
        } else {
            // Drain slowly so the sender exhausts its credit.
            for i in 0..N {
                std::thread::sleep(std::time::Duration::from_micros(200));
                let mut buf = vec![0u8; 200];
                comm.recv(&mut buf, Source::Rank(0), Tag::Value(0)).unwrap();
                assert_eq!(buf, payload(i, 200), "message {i} out of order");
            }
            0
        }
    });
    // 512-byte budget, 200-byte messages: at most 2 in flight eagerly.
    assert!(out[0] > 0, "expected deferred eager sends, got none");
}

/// A rank blocked in (or initiating) a rendezvous send must be released
/// when the world shuts down — the panic has to propagate instead of the
/// join hanging on a handshake nobody will answer.
#[test]
#[should_panic(expected = "boom")]
fn rendezvous_send_unblocks_on_peer_panic() {
    run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 1 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            panic!("boom");
        }
        // Large payload: the send parks on the rendezvous slot until the
        // peer's shutdown fails it.
        let big = payload(0, 256 << 10);
        let _ = comm.send(&big, 1, 0);
        // Sends initiated after the shutdown must fail fast too. With the
        // fault layer the panicked peer is recorded as *failed*, so the
        // error names the culprit (`RankFailed`) rather than the generic
        // shutdown; either way the send must not hang.
        let err = comm.send(&big, 1, 0);
        assert!(matches!(
            err,
            Err(mpi_substrate::MpiError::WorldShutdown)
                | Err(mpi_substrate::MpiError::RankFailed { rank: 1 })
                | Ok(())
        ));
    });
}

/// Send-to-self must stay eager at every size: the same thread receives
/// later, so a rendezvous handshake could never be answered (the seed's
/// semantics, preserved).
#[test]
fn large_self_send_completes_eagerly() {
    run_world_with(1, ClockMode::Real, |comm| {
        let big = payload(5, 256 << 10);
        comm.send(&big, 0, 1).unwrap();
        let mut back = vec![0u8; 256 << 10];
        let st = comm.recv(&mut back, Source::Rank(0), Tag::Value(1)).unwrap();
        assert_eq!(st.bytes, 256 << 10);
        assert_eq!(back, big);
    });
}

/// Rooted collectives must survive eager-credit exhaustion: with a budget
/// far smaller than the aggregate traffic, blocking sends convert to
/// matchable deferred rendezvous instead of parking invisibly on credit
/// (which deadlocked gather: the root drains sources in rank order).
#[test]
fn gather_survives_tiny_eager_budget() {
    let protocol = ProtocolConfig { eager_threshold: 1 << 20, eager_capacity: 64 };
    run_world_with_protocol(6, ClockMode::Real, protocol, |comm| {
        let mine = payload(comm.rank() as usize, 200);
        let mut out = vec![0u8; 200 * 6];
        let root_buf = (comm.rank() == 0).then_some(&mut out[..]);
        comm.gather(&mine, root_buf, 0).unwrap();
        if comm.rank() == 0 {
            for r in 0..6 {
                assert_eq!(&out[r * 200..(r + 1) * 200], &payload(r, 200)[..], "rank {r}");
            }
        }
    });
}

// --- posted-receive matching ---------------------------------------------

/// An eager arrival against an already-posted `Irecv` must take the
/// pre-posted fast path (no mailbox buffering): the `preposted_matches`
/// counter fires and the payload arrives intact.
#[test]
fn eager_arrival_matches_posted_receive() {
    let out = run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 1 {
            let mut buf = vec![0u8; 1 << 10];
            let mut req = comm.irecv(&mut buf, Source::Rank(0), Tag::Value(4)).unwrap();
            // Tell the sender the receive is posted, then wait.
            comm.send(&[1], 0, 99).unwrap();
            let st = req.wait().unwrap();
            assert_eq!(st.bytes, 1 << 10);
            drop(req);
            assert_eq!(buf, payload(8, 1 << 10));
        } else {
            let mut sync = [0u8; 1];
            comm.recv(&mut sync, Source::Rank(1), Tag::Value(99)).unwrap();
            comm.send(&payload(8, 1 << 10), 1, 4).unwrap();
        }
        comm.protocol_stats()
    });
    assert!(out[0].preposted_matches >= 1, "{:?}", out[0]);
}

/// A rendezvous RTS arriving against an already-posted buffer still moves
/// the payload with the single sender-buffer → posted-buffer copy: the
/// rendezvous (zero-copy) counters fire, the eager-copy counter does not,
/// and the arrival is counted as a pre-posted match.
#[test]
fn rendezvous_arrival_against_posted_buffer_is_zero_copy() {
    const BIG: usize = 256 << 10;
    let out = run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 1 {
            let mut buf = vec![0u8; BIG];
            let mut req = comm.irecv(&mut buf, Source::Rank(0), Tag::Value(4)).unwrap();
            comm.send(&[1], 0, 99).unwrap();
            let st = req.wait().unwrap();
            assert_eq!(st.bytes, BIG);
            drop(req);
            assert_eq!(buf, payload(9, BIG));
        } else {
            let mut sync = [0u8; 1];
            comm.recv(&mut sync, Source::Rank(1), Tag::Value(99)).unwrap();
            comm.send(&payload(9, BIG), 1, 4).unwrap();
        }
        comm.protocol_stats()
    });
    let stats = out[0];
    assert!(stats.preposted_matches >= 1, "{stats:?}");
    assert_eq!(stats.rendezvous_messages, 1, "{stats:?}");
    assert_eq!(stats.rendezvous_bytes, BIG as u64, "{stats:?}");
    assert!(stats.eager_bytes_copied < BIG as u64 / 2, "payload was heap-copied: {stats:?}");
}

/// Same-`(source, tag)` receives must complete in posted order even when
/// only the *newest* request is tested: arrival-time matching pins
/// message 0 to the first-posted entry, so testing the second request
/// cannot steal it.
#[test]
fn same_matcher_receives_match_in_posted_order() {
    let out = run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 0 {
            comm.send(&payload(0, 64), 1, 5).unwrap();
            comm.send(&payload(1, 64), 1, 5).unwrap();
            (Vec::new(), Vec::new())
        } else {
            let mut b0 = vec![0u8; 64];
            let mut b1 = vec![0u8; 64];
            {
                let mut r0 = comm.irecv(&mut b0, Source::Rank(0), Tag::Value(5)).unwrap();
                let mut r1 = comm.irecv(&mut b1, Source::Rank(0), Tag::Value(5)).unwrap();
                // Drive only the newest request until it completes...
                loop {
                    if r1.test().unwrap().is_some() {
                        break;
                    }
                    std::thread::yield_now();
                }
                // ...then the oldest; posted order must hold regardless.
                r0.wait().unwrap();
            }
            (b0, b1)
        }
    });
    let (b0, b1) = &out[1];
    assert_eq!(b0, &payload(0, 64), "first-posted receive got message 0");
    assert_eq!(b1, &payload(1, 64), "second-posted receive got message 1");
}

/// An `ANY_SOURCE`/`ANY_TAG` wildcard posted *after* a specific-source
/// receive must lose the race for a matching arrival, and win it when
/// posted first — posting position is the only tiebreaker.
#[test]
fn wildcard_race_against_specific_post_follows_posting_order() {
    let out = run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 0 {
            let mut sync = [0u8; 1];
            comm.recv(&mut sync, Source::Rank(1), Tag::Value(99)).unwrap();
            comm.send(&payload(3, 32), 1, 7).unwrap();
            comm.send(&payload(4, 32), 1, 7).unwrap();
            (Vec::new(), Vec::new())
        } else {
            let mut specific = vec![0u8; 32];
            let mut wild = vec![0u8; 32];
            {
                let mut r_specific =
                    comm.irecv(&mut specific, Source::Rank(0), Tag::Value(7)).unwrap();
                let mut r_wild = comm.irecv(&mut wild, Source::Any, Tag::Any).unwrap();
                comm.send(&[1], 0, 99).unwrap();
                // Completing the wildcard first must still hand the first
                // arrival to the earlier-posted specific receive.
                r_wild.wait().unwrap();
                r_specific.wait().unwrap();
            }
            (specific, wild)
        }
    });
    let (specific, wild) = &out[1];
    assert_eq!(specific, &payload(3, 32), "specific post was first: gets message 0");
    assert_eq!(wild, &payload(4, 32), "wildcard takes the second arrival");
}

// --- probing and cancellation --------------------------------------------

/// `Probe` + `Iprobe` report the earliest matching pending message — the
/// one a receive posted at that instant would claim — without consuming
/// it, in both clock modes; in virtual mode a successful probe
/// synchronizes the rank's clock with the message's arrival.
#[test]
fn probe_reports_earliest_match_without_consuming() {
    for mode in [ClockMode::Real, virtual_mode()] {
        let vt = matches!(mode, ClockMode::Virtual(_));
        run_world_with(2, mode, move |comm| {
            if comm.rank() == 0 {
                comm.send(&payload(0, 64), 1, 9).unwrap();
                comm.send(&payload(1, 64), 1, 5).unwrap();
                comm.send(&[], 1, 10).unwrap(); // sync marker
            } else {
                let mut sync = [0u8; 0];
                comm.recv(&mut sync, Source::Rank(0), Tag::Value(10)).unwrap();
                // Blocking probe on tag 5 sees the *second* arrival.
                let st = comm.probe(Source::Rank(0), Tag::Value(5)).unwrap();
                assert_eq!((st.source, st.tag, st.bytes), (0, 5, 64));
                assert!(!st.cancelled);
                if vt {
                    assert!(comm.virtual_time_us() > 0.0, "probe charged the clock");
                }
                // A wildcard Iprobe sees the earliest arrival (tag 9).
                let st_any = comm.iprobe(Source::Any, Tag::Any).unwrap().unwrap();
                assert_eq!((st_any.tag, st_any.bytes), (9, 64));
                // Nothing was consumed: both receives still deliver.
                let mut buf = vec![0u8; 64];
                comm.recv(&mut buf, Source::Rank(0), Tag::Value(5)).unwrap();
                assert_eq!(buf, payload(1, 64));
                comm.recv(&mut buf, Source::Rank(0), Tag::Value(9)).unwrap();
                assert_eq!(buf, payload(0, 64));
            }
        });
    }
}

/// A wildcard probe must never see a message that a posted receive
/// claimed at arrival (the no-queued-match invariant as observed through
/// the probe window).
#[test]
fn wildcard_probe_skips_messages_claimed_by_posted_receives() {
    run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 1 {
            let mut claimed = vec![0u8; 256];
            let mut req = comm.irecv(&mut claimed, Source::Rank(0), Tag::Value(5)).unwrap();
            comm.send(&[1], 0, 99).unwrap(); // receive is posted
            // Wait for the tag-6 chaser to be probe-visible; the tag-5
            // message (sent first) must never surface in the wildcard
            // probe, because it matched the posted receive at arrival.
            let st = comm.probe(Source::Any, Tag::Any).unwrap();
            assert_eq!(st.tag, 6, "claimed message leaked into the probe");
            req.wait().unwrap();
            drop(req);
            assert_eq!(claimed, payload(0, 256));
            let mut buf = vec![0u8; 32];
            comm.recv(&mut buf, Source::Any, Tag::Value(6)).unwrap();
        } else {
            let mut sync = [0u8; 1];
            comm.recv(&mut sync, Source::Rank(1), Tag::Value(99)).unwrap();
            comm.send(&payload(0, 256), 1, 5).unwrap();
            comm.send(&payload(1, 32), 1, 6).unwrap();
        }
    });
}

/// `Mprobe`/`Improbe` extract the message atomically: once probed it is
/// invisible to every other probe and receive, `Mrecv` delivers it, and
/// dropping the handle unreceived requeues it at its arrival position.
#[test]
fn matched_probe_extracts_and_drop_requeues() {
    for mode in [ClockMode::Real, virtual_mode()] {
        run_world_with(2, mode, |comm| {
            if comm.rank() == 0 {
                comm.send(&payload(3, 128), 1, 7).unwrap();
                comm.send(&payload(4, 128), 1, 7).unwrap();
                comm.send(&[], 1, 10).unwrap();
            } else {
                let mut sync = [0u8; 0];
                comm.recv(&mut sync, Source::Rank(0), Tag::Value(10)).unwrap();
                let (msg, st) = comm.mprobe(Source::Rank(0), Tag::Value(7)).unwrap();
                assert_eq!(st.bytes, 128);
                assert_eq!(msg.status(), st);
                // The extracted (earliest) message is gone from the queue:
                // a wildcard probe now reports the *second* one...
                let st2 = comm.iprobe(Source::Rank(0), Tag::Value(7)).unwrap().unwrap();
                assert_eq!(st2.bytes, 128);
                // ...and dropping the handle puts message 0 back at its
                // arrival position, restoring FIFO.
                drop(msg);
                comm.check_mailbox_invariants();
                let mut buf = vec![0u8; 128];
                let st = comm.recv(&mut buf, Source::Rank(0), Tag::Value(7)).unwrap();
                assert_eq!((st.bytes, &buf), (128, &payload(3, 128)));
                // The remaining message delivers through Mrecv.
                let (msg, _) = comm.mprobe(Source::Rank(0), Tag::Value(7)).unwrap();
                let st = msg.recv(&mut buf).unwrap();
                assert!(!st.cancelled);
                assert_eq!(buf, payload(4, 128));
                assert!(comm.improbe(Source::Any, Tag::Value(7)).unwrap().is_none());
            }
        });
    }
}

/// `Imrecv` turns the extracted message into a request that completes on
/// its first progress step, including for rendezvous payloads (the RTS is
/// matched at probe time; delivery copies straight from the sender).
#[test]
fn imrecv_completes_rendezvous_payload() {
    const BIG: usize = 256 << 10;
    let out = run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 0 {
            comm.send(&payload(6, BIG), 1, 4).unwrap();
        } else {
            let (msg, st) = comm.mprobe(Source::Rank(0), Tag::Value(4)).unwrap();
            assert_eq!(st.bytes, BIG);
            let mut buf = vec![0u8; BIG];
            let mut req = msg.imrecv(&mut buf);
            let st = req.wait().unwrap();
            assert_eq!(st.bytes, BIG);
            drop(req);
            assert_eq!(buf, payload(6, BIG));
        }
        comm.protocol_stats()
    });
    let stats = out[0];
    assert_eq!(stats.rendezvous_messages, 1, "{stats:?}");
    assert!(stats.eager_bytes_copied < BIG as u64 / 2, "{stats:?}");
}

/// Send-side `MPI_Cancel`: an unmatched rendezvous (or credit-deferred
/// eager) send is retracted — the receiver can never see it — and the
/// retraction is visible in the `cancelled_sends`/`retracted_rts`
/// counters; the request completes with `Status::cancelled` set.
#[test]
fn cancel_retracts_unmatched_send() {
    for mode in [ClockMode::Real, virtual_mode()] {
        let out = run_world_with(2, mode, |comm| {
            if comm.rank() == 0 {
                let big = payload(0, 256 << 10); // rendezvous in both modes
                let mut req = comm.isend(&big, 1, 5).unwrap();
                req.cancel();
                let st = req.wait().unwrap();
                assert!(st.cancelled, "unmatched send must cancel");
                drop(req);
                // Tell the receiver it may now look for (the absence of)
                // the cancelled message.
                comm.send(&[], 1, 10).unwrap();
            } else {
                let mut sync = [0u8; 0];
                comm.recv(&mut sync, Source::Rank(0), Tag::Value(10)).unwrap();
                // The retracted message is gone without a trace.
                assert!(comm.iprobe(Source::Rank(0), Tag::Value(5)).unwrap().is_none());
            }
            comm.protocol_stats()
        });
        let stats = out[0];
        assert_eq!(stats.cancelled_sends, 1, "{stats:?}");
        assert_eq!(stats.retracted_rts, 1, "{stats:?}");
    }
}

/// A credit-deferred *eager* send (the other retractable shape) cancels
/// the same way: its sender-owned RTS is retracted and counted.
#[test]
fn cancel_retracts_credit_deferred_eager_send() {
    let protocol = ProtocolConfig { eager_threshold: 1 << 20, eager_capacity: 64 };
    let out = run_world_with_protocol(2, ClockMode::Real, protocol, |comm| {
        if comm.rank() == 0 {
            // First send exhausts the 64-byte budget; the second defers.
            let a = payload(0, 60);
            let b = payload(1, 60);
            let mut ra = comm.isend(&a, 1, 1).unwrap();
            let mut rb = comm.isend(&b, 1, 1).unwrap();
            rb.cancel();
            let st = rb.wait().unwrap();
            assert!(st.cancelled, "deferred send must cancel");
            drop(rb);
            comm.send(&[], 1, 10).unwrap();
            ra.wait().unwrap();
        } else {
            let mut sync = [0u8; 0];
            comm.recv(&mut sync, Source::Rank(0), Tag::Value(10)).unwrap();
            // Only the first (uncancelled) message remains.
            let mut buf = vec![0u8; 60];
            comm.recv(&mut buf, Source::Rank(0), Tag::Value(1)).unwrap();
            assert_eq!(buf, payload(0, 60));
            assert!(comm.iprobe(Source::Rank(0), Tag::Value(1)).unwrap().is_none());
        }
        comm.protocol_stats()
    });
    let stats = out[0];
    assert_eq!(stats.deferred_eager_messages, 1, "{stats:?}");
    assert_eq!(stats.cancelled_sends, 1, "{stats:?}");
    assert_eq!(stats.retracted_rts, 1, "{stats:?}");
}

/// A send whose message already matched (pre-posted receive) or buffered
/// eagerly is past cancellation: `cancel` is a no-op, the transfer
/// completes normally, and no counter moves.
#[test]
fn cancel_after_match_completes_normally() {
    let out = run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 0 {
            // Wait until the peer's receive is posted, so the RTS matches
            // at deposit and cancellation must lose.
            let mut sync = [0u8; 0];
            comm.recv(&mut sync, Source::Rank(1), Tag::Value(99)).unwrap();
            let big = payload(2, 256 << 10);
            let mut req = comm.isend(&big, 1, 5).unwrap();
            req.cancel();
            let st = req.wait().unwrap();
            assert!(!st.cancelled, "matched send completes normally");
            drop(req);
        } else {
            let mut buf = vec![0u8; 256 << 10];
            let mut req = comm.irecv(&mut buf, Source::Rank(0), Tag::Value(5)).unwrap();
            comm.send(&[], 0, 99).unwrap();
            let st = req.wait().unwrap();
            assert_eq!(st.bytes, 256 << 10);
            drop(req);
            assert_eq!(buf, payload(2, 256 << 10));
        }
        comm.protocol_stats()
    });
    assert_eq!(out[0].cancelled_sends, 0, "{:?}", out[0]);
    assert_eq!(out[0].retracted_rts, 0, "{:?}", out[0]);
}

/// Receive-side cancel: an unmatched posted receive unposts (cancelled
/// status), and the message it would have matched stays available to a
/// later receive; a matched receive delivers normally.
#[test]
fn cancel_unmatched_receive_releases_its_slot() {
    run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 1 {
            let mut buf = vec![0u8; 64];
            let mut req = comm.irecv(&mut buf, Source::Rank(0), Tag::Value(3)).unwrap();
            req.cancel();
            let st = req.wait().unwrap();
            assert!(st.cancelled, "unmatched receive must cancel");
            drop(req);
            comm.check_mailbox_invariants();
            // The sender's message (sent after our sync) queues for the
            // next receive instead of vanishing into the dead entry.
            comm.send(&[], 0, 99).unwrap();
            let st = comm.recv(&mut buf, Source::Rank(0), Tag::Value(3)).unwrap();
            assert_eq!((st.bytes, &buf), (64, &payload(9, 64)));
        } else {
            let mut sync = [0u8; 0];
            comm.recv(&mut sync, Source::Rank(1), Tag::Value(99)).unwrap();
            comm.send(&payload(9, 64), 1, 3).unwrap();
        }
    });
}

// --- completion sets ----------------------------------------------------

#[test]
fn waitany_returns_indices_in_matching_order() {
    run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 0 {
            for i in 0..3u8 {
                comm.send(&[i; 8], 1, i as i32).unwrap();
            }
        } else {
            let mut b0 = [0u8; 8];
            let mut b1 = [0u8; 8];
            let mut b2 = [0u8; 8];
            let mut seen = Vec::new();
            {
                // Post in tag order 2, 1, 0 — completion follows arrival.
                let mut reqs = vec![
                    comm.irecv(&mut b2, Source::Rank(0), Tag::Value(2)).unwrap(),
                    comm.irecv(&mut b1, Source::Rank(0), Tag::Value(1)).unwrap(),
                    comm.irecv(&mut b0, Source::Rank(0), Tag::Value(0)).unwrap(),
                ];
                while let Some((idx, st)) = Request::wait_any(&mut reqs).unwrap() {
                    seen.push((idx, st.tag));
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![(0, 2), (1, 1), (2, 0)]);
            assert_eq!(b0, [0u8; 8]);
            assert_eq!(b1, [1u8; 8]);
            assert_eq!(b2, [2u8; 8]);
        }
    });
}

#[test]
fn waitsome_and_testall_cover_mixed_sets() {
    run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 0 {
            let data = payload(7, 64);
            let mut reqs = vec![comm.isend(&data, 1, 3).unwrap()];
            // Testall until the send drains.
            loop {
                match Request::test_all(&mut reqs).unwrap() {
                    Some(sts) => {
                        assert_eq!(sts.len(), 1);
                        break;
                    }
                    None => std::thread::yield_now(),
                }
            }
        } else {
            let mut buf = vec![0u8; 64];
            {
                let mut reqs = vec![comm.irecv(&mut buf, Source::Any, Tag::Any).unwrap()];
                let done = Request::wait_some(&mut reqs).unwrap();
                assert_eq!(done.len(), 1);
                assert_eq!(done[0].0, 0);
                assert_eq!(done[0].1.bytes, 64);
                // The set is now all-null: wait_some reports MPI_UNDEFINED.
                assert!(Request::wait_some(&mut reqs).unwrap().is_empty());
                assert!(matches!(Request::test_any(&mut reqs).unwrap(), TestAny::NoneActive));
            }
            assert_eq!(buf, payload(7, 64));
        }
    });
}

// --- persistent requests ------------------------------------------------

#[test]
fn persistent_requests_cycle_through_start() {
    // Uses the raw (embedder) API: rewriting the buffer between Start
    // cycles is the whole point of persistent requests, which the safe
    // borrow-based API intentionally forbids.
    run_world_with(2, ClockMode::Real, |comm| {
        const ROUNDS: usize = 5;
        if comm.rank() == 0 {
            let mut buf = vec![0u8; 128];
            let mut req =
                unsafe { comm.send_init_raw(buf.as_ptr(), 128, 1, 9) }.unwrap();
            assert!(req.is_persistent());
            for round in 0..ROUNDS {
                buf.copy_from_slice(&payload(round, 128));
                req.start().unwrap();
                req.wait().unwrap();
            }
        } else {
            let mut buf = vec![0u8; 128];
            let mut req = unsafe {
                comm.recv_init_raw(buf.as_mut_ptr(), 128, Source::Rank(0), Tag::Value(9))
            }
            .unwrap();
            for round in 0..ROUNDS {
                req.start().unwrap();
                let st = req.wait().unwrap();
                assert_eq!(st.bytes, 128);
                assert_eq!(buf, payload(round, 128), "round {round}");
            }
        }
    });
}

#[test]
fn wait_on_inactive_persistent_returns_empty_status() {
    run_world_with(1, ClockMode::Real, |comm| {
        let buf = [0u8; 4];
        let mut req = comm.send_init(&buf, 0, 0).unwrap();
        let st = req.wait().unwrap();
        assert_eq!(st, Status::empty());
        // Double Start without completion is an error.
        req.start().unwrap();
        assert!(req.start().is_err());
        let mut slice = [req];
        Request::wait_all(&mut slice).unwrap();
    });
}

// --- nonblocking collectives --------------------------------------------

#[test]
fn ibarrier_completes_at_various_sizes() {
    for p in [1u32, 2, 3, 4, 7] {
        run_world_with(p, ClockMode::Real, |comm| {
            let mut req = comm.ibarrier().unwrap();
            req.wait().unwrap();
        });
    }
}

#[test]
fn ibcast_matches_blocking_bcast() {
    for p in [1u32, 2, 3, 5, 8] {
        for root in [0, p - 1] {
            run_world_with(p, ClockMode::Real, move |comm| {
                let mut buf = if comm.rank() == root {
                    payload(42, 1000)
                } else {
                    vec![0u8; 1000]
                };
                {
                    let mut req = comm.ibcast(&mut buf, root).unwrap();
                    req.wait().unwrap();
                }
                assert_eq!(buf, payload(42, 1000), "rank {}", comm.rank());
            });
        }
    }
}

#[test]
fn iallreduce_matches_blocking_oracle() {
    for p in [1u32, 2, 3, 5, 6, 8] {
        for mode in [ClockMode::Real, virtual_mode()] {
            let out = run_world_with(p, mode, |comm| {
                let mine: Vec<u8> = (0..4)
                    .flat_map(|k| ((comm.rank() as f64 + 1.0) * (k as f64 + 0.5)).to_le_bytes())
                    .collect();
                // Oracle: blocking allreduce.
                let mut expect = vec![0u8; 32];
                comm.allreduce(&mine, &mut expect, Datatype::Double, ReduceOp::Sum).unwrap();
                // Subject: nonblocking.
                let mut got = vec![0u8; 32];
                {
                    let mut req = comm
                        .iallreduce(&mine, &mut got, Datatype::Double, ReduceOp::Sum)
                        .unwrap();
                    req.wait().unwrap();
                }
                (got, expect)
            });
            for (rank, (got, expect)) in out.iter().enumerate() {
                assert_eq!(got, expect, "rank {rank} p {p}");
            }
        }
    }
}

#[test]
fn iallreduce_overlaps_with_virtual_compute() {
    // Charging local compute between initiation and completion must not
    // add to the communication time: the wire delay and the compute
    // overlap via max().
    let times = run_world_with(4, virtual_mode(), |comm| {
        let v = [1u8; 4096];
        let mut r = [0u8; 4096];
        let t0 = comm.virtual_time_us();
        let mut req = comm.iallreduce(&v, &mut r, Datatype::Byte, ReduceOp::Max).unwrap();
        comm.charge_overhead_us(2.0); // overlapped compute
        req.wait().unwrap();
        comm.virtual_time_us() - t0
    });
    let blocking = run_world_with(4, virtual_mode(), |comm| {
        let v = [1u8; 4096];
        let mut r = [0u8; 4096];
        let t0 = comm.virtual_time_us();
        comm.allreduce(&v, &mut r, Datatype::Byte, ReduceOp::Max).unwrap();
        comm.charge_overhead_us(2.0); // serialized compute
        comm.virtual_time_us() - t0
    });
    let t_nb = times.into_iter().fold(0.0f64, f64::max);
    let t_b = blocking.into_iter().fold(0.0f64, f64::max);
    assert!(
        t_nb <= t_b + 1e-9,
        "overlap must not be slower than serialize: {t_nb} vs {t_b}"
    );
}

/// Wildcard receives must never match internal collective traffic: a
/// `(ANY_SOURCE, ANY_TAG)` receive progressed concurrently with an
/// `Ibarrier` has to skip the barrier tokens and take the app message.
#[test]
fn wildcard_receive_skips_collective_traffic() {
    let out = run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 0 {
            let mut app = [0u8; 8];
            let mut reqs = vec![
                comm.irecv(&mut app, Source::Any, Tag::Any).unwrap(),
                comm.ibarrier().unwrap(),
            ];
            // wait_any progresses in index order: the wildcard receive is
            // polled first, with the peer's barrier token likely queued.
            while Request::wait_any(&mut reqs).unwrap().is_some() {}
            drop(reqs);
            u64::from_le_bytes(app)
        } else {
            let mut req = comm.ibarrier().unwrap();
            req.wait().unwrap();
            comm.send(&0xDEAD_BEEFu64.to_le_bytes(), 0, 3).unwrap();
            0
        }
    });
    assert_eq!(out[0], 0xDEAD_BEEF);
}

/// Two outstanding nonblocking collectives of the same type on one
/// communicator must not cross-match each other's round messages, even
/// when the second is completed first.
#[test]
fn outstanding_iallreduces_do_not_cross_match() {
    for p in [2u32, 3, 4, 5] {
        let out = run_world_with(p, ClockMode::Real, |comm| {
            let a_in = (comm.rank() as i32 + 1).to_le_bytes();
            let b_in = ((comm.rank() as i32 + 1) * 100).to_le_bytes();
            let mut a_out = [0u8; 4];
            let mut b_out = [0u8; 4];
            let mut req_a =
                comm.iallreduce(&a_in, &mut a_out, Datatype::Int, ReduceOp::Sum).unwrap();
            // Progress A so its first-round messages are actually in
            // flight while B runs.
            let _ = req_a.test().unwrap();
            let mut req_b =
                comm.iallreduce(&b_in, &mut b_out, Datatype::Int, ReduceOp::Sum).unwrap();
            // Complete B first: its rounds must skip A's queued messages.
            req_b.wait().unwrap();
            req_a.wait().unwrap();
            drop((req_a, req_b));
            (i32::from_le_bytes(a_out), i32::from_le_bytes(b_out))
        });
        let expect: i32 = (1..=p as i32).sum();
        for (rank, &(a, b)) in out.iter().enumerate() {
            assert_eq!(a, expect, "collective A at rank {rank} p {p}");
            assert_eq!(b, expect * 100, "collective B at rank {rank} p {p}");
        }
    }
}

/// Dropping an unfinished nonblocking collective must cancel its queued
/// rendezvous announcements (the payload pointers target buffers the
/// request borrowed), leaving no dangling RTS for a peer to read and no
/// hang.
#[test]
fn dropping_unfinished_collective_is_safe() {
    let out = run_world_with(2, ClockMode::Real, |comm| {
        let send = payload(3, 128 << 10); // above every rendezvous threshold
        let mut recv = vec![0u8; 128 << 10];
        let mut req =
            comm.iallreduce(&send, &mut recv, Datatype::Byte, ReduceOp::Max).unwrap();
        // One progress step posts the first round's rendezvous RTS (the
        // payload pointer targets `send`, borrowed by the request). It may
        // legitimately error if it consumes the RTS of a peer that has
        // already cancelled (dropped) its own collective.
        let _ = req.test();
        // The drop must fail our announcement so a peer that matches it
        // errors out instead of reading freed state or hanging.
        drop(req);
        comm.rank()
    });
    assert_eq!(out, vec![0, 1]);
}

// --- the differential property test -------------------------------------

/// How the sender issues message `i`.
#[derive(Debug, Clone, Copy)]
enum SendMode {
    Blocking,
    Isend,
    Persistent,
}

/// How the receiver takes message `i`.
#[derive(Debug, Clone, Copy)]
enum RecvMode {
    Blocking,
    Irecv,
    Persistent,
    /// Blocking `Probe` (racing a wildcard `Iprobe`) then blocking recv.
    ProbeRecv,
    /// Spin on `Iprobe` until the message is visible, then blocking recv.
    IprobeRecv,
    /// Spin on `Improbe` until extracted, then `Mrecv`.
    ImprobeMrecv,
}

#[derive(Debug, Clone)]
struct Script {
    /// Per message: (large?, tag 0..3, send mode, recv mode, test-poll?).
    msgs: Vec<(bool, i32, SendMode, RecvMode, bool)>,
}

fn script_strategy() -> BoxedStrategy<Script> {
    proptest::collection::vec(
        (any::<bool>(), 0i32..3, 0u8..3, 0u8..6, any::<bool>()),
        1..6,
    )
    .prop_map(|raw| Script {
        msgs: raw
            .into_iter()
            .map(|(large, tag, s, r, t)| {
                let sm = match s {
                    0 => SendMode::Blocking,
                    1 => SendMode::Isend,
                    _ => SendMode::Persistent,
                };
                let rm = match r {
                    0 => RecvMode::Blocking,
                    1 => RecvMode::Irecv,
                    2 => RecvMode::Persistent,
                    3 => RecvMode::ProbeRecv,
                    4 => RecvMode::IprobeRecv,
                    _ => RecvMode::ImprobeMrecv,
                };
                (large, tag, sm, rm, t)
            })
            .collect(),
    })
}

/// 96 KiB clears the real-mode default (64 KiB) and the container
/// profile's virtual threshold (32 KiB); 1 KiB stays eager everywhere.
fn msg_len(large: bool) -> usize {
    if large {
        96 << 10
    } else {
        1 << 10
    }
}

/// Oracle: plain blocking send/recv in posting order.
fn run_blocking(script: &Script, mode: ClockMode) -> Vec<(Vec<u8>, Status)> {
    let script = script.clone();
    let mut out = run_world_with(2, mode, move |comm| {
        if comm.rank() == 0 {
            for (i, &(large, tag, _, _, _)) in script.msgs.iter().enumerate() {
                comm.send(&payload(i, msg_len(large)), 1, tag).unwrap();
            }
            Vec::new()
        } else {
            script
                .msgs
                .iter()
                .enumerate()
                .map(|(_, &(large, tag, _, _, _))| {
                    let mut buf = vec![0u8; msg_len(large)];
                    let st =
                        comm.recv(&mut buf, Source::Rank(0), Tag::Value(tag)).unwrap();
                    (buf, st)
                })
                .collect()
        }
    });
    out.pop().unwrap()
}

/// Subject: the scripted mix of nonblocking / persistent operations.
/// Receives are posted in message order and completed via `wait_any`,
/// which progresses in index order — so same-tag streams match FIFO.
fn run_scripted(script: &Script, mode: ClockMode) -> Vec<(Vec<u8>, Status)> {
    let script = script.clone();
    let mut out = run_world_with(2, mode, move |comm| {
        if comm.rank() == 0 {
            sender_side(&comm, &script);
            Vec::new()
        } else {
            receiver_side(&comm, &script)
        }
    });
    out.pop().unwrap()
}

fn sender_side(comm: &Comm, script: &Script) {
    let bufs: Vec<Vec<u8>> = script
        .msgs
        .iter()
        .enumerate()
        .map(|(i, &(large, ..))| payload(i, msg_len(large)))
        .collect();
    let mut pending: Vec<Request> = Vec::new();
    for (i, &(_, tag, mode, _, poll)) in script.msgs.iter().enumerate() {
        match mode {
            SendMode::Blocking => {
                // A blocking send may rendezvous; the receiver drains in
                // posted order, so it cannot deadlock behind our own
                // earlier nonblocking sends.
                comm.send(&bufs[i], 1, tag).unwrap();
            }
            SendMode::Isend => {
                let mut req = comm.isend(&bufs[i], 1, tag).unwrap();
                if poll {
                    let _ = req.test().unwrap(); // may or may not finish
                }
                if !req.is_null() {
                    pending.push(req);
                } else {
                    drop(req);
                }
            }
            SendMode::Persistent => {
                let mut req = comm.send_init(&bufs[i], 1, tag).unwrap();
                req.start().unwrap();
                pending.push(req);
            }
        }
    }
    Request::wait_all(&mut pending).unwrap();
}

fn receiver_side(comm: &Comm, script: &Script) -> Vec<(Vec<u8>, Status)> {
    let n = script.msgs.len();
    let mut bufs: Vec<Vec<u8>> = script
        .msgs
        .iter()
        .map(|&(large, ..)| vec![0u8; msg_len(large)])
        .collect();
    let mut statuses: Vec<Option<Status>> = vec![None; n];
    {
        let mut reqs: Vec<(usize, i32, Request)> = Vec::new();
        // Split buffers so each request borrows its own element.
        let mut rest: &mut [Vec<u8>] = &mut bufs;
        for (i, &(_, tag, _, mode, poll)) in script.msgs.iter().enumerate() {
            let (buf, tail) = rest.split_first_mut().unwrap();
            rest = tail;
            // The engine's contract: receives with the same matcher must
            // be progressed in posting order (progress-at-completion
            // matching; see crate::request docs). Testing a *new* request
            // while an older same-tag request is unprogressed would
            // legally steal the older message.
            let same_tag_pending = reqs.iter().any(|&(_, t, _)| t == tag);
            match mode {
                RecvMode::Blocking => {
                    // Complete everything posted so far first: a blocking
                    // recv on the same tag would otherwise race the
                    // posted irecvs.
                    for (j, _, req) in reqs.iter_mut() {
                        statuses[*j] = Some(req.wait().unwrap());
                    }
                    reqs.clear();
                    statuses[i] =
                        Some(comm.recv(buf, Source::Rank(0), Tag::Value(tag)).unwrap());
                }
                RecvMode::ProbeRecv | RecvMode::IprobeRecv | RecvMode::ImprobeMrecv => {
                    // Probe modes also drain posted requests first: with
                    // every earlier message consumed, the per-sender FIFO
                    // makes message `i` the earliest queue-visible one,
                    // so wildcard and specific probes must agree on it.
                    for (j, _, req) in reqs.iter_mut() {
                        statuses[*j] = Some(req.wait().unwrap());
                    }
                    reqs.clear();
                    let st = match mode {
                        RecvMode::ProbeRecv => {
                            // An ANY_SOURCE/ANY_TAG blocking probe races
                            // the specific path: both must describe the
                            // same (earliest) message.
                            let wild = comm.probe(Source::Any, Tag::Any).unwrap();
                            let specific =
                                comm.probe(Source::Rank(0), Tag::Value(tag)).unwrap();
                            assert_eq!(wild, specific, "probe disagreement at {i}");
                            let st =
                                comm.recv(buf, Source::Rank(0), Tag::Value(tag)).unwrap();
                            assert_eq!(specific, st, "probe vs recv status at {i}");
                            st
                        }
                        RecvMode::IprobeRecv => {
                            let probed = loop {
                                if let Some(st) = comm
                                    .iprobe(Source::Rank(0), Tag::Value(tag))
                                    .unwrap()
                                {
                                    break st;
                                }
                                std::thread::yield_now();
                            };
                            let st =
                                comm.recv(buf, Source::Rank(0), Tag::Value(tag)).unwrap();
                            assert_eq!(probed, st, "iprobe vs recv status at {i}");
                            st
                        }
                        _ => {
                            let (msg, probed) = loop {
                                if let Some(hit) = comm
                                    .improbe(Source::Rank(0), Tag::Value(tag))
                                    .unwrap()
                                {
                                    break hit;
                                }
                                std::thread::yield_now();
                            };
                            let st = msg.recv(buf).unwrap();
                            assert_eq!(probed, st, "improbe vs mrecv status at {i}");
                            st
                        }
                    };
                    statuses[i] = Some(st);
                }
                RecvMode::Irecv => {
                    let mut req =
                        comm.irecv(buf, Source::Rank(0), Tag::Value(tag)).unwrap();
                    if poll && !same_tag_pending {
                        if let Some(st) = req.test().unwrap() {
                            statuses[i] = Some(st);
                        }
                    }
                    if statuses[i].is_none() {
                        reqs.push((i, tag, req));
                    }
                }
                RecvMode::Persistent => {
                    let mut req = comm
                        .recv_init(buf, Source::Rank(0), Tag::Value(tag))
                        .unwrap();
                    req.start().unwrap();
                    reqs.push((i, tag, req));
                }
            }
        }
        // Drain the remainder with wait_any (index order = posting order).
        let mut handles: Vec<Request> = Vec::new();
        let mut idx: Vec<usize> = Vec::new();
        for (j, _, req) in reqs {
            idx.push(j);
            handles.push(req);
        }
        while let Some((k, st)) = Request::wait_any(&mut handles).unwrap() {
            statuses[idx[k]] = Some(st);
        }
    }
    bufs.into_iter()
        .zip(statuses)
        .map(|(b, st)| (b, st.expect("all messages received")))
        .collect()
}

// --- synchronous-mode sends (ISSUE acceptance criterion) -----------------

/// Completion ordering of `MPI_Ssend` semantics, pinned differentially
/// against the two protocol regimes in both clock modes:
///
/// * a plain eager send of the same small payload completes *locally*,
///   with no receiver involvement;
/// * a synchronous-mode send of that payload must stay pending until the
///   receiver matches it — exactly the ordering a rendezvous-sized plain
///   send exhibits.
///
/// The receiver provably has not posted anything when the pending checks
/// run: it is blocked on a marker message the sender only emits afterwards.
#[test]
fn ssend_completion_orders_like_rendezvous_not_eager() {
    const SMALL: usize = 512; // far below every profile's threshold
    const BIG: usize = 256 << 10; // far above
    for mode in [ClockMode::Real, virtual_mode()] {
        let out = run_world_with(2, mode, |comm| {
            if comm.rank() == 0 {
                // Control 1: eager send completes with the receiver idle.
                let small = payload(0, SMALL);
                let mut eager = comm.isend(&small, 1, 1).unwrap();
                let mut spins = 0u64;
                while eager.test().unwrap().is_none() {
                    spins += 1;
                    assert!(spins < 10_000_000, "eager send never completed locally");
                }

                // Subject: sync-mode send of the same payload stays pending.
                let mut sync =
                    comm.issend_owned(payload(1, SMALL).into_boxed_slice(), 1, 2).unwrap();
                assert!(
                    sync.test().unwrap().is_none(),
                    "sync-mode send completed before the receiver matched"
                );

                // Control 2: rendezvous-sized plain send, same ordering.
                let big = payload(2, BIG);
                let mut rdv = comm.isend(&big, 1, 3).unwrap();
                assert!(
                    rdv.test().unwrap().is_none(),
                    "rendezvous send completed before the receiver matched"
                );

                // Only now release the receiver.
                comm.send(&payload(3, 8), 1, 4).unwrap();
                sync.wait().unwrap();
                rdv.wait().unwrap();

                // Blocking Ssend against an already-posted receive for
                // the return trip.
                comm.ssend(&payload(4, SMALL), 1, 5).unwrap();
                comm.protocol_stats()
            } else {
                let mut marker = [0u8; 8];
                comm.recv(&mut marker, Source::Rank(0), Tag::Value(4)).unwrap();
                let mut small = vec![0u8; SMALL];
                comm.recv(&mut small, Source::Rank(0), Tag::Value(1)).unwrap();
                assert_eq!(small, payload(0, SMALL));
                comm.recv(&mut small, Source::Rank(0), Tag::Value(2)).unwrap();
                assert_eq!(small, payload(1, SMALL), "sync-mode payload corrupted");
                let mut big = vec![0u8; BIG];
                comm.recv(&mut big, Source::Rank(0), Tag::Value(3)).unwrap();
                assert_eq!(big, payload(2, BIG));
                comm.recv(&mut small, Source::Rank(0), Tag::Value(5)).unwrap();
                assert_eq!(small, payload(4, SMALL));
                comm.protocol_stats()
            }
        });
        // The rendezvous control really took the rendezvous path.
        assert!(out[0].rendezvous_messages >= 1, "{:?}", out[0]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn nonblocking_matches_blocking_differentially(script in script_strategy()) {
        for mode in [ClockMode::Real, virtual_mode()] {
            let oracle = run_blocking(&script, mode.clone());
            let subject = run_scripted(&script, mode);
            prop_assert_eq!(oracle.len(), subject.len());
            for (i, ((od, os), (sd, ss))) in oracle.iter().zip(&subject).enumerate() {
                prop_assert_eq!(os, ss, "status mismatch at message {} ({:?})", i, script);
                prop_assert!(od == sd, "data mismatch at message {} ({:?})", i, script);
            }
        }
    }
}

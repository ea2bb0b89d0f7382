//! Flight-recorder integration tests at the substrate level: virtual-clock
//! monotonicity of emitted events, and a differential property showing the
//! recorder never perturbs results or simulated time.

use std::sync::Arc;

use mpi_substrate::{
    run_world_configured, run_world_with, ClockMode, Datatype, ReduceOp, Source, Tag,
    WorldConfig,
};
use netsim::{CostModel, SystemProfile};
use obs::{EventKind, Recorder, TraceClock};
use proptest::prelude::*;

fn virtual_mode() -> ClockMode {
    ClockMode::Virtual(CostModel::native(SystemProfile::container()))
}

/// A small mixed workload: p2p ring traffic, a collective, and a
/// nonblocking pair, parameterized by payload size so eager, deferred,
/// and rendezvous protocols are all reachable.
fn workload(comm: &mpi_substrate::Comm, bytes: usize) -> (Vec<u8>, f64) {
    let p = comm.size();
    let me = comm.rank();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;

    let out = vec![me as u8; bytes];
    let mut inbox = vec![0u8; bytes];
    let mut sreq = comm.isend(&out, right, 7).unwrap();
    comm.recv(&mut inbox, Source::Rank(left), Tag::Value(7)).unwrap();
    sreq.wait().unwrap();

    let mine = [me as i32; 4];
    let mut sum = [0i32; 4];
    comm.allreduce(
        bytemuck_cast(&mine),
        bytemuck_cast_mut(&mut sum),
        Datatype::Int,
        ReduceOp::Sum,
    )
    .unwrap();
    comm.barrier().unwrap();

    let mut fused = inbox;
    fused.extend_from_slice(bytemuck_cast(&sum));
    (fused, comm.virtual_time_us())
}

fn bytemuck_cast(v: &[i32]) -> &[u8] {
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, v.len() * 4) }
}

fn bytemuck_cast_mut(v: &mut [i32]) -> &mut [u8] {
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut u8, v.len() * 4) }
}

/// Satellite: under the virtual clock, every rank's emitted event stream
/// is monotone in trace time — the traces replay the simulated timeline,
/// not the host's.
#[test]
fn virtual_clock_events_are_monotone_per_rank() {
    let np = 4;
    let rec = Recorder::new(np, obs::DEFAULT_CAPACITY, TraceClock::Virtual);
    let config = WorldConfig::new(virtual_mode()).with_recorder(Arc::clone(&rec));
    run_world_configured(np as u32, config, |comm| {
        workload(&comm, 64 * 1024); // rendezvous-sized ring traffic
    });
    let mut saw_events = 0usize;
    for r in 0..np {
        let events = rec.rank_events(r);
        saw_events += events.len();
        let mut last = f64::NEG_INFINITY;
        for e in &events {
            assert!(
                e.ts_us >= last,
                "rank {r}: event at {} µs after one at {} µs ({:?})",
                e.ts_us,
                last,
                e.kind
            );
            last = e.ts_us;
        }
        assert_eq!(rec.dropped(r), 0, "rank {r} dropped events");
    }
    assert!(saw_events > 0, "the workload emitted no events");
}

/// The trace carries the expected shapes: sends matched to receives by
/// flow id, rendezvous protocol tags on large transfers, and collective
/// begin/end pairs sharing an id.
#[test]
fn trace_links_sends_to_recvs_and_brackets_collectives() {
    let np = 3;
    let rec = Recorder::new(np, obs::DEFAULT_CAPACITY, TraceClock::Virtual);
    let config = WorldConfig::new(virtual_mode()).with_recorder(Arc::clone(&rec));
    run_world_configured(np as u32, config, |comm| {
        workload(&comm, 256 * 1024);
    });
    let all: Vec<_> = (0..np).flat_map(|r| rec.rank_events(r)).collect();

    let send_flows: Vec<u64> = all
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SendStart { flow, .. } => Some(flow),
            _ => None,
        })
        .collect();
    let recv_flows: Vec<u64> = all
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RecvDone { flow, .. } => Some(flow),
            _ => None,
        })
        .collect();
    assert!(!send_flows.is_empty());
    for f in &recv_flows {
        assert!(*f != 0, "delivered message without a flow id");
        assert!(send_flows.contains(f), "recv flow {f} has no matching send");
    }

    let rendezvous = all.iter().any(|e| {
        matches!(
            e.kind,
            EventKind::SendStart { protocol: obs::Protocol::Rendezvous, .. }
        )
    });
    assert!(rendezvous, "256 KiB ring traffic should use rendezvous");

    let begins: Vec<(obs::CollKind, u64)> = all
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CollBegin { kind, id, .. } => Some((kind, id)),
            _ => None,
        })
        .collect();
    let ends: Vec<(obs::CollKind, u64)> = all
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CollEnd { kind, id } => Some((kind, id)),
            _ => None,
        })
        .collect();
    assert!(begins.iter().any(|(k, _)| *k == obs::CollKind::Allreduce));
    assert!(begins.iter().any(|(k, _)| *k == obs::CollKind::Barrier));
    for b in &begins {
        assert!(ends.contains(b), "collective {b:?} never ended");
    }
}

/// An owned payload above the eager threshold (a packed derived-type
/// `MPI_Send`, a large `MPI_Bsend`) is a rendezvous: the counter, the
/// sender's `SendStart` and the receiver's `RecvDone` all say so.
#[test]
fn an_owned_payload_above_the_threshold_is_a_rendezvous_in_stats_and_trace() {
    const BYTES: usize = 128 * 1024;
    let rec = Recorder::new(2, obs::DEFAULT_CAPACITY, TraceClock::Virtual);
    let config = WorldConfig::new(virtual_mode()).with_recorder(Arc::clone(&rec));
    let stats = run_world_configured(2, config, |comm| {
        if comm.rank() == 0 {
            let mut req = comm.isend_owned(vec![7u8; BYTES].into_boxed_slice(), 1, 3).unwrap();
            req.wait().unwrap();
        } else {
            let mut inbox = vec![0u8; BYTES];
            comm.recv(&mut inbox, Source::Rank(0), Tag::Value(3)).unwrap();
            assert!(inbox.iter().all(|b| *b == 7));
        }
        comm.barrier().unwrap();
        comm.protocol_stats()
    });
    assert_eq!(stats[0].rendezvous_messages, 1);
    assert_eq!(stats[0].rendezvous_bytes, BYTES as u64);
    assert_eq!(stats[0].deferred_eager_messages, 0);

    let sent: Vec<obs::Protocol> = rec
        .rank_events(0)
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SendStart { tag: 3, protocol, .. } => Some(protocol),
            _ => None,
        })
        .collect();
    let received: Vec<obs::Protocol> = rec
        .rank_events(1)
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RecvDone { tag: 3, protocol, .. } => Some(protocol),
            _ => None,
        })
        .collect();
    assert_eq!(sent, [obs::Protocol::Rendezvous]);
    assert_eq!(received, [obs::Protocol::Rendezvous]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Differential property: attaching the recorder (or detaching it, or
    /// attaching it disabled) never changes the bytes any rank computes or
    /// its final virtual-clock reading.
    #[test]
    fn tracing_does_not_perturb_results_or_virtual_time(
        np in 2u32..5,
        bytes in prop_oneof![Just(16usize), Just(4096), Just(96 * 1024)],
    ) {
        let plain = run_world_with(np, virtual_mode(), move |comm| workload(&comm, bytes));

        let rec = Recorder::new(np as usize, obs::DEFAULT_CAPACITY, TraceClock::Virtual);
        let config = WorldConfig::new(virtual_mode()).with_recorder(Arc::clone(&rec));
        let traced = run_world_configured(np, config, move |comm| workload(&comm, bytes));

        let rec_off = Recorder::new(np as usize, obs::DEFAULT_CAPACITY, TraceClock::Virtual);
        rec_off.set_enabled(false);
        let config = WorldConfig::new(virtual_mode()).with_recorder(Arc::clone(&rec_off));
        let disabled = run_world_configured(np, config, move |comm| workload(&comm, bytes));

        for r in 0..np as usize {
            prop_assert_eq!(&plain[r].0, &traced[r].0, "rank {} bytes (traced)", r);
            prop_assert_eq!(&plain[r].0, &disabled[r].0, "rank {} bytes (disabled)", r);
            prop_assert_eq!(plain[r].1, traced[r].1, "rank {} virtual time (traced)", r);
            prop_assert_eq!(plain[r].1, disabled[r].1, "rank {} virtual time (disabled)", r);
            prop_assert!(rec_off.rank_events(r).is_empty(),
                "disabled recorder logged events on rank {}", r);
        }
    }
}

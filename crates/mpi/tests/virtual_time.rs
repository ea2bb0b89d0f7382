//! Integration tests for LogP-style virtual time: executed collective
//! schedules must exhibit the scaling the closed-form models predict.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use mpi_substrate::{run_world_with, ClockMode, Comm, Datatype, ReduceOp, Request, Source, Tag};
use netsim::{CostModel, SystemProfile};

fn virtual_mode() -> ClockMode {
    ClockMode::Virtual(CostModel::native(SystemProfile::container()))
}

#[test]
fn pingpong_virtual_time_matches_wire_model() {
    let model = CostModel::native(SystemProfile::container());
    let times = run_world_with(2, virtual_mode(), move |comm| {
        let iters = 10;
        if comm.rank() == 0 {
            let buf = vec![0u8; 1024];
            let mut back = vec![0u8; 1024];
            for _ in 0..iters {
                comm.send(&buf, 1, 0).unwrap();
                comm.recv(&mut back, Source::Rank(1), Tag::Value(0)).unwrap();
            }
        } else {
            let mut buf = vec![0u8; 1024];
            for _ in 0..iters {
                comm.recv(&mut buf, Source::Rank(0), Tag::Value(0)).unwrap();
                comm.send(&buf, 0, 0).unwrap();
            }
        }
        comm.virtual_time_us()
    });
    // 20 one-way transfers of 1 KiB on the container profile.
    let wire = model.profile.p2p_time(0, 1, 1024).as_micros();
    let per_call = model.call_overhead_us;
    let expected = 20.0 * (wire + 2.0 * per_call);
    for t in times {
        assert!(
            (t - expected).abs() / expected < 0.25,
            "virtual time {t} vs expected {expected}"
        );
    }
}

#[test]
fn allreduce_virtual_time_grows_logarithmically() {
    let mut times = Vec::new();
    for p in [2u32, 4, 8, 16] {
        let out = run_world_with(p, virtual_mode(), |comm| {
            let v = 1.0f64.to_le_bytes();
            let mut r = [0u8; 8];
            comm.allreduce(&v, &mut r, Datatype::Double, ReduceOp::Sum).unwrap();
            comm.virtual_time_us()
        });
        let max = out.into_iter().fold(0.0f64, f64::max);
        times.push(max);
    }
    // Doubling p adds ~one recursive-doubling round: roughly constant
    // increments, nowhere near linear growth.
    let d1 = times[1] - times[0];
    let d3 = times[3] - times[2];
    assert!(times.windows(2).all(|w| w[1] > w[0]), "{times:?}");
    assert!(d3 < d1 * 3.0 + 1.0, "increments should stay ~constant: {times:?}");
    // Linear growth would make times[3] ≈ 8× times[0].
    assert!(times[3] < times[0] * 5.0, "{times:?}");
}

#[test]
fn ring_allgather_virtual_time_grows_linearly() {
    let mut times = Vec::new();
    for p in [2u32, 4, 8] {
        let out = run_world_with(p, virtual_mode(), move |comm| {
            let mine = vec![0u8; 4096];
            let mut all = vec![0u8; 4096 * p as usize];
            comm.allgather(&mine, &mut all).unwrap();
            comm.virtual_time_us()
        });
        times.push(out.into_iter().fold(0.0f64, f64::max));
    }
    // p-1 rounds: 8 ranks ≈ 7 rounds vs 1 round at p=2.
    let ratio = times[2] / times[0];
    assert!(ratio > 3.0, "ring should scale ~linearly: {times:?}");
}

#[test]
fn wasm_overhead_increases_virtual_time_but_shrinks_with_message_size() {
    let profile = SystemProfile::container();
    let run = |overhead_us: f64, bytes: usize| -> f64 {
        let mode = ClockMode::Virtual(CostModel::wasm(profile.clone(), overhead_us));
        let times = run_world_with(2, mode, move |comm| {
            if comm.rank() == 0 {
                let buf = vec![0u8; bytes];
                let mut back = vec![0u8; bytes];
                for _ in 0..5 {
                    comm.send(&buf, 1, 0).unwrap();
                    comm.recv(&mut back, Source::Rank(1), Tag::Value(0)).unwrap();
                }
            } else {
                let mut buf = vec![0u8; bytes];
                for _ in 0..5 {
                    comm.recv(&mut buf, Source::Rank(0), Tag::Value(0)).unwrap();
                    comm.send(&buf, 0, 0).unwrap();
                }
            }
            comm.virtual_time_us()
        });
        times.into_iter().fold(0.0f64, f64::max)
    };
    for bytes in [8usize, 1 << 20] {
        let native = run(0.0, bytes);
        let wasm = run(0.15, bytes);
        assert!(wasm > native, "wasm path must be slower at {bytes} bytes");
    }
    let small_slowdown = run(0.15, 8) / run(0.0, 8);
    let big_slowdown = run(0.15, 1 << 20) / run(0.0, 1 << 20);
    assert!(
        small_slowdown > big_slowdown,
        "relative overhead must shrink with message size: {small_slowdown} vs {big_slowdown}"
    );
}

#[test]
fn charge_overhead_is_ignored_in_real_mode() {
    let out = run_world_with(1, ClockMode::Real, |comm| {
        comm.charge_overhead_us(1e9);
        comm.virtual_time_us()
    });
    assert_eq!(out, vec![0.0]);
}

/// The `t`-th ordering of four ranks (`t` in 0..24): `order[rank]` is the
/// rank's turn.
fn turn_order(mut t: usize) -> [u32; 4] {
    let mut free = vec![0u32, 1, 2, 3];
    let mut order = [0; 4];
    for (rank, slot) in order.iter_mut().enumerate() {
        let choices = 4 - rank;
        *slot = free.remove(t % choices);
        t /= choices;
    }
    order
}

/// Simulated time must not depend on host thread timing: a collective
/// delivers its blocks in schedule order, not arrival order (`advance_to`
/// then `charge` does not commute). Four ranks enter at different virtual
/// times and take turns — in each of the 24 possible orders — to start
/// the collective and poll it once, so every arrival order a host
/// scheduler could produce is forced; all must end at the same clocks.
#[test]
fn collective_virtual_time_is_independent_of_arrival_order() {
    type Start = for<'a> fn(&Comm, &'a [u8], &'a mut [u8]) -> Request<'a>;
    let collectives: [(&str, Start); 3] = [
        ("ialltoall", |comm, send, recv| comm.ialltoall(send, recv).unwrap()),
        ("ialltoallv", |comm, send, recv| {
            let (counts, displs) = ([64usize; 4], [0usize, 64, 128, 192]);
            comm.ialltoallv(send, &counts, &displs, recv, &counts, &displs).unwrap()
        }),
        ("igather", |comm, send, recv| {
            comm.igather(&send[..64], (comm.rank() == 1).then_some(recv), 1).unwrap()
        }),
    ];
    for (name, start) in collectives {
        let mut outcomes = HashSet::new();
        for t in 0..24 {
            let order = turn_order(t);
            let turn = Arc::new(AtomicU32::new(0));
            let times = run_world_with(4, virtual_mode(), move |comm| {
                let me = comm.rank();
                comm.charge_overhead_us(0.1 + 0.37 * me as f64);
                let send = vec![me as u8; 256];
                let mut recv = vec![0u8; 256];
                while turn.load(Ordering::SeqCst) != order[me as usize] {
                    std::thread::yield_now();
                }
                let mut req = start(&comm, &send, &mut recv);
                let _ = req.test().unwrap();
                turn.fetch_add(1, Ordering::SeqCst);
                req.wait().unwrap();
                comm.virtual_time_us().to_bits()
            });
            outcomes.insert(times);
        }
        assert_eq!(outcomes.len(), 1, "{name}: completion times depend on arrival order");
    }
}

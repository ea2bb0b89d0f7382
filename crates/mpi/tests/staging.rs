//! The reducing and gathering nonblocking schedules stage nothing: they
//! send out of, and reduce into, the buffers the caller pinned. And an
//! 8-byte call allocates nothing at all: a point-to-point hop or a small
//! collective at p = 2, in steady state. Gated on counts, not a clock: a
//! counting allocator tallies, per rank thread, every allocation and the
//! bytes of every payload-class one (≥ 64 KiB).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpi_substrate::{
    run_world, run_world_configured, AllreduceAlgo, ClockMode, CollTuning, Comm, Datatype,
    ReduceOp, Source, Tag, WorldConfig,
};

const PAYLOAD_CLASS: usize = 64 << 10;

thread_local! {
    /// Payload-class bytes this thread has allocated so far.
    static STAGED: Cell<u64> = const { Cell::new(0) };
    /// Allocations this thread has made so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    if bytes >= PAYLOAD_CLASS {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = STAGED.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const LEN: usize = 1 << 20;
const CALLS: u64 = 10;

/// Rank `rank`'s contribution: `LEN / 8` doubles, exact under any
/// summation order.
fn contribution(rank: u32) -> impl Iterator<Item = u8> {
    (0..LEN / 8).flat_map(move |i| ((i % 1000) as f64 + rank as f64).to_le_bytes())
}

/// The elementwise sum of every rank's [`contribution`].
fn sum_of_contributions(p: u32) -> impl Iterator<Item = u8> {
    let ranks: f64 = (0..p).map(f64::from).sum();
    (0..LEN / 8).flat_map(move |i| ((i % 1000) as f64 * p as f64 + ranks).to_le_bytes())
}

/// On every rank of a real-clock world of `p`, run `call` once to warm
/// up, then `CALLS` more times; returns the payload-class bytes each
/// rank allocated per counted call. `call` gets the rank's pinned send
/// buffer, which must come back bit-unchanged, and a receive buffer of
/// `recv_len` bytes.
fn staged_per_call(
    p: u32,
    recv_len: usize,
    call: impl Fn(&Comm, &[u8], &mut [u8]) + Send + Sync + 'static,
) -> Vec<u64> {
    staged_per_call_tuned(CollTuning::new(), p, recv_len, call)
}

/// [`staged_per_call`] under a forced schedule selection.
fn staged_per_call_tuned(
    tuning: CollTuning,
    p: u32,
    recv_len: usize,
    call: impl Fn(&Comm, &[u8], &mut [u8]) + Send + Sync + 'static,
) -> Vec<u64> {
    let config = WorldConfig::new(ClockMode::Real).with_coll_tuning(tuning);
    run_world_configured(p, config, move |comm| {
        let send: Vec<u8> = contribution(comm.rank()).collect();
        let mut recv = vec![0u8; recv_len];
        call(&comm, &send, &mut recv);
        comm.barrier().unwrap();
        let before = STAGED.with(Cell::get);
        for _ in 0..CALLS {
            call(&comm, &send, &mut recv);
        }
        let staged = STAGED.with(Cell::get) - before;
        assert!(
            contribution(comm.rank()).eq(send),
            "rank {} of {p}: send buffer modified",
            comm.rank()
        );
        assert_eq!(staged % CALLS, 0, "rank {} of {p}: calls differ", comm.rank());
        staged / CALLS
    })
}

#[test]
fn iallreduce_stages_nothing_on_two_ranks_and_one_scratch_beyond() {
    for p in [2u32, 3, 4, 5, 8] {
        let staged = staged_per_call(p, LEN, move |comm, send, recv| {
            comm.iallreduce(send, &mut *recv, Datatype::Double, ReduceOp::Sum).unwrap().wait().unwrap();
            assert!(
                sum_of_contributions(p).eq(recv.iter().copied()),
                "rank {} of {p}",
                comm.rank()
            );
        });
        let rem = p - (1 << p.ilog2());
        for (rank, &bytes) in staged.iter().enumerate() {
            let fold_sender = (rank as u32) < 2 * rem && rank % 2 == 0;
            if p == 2 || fold_sender {
                assert_eq!(bytes, 0, "rank {rank} of {p}");
            } else {
                assert!(bytes <= LEN as u64, "rank {rank} of {p}: {bytes} bytes per call");
            }
        }
    }
}

/// The blocking call is the same request, and Rabenseifner's reduce-scatter
/// and allgather run inside the receive buffer: no rank stages anything.
#[test]
fn blocking_rabenseifner_allreduce_stages_nothing() {
    let tuning = CollTuning::new().force_allreduce(AllreduceAlgo::Rabenseifner);
    for p in [2u32, 3, 4, 5, 8] {
        let staged = staged_per_call_tuned(tuning.clone(), p, LEN, move |comm, send, recv| {
            comm.allreduce(send, recv, Datatype::Double, ReduceOp::Sum).unwrap();
            assert!(
                sum_of_contributions(p).eq(recv.iter().copied()),
                "rank {} of {p}",
                comm.rank()
            );
        });
        assert_eq!(staged, vec![0; p as usize], "p {p}");
    }
}

#[test]
fn ireduce_stages_nothing_on_root_and_leaves() {
    for p in [2u32, 3, 4, 5, 8] {
        let staged = staged_per_call(p, LEN, move |comm, send, recv| {
            let root = comm.rank() == 0;
            comm.ireduce(send, root.then_some(&mut *recv), Datatype::Double, ReduceOp::Sum, 0)
                .unwrap()
                .wait()
                .unwrap();
            assert!(!root || sum_of_contributions(p).eq(recv.iter().copied()), "p {p}");
        });
        for (rank, &bytes) in staged.iter().enumerate() {
            // Odd ranks of the binomial tree rooted at 0 have no child.
            if rank == 0 || rank % 2 == 1 {
                assert_eq!(bytes, 0, "rank {rank} of {p}");
            } else {
                assert!(bytes <= LEN as u64, "rank {rank} of {p}: {bytes} bytes per call");
            }
        }
    }
}

#[test]
fn iallgather_stages_nothing() {
    // 128 KiB blocks: rendezvous-sized, and payload-class themselves.
    let n = 128 << 10;
    for p in [2u32, 3, 4, 5, 8] {
        let staged = staged_per_call(p, n * p as usize, move |comm, send, recv| {
            comm.iallgather(&send[..n], &mut *recv).unwrap().wait().unwrap();
            for (r, block) in recv.chunks_exact(n).enumerate() {
                let theirs = contribution(r as u32).take(n);
                assert!(theirs.eq(block.iter().copied()), "block {r} at rank {}", comm.rank());
            }
        });
        assert_eq!(staged, vec![0; p as usize], "p {p}");
    }
}

/// On both ranks of a real-clock world of 2, run `call` 1 000 times to
/// reach steady state, then 5 000 more; returns each rank thread's
/// allocations per counted call.
fn allocs_per_call(call: impl Fn(&Comm) + Send + Sync + 'static) -> Vec<f64> {
    const WARM: u32 = 1_000;
    const COUNTED: u32 = 5_000;
    run_world(2, move |comm| {
        for _ in 0..WARM {
            call(&comm);
        }
        let before = ALLOCS.with(Cell::get);
        for _ in 0..COUNTED {
            call(&comm);
        }
        (ALLOCS.with(Cell::get) - before) as f64 / COUNTED as f64
    })
}

/// The 8-byte payload travels inside its message, a receive whose message
/// is queued builds no entry and one that waits reuses its thread's last,
/// and a collective runs in its thread's last finished executor, vectors
/// and all. What remains is a mailbox queue growing to a depth it has not
/// reached before, a few times per run.
#[test]
fn an_eight_byte_call_allocates_nothing() {
    let word = 7.5f64.to_le_bytes();
    type Call = Box<dyn Fn(&Comm) + Send + Sync>;
    let calls: [(&str, Call); 4] = [
        (
            "send / recv",
            Box::new(move |comm| {
                let (peer, mut got) = (1 - comm.rank(), [0u8; 8]);
                let from = (Source::Rank(peer), Tag::Value(0));
                if comm.rank() == 0 {
                    comm.send(&word, peer, 0).unwrap();
                    comm.recv(&mut got, from.0, from.1).unwrap();
                } else {
                    comm.recv(&mut got, from.0, from.1).unwrap();
                    comm.send(&word, peer, 0).unwrap();
                }
                assert_eq!(got, word);
            }),
        ),
        (
            "allreduce",
            Box::new(move |comm| {
                let mut sum = [0u8; 8];
                comm.allreduce(&word, &mut sum, Datatype::Double, ReduceOp::Sum).unwrap();
                assert_eq!(sum, 15.0f64.to_le_bytes());
            }),
        ),
        (
            "alltoall",
            Box::new(move |comm| {
                let mut got = [0u8; 16];
                comm.alltoall(&[comm.rank() as u8; 16], &mut got).unwrap();
                assert_eq!((&got[..8], &got[8..]), (&[0; 8][..], &[1; 8][..]));
            }),
        ),
        (
            "bcast",
            Box::new(move |comm| {
                let mut buf = if comm.rank() == 0 { word } else { [0u8; 8] };
                comm.bcast(&mut buf, 0).unwrap();
                assert_eq!(buf, word);
            }),
        ),
    ];
    for (name, call) in calls {
        let per_call = allocs_per_call(call);
        for (rank, &allocs) in per_call.iter().enumerate() {
            assert!(allocs < 0.01, "{name}: rank {rank} makes {allocs:.4} allocations per call");
        }
    }
}

//! `MPI_THREAD_MULTIPLE` stress tests: several threads of one rank hammer
//! the shared mailbox and one lock-protected request table ([`Table`], what
//! a multi-threaded embedder keeps) while an invariant checker audits the
//! mailbox queues concurrently.
//!
//! The runs are driven by a **fixed seed** (`SEED`), so CI executes the
//! same operation mix every time; thread interleavings still vary, which
//! is the point — the assertions (per-tag FIFO, queue invariants,
//! cancellation outcomes) must hold under *every* interleaving.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use mpi_substrate::{
    run_world_configured, run_world_with, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo,
    BcastAlgo, ClockMode, CollTuning, Comm, Datatype, RecvBuf, ReduceOp, Request, Source, Status,
    Tag, WorldConfig,
};
use proptest::TestRng;

/// Fixed CI seed: change deliberately, never randomly.
const SEED: u64 = 0x00C0_FFEE_5EED_2024;

/// Messages routed to the posting thread (consumed via table `Irecv`s).
const TAG_POST: i32 = 11;
/// Messages routed to the probing thread (consumed via probe + `Mrecv`).
const TAG_PROBE: i32 = 22;
/// A tag the sender never uses: receives posted on it always cancel.
const TAG_NEVER: i32 = 33;

const MESSAGES_PER_TAG: usize = 48;

/// A rank's requests shared by its threads: handle = index + 1, every
/// access under one lock, so no request is progressed by two threads at
/// once. Freed interior slots are not reused; the freed tail is popped.
#[derive(Default)]
struct Table(Mutex<Vec<Option<Request<'static>>>>);

impl Table {
    fn insert(&self, req: Request<'static>) -> usize {
        let mut slots = self.0.lock().unwrap();
        slots.push(Some(req));
        slots.len()
    }

    /// Run `f` on a live request under the lock.
    fn with<R>(&self, h: usize, f: impl FnOnce(&mut Request<'static>) -> R) -> Option<R> {
        self.0.lock().unwrap().get_mut(h - 1)?.as_mut().map(f)
    }

    fn remove(&self, h: usize) -> Option<Request<'static>> {
        let mut slots = self.0.lock().unwrap();
        let req = slots.get_mut(h - 1)?.take();
        while slots.last().is_some_and(Option::is_none) {
            slots.pop();
        }
        req
    }

    /// One progress step on every live request; outcomes latch until the
    /// request's owner takes them.
    fn progress_all(&self) {
        self.0.lock().unwrap().iter_mut().flatten().for_each(|r| r.progress());
    }

    fn live(&self) -> usize {
        self.0.lock().unwrap().iter().flatten().count()
    }
}

/// Deterministic payload for message `i` of `len` bytes (distinct from
/// the progress-test generator so cross-test copy/paste bugs surface).
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (i * 37 + j * 11 + 5) as u8).collect()
}

/// Seeded message sizes: mostly eager, every fifth rendezvous-sized so
/// the probing thread also extracts and answers RTS handshakes.
fn sizes(stream: &str) -> Vec<usize> {
    let mut rng = TestRng::from_seed(SEED ^ TestRng::deterministic(stream).next_u64());
    (0..MESSAGES_PER_TAG)
        .map(|i| {
            if i % 5 == 4 {
                (96 << 10) + rng.below(1024) as usize
            } else {
                1 + rng.below(2048) as usize
            }
        })
        .collect()
}

/// The tentpole stress shape: one rank runs four threads — a poster
/// (table-managed `Irecv`s + cancellations), a prober (`Iprobe`/
/// `Improbe`/`Mprobe` + `Mrecv`), a progressor (`progress_all` over the
/// shared table), and an invariant checker — against a remote sender
/// interleaving two tag streams with mixed eager/rendezvous sizes.
#[test]
fn concurrent_posters_probers_and_progressors_hold_invariants() {
    let post_sizes = sizes("post");
    let probe_sizes = sizes("probe");
    let (post_tx, probe_tx) = (post_sizes.clone(), probe_sizes.clone());

    run_world_with(2, ClockMode::Real, move |comm| {
        if comm.rank() == 0 {
            // Interleave the two streams deterministically (seeded), so
            // the two consumer threads contend on the same mailbox.
            let mut rng = TestRng::from_seed(SEED);
            let (mut p, mut q) = (0usize, 0usize);
            while p < post_tx.len() || q < probe_tx.len() {
                let take_post = q >= probe_tx.len()
                    || (p < post_tx.len() && rng.below(2) == 0);
                if take_post {
                    comm.send(&payload(p, post_tx[p]), 1, TAG_POST).unwrap();
                    p += 1;
                } else {
                    comm.send(&payload(q, probe_tx[q]), 1, TAG_PROBE).unwrap();
                    q += 1;
                }
            }
            return;
        }

        let table = Table::default();
        let stop = AtomicBool::new(false);
        let comm: &Comm = &comm;
        std::thread::scope(|s| {
            // --- invariant checker ---------------------------------------
            let checker = s.spawn(|| {
                let mut audits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    comm.check_mailbox_invariants();
                    audits += 1;
                    std::thread::yield_now();
                }
                audits
            });

            // --- progressor: drives the shared table ---------------------
            let progressor = s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    table.progress_all();
                    std::thread::yield_now();
                }
            });

            // --- poster: table-managed receives + cancellations ----------
            let poster = s.spawn(|| {
                let mut rng = TestRng::from_seed(SEED ^ 0xA5A5);
                for (i, &len) in post_sizes.iter().enumerate() {
                    let mut buf = vec![0u8; len];
                    let h = table.insert(
                        unsafe {
                            comm.irecv(
                                RecvBuf::pinned(buf.as_mut_ptr(), len),
                                Source::Rank(0),
                                Tag::Value(TAG_POST),
                            )
                        }
                        .unwrap(),
                    );
                    // Sometimes race a doomed receive on the never-sent
                    // tag: cancel must always win and must never disturb
                    // the live streams.
                    let doomed = if rng.below(3) == 0 {
                        let mut scratch = vec![0u8; 16];
                        let dh = table.insert(
                            unsafe {
                                comm.irecv(
                                    RecvBuf::pinned(scratch.as_mut_ptr(), 16),
                                    Source::Rank(0),
                                    Tag::Value(TAG_NEVER),
                                )
                            }
                            .unwrap(),
                        );
                        Some((dh, scratch))
                    } else {
                        None
                    };
                    // Poll through the table (the progressor thread races
                    // us on the same request — outcomes latch).
                    let st: Status = loop {
                        if let Some(st) =
                            table.with(h, |r| r.test()).unwrap().unwrap()
                        {
                            break st;
                        }
                        std::thread::yield_now();
                    };
                    table.remove(h).unwrap();
                    assert_eq!(
                        (st.source, st.tag, st.bytes),
                        (0, TAG_POST, len),
                        "posted stream status at {i}"
                    );
                    assert_eq!(buf, payload(i, len), "posted stream FIFO at {i}");
                    if let Some((dh, _scratch)) = doomed {
                        table.with(dh, |r| r.cancel()).unwrap();
                        let st = loop {
                            if let Some(st) =
                                table.with(dh, |r| r.test()).unwrap().unwrap()
                            {
                                break st;
                            }
                            std::thread::yield_now();
                        };
                        assert!(st.cancelled, "never-matched receive must cancel");
                        table.remove(dh).unwrap();
                    }
                }
            });

            // --- prober: Iprobe/Improbe/Mprobe + Mrecv -------------------
            let prober = s.spawn(|| {
                let mut rng = TestRng::from_seed(SEED ^ 0x5A5A);
                for (i, &len) in probe_sizes.iter().enumerate() {
                    let mut buf = vec![0u8; len];
                    let st = match rng.below(3) {
                        0 => {
                            // Blocking matched probe.
                            let (msg, st) = comm
                                .mprobe(Source::Rank(0), Tag::Value(TAG_PROBE))
                                .unwrap();
                            assert_eq!(st, msg.status());
                            msg.recv(&mut buf).unwrap()
                        }
                        1 => {
                            // Nonblocking matched probe, polled.
                            let (msg, _) = loop {
                                if let Some(hit) = comm
                                    .improbe(Source::Rank(0), Tag::Value(TAG_PROBE))
                                    .unwrap()
                                {
                                    break hit;
                                }
                                std::thread::yield_now();
                            };
                            msg.recv(&mut buf).unwrap()
                        }
                        _ => {
                            // Plain probe first (status only), then an
                            // extracting probe takes the same message:
                            // with this thread as the only TAG_PROBE
                            // consumer, the earliest match cannot change
                            // in between.
                            let seen =
                                comm.probe(Source::Rank(0), Tag::Value(TAG_PROBE)).unwrap();
                            let (msg, st) = comm
                                .mprobe(Source::Rank(0), Tag::Value(TAG_PROBE))
                                .unwrap();
                            assert_eq!(seen, st, "probe/mprobe must agree at {i}");
                            msg.recv(&mut buf).unwrap()
                        }
                    };
                    assert_eq!(
                        (st.source, st.tag, st.bytes),
                        (0, TAG_PROBE, len),
                        "probed stream status at {i}"
                    );
                    assert_eq!(buf, payload(i, len), "probed stream FIFO at {i}");
                }
            });

            poster.join().expect("poster thread");
            prober.join().expect("prober thread");
            stop.store(true, Ordering::Relaxed);
            progressor.join().expect("progressor thread");
            let audits = checker.join().expect("checker thread");
            assert!(audits > 0, "checker must have audited at least once");
        });
        assert_eq!(table.live(), 0, "all table requests retired");
        comm.check_mailbox_invariants();
    });
}

/// The tuned schedules' algorithm-internal sub-receive tags (segmented
/// bcast pipelines, Bruck rounds, Rabenseifner reduce-scatter/allgather)
/// must stay invisible to wildcard probes, exactly like the original
/// collective tags: an auditor thread on every rank runs wildcard
/// `Improbe(ANY, ANY)` plus the mailbox-invariant checker *while* the
/// main thread drives collectives forced onto the new schedules, and the
/// only message the wildcard may ever see is the user-tagged finale.
#[test]
fn algorithm_sub_tags_stay_invisible_to_wildcards() {
    const P: u32 = 4;
    const ROUNDS: usize = 25;
    const TAG_DONE: i32 = 77;
    // Force every collective onto a schedule that uses the new sub-tags;
    // a 16-byte segment makes the 200-byte bcast a 13-segment pipeline.
    let tuning = CollTuning::new()
        .force_bcast(BcastAlgo::BinomialSegmented)
        .force_allgather(AllgatherAlgo::Bruck)
        .force_allreduce(AllreduceAlgo::Rabenseifner)
        .force_alltoall(AlltoallAlgo::Bruck)
        .with_segment_bytes(16);
    let cfg = WorldConfig::new(ClockMode::Real).with_coll_tuning(tuning);
    run_world_configured(P, cfg, |comm| {
        let me = comm.rank();
        let comm: &Comm = &comm;
        std::thread::scope(|s| {
            // --- wildcard auditor: may only ever see the finale ----------
            let auditor = s.spawn(move || {
                let mut audits = 0u64;
                loop {
                    comm.check_mailbox_invariants();
                    audits += 1;
                    if let Some((msg, st)) =
                        comm.improbe(Source::Any, Tag::Any).unwrap()
                    {
                        assert_eq!(
                            st.tag, TAG_DONE,
                            "wildcard saw a collective-internal tag {} at rank {me}",
                            st.tag
                        );
                        assert_eq!(st.source, (me + P - 1) % P);
                        let mut buf = [0u8; 1];
                        msg.recv(&mut buf).unwrap();
                        assert_eq!(buf[0], ((me + P - 1) % P) as u8);
                        return audits;
                    }
                    std::thread::yield_now();
                }
            });

            // --- main thread: collective traffic on the new schedules ----
            for i in 0..ROUNDS {
                let root = (i as u32) % P;
                let mut buf = if me == root { [0x77u8; 200] } else { [0u8; 200] };
                comm.bcast(&mut buf, root).unwrap();
                assert!(buf.iter().all(|&b| b == 0x77));

                let mine = [me as u8; 24];
                let mut gathered = [0u8; 24 * P as usize];
                comm.allgather(&mine, &mut gathered).unwrap();

                let vals: Vec<u8> =
                    (0..12i32).flat_map(|v| (v + me as i32).to_le_bytes()).collect();
                let mut out = vec![0u8; vals.len()];
                comm.allreduce(&vals, &mut out, Datatype::Int, ReduceOp::Sum).unwrap();

                let send: Vec<u8> = (0..P as u8).flat_map(|d| [me as u8, d]).collect();
                let mut recv = vec![0u8; 2 * P as usize];
                comm.alltoall(&send, &mut recv).unwrap();
            }
            // Finale: one user-tagged message around the ring releases the
            // auditor — proving the wildcard still sees user traffic.
            comm.send(&[me as u8], (me + 1) % P, TAG_DONE).unwrap();
            let audits = auditor.join().expect("auditor thread");
            assert!(audits > 0);
        });
        comm.check_mailbox_invariants();
    });
}

/// Two threads hammer one shared [`Table`] with insert/test/remove
/// cycles while a third calls `progress_all`: handle identity must never
/// be confused (each thread always gets its own request's status back).
#[test]
fn request_table_handles_stay_isolated_across_threads() {
    const PER_THREAD: usize = 64;
    run_world_with(2, ClockMode::Real, |comm| {
        if comm.rank() == 0 {
            for t in 0..2i32 {
                for i in 0..PER_THREAD {
                    comm.send(&payload(i, 64 + t as usize), 1, 40 + t).unwrap();
                }
            }
            return;
        }
        let table = Table::default();
        let stop = AtomicBool::new(false);
        let comm: &Comm = &comm;
        std::thread::scope(|s| {
            let progressor = s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    table.progress_all();
                    std::thread::yield_now();
                }
            });
            let workers: Vec<_> = (0..2i32)
                .map(|t| {
                    let table = &table;
                    s.spawn(move || {
                        let len = 64 + t as usize;
                        for i in 0..PER_THREAD {
                            let mut buf = vec![0u8; len];
                            let h = table.insert(
                                unsafe {
                                    comm.irecv(
                                        RecvBuf::pinned(buf.as_mut_ptr(), len),
                                        Source::Rank(0),
                                        Tag::Value(40 + t),
                                    )
                                }
                                .unwrap(),
                            );
                            let st = loop {
                                if let Some(st) =
                                    table.with(h, |r| r.test()).unwrap().unwrap()
                                {
                                    break st;
                                }
                                std::thread::yield_now();
                            };
                            table.remove(h).unwrap();
                            assert_eq!(st.tag, 40 + t, "thread {t} got its own tag");
                            assert_eq!(st.bytes, len);
                            assert_eq!(buf, payload(i, len), "thread {t} message {i}");
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("worker thread");
            }
            stop.store(true, Ordering::Relaxed);
            progressor.join().expect("progressor thread");
        });
        assert_eq!(table.live(), 0);
    });
}

//! The one way a rank blocks: its [`Doorbell`].
//!
//! Every rank owns one doorbell, kept in its mailbox, and it is the only
//! thing the rank ever blocks on. Every blocking call — a receive, a
//! send's handshake, a collective, a probe, an agreement, a completion
//! call over a request set — is one loop: read the doorbell's epoch, poll
//! everything the call waits for, and, while nothing is ready, wait until
//! the epoch moves. The state those polls read (posted entries, rendezvous
//! slots, the mailbox queues, agreement rounds) sits behind plain mutexes;
//! whoever changes it rings the doorbell of the rank that waits for it.
//!
//! **The invariant (an eventcount).** A waiter reads the epoch *before* it
//! polls; a waker rings *after* its state change is published. So every
//! change either shows up in the poll, or moves the epoch past the value
//! the waiter read — and a rank woken by a ring it does not care about
//! polls once more and goes back to waiting.
//!
//! **A blocked rank yields before it sleeps.** While the epoch stands
//! still, [`Doorbell::wait`] yields up to [`YIELD_BUDGET`] times; only then
//! does it register as a sleeper and sleep. Ranks outnumber CPUs in every
//! job this crate runs, so the thread a waiter waits *for* is usually
//! runnable and a yield hands it the CPU: no futex wait, no futex wake, no
//! sleep/wake switch. There is no busy-spin: on a shared CPU a spinning
//! waiter cannot observe progress, it only burns the slice its peer needs.
//!
//! **Nobody wakes a rank that is not asleep.** A ring is one atomic add on
//! the epoch and one load of the sleeper count; only when a sleeper is
//! registered does it take the lock and call `notify_all` — a syscall in
//! `std`'s condvar, sleeper or not. A yielding waiter needs no notification:
//! it re-reads the epoch.
//!
//! Virtual time comes from message stamps, never from how a thread waited.

use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicU32, AtomicU64};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::progress::ProtocolStats;

/// How often a blocked wait yields while the epoch stands still before it
/// sleeps.
///
/// Measured on the 2-vCPU reference box, native 8-byte PingPong, µs per hop
/// by budget — both ranks on one CPU: 0 → 2.4, 1 → 1.4, 4 / 16 / 64 → 1.3;
/// on two CPUs, where a yield returns at once and only covers the ≈ 2 µs a
/// reply takes: 0 → 22, 1 → 19, 4 → 3–10, 16 → 1.5–1.9, 64 → 1.1–1.3.
/// `bench_scale` (4 096 ranks) takes 3.9–5.2 s at 0 and 2.1–2.6 s from 16
/// to 256. 16 is the knee; every gated workload is flat beyond 1.
pub(crate) const YIELD_BUDGET: u32 = 16;

/// A rank's doorbell: an epoch counter its blocked calls wait to see move.
pub struct Doorbell {
    /// Rings so far.
    epoch: AtomicU64,
    /// Sleepers registered and not yet woken.
    ///
    /// INVARIANT: written only under `lock`. A sleeper registers, then
    /// re-reads the epoch and — if it has not moved — gives the lock up only
    /// to the condvar, atomically with falling asleep; a ring moves the
    /// epoch, then reads this count. Both sides are `SeqCst`, so a ring sees
    /// the registration or the sleeper sees the ring.
    /// `tests::no_schedule_strands_a_registered_sleeper` enumerates every
    /// interleaving (and shows that a ring before the state change, or an
    /// unregistered sleeper, is caught); `tests::handoff_never_loses_a_wakeup`
    /// races the real thing.
    sleepers: AtomicU32,
    /// Guards sleeping, and holds the wake generation: a ring that finds
    /// sleepers takes them all and bumps it, and a sleeper sleeps until it
    /// moves — a spurious condvar return is not a wake.
    lock: Mutex<u64>,
    asleep: Condvar,
    /// The world's counters: `parks`, `yield_hits` and `wakes` are kept here.
    stats: Arc<ProtocolStats>,
}

#[cfg(test)]
impl Default for Doorbell {
    fn default() -> Doorbell {
        Doorbell::new(&Arc::default())
    }
}

/// Where one blocking call is in its wait.
pub(crate) struct Wait {
    yields_left: u32,
    slept: bool,
}

impl Wait {
    pub fn new() -> Wait {
        Wait::with_budget(YIELD_BUDGET)
    }

    fn with_budget(yields: u32) -> Wait {
        Wait { yields_left: yields, slept: false }
    }
}

impl Doorbell {
    pub(crate) fn new(stats: &Arc<ProtocolStats>) -> Doorbell {
        Doorbell {
            epoch: AtomicU64::new(0),
            sleepers: AtomicU32::new(0),
            lock: Mutex::new(0),
            asleep: Condvar::new(),
            stats: Arc::clone(stats),
        }
    }

    /// Announce a state change the rank may be waiting for. Call it after
    /// the change is published (its lock released, or at least taken).
    pub(crate) fn ring(&self) {
        self.epoch.fetch_add(1, SeqCst);
        if self.sleepers.load(SeqCst) == 0 {
            return;
        }
        let mut generation = self.lock.lock();
        if self.sleepers.swap(0, Relaxed) > 0 {
            *generation += 1;
            self.asleep.notify_all();
        }
    }

    /// Block until `poll` returns `Some`. `poll` runs once at once, then
    /// again each time the epoch has moved.
    pub(crate) fn wait<R>(&self, poll: impl FnMut() -> Option<R>) -> R {
        self.wait_from(Wait::new(), poll)
    }

    fn wait_from<R>(&self, mut wait: Wait, mut poll: impl FnMut() -> Option<R>) -> R {
        loop {
            let seen = self.epoch();
            if let Some(out) = poll() {
                self.done(wait);
                return out;
            }
            self.wait_past(seen, &mut wait);
        }
    }

    /// The epoch to read before a poll.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Return once the epoch has moved past `seen`: yield while the call's
    /// budget lasts, then sleep.
    pub(crate) fn wait_past(&self, seen: u64, wait: &mut Wait) {
        while self.epoch() == seen {
            if wait.yields_left > 0 {
                wait.yields_left -= 1;
                std::thread::yield_now();
            } else {
                self.sleep(seen, wait);
            }
        }
    }

    fn sleep(&self, seen: u64, wait: &mut Wait) {
        let mut generation = self.lock.lock();
        self.sleepers.fetch_add(1, SeqCst);
        if self.epoch() != seen {
            self.sleepers.fetch_sub(1, Relaxed);
            return;
        }
        if !wait.slept {
            // Counted registered, under the lock: a test (or a trace
            // reader) that sees the count knows its ring will find a sleeper.
            self.stats.parks.fetch_add(1, Relaxed);
            wait.slept = true;
        }
        let asleep_at = *generation;
        while *generation == asleep_at {
            self.asleep.wait(&mut generation);
        }
        if self.epoch() != seen {
            self.stats.wakes.fetch_add(1, Relaxed);
        }
    }

    /// The call's wait is over: counted once, in `parks` if it slept (on
    /// the way in), else here.
    pub(crate) fn done(&self, wait: Wait) {
        if !wait.slept {
            self.stats.yield_hits.fetch_add(1, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Two threads hand a turn back and forth through one doorbell. A lost
    /// wake-up strands both of them and the watchdog fails the test.
    fn handoff(budget: u32, round_trips: u32) {
        let stats = Arc::new(ProtocolStats::default());
        let bell = Arc::new(Doorbell::new(&stats));
        let turn = Arc::new(AtomicU32::new(0));
        let (done, finished) = mpsc::channel();
        let players: Vec<_> = (0..2u32)
            .map(|me| {
                let (bell, turn, done) = (Arc::clone(&bell), Arc::clone(&turn), done.clone());
                std::thread::spawn(move || {
                    for _ in 0..round_trips {
                        let mine = || (turn.load(SeqCst) == me).then_some(());
                        bell.wait_from(Wait::with_budget(budget), mine);
                        turn.store(1 - me, SeqCst);
                        bell.ring();
                    }
                    done.send(()).ok();
                })
            })
            .collect();
        // The watchdog: 10 s in which no wait anywhere completed. (A slow
        // box is not a lost wake-up: at budget 0 on two CPUs every hop is
        // a cross-CPU futex wake, ≈ 20 µs.)
        let (mut playing, mut waits_seen) = (2, 0);
        while playing > 0 {
            match finished.recv_timeout(Duration::from_secs(10)) {
                Ok(()) => playing -= 1,
                Err(_) => {
                    let s = stats.snapshot();
                    assert_ne!(s.parks + s.yield_hits, waits_seen, "budget {budget}: a wake-up was lost ({s:?})");
                    waits_seen = s.parks + s.yield_hits;
                }
            }
        }
        players.into_iter().for_each(|p| p.join().unwrap());
        let s = stats.snapshot();
        assert_eq!(s.parks + s.yield_hits, 2 * round_trips as u64, "one count per wait");
        assert!(s.wakes <= s.parks, "woke a thread that was not asleep: {s:?}");
    }

    #[test]
    fn handoff_never_loses_a_wakeup() {
        for budget in [0, 1, YIELD_BUDGET] {
            handoff(budget, 100_000);
        }
    }

    /// The two phases a state change can find a waiter in, each forced:
    /// with an unbounded budget the waiter can only be yielding, with none
    /// it can only be asleep — and the change waits until it is.
    #[test]
    fn a_change_reaches_a_yielding_waiter_unwoken_and_a_sleeping_one_with_one_wake() {
        for (budget, parks, yield_hits, wakes) in [(u32::MAX, 0, 1, 0), (0, 1, 0, 1)] {
            let bell = Arc::new(Doorbell::default());
            let set = Arc::new(AtomicBool::new(false));
            let (looked, has_looked) = mpsc::channel();
            let waiter = {
                let (bell, set) = (Arc::clone(&bell), Arc::clone(&set));
                std::thread::spawn(move || {
                    bell.wait_from(Wait::with_budget(budget), || {
                        looked.send(()).ok();
                        set.load(SeqCst).then_some(())
                    })
                })
            };
            has_looked.recv().expect("the waiter looks at least once");
            while budget == 0 && bell.stats.snapshot().parks == 0 {
                std::thread::yield_now();
            }
            set.store(true, SeqCst);
            bell.ring();
            waiter.join().unwrap();
            let s = bell.stats.snapshot();
            assert_eq!((s.parks, s.yield_hits, s.wakes), (parks, yield_hits, wakes), "budget {budget}");
            assert_eq!(bell.sleepers.load(SeqCst), 0, "budget {budget}: a registration leaked");
        }
    }

    // --- the protocol as a thread-free model ----------------------------

    /// One step of a modelled thread.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Step {
        /// Waiter: `seen := epoch`.
        Read,
        /// Waiter: leave if the flag is set (the poll).
        Check,
        /// Waiter: back to `Read` if `epoch != seen` (the yield loop's test).
        Moved,
        Lock,
        Unlock,
        /// Waiter: `sleepers += 1`.
        Register,
        /// Waiter: if `epoch != seen`, take its registration back, release
        /// the lock and go back to `Read`.
        Recheck,
        /// Waiter: release the lock and join the condvar's queue, as one
        /// step (the condvar's guarantee); runnable again once notified.
        Sleep,
        /// Waiter, woken: start over at the first `Lock` (the budget is
        /// spent).
        Again,
        /// Waker: set the flag.
        Set,
        /// Waker: `epoch += 1`.
        Bump,
        /// Waker: skip past the next `Unlock` unless `sleepers > 0`.
        Peek,
        /// Waker: if `sleepers > 0`, zero it and wake every queued sleeper.
        Claim,
    }
    use Step::*;

    #[derive(Clone)]
    struct Thread {
        program: &'static [Step],
        pc: usize,
        asleep: bool,
        registered: bool,
        seen: u32,
    }

    #[derive(Clone)]
    struct Model {
        threads: Vec<Thread>,
        holder: Option<usize>,
        flag: bool,
        epoch: u32,
        sleepers: u32,
    }

    impl Model {
        fn runnable(&self, i: usize) -> bool {
            let t = &self.threads[i];
            match t.program.get(t.pc) {
                None => false,
                Some(Lock) => !t.asleep && self.holder.is_none(),
                Some(_) => !t.asleep,
            }
        }

        fn goto(&mut self, i: usize, step: Step) {
            let at = self.threads[i].program.iter().position(|s| *s == step);
            self.threads[i].pc = at.expect("the waiter has the step");
        }

        fn step(&mut self, i: usize) {
            let step = self.threads[i].program[self.threads[i].pc];
            self.threads[i].pc += 1;
            if matches!(step, Unlock | Register | Recheck | Sleep | Claim) {
                assert_eq!(self.holder, Some(i), "{step:?} outside the lock");
            }
            match step {
                Read => self.threads[i].seen = self.epoch,
                Check => {
                    if self.flag {
                        self.threads[i].pc = usize::MAX;
                    }
                }
                Moved => {
                    if self.epoch != self.threads[i].seen {
                        self.goto(i, Read);
                    }
                }
                Lock => self.holder = Some(i),
                Unlock => self.holder = None,
                Register => {
                    self.sleepers += 1;
                    self.threads[i].registered = true;
                }
                Recheck => {
                    if self.epoch != self.threads[i].seen {
                        if std::mem::take(&mut self.threads[i].registered) {
                            self.sleepers -= 1;
                        }
                        self.holder = None;
                        self.goto(i, Read);
                    }
                }
                Sleep => {
                    self.holder = None;
                    self.threads[i].asleep = true;
                }
                Again => self.goto(i, Lock),
                Set => self.flag = true,
                Bump => self.epoch += 1,
                Peek => {
                    if self.sleepers == 0 {
                        let t = &mut self.threads[i];
                        t.pc += t.program[t.pc..].iter().position(|s| *s == Unlock).unwrap() + 1;
                    }
                }
                Claim => {
                    if self.sleepers > 0 {
                        self.sleepers = 0;
                        for t in &mut self.threads {
                            (t.asleep, t.registered) = (false, false);
                        }
                    }
                }
            }
        }

        /// Run every schedule; the number that end with a thread still
        /// asleep, a registration left behind, or a waiter that never saw
        /// the flag.
        fn stranded(self) -> usize {
            let next: Vec<usize> =
                (0..self.threads.len()).filter(|&i| self.runnable(i)).collect();
            if next.is_empty() {
                let waiting = self.threads.iter().any(|t| t.asleep || t.pc < t.program.len());
                return (waiting || self.sleepers > 0) as usize;
            }
            next.into_iter()
                .map(|i| {
                    let mut m = self.clone();
                    m.step(i);
                    m.stranded()
                })
                .sum()
        }
    }

    fn stranded(programs: &[&'static [Step]]) -> usize {
        let threads = programs
            .iter()
            .map(|&program| Thread { program, pc: 0, asleep: false, registered: false, seen: 0 })
            .collect();
        Model { threads, holder: None, flag: false, epoch: 0, sleepers: 0 }.stranded()
    }

    /// `Doorbell::wait` with a budget of one, then of zero; after `Sleep`
    /// the woken thread re-takes the lock (the condvar's other guarantee),
    /// leaves `sleep`, and tests the epoch once more.
    const YIELDING: &[Step] =
        &[Read, Check, Moved, Moved, Lock, Register, Recheck, Sleep, Lock, Unlock, Moved, Again];
    const PARKING: &[Step] =
        &[Read, Check, Moved, Lock, Register, Recheck, Sleep, Lock, Unlock, Moved, Again];
    /// A state change followed by `Doorbell::ring`.
    const WAKER: &[Step] = &[Set, Bump, Peek, Lock, Claim, Unlock];

    #[test]
    fn no_schedule_strands_a_registered_sleeper() {
        assert_eq!(stranded(&[PARKING, WAKER]), 0);
        assert_eq!(stranded(&[YIELDING, WAKER]), 0);
        assert_eq!(stranded(&[YIELDING, PARKING, WAKER]), 0, "notify_all reaches both");
        // The model is not vacuous: it catches the two ways to get this
        // wrong — a ring that comes before the state change, and a sleeper
        // that never registered.
        assert!(stranded(&[PARKING, &[Bump, Peek, Lock, Claim, Unlock, Set]]) > 0);
        let unregistered: &[Step] =
            &[Read, Check, Moved, Lock, Recheck, Sleep, Lock, Unlock, Moved, Again];
        assert!(stranded(&[unregistered, WAKER]) > 0);
    }
}

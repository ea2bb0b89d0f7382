//! The one way a rank blocks: a [`Monitor`] is a value, the lock that
//! guards it, and the condvar its waiters sleep on.
//!
//! **A blocked rank yields before it sleeps.** [`Monitor::wait`] checks the
//! caller's predicate under the lock and, while it does not hold, drops the
//! lock around a `yield_now()` up to [`YIELD_BUDGET`] times; only then does
//! it register as parked and sleep. Ranks outnumber CPUs in every job this
//! crate runs, so the thread a waiter waits *for* is usually runnable and a
//! yield hands it the CPU: no futex wait, no futex wake, no sleep/wake
//! switch. There is no busy-spin: on a shared CPU a spinning waiter cannot
//! observe progress, it only burns the slice its peer needs.
//!
//! **Nobody wakes a rank that is not asleep.** A state change ends in
//! [`Guard::wake`], which reads the parked count *under the lock that
//! guards the predicate* and calls `notify_all` — a syscall in `std`'s
//! condvar, sleeper or not — only when it is non-zero. A yielding waiter
//! needs no notification: it re-reads the state under the lock.
//!
//! Virtual time comes from message stamps, never from how a thread waited.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::progress::ProtocolStats;

/// How often a blocked wait re-checks its predicate around a `yield_now()`
/// before it sleeps, and how many idle passes [`crate::request::backoff`]
/// yields for before it does.
///
/// Measured on the 2-vCPU reference box, native 8-byte PingPong, µs per hop
/// by budget — both ranks on one CPU: 0 → 2.4, 1 → 1.4, 4 / 16 / 64 → 1.3;
/// on two CPUs, where a yield returns at once and only covers the ≈ 2 µs a
/// reply takes: 0 → 22, 1 → 19, 4 → 3–10, 16 → 1.5–1.9, 64 → 1.1–1.3.
/// `bench_scale` (4 096 ranks) takes 3.9–5.2 s at 0 and 2.1–2.6 s from 16
/// to 256. 16 is the knee; every gated workload is flat beyond 1.
pub(crate) const YIELD_BUDGET: u32 = 16;

/// A value guarded by a lock, with the condvar its waiters sleep on.
pub(crate) struct Monitor<T> {
    state: Mutex<Watched<T>>,
    sleepers: Condvar,
    /// The world's counters: `parks`, `yield_hits` and `wakes` are kept here.
    stats: Arc<ProtocolStats>,
}

struct Watched<T> {
    value: T,
    /// Threads asleep on `sleepers`, or woken and not yet running.
    ///
    /// INVARIANT: written only by a waiter holding the lock, which it gives
    /// up only to the condvar, atomically with falling asleep; read only by
    /// [`Guard::wake`], under the same lock, after the state change. So a
    /// waker sees the sleeper's registration, or the sleeper's check sees
    /// the waker's change. `tests::no_schedule_strands_a_registered_sleeper`
    /// enumerates every interleaving (and shows that a count read before
    /// the lock, or an unregistered sleeper, is caught);
    /// `tests::handoff_never_loses_a_wakeup` races the real thing.
    parked: u32,
}

/// The lock, held. Derefs to the guarded value.
pub(crate) struct Guard<'a, T> {
    monitor: &'a Monitor<T>,
    state: MutexGuard<'a, Watched<T>>,
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.state.value
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.state.value
    }
}

impl<T> Guard<'_, T> {
    /// Release the lock after a state change a waiter may be waiting for,
    /// and wake the sleepers — if there are any.
    pub fn wake(self) {
        let Guard { monitor, state } = self;
        let parked = state.parked;
        drop(state);
        if parked > 0 {
            monitor.stats.wakes.fetch_add(1, Ordering::Relaxed);
            monitor.sleepers.notify_all();
        }
    }
}

impl<T> Monitor<T> {
    pub fn new(value: T, stats: &Arc<ProtocolStats>) -> Monitor<T> {
        Monitor {
            state: Mutex::new(Watched { value, parked: 0 }),
            sleepers: Condvar::new(),
            stats: Arc::clone(stats),
        }
    }

    pub fn lock(&self) -> Guard<'_, T> {
        Guard { monitor: self, state: self.state.lock() }
    }

    /// Block until `ready` returns `Some`. `ready` runs under the lock, as
    /// often as the wait looks; whatever else it reads must be published
    /// before the [`Guard::wake`] that announces it.
    pub fn wait<R>(&self, ready: impl FnMut(&mut T) -> Option<R>) -> R {
        self.wait_budgeted(YIELD_BUDGET, None, ready).expect("an untimed wait ends ready")
    }

    /// [`Monitor::wait`] that gives up — `None` — once it has slept for
    /// `timeout` without `ready` holding.
    pub fn wait_for<R>(
        &self,
        timeout: Duration,
        ready: impl FnMut(&mut T) -> Option<R>,
    ) -> Option<R> {
        self.wait_budgeted(YIELD_BUDGET, Some(timeout), ready)
    }

    fn wait_budgeted<R>(
        &self,
        budget: u32,
        timeout: Option<Duration>,
        mut ready: impl FnMut(&mut T) -> Option<R>,
    ) -> Option<R> {
        let mut state = self.state.lock();
        let (mut yields_left, mut slept, mut timed_out) = (budget, false, false);
        loop {
            let out = ready(&mut state.value);
            if out.is_some() || timed_out {
                if !slept {
                    self.stats.yield_hits.fetch_add(1, Ordering::Relaxed);
                }
                return out;
            }
            if yields_left > 0 {
                yields_left -= 1;
                drop(state);
                std::thread::yield_now();
                state = self.state.lock();
                continue;
            }
            if !slept {
                // Counted on the way in, so a test (or a trace reader) that
                // sees the count knows the waiter is registered.
                self.stats.parks.fetch_add(1, Ordering::Relaxed);
                slept = true;
            }
            state.parked += 1;
            match timeout {
                None => self.sleepers.wait(&mut state),
                Some(t) => timed_out = self.sleepers.wait_for(&mut state, t).timed_out(),
            }
            state.parked -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Two threads hand a turn back and forth through one monitor. A lost
    /// wake-up strands both of them and the watchdog fails the test.
    fn handoff(budget: u32, round_trips: u32) {
        let stats = Arc::new(ProtocolStats::default());
        let turn = Arc::new(Monitor::new(0u32, &stats));
        let (done, finished) = mpsc::channel();
        let players: Vec<_> = (0..2u32)
            .map(|me| {
                let (turn, done) = (Arc::clone(&turn), done.clone());
                std::thread::spawn(move || {
                    for _ in 0..round_trips {
                        turn.wait_budgeted(budget, None, |t| (*t == me).then_some(()));
                        let mut t = turn.lock();
                        *t = 1 - me;
                        t.wake();
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
            let m = Arc::new(Monitor::new(false, &Arc::default()));
            let (looked, has_looked) = mpsc::channel();
            let waiter = {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    m.wait_budgeted(budget, None, |set| {
                        looked.send(()).ok();
                        set.then_some(())
                    })
                })
            };
            has_looked.recv().expect("the waiter looks at least once");
            while budget == 0 && m.state.lock().parked == 0 {
                std::thread::yield_now();
            }
            let mut set = m.lock();
            *set = true;
            set.wake();
            waiter.join().unwrap();
            let s = m.stats.snapshot();
            assert_eq!((s.parks, s.yield_hits, s.wakes), (parks, yield_hits, wakes), "budget {budget}");
        }
    }

    #[test]
    fn timed_wait_gives_up_and_untimed_state_is_left_alone() {
        let m = Monitor::new(7u32, &Arc::default());
        assert_eq!(m.wait_for(Duration::from_millis(1), |_| None::<()>), None);
        assert_eq!(m.wait_for(Duration::from_millis(1), |v| Some(*v)), Some(7));
        assert_eq!(m.state.lock().parked, 0);
        let s = m.stats.snapshot();
        assert_eq!((s.parks, s.yield_hits, s.wakes), (1, 1, 0));
        m.lock().wake();
        assert_eq!(m.stats.snapshot().wakes, 0, "nobody was asleep");
    }

    // --- the protocol as a thread-free model ----------------------------

    /// One step of a modelled thread.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Step {
        Lock,
        Unlock,
        /// Waiter: leave (releasing the lock) if the flag is set.
        Check,
        /// Waiter: `parked += 1`.
        Register,
        /// Waiter: release the lock and join the condvar's queue, as one
        /// step (the condvar's guarantee); runnable again once notified.
        Sleep,
        /// Waiter, woken: `parked -= 1` and start over at the check.
        Deregister,
        /// Waker: set the flag.
        Set,
        /// Waker: remember `parked`.
        ReadCount,
        /// Waker: wake every queued sleeper if the remembered count is > 0.
        Notify,
    }
    use Step::*;

    #[derive(Clone)]
    struct Thread {
        program: &'static [Step],
        pc: usize,
        asleep: bool,
        saw: u32,
    }

    #[derive(Clone)]
    struct Model {
        threads: Vec<Thread>,
        holder: Option<usize>,
        flag: bool,
        parked: u32,
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

        fn step(&mut self, i: usize) {
            let step = self.threads[i].program[self.threads[i].pc];
            self.threads[i].pc += 1;
            if !matches!(step, Lock | ReadCount | Notify) {
                assert_eq!(self.holder, Some(i), "{step:?} outside the lock");
            }
            match step {
                Lock => self.holder = Some(i),
                Unlock => self.holder = None,
                Check => {
                    if self.flag {
                        self.holder = None;
                        self.threads[i].pc = usize::MAX;
                    }
                }
                Register => self.parked += 1,
                Sleep => {
                    self.holder = None;
                    self.threads[i].asleep = true;
                }
                Deregister => {
                    self.parked -= 1;
                    let check = self.threads[i].program.iter().rposition(|s| *s == Check);
                    self.threads[i].pc = check.expect("a waiter checks");
                }
                Set => self.flag = true,
                ReadCount => self.threads[i].saw = self.parked,
                Notify => {
                    if self.threads[i].saw > 0 {
                        self.threads.iter_mut().for_each(|t| t.asleep = false);
                    }
                }
            }
        }

        /// Run every schedule; the number that end with a thread still
        /// asleep or registered.
        fn stranded(self) -> usize {
            let next: Vec<usize> =
                (0..self.threads.len()).filter(|&i| self.runnable(i)).collect();
            if next.is_empty() {
                return (self.threads.iter().any(|t| t.asleep) || self.parked > 0) as usize;
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
            .map(|&program| Thread { program, pc: 0, asleep: false, saw: 0 })
            .collect();
        Model { threads, holder: None, flag: false, parked: 0 }.stranded()
    }

    /// `wait_budgeted` with a budget of one, then of zero; after `Sleep`
    /// the woken thread re-takes the lock (the condvar's other guarantee).
    const YIELDING: &[Step] = &[Lock, Check, Unlock, Lock, Check, Register, Sleep, Lock, Deregister];
    const PARKING: &[Step] = &[Lock, Check, Register, Sleep, Lock, Deregister];
    /// A state change followed by `Guard::wake`.
    const WAKER: &[Step] = &[Lock, Set, ReadCount, Unlock, Notify];

    #[test]
    fn no_schedule_strands_a_registered_sleeper() {
        assert_eq!(stranded(&[PARKING, WAKER]), 0);
        assert_eq!(stranded(&[YIELDING, WAKER]), 0);
        assert_eq!(stranded(&[YIELDING, PARKING, WAKER]), 0, "notify_all reaches both");
        // The model is not vacuous: it catches the two ways to get this
        // wrong — a count read before the lock is taken, and a sleeper
        // that never registered.
        assert!(stranded(&[PARKING, &[ReadCount, Lock, Set, Unlock, Notify]]) > 0);
        assert!(stranded(&[&[Lock, Check, Sleep, Lock, Check], WAKER]) > 0);
    }
}

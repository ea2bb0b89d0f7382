//! Minimal `parking_lot` API shim over `std::sync`.
//!
//! The build container has no registry access, so the workspace provides
//! the subset of the parking_lot API its crates use — `Mutex` (non-poisoning
//! `lock()`), `Condvar` (`wait(&mut guard)`), and `RwLock` — implemented on
//! the std primitives. Poisoned locks are
//! unwrapped: a panic while holding a lock is already fatal to the rank
//! threads that share it.

use std::sync;

pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard taken")
    }
}

#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Block until notified, releasing the guard's mutex while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard taken");
        let inner = self.0.wait(inner).unwrap_or_else(sync::PoisonError::into_inner);
        guard.0 = Some(inner);
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(sync::RwLockReadGuard<'a, T>);
pub struct RwLockWriteGuard<'a, T: ?Sized>(sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(sync::PoisonError::into_inner))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(sync::PoisonError::into_inner))
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        assert!(t.join().unwrap());
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() = 2;
        assert_eq!(*l.read(), 2);
    }
}

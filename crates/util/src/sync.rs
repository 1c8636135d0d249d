//! Lock shims with the `parking_lot` calling convention, plus (in debug
//! builds) lock-order deadlock detection.
//!
//! The std lock API returns `LockResult` so callers must thread poison
//! handling everywhere; `parking_lot` (which this workspace cannot fetch)
//! returns guards directly and has no poisoning. These wrappers recover
//! the ergonomic API: a panic while holding a lock leaves the data in
//! whatever state the panicking section produced, which is exactly the
//! `parking_lot` contract the call sites were written against.
//!
//! Under `cfg(debug_assertions)` every lock is additionally classed by
//! its construction site and every acquisition is checked against the
//! global acquisition-order graph in [`crate::lockorder`]; an inverted
//! order panics deterministically instead of deadlocking rarely. Release
//! builds compile all of that away — the types below are zero-cost
//! newtypes over `std::sync`.

#![expect(clippy::disallowed_types, reason = "the shims wrap the std primitives")]

use std::ops::{Deref, DerefMut};
use std::sync::{self, LockResult, PoisonError};
use std::time::Duration;

#[cfg(debug_assertions)]
use crate::lockorder;
#[cfg(debug_assertions)]
use crate::lockorder::Mode;
#[cfg(debug_assertions)]
use std::panic::Location;

fn unpoison<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Tracking state attached to a live guard in debug builds.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct Tracked(u64);

#[cfg(debug_assertions)]
impl Drop for Tracked {
    fn drop(&mut self) {
        lockorder::release(self.0);
    }
}

macro_rules! guard {
    ($name:ident, $inner:ident, mutable: $mutable:tt) => {
        #[derive(Debug)]
        pub struct $name<'a, T: ?Sized> {
            inner: sync::$inner<'a, T>,
            #[cfg(debug_assertions)]
            #[allow(dead_code)]
            tracked: Tracked,
        }

        impl<T: ?Sized> Deref for $name<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                &self.inner
            }
        }

        guard!(@mut $name, $mutable);

        impl<T: ?Sized + std::fmt::Display> std::fmt::Display for $name<'_, T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                (**self).fmt(f)
            }
        }
    };
    (@mut $name:ident, true) => {
        impl<T: ?Sized> DerefMut for $name<'_, T> {
            fn deref_mut(&mut self) -> &mut T {
                &mut self.inner
            }
        }
    };
    (@mut $name:ident, false) => {};
}

guard!(RwLockReadGuard, RwLockReadGuard, mutable: false);
guard!(RwLockWriteGuard, RwLockWriteGuard, mutable: true);
guard!(MutexGuard, MutexGuard, mutable: true);

/// `std::sync::RwLock` with guards returned directly.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static Location<'static>,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    #[track_caller]
    pub fn new(value: T) -> Self {
        RwLock {
            #[cfg(debug_assertions)]
            class: Location::caller(),
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let tracked = Tracked(lockorder::acquire(self.class, Location::caller(), Mode::Shared));
        RwLockReadGuard {
            inner: unpoison(self.inner.read()),
            #[cfg(debug_assertions)]
            tracked,
        }
    }

    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let tracked = Tracked(lockorder::acquire(self.class, Location::caller(), Mode::Exclusive));
        RwLockWriteGuard {
            inner: unpoison(self.inner.write()),
            #[cfg(debug_assertions)]
            tracked,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

/// `std::sync::Mutex` with guards returned directly.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: &'static Location<'static>,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    #[track_caller]
    pub fn new(value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            class: Location::caller(),
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let tracked = Tracked(lockorder::acquire(self.class, Location::caller(), Mode::Exclusive));
        MutexGuard {
            inner: unpoison(self.inner.lock()),
            #[cfg(debug_assertions)]
            tracked,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

/// Sleep the calling thread for `dur`: the workspace's one sanctioned
/// `thread::sleep`. Debug builds first assert that the thread holds no
/// lock guard ([`lockorder::assert_no_guard_held`]), since a nap under a
/// live guard is billed to every contender of that lock.
#[expect(clippy::disallowed_methods, reason = "the one sanctioned sleep")]
pub fn pause(dur: Duration) {
    #[cfg(debug_assertions)]
    lockorder::assert_no_guard_held("a pause");
    std::thread::sleep(dur);
}

/// `std::sync::Condvar` over [`Mutex`] guards, with the same
/// poison-transparent contract as the lock shims.
///
/// The guard's lock-order token is deliberately kept on the thread's
/// held stack across the wait: while parked the thread cannot acquire
/// anything else, so the stale frame can create no false edges, and
/// keeping it means the wakeup (which reacquires the same mutex) needs
/// no re-registration that could spuriously re-order the graph.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub fn new() -> Self {
        Condvar { inner: sync::Condvar::new() }
    }

    /// Atomically release `guard`'s mutex and park until notified; the
    /// mutex is reacquired before this returns.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(debug_assertions)]
        {
            let MutexGuard { inner, tracked } = guard;
            let inner = unpoison(self.inner.wait(inner));
            MutexGuard { inner, tracked }
        }
        #[cfg(not(debug_assertions))]
        {
            let MutexGuard { inner } = guard;
            MutexGuard { inner: unpoison(self.inner.wait(inner)) }
        }
    }

    /// Like [`Condvar::wait`] with an upper bound; the `bool` is true if
    /// the wait timed out rather than being notified.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        #[cfg(debug_assertions)]
        {
            let MutexGuard { inner, tracked } = guard;
            let (inner, timeout) = unpoison(self.inner.wait_timeout(inner, dur));
            (MutexGuard { inner, tracked }, timeout.timed_out())
        }
        #[cfg(not(debug_assertions))]
        {
            let MutexGuard { inner } = guard;
            let (inner, timeout) = unpoison(self.inner.wait_timeout(inner, dur));
            (MutexGuard { inner }, timeout.timed_out())
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_basics() {
        let lock = RwLock::new(1);
        assert_eq!(*lock.read(), 1);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 2);
        assert_eq!(lock.into_inner(), 2);
    }

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = shared.clone();
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*s2;
            let mut ready = lock.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
        });
        {
            let (lock, cv) = &*shared;
            *lock.lock() = true;
            cv.notify_all();
        }
        waiter.join().expect("waiter wakes");
    }

    #[test]
    fn condvar_wait_timeout_reports_timeout() {
        let lock = Mutex::new(0u8);
        let cv = Condvar::new();
        let guard = lock.lock();
        let (guard, timed_out) = cv.wait_timeout(guard, Duration::from_millis(5));
        assert!(timed_out);
        drop(guard);
        // The guard survived the round trip: the mutex is usable and
        // lock-order tracking still releases cleanly.
        *lock.lock() = 1;
    }

    /// A guard held across a sleep: the nap is billed to every thread
    /// contending for the lock.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock guard held across a pause")]
    fn pausing_under_a_guard_panics() {
        let state = Mutex::new(0u64);
        let mut guard = state.lock();
        pause(Duration::from_millis(1));
        *guard += 1;
    }

    /// The clean shape: pause first, lock after.
    #[test]
    fn pausing_before_locking_is_fine() {
        let state = Mutex::new(0u64);
        pause(Duration::from_millis(1));
        *state.lock() += 1;
        assert_eq!(state.into_inner(), 1);
    }

    #[test]
    fn poisoned_lock_still_usable() {
        let lock = Arc::new(RwLock::new(0));
        let l2 = lock.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        *lock.write() = 7;
        assert_eq!(*lock.read(), 7);
    }
}

//! Offline stand-in for [`parking_lot`](https://crates.io/crates/parking_lot).
//!
//! This build environment has no access to a cargo registry, so the subset of
//! the `parking_lot` 0.12 API this workspace uses is re-implemented here on
//! top of `std::sync`. Semantics match `parking_lot` where the workspace
//! relies on them:
//!
//! - `Mutex::lock()` returns a guard directly (no `Result`); a poisoned
//!   std mutex is transparently un-poisoned, matching `parking_lot`'s
//!   poison-free behaviour.
//! - `Condvar::wait(&mut guard)` takes the guard by `&mut` and re-acquires
//!   the lock before returning, exactly like `parking_lot`.
//!
//! Fairness/eventual-fairness and `const fn` lock construction beyond what
//! `std` offers are NOT reproduced; nothing in this workspace needs them.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{self, TryLockError};
use std::time::Duration;

/// Debug-only runtime lock-discipline checking.
///
/// A lock may be given a hierarchy rank with [`Mutex::set_rank`] /
/// [`RwLock::set_rank`] (or constructed ranked via `with_rank`). In debug
/// builds every acquisition of a *ranked* lock asserts that the rank is `>`
/// every rank this thread already holds — acquiring down the hierarchy, or
/// a second lock of a rank already held, panics with both ranks named —
/// and [`lock_order::assert_none_held`], which `fabric` calls wherever a
/// process spends virtual time or parks, panics if the thread holds any
/// ranked lock at all. Unranked locks (rank 0, the default) are never
/// checked. Release builds compile the whole mechanism to nothing.
///
/// These two assertions are the only enforcement of the hierarchy declared
/// in `blobseer::lock_ranks`: they check the paths a test executes, so every
/// debug test run — tier-1 and the seeded chaos sweep — is the audit.
pub mod lock_order {
    #[cfg(debug_assertions)]
    mod imp {
        use std::cell::RefCell;

        thread_local! {
            static HELD: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }

        /// Token recording one held ranked lock; removal happens on drop.
        pub struct Held(Option<u8>);

        pub fn acquire(rank: u8) -> Held {
            if rank == 0 {
                return Held(None);
            }
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                if let Some(&max) = held.iter().max() {
                    assert!(
                        rank > max,
                        "lock-order violation: acquiring a rank-{rank} lock while holding \
                         rank {max} (hierarchy: VM registry(1) -> blob slot(2) -> \
                         lease book(3) -> provider/meta maps(4) -> client caches(5))"
                    );
                }
                held.push(rank);
            });
            Held(Some(rank))
        }

        impl Drop for Held {
            fn drop(&mut self) {
                if let Some(rank) = self.0 {
                    HELD.with(|h| {
                        let mut held = h.borrow_mut();
                        if let Some(pos) = held.iter().rposition(|&r| r == rank) {
                            held.remove(pos);
                        }
                    });
                }
            }
        }

        /// `what` is about to put traffic on the wire or park the thread.
        pub fn assert_none_held(what: &str) {
            if let Some(rank) = HELD.with(|h| h.borrow().iter().max().copied()) {
                panic!(
                    "wire-while-locked: {what} while holding a rank-{rank} lock; charge RPCs \
                     and wait on gates outside the critical section"
                );
            }
        }
    }

    #[cfg(not(debug_assertions))]
    mod imp {
        /// Zero-sized in release builds: no thread-local, no bookkeeping.
        pub struct Held;

        #[inline(always)]
        pub fn acquire(_rank: u8) -> Held {
            Held
        }

        #[inline(always)]
        pub fn assert_none_held(_what: &str) {}
    }

    pub use imp::{acquire, assert_none_held, Held};
}

/// Mutual exclusion primitive (API subset of `parking_lot::Mutex`, plus the
/// workspace-local [`lock_order`] rank extension).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    rank: AtomicU8,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            rank: AtomicU8::new(0),
            inner: sync::Mutex::new(value),
        }
    }

    /// A mutex pre-ranked in the [`lock_order`] hierarchy.
    pub fn with_rank(value: T, rank: u8) -> Self {
        let m = Self::new(value);
        m.set_rank(rank);
        m
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Assign this lock's [`lock_order`] rank (0 = unranked, never checked).
    pub fn set_rank(&self, rank: u8) {
        self.rank.store(rank, Ordering::Relaxed);
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let order = lock_order::acquire(self.rank.load(Ordering::Relaxed));
        let guard = match self.inner.lock() {
            Ok(g) => g,
            // parking_lot has no poisoning: recover the guard.
            Err(p) => p.into_inner(),
        };
        MutexGuard {
            inner: Some(guard),
            _order: order,
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let order = lock_order::acquire(self.rank.load(Ordering::Relaxed));
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                inner: Some(g),
                _order: order,
            }),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
                _order: order,
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard for [`Mutex`]. The `Option` is always `Some` except transiently
/// inside [`Condvar::wait`], which must hand the std guard back to std.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
    _order: lock_order::Held,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken during wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Result of a timed wait on a [`Condvar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable (API subset of `parking_lot::Condvar`).
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Block until notified. Unlike `std`, takes the guard by `&mut` and
    /// re-acquires the lock before returning (parking_lot signature).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard taken during wait");
        let std_guard = match self.inner.wait(std_guard) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.inner = Some(std_guard);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.inner.take().expect("guard taken during wait");
        let (std_guard, res) = match self.inner.wait_timeout(std_guard, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(std_guard);
        WaitTimeoutResult(res.timed_out())
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar { .. }")
    }
}

/// Reader-writer lock (API subset of `parking_lot::RwLock`, plus the
/// workspace-local [`lock_order`] rank extension).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    rank: AtomicU8,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            rank: AtomicU8::new(0),
            inner: sync::RwLock::new(value),
        }
    }

    /// An rwlock pre-ranked in the [`lock_order`] hierarchy.
    pub fn with_rank(value: T, rank: u8) -> Self {
        let l = Self::new(value);
        l.set_rank(rank);
        l
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Assign this lock's [`lock_order`] rank (0 = unranked, never checked).
    pub fn set_rank(&self, rank: u8) {
        self.rank.store(rank, Ordering::Relaxed);
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let order = lock_order::acquire(self.rank.load(Ordering::Relaxed));
        let guard = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard {
            inner: guard,
            _order: order,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let order = lock_order::acquire(self.rank.load(Ordering::Relaxed));
        let guard = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard {
            inner: guard,
            _order: order,
        }
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    _order: lock_order::Held,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    _order: lock_order::Held,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_one();
        h.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn ranked_acquisition_up_hierarchy_is_allowed() {
        let a = Mutex::with_rank((), 1);
        let b = RwLock::with_rank((), 2);
        let _ga = a.lock();
        let _gb = b.read();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation: acquiring a rank-2 lock while holding rank 2")]
    fn ranked_acquisition_at_a_held_rank_panics() {
        let a = RwLock::with_rank((), 2);
        let b = Mutex::with_rank((), 2);
        let _ga = a.read();
        let _gb = b.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order violation")]
    fn ranked_acquisition_down_hierarchy_panics() {
        let a = Mutex::with_rank((), 3);
        let b = RwLock::with_rank((), 2);
        let _ga = a.lock();
        let _gb = b.read();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "wire-while-locked: Proc::rpc while holding a rank-3 lock")]
    fn wire_under_a_ranked_guard_panics() {
        let a = Mutex::with_rank((), 2);
        let b = RwLock::with_rank((), 3);
        let _ga = a.lock();
        let _gb = b.read();
        lock_order::assert_none_held("Proc::rpc");
    }

    #[test]
    fn wire_under_an_unranked_or_a_dropped_guard_is_allowed() {
        let ranked = Mutex::with_rank((), 2);
        let plain = Mutex::new(());
        drop(ranked.lock());
        let _p = plain.lock();
        lock_order::assert_none_held("Proc::rpc");
    }

    #[test]
    fn rank_token_is_released_with_the_guard() {
        let a = Mutex::with_rank((), 3);
        let b = Mutex::with_rank((), 2);
        drop(a.lock());
        let _gb = b.lock(); // no rank-3 token survives the dropped guard
    }

    #[test]
    fn unranked_locks_are_never_checked() {
        let ranked = Mutex::with_rank((), 4);
        let plain = Mutex::new(());
        let _g = ranked.lock();
        let _p = plain.lock(); // rank 0 under rank 4: no assertion
    }
}

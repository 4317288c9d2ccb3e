//! Minimal permit-based thread parker (see "Rust Atomics and Locks", ch. 1/9:
//! a Mutex+Condvar pair with a boolean permit avoids lost wakeups even when
//! `unpark` races ahead of `park`).
//!
//! `unpark` sets the permit under the mutex but notifies only after
//! releasing it. Notifying under the lock wakes a thread whose first act is
//! to take that very lock: on one CPU the woken thread preempts the waker,
//! finds the mutex held and blocks again, and the waker must be scheduled
//! once more just to release it — three context switches where one will
//! do. No wake is lost by notifying late: a parker that has not reached the
//! condvar yet sees the permit before it waits.

use parking_lot::{Condvar, Mutex};

#[derive(Default)]
pub(crate) struct Parker {
    permit: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Block until a permit is available, then consume it.
    pub(crate) fn park(&self) {
        let mut permit = self.permit.lock();
        while !*permit {
            self.cv.wait(&mut permit);
        }
        *permit = false;
    }

    /// Make a permit available, waking the parked thread if any.
    pub(crate) fn unpark(&self) {
        *self.permit.lock() = true;
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unpark_before_park_is_not_lost() {
        let p = Parker::new();
        p.unpark();
        p.park(); // must not block
    }

    #[test]
    fn wakes_parked_thread() {
        let p = Arc::new(Parker::new());
        let p2 = p.clone();
        let t = std::thread::spawn(move || p2.park());
        std::thread::sleep(std::time::Duration::from_millis(10));
        p.unpark();
        t.join().unwrap();
    }

    #[test]
    fn permit_is_consumed() {
        let p = Arc::new(Parker::new());
        p.unpark();
        p.park();
        // Second park must block until a fresh unpark arrives.
        let p2 = p.clone();
        let t = std::thread::spawn(move || p2.park());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!t.is_finished());
        p.unpark();
        t.join().unwrap();
    }
}

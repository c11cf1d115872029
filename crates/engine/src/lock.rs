//! The engine's one locking policy: recover from poisoned mutexes.
//!
//! A worker that panics while holding a lock (an evaluator fault, a
//! leader dying mid-flight) must not cascade poison panics into every
//! other submitter, worker and follower. Every engine mutex is locked
//! (and every condition variable waited on) through these helpers, which
//! hand back the guard of a poisoned lock as if it were healthy.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

/// Locks `m`, recovering the guard from a poisoned mutex.
pub(crate) fn lock_ignore_poison<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tries to lock `m` without blocking. `None` means the lock is held
/// elsewhere; a poisoned lock counts as acquired.
pub(crate) fn try_lock_ignore_poison<T: ?Sized>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Blocks on `cv`, recovering the guard if the mutex was poisoned while
/// this thread slept.
pub(crate) fn wait_ignore_poison<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

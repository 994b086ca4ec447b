//! The thread's lock and loop context, checked at every blocking seam.
//!
//! The server is one non-blocking loop over one reader-writer lock on the
//! state (§5.4), and the DCM takes that lock only between its blocking
//! update legs (§5.7.1). Three rules follow: a thread never re-acquires a
//! state guard it already holds (the lock is not reentrant, so that
//! self-deadlocks as soon as a writer queues between the two), nothing
//! blocks while a guard is live, and nothing blocks inside a server pass.
//!
//! This module keeps, per thread, the set of state guards held —
//! `moira-core`'s `SharedState` records each guard it hands out through
//! [`hold`] — and whether a server pass is running ([`enter_pass`]).
//! [`hold`] refuses a blocking re-acquisition, and [`assert_may_block`],
//! called at each blocking seam, refuses to block under a guard or inside
//! a pass. Both panic at the offending call instead of hanging the thread.
//!
//! Debug builds only: in release every function here is an inlined no-op,
//! so the server carries no bookkeeping.

use std::cell::{Cell, RefCell};

thread_local! {
    /// Keys (lock addresses) of the state guards this thread holds.
    static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Set while this thread runs a server pass.
    static IN_PASS: Cell<bool> = const { Cell::new(false) };
}

/// One entry of the thread's held-set, kept beside the guard it records;
/// dropping it removes the entry.
#[must_use]
pub struct Held {
    key: usize,
}

impl Drop for Held {
    #[inline]
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&k| k == self.key) {
                    held.swap_remove(pos);
                }
            });
        }
    }
}

/// Records that this thread is taking the lock `key`. Call it before the
/// lock operation, so that a blocking acquisition of a lock this thread
/// already holds panics here rather than hanging in the lock. A `try_*`
/// acquisition (`blocking == false`) cannot deadlock — it fails and the
/// caller sheds — so it is recorded but never refused.
#[inline]
pub fn hold(key: usize, blocking: bool) -> Held {
    if cfg!(debug_assertions) {
        let reentrant = blocking && HELD.with(|h| h.borrow().contains(&key));
        assert!(
            !reentrant,
            "same-thread re-acquisition of the state lock: a guaranteed \
             self-deadlock under the non-reentrant RwLock"
        );
        HELD.with(|h| h.borrow_mut().push(key));
    }
    Held { key }
}

/// Marks the span of one server pass on this thread; dropping it ends
/// the pass.
#[must_use]
pub struct Pass(());

impl Drop for Pass {
    #[inline]
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            IN_PASS.with(|p| p.set(false));
        }
    }
}

/// Starts a server pass on this thread, ending when the returned value
/// drops.
#[inline]
pub fn enter_pass() -> Pass {
    if cfg!(debug_assertions) {
        IN_PASS.with(|p| p.set(true));
    }
    Pass(())
}

/// Panics if this thread must not block at `site`: it holds a state
/// guard, or it is inside a server pass. A no-op in release builds.
#[inline]
pub fn assert_may_block(site: &str) {
    if !cfg!(debug_assertions) {
        return;
    }
    let held = HELD.with(|h| h.borrow().len());
    assert!(
        held == 0,
        "{site} would block while this thread holds {held} state guard(s)"
    );
    assert!(
        !IN_PASS.with(Cell::get),
        "{site} would block inside a server pass"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn may_block_once_the_guard_and_the_pass_are_gone() {
        assert_may_block("test");
        drop(hold(1, true));
        assert_may_block("test");
        drop(enter_pass());
        assert_may_block("test");
    }

    #[test]
    fn try_reacquisition_is_recorded_not_refused() {
        let _outer = hold(1, true);
        drop(hold(1, false));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "holds 1 state guard")]
    fn blocking_under_a_guard_panics() {
        let _guard = hold(1, true);
        assert_may_block("test");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inside a server pass")]
    fn blocking_inside_a_pass_panics() {
        let _pass = enter_pass();
        assert_may_block("test");
    }
}

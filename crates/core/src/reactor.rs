//! Readiness event collection for the server loop.
//!
//! The reactor is the thin layer between the OS selector (`polling`'s
//! epoll/kqueue/poll(2) shim) and [`crate::server::MoiraServer`]'s
//! classify-and-dispatch pass. It owns the `Poller`, tracks nothing about
//! connections beyond their registered keys, and hands the server a
//! [`ReadySet`] per wait: which keys are readable, which are writable,
//! and whether the listener has pending accepts.
//!
//! Two properties matter to the rest of the server:
//!
//! - **Level-triggered.** A key stays ready until its condition is
//!   drained, so a pass that leaves bytes behind (frame still partial,
//!   outbox still full) is re-woken on the next wait without bookkeeping.
//! - **Refusal, not degradation.** Readiness events are the only way a
//!   source is ever served, so there is no second path to fall back to: a
//!   server whose selector cannot be opened does not start
//!   ([`Reactor::new`] panics, once, at construction), and a source whose
//!   fd the selector refuses gets its error back from
//!   [`Reactor::register`] — the server drops that connection, or fails
//!   that `listen_tcp`, instead of carrying it unwatched.
//!
//! The reactor wait is the loop's only blocking point, and it blocks with
//! a timeout while holding **no** locks; `moira-lint`'s
//! reactor-discipline pass enforces that no `SharedState` guard is live
//! across it.

use std::io;
use std::sync::Arc;
use std::time::Duration;

use polling::{Event, Events, Poller};

/// Registration key reserved for the TCP listener. Connection keys are
/// allocated monotonically from zero and can never collide with it.
pub(crate) const LISTENER_KEY: usize = usize::MAX - 1;

/// What one reactor wait observed.
#[derive(Debug, Default)]
pub(crate) struct ReadySet {
    /// The listener has connections to accept.
    pub listener: bool,
    /// Registration keys with bytes (or EOF/errors) to read.
    pub readable: Vec<usize>,
    /// Registration keys whose sockets can take queued output.
    pub writable: Vec<usize>,
}

/// Wakes a [`Reactor`] blocked in its wait, from any thread.
///
/// Cloneable and cheap; used by the in-process `ServerThread` driver to
/// signal attach/stop without the loop having to poll a command queue on
/// a timer.
#[derive(Clone)]
pub struct Waker {
    poller: Arc<Poller>,
}

impl Waker {
    /// Interrupts the current (or next) reactor wait.
    pub fn wake(&self) {
        let _ = self.poller.notify();
    }
}

/// The server loop's event source.
pub(crate) struct Reactor {
    poller: Arc<Poller>,
    events: Events,
}

impl Reactor {
    /// Opens the OS selector.
    ///
    /// # Panics
    /// When the selector cannot be opened (fd exhaustion at start-up): a
    /// server that cannot observe readiness cannot serve anyone, and
    /// `MoiraServer::new` has no error to return it through.
    pub fn new() -> Reactor {
        let poller = Poller::new().expect("open the OS readiness selector");
        Reactor {
            poller: Arc::new(poller),
            events: Events::new(),
        }
    }

    /// A handle that can interrupt this reactor's wait from other threads.
    pub fn waker(&self) -> Waker {
        Waker {
            poller: self.poller.clone(),
        }
    }

    /// Registers `fd` under `key` with read interest — every source starts
    /// out unpaused with an empty outbox. An error (closed fd, a file type
    /// the selector rejects, registration table full) means the source
    /// will never be seen: the caller must refuse it.
    pub fn register(&self, fd: polling::RawFd, key: usize) -> io::Result<()> {
        self.poller.add(fd, Event::readable(key))
    }

    /// Replaces the interest of a registered fd (backpressure pause and
    /// resume, write-interest toggling).
    pub fn update(&self, fd: polling::RawFd, key: usize, read: bool, write: bool) {
        let interest = Event {
            key,
            readable: read,
            writable: write,
        };
        let _ = self.poller.modify(fd, interest);
    }

    /// Removes a registered fd (connection teardown).
    pub fn deregister(&self, fd: polling::RawFd) {
        let _ = self.poller.delete(fd);
    }

    /// Blocks until something is ready, the timeout lapses, or a [`Waker`]
    /// fires; returns the observed readiness (empty when the wait itself
    /// failed — the next pass waits again).
    pub fn wait(&mut self, timeout: Option<Duration>) -> ReadySet {
        let mut ready = ReadySet::default();
        if self.poller.wait(&mut self.events, timeout).is_err() {
            return ready;
        }
        for ev in self.events.iter() {
            if ev.key == LISTENER_KEY {
                ready.listener = true;
                continue;
            }
            if ev.readable {
                ready.readable.push(ev.key);
            }
            if ev.writable {
                ready.writable.push(ev.key);
            }
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_hands_back_the_selectors_refusal() {
        // Both callers — `attach` and `listen_tcp` — turn this error into
        // a refusal; neither keeps an unwatched source.
        let reactor = Reactor::new();
        assert!(reactor.register(-1, 0).is_err());
    }
}

//! Stage 1 of a poll pass: from the reactor's readiness events to drained
//! frames — how long the wait may block, which connections to read, and
//! every complete frame they hold, in per-connection order. Readiness
//! events are the only source of work: every connection and the listener
//! are registered with the reactor (or were refused), so nothing is ever
//! scanned.

use std::time::Duration;

use moira_protocol::transport::TcpChannel;

use super::classify::Frame;
use super::{MoiraServer, Pass};
use crate::reactor::ReadySet;

/// Wait clamp while a paused connection's resume condition produces no
/// event — the peer draining an in-process queue, whose depth the server
/// reads but whose wake pipe only signals the other direction. The loop
/// ticks at this cadence instead of blocking the full timeout, so such a
/// connection resumes within a millisecond of its peer catching up.
pub(super) const RESUME_TICK: Duration = Duration::from_millis(1);

impl MoiraServer {
    /// How long the reactor wait may block for a caller asking `timeout`:
    /// all of it, unless a paused connection needs its periodic resume
    /// check. A paused connection with write interest registered needs
    /// none — the socket turning writable is its event.
    pub(super) fn wait_bound(&self, timeout: Option<Duration>) -> Option<Duration> {
        if self.connections.iter().any(|c| c.paused && !c.reg_write) {
            Some(timeout.unwrap_or(RESUME_TICK).min(RESUME_TICK))
        } else {
            timeout
        }
    }

    /// Turns one wait's events into frames: flush writable outboxes,
    /// accept, pick the readable set, drain it.
    pub(super) fn collect(&mut self, ready: &ReadySet, pass: &mut Pass) -> Vec<Frame> {
        // Retire queued output first: flushing frees the peer to make
        // progress and can lift backpressure before new frames are read.
        for key in &ready.writable {
            if let Some(&idx) = self.key_map.get(key) {
                pass.touched.push(idx);
                if self.connections[idx].chan.flush().is_err() {
                    pass.dead.push(idx);
                }
            }
        }

        let known = self.connections.len();
        if ready.listener {
            self.accept_pending();
        }

        // The readable set: ready keys plus fresh accepts, whose first
        // frames may have arrived before registration.
        let ready_idxs = ready.readable.iter().filter_map(|k| self.key_map.get(k));
        let mut readable: Vec<usize> = ready_idxs
            .copied()
            .chain(known..self.connections.len())
            .collect();
        readable.sort_unstable();
        readable.dedup();

        let mut frames = Vec::new();
        for conn in readable {
            let c = &mut self.connections[conn];
            // Not reading a paused connection *is* the backpressure.
            if c.paused {
                continue;
            }
            pass.touched.push(conn);
            loop {
                match c.chan.try_recv() {
                    Ok(Some(bytes)) => frames.push((conn, bytes)),
                    Ok(None) => {
                        if c.chan.is_closed() {
                            pass.dead.push(conn);
                        }
                        break;
                    }
                    Err(_) => {
                        pass.dead.push(conn);
                        break;
                    }
                }
            }
        }
        frames
    }

    fn accept_pending(&mut self) {
        let mut accepted = Vec::new();
        if let Some(listener) = &self.listener {
            // Until WouldBlock; any other error also waits for the next
            // readiness event.
            while let Ok(conn) = listener.accept() {
                accepted.push(conn);
            }
        }
        for (stream, peer) in accepted {
            if let Ok(chan) = TcpChannel::new(stream) {
                self.attach(Box::new(chan), &peer.ip().to_string(), peer.port());
            }
        }
    }
}

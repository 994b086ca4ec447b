//! Stage 1 of a poll pass: from the reactor's readiness events to drained
//! frames — how long the wait may block, which connections to read, and
//! every complete frame they hold, in per-connection order.

use std::time::Duration;

use moira_protocol::transport::TcpChannel;

use super::classify::Frame;
use super::{MoiraServer, Pass};
use crate::reactor::ReadySet;

/// Wait clamp when some source cannot deliver readiness events — an
/// unregistered fd, a selector-less platform, or a paused connection whose
/// resume condition (the peer draining an in-process queue) produces no
/// event. The loop ticks at this cadence instead of blocking the full
/// timeout, so degraded sources are still served within a millisecond.
pub(super) const SCAN_TICK: Duration = Duration::from_millis(1);

impl MoiraServer {
    /// True when some source sits outside the reactor and must be scanned
    /// every pass: connections without (registered) fds, an unregistered
    /// listener, or a selector-less platform, where everything is.
    pub(super) fn scan_mode(&self) -> bool {
        !self.reactor.has_poller()
            || (self.listener.is_some() && !self.listener_registered)
            || self.connections.iter().any(|c| !c.registered)
    }

    /// How long the reactor wait may block for a caller asking `timeout`.
    /// Scanning forces a clamped wait, and so does a paused connection
    /// whose peer drains silently (in-proc queues): it needs a periodic
    /// resume check.
    pub(super) fn wait_bound(
        &self,
        timeout: Option<Duration>,
        scan_mode: bool,
    ) -> Option<Duration> {
        let needs_tick = || self.connections.iter().any(|c| c.paused && !c.reg_write);
        if !self.reactor.has_poller() {
            Some(Duration::ZERO)
        } else if scan_mode || needs_tick() {
            Some(timeout.unwrap_or(SCAN_TICK).min(SCAN_TICK))
        } else {
            timeout
        }
    }

    /// Turns one wait's events into frames: flush writable outboxes,
    /// accept, pick the readable set, drain it.
    pub(super) fn collect(
        &mut self,
        ready: &ReadySet,
        scan_mode: bool,
        pass: &mut Pass,
    ) -> Vec<Frame> {
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

        // Accept on listener readiness (every pass in scan mode — the
        // non-blocking accept simply reports WouldBlock when idle).
        let known = self.connections.len();
        if ready.listener || scan_mode {
            self.accept_pending();
        }

        // The readable set: ready keys plus fresh accepts (whose first
        // frames may have arrived before registration), or every
        // connection when scanning.
        let mut readable: Vec<usize> = if scan_mode {
            (0..self.connections.len()).collect()
        } else {
            let ready_idxs = ready.readable.iter().filter_map(|k| self.key_map.get(k));
            ready_idxs
                .copied()
                .chain(known..self.connections.len())
                .collect()
        };
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

//! Stage 1 of a poll pass: from the reactor's readiness events to drained
//! frames — which connections to flush and read, and every complete frame
//! they hold, in per-connection order. Readiness events are the only
//! source of work: every connection and the listener are registered with
//! the reactor (or were refused), so the connection table is never
//! scanned.

use moira_protocol::transport::TcpChannel;

use super::classify::Frame;
use super::{MoiraServer, Pass};
use crate::reactor::ReadySet;

impl MoiraServer {
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
                    Ok(None) => break,
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

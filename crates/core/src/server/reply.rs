//! Stage 5 of a poll pass: replies go out in per-connection FIFO order,
//! reactor interest is brought in line with each outbox the pass touched
//! (backpressure lives here: the server's cap against the channel's
//! `queued_bytes`), and connections that died during the pass are torn
//! down together — the one stage that walks the connection table.

use std::collections::HashSet;

use super::classify::TaskSlot;
use super::{MoiraServer, Pass};

impl MoiraServer {
    /// Queues every slot's replies on its connection. Slots are in drain
    /// order, which is per-connection FIFO. `send` queues into the
    /// connection's outbox and flushes opportunistically — a slow peer
    /// cannot stall this loop.
    pub(super) fn send_replies(&mut self, tasks: Vec<TaskSlot>, pass: &mut Pass) {
        for task in tasks {
            let conn = &mut self.connections[task.conn];
            for reply in task.work.into_replies() {
                if conn.chan.send(reply.encode()).is_err() {
                    pass.dead.push(task.conn);
                    break;
                }
            }
        }
    }

    /// Re-syncs reactor interest for every connection this pass touched:
    /// write interest while the OS would not take the whole outbox, and
    /// the backpressure pause/resume transitions. A paused connection is
    /// touched exactly when its resume check is due: it holds write
    /// interest, so its socket turning writable put it in `collect`'s
    /// flush set.
    pub(super) fn resync(&mut self, pass: &mut Pass) {
        pass.touched.sort_unstable();
        pass.touched.dedup();
        for &idx in &pass.touched {
            if !self.resync_interest(idx) {
                pass.dead.push(idx);
            }
        }
    }

    /// Applies one connection's post-pass interest transitions: engage or
    /// lift backpressure against the outbox cap, keep write interest while
    /// flushing is incomplete, and tell the reactor only when something
    /// changed. False if the connection's channel is dead.
    fn resync_interest(&mut self, idx: usize) -> bool {
        let conn = &mut self.connections[idx];
        // Opportunistic flush so interest reflects the post-pass outbox.
        let Ok(flushed_clean) = conn.chan.flush() else {
            return false;
        };
        let queued = conn.chan.queued_bytes();
        let cap = self.write_cap;
        if !conn.paused && queued > cap {
            // Over the high-water mark: stop reading this peer. Its
            // requests wait in its socket (and eventually its own send
            // window) — the kernel's flow control propagates the stall to
            // the client, and our memory stays bounded by the cap plus
            // one in-flight batch.
            conn.paused = true;
            self.obs_backpressure.inc();
        } else if conn.paused && queued <= cap / 2 {
            // Drained below the low-water mark: resume reading.
            conn.paused = false;
        }
        let want_read = !conn.paused;
        let want_write = !flushed_clean;
        // A paused outbox is above cap/2, so never empty: the write event
        // that drains it is the connection's resume signal, the only one.
        debug_assert!(!conn.paused || want_write, "paused without write interest");
        if want_read != conn.reg_read || want_write != conn.reg_write {
            self.reactor
                .update(conn.fd, conn.key, want_read, want_write);
            conn.reg_read = want_read;
            conn.reg_write = want_write;
        }
        true
    }

    /// Removes the pass's dead connections: one sweep over the connection
    /// table, one state guard, one sweep over `state.clients` — a mass
    /// disconnect costs the same guard acquisition as a single one.
    pub(super) fn teardown(&mut self, dead: Vec<usize>) {
        if dead.is_empty() {
            return;
        }
        let dead: HashSet<usize> = dead.into_iter().collect();
        let mut gone: HashSet<u64> = HashSet::with_capacity(dead.len());
        remove_at(&mut self.connections, &dead, |conn| {
            self.reactor.deregister(conn.fd)
        });
        remove_at(&mut self.sessions, &dead, |session| {
            gone.insert(session.client_number);
        });
        self.obs_conn_closed.add(gone.len() as u64);
        self.tiers
            .state
            .write()
            .clients
            .retain(|c| !gone.contains(&c.client_number));
        self.key_map = self
            .connections
            .iter()
            .enumerate()
            .map(|(i, c)| (c.key, i))
            .collect();
        self.obs_conn_open.set(self.connections.len() as i64);
    }
}

/// `Vec::retain` by position: drops the elements whose index is in `dead`,
/// handing each to `removed` first.
fn remove_at<T>(items: &mut Vec<T>, dead: &HashSet<usize>, mut removed: impl FnMut(&T)) {
    let mut idx = 0;
    items.retain(|item| {
        let keep = !dead.contains(&idx);
        idx += 1;
        if !keep {
            removed(item);
        }
        keep
    });
}

//@ file: crates/core/src/server/mod.rs
// `.unwrap()` and `.expect()` in the request loop: one poisoned task and
// the daemon every workstation depends on is gone.

fn poll_once(&mut self) {
    let msg = self.queue.pop().unwrap();
    let conn = self.connections.get(msg.conn).expect("conn vanished");
    conn.reply(msg);
}

//@ file: crates/dcm/src/dcm/mod.rs
// Blocking I/O while holding the state write guard stalls every session
// behind the lock for the duration of the disk write and the sleep.

fn persist(state: &SharedState) {
    let mut guard = state.write();
    guard.counter += 1;
    std::fs::write("/var/moira/dump", guard.render()).ok();
    std::thread::sleep(std::time::Duration::from_millis(50));
}

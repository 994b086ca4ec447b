//@ file: crates/dcm/src/dcm/mod.rs
// The helper chain crosses a module boundary and re-acquires the state
// lock two hops down — an instant self-deadlock under a non-reentrant
// RwLock, invisible to a one-level walk.
use crate::audit::note_progress;

fn update_pass(&mut self) {
    let guard = self.state.write();
    note_progress(self, guard.tick);
}
//@ file: crates/dcm/src/audit.rs
use crate::metrics::sample_state;

pub fn note_progress(ctx: &Dcm, tick: u64) {
    let snapshot = sample_state(ctx);
    ctx.log(tick, snapshot);
}
//@ file: crates/dcm/src/metrics.rs
pub fn sample_state(ctx: &Dcm) -> usize {
    let state = ctx.state.read();
    state.pending()
}

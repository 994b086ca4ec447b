//@ file: crates/dcm/src/generators/incremental.rs
// Whole-table iteration inside the incremental engine — the exact scan
// the delta path exists to avoid. Both the direct chain and the bound
// table handle are caught.

fn rebuild_section(state: &MoiraState, section: &Section) -> Vec<String> {
    let mut out = Vec::new();
    for (row, _) in state.db.at(section.driver).iter() {
        out.push(format!("{row:?}"));
    }
    let t = state.db.table(users::T);
    for (row, _) in t.iter() {
        out.push(format!("{row:?}"));
    }
    out
}
